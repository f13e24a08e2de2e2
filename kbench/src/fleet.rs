//! `fleet-pipe` and `fleet-tcp-sweep`: the multi-process executor behind
//! `kcenter cluster --procs 2` and `--workers A,B`. Every job builds a
//! fresh fleet, runs `exec_mr_outliers_on` and shuts the fleet down, as
//! one CLI invocation does after loading its CSV.
//!
//! * `fleet-pipe` spawns two pipe workers per job and writes its shards
//!   into the work directory every time.
//! * `fleet-tcp-sweep` dials two long-lived `--listen` workers that share
//!   one artifact store with the coordinator, and cycles (k, z) through
//!   the Fig. 4 sweep. After the warm-up it spawns nothing and writes no
//!   shard; it pays TCP framing and the hello handshake instead.
//!
//! The traced variant adds spans around the executor call and the fleet
//! shutdown. It replays round 1 in process once per (k, z), timing the
//! coreset layer the workers run, and round 2 on the union after each job
//! (outside its time) to split round 2 into matrix build, radius search
//! and the objective pass over all points.

use std::io::BufReader;
use std::net::TcpStream;
use std::path::Path;
use std::process::Command;
use std::time::Duration;

use kcenter_core::coreset::CoresetSpec;
use kcenter_core::mapreduce_outliers::{mr_kcenter_outliers, MrOutliersConfig};
use kcenter_core::solution::radius_with_outliers;
use kcenter_data::Normalization;
use kcenter_exec::protocol::{read_frame, write_frame};
use kcenter_exec::{
    exec_mr_outliers_on, ExecConfig, ExecOutliersResult, MetricKind, TransportSpec, WorkerCommand,
    WorkerFleet,
};
use kcenter_metric::{Euclidean, Point};
use kcenter_store::ArtifactStore;

use crate::procs::Owned;
use crate::replay::{self, Outcome};
use crate::report::Report;
use crate::Ctx;

/// Which fleet workload.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Fleet {
    /// Pipe workers spawned per job, no shard store.
    Pipe,
    /// Two `--listen` workers over TCP with a shared shard store, (k, z)
    /// sweeping.
    TcpSweep,
}

const N: usize = 200_000;
const ELL: usize = 2;
const MU: usize = 4;
/// A job still running after this fails instead of hanging the run.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

/// Per-job values read off the executor's report, in job order.
#[derive(Default)]
struct Columns {
    round1: Vec<f64>,
    round2: Vec<f64>,
    build_max: Vec<f64>,
    wall_max: Vec<f64>,
    round1_overhead: Vec<f64>,
    shutdown: Vec<f64>,
    spawned: Vec<f64>,
    respawns: Vec<f64>,
    reconnects: Vec<f64>,
    merge_jobs: Vec<f64>,
    shard_writes: Vec<f64>,
    shard_reuses: Vec<f64>,
    shard_mb: Vec<f64>,
    union_size: Vec<f64>,
    dist_evals: Vec<f64>,
    search_evaluations: Vec<f64>,
}

/// A `kbench exec-worker --listen` process.
struct Listener {
    process: Owned,
    addr: String,
}

impl Listener {
    fn start(store: &Path) -> Result<Listener, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut cmd = Command::new(exe);
        cmd.args(["exec-worker", "--listen", "127.0.0.1:0", "--store"])
            .arg(store);
        let mut process = Owned::spawn(cmd)?;
        let addr = process.announced("kcenter-exec-worker: listening on ")?;
        Ok(Listener { process, addr })
    }

    /// Asks the worker process to exit (`shutdown process`), killing it
    /// past the stop limit. Returns whether it exited by itself.
    fn stop(self) -> bool {
        let asked = (|| -> std::io::Result<()> {
            let stream = TcpStream::connect(&self.addr)?;
            let mut writer = stream.try_clone()?;
            write_frame(&mut writer, &["shutdown".into(), "process".into()])?;
            read_frame(&mut BufReader::new(stream))?;
            Ok(())
        })();
        let exited = self.process.await_exit();
        asked.is_ok() && exited
    }
}

/// Stops every listen worker, one counted operation each.
fn stop_all(workers: Vec<Listener>, rep: &mut Report) {
    for worker in workers {
        rep.op(worker.stop(), || {
            "listen worker did not exit on shutdown".into()
        });
    }
}

/// Runs the workload and fills `rep`.
pub fn run(ctx: &Ctx, rep: &mut Report, fleet: Fleet) -> Result<(), String> {
    let n = ctx.scale(N);
    let (planted, sweep): (usize, &[(usize, usize)]) = match fleet {
        Fleet::Pipe => (100, &[(20, 100)]),
        Fleet::TcpSweep => (200, &[(10, 50), (20, 100), (40, 200)]),
    };
    let configs: Vec<MrOutliersConfig> = sweep
        .iter()
        .map(|&(k, z)| {
            MrOutliersConfig::deterministic(k, z, ELL, CoresetSpec::Multiplier { mu: MU })
        })
        .collect();
    let store_dir = ctx.dir.path().join("store");
    let make = || {
        let mut raw = match fleet {
            Fleet::Pipe => kcenter_data::higgs_like(n, ctx.seed),
            Fleet::TcpSweep => kcenter_data::power_like(n, ctx.seed),
        };
        kcenter_data::inject_outliers(&mut raw, planted, ctx.seed ^ 0xBAD);
        let points = Normalization::zscore(&raw).apply_all(&raw);
        let workers = match fleet {
            Fleet::Pipe => Vec::new(),
            Fleet::TcpSweep => (0..ELL)
                .map(|_| Listener::start(&store_dir))
                .collect::<Result<Vec<_>, _>>()?,
        };
        Ok((points, workers))
    };
    let (points, workers) = ctx.setup(rep, make, |(_, workers), rep| stop_all(workers, rep))?;

    let worker = WorkerCommand::current_exe(&["exec-worker"]).map_err(|e| e.to_string())?;
    let mut exec = ExecConfig::new(worker);
    exec.work_dir = Some(ctx.dir.path().join("work"));
    exec.max_workers = Some(ELL);
    exec.timeout = JOB_TIMEOUT;
    if fleet == Fleet::TcpSweep {
        exec.transport = TransportSpec::TcpConnect {
            addrs: workers.iter().map(|w| w.addr.clone()).collect(),
        };
        exec.shard_store = Some(ArtifactStore::open(&store_dir).map_err(|e| e.to_string())?);
    }
    let traced = ctx.tracer.enabled();
    if traced && fleet == Fleet::Pipe {
        let path = ctx.dir.path().join("program-trace.jsonl");
        kcenter_obs::init_trace(&path.to_string_lossy())?;
    }
    // Round-2 replays need each configuration's union, which round 1
    // computes identically in process; its span times the layer the
    // workers run.
    let unions: Vec<replay::Union> = if traced {
        let round1 = |(c, config): (usize, &MrOutliersConfig)| {
            let job = c as u64;
            let tr = &ctx.tracer;
            tr.span("core.round1_coreset", None, job, |_| {
                replay::round1(&points, config)
            })
            .0
        };
        configs.iter().enumerate().map(round1).collect()
    } else {
        Vec::new()
    };

    // One warm-up job per configuration; on TCP the first writes the shards.
    let mut answers: Vec<(usize, Result<Outcome, String>)> = Vec::new();
    for (c, config) in configs.iter().enumerate() {
        let (result, _, _) = job(ctx, u64::MAX, &points, config, &exec);
        answers.push((c, result.map(|r| outcome(&r))));
    }
    let mut cols = Columns::default();
    let dim = points[0].dim();
    let (times, elapsed) = ctx.closed_loop(|job_no| {
        let c = job_no as usize % configs.len();
        let (result, seconds, shutdown) = job(ctx, job_no, &points, &configs[c], &exec);
        cols.shutdown.push(shutdown);
        if let Ok(r) = &result {
            record(&mut cols, r, points.len() * dim / ELL);
            if traced {
                replay_round2(
                    ctx,
                    job_no,
                    &points,
                    &unions[c],
                    &configs[c],
                    &r.clustering.centers,
                );
            }
        }
        answers.push((c, result.map(|r| outcome(&r))));
        seconds
    });
    let peak_rss = workers
        .iter()
        .filter_map(|w| w.process.peak_rss_mb())
        .fold(crate::own_peak_rss_mb(), f64::max);
    stop_all(workers, rep);

    let mut radii = Vec::new();
    for (c, config) in configs.iter().enumerate() {
        let reference = mr_kcenter_outliers(&points, &Euclidean, config)
            .map_err(|e| format!("reference solve: {e}"))?;
        let reference = Outcome::from(&reference);
        for (_, answer) in answers.iter().filter(|(ac, _)| *ac == c) {
            let ok = matches!(answer, Ok(a) if a.same(&reference));
            rep.op(ok, || {
                format!(
                    "fleet job {:?} differs from the reference",
                    answer.as_ref().err()
                )
            });
        }
        radii.push(reference.radius);
    }

    let jobs = times.len();
    // Job times of different (k, z) form separate modes; a median over
    // the mixture would jump between them as the job counts shift.
    let per_config: Vec<f64> = (0..configs.len())
        .filter_map(|c| {
            let mine: Vec<f64> = times
                .iter()
                .skip(c)
                .step_by(configs.len())
                .copied()
                .collect();
            crate::stats::median(&mine)
        })
        .collect();
    let op_s = per_config.iter().sum::<f64>() / per_config.len() as f64;
    rep.put("op_ms_p50", op_s * 1e3, "ms", jobs);
    rep.put(
        "points_per_s",
        (points.len() * jobs) as f64 / elapsed,
        "points/s",
        jobs,
    );
    rep.put("peak_rss_mb", peak_rss, "MB", 1);
    rep.put(
        "radius_mean",
        radii.iter().sum::<f64>() / radii.len() as f64,
        "dist",
        radii.len(),
    );
    for (name, column, unit) in [
        ("exec.round1_s", &cols.round1, "s"),
        ("exec.round2_s", &cols.round2, "s"),
        ("exec.worker_build_max_s", &cols.build_max, "s"),
        ("exec.worker_wall_max_s", &cols.wall_max, "s"),
        ("exec.round1_overhead_s", &cols.round1_overhead, "s"),
        ("exec.fleet_shutdown_s", &cols.shutdown, "s"),
        ("exec.workers_spawned", &cols.spawned, "count"),
        ("exec.worker_respawns", &cols.respawns, "count"),
        ("exec.reconnects", &cols.reconnects, "count"),
        ("exec.merge_jobs", &cols.merge_jobs, "count"),
        ("exec.shard_writes", &cols.shard_writes, "count"),
        ("exec.shard_reuses", &cols.shard_reuses, "count"),
        ("store.shard_mb_written", &cols.shard_mb, "MB"),
        ("core.union_size", &cols.union_size, "count"),
        ("core.round1_dist_evals", &cols.dist_evals, "count"),
        ("core.search_evaluations", &cols.search_evaluations, "count"),
    ] {
        rep.put_median(name, column, 1.0, unit);
    }
    if traced {
        for layer in [
            "core.round1_coreset",
            "metric.matrix_build",
            "core.radius_search",
            "core.objective",
        ] {
            rep.put_median(&format!("{layer}_s"), &ctx.tracer.seconds(layer), 1.0, "s");
        }
        let median = |v: &[f64]| crate::stats::median(v).unwrap_or(0.0);
        let objective = ctx.tracer.seconds("core.objective");
        rep.put(
            "exec.finalize_s",
            median(&cols.round2) - median(&objective),
            "s",
            objective.len(),
        );
    }
    Ok(())
}

/// One job: a fresh fleet, one executor run, a fleet shutdown. Returns
/// the run's result, the job's seconds and the shutdown's seconds.
fn job(
    ctx: &Ctx,
    job_no: u64,
    points: &[Point],
    config: &MrOutliersConfig,
    exec: &ExecConfig,
) -> (Result<ExecOutliersResult, String>, f64, f64) {
    let tr = &ctx.tracer;
    let ((result, shutdown), total) = tr.span("job", None, job_no, |id| {
        let mut fleet = WorkerFleet::from_config(exec);
        let (result, _) = tr.span("exec.run", Some(id), job_no, |_| {
            exec_mr_outliers_on(&mut fleet, points, MetricKind::Euclidean, config, exec)
        });
        let (_, shutdown) = tr.span("exec.fleet_shutdown", Some(id), job_no, |_| {
            fleet.shutdown()
        });
        (result.map_err(|e| e.to_string()), shutdown)
    });
    (result, total.as_secs_f64(), shutdown.as_secs_f64())
}

fn outcome(r: &ExecOutliersResult) -> Outcome {
    Outcome {
        centers: r.clustering.centers.clone(),
        radius: r.clustering.radius,
        r_min: r.r_min,
        uncovered: r.uncovered_weight,
    }
}

/// Appends one job's executor report to the columns. Shard megabytes are
/// computed from the coordinates a written shard holds.
fn record(cols: &mut Columns, r: &ExecOutliersResult, coords_per_shard: usize) {
    let report = &r.report;
    let secs = |d: Duration| d.as_secs_f64();
    let build_max = report
        .workers
        .iter()
        .map(|w| secs(w.build))
        .fold(0.0, f64::max);
    let wall_max = report
        .workers
        .iter()
        .map(|w| secs(w.wall))
        .fold(0.0, f64::max);
    cols.round1.push(secs(report.round1_time));
    cols.round2.push(secs(report.round2_time));
    cols.build_max.push(build_max);
    cols.wall_max.push(wall_max);
    cols.round1_overhead
        .push(secs(report.round1_time) - wall_max);
    cols.spawned.push(report.workers_spawned as f64);
    cols.respawns.push(report.worker_respawns as f64);
    cols.reconnects.push(report.reconnects as f64);
    cols.merge_jobs.push(report.merge_jobs as f64);
    cols.shard_writes.push(report.shard_writes as f64);
    cols.shard_reuses.push(report.shard_reuses as f64);
    cols.shard_mb
        .push((report.shard_writes * coords_per_shard * 8) as f64 / 1e6);
    cols.union_size.push(report.union_size as f64);
    cols.dist_evals.push(
        report
            .workers
            .iter()
            .map(|w| (w.shard_points * w.coreset_size) as f64)
            .sum(),
    );
    cols.search_evaluations.push(r.search_evaluations as f64);
}

/// Round 2 of the job again, in process, one span per layer: the matrix
/// build and radius search on the union, and the objective pass over all
/// points for the centers the fleet returned.
fn replay_round2(
    ctx: &Ctx,
    job_no: u64,
    points: &[Point],
    union: &replay::Union,
    config: &MrOutliersConfig,
    centers: &[Point],
) {
    let tr = &ctx.tracer;
    tr.span("replay", None, job_no, |id| {
        let at = Some(id);
        let (oracle, _) = tr.span("metric.matrix_build", at, job_no, |_| {
            replay::price(&union.coreset, config)
        });
        tr.span("core.radius_search", at, job_no, |_| {
            replay::search(&oracle, &union.coreset, config)
        });
        tr.span("core.objective", at, job_no, |_| {
            radius_with_outliers(points, centers, config.z, &Euclidean)
        });
    });
}
