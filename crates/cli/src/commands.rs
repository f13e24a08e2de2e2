//! Command implementations for the `kcenter` binary.

use std::error::Error;
use std::time::Instant;

use kcenter_baselines::charikar_kcenter_outliers;
use kcenter_core::coreset::CoresetSpec;
use kcenter_core::gmm::gmm_select;
use kcenter_core::mapreduce_kcenter::{mr_kcenter, MrKCenterConfig};
use kcenter_core::mapreduce_outliers::{mr_kcenter_outliers, MrOutliersConfig};
use kcenter_core::sequential::{sequential_kcenter_outliers, SequentialOutliersConfig};
use kcenter_core::solution::{radius, radius_with_outliers};
use kcenter_core::streaming_outliers::CoresetOutliers;
use kcenter_core::tuning;
use kcenter_data::csv::{load_csv, save_csv};
use kcenter_data::normalize::Normalization;
use kcenter_data::{higgs_like, inject_outliers, power_like, wiki_like};
use kcenter_exec::{ExecConfig, MetricKind, TransportSpec, WorkerCommand};
use kcenter_metric::doubling::{estimate_doubling_dimension, DoublingConfig};
use kcenter_metric::pairwise::diameter_bounds;
use kcenter_metric::{Euclidean, Point};
use kcenter_store::{ArtifactKind, ArtifactStore, Fingerprint, StoredSolution};
use kcenter_stream::run_stream;

use crate::args::{
    Algo, CacheAction, CacheArgs, ClusterArgs, GenerateArgs, InfoArgs, Normalize, ReportFormat,
    ServeArgs,
};

/// Resolves `--trace`: an explicit path wins over (and errors louder
/// than) the lazy `KCENTER_TRACE` environment path.
fn activate_trace(flag: &Option<String>) -> Result<(), Box<dyn Error>> {
    if let Some(path) = flag {
        kcenter_obs::init_trace(path)?;
    }
    Ok(())
}

/// Resolves the artifact store of `cluster` and `serve`: the
/// `--cache-dir` flag wins, else `KCENTER_CACHE_DIR`, else caching is
/// off. An explicit empty `--cache-dir ""` forces caching off even when
/// the environment variable is set (also how the in-process tests stay
/// deterministic without mutating the process environment).
fn activate_store(flag: &Option<String>) -> Option<ArtifactStore> {
    let store = match flag.as_deref() {
        Some("") => None,
        Some(dir) => match ArtifactStore::open(dir) {
            Ok(store) => Some(store),
            Err(err) => {
                eprintln!("warning: cannot open cache dir {dir}: {err} (cache off)");
                None
            }
        },
        None => ArtifactStore::from_env(),
    };
    if let Some(store) = &store {
        eprintln!("persistent cache: {}", store.dir().display());
    }
    store
}

/// Stable tag for each algorithm, folded into solution fingerprints
/// (enum discriminants are not a stable serialization).
fn algo_tag(algo: Algo) -> &'static str {
    match algo {
        Algo::Gmm => "gmm",
        Algo::Mr => "mr",
        Algo::MrOutliers => "mr-outliers",
        Algo::MrRandomized => "mr-randomized",
        Algo::Sequential => "seq",
        Algo::Stream => "stream",
        Algo::Charikar => "charikar",
    }
}

/// Fingerprint of one `cluster` invocation: the exact input coordinate
/// bits plus every parameter that influences the solution. Two runs with
/// the same fingerprint produce bitwise-identical centers/objective, so a
/// warm cache can serve the whole solve. The crate version is folded in
/// so upgrading `kcenter` never serves solutions an older algorithm
/// produced; within one version, a semantic algorithm change must bump
/// the domain string (the pinned golden suites make such changes loud).
fn solution_fingerprint(args: &ClusterArgs, raw: &[Point], ell: usize) -> u128 {
    let mut fp = Fingerprint::with_domain("kcenter-cli/cluster-solution/v1");
    fp.write_str(env!("CARGO_PKG_VERSION"));
    fp.write_usize(raw.len());
    for p in raw {
        fp.write_f64s(p.coords());
    }
    fp.write_usize(args.k);
    fp.write_usize(args.z);
    fp.write_str(algo_tag(args.algo));
    fp.write_usize(ell);
    fp.write_usize(args.mu);
    fp.write_str(match args.normalize {
        Normalize::None => "none",
        Normalize::Zscore => "zscore",
        Normalize::MinMax => "minmax",
    });
    fp.write_u64(args.seed);
    fp.finish()
}

/// Fingerprint of the executor-facing configuration, announced in the
/// protocol `hello` so a worker pinned with `--pin-config` can reject a
/// coordinator running a different clustering setup (or binary version)
/// before any job is dispatched.
fn exec_config_fingerprint(args: &ClusterArgs, ell: usize) -> u128 {
    let mut fp = Fingerprint::with_domain("kcenter-cli/exec-config/v1");
    fp.write_str(env!("CARGO_PKG_VERSION"));
    fp.write_usize(args.k);
    fp.write_usize(args.z);
    fp.write_str(algo_tag(args.algo));
    fp.write_usize(ell);
    fp.write_usize(args.mu);
    fp.write_u64(args.seed);
    fp.finish()
}

/// Runs `kcenter cluster`, writing a human-readable report to stdout.
pub fn run_cluster(args: &ClusterArgs) -> Result<(), Box<dyn Error>> {
    activate_trace(&args.trace)?;
    let run_span = kcenter_obs::span!("cli.cluster", "algo" => algo_tag(args.algo));
    let store = activate_store(&args.cache_dir);
    let raw = load_csv(&args.input)?;
    if raw.is_empty() {
        return Err("input file contains no points".into());
    }
    println!(
        "loaded {} points of dimension {} from {}",
        raw.len(),
        raw[0].dim(),
        args.input
    );

    let norm = match args.normalize {
        Normalize::None => None,
        Normalize::Zscore => Some(Normalization::zscore(&raw)),
        Normalize::MinMax => Some(Normalization::min_max(&raw)),
    };
    let points = match &norm {
        Some(n) => n.apply_all(&raw),
        None => raw.clone(),
    };

    // --procs pins the parallelism: one worker process per partition.
    let ell = if args.procs > 0 {
        args.procs
    } else if args.ell > 0 {
        args.ell
    } else if args.z > 0 {
        tuning::ell_for_outliers(points.len(), args.k, args.z)
    } else {
        tuning::ell_for_kcenter(points.len(), args.k)
    };

    // Whole-solution caching: the fingerprint covers the input bits and
    // every solve parameter, so a hit is bitwise the same solution this
    // run would compute (centers in normalized space + objective).
    let fingerprint = store
        .as_ref()
        .map(|_| solution_fingerprint(args, &raw, ell));
    let start = Instant::now();
    let cached: Option<StoredSolution> = store
        .as_ref()
        .zip(fingerprint)
        .and_then(|(store, fp)| store.load_solution(fp));
    if cached.is_some() {
        eprintln!("solution cache: hit (solve skipped)");
    }
    // The multi-process executor already evaluates the objective over the
    // full dataset; reuse it rather than paying a second O(n·k) pass.
    let mut solved_objective = None;
    let centers: Vec<Point> = match &cached {
        Some(solution) => solution.centers.clone(),
        None if args.procs > 0 => {
            let (centers, objective) =
                run_cluster_multiprocess(args, &points, ell, store.as_ref())?;
            solved_objective = objective;
            centers
        }
        None => run_cluster_algorithm(args, &points, ell)?,
    };
    let elapsed = start.elapsed();

    let objective = match (&cached, solved_objective) {
        (Some(solution), _) => solution.radius,
        (None, Some(objective)) => objective,
        (None, None) if args.z > 0 => radius_with_outliers(&points, &centers, args.z, &Euclidean),
        (None, None) => radius(&points, &centers, &Euclidean),
    };
    if let (Some(store), Some(fp), None) = (&store, fingerprint, &cached) {
        let artifact = StoredSolution {
            centers: centers.clone(),
            radius: objective,
            // Not tracked uniformly across the algorithms; the CLI artifact
            // records the solution itself, not search diagnostics.
            uncovered_weight: 0,
            evaluations: 0,
        };
        if let Err(err) = store.store_solution(fp, &artifact) {
            eprintln!("warning: failed to persist solution: {err}");
        }
    }
    run_span.field("points", raw.len()).finish();
    report_cluster(args, ell, objective, elapsed, &norm, &centers)
}

/// The `mr` configuration of a `cluster` invocation at parallelism `ell`,
/// in process and on the executor alike.
fn mr_kcenter_config(args: &ClusterArgs, ell: usize) -> MrKCenterConfig {
    MrKCenterConfig {
        k: args.k,
        ell,
        coreset: CoresetSpec::Multiplier { mu: args.mu },
        seed: args.seed,
    }
}

/// The `mr-outliers` / `mr-randomized` configuration of a `cluster`
/// invocation at parallelism `ell`, in process and on the executor alike.
fn mr_outliers_config(args: &ClusterArgs, ell: usize) -> MrOutliersConfig {
    let coreset = CoresetSpec::Multiplier { mu: args.mu };
    let mut config = if args.algo == Algo::MrOutliers {
        MrOutliersConfig::deterministic(args.k, args.z, ell, coreset)
    } else {
        MrOutliersConfig::randomized(args.k, args.z, ell, coreset)
    };
    config.seed = args.seed;
    config
}

/// Runs one `cluster` invocation on the multi-process executor: round 1
/// on `--procs` real worker OS processes (this binary re-invoked in its
/// hidden `worker` mode) over sharded on-disk inputs, round 2 in this
/// process. Results are bit-identical to the in-process engine at
/// parallelism `ell` (= `--procs`); per-worker accounting goes to stderr
/// so stdout stays a pure function of the input.
///
/// The second return value is the executor's objective over the full
/// dataset, returned only when its convention matches the CLI's (plain
/// radius for `mr` with `z = 0`, z-outlier objective for the outlier
/// algorithms with `z > 0`); `None` makes the caller evaluate it.
///
/// When the persistent cache is active, it doubles as the executor's
/// content-addressed shard store: a repeated run over the same input is
/// served its partition shards without a single shard write.
fn run_cluster_multiprocess(
    args: &ClusterArgs,
    points: &[Point],
    ell: usize,
    store: Option<&ArtifactStore>,
) -> Result<(Vec<Point>, Option<f64>), Box<dyn Error>> {
    let mut exec = ExecConfig::new(WorkerCommand::current_exe(&["worker"])?);
    exec.shard_store = store.cloned();
    exec.config_fingerprint = Some(exec_config_fingerprint(args, ell));
    if args.workers.is_empty() {
        eprintln!("executor: {ell} partitions on a bounded worker fleet");
    } else {
        exec.transport = TransportSpec::TcpConnect {
            addrs: args.workers.clone(),
        };
        exec.max_workers = Some(args.procs);
        eprintln!(
            "executor: {ell} partitions over tcp workers [{}]",
            args.workers.join(", ")
        );
    }
    let (centers, objective, report) = match args.algo {
        Algo::Mr => {
            let result = kcenter_exec::exec_mr_kcenter(
                points,
                MetricKind::Euclidean,
                &mr_kcenter_config(args, ell),
                &exec,
            )?;
            let objective = (args.z == 0).then_some(result.clustering.radius);
            (result.clustering.centers, objective, result.report)
        }
        Algo::MrOutliers | Algo::MrRandomized => {
            let result = kcenter_exec::exec_mr_outliers(
                points,
                MetricKind::Euclidean,
                &mr_outliers_config(args, ell),
                &exec,
            )?;
            let objective = (args.z > 0).then_some(result.clustering.radius);
            (result.clustering.centers, objective, result.report)
        }
        // The argument parser only lets MapReduce algorithms through.
        other => return Err(format!("--procs does not support --algo {other:?}").into()),
    };
    for stat in &report.workers {
        eprintln!(
            "executor: worker {:>3}: {} points -> {} coreset points, build {:.1}ms, wall {:.1}ms",
            stat.partition,
            stat.shard_points,
            stat.coreset_size,
            stat.build.as_secs_f64() * 1e3,
            stat.wall.as_secs_f64() * 1e3,
        );
    }
    eprintln!(
        "executor: union = {} from {} partitions, round1 {:.1}ms, round2 {:.1}ms",
        report.union_size,
        report.workers.len(),
        report.round1_time.as_secs_f64() * 1e3,
        report.round2_time.as_secs_f64() * 1e3,
    );
    eprintln!(
        "executor: {} workers spawned ({} respawned, {} reconnects), shards: {} written, {} served from cache",
        report.workers_spawned,
        report.worker_respawns,
        report.reconnects,
        report.shard_writes,
        report.shard_reuses,
    );
    Ok((centers, objective))
}

/// Dispatches one `cluster` invocation to the selected algorithm,
/// returning the centers (in the solve's — possibly normalized — space).
fn run_cluster_algorithm(
    args: &ClusterArgs,
    points: &[Point],
    ell: usize,
) -> Result<Vec<Point>, Box<dyn Error>> {
    Ok(match args.algo {
        Algo::Gmm => {
            let result = gmm_select(points, &Euclidean, args.k, 0);
            result
                .centers
                .into_iter()
                .map(|i| points[i].clone())
                .collect()
        }
        Algo::Mr => {
            mr_kcenter(points, &Euclidean, &mr_kcenter_config(args, ell))?
                .clustering
                .centers
        }
        Algo::MrOutliers | Algo::MrRandomized => {
            mr_kcenter_outliers(points, &Euclidean, &mr_outliers_config(args, ell))?
                .clustering
                .centers
        }
        Algo::Sequential => {
            let mut config = SequentialOutliersConfig::new(args.k, args.z, args.mu);
            config.seed = args.seed;
            sequential_kcenter_outliers(points, &Euclidean, &config)?
                .clustering
                .centers
        }
        Algo::Stream => {
            let tau = args.mu * (args.k + args.z);
            let alg = CoresetOutliers::new(Euclidean, args.k, args.z, tau, 0.25);
            let (out, report) = run_stream(alg, points.iter().cloned());
            println!(
                "streaming pass: {} points/s, peak memory {} points",
                report.throughput().map(|t| t as u64).unwrap_or(0),
                report.peak_memory_items
            );
            out.centers
        }
        Algo::Charikar => {
            charikar_kcenter_outliers(points, &Euclidean, args.k, args.z)?
                .clustering
                .centers
        }
    })
}

/// Prints the cluster report and writes the centers file, shared by the
/// solved and cache-served paths.
fn report_cluster(
    args: &ClusterArgs,
    ell: usize,
    objective: f64,
    elapsed: std::time::Duration,
    norm: &Option<Normalization>,
    centers: &[Point],
) -> Result<(), Box<dyn Error>> {
    match args.report {
        ReportFormat::Text => {
            println!(
                "algo = {:?}, k = {}, z = {}, ell = {ell}, mu = {}",
                args.algo, args.k, args.z, args.mu
            );
            println!(
                "radius = {objective:.6} ({} space), time = {:.2?}",
                if norm.is_some() { "normalized" } else { "data" },
                elapsed
            );
        }
        ReportFormat::Json => {
            // One JSON object on its own line: the run parameters and
            // result, plus the full metrics-registry snapshot.
            println!(
                "{{\"schema\":\"kcenter-report/v1\",\"algo\":\"{}\",\"k\":{},\"z\":{},\"ell\":{ell},\"mu\":{},\"radius\":{objective},\"space\":\"{}\",\"elapsed_us\":{},\"metrics\":{}}}",
                algo_tag(args.algo),
                args.k,
                args.z,
                args.mu,
                if norm.is_some() { "normalized" } else { "data" },
                elapsed.as_micros(),
                kcenter_obs::render_json(),
            );
        }
    }

    if let Some(path) = &args.output {
        // Map centers back to data space before writing.
        let out_centers: Vec<Point> = match norm {
            Some(n) => centers.iter().map(|c| n.invert(c)).collect(),
            None => centers.to_vec(),
        };
        save_csv(path, &out_centers)?;
        println!("wrote {} centers to {path}", out_centers.len());
    }
    Ok(())
}

/// Runs `kcenter cache` (`stat` | `clear`). The directory comes from
/// `--cache-dir`, falling back to `KCENTER_CACHE_DIR`.
pub fn run_cache(args: &CacheArgs) -> Result<(), Box<dyn Error>> {
    let dir = match &args.dir {
        Some(dir) => dir.clone(),
        None => match std::env::var(kcenter_store::CACHE_DIR_ENV) {
            Ok(dir) if !dir.trim().is_empty() => dir,
            _ => {
                return Err(format!(
                    "no cache directory: pass --cache-dir or set {}",
                    kcenter_store::CACHE_DIR_ENV
                )
                .into())
            }
        },
    };
    let store = ArtifactStore::open(&dir)?;
    match args.action {
        CacheAction::Stat => {
            let stat = store.stat()?;
            println!("cache directory : {}", store.dir().display());
            for kind in ArtifactKind::ALL {
                let bucket = stat.kind(kind);
                println!(
                    "{:<16}: {} entries, {} bytes",
                    kind.name(),
                    bucket.entries,
                    bucket.bytes
                );
            }
            println!(
                "{:<16}: {} entries, {} bytes",
                "total",
                stat.total_entries(),
                stat.total_bytes()
            );
        }
        CacheAction::Clear => {
            let removed = store.clear()?;
            println!("removed {removed} entries from {}", store.dir().display());
        }
        CacheAction::Prune { max_bytes } => {
            let report = store.prune(max_bytes)?;
            println!(
                "pruned {} files ({} bytes) from {}; {} entries ({} bytes) remain",
                report.removed,
                report.removed_bytes,
                store.dir().display(),
                report.remaining_entries,
                report.remaining_bytes,
            );
        }
    }
    Ok(())
}

/// Runs `kcenter generate`.
/// Runs `kcenter serve`: binds the unix socket and serves the session
/// registry until a client sends `shutdown`.
///
/// The session store follows the cache-dir convention of `cluster`:
/// `--cache-dir` wins, else `KCENTER_CACHE_DIR`, else no persistence —
/// and without persistence `--memory-budget` is rejected (eviction would
/// discard session state).
pub fn run_serve(args: &ServeArgs) -> Result<(), Box<dyn Error>> {
    activate_trace(&args.trace)?;
    let store = activate_store(&args.cache_dir);
    let config = kcenter_serve::RegistryConfig {
        tau: args.tau,
        memory_budget_points: args.memory_budget,
        snapshot_every: args.snapshot_every,
    };
    let registry = kcenter_serve::SessionRegistry::new(Euclidean, config, store)?;
    let mut endpoints = Vec::new();
    if let Some(socket) = &args.socket {
        endpoints.push(kcenter_serve::ServeEndpoint::Unix(socket.into()));
    }
    if let Some(listen) = &args.listen {
        endpoints.push(kcenter_serve::ServeEndpoint::Tcp(listen.clone()));
    }
    let described: Vec<String> = args
        .socket
        .iter()
        .map(|s| format!("unix:{s}"))
        .chain(args.listen.iter().cloned())
        .collect();
    eprintln!(
        "kcenter serve: listening on {} (tau = {}, budget = {}, snapshot every = {})",
        described.join(" + "),
        args.tau,
        args.memory_budget
            .map_or("unbounded".to_string(), |b| format!("{b} points")),
        if args.snapshot_every == 0 {
            "evict/shutdown only".to_string()
        } else {
            format!("{} items", args.snapshot_every)
        },
    );
    kcenter_serve::run_server_on(&endpoints, registry)?;
    eprintln!("kcenter serve: shut down cleanly");
    Ok(())
}

pub fn run_generate(args: &GenerateArgs) -> Result<(), Box<dyn Error>> {
    let mut points = match args.dataset.as_str() {
        "higgs" => higgs_like(args.n, args.seed),
        "power" => power_like(args.n, args.seed),
        "wiki" => wiki_like(args.n, args.seed),
        other => return Err(format!("unknown dataset {other:?}").into()),
    };
    if args.outliers > 0 {
        let report = inject_outliers(&mut points, args.outliers, args.seed ^ 0xBAD);
        println!(
            "injected {} outliers at 100 x r_MEB = {:.3}",
            args.outliers,
            100.0 * report.meb_radius
        );
    }
    save_csv(&args.output, &points)?;
    println!(
        "wrote {} points ({}-dimensional) to {}",
        points.len(),
        points[0].dim(),
        args.output
    );
    Ok(())
}

/// Runs `kcenter info`.
pub fn run_info(args: &InfoArgs) -> Result<(), Box<dyn Error>> {
    let points = load_csv(&args.input)?;
    if points.is_empty() {
        return Err("input file contains no points".into());
    }
    let (lo, hi) = diameter_bounds(&points, &Euclidean);
    let doubling = estimate_doubling_dimension(&points, &Euclidean, DoublingConfig::default());
    println!("file          : {}", args.input);
    println!("points        : {}", points.len());
    println!("dimension     : {}", points[0].dim());
    println!("diameter      : in [{lo:.6}, {hi:.6}]");
    println!("doubling dim  : ~{doubling:.2} (estimated)");
    println!(
        "suggested ell : {} (k-center, k = 10, Corollary 1)",
        tuning::ell_for_kcenter(points.len(), 10)
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Normalize;

    /// The command tests must run with caching off regardless of an
    /// ambient `KCENTER_CACHE_DIR` (a developer's cache must neither
    /// serve these fixtures stale solutions nor collect their
    /// artifacts). `--cache-dir ""` is the race-free off switch: unlike
    /// `env::remove_var`, it does not mutate the process environment
    /// under libtest's parallel threads.
    fn cache_off() -> Option<String> {
        Some(String::new())
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("kcenter-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn write_fixture(name: &str) -> std::path::PathBuf {
        let path = temp_path(name);
        // Two clusters plus an outlier.
        let mut rows = String::new();
        for i in 0..20 {
            rows.push_str(&format!("{},0.0\n", i as f64 * 0.1));
        }
        for i in 0..20 {
            rows.push_str(&format!("{},100.0\n", i as f64 * 0.1));
        }
        rows.push_str("5000,5000\n");
        std::fs::write(&path, rows).unwrap();
        path
    }

    #[test]
    fn cluster_command_end_to_end() {
        let input = write_fixture("cluster_in.csv");
        let output = temp_path("centers_out.csv");
        let args = ClusterArgs {
            input: input.to_string_lossy().into_owned(),
            k: 2,
            z: 1,
            algo: Algo::Sequential,
            ell: 0,
            procs: 0,
            workers: vec![],
            mu: 4,
            normalize: Normalize::Zscore,
            output: Some(output.to_string_lossy().into_owned()),
            seed: 1,
            cache_dir: cache_off(),
            trace: None,
            report: ReportFormat::Text,
        };
        run_cluster(&args).unwrap();
        let centers = load_csv(&output).unwrap();
        assert_eq!(centers.len(), 2);
        // Centers written back in data space: one near y=0, one near y=100.
        let mut ys: Vec<f64> = centers.iter().map(|c| c[1]).collect();
        ys.sort_by(f64::total_cmp);
        assert!(ys[0].abs() < 10.0, "center y {} not near 0", ys[0]);
        assert!(
            (ys[1] - 100.0).abs() < 10.0,
            "center y {} not near 100",
            ys[1]
        );
    }

    #[test]
    fn cluster_all_algorithms_run() {
        let input = write_fixture("cluster_algos.csv");
        for algo in [
            Algo::Gmm,
            Algo::Mr,
            Algo::MrOutliers,
            Algo::MrRandomized,
            Algo::Sequential,
            Algo::Stream,
            Algo::Charikar,
        ] {
            let args = ClusterArgs {
                input: input.to_string_lossy().into_owned(),
                k: 2,
                z: if algo == Algo::Gmm || algo == Algo::Mr {
                    0
                } else {
                    1
                },
                algo,
                ell: 2,
                procs: 0,
                workers: vec![],
                mu: 2,
                normalize: Normalize::None,
                output: None,
                seed: 0,
                cache_dir: cache_off(),
                trace: None,
                report: ReportFormat::Text,
            };
            run_cluster(&args).unwrap_or_else(|e| panic!("{algo:?} failed: {e}"));
        }
    }

    #[test]
    fn generate_then_info_round_trip() {
        let out = temp_path("generated.csv");
        run_generate(&GenerateArgs {
            dataset: "higgs".into(),
            n: 200,
            outliers: 3,
            seed: 4,
            output: out.to_string_lossy().into_owned(),
        })
        .unwrap();
        let pts = load_csv(&out).unwrap();
        assert_eq!(pts.len(), 203);
        run_info(&InfoArgs {
            input: out.to_string_lossy().into_owned(),
        })
        .unwrap();
    }

    #[test]
    fn missing_file_is_a_clean_error() {
        let args = InfoArgs {
            input: "/nonexistent/nowhere.csv".into(),
        };
        assert!(run_info(&args).is_err());
    }

    #[test]
    fn cache_prune_command_enforces_the_budget() {
        use crate::args::{CacheAction, CacheArgs};
        let dir = std::env::temp_dir()
            .join("kcenter-cli-tests")
            .join(format!("prune-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = kcenter_store::ArtifactStore::open(&dir).unwrap();
        let shard = [Point::new(vec![1.0, 2.0]), Point::new(vec![3.0, 4.0])];
        for fp in [1u128, 2, 3] {
            store.store_shard(fp, &shard).unwrap();
        }
        assert_eq!(store.stat().unwrap().shard.entries, 3);
        run_cache(&CacheArgs {
            action: CacheAction::Prune { max_bytes: 0 },
            dir: Some(dir.to_string_lossy().into_owned()),
        })
        .unwrap();
        assert_eq!(store.stat().unwrap().total_entries(), 0);
        // Without a directory (flag or env), prune is a clean error.
        if std::env::var(kcenter_store::CACHE_DIR_ENV).is_err() {
            assert!(run_cache(&CacheArgs {
                action: CacheAction::Prune { max_bytes: 0 },
                dir: None,
            })
            .is_err());
        }
    }
}
