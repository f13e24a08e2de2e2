//! The worker half of the executor: what runs inside each spawned process.
//!
//! A worker is the multi-process counterpart of one round-1 reducer: it
//! loads its shard (mmap-backed where available), runs the **same**
//! weighted-coreset kernel the in-process engines call
//! ([`build_weighted_coreset`]) with the start index the coordinator
//! derived from the engine's seeded rule, and atomically writes the
//! weighted coreset back through the store codec. Determinism across the
//! process boundary therefore reduces to determinism of the shared kernel
//! — which is chunk-order invariant under any thread count (pinned by the
//! fig-golden suite), so each worker is free to size its own rayon pool
//! (`RAYON_NUM_THREADS` is honoured per process).
//!
//! Binaries expose the worker by delegating a hidden subcommand to
//! [`worker_main`]; the CLI's is `kcenter worker …`, the bench harness
//! re-invokes itself with `exec-worker …`, and the crate ships a
//! standalone `kcenter-exec-worker` binary for the process-level tests.
//!
//! # Remote modes
//!
//! Beyond the pipe-served `--serve` loop, [`worker_main`] understands one
//! TCP mode for cross-host fleets (see `docs/PROTOCOL.md`): `--listen
//! ADDR` binds `ADDR` (`host:port`; port 0 picks a free port), prints
//! `kcenter-exec-worker: listening on <addr>` to stdout, and serves
//! framed connections one at a time, forever. A connection loss only
//! ends that connection — the coordinator's reconnect-with-backoff finds
//! the same worker again.
//!
//! It accepts `--store DIR` (the shared artifact store that
//! `@store/NAME` job references resolve against) and `--pin-config HEX`
//! (reject any coordinator whose `hello` announces a different — or no —
//! configuration fingerprint).
//!
//! # Fault injection (tests only)
//!
//! The environment variable `KCENTER_EXEC_FAULT` makes a worker misbehave
//! on purpose so the coordinator's failure handling can be pinned by
//! tests: `crash` exits non-zero before doing any work, `truncate` writes
//! half of the result artifact, `hang` sleeps far past any reasonable
//! timeout (after accepting a connection, in the TCP mode — the
//! hung-remote case the per-run deadline must contain), `crash-job:N`
//! lets a persistent worker serve `N-1` jobs normally and then die
//! mid-stream on the `N`th without replying — the kill-mid-stream case
//! the fleet must contain by respawn + replay — and `drop-conn:N` severs
//! the connection at the `N`th job while keeping a `--listen` process
//! alive, which is the reconnect-and-replay case. Counters are
//! per-connection. Production coordinators never set it.

use std::io::{BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use kcenter_core::coreset::{build_weighted_coreset, CoresetSpec};
use kcenter_metric::{Metric, Point, PointRef};
use kcenter_store::{codec, ArtifactStore};

use crate::protocol::{
    check_hello_request, hello_ack, parse_spec, read_frame, write_frame, MetricKind, WorkerReport,
    WorkerTelemetry,
};
use crate::shard::{read_shard_set, write_artifact_atomic};
use crate::with_metric;

/// Environment variable enabling deliberate worker misbehaviour in tests.
pub const FAULT_ENV: &str = "KCENTER_EXEC_FAULT";

/// A parsed `coreset` job: the flags of its request frame.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkerArgs {
    /// Input shard file.
    pub shard: PathBuf,
    /// Output artifact path (weighted coreset).
    pub out: PathBuf,
    /// Metric to price distances with.
    pub metric: MetricKind,
    /// Coreset base for this partition (already clamped by the
    /// coordinator to the partition size where the algorithm requires it).
    pub base: usize,
    /// Coreset sizing rule.
    pub spec: CoresetSpec,
    /// GMM start index within the shard.
    pub start: usize,
    /// Coordinator span context (`--span`): opaque to the build, echoed
    /// back as `span=` on the reply so the coordinator can stitch this
    /// job into its merged trace timeline.
    pub span: Option<u64>,
}

impl WorkerArgs {
    /// The flag list a coordinator puts in a `coreset` request frame.
    pub fn to_args(&self) -> Vec<String> {
        let mut args = vec![
            "--shard".into(),
            self.shard.to_string_lossy().into_owned(),
            "--out".into(),
            self.out.to_string_lossy().into_owned(),
            "--metric".into(),
            self.metric.name().into(),
            "--base".into(),
            self.base.to_string(),
            "--spec".into(),
            crate::protocol::format_spec(&self.spec),
            "--start".into(),
            self.start.to_string(),
        ];
        if let Some(span) = self.span {
            args.push("--span".into());
            args.push(span.to_string());
        }
        args
    }

    /// Parses the flag list (the reverse of [`WorkerArgs::to_args`]).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown flags, missing values,
    /// or malformed numbers — sent back as the job's `err` reply, which
    /// the coordinator reports as a worker failure.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<WorkerArgs, String> {
        let mut shard = None;
        let mut out = None;
        let mut metric = None;
        let mut base = None;
        let mut spec = None;
        let mut start = None;
        let mut span = None;
        let mut iter = args.into_iter();
        while let Some(flag) = iter.next() {
            let mut value = || {
                iter.next()
                    .ok_or_else(|| format!("{flag} requires a value"))
            };
            match flag.as_str() {
                "--shard" => shard = Some(PathBuf::from(value()?)),
                "--out" => out = Some(PathBuf::from(value()?)),
                "--metric" => {
                    let v = value()?;
                    metric =
                        Some(MetricKind::parse(&v).ok_or_else(|| format!("unknown metric {v:?}"))?)
                }
                "--base" => {
                    let v = value()?;
                    base = Some(v.parse().map_err(|_| format!("bad --base {v:?}"))?)
                }
                "--spec" => {
                    let v = value()?;
                    spec = Some(parse_spec(&v).ok_or_else(|| format!("bad --spec {v:?}"))?)
                }
                "--start" => {
                    let v = value()?;
                    start = Some(v.parse().map_err(|_| format!("bad --start {v:?}"))?)
                }
                "--span" => {
                    let v = value()?;
                    span = Some(v.parse().map_err(|_| format!("bad --span {v:?}"))?)
                }
                other => return Err(format!("unknown worker flag {other:?}")),
            }
        }
        Ok(WorkerArgs {
            shard: shard.ok_or("worker requires --shard")?,
            out: out.ok_or("worker requires --out")?,
            metric: metric.ok_or("worker requires --metric")?,
            base: base.ok_or("worker requires --base")?,
            spec: spec.ok_or("worker requires --spec")?,
            start: start.ok_or("worker requires --start")?,
            span,
        })
    }
}

/// Runs one `coreset` job: shard in, weighted-coreset artifact out.
///
/// # Errors
///
/// Returns a message describing the failure (unreadable/corrupt shard,
/// out-of-range start, unwritable output).
pub fn run_worker(args: &WorkerArgs) -> Result<WorkerReport, String> {
    let started = Instant::now();
    // The shard is viewed as a `PointSet` — on the mmap path the kernel
    // reads coordinates straight out of the page cache (zero copies); the
    // `PointRef` views are 16-byte fat pointers into that block.
    let set = read_shard_set(&args.shard).map_err(|e| e.to_string())?;
    if set.is_empty() {
        return Err("shard holds no points (empty partitions are not dispatched)".into());
    }
    if args.start >= set.len() {
        return Err(format!(
            "start index {} out of range for {} points",
            args.start,
            set.len()
        ));
    }
    if args.base == 0 {
        return Err("coreset base must be positive".into());
    }
    let points: Vec<PointRef<'_>> = set.iter().collect();
    let (coreset_points, weights) = with_metric!(args.metric, metric => {
        build_round1_coreset(&points, metric, args.base, &args.spec, args.start)
    });
    let bytes = codec::encode_coreset(&coreset_points, &weights);
    if let Ok(fault) = std::env::var(FAULT_ENV) {
        if fault == "truncate" {
            // Deliberately leave a torn artifact at the final path: the
            // coordinator must classify it as BadArtifact, never hang or
            // panic.
            std::fs::write(&args.out, &bytes[..bytes.len() / 2])
                .map_err(|e| format!("cannot write truncated artifact: {e}"))?;
            return Ok(WorkerReport {
                points: points.len(),
                coreset: coreset_points.len(),
                build_micros: started.elapsed().as_micros() as u64,
            });
        }
    }
    write_artifact_atomic(&args.out, &bytes)
        .map_err(|e| format!("cannot write artifact {}: {e}", args.out.display()))?;
    Ok(WorkerReport {
        points: points.len(),
        coreset: coreset_points.len(),
        build_micros: started.elapsed().as_micros() as u64,
    })
}

/// The round-1 kernel, shared verbatim with the in-process engines:
/// [`build_weighted_coreset`] on the shard's `PointRef` views (so the
/// GMM scan runs the block kernels over the mapped coordinate block),
/// coreset points materialized as owned [`Point`]s only at the artifact
/// boundary, weights split into the parallel array.
fn build_round1_coreset<'a, M: Metric<PointRef<'a>>>(
    points: &[PointRef<'a>],
    metric: &M,
    base: usize,
    spec: &CoresetSpec,
    start: usize,
) -> (Vec<Point>, Vec<u64>) {
    let build = build_weighted_coreset(points, metric, base, spec, start);
    let mut coreset_points = Vec::with_capacity(build.coreset.len());
    let mut weights = Vec::with_capacity(build.coreset.len());
    for wp in build.coreset.points {
        coreset_points.push(wp.point.to_point());
        weights.push(wp.weight);
    }
    (coreset_points, weights)
}

/// Options of a persistent serving loop (pipe or socket).
#[derive(Default)]
struct ServeOptions {
    /// Shared artifact store that `@store/NAME` job references resolve
    /// against (`--store`).
    store: Option<ArtifactStore>,
    /// Configuration fingerprint this worker insists on seeing in every
    /// `hello` (`--pin-config`).
    pinned_config: Option<u128>,
}

/// How one serving loop over a connection ended.
enum ServeOutcome {
    /// Clean end of this connection: EOF, `shutdown`, or a rejected
    /// `hello`. A listening worker accepts the next connection.
    CloseConnection,
    /// Injected `drop-conn:N` fault: sever without replying, keep a
    /// listening process alive (the reconnect-and-replay case).
    DropConnection,
    /// End the whole process with this exit code (`shutdown process`,
    /// injected crashes, protocol errors).
    Exit(i32),
}

/// Resolves a job path, dereferencing `@store/NAME` references against
/// the worker's shared artifact store.
fn resolve_job_path(path: &Path, store: Option<&ArtifactStore>) -> Result<PathBuf, String> {
    let text = path.to_string_lossy();
    match text.strip_prefix("@store/") {
        None => Ok(path.to_path_buf()),
        Some(name) => {
            let store = store.ok_or_else(|| {
                format!("job references {text} but this worker was started without --store")
            })?;
            store
                .entry_by_name(name)
                .ok_or_else(|| format!("invalid store reference {text:?}"))
        }
    }
}

/// The persistent-worker loop over one framed connection: serves job
/// requests until a clean EOF or a `shutdown` request.
///
/// Protocol errors (torn frames, an unwritable reply channel) surface as
/// [`ServeOutcome::Exit`] with a distinct code; the coordinator observes
/// the death and contains it like any other worker failure.
fn serve_streams<R: Read, W: Write>(
    input: &mut R,
    output: &mut W,
    opts: &ServeOptions,
) -> ServeOutcome {
    // `crash-job:N` / `drop-conn:N`: misbehave on the N-th job of this
    // connection without replying — the respawned (or reconnected)
    // successor restarts its counter, so the replayed job succeeds and
    // the fleet's containment is observable end to end.
    let fault = std::env::var(FAULT_ENV).ok();
    let fault_job = |prefix: &str| -> Option<u64> {
        fault
            .as_deref()
            .and_then(|f| f.strip_prefix(prefix)?.parse().ok())
    };
    let crash_on_job = fault_job("crash-job:");
    let drop_on_job = fault_job("drop-conn:");
    let mut jobs_served = 0u64;
    loop {
        let parts = match read_frame(input) {
            Ok(Some(parts)) => parts,
            Ok(None) => return ServeOutcome::CloseConnection, // coordinator hung up
            Err(err) => {
                eprintln!("kcenter-exec-worker: bad request frame: {err}");
                return ServeOutcome::Exit(3);
            }
        };
        let verb = parts.first().map(String::as_str).unwrap_or("");
        let reply = match verb {
            "hello" => match check_hello_request(&parts, opts.pinned_config) {
                Ok(()) => hello_ack(),
                Err(reason) => {
                    // Reject, then close: a mismatched coordinator must
                    // never be served a job.
                    eprintln!("kcenter-exec-worker: rejected hello: {reason}");
                    let _ = write_frame(output, &["err-hello".to_string(), reason]);
                    return ServeOutcome::CloseConnection;
                }
            },
            "shutdown" => {
                if parts.get(1).map(String::as_str) == Some("process") {
                    // Used by tests (and deliberate teardowns) to stop a
                    // `--listen` worker remotely; acknowledged so the
                    // requester can wait for it.
                    let _ = write_frame(output, &["ok".to_string(), "bye".to_string()]);
                    return ServeOutcome::Exit(0);
                }
                return ServeOutcome::CloseConnection;
            }
            "coreset" => {
                jobs_served += 1;
                if crash_on_job == Some(jobs_served) {
                    eprintln!(
                        "kcenter-exec-worker: injected crash ({FAULT_ENV}=crash-job:{jobs_served})"
                    );
                    return ServeOutcome::Exit(101);
                }
                if drop_on_job == Some(jobs_served) {
                    eprintln!(
                        "kcenter-exec-worker: injected disconnect ({FAULT_ENV}=drop-conn:{jobs_served})"
                    );
                    return ServeOutcome::DropConnection;
                }
                // Successful replies piggyback telemetry: the `--span`
                // context echoed back plus the deltas of this process's
                // registry counters across the job (`m.<name>=<delta>`),
                // which the coordinator folds into its own registry.
                let counters_before = kcenter_obs::counter_values();
                let reply = parse_coreset_job(parts[1..].to_vec(), opts).and_then(|args| {
                    let report = run_worker(&args)?;
                    Ok(
                        report.to_reply_with(&WorkerTelemetry::from_counter_snapshots(
                            args.span,
                            &counters_before,
                            &kcenter_obs::counter_values(),
                        )),
                    )
                });
                reply.unwrap_or_else(|msg| vec!["err".into(), msg])
            }
            other => vec!["err".into(), format!("unknown request verb {other:?}")],
        };
        if let Err(err) = write_frame(output, &reply) {
            eprintln!("kcenter-exec-worker: cannot write reply frame: {err}");
            return ServeOutcome::Exit(3);
        }
    }
}

/// Parses a `coreset` job's flags and resolves its `@store/` references.
fn parse_coreset_job(flags: Vec<String>, opts: &ServeOptions) -> Result<WorkerArgs, String> {
    let mut args = WorkerArgs::parse(flags)?;
    args.shard = resolve_job_path(&args.shard, opts.store.as_ref())?;
    args.out = resolve_job_path(&args.out, opts.store.as_ref())?;
    Ok(args)
}

/// The stdin/stdout (`--serve`) persistent loop — the pipe transport's
/// worker half, exit-code compatible with the pre-transport serve loop.
fn serve() -> i32 {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut input = stdin.lock();
    let mut output = stdout.lock();
    match serve_streams(&mut input, &mut output, &ServeOptions::default()) {
        // A pipe worker's connection IS its life: close = clean exit.
        ServeOutcome::CloseConnection | ServeOutcome::DropConnection => 0,
        ServeOutcome::Exit(code) => code,
    }
}

/// Serves one established TCP connection.
fn serve_tcp_connection(stream: TcpStream, opts: &ServeOptions) -> ServeOutcome {
    let _ = stream.set_nodelay(true);
    if std::env::var(FAULT_ENV).as_deref() == Ok("hang") {
        // The hung-remote case: the connection is up, frames never come.
        // The coordinator's per-run deadline must contain this.
        eprintln!("kcenter-exec-worker: injected hang ({FAULT_ENV}=hang)");
        std::thread::sleep(Duration::from_secs(3600));
    }
    let mut reader = match stream.try_clone() {
        Ok(read_half) => BufReader::new(read_half),
        Err(err) => {
            eprintln!("kcenter-exec-worker: cannot clone connection: {err}");
            return ServeOutcome::CloseConnection;
        }
    };
    let mut writer = stream;
    serve_streams(&mut reader, &mut writer, opts)
}

/// `--listen ADDR`: bind, announce the resolved address on stdout, and
/// serve framed connections one at a time until told to exit.
fn run_listen(addr: &str, opts: &ServeOptions) -> i32 {
    let listener = match TcpListener::bind(addr) {
        Ok(listener) => listener,
        Err(err) => {
            eprintln!("kcenter-exec-worker: cannot bind {addr}: {err}");
            return 2;
        }
    };
    match listener.local_addr() {
        Ok(local) => {
            // The line coordinators/tests parse to learn a port-0 bind.
            println!("kcenter-exec-worker: listening on {local}");
            let _ = std::io::stdout().flush();
        }
        Err(err) => eprintln!("kcenter-exec-worker: cannot resolve bound address: {err}"),
    }
    loop {
        let (stream, _) = match listener.accept() {
            Ok(accepted) => accepted,
            Err(err) => {
                eprintln!("kcenter-exec-worker: accept failed: {err}");
                continue;
            }
        };
        match serve_tcp_connection(stream, opts) {
            // The listener outlives its connections: a loss (or a
            // rejected hello) only ends that connection, so the
            // coordinator's reconnect finds this same worker again.
            ServeOutcome::CloseConnection | ServeOutcome::DropConnection => continue,
            ServeOutcome::Exit(code) => return code,
        }
    }
}

/// Parsed remote-mode invocation (`--listen`).
struct RemoteArgs {
    listen: String,
    store: Option<PathBuf>,
    pin_config: Option<u128>,
}

impl RemoteArgs {
    fn parse(args: Vec<String>) -> Result<RemoteArgs, String> {
        let mut listen = None;
        let mut store = None;
        let mut pin_config = None;
        let mut iter = args.into_iter();
        while let Some(flag) = iter.next() {
            let mut value = || {
                iter.next()
                    .ok_or_else(|| format!("{flag} requires a value"))
            };
            match flag.as_str() {
                "--listen" => listen = Some(value()?),
                "--store" => store = Some(PathBuf::from(value()?)),
                "--pin-config" => {
                    let v = value()?;
                    pin_config = Some(
                        u128::from_str_radix(&v, 16)
                            .map_err(|_| format!("bad --pin-config {v:?} (expected hex)"))?,
                    )
                }
                other => return Err(format!("unknown remote worker flag {other:?}")),
            }
        }
        Ok(RemoteArgs {
            listen: listen.ok_or("remote worker requires --listen ADDR")?,
            store,
            pin_config,
        })
    }
}

/// Remote-mode entry: `--listen` plus `--store`/`--pin-config`.
fn remote_main(args: Vec<String>) -> i32 {
    // `crash` fires before the bind: the coordinator's dial fails
    // outright, the attributed-spawn-error case.
    if std::env::var(FAULT_ENV).as_deref() == Ok("crash") {
        eprintln!("kcenter-exec-worker: injected crash ({FAULT_ENV}=crash)");
        return 101;
    }
    let parsed = match RemoteArgs::parse(args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("kcenter-exec-worker: {msg}");
            return 2;
        }
    };
    let store = match parsed.store {
        Some(dir) => match ArtifactStore::open(&dir) {
            Ok(store) => Some(store),
            Err(err) => {
                eprintln!(
                    "kcenter-exec-worker: cannot open --store {}: {err}",
                    dir.display()
                );
                return 2;
            }
        },
        None => None,
    };
    let opts = ServeOptions {
        store,
        pinned_config: parsed.pin_config,
    };
    run_listen(&parsed.listen, &opts)
}

/// Full worker entry point for binaries: picks the serving mode, applies
/// the fault hooks, and returns the process exit code.
///
/// Every worker is persistent and needs a mode: `--serve` as the first
/// argument serves framed requests on stdin and replies on stdout until
/// EOF or `shutdown`; `--listen ADDR` serves over TCP (see the module
/// docs). Anything else is a usage error (exit 2).
pub fn worker_main<I: IntoIterator<Item = String>>(args: I) -> i32 {
    let argv: Vec<String> = args.into_iter().collect();
    if argv.iter().any(|a| a == "--listen") {
        // The remote mode stages the faults differently: `crash` fires
        // before the bind (attributed dial failure), `hang` fires after
        // the accept (the per-run deadline's case).
        return remote_main(argv);
    }
    match std::env::var(FAULT_ENV).as_deref() {
        Ok("crash") => {
            eprintln!("kcenter-exec-worker: injected crash ({FAULT_ENV}=crash)");
            return 101;
        }
        Ok("hang") => {
            eprintln!("kcenter-exec-worker: injected hang ({FAULT_ENV}=hang)");
            std::thread::sleep(Duration::from_secs(3600));
        }
        _ => {}
    }
    if argv.first().map(String::as_str) == Some("--serve") {
        return serve();
    }
    eprintln!(
        "kcenter-exec-worker: a worker needs a mode: --serve (framed jobs on \
         stdin/stdout) or --listen ADDR"
    );
    2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{hello_request, parse_hello_ack};
    use kcenter_metric::Euclidean;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("kcenter-exec-worker");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    fn args_round_trip(args: &WorkerArgs) -> WorkerArgs {
        WorkerArgs::parse(args.to_args()).unwrap()
    }

    #[test]
    fn worker_args_round_trip() {
        let args = WorkerArgs {
            shard: PathBuf::from("/tmp/shard-00001.kca"),
            out: PathBuf::from("/tmp/coreset-00001.kca"),
            metric: MetricKind::CosineAngular,
            base: 23,
            spec: CoresetSpec::EpsStop { eps: 0.1 },
            start: 7,
            span: Some(42),
        };
        assert_eq!(args_round_trip(&args), args);
        let spanless = WorkerArgs { span: None, ..args };
        assert_eq!(args_round_trip(&spanless), spanless);
    }

    #[test]
    fn worker_args_reject_malformed_input() {
        let ok = WorkerArgs {
            shard: "s".into(),
            out: "o".into(),
            metric: MetricKind::Euclidean,
            base: 1,
            spec: CoresetSpec::Multiplier { mu: 1 },
            start: 0,
            span: None,
        };
        for missing in [
            "--shard", "--out", "--metric", "--base", "--spec", "--start",
        ] {
            let mut flags = ok.to_args();
            let at = flags.iter().position(|f| f == missing).unwrap();
            flags.drain(at..at + 2);
            assert!(WorkerArgs::parse(flags).is_err(), "{missing} not required");
        }
        let mut flags = ok.to_args();
        flags.push("--bogus".into());
        assert!(WorkerArgs::parse(flags).is_err());
        let mut flags = ok.to_args();
        flags.pop();
        assert!(WorkerArgs::parse(flags).is_err(), "dangling value accepted");
    }

    #[test]
    fn run_worker_matches_in_process_kernel_bitwise() {
        let points: Vec<Point> = (0..120)
            .map(|i| Point::new(vec![(i % 30) as f64, (i / 30) as f64]))
            .collect();
        let shard = tmp("kernel-shard.kca");
        let out = tmp("kernel-out.kca");
        crate::shard::write_shard(&shard, &points).unwrap();
        let args = WorkerArgs {
            shard,
            out: out.clone(),
            metric: MetricKind::Euclidean,
            base: 4,
            spec: CoresetSpec::Multiplier { mu: 2 },
            start: 3,
            span: None,
        };
        let report = run_worker(&args).unwrap();
        assert_eq!(report.points, 120);
        assert_eq!(report.coreset, 8);
        let (got_points, got_weights) = crate::shard::read_coreset_artifact(&out).unwrap();
        let reference = build_weighted_coreset(
            &points,
            &Euclidean,
            4,
            &CoresetSpec::Multiplier { mu: 2 },
            3,
        );
        assert_eq!(got_weights, reference.coreset.weights());
        for (a, b) in got_points.iter().zip(reference.coreset.points_only()) {
            for (ca, cb) in a.coords().iter().zip(b.coords()) {
                assert_eq!(ca.to_bits(), cb.to_bits());
            }
        }
    }

    #[test]
    fn merge_is_an_unknown_verb_and_the_connection_stays_usable() {
        let points: Vec<Point> = (0..40)
            .map(|i| Point::new(vec![i as f64, (i % 3) as f64]))
            .collect();
        let shard = tmp("verb-shard.kca");
        crate::shard::write_shard(&shard, &points).unwrap();
        let coreset = WorkerArgs {
            shard,
            out: tmp("verb-out.kca"),
            metric: MetricKind::Euclidean,
            base: 2,
            spec: CoresetSpec::Multiplier { mu: 1 },
            start: 0,
            span: None,
        };
        let merge = [
            "merge", "--left", "a.kca", "--right", "b.kca", "--out", "c.kca",
        ];
        let mut input = Vec::new();
        for frame in [
            hello_request(None),
            merge.iter().map(|p| p.to_string()).collect(),
            std::iter::once("coreset".to_string())
                .chain(coreset.to_args())
                .collect(),
        ] {
            write_frame(&mut input, &frame).unwrap();
        }
        let mut output = Vec::new();
        let outcome = serve_streams(&mut input.as_slice(), &mut output, &ServeOptions::default());
        assert!(matches!(outcome, ServeOutcome::CloseConnection));
        let mut replies = output.as_slice();
        let mut next = || {
            read_frame(&mut replies)
                .unwrap()
                .expect("one reply per request")
        };
        assert!(parse_hello_ack(&next()).is_ok());
        assert_eq!(
            next(),
            vec![
                "err".to_string(),
                "unknown request verb \"merge\"".to_string()
            ]
        );
        let report = WorkerReport::from_reply(&next()).expect("the coreset job still succeeds");
        assert_eq!((report.points, report.coreset), (40, 2));
        assert_eq!(read_frame(&mut replies).unwrap(), None);
    }

    #[test]
    fn run_worker_rejects_bad_inputs_cleanly() {
        let shard = tmp("bad-shard.kca");
        let out = tmp("bad-out.kca");
        crate::shard::write_shard(&shard, &[Point::new(vec![1.0]), Point::new(vec![2.0])]).unwrap();
        let base = WorkerArgs {
            shard: shard.clone(),
            out,
            metric: MetricKind::Euclidean,
            base: 1,
            spec: CoresetSpec::Multiplier { mu: 1 },
            start: 0,
            span: None,
        };
        let missing = WorkerArgs {
            shard: "/nonexistent/shard.kca".into(),
            ..base.clone()
        };
        assert!(run_worker(&missing).is_err());
        let out_of_range = WorkerArgs {
            start: 2,
            ..base.clone()
        };
        assert!(run_worker(&out_of_range)
            .unwrap_err()
            .contains("out of range"));
        let zero_base = WorkerArgs { base: 0, ..base };
        assert!(run_worker(&zero_base).is_err());
    }
}
