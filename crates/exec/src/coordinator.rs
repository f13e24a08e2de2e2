//! The coordinator: shards a dataset, schedules jobs onto a persistent
//! worker fleet, and collects their results — bit-identical to the
//! in-process engine.
//!
//! The algorithms themselves live in `kcenter-core`
//! ([`mr_kcenter_on`], [`mr_kcenter_outliers_on`]); this module is the
//! backend that runs their two rounds on a fleet, and the `exec_mr_*`
//! entry points are thin wrappers that hand it to them. Execution
//! follows the paper's 2-round structure end to end:
//!
//! 1. **Shard.** The input is partitioned with the partitioner of the
//!    algorithm's round-1 plan (chunked, seeded random, or adversarial)
//!    and each non-empty partition becomes a shard file — freshly
//!    written into the run's own directory, or **reused from the
//!    artifact store** when a content-addressed entry for the identical
//!    partition already exists (a seeded re-run performs zero shard
//!    writes).
//! 2. **Round 1, out of process.** Partitions are queued onto a
//!    [`WorkerFleet`] of long-lived workers speaking the framed
//!    request/response protocol (`docs/PROTOCOL.md`) over a pluggable
//!    [`Transport`] — child-process pipes
//!    by default, or TCP to workers started independently on this or
//!    other hosts. The fleet is bounded (`--procs ≫ cores` queues
//!    instead of oversubscribing), reused across rounds and across
//!    repeated runs (spawn + rayon pool warmup amortized), and
//!    self-healing: a worker that dies mid-job is respawned (pipe) or
//!    reconnected with bounded backoff (TCP) and the job replayed.
//!    Every connection opens with a protocol `hello` carrying version +
//!    configuration fingerprints, so a mismatched worker is rejected
//!    with an attributed error instead of an undefined result.
//! 3. **Collect, then round 2, in the coordinator.** Once every
//!    `coreset` job has replied, the coordinator reads each partition's
//!    coreset artifact itself, in partition order (the end of round 1),
//!    and composes them with [`WeightedCoreset::compose`] — the call the
//!    in-process engine makes — so a run of ℓ partitions sends exactly ℓ
//!    jobs. The algorithm's solve runs on that union, then its objective
//!    over the full input (an `exec.objective` span inside
//!    `exec.round2`).
//!
//! **Determinism.** Every stage is bitwise deterministic: partitioning is
//! seeded, the round-1 kernel is chunk-order invariant under any thread
//! count, the codec round-trips `f64`s by bit pattern, and the union is
//! composed in partition-index order. The cross-check tests (and the
//! `exec-determinism` CI job)
//! assert the final centers and radius are **bit-identical** to
//! [`mr_kcenter`] / [`mr_kcenter_outliers`] on the same input — fresh
//! fleet or reused, cold shards or cached.
//!
//! [`mr_kcenter`]: kcenter_core::mapreduce_kcenter::mr_kcenter
//! [`mr_kcenter_outliers`]: kcenter_core::mapreduce_outliers::mr_kcenter_outliers
//! [`mr_kcenter_on`]: kcenter_core::mapreduce_kcenter::mr_kcenter_on
//! [`mr_kcenter_outliers_on`]: kcenter_core::mapreduce_outliers::mr_kcenter_outliers_on
//!
//! **Failure handling.** A worker that exits non-zero, dies on a signal,
//! overruns the timeout, or leaves a truncated artifact surfaces as a
//! clean [`ExecError`] with the offending partition attributed; mid-job
//! death is first contained by respawn + replay and only becomes an
//! error once the retry budget is exhausted. On any error the fleet is
//! torn down. Each run writes into a directory of its own, claimed fresh
//! inside [`ExecConfig::work_dir`], and removes only that directory, on
//! success and on error alike.
//!
//! **Environment hygiene.** Spawned workers inherit the coordinator's
//! environment *minus* `KCENTER_EXEC_FAULT` and `KCENTER_TRACE`: fault
//! injection must be asked for, and pipe workers must not all append to
//! the coordinator's trace file (they report telemetry on the wire
//! instead). Tests (and deliberate deployments) opt back in through
//! [`WorkerCommand::env`], which is applied after the strip.

use std::borrow::Borrow;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use kcenter_core::coreset::{WeightedCoreset, WeightedPoint};
use kcenter_core::mapreduce_kcenter::{mr_kcenter_on, MrKCenterConfig};
use kcenter_core::mapreduce_outliers::{mr_kcenter_outliers_on, MrOutliersConfig};
use kcenter_core::mr_backend::{MrBackend, Round1Output, Round1Plan};
use kcenter_core::Clustering;
use kcenter_mapreduce::partition_dataset;
use kcenter_metric::{Fingerprint, Point};
use kcenter_store::{ArtifactKind, ArtifactStore};

use crate::error::ExecError;
use crate::protocol::{hello_request, parse_hello_ack, MetricKind, WorkerReport, WorkerTelemetry};
use crate::shard::{read_coreset_artifact, read_shard_set, write_shard};
use crate::transport::{
    FrameTx, LinkControl, PipeTransport, TcpDialTransport, Transport, TransportSpec,
};
use crate::with_metric;
use crate::worker::WorkerArgs;

pub use crate::transport::WorkerCommand;

/// Per-process sequence for run-directory names.
static RUN_SEQ: AtomicU64 = AtomicU64::new(0);

/// Fingerprint domain for content-addressed shard entries. The key folds
/// the partition's own coordinates, so identical partitions (same
/// dataset, same partitioner, same seed) land on the same entry and the
/// entry is self-describing — a cache hit *is* the shard.
const SHARD_FINGERPRINT_DOMAIN: &str = "kcenter-exec/shard/v1";

/// How many times a job is replayed after its worker dies mid-job before
/// the run fails. A worker that *reports* an error (as opposed to dying)
/// fails the run immediately — errors are deterministic, deaths may not
/// be.
const JOB_RETRIES: usize = 2;

/// Multi-process execution options.
#[derive(Clone, Debug)]
pub struct ExecConfig {
    /// How to spawn workers.
    pub worker: WorkerCommand,
    /// Parent of the per-run directories. Each run claims a fresh
    /// `kcenter-exec-<pid>-<seq>` directory inside it (creating the
    /// parent if needed), keeps its shards and coreset artifacts there,
    /// and removes only that directory, so runs sharing a parent never
    /// see each other's files. `None` uses the system temp dir.
    pub work_dir: Option<PathBuf>,
    /// Per-run wall-clock limit: if any job is still outstanding when it
    /// elapses, the fleet is killed and the run fails cleanly.
    pub timeout: Duration,
    /// Fleet size cap. `None` sizes the fleet to the machine
    /// (`available_parallelism`), so `--procs ≫ cores` queues partitions
    /// onto a fixed fleet instead of oversubscribing the box.
    pub max_workers: Option<usize>,
    /// Content-addressed shard reuse: when set, partition shards are
    /// stored in (and served from) this artifact store instead of being
    /// rewritten into the run directory on every run. A seeded re-run
    /// performs **zero** shard writes ([`ExecReport::shard_writes`]).
    pub shard_store: Option<ArtifactStore>,
    /// Which transport carries the frames: child-process pipes (the
    /// default, using [`ExecConfig::worker`]) or TCP to independently
    /// started workers. Results are bit-identical across backends.
    pub transport: TransportSpec,
    /// Configuration fingerprint announced in the protocol `hello`. A
    /// worker pinned (via `--pin-config`) to a different fingerprint —
    /// or to any fingerprint, when this is `None` — rejects the
    /// handshake and the run fails with an attributed
    /// [`ExecError::HelloRejected`].
    pub config_fingerprint: Option<u128>,
}

impl ExecConfig {
    /// Options with the default timeout (10 minutes), run directories
    /// under the system temp dir, a machine-sized fleet, and no shard
    /// store.
    pub fn new(worker: WorkerCommand) -> ExecConfig {
        ExecConfig {
            worker,
            work_dir: None,
            timeout: Duration::from_secs(600),
            max_workers: None,
            shard_store: None,
            transport: TransportSpec::Pipe,
            config_fingerprint: None,
        }
    }
}

/// Per-partition accounting (one entry per round-1 job, whatever worker
/// process ended up running it).
#[derive(Clone, Debug)]
pub struct WorkerStat {
    /// Partition the job processed.
    pub partition: usize,
    /// Points in its shard.
    pub shard_points: usize,
    /// Coreset points it produced.
    pub coreset_size: usize,
    /// Dispatch-to-reply wall clock, measured by the coordinator.
    pub wall: Duration,
    /// In-worker build wall clock (shard load → artifact rename), as
    /// reported by the worker itself.
    pub build: Duration,
}

/// Execution accounting shared by both algorithms.
#[derive(Clone, Debug, Default)]
pub struct ExecReport {
    /// Size of each non-empty partition's coreset, in partition order.
    pub coreset_sizes: Vec<usize>,
    /// `|T|`, the size of the union of the partition coresets.
    pub union_size: usize,
    /// Per-partition accounting, in partition order.
    pub workers: Vec<WorkerStat>,
    /// Wall clock of round 1 (shard + schedule + collect the coresets).
    pub round1_time: Duration,
    /// Wall clock of round 2 (solve on the union).
    pub round2_time: Duration,
    /// Shard files written this run (0 on a warm content-addressed run).
    pub shard_writes: usize,
    /// Partitions served from an existing store entry without a write.
    pub shard_reuses: usize,
    /// Worker processes spawned during this run; 0 when a warm fleet
    /// already had every worker it needed.
    pub workers_spawned: usize,
    /// Workers respawned after dying mid-job (replays, not new work).
    pub worker_respawns: usize,
    /// Remote connections re-established after a loss during this run
    /// (always 0 on the pipe transport, which respawns processes
    /// instead).
    pub reconnects: usize,
    /// Always 0: round 1 runs no merge jobs, because the coordinator
    /// collects the coresets itself. The field stays only while kbench
    /// still reads it; it goes with that reader.
    pub merge_jobs: usize,
}

/// Result of a multi-process k-center run (the executor's counterpart of
/// [`kcenter_core::mapreduce_kcenter::MrKCenterResult`]).
#[derive(Clone, Debug)]
pub struct ExecKCenterResult {
    /// Final centers and the radius they achieve on the full input.
    pub clustering: Clustering<Point>,
    /// Execution accounting.
    pub report: ExecReport,
}

/// Result of a multi-process k-center-with-outliers run (the executor's
/// counterpart of [`kcenter_core::mapreduce_outliers::MrOutliersResult`]).
#[derive(Clone, Debug)]
pub struct ExecOutliersResult {
    /// Final centers and the objective `r_{T,Z_T}(S)` on the full input.
    pub clustering: Clustering<Point>,
    /// The radius found on the coreset by the search.
    pub r_min: f64,
    /// Weight left uncovered on the coreset at `r_min`.
    pub uncovered_weight: u64,
    /// Coreset base used per partition (before per-partition clamping).
    pub base: usize,
    /// `OutliersCluster` evaluations in the radius search.
    pub search_evaluations: usize,
    /// Execution accounting.
    pub report: ExecReport,
}

/// One run's own scratch directory, removed with everything in it on
/// drop.
struct RunDir {
    path: PathBuf,
}

impl RunDir {
    /// Claims a fresh `kcenter-exec-<pid>-<seq>` directory inside
    /// `parent`. `create_dir` is the claim: a name that already exists
    /// (another process with the same pid on shared storage, or a crashed
    /// run's leftovers) is skipped, never adopted, so no two runs share a
    /// directory and a run can only remove what it created.
    fn claim(parent: &Path) -> std::io::Result<RunDir> {
        std::fs::create_dir_all(parent)?;
        loop {
            let path = parent.join(format!(
                "kcenter-exec-{}-{}",
                std::process::id(),
                RUN_SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            match std::fs::create_dir(&path) {
                Ok(()) => return Ok(RunDir { path }),
                Err(err) if err.kind() == std::io::ErrorKind::AlreadyExists => continue,
                Err(err) => return Err(err),
            }
        }
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// What a worker's reader thread feeds the scheduling loop.
enum FleetEvent {
    /// One complete reply frame from the identified worker.
    Frame { worker: u64, parts: Vec<String> },
    /// The worker's reply stream ended (clean EOF, torn frame, or an
    /// expired read deadline): the link is dead. The scheduler reaps it
    /// and replays its job.
    Eof { worker: u64 },
}

/// One live worker link under fleet supervision.
struct FleetWorker {
    /// Fleet-unique id, so stale events from reaped workers are ignored.
    id: u64,
    /// Request channel; `None` once shutdown closed it.
    tx: Option<Box<dyn FrameTx>>,
    /// Liveness and teardown for this link.
    control: Box<dyn LinkControl>,
    /// Whether the `hello` sent at connect time is still unacknowledged;
    /// the first frame from such a worker must be a valid hello ack.
    awaiting_hello: bool,
    /// Index of the job this worker is running, if any.
    busy_with: Option<usize>,
    /// When the current job was dispatched.
    dispatched: Instant,
}

/// One request destined for the fleet, with the metadata needed to
/// attribute its failures.
struct FleetJob {
    /// Partition charged with this job's failures.
    partition: usize,
    /// The request frame.
    request: Vec<String>,
    /// Trace span context carried by the request (`--span`): the parent
    /// under which the coordinator records this job's merged worker span.
    span: Option<u64>,
}

/// A persistent, bounded fleet of workers behind a [`Transport`].
///
/// Workers are connected lazily up to the cap, kept alive across jobs,
/// rounds, and runs (hand the same fleet to [`exec_mr_kcenter_on`] /
/// [`exec_mr_outliers_on`] to amortize spawn + pool warmup), and torn
/// down on [`WorkerFleet::shutdown`] or drop. A worker that dies mid-job
/// is reaped and its job replayed on a fresh link — a respawned child
/// process on the pipe backend, a reconnect-with-backoff on TCP — up to
/// a fixed retry budget.
///
/// Every new link opens with the protocol `hello`; the first frame back
/// must be a valid ack or the run fails with an attributed
/// [`ExecError::HelloRejected`].
pub struct WorkerFleet {
    transport: Box<dyn Transport>,
    cap: usize,
    hello_config: Option<u128>,
    workers: Vec<FleetWorker>,
    tx: mpsc::Sender<FleetEvent>,
    rx: mpsc::Receiver<FleetEvent>,
    next_id: u64,
    spawned_total: usize,
    respawned_total: usize,
}

impl WorkerFleet {
    /// A pipe-backed fleet that spawns workers with `command`, capped at
    /// `max_workers` (`None` = the machine's `available_parallelism`).
    pub fn new(command: WorkerCommand, max_workers: Option<usize>) -> WorkerFleet {
        WorkerFleet::with_transport(Box::new(PipeTransport::new(command)), max_workers)
    }

    /// A fleet over an explicit transport backend, capped at
    /// `max_workers` (`None` = the machine's `available_parallelism`).
    pub fn with_transport(
        transport: Box<dyn Transport>,
        max_workers: Option<usize>,
    ) -> WorkerFleet {
        let cap = max_workers
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
            .max(1);
        let (tx, rx) = mpsc::channel();
        WorkerFleet {
            transport,
            cap,
            hello_config: None,
            workers: Vec::new(),
            tx,
            rx,
            next_id: 0,
            spawned_total: 0,
            respawned_total: 0,
        }
    }

    /// A fleet sized, commanded, and transported per `exec` (the shape
    /// the one-shot entry points use). The TCP dial backend caps the
    /// fleet at its address count.
    pub fn from_config(exec: &ExecConfig) -> WorkerFleet {
        // Frame-level deadlines for remote links: a read may legitimately
        // wait as long as the longest job, so the read deadline tracks
        // the run timeout with headroom; writes are small and must never
        // stall long.
        let read_deadline = Some(exec.timeout + Duration::from_secs(5));
        let write_deadline = Some(Duration::from_secs(30));
        let mut fleet = match &exec.transport {
            TransportSpec::Pipe => WorkerFleet::new(exec.worker.clone(), exec.max_workers),
            TransportSpec::TcpConnect { addrs } => {
                let cap = exec.max_workers.unwrap_or(addrs.len()).min(addrs.len());
                let transport = TcpDialTransport::new(addrs.clone())
                    .with_deadlines(read_deadline, write_deadline);
                WorkerFleet::with_transport(Box::new(transport), Some(cap.max(1)))
            }
        };
        fleet.hello_config = exec.config_fingerprint;
        fleet
    }

    /// Worker links established over this fleet's lifetime (process
    /// spawns on the pipe backend, connections on TCP).
    pub fn spawned_total(&self) -> usize {
        self.spawned_total
    }

    /// Remote connections re-established after a loss over this fleet's
    /// lifetime (always 0 on the pipe backend).
    pub fn reconnects_total(&self) -> usize {
        self.transport.reconnects()
    }

    /// Whether the transport crosses a host boundary (see
    /// [`Transport::is_remote`]).
    fn is_remote(&self) -> bool {
        self.transport.is_remote()
    }

    /// Connects one worker link, opens it with the protocol `hello`, and
    /// wires its replies into the event channel.
    fn spawn_worker(&mut self) -> std::io::Result<()> {
        let link = self.transport.connect()?;
        let id = self.next_id;
        self.next_id += 1;
        let mut tx = link.tx;
        // The handshake goes out immediately; its ack is validated
        // asynchronously by the scheduling loop (the first frame from an
        // `awaiting_hello` worker), so connect stays non-blocking and a
        // worker that dies before acking takes the normal EOF path.
        let _ = tx.send(&hello_request(self.hello_config));
        let mut rx = link.rx;
        let events = self.tx.clone();
        std::thread::spawn(move || loop {
            match rx.recv() {
                Ok(Some(parts)) => {
                    if events
                        .send(FleetEvent::Frame { worker: id, parts })
                        .is_err()
                    {
                        return; // fleet dropped
                    }
                }
                Ok(None) | Err(_) => {
                    let _ = events.send(FleetEvent::Eof { worker: id });
                    return;
                }
            }
        });
        self.workers.push(FleetWorker {
            id,
            tx: Some(tx),
            control: link.control,
            awaiting_hello: true,
            busy_with: None,
            dispatched: Instant::now(),
        });
        self.spawned_total += 1;
        Ok(())
    }

    /// Reaps a dead worker by position: tears the link down and collects
    /// the post-mortem. Returns (exit code, stderr/diagnostic text).
    fn reap_worker(&mut self, at: usize) -> (Option<i32>, String) {
        let mut worker = self.workers.swap_remove(at);
        if let Some(mut tx) = worker.tx.take() {
            tx.close();
        }
        worker.control.kill();
        worker.control.reap()
    }

    /// Validates the first frame from a worker whose `hello` is
    /// outstanding. `Ok` consumed a valid ack; `Err` is the attributed
    /// rejection.
    fn take_hello_ack(&mut self, at: usize, parts: &[String]) -> Result<(), ExecError> {
        match parse_hello_ack(parts) {
            Ok(()) => {
                self.workers[at].awaiting_hello = false;
                Ok(())
            }
            Err(reason) => Err(ExecError::HelloRejected {
                worker: self.workers[at].control.describe(),
                reason,
            }),
        }
    }

    /// Kills every worker immediately — the error-path cleanup, so a
    /// failed run leaves no processes behind and the next run on this
    /// fleet starts from a clean (lazily respawned) state.
    fn kill_all(&mut self) {
        while !self.workers.is_empty() {
            let at = self.workers.len() - 1;
            let _ = self.reap_worker(at);
        }
    }

    /// Dispatches pending jobs onto idle workers, spawning up to the cap.
    fn assign_pending(
        &mut self,
        pending: &mut VecDeque<usize>,
        jobs: &[FleetJob],
        attempts: &mut [usize],
    ) -> Result<(), ExecError> {
        while let Some(&job_idx) = pending.front() {
            let idle = self.workers.iter().position(|w| w.busy_with.is_none());
            let at = match idle {
                Some(at) => at,
                None if self.workers.len() < self.cap => {
                    self.spawn_worker().map_err(|source| ExecError::Spawn {
                        partition: jobs[job_idx].partition,
                        source,
                    })?;
                    self.workers.len() - 1
                }
                None => break, // fleet saturated; wait for a reply
            };
            pending.pop_front();
            attempts[job_idx] += 1;
            let worker = &mut self.workers[at];
            worker.busy_with = Some(job_idx);
            worker.dispatched = Instant::now();
            if let Some(tx) = worker.tx.as_mut() {
                // A failed send means the link is dead or dying; leave
                // the job assigned — the reader thread's EOF event will
                // reap it and replay the job through the normal path.
                let _ = tx.send(&jobs[job_idx].request);
            }
        }
        Ok(())
    }

    /// Runs a batch of jobs to completion, respawning/replaying through
    /// mid-job worker deaths, and returns each job's report and
    /// dispatch-to-reply wall clock, in job order.
    fn run_jobs(
        &mut self,
        jobs: &[FleetJob],
        deadline: Instant,
        timeout: Duration,
    ) -> Result<Vec<(WorkerReport, Duration)>, ExecError> {
        let result = self.run_jobs_inner(jobs, deadline, timeout);
        if result.is_err() {
            self.kill_all();
        }
        result
    }

    fn run_jobs_inner(
        &mut self,
        jobs: &[FleetJob],
        deadline: Instant,
        timeout: Duration,
    ) -> Result<Vec<(WorkerReport, Duration)>, ExecError> {
        let mut pending: VecDeque<usize> = (0..jobs.len()).collect();
        let mut attempts = vec![0usize; jobs.len()];
        let mut results: Vec<Option<(WorkerReport, Duration)>> = vec![None; jobs.len()];
        let mut completed = 0usize;
        while completed < jobs.len() {
            self.assign_pending(&mut pending, jobs, &mut attempts)?;
            let now = Instant::now();
            let timeout_error = |fleet: &WorkerFleet| {
                let partition = fleet
                    .workers
                    .iter()
                    .find_map(|w| w.busy_with.map(|j| jobs[j].partition))
                    .unwrap_or_else(|| jobs.first().map_or(0, |j| j.partition));
                ExecError::WorkerTimeout { partition, timeout }
            };
            if now >= deadline {
                return Err(timeout_error(self));
            }
            let event = match self.rx.recv_timeout(deadline - now) {
                Ok(event) => event,
                Err(mpsc::RecvTimeoutError::Timeout) => return Err(timeout_error(self)),
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    unreachable!("fleet holds its own sender")
                }
            };
            match event {
                FleetEvent::Frame { worker, parts } => {
                    // Stale frames from workers reaped in a previous run
                    // (or a worker we never assigned) are ignored.
                    let Some(at) = self.workers.iter().position(|w| w.id == worker) else {
                        continue;
                    };
                    if self.workers[at].awaiting_hello {
                        // The first frame back must be the hello ack; a
                        // rejection is deterministic and attributed, so
                        // it fails the run rather than being retried.
                        self.take_hello_ack(at, &parts)?;
                        continue;
                    }
                    let Some(job_idx) = self.workers[at].busy_with.take() else {
                        continue;
                    };
                    let dispatched = self.workers[at].dispatched;
                    let wall = dispatched.elapsed();
                    let job = &jobs[job_idx];
                    match parts.first().map(String::as_str) {
                        Some("ok") => match WorkerReport::from_reply(&parts) {
                            Some(report) => {
                                // Merge the worker's piggybacked telemetry
                                // into this process's registry and trace:
                                // counter deltas fold in under
                                // `exec.worker.<name>`, and the job itself
                                // becomes a per-worker span parented to
                                // the round that dispatched it.
                                let telemetry = WorkerTelemetry::from_reply(&parts);
                                for (name, delta) in &telemetry.counters {
                                    kcenter_obs::counter(&format!("exec.worker.{name}"))
                                        .add(*delta);
                                }
                                let verb = job.request.first().map_or("job", String::as_str);
                                kcenter_obs::record_span(kcenter_obs::SpanRecord {
                                    name: &format!("exec.worker.{verb}"),
                                    parent: job.span,
                                    worker: Some(job.partition as u64),
                                    start: Some(dispatched),
                                    dur: wall,
                                    fields: &[
                                        ("points".to_string(), report.points.to_string()),
                                        ("coreset".to_string(), report.coreset.to_string()),
                                        (
                                            "build_micros".to_string(),
                                            report.build_micros.to_string(),
                                        ),
                                    ],
                                });
                                results[job_idx] = Some((report, wall));
                                completed += 1;
                            }
                            None => {
                                return Err(ExecError::WorkerFailed {
                                    partition: job.partition,
                                    code: None,
                                    stderr: format!("malformed ok reply: {parts:?}"),
                                })
                            }
                        },
                        _ => {
                            // `err` replies are deterministic worker-side
                            // failures (bad input, unwritable output) from
                            // a worker that is still alive: replaying
                            // cannot help, so fail now.
                            let reason = match parts.first().map(String::as_str) {
                                Some("err") => parts.get(1).cloned().unwrap_or_default(),
                                _ => format!("unexpected reply frame: {parts:?}"),
                            };
                            return Err(ExecError::JobFailed {
                                partition: job.partition,
                                reason,
                            });
                        }
                    }
                }
                FleetEvent::Eof { worker } => {
                    let Some(at) = self.workers.iter().position(|w| w.id == worker) else {
                        continue; // already reaped
                    };
                    let job_idx = self.workers[at].busy_with;
                    let (code, stderr) = self.reap_worker(at);
                    if let Some(job_idx) = job_idx {
                        if attempts[job_idx] > JOB_RETRIES {
                            return Err(ExecError::WorkerFailed {
                                partition: jobs[job_idx].partition,
                                code,
                                stderr,
                            });
                        }
                        // Contained: replay the partition on a fresh
                        // worker (spawned by the next assign pass).
                        self.respawned_total += 1;
                        pending.push_front(job_idx);
                    }
                }
            }
        }
        Ok(results
            .into_iter()
            .map(|r| r.expect("completed implies recorded"))
            .collect())
    }

    /// Shuts the fleet down cooperatively: every worker is sent a
    /// `shutdown` request and its request channel closed, given a short
    /// grace period to wind down, then torn down. Remote `--listen`
    /// workers outlive this — `shutdown` only ends their connection, so
    /// the same worker pool can serve the next coordinator.
    pub fn shutdown(&mut self) {
        for worker in &mut self.workers {
            if let Some(mut tx) = worker.tx.take() {
                let _ = tx.send(&["shutdown".to_string()]);
                tx.close();
            }
        }
        let grace = Instant::now() + Duration::from_secs(2);
        while !self.workers.is_empty() && Instant::now() < grace {
            self.workers.retain_mut(|worker| !worker.control.exited());
            if !self.workers.is_empty() {
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        self.kill_all();
    }
}

impl Drop for WorkerFleet {
    fn drop(&mut self) {
        self.kill_all();
    }
}

/// Runs the 2-round k-center algorithm of
/// [`kcenter_core::mapreduce_kcenter::mr_kcenter`] with round 1 on a
/// one-shot fleet: spawn, run, shut down. Use [`exec_mr_kcenter_on`] to
/// reuse a warm fleet across runs.
///
/// # Errors
///
/// [`ExecError::Input`] for the same invalid configurations the
/// in-process engine rejects; the executor-specific variants for worker
/// spawn/crash/timeout/artifact failures.
pub fn exec_mr_kcenter(
    points: &[Point],
    metric: MetricKind,
    config: &MrKCenterConfig,
    exec: &ExecConfig,
) -> Result<ExecKCenterResult, ExecError> {
    let mut fleet = WorkerFleet::from_config(exec);
    let result = exec_mr_kcenter_on(&mut fleet, points, metric, config, exec);
    fleet.shutdown();
    result
}

/// As [`exec_mr_kcenter`], but scheduling onto an existing fleet — the
/// persistent-fleet entry point: repeated runs reuse the live workers
/// (0 spawns when the fleet is already large enough) and remain
/// bit-identical to a fresh-spawn run.
///
/// # Errors
///
/// As [`exec_mr_kcenter`].
pub fn exec_mr_kcenter_on(
    fleet: &mut WorkerFleet,
    points: &[Point],
    metric: MetricKind,
    config: &MrKCenterConfig,
    exec: &ExecConfig,
) -> Result<ExecKCenterResult, ExecError> {
    let mut backend = FleetBackend::new(fleet, metric, exec, "kcenter");
    let result = with_metric!(metric, m => mr_kcenter_on(points, m, config, &mut backend))?;
    Ok(ExecKCenterResult {
        clustering: result.clustering,
        report: backend.report,
    })
}

/// Runs the 2-round k-center-with-outliers algorithm of
/// [`kcenter_core::mapreduce_outliers::mr_kcenter_outliers`],
/// deterministic or randomized per the configuration, with round 1 on a
/// one-shot fleet. Use [`exec_mr_outliers_on`] to reuse a warm fleet.
///
/// # Errors
///
/// As [`exec_mr_kcenter`].
pub fn exec_mr_outliers(
    points: &[Point],
    metric: MetricKind,
    config: &MrOutliersConfig,
    exec: &ExecConfig,
) -> Result<ExecOutliersResult, ExecError> {
    let mut fleet = WorkerFleet::from_config(exec);
    let result = exec_mr_outliers_on(&mut fleet, points, metric, config, exec);
    fleet.shutdown();
    result
}

/// As [`exec_mr_outliers`], but scheduling onto an existing fleet.
///
/// # Errors
///
/// As [`exec_mr_kcenter`].
pub fn exec_mr_outliers_on(
    fleet: &mut WorkerFleet,
    points: &[Point],
    metric: MetricKind,
    config: &MrOutliersConfig,
    exec: &ExecConfig,
) -> Result<ExecOutliersResult, ExecError> {
    let mut backend = FleetBackend::new(fleet, metric, exec, "outliers");
    let result =
        with_metric!(metric, m => mr_kcenter_outliers_on(points, m, config, &mut backend))?;
    Ok(ExecOutliersResult {
        clustering: result.clustering,
        r_min: result.r_min,
        uncovered_weight: result.uncovered_weight,
        base: result.base,
        search_evaluations: result.search_evaluations,
        report: backend.report,
    })
}

/// The fleet's side of [`MrBackend`]: round 1 on the workers, round 2 in
/// this process, both timed by obs spans that also fill the
/// [`ExecReport`].
struct FleetBackend<'a> {
    fleet: &'a mut WorkerFleet,
    metric: MetricKind,
    exec: &'a ExecConfig,
    /// The `algo` field of the round spans.
    algo: &'static str,
    report: ExecReport,
}

impl<'a> FleetBackend<'a> {
    fn new(
        fleet: &'a mut WorkerFleet,
        metric: MetricKind,
        exec: &'a ExecConfig,
        algo: &'static str,
    ) -> FleetBackend<'a> {
        FleetBackend {
            fleet,
            metric,
            exec,
            algo,
            report: ExecReport::default(),
        }
    }
}

impl MrBackend<Point> for FleetBackend<'_> {
    type Error = ExecError;

    fn round1(
        &mut self,
        points: &[Point],
        plan: &Round1Plan<'_>,
    ) -> Result<Round1Output<Point>, ExecError> {
        // Round timing runs through obs spans: the same measurement feeds
        // the `exec.round1.micros` / `exec.round2.micros` histograms, the
        // JSONL trace (when enabled), and the `ExecReport` fields.
        let mut span = kcenter_obs::span!("exec.round1", "algo" => self.algo);
        // Empty partitions keep no shard and build no coreset — the shape
        // of the in-process shuffle, which only ever sees keys with at
        // least one member and visits them in ascending order. Partitions
        // hold references into `points`: shards are encoded (or
        // fingerprinted) straight from the caller's dataset, never from a
        // copy of it.
        let refs: Vec<&Point> = points.iter().collect();
        let partitions: Vec<(usize, Vec<&Point>)> =
            partition_dataset(&refs, plan.ell, plan.partitioner)
                .into_iter()
                .enumerate()
                .filter(|(_, members)| !members.is_empty())
                .collect();
        let union = run_distributed_round(
            self.fleet,
            &partitions,
            plan,
            self.metric,
            self.exec,
            Some(span.id()),
            &mut self.report,
        )?;
        span.add_field("partitions", partitions.len());
        self.report.round1_time = span.finish();
        Ok(Round1Output {
            union,
            coreset_sizes: self.report.coreset_sizes.clone(),
        })
    }

    /// `ExecReport::round2_time` covers the solve and the objective; the
    /// objective also gets its own `exec.objective` span inside.
    fn round2<S, F, O>(&mut self, union: WeightedCoreset<Point>, solve: F, objective: O) -> (S, f64)
    where
        S: Send + Sync,
        F: Fn(&WeightedCoreset<Point>) -> S + Sync,
        O: FnOnce(&S) -> f64 + Send,
    {
        let span = kcenter_obs::span!("exec.round2", "algo" => self.algo);
        let answer = solve(&union);
        let objective_span = kcenter_obs::span!("exec.objective");
        let value = objective(&answer);
        objective_span.finish();
        self.report.union_size = union.len();
        self.report.round2_time = span.field("union", union.len()).finish();
        (answer, value)
    }
}

/// Content fingerprint of one partition's shard (coordinates by bit
/// pattern, length-prefixed), under the executor's shard domain.
fn shard_fingerprint<P: Borrow<Point>>(members: &[P]) -> u128 {
    let mut fp = Fingerprint::with_domain(SHARD_FINGERPRINT_DOMAIN);
    fp.write_usize(members.len());
    for p in members {
        fp.write_f64s(p.borrow().coords());
    }
    fp.finish()
}

/// Materializes one partition's shard file: served from the store when a
/// valid content-addressed entry exists, (re-)stored when absent or
/// corrupt, or written into the run directory when no store is
/// configured. Returns (path, reused).
///
/// Why reuse at all: not speed. A reused shard still costs a fingerprint
/// and a full validation, and in `BENCH_pr17.json` (2,000 points, 4
/// shards, 2-vCPU box) `exec_mr_kcenter_shards_reused` took
/// 10.26 ± 1.87 ms against 11.33 ± 1.55 ms for `_shards_rewritten`,
/// within noise. The reason is that a warm run writes nothing: zero shard
/// bytes on disk per job instead of the whole dataset (11 MB per job at
/// kbench fleet-pipe's 200k points), and remote workers can share one
/// store's `@store/NAME` entries instead of per-run scratch files.
fn materialize_shard(
    store: Option<&ArtifactStore>,
    run_dir: &Path,
    part: usize,
    members: &[&Point],
) -> std::io::Result<(PathBuf, bool)> {
    if let Some(store) = store {
        let fp = shard_fingerprint(members);
        let path = store.artifact_path(ArtifactKind::Shard, fp);
        // A hit is trusted only after validation: a corrupt or truncated
        // entry (crash mid-rename cannot cause this, but disk rot or a
        // meddling process can) is silently re-sharded — the cache may
        // change cost, never correctness.
        if path.is_file() {
            if let Ok(set) = read_shard_set(&path) {
                if set.len() == members.len() {
                    return Ok((path, true));
                }
            }
        }
        if store.store_shard(fp, members).is_ok() && path.is_file() {
            return Ok((path, false));
        }
        // Unusable store directory: fall through to the run directory.
    }
    let path = run_dir.join(format!("shard-{part:05}.kca"));
    write_shard(&path, members)?;
    Ok((path, false))
}

/// The distributed phase: shard (with content-addressed reuse), run one
/// `coreset` job per partition on the fleet, then read every partition's
/// coreset artifact here, in partition order, and compose them into the
/// union — the composition the in-process engine makes. Fills the
/// round-1 half of `report`.
fn run_distributed_round(
    fleet: &mut WorkerFleet,
    partitions: &[(usize, Vec<&Point>)],
    plan: &Round1Plan<'_>,
    metric: MetricKind,
    exec: &ExecConfig,
    parent_span: Option<u64>,
    report: &mut ExecReport,
) -> Result<WeightedCoreset<Point>, ExecError> {
    let spawned_before = fleet.spawned_total;
    let respawned_before = fleet.respawned_total;
    let reconnects_before = fleet.reconnects_total();
    let run_dir = RunDir::claim(&exec.work_dir.clone().unwrap_or_else(std::env::temp_dir))?;
    let deadline = Instant::now() + exec.timeout;

    // Shard: one input file per non-empty partition, store-served where
    // the content-addressed entry already exists.
    let mut jobs = Vec::with_capacity(partitions.len());
    let mut outs = Vec::with_capacity(partitions.len());
    // Remote workers cannot dereference this host's absolute paths, but
    // a shard that lives in the (shared) artifact store has a stable,
    // content-addressed file name — so remote jobs reference it as
    // `@store/NAME` and the worker resolves that against its own
    // `--store` root. Run-directory paths (coreset artifacts) stay
    // absolute: cross-host runs put the work dir on shared storage too.
    let remote = fleet.is_remote();
    let store_relative = |shard: &Path| -> PathBuf {
        if remote {
            if let Some(store) = exec.shard_store.as_ref() {
                if shard.parent() == Some(store.dir()) {
                    if let Some(name) = shard.file_name() {
                        return PathBuf::from(format!("@store/{}", name.to_string_lossy()));
                    }
                }
            }
        }
        shard.to_path_buf()
    };
    for (part, members) in partitions {
        let (shard, reused) =
            materialize_shard(exec.shard_store.as_ref(), &run_dir.path, *part, members)?;
        if reused {
            report.shard_reuses += 1;
        } else {
            report.shard_writes += 1;
        }
        let job = (plan.job)(*part, members.len());
        let out = run_dir.path.join(format!("coreset-{part:05}.kca"));
        let args = WorkerArgs {
            shard: store_relative(&shard),
            out: out.clone(),
            metric,
            base: job.base,
            spec: plan.spec,
            start: job.start,
            span: parent_span,
        };
        let mut request = vec!["coreset".to_string()];
        request.extend(args.to_args());
        jobs.push(FleetJob {
            partition: *part,
            request,
            span: parent_span,
        });
        outs.push(out);
    }

    // Round 1 on the fleet.
    let results = fleet.run_jobs(&jobs, deadline, exec.timeout)?;
    for ((part, members), (worker, wall)) in partitions.iter().zip(&results) {
        report.workers.push(WorkerStat {
            partition: *part,
            shard_points: if worker.points > 0 {
                worker.points
            } else {
                members.len()
            },
            coreset_size: worker.coreset,
            wall: *wall,
            build: Duration::from_micros(worker.build_micros),
        });
        report.coreset_sizes.push(worker.coreset);
    }

    // Collect: read each partition's artifact in partition order. A torn
    // or missing artifact is charged to the partition that wrote it.
    let mut coresets = Vec::with_capacity(outs.len());
    for ((part, _), out) in partitions.iter().zip(&outs) {
        let (points, weights) =
            read_coreset_artifact(out).map_err(|err| ExecError::BadArtifact {
                partition: *part,
                path: out.clone(),
                reason: err.to_string(),
            })?;
        coresets.push(
            points
                .into_iter()
                .zip(weights)
                .map(|(point, weight)| WeightedPoint { point, weight })
                .collect(),
        );
    }
    drop(run_dir);
    report.workers_spawned = fleet.spawned_total - spawned_before;
    report.worker_respawns = fleet.respawned_total - respawned_before;
    report.reconnects = fleet.reconnects_total() - reconnects_before;
    // The same accounting that lands in `ExecReport` accumulates into the
    // process-wide registry, under the executor's counter family.
    let obs = kcenter_obs::registry();
    obs.counter("exec.jobs.coreset").add(jobs.len() as u64);
    obs.counter("exec.shards.written")
        .add(report.shard_writes as u64);
    obs.counter("exec.shards.reused")
        .add(report.shard_reuses as u64);
    obs.counter("exec.workers.spawned")
        .add(report.workers_spawned as u64);
    obs.counter("exec.workers.respawned")
        .add(report.worker_respawns as u64);
    obs.counter("exec.reconnects").add(report.reconnects as u64);
    Ok(WeightedCoreset::compose(coresets))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcenter_core::coreset::CoresetSpec;

    #[test]
    fn invalid_configs_fail_before_any_process_work() {
        let points: Vec<Point> = (0..10).map(|i| Point::new(vec![i as f64])).collect();
        let exec = ExecConfig::new(WorkerCommand::new("/nonexistent/worker", &[]));
        let bad = MrKCenterConfig {
            k: 0,
            ell: 2,
            coreset: CoresetSpec::Multiplier { mu: 1 },
            seed: 0,
        };
        assert!(matches!(
            exec_mr_kcenter(&points, MetricKind::Euclidean, &bad, &exec),
            Err(ExecError::Input(_))
        ));
        let mut bad_outliers =
            MrOutliersConfig::deterministic(2, 1, 0, CoresetSpec::Multiplier { mu: 1 });
        bad_outliers.ell = 0;
        assert!(matches!(
            exec_mr_outliers(&points, MetricKind::Euclidean, &bad_outliers, &exec),
            Err(ExecError::Input(_))
        ));
    }

    #[test]
    fn shard_fingerprints_are_content_sensitive() {
        let a = vec![Point::new(vec![1.0, 2.0]), Point::new(vec![3.0, 4.0])];
        let b = vec![Point::new(vec![1.0, 2.0]), Point::new(vec![3.0, 5.0])];
        let reordered = vec![Point::new(vec![3.0, 4.0]), Point::new(vec![1.0, 2.0])];
        let signed_zero = vec![Point::new(vec![-0.0, 2.0]), Point::new(vec![3.0, 4.0])];
        let fp = shard_fingerprint(&a);
        assert_eq!(fp, shard_fingerprint(&a.clone()));
        assert_ne!(fp, shard_fingerprint(&b));
        assert_ne!(fp, shard_fingerprint(&reordered));
        assert_ne!(fp, shard_fingerprint(&signed_zero));
    }

    #[test]
    fn fleet_cap_defaults_to_at_least_one() {
        let fleet = WorkerFleet::new(WorkerCommand::new("/bin/true", &[]), Some(0));
        assert_eq!(fleet.cap, 1);
        let sized = WorkerFleet::new(WorkerCommand::new("/bin/true", &[]), Some(7));
        assert_eq!(sized.cap, 7);
        let auto = WorkerFleet::new(WorkerCommand::new("/bin/true", &[]), None);
        assert!(auto.cap >= 1);
    }
}
