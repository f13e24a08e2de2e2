//! Process-level tests of the TCP transport: real `kcenter-exec-worker`
//! processes started independently with `--listen`, a real coordinator
//! dialing them over localhost.
//!
//! Pinned contracts:
//!
//! * **Determinism across transports** — a TCP run is bit-identical to a
//!   pipe run of the same seeded input, shards travelling as `@store/…`
//!   references through a shared artifact store;
//! * **Failure containment on the remote path** — a mid-job disconnect
//!   is absorbed by reconnect-and-replay (still bitwise-identical), a
//!   `--pin-config` mismatch is an attributed handshake rejection, a job
//!   a live worker cannot run is a job failure (not a process exit), and
//!   a hung remote worker dies at the run deadline, never stalling the
//!   coordinator.

use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use kcenter_core::coreset::CoresetSpec;
use kcenter_core::mapreduce_kcenter::MrKCenterConfig;
use kcenter_exec::protocol::{read_frame, write_frame};
use kcenter_exec::{
    exec_mr_kcenter, ExecConfig, ExecError, MetricKind, TransportSpec, WorkerCommand,
};
use kcenter_metric::Point;
use kcenter_store::ArtifactStore;

/// One independently started `kcenter-exec-worker --listen` process; the
/// bound address is parsed from its announce line. Killed on drop so a
/// panicking assertion never leaks a worker.
struct TcpWorker {
    child: Child,
    addr: String,
}

impl TcpWorker {
    /// Starts a `--listen 127.0.0.1:0` worker with `extra` flags and
    /// `envs`, waiting for its listening announcement.
    fn listen(extra: &[&str], envs: &[(&str, &str)]) -> TcpWorker {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_kcenter-exec-worker"));
        cmd.args(["--listen", "127.0.0.1:0"])
            .args(extra)
            .env_remove(kcenter_exec::worker::FAULT_ENV)
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        for (key, value) in envs {
            cmd.env(key, value);
        }
        let mut child = cmd.spawn().expect("spawn tcp worker");
        let stdout = child.stdout.take().expect("worker stdout");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("worker announce line");
        let addr = line
            .trim()
            .rsplit(' ')
            .next()
            .expect("address in announce line")
            .to_string();
        assert!(
            line.contains("listening on") && addr.contains(':'),
            "unexpected announce line {line:?}"
        );
        TcpWorker { child, addr }
    }

    /// Asks the worker process to exit via the wire (`shutdown process`)
    /// and reaps it.
    fn stop(mut self) {
        if let Ok(stream) = TcpStream::connect(&self.addr) {
            let mut writer = stream.try_clone().expect("clone stream");
            let mut reader = BufReader::new(stream);
            let _ = write_frame(
                &mut writer,
                &["shutdown".to_string(), "process".to_string()],
            );
            let _ = read_frame(&mut reader);
        }
        let _ = self.child.wait();
    }
}

impl Drop for TcpWorker {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The worker binary cargo built for this package (pipe reference runs).
fn worker_command() -> WorkerCommand {
    WorkerCommand::new(env!("CARGO_BIN_EXE_kcenter-exec-worker"), &[])
}

fn pipe_config() -> ExecConfig {
    let mut config = ExecConfig::new(worker_command());
    config.timeout = Duration::from_secs(120);
    config
}

/// A config dialing out to `workers`.
fn tcp_config(workers: &[&TcpWorker]) -> ExecConfig {
    let mut config = pipe_config();
    config.transport = TransportSpec::TcpConnect {
        addrs: workers.iter().map(|w| w.addr.clone()).collect(),
    };
    config
}

fn dataset(n: usize) -> Vec<Point> {
    (0..n)
        .map(|i| {
            Point::new(vec![
                (i % 37) as f64 * 1.5 + (i % 7) as f64 * 0.01,
                (i / 37) as f64 * 1.5,
            ])
        })
        .collect()
}

fn assert_points_bit_identical(a: &[Point], b: &[Point], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: center counts differ");
    for (i, (pa, pb)) in a.iter().zip(b).enumerate() {
        for (ca, cb) in pa.coords().iter().zip(pb.coords()) {
            assert_eq!(
                ca.to_bits(),
                cb.to_bits(),
                "{what}: coordinate bits differ at center {i}"
            );
        }
    }
}

#[test]
fn tcp_run_is_bit_identical_to_pipe_run_with_store_shards() {
    let points = dataset(600);
    let config = MrKCenterConfig {
        k: 5,
        ell: 4,
        coreset: CoresetSpec::Multiplier { mu: 3 },
        seed: 11,
    };
    let reference =
        exec_mr_kcenter(&points, MetricKind::Euclidean, &config, &pipe_config()).unwrap();

    // Shards land in a shared artifact store and cross the wire as
    // `@store/…` references the workers resolve via `--store`.
    let store_dir = std::env::temp_dir()
        .join("kcenter-transport-tcp")
        .join(format!("store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let store = ArtifactStore::open(&store_dir).unwrap();
    let store_flag = store_dir.to_string_lossy().into_owned();
    let workers: Vec<TcpWorker> = (0..4)
        .map(|_| TcpWorker::listen(&["--store", &store_flag], &[]))
        .collect();
    let refs: Vec<&TcpWorker> = workers.iter().collect();
    let mut exec = tcp_config(&refs);
    exec.shard_store = Some(store);

    for (run, expect_reuse) in [("cold", false), ("warm", true)] {
        let executed = exec_mr_kcenter(&points, MetricKind::Euclidean, &config, &exec).unwrap();
        assert_points_bit_identical(
            &executed.clustering.centers,
            &reference.clustering.centers,
            &format!("tcp vs pipe ({run})"),
        );
        assert_eq!(
            executed.clustering.radius.to_bits(),
            reference.clustering.radius.to_bits(),
            "radius bits differ ({run})"
        );
        assert_eq!(executed.report.union_size, reference.report.union_size);
        assert_eq!(executed.report.reconnects, 0, "no loss injected ({run})");
        if expect_reuse {
            assert!(
                executed.report.shard_reuses > 0,
                "warm store must serve shards to the tcp path"
            );
        }
    }
    for worker in workers {
        worker.stop();
    }
}

#[test]
fn mid_job_disconnect_is_contained_by_reconnect_and_replay() {
    let points = dataset(600);
    let config = MrKCenterConfig {
        k: 4,
        // 3 partitions over 2 workers: some connection must take a
        // second coreset job and hit its `drop-conn:2`.
        ell: 3,
        coreset: CoresetSpec::Multiplier { mu: 2 },
        seed: 7,
    };
    let reference =
        exec_mr_kcenter(&points, MetricKind::Euclidean, &config, &pipe_config()).unwrap();

    let workers: Vec<TcpWorker> = (0..2)
        .map(|_| TcpWorker::listen(&[], &[(kcenter_exec::worker::FAULT_ENV, "drop-conn:2")]))
        .collect();
    let refs: Vec<&TcpWorker> = workers.iter().collect();
    let exec = tcp_config(&refs);
    let executed = exec_mr_kcenter(&points, MetricKind::Euclidean, &config, &exec)
        .expect("reconnect+replay must contain the disconnect");
    assert_points_bit_identical(
        &executed.clustering.centers,
        &reference.clustering.centers,
        "reconnect+replay",
    );
    assert_eq!(
        executed.clustering.radius.to_bits(),
        reference.clustering.radius.to_bits(),
        "radius bits differ after reconnect"
    );
    assert!(
        executed.report.reconnects > 0,
        "the injected disconnect must surface in the accounting: {:?}",
        executed.report
    );
    for worker in workers {
        worker.stop();
    }
}

#[test]
fn pinned_worker_rejects_mismatched_coordinator() {
    let points = dataset(200);
    let config = MrKCenterConfig {
        k: 3,
        ell: 1,
        coreset: CoresetSpec::Multiplier { mu: 1 },
        seed: 1,
    };
    let worker = TcpWorker::listen(&["--pin-config", "deadbeef"], &[]);
    let refs = [&worker];

    // Wrong fingerprint: rejected with the worker's address attributed.
    let mut exec = tcp_config(&refs);
    exec.config_fingerprint = Some(0x1234);
    match exec_mr_kcenter(&points, MetricKind::Euclidean, &config, &exec) {
        Err(ExecError::HelloRejected {
            worker: who,
            reason,
        }) => {
            assert!(who.contains("tcp://"), "unattributed rejection: {who:?}");
            assert!(
                reason.contains("fingerprint"),
                "unexpected reason: {reason:?}"
            );
        }
        other => panic!("expected HelloRejected, got {other:?}"),
    }

    // No fingerprint announced at all: a pinned worker still refuses.
    let mut exec = tcp_config(&refs);
    exec.config_fingerprint = None;
    assert!(matches!(
        exec_mr_kcenter(&points, MetricKind::Euclidean, &config, &exec),
        Err(ExecError::HelloRejected { .. })
    ));

    // The matching fingerprint is served; the listener survived both
    // rejected coordinators above.
    let mut exec = tcp_config(&refs);
    exec.config_fingerprint = Some(0xdeadbeef);
    exec_mr_kcenter(&points, MetricKind::Euclidean, &config, &exec)
        .expect("matching fingerprint must be served");
    worker.stop();
}

#[test]
fn worker_without_store_fails_the_job_and_keeps_listening() {
    let points = dataset(200);
    let config = MrKCenterConfig {
        k: 3,
        ell: 1,
        coreset: CoresetSpec::Multiplier { mu: 1 },
        seed: 1,
    };
    // The coordinator shares shards through a store, so its jobs carry
    // `@store/…` references; this worker was started without `--store`.
    let store_dir = std::env::temp_dir()
        .join("kcenter-transport-tcp")
        .join(format!("nostore-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let mut worker = TcpWorker::listen(&[], &[]);
    let mut exec = tcp_config(&[&worker]);
    exec.shard_store = Some(ArtifactStore::open(&store_dir).unwrap());
    let err = exec_mr_kcenter(&points, MetricKind::Euclidean, &config, &exec)
        .expect_err("a worker without --store cannot resolve @store/ shards");
    let message = err.to_string();
    let ExecError::JobFailed { partition, reason } = err else {
        panic!("expected JobFailed, got {err:?}");
    };
    assert_eq!(partition, 0);
    assert!(reason.contains("--store"), "unexpected reason: {reason:?}");
    assert!(
        message.contains("failed its job") && !message.contains("exited"),
        "a live worker's job failure reads as a process exit: {message:?}"
    );
    assert!(
        matches!(worker.child.try_wait(), Ok(None)),
        "the worker must still be running"
    );
    worker.stop();
}

#[test]
fn hung_tcp_worker_is_killed_at_the_deadline() {
    let points = dataset(150);
    let config = MrKCenterConfig {
        k: 2,
        ell: 2,
        coreset: CoresetSpec::Multiplier { mu: 1 },
        seed: 1,
    };
    // The hang fires after the accept: the connection is up, no frame
    // (not even the hello ack) ever arrives.
    let workers: Vec<TcpWorker> = (0..2)
        .map(|_| TcpWorker::listen(&[], &[(kcenter_exec::worker::FAULT_ENV, "hang")]))
        .collect();
    let refs: Vec<&TcpWorker> = workers.iter().collect();
    let mut exec = tcp_config(&refs);
    exec.timeout = Duration::from_millis(1500);
    let started = std::time::Instant::now();
    let result = exec_mr_kcenter(&points, MetricKind::Euclidean, &config, &exec);
    let elapsed = started.elapsed();
    assert!(
        matches!(result, Err(ExecError::WorkerTimeout { .. })),
        "expected WorkerTimeout, got {result:?}"
    );
    assert!(
        elapsed < Duration::from_secs(30),
        "coordinator took {elapsed:?} to time out on a hung remote"
    );
}
