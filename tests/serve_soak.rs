//! Serve-soak suite: eight concurrent sessions driven through the real
//! `kcenter serve` binary — seven over its unix socket, one over its TCP
//! listener (both endpoints front the same registry) — under a memory budget
//! small enough that the sessions cannot all stay resident — every
//! ingest round forces LRU evict/restore churn, and each worker throws
//! in explicit mid-stream evictions on top.
//!
//! Two invariants are pinned:
//!
//! * **Zero session loss** — after the churn the registry still knows
//!   all eight sessions, each with its full processed count.
//! * **Evict+restore determinism** — every answer a worker received
//!   mid-churn (including those computed right after a restore) is
//!   bit-identical to what an in-process reference registry with *no*
//!   budget — a registry that never evicts — answers for the same
//!   stream position. Radii cross the socket through Rust's
//!   shortest-round-trip float formatting, so string equality here is
//!   bit equality.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use kcenter_serve::server::reply_field;
use kcenter_serve::{RegistryConfig, ServeClient, SessionRegistry};

const SESSIONS: usize = 8;
const ROUNDS: usize = 3;
const BATCH: usize = 40;
const TAU: usize = 16;
/// Resident-point budget: with τ = 16 a session holds at most 17 coreset
/// points, so 40 fits only two sessions — eight concurrent streams must
/// churn through the store constantly.
const BUDGET: usize = 40;

/// The same deterministic per-session generator the serve crate's own
/// tests use: session `seed` always streams the same points.
fn session_points(seed: u64, n: usize) -> Vec<kcenter_metric::Point> {
    (0..n)
        .map(|i| {
            let a = ((i as u64).wrapping_mul(2654435761).wrapping_add(seed * 97)) % 1000;
            let b = ((i as u64).wrapping_mul(40503).wrapping_add(seed * 131)) % 1000;
            kcenter_metric::Point::new(vec![a as f64 * 0.5, b as f64 * 0.25])
        })
        .collect()
}

/// The `kcenter serve` child process; killed on drop so a panicking
/// assertion never leaks a server.
struct Server {
    child: Child,
    socket: PathBuf,
    /// Resolved `tcp://HOST:PORT` of the server's TCP listener, parsed
    /// from its announce line (the server binds port 0).
    tcp_addr: String,
}

impl Server {
    fn spawn(dir: &Path) -> Server {
        let socket = dir.join("soak.sock");
        let cache = dir.join("cache");
        let manifest_dir = env!("CARGO_MANIFEST_DIR");
        let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
        let mut child = Command::new(&cargo)
            .args([
                "run",
                "--release",
                "-p",
                "kcenter-cli",
                "--bin",
                "kcenter",
                "--",
                "serve",
                "--socket",
            ])
            .arg(&socket)
            .args([
                "--tau",
                &TAU.to_string(),
                "--memory-budget",
                &BUDGET.to_string(),
            ])
            .args(["--listen", "tcp://127.0.0.1:0"])
            .args(["--snapshot-every", "64", "--cache-dir"])
            .arg(&cache)
            // The server must use the test's own cache dir, never an
            // ambient one.
            .env_remove("KCENTER_CACHE_DIR")
            .current_dir(manifest_dir)
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn kcenter serve");
        // The server announces each bound endpoint on stdout; the TCP
        // line carries the ephemeral port.
        let stdout = child.stdout.take().expect("server stdout");
        let mut reader = BufReader::new(stdout);
        let mut tcp_addr = String::new();
        let mut line = String::new();
        while reader.read_line(&mut line).expect("server announce") > 0 {
            if let Some(addr) = line
                .trim()
                .strip_prefix("kcenter-serve: listening on tcp://")
            {
                tcp_addr = format!("tcp://{addr}");
                break;
            }
            line.clear();
        }
        assert!(
            !tcp_addr.is_empty(),
            "server never announced a tcp endpoint"
        );
        Server {
            child,
            socket,
            tcp_addr,
        }
    }

    /// Connects, waiting out the child's `cargo run` startup.
    fn connect(&mut self) -> ServeClient {
        let deadline = Instant::now() + Duration::from_secs(300);
        loop {
            match ServeClient::connect(&self.socket) {
                Ok(client) => return client,
                Err(err) => {
                    if let Some(status) = self.child.try_wait().expect("poll server") {
                        panic!("server exited before serving: {status}");
                    }
                    assert!(
                        Instant::now() < deadline,
                        "server socket never appeared: {err}"
                    );
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn concurrent_sessions_survive_eviction_churn_bitwise() {
    let dir = std::env::temp_dir()
        .join("kcenter-serve-soak")
        .join(format!("run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut server = Server::spawn(&dir);
    // Wait until the server actually listens before unleashing workers.
    drop(server.connect());

    // Eight concurrent workers, one session each, interleaved
    // ingest/query/evict. Each records the radius string of every
    // mid-stream query.
    let socket = server.socket.clone();
    let tcp_addr = server.tcp_addr.clone();
    let workers: Vec<_> = (0..SESSIONS)
        .map(|i| {
            let socket = socket.clone();
            let tcp_addr = tcp_addr.clone();
            std::thread::spawn(move || {
                // One session rides the TCP listener, the rest the unix
                // socket — both endpoints front the same registry, so the
                // determinism check below covers the mixed-transport case.
                let mut client = if i == 0 {
                    let mut client =
                        ServeClient::connect_tcp(&tcp_addr).expect("worker connect (tcp)");
                    let hello = client.hello(Some(TAU as u64)).expect("hello over tcp");
                    assert!(
                        hello.iter().any(|p| p == &format!("tau={TAU}")),
                        "hello must echo the registry tau: {hello:?}"
                    );
                    client
                } else {
                    ServeClient::connect(&socket).expect("worker connect")
                };
                let tenant = format!("tenant-{}", i % 3);
                let stream = format!("stream-{i}");
                let points = session_points(i as u64 + 1, ROUNDS * BATCH);
                let mut radii = Vec::with_capacity(ROUNDS);
                for round in 0..ROUNDS {
                    let batch = &points[round * BATCH..(round + 1) * BATCH];
                    let reply = client.ingest(&tenant, &stream, batch).expect("ingest");
                    let processed: u64 = reply_field(&reply, "processed")
                        .expect("processed field")
                        .parse()
                        .expect("processed count");
                    assert_eq!(processed, ((round + 1) * BATCH) as u64, "{tenant}/{stream}");
                    let answer = client.query(&tenant, &stream, 3, 5, 0.25).expect("query");
                    radii.push(reply_field(&answer, "radius").expect("radius").to_string());
                    if round + 1 < ROUNDS {
                        // Explicit mid-stream eviction on top of the LRU
                        // churn the budget already forces.
                        client.evict(&tenant, &stream).expect("evict");
                    }
                }
                radii
            })
        })
        .collect();
    let observed: Vec<Vec<String>> = workers
        .into_iter()
        .map(|w| w.join().expect("worker thread"))
        .collect();

    // Reference: an in-process registry with no budget — nothing ever
    // evicts, so it answers exactly what an uninterrupted stream would.
    let reference = SessionRegistry::new(
        kcenter_metric::Euclidean,
        RegistryConfig {
            tau: TAU,
            memory_budget_points: None,
            snapshot_every: 0,
        },
        None,
    )
    .unwrap();
    for (i, radii) in observed.iter().enumerate() {
        let tenant = format!("tenant-{}", i % 3);
        let stream = format!("stream-{i}");
        let points = session_points(i as u64 + 1, ROUNDS * BATCH);
        for round in 0..ROUNDS {
            let batch = points[round * BATCH..(round + 1) * BATCH].to_vec();
            reference.ingest(&tenant, &stream, batch).unwrap();
            let answer = reference.query(&tenant, &stream, 3, 5, 0.25).unwrap();
            assert_eq!(
                radii[round],
                format!("{}", answer.radius),
                "session {tenant}/{stream} round {round}: evict/restore must be transparent"
            );
        }
    }

    // Zero session loss, and the budget really did force churn.
    let mut client = server.connect();
    let stats = client.request(&["stats".to_string()]).expect("stats");
    let field = |key: &str| -> u64 {
        reply_field(&stats, key)
            .unwrap_or_else(|| panic!("missing {key} in {stats:?}"))
            .parse()
            .expect("stats field")
    };
    assert_eq!(field("sessions"), SESSIONS as u64, "zero session loss");
    assert!(field("evictions") > 0, "the budget must force evictions");
    assert!(field("restores") > 0, "workers must have hit restores");
    assert!(
        field("resident_points") <= BUDGET as u64,
        "the budget holds after the churn"
    );
    for i in 0..SESSIONS {
        let stat = client
            .request(&[
                "stat".to_string(),
                format!("tenant-{}", i % 3),
                format!("stream-{i}"),
            ])
            .expect("stat");
        assert_eq!(
            reply_field(&stat, "processed"),
            Some((ROUNDS * BATCH).to_string().as_str()),
            "session {i} kept its full stream"
        );
    }

    client.shutdown().expect("shutdown");
    let status = server.child.wait().expect("server exit");
    assert!(status.success(), "server exited with {status}");
    assert!(!server.socket.exists(), "socket removed on shutdown");
}
