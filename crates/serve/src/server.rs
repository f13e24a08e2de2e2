//! The socket front of the session registry — unix by default, TCP via
//! [`ServeEndpoint::Tcp`]; both may serve one registry at once.
//!
//! Speaks the same length-delimited framed protocol as `crates/exec`'s
//! persistent workers (`[u32 payload_len][u32 part_count]([u32 len][utf-8])*`,
//! 16 MiB cap; see `docs/PROTOCOL.md` for the normative contract) — one
//! request frame in, one reply frame out, per round:
//!
//! * `["ping"]` → `["ok", "pong"]`
//! * `["hello"]` (optionally with a `tau=N` announce) → `["ok", "hello",
//!   "proto=…", "version=…", "tau=…"]`; an announced `τ` that disagrees
//!   with the registry's replies `["err", …]` instead
//! * `["ingest", tenant, stream, p…]` — each `p` is a comma-separated
//!   coordinate list → `["ok", "processed=…", "resident=…", "phi=…",
//!   "restored=…"]`
//! * `["query", tenant, stream, k, z, eps]` → `["ok", "radius=…",
//!   "uncovered=…", "processed=…", "cached=…", "centers=N", c…]`
//! * `["evict", tenant, stream]` → `["ok", "evicted=true|false"]`
//! * `["stat", tenant, stream]` → `["ok", "resident=…", "processed=…",
//!   "points=…"]`
//! * `["stats"]` → `["ok", "sessions=…", "resident_sessions=…",
//!   "resident_points=…", "evictions=…", "restores=…", "snapshots=…"]`
//! * `["flush"]` → `["ok", "persisted=N"]`
//! * `["metrics"]` (or `["metrics", "prometheus"]`) → `["ok", <Prometheus
//!   text exposition of the process metrics registry>]`;
//!   `["metrics", "json"]` → `["ok", <kcenter-metrics/v1 JSON>]`
//! * `["shutdown"]` — flushes every resident session, replies
//!   `["ok", "bye"]`, and stops the server.
//!
//! Failures reply `["err", message]` and never tear the connection; a
//! clean client hang-up between frames ends that connection only.
//!
//! Floats cross the wire through Rust's shortest-round-trip formatting,
//! so every `ϕ`, radius, and coordinate re-parses **bit-exactly** — the
//! protocol preserves the workspace's determinism standard.

use std::io::{self, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use kcenter_exec::protocol::{read_frame, write_frame, PROTOCOL_VERSION};
use kcenter_metric::{Metric, Point};

use crate::{ServeError, SessionRegistry};

/// Formats a point for the wire: comma-separated shortest-round-trip
/// coordinates.
fn format_point(p: &Point) -> String {
    let coords: Vec<String> = p.coords().iter().map(|c| c.to_string()).collect();
    coords.join(",")
}

/// Parses a wire point; rejects empty and non-finite coordinates.
fn parse_point(s: &str) -> Result<Point, ServeError> {
    let coords: Result<Vec<f64>, _> = s.split(',').map(str::trim).map(str::parse).collect();
    let coords = coords.map_err(|e| ServeError::BadRequest(format!("bad coordinate: {e}")))?;
    Point::try_new(coords).map_err(|e| ServeError::BadRequest(format!("bad point: {e}")))
}

fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, ServeError>
where
    T::Err: std::fmt::Display,
{
    s.parse()
        .map_err(|e| ServeError::BadRequest(format!("bad {what} {s:?}: {e}")))
}

/// Handles one request frame; `Ok(false)` means the server should stop.
fn dispatch<M: Metric<Point> + Clone + Sync>(
    registry: &SessionRegistry<M>,
    parts: &[String],
) -> (Vec<String>, bool) {
    match handle(registry, parts) {
        Ok((reply, keep_going)) => (reply, keep_going),
        Err(err) => (vec!["err".into(), err.to_string()], true),
    }
}

fn handle<M: Metric<Point> + Clone + Sync>(
    registry: &SessionRegistry<M>,
    parts: &[String],
) -> Result<(Vec<String>, bool), ServeError> {
    let verb = parts
        .first()
        .ok_or_else(|| ServeError::BadRequest("empty frame".into()))?;
    let arg = |i: usize, what: &str| -> Result<&String, ServeError> {
        parts
            .get(i)
            .ok_or_else(|| ServeError::BadRequest(format!("missing {what}")))
    };
    match verb.as_str() {
        "ping" => Ok((vec!["ok".into(), "pong".into()], true)),
        "hello" => {
            // A client may announce the `τ` it expects; serving it a
            // registry built under a different `τ` would silently answer
            // from differently-shaped coresets, so mismatches are errors.
            let expected = registry.config().tau;
            for part in &parts[1..] {
                if let Some(announced) = part.strip_prefix("tau=") {
                    let found: usize = parse_num(announced, "tau")?;
                    if found != expected {
                        return Err(ServeError::TauMismatch {
                            expected: expected as u64,
                            found: found as u64,
                        });
                    }
                }
            }
            Ok((
                vec![
                    "ok".into(),
                    "hello".into(),
                    format!("proto={PROTOCOL_VERSION}"),
                    format!("version={}", env!("CARGO_PKG_VERSION")),
                    format!("tau={expected}"),
                ],
                true,
            ))
        }
        "ingest" => {
            let tenant = arg(1, "tenant")?;
            let stream = arg(2, "stream")?;
            let points: Result<Vec<Point>, ServeError> =
                parts[3..].iter().map(|s| parse_point(s)).collect();
            let report = registry.ingest(tenant, stream, points?)?;
            Ok((
                vec![
                    "ok".into(),
                    format!("processed={}", report.processed),
                    format!("resident={}", report.resident_points),
                    format!("phi={}", report.phi),
                    format!("restored={}", report.restored),
                ],
                true,
            ))
        }
        "query" => {
            let tenant = arg(1, "tenant")?;
            let stream = arg(2, "stream")?;
            let k: usize = parse_num(arg(3, "k")?, "k")?;
            let z: u64 = parse_num(arg(4, "z")?, "z")?;
            let eps: f64 = parse_num(arg(5, "eps")?, "eps")?;
            let answer = registry.query(tenant, stream, k, z, eps)?;
            let mut reply = vec![
                "ok".into(),
                format!("radius={}", answer.radius),
                format!("uncovered={}", answer.uncovered_weight),
                format!("processed={}", answer.processed),
                format!("cached={}", answer.cached),
                format!("centers={}", answer.centers.len()),
            ];
            reply.extend(answer.centers.iter().map(format_point));
            Ok((reply, true))
        }
        "evict" => {
            let evicted = registry.evict(arg(1, "tenant")?, arg(2, "stream")?)?;
            Ok((vec!["ok".into(), format!("evicted={evicted}")], true))
        }
        "stat" => {
            let stat = registry.session_stat(arg(1, "tenant")?, arg(2, "stream")?)?;
            Ok((
                vec![
                    "ok".into(),
                    format!("resident={}", stat.resident),
                    format!("processed={}", stat.processed),
                    format!("points={}", stat.memory_points),
                ],
                true,
            ))
        }
        "stats" => {
            let s = registry.stats();
            Ok((
                vec![
                    "ok".into(),
                    format!("sessions={}", s.sessions),
                    format!("resident_sessions={}", s.resident_sessions),
                    format!("resident_points={}", s.resident_points),
                    format!("evictions={}", s.evictions),
                    format!("restores={}", s.restores),
                    format!("snapshots={}", s.snapshots),
                ],
                true,
            ))
        }
        "flush" => {
            let written = registry.flush()?;
            Ok((vec!["ok".into(), format!("persisted={written}")], true))
        }
        "shutdown" => {
            registry.flush()?;
            Ok((vec!["ok".into(), "bye".into()], false))
        }
        "metrics" => {
            // Gauges mirror live registry state at scrape time; counters
            // accumulate at their increment sites.
            let s = registry.stats();
            kcenter_obs::gauge("serve.sessions.known").set(s.sessions as u64);
            kcenter_obs::gauge("serve.sessions.resident").set(s.resident_sessions as u64);
            kcenter_obs::gauge("serve.points.resident").set(s.resident_points as u64);
            let body = match parts.get(1).map(String::as_str) {
                None | Some("prometheus") => kcenter_obs::render_prometheus(),
                Some("json") => kcenter_obs::render_json(),
                Some(other) => {
                    return Err(ServeError::BadRequest(format!(
                        "unknown metrics format {other:?}"
                    )))
                }
            };
            Ok((vec!["ok".into(), body], true))
        }
        other => Err(ServeError::BadRequest(format!("unknown verb {other:?}"))),
    }
}

/// One connection's request loop; returns `false` when a shutdown was
/// requested on it.
fn serve_connection<M: Metric<Point> + Clone + Sync, R: Read, W: Write>(
    registry: &SessionRegistry<M>,
    mut reader: R,
    mut writer: W,
) -> io::Result<bool> {
    while let Some(parts) = read_frame(&mut reader)? {
        let (reply, keep_going) = dispatch(registry, &parts);
        write_frame(&mut writer, &reply)?;
        if !keep_going {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Where a serve listener binds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeEndpoint {
    /// A unix-domain socket at this path (the default front).
    Unix(PathBuf),
    /// A TCP listener at this `host:port` address (a leading `tcp://`
    /// scheme prefix is accepted and stripped). Port `0` binds an
    /// ephemeral port; the resolved address is announced on stdout as
    /// `kcenter-serve: listening on tcp://HOST:PORT`.
    Tcp(String),
}

/// A bound listener plus what is needed to wake and clean it up.
enum BoundListener {
    Unix(UnixListener, PathBuf),
    Tcp(TcpListener),
}

/// How a stopping server pokes a (possibly blocked) accept loop awake.
#[derive(Clone)]
enum WakeTarget {
    Unix(PathBuf),
    Tcp(SocketAddr),
}

/// Connects-and-drops to every listener so each accept loop observes the
/// stop flag instead of blocking forever.
fn wake_all(targets: &[WakeTarget]) {
    for target in targets {
        match target {
            WakeTarget::Unix(path) => {
                let _ = UnixStream::connect(path);
            }
            WakeTarget::Tcp(addr) => {
                let _ = TcpStream::connect(addr);
            }
        }
    }
}

/// One listener's accept loop: serves connections on their own threads
/// until the shared stop flag is raised (by a `["shutdown"]` on *any*
/// listener), then ends its connections and joins them. `end_reads`
/// shuts down the read half of a connection.
fn accept_loop<M, S>(
    accept: impl Fn() -> io::Result<S>,
    end_reads: fn(&S) -> io::Result<()>,
    registry: Arc<SessionRegistry<M>>,
    stop: Arc<AtomicBool>,
    wake: Arc<Vec<WakeTarget>>,
) where
    M: Metric<Point> + Clone + Send + Sync + 'static,
    S: Send + Sync + 'static,
    for<'a> &'a S: Read + Write,
{
    let mut live: Vec<(Arc<S>, JoinHandle<()>)> = Vec::new();
    while !stop.load(Ordering::Acquire) {
        let conn = match accept() {
            // The wake-up poke of a stopping server, or a latecomer.
            Ok(_) if stop.load(Ordering::Acquire) => break,
            Ok(conn) => Arc::new(conn),
            Err(err) => {
                eprintln!("kcenter-serve: accept error: {err}");
                break;
            }
        };
        // A long-lived server keeps nothing per past connection.
        for (_, thread) in live.extract_if(.., |(_, thread)| thread.is_finished()) {
            let _ = thread.join();
        }
        let registry = Arc::clone(&registry);
        let stop = Arc::clone(&stop);
        let wake = Arc::clone(&wake);
        let stream = Arc::clone(&conn);
        let thread = std::thread::spawn(move || {
            let outcome = serve_connection(registry.as_ref(), BufReader::new(&*stream), &*stream);
            finish_connection(outcome, &stop, &wake);
        });
        live.push((conn, thread));
    }
    // A connection idle in `read_frame` would hold its join forever: end
    // every read, so idle connections see EOF while a reply already being
    // computed is still written.
    for (conn, _) in &live {
        let _ = end_reads(conn);
    }
    for (_, thread) in live {
        let _ = thread.join();
    }
}

/// Routes one finished connection's outcome: a shutdown request raises
/// the stop flag and wakes every listener; errors are reported without
/// touching other connections.
fn finish_connection(outcome: io::Result<bool>, stop: &AtomicBool, wake: &[WakeTarget]) {
    match outcome {
        Ok(true) => {}
        Ok(false) => {
            stop.store(true, Ordering::Release);
            wake_all(wake);
        }
        Err(err) => eprintln!("kcenter-serve: connection error: {err}"),
    }
}

/// Binds every endpoint and serves the registry until a client sends
/// `["shutdown"]` on any of them. Every resident session is flushed to
/// the store (when one is configured) before the listeners wind down.
///
/// Each bound endpoint is announced on stdout as
/// `kcenter-serve: listening on unix:PATH` / `tcp://HOST:PORT` — the
/// TCP line is how callers learn an ephemeral (`:0`) port. Stale unix
/// socket files are removed before binding and again on clean shutdown.
pub fn run_server_on<M: Metric<Point> + Clone + Send + Sync + 'static>(
    endpoints: &[ServeEndpoint],
    registry: SessionRegistry<M>,
) -> io::Result<()> {
    if endpoints.is_empty() {
        return Err(io::Error::other("serve requires at least one endpoint"));
    }
    let mut bound = Vec::with_capacity(endpoints.len());
    let mut wake = Vec::with_capacity(endpoints.len());
    for endpoint in endpoints {
        match endpoint {
            ServeEndpoint::Unix(path) => {
                let _ = std::fs::remove_file(path);
                let listener = UnixListener::bind(path)?;
                println!("kcenter-serve: listening on unix:{}", path.display());
                wake.push(WakeTarget::Unix(path.clone()));
                bound.push(BoundListener::Unix(listener, path.clone()));
            }
            ServeEndpoint::Tcp(addr) => {
                let addr = addr.strip_prefix("tcp://").unwrap_or(addr);
                let listener = TcpListener::bind(addr)?;
                let local = listener.local_addr()?;
                println!("kcenter-serve: listening on tcp://{local}");
                wake.push(WakeTarget::Tcp(local));
                bound.push(BoundListener::Tcp(listener));
            }
        }
    }
    let _ = std::io::stdout().flush();
    let registry = Arc::new(registry);
    let stop = Arc::new(AtomicBool::new(false));
    let wake = Arc::new(wake);
    let sockets: Vec<PathBuf> = bound
        .iter()
        .filter_map(|b| match b {
            BoundListener::Unix(_, path) => Some(path.clone()),
            BoundListener::Tcp(_) => None,
        })
        .collect();
    let acceptors: Vec<_> = bound
        .into_iter()
        .map(|listener| {
            let registry = Arc::clone(&registry);
            let stop = Arc::clone(&stop);
            let wake = Arc::clone(&wake);
            std::thread::spawn(move || match listener {
                BoundListener::Unix(listener, _) => accept_loop(
                    || listener.accept().map(|(conn, _)| conn),
                    |conn| conn.shutdown(Shutdown::Read),
                    registry,
                    stop,
                    wake,
                ),
                BoundListener::Tcp(listener) => accept_loop(
                    || {
                        let (conn, _) = listener.accept()?;
                        let _ = conn.set_nodelay(true);
                        Ok(conn)
                    },
                    |conn| conn.shutdown(Shutdown::Read),
                    registry,
                    stop,
                    wake,
                ),
            })
        })
        .collect();
    for acceptor in acceptors {
        let _ = acceptor.join();
    }
    for socket in sockets {
        let _ = std::fs::remove_file(socket);
    }
    Ok(())
}

/// A thin client for the serve protocol — what the CLI subcommand and the
/// soak test drive. Transport-agnostic: [`ServeClient::connect`] speaks
/// over a unix socket, [`ServeClient::connect_tcp`] over TCP, and every
/// request behaves identically on both.
pub struct ServeClient {
    reader: BufReader<Box<dyn Read + Send>>,
    writer: Box<dyn Write + Send>,
}

impl ServeClient {
    /// Connects to a serve unix socket.
    pub fn connect(socket: &Path) -> io::Result<Self> {
        let stream = UnixStream::connect(socket)?;
        Ok(ServeClient {
            reader: BufReader::new(Box::new(stream.try_clone()?)),
            writer: Box::new(stream),
        })
    }

    /// Connects to a serve TCP listener at `host:port` (a leading
    /// `tcp://` is accepted and stripped).
    pub fn connect_tcp(addr: &str) -> io::Result<Self> {
        let addr = addr.strip_prefix("tcp://").unwrap_or(addr);
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(ServeClient {
            reader: BufReader::new(Box::new(stream.try_clone()?)),
            writer: Box::new(stream),
        })
    }

    /// Performs the `hello` handshake, optionally announcing the `τ`
    /// this client expects; a mismatch is an error reply.
    pub fn hello(&mut self, tau: Option<u64>) -> io::Result<Vec<String>> {
        let mut parts = vec!["hello".to_string()];
        if let Some(tau) = tau {
            parts.push(format!("tau={tau}"));
        }
        self.request(&parts)
    }

    /// Sends one request frame and returns the reply parts.
    ///
    /// An `["err", …]` reply becomes an `io::Error` of kind `Other`, so
    /// callers can't mistake a protocol-level failure for data.
    pub fn request(&mut self, parts: &[String]) -> io::Result<Vec<String>> {
        write_frame(&mut self.writer, parts)?;
        let reply = read_frame(&mut self.reader)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server hung up"))?;
        if reply.first().map(String::as_str) == Some("err") {
            return Err(io::Error::other(reply.get(1).cloned().unwrap_or_default()));
        }
        Ok(reply)
    }

    /// Ingests a batch of points.
    pub fn ingest(
        &mut self,
        tenant: &str,
        stream: &str,
        points: &[Point],
    ) -> io::Result<Vec<String>> {
        let mut parts = vec!["ingest".to_string(), tenant.to_string(), stream.to_string()];
        parts.extend(points.iter().map(format_point));
        self.request(&parts)
    }

    /// Queries a session; returns the reply parts
    /// (`radius=…`/`uncovered=…`/… then the centers).
    pub fn query(
        &mut self,
        tenant: &str,
        stream: &str,
        k: usize,
        z: u64,
        eps: f64,
    ) -> io::Result<Vec<String>> {
        self.request(&[
            "query".to_string(),
            tenant.to_string(),
            stream.to_string(),
            k.to_string(),
            z.to_string(),
            eps.to_string(),
        ])
    }

    /// Evicts a session; returns whether it was resident.
    pub fn evict(&mut self, tenant: &str, stream: &str) -> io::Result<bool> {
        let reply = self.request(&["evict".to_string(), tenant.to_string(), stream.to_string()])?;
        Ok(reply.iter().any(|p| p == "evicted=true"))
    }

    /// Scrapes the server's metrics registry. `format` is `None` (or
    /// `Some("prometheus")`) for Prometheus text exposition,
    /// `Some("json")` for the `kcenter-metrics/v1` JSON rendering; the
    /// returned string is the exposition body.
    pub fn metrics(&mut self, format: Option<&str>) -> io::Result<String> {
        let mut parts = vec!["metrics".to_string()];
        if let Some(format) = format {
            parts.push(format.to_string());
        }
        let reply = self.request(&parts)?;
        reply
            .get(1)
            .cloned()
            .ok_or_else(|| io::Error::other("metrics reply missing body"))
    }

    /// Asks the server to flush and stop.
    pub fn shutdown(&mut self) -> io::Result<()> {
        self.request(&["shutdown".to_string()]).map(|_| ())
    }
}

/// Pulls `key=value` out of a reply's parts — shared by the CLI's output
/// formatting and the tests' assertions.
pub fn reply_field<'a>(parts: &'a [String], key: &str) -> Option<&'a str> {
    let prefix = format!("{key}=");
    parts.iter().find_map(|p| p.strip_prefix(&prefix))
}
