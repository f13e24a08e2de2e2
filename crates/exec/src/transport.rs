//! The transport seam of the executor: how a coordinator reaches its
//! workers.
//!
//! Everything above this module speaks in **frames** (see
//! [`crate::protocol`] and `docs/PROTOCOL.md`); everything below it is a
//! byte stream with a lifecycle. A [`Transport`] hands the fleet
//! [`WorkerLink`]s — a framed send half, a framed receive half, and a
//! liveness/teardown control — and the fleet neither knows nor cares
//! whether the bytes cross a pipe to a child process or a TCP connection
//! to a worker on another host.
//!
//! Two backends ship:
//!
//! * [`PipeTransport`] — the default. Spawns one child process per link
//!   (`worker --serve`) and frames over its stdin/stdout, exactly the
//!   pre-transport behaviour: same argv, same environment hygiene
//!   (`KCENTER_EXEC_FAULT` and `KCENTER_TRACE` stripped), same reaping
//!   semantics (kill, wait, join the stderr drain).
//! * [`TcpDialTransport`] — connects out to workers started
//!   independently with `kcenter worker --listen ADDR`. Each worker
//!   address is a **slot**: one live link per address, re-dialled (with
//!   bounded backoff) when its link is lost, which is what folds
//!   *reconnect* into the fleet's existing respawn/replay containment.
//!   Per-frame read/write deadlines are armed on the socket so a dead
//!   peer can stall a frame only for a bounded time.
//!
//! A remote link carries no artifact bytes: jobs reference shards and
//! coresets by path, so cross-host runs point workers at shared storage
//! (the coordinator's `@store/NAME` references resolve against the
//! worker's `--store` root; see `docs/PROTOCOL.md` §Paths).

use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::protocol::{read_frame, write_frame};

/// How to invoke a worker process: a program plus fixed leading arguments
/// (the fleet appends `--serve`) and extra environment variables (set on
/// top of the inherited environment, after the coordinator's strip of
/// `KCENTER_EXEC_FAULT` and `KCENTER_TRACE`).
#[derive(Clone, Debug)]
pub struct WorkerCommand {
    /// Program to execute.
    pub program: PathBuf,
    /// Leading arguments (e.g. a hidden `worker` subcommand).
    pub args: Vec<String>,
    /// Extra environment for the workers (e.g. `RAYON_NUM_THREADS`, or
    /// the fault-injection hook in tests).
    pub env: Vec<(String, String)>,
}

impl WorkerCommand {
    /// A worker command from an explicit program and leading arguments.
    pub fn new(program: impl Into<PathBuf>, args: &[&str]) -> WorkerCommand {
        WorkerCommand {
            program: program.into(),
            args: args.iter().map(|s| s.to_string()).collect(),
            env: Vec::new(),
        }
    }

    /// Re-invokes the **current executable** with the given leading
    /// arguments — the standard deployment shape: one binary, a hidden
    /// worker mode.
    pub fn current_exe(args: &[&str]) -> std::io::Result<WorkerCommand> {
        Ok(WorkerCommand::new(std::env::current_exe()?, args))
    }

    /// Adds an environment variable for every spawned worker.
    pub fn env(mut self, key: impl Into<String>, value: impl Into<String>) -> WorkerCommand {
        self.env.push((key.into(), value.into()));
        self
    }
}

/// The sending half of a worker link: whole frames out.
pub trait FrameTx: Send {
    /// Writes one frame. A failed write means the link is dead or dying;
    /// the fleet leaves the job assigned and lets the receive half's EOF
    /// drive the replay.
    fn send(&mut self, parts: &[String]) -> io::Result<()>;

    /// Closes the sending direction (drops the pipe / shuts down the
    /// socket's write half) so the peer observes a clean EOF. Receiving
    /// may continue.
    fn close(&mut self);
}

/// The receiving half of a worker link: whole frames in, `Ok(None)` on a
/// clean EOF. Runs on the fleet's per-link reader thread.
pub trait FrameRx: Send {
    /// Reads the next frame; `Ok(None)` is a clean hang-up, `Err` is a
    /// torn frame or an expired read deadline — the fleet treats both
    /// terminal outcomes identically (reap + replay).
    fn recv(&mut self) -> io::Result<Option<Vec<String>>>;
}

/// Lifecycle control for one link: liveness probing and teardown.
pub trait LinkControl: Send {
    /// Forcibly tears the link down (kills the child / shuts the socket).
    /// Idempotent.
    fn kill(&mut self);

    /// Tears down and collects the post-mortem: the exit code when the
    /// other side was a child process that exited normally (`None` for a
    /// signal death or a remote peer), plus captured diagnostics (the
    /// child's stderr, or a description of the lost connection).
    fn reap(&mut self) -> (Option<i32>, String);

    /// Whether the other side is already gone — the fleet's shutdown
    /// grace loop polls this. Remote links report `true` (there is no
    /// process to wait for once the frames stop).
    fn exited(&mut self) -> bool;

    /// Human-readable endpoint identity (`pid N` / `tcp://host:port`)
    /// used to attribute handshake rejections and failures.
    fn describe(&self) -> String;
}

/// One established worker link: framed send/recv plus lifecycle control.
pub struct WorkerLink {
    /// Frame writer (requests out).
    pub tx: Box<dyn FrameTx>,
    /// Frame reader (replies in); consumed by the fleet's reader thread.
    pub rx: Box<dyn FrameRx>,
    /// Liveness and teardown.
    pub control: Box<dyn LinkControl>,
}

/// A source of worker links. The fleet calls [`Transport::connect`]
/// whenever it wants one more live worker (initial ramp-up *and* the
/// respawn path after a mid-job death), so a backend that re-establishes
/// lost connections implements reconnection by construction.
pub trait Transport: Send {
    /// Establishes one new worker link.
    fn connect(&mut self) -> io::Result<WorkerLink>;

    /// Connections re-established after a loss (0 for process pipes,
    /// which respawn rather than reconnect). Monotonic over the
    /// transport's lifetime; the coordinator diffs it per run.
    fn reconnects(&self) -> usize {
        0
    }

    /// Whether links cross a host boundary — when `true` the coordinator
    /// sends store-relative `@store/NAME` artifact references instead of
    /// absolute local paths wherever it can.
    fn is_remote(&self) -> bool {
        false
    }
}

/// Which transport backend an execution should use — the serializable
/// description [`crate::ExecConfig`] carries; resolved to a live
/// [`Transport`] by `WorkerFleet::from_config`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum TransportSpec {
    /// Child processes over stdin/stdout pipes (the default).
    #[default]
    Pipe,
    /// Dial out to independently started `worker --listen` processes.
    TcpConnect {
        /// Worker addresses (`host:port`), one fleet slot each.
        addrs: Vec<String>,
    },
}

// ---------------------------------------------------------------------------
// Pipe backend
// ---------------------------------------------------------------------------

/// The default backend: one child process per link, frames over its
/// stdin/stdout. Behaviour-preserving with the pre-transport fleet.
pub struct PipeTransport {
    command: WorkerCommand,
}

impl PipeTransport {
    /// A pipe transport spawning workers with `command`.
    pub fn new(command: WorkerCommand) -> PipeTransport {
        PipeTransport { command }
    }
}

struct PipeTx {
    stdin: Option<ChildStdin>,
}

impl FrameTx for PipeTx {
    fn send(&mut self, parts: &[String]) -> io::Result<()> {
        match self.stdin.as_mut() {
            Some(stdin) => write_frame(stdin, parts),
            None => Err(io::Error::new(io::ErrorKind::BrokenPipe, "stdin closed")),
        }
    }

    fn close(&mut self) {
        drop(self.stdin.take());
    }
}

struct PipeRx {
    reader: BufReader<std::process::ChildStdout>,
}

impl FrameRx for PipeRx {
    fn recv(&mut self) -> io::Result<Option<Vec<String>>> {
        read_frame(&mut self.reader)
    }
}

struct PipeControl {
    child: Child,
    /// Drains stderr concurrently (a chatty worker must never block on a
    /// full pipe); joined at reap time for the failure report.
    stderr: Option<std::thread::JoinHandle<Vec<u8>>>,
}

impl LinkControl for PipeControl {
    fn kill(&mut self) {
        let _ = self.child.kill();
    }

    fn reap(&mut self) -> (Option<i32>, String) {
        let _ = self.child.kill();
        let code = self.child.wait().ok().and_then(|status| status.code());
        let stderr = self
            .stderr
            .take()
            .and_then(|h| h.join().ok())
            .unwrap_or_default();
        (code, String::from_utf8_lossy(&stderr).into_owned())
    }

    fn exited(&mut self) -> bool {
        matches!(self.child.try_wait(), Ok(Some(_)))
    }

    fn describe(&self) -> String {
        format!("worker process pid {}", self.child.id())
    }
}

impl Transport for PipeTransport {
    fn connect(&mut self) -> io::Result<WorkerLink> {
        let mut command = Command::new(&self.command.program);
        command
            .args(&self.command.args)
            .arg("--serve")
            // These hooks must be *asked for*, never ambient: a stray
            // KCENTER_EXEC_FAULT from a debugging session must not make
            // every worker crash, and the coordinator's KCENTER_TRACE
            // must not have every pipe worker clobbering the same trace
            // file (workers report telemetry back on the wire instead).
            // Opt-ins go through `WorkerCommand::env`, which is applied
            // after the strip.
            .env_remove(crate::worker::FAULT_ENV)
            .env_remove(kcenter_obs::TRACE_ENV)
            .envs(self.command.env.iter().map(|(k, v)| (k, v)))
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        let mut child = command.spawn()?;
        let stdin = child.stdin.take().expect("stdin was piped");
        let stdout = child.stdout.take().expect("stdout was piped");
        let stderr = child.stderr.take().expect("stderr was piped");
        let stderr_handle = std::thread::spawn(move || {
            let mut stream = stderr;
            let mut bytes = Vec::new();
            let _ = stream.read_to_end(&mut bytes);
            bytes
        });
        Ok(WorkerLink {
            tx: Box::new(PipeTx { stdin: Some(stdin) }),
            rx: Box::new(PipeRx {
                reader: BufReader::new(stdout),
            }),
            control: Box::new(PipeControl {
                child,
                stderr: Some(stderr_handle),
            }),
        })
    }
}

// ---------------------------------------------------------------------------
// TCP backend
// ---------------------------------------------------------------------------

struct TcpTx {
    writer: BufWriter<TcpStream>,
}

impl FrameTx for TcpTx {
    fn send(&mut self, parts: &[String]) -> io::Result<()> {
        write_frame(&mut self.writer, parts)?;
        self.writer.flush()
    }

    fn close(&mut self) {
        let _ = self.writer.flush();
        let _ = self.writer.get_ref().shutdown(Shutdown::Write);
    }
}

struct TcpRx {
    reader: BufReader<TcpStream>,
}

impl FrameRx for TcpRx {
    fn recv(&mut self) -> io::Result<Option<Vec<String>>> {
        read_frame(&mut self.reader)
    }
}

struct TcpControl {
    stream: TcpStream,
    peer: String,
    /// The dial slot this link occupies; cleared on drop so the address
    /// becomes re-diallable (the reconnect path).
    slot: Arc<AtomicBool>,
}

impl LinkControl for TcpControl {
    fn kill(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
    }

    fn reap(&mut self) -> (Option<i32>, String) {
        self.kill();
        (None, format!("lost connection to worker at {}", self.peer))
    }

    fn exited(&mut self) -> bool {
        // The remote process is not ours to wait for; once the frames
        // stop the link is gone.
        true
    }

    fn describe(&self) -> String {
        format!("worker at tcp://{}", self.peer)
    }
}

impl Drop for TcpControl {
    fn drop(&mut self) {
        self.slot.store(false, Ordering::Release);
    }
}

/// One worker address a [`TcpDialTransport`] manages.
struct DialSlot {
    addr: String,
    /// Whether a live link currently occupies this address.
    in_use: Arc<AtomicBool>,
    /// Successful connections to this address so far; the ones beyond
    /// the first are reconnects.
    connects: usize,
}

/// Dial-out backend: the coordinator connects to workers started with
/// `kcenter worker --listen ADDR`. One link per address; a lost link
/// frees its address and the next [`Transport::connect`] re-dials it
/// with bounded backoff.
pub struct TcpDialTransport {
    slots: Vec<DialSlot>,
    attempts: u32,
    initial_backoff: Duration,
    read_timeout: Option<Duration>,
    write_timeout: Option<Duration>,
    reconnects: usize,
}

impl TcpDialTransport {
    /// A dial transport over `addrs` (`host:port` each) with default
    /// deadlines: 30 s per frame write, no read deadline until
    /// [`TcpDialTransport::with_deadlines`] arms one.
    pub fn new(addrs: Vec<String>) -> TcpDialTransport {
        TcpDialTransport {
            slots: addrs
                .into_iter()
                .map(|addr| DialSlot {
                    addr,
                    in_use: Arc::new(AtomicBool::new(false)),
                    connects: 0,
                })
                .collect(),
            attempts: 5,
            initial_backoff: Duration::from_millis(50),
            read_timeout: None,
            write_timeout: Some(Duration::from_secs(30)),
            reconnects: 0,
        }
    }

    /// Sets the per-frame read/write deadlines armed on every connection.
    pub fn with_deadlines(
        mut self,
        read: Option<Duration>,
        write: Option<Duration>,
    ) -> TcpDialTransport {
        self.read_timeout = read;
        self.write_timeout = write;
        self
    }

    /// Dials `addr` with bounded exponential backoff.
    fn dial(addr: &str, attempts: u32, initial: Duration) -> io::Result<TcpStream> {
        let mut delay = initial;
        let mut last = None;
        for attempt in 0..attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(delay);
                delay = delay.saturating_mul(2);
            }
            match TcpStream::connect(addr) {
                Ok(stream) => return Ok(stream),
                Err(err) => last = Some(err),
            }
        }
        Err(last.unwrap_or_else(|| io::Error::other(format!("cannot connect to {addr}"))))
    }
}

impl Transport for TcpDialTransport {
    fn connect(&mut self) -> io::Result<WorkerLink> {
        let slot = self
            .slots
            .iter_mut()
            .find(|slot| !slot.in_use.load(Ordering::Acquire))
            .ok_or_else(|| {
                io::Error::other("every worker address already has a live connection")
            })?;
        let stream = Self::dial(&slot.addr, self.attempts, self.initial_backoff)?;
        // One small frame per request/reply round: Nagle only adds latency.
        stream.set_nodelay(true)?;
        // The per-frame deadlines. An expired read deadline surfaces on the
        // reader thread as an error → an EOF event → reap + replay, exactly
        // the containment path a died pipe worker takes.
        stream.set_read_timeout(self.read_timeout)?;
        stream.set_write_timeout(self.write_timeout)?;
        if slot.connects > 0 {
            self.reconnects += 1;
        }
        slot.connects += 1;
        slot.in_use.store(true, Ordering::Release);
        let peer = slot.addr.clone();
        let guard = Arc::clone(&slot.in_use);
        Ok(WorkerLink {
            tx: Box::new(TcpTx {
                writer: BufWriter::new(stream.try_clone()?),
            }),
            rx: Box::new(TcpRx {
                reader: BufReader::new(stream.try_clone()?),
            }),
            control: Box::new(TcpControl {
                stream,
                peer,
                slot: guard,
            }),
        })
    }

    fn reconnects(&self) -> usize {
        self.reconnects
    }

    fn is_remote(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::time::Instant;

    #[test]
    fn dial_slots_free_on_control_drop_and_count_reconnects() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let accepter = std::thread::spawn(move || {
            let mut held = Vec::new();
            for _ in 0..2 {
                held.push(listener.accept().unwrap());
            }
            held
        });
        let mut transport = TcpDialTransport::new(vec![addr]);
        let link = transport.connect().unwrap();
        assert_eq!(transport.reconnects(), 0);
        // The single slot is occupied: a second connect must refuse.
        assert!(transport.connect().is_err());
        drop(link);
        // Freed: the re-dial succeeds and counts as a reconnect.
        let _link2 = transport.connect().unwrap();
        assert_eq!(transport.reconnects(), 1);
        drop(_link2);
        let _ = accepter.join();
    }

    #[test]
    fn dial_backoff_is_bounded() {
        // Nothing listens on this port (bound then immediately dropped).
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let mut transport = TcpDialTransport::new(vec![addr]);
        transport.attempts = 2;
        transport.initial_backoff = Duration::from_millis(1);
        let started = Instant::now();
        assert!(transport.connect().is_err());
        assert!(started.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn tcp_frames_round_trip_between_dial_and_accept() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let peer = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = BufWriter::new(stream);
            let request = read_frame(&mut reader).unwrap().unwrap();
            write_frame(&mut writer, &["ok".to_string(), "pong".to_string()]).unwrap();
            writer.flush().unwrap();
            // The dialler closed its write half: a clean EOF, not an error.
            let after_close = read_frame(&mut reader).unwrap();
            (request, after_close)
        });
        let mut transport = TcpDialTransport::new(vec![addr]);
        let mut link = transport.connect().unwrap();
        link.tx.send(&["ping".to_string()]).unwrap();
        let reply = link.rx.recv().unwrap().unwrap();
        assert_eq!(reply, vec!["ok".to_string(), "pong".to_string()]);
        link.tx.close();
        let (request, after_close) = peer.join().unwrap();
        assert_eq!(request, vec!["ping".to_string()]);
        assert_eq!(after_close, None);
    }
}
