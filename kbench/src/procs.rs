//! Processes and directories a run owns: each is stopped or removed when
//! its owner drops, so a failing run leaves nothing behind.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a process may take to exit after it was asked to stop.
const STOP_LIMIT: Duration = Duration::from_secs(10);

/// A child process that is killed and reaped if dropped while running.
pub struct Owned {
    child: Child,
    stdout: BufReader<ChildStdout>,
}

impl Owned {
    /// Starts `cmd` with a piped stdout and an inherited stderr.
    pub fn spawn(mut cmd: Command) -> Result<Owned, String> {
        let mut child = cmd
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {cmd:?}: {e}"))?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(Owned { child, stdout })
    }

    /// Reads stdout lines until one starts with `prefix`; returns the rest
    /// of that line (how servers announce an address they bound).
    pub fn announced(&mut self, prefix: &str) -> Result<String, String> {
        let mut line = String::new();
        loop {
            line.clear();
            match self.stdout.read_line(&mut line) {
                Ok(0) => return Err(format!("process ended before announcing {prefix:?}")),
                Ok(_) => {
                    if let Some(rest) = line.trim_end().strip_prefix(prefix) {
                        return Ok(rest.to_string());
                    }
                }
                Err(e) => return Err(format!("reading announcement: {e}")),
            }
        }
    }

    /// The process's peak resident set so far, in MB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Waits up to [`STOP_LIMIT`] for the process to exit after it was
    /// asked to stop, killing it past that. Returns whether it exited by
    /// itself with status 0.
    pub fn await_exit(mut self) -> bool {
        let start = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => return status.success(),
                Ok(None) if start.elapsed() < STOP_LIMIT => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                _ => return false, // dropped: killed and reaped
            }
        }
    }
}

impl Drop for Owned {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// `VmHWM` from a `/proc/<pid>/status` file, in MB.
pub fn peak_rss_mb(status_path: &str) -> Option<f64> {
    let status = std::fs::read_to_string(status_path).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// A run's scratch directory inside the working directory, removed on drop.
pub struct RunDir(PathBuf);

impl RunDir {
    /// Creates `.kbench/run-<pid>` under the working directory.
    pub fn create() -> Result<RunDir, String> {
        let dir = std::env::current_dir()
            .map_err(|e| format!("no working directory: {e}"))?
            .join(".kbench")
            .join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
        Ok(RunDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }

    /// The same directory relative to the working directory: unix socket
    /// paths must stay short, whatever the checkout's location.
    pub fn relative(&self) -> PathBuf {
        Path::new(".kbench").join(self.0.file_name().expect("run-<pid>"))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Also `.kbench` itself, unless it holds span files or other runs.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}
