//! Failure modes of the multi-process executor.
//!
//! A distributed round has failure modes the in-process engine cannot
//! exhibit — a worker crashes, hangs, or writes a truncated artifact — and
//! every one of them must surface as a clean, attributed error at the
//! coordinator, never a hang or a panic. The crashed-worker test suite
//! injects each mode and pins this contract.

use std::fmt;
use std::path::PathBuf;
use std::time::Duration;

use kcenter_core::InputError;

/// Why a multi-process execution failed.
#[derive(Debug)]
pub enum ExecError {
    /// The clustering configuration was invalid (same validation as the
    /// in-process engines).
    Input(InputError),
    /// Filesystem work (work directory, shard files) failed.
    Io(std::io::Error),
    /// A worker process could not be spawned.
    Spawn {
        /// Partition whose worker failed to start.
        partition: usize,
        /// The underlying spawn error.
        source: std::io::Error,
    },
    /// A worker exited unsuccessfully.
    WorkerFailed {
        /// Partition the worker was processing.
        partition: usize,
        /// Exit code, if the process exited normally (`None` = killed by
        /// a signal, or a remote worker whose connection was lost).
        code: Option<i32>,
        /// The worker's captured stderr (its error report), or a
        /// description of the lost connection for remote workers.
        stderr: String,
    },
    /// A live worker answered its job with an `err` reply: a
    /// deterministic worker-side failure (bad input, unwritable output, a
    /// shard reference it cannot resolve). Never retried.
    JobFailed {
        /// Partition of the failed job.
        partition: usize,
        /// The worker's own reason.
        reason: String,
    },
    /// A worker rejected (or failed) the protocol `hello` handshake —
    /// a version or configuration-fingerprint mismatch. Deterministic:
    /// never retried.
    HelloRejected {
        /// The offending worker's endpoint (`pid N` / `tcp://host:port`).
        worker: String,
        /// Why the handshake failed.
        reason: String,
    },
    /// A worker did not finish within the configured timeout and was
    /// killed.
    WorkerTimeout {
        /// Partition of (one of) the timed-out worker(s).
        partition: usize,
        /// The timeout that elapsed.
        timeout: Duration,
    },
    /// A worker exited successfully but its result artifact is missing,
    /// truncated, or corrupt.
    BadArtifact {
        /// Partition whose artifact failed validation.
        partition: usize,
        /// Path of the offending artifact.
        path: PathBuf,
        /// What the codec rejected.
        reason: String,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Input(err) => write!(f, "{err}"),
            ExecError::Io(err) => write!(f, "executor i/o failure: {err}"),
            ExecError::Spawn { partition, source } => {
                write!(f, "cannot spawn worker for partition {partition}: {source}")
            }
            ExecError::WorkerFailed {
                partition,
                code,
                stderr,
            } => {
                write!(f, "worker for partition {partition} ")?;
                match code {
                    Some(code) => write!(f, "exited with code {code}")?,
                    None => write!(f, "died (killed by a signal or lost its connection)")?,
                }
                let stderr = stderr.trim();
                if !stderr.is_empty() {
                    write!(f, ": {stderr}")?;
                }
                Ok(())
            }
            ExecError::JobFailed { partition, reason } => {
                write!(
                    f,
                    "worker for partition {partition} failed its job: {reason}"
                )
            }
            ExecError::HelloRejected { worker, reason } => {
                write!(f, "{worker} rejected the protocol handshake: {reason}")
            }
            ExecError::WorkerTimeout { partition, timeout } => write!(
                f,
                "worker for partition {partition} exceeded the {:.1}s timeout and was killed",
                timeout.as_secs_f64()
            ),
            ExecError::BadArtifact {
                partition,
                path,
                reason,
            } => write!(
                f,
                "worker for partition {partition} produced an invalid artifact {}: {reason}",
                path.display()
            ),
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::Input(err) => Some(err),
            ExecError::Io(err) | ExecError::Spawn { source: err, .. } => Some(err),
            _ => None,
        }
    }
}

impl From<InputError> for ExecError {
    fn from(err: InputError) -> Self {
        ExecError::Input(err)
    }
}

impl From<std::io::Error> for ExecError {
    fn from(err: std::io::Error) -> Self {
        ExecError::Io(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_every_variant() {
        let cases: Vec<(ExecError, &str)> = vec![
            (ExecError::Input(InputError::EmptyInput), "empty"),
            (
                ExecError::Io(std::io::Error::other("disk full")),
                "disk full",
            ),
            (
                ExecError::Spawn {
                    partition: 2,
                    source: std::io::Error::new(std::io::ErrorKind::NotFound, "no binary"),
                },
                "partition 2",
            ),
            (
                ExecError::WorkerFailed {
                    partition: 1,
                    code: Some(101),
                    stderr: "boom".into(),
                },
                "code 101: boom",
            ),
            (
                ExecError::WorkerFailed {
                    partition: 1,
                    code: None,
                    stderr: String::new(),
                },
                "killed by a signal or lost its connection",
            ),
            (
                ExecError::JobFailed {
                    partition: 4,
                    reason: "no --store root".into(),
                },
                "worker for partition 4 failed its job: no --store root",
            ),
            (
                ExecError::HelloRejected {
                    worker: "worker at tcp://10.0.0.7:4700".into(),
                    reason: "config fingerprint mismatch".into(),
                },
                "tcp://10.0.0.7:4700",
            ),
            (
                ExecError::WorkerTimeout {
                    partition: 0,
                    timeout: Duration::from_secs(2),
                },
                "timeout",
            ),
            (
                ExecError::BadArtifact {
                    partition: 3,
                    path: PathBuf::from("/tmp/x.kca"),
                    reason: "truncated artifact".into(),
                },
                "truncated",
            ),
        ];
        for (err, needle) in cases {
            let text = err.to_string();
            assert!(text.contains(needle), "{text:?} missing {needle:?}");
        }
    }
}
