#![deny(missing_docs)]
//! Clustering-as-a-service over the paper's streaming coreset (§4).
//!
//! The ROADMAP's north star is a server handling heavy traffic from many
//! users; this crate is that always-on layer. A [`SessionRegistry`] keeps
//! one resumable `WeightedDoublingCoreset` per `(tenant, stream)`:
//!
//! * **Ingest** — each batch's points enter the session's coreset one at
//!   a time, in batch order, on the thread serving the request (the
//!   paper's one-point update); per-batch metering counts only time
//!   inside `process`, like `run_stream`.
//! * **Query** — centers/radius/uncovered-weight on demand via the cached
//!   finalization path (`solve_coreset` → `CachedOracle` →
//!   `solve_coreset_cached`) over a snapshot of the live coreset, with a
//!   per-session answer memo keyed by (stream position, k, z, ε).
//! * **Snapshot / evict / restore** — session state persists to the
//!   artifact store as `ArtifactKind::Session`, content-addressed by
//!   `(tenant, stream, τ)`. Idle sessions are evicted under a configurable
//!   memory budget and restored transparently on the next touch; the
//!   restore is gated by `WeightedDoublingCoreset::from_snapshot`, so an
//!   interrupted stream continues **bitwise-identically** to an
//!   uninterrupted one.
//!
//! [`server`] wraps the registry in a socket server — unix by default,
//! TCP via [`server::ServeEndpoint::Tcp`], or both at once — speaking the
//! same length-delimited framed protocol as `crates/exec`'s persistent
//! workers. The normative wire contract (frame layout, verbs, the
//! `hello` handshake, error replies, float formatting) is documented in
//! `docs/PROTOCOL.md` at the repository root.

pub mod registry;
pub mod server;

pub use registry::{
    IngestReport, QueryAnswer, RegistryConfig, RegistryStats, SessionRegistry, SessionStat,
};
pub use server::{run_server_on, ServeClient, ServeEndpoint};

/// Why a serve-layer operation failed. Every variant maps to a clean
/// protocol-level `err` reply; none of them can corrupt session state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The session is unknown to the registry and the store.
    UnknownSession,
    /// The session exists but has processed no points yet.
    EmptySession,
    /// A batch point's dimension disagrees with the session's.
    DimensionMismatch {
        /// The session's pinned dimension.
        expected: usize,
        /// The offending point's dimension.
        got: usize,
    },
    /// A persisted session was built under a different `τ`.
    TauMismatch {
        /// The registry's `τ`.
        expected: u64,
        /// The stored session's `τ`.
        found: u64,
    },
    /// The operation needs a store (eviction/persistence) but none is
    /// configured.
    NoStore,
    /// Persisted state failed the restore gate
    /// (`WeightedDoublingCoreset::from_snapshot`).
    RestoreFailed(String),
    /// An I/O error from the store.
    Io(String),
    /// A malformed request (bad parameters).
    BadRequest(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownSession => write!(f, "unknown session"),
            ServeError::EmptySession => write!(f, "session has no points"),
            ServeError::DimensionMismatch { expected, got } => {
                write!(
                    f,
                    "dimension mismatch: session is {expected}-d, point is {got}-d"
                )
            }
            ServeError::TauMismatch { expected, found } => {
                write!(
                    f,
                    "stored session has tau = {found}, registry wants {expected}"
                )
            }
            ServeError::NoStore => write!(f, "operation requires a session store"),
            ServeError::RestoreFailed(why) => write!(f, "session restore rejected: {why}"),
            ServeError::Io(why) => write!(f, "store i/o error: {why}"),
            ServeError::BadRequest(why) => write!(f, "bad request: {why}"),
        }
    }
}

impl std::error::Error for ServeError {}
