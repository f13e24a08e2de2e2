#![deny(missing_docs)]
//! True multi-process MapReduce executor for coreset-based k-center.
//!
//! The `kcenter-mapreduce` engine *simulates* the paper's MapReduce model
//! inside one process: partitions are in-memory slices, "reducers" are
//! closures on a thread pool. This crate provides the real thing — the
//! deployment shape of the composable-coreset line (Indyk et al.) under
//! the MRC execution model (Karloff–Suri–Vassilvitskii):
//!
//! * a **coordinator** ([`coordinator`]) that runs `kcenter-core`'s
//!   MapReduce algorithms as one more backend of their rounds
//!   ([`kcenter_core::mr_backend::MrBackend`]): it shards the dataset
//!   into per-worker files, maintains a persistent
//!   [`coordinator::WorkerFleet`] of framed workers, supervises them
//!   (crash, disconnect, timeout, torn-artifact handling with bounded
//!   replay), reads every partition's coreset artifact back itself, and
//!   runs the algorithm's own round 2 on their union — one `coreset` job
//!   per partition and no other job, and no algorithm code in the
//!   executor;
//! * a **worker** ([`worker`]) that mmap-loads its shard, runs the shared
//!   round-1 kernel with its own rayon pool, and atomically writes a
//!   weighted coreset back through the store codec;
//! * a **transport seam** ([`transport`]) behind which the fleet talks to
//!   workers: the default child-process pipe backend, and a TCP backend
//!   ([`transport::TcpDialTransport`]) that dials out to workers started
//!   independently with `--listen`, which pick their shards up from a
//!   shared [`kcenter_store::ArtifactStore`] via `@store/NAME`
//!   references;
//! * a **wire protocol** ([`protocol`]) whose every value round-trips
//!   bit-exactly, with a versioned `hello` handshake that rejects
//!   mismatched workers, and an on-disk **shard format** ([`shard`])
//!   reusing `kcenter-store`'s versioned, checksummed codec.
//!
//! The normative wire contract — frame layout, verbs, handshake, error
//! replies, float formatting — is documented in `docs/PROTOCOL.md` at the
//! repository root.
//!
//! The headline guarantee: a multi-process run is **bit-identical** to
//! the in-process engines on the same seeded input — same centers (to the
//! coordinate bit), same radius (to the `f64` bit) — because partitioning
//! rules, the round-1 kernel, the codec, and collection order are all
//! shared and deterministic. The guarantee holds **across transports**:
//! the `exec-determinism` CI job pins pipe workers at 1 and 4 processes,
//! and the `tcp-determinism` job pins TCP-to-localhost workers against
//! the same bytes.

pub mod coordinator;
pub mod error;
pub mod protocol;
pub mod shard;
pub mod transport;
pub mod worker;

pub use coordinator::{
    exec_mr_kcenter, exec_mr_kcenter_on, exec_mr_outliers, exec_mr_outliers_on, ExecConfig,
    ExecKCenterResult, ExecOutliersResult, ExecReport, WorkerCommand, WorkerFleet, WorkerStat,
};
pub use error::ExecError;
pub use protocol::MetricKind;
pub use transport::{TcpDialTransport, Transport, TransportSpec};
pub use worker::worker_main;
