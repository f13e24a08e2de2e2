#![warn(missing_docs)]
//! Streaming substrate: single-pass algorithm harness with throughput and
//! working-memory metering.
//!
//! The paper's Streaming model (§2.1) is a single processor with a small
//! working memory consuming the input as a sequence of items; the key
//! performance indicators are working-memory size and, experimentally,
//! throughput in points per second (§5.1–5.2, "ignoring the cost of
//! streaming data from memory"). This crate provides:
//!
//! * [`StreamingAlgorithm`] — the one-pass algorithm interface: `process`
//!   one item at a time, report `memory_items`, `finalize` into a result;
//! * [`run_stream`] — drives an algorithm over any iterator while metering
//!   throughput and peak working memory ([`StreamReport`]).

pub mod algorithm;

pub use algorithm::{run_stream, MultiPass, StreamReport, StreamingAlgorithm};
