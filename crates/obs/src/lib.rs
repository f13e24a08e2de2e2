//! Unified observability for the kcenter workspace.
//!
//! Every subsystem — the distance-matrix cache, the multi-process
//! executor, the streaming session server, the CLI, and the bench
//! runner — reports through this one crate instead of hand-rolled
//! statics and ad-hoc stderr lines. Two pieces:
//!
//! * **A process-wide [`MetricsRegistry`]** of named counters, gauges,
//!   and (microsecond) histograms. Handles are cheap `Arc<AtomicU64>`
//!   clones — the registry lock is touched only on first registration —
//!   so hot loops pay one relaxed atomic op per increment. Names are
//!   stable dotted paths (`metric.matrix.builds`, `exec.round1.micros`,
//!   `serve.evictions`); [`render_prometheus`] and [`render_json`]
//!   expose the whole registry in one call.
//! * **A structured trace sink**: off by default, enabled by
//!   pointing [`TRACE_ENV`] (`KCENTER_TRACE`) or the CLI's `--trace` at
//!   a file. [`Span`] guards time a region on the monotonic clock,
//!   always feed the `{name}.micros` histogram, and — only when the
//!   sink is live — append one schema-stable JSONL record per span.
//!   With the sink off, tracing is a few atomic ops and **zero output**,
//!   which is what keeps the golden determinism suites byte-stable.
//!
//! The crate is intentionally dependency-free (std only) and sits below
//! every other workspace crate.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod json;
mod registry;
mod trace;

pub use registry::{
    counter, counter_values, gauge, histogram, registry, render_json, render_prometheus, Counter,
    Gauge, Histogram, MetricSnapshot, MetricValue, MetricsRegistry,
};
pub use trace::{
    event, init_trace, record_span, span, trace_enabled, Span, SpanRecord, TRACE_ENV, TRACE_SCHEMA,
};
