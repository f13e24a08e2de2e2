#![warn(missing_docs)]
//! # kcenter — coreset-based k-center clustering, with and without outliers
//!
//! A from-scratch Rust implementation of
//! *Solving k-center Clustering (with Outliers) in MapReduce and Streaming,
//! almost as Accurately as Sequentially* (Ceccarello, Pietracaprina, Pucci —
//! VLDB 2019), including every substrate and baseline its evaluation uses.
//!
//! This crate is a façade re-exporting the workspace:
//!
//! * [`metric`] — points, metrics, MEB, selection, doubling-dimension
//!   estimation ([`kcenter_metric`]);
//! * [`data`] — dataset generators, outlier injection, inflation
//!   ([`kcenter_data`]);
//! * [`mapreduce`] — the MapReduce simulation substrate
//!   ([`kcenter_mapreduce`]);
//! * [`stream`] — the streaming harness ([`kcenter_stream`]);
//! * [`core`] — the paper's algorithms ([`kcenter_core`]);
//! * [`baselines`] — Charikar et al. 2001/2004, McCutchen–Khuller 2008,
//!   Malkomes et al. 2015 ([`kcenter_baselines`]);
//! * [`store`] — the persistent on-disk artifact store for executor
//!   shards, serve sessions, and CLI solutions ([`kcenter_store`]; opt-in
//!   via the CLI's `--cache-dir` or `KCENTER_CACHE_DIR`).
//!
//! ## Quick start
//!
//! ```
//! use kcenter::core::mapreduce_kcenter::{mr_kcenter, MrKCenterConfig};
//! use kcenter::core::CoresetSpec;
//! use kcenter::data::higgs_like;
//! use kcenter::metric::Euclidean;
//!
//! let points = higgs_like(2_000, 42);
//! let result = mr_kcenter(
//!     &points,
//!     &Euclidean,
//!     &MrKCenterConfig {
//!         k: 10,
//!         ell: 4,
//!         coreset: CoresetSpec::Multiplier { mu: 4 },
//!         seed: 1,
//!     },
//! )
//! .unwrap();
//! println!("radius = {:.3}", result.clustering.radius);
//! assert_eq!(result.clustering.k(), 10);
//! ```
//!
//! See `examples/` for end-to-end scenarios (outlier detection, streaming
//! pipelines, sequential comparison) and `crates/bench` for the binaries
//! regenerating every figure of the paper.

pub use kcenter_baselines as baselines;
pub use kcenter_core as core;
pub use kcenter_data as data;
pub use kcenter_mapreduce as mapreduce;
pub use kcenter_metric as metric;
pub use kcenter_store as store;
pub use kcenter_stream as stream;

/// The most common imports in one place.
pub mod prelude {
    pub use kcenter_core::coreset::{CoresetSpec, WeightedCoreset, WeightedPoint};
    pub use kcenter_core::mapreduce_kcenter::{mr_kcenter, MrKCenterConfig};
    pub use kcenter_core::mapreduce_outliers::{
        mr_kcenter_outliers, MrOutliersConfig, MrOutliersVariant, MrPartitioning,
    };
    pub use kcenter_core::sequential::{sequential_kcenter_outliers, SequentialOutliersConfig};
    pub use kcenter_core::solution::{radius, radius_with_outliers, Clustering};
    pub use kcenter_core::streaming_kcenter::CoresetStream;
    pub use kcenter_core::streaming_outliers::CoresetOutliers;
    pub use kcenter_core::two_pass::two_pass_outliers;
    pub use kcenter_metric::{Euclidean, Metric, Point};
    pub use kcenter_stream::{run_stream, StreamingAlgorithm};
}
