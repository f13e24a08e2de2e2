#![warn(missing_docs)]
//! Coreset-based k-center clustering (with outliers) in MapReduce and
//! Streaming — the primary contribution of Ceccarello, Pietracaprina &
//! Pucci, VLDB 2019.
//!
//! # Algorithms
//!
//! | Entry point | Model | Guarantee |
//! |---|---|---|
//! | [`mapreduce_kcenter::mr_kcenter`] | 2-round MapReduce | (2+ε)·OPT |
//! | [`mapreduce_outliers::mr_kcenter_outliers`] | 2-round MapReduce | (3+ε)·OPT, deterministic or randomized |
//! | [`sequential::sequential_kcenter_outliers`] | sequential (ℓ = 1) | (3+ε)·OPT, ~10× faster than Charikar et al. |
//! | [`streaming_kcenter::CoresetStream`] | 1-pass streaming | (2+ε)·OPT |
//! | [`streaming_outliers::CoresetOutliers`] | 1-pass streaming | (3+ε)·OPT |
//! | [`two_pass::two_pass_outliers`] | 2-pass streaming | (3+ε)·OPT, oblivious to the doubling dimension |
//!
//! All of them share the same structure: build a small *composable coreset*
//! whose points carry proxy weights, then solve the problem on the coreset
//! with a sequential routine — [`gmm`] (Gonzalez' farthest-first traversal)
//! for plain k-center, [`outliers_cluster`] (the weighted greedy disk cover
//! of Algorithm 1) combined with the [`radius_search`] for the outlier
//! variant. The larger the coreset, the closer the result gets to the best
//! sequential guarantee; the required size scales with `(c/ε)^D` where `D`
//! is the dataset's doubling dimension.
//!
//! # Quick start
//!
//! ```
//! use kcenter_core::mapreduce_kcenter::{mr_kcenter, MrKCenterConfig};
//! use kcenter_core::coreset::CoresetSpec;
//! use kcenter_metric::{Euclidean, Point};
//!
//! let points: Vec<Point> = (0..200)
//!     .map(|i| Point::new(vec![(i % 20) as f64, (i / 20) as f64]))
//!     .collect();
//! let config = MrKCenterConfig {
//!     k: 4,
//!     ell: 4,
//!     coreset: CoresetSpec::Multiplier { mu: 4 },
//!     seed: 1,
//! };
//! let result = mr_kcenter(&points, &Euclidean, &config).unwrap();
//! assert_eq!(result.clustering.centers.len(), 4);
//! ```

pub mod brute_force;
pub mod coreset;
pub mod error;
pub mod gmm;
pub mod mapreduce_kcenter;
pub mod mapreduce_outliers;
pub mod mr_backend;
pub mod outliers_cluster;
pub mod radius_search;
pub mod sequential;
pub mod solution;
pub mod streaming_coreset;
pub mod streaming_kcenter;
pub mod streaming_outliers;
pub mod tuning;
pub mod two_pass;

pub use coreset::{CoresetSpec, WeightedCoreset, WeightedPoint};
pub use error::InputError;
pub use solution::Clustering;
pub use streaming_coreset::{CoresetSnapshot, DoublingCoresetOutput, WeightedDoublingCoreset};
