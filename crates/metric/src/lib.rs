#![warn(missing_docs)]
//! Metric-space substrate for coreset-based k-center clustering.
//!
//! This crate provides the geometric foundations every algorithm in the
//! workspace builds on:
//!
//! * [`Point`] — a validated, fixed-dimension point with `f64` coordinates;
//! * [`PointSet`] / [`PointRef`] / [`Coordinates`] — structure-of-arrays
//!   point storage (one contiguous coordinate block, zero-copy viewable
//!   from a mmap'd shard) feeding the four-lane block distance kernels in
//!   [`kernels`];
//! * the [`Metric`] trait and concrete metrics ([`Euclidean`], [`Manhattan`],
//!   [`Chebyshev`], [`CosineAngular`], and the test-oriented [`Precomputed`]
//!   matrix metric);
//! * [`meb`] — an approximate Minimum Enclosing Ball (Badoiu–Clarkson), used
//!   by the experiment suite to inject outliers exactly the way the paper
//!   does (points at `100 · r_MEB` from the MEB center);
//! * [`selection`] — order-statistic selection used to evaluate the k-center
//!   objective with outliers (the `(z+1)`-th largest distance) in `O(n)`;
//! * [`pairwise`] — the proxy-scale condensed [`DistanceMatrix`], the
//!   [`CachedOracle`] handle that builds it at most once for all the
//!   radius searches over one point set, and diameter bounds;
//! * [`doubling`] — an empirical doubling-dimension estimator, the parameter
//!   `D` that governs the coreset sizes in the paper's analysis;
//! * [`fingerprint`] — deterministic content fingerprints and the payload
//!   checksum that `kcenter-store` keys and validates its entries with.
//!
//! All algorithms in `kcenter-core` are generic over `(P, M: Metric<P>)`, so
//! they run unchanged on Euclidean points, on cosine-space embeddings, or on
//! tiny adversarial metrics given as explicit distance matrices.

pub mod distance;
pub mod doubling;
pub mod fingerprint;
pub mod kernels;
pub mod meb;
pub mod pairwise;
pub mod point;
pub mod pointset;
pub mod selection;

pub use distance::{Chebyshev, CosineAngular, Euclidean, Manhattan, Metric, Precomputed};
pub use fingerprint::Fingerprint;
pub use meb::{minimum_enclosing_ball, Ball};
pub use pairwise::{matrix_build_count, CachedOracle, DistanceMatrix};
pub use point::{Point, PointError};
pub use pointset::{Coordinates, PointRef, PointSet, PointSetError, StableF64s};
