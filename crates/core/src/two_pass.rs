//! The 2-pass streaming algorithm oblivious to the doubling dimension
//! (paper §4, "A 2-pass Streaming algorithm oblivious to D").
//!
//! The 1-pass algorithm needs `τ = (k+z)(16/ε̂)^D` up front, i.e. knowledge
//! of `D`. Simulating the MapReduce algorithm with `ℓ = 1` in two passes
//! removes that requirement:
//!
//! 1. **Pass 1** runs the doubling algorithm for the `(k+z)`-center problem
//!    (our weighted builder with `τ = k + z`, weights ignored), yielding
//!    `r̂ = 8ϕ ≤ 8·r*_{k+z} ≤ 8·r*_{k,z}`.
//! 2. **Pass 2** builds a *maximal* weighted coreset at scale `(ε/48)·r̂`:
//!    each arriving point either folds into a center within that distance
//!    or becomes a new center. Maximality bounds the coreset by
//!    `(k+z)(96/ε)^D` without ever knowing `D`, and every point sits within
//!    `(ε/48)·r̂ ≤ (ε/6)·r*_{k,z}` of its proxy.
//!
//! The finalization is the usual radius search + `OutliersCluster` with
//! `ε̂ = ε/6`, giving the same `(3+ε)` guarantee and memory bounds as
//! Theorem 3.

use kcenter_metric::{CachedOracle, Metric};
use kcenter_stream::{run_stream, MultiPass, StreamingAlgorithm};

use crate::error::{check_eps, check_kz, InputError};
use crate::radius_search::{
    default_matrix_threshold, solve_coreset_cached, SearchMode, MIN_EPS_HAT,
};
use crate::solution::{radius_with_outliers, Clustering};
use crate::streaming_coreset::WeightedDoublingCoreset;

/// Pass 2: the maximal weighted coreset builder at a fixed scale.
///
/// Exposed publicly so tests (and users with a known radius estimate) can
/// drive it directly.
pub struct MaximalCoreset<P, M> {
    metric: M,
    threshold: f64,
    centers: Vec<P>,
    weights: Vec<u64>,
}

impl<P: Clone, M: Metric<P>> MaximalCoreset<P, M> {
    /// Creates a builder folding points within `threshold` of an existing
    /// center (threshold `0` keeps every distinct point).
    pub fn new(metric: M, threshold: f64) -> Self {
        assert!(threshold >= 0.0, "threshold must be non-negative");
        MaximalCoreset {
            metric,
            threshold,
            centers: Vec::new(),
            weights: Vec::new(),
        }
    }
}

impl<P: Clone, M: Metric<P>> StreamingAlgorithm<P> for MaximalCoreset<P, M> {
    type Output = (Vec<P>, Vec<u64>);

    fn process(&mut self, item: P) {
        let mut best: Option<(usize, f64)> = None;
        for (i, c) in self.centers.iter().enumerate() {
            let d = self.metric.distance(&item, c);
            if d <= self.threshold && best.is_none_or(|(_, bd)| d < bd) {
                best = Some((i, d));
            }
        }
        match best {
            Some((i, _)) => self.weights[i] += 1,
            None => {
                self.centers.push(item);
                self.weights.push(1);
            }
        }
    }

    fn memory_items(&self) -> usize {
        self.centers.len()
    }

    fn finalize(self) -> (Vec<P>, Vec<u64>) {
        (self.centers, self.weights)
    }
}

/// Result of the 2-pass algorithm.
#[derive(Clone, Debug)]
pub struct TwoPassResult<P> {
    /// Centers and the measured objective `r_{T,Z_T}(S)`.
    pub clustering: Clustering<P>,
    /// Pass-1 radius estimate `r̂ = 8ϕ`.
    pub r_hat: f64,
    /// Size of the pass-2 coreset.
    pub coreset_size: usize,
    /// Radius found on the coreset by the search.
    pub r_min: f64,
    /// Per-pass stream metering.
    pub passes: MultiPass,
}

/// Runs the 2-pass D-oblivious streaming algorithm for k-center with `z`
/// outliers over an in-memory dataset (each pass is a fresh scan).
///
/// # Errors
///
/// Returns [`InputError`] for invalid `(n, k, z)`, `eps` outside `(0, 1]`,
/// or `eps / 6` below [`MIN_EPS_HAT`].
pub fn two_pass_outliers<P, M>(
    points: &[P],
    metric: &M,
    k: usize,
    z: usize,
    eps: f64,
) -> Result<TwoPassResult<P>, InputError>
where
    P: Clone + Sync,
    M: Metric<P> + Clone,
{
    check_kz(points.len(), k, z)?;
    check_eps(eps)?;
    // The finalization searches the grid at ε̂ = ε/6.
    if eps / 6.0 < MIN_EPS_HAT {
        return Err(InputError::InvalidEpsilon { value: eps });
    }

    let mut passes = MultiPass::default();

    // Pass 1: doubling algorithm for (k+z)-center; r̂ = 8ϕ.
    let pass1 = WeightedDoublingCoreset::new(metric.clone(), k + z);
    let (out1, report1) = run_stream(pass1, points.iter().cloned());
    passes.record(report1);
    let r_hat = 8.0 * out1.phi;

    // Pass 2: maximal weighted coreset at scale (ε/48)·r̂.
    let pass2 = MaximalCoreset::new(metric.clone(), eps / 48.0 * r_hat);
    let ((centers, weights), report2) = run_stream(pass2, points.iter().cloned());
    passes.record(report2);

    let coreset_size = centers.len();
    // The pass-2 centers ARE the coreset points: hand them straight to a
    // shared oracle (no WeightedCoreset round-trip) so the finalization's
    // radius search prices them into one lazily built proxy matrix —
    // served from the persistent store, when installed, for repeated
    // runs over the same stream.
    let oracle = CachedOracle::new(centers, metric, default_matrix_threshold());
    let solution = solve_coreset_cached(
        &oracle,
        &weights,
        k,
        z as u64,
        eps / 6.0,
        SearchMode::GeometricGrid,
    );
    let final_radius = radius_with_outliers(points, &solution.centers, z, metric);

    Ok(TwoPassResult {
        clustering: Clustering {
            centers: solution.centers,
            radius: final_radius,
        },
        r_hat,
        coreset_size,
        r_min: solution.r_min,
        passes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcenter_metric::{Euclidean, Point};

    fn planted() -> Vec<Point> {
        let mut pts = Vec::new();
        for c in 0..3 {
            for i in 0..70 {
                pts.push(Point::new(vec![
                    c as f64 * 200.0 + (i % 7) as f64,
                    (i / 7) as f64,
                ]));
            }
        }
        pts.push(Point::new(vec![90_000.0, 0.0]));
        pts.push(Point::new(vec![-80_000.0, 0.0]));
        pts
    }

    #[test]
    fn two_passes_recorded_and_solved() {
        let pts = planted();
        let result = two_pass_outliers(&pts, &Euclidean, 3, 2, 1.0).unwrap();
        assert_eq!(result.passes.pass_count(), 2);
        assert!(
            result.clustering.radius < 100.0,
            "radius {}",
            result.clustering.radius
        );
        assert!(result.clustering.k() <= 3);
    }

    #[test]
    fn pass1_estimate_bounds_optimum() {
        let pts = planted();
        let result = two_pass_outliers(&pts, &Euclidean, 3, 2, 1.0).unwrap();
        // r̂ ≤ 8·r*_{k+z} and r̂ ≥ achieved coreset scale; the optimum with
        // outliers here is ~8.5 (cluster diagonal), so r̂ ≤ 8·r*_{k,z}.
        let opt_upper = 20.0; // loose upper bound on r*_{k,z}
        assert!(result.r_hat <= 8.0 * opt_upper);
    }

    #[test]
    fn maximal_coreset_respects_scale() {
        let pts = planted();
        let alg = MaximalCoreset::new(Euclidean, 5.0);
        let (got, _) = run_stream(alg, pts.iter().cloned());
        let (centers, weights) = got;
        assert_eq!(weights.iter().sum::<u64>() as usize, pts.len());
        // Maximality: centers pairwise > 5.0 apart.
        for i in 0..centers.len() {
            for j in i + 1..centers.len() {
                assert!(
                    kcenter_metric::Metric::distance(&Euclidean, &centers[i], &centers[j]) > 5.0
                );
            }
        }
        // Coverage: every point within 5.0 of a center.
        for p in &pts {
            let d = centers
                .iter()
                .map(|c| kcenter_metric::Metric::distance(&Euclidean, p, c))
                .fold(f64::INFINITY, f64::min);
            assert!(d <= 5.0);
        }
    }

    #[test]
    fn zero_threshold_keeps_distinct_points() {
        let pts = vec![
            Point::new(vec![1.0]),
            Point::new(vec![1.0]),
            Point::new(vec![2.0]),
        ];
        let alg = MaximalCoreset::new(Euclidean, 0.0);
        let ((centers, weights), _) = run_stream(alg, pts);
        assert_eq!(centers.len(), 2);
        assert_eq!(weights, vec![2, 1]);
    }

    #[test]
    fn smaller_eps_grows_the_coreset() {
        let pts = planted();
        let coarse = two_pass_outliers(&pts, &Euclidean, 3, 2, 1.0).unwrap();
        let fine = two_pass_outliers(&pts, &Euclidean, 3, 2, 0.25).unwrap();
        assert!(fine.coreset_size >= coarse.coreset_size);
        assert!(fine.clustering.radius <= coarse.clustering.radius * 1.5 + 1e-9);
    }

    #[test]
    fn validates_input() {
        let pts = planted();
        assert!(two_pass_outliers(&pts, &Euclidean, 0, 1, 0.5).is_err());
        assert!(two_pass_outliers(&pts, &Euclidean, 2, 1, 0.0).is_err());
    }
}
