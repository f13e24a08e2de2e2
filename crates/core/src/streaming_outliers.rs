//! CORESETOUTLIERS — the 1-pass (3+ε)-approximation streaming algorithm for
//! k-center with `z` outliers (paper §4, Theorem 3).
//!
//! One pass of the weighted doubling algorithm builds a weighted coreset of
//! `τ ≥ k + z` points (theory: `τ = (k+z)(16/ε̂)^D`; experiments:
//! `τ = µ(k+z)`, Fig. 5's space axis); at the end of the pass the final
//! centers are extracted exactly as in round 2 of the MapReduce algorithm —
//! the radius search over `OutliersCluster` runs on the coreset.
//!
//! Unlike the MapReduce constructions, the 1-pass algorithm must be *given*
//! its budget `τ` (the doubling dimension enters the choice); the paper's
//! 2-pass variant ([`crate::two_pass`]) removes that requirement.

use kcenter_metric::Metric;
use kcenter_stream::StreamingAlgorithm;

use crate::radius_search::{default_matrix_threshold, solve_coreset, SearchMode, MIN_EPS_HAT};
use crate::streaming_coreset::WeightedDoublingCoreset;

/// Output of the pass: centers plus coreset diagnostics.
#[derive(Clone, Debug)]
pub struct StreamOutliersOutput<P> {
    /// The selected (at most) `k` centers.
    pub centers: Vec<P>,
    /// The radius `r̃min` found on the coreset.
    pub r_min: f64,
    /// Coreset weight left uncovered at `r̃min` (≤ z).
    pub uncovered_weight: u64,
    /// Size of the coreset at the end of the pass.
    pub coreset_size: usize,
    /// The doubling algorithm's final lower bound `ϕ`.
    pub phi: f64,
    /// `OutliersCluster` evaluations spent by the radius search.
    pub search_evaluations: usize,
}

/// 1-pass streaming k-center with `z` outliers.
pub struct CoresetOutliers<P, M> {
    inner: WeightedDoublingCoreset<P, M>,
    k: usize,
    z: usize,
    eps_hat: f64,
    search: SearchMode,
    matrix_threshold: usize,
}

impl<P: Clone + Sync, M: Metric<P>> CoresetOutliers<P, M> {
    /// Creates the algorithm with coreset budget `tau` (must be at least
    /// `k + z` for the guarantees to be meaningful).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, `tau < k + z`, or `eps_hat` is outside
    /// `[MIN_EPS_HAT, 1]`.
    pub fn new(metric: M, k: usize, z: usize, tau: usize, eps_hat: f64) -> Self {
        assert!(k > 0, "k must be positive");
        assert!(tau >= k + z, "coreset budget below k + z");
        assert!(
            (MIN_EPS_HAT..=1.0).contains(&eps_hat),
            "eps_hat must be in [{MIN_EPS_HAT:e}, 1]"
        );
        CoresetOutliers {
            inner: WeightedDoublingCoreset::new(metric, tau),
            k,
            z,
            eps_hat,
            search: SearchMode::GeometricGrid,
            matrix_threshold: default_matrix_threshold(),
        }
    }

    /// Overrides the radius search mode (default: geometric grid).
    pub fn with_search(mut self, search: SearchMode) -> Self {
        self.search = search;
        self
    }
}

impl<P: Clone + Sync, M: Metric<P>> StreamingAlgorithm<P> for CoresetOutliers<P, M> {
    type Output = StreamOutliersOutput<P>;

    fn process(&mut self, item: P) {
        self.inner.process(item);
    }

    fn memory_items(&self) -> usize {
        self.inner.memory_items()
    }

    fn finalize(self) -> StreamOutliersOutput<P> {
        let (k, z, eps_hat, search, threshold) = (
            self.k,
            self.z,
            self.eps_hat,
            self.search,
            self.matrix_threshold,
        );
        let (metric, output) = self.inner.into_parts();

        if output.coreset.is_empty() {
            return StreamOutliersOutput {
                centers: Vec::new(),
                r_min: 0.0,
                uncovered_weight: 0,
                coreset_size: 0,
                phi: output.phi,
                search_evaluations: 0,
            };
        }
        let solution = solve_coreset(
            &output.coreset,
            &metric,
            k,
            z as u64,
            eps_hat,
            search,
            threshold,
        );
        StreamOutliersOutput {
            centers: solution.centers,
            r_min: solution.r_min,
            uncovered_weight: solution.uncovered_weight,
            coreset_size: output.coreset.len(),
            phi: output.phi,
            search_evaluations: solution.evaluations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solution::radius_with_outliers;
    use kcenter_metric::{Euclidean, Point};
    use kcenter_stream::run_stream;

    fn clusters_with_outliers() -> Vec<Point> {
        let mut pts = Vec::new();
        for c in 0..3 {
            for i in 0..80 {
                pts.push(Point::new(vec![
                    c as f64 * 100.0 + (i % 8) as f64 * 0.2,
                    (i / 8) as f64 * 0.2,
                ]));
            }
        }
        pts.push(Point::new(vec![50_000.0, 0.0]));
        pts.push(Point::new(vec![0.0, -70_000.0]));
        pts
    }

    #[test]
    fn solves_the_planted_instance() {
        let pts = clusters_with_outliers();
        let alg = CoresetOutliers::new(Euclidean, 3, 2, 4 * (3 + 2), 0.25);
        let (out, report) = run_stream(alg, pts.clone());
        assert!(out.centers.len() <= 3);
        assert!(out.uncovered_weight <= 2);
        let r = radius_with_outliers(&pts, &out.centers, 2, &Euclidean);
        assert!(r < 50.0, "radius {r} did not exclude the outliers");
        assert!(report.peak_memory_items <= 4 * 5 + 1);
    }

    #[test]
    fn memory_stays_within_budget() {
        let pts = clusters_with_outliers();
        let tau = 12;
        let alg = CoresetOutliers::new(Euclidean, 3, 2, tau, 0.5);
        let (_, report) = run_stream(alg, pts);
        assert!(report.peak_memory_items <= tau + 1);
    }

    #[test]
    fn exact_search_mode_works_too() {
        let pts = clusters_with_outliers();
        let alg = CoresetOutliers::new(Euclidean, 3, 2, 20, 0.25)
            .with_search(SearchMode::ExactCandidates);
        let (out, _) = run_stream(alg, pts.clone());
        let r = radius_with_outliers(&pts, &out.centers, 2, &Euclidean);
        assert!(r < 50.0);
    }

    #[test]
    fn empty_stream_is_handled() {
        let alg = CoresetOutliers::<Point, _>::new(Euclidean, 2, 1, 6, 0.5);
        let (out, _) = run_stream(alg, Vec::<Point>::new());
        assert!(out.centers.is_empty());
        assert_eq!(out.coreset_size, 0);
    }

    #[test]
    #[should_panic(expected = "coreset budget below k + z")]
    fn tau_below_k_plus_z_panics() {
        let _ = CoresetOutliers::<Point, _>::new(Euclidean, 3, 4, 6, 0.5);
    }
}
