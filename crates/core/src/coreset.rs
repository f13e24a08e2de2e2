//! Composable weighted coresets built with incremental GMM.
//!
//! Round 1 of every MapReduce algorithm in the paper runs GMM on each
//! partition `S_i` and keeps the selected centers as the partition's coreset
//! `T_i`; each point of `S_i` is (conceptually) mapped to its closest coreset
//! point — its *proxy* — and, for the outlier variant, each coreset point
//! carries the number of points it proxies as a weight. The union of the
//! `T_i` is a composable coreset for the whole dataset.
//!
//! How far GMM runs is the paper's central knob:
//!
//! * [`CoresetSpec::EpsStop`] — the theoretical rule: run to `τ_i ≥ base`
//!   until `r_{T^{τ_i}}(S_i) ≤ (ε/2) · r_{T^base}(S_i)` (§3.1/§3.2), which
//!   guarantees proxy distance `≤ ε·r*` and size `≤ base·(4/ε)^D` (Lemmas
//!   2–3, 6);
//! * [`CoresetSpec::Fixed`] / [`CoresetSpec::Multiplier`] — the experimental
//!   rule (§5): a fixed size `τ = µ·base`, the form all figures sweep.

use kcenter_metric::Metric;

use crate::gmm::Gmm;

/// A coreset point with its proxy weight (how many input points it
/// represents).
#[derive(Clone, Debug, PartialEq)]
pub struct WeightedPoint<P> {
    /// The coreset point.
    pub point: P,
    /// Number of input points whose proxy this point is (`>= 1`).
    pub weight: u64,
}

/// A weighted coreset; unions of these are composable coresets.
#[derive(Clone, Debug, Default)]
pub struct WeightedCoreset<P> {
    /// The weighted points.
    pub points: Vec<WeightedPoint<P>>,
}

impl<P> WeightedCoreset<P> {
    /// Number of coreset points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the coreset is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Total proxy weight (= number of represented input points).
    pub fn total_weight(&self) -> u64 {
        self.points.iter().map(|wp| wp.weight).sum()
    }

    /// The bare points, discarding weights.
    pub fn points_only(&self) -> Vec<P>
    where
        P: Clone,
    {
        self.points.iter().map(|wp| wp.point.clone()).collect()
    }

    /// The weights, aligned with [`WeightedCoreset::points`].
    pub fn weights(&self) -> Vec<u64> {
        self.points.iter().map(|wp| wp.weight).collect()
    }

    /// Absorbs another coreset (coreset composition).
    pub fn merge(&mut self, other: WeightedCoreset<P>) {
        self.points.extend(other.points);
    }

    /// Composes a sequence of coresets into one, in iteration order.
    ///
    /// Composition is plain order-preserving concatenation. Both MapReduce
    /// backends call it on the partition coresets in partition-index
    /// order — the in-process engine on the ones it built, the executor's
    /// coordinator on the artifacts it read back from the workers — and
    /// the round-2 solvers consume the union by position, so the two
    /// backends hand round 2 the identical union.
    pub fn compose<I: IntoIterator<Item = WeightedCoreset<P>>>(parts: I) -> WeightedCoreset<P> {
        let mut union = WeightedCoreset { points: Vec::new() };
        for part in parts {
            union.merge(part);
        }
        union
    }
}

impl<P> FromIterator<WeightedPoint<P>> for WeightedCoreset<P> {
    fn from_iter<I: IntoIterator<Item = WeightedPoint<P>>>(iter: I) -> Self {
        WeightedCoreset {
            points: iter.into_iter().collect(),
        }
    }
}

/// How large a coreset round 1 should build from each partition.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CoresetSpec {
    /// The paper's theoretical stopping rule: run GMM to at least `base`
    /// centers, then continue until the radius drops to `(eps/2)` times the
    /// radius at `base` centers.
    EpsStop {
        /// Precision parameter `ε ∈ (0, 1]` (the paper's `ε` or `ε̂`).
        eps: f64,
    },
    /// Exactly `tau` centers (fewer if the partition saturates first).
    Fixed {
        /// Target coreset size.
        tau: usize,
    },
    /// `µ · base` centers — the form used throughout the paper's
    /// experiments (`µ = 1` reproduces Malkomes et al.).
    Multiplier {
        /// Coreset size multiplier `µ >= 1`.
        mu: usize,
    },
}

impl CoresetSpec {
    /// The target size for a given `base` (`k` without outliers, `k + z` or
    /// `k + z'` with), or `None` for the adaptive rule.
    pub fn target_size(&self, base: usize) -> Option<usize> {
        match *self {
            CoresetSpec::EpsStop { .. } => None,
            CoresetSpec::Fixed { tau } => Some(tau),
            CoresetSpec::Multiplier { mu } => Some(mu * base),
        }
    }
}

/// The outcome of building one partition's coreset.
#[derive(Clone, Debug)]
pub struct CoresetBuild<P> {
    /// The weighted coreset `T_i`.
    pub coreset: WeightedCoreset<P>,
    /// Number of GMM iterations `τ_i` actually run.
    pub tau: usize,
    /// `r_{T^base}(S_i)` — the radius after the first `base` centers
    /// (`0` if the partition saturated before `base` centers).
    pub base_radius: f64,
    /// `r_{T_i}(S_i)` — the final radius, bounding every point's distance
    /// to its proxy.
    pub proxy_radius: f64,
}

/// Builds the weighted coreset of one partition by incremental GMM.
///
/// `base` is `k` (plain) or `k + z`-style (outliers); `first` selects the
/// initial GMM center. Duplicated points fold into their proxy's weight.
///
/// # Panics
///
/// Panics if `points` is empty, `base == 0`, or the spec is invalid
/// (`eps` outside `(0,1]`, `tau == 0`, `mu == 0`).
pub fn build_weighted_coreset<P, M>(
    points: &[P],
    metric: &M,
    base: usize,
    spec: &CoresetSpec,
    first: usize,
) -> CoresetBuild<P>
where
    P: Clone + Sync,
    M: Metric<P>,
{
    assert!(!points.is_empty(), "coreset of an empty partition");
    assert!(base > 0, "base must be positive");

    let mut gmm = Gmm::new(points, metric, first);
    match *spec {
        CoresetSpec::EpsStop { eps } => {
            assert!(eps > 0.0 && eps <= 1.0, "eps must be in (0, 1]");
            gmm.run_until(base);
            let base_radius = gmm.radius();
            let threshold = eps / 2.0 * base_radius;
            while gmm.radius() > threshold && gmm.step() {}
        }
        CoresetSpec::Fixed { tau } => {
            assert!(tau > 0, "tau must be positive");
            gmm.run_until(tau);
        }
        CoresetSpec::Multiplier { mu } => {
            assert!(mu > 0, "mu must be positive");
            gmm.run_until(mu * base);
        }
    }

    let tau = gmm.num_centers();
    let base_radius = if gmm.num_centers() >= base {
        gmm.radius_at(base)
    } else {
        // The partition saturated before `base` centers: radius is zero.
        0.0
    };
    let proxy_radius = gmm.radius();

    // Weights: count the points proxied by each selected center.
    let mut weights = vec![0u64; tau];
    for &pos in gmm.nearest_center_positions() {
        weights[pos as usize] += 1;
    }
    let coreset = gmm
        .centers()
        .iter()
        .zip(&weights)
        .map(|(&idx, &weight)| WeightedPoint {
            point: points[idx].clone(),
            weight,
        })
        .collect();

    CoresetBuild {
        coreset,
        tau,
        base_radius,
        proxy_radius,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcenter_metric::{Euclidean, Point};

    fn pts(coords: &[f64]) -> Vec<Point> {
        coords.iter().map(|&c| Point::new(vec![c])).collect()
    }

    #[test]
    fn weights_sum_to_partition_size() {
        let points = pts(&[0.0, 0.5, 1.0, 5.0, 5.5, 9.0, 9.5, 10.0]);
        let build =
            build_weighted_coreset(&points, &Euclidean, 2, &CoresetSpec::Fixed { tau: 3 }, 0);
        assert_eq!(build.coreset.len(), 3);
        assert_eq!(build.coreset.total_weight(), points.len() as u64);
        assert!(build.coreset.points.iter().all(|wp| wp.weight >= 1));
    }

    #[test]
    fn multiplier_spec_grows_with_mu() {
        let points: Vec<Point> = (0..100).map(|i| Point::new(vec![i as f64])).collect();
        let small = build_weighted_coreset(
            &points,
            &Euclidean,
            4,
            &CoresetSpec::Multiplier { mu: 1 },
            0,
        );
        let large = build_weighted_coreset(
            &points,
            &Euclidean,
            4,
            &CoresetSpec::Multiplier { mu: 4 },
            0,
        );
        assert_eq!(small.tau, 4);
        assert_eq!(large.tau, 16);
        assert!(large.proxy_radius <= small.proxy_radius);
    }

    #[test]
    fn eps_stop_reaches_the_radius_target() {
        let points: Vec<Point> = (0..256).map(|i| Point::new(vec![i as f64])).collect();
        let eps = 0.5;
        let build =
            build_weighted_coreset(&points, &Euclidean, 4, &CoresetSpec::EpsStop { eps }, 0);
        assert!(build.tau >= 4);
        assert!(
            build.proxy_radius <= eps / 2.0 * build.base_radius + 1e-12,
            "stopping rule violated: {} > (ε/2)·{}",
            build.proxy_radius,
            build.base_radius
        );
    }

    #[test]
    fn eps_stop_with_tiny_eps_grows_the_coreset() {
        let points: Vec<Point> = (0..256).map(|i| Point::new(vec![i as f64])).collect();
        let coarse = build_weighted_coreset(
            &points,
            &Euclidean,
            4,
            &CoresetSpec::EpsStop { eps: 1.0 },
            0,
        );
        let fine = build_weighted_coreset(
            &points,
            &Euclidean,
            4,
            &CoresetSpec::EpsStop { eps: 0.1 },
            0,
        );
        assert!(fine.tau > coarse.tau);
    }

    #[test]
    fn saturated_partition_yields_small_coreset() {
        // Fewer distinct points than requested τ.
        let points = pts(&[1.0, 1.0, 2.0, 2.0, 2.0]);
        let build =
            build_weighted_coreset(&points, &Euclidean, 2, &CoresetSpec::Fixed { tau: 4 }, 0);
        assert_eq!(build.tau, 2);
        assert_eq!(build.proxy_radius, 0.0);
        // Duplicates fold into weights: 2 + 3.
        let mut ws = build.coreset.weights();
        ws.sort_unstable();
        assert_eq!(ws, vec![2, 3]);
    }

    #[test]
    fn proxy_radius_bounds_every_point() {
        let points = pts(&[0.0, 1.0, 3.0, 7.0, 20.0, 21.0, 40.0]);
        let build =
            build_weighted_coreset(&points, &Euclidean, 3, &CoresetSpec::Fixed { tau: 4 }, 0);
        let coreset_points = build.coreset.points_only();
        for p in &points {
            let d = coreset_points
                .iter()
                .map(|c| kcenter_metric::Metric::distance(&Euclidean, p, c))
                .fold(f64::INFINITY, f64::min);
            assert!(d <= build.proxy_radius + 1e-12);
        }
    }

    #[test]
    fn merge_composes_coresets() {
        let a = build_weighted_coreset(
            &pts(&[0.0, 1.0]),
            &Euclidean,
            1,
            &CoresetSpec::Fixed { tau: 2 },
            0,
        );
        let b = build_weighted_coreset(
            &pts(&[10.0, 11.0, 12.0]),
            &Euclidean,
            1,
            &CoresetSpec::Fixed { tau: 2 },
            0,
        );
        let mut union = a.coreset.clone();
        union.merge(b.coreset.clone());
        assert_eq!(union.len(), a.coreset.len() + b.coreset.len());
        assert_eq!(union.total_weight(), 5);
    }

    #[test]
    fn compose_is_associative_and_order_preserving() {
        let parts: Vec<WeightedCoreset<Point>> = [
            &[0.0, 1.0][..],
            &[10.0][..],
            &[20.0, 21.0, 22.0][..],
            &[30.0][..],
            &[40.0, 41.0][..],
        ]
        .iter()
        .map(|coords| {
            build_weighted_coreset(
                &pts(coords),
                &Euclidean,
                1,
                &CoresetSpec::Fixed { tau: 3 },
                0,
            )
            .coreset
        })
        .collect();

        // Flat left-to-right fold.
        let flat = WeightedCoreset::compose(parts.clone());

        // Pairwise composition with the odd node carried forward: any
        // parenthesization gives the flat fold's sequence.
        let mut level = parts.clone();
        while level.len() > 1 {
            let mut next = Vec::new();
            let mut it = level.into_iter();
            while let Some(left) = it.next() {
                match it.next() {
                    Some(right) => next.push(WeightedCoreset::compose([left, right])),
                    None => next.push(left),
                }
            }
            level = next;
        }
        let tree = level.pop().unwrap();

        assert_eq!(flat.len(), tree.len());
        assert_eq!(flat.weights(), tree.weights());
        for (a, b) in flat.points_only().iter().zip(tree.points_only()) {
            for (ca, cb) in a.coords().iter().zip(b.coords()) {
                assert_eq!(ca.to_bits(), cb.to_bits());
            }
        }
        // Order-preserving: leaves appear in input order.
        let expected: u64 = parts.iter().map(WeightedCoreset::total_weight).sum();
        assert_eq!(flat.total_weight(), expected);
    }

    #[test]
    fn spec_target_sizes() {
        assert_eq!(CoresetSpec::EpsStop { eps: 0.5 }.target_size(7), None);
        assert_eq!(CoresetSpec::Fixed { tau: 9 }.target_size(7), Some(9));
        assert_eq!(CoresetSpec::Multiplier { mu: 3 }.target_size(7), Some(21));
    }

    #[test]
    #[should_panic(expected = "empty partition")]
    fn empty_partition_panics() {
        let points: Vec<Point> = Vec::new();
        let _ = build_weighted_coreset(&points, &Euclidean, 1, &CoresetSpec::Fixed { tau: 1 }, 0);
    }
}
