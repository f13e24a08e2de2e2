//! Property-based tests tying the core algorithms to the paper's lemmas.

use proptest::prelude::*;

use kcenter_core::brute_force::{optimal_kcenter, optimal_kcenter_outliers};
use kcenter_core::coreset::{build_weighted_coreset, CoresetSpec};
use kcenter_core::gmm::gmm_select;
use kcenter_core::outliers_cluster::{
    outliers_cluster, CmpMatrixRef, DistanceOracle, PointsOracle,
};
use kcenter_core::radius_search::{find_min_feasible_radius, solve_coreset_cached, SearchMode};
use kcenter_core::solution::{radius, radius_with_outliers};
use kcenter_core::streaming_coreset::WeightedDoublingCoreset;
use kcenter_metric::{CachedOracle, Chebyshev, CosineAngular, Euclidean, Manhattan, Metric, Point};
use kcenter_stream::StreamingAlgorithm;

fn arb_points(dim: usize, min_n: usize, max_n: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(
        prop::collection::vec(-100.0..100.0f64, dim).prop_map(Point::new),
        min_n..max_n,
    )
}

/// Coordinate bit patterns, so center comparisons are bitwise.
fn coord_bits(points: &[Point]) -> Vec<Vec<u64>> {
    points
        .iter()
        .map(|p| p.coords().iter().map(|x| x.to_bits()).collect())
        .collect()
}

/// `solve_coreset_cached` under `metric` on both sides of the cache
/// threshold — at `n` (the cached matrix) and at `0` (on demand) — in both
/// search modes: bit-equal radius, uncovered weight, evaluation count and
/// centers; one build for the cached handle, none for the on-demand one.
fn cached_and_on_demand_solves_agree<M: Metric<Point>>(
    points: &[Point],
    k: usize,
    z: u64,
    metric: &M,
) -> Result<(), TestCaseError> {
    let weights = vec![1u64; points.len()];
    let cached = CachedOracle::new(points.to_vec(), metric, points.len());
    let on_demand = CachedOracle::new(points.to_vec(), metric, 0);
    for mode in [SearchMode::ExactCandidates, SearchMode::GeometricGrid] {
        let a = solve_coreset_cached(&cached, &weights, k, z, 0.25, mode);
        let b = solve_coreset_cached(&on_demand, &weights, k, z, 0.25, mode);
        prop_assert_eq!(a.r_min.to_bits(), b.r_min.to_bits());
        prop_assert_eq!(a.uncovered_weight, b.uncovered_weight);
        prop_assert_eq!(a.evaluations, b.evaluations);
        prop_assert_eq!(coord_bits(&a.centers), coord_bits(&b.centers));
    }
    prop_assert_eq!(cached.build_count(), 1);
    prop_assert_eq!(on_demand.build_count(), 0);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Gonzalez' theorem: GMM is a 2-approximation.
    #[test]
    fn gmm_is_a_two_approximation(points in arb_points(2, 4, 14), k in 1usize..4) {
        prop_assume!(k < points.len());
        let (_, opt) = optimal_kcenter(&points, &Euclidean, k);
        let result = gmm_select(&points, &Euclidean, k, 0);
        prop_assert!(
            result.radius <= 2.0 * opt + 1e-9,
            "GMM radius {} > 2 * OPT = {}",
            result.radius,
            2.0 * opt
        );
    }

    /// Lemma 1: GMM run on a subset X ⊆ S achieves radius ≤ 2·r*_k(S) on X.
    #[test]
    fn lemma1_subset_property(points in arb_points(2, 6, 14), k in 1usize..4) {
        prop_assume!(k < points.len() / 2);
        let (_, opt_full) = optimal_kcenter(&points, &Euclidean, k);
        // X = every other point.
        let subset: Vec<Point> = points.iter().step_by(2).cloned().collect();
        prop_assume!(subset.len() > k);
        let result = gmm_select(&subset, &Euclidean, k, 0);
        prop_assert!(
            result.radius <= 2.0 * opt_full + 1e-9,
            "subset GMM radius {} > 2 * r*_k(S) = {}",
            result.radius,
            2.0 * opt_full
        );
    }

    /// GMM radius history is non-increasing for any input.
    #[test]
    fn gmm_radius_monotone(points in arb_points(3, 2, 24)) {
        let mut gmm = kcenter_core::gmm::Gmm::new(&points, &Euclidean, 0);
        gmm.run_until(points.len());
        for w in gmm.radius_history().windows(2) {
            prop_assert!(w[1] <= w[0] + 1e-12);
        }
    }

    /// Coreset weights always total the partition size and the proxy radius
    /// bounds every point's distance to the coreset.
    #[test]
    fn coreset_build_postconditions(
        points in arb_points(2, 3, 30),
        base in 1usize..4,
        mu in 1usize..4,
    ) {
        let build = build_weighted_coreset(
            &points, &Euclidean, base, &CoresetSpec::Multiplier { mu }, 0,
        );
        prop_assert_eq!(build.coreset.total_weight(), points.len() as u64);
        let cpoints = build.coreset.points_only();
        for p in &points {
            let d = cpoints
                .iter()
                .map(|c| Euclidean.distance(p, c))
                .fold(f64::INFINITY, f64::min);
            prop_assert!(d <= build.proxy_radius + 1e-9);
        }
    }

    /// Lemma 5 (coreset = input, unit weights): for any r ≥ r*_{k,z}, the
    /// cover leaves at most z weight uncovered.
    #[test]
    fn lemma5_feasibility_at_optimal_radius(
        points in arb_points(2, 5, 13),
        k in 1usize..3,
        z in 0usize..3,
        eps_hat in 0.05..1.0f64,
    ) {
        prop_assume!(k + z < points.len());
        let (_, opt) = optimal_kcenter_outliers(&points, &Euclidean, k, z);
        let weights = vec![1u64; points.len()];
        let oracle = PointsOracle::new(&points, &Euclidean);
        let result = outliers_cluster(&oracle, &weights, k, opt, eps_hat);
        prop_assert!(
            result.uncovered_weight <= z as u64,
            "uncovered {} > z = {z} at r = r* = {opt}",
            result.uncovered_weight
        );
    }

    /// Uncovered points returned by the cover really are far from all
    /// centers, and covered weight + uncovered weight is conserved.
    #[test]
    fn outliers_cluster_postconditions(
        points in arb_points(2, 2, 20),
        k in 1usize..4,
        r in 0.1..100.0f64,
    ) {
        let eps_hat = 0.25;
        let weights = vec![1u64; points.len()];
        let oracle = PointsOracle::new(&points, &Euclidean);
        let result = outliers_cluster(&oracle, &weights, k, r, eps_hat);
        prop_assert!(result.centers.len() <= k);
        let cover_r = (3.0 + 4.0 * eps_hat) * r;
        for &u in &result.uncovered {
            for &c in &result.centers {
                prop_assert!(Euclidean.distance(&points[u], &points[c]) > cover_r);
            }
        }
        prop_assert_eq!(
            result.uncovered_weight,
            result.uncovered.len() as u64
        );
    }

    /// The paper's tolerance argument (Theorem 2): Lemma 5 makes every
    /// radius ≥ r*_{k,z} feasible, so the exact search lands at ≤ r* and
    /// the geometric grid at ≤ (1+δ)·r*. (Comparing the two modes directly
    /// is not sound — below r* feasibility is not monotone.)
    #[test]
    fn search_modes_bounded_by_optimum(
        points in arb_points(2, 4, 14),
        k in 1usize..3,
        z in 0usize..3,
    ) {
        prop_assume!(k + z < points.len());
        let eps_hat = 0.25;
        let weights = vec![1u64; points.len()];
        let oracle = PointsOracle::new(&points, &Euclidean);
        let (_, opt) = optimal_kcenter_outliers(&points, &Euclidean, k, z);
        let exact = find_min_feasible_radius(
            &oracle, &weights, k, z as u64, eps_hat, SearchMode::ExactCandidates,
        );
        let grid = find_min_feasible_radius(
            &oracle, &weights, k, z as u64, eps_hat, SearchMode::GeometricGrid,
        );
        prop_assert!(exact.clustering.uncovered_weight <= z as u64);
        prop_assert!(grid.clustering.uncovered_weight <= z as u64);
        prop_assert!(
            exact.radius <= opt + 1e-9,
            "exact search {} above r* = {opt}",
            exact.radius
        );
        let delta = eps_hat / (3.0 + 4.0 * eps_hat);
        prop_assert!(
            grid.radius <= opt * (1.0 + delta) + 1e-9,
            "grid search {} above (1+δ)·r* = {}",
            grid.radius,
            opt * (1.0 + delta)
        );
    }

    /// Streaming doubling coreset: invariants (a), (b), (d) after every
    /// point; invariant (c) as coverage of the whole prefix.
    #[test]
    fn streaming_invariants(points in arb_points(2, 1, 60), tau in 2usize..8) {
        let mut alg = WeightedDoublingCoreset::new(Euclidean, tau);
        for (i, p) in points.iter().enumerate() {
            alg.process(p.clone());
            alg.check_invariants().map_err(TestCaseError::fail)?;
            if alg.phi() > 0.0 {
                for s in &points[..=i] {
                    let d = alg
                        .centers()
                        .iter()
                        .map(|c| Euclidean.distance(s, c))
                        .fold(f64::INFINITY, f64::min);
                    prop_assert!(d <= 8.0 * alg.phi() + 1e-9, "invariant (c) violated");
                }
            }
        }
    }

    /// Snapshot → restore at *any* split point is bitwise-transparent:
    /// running the prefix, snapshotting, restoring into a fresh builder,
    /// and running the suffix lands in exactly the state (ϕ bits,
    /// processed count, weights, center coordinates) of an uninterrupted
    /// run over the whole stream.
    #[test]
    fn streaming_resume_is_bitwise_transparent(
        points in arb_points(2, 1, 60),
        tau in 1usize..8,
        split_frac in 0.0..1.0f64,
    ) {
        // split covers 0 (restore an empty builder) through len
        // (restore a finished one, nothing left to stream).
        let split = ((points.len() as f64 + 1.0) * split_frac) as usize;
        let split = split.min(points.len());

        let mut uninterrupted = WeightedDoublingCoreset::new(Euclidean, tau);
        for p in &points {
            uninterrupted.process(p.clone());
        }

        let mut prefix = WeightedDoublingCoreset::new(Euclidean, tau);
        for p in &points[..split] {
            prefix.process(p.clone());
        }
        let mut resumed = WeightedDoublingCoreset::from_snapshot(Euclidean, tau, prefix.snapshot())
            .map_err(TestCaseError::fail)?;
        for p in &points[split..] {
            resumed.process(p.clone());
        }

        let a = uninterrupted.snapshot();
        let b = resumed.snapshot();
        prop_assert_eq!(a.processed, b.processed);
        prop_assert_eq!(a.initialized, b.initialized);
        prop_assert_eq!(a.phi.to_bits(), b.phi.to_bits());
        prop_assert_eq!(&a.weights, &b.weights);
        prop_assert_eq!(a.centers.len(), b.centers.len());
        for (x, y) in a.centers.iter().zip(&b.centers) {
            for (cx, cy) in x.coords().iter().zip(y.coords()) {
                prop_assert_eq!(cx.to_bits(), cy.to_bits());
            }
        }
    }

    /// Streaming invariant (e): ϕ ≤ r*_τ(S) against brute force.
    #[test]
    fn streaming_phi_lower_bounds_optimum(points in arb_points(1, 5, 12), tau in 2usize..4) {
        prop_assume!(tau < points.len());
        let mut alg = WeightedDoublingCoreset::new(Euclidean, tau);
        for p in &points {
            alg.process(p.clone());
        }
        let (_, opt) = optimal_kcenter(&points, &Euclidean, tau);
        prop_assert!(
            alg.phi() <= opt + 1e-9,
            "ϕ = {} exceeds r*_τ = {opt}",
            alg.phi()
        );
    }

    /// A cached handle's matrix, read through `CmpMatrixRef`, and the
    /// on-demand oracle agree bitwise on `cmp_dist` and `dist` for random
    /// point sets, and a handle above its cache threshold never caches —
    /// so a run landing above the threshold can never diverge from one
    /// landing below it.
    #[test]
    fn cached_and_on_demand_oracles_agree(points in arb_points(3, 2, 24)) {
        let n = points.len();
        let on_demand = PointsOracle::new(&points, &Euclidean);
        let cached = CachedOracle::new(points.clone(), &Euclidean, n);
        let uncached = CachedOracle::new(points.clone(), &Euclidean, 0);
        let matrix = CmpMatrixRef::<Point, _>::new(
            cached.matrix().expect("at the threshold"),
            cached.metric(),
        );
        for i in 0..n {
            for j in 0..n {
                let reference_cmp = DistanceOracle::cmp_dist(&on_demand, i, j);
                let reference = DistanceOracle::dist(&on_demand, i, j);
                prop_assert_eq!(matrix.cmp_dist(i, j).to_bits(), reference_cmp.to_bits());
                prop_assert_eq!(matrix.dist(i, j).to_bits(), reference.to_bits());
            }
        }
        prop_assert!(uncached.matrix().is_none());
        prop_assert_eq!(cached.build_count(), 1);
        prop_assert_eq!(uncached.build_count(), 0); // threshold 0 must never cache
    }

    /// Full solves through a cached handle match on-demand solves exactly,
    /// for both search modes and under every named metric.
    #[test]
    fn cached_oracle_searches_match_on_demand(
        points in arb_points(2, 3, 16),
        k in 1usize..3,
        z in 0usize..3,
    ) {
        prop_assume!(k + z < points.len());
        cached_and_on_demand_solves_agree(&points, k, z as u64, &Euclidean)?;
        cached_and_on_demand_solves_agree(&points, k, z as u64, &Manhattan)?;
        cached_and_on_demand_solves_agree(&points, k, z as u64, &Chebyshev)?;
        cached_and_on_demand_solves_agree(&points, k, z as u64, &CosineAngular)?;
    }

    /// End-to-end sanity: the objective evaluators agree with definitions.
    #[test]
    fn objective_definitions(points in arb_points(2, 2, 20), z in 0usize..5) {
        let centers = vec![points[0].clone()];
        let r_all = radius(&points, &centers, &Euclidean);
        let r_out = radius_with_outliers(&points, &centers, z, &Euclidean);
        prop_assert!(r_out <= r_all + 1e-12);
        let mut dists: Vec<f64> = points
            .iter()
            .map(|p| Euclidean.distance(p, &centers[0]))
            .collect();
        dists.sort_by(f64::total_cmp);
        let expect = if z >= points.len() {
            0.0
        } else {
            dists[points.len() - 1 - z]
        };
        prop_assert!((r_out - expect).abs() < 1e-12);
    }
}
