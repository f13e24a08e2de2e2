//! The `core.radius_search.evaluations` counter. The metrics registry is
//! process-wide, so this file is a test binary of its own with a single
//! test: no other search runs in the process while it reads deltas.

use kcenter_core::coreset::{WeightedCoreset, WeightedPoint};
use kcenter_core::outliers_cluster::PointsOracle;
use kcenter_core::radius_search::{find_min_feasible_radius, solve_coreset, SearchMode};
use kcenter_metric::{Euclidean, Point};

#[test]
fn evaluations_counter_counts_every_probe() {
    let counter = kcenter_obs::counter("core.radius_search.evaluations");
    let points: Vec<Point> = (0..90)
        .map(|i| Point::new(vec![(i as f64 * 3.7) % 41.0, ((i * i) as f64 * 1.3) % 13.0]))
        .collect();
    let weights: Vec<u64> = (0..90).map(|i| 1 + (i % 3) as u64).collect();
    let oracle = PointsOracle::new(&points, &Euclidean);
    for mode in [SearchMode::GeometricGrid, SearchMode::ExactCandidates] {
        // z = 300 exceeds the total weight: the r = 0 probe alone decides.
        for z in [0u64, 5, 300] {
            let before = counter.get();
            let search = find_min_feasible_radius(&oracle, &weights, 4, z, 0.25, mode);
            assert!(search.evaluations >= 1);
            assert_eq!(
                counter.get() - before,
                search.evaluations as u64,
                "{mode:?}, z = {z}"
            );
        }
    }

    let coreset: WeightedCoreset<Point> = points
        .iter()
        .zip(&weights)
        .map(|(point, &weight)| WeightedPoint {
            point: point.clone(),
            weight,
        })
        .collect();
    for threshold in [0, 1_000] {
        let before = counter.get();
        let solution = solve_coreset(
            &coreset,
            &Euclidean,
            3,
            4,
            0.25,
            SearchMode::GeometricGrid,
            threshold,
        );
        assert_eq!(counter.get() - before, solution.evaluations as u64);
    }
}
