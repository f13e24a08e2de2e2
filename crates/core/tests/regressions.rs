//! Regression tests pinning boundary semantics the paper's guarantees
//! depend on: closed-ball coverage in `OutliersCluster`, GMM's farthest-
//! point bookkeeping, and the exactness of the radius search at the
//! feasibility boundary. These lock in behaviour that an innocent-looking
//! `<` vs `<=` or off-by-one edit would silently break while most
//! statistical tests kept passing.

use kcenter_core::brute_force::optimal_kcenter;
use kcenter_core::gmm::{gmm_select, Gmm};
use kcenter_core::outliers_cluster::{outliers_cluster, PointsOracle};
use kcenter_core::solution::radius;
use kcenter_metric::{Euclidean, Point};

fn pts(coords: &[f64]) -> Vec<Point> {
    coords.iter().map(|&c| Point::new(vec![c])).collect()
}

/// The paper's balls are closed: a point at distance *exactly* `(3+4ε̂)·r`
/// from a center is covered. All constants below are exactly representable,
/// so equality is exact and a `<` in the coverage comparison (instead of
/// `<=`) flips the result.
#[test]
fn outliers_cluster_covers_closed_balls() {
    // ε̂ = 0.25 → cover factor 3 + 4·0.25 = 4 (exact); D = 7, r = 7/4.
    let points = pts(&[0.0, 7.0]);
    let weights = vec![1u64, 1u64];
    let oracle = PointsOracle::new(&points, &Euclidean);

    let at_boundary = outliers_cluster(&oracle, &weights, 1, 7.0 / 4.0, 0.25);
    assert_eq!(
        at_boundary.uncovered_weight, 0,
        "a point at exactly (3+4ε̂)·r must be covered (closed ball)"
    );
    assert!(at_boundary.uncovered.is_empty());

    // Infinitesimally below the boundary the far point is uncovered.
    let below = outliers_cluster(&oracle, &weights, 1, 7.0 / 4.0 * (1.0 - 1e-12), 0.25);
    assert_eq!(below.uncovered_weight, 1);
    assert_eq!(below.uncovered.len(), 1);
}

/// Same closed-ball rule for the *selection* ball `(1+2ε̂)·r`: the greedy
/// weighs candidate centers by the weight within exactly that radius.
#[test]
fn outliers_cluster_selection_ball_is_closed() {
    // ε̂ = 0.5 → selection factor 1 + 2·0.5 = 2 (exact). With r = 1 the
    // center candidate at 0 sees weight 3 within distance exactly 2 and is
    // picked over the candidate at 6 (weight 2 in its selection ball);
    // cover factor 5 then reaches to distance 5, leaving {6, 8} uncovered.
    let points = pts(&[0.0, 2.0, -2.0, 6.0, 8.0]);
    let weights = vec![1u64; 5];
    let oracle = PointsOracle::new(&points, &Euclidean);
    let result = outliers_cluster(&oracle, &weights, 1, 1.0, 0.5);
    assert_eq!(result.centers, vec![0], "selection ball must be closed");
    assert_eq!(result.uncovered_weight, 2);
}

/// GMM must return exactly `k` centers whenever `k` distinct points exist —
/// the classic off-by-one (stopping a step early or late) changes the
/// count or reports the radius of the wrong prefix.
#[test]
fn gmm_selects_exactly_k_centers_with_consistent_radius() {
    let points: Vec<Point> = (0..100)
        .map(|i| Point::new(vec![(i as f64 * 37.0) % 101.0, (i as f64 * 53.0) % 89.0]))
        .collect();
    for k in [1usize, 2, 7, 31, 100] {
        let result = gmm_select(&points, &Euclidean, k, 0);
        assert_eq!(result.centers.len(), k, "k = {k}");
        // The reported radius must agree with an independent assignment of
        // every point to its closest selected center.
        let centers: Vec<Point> = result.centers.iter().map(|&i| points[i].clone()).collect();
        let independent = radius(&points, &centers, &Euclidean);
        assert!(
            (result.radius - independent).abs() <= 1e-12 * (1.0 + independent),
            "k = {k}: reported {} vs recomputed {}",
            result.radius,
            independent
        );
    }
}

/// Pin the exact farthest-first trace on a hand-checkable instance: from 0
/// the farthest point is 10 (radius 10), then 4 splits the gap (radius 4),
/// then the set is exhausted (radius 0).
#[test]
fn gmm_farthest_first_trace_is_exact() {
    let points = pts(&[0.0, 4.0, 10.0]);
    let mut gmm = Gmm::new(&points, &Euclidean, 0);
    gmm.run_until(3);
    assert_eq!(gmm.centers(), &[0, 2, 1]);
    assert_eq!(gmm.radius_history(), &[10.0, 4.0, 0.0]);
}

/// Gonzalez' guarantee (the paper's Lemma 1 foundation): the GMM radius is
/// within 2× the brute-force optimum on a deterministic instance.
#[test]
fn gmm_two_approximation_against_brute_force() {
    let points: Vec<Point> = (0..14)
        .map(|i| {
            Point::new(vec![
                (i % 3) as f64 * 40.0 + (i as f64 * 0.37) % 2.0,
                (i / 5) as f64 * 1.1,
            ])
        })
        .collect();
    for k in [2usize, 3, 4] {
        let (_, opt) = optimal_kcenter(&points, &Euclidean, k);
        let result = gmm_select(&points, &Euclidean, k, 0);
        assert!(
            result.radius <= 2.0 * opt + 1e-9,
            "k = {k}: GMM {} > 2·OPT = {}",
            result.radius,
            2.0 * opt
        );
    }
}

/// A fig4-style double sweep — several full radius searches over one
/// coreset under different parameters — must price the coreset into a
/// proxy matrix exactly once: the `CachedOracle` handle is cloned across
/// the searches and every clone reads the one lazily built cache.
#[test]
fn double_sweep_builds_the_matrix_exactly_once() {
    use kcenter_core::radius_search::{solve_coreset_cached, SearchMode};
    use kcenter_metric::CachedOracle;

    let points: Vec<Point> = (0..60)
        .map(|i| Point::new(vec![(i as f64 * 3.7) % 41.0, ((i * i) as f64 * 1.3) % 13.0]))
        .collect();
    let weights: Vec<u64> = (0..60).map(|i| 1 + (i % 4) as u64).collect();
    let oracle = CachedOracle::new(points, &Euclidean, 10_000);
    assert_eq!(oracle.build_count(), 0, "the cache must be lazy");

    // Sweep: two search modes × three outlier budgets, through clones of
    // the handle (the shape of the fig4/ablation sweeps).
    let mut radii = Vec::new();
    for mode in [SearchMode::GeometricGrid, SearchMode::ExactCandidates] {
        for z in [0u64, 3, 9] {
            let handle = oracle.clone();
            let solution = solve_coreset_cached(&handle, &weights, 4, z, 0.25, mode);
            assert!(solution.uncovered_weight <= z);
            radii.push(solution.r_min);
        }
    }
    assert_eq!(
        oracle.build_count(),
        1,
        "six radius searches must share one matrix build"
    );
    // Larger outlier budgets never increase the found radius within a mode.
    assert!(radii[0] >= radii[1] && radii[1] >= radii[2]);
    assert!(radii[3] >= radii[4] && radii[4] >= radii[5]);
}

/// Regression for a first-touch deadlock: solving over a *lazy*
/// `CachedOracle` on a multi-thread pool. When a search's first parallel
/// scan was the first cache touch, the matrix build (itself parallel,
/// inside the `OnceLock` initializer) started inside a pool task; the
/// initializing worker could steal an outer-scan unit that re-entered the
/// initializer on its own thread and every thread parked forever.
/// `solve_coreset_cached` now resolves the cache on the submitting thread
/// before any scan, and its scans read the resolved matrix, never the
/// handle. The solves run on a helper thread joined with a timeout, so a
/// regression fails the test with a diagnosis instead of wedging the whole
/// suite (the pre-fix behaviour of the ablation binary, whose shape this
/// reproduces).
#[test]
fn lazy_cached_oracle_search_on_a_pool_does_not_deadlock() {
    use kcenter_core::radius_search::{solve_coreset_cached, SearchMode};
    use kcenter_metric::CachedOracle;

    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let points: Vec<Point> = (0..300)
            .map(|i| Point::new(vec![(i as f64 * 1.7) % 53.0, (i as f64 * 0.9) % 11.0]))
            .collect();
        let weights = vec![1u64; points.len()];
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .expect("pool build");
        for mode in [SearchMode::GeometricGrid, SearchMode::ExactCandidates] {
            let oracle = CachedOracle::new(points.clone(), &Euclidean, usize::MAX);
            assert_eq!(oracle.build_count(), 0, "cache must start unresolved");
            let solution =
                pool.install(|| solve_coreset_cached(&oracle, &weights, 5, 10, 0.25, mode));
            assert!(solution.uncovered_weight <= 10);
            assert_eq!(oracle.build_count(), 1);
        }
        tx.send(()).expect("main test thread gone");
    });
    rx.recv_timeout(std::time::Duration::from_secs(120)).expect(
        "lazy first-touch solve deadlocked on the pool \
         (does solve_coreset_cached still resolve the cache before any scan?)",
    );
}

/// The two oracles must agree on the diagonal. `CosineAngular` gives
/// `[1, 2]` a positive angle to itself (about 2.1e-8: √5·√5 rounds above
/// 5), and the on-demand `PointsOracle` used to evaluate it where the
/// cached matrix reads 0. At `r = 0` the point then fell outside its own
/// ball, so a one-point coreset solved above the cache threshold reported
/// `r_min = 0` with its whole weight uncovered, more than `z`.
#[test]
fn points_oracle_reads_a_zero_diagonal_under_cosine() {
    use kcenter_core::coreset::{WeightedCoreset, WeightedPoint};
    use kcenter_core::radius_search::{solve_coreset, SearchMode};
    use kcenter_metric::{CosineAngular, Metric};

    let point = Point::new(vec![1.0, 2.0]);
    assert!(CosineAngular.distance(&point, &point) > 0.0);
    let coreset: WeightedCoreset<Point> =
        std::iter::once(WeightedPoint { point, weight: 5 }).collect();
    for threshold in [0, 10] {
        let solution = solve_coreset(
            &coreset,
            &CosineAngular,
            1,
            0,
            0.25,
            SearchMode::GeometricGrid,
            threshold,
        );
        assert_eq!(solution.r_min, 0.0, "threshold {threshold}");
        assert_eq!(
            solution.uncovered_weight, 0,
            "threshold {threshold}: a point must lie in its own ball"
        );
    }
}

/// A subnormal minimum distance used to hang the grid search. On
/// Manhattan `{0, 5e-324, 1, 2, 3}` the grid's lower end
/// `d_min/(3+4ε̂)` underflowed to 0, the step count overflowed to a
/// one-candidate grid at radius 0, and the upward extension doubled
/// `r = 0` forever. The grid now starts at the smallest positive `f64`
/// and sizes itself in log space. The run is joined with a timeout, so a
/// regression fails here instead of wedging the suite.
#[test]
fn subnormal_minimum_distance_does_not_hang_the_grid_search() {
    use kcenter_core::coreset::CoresetSpec;
    use kcenter_core::mapreduce_outliers::{mr_kcenter_outliers, MrOutliersConfig};
    use kcenter_core::solution::radius_with_outliers;
    use kcenter_metric::Manhattan;

    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let points = pts(&[0.0, 5e-324, 1.0, 2.0, 3.0]);
        let config = MrOutliersConfig::deterministic(1, 1, 2, CoresetSpec::Multiplier { mu: 2 });
        let result = mr_kcenter_outliers(&points, &Manhattan, &config).expect("valid input");
        let objective = radius_with_outliers(&points, &result.clustering.centers, 1, &Manhattan);
        tx.send((result.clustering.radius, objective))
            .expect("main test thread gone");
    });
    let (radius, objective) = rx
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("radius search over a subnormal minimum distance did not return");
    assert!(radius.is_finite(), "radius {radius}");
    assert_eq!(radius.to_bits(), objective.to_bits());
}
