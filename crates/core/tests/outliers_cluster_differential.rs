//! Differential suite for `OutliersCluster`.
//!
//! `outliers_cluster` reads each pair once, with the lower index as the
//! query, and keeps the selection-ball relation as a bitset of 64-bit
//! words. `outliers_cluster_naive` recomputes every ball weight from
//! scalar `cmp_dist` lookups at every step. Both must return the same
//! centers, uncovered points and uncovered weight:
//!
//! - under every named metric (Euclidean, Manhattan, Chebyshev,
//!   `CosineAngular`);
//! - through both oracles (`PointsOracle`, and `CmpMatrixRef` over
//!   `DistanceMatrix::build_cmp`), which must also agree bitwise on every
//!   pair, the diagonal included;
//! - at sizes on both sides of the bitset's word boundaries;
//! - at radii placed exactly on a pairwise distance, and on that distance
//!   divided by the ball factor `1+2ε̂` and the cover factor `3+4ε̂`;
//! - with duplicate points, zero weights and `k ≥ n`.
//!
//! The pool size is the ambient one; CI runs this file at
//! `RAYON_NUM_THREADS=1` and `=4`.

use proptest::prelude::*;

use kcenter_core::outliers_cluster::{
    outliers_cluster, outliers_cluster_naive, CmpMatrixRef, DistanceOracle, PointsOracle,
};
use kcenter_metric::{
    Chebyshev, CosineAngular, DistanceMatrix, Euclidean, Manhattan, Metric, Point,
};

/// Asserts that both oracles agree on every pair and that the one-read
/// cover matches the naive cover through each of them, for every
/// `(k, r)`.
fn assert_covers_match<M: Metric<Point>>(
    metric: &M,
    points: &[Point],
    weights: &[u64],
    cases: &[(usize, f64)],
    eps_hat: f64,
) -> Result<(), String> {
    let matrix = DistanceMatrix::build_cmp(points, metric);
    let cached = CmpMatrixRef::<Point, M>::new(&matrix, metric);
    let on_demand = PointsOracle::new(points, metric);
    let n = points.len();
    for i in 0..n {
        for j in 0..n {
            let (a, b) = (on_demand.cmp_dist(i, j), cached.cmp_dist(i, j));
            if a.to_bits() != b.to_bits() {
                return Err(format!("oracles disagree at ({i},{j}): {a:e} vs {b:e}"));
            }
        }
    }
    for &(k, r) in cases {
        let reference = outliers_cluster_naive(&cached, weights, k, r, eps_hat);
        let from_matrix = outliers_cluster(&cached, weights, k, r, eps_hat);
        let from_points = outliers_cluster(&on_demand, weights, k, r, eps_hat);
        for (oracle, got) in [("matrix", from_matrix), ("points", from_points)] {
            if got != reference {
                return Err(format!(
                    "{oracle} oracle diverges at n={n}, k={k}, r={r:e}, eps_hat={eps_hat}:\n  \
                     got {got:?}\n  naive {reference:?}"
                ));
            }
        }
    }
    Ok(())
}

/// Radii on the boundaries the cover tests: each pairwise distance
/// `d(i, j)` itself, `d/(1+2ε̂)` (the selection ball reaches `j` from `i`
/// exactly) and `d/(3+4ε̂)` (the removal ball does).
fn boundary_radii<M: Metric<Point>>(
    metric: &M,
    points: &[Point],
    pairs: &[(usize, usize)],
    eps_hat: f64,
) -> Vec<f64> {
    let mut radii = Vec::new();
    for &(i, j) in pairs {
        let d = metric.distance(&points[i], &points[j]);
        radii.extend([d, d / (1.0 + 2.0 * eps_hat), d / (3.0 + 4.0 * eps_hat)]);
    }
    radii
}

/// A deterministic `n`-point set in `dim` dimensions: three loose
/// clusters, the origin at index 2 (a zero vector, for the angular
/// metric's conventions), and a duplicate of an earlier point at every
/// fifth index.
fn instance(n: usize, dim: usize) -> Vec<Point> {
    let mut points: Vec<Point> = Vec::with_capacity(n);
    for i in 0..n {
        let point = if i % 5 == 4 {
            points[i / 2].clone()
        } else if i == 2 {
            Point::new(vec![0.0; dim])
        } else {
            let center = (i % 3) as f64 * 40.0 - 40.0;
            Point::new(
                (0..dim)
                    .map(|d| center + ((i * 31 + d * 17) as f64 * 0.618).sin() * 25.0)
                    .collect(),
            )
        };
        points.push(point);
    }
    points
}

/// The boundary sweep of one point set under one metric: `r = 0`, a
/// radius past the diameter, and the boundary radii of three pairs, each
/// at every `k` of `ks`.
fn sweep<M: Metric<Point>>(
    metric: &M,
    points: &[Point],
    weights: &[u64],
    ks: &[usize],
    eps_hat: f64,
) -> Result<(), String> {
    let n = points.len();
    let pairs = [(0, n - 1), (n / 3, n / 2), (1.min(n - 1), n * 2 / 3)];
    let cases: Vec<(usize, f64)> = [0.0, 1e9]
        .into_iter()
        .chain(boundary_radii(metric, points, &pairs, eps_hat))
        .flat_map(|r| ks.iter().map(move |&k| (k, r)))
        .collect();
    assert_covers_match(metric, points, weights, &cases, eps_hat)
}

/// Sizes one short of, at, and one past each of the first bitset word
/// boundaries, 1-, 7- and 50-d, under all four metrics.
#[test]
fn word_boundary_sizes_match_the_naive_cover() {
    let eps_hat = 0.25;
    for n in [1usize, 2, 63, 64, 65, 127, 128, 129, 200, 257] {
        for dim in [1usize, 7, 50] {
            let points = instance(n, dim);
            // Zero weights on every fourth point.
            let weights: Vec<u64> = (0..n).map(|i| (i % 4) as u64 * 3).collect();
            let mut ks = vec![1usize, 3];
            if n <= 65 {
                ks.extend([n, n + 2]);
            }
            sweep(&Euclidean, &points, &weights, &ks, eps_hat)
                .and_then(|()| sweep(&Manhattan, &points, &weights, &ks, eps_hat))
                .and_then(|()| sweep(&Chebyshev, &points, &weights, &ks, eps_hat))
                .and_then(|()| sweep(&CosineAngular, &points, &weights, &ks, eps_hat))
                .unwrap_or_else(|e| panic!("n={n} dim={dim}: {e}"));
        }
    }
}

/// All points identical: every ball holds every point at any radius,
/// `r = 0` included, past one word.
#[test]
fn all_duplicates_match_the_naive_cover() {
    for n in [64usize, 65, 130] {
        let points = vec![Point::new(vec![1.5, -2.0, 0.25]); n];
        let weights: Vec<u64> = (0..n).map(|i| (i % 3) as u64).collect();
        let cases = [(1, 0.0), (2, 0.0), (1, 1.0)];
        assert_covers_match(&Euclidean, &points, &weights, &cases, 0.0).unwrap();
        assert_covers_match(&CosineAngular, &points, &weights, &cases, 0.5).unwrap();
    }
}

/// A weighted instance of up to about 200 points with duplicates, 1-, 2-
/// or 7-d.
fn arb_instance() -> impl Strategy<Value = (Vec<Point>, Vec<u64>)> {
    (
        prop::collection::vec(prop::collection::vec(-100.0..100.0f64, 7), 1..190),
        prop::collection::vec(0usize..1000, 0..12),
        0usize..3,
        prop::collection::vec(0u64..20, 1..16),
    )
        .prop_map(|(base, duplicates, dim_index, weight_seed)| {
            let dim = [1, 2, 7][dim_index];
            let mut points: Vec<Point> = base
                .iter()
                .map(|coords| Point::new(coords[..dim].to_vec()))
                .collect();
            for d in duplicates {
                points.push(points[d % base.len()].clone());
            }
            let weights = (0..points.len())
                .map(|i| weight_seed[i % weight_seed.len()])
                .collect();
            (points, weights)
        })
}

/// One property case under `metric`: the random radius `r` when
/// `boundary` is 0, otherwise boundary radius `boundary − 1` of `pair`.
#[allow(clippy::too_many_arguments)]
fn property_case<M: Metric<Point>>(
    metric: &M,
    points: &[Point],
    weights: &[u64],
    k: usize,
    pair: (usize, usize),
    boundary: usize,
    r: f64,
    eps_hat: f64,
) -> Result<(), TestCaseError> {
    let r = match boundary {
        0 => r,
        b => boundary_radii(metric, points, &[pair], eps_hat)[b - 1],
    };
    assert_covers_match(metric, points, weights, &[(k, r)], eps_hat).map_err(TestCaseError::fail)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The one-read and naive implementations agree exactly on arbitrary
    /// weighted instances, under every metric, through both oracles, at a
    /// random radius or one placed on a ball or cover boundary.
    #[test]
    fn outliers_cluster_implementations_agree(
        instance in arb_instance(),
        k in 1usize..8,
        pair in (0usize..1000, 0usize..1000),
        boundary in 0usize..4,
        r in 0.0..250.0f64,
        eps_hat in 0.0..1.0f64,
    ) {
        let (points, weights) = instance;
        let pair = (pair.0 % points.len(), pair.1 % points.len());
        let (p, w) = (&points, &weights);
        property_case(&Euclidean, p, w, k, pair, boundary, r, eps_hat)?;
        property_case(&Manhattan, p, w, k, pair, boundary, r, eps_hat)?;
        property_case(&Chebyshev, p, w, k, pair, boundary, r, eps_hat)?;
        // Angles live in [0, π]: scale the random radius into that range.
        property_case(&CosineAngular, p, w, k, pair, boundary, r / 80.0, eps_hat)?;
    }
}
