//! Bitwise parity between the batched block kernels and the scalar
//! point-at-a-time paths — the contract every hot loop in the workspace
//! (GMM scans, matrix builds, ball-weight passes, the streaming doubling
//! scan) relies on when it swaps `cmp_distance` for `cmp_distance_block`.
//!
//! Each property drives the four-lane block kernels against the
//! trait-default scalar loops, over both owned `Point` slices and
//! zero-copy `PointSet` views, and demands equality of raw bit patterns,
//! not approximate agreement. It also pins the round trip matrix reads
//! rely on: a cached proxy converted back with `cmp_to_distance` must be
//! bitwise the metric's `distance`; and the symmetry `OutliersCluster`'s
//! one read per pair relies on: `cmp(a, b)` and `cmp(b, a)` have the same
//! bits, scalar and block. Inputs deliberately include `-0.0`,
//! subnormals, duplicate-heavy sets, and block lengths that are not a
//! multiple of the lane count (remainder lanes).

use kcenter_metric::kernels::{self, KernelMetric};
use kcenter_metric::{
    Chebyshev, CosineAngular, Euclidean, Manhattan, Metric, Point, PointRef, PointSet,
};
use proptest::prelude::*;

/// Bit-pattern-sensitive coordinates: signed zero, subnormals, values at
/// the magnitude extremes of the generation range.
const SPECIALS: [f64; 8] = [
    -0.0,
    0.0,
    1e-300,
    -1e-300,
    f64::MIN_POSITIVE / 2.0, // subnormal
    -f64::MIN_POSITIVE / 2.0,
    1e3,
    -7.25,
];

fn arb_coord() -> impl Strategy<Value = f64> {
    // Half uniform draws, half special values.
    (0usize..16, -1e3..1e3f64).prop_map(|(i, x)| if i < 8 { x } else { SPECIALS[i - 8] })
}

/// `1 + n` points (a query plus a block) of the given dimension.
fn arb_points(dim: usize, max_n: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(
        prop::collection::vec(arb_coord(), dim).prop_map(Point::new),
        2..max_n,
    )
}

/// Duplicate-heavy sets: a handful of base points fanned out by an index
/// stream, so ties (`cmp == 0.0` between distinct slots) are the norm.
fn arb_duplicate_heavy(dim: usize) -> impl Strategy<Value = Vec<Point>> {
    (arb_points(dim, 6), prop::collection::vec(0usize..16, 4..40)).prop_map(|(base, idx)| {
        idx.into_iter()
            .map(|i| base[i % base.len()].clone())
            .collect()
    })
}

/// The parity oracle: `points[0]` is the query, the rest the block.
///
/// Checks the block method against the scalar trait default, on owned
/// `Point`s and on `PointRef` views of a `PointSet` built from the same
/// coordinates, and checks that every proxy converts back to the scalar
/// distance — all bitwise.
fn check_parity<M>(metric: &M, points: &[Point]) -> Result<(), TestCaseError>
where
    M: for<'a> Metric<PointRef<'a>> + Metric<Point>,
{
    let query = &points[0];
    let block = &points[1..];
    let n = block.len();

    // Scalar reference: the point-at-a-time method the default loops.
    let mut cmp_ref = vec![0.0f64; n];
    for (j, b) in block.iter().enumerate() {
        cmp_ref[j] = Metric::<Point>::cmp_distance(metric, query, b);
    }

    // Block kernel over the owned slice.
    let mut cmp_blk = vec![0.0f64; n];
    metric.cmp_distance_block(query, block, &mut cmp_blk);
    for j in 0..n {
        prop_assert_eq!(cmp_blk[j].to_bits(), cmp_ref[j].to_bits());
    }

    // The same kernel over zero-copy views of the SoA set.
    let set = PointSet::from_points(points);
    let q = set.get(0);
    let refs: Vec<PointRef<'_>> = set.iter().skip(1).collect();
    let mut cmp_set = vec![0.0f64; n];
    metric.cmp_distance_block(&q, &refs, &mut cmp_set);
    for j in 0..n {
        prop_assert_eq!(cmp_set[j].to_bits(), cmp_ref[j].to_bits());
    }

    // The round trip `CmpMatrixRef::dist` relies on: a proxy-matrix entry
    // converted back is bitwise the metric's distance.
    for (j, b) in block.iter().enumerate() {
        let round_trip = Metric::<Point>::cmp_to_distance(metric, cmp_ref[j]);
        let dist = Metric::<Point>::distance(metric, query, b);
        prop_assert_eq!(round_trip.to_bits(), dist.to_bits());
    }

    Ok(())
}

/// Bitwise symmetry, `cmp(a, b) == cmp(b, a)`, of the scalar method and
/// of the block kernel for every ordered pair of `points`. The
/// upper-triangle pass of `OutliersCluster` reads each pair once, with
/// the lower index as the query, and relies on it.
fn check_symmetry<M: Metric<Point>>(metric: &M, points: &[Point]) -> Result<(), TestCaseError> {
    let n = points.len();
    let rows: Vec<Vec<f64>> = points
        .iter()
        .map(|q| {
            let mut row = vec![0.0f64; n];
            metric.cmp_distance_block(q, points, &mut row);
            row
        })
        .collect();
    for i in 0..n {
        for j in 0..n {
            let (ab, ba) = (
                metric.cmp_distance(&points[i], &points[j]),
                metric.cmp_distance(&points[j], &points[i]),
            );
            prop_assert!(
                ab.to_bits() == ba.to_bits(),
                "scalar ({i}, {j}): {ab:e} vs {ba:e}"
            );
            let (ab, ba) = (rows[i][j], rows[j][i]);
            prop_assert!(
                ab.to_bits() == ba.to_bits(),
                "block ({i}, {j}): {ab:e} vs {ba:e}"
            );
        }
    }
    Ok(())
}

fn check_symmetry_all_metrics(points: &[Point]) -> Result<(), TestCaseError> {
    check_symmetry(&Euclidean, points)?;
    check_symmetry(&Manhattan, points)?;
    check_symmetry(&Chebyshev, points)?;
    check_symmetry(&CosineAngular, points)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn euclidean_block_kernels_match_scalar(points in arb_points(3, 24)) {
        check_parity(&Euclidean, &points)?;
    }

    #[test]
    fn manhattan_block_kernels_match_scalar(points in arb_points(2, 24)) {
        check_parity(&Manhattan, &points)?;
    }

    #[test]
    fn chebyshev_block_kernels_match_scalar(points in arb_points(5, 20)) {
        check_parity(&Chebyshev, &points)?;
    }

    #[test]
    fn cosine_angular_block_kernels_match_scalar(points in arb_points(3, 24)) {
        // The three-accumulator cosine kernel (lane per point, shared
        // query self-dot, scalar per-lane acos epilogue) against the
        // scalar trait path — including zero vectors, signed zeros, and
        // subnormals from the shared special palette, which exercise the
        // per-lane boundary epilogue.
        check_parity(&CosineAngular, &points)?;
    }

    #[test]
    fn cosine_angular_zero_and_duplicate_vectors_stay_bit_identical(
        points in arb_duplicate_heavy(3),
    ) {
        check_parity(&CosineAngular, &points)?;
    }

    #[test]
    fn duplicate_heavy_sets_stay_bit_identical(points in arb_duplicate_heavy(3)) {
        check_parity(&Euclidean, &points)?;
        check_parity(&Manhattan, &points)?;
        check_parity(&Chebyshev, &points)?;
    }

    #[test]
    fn cmp_distance_is_bitwise_symmetric(
        points in arb_points(50, 12),
        duplicates in arb_duplicate_heavy(7),
        dim_index in 0usize..3,
    ) {
        // 1, 7 or 50 coordinates of each point; blocks of 2–11 points
        // leave every remainder-lane count.
        let dim = [1, 7, 50][dim_index];
        let truncated: Vec<Point> = points
            .iter()
            .map(|p| Point::new(p.coords()[..dim].to_vec()))
            .collect();
        check_symmetry_all_metrics(&truncated)?;
        check_symmetry_all_metrics(&duplicates)?;
    }

    #[test]
    fn single_point_blocks_and_dimension_one(points in arb_points(1, 4)) {
        // The degenerate shapes: dim-1 points, blocks of length 1-2 (all
        // remainder, no full four-lane group).
        check_parity(&Euclidean, &points)?;
        check_parity(&Chebyshev, &points)?;
    }
}

/// Remainder lanes, pinned deterministically: block lengths 1..=9 cover
/// zero, one and two full four-lane groups with every remainder, from 1-d
/// up to the 50-d points the serve benchmark streams and round 1 scans
/// in full. The same sets pin the symmetry of every metric.
#[test]
fn every_remainder_lane_is_bitwise_identical() {
    let palette = [
        0.25, -0.0, 1e-300, 739.5, -1e3, 0.1, -0.125, 64.0, 5e-324, 2.5,
    ];
    for dim in [1usize, 2, 3, 7, 50] {
        for n in 1usize..=9 {
            let points: Vec<Point> = (0..n + 1)
                .map(|i| {
                    Point::new(
                        (0..dim)
                            .map(|d| palette[(i * dim + d) % palette.len()])
                            .collect(),
                    )
                })
                .collect();
            check_symmetry_all_metrics(&points)
                .unwrap_or_else(|e| panic!("dim={dim} n={n}: {e:?}"));
            let query = points[0].coords();
            let block = &points[1..];
            for kind in [
                KernelMetric::Euclidean,
                KernelMetric::Manhattan,
                KernelMetric::Chebyshev,
            ] {
                let mut dispatched = vec![0.0f64; n];
                kernels::cmp_block(kind, query, block, &mut dispatched);
                let mut scalar = vec![0.0f64; n];
                kernels::cmp_block_scalar(kind, query, block, &mut scalar);
                for j in 0..n {
                    assert_eq!(
                        dispatched[j].to_bits(),
                        scalar[j].to_bits(),
                        "{kind:?} dim={dim} n={n} lane {j}: {} vs {}",
                        dispatched[j],
                        scalar[j]
                    );
                }
            }
            // Cosine has its own entry points (not a `KernelMetric`), so
            // its remainder lanes are pinned here explicitly.
            let mut dispatched = vec![0.0f64; n];
            kernels::cosine_block(query, block, &mut dispatched);
            let mut scalar = vec![0.0f64; n];
            kernels::cosine_block_scalar(query, block, &mut scalar);
            for j in 0..n {
                assert_eq!(
                    dispatched[j].to_bits(),
                    scalar[j].to_bits(),
                    "cosine dim={dim} n={n} lane {j}: {} vs {}",
                    dispatched[j],
                    scalar[j]
                );
            }
        }
    }
}

/// A `PointSet` loaded by copy and the original owned points are fully
/// interchangeable inputs to the kernels — the guarantee that lets the
/// exec worker swap `Vec<Point>` for mapped shard views.
#[test]
fn pointset_views_are_interchangeable_with_owned_points() {
    let points: Vec<Point> = (0..13)
        .map(|i| Point::new(vec![i as f64 * 0.3, -0.0, 1e-300 * (i + 1) as f64]))
        .collect();
    let set = PointSet::from_points(&points);
    let refs: Vec<PointRef<'_>> = set.iter().collect();
    let mut from_points = vec![0.0f64; points.len() - 1];
    Euclidean.cmp_distance_block(&points[0], &points[1..], &mut from_points);
    let mut from_refs = vec![0.0f64; points.len() - 1];
    Euclidean.cmp_distance_block(&refs[0], &refs[1..], &mut from_refs);
    for (a, b) in from_refs.iter().zip(&from_points) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}
