//! Property-based tests for the metric substrate.

use kcenter_metric::fingerprint::checksum64;
use kcenter_metric::pairwise::diameter_bounds;
use kcenter_metric::selection::{kth_largest, kth_smallest, radius_excluding_outliers};
use kcenter_metric::{
    minimum_enclosing_ball, Chebyshev, CosineAngular, DistanceMatrix, Euclidean, Manhattan, Metric,
    Point,
};
use proptest::prelude::*;

fn arb_point(dim: usize) -> impl Strategy<Value = Point> {
    prop::collection::vec(-1e3..1e3f64, dim).prop_map(Point::new)
}

fn arb_points(dim: usize, max_n: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(arb_point(dim), 1..max_n)
}

/// Checks the four metric axioms on a triple of points.
fn assert_metric_axioms<M: Metric<Point>>(
    metric: &M,
    a: &Point,
    b: &Point,
    c: &Point,
) -> Result<(), TestCaseError> {
    let dab = metric.distance(a, b);
    let dba = metric.distance(b, a);
    let dac = metric.distance(a, c);
    let dcb = metric.distance(c, b);
    // Tolerances sized for acos-amplified rounding (acos(1-1e-16) ~ 1.5e-8).
    prop_assert!(dab >= 0.0, "non-negativity violated: {dab}");
    prop_assert!(metric.distance(a, a) <= 1e-7, "identity violated");
    prop_assert!((dab - dba).abs() <= 1e-7 * (1.0 + dab), "symmetry violated");
    prop_assert!(
        dab <= dac + dcb + 1e-7 * (1.0 + dab),
        "triangle inequality violated: d(a,b)={dab} > {dac} + {dcb}"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn euclidean_is_a_metric(
        a in arb_point(4), b in arb_point(4), c in arb_point(4)
    ) {
        assert_metric_axioms(&Euclidean, &a, &b, &c)?;
    }

    #[test]
    fn manhattan_is_a_metric(
        a in arb_point(4), b in arb_point(4), c in arb_point(4)
    ) {
        assert_metric_axioms(&Manhattan, &a, &b, &c)?;
    }

    #[test]
    fn chebyshev_is_a_metric(
        a in arb_point(4), b in arb_point(4), c in arb_point(4)
    ) {
        assert_metric_axioms(&Chebyshev, &a, &b, &c)?;
    }

    #[test]
    fn cosine_angular_is_a_metric_on_nonzero_vectors(
        a in prop::collection::vec(0.1..1e3f64, 3).prop_map(Point::new),
        b in prop::collection::vec(0.1..1e3f64, 3).prop_map(Point::new),
        c in prop::collection::vec(0.1..1e3f64, 3).prop_map(Point::new),
    ) {
        // Restricted to the positive orthant, away from zero, where the
        // angular distance is well conditioned.
        assert_metric_axioms(&CosineAngular, &a, &b, &c)?;
    }

    #[test]
    fn metric_orderings_agree_on_norm_chain(
        a in arb_point(4), b in arb_point(4)
    ) {
        // Standard norm chain: L-inf <= L2 <= L1.
        let linf = Chebyshev.distance(&a, &b);
        let l2 = Euclidean.distance(&a, &b);
        let l1 = Manhattan.distance(&a, &b);
        prop_assert!(linf <= l2 + 1e-9 * (1.0 + l2));
        prop_assert!(l2 <= l1 + 1e-9 * (1.0 + l1));
    }

    #[test]
    fn meb_contains_all_points(points in arb_points(3, 40)) {
        let ball = minimum_enclosing_ball(&points, 0.1);
        for p in &points {
            prop_assert!(ball.contains(p, 1e-6));
        }
    }

    #[test]
    fn meb_radius_at_most_diameter(points in arb_points(3, 40)) {
        // Any enclosing ball found by the iteration has radius <= the
        // diameter (it is centered inside the convex hull after step 1).
        let ball = minimum_enclosing_ball(&points, 0.1);
        let (_, hi) = diameter_bounds(&points, &Euclidean);
        prop_assert!(ball.radius <= hi + 1e-9);
    }

    #[test]
    fn selection_matches_sorting(
        mut values in prop::collection::vec(-1e6..1e6f64, 1..64),
        k_frac in 0.0..1.0f64,
    ) {
        let k = ((values.len() - 1) as f64 * k_frac) as usize;
        let mut sorted = values.clone();
        sorted.sort_by(f64::total_cmp);
        prop_assert_eq!(kth_smallest(&mut values.clone(), k), sorted[k]);
        prop_assert_eq!(kth_largest(&mut values, k), sorted[sorted.len() - 1 - k]);
    }

    #[test]
    fn radius_excluding_outliers_matches_sorting(
        values in prop::collection::vec(0.0..1e6f64, 1..64),
        z in 0usize..70,
    ) {
        let mut sorted = values.clone();
        sorted.sort_by(f64::total_cmp);
        let expected = if z >= values.len() {
            0.0
        } else {
            sorted[values.len() - 1 - z]
        };
        prop_assert_eq!(radius_excluding_outliers(&mut values.clone(), z), expected);
    }

    #[test]
    fn distance_matrix_agrees_with_direct_computation(points in arb_points(2, 24)) {
        let n = points.len();
        let m = DistanceMatrix::build_cmp(&points, &Euclidean);
        prop_assert_eq!(m.condensed().len(), n * (n - 1) / 2);
        for i in 0..n {
            for j in 0..n {
                let expect = if i == j {
                    0.0
                } else {
                    Euclidean.cmp_distance(&points[i], &points[j])
                };
                prop_assert_eq!(m.get(i, j).to_bits(), expect.to_bits());
            }
        }
    }

    #[test]
    fn diameter_bounds_hold(points in arb_points(2, 24)) {
        let (lo, hi) = diameter_bounds(&points, &Euclidean);
        let mut true_diam = 0.0f64;
        for (i, a) in points.iter().enumerate() {
            for b in &points[i + 1..] {
                true_diam = true_diam.max(Euclidean.distance(a, b));
            }
        }
        prop_assert!(lo <= true_diam + 1e-9);
        prop_assert!(hi >= true_diam - 1e-9);
    }

    /// Every single-bit flip of a 0–100-byte payload changes the store's
    /// checksum: the lengths cover the empty input, the 0–31-byte tails
    /// on their own, and one to three 32-byte blocks followed by a tail.
    #[test]
    fn checksum64_detects_every_single_bit_flip(
        payload in prop::collection::vec(0u8..=255, 0..101)
    ) {
        let base = checksum64(&payload);
        for bit in 0..payload.len() * 8 {
            let mut flipped = payload.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            prop_assert!(checksum64(&flipped) != base, "flip of bit {bit} unseen");
        }
    }
}
