//! Property tests for the artifact codec: encode → decode must be the
//! identity on the *bit patterns* of every `f64`, and decoding must turn
//! arbitrary corruption into a clean [`DecodeError`] — never a panic,
//! never a silently wrong value.

use kcenter_metric::Point;
use kcenter_store::codec::{
    decode_coreset, decode_session, decode_shard, decode_solution, encode_coreset, encode_solution,
    StoredSolution,
};
use proptest::prelude::*;

/// Finite-coordinate points of one fixed dimension plus weights.
fn arb_coreset(dim: usize) -> impl Strategy<Value = (Vec<Point>, Vec<u64>)> {
    prop::collection::vec(
        (prop::collection::vec(-1e12..1e12f64, dim), 0u64..u64::MAX),
        0..40,
    )
    .prop_map(|rows| {
        rows.into_iter()
            .map(|(coords, w)| (Point::new(coords), w))
            .unzip()
    })
}

fn bits_of(points: &[Point]) -> Vec<Vec<u64>> {
    points
        .iter()
        .map(|p| p.coords().iter().map(|c| c.to_bits()).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn coreset_round_trip_is_bitwise((points, weights) in arb_coreset(3)) {
        let bytes = encode_coreset(&points, &weights);
        let (p2, w2) = decode_coreset(&bytes).expect("valid encoding must decode");
        prop_assert_eq!(&w2, &weights);
        prop_assert_eq!(bits_of(&p2), bits_of(&points));
    }

    #[test]
    fn solution_round_trip_is_bitwise(
        (points, _) in arb_coreset(2),
        radius in 0.0..1e9f64,
        uncovered in 0u64..u64::MAX,
        evals in 0u64..u64::MAX,
    ) {
        let solution = StoredSolution {
            centers: points,
            radius,
            uncovered_weight: uncovered,
            evaluations: evals,
        };
        let back = decode_solution(&encode_solution(&solution))
            .expect("valid encoding must decode");
        prop_assert_eq!(back.radius.to_bits(), solution.radius.to_bits());
        prop_assert_eq!(back.uncovered_weight, solution.uncovered_weight);
        prop_assert_eq!(back.evaluations, solution.evaluations);
        prop_assert_eq!(bits_of(&back.centers), bits_of(&solution.centers));
    }

    #[test]
    fn any_truncation_is_a_clean_miss(
        (points, weights) in arb_coreset(2),
        frac in 0.0..1.0f64,
    ) {
        let bytes = encode_coreset(&points, &weights);
        let cut = ((bytes.len() as f64) * frac) as usize;
        // Strictly shorter than the valid encoding.
        let cut = cut.min(bytes.len().saturating_sub(1));
        prop_assert!(decode_coreset(&bytes[..cut]).is_err());
    }

    #[test]
    fn any_single_byte_flip_is_a_clean_miss(
        (points, weights) in arb_coreset(2),
        pos_frac in 0.0..1.0f64,
        flip in 1u8..=255,
    ) {
        let mut bytes = encode_coreset(&points, &weights);
        let pos = ((bytes.len() as f64) * pos_frac) as usize;
        let pos = pos.min(bytes.len() - 1);
        bytes[pos] ^= flip;
        // Header flips fail structurally; payload flips fail the
        // checksum. Either way: an error, never a panic, never data.
        prop_assert!(decode_coreset(&bytes).is_err(), "flip at {pos} undetected");
    }

    #[test]
    fn decoding_arbitrary_garbage_never_panics(
        bytes in prop::collection::vec(0u8..=255, 0..200)
    ) {
        let _ = decode_coreset(&bytes);
        let _ = decode_solution(&bytes);
        let _ = decode_shard(&bytes);
        let _ = decode_session(&bytes);
    }
}
