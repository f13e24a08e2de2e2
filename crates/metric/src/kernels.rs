//! Block distance kernels over structure-of-arrays points.
//!
//! The batched entry points ([`cmp_block`], [`cosine_block`]) evaluate one
//! query against a block of points, four points per iteration: one
//! accumulator lane per point, in safe Rust that the compiler vectorizes
//! for its baseline target. Remainder points (block length not a multiple
//! of four) run the scalar reference kernels.
//!
//! # Bit-identity
//!
//! Lane `l` performs exactly the per-dimension sequential chain the scalar
//! kernel performs for point `l` — subtract, square-or-abs, accumulate — in
//! the same order, with the same IEEE-754 operations, and **no FMA** (Rust
//! never fuses a multiply and an add on its own; fused rounding would
//! change results). Lanes start at `0.0` where the scalar sums start at
//! `-0.0`; points have at least one coordinate, and adding a non-negative
//! first term to either zero gives that term, so the chains agree from the
//! first step on. The Chebyshev max is a compare-and-select that only ever
//! sees finite, non-negative values (the finite-point invariant excludes
//! `NaN`; `abs` excludes `-0.0`), the one regime where it picks what
//! `f64::max` picks, bit for bit. Consequently the block kernels return the
//! scalar kernels' bits, which is what lets the golden figures and the exec
//! determinism suite stay byte-identical.

use crate::pointset::Coordinates;

/// The difference-chain metrics the shared block kernel covers.
/// [`crate::CosineAngular`] needs three accumulators and an `acos`
/// epilogue, so it has its own entry points ([`cosine_block`]) rather
/// than a variant here.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelMetric {
    /// Squared-distance proxy chain: `acc += (q[d] - r[d])²`.
    Euclidean,
    /// L1 chain: `acc += |q[d] - r[d]|`.
    Manhattan,
    /// L∞ chain: `acc = max(acc, |q[d] - r[d]|)`.
    Chebyshev,
}

/// Points per block-kernel iteration; eight measured no faster overall.
const LANES: usize = 4;

/// Scalar comparison-proxy kernel for one pair — **the reference**: these
/// are character-for-character the accumulation chains of the scalar
/// `Metric` implementations, and the contract the block kernel is held
/// to bitwise.
#[inline]
pub fn scalar_cmp(kind: KernelMetric, q: &[f64], r: &[f64]) -> f64 {
    debug_assert_eq!(q.len(), r.len(), "dimension mismatch");
    match kind {
        KernelMetric::Euclidean => q
            .iter()
            .zip(r)
            .map(|(x, y)| {
                let d = x - y;
                d * d
            })
            .sum(),
        KernelMetric::Manhattan => q.iter().zip(r).map(|(x, y)| (x - y).abs()).sum(),
        KernelMetric::Chebyshev => q
            .iter()
            .zip(r)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max),
    }
}

/// Scalar reference implementation of [`cmp_block`], exported so parity
/// tests can pin the block kernel against it.
pub fn cmp_block_scalar<P: Coordinates>(
    kind: KernelMetric,
    query: &[f64],
    block: &[P],
    out: &mut [f64],
) {
    assert_eq!(block.len(), out.len(), "output length mismatch");
    for (o, p) in out.iter_mut().zip(block) {
        *o = scalar_cmp(kind, query, p.coords());
    }
}

/// Comparison proxies of `query` against every point of `block`, written
/// into `out` (`out[i] = cmp(query, block[i])`): the squared distance for
/// [`KernelMetric::Euclidean`], the true distance for the L1/L∞ kernels.
///
/// Bit-identical to calling the scalar kernel per point.
///
/// # Panics
///
/// Panics if `out.len() != block.len()`.
pub fn cmp_block<P: Coordinates>(kind: KernelMetric, query: &[f64], block: &[P], out: &mut [f64]) {
    assert_eq!(block.len(), out.len(), "output length mismatch");
    // One match per block: each arm inlines the lane loop with a constant
    // kind, so no branch is left inside the per-dimension loop.
    match kind {
        KernelMetric::Euclidean => cmp_block_lanes(KernelMetric::Euclidean, query, block, out),
        KernelMetric::Manhattan => cmp_block_lanes(KernelMetric::Manhattan, query, block, out),
        KernelMetric::Chebyshev => cmp_block_lanes(KernelMetric::Chebyshev, query, block, out),
    }
}

#[inline(always)]
fn cmp_block_lanes<P: Coordinates>(
    kind: KernelMetric,
    query: &[f64],
    block: &[P],
    out: &mut [f64],
) {
    let mut groups = block.chunks_exact(LANES);
    let mut outs = out.chunks_exact_mut(LANES);
    for (g, o) in groups.by_ref().zip(outs.by_ref()) {
        o.copy_from_slice(&cmp_lanes(kind, query, rows(query, g)));
    }
    for (o, p) in outs.into_remainder().iter_mut().zip(groups.remainder()) {
        *o = scalar_cmp(kind, query, p.coords());
    }
}

/// The coordinate rows of one group, each sliced to the query's length so
/// the lane loops index them without bounds checks.
#[inline(always)]
fn rows<'a, P: Coordinates>(query: &[f64], group: &'a [P]) -> [&'a [f64]; LANES] {
    std::array::from_fn(|l| &group[l].coords()[..query.len()])
}

/// [`scalar_cmp`]'s chain for four points at once, one lane per point.
#[inline(always)]
fn cmp_lanes(kind: KernelMetric, q: &[f64], r: [&[f64]; LANES]) -> [f64; LANES] {
    let mut acc = [0.0f64; LANES];
    for (d, &x) in q.iter().enumerate() {
        for (a, row) in acc.iter_mut().zip(r) {
            let diff = x - row[d];
            *a = match kind {
                KernelMetric::Euclidean => *a + diff * diff,
                KernelMetric::Manhattan => *a + diff.abs(),
                // `f64::max` keeps the lanes scalar; this select
                // vectorizes and picks the same bits here (see the module
                // doc).
                KernelMetric::Chebyshev => {
                    let m = diff.abs();
                    if m > *a {
                        m
                    } else {
                        *a
                    }
                }
            };
        }
    }
    acc
}

/// Scalar cosine-angular chain for one pair — **the reference**:
/// character-for-character the accumulation chain of
/// [`crate::CosineAngular`]'s `distance`, ending in the shared
/// `cosine_finish` epilogue.
#[inline]
pub fn scalar_cosine(q: &[f64], r: &[f64]) -> f64 {
    debug_assert_eq!(q.len(), r.len(), "dimension mismatch");
    let (mut dot, mut na, mut nb) = (0.0, 0.0, 0.0);
    for (x, y) in q.iter().zip(r) {
        dot += x * y;
        na += x * x;
        nb += y * y;
    }
    cosine_finish(dot, na, nb)
}

/// The zero-vector boundary + clamp + `acos` epilogue every cosine path
/// funnels through, scalar per lane, so the block kernel only ever
/// vectorizes the bit-exact accumulation chains.
#[inline]
fn cosine_finish(dot: f64, na: f64, nb: f64) -> f64 {
    if na == 0.0 && nb == 0.0 {
        return 0.0;
    }
    if na == 0.0 || nb == 0.0 {
        return std::f64::consts::FRAC_PI_2;
    }
    // Clamp for floating-point drift before acos.
    (dot / (na.sqrt() * nb.sqrt())).clamp(-1.0, 1.0).acos()
}

/// Scalar reference implementation of [`cosine_block`], exported so parity
/// tests can pin the block kernel against it.
pub fn cosine_block_scalar<P: Coordinates>(query: &[f64], block: &[P], out: &mut [f64]) {
    assert_eq!(block.len(), out.len(), "output length mismatch");
    for (o, p) in out.iter_mut().zip(block) {
        *o = scalar_cosine(query, p.coords());
    }
}

/// Angular distances of `query` against every point of `block`, written
/// into `out` (`out[i] = arccos(cos_sim(query, block[i]))`, with the
/// zero-vector conventions of [`crate::CosineAngular`]).
///
/// Bit-identity argument, lane-per-point as in [`cmp_block`]: the three
/// accumulators are independent sequential sums, so interleaving does not
/// affect any of them. Lane `l`'s `dot`/`nb` accumulators perform exactly
/// the scalar per-dimension chain for point `l` — multiply, add, **no
/// FMA** — and the query's self-dot `na` depends on the query alone, so
/// one accumulation (the same op sequence the scalar kernel runs per
/// point) serves every lane. The epilogue (`cosine_finish`) is scalar per
/// lane. Remainder points run the scalar kernel.
///
/// # Panics
///
/// Panics if `out.len() != block.len()`.
pub fn cosine_block<P: Coordinates>(query: &[f64], block: &[P], out: &mut [f64]) {
    assert_eq!(block.len(), out.len(), "output length mismatch");
    let mut na = 0.0;
    for &x in query {
        na += x * x;
    }
    let mut groups = block.chunks_exact(LANES);
    let mut outs = out.chunks_exact_mut(LANES);
    for (g, o) in groups.by_ref().zip(outs.by_ref()) {
        let r = rows(query, g);
        let (mut dot, mut nb) = ([0.0f64; LANES], [0.0f64; LANES]);
        for (d, &x) in query.iter().enumerate() {
            for l in 0..LANES {
                let y = r[l][d];
                dot[l] += x * y;
                nb[l] += y * y;
            }
        }
        for (l, o) in o.iter_mut().enumerate() {
            *o = cosine_finish(dot[l], na, nb[l]);
        }
    }
    for (o, p) in outs.into_remainder().iter_mut().zip(groups.remainder()) {
        *o = scalar_cosine(query, p.coords());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point;

    fn pts(rows: &[&[f64]]) -> Vec<Point> {
        rows.iter().map(|r| Point::new(r.to_vec())).collect()
    }

    const KINDS: [KernelMetric; 3] = [
        KernelMetric::Euclidean,
        KernelMetric::Manhattan,
        KernelMetric::Chebyshev,
    ];

    #[test]
    fn dispatched_kernels_match_scalar_bitwise() {
        // Odd block length exercises the remainder lanes.
        let block = pts(&[
            &[1.0, 2.0, 3.0],
            &[-1.5, 0.25, 9.0],
            &[0.0, -0.0, 1e-300],
            &[7.0, 7.0, 7.0],
            &[2.5, -3.5, 4.5],
            &[1.0, 2.0, 3.0],
            &[-8.0, 1e12, -1e-12],
        ]);
        let query = [0.5, -2.0, 3.25];
        for kind in KINDS {
            let mut auto = vec![0.0; block.len()];
            let mut scalar = vec![0.0; block.len()];
            cmp_block(kind, &query, &block, &mut auto);
            cmp_block_scalar(kind, &query, &block, &mut scalar);
            for (a, s) in auto.iter().zip(&scalar) {
                assert_eq!(a.to_bits(), s.to_bits(), "{kind:?}");
            }
        }
    }

    #[test]
    fn dispatched_cosine_kernel_matches_scalar_bitwise() {
        // Odd block length exercises the remainder lanes; zero rows
        // exercise the per-lane boundary epilogue.
        let block = pts(&[
            &[1.0, 2.0, 3.0],
            &[0.0, 0.0, 0.0],
            &[-1.5, 0.25, 9.0],
            &[1.0, 2.0, 3.0],
            &[-2.0, -4.0, -6.0],
            &[1e-300, -1e150, 2.5],
            &[0.5, -2.0, 3.25],
        ]);
        for query in [[0.5, -2.0, 3.25], [0.0, 0.0, 0.0]] {
            let mut auto = vec![0.0; block.len()];
            let mut scalar = vec![0.0; block.len()];
            cosine_block(&query, &block, &mut auto);
            cosine_block_scalar(&query, &block, &mut scalar);
            for (i, (a, s)) in auto.iter().zip(&scalar).enumerate() {
                assert_eq!(a.to_bits(), s.to_bits(), "point {i} query {query:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "output length mismatch")]
    fn cmp_block_rejects_length_mismatch() {
        let block = pts(&[&[1.0]]);
        let mut out = [0.0; 2];
        cmp_block(KernelMetric::Euclidean, &[0.0], &block, &mut out);
    }
}
