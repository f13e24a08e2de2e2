//! `OutliersCluster` — the weighted greedy disk cover (paper Algorithm 1).
//!
//! Given a weighted coreset `T`, a center budget `k`, a radius guess `r`,
//! and a precision `ε̂`, the algorithm repeatedly picks the point whose ball
//! of radius `(1+2ε̂)·r` has the largest aggregate *uncovered* weight, makes
//! it a center, and marks everything within `(3+4ε̂)·r` of it covered. It
//! stops after `k` centers or when nothing is uncovered. Lemma 5 shows that
//! whenever `r ≥ r*_{k,z}(S)`, the weight left uncovered is at most `z`.
//!
//! Two implementations are provided:
//!
//! * [`outliers_cluster`] — incremental ball-weight maintenance: ball
//!   weights are computed once (`O(|T|²)` distance evaluations,
//!   rayon-parallel) and *updated* as points become covered, so a full run
//!   costs `O(|T|²)` instead of the naive `O(k·|T|²)`;
//! * [`outliers_cluster_naive`] — the textbook loop, kept as the ablation
//!   baseline and as a differential-testing oracle (both must return
//!   identical results).
//!
//! Both run on a [`DistanceOracle`]: [`CmpMatrixRef`] over the proxy-scale
//! [`DistanceMatrix`] a coreset's `CachedOracle` shares across the radius
//! search's many guesses when the coreset is small, [`PointsOracle`]'s
//! on-the-fly metric evaluation for large coresets.

use rayon::prelude::*;

use kcenter_metric::{DistanceMatrix, Metric};

/// Pairwise distances among coreset points, by index, compared on the
/// metric's [`Metric::cmp_distance`] scale.
///
/// Two oracles implement it: [`CmpMatrixRef`] reads a cached proxy matrix
/// and [`PointsOracle`] evaluates the metric on demand. Both apply the same
/// comparison rule, so an algorithm's output does not depend on which one
/// it ran on.
pub trait DistanceOracle: Sync {
    /// Number of points.
    fn len(&self) -> usize;
    /// Whether the point set is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Distance between points `i` and `j`.
    fn dist(&self, i: usize, j: usize) -> f64;

    /// Comparison proxy for [`DistanceOracle::dist`] — order-isomorphic to
    /// the distance, zero iff the distance is zero (mirrors
    /// [`Metric::cmp_distance`]). Threshold scans call this together with
    /// [`DistanceOracle::radius_to_cmp`] so they skip the final `sqrt` of
    /// every evaluation.
    fn cmp_dist(&self, i: usize, j: usize) -> f64;

    /// Batched [`DistanceOracle::cmp_dist`]: writes `cmp_dist(t, base + j)`
    /// into `out[j]`. Point-backed oracles forward to
    /// [`Metric::cmp_distance_block`] (the vectorized kernels) and
    /// matrix-backed oracles copy contiguous condensed-row slices; either
    /// must stay bit-identical to looping the scalar lookup.
    fn cmp_dist_block(&self, t: usize, base: usize, out: &mut [f64]);

    /// Maps a true radius onto the [`DistanceOracle::cmp_dist`] scale.
    fn radius_to_cmp(&self, r: f64) -> f64;

    /// Maps a [`DistanceOracle::cmp_dist`] value back to a true distance.
    fn cmp_to_radius(&self, cmp: f64) -> f64;
}

/// Batched row read out of a condensed matrix, exploiting that row `t`'s
/// entries for `v > t` are **contiguous** in the condensed layout: the
/// strictly-greater tail of the block is one `memcpy`, only the (rare)
/// `v <= t` prefix pays per-element symmetric lookups. Bit-identical to
/// looping `matrix.get(t, base + j)`.
fn matrix_cmp_block(matrix: &DistanceMatrix, t: usize, base: usize, out: &mut [f64]) {
    let len = out.len();
    let n = matrix.len();
    // Scattered prefix: v < t (symmetric lookups) and the v == t diagonal.
    let pre = (t + 1).saturating_sub(base).min(len);
    for (j, o) in out[..pre].iter_mut().enumerate() {
        *o = matrix.get(t, base + j);
    }
    // Contiguous suffix: v > t lives at condensed offset
    // `t·n - t·(t+1)/2 + (v - t - 1)`, consecutive in v.
    if pre < len {
        let v0 = base + pre;
        let start = t * n - t * (t + 1) / 2 + (v0 - t - 1);
        out[pre..].copy_from_slice(&matrix.condensed()[start..start + (len - pre)]);
    }
}

/// A [`DistanceOracle`] that evaluates the metric on demand — no quadratic
/// memory, used for coresets too large to cache.
pub struct PointsOracle<'a, P, M> {
    points: &'a [P],
    metric: &'a M,
}

impl<'a, P, M: Metric<P>> PointsOracle<'a, P, M> {
    /// Wraps a point slice and metric.
    pub fn new(points: &'a [P], metric: &'a M) -> Self {
        PointsOracle { points, metric }
    }
}

/// A [`DistanceOracle`] over a borrowed *proxy-scale* [`DistanceMatrix`]
/// paired with its metric's conversions — the matrix-backed counterpart
/// of [`PointsOracle`], used to run searches against a
/// [`CachedOracle`](kcenter_metric::CachedOracle)'s shared matrix (or any
/// [`DistanceMatrix::build_cmp`] product) without a per-lookup
/// cache-resolution branch in the `O(|T|²)` inner loops.
///
/// Both oracles apply the **same comparison rule**: they compare on the
/// metric's [`Metric::cmp_distance`] scale, so an algorithm's output is
/// bitwise independent of whether distances were cached or evaluated on
/// demand — even at threshold boundaries within one ulp, where a
/// true-distance rule (`sqrt(c) <= r`) and a proxy rule (`c <= r²`) can
/// disagree. Building the proxy matrix is also cheaper: no `sqrt` per
/// entry.
pub struct CmpMatrixRef<'a, P, M> {
    matrix: &'a DistanceMatrix,
    metric: &'a M,
    _points: std::marker::PhantomData<fn() -> P>,
}

impl<'a, P: Sync, M: Metric<P>> CmpMatrixRef<'a, P, M> {
    /// Wraps a proxy-scale matrix (entries on the [`Metric::cmp_distance`]
    /// scale) with the metric that owns its conversions.
    pub fn new(matrix: &'a DistanceMatrix, metric: &'a M) -> Self {
        CmpMatrixRef {
            matrix,
            metric,
            _points: std::marker::PhantomData,
        }
    }
}

impl<P: Sync, M: Metric<P>> DistanceOracle for CmpMatrixRef<'_, P, M> {
    fn len(&self) -> usize {
        self.matrix.len()
    }

    #[inline]
    fn dist(&self, i: usize, j: usize) -> f64 {
        // cmp_to_distance(cmp_distance(..)) == distance(..) exactly, per
        // the Metric contract, so true-distance reads stay bit-identical
        // to on-demand evaluation.
        self.metric.cmp_to_distance(self.matrix.get(i, j))
    }

    #[inline]
    fn cmp_dist(&self, i: usize, j: usize) -> f64 {
        self.matrix.get(i, j)
    }

    fn cmp_dist_block(&self, t: usize, base: usize, out: &mut [f64]) {
        matrix_cmp_block(self.matrix, t, base, out);
    }

    #[inline]
    fn radius_to_cmp(&self, r: f64) -> f64 {
        self.metric.distance_to_cmp(r)
    }

    #[inline]
    fn cmp_to_radius(&self, cmp: f64) -> f64 {
        self.metric.cmp_to_distance(cmp)
    }
}

impl<P: Sync, M: Metric<P>> DistanceOracle for PointsOracle<'_, P, M> {
    fn len(&self) -> usize {
        self.points.len()
    }

    #[inline]
    fn dist(&self, i: usize, j: usize) -> f64 {
        self.metric.distance(&self.points[i], &self.points[j])
    }

    #[inline]
    fn cmp_dist(&self, i: usize, j: usize) -> f64 {
        self.metric.cmp_distance(&self.points[i], &self.points[j])
    }

    // Same query-first evaluation order as `cmp_dist`, batched through the
    // metric's (vectorized) block kernels.
    fn cmp_dist_block(&self, t: usize, base: usize, out: &mut [f64]) {
        let block = &self.points[base..base + out.len()];
        self.metric.cmp_distance_block(&self.points[t], block, out);
    }

    #[inline]
    fn radius_to_cmp(&self, r: f64) -> f64 {
        self.metric.distance_to_cmp(r)
    }

    #[inline]
    fn cmp_to_radius(&self, cmp: f64) -> f64 {
        self.metric.cmp_to_distance(cmp)
    }
}

/// Result of one `OutliersCluster` run.
#[derive(Clone, Debug, PartialEq)]
pub struct OutliersClusterResult {
    /// Selected center indices `X` (into the coreset), `|X| <= k`.
    pub centers: Vec<usize>,
    /// Indices of the uncovered points `T'` (farther than `(3+4ε̂)·r` from
    /// every selected center).
    pub uncovered: Vec<usize>,
    /// Aggregate weight of `T'` — compared against `z` by the radius search.
    pub uncovered_weight: u64,
}

/// Runs `OutliersCluster(T, k, r, ε̂)` with incremental ball-weight
/// maintenance.
///
/// # Panics
///
/// Panics if `weights.len() != oracle.len()`, `k == 0`, `r < 0`, or
/// `eps_hat < 0`.
pub fn outliers_cluster<O: DistanceOracle>(
    oracle: &O,
    weights: &[u64],
    k: usize,
    r: f64,
    eps_hat: f64,
) -> OutliersClusterResult {
    let n = oracle.len();
    assert_eq!(weights.len(), n, "weights misaligned with points");
    assert!(k > 0, "k must be positive");
    assert!(
        r >= 0.0 && eps_hat >= 0.0,
        "radius and eps must be non-negative"
    );

    // Thresholds on the oracle's comparison scale: every O(n²) scan below
    // tests `cmp_dist <= cmp-threshold`, sqrt-free for metric oracles.
    let ball_cmp = oracle.radius_to_cmp((1.0 + 2.0 * eps_hat) * r);
    let cover_cmp = oracle.radius_to_cmp((3.0 + 4.0 * eps_hat) * r);

    let mut covered = vec![false; n];
    let mut uncovered_count = n;

    // Balls per parallel chunk: each ball costs an `O(|T|)` inner scan, so
    // the pool's adaptive splitter decides the granularity (it splits
    // finer while steals are observed, coarser once workers saturate).
    // Any positive chunk length yields identical results: writes are
    // per-element and `base` tracks the chosen length.
    let ball_chunk = rayon::adaptive_chunk_len(n);

    // Initial ball weights over all (uncovered) points: O(n²), chunked for
    // the pool. Each ball's inner scan reads the oracle's batched proxies
    // in stack sub-blocks — the block kernels for point-backed oracles,
    // condensed-row copies for matrix-backed ones — and tests them against
    // `ball_cmp`, bit-identical to the scalar `cmp_dist(t, v) <= ball_cmp`.
    const SUB: usize = 256;
    let mut ball_weight: Vec<u64> = vec![0; n];
    ball_weight
        .par_chunks_mut(ball_chunk)
        .enumerate()
        .for_each(|(ci, chunk)| {
            let base = ci * ball_chunk;
            let mut buf = [0.0f64; SUB];
            for (j, w) in chunk.iter_mut().enumerate() {
                let t = base + j;
                let mut acc = 0u64;
                let mut off = 0;
                while off < n {
                    let len = SUB.min(n - off);
                    oracle.cmp_dist_block(t, off, &mut buf[..len]);
                    for (&d, &weight) in buf[..len].iter().zip(&weights[off..off + len]) {
                        if d <= ball_cmp {
                            acc += weight;
                        }
                    }
                    off += len;
                }
                *w = acc;
            }
        });

    let mut centers = Vec::new();
    while centers.len() < k && uncovered_count > 0 {
        // Argmax over all of T (a center need not be uncovered); ties to the
        // smallest index for determinism.
        let x = ball_weight
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
            .map(|(i, _)| i)
            .expect("nonempty coreset");
        centers.push(x);

        // E_x: uncovered points within the expanded radius.
        let removed: Vec<usize> = (0..n)
            .into_par_iter()
            .filter(|&v| !covered[v] && oracle.cmp_dist(x, v) <= cover_cmp)
            .collect();
        for &v in &removed {
            covered[v] = true;
        }
        uncovered_count -= removed.len();

        // Subtract the removed points' weights from every ball containing
        // them. Each point is removed exactly once, so the total update work
        // over the whole run is O(n²).
        ball_weight
            .par_chunks_mut(ball_chunk)
            .enumerate()
            .for_each(|(ci, chunk)| {
                let base = ci * ball_chunk;
                for (j, w) in chunk.iter_mut().enumerate() {
                    let t = base + j;
                    for &v in &removed {
                        if oracle.cmp_dist(t, v) <= ball_cmp {
                            *w -= weights[v];
                        }
                    }
                }
            });
    }

    let uncovered: Vec<usize> = (0..n).filter(|&v| !covered[v]).collect();
    let uncovered_weight = uncovered.iter().map(|&v| weights[v]).sum();
    OutliersClusterResult {
        centers,
        uncovered,
        uncovered_weight,
    }
}

/// The textbook `O(k·|T|²)` implementation recomputing every ball weight in
/// every iteration. Must return exactly the same result as
/// [`outliers_cluster`]; kept for differential testing and the ablation
/// benchmark.
pub fn outliers_cluster_naive<O: DistanceOracle>(
    oracle: &O,
    weights: &[u64],
    k: usize,
    r: f64,
    eps_hat: f64,
) -> OutliersClusterResult {
    let n = oracle.len();
    assert_eq!(weights.len(), n, "weights misaligned with points");
    assert!(k > 0, "k must be positive");
    assert!(
        r >= 0.0 && eps_hat >= 0.0,
        "radius and eps must be non-negative"
    );

    // Same comparison rule as the incremental implementation: proxy scale.
    let ball_cmp = oracle.radius_to_cmp((1.0 + 2.0 * eps_hat) * r);
    let cover_cmp = oracle.radius_to_cmp((3.0 + 4.0 * eps_hat) * r);

    let mut covered = vec![false; n];
    let mut centers = Vec::new();
    while centers.len() < k && covered.iter().any(|c| !c) {
        let mut best = 0usize;
        let mut best_w = 0u64;
        let mut first = true;
        for t in 0..n {
            let mut w = 0u64;
            for v in 0..n {
                if !covered[v] && oracle.cmp_dist(t, v) <= ball_cmp {
                    w += weights[v];
                }
            }
            if first || w > best_w {
                best = t;
                best_w = w;
                first = false;
            }
        }
        centers.push(best);
        for (v, cov) in covered.iter_mut().enumerate() {
            if !*cov && oracle.cmp_dist(best, v) <= cover_cmp {
                *cov = true;
            }
        }
    }

    let uncovered: Vec<usize> = (0..n).filter(|&v| !covered[v]).collect();
    let uncovered_weight = uncovered.iter().map(|&v| weights[v]).sum();
    OutliersClusterResult {
        centers,
        uncovered,
        uncovered_weight,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcenter_metric::{Euclidean, Point};

    fn oracle_of(coords: &[f64]) -> (Vec<Point>, Vec<u64>) {
        let pts: Vec<Point> = coords.iter().map(|&c| Point::new(vec![c])).collect();
        let w = vec![1u64; pts.len()];
        (pts, w)
    }

    #[test]
    fn covers_everything_with_generous_radius() {
        let (pts, w) = oracle_of(&[0.0, 1.0, 2.0, 3.0]);
        let oracle = PointsOracle::new(&pts, &Euclidean);
        let result = outliers_cluster(&oracle, &w, 2, 3.0, 0.0);
        assert!(result.uncovered.is_empty());
        assert_eq!(result.uncovered_weight, 0);
        assert!(result.centers.len() <= 2);
    }

    #[test]
    fn leaves_far_points_uncovered_with_small_radius() {
        // Two clusters 100 apart plus an outlier at 1000; k = 2, small r.
        let (pts, w) = oracle_of(&[0.0, 1.0, 100.0, 101.0, 1000.0]);
        let oracle = PointsOracle::new(&pts, &Euclidean);
        let result = outliers_cluster(&oracle, &w, 2, 1.0, 0.0);
        assert_eq!(result.uncovered, vec![4]);
        assert_eq!(result.uncovered_weight, 1);
    }

    #[test]
    fn picks_heaviest_ball_first() {
        // Heavy cluster at 0 (weight 10), light cluster at 100 (weight 2).
        let pts: Vec<Point> = vec![0.0, 100.0]
            .into_iter()
            .map(|c| Point::new(vec![c]))
            .collect();
        let w = vec![10u64, 2u64];
        let oracle = PointsOracle::new(&pts, &Euclidean);
        let result = outliers_cluster(&oracle, &w, 1, 1.0, 0.0);
        assert_eq!(result.centers, vec![0]);
        assert_eq!(result.uncovered, vec![1]);
        assert_eq!(result.uncovered_weight, 2);
    }

    #[test]
    fn weighted_selection_beats_cardinality() {
        // Three points near 0 (weight 1 each) vs one point at 50 carrying
        // weight 100: the heavy singleton wins the first center.
        let pts: Vec<Point> = vec![0.0, 0.5, 1.0, 50.0]
            .into_iter()
            .map(|c| Point::new(vec![c]))
            .collect();
        let w = vec![1u64, 1, 1, 100];
        let oracle = PointsOracle::new(&pts, &Euclidean);
        let result = outliers_cluster(&oracle, &w, 1, 1.0, 0.0);
        assert_eq!(result.centers, vec![3]);
        assert_eq!(result.uncovered_weight, 3);
    }

    #[test]
    fn expanded_radius_covers_more_than_selection_ball() {
        // Selection ball (1+2ε̂)r around x, removal ball (3+4ε̂)r: a point at
        // distance 2.5 from the chosen center is removed but not counted in
        // the selection ball for r = 1, ε̂ = 0.
        let (pts, w) = oracle_of(&[0.0, 0.5, 2.5, 10.0]);
        let oracle = PointsOracle::new(&pts, &Euclidean);
        let result = outliers_cluster(&oracle, &w, 1, 1.0, 0.0);
        assert_eq!(result.centers, vec![0]);
        assert_eq!(result.uncovered, vec![3]);
    }

    #[test]
    fn uncovered_points_are_far_from_all_centers() {
        let pts: Vec<Point> = (0..40)
            .map(|i| Point::new(vec![(i * 7 % 40) as f64]))
            .collect();
        let w = vec![1u64; pts.len()];
        let oracle = PointsOracle::new(&pts, &Euclidean);
        let r = 2.0;
        let eps_hat = 0.25;
        let result = outliers_cluster(&oracle, &w, 3, r, eps_hat);
        let cover_r = (3.0 + 4.0 * eps_hat) * r;
        for &u in &result.uncovered {
            for &c in &result.centers {
                assert!(oracle.dist(u, c) > cover_r, "uncovered point inside cover");
            }
        }
    }

    #[test]
    fn naive_and_incremental_agree() {
        // Differential test on a moderately irregular instance.
        let pts: Vec<Point> = (0..60)
            .map(|i| {
                let x = (i as f64 * 0.37).sin() * 50.0;
                let y = (i as f64 * 0.89).cos() * 50.0;
                Point::new(vec![x, y])
            })
            .collect();
        let w: Vec<u64> = (0..60).map(|i| 1 + (i % 5) as u64).collect();
        let oracle = PointsOracle::new(&pts, &Euclidean);
        for &(k, r, eps) in &[
            (1usize, 5.0, 0.0),
            (3, 10.0, 0.1),
            (5, 20.0, 0.5),
            (8, 2.0, 1.0),
        ] {
            let fast = outliers_cluster(&oracle, &w, k, r, eps);
            let naive = outliers_cluster_naive(&oracle, &w, k, r, eps);
            assert_eq!(fast, naive, "divergence at k={k}, r={r}, eps={eps}");
        }
    }

    #[test]
    fn cmp_matrix_oracle_is_bitwise_consistent_with_points_oracle() {
        // The cached-proxy oracle must apply the exact comparison rule of
        // the on-demand oracle — including at a radius engineered to sit
        // on a ball boundary, where the proxy rule (d² ≤ r²) and a
        // true-distance rule (√d² ≤ r) can disagree by one ulp.
        let pts: Vec<Point> = (0..40)
            .map(|i| Point::new(vec![(i as f64 * 2.3) % 19.0, (i as f64 * 0.7) % 5.0]))
            .collect();
        let w: Vec<u64> = (0..40).map(|i| 1 + (i % 3) as u64).collect();
        let points_oracle = PointsOracle::new(&pts, &Euclidean);
        let matrix = DistanceMatrix::build_cmp(&pts, &Euclidean);
        let cmp_matrix = CmpMatrixRef::<Point, _>::new(&matrix, &Euclidean);
        // Exact pairwise distances as radii put thresholds on boundaries.
        let mut radii: Vec<f64> = vec![3.0, 7.5];
        radii.push(Euclidean.distance(&pts[0], &pts[7]));
        radii.push(Euclidean.distance(&pts[3], &pts[22]) / (3.0 + 4.0 * 0.25));
        for &r in &radii {
            let a = outliers_cluster(&points_oracle, &w, 4, r, 0.25);
            let b = outliers_cluster(&cmp_matrix, &w, 4, r, 0.25);
            assert_eq!(a, b, "divergence at r = {r}");
        }
        // And the true-distance reads round-trip exactly.
        for i in 0..pts.len() {
            for j in 0..pts.len() {
                assert_eq!(
                    cmp_matrix.dist(i, j).to_bits(),
                    points_oracle.dist(i, j).to_bits(),
                    "dist mismatch at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn zero_radius_still_terminates() {
        let (pts, w) = oracle_of(&[0.0, 0.0, 5.0]);
        let oracle = PointsOracle::new(&pts, &Euclidean);
        let result = outliers_cluster(&oracle, &w, 2, 0.0, 0.0);
        assert!(result.centers.len() <= 2);
        // Duplicates of the chosen center are covered at r = 0.
        assert!(result.uncovered_weight <= 1);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let (pts, w) = oracle_of(&[0.0]);
        let oracle = PointsOracle::new(&pts, &Euclidean);
        let _ = outliers_cluster(&oracle, &w, 0, 1.0, 0.0);
    }
}
