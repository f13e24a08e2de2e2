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
//! * [`outliers_cluster`] — one read per pair: a single rayon pass over
//!   the strict upper triangle reads every pair's proxy once, row by row,
//!   and keeps the selection-ball relation as a bitset of `|T|·⌈|T|/64⌉`
//!   words beside the initial ball weights. Each center then costs one
//!   row read (its removal set `E_x`) and a bitset walk that subtracts the
//!   removed weight from every ball holding it, instead of `|T|·|E_x|`
//!   scattered distance lookups. A run makes `|T|(|T|−1)/2` distance reads
//!   plus `k` row reads;
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
    ///
    /// It must be **bitwise symmetric** (`cmp_dist(i, j)` and
    /// `cmp_dist(j, i)` have the same bits) and exactly `0.0` on the
    /// diagonal: [`outliers_cluster`] reads each pair once, with the lower
    /// index first, and takes every point to be inside its own balls.
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
///
/// The diagonal reads as `0.0` without evaluating the metric, as it does
/// in a [`DistanceMatrix`]: [`kcenter_metric::CosineAngular`]'s rounding
/// can give a vector a small positive angle to itself.
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
        if i == j {
            return 0.0;
        }
        self.metric.distance(&self.points[i], &self.points[j])
    }

    #[inline]
    fn cmp_dist(&self, i: usize, j: usize) -> f64 {
        if i == j {
            return 0.0;
        }
        self.metric.cmp_distance(&self.points[i], &self.points[j])
    }

    // Same query-first evaluation order as `cmp_dist`, batched through the
    // metric's (vectorized) block kernels.
    fn cmp_dist_block(&self, t: usize, base: usize, out: &mut [f64]) {
        let block = &self.points[base..base + out.len()];
        self.metric.cmp_distance_block(&self.points[t], block, out);
        if let Some(diagonal) = t.checked_sub(base).and_then(|j| out.get_mut(j)) {
            *diagonal = 0.0;
        }
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

/// Bits per bitset word, and proxies per row read.
const WORD: usize = 64;

/// The selection-ball relation over the strict upper triangle: bit `v` of
/// row `t` is set iff `t < v` and `cmp_dist(t, v) <= ball`. Each row is
/// `words` words; bits at `v <= t` stay clear.
struct BallBits {
    words: usize,
    bits: Vec<u64>,
}

impl BallBits {
    fn row(&self, t: usize) -> &[u64] {
        &self.bits[t * self.words..(t + 1) * self.words]
    }
}

/// Calls `f` with the position of every set bit of `word`, lowest first.
#[inline]
fn for_each_bit(mut word: u64, mut f: impl FnMut(usize)) {
    while word != 0 {
        f(word.trailing_zeros() as usize);
        word &= word - 1;
    }
}

/// Calls `f` with every set bit position of `row` in `lo..hi`.
fn for_each_bit_in(row: &[u64], lo: usize, hi: usize, mut f: impl FnMut(usize)) {
    if lo >= hi {
        return;
    }
    let (first, last) = (lo / WORD, (hi - 1) / WORD);
    for (wi, &word) in (first..=last).zip(&row[first..=last]) {
        let mut word = word;
        if wi == first {
            word &= u64::MAX << (lo % WORD);
        }
        if wi == last {
            word &= u64::MAX >> (WORD - 1 - (hi - 1) % WORD);
        }
        for_each_bit(word, |bit| f(wi * WORD + bit));
    }
}

/// Row bounds `0 = b₀ < b₁ < … < bₘ = n` splitting the strict upper
/// triangle into about `parts` row ranges of similar pair counts (row `t`
/// holds `n − 1 − t` pairs).
fn triangle_ranges(n: usize, parts: usize) -> Vec<usize> {
    let per_part = (n * n.saturating_sub(1) / 2).div_ceil(parts.max(1)).max(1);
    let mut bounds = vec![0];
    let mut pairs = 0;
    for t in 0..n {
        pairs += n - 1 - t;
        if pairs >= per_part || t + 1 == n {
            bounds.push(t + 1);
            pairs = 0;
        }
    }
    bounds
}

/// The one pass over the strict upper triangle. Row `t`'s tail is read
/// through `cmp_dist_block(t, t+1…)` — a condensed-row copy for a matrix,
/// the block kernel with the lower index as the query for points, the
/// order [`DistanceMatrix::build_cmp`] uses — and each proxy is tested
/// against `ball_cmp` once. Returns the ball relation and every point's
/// initial ball weight: its own weight when the diagonal's `0.0` passes
/// the test, plus its row sum (`v > t`) and its column sum (`v < t`).
///
/// Rows are split into ranges of similar pair counts, one pool task
/// each; every task keeps its own column sums. All sums are `u64`, so
/// the weights do not depend on the split.
fn ball_pass<O: DistanceOracle>(
    oracle: &O,
    weights: &[u64],
    ball_cmp: f64,
) -> (BallBits, Vec<u64>) {
    let n = oracle.len();
    let words = n.div_ceil(WORD);
    let mut bits = vec![0u64; n * words];
    let diagonal = 0.0 <= ball_cmp;
    let mut ball_weight: Vec<u64> = weights
        .iter()
        .map(|&w| if diagonal { w } else { 0 })
        .collect();

    // One task per row range, owning its rows of the relation and of the
    // weights.
    let bounds = triangle_ranges(n, n.div_ceil(rayon::adaptive_chunk_len(n)));
    let mut tasks = Vec::with_capacity(bounds.len());
    let (mut bits_rest, mut weights_rest) = (bits.as_mut_slice(), ball_weight.as_mut_slice());
    for range in bounds.windows(2) {
        let rows = range[1] - range[0];
        let (task_bits, rest) = std::mem::take(&mut bits_rest).split_at_mut(rows * words);
        bits_rest = rest;
        let (task_weights, rest) = std::mem::take(&mut weights_rest).split_at_mut(rows);
        weights_rest = rest;
        tasks.push((range[0], task_bits, task_weights));
    }

    let column_sums: Vec<Vec<u64>> = tasks
        .into_par_iter()
        .map(|(start, task_bits, task_weights)| {
            // cols[v - start]: the weight of this range's rows t < v whose
            // ball holds v.
            let mut cols = vec![0u64; n - start];
            let mut buf = [0.0f64; WORD];
            let rows = task_bits.chunks_exact_mut(words).zip(task_weights);
            for (j, (row, ball)) in rows.enumerate() {
                let t = start + j;
                let wt = weights[t];
                // One read per bitset word, the word built in a register.
                let mut lo = t + 1;
                while lo < n {
                    let hi = n.min((lo / WORD + 1) * WORD);
                    oracle.cmp_dist_block(t, lo, &mut buf[..hi - lo]);
                    let mut word = 0u64;
                    for (i, ((&d, &wv), col)) in buf[..hi - lo]
                        .iter()
                        .zip(&weights[lo..hi])
                        .zip(&mut cols[lo - start..hi - start])
                        .enumerate()
                    {
                        let inside = (d <= ball_cmp) as u64;
                        let keep = inside.wrapping_neg();
                        word |= inside << (lo % WORD + i);
                        *ball += wv & keep;
                        *col += wt & keep;
                    }
                    row[lo / WORD] = word;
                    lo = hi;
                }
            }
            cols
        })
        .collect();

    for (cols, &start) in column_sums.iter().zip(&bounds) {
        for (w, &c) in ball_weight[start..].iter_mut().zip(cols) {
            *w += c;
        }
    }
    (BallBits { words, bits }, ball_weight)
}

/// Runs `OutliersCluster(T, k, r, ε̂)` with one read per pair: one upper-
/// triangle pass builds the ball relation and the initial ball weights,
/// and each center's cover update reads bits (see the module docs).
///
/// The oracle must be bitwise symmetric with a zero diagonal (see
/// [`DistanceOracle::cmp_dist`]); both oracles in this module are.
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

    // Thresholds on the oracle's comparison scale: every scan below tests
    // `cmp_dist <= cmp-threshold`, sqrt-free for metric oracles.
    let ball_cmp = oracle.radius_to_cmp((1.0 + 2.0 * eps_hat) * r);
    let cover_cmp = oracle.radius_to_cmp((3.0 + 4.0 * eps_hat) * r);
    let diagonal = 0.0 <= ball_cmp;

    let (ball, mut ball_weight) = ball_pass(oracle, weights, ball_cmp);

    // Uncovered points as bits, and `E_x`, the points the current center
    // removes.
    let words = ball.words;
    let mut uncovered = vec![u64::MAX; words];
    if let Some(last) = uncovered.last_mut() {
        *last >>= words * WORD - n;
    }
    let mut uncovered_count = n;
    let mut removed_bits = vec![0u64; words];

    // Any positive chunk lengths yield identical results: writes are per
    // element and the bases track the chosen lengths.
    let ball_chunk = rayon::adaptive_chunk_len(n);
    let word_chunk = rayon::adaptive_chunk_len(words);

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

        // E_x: one read of row x, over the words that still hold an
        // uncovered point.
        removed_bits
            .par_chunks_mut(word_chunk)
            .enumerate()
            .for_each(|(ci, chunk)| {
                let mut buf = [0.0f64; WORD];
                for (j, out) in chunk.iter_mut().enumerate() {
                    let wi = ci * word_chunk + j;
                    *out = 0;
                    if uncovered[wi] == 0 {
                        continue;
                    }
                    let lo = wi * WORD;
                    let len = WORD.min(n - lo);
                    oracle.cmp_dist_block(x, lo, &mut buf[..len]);
                    for (i, &d) in buf[..len].iter().enumerate() {
                        *out |= ((d <= cover_cmp) as u64) << i;
                    }
                    *out &= uncovered[wi];
                }
            });
        let mut removed = Vec::new();
        let mut removed_words = Vec::new();
        for (wi, (&gone, open)) in removed_bits.iter().zip(&mut uncovered).enumerate() {
            if gone != 0 {
                *open &= !gone;
                removed_words.push(wi);
                for_each_bit(gone, |bit| removed.push(wi * WORD + bit));
            }
        }
        uncovered_count -= removed.len();
        if centers.len() == k || uncovered_count == 0 {
            // No further argmax reads the ball weights.
            break;
        }

        // Subtract the removed points' weights from every ball holding
        // them, reading the relation's bits.
        ball_weight
            .par_chunks_mut(ball_chunk)
            .enumerate()
            .for_each(|(ci, chunk)| {
                let a = ci * ball_chunk;
                let b = a + chunk.len();
                // v > t: row t ANDed with E_x.
                for (j, w) in chunk.iter_mut().enumerate() {
                    let t = a + j;
                    let row = ball.row(t);
                    let from = removed_words.partition_point(|&wi| wi < t / WORD);
                    let mut sub = 0u64;
                    for &wi in &removed_words[from..] {
                        for_each_bit(row[wi] & removed_bits[wi], |bit| {
                            sub += weights[wi * WORD + bit];
                        });
                    }
                    *w -= sub;
                }
                // v < t: each removed point's own row over this chunk's
                // columns; v == t: the diagonal.
                for &v in &removed[..removed.partition_point(|&v| v < b)] {
                    let wv = weights[v];
                    if diagonal && v >= a {
                        chunk[v - a] -= wv;
                    }
                    for_each_bit_in(ball.row(v), a.max(v + 1), b, |t| chunk[t - a] -= wv);
                }
            });
    }

    let mut uncovered_points = Vec::with_capacity(uncovered_count);
    for (wi, &open) in uncovered.iter().enumerate() {
        for_each_bit(open, |bit| uncovered_points.push(wi * WORD + bit));
    }
    let uncovered_weight = uncovered_points.iter().map(|&v| weights[v]).sum();
    OutliersClusterResult {
        centers,
        uncovered: uncovered_points,
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

    // Same comparison rule as the one-read implementation: proxy scale.
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
    fn triangle_ranges_cover_every_row_once() {
        for n in [0usize, 1, 2, 5, 64, 1000] {
            for parts in [1usize, 2, 3, 32] {
                let bounds = triangle_ranges(n, parts);
                assert_eq!(bounds[0], 0);
                assert_eq!(bounds[bounds.len() - 1], n, "n={n} parts={parts}");
                assert!(bounds.windows(2).all(|w| w[0] < w[1]));
                assert!(bounds.len() <= parts + 2, "n={n} parts={parts}: {bounds:?}");
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
