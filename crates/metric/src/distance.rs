//! Distance functions.
//!
//! The [`Metric`] trait is the single abstraction every clustering algorithm
//! in the workspace is generic over. Implementations must satisfy the metric
//! axioms (non-negativity, identity of indiscernibles, symmetry, triangle
//! inequality); the approximation guarantees of all algorithms rely on the
//! triangle inequality.

use crate::fingerprint::Fingerprint;
use crate::kernels::{self, KernelMetric};
use crate::pointset::Coordinates;

/// Domain label folded into every [`Metric::cache_fingerprint`], bumped
/// whenever the fingerprinting scheme itself changes incompatibly.
const FINGERPRINT_DOMAIN: &str = "kcenter/metric-points/v1";

/// Content fingerprint of `points` under a named metric: the key the
/// persistent artifact store addresses proxy-scale distance matrices by.
/// Order-sensitive (matrix entries are indexed by point position) and
/// bit-exact over coordinates. Generic over [`Coordinates`], writing the
/// same bytes for a `Point` slice and its [`crate::PointSet`] view — so
/// owned and zero-copy loads of the same data share cache entries.
fn fingerprint_points<P: Coordinates>(metric_name: &str, points: &[P]) -> u128 {
    let mut fp = Fingerprint::with_domain(FINGERPRINT_DOMAIN);
    fp.write_str(metric_name);
    fp.write_usize(points.len());
    for p in points {
        fp.write_f64s(p.coords());
    }
    fp.finish()
}

/// A distance function over points of type `P`.
///
/// Implementations must be proper metrics: the k-center approximation bounds
/// (Gonzalez' 2-approximation, Charikar et al.'s 3-approximation, and all the
/// coreset arguments built on them) are triangle-inequality arguments.
///
/// The `Sync + Send` bounds allow distance evaluation from rayon worker
/// threads in the MapReduce simulator and the parallel kernels.
pub trait Metric<P: ?Sized>: Sync + Send {
    /// The distance `d(a, b) >= 0`.
    fn distance(&self, a: &P, b: &P) -> f64;

    /// A *comparison proxy* for the distance: any value order-isomorphic to
    /// `distance(a, b)` (strictly monotone, zero iff the distance is zero).
    ///
    /// Nearest-center and farthest-point scans — the `O(n·τ)` / `O(|T|²)`
    /// kernels of every algorithm here — only ever *compare* distances;
    /// they call this instead of [`Metric::distance`] and convert one final
    /// value at the boundary with [`Metric::cmp_to_distance`]. The default
    /// is the distance itself; [`Euclidean`] returns the **squared**
    /// distance, eliding one `sqrt` per evaluation.
    ///
    /// Contract: `cmp_to_distance(cmp_distance(a, b))` must equal
    /// `distance(a, b)` exactly, and `cmp_distance` must preserve the
    /// order of `distance` (ties included, up to the proxy being *more*
    /// discriminating than the rounded true distance).
    #[inline]
    fn cmp_distance(&self, a: &P, b: &P) -> f64 {
        self.distance(a, b)
    }

    /// Converts a [`Metric::cmp_distance`] value back to a true distance
    /// (the one `sqrt` at the reporting boundary). Default: identity.
    #[inline]
    fn cmp_to_distance(&self, cmp: f64) -> f64 {
        cmp
    }

    /// Converts a true distance/radius to the [`Metric::cmp_distance`]
    /// scale, for threshold tests (`d(a, b) <= r` becomes
    /// `cmp_distance(a, b) <= distance_to_cmp(r)`). Default: identity.
    ///
    /// Threshold tests on the proxy scale may disagree with tests on the
    /// rounded true distance within one ulp of the boundary; algorithms
    /// must apply one rule consistently (as the paired implementations in
    /// this workspace do).
    #[inline]
    fn distance_to_cmp(&self, d: f64) -> f64 {
        d
    }

    /// Batched [`Metric::cmp_distance`]: writes `cmp_distance(query,
    /// block[i])` into `out[i]` for every point of `block`.
    ///
    /// The default loops the scalar method; the coordinate metrics
    /// override it with the runtime-dispatched SIMD kernels of
    /// [`crate::kernels`]. Overrides must stay **bit-identical** to the
    /// default — callers (GMM scans, matrix builds, ball-weight passes)
    /// rely on block and scalar paths being interchangeable at every
    /// thread count.
    fn cmp_distance_block(&self, query: &P, block: &[P], out: &mut [f64])
    where
        P: Sized,
    {
        for (o, b) in out.iter_mut().zip(block) {
            *o = self.cmp_distance(query, b);
        }
    }

    /// Batched [`Metric::distance`]: writes `distance(query, block[i])`
    /// into `out[i]`. Same bit-identity contract as
    /// [`Metric::cmp_distance_block`].
    fn distance_to_block(&self, query: &P, block: &[P], out: &mut [f64])
    where
        P: Sized,
    {
        for (o, b) in out.iter_mut().zip(block) {
            *o = self.distance(query, b);
        }
    }

    /// Batched ball-membership test on the proxy scale: writes
    /// `cmp_distance(query, block[i]) <= cmp_threshold` into `out[i]`.
    ///
    /// Overrides may evaluate a cheaper proxy first (the opt-in f32 mode)
    /// but must make the **identical decision** the exact comparison
    /// makes for every point — uncertain cases re-verified exactly.
    fn within_block(&self, query: &P, block: &[P], cmp_threshold: f64, out: &mut [bool])
    where
        P: Sized,
    {
        for (o, b) in out.iter_mut().zip(block) {
            *o = self.cmp_distance(query, b) <= cmp_threshold;
        }
    }

    /// Triangle-inequality pruning bound on the proxy scale: given
    /// `cmp_ac = cmp_distance(a, c)` for two centers `a` and `c`, a
    /// threshold `b` such that every point `p` with
    /// `cmp_distance(a, p) <= b` is provably **no closer** to `c` than to
    /// `a` — as computed, not just in exact arithmetic:
    /// `cmp_distance(c, p) >= cmp_distance(a, p)`. `None` means no such
    /// bound is available, and callers must evaluate every point.
    ///
    /// GMM uses it to skip whole clusters when it adds a center: if a
    /// cluster's farthest member is within `b` of its center `a`, the
    /// relax test `cmp(c, p) < cmp(a, p)` is false for every member.
    ///
    /// In exact arithmetic `d(a, p) <= d(a, c) / 2` gives
    /// `d(c, p) >= d(a, c) - d(a, p) >= d(a, p)`, so the bound is half
    /// the distance: `cmp_ac / 2` for an identity proxy, `cmp_ac / 4` on
    /// [`Euclidean`]'s squared proxy. The implementations shrink it by a
    /// relative slack `η = 1e-6` to cover rounding. Each of the three
    /// coordinate proxies sums (or maximizes) non-negative terms, each
    /// the rounded square or absolute value of a rounded difference, so a
    /// computed proxy is within a relative `(dim + 2)·2⁻⁵³` of the exact
    /// one — far below `η` for any real dimension. Shrinking the bound by
    /// `η` then keeps `cmp(c, p) >= cmp(a, p)` for the rounded values
    /// too, so skipping a point never changes a relax decision, and
    /// pruned and unpruned runs stay bit-identical. The bound is returned
    /// only for a finite `cmp_ac >= 1e-280`: below that floor squared
    /// terms may underflow into subnormals, whose error is absolute, not
    /// relative, and an infinite proxy carries no margin at all.
    ///
    /// The default is `None`, which is what these metrics keep:
    /// [`CosineAngular`], because `acos` has an absolute error near 0
    /// (about `1.5e-8`) rather than a relative one; [`Precomputed`],
    /// because user matrices are only approximately metric; and any
    /// wrapper that does not forward the method. Wrappers that forward
    /// [`Metric::cmp_distance`] unchanged may forward this too.
    #[inline]
    fn cmp_prune_bound(&self, cmp_ac: f64) -> Option<f64> {
        let _ = cmp_ac;
        None
    }

    /// A deterministic content fingerprint of `points` *under this metric*,
    /// or `None` when the metric cannot (or should not) key a persistent
    /// cache entry.
    ///
    /// `Some(fp)` is a promise that any two point slices with the same
    /// fingerprint produce bitwise-identical [`Metric::cmp_distance`]
    /// matrices, across processes: the persistent artifact store uses it
    /// to serve a previously priced matrix to a later run. Implementations
    /// must therefore fold in a stable metric identity and the exact
    /// coordinate bits, in order. The default `None` opts out — correct
    /// for stateful or test-only metrics (e.g. [`Precomputed`], whose
    /// identity lives in the matrix itself) and for ad-hoc wrappers, which
    /// then simply keep the per-process cache behaviour.
    fn cache_fingerprint(&self, points: &[P]) -> Option<u128>
    where
        P: Sized,
    {
        let _ = points;
        None
    }
}

/// Blanket implementation so `&M` can be passed where `M: Metric` is needed.
impl<P: ?Sized, M: Metric<P> + ?Sized> Metric<P> for &M {
    #[inline]
    fn distance(&self, a: &P, b: &P) -> f64 {
        (**self).distance(a, b)
    }

    #[inline]
    fn cmp_distance(&self, a: &P, b: &P) -> f64 {
        (**self).cmp_distance(a, b)
    }

    #[inline]
    fn cmp_to_distance(&self, cmp: f64) -> f64 {
        (**self).cmp_to_distance(cmp)
    }

    #[inline]
    fn distance_to_cmp(&self, d: f64) -> f64 {
        (**self).distance_to_cmp(d)
    }

    #[inline]
    fn cmp_distance_block(&self, query: &P, block: &[P], out: &mut [f64])
    where
        P: Sized,
    {
        (**self).cmp_distance_block(query, block, out)
    }

    #[inline]
    fn distance_to_block(&self, query: &P, block: &[P], out: &mut [f64])
    where
        P: Sized,
    {
        (**self).distance_to_block(query, block, out)
    }

    #[inline]
    fn within_block(&self, query: &P, block: &[P], cmp_threshold: f64, out: &mut [bool])
    where
        P: Sized,
    {
        (**self).within_block(query, block, cmp_threshold, out)
    }

    #[inline]
    fn cmp_prune_bound(&self, cmp_ac: f64) -> Option<f64> {
        (**self).cmp_prune_bound(cmp_ac)
    }

    fn cache_fingerprint(&self, points: &[P]) -> Option<u128>
    where
        P: Sized,
    {
        (**self).cache_fingerprint(points)
    }
}

/// The `η` of [`Metric::cmp_prune_bound`]: relative slack covering the
/// rounding of a coordinate proxy.
const PRUNE_SLACK: f64 = 1e-6;

/// Smallest proxy [`Metric::cmp_prune_bound`] bounds; below it squared
/// terms may be subnormal.
const PRUNE_FLOOR: f64 = 1e-280;

/// `cmp_ac · factor · (1 − η)` for a finite proxy at or above the floor.
#[inline]
fn prune_bound(cmp_ac: f64, factor: f64) -> Option<f64> {
    (cmp_ac.is_finite() && cmp_ac >= PRUNE_FLOOR).then_some(cmp_ac * (factor * (1.0 - PRUNE_SLACK)))
}

/// The Euclidean (L2) metric — the distance used by all of the paper's
/// experiments.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Euclidean;

impl Euclidean {
    /// Squared Euclidean distance; cheaper than [`Metric::distance`] when only
    /// comparisons are needed (monotone in the true distance).
    #[inline]
    pub fn distance_squared<P: Coordinates>(&self, a: &P, b: &P) -> f64 {
        debug_assert_eq!(a.dim(), b.dim(), "dimension mismatch");
        a.coords()
            .iter()
            .zip(b.coords())
            .map(|(x, y)| {
                let d = x - y;
                d * d
            })
            .sum()
    }
}

impl<P: Coordinates> Metric<P> for Euclidean {
    #[inline]
    fn distance(&self, a: &P, b: &P) -> f64 {
        self.distance_squared(a, b).sqrt()
    }

    // The proxy is the squared distance: `distance` is *defined* as
    // `sqrt(distance_squared)`, so `cmp_to_distance(cmp_distance(a, b))`
    // reproduces `distance(a, b)` bit-for-bit, and `sqrt`'s monotonicity
    // makes the square order-isomorphic to the true distance.
    #[inline]
    fn cmp_distance(&self, a: &P, b: &P) -> f64 {
        self.distance_squared(a, b)
    }

    #[inline]
    fn cmp_to_distance(&self, cmp: f64) -> f64 {
        cmp.sqrt()
    }

    #[inline]
    fn distance_to_cmp(&self, d: f64) -> f64 {
        d * d
    }

    // Half the distance is a quarter of the squared proxy.
    #[inline]
    fn cmp_prune_bound(&self, cmp_ac: f64) -> Option<f64> {
        prune_bound(cmp_ac, 0.25)
    }

    #[inline]
    fn cmp_distance_block(&self, query: &P, block: &[P], out: &mut [f64]) {
        kernels::cmp_block(KernelMetric::Euclidean, query.coords(), block, out);
    }

    // `distance` is *defined* as `sqrt(distance_squared)`, so squaring
    // the block kernel's proxies through `sqrt` reproduces the scalar
    // distances bit for bit.
    #[inline]
    fn distance_to_block(&self, query: &P, block: &[P], out: &mut [f64]) {
        kernels::cmp_block(KernelMetric::Euclidean, query.coords(), block, out);
        for v in out.iter_mut() {
            *v = v.sqrt();
        }
    }

    #[inline]
    fn within_block(&self, query: &P, block: &[P], cmp_threshold: f64, out: &mut [bool]) {
        kernels::within_block(
            KernelMetric::Euclidean,
            query.coords(),
            block,
            cmp_threshold,
            out,
        );
    }

    fn cache_fingerprint(&self, points: &[P]) -> Option<u128> {
        Some(fingerprint_points("euclidean", points))
    }
}

/// The Manhattan (L1) metric.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Manhattan;

impl<P: Coordinates> Metric<P> for Manhattan {
    #[inline]
    fn distance(&self, a: &P, b: &P) -> f64 {
        debug_assert_eq!(a.dim(), b.dim(), "dimension mismatch");
        a.coords()
            .iter()
            .zip(b.coords())
            .map(|(x, y)| (x - y).abs())
            .sum()
    }

    #[inline]
    fn cmp_distance_block(&self, query: &P, block: &[P], out: &mut [f64]) {
        kernels::cmp_block(KernelMetric::Manhattan, query.coords(), block, out);
    }

    #[inline]
    fn distance_to_block(&self, query: &P, block: &[P], out: &mut [f64]) {
        // cmp is the distance itself (identity proxy).
        kernels::cmp_block(KernelMetric::Manhattan, query.coords(), block, out);
    }

    #[inline]
    fn within_block(&self, query: &P, block: &[P], cmp_threshold: f64, out: &mut [bool]) {
        kernels::within_block(
            KernelMetric::Manhattan,
            query.coords(),
            block,
            cmp_threshold,
            out,
        );
    }

    #[inline]
    fn cmp_prune_bound(&self, cmp_ac: f64) -> Option<f64> {
        prune_bound(cmp_ac, 0.5)
    }

    fn cache_fingerprint(&self, points: &[P]) -> Option<u128> {
        Some(fingerprint_points("manhattan", points))
    }
}

/// The Chebyshev (L∞) metric.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Chebyshev;

impl<P: Coordinates> Metric<P> for Chebyshev {
    #[inline]
    fn distance(&self, a: &P, b: &P) -> f64 {
        debug_assert_eq!(a.dim(), b.dim(), "dimension mismatch");
        a.coords()
            .iter()
            .zip(b.coords())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    #[inline]
    fn cmp_distance_block(&self, query: &P, block: &[P], out: &mut [f64]) {
        kernels::cmp_block(KernelMetric::Chebyshev, query.coords(), block, out);
    }

    #[inline]
    fn distance_to_block(&self, query: &P, block: &[P], out: &mut [f64]) {
        kernels::cmp_block(KernelMetric::Chebyshev, query.coords(), block, out);
    }

    #[inline]
    fn within_block(&self, query: &P, block: &[P], cmp_threshold: f64, out: &mut [bool]) {
        kernels::within_block(
            KernelMetric::Chebyshev,
            query.coords(),
            block,
            cmp_threshold,
            out,
        );
    }

    #[inline]
    fn cmp_prune_bound(&self, cmp_ac: f64) -> Option<f64> {
        prune_bound(cmp_ac, 0.5)
    }

    fn cache_fingerprint(&self, points: &[P]) -> Option<u128> {
        Some(fingerprint_points("chebyshev", points))
    }
}

/// The angular distance `d(a, b) = arccos(cos_sim(a, b))` in radians.
///
/// Unlike raw cosine *similarity*, the angle is a proper metric on nonzero
/// vectors, so the clustering guarantees carry over to embedding spaces such
/// as the word2vec vectors of the paper's Wiki dataset. Zero vectors are
/// assigned angle `π/2` to every other vector (and `0` to themselves) so the
/// function stays total.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CosineAngular;

impl<P: Coordinates> Metric<P> for CosineAngular {
    #[inline]
    fn distance(&self, a: &P, b: &P) -> f64 {
        debug_assert_eq!(a.dim(), b.dim(), "dimension mismatch");
        let (mut dot, mut na, mut nb) = (0.0, 0.0, 0.0);
        for (x, y) in a.coords().iter().zip(b.coords()) {
            dot += x * y;
            na += x * x;
            nb += y * y;
        }
        if na == 0.0 && nb == 0.0 {
            return 0.0;
        }
        if na == 0.0 || nb == 0.0 {
            return std::f64::consts::FRAC_PI_2;
        }
        // Clamp for floating-point drift before acos.
        (dot / (na.sqrt() * nb.sqrt())).clamp(-1.0, 1.0).acos()
    }

    // The angle is its own comparison proxy (no monotone shortcut
    // survives the acos boundary cases), so both block entry points run
    // the same dispatched kernel.
    #[inline]
    fn cmp_distance_block(&self, query: &P, block: &[P], out: &mut [f64]) {
        kernels::cosine_block(query.coords(), block, out);
    }

    #[inline]
    fn distance_to_block(&self, query: &P, block: &[P], out: &mut [f64]) {
        kernels::cosine_block(query.coords(), block, out);
    }

    fn within_block(&self, query: &P, block: &[P], cmp_threshold: f64, out: &mut [bool]) {
        // Same shape as the shared exact path: proxy values through the
        // dispatched kernel, compared in place on stack sub-blocks.
        let mut buf = [0.0f64; 64];
        for (bchunk, ochunk) in block.chunks(64).zip(out.chunks_mut(64)) {
            let k = bchunk.len();
            kernels::cosine_block(query.coords(), bchunk, &mut buf[..k]);
            for (o, &d) in ochunk.iter_mut().zip(&buf[..k]) {
                *o = d <= cmp_threshold;
            }
        }
    }

    fn cache_fingerprint(&self, points: &[P]) -> Option<u128> {
        Some(fingerprint_points("cosine-angular", points))
    }
}

/// An explicit distance matrix over point indices `0..n`.
///
/// This is the adversary's metric: property tests use it to exercise the
/// algorithms on arbitrary (non-Euclidean) metrics, with
/// [`Precomputed::check_metric_axioms`] guarding that generated matrices are
/// genuine metrics.
#[derive(Clone, Debug)]
pub struct Precomputed {
    n: usize,
    /// Row-major `n × n` distances.
    d: Vec<f64>,
}

impl Precomputed {
    /// Builds a precomputed metric from a row-major `n × n` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `matrix.len() != n * n`.
    pub fn new(n: usize, matrix: Vec<f64>) -> Self {
        assert_eq!(matrix.len(), n * n, "matrix must be n*n");
        Precomputed { n, d: matrix }
    }

    /// Builds the metric from the distances of `points` under `metric`,
    /// so index-based algorithms can be cross-checked against point-based
    /// ones.
    pub fn from_points<P, M: Metric<P>>(points: &[P], metric: &M) -> Self {
        let n = points.len();
        let mut d = vec![0.0; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                let dist = metric.distance(&points[i], &points[j]);
                d[i * n + j] = dist;
                d[j * n + i] = dist;
            }
        }
        Precomputed { n, d }
    }

    /// Number of points in the space.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the space is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Verifies the metric axioms up to tolerance `tol`, returning a
    /// description of the first violation found.
    pub fn check_metric_axioms(&self, tol: f64) -> Result<(), String> {
        let n = self.n;
        for i in 0..n {
            if self.d[i * n + i].abs() > tol {
                return Err(format!("d({i},{i}) = {} != 0", self.d[i * n + i]));
            }
            for j in 0..n {
                let dij = self.d[i * n + j];
                if dij < 0.0 {
                    return Err(format!("d({i},{j}) = {dij} < 0"));
                }
                if (dij - self.d[j * n + i]).abs() > tol {
                    return Err(format!("asymmetric at ({i},{j})"));
                }
            }
        }
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    let lhs = self.d[i * n + j];
                    let rhs = self.d[i * n + k] + self.d[k * n + j];
                    if lhs > rhs + tol {
                        return Err(format!(
                            "triangle inequality violated: d({i},{j})={lhs} > d({i},{k})+d({k},{j})={rhs}"
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

impl Metric<usize> for Precomputed {
    #[inline]
    fn distance(&self, a: &usize, b: &usize) -> f64 {
        self.d[a * self.n + b]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point;

    fn p(coords: &[f64]) -> Point {
        Point::new(coords.to_vec())
    }

    #[test]
    fn euclidean_matches_hand_computation() {
        let a = p(&[0.0, 0.0]);
        let b = p(&[3.0, 4.0]);
        assert_eq!(Euclidean.distance(&a, &b), 5.0);
        assert_eq!(Euclidean.distance_squared(&a, &b), 25.0);
    }

    #[test]
    fn manhattan_matches_hand_computation() {
        let a = p(&[1.0, -1.0]);
        let b = p(&[4.0, 3.0]);
        assert_eq!(Manhattan.distance(&a, &b), 3.0 + 4.0);
    }

    #[test]
    fn chebyshev_matches_hand_computation() {
        let a = p(&[1.0, -1.0]);
        let b = p(&[4.0, 3.0]);
        assert_eq!(Chebyshev.distance(&a, &b), 4.0);
    }

    #[test]
    fn cosine_orthogonal_vectors() {
        let a = p(&[1.0, 0.0]);
        let b = p(&[0.0, 2.0]);
        let d = CosineAngular.distance(&a, &b);
        assert!((d - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
    }

    #[test]
    fn cosine_parallel_vectors_are_identical() {
        let a = p(&[1.0, 1.0]);
        let b = p(&[2.0, 2.0]);
        // acos amplifies rounding near cos = 1: acos(1 - 1e-16) ~ 1.5e-8.
        assert!(CosineAngular.distance(&a, &b) < 1e-7);
    }

    #[test]
    fn cosine_zero_vector_is_half_pi_from_everything() {
        let z = p(&[0.0, 0.0]);
        let a = p(&[1.0, 0.0]);
        assert_eq!(CosineAngular.distance(&z, &a), std::f64::consts::FRAC_PI_2);
        assert_eq!(CosineAngular.distance(&z, &z), 0.0);
    }

    #[test]
    // The needless borrow IS the test subject: the blanket `&M` impl.
    #[allow(clippy::needless_borrows_for_generic_args)]
    fn metric_through_reference() {
        // The blanket `&M` impl allows passing borrowed metrics.
        fn radius<M: Metric<Point>>(m: M, a: &Point, b: &Point) -> f64 {
            m.distance(a, b)
        }
        let a = p(&[0.0]);
        let b = p(&[2.0]);
        assert_eq!(radius(Euclidean, &a, &b), 2.0);
        assert_eq!(radius(&Euclidean, &a, &b), 2.0);
    }

    #[test]
    fn cmp_proxy_round_trips_and_orders() {
        let pts = [
            p(&[0.0, 0.0]),
            p(&[3.0, 4.0]),
            p(&[1.0, 1.0]),
            p(&[-2.5, 7.1]),
        ];
        // Point-free conversions need the point type pinned now that the
        // metrics are generic over `Coordinates`.
        let eucl: &dyn Metric<Point> = &Euclidean;
        let manh: &dyn Metric<Point> = &Manhattan;
        for a in &pts {
            for b in &pts {
                let d = Euclidean.distance(a, b);
                let c = Euclidean.cmp_distance(a, b);
                // Exact round-trip: sqrt of the square IS the distance.
                assert_eq!(eucl.cmp_to_distance(c).to_bits(), d.to_bits());
                assert_eq!(c == 0.0, d == 0.0);
                // Default impls on other metrics are the identity.
                let m = Manhattan.distance(a, b);
                assert_eq!(Manhattan.cmp_distance(a, b), m);
                assert_eq!(manh.distance_to_cmp(m), m);
            }
        }
        // Order isomorphism across pairs.
        let d01 = Euclidean.distance(&pts[0], &pts[1]);
        let d02 = Euclidean.distance(&pts[0], &pts[2]);
        let c01 = Euclidean.cmp_distance(&pts[0], &pts[1]);
        let c02 = Euclidean.cmp_distance(&pts[0], &pts[2]);
        assert_eq!(d01 > d02, c01 > c02);
        // Threshold mapping: radius 5 on the proxy scale is 25.
        assert_eq!(eucl.distance_to_cmp(5.0), 25.0);
    }

    #[test]
    fn cmp_proxy_forwards_through_references() {
        let a = p(&[0.0]);
        let b = p(&[3.0]);
        let by_ref: &dyn Metric<Point> = &Euclidean;
        assert_eq!((&by_ref).cmp_distance(&a, &b), 9.0);
        assert_eq!((&by_ref).cmp_to_distance(9.0), 3.0);
        assert_eq!((&by_ref).distance_to_cmp(3.0), 9.0);
    }

    #[test]
    fn precomputed_round_trips_euclidean() {
        let pts = vec![p(&[0.0]), p(&[1.0]), p(&[5.0])];
        let pre = Precomputed::from_points(&pts, &Euclidean);
        assert_eq!(pre.len(), 3);
        assert_eq!(pre.distance(&0, &2), 5.0);
        assert_eq!(pre.distance(&2, &1), 4.0);
        pre.check_metric_axioms(1e-9).unwrap();
    }

    #[test]
    fn precomputed_detects_triangle_violation() {
        // d(0,2)=10 but d(0,1)+d(1,2)=2.
        let m = Precomputed::new(
            3,
            vec![
                0.0, 1.0, 10.0, //
                1.0, 0.0, 1.0, //
                10.0, 1.0, 0.0,
            ],
        );
        let err = m.check_metric_axioms(1e-9).unwrap_err();
        assert!(err.contains("triangle"), "unexpected error: {err}");
    }

    #[test]
    fn precomputed_detects_asymmetry() {
        let m = Precomputed::new(2, vec![0.0, 1.0, 2.0, 0.0]);
        let err = m.check_metric_axioms(1e-9).unwrap_err();
        assert!(err.contains("asymmetric"), "unexpected error: {err}");
    }

    #[test]
    #[should_panic(expected = "matrix must be n*n")]
    fn precomputed_rejects_bad_shape() {
        let _ = Precomputed::new(2, vec![0.0; 3]);
    }
}
