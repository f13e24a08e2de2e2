//! Pairwise distances on the metric's comparison scale.
//!
//! [`DistanceMatrix::build_cmp`] prices a point set into a condensed matrix
//! of [`Metric::cmp_distance`] proxies, rayon-parallel over rows, and
//! [`CachedOracle`] builds that matrix at most once per handle family so
//! the many radius guesses of round 2 share it.
//! [`diameter_bounds`] brackets a point set's diameter with one linear
//! scan.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use rayon::prelude::*;

use crate::distance::Metric;

/// Process-wide count of [`DistanceMatrix`] builds, kept in the shared
/// metrics registry under `metric.matrix.builds`. The figure sweeps report
/// it so a run can show that every coreset was priced into a matrix at
/// most once; tests pin it to catch regressions that silently reintroduce
/// per-search rebuilds.
fn matrix_builds() -> &'static kcenter_obs::Counter {
    static COUNTER: OnceLock<kcenter_obs::Counter> = OnceLock::new();
    COUNTER.get_or_init(|| kcenter_obs::counter("metric.matrix.builds"))
}

/// Number of [`DistanceMatrix`] builds performed by this process so far.
pub fn matrix_build_count() -> usize {
    matrix_builds().get() as usize
}

/// Lower and upper bounds on the diameter of `points`.
///
/// Computes `r = max_j d(points[0], points[j])`; by the triangle inequality
/// the diameter lies in `[r, 2r]`. One `O(n)` pass instead of `O(n^2)`.
pub fn diameter_bounds<P: Sync, M: Metric<P>>(points: &[P], metric: &M) -> (f64, f64) {
    if points.len() < 2 {
        return (0.0, 0.0);
    }
    let r = metric.cmp_to_distance(
        points[1..]
            .par_iter()
            .map(|p| metric.cmp_distance(&points[0], p))
            .reduce(|| 0.0, f64::max),
    );
    (r, 2.0 * r)
}

/// A condensed symmetric matrix of [`Metric::cmp_distance`] proxies storing
/// only the strict upper triangle (`n(n-1)/2` entries), with a zero
/// diagonal.
///
/// Used by `OutliersCluster` to avoid recomputing distances across the
/// multiple radius guesses of the binary search when the coreset is small
/// enough to cache.
#[derive(Clone, PartialEq)]
pub struct DistanceMatrix {
    n: usize,
    /// Upper-triangular entries in row-major order:
    /// `(0,1), (0,2), …, (0,n-1), (1,2), …`.
    data: Vec<f64>,
}

impl std::fmt::Debug for DistanceMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistanceMatrix")
            .field("n", &self.n)
            .field("entries", &self.data.len())
            .finish()
    }
}

impl DistanceMatrix {
    /// Builds the matrix of [`Metric::cmp_distance`] comparison proxies of
    /// `points` under `metric` — entirely sqrt-free for metrics with a
    /// non-trivial proxy. Lookups through [`DistanceMatrix::get`] return
    /// *proxy* values; callers own the conversion discipline (see
    /// `CmpMatrixRef` in `kcenter-core`, which pairs the matrix with the
    /// metric's conversions so matrix-backed and metric-backed scans apply
    /// one comparison rule).
    ///
    /// The condensed buffer is allocated once and filled in place, parallel
    /// over rows: each row is one [`Metric::cmp_distance_block`] call over
    /// `points[i+1..]`, bit-identical to a per-pair scalar fill.
    pub fn build_cmp<P: Sync, M: Metric<P>>(points: &[P], metric: &M) -> Self {
        let n = points.len();
        let mut data = vec![0.0f64; n * n.saturating_sub(1) / 2];
        // Carve the condensed buffer into one mutable slice per row.
        let mut rows: Vec<(usize, &mut [f64])> = Vec::with_capacity(n.saturating_sub(1));
        let mut rest = data.as_mut_slice();
        for i in 0..n.saturating_sub(1) {
            let (row, tail) = rest.split_at_mut(n - 1 - i);
            rows.push((i, row));
            rest = tail;
        }
        rows.into_par_iter().for_each(|(i, row)| {
            metric.cmp_distance_block(&points[i], &points[i + 1..], row);
        });
        matrix_builds().inc();
        DistanceMatrix { n, data }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the matrix is over an empty point set.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    #[inline]
    fn index(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < j && j < self.n);
        // Offset of row i in the condensed layout plus column offset.
        i * self.n - i * (i + 1) / 2 + (j - i - 1)
    }

    /// The entry for points `i` and `j` (zero on the diagonal).
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        use std::cmp::Ordering::*;
        let data = self.condensed();
        match i.cmp(&j) {
            Equal => 0.0,
            Less => data[self.index(i, j)],
            Greater => data[self.index(j, i)],
        }
    }

    /// The condensed upper-triangle entries (for selection over candidates).
    #[inline]
    pub fn condensed(&self) -> &[f64] {
        &self.data
    }
}

/// A shared, memoized distance oracle over an owned point set.
///
/// The handle owns its points behind an `Arc` and lazily prices them into a
/// *proxy-scale* [`DistanceMatrix`] ([`Metric::cmp_distance`] entries, built
/// row-parallel) the first time a cached lookup is needed. Cloning the
/// handle shares the cache: every clone sees the same matrix, and the
/// matrix is built **at most once per handle family** no matter how many
/// radius searches, sweep configurations, or clones interrogate it — the
/// fix for sweeps that used to re-derive the same `O(|T|²)` matrix for
/// every ε and parallelism setting.
///
/// Point sets larger than `threshold` are never cached:
/// [`CachedOracle::matrix`] returns `None`, and `kcenter-core`'s
/// `solve_coreset_cached` then evaluates the metric on demand through its
/// `PointsOracle` (the [`DistanceMatrix`] memory ceiling of the radius
/// search). Both paths compare on the metric's proxy scale, so their
/// results are bitwise interchangeable (see the `Metric::cmp_distance`
/// contract).
pub struct CachedOracle<'m, P, M> {
    points: Arc<[P]>,
    metric: &'m M,
    cache: Arc<OnceLock<DistanceMatrix>>,
    builds: Arc<AtomicUsize>,
    threshold: usize,
}

impl<P, M> Clone for CachedOracle<'_, P, M> {
    fn clone(&self) -> Self {
        CachedOracle {
            points: Arc::clone(&self.points),
            metric: self.metric,
            cache: Arc::clone(&self.cache),
            builds: Arc::clone(&self.builds),
            threshold: self.threshold,
        }
    }
}

impl<'m, P: Sync, M: Metric<P>> CachedOracle<'m, P, M> {
    /// Wraps `points` under `metric`; the proxy matrix is cached lazily
    /// when the point count is at most `threshold`.
    pub fn new(points: Vec<P>, metric: &'m M, threshold: usize) -> Self {
        CachedOracle {
            points: points.into(),
            metric,
            cache: Arc::new(OnceLock::new()),
            builds: Arc::new(AtomicUsize::new(0)),
            threshold,
        }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the point set is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The owned points.
    pub fn points(&self) -> &[P] {
        &self.points
    }

    /// The metric the oracle evaluates and converts with.
    pub fn metric(&self) -> &'m M {
        self.metric
    }

    /// The cached proxy-scale matrix, building it on first use — or `None`
    /// when the point set exceeds the cache threshold. Shared across all
    /// clones of the handle; at most one build ever happens.
    ///
    /// The build runs inside the `OnceLock` initializer **and**
    /// parallelizes over the pool, so the *first* call for a handle family
    /// must come from a thread that is not currently executing a pool task
    /// which itself calls `matrix()` on this handle — otherwise the
    /// initializing worker, which participates in scheduling while it
    /// builds, can steal such a task and re-enter the initializer on its
    /// own thread (deadlock). `kcenter-core`'s `solve_coreset_cached`
    /// calls it once on the submitting thread, before any parallel scan,
    /// and its scans then read the resolved matrix, never the handle;
    /// other callers should resolve it the same way.
    pub fn matrix(&self) -> Option<&DistanceMatrix> {
        if self.points.len() > self.threshold {
            return None;
        }
        Some(self.cache.get_or_init(|| {
            self.builds.fetch_add(1, Ordering::Relaxed);
            DistanceMatrix::build_cmp(&self.points, self.metric)
        }))
    }

    /// How many times this handle family built its matrix (0 before
    /// first cached use, never more than 1).
    pub fn build_count(&self) -> usize {
        self.builds.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::Euclidean;
    use crate::point::Point;

    fn pts(coords: &[f64]) -> Vec<Point> {
        coords.iter().map(|&c| Point::new(vec![c])).collect()
    }

    #[test]
    fn diameter_bounds_bracket_true_diameter() {
        let points = pts(&[0.0, 1.0, 10.0, -3.0]);
        let (lo, hi) = diameter_bounds(&points, &Euclidean);
        let true_diameter = 13.0;
        assert!(lo <= true_diameter + 1e-12, "lo={lo}");
        assert!(hi >= true_diameter - 1e-12, "hi={hi}");
    }

    #[test]
    fn diameter_bounds_degenerate() {
        assert_eq!(diameter_bounds(&pts(&[7.0]), &Euclidean), (0.0, 0.0));
    }

    #[test]
    fn distance_matrix_symmetric_lookup() {
        let points = pts(&[0.0, 2.0, 7.0, -1.0]);
        let m = DistanceMatrix::build_cmp(&points, &Euclidean);
        assert_eq!(m.len(), 4);
        for i in 0..4 {
            assert_eq!(m.get(i, i), 0.0);
            for j in 0..4 {
                assert_eq!(m.get(i, j), m.get(j, i));
                assert_eq!(
                    m.get(i, j).to_bits(),
                    Euclidean.cmp_distance(&points[i], &points[j]).to_bits(),
                    "mismatch at ({i},{j})"
                );
            }
        }
        assert_eq!(m.condensed().len(), 6);
    }

    #[test]
    fn cached_oracle_builds_once_across_clones() {
        let points = pts(&[0.0, 2.0, 7.0, -1.0]);
        let oracle = CachedOracle::new(points.clone(), &Euclidean, 1_000);
        assert_eq!(oracle.build_count(), 0);
        let clone_a = oracle.clone();
        let clone_b = oracle.clone();
        // Interrogate the clones in any order: exactly one build, one
        // shared matrix.
        let shared = clone_a.matrix().expect("below threshold");
        for o in [&clone_a, &oracle, &clone_b] {
            let m = o.matrix().expect("below threshold");
            assert!(std::ptr::eq(m, shared), "clones must share the cache");
            for i in 0..4 {
                for j in 0..4 {
                    assert_eq!(
                        m.get(i, j).to_bits(),
                        Euclidean.cmp_distance(&points[i], &points[j]).to_bits()
                    );
                }
            }
        }
        assert_eq!(oracle.build_count(), 1);
        assert_eq!(clone_b.build_count(), 1, "matrix() must not rebuild");
    }

    #[test]
    fn cached_oracle_above_threshold_stays_on_demand() {
        let points = pts(&[0.0, 3.0, 5.0]);
        let oracle = CachedOracle::new(points, &Euclidean, 2);
        assert!(oracle.matrix().is_none());
        assert_eq!(oracle.build_count(), 0);
    }

    #[test]
    fn cached_oracle_reports_shape() {
        let oracle = CachedOracle::new(pts(&[1.0, 4.0]), &Euclidean, 10);
        assert_eq!(oracle.len(), 2);
        assert!(!oracle.is_empty());
        assert_eq!(oracle.points().len(), 2);
        let empty: CachedOracle<Point, _> = CachedOracle::new(Vec::new(), &Euclidean, 10);
        assert!(empty.is_empty());
    }

    #[test]
    fn matrix_build_counter_is_monotone() {
        // The counter is process-global and tests run concurrently, so only
        // lower bounds are asserted.
        let before = matrix_build_count();
        let _ = DistanceMatrix::build_cmp(&pts(&[0.0, 1.0]), &Euclidean);
        assert!(matrix_build_count() > before);
        let oracle = CachedOracle::new(pts(&[0.0, 1.0, 2.0]), &Euclidean, 10);
        let mid = matrix_build_count();
        let _ = oracle.matrix();
        let _ = oracle.clone().matrix();
        assert!(matrix_build_count() > mid);
        assert_eq!(oracle.build_count(), 1);
    }

    #[test]
    fn distance_matrix_empty_and_singleton() {
        let m = DistanceMatrix::build_cmp::<Point, _>(&[], &Euclidean);
        assert!(m.is_empty());
        assert_eq!(m.condensed().len(), 0);
        let m1 = DistanceMatrix::build_cmp(&pts(&[1.0]), &Euclidean);
        assert_eq!(m1.len(), 1);
        assert_eq!(m1.get(0, 0), 0.0);
    }
}
