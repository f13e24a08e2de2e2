//! Pairwise distances on the metric's comparison scale.
//!
//! [`DistanceMatrix::build_cmp`] prices a point set into a condensed matrix
//! of [`Metric::cmp_distance`] proxies, rayon-parallel over rows, and
//! [`CachedOracle`] builds (or loads) that matrix at most once per handle
//! family so the many radius guesses of round 2 share it.
//! [`diameter_bounds`] brackets a point set's diameter with one linear
//! scan.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use rayon::prelude::*;

use crate::distance::Metric;
use crate::persist;

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

/// An immutable `f64` buffer at a stable address, usable as the backing
/// store of a [`DistanceMatrix`] without copying.
///
/// The persistent artifact store implements this for memory-mapped cache
/// entries so a warm matrix load is a header validation plus a pointer,
/// not a decode pass; [`Vec<f64>`] and [`Box<[f64]>`] implementations are
/// provided for owned buffers shared behind an `Arc`.
///
/// # Safety
///
/// Implementations must return the **same** buffer from every call:
/// immutable, at a stable address, and valid for as long as the value is
/// alive. The matrix holds the value behind an `Arc` and keeps a raw view
/// of the buffer for its own lifetime, so a buffer that moves, shrinks, or
/// is mutated after construction is undefined behaviour.
pub unsafe trait StableF64s: Send + Sync + 'static {
    /// The backing buffer.
    fn stable_f64s(&self) -> &[f64];
}

// SAFETY: behind the `Arc` the matrix holds, neither type can be mutated
// or reallocated (no interior mutability; `Arc::get_mut` fails while the
// matrix's clone is alive), so the heap buffer is stable and immutable.
unsafe impl StableF64s for Vec<f64> {
    fn stable_f64s(&self) -> &[f64] {
        self
    }
}

// SAFETY: as above — the boxed slice's buffer cannot move while shared.
unsafe impl StableF64s for Box<[f64]> {
    fn stable_f64s(&self) -> &[f64] {
        self
    }
}

/// The matrix's condensed entries: owned, or borrowed at a stable address
/// from an external owner (e.g. a memory-mapped store entry).
enum MatrixData {
    Owned(Vec<f64>),
    External(ExternalData),
}

/// A raw view into an external owner's buffer. The pointer is derived from
/// [`StableF64s::stable_f64s`] at construction and stays valid because the
/// owner is kept alive (and its buffer stable, per the trait contract) by
/// the `Arc`.
struct ExternalData {
    ptr: *const f64,
    len: usize,
    _owner: Arc<dyn StableF64s>,
}

// SAFETY: the viewed buffer is immutable and the owner is Send + Sync, so
// sharing or sending the raw view cannot race.
unsafe impl Send for ExternalData {}
unsafe impl Sync for ExternalData {}

impl Clone for ExternalData {
    fn clone(&self) -> Self {
        ExternalData {
            ptr: self.ptr,
            len: self.len,
            _owner: Arc::clone(&self._owner),
        }
    }
}

impl Clone for MatrixData {
    fn clone(&self) -> Self {
        match self {
            MatrixData::Owned(v) => MatrixData::Owned(v.clone()),
            MatrixData::External(e) => MatrixData::External(e.clone()),
        }
    }
}

/// A condensed symmetric matrix of [`Metric::cmp_distance`] proxies storing
/// only the strict upper triangle (`n(n-1)/2` entries), with a zero
/// diagonal.
///
/// Used by `OutliersCluster` to avoid recomputing distances across the
/// multiple radius guesses of the binary search when the coreset is small
/// enough to cache.
#[derive(Clone)]
pub struct DistanceMatrix {
    n: usize,
    /// Upper-triangular entries in row-major order:
    /// `(0,1), (0,2), …, (0,n-1), (1,2), …`.
    data: MatrixData,
}

impl std::fmt::Debug for DistanceMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistanceMatrix")
            .field("n", &self.n)
            .field("entries", &self.condensed().len())
            .field(
                "backing",
                &match self.data {
                    MatrixData::Owned(_) => "owned",
                    MatrixData::External(_) => "external",
                },
            )
            .finish()
    }
}

impl PartialEq for DistanceMatrix {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.condensed() == other.condensed()
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
        DistanceMatrix {
            n,
            data: MatrixData::Owned(data),
        }
    }

    /// Reassembles a matrix from its condensed upper-triangle entries —
    /// the persistent store's decode path. Does **not** count as a build
    /// ([`matrix_build_count`] only tracks matrices actually priced by
    /// distance evaluations), which is what lets a warm-cache run prove
    /// `matrix_build_count() == 0`.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != n·(n-1)/2`; the store's codec validates
    /// entry counts (and a checksum) before calling this.
    pub fn from_condensed(n: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            n * n.saturating_sub(1) / 2,
            "condensed length does not match n = {n}"
        );
        DistanceMatrix {
            n,
            data: MatrixData::Owned(data),
        }
    }

    /// A matrix viewing an external owner's condensed entries **without
    /// copying** — the persistent store's mmap-backed warm-load path. The
    /// owner (typically a validated memory mapping) is kept alive behind
    /// an `Arc`; per the [`StableF64s`] contract its buffer is immutable
    /// and address-stable, so lookups are as fast as the owned path.
    ///
    /// # Panics
    ///
    /// Panics if the owner's buffer length is not `n·(n-1)/2`.
    pub fn from_shared(n: usize, owner: Arc<dyn StableF64s>) -> Self {
        let slice = owner.stable_f64s();
        assert_eq!(
            slice.len(),
            n * n.saturating_sub(1) / 2,
            "condensed length does not match n = {n}"
        );
        let (ptr, len) = (slice.as_ptr(), slice.len());
        DistanceMatrix {
            n,
            data: MatrixData::External(ExternalData {
                ptr,
                len,
                _owner: owner,
            }),
        }
    }

    /// Whether the condensed entries live in an external (e.g. memory-
    /// mapped) buffer rather than an owned allocation.
    pub fn is_externally_backed(&self) -> bool {
        matches!(self.data, MatrixData::External(_))
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
        match &self.data {
            MatrixData::Owned(v) => v,
            // SAFETY: `ptr`/`len` were derived from the owner's stable,
            // immutable buffer, which the held `Arc` keeps alive.
            MatrixData::External(e) => unsafe { std::slice::from_raw_parts(e.ptr, e.len) },
        }
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
    loads: Arc<AtomicUsize>,
    threshold: usize,
}

impl<P, M> Clone for CachedOracle<'_, P, M> {
    fn clone(&self) -> Self {
        CachedOracle {
            points: Arc::clone(&self.points),
            metric: self.metric,
            cache: Arc::clone(&self.cache),
            builds: Arc::clone(&self.builds),
            loads: Arc::clone(&self.loads),
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
            loads: Arc::new(AtomicUsize::new(0)),
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
        Some(self.cache.get_or_init(|| self.resolve_matrix()))
    }

    /// The `OnceLock` initializer body: consult the process-wide
    /// persistence backend (when one is installed *and* the metric can
    /// fingerprint the points), otherwise — or on any miss — price the
    /// matrix and hand it back to the backend.
    ///
    /// A persisted matrix is only served when its size matches the point
    /// set (a stale or fingerprint-colliding entry is treated as a miss),
    /// and loading never counts as a build: warm runs must be able to
    /// prove `matrix_build_count() == 0` while `store_hit_count() > 0`.
    fn resolve_matrix(&self) -> DistanceMatrix {
        if let Some(backend) = persist::matrix_persistence() {
            if let Some(fingerprint) = self.metric.cache_fingerprint(&self.points) {
                if let Some(matrix) = backend.load(fingerprint) {
                    if matrix.len() == self.points.len() {
                        persist::record_store_hit();
                        self.loads.fetch_add(1, Ordering::Relaxed);
                        return matrix;
                    }
                }
                persist::record_store_miss();
                self.builds.fetch_add(1, Ordering::Relaxed);
                let matrix = DistanceMatrix::build_cmp(&self.points, self.metric);
                backend.store(fingerprint, &matrix);
                return matrix;
            }
        }
        self.builds.fetch_add(1, Ordering::Relaxed);
        DistanceMatrix::build_cmp(&self.points, self.metric)
    }

    /// How many times this handle family actually built its matrix (0
    /// before first cached use, never more than 1; 0 forever when the
    /// matrix was served by the persistent store — see
    /// [`CachedOracle::load_count`]).
    pub fn build_count(&self) -> usize {
        self.builds.load(Ordering::Relaxed)
    }

    /// How many times this handle family loaded its matrix from the
    /// installed persistence backend instead of building it (0 or 1; a
    /// resolved oracle always has `build_count() + load_count() == 1`).
    pub fn load_count(&self) -> usize {
        self.loads.load(Ordering::Relaxed)
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
    fn from_condensed_round_trips_without_counting_a_build() {
        let points = pts(&[0.0, 2.0, 7.0, -1.0]);
        let m = DistanceMatrix::build_cmp(&points, &Euclidean);
        let before = matrix_build_count();
        let rebuilt = DistanceMatrix::from_condensed(m.len(), m.condensed().to_vec());
        assert_eq!(
            matrix_build_count(),
            before,
            "loads must not count as builds"
        );
        assert_eq!(rebuilt.len(), m.len());
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(rebuilt.get(i, j).to_bits(), m.get(i, j).to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "condensed length")]
    fn from_condensed_rejects_misaligned_data() {
        let _ = DistanceMatrix::from_condensed(4, vec![0.0; 5]);
    }

    #[test]
    fn from_shared_views_the_owner_without_copying() {
        let points = pts(&[0.0, 2.0, 7.0, -1.0]);
        let owned = DistanceMatrix::build_cmp(&points, &Euclidean);
        let buffer: Arc<Vec<f64>> = Arc::new(owned.condensed().to_vec());
        let before = matrix_build_count();
        let shared = DistanceMatrix::from_shared(owned.len(), buffer.clone());
        assert_eq!(matrix_build_count(), before, "views are not builds");
        assert!(shared.is_externally_backed());
        assert!(!owned.is_externally_backed());
        // The view's data pointer is the owner's buffer: zero copy.
        assert!(std::ptr::eq(shared.condensed().as_ptr(), buffer.as_ptr()));
        assert_eq!(shared, owned);
        let cloned = shared.clone();
        drop(shared);
        drop(buffer);
        // The clone keeps the owner alive through its Arc.
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(cloned.get(i, j).to_bits(), owned.get(i, j).to_bits());
            }
        }
        assert!(format!("{cloned:?}").contains("external"));
        assert!(format!("{owned:?}").contains("owned"));
    }

    #[test]
    #[should_panic(expected = "condensed length")]
    fn from_shared_rejects_misaligned_data() {
        let _ = DistanceMatrix::from_shared(4, Arc::new(vec![0.0; 5]));
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
