//! Estimating `r̃min` — the smallest radius at which `OutliersCluster`
//! leaves at most `z` weight uncovered.
//!
//! Round 2 of the outlier algorithms (and the streaming finalizations) run
//! `OutliersCluster` for multiple radius guesses to estimate the minimum
//! feasible radius within a multiplicative tolerance `(1+δ)`, where
//! `δ = ε̂/(3+4ε̂)` (paper §3.2). Two search modes are provided:
//!
//! * [`SearchMode::GeometricGrid`] — binary search over the geometric grid
//!   `r_lo·(1+δ)^i` spanning the minimum positive pairwise distance to the
//!   diameter. This is the default: it computes each candidate when the
//!   search probes it, so it stores `O(1)` candidates, mirroring the
//!   paper's use of space-bounded selection (they cite Munro–Paterson) to
//!   avoid materializing all `O(|T|²)` distances. It needs
//!   `ε̂ ≥` [`MIN_EPS_HAT`].
//! * [`SearchMode::ExactCandidates`] — binary search over the sorted
//!   multiset of actual pairwise distances, the classical Charikar-style
//!   search; quadratic memory, only sensible for small coresets, and the
//!   reference the geometric mode is differentially tested against.
//!
//! Feasibility at the returned radius is always *verified*, never assumed:
//! the greedy cover is not theoretically monotone in `r`, so the binary
//! search maintains a known-feasible upper bound and returns its result.

use rayon::prelude::*;

use kcenter_metric::{CachedOracle, Metric};

use crate::coreset::WeightedCoreset;
use crate::outliers_cluster::{
    outliers_cluster, CmpMatrixRef, DistanceOracle, OutliersClusterResult, PointsOracle,
};

/// Smallest `ε̂` the geometric grid accepts, and so the floor every entry
/// point that feeds `ε̂` to the grid validates against.
///
/// The grid probes `r_lo·(1+δ)^i` with `δ = ε̂/(3+4ε̂)` and an `i32`
/// exponent `i` below `ln(r_hi/r_lo)/ln(1+δ)`. Finite distances span at
/// most about `e^1456` (`f64::MAX` over the smallest subnormal, times the
/// factor 2 on `r_hi` and `3+4ε̂` on `r_lo`), so at `ε̂ ≥ 1e-5`
/// (`δ ≥ 3.3·10⁻⁶`) every grid stays under `4.4·10⁸` steps, well inside
/// `i32`. A much smaller `ε̂` can overflow the exponent.
pub const MIN_EPS_HAT: f64 = 1e-5;

/// The smallest positive `f64` (a subnormal): the least radius above 0.
const SMALLEST_POSITIVE_RADIUS: f64 = f64::from_bits(1);

/// Process-wide count of the `OutliersCluster` probes the radius search
/// has run, in the shared metrics registry as
/// `core.radius_search.evaluations`: the sum of every search's
/// [`RadiusSearchResult::evaluations`].
fn search_evaluations() -> &'static kcenter_obs::Counter {
    static COUNTER: std::sync::OnceLock<kcenter_obs::Counter> = std::sync::OnceLock::new();
    COUNTER.get_or_init(|| kcenter_obs::counter("core.radius_search.evaluations"))
}

/// Which candidate-radius structure the search walks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SearchMode {
    /// Binary search over a `(1+δ)` geometric grid (constant memory).
    GeometricGrid,
    /// Binary search over all pairwise distances (quadratic memory).
    ExactCandidates,
}

/// Outcome of the radius search.
#[derive(Clone, Debug)]
pub struct RadiusSearchResult {
    /// The estimated minimum feasible radius `r̃min`.
    pub radius: f64,
    /// The verified `OutliersCluster` output at `r̃min`.
    pub clustering: OutliersClusterResult,
    /// Number of `OutliersCluster` evaluations performed.
    pub evaluations: usize,
}

/// The increasing candidate radii the binary search walks.
enum Candidates {
    /// Sorted, deduplicated pairwise distances and their cover-scaled
    /// counterparts.
    Listed(Vec<f64>),
    /// The geometric grid `r_lo·(1+δ)^i` for `i < len`, each radius
    /// computed when the search probes it.
    Grid { r_lo: f64, delta: f64, len: usize },
}

impl Candidates {
    fn len(&self) -> usize {
        match self {
            Candidates::Listed(all) => all.len(),
            Candidates::Grid { len, .. } => *len,
        }
    }

    fn get(&self, i: usize) -> f64 {
        match self {
            Candidates::Listed(all) => all[i],
            Candidates::Grid { r_lo, delta, .. } => {
                let growth = (1.0 + delta).powi(i as i32);
                if growth.is_finite() {
                    r_lo * growth
                } else {
                    // `(1+δ)^i` overflows only when `r_hi/r_lo` nears
                    // `f64::MAX` — a grid from a subnormal `r_lo`. The
                    // product may still be finite: take it in log space.
                    (r_lo.log2() + i as f64 * (1.0 + delta).log2()).exp2()
                }
            }
        }
    }
}

/// Finds the smallest radius (within tolerance) at which the coreset can be
/// covered by `k` centers leaving at most `z_weight` uncovered.
///
/// # Panics
///
/// Panics if the coreset is empty, `k == 0`, or `eps_hat` is below
/// [`MIN_EPS_HAT`] (or `NaN`) with [`SearchMode::GeometricGrid`].
pub fn find_min_feasible_radius<O: DistanceOracle>(
    oracle: &O,
    weights: &[u64],
    k: usize,
    z_weight: u64,
    eps_hat: f64,
    mode: SearchMode,
) -> RadiusSearchResult {
    let n = oracle.len();
    assert!(n > 0, "radius search over an empty coreset");
    assert_eq!(weights.len(), n, "weights misaligned with points");
    assert!(k > 0, "k must be positive");

    let evaluations = std::cell::Cell::new(0usize);
    let probe = |r: f64| -> OutliersClusterResult {
        evaluations.set(evaluations.get() + 1);
        search_evaluations().inc();
        outliers_cluster(oracle, weights, k, r, eps_hat)
    };
    let feasible = |r: f64| -> Option<OutliersClusterResult> {
        let result = probe(r);
        (result.uncovered_weight <= z_weight).then_some(result)
    };

    // r = 0 succeeds when k centers cover all-but-z weight exactly
    // (duplicates, or nearly everything allowed to be an outlier).
    if let Some(result) = feasible(0.0) {
        return RadiusSearchResult {
            radius: 0.0,
            clustering: result,
            evaluations: evaluations.get(),
        };
    }

    // Radii below min_pairwise/(3+4ε̂) behave exactly like r = 0 (removal
    // balls contain only coincident points), so the search space starts
    // there — NOT at the minimum pairwise distance itself, which for
    // GMM-built coresets (points deliberately far apart) can exceed the
    // optimum by the full (3+4ε̂) factor.
    let cover_factor = 3.0 + 4.0 * eps_hat;
    let candidates = match mode {
        SearchMode::ExactCandidates => {
            // Pairwise distances and their cover-scaled counterparts: the
            // minimal feasible radius has (3+4ε̂)·r or (1+2ε̂)·r at a
            // pairwise distance, so d/(3+4ε̂) candidates bracket it from
            // below while plain d keeps the classical guarantee r̃ ≤ r*.
            let mut all: Vec<f64> = (0..n)
                .into_par_iter()
                .flat_map_iter(|i| {
                    (i + 1..n).flat_map(move |j| {
                        let d = oracle.dist(i, j);
                        [d, d / cover_factor]
                    })
                })
                .filter(|&d| d > 0.0)
                .collect();
            all.sort_by(f64::total_cmp);
            all.dedup();
            Candidates::Listed(all)
        }
        SearchMode::GeometricGrid => {
            assert!(
                eps_hat >= MIN_EPS_HAT,
                "geometric grid needs eps_hat >= {MIN_EPS_HAT:e}"
            );
            let delta = eps_hat / (3.0 + 4.0 * eps_hat);
            // A subnormal minimum distance can underflow `d/(3+4ε̂)` to 0.
            // No radius lies strictly between 0 (infeasible, probed above)
            // and the smallest positive f64, so the grid starts there.
            let r_lo = min_positive_distance(oracle)
                .map(|d| (d / cover_factor).max(SMALLEST_POSITIVE_RADIUS));
            match r_lo {
                // All points identical; r = 0 handled above.
                None => Candidates::Listed(Vec::new()),
                Some(r_lo) => {
                    // Upper bound: twice the max distance from point 0
                    // bounds the diameter (triangle inequality). The scan
                    // compares proxies; one conversion at the boundary.
                    let r_hi = 2.0
                        * oracle.cmp_to_radius(
                            (1..n)
                                .into_par_iter()
                                .map(|j| oracle.cmp_dist(0, j))
                                .reduce(|| 0.0, f64::max),
                        );
                    // From a subnormal `r_lo` the ratio itself can
                    // overflow; its logarithm cannot.
                    let ratio = r_hi / r_lo;
                    let span = if ratio.is_finite() {
                        ratio.ln()
                    } else {
                        r_hi.ln() - r_lo.ln()
                    };
                    let steps = (span / (1.0 + delta).ln()).ceil() as usize + 1;
                    Candidates::Grid {
                        r_lo,
                        delta,
                        len: steps + 1,
                    }
                }
            }
        }
    };

    if candidates.len() == 0 {
        // Degenerate: no positive pairwise distance, yet r = 0 infeasible —
        // cover everything with one ball of any positive radius is also
        // impossible only if k < needed; fall back to r = 0 result.
        let result = probe(0.0);
        return RadiusSearchResult {
            radius: 0.0,
            clustering: result,
            evaluations: evaluations.get(),
        };
    }

    // The largest candidate is always feasible: every pair is within the
    // diameter, so the first center's removal ball covers everything.
    let mut lo = 0usize; // infeasible or untested below
    let mut hi = candidates.len() - 1;
    let mut best: Option<(f64, OutliersClusterResult)>;
    match feasible(candidates.get(hi)) {
        Some(result) => best = Some((candidates.get(hi), result)),
        None => {
            // Should not happen (diameter covers all), but stay defensive:
            // extend upward geometrically, from a positive radius, until
            // feasible.
            let mut r = candidates.get(hi).max(SMALLEST_POSITIVE_RADIUS) * 2.0;
            loop {
                if let Some(result) = feasible(r) {
                    return RadiusSearchResult {
                        radius: r,
                        clustering: result,
                        evaluations: evaluations.get(),
                    };
                }
                r *= 2.0;
                assert!(r.is_finite(), "radius search diverged");
            }
        }
    }

    // Binary search for the smallest feasible candidate; `hi` stays the
    // smallest *verified* feasible index.
    if let Some(result) = feasible(candidates.get(lo)) {
        let (r, res) = (candidates.get(lo), result);
        return RadiusSearchResult {
            radius: r,
            clustering: res,
            evaluations: evaluations.get(),
        };
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        match feasible(candidates.get(mid)) {
            Some(result) => {
                hi = mid;
                best = Some((candidates.get(mid), result));
            }
            None => lo = mid,
        }
    }

    let (radius, clustering) = best.expect("feasible upper bound established");
    RadiusSearchResult {
        radius,
        clustering,
        evaluations: evaluations.get(),
    }
}

/// Cap on the coreset size up to which the radius search caches the full
/// pairwise [`DistanceMatrix`](kcenter_metric::DistanceMatrix) (`10_000² / 2` f64 ≈ 400 MiB) instead of
/// re-evaluating the metric on the fly. The cache pays for itself across
/// the ~log-many `OutliersCluster` evaluations of the search; above the
/// threshold (e.g. the paper-scale Fig. 4 unions of ~28k points, whose
/// matrix would be ~3 GiB) distances are evaluated on demand.
///
/// Each `OutliersCluster` evaluation also holds its ball relation as bits
/// for the length of the call, `n·⌈n/64⌉·8` bytes on either side of the
/// threshold: 12.6 MB at the cap, about 1/32 of the matrix, and 0.39 MB
/// at a 1,760-point union. Above the threshold it is the only quadratic
/// memory (50 MB at 20,000 points).
///
/// This constant is the *fallback and upper bound*; the algorithms consult
/// [`default_matrix_threshold`], which additionally shrinks the threshold
/// when the machine's available memory could not hold the cache.
pub const DEFAULT_MATRIX_THRESHOLD: usize = 10_000;

/// The matrix-caching threshold derived from the machine's available
/// memory: the largest `n` whose condensed `n(n-1)/2`-entry `f64` matrix
/// fits in a quarter of available memory, capped at
/// [`DEFAULT_MATRIX_THRESHOLD`]. Falls back to the cap when available
/// memory cannot be determined (non-Linux, or `/proc` unavailable).
///
/// Computed once per process (first call) and cached: repeated config
/// construction must not re-read `/proc/meminfo`, and — more importantly —
/// one process must observe one threshold, so identical solves within a
/// run cannot flip between the cached-matrix and on-demand paths as free
/// memory fluctuates.
pub fn default_matrix_threshold() -> usize {
    static CACHED: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CACHED.get_or_init(|| matrix_threshold_for_memory(available_memory_bytes()))
}

/// Pure sizing rule behind [`default_matrix_threshold`], split out for
/// testing: `None` means "unknown", yielding the fallback cap.
fn matrix_threshold_for_memory(available: Option<u64>) -> usize {
    match available {
        None => DEFAULT_MATRIX_THRESHOLD,
        Some(bytes) => {
            // n(n-1)/2 entries of 8 bytes ≈ 4n² bytes; budget a quarter of
            // what is available so the cache never dominates memory.
            let budget = bytes / 4;
            let n = ((budget as f64) / 4.0).sqrt() as usize;
            n.min(DEFAULT_MATRIX_THRESHOLD)
        }
    }
}

/// Available physical memory in bytes (Linux `MemAvailable`), if known.
fn available_memory_bytes() -> Option<u64> {
    let meminfo = std::fs::read_to_string("/proc/meminfo").ok()?;
    for line in meminfo.lines() {
        if let Some(rest) = line.strip_prefix("MemAvailable:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb.saturating_mul(1024));
        }
    }
    None
}

/// The solved coreset: what round 2 of the outlier algorithms produces.
#[derive(Clone, Debug)]
pub struct CoresetSolution<P> {
    /// The selected centers (actual points).
    pub centers: Vec<P>,
    /// The estimated minimum feasible radius `r̃min` on the coreset.
    pub r_min: f64,
    /// Aggregate weight left uncovered at `r̃min` (≤ z by construction).
    pub uncovered_weight: u64,
    /// Number of `OutliersCluster` evaluations performed by the search.
    pub evaluations: usize,
}

/// Solves the k-center-with-outliers problem on a weighted coreset: radius
/// search followed by `OutliersCluster` at the found radius. This is the
/// shared second phase of the deterministic/randomized MapReduce algorithms,
/// the sequential algorithm, and both streaming finalizations.
///
/// Distances are cached in a proxy-scale matrix when the coreset has at
/// most `matrix_threshold` points. Internally this prices the coreset into
/// a fresh [`CachedOracle`]; callers that run **multiple** searches over
/// one coreset (ε sweeps, search-mode ablations, repeated solves) should
/// hold a [`CachedOracle`] themselves and call [`solve_coreset_cached`] so
/// the matrix is built at most once across all of them.
///
/// # Panics
///
/// Panics if the coreset is empty or `k == 0`.
pub fn solve_coreset<P, M>(
    coreset: &WeightedCoreset<P>,
    metric: &M,
    k: usize,
    z: u64,
    eps_hat: f64,
    mode: SearchMode,
    matrix_threshold: usize,
) -> CoresetSolution<P>
where
    P: Clone + Sync,
    M: Metric<P>,
{
    assert!(!coreset.is_empty(), "cannot solve an empty coreset");
    let oracle = CachedOracle::new(coreset.points_only(), metric, matrix_threshold);
    solve_coreset_cached(&oracle, &coreset.weights(), k, z, eps_hat, mode)
}

/// [`solve_coreset`] over an externally shared [`CachedOracle`]: the
/// oracle's proxy matrix is built lazily on the first search and reused by
/// every subsequent search on the same handle (or any clone of it), so a
/// sweep that solves one coreset under many parameters prices it into a
/// matrix exactly once per process.
///
/// Both the cached and the on-demand path compare on the metric's proxy
/// scale, so the result is bitwise independent of which side of the
/// oracle's cache threshold — itself environment-derived — a run lands on.
///
/// # Panics
///
/// Panics if the oracle is empty, `weights` is misaligned, or `k == 0`.
pub fn solve_coreset_cached<P, M>(
    oracle: &CachedOracle<'_, P, M>,
    weights: &[u64],
    k: usize,
    z: u64,
    eps_hat: f64,
    mode: SearchMode,
) -> CoresetSolution<P>
where
    P: Clone + Sync,
    M: Metric<P>,
{
    assert!(!oracle.is_empty(), "cannot solve an empty coreset");
    // Resolve the cache once, on the calling thread and before any
    // parallel scan: the build parallelizes inside the handle's
    // `OnceLock`, so a first touch from a pool task scanning this handle
    // could deadlock (see `CachedOracle::matrix`). The search loops then
    // read the matrix (or the metric) directly, with no per-lookup cache
    // branch.
    let search = match oracle.matrix() {
        Some(matrix) => {
            let view = CmpMatrixRef::<P, M>::new(matrix, oracle.metric());
            find_min_feasible_radius(&view, weights, k, z, eps_hat, mode)
        }
        None => {
            let view = PointsOracle::new(oracle.points(), oracle.metric());
            find_min_feasible_radius(&view, weights, k, z, eps_hat, mode)
        }
    };

    let points = oracle.points();
    CoresetSolution {
        centers: search
            .clustering
            .centers
            .iter()
            .map(|&i| points[i].clone())
            .collect(),
        r_min: search.radius,
        uncovered_weight: search.clustering.uncovered_weight,
        evaluations: search.evaluations,
    }
}

/// Minimum positive pairwise distance through the oracle (sqrt-free scan,
/// one conversion at the boundary). Each row's tail is read through the
/// oracle's batched [`DistanceOracle::cmp_dist_block`] — the vectorized
/// kernels for point-backed oracles, condensed-row copies for matrices —
/// in stack sub-blocks; the running-min update visits the proxies in the
/// same order as the scalar loop it replaces.
fn min_positive_distance<O: DistanceOracle>(oracle: &O) -> Option<f64> {
    const SUB: usize = 256;
    let n = oracle.len();
    let min = (0..n)
        .into_par_iter()
        .map(|i| {
            let mut row = f64::INFINITY;
            let mut buf = [0.0f64; SUB];
            let mut j = i + 1;
            while j < n {
                let len = SUB.min(n - j);
                oracle.cmp_dist_block(i, j, &mut buf[..len]);
                for &d in &buf[..len] {
                    if d > 0.0 && d < row {
                        row = d;
                    }
                }
                j += len;
            }
            row
        })
        .reduce(|| f64::INFINITY, f64::min);
    (min != f64::INFINITY).then(|| oracle.cmp_to_radius(min))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outliers_cluster::PointsOracle;
    use kcenter_metric::{Euclidean, Point};

    fn setup(coords: &[f64]) -> (Vec<Point>, Vec<u64>) {
        let pts: Vec<Point> = coords.iter().map(|&c| Point::new(vec![c])).collect();
        let w = vec![1u64; pts.len()];
        (pts, w)
    }

    #[test]
    fn finds_small_radius_for_clustered_data() {
        // Two clusters of width 1, k = 2, z = 0: feasible radius ~ 0.5–1.
        let (pts, w) = setup(&[0.0, 0.5, 1.0, 100.0, 100.5, 101.0]);
        let oracle = PointsOracle::new(&pts, &Euclidean);
        let result = find_min_feasible_radius(&oracle, &w, 2, 0, 0.25, SearchMode::ExactCandidates);
        assert_eq!(result.clustering.uncovered_weight, 0);
        assert!(result.radius <= 1.0 + 1e-9, "radius {}", result.radius);
    }

    #[test]
    fn outlier_budget_shrinks_the_radius() {
        // Allowing z = 1 lets the search ignore the far point.
        let (pts, w) = setup(&[0.0, 1.0, 2.0, 1000.0]);
        let oracle = PointsOracle::new(&pts, &Euclidean);
        let with_z = find_min_feasible_radius(&oracle, &w, 1, 1, 0.25, SearchMode::ExactCandidates);
        let without_z =
            find_min_feasible_radius(&oracle, &w, 1, 0, 0.25, SearchMode::ExactCandidates);
        assert!(with_z.radius < without_z.radius);
        assert!(with_z.clustering.uncovered_weight <= 1);
    }

    #[test]
    fn weighted_outlier_budget_counts_weights() {
        // Both points carry weight 5 > z = 4, so neither can be dropped:
        // one center must cover both, forcing (3+4ε̂)·r >= 1000.
        let pts: Vec<Point> = vec![0.0, 1000.0]
            .into_iter()
            .map(|c| Point::new(vec![c]))
            .collect();
        let w = vec![5u64, 5u64];
        let oracle = PointsOracle::new(&pts, &Euclidean);
        let result = find_min_feasible_radius(&oracle, &w, 1, 4, 0.25, SearchMode::ExactCandidates);
        assert!(result.clustering.uncovered_weight <= 4);
        assert!(result.radius >= 1000.0 / (3.0 + 4.0 * 0.25) - 1e-9);

        // Lowering one weight to z lets the search drop that point: the
        // heavy point itself becomes the center and r = 0 suffices.
        let w2 = vec![4u64, 5u64];
        let r2 = find_min_feasible_radius(&oracle, &w2, 1, 4, 0.25, SearchMode::ExactCandidates);
        assert_eq!(r2.radius, 0.0);
    }

    #[test]
    fn geometric_grid_close_to_exact() {
        let (pts, w) = setup(&[0.0, 0.7, 1.9, 4.2, 9.5, 20.0, 21.3, 45.0]);
        let oracle = PointsOracle::new(&pts, &Euclidean);
        let eps_hat = 0.25;
        let exact =
            find_min_feasible_radius(&oracle, &w, 3, 1, eps_hat, SearchMode::ExactCandidates);
        let grid = find_min_feasible_radius(&oracle, &w, 3, 1, eps_hat, SearchMode::GeometricGrid);
        let delta = eps_hat / (3.0 + 4.0 * eps_hat);
        // The grid radius is within one step of the exact optimum (and both
        // are verified feasible).
        assert!(grid.radius <= exact.radius * (1.0 + delta) + 1e-9);
        assert!(grid.clustering.uncovered_weight <= 1);
        assert!(exact.clustering.uncovered_weight <= 1);
    }

    #[test]
    fn zero_radius_shortcut_on_duplicates() {
        let (pts, w) = setup(&[5.0, 5.0, 5.0]);
        let oracle = PointsOracle::new(&pts, &Euclidean);
        let result = find_min_feasible_radius(&oracle, &w, 1, 0, 0.5, SearchMode::GeometricGrid);
        assert_eq!(result.radius, 0.0);
        assert_eq!(result.evaluations, 1);
    }

    #[test]
    fn everything_outlier_is_radius_zero() {
        let (pts, w) = setup(&[0.0, 10.0, 20.0]);
        let oracle = PointsOracle::new(&pts, &Euclidean);
        let result = find_min_feasible_radius(&oracle, &w, 1, 3, 0.5, SearchMode::GeometricGrid);
        // z >= total weight minus whatever one zero-radius ball covers.
        assert_eq!(result.radius, 0.0);
    }

    #[test]
    fn binary_search_uses_logarithmic_evaluations() {
        let pts: Vec<Point> = (0..64).map(|i| Point::new(vec![i as f64])).collect();
        let w = vec![1u64; 64];
        let oracle = PointsOracle::new(&pts, &Euclidean);
        let result = find_min_feasible_radius(&oracle, &w, 4, 2, 0.25, SearchMode::ExactCandidates);
        // 64 points → 2016 pairs; binary search should evaluate ~13 + 3.
        assert!(
            result.evaluations <= 20,
            "too many evaluations: {}",
            result.evaluations
        );
    }

    #[test]
    fn search_can_land_below_the_min_pairwise_distance() {
        // Regression test: GMM-built coresets have *large* minimum pairwise
        // distances, but the removal ball has radius (3+4ε̂)·r, so the
        // minimal feasible radius can sit below the smallest pairwise
        // distance. One center must cover {0, 10, 20, 35} (k = 1, z = 0):
        // the greedy picks the heaviest selection ball (point 10 once
        // (1+2ε̂)·r reaches its neighbours) and covers everything when
        // (3+4ε̂)·r >= 35, i.e. r ≈ 9.55 < min pairwise distance 10.
        let (pts, w) = setup(&[0.0, 10.0, 20.0, 35.0]);
        let oracle = PointsOracle::new(&pts, &Euclidean);
        let eps_hat = 1.0 / 6.0;
        let cover = 3.0 + 4.0 * eps_hat;
        let exact =
            find_min_feasible_radius(&oracle, &w, 1, 0, eps_hat, SearchMode::ExactCandidates);
        assert!(
            (exact.radius - 35.0 / cover).abs() < 1e-9,
            "exact radius {} != 35/(3+4ε̂) = {}",
            exact.radius,
            35.0 / cover
        );
        assert!(exact.radius < 10.0, "exact search floored at min pairwise");
        let grid = find_min_feasible_radius(&oracle, &w, 1, 0, eps_hat, SearchMode::GeometricGrid);
        let delta = eps_hat / cover;
        assert!(
            grid.radius <= 35.0 / cover * (1.0 + delta) + 1e-9,
            "grid radius {} floored above the optimum",
            grid.radius
        );
        assert_eq!(grid.clustering.uncovered_weight, 0);
        assert_eq!(exact.clustering.uncovered_weight, 0);
    }

    #[test]
    fn solve_coreset_returns_feasible_centers() {
        use crate::coreset::{WeightedCoreset, WeightedPoint};
        let coreset: WeightedCoreset<Point> = [0.0, 1.0, 50.0, 51.0, 500.0]
            .iter()
            .map(|&c| WeightedPoint {
                point: Point::new(vec![c]),
                weight: if c == 500.0 { 1 } else { 10 },
            })
            .collect();
        let solution = crate::radius_search::solve_coreset(
            &coreset,
            &Euclidean,
            2,
            1,
            0.25,
            SearchMode::ExactCandidates,
            crate::radius_search::DEFAULT_MATRIX_THRESHOLD,
        );
        assert!(solution.centers.len() <= 2);
        assert!(solution.uncovered_weight <= 1);
        // The two heavy clusters must be covered; only the light far point
        // may be dropped, so r_min stays at cluster scale.
        assert!(solution.r_min <= 2.0, "r_min = {}", solution.r_min);
    }

    #[test]
    fn solve_coreset_matrix_and_oracle_paths_agree() {
        use crate::coreset::{WeightedCoreset, WeightedPoint};
        let coreset: WeightedCoreset<Point> = (0..40)
            .map(|i| WeightedPoint {
                point: Point::new(vec![(i as f64 * 3.7) % 29.0, (i as f64 * 1.3) % 7.0]),
                weight: 1 + (i % 4) as u64,
            })
            .collect();
        let with_matrix = crate::radius_search::solve_coreset(
            &coreset,
            &Euclidean,
            4,
            3,
            0.25,
            SearchMode::GeometricGrid,
            1_000,
        );
        let without_matrix = crate::radius_search::solve_coreset(
            &coreset,
            &Euclidean,
            4,
            3,
            0.25,
            SearchMode::GeometricGrid,
            0,
        );
        assert_eq!(with_matrix.r_min, without_matrix.r_min);
        assert_eq!(
            with_matrix.uncovered_weight,
            without_matrix.uncovered_weight
        );
        assert_eq!(with_matrix.centers.len(), without_matrix.centers.len());
    }

    #[test]
    fn matrix_threshold_scales_with_memory_and_caps() {
        // Unknown memory: the historical cap.
        assert_eq!(
            super::matrix_threshold_for_memory(None),
            DEFAULT_MATRIX_THRESHOLD
        );
        // Plentiful memory: still capped.
        assert_eq!(
            super::matrix_threshold_for_memory(Some(1 << 40)),
            DEFAULT_MATRIX_THRESHOLD
        );
        // 64 MiB available: budget 16 MiB, 4n² ≤ 16 MiB → n ≈ 2048.
        let n = super::matrix_threshold_for_memory(Some(64 << 20));
        assert!((1_900..=2_100).contains(&n), "n = {n}");
        // Degenerate: no memory, no cache.
        assert_eq!(super::matrix_threshold_for_memory(Some(0)), 0);
        // The live value must respect the cap and be usable as a threshold.
        assert!(default_matrix_threshold() <= DEFAULT_MATRIX_THRESHOLD);
    }

    #[test]
    #[should_panic(expected = "empty coreset")]
    fn empty_coreset_panics() {
        let pts: Vec<Point> = Vec::new();
        let w: Vec<u64> = Vec::new();
        let oracle = PointsOracle::new(&pts, &Euclidean);
        let _ = find_min_feasible_radius(&oracle, &w, 1, 0, 0.5, SearchMode::GeometricGrid);
    }
}
