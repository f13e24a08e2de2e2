//! Gonzalez' farthest-first traversal (GMM).
//!
//! GMM grows a center set incrementally: start from an arbitrary point, then
//! repeatedly add the point farthest from the current centers. After `k`
//! steps the centers are a 2-approximation of the optimal k-center solution
//! (Gonzalez 1985); crucially for the paper, when run on a *subset* `X ⊆ S`
//! the radius achieved on `X` is still at most `2·r*_k(S)` (Lemma 1), which
//! is what makes GMM-built coresets composable.
//!
//! The incremental state is exposed ([`Gmm::step`]) because the paper's
//! coreset constructions keep running GMM *past* `k` iterations until a
//! radius-based stopping condition fires, and its experiments grow coresets
//! to a fixed size `τ = µ·k`.
//!
//! # Pruned steps
//!
//! A step relaxes every point against the new center `c` and then picks
//! the next farthest point. Scanning all `n` points per step costs `n·τ`
//! distance evaluations for `τ` steps, yet in low doubling dimension most
//! of that scan is provably useless: by the triangle inequality, a point of
//! center `a`'s cluster can only move to `c` if it lies farther than
//! `d(a, c) / 2` from `a`. So GMM keeps each cluster's member list and its
//! farthest member, and a step
//!
//! 1. evaluates `c` against every earlier center (`O(τ)`) and asks the
//!    metric for the rounding-safe bound [`Metric::cmp_prune_bound`];
//! 2. skips every cluster whose farthest member is within that bound and,
//!    in the others, every member within it, and relaxes the rest — a
//!    *cluster step*, one scalar [`Metric::cmp_distance`] per evaluated
//!    point, run sequentially (as pool jobs the touched clusters measured
//!    slower end to end);
//! 3. instead scans all `n` points in parallel with the block kernel — a
//!    *full scan* — when the clusters it cannot skip hold more than half
//!    the points. That is the regime of high intrinsic dimension and of
//!    metrics without a bound, where pruning saves little and per-point
//!    scalar evaluation would lose the SIMD kernel.
//!
//! A full scan does not maintain the member lists. The next step first
//! takes an `O(τ)` test against the global radius, which bounds every
//! cluster's farthest member: if more than half the clusters may still be
//! reachable it scans again; otherwise it rebuilds the lists in one `O(n)`
//! pass and takes the exact test above.
//!
//! Both kinds of step make the relax decisions the textbook full scan
//! makes (the bound guarantees a skipped point would not have moved), and
//! both pick the smallest index among the farthest points, so centers,
//! proxy assignments and radii are bit-identical to an unpruned run.
//! `crates/core/tests/gmm_pruning.rs` pins this against a textbook
//! reference. The `core.gmm.steps`, `core.gmm.full_scans` and
//! `core.gmm.point_evals` counters of `kcenter-obs` record how much of the
//! `n·τ` scan a run actually evaluated, and `bench_runner`'s paired
//! `gmm_coreset_pruned` / `gmm_coreset_unpruned` rows what it saves.

use std::sync::OnceLock;

use rayon::prelude::*;

use kcenter_metric::Metric;

/// Incremental GMM state over a fixed point set.
pub struct Gmm<'a, P, M> {
    points: &'a [P],
    metric: &'a M,
    /// Comparison proxy ([`Metric::cmp_distance`]) from each point to its
    /// closest selected center. True distances are recovered at the API
    /// boundary with [`Metric::cmp_to_distance`].
    dist: Vec<f64>,
    /// For each point, the position (in `centers`) of its closest center —
    /// the proxy function of the coreset constructions.
    nearest: Vec<u32>,
    /// Selected center indices into `points`, in selection order.
    centers: Vec<usize>,
    /// `radii[j]` = radius of the point set w.r.t. the first `j+1` centers.
    radii: Vec<f64>,
    /// Index of the current farthest point (the next center candidate).
    farthest: usize,
    /// Per center position, the indices of the points it is nearest to.
    /// Valid only while `lists_fresh`.
    members: Vec<Vec<u32>>,
    /// Per center position, its cluster's farthest member as
    /// `(proxy, index)`. Valid only while `lists_fresh`.
    far: Vec<(f64, u32)>,
    /// Whether `members` and `far` describe the current assignment; a full
    /// scan moves points without updating them.
    lists_fresh: bool,
    /// Scratch for the step in progress: per earlier center, the proxy
    /// bound under which its cluster cannot lose a point to the new center
    /// (`-∞` when the metric gives none).
    bounds: Vec<f64>,
}

/// The round-1 counters, each bumped once per step.
struct StepCounters {
    steps: kcenter_obs::Counter,
    full_scans: kcenter_obs::Counter,
    /// Point-to-center relax evaluations: `n` per full scan, the members
    /// beyond the bound per cluster step (the `O(τ)` center-to-center
    /// evaluations of the bound test are not counted).
    point_evals: kcenter_obs::Counter,
}

fn step_counters() -> &'static StepCounters {
    static COUNTERS: OnceLock<StepCounters> = OnceLock::new();
    COUNTERS.get_or_init(|| StepCounters {
        steps: kcenter_obs::counter("core.gmm.steps"),
        full_scans: kcenter_obs::counter("core.gmm.full_scans"),
        point_evals: kcenter_obs::counter("core.gmm.point_evals"),
    })
}

/// The farther of two `(proxy, index)` candidates, the smaller index on
/// ties — the order a left-to-right scan with a strict `>` produces.
#[inline]
fn farther(a: (f64, u32), b: (f64, u32)) -> (f64, u32) {
    if b.0 > a.0 || (b.0 == a.0 && b.1 < a.1) {
        b
    } else {
        a
    }
}

impl<'a, P: Sync, M: Metric<P>> Gmm<'a, P, M> {
    /// Starts a traversal with `points[first]` as the initial center.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty or `first` is out of range.
    pub fn new(points: &'a [P], metric: &'a M, first: usize) -> Self {
        assert!(!points.is_empty(), "GMM over an empty set");
        assert!(first < points.len(), "first center out of range");
        let mut gmm = Gmm {
            points,
            metric,
            dist: vec![f64::INFINITY; points.len()],
            nearest: vec![0; points.len()],
            centers: Vec::new(),
            radii: Vec::new(),
            farthest: 0,
            members: Vec::new(),
            far: Vec::new(),
            lists_fresh: false,
            bounds: Vec::new(),
        };
        gmm.add_center(first);
        gmm
    }

    fn add_center(&mut self, idx: usize) {
        self.centers.push(idx);
        let counters = step_counters();
        let evals = match self.cluster_step(idx) {
            Some(visited) => visited,
            None => {
                self.full_scan(idx);
                counters.full_scans.inc();
                self.points.len()
            }
        };
        counters.steps.inc();
        counters.point_evals.add(evals as u64);
        // The single sqrt of the whole step: proxy → reported radius.
        let far_cmp = self.dist[self.farthest];
        self.radii.push(self.metric.cmp_to_distance(far_cmp));
    }

    /// Relaxes the points against the new center `points[idx]` by
    /// visiting only the clusters it can reach, and returns how many
    /// points it evaluated — or returns `None`, changing no assignment,
    /// when those clusters hold more than half the points and the caller
    /// should scan them all.
    fn cluster_step(&mut self, idx: usize) -> Option<usize> {
        let pos = self.centers.len() - 1;
        if pos == 0 || self.points.len() > u32::MAX as usize {
            return None;
        }
        let (points, metric) = (self.points, self.metric);
        let c = &points[idx];
        // With stale lists, the new center's own proxy — the radius —
        // bounds every cluster's farthest member: a cheap estimate of the
        // reachable clusters, taken before paying for the rebuild and
        // abandoned as soon as more than half of them may be reachable.
        let radius = self.dist[idx];
        let mut maybe_reachable = 0;
        self.bounds.clear();
        for &a in &self.centers[..pos] {
            let bound = metric.cmp_prune_bound(metric.cmp_distance(&points[a], c));
            let bound = bound.unwrap_or(f64::NEG_INFINITY);
            self.bounds.push(bound);
            if !self.lists_fresh && bound < radius {
                maybe_reachable += 1;
                if 2 * maybe_reachable > pos {
                    return None;
                }
            }
        }
        if !self.lists_fresh {
            self.rebuild_lists(pos);
        }
        let reachable: usize = self
            .bounds
            .iter()
            .zip(&self.far)
            .zip(&self.members)
            .filter(|((&bound, &(far, _)), _)| far > bound)
            .map(|(_, members)| members.len())
            .sum();
        if 2 * reachable > self.points.len() {
            return None;
        }

        let Gmm {
            dist,
            nearest,
            members,
            far,
            bounds,
            ..
        } = self;
        let mut taken = Vec::new();
        let mut taken_far = (f64::NEG_INFINITY, u32::MAX);
        let mut evals = 0;
        for ((list, cluster_far), &bound) in members.iter_mut().zip(far.iter_mut()).zip(&*bounds) {
            if cluster_far.0 <= bound {
                continue;
            }
            let mut kept_far = (f64::NEG_INFINITY, u32::MAX);
            list.retain(|&p| {
                let d = &mut dist[p as usize];
                // The cluster's bound holds member by member, too: one
                // proxy read spares the evaluation.
                if *d <= bound {
                    kept_far = farther(kept_far, (*d, p));
                    return true;
                }
                evals += 1;
                let nd = metric.cmp_distance(c, &points[p as usize]);
                if nd < *d {
                    *d = nd;
                    nearest[p as usize] = pos as u32;
                    taken.push(p);
                    taken_far = farther(taken_far, (nd, p));
                    false
                } else {
                    kept_far = farther(kept_far, (*d, p));
                    true
                }
            });
            *cluster_far = kept_far;
        }
        members.push(taken);
        far.push(taken_far);
        let (_, farthest) = far
            .iter()
            .fold((f64::NEG_INFINITY, u32::MAX), |best, &f| farther(best, f));
        self.farthest = farthest as usize;
        Some(evals)
    }

    /// Rebuilds the member lists and farthest members of the first `pos`
    /// clusters from the current assignment, in one pass over the points.
    fn rebuild_lists(&mut self, pos: usize) {
        let mut sizes = vec![0usize; pos];
        for &a in &self.nearest {
            sizes[a as usize] += 1;
        }
        self.members = sizes.into_iter().map(Vec::with_capacity).collect();
        self.far = vec![(f64::NEG_INFINITY, u32::MAX); pos];
        for (p, (&a, &d)) in self.nearest.iter().zip(&self.dist).enumerate() {
            let a = a as usize;
            self.members[a].push(p as u32);
            // Ascending `p`: a strict `>` keeps the smallest index on ties.
            if d > self.far[a].0 {
                self.far[a] = (d, p as u32);
            }
        }
        self.lists_fresh = true;
    }

    /// Relaxes every point against the new center `points[idx]`.
    fn full_scan(&mut self, idx: usize) {
        let center_pos = (self.centers.len() - 1) as u32;
        let c = &self.points[idx];
        let metric = self.metric;
        let points = self.points;
        // One O(n) scan, chunked for the pool at the granularity the
        // adaptive splitter currently targets (finer while the pool
        // observes steals, coarser when its workers are saturated): each
        // chunk relaxes its points against the new center (comparing
        // sqrt-free proxies) and reports its local farthest point; chunk
        // winners combine left-to-right, earliest index winning ties —
        // identical to a sequential scan for every chunk length. Inside a
        // chunk the proxies come from the batched block kernel, in stack
        // sub-blocks (bit-identical to per-point `cmp_distance`, see the
        // `Metric::cmp_distance_block` contract), and the relax loop then
        // visits them in the same order the scalar scan did.
        const SUB: usize = 128;
        let scan_chunk = rayon::adaptive_chunk_len(self.dist.len());
        let (far_idx, _) = self
            .dist
            .par_chunks_mut(scan_chunk)
            .zip(self.nearest.par_chunks_mut(scan_chunk))
            .enumerate()
            .map(|(ci, (dist_chunk, near_chunk))| {
                let base = ci * scan_chunk;
                let mut best = (usize::MAX, f64::NEG_INFINITY);
                let mut buf = [0.0f64; SUB];
                let mut off = 0;
                while off < dist_chunk.len() {
                    let len = SUB.min(dist_chunk.len() - off);
                    let start = base + off;
                    metric.cmp_distance_block(c, &points[start..start + len], &mut buf[..len]);
                    let dists = dist_chunk[off..off + len].iter_mut();
                    let nears = near_chunk[off..off + len].iter_mut();
                    for (j, ((d, near), &nd)) in dists.zip(nears).zip(&buf[..len]).enumerate() {
                        if nd < *d {
                            *d = nd;
                            *near = center_pos;
                        }
                        if *d > best.1 {
                            best = (start + j, *d);
                        }
                    }
                    off += len;
                }
                best
            })
            .reduce(
                || (usize::MAX, f64::NEG_INFINITY),
                |a, b| if a.1 >= b.1 { a } else { b },
            );
        self.farthest = far_idx;
        self.lists_fresh = false;
    }

    /// Adds the next farthest point as a center. Returns `false` (and leaves
    /// the state unchanged) when no useful center remains: either every
    /// point is a center or the radius is already zero.
    pub fn step(&mut self) -> bool {
        if self.centers.len() == self.points.len() || self.radius() == 0.0 {
            return false;
        }
        let next = self.farthest;
        debug_assert!(self.dist[next] > 0.0);
        self.add_center(next);
        true
    }

    /// Runs steps until `target` centers are selected (or no useful center
    /// remains), returning the number of centers actually selected.
    pub fn run_until(&mut self, target: usize) -> usize {
        while self.centers.len() < target && self.step() {}
        self.centers.len()
    }

    /// Current radius: the distance of the farthest point from the centers.
    pub fn radius(&self) -> f64 {
        *self.radii.last().expect("at least one center")
    }

    /// Radius after the first `j` centers (`1 <= j <= num_centers`).
    pub fn radius_at(&self, j: usize) -> f64 {
        self.radii[j - 1]
    }

    /// The selected center indices (into the input slice), in order.
    pub fn centers(&self) -> &[usize] {
        &self.centers
    }

    /// Number of centers selected so far.
    pub fn num_centers(&self) -> usize {
        self.centers.len()
    }

    /// The radius history `radii[j] = r_{T^{j+1}}(S)` — non-increasing.
    pub fn radius_history(&self) -> &[f64] {
        &self.radii
    }

    /// For each input point, the position in [`Gmm::centers`] of its closest
    /// selected center (the proxy assignment).
    pub fn nearest_center_positions(&self) -> &[u32] {
        &self.nearest
    }

    /// Distance of each input point from its closest selected center.
    ///
    /// Internally the scan keeps sqrt-free comparison proxies; this
    /// materializes true distances (one [`Metric::cmp_to_distance`] per
    /// point) at the boundary.
    pub fn distances(&self) -> Vec<f64> {
        self.dist
            .iter()
            .map(|&c| self.metric.cmp_to_distance(c))
            .collect()
    }
}

/// Result of a fixed-`k` GMM run.
#[derive(Clone, Debug)]
pub struct GmmResult {
    /// Selected center indices into the input slice.
    pub centers: Vec<usize>,
    /// Radius of the input w.r.t. the selected centers.
    pub radius: f64,
}

/// Runs GMM for (at most) `k` centers starting from `points[first]`.
///
/// Stops early if the point set is exhausted or fully covered; the returned
/// center list then has fewer than `k` entries, and the radius is `0`.
pub fn gmm_select<P: Sync, M: Metric<P>>(
    points: &[P],
    metric: &M,
    k: usize,
    first: usize,
) -> GmmResult {
    assert!(k > 0, "k must be positive");
    let mut gmm = Gmm::new(points, metric, first);
    gmm.run_until(k);
    GmmResult {
        radius: gmm.radius(),
        centers: gmm.centers.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcenter_metric::{Euclidean, Point};

    fn pts(coords: &[f64]) -> Vec<Point> {
        coords.iter().map(|&c| Point::new(vec![c])).collect()
    }

    #[test]
    fn selects_extremes_on_a_line() {
        // From 0, the farthest is 10; then 5 splits the interval.
        let points = pts(&[0.0, 1.0, 5.0, 9.0, 10.0]);
        let result = gmm_select(&points, &Euclidean, 3, 0);
        assert_eq!(result.centers, vec![0, 4, 2]);
        assert_eq!(result.radius, 1.0);
    }

    #[test]
    fn radius_history_is_non_increasing() {
        let points = pts(&[3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.3, 5.8, 9.7, 9.3]);
        let mut gmm = Gmm::new(&points, &Euclidean, 0);
        gmm.run_until(points.len());
        for w in gmm.radius_history().windows(2) {
            assert!(w[1] <= w[0], "radius increased: {w:?}");
        }
        // With every point a center the radius is zero.
        assert_eq!(gmm.radius(), 0.0);
    }

    #[test]
    fn two_approximation_on_small_instance() {
        // Three tight clusters; optimal 3-center radius is 0.1.
        let points = pts(&[0.0, 0.1, 10.0, 10.1, 20.0, 20.1]);
        let result = gmm_select(&points, &Euclidean, 3, 0);
        assert!(
            result.radius <= 2.0 * 0.1 + 1e-12,
            "radius {}",
            result.radius
        );
    }

    #[test]
    fn stops_when_all_points_are_centers() {
        let points = pts(&[0.0, 1.0]);
        let result = gmm_select(&points, &Euclidean, 5, 0);
        assert_eq!(result.centers.len(), 2);
        assert_eq!(result.radius, 0.0);
    }

    #[test]
    fn stops_on_duplicate_saturation() {
        // Two distinct values among five points: after 2 centers the radius
        // is 0 and no further centers are added.
        let points = pts(&[1.0, 1.0, 1.0, 2.0, 2.0]);
        let result = gmm_select(&points, &Euclidean, 4, 0);
        assert_eq!(result.centers.len(), 2);
        assert_eq!(result.radius, 0.0);
    }

    #[test]
    fn nearest_positions_track_proxies() {
        let points = pts(&[0.0, 1.0, 10.0, 11.0]);
        let mut gmm = Gmm::new(&points, &Euclidean, 0);
        gmm.run_until(2); // centers: 0 and 3
        assert_eq!(gmm.centers(), &[0, 3]);
        let near = gmm.nearest_center_positions();
        assert_eq!(near[0], 0);
        assert_eq!(near[1], 0);
        assert_eq!(near[2], 1);
        assert_eq!(near[3], 1);
        assert_eq!(gmm.distances()[1], 1.0);
    }

    #[test]
    fn start_point_changes_trace_not_quality() {
        let points = pts(&[0.0, 0.2, 7.0, 7.2, 15.0, 15.2]);
        let a = gmm_select(&points, &Euclidean, 3, 0);
        let b = gmm_select(&points, &Euclidean, 3, 3);
        // Both are 2-approximations of the optimal radius 0.2.
        assert!(a.radius <= 0.4 + 1e-12);
        assert!(b.radius <= 0.4 + 1e-12);
    }

    #[test]
    fn radius_at_matches_history() {
        let points = pts(&[0.0, 2.0, 9.0, 13.0]);
        let mut gmm = Gmm::new(&points, &Euclidean, 0);
        gmm.run_until(3);
        assert_eq!(gmm.radius_at(1), gmm.radius_history()[0]);
        assert_eq!(gmm.radius_at(3), gmm.radius());
    }

    #[test]
    #[should_panic(expected = "empty set")]
    fn empty_input_panics() {
        let points: Vec<Point> = Vec::new();
        let _ = Gmm::new(&points, &Euclidean, 0);
    }
}
