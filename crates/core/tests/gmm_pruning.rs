//! Differential suite for GMM's triangle-inequality pruning.
//!
//! `Gmm` skips the clusters a new center provably cannot reach and falls
//! back to a full block-kernel scan when they hold most of the points.
//! Both kinds of step must make exactly the relax decisions the textbook
//! algorithm makes. The textbook full scan lives here as the test-only
//! reference: every step evaluates every point with the scalar
//! `cmp_distance` and keeps the earliest index among the farthest
//! points. Centers, proxy assignments, radius histories and coreset
//! weights are compared bit for bit, for the bounded metrics (Euclidean,
//! Manhattan, Chebyshev) and the unbounded ones (`CosineAngular`,
//! `Precomputed`), on inputs where cluster steps dominate, where full
//! scans dominate, with exact ties, and below the bound's floor.
//!
//! The same file checks the soundness of each metric's
//! `cmp_prune_bound` on random and near-boundary triples.

use std::sync::{Mutex, MutexGuard};

use proptest::prelude::*;

use kcenter_core::coreset::{build_weighted_coreset, CoresetSpec};
use kcenter_core::gmm::Gmm;
use kcenter_data::{power_like, wiki_like};
use kcenter_metric::{
    Chebyshev, Coordinates, CosineAngular, Euclidean, Manhattan, Metric, Point, PointRef, PointSet,
    Precomputed,
};

/// The textbook GMM step, one scalar evaluation per point per step.
struct Textbook<'a, P, M> {
    points: &'a [P],
    metric: &'a M,
    dist: Vec<f64>,
    nearest: Vec<u32>,
    centers: Vec<usize>,
    radii: Vec<f64>,
    farthest: usize,
}

impl<'a, P, M: Metric<P>> Textbook<'a, P, M> {
    fn new(points: &'a [P], metric: &'a M, first: usize) -> Self {
        let mut gmm = Textbook {
            points,
            metric,
            dist: vec![f64::INFINITY; points.len()],
            nearest: vec![0; points.len()],
            centers: Vec::new(),
            radii: Vec::new(),
            farthest: 0,
        };
        gmm.add_center(first);
        gmm
    }

    fn add_center(&mut self, idx: usize) {
        let pos = self.centers.len() as u32;
        self.centers.push(idx);
        let mut best = (usize::MAX, f64::NEG_INFINITY);
        for p in 0..self.points.len() {
            let nd = self.metric.cmp_distance(&self.points[idx], &self.points[p]);
            if nd < self.dist[p] {
                self.dist[p] = nd;
                self.nearest[p] = pos;
            }
            if self.dist[p] > best.1 {
                best = (p, self.dist[p]);
            }
        }
        self.farthest = best.0;
        self.radii.push(self.metric.cmp_to_distance(best.1));
    }

    fn radius(&self) -> f64 {
        *self.radii.last().unwrap()
    }

    fn step(&mut self) -> bool {
        if self.centers.len() == self.points.len() || self.radius() == 0.0 {
            return false;
        }
        self.add_center(self.farthest);
        true
    }

    fn run_until(&mut self, target: usize) {
        while self.centers.len() < target && self.step() {}
    }

    /// The textbook run of `build_weighted_coreset`'s stopping rules.
    fn run_spec(&mut self, base: usize, spec: &CoresetSpec) {
        match *spec {
            CoresetSpec::EpsStop { eps } => {
                self.run_until(base);
                let threshold = eps / 2.0 * self.radius();
                while self.radius() > threshold && self.step() {}
            }
            CoresetSpec::Fixed { tau } => self.run_until(tau),
            CoresetSpec::Multiplier { mu } => self.run_until(mu * base),
        }
    }

    fn weights(&self) -> Vec<u64> {
        let mut weights = vec![0u64; self.centers.len()];
        for &pos in &self.nearest {
            weights[pos as usize] += 1;
        }
        weights
    }
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Point evaluations, steps and full scans of the GMM runs in `f`, read
/// from the process-wide `core.gmm.*` counters. Every GMM run in this
/// binary holds the lock, so the deltas belong to `f` alone.
struct Counted {
    steps: u64,
    full_scans: u64,
    point_evals: u64,
}

fn gmm_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn counted(f: impl FnOnce()) -> Counted {
    let read = || {
        [
            kcenter_obs::counter("core.gmm.steps").get(),
            kcenter_obs::counter("core.gmm.full_scans").get(),
            kcenter_obs::counter("core.gmm.point_evals").get(),
        ]
    };
    let before = read();
    f();
    let after = read();
    Counted {
        steps: after[0] - before[0],
        full_scans: after[1] - before[1],
        point_evals: after[2] - before[2],
    }
}

/// Runs GMM to `target` centers both ways and asserts bitwise equality of
/// centers, proxy assignments and radius histories.
fn assert_gmm_matches<P: Sync, M: Metric<P>>(
    points: &[P],
    metric: &M,
    first: usize,
    target: usize,
) -> Counted {
    let mut reference = Textbook::new(points, metric, first);
    reference.run_until(target);
    let _guard = gmm_lock();
    let mut pruned = None;
    let counts = counted(|| {
        let mut gmm = Gmm::new(points, metric, first);
        gmm.run_until(target);
        pruned = Some(gmm);
    });
    let gmm = pruned.unwrap();
    assert_eq!(gmm.centers(), &reference.centers[..], "centers differ");
    assert_eq!(
        gmm.nearest_center_positions(),
        &reference.nearest[..],
        "proxy assignments differ"
    );
    assert_eq!(
        bits(gmm.radius_history()),
        bits(&reference.radii),
        "radius histories differ"
    );
    assert_eq!(counts.steps, reference.centers.len() as u64);
    counts
}

/// Builds a coreset both ways and asserts the centers, weights and radii
/// agree bit for bit.
fn assert_coreset_matches<P: Clone + Sync + Coordinates, M: Metric<P>>(
    points: &[P],
    metric: &M,
    base: usize,
    spec: &CoresetSpec,
    first: usize,
) {
    let mut reference = Textbook::new(points, metric, first);
    reference.run_spec(base, spec);
    let build = {
        let _guard = gmm_lock();
        build_weighted_coreset(points, metric, base, spec, first)
    };
    assert_eq!(build.tau, reference.centers.len(), "coreset sizes differ");
    assert_eq!(
        build.coreset.weights(),
        reference.weights(),
        "weights differ"
    );
    for (wp, &idx) in build.coreset.points.iter().zip(&reference.centers) {
        assert_eq!(bits(wp.point.coords()), bits(points[idx].coords()));
    }
    assert_eq!(
        build.proxy_radius.to_bits(),
        reference.radius().to_bits(),
        "proxy radii differ"
    );
}

/// `points` in the production layout: row views of one `PointSet`.
fn with_refs<R>(points: &[Point], f: impl FnOnce(&[PointRef<'_>]) -> R) -> R {
    let set = PointSet::from_points(points);
    let refs: Vec<PointRef<'_>> = set.iter().collect();
    f(&refs)
}

/// An integer lattice with every site repeated: exact ties both in the
/// relax (`nd == d`) and in the smallest-index farthest pick.
fn lattice_with_duplicates() -> Vec<Point> {
    let mut points = Vec::new();
    for copy in 0..3 {
        for x in 0..9 {
            for y in 0..7 {
                for z in 0..3 {
                    if (x + y + z + copy) % 4 != 3 {
                        points.push(Point::new(vec![x as f64, y as f64, z as f64]));
                    }
                }
            }
        }
    }
    points
}

fn scaled(points: &[Point], factor: f64) -> Vec<Point> {
    points
        .iter()
        .map(|p| Point::new(p.coords().iter().map(|c| c * factor).collect()))
        .collect()
}

#[test]
fn clustered_7d_prunes_and_matches_the_textbook_scan() {
    let points = power_like(3000, 11);
    let tau = 240;
    with_refs(&points, |refs| {
        let counts = assert_gmm_matches(refs, &Euclidean, 0, tau);
        // Cluster steps must dominate on this input, or the suite would
        // only be comparing the full scan against itself.
        assert!(
            counts.full_scans < counts.steps / 2,
            "{} of {} steps were full scans",
            counts.full_scans,
            counts.steps
        );
        assert!(
            counts.point_evals < (points.len() * tau / 2) as u64,
            "{} point evaluations for n·τ = {}",
            counts.point_evals,
            points.len() * tau
        );
        let counts = assert_gmm_matches(refs, &Manhattan, 17, tau);
        assert!(counts.full_scans < counts.steps);
        let counts = assert_gmm_matches(refs, &Chebyshev, 2999, tau);
        assert!(counts.full_scans < counts.steps);
    });
    // Owned points take the same path.
    assert_gmm_matches(&points, &Euclidean, 5, 120);
}

#[test]
fn wiki_like_50d_matches_the_textbook_scan() {
    let points = wiki_like(1500, 3);
    with_refs(&points, |refs| {
        assert_gmm_matches(refs, &Euclidean, 0, 120);
        assert_gmm_matches(refs, &Manhattan, 7, 60);
        assert_gmm_matches(refs, &Chebyshev, 700, 60);
    });
}

#[test]
fn unbounded_metrics_always_scan_and_match() {
    let points = power_like(800, 5);
    with_refs(&points, |refs| {
        let counts = assert_gmm_matches(refs, &CosineAngular, 0, 80);
        assert_eq!(counts.full_scans, counts.steps, "cosine has no bound");
        assert_eq!(counts.point_evals, counts.steps * points.len() as u64);
    });
    let small = power_like(300, 9);
    let matrix = Precomputed::from_points(&small, &Euclidean);
    let indices: Vec<usize> = (0..small.len()).collect();
    let counts = assert_gmm_matches(&indices, &matrix, 0, 60);
    assert_eq!(counts.full_scans, counts.steps, "precomputed has no bound");
}

#[test]
fn lattice_ties_and_duplicates_match() {
    let points = lattice_with_duplicates();
    with_refs(&points, |refs| {
        for first in [0, 1, points.len() / 2, points.len() - 1] {
            // Run past saturation: 189 distinct sites, so GMM stops early
            // at radius zero.
            assert_gmm_matches(refs, &Euclidean, first, points.len());
            assert_gmm_matches(refs, &Manhattan, first, 100);
            assert_gmm_matches(refs, &Chebyshev, first, 100);
        }
    });
}

#[test]
fn coordinates_below_the_floor_match() {
    let base = power_like(1200, 4);
    for factor in [1e-150, 1e-300] {
        let points = scaled(&base, factor);
        with_refs(&points, |refs| {
            let counts = assert_gmm_matches(refs, &Euclidean, 0, 100);
            if factor == 1e-150 {
                // Squared proxies near 1e-300 are below the floor: no bound.
                assert_eq!(counts.full_scans, counts.steps);
            }
            assert_gmm_matches(refs, &Manhattan, 3, 100);
            assert_gmm_matches(refs, &Chebyshev, 3, 100);
        });
    }
}

#[test]
fn coreset_weights_match_on_every_input() {
    let power = power_like(2000, 8);
    let wiki = wiki_like(800, 8);
    let lattice = lattice_with_duplicates();
    let tiny = scaled(&power, 1e-150);
    let specs = [
        (20, CoresetSpec::Multiplier { mu: 4 }),
        (10, CoresetSpec::EpsStop { eps: 0.5 }),
        (30, CoresetSpec::Fixed { tau: 150 }),
    ];
    for points in [&power, &wiki, &lattice, &tiny] {
        with_refs(points, |refs| {
            for (base, spec) in &specs {
                assert_coreset_matches(refs, &Euclidean, *base, spec, 0);
                assert_coreset_matches(refs, &Manhattan, *base, spec, 1);
                assert_coreset_matches(refs, &Chebyshev, *base, spec, 2);
            }
            assert_coreset_matches(
                refs,
                &CosineAngular,
                5,
                &CoresetSpec::Multiplier { mu: 2 },
                0,
            );
        });
    }
}

#[test]
fn borrowed_metrics_prune_like_owned_ones() {
    // Exec workers hand `Gmm` a `&Euclidean`: the blanket impl must
    // forward the bound, or workers would silently never prune.
    let points = power_like(2000, 13);
    with_refs(&points, |refs| {
        let owned = assert_gmm_matches(refs, &Euclidean, 0, 160);
        let borrowed = assert_gmm_matches(refs, &&Euclidean, 0, 160);
        assert_eq!(owned.point_evals, borrowed.point_evals);
        assert_eq!(owned.full_scans, borrowed.full_scans);
        assert!(borrowed.full_scans < borrowed.steps);
    });
}

fn arb_points() -> impl Strategy<Value = Vec<Point>> {
    // Coordinates on a coarse grid half the time, for ties.
    (
        1usize..5,
        prop::collection::vec((-50.0..50.0f64, proptest::bool::ANY), 2..400),
    )
        .prop_map(|(dim, seeds)| {
            seeds
                .chunks(dim)
                .filter(|c| c.len() == dim)
                .map(|c| {
                    Point::new(
                        c.iter()
                            .map(|&(v, grid)| if grid { v.round() } else { v })
                            .collect(),
                    )
                })
                .collect()
        })
        .prop_filter("need a point", |points: &Vec<Point>| !points.is_empty())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_sets_match_under_multiplier(
        points in arb_points(),
        base in 1usize..12,
        mu in 1usize..6,
        first_seed in 0usize..1000,
    ) {
        let first = first_seed % points.len();
        let spec = CoresetSpec::Multiplier { mu };
        with_refs(&points, |refs| {
            assert_coreset_matches(refs, &Euclidean, base, &spec, first);
            assert_coreset_matches(refs, &Manhattan, base, &spec, first);
            assert_coreset_matches(refs, &Chebyshev, base, &spec, first);
        });
    }

    #[test]
    fn random_sets_match_under_eps_stop(
        points in arb_points(),
        base in 1usize..12,
        eps in 0.05..1.0f64,
        first_seed in 0usize..1000,
    ) {
        let first = first_seed % points.len();
        let spec = CoresetSpec::EpsStop { eps };
        with_refs(&points, |refs| {
            assert_coreset_matches(refs, &Euclidean, base, &spec, first);
            assert_coreset_matches(refs, &Manhattan, base, &spec, first);
            assert_coreset_matches(refs, &Chebyshev, base, &spec, first);
        });
    }
}

/// SplitMix64 stream of uniform `[0, 1)` draws.
struct Draws(u64);

impl Draws {
    fn next(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    }

    fn point(&mut self, dim: usize, scale: f64) -> Point {
        Point::new((0..dim).map(|_| (self.next() - 0.5) * scale).collect())
    }
}

/// Random and near-boundary triples `(a, c, p)`: whenever
/// `cmp(a, p) <= bound(cmp(a, c))`, the computed `cmp(c, p)` must be at
/// least `cmp(a, p)`. Returns how many triples met the premise.
fn check_bound_soundness<M: Metric<Point>>(metric: M, seed: u64) -> usize {
    let mut draws = Draws(seed);
    let mut premise = 0;
    for trial in 0..20_000 {
        let dim = 1 + trial % 64;
        let scale = [1e-120, 1e-3, 1.0, 1e3, 1e120][trial % 5];
        let a = draws.point(dim, scale);
        let c = draws.point(dim, scale);
        // A third of the triples put p just inside the half-way point from
        // a towards c, plus a little noise: the boundary of the bound. A
        // third put p on the half-way point itself, where cmp(a, p) and
        // cmp(c, p) tie up to rounding and only the slack keeps the bound
        // below them.
        let (s, noise) = match trial % 3 {
            0 => (None, 0.0),
            1 => (Some(0.5 - draws.next() * 1e-5), draws.next() * 1e-7),
            _ => (Some(0.5), 0.0),
        };
        let p = match s {
            None => draws.point(dim, scale),
            Some(s) => Point::new(
                a.coords()
                    .iter()
                    .zip(c.coords())
                    .map(|(x, y)| x + s * (y - x) + noise * scale * (draws.next() - 0.5))
                    .collect(),
            ),
        };
        let Some(bound) = metric.cmp_prune_bound(metric.cmp_distance(&a, &c)) else {
            continue;
        };
        let ap = metric.cmp_distance(&a, &p);
        if ap <= bound {
            premise += 1;
            let cp = metric.cmp_distance(&c, &p);
            assert!(
                cp >= ap,
                "bound unsound: cmp(a,p) = {ap:e} <= {bound:e} but cmp(c,p) = {cp:e}"
            );
        }
    }
    premise
}

#[test]
// The borrows ARE the test subject: the blanket `&M` impl must forward.
#[allow(clippy::needless_borrows_for_generic_args)]
fn prune_bounds_are_sound_on_random_triples() {
    for seed in [1, 2] {
        assert!(check_bound_soundness(Euclidean, seed) > 1000);
        assert!(check_bound_soundness(&Euclidean, seed) > 1000);
        assert!(check_bound_soundness(Manhattan, seed) > 1000);
        assert!(check_bound_soundness(&Manhattan, seed) > 1000);
        assert!(check_bound_soundness(Chebyshev, seed) > 1000);
        assert!(check_bound_soundness(&Chebyshev, seed) > 1000);
        // No bound, so the premise never holds.
        assert_eq!(check_bound_soundness(CosineAngular, seed), 0);
        assert_eq!(check_bound_soundness(&CosineAngular, seed), 0);
    }
}

#[test]
#[allow(clippy::needless_borrows_for_generic_args)]
fn prune_bounds_are_absent_where_rounding_is_not_relative() {
    fn assert_none<M: Metric<Point>>(metric: M) {
        for cmp in [0.0, 1e-300, 9.9e-281, f64::INFINITY] {
            assert_eq!(metric.cmp_prune_bound(cmp), None, "bound for {cmp:e}");
        }
    }
    assert_none(Euclidean);
    assert_none(&Manhattan);
    assert_none(Chebyshev);
    let cosine: &dyn Metric<Point> = &CosineAngular;
    assert_eq!(cosine.cmp_prune_bound(1.0), None);
    let matrix = Precomputed::new(2, vec![0.0, 1.0, 1.0, 0.0]);
    assert_eq!(Metric::<usize>::cmp_prune_bound(&matrix, 1.0), None);
    assert_eq!(Metric::<usize>::cmp_prune_bound(&&matrix, 1.0), None);
    // Above the floor: a quarter (squared proxy) or half of the proxy,
    // shrunk by the rounding slack — and identical through a reference.
    let eucl: &dyn Metric<Point> = &Euclidean;
    let bound = eucl.cmp_prune_bound(4.0).unwrap();
    assert!(bound < 1.0 && bound > 1.0 - 1e-5, "{bound}");
    assert_eq!((&eucl).cmp_prune_bound(4.0), Some(bound));
    let manh: &dyn Metric<Point> = &Manhattan;
    let bound = manh.cmp_prune_bound(4.0).unwrap();
    assert!(bound < 2.0 && bound > 2.0 - 1e-5, "{bound}");
}
