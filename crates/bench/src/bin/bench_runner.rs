//! Bench runner: measures the hot kernels (GMM, `OutliersCluster`, radius
//! search, `DistanceMatrix` construction, cached-vs-rebuilt radius-search
//! sweeps) plus the multi-process executor (warm vs cold worker fleet,
//! store-served vs re-written shards) and the serve-layer session
//! registry (batched ingest throughput, query latency solver-path vs
//! memoized) on the seeded `Power` workload and writes machine-readable
//! `BENCH_pr12.json` — the perf trajectory's record. The JSON header
//! also carries the hardware-thread count and a snapshot of the
//! process metrics registry (`kcenter-obs`) after the run.
//!
//! The block-kernel consumers (`gmm_select`'s chunked min-distance scan
//! and the blocked `DistanceMatrix::build`) are measured **paired**:
//! auto-dispatched SIMD versus the `set_force_scalar` escape hatch, with
//! samples interleaved (ABBA), so the vectorization before/after comes
//! from identical surrounding code on identical hardware. Two more GMM
//! pairs isolate one optimization each on the same `PointRef` layout:
//! the sqrt-free proxy (`gmm_select_proxied` vs `gmm_select_sqrt_before`)
//! and round-1 cluster pruning (`gmm_coreset_pruned` vs
//! `gmm_coreset_unpruned`, on Power-like 7-d and Wiki-like 50-d). The JSON header
//! records the auto-detected ISA the "auto" rows ran on. The executor
//! rows are paired the same way: a persistent `WorkerFleet` reused
//! across samples versus a fresh fleet spawned per run (fleet-warmup
//! amortization), and content-addressed store-served shards versus
//! work-dir re-sharding; the header pins that every warm sample performed
//! **zero** shard writes. The binary re-invokes itself in a hidden
//! `exec-worker` mode as the fleet's worker process.
//!
//! Every number comes from the criterion shim's measurement kernel
//! (warmup, N samples, MAD-based outlier rejection, median of survivors)
//! and is recorded per thread count: once with a 1-thread pool (the
//! sequential reference — identical code path to the old sequential shim)
//! and once with the machine's full parallelism when that differs.
//!
//! With `KCENTER_CACHE_DIR` set, the shared coreset fixture is persisted
//! under a fingerprint of its generation spec (dataset, n, seed, base, µ)
//! and re-loaded by later runs, so repeated benchmarking sessions skip the
//! GMM construction entirely; the matrix-backed kernels likewise reuse
//! persisted proxy matrices where the kernel under test is not the build
//! itself.
//!
//! Usage: `bench_runner [--out PATH] [--samples N] [--warmup N] [--n N] [--smoke]`
//!
//! `--smoke` is the CI profile: 2 warmup runs, 5 samples, a 4k-point
//! workload, and output to `BENCH_smoke.json` — fast enough for every
//! push, still exercising each kernel end-to-end (defaults only; explicit
//! `--warmup/--samples/--n/--out` still win).

use std::fmt::Write as _;

use criterion::{measure, measure_paired, Measurement};
use kcenter_bench::Dataset;
use kcenter_core::coreset::{build_weighted_coreset, CoresetSpec};
use kcenter_core::gmm::gmm_select;
use kcenter_core::outliers_cluster::{outliers_cluster, PointsOracle};
use kcenter_core::radius_search::{find_min_feasible_radius, solve_coreset_cached, SearchMode};
use kcenter_metric::{
    kernels, CachedOracle, Coordinates, DistanceMatrix, Euclidean, Metric, Point, PointRef,
    PointSet,
};

/// `Euclidean` with the proxy hooks forced back to their defaults: every
/// comparison pays the `sqrt`, i.e. the pre-proxy code path. Benchmarked
/// alongside the proxied metric to record the sqrt-free before/after on
/// identical hardware and identical surrounding code. It keeps GMM's
/// pruning bound — Euclidean's own bound carried to the true-distance
/// scale — so the pair differs in the sqrt alone.
struct SqrtEuclidean;

impl<P: Coordinates> Metric<P> for SqrtEuclidean {
    #[inline]
    fn distance(&self, a: &P, b: &P) -> f64 {
        Euclidean.distance(a, b)
    }

    #[inline]
    fn cmp_prune_bound(&self, cmp_ac: f64) -> Option<f64> {
        let eucl: &dyn Metric<P> = &Euclidean;
        eucl.cmp_prune_bound(eucl.distance_to_cmp(cmp_ac))
            .map(|bound| eucl.cmp_to_distance(bound))
    }
}

/// A metric with GMM's pruning bound withheld: every GMM step scans all
/// points with the block kernel, the code path before cluster pruning.
/// Everything else forwards, so the pair isolates the pruning.
struct Unpruned<M>(M);

impl<P, M: Metric<P>> Metric<P> for Unpruned<M> {
    #[inline]
    fn distance(&self, a: &P, b: &P) -> f64 {
        self.0.distance(a, b)
    }

    #[inline]
    fn cmp_distance(&self, a: &P, b: &P) -> f64 {
        self.0.cmp_distance(a, b)
    }

    #[inline]
    fn cmp_to_distance(&self, cmp: f64) -> f64 {
        self.0.cmp_to_distance(cmp)
    }

    #[inline]
    fn distance_to_cmp(&self, d: f64) -> f64 {
        self.0.distance_to_cmp(d)
    }

    #[inline]
    fn cmp_distance_block(&self, query: &P, block: &[P], out: &mut [f64]) {
        self.0.cmp_distance_block(query, block, out)
    }
}

struct Record {
    kernel: &'static str,
    dataset: &'static str,
    /// Input size the kernel ran on (points for gmm/matrix, coreset size
    /// for outliers_cluster/radius_search).
    n: usize,
    /// Distance evaluations (or equivalent inner-loop items) per run, the
    /// denominator of `ns_per_op`.
    ops: u64,
    threads: usize,
    m: Measurement,
}

/// Measures two arms paired (ABBA) and records both rows.
fn record_pair<RA, RB>(
    records: &mut Vec<Record>,
    (warmup, samples, threads): (usize, usize, usize),
    dataset: &'static str,
    n: usize,
    ops: u64,
    (kernel_a, a): (&'static str, impl FnMut() -> RA),
    (kernel_b, b): (&'static str, impl FnMut() -> RB),
) {
    let (m_a, m_b) = measure_paired(warmup, samples, a, b);
    for (kernel, m) in [(kernel_a, m_a), (kernel_b, m_b)] {
        eprintln!("  {kernel:<34} {:>12.2?} ±{:.2?}", m.median, m.mad);
        records.push(Record {
            kernel,
            dataset,
            n,
            ops,
            threads,
            m,
        });
    }
}

fn json_record(r: &Record) -> String {
    let median_ns = r.m.median.as_nanos();
    let mad_ns = r.m.mad.as_nanos();
    let ns_per_op = median_ns as f64 / r.ops.max(1) as f64;
    format!(
        "    {{\"kernel\": \"{}\", \"dataset\": \"{}\", \"n\": {}, \"threads\": {}, \
         \"median_ns\": {median_ns}, \"mad_ns\": {mad_ns}, \"samples\": {}, \
         \"rejected\": {}, \"ops\": {}, \"ns_per_op\": {ns_per_op:.3}}}",
        r.kernel, r.dataset, r.n, r.threads, r.m.samples, r.m.rejected, r.ops
    )
}

/// Dataset-generation seed of the benchmark workload; part of the coreset
/// fixture's cache key, so changing it invalidates persisted fixtures.
const FIXTURE_DATASET_SEED: u64 = 1;
/// GMM start index of the coreset fixture; likewise part of the key.
const FIXTURE_GMM_START: usize = 0;

/// Fingerprint of the shared coreset fixture's *generation spec* — the
/// spec-keyed flavour of artifact addressing (versus the content-keyed
/// matrix fingerprints): dataset generation is seed-deterministic, so the
/// spec (dataset, size, dataset seed, coreset base, µ, GMM start) fully
/// determines the coreset and a later run can load it without
/// regenerating the 10k-point dataset or re-running GMM. Every constant
/// that feeds the build is folded in — change one and the key moves —
/// plus the crate version, so a release that alters GMM/coreset
/// semantics between versions cannot be served a stale fixture. (Within
/// one version, a semantic change to the derivation must bump the domain
/// string; the golden-output suites exist to make such changes loud.)
fn coreset_fixture_fingerprint(n: usize, base: usize, mu: usize) -> u128 {
    let mut fp = kcenter_store::Fingerprint::with_domain("kcenter-bench/coreset-fixture/v1");
    fp.write_str(env!("CARGO_PKG_VERSION"));
    fp.write_str(Dataset::Power.name());
    fp.write_usize(n);
    fp.write_u64(FIXTURE_DATASET_SEED);
    fp.write_usize(base);
    fp.write_usize(mu);
    fp.write_usize(FIXTURE_GMM_START);
    fp.finish()
}

/// Builds (or, warm, loads) the shared coreset fixture for the outlier
/// kernels: τ = µ(k+z) GMM centers with proxy weights over the seeded
/// Power workload.
fn coreset_fixture(
    points: &[Point],
    n: usize,
    base: usize,
    mu: usize,
    store: Option<&kcenter_store::ArtifactStore>,
) -> (Vec<Point>, Vec<u64>) {
    let fingerprint = coreset_fixture_fingerprint(n, base, mu);
    if let Some(store) = store {
        if let Some((cpoints, weights)) = store.load_coreset(fingerprint) {
            eprintln!(
                "  coreset fixture: loaded from cache ({} points)",
                cpoints.len()
            );
            return (cpoints, weights);
        }
    }
    let build = build_weighted_coreset(
        points,
        &Euclidean,
        base,
        &CoresetSpec::Multiplier { mu },
        FIXTURE_GMM_START,
    );
    let cpoints = build.coreset.points_only();
    let weights = build.coreset.weights();
    if let Some(store) = store {
        if let Err(err) = store.store_coreset(fingerprint, &cpoints, &weights) {
            eprintln!("  coreset fixture: failed to persist: {err}");
        }
    }
    (cpoints, weights)
}

fn run_kernels(
    threads: usize,
    warmup: usize,
    samples: usize,
    n: usize,
    store: Option<&kcenter_store::ArtifactStore>,
    records: &mut Vec<Record>,
) {
    let (k, z, mu) = (20usize, 50usize, 8usize);
    let points = Dataset::Power.generate(n, FIXTURE_DATASET_SEED);

    // The paired SIMD rows run over SoA views (`PointRef`s into one
    // contiguous `PointSet` block) — the layout the exec worker feeds the
    // kernels in production. Owned `Vec<Point>` rows would bury the vector
    // kernels' strided coordinate loads under per-point pointer chases.
    let soa = PointSet::from_points(&points);
    let point_refs: Vec<PointRef<'_>> = soa.iter().collect();

    // Kernel 1: GMM farthest-first traversal, k = paper's Power k (100).
    // The auto row uses the detected SIMD ISA for its chunked min-distance
    // block scan; the force_scalar row pins the scalar reference kernels.
    // The proxied row is the auto row again, paired with the forced-sqrt
    // "before" metric. All produce bit-identical centers — only the clock
    // differs.
    let gmm_k = Dataset::Power.paper_k();
    let run = (warmup, samples, threads);
    let gmm_ops = (n * gmm_k) as u64;
    record_pair(
        records,
        run,
        "Power",
        n,
        gmm_ops,
        ("gmm_select", || {
            kernels::set_force_scalar(false);
            gmm_select(&point_refs, &Euclidean, gmm_k, 0)
        }),
        ("gmm_select_force_scalar", || {
            kernels::set_force_scalar(true);
            gmm_select(&point_refs, &Euclidean, gmm_k, 0)
        }),
    );
    kernels::set_force_scalar(false);
    record_pair(
        records,
        run,
        "Power",
        n,
        gmm_ops,
        ("gmm_select_proxied", || {
            gmm_select(&point_refs, &Euclidean, gmm_k, 0)
        }),
        ("gmm_select_sqrt_before", || {
            gmm_select(&point_refs, &SqrtEuclidean, gmm_k, 0)
        }),
    );

    // Kernel 1b: round-1 coreset construction with and without cluster
    // pruning — clustered 7-d, where cluster steps dominate, and 50-d,
    // where nothing prunes and every step falls back to the full scan.
    let wiki = PointSet::from_points(&Dataset::Wiki.generate(n, FIXTURE_DATASET_SEED));
    let wiki_refs: Vec<PointRef<'_>> = wiki.iter().collect();
    let wiki_base = Dataset::Wiki.paper_k();
    for (dataset, refs, base, mu) in [
        ("Power", &point_refs, k + z, mu),
        ("Wiki", &wiki_refs, wiki_base, 4),
    ] {
        let spec = CoresetSpec::Multiplier { mu };
        record_pair(
            records,
            run,
            dataset,
            n,
            (n * base * mu) as u64,
            ("gmm_coreset_pruned", || {
                build_weighted_coreset(refs, &Euclidean, base, &spec, 0)
            }),
            ("gmm_coreset_unpruned", || {
                build_weighted_coreset(refs, &Unpruned(Euclidean), base, &spec, 0)
            }),
        );
    }

    // Shared coreset fixture for the outlier kernels: τ = µ(k+z) = 560,
    // loaded from the persistent store when a previous run built it.
    let (cpoints, weights) = coreset_fixture(&points, n, k + z, mu, store);
    let t = cpoints.len();

    // Kernel 2: condensed distance-matrix construction over the coreset —
    // the blocked pairwise build, auto-dispatched vs forced-scalar.
    let coreset_soa = PointSet::from_points(&cpoints);
    let coreset_refs: Vec<PointRef<'_>> = coreset_soa.iter().collect();
    let (m, m_scalar) = measure_paired(
        warmup,
        samples,
        || {
            kernels::set_force_scalar(false);
            DistanceMatrix::build(&coreset_refs, &Euclidean)
        },
        || {
            kernels::set_force_scalar(true);
            DistanceMatrix::build(&coreset_refs, &Euclidean)
        },
    );
    kernels::set_force_scalar(false);
    records.push(Record {
        kernel: "distance_matrix_build",
        dataset: "Power",
        n: t,
        ops: (t * t / 2) as u64,
        threads,
        m,
    });
    eprintln!(
        "  distance_matrix/|T|={t}     {:>12.2?} ±{:.2?}",
        m.median, m.mad
    );
    records.push(Record {
        kernel: "distance_matrix_build_force_scalar",
        dataset: "Power",
        n: t,
        ops: (t * t / 2) as u64,
        threads,
        m: m_scalar,
    });
    eprintln!(
        "  distance_matrix (scalar)    {:>12.2?} ±{:.2?}",
        m_scalar.median, m_scalar.mad
    );

    let matrix = DistanceMatrix::build(&cpoints, &Euclidean);

    // Kernel 3: one OutliersCluster run (incremental ball weights).
    let (r_guess, eps) = (5.0f64, 0.25f64);
    let m = measure(warmup, samples, || {
        outliers_cluster(&matrix, &weights, k, r_guess, eps)
    });
    records.push(Record {
        kernel: "outliers_cluster",
        dataset: "Power",
        n: t,
        ops: (t * t) as u64,
        threads,
        m,
    });
    eprintln!(
        "  outliers_cluster/|T|={t}    {:>12.2?} ±{:.2?}",
        m.median, m.mad
    );

    // Kernel 3b: the same run through a metric-backed oracle, proxied vs
    // forced-sqrt — the sqrt-free before/after on the O(|T|²) scans.
    let proxied = PointsOracle::new(&cpoints, &Euclidean);
    let m = measure(warmup, samples, || {
        outliers_cluster(&proxied, &weights, k, r_guess, eps)
    });
    records.push(Record {
        kernel: "outliers_cluster_points_oracle",
        dataset: "Power",
        n: t,
        ops: (t * t) as u64,
        threads,
        m,
    });
    eprintln!(
        "  outliers_cluster (oracle)   {:>12.2?} ±{:.2?}",
        m.median, m.mad
    );

    let sqrt_oracle = PointsOracle::new(&cpoints, &SqrtEuclidean);
    let m = measure(warmup, samples, || {
        outliers_cluster(&sqrt_oracle, &weights, k, r_guess, eps)
    });
    records.push(Record {
        kernel: "outliers_cluster_points_oracle_sqrt_before",
        dataset: "Power",
        n: t,
        ops: (t * t) as u64,
        threads,
        m,
    });
    eprintln!(
        "  outliers_cluster (sqrt)     {:>12.2?} ±{:.2?}",
        m.median, m.mad
    );

    // Kernel 4: the full geometric-grid radius search.
    let m = measure(warmup, samples, || {
        find_min_feasible_radius(
            &matrix,
            &weights,
            k,
            z as u64,
            eps,
            SearchMode::GeometricGrid,
        )
    });
    records.push(Record {
        kernel: "radius_search_grid",
        dataset: "Power",
        n: t,
        ops: (t * t) as u64,
        threads,
        m,
    });
    eprintln!(
        "  radius_search/|T|={t}       {:>12.2?} ±{:.2?}",
        m.median, m.mad
    );

    // Kernel 5: the fig4-style sweep shape — repeated radius searches over
    // one coreset. "cached" shares a CachedOracle (the proxy matrix is
    // built once, outside the sweep's inner iterations); "rebuilt" prices
    // the coreset into a fresh matrix on every search, the pre-PR-3
    // behaviour of sweeps that called solve_coreset per configuration.
    // Samples interleave (ABBA) so slow machine drift cannot reorder the
    // medians of what is a ~5%-of-runtime difference.
    let shared = CachedOracle::new(cpoints.clone(), &Euclidean, usize::MAX);
    let _ = shared.matrix(); // warm: sweeps pay the build once, not per search
    let (m_cached, m_rebuilt) = measure_paired(
        warmup,
        samples,
        || {
            solve_coreset_cached(
                &shared,
                &weights,
                k,
                z as u64,
                eps,
                SearchMode::GeometricGrid,
            )
        },
        || {
            let fresh = CachedOracle::new(cpoints.clone(), &Euclidean, usize::MAX);
            solve_coreset_cached(
                &fresh,
                &weights,
                k,
                z as u64,
                eps,
                SearchMode::GeometricGrid,
            )
        },
    );
    records.push(Record {
        kernel: "radius_search_cached_oracle",
        dataset: "Power",
        n: t,
        ops: (t * t) as u64,
        threads,
        m: m_cached,
    });
    eprintln!(
        "  radius_search (cached)      {:>12.2?} ±{:.2?}",
        m_cached.median, m_cached.mad
    );
    assert_eq!(
        shared.build_count() + shared.load_count(),
        1,
        "cached sweep must price its matrix exactly once (built or loaded)"
    );
    records.push(Record {
        kernel: "radius_search_rebuilt_matrix",
        dataset: "Power",
        n: t,
        ops: (t * t) as u64,
        threads,
        m: m_rebuilt,
    });
    eprintln!(
        "  radius_search (rebuilt)     {:>12.2?} ±{:.2?}",
        m_rebuilt.median, m_rebuilt.mad
    );
}

/// Accounting pinned into the JSON header by the executor rows.
struct ExecAccounting {
    warm_shard_writes: usize,
    warm_shard_reuses: usize,
    warm_workers_spawned: usize,
}

/// Executor rows: warm-vs-cold fleet and store-vs-workdir shards, both
/// paired (ABBA). Runs once at process level (the workers own their
/// process-wide pools), on a workload small enough for the smoke profile
/// — spawn/shard overheads, the quantities under test, do not shrink
/// with `n`.
fn run_exec_rows(warmup: usize, samples: usize, records: &mut Vec<Record>) -> ExecAccounting {
    use kcenter_core::mapreduce_kcenter::MrKCenterConfig;
    use kcenter_exec::{
        exec_mr_kcenter, exec_mr_kcenter_on, ExecConfig, MetricKind, WorkerCommand, WorkerFleet,
    };

    let n = 2_000usize;
    let ell = 4usize;
    let points = Dataset::Power.generate(n, FIXTURE_DATASET_SEED);
    let config = MrKCenterConfig {
        k: 20,
        ell,
        coreset: CoresetSpec::Multiplier { mu: 2 },
        seed: 1,
    };
    let worker = WorkerCommand::current_exe(&["exec-worker"]).expect("current exe");
    let exec = ExecConfig::new(worker);

    // Fleet warm-up amortization: the warm arm schedules every sample
    // onto one persistent fleet (0 spawns after the first run); the cold
    // arm spawns and shuts a fresh fleet down per run.
    let mut fleet = WorkerFleet::from_config(&exec);
    let mut warm_workers_spawned = usize::MAX;
    let (m_warm, m_cold) = criterion::measure_paired(
        warmup,
        samples,
        || {
            let run =
                exec_mr_kcenter_on(&mut fleet, &points, MetricKind::Euclidean, &config, &exec)
                    .expect("warm fleet run");
            warm_workers_spawned = warm_workers_spawned.min(run.report.workers_spawned);
            run
        },
        || exec_mr_kcenter(&points, MetricKind::Euclidean, &config, &exec).expect("cold fleet run"),
    );
    fleet.shutdown();
    for (kernel, m) in [
        ("exec_mr_kcenter_warm_fleet", m_warm),
        ("exec_mr_kcenter_cold_fleet", m_cold),
    ] {
        records.push(Record {
            kernel,
            dataset: "Power",
            n,
            ops: ell as u64,
            threads: 1,
            m,
        });
        eprintln!("  {kernel:<27} {:>12.2?} ±{:.2?}", m.median, m.mad);
    }

    // Content-addressed shard reuse: the warm arm serves every shard from
    // the artifact store (asserted: zero writes per sample); the cold arm
    // re-shards into the work directory on every run.
    let store_dir =
        std::env::temp_dir().join(format!("kcenter-bench-shards-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let mut stored = exec.clone();
    stored.shard_store =
        Some(kcenter_store::ArtifactStore::open(&store_dir).expect("shard store dir"));
    // Prime: the first run pays the store writes outside the measurement.
    let primed = exec_mr_kcenter(&points, MetricKind::Euclidean, &config, &stored)
        .expect("priming shard store");
    assert_eq!(primed.report.shard_writes, ell);
    let mut warm_shard_writes = 0usize;
    let mut warm_shard_reuses = usize::MAX;
    let (m_reused, m_resharded) = criterion::measure_paired(
        warmup,
        samples,
        || {
            let run = exec_mr_kcenter(&points, MetricKind::Euclidean, &config, &stored)
                .expect("store-served run");
            warm_shard_writes = warm_shard_writes.max(run.report.shard_writes);
            warm_shard_reuses = warm_shard_reuses.min(run.report.shard_reuses);
            run
        },
        || exec_mr_kcenter(&points, MetricKind::Euclidean, &config, &exec).expect("re-shard run"),
    );
    assert_eq!(warm_shard_writes, 0, "warm runs must not write shards");
    for (kernel, m) in [
        ("exec_mr_kcenter_shards_reused", m_reused),
        ("exec_mr_kcenter_shards_rewritten", m_resharded),
    ] {
        records.push(Record {
            kernel,
            dataset: "Power",
            n,
            ops: ell as u64,
            threads: 1,
            m,
        });
        eprintln!("  {kernel:<27} {:>12.2?} ±{:.2?}", m.median, m.mad);
    }
    let _ = std::fs::remove_dir_all(&store_dir);
    ExecAccounting {
        warm_shard_writes,
        warm_shard_reuses,
        warm_workers_spawned,
    }
}

/// Serve rows: session-ingest throughput through the registry's bounded
/// channel and per-query latency on a live session — the solver path
/// versus the per-session answer memo, paired (ABBA). The two query arms
/// run on *separate* sessions because the memo holds a single entry: the
/// solver arm alternating `k` on the memo arm's session would clobber
/// its cached answer between interleaved samples.
fn run_serve_rows(warmup: usize, samples: usize, records: &mut Vec<Record>) {
    use kcenter_serve::{RegistryConfig, SessionRegistry};

    let n = 4_096usize;
    let config = RegistryConfig {
        tau: 64,
        memory_budget_points: None,
        snapshot_every: 0,
        ingest_buffer: 256,
    };
    let points = Dataset::Power.generate(n, FIXTURE_DATASET_SEED);

    // Ingest throughput: a fresh session absorbs the workload in
    // 256-point batches, each batch crossing the bounded channel exactly
    // as a server-side ingest does.
    let m = measure(warmup, samples, || {
        let registry =
            SessionRegistry::new(Euclidean, config.clone(), None).expect("bench registry");
        for batch in points.chunks(256) {
            registry
                .ingest("bench", "ingest", batch.to_vec())
                .expect("bench ingest");
        }
        registry
    });
    records.push(Record {
        kernel: "serve_ingest_throughput",
        dataset: "Power",
        n,
        ops: n as u64,
        threads: 1,
        m,
    });
    eprintln!(
        "  serve_ingest/n={n}         {:>12.2?} ±{:.2?}",
        m.median, m.mad
    );

    let registry = SessionRegistry::new(Euclidean, config, None).expect("bench registry");
    registry
        .ingest("bench", "solve", points.clone())
        .expect("seed solver session");
    registry
        .ingest("bench", "memo", points.clone())
        .expect("seed memo session");
    let (k, z, eps) = (20usize, 50u64, 0.25f64);
    registry
        .query("bench", "memo", k, z, eps)
        .expect("prime the memo");
    let flip = std::cell::Cell::new(false);
    let (m_solve, m_memo) = measure_paired(
        warmup,
        samples,
        || {
            // Alternate k so every call misses the single-entry memo and
            // pays the full snapshot-and-solve path.
            let kk = if flip.replace(!flip.get()) { k + 1 } else { k };
            let answer = registry
                .query("bench", "solve", kk, z, eps)
                .expect("solver query");
            assert!(!answer.cached, "solver arm must never hit the memo");
            answer
        },
        || {
            let answer = registry
                .query("bench", "memo", k, z, eps)
                .expect("memo query");
            assert!(answer.cached, "memo arm must always hit");
            answer
        },
    );
    for (kernel, m) in [
        ("serve_query_latency", m_solve),
        ("serve_query_memoized", m_memo),
    ] {
        records.push(Record {
            kernel,
            dataset: "Power",
            n,
            ops: 1,
            threads: 1,
            m,
        });
        eprintln!("  {kernel:<27} {:>12.2?} ±{:.2?}", m.median, m.mad);
    }
}

fn main() {
    // Hidden worker mode: the fleet re-invokes this binary as its worker
    // process (`bench_runner exec-worker --serve`).
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("exec-worker") {
        std::process::exit(kcenter_exec::worker_main(raw.into_iter().skip(1)));
    }
    let mut out: Option<String> = None;
    let mut samples: Option<usize> = None;
    let mut warmup: Option<usize> = None;
    let mut n: Option<usize> = None;
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match arg.as_str() {
            "--out" => out = Some(value("--out")),
            "--samples" => samples = Some(value("--samples").parse().expect("--samples: integer")),
            "--warmup" => warmup = Some(value("--warmup").parse().expect("--warmup: integer")),
            "--n" => n = Some(value("--n").parse().expect("--n: integer")),
            "--smoke" => smoke = true,
            other => {
                eprintln!("unknown argument {other}; usage: [--out PATH] [--samples N] [--warmup N] [--n N] [--smoke]");
                std::process::exit(2);
            }
        }
    }
    // --smoke is a defaults profile, not an override: explicit flags win.
    let out = out.unwrap_or_else(|| {
        if smoke {
            "BENCH_smoke.json"
        } else {
            "BENCH_pr12.json"
        }
        .to_string()
    });
    let samples = samples.unwrap_or(if smoke { 5 } else { 7 });
    let warmup = warmup.unwrap_or(2);
    let n = n.unwrap_or(if smoke { 4_000 } else { 10_000 });

    // The persistent store is used *only* for the spec-keyed coreset
    // fixture here — deliberately not installed as the global matrix
    // persistence: the distance_matrix_build and radius_search_rebuilt
    // kernels measure matrix pricing itself, and serving those from disk
    // would silently benchmark the codec instead of the kernel.
    let store = kcenter_store::ArtifactStore::from_env();
    if let Some(store) = &store {
        eprintln!(
            "persistent cache (coreset fixture only): {}",
            store.dir().display()
        );
    }

    let machine = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let mut thread_counts = vec![1usize];
    if machine > 1 {
        thread_counts.push(machine);
    }

    let mut records = Vec::new();
    for &tc in &thread_counts {
        eprintln!("threads = {tc}:");
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(tc)
            .build()
            .expect("pool build");
        pool.install(|| run_kernels(tc, warmup, samples, n, store.as_ref(), &mut records));
    }

    eprintln!("executor (process-level):");
    let exec_accounting = run_exec_rows(warmup, samples, &mut records);

    eprintln!("serve (session registry):");
    run_serve_rows(warmup, samples, &mut records);

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"generated_by\": \"bench_runner (crates/bench)\",");
    let _ = writeln!(json, "  \"machine_threads\": {machine},");
    let _ = writeln!(
        json,
        "  \"simd_isa\": \"{:?}\",",
        kcenter_metric::kernels::active_isa()
    );
    // The full metrics-registry snapshot: every counter/gauge/histogram
    // the run touched, under their stable dotted names.
    let _ = writeln!(json, "  \"obs_metrics\": {},", kcenter_obs::render_json());
    let _ = writeln!(
        json,
        "  \"exec_warm_shard_writes\": {},",
        exec_accounting.warm_shard_writes
    );
    let _ = writeln!(
        json,
        "  \"exec_warm_shard_reuses\": {},",
        exec_accounting.warm_shard_reuses
    );
    let _ = writeln!(
        json,
        "  \"exec_warm_workers_spawned\": {},",
        exec_accounting.warm_workers_spawned
    );
    let _ = writeln!(
        json,
        "  \"note\": \"median over {samples} samples after {warmup} warmup runs, MAD outlier rejection; threads=1 is the sequential reference (inline execution, no pool overhead); *_force_scalar rows pin the scalar kernels via set_force_scalar, paired ABBA against the auto rows; gmm_select_proxied/gmm_select_sqrt_before and gmm_coreset_pruned/gmm_coreset_unpruned are ABBA pairs over the same PointRef layout, isolating the sqrt-free proxy and round-1 cluster pruning; a multi-thread scaling row appears only when the machine has >1 hardware thread; exec_* rows are paired ABBA too — warm_fleet reuses one persistent WorkerFleet across samples vs a fresh fleet per run, shards_reused serves content-addressed store shards (exec_warm_shard_writes pins 0 writes per warm sample) vs work-dir re-sharding\","
    );
    json.push_str("  \"records\": [\n");
    let lines: Vec<String> = records.iter().map(json_record).collect();
    json.push_str(&lines.join(",\n"));
    json.push_str("\n  ]\n}\n");
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("failed to write {out}: {e}"));
    eprintln!("wrote {} records to {out}", records.len());
}
