//! Bench runner: measures the hot kernels (GMM, `OutliersCluster`, radius
//! search, `DistanceMatrix` construction, cached-vs-rebuilt radius-search
//! sweeps) plus the multi-process executor (warm vs cold worker fleet,
//! store-served vs re-written shards) and the serve-layer session
//! registry (batched ingest throughput, query latency solver-path vs
//! memoized) and the executor's data path (shard checksum and
//! fingerprint) on the seeded `Power` workload and writes machine-readable
//! `BENCH_pr17.json` — the perf trajectory's record. The JSON header
//! also carries the hardware-thread count and a snapshot of the
//! process metrics registry (`kcenter-obs`) after the run.
//!
//! The matrix rows run on the production path: `distance_matrix_build`
//! prices the coreset into the proxy-scale `DistanceMatrix::build_cmp`
//! matrix that `CachedOracle` caches, and `outliers_cluster` and
//! `radius_search_grid` read that matrix through `CmpMatrixRef`, the
//! oracle `solve_coreset_cached` runs below the cache threshold.
//!
//! The block-kernel consumers (`gmm_select`'s chunked min-distance scan
//! and the blocked `DistanceMatrix::build_cmp`) are measured **paired**: the
//! four-lane block kernel versus the `*_scalar_loop` rows, whose metric
//! withholds the block methods so the trait's per-point loop runs
//! instead, with samples interleaved (ABBA), so the kernel's before/after
//! comes from identical surrounding code on identical hardware. Two more
//! GMM pairs isolate one optimization each on the same `PointRef` layout:
//! the sqrt-free proxy (`gmm_select_proxied` vs `gmm_select_sqrt_before`)
//! and round-1 cluster pruning (`gmm_coreset_pruned` vs
//! `gmm_coreset_unpruned`, on Power-like 7-d and Wiki-like 50-d). The
//! executor rows are paired the same way: a persistent `WorkerFleet` reused
//! across samples versus a fresh fleet spawned per run (fleet-warmup
//! amortization), and content-addressed store-served shards versus
//! work-dir re-sharding; the header pins that every warm sample performed
//! **zero** shard writes. The binary re-invokes itself in a hidden
//! `exec-worker` mode as the fleet's worker process. The data-path rows
//! pair the word-wise checksum and fingerprint kernels with bench-local
//! copies of the byte-at-a-time FNV-1a loops they replaced.
//!
//! Every number comes from the criterion shim's measurement kernel
//! (warmup, N samples, MAD-based outlier rejection, median of survivors)
//! and is recorded per thread count: once with a 1-thread pool (the
//! sequential reference — identical code path to the old sequential shim)
//! and once with the machine's full parallelism when that differs.
//!
//! Every input, the outlier kernels' shared coreset fixture included, is
//! generated in process from a fixed seed; the binary does not read
//! `KCENTER_CACHE_DIR`.
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
use kcenter_core::outliers_cluster::{outliers_cluster, CmpMatrixRef, PointsOracle};
use kcenter_core::radius_search::{find_min_feasible_radius, solve_coreset_cached, SearchMode};
use kcenter_metric::{
    CachedOracle, Coordinates, DistanceMatrix, Euclidean, Metric, Point, PointRef, PointSet,
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

/// A metric with the block kernel withheld: `cmp_distance_block` keeps
/// the trait's per-point loop over the scalar method. Everything else
/// forwards, pruning bound included, so the pair isolates the block
/// kernel.
struct ScalarLoop<M>(M);

impl<P, M: Metric<P>> Metric<P> for ScalarLoop<M> {
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
    fn cmp_prune_bound(&self, cmp_ac: f64) -> Option<f64> {
        self.0.cmp_prune_bound(cmp_ac)
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

/// Prints a row's median and MAD and appends it.
fn push_record(records: &mut Vec<Record>, record: Record) {
    let m = &record.m;
    eprintln!("  {:<42} {:>12.2?} ±{:.2?}", record.kernel, m.median, m.mad);
    records.push(record);
}

/// Measures one arm on its own and records its row.
fn record_one<R>(
    records: &mut Vec<Record>,
    (warmup, samples, threads): (usize, usize, usize),
    dataset: &'static str,
    n: usize,
    ops: u64,
    (kernel, run): (&'static str, impl FnMut() -> R),
) {
    let m = measure(warmup, samples, run);
    push_record(
        records,
        Record {
            kernel,
            dataset,
            n,
            ops,
            threads,
            m,
        },
    );
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
        push_record(
            records,
            Record {
                kernel,
                dataset,
                n,
                ops,
                threads,
                m,
            },
        );
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

/// Dataset-generation seed of the benchmark workload.
const FIXTURE_DATASET_SEED: u64 = 1;

fn run_kernels(threads: usize, warmup: usize, samples: usize, n: usize, records: &mut Vec<Record>) {
    let (k, z, mu) = (20usize, 50usize, 8usize);
    let points = Dataset::Power.generate(n, FIXTURE_DATASET_SEED);

    // The paired kernel rows run over SoA views (`PointRef`s into one
    // contiguous `PointSet` block) — the layout the exec worker feeds the
    // kernels in production. Owned `Vec<Point>` rows would bury the vector
    // kernels' strided coordinate loads under per-point pointer chases.
    let soa = PointSet::from_points(&points);
    let point_refs: Vec<PointRef<'_>> = soa.iter().collect();

    // Kernel 1: GMM farthest-first traversal, k = paper's Power k (100).
    // The plain row runs its chunked min-distance scan through the block
    // kernel; the scalar_loop row runs the trait's per-point loop. The
    // proxied row is the plain row again, paired with the forced-sqrt
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
            gmm_select(&point_refs, &Euclidean, gmm_k, 0)
        }),
        ("gmm_select_scalar_loop", || {
            gmm_select(&point_refs, &ScalarLoop(Euclidean), gmm_k, 0)
        }),
    );
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

    // Shared coreset fixture for the outlier kernels: τ = µ(k+z) = 560.
    let fixture = build_weighted_coreset(
        &points,
        &Euclidean,
        k + z,
        &CoresetSpec::Multiplier { mu },
        0,
    );
    let (cpoints, weights) = (fixture.coreset.points_only(), fixture.coreset.weights());
    let t = cpoints.len();

    // Kernel 2: proxy-scale distance-matrix construction over the
    // coreset — the blocked pairwise build `CachedOracle` runs, block
    // kernel vs scalar loop.
    let coreset_soa = PointSet::from_points(&cpoints);
    let coreset_refs: Vec<PointRef<'_>> = coreset_soa.iter().collect();
    let tt = (t * t) as u64;
    record_pair(
        records,
        run,
        "Power",
        t,
        tt / 2,
        ("distance_matrix_build", || {
            DistanceMatrix::build_cmp(&coreset_refs, &Euclidean)
        }),
        ("distance_matrix_build_scalar_loop", || {
            DistanceMatrix::build_cmp(&coreset_refs, &ScalarLoop(Euclidean))
        }),
    );

    // The matrix-backed kernels read the proxy matrix through the oracle
    // `solve_coreset_cached` uses below the cache threshold.
    let cmp = DistanceMatrix::build_cmp(&cpoints, &Euclidean);
    let matrix = CmpMatrixRef::<Point, _>::new(&cmp, &Euclidean);

    // Kernel 3: one OutliersCluster run (one read per pair).
    let (r_guess, eps) = (5.0f64, 0.25f64);
    record_one(
        records,
        run,
        "Power",
        t,
        tt,
        ("outliers_cluster", || {
            outliers_cluster(&matrix, &weights, k, r_guess, eps)
        }),
    );

    // Kernel 3b: the same run through a metric-backed oracle, proxied vs
    // forced-sqrt — the sqrt-free before/after on the O(|T|²) scans.
    let proxied = PointsOracle::new(&cpoints, &Euclidean);
    record_one(
        records,
        run,
        "Power",
        t,
        tt,
        ("outliers_cluster_points_oracle", || {
            outliers_cluster(&proxied, &weights, k, r_guess, eps)
        }),
    );
    let sqrt_oracle = PointsOracle::new(&cpoints, &SqrtEuclidean);
    record_one(
        records,
        run,
        "Power",
        t,
        tt,
        ("outliers_cluster_points_oracle_sqrt_before", || {
            outliers_cluster(&sqrt_oracle, &weights, k, r_guess, eps)
        }),
    );

    // Kernel 4: the full geometric-grid radius search.
    record_one(
        records,
        run,
        "Power",
        t,
        tt,
        ("radius_search_grid", || {
            find_min_feasible_radius(
                &matrix,
                &weights,
                k,
                z as u64,
                eps,
                SearchMode::GeometricGrid,
            )
        }),
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
    let solve = |oracle: &CachedOracle<'_, Point, Euclidean>| {
        solve_coreset_cached(
            oracle,
            &weights,
            k,
            z as u64,
            eps,
            SearchMode::GeometricGrid,
        )
    };
    record_pair(
        records,
        run,
        "Power",
        t,
        tt,
        ("radius_search_cached_oracle", || solve(&shared)),
        ("radius_search_rebuilt_matrix", || {
            solve(&CachedOracle::new(cpoints.clone(), &Euclidean, usize::MAX))
        }),
    );
    assert_eq!(
        shared.build_count(),
        1,
        "cached sweep must price its matrix exactly once"
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
    let run = (warmup, samples, 1);
    let mut fleet = WorkerFleet::from_config(&exec);
    let mut warm_workers_spawned = usize::MAX;
    record_pair(
        records,
        run,
        "Power",
        n,
        ell as u64,
        ("exec_mr_kcenter_warm_fleet", || {
            let job =
                exec_mr_kcenter_on(&mut fleet, &points, MetricKind::Euclidean, &config, &exec)
                    .expect("warm fleet run");
            warm_workers_spawned = warm_workers_spawned.min(job.report.workers_spawned);
            job
        }),
        ("exec_mr_kcenter_cold_fleet", || {
            exec_mr_kcenter(&points, MetricKind::Euclidean, &config, &exec).expect("cold fleet run")
        }),
    );
    fleet.shutdown();

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
    record_pair(
        records,
        run,
        "Power",
        n,
        ell as u64,
        ("exec_mr_kcenter_shards_reused", || {
            let job = exec_mr_kcenter(&points, MetricKind::Euclidean, &config, &stored)
                .expect("store-served run");
            warm_shard_writes = warm_shard_writes.max(job.report.shard_writes);
            warm_shard_reuses = warm_shard_reuses.min(job.report.shard_reuses);
            job
        }),
        ("exec_mr_kcenter_shards_rewritten", || {
            exec_mr_kcenter(&points, MetricKind::Euclidean, &config, &exec).expect("re-shard run")
        }),
    );
    assert_eq!(warm_shard_writes, 0, "warm runs must not write shards");
    let _ = std::fs::remove_dir_all(&store_dir);
    ExecAccounting {
        warm_shard_writes,
        warm_shard_reuses,
        warm_workers_spawned,
    }
}

/// The store codec's v1 payload checksum, kept here as the "before" arm
/// of the `payload_checksum` pair: byte-at-a-time FNV-1a with a SplitMix64
/// finish.
fn checksum_fnv_bytes(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    splitmix_finish(h)
}

const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

fn splitmix_finish(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The v1 `Fingerprint`, kept here as the "before" arm of the
/// `shard_fingerprint` pair: two FNV-1a lanes stepped one byte at a time,
/// lane B also mixing the running length.
struct FingerprintFnvBytes {
    lane_a: u64,
    lane_b: u64,
    len: u64,
}

impl FingerprintFnvBytes {
    fn with_domain(domain: &str) -> Self {
        let mut fp = FingerprintFnvBytes {
            lane_a: 0xCBF2_9CE4_8422_2325,
            lane_b: 0x9E37_79B9_7F4A_7C15,
            len: 0,
        };
        fp.write_u64(domain.len() as u64);
        fp.write_bytes(domain.as_bytes());
        fp
    }

    fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.lane_a = (self.lane_a ^ u64::from(b)).wrapping_mul(FNV_PRIME);
            self.lane_b = (self.lane_b ^ u64::from(b)).wrapping_mul(FNV_PRIME);
            self.lane_b ^= self.len.rotate_left(17);
            self.len = self.len.wrapping_add(1);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    fn write_f64s(&mut self, vs: &[f64]) {
        self.write_u64(vs.len() as u64);
        for &v in vs {
            self.write_u64(v.to_bits());
        }
    }

    fn finish(&self) -> u128 {
        let hi = splitmix_finish(self.lane_a ^ self.len.rotate_left(32));
        let lo = splitmix_finish(self.lane_b.wrapping_add(self.len));
        (u128::from(hi) << 64) | u128::from(lo)
    }
}

/// Data-path rows: the coordinator's per-job work outside the workers,
/// on one shard of the fleet benchmarks' size (100k 7-d points, a
/// 5.6 MB payload). `payload_checksum` is the codec's XXH64 over the
/// shard payload, paired (ABBA) with the v1 FNV-1a byte loop;
/// `shard_fingerprint` is the executor's shard key (domain, count, each
/// point's length-prefixed coordinates) with the word-wise
/// `Fingerprint`, paired with the v1 byte-wise builder. Fixed size in
/// every profile: these costs scale with the shard, not with `--n`.
fn run_data_path_rows(warmup: usize, samples: usize, records: &mut Vec<Record>) {
    use kcenter_metric::fingerprint::checksum64;
    use kcenter_store::codec::{self, HEADER_LEN};

    let n = 100_000usize;
    let points = Dataset::Power.generate(n, FIXTURE_DATASET_SEED);
    let entry = codec::encode_shard(&points);
    let payload = &entry[HEADER_LEN..];
    let run = (warmup, samples, 1);
    record_pair(
        records,
        run,
        "Power",
        n,
        payload.len() as u64,
        ("payload_checksum", || checksum64(payload)),
        ("payload_checksum_fnv_bytes", || checksum_fnv_bytes(payload)),
    );
    let words = points.iter().map(|p| 1 + p.dim() as u64).sum::<u64>();
    record_pair(
        records,
        run,
        "Power",
        n,
        words,
        ("shard_fingerprint", || {
            let mut fp = kcenter_metric::Fingerprint::with_domain("kcenter-exec/shard/v1");
            fp.write_usize(points.len());
            for p in &points {
                fp.write_f64s(p.coords());
            }
            fp.finish()
        }),
        ("shard_fingerprint_fnv_bytes", || {
            let mut fp = FingerprintFnvBytes::with_domain("kcenter-exec/shard/v1");
            fp.write_u64(points.len() as u64);
            for p in &points {
                fp.write_f64s(p.coords());
            }
            fp.finish()
        }),
    );
}

/// Serve rows: session-ingest throughput through the registry and
/// per-query latency on a live session — the solver path
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
    };
    let points = Dataset::Power.generate(n, FIXTURE_DATASET_SEED);
    let run = (warmup, samples, 1);

    // Ingest throughput: a fresh session absorbs the workload in
    // 256-point batches, each through the same `ingest` call a
    // server-side request makes.
    record_one(
        records,
        run,
        "Power",
        n,
        n as u64,
        ("serve_ingest_throughput", || {
            let registry =
                SessionRegistry::new(Euclidean, config.clone(), None).expect("bench registry");
            for batch in points.chunks(256) {
                registry
                    .ingest("bench", "ingest", batch.to_vec())
                    .expect("bench ingest");
            }
            registry
        }),
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
    record_pair(
        records,
        run,
        "Power",
        n,
        1,
        ("serve_query_latency", || {
            // Alternate k so every call misses the single-entry memo and
            // pays the full snapshot-and-solve path.
            let kk = if flip.replace(!flip.get()) { k + 1 } else { k };
            let answer = registry
                .query("bench", "solve", kk, z, eps)
                .expect("solver query");
            assert!(!answer.cached, "solver arm must never hit the memo");
            answer
        }),
        ("serve_query_memoized", || {
            let answer = registry
                .query("bench", "memo", k, z, eps)
                .expect("memo query");
            assert!(answer.cached, "memo arm must always hit");
            answer
        }),
    );
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
            "BENCH_pr17.json"
        }
        .to_string()
    });
    let samples = samples.unwrap_or(if smoke { 5 } else { 7 });
    let warmup = warmup.unwrap_or(2);
    let n = n.unwrap_or(if smoke { 4_000 } else { 10_000 });

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
        pool.install(|| run_kernels(tc, warmup, samples, n, &mut records));
    }

    eprintln!("executor (process-level):");
    let exec_accounting = run_exec_rows(warmup, samples, &mut records);

    eprintln!("data path (shard checksum and fingerprint):");
    run_data_path_rows(warmup, samples, &mut records);

    eprintln!("serve (session registry):");
    run_serve_rows(warmup, samples, &mut records);

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"generated_by\": \"bench_runner (crates/bench)\",");
    let _ = writeln!(json, "  \"machine_threads\": {machine},");
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
        "  \"note\": \"median over {samples} samples after {warmup} warmup runs, MAD outlier rejection; threads=1 is the sequential reference (inline execution, no pool overhead); distance_matrix_build* rows build the proxy-scale DistanceMatrix::build_cmp matrix that CachedOracle caches, and outliers_cluster/radius_search_grid read it through CmpMatrixRef, the oracle solve_coreset_cached runs below the cache threshold; *_scalar_loop rows withhold the block kernel (the trait's per-point loop runs instead), paired ABBA against the block-kernel rows; gmm_select_proxied/gmm_select_sqrt_before and gmm_coreset_pruned/gmm_coreset_unpruned are ABBA pairs over the same PointRef layout, isolating the sqrt-free proxy and round-1 cluster pruning; a multi-thread scaling row appears only when the machine has >1 hardware thread; exec_* rows are paired ABBA too — warm_fleet reuses one persistent WorkerFleet across samples vs a fresh fleet per run, shards_reused serves content-addressed store shards (exec_warm_shard_writes pins 0 writes per warm sample) vs work-dir re-sharding; payload_checksum (XXH64 over a 100k x 7-d shard payload, ops = bytes) and shard_fingerprint (word-wise Fingerprint of the same shard's key, ops = words) are ABBA pairs against bench-local copies of the v1 byte-at-a-time FNV-1a loops (*_fnv_bytes)\","
    );
    json.push_str("  \"records\": [\n");
    let lines: Vec<String> = records.iter().map(json_record).collect();
    json.push_str(&lines.join(",\n"));
    json.push_str("\n  ]\n}\n");
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("failed to write {out}: {e}"));
    eprintln!("wrote {} records to {out}", records.len());
}
