//! Process-level tests of the multi-process executor, spawning the real
//! `kcenter-exec-worker` binary.
//!
//! Two contracts are pinned here:
//!
//! * **Determinism across the process boundary** — a multi-process run is
//!   bit-identical (center coordinate bits, radius bits, union sizes) to
//!   the in-process `mr_kcenter` / `mr_kcenter_outliers` engines on the
//!   same seeded input, at 1 and 4 worker processes;
//! * **Failure containment** — a worker that crashes, hangs, or writes a
//!   torn artifact surfaces as a clean, attributed error, never a hang or
//!   a panic, and never leaks the fleet.

use std::time::Duration;

use kcenter_core::coreset::CoresetSpec;
use kcenter_core::mapreduce_kcenter::{mr_kcenter, MrKCenterConfig};
use kcenter_core::mapreduce_outliers::{mr_kcenter_outliers, MrOutliersConfig};
use kcenter_exec::{
    exec_mr_kcenter, exec_mr_kcenter_on, exec_mr_outliers, ExecConfig, ExecError, MetricKind,
    WorkerCommand, WorkerFleet,
};
use kcenter_metric::{Euclidean, Point};
use kcenter_store::ArtifactStore;

/// The worker binary cargo built for this package.
fn worker_command() -> WorkerCommand {
    WorkerCommand::new(env!("CARGO_BIN_EXE_kcenter-exec-worker"), &[])
}

fn exec_config() -> ExecConfig {
    let mut config = ExecConfig::new(worker_command());
    // Generous for CI, tight enough that a regression to hanging fails
    // the suite rather than stalling it.
    config.timeout = Duration::from_secs(120);
    config
}

/// Grid points plus a handful of far outliers at the tail.
fn dataset(n: usize, outliers: usize) -> Vec<Point> {
    let mut points: Vec<Point> = (0..n)
        .map(|i| {
            Point::new(vec![
                (i % 37) as f64 * 1.5 + (i % 7) as f64 * 0.01,
                (i / 37) as f64 * 1.5,
            ])
        })
        .collect();
    for j in 0..outliers {
        points.push(Point::new(vec![
            50_000.0 + 1_000.0 * j as f64,
            -40_000.0 + 2_000.0 * j as f64,
        ]));
    }
    points
}

fn assert_points_bit_identical(a: &[Point], b: &[Point], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: center counts differ");
    for (i, (pa, pb)) in a.iter().zip(b).enumerate() {
        assert_eq!(pa.dim(), pb.dim(), "{what}: dim differs at center {i}");
        for (ca, cb) in pa.coords().iter().zip(pb.coords()) {
            assert_eq!(
                ca.to_bits(),
                cb.to_bits(),
                "{what}: coordinate bits differ at center {i}"
            );
        }
    }
}

#[test]
fn kcenter_multi_process_is_bit_identical_to_in_process() {
    let points = dataset(600, 0);
    for procs in [1usize, 4] {
        let config = MrKCenterConfig {
            k: 5,
            ell: procs,
            coreset: CoresetSpec::Multiplier { mu: 3 },
            seed: 11,
        };
        let reference = mr_kcenter(&points, &Euclidean, &config).unwrap();
        let executed =
            exec_mr_kcenter(&points, MetricKind::Euclidean, &config, &exec_config()).unwrap();
        assert_points_bit_identical(
            &executed.clustering.centers,
            &reference.clustering.centers,
            &format!("kcenter procs={procs}"),
        );
        assert_eq!(
            executed.clustering.radius.to_bits(),
            reference.clustering.radius.to_bits(),
            "radius bits differ at procs={procs}"
        );
        assert_eq!(executed.report.union_size, reference.union_size);
        assert_eq!(executed.report.coreset_sizes, reference.coreset_sizes);
        assert_eq!(executed.report.workers.len(), procs);
        for stat in &executed.report.workers {
            assert!(stat.shard_points > 0);
            assert!(stat.coreset_size > 0);
        }
    }
}

#[test]
fn outliers_multi_process_is_bit_identical_to_in_process() {
    let points = dataset(500, 5);
    for procs in [1usize, 4] {
        // Deterministic variant, chunked partitioning.
        let mut config =
            MrOutliersConfig::deterministic(3, 5, procs, CoresetSpec::Multiplier { mu: 2 });
        config.seed = 23;
        let reference = mr_kcenter_outliers(&points, &Euclidean, &config).unwrap();
        let executed =
            exec_mr_outliers(&points, MetricKind::Euclidean, &config, &exec_config()).unwrap();
        assert_points_bit_identical(
            &executed.clustering.centers,
            &reference.clustering.centers,
            &format!("outliers procs={procs}"),
        );
        assert_eq!(
            executed.clustering.radius.to_bits(),
            reference.clustering.radius.to_bits()
        );
        assert_eq!(executed.r_min.to_bits(), reference.r_min.to_bits());
        assert_eq!(executed.uncovered_weight, reference.uncovered_weight);
        assert_eq!(executed.base, reference.base);
        assert_eq!(executed.report.union_size, reference.union_size);
        assert_eq!(executed.report.coreset_sizes, reference.coreset_sizes);
        assert_eq!(executed.search_evaluations, reference.search_evaluations);
    }
}

#[test]
fn randomized_variant_matches_across_the_process_boundary() {
    let points = dataset(400, 8);
    let mut config = MrOutliersConfig::randomized(3, 8, 4, CoresetSpec::Multiplier { mu: 1 });
    config.seed = 5;
    let reference = mr_kcenter_outliers(&points, &Euclidean, &config).unwrap();
    let executed =
        exec_mr_outliers(&points, MetricKind::Euclidean, &config, &exec_config()).unwrap();
    assert_points_bit_identical(
        &executed.clustering.centers,
        &reference.clustering.centers,
        "randomized",
    );
    assert_eq!(
        executed.clustering.radius.to_bits(),
        reference.clustering.radius.to_bits()
    );
    assert_eq!(executed.report.union_size, reference.union_size);
}

/// A config whose workers misbehave on purpose: the fault arrives through
/// the worker's *own* environment (set per spawn), so parallel tests in
/// this binary never observe each other's faults.
fn faulty_exec(fault: &str) -> ExecConfig {
    let mut config = exec_config();
    config.worker = config.worker.env(kcenter_exec::worker::FAULT_ENV, fault);
    config
}

#[test]
fn crashed_worker_is_a_clean_attributed_error() {
    let points = dataset(200, 0);
    let config = MrKCenterConfig {
        k: 3,
        ell: 3,
        coreset: CoresetSpec::Multiplier { mu: 1 },
        seed: 1,
    };
    match exec_mr_kcenter(
        &points,
        MetricKind::Euclidean,
        &config,
        &faulty_exec("crash"),
    ) {
        Err(ExecError::WorkerFailed {
            code: Some(101),
            stderr,
            ..
        }) => assert!(
            stderr.contains("injected crash"),
            "stderr not captured: {stderr:?}"
        ),
        other => panic!("expected WorkerFailed(101), got {other:?}"),
    }
}

#[test]
fn truncated_worker_artifact_is_a_clean_error() {
    let points = dataset(200, 0);
    let config = MrKCenterConfig {
        k: 3,
        ell: 2,
        coreset: CoresetSpec::Multiplier { mu: 1 },
        seed: 1,
    };
    // Every worker tears its artifact; the coordinator reads them in
    // partition order, so the first one it finds is partition 0's.
    match exec_mr_kcenter(
        &points,
        MetricKind::Euclidean,
        &config,
        &faulty_exec("truncate"),
    ) {
        Err(ExecError::BadArtifact {
            partition,
            path,
            reason,
        }) => {
            assert_eq!(partition, 0);
            assert_eq!(
                path.file_name().and_then(|name| name.to_str()),
                Some("coreset-00000.kca")
            );
            assert!(
                reason.contains("truncated"),
                "unexpected reason: {reason:?}"
            )
        }
        other => panic!("expected BadArtifact, got {other:?}"),
    }
}

#[test]
fn hanging_worker_is_killed_at_the_timeout() {
    let points = dataset(150, 0);
    let config = MrKCenterConfig {
        k: 2,
        ell: 2,
        coreset: CoresetSpec::Multiplier { mu: 1 },
        seed: 1,
    };
    let mut exec = faulty_exec("hang");
    exec.timeout = Duration::from_millis(1500);
    let started = std::time::Instant::now();
    let result = exec_mr_kcenter(&points, MetricKind::Euclidean, &config, &exec);
    let elapsed = started.elapsed();
    assert!(
        matches!(result, Err(ExecError::WorkerTimeout { .. })),
        "expected WorkerTimeout, got {result:?}"
    );
    // The coordinator must not wait for the injected hour-long sleep.
    assert!(
        elapsed < Duration::from_secs(30),
        "coordinator took {elapsed:?} to time out"
    );
}

#[test]
fn missing_worker_binary_is_a_spawn_error() {
    let points = dataset(100, 0);
    let config = MrKCenterConfig {
        k: 2,
        ell: 2,
        coreset: CoresetSpec::Multiplier { mu: 1 },
        seed: 1,
    };
    let exec = ExecConfig::new(WorkerCommand::new("/nonexistent/kcenter-worker", &[]));
    assert!(matches!(
        exec_mr_kcenter(&points, MetricKind::Euclidean, &config, &exec),
        Err(ExecError::Spawn { .. })
    ));
}

/// Names of the entries in `dir`, sorted.
fn entries(dir: &std::path::Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

#[test]
fn runs_remove_only_their_own_directory_inside_work_dir() {
    let points = dataset(150, 0);
    let config = MrKCenterConfig {
        k: 2,
        ell: 2,
        coreset: CoresetSpec::Multiplier { mu: 1 },
        seed: 1,
    };
    let dir = std::env::temp_dir().join(format!("kcenter-exec-workdir-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("sentinel.txt"), "the caller's file").unwrap();

    let mut exec = exec_config();
    exec.work_dir = Some(dir.clone());
    exec_mr_kcenter(&points, MetricKind::Euclidean, &config, &exec).unwrap();
    assert_eq!(entries(&dir), ["sentinel.txt"], "success left files behind");

    // A failed run cleans up after itself the same way.
    let mut exec = faulty_exec("truncate");
    exec.work_dir = Some(dir.clone());
    assert!(exec_mr_kcenter(&points, MetricKind::Euclidean, &config, &exec).is_err());
    assert_eq!(entries(&dir), ["sentinel.txt"], "failure left files behind");
    assert_eq!(
        std::fs::read_to_string(dir.join("sentinel.txt")).unwrap(),
        "the caller's file"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_runs_sharing_a_work_dir_stay_bit_identical() {
    let dir = std::env::temp_dir().join(format!("kcenter-exec-shared-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Two runs at once, same ℓ (so the same artifact names inside a run
    // directory), different inputs (so a crossed artifact shows).
    let runs: Vec<_> = [(3000usize, 5u64), (2500, 9)]
        .into_iter()
        .map(|(n, seed)| {
            let dir = dir.clone();
            std::thread::spawn(move || {
                let points = dataset(n, 0);
                let config = MrKCenterConfig {
                    k: 5,
                    ell: 2,
                    coreset: CoresetSpec::Multiplier { mu: 2 },
                    seed,
                };
                let reference = mr_kcenter(&points, &Euclidean, &config).unwrap();
                let mut exec = exec_config();
                exec.work_dir = Some(dir);
                for round in 0..6 {
                    let executed = exec_mr_kcenter(&points, MetricKind::Euclidean, &config, &exec)
                        .unwrap_or_else(|e| panic!("n={n} round {round}: {e}"));
                    assert_points_bit_identical(
                        &executed.clustering.centers,
                        &reference.clustering.centers,
                        &format!("shared work_dir n={n} round {round}"),
                    );
                    assert_eq!(
                        executed.clustering.radius.to_bits(),
                        reference.clustering.radius.to_bits(),
                        "radius bits differ at n={n} round {round}"
                    );
                }
            })
        })
        .collect();
    for run in runs {
        run.join().expect("run thread");
    }
    assert!(entries(&dir).is_empty(), "runs left files behind");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_fleet_reuses_workers_and_stays_bit_identical() {
    let points = dataset(600, 0);
    for procs in [1usize, 4] {
        let config = MrKCenterConfig {
            k: 5,
            ell: procs,
            coreset: CoresetSpec::Multiplier { mu: 3 },
            seed: 11,
        };
        let exec = exec_config();
        let fresh = exec_mr_kcenter(&points, MetricKind::Euclidean, &config, &exec).unwrap();

        let mut fleet = WorkerFleet::from_config(&exec);
        let cold =
            exec_mr_kcenter_on(&mut fleet, &points, MetricKind::Euclidean, &config, &exec).unwrap();
        assert!(
            cold.report.workers_spawned >= 1,
            "cold run must spawn workers"
        );
        let warm =
            exec_mr_kcenter_on(&mut fleet, &points, MetricKind::Euclidean, &config, &exec).unwrap();
        fleet.shutdown();
        assert_eq!(
            warm.report.workers_spawned, 0,
            "warm fleet must reuse its live workers (procs={procs})"
        );
        for run in [&cold, &warm] {
            assert_points_bit_identical(
                &run.clustering.centers,
                &fresh.clustering.centers,
                &format!("fleet reuse procs={procs}"),
            );
            assert_eq!(
                run.clustering.radius.to_bits(),
                fresh.clustering.radius.to_bits()
            );
            assert_eq!(run.report.coreset_sizes, fresh.report.coreset_sizes);
        }
    }
}

#[test]
fn flat_collection_sends_one_job_per_partition_and_matches_bitwise() {
    let points = dataset(600, 0);
    // ell=5 is an odd fan-out; ell=1 a single partition.
    for ell in [5usize, 1] {
        let config = MrKCenterConfig {
            k: 5,
            ell,
            coreset: CoresetSpec::Multiplier { mu: 2 },
            seed: 7,
        };
        let reference = mr_kcenter(&points, &Euclidean, &config).unwrap();
        let executed =
            exec_mr_kcenter(&points, MetricKind::Euclidean, &config, &exec_config()).unwrap();
        assert_eq!(executed.report.merge_jobs, 0);
        assert_eq!(executed.report.workers.len(), ell, "one job per partition");
        assert_points_bit_identical(
            &executed.clustering.centers,
            &reference.clustering.centers,
            &format!("flat collection ell={ell}"),
        );
        assert_eq!(
            executed.clustering.radius.to_bits(),
            reference.clustering.radius.to_bits()
        );
        assert_eq!(executed.report.union_size, reference.union_size);
        assert_eq!(executed.report.coreset_sizes, reference.coreset_sizes);
    }
}

#[test]
fn mid_stream_worker_death_is_contained_by_respawn_and_replay() {
    let points = dataset(600, 0);
    let config = MrKCenterConfig {
        k: 4,
        ell: 3,
        coreset: CoresetSpec::Multiplier { mu: 2 },
        seed: 3,
    };
    let reference = mr_kcenter(&points, &Euclidean, &config).unwrap();
    // Every worker dies mid-stream on its second job without replying;
    // with a single-worker fleet each job is at worst one replay away
    // from a fresh worker, so the run must still succeed.
    let mut exec = faulty_exec("crash-job:2");
    exec.max_workers = Some(1);
    let executed = exec_mr_kcenter(&points, MetricKind::Euclidean, &config, &exec).unwrap();
    assert!(
        executed.report.worker_respawns >= 1,
        "the injected deaths must be visible as respawns"
    );
    assert_points_bit_identical(
        &executed.clustering.centers,
        &reference.clustering.centers,
        "kill-mid-stream",
    );
    assert_eq!(
        executed.clustering.radius.to_bits(),
        reference.clustering.radius.to_bits()
    );

    // A worker that dies on its first job dies on every replay too: once
    // the retry budget is spent, the fault is a clean error, not a hang.
    let mut exec = faulty_exec("crash-job:1");
    exec.max_workers = Some(1);
    match exec_mr_kcenter(&points, MetricKind::Euclidean, &config, &exec) {
        Err(ExecError::WorkerFailed { code, stderr, .. }) => {
            assert_eq!(code, Some(101));
            assert!(stderr.contains("injected crash"), "stderr: {stderr:?}");
        }
        other => panic!("expected WorkerFailed, got {other:?}"),
    }
}

#[test]
fn content_addressed_shards_are_reused_on_rerun() {
    let points = dataset(500, 0);
    let config = MrKCenterConfig {
        k: 4,
        ell: 3,
        coreset: CoresetSpec::Multiplier { mu: 2 },
        seed: 9,
    };
    let plain = exec_mr_kcenter(&points, MetricKind::Euclidean, &config, &exec_config()).unwrap();

    let store_dir = std::env::temp_dir().join(format!("kcenter-exec-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let mut exec = exec_config();
    exec.shard_store = Some(ArtifactStore::open(&store_dir).unwrap());

    let cold = exec_mr_kcenter(&points, MetricKind::Euclidean, &config, &exec).unwrap();
    assert_eq!(cold.report.shard_writes, 3, "cold run writes every shard");
    assert_eq!(cold.report.shard_reuses, 0);

    let warm = exec_mr_kcenter(&points, MetricKind::Euclidean, &config, &exec).unwrap();
    assert_eq!(warm.report.shard_writes, 0, "warm run must not re-shard");
    assert_eq!(warm.report.shard_reuses, 3);

    for run in [&cold, &warm] {
        assert_points_bit_identical(
            &run.clustering.centers,
            &plain.clustering.centers,
            "shard reuse",
        );
        assert_eq!(
            run.clustering.radius.to_bits(),
            plain.clustering.radius.to_bits()
        );
    }

    // Addressing is by shard *content*: flip one coordinate bit and every
    // partition containing it must miss while the others still hit.
    let mut nudged = points.clone();
    nudged[0] = Point::new(vec![-0.0, 0.0]);
    let other = exec_mr_kcenter(&nudged, MetricKind::Euclidean, &config, &exec).unwrap();
    assert_eq!(other.report.shard_writes, 1, "changed partition must miss");
    assert_eq!(
        other.report.shard_reuses, 2,
        "unchanged partitions must hit"
    );

    let _ = std::fs::remove_dir_all(&store_dir);
}

#[test]
fn corrupted_cached_shard_is_resharded_cleanly() {
    let points = dataset(400, 0);
    let config = MrKCenterConfig {
        k: 3,
        ell: 2,
        coreset: CoresetSpec::Multiplier { mu: 2 },
        seed: 13,
    };
    let store_dir =
        std::env::temp_dir().join(format!("kcenter-exec-store-corrupt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let mut exec = exec_config();
    exec.shard_store = Some(ArtifactStore::open(&store_dir).unwrap());

    let cold = exec_mr_kcenter(&points, MetricKind::Euclidean, &config, &exec).unwrap();
    assert_eq!(cold.report.shard_writes, 2);

    // Truncate one cached shard entry behind the store's back.
    let victim = std::fs::read_dir(&store_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| {
            p.file_name()
                .unwrap()
                .to_string_lossy()
                .starts_with("shard-")
        })
        .expect("a cached shard entry");
    let bytes = std::fs::read(&victim).unwrap();
    std::fs::write(&victim, &bytes[..bytes.len() / 2]).unwrap();

    // The corrupt entry is detected, re-stored, and the run stays
    // bit-identical — the cache may change cost, never correctness.
    let healed = exec_mr_kcenter(&points, MetricKind::Euclidean, &config, &exec).unwrap();
    assert_eq!(
        healed.report.shard_writes, 1,
        "only the victim is rewritten"
    );
    assert_eq!(healed.report.shard_reuses, 1);
    assert_points_bit_identical(
        &healed.clustering.centers,
        &cold.clustering.centers,
        "corrupt shard heal",
    );
    assert_eq!(
        healed.clustering.radius.to_bits(),
        cold.clustering.radius.to_bits()
    );

    let warm = exec_mr_kcenter(&points, MetricKind::Euclidean, &config, &exec).unwrap();
    assert_eq!(warm.report.shard_writes, 0, "healed entry serves the rerun");

    let _ = std::fs::remove_dir_all(&store_dir);
}
