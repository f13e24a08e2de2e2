//! Cross-backend parity: the worker fleet and the in-process engine run
//! the same `kcenter-core` algorithms, so every answer must match bit for
//! bit — under every metric the executor can name, with empty partitions,
//! adversarial partitioning, the `EpsStop` coreset rule and the randomized
//! variant.

use std::time::Duration;

use kcenter_core::coreset::CoresetSpec;
use kcenter_core::mapreduce_kcenter::{mr_kcenter, MrKCenterConfig};
use kcenter_core::mapreduce_outliers::{
    mr_kcenter_outliers, MrOutliersConfig, MrOutliersResult, MrPartitioning,
};
use kcenter_exec::{
    exec_mr_kcenter_on, exec_mr_outliers_on, with_metric, ExecConfig, ExecOutliersResult,
    MetricKind, WorkerCommand, WorkerFleet,
};
use kcenter_mapreduce::{Chunked, Partitioner};
use kcenter_metric::Point;

fn exec_config() -> ExecConfig {
    let mut config = ExecConfig::new(WorkerCommand::new(
        env!("CARGO_BIN_EXE_kcenter-exec-worker"),
        &[],
    ));
    config.timeout = Duration::from_secs(120);
    config
}

/// `n` points on a skewed 3-d grid away from the origin (so every
/// angular distance is defined), then `outliers` far points.
fn dataset(n: usize, outliers: usize) -> Vec<Point> {
    let mut points: Vec<Point> = (0..n)
        .map(|i| {
            Point::new(vec![
                1.0 + (i % 23) as f64 * 1.5,
                2.0 + (i / 23) as f64 * 0.75,
                0.5 + (i % 5) as f64 * 0.1,
            ])
        })
        .collect();
    for j in 0..outliers {
        points.push(Point::new(vec![
            -40_000.0 + 3_000.0 * j as f64,
            25_000.0 - 1_000.0 * j as f64,
            9_000.0 * (j % 2) as f64 + 1.0,
        ]));
    }
    points
}

fn bits(points: &[Point]) -> Vec<Vec<u64>> {
    points
        .iter()
        .map(|p| p.coords().iter().map(|c| c.to_bits()).collect())
        .collect()
}

fn assert_outliers_parity(
    fleet: &ExecOutliersResult,
    engine: &MrOutliersResult<Point>,
    what: &str,
) {
    assert_eq!(
        bits(&fleet.clustering.centers),
        bits(&engine.clustering.centers),
        "{what}: centers"
    );
    assert_eq!(
        fleet.clustering.radius.to_bits(),
        engine.clustering.radius.to_bits(),
        "{what}: radius"
    );
    assert_eq!(
        fleet.r_min.to_bits(),
        engine.r_min.to_bits(),
        "{what}: r_min"
    );
    assert_eq!(
        fleet.uncovered_weight, engine.uncovered_weight,
        "{what}: uncovered weight"
    );
    assert_eq!(fleet.base, engine.base, "{what}: base");
    assert_eq!(
        fleet.report.coreset_sizes, engine.coreset_sizes,
        "{what}: coreset sizes"
    );
    assert_eq!(
        fleet.report.union_size, engine.union_size,
        "{what}: union size"
    );
    assert_eq!(
        fleet.search_evaluations, engine.search_evaluations,
        "{what}: search evaluations"
    );
}

/// ℓ > n: `Chunked` leaves partitions empty. The fleet dispatches only
/// the non-empty ones, under their own partition ids, and still answers
/// like the engine, whose shuffle never sees an empty key.
#[test]
fn kcenter_with_empty_partitions_matches_in_process() {
    let points = dataset(10, 0);
    let config = MrKCenterConfig {
        k: 2,
        ell: 13,
        coreset: CoresetSpec::Multiplier { mu: 2 },
        seed: 5,
    };
    let mut nonempty: Vec<usize> = (0..points.len())
        .map(|i| Chunked.assign(i, points.len(), config.ell))
        .collect();
    nonempty.dedup();
    assert!(nonempty.len() < config.ell, "some partitions must be empty");
    let exec = exec_config();
    let mut fleet = WorkerFleet::from_config(&exec);
    for kind in MetricKind::ALL {
        let what = format!("kcenter ell>n {}", kind.name());
        let engine = with_metric!(kind, m => mr_kcenter(&points, m, &config)).unwrap();
        let fleet_run = exec_mr_kcenter_on(&mut fleet, &points, kind, &config, &exec).unwrap();
        assert_eq!(
            bits(&fleet_run.clustering.centers),
            bits(&engine.clustering.centers),
            "{what}: centers"
        );
        assert_eq!(
            fleet_run.clustering.radius.to_bits(),
            engine.clustering.radius.to_bits(),
            "{what}: radius"
        );
        assert_eq!(
            fleet_run.report.coreset_sizes, engine.coreset_sizes,
            "{what}: coreset sizes"
        );
        assert_eq!(
            fleet_run.report.union_size, engine.union_size,
            "{what}: union size"
        );
        let partitions: Vec<usize> = fleet_run
            .report
            .workers
            .iter()
            .map(|w| w.partition)
            .collect();
        assert_eq!(partitions, nonempty, "{what}: partition ids");
    }
    fleet.shutdown();
}

#[test]
fn adversarial_eps_stop_outliers_match_in_process() {
    let n = 300;
    let z = 5;
    let points = dataset(n, z);
    let mut config = MrOutliersConfig::deterministic(3, z, 4, CoresetSpec::EpsStop { eps: 0.5 });
    config.partitioning = MrPartitioning::Adversarial {
        special: (n..n + z).collect(),
    };
    config.seed = 17;
    let exec = exec_config();
    let mut fleet = WorkerFleet::from_config(&exec);
    for kind in MetricKind::ALL {
        let engine = with_metric!(kind, m => mr_kcenter_outliers(&points, m, &config)).unwrap();
        let fleet_run = exec_mr_outliers_on(&mut fleet, &points, kind, &config, &exec).unwrap();
        assert_outliers_parity(
            &fleet_run,
            &engine,
            &format!("adversarial eps-stop {}", kind.name()),
        );
    }
    fleet.shutdown();
}

#[test]
fn randomized_outliers_match_in_process() {
    let points = dataset(400, 6);
    let mut config = MrOutliersConfig::randomized(3, 6, 4, CoresetSpec::Multiplier { mu: 2 });
    config.seed = 29;
    let exec = exec_config();
    let mut fleet = WorkerFleet::from_config(&exec);
    for kind in MetricKind::ALL {
        let engine = with_metric!(kind, m => mr_kcenter_outliers(&points, m, &config)).unwrap();
        let fleet_run = exec_mr_outliers_on(&mut fleet, &points, kind, &config, &exec).unwrap();
        assert_outliers_parity(&fleet_run, &engine, &format!("randomized {}", kind.name()));
    }
    fleet.shutdown();
}
