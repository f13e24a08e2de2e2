//! Figure 7: scalability with the number of processors of the randomized
//! MapReduce algorithm for k-center with z outliers.
//!
//! Paper setup: the size of the coreset union is fixed at 8·(16k + 6z)
//! (the µ = 8, ℓ = 16 point of Fig. 4) while ℓ varies in {1,2,4,8,16} with
//! per-partition coresets τ_ℓ = 8·(16k+6z)/ℓ, so all runs target the same
//! solution quality. Expected shape: the round-2 time (OutliersCluster on
//! the fixed-size union) is constant; the round-1 (coreset) time dominates
//! at small ℓ and drops *superlinearly* with ℓ, since each processor does
//! O(τ_ℓ · |S|/ℓ) work and τ_ℓ itself shrinks with ℓ.
//!
//! ```text
//! cargo run --release -p kcenter-bench --bin fig7_scaling_procs [-- --paper]
//! ```
//!
//! With `--real-procs`, "processors" stop being simulated: each ℓ value
//! spawns ℓ real worker OS processes through `kcenter-exec` (this binary
//! re-invoked in a hidden `exec-worker` mode) over sharded on-disk
//! inputs, and the table reports per-worker wall clock. Radii are
//! bit-identical to the simulated mode — the executor's determinism
//! guarantee — so the column worth watching is the cost of real process
//! isolation (spawn + shard I/O) against the parallel round-1 win.

use std::time::Duration;

use kcenter_bench::{Args, Dataset, Stats};
use kcenter_core::coreset::CoresetSpec;
use kcenter_core::mapreduce_outliers::{mr_kcenter_outliers, MrOutliersConfig};
use kcenter_data::inject_outliers;
use kcenter_exec::{exec_mr_outliers, ExecConfig, MetricKind, WorkerCommand};
use kcenter_metric::Euclidean;

fn main() {
    // Hidden worker mode: `--real-procs` re-invokes this binary for each
    // round-1 partition.
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("exec-worker") {
        std::process::exit(kcenter_exec::worker_main(raw.into_iter().skip(1)));
    }
    let args = Args::parse();
    if args.real_procs {
        return real_procs_mode(&args);
    }
    let n = args.size(20_000, 200_000);
    let k = 20usize;
    let z = if args.paper { 200 } else { 50 };
    let union_target = 8 * (16 * k + 6 * z);
    let ells: [usize; 5] = [1, 2, 4, 8, 16];

    println!("=== Figure 7: randomized MR outliers — runtime vs processors ===");
    println!(
        "n = {n}, k = {k}, z = {z}, fixed union = {union_target}, reps = {}\n",
        args.reps
    );

    for dataset in Dataset::all() {
        println!("--- {} (k = {k}, z = {z}) ---", dataset.name());
        println!(
            "{:>4} {:>8} {:>8} {:>12} {:>18} {:>18} {:>12}",
            "l", "tau_l", "union", "radius", "coreset time (s)", "cluster time (s)", "speedup"
        );
        let mut reference: Option<f64> = None;
        for &ell in &ells {
            let tau = union_target / ell;
            let mut r1 = Vec::new();
            let mut r2 = Vec::new();
            let mut radii = Vec::new();
            let mut union = 0usize;
            for rep in 0..args.reps {
                let mut points = dataset.generate(n, rep as u64);
                inject_outliers(&mut points, z, 400 + rep as u64);
                let mut config =
                    MrOutliersConfig::randomized(k, z, ell, CoresetSpec::Fixed { tau });
                config.seed = rep as u64;
                let result =
                    mr_kcenter_outliers(&points, &Euclidean, &config).expect("valid configuration");
                r1.push(result.round1_time.as_secs_f64());
                r2.push(result.round2_time.as_secs_f64());
                radii.push(result.clustering.radius);
                union = union.max(result.union_size);
                assert!(result.union_size <= union_target + ell);
            }
            let s1 = Stats::from_samples(&r1);
            let s2 = Stats::from_samples(&r2);
            // Union size and mean radius are seed-deterministic: the
            // fig-golden suite pins them (the premise of the experiment is
            // that quality stays constant while ℓ varies — now visible).
            let mean_radius = Stats::from_samples(&radii).mean;
            let total = s1.mean + s2.mean;
            let speedup = match reference {
                None => {
                    reference = Some(total);
                    1.0
                }
                Some(t1) => t1 / total,
            };
            println!(
                "{ell:>4} {tau:>8} {union:>8} {mean_radius:>12.6} {:>14.2}±{:<3.2} {:>14.2}±{:<3.2} {speedup:>11.1}x",
                s1.mean, s1.ci95, s2.mean, s2.ci95
            );
        }
        println!("(cluster time ≈ constant; coreset time drops superlinearly in l)\n");
    }
    println!(
        "distance matrices built: {}",
        kcenter_metric::matrix_build_count()
    );
}

/// The `--real-procs` variant: ℓ real worker OS processes per run, with
/// per-worker wall-clock accounting next to the usual figure columns.
fn real_procs_mode(args: &Args) {
    let n = args.size(20_000, 200_000);
    let k = 20usize;
    let z = if args.paper { 200 } else { 50 };
    let union_target = 8 * (16 * k + 6 * z);
    let ells: [usize; 5] = [1, 2, 4, 8, 16];
    let worker =
        WorkerCommand::current_exe(&["exec-worker"]).expect("current executable is resolvable");

    println!(
        "=== Figure 7 (real processes): randomized MR outliers — runtime vs worker processes ==="
    );
    println!(
        "n = {n}, k = {k}, z = {z}, fixed union = {union_target}, reps = {}\n",
        args.reps
    );

    for dataset in Dataset::all() {
        println!("--- {} (k = {k}, z = {z}) ---", dataset.name());
        println!(
            "{:>6} {:>8} {:>8} {:>12} {:>14} {:>14} {:>22} {:>12}",
            "procs",
            "tau_l",
            "union",
            "radius",
            "round1 (s)",
            "round2 (s)",
            "worker wall min/max",
            "speedup"
        );
        let mut reference: Option<f64> = None;
        for &ell in &ells {
            let tau = union_target / ell;
            let mut r1 = Vec::new();
            let mut r2 = Vec::new();
            let mut radii = Vec::new();
            let mut union = 0usize;
            let mut worker_min = Duration::MAX;
            let mut worker_max = Duration::ZERO;
            for rep in 0..args.reps {
                let mut points = dataset.generate(n, rep as u64);
                inject_outliers(&mut points, z, 400 + rep as u64);
                let mut config =
                    MrOutliersConfig::randomized(k, z, ell, CoresetSpec::Fixed { tau });
                config.seed = rep as u64;
                let exec = ExecConfig::new(worker.clone());
                let result = exec_mr_outliers(&points, MetricKind::Euclidean, &config, &exec)
                    .expect("multi-process run");
                r1.push(result.report.round1_time.as_secs_f64());
                r2.push(result.report.round2_time.as_secs_f64());
                radii.push(result.clustering.radius);
                union = union.max(result.report.union_size);
                for stat in &result.report.workers {
                    worker_min = worker_min.min(stat.wall);
                    worker_max = worker_max.max(stat.wall);
                }
                assert!(result.report.union_size <= union_target + ell);
            }
            let s1 = Stats::from_samples(&r1);
            let s2 = Stats::from_samples(&r2);
            let mean_radius = Stats::from_samples(&radii).mean;
            let total = s1.mean + s2.mean;
            let speedup = match reference {
                None => {
                    reference = Some(total);
                    1.0
                }
                Some(t1) => t1 / total,
            };
            let wall = format!(
                "{:.1}/{:.1}ms",
                worker_min.as_secs_f64() * 1e3,
                worker_max.as_secs_f64() * 1e3
            );
            println!(
                "{ell:>6} {tau:>8} {union:>8} {mean_radius:>12.6} {:>11.2}±{:<2.2} {:>11.2}±{:<2.2} {wall:>22} {speedup:>11.1}x",
                s1.mean, s1.ci95, s2.mean, s2.ci95,
            );
        }
        println!(
            "(per-worker wall is coordinator-measured spawn->exit: process startup + shard \
             load + build; round1 additionally includes shard writes and collection)\n"
        );
    }
    println!(
        "distance matrices built: {}",
        kcenter_metric::matrix_build_count()
    );
}
