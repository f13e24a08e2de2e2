//! Figure 4: MapReduce k-center with z outliers — approximation ratio (top)
//! and running time (bottom) for the deterministic vs randomized variants.
//!
//! Paper setup: k = 20, z = 200, ℓ = 16, coresets µ(k+z) (deterministic) /
//! µ(k + 6z/ℓ) (randomized), µ ∈ {1,2,4,8}; outliers injected at 100·r_MEB
//! and partitioned *adversarially* (all in one partition). µ = 1
//! deterministic is the MalkomesEtAl baseline. Expected shape: µ = 1
//! deterministic is bad (outliers crowd out the coreset), randomized is
//! robust at all µ and much cheaper; quality improves with µ.
//!
//! ```text
//! cargo run --release -p kcenter-bench --bin fig4_mr_outliers [-- --paper]
//! ```

use std::time::Instant;

use kcenter_bench::{Args, Dataset, RatioTable, Stats};
use kcenter_core::coreset::CoresetSpec;
use kcenter_core::mapreduce_outliers::{mr_kcenter_outliers, MrOutliersConfig, MrPartitioning};
use kcenter_data::inject_outliers;
use kcenter_metric::Euclidean;

fn main() {
    let args = Args::parse();
    let n = args.size(20_000, 200_000);
    let (k, ell) = (20usize, 16usize);
    let z = if args.paper { 200 } else { 50 };
    let mus = [1usize, 2, 4, 8];

    println!(
        "=== Figure 4: MR k-center with outliers — det vs randomized, adversarial partition ==="
    );
    println!(
        "n = {n}, k = {k}, z = {z}, l = {ell}, reps = {}\n",
        args.reps
    );

    for dataset in Dataset::all() {
        let mut table = RatioTable::new();
        let mut times: std::collections::BTreeMap<(String, String), Vec<f64>> = Default::default();
        for rep in 0..args.reps {
            let mut points = dataset.generate(n, rep as u64);
            // The paper's MR experiments consume the datasets in file order,
            // which is spatially correlated — chunked partitions hold
            // *distinct* regions, so a partition whose coreset is crowded
            // out by outliers loses representation the other partitions do
            // not replace. Emulate that correlated order by sorting along
            // the first coordinate before injecting the outliers.
            points.sort_by(|a, b| a[0].partial_cmp(&b[0]).expect("finite coords"));
            let report = inject_outliers(&mut points, z, 7_000 + rep as u64);
            for &mu in &mus {
                // Deterministic, adversarial partitioning.
                let mut det =
                    MrOutliersConfig::deterministic(k, z, ell, CoresetSpec::Multiplier { mu });
                det.partitioning = MrPartitioning::Adversarial {
                    special: report.outlier_indices.clone(),
                };
                det.seed = rep as u64;
                let start = Instant::now();
                let result =
                    mr_kcenter_outliers(&points, &Euclidean, &det).expect("valid configuration");
                let elapsed = start.elapsed().as_secs_f64();
                table.record(
                    "deterministic",
                    &format!("mu={mu}"),
                    result.clustering.radius,
                );
                times
                    .entry(("deterministic".into(), format!("mu={mu}")))
                    .or_default()
                    .push(elapsed);

                // Randomized: random partition, coreset base k + 6z/l.
                let mut rand =
                    MrOutliersConfig::randomized(k, z, ell, CoresetSpec::Multiplier { mu });
                rand.seed = rep as u64;
                let start = Instant::now();
                let result =
                    mr_kcenter_outliers(&points, &Euclidean, &rand).expect("valid configuration");
                let elapsed = start.elapsed().as_secs_f64();
                table.record("randomized", &format!("mu={mu}"), result.clustering.radius);
                times
                    .entry(("randomized".into(), format!("mu={mu}")))
                    .or_default()
                    .push(elapsed);
            }
        }
        println!("--- {} (k = {k}, z = {z}) ---", dataset.name());
        let xs: Vec<String> = mus.iter().map(|m| format!("mu={m}")).collect();
        let series = vec!["deterministic".to_string(), "randomized".to_string()];
        println!("approximation ratio (deterministic mu=1 ≡ MalkomesEtAl):");
        table.print("variant \\ coreset", &xs, &series);
        println!("running time (s):");
        print!("{:<24}", "variant \\ coreset");
        for x in &xs {
            print!(" {x:>14}");
        }
        println!();
        for s in &series {
            print!("{s:<24}");
            for x in &xs {
                let stats = Stats::from_samples(&times[&(s.clone(), x.clone())]);
                print!(" {:>14.2}", stats.mean);
            }
            println!();
        }
        println!("best radius found: {:.4}\n", table.best_radius());
    }
    // One matrix per radius search, never more: sweeps that re-search a
    // shared coreset reuse its CachedOracle matrix (pinned by fig_golden).
    println!(
        "distance matrices built: {}",
        kcenter_metric::matrix_build_count()
    );
}
