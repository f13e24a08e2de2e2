//! Ablation: geometric-grid vs exact-candidates radius search.
//!
//! The paper's binary search runs over all O(|T|²) pairwise distances
//! (avoiding their storage via streaming selection); our default walks a
//! (1+δ) geometric grid instead. This ablation measures, on identical
//! coresets: the radius each mode returns, the number of OutliersCluster
//! evaluations, and the wall-clock time — demonstrating both modes land
//! within the (1+δ) tolerance while the grid never materializes the
//! quadratic candidate set.
//!
//! Pass `--deterministic` to blank the wall-clock columns so stdout is
//! exactly diffable (`tests/fig_golden.rs` diffs it with tracing on and
//! off).
//!
//! ```text
//! cargo run --release -p kcenter-bench --bin ablation_radius_search
//! ```

use kcenter_bench::{Args, Dataset};
use kcenter_core::coreset::{build_weighted_coreset, CoresetSpec};
use kcenter_core::outliers_cluster::CmpMatrixRef;
use kcenter_core::radius_search::{find_min_feasible_radius, SearchMode};
use kcenter_data::{inject_outliers, shuffled};
use kcenter_metric::{CachedOracle, Euclidean, Point};

fn main() {
    let args = Args::parse();
    let n = args.size(20_000, 100_000);
    let (k, z, eps_hat) = (20usize, 50usize, 0.25f64);
    // Wall-clock formatting: real durations by default, a fixed-width "-"
    // under --deterministic so repeated runs print identical bytes.
    let fmt_time = |d: std::time::Duration| {
        if args.deterministic {
            "   -".to_string()
        } else {
            format!("{d:>4.0?}")
        }
    };

    println!("=== Ablation: radius search — geometric grid vs exact candidates ===");
    println!("n = {n}, k = {k}, z = {z}, eps_hat = {eps_hat}\n");
    println!(
        "{:<8} {:<10} {:>8} {:>10} {:>8} {:>10} {:>10}",
        "dataset", "coreset", "r_grid", "evals", "r_exact", "evals", "agree"
    );

    for dataset in Dataset::all() {
        for mu in [2usize, 8] {
            let mut points = dataset.generate(n, 1);
            inject_outliers(&mut points, z, 2);
            let points = shuffled(&points, 3);
            let build = build_weighted_coreset(
                &points,
                &Euclidean,
                k + z,
                &CoresetSpec::Multiplier { mu },
                0,
            );
            let coreset_points = build.coreset.points_only();
            let coreset_len = coreset_points.len();
            let weights = build.coreset.weights();
            // One shared oracle for both search modes: the coreset is
            // priced into a proxy matrix once, *before* the timers start
            // (this ablation compares search strategies, so neither mode
            // may be charged the one-time build), and both searches read
            // the resolved view with no per-lookup cache branch.
            let oracle = CachedOracle::new(coreset_points, &Euclidean, usize::MAX);
            let view = CmpMatrixRef::<Point, Euclidean>::new(
                oracle.matrix().expect("threshold is unbounded"),
                oracle.metric(),
            );
            assert_eq!(
                oracle.build_count(),
                1,
                "both modes must share one matrix, built once"
            );

            // Each search is timed as a `bench.ablation.search` span, so a
            // KCENTER_TRACE run records one span per mode and coreset.
            let search = |mode: SearchMode| {
                let mut span = kcenter_obs::span("bench.ablation.search")
                    .field("dataset", dataset.name())
                    .field("mu", mu)
                    .field("mode", format!("{mode:?}"));
                let result = find_min_feasible_radius(&view, &weights, k, z as u64, eps_hat, mode);
                span.add_field("evaluations", result.evaluations);
                (result, span.finish())
            };
            let (grid, grid_time) = search(SearchMode::GeometricGrid);
            let (exact, exact_time) = search(SearchMode::ExactCandidates);
            assert_eq!(oracle.build_count(), 1, "a search must never rebuild");

            let delta = eps_hat / (3.0 + 4.0 * eps_hat);
            let agree = grid.radius <= exact.radius * (1.0 + delta) * (1.0 + delta);
            println!(
                "{:<8} {:<10} {:>8.3} {:>6} ({}) {:>8.3} {:>6} ({}) {:>6}",
                dataset.name(),
                format!("mu={mu} ({coreset_len})"),
                grid.radius,
                grid.evaluations,
                fmt_time(grid_time),
                exact.radius,
                exact.evaluations,
                fmt_time(exact_time),
                if agree { "yes" } else { "NO" },
            );
        }
    }
    println!("\n(agree = grid radius within (1+δ)² of exact; both verified feasible)");
}
