//! Golden-output pins for the figure binaries, extending the
//! `cli_smoke.rs` approach to the experiment sweeps: `fig4_mr_outliers`
//! and `fig7_scaling_procs` run end-to-end on a small fixed-seed
//! configuration and their *deterministic* sections (approximation-ratio
//! tables, union sizes, radii, matrix-build accounting — everything
//! except wall-clock columns) are pinned to exact strings.
//!
//! Each binary additionally runs under `RAYON_NUM_THREADS=1` and `=4` and
//! the two outputs must match bit-for-bit — the determinism proof for the
//! rayon shim's steal-feedback adaptive splitter: steals (and therefore
//! chunk layouts) differ between the runs, the reported numbers may not.
//! The CI workflow runs this suite at both thread counts on every push.

use std::process::Command;

/// Runs a kcenter-bench binary with the given args, thread count, and
/// extra environment, returning stdout.
fn run_fig_env(bin: &str, args: &[&str], threads: &str, env: &[(&str, &str)]) -> String {
    let manifest_dir = env!("CARGO_MANIFEST_DIR");
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let mut command = Command::new(&cargo);
    command
        .args([
            "run",
            "--release",
            "-q",
            "-p",
            "kcenter-bench",
            "--bin",
            bin,
            "--",
        ])
        .args(args)
        .env("RAYON_NUM_THREADS", threads)
        // An ambient trace file must not be clobbered by golden runs (the
        // trace-invariance test opts back in explicitly).
        .env_remove(kcenter_obs::TRACE_ENV)
        .current_dir(manifest_dir);
    for (key, value) in env {
        command.env(key, value);
    }
    let output = command
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn {bin}: {e}"));
    assert!(
        output.status.success(),
        "{bin} exited with {}\n--- stdout ---\n{}\n--- stderr ---\n{}",
        output.status,
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr),
    );
    String::from_utf8_lossy(&output.stdout).into_owned()
}

/// Runs a kcenter-bench binary with the given args and thread count,
/// returning stdout.
fn run_fig(bin: &str, args: &[&str], threads: &str) -> String {
    run_fig_env(bin, args, threads, &[])
}

/// Collapses runs of whitespace so pins do not depend on column padding.
fn normalize(line: &str) -> String {
    line.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// The deterministic subset of fig4's output: dataset headers, the
/// approximation-ratio rows (the only rows containing `±`), the best-radius
/// lines, and the matrix-build accounting. Running-time rows are dropped.
fn fig4_deterministic(out: &str) -> Vec<String> {
    out.lines()
        .filter(|l| {
            l.starts_with("---")
                || l.contains('±')
                || l.starts_with("best radius found:")
                || l.starts_with("distance matrices built:")
        })
        .map(normalize)
        .collect()
}

/// The deterministic subset of fig7's output: dataset headers plus the
/// first four columns of every table row (`l`, `τ_ℓ`, union size, radius)
/// and the matrix-build accounting; time and speedup columns are dropped.
fn fig7_deterministic(out: &str) -> Vec<String> {
    out.lines()
        .filter_map(|l| {
            if l.starts_with("---") || l.starts_with("distance matrices built:") {
                return Some(normalize(l));
            }
            let fields: Vec<&str> = l.split_whitespace().collect();
            // Table rows start with the processor count ℓ.
            if fields.len() >= 4 && fields[0].parse::<usize>().is_ok() {
                return Some(fields[..4].join(" "));
            }
            None
        })
        .collect()
}

const FIG_ARGS: &[&str] = &["--n", "400", "--reps", "1"];

#[test]
fn fig4_golden_output_is_pinned_and_thread_invariant() {
    let single = run_fig("fig4_mr_outliers", FIG_ARGS, "1");
    let multi = run_fig("fig4_mr_outliers", FIG_ARGS, "4");
    let got = fig4_deterministic(&single);
    assert_eq!(
        got,
        fig4_deterministic(&multi),
        "fig4 output must be bit-identical at 1 and 4 threads"
    );

    let expected: Vec<String> = "\
--- Higgs (k = 20, z = 50) ---
deterministic 1.004±0.000 1.004±0.000 1.004±0.000 1.004±0.000
randomized 1.000±0.000 1.000±0.000 1.000±0.000 1.000±0.000
best radius found: 16.0798
--- Power (k = 20, z = 50) ---
deterministic 1.000±0.000 1.000±0.000 1.000±0.000 1.000±0.000
randomized 1.000±0.000 1.000±0.000 1.000±0.000 1.000±0.000
best radius found: 39.3459
--- Wiki (k = 20, z = 50) ---
deterministic 1.022±0.000 1.022±0.000 1.022±0.000 1.022±0.000
randomized 1.000±0.000 1.000±0.000 1.000±0.000 1.000±0.000
best radius found: 28.3208
distance matrices built: 24"
        .lines()
        .map(String::from)
        .collect();
    assert_eq!(
        got, expected,
        "fig4 golden output drifted (update deliberately on real changes):\n{single}"
    );
}

#[test]
fn fig7_golden_output_is_pinned_and_thread_invariant() {
    let single = run_fig("fig7_scaling_procs", FIG_ARGS, "1");
    let multi = run_fig("fig7_scaling_procs", FIG_ARGS, "4");
    let got = fig7_deterministic(&single);
    assert_eq!(
        got,
        fig7_deterministic(&multi),
        "fig7 output must be bit-identical at 1 and 4 threads"
    );

    let expected: Vec<String> = "\
--- Higgs (k = 20, z = 50) ---
1 4960 450 16.174672
2 2480 450 16.028061
4 1240 450 16.048267
8 620 450 15.874394
16 310 450 15.874394
--- Power (k = 20, z = 50) ---
1 4960 450 39.559463
2 2480 450 40.384649
4 1240 450 39.276391
8 620 450 39.313806
16 310 450 39.300589
--- Wiki (k = 20, z = 50) ---
1 4960 450 28.929857
2 2480 450 28.959500
4 1240 450 28.290871
8 620 450 28.618784
16 310 450 27.867000
distance matrices built: 15"
        .lines()
        .map(String::from)
        .collect();
    assert_eq!(
        got, expected,
        "fig7 golden output drifted (update deliberately on real changes):\n{single}"
    );
}

/// Tracing must be invisible to the golden contract: the same seeded
/// run with `KCENTER_TRACE` set writes all trace bytes to the named
/// file and **none** to stdout, so its stdout is byte-identical to an
/// untraced run. `--deterministic` blanks the wall-clock columns, so
/// the comparison really is every byte.
#[test]
fn ablation_stdout_is_byte_identical_with_tracing_enabled() {
    let args: &[&str] = &["--n", "800", "--deterministic"];
    let trace =
        std::env::temp_dir().join(format!("kcenter-fig-trace-{}.jsonl", std::process::id()));
    let trace_str = trace.to_str().expect("utf8 trace path");

    let plain_out = run_fig_env("ablation_radius_search", args, "1", &[]);
    let traced_out = run_fig_env(
        "ablation_radius_search",
        args,
        "1",
        &[(kcenter_obs::TRACE_ENV, trace_str)],
    );
    assert_eq!(
        plain_out, traced_out,
        "enabling the trace sink must not change a single stdout byte"
    );

    // The sink really was live: the file opens with the schema meta
    // record, and every line is valid JSON.
    let text = std::fs::read_to_string(&trace).expect("trace file written");
    let first = text.lines().next().expect("meta record");
    let meta = kcenter_obs::json::parse(first).expect("meta record parses");
    assert_eq!(
        meta.get("schema").and_then(kcenter_obs::json::Json::as_str),
        Some(kcenter_obs::TRACE_SCHEMA)
    );
    for line in text.lines() {
        kcenter_obs::json::parse(line).unwrap_or_else(|e| panic!("bad trace line {line:?}: {e}"));
    }
    let _ = std::fs::remove_file(&trace);
}
