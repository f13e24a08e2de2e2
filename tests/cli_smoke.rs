//! Golden-output smoke test for the `kcenter` CLI, mirroring
//! `examples_smoke.rs`: the binary must run end-to-end and its *output
//! must not drift*. Every algorithm in the workspace is deterministic
//! under a fixed seed and every parallel reduction is chunk-invariant, so
//! the reported radii are pinned to exact strings; a change here means a
//! genuine behaviour change that must be reviewed (and these lines
//! updated deliberately).

use std::path::PathBuf;
use std::process::{Command, Output};

fn run_kcenter(args: &[&str]) -> String {
    let output = kcenter_output(args);
    assert!(
        output.status.success(),
        "kcenter {args:?} exited with {}\n--- stdout ---\n{}\n--- stderr ---\n{}",
        output.status,
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr),
    );
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn kcenter_output(args: &[&str]) -> Output {
    let manifest_dir = env!("CARGO_MANIFEST_DIR");
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    Command::new(&cargo)
        .args([
            "run",
            "--release",
            "-p",
            "kcenter-cli",
            "--bin",
            "kcenter",
            "--",
        ])
        .args(args)
        // The golden pins assume the persistent artifact cache is off; an
        // ambient KCENTER_CACHE_DIR must not leak into the pinned runs.
        .env_remove("KCENTER_CACHE_DIR")
        .current_dir(manifest_dir)
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn kcenter {args:?}: {e}"))
}

fn temp_csv(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("kcenter-cli-smoke");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn generate_cluster_and_outliers_golden_output() {
    let data = temp_csv("smoke_points.csv");
    let data_str = data.to_string_lossy().into_owned();

    // `generate` is seeded: exactly 200 higgs-like points + 3 injected
    // outliers, bit-identical on every run.
    let out = run_kcenter(&[
        "generate",
        "--dataset",
        "higgs",
        "--n",
        "200",
        "--outliers",
        "3",
        "--seed",
        "4",
        "--output",
        &data_str,
    ]);
    assert!(
        out.contains("wrote 203 points (7-dimensional)"),
        "generate drifted:\n{out}"
    );

    // Plain k-center via GMM: deterministic traversal, pinned radius.
    let out = run_kcenter(&[
        "cluster", "--input", &data_str, "--k", "4", "--algo", "gmm", "--seed", "1",
    ]);
    assert!(
        out.contains("loaded 203 points of dimension 7"),
        "load line drifted:\n{out}"
    );
    assert!(
        out.contains("algo = Gmm, k = 4, z = 0"),
        "config line drifted:\n{out}"
    );
    let radius_line = out
        .lines()
        .find(|l| l.starts_with("radius = "))
        .unwrap_or_else(|| panic!("no radius line in:\n{out}"));
    // Golden value: GMM on the seeded dataset under the default z-score
    // normalization (which compresses the planted outliers).
    assert!(
        radius_line.starts_with("radius = 0.374312"),
        "GMM radius drifted: {radius_line}"
    );

    // Outliers via the Charikar baseline (z = 3 discards the planted
    // outliers): deterministic binary search, pinned cluster-scale radius.
    let out = run_kcenter(&[
        "cluster", "--input", &data_str, "--k", "4", "--z", "3", "--algo", "charikar", "--seed",
        "1",
    ]);
    assert!(
        out.contains("algo = Charikar, k = 4, z = 3"),
        "config line drifted:\n{out}"
    );
    let radius_line = out
        .lines()
        .find(|l| l.starts_with("radius = "))
        .unwrap_or_else(|| panic!("no radius line in:\n{out}"));
    assert!(
        radius_line.starts_with("radius = "),
        "no radius: {radius_line}"
    );
    let value: f64 = radius_line
        .trim_start_matches("radius = ")
        .split_whitespace()
        .next()
        .unwrap()
        .parse()
        .unwrap();
    assert!(
        value < 0.374312,
        "Charikar with z = 3 should beat the plain-GMM radius: {radius_line}"
    );
    // Pin the exact golden radius (updated deliberately on real changes).
    assert!(
        radius_line.starts_with("radius = 0.265906"),
        "Charikar radius drifted: {radius_line}"
    );
}

/// `--k 0` is a usage error (exit 2) for every algorithm, with or without
/// outliers — never a panic inside the algorithm.
#[test]
fn k_zero_is_a_usage_error_for_every_algorithm() {
    let data = temp_csv("k_zero_points.csv");
    let data_str = data.to_string_lossy().into_owned();
    run_kcenter(&[
        "generate",
        "--dataset",
        "higgs",
        "--n",
        "50",
        "--seed",
        "2",
        "--output",
        &data_str,
    ]);
    for algo in [
        "gmm",
        "mr",
        "mr-outliers",
        "mr-randomized",
        "seq",
        "stream",
        "charikar",
    ] {
        for extra in [&[][..], &["--z", "10"][..]] {
            let mut args = vec!["cluster", "--input", &data_str, "--k", "0", "--algo", algo];
            args.extend_from_slice(extra);
            let output = kcenter_output(&args);
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert_eq!(
                output.status.code(),
                Some(2),
                "kcenter {args:?} exited with {}\n{stderr}",
                output.status
            );
            assert!(
                !stderr.contains("panicked"),
                "kcenter {args:?} panicked:\n{stderr}"
            );
            assert!(
                stderr.contains("--k must be at least 1"),
                "kcenter {args:?} gave no reason:\n{stderr}"
            );
        }
    }
}
