//! Trace-schema suite: drives the real `kcenter` binary over a real
//! 4-process fleet run with `--trace` and validates the written JSONL
//! stream against the normative `kcenter-trace/v1` schema
//! (docs/PROTOCOL.md §8) — every record parses, spans nest under their
//! parents, and the merged worker spans carry per-partition attribution.
//!
//! The same run is also the trace half of the determinism contract: the
//! traced run's results (radius line, centers bytes) must be identical
//! to an untraced run of the same seeded input, because all trace bytes
//! go to the trace file and none to stdout.

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::Command;

use kcenter_obs::json::{parse, Json};

fn run_kcenter(args: &[&str]) -> String {
    let manifest_dir = env!("CARGO_MANIFEST_DIR");
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let output = Command::new(&cargo)
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
        .env_remove("KCENTER_CACHE_DIR")
        // The flag, not the environment, must control tracing here.
        .env_remove(kcenter_obs::TRACE_ENV)
        .current_dir(manifest_dir)
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn kcenter {args:?}: {e}"));
    assert!(
        output.status.success(),
        "kcenter {args:?} exited with {}\n--- stdout ---\n{}\n--- stderr ---\n{}",
        output.status,
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr),
    );
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("kcenter-trace-schema");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}", std::process::id()))
}

fn radius_line(stdout: &str) -> String {
    let line = stdout
        .lines()
        .find(|l| l.starts_with("radius = "))
        .unwrap_or_else(|| panic!("no radius line in:\n{stdout}"));
    line.split(", time =")
        .next()
        .expect("split yields at least one piece")
        .to_string()
}

/// One parsed span record.
struct SpanRec {
    id: u64,
    parent: Option<u64>,
    name: String,
    worker: Option<u64>,
    start_us: u64,
}

fn spans_of(text: &str) -> Vec<SpanRec> {
    text.lines()
        .map(|line| parse(line).unwrap_or_else(|e| panic!("bad trace line {line:?}: {e}")))
        .filter(|rec| rec.get("type").and_then(Json::as_str) == Some("span"))
        .map(|rec| SpanRec {
            id: rec.get("id").and_then(Json::as_u64).expect("span id"),
            parent: rec.get("parent").and_then(Json::as_u64),
            name: rec
                .get("name")
                .and_then(Json::as_str)
                .expect("span name")
                .to_string(),
            worker: rec.get("worker").and_then(Json::as_u64),
            start_us: rec
                .get("start_us")
                .and_then(Json::as_u64)
                .expect("span start_us"),
        })
        .collect()
}

/// The end-to-end schema pin: a `--procs 4 --trace` fleet run yields one
/// merged timeline — round spans nested under the CLI span, one
/// worker-attributed `exec.worker.coreset` span per partition parented
/// to round 1 — and enabling the trace changes no result byte.
#[test]
fn procs4_trace_is_schema_valid_and_result_invariant() {
    let data = temp_path("dataset.csv");
    let data_str = data.to_string_lossy().into_owned();
    run_kcenter(&[
        "generate",
        "--dataset",
        "power",
        "--n",
        "400",
        "--outliers",
        "4",
        "--seed",
        "4",
        "--output",
        &data_str,
    ]);

    let trace = temp_path("fleet.jsonl");
    let trace_str = trace.to_string_lossy().into_owned();
    let plain_centers = temp_path("centers-plain.csv");
    let traced_centers = temp_path("centers-traced.csv");
    let plain_centers_str = plain_centers.to_string_lossy().into_owned();
    let traced_centers_str = traced_centers.to_string_lossy().into_owned();

    let common = [
        "cluster",
        "--input",
        &data_str,
        "--k",
        "3",
        "--z",
        "4",
        "--algo",
        "mr-outliers",
        "--procs",
        "4",
        "--mu",
        "2",
        "--seed",
        "7",
        "--cache-dir",
        "",
    ];
    let mut plain_args = common.to_vec();
    plain_args.extend(["--output", &plain_centers_str]);
    let plain_out = run_kcenter(&plain_args);

    let mut traced_args = common.to_vec();
    traced_args.extend(["--output", &traced_centers_str, "--trace", &trace_str]);
    let traced_out = run_kcenter(&traced_args);

    // Tracing must not move a single result byte.
    assert_eq!(
        radius_line(&plain_out),
        radius_line(&traced_out),
        "tracing changed the reported radius"
    );
    let plain_bytes = std::fs::read(&plain_centers).unwrap();
    let traced_bytes = std::fs::read(&traced_centers).unwrap();
    assert!(!plain_bytes.is_empty());
    assert_eq!(
        plain_bytes, traced_bytes,
        "tracing changed the centers bytes"
    );

    // Schema: the first record is the meta line announcing the version…
    let text = std::fs::read_to_string(&trace).expect("trace file written");
    let meta = parse(text.lines().next().expect("meta record")).expect("meta parses");
    assert_eq!(meta.get("type").and_then(Json::as_str), Some("meta"));
    assert_eq!(
        meta.get("schema").and_then(Json::as_str),
        Some(kcenter_obs::TRACE_SCHEMA)
    );
    assert!(meta.get("pid").and_then(Json::as_u64).is_some());

    // …and every following line parses into a span/event record.
    for line in text.lines().skip(1) {
        let rec = parse(line).unwrap_or_else(|e| panic!("bad trace line {line:?}: {e}"));
        let ty = rec.get("type").and_then(Json::as_str);
        assert!(
            ty == Some("span") || ty == Some("event"),
            "unknown record type in {line:?}"
        );
    }

    let spans = spans_of(&text);
    let by_id: HashMap<u64, &SpanRec> = spans.iter().map(|s| (s.id, s)).collect();
    let find = |name: &str| -> &SpanRec {
        spans
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("no {name} span in trace"))
    };

    // The run timeline: round spans nest under the CLI root span.
    let root = find("cli.cluster");
    let round1 = find("exec.round1");
    let round2 = find("exec.round2");
    assert_eq!(root.parent, None, "cli.cluster must be the root span");
    assert_eq!(round1.parent, Some(root.id));
    assert_eq!(round2.parent, Some(root.id));

    // Merged worker spans: one coreset job per partition, attributed to
    // its worker and parented to round 1, started within it.
    let coreset: Vec<&SpanRec> = spans
        .iter()
        .filter(|s| s.name == "exec.worker.coreset")
        .collect();
    assert_eq!(coreset.len(), 4, "one coreset span per partition");
    let mut workers: Vec<u64> = coreset
        .iter()
        .map(|s| s.worker.expect("worker id"))
        .collect();
    workers.sort_unstable();
    assert_eq!(workers, vec![0, 1, 2, 3], "partition attribution");
    for span in &coreset {
        assert_eq!(span.parent, Some(round1.id), "coreset parents to round 1");
        assert!(span.start_us >= round1.start_us, "child starts in parent");
    }
    // The reduction tree ran on the workers too (ell - 1 merges),
    // parented to the same round.
    let merges = spans
        .iter()
        .filter(|s| s.name == "exec.worker.merge")
        .count();
    assert_eq!(merges, 3, "ell - 1 merge jobs for ell = 4");

    // Every parent link resolves within the file.
    for span in &spans {
        if let Some(parent) = span.parent {
            let parent = by_id
                .get(&parent)
                .unwrap_or_else(|| panic!("{} has dangling parent {parent}", span.name));
            assert!(
                span.start_us >= parent.start_us,
                "{} starts before its parent {}",
                span.name,
                parent.name
            );
        }
    }
}

/// `--report json` renders the run report plus the metrics-registry
/// snapshot as one parsable JSON object, with the round histograms the
/// spans fed visibly nonzero and the workers' round-1 GMM counters
/// forwarded.
#[test]
fn report_json_carries_the_metrics_snapshot() {
    let data = temp_path("dataset-report.csv");
    let data_str = data.to_string_lossy().into_owned();
    // Clustered 7-d input large enough for GMM to prune: 1,000 points and
    // τ = µ·k = 80 centers per partition.
    let (n, k, mu) = (2000u64, 20u64, 4u64);
    run_kcenter(&[
        "generate",
        "--dataset",
        "power",
        "--n",
        &n.to_string(),
        "--seed",
        "5",
        "--output",
        &data_str,
    ]);
    let out = run_kcenter(&[
        "cluster",
        "--input",
        &data_str,
        "--k",
        &k.to_string(),
        "--mu",
        &mu.to_string(),
        "--algo",
        "mr",
        "--procs",
        "2",
        "--cache-dir",
        "",
        "--report",
        "json",
    ]);
    let line = out
        .lines()
        .find(|l| l.starts_with('{'))
        .unwrap_or_else(|| panic!("no JSON report line in:\n{out}"));
    let report = parse(line).unwrap_or_else(|e| panic!("report does not parse: {e}\n{line}"));
    assert_eq!(
        report.get("schema").and_then(Json::as_str),
        Some("kcenter-report/v1")
    );
    assert_eq!(report.get("algo").and_then(Json::as_str), Some("mr"));
    assert!(report.get("radius").and_then(Json::as_f64).is_some());
    let metrics = report.get("metrics").expect("metrics snapshot");
    assert_eq!(
        metrics.get("schema").and_then(Json::as_str),
        Some("kcenter-metrics/v1")
    );
    let entries = metrics
        .get("metrics")
        .and_then(Json::as_array)
        .expect("metrics array");
    let find = |name: &str| -> &Json {
        entries
            .iter()
            .find(|m| m.get("name").and_then(Json::as_str) == Some(name))
            .unwrap_or_else(|| panic!("no {name} metric in report"))
    };
    // The fleet ran: the round span histograms observed one round each,
    // and the job counters saw one coreset job per partition.
    for histogram in ["exec.round1.micros", "exec.round2.micros"] {
        let count = find(histogram)
            .get("count")
            .and_then(Json::as_u64)
            .expect("histogram count");
        assert_eq!(count, 1, "{histogram} must observe exactly one round");
    }
    let jobs = find("exec.jobs.coreset")
        .get("value")
        .and_then(Json::as_u64)
        .expect("counter value");
    assert_eq!(jobs, 2, "one coreset job per partition at --procs 2");
    // Round-1 GMM telemetry crosses the process boundary: one step per
    // coreset point, and pruning evaluates fewer than the n·τ point
    // distances a full scan per step would.
    let worker_counter = |name: &str| -> u64 {
        find(&format!("exec.worker.core.gmm.{name}"))
            .get("value")
            .and_then(Json::as_u64)
            .expect("counter value")
    };
    let tau = mu * k;
    assert_eq!(worker_counter("steps"), 2 * tau);
    let point_evals = worker_counter("point_evals");
    assert!(
        point_evals > 0 && point_evals < n * tau,
        "point_evals = {point_evals}, n·τ = {}",
        n * tau
    );
    assert!(worker_counter("full_scans") < 2 * tau);
}
