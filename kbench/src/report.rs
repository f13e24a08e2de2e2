//! What a run reports — named metrics with a unit and a sample count, and
//! the tally of attempted and failed operations — and the metric list,
//! units and bounds fixed by the repository's `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use kcenter_obs::json::{self, Json};

use crate::stats;

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// The value, as measured.
    pub value: f64,
    /// Its unit.
    pub unit: String,
    /// How many samples it summarizes.
    pub samples: usize,
}

/// Everything one run of one workload reports.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Report {
    /// Metrics by name.
    pub metrics: BTreeMap<String, Metric>,
    /// Operations attempted (jobs, requests, shutdowns).
    pub attempted: u64,
    /// Operations that failed or returned a wrong answer.
    pub failed: u64,
}

impl Report {
    /// Records `name`.
    pub fn put(&mut self, name: &str, value: f64, unit: &str, samples: usize) {
        assert!(value.is_finite(), "metric {name} = {value} is not finite");
        self.metrics.insert(
            name.to_string(),
            Metric {
                value,
                unit: unit.to_string(),
                samples,
            },
        );
    }

    /// Records the median of `samples` times `scale`; nothing without samples.
    pub fn put_median(&mut self, name: &str, samples: &[f64], scale: f64, unit: &str) {
        if let Some(m) = stats::median(samples) {
            self.put(name, m * scale, unit, samples.len());
        }
    }

    /// Records the `q` tail of `samples` times `scale`, when enough
    /// samples lie beyond it.
    pub fn put_tail(&mut self, name: &str, samples: &[f64], q: f64, scale: f64, unit: &str) {
        if let Some(t) = stats::tail_percentile(samples, q) {
            self.put(name, t * scale, unit, samples.len());
        }
    }

    /// Counts one attempted operation, and a failure unless `ok`.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("kbench: FAILED: {}", what());
        }
    }

    /// The metric lines, `workload metric value unit samples`.
    pub fn lines(&self, workload: &str) -> String {
        let mut out = String::new();
        for (name, m) in &self.metrics {
            let _ = writeln!(
                out,
                "{workload} {name} {} {} {}",
                m.value, m.unit, m.samples
            );
        }
        out
    }

    /// The metric lines, then the `#status attempted failed` line a
    /// parent process reads back.
    pub fn render(&self, workload: &str) -> String {
        format!(
            "{}#status {} {}\n",
            self.lines(workload),
            self.attempted,
            self.failed
        )
    }

    /// Reads back what [`Report::render`] printed.
    pub fn parse(text: &str) -> Result<Report, String> {
        let mut report = Report::default();
        let mut status = false;
        for line in text.lines() {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let num = |s: &str| s.parse::<f64>().map_err(|e| format!("{line:?}: {e}"));
            let count = |s: &str| s.parse::<u64>().map_err(|e| format!("{line:?}: {e}"));
            match fields.as_slice() {
                ["#status", attempted, failed] => {
                    report.attempted = count(attempted)?;
                    report.failed = count(failed)?;
                    status = true;
                }
                [_, name, value, unit, samples] => {
                    report.put(name, num(value)?, unit, count(samples)? as usize)
                }
                _ => return Err(format!("unexpected run output {line:?}")),
            }
        }
        if !status {
            return Err("run output has no #status line".into());
        }
        Ok(report)
    }

    /// Adds `other`'s tally, and its metrics where this report has none.
    pub fn absorb(&mut self, other: Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (name, m) in other.metrics {
            self.metrics.entry(name).or_insert(m);
        }
    }

    /// The result line over `wanted` metrics: one JSON object
    /// with `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_line(&self, wanted: &[MetricSpec]) -> Result<String, String> {
        let mut metrics = Vec::new();
        for spec in wanted {
            let m = self
                .metrics
                .get(&spec.name)
                .ok_or_else(|| format!("metric {} was not measured", spec.name))?;
            if m.unit != spec.unit {
                return Err(format!(
                    "{} has unit {}, not {}",
                    spec.name, m.unit, spec.unit
                ));
            }
            metrics.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                spec.name, m.value, m.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

/// A metric `BENCHMARK.json` declares.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSpec {
    /// Its name.
    pub name: String,
    /// Its unit.
    pub unit: String,
    /// The share of the parent's median by which it may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the benchmark itself reads.
#[derive(Clone, Debug, PartialEq)]
pub struct Spec {
    /// How long one run measures, in seconds.
    pub run_seconds: u64,
    /// Workload names.
    pub workloads: Vec<String>,
    /// End-to-end metrics, with bounds.
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics.
    pub per_layer: Vec<MetricSpec>,
}

/// The repository's benchmark declaration, compiled in so that the
/// metric names, units and bounds have one source.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The parsed `BENCHMARK.json`.
pub fn spec() -> Spec {
    parse_spec(BENCHMARK_JSON).expect("BENCHMARK.json is well-formed")
}

fn parse_spec(text: &str) -> Result<Spec, String> {
    let doc = json::parse(text)?;
    let list = |key: &str| -> Result<&[Json], String> {
        doc.get(key)
            .and_then(Json::as_array)
            .ok_or_else(|| format!("BENCHMARK.json: no {key} list"))
    };
    let text_field = |item: &Json, key: &str| -> Result<String, String> {
        item.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("BENCHMARK.json: entry without {key}"))
    };
    let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
        list(key)?
            .iter()
            .map(|item| {
                Ok(MetricSpec {
                    name: text_field(item, "name")?,
                    unit: text_field(item, "unit")?,
                    bound: item.get("bound").and_then(Json::as_f64),
                })
            })
            .collect()
    };
    Ok(Spec {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Json::as_u64)
            .ok_or("BENCHMARK.json: no run_seconds")?,
        workloads: list("workloads")?
            .iter()
            .map(|w| text_field(w, "name"))
            .collect::<Result<_, _>>()?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendered_reports_parse_back() {
        let mut report = Report::default();
        report.put("op_ms_p50", 12.25, "ms", 40);
        report.put("core.union_size", 1760.0, "count", 40);
        report.op(true, String::new);
        report.op(false, || "expected".into());
        assert_eq!(Report::parse(&report.render("fleet-pipe")), Ok(report));
        assert!(Report::parse("fleet-pipe op_ms_p50 1 ms 1\n").is_err());
    }

    #[test]
    fn result_line_names_every_wanted_metric() {
        let mut report = Report::default();
        report.put("setup_s", 0.5, "s", 3);
        report.op(true, String::new);
        let wanted = |unit: &str| {
            vec![MetricSpec {
                name: "setup_s".into(),
                unit: unit.into(),
                bound: Some(0.25),
            }]
        };
        let line = report.result_line(&wanted("s")).unwrap();
        let parsed = json::parse(&line).unwrap();
        assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
        let value = parsed.get("metrics").and_then(|m| m.get("setup_s"));
        assert_eq!(value.and_then(|v| v.get("value")), Some(&Json::Num(0.5)));
        assert!(report.result_line(&wanted("ms")).is_err());
    }

    #[test]
    fn benchmark_json_declares_four_workloads_and_bounded_metrics() {
        let spec = spec();
        assert_eq!(
            spec.workloads,
            [
                "batch-inproc",
                "fleet-pipe",
                "fleet-tcp-sweep",
                "serve-mixed"
            ]
        );
        assert!(spec.end_to_end.iter().any(|m| m.name == "setup_s"));
        assert!(spec
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
    }
}
