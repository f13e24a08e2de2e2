//! kbench — the repository's end-to-end benchmark.
//!
//! Four workloads over the three user paths (README.md says why each):
//! `batch-inproc` (the `kcenter cluster --algo mr-outliers` pipeline in
//! process), `fleet-pipe` and `fleet-tcp-sweep` (the multi-process
//! executor over pipe and TCP workers), and `serve-mixed` (a
//! `kcenter serve` session mix over unix and TCP sockets).
//!
//! ```text
//! kbench [--workload NAME] [--seed S] [--seconds T] [--trace 0|1]
//!        [--smoke] [--runs N] [--out FILE] [--spans DIR]
//! ```
//!
//! Every metric is printed as `workload metric value unit samples`; the
//! last line of a single-workload run is the JSON result object. With
//! `--trace 1` each workload runs untraced and then traced, and the
//! result carries the per-layer metrics. Each workload runs in a fresh
//! child process (`kbench run …`); workers and servers are `kbench`
//! re-invoked in hidden modes (`exec-worker`, `serve`) that call the same
//! library entry points the `kcenter` binary does.

mod batch;
mod fleet;
mod procs;
mod replay;
mod report;
mod serve;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use report::{MetricSpec, Report};
use spans::Tracer;

/// Set-ups per run; the median is reported, so one slow set-up does not
/// move `setup_s`.
const SETUP_REPS: usize = 3;

/// The per-layer metrics each workload measures, as names or `layer.`
/// prefixes. The others belong to layers the workload bypasses and read
/// 0; a metric a workload measures but did not produce is an error.
fn measures(workload: &str, metric: &str) -> bool {
    let patterns: &[&str] = match workload {
        "batch-inproc" => &["data.", "core.", "metric.", "mapreduce."],
        // Only the fleet-pipe traced run switches the program's trace sink on.
        "fleet-pipe" => &["core.", "metric.", "exec.", "store.", "obs."],
        "fleet-tcp-sweep" => &["core.", "metric.", "exec.", "store."],
        "serve-mixed" => &[
            "metric.",
            "core.radius_search_s",
            "core.search_evaluations",
            "serve.",
            "bench.",
        ],
        _ => &[],
    };
    patterns.iter().any(|p| {
        if p.ends_with('.') {
            metric.starts_with(p)
        } else {
            metric == *p
        }
    })
}

/// What a workload run gets from its process.
pub struct Ctx {
    /// The workload seed: every input derives from it.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    /// Inputs at a tenth of their size (`--smoke`).
    pub smoke: bool,
    /// Span recorder; records only in the traced variant.
    pub tracer: Tracer,
    /// Scratch directory, removed when the run ends.
    pub dir: procs::RunDir,
}

impl Ctx {
    /// `n`, or a tenth of it under `--smoke`.
    pub fn scale(&self, n: usize) -> usize {
        if self.smoke {
            n / 10
        } else {
            n
        }
    }

    /// Builds the workload's inputs [`SETUP_REPS`] times and reports the
    /// median time as `setup_s`. Every build but the last is taken down by
    /// `stop` before the next starts, the way the last one is at the end
    /// of the run: its processes are asked to exit and counted as failed
    /// if they do not. Returns the last build.
    pub fn setup<T>(
        &self,
        rep: &mut Report,
        mut make: impl FnMut() -> Result<T, String>,
        mut stop: impl FnMut(T, &mut Report),
    ) -> Result<T, String> {
        let mut times = Vec::with_capacity(SETUP_REPS);
        loop {
            let start = Instant::now();
            let built = make()?;
            times.push(start.elapsed().as_secs_f64());
            if times.len() == SETUP_REPS {
                rep.put_median("setup_s", &times, 1.0, "s");
                return Ok(built);
            }
            stop(built, rep);
        }
    }

    /// Runs `job` one at a time until the measuring time is up (at least
    /// once). `job` gets its sequence number and returns its own duration
    /// in seconds. Returns the durations and the loop's wall time.
    pub fn closed_loop(&self, mut job: impl FnMut(u64) -> f64) -> (Vec<f64>, f64) {
        let start = Instant::now();
        let mut times = Vec::new();
        while times.is_empty() || start.elapsed().as_secs_f64() < self.seconds {
            times.push(job(times.len() as u64));
        }
        (times, start.elapsed().as_secs_f64())
    }
}

/// This process's own peak resident set, in MB.
pub fn own_peak_rss_mb() -> f64 {
    procs::peak_rss_mb("/proc/self/status").unwrap_or(0.0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("exec-worker") => kcenter_exec::worker_main(args.into_iter().skip(1)),
        Some("serve") => serve::server_main(&args[1..]),
        Some("run") => run_workload(&args[1..]),
        _ => match Args::parse(&args).and_then(|a| a.run()) {
            Ok(code) => code,
            Err(err) => {
                eprintln!("kbench: {err}");
                2
            }
        },
    };
    ExitCode::from(code.clamp(0, 255) as u8)
}

/// Looks up `--flag`'s value in `args`.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// The hidden `run` mode: one workload, one variant, in this process.
/// Prints the report for the parent process; exits 1 on a set-up error.
fn run_workload(args: &[String]) -> i32 {
    let outcome = (|| -> Result<Report, String> {
        let need = |name: &str| flag(args, name).ok_or(format!("run: {name} missing"));
        let workload = need("--workload")?;
        let traced = need("--variant")? == "traced";
        let ctx = Ctx {
            seed: need("--seed")?
                .parse()
                .map_err(|e| format!("--seed: {e}"))?,
            seconds: need("--seconds")?
                .parse()
                .map_err(|e| format!("--seconds: {e}"))?,
            smoke: args.iter().any(|a| a == "--smoke"),
            tracer: Tracer::new(traced),
            dir: procs::RunDir::create()?,
        };
        let mut rep = Report::default();
        match workload {
            "batch-inproc" => batch::run(&ctx, &mut rep)?,
            "fleet-pipe" => fleet::run(&ctx, &mut rep, fleet::Fleet::Pipe)?,
            "fleet-tcp-sweep" => fleet::run(&ctx, &mut rep, fleet::Fleet::TcpSweep)?,
            "serve-mixed" => serve::run(&ctx, &mut rep)?,
            other => return Err(format!("unknown workload {other}")),
        }
        if traced {
            let path = PathBuf::from(need("--spans")?);
            let text = ctx.tracer.jsonl();
            std::fs::write(&path, &text).map_err(|e| format!("writing {path:?}: {e}"))?;
            let check = spans::check_jsonl(&text);
            rep.op(check.is_ok(), || format!("span file {path:?}: {check:?}"));
        }
        Ok(rep)
    })();
    match outcome {
        Ok(rep) => {
            print!("{}", rep.render(flag(args, "--workload").unwrap_or("")));
            0
        }
        Err(err) => {
            eprintln!("kbench run: {err}");
            1
        }
    }
}

/// The command line.
struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    runs: usize,
    out: Option<PathBuf>,
    spans: PathBuf,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let spec = report::spec();
        let mut parsed = Args {
            workloads: spec.workloads.clone(),
            seed: 1,
            seconds: spec.run_seconds,
            trace: false,
            smoke: false,
            runs: 1,
            out: None,
            spans: PathBuf::from(".kbench"),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value = || it.next().ok_or(format!("{arg} needs a value"));
            let number = |v: &str| v.parse::<u64>().map_err(|e| format!("{arg} {v}: {e}"));
            match arg.as_str() {
                "--workload" => {
                    let name = value()?;
                    if !spec.workloads.contains(name) {
                        return Err(format!("unknown workload {name}; one of {:?}", spec.workloads));
                    }
                    parsed.workloads = vec![name.clone()];
                }
                "--seed" => parsed.seed = number(value()?)?,
                "--seconds" => parsed.seconds = number(value()?)?.max(1),
                "--trace" => parsed.trace = number(value()?)? != 0,
                "--runs" => parsed.runs = number(value()?)?.max(1) as usize,
                "--out" => parsed.out = Some(PathBuf::from(value()?)),
                "--spans" => parsed.spans = PathBuf::from(value()?),
                "--smoke" => parsed.smoke = true,
                other => {
                    return Err(format!(
                        "unknown argument {other}; usage: kbench [--workload NAME] [--seed S] \
                         [--seconds T] [--trace 0|1] [--smoke] [--runs N] [--out FILE] [--spans DIR]"
                    ))
                }
            }
        }
        if parsed.smoke {
            parsed.seconds = 3;
        }
        Ok(parsed)
    }

    /// Runs every selected workload (`--runs` times each) and prints the
    /// results; exits 1 if any operation failed. A wanted metric the run
    /// did not produce, such as a tail with too few samples beyond it, is
    /// printed as `unresolved` and is an error, except under `--smoke`,
    /// whose short runs are expected to leave tails unresolved.
    fn run(&self) -> Result<i32, String> {
        let spec = report::spec();
        let wanted: &[MetricSpec] = if self.trace {
            &spec.per_layer
        } else {
            &spec.end_to_end
        };
        let mut printed = String::new();
        let mut failed = false;
        for workload in &self.workloads {
            let mut runs = Vec::with_capacity(self.runs);
            for _ in 0..self.runs {
                let rep = self.measure(workload, self.seed, &spec.per_layer)?;
                let (present, missing): (Vec<MetricSpec>, Vec<MetricSpec>) = wanted
                    .iter()
                    .cloned()
                    .partition(|m| rep.metrics.contains_key(&m.name));
                let mut text = rep.lines(workload);
                for m in &missing {
                    text.push_str(&format!("{workload} {} unresolved\n", m.name));
                }
                print!("{text}");
                printed.push_str(&text);
                if !missing.is_empty() && !self.smoke {
                    let names: Vec<&str> = missing.iter().map(|m| m.name.as_str()).collect();
                    return Err(format!("{workload} did not measure {}", names.join(", ")));
                }
                let result = format!("{}\n", rep.result_line(&present)?);
                print!("{result}");
                printed.push_str(&result);
                failed |= rep.failed > 0;
                runs.push(rep);
            }
            if self.runs > 1 {
                let table = repeatability(workload, &runs, &spec.end_to_end);
                print!("{table}");
                printed.push_str(&table);
            }
        }
        if let Some(out) = &self.out {
            std::fs::write(out, printed).map_err(|e| format!("writing {out:?}: {e}"))?;
        }
        Ok(i32::from(failed))
    }

    /// One measurement of `workload`: an untraced run, and with `--trace`
    /// a traced run after it. Per-layer metrics of layers the workload
    /// bypasses ([`measures`]) read 0 with 0 samples.
    fn measure(
        &self,
        workload: &str,
        seed: u64,
        per_layer: &[MetricSpec],
    ) -> Result<Report, String> {
        let seconds = self.seconds as f64;
        if !self.trace {
            return self.child(workload, seed, seconds, false);
        }
        let mut rep = self.child(workload, seed, seconds / 2.0, false)?;
        let traced = self.child(workload, seed, seconds / 2.0, true)?;
        // The traced fleet-pipe run also has the program's own trace sink
        // on, which cannot be switched off again within a process.
        let job = |r: &Report| r.metrics.get("op_ms_p50").map(|m| (m.value, m.samples));
        if let (Some((plain, _)), Some((sunk, n))) = (job(&rep), job(&traced)) {
            if workload == "fleet-pipe" {
                rep.put("obs.trace_overhead_frac", sunk / plain - 1.0, "frac", n);
            }
        }
        rep.absorb(traced);
        for m in per_layer {
            if !measures(workload, &m.name) && !rep.metrics.contains_key(&m.name) {
                rep.put(&m.name, 0.0, &m.unit, 0);
            }
        }
        Ok(rep)
    }

    /// Runs one workload variant in a fresh child process.
    fn child(
        &self,
        workload: &str,
        seed: u64,
        seconds: f64,
        traced: bool,
    ) -> Result<Report, String> {
        let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.args(["run", "--workload", workload])
            .args([
                "--seed",
                &seed.to_string(),
                "--seconds",
                &seconds.to_string(),
            ])
            .args(["--variant", if traced { "traced" } else { "plain" }]);
        if self.smoke {
            cmd.arg("--smoke");
        }
        if traced {
            let dir = &self.spans;
            std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir:?}: {e}"))?;
            cmd.arg("--spans")
                .arg(dir.join(format!("spans-{workload}-{seed}.jsonl")));
        }
        let out = cmd
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run {workload}: {e}"))?;
        if !out.status.success() {
            return Err(format!("{workload} run failed ({})", out.status));
        }
        Report::parse(&String::from_utf8_lossy(&out.stdout))
    }
}

/// The `--runs` self-check: per end-to-end metric, the median and
/// quartiles over the runs and the spread `(q3 - q1) / median`. A metric
/// whose spread exceeds its bound is `unresolved`: a change smaller than
/// the spread could not be told from noise. `setup_s` is reported but
/// its spread is not held to the bound.
fn repeatability(workload: &str, runs: &[Report], metrics: &[MetricSpec]) -> String {
    let mut out = String::new();
    for m in metrics {
        let values: Vec<f64> = runs
            .iter()
            .filter_map(|r| r.metrics.get(&m.name).map(|v| v.value))
            .collect();
        let (Some(median), Some([q1, _, q3])) = (stats::median(&values), stats::quartiles(&values))
        else {
            continue;
        };
        let spread = (q3 - q1) / median.abs();
        let bound = m.bound.unwrap_or(0.0);
        let verdict = if m.name == "setup_s" || spread <= bound {
            "ok"
        } else {
            "unresolved"
        };
        out.push_str(&format!(
            "repeat {workload} {} median={median} q1={q1} q3={q3} spread={spread:.4} bound={bound} \
             spread/bound={:.2} runs={} {verdict}\n",
            m.name,
            spread / bound,
            values.len()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_per_layer_metric_is_measured_somewhere() {
        let spec = report::spec();
        for m in &spec.per_layer {
            let by = spec.workloads.iter().filter(|w| measures(w, &m.name));
            assert!(by.count() > 0, "{} is measured by no workload", m.name);
        }
    }

    #[test]
    fn bypassed_layers_are_named_by_layer_prefix() {
        assert!(measures("serve-mixed", "serve.restores"));
        assert!(measures("serve-mixed", "core.radius_search_s"));
        assert!(!measures("serve-mixed", "core.objective_s"));
        assert!(!measures("batch-inproc", "exec.round1_s"));
        assert!(measures("fleet-pipe", "obs.trace_overhead_frac"));
        assert!(!measures("fleet-tcp-sweep", "obs.trace_overhead_frac"));
        // A prefix covers its layer only, not a longer layer name.
        assert!(!measures("batch-inproc", "coreset.size"));
    }
}
