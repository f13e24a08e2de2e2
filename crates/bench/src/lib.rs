#![warn(missing_docs)]
//! Shared experiment harness for the figure-reproduction binaries.
//!
//! The paper's methodology (§5, "Experimental setting"): every number is an
//! average over ≥ 10 runs with 95% confidence intervals; solution quality is
//! the *approximation ratio*, "estimated empirically as the ratio between
//! the radius of the returned clustering and the best radius ever found
//! across all experiments with the same dataset and parameter
//! configuration". This crate provides exactly that machinery:
//!
//! * [`Dataset`] — the three dataset stand-ins with their paper `k` values;
//! * [`Stats`] — mean and 95% CI over repetitions;
//! * [`RatioTable`] — collects `(series, x, radius)` samples and prints
//!   ratios against the best radius found for the dataset;
//! * [`Args`] — minimal CLI parsing (`--paper`, `--reps`, `--n`) so every
//!   figure binary defaults to laptop-scale parameters and can be promoted
//!   to the paper's scale with one flag.

use std::collections::BTreeMap;
use std::time::Duration;

use kcenter_data::{higgs_like, power_like, wiki_like};
use kcenter_metric::Point;

/// The paper's three evaluation datasets (synthetic stand-ins; DESIGN.md §4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dataset {
    /// Higgs: 7-dim, moderately clustered; paper `k = 50`.
    Higgs,
    /// Power: 7-dim, many compact regimes; paper `k = 100`.
    Power,
    /// Wiki: 50-dim word2vec-like; paper `k = 60`.
    Wiki,
}

impl Dataset {
    /// All three datasets in the paper's presentation order.
    pub fn all() -> [Dataset; 3] {
        [Dataset::Higgs, Dataset::Power, Dataset::Wiki]
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Dataset::Higgs => "Higgs",
            Dataset::Power => "Power",
            Dataset::Wiki => "Wiki",
        }
    }

    /// The `k` the paper uses for the no-outlier experiments (Figs. 2–3).
    pub fn paper_k(self) -> usize {
        match self {
            Dataset::Higgs => 50,
            Dataset::Power => 100,
            Dataset::Wiki => 60,
        }
    }

    /// Generates `n` points with the given seed.
    pub fn generate(self, n: usize, seed: u64) -> Vec<Point> {
        match self {
            Dataset::Higgs => higgs_like(n, seed),
            Dataset::Power => power_like(n, seed),
            Dataset::Wiki => wiki_like(n, seed),
        }
    }
}

/// Mean and spread over repeated measurements.
#[derive(Clone, Copy, Debug, Default)]
pub struct Stats {
    /// Sample mean.
    pub mean: f64,
    /// Half-width of the 95% confidence interval (normal approximation).
    pub ci95: f64,
    /// Number of samples.
    pub n: usize,
}

impl Stats {
    /// Computes mean ± CI from samples.
    pub fn from_samples(samples: &[f64]) -> Stats {
        let n = samples.len();
        if n == 0 {
            return Stats::default();
        }
        let mean = samples.iter().sum::<f64>() / n as f64;
        if n == 1 {
            return Stats { mean, ci95: 0.0, n };
        }
        let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / (n as f64 - 1.0);
        Stats {
            mean,
            ci95: 1.96 * (var / n as f64).sqrt(),
            n,
        }
    }
}

/// Collects radius samples per `(series, x)` and reports approximation
/// ratios against the best radius ever observed (the paper's estimator).
#[derive(Default)]
pub struct RatioTable {
    samples: BTreeMap<(String, String), Vec<f64>>,
    best: f64,
}

impl RatioTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        RatioTable {
            samples: BTreeMap::new(),
            best: f64::INFINITY,
        }
    }

    /// Records one measured radius for a `(series, x)` cell.
    pub fn record(&mut self, series: &str, x: &str, radius: f64) {
        self.samples
            .entry((series.to_string(), x.to_string()))
            .or_default()
            .push(radius);
        if radius < self.best {
            self.best = radius;
        }
    }

    /// The best radius observed across all cells.
    pub fn best_radius(&self) -> f64 {
        self.best
    }

    /// Ratio statistics for one cell, if recorded.
    pub fn ratio(&self, series: &str, x: &str) -> Option<Stats> {
        let samples = self.samples.get(&(series.to_string(), x.to_string()))?;
        let ratios: Vec<f64> = samples.iter().map(|r| r / self.best).collect();
        Some(Stats::from_samples(&ratios))
    }

    /// Prints the table: one row per series, one column per x value.
    pub fn print(&self, row_label: &str, xs: &[String], series: &[String]) {
        print!("{row_label:<24}");
        for x in xs {
            print!(" {x:>14}");
        }
        println!();
        for s in series {
            print!("{s:<24}");
            for x in xs {
                match self.ratio(s, x) {
                    Some(stats) => print!(" {:>8.3}±{:<5.3}", stats.mean, stats.ci95),
                    None => print!(" {:>14}", "-"),
                }
            }
            println!();
        }
    }
}

/// Formats a duration in adaptive units.
pub fn fmt_duration(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.2}s")
    } else {
        format!("{:.1}ms", s * 1_000.0)
    }
}

/// Minimal CLI arguments shared by the figure binaries.
#[derive(Clone, Debug)]
pub struct Args {
    /// Use the paper's full-scale parameters.
    pub paper: bool,
    /// Repetitions per configuration (paper: ≥ 10).
    pub reps: usize,
    /// Dataset size override.
    pub n: Option<usize>,
    /// Suppress wall-clock columns so stdout is a pure function of the
    /// seeded inputs — the mode `tests/fig_golden.rs` diffs bit-for-bit
    /// across thread counts and with tracing on.
    pub deterministic: bool,
    /// Run on real worker OS processes instead of the in-process engine
    /// (honoured by `fig7_scaling_procs`, which then reports per-worker
    /// wall clock).
    pub real_procs: bool,
}

impl Args {
    /// Parses `--paper`, `--reps N`, `--n N`, `--deterministic`,
    /// `--real-procs` from `std::env::args`. Unknown arguments abort with
    /// a usage message.
    pub fn parse() -> Args {
        let mut args = Args {
            paper: false,
            reps: 3,
            n: None,
            deterministic: false,
            real_procs: false,
        };
        let mut iter = std::env::args().skip(1);
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--paper" => {
                    args.paper = true;
                    args.reps = 10;
                }
                "--deterministic" => args.deterministic = true,
                "--real-procs" => args.real_procs = true,
                "--reps" => {
                    let v = iter.next().expect("--reps needs a value");
                    args.reps = v.parse().expect("--reps must be an integer");
                }
                "--n" => {
                    let v = iter.next().expect("--n needs a value");
                    args.n = Some(v.parse().expect("--n must be an integer"));
                }
                "--help" | "-h" => {
                    eprintln!(
                        "usage: [--paper] [--reps N] [--n N] [--deterministic] [--real-procs]"
                    );
                    std::process::exit(0);
                }
                other => {
                    eprintln!(
                        "unknown argument {other}; usage: [--paper] [--reps N] [--n N] [--deterministic] [--real-procs]"
                    );
                    std::process::exit(2);
                }
            }
        }
        args
    }

    /// Dataset size: explicit `--n`, else `paper_n` with `--paper`, else
    /// the laptop-scale `default_n`.
    pub fn size(&self, default_n: usize, paper_n: usize) -> usize {
        self.n
            .unwrap_or(if self.paper { paper_n } else { default_n })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_mean_and_ci() {
        let s = Stats::from_samples(&[1.0, 2.0, 3.0]);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!(s.ci95 > 0.0);
        assert_eq!(s.n, 3);
        let single = Stats::from_samples(&[5.0]);
        assert_eq!(single.mean, 5.0);
        assert_eq!(single.ci95, 0.0);
        assert_eq!(Stats::from_samples(&[]).n, 0);
    }

    #[test]
    fn ratio_table_tracks_best() {
        let mut t = RatioTable::new();
        t.record("a", "1", 2.0);
        t.record("a", "1", 2.2);
        t.record("b", "1", 1.0);
        assert_eq!(t.best_radius(), 1.0);
        let ra = t.ratio("a", "1").unwrap();
        assert!((ra.mean - 2.1).abs() < 1e-9);
        let rb = t.ratio("b", "1").unwrap();
        assert_eq!(rb.mean, 1.0);
        assert!(t.ratio("c", "1").is_none());
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_millis(1500)), "1.50s");
        assert_eq!(fmt_duration(Duration::from_micros(2_300)), "2.3ms");
    }

    #[test]
    fn datasets_have_paper_parameters() {
        assert_eq!(Dataset::Higgs.paper_k(), 50);
        assert_eq!(Dataset::Power.paper_k(), 100);
        assert_eq!(Dataset::Wiki.paper_k(), 60);
        for d in Dataset::all() {
            assert_eq!(d.generate(100, 1).len(), 100);
        }
    }
}
