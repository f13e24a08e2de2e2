//! Hand-rolled, testable argument parsing for the `kcenter` binary.
//!
//! No CLI dependency: the grammar is small and fixed, and parsing from an
//! explicit iterator keeps it unit-testable.

use std::fmt;

/// Which clustering algorithm to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algo {
    /// Sequential GMM (2-approx, no outliers).
    Gmm,
    /// 2-round MapReduce k-center (2+ε).
    Mr,
    /// 2-round MapReduce with outliers, deterministic (3+ε).
    MrOutliers,
    /// 2-round MapReduce with outliers, randomized (3+ε whp).
    MrRandomized,
    /// Sequential coreset algorithm with outliers (3+ε).
    Sequential,
    /// 1-pass streaming with outliers (3+ε).
    Stream,
    /// Charikar et al. 2001 baseline (3-approx, quadratic).
    Charikar,
}

impl Algo {
    fn parse(s: &str) -> Result<Algo, ArgError> {
        Ok(match s {
            "gmm" => Algo::Gmm,
            "mr" => Algo::Mr,
            "mr-outliers" => Algo::MrOutliers,
            "mr-randomized" => Algo::MrRandomized,
            "seq" => Algo::Sequential,
            "stream" => Algo::Stream,
            "charikar" => Algo::Charikar,
            other => return Err(ArgError::new(format!("unknown --algo {other:?}"))),
        })
    }
}

/// Normalization choice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Normalize {
    /// No normalization.
    None,
    /// Z-score per coordinate.
    Zscore,
    /// Min–max per coordinate.
    MinMax,
}

impl Normalize {
    fn parse(s: &str) -> Result<Normalize, ArgError> {
        Ok(match s {
            "none" => Normalize::None,
            "zscore" => Normalize::Zscore,
            "minmax" => Normalize::MinMax,
            other => return Err(ArgError::new(format!("unknown --normalize {other:?}"))),
        })
    }
}

/// How `kcenter cluster` renders its run report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReportFormat {
    /// The human-readable text report (the default; byte-stable for the
    /// golden determinism suites).
    Text,
    /// A JSON report including the metrics-registry snapshot.
    Json,
}

impl ReportFormat {
    fn parse(s: &str) -> Result<ReportFormat, ArgError> {
        Ok(match s {
            "text" => ReportFormat::Text,
            "json" => ReportFormat::Json,
            other => return Err(ArgError::new(format!("unknown --report {other:?}"))),
        })
    }
}

/// A parsed command.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Cluster a CSV file.
    Cluster(ClusterArgs),
    /// Generate a synthetic dataset.
    Generate(GenerateArgs),
    /// Print dataset statistics.
    Info(InfoArgs),
    /// Inspect, empty, or prune the persistent artifact cache.
    Cache(CacheArgs),
    /// Run the clustering-as-a-service session server on a unix socket.
    Serve(ServeArgs),
    /// Hidden worker mode: the raw flags are handed to
    /// `kcenter_exec::worker_main` verbatim. This is how `cluster
    /// --procs N` re-invokes the current binary as its round-1 workers.
    ExecWorker(Vec<String>),
}

/// Arguments of `kcenter cluster`.
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterArgs {
    /// Input CSV path.
    pub input: String,
    /// Number of centers.
    pub k: usize,
    /// Outlier budget (0 = plain k-center).
    pub z: usize,
    /// Algorithm.
    pub algo: Algo,
    /// MapReduce parallelism (0 = auto via the paper's corollaries).
    pub ell: usize,
    /// Real worker OS processes (0 = in-process execution). When positive
    /// the parallelism `ℓ` equals this count and round 1 runs on spawned
    /// worker processes over sharded on-disk inputs — bit-identical
    /// results, real process isolation. MR algorithms only.
    pub procs: usize,
    /// TCP addresses of externally started workers (`kcenter worker
    /// --listen ADDR`), comma-separated on the command line. Empty =
    /// the default child-process pipe transport. Requires `--procs`.
    pub workers: Vec<String>,
    /// Coreset multiplier.
    pub mu: usize,
    /// Normalization.
    pub normalize: Normalize,
    /// Optional path to write the centers (CSV, data space).
    pub output: Option<String>,
    /// RNG seed.
    pub seed: u64,
    /// Persistent artifact cache directory (overrides `KCENTER_CACHE_DIR`;
    /// `None` defers to the environment, and caching stays off when
    /// neither is set). An explicit empty value (`--cache-dir ""`) forces
    /// caching off even when the environment variable is set.
    pub cache_dir: Option<String>,
    /// Structured trace output path (`--trace PATH`; overrides the
    /// `KCENTER_TRACE` environment variable). `None` defers to the
    /// environment, and tracing stays off when neither is set.
    pub trace: Option<String>,
    /// Run-report rendering (`--report text|json`).
    pub report: ReportFormat,
}

/// Arguments of `kcenter generate`.
#[derive(Clone, Debug, PartialEq)]
pub struct GenerateArgs {
    /// Dataset family: higgs | power | wiki.
    pub dataset: String,
    /// Number of points.
    pub n: usize,
    /// Outliers to inject.
    pub outliers: usize,
    /// RNG seed.
    pub seed: u64,
    /// Output CSV path.
    pub output: String,
}

/// Arguments of `kcenter info`.
#[derive(Clone, Debug, PartialEq)]
pub struct InfoArgs {
    /// Input CSV path.
    pub input: String,
}

/// What `kcenter cache` should do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheAction {
    /// Report per-kind entry counts and sizes.
    Stat,
    /// Remove every artifact entry (and stale temp file).
    Clear,
    /// Evict least-recently-written entries until the cache fits the
    /// byte budget.
    Prune {
        /// Byte budget the cache must fit within after the sweep.
        max_bytes: u64,
    },
}

/// Arguments of `kcenter cache`.
#[derive(Clone, Debug, PartialEq)]
pub struct CacheArgs {
    /// `stat` or `clear`.
    pub action: CacheAction,
    /// Cache directory (`--cache-dir`); falls back to `KCENTER_CACHE_DIR`.
    pub dir: Option<String>,
}

/// Arguments of `kcenter serve`.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeArgs {
    /// Unix socket path to listen on (`None` = TCP only).
    pub socket: Option<String>,
    /// TCP address to listen on (`--listen tcp://HOST:PORT`; `None` =
    /// unix only). At least one of the two endpoints is required.
    pub listen: Option<String>,
    /// Coreset budget `τ` per session.
    pub tau: usize,
    /// Resident-point budget across sessions (`None` = no eviction).
    pub memory_budget: Option<usize>,
    /// Persist each session every N processed items (`0` = only on
    /// evict/flush/shutdown).
    pub snapshot_every: u64,
    /// Session store directory (`--cache-dir`); falls back to
    /// `KCENTER_CACHE_DIR`. Required for eviction/persistence.
    pub cache_dir: Option<String>,
    /// Structured trace output path (`--trace PATH`; overrides the
    /// `KCENTER_TRACE` environment variable).
    pub trace: Option<String>,
}

/// A parse failure with its message.
#[derive(Clone, Debug, PartialEq)]
pub struct ArgError {
    msg: String,
}

impl ArgError {
    fn new(msg: impl Into<String>) -> ArgError {
        ArgError { msg: msg.into() }
    }
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.msg)
    }
}

impl std::error::Error for ArgError {}

/// Usage text shown on `--help` or errors.
pub const USAGE: &str = "\
kcenter — coreset-based k-center clustering (with outliers)

USAGE:
  kcenter cluster  --input FILE --k K [--z Z] [--algo gmm|mr|mr-outliers|mr-randomized|seq|stream|charikar]
                   [--ell L] [--procs N] [--workers ADDR,ADDR…] [--mu M]
                   [--normalize none|zscore|minmax] [--output FILE]
                   [--seed S] [--cache-dir DIR] [--trace FILE]
                   [--report text|json]
  kcenter generate --dataset higgs|power|wiki --n N [--outliers Z] [--seed S] --output FILE
  kcenter info     --input FILE
  kcenter cache    stat|clear [--cache-dir DIR]
  kcenter cache    prune --max-bytes BYTES [--cache-dir DIR]
  kcenter serve    [--socket PATH] [--listen tcp://HOST:PORT] [--tau T]
                   [--memory-budget POINTS] [--snapshot-every N] [--cache-dir DIR]
                   [--trace FILE]
  kcenter worker   --listen HOST:PORT | --connect HOST:PORT
                   [--store DIR] [--pin-config HEX]

--procs N runs the MapReduce algorithms (mr | mr-outliers | mr-randomized)
on N real worker OS processes over sharded on-disk inputs, with results
bit-identical to the in-process engine at parallelism N. By default the
workers are spawned children wired over pipes; --workers hands round 1 to
externally started `kcenter worker --listen` processes over TCP instead
(shards travel as `@store/…` references, so the workers need the same
--cache-dir store). Results are bit-identical across both transports.

`worker` runs one executor worker: `--listen` waits for a coordinator to
dial in (and prints the bound address, so `--listen HOST:0` works);
`--connect` dials a coordinator that is accepting workers. `--store DIR`
is where `@store/…` shard references resolve; `--pin-config HEX` makes
the worker reject coordinators whose config fingerprint differs (see
docs/PROTOCOL.md for the handshake).

`serve` runs a long-lived multi-tenant session server over the streaming
coreset: clients ingest/query/evict per-(tenant, stream) sessions through
a length-delimited framed protocol on the unix socket, a TCP listener, or
both at once (each `--listen`/`--socket` endpoint is announced on stdout;
tcp://HOST:0 picks an ephemeral port). With a cache dir, sessions
snapshot to the artifact store and idle sessions are evicted under
--memory-budget, restoring transparently (bit-identically) on the next
touch.

The persistent artifact cache (distance matrices, coresets, solutions) is
off unless --cache-dir or the KCENTER_CACHE_DIR environment variable
names a directory (--cache-dir \"\" forces it off); `cache stat`/`cache
clear` inspect and empty it, `cache prune --max-bytes` evicts the least
recently written entries down to a byte budget.

Structured tracing is off unless --trace or the KCENTER_TRACE
environment variable names an output file; when on, span and event
records stream there as JSONL (schema kcenter-trace/v1, see
docs/PROTOCOL.md §8). All trace bytes go to that file and nowhere
else, so stdout/stderr stay byte-identical either way. `cluster
--report json` prints the run report plus a metrics-registry snapshot
as JSON; `serve` exposes the same registry through its `metrics` verb
in Prometheus text or JSON.
";

fn take_value<'a, I: Iterator<Item = &'a str>>(
    flag: &str,
    iter: &mut I,
) -> Result<&'a str, ArgError> {
    iter.next()
        .ok_or_else(|| ArgError::new(format!("{flag} requires a value")))
}

fn parse_num<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, ArgError> {
    value
        .parse()
        .map_err(|_| ArgError::new(format!("{flag} got invalid value {value:?}")))
}

/// Parses a full command line (without the program name).
pub fn parse<'a, I: IntoIterator<Item = &'a str>>(args: I) -> Result<Command, ArgError> {
    let mut iter = args.into_iter();
    let sub = iter
        .next()
        .ok_or_else(|| ArgError::new("missing subcommand (cluster | generate | info)"))?;
    match sub {
        "cluster" => parse_cluster(iter),
        "generate" => parse_generate(iter),
        "info" => parse_info(iter),
        "cache" => parse_cache(iter),
        "serve" => parse_serve(iter),
        // Hidden: the multi-process executor re-invokes this binary as its
        // workers. Flags are validated by the worker itself.
        "worker" => Ok(Command::ExecWorker(iter.map(String::from).collect())),
        "--help" | "-h" | "help" => Err(ArgError::new(USAGE)),
        other => Err(ArgError::new(format!("unknown subcommand {other:?}"))),
    }
}

fn parse_cluster<'a, I: Iterator<Item = &'a str>>(mut iter: I) -> Result<Command, ArgError> {
    let mut input = None;
    let mut k = None;
    let mut z = 0usize;
    let mut algo = Algo::Sequential;
    let mut ell = 0usize;
    let mut procs = 0usize;
    let mut workers = Vec::new();
    let mut mu = 4usize;
    let mut normalize = Normalize::Zscore;
    let mut output = None;
    let mut seed = 0u64;
    let mut cache_dir = None;
    let mut trace = None;
    let mut report = ReportFormat::Text;
    while let Some(arg) = iter.next() {
        match arg {
            "--input" => input = Some(take_value(arg, &mut iter)?.to_string()),
            "--k" => k = Some(parse_num(arg, take_value(arg, &mut iter)?)?),
            "--z" => z = parse_num(arg, take_value(arg, &mut iter)?)?,
            "--algo" => algo = Algo::parse(take_value(arg, &mut iter)?)?,
            "--ell" => ell = parse_num(arg, take_value(arg, &mut iter)?)?,
            "--procs" => procs = parse_num(arg, take_value(arg, &mut iter)?)?,
            "--workers" => {
                workers = take_value(arg, &mut iter)?
                    .split(',')
                    .map(str::trim)
                    .filter(|a| !a.is_empty())
                    .map(String::from)
                    .collect()
            }
            "--mu" => mu = parse_num(arg, take_value(arg, &mut iter)?)?,
            "--normalize" => normalize = Normalize::parse(take_value(arg, &mut iter)?)?,
            "--output" => output = Some(take_value(arg, &mut iter)?.to_string()),
            "--seed" => seed = parse_num(arg, take_value(arg, &mut iter)?)?,
            "--cache-dir" => cache_dir = Some(take_value(arg, &mut iter)?.to_string()),
            "--trace" => trace = Some(take_value(arg, &mut iter)?.to_string()),
            "--report" => report = ReportFormat::parse(take_value(arg, &mut iter)?)?,
            other => return Err(ArgError::new(format!("unknown flag {other:?}"))),
        }
    }
    let input = input.ok_or_else(|| ArgError::new("cluster requires --input"))?;
    let k = k.ok_or_else(|| ArgError::new("cluster requires --k"))?;
    if k == 0 {
        return Err(ArgError::new("--k must be at least 1"));
    }
    if mu == 0 {
        return Err(ArgError::new("--mu must be at least 1"));
    }
    if procs > 0 {
        if !matches!(algo, Algo::Mr | Algo::MrOutliers | Algo::MrRandomized) {
            return Err(ArgError::new(
                "--procs requires a MapReduce algorithm (--algo mr | mr-outliers | mr-randomized)",
            ));
        }
        if ell > 0 && ell != procs {
            return Err(ArgError::new(
                "--procs sets the parallelism: drop --ell or make them equal",
            ));
        }
    }
    if !workers.is_empty() {
        if procs == 0 {
            return Err(ArgError::new(
                "--workers requires --procs (the number of worker connections to use)",
            ));
        }
        if procs > workers.len() {
            return Err(ArgError::new(format!(
                "--procs {} exceeds the {} address(es) given to --workers",
                procs,
                workers.len()
            )));
        }
    }
    Ok(Command::Cluster(ClusterArgs {
        input,
        k,
        z,
        algo,
        ell,
        procs,
        workers,
        mu,
        normalize,
        output,
        seed,
        cache_dir,
        trace,
        report,
    }))
}

fn parse_cache<'a, I: Iterator<Item = &'a str>>(mut iter: I) -> Result<Command, ArgError> {
    let action = match iter
        .next()
        .ok_or_else(|| ArgError::new("cache requires an action (stat | clear | prune)"))?
    {
        "stat" => CacheAction::Stat,
        "clear" => CacheAction::Clear,
        "prune" => CacheAction::Prune { max_bytes: 0 },
        other => {
            return Err(ArgError::new(format!(
                "cache action must be stat | clear | prune, got {other:?}"
            )))
        }
    };
    let mut dir = None;
    let mut max_bytes = None;
    while let Some(arg) = iter.next() {
        match arg {
            "--cache-dir" => dir = Some(take_value(arg, &mut iter)?.to_string()),
            "--max-bytes" if matches!(action, CacheAction::Prune { .. }) => {
                max_bytes = Some(parse_num(arg, take_value(arg, &mut iter)?)?)
            }
            other => return Err(ArgError::new(format!("unknown flag {other:?}"))),
        }
    }
    let action = match action {
        CacheAction::Prune { .. } => CacheAction::Prune {
            max_bytes: max_bytes
                .ok_or_else(|| ArgError::new("cache prune requires --max-bytes"))?,
        },
        other => other,
    };
    Ok(Command::Cache(CacheArgs { action, dir }))
}

fn parse_serve<'a, I: Iterator<Item = &'a str>>(mut iter: I) -> Result<Command, ArgError> {
    let mut socket = None;
    let mut listen = None;
    let mut tau = 128usize;
    let mut memory_budget = None;
    let mut snapshot_every = 0u64;
    let mut cache_dir = None;
    let mut trace = None;
    while let Some(arg) = iter.next() {
        match arg {
            "--socket" => socket = Some(take_value(arg, &mut iter)?.to_string()),
            "--listen" => listen = Some(take_value(arg, &mut iter)?.to_string()),
            "--tau" => tau = parse_num(arg, take_value(arg, &mut iter)?)?,
            "--memory-budget" => memory_budget = Some(parse_num(arg, take_value(arg, &mut iter)?)?),
            "--snapshot-every" => snapshot_every = parse_num(arg, take_value(arg, &mut iter)?)?,
            "--cache-dir" => cache_dir = Some(take_value(arg, &mut iter)?.to_string()),
            "--trace" => trace = Some(take_value(arg, &mut iter)?.to_string()),
            other => return Err(ArgError::new(format!("unknown flag {other:?}"))),
        }
    }
    if socket.is_none() && listen.is_none() {
        return Err(ArgError::new(
            "serve requires an endpoint: --socket PATH and/or --listen tcp://HOST:PORT",
        ));
    }
    if tau == 0 {
        return Err(ArgError::new("--tau must be at least 1"));
    }
    Ok(Command::Serve(ServeArgs {
        socket,
        listen,
        tau,
        memory_budget,
        snapshot_every,
        cache_dir,
        trace,
    }))
}

fn parse_generate<'a, I: Iterator<Item = &'a str>>(mut iter: I) -> Result<Command, ArgError> {
    let mut dataset = None;
    let mut n = None;
    let mut outliers = 0usize;
    let mut seed = 0u64;
    let mut output = None;
    while let Some(arg) = iter.next() {
        match arg {
            "--dataset" => dataset = Some(take_value(arg, &mut iter)?.to_string()),
            "--n" => n = Some(parse_num(arg, take_value(arg, &mut iter)?)?),
            "--outliers" => outliers = parse_num(arg, take_value(arg, &mut iter)?)?,
            "--seed" => seed = parse_num(arg, take_value(arg, &mut iter)?)?,
            "--output" => output = Some(take_value(arg, &mut iter)?.to_string()),
            other => return Err(ArgError::new(format!("unknown flag {other:?}"))),
        }
    }
    let dataset = dataset.ok_or_else(|| ArgError::new("generate requires --dataset"))?;
    if !matches!(dataset.as_str(), "higgs" | "power" | "wiki") {
        return Err(ArgError::new(format!(
            "--dataset must be higgs | power | wiki, got {dataset:?}"
        )));
    }
    let n = n.ok_or_else(|| ArgError::new("generate requires --n"))?;
    let output = output.ok_or_else(|| ArgError::new("generate requires --output"))?;
    Ok(Command::Generate(GenerateArgs {
        dataset,
        n,
        outliers,
        seed,
        output,
    }))
}

fn parse_info<'a, I: Iterator<Item = &'a str>>(mut iter: I) -> Result<Command, ArgError> {
    let mut input = None;
    while let Some(arg) = iter.next() {
        match arg {
            "--input" => input = Some(take_value(arg, &mut iter)?.to_string()),
            other => return Err(ArgError::new(format!("unknown flag {other:?}"))),
        }
    }
    let input = input.ok_or_else(|| ArgError::new("info requires --input"))?;
    Ok(Command::Info(InfoArgs { input }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_cluster() {
        let cmd = parse(["cluster", "--input", "pts.csv", "--k", "5"]).unwrap();
        match cmd {
            Command::Cluster(args) => {
                assert_eq!(args.input, "pts.csv");
                assert_eq!(args.k, 5);
                assert_eq!(args.z, 0);
                assert_eq!(args.algo, Algo::Sequential);
                assert_eq!(args.normalize, Normalize::Zscore);
                assert_eq!(args.ell, 0);
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn parses_full_cluster() {
        let cmd = parse([
            "cluster",
            "--input",
            "a.csv",
            "--k",
            "10",
            "--z",
            "20",
            "--algo",
            "mr-randomized",
            "--ell",
            "8",
            "--mu",
            "2",
            "--normalize",
            "minmax",
            "--output",
            "c.csv",
            "--seed",
            "7",
            "--cache-dir",
            "/tmp/kc-cache",
            "--trace",
            "/tmp/run.jsonl",
            "--report",
            "json",
        ])
        .unwrap();
        assert_eq!(
            cmd,
            Command::Cluster(ClusterArgs {
                input: "a.csv".into(),
                k: 10,
                z: 20,
                algo: Algo::MrRandomized,
                ell: 8,
                procs: 0,
                workers: vec![],
                mu: 2,
                normalize: Normalize::MinMax,
                output: Some("c.csv".into()),
                seed: 7,
                cache_dir: Some("/tmp/kc-cache".into()),
                trace: Some("/tmp/run.jsonl".into()),
                report: ReportFormat::Json,
            })
        );
        // --report defaults to text and rejects unknown renderings.
        assert!(parse(["cluster", "--input", "a.csv", "--k", "2", "--report", "xml"]).is_err());
    }

    #[test]
    fn parses_procs_for_mapreduce_algorithms() {
        let cmd = parse([
            "cluster", "--input", "a.csv", "--k", "4", "--algo", "mr", "--procs", "4",
        ])
        .unwrap();
        match cmd {
            Command::Cluster(args) => {
                assert_eq!(args.procs, 4);
                assert_eq!(args.ell, 0);
            }
            other => panic!("wrong command {other:?}"),
        }
        // --ell may be given redundantly, but only if it agrees.
        assert!(parse([
            "cluster", "--input", "a.csv", "--k", "4", "--algo", "mr", "--procs", "4", "--ell",
            "4",
        ])
        .is_ok());
        assert!(parse([
            "cluster", "--input", "a.csv", "--k", "4", "--algo", "mr", "--procs", "4", "--ell",
            "2",
        ])
        .is_err());
        // Non-MapReduce algorithms cannot run multi-process.
        for algo in ["gmm", "seq", "stream", "charikar"] {
            assert!(
                parse(["cluster", "--input", "a.csv", "--k", "4", "--algo", algo, "--procs", "2",])
                    .is_err(),
                "--procs accepted for {algo}"
            );
        }
    }

    #[test]
    fn parses_workers_for_the_tcp_transport() {
        let cmd = parse([
            "cluster",
            "--input",
            "a.csv",
            "--k",
            "4",
            "--algo",
            "mr",
            "--procs",
            "2",
            "--workers",
            "127.0.0.1:4700, 127.0.0.1:4701",
        ])
        .unwrap();
        match cmd {
            Command::Cluster(args) => {
                assert_eq!(args.procs, 2);
                assert_eq!(args.workers, vec!["127.0.0.1:4700", "127.0.0.1:4701"]);
            }
            other => panic!("wrong command {other:?}"),
        }
        // --workers without --procs is an error…
        assert!(parse([
            "cluster",
            "--input",
            "a.csv",
            "--k",
            "4",
            "--algo",
            "mr",
            "--workers",
            "127.0.0.1:4700",
        ])
        .is_err());
        // …as is asking for more connections than addresses.
        assert!(parse([
            "cluster",
            "--input",
            "a.csv",
            "--k",
            "4",
            "--algo",
            "mr",
            "--procs",
            "3",
            "--workers",
            "127.0.0.1:4700,127.0.0.1:4701",
        ])
        .is_err());
    }

    #[test]
    fn parses_hidden_worker_subcommand() {
        let cmd = parse(["worker", "--shard", "s.kca", "--out", "o.kca"]).unwrap();
        assert_eq!(
            cmd,
            Command::ExecWorker(vec![
                "--shard".into(),
                "s.kca".into(),
                "--out".into(),
                "o.kca".into(),
            ])
        );
    }

    #[test]
    fn parses_cache_prune() {
        assert_eq!(
            parse(["cache", "prune", "--max-bytes", "1048576"]).unwrap(),
            Command::Cache(CacheArgs {
                action: CacheAction::Prune {
                    max_bytes: 1_048_576
                },
                dir: None,
            })
        );
        assert_eq!(
            parse([
                "cache",
                "prune",
                "--max-bytes",
                "0",
                "--cache-dir",
                "/tmp/kc"
            ])
            .unwrap(),
            Command::Cache(CacheArgs {
                action: CacheAction::Prune { max_bytes: 0 },
                dir: Some("/tmp/kc".into()),
            })
        );
        assert!(parse(["cache", "prune", "--max-bytes"]).is_err());
        assert!(parse(["cache", "prune", "--max-bytes", "x"]).is_err());
        // --max-bytes is prune-only.
        assert!(parse(["cache", "stat", "--max-bytes", "1"]).is_err());
    }

    #[test]
    fn parses_cache_subcommand() {
        assert_eq!(
            parse(["cache", "stat"]).unwrap(),
            Command::Cache(CacheArgs {
                action: CacheAction::Stat,
                dir: None,
            })
        );
        assert_eq!(
            parse(["cache", "clear", "--cache-dir", "/tmp/kc"]).unwrap(),
            Command::Cache(CacheArgs {
                action: CacheAction::Clear,
                dir: Some("/tmp/kc".into()),
            })
        );
        assert!(parse(["cache"]).is_err());
        assert!(parse(["cache", "prune"]).is_err());
        assert!(parse(["cache", "stat", "--verbose"]).is_err());
        assert!(parse(["cache", "stat", "--cache-dir"]).is_err());
    }

    #[test]
    fn parses_serve_subcommand() {
        assert_eq!(
            parse(["serve", "--socket", "/tmp/kc.sock"]).unwrap(),
            Command::Serve(ServeArgs {
                socket: Some("/tmp/kc.sock".into()),
                listen: None,
                tau: 128,
                memory_budget: None,
                snapshot_every: 0,
                cache_dir: None,
                trace: None,
            })
        );
        assert_eq!(
            parse([
                "serve",
                "--socket",
                "/tmp/kc.sock",
                "--tau",
                "32",
                "--memory-budget",
                "5000",
                "--snapshot-every",
                "1000",
                "--cache-dir",
                "/tmp/kc-cache",
                "--trace",
                "/tmp/serve.jsonl",
            ])
            .unwrap(),
            Command::Serve(ServeArgs {
                socket: Some("/tmp/kc.sock".into()),
                listen: None,
                tau: 32,
                memory_budget: Some(5000),
                snapshot_every: 1000,
                cache_dir: Some("/tmp/kc-cache".into()),
                trace: Some("/tmp/serve.jsonl".into()),
            })
        );
        // A TCP listener works alone or alongside the unix socket.
        assert_eq!(
            parse(["serve", "--listen", "tcp://127.0.0.1:4800"]).unwrap(),
            Command::Serve(ServeArgs {
                socket: None,
                listen: Some("tcp://127.0.0.1:4800".into()),
                tau: 128,
                memory_budget: None,
                snapshot_every: 0,
                cache_dir: None,
                trace: None,
            })
        );
        match parse([
            "serve",
            "--socket",
            "/tmp/kc.sock",
            "--listen",
            "tcp://127.0.0.1:0",
        ])
        .unwrap()
        {
            Command::Serve(args) => {
                assert_eq!(args.socket.as_deref(), Some("/tmp/kc.sock"));
                assert_eq!(args.listen.as_deref(), Some("tcp://127.0.0.1:0"));
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(parse(["serve"]).is_err()); // no endpoint at all
        assert!(parse(["serve", "--socket", "/tmp/s", "--tau", "0"]).is_err());
        assert!(parse(["serve", "--socket", "/tmp/s", "--warp", "9"]).is_err());
    }

    #[test]
    fn parses_generate_and_info() {
        let cmd = parse([
            "generate",
            "--dataset",
            "power",
            "--n",
            "100",
            "--outliers",
            "5",
            "--output",
            "p.csv",
        ])
        .unwrap();
        assert_eq!(
            cmd,
            Command::Generate(GenerateArgs {
                dataset: "power".into(),
                n: 100,
                outliers: 5,
                seed: 0,
                output: "p.csv".into(),
            })
        );
        let cmd = parse(["info", "--input", "p.csv"]).unwrap();
        assert_eq!(
            cmd,
            Command::Info(InfoArgs {
                input: "p.csv".into()
            })
        );
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(parse([]).is_err());
        assert!(parse(["fly"]).is_err());
        assert!(parse(["cluster", "--k", "3"]).is_err()); // no input
        assert!(parse(["cluster", "--input", "a.csv"]).is_err()); // no k
        assert!(parse(["cluster", "--input", "a.csv", "--k", "x"]).is_err());
        assert!(parse(["cluster", "--input", "a.csv", "--k", "3", "--algo", "magic"]).is_err());
        assert!(parse(["cluster", "--input", "a.csv", "--k", "3", "--mu", "0"]).is_err());
        let err = parse(["cluster", "--input", "a.csv", "--k", "0"]).unwrap_err();
        assert!(err.to_string().contains("--k must be at least 1"), "{err}");
        assert!(parse([
            "generate",
            "--dataset",
            "mnist",
            "--n",
            "5",
            "--output",
            "x"
        ])
        .is_err());
        assert!(parse(["cluster", "--input"]).is_err()); // dangling value
    }

    #[test]
    fn help_is_reported_through_error_channel() {
        let err = parse(["--help"]).unwrap_err();
        assert!(err.to_string().contains("USAGE"));
    }
}
