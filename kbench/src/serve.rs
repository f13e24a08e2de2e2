//! `serve-mixed`: a `kcenter serve` session mix. Sixteen sessions,
//! alternating Power-like (7-d) and Wiki-like (50-d) streams, are split
//! over two connections, one unix and one TCP.
//!
//! * Phase A, closed loop from one generator thread: a fixed number of
//!   1,024-point ingests, round-robin over the sessions, alternating
//!   between the connections — ingest throughput. The work is fixed, not
//!   the time, so every session holds the same points when phase B
//!   starts, however fast the program ingests.
//! * Phase B, half the run, open loop from two generator threads, one per
//!   connection: a precomputed Poisson schedule at a fixed rate;
//!   85% of requests ingest 64 points and 15% query (k fixed per session,
//!   z = 32, ε = 0.25). Sessions are drawn Zipf(1.0), so under the memory
//!   budget the cold tail is evicted and restored. Latency runs from each
//!   request's due time.
//!
//! Every answer is checked against a never-evicting in-process
//! `SessionRegistry` fed the same per-session sequence. The traced
//! variant also replays the sequence, in send order, on an in-process
//! registry configured like the server, and on plain coresets whose
//! solves are timed layer by layer.

use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

use kcenter_core::radius_search::{default_matrix_threshold, solve_coreset_cached, SearchMode};
use kcenter_core::WeightedDoublingCoreset;
use kcenter_metric::{CachedOracle, Euclidean, Point};
use kcenter_obs::json::{self, Json};
use kcenter_serve::server::reply_field;
use kcenter_serve::{
    run_server_on, QueryAnswer, RegistryConfig, ServeClient, ServeEndpoint, SessionRegistry,
};
use kcenter_store::ArtifactStore;
use kcenter_stream::StreamingAlgorithm;

use crate::procs::Owned;
use crate::replay::same_points;
use crate::report::Report;
use crate::stats::{self, Due};
use crate::Ctx;

const SESSIONS: usize = 16;
/// Sessions per connection; connection `c` owns sessions `8c..8c+8`.
const PER_CONN: usize = 8;
const TAU: usize = 128;
/// Resident coreset points across sessions. A Power-like session's
/// coreset holds about τ points and a Wiki-like one's only one or two
/// (its distances concentrate), so about four Power sessions fit and the
/// Zipf tail is evicted and restored.
const BUDGET: usize = 512;
const SNAPSHOT_EVERY: u64 = 4096;
/// Points generated per session; streams cycle through them.
const POOL: usize = 4096;
/// Phase-A batch size: large enough that throughput is bound by parsing
/// and ingest rather than by the round trip's wake-ups.
const BATCH_A: usize = 1024;
/// Phase-A batches a session gets per round-robin visit. Round-robin
/// over more sessions than the budget holds misses the LRU on every
/// touch; bursts keep phase A about ingest rather than eviction churn.
const BURST_A: usize = 2;
/// Sizes phase A's fixed work: the points a phase of half the run's
/// length ingests at this rate, about what one generator sustained on a
/// 2-vCPU machine when the benchmark was written. The phase's actual
/// length follows the program's speed.
const PLANNED_POINTS_PER_S: f64 = 220_000.0;
const BATCH_B: usize = 64;
const QUERY_SHARE: f64 = 0.15;
const Z: u64 = 32;
const EPS: f64 = 0.25;
/// Phase B's request rate over both connections, fixed so that every
/// commit is offered the same load. Calibrated once, when the benchmark
/// was written, at half the request rate of phase A's requests sent by
/// two generators at once, one per connection: over 40 runs (seeds 11 to
/// 50) on a 2-vCPU machine they ingested 289,300 to 497,700 points/s,
/// median 376,550, or 368 requests of 1,024 points per second, hence 184.
/// At that rate each connection is busy less than a tenth of the time, so
/// latency is mostly service rather than queueing, which magnifies every
/// slowdown of a shared machine: over ten seeds run interleaved, the
/// quartile spread of the median latency was 3.5% at 184, 10% at 370 and
/// 17% at 670 requests/s.
const RATE: f64 = 184.0;
const TENANT: &str = "kbench";

/// The server's registry configuration.
fn server_config() -> RegistryConfig {
    RegistryConfig {
        tau: TAU,
        memory_budget_points: Some(BUDGET),
        snapshot_every: SNAPSHOT_EVERY,
        ..RegistryConfig::default()
    }
}

/// The hidden `serve UNIX TCP STORE` mode: `kcenter serve` with the
/// workload's registry configuration.
pub fn server_main(args: &[String]) -> i32 {
    let [unix, tcp, store] = args else {
        eprintln!("kbench serve: expected UNIX TCP STORE");
        return 2;
    };
    let served = ArtifactStore::open(store)
        .map_err(|e| e.to_string())
        .and_then(|store| {
            SessionRegistry::new(Euclidean, server_config(), Some(store)).map_err(|e| e.to_string())
        })
        .and_then(|registry| {
            let endpoints = [
                ServeEndpoint::Unix(unix.into()),
                ServeEndpoint::Tcp(tcp.clone()),
            ];
            run_server_on(&endpoints, registry).map_err(|e| e.to_string())
        });
    match served {
        Ok(()) => 0,
        Err(err) => {
            eprintln!("kbench serve: {err}");
            1
        }
    }
}

/// One session's stream: a generated pool, cycled, and its wire form.
struct Session {
    stream: String,
    k: usize,
    pool: Vec<Point>,
    wire: Vec<String>,
}

impl Session {
    fn new(index: usize, seed: u64, pool_size: usize) -> Session {
        let stream_seed = seed.wrapping_mul(0x9E37_79B9).wrapping_add(index as u64);
        let pool = if index.is_multiple_of(2) {
            kcenter_data::power_like(pool_size, stream_seed)
        } else {
            kcenter_data::wiki_like(pool_size, stream_seed)
        };
        // The protocol's point encoding: shortest round-trip coordinates,
        // comma-separated. Formatted once here, outside the measurement.
        let wire = pool
            .iter()
            .map(|p| {
                let coords: Vec<String> = p.coords().iter().map(f64::to_string).collect();
                coords.join(",")
            })
            .collect();
        Session {
            stream: format!("s{index:02}"),
            k: if index % 4 < 2 { 10 } else { 20 },
            pool,
            wire,
        }
    }

    fn span(&self, from: usize, count: usize) -> impl Iterator<Item = usize> + '_ {
        (from..from + count).map(|i| i % self.pool.len())
    }

    fn points(&self, from: usize, count: usize) -> Vec<Point> {
        self.span(from, count)
            .map(|i| self.pool[i].clone())
            .collect()
    }

    fn ingest_frame(&self, from: usize, count: usize) -> Vec<String> {
        let mut parts = vec!["ingest".into(), TENANT.into(), self.stream.clone()];
        parts.extend(self.span(from, count).map(|i| self.wire[i].clone()));
        parts
    }

    fn query_frame(&self) -> Vec<String> {
        let args = [self.k.to_string(), Z.to_string(), EPS.to_string()];
        let mut parts = vec!["query".into(), TENANT.into(), self.stream.clone()];
        parts.extend(args);
        parts
    }
}

#[derive(Clone, Copy)]
enum Kind {
    Ingest { from: usize, count: usize },
    Query,
}

/// One request as sent, with the server's reply.
struct Logged {
    session: usize,
    kind: Kind,
    sent: Instant,
    done: Instant,
    phase_b: bool,
    reply: Result<Vec<String>, String>,
}

/// One phase-B request's timings, in seconds.
struct Sample {
    query: bool,
    latency: f64,
    late: f64,
    backlog: usize,
}

/// Sends one request; logs it with its reply and its send and reply times.
fn send(
    client: &mut ServeClient,
    s: &Session,
    session: usize,
    kind: Kind,
    phase_b: bool,
) -> Logged {
    let frame = match kind {
        Kind::Ingest { from, count } => s.ingest_frame(from, count),
        Kind::Query => s.query_frame(),
    };
    let sent = Instant::now();
    let reply = client.request(&frame).map_err(|e| e.to_string());
    Logged {
        session,
        kind,
        sent,
        done: Instant::now(),
        phase_b,
        reply,
    }
}

/// Phase A from one generator thread: `rounds` round-robin visits over
/// every session, each a burst of ingests on the session's connection,
/// alternating between the connections. One request is in flight at a
/// time: with two, the generators, server threads and ingest feeders
/// outnumber the cores, and the rate measured how the machine's scheduler
/// shared them. On a 2-vCPU machine, one busy thread beside the benchmark
/// halved the two-generator rate but took 16 to 22% off this one.
fn phase_a(
    clients: &mut [ServeClient],
    sessions: &[Session],
    cursors: &mut [usize],
    rounds: usize,
) -> Vec<Logged> {
    let mut log = Vec::new();
    for _ in 0..rounds {
        for slot in 0..PER_CONN {
            for (c, client) in clients.iter_mut().enumerate() {
                let session = c * PER_CONN + slot;
                for _ in 0..BURST_A {
                    let kind = Kind::Ingest {
                        from: cursors[session],
                        count: BATCH_A,
                    };
                    log.push(send(client, &sessions[session], session, kind, false));
                    cursors[session] += BATCH_A;
                }
            }
        }
    }
    log
}

/// Sleeps until shortly before `due`, then spins: a sleeping thread
/// wakes tens of microseconds late, which would count as latency.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(200);
    if let Some(wait) = due.checked_duration_since(Instant::now() + SPIN) {
        std::thread::sleep(wait);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// Phase B on one connection: `schedule` from `start`, one request at a
/// time, each timed from its due time.
fn phase_b(
    client: &mut ServeClient,
    sessions: &[Session],
    first: usize,
    cursors: &mut [usize],
    schedule: &[Due],
    start: Instant,
) -> (Vec<Logged>, Vec<Sample>) {
    let dues: Vec<f64> = schedule.iter().map(|d| d.at).collect();
    let mut log = Vec::with_capacity(schedule.len());
    let mut samples = Vec::with_capacity(schedule.len());
    let mut free_at = 0.0;
    for (index, due) in schedule.iter().enumerate() {
        let due_at = start + Duration::from_secs_f64(due.at);
        wait_until(due_at);
        let kind = if due.query {
            Kind::Query
        } else {
            let from = cursors[due.session];
            cursors[due.session] += BATCH_B;
            Kind::Ingest {
                from,
                count: BATCH_B,
            }
        };
        let session = first + due.session;
        let logged = send(client, &sessions[session], session, kind, true);
        let sent = logged.sent.duration_since(start).as_secs_f64();
        samples.push(Sample {
            query: due.query,
            latency: logged.done.saturating_duration_since(due_at).as_secs_f64(),
            late: stats::lateness(due.at, free_at, sent),
            backlog: stats::backlog(&dues, index, sent),
        });
        free_at = logged.done.duration_since(start).as_secs_f64();
        log.push(logged);
    }
    (log, samples)
}

/// Runs the workload and fills `rep`.
pub fn run(ctx: &Ctx, rep: &mut Report) -> Result<(), String> {
    let pool_size = ctx.scale(POOL);
    let socket = ctx.dir.relative().join("serve.sock");
    let store = ctx.dir.path().join("store");
    let make = || {
        let sessions: Vec<Session> = (0..SESSIONS)
            .map(|i| Session::new(i, ctx.seed, pool_size))
            .collect();
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut cmd = Command::new(exe);
        cmd.arg("serve").arg(&socket).arg("127.0.0.1:0").arg(&store);
        let mut server = Owned::spawn(cmd)?;
        server.announced("kcenter-serve: listening on unix:")?;
        let tcp = server.announced("kcenter-serve: listening on tcp://")?;
        Ok((sessions, server, tcp))
    };
    let stop = |(_, server, _), rep: &mut Report| {
        stop_server(server, &socket, rep);
    };
    let (sessions, server, tcp) = ctx.setup(rep, make, stop)?;
    let connect = |unix: bool| -> Result<ServeClient, String> {
        let mut client = if unix {
            ServeClient::connect(&socket)
        } else {
            ServeClient::connect_tcp(&tcp)
        }
        .map_err(|e| format!("connecting: {e}"))?;
        client
            .hello(Some(TAU as u64))
            .map_err(|e| format!("hello: {e}"))?;
        Ok(client)
    };
    let mut clients = [connect(true)?, connect(false)?];
    let (seconds_a, seconds_b) = (ctx.seconds / 2.0, ctx.seconds / 2.0);
    let round_points = (SESSIONS * BURST_A * BATCH_A) as f64;
    let rounds = (seconds_a * PLANNED_POINTS_PER_S / round_points)
        .round()
        .max(1.0) as usize;
    let schedules: Vec<Vec<Due>> = (0..2u64)
        .map(|c| {
            let seed = ctx.seed ^ (0x5EED << c);
            stats::open_loop_schedule(seed, RATE / 2.0, seconds_b, PER_CONN, QUERY_SHARE)
        })
        .collect();
    let mut cursors = [0usize; SESSIONS];

    let log_a = phase_a(&mut clients, &sessions, &mut cursors, rounds);
    let before = scrape(&mut clients[0])?;

    let start_b = Instant::now() + Duration::from_millis(20);
    let phase_b_out: Vec<(Vec<Logged>, Vec<Sample>)> = std::thread::scope(|scope| {
        let threads: Vec<_> = clients
            .iter_mut()
            .zip(cursors.chunks_mut(PER_CONN))
            .zip(&schedules)
            .enumerate()
            .map(|(c, ((client, cursors), schedule))| {
                let sessions = &sessions;
                scope.spawn(move || {
                    phase_b(client, sessions, c * PER_CONN, cursors, schedule, start_b)
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("phase B generator"))
            .collect()
    });
    let after = scrape(&mut clients[0])?;

    let peak_rss = server
        .peak_rss_mb()
        .unwrap_or(0.0)
        .max(crate::own_peak_rss_mb());
    drop(clients);
    let shutdown = stop_server(server, &socket, rep);
    rep.put("serve.shutdown_s", shutdown, "s", 1);

    // Phase-A throughput: the median over rounds of a round's points over
    // the time from its first send to its last reply. A stall in a few
    // rounds, such as a burst of snapshots or a busy neighbour on the
    // machine, moves a median over 80-odd rounds less than it moves the
    // whole phase's points over its wall time.
    let round_rate = |round: &[Logged]| {
        let seconds = round[round.len() - 1].done.duration_since(round[0].sent);
        (round.len() * BATCH_A) as f64 / seconds.as_secs_f64()
    };
    let rates: Vec<f64> = log_a.chunks(SESSIONS * BURST_A).map(round_rate).collect();

    let (logs_b, samples): (Vec<Vec<Logged>>, Vec<Vec<Sample>>) = phase_b_out.into_iter().unzip();
    let samples: Vec<Sample> = samples.into_iter().flatten().collect();
    let logs: Vec<Logged> = log_a
        .into_iter()
        .chain(logs_b.into_iter().flatten())
        .collect();
    check_against_reference(&sessions, &logs, rep)?;

    // Phase-B radii by session. `radius_mean` weighs every session alike:
    // a plain mean over answers would follow how many queries the Zipf
    // draw sent to Power-like sessions, since Wiki-like ones answer with
    // radius 0 (their coreset holds fewer points than k), and that share
    // varies from seed to seed.
    let mut radii = vec![Vec::new(); SESSIONS];
    for l in logs
        .iter()
        .filter(|l| l.phase_b && matches!(l.kind, Kind::Query))
    {
        if let Some(a) = l.reply.as_ref().ok().and_then(|r| answer(r).ok()) {
            radii[l.session].push(a.radius);
        }
    }
    let session_means: Vec<f64> = radii
        .iter()
        .filter(|r| !r.is_empty())
        .map(|r| r.iter().sum::<f64>() / r.len() as f64)
        .collect();
    let latency = |verb: Option<bool>| -> Vec<f64> {
        let of_verb = |s: &&Sample| verb.is_none_or(|query| s.query == query);
        samples.iter().filter(of_verb).map(|s| s.latency).collect()
    };
    rep.put_median("op_ms_p50", &latency(None), 1e3, "ms");
    rep.put_median("points_per_s", &rates, 1.0, "points/s");
    rep.put("peak_rss_mb", peak_rss, "MB", 1);
    if !session_means.is_empty() {
        rep.put(
            "radius_mean",
            session_means.iter().sum::<f64>() / session_means.len() as f64,
            "dist",
            radii.iter().map(Vec::len).sum(),
        );
    }
    let (ingest, query) = (latency(Some(false)), latency(Some(true)));
    rep.put_median("serve.ingest_ms_p50", &ingest, 1e3, "ms");
    rep.put_tail("serve.ingest_ms_p90", &ingest, 0.90, 1e3, "ms");
    rep.put_median("serve.query_ms_p50", &query, 1e3, "ms");
    rep.put_tail("serve.query_ms_p90", &query, 0.90, 1e3, "ms");
    let late: Vec<f64> = samples.iter().map(|s| s.late).collect();
    rep.put_tail("bench.gen_late_ms_p99", &late, 0.99, 1e3, "ms");
    let backlog = samples.iter().map(|s| s.backlog).max().unwrap_or(0);
    rep.put("bench.backlog_max", backlog as f64, "count", samples.len());
    scrape_deltas(&before, &after, rep);

    if ctx.tracer.enabled() {
        traced_replays(ctx, &sessions, &logs, rep)?;
    }
    Ok(())
}

/// Asks the server to shut down over a fresh unix connection and waits
/// for it to exit, killing it past the stop limit. Every other connection
/// must be closed first: the server waits for each open connection to
/// end. Counts one operation; returns the seconds from asking to exit.
fn stop_server(server: Owned, socket: &Path, rep: &mut Report) -> f64 {
    let asked = Instant::now();
    let bye = ServeClient::connect(socket).and_then(|mut client| client.shutdown());
    let exited = server.await_exit();
    let seconds = asked.elapsed().as_secs_f64();
    rep.op(bye.is_ok() && exited, || {
        format!("server shutdown: reply {bye:?}, exited by itself: {exited}")
    });
    seconds
}

/// A query reply, parsed.
fn answer(reply: &[String]) -> Result<QueryAnswer, String> {
    let field = |key: &str| reply_field(reply, key).ok_or(format!("reply lacks {key}"));
    let number = |key: &str| -> Result<f64, String> {
        field(key)?.parse().map_err(|e| format!("{key}: {e}"))
    };
    let count: usize = number("centers")? as usize;
    let first = reply
        .iter()
        .position(|p| p.starts_with("centers="))
        .ok_or("reply lacks centers")?
        + 1;
    let centers = reply
        .get(first..first + count)
        .ok_or("reply has too few centers")?
        .iter()
        .map(|c| {
            let coords: Result<Vec<f64>, _> = c.split(',').map(str::parse).collect();
            coords.map(Point::new).map_err(|e| format!("center: {e}"))
        })
        .collect::<Result<Vec<Point>, String>>()?;
    Ok(QueryAnswer {
        centers,
        radius: number("radius")?,
        uncovered_weight: number("uncovered")? as u64,
        processed: number("processed")? as u64,
        cached: field("cached")? == "true",
    })
}

/// Counts one operation per logged request: its reply must match what a
/// never-evicting in-process registry answers for the same per-session
/// sequence. Sessions belong to one connection each, so each
/// connection's log is that sequence.
fn check_against_reference(
    sessions: &[Session],
    logs: &[Logged],
    rep: &mut Report,
) -> Result<(), String> {
    let config = RegistryConfig {
        tau: TAU,
        ..RegistryConfig::default()
    };
    let reference = SessionRegistry::new(Euclidean, config, None).map_err(|e| e.to_string())?;
    for l in logs {
        let s = &sessions[l.session];
        let verdict = (|| -> Result<(), String> {
            let reply = l.reply.as_ref().map_err(|e| format!("server error {e}"))?;
            match l.kind {
                Kind::Ingest { from, count } => {
                    let expected = reference
                        .ingest(TENANT, &s.stream, s.points(from, count))
                        .map_err(|e| e.to_string())?;
                    let processed = reply_field(reply, "processed").unwrap_or("");
                    (processed == expected.processed.to_string())
                        .then_some(())
                        .ok_or(format!(
                            "processed {processed}, expected {}",
                            expected.processed
                        ))
                }
                Kind::Query => {
                    let expected = reference
                        .query(TENANT, &s.stream, s.k, Z, EPS)
                        .map_err(|e| e.to_string())?;
                    let got = answer(reply)?;
                    let same = got.radius.to_bits() == expected.radius.to_bits()
                        && got.uncovered_weight == expected.uncovered_weight
                        && got.processed == expected.processed
                        && same_points(&got.centers, &expected.centers);
                    same.then_some(())
                        .ok_or("answer differs from the reference".into())
                }
            }
        })();
        rep.op(verdict.is_ok(), || {
            format!("{} {:?}", s.stream, verdict.err())
        });
    }
    Ok(())
}

/// Counters and histogram sums from the server's `metrics json` scrape.
fn scrape(client: &mut ServeClient) -> Result<Vec<(String, f64, f64)>, String> {
    let body = client
        .metrics(Some("json"))
        .map_err(|e| format!("metrics scrape: {e}"))?;
    let doc = json::parse(&body)?;
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_array)
        .ok_or("scrape has no metrics")?;
    Ok(metrics
        .iter()
        .filter_map(|m| {
            let name = m.get("name")?.as_str()?.to_string();
            let num = |key: &str| m.get(key).and_then(Json::as_f64);
            // Counters carry a value; histograms a count and a sum.
            let (count, sum) = match num("value") {
                Some(v) => (v, 0.0),
                None => (num("count")?, num("sum_micros")?),
            };
            Some((name, count, sum))
        })
        .collect())
}

/// The server-side view of phase B: changes between two scrapes. A
/// metric whose counters the second scrape lacks is left unmeasured.
fn scrape_deltas(before: &[(String, f64, f64)], after: &[(String, f64, f64)], rep: &mut Report) {
    let delta = |name: &str| {
        let get = |set: &[(String, f64, f64)]| {
            set.iter()
                .find(|(n, _, _)| n == name)
                .map(|&(_, c, s)| (c, s))
        };
        let (c1, s1) = get(after)?;
        let (c0, s0) = get(before).unwrap_or((0.0, 0.0));
        Some((c1 - c0, s1 - s0))
    };
    let mean = |name: &str| {
        let (count, sum) = delta(name)?;
        (count > 0.0).then(|| (sum / count, count as usize))
    };
    if let Some((us, n)) = mean("serve.ingest.micros") {
        rep.put("serve.ingest_process_us_mean", us, "us", n);
    }
    if let Some((us, n)) = mean("serve.query.solve.micros") {
        rep.put("serve.query_solve_us_mean", us, "us", n);
    }
    if let (Some((queries, _)), Some((cached, _))) =
        (delta("serve.queries"), delta("serve.queries.cached"))
    {
        if queries > 0.0 {
            let frac = cached / queries;
            rep.put("serve.queries_cached_frac", frac, "frac", queries as usize);
        }
    }
    for name in ["serve.snapshots", "serve.restores", "serve.evictions"] {
        if let Some((count, _)) = delta(name) {
            rep.put(name, count, "count", 1);
        }
    }
}

/// The traced variant's replays, in send order. Phase A only builds
/// state; phase-B requests are timed on an in-process registry configured
/// like the server, and every query that would solve is re-solved on a
/// plain coreset fed the same points, with the matrix build and the
/// radius search in spans of their own. The socket's share of a request
/// is its service time, from the send to the reply, less the replayed
/// registry call's time for the same request: framing, the text codec,
/// the socket and waiting for the registry lock.
fn traced_replays(
    ctx: &Ctx,
    sessions: &[Session],
    logs: &[Logged],
    rep: &mut Report,
) -> Result<(), String> {
    let tr = &ctx.tracer;
    let store =
        ArtifactStore::open(ctx.dir.path().join("replay-store")).map_err(|e| e.to_string())?;
    let registry =
        SessionRegistry::new(Euclidean, server_config(), Some(store)).map_err(|e| e.to_string())?;
    let mut coresets: Vec<_> = (0..SESSIONS)
        .map(|_| WeightedDoublingCoreset::new(Euclidean, TAU))
        .collect();
    let mut solved_at: Vec<Option<u64>> = vec![None; SESSIONS];
    let mut order: Vec<&Logged> = logs.iter().filter(|l| l.reply.is_ok()).collect();
    order.sort_by_key(|l| l.sent);
    let mut evaluations = Vec::new();
    // Per verb, ingest then query: the registry's and the socket's share.
    let mut registry_us = [Vec::new(), Vec::new()];
    let mut wire_us = [Vec::new(), Vec::new()];
    for (job, l) in order.into_iter().enumerate() {
        let (s, job) = (&sessions[l.session], job as u64);
        let service_us = l.done.duration_since(l.sent).as_secs_f64() * 1e6;
        let mut shares = |verb: usize, took: Duration| {
            let took_us = took.as_secs_f64() * 1e6;
            registry_us[verb].push(took_us);
            wire_us[verb].push(service_us - took_us);
        };
        match l.kind {
            Kind::Ingest { from, count } => {
                let points = s.points(from, count);
                for p in &points {
                    coresets[l.session].process(p.clone());
                }
                let ingest = || registry.ingest(TENANT, &s.stream, points);
                let result = if l.phase_b {
                    let (result, took) = tr.span("serve.registry_ingest", None, job, |_| ingest());
                    shares(0, took);
                    result
                } else {
                    ingest()
                };
                result.map_err(|e| format!("replayed ingest: {e}"))?;
            }
            Kind::Query => {
                let (result, took) = tr.span("serve.registry_query", None, job, |_| {
                    registry.query(TENANT, &s.stream, s.k, Z, EPS)
                });
                result.map_err(|e| format!("replayed query: {e}"))?;
                shares(1, took);
                let coreset = &coresets[l.session];
                if solved_at[l.session] == Some(coreset.processed()) {
                    continue;
                }
                solved_at[l.session] = Some(coreset.processed());
                let (oracle, _) = tr.span("metric.matrix_build", None, job, |_| {
                    let oracle = CachedOracle::new(
                        coreset.centers().to_vec(),
                        &Euclidean,
                        default_matrix_threshold(),
                    );
                    let _ = oracle.matrix();
                    oracle
                });
                let (solution, _) = tr.span("core.radius_search", None, job, |_| {
                    let weights = coreset.weights();
                    solve_coreset_cached(&oracle, weights, s.k, Z, EPS, SearchMode::GeometricGrid)
                });
                evaluations.push(solution.evaluations as f64);
                let served = l.reply.as_ref().ok().and_then(|r| answer(r).ok());
                let same = served.is_some_and(|a| a.radius.to_bits() == solution.r_min.to_bits());
                rep.op(same, || {
                    format!(
                        "{}: coreset re-solve differs from the served answer",
                        s.stream
                    )
                });
            }
        }
    }
    for (verb, name) in ["ingest", "query"].into_iter().enumerate() {
        rep.put_median(
            &format!("serve.registry_{name}_us_p50"),
            &registry_us[verb],
            1.0,
            "us",
        );
        rep.put_median(
            &format!("serve.wire_{name}_us_p50"),
            &wire_us[verb],
            1.0,
            "us",
        );
    }
    for layer in ["metric.matrix_build", "core.radius_search"] {
        rep.put_median(&format!("{layer}_s"), &tr.seconds(layer), 1.0, "s");
    }
    rep.put_median("core.search_evaluations", &evaluations, 1.0, "count");
    Ok(())
}
