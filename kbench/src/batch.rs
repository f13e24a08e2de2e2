//! `batch-inproc`: the `kcenter cluster --algo mr-outliers --k 20 --z 200
//! --ell 2 --mu 4` pipeline run in process, one job at a time — load the
//! CSV, z-score it, solve, write the centers back at data scale.
//!
//! The traced variant alternates those jobs with the same pipeline, the
//! MapReduce engine replaced by [`replay`], one span per layer.

use std::path::Path;

use kcenter_core::coreset::CoresetSpec;
use kcenter_core::mapreduce_outliers::{mr_kcenter_outliers, MrOutliersConfig};
use kcenter_core::solution::radius_with_outliers;
use kcenter_data::csv::{load_csv, save_csv};
use kcenter_data::Normalization;
use kcenter_metric::{Euclidean, Point};
use rayon::ThreadPool;

use crate::replay::{self, same_points, Outcome};
use crate::report::Report;
use crate::stats::median;
use crate::Ctx;

/// Input size: Higgs-like points plus planted outliers.
const N: usize = 100_000;
const PLANTED: usize = 200;
const K: usize = 20;
const Z: usize = 200;
const ELL: usize = 2;
const MU: usize = 4;

/// Layer spans of the traced job, reported as per-layer medians.
const LAYERS: [&str; 7] = [
    "data.load_csv",
    "data.normalize",
    "core.round1_coreset",
    "metric.matrix_build",
    "core.radius_search",
    "core.objective",
    "data.save_csv",
];

/// A job's answer plus the counts the report carries.
struct Done {
    outcome: Outcome,
    union_size: usize,
    search_evaluations: usize,
    dist_evals: Option<u64>,
}

/// Runs the workload and fills `rep`.
pub fn run(ctx: &Ctx, rep: &mut Report) -> Result<(), String> {
    let n = ctx.scale(N);
    let input = ctx.dir.path().join("input.csv");
    let output = ctx.dir.path().join("centers.csv");
    let make = || {
        let mut points = kcenter_data::higgs_like(n, ctx.seed);
        kcenter_data::inject_outliers(&mut points, PLANTED, ctx.seed ^ 0xBAD);
        save_csv(&input, &points).map_err(|e| format!("writing {input:?}: {e}"))?;
        Ok(points)
    };
    let points = ctx.setup(rep, make, |_, _| ())?;
    let config = MrOutliersConfig::deterministic(K, Z, ELL, CoresetSpec::Multiplier { mu: MU });
    // The engine's pool size is ℓ; the replay runs on a pool of the same size.
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(ELL)
        .build()
        .map_err(|e| e.to_string())?;
    // A traced run alternates engine jobs with replays, so the engine's
    // cost is a difference between interleaved jobs.
    let traced = ctx.tracer.enabled();
    let mut done = vec![plain_job(&input, &output, &config)]; // warm-up, checked like the rest
    let (mut engine, mut replays) = (Vec::new(), Vec::new());
    let (times, elapsed) = ctx.closed_loop(|job| {
        let replay = traced && job % 2 == 1;
        let (result, took) = ctx.tracer.span("job", None, job, |id| {
            if replay {
                traced_job(ctx, (job, id), &input, &output, &config, &pool)
            } else {
                plain_job(&input, &output, &config)
            }
        });
        done.push(result);
        let seconds = took.as_secs_f64();
        if replay {
            replays.push(seconds)
        } else {
            engine.push(seconds)
        }
        seconds
    });
    let peak_rss = crate::own_peak_rss_mb();

    // The reference solves the generated points directly, so it also
    // checks the CSV round trip; the saved centers must read back as its
    // centers at data scale.
    let norm = Normalization::zscore(&points);
    let reference = mr_kcenter_outliers(&norm.apply_all(&points), &Euclidean, &config)
        .map_err(|e| format!("reference solve: {e}"))?;
    let reference = Outcome::from(&reference);
    let inverted: Vec<Point> = reference.centers.iter().map(|c| norm.invert(c)).collect();
    let saved = load_csv(&output).map_err(|e| format!("reading {output:?}: {e}"))?;
    rep.op(same_points(&saved, &inverted), || {
        "saved centers differ from the reference".into()
    });
    for result in &done {
        let ok = matches!(result, Ok(d) if d.outcome.same(&reference));
        rep.op(ok, || {
            format!(
                "job result {:?} differs from the reference",
                result.as_ref().err()
            )
        });
    }

    let jobs = times.len();
    rep.put_median("op_ms_p50", &engine, 1e3, "ms");
    rep.put(
        "points_per_s",
        (points.len() * jobs) as f64 / elapsed,
        "points/s",
        jobs,
    );
    rep.put("peak_rss_mb", peak_rss, "MB", 1);
    rep.put("radius_mean", reference.radius, "dist", 1);
    if let Some(d) = done.iter().find_map(|d| d.as_ref().ok()) {
        rep.put("core.union_size", d.union_size as f64, "count", jobs);
        rep.put(
            "core.search_evaluations",
            d.search_evaluations as f64,
            "count",
            jobs,
        );
    }
    if let Some(evals) = done.iter().find_map(|d| d.as_ref().ok()?.dist_evals) {
        rep.put(
            "core.round1_dist_evals",
            evals as f64,
            "count",
            replays.len(),
        );
    }
    if let (Some(e), Some(r)) = (median(&engine), median(&replays)) {
        rep.put("mapreduce.engine_overhead_s", e - r, "s", replays.len());
    }
    for layer in LAYERS {
        let name = format!("{layer}_s");
        rep.put_median(&name, &ctx.tracer.seconds(layer), 1.0, "s");
    }
    Ok(())
}

/// One job as `kcenter cluster` runs it.
fn plain_job(input: &Path, output: &Path, config: &MrOutliersConfig) -> Result<Done, String> {
    let raw = load_csv(input).map_err(|e| e.to_string())?;
    let norm = Normalization::zscore(&raw);
    let points = norm.apply_all(&raw);
    let result = mr_kcenter_outliers(&points, &Euclidean, config).map_err(|e| e.to_string())?;
    let centers: Vec<Point> = result
        .clustering
        .centers
        .iter()
        .map(|c| norm.invert(c))
        .collect();
    save_csv(output, &centers).map_err(|e| e.to_string())?;
    Ok(Done {
        outcome: Outcome::from(&result),
        union_size: result.union_size,
        search_evaluations: result.search_evaluations,
        dist_evals: None,
    })
}

/// The same job with the engine replaced by the layer-by-layer replay,
/// each layer in its own span under the job's span `parent`.
fn traced_job(
    ctx: &Ctx,
    (job, parent): (u64, u64),
    input: &Path,
    output: &Path,
    config: &MrOutliersConfig,
    pool: &ThreadPool,
) -> Result<Done, String> {
    let tr = &ctx.tracer;
    let at = Some(parent);
    let (raw, _) = tr.span("data.load_csv", at, job, |_| load_csv(input));
    let raw = raw.map_err(|e| e.to_string())?;
    let ((norm, points), _) = tr.span("data.normalize", at, job, |_| {
        let norm = Normalization::zscore(&raw);
        let points = norm.apply_all(&raw);
        (norm, points)
    });
    let (union, _) = tr.span("core.round1_coreset", at, job, |_| {
        pool.install(|| replay::round1(&points, config))
    });
    let (oracle, _) = tr.span("metric.matrix_build", at, job, |_| {
        pool.install(|| replay::price(&union.coreset, config))
    });
    let (solution, _) = tr.span("core.radius_search", at, job, |_| {
        pool.install(|| replay::search(&oracle, &union.coreset, config))
    });
    let (radius, _) = tr.span("core.objective", at, job, |_| {
        pool.install(|| radius_with_outliers(&points, &solution.centers, config.z, &Euclidean))
    });
    let centers: Vec<Point> = solution.centers.iter().map(|c| norm.invert(c)).collect();
    let (saved, _) = tr.span("data.save_csv", at, job, |_| save_csv(output, &centers));
    saved.map_err(|e| e.to_string())?;
    Ok(Done {
        union_size: union.coreset.len(),
        search_evaluations: solution.evaluations,
        dist_evals: Some(union.dist_evals),
        outcome: Outcome {
            centers: solution.centers,
            radius,
            r_min: solution.r_min,
            uncovered: solution.uncovered_weight,
        },
    })
}
