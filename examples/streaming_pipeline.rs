//! A streaming pipeline: cluster a social-media-style event feed with
//! outliers in one pass, one event at a time.
//!
//! The paper motivates 1-pass algorithms with real-time feeds (it cites
//! Twitter's 143,199 tweets/s peak); here `run_stream` hands the shuffled
//! events to `CoresetOutliers` one by one, in arrival order, and the
//! algorithm never holds more than `τ + 1` points.
//!
//! Run with:
//! ```text
//! cargo run --release --example streaming_pipeline
//! ```

use kcenter::data::{inject_outliers, shuffled, wiki_like};
use kcenter::prelude::*;

fn main() {
    // Pre-generate the "feed": 30k embedded events in 50 dimensions with a
    // handful of spam/garbage events far from everything.
    let mut events = wiki_like(30_000, 5);
    let z = 25;
    inject_outliers(&mut events, z, 11);
    let events = shuffled(&events, 4);
    let total = events.len();

    let k = 20;
    let tau = 4 * (k + z);
    let alg = CoresetOutliers::new(Euclidean, k, z, tau, 0.25);
    let (out, report) = run_stream(alg, events.iter().cloned());
    assert_eq!(report.items, total, "the pass consumed the whole feed");

    println!("consumed {total} events in one pass");
    println!(
        "  throughput      : {:.0}k events/s",
        report.throughput().unwrap_or(f64::INFINITY) / 1_000.0
    );
    println!(
        "  working memory  : {} points (budget τ = {tau})",
        report.peak_memory_items
    );
    let measured = radius_with_outliers(&events, &out.centers, z, &Euclidean);
    println!(
        "  topics found    : {} centers, radius (excl. {z} spam events) = {:.3}",
        out.centers.len(),
        measured
    );
    println!(
        "  spam excluded   : uncovered coreset weight {} ≤ z = {z}",
        out.uncovered_weight
    );
    assert!(report.peak_memory_items <= tau + 1);
    assert!(out.uncovered_weight <= z as u64);
    println!("✔ one-pass clustering kept within its memory budget");
}
