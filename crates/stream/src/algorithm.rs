//! The single-pass algorithm interface and the metering driver.

use std::time::{Duration, Instant};

/// A one-pass streaming algorithm over items of type `T`.
///
/// Implementations must be able to answer [`memory_items`] at any moment:
/// the harness samples it after every insertion to report *peak* working
/// memory, the quantity the paper's space bounds are stated in (items
/// stored, e.g. `O((k+z)(96/ε)^D)` for the outliers algorithm).
///
/// [`memory_items`]: StreamingAlgorithm::memory_items
pub trait StreamingAlgorithm<T> {
    /// The result type produced once the stream is exhausted.
    type Output;

    /// Consumes the next stream item.
    fn process(&mut self, item: T);

    /// Number of items currently held in working memory.
    fn memory_items(&self) -> usize;

    /// Consumes the algorithm and produces the final result (the paper's
    /// end-of-pass computation, e.g. running `OutliersCluster` on the
    /// accumulated coreset).
    fn finalize(self) -> Self::Output;
}

/// Metering data from a [`run_stream`] execution.
#[derive(Clone, Copy, Debug)]
pub struct StreamReport {
    /// Number of items processed.
    pub items: usize,
    /// Peak working memory over the pass, in items.
    pub peak_memory_items: usize,
    /// Wall-clock time spent inside `process` calls (the pass itself).
    pub pass_time: Duration,
    /// Wall-clock time spent in `finalize`.
    pub finalize_time: Duration,
}

impl StreamReport {
    /// Throughput of the pass in points per second (the paper's Figs. 3/5
    /// metric). `None` if the pass took no measurable time.
    pub fn throughput(&self) -> Option<f64> {
        let secs = self.pass_time.as_secs_f64();
        (secs > 0.0).then(|| self.items as f64 / secs)
    }
}

/// Drives `algorithm` over `stream`, metering throughput and peak memory.
pub fn run_stream<T, A: StreamingAlgorithm<T>>(
    mut algorithm: A,
    stream: impl IntoIterator<Item = T>,
) -> (A::Output, StreamReport) {
    let mut items = 0usize;
    let mut peak = 0usize;
    // Accumulate time spent *inside* `process` only: a slow iterator (a
    // live feed, a reader waiting on I/O) can block arbitrarily long in
    // `next()`, and counting that wait would make `throughput()` measure
    // the producer, not the algorithm.
    let mut pass_time = Duration::ZERO;
    for item in stream {
        let start = Instant::now();
        algorithm.process(item);
        pass_time += start.elapsed();
        items += 1;
        peak = peak.max(algorithm.memory_items());
    }
    let fin_start = Instant::now();
    let output = algorithm.finalize();
    let finalize_time = fin_start.elapsed();
    (
        output,
        StreamReport {
            items,
            peak_memory_items: peak,
            pass_time,
            finalize_time,
        },
    )
}

/// Helper for multi-pass algorithms (the paper's 2-pass D-oblivious
/// algorithm): carries per-pass reports and exposes the total peak memory.
#[derive(Clone, Debug, Default)]
pub struct MultiPass {
    /// One report per completed pass.
    pub passes: Vec<StreamReport>,
}

impl MultiPass {
    /// Records a completed pass.
    pub fn record(&mut self, report: StreamReport) {
        self.passes.push(report);
    }

    /// Number of passes over the input — the model's other key indicator.
    pub fn pass_count(&self) -> usize {
        self.passes.len()
    }

    /// Peak working memory across all passes, in items.
    pub fn peak_memory_items(&self) -> usize {
        self.passes
            .iter()
            .map(|p| p.peak_memory_items)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy algorithm: keeps the `cap` largest values seen.
    struct TopCap {
        cap: usize,
        kept: Vec<u64>,
    }

    impl StreamingAlgorithm<u64> for TopCap {
        type Output = Vec<u64>;

        fn process(&mut self, item: u64) {
            self.kept.push(item);
            if self.kept.len() > self.cap {
                self.kept.sort_unstable_by(|a, b| b.cmp(a));
                self.kept.truncate(self.cap);
            }
        }

        fn memory_items(&self) -> usize {
            self.kept.len()
        }

        fn finalize(mut self) -> Vec<u64> {
            self.kept.sort_unstable();
            self.kept
        }
    }

    #[test]
    fn run_stream_meters_and_finalizes() {
        let alg = TopCap {
            cap: 3,
            kept: Vec::new(),
        };
        let (out, report) = run_stream(alg, 0..100u64);
        assert_eq!(out, vec![97, 98, 99]);
        assert_eq!(report.items, 100);
        // Memory is sampled after each `process`, where the overflow slot
        // has already been truncated back to `cap`.
        assert_eq!(report.peak_memory_items, 3);
        assert!(report.throughput().unwrap_or(f64::INFINITY) > 0.0);
    }

    #[test]
    fn empty_stream_is_fine() {
        let alg = TopCap {
            cap: 2,
            kept: Vec::new(),
        };
        let (out, report) = run_stream(alg, std::iter::empty());
        assert!(out.is_empty());
        assert_eq!(report.items, 0);
        assert_eq!(report.peak_memory_items, 0);
    }

    #[test]
    fn pass_time_excludes_iterator_blocking() {
        // Regression: a deliberately slow producer must not inflate
        // `pass_time` — the report meters `process`, not the feed.
        let delay = Duration::from_millis(5);
        let slow = (0..20u64).inspect(|_| std::thread::sleep(delay));
        let alg = TopCap {
            cap: 3,
            kept: Vec::new(),
        };
        let wall = Instant::now();
        let (_, report) = run_stream(alg, slow);
        let wall = wall.elapsed();
        assert_eq!(report.items, 20);
        // The wall clock includes ~20 × 5 ms of producer sleeps; the pass
        // itself is 20 trivial `process` calls. Demand an order of
        // magnitude of headroom so the assertion is immune to CI jitter.
        assert!(
            wall >= delay * 20,
            "producer pacing must dominate wall time"
        );
        assert!(
            report.pass_time < wall / 10,
            "pass_time {:?} should exclude the {:?} spent blocked in next()",
            report.pass_time,
            wall
        );
    }

    #[test]
    fn multipass_aggregates() {
        let mut mp = MultiPass::default();
        let alg1 = TopCap {
            cap: 5,
            kept: Vec::new(),
        };
        let (_, r1) = run_stream(alg1, 0..50u64);
        mp.record(r1);
        let alg2 = TopCap {
            cap: 2,
            kept: Vec::new(),
        };
        let (_, r2) = run_stream(alg2, 0..50u64);
        mp.record(r2);
        assert_eq!(mp.pass_count(), 2);
        assert_eq!(mp.peak_memory_items(), 5);
    }
}
