//! The process-wide metrics registry: named counters, gauges, and
//! microsecond histograms behind cheap atomic handles.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::json::escape;

/// Upper bounds (inclusive, in microseconds) of the histogram buckets.
///
/// Powers of four from 16 µs to ~67 s: wide enough that a
/// sub-millisecond span and a multi-second round-1 build both land in
/// an interior bucket, coarse enough that a snapshot stays one line.
pub(crate) const HISTOGRAM_BOUNDS_US: [u64; 12] = [
    16, 64, 256, 1_024, 4_096, 16_384, 65_536, 262_144, 1_048_576, 4_194_304, 16_777_216,
    67_108_864,
];

/// A monotonically increasing counter.
///
/// Clones share the same underlying cell; incrementing is one relaxed
/// atomic add, so a handle can live in a hot loop.
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move both ways (resident sessions, resident
/// points). Stored as a `u64`, which covers every gauge this workspace
/// exposes.
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge to `v`.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Default)]
pub(crate) struct HistogramCells {
    count: AtomicU64,
    sum_us: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BOUNDS_US.len()],
}

/// A histogram of microsecond durations with fixed power-of-four
/// buckets (see the rendered `le=` bounds). Observing is a handful of
/// relaxed atomic adds; there is no lock and no allocation.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramCells>);

impl Histogram {
    /// Records one observation of `micros`.
    pub fn observe(&self, micros: u64) {
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum_us.fetch_add(micros, Ordering::Relaxed);
        for (i, bound) in HISTOGRAM_BOUNDS_US.iter().enumerate() {
            if micros <= *bound {
                self.0.buckets[i].fetch_add(1, Ordering::Relaxed);
                break;
            }
        }
        // Values above the last bound land only in the implicit +Inf
        // bucket, which renderers derive from `count`.
    }

    /// Records one observation of a [`std::time::Duration`].
    pub fn observe_duration(&self, d: std::time::Duration) {
        self.observe(d.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed microseconds.
    pub fn sum_micros(&self) -> u64 {
        self.0.sum_us.load(Ordering::Relaxed)
    }

    fn bucket_counts(&self) -> [u64; HISTOGRAM_BOUNDS_US.len()] {
        let mut out = [0u64; HISTOGRAM_BOUNDS_US.len()];
        for (slot, cell) in out.iter_mut().zip(self.0.buckets.iter()) {
            *slot = cell.load(Ordering::Relaxed);
        }
        out
    }
}

#[derive(Clone, Debug)]
enum Slot {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Slot {
    fn kind(&self) -> &'static str {
        match self {
            Slot::Counter(_) => "counter",
            Slot::Gauge(_) => "gauge",
            Slot::Histogram(_) => "histogram",
        }
    }
}

/// A registry of named metrics.
///
/// One process-wide instance lives behind [`registry`]; tests may build
/// private instances. Names are stable dotted paths — the dots become
/// underscores in the Prometheus rendering — and a name permanently
/// owns its kind: asking for `metric.matrix.builds` as a gauge after it
/// was registered as a counter is a programming error and panics.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    slots: Mutex<BTreeMap<String, Slot>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn slot(&self, name: &str, make: impl FnOnce() -> Slot) -> Slot {
        let mut slots = self.slots.lock().unwrap();
        slots.entry(name.to_string()).or_insert_with(make).clone()
    }

    /// Returns the counter registered under `name`, creating it on
    /// first use.
    ///
    /// # Panics
    ///
    /// If `name` is already registered as a different kind.
    pub fn counter(&self, name: &str) -> Counter {
        match self.slot(name, || Slot::Counter(Counter(Arc::new(AtomicU64::new(0))))) {
            Slot::Counter(c) => c,
            other => panic!("metric {name:?} is a {}, not a counter", other.kind()),
        }
    }

    /// Returns the gauge registered under `name`, creating it on first
    /// use.
    ///
    /// # Panics
    ///
    /// If `name` is already registered as a different kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.slot(name, || Slot::Gauge(Gauge(Arc::new(AtomicU64::new(0))))) {
            Slot::Gauge(g) => g,
            other => panic!("metric {name:?} is a {}, not a gauge", other.kind()),
        }
    }

    /// Returns the histogram registered under `name`, creating it on
    /// first use.
    ///
    /// # Panics
    ///
    /// If `name` is already registered as a different kind.
    pub fn histogram(&self, name: &str) -> Histogram {
        match self.slot(name, || {
            Slot::Histogram(Histogram(Arc::new(HistogramCells::default())))
        }) {
            Slot::Histogram(h) => h,
            other => panic!("metric {name:?} is a {}, not a histogram", other.kind()),
        }
    }

    /// A point-in-time snapshot of every registered metric, sorted by
    /// name.
    pub fn snapshot(&self) -> Vec<MetricSnapshot> {
        let slots = self.slots.lock().unwrap();
        slots
            .iter()
            .map(|(name, slot)| MetricSnapshot {
                name: name.clone(),
                value: match slot {
                    Slot::Counter(c) => MetricValue::Counter(c.get()),
                    Slot::Gauge(g) => MetricValue::Gauge(g.get()),
                    Slot::Histogram(h) => MetricValue::Histogram {
                        count: h.count(),
                        sum_micros: h.sum_micros(),
                        buckets: h.bucket_counts().to_vec(),
                    },
                },
            })
            .collect()
    }

    /// The current value of every **counter**, sorted by name — the
    /// shape a fleet worker diffs around a job to piggyback its deltas
    /// on the `ok` reply.
    pub fn counter_values(&self) -> Vec<(String, u64)> {
        let slots = self.slots.lock().unwrap();
        slots
            .iter()
            .filter_map(|(name, slot)| match slot {
                Slot::Counter(c) => Some((name.clone(), c.get())),
                _ => None,
            })
            .collect()
    }

    /// Renders the registry in the Prometheus text exposition format.
    ///
    /// Dotted names map to `kcenter_`-prefixed underscore names
    /// (`exec.round1.micros` → `kcenter_exec_round1_micros`); every
    /// family gets a `# TYPE` line; histograms expose cumulative
    /// `_bucket{le="…"}` series plus `_sum` and `_count`.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for snap in self.snapshot() {
            let name = prometheus_name(&snap.name);
            match snap.value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
                }
                MetricValue::Histogram {
                    count,
                    sum_micros,
                    buckets,
                } => {
                    out.push_str(&format!("# TYPE {name} histogram\n"));
                    let mut cumulative = 0u64;
                    for (bound, in_bucket) in HISTOGRAM_BOUNDS_US.iter().zip(&buckets) {
                        cumulative += in_bucket;
                        out.push_str(&format!("{name}_bucket{{le=\"{bound}\"}} {cumulative}\n"));
                    }
                    out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {count}\n"));
                    out.push_str(&format!("{name}_sum {sum_micros}\n"));
                    out.push_str(&format!("{name}_count {count}\n"));
                }
            }
        }
        out
    }

    /// Renders the registry as one JSON object
    /// (`{"schema":"kcenter-metrics/v1","metrics":[…]}`), for the serve
    /// `metrics json` verb and `kcenter cluster --report json`.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"schema\":\"kcenter-metrics/v1\",\"metrics\":[");
        for (i, snap) in self.snapshot().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"name\":\"{}\",", escape(&snap.name)));
            match &snap.value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("\"type\":\"counter\",\"value\":{v}}}"));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!("\"type\":\"gauge\",\"value\":{v}}}"));
                }
                MetricValue::Histogram {
                    count,
                    sum_micros,
                    buckets,
                } => {
                    out.push_str(&format!(
                        "\"type\":\"histogram\",\"count\":{count},\"sum_micros\":{sum_micros},\"buckets\":["
                    ));
                    for (j, (bound, in_bucket)) in
                        HISTOGRAM_BOUNDS_US.iter().zip(buckets).enumerate()
                    {
                        if j > 0 {
                            out.push(',');
                        }
                        out.push_str(&format!("{{\"le\":{bound},\"count\":{in_bucket}}}"));
                    }
                    out.push_str("]}");
                }
            }
        }
        out.push_str("]}");
        out
    }
}

/// Maps a dotted metric name to its Prometheus series name.
fn prometheus_name(dotted: &str) -> String {
    let mut out = String::from("kcenter_");
    for ch in dotted.chars() {
        if ch.is_ascii_alphanumeric() {
            out.push(ch);
        } else {
            out.push('_');
        }
    }
    out
}

/// One metric in a [`MetricsRegistry::snapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricSnapshot {
    /// The dotted registry name.
    pub name: String,
    /// The value at snapshot time.
    pub value: MetricValue,
}

/// The value half of a [`MetricSnapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetricValue {
    /// A counter's current value.
    Counter(u64),
    /// A gauge's current value.
    Gauge(u64),
    /// A histogram's counts.
    Histogram {
        /// Total observations.
        count: u64,
        /// Sum of observed microseconds.
        sum_micros: u64,
        /// Per-bucket (non-cumulative) counts, one per
        /// `HISTOGRAM_BOUNDS_US` bound; overflow lives only in `count`.
        buckets: Vec<u64>,
    },
}

/// The process-wide registry every subsystem reports into.
pub fn registry() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

/// Shorthand for [`registry()`]`.counter(name)`.
pub fn counter(name: &str) -> Counter {
    registry().counter(name)
}

/// Shorthand for [`registry()`]`.gauge(name)`.
pub fn gauge(name: &str) -> Gauge {
    registry().gauge(name)
}

/// Shorthand for [`registry()`]`.histogram(name)`.
pub fn histogram(name: &str) -> Histogram {
    registry().histogram(name)
}

/// Shorthand for [`registry()`]`.counter_values()`.
pub fn counter_values() -> Vec<(String, u64)> {
    registry().counter_values()
}

/// Shorthand for [`registry()`]`.render_prometheus()`.
pub fn render_prometheus() -> String {
    registry().render_prometheus()
}

/// Shorthand for [`registry()`]`.render_json()`.
pub fn render_json() -> String {
    registry().render_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_share_cells_across_handles() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("test.c");
        let b = reg.counter("test.c");
        a.inc();
        b.add(4);
        assert_eq!(reg.counter("test.c").get(), 5);
        let g = reg.gauge("test.g");
        g.set(7);
        g.set(3);
        assert_eq!(reg.gauge("test.g").get(), 3);
    }

    #[test]
    fn histogram_buckets_are_cumulative_in_prometheus_only() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("test.h.micros");
        h.observe(10); // ≤16
        h.observe(100); // ≤256
        h.observe(100_000_000); // above every bound: +Inf only
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum_micros(), 100_000_110);
        let snap = reg.snapshot();
        match &snap[0].value {
            MetricValue::Histogram { count, buckets, .. } => {
                assert_eq!(*count, 3);
                assert_eq!(buckets[0], 1); // 10µs
                assert_eq!(buckets[2], 1); // 100µs
                assert_eq!(buckets.iter().sum::<u64>(), 2); // overflow excluded
            }
            other => panic!("expected a histogram, got {other:?}"),
        }
        let prom = reg.render_prometheus();
        assert!(prom.contains("# TYPE kcenter_test_h_micros histogram"));
        assert!(prom.contains("kcenter_test_h_micros_bucket{le=\"16\"} 1"));
        assert!(prom.contains("kcenter_test_h_micros_bucket{le=\"256\"} 2"));
        assert!(prom.contains("kcenter_test_h_micros_bucket{le=\"+Inf\"} 3"));
        assert!(prom.contains("kcenter_test_h_micros_sum 100000110"));
        assert!(prom.contains("kcenter_test_h_micros_count 3"));
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_clashes_panic() {
        let reg = MetricsRegistry::new();
        let _ = reg.counter("test.kind");
        let _ = reg.gauge("test.kind");
    }

    #[test]
    fn counter_values_lists_only_counters_sorted() {
        let reg = MetricsRegistry::new();
        reg.counter("b.two").add(2);
        reg.counter("a.one").add(1);
        reg.gauge("z.gauge").set(9);
        reg.histogram("m.micros").observe(5);
        assert_eq!(
            reg.counter_values(),
            vec![("a.one".to_string(), 1), ("b.two".to_string(), 2)]
        );
    }

    #[test]
    fn json_rendering_parses_and_names_are_prometheus_clean() {
        let reg = MetricsRegistry::new();
        reg.counter("exec.shards.written").add(3);
        reg.histogram("exec.round1.micros").observe(1000);
        let json = reg.render_json();
        let value = crate::json::parse(&json).expect("render_json must emit valid JSON");
        assert_eq!(
            value.get("schema").and_then(|v| v.as_str()),
            Some("kcenter-metrics/v1")
        );
        let metrics = value.get("metrics").and_then(|v| v.as_array()).unwrap();
        assert_eq!(metrics.len(), 2);
        // Prometheus names: unique, no dots.
        let prom = reg.render_prometheus();
        let mut seen = std::collections::BTreeSet::new();
        for line in prom.lines().filter(|l| l.starts_with("# TYPE ")) {
            let name = line.split_whitespace().nth(2).unwrap();
            assert!(!name.contains('.'), "dots are invalid: {name}");
            assert!(seen.insert(name.to_string()), "duplicate family {name}");
        }
    }
}
