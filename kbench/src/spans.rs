//! Bench-side spans: timed regions around calls into one layer's public
//! functions. They are kept in memory and written as JSONL when the run
//! ends, so recording costs no I/O inside the measured window.

use std::cell::{Cell, RefCell};
use std::collections::HashSet;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

struct Record {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    job: u64,
    start_us: u64,
    end_us: u64,
}

/// Times regions always; records them as spans only when enabled.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: Cell<u64>,
    records: RefCell<Vec<Record>>,
}

impl Tracer {
    /// A tracer that records spans when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: Cell::new(1),
            records: RefCell::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` as span `name` of operation `job` under `parent`, passing
    /// `f` the span's id so nested calls can name it as their parent.
    /// Returns `f`'s result and the region's wall time.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        job: u64,
        f: impl FnOnce(u64) -> R,
    ) -> (R, Duration) {
        let id = self.next_id.get();
        self.next_id.set(id + 1);
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        if self.enabled {
            let us = |t: Instant| t.duration_since(self.epoch).as_micros() as u64;
            self.records.borrow_mut().push(Record {
                id,
                parent,
                name,
                job,
                start_us: us(start),
                end_us: us(end),
            });
        }
        (out, end - start)
    }

    /// Durations in seconds of every recorded span called `name`.
    pub fn seconds(&self, name: &str) -> Vec<f64> {
        self.records
            .borrow()
            .iter()
            .filter(|r| r.name == name)
            .map(|r| (r.end_us - r.start_us) as f64 / 1e6)
            .collect()
    }

    /// Every recorded span, one JSON object per line.
    pub fn jsonl(&self) -> String {
        let mut text = String::new();
        for r in self.records.borrow().iter() {
            let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"job\":{},\"start_us\":{},\"end_us\":{}}}",
                r.id, r.name, r.job, r.start_us, r.end_us
            );
        }
        text
    }
}

/// Checks a span file: every line parses, ends no earlier than it starts,
/// and names a parent that is another span of the file. Returns the
/// span count.
pub fn check_jsonl(text: &str) -> Result<usize, String> {
    let mut ids = HashSet::new();
    let mut parents = Vec::new();
    for (no, line) in text.lines().enumerate() {
        let span = kcenter_obs::json::parse(line).map_err(|e| format!("line {}: {e}", no + 1))?;
        let field = |key: &str| span.get(key).and_then(|v| v.as_u64());
        let (Some(id), Some(start), Some(end)) = (field("id"), field("start_us"), field("end_us"))
        else {
            return Err(format!("line {}: missing id or times", no + 1));
        };
        if end < start || span.get("name").and_then(|v| v.as_str()).is_none() {
            return Err(format!("line {}: malformed span", no + 1));
        }
        ids.insert(id);
        if let Some(parent) = field("parent") {
            parents.push(parent);
        }
    }
    match parents.iter().find(|p| !ids.contains(p)) {
        Some(p) => Err(format!("parent {p} is not a span of the file")),
        None => Ok(ids.len()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_round_trip_through_the_checker() {
        let tracer = Tracer::new(true);
        tracer.span("job", None, 7, |job| {
            tracer.span("layer", Some(job), 7, |_| ());
        });
        assert_eq!(tracer.seconds("layer").len(), 1);
        assert_eq!(check_jsonl(&tracer.jsonl()), Ok(2));
        assert!(check_jsonl(
            "{\"id\":1,\"parent\":9,\"name\":\"x\",\"job\":0,\"start_us\":0,\"end_us\":1}"
        )
        .is_err());
    }

    #[test]
    fn disabled_tracer_times_without_recording() {
        let tracer = Tracer::new(false);
        let (value, elapsed) = tracer.span("job", None, 0, |_| 5);
        assert_eq!(value, 5);
        assert!(elapsed >= Duration::ZERO);
        assert!(tracer.seconds("job").is_empty());
    }
}
