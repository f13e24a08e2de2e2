//! Order statistics and the open-loop schedule arithmetic behind the
//! reported numbers. Everything here is pure so the unit tests can pin it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Samples beyond a tail percentile needed before that percentile is
/// reported: with fewer, the "tail" is one or two unlucky samples.
const MIN_BEYOND_TAIL: f64 = 10.0;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// The median (mean of the two middle values for an even count), as
/// Python's `statistics.median` computes it.
pub fn median(samples: &[f64]) -> Option<f64> {
    let s = sorted(samples);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile, `q` in `(0, 1]`.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let s = sorted(samples);
    if s.is_empty() {
        return None;
    }
    let rank = (q * s.len() as f64).ceil() as usize;
    Some(s[rank.clamp(1, s.len()) - 1])
}

/// The `q` percentile, or `None` when fewer than [`MIN_BEYOND_TAIL`]
/// samples lie beyond it.
pub fn tail_percentile(samples: &[f64], q: f64) -> Option<f64> {
    let beyond = samples.len() as f64 * (1.0 - q);
    if beyond + 1e-9 < MIN_BEYOND_TAIL {
        return None;
    }
    percentile(samples, q)
}

/// First, second and third quartile by the "exclusive" method of
/// Python's `statistics.quantiles(values, n=4)`, the rule the
/// repeatability check is judged by. `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(values);
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    Some(out)
}

/// How late an open-loop generator sent a request, in seconds: the send
/// time past the later of the request's due time and the moment its
/// connection became free. Waiting for a slow reply is the system's
/// delay and already counts in latency; only the rest is the generator's.
pub fn lateness(due: f64, free_at: f64, sent: f64) -> f64 {
    (sent - due.max(free_at)).max(0.0)
}

/// Requests already due but not yet sent when request `index` went out
/// at `sent`, given every request's due time in ascending order.
pub fn backlog(due: &[f64], index: usize, sent: f64) -> usize {
    due.partition_point(|&d| d <= sent)
        .saturating_sub(index + 1)
}

/// One open-loop request: when it is due (seconds from phase start),
/// which of the connection's sessions it touches, and whether it queries.
#[derive(Clone, Debug, PartialEq)]
pub struct Due {
    /// Due time in seconds from the start of the phase.
    pub at: f64,
    /// Index into the connection's sessions, Zipf(1.0)-distributed.
    pub session: usize,
    /// A query (otherwise an ingest).
    pub query: bool,
}

/// A Poisson arrival schedule at `rate` requests per second over
/// `seconds`, sessions drawn Zipf(1.0) over `sessions` ranks, and each
/// request a query with probability `query_share`. The same arguments
/// give the same schedule.
pub fn open_loop_schedule(
    seed: u64,
    rate: f64,
    seconds: f64,
    sessions: usize,
    query_share: f64,
) -> Vec<Due> {
    let mut rng = StdRng::seed_from_u64(seed);
    let weights: Vec<f64> = (1..=sessions).map(|r| 1.0 / r as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut at = 0.0;
    let mut out = Vec::new();
    loop {
        // Exponential inter-arrival gap; 1 - u keeps the log finite.
        at += -(1.0 - rng.random::<f64>()).ln() / rate;
        if at >= seconds {
            return out;
        }
        let mut pick = rng.random::<f64>() * total;
        let session = weights
            .iter()
            .position(|w| {
                pick -= w;
                pick < 0.0
            })
            .unwrap_or(sessions - 1);
        let query = rng.random::<f64>() < query_share;
        out.push(Due { at, session, query });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_p50() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(percentile(&[5.0, 1.0, 4.0, 2.0, 3.0], 0.5), Some(3.0));
    }

    #[test]
    fn p99_needs_ten_samples_beyond() {
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&thousand, 0.99), Some(990.0));
        assert_eq!(tail_percentile(&thousand[..999], 0.99), None);
        assert_eq!(tail_percentile(&thousand[..100], 0.90), Some(90.0));
        assert_eq!(tail_percentile(&thousand[..99], 0.90), None);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates past the ends of short lists.
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn lateness_ignores_time_spent_waiting_for_a_reply() {
        // Free before due, sent 2 ms after due: 2 ms late.
        assert!((lateness(1.0, 0.5, 1.002) - 0.002).abs() < 1e-12);
        // The previous reply came back after the due time; sending right
        // then is on time.
        assert_eq!(lateness(1.0, 1.5, 1.5), 0.0);
        assert!((lateness(1.0, 1.5, 1.501) - 0.001).abs() < 1e-12);
    }

    #[test]
    fn backlog_counts_due_but_unsent_requests() {
        let due = [0.1, 0.2, 0.3, 0.4];
        assert_eq!(backlog(&due, 0, 0.1), 0);
        assert_eq!(backlog(&due, 0, 0.35), 2);
        assert_eq!(backlog(&due, 3, 0.5), 0);
    }

    #[test]
    fn zipf_schedule_is_deterministic_per_seed() {
        let a = open_loop_schedule(7, 200.0, 5.0, 8, 0.15);
        assert_eq!(a, open_loop_schedule(7, 200.0, 5.0, 8, 0.15));
        assert_ne!(a, open_loop_schedule(8, 200.0, 5.0, 8, 0.15));
        assert!(a.windows(2).all(|w| w[0].at < w[1].at));
        assert!(a.iter().all(|d| d.at < 5.0 && d.session < 8));
        // ~1000 arrivals; rank 1 is drawn most, the query share is ~15%.
        assert!((800..1200).contains(&a.len()), "{}", a.len());
        let count = |s: usize| a.iter().filter(|d| d.session == s).count();
        assert!(count(0) > count(1) && count(1) > count(7));
        let queries = a.iter().filter(|d| d.query).count() as f64 / a.len() as f64;
        assert!((0.10..0.20).contains(&queries), "{queries}");
    }
}
