//! The MapReduce round executor.
//!
//! A round transforms a multiset of key–value pairs by applying a mapper to
//! every pair independently, grouping the results by key (the shuffle), and
//! applying a reducer to every group independently — the MR model of the
//! paper's §2.1. Map and reduce phases run on a dedicated rayon thread pool
//! whose size is the simulated parallelism `ℓ`, so wall-clock scalability
//! experiments (paper Fig. 7) reflect the configured number of "processors".
//!
//! Reducers are ordinary closures and may resolve shared state: the
//! outlier algorithms' round 2 prices its coreset union into a
//! `kcenter_metric::CachedOracle` inside the reducer. The engine itself
//! stays oblivious.

use std::collections::BTreeMap;

use parking_lot::Mutex;
use rayon::prelude::*;

use crate::memory::{MemoryReport, RoundStats};

/// A MapReduce engine with fixed parallelism and accumulated memory
/// accounting.
pub struct MapReduceEngine {
    pool: rayon::ThreadPool,
    parallelism: usize,
    report: Mutex<MemoryReport>,
}

impl MapReduceEngine {
    /// Creates an engine simulating `parallelism` processors.
    ///
    /// # Panics
    ///
    /// Panics if `parallelism == 0` or the thread pool cannot be built.
    pub fn new(parallelism: usize) -> Self {
        assert!(parallelism > 0, "parallelism must be positive");
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(parallelism)
            .build()
            .expect("failed to build rayon pool");
        MapReduceEngine {
            pool,
            parallelism,
            report: Mutex::new(MemoryReport::default()),
        }
    }

    /// The configured parallelism `ℓ`.
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// Snapshot of the memory accounting over all rounds run so far.
    pub fn memory_report(&self) -> MemoryReport {
        self.report.lock().clone()
    }

    /// Executes one MapReduce round.
    ///
    /// `mapper` transforms each input item into a key–value pair; pairs are
    /// grouped by key; `reducer` consumes each `(key, values)` group and
    /// emits output items. Reducer outputs are concatenated in key order, so
    /// the result is deterministic regardless of thread scheduling.
    pub fn round<I, K, V, O, MF, RF>(&self, inputs: Vec<I>, mapper: MF, reducer: RF) -> Vec<O>
    where
        I: Send,
        K: Ord + Send,
        V: Send,
        O: Send,
        MF: Fn(I) -> (K, V) + Sync,
        RF: Fn(&K, Vec<V>) -> Vec<O> + Sync,
    {
        let total_inputs = inputs.len();
        self.pool.install(|| {
            // Map phase.
            let pairs: Vec<(K, V)> = inputs.into_par_iter().map(&mapper).collect();

            // Shuffle: group by key. BTreeMap gives deterministic key order.
            let mut groups: BTreeMap<K, Vec<V>> = BTreeMap::new();
            for (k, v) in pairs {
                groups.entry(k).or_default().push(v);
            }

            let stats = RoundStats {
                reducers: groups.len(),
                max_reducer_load: groups.values().map(Vec::len).max().unwrap_or(0),
                total_pairs: total_inputs,
            };
            self.report.lock().record(stats);

            // Reduce phase, parallel over key groups; key order preserved in
            // the output by collecting per-group vectors first.
            let groups: Vec<(K, Vec<V>)> = groups.into_iter().collect();
            let reduced: Vec<Vec<O>> = groups
                .into_par_iter()
                .map(|(k, vs)| reducer(&k, vs))
                .collect();
            reduced.into_iter().flatten().collect()
        })
    }

    /// Runs a closure inside the engine's thread pool (used by algorithms
    /// for parallel work outside strict MapReduce rounds — e.g. the final
    /// radius evaluation over the full dataset — so that *all* parallelism
    /// in an experiment honours the configured `ℓ`).
    pub fn run_scoped<R: Send>(&self, f: impl FnOnce() -> R + Send) -> R {
        self.pool.install(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_count_round() {
        let engine = MapReduceEngine::new(4);
        let words = vec!["a", "b", "a", "c", "b", "a"];
        let counts: Vec<(String, usize)> = engine.round(
            words,
            |w| (w.to_string(), 1usize),
            |k, vs| vec![(k.clone(), vs.len())],
        );
        assert_eq!(
            counts,
            vec![
                ("a".to_string(), 3),
                ("b".to_string(), 2),
                ("c".to_string(), 1)
            ]
        );
    }

    #[test]
    fn memory_accounting_tracks_loads() {
        let engine = MapReduceEngine::new(2);
        let items: Vec<u32> = (0..100).collect();
        // Key 0 gets 50 items, key 1 gets 50 items.
        let _ = engine.round(items, |x| (x % 2, x), |_, vs| vec![vs.len()]);
        let report = engine.memory_report();
        assert_eq!(report.round_count(), 1);
        assert_eq!(report.rounds[0].reducers, 2);
        assert_eq!(report.rounds[0].max_reducer_load, 50);
        assert_eq!(report.rounds[0].total_pairs, 100);
        assert_eq!(report.local_memory(), 50);
        assert_eq!(report.aggregate_memory(), 100);
    }

    #[test]
    fn two_round_pipeline() {
        // Round 1: per-partition maxima; round 2: global maximum. The shape
        // of every algorithm in the paper.
        let engine = MapReduceEngine::new(4);
        let items: Vec<u64> = (0..1000).rev().collect();
        let partials = engine.round(
            items,
            |x| (x % 8, x),
            |_, vs| vec![vs.into_iter().max().unwrap()],
        );
        assert_eq!(partials.len(), 8);
        let global = engine.round(
            partials,
            |x| ((), x),
            |_, vs| vec![vs.into_iter().max().unwrap()],
        );
        assert_eq!(global, vec![999]);
        assert_eq!(engine.memory_report().round_count(), 2);
    }

    #[test]
    fn reduce_runs_with_configured_parallelism() {
        // The pool really has ℓ threads: with ℓ = 3 the maximum number of
        // rayon workers observed inside reducers is at most 3.
        let engine = MapReduceEngine::new(3);
        let items: Vec<u32> = (0..64).collect();
        let observed: Vec<usize> = engine.round(
            items,
            |x| (x % 16, x),
            |_, _| vec![rayon::current_num_threads()],
        );
        assert!(observed.iter().all(|&t| t == 3));
    }

    #[test]
    fn output_is_deterministic_across_runs() {
        let run = || {
            let engine = MapReduceEngine::new(4);
            let items: Vec<u32> = (0..512).collect();
            engine.round(
                items,
                |x| (x % 7, x * 3),
                |k, vs| vec![(*k, vs.iter().sum::<u32>())],
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn empty_input_produces_empty_output() {
        let engine = MapReduceEngine::new(2);
        let out: Vec<u32> = engine.round(Vec::<u32>::new(), |x| (x, x), |_, vs| vs);
        assert!(out.is_empty());
        assert_eq!(engine.memory_report().rounds[0].reducers, 0);
    }

    #[test]
    #[should_panic(expected = "parallelism must be positive")]
    fn zero_parallelism_panics() {
        let _ = MapReduceEngine::new(0);
    }

    #[test]
    fn iterative_multi_round_convergence() {
        // An MPC-style iterative job: repeatedly halve the number of
        // partial aggregates until one remains; every round is accounted.
        let engine = MapReduceEngine::new(4);
        let mut values: Vec<u64> = (1..=256).collect();
        let mut rounds = 0;
        while values.len() > 1 {
            let groups = (values.len() / 2).max(1);
            values = engine.round(
                values.into_iter().enumerate().collect::<Vec<_>>(),
                move |(i, v)| (i % groups, v),
                |_, vs| vec![vs.into_iter().sum::<u64>()],
            );
            rounds += 1;
        }
        assert_eq!(values, vec![256 * 257 / 2]);
        assert_eq!(engine.memory_report().round_count(), rounds);
        assert!(rounds <= 9);
    }

    #[test]
    fn reducer_emitting_nothing_is_fine() {
        let engine = MapReduceEngine::new(2);
        let out: Vec<u32> = engine.round(
            vec![1u32, 2, 3, 4],
            |x| (x % 2, x),
            |&key, vs| if key == 0 { vs } else { Vec::new() },
        );
        assert_eq!(out, vec![2, 4]);
    }

    #[test]
    fn run_scoped_executes_in_engine_pool() {
        let engine = MapReduceEngine::new(2);
        let threads = engine.run_scoped(rayon::current_num_threads);
        assert_eq!(threads, 2);
    }
}
