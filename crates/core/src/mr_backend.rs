//! The seam between the two-round MapReduce algorithms and the machinery
//! that runs their rounds.
//!
//! Both algorithms of §3 are the same two rounds wherever they run: a
//! weighted GMM coreset per partition, then one reducer that solves the
//! union. Each algorithm is written once, against [`MrBackend`]
//! ([`crate::mapreduce_kcenter::mr_kcenter_on`],
//! [`crate::mapreduce_outliers::mr_kcenter_outliers_on`]); a backend only
//! decides where the rounds run. The in-process engine runs them on a
//! [`MapReduceEngine`]; `kcenter-exec` runs round 1 on a fleet of worker
//! processes and round 2 in the coordinator. Every backend is handed the
//! same partitioner, the same per-partition [`CoresetJob`]s and the same
//! round-2 solve, so every backend answers bit for bit alike.

use std::time::{Duration, Instant};

use kcenter_mapreduce::{MapReduceEngine, MemoryReport, Partitioner};
use kcenter_metric::Metric;

use crate::coreset::{build_weighted_coreset, CoresetSpec, WeightedCoreset};
use crate::error::InputError;

/// What round 1 builds from one non-empty partition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoresetJob {
    /// Coreset base passed to the GMM coreset build.
    pub base: usize,
    /// GMM start index within the partition.
    pub start: usize,
}

/// Round 1 of an algorithm: how to split the input, and what to build
/// from each part.
pub struct Round1Plan<'a> {
    /// Parallelism `ℓ`: the number of partitions.
    pub ell: usize,
    /// Assigns each input index to one of the `ℓ` partitions.
    pub partitioner: &'a dyn Partitioner,
    /// Coreset sizing rule.
    pub spec: CoresetSpec,
    /// The job of partition `part` holding `members > 0` points, called
    /// as `job(part, members)`.
    pub job: &'a (dyn Fn(usize, usize) -> CoresetJob + Sync),
}

/// What round 1 hands to round 2.
pub struct Round1Output<P> {
    /// The weighted union of the per-partition coresets, in partition
    /// order.
    pub union: WeightedCoreset<P>,
    /// Size of each non-empty partition's coreset, in partition order.
    pub coreset_sizes: Vec<usize>,
}

/// Where the two rounds of a MapReduce algorithm run.
pub trait MrBackend<P> {
    /// Why a round failed; configuration errors convert into it.
    type Error: From<InputError>;

    /// Round 1: partitions `points` per `plan` and builds one weighted
    /// coreset per non-empty partition with that partition's
    /// [`CoresetJob`].
    ///
    /// # Errors
    ///
    /// Whatever the backend cannot contain while running the round.
    fn round1(
        &mut self,
        points: &[P],
        plan: &Round1Plan<'_>,
    ) -> Result<Round1Output<P>, Self::Error>;

    /// Round 2: one reducer runs `solve` on the union, then `objective`
    /// scores its answer on the full input. Returns the answer and the
    /// objective value.
    fn round2<S, F, O>(&mut self, union: WeightedCoreset<P>, solve: F, objective: O) -> (S, f64)
    where
        S: Send + Sync,
        F: Fn(&WeightedCoreset<P>) -> S + Sync,
        O: FnOnce(&S) -> f64 + Send;
}

/// Seed mixer behind the seeded round-1 rules (GMM start points, random
/// partitions).
#[inline]
pub(crate) fn mix(seed: u64, salt: u64) -> u64 {
    let mut x = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^ (x >> 31)
}

/// The in-process backend: both rounds on a [`MapReduceEngine`] with `ℓ`
/// threads, which also accounts their memory.
pub(crate) struct InProcess<'m, M> {
    engine: MapReduceEngine,
    metric: &'m M,
    round1_time: Duration,
    round2_time: Duration,
}

impl<'m, M> InProcess<'m, M> {
    /// An engine simulating `ell` processors, building coresets under
    /// `metric`.
    ///
    /// # Panics
    ///
    /// Panics if `ell == 0` (validate the configuration first).
    pub(crate) fn new(ell: usize, metric: &'m M) -> Self {
        InProcess {
            engine: MapReduceEngine::new(ell),
            metric,
            round1_time: Duration::ZERO,
            round2_time: Duration::ZERO,
        }
    }

    /// The engine's memory report and the wall clock of round 1 and of
    /// round 2's solve.
    pub(crate) fn accounting(&self) -> (MemoryReport, Duration, Duration) {
        (
            self.engine.memory_report(),
            self.round1_time,
            self.round2_time,
        )
    }
}

impl<P, M> MrBackend<P> for InProcess<'_, M>
where
    P: Clone + Send + Sync,
    M: Metric<P>,
{
    type Error = InputError;

    fn round1(
        &mut self,
        points: &[P],
        plan: &Round1Plan<'_>,
    ) -> Result<Round1Output<P>, InputError> {
        let started = Instant::now();
        let n = points.len();
        let metric = self.metric;
        let inputs: Vec<(usize, P)> = points.iter().cloned().enumerate().collect();
        let coresets: Vec<WeightedCoreset<P>> = self.engine.round(
            inputs,
            |(i, p)| (plan.partitioner.assign(i, n, plan.ell), p),
            |&part, members| {
                let job = (plan.job)(part, members.len());
                let build =
                    build_weighted_coreset(&members, metric, job.base, &plan.spec, job.start);
                vec![build.coreset]
            },
        );
        self.round1_time = started.elapsed();
        Ok(Round1Output {
            coreset_sizes: coresets.iter().map(WeightedCoreset::len).collect(),
            union: WeightedCoreset::compose(coresets),
        })
    }

    /// Gathers the union into one reducer; the objective runs inside the
    /// engine's pool so its parallelism honours `ℓ` too.
    fn round2<S, F, O>(&mut self, union: WeightedCoreset<P>, solve: F, objective: O) -> (S, f64)
    where
        S: Send + Sync,
        F: Fn(&WeightedCoreset<P>) -> S + Sync,
        O: FnOnce(&S) -> f64 + Send,
    {
        let started = Instant::now();
        let mut answers = self.engine.round(
            union.points,
            |wp| ((), wp),
            |_, members| vec![solve(&WeightedCoreset { points: members })],
        );
        self.round2_time = started.elapsed();
        let answer = answers.pop().expect("round 2 has one reducer");
        let value = self.engine.run_scoped(|| objective(&answer));
        (answer, value)
    }
}
