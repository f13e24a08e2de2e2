//! The 2-round (2+ε)-approximation MapReduce algorithm for k-center
//! (paper §3.1).
//!
//! Round 1 partitions `S` into `ℓ` equal subsets and builds a GMM coreset
//! from each; round 2 gathers the union `T` into a single reducer and runs
//! GMM for `k` centers on it. Theorem 1: the result is a
//! `(2+ε)`-approximation using local memory
//! `O(|S|/ℓ + ℓ·k·(4/ε)^D)`.
//!
//! With [`CoresetSpec::Multiplier`]` { mu: 1 }` this is exactly the
//! algorithm of Malkomes et al. (2015), the paper's baseline in Fig. 2.

use std::time::Duration;

use kcenter_mapreduce::{Chunked, MemoryReport};
use kcenter_metric::Metric;

use crate::coreset::CoresetSpec;
use crate::error::{check_eps, check_k, InputError};
use crate::gmm::gmm_select;
use crate::mr_backend::{mix, CoresetJob, InProcess, MrBackend, Round1Plan};
use crate::solution::{radius, Clustering};

/// Configuration of the MapReduce k-center algorithm.
#[derive(Clone, Debug)]
pub struct MrKCenterConfig {
    /// Number of centers `k`.
    pub k: usize,
    /// Parallelism `ℓ` (number of partitions = reducers).
    pub ell: usize,
    /// Coreset sizing rule for round 1 (base = `k`).
    pub coreset: CoresetSpec,
    /// Seed controlling the per-partition GMM start point.
    pub seed: u64,
}

/// Result of one MapReduce k-center run.
#[derive(Clone, Debug)]
pub struct MrKCenterResult<P> {
    /// The final k centers and the radius they achieve on `S`.
    pub clustering: Clustering<P>,
    /// Size of each partition's coreset `T_i`.
    pub coreset_sizes: Vec<usize>,
    /// `|T|`, the size of the union gathered by the round-2 reducer.
    pub union_size: usize,
    /// Local/aggregate memory accounting of the two rounds.
    pub memory: MemoryReport,
    /// Wall-clock time of round 1 (coreset construction).
    pub round1_time: Duration,
    /// Wall-clock time of round 2 (GMM on the union).
    pub round2_time: Duration,
}

impl MrKCenterConfig {
    /// Validates this configuration against a dataset of `n` points.
    ///
    /// # Errors
    ///
    /// Returns [`InputError`] for empty input, `k` out of range, `ℓ = 0`,
    /// or an invalid coreset spec.
    pub(crate) fn validate(&self, n: usize) -> Result<(), InputError> {
        check_k(n, self.k)?;
        if self.ell == 0 {
            return Err(InputError::InvalidParallelism);
        }
        if let CoresetSpec::EpsStop { eps } = self.coreset {
            check_eps(eps)?;
        }
        if let Some(target) = self.coreset.target_size(self.k) {
            if target < self.k {
                return Err(InputError::CoresetTooSmall {
                    tau: target,
                    minimum: self.k,
                });
            }
        }
        Ok(())
    }

    /// The seeded GMM start index round 1 uses for partition `part`
    /// holding `members` points.
    ///
    /// # Panics
    ///
    /// Panics if `members == 0` (an empty partition builds no coreset).
    pub fn round1_start(&self, part: usize, members: usize) -> usize {
        assert!(members > 0, "round 1 start of an empty partition");
        (mix(self.seed, part as u64) % members as u64) as usize
    }
}

/// Runs the 2-round MapReduce k-center algorithm on the in-process
/// engine.
///
/// # Errors
///
/// Returns [`InputError`] for empty input, `k` out of range, `ℓ = 0`, or an
/// invalid coreset spec.
pub fn mr_kcenter<P, M>(
    points: &[P],
    metric: &M,
    config: &MrKCenterConfig,
) -> Result<MrKCenterResult<P>, InputError>
where
    P: Clone + Send + Sync,
    M: Metric<P>,
{
    // Validate before the engine exists: it panics on `ℓ = 0`.
    config.validate(points.len())?;
    let mut backend = InProcess::new(config.ell, metric);
    let result = mr_kcenter_on(points, metric, config, &mut backend)?;
    let (memory, round1_time, round2_time) = backend.accounting();
    Ok(MrKCenterResult {
        memory,
        round1_time,
        round2_time,
        ..result
    })
}

/// The 2-round MapReduce k-center algorithm with its rounds run by
/// `backend` — the one implementation behind [`mr_kcenter`] and the
/// multi-process executor.
///
/// Round 1 builds a GMM coreset of base `k` from each `Chunked`
/// partition; round 2 runs GMM for `k` centers on their union; the
/// objective is the radius on all of `points`. The result's `memory`
/// and round times are the backend's accounting and stay empty here.
///
/// # Errors
///
/// An invalid configuration (as [`mr_kcenter`]) fails before round 1;
/// otherwise whatever the backend's round 1 reports.
pub fn mr_kcenter_on<P, M, B>(
    points: &[P],
    metric: &M,
    config: &MrKCenterConfig,
    backend: &mut B,
) -> Result<MrKCenterResult<P>, B::Error>
where
    P: Clone + Send + Sync,
    M: Metric<P>,
    B: MrBackend<P>,
{
    config.validate(points.len())?;
    let k = config.k;
    let job = |part, members| CoresetJob {
        base: k,
        start: config.round1_start(part, members),
    };
    let round1 = backend.round1(
        points,
        &Round1Plan {
            ell: config.ell,
            partitioner: &Chunked,
            spec: config.coreset,
            job: &job,
        },
    )?;
    let union_size = round1.union.len();
    let (centers, final_radius) = backend.round2(
        round1.union,
        |union| {
            let union = union.points_only();
            let selected = gmm_select(&union, metric, k, 0);
            selected
                .centers
                .into_iter()
                .map(|idx| union[idx].clone())
                .collect::<Vec<P>>()
        },
        |centers| radius(points, centers, metric),
    );
    Ok(MrKCenterResult {
        clustering: Clustering {
            centers,
            radius: final_radius,
        },
        coreset_sizes: round1.coreset_sizes,
        union_size,
        memory: MemoryReport::default(),
        round1_time: Duration::ZERO,
        round2_time: Duration::ZERO,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute_force::optimal_kcenter;
    use kcenter_metric::{Euclidean, Point};

    fn grid_points(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| Point::new(vec![(i % 30) as f64, (i / 30) as f64]))
            .collect()
    }

    fn config(k: usize, ell: usize, mu: usize) -> MrKCenterConfig {
        MrKCenterConfig {
            k,
            ell,
            coreset: CoresetSpec::Multiplier { mu },
            seed: 7,
        }
    }

    #[test]
    fn returns_k_centers_and_valid_radius() {
        let points = grid_points(600);
        let result = mr_kcenter(&points, &Euclidean, &config(5, 4, 2)).unwrap();
        assert_eq!(result.clustering.k(), 5);
        assert_eq!(
            result.clustering.radius,
            radius(&points, &result.clustering.centers, &Euclidean)
        );
        assert_eq!(result.coreset_sizes.len(), 4);
        assert_eq!(result.union_size, 4 * 10);
    }

    #[test]
    fn two_rounds_are_recorded() {
        let points = grid_points(200);
        let result = mr_kcenter(&points, &Euclidean, &config(3, 2, 1)).unwrap();
        assert_eq!(result.memory.round_count(), 2);
        // Round 1 local memory: one partition of the input.
        assert_eq!(result.memory.rounds[0].max_reducer_load, 100);
        // Round 2 local memory: the union of coresets.
        assert_eq!(result.memory.rounds[1].max_reducer_load, result.union_size);
    }

    #[test]
    fn approximation_factor_on_small_instance() {
        // Compare against the exact optimum: must be within factor 2 + ε,
        // with generous slack for coreset effects at µ = 1.
        let points: Vec<Point> = (0..18)
            .map(|i| Point::new(vec![(i % 6) as f64 * 10.0 + (i / 6) as f64]))
            .collect();
        let (_, opt) = optimal_kcenter(&points, &Euclidean, 3);
        assert!(opt > 0.0);
        let result = mr_kcenter(&points, &Euclidean, &config(3, 2, 4)).unwrap();
        assert!(
            result.clustering.radius <= (2.0 + 1.0) * opt + 1e-9,
            "ratio {} too large",
            result.clustering.radius / opt
        );
    }

    #[test]
    fn bigger_coresets_do_not_hurt() {
        let points = grid_points(900);
        let small = mr_kcenter(&points, &Euclidean, &config(6, 4, 1)).unwrap();
        let large = mr_kcenter(&points, &Euclidean, &config(6, 4, 8)).unwrap();
        assert!(large.clustering.radius <= small.clustering.radius * 1.25 + 1e-9);
    }

    #[test]
    fn eps_stop_spec_works_end_to_end() {
        let points = grid_points(400);
        let cfg = MrKCenterConfig {
            k: 4,
            ell: 4,
            coreset: CoresetSpec::EpsStop { eps: 0.5 },
            seed: 1,
        };
        let result = mr_kcenter(&points, &Euclidean, &cfg).unwrap();
        assert_eq!(result.clustering.k(), 4);
        assert!(result.union_size >= 4 * 4, "coresets at least k each");
    }

    #[test]
    fn single_partition_is_sequential_gmm_plus_gmm() {
        let points = grid_points(120);
        let result = mr_kcenter(&points, &Euclidean, &config(4, 1, 2)).unwrap();
        assert_eq!(result.coreset_sizes, vec![8]);
        assert_eq!(result.union_size, 8);
    }

    #[test]
    fn input_validation() {
        let points = grid_points(10);
        assert!(matches!(
            mr_kcenter(&points, &Euclidean, &config(0, 2, 1)),
            Err(InputError::InvalidK { .. })
        ));
        assert!(matches!(
            mr_kcenter(&points, &Euclidean, &config(10, 2, 1)),
            Err(InputError::InvalidK { .. })
        ));
        let mut cfg = config(2, 0, 1);
        cfg.ell = 0;
        assert!(matches!(
            mr_kcenter(&points, &Euclidean, &cfg),
            Err(InputError::InvalidParallelism)
        ));
        let empty: Vec<Point> = Vec::new();
        assert!(matches!(
            mr_kcenter(&empty, &Euclidean, &config(1, 1, 1)),
            Err(InputError::EmptyInput)
        ));
        let bad_spec = MrKCenterConfig {
            k: 4,
            ell: 2,
            coreset: CoresetSpec::Fixed { tau: 2 },
            seed: 0,
        };
        assert!(matches!(
            mr_kcenter(&grid_points(40), &Euclidean, &bad_spec),
            Err(InputError::CoresetTooSmall { .. })
        ));
    }

    #[test]
    fn deterministic_given_seed() {
        let points = grid_points(300);
        let a = mr_kcenter(&points, &Euclidean, &config(4, 4, 2)).unwrap();
        let b = mr_kcenter(&points, &Euclidean, &config(4, 4, 2)).unwrap();
        assert_eq!(a.clustering.radius, b.clustering.radius);
        assert_eq!(a.union_size, b.union_size);
    }
}
