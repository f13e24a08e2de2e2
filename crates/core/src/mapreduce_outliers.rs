//! The 2-round (3+ε)-approximation MapReduce algorithms for k-center with
//! `z` outliers (paper §3.2), deterministic and randomized.
//!
//! Round 1 builds a *weighted* GMM coreset per partition (every coreset
//! point carries the number of input points it proxies). Round 2 gathers the
//! weighted union `T` into one reducer and estimates the minimum radius at
//! which `OutliersCluster(T, k, r, ε̂)` leaves at most `z` weight uncovered
//! ([`crate::radius_search`]); its centers are the output. Theorem 2: a
//! `(3+ε)`-approximation with `ε̂ = ε/6`.
//!
//! The two variants differ in round 1 (paper §3.2.1):
//!
//! * **deterministic** — arbitrary (chunked) partition, coreset base
//!   `k + z`: each partition must be able to absorb *all* outliers, because
//!   an adversary could put them all in one partition;
//! * **randomized** — uniform random partition; with high probability each
//!   partition receives only `z' = 6(z/ℓ + log₂|S|)` outliers (Lemma 7), so
//!   the coreset base shrinks to `k + z'` — a large memory/time saving when
//!   `z ≫ k` (Corollary 3). The experiments drop the `log₂|S|` term, which
//!   is only needed when `z ≈ ℓ` (§5.2); both forms are supported.
//!
//! With [`CoresetSpec::Multiplier`]` { mu: 1 }` the deterministic variant is
//! exactly the algorithm of Malkomes et al. (2015), the Fig. 4 baseline.

use std::time::Duration;

use kcenter_mapreduce::{Adversarial, Chunked, MemoryReport, Partitioner, RandomPartition};
use kcenter_metric::{CachedOracle, Metric};

use crate::coreset::CoresetSpec;
use crate::error::{check_eps, check_eps_hat, check_kz, InputError};
use crate::mr_backend::{mix, CoresetJob, InProcess, MrBackend, Round1Plan};
use crate::radius_search::{default_matrix_threshold, solve_coreset_cached, SearchMode};
use crate::solution::{radius_with_outliers, Clustering};

/// Which §3.2 variant to run (controls the coreset base).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MrOutliersVariant {
    /// Coreset base `k + z` per partition.
    Deterministic,
    /// Coreset base `k + z'`, `z' = 6·z/ℓ (+ 6·log₂|S|)`.
    Randomized {
        /// Include the `6·log₂|S|` term of Lemma 7 (the experiments omit
        /// it; it only matters when `z ≈ ℓ`).
        include_log_term: bool,
    },
}

/// How round 1 partitions the input.
#[derive(Clone, Debug)]
pub enum MrPartitioning {
    /// Deterministic equal-size chunks (the paper's default).
    Chunked,
    /// Uniform random assignment (the randomized variant's default).
    Random,
    /// All `special` indices (e.g. injected outliers) forced into one
    /// partition — the adversarial setup of Fig. 4.
    Adversarial {
        /// Indices routed to partition 0.
        special: Vec<usize>,
    },
}

/// Configuration of the MapReduce k-center-with-outliers algorithm.
#[derive(Clone, Debug)]
pub struct MrOutliersConfig {
    /// Number of centers `k`.
    pub k: usize,
    /// Outlier budget `z`.
    pub z: usize,
    /// Parallelism `ℓ`.
    pub ell: usize,
    /// Precision `ε̂ ∈ (0, 1]` for `OutliersCluster` and the radius search
    /// (Theorem 2 uses `ε̂ = ε/6`).
    pub eps_hat: f64,
    /// Coreset sizing rule (base is `k + z` or `k + z'` per the variant).
    pub coreset: CoresetSpec,
    /// Deterministic or randomized variant.
    pub variant: MrOutliersVariant,
    /// Partitioning of round 1.
    pub partitioning: MrPartitioning,
    /// Seed for the random partition and GMM start points.
    pub seed: u64,
    /// Radius search mode.
    pub search: SearchMode,
    /// Cache the coreset distance matrix when `|T|` is at most this.
    pub matrix_threshold: usize,
}

impl MrOutliersConfig {
    /// The paper's deterministic algorithm with sensible defaults.
    pub fn deterministic(k: usize, z: usize, ell: usize, coreset: CoresetSpec) -> Self {
        MrOutliersConfig {
            k,
            z,
            ell,
            eps_hat: 1.0 / 6.0,
            coreset,
            variant: MrOutliersVariant::Deterministic,
            partitioning: MrPartitioning::Chunked,
            seed: 0,
            search: SearchMode::GeometricGrid,
            matrix_threshold: default_matrix_threshold(),
        }
    }

    /// The paper's randomized algorithm with sensible defaults
    /// (experimental form: no `log₂|S|` term).
    pub fn randomized(k: usize, z: usize, ell: usize, coreset: CoresetSpec) -> Self {
        MrOutliersConfig {
            variant: MrOutliersVariant::Randomized {
                include_log_term: false,
            },
            partitioning: MrPartitioning::Random,
            ..Self::deterministic(k, z, ell, coreset)
        }
    }

    /// The coreset base `k + z` (deterministic) or `k + z'` (randomized)
    /// for a dataset of `n` points.
    pub fn coreset_base(&self, n: usize) -> usize {
        match self.variant {
            MrOutliersVariant::Deterministic => self.k + self.z,
            MrOutliersVariant::Randomized { include_log_term } => {
                let z_over_ell = (6 * self.z).div_ceil(self.ell);
                let log_term = if include_log_term {
                    6 * (n.max(2) as f64).log2().ceil() as usize
                } else {
                    0
                };
                self.k + z_over_ell + log_term
            }
        }
    }

    /// Validates this configuration against a dataset of `n` points.
    ///
    /// # Errors
    ///
    /// Returns [`InputError`] for empty input, `k`/`z` out of range,
    /// `ℓ = 0`, or an invalid precision/coreset spec.
    pub(crate) fn validate(&self, n: usize) -> Result<(), InputError> {
        check_kz(n, self.k, self.z)?;
        if self.ell == 0 {
            return Err(InputError::InvalidParallelism);
        }
        check_eps_hat(self.eps_hat)?;
        if let CoresetSpec::EpsStop { eps } = self.coreset {
            check_eps(eps)?;
        }
        let base = self.coreset_base(n);
        if let Some(target) = self.coreset.target_size(base) {
            if target < self.k {
                return Err(InputError::CoresetTooSmall {
                    tau: target,
                    minimum: self.k,
                });
            }
        }
        Ok(())
    }

    /// The round-1 partitioner this configuration selects.
    pub(crate) fn partitioner(&self) -> Box<dyn Partitioner> {
        match &self.partitioning {
            MrPartitioning::Chunked => Box::new(Chunked),
            MrPartitioning::Random => Box::new(RandomPartition::new(mix(self.seed, 0xF00D))),
            MrPartitioning::Adversarial { special } => {
                Box::new(Adversarial::new(special.iter().copied()))
            }
        }
    }

    /// The GMM start index round 1 uses for partition `part` holding
    /// `members` points (salted differently from the plain k-center rule).
    ///
    /// # Panics
    ///
    /// Panics if `members == 0` (an empty partition builds no coreset).
    pub fn round1_start(&self, part: usize, members: usize) -> usize {
        assert!(members > 0, "round 1 start of an empty partition");
        (mix(self.seed, part as u64 + 1) % members as u64) as usize
    }
}

/// Result of one MapReduce k-center-with-outliers run.
#[derive(Clone, Debug)]
pub struct MrOutliersResult<P> {
    /// The final (at most) k centers; `radius` is the objective
    /// `r_{T,Z_T}(S)` measured on the full input with `z` outliers.
    pub clustering: Clustering<P>,
    /// The radius `r̃min` found on the coreset by the search.
    pub r_min: f64,
    /// Weight left uncovered on the coreset at `r̃min` (≤ z).
    pub uncovered_weight: u64,
    /// Coreset base used (`k + z` or `k + z'`).
    pub base: usize,
    /// Size of each partition's coreset.
    pub coreset_sizes: Vec<usize>,
    /// `|T|`, the weighted union's size.
    pub union_size: usize,
    /// Number of `OutliersCluster` evaluations in the radius search.
    pub search_evaluations: usize,
    /// Memory accounting for both rounds.
    pub memory: MemoryReport,
    /// Wall-clock time of round 1 (coreset construction).
    pub round1_time: Duration,
    /// Wall-clock time of round 2 (radius search + final cover).
    pub round2_time: Duration,
}

/// Runs the 2-round MapReduce k-center-with-outliers algorithm on the
/// in-process engine.
///
/// # Errors
///
/// Returns [`InputError`] for empty input, `k`/`z` out of range, `ℓ = 0`,
/// or an invalid precision/coreset spec.
pub fn mr_kcenter_outliers<P, M>(
    points: &[P],
    metric: &M,
    config: &MrOutliersConfig,
) -> Result<MrOutliersResult<P>, InputError>
where
    P: Clone + Send + Sync,
    M: Metric<P>,
{
    // Validate before the engine exists: it panics on `ℓ = 0`.
    config.validate(points.len())?;
    let mut backend = InProcess::new(config.ell, metric);
    let result = mr_kcenter_outliers_on(points, metric, config, &mut backend)?;
    let (memory, round1_time, round2_time) = backend.accounting();
    Ok(MrOutliersResult {
        memory,
        round1_time,
        round2_time,
        ..result
    })
}

/// The 2-round MapReduce k-center-with-outliers algorithm with its rounds
/// run by `backend` — the one implementation behind
/// [`mr_kcenter_outliers`] and the multi-process executor.
///
/// Round 1 builds a weighted GMM coreset of base `k + z` (or `k + z'`,
/// clamped to the partition size) from each partition the configured
/// [`MrPartitioning`] gives; round 2 runs the radius search on their
/// union; the objective is the radius on all of `points` with `z`
/// outliers. The result's `memory` and round times are the backend's
/// accounting and stay empty here.
///
/// # Errors
///
/// An invalid configuration (as [`mr_kcenter_outliers`]) fails before
/// round 1; otherwise whatever the backend's round 1 reports.
pub fn mr_kcenter_outliers_on<P, M, B>(
    points: &[P],
    metric: &M,
    config: &MrOutliersConfig,
    backend: &mut B,
) -> Result<MrOutliersResult<P>, B::Error>
where
    P: Clone + Send + Sync,
    M: Metric<P>,
    B: MrBackend<P>,
{
    config.validate(points.len())?;
    let base = config.coreset_base(points.len());
    let partitioner = config.partitioner();
    let job = |part, members: usize| CoresetJob {
        base: base.min(members),
        start: config.round1_start(part, members),
    };
    let round1 = backend.round1(
        points,
        &Round1Plan {
            ell: config.ell,
            partitioner: partitioner.as_ref(),
            spec: config.coreset,
            job: &job,
        },
    )?;
    let union_size = round1.union.len();
    let (solution, final_radius) = backend.round2(
        round1.union,
        |union| {
            // Price the union into one oracle: the radius search's many
            // OutliersCluster evaluations share its lazily built proxy
            // matrix. The handle lives only for this reducer — sweeps
            // that re-solve one coreset under several parameters hold a
            // CachedOracle themselves and call solve_coreset_cached.
            let oracle = CachedOracle::new(union.points_only(), metric, config.matrix_threshold);
            solve_coreset_cached(
                &oracle,
                &union.weights(),
                config.k,
                config.z as u64,
                config.eps_hat,
                config.search,
            )
        },
        |solution| radius_with_outliers(points, &solution.centers, config.z, metric),
    );
    Ok(MrOutliersResult {
        clustering: Clustering {
            centers: solution.centers,
            radius: final_radius,
        },
        r_min: solution.r_min,
        uncovered_weight: solution.uncovered_weight,
        base,
        coreset_sizes: round1.coreset_sizes,
        union_size,
        search_evaluations: solution.evaluations,
        memory: MemoryReport::default(),
        round1_time: Duration::ZERO,
        round2_time: Duration::ZERO,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute_force::optimal_kcenter_outliers;
    use kcenter_metric::{Euclidean, Point};

    /// Three clusters plus `z` far outliers at the tail of the array.
    fn clustered_with_outliers(per_cluster: usize, z: usize) -> (Vec<Point>, Vec<usize>) {
        let mut pts = Vec::new();
        for c in 0..3 {
            for i in 0..per_cluster {
                pts.push(Point::new(vec![
                    c as f64 * 100.0 + (i % 10) as f64 * 0.1,
                    (i / 10) as f64 * 0.1,
                ]));
            }
        }
        let base = pts.len();
        for j in 0..z {
            pts.push(Point::new(vec![
                10_000.0 + 500.0 * j as f64,
                10_000.0 - 700.0 * j as f64,
            ]));
        }
        (pts, (base..base + z).collect())
    }

    #[test]
    fn deterministic_finds_clusters_and_drops_outliers() {
        let (points, outliers) = clustered_with_outliers(60, 4);
        let config = MrOutliersConfig::deterministic(3, 4, 4, CoresetSpec::Multiplier { mu: 2 });
        let result = mr_kcenter_outliers(&points, &Euclidean, &config).unwrap();
        assert!(result.clustering.k() <= 3);
        // The clusters have diameter ~1.3; outliers are 10⁴ away. A correct
        // solution must achieve a small radius once z points are excluded.
        assert!(
            result.clustering.radius < 10.0,
            "radius {} did not exclude outliers",
            result.clustering.radius
        );
        // The excluded points are exactly the injected outliers.
        let excluded =
            crate::solution::outlier_indices(&points, &result.clustering.centers, 4, &Euclidean);
        assert_eq!(excluded, outliers);
    }

    #[test]
    fn adversarial_partition_hurts_mu1_but_not_mu8() {
        // All outliers in one partition (paper §5.2): with µ = 1 the coreset
        // of that partition spends z of its k + z slots on outliers (GMM
        // picks the farthest points first), leaving the partition's wide
        // cluster underrepresented. µ = 8 recovers the representation.
        // Clusters are 10×6 unit grids (diameter ~10.3) so representation
        // quality is visible in the final radius.
        let mut points: Vec<Point> = Vec::new();
        for c in 0..3 {
            for i in 0..60 {
                points.push(Point::new(vec![
                    c as f64 * 300.0 + (i % 10) as f64,
                    (i / 10) as f64,
                ]));
            }
        }
        let base = points.len();
        for j in 0..6 {
            points.push(Point::new(vec![
                20_000.0 + 3_000.0 * j as f64,
                -15_000.0 + 4_000.0 * j as f64,
            ]));
        }
        let outliers: Vec<usize> = (base..base + 6).collect();
        let mk = |mu: usize| {
            let mut c = MrOutliersConfig::deterministic(3, 6, 3, CoresetSpec::Multiplier { mu });
            c.partitioning = MrPartitioning::Adversarial {
                special: outliers.clone(),
            };
            c
        };
        let small = mr_kcenter_outliers(&points, &Euclidean, &mk(1)).unwrap();
        let large = mr_kcenter_outliers(&points, &Euclidean, &mk(8)).unwrap();
        assert!(
            large.clustering.radius <= small.clustering.radius + 1e-9,
            "µ=8 ({}) should not be worse than µ=1 ({})",
            large.clustering.radius,
            small.clustering.radius
        );
        // Both still separate outliers from clusters.
        assert!(large.clustering.radius < 50.0);
        assert!(small.clustering.radius < 300.0);
    }

    #[test]
    fn randomized_uses_smaller_coresets() {
        // z' = 6·z/ℓ beats z only when ℓ > 6 (the regime the randomized
        // variant targets: many partitions, many outliers).
        let (points, _) = clustered_with_outliers(80, 16);
        let det = MrOutliersConfig::deterministic(3, 16, 8, CoresetSpec::Multiplier { mu: 1 });
        let rand = MrOutliersConfig::randomized(3, 16, 8, CoresetSpec::Multiplier { mu: 1 });
        let n = points.len();
        assert_eq!(det.coreset_base(n), 3 + 16);
        assert_eq!(rand.coreset_base(n), 3 + 12);
        let det_r = mr_kcenter_outliers(&points, &Euclidean, &det).unwrap();
        let rand_r = mr_kcenter_outliers(&points, &Euclidean, &rand).unwrap();
        assert!(rand_r.union_size <= det_r.union_size);
        // Randomized must still produce a valid solution.
        assert!(
            rand_r.clustering.radius < 10.0,
            "radius {}",
            rand_r.clustering.radius
        );
    }

    #[test]
    fn log_term_grows_the_base() {
        let with_log = MrOutliersConfig {
            variant: MrOutliersVariant::Randomized {
                include_log_term: true,
            },
            ..MrOutliersConfig::randomized(5, 20, 4, CoresetSpec::Multiplier { mu: 1 })
        };
        let without = MrOutliersConfig::randomized(5, 20, 4, CoresetSpec::Multiplier { mu: 1 });
        assert!(with_log.coreset_base(1024) > without.coreset_base(1024));
        // 6·log2(1024) = 60.
        assert_eq!(with_log.coreset_base(1024), without.coreset_base(1024) + 60);
    }

    #[test]
    fn approximation_versus_brute_force() {
        // Tiny instance where the exact optimum is computable: 2 clusters
        // of 6 + 2 outliers, k = 2, z = 2.
        let mut points: Vec<Point> = Vec::new();
        for i in 0..6 {
            points.push(Point::new(vec![i as f64 * 0.3]));
        }
        for i in 0..6 {
            points.push(Point::new(vec![40.0 + i as f64 * 0.3]));
        }
        points.push(Point::new(vec![500.0]));
        points.push(Point::new(vec![-400.0]));
        let (_, opt) = optimal_kcenter_outliers(&points, &Euclidean, 2, 2);
        assert!(opt > 0.0);
        let config = MrOutliersConfig::deterministic(2, 2, 2, CoresetSpec::Multiplier { mu: 4 });
        let result = mr_kcenter_outliers(&points, &Euclidean, &config).unwrap();
        // Theorem 2 bound with ε = 6·ε̂ = 1 → factor 4; allow tiny epsilon.
        assert!(
            result.clustering.radius <= 4.0 * opt + 1e-9,
            "radius {} vs opt {opt}",
            result.clustering.radius
        );
    }

    #[test]
    fn memory_report_covers_two_rounds() {
        let (points, _) = clustered_with_outliers(40, 3);
        let config = MrOutliersConfig::deterministic(3, 3, 4, CoresetSpec::Multiplier { mu: 1 });
        let result = mr_kcenter_outliers(&points, &Euclidean, &config).unwrap();
        assert_eq!(result.memory.round_count(), 2);
        assert_eq!(result.memory.rounds[1].max_reducer_load, result.union_size);
        assert_eq!(result.coreset_sizes.len(), 4);
    }

    #[test]
    fn input_validation() {
        let (points, _) = clustered_with_outliers(5, 1);
        let bad_z =
            MrOutliersConfig::deterministic(3, points.len(), 2, CoresetSpec::Multiplier { mu: 1 });
        assert!(matches!(
            mr_kcenter_outliers(&points, &Euclidean, &bad_z),
            Err(InputError::InvalidZ { .. })
        ));
        let mut bad_eps =
            MrOutliersConfig::deterministic(2, 1, 2, CoresetSpec::Multiplier { mu: 1 });
        bad_eps.eps_hat = 0.0;
        assert!(matches!(
            mr_kcenter_outliers(&points, &Euclidean, &bad_eps),
            Err(InputError::InvalidEpsilon { .. })
        ));
    }

    #[test]
    fn exact_and_grid_search_modes_agree_roughly() {
        let (points, _) = clustered_with_outliers(30, 3);
        let mut exact = MrOutliersConfig::deterministic(3, 3, 2, CoresetSpec::Multiplier { mu: 2 });
        exact.search = SearchMode::ExactCandidates;
        let grid = MrOutliersConfig::deterministic(3, 3, 2, CoresetSpec::Multiplier { mu: 2 });
        let a = mr_kcenter_outliers(&points, &Euclidean, &exact).unwrap();
        let b = mr_kcenter_outliers(&points, &Euclidean, &grid).unwrap();
        // Both must solve the instance (small radius after excluding z).
        assert!(a.clustering.radius < 10.0);
        assert!(b.clustering.radius < 10.0);
    }
}
