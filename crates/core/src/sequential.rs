//! The improved sequential algorithm for k-center with `z` outliers
//! (paper §3.2, "Improved sequential algorithm").
//!
//! Setting `ℓ = 1` in the MapReduce strategy gives a sequential algorithm:
//! build one weighted GMM coreset `T` from the whole input, then run the
//! radius search + `OutliersCluster` on `T`. Running time
//! `O(|S|·|T| + k·|T|²·log|T|)` — for coresets much smaller than the input
//! this beats the `O(k·|S|²·log|S|)` of Charikar et al. by orders of
//! magnitude at a negligible loss in quality (Fig. 8), and it is the
//! engine behind the paper's claim of a "much faster sequential
//! implementation".

use std::time::{Duration, Instant};

use kcenter_metric::Metric;

use crate::coreset::{build_weighted_coreset, CoresetSpec};
use crate::error::{check_eps, check_eps_hat, check_kz, InputError};
use crate::radius_search::{default_matrix_threshold, solve_coreset, SearchMode};
use crate::solution::{radius_with_outliers, Clustering};

/// Configuration of the sequential coreset algorithm.
#[derive(Clone, Debug)]
pub struct SequentialOutliersConfig {
    /// Number of centers `k`.
    pub k: usize,
    /// Outlier budget `z`.
    pub z: usize,
    /// Precision `ε̂ ∈ (0, 1]`.
    pub eps_hat: f64,
    /// Coreset sizing rule (base = `k + z`).
    pub coreset: CoresetSpec,
    /// Seed selecting the GMM start point.
    pub seed: u64,
    /// Radius search mode.
    pub search: SearchMode,
    /// Distance-matrix caching threshold.
    pub matrix_threshold: usize,
}

impl SequentialOutliersConfig {
    /// Defaults matching the paper's Fig. 8 runs: `τ = µ(k+z)`, geometric
    /// search, `ε̂ = 1/6`.
    pub fn new(k: usize, z: usize, mu: usize) -> Self {
        SequentialOutliersConfig {
            k,
            z,
            eps_hat: 1.0 / 6.0,
            coreset: CoresetSpec::Multiplier { mu },
            seed: 0,
            search: SearchMode::GeometricGrid,
            matrix_threshold: default_matrix_threshold(),
        }
    }
}

/// Result of a sequential run, with the phase split reported in Fig. 8.
#[derive(Clone, Debug)]
pub struct SequentialOutliersResult<P> {
    /// Centers and the measured objective `r_{T,Z_T}(S)`.
    pub clustering: Clustering<P>,
    /// Radius found on the coreset.
    pub r_min: f64,
    /// Coreset size `|T|`.
    pub coreset_size: usize,
    /// Time to build the coreset (GMM over the whole input).
    pub coreset_time: Duration,
    /// Time for the radius search + final cover on the coreset.
    pub cluster_time: Duration,
    /// Number of `OutliersCluster` evaluations.
    pub search_evaluations: usize,
}

/// Runs the sequential (ℓ = 1) coreset algorithm for k-center with `z`
/// outliers.
///
/// # Errors
///
/// Returns [`InputError`] for invalid `(n, k, z)` or precision parameters.
pub fn sequential_kcenter_outliers<P, M>(
    points: &[P],
    metric: &M,
    config: &SequentialOutliersConfig,
) -> Result<SequentialOutliersResult<P>, InputError>
where
    P: Clone + Send + Sync,
    M: Metric<P>,
{
    check_kz(points.len(), config.k, config.z)?;
    check_eps_hat(config.eps_hat)?;
    if let CoresetSpec::EpsStop { eps } = config.coreset {
        check_eps(eps)?;
    }

    let base = (config.k + config.z).min(points.len());
    let start = (config.seed % points.len() as u64) as usize;

    let coreset_start = Instant::now();
    let build = build_weighted_coreset(points, metric, base, &config.coreset, start);
    let coreset_time = coreset_start.elapsed();

    let cluster_start = Instant::now();
    let solution = solve_coreset(
        &build.coreset,
        metric,
        config.k,
        config.z as u64,
        config.eps_hat,
        config.search,
        config.matrix_threshold,
    );
    let cluster_time = cluster_start.elapsed();

    let final_radius = radius_with_outliers(points, &solution.centers, config.z, metric);
    Ok(SequentialOutliersResult {
        clustering: Clustering {
            centers: solution.centers,
            radius: final_radius,
        },
        r_min: solution.r_min,
        coreset_size: build.tau,
        coreset_time,
        cluster_time,
        search_evaluations: solution.evaluations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute_force::optimal_kcenter_outliers;
    use kcenter_metric::{Euclidean, Point};

    fn two_clusters_with_outliers() -> Vec<Point> {
        let mut pts: Vec<Point> = Vec::new();
        for i in 0..25 {
            pts.push(Point::new(vec![(i % 5) as f64, (i / 5) as f64]));
        }
        for i in 0..25 {
            pts.push(Point::new(vec![200.0 + (i % 5) as f64, (i / 5) as f64]));
        }
        pts.push(Point::new(vec![5_000.0, 0.0]));
        pts.push(Point::new(vec![0.0, -6_000.0]));
        pts
    }

    #[test]
    fn solves_the_planted_instance() {
        let points = two_clusters_with_outliers();
        let config = SequentialOutliersConfig::new(2, 2, 4);
        let result = sequential_kcenter_outliers(&points, &Euclidean, &config).unwrap();
        assert!(result.clustering.k() <= 2);
        assert!(
            result.clustering.radius < 20.0,
            "radius {} should exclude the two outliers",
            result.clustering.radius
        );
        assert_eq!(result.coreset_size, 4 * (2 + 2));
    }

    #[test]
    fn larger_mu_does_not_hurt_quality() {
        let points = two_clusters_with_outliers();
        let r1 = sequential_kcenter_outliers(
            &points,
            &Euclidean,
            &SequentialOutliersConfig::new(2, 2, 1),
        )
        .unwrap();
        let r8 = sequential_kcenter_outliers(
            &points,
            &Euclidean,
            &SequentialOutliersConfig::new(2, 2, 8),
        )
        .unwrap();
        assert!(r8.clustering.radius <= r1.clustering.radius + 1e-9);
    }

    #[test]
    fn within_theorem_bound_of_optimal() {
        let points = two_clusters_with_outliers();
        let small: Vec<Point> = points.iter().take(12).cloned().collect();
        let (_, opt) = optimal_kcenter_outliers(&small, &Euclidean, 2, 1);
        let config = SequentialOutliersConfig::new(2, 1, 8);
        let result = sequential_kcenter_outliers(&small, &Euclidean, &config).unwrap();
        // ε = 6·ε̂ = 1 → (3 + 1)·OPT.
        assert!(
            result.clustering.radius <= 4.0 * opt + 1e-9,
            "{} vs opt {opt}",
            result.clustering.radius
        );
    }

    #[test]
    fn eps_stop_spec_supported() {
        let points = two_clusters_with_outliers();
        let mut config = SequentialOutliersConfig::new(2, 2, 1);
        config.coreset = CoresetSpec::EpsStop { eps: 0.5 };
        let result = sequential_kcenter_outliers(&points, &Euclidean, &config).unwrap();
        assert!(result.coreset_size >= 4);
        assert!(result.clustering.radius < 20.0);
    }

    #[test]
    fn rejects_bad_input() {
        let points = two_clusters_with_outliers(); // 52 points
        let config = SequentialOutliersConfig::new(2, 50, 1); // k + z = n
        assert!(matches!(
            sequential_kcenter_outliers(&points, &Euclidean, &config),
            Err(InputError::InvalidZ { .. })
        ));
        let config = SequentialOutliersConfig::new(60, 1, 1); // k > n
        assert!(matches!(
            sequential_kcenter_outliers(&points, &Euclidean, &config),
            Err(InputError::InvalidK { .. })
        ));
    }
}
