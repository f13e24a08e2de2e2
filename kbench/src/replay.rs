//! The rounds of `mr_kcenter_outliers` called one layer at a time through
//! public functions, so a traced run can time each layer's share of a job
//! from outside the program. The result is bitwise that of
//! `mr_kcenter_outliers`; the traced batch run checks it on every job.

use kcenter_core::coreset::{build_weighted_coreset, WeightedCoreset};
use kcenter_core::mapreduce_outliers::{MrOutliersConfig, MrOutliersResult, MrPartitioning};
use kcenter_core::radius_search::{solve_coreset_cached, CoresetSolution};
use kcenter_metric::{CachedOracle, Euclidean, Point};
use rayon::prelude::*;

/// What one k-center-with-outliers job answered.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// The centers.
    pub centers: Vec<Point>,
    /// The objective on the full input with `z` outliers.
    pub radius: f64,
    /// The radius the search found on the coreset.
    pub r_min: f64,
    /// Coreset weight left uncovered at `r_min`.
    pub uncovered: u64,
}

impl Outcome {
    /// Bitwise equality: centers to the coordinate bit, radii to the bit.
    pub fn same(&self, other: &Outcome) -> bool {
        self.radius.to_bits() == other.radius.to_bits()
            && self.r_min.to_bits() == other.r_min.to_bits()
            && self.uncovered == other.uncovered
            && same_points(&self.centers, &other.centers)
    }
}

impl From<&MrOutliersResult<Point>> for Outcome {
    fn from(r: &MrOutliersResult<Point>) -> Outcome {
        Outcome {
            centers: r.clustering.centers.clone(),
            radius: r.clustering.radius,
            r_min: r.r_min,
            uncovered: r.uncovered_weight,
        }
    }
}

/// Whether two point lists are equal to the coordinate bit.
pub fn same_points(a: &[Point], b: &[Point]) -> bool {
    let bits = |p: &Point| p.coords().iter().map(|c| c.to_bits()).collect::<Vec<_>>();
    a.len() == b.len() && a.iter().zip(b).all(|(p, q)| bits(p) == bits(q))
}

/// Round 1's output.
pub struct Union {
    /// The weighted union of the per-partition coresets, in partition order.
    pub coreset: WeightedCoreset<Point>,
    /// Distance evaluations round 1 made, computed as
    /// Σ |partition| · |its coreset|.
    pub dist_evals: u64,
}

/// Round 1: one weighted coreset per `Chunked` partition, built in
/// parallel. Item `i` of `n` goes to partition `⌊i·ℓ/n⌋`, so partition
/// `p` is the contiguous range starting at `⌈p·n/ℓ⌉`.
pub fn round1(points: &[Point], config: &MrOutliersConfig) -> Union {
    assert!(matches!(config.partitioning, MrPartitioning::Chunked));
    let (n, ell) = (points.len(), config.ell);
    let base = config.coreset_base(n);
    let parts: Vec<(usize, &[Point])> = (0..ell)
        .map(|p| {
            (
                p,
                &points[(p * n).div_ceil(ell)..((p + 1) * n).div_ceil(ell)],
            )
        })
        .filter(|(_, members)| !members.is_empty())
        .collect();
    let coresets: Vec<WeightedCoreset<Point>> = parts
        .par_iter()
        .map(|&(p, members)| {
            let start = config.round1_start(p, members.len());
            let base = base.min(members.len());
            build_weighted_coreset(members, &Euclidean, base, &config.coreset, start).coreset
        })
        .collect();
    let dist_evals = parts
        .iter()
        .zip(&coresets)
        .map(|((_, members), c)| (members.len() * c.len()) as u64)
        .sum();
    Union {
        coreset: WeightedCoreset::compose(coresets),
        dist_evals,
    }
}

/// Prices a round-2 union into a distance oracle and builds its matrix.
pub fn price(
    union: &WeightedCoreset<Point>,
    config: &MrOutliersConfig,
) -> CachedOracle<'static, Point, Euclidean> {
    let oracle = CachedOracle::new(union.points_only(), &Euclidean, config.matrix_threshold);
    let _ = oracle.matrix();
    oracle
}

/// Round 2's radius search on a priced union.
pub fn search(
    oracle: &CachedOracle<'_, Point, Euclidean>,
    union: &WeightedCoreset<Point>,
    config: &MrOutliersConfig,
) -> CoresetSolution<Point> {
    let z = config.z as u64;
    solve_coreset_cached(
        oracle,
        &union.weights(),
        config.k,
        z,
        config.eps_hat,
        config.search,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcenter_core::coreset::CoresetSpec;
    use kcenter_core::mapreduce_outliers::mr_kcenter_outliers;
    use kcenter_core::solution::radius_with_outliers;
    use kcenter_mapreduce::{Chunked, Partitioner};

    #[test]
    fn contiguous_ranges_are_the_chunked_partitions() {
        for (n, ell) in [(10usize, 3usize), (7, 2), (5, 5), (2, 4)] {
            for p in 0..ell {
                let range = (p * n).div_ceil(ell)..((p + 1) * n).div_ceil(ell);
                assert!(range.clone().all(|i| Chunked.assign(i, n, ell) == p));
            }
        }
    }

    #[test]
    fn replay_is_bitwise_mr_kcenter_outliers() {
        let mut points = kcenter_data::higgs_like(3_000, 5);
        kcenter_data::inject_outliers(&mut points, 20, 9);
        let config = MrOutliersConfig::deterministic(5, 20, 3, CoresetSpec::Multiplier { mu: 2 });
        let reference = mr_kcenter_outliers(&points, &Euclidean, &config).unwrap();
        let union = round1(&points, &config);
        assert_eq!(union.coreset.len(), reference.union_size);
        let solution = search(&price(&union.coreset, &config), &union.coreset, &config);
        assert_eq!(solution.centers, reference.clustering.centers);
        assert_eq!(solution.r_min.to_bits(), reference.r_min.to_bits());
        let radius = radius_with_outliers(&points, &solution.centers, config.z, &Euclidean);
        assert_eq!(radius.to_bits(), reference.clustering.radius.to_bits());
    }
}
