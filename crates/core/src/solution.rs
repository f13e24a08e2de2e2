//! Clustering solutions and objective evaluation.
//!
//! A set of centers induces a clustering by assigning every point to its
//! closest center (paper §2). The objective of plain k-center is the maximum
//! such distance; with `z` outliers it is the maximum after discarding the
//! `z` farthest points — i.e. the `(z+1)`-th largest assignment distance,
//! evaluated here in `O(n)` by selection. Evaluation over the dataset is
//! rayon-parallel.

use rayon::prelude::*;

use kcenter_metric::selection::radius_excluding_outliers;
use kcenter_metric::Metric;

use crate::outliers_cluster::DistanceOracle;

/// A k-center solution: the chosen centers and the objective value that was
/// measured for them.
#[derive(Clone, Debug)]
pub struct Clustering<P> {
    /// The selected centers (points of the input space).
    pub centers: Vec<P>,
    /// The measured objective (radius, excluding outliers if the producing
    /// algorithm was an outlier variant).
    pub radius: f64,
}

impl<P> Clustering<P> {
    /// Number of centers.
    pub fn k(&self) -> usize {
        self.centers.len()
    }
}

/// Distance from each point to its closest center.
///
/// The inner nearest-center loop compares [`Metric::cmp_distance`]
/// proxies; one conversion per *point* (not per point–center pair)
/// recovers the true distance.
pub fn assignment_distances<P, M>(points: &[P], centers: &[P], metric: &M) -> Vec<f64>
where
    P: Sync,
    M: Metric<P>,
{
    assert!(!centers.is_empty(), "no centers to assign to");
    points
        .par_iter()
        .map(|p| {
            metric.cmp_to_distance(
                centers
                    .iter()
                    .map(|c| metric.cmp_distance(p, c))
                    .fold(f64::INFINITY, f64::min),
            )
        })
        .collect()
}

/// Index of the closest center for each point.
pub fn assign<P, M>(points: &[P], centers: &[P], metric: &M) -> Vec<usize>
where
    P: Sync,
    M: Metric<P>,
{
    assert!(!centers.is_empty(), "no centers to assign to");
    points
        .par_iter()
        .map(|p| {
            // Pure comparison: proxies only, no sqrt at all.
            let mut best = 0usize;
            let mut best_d = f64::INFINITY;
            for (i, c) in centers.iter().enumerate() {
                let d = metric.cmp_distance(p, c);
                if d < best_d {
                    best_d = d;
                    best = i;
                }
            }
            best
        })
        .collect()
}

/// The k-center objective `r_T(S) = max_s d(s, T)`.
pub fn radius<P, M>(points: &[P], centers: &[P], metric: &M) -> f64
where
    P: Sync,
    M: Metric<P>,
{
    assert!(!centers.is_empty(), "no centers to assign to");
    // Max-of-min over proxies, one sqrt for the reported radius.
    metric.cmp_to_distance(
        points
            .par_iter()
            .map(|p| {
                centers
                    .iter()
                    .map(|c| metric.cmp_distance(p, c))
                    .fold(f64::INFINITY, f64::min)
            })
            .reduce(|| 0.0, f64::max),
    )
}

/// The k-center-with-outliers objective `r_{T,Z_T}(S)`: the maximum
/// assignment distance after discarding the `z` farthest points.
pub fn radius_with_outliers<P, M>(points: &[P], centers: &[P], z: usize, metric: &M) -> f64
where
    P: Sync,
    M: Metric<P>,
{
    let mut dists = assignment_distances(points, centers, metric);
    radius_excluding_outliers(&mut dists, z)
}

/// Distance from every oracle point to the closest of the centers given
/// *by index*, through the oracle — so a matrix-backed oracle (e.g. a
/// `CmpMatrixRef` over the proxy matrix a radius search already built)
/// prices the evaluation from the shared cache instead of re-running the
/// metric. The inner loop compares proxies; one conversion per point.
pub fn oracle_assignment_distances<O: DistanceOracle>(oracle: &O, centers: &[usize]) -> Vec<f64> {
    assert!(!centers.is_empty(), "no centers to assign to");
    (0..oracle.len())
        .into_par_iter()
        .map(|i| {
            oracle.cmp_to_radius(
                centers
                    .iter()
                    .map(|&c| oracle.cmp_dist(i, c))
                    .fold(f64::INFINITY, f64::min),
            )
        })
        .collect()
}

/// The coreset-side objective for index centers: the maximum oracle
/// assignment distance after discarding the `z` farthest points. The
/// matrix-backed counterpart of [`radius_with_outliers`], used by sweeps
/// to score a search result on the same cached matrix the search ran on.
pub fn oracle_radius_with_outliers<O: DistanceOracle>(
    oracle: &O,
    centers: &[usize],
    z: usize,
) -> f64 {
    let mut dists = oracle_assignment_distances(oracle, centers);
    radius_excluding_outliers(&mut dists, z)
}

/// The clustering a center set induces: `clusters[c]` holds the indices of
/// the points assigned to center `c` (paper §2: "the association of each
/// point to the closest center naturally defines a clustering").
pub fn extract_clusters<P, M>(points: &[P], centers: &[P], metric: &M) -> Vec<Vec<usize>>
where
    P: Sync,
    M: Metric<P>,
{
    let assignment = assign(points, centers, metric);
    let mut clusters: Vec<Vec<usize>> = vec![Vec::new(); centers.len()];
    for (i, &c) in assignment.iter().enumerate() {
        clusters[c].push(i);
    }
    clusters
}

/// Like [`extract_clusters`], but the `z` farthest points are set aside
/// into a separate outlier bucket (second return value) instead of being
/// assigned — the partition an outlier solution actually induces.
pub fn extract_clusters_with_outliers<P, M>(
    points: &[P],
    centers: &[P],
    z: usize,
    metric: &M,
) -> (Vec<Vec<usize>>, Vec<usize>)
where
    P: Sync,
    M: Metric<P>,
{
    let outliers = outlier_indices(points, centers, z, metric);
    let outlier_set: std::collections::BTreeSet<usize> = outliers.iter().copied().collect();
    let assignment = assign(points, centers, metric);
    let mut clusters: Vec<Vec<usize>> = vec![Vec::new(); centers.len()];
    for (i, &c) in assignment.iter().enumerate() {
        if !outlier_set.contains(&i) {
            clusters[c].push(i);
        }
    }
    (clusters, outliers)
}

/// Indices of the `z` points farthest from the centers (the points an
/// outlier solution discards), ties broken by index.
pub fn outlier_indices<P, M>(points: &[P], centers: &[P], z: usize, metric: &M) -> Vec<usize>
where
    P: Sync,
    M: Metric<P>,
{
    let dists = assignment_distances(points, centers, metric);
    let mut order: Vec<usize> = (0..points.len()).collect();
    order.sort_by(|&a, &b| dists[b].partial_cmp(&dists[a]).unwrap().then(a.cmp(&b)));
    order.truncate(z);
    order.sort_unstable();
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcenter_metric::{Euclidean, Point};

    fn pts(coords: &[f64]) -> Vec<Point> {
        coords.iter().map(|&c| Point::new(vec![c])).collect()
    }

    #[test]
    fn radius_is_max_min_distance() {
        let points = pts(&[0.0, 1.0, 5.0, 9.0]);
        let centers = pts(&[0.0, 9.0]);
        assert_eq!(radius(&points, &centers, &Euclidean), 4.0);
    }

    #[test]
    fn assignment_picks_closest() {
        let points = pts(&[0.0, 4.0, 6.0, 10.0]);
        let centers = pts(&[0.0, 10.0]);
        assert_eq!(assign(&points, &centers, &Euclidean), vec![0, 0, 1, 1]);
    }

    #[test]
    fn radius_with_outliers_discards_farthest() {
        let points = pts(&[0.0, 1.0, 2.0, 100.0]);
        let centers = pts(&[0.0]);
        assert_eq!(
            radius_with_outliers(&points, &centers, 0, &Euclidean),
            100.0
        );
        assert_eq!(radius_with_outliers(&points, &centers, 1, &Euclidean), 2.0);
        assert_eq!(radius_with_outliers(&points, &centers, 4, &Euclidean), 0.0);
    }

    #[test]
    fn outlier_indices_are_the_farthest_points() {
        let points = pts(&[0.0, 50.0, 1.0, 60.0, 2.0]);
        let centers = pts(&[0.0]);
        assert_eq!(
            outlier_indices(&points, &centers, 2, &Euclidean),
            vec![1, 3]
        );
    }

    #[test]
    fn ties_broken_by_index() {
        let points = pts(&[5.0, 5.0, 5.0]);
        let centers = pts(&[0.0]);
        assert_eq!(
            outlier_indices(&points, &centers, 2, &Euclidean),
            vec![0, 1]
        );
    }

    #[test]
    fn clustering_reports_k() {
        let c = Clustering {
            centers: pts(&[1.0, 2.0]),
            radius: 0.5,
        };
        assert_eq!(c.k(), 2);
    }

    #[test]
    fn extract_clusters_partitions_all_points() {
        let points = pts(&[0.0, 1.0, 9.0, 10.0, 5.0]);
        let centers = pts(&[0.0, 10.0]);
        let clusters = extract_clusters(&points, &centers, &Euclidean);
        assert_eq!(clusters.len(), 2);
        assert_eq!(clusters[0], vec![0, 1, 4]); // 5.0 ties to... 5 from both
        assert_eq!(clusters[1], vec![2, 3]);
        let total: usize = clusters.iter().map(Vec::len).sum();
        assert_eq!(total, points.len());
    }

    #[test]
    fn extract_clusters_with_outliers_separates_bucket() {
        let points = pts(&[0.0, 1.0, 100.0, 10.0, 11.0]);
        let centers = pts(&[0.0, 10.0]);
        let (clusters, outliers) = extract_clusters_with_outliers(&points, &centers, 1, &Euclidean);
        assert_eq!(outliers, vec![2]);
        assert_eq!(clusters[0], vec![0, 1]);
        assert_eq!(clusters[1], vec![3, 4]);
        let assigned: usize = clusters.iter().map(Vec::len).sum();
        assert_eq!(assigned + outliers.len(), points.len());
    }

    #[test]
    fn oracle_objective_matches_point_objective() {
        use crate::outliers_cluster::{CmpMatrixRef, PointsOracle};
        use kcenter_metric::CachedOracle;
        let points = pts(&[0.0, 1.0, 2.0, 100.0, 5.0]);
        let center_idx = [0usize, 3];
        let center_pts = pts(&[0.0, 100.0]);
        let on_demand = PointsOracle::new(&points, &Euclidean);
        let handle = CachedOracle::new(points.clone(), &Euclidean, 1_000);
        let cached = CmpMatrixRef::<Point, _>::new(
            handle.matrix().expect("below threshold"),
            handle.metric(),
        );
        for z in 0..=3usize {
            let reference = radius_with_outliers(&points, &center_pts, z, &Euclidean);
            assert_eq!(
                oracle_radius_with_outliers(&on_demand, &center_idx, z).to_bits(),
                reference.to_bits(),
                "on-demand oracle diverged at z = {z}"
            );
            assert_eq!(
                oracle_radius_with_outliers(&cached, &center_idx, z).to_bits(),
                reference.to_bits(),
                "cached oracle diverged at z = {z}"
            );
        }
        assert_eq!(handle.build_count(), 1);
        assert_eq!(
            oracle_assignment_distances(&cached, &center_idx),
            assignment_distances(&points, &center_pts, &Euclidean)
        );
    }

    #[test]
    #[should_panic(expected = "no centers")]
    fn empty_centers_panics() {
        let _ = radius(&pts(&[0.0]), &[], &Euclidean);
    }
}
