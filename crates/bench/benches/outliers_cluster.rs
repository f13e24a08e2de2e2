//! Criterion microbenches for `OutliersCluster` — including the ablation
//! of the one-read-per-pair implementation (one upper-triangle pass, then
//! bitset cover updates) against the textbook O(k·|T|²) recomputation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use kcenter_bench::Dataset;
use kcenter_core::coreset::{build_weighted_coreset, CoresetSpec};
use kcenter_core::outliers_cluster::{outliers_cluster, outliers_cluster_naive, CmpMatrixRef};
use kcenter_metric::{DistanceMatrix, Euclidean, Point};

fn coreset_fixture(size_mu: usize) -> (Vec<Point>, Vec<u64>) {
    let points = Dataset::Higgs.generate(20_000, 3);
    let build = build_weighted_coreset(
        &points,
        &Euclidean,
        70,
        &CoresetSpec::Multiplier { mu: size_mu },
        0,
    );
    (build.coreset.points_only(), build.coreset.weights())
}

fn bench_one_read_vs_naive(c: &mut Criterion) {
    let mut group = c.benchmark_group("outliers_cluster");
    group.sample_size(10);
    let (points, weights) = coreset_fixture(8); // |T| = 560
    let cmp = DistanceMatrix::build_cmp(&points, &Euclidean);
    let matrix = CmpMatrixRef::<Point, _>::new(&cmp, &Euclidean);
    let (k, r, eps) = (20usize, 5.0f64, 0.25f64);

    group.bench_function(BenchmarkId::new("one_read", points.len()), |b| {
        b.iter(|| outliers_cluster(black_box(&matrix), &weights, k, r, eps));
    });
    group.bench_function(BenchmarkId::new("naive", points.len()), |b| {
        b.iter(|| outliers_cluster_naive(black_box(&matrix), &weights, k, r, eps));
    });
    group.finish();
}

fn bench_matrix_vs_points_oracle(c: &mut Criterion) {
    use kcenter_core::outliers_cluster::PointsOracle;
    let mut group = c.benchmark_group("distance_oracle");
    group.sample_size(10);
    let (points, weights) = coreset_fixture(8);
    let cmp = DistanceMatrix::build_cmp(&points, &Euclidean);
    let matrix = CmpMatrixRef::<Point, _>::new(&cmp, &Euclidean);
    let oracle = PointsOracle::new(&points, &Euclidean);
    let (k, r, eps) = (20usize, 5.0f64, 0.25f64);

    group.bench_function("cached_matrix", |b| {
        b.iter(|| outliers_cluster(black_box(&matrix), &weights, k, r, eps));
    });
    group.bench_function("on_the_fly", |b| {
        b.iter(|| outliers_cluster(black_box(&oracle), &weights, k, r, eps));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_one_read_vs_naive,
    bench_matrix_vs_points_oracle
);
criterion_main!(benches);
