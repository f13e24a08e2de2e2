//! Criterion microbenches for the radius search (round 2 of the outlier
//! algorithms) — the grid-vs-exact ablation in benchmark form.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use kcenter_bench::Dataset;
use kcenter_core::coreset::{build_weighted_coreset, CoresetSpec};
use kcenter_core::outliers_cluster::CmpMatrixRef;
use kcenter_core::radius_search::{find_min_feasible_radius, SearchMode};
use kcenter_data::inject_outliers;
use kcenter_metric::{DistanceMatrix, Euclidean, Point};

fn bench_search_modes(c: &mut Criterion) {
    let mut group = c.benchmark_group("radius_search");
    group.sample_size(10);
    let (k, z) = (20usize, 50usize);
    let mut points = Dataset::Higgs.generate(20_000, 6);
    inject_outliers(&mut points, z, 7);
    for mu in [2usize, 8] {
        let build = build_weighted_coreset(
            &points,
            &Euclidean,
            k + z,
            &CoresetSpec::Multiplier { mu },
            0,
        );
        let cpoints = build.coreset.points_only();
        let weights = build.coreset.weights();
        let cmp = DistanceMatrix::build_cmp(&cpoints, &Euclidean);
        let matrix = CmpMatrixRef::<Point, _>::new(&cmp, &Euclidean);
        group.bench_with_input(
            BenchmarkId::new("geometric_grid", cpoints.len()),
            &(),
            |b, _| {
                b.iter(|| {
                    find_min_feasible_radius(
                        black_box(&matrix),
                        &weights,
                        k,
                        z as u64,
                        0.25,
                        SearchMode::GeometricGrid,
                    )
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("exact_candidates", cpoints.len()),
            &(),
            |b, _| {
                b.iter(|| {
                    find_min_feasible_radius(
                        black_box(&matrix),
                        &weights,
                        k,
                        z as u64,
                        0.25,
                        SearchMode::ExactCandidates,
                    )
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_search_modes);
criterion_main!(benches);
