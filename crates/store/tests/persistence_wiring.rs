//! End-to-end wiring of the persistent store under `CachedOracle`: a
//! process with the backend installed builds each fingerprinted matrix at
//! most once *ever* — later oracles (standing in for later processes; the
//! cross-process case is covered by the cache-determinism suite in
//! `tests/fig_golden.rs`) load it, bitwise identical, with zero builds.
//!
//! One `#[test]` on purpose: `install_at` installs a process-global
//! backend and the hit/miss counters are process-global too, so the
//! scenario controls its ordering explicitly instead of racing sibling
//! tests.

use kcenter_metric::{
    matrix_build_count, store_hit_count, store_miss_count, CachedOracle, Euclidean, Manhattan,
    Metric, Point,
};

fn points() -> Vec<Point> {
    (0..40)
        .map(|i| Point::new(vec![(i as f64 * 3.7) % 29.0, (i as f64 * 1.3) % 7.0]))
        .collect()
}

#[test]
fn cached_oracle_round_trips_through_the_installed_store() {
    let dir = std::env::temp_dir()
        .join("kcenter-store-wiring")
        .join(std::process::id().to_string());
    let _ = std::fs::remove_dir_all(&dir);
    let store = kcenter_store::install_at(&dir).expect("install store");
    assert!(kcenter_metric::matrix_persistence_installed());

    // Cold: the first oracle misses the store, prices the matrix, and
    // persists it.
    let cold = CachedOracle::new(points(), &Euclidean, usize::MAX);
    let cold_matrix = cold.matrix().expect("below threshold").clone();
    assert_eq!(cold.build_count(), 1);
    assert_eq!(cold.load_count(), 0);
    assert_eq!(store_miss_count(), 1);
    assert_eq!(store_hit_count(), 0);
    assert_eq!(store.stat().unwrap().matrix.entries, 1);

    // Warm: a *fresh* handle family over the same points loads instead of
    // building — and the loaded matrix is bitwise the built one.
    let builds_before = matrix_build_count();
    let warm = CachedOracle::new(points(), &Euclidean, usize::MAX);
    let warm_matrix = warm.matrix().expect("below threshold");
    assert_eq!(warm.build_count(), 0, "warm oracle must not build");
    assert_eq!(warm.load_count(), 1);
    assert_eq!(store_hit_count(), 1);
    assert_eq!(
        matrix_build_count(),
        builds_before,
        "a store hit must not increment the build counter"
    );
    assert_eq!(warm_matrix.condensed().len(), cold_matrix.condensed().len());
    for (a, b) in warm_matrix.condensed().iter().zip(cold_matrix.condensed()) {
        assert_eq!(a.to_bits(), b.to_bits());
    }

    // Every entry of the warm oracle's matrix agrees bitwise with direct
    // metric evaluation — the loaded cache is semantically transparent.
    let pts = points();
    for i in 0..pts.len() {
        for j in 0..pts.len() {
            assert_eq!(
                warm_matrix.get(i, j).to_bits(),
                Euclidean.cmp_distance(&pts[i], &pts[j]).to_bits()
            );
        }
    }

    // A different metric over the same points is a different fingerprint:
    // it must miss, build, and persist its own entry.
    let manhattan = CachedOracle::new(points(), &Manhattan, usize::MAX);
    let _ = manhattan.matrix().expect("below threshold");
    assert_eq!(manhattan.build_count(), 1);
    assert_eq!(store_miss_count(), 2);
    assert_eq!(store.stat().unwrap().matrix.entries, 2);

    // Oracles above their cache threshold never touch the store.
    let (hits, misses) = (store_hit_count(), store_miss_count());
    let uncached = CachedOracle::new(points(), &Euclidean, 0);
    assert!(uncached.matrix().is_none());
    assert_eq!((store_hit_count(), store_miss_count()), (hits, misses));

    // A corrupted entry on disk degrades to a clean rebuild (miss), not a
    // failure: truncate every matrix entry in the cache dir.
    for entry in std::fs::read_dir(store.dir()).unwrap() {
        let path = entry.unwrap().path();
        std::fs::write(&path, b"garbage").unwrap();
    }
    let recovered = CachedOracle::new(points(), &Euclidean, usize::MAX);
    let recovered_matrix = recovered.matrix().expect("below threshold");
    assert_eq!(recovered.build_count(), 1, "corrupt entry must rebuild");
    for (a, b) in recovered_matrix
        .condensed()
        .iter()
        .zip(cold_matrix.condensed())
    {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}
