//! Concurrent-writer safety: the store's write-temp-then-atomic-rename
//! discipline means racing writers to one cache key can only ever leave
//! one writer's *complete* bytes — a reader observes some fully valid
//! version, never a torn or interleaved file.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use kcenter_metric::Point;
use kcenter_store::ArtifactStore;

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("kcenter-store-concurrency")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A recognizable shard: every coordinate carries the writer's tag so a
/// read can be attributed (and a mixed read detected).
fn tagged_shard(tag: f64) -> Vec<Point> {
    (0..512)
        .map(|i| Point::new((0..8).map(|d| tag + (8 * i + d) as f64).collect()))
        .collect()
}

#[test]
fn two_writers_one_key_never_corrupt_the_entry() {
    const KEY: u128 = 0xDEAD_BEEF;
    const ROUNDS: usize = 200;

    let store = ArtifactStore::open(tmp_dir("two-writers")).unwrap();
    let a = tagged_shard(1_000_000.0);
    let b = tagged_shard(2_000_000.0);
    // Seed the key so readers never see "no entry yet".
    store.store_shard(KEY, &a).unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = [a.clone(), b.clone()]
        .into_iter()
        .map(|m| {
            let store = store.clone();
            std::thread::spawn(move || {
                for _ in 0..ROUNDS {
                    store.store_shard(KEY, &m).unwrap();
                }
            })
        })
        .collect();

    let reader = {
        let store = store.clone();
        let stop = Arc::clone(&stop);
        let (a, b) = (a.clone(), b.clone());
        std::thread::spawn(move || {
            let mut reads = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let m = store
                    .load_shard(KEY)
                    .expect("entry must always decode while writers race");
                // The loaded shard must be exactly one writer's version.
                assert!(
                    m == a || m == b,
                    "read a shard that is neither writer's version"
                );
                reads += 1;
            }
            reads
        })
    };

    for w in writers {
        w.join().expect("writer thread");
    }
    stop.store(true, Ordering::Relaxed);
    let reads = reader.join().expect("reader thread");
    assert!(reads > 0, "reader must have observed the entry");

    // After the dust settles: exactly one entry for the key, fully valid.
    let settled = store.load_shard(KEY).expect("entry survives the race");
    assert!(settled == a || settled == b);
    assert_eq!(store.stat().unwrap().shard.entries, 1);
}

#[test]
fn distinct_keys_do_not_interfere() {
    let store = ArtifactStore::open(tmp_dir("distinct-keys")).unwrap();
    let handles: Vec<_> = (0u128..8)
        .map(|key| {
            let store = store.clone();
            std::thread::spawn(move || {
                let m = tagged_shard(key as f64 * 10_000.0);
                for _ in 0..50 {
                    store.store_shard(key, &m).unwrap();
                    let back = store.load_shard(key).expect("own key must hit");
                    assert_eq!(back, m);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("writer thread");
    }
    assert_eq!(store.stat().unwrap().shard.entries, 8);
}
