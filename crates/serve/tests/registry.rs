//! Serve-layer integration tests: agreement with a directly fed streaming
//! coreset, evict/restore transparency, persistence across registry
//! instances, and the unix-socket protocol end to end.

use std::path::PathBuf;

use kcenter_core::radius_search::{default_matrix_threshold, solve_coreset, SearchMode};
use kcenter_core::{WeightedCoreset, WeightedDoublingCoreset, WeightedPoint};
use kcenter_metric::{Euclidean, Point};
use kcenter_serve::server::reply_field;
use kcenter_serve::{
    run_server_on, RegistryConfig, ServeClient, ServeEndpoint, ServeError, SessionRegistry,
};
use kcenter_store::ArtifactStore;
use kcenter_stream::StreamingAlgorithm;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("kcenter-serve-tests")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A deterministic per-session point stream.
fn session_points(seed: u64, n: usize) -> Vec<Point> {
    (0..n)
        .map(|i| {
            let a = ((i as u64).wrapping_mul(2654435761).wrapping_add(seed * 97)) % 1000;
            let b = ((i as u64).wrapping_mul(40503).wrapping_add(seed * 131)) % 1000;
            Point::new(vec![a as f64 * 0.5, b as f64 * 0.25])
        })
        .collect()
}

fn config(tau: usize, budget: Option<usize>) -> RegistryConfig {
    RegistryConfig {
        tau,
        memory_budget_points: budget,
        snapshot_every: 0,
    }
}

#[test]
fn ingest_matches_a_directly_fed_coreset_across_batch_sizes() {
    // The reference is the paper's streaming coreset itself, fed one
    // point at a time outside any registry.
    const TAU: usize = 24;
    let sizes = [1usize, 31, 32, 33, 255, 256, 257, 1000];
    let points = session_points(11, sizes.iter().sum());
    let registry = SessionRegistry::new(Euclidean, config(TAU, None), None).unwrap();
    let mut reference = WeightedDoublingCoreset::new(Euclidean, TAU);

    let mut offset = 0;
    for size in sizes {
        let batch = &points[offset..offset + size];
        offset += size;
        let report = registry.ingest("acme", "feed", batch.to_vec()).unwrap();
        for point in batch {
            reference.process(point.clone());
        }
        assert_eq!(report.accepted, size);
        assert_eq!(report.processed, reference.processed(), "batch of {size}");
        assert_eq!(report.resident_points, reference.memory_items());
        assert_eq!(report.phi.to_bits(), reference.phi().to_bits());
    }
    assert!(reference.phi() > 0.0, "the batches must drive merges");

    let (k, z, eps) = (4usize, 8u64, 0.25f64);
    let answer = registry.query("acme", "feed", k, z, eps).unwrap();
    let coreset: WeightedCoreset<Point> = reference
        .centers()
        .iter()
        .cloned()
        .zip(reference.weights().iter().copied())
        .map(|(point, weight)| WeightedPoint { point, weight })
        .collect();
    let expected = solve_coreset(
        &coreset,
        &Euclidean,
        k,
        z,
        eps,
        SearchMode::GeometricGrid,
        default_matrix_threshold(),
    );
    assert_eq!(answer.processed, points.len() as u64);
    assert_eq!(answer.radius.to_bits(), expected.r_min.to_bits());
    assert_eq!(answer.uncovered_weight, expected.uncovered_weight);
    assert_eq!(answer.centers.len(), expected.centers.len());
    for (a, b) in answer.centers.iter().zip(&expected.centers) {
        let a: Vec<u64> = a.coords().iter().map(|x| x.to_bits()).collect();
        let b: Vec<u64> = b.coords().iter().map(|x| x.to_bits()).collect();
        assert_eq!(a, b);
    }
}

#[test]
fn eviction_pressure_is_transparent_bitwise() {
    // Reference: every session resident forever.
    let reference = SessionRegistry::new(Euclidean, config(16, None), None).unwrap();
    // Under test: a budget small enough that 8 sessions (≤ 17 points each)
    // cannot all stay resident, forcing evict/restore churn mid-stream.
    let dir = tmp_dir("evict-transparent");
    let store = ArtifactStore::open(&dir).unwrap();
    let squeezed = SessionRegistry::new(Euclidean, config(16, Some(40)), Some(store)).unwrap();

    let sessions: Vec<(String, String)> = (0..8)
        .map(|i| (format!("tenant-{}", i % 3), format!("stream-{i}")))
        .collect();
    // Interleave batches across sessions so LRU churn hits mid-stream.
    for round in 0..6 {
        for (i, (tenant, stream)) in sessions.iter().enumerate() {
            let points = session_points(i as u64 + 1, 250);
            let batch = points[round * 40..(round + 1) * 40].to_vec();
            reference.ingest(tenant, stream, batch.clone()).unwrap();
            squeezed.ingest(tenant, stream, batch).unwrap();
        }
    }
    let stats = squeezed.stats();
    assert!(
        stats.evictions > 0 && stats.restores > 0,
        "the budget must actually force churn, got {stats:?}"
    );
    assert_eq!(stats.sessions, 8, "zero session loss");

    for (tenant, stream) in &sessions {
        let a = reference.query(tenant, stream, 3, 5, 0.25).unwrap();
        let b = squeezed.query(tenant, stream, 3, 5, 0.25).unwrap();
        assert_eq!(a.processed, b.processed);
        assert_eq!(a.radius.to_bits(), b.radius.to_bits(), "{tenant}/{stream}");
        assert_eq!(a.uncovered_weight, b.uncovered_weight);
        assert_eq!(a.centers.len(), b.centers.len());
        for (ca, cb) in a.centers.iter().zip(&b.centers) {
            for (x, y) in ca.coords().iter().zip(cb.coords()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }
}

#[test]
fn sessions_survive_registry_restarts() {
    let dir = tmp_dir("restart");
    let points = session_points(7, 300);
    let first_half = points[..150].to_vec();
    let second_half = points[150..].to_vec();

    {
        let store = ArtifactStore::open(&dir).unwrap();
        let registry = SessionRegistry::new(Euclidean, config(12, None), Some(store)).unwrap();
        registry.ingest("acme", "clicks", first_half).unwrap();
        assert_eq!(registry.flush().unwrap(), 1);
    }
    // A brand-new registry (server restart) picks the session up from the
    // store on first touch.
    let store = ArtifactStore::open(&dir).unwrap();
    let resumed = SessionRegistry::new(Euclidean, config(12, None), Some(store)).unwrap();
    let stat = resumed.session_stat("acme", "clicks").unwrap();
    assert_eq!(stat.processed, 150);
    assert!(!stat.resident);
    let report = resumed.ingest("acme", "clicks", second_half).unwrap();
    assert!(report.restored);
    assert_eq!(report.processed, 300);

    // And the continued stream matches an uninterrupted one bitwise.
    let uninterrupted = SessionRegistry::new(Euclidean, config(12, None), None).unwrap();
    uninterrupted.ingest("acme", "clicks", points).unwrap();
    let a = uninterrupted.query("acme", "clicks", 4, 3, 0.5).unwrap();
    let b = resumed.query("acme", "clicks", 4, 3, 0.5).unwrap();
    assert_eq!(a.radius.to_bits(), b.radius.to_bits());
    assert_eq!(a.uncovered_weight, b.uncovered_weight);
}

#[test]
fn restore_under_a_different_tau_is_rejected() {
    let dir = tmp_dir("tau-mismatch");
    {
        let store = ArtifactStore::open(&dir).unwrap();
        let registry = SessionRegistry::new(Euclidean, config(8, None), Some(store)).unwrap();
        registry.ingest("t", "s", session_points(1, 50)).unwrap();
        registry.flush().unwrap();
    }
    let store = ArtifactStore::open(&dir).unwrap();
    let other = SessionRegistry::new(Euclidean, config(16, None), Some(store)).unwrap();
    // τ is part of the fingerprint, so a registry with a different τ simply
    // does not see the old session — it can never silently re-interpret it.
    assert_eq!(
        other.session_stat("t", "s").unwrap_err(),
        ServeError::UnknownSession
    );
}

#[test]
fn registry_guards_its_contracts() {
    let registry = SessionRegistry::new(Euclidean, config(8, None), None).unwrap();
    // Unknown session.
    assert_eq!(
        registry.query("no", "body", 2, 0, 0.5).unwrap_err(),
        ServeError::UnknownSession
    );
    // Budget without a store is rejected at construction.
    let budget_no_store = SessionRegistry::new(Euclidean, config(8, Some(10)), None);
    assert!(matches!(budget_no_store, Err(ServeError::NoStore)));
    // Mixed dimensions within a batch leave the session untouched.
    registry
        .ingest("t", "s", vec![Point::new(vec![1.0, 2.0])])
        .unwrap();
    let err = registry
        .ingest("t", "s", vec![Point::new(vec![1.0])])
        .unwrap_err();
    assert!(matches!(err, ServeError::DimensionMismatch { .. }));
    assert_eq!(registry.session_stat("t", "s").unwrap().processed, 1);
    // Eviction without a store is an error, not a silent drop.
    assert_eq!(registry.evict("t", "s").unwrap_err(), ServeError::NoStore);
    // Bad query parameters.
    assert!(matches!(
        registry.query("t", "s", 0, 0, 0.5).unwrap_err(),
        ServeError::BadRequest(_)
    ));
    assert!(matches!(
        registry.query("t", "s", 2, 0, 0.0).unwrap_err(),
        ServeError::BadRequest(_)
    ));
}

#[test]
fn queries_below_the_eps_floor_are_rejected_and_the_session_keeps_serving() {
    // Below the floor the radius search's geometric grid can outgrow its
    // `i32` exponent; such queries must be refused, not answered.
    let registry = SessionRegistry::new(Euclidean, config(16, None), None).unwrap();
    registry.ingest("t", "s", session_points(5, 200)).unwrap();
    for eps in [1e-9, 1e-300, 0.0, -1.0, f64::INFINITY, f64::NAN] {
        assert!(
            matches!(
                registry.query("t", "s", 2, 0, eps).unwrap_err(),
                ServeError::BadRequest(_)
            ),
            "eps {eps}"
        );
    }
    // k = 2 and z = 0 leave r = 0 infeasible, so both go through the grid.
    for eps in [0.25, 1e-5] {
        let answer = registry.query("t", "s", 2, 0, eps).unwrap();
        assert!(answer.radius > 0.0, "eps {eps}");
    }
}

#[test]
fn query_answers_are_memoized_per_stream_position() {
    let registry = SessionRegistry::new(Euclidean, config(8, None), None).unwrap();
    registry.ingest("t", "s", session_points(3, 100)).unwrap();
    let fresh = registry.query("t", "s", 3, 2, 0.25).unwrap();
    assert!(!fresh.cached);
    let memo = registry.query("t", "s", 3, 2, 0.25).unwrap();
    assert!(memo.cached);
    assert_eq!(fresh.radius.to_bits(), memo.radius.to_bits());
    // Any parameter change misses…
    assert!(!registry.query("t", "s", 4, 2, 0.25).unwrap().cached);
    // …and so does new data.
    registry.ingest("t", "s", session_points(3, 10)).unwrap();
    assert!(!registry.query("t", "s", 3, 2, 0.25).unwrap().cached);
}

#[test]
fn unix_socket_server_round_trips() {
    let dir = tmp_dir("server");
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("serve.sock");
    let store = ArtifactStore::open(dir.join("cache")).unwrap();
    let registry = SessionRegistry::new(Euclidean, config(8, Some(20)), Some(store)).unwrap();
    let server = {
        let socket = socket.clone();
        std::thread::spawn(move || run_server_on(&[ServeEndpoint::Unix(socket)], registry))
    };
    // Wait for the socket to appear.
    let mut client = loop {
        match ServeClient::connect(&socket) {
            Ok(c) => break c,
            Err(_) => std::thread::yield_now(),
        }
    };
    let pong = client.request(&["ping".to_string()]).unwrap();
    assert_eq!(pong, vec!["ok".to_string(), "pong".to_string()]);

    let points = session_points(9, 60);
    let reply = client.ingest("acme", "clicks", &points).unwrap();
    assert_eq!(reply_field(&reply, "processed"), Some("60"));

    let answer = client.query("acme", "clicks", 3, 2, 0.25).unwrap();
    let radius: f64 = reply_field(&answer, "radius").unwrap().parse().unwrap();
    assert!(radius.is_finite() && radius >= 0.0);
    let centers: usize = reply_field(&answer, "centers").unwrap().parse().unwrap();
    assert!((1..=3).contains(&centers));

    // Evict, then touch again: the reply must show a transparent restore
    // with the same processed count.
    assert!(client.evict("acme", "clicks").unwrap());
    let stat = client
        .request(&["stat".to_string(), "acme".to_string(), "clicks".to_string()])
        .unwrap();
    assert_eq!(reply_field(&stat, "resident"), Some("false"));
    assert_eq!(reply_field(&stat, "processed"), Some("60"));
    let again = client.query("acme", "clicks", 3, 2, 0.25).unwrap();
    assert_eq!(
        reply_field(&again, "radius").unwrap(),
        reply_field(&answer, "radius").unwrap(),
        "post-restore answer is bit-identical"
    );

    // Unknown verbs and malformed points are protocol-level errors, not
    // connection teardowns.
    assert!(client.request(&["warp".to_string()]).is_err());
    assert!(client
        .request(&[
            "ingest".to_string(),
            "a".to_string(),
            "b".to_string(),
            "1.0,NaN".to_string()
        ])
        .is_err());
    assert!(client.request(&["ping".to_string()]).is_ok());

    client.shutdown().unwrap();
    server.join().unwrap().unwrap();
    assert!(!socket.exists(), "socket cleaned up on shutdown");
}
