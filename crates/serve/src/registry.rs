//! The multi-tenant session registry: one resumable doubling coreset per
//! `(tenant, stream)`, with idle eviction under a memory budget and
//! transparent restore-on-touch.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use kcenter_core::radius_search::CoresetSolution;
use kcenter_core::radius_search::{
    default_matrix_threshold, solve_coreset, SearchMode, MIN_EPS_HAT,
};
use kcenter_core::streaming_coreset::CoresetSnapshot;
use kcenter_core::{WeightedDoublingCoreset, WeightedPoint};
use kcenter_metric::{Fingerprint, Metric, Point};
use kcenter_store::{ArtifactStore, StoredSession};
use kcenter_stream::StreamingAlgorithm;
use parking_lot::Mutex;

use crate::ServeError;

/// Domain separator for session fingerprints: bump the suffix on any
/// change to what identifies a session on disk.
const SESSION_DOMAIN: &str = "kcenter-serve/session/v1";

/// Tuning knobs for a [`SessionRegistry`].
#[derive(Clone, Debug)]
pub struct RegistryConfig {
    /// Coreset budget `τ` for every session (sessions persisted under a
    /// different `τ` refuse to restore — the stream would be
    /// re-interpreted).
    pub tau: usize,
    /// Maximum resident coreset points summed across sessions; exceeding
    /// it evicts least-recently-touched sessions to the store. `None`
    /// disables eviction. A budget without a store is rejected at
    /// construction: eviction would have to discard state.
    pub memory_budget_points: Option<usize>,
    /// Persist a session's snapshot whenever it has processed this many
    /// items since its last persist (`0` = only on evict/flush).
    pub snapshot_every: u64,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        RegistryConfig {
            tau: 128,
            memory_budget_points: None,
            snapshot_every: 0,
        }
    }
}

/// What [`SessionRegistry::ingest`] reports back.
#[derive(Clone, Copy, Debug)]
pub struct IngestReport {
    /// Items accepted from this batch.
    pub accepted: usize,
    /// Session total processed count after the batch.
    pub processed: u64,
    /// Coreset points the session holds after the batch.
    pub resident_points: usize,
    /// The session's current lower bound `ϕ`.
    pub phi: f64,
    /// Whether the touch restored the session from the store.
    pub restored: bool,
    /// Time spent inside `process` calls for this batch.
    pub ingest_time: Duration,
}

/// What [`SessionRegistry::query`] answers.
#[derive(Clone, Debug)]
pub struct QueryAnswer {
    /// The selected centers.
    pub centers: Vec<Point>,
    /// The estimated minimum feasible radius on the session's coreset.
    pub radius: f64,
    /// Coreset weight left uncovered at that radius (≤ z).
    pub uncovered_weight: u64,
    /// Session processed count the answer reflects.
    pub processed: u64,
    /// Whether the answer came from the per-session answer cache.
    pub cached: bool,
}

/// Per-session stat snapshot.
#[derive(Clone, Copy, Debug)]
pub struct SessionStat {
    /// Whether the session is resident (vs evicted to the store).
    pub resident: bool,
    /// Total items the session has processed.
    pub processed: u64,
    /// Coreset points held in memory (0 when evicted).
    pub memory_points: usize,
}

/// Registry-wide counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct RegistryStats {
    /// Sessions known to the registry (resident + evicted).
    pub sessions: usize,
    /// Sessions currently resident.
    pub resident_sessions: usize,
    /// Total resident coreset points.
    pub resident_points: usize,
    /// Evictions performed since start.
    pub evictions: u64,
    /// Restores performed since start.
    pub restores: u64,
    /// Snapshots persisted since start.
    pub snapshots: u64,
}

/// Cache key for a session's last query answer: any change to the stream
/// position or the query parameters misses.
#[derive(Clone, Copy, PartialEq, Eq)]
struct QueryKey {
    processed: u64,
    k: usize,
    z: u64,
    eps_bits: u64,
}

struct Session<M> {
    coreset: WeightedDoublingCoreset<Point, M>,
    /// Items processed at the time of the last persisted snapshot.
    last_persisted: u64,
    last_answer: Option<(QueryKey, CoresetSolution<Point>)>,
}

enum EntryState<M> {
    Resident(Session<M>),
    /// Evicted to the store; `processed` is kept so stats never lose track
    /// of the session.
    Evicted {
        processed: u64,
    },
}

struct Entry<M> {
    fingerprint: u128,
    last_touch: u64,
    state: EntryState<M>,
}

#[derive(Default)]
struct Counters {
    evictions: u64,
    restores: u64,
    snapshots: u64,
}

struct Inner<M> {
    sessions: HashMap<(String, String), Entry<M>>,
    clock: u64,
    counters: Counters,
}

/// The session registry: the serve layer's single source of truth.
///
/// All operations are keyed by `(tenant, stream)`. A touched session that
/// was evicted (or that a previous server run persisted) is restored from
/// the store transparently; the restore path is gated by
/// `WeightedDoublingCoreset::from_snapshot`, so corrupted or tampered
/// state surfaces as a [`ServeError::RestoreFailed`] instead of silently
/// corrupting the stream.
pub struct SessionRegistry<M> {
    inner: Mutex<Inner<M>>,
    metric: M,
    store: Option<ArtifactStore>,
    config: RegistryConfig,
}

impl<M: Metric<Point> + Clone + Sync> SessionRegistry<M> {
    /// Creates a registry over `metric`, persisting to `store` when given.
    ///
    /// Returns an error when a memory budget is configured without a store
    /// — eviction would have to discard session state.
    pub fn new(
        metric: M,
        config: RegistryConfig,
        store: Option<ArtifactStore>,
    ) -> Result<Self, ServeError> {
        if config.tau == 0 {
            return Err(ServeError::BadRequest("tau must be positive".into()));
        }
        if config.memory_budget_points.is_some() && store.is_none() {
            return Err(ServeError::NoStore);
        }
        Ok(SessionRegistry {
            inner: Mutex::new(Inner {
                sessions: HashMap::new(),
                clock: 0,
                counters: Counters::default(),
            }),
            metric,
            store,
            config,
        })
    }

    /// The registry's configuration.
    pub fn config(&self) -> &RegistryConfig {
        &self.config
    }

    /// Deterministic content address of a session's persisted state.
    fn fingerprint(&self, tenant: &str, stream: &str) -> u128 {
        let mut fp = Fingerprint::with_domain(SESSION_DOMAIN);
        fp.write_str(tenant);
        fp.write_str(stream);
        fp.write_u64(self.config.tau as u64);
        fp.finish()
    }

    fn snapshot_to_stored(&self, snap: &CoresetSnapshot<Point>) -> StoredSession {
        StoredSession {
            tau: self.config.tau as u64,
            initialized: snap.initialized,
            phi: snap.phi,
            processed: snap.processed,
            centers: snap.centers.clone(),
            weights: snap.weights.clone(),
        }
    }

    /// Persists `session` under `fingerprint`; counts it.
    fn persist(
        &self,
        counters: &mut Counters,
        fingerprint: u128,
        session: &mut Session<M>,
    ) -> Result<(), ServeError> {
        let store = self.store.as_ref().ok_or(ServeError::NoStore)?;
        let stored = self.snapshot_to_stored(&session.coreset.snapshot());
        store
            .store_session(fingerprint, &stored)
            .map_err(|e| ServeError::Io(e.to_string()))?;
        session.last_persisted = session.coreset.processed();
        counters.snapshots += 1;
        kcenter_obs::counter("serve.snapshots").inc();
        Ok(())
    }

    /// Restores a session from the store, gated by `from_snapshot`.
    fn restore(&self, fingerprint: u128) -> Result<Option<Session<M>>, ServeError> {
        let Some(store) = self.store.as_ref() else {
            return Ok(None);
        };
        let Some(stored) = store.load_session(fingerprint) else {
            return Ok(None);
        };
        if stored.tau != self.config.tau as u64 {
            return Err(ServeError::TauMismatch {
                expected: self.config.tau as u64,
                found: stored.tau,
            });
        }
        let processed = stored.processed;
        let snap = CoresetSnapshot {
            centers: stored.centers,
            weights: stored.weights,
            phi: stored.phi,
            initialized: stored.initialized,
            processed: stored.processed,
        };
        let coreset =
            WeightedDoublingCoreset::from_snapshot(self.metric.clone(), self.config.tau, snap)
                .map_err(ServeError::RestoreFailed)?;
        Ok(Some(Session {
            coreset,
            last_persisted: processed,
            last_answer: None,
        }))
    }

    /// Makes the entry for `(tenant, stream)` resident, restoring or (when
    /// `create` and nothing is persisted) creating it. Returns whether a
    /// restore happened, or `Ok(None)` if the session is unknown and
    /// `create` is false.
    fn make_resident(
        &self,
        inner: &mut Inner<M>,
        tenant: &str,
        stream: &str,
        create: bool,
    ) -> Result<Option<bool>, ServeError> {
        let key = (tenant.to_string(), stream.to_string());
        inner.clock += 1;
        let clock = inner.clock;
        if let Some(entry) = inner.sessions.get_mut(&key) {
            entry.last_touch = clock;
            match entry.state {
                EntryState::Resident(_) => return Ok(Some(false)),
                EntryState::Evicted { .. } => {
                    let fingerprint = entry.fingerprint;
                    let session = self.restore(fingerprint)?.ok_or_else(|| {
                        ServeError::RestoreFailed("evicted session missing from the store".into())
                    })?;
                    entry.state = EntryState::Resident(session);
                    inner.counters.restores += 1;
                    kcenter_obs::counter("serve.restores").inc();
                    return Ok(Some(true));
                }
            }
        }
        // Unknown to this registry: a previous server run may still have
        // persisted it.
        let fingerprint = self.fingerprint(tenant, stream);
        let (session, restored) = match self.restore(fingerprint)? {
            Some(session) => (session, true),
            None if create => (
                Session {
                    coreset: WeightedDoublingCoreset::new(self.metric.clone(), self.config.tau),
                    last_persisted: 0,
                    last_answer: None,
                },
                false,
            ),
            None => return Ok(None),
        };
        if restored {
            inner.counters.restores += 1;
            kcenter_obs::counter("serve.restores").inc();
        }
        inner.sessions.insert(
            key,
            Entry {
                fingerprint,
                last_touch: clock,
                state: EntryState::Resident(session),
            },
        );
        Ok(Some(restored))
    }

    fn resident_points(inner: &Inner<M>) -> usize {
        inner
            .sessions
            .values()
            .map(|e| match &e.state {
                EntryState::Resident(s) => s.coreset.memory_items(),
                EntryState::Evicted { .. } => 0,
            })
            .sum()
    }

    /// Evicts least-recently-touched resident sessions (sparing `keep`)
    /// until the resident-point total fits the budget.
    fn enforce_budget(
        &self,
        inner: &mut Inner<M>,
        keep: &(String, String),
    ) -> Result<(), ServeError> {
        let Some(budget) = self.config.memory_budget_points else {
            return Ok(());
        };
        while Self::resident_points(inner) > budget {
            let victim = inner
                .sessions
                .iter()
                .filter(|(key, e)| *key != keep && matches!(e.state, EntryState::Resident(_)))
                .min_by_key(|(_, e)| e.last_touch)
                .map(|(key, _)| key.clone());
            let Some(victim) = victim else {
                // Only the just-touched session remains: the budget is a
                // fleet-level knob, never a reason to thrash the session
                // being served.
                return Ok(());
            };
            self.evict_entry(inner, &victim)?;
        }
        Ok(())
    }

    /// Persists and drops one resident session.
    fn evict_entry(&self, inner: &mut Inner<M>, key: &(String, String)) -> Result<(), ServeError> {
        let entry = inner
            .sessions
            .get_mut(key)
            .ok_or(ServeError::UnknownSession)?;
        let EntryState::Resident(session) = &mut entry.state else {
            return Ok(());
        };
        let processed = session.coreset.processed();
        let fingerprint = entry.fingerprint;
        // Persist only when the store is behind the live state; an
        // untouched restore evicts for free.
        if session.last_persisted != processed
            || self
                .store
                .as_ref()
                .is_some_and(|s| s.load_session(fingerprint).is_none())
        {
            let mut counters = std::mem::take(&mut inner.counters);
            let entry = inner.sessions.get_mut(key).expect("entry just seen");
            let EntryState::Resident(session) = &mut entry.state else {
                unreachable!("state checked resident above");
            };
            let result = self.persist(&mut counters, fingerprint, session);
            inner.counters = counters;
            result?;
        }
        let entry = inner.sessions.get_mut(key).expect("entry just seen");
        entry.state = EntryState::Evicted { processed };
        inner.counters.evictions += 1;
        kcenter_obs::counter("serve.evictions").inc();
        Ok(())
    }

    /// Feeds a batch of points into the session's coreset, creating or
    /// restoring the session as needed, then applies the periodic-snapshot
    /// policy and the memory budget.
    ///
    /// The batch's points go through `process` one at a time, in batch
    /// order, on the calling thread — the paper's one-point-at-a-time
    /// update — and the reported `ingest_time` counts only time inside
    /// `process`, mirroring `run_stream`'s metering.
    ///
    /// The whole batch is validated up front (uniform, session-consistent
    /// dimensionality), so a rejected batch leaves the session untouched.
    pub fn ingest(
        &self,
        tenant: &str,
        stream: &str,
        points: Vec<Point>,
    ) -> Result<IngestReport, ServeError> {
        let mut inner = self.inner.lock();
        let restored = self
            .make_resident(&mut inner, tenant, stream, true)?
            .expect("create = true always yields a session");
        let key = (tenant.to_string(), stream.to_string());
        let session = resident_mut(&mut inner, &key);
        // Validate the batch against the session's pinned dimension (the
        // first point ever ingested pins it).
        let mut expected = session.coreset.centers().first().map(Point::dim);
        for p in &points {
            match expected {
                None => expected = Some(p.dim()),
                Some(dim) if p.dim() == dim => {}
                Some(dim) => {
                    return Err(ServeError::DimensionMismatch {
                        expected: dim,
                        got: p.dim(),
                    })
                }
            }
        }

        let accepted = points.len();
        let mut ingest_time = Duration::ZERO;
        for point in points {
            let start = Instant::now();
            session.coreset.process(point);
            ingest_time += start.elapsed();
        }
        session.last_answer = None;

        let processed = session.coreset.processed();
        let resident_points = session.coreset.memory_items();
        let phi = session.coreset.phi();

        // Periodic snapshot: persist once enough new items accumulated.
        if self.store.is_some()
            && self.config.snapshot_every > 0
            && processed.saturating_sub(session.last_persisted) >= self.config.snapshot_every
        {
            let mut counters = std::mem::take(&mut inner.counters);
            let fingerprint = inner.sessions[&key].fingerprint;
            let session = resident_mut(&mut inner, &key);
            let result = self.persist(&mut counters, fingerprint, session);
            inner.counters = counters;
            result?;
        }
        self.enforce_budget(&mut inner, &key)?;

        kcenter_obs::counter("serve.ingest.batches").inc();
        kcenter_obs::counter("serve.ingest.points").add(accepted as u64);
        kcenter_obs::histogram("serve.ingest.micros").observe_duration(ingest_time);
        Ok(IngestReport {
            accepted,
            processed,
            resident_points,
            phi,
            restored,
            ingest_time,
        })
    }

    /// Answers a k-center-with-outliers query over a snapshot of the
    /// session's live coreset, via the cached finalization path
    /// (`solve_coreset` prices the coreset into a `CachedOracle` and runs
    /// `solve_coreset_cached`). Repeating a query at an unchanged stream
    /// position returns the memoized answer.
    pub fn query(
        &self,
        tenant: &str,
        stream: &str,
        k: usize,
        z: u64,
        eps_hat: f64,
    ) -> Result<QueryAnswer, ServeError> {
        if k == 0 {
            return Err(ServeError::BadRequest("k must be positive".into()));
        }
        if !(eps_hat >= MIN_EPS_HAT && eps_hat.is_finite()) {
            return Err(ServeError::BadRequest(format!(
                "eps must be finite and at least {MIN_EPS_HAT:e}"
            )));
        }
        let mut inner = self.inner.lock();
        if self
            .make_resident(&mut inner, tenant, stream, false)?
            .is_none()
        {
            return Err(ServeError::UnknownSession);
        }
        let key = (tenant.to_string(), stream.to_string());
        self.enforce_budget(&mut inner, &key)?;
        let session = resident_mut(&mut inner, &key);
        let processed = session.coreset.processed();
        if processed == 0 {
            return Err(ServeError::EmptySession);
        }
        let query_key = QueryKey {
            processed,
            k,
            z,
            eps_bits: eps_hat.to_bits(),
        };
        if let Some((cached_key, answer)) = &session.last_answer {
            if *cached_key == query_key {
                kcenter_obs::counter("serve.queries").inc();
                kcenter_obs::counter("serve.queries.cached").inc();
                return Ok(QueryAnswer {
                    centers: answer.centers.clone(),
                    radius: answer.r_min,
                    uncovered_weight: answer.uncovered_weight,
                    processed,
                    cached: true,
                });
            }
        }
        // Solve over a snapshot of the live coreset.
        let query_span = kcenter_obs::span!("serve.query.solve");
        let coreset = session
            .coreset
            .centers()
            .iter()
            .cloned()
            .zip(session.coreset.weights().iter().copied())
            .map(|(point, weight)| WeightedPoint { point, weight })
            .collect::<kcenter_core::WeightedCoreset<Point>>();
        let solution = solve_coreset(
            &coreset,
            &self.metric,
            k,
            z,
            eps_hat,
            SearchMode::GeometricGrid,
            default_matrix_threshold(),
        );
        let answer = QueryAnswer {
            centers: solution.centers.clone(),
            radius: solution.r_min,
            uncovered_weight: solution.uncovered_weight,
            processed,
            cached: false,
        };
        query_span.field("k", k as u64).finish();
        kcenter_obs::counter("serve.queries").inc();
        session.last_answer = Some((query_key, solution));
        Ok(answer)
    }

    /// Explicitly evicts a session to the store. Returns `true` when it
    /// was resident (and is now persisted + dropped), `false` when it was
    /// already evicted.
    pub fn evict(&self, tenant: &str, stream: &str) -> Result<bool, ServeError> {
        if self.store.is_none() {
            return Err(ServeError::NoStore);
        }
        let mut inner = self.inner.lock();
        let key = (tenant.to_string(), stream.to_string());
        let entry = inner.sessions.get(&key).ok_or(ServeError::UnknownSession)?;
        let was_resident = matches!(entry.state, EntryState::Resident(_));
        if was_resident {
            self.evict_entry(&mut inner, &key)?;
        }
        Ok(was_resident)
    }

    /// Per-session stat; errors on a session this registry has never seen
    /// (and that the store does not hold).
    pub fn session_stat(&self, tenant: &str, stream: &str) -> Result<SessionStat, ServeError> {
        let inner = self.inner.lock();
        let key = (tenant.to_string(), stream.to_string());
        if let Some(entry) = inner.sessions.get(&key) {
            return Ok(match &entry.state {
                EntryState::Resident(s) => SessionStat {
                    resident: true,
                    processed: s.coreset.processed(),
                    memory_points: s.coreset.memory_items(),
                },
                EntryState::Evicted { processed } => SessionStat {
                    resident: false,
                    processed: *processed,
                    memory_points: 0,
                },
            });
        }
        drop(inner);
        // A session persisted by a previous server run counts too.
        let Some(store) = self.store.as_ref() else {
            return Err(ServeError::UnknownSession);
        };
        let stored = store
            .load_session(self.fingerprint(tenant, stream))
            .ok_or(ServeError::UnknownSession)?;
        Ok(SessionStat {
            resident: false,
            processed: stored.processed,
            memory_points: 0,
        })
    }

    /// Registry-wide counters.
    pub fn stats(&self) -> RegistryStats {
        let inner = self.inner.lock();
        RegistryStats {
            sessions: inner.sessions.len(),
            resident_sessions: inner
                .sessions
                .values()
                .filter(|e| matches!(e.state, EntryState::Resident(_)))
                .count(),
            resident_points: Self::resident_points(&inner),
            evictions: inner.counters.evictions,
            restores: inner.counters.restores,
            snapshots: inner.counters.snapshots,
        }
    }

    /// Persists every resident session (without evicting); returns how
    /// many were written. A no-op without a store.
    pub fn flush(&self) -> Result<usize, ServeError> {
        if self.store.is_none() {
            return Ok(0);
        }
        let mut inner = self.inner.lock();
        let keys: Vec<(String, String)> = inner
            .sessions
            .iter()
            .filter(|(_, e)| matches!(e.state, EntryState::Resident(_)))
            .map(|(k, _)| k.clone())
            .collect();
        let mut written = 0usize;
        for key in keys {
            let mut counters = std::mem::take(&mut inner.counters);
            let fingerprint = inner.sessions[&key].fingerprint;
            let session = resident_mut(&mut inner, &key);
            let result = self.persist(&mut counters, fingerprint, session);
            inner.counters = counters;
            result?;
            written += 1;
        }
        Ok(written)
    }
}

/// The resident session behind `key`; panics if it is not resident —
/// callers establish residency via `make_resident` first.
fn resident_mut<'a, M>(inner: &'a mut Inner<M>, key: &(String, String)) -> &'a mut Session<M> {
    match &mut inner
        .sessions
        .get_mut(key)
        .expect("session made resident by caller")
        .state
    {
        EntryState::Resident(session) => session,
        EntryState::Evicted { .. } => unreachable!("session made resident by caller"),
    }
}
