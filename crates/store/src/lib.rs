#![warn(missing_docs)]
//! Persistent, content-addressed artifact cache for the k-center workspace.
//!
//! The in-process [`kcenter_metric::CachedOracle`] guarantees each coreset
//! is priced into a proxy-scale distance matrix at most once *per process*;
//! this crate extends the guarantee across processes. Artifacts —
//! [`DistanceMatrix`] caches, weighted coresets, solved clusterings — are
//! stored one-per-file in a cache directory, addressed by a deterministic
//! 128-bit fingerprint of their inputs (point coordinate bits + metric
//! identity for matrices via [`Metric::cache_fingerprint`]; dataset
//! seed/spec + parameters for spec-keyed artifacts via
//! [`kcenter_metric::Fingerprint`]), and encoded with a versioned,
//! checksummed binary codec ([`codec`]) whose decode path turns *any*
//! corruption into a clean miss.
//!
//! Activation is strictly opt-in: nothing touches the disk unless a binary
//! calls [`install_from_env`] (honouring `KCENTER_CACHE_DIR`) or
//! [`install_at`], so tests and library consumers keep the pure in-process
//! behaviour. Once installed, every layer that resolves a `CachedOracle` —
//! `radius_search::solve_coreset{,_cached}`, MapReduce round 2, the 2-pass
//! and streaming finalizations, the figure binaries, the CLI — reads warm
//! matrices from disk (`store_hit_count()` rises, `matrix_build_count()`
//! stays 0) and persists cold ones on the way out.
//!
//! Writes are crash- and race-safe: an entry is written to a unique
//! temporary file and atomically `rename`d into place, so concurrent
//! writers to one key can only ever leave one writer's complete bytes.
//!
//! [`Metric::cache_fingerprint`]: kcenter_metric::Metric::cache_fingerprint

pub mod codec;
#[cfg(all(target_os = "linux", target_endian = "little"))]
pub mod mmap;

use std::borrow::Borrow;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use kcenter_metric::{DistanceMatrix, MatrixPersistence, Point};

pub use codec::{ArtifactKind, DecodeError, StoredSession, StoredSolution, CODEC_VERSION};
pub use kcenter_metric::{store_hit_count, store_miss_count, Fingerprint};

/// Process-wide count of matrix loads served zero-copy from a memory
/// mapping (always 0 on targets without the mmap fast path), kept in the
/// shared metrics registry under `store.mmap.loads`. Tests use it to
/// prove warm loads actually take the mapped path.
fn mmap_loads() -> &'static kcenter_obs::Counter {
    static COUNTER: std::sync::OnceLock<kcenter_obs::Counter> = std::sync::OnceLock::new();
    COUNTER.get_or_init(|| kcenter_obs::counter("store.mmap.loads"))
}

/// Number of matrix loads this process served through the mmap fast path.
pub fn store_mmap_load_count() -> usize {
    mmap_loads().get() as usize
}

/// Environment variable naming the cache directory; unset or empty means
/// the persistent store is off (the default, notably for tests).
pub const CACHE_DIR_ENV: &str = "KCENTER_CACHE_DIR";

/// File extension of every artifact entry.
const ARTIFACT_EXT: &str = "kca";

/// Per-process sequence for unique temporary file names.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// A handle on one cache directory. Cloning is cheap (the handle is just
/// the path); all methods are safe to call from many threads and many
/// processes against the same directory.
#[derive(Clone, Debug)]
pub struct ArtifactStore {
    dir: PathBuf,
}

/// Entry count and byte total for one artifact kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KindStat {
    /// Number of entries of this kind.
    pub entries: usize,
    /// Total size of those entries in bytes.
    pub bytes: u64,
}

/// Snapshot of a cache directory's contents, per kind.
#[derive(Clone, Debug, Default)]
pub struct StoreStat {
    /// Distance-matrix entries.
    pub matrix: KindStat,
    /// Weighted-coreset entries.
    pub coreset: KindStat,
    /// Solution entries.
    pub solution: KindStat,
    /// Point-shard entries.
    pub shard: KindStat,
    /// Streaming-session entries.
    pub session: KindStat,
}

impl StoreStat {
    /// The stat bucket for `kind`.
    pub fn kind(&self, kind: ArtifactKind) -> KindStat {
        match kind {
            ArtifactKind::Matrix => self.matrix,
            ArtifactKind::Coreset => self.coreset,
            ArtifactKind::Solution => self.solution,
            ArtifactKind::Shard => self.shard,
            ArtifactKind::Session => self.session,
        }
    }

    /// Total entries across all kinds.
    pub fn total_entries(&self) -> usize {
        ArtifactKind::ALL
            .into_iter()
            .map(|k| self.kind(k).entries)
            .sum()
    }

    /// Total bytes across all kinds.
    pub fn total_bytes(&self) -> u64 {
        ArtifactKind::ALL
            .into_iter()
            .map(|k| self.kind(k).bytes)
            .sum()
    }
}

impl ArtifactStore {
    /// Opens (creating if necessary) the store at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<ArtifactStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(ArtifactStore { dir })
    }

    /// Opens the store named by `KCENTER_CACHE_DIR`, or `None` when the
    /// variable is unset/empty. An unusable directory is reported on
    /// stderr and treated as "no store" — a cache must never turn into a
    /// hard failure of the computation it accelerates.
    pub fn from_env() -> Option<ArtifactStore> {
        let dir = std::env::var(CACHE_DIR_ENV).ok()?;
        if dir.trim().is_empty() {
            return None;
        }
        match ArtifactStore::open(&dir) {
            Ok(store) => Some(store),
            Err(err) => {
                eprintln!("kcenter-store: cannot open {CACHE_DIR_ENV}={dir}: {err} (cache off)");
                None
            }
        }
    }

    /// The cache directory this store reads and writes.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, kind: ArtifactKind, fingerprint: u128) -> PathBuf {
        self.dir
            .join(format!("{}-{fingerprint:032x}.{ARTIFACT_EXT}", kind.name()))
    }

    /// The on-disk path of the entry for `(kind, fingerprint)` — whether
    /// or not it currently exists. Consumers that can read the artifact
    /// format in place (the exec coordinator points workers straight at
    /// cached shard entries) use this to share the file instead of
    /// copying bytes out of the store.
    pub fn artifact_path(&self, kind: ArtifactKind, fingerprint: u128) -> PathBuf {
        self.entry_path(kind, fingerprint)
    }

    /// Resolves a bare entry file name inside this store's directory —
    /// the shared-storage hook remote executor workers use to pick their
    /// shards up from a coordinator's content-addressed `@store/NAME`
    /// references (store entries have stable, fingerprint-derived names,
    /// so the same reference resolves to the same bytes on every host
    /// mounting the store). `None` unless `name` is a single plain path
    /// component: non-empty, no separators, not `.`/`..` — a wire-provided
    /// name must never escape the store directory.
    pub fn entry_by_name(&self, name: &str) -> Option<PathBuf> {
        if name.is_empty()
            || name.contains('/')
            || name.contains('\\')
            || name == "."
            || name == ".."
        {
            return None;
        }
        Some(self.dir.join(name))
    }

    /// Reads one entry's bytes; `None` when it is absent or unreadable.
    /// Every caller decodes them at once, so any other failure
    /// (truncation, checksum/version/kind mismatch) is a clean miss too.
    fn load_raw(&self, kind: ArtifactKind, fingerprint: u128) -> Option<Vec<u8>> {
        let bytes = std::fs::read(self.entry_path(kind, fingerprint)).ok()?;
        Some(bytes)
    }

    /// Atomically installs `bytes` as the entry for `(kind, fingerprint)`:
    /// the encoded artifact is written to a unique temporary file in the
    /// same directory and `rename`d into place, so a reader (or a racing
    /// writer) observes either the previous complete entry or this one —
    /// never a partial write.
    fn store_raw(
        &self,
        kind: ArtifactKind,
        fingerprint: u128,
        bytes: &[u8],
    ) -> std::io::Result<()> {
        let tmp = self.dir.join(format!(
            "tmp-{}-{fingerprint:032x}-{}-{}",
            kind.name(),
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed),
        ));
        std::fs::write(&tmp, bytes)?;
        let dest = self.entry_path(kind, fingerprint);
        std::fs::rename(&tmp, &dest).inspect_err(|_| {
            let _ = std::fs::remove_file(&tmp);
        })
    }

    /// Loads the distance matrix stored under `fingerprint`, if present
    /// and valid.
    ///
    /// On Linux (little-endian) the entry is memory-mapped and — after
    /// full header/checksum validation — served **zero-copy**: the matrix
    /// views the mapping directly ([`DistanceMatrix::from_shared`]) instead
    /// of decoding into an owned buffer. Any mapping or validation failure
    /// falls back to the read-and-decode path, whose answer is canonical.
    pub fn load_matrix(&self, fingerprint: u128) -> Option<DistanceMatrix> {
        let path = self.entry_path(ArtifactKind::Matrix, fingerprint);
        #[cfg(all(target_os = "linux", target_endian = "little"))]
        if let Some(matrix) = Self::load_matrix_mapped(&path) {
            mmap_loads().inc();
            return Some(matrix);
        }
        let bytes = std::fs::read(path).ok()?;
        codec::decode_matrix(&bytes).ok()
    }

    /// The mmap fast path behind [`ArtifactStore::load_matrix`]: any
    /// failure is a `None` and the caller re-answers via read + decode.
    #[cfg(all(target_os = "linux", target_endian = "little"))]
    fn load_matrix_mapped(path: &Path) -> Option<DistanceMatrix> {
        let map = mmap::MappedFile::open(path).ok()?;
        let layout = codec::validate_matrix(map.bytes()).ok()?;
        let block = mmap::MappedF64s::new(map, layout.data_offset, layout.entries)?;
        Some(DistanceMatrix::from_shared(layout.n, Arc::new(block)))
    }

    /// Persists a distance matrix under `fingerprint`.
    pub fn store_matrix(&self, fingerprint: u128, matrix: &DistanceMatrix) -> std::io::Result<()> {
        self.store_raw(
            ArtifactKind::Matrix,
            fingerprint,
            &codec::encode_matrix(matrix),
        )
    }

    /// Loads the weighted coreset stored under `fingerprint`.
    pub fn load_coreset(&self, fingerprint: u128) -> Option<(Vec<Point>, Vec<u64>)> {
        let bytes = self.load_raw(ArtifactKind::Coreset, fingerprint)?;
        codec::decode_coreset(&bytes).ok()
    }

    /// Persists a weighted coreset under `fingerprint`.
    ///
    /// # Panics
    ///
    /// Panics if `points` and `weights` lengths differ.
    pub fn store_coreset(
        &self,
        fingerprint: u128,
        points: &[Point],
        weights: &[u64],
    ) -> std::io::Result<()> {
        self.store_raw(
            ArtifactKind::Coreset,
            fingerprint,
            &codec::encode_coreset(points, weights),
        )
    }

    /// Loads the solution stored under `fingerprint`.
    pub fn load_solution(&self, fingerprint: u128) -> Option<StoredSolution> {
        let bytes = self.load_raw(ArtifactKind::Solution, fingerprint)?;
        codec::decode_solution(&bytes).ok()
    }

    /// Persists a solution under `fingerprint`.
    pub fn store_solution(
        &self,
        fingerprint: u128,
        solution: &StoredSolution,
    ) -> std::io::Result<()> {
        self.store_raw(
            ArtifactKind::Solution,
            fingerprint,
            &codec::encode_solution(solution),
        )
    }

    /// Loads the point shard stored under `fingerprint`.
    pub fn load_shard(&self, fingerprint: u128) -> Option<Vec<Point>> {
        let bytes = self.load_raw(ArtifactKind::Shard, fingerprint)?;
        codec::decode_shard(&bytes).ok()
    }

    /// Persists a point shard (owned or borrowed points) under
    /// `fingerprint`.
    ///
    /// # Panics
    ///
    /// Panics on mixed-dimension points.
    pub fn store_shard<P: Borrow<Point>>(
        &self,
        fingerprint: u128,
        points: &[P],
    ) -> std::io::Result<()> {
        self.store_raw(
            ArtifactKind::Shard,
            fingerprint,
            &codec::encode_shard(points),
        )
    }

    /// Loads the streaming session stored under `fingerprint`.
    pub fn load_session(&self, fingerprint: u128) -> Option<StoredSession> {
        let bytes = self.load_raw(ArtifactKind::Session, fingerprint)?;
        codec::decode_session(&bytes).ok()
    }

    /// Persists a streaming session under `fingerprint`.
    ///
    /// # Panics
    ///
    /// Panics if the session's `centers` and `weights` lengths differ.
    pub fn store_session(&self, fingerprint: u128, session: &StoredSession) -> std::io::Result<()> {
        self.store_raw(
            ArtifactKind::Session,
            fingerprint,
            &codec::encode_session(session),
        )
    }

    /// Whether `name` is one of this store's artifact entries
    /// (`{kind}-{32 hex}.kca`); returns its kind.
    fn classify_entry(name: &str) -> Option<ArtifactKind> {
        let stem = name.strip_suffix(&format!(".{ARTIFACT_EXT}"))?;
        for kind in ArtifactKind::ALL {
            if let Some(hex) = stem
                .strip_prefix(kind.name())
                .and_then(|s| s.strip_prefix('-'))
            {
                if hex.len() == 32 && hex.bytes().all(|b| b.is_ascii_hexdigit()) {
                    return Some(kind);
                }
            }
        }
        None
    }

    /// Whether `name` is a leftover temporary file from an interrupted
    /// write (cleared by [`ArtifactStore::clear`], never read). Matches
    /// only the store's own temp shape (`tmp-{kind}-…`): a user file that
    /// merely happens to start with `tmp-` in a misconfigured directory
    /// is not ours to delete.
    fn is_stale_tmp(name: &str) -> bool {
        ArtifactKind::ALL
            .into_iter()
            .any(|kind| name.starts_with(&format!("tmp-{}-", kind.name())))
    }

    /// Per-kind entry counts and sizes. Unrecognized files in the
    /// directory are ignored.
    pub fn stat(&self) -> std::io::Result<StoreStat> {
        let mut stat = StoreStat::default();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(kind) = Self::classify_entry(&name.to_string_lossy()) else {
                continue;
            };
            let bytes = entry.metadata().map(|m| m.len()).unwrap_or(0);
            let bucket = match kind {
                ArtifactKind::Matrix => &mut stat.matrix,
                ArtifactKind::Coreset => &mut stat.coreset,
                ArtifactKind::Solution => &mut stat.solution,
                ArtifactKind::Shard => &mut stat.shard,
                ArtifactKind::Session => &mut stat.session,
            };
            bucket.entries += 1;
            bucket.bytes += bytes;
        }
        Ok(stat)
    }

    /// Removes every artifact entry (and stale temporary file) from the
    /// cache directory, returning how many files were deleted. Files the
    /// store does not recognize are left alone — `clear` on a
    /// misconfigured directory must never eat unrelated data.
    pub fn clear(&self) -> std::io::Result<usize> {
        let mut removed = 0usize;
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if Self::classify_entry(&name).is_some() || Self::is_stale_tmp(&name) {
                std::fs::remove_file(entry.path())?;
                removed += 1;
            }
        }
        Ok(removed)
    }

    /// Evicts least-recently-written artifact entries until the directory's
    /// artifact bytes fit within `max_bytes` — the size budget that makes
    /// `KCENTER_CACHE_DIR` safe to leave enabled on long-lived hosts.
    ///
    /// Eviction is LRU by file modification time (ties broken by name for
    /// determinism); stale temporary files from interrupted writes are
    /// always removed first and never count against the budget. Files the
    /// store does not recognize are untouched, like [`ArtifactStore::clear`].
    /// An entry that vanishes mid-prune (a concurrent `clear`/prune) is
    /// skipped, not an error.
    pub fn prune(&self, max_bytes: u64) -> std::io::Result<PruneReport> {
        let mut report = PruneReport::default();
        let mut entries: Vec<(std::time::SystemTime, String, u64, PathBuf)> = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy().into_owned();
            if Self::is_stale_tmp(&name) {
                if std::fs::remove_file(entry.path()).is_ok() {
                    report.removed += 1;
                }
                continue;
            }
            if Self::classify_entry(&name).is_none() {
                continue;
            }
            let meta = match entry.metadata() {
                Ok(meta) => meta,
                Err(_) => continue, // vanished under a concurrent sweep
            };
            let mtime = meta.modified().unwrap_or(std::time::SystemTime::UNIX_EPOCH);
            entries.push((mtime, name, meta.len(), entry.path()));
        }
        entries.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
        let mut total: u64 = entries.iter().map(|e| e.2).sum();
        for (_, _, bytes, path) in &entries {
            if total <= max_bytes {
                report.remaining_entries += 1;
                continue;
            }
            match std::fs::remove_file(path) {
                Ok(()) => {
                    report.removed += 1;
                    report.removed_bytes += bytes;
                    total -= bytes;
                }
                // Vanished under a concurrent sweep: its bytes are gone
                // either way, just not on this call's account.
                Err(err) if err.kind() == std::io::ErrorKind::NotFound => total -= bytes,
                // Unremovable (permissions, etc.): the file still occupies
                // disk, so it must stay on the remaining side — the report
                // must never claim a budget the directory does not meet.
                Err(_) => report.remaining_entries += 1,
            }
        }
        report.remaining_bytes = total;
        Ok(report)
    }
}

/// What [`ArtifactStore::prune`] did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PruneReport {
    /// Files deleted (artifact entries plus stale temporaries).
    pub removed: usize,
    /// Artifact bytes reclaimed (temporaries not counted).
    pub removed_bytes: u64,
    /// Artifact entries left in the directory.
    pub remaining_entries: usize,
    /// Artifact bytes left in the directory.
    pub remaining_bytes: u64,
}

/// [`MatrixPersistence`] backend over an [`ArtifactStore`]: what
/// [`install_from_env`]/[`install_at`] hang under
/// [`kcenter_metric::CachedOracle`].
pub struct StoreBackend {
    store: ArtifactStore,
}

impl StoreBackend {
    /// Wraps a store as a matrix-persistence backend.
    pub fn new(store: ArtifactStore) -> StoreBackend {
        StoreBackend { store }
    }
}

impl MatrixPersistence for StoreBackend {
    fn load(&self, fingerprint: u128) -> Option<DistanceMatrix> {
        self.store.load_matrix(fingerprint)
    }

    fn store(&self, fingerprint: u128, matrix: &DistanceMatrix) {
        // Best-effort: a full disk or permission error costs persistence,
        // never the run.
        if let Err(err) = self.store_matrix_checked(fingerprint, matrix) {
            eprintln!("kcenter-store: failed to persist matrix: {err}");
        }
    }
}

impl StoreBackend {
    fn store_matrix_checked(
        &self,
        fingerprint: u128,
        matrix: &DistanceMatrix,
    ) -> std::io::Result<()> {
        self.store.store_matrix(fingerprint, matrix)
    }
}

/// Installs the disk-backed matrix persistence at `dir` for the whole
/// process and returns the store handle. A later call (or a competing
/// [`install_from_env`]) is a no-op on the global hook but still returns a
/// usable handle for direct artifact access.
pub fn install_at(dir: impl Into<PathBuf>) -> std::io::Result<ArtifactStore> {
    let store = ArtifactStore::open(dir)?;
    kcenter_metric::install_matrix_persistence(Arc::new(StoreBackend::new(store.clone())));
    Ok(store)
}

/// Installs disk-backed matrix persistence from `KCENTER_CACHE_DIR`, if
/// set; the standard first line of every figure/bench binary and the CLI.
/// Returns the active store handle, or `None` when caching is off.
pub fn install_from_env() -> Option<ArtifactStore> {
    let store = ArtifactStore::from_env()?;
    kcenter_metric::install_matrix_persistence(Arc::new(StoreBackend::new(store.clone())));
    Some(store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcenter_metric::Euclidean;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("kcenter-store-unit")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_matrix() -> DistanceMatrix {
        let points: Vec<Point> = (0..6).map(|i| Point::new(vec![i as f64 * 1.25])).collect();
        DistanceMatrix::build_cmp(&points, &Euclidean)
    }

    #[test]
    fn store_and_reload_matrix() {
        let store = ArtifactStore::open(tmp_dir("matrix")).unwrap();
        let m = sample_matrix();
        assert!(store.load_matrix(7).is_none(), "empty store must miss");
        store.store_matrix(7, &m).unwrap();
        let back = store.load_matrix(7).expect("hit after store");
        assert_eq!(back.condensed(), m.condensed());
        assert!(store.load_matrix(8).is_none(), "other keys still miss");
    }

    #[test]
    fn entry_by_name_resolves_only_plain_components() {
        let store = ArtifactStore::open(tmp_dir("by-name")).unwrap();
        let shard = store.artifact_path(ArtifactKind::Shard, 0xabcd);
        let name = shard.file_name().unwrap().to_str().unwrap();
        // The round trip the remote executor path relies on: entry path →
        // bare name → same entry path.
        assert_eq!(store.entry_by_name(name), Some(shard));
        for hostile in ["", ".", "..", "a/b", "../x", "a\\b"] {
            assert_eq!(store.entry_by_name(hostile), None, "{hostile:?} accepted");
        }
    }

    #[test]
    fn corrupt_entry_is_a_clean_miss() {
        let store = ArtifactStore::open(tmp_dir("corrupt")).unwrap();
        let m = sample_matrix();
        store.store_matrix(1, &m).unwrap();
        let path = store.entry_path(ArtifactKind::Matrix, 1);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(store.load_matrix(1).is_none());
        // Truncated file on disk.
        std::fs::write(&path, &bytes[..10]).unwrap();
        assert!(store.load_matrix(1).is_none());
        // Empty file on disk.
        std::fs::write(&path, b"").unwrap();
        assert!(store.load_matrix(1).is_none());
    }

    #[test]
    fn stat_and_clear_account_all_kinds() {
        let store = ArtifactStore::open(tmp_dir("stat")).unwrap();
        store.store_matrix(1, &sample_matrix()).unwrap();
        store
            .store_coreset(2, &[Point::new(vec![1.0])], &[3])
            .unwrap();
        store
            .store_solution(
                3,
                &StoredSolution {
                    centers: vec![Point::new(vec![0.0])],
                    radius: 1.0,
                    uncovered_weight: 0,
                    evaluations: 1,
                },
            )
            .unwrap();
        // Unrelated files must be ignored by stat and survive clear —
        // including one that merely starts with "tmp-" but is not the
        // store's temp shape.
        std::fs::write(store.dir().join("README.txt"), b"not an artifact").unwrap();
        std::fs::write(store.dir().join("tmp-backup.tar"), b"user data").unwrap();
        // A stale tmp file of the store's own shape must be cleared.
        std::fs::write(store.dir().join("tmp-matrix-dead"), b"partial").unwrap();

        let stat = store.stat().unwrap();
        assert_eq!(stat.matrix.entries, 1);
        assert_eq!(stat.coreset.entries, 1);
        assert_eq!(stat.solution.entries, 1);
        assert_eq!(stat.total_entries(), 3);
        assert!(stat.total_bytes() > 0);

        let removed = store.clear().unwrap();
        assert_eq!(removed, 4, "3 entries + 1 stale tmp");
        assert_eq!(store.stat().unwrap().total_entries(), 0);
        assert!(store.dir().join("README.txt").exists());
        assert!(store.dir().join("tmp-backup.tar").exists());
    }

    #[test]
    fn overwrite_replaces_the_entry() {
        let store = ArtifactStore::open(tmp_dir("overwrite")).unwrap();
        let m1 = DistanceMatrix::from_condensed(2, vec![1.0]);
        let m2 = DistanceMatrix::from_condensed(2, vec![2.0]);
        store.store_matrix(9, &m1).unwrap();
        store.store_matrix(9, &m2).unwrap();
        assert_eq!(store.load_matrix(9).unwrap().condensed(), &[2.0]);
        assert_eq!(store.stat().unwrap().matrix.entries, 1);
    }

    #[test]
    fn from_env_requires_the_variable() {
        // The test harness never sets KCENTER_CACHE_DIR; mutate a private
        // copy of the lookup instead of the process env (tests run
        // multi-threaded and setenv is process-global).
        if std::env::var(CACHE_DIR_ENV).is_err() {
            assert!(ArtifactStore::from_env().is_none());
        }
    }

    #[test]
    fn shard_store_and_reload() {
        let store = ArtifactStore::open(tmp_dir("shard")).unwrap();
        let points: Vec<Point> = (0..5)
            .map(|i| Point::new(vec![i as f64, -0.5 * i as f64]))
            .collect();
        assert!(store.load_shard(11).is_none());
        store.store_shard(11, &points).unwrap();
        let back = store.load_shard(11).expect("hit after store");
        assert_eq!(back, points);
        let stat = store.stat().unwrap();
        assert_eq!(stat.shard.entries, 1);
        assert_eq!(stat.total_entries(), 1);
        assert_eq!(store.clear().unwrap(), 1);
    }

    #[cfg(all(target_os = "linux", target_endian = "little"))]
    #[test]
    fn warm_matrix_load_takes_the_mmap_path_bitwise() {
        let store = ArtifactStore::open(tmp_dir("mmap-load")).unwrap();
        let m = sample_matrix();
        store.store_matrix(21, &m).unwrap();
        let before = store_mmap_load_count();
        let back = store.load_matrix(21).expect("hit");
        assert!(
            store_mmap_load_count() > before,
            "warm load must take the mmap fast path"
        );
        assert!(back.is_externally_backed(), "no decode copy on warm loads");
        assert_eq!(back.len(), m.len());
        for (a, b) in back.condensed().iter().zip(m.condensed()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // A corrupted entry must fail cleanly through both paths.
        let path = store.entry_path(ArtifactKind::Matrix, 21);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(store.load_matrix(21).is_none());
    }

    #[test]
    fn prune_evicts_oldest_first_within_budget() {
        let store = ArtifactStore::open(tmp_dir("prune")).unwrap();
        // Three same-size matrix entries with strictly increasing mtimes.
        let m = sample_matrix();
        for fp in [1u128, 2, 3] {
            store.store_matrix(fp, &m).unwrap();
            let path = store.entry_path(ArtifactKind::Matrix, fp);
            // Space the mtimes out explicitly: filesystem timestamp
            // granularity is too coarse to rely on write order.
            let when = std::time::SystemTime::UNIX_EPOCH
                + std::time::Duration::from_secs(1_000_000 + fp as u64 * 1000);
            let file = std::fs::File::options().append(true).open(&path).unwrap();
            file.set_modified(when).unwrap();
        }
        // An unrelated file and a stale tmp; only the tmp may be removed.
        std::fs::write(store.dir().join("notes.txt"), b"keep me").unwrap();
        std::fs::write(store.dir().join("tmp-matrix-dead"), b"partial").unwrap();

        let entry_bytes = store.stat().unwrap().matrix.bytes / 3;
        // Budget for exactly two entries: the oldest (fp = 1) must go.
        let report = store.prune(2 * entry_bytes).unwrap();
        assert_eq!(report.removed, 2, "oldest entry + stale tmp");
        assert_eq!(report.removed_bytes, entry_bytes);
        assert_eq!(report.remaining_entries, 2);
        assert_eq!(report.remaining_bytes, 2 * entry_bytes);
        assert!(store.load_matrix(1).is_none(), "oldest evicted");
        assert!(store.load_matrix(2).is_some());
        assert!(store.load_matrix(3).is_some());
        assert!(store.dir().join("notes.txt").exists());

        // A generous budget removes nothing.
        let report = store.prune(u64::MAX).unwrap();
        assert_eq!(report.removed, 0);
        assert_eq!(report.remaining_entries, 2);

        // A zero budget empties the store.
        let report = store.prune(0).unwrap();
        assert_eq!(report.removed, 2);
        assert_eq!(report.remaining_entries, 0);
        assert_eq!(report.remaining_bytes, 0);
        assert_eq!(store.stat().unwrap().total_entries(), 0);
    }

    /// The payload checksum codec v1 wrote: byte-at-a-time FNV-1a with a
    /// SplitMix64 finish.
    fn checksum_v1(payload: &[u8]) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for &b in payload {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^ (h >> 31)
    }

    /// Rewrites a current entry as codec v1 wrote it — version 1 and v1's
    /// checksum in the header: what a store filled by an older build holds.
    fn as_v1(mut bytes: Vec<u8>) -> Vec<u8> {
        let sum = checksum_v1(&bytes[codec::HEADER_LEN..]);
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        bytes[24..32].copy_from_slice(&sum.to_le_bytes());
        bytes
    }

    #[test]
    fn v1_entries_are_clean_misses_that_stat_prune_and_clear_still_manage() {
        let store = ArtifactStore::open(tmp_dir("v1")).unwrap();
        let points = vec![Point::new(vec![1.0, -0.0]), Point::new(vec![2.5, 3.0])];
        let solution = StoredSolution {
            centers: points.clone(),
            radius: 1.5,
            uncovered_weight: 0,
            evaluations: 3,
        };
        let session = StoredSession {
            tau: 4,
            initialized: false,
            phi: 0.0,
            processed: 2,
            centers: points.clone(),
            weights: vec![1, 1],
        };
        let entries = [
            (ArtifactKind::Matrix, codec::encode_matrix(&sample_matrix())),
            (
                ArtifactKind::Coreset,
                codec::encode_coreset(&points, &[1, 2]),
            ),
            (ArtifactKind::Solution, codec::encode_solution(&solution)),
            (ArtifactKind::Shard, codec::encode_shard(&points)),
            (ArtifactKind::Session, codec::encode_session(&session)),
        ];
        for (fp, (kind, bytes)) in entries.into_iter().enumerate() {
            store.store_raw(kind, fp as u128, &as_v1(bytes)).unwrap();
        }

        // Every load is a miss; `load_matrix` tries its mmap path first.
        assert!(store.load_matrix(0).is_none());
        assert!(store.load_coreset(1).is_none());
        assert!(store.load_solution(2).is_none());
        assert!(store.load_shard(3).is_none());
        assert!(store.load_session(4).is_none());
        // The bytes `load_raw` returns fail on the version, before the
        // checksum is even computed.
        let v1 = DecodeError::VersionMismatch { found: 1 };
        let raw = store
            .load_raw(ArtifactKind::Shard, 3)
            .expect("entry exists");
        assert_eq!(codec::decode_shard(&raw), Err(v1));
        assert_eq!(codec::validate_shard(&raw), Err(v1));
        #[cfg(all(target_os = "linux", target_endian = "little"))]
        {
            let map = mmap::MappedFile::open(&store.entry_path(ArtifactKind::Shard, 3)).unwrap();
            assert_eq!(codec::validate_shard(map.bytes()), Err(v1));
        }

        // Maintenance still sees and removes the old entries.
        let stat = store.stat().unwrap();
        for kind in ArtifactKind::ALL {
            assert_eq!(stat.kind(kind).entries, 1, "{kind:?}");
        }
        let pruned = store.prune(stat.total_bytes() - 1).unwrap();
        assert!(pruned.removed >= 1);
        assert_eq!(pruned.remaining_entries, 5 - pruned.removed);
        assert_eq!(store.clear().unwrap(), pruned.remaining_entries);
        assert_eq!(store.stat().unwrap().total_entries(), 0);
    }

    #[test]
    fn classify_entry_rejects_lookalikes() {
        assert_eq!(
            ArtifactStore::classify_entry(&format!("matrix-{:032x}.kca", 5u128)),
            Some(ArtifactKind::Matrix)
        );
        assert_eq!(ArtifactStore::classify_entry("matrix-xyz.kca"), None);
        assert_eq!(ArtifactStore::classify_entry("matrix-05.kca"), None);
        assert_eq!(ArtifactStore::classify_entry("weights-aa.kca"), None);
        assert_eq!(
            ArtifactStore::classify_entry(&format!("matrix-{:032x}.bin", 5u128)),
            None
        );
    }
}
