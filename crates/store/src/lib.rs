#![warn(missing_docs)]
//! Persistent, content-addressed artifact store for the k-center workspace.
//!
//! Artifacts — the executor's point shards, `kcenter serve`'s evicted
//! streaming sessions, and the CLI's solved clusterings — are stored one
//! per file in a cache directory, addressed by a deterministic 128-bit
//! [`Fingerprint`] of their inputs (a shard's coordinates, a run's input
//! and parameters, a session's key), and encoded with a versioned,
//! checksummed binary codec ([`codec`]) whose decode path turns *any*
//! corruption into a clean miss.
//!
//! Nothing touches the disk unless a caller opens a store: the CLI's
//! `--cache-dir` (or `KCENTER_CACHE_DIR`, through
//! [`ArtifactStore::from_env`]), or an executor configured with a shard
//! store. Distance matrices are never stored: round 2 prices its coreset
//! union in process.
//!
//! Writes are crash- and race-safe: an entry is written to a unique
//! temporary file and atomically `rename`d into place, so concurrent
//! writers to one key can only ever leave one writer's complete bytes.

pub mod codec;
#[cfg(all(target_os = "linux", target_endian = "little"))]
pub mod mmap;

use std::borrow::Borrow;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use kcenter_metric::Point;

pub use codec::{ArtifactKind, DecodeError, StoredSession, StoredSolution, CODEC_VERSION};
pub use kcenter_metric::Fingerprint;

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
    /// Distance-matrix entries older builds wrote (see
    /// [`ArtifactKind::Matrix`]).
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

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("kcenter-store-unit")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_shard() -> Vec<Point> {
        (0..6)
            .map(|i| Point::new(vec![i as f64 * 1.25, -0.5 * i as f64]))
            .collect()
    }

    /// A matrix entry as older builds wrote it: a valid header of kind
    /// [`ArtifactKind::Matrix`] over a checksummed payload. The checksum
    /// covers the payload only, so re-tagging a shard's bytes is enough;
    /// this build has no matrix encoder.
    fn legacy_matrix_entry() -> Vec<u8> {
        let mut bytes = codec::encode_shard(&sample_shard());
        bytes[12..16].copy_from_slice(&ArtifactKind::Matrix.tag().to_le_bytes());
        bytes
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
        store.store_shard(1, &sample_shard()).unwrap();
        let path = store.entry_path(ArtifactKind::Shard, 1);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(store.load_shard(1).is_none());
        // Truncated file on disk.
        std::fs::write(&path, &bytes[..10]).unwrap();
        assert!(store.load_shard(1).is_none());
        // Empty file on disk.
        std::fs::write(&path, b"").unwrap();
        assert!(store.load_shard(1).is_none());
    }

    #[test]
    fn stat_and_clear_account_all_kinds() {
        let store = ArtifactStore::open(tmp_dir("stat")).unwrap();
        // A current-version matrix entry, as older builds wrote them:
        // stat must count it and clear must remove it.
        store
            .store_raw(ArtifactKind::Matrix, 1, &legacy_matrix_entry())
            .unwrap();
        assert!(store
            .dir()
            .join(format!("matrix-{:032x}.kca", 1u128))
            .exists());
        store
            .store_raw(
                ArtifactKind::Coreset,
                2,
                &codec::encode_coreset(&[Point::new(vec![1.0])], &[3]),
            )
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
        store.store_shard(4, &sample_shard()).unwrap();
        store
            .store_session(
                5,
                &StoredSession {
                    tau: 4,
                    initialized: false,
                    phi: 0.0,
                    processed: 1,
                    centers: vec![Point::new(vec![2.0])],
                    weights: vec![1],
                },
            )
            .unwrap();
        // Unrelated files must be ignored by stat and survive clear —
        // including one that merely starts with "tmp-" but is not the
        // store's temp shape.
        std::fs::write(store.dir().join("README.txt"), b"not an artifact").unwrap();
        std::fs::write(store.dir().join("tmp-backup.tar"), b"user data").unwrap();
        // A stale tmp file of the store's own shape must be cleared.
        std::fs::write(store.dir().join("tmp-shard-dead"), b"partial").unwrap();

        let stat = store.stat().unwrap();
        for kind in ArtifactKind::ALL {
            assert_eq!(stat.kind(kind).entries, 1, "{kind:?}");
        }
        assert_eq!(stat.total_entries(), 5);
        assert!(stat.total_bytes() > 0);

        let removed = store.clear().unwrap();
        assert_eq!(removed, 6, "5 entries + 1 stale tmp");
        assert_eq!(store.stat().unwrap().total_entries(), 0);
        assert!(store.dir().join("README.txt").exists());
        assert!(store.dir().join("tmp-backup.tar").exists());
    }

    #[test]
    fn overwrite_replaces_the_entry() {
        let store = ArtifactStore::open(tmp_dir("overwrite")).unwrap();
        let first = vec![Point::new(vec![1.0])];
        let second = vec![Point::new(vec![2.0])];
        store.store_shard(9, &first).unwrap();
        store.store_shard(9, &second).unwrap();
        assert_eq!(store.load_shard(9).unwrap(), second);
        assert_eq!(store.stat().unwrap().shard.entries, 1);
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

    #[test]
    fn prune_evicts_oldest_first_within_budget() {
        let store = ArtifactStore::open(tmp_dir("prune")).unwrap();
        // Three same-size entries with strictly increasing mtimes. The
        // oldest is a current-version matrix entry as older builds wrote
        // it: pruning must evict it like any other kind.
        store
            .store_raw(ArtifactKind::Matrix, 1, &legacy_matrix_entry())
            .unwrap();
        store.store_shard(2, &sample_shard()).unwrap();
        store.store_shard(3, &sample_shard()).unwrap();
        let kinds = [
            ArtifactKind::Matrix,
            ArtifactKind::Shard,
            ArtifactKind::Shard,
        ];
        for (fp, kind) in (1u128..).zip(kinds) {
            let path = store.entry_path(kind, fp);
            // Space the mtimes out explicitly: filesystem timestamp
            // granularity is too coarse to rely on write order.
            let when = std::time::SystemTime::UNIX_EPOCH
                + std::time::Duration::from_secs(1_000_000 + fp as u64 * 1000);
            let file = std::fs::File::options().append(true).open(&path).unwrap();
            file.set_modified(when).unwrap();
        }
        // An unrelated file and a stale tmp; only the tmp may be removed.
        std::fs::write(store.dir().join("notes.txt"), b"keep me").unwrap();
        std::fs::write(store.dir().join("tmp-shard-dead"), b"partial").unwrap();

        let entry_bytes = store.stat().unwrap().total_bytes() / 3;
        // Budget for exactly two entries: the oldest (fp = 1) must go.
        let report = store.prune(2 * entry_bytes).unwrap();
        assert_eq!(report.removed, 2, "oldest entry + stale tmp");
        assert_eq!(report.removed_bytes, entry_bytes);
        assert_eq!(report.remaining_entries, 2);
        assert_eq!(report.remaining_bytes, 2 * entry_bytes);
        assert_eq!(store.stat().unwrap().matrix.entries, 0, "oldest evicted");
        assert!(store.load_shard(2).is_some());
        assert!(store.load_shard(3).is_some());
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
            (ArtifactKind::Matrix, legacy_matrix_entry()),
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

        // Every load is a miss.
        let coreset = store.load_raw(ArtifactKind::Coreset, 1).unwrap();
        assert!(codec::decode_coreset(&coreset).is_err());
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
