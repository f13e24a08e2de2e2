//! On-disk point shards: the executor's input interchange format.
//!
//! The coordinator writes one shard file per worker (partition) using the
//! store codec's `Shard` kind — versioned, checksummed, coordinates laid
//! out as one contiguous 8-byte-aligned little-endian `f64` block — and
//! each worker loads its shard back. On Linux the load memory-maps the
//! file and views the coordinate block in place as a [`PointSet`] — the
//! shard's on-disk point-major layout *is* the `PointSet` layout, so the
//! distance kernels run over the page cache with **zero** copies;
//! elsewhere, or on any mapping failure, it falls back to `read` + decode
//! into an owned set. Both paths produce bit-identical coordinates and
//! reject any corruption — including forged non-finite values, which the
//! checksum cannot catch — as a clean [`DecodeError`].

use std::borrow::Borrow;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use kcenter_metric::{Point, PointSet};
use kcenter_store::codec::{self, DecodeError};

/// Per-process sequence for unique temporary shard/artifact names.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Why a shard (or worker-result artifact) could not be loaded.
#[derive(Debug)]
pub enum ShardError {
    /// The file could not be read.
    Io(io::Error),
    /// The file's contents failed codec validation.
    Decode(DecodeError),
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Io(err) => write!(f, "cannot read shard: {err}"),
            ShardError::Decode(err) => write!(f, "invalid shard: {err}"),
        }
    }
}

impl std::error::Error for ShardError {}

/// Atomically writes `bytes` at `path` (unique temp file + rename), so a
/// reader — or a crash — can only ever observe a complete file.
pub fn write_artifact_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    let tmp: PathBuf = dir.join(format!(
        "tmp-shard-{}-{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

/// Writes `points` (owned or borrowed) as a shard file at `path` (atomic
/// temp + rename).
pub fn write_shard<P: Borrow<Point>>(path: &Path, points: &[P]) -> io::Result<()> {
    write_artifact_atomic(path, &codec::encode_shard(points))
}

/// Loads a shard file as a [`PointSet`], memory-mapping it when the
/// platform allows.
///
/// On the mmap path the returned set *is* the mapped coordinate block —
/// the `f64` run validated by [`codec::validate_shard`] (framing,
/// checksum) and by [`PointSet::try_from_shared`] (shape, and finiteness:
/// the invariant `Point::try_new` enforces) — so shard bytes flow into
/// the block distance kernels with zero copies. Any mapping failure falls
/// back to the canonical `read` + decode path (which also classifies the
/// error) and an owned coordinate block; both paths are bitwise
/// identical.
pub fn read_shard_set(path: &Path) -> Result<PointSet, ShardError> {
    #[cfg(all(target_os = "linux", target_endian = "little"))]
    if let Some(set) = read_shard_set_mapped(path) {
        return Ok(set);
    }
    let bytes = std::fs::read(path).map_err(ShardError::Io)?;
    let points = codec::decode_shard(&bytes).map_err(ShardError::Decode)?;
    Ok(PointSet::from_points(&points))
}

/// The mmap fast path: validate the mapped entry's structure, then view
/// the coordinate block in place — `PointSet::try_from_shared` scans it
/// for finiteness, once. Any failure returns `None` and the caller
/// re-answers through the canonical read + decode path (which also
/// classifies the error).
///
/// Why it stays, although it and `kcenter_store::mmap` (with the
/// `StableF64s` view they need) hold all the `unsafe` under `crates/`:
/// measured at 3f771f2 on kbench fleet-tcp-sweep (seed 1, 4 ABBA pairs,
/// 2-vCPU box), replacing it with `fs::read` plus one copy into an owned
/// `PointSet` — every header, checksum, layout and finiteness check
/// kept — raised `op_ms_p50` from a median of 208.2 to 238.0 ms (+14%,
/// worse in 4 of 4 pairs). The trade is resident memory: `peak_rss_mb`
/// read 58.6–60.2 MB mapped against 53.5–55.1 MB with the owned copy.
#[cfg(all(target_os = "linux", target_endian = "little"))]
fn read_shard_set_mapped(path: &Path) -> Option<PointSet> {
    use std::sync::Arc;

    use kcenter_store::mmap::{MappedF64s, MappedFile};

    let map = MappedFile::open(path).ok()?;
    let layout = codec::validate_shard(map.bytes()).ok()?;
    if layout.n == 0 {
        return Some(PointSet::from_points(&[]));
    }
    let block = MappedF64s::new(map, layout.coords_offset, layout.n * layout.dim)?;
    PointSet::try_from_shared(Arc::new(block), layout.n, layout.dim).ok()
}

/// Loads a worker's coreset-result artifact (points + weights).
pub fn read_coreset_artifact(path: &Path) -> Result<(Vec<Point>, Vec<u64>), ShardError> {
    let bytes = std::fs::read(path).map_err(ShardError::Io)?;
    codec::decode_coreset(&bytes).map_err(ShardError::Decode)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("kcenter-exec-shard");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    #[test]
    fn shard_write_read_round_trip_is_bitwise() {
        let points: Vec<Point> = (0..100)
            .map(|i| Point::new(vec![i as f64 * 0.1, -0.0 - i as f64, 1e-300 * i as f64]))
            .collect();
        let path = tmp("roundtrip.kca");
        write_shard(&path, &points).unwrap();
        let back = read_shard_set(&path).unwrap().to_points();
        assert_eq!(back.len(), points.len());
        for (a, b) in back.iter().zip(&points) {
            for (ca, cb) in a.coords().iter().zip(b.coords()) {
                assert_eq!(ca.to_bits(), cb.to_bits());
            }
        }
    }

    #[test]
    fn empty_shard_round_trips() {
        let path = tmp("empty.kca");
        write_shard::<Point>(&path, &[]).unwrap();
        assert!(read_shard_set(&path).unwrap().is_empty());
    }

    #[test]
    fn shard_set_matches_owned_points_bitwise() {
        let points: Vec<Point> = (0..64)
            .map(|i| Point::new(vec![i as f64 * 0.7, -0.0, 1e-300 * (i + 1) as f64]))
            .collect();
        let path = tmp("set.kca");
        write_shard(&path, &points).unwrap();
        let set = read_shard_set(&path).unwrap();
        assert_eq!(set.len(), points.len());
        assert_eq!(set.dim(), 3);
        for (r, p) in set.iter().zip(&points) {
            for (ca, cb) in r.coords().iter().zip(p.coords()) {
                assert_eq!(ca.to_bits(), cb.to_bits());
            }
        }
        // Empty shard loads as an empty set.
        let empty = tmp("set-empty.kca");
        write_shard::<Point>(&empty, &[]).unwrap();
        assert!(read_shard_set(&empty).unwrap().is_empty());
    }

    #[test]
    fn nan_shard_with_valid_checksum_is_a_clean_decode_error() {
        // Forge a shard whose framing and checksum are *valid* but whose
        // one coordinate is NaN: the checksum vouches for the bytes, so
        // only the coordinate-finiteness validation stands between the
        // mapped block and NaN-poisoned distances.
        let mut payload = Vec::new();
        payload.extend_from_slice(&1u64.to_le_bytes()); // n
        payload.extend_from_slice(&1u64.to_le_bytes()); // dim
        payload.extend_from_slice(&f64::NAN.to_bits().to_le_bytes());
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&codec::MAGIC);
        bytes.extend_from_slice(&codec::CODEC_VERSION.to_le_bytes());
        bytes.extend_from_slice(&codec::ArtifactKind::Shard.tag().to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        let sum = kcenter_metric::fingerprint::checksum64(&payload);
        bytes.extend_from_slice(&sum.to_le_bytes());
        bytes.extend_from_slice(&payload);

        let path = tmp("nan-shard.kca");
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_shard_set(&path),
            Err(ShardError::Decode(DecodeError::Malformed))
        ));
    }

    #[test]
    fn codec_v1_shard_is_a_version_mismatch_on_both_paths() {
        // A shard an older build wrote: version 1 in the header. The
        // version check comes before the checksum, so v1's checksum need
        // not be reproduced.
        let points = vec![Point::new(vec![1.0, 2.0]), Point::new(vec![3.0, 4.0])];
        let mut bytes = codec::encode_shard(&points);
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        let path = tmp("v1-shard.kca");
        std::fs::write(&path, &bytes).unwrap();
        #[cfg(all(target_os = "linux", target_endian = "little"))]
        assert!(read_shard_set_mapped(&path).is_none());
        assert!(matches!(
            read_shard_set(&path),
            Err(ShardError::Decode(DecodeError::VersionMismatch {
                found: 1
            }))
        ));
    }

    #[test]
    fn truncated_shard_is_a_clean_error() {
        let points: Vec<Point> = (0..10).map(|i| Point::new(vec![i as f64])).collect();
        let path = tmp("truncated.kca");
        write_shard(&path, &points).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(matches!(
            read_shard_set(&path),
            Err(ShardError::Decode(DecodeError::Truncated))
        ));
    }

    #[test]
    fn missing_shard_is_an_io_error() {
        assert!(matches!(
            read_shard_set(Path::new("/nonexistent/shard.kca")),
            Err(ShardError::Io(_))
        ));
    }

    #[test]
    fn coreset_artifact_round_trip() {
        let points: Vec<Point> = (0..4).map(|i| Point::new(vec![i as f64, 2.0])).collect();
        let weights = vec![1u64, 5, 2, 9];
        let path = tmp("coreset.kca");
        write_artifact_atomic(&path, &codec::encode_coreset(&points, &weights)).unwrap();
        let (p, w) = read_coreset_artifact(&path).unwrap();
        assert_eq!(p, points);
        assert_eq!(w, weights);
        // A truncated artifact is a decode error, never a panic.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        assert!(matches!(
            read_coreset_artifact(&path),
            Err(ShardError::Decode(_))
        ));
    }
}
