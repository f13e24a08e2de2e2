//! The compact binary codec behind the artifact store.
//!
//! Every artifact file is a fixed 32-byte header followed by a payload:
//!
//! ```text
//! offset  size  field
//! 0       8     magic     b"KCARTC01"
//! 8       4     version   u32 LE — CODEC_VERSION, bumped on any layout change
//! 12      4     kind      u32 LE — ArtifactKind discriminant
//! 16      8     len       u64 LE — payload byte length
//! 24      8     checksum  u64 LE — fingerprint::checksum64 of the payload
//! 32      len   payload
//! ```
//!
//! Version 2 checksums the payload with XXH64 ([`checksum64`]), which reads
//! a 64-bit word at a time, four independent lanes over 32-byte blocks:
//! validating a multi-megabyte shard costs about as much as reading it.
//! Entries older builds wrote (version 1, byte-at-a-time FNV-1a
//! checksums) are clean [`DecodeError::VersionMismatch`] misses; the
//! store's entry names changed with the word-wise
//! [`kcenter_metric::Fingerprint`] at the same version. Encoders write
//! the payload straight after a reserved header slot and fill the header
//! in place, so no payload is copied twice.
//!
//! All multi-byte values are little-endian; `f64`s travel as raw bit
//! patterns (`to_bits`/`from_bits`), so decoding reproduces every value —
//! including `-0.0` and subnormals — **bitwise**. That is load-bearing: a
//! worker must rebuild exactly the partition the coordinator carved out,
//! and a restored session or a cached solution must be bitwise the one
//! that was stored.
//!
//! Decoding is total: any malformed input (truncation, flipped bytes,
//! version or kind mismatch, inconsistent element counts) yields a
//! [`DecodeError`], never a panic. The store maps every error to a clean
//! cache miss.

use std::borrow::Borrow;

use kcenter_metric::fingerprint::checksum64;
use kcenter_metric::Point;

/// File magic: identifies k-center artifact cache entries.
pub const MAGIC: [u8; 8] = *b"KCARTC01";

/// Codec format version. Bump on **any** incompatible change to the header
/// or a payload layout; old entries then decode to a clean miss and are
/// transparently re-derived and overwritten.
pub const CODEC_VERSION: u32 = 2;

/// Size of the fixed header preceding every payload.
pub const HEADER_LEN: usize = 32;

/// What an artifact file contains.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArtifactKind {
    /// A condensed distance matrix, as older builds persisted them. This
    /// build has no matrix encoder or decoder; the kind keeps its tag and
    /// name only so that `kcenter cache stat/prune/clear` still count and
    /// remove the `matrix-*.kca` entries such builds left behind.
    Matrix,
    /// A weighted coreset: points plus proxy weights.
    Coreset,
    /// A solved clustering: centers plus the solved radius/accounting.
    Solution,
    /// A point shard: one MapReduce partition's unweighted input points,
    /// the multi-process executor's on-disk interchange format.
    Shard,
    /// A streaming session: one tenant/stream's resumable doubling-coreset
    /// state (centers, weights, `ϕ`, processed count) — the serve layer's
    /// evict/restore interchange format.
    Session,
}

impl ArtifactKind {
    /// All kinds, for store statistics.
    pub const ALL: [ArtifactKind; 5] = [
        ArtifactKind::Matrix,
        ArtifactKind::Coreset,
        ArtifactKind::Solution,
        ArtifactKind::Shard,
        ArtifactKind::Session,
    ];

    /// Stable on-disk discriminant.
    pub fn tag(self) -> u32 {
        match self {
            ArtifactKind::Matrix => 1,
            ArtifactKind::Coreset => 2,
            ArtifactKind::Solution => 3,
            ArtifactKind::Shard => 4,
            ArtifactKind::Session => 5,
        }
    }

    /// File-name prefix (also the human-readable name in `cache stat`).
    pub fn name(self) -> &'static str {
        match self {
            ArtifactKind::Matrix => "matrix",
            ArtifactKind::Coreset => "coreset",
            ArtifactKind::Solution => "solution",
            ArtifactKind::Shard => "shard",
            ArtifactKind::Session => "session",
        }
    }

    fn from_tag(tag: u32) -> Option<ArtifactKind> {
        ArtifactKind::ALL.into_iter().find(|k| k.tag() == tag)
    }
}

/// Why a decode was rejected. Every variant is a *clean miss* from the
/// store's perspective; the distinctions exist for tests and diagnostics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// Input shorter than the fixed header, or payload shorter than the
    /// header's declared length.
    Truncated,
    /// Magic bytes did not match [`MAGIC`].
    BadMagic,
    /// Header version differs from [`CODEC_VERSION`].
    VersionMismatch {
        /// The version found in the file.
        found: u32,
    },
    /// The entry holds a different [`ArtifactKind`] than requested.
    KindMismatch,
    /// Payload checksum did not match the header.
    ChecksumMismatch,
    /// Payload structure inconsistent (bad element counts, trailing bytes,
    /// or values the target type rejects, e.g. non-finite coordinates).
    Malformed,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "truncated artifact"),
            DecodeError::BadMagic => write!(f, "not a k-center artifact (bad magic)"),
            DecodeError::VersionMismatch { found } => {
                write!(f, "codec version {found} != {CODEC_VERSION}")
            }
            DecodeError::KindMismatch => write!(f, "artifact kind mismatch"),
            DecodeError::ChecksumMismatch => write!(f, "payload checksum mismatch"),
            DecodeError::Malformed => write!(f, "malformed payload"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// A solved clustering as the store persists it: the concrete artifact
/// behind `radius_search::CoresetSolution` / CLI results.
#[derive(Clone, Debug, PartialEq)]
pub struct StoredSolution {
    /// The selected centers.
    pub centers: Vec<Point>,
    /// The solved radius (coreset `r̃min` or measured objective, per the
    /// producer's convention).
    pub radius: f64,
    /// Weight left uncovered at `radius` (0 when not applicable).
    pub uncovered_weight: u64,
    /// `OutliersCluster` evaluations the original solve performed.
    pub evaluations: u64,
}

// ---------------------------------------------------------------------------
// Primitive writers/readers
// ---------------------------------------------------------------------------

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Sequential payload reader; all failures collapse to `Malformed` (the
/// checksum has already vouched for the bytes, so a structural error means
/// a codec bug or a forged checksum — either way, a miss).
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        let end = self.pos.checked_add(8).ok_or(DecodeError::Malformed)?;
        let bytes = self.buf.get(self.pos..end).ok_or(DecodeError::Malformed)?;
        self.pos = end;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8-byte slice")))
    }

    fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn len(&mut self) -> Result<usize, DecodeError> {
        usize::try_from(self.u64()?).map_err(|_| DecodeError::Malformed)
    }

    fn finish(&self) -> Result<(), DecodeError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(DecodeError::Malformed)
        }
    }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// A buffer holding a zeroed header slot, with room for `payload` more
/// bytes: encoders append their payload and [`seal`] it.
fn unsealed(payload: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload);
    out.resize(HEADER_LEN, 0);
    out
}

/// Fills the header slot of an [`unsealed`] buffer in place.
fn seal(kind: ArtifactKind, mut out: Vec<u8>) -> Vec<u8> {
    let payload = &out[HEADER_LEN..];
    let len = payload.len() as u64;
    let checksum = checksum64(payload);
    out[0..8].copy_from_slice(&MAGIC);
    out[8..12].copy_from_slice(&CODEC_VERSION.to_le_bytes());
    out[12..16].copy_from_slice(&kind.tag().to_le_bytes());
    out[16..24].copy_from_slice(&len.to_le_bytes());
    out[24..32].copy_from_slice(&checksum.to_le_bytes());
    out
}

/// Validates the header and checksum, returning the payload slice.
fn unframe(kind: ArtifactKind, bytes: &[u8]) -> Result<&[u8], DecodeError> {
    if bytes.len() < HEADER_LEN {
        return Err(DecodeError::Truncated);
    }
    if bytes[0..8] != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != CODEC_VERSION {
        return Err(DecodeError::VersionMismatch { found: version });
    }
    let tag = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes"));
    if ArtifactKind::from_tag(tag) != Some(kind) {
        return Err(DecodeError::KindMismatch);
    }
    let len = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes"));
    let payload = &bytes[HEADER_LEN..];
    if u64::try_from(payload.len()) != Ok(len) {
        // Shorter *or* longer than declared: either way the file is not
        // what the writer produced.
        return Err(DecodeError::Truncated);
    }
    let expected = u64::from_le_bytes(bytes[24..32].try_into().expect("8 bytes"));
    if checksum64(payload) != expected {
        return Err(DecodeError::ChecksumMismatch);
    }
    Ok(payload)
}

// ---------------------------------------------------------------------------
// Weighted coreset
// ---------------------------------------------------------------------------

/// Encodes a weighted coreset as parallel points/weights arrays.
///
/// # Panics
///
/// Panics if `points` and `weights` lengths differ, or the points are not
/// all of one dimension — both are structural invariants of every coreset
/// in the workspace.
pub fn encode_coreset(points: &[Point], weights: &[u64]) -> Vec<u8> {
    assert_eq!(
        points.len(),
        weights.len(),
        "weights misaligned with points"
    );
    let dim = points.first().map_or(0, Point::dim);
    let mut out = unsealed(16 + points.len() * (8 * dim + 8));
    put_u64(&mut out, points.len() as u64);
    put_u64(&mut out, dim as u64);
    for (p, &w) in points.iter().zip(weights) {
        assert_eq!(p.dim(), dim, "mixed-dimension coreset");
        for &c in p.coords() {
            put_f64(&mut out, c);
        }
        put_u64(&mut out, w);
    }
    seal(ArtifactKind::Coreset, out)
}

/// Decodes a weighted coreset. Coordinates are validated through
/// [`Point::try_new`], so a forged payload of non-finite values is a
/// [`DecodeError::Malformed`] miss, not a downstream panic.
pub fn decode_coreset(bytes: &[u8]) -> Result<(Vec<Point>, Vec<u64>), DecodeError> {
    let payload = unframe(ArtifactKind::Coreset, bytes)?;
    let mut r = Reader::new(payload);
    let n = r.len()?;
    let dim = r.len()?;
    if n > 0 && dim == 0 {
        return Err(DecodeError::Malformed);
    }
    let per_point = dim.checked_mul(8).and_then(|b| b.checked_add(8));
    let body = n.checked_mul(per_point.ok_or(DecodeError::Malformed)?);
    if Some(payload.len()) != body.and_then(|b| b.checked_add(16)) {
        return Err(DecodeError::Malformed);
    }
    let mut points = Vec::with_capacity(n);
    let mut weights = Vec::with_capacity(n);
    for _ in 0..n {
        let mut coords = Vec::with_capacity(dim);
        for _ in 0..dim {
            coords.push(r.f64()?);
        }
        points.push(Point::try_new(coords).map_err(|_| DecodeError::Malformed)?);
        weights.push(r.u64()?);
    }
    r.finish()?;
    Ok((points, weights))
}

// ---------------------------------------------------------------------------
// Point shard
// ---------------------------------------------------------------------------

/// Fully validated layout of a shard entry: point count, dimension, and the
/// byte offset of the coordinate block — everything a mapped reader needs
/// to walk the coordinates in place.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardLayout {
    /// Number of points in the shard.
    pub n: usize,
    /// Dimension of every point.
    pub dim: usize,
    /// Byte offset of the first coordinate within the whole entry; always
    /// 8-byte aligned (header + two `u64` prefixes), so a page-aligned
    /// mapping can reinterpret the coordinate block as `&[f64]`.
    pub coords_offset: usize,
}

/// Encodes a point shard — one MapReduce partition's input points — as a
/// framed, checksummed entry whose coordinate block is a single contiguous
/// 8-byte-aligned run of `f64` bit patterns (mmap-friendly).
///
/// Takes owned or borrowed points, so a partition of references into the
/// caller's dataset encodes without copying it first.
///
/// # Panics
///
/// Panics on mixed-dimension points (a structural invariant of every
/// dataset in the workspace).
pub fn encode_shard<P: Borrow<Point>>(points: &[P]) -> Vec<u8> {
    let dim = points.first().map_or(0, |p| p.borrow().dim());
    let mut out = unsealed(16 + points.len() * 8 * dim);
    put_u64(&mut out, points.len() as u64);
    put_u64(&mut out, dim as u64);
    for p in points {
        let p = p.borrow();
        assert_eq!(p.dim(), dim, "mixed-dimension shard");
        for &c in p.coords() {
            put_f64(&mut out, c);
        }
    }
    seal(ArtifactKind::Shard, out)
}

/// Validates a shard entry — framing, checksum, count consistency —
/// without materializing the points.
///
/// The checksum vouches for the *bytes*, not for the values: a zero-copy
/// reader that views the coordinate block in place must still reject
/// non-finite coordinates (the invariant [`Point::try_new`] enforces), as
/// `PointSet::try_from_shared` does, so a forged entry is a miss and never
/// NaN-poisoned distances.
pub fn validate_shard(bytes: &[u8]) -> Result<ShardLayout, DecodeError> {
    let payload = unframe(ArtifactKind::Shard, bytes)?;
    let mut r = Reader::new(payload);
    let n = r.len()?;
    let dim = r.len()?;
    if n > 0 && dim == 0 {
        return Err(DecodeError::Malformed);
    }
    let coords = n
        .checked_mul(dim)
        .and_then(|c| c.checked_mul(8))
        .ok_or(DecodeError::Malformed)?;
    if payload.len() != 16 + coords {
        return Err(DecodeError::Malformed);
    }
    Ok(ShardLayout {
        n,
        dim,
        coords_offset: HEADER_LEN + 16,
    })
}

/// Decodes a point shard. Coordinates are validated through
/// [`Point::try_new`], so a forged payload of non-finite values is a
/// [`DecodeError::Malformed`] miss, not a downstream panic.
pub fn decode_shard(bytes: &[u8]) -> Result<Vec<Point>, DecodeError> {
    let layout = validate_shard(bytes)?;
    let mut r = Reader::new(&bytes[layout.coords_offset..]);
    let mut points = Vec::with_capacity(layout.n);
    for _ in 0..layout.n {
        let mut coords = Vec::with_capacity(layout.dim);
        for _ in 0..layout.dim {
            coords.push(r.f64()?);
        }
        points.push(Point::try_new(coords).map_err(|_| DecodeError::Malformed)?);
    }
    r.finish()?;
    Ok(points)
}

// ---------------------------------------------------------------------------
// Solution
// ---------------------------------------------------------------------------

/// Encodes a [`StoredSolution`].
///
/// # Panics
///
/// Panics on mixed-dimension centers (a structural invariant of every
/// solution in the workspace).
pub fn encode_solution(solution: &StoredSolution) -> Vec<u8> {
    let dim = solution.centers.first().map_or(0, Point::dim);
    let mut out = unsealed(40 + solution.centers.len() * 8 * dim);
    put_u64(&mut out, solution.centers.len() as u64);
    put_u64(&mut out, dim as u64);
    for p in &solution.centers {
        assert_eq!(p.dim(), dim, "mixed-dimension centers");
        for &c in p.coords() {
            put_f64(&mut out, c);
        }
    }
    put_f64(&mut out, solution.radius);
    put_u64(&mut out, solution.uncovered_weight);
    put_u64(&mut out, solution.evaluations);
    seal(ArtifactKind::Solution, out)
}

/// Decodes a [`StoredSolution`], bitwise-equal on the radius and every
/// center coordinate.
pub fn decode_solution(bytes: &[u8]) -> Result<StoredSolution, DecodeError> {
    let payload = unframe(ArtifactKind::Solution, bytes)?;
    let mut r = Reader::new(payload);
    let n = r.len()?;
    let dim = r.len()?;
    if n > 0 && dim == 0 {
        return Err(DecodeError::Malformed);
    }
    let body = n.checked_mul(dim.checked_mul(8).ok_or(DecodeError::Malformed)?);
    if Some(payload.len()) != body.and_then(|b| b.checked_add(16 + 24)) {
        return Err(DecodeError::Malformed);
    }
    let mut centers = Vec::with_capacity(n);
    for _ in 0..n {
        let mut coords = Vec::with_capacity(dim);
        for _ in 0..dim {
            coords.push(r.f64()?);
        }
        centers.push(Point::try_new(coords).map_err(|_| DecodeError::Malformed)?);
    }
    let radius = r.f64()?;
    if radius.is_nan() {
        return Err(DecodeError::Malformed);
    }
    let uncovered_weight = r.u64()?;
    let evaluations = r.u64()?;
    r.finish()?;
    Ok(StoredSolution {
        centers,
        radius,
        uncovered_weight,
        evaluations,
    })
}

// ---------------------------------------------------------------------------
// Streaming session
// ---------------------------------------------------------------------------

/// A streaming session as the store persists it: the resumable state of
/// one tenant/stream's `WeightedDoublingCoreset`, plus the budget `τ` it
/// was built with (a restore under a different `τ` must be rejected, not
/// silently re-interpreted).
#[derive(Clone, Debug, PartialEq)]
pub struct StoredSession {
    /// The coreset budget `τ` the session was created with.
    pub tau: u64,
    /// Whether the `τ + 1`-point initialization has completed.
    pub initialized: bool,
    /// The lower bound `ϕ` at snapshot time.
    pub phi: f64,
    /// Total stream items processed at snapshot time.
    pub processed: u64,
    /// The centers (buffered points when not yet initialized).
    pub centers: Vec<Point>,
    /// Weights aligned with `centers`.
    pub weights: Vec<u64>,
}

/// Encodes a [`StoredSession`] (framed, checksummed, `f64`s as raw bits).
///
/// # Panics
///
/// Panics if `centers` and `weights` lengths differ or the centers are not
/// all of one dimension — structural invariants of every live session.
pub fn encode_session(session: &StoredSession) -> Vec<u8> {
    assert_eq!(
        session.centers.len(),
        session.weights.len(),
        "weights misaligned with centers"
    );
    let dim = session.centers.first().map_or(0, Point::dim);
    let mut out = unsealed(48 + session.centers.len() * (8 * dim + 8));
    put_u64(&mut out, session.centers.len() as u64);
    put_u64(&mut out, dim as u64);
    put_u64(&mut out, session.tau);
    put_u64(&mut out, u64::from(session.initialized));
    put_f64(&mut out, session.phi);
    put_u64(&mut out, session.processed);
    for (p, &w) in session.centers.iter().zip(&session.weights) {
        assert_eq!(p.dim(), dim, "mixed-dimension session");
        for &c in p.coords() {
            put_f64(&mut out, c);
        }
        put_u64(&mut out, w);
    }
    seal(ArtifactKind::Session, out)
}

/// Decodes a [`StoredSession`], bitwise-equal on `ϕ` and every coordinate.
///
/// Decoding is total: truncation, flipped bytes, inconsistent counts, a
/// non-`{0,1}` initialized flag, a non-finite or negative `ϕ`, or forged
/// non-finite coordinates all yield a clean [`DecodeError`]. Algorithmic
/// invariants beyond structure (weight accounting, center separation) are
/// the restore path's job — `WeightedDoublingCoreset::from_snapshot` gates
/// them.
pub fn decode_session(bytes: &[u8]) -> Result<StoredSession, DecodeError> {
    let payload = unframe(ArtifactKind::Session, bytes)?;
    let mut r = Reader::new(payload);
    let n = r.len()?;
    let dim = r.len()?;
    if n > 0 && dim == 0 {
        return Err(DecodeError::Malformed);
    }
    let tau = r.u64()?;
    if tau == 0 {
        return Err(DecodeError::Malformed);
    }
    let initialized = match r.u64()? {
        0 => false,
        1 => true,
        _ => return Err(DecodeError::Malformed),
    };
    let phi = r.f64()?;
    if !phi.is_finite() || phi < 0.0 {
        return Err(DecodeError::Malformed);
    }
    let processed = r.u64()?;
    let per_point = dim.checked_mul(8).and_then(|b| b.checked_add(8));
    let body = n.checked_mul(per_point.ok_or(DecodeError::Malformed)?);
    if Some(payload.len()) != body.and_then(|b| b.checked_add(48)) {
        return Err(DecodeError::Malformed);
    }
    let mut centers = Vec::with_capacity(n);
    let mut weights = Vec::with_capacity(n);
    for _ in 0..n {
        let mut coords = Vec::with_capacity(dim);
        for _ in 0..dim {
            coords.push(r.f64()?);
        }
        centers.push(Point::try_new(coords).map_err(|_| DecodeError::Malformed)?);
        weights.push(r.u64()?);
    }
    r.finish()?;
    Ok(StoredSession {
        tau,
        initialized,
        phi,
        processed,
        centers,
        weights,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Frames a hand-built payload, valid checksum included.
    fn frame(kind: ArtifactKind, payload: Vec<u8>) -> Vec<u8> {
        let mut out = unsealed(payload.len());
        out.extend_from_slice(&payload);
        seal(kind, out)
    }

    fn pts(coords: &[&[f64]]) -> Vec<Point> {
        coords.iter().map(|c| Point::new(c.to_vec())).collect()
    }

    #[test]
    fn coreset_round_trip() {
        let points = pts(&[&[1.0, 2.0], &[-0.0, 4.5], &[1e-12, -3.0]]);
        let weights = vec![3u64, u64::MAX, 1];
        let bytes = encode_coreset(&points, &weights);
        let (p2, w2) = decode_coreset(&bytes).expect("round trip");
        assert_eq!(w2, weights);
        assert_eq!(p2.len(), points.len());
        for (a, b) in p2.iter().zip(&points) {
            for (ca, cb) in a.coords().iter().zip(b.coords()) {
                assert_eq!(ca.to_bits(), cb.to_bits());
            }
        }
    }

    #[test]
    fn solution_round_trip() {
        let s = StoredSolution {
            centers: pts(&[&[0.5, 1.5], &[2.5, -3.5]]),
            radius: 17.25,
            uncovered_weight: 42,
            evaluations: 13,
        };
        let back = decode_solution(&encode_solution(&s)).expect("round trip");
        assert_eq!(back, s);
    }

    /// A small coreset entry: the vehicle of the framing tests below,
    /// which hold for every kind.
    fn sample_coreset() -> Vec<u8> {
        encode_coreset(&pts(&[&[0.0], &[1.0], &[5.0]]), &[1, 2, 3])
    }

    #[test]
    fn truncation_is_a_clean_error_at_every_length() {
        let bytes = sample_coreset();
        for cut in 0..bytes.len() {
            let err = decode_coreset(&bytes[..cut]).expect_err("truncated must fail");
            assert!(
                matches!(err, DecodeError::Truncated),
                "cut at {cut}: {err:?}"
            );
        }
        assert!(decode_coreset(&bytes).is_ok());
    }

    #[test]
    fn extended_file_is_rejected() {
        let mut bytes = sample_coreset();
        bytes.push(0);
        assert_eq!(decode_coreset(&bytes), Err(DecodeError::Truncated));
    }

    #[test]
    fn payload_corruption_fails_the_checksum() {
        let mut bytes = sample_coreset();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert_eq!(decode_coreset(&bytes), Err(DecodeError::ChecksumMismatch));
    }

    #[test]
    fn version_and_magic_mismatches_are_detected() {
        let good = sample_coreset();

        let mut wrong_version = good.clone();
        wrong_version[8] = CODEC_VERSION as u8 + 1;
        assert_eq!(
            decode_coreset(&wrong_version),
            Err(DecodeError::VersionMismatch {
                found: CODEC_VERSION + 1
            })
        );

        let mut wrong_magic = good.clone();
        wrong_magic[0] = b'X';
        assert_eq!(decode_coreset(&wrong_magic), Err(DecodeError::BadMagic));
    }

    #[test]
    fn kind_confusion_is_detected() {
        let coreset = sample_coreset();
        assert_eq!(decode_shard(&coreset), Err(DecodeError::KindMismatch));
        assert_eq!(decode_solution(&coreset), Err(DecodeError::KindMismatch));
        let shard = encode_shard(&pts(&[&[1.0]]));
        assert_eq!(decode_coreset(&shard), Err(DecodeError::KindMismatch));
        // A matrix entry an older build wrote decodes as nothing else.
        let matrix = frame(ArtifactKind::Matrix, 0u64.to_le_bytes().to_vec());
        assert_eq!(decode_coreset(&matrix), Err(DecodeError::KindMismatch));
        assert_eq!(decode_solution(&matrix), Err(DecodeError::KindMismatch));
        assert_eq!(decode_shard(&matrix), Err(DecodeError::KindMismatch));
        assert_eq!(decode_session(&matrix), Err(DecodeError::KindMismatch));
    }

    #[test]
    fn shard_round_trip_is_bitwise() {
        let points = pts(&[&[1.0, -0.0], &[1e-300, 2.5], &[0.1 + 0.2, -7.0]]);
        let bytes = encode_shard(&points);
        let back = decode_shard(&bytes).expect("round trip");
        assert_eq!(back.len(), points.len());
        for (a, b) in back.iter().zip(&points) {
            for (ca, cb) in a.coords().iter().zip(b.coords()) {
                assert_eq!(ca.to_bits(), cb.to_bits());
            }
        }
        // Empty shard round-trips too (an empty partition writes no points).
        assert_eq!(
            decode_shard(&encode_shard::<Point>(&[])).unwrap(),
            Vec::<Point>::new()
        );
    }

    #[test]
    fn shard_layout_is_aligned_and_consistent() {
        let points = pts(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let bytes = encode_shard(&points);
        let layout = validate_shard(&bytes).unwrap();
        assert_eq!(
            layout,
            ShardLayout {
                n: 2,
                dim: 2,
                coords_offset: 48
            }
        );
        assert_eq!(layout.coords_offset % 8, 0);
        assert_eq!(
            bytes.len(),
            layout.coords_offset + 8 * layout.n * layout.dim
        );
    }

    #[test]
    fn shard_truncation_and_corruption_are_clean_errors() {
        let bytes = encode_shard(&pts(&[&[0.5], &[1.5], &[9.0]]));
        for cut in 0..bytes.len() {
            assert!(decode_shard(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        assert_eq!(decode_shard(&flipped), Err(DecodeError::ChecksumMismatch));
        // Forged checksum over a non-finite coordinate: Malformed, no panic.
        let mut payload = Vec::new();
        put_u64(&mut payload, 1);
        put_u64(&mut payload, 1);
        put_f64(&mut payload, f64::NAN);
        let forged = frame(ArtifactKind::Shard, payload);
        assert_eq!(decode_shard(&forged), Err(DecodeError::Malformed));
        // n > 0 with dim = 0 is structurally impossible.
        let mut payload = Vec::new();
        put_u64(&mut payload, 3);
        put_u64(&mut payload, 0);
        let forged = frame(ArtifactKind::Shard, payload);
        assert_eq!(decode_shard(&forged), Err(DecodeError::Malformed));
    }

    #[test]
    fn forged_checksum_over_nonfinite_coords_is_malformed_not_a_panic() {
        // Hand-build a coreset payload with an infinite coordinate and a
        // *valid* checksum: Point::try_new must reject it cleanly.
        let mut payload = Vec::new();
        put_u64(&mut payload, 1); // n
        put_u64(&mut payload, 1); // dim
        put_f64(&mut payload, f64::INFINITY);
        put_u64(&mut payload, 1); // weight
        let bytes = frame(ArtifactKind::Coreset, payload);
        assert_eq!(decode_coreset(&bytes), Err(DecodeError::Malformed));
    }

    fn sample_session() -> StoredSession {
        StoredSession {
            tau: 4,
            initialized: true,
            phi: 0.1 + 0.2, // not exactly 0.3 — bit pattern must survive
            processed: 19,
            centers: pts(&[&[1.0, -0.0], &[1e-300, 2.5], &[f64::MAX, -7.0]]),
            weights: vec![7, 11, 1],
        }
    }

    #[test]
    fn session_round_trip_is_bitwise() {
        let s = sample_session();
        let back = decode_session(&encode_session(&s)).expect("round trip");
        assert_eq!(back.tau, s.tau);
        assert_eq!(back.initialized, s.initialized);
        assert_eq!(back.phi.to_bits(), s.phi.to_bits());
        assert_eq!(back.processed, s.processed);
        assert_eq!(back.weights, s.weights);
        for (a, b) in back.centers.iter().zip(&s.centers) {
            for (ca, cb) in a.coords().iter().zip(b.coords()) {
                assert_eq!(ca.to_bits(), cb.to_bits());
            }
        }
        // An uninitialized (pure buffer) session round-trips too.
        let buffered = StoredSession {
            tau: 8,
            initialized: false,
            phi: 0.0,
            processed: 2,
            centers: pts(&[&[1.0], &[2.0]]),
            weights: vec![1, 1],
        };
        assert_eq!(
            decode_session(&encode_session(&buffered)).unwrap(),
            buffered
        );
    }

    #[test]
    fn session_truncation_is_a_clean_error_at_every_length() {
        let bytes = encode_session(&sample_session());
        for cut in 0..bytes.len() {
            assert!(decode_session(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        assert!(decode_session(&bytes).is_ok());
    }

    #[test]
    fn session_byte_flip_fails_the_checksum() {
        let good = encode_session(&sample_session());
        // Flip one bit at a time through the payload: every flip must be a
        // checksum mismatch, never a panic or a silent success.
        for pos in HEADER_LEN..good.len() {
            let mut bytes = good.clone();
            bytes[pos] ^= 0x01;
            assert_eq!(
                decode_session(&bytes),
                Err(DecodeError::ChecksumMismatch),
                "flip at {pos}"
            );
        }
    }

    #[test]
    fn session_forged_payloads_are_malformed() {
        // Non-finite phi behind a valid checksum.
        let mut forged = sample_session();
        forged.phi = f64::NAN;
        // encode_session writes raw bits, so the frame checksums fine; the
        // decoder must still reject the value.
        assert_eq!(
            decode_session(&encode_session(&forged)),
            Err(DecodeError::Malformed)
        );
        // Non-finite coordinate.
        let mut payload = Vec::new();
        put_u64(&mut payload, 1); // n
        put_u64(&mut payload, 1); // dim
        put_u64(&mut payload, 4); // tau
        put_u64(&mut payload, 1); // initialized
        put_f64(&mut payload, 0.5); // phi
        put_u64(&mut payload, 3); // processed
        put_f64(&mut payload, f64::INFINITY);
        put_u64(&mut payload, 3); // weight
        assert_eq!(
            decode_session(&frame(ArtifactKind::Session, payload.clone())),
            Err(DecodeError::Malformed)
        );
        // A zero tau can never have produced a session.
        let mut zero_tau = payload.clone();
        zero_tau[16..24].copy_from_slice(&0u64.to_le_bytes());
        assert_eq!(
            decode_session(&frame(ArtifactKind::Session, zero_tau)),
            Err(DecodeError::Malformed)
        );
        // An initialized flag outside {0, 1}.
        let mut bad_flag = payload;
        bad_flag[24..32].copy_from_slice(&2u64.to_le_bytes());
        assert_eq!(
            decode_session(&frame(ArtifactKind::Session, bad_flag)),
            Err(DecodeError::Malformed)
        );
    }

    #[test]
    fn session_kind_confusion_is_detected() {
        let session = encode_session(&sample_session());
        assert_eq!(decode_coreset(&session), Err(DecodeError::KindMismatch));
        assert_eq!(decode_shard(&session), Err(DecodeError::KindMismatch));
        let coreset = encode_coreset(&pts(&[&[1.0]]), &[1]);
        assert_eq!(decode_session(&coreset), Err(DecodeError::KindMismatch));
    }

    #[test]
    fn inconsistent_counts_are_malformed() {
        // Declare n = 100 points of dimension 1 but supply one.
        let mut payload = Vec::new();
        put_u64(&mut payload, 100);
        put_u64(&mut payload, 1);
        put_f64(&mut payload, 1.0);
        put_u64(&mut payload, 1); // its weight
        let bytes = frame(ArtifactKind::Coreset, payload.clone());
        assert_eq!(decode_coreset(&bytes), Err(DecodeError::Malformed));
        payload.truncate(24);
        let bytes = frame(ArtifactKind::Shard, payload);
        assert_eq!(decode_shard(&bytes), Err(DecodeError::Malformed));
    }
}
