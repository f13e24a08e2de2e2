//! Deterministic 128-bit fingerprints for cache keys and checksums.
//!
//! The persistent artifact store (`kcenter-store`) addresses entries by a
//! fingerprint of their *inputs* — a shard's point coordinates, a CLI run's
//! input and parameters, a session's key — so that two runs deriving the
//! same artifact read one cache entry, and any parameter change lands on a
//! different key.
//! The hash therefore has to be
//!
//! * **deterministic across processes and platforms** (no `RandomState`,
//!   no pointer-derived seeds): coordinates are folded in as little-endian
//!   `f64::to_bits`, integers as little-endian fixed-width words;
//! * **order-sensitive**: a shard's points are indexed by position, so
//!   `[a, b]` and `[b, a]` must fingerprint differently;
//! * cheap relative to the work it saves, and cheap next to reading the
//!   bytes at all: the executor fingerprints every shard it dispatches and
//!   checksums every shard it reuses, megabytes per job.
//!
//! Both kernels work a 64-bit word at a time with the multiply–rotate
//! rounds of xxHash64:
//!
//! * [`checksum64`] *is* XXH64 with seed 0: four independent lanes over
//!   32-byte blocks (so the multiplies of one block overlap), then the
//!   0–31-byte tail word by word and byte by byte, then the avalanche.
//! * [`Fingerprint`] folds each `u64`/`f64` as one word into two lanes
//!   that run *different* rounds over it — lane A the XXH64 block round,
//!   lane B the XXH64 tail-word step — so the lanes stay decorrelated;
//!   each is finished with the length and an avalanche into one half of
//!   the 128-bit key.
//!
//! Collision resistance is the cache-grade kind, not the cryptographic
//! kind: 128 bits of well-mixed state are more than enough for millions
//! of distinct artifacts. Do not use this for security decisions.
//!
//! Every value either kernel produces is part of the on-disk format (file
//! names and header checksums), so the known-answer tests below pin them:
//! changing a kernel needs a `CODEC_VERSION` bump in `kcenter-store`.

const PRIME_1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME_3: u64 = 0x1656_67B1_9E37_79F9;
const PRIME_4: u64 = 0x85EB_CA77_C2B2_AE63;
const PRIME_5: u64 = 0x27D4_EB2F_1656_67C5;

/// The XXH64 lane round: one input word into one accumulator.
#[inline(always)]
fn round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(PRIME_2))
        .rotate_left(31)
        .wrapping_mul(PRIME_1)
}

/// The XXH64 sequential word step (its loop over the tail's 8-byte
/// words): one input word into a running hash.
#[inline(always)]
fn merge_word(hash: u64, word: u64) -> u64 {
    (hash ^ round(0, word))
        .rotate_left(27)
        .wrapping_mul(PRIME_1)
        .wrapping_add(PRIME_4)
}

/// The XXH64 avalanche: every input bit reaches every output bit.
#[inline]
fn avalanche(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(PRIME_2);
    h ^= h >> 29;
    h = h.wrapping_mul(PRIME_3);
    h ^ (h >> 32)
}

#[inline(always)]
fn word_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8-byte word"))
}

/// Streaming 128-bit fingerprint builder: two lanes with different
/// word rounds over the same little-endian 64-bit words.
#[derive(Clone, Debug)]
pub struct Fingerprint {
    lane_a: u64,
    lane_b: u64,
    /// Words folded so far.
    words: u64,
}

impl Default for Fingerprint {
    fn default() -> Self {
        Self::new()
    }
}

impl Fingerprint {
    /// A fresh fingerprint builder.
    pub fn new() -> Self {
        Fingerprint {
            lane_a: PRIME_1.wrapping_add(PRIME_2),
            lane_b: PRIME_5,
            words: 0,
        }
    }

    /// A builder seeded with a domain label, so fingerprints of different
    /// artifact families (matrices, coresets, solutions, …) cannot collide
    /// by folding in identical payloads.
    pub fn with_domain(domain: &str) -> Self {
        let mut fp = Fingerprint::new();
        fp.write_str(domain);
        fp
    }

    /// Folds a `u64` as one word.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.lane_a = round(self.lane_a, v);
        self.lane_b = merge_word(self.lane_b, v);
        self.words = self.words.wrapping_add(1);
    }

    /// Folds a `usize` as a 64-bit word (platform-independent width).
    #[inline]
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Folds an `f64` by bit pattern — bit-exact, so `-0.0` and `0.0` (or
    /// two NaN payloads) fingerprint differently, matching the bitwise
    /// round-trip guarantee of the store's codec.
    #[inline]
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Folds a string with a length prefix (so `"ab" + "c"` and
    /// `"a" + "bc"` differ): its bytes as little-endian words, the last
    /// one zero-padded.
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        let mut words = s.as_bytes().chunks_exact(8);
        for word in words.by_ref() {
            self.write_u64(word_at(word, 0));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut last = [0u8; 8];
            last[..tail.len()].copy_from_slice(tail);
            self.write_u64(u64::from_le_bytes(last));
        }
    }

    /// Folds a slice of `f64` coordinates with a length prefix.
    #[inline]
    pub fn write_f64s(&mut self, vs: &[f64]) {
        self.write_usize(vs.len());
        for &v in vs {
            self.write_f64(v);
        }
    }

    /// The 128-bit fingerprint of everything written so far.
    pub fn finish(&self) -> u128 {
        let hi = avalanche(self.lane_a.wrapping_add(self.words));
        let lo = avalanche(self.lane_b ^ self.words.rotate_left(32));
        (u128::from(hi) << 64) | u128::from(lo)
    }
}

/// XXH64 (seed 0) of `bytes`: the store codec's payload checksum.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let len = bytes.len();
    let mut blocks = bytes.chunks_exact(32);
    let mut hash = if len >= 32 {
        let mut lanes = [
            PRIME_1.wrapping_add(PRIME_2),
            PRIME_2,
            0,
            PRIME_1.wrapping_neg(),
        ];
        for block in blocks.by_ref() {
            for (i, lane) in lanes.iter_mut().enumerate() {
                *lane = round(*lane, word_at(block, 8 * i));
            }
        }
        let [a, b, c, d] = lanes;
        let mut hash = a
            .rotate_left(1)
            .wrapping_add(b.rotate_left(7))
            .wrapping_add(c.rotate_left(12))
            .wrapping_add(d.rotate_left(18));
        for lane in lanes {
            hash = (hash ^ round(0, lane))
                .wrapping_mul(PRIME_1)
                .wrapping_add(PRIME_4);
        }
        hash
    } else {
        PRIME_5
    };
    hash = hash.wrapping_add(len as u64);

    let tail = blocks.remainder();
    let mut words = tail.chunks_exact(8);
    for word in words.by_ref() {
        hash = merge_word(hash, word_at(word, 0));
    }
    let mut rest = words.remainder();
    if rest.len() >= 4 {
        let half = u32::from_le_bytes(rest[..4].try_into().expect("4-byte half word"));
        hash = (hash ^ u64::from(half).wrapping_mul(PRIME_1))
            .rotate_left(23)
            .wrapping_mul(PRIME_2)
            .wrapping_add(PRIME_3);
        rest = &rest[4..];
    }
    for &byte in rest {
        hash = (hash ^ u64::from(byte).wrapping_mul(PRIME_5))
            .rotate_left(11)
            .wrapping_mul(PRIME_1);
    }
    avalanche(hash)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_builders() {
        let mut a = Fingerprint::with_domain("test");
        let mut b = Fingerprint::with_domain("test");
        for fp in [&mut a, &mut b] {
            fp.write_f64s(&[1.0, -0.0, 3.5]);
            fp.write_u64(42);
            fp.write_str("euclidean");
        }
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn order_and_domain_sensitive() {
        let mut a = Fingerprint::with_domain("d");
        a.write_f64s(&[1.0, 2.0]);
        let mut b = Fingerprint::with_domain("d");
        b.write_f64s(&[2.0, 1.0]);
        assert_ne!(a.finish(), b.finish());

        let mut c = Fingerprint::with_domain("other");
        c.write_f64s(&[1.0, 2.0]);
        assert_ne!(a.finish(), c.finish());
    }

    #[test]
    fn bit_exact_on_signed_zero_and_nan() {
        let mut pos = Fingerprint::new();
        pos.write_f64(0.0);
        let mut neg = Fingerprint::new();
        neg.write_f64(-0.0);
        assert_ne!(pos.finish(), neg.finish());
    }

    #[test]
    fn length_prefix_separates_concatenations() {
        let mut a = Fingerprint::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Fingerprint::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
        // Strings fold as zero-padded words: only the prefix tells a
        // trailing NUL from the padding.
        let mut c = Fingerprint::new();
        c.write_str("ab");
        let mut d = Fingerprint::new();
        d.write_str("ab\0");
        assert_ne!(c.finish(), d.finish());
    }

    #[test]
    fn lanes_are_not_mirrors() {
        // The two 64-bit halves must not be equal functions of the input.
        let mut fp = Fingerprint::new();
        fp.write_u64(7);
        let v = fp.finish();
        assert_ne!((v >> 64) as u64, v as u64);
    }

    #[test]
    fn checksum_detects_flips() {
        let data = b"hello world, this is a payload";
        let base = checksum64(data);
        let mut flipped = data.to_vec();
        flipped[3] ^= 0x40;
        assert_ne!(base, checksum64(&flipped));
        assert_eq!(base, checksum64(data));
    }

    /// Known answers. Both kernels' outputs are on disk — checksums in
    /// every artifact header, fingerprints in every entry's file name —
    /// so changing any of these values needs a `CODEC_VERSION` bump in
    /// `kcenter-store` (old entries then read as clean misses).
    #[test]
    fn checksum_known_answers() {
        // Published XXH64 (seed 0) vectors: empty, and short tails.
        assert_eq!(checksum64(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(checksum64(b"a"), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(checksum64(b"abc"), 0x44BC_2CF5_AD77_0999);
        // One 32-byte block plus every tail path (8-byte word, 4-byte
        // half word, single bytes): bytes 0, 1, …, 46.
        let ramp: Vec<u8> = (0..47).collect();
        assert_eq!(checksum64(&ramp), 0x0D98_83A0_3E7B_FBB8);
    }

    #[test]
    fn fingerprint_known_answers() {
        assert_eq!(
            Fingerprint::new().finish(),
            0xC610_7730_C166_2C77_EF46_DB37_51D8_E999
        );
        let mut fp = Fingerprint::with_domain("kcenter-exec/shard/v1");
        fp.write_usize(2);
        fp.write_f64s(&[1.0, -0.0]);
        fp.write_f64s(&[f64::MAX, 5e-324]);
        assert_eq!(fp.finish(), 0xE0D4_0A0C_8332_BA06_CCB5_470F_5D36_A64E);
    }
}
