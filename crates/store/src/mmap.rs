//! Read-only memory mapping for zero-copy shard loads (Linux,
//! little-endian).
//!
//! A shard read through `fs::read` pays two copies: the byte buffer, then
//! an element-wise decode into owned points. The store's codec lays every
//! `f64` block out contiguously at an 8-byte-aligned offset in
//! little-endian bit patterns, so on a little-endian machine a
//! page-aligned mapping of a shard entry *is* its coordinate block: after
//! header and checksum validation the executor's workers view the mapping
//! as a [`PointSet`] ([`PointSet::try_from_shared`]) and both copies
//! disappear.
//!
//! The binding calls `mmap`/`munmap` through the C runtime directly (the
//! workspace vendors no external crates); everything is gated to Linux and
//! falls back to `read` + decode elsewhere — or on *any* mapping failure.
//!
//! Safety against concurrent store activity: entries are only ever replaced
//! by `rename` (a new inode) and removed by `unlink`, and a mapping keeps
//! its inode alive, so a mapped entry can never be truncated or rewritten
//! under the reader — the `SIGBUS` hazard of mapping mutable files does not
//! apply to this store's discipline.
//!
//! [`PointSet`]: kcenter_metric::PointSet
//! [`PointSet::try_from_shared`]: kcenter_metric::PointSet::try_from_shared

use std::fs::File;
use std::io;
use std::os::fd::AsRawFd;
use std::path::Path;

use kcenter_metric::StableF64s;

mod sys {
    use core::ffi::{c_int, c_void};

    pub const PROT_READ: c_int = 1;
    pub const MAP_PRIVATE: c_int = 2;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }
}

/// A private, read-only memory mapping of an entire file.
pub struct MappedFile {
    ptr: *mut core::ffi::c_void,
    len: usize,
}

// SAFETY: the mapping is read-only and owned exclusively by this value;
// sharing immutable views across threads cannot race.
unsafe impl Send for MappedFile {}
unsafe impl Sync for MappedFile {}

impl MappedFile {
    /// Maps `path` read-only in its entirety.
    pub fn open(path: &Path) -> io::Result<MappedFile> {
        let file = File::open(path)?;
        let len = usize::try_from(file.metadata()?.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "file too large to map"))?;
        if len == 0 {
            // Zero-length mmap is EINVAL; an empty file can never hold a
            // valid artifact anyway.
            return Err(io::Error::new(io::ErrorKind::InvalidData, "empty file"));
        }
        // SAFETY: a fresh private read-only mapping of a file we opened;
        // length and fd are valid, and the result is checked below.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        Ok(MappedFile { ptr, len })
    }

    /// The mapped bytes.
    pub fn bytes(&self) -> &[u8] {
        // SAFETY: `ptr` is a live PROT_READ mapping of exactly `len` bytes,
        // backed by an inode that rename/unlink cannot shrink (see module
        // docs), so every byte stays readable for the mapping's lifetime.
        unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
    }
}

impl Drop for MappedFile {
    fn drop(&mut self) {
        // SAFETY: unmapping the exact region this value mapped.
        unsafe {
            let _ = sys::munmap(self.ptr, self.len);
        }
    }
}

/// A validated `f64` block inside a [`MappedFile`]: the stable buffer a
/// [`kcenter_metric::PointSet`] can view without copying.
pub struct MappedF64s {
    map: MappedFile,
    /// Byte offset of the block; checked 8-aligned at construction.
    offset: usize,
    /// Number of `f64` values in the block.
    count: usize,
}

impl MappedF64s {
    /// Views `count` `f64`s at byte `offset` of `map`.
    ///
    /// Returns `None` (caller falls back to the decode path) unless the
    /// block lies within the mapping and is 8-byte aligned — `mmap` returns
    /// page-aligned bases, so alignment reduces to the offset, but the
    /// check keeps the unsafe view locally justified.
    pub fn new(map: MappedFile, offset: usize, count: usize) -> Option<MappedF64s> {
        let bytes = count.checked_mul(8)?;
        let end = offset.checked_add(bytes)?;
        if end > map.bytes().len()
            || !offset.is_multiple_of(8)
            || !(map.ptr as usize).is_multiple_of(8)
        {
            return None;
        }
        Some(MappedF64s { map, offset, count })
    }
}

// SAFETY: the mapping is immutable, address-stable for the value's
// lifetime, and bounds/alignment were validated in `new`; every call views
// the same block.
unsafe impl StableF64s for MappedF64s {
    fn stable_f64s(&self) -> &[f64] {
        // SAFETY: offset/count validated in `new`; on a little-endian
        // target (this module's cfg gate) the stored little-endian bit
        // patterns are `f64`s verbatim.
        unsafe {
            std::slice::from_raw_parts(
                self.map.bytes().as_ptr().add(self.offset) as *const f64,
                self.count,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("kcenter-store-mmap");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    #[test]
    fn maps_a_file_and_reads_back_bytes() {
        let path = tmp("roundtrip");
        std::fs::write(&path, [1u8, 2, 3, 4, 5]).unwrap();
        let map = MappedFile::open(&path).unwrap();
        assert_eq!(map.bytes(), &[1, 2, 3, 4, 5]);
    }

    #[test]
    fn empty_and_missing_files_error_cleanly() {
        let path = tmp("empty");
        std::fs::write(&path, b"").unwrap();
        assert!(MappedFile::open(&path).is_err());
        assert!(MappedFile::open(Path::new("/nonexistent/nowhere.kca")).is_err());
    }

    #[test]
    fn mapping_survives_unlink() {
        let path = tmp("unlinked");
        std::fs::write(&path, 7.25f64.to_le_bytes()).unwrap();
        let map = MappedFile::open(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let f64s = MappedF64s::new(map, 0, 1).unwrap();
        assert_eq!(f64s.stable_f64s(), &[7.25]);
    }

    #[test]
    fn f64_view_rejects_bad_bounds_and_alignment() {
        let path = tmp("bounds");
        let mut bytes = Vec::new();
        for v in [1.0f64, 2.0, 3.0] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        std::fs::write(&path, &bytes).unwrap();
        assert!(MappedF64s::new(MappedFile::open(&path).unwrap(), 0, 4).is_none());
        assert!(MappedF64s::new(MappedFile::open(&path).unwrap(), 4, 1).is_none());
        assert!(MappedF64s::new(MappedFile::open(&path).unwrap(), usize::MAX, 1).is_none());
        let ok = MappedF64s::new(MappedFile::open(&path).unwrap(), 8, 2).unwrap();
        assert_eq!(ok.stable_f64s(), &[2.0, 3.0]);
    }
}
