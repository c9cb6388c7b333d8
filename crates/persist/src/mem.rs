//! The one `unsafe` corner of the persistence stack: read-only file
//! mappings and in-place reinterpretation of validated snapshot spans.
//!
//! Everything outside this module stays `#![deny(unsafe_code)]`; the
//! scoped allow below mirrors the workspace's `simd.rs` policy — all
//! unsafety lives behind a handful of small functions whose contracts
//! are enforced at runtime where possible (alignment, length) and by
//! the open-time validation pipeline where not (UTF-8).
//!
//! ## Safety argument
//!
//! * **Mapping lifetime** — a [`Mapping`] owns its `mmap(2)` region and
//!   unmaps in `Drop`; every byte slice handed out borrows `&self`, so
//!   the borrow checker pins the region for as long as any view exists.
//! * **Read-only, private** — regions are mapped `PROT_READ` +
//!   `MAP_PRIVATE`: nothing in this process can write through the
//!   mapping, and other processes' writes to the file are not required
//!   to be visible. Snapshot files are write-once by contract (the
//!   writer creates them in full before serving ever opens them); a
//!   process that truncates a snapshot while it is mapped can still
//!   induce `SIGBUS` on access — documented in `DESIGN.md`, and the
//!   reason atomic rename-into-place is the only supported way to
//!   replace a live snapshot (the way the crate's `save_*` functions
//!   write).
//! * **Alignment** — the flat format (v2 onwards) pads every `u64`/`f64` array to an
//!   8-byte boundary *relative to the file start*, and both backing
//!   stores are 8-aligned (mappings are page-aligned; the owned
//!   fallback buffer is a `Vec<u64>`), so the cast functions' runtime
//!   alignment assertions can only fire on a logic bug, never on a
//!   hostile file.
//! * **Endianness** — spans are reinterpreted, not decoded, so the
//!   zero-copy path requires a little-endian host; [`check_little_endian`]
//!   turns a big-endian host into a typed error before any cast runs
//!   (the copying `decode_*` loaders remain fully portable).

#![allow(unsafe_code)]

use std::path::Path;

use vantage_core::{Result, VantageError};

/// Raw `mmap(2)`/`munmap(2)` bindings — only what a read-only private
/// file mapping needs, so no libc crate dependency.
#[cfg(unix)]
mod sys {
    use std::ffi::c_void;

    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;

    pub fn map_failed() -> *mut c_void {
        usize::MAX as *mut c_void
    }

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }
}

/// An owned read-only private mapping of a whole file.
#[cfg(unix)]
#[derive(Debug)]
pub(crate) struct Mapping {
    ptr: std::ptr::NonNull<u8>,
    len: usize,
}

// SAFETY: the region is immutable for its whole lifetime (PROT_READ |
// MAP_PRIVATE, never remapped), so shared references from any thread
// observe the same frozen bytes.
#[cfg(unix)]
unsafe impl Send for Mapping {}
#[cfg(unix)]
unsafe impl Sync for Mapping {}

#[cfg(unix)]
impl Mapping {
    /// Maps `len` bytes of `file` read-only, or `None` when the kernel
    /// declines (callers fall back to reading the file into memory).
    fn map(file: &std::fs::File, len: usize) -> Option<Mapping> {
        use std::os::unix::io::AsRawFd;
        // SAFETY: a fresh anonymous address is requested (addr = null),
        // the fd is open for reading and outlives the call, and the
        // result is checked before use.
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
        if ptr == sys::map_failed() {
            return None;
        }
        std::ptr::NonNull::new(ptr.cast::<u8>()).map(|ptr| Mapping { ptr, len })
    }

    fn bytes(&self) -> &[u8] {
        // SAFETY: ptr/len describe a live mapping owned by self; the
        // returned borrow keeps self (and so the mapping) alive.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

#[cfg(unix)]
impl Drop for Mapping {
    fn drop(&mut self) {
        // SAFETY: exactly the region mmap returned; after this the
        // NonNull is never dereferenced again (self is being dropped).
        unsafe {
            sys::munmap(self.ptr.as_ptr().cast(), self.len);
        }
    }
}

/// Backing bytes of an open snapshot: a file mapping when the platform
/// grants one, otherwise an owned 8-aligned buffer with identical
/// semantics (so every caller above this line is storage-agnostic).
#[derive(Debug)]
pub(crate) enum Storage {
    /// `mmap(2)`-backed — the zero-copy path.
    #[cfg(unix)]
    Mapped(Mapping),
    /// Owned fallback: file contents in a `Vec<u64>` (for 8-byte
    /// alignment) plus the real byte length.
    Owned(Vec<u64>, usize),
}

impl Storage {
    /// Opens `path`, preferring a read-only mapping and falling back to
    /// an in-memory copy (empty files, exotic filesystems, non-unix).
    pub(crate) fn open(path: &Path) -> Result<Storage> {
        let io_err =
            |e: std::io::Error| VantageError::io(path.display().to_string(), e.to_string());
        let file = std::fs::File::open(path).map_err(io_err)?;
        let len = usize::try_from(file.metadata().map_err(io_err)?.len()).map_err(|_| {
            VantageError::io(path.display().to_string(), "file exceeds address space")
        })?;
        #[cfg(unix)]
        if len > 0 {
            if let Some(m) = Mapping::map(&file, len) {
                return Ok(Storage::Mapped(m));
            }
        }
        Storage::read_owned(file, len, path)
    }

    fn read_owned(mut file: std::fs::File, len: usize, path: &Path) -> Result<Storage> {
        use std::io::Read;
        let mut buf = Vec::with_capacity(len.min(1 << 30));
        file.read_to_end(&mut buf)
            .map_err(|e| VantageError::io(path.display().to_string(), e.to_string()))?;
        let mut words = vec![0u64; buf.len().div_ceil(8)];
        for (word, chunk) in words.iter_mut().zip(buf.chunks(8)) {
            let mut b = [0u8; 8];
            b[..chunk.len()].copy_from_slice(chunk);
            *word = u64::from_ne_bytes(b);
        }
        Ok(Storage::Owned(words, buf.len()))
    }

    /// The snapshot bytes, whatever the backing store.
    pub(crate) fn bytes(&self) -> &[u8] {
        match self {
            #[cfg(unix)]
            Storage::Mapped(m) => m.bytes(),
            // SAFETY: a u64 buffer is always valid to view as bytes
            // (alignment 8 ≥ 1, no padding, no invalid bit patterns);
            // len never exceeds words.len() × 8 by construction.
            Storage::Owned(words, len) => unsafe {
                std::slice::from_raw_parts(words.as_ptr().cast::<u8>(), *len)
            },
        }
    }

    /// Whether this storage is an actual file mapping (vs the owned
    /// read fallback) — surfaced by serve as the `layout=` label.
    pub(crate) fn is_mapped(&self) -> bool {
        match self {
            #[cfg(unix)]
            Storage::Mapped(_) => true,
            Storage::Owned(..) => false,
        }
    }
}

/// Fails typed on big-endian hosts, where in-place reinterpretation of
/// the little-endian wire format would read garbage.
pub(crate) fn check_little_endian() -> Result<()> {
    if cfg!(target_endian = "little") {
        Ok(())
    } else {
        Err(VantageError::invalid_parameter(
            "host endianness",
            "zero-copy snapshot mapping requires a little-endian host; \
             use the materializing load_*/decode_* loaders instead",
        ))
    }
}

macro_rules! cast_fn {
    ($name:ident, $ty:ty, $width:literal) => {
        /// Reinterprets a validated span in place. The layout parser
        /// guarantees size and alignment; the assertions make a logic
        /// bug loud instead of undefined.
        pub(crate) fn $name(bytes: &[u8]) -> &[$ty] {
            assert!(
                bytes.len() % $width == 0 && bytes.as_ptr() as usize % $width == 0,
                concat!(
                    "snapshot span is not a whole aligned ",
                    stringify!($ty),
                    " array"
                ),
            );
            // SAFETY: length and alignment asserted above; the target
            // types accept every bit pattern; the borrow ties the
            // result to the backing storage.
            unsafe {
                std::slice::from_raw_parts(bytes.as_ptr().cast::<$ty>(), bytes.len() / $width)
            }
        }
    };
}

cast_fn!(u32s, u32, 4);
cast_fn!(u64s, u64, 8);
cast_fn!(f64s, f64, 8);

/// Views snapshot text without re-scanning it.
///
/// # Contract
///
/// `bytes` must be the exact data region that passed whole-buffer UTF-8
/// validation at open time (`FlatItems::check`); snapshot storage is
/// immutable afterwards, so the validation cannot go stale.
pub(crate) fn str_validated(bytes: &[u8]) -> &str {
    debug_assert!(std::str::from_utf8(bytes).is_ok());
    // SAFETY: validated at open over immutable storage; see contract.
    unsafe { std::str::from_utf8_unchecked(bytes) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owned_fallback_round_trips_any_length() {
        for len in [0usize, 1, 7, 8, 9, 4096, 4097] {
            let path =
                std::env::temp_dir().join(format!("vantage-mem-{}-{len}.bin", std::process::id()));
            let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            std::fs::write(&path, &data).unwrap();
            let file = std::fs::File::open(&path).unwrap();
            let owned = Storage::read_owned(file, len, &path).unwrap();
            assert_eq!(owned.bytes(), &data[..]);
            assert!(!owned.is_mapped());
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn mapped_storage_matches_the_file() {
        let path = std::env::temp_dir().join(format!("vantage-mem-map-{}.bin", std::process::id()));
        let data: Vec<u8> = (0..10_000u32).flat_map(|i| i.to_le_bytes()).collect();
        std::fs::write(&path, &data).unwrap();
        let storage = Storage::open(&path).unwrap();
        assert_eq!(storage.bytes(), &data[..]);
        if cfg!(unix) {
            assert!(storage.is_mapped());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn casts_reinterpret_little_endian_spans() {
        let words: Vec<u64> = vec![0x0102_0304_0506_0708, u64::MAX, 0];
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        // Route through an 8-aligned owned buffer like real storage.
        let mut aligned = [0u64; 3];
        for (w, chunk) in aligned.iter_mut().zip(bytes.chunks(8)) {
            *w = u64::from_ne_bytes(chunk.try_into().unwrap());
        }
        let view =
            unsafe { std::slice::from_raw_parts(aligned.as_ptr().cast::<u8>(), bytes.len()) };
        if cfg!(target_endian = "little") {
            assert_eq!(u64s(view), &words[..]);
            assert_eq!(u32s(&view[..8]), &[0x0506_0708, 0x0102_0304]);
        }
    }
}
