//! # vantage-persist
//!
//! Versioned, checksummed on-disk snapshots for the workspace's index
//! structures — build once, query many times.
//!
//! Building a vp- or mvp-tree is the expensive step: `O(n log n)` metric
//! evaluations, each potentially costly (edit distance, image metrics).
//! The tree that comes out is a pure function of `(items, params, seed)`
//! and is immutable afterwards, which makes it an ideal persistence
//! target: a snapshot stores the items, the construction parameters and
//! the exact node arena, so a reload answers every query **bit-identically**
//! to the freshly built tree — same neighbors, same distance counts,
//! same pruning traces — without recomputing a single construction
//! distance.
//!
//! ## Format
//!
//! A snapshot is a single file (see the [`format`](mod@format) module
//! docs for the exact byte layout):
//!
//! * a header carrying magic bytes, a format version, the index kind,
//!   the item encoding, the metric identifier, the item count and an
//!   FNV-1a digest of the dataset payload — sealed by its own CRC-32;
//! * three CRC-32-checked sections: construction params, items (for
//!   vp- and mvp-trees in the tree's row order, leaf entries first, so
//!   a leaf scan reads one contiguous block), node structure.
//!
//! ## Integrity
//!
//! Loading validates everything **before** an index is returned: magic
//! and version, both checksum layers, every declared length against the
//! bytes actually present, the recorded construction params, and
//! finally the full structural invariants of the node arena
//! (`validate_arena`). Every tree load — [`open_vp_tree`] over a file
//! mapping, [`decode_vp_tree`] over an owned copy of in-memory bytes —
//! runs this one pipeline and returns the same handle type. Any failure
//! — truncation, a single flipped bit, a fabricated length, an unknown
//! enum tag — yields a typed [`VantageError`], never a panic and never
//! an oversized allocation. The fault-injection suites in `tests/`
//! drive exactly these cases.
//!
//! Snapshot arrays are little-endian and are reinterpreted in place, so
//! every load path returns a typed error on a big-endian host.
//!
//! ```
//! use vantage_core::prelude::*;
//! use vantage_persist::{self as persist, F64Vectors};
//! use vantage_vptree::{VpTree, VpTreeParams};
//!
//! let points: Vec<Vec<f64>> = (0..100).map(|i| vec![f64::from(i)]).collect();
//! let tree = VpTree::build(points, Euclidean, VpTreeParams::binary().seed(7)).unwrap();
//!
//! let bytes = persist::encode_vp_tree(&tree);
//! let again = persist::decode_vp_tree::<F64Vectors, Euclidean>(&bytes).unwrap();
//! assert_eq!(again.view().range(&[50.0], 1.5), tree.range(&vec![50.0], 1.5));
//!
//! let info = persist::inspect_bytes(&bytes).unwrap();
//! assert_eq!(info.kind, persist::IndexKind::VpTree);
//! assert_eq!(info.items, 100);
//! ```

// Unsafety is denied crate-wide and re-allowed in exactly one place:
// the `mem` module's mapping/cast primitives (same scoped policy as
// vantage-core's `simd.rs`). Everything else, including all parsing of
// untrusted bytes, is safe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod check;
pub mod codec;
pub mod format;
pub mod mapped;
pub mod wire;

mod layout;
mod mem;
mod trees;

use std::path::Path;

use vantage_core::{LinearScan, Result, VantageError};
use vantage_mvptree::MvpTree;
use vantage_vptree::VpTree;

pub use codec::{ItemCodec, MetricTag};
pub use format::{IndexKind, FORMAT_VERSION, MAGIC};
pub use mapped::{
    decode_linear_scan, decode_mvp_tree, decode_vp_tree, open_mvp_tree, open_vp_tree, F64Vectors,
    FlatItems, MappedMvpTree, MappedVpTree, Utf8Strings,
};
pub use trees::{encode_linear_scan, encode_mvp_tree, encode_vp_tree};

/// Header metadata of a verified snapshot, as reported by [`inspect`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// Container format version the file was written with.
    pub version: u32,
    /// Index structure held by the snapshot.
    pub kind: IndexKind,
    /// Item encoding name (e.g. `f64-vector`, `utf8-string`).
    pub item: String,
    /// Metric identifier (e.g. `l2`, `edit`).
    pub metric: String,
    /// Number of indexed items.
    pub items: u64,
    /// FNV-1a 64 digest of the dataset payload.
    pub digest: u64,
    /// Total snapshot size in bytes.
    pub bytes: u64,
}

/// Parses and integrity-checks a snapshot byte buffer without loading
/// the index, returning its header metadata. All checksums and the
/// section framing are verified — an `inspect`ed snapshot is structurally
/// sound at the container level (the params and tree-level invariants
/// are only checked by the typed `open_*`/`decode_*` loaders).
///
/// # Errors
///
/// The same typed errors as the loaders' container stage.
pub fn inspect_bytes(bytes: &[u8]) -> Result<SnapshotInfo> {
    let c = format::parse(bytes)?;
    Ok(SnapshotInfo {
        version: c.version,
        kind: c.kind,
        item: trees::item_tag_name(c.item_tag),
        metric: c.metric,
        items: c.count,
        digest: c.digest,
        bytes: bytes.len() as u64,
    })
}

/// Header metadata of a snapshot file — **O(header), not O(file)**.
///
/// Reads only the bounded header span (a few dozen bytes plus the
/// metric id) and the file's length from its metadata, so inspecting a
/// multi-GB snapshot costs one small read. The header's own CRC-32 is
/// verified; the section payloads are *not* touched — full container
/// verification is [`inspect_bytes`]' or the `open_*`/`decode_*`
/// loaders' job.
///
/// # Errors
///
/// [`VantageError::Io`] when the file cannot be opened or read;
/// [`VantageError::CorruptSnapshot`] on short files (a truncated
/// header), bad magic or a failed header CRC;
/// [`VantageError::UnsupportedSnapshot`] for other format versions.
pub fn inspect(path: impl AsRef<Path>) -> Result<SnapshotInfo> {
    use std::io::Read;
    let path = path.as_ref();
    let io_err = |e: std::io::Error| VantageError::io(path.display().to_string(), e.to_string());
    let file = std::fs::File::open(path).map_err(io_err)?;
    let total = file.metadata().map_err(io_err)?.len();
    let mut head = Vec::new();
    file.take(format::HEADER_MAX as u64)
        .read_to_end(&mut head)
        .map_err(io_err)?;
    let h = format::parse_header(&head)?;
    Ok(SnapshotInfo {
        version: h.version,
        kind: h.kind,
        item: trees::item_tag_name(h.item_tag),
        metric: h.metric,
        items: h.count,
        digest: h.digest,
        bytes: total,
    })
}

/// Replaces the file at `path` with `bytes` atomically: writes a
/// temporary file in the same directory, fsyncs it, renames it over
/// `path`, then fsyncs the directory so the rename is durable too. A
/// process that has the old snapshot mapped keeps reading the old
/// inode, so saving over a live snapshot cannot shrink the file under
/// its mapping (an in-place rewrite kills it with SIGBUS). The
/// temporary file is removed on any error.
fn write_file(path: &Path, bytes: &[u8]) -> Result<()> {
    use std::io::Write;
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);

    let io_err = |e: std::io::Error| VantageError::io(path.display().to_string(), e.to_string());
    let name = path
        .file_name()
        .ok_or_else(|| io_err(std::io::ErrorKind::InvalidInput.into()))?;
    let mut tmp_name = std::ffi::OsString::from(".");
    tmp_name.push(name);
    tmp_name.push(format!(
        ".{}.{}.tmp",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = path.with_file_name(tmp_name);
    let written = std::fs::File::create(&tmp).and_then(|mut file| {
        file.write_all(bytes)?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)
    });
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written.map_err(io_err)?;
    // Only unix can open a directory as a file to fsync it; elsewhere
    // the rename's durability is left to the OS.
    #[cfg(unix)]
    {
        let dir = match path.parent() {
            Some(dir) if !dir.as_os_str().is_empty() => dir,
            _ => Path::new("."),
        };
        std::fs::File::open(dir)
            .and_then(|dir| dir.sync_all())
            .map_err(io_err)?;
    }
    Ok(())
}

/// Saves a vp-tree snapshot to `path`, returning the bytes written.
///
/// # Errors
///
/// [`VantageError::Io`] when the file cannot be written.
pub fn save_vp_tree<T: ItemCodec, M: MetricTag>(
    tree: &VpTree<T, M>,
    path: impl AsRef<Path>,
) -> Result<u64> {
    let bytes = encode_vp_tree(tree);
    write_file(path.as_ref(), &bytes)?;
    Ok(bytes.len() as u64)
}

/// Saves an mvp-tree snapshot to `path`, returning the bytes written.
///
/// # Errors
///
/// [`VantageError::Io`] when the file cannot be written.
pub fn save_mvp_tree<T: ItemCodec, M: MetricTag>(
    tree: &MvpTree<T, M>,
    path: impl AsRef<Path>,
) -> Result<u64> {
    let bytes = encode_mvp_tree(tree);
    write_file(path.as_ref(), &bytes)?;
    Ok(bytes.len() as u64)
}

/// Saves a linear-scan snapshot to `path`, returning the bytes written.
///
/// # Errors
///
/// [`VantageError::Io`] when the file cannot be written.
pub fn save_linear_scan<T: ItemCodec, M: MetricTag>(
    scan: &LinearScan<T, M>,
    path: impl AsRef<Path>,
) -> Result<u64> {
    let bytes = encode_linear_scan(scan);
    write_file(path.as_ref(), &bytes)?;
    Ok(bytes.len() as u64)
}

/// Loads (and fully validates) a linear-scan snapshot from `path`,
/// copying its items out as [`decode_linear_scan`] does.
///
/// # Errors
///
/// [`VantageError::Io`] when the file cannot be read, otherwise as
/// [`decode_linear_scan`].
pub fn load_linear_scan<K, M>(
    path: impl AsRef<Path>,
) -> Result<LinearScan<<K::Item as ToOwned>::Owned, M>>
where
    K: FlatItems,
    K::Item: ToOwned,
    M: MetricTag,
{
    mapped::linear_from_storage::<K, M>(mem::Storage::open(path.as_ref())?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vantage_core::prelude::*;
    use vantage_vptree::VpTreeParams;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("vantage-persist-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn save_load_inspect_file_round_trip() {
        let points: Vec<Vec<f64>> = (0..80).map(|i| vec![f64::from(i), 0.5]).collect();
        let tree = VpTree::build(points, Euclidean, VpTreeParams::binary().seed(3)).unwrap();
        let path = temp_path("roundtrip.vsnap");
        let written = save_vp_tree(&tree, &path).unwrap();

        let info = inspect(&path).unwrap();
        assert_eq!(info.version, FORMAT_VERSION);
        assert_eq!(info.kind, IndexKind::VpTree);
        assert_eq!(info.item, "f64-vector");
        assert_eq!(info.metric, "l2");
        assert_eq!(info.items, 80);
        assert_eq!(info.bytes, written);

        let back = open_vp_tree::<F64Vectors, Euclidean>(&path).unwrap();
        assert_eq!(back.params(), tree.params());
        assert_eq!(back.root(), tree.root());
        assert_eq!(back.arena().leaf_items(), tree.arena().leaf_items());
        assert!((0..80).map(|id| back.item(id)).eq(tree.items_by_id()));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_over_a_mapped_snapshot_leaves_the_mapping_intact() {
        use vantage_mvptree::MvpParams;
        let points = |n: u32| -> Vec<Vec<f64>> {
            (0..n)
                .map(|i| vec![f64::from(i % 19), f64::from(i % 7)])
                .collect()
        };
        let old =
            MvpTree::build(points(400), Euclidean, MvpParams::paper(3, 9, 4).seed(1)).unwrap();
        let path = temp_path("live.vsnap");
        save_mvp_tree(&old, &path).unwrap();
        let mapped = open_mvp_tree::<F64Vectors, Euclidean>(&path).unwrap();
        #[cfg(unix)]
        assert!(mapped.is_mapped());
        let queries = [vec![3.0, 2.0], vec![18.0, 0.5]];
        type Answers = Vec<(Vec<Neighbor>, Vec<Neighbor>)>;
        fn answers(tree: &MappedMvpTree<F64Vectors, Euclidean>, queries: &[Vec<f64>]) -> Answers {
            let view = tree.view();
            queries
                .iter()
                .map(|q| (view.knn(q.as_slice(), 7), view.range(q.as_slice(), 3.0)))
                .collect()
        }
        let before = answers(&mapped, &queries);

        // A smaller tree: an in-place rewrite would shrink the file
        // under the live mapping.
        let new = MvpTree::build(points(60), Euclidean, MvpParams::paper(2, 4, 2).seed(2)).unwrap();
        save_mvp_tree(&new, &path).unwrap();

        assert_eq!(answers(&mapped, &queries), before);
        let fresh = open_mvp_tree::<F64Vectors, Euclidean>(&path).unwrap();
        assert_eq!(fresh.len(), 60);
        assert_eq!(
            answers(&fresh, &queries),
            queries
                .iter()
                .map(|q| (new.knn(q, 7), new.range(q, 3.0)))
                .collect::<Vec<_>>()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn failed_save_leaves_no_temporary_file() {
        let dir = temp_path("save-into-dir");
        std::fs::create_dir_all(&dir).unwrap();
        let tree = VpTree::build(vec![vec![1.0]], Euclidean, VpTreeParams::binary()).unwrap();
        // Renaming a file over a directory fails after the temporary
        // file was written.
        let target = std::path::Path::new(&dir).join("occupied");
        std::fs::create_dir_all(&target).unwrap();
        let err = save_vp_tree(&tree, &target).unwrap_err();
        assert!(matches!(err, VantageError::Io { .. }), "{err}");
        let left: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert_eq!(left.len(), 1, "only the occupied directory remains");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = open_vp_tree::<F64Vectors, Euclidean>("/nonexistent/vantage.vsnap").unwrap_err();
        assert!(matches!(err, VantageError::Io { .. }), "{err}");
        let err = inspect("/nonexistent/vantage.vsnap").unwrap_err();
        assert!(matches!(err, VantageError::Io { .. }), "{err}");
    }

    #[test]
    fn non_snapshot_file_is_corrupt_not_panic() {
        let path = temp_path("garbage.vsnap");
        std::fs::write(&path, b"this is not a snapshot at all").unwrap();
        let err = inspect(&path).unwrap_err();
        assert!(matches!(err, VantageError::CorruptSnapshot { .. }), "{err}");
        std::fs::remove_file(&path).ok();
    }
}
