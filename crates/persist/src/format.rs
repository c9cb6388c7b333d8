//! The snapshot container format: header, section framing, checksums.
//!
//! ```text
//! ┌────────────────────────────── header ──────────────────────────────┐
//! │ magic "VNTGSNAP" (8) │ version u32 │ kind u8 │ item u8             │
//! │ metric id: len u16 + utf-8 bytes                                   │
//! │ item count u64 │ dataset digest u64 (FNV-1a of items payload)      │
//! │ header CRC-32 u32 (over every preceding header byte)               │
//! ├────────────────────────────── sections ────────────────────────────┤
//! │ 3 × [ id u8 │ payload len u64 │ payload │ payload CRC-32 u32 ]     │
//! │     in fixed order: params (1), items (2), structure (3)           │
//! └──────────────────────── exact EOF, no trailer ─────────────────────┘
//! ```
//!
//! All integers are little-endian; `f64`s are IEEE-754 bit patterns.
//! Every length is validated against the bytes actually present before
//! any allocation, every section carries its own CRC, and the header CRC
//! covers the metadata itself — so truncation, bit flips and fabricated
//! lengths all surface as typed [`VantageError`]s.
//!
//! Version 3 (the only version this build reads or writes) lays the
//! items and structure payloads out as flat, 8-byte-aligned arrays so a
//! memory map of the file can be served directly — see
//! the `layout` module — and writes a tree's items section in the tree's
//! **row order**: leaf entries first, in the arena's leaf column order,
//! then the vantage points (`MvpArenaView::row_order`,
//! `VpArenaView::row_order`). Each leaf scan then reads one contiguous
//! block of the mapped items. The structure payload is the node arena,
//! byte-identical to version 2; the id→row table that resolves vantage
//! points and caller-facing ids is derived from it at load in one
//! O(n) pass and is not stored. Linear-scan snapshots keep id order.
//!
//! Payload-internal alignment is relative to the *file* start (each
//! payload pads its own front up to the next 8-byte file offset), which
//! is why `parse` reports each payload's absolute offset alongside its
//! bytes. Version 2 stored the same arrays with tree items in id order,
//! and version 1 stored pointer-rich per-node records; neither is
//! readable any more, and both report as unsupported.

use vantage_core::{Result, VantageError};

use crate::check::{crc32, fnv1a64};
use crate::wire::{Cursor, Out};

/// Magic bytes opening every snapshot file.
pub const MAGIC: &[u8; 8] = b"VNTGSNAP";
/// Newest container version this build writes and reads.
pub const FORMAT_VERSION: u32 = 3;

/// Upper bound on the header span in bytes: the fixed fields plus the
/// largest possible metric identifier. Reading this many bytes (or the
/// whole file, if shorter) is always enough to [`parse_header`].
pub(crate) const HEADER_MAX: usize = HEADER_FIXED + u16::MAX as usize;

/// Header bytes outside the variable-length metric id: magic (8) +
/// version (4) + kind (1) + item (1) + metric length (2) + count (8) +
/// digest (8) + header CRC (4).
const HEADER_FIXED: usize = 36;

/// Bytes of section framing around each payload: id (1) + length (8)
/// before, CRC-32 (4) after.
pub(crate) const SECTION_OVERHEAD: usize = 13;

/// Which index structure a snapshot holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// A [`vantage_vptree::VpTree`].
    VpTree,
    /// A [`vantage_mvptree::MvpTree`].
    MvpTree,
    /// A [`vantage_core::LinearScan`].
    Linear,
}

impl IndexKind {
    /// The kind's one-byte wire tag.
    pub fn tag(self) -> u8 {
        match self {
            IndexKind::VpTree => 1,
            IndexKind::MvpTree => 2,
            IndexKind::Linear => 3,
        }
    }

    /// Human-readable kind name (CLI `stats`, error messages).
    pub fn name(self) -> &'static str {
        match self {
            IndexKind::VpTree => "vp-tree",
            IndexKind::MvpTree => "mvp-tree",
            IndexKind::Linear => "linear",
        }
    }

    fn from_tag(tag: u8) -> Result<Self> {
        match tag {
            1 => Ok(IndexKind::VpTree),
            2 => Ok(IndexKind::MvpTree),
            3 => Ok(IndexKind::Linear),
            other => Err(VantageError::corrupt(format!(
                "unknown index kind tag {other}"
            ))),
        }
    }
}

/// Parsed and CRC-verified snapshot header.
#[derive(Debug)]
pub(crate) struct Header {
    /// Container version the file was written with.
    pub version: u32,
    /// Index structure held by the snapshot.
    pub kind: IndexKind,
    /// Item-encoding tag ([`crate::ItemCodec::TAG`]).
    pub item_tag: u8,
    /// Metric identifier ([`crate::MetricTag::TAG`]).
    pub metric: String,
    /// Number of indexed items.
    pub count: u64,
    /// FNV-1a 64 digest of the items payload.
    pub digest: u64,
    /// Total header length in bytes (CRC included) — the file offset of
    /// the first section descriptor.
    pub len: usize,
}

/// Parsed snapshot header plus the three verified section payloads.
#[derive(Debug)]
pub(crate) struct Container<'a> {
    /// Container version the file was written with.
    pub version: u32,
    /// Index structure held by the snapshot.
    pub kind: IndexKind,
    /// Item-encoding tag ([`crate::ItemCodec::TAG`]).
    pub item_tag: u8,
    /// Metric identifier ([`crate::MetricTag::TAG`]).
    pub metric: String,
    /// Number of indexed items.
    pub count: u64,
    /// FNV-1a 64 digest of the items payload.
    pub digest: u64,
    /// Params section payload (id 1).
    pub params: &'a [u8],
    /// Items section payload (id 2).
    pub items: &'a [u8],
    /// Structure section payload (id 3).
    pub structure: &'a [u8],
    /// Absolute file offset of the items payload (alignment base).
    pub items_off: usize,
    /// Absolute file offset of the structure payload (alignment base).
    pub structure_off: usize,
}

/// Section ids in their fixed file order.
const SECTION_IDS: [(u8, &str); 3] = [(1, "params"), (2, "items"), (3, "structure")];

/// The header length a metric id of `metric_len` bytes produces.
fn header_len(metric_len: usize) -> usize {
    HEADER_FIXED + metric_len
}

/// Absolute file offset of the items payload for the given header and
/// params-payload lengths — what [`crate::trees`] passes the item
/// encoder as its alignment base.
pub(crate) fn items_payload_offset(metric_len: usize, params_len: usize) -> usize {
    header_len(metric_len) + SECTION_OVERHEAD + params_len + 9
}

/// Absolute file offset of the structure payload, given the items
/// payload's offset and length.
pub(crate) fn structure_payload_offset(items_off: usize, items_len: usize) -> usize {
    items_off + items_len + 4 + 9
}

/// Assembles a complete snapshot from the three section payloads.
pub(crate) fn assemble(
    kind: IndexKind,
    item_tag: u8,
    metric: &str,
    count: u64,
    params: &[u8],
    items: &[u8],
    structure: &[u8],
) -> Vec<u8> {
    let mut out = Out::new();
    out.0.extend_from_slice(MAGIC);
    out.u32(FORMAT_VERSION);
    out.u8(kind.tag());
    out.u8(item_tag);
    let metric_bytes = metric.as_bytes();
    debug_assert!(metric_bytes.len() <= usize::from(u16::MAX));
    out.u16(metric_bytes.len() as u16);
    out.0.extend_from_slice(metric_bytes);
    out.u64(count);
    out.u64(fnv1a64(items));
    let header_crc = crc32(&out.0);
    out.u32(header_crc);
    debug_assert_eq!(out.0.len(), header_len(metric_bytes.len()));
    for (id, payload) in SECTION_IDS
        .iter()
        .map(|(id, _)| *id)
        .zip([params, items, structure])
    {
        out.u8(id);
        out.usize(payload.len());
        out.0.extend_from_slice(payload);
        out.u32(crc32(payload));
    }
    out.0
}

/// Parses and CRC-verifies the header span of a snapshot. `bytes` may be
/// the whole file or any prefix of at least the header's length —
/// [`HEADER_MAX`] bytes always suffice — so callers can inspect a
/// multi-GB snapshot after one bounded read.
///
/// # Errors
///
/// * [`VantageError::UnsupportedSnapshot`] for any version other than
///   [`FORMAT_VERSION`] (recognized magic, so the file *is* a snapshot —
///   just not one this build reads; version 1's pointer-rich node
///   records were dropped with the flat layout, and version 2's
///   id-ordered tree items with the row-ordered layout);
/// * [`VantageError::CorruptSnapshot`] for everything else that does not
///   parse or verify.
pub(crate) fn parse_header(bytes: &[u8]) -> Result<Header> {
    let mut cur = Cursor::new(bytes);
    let magic = cur.take(MAGIC.len(), "magic")?;
    if magic != MAGIC {
        return Err(VantageError::corrupt(
            "missing VNTGSNAP magic: not a snapshot file",
        ));
    }
    let version = cur.u32("version")?;
    if version == 0 {
        return Err(VantageError::corrupt("version 0 is not a valid snapshot"));
    }
    if version != FORMAT_VERSION {
        return Err(VantageError::UnsupportedSnapshot {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let kind = IndexKind::from_tag(cur.u8("index kind")?)?;
    let item_tag = cur.u8("item tag")?;
    let metric_len = usize::from(cur.u16("metric id length")?);
    let metric_bytes = cur.take(metric_len, "metric id")?;
    let metric = std::str::from_utf8(metric_bytes)
        .map_err(|e| VantageError::corrupt(format!("metric id: {e}")))?
        .to_string();
    let count = cur.u64("item count")?;
    let digest = cur.u64("dataset digest")?;
    let actual = crc32(cur.consumed());
    let declared = cur.u32("header checksum")?;
    if declared != actual {
        return Err(VantageError::corrupt(format!(
            "header checksum mismatch: stored {declared:#010x}, computed {actual:#010x}"
        )));
    }
    Ok(Header {
        version,
        kind,
        item_tag,
        metric,
        count,
        digest,
        len: cur.position(),
    })
}

/// Parses and fully verifies a snapshot container: magic, version,
/// header CRC, section framing and per-section CRCs, dataset digest,
/// exact EOF.
///
/// # Errors
///
/// As [`parse_header`], plus [`VantageError::CorruptSnapshot`] for any
/// section-level damage.
pub(crate) fn parse(bytes: &[u8]) -> Result<Container<'_>> {
    let header = parse_header(bytes)?;
    let mut cur = Cursor::new(&bytes[header.len..]);

    let mut payloads: [&[u8]; 3] = [&[], &[], &[]];
    let mut offsets = [0usize; 3];
    for ((slot, off), (id, name)) in payloads.iter_mut().zip(offsets.iter_mut()).zip(SECTION_IDS) {
        let found = cur.u8("section id")?;
        if found != id {
            return Err(VantageError::corrupt(format!(
                "expected section {id} ({name}), found id {found}"
            )));
        }
        let len = cur.len(1, name)?;
        *off = header.len + cur.position();
        let payload = cur.take(len, name)?;
        let declared = cur.u32("section checksum")?;
        let actual = crc32(payload);
        if declared != actual {
            return Err(VantageError::corrupt(format!(
                "{name} section checksum mismatch: stored {declared:#010x}, computed {actual:#010x}"
            )));
        }
        *slot = payload;
    }
    cur.finish("snapshot")?;

    let [params, items, structure] = payloads;
    let items_digest = fnv1a64(items);
    if items_digest != header.digest {
        return Err(VantageError::corrupt(format!(
            "dataset digest mismatch: header says {:#018x}, items hash to {items_digest:#018x}",
            header.digest
        )));
    }
    debug_assert_eq!(
        offsets[1],
        items_payload_offset(header.metric.len(), params.len())
    );
    debug_assert_eq!(
        offsets[2],
        structure_payload_offset(offsets[1], items.len())
    );
    Ok(Container {
        version: header.version,
        kind: header.kind,
        item_tag: header.item_tag,
        metric: header.metric,
        count: header.count,
        digest: header.digest,
        params,
        items,
        structure,
        items_off: offsets[1],
        structure_off: offsets[2],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        assemble(IndexKind::VpTree, 1, "l2", 3, b"PARAMS", b"ITEMS", b"TREE")
    }

    #[test]
    fn assemble_parse_round_trip() {
        let bytes = sample();
        let c = parse(&bytes).unwrap();
        assert_eq!(c.version, FORMAT_VERSION);
        assert_eq!(c.kind, IndexKind::VpTree);
        assert_eq!(c.item_tag, 1);
        assert_eq!(c.metric, "l2");
        assert_eq!(c.count, 3);
        assert_eq!(c.params, b"PARAMS");
        assert_eq!(c.items, b"ITEMS");
        assert_eq!(c.structure, b"TREE");
        assert_eq!(c.digest, fnv1a64(b"ITEMS"));
        assert_eq!(&bytes[c.items_off..c.items_off + 5], b"ITEMS");
        assert_eq!(&bytes[c.structure_off..c.structure_off + 4], b"TREE");
    }

    #[test]
    fn header_parses_from_a_bounded_prefix() {
        let bytes = sample();
        let prefix = &bytes[..HEADER_MAX.min(bytes.len())];
        let h = parse_header(prefix).unwrap();
        assert_eq!(h.version, FORMAT_VERSION);
        assert_eq!(h.kind, IndexKind::VpTree);
        assert_eq!(h.metric, "l2");
        assert_eq!(h.count, 3);
        assert_eq!(h.len, HEADER_FIXED + 2);
        // A prefix short of the full header is a typed truncation error.
        assert!(parse_header(&bytes[..h.len - 1]).is_err());
    }

    #[test]
    fn wrong_magic_is_not_a_snapshot() {
        let mut bytes = sample();
        bytes[0] = b'X';
        let err = parse(&bytes).unwrap_err();
        assert!(err.to_string().contains("not a snapshot"), "{err}");
    }

    #[test]
    fn future_version_is_unsupported_not_corrupt() {
        let mut bytes = sample();
        // Version field sits right after the magic; bump it, then re-seal
        // the header CRC so only the version differs.
        bytes[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        let header_end = bytes.len() - (b"PARAMSITEMSTREE".len() + 3 * 13) - 4;
        let crc = crc32(&bytes[..header_end]);
        bytes[header_end..header_end + 4].copy_from_slice(&crc.to_le_bytes());
        let err = parse(&bytes).unwrap_err();
        assert!(
            matches!(
                err,
                VantageError::UnsupportedSnapshot {
                    found,
                    supported: FORMAT_VERSION,
                } if found == FORMAT_VERSION + 1
            ),
            "{err}"
        );
    }

    #[test]
    fn dropped_v1_and_v2_are_unsupported_not_corrupt() {
        for old in [1u32, 2] {
            let mut bytes = sample();
            bytes[8..12].copy_from_slice(&old.to_le_bytes());
            let header_end = bytes.len() - (b"PARAMSITEMSTREE".len() + 3 * 13) - 4;
            let crc = crc32(&bytes[..header_end]);
            bytes[header_end..header_end + 4].copy_from_slice(&crc.to_le_bytes());
            let err = parse(&bytes).unwrap_err();
            assert!(
                matches!(
                    err,
                    VantageError::UnsupportedSnapshot {
                        found,
                        supported: 3,
                    } if found == old
                ),
                "{err}"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let good = sample();
        for byte in 0..good.len() {
            for bit in 0..8 {
                let mut bad = good.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    parse(&bad).is_err(),
                    "flip of byte {byte} bit {bit} went unnoticed"
                );
            }
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let good = sample();
        for cut in 0..good.len() {
            assert!(parse(&good[..cut]).is_err(), "truncation at {cut} passed");
        }
    }

    #[test]
    fn trailing_garbage_is_detected() {
        let mut bytes = sample();
        bytes.push(0);
        assert!(parse(&bytes).is_err());
    }
}
