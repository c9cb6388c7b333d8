//! Corruption fault injection against the in-memory load path.
//!
//! Every case feeds damaged bytes to the full `decode_*` pipeline
//! (container parse → section checksums → params → structural
//! `validate_arena` validation) and demands a **typed** [`VantageError`] — never a panic,
//! never an oversized allocation, never a silently wrong tree. Damage
//! classes: truncation at every prefix length, a flipped bit in every
//! byte, wrong declared version / metric / item type / index kind,
//! fabricated section lengths, trailing garbage and arbitrary fuzz.

use proptest::prelude::*;
use vantage_core::prelude::*;
use vantage_mvptree::{MvpParams, MvpTree};
use vantage_persist::{self as persist, F64Vectors, Utf8Strings};
use vantage_vptree::{VpTree, VpTreeParams};

/// A small vp-tree-over-words snapshot (edit metric).
fn word_snapshot() -> Vec<u8> {
    let words = vantage_datasets::random_words(60, 4, 10, 8);
    let tree = VpTree::build(
        words,
        Levenshtein,
        VpTreeParams::with_order(3).leaf_capacity(4).seed(1),
    )
    .unwrap();
    persist::encode_vp_tree(&tree)
}

/// A small mvp-tree-over-vectors snapshot (l2 metric).
fn vector_snapshot() -> Vec<u8> {
    let points = vantage_datasets::uniform_vectors(80, 4, 9);
    let tree = MvpTree::build(points, Euclidean, MvpParams::paper(3, 8, 3).seed(2)).unwrap();
    persist::encode_mvp_tree(&tree)
}

/// The decode under attack must fail with one of the snapshot error
/// variants; reaching this function at all already proves "no panic".
fn assert_typed(err: VantageError, context: &str) {
    assert!(
        matches!(
            err,
            VantageError::CorruptSnapshot { .. }
                | VantageError::UnsupportedSnapshot { .. }
                | VantageError::SnapshotMismatch { .. }
                | VantageError::InvalidParameter { .. }
        ),
        "{context}: unexpected error variant: {err}"
    );
}

#[test]
fn every_truncation_is_a_typed_error() {
    let good = word_snapshot();
    for len in 0..good.len() {
        let err = persist::decode_vp_tree::<Utf8Strings, Levenshtein>(&good[..len])
            .expect_err("truncated snapshot decoded");
        assert_typed(err, &format!("truncated to {len} bytes"));
        let err = persist::inspect_bytes(&good[..len]).expect_err("truncated snapshot inspected");
        assert_typed(err, &format!("inspect truncated to {len} bytes"));
    }
}

#[test]
fn every_single_bit_flip_is_a_typed_error() {
    // Both checksum layers cover every byte, so no flip may survive.
    let good = vector_snapshot();
    for byte in 0..good.len() {
        for bit in 0..8 {
            let mut bad = good.clone();
            bad[byte] ^= 1 << bit;
            let err = persist::decode_mvp_tree::<F64Vectors, Euclidean>(&bad)
                .expect_err("bit-flipped snapshot decoded");
            assert_typed(err, &format!("flip byte {byte} bit {bit}"));
        }
    }
}

/// Byte offsets of the fixed-width header fields for an `l2` /
/// `f64-vector` snapshot (see the `format` module docs): magic 0..8,
/// version 8..12, kind 12, item tag 13, metric `u16` length 14..16 plus
/// 2 bytes of `"l2"`, count 18..26, digest 26..34, header CRC 34..38.
const L2_HEADER_CRC_OFFSET: usize = 34;

/// Rewrites a header field and re-seals the header CRC so only the
/// *semantic* check under test can fire.
fn patch_header(bytes: &mut [u8], offset: usize, field: &[u8]) {
    bytes[offset..offset + field.len()].copy_from_slice(field);
    let crc = persist::check::crc32(&bytes[..L2_HEADER_CRC_OFFSET]);
    bytes[L2_HEADER_CRC_OFFSET..L2_HEADER_CRC_OFFSET + 4].copy_from_slice(&crc.to_le_bytes());
}

#[test]
fn future_format_version_is_unsupported_not_corrupt() {
    let mut bytes = vector_snapshot();
    patch_header(&mut bytes, 8, &(persist::FORMAT_VERSION + 7).to_le_bytes());
    let err = persist::decode_mvp_tree::<F64Vectors, Euclidean>(&bytes).unwrap_err();
    assert!(
        matches!(
            err,
            VantageError::UnsupportedSnapshot {
                found,
                supported,
            } if found == persist::FORMAT_VERSION + 7 && supported == persist::FORMAT_VERSION
        ),
        "{err}"
    );
}

#[test]
fn forged_v2_header_is_refused() {
    // Version 2 stored tree items in id order; a v2 file read with v3's
    // row-order layout would pair every leaf entry with the wrong item,
    // so it must be refused outright, not decoded.
    let mut bytes = vector_snapshot();
    patch_header(&mut bytes, 8, &2u32.to_le_bytes());
    let err = persist::decode_mvp_tree::<F64Vectors, Euclidean>(&bytes).unwrap_err();
    assert!(
        matches!(
            err,
            VantageError::UnsupportedSnapshot {
                found: 2,
                supported: 3,
            }
        ),
        "{err}"
    );
}

#[test]
fn wrong_index_kind_is_a_mismatch() {
    let bytes = vector_snapshot(); // an mvp-tree
    let err = persist::decode_vp_tree::<F64Vectors, Euclidean>(&bytes).unwrap_err();
    assert!(
        matches!(err, VantageError::SnapshotMismatch { field, .. } if field == "index kind"),
        "{err}"
    );
}

#[test]
fn wrong_metric_is_a_mismatch() {
    let bytes = vector_snapshot(); // built under l2
    let err = persist::decode_mvp_tree::<F64Vectors, Manhattan>(&bytes).unwrap_err();
    assert!(
        matches!(err, VantageError::SnapshotMismatch { field, .. } if field == "metric"),
        "{err}"
    );
}

#[test]
fn wrong_item_type_is_a_mismatch() {
    let bytes = word_snapshot(); // utf8-string items
    let err = persist::decode_vp_tree::<F64Vectors, Levenshtein>(&bytes).unwrap_err();
    assert!(
        matches!(err, VantageError::SnapshotMismatch { field, .. } if field == "item type"),
        "{err}"
    );
}

#[test]
fn unknown_metric_in_header_is_typed() {
    let mut bytes = vector_snapshot();
    // "l2" → "l9": still two bytes, so the layout is untouched.
    patch_header(&mut bytes, 16, b"l9");
    let err = persist::decode_mvp_tree::<F64Vectors, Euclidean>(&bytes).unwrap_err();
    assert_typed(err, "unknown metric identifier");
}

/// Fabricates a huge declared length for each section in turn. The
/// length fields are outside both CRC layers' *semantic* reach (the
/// parser must bounds-check them itself), and a hostile value must fail
/// fast instead of allocating gigabytes.
#[test]
fn fabricated_section_lengths_fail_without_allocating() {
    let good = vector_snapshot();
    // Walk the section framing: [id u8][len u64][payload][crc u32].
    let mut section_starts = Vec::new();
    let mut pos = 38; // end of the l2 header (incl. its CRC)
    while pos < good.len() {
        section_starts.push(pos);
        let len = u64::from_le_bytes(good[pos + 1..pos + 9].try_into().unwrap()) as usize;
        pos += 1 + 8 + len + 4;
    }
    assert_eq!(section_starts.len(), 3, "params, items, structure");
    for &start in &section_starts {
        for fake in [u64::MAX, u64::MAX / 2, good.len() as u64 + 1] {
            let mut bad = good.clone();
            bad[start + 1..start + 9].copy_from_slice(&fake.to_le_bytes());
            let before = std::time::Instant::now();
            let err = persist::decode_mvp_tree::<F64Vectors, Euclidean>(&bad)
                .expect_err("fabricated length decoded");
            assert_typed(err, &format!("section at {start} with length {fake}"));
            assert!(
                before.elapsed() < std::time::Duration::from_secs(5),
                "fabricated length stalled the decoder"
            );
        }
    }
}

#[test]
fn trailing_garbage_is_rejected() {
    let mut bytes = word_snapshot();
    bytes.extend_from_slice(b"\0\0\0\0extra");
    let err = persist::decode_vp_tree::<Utf8Strings, Levenshtein>(&bytes).unwrap_err();
    assert_typed(err, "trailing garbage");
}

#[test]
fn empty_input_is_a_typed_error() {
    assert_typed(persist::inspect_bytes(&[]).unwrap_err(), "empty input");
    assert_typed(
        persist::decode_vp_tree::<F64Vectors, Euclidean>(&[]).unwrap_err(),
        "empty input",
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary bytes never panic any entry point.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let _ = persist::inspect_bytes(&bytes);
        let _ = persist::decode_vp_tree::<F64Vectors, Euclidean>(&bytes);
        let _ = persist::decode_mvp_tree::<F64Vectors, Euclidean>(&bytes);
        let _ = persist::decode_linear_scan::<Utf8Strings, Levenshtein>(&bytes);
    }

    /// Random splices of a valid snapshot (overwrite a random window
    /// with random bytes) either decode to the original tree or fail
    /// with a typed error — no panic, no silent half-corruption.
    #[test]
    fn spliced_snapshots_never_panic(
        offset in 0usize..1000,
        splice in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        let good = word_snapshot();
        let mut bad = good.clone();
        let start = offset % bad.len();
        let end = (start + splice.len()).min(bad.len());
        bad[start..end].copy_from_slice(&splice[..end - start]);
        match persist::decode_vp_tree::<Utf8Strings, Levenshtein>(&bad) {
            // Splicing identical bytes back in is a legal no-op.
            Ok(_) => prop_assert_eq!(bad, good, "corrupted snapshot decoded"),
            Err(err) => assert_typed(err, "spliced snapshot"),
        }
    }
}
