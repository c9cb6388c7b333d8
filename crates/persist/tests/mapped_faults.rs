//! Fault injection and differential checks for the zero-copy `open_*`
//! path.
//!
//! The mmap loaders validate snapshots *in place*: every integrity
//! decision is made against the raw mapping before a single borrowed
//! slice is handed out. This suite drives the same damage classes as
//! the in-memory `fault_injection` suite — truncation at every prefix
//! length, flipped bits, forged headers, arbitrary garbage — through
//! real files and demands the same **typed** [`VantageError`]s, never a
//! panic, never an out-of-bounds read. A property test then pins the
//! tentpole contract: a borrowed (mapped) tree answers every query
//! family **bit-identically** to the materialized tree it was saved
//! from, across metric families.

use proptest::prelude::*;
use vantage_core::prelude::*;
use vantage_mvptree::{MvpParams, MvpTree};
use vantage_persist as persist;
use vantage_persist::{F64Vectors, U8Vectors, Utf8Strings};
use vantage_vptree::{VpTree, VpTreeParams};

/// Writes `bytes` to a unique temp file, runs `f` on the path, removes
/// the file. Fault sweeps go through here so damaged bytes hit the real
/// `open(2)` → mmap → validate pipeline, not an in-memory shortcut.
fn with_file<R>(name: &str, bytes: &[u8], f: impl FnOnce(&std::path::Path) -> R) -> R {
    let path = std::env::temp_dir().join(format!(
        "vantage-mapped-faults-{}-{name}",
        std::process::id()
    ));
    std::fs::write(&path, bytes).unwrap();
    let out = f(&path);
    std::fs::remove_file(&path).ok();
    out
}

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

fn vector_snapshot() -> Vec<u8> {
    let points = vantage_datasets::uniform_vectors(80, 4, 9);
    let tree = MvpTree::build(points, Euclidean, MvpParams::paper(3, 8, 3).seed(2)).unwrap();
    persist::encode_mvp_tree(&tree)
}

/// An mvp-tree over 64-byte vectors: the `u8-vector` encoding.
fn byte_snapshot() -> Vec<u8> {
    let points: Vec<Vec<u8>> = (0..40u8)
        .map(|i| (0..64u8).map(|j| i.wrapping_mul(37) ^ j).collect())
        .collect();
    let tree = MvpTree::build(points, Manhattan, MvpParams::paper(3, 8, 3).seed(2)).unwrap();
    persist::encode_mvp_tree(&tree)
}

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
fn every_truncated_file_is_a_typed_error() {
    let good = word_snapshot();
    for len in 0..good.len() {
        let err = with_file("trunc-vp", &good[..len], |p| {
            persist::open_vp_tree::<Utf8Strings, Levenshtein>(p).map(|_| ())
        })
        .expect_err("truncated snapshot opened");
        assert_typed(err, &format!("open of file truncated to {len} bytes"));
    }
    let good = byte_snapshot();
    for len in 0..good.len() {
        let err = with_file("trunc-u8", &good[..len], |p| {
            persist::open_mvp_tree::<U8Vectors, Manhattan>(p).map(|_| ())
        })
        .expect_err("truncated byte snapshot opened");
        assert_typed(err, &format!("byte open truncated to {len} bytes"));
    }
}

#[test]
fn every_single_bit_flip_in_a_file_is_a_typed_error() {
    // One flip per byte (the bit position rotates) — the in-memory
    // suite already walks all eight bits, this pins that the mapped
    // verifier covers the same span through a real file.
    let good = vector_snapshot();
    for byte in 0..good.len() {
        let mut bad = good.clone();
        bad[byte] ^= 1 << (byte % 8);
        let err = with_file("flip-mvp", &bad, |p| {
            persist::open_mvp_tree::<F64Vectors, Euclidean>(p).map(|_| ())
        })
        .expect_err("bit-flipped snapshot opened");
        assert_typed(err, &format!("flip byte {byte} bit {}", byte % 8));
    }
}

#[test]
fn forged_v2_header_is_refused_at_open() {
    let mut bytes = vector_snapshot();
    bytes[8..12].copy_from_slice(&2u32.to_le_bytes());
    let crc = persist::check::crc32(&bytes[..34]);
    bytes[34..38].copy_from_slice(&crc.to_le_bytes());
    let err = with_file("forged-v2", &bytes, |p| {
        persist::open_mvp_tree::<F64Vectors, Euclidean>(p).map(|_| ())
    })
    .unwrap_err();
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
fn forged_future_version_is_unsupported_not_corrupt() {
    let mut bytes = vector_snapshot();
    // Header layout for an `l2` snapshot: version at 8..12, header CRC
    // at 34..38 (see the `format` module docs). Re-seal the CRC so only
    // the version check can fire.
    bytes[8..12].copy_from_slice(&(persist::FORMAT_VERSION + 7).to_le_bytes());
    let crc = persist::check::crc32(&bytes[..34]);
    bytes[34..38].copy_from_slice(&crc.to_le_bytes());
    let err = with_file("forged-version", &bytes, |p| {
        persist::open_mvp_tree::<F64Vectors, Euclidean>(p).map(|_| ())
    })
    .unwrap_err();
    assert!(
        matches!(err, VantageError::UnsupportedSnapshot { found, .. }
            if found == persist::FORMAT_VERSION + 7),
        "{err}"
    );
}

#[test]
fn wrong_kind_metric_and_item_are_mismatches() {
    let vectors = vector_snapshot(); // mvp-tree, f64-vector, l2
    let err = with_file("kind", &vectors, |p| {
        persist::open_vp_tree::<F64Vectors, Euclidean>(p).map(|_| ())
    })
    .unwrap_err();
    assert!(
        matches!(
            err,
            VantageError::SnapshotMismatch {
                field: "index kind",
                ..
            }
        ),
        "{err}"
    );
    let err = with_file("metric", &vectors, |p| {
        persist::open_mvp_tree::<F64Vectors, Manhattan>(p).map(|_| ())
    })
    .unwrap_err();
    assert!(
        matches!(
            err,
            VantageError::SnapshotMismatch {
                field: "metric",
                ..
            }
        ),
        "{err}"
    );
    let words = word_snapshot(); // vp-tree, utf8-string, edit
    let bytes = byte_snapshot(); // mvp-tree, u8-vector, l1
    let errs = [
        with_file("item", &words, |p| {
            persist::open_vp_tree::<F64Vectors, Levenshtein>(p).map(|_| ())
        }),
        with_file("u8-as-f64", &bytes, |p| {
            persist::open_mvp_tree::<F64Vectors, Manhattan>(p).map(|_| ())
        }),
        persist::decode_mvp_tree::<U8Vectors, Euclidean>(&vectors).map(|_| ()),
        with_file("f64-as-u8", &vectors, |p| {
            persist::open_mvp_tree::<U8Vectors, Euclidean>(p).map(|_| ())
        }),
    ];
    for err in errs {
        let err = err.unwrap_err();
        assert!(
            matches!(
                err,
                VantageError::SnapshotMismatch {
                    field: "item type",
                    ..
                }
            ),
            "{err}"
        );
    }
}

#[test]
fn missing_file_is_an_io_error() {
    let err = persist::open_vp_tree::<F64Vectors, Euclidean>("/nonexistent/x.vsnap").unwrap_err();
    assert!(matches!(err, VantageError::Io { .. }), "{err}");
}

/// The gap between two vectors' lengths, tagged `l2`: it reads no
/// coordinate, so trees and scans over ragged vectors build, and encode
/// into snapshots whose checksums are all valid.
struct LengthGap;

impl<E> Metric<Vec<E>> for LengthGap {
    fn distance(&self, a: &Vec<E>, b: &Vec<E>) -> f64 {
        (a.len() as f64 - b.len() as f64).abs()
    }
}

impl persist::MetricTag for LengthGap {
    const TAG: &'static str = "l2";
    fn reconstruct() -> Self {
        LengthGap
    }
}

fn ragged() -> Vec<Vec<f64>> {
    vec![vec![0.0, 0.0], vec![1.0, 1.0, 1.0], vec![2.0, 2.0]]
}

fn assert_corrupt<T>(result: vantage_core::Result<T>, context: &str) {
    match result {
        Err(VantageError::CorruptSnapshot { .. }) => {}
        Err(err) => panic!("{context}: unexpected error variant: {err}"),
        Ok(_) => panic!("{context}: a ragged vector section loaded"),
    }
}

#[test]
fn ragged_vector_sections_are_refused_by_every_loader() {
    refuses_ragged::<F64Vectors>(ragged(), "f64");
    let bytes = ragged().iter().map(|v| vec![7u8; v.len()]).collect();
    refuses_ragged::<U8Vectors>(bytes, "u8");
}

/// Every loader of encoding `K` refuses a ragged section of `items`.
fn refuses_ragged<K: persist::FlatItems>(items: Vec<<K::Item as ToOwned>::Owned>, name: &str)
where
    <K::Item as ToOwned>::Owned: persist::ItemCodec + Clone + Send + Sync,
    LengthGap: Metric<<K::Item as ToOwned>::Owned>,
    Euclidean: BoundedMetric<<K::Item as ToOwned>::Owned>,
{
    let linear = persist::encode_linear_scan(&LinearScan::new(items.clone(), LengthGap));
    let vp = VpTree::build(items.clone(), LengthGap, VpTreeParams::binary()).unwrap();
    let vp = persist::encode_vp_tree(&vp);
    let mvp = MvpTree::build(items, LengthGap, MvpParams::paper(2, 4, 2)).unwrap();
    let mvp = persist::encode_mvp_tree(&mvp);
    for bytes in [&linear, &vp, &mvp] {
        persist::inspect_bytes(bytes).expect("every checksum is valid");
    }
    assert_corrupt(
        persist::decode_linear_scan::<K, Euclidean>(&linear),
        &format!("decode {name} linear"),
    );
    assert_corrupt(
        with_file(&format!("ragged-{name}-linear"), &linear, |p| {
            persist::load_linear_scan::<K, Euclidean>(p).map(|s| s.len())
        }),
        &format!("load {name} linear"),
    );
    assert_corrupt(
        persist::decode_vp_tree::<K, Euclidean>(&vp),
        &format!("decode {name} vp"),
    );
    assert_corrupt(
        with_file(&format!("ragged-{name}-vp"), &vp, |p| {
            persist::open_vp_tree::<K, Euclidean>(p)
        }),
        &format!("open {name} vp"),
    );
    assert_corrupt(
        persist::decode_mvp_tree::<K, Euclidean>(&mvp),
        &format!("decode {name} mvp"),
    );
    assert_corrupt(
        with_file(&format!("ragged-{name}-mvp"), &mvp, |p| {
            persist::open_mvp_tree::<K, Euclidean>(p)
        }),
        &format!("open {name} mvp"),
    );
}

#[test]
fn ragged_vectors_are_refused_before_a_save_writes() {
    let path = std::env::temp_dir().join(format!(
        "vantage-mapped-faults-{}-ragged-save",
        std::process::id()
    ));
    let ragged_err = VantageError::DimensionMismatch { left: 2, right: 3 };
    let scan = LinearScan::new(ragged(), Euclidean);
    assert_eq!(
        persist::save_linear_scan(&scan, &path),
        Err(ragged_err.clone())
    );
    let vp = VpTree::build(ragged(), LengthGap, VpTreeParams::binary()).unwrap();
    let err = persist::save_vp_tree(&vp, &path).unwrap_err();
    assert!(
        matches!(err, VantageError::DimensionMismatch { .. }),
        "{err}"
    );
    let mvp = MvpTree::build(ragged(), LengthGap, MvpParams::paper(2, 4, 2)).unwrap();
    let err = persist::save_mvp_tree(&mvp, &path).unwrap_err();
    assert!(
        matches!(err, VantageError::DimensionMismatch { .. }),
        "{err}"
    );
    assert!(!path.exists(), "a refused save wrote {}", path.display());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary file contents never panic the mapped loaders.
    #[test]
    fn arbitrary_files_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
        with_file("fuzz", &bytes, |p| {
            let _ = persist::open_vp_tree::<F64Vectors, Euclidean>(p);
            let _ = persist::open_mvp_tree::<F64Vectors, Euclidean>(p);
            let _ = persist::open_vp_tree::<Utf8Strings, Levenshtein>(p);
            let _ = persist::open_mvp_tree::<Utf8Strings, Levenshtein>(p);
        });
    }

    /// Random splices of a valid file either open to a tree that still
    /// answers, or fail typed — mirroring the in-memory splice property.
    #[test]
    fn spliced_files_never_panic(
        offset in 0usize..100_000,
        splice in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        let good = word_snapshot();
        let mut bad = good.clone();
        let start = offset % bad.len();
        let end = (start + splice.len()).min(bad.len());
        bad[start..end].copy_from_slice(&splice[..end - start]);
        let unchanged = bad == good;
        with_file("splice", &bad, |p| {
            match persist::open_vp_tree::<Utf8Strings, Levenshtein>(p) {
                Ok(_) => prop_assert!(unchanged, "corrupted snapshot opened"),
                Err(err) => assert_typed(err, "spliced file"),
            }
            Ok(())
        })?;
    }
}

// ---------------------------------------------------------------------
// Differential property: borrowed (mapped) vs materialized bit-identity
// across metric families and query kinds.
// ---------------------------------------------------------------------

/// Runs all four query families against both the materialized tree and
/// the mapped view and demands identical `(id, distance)` lists —
/// same floats to the last bit, same tie-breaks, same order.
macro_rules! assert_vector_identity {
    ($tree:expr, $view:expr, $query:expr) => {{
        let q: &Vec<f64> = $query;
        prop_assert_eq!($tree.range(q, 1.5), $view.range(q.as_slice(), 1.5));
        prop_assert_eq!($tree.knn(q, 7), $view.knn(q.as_slice(), 7));
        prop_assert_eq!(
            $tree.range_beyond(q, 0.8),
            $view.range_beyond(q.as_slice(), 0.8)
        );
        prop_assert_eq!($tree.k_farthest(q, 5), $view.k_farthest(q.as_slice(), 5));
    }};
}

fn vp_identity_for<M>(metric: M, n: usize, seed: u64) -> std::result::Result<(), TestCaseError>
where
    M: Metric<Vec<f64>>
        + BoundedMetric<Vec<f64>>
        + Metric<[f64]>
        + BoundedMetric<[f64]>
        + persist::MetricTag
        + Clone
        + Sync,
{
    let points = vantage_datasets::uniform_vectors(n, 4, seed);
    let queries = vantage_datasets::uniform_vectors(3, 4, seed + 1);
    let tree = VpTree::build(
        points,
        metric,
        VpTreeParams::with_order(2 + (seed % 3) as usize)
            .leaf_capacity(3)
            .seed(seed),
    )
    .unwrap();
    let bytes = persist::encode_vp_tree(&tree);
    with_file("ident-vp", &bytes, |p| {
        let mapped = persist::open_vp_tree::<F64Vectors, M>(p).unwrap();
        let view = mapped.view();
        for q in &queries {
            assert_vector_identity!(tree, view, q);
        }
        Ok(())
    })
}

fn mvp_identity_for<M>(metric: M, n: usize, seed: u64) -> std::result::Result<(), TestCaseError>
where
    M: Metric<Vec<f64>>
        + BoundedMetric<Vec<f64>>
        + Metric<[f64]>
        + BoundedMetric<[f64]>
        + persist::MetricTag
        + Clone
        + Sync,
{
    let points = vantage_datasets::uniform_vectors(n, 4, seed);
    let queries = vantage_datasets::uniform_vectors(3, 4, seed + 1);
    let tree = MvpTree::build(points, metric, MvpParams::paper(2, 5, 3).seed(seed)).unwrap();
    let bytes = persist::encode_mvp_tree(&tree);
    with_file("ident-mvp", &bytes, |p| {
        let mapped = persist::open_mvp_tree::<F64Vectors, M>(p).unwrap();
        let view = mapped.view();
        for q in &queries {
            assert_vector_identity!(tree, view, q);
        }
        Ok(())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Borrowed-vs-materialized bit-identity over every vector metric
    /// family, for both tree structures.
    #[test]
    fn mapped_vector_trees_are_bit_identical(n in 20usize..120, seed in 0u64..1000) {
        vp_identity_for(Euclidean, n, seed)?;
        vp_identity_for(Manhattan, n, seed)?;
        vp_identity_for(Chebyshev, n, seed)?;
        mvp_identity_for(Euclidean, n, seed)?;
        mvp_identity_for(Manhattan, n, seed)?;
        mvp_identity_for(Chebyshev, n, seed)?;
    }

    /// Borrowed-vs-materialized bit-identity on the discrete metric
    /// (edit distance over words), for both tree structures.
    #[test]
    fn mapped_word_trees_are_bit_identical(n in 20usize..100, seed in 0u64..1000) {
        let words = vantage_datasets::random_words(n, 2, 9, seed);
        let queries = vantage_datasets::random_words(3, 2, 9, seed + 1);

        let vp = VpTree::build(
            words.clone(),
            Levenshtein,
            VpTreeParams::with_order(3).leaf_capacity(4).seed(seed),
        )
        .unwrap();
        let bytes = persist::encode_vp_tree(&vp);
        with_file("ident-vp-words", &bytes, |p| {
            let mapped = persist::open_vp_tree::<Utf8Strings, Levenshtein>(p).unwrap();
            let view = mapped.view();
            for q in &queries {
                prop_assert_eq!(vp.range(q, 3.0), view.range(q.as_str(), 3.0));
                prop_assert_eq!(vp.knn(q, 6), view.knn(q.as_str(), 6));
                prop_assert_eq!(vp.range_beyond(q, 5.0), view.range_beyond(q.as_str(), 5.0));
                prop_assert_eq!(vp.k_farthest(q, 4), view.k_farthest(q.as_str(), 4));
            }
            Ok(())
        })?;

        let mvp = MvpTree::build(words, Levenshtein, MvpParams::paper(2, 5, 3).seed(seed)).unwrap();
        let bytes = persist::encode_mvp_tree(&mvp);
        with_file("ident-mvp-words", &bytes, |p| {
            let mapped = persist::open_mvp_tree::<Utf8Strings, Levenshtein>(p).unwrap();
            let view = mapped.view();
            for q in &queries {
                prop_assert_eq!(mvp.range(q, 3.0), view.range(q.as_str(), 3.0));
                prop_assert_eq!(mvp.knn(q, 6), view.knn(q.as_str(), 6));
                prop_assert_eq!(mvp.range_beyond(q, 5.0), view.range_beyond(q.as_str(), 5.0));
                prop_assert_eq!(mvp.k_farthest(q, 4), view.k_farthest(q.as_str(), 4));
            }
            Ok(())
        })?;
    }
}
