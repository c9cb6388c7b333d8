//! Pins the exact bytes of freshly built vp- and mvp-tree snapshots,
//! and, separately, of the node arenas inside them.
//!
//! The snapshot encoder writes every node-arena array verbatim, next to
//! the params and the items, so one FNV-1a 64 digest per snapshot pins
//! the whole built tree: vantage ids, cutoffs, child links, leaf rows,
//! `D1`/`D2`/`PATH`, the preorder they are laid out in, and the row
//! order the items section is written in. Any change to construction
//! or to the file layout that is not bit-identical moves a digest.
//!
//! The arena digests hash only the node arrays, read through the public
//! `VpArenaView`/`MvpArenaView` accessors. They pin the tree itself
//! independently of how its items are stored: a change to the item
//! layout or the file format moves the snapshot digests but must leave
//! these alone.
//!
//! The matrix covers both structures, both item types, several shapes,
//! and one versus four workers. With n = 2 000 items the root's distance
//! sweep runs in parallel (≥ 1 024 items) and multi-worker builds splice
//! subtrees built into worker-local arenas.

use std::sync::OnceLock;

use vantage::prelude::*;
use vantage_datasets::{clustered_vectors, perturbed_words, ClusteredConfig};
use vantage_persist::check::fnv1a64;
use vantage_persist::{encode_mvp_tree, encode_vp_tree};

fn vectors() -> Vec<Vec<f64>> {
    let config = ClusteredConfig {
        clusters: 4,
        cluster_size: 500,
        dim: 8,
        epsilon: 0.15,
        seed: 21,
    };
    clustered_vectors(&config).unwrap()
}

fn words() -> Vec<String> {
    perturbed_words(100, 19, 2, 22)
}

const THREADS: [usize; 2] = [1, 4];

/// One built tree's label, whole-snapshot digest and arena digest.
type Digests = (String, u64, u64);

/// Appends one arena array to a digest input: its length, then each
/// element's little-endian bytes.
fn put_u32s(buf: &mut Vec<u8>, values: &[u32]) {
    buf.extend_from_slice(&(values.len() as u64).to_le_bytes());
    for v in values {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

fn put_f64s(buf: &mut Vec<u8>, values: &[f64]) {
    buf.extend_from_slice(&(values.len() as u64).to_le_bytes());
    for v in values {
        buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }
}

fn vp_arena_digest<T, M>(tree: &VpTree<T, M>) -> u64 {
    let a = tree.arena();
    let mut buf = Vec::new();
    put_u32s(
        &mut buf,
        &[tree.root().unwrap_or(u32::MAX), a.order() as u32],
    );
    put_u32s(&mut buf, a.meta());
    put_u32s(&mut buf, a.vantage());
    put_u32s(&mut buf, a.children());
    put_f64s(&mut buf, a.cutoffs());
    put_u32s(&mut buf, a.leaf_spans());
    put_u32s(&mut buf, a.leaf_items());
    fnv1a64(&buf)
}

fn mvp_arena_digest<T, M>(tree: &MvpTree<T, M>) -> u64 {
    let a = tree.arena();
    let mut buf = Vec::new();
    put_u32s(&mut buf, &[tree.root().unwrap_or(u32::MAX), a.m() as u32]);
    put_u32s(&mut buf, a.meta());
    put_u32s(&mut buf, a.vp1());
    put_u32s(&mut buf, a.vp2());
    put_u32s(&mut buf, a.children());
    put_f64s(&mut buf, a.cutoffs1());
    put_f64s(&mut buf, a.cutoffs2());
    put_u32s(&mut buf, a.leaf_heads());
    put_u32s(&mut buf, a.ids());
    put_f64s(&mut buf, a.d1());
    put_f64s(&mut buf, a.d2());
    put_f64s(&mut buf, a.path());
    fnv1a64(&buf)
}

/// Builds the vp-tree matrix once per test binary.
fn vp_digests() -> &'static [Digests] {
    static DIGESTS: OnceLock<Vec<Digests>> = OnceLock::new();
    DIGESTS.get_or_init(|| {
        let (vectors, words) = (vectors(), words());
        assert!(vectors.len() >= 2000 && words.len() >= 2000);
        let mut out = Vec::new();
        for order in [2, 3] {
            for leaf in [1, 4] {
                for threads in THREADS {
                    let params = VpTreeParams::with_order(order)
                        .leaf_capacity(leaf)
                        .seed(31)
                        .threads(Threads::Fixed(threads));
                    let tree = VpTree::build(vectors.clone(), Euclidean, params.clone()).unwrap();
                    out.push((
                        format!("vp l2 order={order} leaf={leaf} t={threads}"),
                        fnv1a64(&encode_vp_tree(&tree)),
                        vp_arena_digest(&tree),
                    ));
                    let tree = VpTree::build(words.clone(), Levenshtein, params).unwrap();
                    out.push((
                        format!("vp edit order={order} leaf={leaf} t={threads}"),
                        fnv1a64(&encode_vp_tree(&tree)),
                        vp_arena_digest(&tree),
                    ));
                }
            }
        }
        out
    })
}

/// Builds the mvp-tree matrix once per test binary.
fn mvp_digests() -> &'static [Digests] {
    static DIGESTS: OnceLock<Vec<Digests>> = OnceLock::new();
    DIGESTS.get_or_init(|| {
        let (vectors, words) = (vectors(), words());
        let mut out = Vec::new();
        for (m, k, p) in [(2, 1, 0), (2, 4, 3), (3, 9, 5), (3, 80, 5)] {
            for second in [SecondVantage::Farthest, SecondVantage::Random] {
                for threads in THREADS {
                    let params = MvpParams::paper(m, k, p)
                        .second(second)
                        .seed(32)
                        .threads(Threads::Fixed(threads));
                    let tree = MvpTree::build(vectors.clone(), Euclidean, params.clone()).unwrap();
                    out.push((
                        format!("mvp l2 m={m} k={k} p={p} {second:?} t={threads}"),
                        fnv1a64(&encode_mvp_tree(&tree)),
                        mvp_arena_digest(&tree),
                    ));
                    let tree = MvpTree::build(words.clone(), Levenshtein, params).unwrap();
                    out.push((
                        format!("mvp edit m={m} k={k} p={p} {second:?} t={threads}"),
                        fnv1a64(&encode_mvp_tree(&tree)),
                        mvp_arena_digest(&tree),
                    ));
                }
            }
        }
        out
    })
}

/// The `(label, snapshot digest)` column of a digest table.
fn snapshots(digests: &[Digests]) -> Vec<(String, u64)> {
    digests.iter().map(|(l, s, _)| (l.clone(), *s)).collect()
}

/// The `(label, arena digest)` column of a digest table.
fn arenas(digests: &[Digests]) -> Vec<(String, u64)> {
    digests.iter().map(|(l, _, a)| (l.clone(), *a)).collect()
}

/// Compares computed digests with the pinned table and, on mismatch,
/// prints the full computed table in the pinned format.
fn check(actual: &[(String, u64)], pinned: &[(&str, u64)]) {
    let rendered: String = actual
        .iter()
        .map(|(label, digest)| format!("    (\"{label}\", {digest:#018x}),\n"))
        .collect();
    let matches = actual.len() == pinned.len()
        && actual
            .iter()
            .zip(pinned)
            .all(|((label, digest), (want_label, want))| label == want_label && digest == want);
    assert!(matches, "snapshot digests moved; computed:\n{rendered}");
}

/// Whole-snapshot digests of format v3, whose items section is in row
/// order.
const VP_PINNED: &[(&str, u64)] = &[
    ("vp l2 order=2 leaf=1 t=1", 0xe0dbd89281bdf036),
    ("vp edit order=2 leaf=1 t=1", 0x9fa02d676932392e),
    ("vp l2 order=2 leaf=1 t=4", 0xc8bf16d59bb177e7),
    ("vp edit order=2 leaf=1 t=4", 0x2ca4e7d4e7bf8593),
    ("vp l2 order=2 leaf=4 t=1", 0xa26477dad5448ce3),
    ("vp edit order=2 leaf=4 t=1", 0xc614751e3a2de2f2),
    ("vp l2 order=2 leaf=4 t=4", 0xef4c7aa48afacd4e),
    ("vp edit order=2 leaf=4 t=4", 0x28f58a87d21c5813),
    ("vp l2 order=3 leaf=1 t=1", 0xec2c955c7cbdaf32),
    ("vp edit order=3 leaf=1 t=1", 0x3a1653d1a55cd73c),
    ("vp l2 order=3 leaf=1 t=4", 0x1e28926fc0e2b95f),
    ("vp edit order=3 leaf=1 t=4", 0x6814747dd14f0ac9),
    ("vp l2 order=3 leaf=4 t=1", 0x73c1cc2a2056a08e),
    ("vp edit order=3 leaf=4 t=1", 0x85e40d059e26872a),
    ("vp l2 order=3 leaf=4 t=4", 0x0f8c75d6c220cc5f),
    ("vp edit order=3 leaf=4 t=4", 0x30ff1dbc45f37b3f),
];

const MVP_PINNED: &[(&str, u64)] = &[
    ("mvp l2 m=2 k=1 p=0 Farthest t=1", 0x55d46acf55ceb052),
    ("mvp edit m=2 k=1 p=0 Farthest t=1", 0xa1d44a5769bcd183),
    ("mvp l2 m=2 k=1 p=0 Farthest t=4", 0x2471480c373a4695),
    ("mvp edit m=2 k=1 p=0 Farthest t=4", 0xa0fe22899e45ba34),
    ("mvp l2 m=2 k=1 p=0 Random t=1", 0x8c7461df3c4a61f1),
    ("mvp edit m=2 k=1 p=0 Random t=1", 0x7d941be1e9f57483),
    ("mvp l2 m=2 k=1 p=0 Random t=4", 0x26bab6240a9f3d62),
    ("mvp edit m=2 k=1 p=0 Random t=4", 0x19e24fcfc3e62e98),
    ("mvp l2 m=2 k=4 p=3 Farthest t=1", 0x12396dfd9318f24e),
    ("mvp edit m=2 k=4 p=3 Farthest t=1", 0x000f414229f0334b),
    ("mvp l2 m=2 k=4 p=3 Farthest t=4", 0xc8c0f7c1203f83f5),
    ("mvp edit m=2 k=4 p=3 Farthest t=4", 0xb21e4ed13725cfe8),
    ("mvp l2 m=2 k=4 p=3 Random t=1", 0xa54ed15cc3ba622a),
    ("mvp edit m=2 k=4 p=3 Random t=1", 0x8fe40df854199b0b),
    ("mvp l2 m=2 k=4 p=3 Random t=4", 0xf65e8e4723caeb15),
    ("mvp edit m=2 k=4 p=3 Random t=4", 0x5fecb7ee54a55090),
    ("mvp l2 m=3 k=9 p=5 Farthest t=1", 0xfad5964ded594926),
    ("mvp edit m=3 k=9 p=5 Farthest t=1", 0x152a32448043481e),
    ("mvp l2 m=3 k=9 p=5 Farthest t=4", 0xa8ab11051ba17735),
    ("mvp edit m=3 k=9 p=5 Farthest t=4", 0xe8bc3df609645cfd),
    ("mvp l2 m=3 k=9 p=5 Random t=1", 0x644b53951b766f15),
    ("mvp edit m=3 k=9 p=5 Random t=1", 0x3a496f0bdd1770aa),
    ("mvp l2 m=3 k=9 p=5 Random t=4", 0xffcc026c95c83f22),
    ("mvp edit m=3 k=9 p=5 Random t=4", 0x894f7acc80dbb3f9),
    ("mvp l2 m=3 k=80 p=5 Farthest t=1", 0xb85f0ed1fde5634a),
    ("mvp edit m=3 k=80 p=5 Farthest t=1", 0xe14e2fd1b7d60864),
    ("mvp l2 m=3 k=80 p=5 Farthest t=4", 0x65d9146e0b95a60d),
    ("mvp edit m=3 k=80 p=5 Farthest t=4", 0x0d587b44854f91b7),
    ("mvp l2 m=3 k=80 p=5 Random t=1", 0xe388c62839f153bb),
    ("mvp edit m=3 k=80 p=5 Random t=1", 0x7be827fc82cd431e),
    ("mvp l2 m=3 k=80 p=5 Random t=4", 0x17878df8bd989148),
    ("mvp edit m=3 k=80 p=5 Random t=4", 0xad1e8184a0c32f81),
];

/// Arena digests, taken at the last id-ordered layout (format v2) and
/// unchanged by the row-ordered item layout.
const VP_ARENA_PINNED: &[(&str, u64)] = &[
    ("vp l2 order=2 leaf=1 t=1", 0x00fd45e31a55aaee),
    ("vp edit order=2 leaf=1 t=1", 0xa15c766af9d66c62),
    ("vp l2 order=2 leaf=1 t=4", 0x00fd45e31a55aaee),
    ("vp edit order=2 leaf=1 t=4", 0xa15c766af9d66c62),
    ("vp l2 order=2 leaf=4 t=1", 0x01877f66a4edd93a),
    ("vp edit order=2 leaf=4 t=1", 0x8da2b9b8a89938bd),
    ("vp l2 order=2 leaf=4 t=4", 0x01877f66a4edd93a),
    ("vp edit order=2 leaf=4 t=4", 0x8da2b9b8a89938bd),
    ("vp l2 order=3 leaf=1 t=1", 0x74aa9bfbb39ce385),
    ("vp edit order=3 leaf=1 t=1", 0xd0ea1bc3d2baff90),
    ("vp l2 order=3 leaf=1 t=4", 0x74aa9bfbb39ce385),
    ("vp edit order=3 leaf=1 t=4", 0xd0ea1bc3d2baff90),
    ("vp l2 order=3 leaf=4 t=1", 0x776fd1e84878c97a),
    ("vp edit order=3 leaf=4 t=1", 0xaafb118ba8b2285b),
    ("vp l2 order=3 leaf=4 t=4", 0x776fd1e84878c97a),
    ("vp edit order=3 leaf=4 t=4", 0xaafb118ba8b2285b),
];

const MVP_ARENA_PINNED: &[(&str, u64)] = &[
    ("mvp l2 m=2 k=1 p=0 Farthest t=1", 0xb139bd6cafb5126c),
    ("mvp edit m=2 k=1 p=0 Farthest t=1", 0xf328d908ac7868c9),
    ("mvp l2 m=2 k=1 p=0 Farthest t=4", 0xb139bd6cafb5126c),
    ("mvp edit m=2 k=1 p=0 Farthest t=4", 0xf328d908ac7868c9),
    ("mvp l2 m=2 k=1 p=0 Random t=1", 0xf233ca629ebbf148),
    ("mvp edit m=2 k=1 p=0 Random t=1", 0x3560afd33a06bebe),
    ("mvp l2 m=2 k=1 p=0 Random t=4", 0xf233ca629ebbf148),
    ("mvp edit m=2 k=1 p=0 Random t=4", 0x3560afd33a06bebe),
    ("mvp l2 m=2 k=4 p=3 Farthest t=1", 0xb139bd6cafb5126c),
    ("mvp edit m=2 k=4 p=3 Farthest t=1", 0xf328d908ac7868c9),
    ("mvp l2 m=2 k=4 p=3 Farthest t=4", 0xb139bd6cafb5126c),
    ("mvp edit m=2 k=4 p=3 Farthest t=4", 0xf328d908ac7868c9),
    ("mvp l2 m=2 k=4 p=3 Random t=1", 0x0d637f812e37fe56),
    ("mvp edit m=2 k=4 p=3 Random t=1", 0x339d1bc154dfb881),
    ("mvp l2 m=2 k=4 p=3 Random t=4", 0x0d637f812e37fe56),
    ("mvp edit m=2 k=4 p=3 Random t=4", 0x339d1bc154dfb881),
    ("mvp l2 m=3 k=9 p=5 Farthest t=1", 0xcf243318a8de7dff),
    ("mvp edit m=3 k=9 p=5 Farthest t=1", 0x28cdb0e6db7d8920),
    ("mvp l2 m=3 k=9 p=5 Farthest t=4", 0xcf243318a8de7dff),
    ("mvp edit m=3 k=9 p=5 Farthest t=4", 0x28cdb0e6db7d8920),
    ("mvp l2 m=3 k=9 p=5 Random t=1", 0x2acd96654a6dddbe),
    ("mvp edit m=3 k=9 p=5 Random t=1", 0xf4a2803c5be63274),
    ("mvp l2 m=3 k=9 p=5 Random t=4", 0x2acd96654a6dddbe),
    ("mvp edit m=3 k=9 p=5 Random t=4", 0xf4a2803c5be63274),
    ("mvp l2 m=3 k=80 p=5 Farthest t=1", 0xcd129af2e2ebff8e),
    ("mvp edit m=3 k=80 p=5 Farthest t=1", 0x9a09dda8da1f7103),
    ("mvp l2 m=3 k=80 p=5 Farthest t=4", 0xcd129af2e2ebff8e),
    ("mvp edit m=3 k=80 p=5 Farthest t=4", 0x9a09dda8da1f7103),
    ("mvp l2 m=3 k=80 p=5 Random t=1", 0x359150a67a818ac1),
    ("mvp edit m=3 k=80 p=5 Random t=1", 0x6460957fdeefcee7),
    ("mvp l2 m=3 k=80 p=5 Random t=4", 0x359150a67a818ac1),
    ("mvp edit m=3 k=80 p=5 Random t=4", 0x6460957fdeefcee7),
];

#[test]
fn vp_tree_snapshots_are_bit_identical() {
    check(&snapshots(vp_digests()), VP_PINNED);
}

#[test]
fn mvp_tree_snapshots_are_bit_identical() {
    check(&snapshots(mvp_digests()), MVP_PINNED);
}

#[test]
fn vp_tree_arenas_are_bit_identical() {
    check(&arenas(vp_digests()), VP_ARENA_PINNED);
}

#[test]
fn mvp_tree_arenas_are_bit_identical() {
    check(&arenas(mvp_digests()), MVP_ARENA_PINNED);
}

/// The builders count their own construction cost: the same grid built
/// under a `Counted` metric charges exactly `build_distances()` per
/// tree, and the counting wrapper moves no snapshot or arena digest.
#[test]
fn builders_count_what_a_counted_metric_charges() {
    let (vectors, words) = (vectors(), words());
    let mut counted: Vec<Digests> = Vec::new();
    let check_count = |label: &str, built: u64, charged: u64| {
        assert!(built > 0, "{label}: no construction cost");
        assert_eq!(built, charged, "{label}: build_distances != Counted");
    };
    for order in [2, 3] {
        for leaf in [1, 4] {
            for threads in THREADS {
                let params = VpTreeParams::with_order(order)
                    .leaf_capacity(leaf)
                    .seed(31)
                    .threads(Threads::Fixed(threads));
                let label = format!("vp l2 order={order} leaf={leaf} t={threads}");
                let metric = Counted::new(Euclidean);
                let tree = VpTree::build(vectors.clone(), metric.clone(), params.clone()).unwrap();
                check_count(&label, tree.build_distances(), metric.take());
                let digests = (fnv1a64(&encode_vp_tree(&tree)), vp_arena_digest(&tree));
                counted.push((label, digests.0, digests.1));
                let label = format!("vp edit order={order} leaf={leaf} t={threads}");
                let metric = Counted::new(Levenshtein);
                let tree = VpTree::build(words.clone(), metric.clone(), params).unwrap();
                check_count(&label, tree.build_distances(), metric.take());
                let digests = (fnv1a64(&encode_vp_tree(&tree)), vp_arena_digest(&tree));
                counted.push((label, digests.0, digests.1));
            }
        }
    }
    assert_eq!(counted, vp_digests(), "Counted moved a vp-tree digest");

    let mut counted: Vec<Digests> = Vec::new();
    for (m, k, p) in [(2, 1, 0), (2, 4, 3), (3, 9, 5), (3, 80, 5)] {
        for second in [SecondVantage::Farthest, SecondVantage::Random] {
            for threads in THREADS {
                let params = MvpParams::paper(m, k, p)
                    .second(second)
                    .seed(32)
                    .threads(Threads::Fixed(threads));
                let label = format!("mvp l2 m={m} k={k} p={p} {second:?} t={threads}");
                let metric = Counted::new(Euclidean);
                let tree = MvpTree::build(vectors.clone(), metric.clone(), params.clone()).unwrap();
                check_count(&label, tree.build_distances(), metric.take());
                let digests = (fnv1a64(&encode_mvp_tree(&tree)), mvp_arena_digest(&tree));
                counted.push((label, digests.0, digests.1));
                let label = format!("mvp edit m={m} k={k} p={p} {second:?} t={threads}");
                let metric = Counted::new(Levenshtein);
                let tree = MvpTree::build(words.clone(), metric.clone(), params).unwrap();
                check_count(&label, tree.build_distances(), metric.take());
                let digests = (fnv1a64(&encode_mvp_tree(&tree)), mvp_arena_digest(&tree));
                counted.push((label, digests.0, digests.1));
            }
        }
    }
    assert_eq!(counted, mvp_digests(), "Counted moved an mvp-tree digest");
}
