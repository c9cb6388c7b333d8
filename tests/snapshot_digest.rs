//! Pins the exact bytes of freshly built vp- and mvp-tree snapshots.
//!
//! The snapshot encoder writes every node-arena array verbatim, next to
//! the params and the items, so one FNV-1a 64 digest per snapshot pins
//! the whole built tree: vantage ids, cutoffs, child links, leaf rows,
//! `D1`/`D2`/`PATH`, and the preorder they are laid out in. Any change
//! to construction that is not bit-identical moves a digest.
//!
//! The matrix covers both structures, both item types, several shapes,
//! and one versus four workers. With n = 2 000 items the root's distance
//! sweep runs in parallel (≥ 1 024 items) and multi-worker builds splice
//! subtrees built into worker-local arenas.

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

fn vp_digests() -> Vec<(String, u64)> {
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
                ));
                let tree = VpTree::build(words.clone(), Levenshtein, params).unwrap();
                out.push((
                    format!("vp edit order={order} leaf={leaf} t={threads}"),
                    fnv1a64(&encode_vp_tree(&tree)),
                ));
            }
        }
    }
    out
}

fn mvp_digests() -> Vec<(String, u64)> {
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
                ));
                let tree = MvpTree::build(words.clone(), Levenshtein, params).unwrap();
                out.push((
                    format!("mvp edit m={m} k={k} p={p} {second:?} t={threads}"),
                    fnv1a64(&encode_mvp_tree(&tree)),
                ));
            }
        }
    }
    out
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

const VP_PINNED: &[(&str, u64)] = &[
    ("vp l2 order=2 leaf=1 t=1", 0xabf797f3f8f97ac4),
    ("vp edit order=2 leaf=1 t=1", 0xc9dc273a32e855c9),
    ("vp l2 order=2 leaf=1 t=4", 0xafc8a1ea31ff1b8d),
    ("vp edit order=2 leaf=1 t=4", 0x4cbdd7f9c86493a8),
    ("vp l2 order=2 leaf=4 t=1", 0xefccb7c91dbe70fc),
    ("vp edit order=2 leaf=4 t=1", 0x559703221a4fe27e),
    ("vp l2 order=2 leaf=4 t=4", 0x7bd3f33560bec919),
    ("vp edit order=2 leaf=4 t=4", 0x82cb0ac518000a17),
    ("vp l2 order=3 leaf=1 t=1", 0x7fb62ede9ad3db07),
    ("vp edit order=3 leaf=1 t=1", 0x46b8b15ea44d949a),
    ("vp l2 order=3 leaf=1 t=4", 0x88ce20595c0f9722),
    ("vp edit order=3 leaf=1 t=4", 0x378c138bc080b133),
    ("vp l2 order=3 leaf=4 t=1", 0xa49fdb7c6c12d01e),
    ("vp edit order=3 leaf=4 t=1", 0x9a653ea73da57355),
    ("vp l2 order=3 leaf=4 t=4", 0x0dccb6e4068b5217),
    ("vp edit order=3 leaf=4 t=4", 0xa2fefb52143f6024),
];

const MVP_PINNED: &[(&str, u64)] = &[
    ("mvp l2 m=2 k=1 p=0 Farthest t=1", 0xed6646efa6de1af7),
    ("mvp edit m=2 k=1 p=0 Farthest t=1", 0x4867e2ee481e818e),
    ("mvp l2 m=2 k=1 p=0 Farthest t=4", 0xfc7c97379d7adddc),
    ("mvp edit m=2 k=1 p=0 Farthest t=4", 0xa3b37b8b96826989),
    ("mvp l2 m=2 k=1 p=0 Random t=1", 0xa224b87f73744858),
    ("mvp edit m=2 k=1 p=0 Random t=1", 0xf422cfa5ce6b0acc),
    ("mvp l2 m=2 k=1 p=0 Random t=4", 0x7742e61290b5a253),
    ("mvp edit m=2 k=1 p=0 Random t=4", 0xdc26f71e8622367b),
    ("mvp l2 m=2 k=4 p=3 Farthest t=1", 0x0c5ba3666fc25c1b),
    ("mvp edit m=2 k=4 p=3 Farthest t=1", 0x3843cd8ef8489cca),
    ("mvp l2 m=2 k=4 p=3 Farthest t=4", 0x79ae3270bbefd4e4),
    ("mvp edit m=2 k=4 p=3 Farthest t=4", 0xcee2ba6499ca2c61),
    ("mvp l2 m=2 k=4 p=3 Random t=1", 0xff59b14475e76ce5),
    ("mvp edit m=2 k=4 p=3 Random t=1", 0x9115ada495bb3df2),
    ("mvp l2 m=2 k=4 p=3 Random t=4", 0x8f80a310ab8e954e),
    ("mvp edit m=2 k=4 p=3 Random t=4", 0xdb401a6241d03f7d),
    ("mvp l2 m=3 k=9 p=5 Farthest t=1", 0xc98cc2dee7a11f8f),
    ("mvp edit m=3 k=9 p=5 Farthest t=1", 0xfe56c0c6e36aae8a),
    ("mvp l2 m=3 k=9 p=5 Farthest t=4", 0x98be72ae96f012dc),
    ("mvp edit m=3 k=9 p=5 Farthest t=4", 0x9679512533c32049),
    ("mvp l2 m=3 k=9 p=5 Random t=1", 0x2c0de9aba23626af),
    ("mvp edit m=3 k=9 p=5 Random t=1", 0x6a5aff5715e740c0),
    ("mvp l2 m=3 k=9 p=5 Random t=4", 0x03568c0b7a0e9598),
    ("mvp edit m=3 k=9 p=5 Random t=4", 0x0bbe305479c5afc3),
    ("mvp l2 m=3 k=80 p=5 Farthest t=1", 0xaff8950155fdde94),
    ("mvp edit m=3 k=80 p=5 Farthest t=1", 0x479590a765477209),
    ("mvp l2 m=3 k=80 p=5 Farthest t=4", 0xa8072bfa932c76d3),
    ("mvp edit m=3 k=80 p=5 Farthest t=4", 0x709efea0a026a8f2),
    ("mvp l2 m=3 k=80 p=5 Random t=1", 0x92a20423cf576992),
    ("mvp edit m=3 k=80 p=5 Random t=1", 0x2509d4a0eb3beac1),
    ("mvp l2 m=3 k=80 p=5 Random t=4", 0xda67a13836ed633d),
    ("mvp edit m=3 k=80 p=5 Random t=4", 0xf7175536dffdfb86),
];

#[test]
fn vp_tree_snapshots_are_bit_identical() {
    check(&vp_digests(), VP_PINNED);
}

#[test]
fn mvp_tree_snapshots_are_bit_identical() {
    check(&mvp_digests(), MVP_PINNED);
}
