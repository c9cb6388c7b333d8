//! Byte-exact span parsing for the flat payloads (format v2 onwards).
//!
//! The load path (`open_*` and `decode_*` alike) runs this parser over
//! each section payload. It walks the payload once with the
//! bounds-checked [`Cursor`], verifies every declared count against the
//! bytes actually present, and returns each flat array's byte [`Range`]
//! within the file, which the loader then reinterprets in place. A payload
//! that passes here has exactly the shape the arena views expect — the
//! structural invariants (child ids in range, leaf tilings, cutoff
//! monotonicity) are then checked by the tree crates' `validate_arena`
//! before any search runs.
//!
//! ## Items payload (every item encoding)
//!
//! ```text
//! pad to 8 │ count u64 │ offsets u64 × (count+1) │ element data
//! ```
//!
//! Offsets are cumulative element counts (f64s or bytes for vectors,
//! bytes for strings): item `i` is `data[offsets[i] .. offsets[i+1]]`.
//! The parser checks `offsets[0] == 0`, that the sequence never
//! decreases, and that `offsets[count]` equals the data region's length
//! exactly. The vector encodings further require `offsets[i] = i·d`
//! (see `F64Vectors`, `U8Vectors`), since their rows are read by stride.
//!
//! ## Vp-tree structure payload
//!
//! ```text
//! pad to 8 │ root u32 │ nodes u32 │ internal u32 │ leaves u32
//! │ leaf items u32 │ meta u32 × nodes │ vantage u32 × internal
//! │ children u32 × internal·order │ leaf spans u32 × leaves·2
//! │ leaf items u32 × total │ pad to 8 │ cutoffs f64 × internal·(order−1)
//! ```
//!
//! ## Mvp-tree structure payload
//!
//! ```text
//! pad to 8 │ path total u64 │ root u32 │ nodes u32 │ internal u32
//! │ leaves u32 │ entries u32 │ meta u32 × nodes │ vp1, vp2 u32 × internal
//! │ children u32 × internal·m² │ leaf heads u32 × leaves·6
//! │ ids u32 × entries │ pad to 8 │ cutoffs1 f64 × internal·(m−1)
//! │ cutoffs2 f64 × internal·m·(m−1) │ d1, d2 f64 × entries
//! │ path f64 × path total
//! ```
//!
//! `root` is `u32::MAX` for an empty tree (node ids are capped at
//! 2³¹ − 1, so the sentinel is unambiguous). All padding is zeros and
//! is relative to the payload's absolute file offset (`base`), so every
//! `u64`/`f64` array in a mapped file is 8-byte aligned in memory.

use std::ops::Range;

use vantage_core::{Result, VantageError};

use crate::wire::Cursor;

fn corrupt(detail: impl Into<String>) -> VantageError {
    VantageError::corrupt(detail)
}

/// Multiplies array-shape factors, failing typed instead of wrapping.
fn shape(n: usize, stride: usize, what: &str) -> Result<usize> {
    n.checked_mul(stride)
        .ok_or_else(|| corrupt(format!("{what}: {n} × {stride} overflows")))
}

/// Consumes `need` bytes and returns their file range (`base` is the
/// payload's file offset).
fn span(cur: &mut Cursor<'_>, base: usize, need: usize, what: &str) -> Result<Range<usize>> {
    let start = base + cur.position();
    cur.take(need, what)?;
    Ok(start..start + need)
}

/// Consumes `n` `u32`s and returns their file range.
fn u32_span(cur: &mut Cursor<'_>, base: usize, n: usize, what: &str) -> Result<Range<usize>> {
    span(cur, base, shape(n, 4, what)?, what)
}

/// Consumes `n` `f64`s and returns their file range.
fn f64_span(cur: &mut Cursor<'_>, base: usize, n: usize, what: &str) -> Result<Range<usize>> {
    span(cur, base, shape(n, 8, what)?, what)
}

/// Validated spans of a flat items payload.
#[derive(Debug)]
pub(crate) struct ItemsLayout {
    /// Number of items (equals the header count).
    pub count: usize,
    /// The `count + 1` cumulative offsets (element units), verified to
    /// start at 0 and never decrease.
    pub offsets: Vec<u64>,
    /// File range of the offsets array.
    pub offsets_bytes: Range<usize>,
    /// File range of the element data.
    pub data: Range<usize>,
}

impl ItemsLayout {
    /// Parses a flat items payload. `base` is the payload's absolute file
    /// offset (the alignment origin), `expect` the header's item count
    /// and `elem` the bytes per data element (8 for `f64` vectors, 1
    /// for UTF-8 strings).
    pub(crate) fn parse(payload: &[u8], base: usize, expect: u64, elem: usize) -> Result<Self> {
        let mut cur = Cursor::new(payload);
        cur.align8(base, "items alignment")?;
        let declared = cur.u64("items count")?;
        if declared != expect {
            return Err(corrupt(format!(
                "items payload declares {declared} items, header says {expect}"
            )));
        }
        let count = usize::try_from(declared)
            .map_err(|_| corrupt(format!("item count {declared} exceeds address space")))?;
        let fences = count
            .checked_add(1)
            .ok_or_else(|| corrupt("item count overflows"))?;
        let offsets_start = base + cur.position();
        let offsets = cur.u64s(fences, "item offsets")?;
        let offsets_bytes = offsets_start..base + cur.position();
        if offsets[0] != 0 {
            return Err(corrupt(format!(
                "item offsets start at {}, expected 0",
                offsets[0]
            )));
        }
        if offsets.windows(2).any(|w| w[1] < w[0]) {
            return Err(corrupt("item offsets decrease"));
        }
        let total = usize::try_from(offsets[count])
            .map_err(|_| corrupt("item data length exceeds address space"))?;
        let data = span(
            &mut cur,
            base,
            shape(total, elem, "item data")?,
            "item data",
        )?;
        cur.finish("items payload")?;
        Ok(ItemsLayout {
            count,
            offsets,
            offsets_bytes,
            data,
        })
    }
}

/// Validated spans of a flat vp-tree structure payload.
#[derive(Debug)]
pub(crate) struct VpLayout {
    /// Root node id, `u32::MAX` for an empty tree.
    pub root: u32,
    /// Per-node meta words (`nodes` u32s).
    pub meta: Range<usize>,
    /// Vantage-point ids (`internal` u32s).
    pub vantage: Range<usize>,
    /// Child-slot buffer (`internal × order` u32s).
    pub children: Range<usize>,
    /// Leaf `(start, len)` spans (`leaves × 2` u32s).
    pub leaf_spans: Range<usize>,
    /// Shared leaf bucket buffer (u32s).
    pub leaf_items: Range<usize>,
    /// Cutoff buffer (`internal × (order − 1)` f64s).
    pub cutoffs: Range<usize>,
}

impl VpLayout {
    /// Parses a flat vp-tree structure payload laid out for fanout
    /// `order`.
    pub(crate) fn parse(payload: &[u8], base: usize, order: usize) -> Result<Self> {
        if order < 2 {
            return Err(corrupt(format!("vp-tree order {order} (minimum 2)")));
        }
        let mut cur = Cursor::new(payload);
        cur.align8(base, "structure alignment")?;
        let root = cur.u32("root")?;
        let nodes = cur.u32("node count")? as usize;
        let internal = cur.u32("internal count")? as usize;
        let leaves = cur.u32("leaf count")? as usize;
        let leaf_total = cur.u32("leaf item total")? as usize;
        if internal.checked_add(leaves) != Some(nodes) {
            return Err(corrupt(format!(
                "node classes do not tile: {internal} internal + {leaves} leaves ≠ {nodes} nodes"
            )));
        }
        let meta = u32_span(&mut cur, base, nodes, "meta words")?;
        let vantage = u32_span(&mut cur, base, internal, "vantage ids")?;
        let children = u32_span(
            &mut cur,
            base,
            shape(internal, order, "children")?,
            "children",
        )?;
        let leaf_spans = u32_span(
            &mut cur,
            base,
            shape(leaves, 2, "leaf spans")?,
            "leaf spans",
        )?;
        let leaf_items = u32_span(&mut cur, base, leaf_total, "leaf items")?;
        cur.align8(base, "cutoff alignment")?;
        let cutoffs = f64_span(
            &mut cur,
            base,
            shape(internal, order - 1, "cutoffs")?,
            "cutoffs",
        )?;
        cur.finish("structure payload")?;
        Ok(VpLayout {
            root,
            meta,
            vantage,
            children,
            leaf_spans,
            leaf_items,
            cutoffs,
        })
    }
}

/// Validated spans of a flat mvp-tree structure payload.
#[derive(Debug)]
pub(crate) struct MvpLayout {
    /// Root node id, `u32::MAX` for an empty tree.
    pub root: u32,
    /// Per-node meta words (`nodes` u32s).
    pub meta: Range<usize>,
    /// First vantage points (`internal` u32s).
    pub vp1: Range<usize>,
    /// Second vantage points (`internal` u32s).
    pub vp2: Range<usize>,
    /// Child-slot buffer (`internal × m²` u32s).
    pub children: Range<usize>,
    /// 6-word leaf heads (`leaves × 6` u32s).
    pub leaf_heads: Range<usize>,
    /// Shared leaf entry-id column (u32s).
    pub ids: Range<usize>,
    /// First-level cutoffs (`internal × (m − 1)` f64s).
    pub cutoffs1: Range<usize>,
    /// Second-level cutoffs (`internal × m × (m − 1)` f64s).
    pub cutoffs2: Range<usize>,
    /// Shared `D1` column (f64s).
    pub d1: Range<usize>,
    /// Shared `D2` column (f64s).
    pub d2: Range<usize>,
    /// Shared row-major PATH buffer (f64s).
    pub path: Range<usize>,
}

impl MvpLayout {
    /// Parses a flat mvp-tree structure payload laid out for fanout `m`.
    pub(crate) fn parse(payload: &[u8], base: usize, m: usize) -> Result<Self> {
        if m < 2 {
            return Err(corrupt(format!("mvp-tree fanout m = {m} (minimum 2)")));
        }
        let mut cur = Cursor::new(payload);
        cur.align8(base, "structure alignment")?;
        let path_total = usize::try_from(cur.u64("PATH total")?)
            .map_err(|_| corrupt("PATH total exceeds address space"))?;
        let root = cur.u32("root")?;
        let nodes = cur.u32("node count")? as usize;
        let internal = cur.u32("internal count")? as usize;
        let leaves = cur.u32("leaf count")? as usize;
        let entries = cur.u32("entry total")? as usize;
        if internal.checked_add(leaves) != Some(nodes) {
            return Err(corrupt(format!(
                "node classes do not tile: {internal} internal + {leaves} leaves ≠ {nodes} nodes"
            )));
        }
        let meta = u32_span(&mut cur, base, nodes, "meta words")?;
        let vp1 = u32_span(&mut cur, base, internal, "first vantage ids")?;
        let vp2 = u32_span(&mut cur, base, internal, "second vantage ids")?;
        let m2 = shape(m, m, "m²")?;
        let children = u32_span(&mut cur, base, shape(internal, m2, "children")?, "children")?;
        let leaf_heads = u32_span(
            &mut cur,
            base,
            shape(leaves, 6, "leaf heads")?,
            "leaf heads",
        )?;
        let ids = u32_span(&mut cur, base, entries, "entry ids")?;
        cur.align8(base, "cutoff alignment")?;
        let cutoffs1 = f64_span(
            &mut cur,
            base,
            shape(internal, m - 1, "cutoffs1")?,
            "cutoffs1",
        )?;
        let rows = shape(m, m - 1, "cutoff rows")?;
        let cutoffs2 = f64_span(
            &mut cur,
            base,
            shape(internal, rows, "cutoffs2")?,
            "cutoffs2",
        )?;
        let d1 = f64_span(&mut cur, base, entries, "D1 column")?;
        let d2 = f64_span(&mut cur, base, entries, "D2 column")?;
        let path = f64_span(&mut cur, base, path_total, "PATH buffer")?;
        cur.finish("structure payload")?;
        Ok(MvpLayout {
            root,
            meta,
            vp1,
            vp2,
            children,
            leaf_heads,
            ids,
            cutoffs1,
            cutoffs2,
            d1,
            d2,
            path,
        })
    }
}
