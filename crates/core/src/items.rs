//! Item storage abstraction for search kernels.
//!
//! Every tree stores its items in **row order**: the order its leaf
//! scans read them, so the candidates of one leaf sit in one contiguous
//! block of the store instead of being scattered across it by item id.
//! A search kernel reads a leaf entry's item straight from its row, and
//! resolves a vantage point (or any caller-facing item id) through the
//! tree's *id→row table*. Results always report the original item ids;
//! the row order only changes where the bytes live.
//!
//! Owned indexes keep their items in a `Vec<T>` (permuted into row
//! order once, in place, at build time — see [`permute_to_rows`]); the
//! zero-copy snapshot path keeps them as flat offset-indexed buffers
//! borrowed straight from a memory-mapped file, written in row order.
//! [`ItemStore`] abstracts over both so a kernel is written once and
//! answers bit-identically over either representation. The id→row
//! table is never stored: each tree derives it from its node arena in
//! one O(n) pass ([`id_rows`]).
//!
//! The borrowed stores ([`FlatF64s`], [`FlatStrs`]) have an **unsized**
//! item type (`[f64]`, `str`): they hand out sub-slices of one
//! contiguous buffer, so there is no owned `Vec<f64>`/`String` value to
//! return a reference to. The shipped vector and string metrics all
//! implement `Metric<[f64]>` / `Metric<str>`, so the same metric value
//! drives both representations.

/// Resolves row indices to borrowed items.
///
/// Implementations must be total over `0..len()`: `get(row)` may panic
/// only for `row >= len()`, and every caller guarantees rows in range
/// (tree validation rejects out-of-range ids before a kernel ever
/// runs, and a valid arena maps ids onto rows one to one).
pub trait ItemStore {
    /// The borrowed item type (possibly unsized: `[f64]`, `str`).
    type Item: ?Sized;

    /// Number of items in the store.
    fn len(&self) -> usize;

    /// Whether the store is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The item stored at `row`.
    fn get(&self, row: u32) -> &Self::Item;
}

/// Inverts a tree's row order — the item id stored at each row, in row
/// order — into its id→row table (`rows[id]` is the row holding `id`).
///
/// `order` must name every id in `0..n` exactly once; the trees'
/// structural validation guarantees that before any table is derived.
///
/// # Panics
///
/// Panics if an id is `>= n`.
pub fn id_rows(order: impl IntoIterator<Item = u32>, n: usize) -> Vec<u32> {
    let mut rows = vec![u32::MAX; n];
    let mut row = 0u32;
    for id in order {
        debug_assert_eq!(rows[id as usize], u32::MAX, "id {id} appears twice");
        rows[id as usize] = row;
        row += 1;
    }
    debug_assert_eq!(row as usize, n, "row order covers every id");
    rows
}

/// Moves `items` (in id order) into row order in place: afterwards
/// `items[rows[id]]` is the item that was at `items[id]`. Items are
/// only swapped, never cloned; the scratch is one copy of `rows`.
///
/// # Panics
///
/// Panics if `rows` is shorter than `items` or names a row out of
/// range.
pub fn permute_to_rows<T>(items: &mut [T], rows: &[u32]) {
    // Follow each cycle of the permutation: `dest[i]` is where the item
    // currently at `i` belongs, and every swap settles one item.
    let mut dest = rows[..items.len()].to_vec();
    for i in 0..items.len() {
        while dest[i] as usize != i {
            let j = dest[i] as usize;
            items.swap(i, j);
            dest.swap(i, j);
        }
    }
}

/// A slice of owned items — the store behind every materialized index.
impl<T> ItemStore for [T] {
    type Item = T;

    fn len(&self) -> usize {
        <[T]>::len(self)
    }

    fn get(&self, row: u32) -> &T {
        &self[row as usize]
    }
}

impl<S: ItemStore + ?Sized> ItemStore for &S {
    type Item = S::Item;

    fn len(&self) -> usize {
        (**self).len()
    }

    fn get(&self, row: u32) -> &S::Item {
        (**self).get(row)
    }
}

/// Borrowed flat store of `f64` vectors: one contiguous value buffer
/// plus `len + 1` offsets (in `f64` units) delimiting each vector.
///
/// The item at row `i` is `data[offsets[i] .. offsets[i + 1]]`. The constructor
/// does not re-validate monotonicity or bounds — the snapshot loader
/// checks both before any store is built (and covers the buffers with a
/// section checksum), so `get` uses plain checked slicing.
#[derive(Debug, Clone, Copy)]
pub struct FlatF64s<'a> {
    offsets: &'a [u64],
    data: &'a [f64],
}

impl<'a> FlatF64s<'a> {
    /// Wraps validated offset/value buffers.
    ///
    /// # Panics
    ///
    /// Panics if `offsets` is empty (a valid store always carries
    /// `len + 1` offsets, so at least one).
    pub fn new(offsets: &'a [u64], data: &'a [f64]) -> Self {
        assert!(!offsets.is_empty(), "offset table carries len + 1 entries");
        FlatF64s { offsets, data }
    }
}

impl ItemStore for FlatF64s<'_> {
    type Item = [f64];

    fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    fn get(&self, row: u32) -> &[f64] {
        let i = row as usize;
        let start = self.offsets[i] as usize;
        let end = self.offsets[i + 1] as usize;
        &self.data[start..end]
    }
}

/// Borrowed flat store of UTF-8 strings: one contiguous text buffer
/// plus `len + 1` byte offsets delimiting each string (row `i` is
/// `text[offsets[i] .. offsets[i + 1]]`).
///
/// The loader validates that the whole buffer is UTF-8 and that every
/// offset lands on a character boundary, so slicing here cannot panic
/// for validated inputs.
#[derive(Debug, Clone, Copy)]
pub struct FlatStrs<'a> {
    offsets: &'a [u64],
    text: &'a str,
}

impl<'a> FlatStrs<'a> {
    /// Wraps validated offset/text buffers.
    ///
    /// # Panics
    ///
    /// Panics if `offsets` is empty.
    pub fn new(offsets: &'a [u64], text: &'a str) -> Self {
        assert!(!offsets.is_empty(), "offset table carries len + 1 entries");
        FlatStrs { offsets, text }
    }
}

impl ItemStore for FlatStrs<'_> {
    type Item = str;

    fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    fn get(&self, row: u32) -> &str {
        let i = row as usize;
        let start = self.offsets[i] as usize;
        let end = self.offsets[i + 1] as usize;
        &self.text[start..end]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_are_stores() {
        let items = vec![vec![1.0], vec![2.0, 3.0]];
        let store: &[Vec<f64>] = &items;
        assert_eq!(ItemStore::len(&store), 2);
        // The slice's inherent `get` (returning `Option`) wins method
        // resolution, so call the trait method by path.
        assert_eq!(ItemStore::get(&store, 1), &vec![2.0, 3.0]);
    }

    #[test]
    fn id_rows_inverts_a_row_order() {
        assert_eq!(id_rows([2, 0, 3, 1], 4), vec![1, 3, 0, 2]);
        assert!(id_rows([], 0).is_empty());
    }

    #[test]
    fn permute_to_rows_moves_each_item_to_its_row() {
        let order = [4u32, 1, 3, 0, 2, 5];
        let rows = id_rows(order, order.len());
        let mut items: Vec<String> = (0..6).map(|i| format!("item{i}")).collect();
        permute_to_rows(&mut items, &rows);
        for (row, id) in order.iter().enumerate() {
            assert_eq!(items[row], format!("item{id}"));
        }
    }

    #[test]
    fn flat_f64s_resolve_rows() {
        let offsets = [0u64, 2, 2, 5];
        let data = [1.0, 2.0, 9.0, 8.0, 7.0];
        let store = FlatF64s::new(&offsets, &data);
        assert_eq!(store.len(), 3);
        assert_eq!(store.get(0), &[1.0, 2.0]);
        assert_eq!(store.get(1), &[] as &[f64]);
        assert_eq!(store.get(2), &[9.0, 8.0, 7.0]);
    }

    #[test]
    fn flat_strs_resolve_rows() {
        let offsets = [0u64, 5, 5, 11];
        let store = FlatStrs::new(&offsets, "hello world");
        assert_eq!(store.len(), 3);
        assert_eq!(store.get(0), "hello");
        assert_eq!(store.get(1), "");
        assert_eq!(store.get(2), " world");
    }
}
