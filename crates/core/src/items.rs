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
//! A tree owns its rows as a [`RowStore`], permuted into row order once,
//! in place, at build time ([`RowStore::permute`]). A tree can keep a
//! `Vec<T>`; the three item types a snapshot can hold are packed into
//! one flat buffer each:
//! [`F64Rows`] and [`U8Rows`] (every vector `d` values wide, row `i` at
//! `data[i·d .. (i+1)·d]`) and [`StrRows`] (one text buffer plus
//! `len + 1` byte offsets). Their borrowed views, [`FlatF64s`],
//! [`FlatU8s`] and [`FlatStrs`], are exactly what the zero-copy
//! snapshot path builds over a memory-mapped file, so a tree built in
//! memory and a tree mapped from disk search the same rows through the
//! same kernels.
//! [`ItemStore`] abstracts over every view, so a kernel is written once
//! and answers bit-identically over either representation. The id→row
//! table is never stored: each tree derives it from its node arena in
//! one O(n) pass ([`id_rows`]).
//!
//! The flat views have an **unsized** item type (`[f64]`, `[u8]`,
//! `str`): they hand out sub-slices of one contiguous buffer, so there
//! is no owned `Vec<f64>`/`String` value to return a reference to. The
//! shipped vector and string metrics all implement `Metric<[f64]>` /
//! `Metric<str>` (L1 and L2 also `Metric<[u8]>`), so the same metric
//! value drives both representations. Item types with no flat encoding
//! (images, histograms) stay in a `Vec<T>`.

use crate::error::{Result, VantageError};

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

/// Moves `len` items (in id order) into row order in place, through
/// `swap(i, j)`: afterwards the item that was at `id` is at `rows[id]`.
/// Items are only swapped, never cloned; the scratch is one copy of
/// `rows`.
///
/// # Panics
///
/// Panics if `rows` is shorter than `len` or names a row out of range.
fn permute_by(len: usize, rows: &[u32], mut swap: impl FnMut(usize, usize)) {
    // Follow each cycle of the permutation: `dest[i]` is where the item
    // currently at `i` belongs, and every swap settles one item.
    let mut dest = rows[..len].to_vec();
    for i in 0..len {
        while dest[i] as usize != i {
            let j = dest[i] as usize;
            swap(i, j);
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

/// Borrowed flat store of vectors of one dimension `d` over elements
/// `E`: row `i` is `data[i·d .. (i+1)·d]`, addressed by one multiply
/// with no per-row offsets.
///
/// The snapshot loader refuses any vector section whose rows are not
/// all `d` wide before a store is built (and covers the buffer with a
/// section checksum), so `get` uses plain checked slicing.
#[derive(Debug)]
pub struct FlatVecs<'a, E> {
    data: &'a [E],
    dim: usize,
    len: usize,
}

/// A flat store of `f64` vectors (the `f64-vector` snapshot encoding).
pub type FlatF64s<'a> = FlatVecs<'a, f64>;

/// A flat store of byte vectors (the `u8-vector` snapshot encoding).
pub type FlatU8s<'a> = FlatVecs<'a, u8>;

// Derived `Clone`/`Copy` would demand `E: Copy`; a view copies as a
// borrow whatever `E` is.
impl<E> Clone for FlatVecs<'_, E> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<E> Copy for FlatVecs<'_, E> {}

impl<'a, E> FlatVecs<'a, E> {
    /// Wraps `len` rows of `dim` values each.
    ///
    /// # Panics
    ///
    /// Panics if `data` does not hold exactly `len · dim` values.
    pub fn new(data: &'a [E], dim: usize, len: usize) -> Self {
        assert_eq!(
            Some(data.len()),
            len.checked_mul(dim),
            "{len} rows of {dim}"
        );
        FlatVecs { data, dim, len }
    }

    /// The vector at `row`, borrowed for the buffer's lifetime rather
    /// than the store's ([`ItemStore::get`] can only lend the latter).
    #[inline]
    pub fn row(&self, row: u32) -> &'a [E] {
        let start = row as usize * self.dim;
        &self.data[start..start + self.dim]
    }
}

impl<E> ItemStore for FlatVecs<'_, E> {
    type Item = [E];

    fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn get(&self, row: u32) -> &[E] {
        self.row(row)
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

    /// The string at `row`, borrowed for the buffers' lifetime (see
    /// [`FlatF64s::row`]).
    pub fn row(&self, row: u32) -> &'a str {
        let i = row as usize;
        let start = self.offsets[i] as usize;
        let end = self.offsets[i + 1] as usize;
        &self.text[start..end]
    }
}

impl ItemStore for FlatStrs<'_> {
    type Item = str;

    fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    fn get(&self, row: u32) -> &str {
        self.row(row)
    }
}

/// The rows a tree owns, packed from its items of type `T` and searched
/// through a borrowed [`ItemStore`] view.
///
/// `Vec<T>` is the store every tree can be built in; [`F64Rows`],
/// [`U8Rows`] and [`StrRows`] are the flat stores for `Vec<f64>`,
/// `Vec<u8>` and `String` items, whose views are the ones a mapped
/// snapshot serves.
pub trait RowStore<T>: Sized {
    /// The borrowed item type queries take (`T` itself, `[f64]`, `[u8]`,
    /// `str`).
    type Item: ?Sized;
    /// The borrowed store the search kernels read.
    type View<'a>: ItemStore<Item = Self::Item> + Copy
    where
        Self: 'a;

    /// Packs `items`, keeping their order.
    ///
    /// # Errors
    ///
    /// [`VantageError::DimensionMismatch`] when a fixed-width store is
    /// handed vectors of different lengths.
    fn from_items(items: Vec<T>) -> Result<Self>;

    /// Packs borrowed rows, keeping their order (a rebuild repacks a
    /// tree's rows without an owned copy of each).
    ///
    /// # Errors
    ///
    /// As [`from_items`](RowStore::from_items).
    fn from_rows<'a>(rows: impl Iterator<Item = &'a Self::Item>) -> Result<Self>
    where
        Self::Item: ToOwned<Owned = T> + 'a,
    {
        Self::from_items(rows.map(ToOwned::to_owned).collect())
    }

    /// The borrowed view the search kernels read.
    fn view(&self) -> Self::View<'_>;

    /// The item at `row`, borrowed for the store's lifetime.
    fn row(&self, row: u32) -> &Self::Item;

    /// Moves the items (in id order) into row order: afterwards the item
    /// that was at `id` is at row `rows[id]` ([`id_rows`]).
    fn permute(&mut self, rows: &[u32]);
}

impl<T> RowStore<T> for Vec<T> {
    type Item = T;
    type View<'a>
        = &'a [T]
    where
        Self: 'a;

    fn from_items(items: Vec<T>) -> Result<Self> {
        Ok(items)
    }

    fn view(&self) -> &[T] {
        self
    }

    fn row(&self, row: u32) -> &T {
        &self[row as usize]
    }

    fn permute(&mut self, rows: &[u32]) {
        permute_by(self.len(), rows, |i, j| self.swap(i, j));
    }
}

/// Owned flat store of vectors of one dimension: the heap twin of a
/// mapped [`FlatVecs`], one `Vec<E>` holding every row.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VecRows<E> {
    data: Vec<E>,
    dim: usize,
    len: usize,
}

/// The owned twin of [`FlatF64s`].
pub type F64Rows = VecRows<f64>;

/// The owned twin of [`FlatU8s`].
pub type U8Rows = VecRows<u8>;

impl<E: Copy + 'static> RowStore<Vec<E>> for VecRows<E> {
    type Item = [E];
    type View<'a>
        = FlatVecs<'a, E>
    where
        Self: 'a;

    fn from_items(items: Vec<Vec<E>>) -> Result<Self> {
        Self::from_rows(items.iter().map(Vec::as_slice))
    }

    fn from_rows<'a>(mut rows: impl Iterator<Item = &'a [E]>) -> Result<Self> {
        let Some(first) = rows.next() else {
            return Ok(VecRows {
                data: Vec::new(),
                dim: 0,
                len: 0,
            });
        };
        let dim = first.len();
        let mut data = Vec::with_capacity((rows.size_hint().0 + 1) * dim);
        data.extend_from_slice(first);
        let mut len = 1;
        for row in rows {
            if row.len() != dim {
                return Err(VantageError::DimensionMismatch {
                    left: dim,
                    right: row.len(),
                });
            }
            data.extend_from_slice(row);
            len += 1;
        }
        Ok(VecRows { data, dim, len })
    }

    fn view(&self) -> FlatVecs<'_, E> {
        FlatVecs::new(&self.data, self.dim, self.len)
    }

    fn row(&self, row: u32) -> &[E] {
        let start = row as usize * self.dim;
        &self.data[start..start + self.dim]
    }

    fn permute(&mut self, rows: &[u32]) {
        let (data, dim) = (&mut self.data, self.dim);
        permute_by(self.len, rows, |i, j| {
            let (low, high) = (i.min(j), i.max(j));
            let (head, tail) = data.split_at_mut(high * dim);
            head[low * dim..(low + 1) * dim].swap_with_slice(&mut tail[..dim]);
        });
    }
}

/// Owned flat store of strings: the heap twin of a mapped [`FlatStrs`].
#[derive(Debug, Clone, PartialEq)]
pub struct StrRows {
    offsets: Vec<u64>,
    text: String,
}

impl RowStore<String> for StrRows {
    type Item = str;
    type View<'a> = FlatStrs<'a>;

    fn from_items(items: Vec<String>) -> Result<Self> {
        Self::from_rows(items.iter().map(String::as_str))
    }

    fn from_rows<'a>(rows: impl Iterator<Item = &'a str>) -> Result<Self> {
        let mut packed = StrRows {
            offsets: vec![0],
            text: String::new(),
        };
        for row in rows {
            packed.text.push_str(row);
            packed.offsets.push(packed.text.len() as u64);
        }
        Ok(packed)
    }

    fn view(&self) -> FlatStrs<'_> {
        FlatStrs::new(&self.offsets, &self.text)
    }

    fn row(&self, row: u32) -> &str {
        self.view().row(row)
    }

    fn permute(&mut self, rows: &[u32]) {
        // Rows of different widths do not swap in place: gather them.
        let mut ids = vec![0; rows.len()];
        for (id, &row) in rows.iter().enumerate() {
            ids[row as usize] = id as u32;
        }
        let packed = Self::from_rows(ids.iter().map(|&id| self.row(id)));
        *self = packed.expect("strings of any width pack");
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
    fn every_store_permutes_each_item_to_its_row() {
        let order = [4u32, 1, 3, 0, 2, 5];
        let rows = id_rows(order, order.len());
        let words: Vec<String> = (0..6).map(|i| format!("item{i}")).collect();
        let vectors: Vec<Vec<f64>> = (0..6).map(|i| vec![f64::from(i); 3]).collect();
        let mut owned = words.clone();
        owned.permute(&rows);
        let mut strs = StrRows::from_items(words).unwrap();
        strs.permute(&rows);
        let mut bytes = U8Rows::from_items(
            vectors
                .iter()
                .map(|v| v.iter().map(|&x| x as u8).collect())
                .collect(),
        )
        .unwrap();
        bytes.permute(&rows);
        let mut flat = F64Rows::from_items(vectors).unwrap();
        flat.permute(&rows);
        for (row, &id) in order.iter().enumerate() {
            assert_eq!(owned[row], format!("item{id}"));
            assert_eq!(strs.row(row as u32), format!("item{id}"));
            assert_eq!(flat.row(row as u32), &[f64::from(id); 3]);
            assert_eq!(bytes.row(row as u32), &[id as u8; 3]);
        }
    }

    #[test]
    fn flat_f64s_resolve_rows_by_stride() {
        let data = [1.0, 2.0, 9.0, 8.0, 7.0, 6.0];
        let store = FlatF64s::new(&data, 2, 3);
        assert_eq!(store.len(), 3);
        assert_eq!(store.get(0), &[1.0, 2.0]);
        assert_eq!(store.get(2), &[7.0, 6.0]);
        let empty = FlatF64s::new(&[], 0, 4);
        assert_eq!(empty.len(), 4);
        assert_eq!(empty.get(3), &[] as &[f64]);
    }

    #[test]
    fn f64_rows_pack_vectors_and_refuse_ragged_ones() {
        let rows = F64Rows::from_items(vec![vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(rows.view().len(), 2);
        assert_eq!(rows.row(1), &[3.0, 4.0]);
        let err = F64Rows::from_items(vec![vec![0.0; 2], vec![0.0; 3], vec![0.0; 2]]).unwrap_err();
        assert_eq!(err, VantageError::DimensionMismatch { left: 2, right: 3 });
        assert_eq!(F64Rows::from_items(Vec::new()).unwrap().view().len(), 0);
    }

    #[test]
    fn str_rows_pack_strings() {
        let rows = StrRows::from_items(vec!["héllo".into(), String::new(), "x".into()]).unwrap();
        assert_eq!(rows.view().len(), 3);
        assert_eq!(rows.row(0), "héllo");
        assert_eq!(rows.row(1), "");
        assert_eq!(rows.row(2), "x");
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
