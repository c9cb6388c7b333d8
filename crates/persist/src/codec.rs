//! Item and metric identification for typed snapshot loading.
//!
//! A snapshot file records *what* it indexes (the item encoding) and
//! *how* distances were computed (the metric identifier). Loading is
//! typed — `open_vp_tree::<Utf8Strings, Counted<Levenshtein>>(..)` — so
//! these traits let the loader check that the file's tags match the
//! requested types before reading a single item, and let it reconstruct
//! the metric value (metrics in this workspace are stateless unit
//! structs, or [`Counted`] wrappers whose counters restart at zero).

use vantage_core::prelude::{Chebyshev, Counted, Euclidean, Levenshtein, Manhattan};
use vantage_core::{ItemStore, Result, VantageError};

use crate::wire::Out;

/// An item form that can be written to a snapshot's items section:
/// the owned items a tree is built from (`Vec<f64>`, `Vec<u8>`,
/// `String`) and the flat rows it can keep them in (`[f64]`, `[u8]`,
/// `str`) encode alike, so a tree writes the same bytes whichever row
/// store holds it.
///
/// Items are stored as one flat column: a cumulative offset fence per
/// item over a single shared data region (see the `layout` module), so
/// loading can slice the same bytes in place through the
/// [`FlatItems`](crate::FlatItems) twin of each encoding.
pub trait ItemCodec {
    /// One-byte item-encoding tag stored in the snapshot header.
    const TAG: u8;
    /// Human-readable encoding name (for `inspect` and error messages).
    const NAME: &'static str;
    /// Whether every item of a section must hold the same number of
    /// elements (vectors, which the loader addresses by one stride).
    const FIXED_WIDTH: bool;
    /// Data elements in this item (`f64`s or bytes).
    fn elems(&self) -> usize;
    /// Appends the item's elements to `out`.
    fn put(&self, out: &mut Out);
}

/// Refuses items a snapshot cannot hold: vectors of different lengths,
/// which the loader would refuse as a ragged section.
///
/// # Errors
///
/// [`VantageError::DimensionMismatch`] naming the first row's length
/// and the first length that differs from it.
pub fn check_section<V: ItemStore + ?Sized>(rows: &V) -> Result<()>
where
    V::Item: ItemCodec,
{
    if !V::Item::FIXED_WIDTH {
        return Ok(());
    }
    let mut widths = (0..rows.len() as u32).map(|row| rows.get(row).elems());
    let first = widths.next().unwrap_or(0);
    match widths.find(|&w| w != first) {
        Some(other) => Err(VantageError::DimensionMismatch {
            left: first,
            right: other,
        }),
        None => Ok(()),
    }
}

/// Encodes `rows` (in store order) as one flat items payload. `base` is
/// the payload's absolute file offset (the alignment origin).
pub fn encode_section<V: ItemStore + ?Sized>(rows: &V, base: usize) -> Vec<u8>
where
    V::Item: ItemCodec,
{
    let items = || (0..rows.len() as u32).map(|row| rows.get(row));
    let mut out = Out::new();
    out.align8(base);
    out.u64(rows.len() as u64);
    let mut acc = 0u64;
    out.u64(acc);
    for item in items() {
        acc += item.elems() as u64;
        out.u64(acc);
    }
    for item in items() {
        item.put(&mut out);
    }
    out.0
}

impl ItemCodec for [f64] {
    const TAG: u8 = 1;
    const NAME: &'static str = "f64-vector";
    const FIXED_WIDTH: bool = true;

    fn elems(&self) -> usize {
        self.len()
    }

    fn put(&self, out: &mut Out) {
        out.f64s(self);
    }
}

impl ItemCodec for [u8] {
    const TAG: u8 = 3;
    const NAME: &'static str = "u8-vector";
    const FIXED_WIDTH: bool = true;

    fn elems(&self) -> usize {
        self.len()
    }

    fn put(&self, out: &mut Out) {
        out.0.extend_from_slice(self);
    }
}

impl ItemCodec for str {
    const TAG: u8 = 2;
    const NAME: &'static str = "utf8-string";
    const FIXED_WIDTH: bool = false;

    fn elems(&self) -> usize {
        self.len()
    }

    fn put(&self, out: &mut Out) {
        out.0.extend_from_slice(self.as_bytes());
    }
}

/// An owned item encodes as the row it borrows down to.
macro_rules! owned_codec {
    ($owned:ty, $row:ty) => {
        impl ItemCodec for $owned {
            const TAG: u8 = <$row as ItemCodec>::TAG;
            const NAME: &'static str = <$row as ItemCodec>::NAME;
            const FIXED_WIDTH: bool = <$row as ItemCodec>::FIXED_WIDTH;

            fn elems(&self) -> usize {
                <$row as ItemCodec>::elems(self)
            }

            fn put(&self, out: &mut Out) {
                <$row as ItemCodec>::put(self, out);
            }
        }
    };
}

owned_codec!(Vec<f64>, [f64]);
owned_codec!(Vec<u8>, [u8]);
owned_codec!(String, str);

/// A metric that can be named in a snapshot header and reconstructed on
/// load.
///
/// Implemented for the stateless workspace metrics and for
/// [`Counted<M>`], which shares the inner metric's identifier (counting
/// is an observation wrapper, not a different distance function) and
/// reconstructs with fresh zeroed counters — exactly the state a
/// freshly built index's metric is in after its post-build probe reset.
pub trait MetricTag {
    /// Stable metric identifier stored in the snapshot header.
    const TAG: &'static str;
    /// Builds a value of the metric for a freshly loaded index.
    fn reconstruct() -> Self;
}

macro_rules! unit_metric_tag {
    ($ty:ty, $tag:literal) => {
        impl MetricTag for $ty {
            const TAG: &'static str = $tag;
            fn reconstruct() -> Self {
                <$ty>::default()
            }
        }
    };
}

unit_metric_tag!(Euclidean, "l2");
unit_metric_tag!(Manhattan, "l1");
unit_metric_tag!(Chebyshev, "linf");
unit_metric_tag!(Levenshtein, "edit");

impl<M: MetricTag> MetricTag for Counted<M> {
    const TAG: &'static str = M::TAG;
    fn reconstruct() -> Self {
        Counted::new(M::reconstruct())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::ItemsLayout;
    use crate::mem::{self, Storage};
    use crate::{F64Vectors, FlatItems, Utf8Strings};

    /// Places an items payload at file offset `base` and reads it back
    /// through the load path's layout parser and item checks.
    fn read_back<K: FlatItems>(
        payload: &[u8],
        base: usize,
        count: u64,
    ) -> Result<Vec<<K::Item as ToOwned>::Owned>> {
        let mut file = vec![0u8; base];
        file.extend_from_slice(payload);
        let storage = Storage::from_bytes(&file);
        let bytes = storage.bytes();
        let lay = ItemsLayout::parse(&bytes[base..], base, count, K::ELEM)?;
        K::check(&bytes[lay.data.clone()], &lay.offsets)?;
        let store = K::store(
            mem::u64s(&bytes[lay.offsets_bytes.clone()]),
            &bytes[lay.data.clone()],
        );
        Ok((0..lay.count as u32)
            .map(|row| store.get(row).to_owned())
            .collect())
    }

    #[test]
    fn counted_shares_the_inner_tag() {
        assert_eq!(<Counted<Euclidean> as MetricTag>::TAG, "l2");
        assert_eq!(<Counted<Levenshtein> as MetricTag>::TAG, "edit");
    }

    #[test]
    fn reconstructed_counted_starts_at_zero() {
        let m = <Counted<Euclidean> as MetricTag>::reconstruct();
        assert_eq!(m.count(), 0);
    }

    #[test]
    fn string_items_round_trip_at_any_base() {
        let items = vec!["héllo".to_string(), String::new(), "wörld".to_string()];
        for base in [0usize, 1, 3, 8, 13] {
            let payload = encode_section(items.as_slice(), base);
            let back = read_back::<Utf8Strings>(&payload, base, items.len() as u64).unwrap();
            assert_eq!(back, items, "base {base}");
        }
    }

    #[test]
    fn invalid_utf8_is_a_typed_error() {
        let items = vec!["ab".to_string()];
        let mut payload = encode_section(items.as_slice(), 0);
        *payload.last_mut().unwrap() = 0xFF;
        let err = read_back::<Utf8Strings>(&payload, 0, 1).unwrap_err();
        assert!(matches!(err, VantageError::CorruptSnapshot { .. }), "{err}");
    }

    #[test]
    fn vector_items_round_trip_at_any_base() {
        let items = vec![vec![1.5, -0.0, f64::MAX], vec![0.0, 2.0, -1.0]];
        for base in [0usize, 2, 8, 11] {
            let payload = encode_section(items.as_slice(), base);
            let back = read_back::<F64Vectors>(&payload, base, items.len() as u64).unwrap();
            assert_eq!(back, items, "base {base}");
        }
    }

    #[test]
    fn count_disagreement_is_a_typed_error() {
        let payload = encode_section([vec![1.0]].as_slice(), 0);
        let err = read_back::<F64Vectors>(&payload, 0, 2).unwrap_err();
        assert!(matches!(err, VantageError::CorruptSnapshot { .. }), "{err}");
    }
}
