//! Shared chunked accumulation kernels for the vector/image metrics.
//!
//! Every `L_p`-style metric in this workspace is a monotone reduction
//! over per-dimension terms. This module provides that reduction once,
//! in a shape that serves three masters:
//!
//! * **Throughput.** The float kernels accumulate into sixteen
//!   independent lanes (`chunks of 16`), which breaks the sequential
//!   dependency chain of a naive `.sum::<f64>()` and lets the optimizer
//!   autovectorize the inner loop; the byte kernels accumulate 64 pixels
//!   into a fresh `u32` before folding into the `u64` total.
//! * **A dispatchable contract.** The 16-lane layout is exactly four
//!   256-bit AVX2 registers of f64. The explicit SIMD kernels in
//!   [`crate::simd`] reproduce this module's lane assignment,
//!   per-lane operation order and final reduction tree instruction for
//!   instruction, so the portable kernels here double as the *reference
//!   semantics*: a dispatched kernel must return bit-identical values.
//! * **Early abandoning.** Each kernel is generic over a
//!   `const BOUNDED: bool`. With `BOUNDED = true` it checks at a
//!   geometric schedule of checkpoints whether the partial reduction —
//!   pushed through the metric's monotone `finish` transform — already
//!   exceeds the caller's bound, and if so abandons, reporting the
//!   fraction of work performed.
//!
//! **Check cadence.** Bounded checkpoints fire when the element index
//! crosses [`FIRST_CHECK`] (64), then at every doubling (128, 256, 512,
//! …). Far-beyond-bound evaluations still abandon within the first 64
//! elements, while near-bound evaluations that run to completion pay
//! only `O(log n)` checks instead of one per chunk — which is what kept
//! `bounded_near` calls up to 1.8× slower than `full` under the old
//! per-chunk cadence. The schedule is part of the dispatch contract:
//! every backend checks at the same element counts, so the reported
//! work fractions agree across paths.
//!
//! Correctness of the abandon check rests on monotonicity end to end:
//! every per-dimension term is non-negative, IEEE-754 addition and `max`
//! are monotone under rounding, and every `finish` transform used here
//! (identity, `sqrt`, `x^(1/p)`, `/norm`) is monotone — so the partial
//! value never exceeds the final one, and `finish(partial) > bound`
//! proves `distance > bound`. The check deliberately applies `finish` to
//! the partial sum rather than comparing against a pre-transformed
//! threshold (e.g. `bound²`): that keeps the comparison exactly the one
//! the caller's `d <= bound` test would make, so a computation is never
//! abandoned when the true distance equals the bound.
//!
//! **Bit-identity.** The `BOUNDED` parameter only adds read-only checks;
//! lane assignment, accumulation order and the final reduction are
//! byte-for-byte the same code for both instantiations. A bounded call
//! that completes therefore returns a value bit-identical to the plain
//! distance — the contract of
//! [`BoundedMetric`](crate::metric::BoundedMetric).

/// Number of independent f64 accumulator lanes (= four AVX2 registers).
pub(crate) const LANES: usize = 16;

/// Element count at which the first bounded checkpoint fires; subsequent
/// checkpoints fire at every doubling (128, 256, 512, …). Shared by the
/// portable and SIMD backends so abandon points and work fractions are
/// identical on every dispatch path.
pub(crate) const FIRST_CHECK: usize = 64;

/// Pixels per integer chunk. 64 squared byte diffs (≤ 255²) fit a `u32`
/// partial with room to spare, and the chunk keeps the `u8` inner loop
/// autovectorizable.
const BYTE_CHUNK: usize = 64;

/// Fixed tree reduction of the sixteen lanes. The shape is part of the
/// bit-identity contract: the full kernel, the bounded kernel and every
/// SIMD backend fold the lanes exactly this way (SIMD backends store
/// their registers to an array and call this same function).
#[inline(always)]
pub(crate) fn reduce_sum(acc: &[f64; LANES]) -> f64 {
    let lo = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]));
    let hi =
        ((acc[8] + acc[9]) + (acc[10] + acc[11])) + ((acc[12] + acc[13]) + (acc[14] + acc[15]));
    lo + hi
}

/// Tree reduction of the sixteen lanes by `max` (for `L_∞`).
#[inline(always)]
pub(crate) fn reduce_max(acc: &[f64; LANES]) -> f64 {
    let lo = (acc[0].max(acc[1]).max(acc[2].max(acc[3])))
        .max(acc[4].max(acc[5]).max(acc[6].max(acc[7])));
    let hi = (acc[8].max(acc[9]).max(acc[10].max(acc[11])))
        .max(acc[12].max(acc[13]).max(acc[14].max(acc[15])));
    lo.max(hi)
}

/// Shared completion epilogue: the `!(d <= bound)` polarity means a NaN
/// bound admits nothing (the contract mirrors the caller's `d <= bound`
/// test).
#[inline(always)]
pub(crate) fn complete<const BOUNDED: bool>(d: f64, bound: f64) -> (Option<f64>, f64) {
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    if BOUNDED && !(d <= bound) {
        (None, 1.0)
    } else {
        (Some(d), 1.0)
    }
}

/// 16-lane sum kernel over per-dimension terms.
///
/// `term(i, a[i], b[i])` must be non-negative; `finish` must be monotone
/// non-decreasing on `[0, ∞)`. Returns the finished distance (or `None`
/// on abandon) and the fraction of dimensions processed.
#[inline(always)]
pub(crate) fn sum_kernel<const BOUNDED: bool>(
    a: &[f64],
    b: &[f64],
    term: impl Fn(usize, f64, f64) -> f64,
    finish: impl Fn(f64) -> f64,
    bound: f64,
) -> (Option<f64>, f64) {
    let n = a.len();
    if n < LANES {
        // Straight-line path below one chunk: no loop bookkeeping, no
        // mid-computation checks. `0.0 + t == t` bitwise for the
        // non-negative terms used here, so the value is unchanged.
        let mut acc = [0.0f64; LANES];
        for l in 0..n {
            acc[l] = term(l, a[l], b[l]);
        }
        return complete::<BOUNDED>(finish(reduce_sum(&acc)), bound);
    }
    let mut acc = [0.0f64; LANES];
    let mut i = 0usize;
    let mut next_check = FIRST_CHECK;
    while i + LANES <= n {
        for l in 0..LANES {
            acc[l] += term(i + l, a[i + l], b[i + l]);
        }
        i += LANES;
        if BOUNDED && i >= next_check {
            next_check <<= 1;
            if finish(reduce_sum(&acc)) > bound {
                return (None, i as f64 / n as f64);
            }
        }
    }
    for l in 0..n - i {
        acc[l] += term(i + l, a[i + l], b[i + l]);
    }
    complete::<BOUNDED>(finish(reduce_sum(&acc)), bound)
}

/// Lane-parallel twin of the unbounded [`sum_kernel`] over four rows:
/// `out[j]` is bit-identical to
/// `sum_kernel::<false>(a, rows[j], |_, x, y| term(x, y), finish, ∞)`.
///
/// Each row keeps the single-pair arithmetic: element `i` goes to lane
/// `i mod 16` in increasing `i`, and the lanes fold through
/// [`reduce_sum`]. Starting every lane at `+0.0` matches the
/// straight-line path below one chunk too, since `+0.0 + t == t` for
/// the non-negative (or NaN) terms used here. Every row must be as long
/// as `a`.
#[inline(always)]
pub(crate) fn sum_kernel_x4(
    a: &[f64],
    rows: [&[f64]; 4],
    term: impl Fn(f64, f64) -> f64,
    finish: impl Fn(f64) -> f64,
) -> [f64; 4] {
    let n = a.len();
    let rows = rows.map(|row| &row[..n]);
    let mut acc = [[0.0f64; 4]; LANES];
    let mut i = 0usize;
    while i + LANES <= n {
        for (l, lane) in acc.iter_mut().enumerate() {
            for (sum, row) in lane.iter_mut().zip(rows) {
                *sum += term(a[i + l], row[i + l]);
            }
        }
        i += LANES;
    }
    for (l, lane) in acc.iter_mut().enumerate().take(n - i) {
        for (sum, row) in lane.iter_mut().zip(rows) {
            *sum += term(a[i + l], row[i + l]);
        }
    }
    std::array::from_fn(|j| finish(reduce_sum(&std::array::from_fn(|l| acc[l][j]))))
}

/// The unbounded [`sum_kernel`] from `a` to each of `out.len()` rows
/// laid back to back in `rows`: [`sum_kernel_x4`] over each four rows,
/// the single-pair kernel over the last `out.len() mod 4`. `out[j]` is
/// bit-identical to `sum_kernel::<false>(a, row j, …)`.
#[inline(always)]
pub(crate) fn sum_kernel_block(
    a: &[f64],
    rows: &[f64],
    out: &mut [f64],
    term: impl Fn(f64, f64) -> f64 + Copy,
    finish: impl Fn(f64) -> f64 + Copy,
) {
    let n = a.len();
    let row = |j: usize| &rows[j * n..(j + 1) * n];
    let mut fours = out.chunks_exact_mut(4);
    let mut first = 0;
    for four in &mut fours {
        let group = [row(first), row(first + 1), row(first + 2), row(first + 3)];
        four.copy_from_slice(&sum_kernel_x4(a, group, term, finish));
        first += 4;
    }
    for (j, d) in fours.into_remainder().iter_mut().enumerate() {
        let single = sum_kernel::<false>(a, row(first + j), |_, x, y| term(x, y), finish, 0.0);
        *d = single.0.expect("an unbounded kernel always completes");
    }
}

/// 16-lane max kernel over `|a[i] − b[i]|` (Chebyshev / `L_∞`).
#[inline(always)]
pub(crate) fn max_kernel<const BOUNDED: bool>(
    a: &[f64],
    b: &[f64],
    bound: f64,
) -> (Option<f64>, f64) {
    let n = a.len();
    if n < LANES {
        let mut acc = [0.0f64; LANES];
        for l in 0..n {
            acc[l] = (a[l] - b[l]).abs();
        }
        return complete::<BOUNDED>(reduce_max(&acc), bound);
    }
    let mut acc = [0.0f64; LANES];
    let mut i = 0usize;
    let mut next_check = FIRST_CHECK;
    while i + LANES <= n {
        for l in 0..LANES {
            acc[l] = acc[l].max((a[i + l] - b[i + l]).abs());
        }
        i += LANES;
        if BOUNDED && i >= next_check {
            next_check <<= 1;
            if reduce_max(&acc) > bound {
                return (None, i as f64 / n as f64);
            }
        }
    }
    for l in 0..n - i {
        acc[l] = acc[l].max((a[i + l] - b[i + l]).abs());
    }
    complete::<BOUNDED>(reduce_max(&acc), bound)
}

/// Chunked byte-difference kernel for the image metrics.
///
/// `term` maps a pixel pair to a non-negative `u32` contribution (absolute
/// or squared difference); `finish` converts the exact integer total to
/// the metric's f64 value and must be monotone. Integer accumulation is
/// exact, so chunking cannot change the completed result.
#[inline(always)]
pub(crate) fn byte_sum_kernel<const BOUNDED: bool>(
    a: &[u8],
    b: &[u8],
    term: impl Fn(u8, u8) -> u32,
    finish: impl Fn(u64) -> f64,
    bound: f64,
) -> (Option<f64>, f64) {
    let n = a.len();
    let mut total = 0u64;
    let mut i = 0usize;
    let mut next_check = FIRST_CHECK;
    while i + BYTE_CHUNK <= n {
        let mut part = 0u32;
        for j in i..i + BYTE_CHUNK {
            part += term(a[j], b[j]);
        }
        total += u64::from(part);
        i += BYTE_CHUNK;
        if BOUNDED && i >= next_check {
            next_check <<= 1;
            if finish(total) > bound {
                return (None, i as f64 / n as f64);
            }
        }
    }
    for j in i..n {
        total += u64::from(term(a[j], b[j]));
    }
    complete::<BOUNDED>(finish(total), bound)
}

/// Chunked `Σ |a[i] − b[i]|` kernel over `u32` histograms.
#[inline(always)]
pub(crate) fn u32_l1_kernel<const BOUNDED: bool>(
    a: &[u32],
    b: &[u32],
    finish: impl Fn(u64) -> f64,
    bound: f64,
) -> (Option<f64>, f64) {
    const CHUNK: usize = 64;
    let n = a.len();
    let mut total = 0u64;
    let mut i = 0usize;
    let mut next_check = FIRST_CHECK;
    while i + CHUNK <= n {
        for j in i..i + CHUNK {
            total += u64::from(a[j].abs_diff(b[j]));
        }
        i += CHUNK;
        if BOUNDED && i >= next_check {
            next_check <<= 1;
            if finish(total) > bound {
                return (None, i as f64 / n as f64);
            }
        }
    }
    for j in i..n {
        total += u64::from(a[j].abs_diff(b[j]));
    }
    complete::<BOUNDED>(finish(total), bound)
}

/// Chunked mismatch-count kernel for Hamming distance over byte strings.
///
/// `base` is the length difference (every surplus position mismatches by
/// definition), known before any comparison.
#[inline(always)]
pub(crate) fn hamming_bytes_kernel<const BOUNDED: bool>(
    a: &[u8],
    b: &[u8],
    bound: f64,
) -> (Option<f64>, f64) {
    let n = a.len().min(b.len());
    let mut count = a.len().abs_diff(b.len()) as u64;
    if BOUNDED && count as f64 > bound {
        return (None, 0.0);
    }
    let mut i = 0usize;
    let mut next_check = FIRST_CHECK;
    while i + BYTE_CHUNK <= n {
        let mut part = 0u32;
        for j in i..i + BYTE_CHUNK {
            part += u32::from(a[j] != b[j]);
        }
        count += u64::from(part);
        i += BYTE_CHUNK;
        if BOUNDED && i >= next_check {
            next_check <<= 1;
            if count as f64 > bound {
                return (None, i as f64 / n as f64);
            }
        }
    }
    for j in i..n {
        count += u64::from(a[j] != b[j]);
    }
    complete::<BOUNDED>(count as f64, bound)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize, f: impl Fn(usize) -> f64) -> Vec<f64> {
        (0..n).map(f).collect()
    }

    #[test]
    fn full_and_bounded_agree_bitwise_on_completion() {
        for n in [0, 1, 7, 15, 16, 17, 63, 64, 65, 1000] {
            let a = seq(n, |i| (i as f64 * 0.37).sin());
            let b = seq(n, |i| (i as f64 * 0.11).cos());
            let full = sum_kernel::<false>(&a, &b, |_, x, y| (x - y).abs(), |s| s, f64::INFINITY)
                .0
                .unwrap();
            let (bounded, frac) = sum_kernel::<true>(&a, &b, |_, x, y| (x - y).abs(), |s| s, full);
            assert_eq!(bounded.unwrap().to_bits(), full.to_bits(), "n={n}");
            assert_eq!(frac, 1.0);
        }
    }

    #[test]
    fn batch_rows_match_the_single_pair_kernel_bitwise() {
        for n in [0, 1, 7, 15, 16, 17, 20, 63, 64, 65, 200] {
            let a = seq(n, |i| (i as f64 * 0.37).sin());
            let rows: Vec<Vec<f64>> = (0..4)
                .map(|j| seq(n, |i| (i as f64 * (0.11 + j as f64)).cos()))
                .collect();
            let got = sum_kernel_x4(
                &a,
                [&rows[0], &rows[1], &rows[2], &rows[3]],
                |x, y| (x - y) * (x - y),
                f64::sqrt,
            );
            for (j, row) in rows.iter().enumerate() {
                let want = sum_kernel::<false>(
                    &a,
                    row,
                    |_, x, y| (x - y) * (x - y),
                    f64::sqrt,
                    f64::INFINITY,
                )
                .0
                .unwrap();
                assert_eq!(got[j].to_bits(), want.to_bits(), "n={n} row={j}");
            }
        }
    }

    #[test]
    fn abandon_reports_partial_fraction() {
        let a = seq(1024, |_| 0.0);
        let b = seq(1024, |_| 1.0);
        // Distance is 1024; a bound of 4 is exceeded at the first
        // checkpoint (element 64), so 64/1024 of the work is reported.
        let (d, frac) = sum_kernel::<true>(&a, &b, |_, x, y| (x - y).abs(), |s| s, 4.0);
        assert_eq!(d, None);
        assert_eq!(frac, FIRST_CHECK as f64 / 1024.0);
    }

    #[test]
    fn checkpoints_double_after_the_first() {
        // A bound crossed only once 3/4 of the sum is accumulated: the
        // 64/128/256/512-element checkpoints pass, the 1024 one abandons.
        let n = 1024;
        let a = seq(n, |_| 0.0);
        let b = seq(n, |_| 1.0);
        let (d, frac) = sum_kernel::<true>(&a, &b, |_, x, y| (x - y).abs(), |s| s, 767.0);
        assert_eq!(d, None);
        assert_eq!(frac, 1.0, "final checkpoint coincides with completion");
        let (d, frac) = sum_kernel::<true>(&a, &b, |_, x, y| (x - y).abs(), |s| s, 500.0);
        assert_eq!(d, None);
        assert_eq!(frac, 512.0 / 1024.0);
    }

    #[test]
    fn bound_equal_to_distance_is_not_abandoned() {
        // Trailing zero-contribution chunks must not trigger a spurious
        // abandon when the partial already equals the bound.
        let mut a = seq(256, |_| 0.0);
        let b = seq(256, |_| 0.0);
        a[0] = 3.0;
        let (d, _) = sum_kernel::<true>(&a, &b, |_, x, y| (x - y).abs(), |s| s, 3.0);
        assert_eq!(d, Some(3.0));
        let (d, _) = max_kernel::<true>(&a, &b, 3.0);
        assert_eq!(d, Some(3.0));
    }

    #[test]
    fn max_kernel_matches_naive() {
        for n in [3, 8, 20, 100] {
            let a = seq(n, |i| (i as f64 * 1.7).sin() * 5.0);
            let b = seq(n, |i| (i as f64 * 0.3).cos() * 5.0);
            let naive = a
                .iter()
                .zip(&b)
                .map(|(x, y)| (x - y).abs())
                .fold(0.0, f64::max);
            let full = max_kernel::<false>(&a, &b, f64::INFINITY).0.unwrap();
            assert_eq!(full.to_bits(), naive.to_bits(), "n={n}");
        }
    }

    #[test]
    fn byte_kernel_is_exact_and_abandons() {
        let a = vec![0u8; 1000];
        let b = vec![10u8; 1000];
        let full = byte_sum_kernel::<false>(
            &a,
            &b,
            |x, y| u32::from(x.abs_diff(y)),
            |s| s as f64,
            f64::INFINITY,
        )
        .0
        .unwrap();
        assert_eq!(full, 10_000.0);
        let (d, frac) =
            byte_sum_kernel::<true>(&a, &b, |x, y| u32::from(x.abs_diff(y)), |s| s as f64, 500.0);
        assert_eq!(d, None);
        // Abandons at the first checkpoint: 64/1000.
        assert!(frac < 0.1, "{frac}");
    }

    #[test]
    fn hamming_kernel_counts_length_difference_upfront() {
        let a = vec![1u8; 10];
        let b = vec![1u8; 200];
        // 190 mismatches from length alone; abandons before comparing.
        let (d, frac) = hamming_bytes_kernel::<true>(&a, &b, 100.0);
        assert_eq!(d, None);
        assert_eq!(frac, 0.0);
        let full = hamming_bytes_kernel::<false>(&a, &b, f64::INFINITY)
            .0
            .unwrap();
        assert_eq!(full, 190.0);
    }
}
