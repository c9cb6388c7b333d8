//! Runtime-dispatched SIMD distance kernels.
//!
//! Distance computation is the unit of cost in the paper's model: every
//! vp/mvp pruning decision eventually bottoms out in a kernel call, and
//! in high dimensions most of those calls run to completion. This module
//! provides explicit `std::arch` AVX2 implementations of the hot vector
//! kernels — L1 / L2 / L∞ (plus their weighted-Lp specializations and
//! four-row L1 / L2 batches),
//! byte-image L1/L2, histogram L1 and Hamming — selected **once** per
//! process by runtime CPU-feature detection and consumed transparently
//! through the existing [`Metric`](crate::Metric) /
//! [`BoundedMetric`](crate::BoundedMetric) impls.
//!
//! # The scalar-identical contract
//!
//! Every kernel has two backends and one semantics:
//!
//! * [`SimdPath::Portable`] — the chunked kernels in
//!   `metrics::kernels`, plain Rust that any target compiles
//!   (autovectorizable but never required to be). These are the
//!   *reference semantics*.
//! * [`SimdPath::Avx2`] — `std::arch` x86_64 intrinsics, compiled only
//!   on `x86_64` (and not at all under the `force-scalar` feature),
//!   executed only after `is_x86_feature_detected!` confirms support.
//!
//! The AVX2 backend reproduces the portable backend **bit for bit**, for
//! floats as well as integers:
//!
//! * **Fixed lane layout.** Float sums use 16 independent f64
//!   accumulator lanes (= four 256-bit registers); lane `l` accumulates
//!   the terms of elements `i` with `i ≡ l (mod 16)` in increasing `i`
//!   order, the trailing `n mod 16` elements are added one per lane, and
//!   the lanes are folded with one fixed binary reduction tree
//!   (`kernels::reduce_sum`). The SIMD backend uses exactly this lane
//!   assignment (vertical adds preserve per-lane order) and spills its
//!   registers to call the *same* scalar reduction, so every
//!   intermediate rounding is identical.
//! * **No contractions.** The AVX2 kernels never use FMA: `x*x` then
//!   `+` rounds twice on both paths.
//! * **Integer exactness.** Hamming, image L1/L2 and histogram L1
//!   accumulate exact integers; any accumulation order yields the same
//!   total, and the final integer→f64 conversion is shared.
//! * **Shared abandon schedule.** Bounded kernels check at the same
//!   geometric element checkpoints (64, 128, 256, …; see
//!   `kernels::FIRST_CHECK`) on every path, so abandon decisions and
//!   reported work fractions also agree.
//!
//! `tests/simd_dispatch.rs` pins the contract property-test style:
//! bit-identical results (`f64::to_bits`) across paths for every kernel
//! over adversarial lengths and magnitudes, and the full
//! `distance_within` soundness sweep under forced AVX2.
//!
//! # Selecting a path
//!
//! [`active`] resolves the process-wide path once and caches it:
//!
//! 1. the `force-scalar` cargo feature pins [`SimdPath::Portable`] at
//!    compile time (the `std::arch` backend is not even built);
//! 2. else the `VANTAGE_SIMD` environment variable: `portable` /
//!    `scalar` / `off` force the portable path; `auto` (or unset) and
//!    `avx2` use feature detection; unrecognized values warn once on
//!    stderr and fall back to portable;
//! 3. else (`auto`): AVX2 (+POPCNT) detected at runtime → [`SimdPath::Avx2`],
//!    otherwise portable.
//!
//! The active path is reported by `vantage stats` / `explain` / the
//! serve `INFO` line (`simd=avx2`).
//!
//! Inputs shorter than one dispatch threshold
//! ([`MIN_F64_DISPATCH`] f64 dims / [`MIN_BYTE_DISPATCH`] bytes) always
//! take the inlined portable straight-line path: for a 16-d vector the
//! call overhead of an out-of-line AVX2 kernel costs more than it saves,
//! and the portable path is bit-identical anyway.
//!
//! # Adding a kernel
//!
//! 1. Express the portable semantics with the generic chunked kernels in
//!    `metrics::kernels` (fixed lane count, geometric checkpoints).
//! 2. Add an AVX2 twin here that copies the lane assignment and spills
//!    to the same scalar reduction; never reassociate, never fuse.
//! 3. Route the public entry point through `resolve` so tiny inputs
//!    and unsupported paths degrade to portable.
//! 4. Extend `tests/simd_dispatch.rs` with the new kernel — the
//!    cross-path bit-identity sweep is the contract's enforcement.
//! 5. If it is an L1/L2-style sum that leaf loops evaluate in bulk, add
//!    a four-row batch twin as well (`l1_x4`/`l2_x4`: a portable
//!    `kernels::sum_kernel_x4` instance and an `avx2_sum_kernel_x4!`
//!    instance, lane `j` = row `j`). Each lane must equal the
//!    single-pair kernel bit for bit, which `tests/simd_dispatch.rs`
//!    checks lane by lane; the metric exposes it through
//!    `BoundedMetric::distance_x4` only below `kernels::FIRST_CHECK`
//!    dimensions, where the bounded kernel never abandons part-way.

// The one place in the crate allowed to use `unsafe`: `std::arch`
// intrinsics, every call gated behind runtime CPU-feature detection.
#![allow(unsafe_code)]

use crate::metrics::kernels::{self, LANES};
use std::sync::atomic::{AtomicU8, Ordering};

/// Minimum number of f64 dimensions before the dispatcher considers the
/// SIMD backend; below this the portable path is inlined straight-line
/// code and strictly faster than an out-of-line kernel call.
pub const MIN_F64_DISPATCH: usize = 2 * LANES;

/// Minimum number of bytes (or u32 bins) before byte/histogram kernels
/// dispatch to the SIMD backend.
pub const MIN_BYTE_DISPATCH: usize = 64;

/// A distance-kernel backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdPath {
    /// The portable chunked kernels (`metrics::kernels`) — the reference
    /// semantics, available on every target.
    Portable,
    /// Explicit AVX2 intrinsics (x86_64 only, runtime-detected).
    Avx2,
}

impl SimdPath {
    /// Short stable name, as surfaced by `vantage stats` / serve `INFO`.
    pub fn name(self) -> &'static str {
        match self {
            SimdPath::Portable => "portable",
            SimdPath::Avx2 => "avx2",
        }
    }
}

impl std::fmt::Display for SimdPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Whether `path` can actually execute on this machine/build. The
/// portable path is always supported; AVX2 requires x86_64, runtime
/// CPU support (AVX2 + POPCNT) and a build without `force-scalar`.
pub fn supported(path: SimdPath) -> bool {
    match path {
        SimdPath::Portable => true,
        SimdPath::Avx2 => avx2_detected(),
    }
}

/// The paths worth differential-testing on this machine: always
/// portable, plus AVX2 where supported.
pub fn test_paths() -> Vec<SimdPath> {
    let mut paths = vec![SimdPath::Portable];
    if supported(SimdPath::Avx2) {
        paths.push(SimdPath::Avx2);
    }
    paths
}

// Cached dispatch decision: 0 = undecided, 1 = portable, 2 = avx2.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

#[inline]
fn avx2_detected() -> bool {
    #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
    {
        // 0 = undetected, 1 = unsupported, 2 = supported.
        static AVX2_STATE: AtomicU8 = AtomicU8::new(0);
        match AVX2_STATE.load(Ordering::Relaxed) {
            1 => false,
            2 => true,
            _ => {
                // POPCNT ships with every AVX2 part, but the Hamming
                // kernel relies on it, so detect both rather than assume.
                let ok = std::is_x86_feature_detected!("avx2")
                    && std::is_x86_feature_detected!("popcnt");
                AVX2_STATE.store(if ok { 2 } else { 1 }, Ordering::Relaxed);
                ok
            }
        }
    }
    #[cfg(not(all(target_arch = "x86_64", not(feature = "force-scalar"))))]
    {
        false
    }
}

/// The process-wide dispatch decision (cached after the first call; a
/// single relaxed atomic load afterwards).
#[inline]
pub fn active() -> SimdPath {
    match ACTIVE.load(Ordering::Relaxed) {
        1 => SimdPath::Portable,
        2 => SimdPath::Avx2,
        _ => init_active(),
    }
}

/// Short name of the active path (`"avx2"` / `"portable"`), for status
/// surfaces.
pub fn active_name() -> &'static str {
    active().name()
}

#[cold]
fn init_active() -> SimdPath {
    let env = std::env::var("VANTAGE_SIMD").ok();
    let path = decide(env.as_deref(), avx2_detected());
    if let Some(v) = env.as_deref() {
        if !matches!(v, "" | "auto" | "avx2" | "portable" | "scalar" | "off") {
            eprintln!(
                "warning: unrecognized VANTAGE_SIMD value `{v}` \
                 (expected auto|avx2|portable|scalar|off); using portable kernels"
            );
        }
    }
    ACTIVE.store(
        match path {
            SimdPath::Portable => 1,
            SimdPath::Avx2 => 2,
        },
        Ordering::Relaxed,
    );
    path
}

/// Pure decision function (unit-tested; `init_active` feeds it the real
/// environment and detection result).
fn decide(env: Option<&str>, avx2: bool) -> SimdPath {
    if cfg!(feature = "force-scalar") {
        return SimdPath::Portable;
    }
    let best = if avx2 {
        SimdPath::Avx2
    } else {
        SimdPath::Portable
    };
    match env {
        Some("portable") | Some("scalar") | Some("off") => SimdPath::Portable,
        // `avx2` expresses a preference, not a demand: on hardware
        // without AVX2 the only correct kernels are the portable ones.
        Some("avx2") | Some("auto") | Some("") | None => best,
        Some(_) => SimdPath::Portable,
    }
}

/// Sanitizes a caller-supplied path for one call: tiny inputs and
/// unsupported backends degrade to the (bit-identical) portable path,
/// which keeps the explicit-path API safe on every machine.
#[inline]
fn resolve(path: SimdPath, n: usize, min: usize) -> SimdPath {
    if n < min || !supported(path) {
        SimdPath::Portable
    } else {
        path
    }
}

#[inline(always)]
fn id(s: f64) -> f64 {
    s
}

// ---------------------------------------------------------------------
// Public kernel entry points.
//
// Each takes the backend explicitly so benchmarks and differential
// tests can pin a path; the metric impls pass `active()`. All of them
// uphold the scalar-identical contract described in the module docs.
// ---------------------------------------------------------------------

/// L1 (Manhattan) kernel: `Σ |a[i] − b[i]|`.
#[inline]
pub fn l1<const BOUNDED: bool>(
    path: SimdPath,
    a: &[f64],
    b: &[f64],
    bound: f64,
) -> (Option<f64>, f64) {
    assert_eq!(a.len(), b.len(), "simd kernel requires equal lengths");
    match resolve(path, a.len(), MIN_F64_DISPATCH) {
        SimdPath::Portable => {
            kernels::sum_kernel::<BOUNDED>(a, b, |_, x, y| (x - y).abs(), id, bound)
        }
        #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
        // SAFETY: `resolve` returns Avx2 only after runtime detection.
        SimdPath::Avx2 => unsafe { avx2::l1::<BOUNDED>(a, b, bound) },
        #[cfg(not(all(target_arch = "x86_64", not(feature = "force-scalar"))))]
        SimdPath::Avx2 => unreachable!("resolve() never selects an unsupported path"),
    }
}

/// L2 (Euclidean) kernel: `sqrt(Σ (a[i] − b[i])²)`.
#[inline]
pub fn l2<const BOUNDED: bool>(
    path: SimdPath,
    a: &[f64],
    b: &[f64],
    bound: f64,
) -> (Option<f64>, f64) {
    assert_eq!(a.len(), b.len(), "simd kernel requires equal lengths");
    match resolve(path, a.len(), MIN_F64_DISPATCH) {
        SimdPath::Portable => kernels::sum_kernel::<BOUNDED>(
            a,
            b,
            |_, x, y| {
                let d = x - y;
                d * d
            },
            f64::sqrt,
            bound,
        ),
        #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
        // SAFETY: `resolve` returns Avx2 only after runtime detection.
        SimdPath::Avx2 => unsafe { avx2::l2::<BOUNDED>(a, b, bound) },
        #[cfg(not(all(target_arch = "x86_64", not(feature = "force-scalar"))))]
        SimdPath::Avx2 => unreachable!("resolve() never selects an unsupported path"),
    }
}

/// L∞ (Chebyshev) kernel: `max |a[i] − b[i]|`.
#[inline]
pub fn linf<const BOUNDED: bool>(
    path: SimdPath,
    a: &[f64],
    b: &[f64],
    bound: f64,
) -> (Option<f64>, f64) {
    assert_eq!(a.len(), b.len(), "simd kernel requires equal lengths");
    match resolve(path, a.len(), MIN_F64_DISPATCH) {
        SimdPath::Portable => kernels::max_kernel::<BOUNDED>(a, b, bound),
        #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
        // SAFETY: `resolve` returns Avx2 only after runtime detection.
        SimdPath::Avx2 => unsafe { avx2::linf::<BOUNDED>(a, b, bound) },
        #[cfg(not(all(target_arch = "x86_64", not(feature = "force-scalar"))))]
        SimdPath::Avx2 => unreachable!("resolve() never selects an unsupported path"),
    }
}

/// Sanitizes the path of a four-row batch kernel and checks its shapes.
/// Batches dispatch at every length: one out-of-line call serves four
/// rows, so the single-pair threshold does not apply.
#[inline]
fn resolve_x4(path: SimdPath, a: &[f64], rows: [&[f64]; 4]) -> SimdPath {
    for row in rows {
        assert_eq!(a.len(), row.len(), "simd kernel requires equal lengths");
    }
    resolve(path, a.len(), 0)
}

/// L1 over four rows at once, lane `j` holding row `j`: `out[j]` is
/// bit-identical to `l1::<false>(path, a, rows[j], ∞)`.
#[inline]
pub fn l1_x4(path: SimdPath, a: &[f64], rows: [&[f64]; 4]) -> [f64; 4] {
    match resolve_x4(path, a, rows) {
        SimdPath::Portable => kernels::sum_kernel_x4(a, rows, |x, y| (x - y).abs(), id),
        #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
        // SAFETY: `resolve` returns Avx2 only after runtime detection, and
        // `resolve_x4` asserted every row is as long as `a`.
        SimdPath::Avx2 => unsafe { avx2::l1_x4(a, rows) },
        #[cfg(not(all(target_arch = "x86_64", not(feature = "force-scalar"))))]
        SimdPath::Avx2 => unreachable!("resolve() never selects an unsupported path"),
    }
}

/// L2 over four rows at once, lane `j` holding row `j`: `out[j]` is
/// bit-identical to `l2::<false>(path, a, rows[j], ∞)`.
#[inline]
pub fn l2_x4(path: SimdPath, a: &[f64], rows: [&[f64]; 4]) -> [f64; 4] {
    match resolve_x4(path, a, rows) {
        SimdPath::Portable => kernels::sum_kernel_x4(
            a,
            rows,
            |x, y| {
                let d = x - y;
                d * d
            },
            f64::sqrt,
        ),
        #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
        // SAFETY: `resolve` returns Avx2 only after runtime detection, and
        // `resolve_x4` asserted every row is as long as `a`.
        SimdPath::Avx2 => unsafe { avx2::l2_x4(a, rows) },
        #[cfg(not(all(target_arch = "x86_64", not(feature = "force-scalar"))))]
        SimdPath::Avx2 => unreachable!("resolve() never selects an unsupported path"),
    }
}

/// Weighted L1 kernel: `Σ w[i]·|a[i] − b[i]|` (the `WeightedLp` p = 1
/// specialization).
#[inline]
pub fn weighted_l1<const BOUNDED: bool>(
    path: SimdPath,
    w: &[f64],
    a: &[f64],
    b: &[f64],
    bound: f64,
) -> (Option<f64>, f64) {
    assert_eq!(a.len(), b.len(), "simd kernel requires equal lengths");
    assert_eq!(a.len(), w.len(), "simd kernel requires matching weights");
    match resolve(path, a.len(), MIN_F64_DISPATCH) {
        SimdPath::Portable => {
            kernels::sum_kernel::<BOUNDED>(a, b, |i, x, y| w[i] * (x - y).abs(), id, bound)
        }
        #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
        // SAFETY: `resolve` returns Avx2 only after runtime detection.
        SimdPath::Avx2 => unsafe { avx2::weighted_l1::<BOUNDED>(w, a, b, bound) },
        #[cfg(not(all(target_arch = "x86_64", not(feature = "force-scalar"))))]
        SimdPath::Avx2 => unreachable!("resolve() never selects an unsupported path"),
    }
}

/// Weighted L2 kernel: `sqrt(Σ w[i]·(a[i] − b[i])²)` (the `WeightedLp`
/// p = 2 specialization).
#[inline]
pub fn weighted_l2<const BOUNDED: bool>(
    path: SimdPath,
    w: &[f64],
    a: &[f64],
    b: &[f64],
    bound: f64,
) -> (Option<f64>, f64) {
    assert_eq!(a.len(), b.len(), "simd kernel requires equal lengths");
    assert_eq!(a.len(), w.len(), "simd kernel requires matching weights");
    match resolve(path, a.len(), MIN_F64_DISPATCH) {
        SimdPath::Portable => kernels::sum_kernel::<BOUNDED>(
            a,
            b,
            |i, x, y| {
                let d = x - y;
                w[i] * (d * d)
            },
            f64::sqrt,
            bound,
        ),
        #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
        // SAFETY: `resolve` returns Avx2 only after runtime detection.
        SimdPath::Avx2 => unsafe { avx2::weighted_l2::<BOUNDED>(w, a, b, bound) },
        #[cfg(not(all(target_arch = "x86_64", not(feature = "force-scalar"))))]
        SimdPath::Avx2 => unreachable!("resolve() never selects an unsupported path"),
    }
}

/// Hamming kernel over byte strings (with the length-difference
/// extension). Exact integer counts: bit-identical on every path.
#[inline]
pub fn hamming_bytes<const BOUNDED: bool>(
    path: SimdPath,
    a: &[u8],
    b: &[u8],
    bound: f64,
) -> (Option<f64>, f64) {
    match resolve(path, a.len().min(b.len()), MIN_BYTE_DISPATCH) {
        SimdPath::Portable => kernels::hamming_bytes_kernel::<BOUNDED>(a, b, bound),
        #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
        // SAFETY: `resolve` returns Avx2 only after runtime detection.
        SimdPath::Avx2 => unsafe { avx2::hamming::<BOUNDED>(a, b, bound) },
        #[cfg(not(all(target_arch = "x86_64", not(feature = "force-scalar"))))]
        SimdPath::Avx2 => unreachable!("resolve() never selects an unsupported path"),
    }
}

/// Byte L1 kernel (image metric): `(Σ |a[i] − b[i]|) / norm`.
#[inline]
pub fn byte_l1<const BOUNDED: bool>(
    path: SimdPath,
    a: &[u8],
    b: &[u8],
    norm: f64,
    bound: f64,
) -> (Option<f64>, f64) {
    assert_eq!(a.len(), b.len(), "simd kernel requires equal lengths");
    match resolve(path, a.len(), MIN_BYTE_DISPATCH) {
        SimdPath::Portable => kernels::byte_sum_kernel::<BOUNDED>(
            a,
            b,
            |x, y| u32::from(x.abs_diff(y)),
            |s| s as f64 / norm,
            bound,
        ),
        #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
        // SAFETY: `resolve` returns Avx2 only after runtime detection.
        SimdPath::Avx2 => unsafe { avx2::byte_l1::<BOUNDED>(a, b, norm, bound) },
        #[cfg(not(all(target_arch = "x86_64", not(feature = "force-scalar"))))]
        SimdPath::Avx2 => unreachable!("resolve() never selects an unsupported path"),
    }
}

/// Byte L2 kernel (image metric): `sqrt(Σ (a[i] − b[i])²) / norm`.
#[inline]
pub fn byte_l2<const BOUNDED: bool>(
    path: SimdPath,
    a: &[u8],
    b: &[u8],
    norm: f64,
    bound: f64,
) -> (Option<f64>, f64) {
    assert_eq!(a.len(), b.len(), "simd kernel requires equal lengths");
    match resolve(path, a.len(), MIN_BYTE_DISPATCH) {
        SimdPath::Portable => kernels::byte_sum_kernel::<BOUNDED>(
            a,
            b,
            |x, y| {
                let d = u32::from(x.abs_diff(y));
                d * d
            },
            |s| (s as f64).sqrt() / norm,
            bound,
        ),
        #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
        // SAFETY: `resolve` returns Avx2 only after runtime detection.
        SimdPath::Avx2 => unsafe { avx2::byte_l2::<BOUNDED>(a, b, norm, bound) },
        #[cfg(not(all(target_arch = "x86_64", not(feature = "force-scalar"))))]
        SimdPath::Avx2 => unreachable!("resolve() never selects an unsupported path"),
    }
}

/// Histogram L1 kernel: `(Σ |a[i] − b[i]|) / norm` over `u32` bins.
#[inline]
pub fn u32_l1<const BOUNDED: bool>(
    path: SimdPath,
    a: &[u32],
    b: &[u32],
    norm: f64,
    bound: f64,
) -> (Option<f64>, f64) {
    assert_eq!(a.len(), b.len(), "simd kernel requires equal lengths");
    match resolve(path, a.len(), MIN_BYTE_DISPATCH) {
        SimdPath::Portable => kernels::u32_l1_kernel::<BOUNDED>(a, b, |s| s as f64 / norm, bound),
        #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
        // SAFETY: `resolve` returns Avx2 only after runtime detection.
        SimdPath::Avx2 => unsafe { avx2::u32_l1::<BOUNDED>(a, b, norm, bound) },
        #[cfg(not(all(target_arch = "x86_64", not(feature = "force-scalar"))))]
        SimdPath::Avx2 => unreachable!("resolve() never selects an unsupported path"),
    }
}

// ---------------------------------------------------------------------
// AVX2 backend.
// ---------------------------------------------------------------------

#[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
mod avx2 {
    //! x86_64 AVX2 twins of the portable kernels.
    //!
    //! Safety & bit-identity conventions, upheld by every function here:
    //!
    //! * callers guarantee AVX2 (+POPCNT) support (`resolve` gates on
    //!   runtime detection) and equal slice lengths;
    //! * float kernels keep the 16-lane layout — register `r`'s lane `k`
    //!   is portable lane `4r + k` — never reassociate across lanes,
    //!   never fuse multiply-add, and spill to the shared scalar
    //!   reductions for checkpoints and completion;
    //! * integer kernels accumulate exact totals (order-independent);
    //! * bounded checkpoints fire at the shared geometric schedule.

    use crate::metrics::kernels::{
        complete as complete_bounded, reduce_max, reduce_sum, FIRST_CHECK, LANES,
    };
    use std::arch::x86_64::*;

    /// f64 registers per 16-lane chunk.
    const REGS: usize = LANES / 4;

    /// Iterations of the 32-byte squared-difference loop before the
    /// `i32` partials must fold into the `u64` accumulator: each lane
    /// gains at most 4·255² per iteration, so 4096 iterations stay
    /// below 2³¹ with headroom.
    const SQ_FOLD_ITERS: usize = 4096;

    /// Spills the four accumulator registers to the portable lane
    /// array (register r lane k = portable lane 4r + k).
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn spill(acc: &[__m256d; REGS]) -> [f64; LANES] {
        let mut lanes = [0.0f64; LANES];
        for (r, reg) in acc.iter().enumerate() {
            _mm256_storeu_pd(lanes.as_mut_ptr().add(4 * r), *reg);
        }
        lanes
    }

    /// Horizontal sum of a register holding four exact `u64` counts.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn hsum_u64(acc: __m256i) -> u64 {
        let mut parts = [0u64; 4];
        _mm256_storeu_si256(parts.as_mut_ptr() as *mut __m256i, acc);
        parts[0]
            .wrapping_add(parts[1])
            .wrapping_add(parts[2])
            .wrapping_add(parts[3])
    }

    /// Widens eight non-negative `i32` lanes to four `u64` pair-sums.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn widen_i32_pairs(acc: __m256i) -> __m256i {
        let mask = _mm256_set1_epi64x(0xFFFF_FFFF);
        _mm256_add_epi64(_mm256_and_si256(acc, mask), _mm256_srli_epi64::<32>(acc))
    }

    /// How far ahead of the current element the streaming kernels
    /// prefetch (bytes). Eight cache lines ≈ the L3 load latency at the
    /// kernels' consumption rate.
    const PREFETCH_BYTES: usize = 512;

    /// Prefetch hint. `wrapping_add` keeps the pointer arithmetic
    /// defined near the end of the slice — `prefetcht0` itself never
    /// faults, whatever the address.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn prefetch(p: *const i8) {
        _mm_prefetch::<_MM_HINT_T0>(p.wrapping_add(PREFETCH_BYTES));
    }

    macro_rules! avx2_sum_kernel {
        ($(#[$doc:meta])* $name:ident,
         |$av:ident, $bv:ident| $vterm:expr,
         |$x:ident, $y:ident| $sterm:expr,
         $finish:expr) => {
            $(#[$doc])*
            #[target_feature(enable = "avx2")]
            pub(super) unsafe fn $name<const BOUNDED: bool>(
                a: &[f64],
                b: &[f64],
                bound: f64,
            ) -> (Option<f64>, f64) {
                let n = a.len();
                let ap = a.as_ptr();
                let bp = b.as_ptr();
                let mut acc = [_mm256_setzero_pd(); REGS];
                let mut i = 0usize;
                let mut next_check = FIRST_CHECK;
                while i + LANES <= n {
                    // Large inputs stream from L3/DRAM; asking for the
                    // chunk a few hundred elements ahead hides that
                    // latency and costs nothing when data is already L1.
                    prefetch(ap.add(i) as *const i8);
                    prefetch(bp.add(i) as *const i8);
                    for (r, reg) in acc.iter_mut().enumerate() {
                        let $av = _mm256_loadu_pd(ap.add(i + 4 * r));
                        let $bv = _mm256_loadu_pd(bp.add(i + 4 * r));
                        *reg = _mm256_add_pd(*reg, $vterm);
                    }
                    i += LANES;
                    if BOUNDED && i >= next_check {
                        next_check <<= 1;
                        if $finish(reduce_sum(&spill(&acc))) > bound {
                            return (None, i as f64 / n as f64);
                        }
                    }
                }
                let mut lanes = spill(&acc);
                for l in 0..n - i {
                    let $x = *ap.add(i + l);
                    let $y = *bp.add(i + l);
                    lanes[l] += $sterm;
                }
                complete_bounded::<BOUNDED>($finish(reduce_sum(&lanes)), bound)
            }
        };
    }

    macro_rules! avx2_weighted_sum_kernel {
        ($(#[$doc:meta])* $name:ident,
         |$wv:ident, $av:ident, $bv:ident| $vterm:expr,
         |$w:ident, $x:ident, $y:ident| $sterm:expr,
         $finish:expr) => {
            $(#[$doc])*
            #[target_feature(enable = "avx2")]
            pub(super) unsafe fn $name<const BOUNDED: bool>(
                w: &[f64],
                a: &[f64],
                b: &[f64],
                bound: f64,
            ) -> (Option<f64>, f64) {
                let n = a.len();
                let wp = w.as_ptr();
                let ap = a.as_ptr();
                let bp = b.as_ptr();
                let mut acc = [_mm256_setzero_pd(); REGS];
                let mut i = 0usize;
                let mut next_check = FIRST_CHECK;
                while i + LANES <= n {
                    prefetch(wp.add(i) as *const i8);
                    prefetch(ap.add(i) as *const i8);
                    prefetch(bp.add(i) as *const i8);
                    for (r, reg) in acc.iter_mut().enumerate() {
                        let $wv = _mm256_loadu_pd(wp.add(i + 4 * r));
                        let $av = _mm256_loadu_pd(ap.add(i + 4 * r));
                        let $bv = _mm256_loadu_pd(bp.add(i + 4 * r));
                        *reg = _mm256_add_pd(*reg, $vterm);
                    }
                    i += LANES;
                    if BOUNDED && i >= next_check {
                        next_check <<= 1;
                        if $finish(reduce_sum(&spill(&acc))) > bound {
                            return (None, i as f64 / n as f64);
                        }
                    }
                }
                let mut lanes = spill(&acc);
                for l in 0..n - i {
                    let $w = *wp.add(i + l);
                    let $x = *ap.add(i + l);
                    let $y = *bp.add(i + l);
                    lanes[l] += $sterm;
                }
                complete_bounded::<BOUNDED>($finish(reduce_sum(&lanes)), bound)
            }
        };
    }

    /// `|x − y|` via sign-bit clearing, same bit operation as
    /// `f64::abs`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn abs_diff_pd(a: __m256d, b: __m256d) -> __m256d {
        _mm256_andnot_pd(_mm256_set1_pd(-0.0), _mm256_sub_pd(a, b))
    }

    avx2_sum_kernel!(
        /// L1: `Σ |a[i] − b[i]|`.
        l1,
        |av, bv| abs_diff_pd(av, bv),
        |x, y| (x - y).abs(),
        super::id
    );

    avx2_sum_kernel!(
        /// L2: `sqrt(Σ (a[i] − b[i])²)` — square via mul+add, no FMA.
        l2,
        |av, bv| {
            let d = _mm256_sub_pd(av, bv);
            _mm256_mul_pd(d, d)
        },
        |x, y| {
            let d = x - y;
            d * d
        },
        f64::sqrt
    );

    avx2_weighted_sum_kernel!(
        /// Weighted L1: `Σ w[i]·|a[i] − b[i]|`.
        weighted_l1,
        |wv, av, bv| _mm256_mul_pd(wv, abs_diff_pd(av, bv)),
        |w, x, y| w * (x - y).abs(),
        super::id
    );

    avx2_weighted_sum_kernel!(
        /// Weighted L2: `sqrt(Σ w[i]·(a[i] − b[i])²)`, multiplication
        /// order `w · (d · d)` as in the portable kernel.
        weighted_l2,
        |wv, av, bv| {
            let d = _mm256_sub_pd(av, bv);
            _mm256_mul_pd(wv, _mm256_mul_pd(d, d))
        },
        |w, x, y| {
            let d = x - y;
            w * (d * d)
        },
        f64::sqrt
    );

    /// Loads `p[..4]`, or only `p[..rem]` with zeros after when
    /// `rem < 4`. A zero query element against a zero row element adds a
    /// `+0.0` term, which leaves the lane's sum unchanged bit for bit
    /// (sums of non-negative terms from `+0.0` are never `−0.0`).
    ///
    /// # Safety
    ///
    /// AVX2 must be available, and `p[..rem.min(4)]` readable: the
    /// masked load touches no element past it.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn load_upto4(p: *const f64, rem: usize) -> __m256d {
        if rem >= 4 {
            _mm256_loadu_pd(p)
        } else {
            let mask = _mm256_cmpgt_epi64(
                _mm256_set1_epi64x(rem as i64),
                _mm256_setr_epi64x(0, 1, 2, 3),
            );
            _mm256_maskload_pd(p, mask)
        }
    }

    /// 4×4 transpose: row-major terms (register `j` = row `j`, elements
    /// `i..i+4`) to lane-major ones (register `k` = element `i + k`,
    /// lane `j` = row `j`).
    ///
    /// # Safety
    ///
    /// AVX2 must be available.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn transpose4(t: [__m256d; 4]) -> [__m256d; 4] {
        let lo01 = _mm256_unpacklo_pd(t[0], t[1]);
        let hi01 = _mm256_unpackhi_pd(t[0], t[1]);
        let lo23 = _mm256_unpacklo_pd(t[2], t[3]);
        let hi23 = _mm256_unpackhi_pd(t[2], t[3]);
        [
            _mm256_permute2f128_pd::<0x20>(lo01, lo23),
            _mm256_permute2f128_pd::<0x20>(hi01, hi23),
            _mm256_permute2f128_pd::<0x31>(lo01, lo23),
            _mm256_permute2f128_pd::<0x31>(hi01, hi23),
        ]
    }

    /// Four-row batch kernels: lane `j` of every register is row `j`.
    ///
    /// The 16 portable lanes are taken four at a time. Group `g` owns
    /// lanes `4g..4g+3` in four accumulators, indexed statically, and
    /// adds elements `16c + 4g + k` for chunks `c = 0, 1, …`, the same
    /// per-lane order as the single-pair kernels. A group folds to
    /// `(l0 + l1) + (l2 + l3)` and the groups to `(g0 + g1) + (g2 + g3)`,
    /// which is `reduce_sum`'s tree. `finish` is the vector form of the
    /// scalar one (`_mm256_sqrt_pd` is correctly rounded like
    /// `f64::sqrt`).
    macro_rules! avx2_sum_kernel_x4 {
        ($(#[$doc:meta])* $name:ident,
         |$av:ident, $bv:ident| $vterm:expr,
         $finish:expr) => {
            $(#[$doc])*
            ///
            /// # Safety
            ///
            /// AVX2 must be available, and every row at least as long as
            /// `a`.
            #[target_feature(enable = "avx2")]
            pub(super) unsafe fn $name(a: &[f64], rows: [&[f64]; 4]) -> [f64; 4] {
                let n = a.len();
                let ap = a.as_ptr();
                let [r0, r1, r2, r3] = rows.map(<[f64]>::as_ptr);
                let mut groups = [_mm256_setzero_pd(); REGS];
                for (g, group) in groups.iter_mut().enumerate() {
                    let mut acc = [_mm256_setzero_pd(); 4];
                    let mut i = 4 * g;
                    while i < n {
                        let rem = n - i;
                        let $av = load_upto4(ap.add(i), rem);
                        let terms = transpose4([
                            { let $bv = load_upto4(r0.add(i), rem); $vterm },
                            { let $bv = load_upto4(r1.add(i), rem); $vterm },
                            { let $bv = load_upto4(r2.add(i), rem); $vterm },
                            { let $bv = load_upto4(r3.add(i), rem); $vterm },
                        ]);
                        for (sum, term) in acc.iter_mut().zip(terms) {
                            *sum = _mm256_add_pd(*sum, term);
                        }
                        i += LANES;
                    }
                    *group = _mm256_add_pd(
                        _mm256_add_pd(acc[0], acc[1]),
                        _mm256_add_pd(acc[2], acc[3]),
                    );
                }
                let total = _mm256_add_pd(
                    _mm256_add_pd(groups[0], groups[1]),
                    _mm256_add_pd(groups[2], groups[3]),
                );
                let mut out = [0.0f64; 4];
                _mm256_storeu_pd(out.as_mut_ptr(), $finish(total));
                out
            }
        };
    }

    avx2_sum_kernel_x4!(
        /// L1 over four rows: `Σ |a[i] − rows[j][i]|` in lane `j`.
        l1_x4,
        |av, bv| abs_diff_pd(av, bv),
        std::convert::identity
    );

    avx2_sum_kernel_x4!(
        /// L2 over four rows: `sqrt(Σ (a[i] − rows[j][i])²)` in lane `j`,
        /// square via mul+add, no FMA.
        l2_x4,
        |av, bv| {
            let d = _mm256_sub_pd(av, bv);
            _mm256_mul_pd(d, d)
        },
        _mm256_sqrt_pd
    );

    /// L∞: `max |a[i] − b[i]|`. `_mm256_max_pd` agrees bitwise with
    /// `f64::max` on the non-NaN, non-negative terms produced here.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn linf<const BOUNDED: bool>(
        a: &[f64],
        b: &[f64],
        bound: f64,
    ) -> (Option<f64>, f64) {
        let n = a.len();
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let mut acc = [_mm256_setzero_pd(); REGS];
        let mut i = 0usize;
        let mut next_check = FIRST_CHECK;
        while i + LANES <= n {
            prefetch(ap.add(i) as *const i8);
            prefetch(bp.add(i) as *const i8);
            for (r, reg) in acc.iter_mut().enumerate() {
                let av = _mm256_loadu_pd(ap.add(i + 4 * r));
                let bv = _mm256_loadu_pd(bp.add(i + 4 * r));
                *reg = _mm256_max_pd(*reg, abs_diff_pd(av, bv));
            }
            i += LANES;
            if BOUNDED && i >= next_check {
                next_check <<= 1;
                if reduce_max(&spill(&acc)) > bound {
                    return (None, i as f64 / n as f64);
                }
            }
        }
        let mut lanes = spill(&acc);
        for (l, lane) in lanes.iter_mut().enumerate().take(n - i) {
            *lane = lane.max((*ap.add(i + l) - *bp.add(i + l)).abs());
        }
        complete_bounded::<BOUNDED>(reduce_max(&lanes), bound)
    }

    /// Hamming over bytes: 32-wide compare + movemask + POPCNT.
    #[target_feature(enable = "avx2,popcnt")]
    pub(super) unsafe fn hamming<const BOUNDED: bool>(
        a: &[u8],
        b: &[u8],
        bound: f64,
    ) -> (Option<f64>, f64) {
        let n = a.len().min(b.len());
        let mut count = a.len().abs_diff(b.len()) as u64;
        if BOUNDED && count as f64 > bound {
            return (None, 0.0);
        }
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let mut i = 0usize;
        let mut next_check = FIRST_CHECK;
        while i + 32 <= n {
            let av = _mm256_loadu_si256(ap.add(i) as *const __m256i);
            let bv = _mm256_loadu_si256(bp.add(i) as *const __m256i);
            let eq = _mm256_movemask_epi8(_mm256_cmpeq_epi8(av, bv)) as u32;
            count += u64::from(32 - eq.count_ones());
            i += 32;
            if BOUNDED && i >= next_check {
                next_check <<= 1;
                if count as f64 > bound {
                    return (None, i as f64 / n as f64);
                }
            }
        }
        for j in i..n {
            count += u64::from(*ap.add(j) != *bp.add(j));
        }
        complete_bounded::<BOUNDED>(count as f64, bound)
    }

    /// Byte L1 via `_mm256_sad_epu8`: exact `u64` sums of absolute
    /// differences, 32 pixels per iteration.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn byte_l1<const BOUNDED: bool>(
        a: &[u8],
        b: &[u8],
        norm: f64,
        bound: f64,
    ) -> (Option<f64>, f64) {
        let n = a.len();
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let mut acc = _mm256_setzero_si256();
        let mut i = 0usize;
        let mut next_check = FIRST_CHECK;
        while i + 32 <= n {
            let av = _mm256_loadu_si256(ap.add(i) as *const __m256i);
            let bv = _mm256_loadu_si256(bp.add(i) as *const __m256i);
            acc = _mm256_add_epi64(acc, _mm256_sad_epu8(av, bv));
            i += 32;
            if BOUNDED && i >= next_check {
                next_check <<= 1;
                if hsum_u64(acc) as f64 / norm > bound {
                    return (None, i as f64 / n as f64);
                }
            }
        }
        let mut total = hsum_u64(acc);
        for j in i..n {
            total += u64::from((*ap.add(j)).abs_diff(*bp.add(j)));
        }
        complete_bounded::<BOUNDED>(total as f64 / norm, bound)
    }

    /// Byte L2: absolute difference, widen to u16, square-and-pair-sum
    /// with `_mm256_madd_epi16`, fold the `i32` partials into a `u64`
    /// accumulator before they can overflow.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn byte_l2<const BOUNDED: bool>(
        a: &[u8],
        b: &[u8],
        norm: f64,
        bound: f64,
    ) -> (Option<f64>, f64) {
        let n = a.len();
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let zero = _mm256_setzero_si256();
        let mut acc64 = zero;
        let mut acc32 = zero;
        let mut pending = 0usize;
        let mut i = 0usize;
        let mut next_check = FIRST_CHECK;
        while i + 32 <= n {
            let av = _mm256_loadu_si256(ap.add(i) as *const __m256i);
            let bv = _mm256_loadu_si256(bp.add(i) as *const __m256i);
            // |a − b| on u8 via saturating subtraction both ways.
            let d = _mm256_or_si256(_mm256_subs_epu8(av, bv), _mm256_subs_epu8(bv, av));
            let lo = _mm256_unpacklo_epi8(d, zero);
            let hi = _mm256_unpackhi_epi8(d, zero);
            let sq = _mm256_add_epi32(_mm256_madd_epi16(lo, lo), _mm256_madd_epi16(hi, hi));
            acc32 = _mm256_add_epi32(acc32, sq);
            i += 32;
            pending += 1;
            let checkpoint = BOUNDED && i >= next_check;
            if pending == SQ_FOLD_ITERS || checkpoint {
                acc64 = _mm256_add_epi64(acc64, widen_i32_pairs(acc32));
                acc32 = zero;
                pending = 0;
                if checkpoint {
                    next_check <<= 1;
                    if (hsum_u64(acc64) as f64).sqrt() / norm > bound {
                        return (None, i as f64 / n as f64);
                    }
                }
            }
        }
        acc64 = _mm256_add_epi64(acc64, widen_i32_pairs(acc32));
        let mut total = hsum_u64(acc64);
        for j in i..n {
            let d = u64::from((*ap.add(j)).abs_diff(*bp.add(j)));
            total += d * d;
        }
        complete_bounded::<BOUNDED>((total as f64).sqrt() / norm, bound)
    }

    /// Histogram L1 over `u32` bins: unsigned abs-diff via max−min,
    /// widened to exact `u64` sums.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn u32_l1<const BOUNDED: bool>(
        a: &[u32],
        b: &[u32],
        norm: f64,
        bound: f64,
    ) -> (Option<f64>, f64) {
        let n = a.len();
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let mut acc = _mm256_setzero_si256();
        let mut i = 0usize;
        let mut next_check = FIRST_CHECK;
        while i + 8 <= n {
            let av = _mm256_loadu_si256(ap.add(i) as *const __m256i);
            let bv = _mm256_loadu_si256(bp.add(i) as *const __m256i);
            let d = _mm256_sub_epi32(_mm256_max_epu32(av, bv), _mm256_min_epu32(av, bv));
            let lo = _mm256_cvtepu32_epi64(_mm256_castsi256_si128(d));
            let hi = _mm256_cvtepu32_epi64(_mm256_extracti128_si256::<1>(d));
            acc = _mm256_add_epi64(acc, _mm256_add_epi64(lo, hi));
            i += 8;
            if BOUNDED && i >= next_check {
                next_check <<= 1;
                if hsum_u64(acc) as f64 / norm > bound {
                    return (None, i as f64 / n as f64);
                }
            }
        }
        let mut total = hsum_u64(acc);
        for j in i..n {
            total += u64::from((*ap.add(j)).abs_diff(*bp.add(j)));
        }
        complete_bounded::<BOUNDED>(total as f64 / norm, bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decide_honors_env_then_detection() {
        if cfg!(feature = "force-scalar") {
            assert_eq!(decide(None, true), SimdPath::Portable);
            return;
        }
        assert_eq!(decide(None, true), SimdPath::Avx2);
        assert_eq!(decide(None, false), SimdPath::Portable);
        assert_eq!(decide(Some("auto"), true), SimdPath::Avx2);
        assert_eq!(decide(Some(""), true), SimdPath::Avx2);
        assert_eq!(decide(Some("avx2"), true), SimdPath::Avx2);
        // A preference for AVX2 on hardware without it degrades safely.
        assert_eq!(decide(Some("avx2"), false), SimdPath::Portable);
        for off in ["portable", "scalar", "off"] {
            assert_eq!(decide(Some(off), true), SimdPath::Portable);
        }
        // Unrecognized values fall back to the reference path.
        assert_eq!(decide(Some("wat"), true), SimdPath::Portable);
    }

    #[test]
    fn active_is_a_supported_path() {
        let path = active();
        assert!(supported(path));
        assert_eq!(active(), path, "decision is cached");
        assert!(!active_name().is_empty());
    }

    #[test]
    fn test_paths_always_includes_portable() {
        let paths = test_paths();
        assert_eq!(paths[0], SimdPath::Portable);
        assert!(paths.len() <= 2);
    }

    #[test]
    fn tiny_inputs_resolve_portable() {
        assert_eq!(
            resolve(SimdPath::Avx2, MIN_F64_DISPATCH - 1, MIN_F64_DISPATCH),
            SimdPath::Portable
        );
    }

    /// Quick in-crate cross-path smoke check; the heavyweight sweep
    /// lives in `tests/simd_dispatch.rs`.
    #[test]
    fn paths_agree_bitwise_on_a_fixed_vector() {
        let n = 517; // several chunks + a ragged tail
        let a: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() * 3.0).collect();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).cos() * 2.0).collect();
        let w: Vec<f64> = (0..n).map(|i| 0.25 + (i % 7) as f64).collect();
        for path in test_paths() {
            let reference = l2::<false>(SimdPath::Portable, &a, &b, f64::INFINITY)
                .0
                .unwrap();
            let got = l2::<false>(path, &a, &b, f64::INFINITY).0.unwrap();
            assert_eq!(got.to_bits(), reference.to_bits(), "l2 via {path}");
            let reference = l1::<false>(SimdPath::Portable, &a, &b, f64::INFINITY)
                .0
                .unwrap();
            let got = l1::<false>(path, &a, &b, f64::INFINITY).0.unwrap();
            assert_eq!(got.to_bits(), reference.to_bits(), "l1 via {path}");
            let reference = linf::<false>(SimdPath::Portable, &a, &b, f64::INFINITY)
                .0
                .unwrap();
            let got = linf::<false>(path, &a, &b, f64::INFINITY).0.unwrap();
            assert_eq!(got.to_bits(), reference.to_bits(), "linf via {path}");
            let reference = weighted_l2::<false>(SimdPath::Portable, &w, &a, &b, f64::INFINITY)
                .0
                .unwrap();
            let got = weighted_l2::<false>(path, &w, &a, &b, f64::INFINITY)
                .0
                .unwrap();
            assert_eq!(got.to_bits(), reference.to_bits(), "weighted_l2 via {path}");
            let rows = [&b[..], &a[..], &w[..], &b[..]];
            for (j, row) in rows.into_iter().enumerate() {
                let want = l2::<false>(path, &a, row, f64::INFINITY).0.unwrap();
                let got = l2_x4(path, &a, rows)[j];
                assert_eq!(got.to_bits(), want.to_bits(), "l2_x4 row {j} via {path}");
                let want = l1::<false>(path, &a, row, f64::INFINITY).0.unwrap();
                let got = l1_x4(path, &a, rows)[j];
                assert_eq!(got.to_bits(), want.to_bits(), "l1_x4 row {j} via {path}");
            }
        }
    }

    #[test]
    fn integer_kernels_agree_across_paths() {
        let xs: Vec<u8> = (0..1001u32).map(|i| (i % 251) as u8).collect();
        let ys: Vec<u8> = (0..1001u32)
            .map(|i| (i.wrapping_mul(7) % 241) as u8)
            .collect();
        let ha: Vec<u32> = (0..256u32).map(|i| i * 3).collect();
        let hb: Vec<u32> = (0..256u32).map(|i| (i * 5) % 97).collect();
        for path in test_paths() {
            assert_eq!(
                hamming_bytes::<false>(path, &xs, &ys, f64::INFINITY).0,
                hamming_bytes::<false>(SimdPath::Portable, &xs, &ys, f64::INFINITY).0,
                "hamming via {path}"
            );
            assert_eq!(
                byte_l1::<false>(path, &xs, &ys, 10_000.0, f64::INFINITY).0,
                byte_l1::<false>(SimdPath::Portable, &xs, &ys, 10_000.0, f64::INFINITY).0,
                "byte_l1 via {path}"
            );
            assert_eq!(
                byte_l2::<false>(path, &xs, &ys, 100.0, f64::INFINITY).0,
                byte_l2::<false>(SimdPath::Portable, &xs, &ys, 100.0, f64::INFINITY).0,
                "byte_l2 via {path}"
            );
            assert_eq!(
                u32_l1::<false>(path, &ha, &hb, 1.0, f64::INFINITY).0,
                u32_l1::<false>(SimdPath::Portable, &ha, &hb, 1.0, f64::INFINITY).0,
                "u32_l1 via {path}"
            );
        }
    }
}
