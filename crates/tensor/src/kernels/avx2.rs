//! The AVX2+FMA tier: [`V8`], one 256-bit register of 8 `f32` lanes, and
//! the `#[target_feature]` entry points that compile `simd.rs`'s bodies at
//! that width.
//!
//! The tile's column edge uses `maskload` / `maskstore` with a lane mask,
//! as AVX-512 uses its mask registers.
//!
//! # Safety
//! Every `unsafe fn` here requires AVX2 and FMA at run time; dispatch
//! (`kernels::selected` / `with_override`) routes here only after
//! `supported(Kernel::Avx2)` confirmed both.

use super::simd::{self, Elem, Lanes};
use super::{scalar, Lhs, Micro, Rows, Stretches};
use crate::fastmath::SATURATE;
use std::arch::x86_64::*;
use std::marker::PhantomData;

/// One 256-bit register.
#[derive(Clone, Copy)]
pub(crate) struct V8(__m256);

/// `maskload` / `maskstore` masks: the 8 words from `LANE_MASK[8 - n]`
/// enable lanes `0..n`.
static LANE_MASK: [i32; 16] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];

/// The mask enabling lanes `0..n`, `n <= 8`.
#[inline(always)]
unsafe fn lane_mask(n: usize) -> __m256i {
    debug_assert!(n <= 8);
    // SAFETY: `n <= 8`, so the 8 words from `8 - n` lie inside the 16-word
    // table; AVX is on in the `#[target_feature]` caller this inlines into.
    _mm256_loadu_si256(LANE_MASK.as_ptr().add(8 - n) as *const __m256i)
}

// SAFETY: each method is AVX / AVX2 / FMA intrinsics, enabled in the caller
// by the trait's contract. `load`/`store` move 8 floats (32 bytes),
// `load_bf16` reads 8 u16s (16 bytes), and `maskload` / `maskstore` neither
// read, write nor fault on the lanes `lane_mask(n)` leaves off. `min`/`max`
// are `vminps`/`vmaxps` (second operand on NaN); the saturate compare is
// ordered-quiet (false on NaN).
unsafe impl Lanes for V8 {
    const N: usize = 8;
    #[inline(always)]
    unsafe fn splat(x: f32) -> Self {
        V8(_mm256_set1_ps(x))
    }
    #[inline(always)]
    unsafe fn load(p: *const f32) -> Self {
        V8(_mm256_loadu_ps(p))
    }
    #[inline(always)]
    unsafe fn load_bf16(p: *const u16) -> Self {
        // Zero-extend 8×u16 to 8×u32 and shift into the high half: exactly
        // `f32::from_bits((b as u32) << 16)` per lane.
        let wide = _mm256_cvtepu16_epi32(_mm_loadu_si128(p as *const __m128i));
        V8(_mm256_castsi256_ps(_mm256_slli_epi32::<16>(wide)))
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f32) {
        _mm256_storeu_ps(p, self.0)
    }
    #[inline(always)]
    unsafe fn load_first(p: *const f32, n: usize) -> Self {
        V8(_mm256_maskload_ps(p, lane_mask(n)))
    }
    #[inline(always)]
    unsafe fn store_first(self, p: *mut f32, n: usize) {
        _mm256_maskstore_ps(p, lane_mask(n), self.0)
    }
    #[inline(always)]
    unsafe fn add(self, b: Self) -> Self {
        V8(_mm256_add_ps(self.0, b.0))
    }
    #[inline(always)]
    unsafe fn mul(self, b: Self) -> Self {
        V8(_mm256_mul_ps(self.0, b.0))
    }
    #[inline(always)]
    unsafe fn div(self, b: Self) -> Self {
        V8(_mm256_div_ps(self.0, b.0))
    }
    #[inline(always)]
    unsafe fn fmadd(self, b: Self, c: Self) -> Self {
        V8(_mm256_fmadd_ps(self.0, b.0, c.0))
    }
    #[inline(always)]
    unsafe fn min(self, b: Self) -> Self {
        V8(_mm256_min_ps(self.0, b.0))
    }
    #[inline(always)]
    unsafe fn max(self, b: Self) -> Self {
        V8(_mm256_max_ps(self.0, b.0))
    }
    #[inline(always)]
    unsafe fn saturate(self, x: Self) -> Self {
        let sign_bit = _mm256_set1_ps(-0.0);
        let abs_x = _mm256_andnot_ps(sign_bit, x.0);
        let sat = _mm256_cmp_ps::<_CMP_GE_OQ>(abs_x, _mm256_set1_ps(SATURATE));
        let signed_one = _mm256_or_ps(_mm256_and_ps(sign_bit, x.0), _mm256_set1_ps(1.0));
        V8(_mm256_blendv_ps(self.0, signed_one, sat))
    }
}

/// The 8×8 AVX2 micro-tile, generic over the packed element.
pub(crate) struct Avx2Micro<E>(PhantomData<E>);

impl<E: Elem> Micro for Avx2Micro<E> {
    type E = E;
    const MR: usize = simd::MR;
    const NR: usize = V8::N;

    /// # Safety
    /// The contract of [`Micro::tile`].
    #[target_feature(enable = "avx2")]
    unsafe fn tile<A: Lhs<E>, B: Rows<E>>(
        kb: usize,
        a: A,
        b: B,
        out: *mut f32,
        ldc: usize,
        rows: usize,
        cols: usize,
        acc: bool,
    ) {
        simd::tile::<V8, E, A, B>(kb, a, b, out, ldc, rows, cols, acc)
    }

    /// # Safety
    /// The contract of [`Micro::scatter`].
    #[target_feature(enable = "avx2")]
    unsafe fn scatter(tile: &[f32], dst: *mut f32, off: &[usize], cols: usize, s: Stretches) {
        simd::scatter::<V8>(tile, dst, off, cols, s)
    }
}

/// In-place 8-wide `fast_tanh` sweep.
///
/// # Safety
/// AVX2 and FMA must be available (`kernels::tanh_sweep` checks first).
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn tanh_sweep(v: &mut [f32]) {
    simd::sweep(v, simd::tanh::<V8>, scalar::tanh_sweep)
}

/// In-place 8-wide `fast_sigmoid` sweep.
///
/// # Safety
/// AVX2 and FMA must be available (`kernels::sigmoid_sweep` checks first).
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn sigmoid_sweep(v: &mut [f32]) {
    simd::sweep(v, simd::sigmoid::<V8>, scalar::sigmoid_sweep)
}

/// 8-wide fused LSTM gate row.
///
/// # Safety
/// AVX2 and FMA must be available, and the row lengths of
/// [`simd::lstm_gate_row`] hold (`kernels::lstm_gate_row` asserts them).
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn lstm_gate_row(
    pa_r: &[f32],
    cp_r: &[f32],
    hid: usize,
    g_r: &mut [f32],
    c_r: &mut [f32],
    t_r: &mut [f32],
    h_r: &mut [f32],
) {
    simd::lstm_gate_row::<V8>(pa_r, cp_r, hid, g_r, c_r, t_r, h_r)
}
