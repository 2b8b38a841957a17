//! The AVX-512F tier: [`V16`], one 512-bit register of 16 `f32` lanes, and
//! the `#[target_feature]` entry points that compile `simd.rs`'s bodies at
//! that width. The tile's column edge uses AVX-512's native store/load
//! masks.
//!
//! # Safety
//! Every `unsafe fn` here requires AVX-512F at run time; dispatch routes
//! here only after `supported(Kernel::Avx512)` confirmed it.

use super::simd::{self, Elem, Lanes};
use super::{scalar, Lhs, Micro, Rows, Stretches};
use crate::fastmath::SATURATE;
use std::arch::x86_64::*;
use std::marker::PhantomData;

/// One 512-bit register.
#[derive(Clone, Copy)]
pub(crate) struct V16(__m512);

/// The mask register enabling lanes `0..n`, `n <= 16`.
#[inline(always)]
fn lane_mask(n: usize) -> __mmask16 {
    debug_assert!(n <= 16);
    ((1u32 << n) - 1) as __mmask16
}

// SAFETY: each method is AVX-512F intrinsics, enabled in the caller by the
// trait's contract. `load`/`store` move 16 floats (64 bytes), `load_bf16`
// reads 16 u16s (32 bytes), and the masked load/store neither read, write
// nor fault on the lanes `lane_mask(n)` leaves off. `min`/`max` are
// `vminps`/`vmaxps` (second operand on NaN); the saturate compare is
// ordered-quiet (false on NaN). Bitwise ops go through `si512` casts:
// float `and`/`or` at 512 bits would need AVX512DQ.
unsafe impl Lanes for V16 {
    const N: usize = 16;
    #[inline(always)]
    unsafe fn splat(x: f32) -> Self {
        V16(_mm512_set1_ps(x))
    }
    #[inline(always)]
    unsafe fn load(p: *const f32) -> Self {
        V16(_mm512_loadu_ps(p))
    }
    #[inline(always)]
    unsafe fn load_bf16(p: *const u16) -> Self {
        // Zero-extend 16×u16 to 16×u32 and shift into the high half:
        // exactly `f32::from_bits((b as u32) << 16)` per lane.
        let wide = _mm512_cvtepu16_epi32(_mm256_loadu_si256(p as *const __m256i));
        V16(_mm512_castsi512_ps(_mm512_slli_epi32::<16>(wide)))
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f32) {
        _mm512_storeu_ps(p, self.0)
    }
    #[inline(always)]
    unsafe fn load_first(p: *const f32, n: usize) -> Self {
        V16(_mm512_maskz_loadu_ps(lane_mask(n), p))
    }
    #[inline(always)]
    unsafe fn store_first(self, p: *mut f32, n: usize) {
        _mm512_mask_storeu_ps(p, lane_mask(n), self.0)
    }
    #[inline(always)]
    unsafe fn add(self, b: Self) -> Self {
        V16(_mm512_add_ps(self.0, b.0))
    }
    #[inline(always)]
    unsafe fn mul(self, b: Self) -> Self {
        V16(_mm512_mul_ps(self.0, b.0))
    }
    #[inline(always)]
    unsafe fn div(self, b: Self) -> Self {
        V16(_mm512_div_ps(self.0, b.0))
    }
    #[inline(always)]
    unsafe fn fmadd(self, b: Self, c: Self) -> Self {
        V16(_mm512_fmadd_ps(self.0, b.0, c.0))
    }
    #[inline(always)]
    unsafe fn min(self, b: Self) -> Self {
        V16(_mm512_min_ps(self.0, b.0))
    }
    #[inline(always)]
    unsafe fn max(self, b: Self) -> Self {
        V16(_mm512_max_ps(self.0, b.0))
    }
    #[inline(always)]
    unsafe fn saturate(self, x: Self) -> Self {
        let sign_bit = _mm512_set1_epi32(i32::MIN);
        let xi = _mm512_castps_si512(x.0);
        let abs_x = _mm512_castsi512_ps(_mm512_andnot_si512(sign_bit, xi));
        let sat = _mm512_cmp_ps_mask::<_CMP_GE_OQ>(abs_x, _mm512_set1_ps(SATURATE));
        let one = _mm512_castps_si512(_mm512_set1_ps(1.0));
        let signed_one = _mm512_castsi512_ps(_mm512_or_si512(_mm512_and_si512(sign_bit, xi), one));
        V16(_mm512_mask_blend_ps(sat, self.0, signed_one))
    }
}

/// The 8×16 AVX-512 micro-tile, generic over the packed element.
pub(crate) struct Avx512Micro<E>(PhantomData<E>);

impl<E: Elem> Micro for Avx512Micro<E> {
    type E = E;
    const MR: usize = simd::MR;
    const NR: usize = V16::N;

    /// # Safety
    /// The contract of [`Micro::tile`].
    #[target_feature(enable = "avx512f")]
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
        simd::tile::<V16, E, A, B>(kb, a, b, out, ldc, rows, cols, acc)
    }

    /// # Safety
    /// The contract of [`Micro::scatter`].
    #[target_feature(enable = "avx512f")]
    unsafe fn scatter(tile: &[f32], dst: *mut f32, off: &[usize], cols: usize, s: Stretches) {
        simd::scatter::<V16>(tile, dst, off, cols, s)
    }
}

/// In-place 16-wide `fast_tanh` sweep.
///
/// # Safety
/// AVX-512F must be available (`kernels::tanh_sweep` checks first).
#[target_feature(enable = "avx512f")]
pub(crate) unsafe fn tanh_sweep(v: &mut [f32]) {
    simd::sweep(v, simd::tanh::<V16>, scalar::tanh_sweep)
}

/// In-place 16-wide `fast_sigmoid` sweep.
///
/// # Safety
/// AVX-512F must be available (`kernels::sigmoid_sweep` checks first).
#[target_feature(enable = "avx512f")]
pub(crate) unsafe fn sigmoid_sweep(v: &mut [f32]) {
    simd::sweep(v, simd::sigmoid::<V16>, scalar::sigmoid_sweep)
}

/// 16-wide fused LSTM gate row.
///
/// # Safety
/// AVX-512F must be available, and the row lengths of
/// [`simd::lstm_gate_row`] hold (`kernels::lstm_gate_row` asserts them).
#[target_feature(enable = "avx512f")]
pub(crate) unsafe fn lstm_gate_row(
    pa_r: &[f32],
    cp_r: &[f32],
    hid: usize,
    g_r: &mut [f32],
    c_r: &mut [f32],
    t_r: &mut [f32],
    h_r: &mut [f32],
) {
    simd::lstm_gate_row::<V16>(pa_r, cp_r, hid, g_r, c_r, t_r, h_r)
}
