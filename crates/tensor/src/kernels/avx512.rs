//! AVX-512F 16-lane kernel variants.
//!
//! Same value contract as `avx2.rs`: bitwise-equal to the scalar loops.
//! The GEMM tile widens to 8×16 — regrouping which output elements share
//! a register changes nothing about any single element's sequential
//! k-accumulation, so the wider tile stays bitwise-equal to the scalar
//! 8×8 tile. Edge columns use AVX-512's native store/load masks instead
//! of a spill buffer. The activation kernels are 16-lane transcriptions
//! of the AVX2 ones (mask registers replace `blendv`). The `matvec` dot
//! deliberately has **no** 512-bit variant: a 16-lane accumulator would
//! change the partial-sum grouping relative to the scalar 8-lane contract,
//! so AVX-512 dispatch routes `dot` to `avx2::dot` (see `kernels/mod.rs`).
//!
//! Bitwise float ops go through `si512` integer casts (`and`/`or` on
//! 512-bit float vectors would require AVX512DQ; the integer forms are
//! plain AVX-512F).
//!
//! # Safety
//! Every `unsafe fn` here requires AVX-512F at runtime; dispatch only
//! routes here after `is_x86_feature_detected!("avx512f")`.

use super::{Micro, PackElem};
use crate::fastmath::{A1, A11, A13, A3, A5, A7, A9, B0, B2, B4, B6, CLAMP, SATURATE};
use std::arch::x86_64::*;
use std::marker::PhantomData;

/// Tile rows.
pub(crate) const MR: usize = 8;
/// Tile columns (one 512-bit register).
pub(crate) const NR: usize = 16;

/// Loads 16 packed B elements as f32 lanes.
trait Load16: PackElem {
    /// # Safety
    /// `p..p+16` must be readable; caller must have AVX-512F enabled.
    unsafe fn load16(p: *const Self) -> __m512;
}

impl Load16 for f32 {
    #[inline(always)]
    unsafe fn load16(p: *const f32) -> __m512 {
        // SAFETY: the caller guarantees `p..p+16` readable (the trait's
        // contract); AVX-512F is on in the `#[target_feature]` caller this
        // is inlined into.
        _mm512_loadu_ps(p)
    }
}

impl Load16 for u16 {
    #[inline(always)]
    unsafe fn load16(p: *const u16) -> __m512 {
        // bf16 widen: zero-extend 16×u16 to 16×u32, shift into the high
        // half — exactly `f32::from_bits((b as u32) << 16)` per lane.
        // SAFETY: the caller guarantees `p..p+16` readable — 32 bytes, what
        // the unaligned 256-bit load reads; the widening intrinsics are
        // AVX-512F, on in the `#[target_feature]` caller this is inlined into.
        let raw = _mm256_loadu_si256(p as *const __m256i);
        let wide = _mm512_slli_epi32::<16>(_mm512_cvtepu16_epi32(raw));
        _mm512_castsi512_ps(wide)
    }
}

/// The 8×16 AVX-512 micro-tile, generic over the packed element.
pub(crate) struct Avx512Micro<E>(PhantomData<E>);

impl<E: Load16> Micro for Avx512Micro<E> {
    type E = E;
    const MR: usize = MR;
    const NR: usize = NR;

    /// # Safety
    /// The contract of [`Micro::tile`].
    #[inline]
    unsafe fn tile(
        kb: usize,
        ap: &[E],
        bp: &[E],
        out: *mut f32,
        ldc: usize,
        rows: usize,
        cols: usize,
        acc: bool,
    ) {
        debug_assert!(ap.len() >= kb * MR && bp.len() >= kb * NR, "packed panels shorter than kb");
        debug_assert!(rows <= MR && cols <= NR && cols <= ldc, "tile corner {rows}x{cols}, ldc {ldc}");
        // SAFETY: AVX-512F — dispatch only selects this variant after
        // `supported(Kernel::Avx512)` (contract (b) of `Micro::tile`). The
        // panels hold `kb` full micro-panels (the packed layout, asserted
        // above), and the caller owns the `rows×cols` corner at `out`
        // (contract (a)): `tile_impl`'s own requirements.
        tile_impl::<E>(kb, ap.as_ptr(), bp.as_ptr(), out, ldc, rows, cols, acc);
    }
}

/// Free function carrying the `#[target_feature]` (trait methods cannot).
///
/// # Safety
/// AVX-512F must be available. `ap` must be readable for `kb·MR` elements
/// and `bp` for `kb·NR`; `rows <= MR`, `cols <= NR`, and the caller must own
/// rows `0..rows` of `cols` elements each at `out`, `ldc` apart, exclusively.
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn tile_impl<E: Load16>(
    kb: usize,
    ap: *const E,
    bp: *const E,
    out: *mut f32,
    ldc: usize,
    rows: usize,
    cols: usize,
    acc: bool,
) {
    let mut t = [_mm512_setzero_ps(); MR];
    for kk in 0..kb {
        // SAFETY: `kk < kb`, so `bp + kk·NR .. + NR` and `ap + kk·MR + r`
        // (`r < MR`) lie inside the `kb·NR` / `kb·MR` elements the caller
        // vouches for.
        let b = E::load16(bp.add(kk * NR));
        for (r, tr) in t.iter_mut().enumerate() {
            let a = _mm512_set1_ps((*ap.add(kk * MR + r)).unpack());
            // mul + add, not fmadd: matches the scalar tile's two
            // roundings per k-step.
            *tr = _mm512_add_ps(*tr, _mm512_mul_ps(a, b));
        }
    }
    if cols == NR {
        for (r, tr) in t.iter().enumerate().take(rows) {
            // SAFETY: `r < rows` and `cols == NR = 16`: the caller owns the
            // 16 elements at `out + r·ldc` one 512-bit load/store touches.
            let dst = out.add(r * ldc);
            if acc {
                _mm512_storeu_ps(dst, _mm512_add_ps(_mm512_loadu_ps(dst), *tr));
            } else {
                _mm512_storeu_ps(dst, *tr);
            }
        }
    } else {
        // Column edge: masked load/store keeps the inactive lanes (and
        // anything beyond the output row) untouched.
        let mask: __mmask16 = (1u16 << cols) - 1;
        for (r, tr) in t.iter().enumerate().take(rows) {
            // SAFETY: `r < rows`; the mask enables lanes `0..cols` only
            // (`cols < 16`), and masked-off lanes are neither read nor
            // written nor faulted on, so only the `cols` elements the caller
            // owns at `out + r·ldc` are touched.
            let dst = out.add(r * ldc);
            if acc {
                let prev = _mm512_maskz_loadu_ps(mask, dst);
                _mm512_mask_storeu_ps(dst, mask, _mm512_add_ps(prev, *tr));
            } else {
                _mm512_mask_storeu_ps(dst, mask, *tr);
            }
        }
    }
}

// ------------------------------------------------------------ activations

/// 16-lane `fast_tanh`; same pipeline as `avx2::tanh8` with mask-register
/// select for the saturated tails.
///
/// # Safety
/// AVX-512F must be available; register arithmetic only, no memory access.
#[target_feature(enable = "avx512f")]
#[inline]
pub(crate) unsafe fn tanh16(x: __m512) -> __m512 {
    let clamp_hi = _mm512_set1_ps(CLAMP);
    let clamp_lo = _mm512_set1_ps(-CLAMP);
    // min(hi, max(lo, x)): x rides second so NaN propagates like
    // f32::clamp.
    let xc = _mm512_min_ps(clamp_hi, _mm512_max_ps(clamp_lo, x));
    let x2 = _mm512_mul_ps(xc, xc);
    let mut p = _mm512_set1_ps(A13);
    p = _mm512_fmadd_ps(p, x2, _mm512_set1_ps(A11));
    p = _mm512_fmadd_ps(p, x2, _mm512_set1_ps(A9));
    p = _mm512_fmadd_ps(p, x2, _mm512_set1_ps(A7));
    p = _mm512_fmadd_ps(p, x2, _mm512_set1_ps(A5));
    p = _mm512_fmadd_ps(p, x2, _mm512_set1_ps(A3));
    p = _mm512_fmadd_ps(p, x2, _mm512_set1_ps(A1));
    let p = _mm512_mul_ps(p, xc);
    let x4 = _mm512_mul_ps(x2, x2);
    let q = _mm512_fmadd_ps(
        _mm512_fmadd_ps(x2, _mm512_set1_ps(B6), _mm512_set1_ps(B4)),
        x4,
        _mm512_fmadd_ps(x2, _mm512_set1_ps(B2), _mm512_set1_ps(B0)),
    );
    let one = _mm512_set1_ps(1.0);
    let neg_one = _mm512_set1_ps(-1.0);
    let r = _mm512_div_ps(p, q);
    let r = _mm512_min_ps(one, _mm512_max_ps(neg_one, r));
    // Bitwise ops via si512: AVX-512F has no float and/or (that's DQ).
    let sign_bit = _mm512_set1_epi32(i32::MIN);
    let xi = _mm512_castps_si512(x);
    let abs_x = _mm512_castsi512_ps(_mm512_andnot_si512(sign_bit, xi));
    let sat = _mm512_cmp_ps_mask::<_CMP_GE_OQ>(abs_x, _mm512_set1_ps(SATURATE));
    let signed_one = _mm512_castsi512_ps(_mm512_or_si512(
        _mm512_and_si512(sign_bit, xi),
        _mm512_castps_si512(one),
    ));
    _mm512_mask_blend_ps(sat, r, signed_one)
}

/// 16-lane `fast_sigmoid`: `0.5·tanh(0.5x) + 0.5`, separate mul/add
/// roundings like the scalar.
///
/// # Safety
/// As [`tanh16`]: AVX-512F must be available; no memory access.
#[target_feature(enable = "avx512f")]
#[inline]
pub(crate) unsafe fn sigmoid16(x: __m512) -> __m512 {
    let half = _mm512_set1_ps(0.5);
    let t = tanh16(_mm512_mul_ps(half, x));
    _mm512_add_ps(_mm512_mul_ps(half, t), half)
}

/// In-place 16-wide `fast_tanh` sweep; scalar tail.
///
/// # Safety
/// AVX-512F must be available (`kernels::tanh_sweep` checks before it
/// routes here).
#[target_feature(enable = "avx512f")]
pub(crate) unsafe fn tanh_sweep(v: &mut [f32]) {
    let n = v.len();
    let p = v.as_mut_ptr();
    let mut i = 0;
    while i + 16 <= n {
        // SAFETY: `i + 16 <= v.len()`: the 16-float load and store at
        // `p + i` stay inside `v`, which this call borrows mutably.
        _mm512_storeu_ps(p.add(i), tanh16(_mm512_loadu_ps(p.add(i))));
        i += 16;
    }
    super::scalar::tanh_sweep(&mut v[i..]);
}

/// In-place 16-wide `fast_sigmoid` sweep; scalar tail.
///
/// # Safety
/// AVX-512F must be available (`kernels::sigmoid_sweep` checks before it
/// routes here).
#[target_feature(enable = "avx512f")]
pub(crate) unsafe fn sigmoid_sweep(v: &mut [f32]) {
    let n = v.len();
    let p = v.as_mut_ptr();
    let mut i = 0;
    while i + 16 <= n {
        // SAFETY: `i + 16 <= v.len()`: the 16-float load and store at
        // `p + i` stay inside `v`, which this call borrows mutably.
        _mm512_storeu_ps(p.add(i), sigmoid16(_mm512_loadu_ps(p.add(i))));
        i += 16;
    }
    super::scalar::sigmoid_sweep(&mut v[i..]);
}

/// 16-wide fused LSTM gate row; scalar tail via the shared helper.
///
/// # Safety
/// AVX-512F must be available (`kernels::lstm_gate_row` routes here only for
/// variants `supported` reports). `pa_r` and `g_r` must hold at least `4·hid`
/// elements, `cp_r`, `c_r`, `t_r` and `h_r` at least `hid`.
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn lstm_gate_row(
    pa_r: &[f32],
    cp_r: &[f32],
    hid: usize,
    g_r: &mut [f32],
    c_r: &mut [f32],
    t_r: &mut [f32],
    h_r: &mut [f32],
) {
    let pa = pa_r.as_ptr();
    let cp = cp_r.as_ptr();
    let g = g_r.as_mut_ptr();
    let c_o = c_r.as_mut_ptr();
    let t_o = t_r.as_mut_ptr();
    let h_o = h_r.as_mut_ptr();
    debug_assert!(pa_r.len() >= 4 * hid && g_r.len() >= 4 * hid, "gate rows shorter than 4·hid");
    debug_assert!(cp_r.len().min(c_r.len()).min(t_r.len()).min(h_r.len()) >= hid, "state rows shorter than hid");
    let mut j = 0;
    while j + 16 <= hid {
        // SAFETY: `j + 16 <= hid`, so every 16-float window below — at `j`
        // in the `hid`-long rows, at `q·hid + j` (`q < 4`) in the `4·hid`-long
        // ones — ends inside its slice (lengths asserted above); the four
        // output rows are distinct `&mut` borrows, so no store aliases a
        // load.
        let i = sigmoid16(_mm512_loadu_ps(pa.add(j)));
        let f = sigmoid16(_mm512_loadu_ps(pa.add(hid + j)));
        let gg = tanh16(_mm512_loadu_ps(pa.add(2 * hid + j)));
        let o = sigmoid16(_mm512_loadu_ps(pa.add(3 * hid + j)));
        // c = f·cₚ + i·g as mul/mul/add — matching the scalar row.
        let c = _mm512_add_ps(_mm512_mul_ps(f, _mm512_loadu_ps(cp.add(j))), _mm512_mul_ps(i, gg));
        let tc = tanh16(c);
        _mm512_storeu_ps(g.add(j), i);
        _mm512_storeu_ps(g.add(hid + j), f);
        _mm512_storeu_ps(g.add(2 * hid + j), gg);
        _mm512_storeu_ps(g.add(3 * hid + j), o);
        _mm512_storeu_ps(c_o.add(j), c);
        _mm512_storeu_ps(t_o.add(j), tc);
        _mm512_storeu_ps(h_o.add(j), _mm512_mul_ps(o, tc));
        j += 16;
    }
    if j < hid {
        super::avx2::lstm_gate_row_tail(pa_r, cp_r, hid, j, g_r, c_r, t_r, h_r);
    }
}
