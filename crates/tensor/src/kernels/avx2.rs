//! AVX2+FMA 8-lane kernel variants.
//!
//! Value contract (see `kernels/mod.rs`): every function here is
//! bitwise-equal to its scalar counterpart. Concretely:
//!
//! * GEMM tile and dot use `_mm256_mul_ps` + `_mm256_add_ps` — **not**
//!   FMA — because the scalar loops round the product and the sum
//!   separately.
//! * The activation kernels use `_mm256_fmadd_ps` because the scalar
//!   `fast_tanh` is built on `f32::mul_add` (one rounding) — both are a
//!   single IEEE-754 fused operation, so the bits agree.
//! * `min`/`max` operand order keeps NaN inputs propagating exactly like
//!   `f32::clamp` (x86 min/max return the *second* operand on NaN, so the
//!   data operand always rides in the second slot), and the saturation
//!   select uses an ordered-quiet compare (false on NaN), matching
//!   `x.abs() >= SATURATE`.
//!
//! # Safety
//! Every `unsafe fn` here requires AVX2+FMA at runtime; the dispatch layer
//! (`kernels::selected` / `with_override`) only routes here after
//! `is_x86_feature_detected!` confirms both.

use super::{Micro, PackElem};
use crate::fastmath::{A1, A11, A13, A3, A5, A7, A9, B0, B2, B4, B6, CLAMP, SATURATE};
use std::arch::x86_64::*;
use std::marker::PhantomData;

/// Tile rows.
pub(crate) const MR: usize = 8;
/// Tile columns (one 256-bit register).
pub(crate) const NR: usize = 8;

/// Loads 8 packed B elements as f32 lanes.
trait Load8: PackElem {
    /// # Safety
    /// `p..p+8` must be readable; caller must have AVX2 enabled.
    unsafe fn load8(p: *const Self) -> __m256;
}

impl Load8 for f32 {
    #[inline(always)]
    unsafe fn load8(p: *const f32) -> __m256 {
        // SAFETY: the caller guarantees `p..p+8` readable (the trait's
        // contract) and the unaligned load asks for nothing more; AVX is on
        // in the `#[target_feature]` caller this is inlined into.
        _mm256_loadu_ps(p)
    }
}

impl Load8 for u16 {
    #[inline(always)]
    unsafe fn load8(p: *const u16) -> __m256 {
        // bf16 widen: zero-extend 8×u16 to 8×u32, shift into the high
        // half — exactly `f32::from_bits((b as u32) << 16)` per lane.
        // SAFETY: the caller guarantees `p..p+8` readable — 16 bytes, what
        // the unaligned 128-bit load reads; the widening intrinsics are
        // AVX2, on in the `#[target_feature]` caller this is inlined into.
        let raw = _mm_loadu_si128(p as *const __m128i);
        let wide = _mm256_slli_epi32::<16>(_mm256_cvtepu16_epi32(raw));
        _mm256_castsi256_ps(wide)
    }
}

/// The 8×8 AVX2 micro-tile, generic over the packed element.
pub(crate) struct Avx2Micro<E>(PhantomData<E>);

impl<E: Load8> Micro for Avx2Micro<E> {
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
        // SAFETY: AVX2 — dispatch only selects this variant after
        // `supported(Kernel::Avx2)` (contract (b) of `Micro::tile`). The
        // panels hold `kb` full micro-panels (the packed layout, asserted
        // above), and the caller owns the `rows×cols` corner at `out`
        // (contract (a)): `tile_impl`'s own requirements.
        tile_impl::<E>(kb, ap.as_ptr(), bp.as_ptr(), out, ldc, rows, cols, acc);
    }
}

/// Free function carrying the `#[target_feature]` (trait methods cannot).
///
/// # Safety
/// AVX2 must be available. `ap` must be readable for `kb·MR` elements and
/// `bp` for `kb·NR`; `rows <= MR`, `cols <= NR`, and the caller must own rows
/// `0..rows` of `cols` elements each at `out`, `ldc` apart, exclusively.
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn tile_impl<E: Load8>(
    kb: usize,
    ap: *const E,
    bp: *const E,
    out: *mut f32,
    ldc: usize,
    rows: usize,
    cols: usize,
    acc: bool,
) {
    let mut t = [_mm256_setzero_ps(); MR];
    for kk in 0..kb {
        // SAFETY: `kk < kb`, so `bp + kk·NR .. + NR` and `ap + kk·MR + r`
        // (`r < MR`) lie inside the `kb·NR` / `kb·MR` elements the caller
        // vouches for.
        let b = E::load8(bp.add(kk * NR));
        for (r, tr) in t.iter_mut().enumerate() {
            let a = _mm256_set1_ps((*ap.add(kk * MR + r)).unpack());
            // mul + add, not fmadd: matches the scalar tile's two
            // roundings per k-step.
            *tr = _mm256_add_ps(*tr, _mm256_mul_ps(a, b));
        }
    }
    if rows == MR && cols == NR {
        for (r, tr) in t.iter().enumerate() {
            // SAFETY: a full tile — the caller owns `MR` rows of `NR = 8`
            // elements at `out + r·ldc`, exactly what one 256-bit
            // load/store touches.
            let dst = out.add(r * ldc);
            if acc {
                _mm256_storeu_ps(dst, _mm256_add_ps(_mm256_loadu_ps(dst), *tr));
            } else {
                _mm256_storeu_ps(dst, *tr);
            }
        }
    } else {
        // Edge tile: spill the registers and store the valid corner with
        // the scalar loop (same per-element add as the vector path).
        let mut spill = [[0.0f32; NR]; MR];
        for (r, tr) in t.iter().enumerate() {
            // SAFETY: `spill[r]` is a local array of `NR = 8` floats.
            _mm256_storeu_ps(spill[r].as_mut_ptr(), *tr);
        }
        for (r, sr) in spill.iter().enumerate().take(rows) {
            // SAFETY: `r < rows`: the caller owns `cols` elements at
            // `out + r·ldc` and nothing else references them during the call.
            let dst = std::slice::from_raw_parts_mut(out.add(r * ldc), cols);
            if acc {
                for (d, &v) in dst.iter_mut().zip(sr[..cols].iter()) {
                    *d += v;
                }
            } else {
                dst.copy_from_slice(&sr[..cols]);
            }
        }
    }
}

/// 256-bit dot product reproducing `scalar::dot`'s 8 accumulator lanes:
/// one vector register *is* the lane array, the horizontal reduction spills
/// it and sums lanes in the same sequential order, and the tail is the
/// same scalar loop.
///
/// # Safety
/// AVX2 must be available (`kernels::dot` routes here only for variants
/// `supported` reports); `y` must be at least as long as `x`.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn dot(x: &[f32], y: &[f32]) -> f32 {
    const L: usize = 8;
    debug_assert!(y.len() >= x.len(), "dot: y shorter than x");
    let chunks = x.len() / L;
    let mut acc = _mm256_setzero_ps();
    for i in 0..chunks {
        // SAFETY: `i < x.len() / 8`, so `i·8 + 8 <= x.len() <= y.len()`:
        // both 8-float loads stay inside their slices.
        let xv = _mm256_loadu_ps(x.as_ptr().add(i * L));
        let yv = _mm256_loadu_ps(y.as_ptr().add(i * L));
        // mul + add (two roundings), like the scalar lanes.
        acc = _mm256_add_ps(acc, _mm256_mul_ps(xv, yv));
    }
    let mut lanes = [0.0f32; L];
    // SAFETY: `lanes` is a local array of 8 floats.
    _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
    let mut s = lanes.iter().sum::<f32>();
    for i in chunks * L..x.len() {
        s += x[i] * y[i];
    }
    s
}

// ------------------------------------------------------------ activations

/// 8-lane `fast_tanh`: the same clamp → odd-13/even-6 rational → clamp →
/// saturate pipeline as the scalar, FMA for FMA (`mul_add` ↔ `fmadd`),
/// with NaN-exact min/max ordering.
///
/// # Safety
/// AVX2 and FMA must be available; register arithmetic only, no memory
/// access.
#[target_feature(enable = "avx2,fma")]
#[inline]
pub(crate) unsafe fn tanh8(x: __m256) -> __m256 {
    let clamp_hi = _mm256_set1_ps(CLAMP);
    let clamp_lo = _mm256_set1_ps(-CLAMP);
    // min(hi, max(lo, x)): x rides second so a NaN input propagates,
    // matching f32::clamp.
    let xc = _mm256_min_ps(clamp_hi, _mm256_max_ps(clamp_lo, x));
    let x2 = _mm256_mul_ps(xc, xc);
    let mut p = _mm256_set1_ps(A13);
    p = _mm256_fmadd_ps(p, x2, _mm256_set1_ps(A11));
    p = _mm256_fmadd_ps(p, x2, _mm256_set1_ps(A9));
    p = _mm256_fmadd_ps(p, x2, _mm256_set1_ps(A7));
    p = _mm256_fmadd_ps(p, x2, _mm256_set1_ps(A5));
    p = _mm256_fmadd_ps(p, x2, _mm256_set1_ps(A3));
    p = _mm256_fmadd_ps(p, x2, _mm256_set1_ps(A1));
    let p = _mm256_mul_ps(p, xc);
    let x4 = _mm256_mul_ps(x2, x2);
    // Estrin split, same association as the scalar:
    // q = fma(fma(x2, B6, B4), x4, fma(x2, B2, B0)).
    let q = _mm256_fmadd_ps(
        _mm256_fmadd_ps(x2, _mm256_set1_ps(B6), _mm256_set1_ps(B4)),
        x4,
        _mm256_fmadd_ps(x2, _mm256_set1_ps(B2), _mm256_set1_ps(B0)),
    );
    let one = _mm256_set1_ps(1.0);
    let neg_one = _mm256_set1_ps(-1.0);
    let r = _mm256_div_ps(p, q);
    let r = _mm256_min_ps(one, _mm256_max_ps(neg_one, r));
    // Saturated tails: |x| >= SATURATE selects copysign(1.0, x). The
    // ordered-quiet compare is false on NaN, exactly like the scalar `>=`.
    let sign_bit = _mm256_set1_ps(-0.0);
    let abs_x = _mm256_andnot_ps(sign_bit, x);
    let sat = _mm256_cmp_ps::<_CMP_GE_OQ>(abs_x, _mm256_set1_ps(SATURATE));
    let signed_one = _mm256_or_ps(_mm256_and_ps(sign_bit, x), one);
    _mm256_blendv_ps(r, signed_one, sat)
}

/// 8-lane `fast_sigmoid`: `0.5·tanh(0.5x) + 0.5` with the scalar's
/// separate mul and add roundings (the scalar uses plain `*`/`+` here,
/// so no fmadd).
///
/// # Safety
/// As [`tanh8`]: AVX2 and FMA must be available; no memory access.
#[target_feature(enable = "avx2,fma")]
#[inline]
pub(crate) unsafe fn sigmoid8(x: __m256) -> __m256 {
    let half = _mm256_set1_ps(0.5);
    let t = tanh8(_mm256_mul_ps(half, x));
    _mm256_add_ps(_mm256_mul_ps(half, t), half)
}

/// In-place 8-wide `fast_tanh` sweep; scalar tail.
///
/// # Safety
/// AVX2 and FMA must be available (`kernels::tanh_sweep` checks before it
/// routes here).
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn tanh_sweep(v: &mut [f32]) {
    let n = v.len();
    let p = v.as_mut_ptr();
    let mut i = 0;
    while i + 8 <= n {
        // SAFETY: `i + 8 <= v.len()`: the 8-float load and store at `p + i`
        // stay inside `v`, which this call borrows mutably.
        _mm256_storeu_ps(p.add(i), tanh8(_mm256_loadu_ps(p.add(i))));
        i += 8;
    }
    super::scalar::tanh_sweep(&mut v[i..]);
}

/// In-place 8-wide `fast_sigmoid` sweep; scalar tail.
///
/// # Safety
/// AVX2 and FMA must be available (`kernels::sigmoid_sweep` checks before
/// it routes here).
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn sigmoid_sweep(v: &mut [f32]) {
    let n = v.len();
    let p = v.as_mut_ptr();
    let mut i = 0;
    while i + 8 <= n {
        // SAFETY: `i + 8 <= v.len()`: the 8-float load and store at `p + i`
        // stay inside `v`, which this call borrows mutably.
        _mm256_storeu_ps(p.add(i), sigmoid8(_mm256_loadu_ps(p.add(i))));
        i += 8;
    }
    super::scalar::sigmoid_sweep(&mut v[i..]);
}

/// 8-wide fused LSTM gate row; the tail runs the scalar row kernel over
/// the remaining elements (same scalars, so the seam is invisible).
///
/// # Safety
/// AVX2 and FMA must be available (`kernels::lstm_gate_row` routes here only
/// for variants `supported` reports). `pa_r` and `g_r` must hold at least
/// `4·hid` elements, `cp_r`, `c_r`, `t_r` and `h_r` at least `hid`.
#[target_feature(enable = "avx2,fma")]
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
    while j + 8 <= hid {
        // SAFETY: `j + 8 <= hid`, so every 8-float window below — at `j` in
        // the `hid`-long rows, at `q·hid + j` (`q < 4`) in the `4·hid`-long
        // ones — ends inside its slice (lengths asserted above); the four
        // output rows are distinct `&mut` borrows, so no store aliases a
        // load.
        let i = sigmoid8(_mm256_loadu_ps(pa.add(j)));
        let f = sigmoid8(_mm256_loadu_ps(pa.add(hid + j)));
        let gg = tanh8(_mm256_loadu_ps(pa.add(2 * hid + j)));
        let o = sigmoid8(_mm256_loadu_ps(pa.add(3 * hid + j)));
        // c = f·cₚ + i·g as mul/mul/add — matching the scalar row (rustc
        // does not contract this into FMA).
        let c = _mm256_add_ps(_mm256_mul_ps(f, _mm256_loadu_ps(cp.add(j))), _mm256_mul_ps(i, gg));
        let tc = tanh8(c);
        _mm256_storeu_ps(g.add(j), i);
        _mm256_storeu_ps(g.add(hid + j), f);
        _mm256_storeu_ps(g.add(2 * hid + j), gg);
        _mm256_storeu_ps(g.add(3 * hid + j), o);
        _mm256_storeu_ps(c_o.add(j), c);
        _mm256_storeu_ps(t_o.add(j), tc);
        _mm256_storeu_ps(h_o.add(j), _mm256_mul_ps(o, tc));
        j += 8;
    }
    if j < hid {
        lstm_gate_row_tail(pa_r, cp_r, hid, j, g_r, c_r, t_r, h_r);
    }
}

/// Scalar tail shared by the vector LSTM rows: elements `j0..hid` via the
/// exact scalar gate arithmetic.
#[allow(clippy::too_many_arguments)]
pub(crate) fn lstm_gate_row_tail(
    pa_r: &[f32],
    cp_r: &[f32],
    hid: usize,
    j0: usize,
    g_r: &mut [f32],
    c_r: &mut [f32],
    t_r: &mut [f32],
    h_r: &mut [f32],
) {
    use crate::fastmath::{fast_sigmoid, fast_tanh};
    for j in j0..hid {
        let i = fast_sigmoid(pa_r[j]);
        let f = fast_sigmoid(pa_r[hid + j]);
        let g = fast_tanh(pa_r[2 * hid + j]);
        let o = fast_sigmoid(pa_r[3 * hid + j]);
        let c = f * cp_r[j] + i * g;
        let tc = fast_tanh(c);
        g_r[j] = i;
        g_r[hid + j] = f;
        g_r[2 * hid + j] = g;
        g_r[3 * hid + j] = o;
        c_r[j] = c;
        t_r[j] = tc;
        h_r[j] = o * tc;
    }
}
