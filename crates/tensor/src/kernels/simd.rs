//! The vector kernels, each written once over a lane width.
//!
//! [`Lanes`] is one SIMD register of `f32` lanes with the dozen operations
//! the kernels need; `avx2::V8` (8 lanes) and `avx512::V16` (16 lanes)
//! implement it. The bodies here — the GEMM micro-tile, `fast_tanh` /
//! `fast_sigmoid`, the in-place sweep and the fused LSTM gate row — are
//! `#[inline(always)]` and are called only from the tiers'
//! `#[target_feature]` entry points. Each body is therefore compiled inside
//! a function that has its tier's features enabled, where the intrinsics
//! behind the `Lanes` methods inline into straight vector code (the pattern
//! `memchr` uses); a call from anywhere else would leave every intrinsic an
//! out-of-line call.
//!
//! Every body performs the scalar kernel's arithmetic in the scalar
//! kernel's order (the contract in `kernels/mod.rs`): `mul` + `add` in the
//! tile and the cell update, `fmadd` exactly where `fastmath` calls
//! `f32::mul_add`, and the data operand second in `min`/`max`.

use super::{scalar, Lhs, PackElem, Rows, Stretches};
use crate::fastmath::{A1, A11, A13, A3, A5, A7, A9, B0, B2, B4, B6, CLAMP};

/// One vector register of [`Lanes::N`] `f32` lanes.
///
/// # Safety
/// Callers of any method must run on a CPU with the implementing tier's
/// instruction set, inside a function that enables it (the entry points in
/// `avx2.rs` / `avx512.rs`, which dispatch reaches only after
/// [`super::supported`] confirmed the features). Pointer methods need the
/// lanes they name to be valid: `N` elements at `p` for `load`, `load_bf16`
/// and `store`, the first `n <= N` for `load_first` / `store_first`.
///
/// Implementors promise that the pointer methods touch exactly those
/// lanes — no more — and that the arithmetic is one IEEE-754 operation per
/// lane, rounded once (`fmadd` fused), with x86 NaN semantics in `min` /
/// `max`.
pub(crate) unsafe trait Lanes: Copy {
    /// Lane count.
    const N: usize;
    /// Every lane `x`.
    unsafe fn splat(x: f32) -> Self;
    /// `N` floats from `p`, unaligned.
    unsafe fn load(p: *const f32) -> Self;
    /// `N` bf16 values from `p`, widened exactly (`bits << 16`).
    unsafe fn load_bf16(p: *const u16) -> Self;
    /// Stores all `N` lanes at `p`, unaligned.
    unsafe fn store(self, p: *mut f32);
    /// The first `n` floats at `p` (zero elsewhere); nothing past them is
    /// read.
    unsafe fn load_first(p: *const f32, n: usize) -> Self;
    /// Stores the first `n` lanes at `p`; nothing past them is written.
    unsafe fn store_first(self, p: *mut f32, n: usize);
    unsafe fn add(self, b: Self) -> Self;
    unsafe fn mul(self, b: Self) -> Self;
    unsafe fn div(self, b: Self) -> Self;
    /// `self·b + c` with one rounding — `f32::mul_add`.
    unsafe fn fmadd(self, b: Self, c: Self) -> Self;
    /// x86 `min`: `b` in lanes where either operand is NaN.
    unsafe fn min(self, b: Self) -> Self;
    /// x86 `max`: `b` in lanes where either operand is NaN.
    unsafe fn max(self, b: Self) -> Self;
    /// `copysign(1, x)` in the lanes where `|x| >= SATURATE` (an ordered
    /// compare, false for NaN), `self` elsewhere.
    unsafe fn saturate(self, x: Self) -> Self;
}

/// A packed-panel element the vector tile loads a register of.
pub(crate) trait Elem: PackElem {
    /// # Safety
    /// As [`Lanes::load`]: `V::N` elements at `p`, `V`'s features enabled.
    unsafe fn load<V: Lanes>(p: *const Self) -> V;
}

impl Elem for f32 {
    #[inline(always)]
    unsafe fn load<V: Lanes>(p: *const f32) -> V {
        V::load(p)
    }
}

impl Elem for u16 {
    #[inline(always)]
    unsafe fn load<V: Lanes>(p: *const u16) -> V {
        V::load_bf16(p)
    }
}

/// Tile rows of every vector tier; a tier's tile columns are its `N`.
pub(crate) const MR: usize = 8;

/// The `MR×N` GEMM micro-tile, the body of both vector tiers'
/// [`super::Micro::tile`], whatever its operands are read from.
///
/// # Safety
/// The contract of `Micro::tile` with `NR = V::N`, inside a function with
/// `V`'s features enabled.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn tile<V: Lanes, E: Elem, A: Lhs<E>, B: Rows<E>>(
    kb: usize,
    a: A,
    b: B,
    out: *mut f32,
    ldc: usize,
    rows: usize,
    cols: usize,
    acc: bool,
) {
    debug_assert!(
        rows <= MR && cols <= V::N && cols <= ldc,
        "tile corner {rows}x{cols}, ldc {ldc}"
    );
    let mut t = [V::splat(0.0); MR];
    for kk in 0..kb {
        // SAFETY: `kk < kb` and `r < MR`: B's row and A's scalars meet
        // `Rows::row`'s and `Lhs::at`'s contracts (the caller's).
        let bv = E::load::<V>(b.row(kk, V::N));
        for (r, tr) in t.iter_mut().enumerate() {
            let a = V::splat(a.at(kk, r, MR).unpack());
            // mul + add, not fmadd: the scalar tile rounds twice per k-step.
            *tr = tr.add(a.mul(bv));
        }
    }
    for (r, tr) in t.iter().enumerate().take(rows) {
        // SAFETY: `r < rows`: the caller owns the `cols` elements at
        // `out + r·ldc` exclusively. A full row is one `N`-lane load and
        // store; an edge row uses the masked forms, which touch only lanes
        // `0..cols`.
        let dst = out.add(r * ldc);
        if cols == V::N {
            let v = if acc { V::load(dst).add(*tr) } else { *tr };
            v.store(dst);
        } else {
            let v = if acc { V::load_first(dst, cols).add(*tr) } else { *tr };
            v.store_first(dst, cols);
        }
    }
}

/// Adds the first `cols` columns of an `off.len() × N` tile at `tile` (rows
/// `N` apart) into `dst`: row `r` at `dst + off[r]`, cut into `s`'s
/// stretches, from the last row to the first (the body of both vector
/// tiers' [`super::Micro::scatter`]). A stretch as wide as the tile is one
/// register; a narrower one goes place by place, which measured faster on
/// an AVX-512 host than masked loads and stores: consecutive rows overlap,
/// and a load waits for the masked store before it.
///
/// # Safety
/// The contract of `Micro::scatter` with `NR = V::N`, inside a function
/// with `V`'s features enabled.
#[inline(always)]
pub(crate) unsafe fn scatter<V: Lanes>(
    tile: &[f32],
    dst: *mut f32,
    off: &[usize],
    cols: usize,
    s: Stretches,
) {
    debug_assert!(
        cols <= V::N && tile.len() >= off.len() * V::N,
        "tile of {} rows, {cols} columns",
        off.len()
    );
    for (r, &o) in off.iter().enumerate().rev() {
        // SAFETY: `r < off.len()`: the row's `N` floats lie inside `tile`
        // (asserted above); each stretch touches only the places of its
        // columns, which the caller owns (the trait's contract).
        let t = tile.as_ptr().add(r * V::N);
        let (mut lo, mut hi, mut p) = (0, s.first.min(cols), dst.add(o));
        loop {
            if hi - lo == V::N {
                V::load(p).add(V::load(t)).store(p);
            } else {
                for c in lo..hi {
                    *p.add(c) += *t.add(c);
                }
            }
            if hi == cols {
                break;
            }
            (lo, hi, p) = (hi, (hi + s.run).min(cols), p.add(s.gap));
        }
    }
}

/// `fast_tanh` lane by lane: clamp, the odd-13 / even-6 rational, clamp,
/// saturate — the scalar pipeline, FMA for FMA.
///
/// # Safety
/// `V`'s features enabled in the caller; no memory access.
#[inline(always)]
pub(crate) unsafe fn tanh<V: Lanes>(x: V) -> V {
    let s = V::splat;
    // min(hi, max(lo, x)): x rides second, so a NaN input propagates like
    // `f32::clamp`.
    let xc = s(CLAMP).min(s(-CLAMP).max(x));
    let x2 = xc.mul(xc);
    let mut p = s(A13);
    for a in [A11, A9, A7, A5, A3, A1] {
        p = p.fmadd(x2, s(a));
    }
    let p = p.mul(xc);
    let x4 = x2.mul(x2);
    // Estrin split, the scalar's association:
    // q = fma(fma(x2, B6, B4), x4, fma(x2, B2, B0)).
    let q = x2.fmadd(s(B6), s(B4)).fmadd(x4, x2.fmadd(s(B2), s(B0)));
    s(1.0).min(s(-1.0).max(p.div(q))).saturate(x)
}

/// `fast_sigmoid` lane by lane: `0.5·tanh(0.5x) + 0.5` with the scalar's
/// separate mul and add roundings.
///
/// # Safety
/// As [`tanh`].
#[inline(always)]
pub(crate) unsafe fn sigmoid<V: Lanes>(x: V) -> V {
    let half = V::splat(0.5);
    half.mul(tanh(half.mul(x))).add(half)
}

/// Applies `f` in place, `N` lanes at a time; `tail` (the scalar sweep)
/// takes the last `len % N` elements.
///
/// # Safety
/// `V`'s features enabled in the caller, and `f` callable there.
#[inline(always)]
pub(crate) unsafe fn sweep<V: Lanes>(v: &mut [f32], f: unsafe fn(V) -> V, tail: fn(&mut [f32])) {
    let (n, p) = (v.len(), v.as_mut_ptr());
    let mut i = 0;
    while i + V::N <= n {
        // SAFETY: `i + N <= v.len()`: the load and store at `p + i` stay
        // inside `v`, which this call borrows mutably.
        f(V::load(p.add(i))).store(p.add(i));
        i += V::N;
    }
    tail(&mut v[i..]);
}

/// The fused LSTM gate row (layout and arithmetic: `scalar::lstm_gate_row`,
/// which also takes the last `hid % N` columns).
///
/// # Safety
/// `V`'s features enabled in the caller. `pa_r` and `g_r` must hold at
/// least `4·hid` elements, `cp_r`, `c_r`, `t_r` and `h_r` at least `hid`.
#[inline(always)]
pub(crate) unsafe fn lstm_gate_row<V: Lanes>(
    pa_r: &[f32],
    cp_r: &[f32],
    hid: usize,
    g_r: &mut [f32],
    c_r: &mut [f32],
    t_r: &mut [f32],
    h_r: &mut [f32],
) {
    debug_assert!(pa_r.len() >= 4 * hid && g_r.len() >= 4 * hid, "gate rows shorter than 4·hid");
    debug_assert!(
        cp_r.len().min(c_r.len()).min(t_r.len()).min(h_r.len()) >= hid,
        "state rows shorter than hid"
    );
    let (pa, cp, g) = (pa_r.as_ptr(), cp_r.as_ptr(), g_r.as_mut_ptr());
    let (c_o, t_o, h_o) = (c_r.as_mut_ptr(), t_r.as_mut_ptr(), h_r.as_mut_ptr());
    let mut j = 0;
    while j + V::N <= hid {
        // SAFETY: `j + N <= hid`, so every `N`-lane window below — at `j` in
        // the `hid`-long rows, at `q·hid + j` (`q < 4`) in the `4·hid`-long
        // ones — ends inside its slice (lengths asserted above); the four
        // output rows are distinct `&mut` borrows, so no store aliases a
        // load.
        let i = sigmoid(V::load(pa.add(j)));
        let f = sigmoid(V::load(pa.add(hid + j)));
        let gg = tanh(V::load(pa.add(2 * hid + j)));
        let o = sigmoid(V::load(pa.add(3 * hid + j)));
        // c = f·cₚ + i·g as mul/mul/add, like the scalar row.
        let c = f.mul(V::load(cp.add(j))).add(i.mul(gg));
        i.store(g.add(j));
        f.store(g.add(hid + j));
        gg.store(g.add(2 * hid + j));
        o.store(g.add(3 * hid + j));
        let tc = tanh(c);
        c.store(c_o.add(j));
        tc.store(t_o.add(j));
        o.mul(tc).store(h_o.add(j));
        j += V::N;
    }
    scalar::lstm_gate_row(pa_r, cp_r, hid, j, g_r, c_r, t_r, h_r);
}
