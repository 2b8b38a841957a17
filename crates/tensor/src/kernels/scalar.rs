//! Safe-Rust scalar kernel variants — the universal fallback and the
//! bitwise reference every SIMD variant must match.
//!
//! These are the exact loops the crate ran before runtime dispatch
//! existed (under `-C target-cpu=native` LLVM auto-vectorises them; on a
//! portable build they execute as written). Their arithmetic order
//! *defines* the contract in `kernels/mod.rs`: separate mul/add roundings
//! in the GEMM tile and the LSTM cell update, true fused `mul_add` in the
//! activations, 8 independent accumulator lanes summed sequentially in
//! the dot product.

use super::{Micro, PackElem};
use crate::fastmath::{fast_sigmoid, fast_tanh};
use std::marker::PhantomData;

/// The scalar 8×8 micro-tile, generic over the packed element (`f32` or
/// bf16 bits — unpacking is the identity for f32 and compiles away).
pub(crate) struct ScalarMicro<E>(PhantomData<E>);

/// Scalar tile extent (rows and columns).
pub(crate) const TILE: usize = 8;

impl<E: PackElem> Micro for ScalarMicro<E> {
    type E = E;
    const MR: usize = TILE;
    const NR: usize = TILE;

    /// # Safety
    /// The contract of [`Micro::tile`].
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
        // Rank-1-update microkernel: `t[r][c] += a[r]·b[c]` per k-step.
        // Fixed-extent inner loops with no branches (no zero-skips), so
        // LLVM keeps `t` in vector registers when the build allows.
        let mut t = [[0.0f32; TILE]; TILE];
        for kk in 0..kb {
            let mut a8 = [0.0f32; TILE];
            let mut b8 = [0.0f32; TILE];
            for r in 0..TILE {
                a8[r] = ap[kk * TILE + r].unpack();
            }
            for c in 0..TILE {
                b8[c] = bp[kk * TILE + c].unpack();
            }
            for (tr, &ar) in t.iter_mut().zip(a8.iter()) {
                for (tv, &bv) in tr.iter_mut().zip(b8.iter()) {
                    *tv += ar * bv;
                }
            }
        }
        debug_assert!(rows <= TILE && cols <= TILE && cols <= ldc);
        for (r, tr) in t.iter().enumerate().take(rows) {
            // SAFETY: the caller owns the `rows×cols` region at `out`
            // exclusively (the trait's contract), row `r < rows` of it
            // starts `r·ldc` elements in, and `cols <= ldc` keeps one
            // row's window clear of the next — so `dst` is in bounds and
            // the only live reference to those elements.
            let dst = std::slice::from_raw_parts_mut(out.add(r * ldc), cols);
            if acc {
                for (d, &v) in dst.iter_mut().zip(tr[..cols].iter()) {
                    *d += v;
                }
            } else {
                dst.copy_from_slice(&tr[..cols]);
            }
        }
    }
}

/// Branch-free dot product with eight independent accumulator lanes so the
/// reduction vectorises despite f32 non-associativity. The lane structure
/// (and the sequential lane sum) is the value contract `avx2::dot`
/// reproduces.
pub(crate) fn dot(x: &[f32], y: &[f32]) -> f32 {
    const L: usize = 8;
    let mut acc = [0.0f32; L];
    let chunks = x.len() / L;
    for i in 0..chunks {
        let xa: &[f32; L] = x[i * L..i * L + L].try_into().unwrap();
        let ya: &[f32; L] = y[i * L..i * L + L].try_into().unwrap();
        for l in 0..L {
            acc[l] += xa[l] * ya[l];
        }
    }
    let mut s = acc.iter().sum::<f32>();
    for i in chunks * L..x.len() {
        s += x[i] * y[i];
    }
    s
}

/// In-place `fast_tanh` map.
pub(crate) fn tanh_sweep(v: &mut [f32]) {
    for x in v {
        *x = fast_tanh(*x);
    }
}

/// In-place `fast_sigmoid` map.
pub(crate) fn sigmoid_sweep(v: &mut [f32]) {
    for x in v {
        *x = fast_sigmoid(*x);
    }
}

/// One fused LSTM gate row (see `lstm_cell.rs` for the layout): the
/// original per-element loop, and the arithmetic contract for the vector
/// variants — `c = f·cₚ + i·g` is mul/mul/add (rustc does not contract
/// into FMA), matching the unfused tape ops bit for bit.
pub(crate) fn lstm_gate_row(
    pa_r: &[f32],
    cp_r: &[f32],
    hid: usize,
    g_r: &mut [f32],
    c_r: &mut [f32],
    t_r: &mut [f32],
    h_r: &mut [f32],
) {
    for j in 0..hid {
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
