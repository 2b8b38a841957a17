//! Slice bodies for the ops whose arithmetic has a rounding chain of its
//! own — a reduction or f64 accumulator, a normaliser, a scatter-add, the
//! loss — and the elementwise sweeps every other kernel runs. The kernel
//! table's entries (`ops_*.rs`) call these on whatever storage the tape or
//! the plan hands them. (Row softmax, column sums, column concat/slice, the
//! convolutions and the fused LSTM cell live one crate down, as
//! `legw_tensor`'s `_into` functions.)
//!
//! The write protocol: the first contribution to a gradient stores, later
//! ones add. For any body taking `(dst, mode)`, `Add` into a prefilled `dst`
//! equals `Store` into zeros followed by an elementwise `+=` — so adding
//! in place keeps the bits of computing a contribution whole and adding it.

use crate::graph::IGNORE_INDEX;
use legw_tensor::kernels::{self, Kernel};
use legw_tensor::softmax_rows_into;

/// How a body writes its destination.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Mode {
    Store,
    Add,
}

/// Store-or-add `f(i)` over `dst`.
pub(crate) fn apply(dst: &mut [f32], mode: Mode, f: impl Fn(usize) -> f32) {
    match mode {
        Mode::Store => {
            for (i, d) in dst.iter_mut().enumerate() {
                *d = f(i);
            }
        }
        Mode::Add => {
            for (i, d) in dst.iter_mut().enumerate() {
                *d += f(i);
            }
        }
    }
}

/// Elementwise sweeps longer than this fan out in fixed-size chunks over
/// the ambient thread pool. Chunks are disjoint and every element is a pure
/// function of the operands, so any thread count produces the serial
/// sweep's bits. A reduction fans out only over its outputs (BatchNorm's
/// per-channel sums), each summed by one task in its serial order.
const EW_CHUNK: usize = 16 * 1024;

/// [`apply`], chunked over [`legw_parallel::current`] when the sweep is
/// large enough to amortize the fan-out.
pub(crate) fn par_apply(dst: &mut [f32], mode: Mode, f: impl Fn(usize) -> f32 + Sync) {
    if dst.len() <= EW_CHUNK {
        return apply(dst, mode, f);
    }
    let pool = legw_parallel::current();
    if pool.threads() == 1 {
        return apply(dst, mode, f);
    }
    legw_parallel::par_chunks_mut(&pool, dst, EW_CHUNK, |start, chunk| {
        apply(chunk, mode, |off| f(start + off))
    });
}

/// `dst[i] = f(src[i])` through a runtime-dispatched activation sweep,
/// chunked like [`par_apply`]; the kernel choice is read once on the issuing
/// thread.
pub(crate) fn par_sweep_map(dst: &mut [f32], src: &[f32], sweep: fn(Kernel, &mut [f32])) {
    let kern = kernels::selected();
    dst.copy_from_slice(src);
    if dst.len() <= EW_CHUNK {
        return sweep(kern, dst);
    }
    let pool = legw_parallel::current();
    if pool.threads() == 1 {
        return sweep(kern, dst);
    }
    legw_parallel::par_chunks_mut(&pool, dst, EW_CHUNK, |_, chunk| sweep(kern, chunk));
}

/// `row(r, dst_row)` for every `cols`-wide row of `dst`, chunked like
/// [`par_apply`] but in blocks of whole rows (about [`EW_CHUNK`] elements,
/// at least one row), so a body broadcasts along a row without dividing an
/// index per element.
fn par_rows(dst: &mut [f32], cols: usize, row: impl Fn(usize, &mut [f32]) + Sync) {
    if dst.is_empty() {
        return;
    }
    let rows = |r0: usize, block: &mut [f32]| {
        for (i, d) in block.chunks_exact_mut(cols).enumerate() {
            row(r0 + i, d);
        }
    };
    if dst.len() <= EW_CHUNK {
        return rows(0, dst);
    }
    let pool = legw_parallel::current();
    if pool.threads() == 1 {
        return rows(0, dst);
    }
    let block = (EW_CHUNK / cols).max(1) * cols;
    legw_parallel::par_chunks_mut(&pool, dst, block, |start, b| rows(start / cols, b));
}

/// `f(i, &mut items[i])` for every item, one item per task over
/// [`legw_parallel::current`] when the pass touches more than [`EW_CHUNK`]
/// elements (`work`). Each item is one task's alone, so any thread count
/// produces the serial loop's bits.
fn par_each<T: Send>(items: &mut [T], work: usize, f: impl Fn(usize, &mut T) + Sync) {
    let pool = legw_parallel::current();
    if work <= EW_CHUNK || pool.threads() == 1 {
        return items.iter_mut().enumerate().for_each(|(i, t)| f(i, t));
    }
    legw_parallel::par_chunks_mut(&pool, items, 1, |i, t| f(i, &mut t[0]));
}

/// Store-or-add `f(a[i])` over `dst`, as one zip the compiler vectorises.
fn map_into(dst: &mut [f32], mode: Mode, a: &[f32], f: impl Fn(f32) -> f32) {
    debug_assert_eq!(dst.len(), a.len());
    match mode {
        Mode::Store => dst.iter_mut().zip(a).for_each(|(d, &x)| *d = f(x)),
        Mode::Add => dst.iter_mut().zip(a).for_each(|(d, &x)| *d += f(x)),
    }
}

/// Runs `body` — a kernel that overwrites its whole output — under the write
/// protocol: straight into `dst` for `Store`; for `Add`, into
/// `scratch[..dst.len()]` and from there added elementwise. The detour is
/// what keeps the bits of computing the contribution whole and adding it:
/// accumulating inside the kernel (a GEMM with `acc`, a scatter straight
/// into `dst`) would reassociate the sums.
pub(crate) fn store_or_add(
    dst: &mut [f32],
    mode: Mode,
    scratch: &mut [f32],
    body: impl FnOnce(&mut [f32]),
) {
    match mode {
        Mode::Store => body(dst),
        Mode::Add => {
            // Callers size the scratch once, ahead of time; slicing it here
            // panics on a wrong size rather than growing it.
            let s = &mut scratch[..dst.len()];
            body(s);
            apply(dst, Mode::Add, |i| s[i]);
        }
    }
}

// ------------------------------------------------------------- basic ops

/// AddBias: `dst[r, j] (+)= x[r, j] + b[j]`.
pub(crate) fn add_bias(dst: &mut [f32], mode: Mode, x: &[f32], b: &[f32]) {
    let cols = b.len();
    par_rows(dst, cols, |r, d| {
        let x = &x[r * cols..(r + 1) * cols];
        match mode {
            Mode::Store => d.iter_mut().zip(x).zip(b).for_each(|((d, &x), &b)| *d = x + b),
            Mode::Add => d.iter_mut().zip(x).zip(b).for_each(|((d, &x), &b)| *d += x + b),
        }
    });
}

/// RowScale and its input gradient: `dst[r, j] (+)= x[r, j] · s[r]`.
pub(crate) fn row_scale(dst: &mut [f32], mode: Mode, x: &[f32], s: &[f32]) {
    let cols = dst.len() / s.len().max(1);
    par_rows(dst, cols, |r, d| {
        let s = s[r];
        map_into(d, mode, &x[r * cols..(r + 1) * cols], |x| x * s)
    });
}

/// ConcatCols backward: `dst [rows, w] (+)=` columns `off..off + w` of the
/// wider `up [rows, ·]`.
pub(crate) fn cols_block(dst: &mut [f32], mode: Mode, up: &[f32], rows: usize, off: usize) {
    let (w, uc) = (dst.len() / rows, up.len() / rows);
    par_rows(dst, w, |r, d| map_into(d, mode, &up[r * uc + off..r * uc + off + w], |u| u));
}

/// Sum (or mean) of all elements, accumulated in f64.
pub(crate) fn sum_all(x: &[f32], mean: bool) -> f32 {
    let s = x.iter().map(|&t| t as f64).sum::<f64>() as f32;
    if mean {
        s / x.len() as f32
    } else {
        s
    }
}

/// RowScale's gradient for the scale column: `dst[r] (+)= Σ_j up[r,j]·x[r,j]`.
/// Each product is rounded to f32, then the row accumulates in f64.
pub(crate) fn row_scale_ds(dst: &mut [f32], mode: Mode, up: &[f32], x: &[f32], cols: usize) {
    debug_assert!(up.len() == dst.len() * cols && x.len() == up.len());
    apply(dst, mode, |r| {
        let row = r * cols..(r + 1) * cols;
        up[row.clone()].iter().zip(&x[row]).map(|(&u, &v)| (u * v) as f64).sum::<f64>() as f32
    });
}

/// Contiguous block gradient: `dst[off..off + up.len()] (+)= up`. With
/// `zero_rest`, `dst` is a wider zero-padded gradient (SliceRows backward)
/// and the elements outside the block receive literal zeros — the tape's
/// dense gradient contributes `0.0` there, and its add path runs `d += 0.0`.
pub(crate) fn block(dst: &mut [f32], mode: Mode, up: &[f32], off: usize, zero_rest: bool) {
    let end = off + up.len();
    if zero_rest {
        apply(&mut dst[..off], mode, |_| 0.0);
        apply(&mut dst[end..], mode, |_| 0.0);
    }
    apply(&mut dst[off..end], mode, |i| up[i]);
}

/// SliceCols backward: scatters `up [rows, end - start]` into columns
/// `start..end` of the wider `dst [rows, dst_cols]`; the other columns
/// receive literal zeros, as in [`block`].
pub(crate) fn cols_scatter(
    dst: &mut [f32],
    mode: Mode,
    up: &[f32],
    dst_cols: usize,
    start: usize,
    end: usize,
) {
    let w = end - start;
    debug_assert_eq!(dst.len() / dst_cols * w, up.len());
    for (row, src) in dst.chunks_exact_mut(dst_cols).zip(up.chunks_exact(w)) {
        block(row, mode, src, start, true);
    }
}

// ------------------------------------------------------------- conv family

/// 2×2 stride-2 max pooling of `nc` planes of `h × w`: the window maxima
/// into `out`, and into `argmax` the flat input index each came from.
///
/// The running index starts at the window's own first element, so a window
/// with no element greater than `-inf` (all `NaN`, all `-inf`) still points
/// into itself and its gradient stays in its own plane.
pub(crate) fn max_pool_fwd(
    src: &[f32],
    nc: usize,
    h: usize,
    w: usize,
    out: &mut [f32],
    argmax: &mut [u32],
) {
    let (oh, ow) = (h / 2, w / 2);
    debug_assert!(
        src.len() == nc * h * w && out.len() == nc * oh * ow && argmax.len() == out.len()
    );
    for p in 0..nc {
        let base = p * h * w;
        for y in 0..oh {
            for x in 0..ow {
                let first = base + 2 * y * w + 2 * x;
                let (mut best, mut bidx) = (f32::NEG_INFINITY, first);
                for idx in [first, first + 1, first + w, first + w + 1] {
                    if src[idx] > best {
                        best = src[idx];
                        bidx = idx;
                    }
                }
                let oidx = (p * oh + y) * ow + x;
                out[oidx] = best;
                argmax[oidx] = bidx as u32;
            }
        }
    }
}

/// Max-pool backward: routes each upstream element to the input position
/// its window's maximum came from.
pub(crate) fn max_pool_bwd(
    dst: &mut [f32],
    mode: Mode,
    scratch: &mut [f32],
    up: &[f32],
    argmax: &[u32],
) {
    debug_assert_eq!(up.len(), argmax.len());
    store_or_add(dst, mode, scratch, |dx| {
        dx.fill(0.0);
        for (&idx, &u) in argmax.iter().zip(up) {
            dx[idx as usize] += u;
        }
    });
}

/// Global average pooling: `out[p] = mean(src[p, ·])` over `hw` elements,
/// summed in f64.
pub(crate) fn gap_fwd(src: &[f32], hw: usize, out: &mut [f32]) {
    debug_assert_eq!(src.len(), out.len() * hw);
    for (o, plane) in out.iter_mut().zip(src.chunks_exact(hw)) {
        *o = plane.iter().map(|&v| v as f64).sum::<f64>() as f32 / hw as f32;
    }
}

/// Global-average-pool backward: every element of a plane gets `up[p] / hw`.
pub(crate) fn gap_bwd(dst: &mut [f32], mode: Mode, up: &[f32], hw: usize) {
    debug_assert_eq!(dst.len(), up.len() * hw);
    let inv = 1.0 / hw as f32;
    for (plane, &u) in dst.chunks_exact_mut(hw).zip(up) {
        let g = u * inv;
        apply(plane, mode, |_| g);
    }
}

/// Per-channel batch mean and biased variance of `x [n, c, hw]` over
/// `(n, hw)`, two passes in f64, one channel per task: each channel sums
/// its planes in order. `mean` and `var` (length `c`) are overwritten.
pub(crate) fn bn_stats(x: &[f32], [n, c, hw]: [usize; 3], mean: &mut [f64], var: &mut [f64]) {
    debug_assert!(x.len() == n * c * hw && mean.len() == c && var.len() == c);
    let m = (n * hw) as f64;
    let channel =
        |ci: usize| (0..n).flat_map(move |ni| &x[(ni * c + ci) * hw..(ni * c + ci + 1) * hw]);
    par_each(mean, x.len(), |ci, mu| {
        let mut s = 0.0f64;
        for &v in channel(ci) {
            s += v as f64;
        }
        *mu = s / m;
    });
    let mean = &*mean;
    par_each(var, x.len(), |ci, va| {
        let (mu, mut s) = (mean[ci], 0.0f64);
        for &v in channel(ci) {
            let d = v as f64 - mu;
            s += d * d;
        }
        *va = s / m;
    });
}

/// Training-mode BatchNorm forward from the batch statistics of
/// [`bn_stats`]: fills `inv_std [c]`, the normalised `xhat` and
/// `out = gamma · xhat + beta`, blocks of whole planes per task.
#[allow(clippy::too_many_arguments)] // one op: its operands, its statistics, its three outputs
pub(crate) fn bn_fwd(
    x: &[f32],
    [n, c, hw]: [usize; 3],
    (mean, var): (&[f64], &[f64]),
    eps: f32,
    gamma: &[f32],
    beta: &[f32],
    inv_std: &mut [f32],
    xhat: &mut [f32],
    out: &mut [f32],
) {
    debug_assert!(x.len() == n * c * hw && xhat.len() == x.len() && out.len() == x.len());
    apply(inv_std, Mode::Store, |ci| (1.0 / (var[ci] + eps as f64).sqrt()) as f32);
    let inv_std = &*inv_std;
    let block = (EW_CHUNK / hw.max(1)).max(1) * hw;
    let mut blocks: Vec<_> = xhat.chunks_mut(block).zip(out.chunks_mut(block)).collect();
    par_each(&mut blocks, x.len(), |b, (xh, o)| {
        for (j, (xh, o)) in xh.chunks_exact_mut(hw).zip(o.chunks_exact_mut(hw)).enumerate() {
            let i = b * block / hw + j;
            let ci = i % c;
            let (mu, is, gm, bt) = (mean[ci] as f32, inv_std[ci], gamma[ci], beta[ci]);
            for ((xh, o), &v) in xh.iter_mut().zip(o.iter_mut()).zip(&x[i * hw..(i + 1) * hw]) {
                *xh = (v - mu) * is;
                *o = gm * *xh + bt;
            }
        }
    });
}

/// BatchNorm backward, the per-channel f64 sums `Σ up` and `Σ up·xhat`
/// (each product rounded to f32 first), one channel per task, its planes in
/// order; both outputs are overwritten. As f32 they are the `beta` and
/// `gamma` gradients.
pub(crate) fn bn_bwd_sums(
    up: &[f32],
    xhat: &[f32],
    c: usize,
    hw: usize,
    sum_up: &mut [f64],
    sum_up_xh: &mut [f64],
) {
    debug_assert!(up.len() == xhat.len() && sum_up.len() == c && sum_up_xh.len() == c);
    let n = up.len() / (c * hw).max(1);
    let mut sums: Vec<_> = sum_up.iter_mut().zip(sum_up_xh.iter_mut()).collect();
    par_each(&mut sums, up.len(), |ci, (su, suxh)| {
        let (mut a, mut b) = (0.0f64, 0.0f64);
        for ni in 0..n {
            let plane = (ni * c + ci) * hw..(ni * c + ci + 1) * hw;
            for (&u, &xh) in up[plane.clone()].iter().zip(&xhat[plane]) {
                a += u as f64;
                b += (u * xh) as f64;
            }
        }
        (**su, **suxh) = (a, b);
    });
}

/// BatchNorm backward, the input gradient from the sums of [`bn_bwd_sums`]:
/// `dx (+)= gamma·inv_std/m · (m·up − Σup − xhat·Σ(up·xhat))`, `m = n·hw`,
/// blocks of whole planes per task.
#[allow(clippy::too_many_arguments)] // one op: destination, operands, cached statistics
pub(crate) fn bn_bwd_dx(
    dst: &mut [f32],
    mode: Mode,
    up: &[f32],
    xhat: &[f32],
    [n, c, hw]: [usize; 3],
    gamma: &[f32],
    inv_std: &[f32],
    (sum_up, sum_up_xh): (&[f64], &[f64]),
) {
    debug_assert!(dst.len() == n * c * hw && up.len() == dst.len() && xhat.len() == dst.len());
    let m = (n * hw) as f32;
    par_rows(dst, hw, |i, plane| {
        let (ci, base) = (i % c, i * hw);
        let coef = gamma[ci] * inv_std[ci] / m;
        let (su, suxh) = (sum_up[ci] as f32, sum_up_xh[ci] as f32);
        apply(plane, mode, |k| coef * (m * up[base + k] - su - xhat[base + k] * suxh));
    });
}

/// Eval-mode BatchNorm (ChannelAffineF) and its input gradient over the
/// `hw`-long planes of `x [n, c, hw]`: `dst (+)= f(ci)(x)`, `f(ci)` the
/// element map of channel `ci`, blocks of whole planes per task.
pub(crate) fn channel_map<F: Fn(f32) -> f32>(
    dst: &mut [f32],
    mode: Mode,
    x: &[f32],
    [c, hw]: [usize; 2],
    f: impl Fn(usize) -> F + Sync,
) {
    debug_assert_eq!(dst.len(), x.len());
    par_rows(dst, hw, |i, plane| map_into(plane, mode, &x[i * hw..(i + 1) * hw], f(i % c)));
}

// ------------------------------------------------------------- loss family

/// Embedding lookup: `out[i, ·] = table[ids[i], ·]`.
pub(crate) fn embed_fwd(table: &[f32], ids: &[usize], dim: usize, out: &mut [f32]) {
    let vocab = table.len() / dim;
    debug_assert_eq!(out.len(), ids.len() * dim);
    for (&id, row) in ids.iter().zip(out.chunks_exact_mut(dim)) {
        assert!(id < vocab, "embedding id {id} out of vocab {vocab}");
        row.copy_from_slice(&table[id * dim..(id + 1) * dim]);
    }
}

/// Embedding backward: scatter-adds the rows of `up` into the table
/// gradient, repeated ids accumulating in `ids` order.
pub(crate) fn embed_bwd(
    dst: &mut [f32],
    mode: Mode,
    scratch: &mut [f32],
    up: &[f32],
    ids: &[usize],
    dim: usize,
) {
    debug_assert_eq!(up.len(), ids.len() * dim);
    store_or_add(dst, mode, scratch, |dt| {
        dt.fill(0.0);
        for (&id, src) in ids.iter().zip(up.chunks_exact(dim)) {
            for (d, &s) in dt[id * dim..(id + 1) * dim].iter_mut().zip(src) {
                *d += s;
            }
        }
    });
}

/// Row-softmax backward: `dx[i,j] (+)= y[i,j] · (up[i,j] − Σ_k up[i,k]·y[i,k])`
/// over rows of `n`, the row dot accumulated in f32.
pub(crate) fn softmax_bwd(dst: &mut [f32], mode: Mode, up: &[f32], y: &[f32], n: usize) {
    debug_assert!(up.len() == dst.len() && y.len() == dst.len());
    for ((row, us), ys) in dst.chunks_exact_mut(n).zip(up.chunks_exact(n)).zip(y.chunks_exact(n)) {
        let mut dot = 0.0f32;
        for j in 0..n {
            dot += ys[j] * us[j];
        }
        apply(row, mode, |j| ys[j] * (us[j] - dot));
    }
}

/// Mean softmax cross-entropy of `logits [b, v]` against `labels`, rows
/// labelled [`IGNORE_INDEX`] excluded. Fills `probs` with the row softmax
/// and returns `(loss, active rows)`; the loss of zero active rows is 0.
pub(crate) fn ce_fwd(
    logits: &[f32],
    labels: &[usize],
    v: usize,
    probs: &mut [f32],
) -> (f32, usize) {
    softmax_rows_into(logits, labels.len(), v, probs);
    let mut total = 0.0f64;
    let mut active = 0usize;
    for (&y, p) in labels.iter().zip(probs.chunks_exact(v)) {
        if y == IGNORE_INDEX {
            continue;
        }
        assert!(y < v, "label {y} out of vocab {v}");
        // clamp avoids -inf on underflowed probabilities
        total -= (p[y].max(1e-30) as f64).ln();
        active += 1;
    }
    (if active == 0 { 0.0 } else { (total / active as f64) as f32 }, active)
}

/// Cross-entropy backward: `dlogits[i,j] (+)= up/active · (probs[i,j] − [j = yᵢ])`,
/// zeros on ignored rows. With no active row the op contributes nothing:
/// `Add` leaves `dst` alone (the tape skips the accumulate), `Store` still
/// defines it, as zeros.
pub(crate) fn ce_bwd(
    dst: &mut [f32],
    mode: Mode,
    up: f32,
    probs: &[f32],
    labels: &[usize],
    active: usize,
    v: usize,
) {
    debug_assert!(dst.len() == labels.len() * v && probs.len() == dst.len());
    if active == 0 {
        if mode == Mode::Store {
            dst.fill(0.0);
        }
        return;
    }
    let seed = up / active as f32;
    for ((row, p), &y) in dst.chunks_exact_mut(v).zip(probs.chunks_exact(v)).zip(labels) {
        if y == IGNORE_INDEX {
            apply(row, mode, |_| 0.0);
        } else {
            apply(row, mode, |j| seed * (p[j] - if j == y { 1.0 } else { 0.0 }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legw_propcheck::collection::vec;
    use legw_propcheck::prelude::*;

    /// The write protocol's identity for one body: `Add` into a prefilled
    /// destination equals `Store` into zeros followed by an elementwise
    /// `+=`, bit for bit.
    fn assert_add_is_store_then_add(what: &str, prefill: &[f32], body: impl Fn(&mut [f32], Mode)) {
        let mut added = prefill.to_vec();
        body(&mut added, Mode::Add);
        let mut stored = vec![0.0f32; prefill.len()];
        body(&mut stored, Mode::Store);
        for (i, ((a, s), p)) in added.iter().zip(&stored).zip(prefill).enumerate() {
            let want = p + s;
            assert!(a.to_bits() == want.to_bits(), "{what}: element {i}: {a} vs {p} + {s}");
        }
    }

    /// `body` in both modes against `want(i)`, the per-element formula it
    /// replaced: `Store` overwrites a prefilled destination with exactly
    /// `want(i)`, `Add` adds exactly `want(i)` to it.
    fn assert_body_is_formula(
        what: &str,
        prefill: &[f32],
        body: impl Fn(&mut [f32], Mode),
        want: impl Fn(usize) -> f32,
    ) {
        for mode in [Mode::Store, Mode::Add] {
            let mut got = prefill.to_vec();
            body(&mut got, mode);
            for (i, (g, p)) in got.iter().zip(prefill).enumerate() {
                let w = if mode == Mode::Store { want(i) } else { p + want(i) };
                assert!(g.to_bits() == w.to_bits(), "{what} {mode:?}: element {i}: {g} vs {w}");
            }
        }
    }

    /// The serial BatchNorm statistics the kernels replaced, as the oracle.
    fn bn_stats_oracle(x: &[f32], [n, c, hw]: [usize; 3], mean: &mut [f64], var: &mut [f64]) {
        let m = (n * hw) as f64;
        mean.fill(0.0);
        var.fill(0.0);
        for (i, plane) in x.chunks_exact(hw).enumerate() {
            for &v in plane {
                mean[i % c] += v as f64;
            }
        }
        for mu in mean.iter_mut() {
            *mu /= m;
        }
        for (i, plane) in x.chunks_exact(hw).enumerate() {
            for &v in plane {
                let d = v as f64 - mean[i % c];
                var[i % c] += d * d;
            }
        }
        for va in var.iter_mut() {
            *va /= m;
        }
    }

    /// The serial BatchNorm forward the kernels replaced, as the oracle.
    #[allow(clippy::too_many_arguments)]
    fn bn_fwd_oracle(
        x: &[f32],
        [c, hw]: [usize; 2],
        (mean, var): (&[f64], &[f64]),
        eps: f32,
        (gamma, beta): (&[f32], &[f32]),
        inv_std: &mut [f32],
        xhat: &mut [f32],
        out: &mut [f32],
    ) {
        for ci in 0..c {
            inv_std[ci] = (1.0 / (var[ci] + eps as f64).sqrt()) as f32;
        }
        for i in 0..x.len() / hw {
            let ci = i % c;
            let (mu, is) = (mean[ci] as f32, inv_std[ci]);
            for k in i * hw..(i + 1) * hw {
                let xhat_v = (x[k] - mu) * is;
                xhat[k] = xhat_v;
                out[k] = gamma[ci] * xhat_v + beta[ci];
            }
        }
    }

    /// The serial BatchNorm backward sums the kernels replaced, as the
    /// oracle.
    fn bn_bwd_sums_oracle(
        up: &[f32],
        xhat: &[f32],
        [c, hw]: [usize; 2],
        sums: (&mut [f64], &mut [f64]),
    ) {
        let (sum_up, sum_up_xh) = sums;
        sum_up.fill(0.0);
        sum_up_xh.fill(0.0);
        for (i, (us, xh)) in up.chunks_exact(hw).zip(xhat.chunks_exact(hw)).enumerate() {
            for k in 0..hw {
                sum_up[i % c] += us[k] as f64;
                sum_up_xh[i % c] += (us[k] * xh[k]) as f64;
            }
        }
    }

    /// The serial BatchNorm input gradient the kernels replaced, as the
    /// oracle.
    fn bn_bwd_dx_oracle(
        dst: &mut [f32],
        mode: Mode,
        (up, xhat): (&[f32], &[f32]),
        [n, c, hw]: [usize; 3],
        (gamma, inv_std): (&[f32], &[f32]),
        (sum_up, sum_up_xh): (&[f64], &[f64]),
    ) {
        let m = (n * hw) as f32;
        for (i, plane) in dst.chunks_exact_mut(hw).enumerate() {
            let (ci, base) = (i % c, i * hw);
            let coef = gamma[ci] * inv_std[ci] / m;
            let (su, suxh) = (sum_up[ci] as f32, sum_up_xh[ci] as f32);
            apply(plane, mode, |k| coef * (m * up[base + k] - su - xhat[base + k] * suxh));
        }
    }

    fn assert_bits<T: Copy + Into<f64>>(what: &str, got: &[T], want: &[T]) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (&a, &b)) in got.iter().zip(want).enumerate() {
            let (a, b): (f64, f64) = (a.into(), b.into());
            assert!(a.to_bits() == b.to_bits(), "{what}: element {i}: {a} vs {b}");
        }
    }

    proptest! {
        /// BatchNorm's passes, bit for bit against the serial bodies they
        /// replaced, on pools of 1, 2 and 4 threads:
        /// one-element planes, one channel, one image, and passes on both
        /// sides of `EW_CHUNK`. Destinations start NaN (or, for an `Add`,
        /// hold values), so an element a kernel does not write fails; the
        /// operands are random, so a channel sum taken in another order
        /// fails.
        #[test]
        fn batch_norm_passes_equal_their_serial_oracles(
            n in prop_oneof![Just(1usize), 2usize..4, Just(33usize)],
            c in prop_oneof![Just(1usize), 2usize..7],
            oh in prop_oneof![Just(1usize), 2usize..9, 20usize..27],
            ow in prop_oneof![Just(1usize), 2usize..9, 20usize..27],
            data in vec(-2f32..2.0, 997..998),
        ) {
            let (hw, len) = (oh * ow, n * c * oh * ow);
            let val = |k: usize, i: usize| data[(i * 7 + k * 13) % data.len()];
            let [x, up, pre]: [Vec<f32>; 3] = [0, 1, 2].map(|k| (0..len).map(|i| val(k, i)).collect());
            let (gamma, beta): (Vec<f32>, Vec<f32>) = (0..c).map(|i| (val(3, i), val(4, i))).unzip();
            let nan = || vec![f32::NAN; len];

            let (mut mean, mut var) = (vec![0.0f64; c], vec![0.0f64; c]);
            bn_stats_oracle(&x, [n, c, hw], &mut mean, &mut var);
            let (mut inv_std, mut xhat, mut y) = (vec![0.0f32; c], nan(), nan());
            let affine = (&gamma[..], &beta[..]);
            bn_fwd_oracle(&x, [c, hw], (&mean, &var), 1e-5, affine, &mut inv_std, &mut xhat, &mut y);
            let (mut su, mut suxh) = (vec![0.0f64; c], vec![0.0f64; c]);
            bn_bwd_sums_oracle(&up, &xhat, [c, hw], (&mut su, &mut suxh));
            let (mut dx_store, mut dx_add) = (nan(), pre.clone());
            for (dx, mode) in [(&mut dx_store, Mode::Store), (&mut dx_add, Mode::Add)] {
                let stats = (&su[..], &suxh[..]);
                bn_bwd_dx_oracle(dx, mode, (&up, &xhat), [n, c, hw], (&gamma, &inv_std), stats);
            }

            for threads in [1, 2, 4] {
                let pool = std::sync::Arc::new(legw_parallel::ThreadPool::new(threads));
                legw_parallel::with_pool(&pool, || {
                    let (mut m, mut v) = (vec![f64::NAN; c], vec![f64::NAN; c]);
                    bn_stats(&x, [n, c, hw], &mut m, &mut v);
                    assert_bits("bn_stats mean", &m, &mean);
                    assert_bits("bn_stats var", &v, &var);
                    let (mut is, mut xh, mut out) = (vec![f32::NAN; c], nan(), nan());
                    bn_fwd(&x, [n, c, hw], (&m, &v), 1e-5, &gamma, &beta, &mut is, &mut xh, &mut out);
                    assert_bits("bn_fwd inv_std", &is, &inv_std);
                    assert_bits("bn_fwd xhat", &xh, &xhat);
                    assert_bits("bn_fwd out", &out, &y);
                    let (mut s, mut sx) = (vec![f64::NAN; c], vec![f64::NAN; c]);
                    bn_bwd_sums(&up, &xh, c, hw, &mut s, &mut sx);
                    assert_bits("bn_bwd_sums up", &s, &su);
                    assert_bits("bn_bwd_sums up·xhat", &sx, &suxh);
                    for (mut dx, mode, want) in [(nan(), Mode::Store, &dx_store), (pre.clone(), Mode::Add, &dx_add)] {
                        bn_bwd_dx(&mut dx, mode, &up, &xh, [n, c, hw], &gamma, &is, (&s, &sx));
                        assert_bits("bn_bwd_dx", &dx, want);
                    }
                });
            }
        }

        /// The row-broadcast bodies (AddBias, RowScale and RowScaleDx,
        /// ColsBlockG, ChannelAffineF), bit for bit against the per-element formulas they
        /// replaced, on one and on two threads: rows · cols on both sides of
        /// `EW_CHUNK`, one-column rows, rows wider than a chunk, and ragged
        /// last blocks.
        #[test]
        fn row_broadcast_bodies_equal_their_per_element_formulas(
            cols in prop_oneof![Just(1usize), 2usize..40, 40usize..3000, Just(EW_CHUNK + 3)],
            target in prop_oneof![1usize..EW_CHUNK, EW_CHUNK..3 * EW_CHUNK],
            off in 0usize..3,
            data in vec(-2f32..2.0, 3000..3001),
        ) {
            let (cols, target): (usize, usize) = (cols, target);
            let rows = (target / cols).max(1);
            let n = rows * cols;
            // Long operands drawn by cycling a short random pool.
            let val = |k: usize, i: usize| data[(i * 7 + k * 13) % data.len()];
            let (pre, x): (Vec<f32>, Vec<f32>) = (0..n).map(|i| (val(0, i), val(1, i))).unzip();
            let b: Vec<f32> = (0..cols).map(|j| val(2, j)).collect();
            let s: Vec<f32> = (0..rows).map(|r| val(3, r)).collect();
            let uc = cols + 3;
            let up: Vec<f32> = (0..rows * uc).map(|i| val(4, i)).collect();
            for threads in [1, 2] {
                let pool = std::sync::Arc::new(legw_parallel::ThreadPool::new(threads));
                legw_parallel::with_pool(&pool, || {
                    assert_body_is_formula(
                        "add_bias",
                        &pre,
                        |d, m| add_bias(d, m, &x, &b),
                        |i| x[i] + b[i % cols],
                    );
                    assert_body_is_formula(
                        "row_scale",
                        &pre,
                        |d, m| row_scale(d, m, &x, &s),
                        |i| x[i] * s[i / cols],
                    );
                    assert_body_is_formula(
                        "cols_block",
                        &pre,
                        |d, m| cols_block(d, m, &up, rows, off),
                        |i| up[(i / cols) * uc + off + i % cols],
                    );
                    // Rows as planes of `cols`, over `c` channels.
                    let c = rows.div_ceil(2);
                    assert_body_is_formula(
                        "channel_map",
                        &pre,
                        |d, m| channel_map(d, m, &x, [c, cols], |ci| {
                            let (s, b) = (s[ci], b[ci % cols]);
                            move |v| v * s + b
                        }),
                        |i| x[i] * s[i / cols % c] + b[i / cols % c % cols],
                    );
                });
            }
        }

        /// Every `(dst, mode)` body, at shapes that include the degenerate
        /// ones the whole-tape suites never reach: `hw = 1`, `c = 1`, a
        /// 1-row softmax, repeated embedding ids, every label ignored.
        #[test]
        fn add_into_prefilled_equals_store_then_add(
            n in 1usize..4,
            c in 1usize..4,
            hw in 1usize..5,
            ids in vec(0usize..3, 1..6),
            labels in vec(0usize..5, 3..4),
            // nonzero with probability 1: `x + 0.0` keeps every bit but `-0.0`'s
            data in vec(-2f32..2.0, 600..601),
        ) {
            let (pre, up, x) = (&data[..100], &data[100..200], &data[200..300]);
            let len = n * c * hw;

            assert_add_is_store_then_add("row_scale_ds", &pre[..n], |d, m| {
                row_scale_ds(d, m, &up[..n * c], &x[..n * c], c)
            });
            for zero_rest in [false, true] {
                assert_add_is_store_then_add("block", &pre[..len + 2], |d, m| {
                    block(d, m, &up[..len], 1, zero_rest)
                });
            }
            assert_add_is_store_then_add("cols_scatter", &pre[..n * (c + 2)], |d, m| {
                cols_scatter(d, m, &up[..n * c], c + 2, 1, c + 1)
            });
            assert_add_is_store_then_add("gap_bwd", &pre[..len], |d, m| gap_bwd(d, m, &up[..n * c], hw));

            // BatchNorm backward from a real forward pass
            let (mut mean, mut var) = (vec![0.0f64; c], vec![0.0f64; c]);
            bn_stats(&x[..len], [n, c, hw], &mut mean, &mut var);
            let (mut inv_std, mut xhat, mut y) = (vec![0.0; c], vec![0.0; len], vec![0.0; len]);
            let (gamma, beta) = (&data[300..300 + c], &data[310..310 + c]);
            bn_fwd(&x[..len], [n, c, hw], (&mean, &var), 1e-5, gamma, beta, &mut inv_std, &mut xhat, &mut y);
            let (mut su, mut suxh) = (vec![0.0f64; c], vec![0.0f64; c]);
            bn_bwd_sums(&up[..len], &xhat, c, hw, &mut su, &mut suxh);
            assert_add_is_store_then_add("bn_bwd_dx", &pre[..len], |d, m| {
                bn_bwd_dx(d, m, &up[..len], &xhat, [n, c, hw], gamma, &inv_std, (&su, &suxh))
            });

            // Max pool over `n * c` planes of 2 × 2hw: `hw` windows each.
            let (mut pooled, mut argmax) = (vec![0.0; len], vec![0u32; len]);
            max_pool_fwd(&data[..4 * len], n * c, 2, 2 * hw, &mut pooled, &mut argmax);
            assert_add_is_store_then_add("max_pool_bwd", &data[400..400 + 4 * len], |d, m| {
                max_pool_bwd(d, m, &mut vec![0.0; 4 * len], &up[..len], &argmax)
            });

            // Embedding over a 3-row table, the first id repeated.
            let ids: Vec<usize> = ids.iter().chain(&ids[..1]).copied().collect();
            assert_add_is_store_then_add("embed_bwd", &pre[..3 * c], |d, m| {
                embed_bwd(d, m, &mut vec![0.0; 3 * c], &up[..ids.len() * c], &ids, c)
            });

            // Softmax over `n` rows of `c + 1` (n = 1: a single row), then
            // cross-entropy over 3 rows with some, and with all, ignored.
            let v = c + 1;
            let mut sm = vec![0.0; n * v];
            softmax_rows_into(&x[..n * v], n, v, &mut sm);
            assert_add_is_store_then_add("softmax_bwd", &pre[..n * v], |d, m| {
                softmax_bwd(d, m, &up[..n * v], &sm, v)
            });
            let some: Vec<usize> = labels.iter().map(|&l| if l < v { l } else { IGNORE_INDEX }).collect();
            for labels in [some, vec![IGNORE_INDEX; 3]] {
                let mut probs = vec![0.0; 3 * v];
                let (_, active) = ce_fwd(&x[..3 * v], &labels, v, &mut probs);
                assert_add_is_store_then_add("ce_bwd", &pre[..3 * v], |d, m| {
                    ce_bwd(d, m, up[0], &probs, &labels, active, v)
                });
            }
        }
    }
}
