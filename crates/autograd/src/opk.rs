//! Op kernels: one body per op, over slices, for both executors.
//!
//! Every op whose arithmetic has a rounding chain of its own — a reduction
//! or f64 accumulator, a normaliser, a scatter-add, a layout permute, the
//! loss — is written here once. The tape ops (`ops_*.rs`) allocate an output
//! and call the body with [`Mode::Store`]; the plan interpreter
//! (`plan.rs::exec`) calls the same body on storage sized at capture, with
//! the [`Mode`] its capture assigned. A replayed step therefore equals a
//! rebuilt tape bit for bit because both ran this code, not because two
//! files were kept in step. (Row softmax, column sums, column concat/slice,
//! im2col and the fused LSTM cell are shared the same way one crate down, as
//! `legw_tensor`'s `_into` functions.)
//!
//! The write protocol is the plan's: the first contribution to a gradient
//! stores, later ones add, exactly as `Graph::accumulate` does with a fresh
//! tensor (`None => store`, `Some(g) => g.axpy(1.0, &delta)`). For any body
//! taking `(dst, mode)`, `Add` into a prefilled `dst` equals `Store` into
//! zeros followed by an elementwise `+=` — the identity that lets the tape's
//! store-then-`accumulate` and the plan's in-place add share a function.

use crate::graph::IGNORE_INDEX;
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

/// Runs `body` — a kernel that overwrites its whole output — under the write
/// protocol: straight into `dst` for `Store`; for `Add`, into
/// `scratch[..dst.len()]` and from there added elementwise. The detour is
/// what keeps the bits: the tape computes each contribution into a fresh
/// tensor and axpy-adds it, and accumulating inside the kernel (a GEMM with
/// `acc`, a scatter straight into `dst`) would reassociate the sums.
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

/// Permutes a channels-last matmul result `[N·OH·OW, OC]` into `[N,OC,OH,OW]`.
pub(crate) fn to_nchw(src: &[f32], n: usize, oc: usize, oh: usize, ow: usize, out: &mut [f32]) {
    debug_assert!(src.len() == n * oc * oh * ow && out.len() == src.len());
    for ni in 0..n {
        for y in 0..oh {
            for x in 0..ow {
                let row = ((ni * oh + y) * ow + x) * oc;
                for o in 0..oc {
                    out[((ni * oc + o) * oh + y) * ow + x] = src[row + o];
                }
            }
        }
    }
}

/// Inverse of [`to_nchw`]: `[N,OC,OH,OW]` → `[N·OH·OW, OC]`.
pub(crate) fn from_nchw(src: &[f32], n: usize, oc: usize, oh: usize, ow: usize, out: &mut [f32]) {
    debug_assert!(src.len() == n * oc * oh * ow && out.len() == src.len());
    for ni in 0..n {
        for o in 0..oc {
            for y in 0..oh {
                for x in 0..ow {
                    out[((ni * oh + y) * ow + x) * oc + o] = src[((ni * oc + o) * oh + y) * ow + x];
                }
            }
        }
    }
}

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
    debug_assert!(src.len() == nc * h * w && out.len() == nc * oh * ow && argmax.len() == out.len());
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
/// `(n, hw)`, two passes in f64. `mean` and `var` (length `c`) are
/// overwritten.
pub(crate) fn bn_stats(x: &[f32], [n, c, hw]: [usize; 3], mean: &mut [f64], var: &mut [f64]) {
    debug_assert!(x.len() == n * c * hw && mean.len() == c && var.len() == c);
    let m = (n * hw) as f64;
    mean.fill(0.0);
    var.fill(0.0);
    for (i, plane) in x.chunks_exact(hw).enumerate() {
        let mu = &mut mean[i % c];
        for &v in plane {
            *mu += v as f64;
        }
    }
    for mu in mean.iter_mut() {
        *mu /= m;
    }
    for (i, plane) in x.chunks_exact(hw).enumerate() {
        let (mu, va) = (mean[i % c], &mut var[i % c]);
        for &v in plane {
            let d = v as f64 - mu;
            *va += d * d;
        }
    }
    for va in var.iter_mut() {
        *va /= m;
    }
}

/// Training-mode BatchNorm forward from the batch statistics of
/// [`bn_stats`]: fills `inv_std [c]`, the normalised `xhat` and
/// `out = gamma · xhat + beta`.
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
    for (i, ((plane, xh), o)) in
        x.chunks_exact(hw).zip(xhat.chunks_exact_mut(hw)).zip(out.chunks_exact_mut(hw)).enumerate()
    {
        let ci = i % c;
        let (mu, is) = (mean[ci] as f32, inv_std[ci]);
        for k in 0..hw {
            let xhat_v = (plane[k] - mu) * is;
            xh[k] = xhat_v;
            o[k] = gamma[ci] * xhat_v + beta[ci];
        }
    }
}

/// BatchNorm backward, the per-channel f64 sums `Σ up` and `Σ up·xhat`
/// (each product rounded to f32 first); both outputs are overwritten. As
/// f32 they are the `beta` and `gamma` gradients.
pub(crate) fn bn_bwd_sums(
    up: &[f32],
    xhat: &[f32],
    c: usize,
    hw: usize,
    sum_up: &mut [f64],
    sum_up_xh: &mut [f64],
) {
    debug_assert!(up.len() == xhat.len() && sum_up.len() == c && sum_up_xh.len() == c);
    sum_up.fill(0.0);
    sum_up_xh.fill(0.0);
    for (i, (us, xh)) in up.chunks_exact(hw).zip(xhat.chunks_exact(hw)).enumerate() {
        let ci = i % c;
        for k in 0..hw {
            sum_up[ci] += us[k] as f64;
            sum_up_xh[ci] += (us[k] * xh[k]) as f64;
        }
    }
}

/// BatchNorm backward, the input gradient from the sums of [`bn_bwd_sums`]:
/// `dx (+)= gamma·inv_std/m · (m·up − Σup − xhat·Σ(up·xhat))`, `m = n·hw`.
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
    for (i, plane) in dst.chunks_exact_mut(hw).enumerate() {
        let (ci, base) = (i % c, i * hw);
        let coef = gamma[ci] * inv_std[ci] / m;
        let (su, suxh) = (sum_up[ci] as f32, sum_up_xh[ci] as f32);
        apply(plane, mode, |k| coef * (m * up[base + k] - su - xhat[base + k] * suxh));
    }
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
pub(crate) fn ce_fwd(logits: &[f32], labels: &[usize], v: usize, probs: &mut [f32]) -> (f32, usize) {
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

    proptest! {
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
