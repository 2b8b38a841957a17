//! Convolution lowering: `im2col` / `col2im` so Conv2d forward and backward
//! become matrix multiplications.
//!
//! Layout convention: images are `[N, C, H, W]` row-major; the column matrix
//! is `[N·OH·OW, C·KH·KW]` so that `cols @ weight[CKK, OC]` yields the output
//! `[N·OH·OW, OC]`.
//!
//! Both kernels only move data, so they are written to run at memory speed:
//! the unfold writes every column element exactly once, padding zeros
//! inline, over row blocks of the pool; the fold gives each image its own
//! pool task. The kernel width is a compile-time constant for the widths
//! the models use (1 and 3), so an in-bounds span is a fixed number of
//! moves; any other width runs the same body at a run-time width.

use crate::pool::Buffer;
use crate::tensor::Tensor;
use legw_parallel::{current, par_chunks_mut};
use std::ops::Range;

/// Geometry of a 2-D convolution: input/kernel/stride/padding extents and
/// the derived output size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Conv2dGeom {
    /// Input channels.
    pub c: usize,
    /// Input height.
    pub h: usize,
    /// Input width.
    pub w: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride (same in both axes).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub pad: usize,
}

impl Conv2dGeom {
    /// Output height.
    pub fn oh(&self) -> usize {
        (self.h + 2 * self.pad - self.kh) / self.stride + 1
    }

    /// Output width.
    pub fn ow(&self) -> usize {
        (self.w + 2 * self.pad - self.kw) / self.stride + 1
    }

    /// Checks the geometry is realisable.
    pub fn validate(&self) {
        assert!(self.stride > 0, "stride must be positive");
        assert!(
            self.h + 2 * self.pad >= self.kh && self.w + 2 * self.pad >= self.kw,
            "kernel {}x{} larger than padded input {}x{}",
            self.kh,
            self.kw,
            self.h + 2 * self.pad,
            self.w + 2 * self.pad
        );
    }
}

/// Unfolds `input [N, C, H, W]` into a column matrix `[N·OH·OW, C·KH·KW]`.
///
/// Output rows are independent, so the unfold runs over row blocks of the
/// column matrix on the pool. Each element is written once, so the output
/// starts as a dirty pooled buffer.
pub fn im2col(input: &Tensor, g: &Conv2dGeom) -> Tensor {
    g.validate();
    assert_eq!(input.ndim(), 4, "im2col expects [N,C,H,W], got {:?}", input.shape());
    let (n, c, h, w) = (input.dim(0), input.dim(1), input.dim(2), input.dim(3));
    assert_eq!((c, h, w), (g.c, g.h, g.w), "geometry mismatch");
    let (oh, ow) = (g.oh(), g.ow());
    let ckk = c * g.kh * g.kw;
    let rows = n * oh * ow;
    let mut out = Buffer::dirty(rows * ckk);
    fill_cols(input.as_slice(), n, g, &mut out);
    Tensor::from_buffer(out, &[rows, ckk])
}

/// Slice-level [`im2col`] into a caller-owned, already-sized buffer
/// (`[N·OH·OW, C·KH·KW]` elements) whose contents do not matter: the
/// kernel `im2col` uses overwrites all of it, so precompiled execution
/// plans reproduce the tape path bit-for-bit without allocating.
pub fn im2col_into(input: &[f32], n: usize, g: &Conv2dGeom, out: &mut [f32]) {
    g.validate();
    assert_eq!(input.len(), n * g.c * g.h * g.w, "im2col_into input length");
    let ckk = g.c * g.kh * g.kw;
    assert_eq!(out.len(), n * g.oh() * g.ow() * ckk, "im2col_into out length");
    fill_cols(input, n, g, out);
}

/// The output columns whose `kw`-wide kernel span lies wholly inside the
/// image (empty when none does): there a span is a plain copy, with no
/// padding to clip.
fn interior(g: &Conv2dGeom, kw: usize) -> Range<usize> {
    let ow = g.ow();
    let start = g.pad.div_ceil(g.stride).min(ow);
    let end = match (g.w + g.pad).checked_sub(kw) {
        Some(room) => (room / g.stride + 1).min(ow),
        None => 0,
    };
    start..end.max(start)
}

/// `(x0, lo, hi)` for output column `ox` of a `kw`-wide kernel: the input
/// column under kernel column 0 (negative inside the left padding), and the
/// kernel columns `lo..hi` that fall inside the image (`lo == hi` when none
/// does).
fn in_bounds(g: &Conv2dGeom, kw: usize, ox: usize) -> (isize, usize, usize) {
    let x0 = (ox * g.stride) as isize - g.pad as isize;
    let lo = (-x0).clamp(0, kw as isize) as usize;
    let hi = (g.w as isize - x0).clamp(lo as isize, kw as isize) as usize;
    (x0, lo, hi)
}

/// The input row under kernel row `ky` of output row `oy`, if it is inside
/// the image.
fn in_row(g: &Conv2dGeom, oy: usize, ky: usize) -> Option<usize> {
    (oy * g.stride + ky).checked_sub(g.pad).filter(|&iy| iy < g.h)
}

/// The unfold behind [`im2col`] / [`im2col_into`], at a compile-time kernel
/// width where the models have one.
fn fill_cols(src: &[f32], n: usize, g: &Conv2dGeom, out: &mut [f32]) {
    match g.kw {
        1 => fill_cols_kw::<1>(src, n, g, out),
        3 => fill_cols_kw::<3>(src, n, g, out),
        _ => fill_cols_kw::<0>(src, n, g, out),
    }
}

/// Writes every element of `out`, padding zeros included, so `out` may hold
/// anything on entry. The unit of work is one output row of one image:
/// `OW` rows of the column matrix, a few KB.
fn fill_cols_kw<const KW: usize>(src: &[f32], n: usize, g: &Conv2dGeom, out: &mut [f32]) {
    let (img_len, oh) = (g.c * g.h * g.w, g.oh());
    let line_len = g.ow() * g.c * g.kh * g.kw;
    let (pool, lines) = (current(), n * oh);
    let lines_per_task = if out.len() < crate::PAR_THRESHOLD || pool.threads() == 1 {
        lines.max(1)
    } else {
        lines.div_ceil(pool.threads() * 4).max(1)
    };
    par_chunks_mut(&pool, out, lines_per_task * line_len, |start, block| {
        for (i, dst) in block.chunks_exact_mut(line_len).enumerate() {
            let (ni, oy) = ((start / line_len + i) / oh, (start / line_len + i) % oh);
            fill_line::<KW>(&src[ni * img_len..(ni + 1) * img_len], g, oy, dst);
        }
    });
}

/// Output row `oy` of image `img` into its `[OW, C·KH·KW]` block of the
/// column matrix, one `(channel, ky)` input line at a time. `KW` is the
/// kernel width as a compile-time constant, or 0 for `g.kw` read at run
/// time. Inlined into its caller: called as a function, the fold below runs
/// at half its speed, so both bodies are kept inline alike.
#[inline(always)]
fn fill_line<const KW: usize>(img: &[f32], g: &Conv2dGeom, oy: usize, dst: &mut [f32]) {
    let kw = if KW == 0 { g.kw } else { KW };
    let (hw, w, stride, pad) = (g.h * g.w, g.w, g.stride, g.pad);
    let (ow, ckk, inner) = (g.ow(), g.c * g.kh * kw, interior(g, kw));
    for (ci, plane) in img.chunks_exact(hw).enumerate() {
        for ky in 0..g.kh {
            let col = (ci * g.kh + ky) * kw;
            let Some(iy) = in_row(g, oy, ky) else {
                for ox in 0..ow {
                    dst[ox * ckk + col..ox * ckk + col + kw].fill(0.0);
                }
                continue;
            };
            let line = &plane[iy * w..(iy + 1) * w];
            for ox in (0..inner.start).chain(inner.end..ow) {
                let (x0, lo, hi) = in_bounds(g, kw, ox);
                let span = &mut dst[ox * ckk + col..ox * ckk + col + kw];
                span[..lo].fill(0.0);
                span[hi..].fill(0.0);
                if lo < hi {
                    let from = (x0 + lo as isize) as usize;
                    span[lo..hi].copy_from_slice(&line[from..from + hi - lo]);
                }
            }
            for ox in inner.clone() {
                let (o, x) = (ox * ckk + col, ox * stride - pad);
                dst[o..o + kw].copy_from_slice(&line[x..x + kw]);
            }
        }
    }
}

/// Folds a column-matrix gradient `[N·OH·OW, C·KH·KW]` back into an image
/// gradient `[N, C, H, W]`, summing overlapping contributions (the adjoint of
/// [`im2col`]).
pub fn col2im(cols: &Tensor, n: usize, g: &Conv2dGeom) -> Tensor {
    g.validate();
    let (oh, ow) = (g.oh(), g.ow());
    let ckk = g.c * g.kh * g.kw;
    assert_eq!(cols.shape(), &[n * oh * ow, ckk], "col2im shape mismatch");
    let mut out = Buffer::dirty(n * g.c * g.h * g.w);
    fold_cols(cols.as_slice(), n, g, &mut out);
    Tensor::from_buffer(out, &[n, g.c, g.h, g.w])
}

/// Slice-level [`col2im`] into a caller-owned buffer (`N·C·H·W` elements)
/// whose contents do not matter: the fold `col2im` uses zeroes each image
/// before it accumulates into it.
pub fn col2im_into(cols: &[f32], n: usize, g: &Conv2dGeom, out: &mut [f32]) {
    g.validate();
    assert_eq!(cols.len(), n * g.oh() * g.ow() * g.c * g.kh * g.kw, "col2im_into cols length");
    assert_eq!(out.len(), n * g.c * g.h * g.w, "col2im_into out length");
    fold_cols(cols, n, g, out);
}

/// The fold behind [`col2im`] / [`col2im_into`], at a compile-time kernel
/// width where the models have one.
fn fold_cols(src: &[f32], n: usize, g: &Conv2dGeom, out: &mut [f32]) {
    match g.kw {
        1 => fold_cols_kw::<1>(src, n, g, out),
        3 => fold_cols_kw::<3>(src, n, g, out),
        _ => fold_cols_kw::<0>(src, n, g, out),
    }
}

/// One pool task per image: images' planes are disjoint.
fn fold_cols_kw<const KW: usize>(src: &[f32], n: usize, g: &Conv2dGeom, out: &mut [f32]) {
    let (img_len, img_cols) = (g.c * g.h * g.w, g.oh() * g.ow() * g.c * g.kh * g.kw);
    let pool = current();
    let imgs_per_task = if n * img_cols < crate::PAR_THRESHOLD { n.max(1) } else { 1 };
    par_chunks_mut(&pool, out, imgs_per_task * img_len, |start, imgs| {
        for (i, img) in imgs.chunks_exact_mut(img_len).enumerate() {
            let ni = start / img_len + i;
            fold_image::<KW>(&src[ni * img_cols..(ni + 1) * img_cols], g, img);
        }
    });
}

/// Zeroes `img`, then adds its column-matrix rows `cols` into it: output
/// rows in order, and within one, each `(channel, ky)` input line takes its
/// output columns in order. A pixel lies under one `(ky, kx)` of any one
/// column matrix row, so it receives its contributions in row order, as the
/// serial fold adds them. `KW` is the kernel width as a compile-time
/// constant, or 0 for `g.kw` read at run time. Inlined, as [`fill_line`].
#[inline(always)]
fn fold_image<const KW: usize>(cols: &[f32], g: &Conv2dGeom, img: &mut [f32]) {
    let kw = if KW == 0 { g.kw } else { KW };
    let (hw, w, stride, pad) = (g.h * g.w, g.w, g.stride, g.pad);
    let (ow, ckk, inner) = (g.ow(), g.c * g.kh * kw, interior(g, kw));
    img.fill(0.0);
    for (oy, rows) in cols.chunks_exact(ow * ckk).enumerate() {
        for (ci, plane) in img.chunks_exact_mut(hw).enumerate() {
            for ky in 0..g.kh {
                let Some(iy) = in_row(g, oy, ky) else { continue };
                let line = &mut plane[iy * w..(iy + 1) * w];
                let col = (ci * g.kh + ky) * kw;
                let border = |line: &mut [f32], ox: usize| {
                    let (x0, lo, hi) = in_bounds(g, kw, ox);
                    if lo < hi {
                        let (from, o) = ((x0 + lo as isize) as usize, ox * ckk + col);
                        let span = &rows[o + lo..o + hi];
                        line[from..from + hi - lo].iter_mut().zip(span).for_each(|(d, &v)| *d += v);
                    }
                };
                // Output columns in order: left border, interior, right border.
                (0..inner.start).for_each(|ox| border(line, ox));
                for ox in inner.clone() {
                    let (o, x) = (ox * ckk + col, ox * stride - pad);
                    line[x..x + kw].iter_mut().zip(&rows[o..o + kw]).for_each(|(d, &v)| *d += v);
                }
                (inner.end..ow).for_each(|ox| border(line, ox));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legw_propcheck::collection::vec;
    use legw_propcheck::prelude::*;

    fn geom(c: usize, h: usize, w: usize, k: usize, stride: usize, pad: usize) -> Conv2dGeom {
        Conv2dGeom { c, h, w, kh: k, kw: k, stride, pad }
    }

    #[test]
    fn output_size_formula() {
        let g = geom(3, 32, 32, 3, 1, 1);
        assert_eq!((g.oh(), g.ow()), (32, 32)); // "same" conv
        let g2 = geom(3, 32, 32, 3, 2, 1);
        assert_eq!((g2.oh(), g2.ow()), (16, 16));
    }

    #[test]
    fn im2col_1x1_kernel_is_reshape() {
        let g = geom(2, 3, 3, 1, 1, 0);
        let x = Tensor::from_vec((0..18).map(|v| v as f32).collect(), &[1, 2, 3, 3]);
        let cols = im2col(&x, &g);
        assert_eq!(cols.shape(), &[9, 2]);
        // column c of row (y*w+x) is channel c at pixel (y,x)
        assert_eq!(cols.at2(0, 0), 0.0);
        assert_eq!(cols.at2(0, 1), 9.0);
        assert_eq!(cols.at2(8, 0), 8.0);
        assert_eq!(cols.at2(8, 1), 17.0);
    }

    #[test]
    fn im2col_matmul_equals_direct_conv() {
        // direct convolution vs im2col+matmul on a small case
        let g = geom(2, 5, 5, 3, 1, 1);
        let n = 2;
        let oc = 3;
        let x = Tensor::from_vec(
            (0..n * 2 * 25).map(|v| ((v * 37 % 11) as f32) - 5.0).collect(),
            &[n, 2, 5, 5],
        );
        let wgt = Tensor::from_vec(
            (0..oc * 2 * 9).map(|v| ((v * 13 % 7) as f32) * 0.1 - 0.3).collect(),
            &[oc, 2 * 9],
        );
        // im2col path: [N*OH*OW, CKK] @ [CKK, OC]
        let cols = im2col(&x, &g);
        let out = cols.matmul(&wgt.transpose()); // [N*OH*OW, OC]

        // direct path
        let (oh, ow) = (g.oh(), g.ow());
        for ni in 0..n {
            for o in 0..oc {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = 0.0f32;
                        for ci in 0..2 {
                            for ky in 0..3 {
                                for kx in 0..3 {
                                    let iy = oy as isize + ky as isize - 1;
                                    let ix = ox as isize + kx as isize - 1;
                                    if (0..5).contains(&iy) && (0..5).contains(&ix) {
                                        let xi = x.as_slice()
                                            [((ni * 2 + ci) * 5 + iy as usize) * 5 + ix as usize];
                                        let wi = wgt.at2(o, (ci * 3 + ky) * 3 + kx);
                                        acc += xi * wi;
                                    }
                                }
                            }
                        }
                        let got = out.at2((ni * oh + oy) * ow + ox, o);
                        assert!((got - acc).abs() < 1e-4, "{got} vs {acc}");
                    }
                }
            }
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining
        // property of the transpose, which is exactly what backward needs.
        let g = geom(2, 6, 5, 3, 2, 1);
        let n = 2;
        let x = Tensor::from_vec(
            (0..n * g.c * g.h * g.w).map(|v| ((v % 17) as f32) - 8.0).collect(),
            &[n, g.c, g.h, g.w],
        );
        let cols = im2col(&x, &g);
        let y = Tensor::from_vec(
            (0..cols.numel()).map(|v| ((v % 23) as f32) * 0.5 - 5.0).collect(),
            cols.shape(),
        );
        let lhs = cols.flatten().dot(&y.flatten());
        let folded = col2im(&y, n, &g);
        let rhs = x.flatten().dot(&folded.flatten());
        assert!((lhs - rhs).abs() < 1.0, "adjoint identity: {lhs} vs {rhs}");
    }

    #[test]
    #[should_panic(expected = "larger than padded input")]
    fn oversized_kernel_rejected() {
        geom(1, 2, 2, 5, 1, 0).validate();
    }

    /// The serial unfold the kernels replaced, as the oracle: zeroes `out`,
    /// then copies each in-bounds span of each row.
    fn fill_cols_oracle(src: &[f32], n: usize, g: &Conv2dGeom, out: &mut [f32]) {
        let (c, h, w) = (g.c, g.h, g.w);
        let (oh, ow) = (g.oh(), g.ow());
        let ckk = c * g.kh * g.kw;
        out.fill(0.0);
        for (row, dst) in out.chunks_mut(ckk).enumerate().take(n * oh * ow) {
            let (ox, oy, ni) = (row % ow, (row / ow) % oh, row / (oh * ow));
            for ci in 0..c {
                for ky in 0..g.kh {
                    let iy = (oy * g.stride + ky) as isize - g.pad as isize;
                    if iy < 0 || iy as usize >= h {
                        continue;
                    }
                    let x0 = (ox * g.stride) as isize - g.pad as isize;
                    let kx_lo = (-x0).max(0) as usize;
                    let kx_hi = (w as isize - x0).clamp(0, g.kw as isize) as usize;
                    if kx_lo >= kx_hi {
                        continue;
                    }
                    let col = (ci * g.kh + ky) * g.kw;
                    let s = ((ni * c + ci) * h + iy as usize) * w + (x0 + kx_lo as isize) as usize;
                    dst[col + kx_lo..col + kx_hi].copy_from_slice(&src[s..s + kx_hi - kx_lo]);
                }
            }
        }
    }

    /// The serial fold the kernels replaced, as the oracle: zeroes `out`,
    /// then adds every in-bounds column element, rows in order.
    fn fold_cols_oracle(src: &[f32], n: usize, g: &Conv2dGeom, out: &mut [f32]) {
        let (oh, ow) = (g.oh(), g.ow());
        let ckk = g.c * g.kh * g.kw;
        out.fill(0.0);
        for ni in 0..n {
            for oy in 0..oh {
                for ox in 0..ow {
                    let row = ((ni * oh + oy) * ow + ox) * ckk;
                    for ci in 0..g.c {
                        for ky in 0..g.kh {
                            let iy = (oy * g.stride + ky) as isize - g.pad as isize;
                            for kx in 0..g.kw {
                                let ix = (ox * g.stride + kx) as isize - g.pad as isize;
                                if iy >= 0 && (iy as usize) < g.h && ix >= 0 && (ix as usize) < g.w {
                                    let col = (ci * g.kh + ky) * g.kw + kx;
                                    out[((ni * g.c + ci) * g.h + iy as usize) * g.w + ix as usize] +=
                                        src[row + col];
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    fn assert_bits(what: &str, got: &[f32], want: &[f32]) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (a, b)) in got.iter().zip(want).enumerate() {
            assert!(a.to_bits() == b.to_bits(), "{what}: element {i}: {a} vs {b}");
        }
    }

    proptest! {
        /// im2col and col2im, bit for bit against the serial kernels they
        /// replaced, on pools of 1, 2 and 4 threads, at every kernel width
        /// 1..=5 (1 and 3 are the compile-time bodies), stride 1..=3 and
        /// padding 0..=2: planes down to 1×1, odd sides, and batches large
        /// enough to fan out. Destinations start NaN, so an element the
        /// kernel does not write fails; the fold's operands are random, so
        /// a fold that sums a pixel's contributions in another order fails.
        #[test]
        fn unfold_and_fold_equal_their_serial_oracles(
            n in prop_oneof![Just(1usize), 2usize..4, Just(9usize), Just(24usize)],
            c in prop_oneof![Just(1usize), 2usize..5],
            dh in prop_oneof![Just(0usize), 1usize..13],
            dw in prop_oneof![Just(0usize), 1usize..13],
            data in vec(-2f32..2.0, 997..998),
        ) {
            let val = |k: usize, i: usize| data[(i * 7 + k * 13) % data.len()];
            let geoms = (1..=5usize).flat_map(|k| (1..=3).flat_map(move |s| (0..=2).map(move |p| (k, s, p))));
            for (k, stride, pad) in geoms {
                // The smallest side the padded kernel fits, 1 at least.
                let side = |d: usize| k.saturating_sub(2 * pad).max(1) + d;
                let g = Conv2dGeom { c, h: side(dh), w: side(dw), kh: k, kw: k, stride, pad };
                let x: Vec<f32> = (0..n * c * g.h * g.w).map(|i| val(0, i)).collect();
                let cols_len = n * g.oh() * g.ow() * c * k * k;
                let y: Vec<f32> = (0..cols_len).map(|i| val(1, i)).collect();
                let (mut want_cols, mut want_img) = (vec![0.0; cols_len], vec![0.0; x.len()]);
                fill_cols_oracle(&x, n, &g, &mut want_cols);
                fold_cols_oracle(&y, n, &g, &mut want_img);
                for threads in [1, 2, 4] {
                    let pool = std::sync::Arc::new(legw_parallel::ThreadPool::new(threads));
                    legw_parallel::with_pool(&pool, || {
                        let mut cols = vec![f32::NAN; cols_len];
                        im2col_into(&x, n, &g, &mut cols);
                        assert_bits("im2col_into", &cols, &want_cols);
                        let t = im2col(&Tensor::from_vec(x.clone(), &[n, c, g.h, g.w]), &g);
                        assert_bits("im2col", t.as_slice(), &want_cols);

                        let mut img = vec![f32::NAN; x.len()];
                        col2im_into(&y, n, &g, &mut img);
                        assert_bits("col2im_into", &img, &want_img);
                        let cols_t = Tensor::from_vec(y.clone(), &[n * g.oh() * g.ow(), c * k * k]);
                        assert_bits("col2im", col2im(&cols_t, n, &g).as_slice(), &want_img);
                    });
                }
            }
        }

        #[test]
        fn prop_adjoint_identity(
            h in 3usize..8, w in 3usize..8, k in 1usize..4,
            stride in 1usize..3, pad in 0usize..2,
        ) {
            prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);
            let g = Conv2dGeom { c: 2, h, w, kh: k, kw: k, stride, pad };
            let n = 1;
            let x = Tensor::from_vec(
                (0..n * 2 * h * w).map(|v| ((v * 31 % 13) as f32) - 6.0).collect(),
                &[n, 2, h, w],
            );
            let cols = im2col(&x, &g);
            let y = Tensor::from_vec(
                (0..cols.numel()).map(|v| ((v * 7 % 19) as f32) - 9.0).collect(),
                cols.shape(),
            );
            let lhs = cols.flatten().dot(&y.flatten()) as f64;
            let rhs = x.flatten().dot(&col2im(&y, n, &g).flatten()) as f64;
            prop_assert!((lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()));
        }
    }
}
