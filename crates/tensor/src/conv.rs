//! Convolution lowering: `im2col` / `col2im` so Conv2d forward and backward
//! become matrix multiplications.
//!
//! Layout convention: images are `[N, C, H, W]` row-major; the column matrix
//! is `[N·OH·OW, C·KH·KW]` so that `cols @ weight[CKK, OC]` yields the output
//! `[N·OH·OW, OC]`.

use crate::pool::Buffer;
use crate::tensor::Tensor;
use legw_parallel::{current, par_chunks_mut};

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
/// Output rows are independent, so the fill is parallelised over row chunks
/// of the column matrix; within a row, each `(channel, ky)` pair copies its
/// in-bounds `kx` span with a single contiguous `copy_from_slice` (the
/// out-of-bounds padding stays zero from the pooled buffer).
pub fn im2col(input: &Tensor, g: &Conv2dGeom) -> Tensor {
    g.validate();
    assert_eq!(input.ndim(), 4, "im2col expects [N,C,H,W], got {:?}", input.shape());
    let (n, c, h, w) = (input.dim(0), input.dim(1), input.dim(2), input.dim(3));
    assert_eq!((c, h, w), (g.c, g.h, g.w), "geometry mismatch");
    let (oh, ow) = (g.oh(), g.ow());
    let ckk = c * g.kh * g.kw;
    let rows = n * oh * ow;
    let mut out = Buffer::zeroed(rows * ckk);
    fill_cols(input.as_slice(), n, g, &mut out);
    Tensor::from_buffer(out, &[rows, ckk])
}

/// Slice-level [`im2col`] into a caller-owned, already-sized buffer
/// (`[N·OH·OW, C·KH·KW]` elements) — zero-fills and unfolds with the exact
/// kernel `im2col` uses, so precompiled execution plans reproduce the tape
/// path bit-for-bit without allocating.
pub fn im2col_into(input: &[f32], n: usize, g: &Conv2dGeom, out: &mut [f32]) {
    g.validate();
    assert_eq!(input.len(), n * g.c * g.h * g.w, "im2col_into input length");
    let ckk = g.c * g.kh * g.kw;
    assert_eq!(out.len(), n * g.oh() * g.ow() * ckk, "im2col_into out length");
    out.fill(0.0);
    fill_cols(input, n, g, out);
}

/// The shared unfold kernel behind [`im2col`] / [`im2col_into`]: `out` must
/// be zeroed (padding positions are never written).
fn fill_cols(src: &[f32], n: usize, g: &Conv2dGeom, out: &mut [f32]) {
    let (c, h, w) = (g.c, g.h, g.w);
    let (oh, ow) = (g.oh(), g.ow());
    let ckk = c * g.kh * g.kw;
    let rows = n * oh * ow;

    let fill_row = |row: usize, dst: &mut [f32]| {
        let ox = row % ow;
        let oy = (row / ow) % oh;
        let ni = row / (oh * ow);
        for ci in 0..c {
            for ky in 0..g.kh {
                let iy = (oy * g.stride + ky) as isize - g.pad as isize;
                if iy < 0 || iy as usize >= h {
                    continue;
                }
                // in-bounds kx range: 0 ≤ ox·stride + kx − pad < w
                let x0 = (ox * g.stride) as isize - g.pad as isize;
                let kx_lo = (-x0).max(0) as usize;
                let kx_hi = (w as isize - x0).clamp(0, g.kw as isize) as usize;
                if kx_lo >= kx_hi {
                    continue;
                }
                let col = (ci * g.kh + ky) * g.kw;
                let sbase = ((ni * c + ci) * h + iy as usize) * w + (x0 + kx_lo as isize) as usize;
                dst[col + kx_lo..col + kx_hi]
                    .copy_from_slice(&src[sbase..sbase + kx_hi - kx_lo]);
            }
        }
    };

    let pool = current();
    let rows_per_chunk = if rows * ckk < crate::PAR_THRESHOLD || pool.threads() == 1 {
        rows.max(1)
    } else {
        rows.div_ceil(pool.threads() * 2).max(1)
    };
    par_chunks_mut(&pool, out, rows_per_chunk * ckk, |start, chunk| {
        let row0 = start / ckk;
        for (r, dst) in chunk.chunks_mut(ckk).enumerate() {
            fill_row(row0 + r, dst);
        }
    });
}

/// Folds a column-matrix gradient `[N·OH·OW, C·KH·KW]` back into an image
/// gradient `[N, C, H, W]`, summing overlapping contributions (the adjoint of
/// [`im2col`]).
pub fn col2im(cols: &Tensor, n: usize, g: &Conv2dGeom) -> Tensor {
    g.validate();
    let (oh, ow) = (g.oh(), g.ow());
    let ckk = g.c * g.kh * g.kw;
    assert_eq!(cols.shape(), &[n * oh * ow, ckk], "col2im shape mismatch");
    // Overlapping windows write to shared pixels, so col2im stays serial;
    // the buffer still comes from (and returns to) the recycling pool.
    let mut out = Buffer::zeroed(n * g.c * g.h * g.w);
    fold_cols(cols.as_slice(), n, g, &mut out);
    Tensor::from_buffer(out, &[n, g.c, g.h, g.w])
}

/// Slice-level [`col2im`] into a caller-owned buffer (`N·C·H·W` elements):
/// zero-fills `out`, then folds with the exact serial scatter `col2im` uses.
pub fn col2im_into(cols: &[f32], n: usize, g: &Conv2dGeom, out: &mut [f32]) {
    g.validate();
    assert_eq!(cols.len(), n * g.oh() * g.ow() * g.c * g.kh * g.kw, "col2im_into cols length");
    assert_eq!(out.len(), n * g.c * g.h * g.w, "col2im_into out length");
    out.fill(0.0);
    fold_cols(cols, n, g, out);
}

/// The shared fold kernel behind [`col2im`] / [`col2im_into`]: accumulates
/// into `out`, which must be zeroed on entry.
fn fold_cols(src: &[f32], n: usize, g: &Conv2dGeom, out: &mut [f32]) {
    let (oh, ow) = (g.oh(), g.ow());
    let ckk = g.c * g.kh * g.kw;

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

#[cfg(test)]
mod tests {
    use super::*;
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

    proptest! {
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
