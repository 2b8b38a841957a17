//! Convolutional ops: Conv2d (via im2col), 2×2 max pooling, global average
//! pooling, and training-mode batch normalisation.
//!
//! Feature maps are `[N, C, H, W]` row-major throughout.

use crate::graph::{Graph, Op, Var};
use crate::opk::{self, Mode};
use legw_tensor::{col2im, im2col, Conv2dGeom, Tensor};

impl Graph {
    /// 2-D convolution of `x [N,C,H,W]` with weight `w [OC, C·KH·KW]`,
    /// producing `[N, OC, OH, OW]`. Bias, if any, is added by the layer via
    /// a separate channel-affine step.
    pub fn conv2d(&mut self, x: Var, w: Var, geom: Conv2dGeom) -> Var {
        let xv = self.value(x);
        assert_eq!(xv.ndim(), 4, "conv2d input must be [N,C,H,W]");
        let n = xv.dim(0);
        let wv = self.value(w);
        assert_eq!(wv.dim(1), geom.c * geom.kh * geom.kw, "weight columns must be C·KH·KW");
        let oc = wv.dim(0);
        let cols = im2col(xv, &geom);
        let out2 = cols.matmul_t(wv); // [N·OH·OW, OC]
        let (oh, ow) = (geom.oh(), geom.ow());
        let mut out = vec![0.0f32; n * oc * oh * ow];
        opk::to_nchw(out2.as_slice(), n, oc, oh, ow, &mut out);
        let v = Tensor::from_vec(out, &[n, oc, oh, ow]);
        let rg = self.requires(x) || self.requires(w);
        self.push(v, rg, Op::Conv2d { x, w, geom, batch: n, cols })
    }

    /// 2×2 max pooling with stride 2 on `[N,C,H,W]` (H, W must be even).
    pub fn max_pool_2x2(&mut self, x: Var) -> Var {
        let xv = self.value(x);
        assert_eq!(xv.ndim(), 4);
        let (n, c, h, w) = (xv.dim(0), xv.dim(1), xv.dim(2), xv.dim(3));
        assert!(h % 2 == 0 && w % 2 == 0, "max_pool_2x2 needs even H,W, got {h}x{w}");
        let (oh, ow) = (h / 2, w / 2);
        let mut out = vec![0.0f32; n * c * oh * ow];
        let mut argmax = vec![0u32; n * c * oh * ow];
        opk::max_pool_fwd(xv.as_slice(), n * c, h, w, &mut out, &mut argmax);
        let v = Tensor::from_vec(out, &[n, c, oh, ow]);
        let rg = self.requires(x);
        self.push(v, rg, Op::MaxPool2x2 { x, argmax })
    }

    /// Global average pooling `[N,C,H,W] → [N,C]`.
    pub fn global_avg_pool(&mut self, x: Var) -> Var {
        let xv = self.value(x);
        assert_eq!(xv.ndim(), 4);
        let (n, c, hw) = (xv.dim(0), xv.dim(1), xv.dim(2) * xv.dim(3));
        let mut out = vec![0.0f32; n * c];
        opk::gap_fwd(xv.as_slice(), hw, &mut out);
        let v = Tensor::from_vec(out, &[n, c]);
        let rg = self.requires(x);
        self.push(v, rg, Op::GlobalAvgPool { x, hw })
    }

    /// Training-mode batch normalisation over `(N,H,W)` per channel with
    /// affine parameters `gamma [C]`, `beta [C]`.
    ///
    /// Returns the normalised tensor; also exposes the batch statistics via
    /// the return of [`Graph::batch_norm_stats`] for running-average updates.
    pub fn batch_norm(&mut self, x: Var, gamma: Var, beta: Var, eps: f32) -> Var {
        let xv = self.value(x);
        assert_eq!(xv.ndim(), 4, "batch_norm input must be [N,C,H,W]");
        let (n, c, hw) = (xv.dim(0), xv.dim(1), xv.dim(2) * xv.dim(3));
        assert_eq!(self.value(gamma).shape(), &[c]);
        assert_eq!(self.value(beta).shape(), &[c]);
        let src = xv.as_slice();

        let (mut mean, mut var) = (vec![0.0f64; c], vec![0.0f64; c]);
        opk::bn_stats(src, [n, c, hw], &mut mean, &mut var);
        let mut inv_std = vec![0.0f32; c];
        let mut xh = vec![0.0f32; src.len()];
        let mut out = vec![0.0f32; src.len()];
        opk::bn_fwd(
            src,
            [n, c, hw],
            (&mean, &var),
            eps,
            self.value(gamma).as_slice(),
            self.value(beta).as_slice(),
            &mut inv_std,
            &mut xh,
            &mut out,
        );
        let x_hat = Tensor::from_vec(xh, xv.shape());
        let v = Tensor::from_vec(out, xv.shape());
        let rg = self.requires(x) || self.requires(gamma) || self.requires(beta);
        self.push(
            v,
            rg,
            Op::BatchNorm {
                x,
                gamma,
                beta,
                x_hat,
                inv_std: Tensor::from_vec(inv_std, &[c]),
                eps,
            },
        )
    }

    /// Per-channel batch mean and (biased) variance of `[N,C,H,W]` — what a
    /// layer needs to maintain running statistics for inference.
    pub fn batch_norm_stats(x: &Tensor) -> (Vec<f32>, Vec<f32>) {
        let (n, c, hw) = (x.dim(0), x.dim(1), x.dim(2) * x.dim(3));
        let (mut mean, mut var) = (vec![0.0f64; c], vec![0.0f64; c]);
        opk::bn_stats(x.as_slice(), [n, c, hw], &mut mean, &mut var);
        (
            mean.into_iter().map(|x| x as f32).collect(),
            var.into_iter().map(|x| x as f32).collect(),
        )
    }

    /// Inference-time channel affine `y[n,c,h,w] = x · scale[c] + shift[c]`
    /// with constant (non-learned) scale/shift — used by BatchNorm in eval
    /// mode with running statistics folded into `scale`/`shift`.
    pub fn channel_affine(&mut self, x: Var, scale: &[f32], shift: &[f32]) -> Var {
        let xv = self.value(x);
        assert_eq!(xv.ndim(), 4);
        let (n, c, h, w) = (xv.dim(0), xv.dim(1), xv.dim(2), xv.dim(3));
        assert_eq!(scale.len(), c);
        assert_eq!(shift.len(), c);
        let hw = h * w;
        let shape = xv.shape().to_vec();
        let src = xv.as_slice();
        // Two tape nodes rather than one fused op: a Dropout (multiply by
        // the expanded scale mask) followed by an Add with a constant
        // shift leaf. Values and gradients are bit-identical to the fused
        // form (mul then add, separately rounded, as before) — but each
        // node now replays exactly under plan capture, where `DropoutF`
        // recomputes `x · mask` and would silently drop a fused `+ shift`.
        let mut scaled = vec![0.0f32; src.len()];
        let mut mask = vec![0.0f32; src.len()];
        let mut shift_full = vec![0.0f32; src.len()];
        for ni in 0..n {
            for ci in 0..c {
                let base = (ni * c + ci) * hw;
                for k in 0..hw {
                    scaled[base + k] = src[base + k] * scale[ci];
                }
                mask[base..base + hw].iter_mut().for_each(|v| *v = scale[ci]);
                shift_full[base..base + hw].iter_mut().for_each(|v| *v = shift[ci]);
            }
        }
        let rg = self.requires(x);
        let scaled = self.push(
            Tensor::from_vec(scaled, &shape),
            rg,
            Op::Dropout(x, Tensor::from_vec(mask, &shape)),
        );
        // Pushed directly (not via `Graph::input`) so the shift is captured
        // as a plan constant, not a positional replay input.
        let sh = self.push(Tensor::from_vec(shift_full, &shape), false, Op::Leaf);
        self.add(scaled, sh)
    }

    pub(crate) fn backward_conv(&mut self, op: &Op, _v: Var, up: &Tensor) {
        match op {
            Op::Conv2d { x, w, geom, batch, cols } => {
                let (oc, oh, ow) = (up.dim(1), up.dim(2), up.dim(3));
                let mut up2 = vec![0.0f32; up.numel()];
                opk::from_nchw(up.as_slice(), *batch, oc, oh, ow, &mut up2);
                let up2 = Tensor::from_vec(up2, &[batch * oh * ow, oc]);
                if self.requires(*w) {
                    // dW = up2ᵀ · cols → [OC, CKK]
                    let dw = up2.t_matmul(cols);
                    self.accumulate(*w, dw);
                }
                if self.requires(*x) {
                    let dcols = up2.matmul(self.value(*w)); // [N·OH·OW, CKK]
                    let dx = col2im(&dcols, *batch, geom);
                    self.accumulate(*x, dx);
                }
            }
            Op::MaxPool2x2 { x, argmax } => {
                let xv = self.value(*x);
                let mut dx = vec![0.0f32; xv.numel()];
                opk::max_pool_bwd(&mut dx, Mode::Store, &mut [], up.as_slice(), argmax);
                self.accumulate(*x, Tensor::from_vec(dx, xv.shape()));
            }
            Op::GlobalAvgPool { x, hw } => {
                let xv = self.value(*x);
                let mut dx = vec![0.0f32; xv.numel()];
                opk::gap_bwd(&mut dx, Mode::Store, up.as_slice(), *hw);
                self.accumulate(*x, Tensor::from_vec(dx, xv.shape()));
            }
            Op::BatchNorm { x, gamma, beta, x_hat, inv_std, eps: _ } => {
                let xv = self.value(*x).clone();
                let (n, c, hw) = (xv.dim(0), xv.dim(1), xv.dim(2) * xv.dim(3));
                let (mut sum_up, mut sum_up_xh) = (vec![0.0f64; c], vec![0.0f64; c]);
                opk::bn_bwd_sums(up.as_slice(), x_hat.as_slice(), c, hw, &mut sum_up, &mut sum_up_xh);
                if self.requires(*gamma) {
                    let dg: Vec<f32> = sum_up_xh.iter().map(|&v| v as f32).collect();
                    self.accumulate(*gamma, Tensor::from_vec(dg, &[c]));
                }
                if self.requires(*beta) {
                    let db: Vec<f32> = sum_up.iter().map(|&v| v as f32).collect();
                    self.accumulate(*beta, Tensor::from_vec(db, &[c]));
                }
                if self.requires(*x) {
                    let mut dx = vec![0.0f32; xv.numel()];
                    opk::bn_bwd_dx(
                        &mut dx,
                        Mode::Store,
                        up.as_slice(),
                        x_hat.as_slice(),
                        [n, c, hw],
                        self.value(*gamma).as_slice(),
                        inv_std.as_slice(),
                        (&sum_up, &sum_up_xh),
                    );
                    self.accumulate(*x, Tensor::from_vec(dx, xv.shape()));
                }
            }
            _ => unreachable!("backward_conv called with non-conv op"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::grad_check;

    fn img(n: usize, c: usize, h: usize, w: usize, f: impl Fn(usize) -> f32) -> Tensor {
        Tensor::from_vec((0..n * c * h * w).map(f).collect(), &[n, c, h, w])
    }

    #[test]
    fn conv2d_identity_kernel() {
        // 1x1 kernel with weight 1 reproduces the input channel
        let mut g = Graph::new();
        let x = g.input(img(1, 1, 3, 3, |i| i as f32));
        let w = g.param(Tensor::ones(&[1, 1]));
        let geom = Conv2dGeom { c: 1, h: 3, w: 3, kh: 1, kw: 1, stride: 1, pad: 0 };
        let y = g.conv2d(x, w, geom);
        assert_eq!(g.value(y).shape(), &[1, 1, 3, 3]);
        assert_eq!(g.value(y).as_slice(), g.value(x).as_slice());
    }

    #[test]
    fn conv2d_grad_check() {
        let geom = Conv2dGeom { c: 2, h: 4, w: 4, kh: 3, kw: 3, stride: 1, pad: 1 };
        grad_check(
            &[
                img(2, 2, 4, 4, |i| ((i * 7 % 13) as f32) * 0.1 - 0.6),
                Tensor::from_vec((0..3 * 18).map(|i| ((i * 5 % 11) as f32) * 0.1 - 0.5).collect(), &[3, 18]),
            ],
            |g, vs| {
                let y = g.conv2d(vs[0], vs[1], geom);
                let t = g.tanh(y);
                g.mean_all(t)
            },
        );
    }

    #[test]
    fn conv2d_strided_grad_check() {
        let geom = Conv2dGeom { c: 1, h: 6, w: 6, kh: 3, kw: 3, stride: 2, pad: 1 };
        grad_check(
            &[
                img(1, 1, 6, 6, |i| ((i * 3 % 17) as f32) * 0.1 - 0.8),
                Tensor::from_vec((0..2 * 9).map(|i| ((i * 7 % 5) as f32) * 0.2 - 0.4).collect(), &[2, 9]),
            ],
            |g, vs| {
                let y = g.conv2d(vs[0], vs[1], geom);
                g.sum_all(y)
            },
        );
    }

    #[test]
    fn max_pool_forward_and_grad() {
        let mut g = Graph::new();
        let x = g.param(Tensor::from_vec(
            vec![1., 2., 3., 4., 5., 6., 7., 8., 9., 10., 11., 12., 13., 14., 15., 16.],
            &[1, 1, 4, 4],
        ));
        let p = g.max_pool_2x2(x);
        assert_eq!(g.value(p).shape(), &[1, 1, 2, 2]);
        assert_eq!(g.value(p).as_slice(), &[6., 8., 14., 16.]);
        let s = g.sum_all(p);
        g.backward(s);
        let dx = g.grad(x).unwrap();
        // gradient lands only on the max positions
        assert_eq!(dx.as_slice()[5], 1.0);
        assert_eq!(dx.as_slice()[7], 1.0);
        assert_eq!(dx.as_slice()[0], 0.0);
    }

    #[test]
    fn max_pool_grad_check() {
        grad_check(&[img(1, 2, 4, 4, |i| ((i * 31 % 97) as f32) * 0.07 - 3.0)], |g, vs| {
            let p = g.max_pool_2x2(vs[0]);
            let t = g.tanh(p);
            g.sum_all(t)
        });
    }

    #[test]
    fn global_avg_pool_grad_check() {
        grad_check(&[img(2, 3, 2, 2, |i| (i as f32) * 0.3 - 1.0)], |g, vs| {
            let p = g.global_avg_pool(vs[0]);
            let sq = g.mul(p, p);
            g.sum_all(sq)
        });
    }

    #[test]
    fn batch_norm_normalises() {
        let mut g = Graph::new();
        let x = g.input(img(4, 2, 2, 2, |i| (i as f32) * 1.7 - 5.0));
        let gamma = g.param(Tensor::ones(&[2]));
        let beta = g.param(Tensor::zeros(&[2]));
        let y = g.batch_norm(x, gamma, beta, 1e-5);
        // per-channel mean ≈ 0, var ≈ 1
        let yv = g.value(y);
        let (mean, var) = Graph::batch_norm_stats(yv);
        for c in 0..2 {
            assert!(mean[c].abs() < 1e-4, "mean {}", mean[c]);
            assert!((var[c] - 1.0).abs() < 1e-3, "var {}", var[c]);
        }
    }

    #[test]
    fn batch_norm_grad_check() {
        grad_check(
            &[
                img(3, 2, 2, 2, |i| ((i * 13 % 7) as f32) * 0.4 - 1.0),
                Tensor::from_vec(vec![1.2, 0.8], &[2]),
                Tensor::from_vec(vec![-0.1, 0.3], &[2]),
            ],
            |g, vs| {
                let y = g.batch_norm(vs[0], vs[1], vs[2], 1e-5);
                let t = g.tanh(y);
                g.mean_all(t)
            },
        );
    }

    #[test]
    fn channel_affine_applies_running_stats() {
        let mut g = Graph::new();
        let x = g.param(img(1, 2, 2, 2, |i| i as f32));
        let y = g.channel_affine(x, &[2.0, 0.5], &[1.0, -1.0]);
        let yv = g.value(y);
        assert_eq!(yv.as_slice()[0], 0.0 * 2.0 + 1.0);
        assert_eq!(yv.as_slice()[4], 4.0 * 0.5 - 1.0);
        let s = g.sum_all(y);
        g.backward(s);
        let dx = g.grad(x).unwrap();
        assert_eq!(dx.as_slice()[0], 2.0);
        assert_eq!(dx.as_slice()[4], 0.5);
    }
}
