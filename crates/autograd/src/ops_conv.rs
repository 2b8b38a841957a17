//! Convolutional ops: Conv2d (GEMMs packed straight from the NCHW maps),
//! 2×2 max pooling, global average pooling, training-mode batch
//! normalisation and its eval-mode form, a per-channel affine map.
//!
//! Feature maps are `[N, C, H, W]` row-major throughout.

use crate::graph::{Graph, Op, Var};
use crate::ops_basic::up;
use crate::opk::{self, apply, store_or_add};
use crate::table::{flags, Attr, BnStats, Detour, Entry, Role, State};
use legw_tensor::{conv2d_grad_w_into, conv2d_grad_x_into, conv2d_into, Conv2dGeom};

/// `[batch, oc]`, the geometry in the state: the convolution straight from
/// the NCHW input into the NCHW output, with no column matrix.
static CONV: Entry = Entry::new("ConvF", |io| {
    let [b, oc, ..] = io.a.n;
    conv2d_into(io.src.get(0), io.src.get(1), b, oc, &geom(&io.st), io.out[0]);
})
.grad(|g, n, u| {
    let [x, w] = [n.src[0], n.src[1]];
    let to: Vec<Var> = [w, x].into_iter().filter(|&v| g.requires(v)).collect();
    let a = Attr::n(&[n.a.n[0], n.a.n[1], flags(&[g.requires(w), g.requires(x)])]);
    g.contrib(&CONV_G, &[up(u), w, x], &to, a, n.st);
});

/// A convolution's geometry, from its [`Io::st`](crate::table::Io::st).
fn geom(st: &Option<&mut State>) -> Conv2dGeom {
    *st.as_deref().and_then(|s| s.geom.as_deref()).expect("conv without its geometry")
}

/// `[nc, h, w]`: 2×2 stride-2 max pooling, recording each window's argmax.
static MAX_POOL: Entry = Entry::new("MaxPoolF", |io| {
    let [nc, h, w, ..] = io.a.n;
    let st = io.st.as_deref_mut().expect("max pool without its argmax");
    opk::max_pool_fwd(io.src.get(0), nc, h, w, io.out[0], &mut st.argmax);
})
.grad(|g, n, u| g.contrib(&MAX_POOL_G, &[up(u)], &n.src, Attr::default(), n.st));

/// `[hw]`: the mean of each plane.
static GAP: Entry = Entry::new("GapF", |io| opk::gap_fwd(io.src.get(0), io.a.n[0], io.out[0]))
    .grad(|g, n, u| g.contrib(&GAP_G, &[up(u)], &n.src, n.a, None));

/// `[n, c, hw]`, `s = eps`: batch statistics in f64, then `γ·x̂ + β`.
static BN: Entry = Entry::new("BnF", |io| {
    let ([n, c, hw, ..], eps) = (io.a.n, io.a.s);
    let (x, gm, bt) = (io.src.get(0), io.src.get(1), io.src.get(2));
    let st = io.st.as_deref_mut().expect("batch norm without its statistics");
    let r = st.bn.as_deref_mut().expect("batch norm without its statistics");
    opk::bn_stats(x, [n, c, hw], &mut r.mean, &mut r.var);
    let stats = (&r.mean[..], &r.var[..]);
    opk::bn_fwd(x, [n, c, hw], stats, eps, gm, bt, &mut r.inv_std, io.buf, io.out[0]);
    apply(&mut r.mean_f32, opk::Mode::Store, |ci| r.mean[ci] as f32);
    apply(&mut r.var_f32, opk::Mode::Store, |ci| r.var[ci] as f32);
})
.grad(|g, n, u| {
    let [x, gamma, beta] = [n.src[0], n.src[1], n.src[2]];
    let to: Vec<Var> = [gamma, beta, x].into_iter().filter(|&v| g.requires(v)).collect();
    let flags = flags(&[g.requires(gamma), g.requires(beta), g.requires(x)]);
    let a = Attr { n: [n.a.n[0], n.a.n[1], n.a.n[2], flags, 0], ..n.a };
    g.contrib(&BN_G, &[up(u), gamma], &to, a, n.st);
})
.role(Role::Bn);

/// `[c, hw]`: eval-mode BatchNorm, `x · scale[c] + shift[c]` over the
/// planes of `x`, the product rounded before the add; `scale` and `shift`
/// are `[C]` constants.
static CHANNEL_AFFINE: Entry = Entry::new("ChannelAffineF", |io| {
    let (x, scale, shift) = (io.src.get(0), io.src.get(1), io.src.get(2));
    opk::channel_map(io.out[0], opk::Mode::Store, x, [io.a.n[0], io.a.n[1]], |ci| {
        let (s, b) = (scale[ci], shift[ci]);
        move |v| v * s + b
    });
})
.grad(|g, n, u| g.contrib(&CHANNEL_AFFINE_G, &[up(u), n.src[1]], &n.src[..1], n.a, None));

/// ChannelAffineF's input gradient: `dx (+)= up · scale[c]`.
static CHANNEL_AFFINE_G: Entry = Entry::new("ChannelAffineG", |io| {
    let (u, scale) = (io.src.get(0), io.src.get(1));
    opk::channel_map(io.out[0], io.mode[0], u, [io.a.n[0], io.a.n[1]], |ci| {
        let s = scale[ci];
        move |v| v * s
    });
});

/// `[batch, oc, flags]`: ConvF's backward from the NCHW `up`, the weight
/// and ConvF's input: `dW` (flag 1), reduced over every output pixel, and
/// `dx` (flag 2), each image's `Wᵀ · up` added straight into a padded copy
/// of it.
static CONV_G: Entry = Entry::new("ConvG", |io| {
    let ([b, oc, flags, ..], src) = (io.a.n, io.src);
    let (g, up) = (geom(&io.st), src.get(0));
    let mut j = 0;
    if flags & 1 != 0 {
        let x = src.get(2);
        store_or_add(io.out[0], io.mode[0], io.scratch, |o| conv2d_grad_w_into(x, up, b, oc, &g, o));
        j = 1;
    }
    if flags & 2 != 0 {
        let w = src.get(1);
        store_or_add(io.out[j], io.mode[j], io.scratch, |o| conv2d_grad_x_into(up, w, b, oc, &g, o));
    }
})
.detour(Detour::Each);

static MAX_POOL_G: Entry = Entry::new("MaxPoolG", |io| {
    let st = io.st.as_deref().expect("max pool without its argmax");
    opk::max_pool_bwd(io.out[0], io.mode[0], io.scratch, io.src.get(0), &st.argmax);
})
.detour(Detour::Each);

static GAP_G: Entry =
    Entry::new("GapG", |io| opk::gap_bwd(io.out[0], io.mode[0], io.src.get(0), io.a.n[0]));

/// `[n, c, hw, flags]`: the per-channel sums, then whichever of `dγ`
/// (flag 1), `dβ` (2) and `dx` (4) are wanted, in that order.
static BN_G: Entry = Entry::new("BnG", |io| {
    let ([n, c, hw, flags, ..], u, gm) = (io.a.n, io.src.get(0), io.src.get(1));
    let st = io.st.as_deref_mut().expect("batch norm without its statistics");
    let r = st.bn.as_deref_mut().expect("batch norm without its statistics");
    let xh = &*io.buf;
    opk::bn_bwd_sums(u, xh, c, hw, &mut r.sum_up, &mut r.sum_up_xh);
    let mut j = 0;
    for (bit, sums) in [(1, &r.sum_up_xh), (2, &r.sum_up)] {
        if flags & bit != 0 {
            apply(io.out[j], io.mode[j], |ci| sums[ci] as f32);
            j += 1;
        }
    }
    if flags & 4 != 0 {
        let sums = (&r.sum_up[..], &r.sum_up_xh[..]);
        opk::bn_bwd_dx(io.out[j], io.mode[j], u, xh, [n, c, hw], gm, &r.inv_std, sums);
    }
});

impl Graph {
    /// 2-D convolution of `x [N,C,H,W]` with weight `w [OC, C·KH·KW]`,
    /// producing `[N, OC, OH, OW]`. Bias, if any, is added by the layer via
    /// a separate channel-affine step.
    pub fn conv2d(&mut self, x: Var, w: Var, geom: Conv2dGeom) -> Var {
        let (xs, ws) = (self.shape(x), self.shape(w));
        assert_eq!(xs.len(), 4, "conv2d input must be [N,C,H,W]");
        assert_eq!(ws[1], geom.c * geom.kh * geom.kw, "weight columns must be C·KH·KW");
        let (n, oc) = (xs[0], ws[0]);
        let st = State { geom: Some(Box::new(geom)), ..State::default() };
        self.record(&CONV, &[x, w], &[&[n, oc, geom.oh(), geom.ow()]], Attr::n(&[n, oc]), Some(st))
    }

    /// 2×2 max pooling with stride 2 on `[N,C,H,W]` (H, W must be even).
    pub fn max_pool_2x2(&mut self, x: Var) -> Var {
        let s = self.shape(x);
        assert_eq!(s.len(), 4);
        let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
        assert!(h % 2 == 0 && w % 2 == 0, "max_pool_2x2 needs even H,W, got {h}x{w}");
        let st = State { argmax: vec![0; n * c * (h / 2) * (w / 2)], ..State::default() };
        self.record(&MAX_POOL, &[x], &[&[n, c, h / 2, w / 2]], Attr::n(&[n * c, h, w]), Some(st))
    }

    /// Global average pooling `[N,C,H,W] → [N,C]`.
    pub fn global_avg_pool(&mut self, x: Var) -> Var {
        let s = self.shape(x);
        assert_eq!(s.len(), 4);
        self.record(&GAP, &[x], &[&[s[0], s[1]]], Attr::n(&[s[2] * s[3]]), None)
    }

    /// Training-mode batch normalisation over `(N,H,W)` per channel with
    /// affine parameters `gamma [C]`, `beta [C]`.
    ///
    /// Returns the normalised tensor; [`Graph::bn_batch_stats`] gives the
    /// batch statistics the op computed, for running-average updates.
    pub fn batch_norm(&mut self, x: Var, gamma: Var, beta: Var, eps: f32) -> Var {
        let s = self.shape(x);
        assert_eq!(s.len(), 4, "batch_norm input must be [N,C,H,W]");
        let (n, c, hw) = (s[0], s[1], s[2] * s[3]);
        assert_eq!(self.shape(gamma), [c]);
        assert_eq!(self.shape(beta), [c]);
        let st = State { bn: Some(BnStats::zeros(c)), ..State::buf(n * c * hw) };
        let a = Attr { s: eps, ..Attr::n(&[n, c, hw]) };
        self.record(&BN, &[x, gamma, beta], &[&s], a, Some(st))
    }

    /// Batch statistics `(mean, var)` of every [`Graph::batch_norm`] op on
    /// the tape, in recording order: the list [`crate::Plan::bn_batch_stats`]
    /// gives after a replay.
    pub fn bn_batch_stats(&self) -> Vec<(&[f32], &[f32])> {
        let bns = self.nodes.iter().filter_map(|n| match &n.op {
            Op::K(ins) if ins.k.role == Role::Bn => ins.st,
            _ => None,
        });
        bns.map(|s| self.states[s as usize].bn_batch_stats()).collect()
    }

    /// Inference-time channel affine `y[n,c,h,w] = x · scale[c] + shift[c]`
    /// with non-learned `[C]` operands `scale` and `shift` — used by
    /// BatchNorm in eval mode with the running statistics folded into them.
    /// The operands are values like any other: a plan reads them where the
    /// tape got them, so when they are [`Graph::input`]s every replay is
    /// given its own.
    pub fn channel_affine(&mut self, x: Var, scale: Var, shift: Var) -> Var {
        let s = self.shape(x);
        assert_eq!(s.len(), 4);
        assert_eq!(self.shape(scale), [s[1]]);
        assert_eq!(self.shape(shift), [s[1]]);
        let a = Attr::n(&[s[1], s[2] * s[3]]);
        self.record(&CHANNEL_AFFINE, &[x, scale, shift], &[&s], a, None)
    }

    /// Per-channel batch mean and (biased) variance of `[N,C,H,W]`, the
    /// statistics a [`Graph::batch_norm`] op computes over its input: the
    /// oracle the tests hold [`Graph::bn_batch_stats`] to.
    #[cfg(test)]
    pub(crate) fn batch_norm_stats(x: &legw_tensor::Tensor) -> (Vec<f32>, Vec<f32>) {
        let (n, c, hw) = (x.dim(0), x.dim(1), x.dim(2) * x.dim(3));
        let (mut mean, mut var) = (vec![0.0f64; c], vec![0.0f64; c]);
        opk::bn_stats(x.as_slice(), [n, c, hw], &mut mean, &mut var);
        (
            mean.into_iter().map(|x| x as f32).collect(),
            var.into_iter().map(|x| x as f32).collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::grad_check;
    use legw_tensor::Tensor;

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
        let scale = g.input(Tensor::from_vec(vec![2.0, 0.5], &[2]));
        let shift = g.input(Tensor::from_vec(vec![1.0, -1.0], &[2]));
        let y = g.channel_affine(x, scale, shift);
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
