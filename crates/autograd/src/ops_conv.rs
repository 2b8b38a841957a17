//! Convolutional ops: Conv2d (GEMMs packed straight from the NCHW maps),
//! 2×2 max pooling, global average pooling, training-mode batch
//! normalisation and its eval-mode form, a per-channel affine map.
//!
//! Feature maps are `[N, C, H, W]` row-major throughout.

use crate::graph::{Graph, Op, Var};
use crate::ops_basic::up;
use crate::opk::{self, apply, store_or_add};
use crate::table::{Attr, BnStats, Detour, Entry, Role, State};
use legw_tensor::{conv2d_grad_w_into, conv2d_grad_x_into, conv2d_into, Conv2dGeom};

/// `Conv`: the convolution straight from the NCHW input into the NCHW
/// output, with no column matrix.
static CONV: Entry = Entry::new("ConvF", |io| {
    let Attr::Conv { b, oc, geom, .. } = *io.a else { unreachable!() };
    conv2d_into(io.src.get(0), io.src.get(1), b, oc, &geom, io.out[0]);
})
.grad(|g, n, u| {
    let (Attr::Conv { b, oc, geom, .. }, x, w) = (n.a, n.src[0], n.src[1]) else { unreachable!() };
    let to: Vec<Var> = [w, x].into_iter().filter(|&v| g.requires(v)).collect();
    let a = Attr::Conv { b, oc, geom, dw: g.requires(w), dx: g.requires(x) };
    g.contrib(&CONV_G, &[up(u), w, x], &to, a, None);
});

/// `Pool`: 2×2 stride-2 max pooling, recording each window's argmax.
static MAX_POOL: Entry = Entry::new("MaxPoolF", |io| {
    let Attr::Pool { nc, h, w } = *io.a else { unreachable!() };
    let st = io.st.as_deref_mut().expect("max pool without its argmax");
    opk::max_pool_fwd(io.src.get(0), nc, h, w, io.out[0], &mut st.argmax);
})
.grad(|g, n, u| g.contrib(&MAX_POOL_G, &[up(u)], &n.src, Attr::None, n.st));

/// `Channels`: the mean of each plane.
static GAP: Entry = Entry::new("GapF", |io| {
    let Attr::Channels { hw, .. } = *io.a else { unreachable!() };
    opk::gap_fwd(io.src.get(0), hw, io.out[0]);
})
.grad(|g, n, u| g.contrib(&GAP_G, &[up(u)], &n.src, n.a, None));

/// `Bn`: batch statistics in f64, then `γ·x̂ + β`.
static BN: Entry = Entry::new("BnF", |io| {
    let Attr::Bn { n, c, hw, eps, .. } = *io.a else { unreachable!() };
    let (x, gm, bt) = (io.src.get(0), io.src.get(1), io.src.get(2));
    let st = io.st.as_deref_mut().expect("batch norm without its statistics");
    let r = st.bn.as_deref_mut().expect("batch norm without its statistics");
    opk::bn_stats(x, [n, c, hw], &mut r.mean, &mut r.var);
    let stats = (&r.mean[..], &r.var[..]);
    opk::bn_fwd(x, [n, c, hw], stats, eps, gm, bt, &mut r.inv_std, io.buf, io.out[0]);
    apply(&mut r.mean_f32, opk::Mode::Store, |ci| r.mean[ci] as f32);
    apply(&mut r.var_f32, opk::Mode::Store, |ci| r.var[ci] as f32);
})
.grad(|g, ins, u| {
    let [x, gamma, beta] = [ins.src[0], ins.src[1], ins.src[2]];
    let Attr::Bn { n, c, hw, eps, .. } = ins.a else { unreachable!() };
    let to: Vec<Var> = [gamma, beta, x].into_iter().filter(|&v| g.requires(v)).collect();
    let (dgamma, dbeta, dx) = (g.requires(gamma), g.requires(beta), g.requires(x));
    g.contrib(&BN_G, &[up(u), gamma], &to, Attr::Bn { n, c, hw, eps, dgamma, dbeta, dx }, ins.st);
})
.role(Role::Bn);

/// `Channels`: eval-mode BatchNorm, `x · scale[c] + shift[c]` over the
/// planes of `x`, the product rounded before the add; `scale` and `shift`
/// are `[C]` constants.
static CHANNEL_AFFINE: Entry = Entry::new("ChannelAffineF", |io| {
    let Attr::Channels { c, hw } = *io.a else { unreachable!() };
    let (x, scale, shift) = (io.src.get(0), io.src.get(1), io.src.get(2));
    opk::channel_map(io.out[0], opk::Mode::Store, x, [c, hw], |ci| {
        let (s, b) = (scale[ci], shift[ci]);
        move |v| v * s + b
    });
})
.grad(|g, n, u| g.contrib(&CHANNEL_AFFINE_G, &[up(u), n.src[1]], &n.src[..1], n.a, None));

/// ChannelAffineF's input gradient: `dx (+)= up · scale[c]`.
static CHANNEL_AFFINE_G: Entry = Entry::new("ChannelAffineG", |io| {
    let Attr::Channels { c, hw } = *io.a else { unreachable!() };
    let (u, scale) = (io.src.get(0), io.src.get(1));
    opk::channel_map(io.out[0], io.mode[0], u, [c, hw], |ci| {
        let s = scale[ci];
        move |v| v * s
    });
});

/// `Conv`: ConvF's backward from the NCHW `up`, the weight and ConvF's
/// input: `dW` if `dw`, reduced over every output pixel, and `dx` if `dx`,
/// each image's `Wᵀ · up` added straight into a padded copy of it.
static CONV_G: Entry = Entry::new("ConvG", |io| {
    let (Attr::Conv { b, oc, geom: g, dw, dx }, u) = (*io.a, io.src.get(0)) else { unreachable!() };
    let mut j = 0;
    if dw {
        let x = io.src.get(2);
        store_or_add(io.out[0], io.mode[0], io.scratch, |o| conv2d_grad_w_into(x, u, b, oc, &g, o));
        j = 1;
    }
    if dx {
        let w = io.src.get(1);
        store_or_add(io.out[j], io.mode[j], io.scratch, |o| conv2d_grad_x_into(u, w, b, oc, &g, o));
    }
})
.detour(Detour::Each);

static MAX_POOL_G: Entry = Entry::new("MaxPoolG", |io| {
    let st = io.st.as_deref().expect("max pool without its argmax");
    opk::max_pool_bwd(io.out[0], io.mode[0], io.scratch, io.src.get(0), &st.argmax);
})
.detour(Detour::Each);

static GAP_G: Entry = Entry::new("GapG", |io| {
    let Attr::Channels { hw, .. } = *io.a else { unreachable!() };
    opk::gap_bwd(io.out[0], io.mode[0], io.src.get(0), hw);
});

/// `Bn`: the per-channel sums, then whichever of `dγ`, `dβ` and `dx` are
/// wanted, in that order.
static BN_G: Entry = Entry::new("BnG", |io| {
    let Attr::Bn { n, c, hw, dgamma, dbeta, dx, .. } = *io.a else { unreachable!() };
    let (u, gm) = (io.src.get(0), io.src.get(1));
    let st = io.st.as_deref_mut().expect("batch norm without its statistics");
    let r = st.bn.as_deref_mut().expect("batch norm without its statistics");
    let xh = &*io.buf;
    opk::bn_bwd_sums(u, xh, c, hw, &mut r.sum_up, &mut r.sum_up_xh);
    let mut j = 0;
    for (wanted, sums) in [(dgamma, &r.sum_up_xh), (dbeta, &r.sum_up)] {
        if wanted {
            apply(io.out[j], io.mode[j], |ci| sums[ci] as f32);
            j += 1;
        }
    }
    if dx {
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
        let (b, oc) = (xs[0], ws[0]);
        let a = Attr::Conv { b, oc, geom, dw: false, dx: false };
        self.record(&CONV, &[x, w], &[&[b, oc, geom.oh(), geom.ow()]], a, None)
    }

    /// 2×2 max pooling with stride 2 on `[N,C,H,W]` (H, W must be even).
    pub fn max_pool_2x2(&mut self, x: Var) -> Var {
        let s = self.shape(x);
        assert_eq!(s.len(), 4);
        let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
        assert!(h % 2 == 0 && w % 2 == 0, "max_pool_2x2 needs even H,W, got {h}x{w}");
        let st = State { argmax: vec![0; n * c * (h / 2) * (w / 2)], ..State::default() };
        let a = Attr::Pool { nc: n * c, h, w };
        self.record(&MAX_POOL, &[x], &[&[n, c, h / 2, w / 2]], a, Some(st))
    }

    /// Global average pooling `[N,C,H,W] → [N,C]`.
    pub fn global_avg_pool(&mut self, x: Var) -> Var {
        let s = self.shape(x);
        assert_eq!(s.len(), 4);
        self.record(&GAP, &[x], &[&[s[0], s[1]]], Attr::Channels { c: s[1], hw: s[2] * s[3] }, None)
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
        let a = Attr::Bn { n, c, hw, eps, dgamma: false, dbeta: false, dx: false };
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
        let a = Attr::Channels { c: s[1], hw: s[2] * s[3] };
        self.record(&CHANNEL_AFFINE, &[x, scale, shift], &[&s], a, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::grad_check;
    use crate::{CaptureSpec, Feeds, Plan};
    use legw_tensor::Tensor;

    impl Graph {
        /// Per-channel batch mean and (biased) variance of `[N,C,H,W]`, the
        /// statistics a [`Graph::batch_norm`] op computes over its input:
        /// the oracle the tests hold [`Graph::bn_batch_stats`] to.
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

    /// Every non-empty subset of `x`, `w`, `γ`, `β` as parameters, the rest
    /// bound with `g.input`, runs one of `ConvG`'s (`dW`, `dx`) and `BnG`'s
    /// (`dγ`, `dβ`, `dx`) combinations of wanted gradients; each gradient
    /// that exists equals the all-parameter tape's bit for bit, on the eager
    /// tape and on a plan captured from shapes.
    #[test]
    fn conv_and_bn_gradients_of_any_operand_subset_match_all_parameters() {
        let geom = Conv2dGeom { c: 2, h: 4, w: 4, kh: 3, kw: 3, stride: 1, pad: 1 };
        let vals = [
            img(2, 2, 4, 4, |i| ((i * 7 % 13) as f32) * 0.1 - 0.6),
            Tensor::from_vec((0..54).map(|i| ((i * 5 % 11) as f32) * 0.1 - 0.5).collect(), &[3, 18]),
            Tensor::from_vec(vec![1.2, 0.8, 1.1], &[3]),
            Tensor::from_vec(vec![-0.1, 0.3, 0.2], &[3]),
        ];
        let is_param = |mask: usize, i: usize| mask >> i & 1 == 1;
        // Operand `i` is a parameter where bit `i` of `mask` is set.
        let tape = |mut g: Graph, mask: usize| {
            let vs: Vec<Var> = (0..4)
                .map(|i| match is_param(mask, i) {
                    true => g.param(vals[i].clone()),
                    false => g.input(vals[i].clone()),
                })
                .collect();
            let y = g.conv2d(vs[0], vs[1], geom);
            let y = g.batch_norm(y, vs[2], vs[3], 1e-5);
            let t = g.tanh(y);
            let loss = g.mean_all(t);
            g.backward(loss);
            (g, vs, loss)
        };
        let bits = |t: &Tensor| t.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let (all, all_vs, _) = tape(Graph::new(), 0b1111);
        for mask in 1..16 {
            let params: Vec<usize> = (0..4).filter(|&i| is_param(mask, i)).collect();
            let inputs: Vec<usize> = (0..4).filter(|&i| !is_param(mask, i)).collect();
            let (eager, vs, _) = tape(Graph::new(), mask);
            let (shapes, svs, loss) = tape(Graph::shape_only(), mask);
            let spec = CaptureSpec {
                inputs: shapes.input_vars(),
                params: &params.iter().map(|&i| svs[i]).collect::<Vec<_>>(),
                loss: Some(loss),
                outputs: &[],
            };
            let mut plan = Plan::capture(&shapes, &spec);
            let fed = |ids: &[usize]| ids.iter().map(|&i| &vals[i]).collect::<Vec<_>>();
            plan.replay_step(&fed(&inputs), &fed(&params), &Feeds::default());
            for (k, &i) in params.iter().enumerate() {
                let want = bits(all.grad(all_vs[i]).expect("all-parameter gradient"));
                let tape_grad = eager.grad(vs[i]).expect("tape gradient");
                assert_eq!(bits(tape_grad), want, "tape, parameters {mask:04b}, operand {i}");
                let plan_grad = plan.param_grad(k).expect("plan gradient");
                assert_eq!(bits(plan_grad), want, "plan, parameters {mask:04b}, operand {i}");
            }
        }
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
