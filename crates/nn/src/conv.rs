//! Convolution and batch-norm layers for the ResNet experiments.

use crate::param::{Binding, ParamId, ParamSet};
use legw_autograd::{Graph, Var};
use legw_tensor::{Conv2dGeom, Tensor};
use rand::Rng;

/// 2-D convolution layer (no bias — always followed by [`BatchNorm2d`] in
/// the ResNet blocks, as in the reference architecture).
#[derive(Clone)]
pub struct Conv2d {
    /// Kernel `[out_channels, in_channels·kh·kw]`.
    pub w: ParamId,
    geom_template: Conv2dGeom,
    out_channels: usize,
}

impl Conv2d {
    /// Creates a `k×k` convolution with He-normal initialisation.
    /// `geom_template` carries channel/kernel/stride/pad; the spatial size
    /// is filled in per call from the input.
    // The usual (store, rng, name) of every layer constructor plus the
    // five numbers that define a convolution.
    #[allow(clippy::too_many_arguments)]
    pub fn new<R: Rng>(
        ps: &mut ParamSet,
        rng: &mut R,
        name: &str,
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
    ) -> Self {
        let fan_in = in_channels * kernel * kernel;
        let w =
            ps.add(format!("{name}.w"), Tensor::he_normal(rng, &[out_channels, fan_in], fan_in));
        Self {
            w,
            geom_template: Conv2dGeom {
                c: in_channels,
                h: 0,
                w: 0,
                kh: kernel,
                kw: kernel,
                stride,
                pad,
            },
            out_channels,
        }
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Applies the convolution to `x [N,C,H,W]`.
    pub fn forward(&self, g: &mut Graph, b: &mut Binding, ps: &ParamSet, x: Var) -> Var {
        let xs = g.shape(x);
        let mut geom = self.geom_template;
        geom.h = xs[2];
        geom.w = xs[3];
        assert_eq!(xs[1], geom.c, "channel mismatch into conv");
        let w = b.bind(g, ps, self.w);
        g.conv2d(x, w, geom)
    }
}

/// Per-channel batch normalisation with learned affine and running
/// statistics for inference.
#[derive(Clone)]
pub struct BatchNorm2d {
    /// Scale `[C]`, initialised to 1.
    pub gamma: ParamId,
    /// Shift `[C]`, initialised to 0.
    pub beta: ParamId,
    channels: usize,
    eps: f32,
    momentum: f32,
    /// Running mean, updated by [`BatchNorm2d::fold_batch_stats`].
    pub running_mean: Vec<f32>,
    /// Running (biased) variance.
    pub running_var: Vec<f32>,
}

impl BatchNorm2d {
    /// Creates the layer with running stats `(0, 1)`.
    pub fn new(ps: &mut ParamSet, name: &str, channels: usize) -> Self {
        let gamma = ps.add(format!("{name}.gamma"), Tensor::ones(&[channels]));
        let beta = ps.add(format!("{name}.beta"), Tensor::zeros(&[channels]));
        Self {
            gamma,
            beta,
            channels,
            eps: 1e-5,
            momentum: 0.1,
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
        }
    }

    /// Channel count.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Training-mode forward: normalises with the batch statistics, which
    /// the op keeps ([`Graph::bn_batch_stats`]) for
    /// [`BatchNorm2d::fold_batch_stats`]. Reads no running statistic.
    pub fn forward_train(&self, g: &mut Graph, b: &mut Binding, ps: &ParamSet, x: Var) -> Var {
        let gamma = b.bind(g, ps, self.gamma);
        let beta = b.bind(g, ps, self.beta);
        g.batch_norm(x, gamma, beta, self.eps)
    }

    /// Folds one step's batch statistics into the running averages, the
    /// one place training updates them. `batches` holds one `(weight, mean,
    /// var)` per data-parallel shard, weights summing to 1 (example
    /// fractions). Each shard's momentum update `(1−m)·r + m·b` starts from
    /// the same pre-step `r`, and the shards combine by weighted sum in the
    /// order given; with one shard of weight 1 that is the serial update.
    /// The variance average drops the between-shard term, the usual
    /// non-synchronised distributed-BN behaviour.
    pub fn fold_batch_stats(&mut self, batches: &[(f32, &[f32], &[f32])]) {
        let m = self.momentum;
        let step = |r: f32, b: f32| (1.0 - m) * r + m * b;
        for c in 0..self.channels {
            let (mean, var) = (self.running_mean[c], self.running_var[c]);
            self.running_mean[c] = batches.iter().map(|(w, bm, _)| w * step(mean, bm[c])).sum();
            self.running_var[c] = batches.iter().map(|(w, _, bv)| w * step(var, bv[c])).sum();
        }
    }

    /// The eval-mode layer as a per-channel affine: `[scale, shift]`, `[C]`
    /// each, the running statistics folded into gamma and beta. The one
    /// fold: [`BatchNorm2d::forward_eval`] records it as the tape's inputs,
    /// and an inference plan is given it again at every replay.
    pub fn eval_affine(&self, ps: &ParamSet) -> [Tensor; 2] {
        let (gm, bt) = (ps.value(self.gamma).as_slice(), ps.value(self.beta).as_slice());
        let inv = |c: usize| 1.0 / (self.running_var[c] + self.eps).sqrt();
        let scale = (0..self.channels).map(|c| gm[c] * inv(c)).collect();
        let shift = (0..self.channels).map(|c| bt[c] - gm[c] * self.running_mean[c] * inv(c));
        [scale, shift.collect()].map(|v| Tensor::from_vec(v, &[self.channels]))
    }

    /// Inference-mode forward: the running statistics and affine parameters
    /// folded into a per-channel scale and shift ([`BatchNorm2d::eval_affine`]),
    /// which the tape holds as [`Graph::input`]s.
    pub fn forward_eval(&self, g: &mut Graph, ps: &ParamSet, x: Var) -> Var {
        let [scale, shift] = self.eval_affine(ps).map(|t| g.input(t));
        g.channel_affine(x, scale, shift)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn image(n: usize, c: usize, hw: usize, seed: f32) -> Tensor {
        Tensor::from_vec(
            (0..n * c * hw * hw).map(|i| ((i as f32) * seed).sin()).collect(),
            &[n, c, hw, hw],
        )
    }

    #[test]
    fn conv_same_padding_keeps_spatial_size() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(0);
        let conv = Conv2d::new(&mut ps, &mut rng, "c1", 3, 8, 3, 1, 1);
        let mut g = Graph::new();
        let mut b = Binding::new();
        let x = g.input(image(2, 3, 8, 0.3));
        let y = conv.forward(&mut g, &mut b, &ps, x);
        assert_eq!(g.value(y).shape(), &[2, 8, 8, 8]);
        assert_eq!(conv.out_channels(), 8);
    }

    #[test]
    fn conv_stride_2_halves_spatial_size() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(0);
        let conv = Conv2d::new(&mut ps, &mut rng, "c1", 4, 4, 3, 2, 1);
        let mut g = Graph::new();
        let mut b = Binding::new();
        let x = g.input(image(1, 4, 8, 0.7));
        let y = conv.forward(&mut g, &mut b, &ps, x);
        assert_eq!(g.value(y).shape(), &[1, 4, 4, 4]);
    }

    #[test]
    fn batchnorm_train_folds_its_batch_stats() {
        let mut ps = ParamSet::new();
        let mut bn = BatchNorm2d::new(&mut ps, "bn", 2);
        let mut g = Graph::new();
        let mut b = Binding::new();
        let x = g.input(image(4, 2, 4, 1.1).add_scalar(3.0));
        let y = bn.forward_train(&mut g, &mut b, &ps, x);
        assert_eq!(g.value(y).shape(), &[4, 2, 4, 4]);
        // batch-normalised output has ~zero mean
        assert!(g.value(y).mean().abs() < 1e-4);
        let stats = g.bn_batch_stats();
        assert_eq!(stats.len(), 1, "the op keeps its batch statistics");
        let (mean, var) = stats[0];
        let xv = g.value(x).as_slice();
        for c in 0..2 {
            let plane: Vec<f32> =
                (0..4).flat_map(|n| &xv[(n * 2 + c) * 16..][..16]).copied().collect();
            let m = plane.iter().sum::<f32>() / 64.0;
            let v = plane.iter().map(|x| (x - m) * (x - m)).sum::<f32>() / 64.0;
            assert!((mean[c] - m).abs() < 1e-5 && (var[c] - v).abs() < 1e-5, "channel {c}");
        }
        bn.fold_batch_stats(&[(1.0, mean, var)]);
        for c in 0..2 {
            assert_eq!(bn.running_mean[c], 0.9 * 0.0 + 0.1 * mean[c]);
            assert_eq!(bn.running_var[c], 0.9 * 1.0 + 0.1 * var[c]);
        }
    }

    #[test]
    fn batchnorm_fold_weights_each_shard_update() {
        let mut ps = ParamSet::new();
        let mut bn = BatchNorm2d::new(&mut ps, "bn", 1);
        bn.fold_batch_stats(&[(0.75, &[4.0], &[2.0]), (0.25, &[8.0], &[6.0])]);
        // per shard 0.9·r + 0.1·b, then 0.75·a + 0.25·b
        assert_eq!(bn.running_mean, [0.75 * 0.4 + 0.25 * 0.8]);
        assert_eq!(bn.running_var, [0.75 * (0.9 + 0.2) + 0.25 * (0.9 + 0.6)]);
    }

    #[test]
    fn batchnorm_eval_uses_running_stats() {
        let mut ps = ParamSet::new();
        let mut bn = BatchNorm2d::new(&mut ps, "bn", 1);
        bn.running_mean = vec![2.0];
        bn.running_var = vec![4.0];
        let mut g = Graph::new();
        let x = g.input(Tensor::full(&[1, 1, 2, 2], 4.0));
        let y = bn.forward_eval(&mut g, &ps, x);
        // (4 - 2)/sqrt(4) = 1 with gamma=1 beta=0
        for &v in g.value(y).as_slice() {
            assert!((v - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn conv_bn_gradients_flow() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(1);
        let conv = Conv2d::new(&mut ps, &mut rng, "c", 1, 2, 3, 1, 1);
        let bn = BatchNorm2d::new(&mut ps, "bn", 2);
        let mut g = Graph::new();
        let mut b = Binding::new();
        let x = g.input(image(2, 1, 4, 0.9));
        let y = conv.forward(&mut g, &mut b, &ps, x);
        let z = bn.forward_train(&mut g, &mut b, &ps, y);
        let r = g.relu(z);
        let p = g.global_avg_pool(r);
        let loss = g.mean_all(p);
        g.backward(loss);
        b.write_grads(&g, &mut ps);
        assert!(ps.get(conv.w).grad.l2_norm() > 0.0);
        assert!(ps.get(bn.gamma).grad.l2_norm() > 0.0);
        assert!(ps.get(bn.beta).grad.l2_norm() > 0.0);
    }
}
