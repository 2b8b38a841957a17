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
        let w = ps.add(
            format!("{name}.w"),
            Tensor::he_normal(rng, &[out_channels, fan_in], fan_in),
        );
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
        let xv = g.value(x);
        let mut geom = self.geom_template;
        geom.h = xv.dim(2);
        geom.w = xv.dim(3);
        assert_eq!(xv.dim(1), geom.c, "channel mismatch into conv");
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
    /// Running mean, updated by [`BatchNorm2d::forward_train`].
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

    /// Training-mode forward: normalises with batch statistics and updates
    /// the running averages.
    pub fn forward_train(
        &mut self,
        g: &mut Graph,
        b: &mut Binding,
        ps: &ParamSet,
        x: Var,
    ) -> Var {
        let (mean, var) = Graph::batch_norm_stats(g.value(x));
        self.update_running_stats(&mean, &var);
        let gamma = b.bind(g, ps, self.gamma);
        let beta = b.bind(g, ps, self.beta);
        g.batch_norm(x, gamma, beta, self.eps)
    }

    /// Folds one batch's statistics into the running averages — the same
    /// momentum update [`BatchNorm2d::forward_train`] performs. Public so
    /// a plan replay (which computes the batch statistics without a tape,
    /// [`legw_autograd::Plan::bn_batch_stats`]) can keep the running
    /// stats in lockstep with the tape path.
    pub fn update_running_stats(&mut self, mean: &[f32], var: &[f32]) {
        for c in 0..self.channels {
            self.running_mean[c] =
                (1.0 - self.momentum) * self.running_mean[c] + self.momentum * mean[c];
            self.running_var[c] =
                (1.0 - self.momentum) * self.running_var[c] + self.momentum * var[c];
        }
    }

    /// Overwrites the running statistics with the weighted average of the
    /// `sources` stats (weights must sum to 1).
    ///
    /// The data-parallel executor trains shard-local clones of BN layers
    /// and folds them back with shard-example-count weights; because every
    /// clone starts from the same pre-step stats, the weighted average of
    /// the updated means reproduces the serial running-mean update exactly
    /// (the variance average drops the between-shard term, the usual
    /// non-synchronised distributed-BN behaviour).
    pub fn set_stats_weighted(&mut self, sources: &[(f32, &BatchNorm2d)]) {
        for c in 0..self.channels {
            self.running_mean[c] = sources.iter().map(|(w, s)| w * s.running_mean[c]).sum();
            self.running_var[c] = sources.iter().map(|(w, s)| w * s.running_var[c]).sum();
        }
    }

    /// Inference-mode forward: folds the running statistics and affine
    /// parameters into a per-channel scale/shift.
    pub fn forward_eval(&self, g: &mut Graph, ps: &ParamSet, x: Var) -> Var {
        let gm = ps.value(self.gamma).as_slice().to_vec();
        let bt = ps.value(self.beta).as_slice().to_vec();
        let mut scale = vec![0.0f32; self.channels];
        let mut shift = vec![0.0f32; self.channels];
        for c in 0..self.channels {
            let inv = 1.0 / (self.running_var[c] + self.eps).sqrt();
            scale[c] = gm[c] * inv;
            shift[c] = bt[c] - gm[c] * self.running_mean[c] * inv;
        }
        g.channel_affine(x, &scale, &shift)
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
    fn batchnorm_train_updates_running_stats() {
        let mut ps = ParamSet::new();
        let mut bn = BatchNorm2d::new(&mut ps, "bn", 2);
        let mut g = Graph::new();
        let mut b = Binding::new();
        let x = g.input(image(4, 2, 4, 1.1).add_scalar(3.0));
        let before = bn.running_mean.clone();
        let y = bn.forward_train(&mut g, &mut b, &ps, x);
        assert_eq!(g.value(y).shape(), &[4, 2, 4, 4]);
        assert_ne!(bn.running_mean, before, "running mean must move toward batch mean");
        // batch-normalised output has ~zero mean
        assert!(g.value(y).mean().abs() < 1e-4);
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
        let mut bn = BatchNorm2d::new(&mut ps, "bn", 2);
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
