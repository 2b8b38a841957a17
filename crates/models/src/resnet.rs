//! A compact residual CNN (ResNet-8) standing in for ResNet-50 in the
//! LARS/LEGW experiments (§6, Table 3, Figure 1).
//!
//! Stem conv → three residual stages (16, 32, 64 channels; stages 2–3
//! downsample by stride 2 with a 1×1 projection skip) → global average
//! pool → linear classifier. BatchNorm uses batch statistics in training
//! and running statistics in evaluation, as usual.

use crate::planned::StepPlan;
use legw_autograd::{Feeds, Graph, Var};
use legw_nn::{BatchNorm2d, Binding, Conv2d, Linear, ParamId, ParamSet};
use legw_tensor::Tensor;
use rand::Rng;

#[derive(Clone)]
struct Block {
    conv1: Conv2d,
    bn1: BatchNorm2d,
    conv2: Conv2d,
    bn2: BatchNorm2d,
    /// 1×1 stride-matching projection when the shape changes.
    proj: Option<(Conv2d, BatchNorm2d)>,
}

impl Block {
    fn new<R: Rng>(
        ps: &mut ParamSet,
        rng: &mut R,
        name: &str,
        in_ch: usize,
        out_ch: usize,
        stride: usize,
    ) -> Self {
        let proj = (stride != 1 || in_ch != out_ch).then(|| {
            (
                Conv2d::new(ps, rng, &format!("{name}.proj"), in_ch, out_ch, 1, stride, 0),
                BatchNorm2d::new(ps, &format!("{name}.proj_bn"), out_ch),
            )
        });
        Self {
            conv1: Conv2d::new(ps, rng, &format!("{name}.conv1"), in_ch, out_ch, 3, stride, 1),
            bn1: BatchNorm2d::new(ps, &format!("{name}.bn1"), out_ch),
            conv2: Conv2d::new(ps, rng, &format!("{name}.conv2"), out_ch, out_ch, 3, 1, 1),
            bn2: BatchNorm2d::new(ps, &format!("{name}.bn2"), out_ch),
            proj,
        }
    }

    fn forward(&self, g: &mut Graph, bd: &mut Binding, ps: &ParamSet, x: Var, train: bool) -> Var {
        let y = self.conv1.forward(g, bd, ps, x);
        let y = if train {
            self.bn1.forward_train(g, bd, ps, y)
        } else {
            self.bn1.forward_eval(g, ps, y)
        };
        let y = g.relu(y);
        let y = self.conv2.forward(g, bd, ps, y);
        let y = if train {
            self.bn2.forward_train(g, bd, ps, y)
        } else {
            self.bn2.forward_eval(g, ps, y)
        };
        let skip = match &self.proj {
            Some((conv, bn)) => {
                let s = conv.forward(g, bd, ps, x);
                if train {
                    bn.forward_train(g, bd, ps, s)
                } else {
                    bn.forward_eval(g, ps, s)
                }
            }
            None => x,
        };
        let sum = g.add(y, skip);
        g.relu(sum)
    }
}

/// The ResNet-8 stand-in.
///
/// Every forward reads the BatchNorm running statistics and none writes
/// them: a training tape or replay keeps each BatchNorm op's batch
/// statistics ([`Graph::bn_batch_stats`], [`StepPlan::bn_batch_stats`]),
/// and the step folds them into the model once, with
/// [`ResNet::fold_batch_stats`]. `Clone` copies the layer wiring *and* the
/// running statistics.
#[derive(Clone)]
pub struct ResNet {
    stem: Conv2d,
    stem_bn: BatchNorm2d,
    blocks: Vec<Block>,
    head: Linear,
    n_classes: usize,
    params: Vec<ParamId>,
}

impl ResNet {
    /// Builds the network for `[N, 3, 32, 32]` inputs and `n_classes`
    /// outputs. `width` is the stem channel count (default experiments
    /// use 8; channels double per stage).
    pub fn new<R: Rng>(ps: &mut ParamSet, rng: &mut R, width: usize, n_classes: usize) -> Self {
        let (w, first) = (width, ps.len());
        Self {
            stem: Conv2d::new(ps, rng, "resnet.stem", 3, w, 3, 1, 1),
            stem_bn: BatchNorm2d::new(ps, "resnet.stem_bn", w),
            blocks: vec![
                Block::new(ps, rng, "resnet.b1", w, w, 1),
                Block::new(ps, rng, "resnet.b2", w, 2 * w, 2),
                Block::new(ps, rng, "resnet.b3", 2 * w, 4 * w, 2),
            ],
            head: Linear::new(ps, rng, "resnet.head", 4 * w, n_classes, true),
            n_classes,
            params: ps.iter().skip(first).map(|(id, _)| id).collect(),
        }
    }

    /// Number of output classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Forward pass producing logits. `train` selects batch-statistics vs
    /// running-statistics normalisation.
    pub fn forward(
        &self,
        g: &mut Graph,
        bd: &mut Binding,
        ps: &ParamSet,
        images: &Tensor,
        train: bool,
    ) -> Var {
        let x = g.input(images.clone());
        let y = self.stem.forward(g, bd, ps, x);
        let y = if train {
            self.stem_bn.forward_train(g, bd, ps, y)
        } else {
            self.stem_bn.forward_eval(g, ps, y)
        };
        let mut y = g.relu(y);
        for b in &self.blocks {
            y = b.forward(g, bd, ps, y, train);
        }
        let pooled = g.global_avg_pool(y);
        self.head.forward(g, bd, ps, pooled)
    }

    /// Builds the tape for one training step.
    pub fn forward_loss(
        &self,
        ps: &ParamSet,
        images: &Tensor,
        labels: &[usize],
    ) -> (Graph, Binding, Var, Tensor) {
        let mut g = Graph::new();
        let mut bd = Binding::new();
        let logits = self.forward(&mut g, &mut bd, ps, images, true);
        let loss = g.softmax_cross_entropy(logits, labels);
        let lv = g.value(logits).clone();
        (g, bd, loss, lv)
    }

    /// Records one training step, forward and backward, on a shape-only
    /// tape and compiles it into a replayable [`StepPlan`]. Always `Some`: the `Option` remains
    /// only because `crates/perf` unwraps it.
    pub fn capture_step_plan(
        &self,
        ps: &ParamSet,
        images: &Tensor,
        labels: &[usize],
    ) -> Option<StepPlan> {
        Some(StepPlan::capture(|g, bd| {
            let logits = self.forward(g, bd, ps, images, true);
            (g.softmax_cross_entropy(logits, labels), Vec::new())
        }))
    }

    /// Replays a captured step on a fresh same-shape batch: forward +
    /// backward without a tape. Returns the loss; gradients are read with
    /// [`StepPlan::write_grads_to`] and the batch statistics with
    /// [`StepPlan::bn_batch_stats`].
    pub fn replay_step_plan(
        &self,
        plan: &mut StepPlan,
        ps: &ParamSet,
        images: &Tensor,
        labels: &[usize],
    ) -> f32 {
        let label_feed: [&[usize]; 1] = [labels];
        let feeds = Feeds { labels: &label_feed, ..Feeds::default() };
        plan.replay_step(ps, &[images], &feeds)
    }

    /// Every BatchNorm layer in forward order.
    fn batch_norms(&self) -> Vec<&BatchNorm2d> {
        let mut bns = vec![&self.stem_bn];
        for b in &self.blocks {
            bns.push(&b.bn1);
            bns.push(&b.bn2);
            if let Some((_, bn)) = &b.proj {
                bns.push(bn);
            }
        }
        bns
    }

    /// Every BatchNorm layer, mutably, in the same order as
    /// [`ResNet::batch_norms`].
    fn batch_norms_mut(&mut self) -> Vec<&mut BatchNorm2d> {
        let mut bns = vec![&mut self.stem_bn];
        for b in &mut self.blocks {
            bns.push(&mut b.bn1);
            bns.push(&mut b.bn2);
            if let Some((_, bn)) = &mut b.proj {
                bns.push(bn);
            }
        }
        bns
    }

    /// Builds an eval-mode (running-statistics) inference tape. Returns
    /// graph/binding and the logits variable.
    pub fn forward_infer(&self, ps: &ParamSet, images: &Tensor) -> (Graph, Binding, Var) {
        let mut g = Graph::new();
        let mut bd = Binding::new();
        let logits = self.forward(&mut g, &mut bd, ps, images, false);
        (g, bd, logits)
    }

    /// Running statistics `(mean, var)` of every BatchNorm layer in
    /// `ResNet::batch_norms` order — the non-parameter state a frozen
    /// artifact must carry alongside the checkpointed `ParamSet`.
    pub fn bn_running_stats(&self) -> Vec<(Vec<f32>, Vec<f32>)> {
        self.batch_norms()
            .iter()
            .map(|bn| (bn.running_mean.clone(), bn.running_var.clone()))
            .collect()
    }

    /// Restores statistics exported by [`ResNet::bn_running_stats`].
    pub fn set_bn_running_stats(&mut self, stats: &[(Vec<f32>, Vec<f32>)]) {
        let bns = self.batch_norms_mut();
        assert_eq!(stats.len(), bns.len(), "BN layer count mismatch");
        for (bn, (m, v)) in bns.into_iter().zip(stats) {
            assert_eq!(bn.running_mean.len(), m.len(), "BN channel count mismatch");
            bn.running_mean.copy_from_slice(m);
            bn.running_var.copy_from_slice(v);
        }
    }

    /// Folds one step's BatchNorm batch statistics into the running
    /// averages: per data-parallel shard, in shard order, its weight
    /// (example fraction; the weights sum to 1) and the batch statistics of
    /// its BatchNorm ops in tape order, which is `ResNet::batch_norms`
    /// order ([`Graph::bn_batch_stats`], [`StepPlan::bn_batch_stats`]),
    /// borrowed or owned. See [`BatchNorm2d::fold_batch_stats`].
    pub fn fold_batch_stats<S: AsRef<[f32]>>(&mut self, shards: &[(f32, &[(S, S)])]) {
        let bns = self.batch_norms_mut();
        assert!(shards.iter().all(|(_, s)| s.len() == bns.len()), "one entry per BatchNorm");
        for (i, bn) in bns.into_iter().enumerate() {
            let batches: Vec<(f32, &[f32], &[f32])> =
                shards.iter().map(|(w, s)| (*w, s[i].0.as_ref(), s[i].1.as_ref())).collect();
            bn.fold_batch_stats(&batches);
        }
    }
}

impl crate::planned::Infer for ResNet {
    type Req = Vec<f32>;
    type Out = Vec<f32>;
    type RowState = ();
    type Batch = Tensor;
    type Plan = StepPlan;

    fn params(&self) -> &[ParamId] {
        &self.params
    }

    fn zero_state(&self) {}

    fn coalesce_key(&self, _req: &Vec<f32>) -> Vec<usize> {
        Vec::new() // fixed shape: everything coalesces
    }

    fn assemble(&self, reqs: &[Vec<f32>], _states: &[()]) -> Tensor {
        const IMG: usize = 3 * 32 * 32;
        let b = reqs.len();
        let mut flat = Vec::with_capacity(b * IMG);
        for r in reqs {
            assert_eq!(r.len(), IMG, "ResNet request must be a 3×32×32 image");
            flat.extend_from_slice(r);
        }
        Tensor::from_vec(flat, &[b, 3, 32, 32])
    }

    fn slice(&self, batch: &Tensor, rows: std::ops::Range<usize>) -> Tensor {
        batch.slice_outer(rows.start, rows.end)
    }

    fn infer_key(&self, batch: &Tensor) -> Vec<usize> {
        vec![batch.dim(0)]
    }

    /// The eval-mode forward as a forward-only plan. Its inputs are the
    /// images, then each BatchNorm's folded scale and shift in
    /// `ResNet::batch_norms` order, so the plan captures no value: it stays
    /// valid under new parameters and new running statistics.
    fn capture_infer(&self, ps: &ParamSet, batch: &Tensor) -> StepPlan {
        StepPlan::capture_forward(|g, bd| vec![self.forward(g, bd, ps, batch, false)])
    }

    /// No feeds: the inputs are the images and every BatchNorm's scale and
    /// shift, folded again ([`BatchNorm2d::eval_affine`]).
    fn replay_infer(
        &self,
        plan: &mut StepPlan,
        ps: &ParamSet,
        batch: &Tensor,
    ) -> Vec<(Vec<f32>, ())> {
        let folds: Vec<_> = self.batch_norms().iter().map(|bn| bn.eval_affine(ps)).collect();
        let inputs: Vec<&Tensor> = std::iter::once(batch).chain(folds.iter().flatten()).collect();
        plan.replay_forward(ps, &inputs, &Feeds::default());
        crate::planned::tensor_rows(&plan.output(0)).into_iter().map(|r| (r, ())).collect()
    }

    fn infer_tape(&self, ps: &ParamSet, batch: &Tensor) -> Vec<(Vec<f32>, ())> {
        let (g, _bd, logits) = self.forward_infer(ps, batch);
        crate::planned::tensor_rows(g.value(logits)).into_iter().map(|r| (r, ())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legw_data::SynthImageNet;
    use rand::{rngs::StdRng, SeedableRng};

    fn tiny() -> (ParamSet, ResNet, SynthImageNet) {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(7);
        let m = ResNet::new(&mut ps, &mut rng, 4, 6);
        let d = SynthImageNet::generate(8, 6, 36, 12);
        (ps, m, d)
    }

    #[test]
    fn forward_shapes_and_untrained_loss() {
        let (ps, m, d) = tiny();
        let (batch, labels) = d.train.gather(&[0, 1, 2, 3]);
        let (g, _, loss, logits) = m.forward_loss(&ps, &batch, &labels);
        assert_eq!(logits.shape(), &[4, 6]);
        assert!((g.value(loss).item() - 6f32.ln()).abs() < 1.2);
    }

    #[test]
    fn gradients_reach_every_parameter() {
        let (mut ps, m, d) = tiny();
        let (batch, labels) = d.train.gather(&[0, 1, 2, 3]);
        let (mut g, bd, loss, _) = m.forward_loss(&ps, &batch, &labels);
        g.backward(loss);
        bd.write_grads(&g, &mut ps);
        for (_, p) in ps.iter() {
            assert!(p.grad.l2_norm() > 0.0, "no grad for {}", p.name);
        }
    }

    #[test]
    fn training_reduces_loss_on_fixed_batch() {
        let (mut ps, m, d) = tiny();
        let (batch, labels) = d.train.gather(&(0..12).collect::<Vec<_>>());
        let mut first = 0.0;
        let mut last = 0.0;
        for i in 0..6 {
            let (mut g, bd, loss, _) = m.forward_loss(&ps, &batch, &labels);
            if i == 0 {
                first = g.value(loss).item();
            }
            last = g.value(loss).item();
            g.backward(loss);
            bd.write_grads(&g, &mut ps);
            for (_, p) in ps.iter_mut() {
                let gr = p.grad.clone();
                p.value.axpy(-0.1, &gr);
                p.grad.fill_(0.0);
            }
        }
        assert!(last < first, "loss should fall: {first} → {last}");
    }

    /// A training tape's batch statistics, folded into `m`'s running
    /// statistics as one single-shard step.
    fn fold_train_stats(m: &mut ResNet, ps: &ParamSet, batch: &Tensor, labels: &[usize]) {
        let (g, ..) = m.forward_loss(ps, batch, labels);
        m.fold_batch_stats(&[(1.0, &g.bn_batch_stats()[..])]);
    }

    #[test]
    fn fold_moves_every_layer_by_its_own_batch_stats() {
        let (ps, mut m, d) = tiny();
        let (batch, labels) = d.train.gather(&[0, 1, 2, 3]);
        let (g, ..) = m.forward_loss(&ps, &batch, &labels);
        let batch_stats = g.bn_batch_stats();
        assert_eq!(batch_stats.len(), m.bn_running_stats().len(), "one entry per BatchNorm");
        fold_train_stats(&mut m, &ps, &batch, &labels);
        for ((mean, var), (bm, bv)) in m.bn_running_stats().iter().zip(&batch_stats) {
            assert_eq!(mean.len(), bm.len(), "tape order is batch_norms order");
            for c in 0..mean.len() {
                assert_eq!(mean[c], 0.9 * 0.0 + 0.1 * bm[c]);
                assert_eq!(var[c], 0.9 * 1.0 + 0.1 * bv[c]);
            }
        }
    }

    /// Eval-mode inference plan vs the live eval tape: bitwise logits on a
    /// fresh batch, after folded training statistics have moved the BN
    /// running stats off their initial values (so the folded constants
    /// matter).
    #[test]
    fn infer_plan_matches_eval_tape_bitwise() {
        use crate::planned::Infer;
        let (ps, mut m, d) = tiny();
        let (batch, labels) = d.train.gather(&(0..8).collect::<Vec<_>>());
        for _ in 0..2 {
            fold_train_stats(&mut m, &ps, &batch, &labels);
        }
        for (mean, var) in m.bn_running_stats() {
            assert!(mean.iter().all(|&x| x != 0.0), "running means left their init");
            assert!(var.iter().all(|&x| x != 1.0), "running vars left their init");
        }
        let (cap_batch, _) = d.train.gather(&[0, 1, 2]);
        let (fresh, _) = d.test.gather(&[3, 4, 5]);
        let mut plan = m.capture_infer(&ps, &cap_batch);
        let captured = m.replay_infer(&mut plan, &ps, &cap_batch);
        assert_eq!(captured, m.infer_tape(&ps, &cap_batch), "the capture batch replays");
        let planned = m.replay_infer(&mut plan, &ps, &fresh);
        let taped = m.infer_tape(&ps, &fresh);
        for ((a, ()), (b, ())) in planned.iter().zip(&taped) {
            assert_eq!(a.len(), 6);
            assert_eq!(a, b, "frozen-path logits must match the eval tape bitwise");
        }
    }
}
