//! A compact residual CNN (ResNet-8) standing in for ResNet-50 in the
//! LARS/LEGW experiments (§6, Table 3, Figure 1).
//!
//! Stem conv → three residual stages (16, 32, 64 channels; stages 2–3
//! downsample by stride 2 with a 1×1 projection skip) → global average
//! pool → linear classifier. BatchNorm uses batch statistics in training
//! and running statistics in evaluation, as usual.

use crate::planned::StepPlan;
use legw_autograd::{Feeds, Graph, Var};
use legw_nn::{BatchNorm2d, Binding, Conv2d, Linear, ParamSet};
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

    fn forward(
        &mut self,
        g: &mut Graph,
        bd: &mut Binding,
        ps: &ParamSet,
        x: Var,
        train: bool,
    ) -> Var {
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
        let skip = match &mut self.proj {
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
/// `Clone` copies the layer wiring *and* the BatchNorm running statistics;
/// the data-parallel executor clones the model per batch shard (forward
/// passes mutate BN state) and folds the shard stats back with
/// [`ResNet::merge_shard_stats`].
#[derive(Clone)]
pub struct ResNet {
    stem: Conv2d,
    stem_bn: BatchNorm2d,
    blocks: Vec<Block>,
    head: Linear,
    n_classes: usize,
}

impl ResNet {
    /// Builds the network for `[N, 3, 32, 32]` inputs and `n_classes`
    /// outputs. `width` is the stem channel count (default experiments
    /// use 8; channels double per stage).
    pub fn new<R: Rng>(ps: &mut ParamSet, rng: &mut R, width: usize, n_classes: usize) -> Self {
        let w = width;
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
        }
    }

    /// Number of output classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Forward pass producing logits. `train` selects batch-statistics vs
    /// running-statistics normalisation.
    pub fn forward(
        &mut self,
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
        for b in &mut self.blocks {
            y = b.forward(g, bd, ps, y, train);
        }
        let pooled = g.global_avg_pool(y);
        self.head.forward(g, bd, ps, pooled)
    }

    /// Builds the tape for one training step.
    pub fn forward_loss(
        &mut self,
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

    /// Records one training step, forward and backward, and compiles it
    /// into a replayable [`StepPlan`]. The capture forward runs on a
    /// throwaway clone of `self` so the running-statistics update of the
    /// capture pass is discarded — the first replay applies that batch's
    /// statistics itself, keeping the plan path's running stats in lockstep
    /// with the tape path. Always `Some`: the `Option` remains only because
    /// `crates/perf` unwraps it.
    pub fn capture_step_plan(
        &self,
        ps: &ParamSet,
        images: &Tensor,
        labels: &[usize],
    ) -> Option<StepPlan> {
        let mut probe = self.clone();
        let (mut g, bd, loss, _) = probe.forward_loss(ps, images, labels);
        g.backward(loss);
        let plan = StepPlan::capture(&g, &bd, loss, &[]);
        debug_assert_eq!(
            plan.num_batch_norms(),
            self.batch_norms().len(),
            "plan BN count must match the model's BN layers"
        );
        Some(plan)
    }

    /// Replays a captured step on a fresh same-shape batch: forward +
    /// backward without a tape, then folds each BatchNorm's batch
    /// statistics into the running averages (the tape order of BN ops
    /// equals `ResNet::batch_norms` order). Returns the loss; gradients
    /// are read with [`StepPlan::write_grads_to`].
    pub fn replay_step_plan(
        &mut self,
        plan: &mut StepPlan,
        ps: &ParamSet,
        images: &Tensor,
        labels: &[usize],
    ) -> f32 {
        let label_feed: [&[usize]; 1] = [labels];
        let feeds = Feeds { labels: &label_feed, ..Feeds::default() };
        let loss = plan.replay_step(ps, &[images], &feeds);
        for (i, bn) in self.batch_norms_mut().into_iter().enumerate() {
            let (mean, var) = plan.bn_batch_stats(i);
            bn.update_running_stats(mean, var);
        }
        loss
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

    /// Builds an eval-mode (running-statistics) inference tape on a
    /// throwaway clone — eval never mutates BN state, but `forward` takes
    /// `&mut self` for the training path's sake. Returns graph/binding and
    /// the logits variable.
    pub fn forward_infer(&self, ps: &ParamSet, images: &Tensor) -> (Graph, Binding, Var) {
        let mut probe = self.clone();
        let mut g = Graph::new();
        let mut bd = Binding::new();
        let logits = probe.forward(&mut g, &mut bd, ps, images, false);
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

    /// Replaces this model's BatchNorm running statistics with the
    /// weighted average of the shard clones' statistics (weights must sum
    /// to 1; use shard-example fractions). Deterministic: iterates shards
    /// in the order given.
    pub fn merge_shard_stats(&mut self, shards: &[(f32, &ResNet)]) {
        let shard_bns: Vec<Vec<&BatchNorm2d>> = shards.iter().map(|(_, m)| m.batch_norms()).collect();
        for (i, bn) in self.batch_norms_mut().into_iter().enumerate() {
            let sources: Vec<(f32, &BatchNorm2d)> = shards
                .iter()
                .zip(&shard_bns)
                .map(|((w, _), bns)| (*w, bns[i]))
                .collect();
            bn.set_stats_weighted(&sources);
        }
    }
}

impl crate::planned::Infer for ResNet {
    type Req = Vec<f32>;
    type Out = Vec<f32>;
    type RowState = ();
    type Batch = Tensor;
    type Plan = StepPlan;

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

    fn infer_key(&self, batch: &Tensor) -> Vec<usize> {
        vec![batch.dim(0)]
    }

    /// The eval-mode forward as a forward-only plan. Eval BN folds
    /// gamma/beta and the running statistics into per-capture constants, so
    /// the plan is valid only while parameters *and* running stats stay
    /// frozen — exactly the serving contract.
    fn capture_infer(&self, ps: &ParamSet, batch: &Tensor) -> (StepPlan, Vec<(Vec<f32>, ())>) {
        let (g, bd, logits) = self.forward_infer(ps, batch);
        let plan = StepPlan::capture_forward(&g, &bd, &[logits]);
        (plan, crate::planned::tensor_rows(g.value(logits)).into_iter().map(|r| (r, ())).collect())
    }

    /// The empty mask feed re-uses the captured folded-BN scale masks.
    fn replay_infer(
        &self,
        plan: &mut StepPlan,
        ps: &ParamSet,
        batch: &Tensor,
    ) -> Vec<(Vec<f32>, ())> {
        plan.replay_forward(ps, &[batch], &Feeds::default());
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
        let (ps, mut m, d) = tiny();
        let (batch, labels) = d.train.gather(&[0, 1, 2, 3]);
        let (g, _, loss, logits) = m.forward_loss(&ps, &batch, &labels);
        assert_eq!(logits.shape(), &[4, 6]);
        assert!((g.value(loss).item() - 6f32.ln()).abs() < 1.2);
    }

    #[test]
    fn gradients_reach_every_parameter() {
        let (mut ps, mut m, d) = tiny();
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
        let (mut ps, mut m, d) = tiny();
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

    /// Eval-mode inference plan vs the live eval tape: bitwise logits on a
    /// fresh batch, after training passes have moved the BN running stats
    /// off their initial values (so the folded constants matter).
    #[test]
    fn infer_plan_matches_eval_tape_bitwise() {
        use crate::planned::Infer;
        let (ps, mut m, d) = tiny();
        let (batch, labels) = d.train.gather(&(0..8).collect::<Vec<_>>());
        for _ in 0..2 {
            let _ = m.forward_loss(&ps, &batch, &labels);
        }
        let (cap_batch, _) = d.train.gather(&[0, 1, 2]);
        let (fresh, _) = d.test.gather(&[3, 4, 5]);
        let (mut plan, captured) = m.capture_infer(&ps, &cap_batch);
        assert_eq!(captured, m.infer_tape(&ps, &cap_batch), "the capture returns its logits");
        let planned = m.replay_infer(&mut plan, &ps, &fresh);
        let taped = m.infer_tape(&ps, &fresh);
        for ((a, ()), (b, ())) in planned.iter().zip(&taped) {
            assert_eq!(a.len(), 6);
            assert_eq!(a, b, "frozen-path logits must match the eval tape bitwise");
        }
    }
}
