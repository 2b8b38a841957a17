//! The four training workloads as pluggable [`ShardStep`] implementations.
//!
//! A workload says what differs per family: how to *split* its batch, what
//! each shard *weighs*, how shard results *reduce*, how to *record* one
//! shard's forward onto a tape, and how to *key* and *replay* that shard as
//! a compiled plan. The executor owns everything else, once — the backward
//! and gradient drain of an eager tape, the capture of a plan from a
//! shape-only tape on a plan-cache miss, the drain after a replay, shard
//! scheduling, the gradient reduction and applying the combined gradient.
//! Its two entry points share every other line and differ only in the
//! per-shard body: [`Executor::step`] runs every shard's eager tape (the
//! oracle the bitwise suites compare against), [`Executor::step_planned`]
//! replays cached plans, capturing one on a miss and replaying it at once,
//! and is what [`crate::trainer::train`] steps through.
//!
//! Workload-specific post-processing stays next to the workload:
//! [`PtbStep::merge_states`] reassembles the carried LSTM state and
//! [`ResnetStep::fold_stats`] folds the shards' BatchNorm batch statistics
//! into the model.

use crate::exec::{Executor, Reduce};
use legw_autograd::{Graph, Var};
use legw_data::{LmBatch, TranslationBatch};
use legw_models::{LmState, MnistLstm, PtbLm, ResNet, Seq2Seq, StepPlan};
use legw_nn::{Binding, DropCtx, ParamSet};
use legw_tensor::Tensor;

/// One data-parallel training workload: how a batch splits into shards and
/// how one shard records its forward or replays its plan. Implementations
/// are borrowed views over the model + batch, built per step.
pub trait ShardStep: Sync {
    /// Per-shard owned work item (sliced inputs, shard state, …).
    type Shard: Sync;
    /// Per-shard result payload returned alongside the
    /// [`StepOutcome`](crate::exec::StepOutcome).
    type Extra: Send;

    /// How shard gradients and losses combine.
    fn reduce(&self) -> Reduce;

    /// Splits the batch into at most [`Executor::shards`] work items.
    fn split(&self, exec: &Executor) -> Vec<Self::Shard>;

    /// The [`Reduce::WeightedMean`] combination weight (example count) of
    /// one shard. Ignored for [`Reduce::Sum`] workloads.
    fn weight(&self, shard: &Self::Shard) -> f64;

    /// The plan-cache key identifying this shard's tape structure. Two
    /// shards of one workload with equal keys must record structurally
    /// identical tapes (same ops, same shapes) — only the fed data may
    /// differ.
    fn plan_key(&self, shard: &Self::Shard) -> Vec<usize>;

    /// Records one shard's forward and scalar loss onto `g` — eager, or
    /// shape-only for a plan — binding parameters through `bd`. Returns the
    /// loss and the values a replay reads back. Must be deterministic per
    /// shard: the executor may run it on any worker thread.
    fn record(
        &self,
        g: &mut Graph,
        bd: &mut Binding,
        ps: &ParamSet,
        shard: &Self::Shard,
    ) -> (Var, Vec<Var>);

    /// The shard's extra, read from its eager tape `g` and the `outputs`
    /// [`ShardStep::record`] returned.
    fn tape_extra(&self, g: &Graph, outputs: &[Var], shard: &Self::Shard) -> Self::Extra;

    /// Replays the plan compiled from this shard's [`ShardStep::record`],
    /// forward and backward, and returns the shard's `(loss, extra)`:
    /// bitwise what the tape reports.
    fn replay(&self, ps: &ParamSet, plan: &mut StepPlan, shard: &Self::Shard)
        -> (f64, Self::Extra);
}

/// The MNIST-LSTM classifier step.
pub struct MnistStep<'a> {
    pub model: &'a MnistLstm,
    pub bx: &'a Tensor,
    pub by: &'a [usize],
}

impl ShardStep for MnistStep<'_> {
    type Shard = (Tensor, Vec<usize>);
    type Extra = ();

    fn reduce(&self) -> Reduce {
        Reduce::WeightedMean
    }

    fn split(&self, exec: &Executor) -> Vec<Self::Shard> {
        let ranges = exec.shard_ranges(self.by.len());
        if ranges.len() == 1 {
            vec![(self.bx.clone(), self.by.to_vec())]
        } else {
            ranges
                .iter()
                .map(|r| (self.bx.rows(r.start, r.end), self.by[r.start..r.end].to_vec()))
                .collect()
        }
    }

    fn weight(&self, shard: &Self::Shard) -> f64 {
        shard.1.len() as f64
    }

    fn plan_key(&self, (_, sy): &Self::Shard) -> Vec<usize> {
        vec![sy.len()]
    }

    fn record(
        &self,
        g: &mut Graph,
        bd: &mut Binding,
        ps: &ParamSet,
        (sx, sy): &Self::Shard,
    ) -> (Var, Vec<Var>) {
        let logits = self.model.forward(g, bd, ps, sx);
        (g.softmax_cross_entropy(logits, sy), Vec::new())
    }

    fn tape_extra(&self, _: &Graph, _: &[Var], _: &Self::Shard) {}

    fn replay(&self, ps: &ParamSet, plan: &mut StepPlan, (sx, sy): &Self::Shard) -> (f64, ()) {
        (self.model.replay_step_plan(plan, ps, sx, sy) as f64, ())
    }
}

/// The per-step dropout stream key for workloads with stochastic layers:
/// fixed `seed` for the run, `step` advancing every optimizer step. Shards
/// derive their [`DropCtx`] from this plus their global row offset, so
/// masks are identical for every shard count.
#[derive(Clone, Copy, Debug)]
pub struct DropPlan {
    pub seed: u64,
    pub step: u64,
}

/// One BPTT window of the PTB language model. Tracks are sharded by index,
/// so each shard carries its own slice of the recurrent state; reassemble
/// the returned extras with [`PtbStep::merge_states`].
pub struct PtbStep<'a> {
    pub model: &'a PtbLm,
    pub window: &'a LmBatch,
    pub state: &'a LmState,
    /// `Some` enables training-mode dropout (a no-op for `keep = 1.0`
    /// models); `None` runs the deterministic mask-free forward.
    pub drop: Option<DropPlan>,
}

impl PtbStep<'_> {
    /// Reassembles per-shard carried states (in shard order) into the
    /// full-batch state for the next window.
    pub fn merge_states(states: Vec<LmState>) -> LmState {
        assert!(!states.is_empty(), "merge of zero shard states");
        if states.len() == 1 {
            states.into_iter().next().unwrap()
        } else {
            LmState::concat(&states)
        }
    }

    /// The dropout stream of the shard whose first track is global row
    /// `row0`.
    fn drop_ctx(&self, row0: usize) -> Option<DropCtx> {
        self.drop.map(|d| DropCtx { seed: d.seed, step: d.step, row0 })
    }
}

impl ShardStep for PtbStep<'_> {
    /// `(window slice, state slice, global index of the shard's first track)`.
    type Shard = (LmBatch, LmState, usize);
    type Extra = LmState;

    fn reduce(&self) -> Reduce {
        Reduce::WeightedMean
    }

    fn split(&self, exec: &Executor) -> Vec<Self::Shard> {
        let ranges = exec.shard_ranges(self.window.tracks());
        if ranges.len() == 1 {
            vec![(self.window.clone(), self.state.clone(), 0)]
        } else {
            ranges
                .iter()
                .map(|r| {
                    (
                        self.window.slice_tracks(r.start, r.end),
                        self.state.slice_rows(r.start, r.end),
                        r.start,
                    )
                })
                .collect()
        }
    }

    fn weight(&self, shard: &Self::Shard) -> f64 {
        shard.0.tracks() as f64
    }

    /// Tracks × window length × dropout arity. Dropout masks are feeds, so
    /// the *step* is not part of the key — one plan serves the whole run.
    fn plan_key(&self, (sw, _, _): &Self::Shard) -> Vec<usize> {
        vec![sw.tracks(), sw.inputs.len(), usize::from(self.drop.is_some())]
    }

    /// The window, with the final per-layer `[h, c]` as the values a
    /// replay reads back: the state it carries into the next window.
    fn record(
        &self,
        g: &mut Graph,
        bd: &mut Binding,
        ps: &ParamSet,
        (sw, ss, row0): &Self::Shard,
    ) -> (Var, Vec<Var>) {
        self.model.record_window(g, bd, ps, sw, ss, self.drop_ctx(*row0).as_ref())
    }

    fn tape_extra(&self, g: &Graph, outputs: &[Var], _: &Self::Shard) -> LmState {
        LmState::from_tape(g, outputs)
    }

    fn replay(
        &self,
        ps: &ParamSet,
        plan: &mut StepPlan,
        (sw, ss, row0): &Self::Shard,
    ) -> (f64, LmState) {
        let ctx = self.drop_ctx(*row0);
        self.model.replay_window_plan(plan, ps, sw, ss, ctx.as_ref())
    }
}

/// One step of the seq2seq model.
///
/// The serial loss averages each decode step over the globally active
/// (unmasked) rows, so an example-count weighted mean of shard losses
/// would be wrong for ragged batches. Instead each shard scales step `t`
/// by `active_in_shard / active_in_batch` (computed at split time from the
/// full batch) and the shards combine by plain [`Reduce::Sum`], which
/// reproduces the serial loss and gradient exactly.
pub struct Seq2SeqStep<'a> {
    pub model: &'a Seq2Seq,
    pub batch: &'a TranslationBatch,
}

impl ShardStep for Seq2SeqStep<'_> {
    type Shard = (TranslationBatch, Option<Vec<f32>>);
    type Extra = ();

    fn reduce(&self) -> Reduce {
        Reduce::Sum
    }

    fn split(&self, exec: &Executor) -> Vec<Self::Shard> {
        let active = |step: &[usize]| step.iter().filter(|&&t| t != usize::MAX).count() as f32;
        let ranges = exec.shard_ranges(self.batch.batch_size());
        if ranges.len() == 1 {
            vec![(self.batch.clone(), None)]
        } else {
            let global: Vec<f32> = self.batch.dec_tgt.iter().map(|s| active(s)).collect();
            ranges
                .iter()
                .map(|r| {
                    let sb = self.batch.slice(r.start, r.end);
                    let scale: Vec<f32> = sb
                        .dec_tgt
                        .iter()
                        .zip(&global)
                        .map(|(s, &ga)| if ga > 0.0 { active(s) / ga } else { 0.0 })
                        .collect();
                    (sb, Some(scale))
                })
                .collect()
        }
    }

    fn weight(&self, shard: &Self::Shard) -> f64 {
        shard.0.batch_size() as f64
    }

    /// Batch size × source length × decode steps × sharded. The loss
    /// scales are plan inputs, so their values are not part of the key —
    /// one plan per shard slot serves the whole run.
    fn plan_key(&self, (sb, scale): &Self::Shard) -> Vec<usize> {
        vec![sb.batch_size(), sb.src.len(), sb.dec_in.len(), usize::from(scale.is_some())]
    }

    fn record(
        &self,
        g: &mut Graph,
        bd: &mut Binding,
        ps: &ParamSet,
        (sb, scale): &Self::Shard,
    ) -> (Var, Vec<Var>) {
        (self.model.record_loss(g, bd, ps, sb, scale.as_deref()), Vec::new())
    }

    fn tape_extra(&self, _: &Graph, _: &[Var], _: &Self::Shard) {}

    fn replay(&self, ps: &ParamSet, plan: &mut StepPlan, (sb, scale): &Self::Shard) -> (f64, ()) {
        (self.model.replay_step_plan(plan, ps, sb, scale.as_deref()), ())
    }
}

/// One step of the ResNet. Each shard normalises with its own batch
/// statistics (the standard non-synchronised distributed-BN semantics) and
/// returns them, with its example count, as its extra; no forward writes
/// the model, so every shard reads the one `model`. Fold the extras into
/// the model's running statistics with [`ResnetStep::fold_stats`].
pub struct ResnetStep<'a> {
    pub model: &'a ResNet,
    pub bx: &'a Tensor,
    pub by: &'a [usize],
}

/// Per BatchNorm op in tape order, its batch `(mean, var)`.
pub type BnBatchStats = Vec<(Vec<f32>, Vec<f32>)>;

impl ResnetStep<'_> {
    /// Folds per-shard `(example count, batch statistics)` extras into
    /// `model`'s BatchNorm running statistics, weighted by example
    /// fraction ([`ResNet::fold_batch_stats`]). Deterministic: extras
    /// arrive in shard order, and one shard folds with weight 1.0, the
    /// serial update.
    pub fn fold_stats(model: &mut ResNet, extras: &[(f32, BnBatchStats)]) {
        let total: f32 = extras.iter().map(|(c, _)| c).sum();
        let shards: Vec<_> = extras.iter().map(|(c, s)| (c / total, &s[..])).collect();
        model.fold_batch_stats(&shards);
    }
}

/// The batch statistics a tape or plan keeps, copied out of it.
fn owned(stats: Vec<(&[f32], &[f32])>) -> BnBatchStats {
    stats.into_iter().map(|(mean, var)| (mean.to_vec(), var.to_vec())).collect()
}

impl ShardStep for ResnetStep<'_> {
    type Shard = (Tensor, Vec<usize>);
    type Extra = (f32, BnBatchStats);

    fn reduce(&self) -> Reduce {
        Reduce::WeightedMean
    }

    fn split(&self, exec: &Executor) -> Vec<Self::Shard> {
        let ranges = exec.shard_ranges(self.by.len());
        if ranges.len() == 1 {
            vec![(self.bx.clone(), self.by.to_vec())]
        } else {
            ranges
                .iter()
                .map(|r| (self.bx.slice_outer(r.start, r.end), self.by[r.start..r.end].to_vec()))
                .collect()
        }
    }

    fn weight(&self, shard: &Self::Shard) -> f64 {
        shard.1.len() as f64
    }

    fn plan_key(&self, (sx, _): &Self::Shard) -> Vec<usize> {
        sx.shape().to_vec()
    }

    fn record(
        &self,
        g: &mut Graph,
        bd: &mut Binding,
        ps: &ParamSet,
        (sx, sy): &Self::Shard,
    ) -> (Var, Vec<Var>) {
        let logits = self.model.forward(g, bd, ps, sx, true);
        (g.softmax_cross_entropy(logits, sy), Vec::new())
    }

    fn tape_extra(&self, g: &Graph, _: &[Var], (_, sy): &Self::Shard) -> Self::Extra {
        (sy.len() as f32, owned(g.bn_batch_stats()))
    }

    fn replay(
        &self,
        ps: &ParamSet,
        plan: &mut StepPlan,
        (sx, sy): &Self::Shard,
    ) -> (f64, Self::Extra) {
        let loss = self.model.replay_step_plan(plan, ps, sx, sy) as f64;
        (loss, (sy.len() as f32, owned(plan.bn_batch_stats())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecConfig;
    use legw_data::SynthMnist;
    use legw_models::MnistLstm;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn step_mnist_sharded_matches_serial_grads() {
        let data = SynthMnist::generate(1, 24, 8);
        let (bx, by) = data.train.gather(&(0..11).collect::<Vec<_>>());
        let grads_at = |shards: usize| {
            let mut ps = ParamSet::new();
            let mut rng = StdRng::seed_from_u64(5);
            let model = MnistLstm::new(&mut ps, &mut rng, 8, 8);
            let exec = Executor::new(ExecConfig::default().with_shards(shards));
            let (out, _) = exec.step(&MnistStep { model: &model, bx: &bx, by: &by }, &mut ps);
            assert!(!out.diverged);
            // The fused apply's norm accumulation must agree with the
            // post-apply sweep it replaces.
            let norm = ps.grad_norm() as f64;
            assert!(
                (out.grad_sq_norm.sqrt() - norm).abs() < 1e-4 * (1.0 + norm),
                "fused grad norm {} vs swept {}",
                out.grad_sq_norm.sqrt(),
                norm
            );
            let grads: Vec<f32> = ps.iter().flat_map(|(_, p)| p.grad.as_slice().to_vec()).collect();
            (out.loss, grads)
        };
        let (l1, g1) = grads_at(1);
        let (l3, g3) = grads_at(3);
        assert!((l1 - l3).abs() < 1e-6, "loss {l1} vs {l3}");
        for (a, b) in g1.iter().zip(&g3) {
            assert!((a - b).abs() < 1e-5, "grad mismatch {a} vs {b}");
        }
    }
}
