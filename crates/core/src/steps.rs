//! The four training workloads as pluggable [`ShardStep`] implementations.
//!
//! A workload says how to *split* its batch, what each shard *weighs*, how
//! to *run* one shard on a fresh tape, and how to *key*, *capture* and
//! *replay* that shard as a compiled plan. The executor owns the rest —
//! shard scheduling, the gradient reduction, applying the combined
//! gradient — in two drivers over the one trait: [`Executor::step`] runs
//! every shard on the tape (the reference the bitwise suites compare
//! against), [`Executor::step_planned`](crate::plan_cache) replays cached
//! plans and is what [`crate::trainer::train`] steps through.
//!
//! Workload-specific post-processing stays next to the workload:
//! [`PtbStep::merge_states`] reassembles the carried LSTM state and
//! [`ResnetStep::fold_stats`] folds shard BatchNorm statistics back into
//! the model.

use crate::exec::{Executor, Reduce, ShardOut, StepOutcome};
use legw_data::{LmBatch, TranslationBatch};
use legw_models::{LmState, MnistLstm, PtbLm, ResNet, Seq2Seq, StepPlan};
use legw_nn::{DropCtx, GradBuffer, ParamSet};
use legw_tensor::Tensor;
use std::sync::Mutex;

/// One data-parallel training workload: how a batch splits into shards and
/// how one shard computes its loss and gradients. Implementations are
/// borrowed views over the model + batch, built per step.
pub trait ShardStep: Sync {
    /// Per-shard owned work item (sliced inputs, shard state, …).
    type Shard: Sync;
    /// Per-shard result payload returned alongside the [`StepOutcome`].
    type Extra: Send;

    /// How shard gradients and losses combine.
    fn reduce(&self) -> Reduce;

    /// Splits the batch into at most [`Executor::shards`] work items.
    fn split(&self, exec: &Executor) -> Vec<Self::Shard>;

    /// The [`Reduce::WeightedMean`] combination weight (example count) of
    /// one shard. Ignored for [`Reduce::Sum`] workloads.
    fn weight(&self, shard: &Self::Shard) -> f64;

    /// Forward + backward for one shard. Must be deterministic per shard —
    /// the executor may run it on any worker thread.
    fn run_shard(&self, ps: &ParamSet, index: usize, shard: &Self::Shard)
        -> ShardOut<Self::Extra>;

    /// The plan-cache key identifying this shard's tape structure. Two
    /// shards of one workload with equal keys must build structurally
    /// identical tapes (same ops, same shapes) — only the fed data may
    /// differ.
    fn plan_key(&self, shard: &Self::Shard) -> Vec<usize>;

    /// Captures a plan for this shard, or `None` when the capture is
    /// mis-specified (see [`StepPlan::capture`]; no op is beyond a plan). The
    /// executor then falls back to [`ShardStep::run_shard`] — and retries
    /// the capture on the shape's next occurrence.
    fn capture(&self, ps: &ParamSet, shard: &Self::Shard) -> Option<StepPlan>;

    /// Replays the captured plan for one shard. Must produce the same
    /// [`ShardOut`] as [`ShardStep::run_shard`] (bitwise, or to the
    /// documented ≤1e-5 for reassociated reductions).
    fn replay(&self, ps: &ParamSet, plan: &mut StepPlan, shard: &Self::Shard)
        -> ShardOut<Self::Extra>;
}

impl Executor {
    /// One sharded training step of any [`ShardStep`] workload: split, run
    /// shards (streaming the gradient reduction as they complete), apply
    /// the combined gradient into `ps.grad` with the fused Σg² sweep.
    /// Returns the outcome plus the per-shard extras in shard order. The
    /// caller clips/steps/zeroes as usual.
    pub fn step<W: ShardStep>(&self, w: &W, ps: &mut ParamSet) -> (StepOutcome, Vec<W::Extra>) {
        let shards = w.split(self);
        let weights: Vec<f64> = shards.iter().map(|s| w.weight(s)).collect();
        let ps_ref: &ParamSet = ps;
        let (grads, mut out, extras) =
            self.run_shards(w.reduce(), &shards, &weights, |i, s| w.run_shard(ps_ref, i, s));
        out.grad_sq_norm = grads.apply_with_sq_norm(ps);
        (out, extras)
    }
}

/// Shared tail of every tape shard body: backward, drain the tape's
/// gradients into a fresh buffer.
fn collect_grads(
    mut g: legw_autograd::Graph,
    bd: legw_nn::Binding,
    loss: legw_autograd::Var,
    ps: &ParamSet,
) -> GradBuffer {
    g.backward(loss);
    let mut buf = GradBuffer::for_params(ps);
    bd.write_grads_to(&g, &mut buf);
    buf
}

/// Shared tail of every replayed shard body: drain the plan's gradients
/// into a fresh buffer.
fn plan_grads(plan: &StepPlan, ps: &ParamSet) -> GradBuffer {
    let mut buf = GradBuffer::for_params(ps);
    plan.write_grads_to(&mut buf);
    buf
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

    fn run_shard(&self, ps: &ParamSet, _i: usize, (sx, sy): &Self::Shard) -> ShardOut<()> {
        let (g, bd, loss, _) = self.model.forward_loss(ps, sx, sy);
        let lv = g.value(loss).item() as f64;
        ShardOut { grads: collect_grads(g, bd, loss, ps), loss: lv, extra: () }
    }

    fn plan_key(&self, (_, sy): &Self::Shard) -> Vec<usize> {
        vec![sy.len()]
    }

    fn capture(&self, ps: &ParamSet, (sx, sy): &Self::Shard) -> Option<StepPlan> {
        self.model.capture_step_plan(ps, sx, sy)
    }

    fn replay(&self, ps: &ParamSet, plan: &mut StepPlan, (sx, sy): &Self::Shard) -> ShardOut<()> {
        let loss = self.model.replay_step_plan(plan, ps, sx, sy) as f64;
        ShardOut { grads: plan_grads(plan, ps), loss, extra: () }
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

    fn run_shard(
        &self,
        ps: &ParamSet,
        _i: usize,
        (sw, ss, row0): &Self::Shard,
    ) -> ShardOut<LmState> {
        let ctx = self.drop_ctx(*row0);
        let (g, bd, loss, nll, next) = self.model.forward_loss_with(ps, sw, ss, ctx.as_ref());
        ShardOut { grads: collect_grads(g, bd, loss, ps), loss: nll, extra: next }
    }

    /// Tracks × window length × dropout arity. Dropout masks are feeds, so
    /// the *step* is not part of the key — one plan serves the whole run.
    fn plan_key(&self, (sw, _, _): &Self::Shard) -> Vec<usize> {
        vec![sw.tracks(), sw.inputs.len(), usize::from(self.drop.is_some())]
    }

    fn capture(&self, ps: &ParamSet, (sw, ss, row0): &Self::Shard) -> Option<StepPlan> {
        self.model.capture_window_plan(ps, sw, ss, self.drop_ctx(*row0).as_ref())
    }

    fn replay(
        &self,
        ps: &ParamSet,
        plan: &mut StepPlan,
        (sw, ss, row0): &Self::Shard,
    ) -> ShardOut<LmState> {
        let ctx = self.drop_ctx(*row0);
        let (nll, next) = self.model.replay_window_plan(plan, ps, sw, ss, ctx.as_ref());
        ShardOut { grads: plan_grads(plan, ps), loss: nll, extra: next }
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

    fn run_shard(&self, ps: &ParamSet, _i: usize, (sb, scale): &Self::Shard) -> ShardOut<()> {
        let (g, bd, loss, nll) = self.model.forward_loss_scaled(ps, sb, scale.as_deref());
        ShardOut { grads: collect_grads(g, bd, loss, ps), loss: nll, extra: () }
    }

    /// Batch size × source length key the *encoder* plan; the
    /// token-dependent decoder runs on a fresh tape every step inside
    /// [`legw_models::Seq2Seq::planned_loss_grads`], so decoder lengths and
    /// loss scales need not be keyed.
    fn plan_key(&self, (sb, _): &Self::Shard) -> Vec<usize> {
        vec![sb.batch_size(), sb.src.len()]
    }

    fn capture(&self, ps: &ParamSet, (sb, _): &Self::Shard) -> Option<StepPlan> {
        self.model.capture_encoder_plan(ps, sb)
    }

    fn replay(
        &self,
        ps: &ParamSet,
        plan: &mut StepPlan,
        (sb, scale): &Self::Shard,
    ) -> ShardOut<()> {
        let mut buf = GradBuffer::for_params(ps);
        let nll = self.model.planned_loss_grads(ps, sb, scale.as_deref(), plan, &mut buf);
        ShardOut { grads: buf, loss: nll, extra: () }
    }
}

/// One step of the ResNet. Each shard trains a clone of the model
/// (BatchNorm normalises with shard statistics — the standard
/// non-synchronised distributed-BN semantics); the shard running stats
/// come back as extras and must be folded into the model with
/// [`ResnetStep::fold_stats`]. The single-shard fold uses weight 1.0, so
/// the serial path stays bit-identical to mutating the model in place.
pub struct ResnetStep<'a> {
    pub model: &'a ResNet,
    pub bx: &'a Tensor,
    pub by: &'a [usize],
}

impl ResnetStep<'_> {
    /// Folds per-shard `(example count, trained clone)` extras back into
    /// `model`'s BatchNorm running statistics, weighted by example
    /// fraction. Deterministic: extras arrive in shard order.
    pub fn fold_stats(model: &mut ResNet, extras: &[(f32, ResNet)]) {
        let total: f32 = extras.iter().map(|(c, _)| c).sum();
        let sources: Vec<(f32, &ResNet)> =
            extras.iter().map(|(c, m)| (c / total, m)).collect();
        model.merge_shard_stats(&sources);
    }
}

impl ShardStep for ResnetStep<'_> {
    /// The clone travels in a `Mutex<Option<…>>` so the worker can move it
    /// out (forward mutates BN running stats) and return it as the extra.
    type Shard = (Tensor, Vec<usize>, Mutex<Option<ResNet>>);
    type Extra = (f32, ResNet);

    fn reduce(&self) -> Reduce {
        Reduce::WeightedMean
    }

    fn split(&self, exec: &Executor) -> Vec<Self::Shard> {
        let ranges = exec.shard_ranges(self.by.len());
        if ranges.len() == 1 {
            vec![(self.bx.clone(), self.by.to_vec(), Mutex::new(Some(self.model.clone())))]
        } else {
            ranges
                .iter()
                .map(|r| {
                    (
                        self.bx.slice_outer(r.start, r.end),
                        self.by[r.start..r.end].to_vec(),
                        Mutex::new(Some(self.model.clone())),
                    )
                })
                .collect()
        }
    }

    fn weight(&self, shard: &Self::Shard) -> f64 {
        shard.1.len() as f64
    }

    fn run_shard(
        &self,
        ps: &ParamSet,
        _i: usize,
        (sx, sy, cell): &Self::Shard,
    ) -> ShardOut<(f32, ResNet)> {
        let mut m = cell.lock().unwrap().take().expect("resnet shard clone already taken");
        let (g, bd, loss, _) = m.forward_loss(ps, sx, sy);
        let lv = g.value(loss).item() as f64;
        ShardOut {
            grads: collect_grads(g, bd, loss, ps),
            loss: lv,
            extra: (sy.len() as f32, m),
        }
    }

    fn plan_key(&self, (sx, _, _): &Self::Shard) -> Vec<usize> {
        sx.shape().to_vec()
    }

    fn capture(&self, ps: &ParamSet, (sx, sy, _): &Self::Shard) -> Option<StepPlan> {
        self.model.capture_step_plan(ps, sx, sy)
    }

    /// Replays fold the step's BatchNorm batch statistics into the shard
    /// clone like the tape path.
    fn replay(
        &self,
        ps: &ParamSet,
        plan: &mut StepPlan,
        (sx, sy, cell): &Self::Shard,
    ) -> ShardOut<(f32, ResNet)> {
        let mut m = cell.lock().unwrap().take().expect("resnet shard clone already taken");
        let loss = m.replay_step_plan(plan, ps, sx, sy) as f64;
        ShardOut { grads: plan_grads(plan, ps), loss, extra: (sy.len() as f32, m) }
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
            let grads: Vec<f32> =
                ps.iter().flat_map(|(_, p)| p.grad.as_slice().to_vec()).collect();
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
