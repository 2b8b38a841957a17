//! The training loop. [`train`] is the one schedule-driven,
//! divergence-aware loop every application runs through; what differs
//! between the four applications of Table 1 is a [`Workload`]. The caller
//! owns the `ParamSet`, the model the workload borrows, the optimizer, the
//! RNG and the [`Executor`], so what was trained stays with it.
//!
//! `train_{mnist,ptb,seq2seq,resnet}` are the environment-configured
//! constructors: seed the RNG, build model and optimizer, take the executor
//! from [`ExecConfig::from_env`] (serial by default; set `LEGW_SHARDS` to
//! shard batches across workers), call [`train`].

use crate::exec::{ExecConfig, Executor, StepOutcome};
use crate::plan_cache::PlanCache;
use crate::steps::{DropPlan, MnistStep, PtbStep, ResnetStep, Seq2SeqStep};
use legw_data::{
    Batches, LmBatch, SynthImageNet, SynthMnist, SynthPtb, SynthTranslation, TranslationBatch,
};
use legw_models::{
    LmState, MnistLstm, PtbLm, PtbLmConfig, ResNet, Seq2Seq, Seq2SeqConfig, StepPlan,
};
use legw_nn::ParamSet;
use legw_optim::{build, Optimizer, SolverKind};
use legw_schedules::BaselineSchedule;
use legw_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Outcome of one training run.
#[derive(Clone, Debug, Default)]
pub struct TrainReport {
    /// The application's final quality metric (accuracy / perplexity / BLEU
    /// / top-1 — see the producing workload).
    pub final_metric: f64,
    /// Secondary metric when the application has one (ImageNet top-5).
    pub secondary_metric: Option<f64>,
    /// `(epoch, metric)` samples taken during training.
    pub history: Vec<(f64, f64)>,
    /// Mean training loss per epoch.
    pub epoch_losses: Vec<f64>,
    /// True if the run produced NaN/Inf and was aborted (the metric is then
    /// the worst possible value for the application).
    pub diverged: bool,
    /// Optimizer steps executed.
    pub iterations: usize,
}

/// Gradient-clipping norm used by the recurrent applications (standard LSTM
/// practice; applied identically to every method under comparison).
pub const RNN_CLIP: f32 = 5.0;

/// What differs between the applications [`train`] runs.
pub trait Workload {
    /// One training batch.
    type Batch;
    /// The batches of one epoch, in order.
    type Epoch: Iterator<Item = Self::Batch>;

    /// Whether the loop clips the global gradient norm to [`RNN_CLIP`].
    const CLIPS: bool;

    /// Optimizer steps per epoch at `batch` examples per step.
    fn iters_per_epoch(&self, batch: usize) -> usize;

    /// Starts an epoch: draws its batch order from `rng` and resets any
    /// state carried from step to step.
    fn epoch(&mut self, batch: usize, rng: &mut StdRng) -> Self::Epoch;

    /// The gradients of optimizer step `iter`: one
    /// [`Executor::step_planned`] plus the family's post-step fold.
    fn step(
        &mut self,
        exec: &Executor,
        cache: &PlanCache<StepPlan>,
        ps: &mut ParamSet,
        iter: usize,
        batch: &Self::Batch,
    ) -> StepOutcome;

    /// The held-out `(metric, secondary metric)` of a run training at
    /// `batch` examples per step.
    fn eval(&self, exec: &Executor, ps: &ParamSet, batch: usize) -> (f64, Option<f64>);

    /// What a diverged run reports in place of [`Workload::eval`]: the
    /// worst value of each metric.
    fn diverged_metrics(&self) -> (f64, Option<f64>);
}

/// Trains `w` under `schedule` on `exec`: per optimizer step one
/// [`Workload::step`], a divergence scan, the clip, `opt.step` at the
/// schedule's learning rate and `zero_grad`; per epoch one
/// [`Workload::eval`] into the report's history.
///
/// `before_step(iter, ps)` sees the parameters each step is about to use.
/// It observes and must not steer: it has to leave `ps` as it found it,
/// the way [`local_lipschitz`](crate::lipschitz::local_lipschitz) restores
/// what it perturbs.
pub fn train<W: Workload>(
    w: &mut W,
    ps: &mut ParamSet,
    opt: &mut dyn Optimizer,
    schedule: &BaselineSchedule,
    rng: &mut StdRng,
    exec: &Executor,
    mut before_step: impl FnMut(usize, &mut ParamSet),
) -> TrainReport {
    // Shape-keyed compiled plans: after the first batch of each shard
    // shape, steps replay tape-free (see crate::plan_cache).
    let cache = PlanCache::for_executor(exec);

    let batch = schedule.batch_size();
    let ipe = w.iters_per_epoch(batch);
    let total_iters = (schedule.total_epochs() * ipe as f64).round() as usize;
    let mut report = TrainReport::default();

    let mut iter = 0usize;
    'outer: while iter < total_iters {
        let mut epoch_loss = 0.0f64;
        let mut epoch_count = 0usize;
        for b in w.epoch(batch, rng) {
            if iter >= total_iters {
                break;
            }
            before_step(iter, ps);
            let lr = schedule.lr_at_iter(iter, ipe) as f32;
            let out = w.step(exec, &cache, ps, iter, &b);
            epoch_loss += out.loss;
            epoch_count += 1;
            if out.diverged || ps.has_nonfinite_value() {
                report.diverged = true;
                break 'outer;
            }
            if W::CLIPS {
                // The executor accumulated Σg² while applying the combined
                // gradient, so clipping needs no extra full-parameter sweep.
                ps.clip_grad_norm_from(out.grad_sq_norm.sqrt() as f32, RNN_CLIP);
            }
            opt.step(ps, lr);
            ps.zero_grad();
            iter += 1;
        }
        if epoch_count > 0 {
            report.epoch_losses.push(epoch_loss / epoch_count as f64);
        }
        let (metric, secondary) = w.eval(exec, ps, batch);
        report.history.push((iter as f64 / ipe as f64, metric));
        report.secondary_metric = secondary;
    }
    report.iterations = iter;
    (report.final_metric, report.secondary_metric) =
        if report.diverged { w.diverged_metrics() } else { w.eval(exec, ps, batch) };
    report
}

/// The MNIST-LSTM classifier (§5.1.1). Metric: test accuracy. The model is
/// borrowed, so a `before_step` probe can read it while the loop runs.
pub struct MnistWorkload<'a> {
    pub model: &'a MnistLstm,
    pub data: &'a SynthMnist,
}

impl<'a> Workload for MnistWorkload<'a> {
    type Batch = (Tensor, Vec<usize>);
    type Epoch = Batches<'a>;
    const CLIPS: bool = true;

    fn iters_per_epoch(&self, batch: usize) -> usize {
        self.data.train.iters_per_epoch(batch)
    }

    fn epoch(&mut self, batch: usize, rng: &mut StdRng) -> Batches<'a> {
        self.data.train.epoch_batches(batch, rng)
    }

    fn step(
        &mut self,
        exec: &Executor,
        cache: &PlanCache<StepPlan>,
        ps: &mut ParamSet,
        _iter: usize,
        (bx, by): &Self::Batch,
    ) -> StepOutcome {
        exec.step_planned(&MnistStep { model: self.model, bx, by }, ps, cache).0
    }

    fn eval(&self, exec: &Executor, ps: &ParamSet, _batch: usize) -> (f64, Option<f64>) {
        (exec.eval_mnist(self.model, ps, &self.data.test, 256), None)
    }

    fn diverged_metrics(&self) -> (f64, Option<f64>) {
        (0.0, None)
    }
}

/// The PTB language model (§5.1.2). Metric: validation perplexity (lower is
/// better); a diverged run reports perplexity = vocab size. Carries the
/// recurrent state from window to window and zeroes it at each epoch.
pub struct PtbWorkload<'a> {
    pub model: &'a PtbLm,
    pub data: &'a SynthPtb,
    pub seq_len: usize,
    /// Seed of the counter-based dropout streams: masks are a pure
    /// function of (this seed, optimizer step, global row), so they replay
    /// exactly and are identical for every shard count.
    pub seed: u64,
    /// The carried recurrent state; `None` until an epoch starts (its
    /// batch sizes it).
    pub state: Option<LmState>,
}

impl Workload for PtbWorkload<'_> {
    type Batch = LmBatch;
    type Epoch = std::vec::IntoIter<LmBatch>;
    const CLIPS: bool = true;

    fn iters_per_epoch(&self, batch: usize) -> usize {
        self.data.iters_per_epoch(batch, self.seq_len)
    }

    fn epoch(&mut self, batch: usize, _rng: &mut StdRng) -> Self::Epoch {
        self.state = Some(LmState::zeros(self.model.config(), batch));
        self.data.batches(true, batch, self.seq_len).into_iter()
    }

    /// One compiled plan per (shard, window shape) serves the whole run:
    /// dropout masks enter as per-step feeds.
    fn step(
        &mut self,
        exec: &Executor,
        cache: &PlanCache<StepPlan>,
        ps: &mut ParamSet,
        iter: usize,
        window: &LmBatch,
    ) -> StepOutcome {
        let step = PtbStep {
            model: self.model,
            window,
            state: self.state.as_ref().expect("step outside an epoch"),
            drop: Some(DropPlan { seed: self.seed, step: iter as u64 }),
        };
        let (out, shard_states) = exec.step_planned(&step, ps, cache);
        self.state = Some(PtbStep::merge_states(shard_states));
        out
    }

    fn eval(&self, exec: &Executor, ps: &ParamSet, batch: usize) -> (f64, Option<f64>) {
        let tracks = batch.min(32);
        (exec.eval_ptb_perplexity(self.model, ps, self.data, tracks, self.seq_len), None)
    }

    fn diverged_metrics(&self) -> (f64, Option<f64>) {
        (self.model.config().vocab as f64, None)
    }
}

/// The GNMT-style seq2seq model (§5.1.3). Metric: test BLEU. Compiled
/// plans cover the shape-static encoder, keyed by (batch, source length);
/// the attention decoder stays tape-driven.
pub struct Seq2SeqWorkload<'a> {
    pub model: &'a Seq2Seq,
    pub data: &'a SynthTranslation,
}

impl Workload for Seq2SeqWorkload<'_> {
    type Batch = TranslationBatch;
    type Epoch = std::vec::IntoIter<TranslationBatch>;
    const CLIPS: bool = true;

    fn iters_per_epoch(&self, batch: usize) -> usize {
        self.data.iters_per_epoch(batch)
    }

    fn epoch(&mut self, batch: usize, _rng: &mut StdRng) -> Self::Epoch {
        self.data.batches(true, batch).into_iter()
    }

    fn step(
        &mut self,
        exec: &Executor,
        cache: &PlanCache<StepPlan>,
        ps: &mut ParamSet,
        _iter: usize,
        batch: &TranslationBatch,
    ) -> StepOutcome {
        exec.step_planned(&Seq2SeqStep { model: self.model, batch }, ps, cache).0
    }

    fn eval(&self, exec: &Executor, ps: &ParamSet, _batch: usize) -> (f64, Option<f64>) {
        (exec.eval_seq2seq_bleu(self.model, ps, self.data, 64), None)
    }

    fn diverged_metrics(&self) -> (f64, Option<f64>) {
        (0.0, None)
    }
}

/// The ResNet stand-in (§6). Metric: test top-1; secondary: top-`top_k`
/// (the ImageNet experiments report top-5; with fewer classes we use
/// top-3). Not clipped. Every step folds the shards' BatchNorm batch
/// statistics into the model, which is why it is borrowed mutably.
pub struct ResnetWorkload<'a> {
    pub model: &'a mut ResNet,
    pub data: &'a SynthImageNet,
    pub top_k: usize,
}

impl<'a> Workload for ResnetWorkload<'a> {
    type Batch = (Tensor, Vec<usize>);
    type Epoch = Batches<'a>;
    const CLIPS: bool = false;

    fn iters_per_epoch(&self, batch: usize) -> usize {
        self.data.train.iters_per_epoch(batch)
    }

    fn epoch(&mut self, batch: usize, rng: &mut StdRng) -> Batches<'a> {
        self.data.train.epoch_batches(batch, rng)
    }

    fn step(
        &mut self,
        exec: &Executor,
        cache: &PlanCache<StepPlan>,
        ps: &mut ParamSet,
        _iter: usize,
        (bx, by): &Self::Batch,
    ) -> StepOutcome {
        let (out, stats) = exec.step_planned(&ResnetStep { model: self.model, bx, by }, ps, cache);
        ResnetStep::fold_stats(self.model, &stats);
        out
    }

    fn eval(&self, exec: &Executor, ps: &ParamSet, _batch: usize) -> (f64, Option<f64>) {
        let (t1, tk) = exec.eval_resnet(self.model, ps, &self.data.test, 128, self.top_k);
        (t1, Some(tk))
    }

    fn diverged_metrics(&self) -> (f64, Option<f64>) {
        (0.0, Some(0.0))
    }
}

/// The executor of the `train_<family>` constructors (and of
/// [`mnist_lipschitz_trace`](crate::lipschitz::mnist_lipschitz_trace)),
/// configured by `LEGW_SHARDS` / `LEGW_THREADS` — this crate's one
/// [`ExecConfig::from_env`] call.
pub(crate) fn env_executor() -> Executor {
    Executor::new(ExecConfig::from_env())
}

/// Trains a fresh MNIST-LSTM classifier: [`train`] over [`MnistWorkload`].
pub fn train_mnist(
    data: &SynthMnist,
    proj: usize,
    hidden: usize,
    schedule: &BaselineSchedule,
    solver: SolverKind,
    seed: u64,
) -> TrainReport {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ps = ParamSet::new();
    let model = MnistLstm::new(&mut ps, &mut rng, proj, hidden);
    let mut opt = build(solver, 0.0);
    let mut w = MnistWorkload { model: &model, data };
    train(&mut w, &mut ps, opt.as_mut(), schedule, &mut rng, &env_executor(), |_, _| {})
}

/// Trains a fresh PTB language model: [`train`] over [`PtbWorkload`], with
/// `seed` also keying the dropout streams.
pub fn train_ptb(
    data: &SynthPtb,
    cfg: PtbLmConfig,
    seq_len: usize,
    schedule: &BaselineSchedule,
    solver: SolverKind,
    seed: u64,
) -> TrainReport {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ps = ParamSet::new();
    let model = PtbLm::new(&mut ps, &mut rng, cfg);
    let mut opt = build(solver, 0.0);
    let mut w = PtbWorkload { model: &model, data, seq_len, seed, state: None };
    train(&mut w, &mut ps, opt.as_mut(), schedule, &mut rng, &env_executor(), |_, _| {})
}

/// Trains a fresh seq2seq model: [`train`] over [`Seq2SeqWorkload`].
pub fn train_seq2seq(
    data: &SynthTranslation,
    cfg: Seq2SeqConfig,
    schedule: &BaselineSchedule,
    solver: SolverKind,
    seed: u64,
) -> TrainReport {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ps = ParamSet::new();
    let model = Seq2Seq::new(&mut ps, &mut rng, cfg);
    let mut opt = build(solver, 0.0);
    let mut w = Seq2SeqWorkload { model: &model, data };
    train(&mut w, &mut ps, opt.as_mut(), schedule, &mut rng, &env_executor(), |_, _| {})
}

/// Trains a fresh ResNet: [`train`] over [`ResnetWorkload`].
pub fn train_resnet(
    data: &SynthImageNet,
    width: usize,
    top_k: usize,
    schedule: &BaselineSchedule,
    solver: SolverKind,
    weight_decay: f32,
    seed: u64,
) -> TrainReport {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ps = ParamSet::new();
    let mut model = ResNet::new(&mut ps, &mut rng, width, data.n_classes);
    let mut opt = build(solver, weight_decay);
    let mut w = ResnetWorkload { model: &mut model, data, top_k };
    train(&mut w, &mut ps, opt.as_mut(), schedule, &mut rng, &env_executor(), |_, _| {})
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mnist_short_run_learns_above_chance() {
        let data = SynthMnist::generate(1, 400, 120);
        let sched = BaselineSchedule::constant(32, 0.4, 0.2, 3.0);
        let rep = train_mnist(&data, 24, 24, &sched, SolverKind::Momentum, 7);
        assert!(!rep.diverged);
        assert!(rep.final_metric > 0.25, "3-epoch accuracy {:.3} should beat chance", rep.final_metric);
        assert_eq!(rep.history.len(), 3);
        assert!(rep.iterations > 0);
    }

    #[test]
    fn mnist_huge_lr_destroys_training() {
        // With bounded activations and a clamped CE the run may not reach
        // literal NaN, but an absurd LR must leave accuracy at chance level.
        let data = SynthMnist::generate(1, 200, 50);
        let sched = BaselineSchedule::constant(32, 1e4, 0.0, 1.0);
        let rep = train_mnist(&data, 16, 16, &sched, SolverKind::Sgd, 7);
        assert!(rep.diverged || rep.final_metric <= 0.25, "metric {}", rep.final_metric);
    }

    #[test]
    fn ptb_short_run_beats_uniform() {
        let data = SynthPtb::generate(2, 60, 6, 20_000, 4_000);
        let cfg = PtbLmConfig { vocab: 60, embed: 24, hidden: 24, layers: 2, keep: 1.0 };
        let sched = BaselineSchedule::constant(8, 0.8, 0.1, 1.0);
        let rep = train_ptb(&data, cfg, 10, &sched, SolverKind::Momentum, 3);
        assert!(!rep.diverged);
        assert!(
            rep.final_metric < 60.0 * 0.8,
            "1-epoch ppl {:.1} should beat uniform 60",
            rep.final_metric
        );
        assert!(rep.final_metric > data.perplexity_floor());
    }

    #[test]
    fn seq2seq_short_run_moves_loss() {
        let data = SynthTranslation::generate(3, 16, 128, 32, 3, 5);
        let cfg = Seq2SeqConfig { vocab: data.vocab, embed: 16, hidden: 16, attn: 12, max_decode: 7 };
        let sched = BaselineSchedule::constant(16, 0.5, 0.2, 2.0);
        let rep = train_seq2seq(&data, cfg, &sched, SolverKind::Momentum, 5);
        assert!(!rep.diverged);
        assert!(rep.epoch_losses.len() >= 2);
        assert!(
            rep.epoch_losses.last().unwrap() < &rep.epoch_losses[0],
            "loss should fall: {:?}",
            rep.epoch_losses
        );
    }

    #[test]
    fn resnet_short_run_learns_above_chance() {
        let data = SynthImageNet::generate_sized(4, 6, 360, 60, 16);
        let sched = BaselineSchedule::poly(16, 4.0, 0.125, 5.0, 2.0);
        let rep = train_resnet(&data, 8, 3, &sched, SolverKind::Lars, 1e-4, 9);
        assert!(!rep.diverged);
        assert!(rep.final_metric > 1.0 / 6.0, "top-1 {:.3} above chance", rep.final_metric);
        let tk = rep.secondary_metric.unwrap();
        assert!(tk >= rep.final_metric);
    }

    #[test]
    fn schedule_epoch_budget_controls_iteration_count() {
        let data = SynthMnist::generate(5, 128, 32);
        let sched = BaselineSchedule::constant(32, 0.1, 0.0, 3.0);
        let rep = train_mnist(&data, 8, 8, &sched, SolverKind::Sgd, 1);
        assert_eq!(rep.iterations, 3 * (128 / 32));
    }
}
