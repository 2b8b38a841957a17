//! Training loops for the four applications, schedule-driven and
//! divergence-aware. Every step runs through the data-parallel
//! [`Executor`](crate::exec::Executor), configured from the environment at
//! the top of each loop ([`ExecConfig::from_env`] — serial by default; set
//! `LEGW_SHARDS` to shard batches across workers) and driven through the
//! per-workload [`ShardStep`](crate::steps::ShardStep) implementations.

use crate::exec::{ExecConfig, Executor};
use crate::plan_cache::PlanCache;
use crate::steps::{DropPlan, MnistStep, PtbStep, ResnetStep, Seq2SeqStep};
use legw_data::{SynthImageNet, SynthMnist, SynthPtb, SynthTranslation};
use legw_models::{LmState, MnistLstm, PtbLm, PtbLmConfig, ResNet, Seq2Seq, Seq2SeqConfig};
use legw_nn::ParamSet;
use legw_optim::{build, SolverKind};
use legw_schedules::BaselineSchedule;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Outcome of one training run.
#[derive(Clone, Debug)]
pub struct TrainReport {
    /// The application's final quality metric (accuracy / perplexity / BLEU
    /// / top-1 — see the producing function).
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

fn check_divergence(loss_diverged: bool, ps: &ParamSet) -> bool {
    loss_diverged || ps.any_nonfinite_fast()
}

trait FastFinite {
    fn any_nonfinite_fast(&self) -> bool;
}

impl FastFinite for ParamSet {
    fn any_nonfinite_fast(&self) -> bool {
        // Chunked scan exploiting `x * 0.0`: the product is +/-0 for every
        // finite x and NaN for NaN/±Inf, so a chunk is all-finite iff the
        // sum of products compares equal to zero. Branch-free per element
        // (vectorises), and — unlike the old `value_norm().is_finite()`
        // proxy — cannot overflow to Inf on large-but-finite parameters
        // and falsely flag divergence.
        for (_, p) in self.iter() {
            for chunk in p.value.as_slice().chunks(4096) {
                let acc: f32 = chunk.iter().map(|&v| v * 0.0).sum();
                if acc != 0.0 {
                    return true;
                }
            }
        }
        false
    }
}

/// Trains the MNIST-LSTM classifier (§5.1.1). Metric: test accuracy.
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
    let exec = Executor::new(ExecConfig::from_env());
    // Shape-keyed compiled plans: after the first batch of each shard
    // shape, steps replay tape-free (see crate::plan_cache).
    let cache = PlanCache::for_executor(&exec);

    let batch = schedule.batch_size();
    let ipe = data.train.iters_per_epoch(batch);
    let total_iters = (schedule.total_epochs() * ipe as f64).round() as usize;
    let mut report = TrainReport {
        final_metric: 0.0,
        secondary_metric: None,
        history: Vec::new(),
        epoch_losses: Vec::new(),
        diverged: false,
        iterations: 0,
    };

    let mut iter = 0usize;
    'outer: while iter < total_iters {
        let mut epoch_loss = 0.0f64;
        let mut epoch_count = 0usize;
        for (bx, by) in data.train.epoch_batches(batch, &mut rng) {
            if iter >= total_iters {
                break;
            }
            let lr = schedule.lr_at_iter(iter, ipe) as f32;
            let (out, _) =
                exec.step_planned(&MnistStep { model: &model, bx: &bx, by: &by }, &mut ps, &cache);
            epoch_loss += out.loss;
            epoch_count += 1;
            if check_divergence(out.diverged, &ps) {
                report.diverged = true;
                break 'outer;
            }
            // The executor accumulated Σg² while applying the combined
            // gradient, so clipping needs no extra full-parameter sweep.
            ps.clip_grad_norm_from(out.grad_sq_norm.sqrt() as f32, RNN_CLIP);
            opt.step(&mut ps, lr);
            ps.zero_grad();
            iter += 1;
        }
        if epoch_count > 0 {
            report.epoch_losses.push(epoch_loss / epoch_count as f64);
        }
        let acc = exec.eval_mnist(&model, &ps, &data.test, 256);
        report.history.push((iter as f64 / ipe as f64, acc));
    }
    report.iterations = iter;
    report.final_metric = if report.diverged {
        0.0
    } else {
        exec.eval_mnist(&model, &ps, &data.test, 256)
    };
    report
}

/// Trains the PTB language model (§5.1.2). Metric: validation perplexity
/// (lower is better). Divergence reports perplexity = vocab size.
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
    let exec = Executor::new(ExecConfig::from_env());
    // One compiled plan per (shard, window shape); dropout masks enter as
    // per-step feeds, so a single plan serves the whole run.
    let cache = PlanCache::for_executor(&exec);

    let batch = schedule.batch_size();
    let ipe = data.iters_per_epoch(batch, seq_len);
    let total_iters = (schedule.total_epochs() * ipe as f64).round() as usize;
    let mut report = TrainReport {
        final_metric: cfg.vocab as f64,
        secondary_metric: None,
        history: Vec::new(),
        epoch_losses: Vec::new(),
        diverged: false,
        iterations: 0,
    };

    let mut iter = 0usize;
    'outer: while iter < total_iters {
        let mut state = LmState::zeros(&cfg, batch);
        let mut epoch_loss = 0.0f64;
        let mut epoch_count = 0usize;
        for window in data.batches(true, batch, seq_len) {
            if iter >= total_iters {
                break;
            }
            let lr = schedule.lr_at_iter(iter, ipe) as f32;
            // Counter-based dropout streams: masks are a pure function of
            // (run seed, optimizer step, global row), so they replay
            // exactly and are identical for every shard count.
            let step = PtbStep {
                model: &model,
                window: &window,
                state: &state,
                drop: Some(DropPlan { seed, step: iter as u64 }),
            };
            let (out, shard_states) = exec.step_planned(&step, &mut ps, &cache);
            let next_state = PtbStep::merge_states(shard_states);
            epoch_loss += out.loss;
            epoch_count += 1;
            if check_divergence(out.diverged, &ps) {
                report.diverged = true;
                break 'outer;
            }
            state = next_state;
            // The executor accumulated Σg² while applying the combined
            // gradient, so clipping needs no extra full-parameter sweep.
            ps.clip_grad_norm_from(out.grad_sq_norm.sqrt() as f32, RNN_CLIP);
            opt.step(&mut ps, lr);
            ps.zero_grad();
            iter += 1;
        }
        if epoch_count > 0 {
            report.epoch_losses.push(epoch_loss / epoch_count as f64);
        }
        let ppl = exec.eval_ptb_perplexity(&model, &ps, data, batch.min(32), seq_len);
        report.history.push((iter as f64 / ipe as f64, ppl));
    }
    report.iterations = iter;
    report.final_metric = if report.diverged {
        cfg.vocab as f64
    } else {
        exec.eval_ptb_perplexity(&model, &ps, data, batch.min(32), seq_len)
    };
    report
}

/// Trains the GNMT-style seq2seq model (§5.1.3). Metric: test BLEU.
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
    let exec = Executor::new(ExecConfig::from_env());
    // Compiled plans cover the shape-static encoder, keyed by
    // (batch, source length); the attention decoder stays tape-driven.
    let cache = PlanCache::for_executor(&exec);

    let batch = schedule.batch_size();
    let ipe = data.iters_per_epoch(batch);
    let total_iters = (schedule.total_epochs() * ipe as f64).round() as usize;
    let mut report = TrainReport {
        final_metric: 0.0,
        secondary_metric: None,
        history: Vec::new(),
        epoch_losses: Vec::new(),
        diverged: false,
        iterations: 0,
    };

    let mut iter = 0usize;
    'outer: while iter < total_iters {
        let mut epoch_loss = 0.0f64;
        let mut epoch_count = 0usize;
        for b in data.batches(true, batch) {
            if iter >= total_iters {
                break;
            }
            let lr = schedule.lr_at_iter(iter, ipe) as f32;
            let (out, _) =
                exec.step_planned(&Seq2SeqStep { model: &model, batch: &b }, &mut ps, &cache);
            epoch_loss += out.loss;
            epoch_count += 1;
            if check_divergence(out.diverged, &ps) {
                report.diverged = true;
                break 'outer;
            }
            // The executor accumulated Σg² while applying the combined
            // gradient, so clipping needs no extra full-parameter sweep.
            ps.clip_grad_norm_from(out.grad_sq_norm.sqrt() as f32, RNN_CLIP);
            opt.step(&mut ps, lr);
            ps.zero_grad();
            iter += 1;
        }
        if epoch_count > 0 {
            report.epoch_losses.push(epoch_loss / epoch_count as f64);
        }
        let bleu = exec.eval_seq2seq_bleu(&model, &ps, data, 64);
        report.history.push((iter as f64 / ipe as f64, bleu));
    }
    report.iterations = iter;
    report.final_metric =
        if report.diverged { 0.0 } else { exec.eval_seq2seq_bleu(&model, &ps, data, 64) };
    report
}

/// Trains the ResNet stand-in (§6). Metric: test top-1; secondary: top-k
/// (the ImageNet experiments report top-5; with fewer classes we use top-3).
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
    let exec = Executor::new(ExecConfig::from_env());
    // Compiled plans keyed by image-batch shape; replays fold each step's
    // BatchNorm batch statistics into the shard clone like the tape path.
    let cache = PlanCache::for_executor(&exec);

    let batch = schedule.batch_size();
    let ipe = data.train.iters_per_epoch(batch);
    let total_iters = (schedule.total_epochs() * ipe as f64).round() as usize;
    let mut report = TrainReport {
        final_metric: 0.0,
        secondary_metric: None,
        history: Vec::new(),
        epoch_losses: Vec::new(),
        diverged: false,
        iterations: 0,
    };

    let mut iter = 0usize;
    'outer: while iter < total_iters {
        let mut epoch_loss = 0.0f64;
        let mut epoch_count = 0usize;
        for (bx, by) in data.train.epoch_batches(batch, &mut rng) {
            if iter >= total_iters {
                break;
            }
            let lr = schedule.lr_at_iter(iter, ipe) as f32;
            let (out, stats) = exec.step_planned(
                &ResnetStep { model: &model, bx: &bx, by: &by },
                &mut ps,
                &cache,
            );
            ResnetStep::fold_stats(&mut model, &stats);
            epoch_loss += out.loss;
            epoch_count += 1;
            if check_divergence(out.diverged, &ps) {
                report.diverged = true;
                break 'outer;
            }
            opt.step(&mut ps, lr);
            ps.zero_grad();
            iter += 1;
        }
        if epoch_count > 0 {
            report.epoch_losses.push(epoch_loss / epoch_count as f64);
        }
        let (t1, tk) = exec.eval_resnet(&model, &ps, &data.test, 128, top_k);
        report.history.push((iter as f64 / ipe as f64, t1));
        report.secondary_metric = Some(tk);
    }
    report.iterations = iter;
    if report.diverged {
        report.final_metric = 0.0;
        report.secondary_metric = Some(0.0);
    } else {
        let (t1, tk) = exec.eval_resnet(&model, &ps, &data.test, 128, top_k);
        report.final_metric = t1;
        report.secondary_metric = Some(tk);
    }
    report
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
