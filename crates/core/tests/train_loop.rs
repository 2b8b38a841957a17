//! The one training loop, [`legw::trainer::train`], through its public
//! surface: the `before_step` callback observes without steering, and a
//! whole run on an explicitly configured [`Executor`] is invariant to its
//! shard count.

use legw::lipschitz::local_lipschitz;
use legw::trainer::{train, MnistWorkload, PtbWorkload, Seq2SeqWorkload, TrainReport};
use legw::{ExecConfig, Executor};
use legw_data::{SynthMnist, SynthPtb, SynthTranslation};
use legw_models::{LmState, MnistLstm, PtbLm, PtbLmConfig, Seq2Seq, Seq2SeqConfig};
use legw_nn::ParamSet;
use legw_optim::{build, SolverKind};
use legw_schedules::BaselineSchedule;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Epoch losses, history, final and secondary metric, iterations, diverged.
type ReportBits = (Vec<u64>, Vec<(u64, u64)>, u64, Option<u64>, usize, bool);

/// Every number of a report as bit patterns, for exact comparison.
fn bits(r: &TrainReport) -> ReportBits {
    (
        r.epoch_losses.iter().map(|l| l.to_bits()).collect(),
        r.history.iter().map(|(e, m)| (e.to_bits(), m.to_bits())).collect(),
        r.final_metric.to_bits(),
        r.secondary_metric.map(f64::to_bits),
        r.iterations,
        r.diverged,
    )
}

/// Two epochs of MNIST-LSTM (7 steps each, the last on a ragged batch of
/// 8) on `shards` shards. With `probe`, `before_step` records every
/// iteration it is shown and estimates `L(x,g)` on a fixed batch every
/// third one; without, it does nothing.
fn mnist_run(shards: usize, probe: bool) -> (TrainReport, Vec<usize>) {
    let data = SynthMnist::generate(5, 200, 48);
    let mut rng = StdRng::seed_from_u64(11);
    let mut ps = ParamSet::new();
    let model = MnistLstm::new(&mut ps, &mut rng, 12, 12);
    let mut opt = build(SolverKind::Momentum, 0.0);
    let sched = BaselineSchedule::constant(32, 0.3, 0.25, 2.0);
    let exec = Executor::new(ExecConfig::default().with_shards(shards));

    let (px, py) = data.train.gather(&(0..24).collect::<Vec<_>>());
    let mut grad_fn = |ps: &mut ParamSet| {
        let (mut g, bd, loss, _) = model.forward_loss(ps, &px, &py);
        g.backward(loss);
        bd.write_grads(&g, ps);
    };
    let mut seen = Vec::new();
    let mut w = MnistWorkload { model: &model, data: &data };
    let report = train(&mut w, &mut ps, opt.as_mut(), &sched, &mut rng, &exec, |iter, ps| {
        if probe {
            seen.push(iter);
            if iter % 3 == 0 {
                assert!(local_lipschitz(ps, 1e-2, &mut grad_fn).is_finite());
            }
        }
    });
    (report, seen)
}

/// Half an epoch of the PTB language model with dropout, same `probe`.
fn ptb_run(probe: bool) -> (TrainReport, Vec<usize>) {
    let data = SynthPtb::generate(2, 40, 6, 3_000, 800);
    let cfg = PtbLmConfig { vocab: 40, embed: 12, hidden: 12, layers: 2, keep: 0.9 };
    let mut rng = StdRng::seed_from_u64(3);
    let mut ps = ParamSet::new();
    let model = PtbLm::new(&mut ps, &mut rng, cfg);
    let mut opt = build(SolverKind::Momentum, 0.0);
    let sched = BaselineSchedule::constant(8, 0.8, 0.1, 0.5);
    let exec = Executor::new(ExecConfig::default());

    let window = data.batches(true, 8, 10).remove(0);
    let state = LmState::zeros(&cfg, 8);
    let mut grad_fn = |ps: &mut ParamSet| {
        let (mut g, bd, loss, _, _) = model.forward_loss(ps, &window, &state);
        g.backward(loss);
        bd.write_grads(&g, ps);
    };
    let mut seen = Vec::new();
    let mut w = PtbWorkload { model: &model, data: &data, seq_len: 10, seed: 3, state: None };
    let report = train(&mut w, &mut ps, opt.as_mut(), &sched, &mut rng, &exec, |iter, ps| {
        if probe {
            seen.push(iter);
            if iter % 3 == 0 {
                assert!(local_lipschitz(ps, 1e-2, &mut grad_fn).is_finite());
            }
        }
    });
    (report, seen)
}

/// Two epochs of seq2seq (4 steps each) on `shards` shards.
fn seq2seq_run(shards: usize) -> TrainReport {
    let data = SynthTranslation::generate(3, 16, 64, 16, 3, 5);
    let cfg = Seq2SeqConfig { vocab: data.vocab, embed: 16, hidden: 16, attn: 12, max_decode: 7 };
    let mut rng = StdRng::seed_from_u64(5);
    let mut ps = ParamSet::new();
    let model = Seq2Seq::new(&mut ps, &mut rng, cfg);
    let mut opt = build(SolverKind::Momentum, 0.0);
    let sched = BaselineSchedule::constant(16, 0.5, 0.2, 2.0);
    let exec = Executor::new(ExecConfig::default().with_shards(shards));
    let mut w = Seq2SeqWorkload { model: &model, data: &data };
    train(&mut w, &mut ps, opt.as_mut(), &sched, &mut rng, &exec, |_, _| {})
}

/// A `before_step` that perturbs, re-differentiates and restores the
/// parameters (the Lipschitz probe) leaves the run exactly where a no-op
/// leaves it, and is shown every iteration once, in order.
#[test]
fn before_step_observes_and_does_not_steer() {
    for run in [|probe| mnist_run(1, probe), ptb_run] {
        let (plain, _) = run(false);
        let (probed, seen) = run(true);
        assert!(!plain.diverged && plain.iterations >= 12);
        assert_eq!(bits(&plain), bits(&probed));
        assert_eq!(seen, (0..plain.iterations).collect::<Vec<_>>());
    }
}

/// Whole runs at shards {1, 2, 3} take the same steps and land on the same
/// curve, within the tolerance `shard_equivalence.rs` allows its six-step
/// curves at different shard counts: `1e-4 · (1 + |reference|)`.
#[test]
fn whole_runs_are_shard_invariant() {
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-4 * (1.0 + b.abs());
    for run in [|shards| mnist_run(shards, false).0, seq2seq_run] {
        let serial = run(1);
        assert!(!serial.diverged);
        assert_eq!(serial.epoch_losses.len(), 2);
        for shards in [2usize, 3] {
            let sharded = run(shards);
            assert!(!sharded.diverged, "shards={shards}");
            assert_eq!(sharded.iterations, serial.iterations, "shards={shards}");
            for (a, b) in sharded.epoch_losses.iter().zip(&serial.epoch_losses) {
                assert!(close(*a, *b), "shards={shards}: epoch loss {a} vs serial {b}");
            }
        }
    }
}
