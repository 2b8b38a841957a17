//! Integration properties of the data-parallel executor ([`legw::exec`]):
//! for every shard count, a sharded step must reproduce the serial
//! gradients (within fp tolerance), and repeated runs at a fixed shard
//! count must be *byte-identical* — the fixed-order tree reduction makes
//! the result independent of worker scheduling.

use legw::{DropPlan, ExecConfig, Executor, MnistStep, PtbStep, Seq2SeqStep};
use legw_data::{SynthMnist, SynthTranslation};
use legw_models::{Infer, MnistLstm, Seq2Seq, Seq2SeqConfig};
use legw_nn::ParamSet;
use legw_parallel::{with_pool, ThreadPool};
use legw_propcheck::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Shard counts exercised against the serial reference, including a prime
/// (3) and one larger than some test batches (7 — ranges cap at the batch).
const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 7];

fn grad_vec(ps: &ParamSet) -> Vec<f32> {
    ps.iter().flat_map(|(_, p)| p.grad.as_slice().to_vec()).collect()
}

/// One MNIST-LSTM step on a fresh seeded model; returns (loss, grads).
fn mnist_step(seed: u64, batch: usize, shards: usize) -> (f64, Vec<f32>) {
    let data = SynthMnist::generate(7, 32, 8);
    let idx: Vec<usize> = (0..batch).collect();
    let (bx, by) = data.train.gather(&idx);
    let mut ps = ParamSet::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let model = MnistLstm::new(&mut ps, &mut rng, 8, 8);
    let exec = Executor::new(ExecConfig::default().with_shards(shards));
    let (out, _) = exec.step(&MnistStep { model: &model, bx: &bx, by: &by }, &mut ps);
    assert!(!out.diverged);
    (out.loss, grad_vec(&ps))
}

/// One seq2seq step on a ragged (masked-label) batch; returns (loss, grads).
fn seq2seq_step(seed: u64, batch: usize, shards: usize) -> (f64, Vec<f32>) {
    let data = SynthTranslation::generate(9, 12, 16, 4, 2, 5);
    let b = data.batches(true, batch).into_iter().next().unwrap();
    let mut ps = ParamSet::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = Seq2SeqConfig::compact(data.vocab, data.max_len() + 1);
    let model = Seq2Seq::new(&mut ps, &mut rng, cfg);
    let exec = Executor::new(ExecConfig::default().with_shards(shards));
    let (out, _) = exec.step(&Seq2SeqStep { model: &model, batch: &b }, &mut ps);
    assert!(!out.diverged);
    (out.loss, grad_vec(&ps))
}

proptest! {
    /// MNIST-LSTM: executor gradients match the serial path within 1e-5
    /// for every shard count, over ragged batch sizes.
    #[test]
    fn mnist_sharded_grads_match_serial(
        seed in 0u64..1000,
        batch in 4usize..24,
    ) {
        let (l1, g1) = mnist_step(seed, batch, 1);
        for shards in SHARD_COUNTS {
            let (lp, gp) = mnist_step(seed, batch, shards);
            prop_assert!((l1 - lp).abs() < 1e-5, "loss {l1} vs {lp} at {shards} shards");
            prop_assert!(g1.len() == gp.len());
            for (a, b) in g1.iter().zip(&gp) {
                prop_assert!((a - b).abs() < 1e-5, "grad {a} vs {b} at {shards} shards");
            }
        }
    }

    /// Seq2seq with masked labels: the per-step active-row rescaling makes
    /// sharded gradients match the serial globally-averaged loss within
    /// 1e-5 — including ragged batches where shards see different numbers
    /// of active rows per decode step.
    #[test]
    fn seq2seq_sharded_grads_match_serial(
        seed in 0u64..1000,
        batch in 2usize..13,
    ) {
        let (l1, g1) = seq2seq_step(seed, batch, 1);
        for shards in SHARD_COUNTS {
            let (lp, gp) = seq2seq_step(seed, batch, shards);
            prop_assert!((l1 - lp).abs() < 1e-5, "loss {l1} vs {lp} at {shards} shards");
            prop_assert!(g1.len() == gp.len());
            for (a, b) in g1.iter().zip(&gp) {
                prop_assert!((a - b).abs() < 1e-5, "grad {a} vs {b} at {shards} shards");
            }
        }
    }
}

/// At a fixed shard count the whole step is byte-deterministic: repeated
/// runs produce bit-identical losses and gradients regardless of how the
/// OS schedules the shard workers.
#[test]
fn sharded_step_is_byte_identical_across_runs() {
    let (ml, mg) = mnist_step(3, 13, 3);
    let (sl, sg) = seq2seq_step(4, 11, 3);
    for _ in 0..2 {
        let (l, g) = mnist_step(3, 13, 3);
        assert_eq!(l.to_bits(), ml.to_bits(), "mnist loss must be bit-stable");
        assert_eq!(g.len(), mg.len());
        assert!(g.iter().zip(&mg).all(|(a, b)| a.to_bits() == b.to_bits()));

        let (l, g) = seq2seq_step(4, 11, 3);
        assert_eq!(l.to_bits(), sl.to_bits(), "seq2seq loss must be bit-stable");
        assert_eq!(g.len(), sg.len());
        assert!(g.iter().zip(&sg).all(|(a, b)| a.to_bits() == b.to_bits()));
    }
}

/// The serial executor (`LEGW_SHARDS=1`) takes the clone-free fast path
/// and is bit-identical to itself run-to-run — the guarantee the
/// quickstart's exact expected accuracies rely on.
#[test]
fn serial_executor_is_bit_stable() {
    let (l0, g0) = mnist_step(8, 9, 1);
    let (l1, g1) = mnist_step(8, 9, 1);
    assert_eq!(l0.to_bits(), l1.to_bits());
    assert!(g0.iter().zip(&g1).all(|(a, b)| a.to_bits() == b.to_bits()));
}

/// The gradient norm accumulated during the executor's fused apply equals
/// the explicit post-apply sweep for every shard count — the property the
/// trainer's sweep-free clipping relies on.
#[test]
fn fused_grad_norm_matches_explicit_sweep() {
    let data = SynthMnist::generate(7, 32, 8);
    let (bx, by) = data.train.gather(&(0..16).collect::<Vec<_>>());
    for shards in SHARD_COUNTS {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(11);
        let model = MnistLstm::new(&mut ps, &mut rng, 8, 8);
        let exec = Executor::new(ExecConfig::default().with_shards(shards));
        let (out, _) = exec.step(&MnistStep { model: &model, bx: &bx, by: &by }, &mut ps);
        let swept = ps.grad_norm() as f64;
        let fused = out.grad_sq_norm.sqrt();
        assert!(
            (fused - swept).abs() < 1e-4 * (1.0 + swept),
            "shards={shards}: fused {fused} vs swept {swept}"
        );
    }
}

/// Applies and zeroes `ps`'s gradients as one plain SGD step.
fn sgd_apply(ps: &mut ParamSet, lr: f32) {
    for (_, p) in ps.iter_mut() {
        let gr = p.grad.clone();
        p.value.axpy(-lr, &gr);
        p.grad.fill_(0.0);
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-4 * (1.0 + b.abs())
}

/// Short SGD curves through the executor at shards {1, 2, 4} follow the
/// serial curve on the models' own tapes within 1e-4 relative, for a fixed
/// MNIST batch and for PTB windows whose state is carried (and merged back
/// from the shards) across steps. The models' unit tests hold the same
/// serial curves to their stepwise LSTM references.
#[test]
fn sharded_training_curves_follow_the_serial_curve() {
    use legw_models::{LmState, PtbLm, PtbLmConfig};

    let data = SynthMnist::generate(41, 64, 16);
    let (bx, by) = data.train.gather(&(0..32).collect::<Vec<_>>());
    let mut ps0 = ParamSet::new();
    let model = MnistLstm::new(&mut ps0, &mut StdRng::seed_from_u64(17), 12, 12);
    let mut ps = ps0.clone();
    let serial: Vec<f64> = (0..6)
        .map(|_| {
            let (mut g, bd, loss, _) = model.forward_loss(&ps, &bx, &by);
            let lv = g.value(loss).item() as f64;
            g.backward(loss);
            bd.write_grads(&g, &mut ps);
            sgd_apply(&mut ps, 0.2);
            lv
        })
        .collect();
    for shards in [1usize, 2, 4] {
        let mut ps = ps0.clone();
        let exec = Executor::new(ExecConfig::default().with_shards(shards));
        for (t, &r) in serial.iter().enumerate() {
            let (out, _) = exec.step(&MnistStep { model: &model, bx: &bx, by: &by }, &mut ps);
            assert!(!out.diverged);
            assert!(close(out.loss, r), "mnist shards={shards} step {t}: {} vs {r}", out.loss);
            sgd_apply(&mut ps, 0.2);
        }
    }

    let data = legw_data::SynthPtb::generate(43, 30, 4, 4000, 800);
    let cfg = PtbLmConfig { vocab: 30, embed: 12, hidden: 12, layers: 2, keep: 1.0 };
    let mut ps0 = ParamSet::new();
    let model = PtbLm::new(&mut ps0, &mut StdRng::seed_from_u64(19), cfg);
    let windows = &data.batches(true, 8, 6)[..6];
    let (mut ps, mut state) = (ps0.clone(), LmState::zeros(&cfg, 8));
    let serial: Vec<f64> = windows
        .iter()
        .map(|w| {
            let (mut g, bd, loss, nll, next) = model.forward_loss(&ps, w, &state);
            g.backward(loss);
            bd.write_grads(&g, &mut ps);
            sgd_apply(&mut ps, 0.5);
            state = next;
            nll
        })
        .collect();
    for shards in [1usize, 2, 4] {
        let (mut ps, mut state) = (ps0.clone(), LmState::zeros(&cfg, 8));
        let exec = Executor::new(ExecConfig::default().with_shards(shards));
        for (t, (w, &r)) in windows.iter().zip(&serial).enumerate() {
            let step = PtbStep { model: &model, window: w, state: &state, drop: None };
            let (out, states) = exec.step(&step, &mut ps);
            assert!(!out.diverged);
            assert!(close(out.loss, r), "ptb shards={shards} step {t}: {} vs {r}", out.loss);
            state = PtbStep::merge_states(states);
            sgd_apply(&mut ps, 0.5);
        }
    }
}

/// Runs `check(exec, label)` on every executor an evaluation must agree
/// across: every sharded one of [`SHARD_COUNTS`], and the one-shard
/// executor under 1-, 2- and 3-lane kernel pools, whose lanes split each
/// decode batch's rows.
fn on_every_executor(check: impl Fn(&Executor, &str)) {
    for shards in SHARD_COUNTS {
        let exec = Executor::new(ExecConfig::default().with_shards(shards));
        check(&exec, &format!("shards={shards}"));
    }
    let one = Executor::new(ExecConfig::default());
    for lanes in [1usize, 2, 3] {
        with_pool(&Arc::new(ThreadPool::new(lanes)), || {
            check(&one, &format!("one shard, {lanes} lanes"))
        });
    }
}

/// Epoch-end evaluation on every executor reproduces the serial sweep —
/// written out here from the models' public forwards, since the library
/// holds one sweep per family: bit for bit for the chunked evaluators
/// (integer hit counts over n, hypotheses concatenated in row order), at
/// chunk sizes below the lane count and with a ragged last chunk; within
/// fp tolerance for the track-sliced PTB stream, whose one-shard sweep is
/// exact on any kernel pool.
#[test]
fn sharded_eval_matches_serial() {
    use legw_data::{metrics, SynthImageNet};
    use legw_models::{LmState, PtbLm, PtbLmConfig, ResNet};

    // Hits among `rows` rows at accuracy `frac`, as the integer it is.
    let hits = |frac: f64, rows: usize| (frac * rows as f64).round();

    // MNIST: integer correct counts.
    let data = SynthMnist::generate(17, 48, 40);
    let mut ps = ParamSet::new();
    let mut rng = StdRng::seed_from_u64(13);
    let model = MnistLstm::new(&mut ps, &mut rng, 8, 8);
    let mut correct = 0.0;
    for start in (0..40).step_by(16) {
        let (bx, by) = data.test.gather(&(start..(start + 16).min(40)).collect::<Vec<_>>());
        let (_, _, _, logits) = model.forward_loss(&ps, &bx, &by);
        correct += hits(metrics::accuracy(&logits, &by), by.len());
    }
    let serial_acc = correct / 40.0;
    on_every_executor(|exec, label| {
        for chunk in [2usize, 7, 16] {
            let acc = exec.eval_mnist(&model, &ps, &data.test, chunk);
            assert_eq!(acc.to_bits(), serial_acc.to_bits(), "mnist {label} chunk={chunk}");
        }
    });

    // ResNet in evaluation mode (running statistics primed by one training
    // tape's folded batch statistics): integer top-1 / top-k counts.
    let idata = SynthImageNet::generate_sized(11, 4, 48, 24, 16);
    let mut ps = ParamSet::new();
    let mut rng = StdRng::seed_from_u64(12);
    let mut model = ResNet::new(&mut ps, &mut rng, 4, 4);
    let (bx, by) = idata.train.gather(&(0..24).collect::<Vec<_>>());
    let (g, ..) = model.forward_loss(&ps, &bx, &by);
    model.fold_batch_stats(&[(1.0, &g.bn_batch_stats()[..])]);
    for (mean, var) in model.bn_running_stats() {
        assert!(mean.iter().all(|&x| x != 0.0) && var.iter().all(|&x| x != 1.0), "primed");
    }
    let (mut top1, mut top2) = (0.0, 0.0);
    for start in (0..24).step_by(6) {
        let (bx, by) = idata.test.gather(&(start..start + 6).collect::<Vec<_>>());
        let (g, _, logits) = model.forward_infer(&ps, &bx);
        top1 += hits(metrics::accuracy(g.value(logits), &by), 6);
        top2 += hits(metrics::top_k_accuracy(g.value(logits), &by, 2), 6);
    }
    assert!(top2 >= top1, "top-k must dominate top-1");
    let (top1, top2) = (top1 / 24.0, top2 / 24.0);
    on_every_executor(|exec, label| {
        for chunk in [2usize, 5, 6] {
            let (t1, t2) = exec.eval_resnet(&model, &ps, &idata.test, chunk, 2);
            assert_eq!(t1.to_bits(), top1.to_bits(), "resnet top-1 {label} chunk={chunk}");
            assert_eq!(t2.to_bits(), top2.to_bits(), "resnet top-2 {label} chunk={chunk}");
        }
    });

    // Seq2seq BLEU: the same hypotheses — the same score. Every batch size
    // pads to the corpus's longest source.
    let tdata = SynthTranslation::generate(9, 12, 48, 8, 2, 5);
    let mut ps = ParamSet::new();
    let mut rng = StdRng::seed_from_u64(19);
    let cfg = Seq2SeqConfig::compact(tdata.vocab, tdata.max_len() + 1);
    let model = Seq2Seq::new(&mut ps, &mut rng, cfg);
    let (mut cands, mut refs) = (Vec::new(), Vec::new());
    for b in tdata.batches(false, 4) {
        cands.extend(model.infer_tape(&ps, &b).into_iter().map(|(h, ())| h));
        refs.extend(b.refs.clone());
    }
    let serial_bleu = metrics::corpus_bleu(&cands, &refs);
    assert!((0.0..30.0).contains(&serial_bleu), "untrained BLEU {serial_bleu}");
    on_every_executor(|exec, label| {
        for batch in [2usize, 3, 4] {
            let bleu = exec.eval_seq2seq_bleu(&model, &ps, &tdata, batch);
            assert_eq!(bleu.to_bits(), serial_bleu.to_bits(), "seq2seq {label} batch={batch}");
        }
    });

    // PTB: track-sliced; weighted mean matches within fp tolerance, and
    // the single-shard sweep matches the full-batch sweep exactly.
    let pdata = legw_data::SynthPtb::generate(23, 24, 6, 6000, 1200);
    let cfg = PtbLmConfig { vocab: 24, embed: 10, hidden: 10, layers: 2, keep: 1.0 };
    let mut ps = ParamSet::new();
    let mut rng = StdRng::seed_from_u64(29);
    let model = PtbLm::new(&mut ps, &mut rng, cfg);
    let windows = pdata.batches(false, 8, 12);
    let mut state = LmState::zeros(&cfg, 8);
    let mut total = 0.0f64;
    for w in &windows {
        let (_, _, _, nll, next) = model.forward_loss(&ps, w, &state);
        total += nll;
        state = next;
    }
    let serial_ppl = (total / windows.len() as f64).exp();
    assert!(serial_ppl > pdata.perplexity_floor());
    let one = Executor::new(ExecConfig::default());
    let ppl = || one.eval_ptb_perplexity(&model, &ps, &pdata, 8, 12);
    for ppl in [ppl(), with_pool(&Arc::new(ThreadPool::new(3)), ppl)] {
        assert_eq!(ppl.to_bits(), serial_ppl.to_bits(), "single-shard PTB eval must be exact");
    }
    for shards in SHARD_COUNTS {
        let exec = Executor::new(ExecConfig::default().with_shards(shards));
        let ppl = exec.eval_ptb_perplexity(&model, &ps, &pdata, 8, 12);
        assert!(
            (ppl - serial_ppl).abs() < 1e-6 * serial_ppl,
            "ptb shards={shards}: {ppl} vs {serial_ppl}"
        );
    }
}

/// Dropout under sharding: masks are keyed by `(seed, step, global row,
/// site)`, never by shard id, so a regularised PTB step computes the same
/// gradients at every shard count — the shard layout must not change which
/// units drop.
#[test]
fn dropout_grads_are_shard_invariant() {
    use legw_models::{LmState, PtbLm, PtbLmConfig};

    let data = legw_data::SynthPtb::generate(31, 24, 6, 4_000, 800);
    let cfg = PtbLmConfig { vocab: 24, embed: 10, hidden: 10, layers: 2, keep: 0.7 };
    let run = |shards: usize| -> (f64, Vec<f32>) {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(37);
        let model = PtbLm::new(&mut ps, &mut rng, cfg);
        let window = data.batches(true, 8, 12).remove(0);
        let state = LmState::zeros(&cfg, 8);
        let exec = Executor::new(ExecConfig::default().with_shards(shards));
        let step = PtbStep {
            model: &model,
            window: &window,
            state: &state,
            drop: Some(DropPlan { seed: 99, step: 3 }),
        };
        let (out, states) = exec.step(&step, &mut ps);
        assert!(!out.diverged);
        let _next = PtbStep::merge_states(states);
        (out.loss, grad_vec(&ps))
    };
    let (l1, g1) = run(1);
    for shards in [2usize, 4] {
        let (lp, gp) = run(shards);
        assert!((l1 - lp).abs() < 1e-5, "dropout loss {l1} vs {lp} at {shards} shards");
        assert_eq!(g1.len(), gp.len());
        for (a, b) in g1.iter().zip(&gp) {
            assert!((a - b).abs() < 1e-5, "dropout grad {a} vs {b} at {shards} shards");
        }
    }
}
