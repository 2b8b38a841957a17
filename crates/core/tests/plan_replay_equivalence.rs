//! Plan-replay vs tape-rebuild equivalence: a training curve driven by
//! [`Executor::step_planned`] (capture once per shard shape, replay
//! thereafter) must reproduce [`Executor::step`] (fresh tape every step)
//! for every model family at shard counts {1, 2, 4}.
//!
//! Every family — MNIST-LSTM, PTB (with dropout feeds), ResNet (including
//! BatchNorm running statistics) and seq2seq (the whole step: encoder,
//! attention decoder and the shard-scaled loss) — is **bitwise**: the plan
//! executes the identical op schedule with the identical accumulation
//! order.
//!
//! The seq2seq benchmark configuration also decodes its test split through
//! the planned greedy decoder, against the tape decoder.
//!
//! Plus cache coverage: a partial final batch and a changed source length
//! must transparently capture fresh plans in the same [`PlanCache`] rather
//! than replaying a mismatched one, while changed seq2seq loss scales must
//! not (they are fed, not captured).

use legw::{
    DropPlan, ExecConfig, Executor, MnistStep, PlanCache, PtbStep, ResnetStep, Seq2SeqStep,
    ShardStep,
};
use legw_data::{metrics, SynthImageNet, SynthMnist, SynthPtb, SynthTranslation, TranslationBatch};
use legw_models::{
    Infer, LmState, MnistLstm, PtbLm, PtbLmConfig, ResNet, Seq2Seq, Seq2SeqConfig, StepPlan,
};
use legw_nn::ParamSet;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];
const STEPS: usize = 3;
const LR: f32 = 0.1;

fn sgd_apply(ps: &mut ParamSet, lr: f32) {
    for (_, p) in ps.iter_mut() {
        let gr = p.grad.clone();
        p.value.axpy(-lr, &gr);
        p.grad.fill_(0.0);
    }
}

fn named_values(ps: &ParamSet) -> Vec<(String, Vec<f32>)> {
    ps.iter().map(|(_, p)| (p.name.clone(), p.value.as_slice().to_vec())).collect()
}

fn named_grads(ps: &ParamSet) -> Vec<(String, Vec<f32>)> {
    ps.iter().map(|(_, p)| (p.name.clone(), p.grad.as_slice().to_vec())).collect()
}

/// A ResNet's BatchNorm running statistics, one named list per mean and
/// per variance.
fn named_bn_stats(model: &ResNet) -> Vec<(String, Vec<f32>)> {
    let stats = model.bn_running_stats().into_iter().enumerate();
    stats.flat_map(|(i, (m, v))| [(format!("bn{i}.mean"), m), (format!("bn{i}.var"), v)]).collect()
}

fn assert_bitwise(tape: &[(String, Vec<f32>)], plan: &[(String, Vec<f32>)], what: &str) {
    for ((name, a), (_, b)) in tape.iter().zip(plan) {
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: {name} diverged: tape {x} vs plan {y}");
        }
    }
}

/// MNIST-LSTM: loss and every parameter bitwise across a 3-step curve at
/// each shard count; steps 2+ are cache hits.
#[test]
fn mnist_plan_replay_matches_tape_bitwise() {
    let data = SynthMnist::generate(11, 72, 8);
    for shards in SHARD_COUNTS {
        let mut rng = StdRng::seed_from_u64(21);
        let mut ps_t = ParamSet::new();
        let model = MnistLstm::new(&mut ps_t, &mut rng, 10, 10);
        let mut ps_p = ps_t.clone();

        let exec = Executor::new(ExecConfig::default().with_shards(shards));
        let cache = PlanCache::for_executor(&exec);
        for step in 0..STEPS {
            let idx: Vec<usize> = (step * 24..(step + 1) * 24).collect();
            let (bx, by) = data.train.gather(&idx);
            let (ot, _) = exec.step(&MnistStep { model: &model, bx: &bx, by: &by }, &mut ps_t);
            let (op, _) = exec.step_planned(
                &MnistStep { model: &model, bx: &bx, by: &by },
                &mut ps_p,
                &cache,
            );
            assert_eq!(ot.loss.to_bits(), op.loss.to_bits(), "mnist loss s{shards} step {step}");
            assert_eq!(ot.grad_sq_norm.to_bits(), op.grad_sq_norm.to_bits());
            assert_bitwise(&named_grads(&ps_t), &named_grads(&ps_p), "mnist grads");
            sgd_apply(&mut ps_t, LR);
            sgd_apply(&mut ps_p, LR);
        }
        assert!(!cache.is_empty(), "plans were captured");
        assert_bitwise(&named_values(&ps_t), &named_values(&ps_p), "mnist params");
    }
}

/// PTB with active dropout (masks enter the replay as feeds) and carried
/// state: loss, state, and parameters bitwise at each shard count.
#[test]
fn ptb_plan_replay_matches_tape_bitwise_with_dropout() {
    let data = SynthPtb::generate(5, 40, 5, 6000, 1200);
    let cfg = PtbLmConfig { vocab: 40, embed: 14, hidden: 14, layers: 2, keep: 0.7 };
    for shards in SHARD_COUNTS {
        let mut rng = StdRng::seed_from_u64(23);
        let mut ps_t = ParamSet::new();
        let model = PtbLm::new(&mut ps_t, &mut rng, cfg);
        let mut ps_p = ps_t.clone();

        let exec = Executor::new(ExecConfig::default().with_shards(shards));
        let cache = PlanCache::for_executor(&exec);
        let windows = data.batches(true, 8, 6);
        let mut state_t = LmState::zeros(&cfg, 8);
        let mut state_p = LmState::zeros(&cfg, 8);
        for (step, window) in windows.iter().take(STEPS).enumerate() {
            let drop = Some(DropPlan { seed: 77, step: step as u64 });
            let (ot, st) =
                exec.step(&PtbStep { model: &model, window, state: &state_t, drop }, &mut ps_t);
            let (op, sp) = exec.step_planned(
                &PtbStep { model: &model, window, state: &state_p, drop },
                &mut ps_p,
                &cache,
            );
            assert_eq!(ot.loss.to_bits(), op.loss.to_bits(), "ptb loss s{shards} step {step}");
            state_t = PtbStep::merge_states(st);
            state_p = PtbStep::merge_states(sp);
            assert_bitwise(&named_grads(&ps_t), &named_grads(&ps_p), "ptb grads");
            sgd_apply(&mut ps_t, LR);
            sgd_apply(&mut ps_p, LR);
        }
        assert_bitwise(&named_values(&ps_t), &named_values(&ps_p), "ptb params");
    }
}

/// ResNet: loss, parameters, and BatchNorm running statistics bitwise
/// after every step — a replay's batch statistics fold exactly as the
/// tape's do.
#[test]
fn resnet_plan_replay_matches_tape_bitwise_including_bn_stats() {
    let data = SynthImageNet::generate(6, 5, 72, 12);
    for shards in SHARD_COUNTS {
        let mut rng = StdRng::seed_from_u64(29);
        let mut ps_t = ParamSet::new();
        let mut model_t = ResNet::new(&mut ps_t, &mut rng, 4, 5);
        let mut ps_p = ps_t.clone();
        let mut model_p = model_t.clone();

        let exec = Executor::new(ExecConfig::default().with_shards(shards));
        let cache = PlanCache::for_executor(&exec);
        for step in 0..STEPS {
            let idx: Vec<usize> = (step * 16..(step + 1) * 16).collect();
            let (bx, by) = data.train.gather(&idx);
            let (ot, ex_t) =
                exec.step(&ResnetStep { model: &model_t, bx: &bx, by: &by }, &mut ps_t);
            ResnetStep::fold_stats(&mut model_t, &ex_t);
            let (op, ex_p) = exec.step_planned(
                &ResnetStep { model: &model_p, bx: &bx, by: &by },
                &mut ps_p,
                &cache,
            );
            ResnetStep::fold_stats(&mut model_p, &ex_p);
            assert_eq!(ot.loss.to_bits(), op.loss.to_bits(), "resnet loss s{shards} step {step}");
            assert_bitwise(&named_grads(&ps_t), &named_grads(&ps_p), "resnet grads");
            let (stats_t, stats_p) = (named_bn_stats(&model_t), named_bn_stats(&model_p));
            assert_eq!(stats_t.len(), stats_p.len());
            assert_bitwise(&stats_t, &stats_p, &format!("resnet BN stats s{shards} step {step}"));
            let (mean, var) = &model_t.bn_running_stats()[0];
            assert!(mean.iter().all(|&x| x != 0.0) && var.iter().all(|&x| x != 1.0), "folded");
            sgd_apply(&mut ps_t, LR);
            sgd_apply(&mut ps_p, LR);
        }
        assert_bitwise(&named_values(&ps_t), &named_values(&ps_p), "resnet params");
    }
}

/// Drives one seq2seq model through `batches` twice — [`Executor::step`] on
/// `ps_t`, [`Executor::step_planned`] through `cache` on `ps_p` — and
/// requires loss, `grad_sq_norm` and every gradient bitwise at every step
/// and the parameters bitwise at the end.
fn seq2seq_curve_bitwise(
    model: &Seq2Seq,
    ps_t: &mut ParamSet,
    ps_p: &mut ParamSet,
    exec: &Executor,
    cache: &PlanCache<StepPlan>,
    batches: &[&TranslationBatch],
    what: &str,
) {
    for (step, &batch) in batches.iter().enumerate() {
        let (ot, _) = exec.step(&Seq2SeqStep { model, batch }, ps_t);
        let (op, _) = exec.step_planned(&Seq2SeqStep { model, batch }, ps_p, cache);
        assert_eq!(ot.loss.to_bits(), op.loss.to_bits(), "{what} loss, step {step}");
        assert_eq!(
            ot.grad_sq_norm.to_bits(),
            op.grad_sq_norm.to_bits(),
            "{what} grad_sq_norm, step {step}"
        );
        assert_bitwise(&named_grads(ps_t), &named_grads(ps_p), what);
        sgd_apply(ps_t, LR);
        sgd_apply(ps_p, LR);
    }
    assert_bitwise(&named_values(ps_t), &named_values(ps_p), what);
}

/// A seq2seq model of widths `[embed, hidden, attn]` and its parameters.
fn seq2seq_model(
    vocab: usize,
    [embed, hidden, attn]: [usize; 3],
    max_decode: usize,
    seed: u64,
) -> (Seq2Seq, ParamSet) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ps = ParamSet::new();
    let cfg = Seq2SeqConfig { vocab, embed, hidden, attn, max_decode };
    (Seq2Seq::new(&mut ps, &mut rng, cfg), ps)
}

/// seq2seq: the whole step — encoder, attention decoder, shard-scaled
/// loss — replays bitwise at every shard count.
#[test]
fn seq2seq_plan_replay_matches_tape_bitwise() {
    let data = SynthTranslation::generate(13, 10, 96, 12, 3, 5);
    let batches = data.batches(true, 8);
    let batches: Vec<&TranslationBatch> = batches.iter().take(STEPS).collect();
    for shards in SHARD_COUNTS {
        let (model, mut ps_t) = seq2seq_model(data.vocab, [12, 12, 8], 7, 31);
        let mut ps_p = ps_t.clone();
        let exec = Executor::new(ExecConfig::default().with_shards(shards));
        let cache = PlanCache::for_executor(&exec);
        let what = format!("seq2seq s{shards}");
        seq2seq_curve_bitwise(&model, &mut ps_t, &mut ps_p, &exec, &cache, &batches, &what);
    }
}

/// Sharded seq2seq scales each decode step's loss by the shard's share of
/// the active rows. Consecutive batches carrying different non-unit scales
/// still replay the one plan per shard slot captured on the first: the
/// scales are fed, not baked into the plan.
#[test]
fn seq2seq_loss_scales_are_fed_not_captured() {
    let data = SynthTranslation::generate(43, 10, 96, 12, 3, 5);
    let batches = data.batches(true, 8);
    let batches: Vec<&TranslationBatch> = batches.iter().take(4).collect();
    let shards = 2;
    let (model, mut ps_t) = seq2seq_model(data.vocab, [12, 12, 8], 7, 47);
    let mut ps_p = ps_t.clone();
    let exec = Executor::new(ExecConfig::default().with_shards(shards));

    let scales: Vec<Vec<Vec<f32>>> = batches
        .iter()
        .map(|&batch| {
            let split = Seq2SeqStep { model: &model, batch }.split(&exec);
            split.into_iter().map(|(_, s)| s.expect("a sharded step is scaled")).collect()
        })
        .collect();
    for pair in scales.windows(2) {
        assert_ne!(pair[0], pair[1], "consecutive batches must carry different scales");
    }
    assert!(
        scales.iter().flatten().flatten().any(|&s| s != 1.0 && s != 0.0),
        "the scales must not be trivial"
    );

    let cache = PlanCache::for_executor(&exec);
    seq2seq_curve_bitwise(&model, &mut ps_t, &mut ps_p, &exec, &cache, &batches, "fed scales");
    assert_eq!(cache.len(), shards, "one plan per shard slot, whatever the scales");
}

/// The benchmark's own `seq2seq_b16` configuration (corpus, model widths,
/// batch 16) over 120 steps at 1 and 2 shards: plan against tape bitwise,
/// with one plan per shard slot. Then the evaluation the benchmark runs on
/// the model so trained — greedy decoding of the test split in batches of
/// 64 through the encoder and decoder-step plans, at 1 and 2 shards — must
/// give every hypothesis, and the BLEU, of the tape decoder.
#[test]
fn seq2seq_benchmark_configuration_replays_bitwise() {
    let data = SynthTranslation::generate_with(2501, 16, 4096, 256, 3, 5, false);
    let batches = data.batches(true, 16);
    let batches: Vec<&TranslationBatch> = batches.iter().take(120).collect();
    let refs: Vec<Vec<usize>> = data.test.iter().map(|(_, t)| t.clone()).collect();
    for shards in [1, 2] {
        let (model, mut ps_t) = seq2seq_model(data.vocab, [32, 32, 24], 8, 2501);
        let mut ps_p = ps_t.clone();
        let exec = Executor::new(ExecConfig::default().with_shards(shards));
        let cache = PlanCache::for_executor(&exec);
        let what = format!("seq2seq_b16 s{shards}");
        seq2seq_curve_bitwise(&model, &mut ps_t, &mut ps_p, &exec, &cache, &batches, &what);
        assert_eq!(cache.len(), shards, "one plan per shard slot");

        let tape: Vec<Vec<usize>> = data
            .batches(false, 64)
            .iter()
            .flat_map(|b| model.infer_tape(&ps_p, b))
            .map(|(h, ())| h)
            .collect();
        assert!(tape.iter().any(|h| h.len() < 8), "some rows must stop at EOS");
        let bleu = metrics::corpus_bleu(&tape, &refs);
        for decode_shards in [1, 2] {
            let exec = Executor::new(ExecConfig::default().with_shards(decode_shards));
            let planned = exec.decode_seq2seq(&model, &ps_p, &data, 64);
            assert!(planned == tape, "{what}: hypotheses decoded at {decode_shards} shards");
            let eval = exec.eval_seq2seq_bleu(&model, &ps_p, &data, 64);
            assert_eq!(eval.to_bits(), bleu.to_bits(), "{what}: BLEU at {decode_shards} shards");
        }
    }
}

/// A partial final batch (different shard shapes) must miss the cache and
/// capture its own plan — never replay the full-batch plan.
#[test]
fn partial_final_batch_captures_a_second_plan() {
    let data = SynthMnist::generate(17, 64, 8);
    let mut rng = StdRng::seed_from_u64(37);
    let mut ps_t = ParamSet::new();
    let model = MnistLstm::new(&mut ps_t, &mut rng, 10, 10);
    let mut ps_p = ps_t.clone();

    let exec = Executor::new(ExecConfig::default());
    let cache = PlanCache::for_executor(&exec);
    // Full batch of 32, then the ragged 20-example tail, then both again
    // (cache hits for both shapes).
    let sizes = [(0usize, 32usize), (32, 52), (0, 32), (32, 52)];
    for (lo, hi) in sizes {
        let idx: Vec<usize> = (lo..hi).collect();
        let (bx, by) = data.train.gather(&idx);
        let (ot, _) = exec.step(&MnistStep { model: &model, bx: &bx, by: &by }, &mut ps_t);
        let (op, _) =
            exec.step_planned(&MnistStep { model: &model, bx: &bx, by: &by }, &mut ps_p, &cache);
        assert_eq!(ot.loss.to_bits(), op.loss.to_bits());
        assert_bitwise(&named_grads(&ps_t), &named_grads(&ps_p), "ragged-tail grads");
        sgd_apply(&mut ps_t, LR);
        sgd_apply(&mut ps_p, LR);
    }
    assert_eq!(cache.len(), 2, "one plan per batch shape");
}

/// A changed source length through the same cache keys a second step
/// plan (shape-signature invalidation).
#[test]
fn seq2seq_source_length_change_keys_a_second_plan() {
    // Same seed and content vocabulary, different padded source lengths.
    let short = SynthTranslation::generate(19, 10, 32, 8, 3, 4);
    let long = SynthTranslation::generate(19, 10, 32, 8, 5, 6);
    assert_eq!(short.vocab, long.vocab);
    let (model, mut ps_t) = seq2seq_model(short.vocab, [10, 10, 8], 8, 41);
    let mut ps_p = ps_t.clone();

    let exec = Executor::new(ExecConfig::default());
    let cache = PlanCache::for_executor(&exec);
    let b_short = &short.batches(true, 8)[0];
    let b_long = &long.batches(true, 8)[0];
    assert_ne!(b_short.src.len(), b_long.src.len());
    let batches = [b_short, b_long, b_short, b_long];
    seq2seq_curve_bitwise(&model, &mut ps_t, &mut ps_p, &exec, &cache, &batches, "src length");
    assert_eq!(cache.len(), 2, "one step plan per source length");
}
