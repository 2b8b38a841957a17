//! Freeze → restore → batched tape-free forward must match the live-graph
//! forward of the original (never-serialised) model: bitwise for the
//! MNIST/PTB/ResNet logits, token-for-token for seq2seq greedy decoding.
//! Each engine runs its request set twice so the second pass exercises the
//! cached forward-only plan, not just the capture forward.
//!
//! An engine splits each batch into one row group per lane of the calling
//! thread's kernel pool, so the tests at the end serve under explicit 1-,
//! 2- and 3-lane pools and require every lane count to serve the bits of
//! one lane.

use legw_models::{
    Infer, InferPlan, LmState, MnistLstm, PtbLm, PtbLmConfig, ResNet, Seq2Seq, Seq2SeqConfig,
};
use legw_nn::ParamSet;
use legw_parallel::{with_pool, ThreadPool};
use legw_serve::{freeze, restore, FrozenModel, InferEngine, ModelConfig, DEFAULT_PLAN_CAPACITY};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Debug;
use std::sync::Arc;

fn assert_rows_bitwise(served: &[Vec<f32>], live: &[Vec<f32>], what: &str) {
    assert_eq!(served.len(), live.len());
    for (a, b) in served.iter().zip(live) {
        assert_eq!(a, b, "{what}: frozen-path output must match the live tape bitwise");
    }
}

#[test]
fn mnist_frozen_forward_matches_live_bitwise() {
    let mut ps = ParamSet::new();
    let mut rng = StdRng::seed_from_u64(11);
    let model = MnistLstm::new(&mut ps, &mut rng, 16, 16);

    let blob = freeze(&ModelConfig::MnistLstm { proj: 16, hidden: 16 }, &ps);
    let (frozen, ps2) = restore(&blob).expect("round-trip restore");
    let FrozenModel::MnistLstm(served) = frozen else { panic!("wrong family") };
    let engine = InferEngine::new(served, ps2);

    let reqs: Vec<Vec<f32>> =
        (0..5).map(|i| (0..784).map(|p| ((i * 7 + p) % 11) as f32 / 11.0).collect()).collect();
    let states = vec![(); reqs.len()];
    let live: Vec<Vec<f32>> = model
        .infer_tape(&ps, &model.assemble(&reqs, &states))
        .into_iter()
        .map(|(o, ())| o)
        .collect();
    for pass in 0..2 {
        let served: Vec<Vec<f32>> =
            engine.run(&reqs, &states).into_iter().map(|(o, ())| o).collect();
        assert_rows_bitwise(&served, &live, "mnist");
        assert_eq!(engine.cached_plans(), 1, "pass {pass} must use the one cached plan");
    }
}

/// The engine's plan cache holds `DEFAULT_PLAN_CAPACITY` batch shapes:
/// one more evicts the least recently used, and that shape's re-capture
/// over the same frozen weights replays bitwise like the evicted plan.
#[test]
fn engine_evicts_past_its_plan_capacity_and_recaptures_bitwise() {
    let mut ps = ParamSet::new();
    let model = MnistLstm::new(&mut ps, &mut StdRng::seed_from_u64(29), 16, 16);
    let engine = InferEngine::new(model, ps);
    // One batch size per infer key.
    let run = |n: usize| -> Vec<Vec<f32>> {
        let reqs: Vec<Vec<f32>> =
            (0..n).map(|i| (0..784).map(|p| ((i * 7 + p) % 11) as f32 / 11.0).collect()).collect();
        engine.run(&reqs, &vec![(); n]).into_iter().map(|(o, ())| o).collect()
    };
    let (first, second) = (run(1), run(2));
    for n in 3..=DEFAULT_PLAN_CAPACITY {
        run(n);
    }
    assert_eq!(engine.cached_plans(), DEFAULT_PLAN_CAPACITY, "every shape fits");
    assert_eq!(run(1), first, "a hit replays the cached plan");
    // Batch 1 was just refreshed, so one shape past the bound evicts batch
    // 2's plan, and batch 2 then captures again.
    run(DEFAULT_PLAN_CAPACITY + 1);
    assert_eq!(engine.cached_plans(), DEFAULT_PLAN_CAPACITY, "one shape past the bound evicts");
    assert_eq!(run(2), second, "the re-captured plan must reproduce the evicted one bitwise");
    assert_eq!(engine.cached_plans(), DEFAULT_PLAN_CAPACITY);
}

#[test]
fn ptb_frozen_forward_matches_live_bitwise_with_state() {
    let mut ps = ParamSet::new();
    let mut rng = StdRng::seed_from_u64(13);
    let cfg = PtbLmConfig { vocab: 30, embed: 12, hidden: 12, layers: 2, keep: 1.0 };
    let model = PtbLm::new(&mut ps, &mut rng, cfg);

    let blob = freeze(&ModelConfig::PtbLm { vocab: 30, embed: 12, hidden: 12, layers: 2 }, &ps);
    let (frozen, ps2) = restore(&blob).expect("round-trip restore");
    let FrozenModel::PtbLm(served) = frozen else { panic!("wrong family") };
    let engine = InferEngine::new(served, ps2);

    let reqs: Vec<Vec<usize>> = vec![vec![1, 5, 9, 2], vec![3, 3, 7, 8], vec![20, 4, 6, 1]];
    let zero = vec![model.zero_state(); reqs.len()];

    // Two chained windows: outputs of window 1 carry into window 2 on both
    // paths, so the comparison also proves state round-trips the server.
    let live1 = model.infer_tape(&ps, &model.assemble(&reqs, &zero));
    let served1 = engine.run(&reqs, &zero);
    assert_rows_bitwise(
        &served1.iter().map(|(o, _)| o.clone()).collect::<Vec<_>>(),
        &live1.iter().map(|(o, _)| o.clone()).collect::<Vec<_>>(),
        "ptb window 1",
    );

    let reqs2: Vec<Vec<usize>> = vec![vec![2, 9, 5, 1], vec![8, 7, 3, 3], vec![1, 6, 4, 20]];
    let live_states: Vec<_> = live1.into_iter().map(|(_, s)| s).collect();
    let served_states: Vec<_> = served1.into_iter().map(|(_, s)| s).collect();
    let live2 = model.infer_tape(&ps, &model.assemble(&reqs2, &live_states));
    let served2 = engine.run(&reqs2, &served_states);
    assert_rows_bitwise(
        &served2.iter().map(|(o, _)| o.clone()).collect::<Vec<_>>(),
        &live2.iter().map(|(o, _)| o.clone()).collect::<Vec<_>>(),
        "ptb window 2 (carried state)",
    );
    assert_eq!(engine.cached_plans(), 1, "equal-shape windows share one plan");
}

#[test]
fn seq2seq_frozen_decode_matches_live_tokens() {
    // embed = hidden makes every W_x / W_h row-slice of the two first-layer
    // encoder cells the same size, so in a forward-only plan they would
    // share one arena slot: a packed weight looked up by where its bytes sit
    // at replay serves the wrong cell's. 32/32 is the benchmark's
    // `seq2seq_b16` encoder, where exactly that was first seen.
    for (embed, hidden) in [(12, 12), (32, 32)] {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(17);
        let cfg = Seq2SeqConfig { vocab: 23, embed, hidden, attn: 8, max_decode: 8 };
        let model = Seq2Seq::new(&mut ps, &mut rng, cfg);

        let blob =
            freeze(&ModelConfig::Seq2Seq { vocab: 23, embed, hidden, attn: 8, max_decode: 8 }, &ps);
        let (frozen, ps2) = restore(&blob).expect("round-trip restore");
        let FrozenModel::Seq2Seq(served) = frozen else { panic!("wrong family") };
        let engine = InferEngine::new(served, ps2);

        // Ragged sources: the Infer impl PAD-coalesces like evaluation batches.
        let reqs: Vec<Vec<usize>> = vec![vec![3, 8, 12], vec![4, 5, 6, 7, 9], vec![10, 11]];
        let states = vec![(); reqs.len()];
        let live: Vec<Vec<usize>> = model
            .infer_tape(&ps, &model.assemble(&reqs, &states))
            .into_iter()
            .map(|(o, ())| o)
            .collect();
        for _ in 0..2 {
            let served: Vec<Vec<usize>> =
                engine.run(&reqs, &states).into_iter().map(|(o, ())| o).collect();
            assert_eq!(served, live, "frozen greedy decode must match token-for-token");
        }
        assert_eq!(engine.cached_plans(), 1);
    }
}

#[test]
fn resnet_frozen_forward_matches_live_bitwise_including_bn_stats() {
    let mut ps = ParamSet::new();
    let mut rng = StdRng::seed_from_u64(19);
    let mut model = ResNet::new(&mut ps, &mut rng, 4, 6);

    // Move the BN running statistics off their init values, by folding two
    // training tapes' batch statistics, so the artifact must actually carry
    // them for the eval forwards to agree.
    let images = legw_tensor::Tensor::from_vec(
        (0..8 * 3 * 32 * 32).map(|i| ((i % 23) as f32 - 11.0) / 11.0).collect(),
        &[8, 3, 32, 32],
    );
    let labels: Vec<usize> = (0..8).map(|i| i % 6).collect();
    for _ in 0..2 {
        let (g, ..) = model.forward_loss(&ps, &images, &labels);
        model.fold_batch_stats(&[(1.0, &g.bn_batch_stats()[..])]);
    }
    for (mean, var) in model.bn_running_stats() {
        assert!(mean.iter().all(|&x| x != 0.0) && var.iter().all(|&x| x != 1.0), "primed");
    }

    let blob = freeze(
        &ModelConfig::ResNet { width: 4, n_classes: 6, bn_stats: model.bn_running_stats() },
        &ps,
    );
    let (frozen, ps2) = restore(&blob).expect("round-trip restore");
    let FrozenModel::ResNet(served) = frozen else { panic!("wrong family") };
    assert_eq!(served.bn_running_stats(), model.bn_running_stats(), "stats must survive");
    let engine = InferEngine::new(served, ps2);

    let reqs: Vec<Vec<f32>> = (0..4)
        .map(|i| (0..3 * 32 * 32).map(|p| ((i * 13 + p) % 17) as f32 / 17.0).collect())
        .collect();
    let states = vec![(); reqs.len()];
    let live: Vec<Vec<f32>> = model
        .infer_tape(&ps, &model.assemble(&reqs, &states))
        .into_iter()
        .map(|(o, ())| o)
        .collect();
    for _ in 0..2 {
        let served: Vec<Vec<f32>> =
            engine.run(&reqs, &states).into_iter().map(|(o, ())| o).collect();
        assert_rows_bitwise(&served, &live, "resnet");
    }
    assert_eq!(engine.cached_plans(), 1);
}

/// Runs `f` with a `lanes`-lane kernel pool installed on this thread.
fn under_lanes<R>(lanes: usize, f: impl FnOnce() -> R) -> R {
    with_pool(&Arc::new(ThreadPool::new(lanes)), f)
}

fn bits(row: &[f32]) -> Vec<u32> {
    row.iter().map(|x| x.to_bits()).collect()
}

fn logit_bits((row, ()): (Vec<f32>, ())) -> Vec<u32> {
    bits(&row)
}

/// Serves the first `n` of `reqs`, for `n` = all of them and 2, on engines
/// over `build()`'s model under a 1-, 2- and 3-lane kernel pool: a fresh
/// engine per lane count, and one engine shared by all three. Each runs
/// twice, the capture and then the split's replays, and every row must
/// equal, by `key`, what one lane serves — which for an f32 engine is the
/// live tape's forward of the whole batch. Five rows make ragged groups
/// (3 + 2 on two lanes, 2 + 2 + 1 on three); two rows on three lanes make
/// two one-row groups.
fn assert_split_serving_exact<M: Infer, K: PartialEq + Debug>(
    build: impl Fn() -> (M, ParamSet),
    bf16: bool,
    reqs: &[M::Req],
    states: &[M::RowState],
    key: impl Fn((M::Out, M::RowState)) -> K,
) {
    let keys =
        |rows: Vec<(M::Out, M::RowState)>| -> Vec<K> { rows.into_iter().map(&key).collect() };
    let engine = || {
        let (model, ps) = build();
        InferEngine::new(model, ps).with_bf16(bf16)
    };
    for n in [reqs.len(), 2] {
        let (reqs, states) = (&reqs[..n], &states[..n]);
        let one_lane = keys(under_lanes(1, || engine().run(reqs, states)));
        if !bf16 {
            let (model, ps) = build();
            let live = keys(model.infer_tape(&ps, &model.assemble(reqs, states)));
            assert_eq!(one_lane, live, "{n} rows on one lane serve the live tape's");
        }
        let shared = engine();
        for lanes in [1, 2, 3] {
            let fresh = engine();
            for pass in 0..2 {
                let what = format!("{n} rows on {lanes} lanes, pass {pass}");
                assert_eq!(
                    keys(under_lanes(lanes, || fresh.run(reqs, states))),
                    one_lane,
                    "{what}"
                );
                let got = keys(under_lanes(lanes, || shared.run(reqs, states)));
                assert_eq!(got, one_lane, "{what}, on the shared engine");
            }
        }
        // One batch shape per row-group count: n.min(lanes) groups.
        assert_eq!(shared.cached_plans(), n.min(3), "{n} rows on 1, 2 and 3 lanes");
    }
}

fn mnist() -> (MnistLstm, ParamSet) {
    let mut ps = ParamSet::new();
    let model = MnistLstm::new(&mut ps, &mut StdRng::seed_from_u64(31), 16, 16);
    (model, ps)
}

/// `n` MNIST requests, the first from pattern `from`.
fn mnist_reqs(n: usize, from: usize) -> Vec<Vec<f32>> {
    let pixel = |i: usize, p: usize| ((i * 7 + p) % 11) as f32 / 11.0;
    (from..from + n).map(|i| (0..784).map(|p| pixel(i, p)).collect()).collect()
}

#[test]
fn mnist_split_serving_equals_one_lane_bitwise() {
    assert_split_serving_exact(mnist, false, &mnist_reqs(5, 0), &[(); 5], logit_bits);
}

/// bf16 panels are packed under a thread-local scope: a lane that missed
/// it would read f32 panels, or refuse bf16 ones.
#[test]
fn bf16_split_serving_equals_one_lane_bitwise() {
    assert_split_serving_exact(mnist, true, &mnist_reqs(5, 0), &[(); 5], logit_bits);
}

#[test]
fn resnet_split_serving_equals_one_lane_bitwise() {
    let build = || {
        let mut ps = ParamSet::new();
        let model = ResNet::new(&mut ps, &mut StdRng::seed_from_u64(37), 4, 6);
        (model, ps)
    };
    let reqs: Vec<Vec<f32>> = (0..5)
        .map(|i| (0..3 * 32 * 32).map(|p| ((i * 13 + p) % 17) as f32 / 17.0).collect())
        .collect();
    assert_split_serving_exact(build, false, &reqs, &[(); 5], logit_bits);
}

/// Ragged sources: every group keeps the batch's padded source length.
#[test]
fn seq2seq_split_serving_equals_one_lane_token_for_token() {
    let build = || {
        let mut ps = ParamSet::new();
        let cfg = Seq2SeqConfig { vocab: 23, embed: 12, hidden: 12, attn: 8, max_decode: 8 };
        let model = Seq2Seq::new(&mut ps, &mut StdRng::seed_from_u64(41), cfg);
        (model, ps)
    };
    let reqs: Vec<Vec<usize>> =
        vec![vec![10, 11], vec![4, 5, 6, 7, 9], vec![3, 8, 12], vec![13, 3], vec![5, 21, 9, 14]];
    assert_split_serving_exact(build, false, &reqs, &[(); 5], |(h, ())| h);
}

/// Every row carries in the state an earlier window left it, and carries
/// out its own.
#[test]
fn ptb_split_serving_equals_one_lane_bitwise_with_carried_state() {
    let build = || {
        let mut ps = ParamSet::new();
        let cfg = PtbLmConfig { vocab: 30, embed: 12, hidden: 12, layers: 2, keep: 1.0 };
        let model = PtbLm::new(&mut ps, &mut StdRng::seed_from_u64(43), cfg);
        (model, ps)
    };
    let window = |w: usize| -> Vec<Vec<usize>> {
        (0..5).map(|i| (0..4).map(|t| (7 * i + 3 * t + 11 * w) % 30).collect()).collect()
    };
    let (model, ps) = build();
    let zero = vec![model.zero_state(); 5];
    let carried: Vec<LmState> = model
        .infer_tape(&ps, &model.assemble(&window(0), &zero))
        .into_iter()
        .map(|(_, s)| s)
        .collect();
    let key = |(logits, state): (Vec<f32>, LmState)| {
        let layers = state.layers().iter().map(|(h, c)| (bits(h.as_slice()), bits(c.as_slice())));
        (bits(&logits), layers.collect::<Vec<_>>())
    };
    assert_split_serving_exact(build, false, &window(1), &carried, key);
}

/// A copy of a captured plan, made before the plan ever replays, replays
/// other rows bitwise like the live tape, on every lane count, while the
/// original keeps the outputs of its own last replay; both hold their
/// weight panels packed from the copy on. That the two hold them in one
/// storage is pinned where the panels live, by `legw-autograd`'s
/// `a_copy_replays_alone_and_shares_only_frozen_panels`.
#[test]
fn a_plan_copy_replays_alone_and_shares_the_weight_panels() {
    let (model, ps) = mnist();
    let a = model.assemble(&mnist_reqs(4, 0), &[(); 4]);
    let b = model.assemble(&mnist_reqs(4, 9), &[(); 4]);
    let mut plan = model.capture_infer(&ps, &a);
    let mut copy = plan.copy(&ps);
    let one_set = |plan: &legw_models::StepPlan, copy: &legw_models::StepPlan| {
        let (orig, copied) = (plan.stats(), copy.stats());
        assert!(orig.panels > 0 && orig.panel_bytes > 0, "{}", plan.describe());
        assert_eq!(copied.panel_bytes, orig.panel_bytes, "packed for the copy");
    };
    one_set(&plan, &copy);
    model.replay_infer(&mut plan, &ps, &a);
    let kept = bits(plan.output(0).as_slice());
    let live: Vec<Vec<u32>> = model.infer_tape(&ps, &b).into_iter().map(logit_bits).collect();
    for lanes in [1, 2, 3] {
        let got = under_lanes(lanes, || model.replay_infer(&mut copy, &ps, &b));
        assert_eq!(got.into_iter().map(logit_bits).collect::<Vec<_>>(), live, "{lanes} lanes");
        assert_eq!(bits(plan.output(0).as_slice()), kept, "the original's outputs are its own");
    }
    one_set(&plan, &copy);
}

/// Two threads, each on a kernel pool of its own (two and three lanes),
/// serve a mix of batch shapes through one engine at once; every answer
/// equals what a fresh engine serves for it serially, on one lane.
#[test]
fn two_threads_share_one_engine_over_mixed_shapes() {
    let sizes = [1usize, 5, 2, 7, 3, 5, 4];
    let reqs = mnist_reqs(7, 0);
    let served = |engine: &InferEngine<MnistLstm>, n: usize| -> Vec<Vec<u32>> {
        engine.run(&reqs[..n], &vec![(); n]).into_iter().map(logit_bits).collect()
    };
    let serial: Vec<Vec<Vec<u32>>> = under_lanes(1, || {
        let (model, ps) = mnist();
        let engine = InferEngine::new(model, ps);
        sizes.iter().map(|&n| served(&engine, n)).collect()
    });
    let (model, ps) = mnist();
    let engine = InferEngine::new(model, ps);
    std::thread::scope(|s| {
        for (t, lanes) in [(0usize, 2usize), (1, 3)] {
            let (engine, serial, served) = (&engine, &serial, &served);
            s.spawn(move || {
                under_lanes(lanes, || {
                    for round in 0..3 {
                        for k in (0..sizes.len()).map(|k| (k + 3 * t + round) % sizes.len()) {
                            let what = format!("thread {t}, round {round}, {} rows", sizes[k]);
                            assert_eq!(served(engine, sizes[k]), serial[k], "{what}");
                        }
                    }
                })
            });
        }
    });
}

/// A plan packs its weight panels once, in the engine's bf16 mode, so
/// switching the mode drops the plans captured in the other: the switched
/// engine serves what a fresh engine of its mode serves, each way.
#[test]
fn with_bf16_drops_the_plans_packed_in_the_other_mode() {
    let reqs = mnist_reqs(5, 0);
    let states = [(); 5];
    let engine = || InferEngine::new(mnist().0, mnist().1);
    let rows = |e: &InferEngine<MnistLstm>| -> Vec<Vec<u32>> {
        e.run(&reqs, &states).into_iter().map(logit_bits).collect()
    };
    let f32_engine = engine();
    let f32_rows = rows(&f32_engine);
    assert_eq!(rows(&f32_engine), f32_rows, "the first replay, which packs the panels");
    let bf16_rows = rows(&engine().with_bf16(true));
    assert_ne!(bf16_rows, f32_rows, "bf16 panels round the weights");

    let switched = f32_engine.with_bf16(true);
    assert_eq!(switched.cached_plans(), 0, "plans packed in f32 are dropped");
    assert_eq!((rows(&switched), rows(&switched)), (bf16_rows.clone(), bf16_rows));
    let back = switched.with_bf16(false);
    assert_eq!(back.cached_plans(), 0, "plans packed in bf16 are dropped");
    assert_eq!((rows(&back), rows(&back)), (f32_rows.clone(), f32_rows));
}
