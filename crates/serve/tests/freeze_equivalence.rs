//! Freeze → restore → batched tape-free forward must match the live-graph
//! forward of the original (never-serialised) model: bitwise for the
//! MNIST/PTB/ResNet logits, token-for-token for seq2seq greedy decoding.
//! Each engine runs its request set twice so the second pass exercises the
//! cached forward-only plan, not just the capture forward.

use legw_models::{Infer, MnistLstm, PtbLm, PtbLmConfig, ResNet, Seq2Seq, Seq2SeqConfig};
use legw_nn::ParamSet;
use legw_serve::{freeze, restore, FrozenModel, InferEngine, ModelConfig, DEFAULT_PLAN_CAPACITY};
use rand::rngs::StdRng;
use rand::SeedableRng;

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

    let blob = freeze(
        &ModelConfig::PtbLm { vocab: 30, embed: 12, hidden: 12, layers: 2 },
        &ps,
    );
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

        let blob = freeze(
            &ModelConfig::Seq2Seq { vocab: 23, embed, hidden, attn: 8, max_decode: 8 },
            &ps,
        );
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
        &ModelConfig::ResNet {
            width: 4,
            n_classes: 6,
            bn_stats: model.bn_running_stats(),
        },
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

/// Serving a batch shape it has seen, a seq2seq engine replays its encoder
/// plan and its decoder-step plan and builds no tape: the run takes no
/// buffer from the pool, fresh or recycled.
#[test]
fn seq2seq_steady_state_run_touches_no_pool_buffer() {
    let mut ps = ParamSet::new();
    let mut rng = StdRng::seed_from_u64(23);
    let cfg = Seq2SeqConfig { vocab: 23, embed: 32, hidden: 32, attn: 24, max_decode: 8 };
    let engine = InferEngine::new(Seq2Seq::new(&mut ps, &mut rng, cfg), ps);
    // 64 ragged sources of 3 to 5 tokens, the benchmark's offline batch.
    let reqs: Vec<Vec<usize>> =
        (0..64).map(|i| (0..3 + i % 3).map(|t| 3 + (7 * i + t) % 20).collect()).collect();
    let states = vec![(); reqs.len()];
    engine.run(&reqs, &states); // the capture
    engine.run(&reqs, &states); // the first replay
    // The counters are process-wide: one quiet window among a few suffices
    // to rule out a replay that touches the pool.
    let clean = (0..20).any(|_| {
        let before = legw_tensor::pool::stats();
        let out = engine.run(&reqs, &states);
        let delta = legw_tensor::pool::stats().since(&before);
        drop(out);
        delta.allocations == 0 && delta.recycles == 0
    });
    assert!(clean, "a steady-state seq2seq run took buffers from the pool");
    assert_eq!(engine.cached_plans(), 1);
}
