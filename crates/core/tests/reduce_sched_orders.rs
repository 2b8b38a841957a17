//! Adversarial-order properties of the streaming gradient reduction
//! ([`legw::reduce_sched`]): whatever order shard buffers arrive in, the
//! scheduler must produce the *bit-identical* result of the serial
//! fixed-order tree reduce — and a parallel executor's streaming reduce
//! must be byte-equal to the post-barrier [`tree_reduce`] of the same
//! scaled shard buffers for every training workload.

use legw::exec::{ExecConfig, Executor, Reduce};
use legw::reduce_sched::{tree_reduce, ReduceScheduler};
use legw::{DropPlan, MnistStep, PtbStep, ResnetStep, Seq2SeqStep, ShardStep};
use legw_data::{SynthMnist, SynthTranslation};
use legw_models::{MnistLstm, ResNet, Seq2Seq, Seq2SeqConfig};
use legw_nn::{GradBuffer, ParamId, ParamSet};
use legw_tensor::Tensor;
use legw_propcheck::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

// ---------------------------------------------------------------------------
// Scheduler vs serial reference under random completion orders.

/// Two parameters so leaves can have *sparse* buffers (param `b` absent on
/// every third leaf), exercising empty-slot absorbs.
fn params() -> (ParamSet, Vec<ParamId>) {
    let mut ps = ParamSet::new();
    let a = ps.add("a", Tensor::zeros(&[4]));
    let b = ps.add("b", Tensor::zeros(&[2]));
    (ps, vec![a, b])
}

/// Deterministic per-leaf gradients; leaf `i` skips param `b` when
/// `i % 3 == 0`.
fn make_leaves(ps: &ParamSet, ids: &[ParamId], n: usize) -> Vec<GradBuffer> {
    (0..n)
        .map(|i| {
            let mut buf = GradBuffer::for_params(ps);
            let va: Vec<f32> = (0..4).map(|k| ((i * 4 + k) as f32 * 0.731).sin()).collect();
            buf.accumulate(ids[0], &Tensor::from_vec(va, &[4]));
            if i % 3 != 0 {
                let vb: Vec<f32> = (0..2).map(|k| ((i * 2 + k) as f32 * 0.113).cos()).collect();
                buf.accumulate(ids[1], &Tensor::from_vec(vb, &[2]));
            }
            buf
        })
        .collect()
}

/// Bit pattern of a reduced buffer over the given params (`None` slots
/// render as empty).
fn bits(buf: &GradBuffer, ids: &[ParamId]) -> Vec<Vec<u32>> {
    ids.iter()
        .map(|&id| {
            buf.get(id)
                .map(|t| t.as_slice().iter().map(|v| v.to_bits()).collect())
                .unwrap_or_default()
        })
        .collect()
}

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// Seeded Fisher–Yates permutation of `0..n`.
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut s = seed | 1;
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (xorshift(&mut s) % (i as u64 + 1)) as usize;
        p.swap(i, j);
    }
    p
}

proptest! {
    /// Every completion order — sampled over seeds, at power-of-two and
    /// ragged widths — reproduces the serial tree reduce bit-for-bit.
    #[test]
    fn random_completion_orders_match_serial_reference(
        n in 1usize..14,
        seed in 0u64..1_000_000_000,
    ) {
        let (ps, ids) = params();
        let reference = bits(&tree_reduce(make_leaves(&ps, &ids, n)), &ids);
        let sched = ReduceScheduler::new(n);
        let mut leaves = make_leaves(&ps, &ids, n);
        for &i in &permutation(n, seed) {
            sched.complete(i, std::mem::take(&mut leaves[i]));
        }
        prop_assert_eq!(reference, bits(&sched.finish(), &ids));
    }
}

/// Genuinely concurrent completions: one OS thread per leaf, all released
/// by a barrier so partner subtrees race to the scheduler lock. Guards the
/// check-then-park atomicity of [`ReduceScheduler::complete`] — a lost
/// merge shows up as a `finish` panic or a bit mismatch. The single-thread
/// order tests above cannot exercise this.
#[test]
fn concurrent_completions_from_real_threads_match_serial_reference() {
    use std::sync::{Arc, Barrier};
    for n in [2usize, 3, 4, 7, 8] {
        let (ps, ids) = params();
        let reference = bits(&tree_reduce(make_leaves(&ps, &ids, n)), &ids);
        for round in 0..200 {
            let sched = Arc::new(ReduceScheduler::new(n));
            let start = Arc::new(Barrier::new(n));
            let handles: Vec<_> = make_leaves(&ps, &ids, n)
                .into_iter()
                .enumerate()
                .map(|(i, buf)| {
                    let sched = Arc::clone(&sched);
                    let start = Arc::clone(&start);
                    std::thread::spawn(move || {
                        start.wait();
                        sched.complete(i, buf);
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            let sched = Arc::try_unwrap(sched).ok().expect("all threads joined");
            assert_eq!(reference, bits(&sched.finish(), &ids), "n={n} round={round}");
        }
    }
}

// ---------------------------------------------------------------------------
// Parallel executor (streaming) vs the post-barrier tree reduce: byte-equal
// for all four workloads.

/// Shard counts exercised, including a prime and one exceeding some
/// batches (ranges cap at the batch size).
const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 7];

fn grad_bits(ps: &ParamSet) -> Vec<u32> {
    ps.iter().flat_map(|(_, p)| p.grad.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>()).collect()
}

/// One step of `w` split for a `shards`-wide parallel executor. `streaming`
/// runs it there; otherwise the *same* shards' tapes are recorded, run
/// backward and scaled here, in shard order, and combined by the
/// post-barrier [`tree_reduce`].
fn step_with<W: ShardStep>(
    shards: usize,
    streaming: bool,
    w: &W,
    ps: &mut ParamSet,
) -> (u64, Vec<W::Extra>) {
    let parallel = Executor::new(ExecConfig::default().with_shards(shards));
    if streaming {
        let (out, extras) = parallel.step(w, ps);
        return (out.loss.to_bits(), extras);
    }
    let split = w.split(&parallel);
    let total: f64 = split.iter().map(|s| w.weight(s)).sum();
    let weighted = split.len() > 1 && w.reduce() == Reduce::WeightedMean;
    let (mut bufs, mut loss, mut extras) = (Vec::new(), 0.0, Vec::new());
    for s in &split {
        let mut tape = w.record(ps, s);
        tape.graph.backward(tape.loss);
        let mut buf = GradBuffer::for_params(ps);
        tape.binding.write_grads_to(&tape.graph, &mut buf);
        let frac = w.weight(s) / total;
        if weighted {
            buf.scale(frac as f32);
        }
        // One shard reports its loss unscaled, as `0.0 + l` is `l`.
        loss += if weighted { frac * tape.value } else { tape.value };
        bufs.push(buf);
        extras.push(tape.extra);
    }
    tree_reduce(bufs).apply_with_sq_norm(ps);
    (loss.to_bits(), extras)
}

fn mnist_bits(shards: usize, streaming: bool) -> (u64, Vec<u32>) {
    let data = SynthMnist::generate(7, 32, 8);
    let (bx, by) = data.train.gather(&(0..19).collect::<Vec<_>>());
    let mut ps = ParamSet::new();
    let mut rng = StdRng::seed_from_u64(3);
    let model = MnistLstm::new(&mut ps, &mut rng, 8, 8);
    let step = MnistStep { model: &model, bx: &bx, by: &by };
    let (loss, _) = step_with(shards, streaming, &step, &mut ps);
    (loss, grad_bits(&ps))
}

fn ptb_bits(shards: usize, streaming: bool) -> (u64, Vec<u32>) {
    use legw_models::{LmState, PtbLm, PtbLmConfig};
    let data = legw_data::SynthPtb::generate(31, 24, 6, 4_000, 800);
    let cfg = PtbLmConfig { vocab: 24, embed: 10, hidden: 10, layers: 2, keep: 0.8 };
    let mut ps = ParamSet::new();
    let mut rng = StdRng::seed_from_u64(37);
    let model = PtbLm::new(&mut ps, &mut rng, cfg);
    let window = data.batches(true, 8, 12).remove(0);
    let state = LmState::zeros(&cfg, 8);
    let step = PtbStep {
        model: &model,
        window: &window,
        state: &state,
        drop: Some(DropPlan { seed: 5, step: 2 }),
    };
    let (loss, _) = step_with(shards, streaming, &step, &mut ps);
    (loss, grad_bits(&ps))
}

fn seq2seq_bits(shards: usize, streaming: bool) -> (u64, Vec<u32>) {
    let data = SynthTranslation::generate(9, 12, 16, 4, 2, 5);
    let b = data.batches(true, 11).into_iter().next().unwrap();
    let mut ps = ParamSet::new();
    let mut rng = StdRng::seed_from_u64(4);
    let cfg = Seq2SeqConfig::compact(data.vocab, data.max_len() + 1);
    let model = Seq2Seq::new(&mut ps, &mut rng, cfg);
    let step = Seq2SeqStep { model: &model, batch: &b };
    let (loss, _) = step_with(shards, streaming, &step, &mut ps);
    (loss, grad_bits(&ps))
}

fn resnet_bits(shards: usize, streaming: bool) -> (u64, Vec<u32>) {
    let data = legw_data::SynthImageNet::generate_sized(4, 8, 32, 8, 16);
    let (bx, by) = data.train.gather(&(0..14).collect::<Vec<_>>());
    let mut ps = ParamSet::new();
    let mut rng = StdRng::seed_from_u64(6);
    let mut model = ResNet::new(&mut ps, &mut rng, 8, 8);
    let snapshot = model.clone();
    let step = ResnetStep { model: &snapshot, bx: &bx, by: &by };
    let (loss, stats) = step_with(shards, streaming, &step, &mut ps);
    ResnetStep::fold_stats(&mut model, &stats);
    (loss, grad_bits(&ps))
}

#[test]
fn mnist_streaming_matches_barrier_bitwise() {
    for shards in SHARD_COUNTS {
        assert_eq!(mnist_bits(shards, true), mnist_bits(shards, false), "shards={shards}");
    }
}

#[test]
fn ptb_dropout_streaming_matches_barrier_bitwise() {
    for shards in SHARD_COUNTS {
        assert_eq!(ptb_bits(shards, true), ptb_bits(shards, false), "shards={shards}");
    }
}

#[test]
fn seq2seq_streaming_matches_barrier_bitwise() {
    for shards in SHARD_COUNTS {
        assert_eq!(seq2seq_bits(shards, true), seq2seq_bits(shards, false), "shards={shards}");
    }
}

#[test]
fn resnet_streaming_matches_barrier_bitwise() {
    for shards in SHARD_COUNTS {
        assert_eq!(resnet_bits(shards, true), resnet_bits(shards, false), "shards={shards}");
    }
}
