//! Epoch-end evaluation: the forward-only side of the data-parallel
//! executor, and the one evaluation sweep of each model family. There is
//! no separate serial sweep: the serial result is the one-shard executor's,
//! `Executor::new(ExecConfig::default())`, whatever lanes it runs on.
//!
//! The chunked sweeps (MNIST, ResNet, seq2seq) walk the serial chunks in
//! dataset order and compute each chunk as contiguous row groups, one per
//! lane, through `Executor::map_lanes`. What a lane is depends on the
//! executor and on what a group runs, by one rule: a tape is recorded only
//! on the caller's thread or a shard's, and a kernel-pool worker only
//! replays plans the caller captured.
//!
//! - On a sharded executor a lane is a shard: each group runs on the shard
//!   pool under its shard's intra-op pool, as a training shard does. The
//!   classifiers' tapes and the decode's replays both split this way.
//! - On the one-shard executor the classifiers run each chunk as one group
//!   on the caller's thread, their kernels forking on the caller's kernel
//!   pool. The seq2seq decode splits each batch over the lanes of that
//!   pool ([`legw_parallel::current`]), each group under a one-lane
//!   intra-op pool, adding no thread: its GEMMs (16–64 rows against hidden
//!   32) are too small to fork, so without the split every lane but the
//!   caller's sat idle through the decode. Before the lanes start, the
//!   caller captures each group shape once, decoding the group it captures
//!   from, and gives every other lane that meets the shape a copy of that
//!   plan ([`InferPlan::copy`]: an arena of its own, the weight panels
//!   shared).
//!
//! The rule is about memory. A worker that records a tape allocates it
//! from its own glibc malloc arena, which keeps those pages after the tape
//! is dropped and which the caller's later work cannot reuse; row-group
//! tapes on the kernel pool's worker raised the benchmark's `peak_rss_mb`
//! by 6–11 % on `resnet_b128_lars` and 3 % on `seq2seq_b16` (2-core
//! AVX-512 host). A plan's arena comes from the thread that captures it,
//! so a lane that only replays allocates little of its own. Shard threads
//! record training tapes anyway.
//!
//! Rows are split within a chunk; whole chunks are not spread over lanes.
//! Concurrent chunks would keep one full chunk tape per lane alive: two
//! 256-row MNIST tapes at once raised an eval's peak RSS from 78 to 148 MB,
//! where two 128-row groups stayed at 78 MB and ran as fast. Splitting
//! rows also keeps every lane busy on a sweep with one chunk and on the
//! ragged last one.
//!
//! Exactness: every forward kernel computes a row the same way however many
//! rows and lanes share the call (`prop_gemm_rows_do_not_depend_on_m` for
//! the GEMM, `crates/models/tests/row_groups.rs` per model), and a seq2seq
//! group is a [`TranslationBatch::slice`](legw_data::TranslationBatch::slice)
//! of the padded batch, which keeps the batch's source length. So every
//! row's logits and decoded tokens are the same for any shard count, lane
//! count and chunk size, and the results combine exactly: integer hit
//! counts add, hypotheses concatenate in row order.
//!
//! PTB keeps its own path. Its stream carries recurrent state across
//! windows, so its only parallel axis is the track (row) dimension, and
//! shard NLLs combine by a track-count weighted mean, which matches the
//! full-batch mean only up to floating-point association. One shard's
//! weight is exactly 1, so the one-shard sweep is exact; it runs on the
//! caller's thread, and its tracks are not split over lanes.

use crate::exec::Executor;
use legw_autograd::{Graph, Var};
use legw_data::{metrics, Classification, SynthPtb, SynthTranslation};
use legw_models::{Infer, InferPlan, LmState, MnistLstm, PtbLm, ResNet, Seq2Seq, Seq2SeqPlan};
use legw_nn::{Binding, ParamSet};
use legw_tensor::Tensor;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Mutex;

/// The serial chunk boundaries for `n` examples: `⌈n/chunk⌉` index ranges
/// of at most `chunk` examples, in dataset order.
fn chunk_ranges(n: usize, chunk: usize) -> Vec<Range<usize>> {
    let chunk = chunk.max(1);
    (0..n.div_ceil(chunk)).map(|i| i * chunk..((i + 1) * chunk).min(n)).collect()
}

impl Executor {
    /// The one chunked sweep: every chunk in order, each as contiguous row
    /// groups over at most `lanes` lanes ([`Executor::map_lanes`]).
    /// `group(lane, i, rows)` computes the rows `rows` (indices within
    /// chunk `i`) on lane `lane`. Returns the groups' results in row order.
    fn sweep<C: Sync, R: Send>(
        &self,
        lanes: usize,
        chunks: &[C],
        rows: impl Fn(&C) -> usize,
        group: impl Fn(usize, usize, Range<usize>) -> R + Sync,
    ) -> Vec<R> {
        let mut out = Vec::new();
        for (i, c) in chunks.iter().enumerate() {
            let groups = legw_parallel::split_evenly(rows(c), lanes);
            out.extend(self.map_lanes(&groups, |lane, r| group(lane, i, r.clone())));
        }
        out
    }

    /// The chunked classification sweep behind [`Executor::eval_mnist`]
    /// and [`Executor::eval_resnet`]: `chunk`-sized batches in dataset
    /// order, each split into row groups over the shards (a group records
    /// a tape, so the one-shard executor runs each chunk whole on the
    /// caller's thread), `(top-1, top-k)` hits counted as integers so they
    /// combine exactly. `forward` records one row group's inference
    /// forward on the tape it is given and returns the logits.
    fn eval_classifier(
        &self,
        data: &Classification,
        chunk: usize,
        k: Option<usize>,
        forward: impl Fn(&mut Graph, &mut Binding, &Tensor) -> Var + Sync,
    ) -> (f64, f64) {
        let n = data.len();
        if n == 0 {
            return (0.0, 0.0);
        }
        let chunks = chunk_ranges(n, chunk);
        let lanes = self.shards();
        // One tape per lane, reset between groups: a fresh tape per 256-row
        // chunk cost `mnist_b32` 31 % of its eval throughput (4 pairs,
        // 2-core AVX-512 host), most likely because the reset tape's live
        // node Vec keeps glibc from trimming the heap top a dropped tape
        // leaves free, which the next tape would fault back in.
        let tapes: Vec<Mutex<Graph>> = (0..lanes).map(|_| Mutex::new(Graph::new())).collect();
        let hits = self.sweep(lanes, &chunks, |c| c.len(), |lane, i, r| {
            let start = chunks[i].start;
            let idx: Vec<usize> = (start + r.start..start + r.end).collect();
            let (batch, labels) = data.gather(&idx);
            let mut graph = tapes[lane].lock().unwrap();
            graph.reset();
            let logits = forward(&mut graph, &mut Binding::new(), &batch);
            let lv = graph.value(logits);
            let count = |frac: f64| (frac * labels.len() as f64).round() as u64;
            let top_k = k.map_or(0, |k| count(metrics::top_k_accuracy(lv, &labels, k)));
            (count(metrics::accuracy(lv, &labels)), top_k)
        });
        let (c1, ck) = hits.into_iter().fold((0u64, 0u64), |(a, b), (x, y)| (a + x, b + y));
        (c1 as f64 / n as f64, ck as f64 / n as f64)
    }

    /// Top-1 accuracy of the MNIST-LSTM classifier over a dataset in
    /// `chunk`-sized batches, each split over this executor's shards. The
    /// same metric for every shard count, lane count and chunk size.
    pub fn eval_mnist(
        &self,
        model: &MnistLstm,
        ps: &ParamSet,
        data: &Classification,
        chunk: usize,
    ) -> f64 {
        self.eval_classifier(data, chunk, None, |g, bd, x| model.forward(g, bd, ps, x)).0
    }

    /// `(top-1, top-k)` accuracy of the ResNet over a dataset in
    /// evaluation mode (BatchNorm with the running statistics), in
    /// `chunk`-sized batches, each split over this executor's shards.
    pub fn eval_resnet(
        &self,
        model: &ResNet,
        ps: &ParamSet,
        data: &Classification,
        chunk: usize,
        k: usize,
    ) -> (f64, f64) {
        self.eval_classifier(data, chunk, Some(k), |g, bd, x| {
            model.forward(g, bd, ps, x, false)
        })
    }

    /// Validation perplexity of the PTB language model over `batch`
    /// parallel tracks, sharded by track. Each shard walks the full window
    /// stream carrying its own slice of the recurrent state; shard NLLs
    /// combine by track-count weighted mean.
    pub fn eval_ptb_perplexity(
        &self,
        model: &PtbLm,
        ps: &ParamSet,
        data: &SynthPtb,
        batch: usize,
        seq_len: usize,
    ) -> f64 {
        let windows = data.batches(false, batch, seq_len);
        if windows.is_empty() {
            return f64::INFINITY;
        }
        let tracks = windows[0].tracks();
        let ranges = self.shard_ranges(tracks);
        let partials = self.map_shards(&ranges, |_, r| {
            let mut state = LmState::zeros(model.config(), r.end - r.start);
            let mut total = 0.0f64;
            for w in &windows {
                let sw = w.slice_tracks(r.start, r.end);
                let (_, _, _, nll, next) = model.forward_loss(ps, &sw, &state);
                total += nll;
                state = next;
            }
            total
        });
        let weighted: f64 = ranges
            .iter()
            .zip(&partials)
            .map(|(r, p)| (r.end - r.start) as f64 / tracks as f64 * p)
            .sum();
        (weighted / windows.len() as f64).exp()
    }

    /// Greedy decodes of the seq2seq model over the test split, in padded
    /// batches of `batch`, one hypothesis per test pair in corpus order.
    /// Each batch is split into row groups over this executor's lanes
    /// (`Executor::lanes`), each group a
    /// [`TranslationBatch::slice`](legw_data::TranslationBatch::slice) that
    /// keeps the batch's padded source length. Each lane keeps one plan per
    /// group shape it meets. Before the sweep, the caller walks the groups
    /// in order, compiles each shape's plans from the first group of that
    /// shape ([`Infer::capture_infer`]), keeping that group's decodes, and
    /// gives every other lane that meets the shape a copy of them; the lanes
    /// then replay their plans on every other group, recording no tape.
    pub fn decode_seq2seq(
        &self,
        model: &Seq2Seq,
        ps: &ParamSet,
        data: &SynthTranslation,
        batch: usize,
    ) -> Vec<Vec<usize>> {
        let batches = data.batches(false, batch);
        let lanes = self.lanes();
        // The caller records every capture tape and makes every copy: a tape
        // recorded on a kernel-pool worker would stay resident in its malloc
        // arena, and a copy's arena comes from the thread that makes it.
        let mut plans: HashMap<(usize, Vec<usize>), Mutex<Seq2SeqPlan>> = HashMap::new();
        let mut captured_on: HashMap<Vec<usize>, usize> = HashMap::new();
        let mut captured = HashMap::new();
        for (i, b) in batches.iter().enumerate() {
            let groups = legw_parallel::split_evenly(b.batch_size(), lanes);
            for (lane, r) in groups.into_iter().enumerate() {
                let group = b.slice(r.start, r.end);
                let key = model.infer_key(&group);
                if plans.contains_key(&(lane, key.clone())) {
                    continue;
                }
                let plan = match captured_on.get(&key) {
                    Some(&from) => {
                        let first = plans.get_mut(&(from, key.clone())).expect("captured");
                        first.get_mut().unwrap().copy(ps)
                    }
                    None => {
                        let (plan, hyps) = model.capture_infer(ps, &group);
                        captured.insert((i, lane), hyps);
                        captured_on.insert(key.clone(), lane);
                        plan
                    }
                };
                plans.insert((lane, key), Mutex::new(plan));
            }
        }
        let groups = self.sweep(lanes, &batches, |b| b.batch_size(), |lane, i, r| {
            if let Some(hyps) = captured.get(&(i, lane)) {
                return hyps.clone();
            }
            let group = batches[i].slice(r.start, r.end);
            let mut plan = plans[&(lane, model.infer_key(&group))].lock().unwrap();
            model.replay_infer(&mut plan, ps, &group)
        });
        groups.into_iter().flatten().map(|(h, ())| h).collect()
    }

    /// Corpus BLEU of the seq2seq model over the test split (paper metric,
    /// higher is better), greedy-decoded by [`Executor::decode_seq2seq`].
    /// Hypotheses concatenate in row order, so the score is identical for
    /// every shard count, lane count and batch size.
    pub fn eval_seq2seq_bleu(
        &self,
        model: &Seq2Seq,
        ps: &ParamSet,
        data: &SynthTranslation,
        batch: usize,
    ) -> f64 {
        if data.test.is_empty() {
            return 0.0;
        }
        let refs: Vec<Vec<usize>> = data.test.iter().map(|(_, t)| t.clone()).collect();
        metrics::corpus_bleu(&self.decode_seq2seq(model, ps, data, batch), &refs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecConfig;
    use legw_data::{SynthImageNet, SynthMnist};
    use legw_models::{PtbLmConfig, Seq2SeqConfig};
    use legw_parallel::{with_pool, ThreadPool};
    use legw_propcheck::must_finish;
    use rand::{rngs::StdRng, SeedableRng};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Runs `f` with a `lanes`-lane kernel pool installed on this thread.
    fn under_lanes<R>(lanes: usize, f: impl FnOnce() -> R) -> R {
        with_pool(&Arc::new(ThreadPool::new(lanes)), f)
    }

    #[test]
    fn chunk_ranges_cover_exactly() {
        assert_eq!(chunk_ranges(10, 4), vec![0..4, 4..8, 8..10]);
        assert_eq!(chunk_ranges(4, 4), vec![0..4]);
        assert_eq!(chunk_ranges(0, 4), Vec::<Range<usize>>::new());
    }

    #[test]
    fn map_shards_preserves_item_order() {
        for shards in [1usize, 2, 3] {
            let exec = Executor::new(ExecConfig::default().with_shards(shards));
            let items: Vec<usize> = (0..shards).collect();
            let out = exec.map_shards(&items, |i, &x| {
                assert_eq!(i, x);
                x * 10
            });
            assert_eq!(out, (0..shards).map(|x| x * 10).collect::<Vec<_>>());
        }
        // The serial executor maps any number of items, in order.
        let exec = Executor::new(ExecConfig::default());
        let out = exec.map_shards(&[5usize, 6, 7], |i, &x| (i, x));
        assert_eq!(out, vec![(0, 5), (1, 6), (2, 7)]);
    }

    /// A lane is a shard on a sharded executor and a kernel-pool lane on
    /// the one-shard executor. Either way items come back in order; on the
    /// one-shard executor each lane of a fork sees a one-lane kernel pool,
    /// and a single item is no fork: it keeps the caller's pool.
    #[test]
    fn map_lanes_preserves_item_order_on_every_executor() {
        let threads = || legw_parallel::current().threads();
        for lanes in [1usize, 2, 3] {
            under_lanes(lanes, || {
                let one = Executor::new(ExecConfig::default());
                assert_eq!(one.lanes(), lanes);
                let items: Vec<usize> = (0..lanes).collect();
                let seen = one.map_lanes(&items, |i, &x| (i, x, threads()));
                assert_eq!(seen, (0..lanes).map(|x| (x, x, 1)).collect::<Vec<_>>());
                assert_eq!(one.map_lanes(&[7usize], |_, _| threads()), vec![lanes]);
            });
        }
        for shards in [2usize, 3] {
            let exec = Executor::new(ExecConfig::default().with_shards(shards));
            assert_eq!(exec.lanes(), shards);
            let items: Vec<usize> = (0..shards).collect();
            let out = exec.map_lanes(&items, |i, &x| i * 10 + x);
            assert_eq!(out, (0..shards).map(|x| x * 11).collect::<Vec<_>>());
        }
    }

    /// A forward that panics on one row group reaches the sweep's caller as
    /// the pool's re-raised panic, without a hang, and the same executor's
    /// next evals return the serial results: on the one-shard executor,
    /// whose sweep forks on a 3-lane kernel pool, and on sharded ones.
    #[test]
    fn a_failing_row_group_reaches_the_caller_and_the_next_eval_is_serial() {
        must_finish(|| {
            let data = SynthMnist::generate(31, 16, 30);
            let mut rng = StdRng::seed_from_u64(9);
            let mut ps = ParamSet::new();
            let model = MnistLstm::new(&mut ps, &mut rng, 8, 8);
            let tdata = SynthTranslation::generate(9, 12, 16, 12, 2, 5);
            let cfg =
                Seq2SeqConfig { vocab: tdata.vocab, embed: 8, hidden: 8, attn: 6, max_decode: 6 };
            let s2s = Seq2Seq::new(&mut ps, &mut rng, cfg);
            let evals = |exec: &Executor| {
                let acc = exec.eval_mnist(&model, &ps, &data.test, 12);
                (acc.to_bits(), exec.decode_seq2seq(&s2s, &ps, &tdata, 4))
            };
            let serial = under_lanes(1, || evals(&Executor::new(ExecConfig::default())));
            let chunks = chunk_ranges(data.test.len(), 12);
            for shards in [1usize, 2, 3] {
                let exec = Executor::new(ExecConfig::default().with_shards(shards));
                under_lanes(3, || {
                    let calls = AtomicUsize::new(0);
                    let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        exec.sweep(exec.lanes(), &chunks, |c| c.len(), |_, i, r| {
                            let call = calls.fetch_add(1, Ordering::Relaxed);
                            assert_ne!(call, 3, "row group 3 fails");
                            let start = chunks[i].start;
                            let idx: Vec<usize> = (start + r.start..start + r.end).collect();
                            model.forward_infer(&ps, &data.test.gather(&idx).0).0.len()
                        })
                    }));
                    let payload = failed.expect_err("the failed row group must reach the caller");
                    let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
                    assert_eq!(msg, "a task panicked inside ThreadPool::run", "shards={shards}");
                    assert_eq!(evals(&exec), serial, "shards={shards}");
                });
            }
        });
    }

    /// The serial sweep is the one-shard executor; every other shard count
    /// and every chunk size must count the same hits.
    #[test]
    fn eval_mnist_is_shard_and_chunk_invariant() {
        let data = SynthMnist::generate(31, 48, 40);
        let mut rng = StdRng::seed_from_u64(9);
        let mut ps = ParamSet::new();
        let model = MnistLstm::new(&mut ps, &mut rng, 10, 10);
        let serial = Executor::new(ExecConfig::default()).eval_mnist(&model, &ps, &data.test, 16);
        assert!((0.0..0.5).contains(&serial), "untrained accuracy should be near chance: {serial}");
        for shards in [1usize, 2, 3, 7] {
            let exec = Executor::new(ExecConfig::default().with_shards(shards));
            for chunk in [7usize, 16, 40] {
                let acc = exec.eval_mnist(&model, &ps, &data.test, chunk);
                assert_eq!(acc, serial, "shards={shards} chunk={chunk}");
            }
        }
    }

    /// Evaluation mode reads the running statistics (primed here by one
    /// training tape's folded batch statistics), so neither chunking nor
    /// sharding may move the counts.
    #[test]
    fn eval_resnet_is_shard_and_chunk_invariant() {
        let data = SynthImageNet::generate_sized(11, 4, 48, 24, 16);
        let mut rng = StdRng::seed_from_u64(12);
        let mut ps = ParamSet::new();
        let mut model = ResNet::new(&mut ps, &mut rng, 4, 4);
        let (bx, by) = data.train.gather(&(0..24).collect::<Vec<_>>());
        let (g, ..) = model.forward_loss(&ps, &bx, &by);
        model.fold_batch_stats(&[(1.0, &g.bn_batch_stats()[..])]);
        for (mean, var) in model.bn_running_stats() {
            assert!(mean.iter().all(|&x| x != 0.0) && var.iter().all(|&x| x != 1.0), "primed");
        }
        let serial = Executor::new(ExecConfig::default()).eval_resnet(&model, &ps, &data.test, 6, 2);
        assert!((0.0..=1.0).contains(&serial.0));
        assert!(serial.1 >= serial.0, "top-k must dominate top-1");
        for shards in [1usize, 2, 3, 7] {
            let exec = Executor::new(ExecConfig::default().with_shards(shards));
            for chunk in [5usize, 6, 24] {
                let got = exec.eval_resnet(&model, &ps, &data.test, chunk, 2);
                assert_eq!(got, serial, "shards={shards} chunk={chunk}");
            }
        }
    }

    /// An untrained language model sits near the uniform perplexity, above
    /// the corpus floor, and the validation NLL does not depend on how many
    /// tracks the stream is split into beyond stream-truncation effects.
    #[test]
    fn eval_ptb_untrained_is_near_uniform_for_any_track_count() {
        let data = SynthPtb::generate(6, 40, 6, 8_000, 4_000);
        let cfg = PtbLmConfig { vocab: 40, embed: 12, hidden: 12, layers: 2, keep: 1.0 };
        let mut rng = StdRng::seed_from_u64(8);
        let mut ps = ParamSet::new();
        let model = PtbLm::new(&mut ps, &mut rng, cfg);
        let exec = Executor::new(ExecConfig::default());
        let a = exec.eval_ptb_perplexity(&model, &ps, &data, 4, 10).ln();
        let b = exec.eval_ptb_perplexity(&model, &ps, &data, 8, 10).ln();
        assert!((a - b).abs() < 0.2, "track-split sensitivity too high: {a} vs {b}");
        assert!((a - 40f64.ln()).abs() < 0.6, "nll {a} vs ln 40 {}", 40f64.ln());
        assert!(a.exp() > data.perplexity_floor());
    }
}
