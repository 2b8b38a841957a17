//! Epoch-end evaluation: the forward-only side of the data-parallel
//! executor, and the one evaluation sweep of each model family. The serial
//! result is the one-shard executor's, whatever lanes it runs on.
//!
//! The chunked sweeps (MNIST, ResNet, seq2seq) share one routine,
//! `Executor::forward_sweep`: every chunk in dataset order, as contiguous
//! row groups, one per lane (`Executor::map_lanes`), each replaying an
//! inference plan of its shape. The caller gives every group its plan
//! before the lanes start ([`group_plans`], the routine serving calls too):
//! for a chunk shape it has no plans for, each group shape's first plan is
//! captured from shapes ([`Infer::capture_infer`], which runs no kernel)
//! and every later group of that shape gets a copy ([`InferPlan::copy`]).
//! So no lane records a tape: a kernel-pool worker's glibc malloc arena
//! would keep its pages. A group whose plan was just captured computes its
//! rows by replaying it, like every other group.
//!
//! The executor keeps the plans across calls, per model family, for the
//! last model it evaluated ([`Infer::params`] and their shapes tell models
//! apart): one plan per row group of each chunk shape, keyed by its groups'
//! keys, as serving keeps one per batch shape. Every eval call but a run's
//! first captures nothing. A plan captures no value, so a call starts by
//! repacking its plans' weight panels ([`InferPlan::renew`]). A kept plan
//! keeps its arena, on every executor as in serving, until it is dropped:
//! a later call takes nothing from the buffer pool but its chunks' inputs
//! (`tests/eval_keeps_arenas.rs`). A call holds its family's plans alone,
//! so two threads may evaluate on one executor, and a call that panics
//! drops them: the next captures again. DESIGN.md §6 has the measurements
//! behind each choice.
//!
//! Exactness: every forward kernel computes a row the same way however many
//! rows share the call (`crates/models/tests/row_groups.rs`), a plan
//! replays its tape bitwise, and a seq2seq group is a
//! [`TranslationBatch::slice`](legw_data::TranslationBatch::slice) that
//! keeps the batch's source length. So every row's logits and decoded
//! tokens are the same for any shard count, lane count and chunk size:
//! integer hit counts add, hypotheses concatenate in row order.
//!
//! PTB keeps its own path, on the tape: its NLL is the loss kernel's, which
//! an inference plan does not return. Shard NLLs combine by a track-count
//! weighted mean, exact only up to floating-point association; one shard's
//! weight is exactly 1, so the one-shard sweep is exact.

use crate::exec::Executor;
use legw_data::{metrics, Classification, SynthPtb, SynthTranslation};
use legw_models::{group_plans, Infer, InferPlan, LmState, MnistLstm, PtbLm, ResNet, Seq2Seq};
use legw_nn::{ParamId, ParamSet};
use legw_tensor::Tensor;
use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::{Mutex, PoisonError};

/// One `(output, carried state)` per row.
type Rows<M> = Vec<(<M as Infer>::Out, <M as Infer>::RowState)>;

/// One family's kept plans, one per row group of each chunk shape (keyed
/// by its groups' keys), and their model's parameters with their shapes.
type Kept<P> = (Vec<(ParamId, Vec<usize>)>, HashMap<Vec<usize>, Vec<P>>);

/// One [`Kept`] per model family; never locked across a replay.
pub(crate) type KeptPlans = Mutex<HashMap<TypeId, Box<dyn Any + Send>>>;

/// The serial chunk boundaries for `n` examples: `⌈n/chunk⌉` index ranges
/// of at most `chunk` examples, in dataset order.
fn chunk_ranges(n: usize, chunk: usize) -> Vec<Range<usize>> {
    let chunk = chunk.max(1);
    (0..n.div_ceil(chunk)).map(|i| i * chunk..((i + 1) * chunk).min(n)).collect()
}

impl Executor {
    /// The one forward sweep: every chunk in order, cut into contiguous row
    /// groups over at most [`Executor::lanes`] lanes
    /// ([`legw_parallel::split_evenly`] of its `rows`), each group's batch
    /// built by `group(chunk, rows)` and computed on its lane by a kept
    /// plan, as the module docs describe. Returns each chunk's rows in row
    /// order.
    fn forward_sweep<M, C>(
        &self,
        model: &M,
        ps: &ParamSet,
        chunks: &[C],
        rows: impl Fn(&C) -> usize,
        group: impl Fn(&C, Range<usize>) -> M::Batch,
    ) -> Vec<Rows<M>>
    where
        M: Infer + 'static,
        M::Plan: 'static,
    {
        let store = || self.kept.lock().unwrap_or_else(PoisonError::into_inner);
        let id: Vec<_> =
            model.params().iter().map(|&p| (p, ps.value(p).shape().to_vec())).collect();
        let taken =
            store().remove(&TypeId::of::<M>()).and_then(|k| k.downcast::<Kept<M::Plan>>().ok());
        let mut kept = taken.filter(|k| k.0 == id).map_or_else(HashMap::new, |k| k.1);
        kept.values_mut().flatten().for_each(|plan| plan.renew(ps));
        let mut out = Vec::with_capacity(chunks.len());
        for c in chunks {
            let ranges = legw_parallel::split_evenly(rows(c), self.lanes());
            let groups: Vec<M::Batch> = ranges.into_iter().map(|r| group(c, r)).collect();
            let keys: Vec<Vec<usize>> = groups.iter().map(|g| model.infer_key(g)).collect();
            let plans = kept.entry(keys.concat()).or_default();
            group_plans(model, ps, plans, &groups, &keys);
            let lanes: Vec<Mutex<&mut M::Plan>> = plans.iter_mut().map(Mutex::new).collect();
            let computed = self.map_lanes(&lanes, |j, plan| {
                let plan = &mut **plan.lock().unwrap_or_else(PoisonError::into_inner);
                model.replay_infer(plan, ps, &groups[j])
            });
            out.push(computed.into_iter().flatten().collect());
        }
        store().insert(TypeId::of::<M>(), Box::new((id, kept)));
        out
    }

    /// The chunked classification sweep behind [`Executor::eval_mnist`]
    /// and [`Executor::eval_resnet`]: `chunk`-sized batches in dataset
    /// order through [`Executor::forward_sweep`], `(top-1, top-k)` hits
    /// counted as integers so they combine exactly.
    fn eval_classifier<M>(
        &self,
        model: &M,
        ps: &ParamSet,
        data: &Classification,
        chunk: usize,
        k: Option<usize>,
    ) -> (f64, f64)
    where
        M: Infer<Batch = Tensor, Out = Vec<f32>> + 'static,
        M::Plan: 'static,
    {
        let n = data.len();
        if n == 0 {
            return (0.0, 0.0);
        }
        let chunks = chunk_ranges(n, chunk);
        let rows = self.forward_sweep(
            model,
            ps,
            &chunks,
            |c| c.len(),
            |c, r| data.features.slice_outer(c.start + r.start, c.start + r.end),
        );
        let (mut c1, mut ck) = (0u64, 0u64);
        for (c, rows) in chunks.iter().zip(rows) {
            let labels = &data.labels[c.clone()];
            let width = rows[0].0.len();
            let flat: Vec<f32> = rows.into_iter().flat_map(|(r, _)| r).collect();
            let lv = Tensor::from_vec(flat, &[labels.len(), width]);
            let count = |frac: f64| (frac * labels.len() as f64).round() as u64;
            c1 += count(metrics::accuracy(&lv, labels));
            ck += k.map_or(0, |k| count(metrics::top_k_accuracy(&lv, labels, k)));
        }
        (c1 as f64 / n as f64, ck as f64 / n as f64)
    }

    /// Top-1 accuracy of the MNIST-LSTM classifier over a dataset in
    /// `chunk`-sized batches, each split over this executor's lanes. The
    /// same metric for every shard count, lane count and chunk size.
    pub fn eval_mnist(
        &self,
        model: &MnistLstm,
        ps: &ParamSet,
        data: &Classification,
        chunk: usize,
    ) -> f64 {
        self.eval_classifier(model, ps, data, chunk, None).0
    }

    /// `(top-1, top-k)` accuracy of the ResNet over a dataset in
    /// evaluation mode (BatchNorm with the running statistics), in
    /// `chunk`-sized batches, each split over this executor's lanes.
    pub fn eval_resnet(
        &self,
        model: &ResNet,
        ps: &ParamSet,
        data: &Classification,
        chunk: usize,
        k: usize,
    ) -> (f64, f64) {
        self.eval_classifier(model, ps, data, chunk, Some(k))
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
    /// batches of `batch`, one hypothesis per test pair in corpus order,
    /// through `Executor::forward_sweep`: each batch is split into row
    /// groups over this executor's lanes, each group a
    /// [`TranslationBatch::slice`](legw_data::TranslationBatch::slice) that
    /// keeps the batch's padded source length.
    pub fn decode_seq2seq(
        &self,
        model: &Seq2Seq,
        ps: &ParamSet,
        data: &SynthTranslation,
        batch: usize,
    ) -> Vec<Vec<usize>> {
        let batches = data.batches(false, batch);
        let rows =
            self.forward_sweep(model, ps, &batches, |b| b.batch_size(), |b, r| model.slice(b, r));
        rows.into_iter().flatten().map(|(h, ())| h).collect()
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

    /// A row group whose kept plan panics in its replay reaches the sweep's
    /// caller as the pool's re-raised panic, without a hang, and the plans
    /// that call held are dropped: the same executor's next evals capture
    /// again and return the serial results. On the one-shard executor,
    /// whose sweep forks on a 3-lane kernel pool, and on sharded ones.
    #[test]
    fn a_failing_row_group_reaches_the_caller_and_the_next_eval_is_serial() {
        must_finish(|| {
            let fx = Fixture::new();
            let serial = under_lanes(1, || fx.evals(&Executor::new(ExecConfig::default())));
            let chunks = chunk_ranges(fx.mnist.test.len(), 12);
            for shards in [1usize, 2, 3] {
                let exec = Executor::new(ExecConfig::default().with_shards(shards));
                under_lanes(3, || {
                    assert_eq!(fx.evals(&exec), serial, "shards={shards}: the first evals");
                    // Every shape has a kept plan now. Row group 3 is one
                    // pixel per row short: its shape key is its row count,
                    // so it replays a kept plan, which refuses the batch.
                    let calls = AtomicUsize::new(0);
                    let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        exec.forward_sweep(
                            &fx.lstm,
                            &fx.ps,
                            &chunks,
                            |c| c.len(),
                            |c, r| {
                                let x = fx
                                    .mnist
                                    .test
                                    .features
                                    .slice_outer(c.start + r.start, c.start + r.end);
                                if calls.fetch_add(1, Ordering::Relaxed) != 3 {
                                    return x;
                                }
                                let short: Vec<f32> = x
                                    .as_slice()
                                    .chunks(784)
                                    .flat_map(|p| &p[1..])
                                    .copied()
                                    .collect();
                                Tensor::from_vec(short, &[x.dim(0), 783])
                            },
                        )
                    }));
                    let payload = failed.expect_err("the failed row group must reach the caller");
                    let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
                    assert_eq!(msg, "a task panicked inside ThreadPool::run", "shards={shards}");
                    assert_eq!(fx.evals(&exec), serial, "shards={shards}");
                });
            }
        });
    }

    /// Two MNIST LSTMs (one a different size in its own store), a ResNet
    /// and a seq2seq model, with test splits small enough for many evals.
    struct Fixture {
        ps: ParamSet,
        lstm: MnistLstm,
        other_ps: ParamSet,
        other: MnistLstm,
        resnet: ResNet,
        s2s: Seq2Seq,
        mnist: SynthMnist,
        images: SynthImageNet,
        pairs: SynthTranslation,
    }

    impl Fixture {
        fn new() -> Self {
            let mut rng = StdRng::seed_from_u64(9);
            let mut ps = ParamSet::new();
            let lstm = MnistLstm::new(&mut ps, &mut rng, 8, 8);
            let images = SynthImageNet::generate_sized(11, 4, 24, 20, 16);
            let mut resnet = ResNet::new(&mut ps, &mut rng, 4, 4);
            let pairs = SynthTranslation::generate(9, 12, 16, 12, 2, 5);
            let cfg =
                Seq2SeqConfig { vocab: pairs.vocab, embed: 8, hidden: 8, attn: 6, max_decode: 6 };
            let s2s = Seq2Seq::new(&mut ps, &mut rng, cfg);
            let mut other_ps = ParamSet::new();
            let other = MnistLstm::new(&mut other_ps, &mut rng, 6, 12);
            prime_bn(&mut resnet, &ps, &images, 0);
            let mnist = SynthMnist::generate(31, 16, 30);
            Fixture { ps, lstm, other_ps, other, resnet, s2s, mnist, images, pairs }
        }

        /// MNIST accuracy, ResNet's top-1 and top-2, as bits, and the
        /// seq2seq decodes.
        fn evals(&self, exec: &Executor) -> ([u64; 3], Vec<Vec<usize>>) {
            let acc = exec.eval_mnist(&self.lstm, &self.ps, &self.mnist.test, 12);
            let (t1, t2) = exec.eval_resnet(&self.resnet, &self.ps, &self.images.test, 6, 2);
            (
                [acc, t1, t2].map(f64::to_bits),
                exec.decode_seq2seq(&self.s2s, &self.ps, &self.pairs, 4),
            )
        }
    }

    /// Folds the batch statistics of a training tape over `images`'
    /// training rows from `at` on into `model`'s running statistics.
    fn prime_bn(model: &mut ResNet, ps: &ParamSet, images: &SynthImageNet, at: usize) {
        let (bx, by) = images.train.gather(&(at..at + 12).collect::<Vec<_>>());
        let (g, ..) = model.forward_loss(ps, &bx, &by);
        model.fold_batch_stats(&[(1.0, &g.bn_batch_stats()[..])]);
    }

    /// Every row's logits as bits, in chunks of `chunk`: through `exec`'s
    /// kept plans, or with no executor, each chunk on the tape.
    fn logits<M>(
        exec: Option<&Executor>,
        model: &M,
        ps: &ParamSet,
        data: &Classification,
    ) -> Vec<u32>
    where
        M: Infer<Batch = Tensor, Out = Vec<f32>, RowState = ()> + 'static,
        M::Plan: 'static,
    {
        let chunks = chunk_ranges(data.len(), 7);
        let rows = match exec {
            Some(exec) => exec.forward_sweep(
                model,
                ps,
                &chunks,
                |c| c.len(),
                |c, r| data.features.slice_outer(c.start + r.start, c.start + r.end),
            ),
            None => chunks
                .iter()
                .map(|c| model.infer_tape(ps, &data.features.slice_outer(c.start, c.end)))
                .collect(),
        };
        rows.into_iter().flatten().flat_map(|(r, ())| r).map(f32::to_bits).collect()
    }

    /// A kept plan is not stale: after new weights and new running
    /// statistics, the same executor's eval is bitwise a fresh executor's
    /// and the tape's, at every lane count.
    #[test]
    fn kept_plans_follow_new_weights_and_running_statistics() {
        let mut fx = Fixture::new();
        for lanes in [1usize, 3] {
            under_lanes(lanes, || {
                let exec = Executor::new(ExecConfig::default());
                for round in 0..3 {
                    let fresh = Executor::new(ExecConfig::default());
                    let (m, r) = (&fx.lstm, &fx.resnet);
                    let lstm = logits(Some(&exec), m, &fx.ps, &fx.mnist.test);
                    assert_eq!(lstm, logits(None, m, &fx.ps, &fx.mnist.test), "MNIST {round}");
                    assert_eq!(lstm, logits(Some(&fresh), m, &fx.ps, &fx.mnist.test));
                    let resnet = logits(Some(&exec), r, &fx.ps, &fx.images.test);
                    assert_eq!(resnet, logits(None, r, &fx.ps, &fx.images.test), "ResNet {round}");
                    assert_eq!(resnet, logits(Some(&fresh), r, &fx.ps, &fx.images.test));
                    assert_eq!(fx.evals(&exec), fx.evals(&fresh), "lanes={lanes} round={round}");
                    for (_, p) in fx.ps.iter_mut() {
                        let step = p.value.map(|x| 0.25 * (x * 7.0 + round as f32).sin());
                        p.value = p.value.add(&step);
                    }
                    prime_bn(&mut fx.resnet, &fx.ps, &fx.images, 12 * (round % 2));
                }
            });
        }
    }

    /// A kept plan is never another model's: two equal-sized MNIST models
    /// in one store, evaluated in turn, and two of different sizes in
    /// stores of their own (the same parameter ids), each give their own
    /// tape's logits on one executor.
    #[test]
    fn kept_plans_are_never_another_models() {
        let fx = Fixture::new();
        let mut rng = StdRng::seed_from_u64(10);
        let mut ps = fx.ps.clone();
        let twin = MnistLstm::new(&mut ps, &mut rng, 8, 8);
        let data = &fx.mnist.test;
        let models = [(&fx.lstm, &ps), (&twin, &ps), (&fx.other, &fx.other_ps), (&fx.lstm, &fx.ps)];
        let tapes: Vec<Vec<u32>> = models.iter().map(|&(m, p)| logits(None, m, p, data)).collect();
        assert_ne!(tapes[0], tapes[1], "the twins compute different logits");
        for lanes in [1usize, 2] {
            under_lanes(lanes, || {
                for shards in [1usize, 2] {
                    let exec = Executor::new(ExecConfig::default().with_shards(shards));
                    for _ in 0..2 {
                        for (&(m, p), tape) in models.iter().zip(&tapes) {
                            assert_eq!(&logits(Some(&exec), m, p, data), tape, "shards={shards}");
                        }
                    }
                }
            });
        }
    }

    /// One executor under 1-, 2- and 3-lane kernel pools in turn keeps
    /// plans for each lane count's group shapes, and every eval is the
    /// serial one.
    #[test]
    fn kept_plans_serve_every_lane_count_in_turn() {
        let fx = Fixture::new();
        let serial = under_lanes(1, || fx.evals(&Executor::new(ExecConfig::default())));
        let exec = Executor::new(ExecConfig::default());
        for lanes in [1usize, 2, 3, 2, 1, 3] {
            assert_eq!(under_lanes(lanes, || fx.evals(&exec)), serial, "lanes={lanes}");
        }
    }

    /// Two threads evaluating on one executor at once each hold their
    /// family's plans alone for a call, so every result is a fresh serial
    /// executor's, on the one-shard executor and a 2-shard one.
    #[test]
    fn two_threads_share_one_executors_kept_plans() {
        for shards in [1usize, 2] {
            must_finish(move || {
                let fx = Fixture::new();
                let serial = under_lanes(1, || fx.evals(&Executor::new(ExecConfig::default())));
                let exec = Executor::new(ExecConfig::default().with_shards(shards));
                std::thread::scope(|s| {
                    for lanes in [2usize, 3] {
                        let (fx, exec, serial) = (&fx, &exec, &serial);
                        s.spawn(move || {
                            for round in 0..3 {
                                let got = under_lanes(lanes, || fx.evals(exec));
                                assert_eq!(
                                    &got, serial,
                                    "shards={shards} lanes={lanes} round={round}"
                                );
                            }
                        });
                    }
                });
            });
        }
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
        let serial =
            Executor::new(ExecConfig::default()).eval_resnet(&model, &ps, &data.test, 6, 2);
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
