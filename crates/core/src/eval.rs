//! Sharded epoch-end evaluation: the forward-only side of the
//! data-parallel executor, and the one evaluation sweep of each model
//! family (the serial sweep is the one-shard executor,
//! `Executor::new(ExecConfig::default())`).
//!
//! Training already splits each batch across [`Executor`] shards; these
//! helpers do the same for the validation sweeps the trainer runs at every
//! epoch boundary, so `LEGW_SHARDS > 1` accelerates evaluation too.
//!
//! Shard-count invariance: for the chunked evaluators (MNIST, ResNet,
//! seq2seq) the *work items* are the evaluation batches of the serial
//! sweep, merely distributed over shards — every forward pass sees
//! byte-identical inputs, and the per-item results (integer correct
//! counts, decoded token sequences) combine by exact concatenation or
//! integer addition. The metric is therefore identical for any shard
//! count. The PTB stream carries recurrent state across windows, so its
//! only parallel axis is the track (row) dimension; shard NLLs combine by
//! track-count weighted mean, which matches the full-batch mean up to
//! floating-point association (one shard's weight is exactly 1).

use crate::exec::Executor;
use crate::plan_cache::PlanCache;
use legw_autograd::{Graph, Var};
use legw_data::{metrics, Classification, SynthPtb, SynthTranslation};
use legw_models::{Infer, LmState, MnistLstm, PtbLm, ResNet, Seq2Seq};
use legw_nn::{Binding, ParamSet};
use legw_tensor::Tensor;
use std::ops::Range;

/// The serial chunk boundaries for `n` examples: `⌈n/chunk⌉` index ranges
/// of at most `chunk` examples, in dataset order.
fn chunk_ranges(n: usize, chunk: usize) -> Vec<Range<usize>> {
    let chunk = chunk.max(1);
    (0..n.div_ceil(chunk)).map(|i| i * chunk..((i + 1) * chunk).min(n)).collect()
}

impl Executor {
    /// The chunked classification sweep behind [`Executor::eval_mnist`]
    /// and [`Executor::eval_resnet`]: `chunk`-sized batches in dataset
    /// order, contiguous runs of them per shard, `(top-1, top-k)` hits
    /// counted as integers so they combine exactly. `shard_forward` is
    /// called once per shard and returns that shard's logits function.
    fn eval_classifier<F>(
        &self,
        data: &Classification,
        chunk: usize,
        k: Option<usize>,
        shard_forward: impl Fn() -> F + Sync,
    ) -> (f64, f64)
    where
        F: FnMut(&mut Graph, &mut Binding, &Tensor) -> Var,
    {
        let n = data.len();
        if n == 0 {
            return (0.0, 0.0);
        }
        let chunks = chunk_ranges(n, chunk);
        let groups = legw_parallel::split_evenly(chunks.len(), self.shards());
        let counts = self.map_shards(&groups, |_, g| {
            let mut forward = shard_forward();
            let (mut c1, mut ck) = (0u64, 0u64);
            // One tape per shard, reset between chunks: reset() keeps the
            // node Vec's capacity, so only the first chunk pays the
            // allocation growth.
            let mut graph = Graph::new();
            for r in &chunks[g.start..g.end] {
                let idx: Vec<usize> = (r.start..r.end).collect();
                let (batch, labels) = data.gather(&idx);
                graph.reset();
                let logits = forward(&mut graph, &mut Binding::new(), &batch);
                let lv = graph.value(logits);
                let hits = |frac: f64| (frac * labels.len() as f64).round() as u64;
                c1 += hits(metrics::accuracy(lv, &labels));
                if let Some(k) = k {
                    ck += hits(metrics::top_k_accuracy(lv, &labels, k));
                }
            }
            (c1, ck)
        });
        let (c1, ck) = counts.into_iter().fold((0u64, 0u64), |(a, b), (x, y)| (a + x, b + y));
        (c1 as f64 / n as f64, ck as f64 / n as f64)
    }

    /// Top-1 accuracy of the MNIST-LSTM classifier over a dataset in
    /// `chunk`-sized batches, sharded over this executor's workers. The
    /// same metric for every shard count.
    pub fn eval_mnist(
        &self,
        model: &MnistLstm,
        ps: &ParamSet,
        data: &Classification,
        chunk: usize,
    ) -> f64 {
        let forward =
            || move |g: &mut Graph, bd: &mut Binding, x: &Tensor| model.forward(g, bd, ps, x);
        self.eval_classifier(data, chunk, None, forward).0
    }

    /// `(top-1, top-k)` accuracy of the ResNet over a dataset in
    /// evaluation mode, in `chunk`-sized batches sharded over this
    /// executor's workers. Each shard evaluates a clone of the model
    /// (evaluation mode only reads the BN running stats, but the forward
    /// signature is `&mut`).
    pub fn eval_resnet(
        &self,
        model: &ResNet,
        ps: &ParamSet,
        data: &Classification,
        chunk: usize,
        k: usize,
    ) -> (f64, f64) {
        self.eval_classifier(data, chunk, Some(k), || {
            let mut m = model.clone();
            move |g: &mut Graph, bd: &mut Binding, x: &Tensor| m.forward(g, bd, ps, x, false)
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
    /// batches of `batch` sharded over this executor's workers, one
    /// hypothesis per test pair in corpus order. Each shard keeps one
    /// key→plan map for the call (a [`PlanCache`] slot): the first batch of
    /// a shape compiles the model's plans from its own tapes
    /// ([`Infer::capture_infer`]); every later batch of that shape replays
    /// them, building no tape.
    pub fn decode_seq2seq(
        &self,
        model: &Seq2Seq,
        ps: &ParamSet,
        data: &SynthTranslation,
        batch: usize,
    ) -> Vec<Vec<usize>> {
        let batches = data.batches(false, batch);
        let groups = legw_parallel::split_evenly(batches.len(), self.shards());
        let plans = PlanCache::new(groups.len());
        let parts = self.map_shards(&groups, |i, g| {
            let mut hyps = Vec::new();
            for b in &batches[g.start..g.end] {
                let capture = || model.capture_infer(ps, b);
                let out = plans.with_plan(i, model.infer_key(b), capture, |plan| {
                    model.replay_infer(plan, ps, b)
                });
                hyps.extend(out.into_iter().map(|(h, ())| h));
            }
            hyps
        });
        parts.concat()
    }

    /// Corpus BLEU of the seq2seq model over the test split (paper metric,
    /// higher is better), greedy-decoded by [`Executor::decode_seq2seq`].
    /// Hypotheses concatenate in batch order, so the score is identical for
    /// every shard count.
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
    use legw_models::PtbLmConfig;
    use rand::{rngs::StdRng, SeedableRng};

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
    /// training forward), so neither chunking nor sharding may move the
    /// counts.
    #[test]
    fn eval_resnet_is_shard_and_chunk_invariant() {
        let data = SynthImageNet::generate_sized(11, 4, 48, 24, 16);
        let mut rng = StdRng::seed_from_u64(12);
        let mut ps = ParamSet::new();
        let mut model = ResNet::new(&mut ps, &mut rng, 4, 4);
        let (bx, by) = data.train.gather(&(0..24).collect::<Vec<_>>());
        let _ = model.forward_loss(&ps, &bx, &by);
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
