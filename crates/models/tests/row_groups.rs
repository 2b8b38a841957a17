//! A row of a batch does not depend on the rows beside it: every model's
//! forward computes a batch's rows the same as it computes them split into
//! contiguous sub-batches — bitwise for logits and carried state, token for
//! token for greedy decodes. This is what lets evaluation split a chunk's
//! rows over lanes and still count exactly the hits, and decode exactly the
//! hypotheses, of one whole-chunk forward, and lets inference serving split
//! a batch over lanes and serve exactly its bits.

use legw_data::{SynthImageNet, SynthMnist, SynthTranslation};
use legw_models::{Infer, MnistLstm, PtbLm, PtbLmConfig, ResNet, Seq2Seq, Seq2SeqConfig};
use legw_nn::ParamSet;
use rand::{rngs::StdRng, SeedableRng};
use std::collections::HashMap;
use std::fmt::Debug;
use std::ops::Range;

/// The splits of an even `rows` into contiguous groups: every row alone, an
/// uneven split into two groups and halves.
fn splits(rows: usize) -> [Vec<Range<usize>>; 3] {
    let cut = rows / 2 - 1;
    let half = rows / 2;
    [(0..rows).map(|i| i..i + 1).collect(), vec![0..cut, cut..rows], vec![0..half, half..rows]]
}

/// Asserts that the rows `0..rows`, computed as one batch on the tape, come
/// out the same from each split's groups: on the tape, from a plan
/// captured on the group, and from replaying the plan captured on the
/// split's first group of that size. `group(r)` is the sub-batch of rows
/// `r`; `key` turns one row's output and carried state into what must
/// match.
fn assert_rows_split_exactly<M: Infer, K: PartialEq + Debug>(
    m: &M,
    ps: &ParamSet,
    rows: usize,
    group: impl Fn(Range<usize>) -> M::Batch,
    key: impl Fn((M::Out, M::RowState)) -> K,
) -> Vec<K> {
    let keys = |out: Vec<(M::Out, M::RowState)>| -> Vec<K> { out.into_iter().map(&key).collect() };
    let whole = keys(m.infer_tape(ps, &group(0..rows)));
    assert_eq!(whole.len(), rows);
    for split in splits(rows) {
        let mut plans: HashMap<usize, M::Plan> = HashMap::new();
        let (mut tape, mut captured, mut replayed) = (Vec::new(), Vec::new(), Vec::new());
        for r in &split {
            let b = group(r.clone());
            tape.extend(keys(m.infer_tape(ps, &b)));
            let mut plan = m.capture_infer(ps, &b);
            captured.extend(keys(m.replay_infer(&mut plan, ps, &b)));
            let plan = plans.entry(r.len()).or_insert(plan);
            replayed.extend(keys(m.replay_infer(plan, ps, &b)));
        }
        assert_eq!(tape, whole, "tape, groups {split:?}");
        assert_eq!(captured, whole, "capture, groups {split:?}");
        assert_eq!(replayed, whole, "replay, groups {split:?}");
    }
    whole
}

fn bits(t: &[f32]) -> Vec<u32> {
    t.iter().map(|x| x.to_bits()).collect()
}

fn logit_bits((row, ()): (Vec<f32>, ())) -> Vec<u32> {
    bits(&row)
}

/// The MNIST LSTM's logits, on the tape and through its forward plan.
#[test]
fn mnist_lstm_rows_do_not_depend_on_the_batch() {
    let data = SynthMnist::generate(3, 8, 12);
    let mut ps = ParamSet::new();
    let model = MnistLstm::new(&mut ps, &mut StdRng::seed_from_u64(4), 12, 16);
    let group = |r: Range<usize>| data.test.gather(&r.collect::<Vec<_>>()).0;
    assert_rows_split_exactly(&model, &ps, 12, group, logit_bits);
}

/// The ResNet in evaluation mode, with running statistics moved off their
/// initial values by two training tapes' folded batch statistics.
#[test]
fn resnet_eval_rows_do_not_depend_on_the_batch() {
    let data = SynthImageNet::generate_sized(5, 4, 16, 10, 16);
    let mut ps = ParamSet::new();
    let mut model = ResNet::new(&mut ps, &mut StdRng::seed_from_u64(6), 4, 4);
    let (bx, by) = data.train.gather(&(0..16).collect::<Vec<_>>());
    for _ in 0..2 {
        let (g, ..) = model.forward_loss(&ps, &bx, &by);
        model.fold_batch_stats(&[(1.0, &g.bn_batch_stats()[..])]);
    }
    for (mean, var) in model.bn_running_stats() {
        assert!(mean.iter().all(|&x| x != 0.0) && var.iter().all(|&x| x != 1.0), "primed");
    }
    let group = |r: Range<usize>| data.test.gather(&r.collect::<Vec<_>>()).0;
    assert_rows_split_exactly(&model, &ps, 10, group, logit_bits);
}

/// The seq2seq greedy decoder, through its plans and on the tape. Every
/// group is a slice of one padded batch and keeps its source length, which
/// is longer than most rows.
#[test]
fn seq2seq_greedy_rows_do_not_depend_on_the_batch() {
    let data = SynthTranslation::generate(6, 12, 64, 16, 2, 6);
    let mut ps = ParamSet::new();
    let cfg = Seq2SeqConfig { vocab: data.vocab, embed: 12, hidden: 12, attn: 8, max_decode: 8 };
    let model = Seq2Seq::new(&mut ps, &mut StdRng::seed_from_u64(7), cfg);
    let batch = data.batches(false, 16).remove(0);
    let padded = batch.src.len();
    assert!(batch.sources.iter().any(|s| s.len() < padded), "some row must be padded");
    let group = |r: Range<usize>| batch.slice(r.start, r.end);
    let hyps = assert_rows_split_exactly(&model, &ps, 16, group, |(h, ())| h);
    assert!(hyps.iter().any(|h| !h.is_empty()), "the decoder must emit tokens: {hyps:?}");
}

/// The PTB language model's next-token logits and carried state, from a
/// window whose rows carry the state an earlier window left them. Each
/// group is the model's own [`Infer::slice`] of the assembled batch.
#[test]
fn ptb_rows_do_not_depend_on_the_batch_or_its_carried_state() {
    let cfg = PtbLmConfig { vocab: 30, embed: 12, hidden: 12, layers: 2, keep: 1.0 };
    let mut ps = ParamSet::new();
    let model = PtbLm::new(&mut ps, &mut StdRng::seed_from_u64(8), cfg);
    let rows = 10;
    let window = |w: usize| -> Vec<Vec<usize>> {
        (0..rows).map(|i| (0..5).map(|t| (7 * i + 3 * t + 11 * w) % 30).collect()).collect()
    };
    let zero = vec![model.zero_state(); rows];
    let first = model.infer_tape(&ps, &model.assemble(&window(0), &zero));
    let carried: Vec<_> = first.into_iter().map(|(_, s)| s).collect();
    let batch = model.assemble(&window(1), &carried);
    let group = |r: Range<usize>| model.slice(&batch, r);
    let key = |(logits, state): (Vec<f32>, legw_models::LmState)| {
        let layers = state.layers().iter().map(|(h, c)| (bits(h.as_slice()), bits(c.as_slice())));
        (bits(&logits), layers.collect::<Vec<_>>())
    };
    assert_rows_split_exactly(&model, &ps, rows, group, key);
}
