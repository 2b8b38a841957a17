//! A capture reads shapes, never values: every family's training plan and
//! inference plan is captured here from a batch whose float inputs are all
//! NaN, under parameters that are all NaN, and then replayed on a real batch
//! under the real parameters. The replay must be bitwise the eager tape on
//! that batch. A value a capture kept as a constant — a parameter, a batch
//! value or anything computed from them — would be NaN in the plan.

use legw_autograd::{Graph, Var};
use legw_data::{SynthImageNet, SynthMnist, SynthPtb, SynthTranslation};
use legw_models::{
    Infer, LmState, MnistLstm, PtbLm, PtbLmConfig, ResNet, Seq2Seq, Seq2SeqConfig, StepPlan,
};
use legw_nn::{Binding, DropCtx, GradBuffer, ParamSet};
use legw_tensor::Tensor;
use rand::{rngs::StdRng, SeedableRng};

/// `ps` with every value NaN.
fn nan_params(ps: &ParamSet) -> ParamSet {
    let mut nan = ps.clone();
    for (_, p) in nan.iter_mut() {
        p.value = nan_like(&p.value);
    }
    nan
}

fn nan_like(t: &Tensor) -> Tensor {
    Tensor::full(t.shape(), f32::NAN)
}

fn bits(t: &[f32]) -> Vec<u32> {
    t.iter().map(|x| x.to_bits()).collect()
}

/// Every parameter's gradient bits, in parameter order.
fn grad_bits(ps: &ParamSet, buf: &GradBuffer) -> Vec<Vec<u32>> {
    ps.iter().map(|(id, _)| buf.get(id).map_or_else(Vec::new, |g| bits(g.as_slice()))).collect()
}

/// The eager tape's loss bits and gradient bits, and the tape.
fn tape_step(
    ps: &ParamSet,
    (mut g, bd, loss): (Graph, Binding, Var),
) -> (u32, Vec<Vec<u32>>, Graph) {
    g.backward(loss);
    let mut grads = GradBuffer::for_params(ps);
    bd.write_grads_to(&g, &mut grads);
    (g.value(loss).item().to_bits(), grad_bits(ps, &grads), g)
}

/// A replayed plan's gradient bits.
fn plan_grads(ps: &ParamSet, plan: &StepPlan) -> Vec<Vec<u32>> {
    let mut grads = GradBuffer::for_params(ps);
    plan.write_grads_to(&mut grads);
    grad_bits(ps, &grads)
}

/// Captures `batch`'s inference plan under NaN parameters from `nan_batch`,
/// replays it on `batch`, and holds the rows to the tape's by `key`.
fn assert_infer_reads_no_value<M: Infer, K: PartialEq + std::fmt::Debug>(
    m: &M,
    ps: &ParamSet,
    nan_batch: &M::Batch,
    batch: &M::Batch,
    key: impl Fn((M::Out, M::RowState)) -> K,
) {
    let mut plan = m.capture_infer(&nan_params(ps), nan_batch);
    let replayed: Vec<K> = m.replay_infer(&mut plan, ps, batch).into_iter().map(&key).collect();
    let tape: Vec<K> = m.infer_tape(ps, batch).into_iter().map(&key).collect();
    assert_eq!(replayed, tape, "a plan captured from NaN replays the tape");
}

fn logit_bits((row, ()): (Vec<f32>, ())) -> Vec<u32> {
    bits(&row)
}

#[test]
fn mnist_captures_read_no_value() {
    let data = SynthMnist::generate(3, 8, 8);
    let mut ps = ParamSet::new();
    let m = MnistLstm::new(&mut ps, &mut StdRng::seed_from_u64(4), 12, 16);
    let (bx, by) = data.train.gather(&(0..6).collect::<Vec<_>>());
    let nan_bx = nan_like(&bx);

    let mut plan = m.capture_step_plan(&nan_params(&ps), &nan_bx, &by).expect("a plan");
    let loss = m.replay_step_plan(&mut plan, &ps, &bx, &by).to_bits();
    let (g, bd, l, _) = m.forward_loss(&ps, &bx, &by);
    let (tape_loss, tape_grads, _) = tape_step(&ps, (g, bd, l));
    assert_eq!((loss, plan_grads(&ps, &plan)), (tape_loss, tape_grads), "training");

    assert_infer_reads_no_value(&m, &ps, &nan_bx, &bx, logit_bits);
}

/// Training normalises with batch statistics, which the replay must also
/// return as the tape does; evaluation folds running statistics moved off
/// their initial values into replay inputs.
#[test]
fn resnet_captures_read_no_value() {
    let data = SynthImageNet::generate_sized(5, 4, 8, 4, 16);
    let mut ps = ParamSet::new();
    let mut m = ResNet::new(&mut ps, &mut StdRng::seed_from_u64(6), 4, 4);
    let (bx, by) = data.train.gather(&(0..8).collect::<Vec<_>>());
    let nan_bx = nan_like(&bx);

    let mut plan = m.capture_step_plan(&nan_params(&ps), &nan_bx, &by).expect("a plan");
    let loss = m.replay_step_plan(&mut plan, &ps, &bx, &by).to_bits();
    let (g, bd, l, _) = m.forward_loss(&ps, &bx, &by);
    let (tape_loss, tape_grads, g) = tape_step(&ps, (g, bd, l));
    assert_eq!((loss, plan_grads(&ps, &plan)), (tape_loss, tape_grads), "training");
    assert_eq!(plan.bn_batch_stats(), g.bn_batch_stats(), "batch statistics");

    m.fold_batch_stats(&[(1.0, &g.bn_batch_stats()[..])]);
    assert_infer_reads_no_value(&m, &ps, &nan_bx, &bx, logit_bits);
}

/// A window with dropout from a carried state: the capture's state is NaN,
/// the replay's the state an earlier window left.
#[test]
fn ptb_captures_read_no_value() {
    let data = SynthPtb::generate(5, 24, 5, 2000, 400);
    let cfg = PtbLmConfig { vocab: 24, embed: 10, hidden: 10, layers: 2, keep: 0.8 };
    let mut ps = ParamSet::new();
    let m = PtbLm::new(&mut ps, &mut StdRng::seed_from_u64(9), cfg);
    let windows = data.batches(true, 6, 5);
    let (w, ctx) = (&windows[1], DropCtx { seed: 3, step: 7, row0: 0 });
    let zero = LmState::zeros(&cfg, 6);
    let state = m.forward_loss(&ps, &windows[0], &zero).4;
    let nan_state = m.forward_loss(&nan_params(&ps), &windows[0], &zero).4;

    let nan_ps = nan_params(&ps);
    let mut plan =
        StepPlan::capture(|g, bd| m.record_window(g, bd, &nan_ps, w, &nan_state, Some(&ctx)));
    let (nll, carried) = m.replay_window_plan(&mut plan, &ps, w, &state, Some(&ctx));
    let (g, bd, l, tape_nll, tape_carried) = m.forward_loss_with(&ps, w, &state, Some(&ctx));
    let (_, tape_grads, _) = tape_step(&ps, (g, bd, l));
    assert_eq!((nll.to_bits(), plan_grads(&ps, &plan)), (tape_nll.to_bits(), tape_grads));
    let layers = |s: &LmState| -> Vec<_> {
        s.layers().iter().map(|(h, c)| (bits(h.as_slice()), bits(c.as_slice()))).collect()
    };
    assert_eq!(layers(&carried), layers(&tape_carried), "carried state");

    let reqs: Vec<Vec<usize>> =
        (0..6).map(|i| (0..4).map(|t| (5 * i + 3 * t) % 24).collect()).collect();
    let rows = |s: &LmState| -> Vec<LmState> { (0..6).map(|i| s.slice_rows(i, i + 1)).collect() };
    let nan_batch = m.assemble(&reqs, &rows(&nan_state));
    let batch = m.assemble(&reqs, &rows(&state));
    assert_infer_reads_no_value(&m, &ps, &nan_batch, &batch, |(logits, s)| {
        (bits(&logits), layers(&s))
    });
}

/// Sharded steps scale each decode step's loss by a fed input: NaN at the
/// capture. Decoding has no float input, so its capture sees NaN weights
/// alone.
#[test]
fn seq2seq_captures_read_no_value() {
    let data = SynthTranslation::generate(6, 12, 64, 16, 2, 6);
    let mut ps = ParamSet::new();
    let cfg = Seq2SeqConfig { vocab: data.vocab, embed: 12, hidden: 12, attn: 8, max_decode: 6 };
    let m = Seq2Seq::new(&mut ps, &mut StdRng::seed_from_u64(7), cfg);
    let batch = &data.batches(true, 8)[0];
    let scale: Vec<f32> = (0..batch.dec_in.len()).map(|t| 0.5 + 0.1 * t as f32).collect();
    let nan_scale = vec![f32::NAN; scale.len()];
    for (cap, rep) in [(None, None), (Some(&nan_scale[..]), Some(&scale[..]))] {
        let mut plan = m.capture_step_plan(&nan_params(&ps), batch, cap).expect("a plan");
        let nll = m.replay_step_plan(&mut plan, &ps, batch, rep);
        let (g, bd, l, tape_nll) = m.forward_loss_scaled(&ps, batch, rep);
        let (_, tape_grads, _) = tape_step(&ps, (g, bd, l));
        assert_eq!((nll.to_bits(), plan_grads(&ps, &plan)), (tape_nll.to_bits(), tape_grads));
    }

    let test = data.batches(false, 8).remove(0);
    assert_infer_reads_no_value(&m, &ps, &test, &test, |(h, ())| h);
}
