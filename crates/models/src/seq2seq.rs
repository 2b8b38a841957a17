//! The GNMT-style sequence-to-sequence model of §5.1.3: shared embeddings,
//! a bidirectional first encoder layer, additive (Bahdanau) attention, and
//! greedy decoding scored with corpus BLEU.
//!
//! Scaled-down but structurally faithful: the paper's GNMT has 4+4 layers of
//! width 1024 with residuals from layer 3; this model defaults to 2+2
//! layers and keeps the bidirectional first layer, attention mechanism,
//! shared embeddings, and encoder-state initialisation of the decoder.

use crate::planned::StepPlan;
use legw_autograd::{Feeds, Graph, Var};
use legw_data::{TranslationBatch, EOS};
use legw_nn::{
    BahdanauAttention, Binding, Embedding, GradBuffer, Linear, LstmCell, LstmState, ParamSet,
};
use legw_tensor::Tensor;
use rand::Rng;

/// Model dimensions.
#[derive(Clone, Copy, Debug)]
pub struct Seq2SeqConfig {
    /// Shared vocabulary size (includes BOS/EOS/PAD).
    pub vocab: usize,
    /// Embedding width.
    pub embed: usize,
    /// LSTM hidden width.
    pub hidden: usize,
    /// Attention projection width.
    pub attn: usize,
    /// Maximum decode length for greedy decoding.
    pub max_decode: usize,
}

impl Seq2SeqConfig {
    /// A compact configuration suitable for the synthetic corpus.
    pub fn compact(vocab: usize, max_decode: usize) -> Self {
        Self { vocab, embed: 32, hidden: 32, attn: 32, max_decode }
    }
}

/// Encoder/decoder with attention.
pub struct Seq2Seq {
    cfg: Seq2SeqConfig,
    embedding: Embedding,
    enc_fwd: LstmCell,
    enc_bwd: LstmCell,
    enc_top: LstmCell,
    dec0: LstmCell,
    dec1: LstmCell,
    attention: BahdanauAttention,
    classifier: Linear,
}

struct Encoded {
    /// Encoder top-layer output per source position, `[B, H]`.
    states: Vec<Var>,
    /// Cached attention projections of `states`.
    proj: Vec<Var>,
    /// Final top-layer state (initialises the decoder).
    last: LstmState,
}

impl Seq2Seq {
    /// Builds the model into `ps`.
    pub fn new<R: Rng>(ps: &mut ParamSet, rng: &mut R, cfg: Seq2SeqConfig) -> Self {
        let h = cfg.hidden;
        Self {
            cfg,
            embedding: Embedding::new(ps, rng, "s2s.embed", cfg.vocab, cfg.embed),
            enc_fwd: LstmCell::new(ps, rng, "s2s.enc_fwd", cfg.embed, h),
            enc_bwd: LstmCell::new(ps, rng, "s2s.enc_bwd", cfg.embed, h),
            enc_top: LstmCell::new(ps, rng, "s2s.enc_top", 2 * h, h),
            dec0: LstmCell::new(ps, rng, "s2s.dec0", cfg.embed + h, h),
            dec1: LstmCell::new(ps, rng, "s2s.dec1", h, h),
            attention: BahdanauAttention::new(ps, rng, "s2s.attn", h, h, cfg.attn),
            classifier: Linear::new(ps, rng, "s2s.fc", 2 * h, cfg.vocab, true),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &Seq2SeqConfig {
        &self.cfg
    }

    /// Sequence-hoisted encoder: all three LSTM layers run through
    /// [`LstmCell::forward_seq`], so each layer's input projection is one
    /// `[T·B, in] × [in, 4H]` GEMM. The backward direction packs the
    /// sequence in reversed time order and un-reverses its outputs — the
    /// recurrence itself is direction-agnostic. Matches the per-step
    /// encoder the unit tests keep (`encode_stepwise`) to ~1e-5 relative
    /// (the hoisting splits each cell GEMM's k-sum at the input/hidden
    /// boundary).
    fn encode(
        &self,
        g: &mut Graph,
        bd: &mut Binding,
        ps: &ParamSet,
        src: &[Vec<usize>],
    ) -> Encoded {
        let b = src[0].len();
        let t_len = src.len();
        let embeds: Vec<Var> =
            src.iter().map(|ids| self.embedding.forward(g, bd, ps, ids)).collect();

        // bidirectional first layer
        let s = self.enc_fwd.zero_state(g, b);
        let (fwd_states, _) = self.enc_fwd.forward_seq(g, bd, ps, &embeds, s);
        let rev: Vec<Var> = embeds.iter().rev().copied().collect();
        let s = self.enc_bwd.zero_state(g, b);
        let (mut bwd_states, _) = self.enc_bwd.forward_seq(g, bd, ps, &rev, s);
        bwd_states.reverse();

        // unidirectional top layer over the concatenated bi outputs
        let cats: Vec<Var> = (0..t_len)
            .map(|t| g.concat_cols(&[fwd_states[t], bwd_states[t]]))
            .collect();
        let s = self.enc_top.zero_state(g, b);
        let (states, top) = self.enc_top.forward_seq(g, bd, ps, &cats, s);
        let proj = self.attention.project_encoder(g, bd, ps, &states);
        Encoded { states, proj, last: top }
    }

    /// One decoder step: embeds `tokens`, attends over the encoder `states`
    /// (with their projections `proj`) with the previous top hidden as
    /// query, advances both decoder layers, returns the logits and the new
    /// states.
    #[allow(clippy::too_many_arguments)]
    fn decode_step(
        &self,
        g: &mut Graph,
        bd: &mut Binding,
        ps: &ParamSet,
        (states, proj): (&[Var], &[Var]),
        tokens: &[usize],
        s0: LstmState,
        s1: LstmState,
    ) -> (Var, LstmState, LstmState) {
        let emb = self.embedding.forward(g, bd, ps, tokens);
        let (ctx, _) = self.attention.step(g, bd, ps, states, proj, s1.h);
        let x = g.concat_cols(&[emb, ctx]);
        let ns0 = self.dec0.step(g, bd, ps, x, s0);
        let ns1 = self.dec1.step(g, bd, ps, ns0.h, s1);
        let feat = g.concat_cols(&[ns1.h, ctx]);
        let logits = self.classifier.forward(g, bd, ps, feat);
        (logits, ns0, ns1)
    }

    /// Teacher-forced training pass over one padded batch. Returns the tape,
    /// the mean per-token loss variable, and its value (nats/token over
    /// unmasked positions).
    pub fn forward_loss(
        &self,
        ps: &ParamSet,
        batch: &TranslationBatch,
    ) -> (Graph, Binding, Var, f64) {
        self.forward_loss_scaled(ps, batch, None)
    }

    /// [`Seq2Seq::forward_loss`] with optional per-decode-step loss scales.
    ///
    /// The data-parallel executor needs this for exact batch sharding: the
    /// serial loss averages each step over the *globally* active (unmasked)
    /// rows, so a shard must weight step `t` by `active_in_shard /
    /// active_in_batch`; the sum of the scaled shard losses then equals the
    /// serial loss. Each scale enters the tape as a [`Graph::input`] leaf
    /// multiplied into its step's loss, so the tape's structure does not
    /// depend on the values and one captured plan serves every batch of a
    /// shard ([`Seq2Seq::replay_step_plan`] feeds them). `None` records no
    /// scale at all.
    pub fn forward_loss_scaled(
        &self,
        ps: &ParamSet,
        batch: &TranslationBatch,
        step_scale: Option<&[f32]>,
    ) -> (Graph, Binding, Var, f64) {
        let mut g = Graph::new();
        let mut bd = Binding::new();
        let enc = self.encode(&mut g, &mut bd, ps, &batch.src);
        let loss = self.decode_loss(&mut g, &mut bd, ps, &enc, batch, step_scale);
        let nll = g.value(loss).item() as f64;
        (g, bd, loss, nll)
    }

    /// Teacher-forced decoder + loss over an already-encoded source.
    fn decode_loss(
        &self,
        g: &mut Graph,
        bd: &mut Binding,
        ps: &ParamSet,
        enc: &Encoded,
        batch: &TranslationBatch,
        step_scale: Option<&[f32]>,
    ) -> Var {
        let mut s0 = self.dec0.zero_state(g, batch.batch_size());
        let mut s1 = LstmState { h: enc.last.h, c: enc.last.c };

        let steps = batch.dec_in.len();
        if let Some(s) = step_scale {
            assert_eq!(s.len(), steps, "one loss scale per decode step");
        }
        let mut total: Option<Var> = None;
        for t in 0..steps {
            let enc = (&enc.states[..], &enc.proj[..]);
            let (logits, ns0, ns1) = self.decode_step(g, bd, ps, enc, &batch.dec_in[t], s0, s1);
            s0 = ns0;
            s1 = ns1;
            let mut step_loss = g.softmax_cross_entropy(logits, &batch.dec_tgt[t]);
            if let Some(s) = step_scale {
                // One IEEE multiply forward and backward, like `g.scale`
                // (and `x · 1 = x`), with the value fed rather than baked.
                let st = g.input(Tensor::scalar(s[t]));
                step_loss = g.mul(step_loss, st);
            }
            total = Some(match total {
                Some(acc) => g.add(acc, step_loss),
                None => step_loss,
            });
        }
        g.scale(total.expect("non-empty batch"), 1.0 / steps as f32)
    }

    /// Records one whole teacher-forced training step — encoder, attention
    /// decoder, the per-step cross-entropies and their backward — and
    /// compiles it into a replayable [`StepPlan`]. Nothing in it is
    /// data-dependent: training batches are padded to the corpus maximum,
    /// tokens and targets enter as feeds and the shard loss scales as
    /// inputs, so one plan serves every batch with the same `(batch, source
    /// length, decode steps, sharded)`. Always `Some`: the `Option` remains
    /// only because `crates/perf` unwraps it.
    pub fn capture_step_plan(
        &self,
        ps: &ParamSet,
        batch: &TranslationBatch,
        step_scale: Option<&[f32]>,
    ) -> Option<StepPlan> {
        let (mut g, bd, loss, _) = self.forward_loss_scaled(ps, batch, step_scale);
        g.backward(loss);
        Some(StepPlan::capture(&g, &bd, loss, &[]))
    }

    /// Replays a captured step on a fresh batch of the same shape: forward +
    /// backward without a tape, bitwise equal to
    /// [`Seq2Seq::forward_loss_scaled`] + backward. Returns the mean
    /// per-token NLL; gradients are read with [`StepPlan::write_grads_to`].
    ///
    /// Inputs follow [`Graph::input_vars`] order: the eight zero `[B, H]`
    /// initial states (encoder forward, backward and top `h`/`c`, then
    /// decoder layer 0's), then one loss scale per decode step when sharded.
    /// Source then decoder-input tokens are the embedding feeds, the decoder
    /// targets the label feeds.
    pub fn replay_step_plan(
        &self,
        plan: &mut StepPlan,
        ps: &ParamSet,
        batch: &TranslationBatch,
        step_scale: Option<&[f32]>,
    ) -> f64 {
        let zero_state = Tensor::zeros(&[batch.batch_size(), self.cfg.hidden]);
        let scales: Vec<Tensor> =
            step_scale.unwrap_or_default().iter().map(|&s| Tensor::scalar(s)).collect();
        let mut inputs: Vec<&Tensor> = vec![&zero_state; 8];
        inputs.extend(&scales);
        let ids: Vec<&[usize]> =
            batch.src.iter().chain(&batch.dec_in).map(|v| v.as_slice()).collect();
        let labels: Vec<&[usize]> = batch.dec_tgt.iter().map(|v| v.as_slice()).collect();
        let feeds = Feeds { ids: &ids, labels: &labels, ..Feeds::default() };
        plan.replay_step(ps, &inputs, &feeds) as f64
    }

    /// [`Seq2Seq::capture_step_plan`] of an unsharded step, so always
    /// `Some`. Kept only because `crates/perf` calls it; goes with the next
    /// benchmark PR.
    pub fn capture_encoder_plan(
        &self,
        ps: &ParamSet,
        batch: &TranslationBatch,
    ) -> Option<StepPlan> {
        self.capture_step_plan(ps, batch, None)
    }

    /// [`Seq2Seq::replay_step_plan`], then the plan's gradients accumulated
    /// into `grads`. Kept only because `crates/perf` calls it; goes with the
    /// next benchmark PR.
    pub fn planned_loss_grads(
        &self,
        ps: &ParamSet,
        batch: &TranslationBatch,
        step_scale: Option<&[f32]>,
        plan: &mut StepPlan,
        grads: &mut GradBuffer,
    ) -> f64 {
        let nll = self.replay_step_plan(plan, ps, batch, step_scale);
        plan.write_grads_to(grads);
        nll
    }

    /// Greedy decoding of one padded batch on one tape, encoder and every
    /// decoder step recorded on it: the oracle the planned decoder is held
    /// to, reached through [`crate::Infer::infer_tape`].
    fn greedy_decode(&self, ps: &ParamSet, batch: &TranslationBatch) -> Vec<Vec<usize>> {
        self.greedy_loop(batch.batch_size(), self.tape_steps(ps, batch))
    }

    /// The tape decoder's steps: encodes `batch` on a tape, then each call
    /// records one decoder step on that tape and returns its logits.
    fn tape_steps<'a>(
        &'a self,
        ps: &'a ParamSet,
        batch: &TranslationBatch,
    ) -> impl FnMut(&[usize]) -> Tensor + 'a {
        let mut g = Graph::new();
        let mut bd = Binding::new();
        let enc = self.encode(&mut g, &mut bd, ps, &batch.src);
        let (mut s0, mut s1) = (self.dec0.zero_state(&mut g, batch.batch_size()), enc.last);
        move |tokens| {
            let states = (&enc.states[..], &enc.proj[..]);
            let (logits, n0, n1) = self.decode_step(&mut g, &mut bd, ps, states, tokens, s0, s1);
            (s0, s1) = (n0, n1);
            g.value(logits).clone()
        }
    }

    /// The greedy feedback loop over `b` rows, shared by the tape decoder
    /// and the planned one: `step(tokens)` runs one decoder step on each
    /// row's previous token ([`legw_data::BOS`] first) and returns its
    /// logits `[b, vocab]`, whose row argmax is the row's next token. A
    /// hypothesis ends at its row's first [`EOS`]; decoding stops when every
    /// row has emitted one, or after `max_decode` steps.
    fn greedy_loop(&self, b: usize, mut step: impl FnMut(&[usize]) -> Tensor) -> Vec<Vec<usize>> {
        let mut hyps: Vec<Vec<usize>> = vec![Vec::new(); b];
        let mut done = vec![false; b];
        let mut tokens = vec![legw_data::BOS; b];
        for _ in 0..self.cfg.max_decode {
            let preds = step(&tokens).argmax_rows();
            for i in 0..b {
                if done[i] {
                    continue;
                }
                if preds[i] == EOS {
                    done[i] = true;
                } else {
                    hyps[i].push(preds[i]);
                }
            }
            tokens = preds;
            if done.iter().all(|&d| d) {
                break;
            }
        }
        hyps
    }

    /// Compiles `batch`'s encoder tape into the encoder plan, and the tape
    /// of its first decoder step — a tape of its own, over the encoder's
    /// values — into the step plan. Returns the plans holding the state
    /// after that step, the encoder's outputs (the T states, then their T
    /// projections), and that step's logits.
    fn capture_plans(
        &self,
        ps: &ParamSet,
        batch: &TranslationBatch,
    ) -> (Seq2SeqPlan, Vec<Tensor>, Tensor) {
        let (b, t_len) = (batch.batch_size(), batch.src.len());
        let mut g = Graph::new();
        let mut bd = Binding::new();
        let enc = self.encode(&mut g, &mut bd, ps, &batch.src);
        let mut outputs: Vec<Var> = enc.states.iter().chain(&enc.proj).copied().collect();
        outputs.push(enc.last.c);
        let encoder = StepPlan::capture_forward(&g, &bd, &outputs);
        let enc_out: Vec<Tensor> =
            outputs[..2 * t_len].iter().map(|&v| g.value(v).clone()).collect();

        let zeros = Tensor::zeros(&[b, self.cfg.hidden]);
        let (h, c) = (g.value(enc.last.h), g.value(enc.last.c));
        let init = [zeros.clone(), zeros.clone(), h.clone(), c.clone()];
        let (step, first, state) = {
            let (sg, sbd, outs) = self.step_tape(ps, &init, &enc_out, &vec![legw_data::BOS; b]);
            let step = StepPlan::capture_forward(&sg, &sbd, &outs);
            let state = std::array::from_fn(|k| sg.value(outs[1 + k]).clone());
            (step, sg.value(outs[0]).clone(), state)
        }; // the step tape drops here, leaving `state` the only owner of its buffers
        (Seq2SeqPlan { encoder, step, zeros, state }, enc_out, first)
    }

    /// One decoder step on a tape of its own, the tape a step plan is
    /// compiled from: the recurrent `state` (decoder layer 0's `h`, `c`,
    /// then layer 1's) and the encoder outputs `enc` (the T states, then
    /// their T projections) enter as inputs in that order, `tokens` as the
    /// embedding's ids. Returns the tape, its binding, and the logits
    /// followed by the four new states.
    fn step_tape(
        &self,
        ps: &ParamSet,
        state: &[Tensor],
        enc: &[Tensor],
        tokens: &[usize],
    ) -> (Graph, Binding, [Var; 5]) {
        let mut g = Graph::new();
        let mut bd = Binding::new();
        let ins: Vec<Var> = state.iter().chain(enc).map(|t| g.input(t.clone())).collect();
        let (s, e) = ins.split_at(4);
        let (s0, s1) = (LstmState { h: s[0], c: s[1] }, LstmState { h: s[2], c: s[3] });
        let states = e.split_at(e.len() / 2);
        let (logits, n0, n1) = self.decode_step(&mut g, &mut bd, ps, states, tokens, s0, s1);
        (g, bd, [logits, n0.h, n0.c, n1.h, n1.c])
    }
}

/// A [`Seq2Seq`]'s inference plans for one `[batch, source length]`: the
/// encoder, and one decoder step that greedy decoding replays once per
/// token. The `Plan` of `Infer for Seq2Seq`.
pub struct Seq2SeqPlan {
    encoder: StepPlan,
    step: StepPlan,
    /// `[B, H]` zeros, the encoder's six initial states.
    zeros: Tensor,
    /// The step's recurrent inputs, `[B, H]` each: decoder layer 0's `h`
    /// and `c`, then layer 1's.
    state: [Tensor; 4],
}

impl Seq2SeqPlan {
    /// The encoder: its outputs are the T top-layer states, their T
    /// attention projections, and the final cell state.
    pub fn encoder(&self) -> &StepPlan {
        &self.encoder
    }

    /// One decoder step: its inputs are the four recurrent states, the T
    /// encoder states and their T projections, with the previous tokens as
    /// the embedding's ids; its outputs are the logits and the four new
    /// states.
    pub fn step(&self) -> &StepPlan {
        &self.step
    }

    /// Replays the encoder on `batch`, and sets the recurrent state to the
    /// decoder's initial one: zeros for layer 0, the encoder's final state
    /// for layer 1. Returns the encoder's outputs, its T states then their
    /// T projections.
    fn encode(&mut self, ps: &ParamSet, batch: &TranslationBatch) -> Vec<Tensor> {
        let t_len = batch.src.len();
        let ids: Vec<&[usize]> = batch.src.iter().map(|v| v.as_slice()).collect();
        let zeros = [&self.zeros; 6];
        self.encoder.replay_forward(ps, &zeros, &Feeds { ids: &ids, ..Feeds::default() });
        let enc: Vec<Tensor> = (0..2 * t_len).map(|k| self.encoder.output(k)).collect();
        let last_c = self.encoder.output(2 * t_len);
        let init = [&self.zeros, &self.zeros, &enc[t_len - 1], &last_c];
        for (s, init) in self.state.iter_mut().zip(init) {
            s.as_mut_slice().copy_from_slice(init.as_slice());
        }
        enc
    }

    /// The planned decoder's steps over the encoder outputs `enc`: each
    /// call replays the step plan on the recurrent state and the previous
    /// tokens, copies its new states into the recurrent state, the next
    /// call's inputs, and returns its logits. `first`, the first step's
    /// logits when a capture tape has just computed them, is returned by
    /// the first call instead. The decode's first replay packs the weight
    /// panels; the others reuse them, `ps` being borrowed throughout.
    fn steps<'a>(
        &'a mut self,
        ps: &'a ParamSet,
        enc: Vec<Tensor>,
        mut first: Option<Tensor>,
    ) -> impl FnMut(&[usize]) -> Tensor + 'a {
        let mut packed = false;
        move |tokens| {
            if let Some(logits) = first.take() {
                return logits;
            }
            let inputs: Vec<&Tensor> = self.state.iter().chain(&enc).collect();
            let ids = [tokens];
            let feeds = Feeds { ids: &ids, ..Feeds::default() };
            if packed {
                self.step.replay_forward_again(ps, &inputs, &feeds);
            } else {
                self.step.replay_forward(ps, &inputs, &feeds);
                packed = true;
            }
            for (k, s) in self.state.iter_mut().enumerate() {
                s.as_mut_slice().copy_from_slice(self.step.output(1 + k).as_slice());
            }
            self.step.output(0)
        }
    }
}

impl crate::planned::Infer for Seq2Seq {
    type Req = Vec<usize>;
    type Out = Vec<usize>;
    type RowState = ();
    type Batch = TranslationBatch;
    type Plan = Seq2SeqPlan;

    fn zero_state(&self) {}

    fn coalesce_key(&self, _req: &Vec<usize>) -> Vec<usize> {
        // Pad-tolerant: ragged sources PAD-pad into one batch, exactly like
        // the evaluation batches the model is scored on.
        Vec::new()
    }

    fn assemble(&self, reqs: &[Vec<usize>], _states: &[()]) -> TranslationBatch {
        TranslationBatch::for_inference(reqs)
    }

    fn infer_key(&self, batch: &TranslationBatch) -> Vec<usize> {
        vec![batch.batch_size(), batch.src.len()]
    }

    /// Compiles the encoder, and the first decoder step, from the tapes
    /// that compute them for this batch; the decode goes on from that step
    /// by replaying the step plan.
    fn capture_infer(
        &self,
        ps: &ParamSet,
        batch: &TranslationBatch,
    ) -> (Seq2SeqPlan, Vec<(Vec<usize>, ())>) {
        let (mut plan, enc, first) = self.capture_plans(ps, batch);
        let hyps = self.greedy_loop(batch.batch_size(), plan.steps(ps, enc, Some(first)));
        (plan, hyps.into_iter().map(|h| (h, ())).collect())
    }

    /// Greedy decoding with no tape: the encoder plan replays once, then the
    /// step plan once per token, its state carried between replays and the
    /// tokens fed back from the host. Matches the tape decoder
    /// ([`Infer::infer_tape`](crate::Infer::infer_tape)) token for token on
    /// the same padded batch.
    fn replay_infer(
        &self,
        plan: &mut Seq2SeqPlan,
        ps: &ParamSet,
        batch: &TranslationBatch,
    ) -> Vec<(Vec<usize>, ())> {
        let enc = plan.encode(ps, batch);
        let hyps = self.greedy_loop(batch.batch_size(), plan.steps(ps, enc, None));
        hyps.into_iter().map(|h| (h, ())).collect()
    }

    fn infer_tape(&self, ps: &ParamSet, batch: &TranslationBatch) -> Vec<(Vec<usize>, ())> {
        self.greedy_decode(ps, batch).into_iter().map(|h| (h, ())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legw_data::SynthTranslation;
    use rand::{rngs::StdRng, SeedableRng};

    fn tiny() -> (ParamSet, Seq2Seq, SynthTranslation) {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(5);
        let d = SynthTranslation::generate(6, 12, 64, 16, 3, 5);
        let cfg = Seq2SeqConfig { vocab: d.vocab, embed: 12, hidden: 12, attn: 8, max_decode: 8 };
        let m = Seq2Seq::new(&mut ps, &mut rng, cfg);
        (ps, m, d)
    }

    #[test]
    fn forward_loss_near_uniform_untrained() {
        let (ps, m, d) = tiny();
        let batch = &d.batches(true, 8)[0];
        let (_, _, _, nll) = m.forward_loss(&ps, batch);
        let uniform = (d.vocab as f64).ln();
        assert!((nll - uniform).abs() < 1.0, "nll {nll} vs uniform {uniform}");
    }

    #[test]
    fn gradients_reach_encoder_decoder_and_attention() {
        let (mut ps, m, d) = tiny();
        let batch = &d.batches(true, 4)[0];
        let (mut g, bd, loss, _) = m.forward_loss(&ps, batch);
        g.backward(loss);
        bd.write_grads(&g, &mut ps);
        for (_, p) in ps.iter() {
            assert!(p.grad.l2_norm() > 0.0, "no gradient for {}", p.name);
        }
    }

    #[test]
    fn greedy_decode_shapes_and_token_range() {
        let (ps, m, d) = tiny();
        let batch = &d.batches(false, 8)[0];
        let hyps = m.greedy_decode(&ps, batch);
        assert_eq!(hyps.len(), 8);
        for h in &hyps {
            assert!(h.len() <= 8);
            assert!(h.iter().all(|&t| t < d.vocab && t != EOS));
        }
    }

    /// The pre-hoisting per-step encoder and the teacher-forced pass over
    /// it: the cross-check twin of [`Seq2Seq::encode`].
    impl Seq2Seq {
        fn encode_stepwise(
            &self,
            g: &mut Graph,
            bd: &mut Binding,
            ps: &ParamSet,
            src: &[Vec<usize>],
        ) -> Encoded {
            let b = src[0].len();
            let t_len = src.len();
            let embeds: Vec<Var> =
                src.iter().map(|ids| self.embedding.forward(g, bd, ps, ids)).collect();

            // bidirectional first layer
            let mut fwd_states = Vec::with_capacity(t_len);
            let mut s = self.enc_fwd.zero_state(g, b);
            for &e in &embeds {
                s = self.enc_fwd.step(g, bd, ps, e, s);
                fwd_states.push(s.h);
            }
            let mut bwd_states = vec![None; t_len];
            let mut s = self.enc_bwd.zero_state(g, b);
            for t in (0..t_len).rev() {
                s = self.enc_bwd.step(g, bd, ps, embeds[t], s);
                bwd_states[t] = Some(s.h);
            }

            // unidirectional top layer over the concatenated bi outputs
            let mut states = Vec::with_capacity(t_len);
            let mut top = self.enc_top.zero_state(g, b);
            for t in 0..t_len {
                let cat = g.concat_cols(&[fwd_states[t], bwd_states[t].unwrap()]);
                top = self.enc_top.step(g, bd, ps, cat, top);
                states.push(top.h);
            }
            let proj = self.attention.project_encoder(g, bd, ps, &states);
            Encoded { states, proj, last: top }
        }

        fn forward_loss_stepwise(
            &self,
            ps: &ParamSet,
            batch: &TranslationBatch,
        ) -> (Graph, Binding, Var, f64) {
            let mut g = Graph::new();
            let mut bd = Binding::new();
            let enc = self.encode_stepwise(&mut g, &mut bd, ps, &batch.src);
            let loss = self.decode_loss(&mut g, &mut bd, ps, &enc, batch, None);
            let nll = g.value(loss).item() as f64;
            (g, bd, loss, nll)
        }
    }

    /// Hoisted vs stepwise encoder through the full teacher-forced pass:
    /// loss and every parameter gradient within 1e-5 relative.
    #[test]
    fn hoisted_encoder_matches_stepwise_reference() {
        let (ps, m, d) = tiny();
        let batch = &d.batches(true, 6)[0];
        let run = |hoisted: bool| -> (f64, Vec<(String, legw_tensor::Tensor)>) {
            let (mut g, bd, loss, nll) = if hoisted {
                m.forward_loss(&ps, batch)
            } else {
                m.forward_loss_stepwise(&ps, batch)
            };
            g.backward(loss);
            let mut ps2 = ps.clone();
            bd.write_grads(&g, &mut ps2);
            let grads = ps2.iter().map(|(_, p)| (p.name.clone(), p.grad.clone())).collect();
            (nll, grads)
        };
        let (nh, gh) = run(true);
        let (nu, gu) = run(false);
        assert!((nh - nu).abs() <= 1e-5 * (1.0 + nu.abs()), "nll: {nh} vs {nu}");
        for ((name, ga), (_, gb)) in gh.iter().zip(&gu) {
            for (a, b) in ga.as_slice().iter().zip(gb.as_slice()) {
                assert!((a - b).abs() <= 1e-5 * (1.0 + b.abs()), "{name} grad: {a} vs {b}");
            }
        }
    }

    /// `steps`, with the bits of every step's logits appended to `log`.
    fn logged<'a>(
        mut steps: impl FnMut(&[usize]) -> Tensor + 'a,
        log: &'a mut Vec<Vec<u32>>,
    ) -> impl FnMut(&[usize]) -> Tensor + 'a {
        move |tokens| {
            let logits = steps(tokens);
            log.push(logits.as_slice().iter().map(|x| x.to_bits()).collect());
            logits
        }
    }

    /// Decodes `batch` on the tape, through plans captured on it, and
    /// through `plan`, captured on another batch of its shape. All three
    /// must give the same hypotheses and, step by step, bitwise the same
    /// logits; the `Infer` surface must give those hypotheses too. Returns
    /// them.
    fn assert_decoders_agree(
        m: &Seq2Seq,
        ps: &ParamSet,
        batch: &TranslationBatch,
        plan: &mut Seq2SeqPlan,
    ) -> Vec<Vec<usize>> {
        use crate::planned::Infer;
        let b = batch.batch_size();
        let (mut tape_log, mut cap_log, mut rep_log) = (Vec::new(), Vec::new(), Vec::new());
        let tape = m.greedy_loop(b, logged(m.tape_steps(ps, batch), &mut tape_log));
        let (mut captured, enc, first) = m.capture_plans(ps, batch);
        let cap = m.greedy_loop(b, logged(captured.steps(ps, enc, Some(first)), &mut cap_log));
        let enc = plan.encode(ps, batch);
        let rep = m.greedy_loop(b, logged(plan.steps(ps, enc, None), &mut rep_log));
        assert_eq!(cap, tape, "decoding through the plans just captured");
        assert_eq!(rep, tape, "decoding through plans captured on another batch");
        assert_eq!(tape_log.len(), cap_log.len());
        for (step, (t, (c, r))) in tape_log.iter().zip(cap_log.iter().zip(&rep_log)).enumerate() {
            assert!(c == t && r == t, "step {step}: planned logits differ from the tape's");
        }
        let rows = |out: Vec<(Vec<usize>, ())>| -> Vec<Vec<usize>> {
            out.into_iter().map(|(h, ())| h).collect()
        };
        assert_eq!(rows(m.capture_infer(ps, batch).1), tape, "Infer::capture_infer");
        assert_eq!(rows(m.replay_infer(plan, ps, batch)), tape, "Infer::replay_infer");
        assert_eq!(rows(m.infer_tape(ps, batch)), tape, "Infer::infer_tape");
        tape
    }

    /// `b` source rows from `tiny`'s corpus from row `from` on, as one
    /// inference batch padded to 5 steps, the corpus maximum: the first row
    /// is lengthened to 5 tokens by repeating its first.
    fn batch_of(d: &SynthTranslation, from: usize, b: usize) -> TranslationBatch {
        let all = d.train.iter().chain(&d.test).map(|(s, _)| s.clone());
        let mut rows: Vec<Vec<usize>> = all.cycle().skip(from).take(b).collect();
        let fill = rows[0][0];
        rows[0].resize(5, fill);
        TranslationBatch::for_inference(&rows)
    }

    /// Ragged sources (3 to 5 tokens, PAD-padded) at batch 1, 2 and 64,
    /// each decoded through plans captured on another batch of its shape,
    /// under other weights: a decode packs its panels afresh.
    #[test]
    fn planned_greedy_decode_matches_tape() {
        let (captured_under, m, d) = tiny();
        let mut ps = captured_under.clone();
        for (_, p) in ps.iter_mut() {
            let v = p.value.clone();
            p.value.axpy(0.25, &v);
        }
        for b in [1, 2, 64] {
            let mut plan = m.capture_plans(&captured_under, &batch_of(&d, 0, b)).0;
            assert_decoders_agree(&m, &ps, &batch_of(&d, 7, b), &mut plan);
        }
    }

    /// Rows whose first token is EOS end there, while the others decode
    /// on: the classifier's EOS bias is raised past the first step's top
    /// logit on some rows and not on others.
    #[test]
    fn planned_greedy_decode_matches_tape_when_rows_end_at_step_one() {
        let (mut ps, m, d) = tiny();
        let batch = batch_of(&d, 3, 8);
        let logits = m.tape_steps(&ps, &batch)(&[legw_data::BOS; 8]);
        let vocab = logits.dim(1);
        let mut margins: Vec<f32> = logits
            .as_slice()
            .chunks(vocab)
            .map(|row| {
                let top = row.iter().enumerate().filter(|&(j, _)| j != EOS).map(|(_, &v)| v);
                top.fold(f32::NEG_INFINITY, f32::max) - row[EOS]
            })
            .collect();
        margins.sort_by(f32::total_cmp);
        let gap = (1..8).max_by(|&i, &j| {
            (margins[i] - margins[i - 1]).total_cmp(&(margins[j] - margins[j - 1]))
        });
        let i = gap.expect("eight rows");
        let bias = m.classifier.b.expect("the classifier has a bias");
        ps.get_mut(bias).value.as_mut_slice()[EOS] += (margins[i - 1] + margins[i]) / 2.0;

        let mut plan = m.capture_plans(&ps, &batch_of(&d, 40, 8)).0;
        let hyps = assert_decoders_agree(&m, &ps, &batch, &mut plan);
        assert_eq!(hyps.iter().filter(|h| h.is_empty()).count(), i, "{hyps:?}");
    }

    /// With EOS out of reach every row decodes for `max_decode` steps.
    #[test]
    fn planned_greedy_decode_matches_tape_up_to_max_decode() {
        let (mut ps, m, d) = tiny();
        let bias = m.classifier.b.expect("the classifier has a bias");
        ps.get_mut(bias).value.as_mut_slice()[EOS] = -1e4;
        let mut plan = m.capture_plans(&ps, &batch_of(&d, 11, 4)).0;
        let hyps = assert_decoders_agree(&m, &ps, &batch_of(&d, 20, 4), &mut plan);
        assert!(hyps.iter().all(|h| h.len() == m.cfg.max_decode), "{hyps:?}");
    }

    /// A whole-step plan captured on one batch and replayed on another of
    /// the same shape: loss and every gradient bitwise equal to
    /// `forward_loss_scaled` + `backward` on that batch — unscaled, and with
    /// loss scales that differ between capture and replay (they are fed).
    #[test]
    fn step_plan_replays_another_batch_bitwise() {
        let (ps, m, d) = tiny();
        let batches = d.batches(true, 8);
        let (cap, fresh) = (&batches[0], &batches[1]);
        let steps = cap.dec_in.len();
        assert_eq!(steps, fresh.dec_in.len(), "training batches pad to one length");
        let cap_scale: Vec<f32> = (0..steps).map(|t| 0.25 + 0.1 * t as f32).collect();
        let fresh_scale: Vec<f32> = (0..steps).map(|t| 0.7 - 0.05 * t as f32).collect();
        let bits = |buf: &GradBuffer| -> Vec<Vec<u32>> {
            ps.iter()
                .map(|(id, _)| {
                    let grad = buf.get(id).expect("every parameter gets a gradient");
                    grad.as_slice().iter().map(|x| x.to_bits()).collect()
                })
                .collect()
        };
        for (cs, fs) in [(None, None), (Some(&cap_scale[..]), Some(&fresh_scale[..]))] {
            let mut plan = m.capture_step_plan(&ps, cap, cs).expect("step tape must capture");
            let nll_p = m.replay_step_plan(&mut plan, &ps, fresh, fs);
            let mut grads_p = GradBuffer::for_params(&ps);
            plan.write_grads_to(&mut grads_p);

            let (mut g, bd, loss, nll_t) = m.forward_loss_scaled(&ps, fresh, fs);
            g.backward(loss);
            let mut grads_t = GradBuffer::for_params(&ps);
            bd.write_grads_to(&g, &mut grads_t);

            assert_eq!(nll_p.to_bits(), nll_t.to_bits(), "loss, scaled: {}", fs.is_some());
            assert_eq!(bits(&grads_p), bits(&grads_t), "grads, scaled: {}", fs.is_some());
        }
    }

    #[test]
    fn training_on_fixed_batch_reduces_loss() {
        let (mut ps, m, d) = tiny();
        let batch = &d.batches(true, 8)[0];
        let mut first = 0.0;
        let mut last = 0.0;
        for i in 0..8 {
            let (mut g, bd, loss, nll) = m.forward_loss(&ps, batch);
            if i == 0 {
                first = nll;
            }
            last = nll;
            g.backward(loss);
            bd.write_grads(&g, &mut ps);
            for (_, p) in ps.iter_mut() {
                let gr = p.grad.clone();
                p.value.axpy(-0.7, &gr);
                p.grad.fill_(0.0);
            }
        }
        assert!(last < first * 0.98, "loss should fall: {first} → {last}");
    }
}
