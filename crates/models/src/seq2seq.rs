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
    /// recurrence itself is direction-agnostic. Matches the retained
    /// [`Seq2Seq::encode_stepwise`] to ~1e-5 relative (the hoisting splits
    /// each cell GEMM's k-sum at the input/hidden boundary).
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

    /// The pre-hoisting per-step encoder, kept as the cross-check twin of
    /// [`Seq2Seq::encode`].
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

    /// One decoder step: embeds `tokens`, attends with the previous top
    /// hidden as query, advances both decoder layers, returns the logits
    /// and the new states.
    #[allow(clippy::too_many_arguments)]
    fn decode_step(
        &self,
        g: &mut Graph,
        bd: &mut Binding,
        ps: &ParamSet,
        enc: &Encoded,
        tokens: &[usize],
        s0: LstmState,
        s1: LstmState,
    ) -> (Var, LstmState, LstmState) {
        let emb = self.embedding.forward(g, bd, ps, tokens);
        let (ctx, _) = self.attention.step(g, bd, ps, &enc.states, &enc.proj, s1.h);
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
    /// serial loss. A scale of exactly `1.0` adds no tape node, keeping the
    /// single-shard path bit-identical to the unscaled one.
    pub fn forward_loss_scaled(
        &self,
        ps: &ParamSet,
        batch: &TranslationBatch,
        step_scale: Option<&[f32]>,
    ) -> (Graph, Binding, Var, f64) {
        self.forward_loss_inner(ps, batch, step_scale, false)
    }

    /// [`Seq2Seq::forward_loss`] over the retained stepwise encoder
    /// (`Seq2Seq::encode_stepwise`) — the cross-check / benchmark twin of
    /// the hoisted path. The attention-coupled decoder is per-step in both.
    pub fn forward_loss_stepwise(
        &self,
        ps: &ParamSet,
        batch: &TranslationBatch,
    ) -> (Graph, Binding, Var, f64) {
        self.forward_loss_inner(ps, batch, None, true)
    }

    fn forward_loss_inner(
        &self,
        ps: &ParamSet,
        batch: &TranslationBatch,
        step_scale: Option<&[f32]>,
        stepwise_enc: bool,
    ) -> (Graph, Binding, Var, f64) {
        let mut g = Graph::new();
        let mut bd = Binding::new();
        let enc = if stepwise_enc {
            self.encode_stepwise(&mut g, &mut bd, ps, &batch.src)
        } else {
            self.encode(&mut g, &mut bd, ps, &batch.src)
        };
        let loss = self.decode_loss(&mut g, &mut bd, ps, &enc, batch, step_scale);
        let nll = g.value(loss).item() as f64;
        (g, bd, loss, nll)
    }

    /// Teacher-forced decoder + loss over an already-encoded source —
    /// shared by the tape path ([`Seq2Seq::forward_loss_inner`]) and the
    /// encoder-plan path ([`Seq2Seq::planned_loss_grads`]), so both decode
    /// identically by construction.
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
            let (logits, ns0, ns1) =
                self.decode_step(g, bd, ps, enc, &batch.dec_in[t], s0, s1);
            s0 = ns0;
            s1 = ns1;
            let mut step_loss = g.softmax_cross_entropy(logits, &batch.dec_tgt[t]);
            if let Some(s) = step_scale {
                if s[t] != 1.0 {
                    step_loss = g.scale(step_loss, s[t]);
                }
            }
            total = Some(match total {
                Some(acc) => g.add(acc, step_loss),
                None => step_loss,
            });
        }
        g.scale(total.expect("non-empty batch"), 1.0 / steps as f32)
    }

    /// Captures the encoder (the attention-free, shape-static part of the
    /// model) into a seed-mode [`StepPlan`]. Plan outputs are the per-step
    /// top states, their attention projections, and the final cell state —
    /// everything the decoder consumes. The final *hidden* state is the
    /// same tape node as the last per-step state, so it is not listed
    /// twice; [`Seq2Seq::planned_loss_grads`] reconstructs it from
    /// `states[t-1]`. The token-dependent, data-dependent decoder stays
    /// tape-driven.
    pub fn capture_encoder_plan(
        &self,
        ps: &ParamSet,
        batch: &TranslationBatch,
    ) -> Option<StepPlan> {
        let mut g = Graph::new();
        let mut bd = Binding::new();
        let enc = self.encode(&mut g, &mut bd, ps, &batch.src);
        let mut outputs: Vec<Var> = Vec::with_capacity(2 * enc.states.len() + 1);
        outputs.extend(&enc.states);
        outputs.extend(&enc.proj);
        outputs.push(enc.last.c);
        StepPlan::capture(&g, &bd, None, &outputs)
    }

    /// One training step with the encoder replayed from `enc_plan` and the
    /// decoder on a fresh tape: encoder forward replay → decoder tape with
    /// the encoder outputs re-entered as gradient-tracked leaves → decoder
    /// backward → encoder backward replay seeded with the leaf gradients.
    /// Accumulates all parameter gradients into `grads` and returns the
    /// mean per-token NLL.
    ///
    /// Equivalence vs [`Seq2Seq::forward_loss_scaled`] + backward: bitwise
    /// for all decoder-only parameters; ≤1e-5 relative for the parameters
    /// shared across the boundary (embedding table, attention projections)
    /// because the plan pre-sums the encoder-side contributions before the
    /// single cross-boundary add, reassociating the tape's accumulation
    /// order.
    pub fn planned_loss_grads(
        &self,
        ps: &ParamSet,
        batch: &TranslationBatch,
        step_scale: Option<&[f32]>,
        enc_plan: &mut StepPlan,
        grads: &mut GradBuffer,
    ) -> f64 {
        let b = batch.batch_size();
        let t_len = batch.src.len();
        let h = self.cfg.hidden;

        // Encoder forward replay. Inputs are the six zero [B, H] initial
        // states `encode` records (fwd h/c, bwd h/c, top h/c); source
        // token ids enter as embedding feeds in time order.
        let zero_state = Tensor::zeros(&[b, h]);
        let enc_inputs: Vec<&Tensor> = vec![&zero_state; 6];
        let ids: Vec<&[usize]> = batch.src.iter().map(|v| v.as_slice()).collect();
        let feeds = Feeds { ids: &ids, ..Feeds::default() };
        enc_plan.replay_forward(ps, &enc_inputs, &feeds);

        // Decoder tape over the replayed encoder outputs, re-entered as
        // gradient-tracked leaves so backward leaves their grads behind.
        let mut g = Graph::new();
        let mut bd = Binding::new();
        let states: Vec<Var> = (0..t_len).map(|t| g.param(enc_plan.output(t))).collect();
        let proj: Vec<Var> =
            (0..t_len).map(|t| g.param(enc_plan.output(t_len + t))).collect();
        let last_c = g.param(enc_plan.output(2 * t_len));
        let enc = Encoded {
            last: LstmState { h: states[t_len - 1], c: last_c },
            states,
            proj,
        };
        let loss = self.decode_loss(&mut g, &mut bd, ps, &enc, batch, step_scale);
        let nll = g.value(loss).item() as f64;
        g.backward(loss);
        bd.write_grads_to(&g, grads);

        // Encoder backward replay, seeded with the decoder's gradients at
        // the boundary leaves (zero where the decoder never touched one).
        let zero_h = Tensor::zeros(&[b, h]);
        let zero_a = Tensor::zeros(&[b, self.cfg.attn]);
        let leaves: Vec<Var> = enc
            .states
            .iter()
            .chain(&enc.proj)
            .copied()
            .chain([enc.last.c])
            .collect();
        let seeds: Vec<&Tensor> = leaves
            .iter()
            .enumerate()
            .map(|(k, &v)| {
                g.grad(v).unwrap_or(if k >= t_len && k < 2 * t_len { &zero_a } else { &zero_h })
            })
            .collect();
        enc_plan.replay_backward(ps, &enc_inputs, &seeds);
        enc_plan.write_grads_to(grads);
        nll
    }

    /// Greedy decoding of one padded batch: feeds back the argmax token
    /// until [`EOS`] or `max_decode`. Returns one hypothesis per sequence.
    pub fn greedy_decode(&self, ps: &ParamSet, batch: &TranslationBatch) -> Vec<Vec<usize>> {
        let mut g = Graph::new();
        let mut bd = Binding::new();
        let enc = self.encode(&mut g, &mut bd, ps, &batch.src);
        self.greedy_loop(&mut g, &mut bd, ps, &enc, batch.batch_size())
    }

    /// The feedback decode loop over an already-encoded source — shared by
    /// the tape path ([`Seq2Seq::greedy_decode`]) and the frozen-plan
    /// path ([`Seq2Seq::greedy_decode_planned`]), so both decode
    /// identically by construction.
    fn greedy_loop(
        &self,
        g: &mut Graph,
        bd: &mut Binding,
        ps: &ParamSet,
        enc: &Encoded,
        b: usize,
    ) -> Vec<Vec<usize>> {
        let mut s0 = self.dec0.zero_state(g, b);
        let mut s1 = LstmState { h: enc.last.h, c: enc.last.c };

        let mut hyps: Vec<Vec<usize>> = vec![Vec::new(); b];
        let mut done = vec![false; b];
        let mut tokens = vec![legw_data::BOS; b];
        for _ in 0..self.cfg.max_decode {
            let (logits, ns0, ns1) = self.decode_step(g, bd, ps, enc, &tokens, s0, s1);
            s0 = ns0;
            s1 = ns1;
            let preds = g.value(logits).argmax_rows();
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

    /// Captures the encoder into a *forward-only* plan for frozen-model
    /// serving — same tape and outputs as [`Seq2Seq::capture_encoder_plan`],
    /// but with no backward schedule or gradient buffers.
    pub fn capture_infer_plan(
        &self,
        ps: &ParamSet,
        batch: &TranslationBatch,
    ) -> Option<StepPlan> {
        let mut g = Graph::new();
        let mut bd = Binding::new();
        let enc = self.encode(&mut g, &mut bd, ps, &batch.src);
        let mut outputs: Vec<Var> = Vec::with_capacity(2 * enc.states.len() + 1);
        outputs.extend(&enc.states);
        outputs.extend(&enc.proj);
        outputs.push(enc.last.c);
        StepPlan::capture_forward(&g, &bd, &outputs)
    }

    /// Greedy decoding with the encoder replayed from a forward-only plan:
    /// the shape-static encoder runs tape-free; the data-dependent feedback
    /// decoder runs on a small fresh tape over the replayed encoder
    /// outputs, re-entered as plain (gradient-free) inputs. Matches
    /// [`Seq2Seq::greedy_decode`] token-for-token on the same padded batch.
    pub fn greedy_decode_planned(
        &self,
        plan: &mut StepPlan,
        ps: &ParamSet,
        batch: &TranslationBatch,
    ) -> Vec<Vec<usize>> {
        let b = batch.batch_size();
        let t_len = batch.src.len();
        let zero_state = Tensor::zeros(&[b, self.cfg.hidden]);
        let enc_inputs: Vec<&Tensor> = vec![&zero_state; 6];
        let ids: Vec<&[usize]> = batch.src.iter().map(|v| v.as_slice()).collect();
        let feeds = Feeds { ids: &ids, ..Feeds::default() };
        plan.replay_forward(ps, &enc_inputs, &feeds);

        let mut g = Graph::new();
        let mut bd = Binding::new();
        let states: Vec<Var> = (0..t_len).map(|t| g.input(plan.output(t))).collect();
        let proj: Vec<Var> =
            (0..t_len).map(|t| g.input(plan.output(t_len + t))).collect();
        let last_c = g.input(plan.output(2 * t_len));
        let enc = Encoded {
            last: LstmState { h: states[t_len - 1], c: last_c },
            states,
            proj,
        };
        self.greedy_loop(&mut g, &mut bd, ps, &enc, b)
    }
}

impl crate::planned::Infer for Seq2Seq {
    type Req = Vec<usize>;
    type Out = Vec<usize>;
    type RowState = ();
    type Batch = TranslationBatch;

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

    fn capture_infer(&self, ps: &ParamSet, batch: &TranslationBatch) -> Option<StepPlan> {
        self.capture_infer_plan(ps, batch)
    }

    fn replay_infer(
        &self,
        plan: &mut StepPlan,
        ps: &ParamSet,
        batch: &TranslationBatch,
    ) -> Vec<(Vec<usize>, ())> {
        self.greedy_decode_planned(plan, ps, batch).into_iter().map(|h| (h, ())).collect()
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

    /// Frozen-encoder greedy decoding vs the live-tape path: identical
    /// token sequences on a ragged request set the plan was never captured
    /// on, via the `Infer` surface (PAD-coalescing like evaluation).
    #[test]
    fn planned_greedy_decode_matches_tape() {
        use crate::planned::Infer;
        let (ps, m, d) = tiny();
        let cap: Vec<Vec<usize>> = d.test.iter().map(|(s, _)| s.clone()).take(4).collect();
        let fresh: Vec<Vec<usize>> =
            d.test.iter().map(|(s, _)| s.clone()).skip(4).take(4).collect();
        let pad_to = cap.iter().chain(&fresh).map(|s| s.len()).max().unwrap();
        // Equal padded width so one captured plan serves both request sets.
        let widen = |rows: &[Vec<usize>]| -> Vec<Vec<usize>> {
            let mut rows = rows.to_vec();
            let fill = rows[0][0];
            rows[0].resize(pad_to, fill);
            rows
        };
        let cap_batch = m.assemble(&widen(&cap), &[(); 4]);
        let batch = m.assemble(&widen(&fresh), &[(); 4]);
        let mut plan = m.capture_infer(&ps, &cap_batch).expect("encoder tape must capture");
        let planned = m.replay_infer(&mut plan, &ps, &batch);
        let taped = m.infer_tape(&ps, &batch);
        for ((a, ()), (b, ())) in planned.iter().zip(&taped) {
            assert_eq!(a, b, "frozen-path decode must match the tape token-for-token");
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
