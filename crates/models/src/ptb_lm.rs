//! The PTB language model of §5.1.2: embedding → 2-layer LSTM → softmax,
//! trained with stateful truncated BPTT.

use crate::planned::StepPlan;
use legw_autograd::{Feeds, Graph, Var};
use legw_data::LmBatch;
use legw_nn::{Binding, DropCtx, Dropout, Embedding, Linear, Lstm, LstmState, ParamSet};
use legw_tensor::Tensor;
use rand::Rng;

/// Model dimensions; mirrors the paper's PTB-small/PTB-large split at
/// reduced scale.
#[derive(Clone, Copy, Debug)]
pub struct PtbLmConfig {
    /// Vocabulary size.
    pub vocab: usize,
    /// Embedding width (paper: 200 small / 1500 large).
    pub embed: usize,
    /// LSTM hidden width per layer (paper: 200 small / 1500 large).
    pub hidden: usize,
    /// Number of LSTM layers (paper: 2).
    pub layers: usize,
    /// Dropout keep probability on the embedding output and the pre-head
    /// activation (`1.0` disables dropout, matching the historical model).
    /// Masks come from counter-based per-row streams ([`DropCtx`]), so
    /// training with dropout stays deterministic and shard-count-invariant
    /// under the data-parallel executor.
    pub keep: f32,
}

impl PtbLmConfig {
    /// A scaled-down PTB-small analogue.
    pub fn small(vocab: usize) -> Self {
        Self { vocab, embed: 48, hidden: 48, layers: 2, keep: 1.0 }
    }

    /// A scaled-down PTB-large analogue.
    pub fn large(vocab: usize) -> Self {
        Self { vocab, embed: 96, hidden: 96, layers: 2, keep: 1.0 }
    }
}

/// Detached recurrent state carried across BPTT windows: `(h, c)` values
/// per layer.
#[derive(Clone)]
pub struct LmState(Vec<(Tensor, Tensor)>);

impl LmState {
    /// Zero state for `batch` tracks.
    pub fn zeros(cfg: &PtbLmConfig, batch: usize) -> Self {
        Self(
            (0..cfg.layers)
                .map(|_| {
                    (
                        Tensor::zeros(&[batch, cfg.hidden]),
                        Tensor::zeros(&[batch, cfg.hidden]),
                    )
                })
                .collect(),
        )
    }

    /// Rows `[start, end)` of every layer's `(h, c)` — the state slice for
    /// one batch shard in the data-parallel executor.
    pub fn slice_rows(&self, start: usize, end: usize) -> LmState {
        Self(
            self.0
                .iter()
                .map(|(h, c)| (h.rows(start, end), c.rows(start, end)))
                .collect(),
        )
    }

    /// Reassembles per-shard carried states (given in shard order) back
    /// into the full-batch state. Inverse of [`LmState::slice_rows`].
    pub fn concat(parts: &[LmState]) -> LmState {
        assert!(!parts.is_empty(), "concat of zero states");
        let layers = parts[0].0.len();
        Self(
            (0..layers)
                .map(|l| {
                    let hs: Vec<&Tensor> = parts.iter().map(|p| &p.0[l].0).collect();
                    let cs: Vec<&Tensor> = parts.iter().map(|p| &p.0[l].1).collect();
                    (Tensor::concat_outer(&hs), Tensor::concat_outer(&cs))
                })
                .collect(),
        )
    }
}

/// The language model.
pub struct PtbLm {
    cfg: PtbLmConfig,
    embedding: Embedding,
    lstm: Lstm,
    head: Linear,
    /// Present when `cfg.keep < 1.0`; applied to each timestep's embedding
    /// output (mask stream site `2t`) and pre-head activation (site
    /// `2t + 1`), the paper's standard non-recurrent LSTM-LM placement.
    drop: Option<Dropout>,
}

impl PtbLm {
    /// Builds the model into `ps`.
    pub fn new<R: Rng>(ps: &mut ParamSet, rng: &mut R, cfg: PtbLmConfig) -> Self {
        Self {
            cfg,
            embedding: Embedding::new(ps, rng, "lm.embed", cfg.vocab, cfg.embed),
            lstm: Lstm::new(ps, rng, "lm.lstm", cfg.embed, cfg.hidden, cfg.layers),
            head: Linear::new(ps, rng, "lm.head", cfg.hidden, cfg.vocab, true),
            drop: (cfg.keep < 1.0).then(|| Dropout::new(cfg.keep)),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &PtbLmConfig {
        &self.cfg
    }

    /// Builds the tape for one BPTT window without dropout (evaluation, or
    /// training a `keep = 1.0` model). Returns graph/binding, the mean
    /// per-token loss variable, the mean NLL (nats/token) as f64, and the
    /// detached state to carry into the next window.
    pub fn forward_loss(
        &self,
        ps: &ParamSet,
        batch: &LmBatch,
        state: &LmState,
    ) -> (Graph, Binding, Var, f64, LmState) {
        let (g, bd, loss, nll, carried, _) = self.forward_loss_with(ps, batch, state, None);
        (g, bd, loss, nll, carried)
    }

    /// [`PtbLm::forward_loss`] with an optional dropout context. `Some`
    /// enables the training-mode masks (a no-op for `keep = 1.0` models);
    /// `None` is the evaluation path. Runs the sequence-hoisted LSTM path
    /// ([`Lstm::forward_seq`]). Also returns the final per-layer `[h, c]`
    /// variables: compiled as a plan's outputs, they are what
    /// [`PtbLm::replay_window_plan`] carries across windows. Token ids,
    /// targets, and dropout masks enter a plan as feeds, so capture with
    /// the dropout context the training loop will replay with — the mask
    /// *count* is frozen into the plan, the mask *values* are per-replay.
    #[allow(clippy::type_complexity)] // the tape, its loss and the carried state
    pub fn forward_loss_with(
        &self,
        ps: &ParamSet,
        batch: &LmBatch,
        state: &LmState,
        drop: Option<&DropCtx>,
    ) -> (Graph, Binding, Var, f64, LmState, Vec<Var>) {
        let (mut g, mut bd) = (Graph::new(), Binding::new());
        let dropout = match (&self.drop, drop) {
            (Some(d), Some(ctx)) => Some((d, ctx)),
            _ => None,
        };
        let states: Vec<LstmState> = state
            .0
            .iter()
            .map(|(h, c)| LstmState { h: g.input(h.clone()), c: g.input(c.clone()) })
            .collect();

        let xs: Vec<Var> = batch
            .inputs
            .iter()
            .enumerate()
            .map(|(t, ids)| {
                let e = self.embedding.forward(&mut g, &mut bd, ps, ids);
                match dropout {
                    Some((d, ctx)) => d.forward_train(&mut g, e, ctx, 2 * t as u64),
                    None => e,
                }
            })
            .collect();
        let (outputs, final_states) = self.lstm.forward_seq(&mut g, &mut bd, ps, &xs, states);

        let t_len = outputs.len();
        let mut total: Option<Var> = None;
        for (t, (out, tgt)) in outputs.iter().zip(&batch.targets).enumerate() {
            let h = match dropout {
                Some((d, ctx)) => d.forward_train(&mut g, *out, ctx, 2 * t as u64 + 1),
                None => *out,
            };
            let logits = self.head.forward(&mut g, &mut bd, ps, h);
            let step_loss = g.softmax_cross_entropy(logits, tgt);
            total = Some(match total {
                Some(acc) => g.add(acc, step_loss),
                None => step_loss,
            });
        }
        let loss = g.scale(total.expect("window has at least one step"), 1.0 / t_len as f32);
        let nll = g.value(loss).item() as f64;
        let carried = carried(&g, &final_states);
        let outputs = final_states.iter().flat_map(|s| [s.h, s.c]).collect();
        (g, bd, loss, nll, carried, outputs)
    }

    /// Replays the plan compiled from a [`PtbLm::forward_loss_with`] window
    /// tape, its final states as the outputs, on a fresh batch/state of the
    /// same shape: forward + backward without a tape. Mirrors
    /// [`PtbLm::forward_loss_with`]: returns the mean NLL and the detached
    /// carried state; gradients are read with [`StepPlan::write_grads_to`].
    pub fn replay_window_plan(
        &self,
        plan: &mut StepPlan,
        ps: &ParamSet,
        batch: &LmBatch,
        state: &LmState,
        drop: Option<&DropCtx>,
    ) -> (f64, LmState) {
        let inputs: Vec<&Tensor> = state.0.iter().flat_map(|(h, c)| [h, c]).collect();
        let ids: Vec<&[usize]> = batch.inputs.iter().map(|v| v.as_slice()).collect();
        let labels: Vec<&[usize]> = batch.targets.iter().map(|v| v.as_slice()).collect();
        // Mask feed order = tape op order: every embedding-site mask
        // (site 2t, t ascending) precedes every pre-head mask (site 2t+1)
        // because the xs loop records all its dropouts before the loss loop.
        let mask_store: Vec<Tensor> = match (&self.drop, drop) {
            (Some(d), Some(ctx)) => {
                let b = batch.tracks();
                let t_len = batch.inputs.len();
                let mut ms = Vec::with_capacity(2 * t_len);
                ms.extend((0..t_len).map(|t| d.mask(b, self.cfg.embed, ctx, 2 * t as u64)));
                ms.extend(
                    (0..t_len).map(|t| d.mask(b, self.cfg.hidden, ctx, 2 * t as u64 + 1)),
                );
                ms
            }
            _ => Vec::new(),
        };
        let mask_refs: Vec<&Tensor> = mask_store.iter().collect();
        let feeds = Feeds { ids: &ids, labels: &labels, masks: &mask_refs };
        let nll = plan.replay_step(ps, &inputs, &feeds) as f64;
        let carried = LmState(
            (0..state.0.len())
                .map(|l| (plan.output(2 * l), plan.output(2 * l + 1)))
                .collect(),
        );
        (nll, carried)
    }

    /// Records a loss-free next-token inference window onto `g`: embeds the
    /// time-major ids, runs the hoisted LSTM from `state`, and applies the
    /// head at the *last* position only (a streaming next-token query).
    /// No dropout — inference is always eval-mode. Returns the binding, the
    /// logits variable `[B, vocab]`, and the final per-layer states.
    fn infer_window_tape(
        &self,
        g: &mut Graph,
        ps: &ParamSet,
        inputs_tm: &[Vec<usize>],
        state: &LmState,
    ) -> (Binding, Var, Vec<LstmState>) {
        let mut bd = Binding::new();
        let mut states = Vec::with_capacity(state.0.len());
        for (h, c) in &state.0 {
            states.push(LstmState { h: g.input(h.clone()), c: g.input(c.clone()) });
        }
        let mut xs = Vec::with_capacity(inputs_tm.len());
        for ids in inputs_tm {
            xs.push(self.embedding.forward(g, &mut bd, ps, ids));
        }
        let (outputs, finals) = self.lstm.forward_seq(g, &mut bd, ps, &xs, states);
        let last = *outputs.last().expect("window has at least one step");
        let logits = self.head.forward(g, &mut bd, ps, last);
        (bd, logits, finals)
    }
}

/// The detached values of the final per-layer states.
fn carried(g: &Graph, finals: &[LstmState]) -> LmState {
    LmState(finals.iter().map(|s| (g.value(s.h).clone(), g.value(s.c).clone())).collect())
}

impl crate::planned::Infer for PtbLm {
    type Req = Vec<usize>;
    type Out = Vec<f32>;
    type RowState = LmState;
    /// Time-major token ids plus the gathered carried state.
    type Batch = (Vec<Vec<usize>>, LmState);
    type Plan = StepPlan;

    fn zero_state(&self) -> LmState {
        LmState::zeros(&self.cfg, 1)
    }

    fn coalesce_key(&self, req: &Vec<usize>) -> Vec<usize> {
        // Only equal-length windows coalesce: padding a recurrent stream
        // would corrupt the carried state of the padded rows.
        vec![req.len()]
    }

    fn assemble(&self, reqs: &[Vec<usize>], states: &[LmState]) -> Self::Batch {
        let b = reqs.len();
        let t_len = reqs[0].len();
        assert!(t_len > 0, "empty token window");
        let mut tm = vec![vec![0usize; b]; t_len];
        for (bi, r) in reqs.iter().enumerate() {
            assert_eq!(r.len(), t_len, "coalesced LM requests must share a window length");
            for (ti, &tok) in r.iter().enumerate() {
                tm[ti][bi] = tok;
            }
        }
        (tm, LmState::concat(states))
    }

    fn infer_key(&self, batch: &Self::Batch) -> Vec<usize> {
        vec![batch.0[0].len(), batch.0.len()] // [B, T]
    }

    /// A next-token inference window as a forward-only plan: output 0 is
    /// the last position's logits `[B, vocab]`; outputs `1 + 2l` / `2 + 2l`
    /// are layer `l`'s final `h` / `c`, so replays carry streaming state
    /// across requests. Inputs are the per-layer `[h, c]` states; token ids
    /// enter as feeds.
    fn capture_infer(
        &self,
        ps: &ParamSet,
        batch: &Self::Batch,
    ) -> (StepPlan, Vec<(Vec<f32>, LmState)>) {
        let mut g = Graph::new();
        let (bd, logits, finals) = self.infer_window_tape(&mut g, ps, &batch.0, &batch.1);
        let mut outputs = vec![logits];
        outputs.extend(finals.iter().flat_map(|s| [s.h, s.c]));
        let plan = StepPlan::capture_forward(&g, &bd, &outputs);
        (plan, per_row(g.value(logits), &carried(&g, &finals)))
    }

    fn replay_infer(
        &self,
        plan: &mut StepPlan,
        ps: &ParamSet,
        batch: &Self::Batch,
    ) -> Vec<(Vec<f32>, LmState)> {
        let (inputs_tm, state) = batch;
        let inputs: Vec<&Tensor> = state.0.iter().flat_map(|(h, c)| [h, c]).collect();
        let ids: Vec<&[usize]> = inputs_tm.iter().map(|v| v.as_slice()).collect();
        plan.replay_forward(ps, &inputs, &Feeds { ids: &ids, ..Feeds::default() });
        let carried = LmState(
            (0..state.0.len()).map(|l| (plan.output(1 + 2 * l), plan.output(2 + 2 * l))).collect(),
        );
        per_row(&plan.output(0), &carried)
    }

    fn infer_tape(&self, ps: &ParamSet, batch: &Self::Batch) -> Vec<(Vec<f32>, LmState)> {
        let mut g = Graph::new();
        let (_bd, logits, finals) = self.infer_window_tape(&mut g, ps, &batch.0, &batch.1);
        per_row(g.value(logits), &carried(&g, &finals))
    }
}

/// Each row's logits with its slice of the carried state.
fn per_row(logits: &Tensor, carried: &LmState) -> Vec<(Vec<f32>, LmState)> {
    crate::planned::tensor_rows(logits)
        .into_iter()
        .enumerate()
        .map(|(i, r)| (r, carried.slice_rows(i, i + 1)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use legw_data::SynthPtb;
    use rand::{rngs::StdRng, SeedableRng};

    impl PtbLm {
        /// The window tape over the pre-hoisting time-major LSTM: per step,
        /// per layer, one fused [`legw_nn::LstmCell::step`] — the reference
        /// [`PtbLm::forward_loss`]'s sequence-hoisted path is held to.
        /// Dropout-free.
        fn forward_loss_stepwise(
            &self,
            ps: &ParamSet,
            batch: &LmBatch,
            state: &LmState,
        ) -> (Graph, Binding, Var, f64, LmState) {
            let (mut g, mut bd) = (Graph::new(), Binding::new());
            let mut st: Vec<LstmState> = state
                .0
                .iter()
                .map(|(h, c)| LstmState { h: g.input(h.clone()), c: g.input(c.clone()) })
                .collect();
            let xs: Vec<Var> = (batch.inputs.iter())
                .map(|ids| self.embedding.forward(&mut g, &mut bd, ps, ids))
                .collect();
            let mut outputs = Vec::with_capacity(xs.len());
            for &x in &xs {
                let mut inp = x;
                for (l, cell) in self.lstm.cells.iter().enumerate() {
                    st[l] = cell.step(&mut g, &mut bd, ps, inp, st[l]);
                    inp = st[l].h;
                }
                outputs.push(inp);
            }
            let mut total: Option<Var> = None;
            for (&out, tgt) in outputs.iter().zip(&batch.targets) {
                let logits = self.head.forward(&mut g, &mut bd, ps, out);
                let step_loss = g.softmax_cross_entropy(logits, tgt);
                total = Some(match total {
                    Some(acc) => g.add(acc, step_loss),
                    None => step_loss,
                });
            }
            let loss = g.scale(total.unwrap(), 1.0 / xs.len() as f32);
            let nll = g.value(loss).item() as f64;
            let carried = carried(&g, &st);
            (g, bd, loss, nll, carried)
        }
    }

    fn tiny() -> (ParamSet, PtbLm, SynthPtb) {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = PtbLmConfig { vocab: 30, embed: 12, hidden: 12, layers: 2, keep: 1.0 };
        let m = PtbLm::new(&mut ps, &mut rng, cfg);
        let d = SynthPtb::generate(4, 30, 4, 4000, 800);
        (ps, m, d)
    }

    #[test]
    fn state_carries_between_windows() {
        let (ps, m, d) = tiny();
        let windows = d.batches(true, 4, 6);
        let s0 = LmState::zeros(m.config(), 4);
        let (_, _, _, _, s1) = m.forward_loss(&ps, &windows[0], &s0);
        // state moved away from zero
        assert!(s1.0[0].0.l2_norm() > 0.0);
        assert!(s1.0[1].1.l2_norm() > 0.0);
        // feeding it into the next window must change the loss vs zero state
        let (_, _, _, nll_carried, _) = m.forward_loss(&ps, &windows[1], &s1);
        let (_, _, _, nll_fresh, _) = m.forward_loss(&ps, &windows[1], &s0);
        assert!((nll_carried - nll_fresh).abs() > 1e-7);
    }

    #[test]
    fn training_on_fixed_window_reduces_loss() {
        let (mut ps, m, d) = tiny();
        let windows = d.batches(true, 8, 6);
        let s0 = LmState::zeros(m.config(), 8);
        let mut first = 0.0;
        let mut last = 0.0;
        for i in 0..10 {
            let (mut g, bd, loss, nll, _) = m.forward_loss(&ps, &windows[0], &s0);
            if i == 0 {
                first = nll;
            }
            last = nll;
            g.backward(loss);
            bd.write_grads(&g, &mut ps);
            for (_, p) in ps.iter_mut() {
                let gr = p.grad.clone();
                p.value.axpy(-1.0, &gr);
                p.grad.fill_(0.0);
            }
        }
        assert!(last < first * 0.98, "loss should fall: {first} → {last}");
    }

    /// Hoisted vs stepwise LSTM path through the full LM: loss, carried
    /// state, and every parameter gradient within 1e-5 relative.
    #[test]
    fn hoisted_window_matches_stepwise_reference() {
        let (ps, m, d) = tiny();
        let windows = d.batches(true, 5, 7);
        let s0 = LmState::zeros(m.config(), 5);
        let run = |hoisted: bool| -> (f64, LmState, Vec<(String, Tensor)>) {
            let (mut g, bd, loss, nll, carried) = if hoisted {
                m.forward_loss(&ps, &windows[0], &s0)
            } else {
                m.forward_loss_stepwise(&ps, &windows[0], &s0)
            };
            g.backward(loss);
            let mut ps2 = ps.clone();
            bd.write_grads(&g, &mut ps2);
            let grads = ps2.iter().map(|(_, p)| (p.name.clone(), p.grad.clone())).collect();
            (nll, carried, grads)
        };
        let (nh, ch, gh) = run(true);
        let (nu, cu, gu) = run(false);
        assert!((nh - nu).abs() <= 1e-5 * (1.0 + nu.abs()), "nll: {nh} vs {nu}");
        for ((h1, c1), (h2, c2)) in ch.0.iter().zip(&cu.0) {
            for (a, b) in h1
                .as_slice()
                .iter()
                .zip(h2.as_slice())
                .chain(c1.as_slice().iter().zip(c2.as_slice()))
            {
                assert!((a - b).abs() <= 1e-5 * (1.0 + b.abs()), "state: {a} vs {b}");
            }
        }
        for ((name, ga), (_, gb)) in gh.iter().zip(&gu) {
            for (a, b) in ga.as_slice().iter().zip(gb.as_slice()) {
                assert!((a - b).abs() <= 1e-5 * (1.0 + b.abs()), "{name} grad: {a} vs {b}");
            }
        }
    }

    /// A stateful truncated-BPTT SGD curve (state carried across windows)
    /// on the hoisted path matches the stepwise reference's within 1e-4
    /// relative at every window.
    #[test]
    fn hoisted_training_curve_matches_stepwise() {
        let data = SynthPtb::generate(43, 30, 4, 4000, 800);
        let cfg = PtbLmConfig { vocab: 30, embed: 12, hidden: 12, layers: 2, keep: 1.0 };
        let mut ps0 = ParamSet::new();
        let model = PtbLm::new(&mut ps0, &mut StdRng::seed_from_u64(19), cfg);
        let windows = data.batches(true, 8, 6);
        let curve = |hoisted: bool| -> Vec<f64> {
            let mut ps = ps0.clone();
            let mut state = LmState::zeros(&cfg, 8);
            (windows.iter().take(6))
                .map(|w| {
                    let (mut g, bd, loss, nll, next) = if hoisted {
                        model.forward_loss(&ps, w, &state)
                    } else {
                        model.forward_loss_stepwise(&ps, w, &state)
                    };
                    g.backward(loss);
                    bd.write_grads(&g, &mut ps);
                    for (_, p) in ps.iter_mut() {
                        let gr = p.grad.clone();
                        p.value.axpy(-0.5, &gr);
                        p.grad.fill_(0.0);
                    }
                    state = next;
                    nll
                })
                .collect()
        };
        let (hoisted, reference) = (curve(true), curve(false));
        assert_eq!(hoisted.len(), 6);
        for (t, (h, r)) in hoisted.into_iter().zip(reference).enumerate() {
            assert!((h - r).abs() <= 1e-4 * (1.0 + r.abs()), "window {t}: hoisted {h} vs {r}");
        }
    }

    #[test]
    fn dropout_masks_apply_only_with_context() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = PtbLmConfig { vocab: 30, embed: 12, hidden: 12, layers: 2, keep: 0.7 };
        let m = PtbLm::new(&mut ps, &mut rng, cfg);
        let d = SynthPtb::generate(4, 30, 4, 4000, 800);
        let w = d.batches(true, 4, 6);
        let s0 = LmState::zeros(m.config(), 4);
        let ctx = DropCtx { seed: 1, step: 0, row0: 0 };
        let (_, _, _, nll_eval, _) = m.forward_loss(&ps, &w[0], &s0);
        let (_, _, _, nll_train, _, _) = m.forward_loss_with(&ps, &w[0], &s0, Some(&ctx));
        assert_ne!(nll_eval, nll_train, "masks must perturb the training loss");
        let (_, _, _, nll_replay, _, _) = m.forward_loss_with(&ps, &w[0], &s0, Some(&ctx));
        assert_eq!(nll_train, nll_replay, "same stream key replays the same masks");
    }

    /// Forward-only inference plan vs the live tape, with carried state:
    /// bitwise logits and carried `(h, c)` on fresh tokens and a fresh
    /// (non-zero) state, via the `Infer` surface.
    #[test]
    fn infer_plan_matches_tape_and_carries_state() {
        use crate::planned::Infer;
        let (ps, m, _d) = tiny();
        let reqs: Vec<Vec<usize>> = vec![vec![1, 2, 3], vec![4, 5, 6], vec![7, 8, 9]];
        let states = vec![m.zero_state(); 3];
        let batch = m.assemble(&reqs, &states);
        let (mut plan, captured) = m.capture_infer(&ps, &batch);

        // First window primes a non-zero carried state per row.
        let first = m.replay_infer(&mut plan, &ps, &batch);
        assert!(first[0].1 .0[0].0.l2_norm() > 0.0, "state must move off zero");
        for ((la, sa), (lb, sb)) in captured.iter().zip(&first) {
            assert_eq!(la, lb, "the capture returns its tape's logits");
            for ((ha, ca), (hb, cb)) in sa.0.iter().zip(&sb.0) {
                assert_eq!((ha.as_slice(), ca.as_slice()), (hb.as_slice(), cb.as_slice()));
            }
        }

        // Second window replays from the carried states; tape must agree.
        let reqs2: Vec<Vec<usize>> = vec![vec![9, 8, 7], vec![6, 5, 4], vec![3, 2, 1]];
        let states2: Vec<LmState> = first.iter().map(|(_, s)| s.clone()).collect();
        let batch2 = m.assemble(&reqs2, &states2);
        let planned = m.replay_infer(&mut plan, &ps, &batch2);
        let taped = m.infer_tape(&ps, &batch2);
        for ((la, sa), (lb, sb)) in planned.iter().zip(&taped) {
            assert_eq!(la, lb, "frozen-path logits must match the tape bitwise");
            for ((ha, ca), (hb, cb)) in sa.0.iter().zip(&sb.0) {
                assert_eq!(ha.as_slice(), hb.as_slice(), "carried h must match");
                assert_eq!(ca.as_slice(), cb.as_slice(), "carried c must match");
            }
        }
    }
}
