//! The pure-LSTM MNIST classifier of §5.1.1.
//!
//! Architecture, following the paper exactly (widths configurable): each
//! 28×28 image is consumed as 28 time steps of 28-vectors; a linear
//! transform lifts each step to `proj` dims; a single LSTM layer with
//! `hidden` units processes the sequence; the final hidden state feeds a
//! 10-way classifier. With `proj = hidden = 128` the LSTM cell kernel is
//! the paper's 256×512 matrix.

use crate::planned::StepPlan;
use legw_autograd::{Feeds, Graph, Var};
use legw_data::SynthMnist;
use legw_nn::{Binding, Linear, LstmCell, ParamSet};
use legw_tensor::Tensor;
use rand::Rng;

/// Row-per-timestep LSTM classifier.
pub struct MnistLstm {
    proj: Linear,
    cell: LstmCell,
    classifier: Linear,
}

impl MnistLstm {
    /// Builds the model into `ps`. The paper's configuration is
    /// `proj = hidden = 128`; the experiments here default to 64 for speed
    /// (documented in DESIGN.md).
    pub fn new<R: Rng>(ps: &mut ParamSet, rng: &mut R, proj: usize, hidden: usize) -> Self {
        Self {
            proj: Linear::new(ps, rng, "mnist.proj", 28, proj, true),
            cell: LstmCell::new(ps, rng, "mnist.lstm", proj, hidden),
            classifier: Linear::new(ps, rng, "mnist.fc", hidden, 10, true),
        }
    }

    /// Runs the forward pass on a gathered batch `[B, 784]`, returning the
    /// logits variable.
    ///
    /// Sequence-hoisted: the 28 timesteps enter as ONE timestep-major
    /// `[28·B, 28]` block, so the projection + tanh run once over the whole
    /// sequence and the LSTM's input half collapses into a single GEMM
    /// ([`LstmCell::forward_seq_packed`]); only the small recurrent product
    /// stays inside the time loop. Matches the retained
    /// [`MnistLstm::forward_stepwise`] to ~1e-5 relative.
    pub fn forward(&self, g: &mut Graph, bd: &mut Binding, ps: &ParamSet, batch: &Tensor) -> Var {
        let b = batch.dim(0);
        let x = g.input(SynthMnist::row_steps_packed(batch));
        let p = self.proj.forward(g, bd, ps, x);
        let p = g.tanh(p);
        let state = self.cell.zero_state(g, b);
        let (_hs, st) = self.cell.forward_seq_packed(g, bd, ps, p, 28, b, state);
        self.classifier.forward(g, bd, ps, st.h)
    }

    /// The pre-hoisting reference forward: per step, one input clone, one
    /// projection GEMM, and one full `[B, proj+hid]` cell step. Kept for
    /// cross-checks and back-to-back benchmarking against
    /// [`MnistLstm::forward`].
    pub fn forward_stepwise(
        &self,
        g: &mut Graph,
        bd: &mut Binding,
        ps: &ParamSet,
        batch: &Tensor,
    ) -> Var {
        let steps = SynthMnist::row_steps(batch);
        let b = batch.dim(0);
        let mut state = self.cell.zero_state(g, b);
        for step in &steps {
            let x = g.input(step.clone());
            let p = self.proj.forward(g, bd, ps, x);
            let p = g.tanh(p);
            state = self.cell.step(g, bd, ps, p, state);
        }
        self.classifier.forward(g, bd, ps, state.h)
    }

    /// Builds the tape for one training step: returns the graph/binding,
    /// the scalar loss variable, and the logits value.
    pub fn forward_loss(
        &self,
        ps: &ParamSet,
        batch: &Tensor,
        labels: &[usize],
    ) -> (Graph, Binding, Var, Tensor) {
        let mut g = Graph::new();
        let mut bd = Binding::new();
        let logits = self.forward(&mut g, &mut bd, ps, batch);
        let loss = g.softmax_cross_entropy(logits, labels);
        let lv = g.value(logits).clone();
        (g, bd, loss, lv)
    }

    /// [`MnistLstm::forward_loss`] over the stepwise reference path —
    /// the cross-check / benchmark twin.
    pub fn forward_loss_stepwise(
        &self,
        ps: &ParamSet,
        batch: &Tensor,
        labels: &[usize],
    ) -> (Graph, Binding, Var, Tensor) {
        let mut g = Graph::new();
        let mut bd = Binding::new();
        let logits = self.forward_stepwise(&mut g, &mut bd, ps, batch);
        let loss = g.softmax_cross_entropy(logits, labels);
        let lv = g.value(logits).clone();
        (g, bd, loss, lv)
    }

    /// Captures one training step into a replayable [`StepPlan`]. The
    /// tape's input signature is `[packed rows, h0, c0]` (the order
    /// [`MnistLstm::forward`] creates them); labels enter as a feed.
    /// Returns `None` only if the capture is mis-specified (see
    /// [`StepPlan::capture`]) — callers keep the tape path.
    pub fn capture_step_plan(
        &self,
        ps: &ParamSet,
        batch: &Tensor,
        labels: &[usize],
    ) -> Option<StepPlan> {
        let (g, bd, loss, _) = self.forward_loss(ps, batch, labels);
        StepPlan::capture(&g, &bd, Some(loss), &[])
    }

    /// Replays a captured step on a fresh batch of the same size:
    /// forward + backward without building a tape. Returns the loss;
    /// gradients are read with [`StepPlan::write_grads_to`].
    pub fn replay_step_plan(
        &self,
        plan: &mut StepPlan,
        ps: &ParamSet,
        batch: &Tensor,
        labels: &[usize],
    ) -> f32 {
        let b = batch.dim(0);
        let packed = SynthMnist::row_steps_packed(batch);
        let h0 = Tensor::zeros(&[b, self.cell.hidden()]);
        let c0 = Tensor::zeros(&[b, self.cell.hidden()]);
        let label_feed: [&[usize]; 1] = [labels];
        let feeds = Feeds { labels: &label_feed, ..Feeds::default() };
        plan.replay_step(ps, &[&packed, &h0, &c0], &feeds)
    }

    /// Builds a loss-free inference tape on a gathered batch `[B, 784]`,
    /// returning the graph/binding and the logits variable.
    pub fn forward_infer(&self, ps: &ParamSet, batch: &Tensor) -> (Graph, Binding, Var) {
        let mut g = Graph::new();
        let mut bd = Binding::new();
        let logits = self.forward(&mut g, &mut bd, ps, batch);
        (g, bd, logits)
    }

    /// Captures the inference forward into a forward-only [`StepPlan`]
    /// whose single output is the logits. Input signature is
    /// `[packed rows, h0, c0]`, same as the training capture.
    pub fn capture_infer_plan(&self, ps: &ParamSet, batch: &Tensor) -> Option<StepPlan> {
        let (g, bd, logits) = self.forward_infer(ps, batch);
        StepPlan::capture_forward(&g, &bd, &[logits])
    }

    /// Replays a captured inference plan on a fresh same-size batch,
    /// returning the logits `[B, 10]`.
    pub fn replay_infer_plan(
        &self,
        plan: &mut StepPlan,
        ps: &ParamSet,
        batch: &Tensor,
    ) -> Tensor {
        let b = batch.dim(0);
        let packed = SynthMnist::row_steps_packed(batch);
        let h0 = Tensor::zeros(&[b, self.cell.hidden()]);
        let c0 = Tensor::zeros(&[b, self.cell.hidden()]);
        plan.replay_forward(ps, &[&packed, &h0, &c0], &Feeds::default());
        plan.output(0)
    }
}

impl crate::planned::Infer for MnistLstm {
    type Req = Vec<f32>;
    type Out = Vec<f32>;
    type RowState = ();
    type Batch = Tensor;

    fn zero_state(&self) {}

    fn coalesce_key(&self, _req: &Vec<f32>) -> Vec<usize> {
        Vec::new() // fixed shape: everything coalesces
    }

    fn assemble(&self, reqs: &[Vec<f32>], _states: &[()]) -> Tensor {
        const IMG: usize = 28 * 28;
        let b = reqs.len();
        let mut flat = Vec::with_capacity(b * IMG);
        for r in reqs {
            assert_eq!(r.len(), IMG, "MNIST request must be 28×28 pixels");
            flat.extend_from_slice(r);
        }
        Tensor::from_vec(flat, &[b, IMG])
    }

    fn infer_key(&self, batch: &Tensor) -> Vec<usize> {
        vec![batch.dim(0)]
    }

    fn capture_infer(&self, ps: &ParamSet, batch: &Tensor) -> Option<StepPlan> {
        self.capture_infer_plan(ps, batch)
    }

    fn replay_infer(
        &self,
        plan: &mut StepPlan,
        ps: &ParamSet,
        batch: &Tensor,
    ) -> Vec<(Vec<f32>, ())> {
        let logits = self.replay_infer_plan(plan, ps, batch);
        crate::planned::tensor_rows(&logits).into_iter().map(|r| (r, ())).collect()
    }

    fn infer_tape(&self, ps: &ParamSet, batch: &Tensor) -> Vec<(Vec<f32>, ())> {
        let (g, _bd, logits) = self.forward_infer(ps, batch);
        crate::planned::tensor_rows(g.value(logits)).into_iter().map(|r| (r, ())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn tiny() -> (ParamSet, MnistLstm, SynthMnist) {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(1);
        let m = MnistLstm::new(&mut ps, &mut rng, 16, 16);
        let d = SynthMnist::generate(2, 60, 20);
        (ps, m, d)
    }

    #[test]
    fn forward_shapes() {
        let (ps, m, d) = tiny();
        let (batch, labels) = d.train.gather(&[0, 1, 2, 3]);
        let (g, _, loss, logits) = m.forward_loss(&ps, &batch, &labels);
        assert_eq!(logits.shape(), &[4, 10]);
        assert!(g.value(loss).item() > 0.0);
        // untrained loss near ln(10)
        assert!((g.value(loss).item() - 10f32.ln()).abs() < 1.0);
    }

    #[test]
    fn backward_reaches_all_parameters() {
        let (mut ps, m, d) = tiny();
        let (batch, labels) = d.train.gather(&[0, 1]);
        let (mut g, bd, loss, _) = m.forward_loss(&ps, &batch, &labels);
        g.backward(loss);
        bd.write_grads(&g, &mut ps);
        for (_, p) in ps.iter() {
            assert!(p.grad.l2_norm() > 0.0, "no grad for {}", p.name);
        }
    }

    #[test]
    fn single_sgd_steps_reduce_loss_on_fixed_batch() {
        let (mut ps, m, d) = tiny();
        let (batch, labels) = d.train.gather(&(0..20).collect::<Vec<_>>());
        let mut losses = Vec::new();
        for _ in 0..25 {
            let (mut g, bd, loss, _) = m.forward_loss(&ps, &batch, &labels);
            losses.push(g.value(loss).item());
            g.backward(loss);
            bd.write_grads(&g, &mut ps);
            for (_, p) in ps.iter_mut() {
                let gr = p.grad.clone();
                p.value.axpy(-0.5, &gr);
                p.grad.fill_(0.0);
            }
        }
        // lr 0.5 eventually overshoots on this tiny batch (expected for raw
        // SGD); assert that optimisation made clear progress at some point.
        let best = losses.iter().cloned().fold(f32::INFINITY, f32::min);
        assert!(
            best < losses[0] * 0.92,
            "loss must decrease on a fixed batch: {losses:?}"
        );
    }

    /// Hoisted forward/loss/grads vs the retained stepwise reference:
    /// within 1e-5 relative (the hoisting reassociates the cell GEMM's
    /// k-sum at the input/hidden boundary).
    #[test]
    fn hoisted_forward_matches_stepwise_reference() {
        let (ps, m, d) = tiny();
        let (batch, labels) = d.train.gather(&[0, 1, 2, 3, 4]);
        let run = |hoisted: bool, ps: &ParamSet| -> (Tensor, f32, Vec<(String, Tensor)>) {
            let (mut g, bd, loss, logits) = if hoisted {
                m.forward_loss(ps, &batch, &labels)
            } else {
                m.forward_loss_stepwise(ps, &batch, &labels)
            };
            let lv = g.value(loss).item();
            g.backward(loss);
            let mut ps2 = ps.clone();
            bd.write_grads(&g, &mut ps2);
            let grads =
                ps2.iter().map(|(_, p)| (p.name.clone(), p.grad.clone())).collect();
            (logits, lv, grads)
        };
        let (lh, lossh, gh) = run(true, &ps);
        let (lu, lossu, gu) = run(false, &ps);
        assert!((lossh - lossu).abs() <= 1e-5 * (1.0 + lossu.abs()));
        for (a, b) in lh.as_slice().iter().zip(lu.as_slice()) {
            assert!((a - b).abs() <= 1e-5 * (1.0 + b.abs()), "logits: {a} vs {b}");
        }
        for ((name, ga), (_, gb)) in gh.iter().zip(&gu) {
            for (a, b) in ga.as_slice().iter().zip(gb.as_slice()) {
                assert!((a - b).abs() <= 1e-5 * (1.0 + b.abs()), "{name} grad: {a} vs {b}");
            }
        }
    }

    /// Forward-only inference plan vs the live tape: bitwise logits on a
    /// batch the plan was never captured on, via the `Infer` surface.
    #[test]
    fn infer_plan_matches_tape_bitwise() {
        use crate::planned::Infer;
        let (ps, m, d) = tiny();
        let (cap_batch, _) = d.train.gather(&[0, 1, 2]);
        let (batch, _) = d.train.gather(&[7, 8, 9]);
        let mut plan = m.capture_infer(&ps, &cap_batch).expect("inference tape must capture");
        let planned = m.replay_infer(&mut plan, &ps, &batch);
        let taped = m.infer_tape(&ps, &batch);
        assert_eq!(planned.len(), 3);
        for ((a, ()), (b, ())) in planned.iter().zip(&taped) {
            assert_eq!(a.len(), 10);
            assert_eq!(a, b, "frozen-path logits must match the tape bitwise");
        }
    }
}
