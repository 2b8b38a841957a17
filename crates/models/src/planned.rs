//! Captured-plan execution of one model training step.
//!
//! [`StepPlan`] glues a [`legw_autograd::Plan`] to the `ParamSet` world:
//! it captures a just-built tape using the tape's own positional input
//! signature ([`legw_autograd::Graph::input_vars`]) and the binding's
//! parameter order ([`legw_nn::Binding::bound`]), then replays steps
//! against fresh batch tensors with the parameter *values* read straight
//! from the store and the parameter *gradients* written back by
//! [`ParamId`]. Each model exposes a `capture_*_plan` constructor that
//! knows its forward's input order and a `replay_*` driver that rebuilds
//! the input/feed lists for a new batch.
//!
//! Replays skip all tape recording and (steady-state) all pool
//! allocation; see `legw-autograd`'s plan module for the machinery.

use legw_autograd::{CaptureSpec, Feeds, Graph, Plan, PlanStats, Var};
use legw_nn::{Binding, GradBuffer, ParamId, ParamSet};
use legw_tensor::Tensor;

/// A captured training-step plan plus the parameter wiring needed to
/// replay it against a [`ParamSet`].
pub struct StepPlan {
    plan: Plan,
    ids: Vec<ParamId>,
}

impl StepPlan {
    /// Compiles the training tape `g` — its forward and the backward that
    /// [`Graph::backward`]`(loss)` recorded on it — into a plan; `outputs`
    /// are further values read after each replay. The plan's inputs are the
    /// tape's [`Graph::input`] leaves in creation order; its parameters are
    /// the binding's bound parameters in binding order. Panics on a
    /// mis-specified capture (an empty tape, a leaf that is neither an input
    /// nor bound, a loss that is not the backward's scalar root, a leaf or
    /// repeated output — see [`Plan::capture`]); there is no op a plan
    /// cannot replay.
    pub fn capture(g: &Graph, bd: &Binding, loss: Var, outputs: &[Var]) -> Self {
        let params: Vec<Var> = bd.bound().iter().map(|&(_, v)| v).collect();
        let ids: Vec<ParamId> = bd.bound().iter().map(|&(id, _)| id).collect();
        let spec =
            CaptureSpec { inputs: g.input_vars(), params: &params, loss: Some(loss), outputs };
        Self { plan: Plan::capture(g, &spec), ids }
    }

    /// Forward-only capture for inference serving: same wiring as
    /// [`StepPlan::capture`], but via [`Plan::capture_forward`] — no
    /// backward schedule, no gradient buffers, and a forward-liveness
    /// arena. Replays run through [`StepPlan::replay_forward`];
    /// [`StepPlan::replay_step`] panics on a plan captured this way.
    pub fn capture_forward(g: &Graph, bd: &Binding, outputs: &[Var]) -> Self {
        let params: Vec<Var> = bd.bound().iter().map(|&(_, v)| v).collect();
        let ids: Vec<ParamId> = bd.bound().iter().map(|&(id, _)| id).collect();
        let spec = CaptureSpec { inputs: g.input_vars(), params: &params, loss: None, outputs };
        Self { plan: Plan::capture_forward(g, &spec), ids }
    }

    fn param_values<'a>(&self, ps: &'a ParamSet) -> Vec<&'a Tensor> {
        self.ids.iter().map(|&id| ps.value(id)).collect()
    }

    /// Forward + backward-from-loss replay; returns the loss value.
    pub fn replay_step(&mut self, ps: &ParamSet, inputs: &[&Tensor], feeds: &Feeds) -> f32 {
        let pv = self.param_values(ps);
        self.plan.replay_step(inputs, &pv, feeds);
        self.plan.loss()
    }

    /// Forward-only replay (outputs readable afterwards).
    pub fn replay_forward(&mut self, ps: &ParamSet, inputs: &[&Tensor], feeds: &Feeds) {
        let pv = self.param_values(ps);
        self.plan.replay_forward(inputs, &pv, feeds);
    }

    /// [`StepPlan::replay_forward`] again with `ps` unchanged since the
    /// last one: reuses the weight panels that replay packed
    /// ([`Plan::replay_forward_again`]).
    pub fn replay_forward_again(&mut self, ps: &ParamSet, inputs: &[&Tensor], feeds: &Feeds) {
        let pv = self.param_values(ps);
        self.plan.replay_forward_again(inputs, &pv, feeds);
    }

    /// The loss value of the last replay (loss-mode plans).
    pub fn loss(&self) -> f32 {
        self.plan.loss()
    }

    /// Output `k`'s value after a forward replay. The returned tensor is a
    /// copy-on-write alias — drop it before the next replay or that replay
    /// pays one buffer copy for the slot.
    pub fn output(&self, k: usize) -> Tensor {
        self.plan.output(k)
    }

    /// Batch statistics `(mean, var)` of the `i`-th BatchNorm op (tape
    /// order) from the last forward replay.
    pub fn bn_batch_stats(&self, i: usize) -> (&[f32], &[f32]) {
        self.plan.bn_batch_stats(i)
    }

    /// Number of BatchNorm ops in the plan.
    pub fn num_batch_norms(&self) -> usize {
        self.plan.num_batch_norms()
    }

    /// Accumulates the last replay's parameter gradients into `buf`,
    /// visiting parameters in binding order — the replay twin of
    /// [`Binding::write_grads_to`].
    pub fn write_grads_to(&self, buf: &mut GradBuffer) {
        for (k, &id) in self.ids.iter().enumerate() {
            if let Some(grad) = self.plan.param_grad(k) {
                buf.accumulate(id, grad);
            }
        }
    }

    /// The plan's one-line summary ([`Plan::describe`]).
    pub fn describe(&self) -> String {
        self.plan.describe()
    }

    /// Static plan statistics (schedule/arena sizes).
    pub fn stats(&self) -> PlanStats {
        self.plan.stats()
    }
}

/// Splits a row-major tensor into one `Vec<f32>` per leading-dimension
/// row — the scatter half of batched serving.
pub(crate) fn tensor_rows(t: &Tensor) -> Vec<Vec<f32>> {
    let rows = t.dim(0);
    let w = t.numel() / rows.max(1);
    t.as_slice().chunks(w).map(|c| c.to_vec()).collect()
}

/// One model family's frozen-inference surface, unifying the per-model
/// `capture_*_plan` / `replay_*_plan` zoo behind a single interface the
/// serving stack and the evaluation sweeps drive: assemble client rows into
/// a batch, capture the plan for that batch shape, replay it with no tape,
/// and carry per-row recurrent state between requests.
///
/// Implementations for the four families:
///
/// | family      | `Req`         | `Out`          | `RowState` | `Plan`        |
/// |-------------|---------------|----------------|------------|---------------|
/// | `MnistLstm` | 784 pixels    | 10 logits      | none       | `StepPlan`    |
/// | `PtbLm`     | token window  | vocab logits   | `LmState`  | `StepPlan`    |
/// | `Seq2Seq`   | source tokens | decoded tokens | none       | `Seq2SeqPlan` |
/// | `ResNet`    | 3·32·32 image | class logits   | none       | `StepPlan`    |
///
/// A forward-only [`StepPlan`] is the whole forward for the first three;
/// greedy decoding is data-dependent, so `Seq2Seq` replays its encoder plan
/// once and a decoder-step plan once per token, looped from Rust.
pub trait Infer {
    /// One client request (a single row).
    type Req: Send + 'static;
    /// One row's inference result.
    type Out: Send + 'static;
    /// Per-row recurrent state carried across requests (`()` for
    /// stateless families).
    type RowState: Clone + Send + 'static;
    /// The assembled batch the forward consumes.
    type Batch;
    /// What one capture compiles for a batch shape and every replay of
    /// that shape reuses.
    type Plan: Send;

    /// Fresh carried state for a new session.
    fn zero_state(&self) -> Self::RowState;

    /// Requests with equal keys may share one batched forward — the
    /// dynamic batcher groups by this. Length-sensitive families key on
    /// the token count; fixed-shape and pad-tolerant families return a
    /// constant so everything coalesces.
    fn coalesce_key(&self, req: &Self::Req) -> Vec<usize>;

    /// Packs coalesced rows and their carried states into one batch.
    /// `reqs` and `states` are parallel slices.
    fn assemble(&self, reqs: &[Self::Req], states: &[Self::RowState]) -> Self::Batch;

    /// Plan-cache key of an assembled batch (batch size plus whatever
    /// shape dimensions the capture freezes).
    fn infer_key(&self, batch: &Self::Batch) -> Vec<usize>;

    /// Captures the plan for this batch shape from the tapes that compute
    /// this batch, and returns their result with it, one `(output, carried
    /// state)` per row: a cache miss costs the compile, not a second
    /// forward. A capture that fails is a bug in the model's capture, and
    /// panics with its cause.
    #[allow(clippy::type_complexity)] // the plan, and one (output, carried state) per row
    fn capture_infer(
        &self,
        ps: &ParamSet,
        batch: &Self::Batch,
    ) -> (Self::Plan, Vec<(Self::Out, Self::RowState)>);

    /// Replays a captured plan on the batch, building no tape, and returns
    /// one `(output, carried state)` per row — bitwise the result of
    /// [`Infer::infer_tape`].
    fn replay_infer(
        &self,
        plan: &mut Self::Plan,
        ps: &ParamSet,
        batch: &Self::Batch,
    ) -> Vec<(Self::Out, Self::RowState)>;

    /// The live-tape forward on the same batch — the equivalence oracle
    /// the planned path is tested against.
    fn infer_tape(&self, ps: &ParamSet, batch: &Self::Batch)
        -> Vec<(Self::Out, Self::RowState)>;
}
