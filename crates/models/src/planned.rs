//! Captured-plan execution of one model training step.
//!
//! [`StepPlan`] glues a [`legw_autograd::Plan`] to the `ParamSet` world:
//! it records a step on a shape-only tape and captures it using the tape's
//! own positional input signature ([`legw_autograd::Graph::input_vars`])
//! and the binding's parameter order ([`legw_nn::Binding::bound`]), then
//! replays steps
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
use std::ops::Range;

/// A captured training-step plan plus the parameter wiring needed to
/// replay it against a [`ParamSet`].
pub struct StepPlan {
    plan: Plan,
    ids: Vec<ParamId>,
}

impl StepPlan {
    /// Compiles a training step recorded on a shape-only tape, which runs
    /// no kernel: `record` adds the forward, binding parameters through the
    /// binding given, and returns the scalar loss, whose backward follows,
    /// and the values read after each replay. The plan's inputs are the
    /// tape's [`Graph::input`] leaves in order, its parameters the bound
    /// ones in binding order. Panics on a mis-specified capture.
    pub fn capture(record: impl FnOnce(&mut Graph, &mut Binding) -> (Var, Vec<Var>)) -> Self {
        let (mut g, mut bd) = (Graph::shape_only(), Binding::new());
        let (loss, outputs) = record(&mut g, &mut bd);
        g.backward(loss);
        Self::compile(&g, &bd, Some(loss), &outputs)
    }

    /// [`StepPlan::capture`] of a forward that returns its outputs, for
    /// inference ([`Plan::capture_forward`]): weight panels are packed once
    /// per parameter version, at their first read, for the first copy
    /// ([`InferPlan::copy`]) or at [`InferPlan::renew`], so every replay of
    /// a version must be given the same parameter values.
    pub fn capture_forward(record: impl FnOnce(&mut Graph, &mut Binding) -> Vec<Var>) -> Self {
        let (mut g, mut bd) = (Graph::shape_only(), Binding::new());
        let outputs = record(&mut g, &mut bd);
        Self::compile(&g, &bd, None, &outputs)
    }

    fn compile(g: &Graph, bd: &Binding, loss: Option<Var>, outputs: &[Var]) -> Self {
        let params: Vec<Var> = bd.bound().iter().map(|&(_, v)| v).collect();
        let ids: Vec<ParamId> = bd.bound().iter().map(|&(id, _)| id).collect();
        let spec = CaptureSpec { inputs: g.input_vars(), params: &params, loss, outputs };
        let plan = match loss {
            Some(_) => Plan::capture(g, &spec),
            None => Plan::capture_forward(g, &spec),
        };
        Self { plan, ids }
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

    /// Batch statistics `(mean, var)` of every BatchNorm op, in tape
    /// order, from the last forward replay ([`Plan::bn_batch_stats`]).
    pub fn bn_batch_stats(&self) -> Vec<(&[f32], &[f32])> {
        self.plan.bn_batch_stats()
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

/// An inference plan another thread can replay through a copy: what
/// [`Infer::Plan`] is.
pub trait InferPlan: Send {
    /// A copy of this plan for another thread to replay, made on this one:
    /// storage of its own for everything a replay writes, and the weight
    /// panels shared. Panels no replay has packed yet are packed first,
    /// from `ps` — the parameters every replay is given — under this
    /// thread's kernel tier and bf16 scope, so that the copy shares them.
    fn copy(&mut self, ps: &ParamSet) -> Self;

    /// For a plan kept between uses: `None` lends its arena to this thread's
    /// buffer pool, `Some(ps)` takes one from it — also a fresh capture's,
    /// which has none — and starts a parameter version, every weight panel
    /// packed again from `ps` ([`Plan::renew`]).
    fn renew(&mut self, ps: Option<&ParamSet>);
}

/// Gives each row group of one batch shape its plan, on the calling thread:
/// how eval and serving get the plans they replay, one per group, in group
/// order. `plans` is the shape's entry: one plan per group, kept as it is,
/// or none. Then each group shape's first plan is captured from shapes
/// ([`Infer::capture_infer`]; `keys[i]` is group `i`'s [`Infer::infer_key`])
/// and renewed: an arena from this thread's buffer pool, every panel packed
/// from `ps` ([`InferPlan::renew`]). Each later group of that shape gets a
/// copy of it ([`InferPlan::copy`]): an arena of its own, the panels shared.
pub fn group_plans<M: Infer>(
    model: &M,
    ps: &ParamSet,
    plans: &mut Vec<M::Plan>,
    groups: &[M::Batch],
    keys: &[Vec<usize>],
) {
    if !plans.is_empty() {
        return;
    }
    for (i, key) in keys.iter().enumerate() {
        let plan = match keys[..i].iter().position(|k| k == key) {
            Some(j) => plans[j].copy(ps),
            None => {
                let mut plan = model.capture_infer(ps, &groups[i]);
                plan.renew(Some(ps));
                plan
            }
        };
        plans.push(plan);
    }
}

/// A forward-only plan's copy: [`Plan`]'s clone, after
/// [`Plan::pack_panels`].
impl InferPlan for StepPlan {
    fn copy(&mut self, ps: &ParamSet) -> Self {
        self.plan.pack_panels(&self.param_values(ps));
        StepPlan { plan: self.plan.clone(), ids: self.ids.clone() }
    }

    fn renew(&mut self, ps: Option<&ParamSet>) {
        let params = ps.map(|ps| self.param_values(ps));
        self.plan.renew(params.as_deref());
    }
}

/// Splits a row-major tensor into one `Vec<f32>` per leading-dimension
/// row — the scatter half of batched serving.
pub(crate) fn tensor_rows(t: &Tensor) -> Vec<Vec<f32>> {
    let rows = t.dim(0);
    let w = t.numel() / rows.max(1);
    t.as_slice().chunks(w).map(|c| c.to_vec()).collect()
}

/// One model family's inference surface, unifying the per-model
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
///
/// A plan is captured from shapes ([`StepPlan::capture_forward`]) and
/// captures no value: every replay reads the parameters, and ResNet's
/// BatchNorm fold. The eager tape stays as the oracle, [`Infer::infer_tape`].
/// A plan's weight panels are packed once per parameter version,
/// and again at [`InferPlan::renew`]: serving is the single version, eval
/// starts one per call. Another thread replays a copy of a plan
/// ([`InferPlan::copy`]), which shares the panels; [`group_plans`] gives
/// a batch's row groups their plans, for eval and serving alike. A
/// batch's row groups ([`Infer::slice`]) can be computed on several
/// threads at once, so the model and its batches are `Sync`.
pub trait Infer: Sync {
    /// One client request (a single row).
    type Req: Send + 'static;
    /// One row's inference result.
    type Out: Send + 'static;
    /// Per-row recurrent state carried across requests (`()` for
    /// stateless families).
    type RowState: Clone + Send + 'static;
    /// The assembled batch the forward consumes.
    type Batch: Sync;
    /// What one capture compiles for a batch shape and every replay of
    /// that shape reuses.
    type Plan: InferPlan;

    /// Every parameter the model registered, in order: with their shapes,
    /// they tell one model's plans from another's.
    fn params(&self) -> &[ParamId];

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

    /// The rows `rows` of an assembled batch, as a batch of their own that
    /// computes each of them bitwise as `batch` does: a seq2seq group keeps
    /// the batch's padded source length, a PTB group its rows' carried
    /// state.
    fn slice(&self, batch: &Self::Batch, rows: Range<usize>) -> Self::Batch;

    /// Plan-cache key of an assembled batch (batch size plus whatever
    /// shape dimensions the capture freezes).
    fn infer_key(&self, batch: &Self::Batch) -> Vec<usize>;

    /// Captures the plan for this batch shape from a shape-only tape: no
    /// kernel runs and no value of `batch` is read, so the plan computes
    /// nothing until it replays ([`Infer::replay_infer`]). A capture that
    /// fails is a bug in the model's capture, and panics with its cause.
    fn capture_infer(&self, ps: &ParamSet, batch: &Self::Batch) -> Self::Plan;

    /// Replays a captured plan on the batch, building no tape, and returns
    /// one `(output, carried state)` per row — bitwise the result of
    /// [`Infer::infer_tape`].
    fn replay_infer(
        &self,
        plan: &mut Self::Plan,
        ps: &ParamSet,
        batch: &Self::Batch,
    ) -> Vec<(Self::Out, Self::RowState)>;

    /// The live-tape forward on the same batch: the oracle that
    /// [`Infer::replay_infer`] is held to, bitwise. Outside tests only the
    /// benchmark calls it, to judge served rows and to time the tape; no
    /// eval or serving path computes a row with it.
    fn infer_tape(&self, ps: &ParamSet, batch: &Self::Batch)
        -> Vec<(Self::Out, Self::RowState)>;
}
