//! Compiled execution plans: freeze one recorded step into a replayable
//! schedule with preplanned buffers.
//!
//! [`Plan::capture`] walks a finished tape once and compiles it into two
//! static instruction lists (forward and backward) whose operands are
//! resolved *locations* — caller-supplied inputs/params, captured
//! constants, plan-owned output tensors, or slots of a preplanned arena.
//! A liveness pass over the 2N-position schedule (forward node `i` at
//! position `i`, its backward at `2N-1-i`) assigns every intermediate
//! value and gradient to an arena slot, reusing slots the moment their
//! interval ends, so the arena's footprint is the exact peak live set.
//!
//! [`Plan::replay_forward`] / [`Plan::replay_backward_loss`] then re-run
//! the step on new data with no tape recording, no shape checks, and no
//! per-node allocation: every instruction writes into storage that was
//! sized at capture. Every instruction calls the body its tape op calls —
//! the slice kernels of [`crate::opk`] and `legw_tensor`'s `_into`
//! functions — so a replayed step is bitwise identical to rebuilding the
//! tape.
//!
//! **Weights are packed once per replay.** A GEMM whose B operand is a
//! parameter — or a row-slice / reshape of one, like the `W_x` / `W_h`
//! halves of an LSTM kernel — does not read it from the arena and pack it
//! inside the call. The capture gives each such operand a plan-owned
//! [`PackedB`] panel, keyed by *(tape node, transpose form)* and reserved
//! then; the interpreter packs it straight from the caller's parameter at
//! its first read in a replay and every later read — the other 27 steps of
//! a 28-step recurrence, every row tile of a conv — multiplies through
//! [`gemm_into_packed`], bitwise-equal to the packing call. A panel lives
//! for one replay: [`Plan::replay_forward`] starts a new generation, the
//! backward replays that follow keep it (they are handed the same tensors
//! by contract), and nothing is ever looked up by address or kept across
//! an optimizer step, so there is no invalidation protocol to get wrong.
//! Where every reader of a weight slice became such a GEMM, the slice is
//! not copied into the arena at all.
//!
//! Dynamic per-step data — embedding ids, cross-entropy labels, dropout
//! masks — is fed at replay time through [`Feeds`]; everything
//! shape-changing invalidates the plan (callers key plans by shape and
//! fall back to the tape on unseen shapes).

use crate::graph::{Graph, Op, Var};
use crate::opk::{self, apply, Mode};
use legw_tensor::kernels::{self, Kernel};
use legw_tensor::{
    col2im_into, col_sums_into, concat_cols_into, gemm_into, gemm_into_packed, im2col_into,
    lstm_cell_backward_into, lstm_cell_forward_into, repeat_rows_into, slice_cols_into,
    softmax_rows_into, Conv2dGeom, PackedB, Tensor,
};
use std::collections::HashMap;

/// What to capture from a tape: which leaves are per-step inputs, which
/// are parameters (gradient targets), and what the step produces.
pub struct CaptureSpec<'a> {
    /// Non-parameter leaves whose values change every step (fed at replay,
    /// in this order). Must have `requires_grad == false`.
    pub inputs: &'a [Var],
    /// Parameter leaves (gradients exposed via [`Plan::param_grad`], in
    /// this order). Must have `requires_grad == true`. Every
    /// `requires_grad` leaf on the tape must be listed here.
    pub params: &'a [Var],
    /// Scalar loss node — [`Plan::replay_backward_loss`] seeds the sweep
    /// with `dL/dL = 1` exactly like [`Graph::backward`]. Required by
    /// [`Plan::capture`]; optional for [`Plan::capture_forward`].
    pub loss: Option<Var>,
    /// Non-leaf nodes whose values the caller reads after each replay.
    pub outputs: &'a [Var],
}

/// Per-replay dynamic data, in op-encounter (node) order per kind.
/// Leave a field empty to reuse the values captured from the tape.
#[derive(Default)]
pub struct Feeds<'a> {
    /// One id list per `Embedding` op.
    pub ids: &'a [&'a [usize]],
    /// One label list per `SoftmaxCrossEntropy` op.
    pub labels: &'a [&'a [usize]],
    /// One mask per `Dropout` op (same shape as captured).
    pub masks: &'a [&'a Tensor],
}

/// Compile-time footprint report of a captured plan.
#[derive(Clone, Copy, Debug, Default)]
pub struct PlanStats {
    /// Tape nodes covered by the plan.
    pub nodes: usize,
    /// Forward / backward instruction counts.
    pub fwd_instrs: usize,
    pub bwd_instrs: usize,
    /// Physical arena slots and their total size in bytes.
    pub arena_slots: usize,
    pub arena_bytes: usize,
    /// Exact peak of simultaneously-live arena bytes over the schedule
    /// (equals `arena_bytes` unless slot sizes fragment the free list).
    pub peak_live_bytes: usize,
    /// Bytes of op-private state buffers (gates, probs, im2col columns…).
    pub state_bytes: usize,
    /// Bytes of the shared scratch buffers (add-mode GEMM detours plus the
    /// f64 column-sum accumulators).
    pub scratch_bytes: usize,
    /// Weight operands held as packed GEMM panels (one per tape node and
    /// transpose form), and the bytes they hold right now — nothing before
    /// the first replay; reserved at capture, so a replay allocates none.
    pub panels: usize,
    pub panel_bytes: usize,
}

// ---------------------------------------------------------------- locations

/// Where an instruction reads a value from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Loc {
    /// Caller input `k` of this replay.
    In(u32),
    /// Caller parameter `k` of this replay.
    Par(u32),
    /// Tensor captured from the tape (non-input, non-param leaf).
    Const(u32),
    /// Arena slot (value or gradient of an intermediate).
    Slot(u32),
    /// Plan-owned output tensor.
    Out(u32),
}

/// Where an instruction writes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Dst {
    Slot(u32),
    Out(u32),
    /// Gradient tensor of parameter `k`.
    ParGrad(u32),
}

/// The right-hand operand of a GEMM-like instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Rhs {
    /// Read where the value lives and packed inside the call, every call.
    Loc(Loc),
    /// A weight — a parameter, or a row-slice / reshape of one — read
    /// through plan-owned panel `k`: packed from the caller's parameter at
    /// its first read in a replay, reused by every later read of that replay.
    Panel(u32),
}

#[derive(Clone, Copy, Debug)]
enum EwKind {
    Add,
    Sub,
    Mul,
}

#[derive(Clone, Copy, Debug)]
enum UnKind {
    Sigmoid,
    Tanh,
    Relu,
    Scale(f32),
    AddScalar(f32),
}

// ------------------------------------------------------------- instructions

/// One replay instruction. Dimensions are baked at capture; operands are
/// resolved [`Loc`]s / [`Dst`]s. Forward instructions always overwrite
/// their destination; backward ones carry a [`Mode`].
enum Instr {
    // ---- forward
    Ew { kind: EwKind, a: Loc, b: Loc, dst: Dst, n: usize },
    Unary { kind: UnKind, a: Loc, dst: Dst, n: usize },
    AddBias { x: Loc, bias: Loc, dst: Dst, rows: usize, cols: usize },
    RowScale { x: Loc, s: Loc, dst: Dst, rows: usize, cols: usize },
    /// `dst (+)= op(a) · op(b)`; `Mode::Add` detours through scratch
    /// ([`opk::store_or_add`]): the tape adds a finished product, and
    /// accumulating in-engine across k-blocks would reassociate.
    Gemm { ta: bool, tb: bool, a: Loc, b: Rhs, m: usize, k: usize, n: usize, dst: Dst, mode: Mode },
    ConcatColsF { parts: Vec<(Loc, usize)>, dst: Dst, rows: usize, total: usize },
    SliceColsF { x: Loc, dst: Dst, rows: usize, cols: usize, start: usize, end: usize },
    /// Contiguous block copy: ConcatRows parts and SliceRows forward.
    CopyBlock { src: Loc, src_off: usize, dst: Dst, dst_off: usize, len: usize },
    SumAllF { x: Loc, dst: Dst, n: usize, mean: bool },
    DropoutF { x: Loc, mask: u32, dst: Dst, n: usize },
    EmbedF { table: Loc, feed: u32, dst: Dst, vocab: usize, dim: usize, count: usize },
    SoftmaxF { x: Loc, dst: Dst, m: usize, n: usize },
    CeF { logits: Loc, probs: u32, labels: u32, rt: u32, dst: Dst, b: usize, v: usize },
    ConvF { x: Loc, w: Rhs, cols: u32, out2: u32, dst: Dst, geom: Conv2dGeom, batch: usize, oc: usize },
    MaxPoolF { x: Loc, dst: Dst, am: u32, nc: usize, h: usize, w: usize },
    GapF { x: Loc, dst: Dst, nc: usize, hw: usize },
    BnF { x: Loc, gamma: Loc, beta: Loc, xhat: u32, rt: u32, dst: Dst, n: usize, c: usize, hw: usize, eps: f32 },
    LstmF { preact: Loc, c_prev: Loc, gates: u32, tanh_c: u32, c_dst: Dst, h_dst: Dst, b: usize, hid: usize },
    PreactSeqF { x: Loc, w: Rhs, bias: Loc, dst: Dst, rows: usize, k: usize, n4: usize },
    RecurStepF { seq: Loc, h: Loc, w_h: Rhs, dst: Dst, t: usize, batch: usize, hid: usize, n4: usize },

    // ---- backward
    /// `dst += op(a) · op(b)` accumulated in-engine: what an add-mode
    /// gradient GEMM becomes when its inner dimension is a single k-block
    /// ([`legw_tensor::gemm_single_k_block`]). The engine then performs
    /// exactly one `+=` per element of the same micro-tile product the
    /// scratch detour of `Gemm { mode: Add }` would have added, so the bits
    /// match the tape without the scratch.
    GemmAcc { ta: bool, tb: bool, a: Loc, b: Rhs, m: usize, k: usize, n: usize, dst: Dst },
    /// `dst (+)= up * c`; `c == 1.0` is the plain gradient copy.
    ScaleG { up: Loc, dst: Dst, mode: Mode, n: usize, c: f32 },
    MulG { up: Loc, other: Loc, dst: Dst, mode: Mode, n: usize },
    DropoutG { up: Loc, mask: u32, dst: Dst, mode: Mode, n: usize },
    SigmoidG { up: Loc, y: Loc, dst: Dst, mode: Mode, n: usize },
    TanhG { up: Loc, y: Loc, dst: Dst, mode: Mode, n: usize },
    ReluG { up: Loc, x: Loc, dst: Dst, mode: Mode, n: usize },
    /// f64 column sums of `up [rows, cols]` → `dst [cols]` (AddBias /
    /// LstmPreactSeq bias gradients).
    ColSumG { up: Loc, dst: Dst, mode: Mode, rows: usize, cols: usize },
    RowScaleDx { up: Loc, s: Loc, dst: Dst, mode: Mode, rows: usize, cols: usize },
    RowScaleDs { up: Loc, x: Loc, dst: Dst, mode: Mode, rows: usize, cols: usize },
    /// ConcatCols backward for one part: read a column block of `up`.
    ColsBlockG { up: Loc, dst: Dst, mode: Mode, rows: usize, up_cols: usize, off: usize, width: usize },
    /// SliceCols backward: scatter `up [rows, end-start]` into a wider
    /// gradient whose other columns receive the dense gradient's literal
    /// zeros (an add-mode destination really runs `d += 0.0` there).
    ColsScatterG { up: Loc, dst: Dst, mode: Mode, rows: usize, dst_cols: usize, start: usize, end: usize },
    /// Contiguous row-block gradient: ConcatRows part (read a block of
    /// `up`) or SliceRows (scatter into a zero-padded block when
    /// `zero_rest`).
    BlockG { up: Loc, up_off: usize, dst: Dst, dst_off: usize, len: usize, dst_len: usize, zero_rest: bool, mode: Mode },
    SumAllG { up: Loc, dst: Dst, mode: Mode, n: usize, mean: bool },
    EmbedG { up: Loc, feed: u32, dst: Dst, mode: Mode, vocab: usize, dim: usize, count: usize },
    SoftmaxG { up: Loc, y: Loc, dst: Dst, mode: Mode, m: usize, n: usize },
    CeG { up: Loc, probs: u32, labels: u32, rt: u32, dst: Dst, mode: Mode, b: usize, v: usize },
    /// `w` is read by the `dx` GEMM only.
    ConvG { up: Loc, w: Rhs, cols: u32, out2: u32, dw: Option<(Dst, Mode)>, dx: Option<(Dst, Mode)>, geom: Conv2dGeom, batch: usize, oc: usize },
    MaxPoolG { up: Loc, dst: Dst, mode: Mode, am: u32, x_len: usize, out_len: usize },
    GapG { up: Loc, dst: Dst, mode: Mode, nc: usize, hw: usize },
    BnG { up: Loc, gamma: Loc, xhat: u32, rt: u32, dg: Option<(Dst, Mode)>, dbt: Option<(Dst, Mode)>, dx: Option<(Dst, Mode)>, n: usize, c: usize, hw: usize },
    /// Writes both destinations in place when both are plain stores
    /// ([`lstm_g_in_place`]); bounces through scratch otherwise.
    LstmG { gates: u32, tanh_c: u32, c_prev: Loc, dh: Option<Loc>, dc: Option<Loc>, dpre: (Dst, Mode), dcp: (Dst, Mode), b: usize, hid: usize },
    /// LstmRecurStep's dSeq row scatter: `seq_grad[tB..(t+1)B] += up`,
    /// zeroing the whole block first on the step that creates it.
    RecurSeqG { up: Loc, dst: Dst, zero_first: bool, t: usize, batch: usize, cols: usize, dst_len: usize },
}

// ------------------------------------------------------- runtime containers

/// Per-BatchNorm runtime scratch: f64 accumulators sized `[C]` plus the
/// f32 batch statistics exposed for running-average updates.
#[derive(Default)]
struct BnRt {
    mean: Vec<f64>,
    var: Vec<f64>,
    sum_up: Vec<f64>,
    sum_up_xh: Vec<f64>,
    mean_f32: Vec<f32>,
    var_f32: Vec<f32>,
    inv_std: Vec<f32>,
}

/// The static program: instruction lists plus the backward's root.
struct Prog {
    fwd: Vec<Instr>,
    bwd: Vec<Instr>,
    /// The arena slot of the loss node's gradient (seeded with 1.0); `None`
    /// in a forward-only plan.
    loss_grad: Option<u32>,
}

/// The packed form of one weight operand, owned by the plan: elements
/// `off..off + len` of parameter `par` — the parameter itself, or the
/// row-slice / reshape of it one tape node stood for — as the B of GEMMs
/// that read it with this `tb`.
struct Panel {
    par: u32,
    off: usize,
    len: usize,
    tb: bool,
    packed: PackedB,
    /// [`Store::epoch`] of the replay that packed it.
    epoch: u64,
}

/// All mutable replay storage, preallocated at capture.
struct Store {
    slots: Vec<Vec<f32>>,
    outs: Vec<Tensor>,
    pargrads: Vec<Tensor>,
    consts: Vec<Tensor>,
    states: Vec<Vec<f32>>,
    scratch: Vec<f32>,
    /// f64 accumulators for `ColSumG`, sized to the widest column-sum.
    colsum: Vec<f64>,
    ids: Vec<Vec<usize>>,
    labels: Vec<Vec<usize>>,
    masks: Vec<Tensor>,
    argmax: Vec<Vec<u32>>,
    ce_active: Vec<usize>,
    bn: Vec<BnRt>,
    panels: Vec<Panel>,
    /// Counts forward replays. A panel is current iff it was packed in this
    /// epoch: parameters are only guaranteed unchanged from a forward replay
    /// to the backward replays that follow it, so no panel outlives that.
    epoch: u64,
    /// 1-element tensor used to displace an output/pargrad tensor while an
    /// instruction writes it (an `Arc` clone, so displacement never
    /// allocates).
    placeholder: Tensor,
}

/// A captured, replayable training/inference step.
///
/// Created by [`Plan::capture`]; replays are driven by
/// [`Plan::replay_forward`] followed by [`Plan::replay_backward_loss`]
/// (together: [`Plan::replay_step`]). At steady state a
/// replay performs **zero** buffer-pool allocations: every destination was
/// sized at capture.
pub struct Plan {
    prog: Prog,
    st: Store,
    in_shapes: Vec<Vec<usize>>,
    par_shapes: Vec<Vec<usize>>,
    /// Per `spec.outputs` entry, the index into `st.outs`.
    out_of_k: Vec<u32>,
    loss_out: Option<u32>,
    /// Per param, whether any gradient statically flows to it.
    par_grad_present: Vec<bool>,
    stats: PlanStats,
}

impl Plan {
    /// Compiles the recorded tape into a plan. Returns `None` only when
    /// `spec` does not describe the tape: an empty tape, a `spec.params` /
    /// `spec.inputs` entry that is not a leaf of that kind or is listed
    /// twice, a `requires_grad` leaf missing from `spec.params`, a leaf or
    /// repeated output, a missing, non-scalar or non-differentiable loss. No
    /// op is beyond a plan — the capture matches `Op` exhaustively, so a new
    /// op fails to compile, not to capture. Callers fall back to the tape.
    /// The backward sweep starts at the loss alone, exactly like
    /// [`Graph::backward`]: `spec.outputs` are values, never gradient roots.
    /// A capture without a loss is [`Plan::capture_forward`]'s.
    ///
    /// Call after the forward pass — running `backward` first is fine
    /// (the sweep restores every op it visits).
    pub fn capture(g: &Graph, spec: &CaptureSpec) -> Option<Plan> {
        spec.loss?;
        Capturer::run(g, spec, false)
    }

    /// Forward-only capture for inference: compiles just the forward
    /// schedule — no gradient slots, no backward instructions, and no
    /// per-parameter gradient buffers (frozen-model serving never reads
    /// them). Liveness runs over the forward schedule alone, so
    /// intermediates die at their last forward use and the arena is much
    /// smaller than a training plan's. A `spec.loss` is still computed as
    /// a forward output (so [`Plan::loss`] works), but
    /// [`Plan::replay_backward_loss`] panics on a plan captured this way.
    pub fn capture_forward(g: &Graph, spec: &CaptureSpec) -> Option<Plan> {
        Capturer::run(g, spec, true)
    }

    /// Re-executes the forward schedule on new data. `inputs` / `params`
    /// are in `spec` order and must match the captured shapes.
    pub fn replay_forward(&mut self, inputs: &[&Tensor], params: &[&Tensor], feeds: &Feeds) {
        self.check_bindings(inputs, params);
        self.load_feeds(feeds);
        // New parameter values may arrive with every forward replay: whatever
        // the weight panels hold is stale from here on.
        self.st.epoch += 1;
        // Split borrows: the program is read-only while the store mutates.
        let (prog, st) = (&self.prog, &mut self.st);
        for ins in &prog.fwd {
            exec(ins, st, inputs, params);
        }
    }

    /// Runs the backward schedule seeded with `dL/dL = 1`.
    /// `inputs` / `params` must be the same tensors passed to the
    /// preceding [`Plan::replay_forward`], unchanged since, and the kernel
    /// tier and bf16 scope must be the ones it ran under: the weight panels
    /// it packed are reused here.
    ///
    /// # Panics
    /// If the plan was captured with [`Plan::capture_forward`].
    pub fn replay_backward_loss(&mut self, inputs: &[&Tensor], params: &[&Tensor]) {
        let seed = self.prog.loss_grad.expect("replay_backward_loss on a forward-only plan");
        self.st.slots[seed as usize][0] = 1.0;
        let (prog, st) = (&self.prog, &mut self.st);
        for ins in &prog.bwd {
            exec(ins, st, inputs, params);
        }
    }

    /// Forward + loss-seeded backward in one call — the common training
    /// step.
    pub fn replay_step(&mut self, inputs: &[&Tensor], params: &[&Tensor], feeds: &Feeds) {
        self.replay_forward(inputs, params, feeds);
        self.replay_backward_loss(inputs, params);
    }

    /// One-line schedule summary: instruction counts by kind (in first-
    /// appearance order), arena footprint and scratch sizes.
    pub fn describe(&self) -> String {
        use std::fmt::Write;
        let s = self.stats();
        let mut out = format!(
            "plan: nodes={} instrs fwd={} bwd={} slots={} arena={}B peak_live={}B state={}B scratch={}B panels={} ({}B) |",
            s.nodes,
            s.fwd_instrs,
            s.bwd_instrs,
            s.arena_slots,
            s.arena_bytes,
            s.peak_live_bytes,
            s.state_bytes,
            s.scratch_bytes,
            s.panels,
            s.panel_bytes
        );
        let mut counts: Vec<(&'static str, usize)> = Vec::new();
        for ins in self.prog.fwd.iter().chain(&self.prog.bwd) {
            let name = kind_name(ins);
            match counts.iter_mut().find(|(n, _)| *n == name) {
                Some(e) => e.1 += 1,
                None => counts.push((name, 1)),
            }
        }
        for (name, c) in counts {
            let _ = write!(out, " {name}={c}");
        }
        out
    }

    /// The loss value of the last replay (loss-mode plans).
    pub fn loss(&self) -> f32 {
        let k = self.loss_out.expect("loss() on a plan without a loss") as usize;
        self.st.outs[k].as_slice()[0]
    }

    /// Output `k` (in `spec.outputs` order) of the last replay. The
    /// returned tensor shares the plan's buffer (`Arc` clone); the next
    /// replay copies-on-write if the caller still holds it.
    pub fn output(&self, k: usize) -> Tensor {
        self.st.outs[self.out_of_k[k] as usize].clone()
    }

    /// Gradient of parameter `k` after the last backward replay, or `None`
    /// when no gradient flows to it statically (the tape would yield a
    /// zero tensor via `leaf_grads`).
    pub fn param_grad(&self, k: usize) -> Option<&Tensor> {
        if self.par_grad_present[k] {
            Some(&self.st.pargrads[k])
        } else {
            None
        }
    }

    /// Batch statistics `(mean, var)` of BatchNorm op `i` (node order)
    /// from the last forward replay — what a layer's running averages
    /// consume.
    pub fn bn_batch_stats(&self, i: usize) -> (&[f32], &[f32]) {
        let rt = &self.st.bn[i];
        (&rt.mean_f32, &rt.var_f32)
    }
    pub fn num_batch_norms(&self) -> usize {
        self.st.bn.len()
    }

    /// Footprint of the compiled schedule.
    pub fn stats(&self) -> PlanStats {
        PlanStats {
            panel_bytes: self.st.panels.iter().map(|p| p.packed.bytes()).sum(),
            ..self.stats
        }
    }

    fn check_bindings(&self, inputs: &[&Tensor], params: &[&Tensor]) {
        assert_eq!(inputs.len(), self.in_shapes.len(), "input count mismatch");
        assert_eq!(params.len(), self.par_shapes.len(), "param count mismatch");
        for (t, s) in inputs.iter().zip(&self.in_shapes) {
            assert_eq!(t.shape(), &s[..], "input shape drifted from capture");
        }
        for (t, s) in params.iter().zip(&self.par_shapes) {
            assert_eq!(t.shape(), &s[..], "param shape drifted from capture");
        }
    }

    fn load_feeds(&mut self, feeds: &Feeds) {
        let st = &mut self.st;
        assert!(
            feeds.ids.is_empty() || feeds.ids.len() == st.ids.len(),
            "feed all {} embedding id lists or none",
            st.ids.len()
        );
        for (dst, src) in st.ids.iter_mut().zip(feeds.ids) {
            assert_eq!(dst.len(), src.len(), "embedding id count is shape-static");
            dst.copy_from_slice(src);
        }
        assert!(
            feeds.labels.is_empty() || feeds.labels.len() == st.labels.len(),
            "feed all {} label lists or none",
            st.labels.len()
        );
        for (dst, src) in st.labels.iter_mut().zip(feeds.labels) {
            assert_eq!(dst.len(), src.len(), "label count is shape-static");
            dst.copy_from_slice(src);
        }
        assert!(
            feeds.masks.is_empty() || feeds.masks.len() == st.masks.len(),
            "feed all {} dropout masks or none",
            st.masks.len()
        );
        for (dst, src) in st.masks.iter_mut().zip(feeds.masks) {
            assert_eq!(dst.shape(), src.shape(), "dropout mask shape is static");
            *dst = (*src).clone();
        }
    }
}

// ------------------------------------------------------------- interpreter

/// A destination buffer temporarily moved out of the [`Store`] so sources
/// can be read from it while the destination is written — all safe code,
/// no aliasing.
enum DstBuf {
    V(Vec<f32>),
    T(Tensor),
}

impl DstBuf {
    fn s(&mut self) -> &mut [f32] {
        match self {
            DstBuf::V(v) => v.as_mut_slice(),
            DstBuf::T(t) => t.as_mut_slice(),
        }
    }
}

impl Store {
    fn read<'a>(&'a self, loc: Loc, inputs: &'a [&'a Tensor], params: &'a [&'a Tensor]) -> &'a [f32] {
        match loc {
            Loc::In(i) => inputs[i as usize].as_slice(),
            Loc::Par(i) => params[i as usize].as_slice(),
            Loc::Const(i) => self.consts[i as usize].as_slice(),
            Loc::Slot(i) => &self.slots[i as usize],
            Loc::Out(i) => self.outs[i as usize].as_slice(),
        }
    }

    fn take(&mut self, d: Dst) -> DstBuf {
        match d {
            Dst::Slot(i) => DstBuf::V(std::mem::take(&mut self.slots[i as usize])),
            Dst::Out(i) => {
                DstBuf::T(std::mem::replace(&mut self.outs[i as usize], self.placeholder.clone()))
            }
            Dst::ParGrad(i) => DstBuf::T(std::mem::replace(
                &mut self.pargrads[i as usize],
                self.placeholder.clone(),
            )),
        }
    }

    fn put(&mut self, d: Dst, b: DstBuf) {
        match (d, b) {
            (Dst::Slot(i), DstBuf::V(v)) => self.slots[i as usize] = v,
            (Dst::Out(i), DstBuf::T(t)) => self.outs[i as usize] = t,
            (Dst::ParGrad(i), DstBuf::T(t)) => self.pargrads[i as usize] = t,
            _ => unreachable!("dst kind changed between take and put"),
        }
    }

    /// Runs `f(dst, self)` with destination `d` moved out of the store, so
    /// `f` reads any operand while it writes this one.
    fn write(&mut self, d: Dst, f: impl FnOnce(&mut [f32], &Store)) {
        let mut buf = self.take(d);
        f(buf.s(), self);
        self.put(d, buf);
    }

    /// [`Store::write`] that also hands `f` the shared scratch buffer, for
    /// bodies that bounce an add-mode contribution through it
    /// ([`opk::store_or_add`]). Capture sized the scratch over every
    /// consumer in the final schedule; a replay never grows it.
    fn write_scr(&mut self, d: Dst, f: impl FnOnce(&mut [f32], &mut [f32], &Store)) {
        let mut scr = std::mem::take(&mut self.scratch);
        self.write(d, |o, st| f(o, &mut scr, st));
        self.scratch = scr;
    }

    fn take_state(&mut self, i: u32) -> Vec<f32> {
        std::mem::take(&mut self.states[i as usize])
    }

    fn put_state(&mut self, i: u32, v: Vec<f32>) {
        self.states[i as usize] = v;
    }

    /// Brings `b`, when it is a panel, up to this replay's parameter values:
    /// packed at its first read since the last forward replay began, left
    /// alone at every later one.
    fn refresh(&mut self, b: Rhs, params: &[&Tensor]) {
        if let Rhs::Panel(i) = b {
            let p = &mut self.panels[i as usize];
            if p.epoch != self.epoch {
                let w = params[p.par as usize].as_slice();
                p.packed.pack(p.tb, &w[p.off..p.off + p.len]);
                p.epoch = self.epoch;
            }
        }
    }

    /// `out (+)= op(a) · op(b)` — the one GEMM every GEMM-like instruction
    /// issues. A panel `b` must have been [`Store::refresh`]ed by the caller
    /// (which needs `&mut self`, while `a` usually borrows from `self`).
    #[allow(clippy::too_many_arguments)]
    fn gemm(
        &self,
        ta: bool,
        tb: bool,
        a: &[f32],
        b: Rhs,
        [m, k, n]: [usize; 3],
        out: &mut [f32],
        acc: bool,
        inputs: &[&Tensor],
        params: &[&Tensor],
    ) {
        match b {
            Rhs::Loc(l) => gemm_into(ta, tb, a, self.read(l, inputs, params), m, k, n, out, acc),
            Rhs::Panel(i) => {
                let p = &self.panels[i as usize];
                debug_assert!(p.epoch == self.epoch && p.tb == tb, "stale or foreign panel");
                gemm_into_packed(ta, a, &p.packed, m, out, acc)
            }
        }
    }
}

// ---------------------------------------------------------------- executor

/// Elementwise sweeps longer than this fan out in fixed-size chunks over
/// the ambient thread pool. Chunks are disjoint and every element is a pure
/// function of the operands, so any thread count produces the serial
/// sweep's bits; reductions (`ColSumG`, `SumAllF`/`G`, …) stay serial.
const EW_CHUNK: usize = 16 * 1024;

/// [`apply`], chunked over [`legw_parallel::current`] when the sweep is
/// large enough to amortize the fan-out.
fn par_apply(dst: &mut [f32], mode: Mode, f: impl Fn(usize) -> f32 + Sync) {
    if dst.len() <= EW_CHUNK {
        return apply(dst, mode, f);
    }
    let pool = legw_parallel::current();
    if pool.threads() == 1 {
        return apply(dst, mode, f);
    }
    legw_parallel::par_chunks_mut(&pool, dst, EW_CHUNK, |start, chunk| {
        apply(chunk, mode, |off| f(start + off))
    });
}

/// `dst[i] = f(src[i])` through a runtime-dispatched activation sweep,
/// chunked like [`par_apply`]. The map is pure per-element, so any
/// chunking produces the serial sweep's bits; the kernel choice is read
/// once on the issuing thread.
fn par_sweep_map(dst: &mut [f32], src: &[f32], sweep: fn(Kernel, &mut [f32])) {
    let kern = kernels::selected();
    dst.copy_from_slice(src);
    if dst.len() <= EW_CHUNK {
        return sweep(kern, dst);
    }
    let pool = legw_parallel::current();
    if pool.threads() == 1 {
        return sweep(kern, dst);
    }
    legw_parallel::par_chunks_mut(&pool, dst, EW_CHUNK, |_, chunk| sweep(kern, chunk));
}

/// Short display name of an instruction's kind — powers [`Plan::describe`].
fn kind_name(ins: &Instr) -> &'static str {
    match ins {
        Instr::Ew { kind: EwKind::Add, .. } => "EwAdd",
        Instr::Ew { kind: EwKind::Sub, .. } => "EwSub",
        Instr::Ew { kind: EwKind::Mul, .. } => "EwMul",
        Instr::Unary { kind: UnKind::Sigmoid, .. } => "Sigmoid",
        Instr::Unary { kind: UnKind::Tanh, .. } => "Tanh",
        Instr::Unary { kind: UnKind::Relu, .. } => "Relu",
        Instr::Unary { kind: UnKind::Scale(_), .. } => "Scale",
        Instr::Unary { kind: UnKind::AddScalar(_), .. } => "AddScalar",
        Instr::AddBias { .. } => "AddBias",
        Instr::RowScale { .. } => "RowScale",
        Instr::Gemm { .. } => "Gemm",
        Instr::GemmAcc { .. } => "GemmAcc",
        Instr::ConcatColsF { .. } => "ConcatColsF",
        Instr::SliceColsF { .. } => "SliceColsF",
        Instr::CopyBlock { .. } => "CopyBlock",
        Instr::SumAllF { .. } => "SumAllF",
        Instr::DropoutF { .. } => "DropoutF",
        Instr::EmbedF { .. } => "EmbedF",
        Instr::SoftmaxF { .. } => "SoftmaxF",
        Instr::CeF { .. } => "CeF",
        Instr::ConvF { .. } => "ConvF",
        Instr::MaxPoolF { .. } => "MaxPoolF",
        Instr::GapF { .. } => "GapF",
        Instr::BnF { .. } => "BnF",
        Instr::LstmF { .. } => "LstmF",
        Instr::PreactSeqF { .. } => "PreactSeqF",
        Instr::RecurStepF { .. } => "RecurStepF",
        Instr::ScaleG { .. } => "ScaleG",
        Instr::MulG { .. } => "MulG",
        Instr::DropoutG { .. } => "DropoutG",
        Instr::SigmoidG { .. } => "SigmoidG",
        Instr::TanhG { .. } => "TanhG",
        Instr::ReluG { .. } => "ReluG",
        Instr::ColSumG { .. } => "ColSumG",
        Instr::RowScaleDx { .. } => "RowScaleDx",
        Instr::RowScaleDs { .. } => "RowScaleDs",
        Instr::ColsBlockG { .. } => "ColsBlockG",
        Instr::ColsScatterG { .. } => "ColsScatterG",
        Instr::BlockG { .. } => "BlockG",
        Instr::SumAllG { .. } => "SumAllG",
        Instr::EmbedG { .. } => "EmbedG",
        Instr::SoftmaxG { .. } => "SoftmaxG",
        Instr::CeG { .. } => "CeG",
        Instr::ConvG { .. } => "ConvG",
        Instr::MaxPoolG { .. } => "MaxPoolG",
        Instr::GapG { .. } => "GapG",
        Instr::BnG { .. } => "BnG",
        Instr::LstmG { .. } => "LstmG",
        Instr::RecurSeqG { .. } => "RecurSeqG",
    }
}

/// Executes one instruction against the store: take the destination, read
/// the operands, call the op's body — a one-operation closure under
/// [`par_apply`], or the kernel in [`crate::opk`] / `legw_tensor` that the
/// tape op calls too — and put the destination back. GEMMs run on the
/// ambient thread pool, the same engine the tape's `matmul` family uses.
fn exec(ins: &Instr, st: &mut Store, inputs: &[&Tensor], params: &[&Tensor]) {
    match ins {
        // ------------------------------------------------------------ forward
        Instr::Ew { kind, a, b, dst, n } => st.write(*dst, |o, st| {
            let (av, bv) = (st.read(*a, inputs, params), st.read(*b, inputs, params));
            debug_assert_eq!(o.len(), *n);
            match kind {
                EwKind::Add => par_apply(o, Mode::Store, |i| av[i] + bv[i]),
                EwKind::Sub => par_apply(o, Mode::Store, |i| av[i] - bv[i]),
                EwKind::Mul => par_apply(o, Mode::Store, |i| av[i] * bv[i]),
            }
        }),
        Instr::Unary { kind, a, dst, n } => st.write(*dst, |o, st| {
            let av = st.read(*a, inputs, params);
            debug_assert_eq!(o.len(), *n);
            match kind {
                UnKind::Sigmoid => par_sweep_map(o, av, kernels::sigmoid_sweep),
                UnKind::Tanh => par_sweep_map(o, av, kernels::tanh_sweep),
                UnKind::Relu => par_apply(o, Mode::Store, |i| av[i].max(0.0)),
                UnKind::Scale(c) => par_apply(o, Mode::Store, |i| av[i] * c),
                UnKind::AddScalar(c) => par_apply(o, Mode::Store, |i| av[i] + c),
            }
        }),
        Instr::AddBias { x, bias, dst, rows, cols } => st.write(*dst, |o, st| {
            let (xv, bv) = (st.read(*x, inputs, params), st.read(*bias, inputs, params));
            debug_assert_eq!(o.len(), rows * cols);
            par_apply(o, Mode::Store, |i| xv[i] + bv[i % cols]);
        }),
        Instr::RowScale { x, s, dst, rows, cols } => st.write(*dst, |o, st| {
            let (xv, sv) = (st.read(*x, inputs, params), st.read(*s, inputs, params));
            debug_assert_eq!(o.len(), rows * cols);
            par_apply(o, Mode::Store, |i| xv[i] * sv[i / cols]);
        }),
        Instr::Gemm { ta, tb, a, b, m, k, n, dst, mode } => {
            st.refresh(*b, params);
            st.write_scr(*dst, |o, scr, st| {
                let av = st.read(*a, inputs, params);
                opk::store_or_add(o, *mode, scr, |out| {
                    st.gemm(*ta, *tb, av, *b, [*m, *k, *n], out, false, inputs, params)
                });
            });
        }
        Instr::GemmAcc { ta, tb, a, b, m, k, n, dst } => {
            st.refresh(*b, params);
            st.write(*dst, |o, st| {
                let av = st.read(*a, inputs, params);
                // Single k-block: the engine adds the identical micro-tile
                // product with exactly one `+=` per element — no scratch.
                debug_assert!(legw_tensor::gemm_single_k_block(*k));
                st.gemm(*ta, *tb, av, *b, [*m, *k, *n], o, true, inputs, params);
            });
        }
        Instr::ConcatColsF { parts, dst, rows, total } => st.write(*dst, |o, st| {
            let mut off = 0usize;
            for (loc, w) in parts {
                concat_cols_into(st.read(*loc, inputs, params), *rows, *w, o, *total, off);
                off += w;
            }
        }),
        Instr::SliceColsF { x, dst, rows, cols, start, end } => st.write(*dst, |o, st| {
            slice_cols_into(st.read(*x, inputs, params), *rows, *cols, *start, *end, o);
        }),
        Instr::CopyBlock { src, src_off, dst, dst_off, len } => st.write(*dst, |o, st| {
            let sv = st.read(*src, inputs, params);
            o[*dst_off..*dst_off + *len].copy_from_slice(&sv[*src_off..*src_off + *len]);
        }),
        Instr::SumAllF { x, dst, n, mean } => st.write(*dst, |o, st| {
            let xv = st.read(*x, inputs, params);
            debug_assert_eq!(xv.len(), *n);
            o[0] = opk::sum_all(xv, *mean);
        }),
        Instr::DropoutF { x, mask, dst, n } => st.write(*dst, |o, st| {
            let xv = st.read(*x, inputs, params);
            let mv = st.masks[*mask as usize].as_slice();
            debug_assert_eq!(o.len(), *n);
            par_apply(o, Mode::Store, |i| xv[i] * mv[i]);
        }),
        Instr::EmbedF { table, feed, dst, vocab, dim, count } => st.write(*dst, |o, st| {
            let tv = st.read(*table, inputs, params);
            let ids = &st.ids[*feed as usize];
            debug_assert!(ids.len() == *count && tv.len() == vocab * dim);
            opk::embed_fwd(tv, ids, *dim, o);
        }),
        Instr::SoftmaxF { x, dst, m, n } => st.write(*dst, |o, st| {
            softmax_rows_into(st.read(*x, inputs, params), *m, *n, o);
        }),
        Instr::CeF { logits, probs, labels, rt, dst, b, v } => {
            let mut pv = st.take_state(*probs);
            let mut active = 0usize;
            st.write(*dst, |o, st| {
                let lab = &st.labels[*labels as usize];
                debug_assert_eq!(lab.len(), *b);
                (o[0], active) = opk::ce_fwd(st.read(*logits, inputs, params), lab, *v, &mut pv);
            });
            st.put_state(*probs, pv);
            st.ce_active[*rt as usize] = active;
        }
        Instr::ConvF { x, w, cols, out2, dst, geom, batch, oc } => {
            st.refresh(*w, params);
            let mut colv = st.take_state(*cols);
            let mut o2 = st.take_state(*out2);
            st.write(*dst, |o, st| {
                im2col_into(st.read(*x, inputs, params), *batch, geom, &mut colv);
                let (oh, ow) = (geom.oh(), geom.ow());
                let dims = [*batch * oh * ow, geom.c * geom.kh * geom.kw, *oc];
                st.gemm(false, true, &colv, *w, dims, &mut o2, false, inputs, params);
                opk::to_nchw(&o2, *batch, *oc, oh, ow, o);
            });
            st.put_state(*out2, o2);
            st.put_state(*cols, colv);
        }
        Instr::MaxPoolF { x, dst, am, nc, h, w } => {
            let mut amv = std::mem::take(&mut st.argmax[*am as usize]);
            st.write(*dst, |o, st| {
                opk::max_pool_fwd(st.read(*x, inputs, params), *nc, *h, *w, o, &mut amv);
            });
            st.argmax[*am as usize] = amv;
        }
        Instr::GapF { x, dst, nc, hw } => st.write(*dst, |o, st| {
            debug_assert_eq!(o.len(), *nc);
            opk::gap_fwd(st.read(*x, inputs, params), *hw, o);
        }),
        Instr::BnF { x, gamma, beta, xhat, rt, dst, n, c, hw, eps } => {
            let mut xh = st.take_state(*xhat);
            let mut r = std::mem::take(&mut st.bn[*rt as usize]);
            st.write(*dst, |o, st| {
                let src = st.read(*x, inputs, params);
                let gm = st.read(*gamma, inputs, params);
                let bt = st.read(*beta, inputs, params);
                let dims = [*n, *c, *hw];
                opk::bn_stats(src, dims, &mut r.mean, &mut r.var);
                opk::bn_fwd(src, dims, (&r.mean, &r.var), *eps, gm, bt, &mut r.inv_std, &mut xh, o);
                apply(&mut r.mean_f32, Mode::Store, |ci| r.mean[ci] as f32);
                apply(&mut r.var_f32, Mode::Store, |ci| r.var[ci] as f32);
            });
            st.bn[*rt as usize] = r;
            st.put_state(*xhat, xh);
        }
        Instr::LstmF { preact, c_prev, gates, tanh_c, c_dst, h_dst, b, hid } => {
            let mut gv = st.take_state(*gates);
            let mut tv = st.take_state(*tanh_c);
            let mut cb = st.take(*c_dst);
            let mut hb = st.take(*h_dst);
            {
                let pv = st.read(*preact, inputs, params);
                let cp = st.read(*c_prev, inputs, params);
                lstm_cell_forward_into(pv, cp, *b, *hid, &mut gv, cb.s(), &mut tv, hb.s());
            }
            st.put(*h_dst, hb);
            st.put(*c_dst, cb);
            st.put_state(*tanh_c, tv);
            st.put_state(*gates, gv);
        }
        Instr::PreactSeqF { x, w, bias, dst, rows, k, n4 } => {
            st.refresh(*w, params);
            st.write(*dst, |o, st| {
                let xv = st.read(*x, inputs, params);
                repeat_rows_into(st.read(*bias, inputs, params), *rows, o);
                st.gemm(false, false, xv, *w, [*rows, *k, *n4], o, true, inputs, params);
            });
        }
        Instr::RecurStepF { seq, h, w_h, dst, t, batch, hid, n4 } => {
            st.refresh(*w_h, params);
            st.write(*dst, |o, st| {
                let sv = st.read(*seq, inputs, params);
                let hv = st.read(*h, inputs, params);
                o.copy_from_slice(&sv[*t * *batch * *n4..(*t + 1) * *batch * *n4]);
                st.gemm(false, false, hv, *w_h, [*batch, *hid, *n4], o, true, inputs, params);
            });
        }

        // ----------------------------------------------------------- backward
        Instr::ScaleG { up, dst, mode, n, c } => st.write(*dst, |o, st| {
            let us = st.read(*up, inputs, params);
            debug_assert_eq!(us.len(), *n);
            par_apply(o, *mode, |i| us[i] * c);
        }),
        Instr::MulG { up, other, dst, mode, n } => st.write(*dst, |o, st| {
            let (us, ov) = (st.read(*up, inputs, params), st.read(*other, inputs, params));
            debug_assert_eq!(us.len(), *n);
            par_apply(o, *mode, |i| us[i] * ov[i]);
        }),
        Instr::DropoutG { up, mask, dst, mode, n } => st.write(*dst, |o, st| {
            let us = st.read(*up, inputs, params);
            let mv = st.masks[*mask as usize].as_slice();
            debug_assert_eq!(us.len(), *n);
            par_apply(o, *mode, |i| us[i] * mv[i]);
        }),
        Instr::SigmoidG { up, y, dst, mode, n } => st.write(*dst, |o, st| {
            let (us, yv) = (st.read(*up, inputs, params), st.read(*y, inputs, params));
            debug_assert_eq!(us.len(), *n);
            par_apply(o, *mode, |i| (yv[i] * (1.0 - yv[i])) * us[i]);
        }),
        Instr::TanhG { up, y, dst, mode, n } => st.write(*dst, |o, st| {
            let (us, yv) = (st.read(*up, inputs, params), st.read(*y, inputs, params));
            debug_assert_eq!(us.len(), *n);
            par_apply(o, *mode, |i| (1.0 - yv[i] * yv[i]) * us[i]);
        }),
        Instr::ReluG { up, x, dst, mode, n } => st.write(*dst, |o, st| {
            let (us, xv) = (st.read(*up, inputs, params), st.read(*x, inputs, params));
            debug_assert_eq!(us.len(), *n);
            par_apply(o, *mode, |i| (if xv[i] > 0.0 { 1.0 } else { 0.0 }) * us[i]);
        }),
        Instr::ColSumG { up, dst, mode, rows, cols } => {
            let mut acc = std::mem::take(&mut st.colsum);
            st.write(*dst, |o, st| {
                let acc = &mut acc[..*cols];
                col_sums_into(st.read(*up, inputs, params), *rows, *cols, acc);
                apply(o, *mode, |j| acc[j] as f32);
            });
            st.colsum = acc;
        }
        Instr::RowScaleDx { up, s, dst, mode, rows, cols } => st.write(*dst, |o, st| {
            let (us, sv) = (st.read(*up, inputs, params), st.read(*s, inputs, params));
            debug_assert_eq!(us.len(), *rows * *cols);
            apply(o, *mode, |i| us[i] * sv[i / *cols]);
        }),
        Instr::RowScaleDs { up, x, dst, mode, rows, cols } => st.write(*dst, |o, st| {
            let (us, xv) = (st.read(*up, inputs, params), st.read(*x, inputs, params));
            debug_assert_eq!(o.len(), *rows);
            opk::row_scale_ds(o, *mode, us, xv, *cols);
        }),
        Instr::ColsBlockG { up, dst, mode, rows, up_cols, off, width } => {
            st.write(*dst, |o, st| {
                let us = st.read(*up, inputs, params);
                debug_assert_eq!(o.len(), *rows * *width);
                apply(o, *mode, |i| us[(i / *width) * *up_cols + *off + i % *width]);
            })
        }
        Instr::ColsScatterG { up, dst, mode, rows, dst_cols, start, end } => {
            st.write(*dst, |o, st| {
                debug_assert_eq!(o.len(), *rows * *dst_cols);
                opk::cols_scatter(o, *mode, st.read(*up, inputs, params), *dst_cols, *start, *end);
            })
        }
        Instr::BlockG { up, up_off, dst, dst_off, len, dst_len, zero_rest, mode } => {
            st.write(*dst, |o, st| {
                let us = st.read(*up, inputs, params);
                debug_assert_eq!(o.len(), *dst_len);
                opk::block(o, *mode, &us[*up_off..*up_off + *len], *dst_off, *zero_rest);
            })
        }
        Instr::SumAllG { up, dst, mode, n, mean } => st.write(*dst, |o, st| {
            let us = st.read(*up, inputs, params);
            let g = if *mean { us[0] / *n as f32 } else { us[0] };
            apply(o, *mode, |_| g);
        }),
        Instr::EmbedG { up, feed, dst, mode, vocab, dim, count } => {
            st.write_scr(*dst, |o, scr, st| {
                let ids = &st.ids[*feed as usize];
                debug_assert!(ids.len() == *count && o.len() == vocab * dim);
                opk::embed_bwd(o, *mode, scr, st.read(*up, inputs, params), ids, *dim);
            })
        }
        Instr::SoftmaxG { up, y, dst, mode, m, n } => st.write(*dst, |o, st| {
            let (us, yv) = (st.read(*up, inputs, params), st.read(*y, inputs, params));
            debug_assert_eq!(o.len(), m * n);
            opk::softmax_bwd(o, *mode, us, yv, *n);
        }),
        Instr::CeG { up, probs, labels, rt, dst, mode, b, v } => st.write(*dst, |o, st| {
            let lab = &st.labels[*labels as usize];
            debug_assert_eq!(lab.len(), *b);
            let (seed, active) = (st.read(*up, inputs, params)[0], st.ce_active[*rt as usize]);
            opk::ce_bwd(o, *mode, seed, &st.states[*probs as usize], lab, active, *v);
        }),
        Instr::ConvG { up, w, cols, out2, dw, dx, geom, batch, oc } => {
            let (oh, ow) = (geom.oh(), geom.ow());
            let rows = *batch * oh * ow;
            let ckk = geom.c * geom.kh * geom.kw;
            // up2 = from_nchw(up), reusing the forward's out2 buffer
            let mut o2 = st.take_state(*out2);
            opk::from_nchw(st.read(*up, inputs, params), *batch, *oc, oh, ow, &mut o2);
            st.put_state(*out2, o2);
            if let Some((d, mode)) = dw {
                // dW = up2ᵀ · cols → [OC, CKK]
                st.write_scr(*d, |o, scr, st| {
                    let (up2, colv) = (&st.states[*out2 as usize], &st.states[*cols as usize]);
                    opk::store_or_add(o, *mode, scr, |out| {
                        gemm_into(true, false, up2, colv, *oc, rows, ckk, out, false)
                    });
                });
            }
            if let Some((d, mode)) = dx {
                // dcols = up2 · W, overwriting the cols buffer (dW above was
                // its last reader), then fold back to the input image
                st.refresh(*w, params);
                let mut colv = st.take_state(*cols);
                let up2 = &st.states[*out2 as usize];
                st.gemm(false, false, up2, *w, [rows, *oc, ckk], &mut colv, false, inputs, params);
                st.write_scr(*d, |o, scr, _| {
                    opk::store_or_add(o, *mode, scr, |out| col2im_into(&colv, *batch, geom, out));
                });
                st.put_state(*cols, colv);
            }
        }
        Instr::MaxPoolG { up, dst, mode, am, x_len, out_len } => {
            st.write_scr(*dst, |o, scr, st| {
                let us = st.read(*up, inputs, params);
                debug_assert!(o.len() == *x_len && us.len() == *out_len);
                opk::max_pool_bwd(o, *mode, scr, us, &st.argmax[*am as usize]);
            })
        }
        Instr::GapG { up, dst, mode, nc, hw } => st.write(*dst, |o, st| {
            let us = st.read(*up, inputs, params);
            debug_assert_eq!(us.len(), *nc);
            opk::gap_bwd(o, *mode, us, *hw);
        }),
        Instr::BnG { up, gamma, xhat, rt, dg, dbt, dx, n, c, hw } => {
            let mut r = std::mem::take(&mut st.bn[*rt as usize]);
            {
                let us = st.read(*up, inputs, params);
                let xh = &st.states[*xhat as usize];
                opk::bn_bwd_sums(us, xh, *c, *hw, &mut r.sum_up, &mut r.sum_up_xh);
            }
            for (d, sums) in [(dg, &r.sum_up_xh), (dbt, &r.sum_up)] {
                if let Some((d, mode)) = d {
                    st.write(*d, |o, _| apply(o, *mode, |ci| sums[ci] as f32));
                }
            }
            if let Some((d, mode)) = dx {
                st.write(*d, |o, st| {
                    let us = st.read(*up, inputs, params);
                    let gm = st.read(*gamma, inputs, params);
                    let xh = &st.states[*xhat as usize];
                    let sums = (&r.sum_up[..], &r.sum_up_xh[..]);
                    opk::bn_bwd_dx(o, *mode, us, xh, [*n, *c, *hw], gm, &r.inv_std, sums);
                });
            }
            st.bn[*rt as usize] = r;
        }
        Instr::LstmG { gates, tanh_c, c_prev, dh, dc, dpre, dcp, b, hid } => {
            // Runs the fused backward into `dpre_s` / `dcp_s`.
            let run = |st: &Store, dpre_s: &mut [f32], dcp_s: &mut [f32]| {
                let gv = &st.states[*gates as usize];
                let tv = &st.states[*tanh_c as usize];
                let cp = st.read(*c_prev, inputs, params);
                let dh_s = (*dh).map(|l| st.read(l, inputs, params));
                let dc_s = (*dc).map(|l| st.read(l, inputs, params));
                lstm_cell_backward_into(gv, tv, cp, dh_s, dc_s, *b, *hid, dpre_s, dcp_s);
            };
            // preact first, then c_prev — the tape's accumulate order
            if lstm_g_in_place(*dpre, *dcp) {
                // Both destinations are born at this schedule position, and
                // the slot allocator assigns births before deaths, so neither
                // shares a physical slot with the other or with an operand
                // still live here: write them in place, no scratch bounce.
                let mut b0 = st.take(dpre.0);
                let mut b1 = st.take(dcp.0);
                run(st, b0.s(), b1.s());
                st.put(dpre.0, b0);
                st.put(dcp.0, b1);
            } else {
                let mut scr = std::mem::take(&mut st.scratch);
                let (spre, rest) = scr.split_at_mut(*b * 4 * *hid);
                let scp = &mut rest[..*b * *hid];
                run(st, spre, scp);
                let (spre, scp) = (&*spre, &*scp);
                st.write(dpre.0, |o, _| apply(o, dpre.1, |i| spre[i]));
                st.write(dcp.0, |o, _| apply(o, dcp.1, |i| scp[i]));
                st.scratch = scr;
            }
        }
        Instr::RecurSeqG { up, dst, zero_first, t, batch, cols, dst_len } => {
            st.write(*dst, |o, st| {
                debug_assert_eq!(o.len(), *dst_len);
                if *zero_first {
                    o.fill(0.0);
                }
                opk::block(o, Mode::Add, st.read(*up, inputs, params), *t * *batch * *cols, false);
            })
        }
    }
}

// ---------------------------------------------------------------- capture

/// First contribution to a gradient destination stores, later ones add —
/// the static image of `Graph::accumulate`'s `None`/`Some` branch.
fn contribute(j: usize, contrib: &mut [usize], present: &mut [bool]) -> Mode {
    present[j] = true;
    let m = if contrib[j] == 0 { Mode::Store } else { Mode::Add };
    contrib[j] += 1;
    m
}

/// A gradient GEMM `dst (+)= op(a) · op(b)` over `[m, k, n]`. An add-mode
/// product whose inner dimension is a single k-block accumulates in-engine
/// ([`Instr::GemmAcc`]); a longer one keeps `Gemm { mode: Add }`'s scratch
/// detour, because accumulating across k-blocks would reassociate the
/// partial sums.
fn grad_gemm(
    ta: bool,
    tb: bool,
    a: Loc,
    b: Rhs,
    [m, k, n]: [usize; 3],
    dst: Dst,
    mode: Mode,
) -> Instr {
    if mode == Mode::Add && legw_tensor::gemm_single_k_block(k) {
        Instr::GemmAcc { ta, tb, a, b, m, k, n, dst }
    } else {
        Instr::Gemm { ta, tb, a, b, m, k, n, dst, mode }
    }
}

/// Whether an `LstmG` writes its two destinations in place: both must be
/// plain stores, since the kernel overwrites rather than accumulates.
fn lstm_g_in_place(dpre: (Dst, Mode), dcp: (Dst, Mode)) -> bool {
    dpre.1 == Mode::Store && dcp.1 == Mode::Store
}

/// f32 scratch elements an instruction needs at replay. The capture sizes
/// the shared scratch buffer to the max over the schedule; the executor only
/// ever slices that buffer, so a wrong value here would panic rather than
/// reallocate.
fn scratch_req(ins: &Instr) -> usize {
    match ins {
        Instr::Gemm { m, n, mode: Mode::Add, .. } => m * n,
        Instr::EmbedG { mode: Mode::Add, vocab, dim, .. } => vocab * dim,
        Instr::ConvG { dw, dx, geom, batch, oc, .. } => {
            let ckk = geom.c * geom.kh * geom.kw;
            let dw_need = matches!(dw, Some((_, Mode::Add))).then_some(oc * ckk).unwrap_or(0);
            let dx_need = matches!(dx, Some((_, Mode::Add)))
                .then_some(batch * geom.c * geom.h * geom.w)
                .unwrap_or(0);
            dw_need.max(dx_need)
        }
        Instr::MaxPoolG { mode: Mode::Add, x_len, .. } => *x_len,
        Instr::LstmG { dpre, dcp, b, hid, .. } if !lstm_g_in_place(*dpre, *dcp) => b * 5 * hid,
        _ => 0,
    }
}

fn vl(loc: &mut Loc, f: &mut dyn FnMut(&mut u32)) {
    if let Loc::Slot(v) = loc {
        f(v)
    }
}

/// A panel reads the caller's parameter, not the arena.
fn vr(rhs: &mut Rhs, f: &mut dyn FnMut(&mut u32)) {
    if let Rhs::Loc(l) = rhs {
        vl(l, f)
    }
}

fn vd(dst: &mut Dst, f: &mut dyn FnMut(&mut u32)) {
    if let Dst::Slot(v) = dst {
        f(v)
    }
}

/// Applies `f` to every arena-slot id an instruction touches (reads and
/// writes alike) — the one traversal behind both the liveness scan and the
/// virtual→physical rewrite.
fn visit_slots(ins: &mut Instr, f: &mut dyn FnMut(&mut u32)) {
    match ins {
        Instr::Ew { a, b, dst, .. } => {
            vl(a, f);
            vl(b, f);
            vd(dst, f);
        }
        Instr::Unary { a, dst, .. } => {
            vl(a, f);
            vd(dst, f);
        }
        Instr::AddBias { x, bias, dst, .. } => {
            vl(x, f);
            vl(bias, f);
            vd(dst, f);
        }
        Instr::RowScale { x, s, dst, .. } => {
            vl(x, f);
            vl(s, f);
            vd(dst, f);
        }
        Instr::Gemm { a, b, dst, .. } | Instr::GemmAcc { a, b, dst, .. } => {
            vl(a, f);
            vr(b, f);
            vd(dst, f);
        }
        Instr::ConcatColsF { parts, dst, .. } => {
            for (p, _) in parts.iter_mut() {
                vl(p, f);
            }
            vd(dst, f);
        }
        Instr::SliceColsF { x, dst, .. } => {
            vl(x, f);
            vd(dst, f);
        }
        Instr::CopyBlock { src, dst, .. } => {
            vl(src, f);
            vd(dst, f);
        }
        Instr::SumAllF { x, dst, .. } => {
            vl(x, f);
            vd(dst, f);
        }
        Instr::DropoutF { x, dst, .. } => {
            vl(x, f);
            vd(dst, f);
        }
        Instr::EmbedF { table, dst, .. } => {
            vl(table, f);
            vd(dst, f);
        }
        Instr::SoftmaxF { x, dst, .. } => {
            vl(x, f);
            vd(dst, f);
        }
        Instr::CeF { logits, dst, .. } => {
            vl(logits, f);
            vd(dst, f);
        }
        Instr::ConvF { x, w, dst, .. } => {
            vl(x, f);
            vr(w, f);
            vd(dst, f);
        }
        Instr::MaxPoolF { x, dst, .. } => {
            vl(x, f);
            vd(dst, f);
        }
        Instr::GapF { x, dst, .. } => {
            vl(x, f);
            vd(dst, f);
        }
        Instr::BnF { x, gamma, beta, dst, .. } => {
            vl(x, f);
            vl(gamma, f);
            vl(beta, f);
            vd(dst, f);
        }
        Instr::LstmF { preact, c_prev, c_dst, h_dst, .. } => {
            vl(preact, f);
            vl(c_prev, f);
            vd(c_dst, f);
            vd(h_dst, f);
        }
        Instr::PreactSeqF { x, w, bias, dst, .. } => {
            vl(x, f);
            vr(w, f);
            vl(bias, f);
            vd(dst, f);
        }
        Instr::RecurStepF { seq, h, w_h, dst, .. } => {
            vl(seq, f);
            vl(h, f);
            vr(w_h, f);
            vd(dst, f);
        }
        Instr::ScaleG { up, dst, .. }
        | Instr::DropoutG { up, dst, .. }
        | Instr::ColSumG { up, dst, .. }
        | Instr::ColsBlockG { up, dst, .. }
        | Instr::ColsScatterG { up, dst, .. }
        | Instr::BlockG { up, dst, .. }
        | Instr::SumAllG { up, dst, .. }
        | Instr::EmbedG { up, dst, .. }
        | Instr::CeG { up, dst, .. }
        | Instr::MaxPoolG { up, dst, .. }
        | Instr::GapG { up, dst, .. }
        | Instr::RecurSeqG { up, dst, .. } => {
            vl(up, f);
            vd(dst, f);
        }
        Instr::MulG { up, other, dst, .. } => {
            vl(up, f);
            vl(other, f);
            vd(dst, f);
        }
        Instr::SigmoidG { up, y, dst, .. } | Instr::TanhG { up, y, dst, .. } => {
            vl(up, f);
            vl(y, f);
            vd(dst, f);
        }
        Instr::ReluG { up, x, dst, .. } => {
            vl(up, f);
            vl(x, f);
            vd(dst, f);
        }
        Instr::RowScaleDx { up, s, dst, .. } => {
            vl(up, f);
            vl(s, f);
            vd(dst, f);
        }
        Instr::RowScaleDs { up, x, dst, .. } => {
            vl(up, f);
            vl(x, f);
            vd(dst, f);
        }
        Instr::SoftmaxG { up, y, dst, .. } => {
            vl(up, f);
            vl(y, f);
            vd(dst, f);
        }
        Instr::ConvG { up, w, dw, dx, .. } => {
            vl(up, f);
            vr(w, f);
            if let Some((d, _)) = dw {
                vd(d, f);
            }
            if let Some((d, _)) = dx {
                vd(d, f);
            }
        }
        Instr::BnG { up, gamma, dg, dbt, dx, .. } => {
            vl(up, f);
            vl(gamma, f);
            for (d, _) in [dg, dbt, dx].into_iter().flatten() {
                vd(d, f);
            }
        }
        Instr::LstmG { c_prev, dh, dc, dpre, dcp, .. } => {
            vl(c_prev, f);
            if let Some(l) = dh {
                vl(l, f);
            }
            if let Some(l) = dc {
                vl(l, f);
            }
            vd(&mut dpre.0, f);
            vd(&mut dcp.0, f);
        }
    }
}

struct Capturer;

impl Capturer {
    fn run(g: &Graph, spec: &CaptureSpec, forward_only: bool) -> Option<Plan> {
        let n = g.nodes.len();
        if n == 0 {
            return None;
        }
        let shape = |i: usize| g.nodes[i].value.shape();
        let numel = |i: usize| g.nodes[i].value.numel();
        let rg = |v: Var| g.nodes[v.0].requires_grad;

        // ---- classify every leaf as input / param / captured constant
        let mut val_loc: Vec<Option<Loc>> = vec![None; n];
        for (k, &v) in spec.params.iter().enumerate() {
            let node = &g.nodes[v.0];
            if !matches!(node.op, Op::Leaf) || !node.requires_grad || val_loc[v.0].is_some() {
                return None;
            }
            val_loc[v.0] = Some(Loc::Par(k as u32));
        }
        for (k, &v) in spec.inputs.iter().enumerate() {
            let node = &g.nodes[v.0];
            if !matches!(node.op, Op::Leaf) || node.requires_grad || val_loc[v.0].is_some() {
                return None;
            }
            val_loc[v.0] = Some(Loc::In(k as u32));
        }
        let mut consts: Vec<Tensor> = Vec::new();
        for (i, node) in g.nodes.iter().enumerate() {
            if matches!(node.op, Op::Leaf) && val_loc[i].is_none() {
                if node.requires_grad {
                    return None; // its leaf_grads entry could not be served
                }
                val_loc[i] = Some(Loc::Const(consts.len() as u32));
                consts.push(node.value.clone());
            }
        }

        // ---- outputs get plan-owned tensors; the loss is a hidden output
        let mut outs: Vec<Tensor> = Vec::new();
        let mut out_of_node: HashMap<usize, u32> = HashMap::new();
        let mut out_of_k: Vec<u32> = Vec::with_capacity(spec.outputs.len());
        for &v in spec.outputs {
            if matches!(g.nodes[v.0].op, Op::Leaf) || out_of_node.contains_key(&v.0) {
                return None; // leaves aren't scheduled; duplicates would race
            }
            let k = outs.len() as u32;
            out_of_node.insert(v.0, k);
            outs.push(g.nodes[v.0].value.zeros_like());
            out_of_k.push(k);
        }
        let mut loss_out: Option<u32> = None;
        if let Some(l) = spec.loss {
            let node = &g.nodes[l.0];
            if node.value.numel() != 1 || !node.requires_grad || matches!(node.op, Op::Leaf) {
                return None;
            }
            loss_out = Some(*out_of_node.entry(l.0).or_insert_with(|| {
                outs.push(node.value.zeros_like());
                (outs.len() - 1) as u32
            }));
        }
        for (i, slot) in val_loc.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = Some(match out_of_node.get(&i) {
                    Some(&k) => Loc::Out(k),
                    None => Loc::Slot(i as u32),
                });
            }
        }
        let val_loc: Vec<Loc> = val_loc.into_iter().map(|o| o.unwrap()).collect();
        let vdst = |i: usize| -> Dst {
            match val_loc[i] {
                Loc::Out(k) => Dst::Out(k),
                Loc::Slot(s) => Dst::Slot(s),
                _ => unreachable!("forward destination must be a slot or output"),
            }
        };
        // Virtual gradient ids: node i's gradient is slot N+i (param leaves
        // go straight to their persistent gradient tensors instead).
        let gdst = |i: usize| -> Dst {
            match val_loc[i] {
                Loc::Par(k) => Dst::ParGrad(k),
                _ => Dst::Slot((n + i) as u32),
            }
        };
        let gloc = |i: usize| -> Loc { Loc::Slot((n + i) as u32) };

        // ---- weight views: nodes whose value is a contiguous block
        // `(param, offset, len)` of a caller parameter — the parameter leaf,
        // or a chain of row-slices / reshapes of it. A GEMM reading one as
        // its B operand packs straight from the parameter into a plan-owned
        // panel, keyed by (tape node, transpose form): by what the operand
        // *is*, never by where its bytes happen to sit at replay (two
        // same-shaped slices may share one physical arena slot).
        let mut view: Vec<Option<(u32, usize, usize)>> = vec![None; n];
        for i in 0..n {
            view[i] = match &g.nodes[i].op {
                Op::Leaf => match val_loc[i] {
                    Loc::Par(k) => Some((k, 0, numel(i))),
                    _ => None,
                },
                Op::Reshape(x) => view[x.0],
                Op::SliceRows(x, start, end) => {
                    let cols = shape(x.0)[1];
                    view[x.0].map(|(k, off, _)| (k, off + start * cols, (end - start) * cols))
                }
                _ => None,
            };
        }
        let mut panels: Vec<Panel> = Vec::new();
        let mut panel_of: HashMap<(usize, bool), u32> = HashMap::new();
        // The B operand `node` of a `[·, k] × [k, n]` GEMM (stored `[n, k]`
        // when `tb`): its panel when it is a weight view, its location
        // otherwise. Storage is reserved here, so replays allocate nothing.
        let mut rhs = |node: usize, tb: bool, k: usize, n: usize| -> Rhs {
            let Some((par, off, len)) = view[node] else {
                return Rhs::Loc(val_loc[node]);
            };
            debug_assert_eq!(len, k * n, "weight view does not match its GEMM");
            Rhs::Panel(*panel_of.entry((node, tb)).or_insert_with(|| {
                panels.push(Panel { par, off, len, tb, packed: PackedB::new(k, n), epoch: 0 });
                (panels.len() - 1) as u32
            }))
        };

        // ---- forward emission (node i's instructions sit at position i)
        let mut fwd: Vec<Instr> = Vec::new();
        let mut fpos: Vec<usize> = Vec::new();
        let mut state_sizes: Vec<usize> = Vec::new();
        let mut ids: Vec<Vec<usize>> = Vec::new();
        let mut labels: Vec<Vec<usize>> = Vec::new();
        let mut masks: Vec<Tensor> = Vec::new();
        let mut argmax_lens: Vec<usize> = Vec::new();
        let mut bn_cs: Vec<usize> = Vec::new();
        let mut aux: Vec<[u32; 4]> = vec![[0; 4]; n];
        // `i` is the node id: it indexes `g.nodes`, `val_loc` and `aux` alike.
        #[allow(clippy::needless_range_loop)]
        for i in 0..n {
            let before = fwd.len();
            match &g.nodes[i].op {
                Op::Leaf => {}
                Op::Add(a, b) => fwd.push(Instr::Ew {
                    kind: EwKind::Add,
                    a: val_loc[a.0],
                    b: val_loc[b.0],
                    dst: vdst(i),
                    n: numel(i),
                }),
                Op::Sub(a, b) => fwd.push(Instr::Ew {
                    kind: EwKind::Sub,
                    a: val_loc[a.0],
                    b: val_loc[b.0],
                    dst: vdst(i),
                    n: numel(i),
                }),
                Op::Mul(a, b) => fwd.push(Instr::Ew {
                    kind: EwKind::Mul,
                    a: val_loc[a.0],
                    b: val_loc[b.0],
                    dst: vdst(i),
                    n: numel(i),
                }),
                Op::AddBias(x, b) => fwd.push(Instr::AddBias {
                    x: val_loc[x.0],
                    bias: val_loc[b.0],
                    dst: vdst(i),
                    rows: shape(x.0)[0],
                    cols: shape(x.0)[1],
                }),
                Op::RowScale(x, s) => fwd.push(Instr::RowScale {
                    x: val_loc[x.0],
                    s: val_loc[s.0],
                    dst: vdst(i),
                    rows: shape(x.0)[0],
                    cols: shape(x.0)[1],
                }),
                Op::Matmul(a, b) => fwd.push(Instr::Gemm {
                    ta: false,
                    tb: false,
                    a: val_loc[a.0],
                    b: rhs(b.0, false, shape(a.0)[1], shape(b.0)[1]),
                    m: shape(a.0)[0],
                    k: shape(a.0)[1],
                    n: shape(b.0)[1],
                    dst: vdst(i),
                    mode: Mode::Store,
                }),
                Op::Scale(x, c) => fwd.push(Instr::Unary {
                    kind: UnKind::Scale(*c),
                    a: val_loc[x.0],
                    dst: vdst(i),
                    n: numel(i),
                }),
                Op::AddScalar(x, c) => fwd.push(Instr::Unary {
                    kind: UnKind::AddScalar(*c),
                    a: val_loc[x.0],
                    dst: vdst(i),
                    n: numel(i),
                }),
                Op::Sigmoid(x) => fwd.push(Instr::Unary {
                    kind: UnKind::Sigmoid,
                    a: val_loc[x.0],
                    dst: vdst(i),
                    n: numel(i),
                }),
                Op::Tanh(x) => fwd.push(Instr::Unary {
                    kind: UnKind::Tanh,
                    a: val_loc[x.0],
                    dst: vdst(i),
                    n: numel(i),
                }),
                Op::Relu(x) => fwd.push(Instr::Unary {
                    kind: UnKind::Relu,
                    a: val_loc[x.0],
                    dst: vdst(i),
                    n: numel(i),
                }),
                Op::Reshape(x) => fwd.push(Instr::CopyBlock {
                    src: val_loc[x.0],
                    src_off: 0,
                    dst: vdst(i),
                    dst_off: 0,
                    len: numel(i),
                }),
                Op::ConcatCols(parts, widths) => fwd.push(Instr::ConcatColsF {
                    parts: parts
                        .iter()
                        .zip(widths)
                        .map(|(p, &w)| (val_loc[p.0], w))
                        .collect(),
                    dst: vdst(i),
                    rows: shape(i)[0],
                    total: shape(i)[1],
                }),
                Op::SliceCols(x, start, end) => fwd.push(Instr::SliceColsF {
                    x: val_loc[x.0],
                    dst: vdst(i),
                    rows: shape(x.0)[0],
                    cols: shape(x.0)[1],
                    start: *start,
                    end: *end,
                }),
                Op::ConcatRows(parts, rcs) => {
                    let cols = shape(i)[1];
                    let mut off = 0usize;
                    for (p, &rc) in parts.iter().zip(rcs) {
                        fwd.push(Instr::CopyBlock {
                            src: val_loc[p.0],
                            src_off: 0,
                            dst: vdst(i),
                            dst_off: off * cols,
                            len: rc * cols,
                        });
                        off += rc;
                    }
                }
                Op::SliceRows(x, start, end) => {
                    let cols = shape(x.0)[1];
                    fwd.push(Instr::CopyBlock {
                        src: val_loc[x.0],
                        src_off: start * cols,
                        dst: vdst(i),
                        dst_off: 0,
                        len: (end - start) * cols,
                    });
                }
                Op::SumAll(x) => fwd.push(Instr::SumAllF {
                    x: val_loc[x.0],
                    dst: vdst(i),
                    n: numel(x.0),
                    mean: false,
                }),
                Op::MeanAll(x) => fwd.push(Instr::SumAllF {
                    x: val_loc[x.0],
                    dst: vdst(i),
                    n: numel(x.0),
                    mean: true,
                }),
                Op::Dropout(x, mask) => {
                    aux[i][0] = masks.len() as u32;
                    masks.push(mask.clone());
                    fwd.push(Instr::DropoutF {
                        x: val_loc[x.0],
                        mask: aux[i][0],
                        dst: vdst(i),
                        n: numel(i),
                    });
                }
                Op::Embedding { table, ids: idv } => {
                    aux[i][0] = ids.len() as u32;
                    ids.push(idv.clone());
                    fwd.push(Instr::EmbedF {
                        table: val_loc[table.0],
                        feed: aux[i][0],
                        dst: vdst(i),
                        vocab: shape(table.0)[0],
                        dim: shape(table.0)[1],
                        count: idv.len(),
                    });
                }
                Op::SoftmaxRows(x) => fwd.push(Instr::SoftmaxF {
                    x: val_loc[x.0],
                    dst: vdst(i),
                    m: shape(x.0)[0],
                    n: shape(x.0)[1],
                }),
                Op::SoftmaxCrossEntropy { logits, labels: lab, .. } => {
                    let (b, v) = (shape(logits.0)[0], shape(logits.0)[1]);
                    aux[i][0] = state_sizes.len() as u32;
                    state_sizes.push(b * v); // probs
                    aux[i][1] = labels.len() as u32;
                    labels.push(lab.clone());
                    aux[i][2] = aux[i][1]; // one active-count per CE op
                    fwd.push(Instr::CeF {
                        logits: val_loc[logits.0],
                        probs: aux[i][0],
                        labels: aux[i][1],
                        rt: aux[i][2],
                        dst: vdst(i),
                        b,
                        v,
                    });
                }
                Op::Conv2d { x, w, geom, batch, .. } => {
                    let rows = batch * geom.oh() * geom.ow();
                    let ckk = geom.c * geom.kh * geom.kw;
                    let oc = shape(w.0)[0];
                    aux[i][0] = state_sizes.len() as u32;
                    state_sizes.push(rows * ckk); // im2col columns
                    aux[i][1] = state_sizes.len() as u32;
                    state_sizes.push(rows * oc); // row-major conv output
                    fwd.push(Instr::ConvF {
                        x: val_loc[x.0],
                        w: rhs(w.0, true, ckk, oc),
                        cols: aux[i][0],
                        out2: aux[i][1],
                        dst: vdst(i),
                        geom: *geom,
                        batch: *batch,
                        oc,
                    });
                }
                Op::MaxPool2x2 { x, argmax } => {
                    let s = shape(x.0);
                    aux[i][0] = argmax_lens.len() as u32;
                    argmax_lens.push(argmax.len());
                    fwd.push(Instr::MaxPoolF {
                        x: val_loc[x.0],
                        dst: vdst(i),
                        am: aux[i][0],
                        nc: s[0] * s[1],
                        h: s[2],
                        w: s[3],
                    });
                }
                Op::GlobalAvgPool { x, hw } => fwd.push(Instr::GapF {
                    x: val_loc[x.0],
                    dst: vdst(i),
                    nc: numel(i),
                    hw: *hw,
                }),
                Op::BatchNorm { x, gamma, beta, eps, .. } => {
                    let s = shape(x.0);
                    aux[i][0] = state_sizes.len() as u32;
                    state_sizes.push(numel(x.0)); // x_hat
                    aux[i][1] = bn_cs.len() as u32;
                    bn_cs.push(s[1]);
                    fwd.push(Instr::BnF {
                        x: val_loc[x.0],
                        gamma: val_loc[gamma.0],
                        beta: val_loc[beta.0],
                        xhat: aux[i][0],
                        rt: aux[i][1],
                        dst: vdst(i),
                        n: s[0],
                        c: s[1],
                        hw: s[2] * s[3],
                        eps: *eps,
                    });
                }
                // The c' sibling is written by the h' node's LstmF below.
                Op::LstmCellC { .. } => {}
                Op::LstmCell { preact, c_prev, c_out, .. } => {
                    let (b, hid) = (shape(i)[0], shape(i)[1]);
                    aux[i][0] = state_sizes.len() as u32;
                    state_sizes.push(b * 4 * hid); // activated gates
                    aux[i][1] = state_sizes.len() as u32;
                    state_sizes.push(b * hid); // tanh(c')
                    fwd.push(Instr::LstmF {
                        preact: val_loc[preact.0],
                        c_prev: val_loc[c_prev.0],
                        gates: aux[i][0],
                        tanh_c: aux[i][1],
                        c_dst: vdst(c_out.0),
                        h_dst: vdst(i),
                        b,
                        hid,
                    });
                }
                Op::LstmPreactSeq { x_pack, w_x, bias } => fwd.push(Instr::PreactSeqF {
                    x: val_loc[x_pack.0],
                    w: rhs(w_x.0, false, shape(x_pack.0)[1], shape(w_x.0)[1]),
                    bias: val_loc[bias.0],
                    dst: vdst(i),
                    rows: shape(x_pack.0)[0],
                    k: shape(x_pack.0)[1],
                    n4: shape(w_x.0)[1],
                }),
                Op::LstmRecurStep { seq, h, w_h, t, batch } => fwd.push(Instr::RecurStepF {
                    seq: val_loc[seq.0],
                    h: val_loc[h.0],
                    w_h: rhs(w_h.0, false, shape(h.0)[1], shape(w_h.0)[1]),
                    dst: vdst(i),
                    t: *t,
                    batch: *batch,
                    hid: shape(h.0)[1],
                    n4: shape(w_h.0)[1],
                }),
            }
            for _ in before..fwd.len() {
                fpos.push(i);
            }
        }
        let ce_n = labels.len();

        // ---- the backward's one root, the loss, seeded at schedule
        // position N. A forward-only capture has none, so no backward
        // instruction is ever emitted and no gradient slot enters liveness.
        let mut grads_present = vec![false; n];
        let mut contrib = vec![0usize; n];
        let root = spec.loss.filter(|_| !forward_only).map(|l| l.0);
        if let Some(l) = root {
            grads_present[l] = true;
            contrib[l] = 1;
        }
        let loss_grad: Option<u32> = root.map(|l| (n + l) as u32);

        // ---- backward emission (node i's rule at position 2N-1-i)
        let mut bwd: Vec<Instr> = Vec::new();
        let mut bpos: Vec<usize> = Vec::new();
        if let Some(rm) = root {
            for i in (0..=rm).rev() {
                if !grads_present[i] || !g.nodes[i].requires_grad {
                    continue;
                }
                let before = bwd.len();
                let up = gloc(i);
                match &g.nodes[i].op {
                    Op::Leaf => {}
                    Op::Add(a, b) => {
                        for &o in [a, b].iter() {
                            if rg(*o) {
                                bwd.push(Instr::ScaleG {
                                    up,
                                    dst: gdst(o.0),
                                    mode: contribute(o.0, &mut contrib, &mut grads_present),
                                    n: numel(o.0),
                                    c: 1.0,
                                });
                            }
                        }
                    }
                    Op::Sub(a, b) => {
                        for (&o, c) in [a, b].iter().zip([1.0f32, -1.0]) {
                            if rg(*o) {
                                bwd.push(Instr::ScaleG {
                                    up,
                                    dst: gdst(o.0),
                                    mode: contribute(o.0, &mut contrib, &mut grads_present),
                                    n: numel(o.0),
                                    c,
                                });
                            }
                        }
                    }
                    Op::Mul(a, b) => {
                        for (&o, other) in [a, b].iter().zip([b, a]) {
                            if rg(*o) {
                                bwd.push(Instr::MulG {
                                    up,
                                    other: val_loc[other.0],
                                    dst: gdst(o.0),
                                    mode: contribute(o.0, &mut contrib, &mut grads_present),
                                    n: numel(o.0),
                                });
                            }
                        }
                    }
                    Op::AddBias(x, b) => {
                        let (rows, cols) = (shape(x.0)[0], shape(x.0)[1]);
                        if rg(*x) {
                            bwd.push(Instr::ScaleG {
                                up,
                                dst: gdst(x.0),
                                mode: contribute(x.0, &mut contrib, &mut grads_present),
                                n: numel(x.0),
                                c: 1.0,
                            });
                        }
                        if rg(*b) {
                            bwd.push(Instr::ColSumG {
                                up,
                                dst: gdst(b.0),
                                mode: contribute(b.0, &mut contrib, &mut grads_present),
                                rows,
                                cols,
                            });
                        }
                    }
                    Op::RowScale(x, s) => {
                        let (rows, cols) = (shape(x.0)[0], shape(x.0)[1]);
                        if rg(*x) {
                            bwd.push(Instr::RowScaleDx {
                                up,
                                s: val_loc[s.0],
                                dst: gdst(x.0),
                                mode: contribute(x.0, &mut contrib, &mut grads_present),
                                rows,
                                cols,
                            });
                        }
                        if rg(*s) {
                            bwd.push(Instr::RowScaleDs {
                                up,
                                x: val_loc[x.0],
                                dst: gdst(s.0),
                                mode: contribute(s.0, &mut contrib, &mut grads_present),
                                rows,
                                cols,
                            });
                        }
                    }
                    Op::Matmul(a, b) => {
                        let (m, kk) = (shape(a.0)[0], shape(a.0)[1]);
                        let nn = shape(b.0)[1];
                        if rg(*a) {
                            let mode = contribute(a.0, &mut contrib, &mut grads_present);
                            let (b, dims) = (rhs(b.0, true, nn, kk), [m, nn, kk]);
                            bwd.push(grad_gemm(false, true, up, b, dims, gdst(a.0), mode));
                        }
                        if rg(*b) {
                            let mode = contribute(b.0, &mut contrib, &mut grads_present);
                            let (a, dims) = (val_loc[a.0], [kk, m, nn]);
                            bwd.push(grad_gemm(true, false, a, Rhs::Loc(up), dims, gdst(b.0), mode));
                        }
                    }
                    Op::Scale(x, c) => {
                        if rg(*x) {
                            bwd.push(Instr::ScaleG {
                                up,
                                dst: gdst(x.0),
                                mode: contribute(x.0, &mut contrib, &mut grads_present),
                                n: numel(x.0),
                                c: *c,
                            });
                        }
                    }
                    Op::AddScalar(x, _) => {
                        if rg(*x) {
                            bwd.push(Instr::ScaleG {
                                up,
                                dst: gdst(x.0),
                                mode: contribute(x.0, &mut contrib, &mut grads_present),
                                n: numel(x.0),
                                c: 1.0,
                            });
                        }
                    }
                    Op::Sigmoid(x) => {
                        if rg(*x) {
                            bwd.push(Instr::SigmoidG {
                                up,
                                y: val_loc[i],
                                dst: gdst(x.0),
                                mode: contribute(x.0, &mut contrib, &mut grads_present),
                                n: numel(x.0),
                            });
                        }
                    }
                    Op::Tanh(x) => {
                        if rg(*x) {
                            bwd.push(Instr::TanhG {
                                up,
                                y: val_loc[i],
                                dst: gdst(x.0),
                                mode: contribute(x.0, &mut contrib, &mut grads_present),
                                n: numel(x.0),
                            });
                        }
                    }
                    Op::Relu(x) => {
                        if rg(*x) {
                            bwd.push(Instr::ReluG {
                                up,
                                x: val_loc[x.0],
                                dst: gdst(x.0),
                                mode: contribute(x.0, &mut contrib, &mut grads_present),
                                n: numel(x.0),
                            });
                        }
                    }
                    Op::Reshape(x) => {
                        if rg(*x) {
                            bwd.push(Instr::BlockG {
                                up,
                                up_off: 0,
                                dst: gdst(x.0),
                                dst_off: 0,
                                len: numel(x.0),
                                dst_len: numel(x.0),
                                zero_rest: false,
                                mode: contribute(x.0, &mut contrib, &mut grads_present),
                            });
                        }
                    }
                    Op::ConcatCols(parts, widths) => {
                        let (rows, total) = (shape(i)[0], shape(i)[1]);
                        let mut off = 0usize;
                        for (p, &w) in parts.iter().zip(widths) {
                            if rg(*p) {
                                bwd.push(Instr::ColsBlockG {
                                    up,
                                    dst: gdst(p.0),
                                    mode: contribute(p.0, &mut contrib, &mut grads_present),
                                    rows,
                                    up_cols: total,
                                    off,
                                    width: w,
                                });
                            }
                            off += w;
                        }
                    }
                    Op::SliceCols(x, start, end) => {
                        if rg(*x) {
                            bwd.push(Instr::ColsScatterG {
                                up,
                                dst: gdst(x.0),
                                mode: contribute(x.0, &mut contrib, &mut grads_present),
                                rows: shape(x.0)[0],
                                dst_cols: shape(x.0)[1],
                                start: *start,
                                end: *end,
                            });
                        }
                    }
                    Op::ConcatRows(parts, rcs) => {
                        let cols = shape(i)[1];
                        let mut off = 0usize;
                        for (p, &rc) in parts.iter().zip(rcs) {
                            if rg(*p) {
                                bwd.push(Instr::BlockG {
                                    up,
                                    up_off: off * cols,
                                    dst: gdst(p.0),
                                    dst_off: 0,
                                    len: rc * cols,
                                    dst_len: rc * cols,
                                    zero_rest: false,
                                    mode: contribute(p.0, &mut contrib, &mut grads_present),
                                });
                            }
                            off += rc;
                        }
                    }
                    Op::SliceRows(x, start, end) => {
                        if rg(*x) {
                            let cols = shape(x.0)[1];
                            bwd.push(Instr::BlockG {
                                up,
                                up_off: 0,
                                dst: gdst(x.0),
                                dst_off: start * cols,
                                len: (end - start) * cols,
                                dst_len: numel(x.0),
                                zero_rest: true,
                                mode: contribute(x.0, &mut contrib, &mut grads_present),
                            });
                        }
                    }
                    Op::SumAll(x) => {
                        if rg(*x) {
                            bwd.push(Instr::SumAllG {
                                up,
                                dst: gdst(x.0),
                                mode: contribute(x.0, &mut contrib, &mut grads_present),
                                n: numel(x.0),
                                mean: false,
                            });
                        }
                    }
                    Op::MeanAll(x) => {
                        if rg(*x) {
                            bwd.push(Instr::SumAllG {
                                up,
                                dst: gdst(x.0),
                                mode: contribute(x.0, &mut contrib, &mut grads_present),
                                n: numel(x.0),
                                mean: true,
                            });
                        }
                    }
                    Op::Dropout(x, _) => {
                        if rg(*x) {
                            bwd.push(Instr::DropoutG {
                                up,
                                mask: aux[i][0],
                                dst: gdst(x.0),
                                mode: contribute(x.0, &mut contrib, &mut grads_present),
                                n: numel(x.0),
                            });
                        }
                    }
                    Op::Embedding { table, ids: idv } => {
                        if rg(*table) {
                            let (vocab, dim) = (shape(table.0)[0], shape(table.0)[1]);
                            let mode = contribute(table.0, &mut contrib, &mut grads_present);
                            bwd.push(Instr::EmbedG {
                                up,
                                feed: aux[i][0],
                                dst: gdst(table.0),
                                mode,
                                vocab,
                                dim,
                                count: idv.len(),
                            });
                        }
                    }
                    Op::SoftmaxRows(x) => {
                        if rg(*x) {
                            bwd.push(Instr::SoftmaxG {
                                up,
                                y: val_loc[i],
                                dst: gdst(x.0),
                                mode: contribute(x.0, &mut contrib, &mut grads_present),
                                m: shape(x.0)[0],
                                n: shape(x.0)[1],
                            });
                        }
                    }
                    Op::SoftmaxCrossEntropy { logits, .. } => {
                        if rg(*logits) {
                            bwd.push(Instr::CeG {
                                up,
                                probs: aux[i][0],
                                labels: aux[i][1],
                                rt: aux[i][2],
                                dst: gdst(logits.0),
                                mode: contribute(logits.0, &mut contrib, &mut grads_present),
                                b: shape(logits.0)[0],
                                v: shape(logits.0)[1],
                            });
                        }
                    }
                    Op::Conv2d { x, w, geom, batch, .. } => {
                        let oc = shape(w.0)[0];
                        let dw = rg(*w).then(|| {
                            let mode = contribute(w.0, &mut contrib, &mut grads_present);
                            (gdst(w.0), mode)
                        });
                        let dx = rg(*x).then(|| {
                            let mode = contribute(x.0, &mut contrib, &mut grads_present);
                            (gdst(x.0), mode)
                        });
                        if dw.is_some() || dx.is_some() {
                            let ckk = geom.c * geom.kh * geom.kw;
                            bwd.push(Instr::ConvG {
                                up,
                                w: match dx {
                                    Some(_) => rhs(w.0, false, oc, ckk),
                                    None => Rhs::Loc(val_loc[w.0]),
                                },
                                cols: aux[i][0],
                                out2: aux[i][1],
                                dw,
                                dx,
                                geom: *geom,
                                batch: *batch,
                                oc,
                            });
                        }
                    }
                    Op::MaxPool2x2 { x, argmax } => {
                        if rg(*x) {
                            let mode = contribute(x.0, &mut contrib, &mut grads_present);
                            bwd.push(Instr::MaxPoolG {
                                up,
                                dst: gdst(x.0),
                                mode,
                                am: aux[i][0],
                                x_len: numel(x.0),
                                out_len: argmax.len(),
                            });
                        }
                    }
                    Op::GlobalAvgPool { x, hw } => {
                        if rg(*x) {
                            bwd.push(Instr::GapG {
                                up,
                                dst: gdst(x.0),
                                mode: contribute(x.0, &mut contrib, &mut grads_present),
                                nc: numel(i),
                                hw: *hw,
                            });
                        }
                    }
                    Op::BatchNorm { x, gamma, beta, .. } => {
                        let s = shape(x.0);
                        let dg = rg(*gamma).then(|| {
                            (gdst(gamma.0), contribute(gamma.0, &mut contrib, &mut grads_present))
                        });
                        let dbt = rg(*beta).then(|| {
                            (gdst(beta.0), contribute(beta.0, &mut contrib, &mut grads_present))
                        });
                        let dx = rg(*x).then(|| {
                            (gdst(x.0), contribute(x.0, &mut contrib, &mut grads_present))
                        });
                        if dg.is_some() || dbt.is_some() || dx.is_some() {
                            bwd.push(Instr::BnG {
                                up,
                                gamma: val_loc[gamma.0],
                                xhat: aux[i][0],
                                rt: aux[i][1],
                                dg,
                                dbt,
                                dx,
                                n: s[0],
                                c: s[1],
                                hw: s[2] * s[3],
                            });
                        }
                    }
                    Op::LstmCell { preact, c_prev, c_out, .. } => {
                        let (b, hid) = (shape(i)[0], shape(i)[1]);
                        let dc = grads_present[c_out.0].then(|| gloc(c_out.0));
                        let dpre = if rg(*preact) {
                            (gdst(preact.0), contribute(preact.0, &mut contrib, &mut grads_present))
                        } else {
                            // dummy: fully overwritten, never read
                            (Dst::Slot((n + preact.0) as u32), Mode::Store)
                        };
                        let dcp = if rg(*c_prev) {
                            (gdst(c_prev.0), contribute(c_prev.0, &mut contrib, &mut grads_present))
                        } else {
                            (Dst::Slot((n + c_prev.0) as u32), Mode::Store)
                        };
                        bwd.push(Instr::LstmG {
                            gates: aux[i][0],
                            tanh_c: aux[i][1],
                            c_prev: val_loc[c_prev.0],
                            dh: Some(up),
                            dc,
                            dpre,
                            dcp,
                            b,
                            hid,
                        });
                    }
                    Op::LstmCellC { h_out } => {
                        if !grads_present[h_out.0] {
                            // h' unused: run the joint rule with dh = 0 from
                            // the sibling's cached intermediates.
                            if let Op::LstmCell { preact, c_prev, .. } = &g.nodes[h_out.0].op {
                                let (b, hid) = (shape(i)[0], shape(i)[1]);
                                let dpre = if rg(*preact) {
                                    (
                                        gdst(preact.0),
                                        contribute(preact.0, &mut contrib, &mut grads_present),
                                    )
                                } else {
                                    (Dst::Slot((n + preact.0) as u32), Mode::Store)
                                };
                                let dcp = if rg(*c_prev) {
                                    (
                                        gdst(c_prev.0),
                                        contribute(c_prev.0, &mut contrib, &mut grads_present),
                                    )
                                } else {
                                    (Dst::Slot((n + c_prev.0) as u32), Mode::Store)
                                };
                                bwd.push(Instr::LstmG {
                                    gates: aux[h_out.0][0],
                                    tanh_c: aux[h_out.0][1],
                                    c_prev: val_loc[c_prev.0],
                                    dh: None,
                                    dc: Some(up),
                                    dpre,
                                    dcp,
                                    b,
                                    hid,
                                });
                            }
                        }
                    }
                    Op::LstmPreactSeq { x_pack, w_x, bias } => {
                        let (rows, kk) = (shape(x_pack.0)[0], shape(x_pack.0)[1]);
                        let n4 = shape(w_x.0)[1];
                        if rg(*x_pack) {
                            let mode = contribute(x_pack.0, &mut contrib, &mut grads_present);
                            let (w, dims) = (rhs(w_x.0, true, n4, kk), [rows, n4, kk]);
                            bwd.push(grad_gemm(false, true, up, w, dims, gdst(x_pack.0), mode));
                        }
                        if rg(*w_x) {
                            let mode = contribute(w_x.0, &mut contrib, &mut grads_present);
                            let (x, dims) = (val_loc[x_pack.0], [kk, rows, n4]);
                            bwd.push(grad_gemm(true, false, x, Rhs::Loc(up), dims, gdst(w_x.0), mode));
                        }
                        if rg(*bias) {
                            bwd.push(Instr::ColSumG {
                                up,
                                dst: gdst(bias.0),
                                mode: contribute(bias.0, &mut contrib, &mut grads_present),
                                rows,
                                cols: n4,
                            });
                        }
                    }
                    Op::LstmRecurStep { seq, h, w_h, t, batch } => {
                        let hid = shape(h.0)[1];
                        let n4 = shape(w_h.0)[1];
                        if rg(*h) {
                            let mode = contribute(h.0, &mut contrib, &mut grads_present);
                            let (w, dims) = (rhs(w_h.0, true, n4, hid), [*batch, n4, hid]);
                            bwd.push(grad_gemm(false, true, up, w, dims, gdst(h.0), mode));
                        }
                        if rg(*w_h) {
                            let mode = contribute(w_h.0, &mut contrib, &mut grads_present);
                            let (hv, dims) = (val_loc[h.0], [hid, *batch, n4]);
                            bwd.push(grad_gemm(true, false, hv, Rhs::Loc(up), dims, gdst(w_h.0), mode));
                        }
                        if rg(*seq) {
                            let zero_first = contrib[seq.0] == 0;
                            contrib[seq.0] += 1;
                            grads_present[seq.0] = true;
                            bwd.push(Instr::RecurSeqG {
                                up,
                                dst: gdst(seq.0),
                                zero_first,
                                t: *t,
                                batch: *batch,
                                cols: n4,
                                dst_len: numel(seq.0),
                            });
                        }
                    }
                }
                for _ in before..bwd.len() {
                    bpos.push(2 * n - 1 - i);
                }
            }
        }

        // ---- a weight view whose every reader became a panel GEMM is no
        // longer read from the arena: drop the copy that would fill its slot
        // (nothing but that copy touches the slot, so it never enters
        // liveness either). A view some other instruction still reads — or
        // one that is a plan output — keeps its copy.
        let mut touches: HashMap<u32, usize> = HashMap::new();
        for ins in fwd.iter_mut().chain(bwd.iter_mut()) {
            visit_slots(ins, &mut |v| *touches.entry(*v).or_default() += 1);
        }
        let (mut fwd, fpos): (Vec<Instr>, Vec<usize>) = fwd
            .into_iter()
            .zip(fpos)
            .filter(|(ins, _)| {
                !matches!(ins, Instr::CopyBlock { dst: Dst::Slot(v), .. }
                    if view[*v as usize].is_some() && touches[v] == 1)
            })
            .unzip();

        // Shared f32 scratch sized from the schedule's largest consumer; the
        // executor only ever slices it, so replays can never grow it.
        let scratch = fwd.iter().chain(bwd.iter()).map(scratch_req).max().unwrap_or(0);

        // ---- liveness over the 2N-position schedule
        let mut uses: HashMap<u32, (usize, usize)> = HashMap::new();
        {
            let mut touch = |vid: u32, pos: usize| {
                let e = uses.entry(vid).or_insert((pos, pos));
                if pos < e.0 {
                    e.0 = pos;
                }
                if pos > e.1 {
                    e.1 = pos;
                }
            };
            for (ins, &pos) in fwd.iter_mut().zip(fpos.iter()) {
                visit_slots(ins, &mut |v| touch(*v, pos));
            }
            for (ins, &pos) in bwd.iter_mut().zip(bpos.iter()) {
                visit_slots(ins, &mut |v| touch(*v, pos));
            }
            // The replay driver writes the loss seed between the two sweeps.
            if let Some(vid) = loss_grad {
                touch(vid, n);
            }
        }
        let numel_of = |vid: u32| -> usize {
            let v = vid as usize;
            if v < n {
                numel(v)
            } else {
                numel(v - n)
            }
        };

        // ---- physical slot assignment: at each position allocate the
        // intervals born there before freeing the ones that end there, so a
        // slot is never its own instruction's source and destination.
        let mut births: Vec<Vec<u32>> = vec![Vec::new(); 2 * n];
        let mut deaths: Vec<Vec<u32>> = vec![Vec::new(); 2 * n];
        for (&vid, &(first, last)) in &uses {
            births[first].push(vid);
            deaths[last].push(vid);
        }
        let mut free: HashMap<usize, Vec<u32>> = HashMap::new();
        let mut phys_sizes: Vec<usize> = Vec::new();
        let mut slot_map: HashMap<u32, u32> = HashMap::new();
        let (mut live, mut peak) = (0usize, 0usize);
        for pos in 0..2 * n {
            births[pos].sort_unstable();
            deaths[pos].sort_unstable();
            for &vid in &births[pos] {
                let sz = numel_of(vid);
                let phys = free
                    .get_mut(&sz)
                    .and_then(|v| v.pop())
                    .unwrap_or_else(|| {
                        phys_sizes.push(sz);
                        (phys_sizes.len() - 1) as u32
                    });
                slot_map.insert(vid, phys);
                live += sz * 4;
                peak = peak.max(live);
            }
            for &vid in &deaths[pos] {
                let sz = numel_of(vid);
                free.entry(sz).or_default().push(slot_map[&vid]);
                live -= sz * 4;
            }
        }
        for ins in fwd.iter_mut().chain(bwd.iter_mut()) {
            visit_slots(ins, &mut |v| *v = slot_map[&*v]);
        }
        let loss_grad = loss_grad.map(|v| slot_map[&v]);

        // ---- storage + stats
        let colsum = bwd
            .iter()
            .map(|i| match i {
                Instr::ColSumG { cols, .. } => *cols,
                _ => 0,
            })
            .max()
            .unwrap_or(0);
        let stats = PlanStats {
            nodes: n,
            fwd_instrs: fwd.len(),
            bwd_instrs: bwd.len(),
            arena_slots: phys_sizes.len(),
            arena_bytes: phys_sizes.iter().sum::<usize>() * 4,
            peak_live_bytes: peak,
            state_bytes: state_sizes.iter().sum::<usize>() * 4,
            scratch_bytes: scratch * 4 + colsum * 8,
            panels: panels.len(),
            panel_bytes: 0,
        };
        let st = Store {
            slots: phys_sizes.iter().map(|&s| vec![0.0f32; s]).collect(),
            outs,
            // A forward-only plan never reads or writes parameter
            // gradients (`par_grad_present` is all-false below), so don't
            // double the frozen parameters' memory with zero buffers.
            pargrads: if forward_only {
                spec.params.iter().map(|_| Tensor::zeros(&[1])).collect()
            } else {
                spec.params.iter().map(|&v| g.nodes[v.0].value.zeros_like()).collect()
            },
            consts,
            states: state_sizes.iter().map(|&s| vec![0.0f32; s]).collect(),
            scratch: vec![0.0f32; scratch],
            colsum: vec![0.0f64; colsum],
            ids,
            labels,
            masks,
            argmax: argmax_lens.iter().map(|&l| vec![0u32; l]).collect(),
            ce_active: vec![0usize; ce_n],
            bn: bn_cs
                .iter()
                .map(|&c| BnRt {
                    mean: vec![0.0; c],
                    var: vec![0.0; c],
                    sum_up: vec![0.0; c],
                    sum_up_xh: vec![0.0; c],
                    mean_f32: vec![0.0; c],
                    var_f32: vec![0.0; c],
                    inv_std: vec![0.0; c],
                })
                .collect(),
            panels,
            epoch: 0,
            placeholder: Tensor::zeros(&[1]),
        };
        Some(Plan {
            prog: Prog { fwd, bwd, loss_grad },
            st,
            in_shapes: spec.inputs.iter().map(|&v| g.nodes[v.0].value.shape().to_vec()).collect(),
            par_shapes: spec.params.iter().map(|&v| g.nodes[v.0].value.shape().to_vec()).collect(),
            out_of_k,
            loss_out,
            par_grad_present: spec.params.iter().map(|&v| contrib[v.0] > 0).collect(),
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random tensor (same LCG idiom as the op tests).
    fn t(seed: u64, dims: &[usize]) -> Tensor {
        let mut s = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let data = (0..dims.iter().product())
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((s >> 33) as f32 / (1u64 << 31) as f32) - 0.5
            })
            .collect();
        Tensor::from_vec(data, dims)
    }

    fn assert_bits(a: &[f32], b: &[f32], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                x.to_bits() == y.to_bits(),
                "{what}: bit mismatch at {i}: {x} vs {y}"
            );
        }
    }

    // ---- MLP: matmul + add_bias + relu + cross-entropy ------------------

    struct MlpTape {
        g: Graph,
        x: Var,
        params: Vec<Var>,
        loss: Var,
    }

    fn mlp_tape(x: &Tensor, ps: &[&Tensor], labels: &[usize]) -> MlpTape {
        let mut g = Graph::new();
        let xv = g.input(x.clone());
        let pv: Vec<Var> = ps.iter().map(|p| g.param((*p).clone())).collect();
        let h = g.matmul(xv, pv[0]);
        let h = g.add_bias(h, pv[1]);
        let h = g.relu(h);
        let o = g.matmul(h, pv[2]);
        let o = g.add_bias(o, pv[3]);
        let loss = g.softmax_cross_entropy(o, labels);
        MlpTape { g, x: xv, params: pv, loss }
    }

    fn mlp_params(seed: u64) -> Vec<Tensor> {
        vec![t(seed, &[8, 16]), t(seed + 1, &[16]), t(seed + 2, &[16, 4]), t(seed + 3, &[4])]
    }

    #[test]
    fn mlp_replay_matches_tape_bitwise() {
        let ps0 = mlp_params(11);
        let x0 = t(20, &[4, 8]);
        let lab0 = vec![0usize, 3, 1, 2];
        let mut tape = mlp_tape(&x0, &ps0.iter().collect::<Vec<_>>(), &lab0);
        tape.g.backward(tape.loss);
        let spec = CaptureSpec {
            inputs: &[tape.x],
            params: &tape.params,
            loss: Some(tape.loss),
            outputs: &[],
        };
        let mut plan = Plan::capture(&tape.g, &spec).expect("mlp capture");

        // replay on different data AND different parameter values
        let ps1 = mlp_params(77);
        let x1 = t(21, &[4, 8]);
        let lab1 = vec![2usize, 0, 3, 3];
        let pr: Vec<&Tensor> = ps1.iter().collect();
        plan.replay_forward(&[&x1], &pr, &Feeds { labels: &[&lab1], ..Feeds::default() });
        plan.replay_backward_loss(&[&x1], &pr);

        let mut fresh = mlp_tape(&x1, &pr, &lab1);
        fresh.g.backward(fresh.loss);
        assert_bits(
            &[plan.loss()],
            fresh.g.value(fresh.loss).as_slice(),
            "mlp loss",
        );
        for (k, &pvar) in fresh.params.iter().enumerate() {
            assert_bits(
                plan.param_grad(k).expect("grad present").as_slice(),
                fresh.g.grad(pvar).expect("tape grad").as_slice(),
                "mlp grad",
            );
        }
    }

    #[test]
    fn forward_only_capture_matches_tape_and_drops_backward() {
        let ps0 = mlp_params(11);
        let x0 = t(20, &[4, 8]);
        // The logits are the only output; the training plan also gets a loss
        // over them, which the forward-only capture leaves out.
        fn infer_tape(x: &Tensor, ps: &[&Tensor]) -> (Graph, Var, Vec<Var>, Var) {
            let mut g = Graph::new();
            let xv = g.input(x.clone());
            let pv: Vec<Var> = ps.iter().map(|p| g.param((*p).clone())).collect();
            let h = g.matmul(xv, pv[0]);
            let h = g.add_bias(h, pv[1]);
            let h = g.relu(h);
            let o = g.matmul(h, pv[2]);
            let o = g.add_bias(o, pv[3]);
            (g, xv, pv, o)
        }
        let (mut g, xv, pv, o) = infer_tape(&x0, &ps0.iter().collect::<Vec<_>>());
        let loss = g.sum_all(o);
        let spec = CaptureSpec { inputs: &[xv], params: &pv, loss: None, outputs: &[o] };
        let mut full = Plan::capture(&g, &CaptureSpec { loss: Some(loss), ..spec })
            .expect("full capture");
        let mut fwd = Plan::capture_forward(&g, &spec).expect("forward-only capture");
        assert_eq!(fwd.stats().bwd_instrs, 0, "no backward schedule");
        assert!(fwd.param_grad(0).is_none(), "no gradient flows in a forward-only plan");
        assert!(
            fwd.stats().arena_bytes <= full.stats().arena_bytes,
            "forward-only arena must not exceed the training plan's"
        );

        let ps1 = mlp_params(77);
        let x1 = t(21, &[4, 8]);
        let pr: Vec<&Tensor> = ps1.iter().collect();
        full.replay_forward(&[&x1], &pr, &Feeds::default());
        fwd.replay_forward(&[&x1], &pr, &Feeds::default());
        let (g1, _, _, o1) = infer_tape(&x1, &pr);
        assert_bits(fwd.output(0).as_slice(), g1.value(o1).as_slice(), "fwd-only vs tape");
        assert_bits(fwd.output(0).as_slice(), full.output(0).as_slice(), "fwd-only vs full");
    }

    #[test]
    fn forward_only_capture_still_computes_loss() {
        let ps = mlp_params(5);
        let x = t(9, &[4, 8]);
        let lab = vec![1usize, 0, 2, 3];
        let tape = mlp_tape(&x, &ps.iter().collect::<Vec<_>>(), &lab);
        let spec = CaptureSpec {
            inputs: &[tape.x],
            params: &tape.params,
            loss: Some(tape.loss),
            outputs: &[],
        };
        let mut plan = Plan::capture_forward(&tape.g, &spec).expect("capture");
        assert_eq!(plan.stats().bwd_instrs, 0);
        let pr: Vec<&Tensor> = ps.iter().collect();
        plan.replay_forward(&[&x], &pr, &Feeds { labels: &[&lab], ..Feeds::default() });
        assert_bits(&[plan.loss()], tape.g.value(tape.loss).as_slice(), "fwd-only loss");
    }

    // ---- hoisted LSTM chain: preact_seq + recur_step + fused cell -------

    const T: usize = 3;
    const B: usize = 2;
    const IN: usize = 4;
    const H: usize = 5;
    const C: usize = 4;

    struct LstmTape {
        g: Graph,
        inputs: Vec<Var>,
        params: Vec<Var>,
        loss: Var,

    }

    fn lstm_tape(x_pack: &Tensor, ps: &[&Tensor], labels: &[usize]) -> LstmTape {
        let mut g = Graph::new();
        let xv = g.input(x_pack.clone());
        let h0 = g.input(Tensor::zeros(&[B, H]));
        let c0 = g.input(Tensor::zeros(&[B, H]));
        let pv: Vec<Var> = ps.iter().map(|p| g.param((*p).clone())).collect();
        let (w_x, bias, w_h, w_o) = (pv[0], pv[1], pv[2], pv[3]);
        let seq = g.lstm_preact_seq(xv, w_x, bias);
        let (mut h, mut c) = (h0, c0);
        for step in 0..T {
            let pre = g.lstm_recur_step(seq, step, B, h, w_h);
            let (h2, c2) = g.lstm_cell(pre, c);
            h = h2;
            c = c2;
        }
        let logits = g.matmul(h, w_o);
        let loss = g.softmax_cross_entropy(logits, labels);
        LstmTape { g, inputs: vec![xv, h0, c0], params: pv, loss }
    }

    fn lstm_params(seed: u64) -> Vec<Tensor> {
        vec![
            t(seed, &[IN, 4 * H]),
            t(seed + 1, &[4 * H]),
            t(seed + 2, &[H, 4 * H]),
            t(seed + 3, &[H, C]),
        ]
    }

    #[test]
    fn lstm_chain_replay_matches_tape_bitwise() {
        let ps0 = lstm_params(31);
        let x0 = t(40, &[T * B, IN]);
        let lab0 = vec![1usize, 3];
        let tape = lstm_tape(&x0, &ps0.iter().collect::<Vec<_>>(), &lab0);
        let spec = CaptureSpec {
            inputs: &tape.inputs,
            params: &tape.params,
            loss: Some(tape.loss),
            outputs: &[],
        };
        let mut plan = Plan::capture(&tape.g, &spec).expect("lstm capture");

        let ps1 = lstm_params(93);
        let x1 = t(41, &[T * B, IN]);
        let lab1 = vec![0usize, 2];
        let pr: Vec<&Tensor> = ps1.iter().collect();
        let zeros = Tensor::zeros(&[B, H]);
        let ins: Vec<&Tensor> = vec![&x1, &zeros, &zeros];
        plan.replay_step(&ins, &pr, &Feeds { labels: &[&lab1], ..Feeds::default() });

        let mut fresh = lstm_tape(&x1, &pr, &lab1);
        fresh.g.backward(fresh.loss);
        assert_bits(&[plan.loss()], fresh.g.value(fresh.loss).as_slice(), "lstm loss");
        for (k, &pvar) in fresh.params.iter().enumerate() {
            assert_bits(
                plan.param_grad(k).expect("grad present").as_slice(),
                fresh.g.grad(pvar).expect("tape grad").as_slice(),
                "lstm grad",
            );
        }
    }

    #[test]
    fn steady_state_replay_allocates_nothing() {
        let ps = lstm_params(55);
        let x = t(60, &[T * B, IN]);
        let lab = vec![2usize, 1];
        let tape = lstm_tape(&x, &ps.iter().collect::<Vec<_>>(), &lab);
        let spec = CaptureSpec {
            inputs: &tape.inputs,
            params: &tape.params,
            loss: Some(tape.loss),
            outputs: &[],
        };
        let mut plan = Plan::capture(&tape.g, &spec).expect("capture");
        let pr: Vec<&Tensor> = ps.iter().collect();
        let zeros = Tensor::zeros(&[B, H]);
        let ins: Vec<&Tensor> = vec![&x, &zeros, &zeros];
        plan.replay_step(&ins, &pr, &Feeds::default()); // warm-up
        // The counters are process-wide, so tolerate unrelated test threads
        // by retrying: at least one quiet window must show zero allocations
        // attributable to the replay itself.
        let mut clean = false;
        for _ in 0..20 {
            let before = legw_tensor::pool::stats();
            plan.replay_step(&ins, &pr, &Feeds::default());
            let delta = legw_tensor::pool::stats().since(&before);
            if delta.allocations == 0 && delta.recycles == 0 {
                clean = true;
                break;
            }
        }
        assert!(clean, "steady-state replay touched the buffer pool");
    }

    // ---- weight panels --------------------------------------------------

    /// The `LstmCell` wiring: one fused `[IN + H, 4H]` kernel whose
    /// row-slices `W_x` / `W_h` feed the hoisted projection and the
    /// recurrent steps. With `reg`, `W_h` also feeds an elementwise L2 term
    /// — a reader that is not a GEMM.
    fn fused_lstm_tape(x_pack: &Tensor, ps: &[&Tensor], labels: &[usize], reg: bool) -> LstmTape {
        let mut g = Graph::new();
        let xv = g.input(x_pack.clone());
        let h0 = g.input(Tensor::zeros(&[B, H]));
        let c0 = g.input(Tensor::zeros(&[B, H]));
        let pv: Vec<Var> = ps.iter().map(|p| g.param((*p).clone())).collect();
        let (w, bias, w_o) = (pv[0], pv[1], pv[2]);
        let w_x = g.slice_rows(w, 0, IN);
        let w_h = g.slice_rows(w, IN, IN + H);
        let seq = g.lstm_preact_seq(xv, w_x, bias);
        let (mut h, mut c) = (h0, c0);
        for step in 0..T {
            let pre = g.lstm_recur_step(seq, step, B, h, w_h);
            let (h2, c2) = g.lstm_cell(pre, c);
            h = h2;
            c = c2;
        }
        let logits = g.matmul(h, w_o);
        let mut loss = g.softmax_cross_entropy(logits, labels);
        if reg {
            let sq = g.mul(w_h, w_h);
            let l2 = g.sum_all(sq);
            loss = g.add(loss, l2);
        }
        LstmTape { g, inputs: vec![xv, h0, c0], params: pv, loss }
    }

    fn fused_lstm_params(seed: u64) -> Vec<Tensor> {
        vec![t(seed, &[IN + H, 4 * H]), t(seed + 1, &[4 * H]), t(seed + 2, &[H, C])]
    }

    /// Captures the fused-kernel chain and drops the capture tape, so the
    /// parameter tensors are unshared again (as in the trainer, where an
    /// optimizer step then updates them in place).
    fn fused_lstm_plan(ps: &[Tensor], reg: bool) -> Plan {
        let tape = fused_lstm_tape(&t(200, &[T * B, IN]), &ps.iter().collect::<Vec<_>>(), &[0, 1], reg);
        let spec = CaptureSpec {
            inputs: &tape.inputs,
            params: &tape.params,
            loss: Some(tape.loss),
            outputs: &[],
        };
        Plan::capture(&tape.g, &spec).expect("fused lstm capture")
    }

    /// One replayed step against a tape rebuilt from the same values, under
    /// whatever kernel tier and bf16 scope the caller set: loss and every
    /// gradient bitwise.
    fn assert_fused_step_matches_tape(plan: &mut Plan, ps: &[Tensor], seed: u64, reg: bool, what: &str) {
        let x = t(seed, &[T * B, IN]);
        let lab = vec![(seed % C as u64) as usize, 2];
        let pr: Vec<&Tensor> = ps.iter().collect();
        let zeros = Tensor::zeros(&[B, H]);
        plan.replay_step(&[&x, &zeros, &zeros], &pr, &Feeds { labels: &[&lab], ..Feeds::default() });
        let mut fresh = fused_lstm_tape(&x, &pr, &lab, reg);
        fresh.g.backward(fresh.loss);
        assert_bits(&[plan.loss()], fresh.g.value(fresh.loss).as_slice(), what);
        for (k, &pvar) in fresh.params.iter().enumerate() {
            assert_bits(
                plan.param_grad(k).expect("grad present").as_slice(),
                fresh.g.grad(pvar).expect("tape grad").as_slice(),
                what,
            );
        }
    }

    fn count_kind(plan: &Plan, kind: &str) -> usize {
        plan.prog.fwd.iter().chain(&plan.prog.bwd).filter(|i| kind_name(i) == kind).count()
    }

    #[test]
    fn panels_follow_in_place_parameter_updates() {
        // No stale weights: the optimizer writes new values into the same
        // allocations between replays, so a panel kept across replays, or
        // looked up by address, would replay the old weights.
        let mut ps = fused_lstm_params(201);
        let mut plan = fused_lstm_plan(&ps, false);
        assert_fused_step_matches_tape(&mut plan, &ps, 210, false, "first replay");
        for round in 0..2 {
            let before: Vec<*const f32> = ps.iter().map(|p| p.as_slice().as_ptr()).collect();
            for (k, p) in ps.iter_mut().enumerate() {
                let grad = plan.param_grad(k).expect("grad present").clone();
                p.axpy(-0.5, &grad);
            }
            let after: Vec<*const f32> = ps.iter().map(|p| p.as_slice().as_ptr()).collect();
            assert_eq!(before, after, "the update must be in place for this test to bite");
            assert_fused_step_matches_tape(&mut plan, &ps, 211 + round, false, "after an in-place update");
        }
    }

    #[test]
    fn one_plan_follows_the_bf16_scope_and_the_kernel_tier() {
        // Panel layout depends on the tier (NR 8 or 16) and the element
        // type: a replay under another mode than the last one must re-lay
        // its panels, and equal the tape run under that same mode.
        let ps = fused_lstm_params(221);
        let mut plan = fused_lstm_plan(&ps, false);
        legw_tensor::with_bf16_gemm(|| {
            assert_fused_step_matches_tape(&mut plan, &ps, 230, false, "bf16 replay")
        });
        assert_fused_step_matches_tape(&mut plan, &ps, 231, false, "f32 replay after bf16");
        for tier in [Kernel::Scalar, Kernel::Avx2, Kernel::Avx512] {
            if kernels::supported(tier) {
                kernels::with_override(tier, || {
                    assert_fused_step_matches_tape(&mut plan, &ps, 232, false, tier.name());
                    legw_tensor::with_bf16_gemm(|| {
                        assert_fused_step_matches_tape(&mut plan, &ps, 233, false, tier.name())
                    });
                });
            }
        }
        assert_fused_step_matches_tape(&mut plan, &ps, 234, false, "back on the default tier");
    }

    #[test]
    fn weight_slices_read_only_by_gemms_lose_their_copy() {
        let ps = fused_lstm_params(241);
        // W_x (forward form), W_h and W_o (forward and transposed forms).
        let mut plain = fused_lstm_plan(&ps, false);
        assert_eq!(plain.stats().panels, 5, "{}", plain.describe());
        assert_eq!(count_kind(&plain, "CopyBlock"), 0, "{}", plain.describe());
        assert_eq!(plain.stats().panel_bytes, 0, "nothing is packed before a replay");
        assert_fused_step_matches_tape(&mut plain, &ps, 250, false, "both slices dropped");
        let held = plain.stats().panel_bytes;
        assert!(held >= 4 * ((IN + 2 * H) * 4 * H + 2 * H * C), "{held} panel bytes");
        assert_fused_step_matches_tape(&mut plain, &ps, 251, false, "second replay");
        assert_eq!(plain.stats().panel_bytes, held, "panels are repacked in place");

        // An elementwise reader of W_h still needs the slice in the arena:
        // its copy (and only its) stays, and the GEMMs still use the panel.
        let mut reg = fused_lstm_plan(&ps, true);
        assert_eq!(reg.stats().panels, 5);
        assert_eq!(count_kind(&reg, "CopyBlock"), 1, "{}", reg.describe());
        assert!(reg.stats().arena_bytes >= plain.stats().arena_bytes + 4 * H * 4 * H);
        assert_fused_step_matches_tape(&mut reg, &ps, 252, true, "W_h read by a non-GEMM too");
    }

    #[test]
    #[should_panic(expected = "PackedB is unpacked")]
    fn backward_replay_before_any_forward_is_refused() {
        // The panels of a fresh plan hold nothing; reading one must fail
        // loudly, not multiply by an empty or stale panel.
        let ps = fused_lstm_params(261);
        let mut plan = fused_lstm_plan(&ps, false);
        let x = t(262, &[T * B, IN]);
        let zeros = Tensor::zeros(&[B, H]);
        plan.replay_backward_loss(&[&x, &zeros, &zeros], &ps.iter().collect::<Vec<_>>());
    }

    // ---- conv / batch norm / pooling ------------------------------------

    struct ConvTape {
        g: Graph,
        x: Var,
        params: Vec<Var>,
        loss: Var,
        conv_out: Var,
    }

    fn conv_tape(x: &Tensor, ps: &[&Tensor], labels: &[usize]) -> ConvTape {
        let geom = Conv2dGeom { c: 3, h: 6, w: 6, kh: 3, kw: 3, stride: 1, pad: 1 };
        let mut g = Graph::new();
        let xv = g.input(x.clone());
        let pv: Vec<Var> = ps.iter().map(|p| g.param((*p).clone())).collect();
        let (w, gamma, beta, w_o) = (pv[0], pv[1], pv[2], pv[3]);
        let y = g.conv2d(xv, w, geom);
        let y2 = g.batch_norm(y, gamma, beta, 1e-5);
        let y3 = g.relu(y2);
        let y4 = g.max_pool_2x2(y3);
        let y5 = g.global_avg_pool(y4);
        let logits = g.matmul(y5, w_o);
        let loss = g.softmax_cross_entropy(logits, labels);
        ConvTape { g, x: xv, params: pv, loss, conv_out: y }
    }

    fn conv_params(seed: u64) -> Vec<Tensor> {
        vec![t(seed, &[4, 27]), t(seed + 1, &[4]), t(seed + 2, &[4]), t(seed + 3, &[4, 3])]
    }

    #[test]
    fn conv_bn_pool_replay_matches_tape_bitwise() {
        let ps0 = conv_params(71);
        let x0 = t(80, &[2, 3, 6, 6]);
        let lab0 = vec![0usize, 2];
        let tape = conv_tape(&x0, &ps0.iter().collect::<Vec<_>>(), &lab0);
        let spec = CaptureSpec {
            inputs: &[tape.x],
            params: &tape.params,
            loss: Some(tape.loss),
            outputs: &[],
        };
        let mut plan = Plan::capture(&tape.g, &spec).expect("conv capture");
        assert_eq!(plan.num_batch_norms(), 1);

        let ps1 = conv_params(72);
        let x1 = t(81, &[2, 3, 6, 6]);
        let lab1 = vec![1usize, 0];
        let pr: Vec<&Tensor> = ps1.iter().collect();
        plan.replay_step(&[&x1], &pr, &Feeds { labels: &[&lab1], ..Feeds::default() });

        let mut fresh = conv_tape(&x1, &pr, &lab1);
        fresh.g.backward(fresh.loss);
        assert_bits(&[plan.loss()], fresh.g.value(fresh.loss).as_slice(), "conv loss");
        for (k, &pvar) in fresh.params.iter().enumerate() {
            assert_bits(
                plan.param_grad(k).expect("grad present").as_slice(),
                fresh.g.grad(pvar).expect("tape grad").as_slice(),
                "conv grad",
            );
        }
        // replayed batch statistics must equal the tape's
        let (mean, var) = plan.bn_batch_stats(0);
        let (tm, tv) = Graph::batch_norm_stats(fresh.g.value(tape_conv_out(&fresh)));
        assert_bits(mean, &tm, "bn mean");
        assert_bits(var, &tv, "bn var");
    }

    fn tape_conv_out(t: &ConvTape) -> Var {
        t.conv_out
    }

    /// A window with no element above `-inf` used to record argmax 0 and
    /// send its gradient to element 0 of the whole tensor — another
    /// sample's plane. It must stay inside the window, on both executors.
    #[test]
    fn max_pool_window_without_a_maximum_keeps_its_gradient() {
        let ninf = f32::NEG_INFINITY;
        let pooled = |x: &Tensor| {
            let mut g = Graph::new();
            let xv = g.param(x.clone());
            let p = g.max_pool_2x2(xv);
            let loss = g.sum_all(p);
            (g, xv, loss)
        };
        // sample 0: an ordinary window; sample 1: all -inf
        let x0 = Tensor::from_vec(vec![1., 5., 2., 3., ninf, ninf, ninf, ninf], &[2, 1, 2, 2]);
        let want0 = [0., 1., 0., 0., 1., 0., 0., 0.];
        let (mut g, xv, loss) = pooled(&x0);
        g.backward(loss);
        assert_eq!(g.grad(xv).unwrap().as_slice(), &want0, "tape");

        let spec = CaptureSpec { inputs: &[], params: &[xv], loss: Some(loss), outputs: &[] };
        let mut plan = Plan::capture(&g, &spec).expect("pool capture");
        // replay with the empty window in the other sample
        let x1 = Tensor::from_vec(vec![ninf, ninf, ninf, ninf, 1., 2., 7., 3.], &[2, 1, 2, 2]);
        plan.replay_step(&[], &[&x1], &Feeds::default());
        assert_eq!(plan.param_grad(0).unwrap().as_slice(), &[1., 0., 0., 0., 0., 0., 1., 0.], "plan");
        plan.replay_step(&[], &[&x0], &Feeds::default());
        assert_eq!(plan.param_grad(0).unwrap().as_slice(), &want0, "plan, first input");
    }

    // ---- mixed elementwise / embedding / reorder ops --------------------

    struct MixedTape {
        g: Graph,
        x2: Var,
        params: Vec<Var>,
        loss: Var,
    }

    fn mixed_tape(
        x2: &Tensor,
        table: &Tensor,
        sv: &Tensor,
        ids: &[usize],
        mask: &Tensor,
    ) -> MixedTape {
        let mut g = Graph::new();
        let x2v = g.input(x2.clone());
        let tv = g.param(table.clone());
        let svv = g.param(sv.clone());
        let e = g.embedding(tv, ids); // [4, 6]
        let a = g.slice_cols(e, 0, 3);
        let b = g.slice_cols(e, 3, 6);
        let m = g.mul(a, b);
        let s = g.sigmoid(m);
        let cc = g.concat_cols(&[s, b]); // [4, 6]
        let sm = g.softmax_rows(cc);
        let d = g.dropout(sm, mask.clone());
        let rs = g.row_scale(d, svv);
        let t1 = g.tanh(rs);
        let sc = g.scale(t1, 0.5);
        let as1 = g.add_scalar(sc, 0.25);
        let r1 = g.slice_rows(as1, 0, 2);
        let r2 = g.slice_rows(as1, 2, 4);
        let cr = g.concat_rows(&[r2, r1]); // [4, 6]
        let rsh = g.reshape(cr, &[2, 12]);
        let su = g.sub(rsh, x2v);
        let ad = g.add(su, su);
        let l1 = g.sum_all(ad);
        let l2 = g.mean_all(cr);
        let loss = g.add(l1, l2);
        MixedTape { g, x2: x2v, params: vec![tv, svv], loss }
    }

    #[test]
    fn mixed_ops_replay_matches_tape_bitwise() {
        let table0 = t(100, &[7, 6]);
        let sv0 = t(101, &[4, 1]);
        let x20 = t(102, &[2, 12]);
        let ids0 = vec![1usize, 4, 6, 0];
        let mask0 = t(103, &[4, 6]);
        let tape = mixed_tape(&x20, &table0, &sv0, &ids0, &mask0);
        let spec = CaptureSpec {
            inputs: &[tape.x2],
            params: &tape.params,
            loss: Some(tape.loss),
            outputs: &[],
        };
        let mut plan = Plan::capture(&tape.g, &spec).expect("mixed capture");

        let table1 = t(110, &[7, 6]);
        let sv1 = t(111, &[4, 1]);
        let x21 = t(112, &[2, 12]);
        let ids1 = vec![5usize, 2, 3, 6];
        let mask1 = t(113, &[4, 6]);
        plan.replay_forward(
            &[&x21],
            &[&table1, &sv1],
            &Feeds { ids: &[&ids1], masks: &[&mask1], ..Feeds::default() },
        );
        plan.replay_backward_loss(&[&x21], &[&table1, &sv1]);

        let mut fresh = mixed_tape(&x21, &table1, &sv1, &ids1, &mask1);
        fresh.g.backward(fresh.loss);
        assert_bits(&[plan.loss()], fresh.g.value(fresh.loss).as_slice(), "mixed loss");
        for (k, &pvar) in fresh.params.iter().enumerate() {
            assert_bits(
                plan.param_grad(k).expect("grad present").as_slice(),
                fresh.g.grad(pvar).expect("tape grad").as_slice(),
                "mixed grad",
            );
        }
    }

    // ---- the two arms small shapes never reach ---------------------------
    //
    // Every add-mode gradient GEMM with a single-k-block inner dimension is
    // emitted as `GemmAcc`, and every `LstmG` with two store destinations
    // runs in place, so the fixtures above never execute the scratch-detour
    // `Gemm { mode: Add }` arm or the scratch-bounce `LstmG` arm.

    /// `a` and `w` each feed two matmuls, so the second gradient contribution
    /// to either is add-mode with inner dimension `K_DEEP`.
    const K_DEEP: usize = 300;

    fn deep_k_tape(a: &Tensor, w: &Tensor) -> (Graph, Vec<Var>, Var) {
        let mut g = Graph::new();
        let av = g.param(a.clone());
        let wv = g.param(w.clone());
        let y1 = g.matmul(av, wv);
        let t1 = g.tanh(y1);
        let y2 = g.matmul(av, wv);
        let prod = g.mul(t1, y2);
        let loss = g.mean_all(prod);
        (g, vec![av, wv], loss)
    }

    #[test]
    fn add_mode_gemm_past_one_k_block_matches_tape_bitwise() {
        assert!(!legw_tensor::gemm_single_k_block(K_DEEP));
        let (a0, w0) = (t(300, &[K_DEEP, 3]), t(301, &[3, K_DEEP]));
        let (g0, params, loss) = deep_k_tape(&a0, &w0);
        let spec = CaptureSpec { inputs: &[], params: &params, loss: Some(loss), outputs: &[] };
        let mut plan = Plan::capture(&g0, &spec).expect("deep-k capture");
        // dA is [K_DEEP, 3] and dW is [3, K_DEEP]: both detour through scratch.
        assert!(plan.stats().scratch_bytes >= 3 * K_DEEP * 4, "{}", plan.describe());
        assert!(!plan.describe().contains("GemmAcc"), "{}", plan.describe());

        let (a1, w1) = (t(310, &[K_DEEP, 3]), t(311, &[3, K_DEEP]));
        plan.replay_step(&[], &[&a1, &w1], &Feeds::default());
        let (mut fresh, fparams, floss) = deep_k_tape(&a1, &w1);
        fresh.backward(floss);
        assert_bits(&[plan.loss()], fresh.value(floss).as_slice(), "deep-k loss");
        for (k, &pvar) in fparams.iter().enumerate() {
            assert_bits(
                plan.param_grad(k).expect("grad present").as_slice(),
                fresh.grad(pvar).expect("tape grad").as_slice(),
                "deep-k grad",
            );
        }
    }

    /// `c_prev` is read again *after* the cell, so that reader's backward
    /// stores `c_prev`'s gradient first and the cell's `LstmG` must add.
    fn shared_c_prev_tape(x: &Tensor, w: &Tensor, cp: &Tensor) -> (Graph, Var, Vec<Var>, Var) {
        let mut g = Graph::new();
        let xv = g.input(x.clone());
        let wv = g.param(w.clone());
        let cpv = g.param(cp.clone());
        let pre = g.matmul(xv, wv);
        let c_prev = g.tanh(cpv);
        let (h, c) = g.lstm_cell(pre, c_prev);
        let z = g.mul(h, c_prev);
        let s = g.add(z, c);
        let loss = g.mean_all(s);
        (g, xv, vec![wv, cpv], loss)
    }

    #[test]
    fn lstm_cell_with_shared_c_prev_matches_tape_bitwise() {
        let (x0, w0, cp0) = (t(320, &[B, IN]), t(321, &[IN, 4 * H]), t(322, &[B, H]));
        let (g0, xv, params, loss) = shared_c_prev_tape(&x0, &w0, &cp0);
        let spec = CaptureSpec { inputs: &[xv], params: &params, loss: Some(loss), outputs: &[] };
        let mut plan = Plan::capture(&g0, &spec).expect("shared c_prev capture");
        // Only the scratch-bounce LstmG needs f32 scratch on this tape.
        assert_eq!(plan.stats().scratch_bytes, B * 5 * H * 4, "{}", plan.describe());

        let (x1, w1, cp1) = (t(330, &[B, IN]), t(331, &[IN, 4 * H]), t(332, &[B, H]));
        plan.replay_step(&[&x1], &[&w1, &cp1], &Feeds::default());
        let (mut fresh, _, fparams, floss) = shared_c_prev_tape(&x1, &w1, &cp1);
        fresh.backward(floss);
        assert_bits(&[plan.loss()], fresh.value(floss).as_slice(), "shared c_prev loss");
        for (k, &pvar) in fparams.iter().enumerate() {
            assert_bits(
                plan.param_grad(k).expect("grad present").as_slice(),
                fresh.grad(pvar).expect("tape grad").as_slice(),
                "shared c_prev grad",
            );
        }
    }

    // ---- capture validation & stats -------------------------------------

    #[test]
    fn capture_rejects_unlisted_param_leaf() {
        let mut g = Graph::new();
        let w = g.param(t(1, &[2, 2]));
        let w2 = g.param(t(2, &[2, 2]));
        let s = g.mul(w, w2);
        let loss = g.sum_all(s);
        // w2 is a requires_grad leaf missing from params → refuse
        let spec = CaptureSpec { inputs: &[], params: &[w], loss: Some(loss), outputs: &[] };
        assert!(Plan::capture(&g, &spec).is_none());
        let spec_ok =
            CaptureSpec { inputs: &[], params: &[w, w2], loss: Some(loss), outputs: &[] };
        assert!(Plan::capture(&g, &spec_ok).is_some());
    }

    #[test]
    fn capture_rejects_bad_loss_and_outputs() {
        let mut g = Graph::new();
        let w = g.param(t(3, &[2, 2]));
        let y = g.tanh(w);
        let loss = g.sum_all(y);
        // non-scalar loss
        let bad = CaptureSpec { inputs: &[], params: &[w], loss: Some(y), outputs: &[] };
        assert!(Plan::capture(&g, &bad).is_none());
        // leaf as output
        let bad2 = CaptureSpec { inputs: &[], params: &[w], loss: Some(loss), outputs: &[w] };
        assert!(Plan::capture(&g, &bad2).is_none());
        // no loss: a training plan would have no backward root; loss-free
        // captures are `capture_forward`'s
        let no_loss = CaptureSpec { inputs: &[], params: &[w], loss: None, outputs: &[y] };
        assert!(Plan::capture(&g, &no_loss).is_none());
        assert!(Plan::capture_forward(&g, &no_loss).is_some());
    }

    #[test]
    fn plan_stats_report_reuse() {
        let ps = lstm_params(140);
        let x = t(141, &[T * B, IN]);
        let lab = vec![0usize, 1];
        let tape = lstm_tape(&x, &ps.iter().collect::<Vec<_>>(), &lab);
        let spec = CaptureSpec {
            inputs: &tape.inputs,
            params: &tape.params,
            loss: Some(tape.loss),
            outputs: &[],
        };
        let plan = Plan::capture(&tape.g, &spec).expect("capture");
        let st = plan.stats();
        assert!(st.nodes > 0 && st.fwd_instrs > 0 && st.bwd_instrs > 0);
        assert!(st.arena_slots > 0);
        assert!(st.peak_live_bytes <= st.arena_bytes);
        assert!(st.arena_bytes > 0 && st.state_bytes > 0);
        // liveness must let at least one slot be reused on a T-step chain:
        // distinct intermediate values outnumber physical slots
        assert!(st.arena_slots < st.nodes);
        // Every add-mode GEMM here folds into GemmAcc and every LstmG runs
        // in place, so only the bias gradient's f64 column sums need scratch.
        assert_eq!(st.scratch_bytes, 4 * H * 8, "{}", plan.describe());
    }
}
