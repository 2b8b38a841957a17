//! Compiled execution plans: freeze one recorded step into a replayable
//! program with preplanned buffers.
//!
//! A tape after [`Graph::backward`] holds the whole step — the forward ops
//! and, appended after them, the gradient contributions — as kernel nodes
//! of one form ([`crate::table`]). The compile reads their shapes and the
//! leaves' values alone, so the tape may be a [`Graph::shape_only`] one,
//! which computed nothing. [`Plan::capture`] compiles it node for
//! node into instructions of that same form whose operands are resolved
//! *locations*: caller-supplied inputs and parameters, captured constants,
//! plan-owned outputs and parameter gradients, or slots of a preplanned
//! arena. A liveness pass over the program assigns every intermediate value
//! and gradient to an arena slot, reusing slots the moment their interval
//! ends, so the arena's footprint is at most the peak live set.
//!
//! [`Plan::replay_forward`] / [`Plan::replay_backward_loss`] then re-run the
//! step on new data with no tape recording, no shape checks, and no
//! per-node allocation: every instruction calls its kernel's body — the one
//! the tape ran — on storage sized at capture, so a replayed step is
//! bitwise identical to rebuilding the tape.
//!
//! The compiler keeps the tape's write protocol — a gradient's first
//! contribution stores, later ones add — and makes three decisions of its
//! own, none of which changes a bit:
//! - an add-mode GEMM whose inner dimension is one k-block accumulates
//!   in-engine ([`crate::ops_basic::GEMM_ACC`]) instead of through scratch;
//! - **weights are packed once per replay.** A GEMM whose B operand is a
//!   parameter — or a row-slice / reshape of one, like the `W_x` / `W_h`
//!   halves of an LSTM kernel — reads it through a plan-owned [`PackedB`]
//!   panel keyed by *(tape node, transpose form)*, packed from the caller's
//!   parameter at its first read in a replay and multiplied through
//!   [`legw_tensor::gemm_into_packed`] at every later one. A panel lives for
//!   one replay: [`Plan::replay_forward`] starts a new generation, the
//!   backward replay that follows keeps it, and nothing is looked up by
//!   address or kept across an optimizer step. The exception is a
//!   forward-only plan ([`Plan::capture_forward`]), an inference plan: its
//!   panels are packed once per parameter version, at their first read,
//!   and again only at [`Plan::renew`];
//! - a weight slice every reader of which became a panel GEMM is not copied
//!   into the arena at all.
//!
//! Dynamic per-step data — embedding ids, cross-entropy labels, dropout
//! masks — is fed at replay time through [`Feeds`]; everything
//! shape-changing needs another plan (callers key plans by shape).
//!
//! A plan is mutable replay state, so two threads cannot replay one plan at
//! once. `Plan::clone` is the copy that lets them: it gets its own writable
//! storage and shares what no replay writes, the captured constants and
//! the packed panels of a forward-only plan, so a copy costs the arena and
//! not the weights again.

use crate::graph::{Graph, Ins, Op, Var};
use crate::ops_basic::{COPY_BLOCK, GEMM, GEMM_ACC};
use crate::opk::Mode;
use crate::table::{kept_zeros, Attr, Entry, Io, Role, Srcs, State};
use legw_tensor::{gemm_single_k_block, pool, PackedB, Tensor};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

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
    /// Scalar loss node, the root of the tape's [`Graph::backward`].
    /// Required by [`Plan::capture`]; optional for [`Plan::capture_forward`].
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
    /// (`arena_bytes` is larger where values of different sizes cannot
    /// share slots tightly).
    pub peak_live_bytes: usize,
    /// Bytes of the op buffers (gates, probs, `x̂`…): one per op,
    /// or in a forward-only plan one shared by all.
    pub state_bytes: usize,
    /// Bytes of the shared scratch buffers (add-mode detours plus the
    /// f64 column-sum accumulators).
    pub scratch_bytes: usize,
    /// Weight operands held as packed GEMM panels (one per tape node and
    /// transpose form), and the bytes they hold right now — nothing before
    /// the first replay or [`Plan::pack_panels`]; reserved at capture, so
    /// a replay allocates none.
    pub panels: usize,
    pub panel_bytes: usize,
}

/// Where an instruction reads or writes a value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Loc {
    /// Caller input `k` of this replay.
    In(u32),
    /// Caller parameter `k` of this replay.
    Par(u32),
    /// Tensor captured from the tape (non-input, non-param leaf).
    Const(u32),
    /// Arena slot `k` (an intermediate value or gradient), whose first
    /// `len` elements hold the value: `Slot(k, len)`.
    Slot(u32, u32),
    /// Plan-owned output tensor.
    Out(u32),
    /// Gradient tensor of parameter `k`.
    Grad(u32),
    /// A weight GEMM operand: plan-owned panel `k`.
    Panel(u32),
}

/// One replay instruction: a tape node's kernel over resolved locations —
/// its sources, then its destinations, at `at` in the plan's `locs`.
#[derive(Clone)]
struct Instr {
    k: &'static Entry,
    at: u32,
    nsrc: u8,
    ndst: u8,
    mode: [Mode; 3],
    a: Attr,
    st: Option<u32>,
}

impl Instr {
    fn src(&self) -> Range<usize> {
        self.at as usize..self.at as usize + self.nsrc as usize
    }

    fn dst(&self) -> Range<usize> {
        self.src().end..self.src().end + self.ndst as usize
    }

    /// Every location the instruction reads or writes.
    fn all(&self) -> Range<usize> {
        self.src().start..self.dst().end
    }
}

/// The arena slot a location names, if any.
fn slot(l: &mut Loc) -> Option<&mut u32> {
    match l {
        Loc::Slot(v, _) => Some(v),
        _ => None,
    }
}

/// The packed form of one weight operand, owned by the plan: elements
/// `off..off + len` of parameter `par` — the parameter itself, or the
/// row-slice / reshape of it one tape node stood for — as the B of GEMMs
/// that read it with this `tb`. Shared with the plan's copies; a plan that
/// repacks a shared panel gets one of its own first.
#[derive(Clone)]
struct Panel {
    par: u32,
    off: usize,
    len: usize,
    tb: bool,
    packed: Arc<PackedB>,
    /// [`Arena::epoch`] of the replay that packed it, at least 1; 0 before
    /// its first pack.
    epoch: u64,
}

/// The storage instructions read and write by location.
pub(crate) struct Arena {
    /// Empty until [`Arena::fill`], and while [`Plan::renew`] lends them.
    slots: Vec<Vec<f32>>,
    /// Each slot's length, also while it is empty.
    sizes: Vec<usize>,
    outs: Vec<Tensor>,
    grads: Vec<Tensor>,
    consts: Vec<Tensor>,
    panels: Vec<Panel>,
    /// Counts forward replays. A panel is current iff it was packed in this
    /// epoch: parameters are only guaranteed unchanged from a forward replay
    /// to the backward replay that follows it, so no panel outlives that —
    /// unless the plan is forward-only.
    epoch: u64,
    /// Set by [`Plan::capture_forward`]: the plan has no backward, and its
    /// owner says when its parameters change (inference), so a panel, once
    /// packed, stays current until [`Plan::renew`].
    forward_only: bool,
    /// 1-element tensor used to displace an output or gradient while an
    /// instruction writes it (an `Arc` clone, so displacement never
    /// allocates).
    placeholder: Tensor,
}

/// A destination moved out of the [`Arena`] for one instruction, so its
/// sources can be read from the arena while it is written.
enum Buf {
    None,
    V(Vec<f32>, usize),
    T(Tensor),
}

impl Arena {
    pub(crate) fn read<'a>(
        &'a self,
        l: Loc,
        inputs: &[&'a Tensor],
        params: &[&'a Tensor],
    ) -> &'a [f32] {
        match l {
            Loc::In(i) => inputs[i as usize].as_slice(),
            Loc::Par(i) => params[i as usize].as_slice(),
            Loc::Const(i) => self.consts[i as usize].as_slice(),
            Loc::Slot(i, len) => &self.slots[i as usize][..len as usize],
            Loc::Out(i) => self.outs[i as usize].as_slice(),
            Loc::Grad(i) => self.grads[i as usize].as_slice(),
            Loc::Panel(_) => unreachable!("a panel is read only as a GEMM operand"),
        }
    }

    /// Panel `p`, packed this replay or, forward-only, at all.
    pub(crate) fn panel(&self, p: u32, tb: bool) -> &PackedB {
        let p = &self.panels[p as usize];
        let current = p.epoch == self.epoch || (self.forward_only && p.epoch > 0);
        debug_assert!(current && p.tb == tb, "stale or foreign panel");
        &p.packed
    }

    /// Brings panel `i` up to this replay's parameter values: packed at its
    /// first read since the last forward replay began — or, forward-only,
    /// at its first read of this parameter version — and left alone after.
    fn refresh(&mut self, i: u32, params: &[&Tensor]) {
        let p = &self.panels[i as usize];
        let stale = if self.forward_only { p.epoch == 0 } else { p.epoch != self.epoch };
        if stale {
            self.pack(i as usize, params);
        }
    }

    /// Packs panel `i` from `params`, into storage of its own if a copy
    /// shares it.
    fn pack(&mut self, i: usize, params: &[&Tensor]) {
        let p = &mut self.panels[i];
        let w = params[p.par as usize].as_slice();
        Arc::make_mut(&mut p.packed).pack(p.tb, &w[p.off..p.off + p.len]);
        p.epoch = self.epoch.max(1);
    }

    /// Lends each empty slot a buffer of this thread's pool, unzeroed (a
    /// replay writes a slot before it reads it): a plan never replayed
    /// holds no arena.
    fn fill(&mut self) {
        for (slot, &len) in self.slots.iter_mut().zip(&self.sizes) {
            if slot.is_empty() {
                *slot = pool::lend(len);
            }
        }
    }

    /// A copy with storage of its own for everything a replay writes —
    /// slots, outputs, gradients — sized alike and allocated exactly on
    /// this thread; the constants and panels are shared.
    fn copy(&self) -> Arena {
        let own = |ts: &[Tensor]| ts.iter().map(|t| kept_zeros(t.shape())).collect();
        Arena {
            slots: self.sizes.iter().map(|&s| vec![0.0; s]).collect(),
            sizes: self.sizes.clone(),
            outs: own(&self.outs),
            grads: own(&self.grads),
            consts: self.consts.clone(),
            panels: self.panels.clone(),
            epoch: self.epoch,
            forward_only: self.forward_only,
            placeholder: Tensor::zeros(&[1]),
        }
    }

    fn take(&mut self, l: Loc) -> Buf {
        let ph = || self.placeholder.clone();
        match l {
            Loc::Slot(i, len) => Buf::V(std::mem::take(&mut self.slots[i as usize]), len as usize),
            Loc::Out(i) => Buf::T(std::mem::replace(&mut self.outs[i as usize], ph())),
            Loc::Grad(i) => Buf::T(std::mem::replace(&mut self.grads[i as usize], ph())),
            _ => unreachable!("{l:?} is not writable"),
        }
    }

    fn put(&mut self, l: Loc, b: Buf) {
        match (l, b) {
            (Loc::Slot(i, _), Buf::V(v, _)) => self.slots[i as usize] = v,
            (Loc::Out(i), Buf::T(t)) => self.outs[i as usize] = t,
            (Loc::Grad(i), Buf::T(t)) => self.grads[i as usize] = t,
            _ => unreachable!("destination kind changed between take and put"),
        }
    }
}

impl Buf {
    fn slice(&mut self) -> &mut [f32] {
        match self {
            Buf::None => &mut [],
            Buf::V(v, len) => &mut v[..*len],
            Buf::T(t) => t.as_mut_slice(),
        }
    }
}

/// A captured, replayable training/inference step.
///
/// Created by [`Plan::capture`]; replays are driven by
/// [`Plan::replay_forward`] followed by [`Plan::replay_backward_loss`]
/// (together: [`Plan::replay_step`]). At steady state a replay performs
/// **zero** buffer-pool allocations: every destination was sized at capture.
pub struct Plan {
    /// Forward instructions, then backward ones.
    prog: Vec<Instr>,
    /// Every instruction's locations.
    locs: Vec<Loc>,
    nfwd: usize,
    arena: Arena,
    states: Vec<State>,
    /// The op buffers ([`State::buf`]), state `s`'s `buf_len[s]` long: one
    /// per state, or in a forward-only plan one shared by every op and
    /// sized to the largest. Sharing is sound because a forward body writes
    /// its whole buffer before reading any of it, and only the op's
    /// backward reads what the forward left there.
    bufs: Vec<Vec<f32>>,
    buf_len: Vec<usize>,
    /// Shared scratch: f32 for add-mode detours, f64 for column sums.
    scratch: Vec<f32>,
    acc: Vec<f64>,
    /// The states fed per replay, per [`Feeds`] field, in node order.
    feed_ids: Vec<u32>,
    feed_labels: Vec<u32>,
    feed_masks: Vec<u32>,
    /// BatchNorm states in node order.
    bns: Vec<u32>,
    in_shapes: Vec<Vec<usize>>,
    par_shapes: Vec<Vec<usize>>,
    /// Per `spec.outputs` entry, the index into the plan's outputs.
    out_of_k: Vec<u32>,
    loss_out: Option<u32>,
    /// Per param, whether any gradient flows to it.
    par_grad_present: Vec<bool>,
    stats: PlanStats,
}

impl Plan {
    /// Compiles a tape after [`Graph::backward`] from `spec.loss` — its
    /// forward and its backward — into a plan. `spec.outputs` are values,
    /// never gradient roots. A capture without a loss is
    /// [`Plan::capture_forward`]'s.
    ///
    /// # Panics
    /// When `spec` does not describe the tape, a bug in the caller: an empty
    /// tape, a `spec.params` / `spec.inputs` entry that is not a leaf of
    /// that kind or is listed twice, a `requires_grad` leaf missing from
    /// `spec.params`, a leaf or repeated output, a loss that is missing,
    /// non-scalar, not differentiable or not the root of the tape's
    /// backward. There is no op a plan cannot replay.
    pub fn capture(g: &Graph, spec: &CaptureSpec) -> Plan {
        let loss = spec.loss.expect("Plan::capture needs a loss; capture_forward takes none");
        let root = g.bwd.map(|(root, _)| root);
        assert!(root == Some(loss), "the loss is not the root of the tape's backward");
        compile(g, spec, g.nodes.len())
    }

    /// Forward-only capture for inference: compiles the forward ops alone —
    /// no gradient slots, no backward instructions, and no per-parameter
    /// gradient buffers (frozen-model serving never reads them), whether or
    /// not the tape went on to record a backward. Liveness runs over the
    /// forward alone, so intermediates die at their last forward use and the
    /// arena is much smaller than a training plan's. A `spec.loss` is still
    /// computed as a forward output (so [`Plan::loss`] works), but
    /// [`Plan::replay_backward_loss`] panics on a plan captured this way.
    /// Panics on a `spec` that does not describe the tape, as
    /// [`Plan::capture`] does.
    ///
    /// Each weight panel is packed once per parameter version, at its first
    /// read (or by [`Plan::pack_panels`]) and again at [`Plan::renew`],
    /// so a replay packs only its activations. A version's replays must be
    /// given the parameter values its panels were packed from, under their
    /// kernel tier and bf16 scope (a panel packed under another refuses to
    /// multiply).
    pub fn capture_forward(g: &Graph, spec: &CaptureSpec) -> Plan {
        compile(g, spec, g.bwd.map_or(g.nodes.len(), |(_, start)| start))
    }

    /// Re-executes the forward program on new data. `inputs` / `params`
    /// are in `spec` order and must match the captured shapes; a
    /// forward-only plan's `params` must be the values its panels were
    /// packed from.
    pub fn replay_forward(&mut self, inputs: &[&Tensor], params: &[&Tensor], feeds: &Feeds) {
        // New parameter values may arrive with every forward replay: whatever
        // the weight panels hold is stale from here on.
        self.arena.epoch += 1;
        self.check_bindings(inputs, params);
        self.load_feeds(feeds);
        self.run(0..self.nfwd, inputs, params);
    }

    /// Packs now, from `params`, every panel no replay has packed yet,
    /// under the calling thread's kernel tier and bf16 scope, to be kept:
    /// what a copy of a forward-only plan made after this shares instead of
    /// packing its own. For a forward-only plan; a training plan's next
    /// forward replay repacks every panel regardless.
    pub fn pack_panels(&mut self, params: &[&Tensor]) {
        assert_eq!(params.len(), self.par_shapes.len(), "param count mismatch");
        for i in 0..self.arena.panels.len() {
            if self.arena.panels[i].epoch == 0 {
                self.arena.pack(i, params);
            }
        }
    }

    /// For a forward-only plan used now and then: `None` lends its arena
    /// slots to this thread's buffer pool; `Some(params)` fills the empty
    /// ones from it and starts a parameter version, every panel packed now
    /// from `params`, under this thread's kernel tier and bf16 scope, into
    /// storage of its own if shared.
    pub fn renew(&mut self, params: Option<&[&Tensor]>) {
        assert!(self.arena.forward_only, "renew on a training plan");
        let arena = &mut self.arena;
        match params {
            None => arena.slots.iter_mut().map(std::mem::take).for_each(pool::give_back),
            Some(params) => {
                arena.fill();
                (0..arena.panels.len()).for_each(|i| arena.pack(i, params));
            }
        }
    }

    /// Runs the backward program, seeded with `dL/dL = 1`.
    /// `inputs` / `params` must be the same tensors passed to the
    /// preceding [`Plan::replay_forward`], unchanged since, and the kernel
    /// tier and bf16 scope must be the ones it ran under: the weight panels
    /// it packed are reused here.
    ///
    /// # Panics
    /// If the plan was captured with [`Plan::capture_forward`].
    pub fn replay_backward_loss(&mut self, inputs: &[&Tensor], params: &[&Tensor]) {
        assert!(!self.arena.forward_only, "replay_backward_loss on a forward-only plan");
        self.run(self.nfwd..self.prog.len(), inputs, params);
    }

    /// Forward + loss-seeded backward in one call — the common training
    /// step.
    pub fn replay_step(&mut self, inputs: &[&Tensor], params: &[&Tensor], feeds: &Feeds) {
        self.replay_forward(inputs, params, feeds);
        self.replay_backward_loss(inputs, params);
    }

    /// One-line schedule summary: instruction counts by kernel (in first-
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
        for ins in &self.prog {
            match counts.iter_mut().find(|(n, _)| *n == ins.k.name) {
                Some(e) => e.1 += 1,
                None => counts.push((ins.k.name, 1)),
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
        self.arena.outs[k].as_slice()[0]
    }

    /// Output `k` (in `spec.outputs` order) of the last replay. The
    /// returned tensor shares the plan's buffer (`Arc` clone); the next
    /// replay copies-on-write if the caller still holds it.
    pub fn output(&self, k: usize) -> Tensor {
        self.arena.outs[self.out_of_k[k] as usize].clone()
    }

    /// Gradient of parameter `k` after the last backward replay, or `None`
    /// when no gradient flows to it (the tape would yield a zero tensor via
    /// `leaf_grads`).
    pub fn param_grad(&self, k: usize) -> Option<&Tensor> {
        self.par_grad_present[k].then(|| &self.arena.grads[k])
    }

    /// Batch statistics `(mean, var)` of every BatchNorm op, in node
    /// order, from the last forward replay — what a layer's running
    /// averages consume, and the list [`Graph::bn_batch_stats`] gives for
    /// the tape.
    pub fn bn_batch_stats(&self) -> Vec<(&[f32], &[f32])> {
        self.bns.iter().map(|&s| self.states[s as usize].bn_batch_stats()).collect()
    }

    /// Footprint of the compiled schedule.
    pub fn stats(&self) -> PlanStats {
        let panel_bytes = self.arena.panels.iter().map(|p| p.packed.bytes()).sum();
        PlanStats { panel_bytes, ..self.stats }
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
        let counts = [
            (feeds.ids.len(), self.feed_ids.len(), "embedding id lists"),
            (feeds.labels.len(), self.feed_labels.len(), "label lists"),
            (feeds.masks.len(), self.feed_masks.len(), "dropout masks"),
        ];
        for (fed, want, what) in counts {
            assert!(fed == 0 || fed == want, "feed all {want} {what} or none");
        }
        let ids = self.feed_ids.iter().zip(feeds.ids);
        for (&s, src) in ids.chain(self.feed_labels.iter().zip(feeds.labels)) {
            let dst = &mut self.states[s as usize].ids;
            assert_eq!(dst.len(), src.len(), "id and label counts are shape-static");
            dst.copy_from_slice(src);
        }
        for (&s, src) in self.feed_masks.iter().zip(feeds.masks) {
            let dst = &mut self.states[s as usize].mask;
            let shape = dst.as_ref().map(Tensor::shape);
            assert_eq!(shape, Some(src.shape()), "dropout mask shape is static");
            *dst = Some((*src).clone());
        }
    }

    /// Executes instructions `range`: for each, take its destinations out of
    /// the arena, call the kernel on them and on its sources where they
    /// live, and put them back.
    fn run(&mut self, range: Range<usize>, inputs: &[&Tensor], params: &[&Tensor]) {
        self.arena.fill();
        for ins in &self.prog[range] {
            let (src, dst) = (&self.locs[ins.src()], &self.locs[ins.dst()]);
            for &l in src {
                if let Loc::Panel(p) = l {
                    self.arena.refresh(p, params);
                }
            }
            let mut bufs: [Buf; 3] =
                std::array::from_fn(|j| dst.get(j).map_or(Buf::None, |&d| self.arena.take(d)));
            let mut it = bufs.iter_mut().map(Buf::slice);
            let (st, buf): (_, &mut [f32]) = match ins.st.map(|s| s as usize) {
                Some(s) => {
                    let b = if self.arena.forward_only { 0 } else { s };
                    (Some(&mut self.states[s]), &mut self.bufs[b][..self.buf_len[s]])
                }
                None => (None, &mut []),
            };
            (ins.k.run)(&mut Io {
                a: &ins.a,
                src: Srcs::Plan(&self.arena, src, inputs, params),
                out: std::array::from_fn(|_| it.next().unwrap_or_default()),
                mode: ins.mode,
                st,
                buf,
                scratch: &mut self.scratch,
                acc: &mut self.acc,
            });
            for (&d, b) in dst.iter().zip(bufs) {
                self.arena.put(d, b);
            }
        }
    }
}

/// The copy: the same program over storage of its own for everything a
/// replay writes — arena slots, outputs, gradients, op states and buffers,
/// scratch — allocated on the calling thread, and the captured constants
/// and weight panels shared with `self`. A copy replays independently of
/// the original and bitwise like it. The packed panels of a forward-only
/// plan stay shared for their parameter version ([`Plan::pack_panels`]
/// packs them before the copy); a panel that is packed again is packed
/// into storage of its own.
impl Clone for Plan {
    fn clone(&self) -> Plan {
        Plan {
            prog: self.prog.clone(),
            locs: self.locs.clone(),
            nfwd: self.nfwd,
            arena: self.arena.copy(),
            states: self.states.iter().map(State::fresh).collect(),
            bufs: self.bufs.iter().map(|b| vec![0.0; b.len()]).collect(),
            buf_len: self.buf_len.clone(),
            scratch: vec![0.0; self.scratch.len()],
            acc: vec![0.0; self.acc.len()],
            feed_ids: self.feed_ids.clone(),
            feed_labels: self.feed_labels.clone(),
            feed_masks: self.feed_masks.clone(),
            bns: self.bns.clone(),
            in_shapes: self.in_shapes.clone(),
            par_shapes: self.par_shapes.clone(),
            out_of_k: self.out_of_k.clone(),
            loss_out: self.loss_out,
            par_grad_present: self.par_grad_present.clone(),
            stats: self.stats,
        }
    }
}

/// Compiles nodes `0..n` of `g`: the forward alone when `n` is where the
/// tape's backward starts, the whole tape otherwise.
fn compile(g: &Graph, spec: &CaptureSpec, n: usize) -> Plan {
    assert!(n > 0, "capture of an empty tape");
    let fwd_end = g.bwd.map_or(n, |(_, start)| start.min(n));
    let forward_only = fwd_end == n;
    let numel = |i: usize| g.nodes[i].shape.numel();

    // ---- every leaf is an input, a parameter or a captured constant
    let mut loc: Vec<Option<Loc>> = vec![None; n];
    for (k, &v) in spec.params.iter().enumerate() {
        let node = &g.nodes[v.0];
        let ok = matches!(node.op, Op::Leaf) && node.requires_grad && loc[v.0].is_none();
        assert!(ok, "spec.params[{k}] is not a parameter leaf, or is listed twice");
        loc[v.0] = Some(Loc::Par(k as u32));
    }
    for (k, &v) in spec.inputs.iter().enumerate() {
        let node = &g.nodes[v.0];
        let ok = matches!(node.op, Op::Leaf) && !node.requires_grad && loc[v.0].is_none();
        assert!(ok, "spec.inputs[{k}] is not an input leaf, or is listed twice");
        loc[v.0] = Some(Loc::In(k as u32));
    }
    let mut consts: Vec<Tensor> = Vec::new();
    for (i, node) in g.nodes[..n].iter().enumerate() {
        if matches!(node.op, Op::Leaf) && loc[i].is_none() {
            // Its leaf_grads entry could not be served.
            assert!(!node.requires_grad, "requires_grad leaf {i} is not in spec.params");
            loc[i] = Some(Loc::Const(consts.len() as u32));
            consts.push(g.value(Var(i)).clone());
        }
    }

    // ---- outputs get plan-owned tensors; the loss is a hidden output
    let mut outs: Vec<Tensor> = Vec::new();
    let mut out_of_k: Vec<u32> = Vec::with_capacity(spec.outputs.len());
    for (k, &v) in spec.outputs.iter().enumerate() {
        // Leaves aren't computed; duplicates would race.
        let ok = v.0 < fwd_end && loc[v.0].is_none();
        assert!(ok, "spec.outputs[{k}] is a leaf, a gradient or listed twice");
        loc[v.0] = Some(Loc::Out(outs.len() as u32));
        out_of_k.push(outs.len() as u32);
        outs.push(kept_zeros(&g.shape(v)));
    }
    let mut loss_out = None;
    if let Some(l) = spec.loss {
        let node = &g.nodes[l.0];
        let ok = node.shape.numel() == 1 && node.requires_grad && !matches!(node.op, Op::Leaf);
        assert!(ok, "the loss is not a computed, differentiable scalar");
        if loc[l.0].is_none() {
            loc[l.0] = Some(Loc::Out(outs.len() as u32));
            outs.push(kept_zeros(node.shape.dims()));
        }
        loss_out = match loc[l.0] {
            Some(Loc::Out(k)) => Some(k),
            _ => None,
        };
    }

    // ---- parameter gradients go straight to plan-owned tensors
    let grad_of = |v: Var| g.grads.get(v.0).copied().flatten().filter(|_| !forward_only);
    for (k, &p) in spec.params.iter().enumerate() {
        if let Some(acc) = grad_of(p) {
            loc[acc.0] = Some(Loc::Grad(k as u32));
        }
    }
    let slot_of = |i: usize| Loc::Slot(i as u32, numel(i) as u32);
    let loc: Vec<Loc> =
        loc.into_iter().enumerate().map(|(i, l)| l.unwrap_or_else(|| slot_of(i))).collect();

    // ---- weight views: nodes whose value is a contiguous block
    // `(param, offset, len)` of a caller parameter — the parameter leaf, or a
    // chain of row-slices / reshapes of it. A GEMM reading one as its B
    // operand packs straight from the parameter into a plan-owned panel,
    // keyed by (tape node, transpose form): by what the operand *is*, never
    // by where its bytes happen to sit at replay.
    let mut view: Vec<Option<(u32, usize, usize)>> = vec![None; fwd_end];
    for i in 0..fwd_end {
        view[i] = match (&g.nodes[i].op, loc[i]) {
            (Op::Leaf, Loc::Par(k)) => Some((k, 0, numel(i))),
            (Op::K(Ins { k, src, a: Attr::Block { src_off, dst_off: 0 }, .. }), _)
                if k.is(&COPY_BLOCK) && src.len() == 1 =>
            {
                view[src[0].0].map(|(par, off, _)| (par, off + src_off, numel(i)))
            }
            _ => None,
        };
    }
    let mut panels: Vec<Panel> = Vec::new();
    let mut panel_of: HashMap<(usize, bool), u32> = HashMap::new();

    // ---- one instruction per kernel node (per source of a row copy)
    let mut prog: Vec<(usize, Instr)> = Vec::new();
    let mut locs: Vec<Loc> = Vec::new();
    let mut push = |i, k, src: &[Loc], dst: &[Loc], mode, a, st| {
        let (at, nsrc, ndst) = (locs.len() as u32, src.len() as u8, dst.len() as u8);
        locs.extend(src.iter().chain(dst));
        prog.push((i, Instr { k, at, nsrc, ndst, mode, a, st }));
    };
    let (mut scratch, mut acc) = (0, 0);
    for (i, node) in g.nodes[..n].iter().enumerate() {
        let Op::K(ins) = &node.op else { continue };
        let mut src: Vec<Loc> = ins.src.iter().map(|v| loc[v.0]).collect();
        if let Some((j, gm)) = ins.a.gemm() {
            if let Some((par, off, len)) = view.get(ins.src[j].0).copied().flatten() {
                debug_assert_eq!(len, gm.k * gm.n, "weight view does not match its GEMM");
                let p = *panel_of.entry((ins.src[j].0, gm.tb)).or_insert_with(|| {
                    let packed = Arc::new(PackedB::new(gm.k, gm.n));
                    panels.push(Panel { par, off, len, tb: gm.tb, packed, epoch: 0 });
                    (panels.len() - 1) as u32
                });
                src[j] = Loc::Panel(p);
            }
        }
        let dst: Vec<Loc> = ins.dst.iter().map(|&(v, _)| loc[v.0]).collect();
        let mode = std::array::from_fn(|j| ins.dst.get(j).map_or(Mode::Store, |d| d.1));
        let one_k = matches!(ins.a, Attr::Gemm(g) if gemm_single_k_block(g.k));
        let k = if ins.k.is(&GEMM) && mode[0] == Mode::Add && one_k { &GEMM_ACC } else { ins.k };
        let lens: Vec<usize> = ins.dst.iter().map(|&(v, _)| numel(v.0)).collect();
        let (f, d) = k.scratch(&mode[..lens.len()], &lens);
        (scratch, acc) = (scratch.max(f), acc.max(d));
        if let (true, Attr::Block { src_off, mut dst_off }) = (k.is(&COPY_BLOCK), ins.a) {
            for (&l, v) in src.iter().zip(&ins.src) {
                push(i, k, &[l], &dst, mode, Attr::Block { src_off, dst_off }, None);
                dst_off += (numel(v.0) - src_off).min(numel(i) - dst_off);
            }
        } else {
            push(i, k, &src, &dst, mode, ins.a, ins.st);
        }
    }

    // ---- a weight view whose every reader became a panel GEMM is no
    // longer read from the arena: drop the copy that would fill its slot. A
    // view some other instruction still reads — or one that is a plan
    // output — keeps its copy.
    let mut touches = vec![0usize; n];
    for (_, ins) in &prog {
        locs[ins.all()].iter_mut().filter_map(slot).for_each(|v| touches[*v as usize] += 1);
    }
    let is_view = |v: u32| view.get(v as usize).is_some_and(Option::is_some);
    prog.retain(|(_, ins)| match locs[ins.dst().start] {
        Loc::Slot(v, _) => !(ins.k.is(&COPY_BLOCK) && is_view(v) && touches[v as usize] == 1),
        _ => true,
    });

    // ---- liveness: each slot lives from its first to its last toucher
    let mut uses: Vec<Option<(usize, usize)>> = vec![None; n];
    for (pos, (_, ins)) in prog.iter().enumerate() {
        for &mut v in locs[ins.all()].iter_mut().filter_map(slot) {
            uses[v as usize].get_or_insert((pos, pos)).1 = pos;
        }
    }

    // ---- the peak live set: a value counts from its first toucher to its
    // last, both included.
    let mut delta = vec![0isize; prog.len() + 1];
    for (v, &u) in uses.iter().enumerate() {
        if let Some((first, last)) = u {
            delta[first] += numel(v) as isize;
            delta[last + 1] -= numel(v) as isize;
        }
    }
    let mut live = 0;
    let peak = delta.iter().map(|d| {
        live += d;
        live
    });
    let peak = peak.max().unwrap_or(0) as usize * 4;

    // ---- physical slots, greedy by size: largest value first, each into
    // the first slot whose values' intervals its own does not touch, else
    // into a new slot of its size. Two values sharing a position never
    // share a slot, so no instruction's source is its own destination.
    let mut order: Vec<usize> = (0..n).filter(|&v| uses[v].is_some()).collect();
    order.sort_by_key(|&v| (std::cmp::Reverse(numel(v)), uses[v]));
    let mut phys_sizes: Vec<usize> = Vec::new();
    let mut held: Vec<Vec<(usize, usize)>> = Vec::new();
    let mut slot_map = vec![0u32; n];
    for v in order {
        let (first, last) = uses[v].expect("a used value");
        let apart = |&(a, b): &(usize, usize)| b < first || a > last;
        let phys = match held.iter().position(|iv| iv.iter().all(apart)) {
            Some(p) => p,
            None => {
                phys_sizes.push(numel(v));
                held.push(Vec::new());
                held.len() - 1
            }
        };
        held[phys].push((first, last));
        slot_map[v] = phys as u32;
    }
    for (_, ins) in &prog {
        locs[ins.all()].iter_mut().filter_map(slot).for_each(|v| *v = slot_map[*v as usize]);
    }

    // ---- storage + stats
    let states: Vec<State> = g.states.iter().map(State::fresh).collect();
    let buf_len: Vec<usize> = g.states.iter().map(|s| s.buf_len).collect();
    let bufs: Vec<Vec<f32>> = if forward_only {
        vec![vec![0.0; buf_len.iter().copied().max().unwrap_or(0)]]
    } else {
        buf_len.iter().map(|&len| vec![0.0; len]).collect()
    };
    let mut feeds: [Vec<u32>; 4] = Default::default();
    for node in &g.nodes[..fwd_end] {
        if let Op::K(ins) = &node.op {
            let roles = [Role::Ids, Role::Labels, Role::Mask, Role::Bn];
            if let (Some(r), Some(s)) = (roles.iter().position(|&r| r == ins.k.role), ins.st) {
                feeds[r].push(s);
            }
        }
    }
    let nfwd = prog.iter().take_while(|(i, _)| *i < fwd_end).count();
    let [feed_ids, feed_labels, feed_masks, bns] = feeds;
    let stats = PlanStats {
        nodes: n,
        fwd_instrs: nfwd,
        bwd_instrs: prog.len() - nfwd,
        arena_slots: phys_sizes.len(),
        arena_bytes: phys_sizes.iter().sum::<usize>() * 4,
        peak_live_bytes: peak,
        state_bytes: bufs.iter().map(Vec::len).sum::<usize>() * 4,
        scratch_bytes: scratch * 4 + acc * 8,
        panels: panels.len(),
        panel_bytes: 0,
    };
    let shapes = |vs: &[Var]| vs.iter().map(|&v| g.shape(v)).collect();
    Plan {
        prog: prog.into_iter().map(|(_, ins)| ins).collect(),
        locs,
        nfwd,
        arena: Arena {
            slots: phys_sizes.iter().map(|_| Vec::new()).collect(),
            sizes: phys_sizes,
            outs,
            // A forward-only plan never reads or writes parameter gradients,
            // so don't double the frozen parameters' memory with zeros.
            grads: spec
                .params
                .iter()
                .map(|&v| if forward_only { Tensor::zeros(&[1]) } else { kept_zeros(&g.shape(v)) })
                .collect(),
            consts,
            panels,
            epoch: 0,
            forward_only,
            placeholder: Tensor::zeros(&[1]),
        },
        states,
        bufs,
        buf_len,
        scratch: vec![0.0; scratch],
        acc: vec![0.0; acc],
        feed_ids,
        feed_labels,
        feed_masks,
        bns,
        in_shapes: shapes(spec.inputs),
        par_shapes: shapes(spec.params),
        out_of_k,
        loss_out,
        par_grad_present: spec.params.iter().map(|&p| grad_of(p).is_some()).collect(),
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legw_tensor::kernels::{self, Kernel};
    use legw_tensor::Conv2dGeom;

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
        let mut plan = Plan::capture(&tape.g, &spec);

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

    /// How many weight panels `a` and `b` hold in one storage.
    fn shared_panels(a: &Plan, b: &Plan) -> usize {
        let pairs = a.arena.panels.iter().zip(&b.arena.panels);
        pairs.filter(|(p, q)| Arc::ptr_eq(&p.packed, &q.packed)).count()
    }

    /// A copy replays on its own: other data and parameters, bitwise the
    /// tape's, while the original keeps what its last replay left. A copy
    /// of a training plan packs panels of its own; a forward-only plan's
    /// copies share its panels, and keep sharing them through replays.
    #[test]
    fn a_copy_replays_alone_and_shares_only_frozen_panels() {
        let ps0 = mlp_params(11);
        let x0 = t(20, &[4, 8]);
        let lab0 = vec![0usize, 3, 1, 2];
        let pr0: Vec<&Tensor> = ps0.iter().collect();
        let mut tape = mlp_tape(&x0, &pr0, &lab0);
        tape.g.backward(tape.loss);
        let spec = CaptureSpec {
            inputs: &[tape.x],
            params: &tape.params,
            loss: Some(tape.loss),
            outputs: &[],
        };
        let mut plan = Plan::capture(&tape.g, &spec);
        plan.replay_step(&[&x0], &pr0, &Feeds { labels: &[&lab0], ..Feeds::default() });
        let (loss0, grad0) = (plan.loss(), plan.param_grad(0).unwrap().as_slice().to_vec());

        let mut copy = plan.clone();
        let ps1 = mlp_params(77);
        let x1 = t(21, &[4, 8]);
        let lab1 = vec![2usize, 0, 3, 3];
        let pr1: Vec<&Tensor> = ps1.iter().collect();
        copy.replay_step(&[&x1], &pr1, &Feeds { labels: &[&lab1], ..Feeds::default() });
        let mut fresh = mlp_tape(&x1, &pr1, &lab1);
        fresh.g.backward(fresh.loss);
        assert_bits(&[copy.loss()], fresh.g.value(fresh.loss).as_slice(), "copy loss");
        for (k, &pvar) in fresh.params.iter().enumerate() {
            let want = fresh.g.grad(pvar).expect("tape grad").as_slice();
            assert_bits(copy.param_grad(k).expect("grad").as_slice(), want, "copy grad");
        }
        assert_bits(&[plan.loss()], &[loss0], "the original's loss");
        assert_bits(plan.param_grad(0).unwrap().as_slice(), &grad0, "the original's grad");
        let (own, orig) = (copy.stats(), plan.stats());
        assert!(own.panel_bytes > 0 && own.panel_bytes == orig.panel_bytes);
        assert_eq!(shared_panels(&plan, &copy), 0, "a training plan's copy repacks apart");

        let mut frozen = Plan::capture_forward(&tape.g, &spec);
        frozen.pack_panels(&pr0);
        let mut copy = frozen.clone();
        let packed = frozen.stats();
        assert!(packed.panel_bytes > 0 && copy.stats().panel_bytes == packed.panel_bytes);
        assert_eq!(shared_panels(&frozen, &copy), packed.panels, "one set of panels, not two");
        let feeds = Feeds { labels: &[&lab1], ..Feeds::default() };
        copy.replay_forward(&[&x1], &pr0, &feeds);
        frozen.replay_forward(&[&x0], &pr0, &Feeds { labels: &[&lab0], ..Feeds::default() });
        let fresh = mlp_tape(&x1, &pr0, &lab1);
        assert_bits(&[copy.loss()], fresh.g.value(fresh.loss).as_slice(), "frozen copy loss");
        assert_bits(&[frozen.loss()], &[loss0], "the frozen original's loss");
        assert_eq!(shared_panels(&frozen, &copy), packed.panels, "no replay repacks them");
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
        g.backward(loss);
        let spec = CaptureSpec { inputs: &[xv], params: &pv, loss: None, outputs: &[o] };
        let mut full = Plan::capture(&g, &CaptureSpec { loss: Some(loss), ..spec });
        let mut fwd = Plan::capture_forward(&g, &spec);
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
        let mut plan = Plan::capture_forward(&tape.g, &spec);
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
        let mut tape = lstm_tape(&x0, &ps0.iter().collect::<Vec<_>>(), &lab0);
        tape.g.backward(tape.loss);
        let spec = CaptureSpec {
            inputs: &tape.inputs,
            params: &tape.params,
            loss: Some(tape.loss),
            outputs: &[],
        };
        let mut plan = Plan::capture(&tape.g, &spec);

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
        let mut tape = lstm_tape(&x, &ps.iter().collect::<Vec<_>>(), &lab);
        tape.g.backward(tape.loss);
        let spec = CaptureSpec {
            inputs: &tape.inputs,
            params: &tape.params,
            loss: Some(tape.loss),
            outputs: &[],
        };
        let mut plan = Plan::capture(&tape.g, &spec);
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
    fn fused_lstm_tape(
        mut g: Graph,
        x_pack: &Tensor,
        ps: &[&Tensor],
        labels: &[usize],
        reg: bool,
    ) -> LstmTape {
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

    /// Captures the fused-kernel chain from shapes and drops the capture
    /// tape, so the parameter tensors are unshared again (as in the
    /// trainer, where an optimizer step then updates them in place).
    fn fused_lstm_plan(ps: &[Tensor], reg: bool) -> Plan {
        let (x, ps) = (t(200, &[T * B, IN]), ps.iter().collect::<Vec<_>>());
        let mut tape = fused_lstm_tape(Graph::shape_only(), &x, &ps, &[0, 1], reg);
        tape.g.backward(tape.loss);
        let spec = CaptureSpec {
            inputs: &tape.inputs,
            params: &tape.params,
            loss: Some(tape.loss),
            outputs: &[],
        };
        Plan::capture(&tape.g, &spec)
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
        let mut fresh = fused_lstm_tape(Graph::new(), &x, &pr, &lab, reg);
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
        plan.prog.iter().filter(|i| i.k.name == kind).count()
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
        // The copy lands in an arena slot that holds all of W_h ([H, 4H]).
        let copy = reg.prog.iter().find(|i| i.k.is(&COPY_BLOCK)).expect("the W_h copy");
        let Loc::Slot(k, len) = reg.locs[copy.dst().start] else {
            panic!("the W_h copy writes {:?}, not a slot", reg.locs[copy.dst().start]);
        };
        assert_eq!(len as usize, H * 4 * H, "{}", reg.describe());
        assert!(reg.arena.sizes[k as usize] >= H * 4 * H);
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

    fn conv_tape(mut g: Graph, x: &Tensor, ps: &[&Tensor], labels: &[usize]) -> ConvTape {
        let geom = Conv2dGeom { c: 3, h: 6, w: 6, kh: 3, kw: 3, stride: 1, pad: 1 };
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
        let mut tape = conv_tape(Graph::shape_only(), &x0, &ps0.iter().collect::<Vec<_>>(), &lab0);
        tape.g.backward(tape.loss);
        let spec = CaptureSpec {
            inputs: &[tape.x],
            params: &tape.params,
            loss: Some(tape.loss),
            outputs: &[],
        };
        let mut plan = Plan::capture(&tape.g, &spec);

        let ps1 = conv_params(72);
        let x1 = t(81, &[2, 3, 6, 6]);
        let lab1 = vec![1usize, 0];
        let pr: Vec<&Tensor> = ps1.iter().collect();
        plan.replay_step(&[&x1], &pr, &Feeds { labels: &[&lab1], ..Feeds::default() });

        let mut fresh = conv_tape(Graph::new(), &x1, &pr, &lab1);
        fresh.g.backward(fresh.loss);
        assert_bits(&[plan.loss()], fresh.g.value(fresh.loss).as_slice(), "conv loss");
        for (k, &pvar) in fresh.params.iter().enumerate() {
            assert_bits(
                plan.param_grad(k).expect("grad present").as_slice(),
                fresh.g.grad(pvar).expect("tape grad").as_slice(),
                "conv grad",
            );
        }
        // replayed batch statistics must equal the tape's, which equal a
        // fresh pass over the normalised input
        let stats = plan.bn_batch_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(fresh.g.bn_batch_stats(), stats);
        let (tm, tv) = Graph::batch_norm_stats(fresh.g.value(tape_conv_out(&fresh)));
        assert_bits(stats[0].0, &tm, "bn mean");
        assert_bits(stats[0].1, &tv, "bn var");
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
        let mut plan = Plan::capture(&g, &spec);
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
        mut g: Graph,
        x2: &Tensor,
        table: &Tensor,
        sv: &Tensor,
        ids: &[usize],
        mask: &Tensor,
    ) -> MixedTape {
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
        let mut tape = mixed_tape(Graph::shape_only(), &x20, &table0, &sv0, &ids0, &mask0);
        tape.g.backward(tape.loss);
        let spec = CaptureSpec {
            inputs: &[tape.x2],
            params: &tape.params,
            loss: Some(tape.loss),
            outputs: &[],
        };
        let mut plan = Plan::capture(&tape.g, &spec);

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

        let mut fresh = mixed_tape(Graph::new(), &x21, &table1, &sv1, &ids1, &mask1);
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

    /// A shape-only tape records the eager tape's nodes and runs no kernel:
    /// no output has a value, and the two compile into the same program.
    #[test]
    fn a_shape_only_tape_compiles_the_eager_tapes_program() {
        let (table, sv, x2, mask) = (t(1, &[7, 6]), t(2, &[4, 1]), t(3, &[2, 12]), t(4, &[4, 6]));
        let ids = [1usize, 4, 6, 0];
        let plans = [Graph::new(), Graph::shape_only()].map(|g| {
            let mut tape = mixed_tape(g, &x2, &table, &sv, &ids, &mask);
            tape.g.backward(tape.loss);
            let (params, loss) = (&tape.params[..], Some(tape.loss));
            let spec = CaptureSpec { inputs: &[tape.x2], params, loss, outputs: &[] };
            let plan = Plan::capture(&tape.g, &spec);
            let computed = tape.g.nodes.iter().filter(|n| matches!(n.op, Op::Out | Op::K(_)));
            (computed.filter(|n| n.value.is_some()).count(), plan.describe())
        });
        assert!(plans[0].0 > 0);
        assert_eq!(plans[1].0, 0, "a shape-only tape computes nothing");
        assert_eq!(plans[0].1, plans[1].1);
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
        let (mut g0, params, loss) = deep_k_tape(&a0, &w0);
        g0.backward(loss);
        let spec = CaptureSpec { inputs: &[], params: &params, loss: Some(loss), outputs: &[] };
        let mut plan = Plan::capture(&g0, &spec);
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
        let (mut g0, xv, params, loss) = shared_c_prev_tape(&x0, &w0, &cp0);
        g0.backward(loss);
        let spec = CaptureSpec { inputs: &[xv], params: &params, loss: Some(loss), outputs: &[] };
        let mut plan = Plan::capture(&g0, &spec);
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

    /// `tanh(w)` summed, backward run: `(g, w, y = tanh(w), loss)`.
    fn tanh_sum_tape() -> (Graph, Var, Var, Var) {
        let mut g = Graph::new();
        let w = g.param(t(3, &[2, 2]));
        let y = g.tanh(w);
        let loss = g.sum_all(y);
        g.backward(loss);
        (g, w, y, loss)
    }

    #[test]
    fn capture_accepts_a_spec_that_describes_the_tape() {
        let (g, w, y, loss) = tanh_sum_tape();
        let spec = CaptureSpec { inputs: &[], params: &[w], loss: Some(loss), outputs: &[y] };
        assert_eq!(Plan::capture(&g, &spec).stats().nodes, g.nodes.len());
        // A loss-free capture is `capture_forward`'s.
        let no_loss = CaptureSpec { inputs: &[], params: &[w], loss: None, outputs: &[y] };
        assert_eq!(Plan::capture_forward(&g, &no_loss).stats().bwd_instrs, 0);
    }

    #[test]
    #[should_panic(expected = "capture of an empty tape")]
    fn capture_panics_on_an_empty_tape() {
        let spec = CaptureSpec { inputs: &[], params: &[], loss: None, outputs: &[] };
        Plan::capture_forward(&Graph::new(), &spec);
    }

    #[test]
    #[should_panic(expected = "requires_grad leaf 1 is not in spec.params")]
    fn capture_panics_on_an_unlisted_param_leaf() {
        let mut g = Graph::new();
        let w = g.param(t(1, &[2, 2]));
        let w2 = g.param(t(2, &[2, 2]));
        let s = g.mul(w, w2);
        let loss = g.sum_all(s);
        g.backward(loss);
        let spec = CaptureSpec { inputs: &[], params: &[w], loss: Some(loss), outputs: &[] };
        Plan::capture(&g, &spec);
    }

    #[test]
    #[should_panic(expected = "spec.params[1] is not a parameter leaf, or is listed twice")]
    fn capture_panics_on_a_param_listed_twice() {
        let (g, w, _, loss) = tanh_sum_tape();
        let spec = CaptureSpec { inputs: &[], params: &[w, w], loss: Some(loss), outputs: &[] };
        Plan::capture(&g, &spec);
    }

    #[test]
    #[should_panic(expected = "spec.inputs[0] is not an input leaf, or is listed twice")]
    fn capture_panics_on_a_param_listed_as_input() {
        let (g, w, _, loss) = tanh_sum_tape();
        let spec = CaptureSpec { inputs: &[w], params: &[], loss: Some(loss), outputs: &[] };
        Plan::capture(&g, &spec);
    }

    #[test]
    #[should_panic(expected = "Plan::capture needs a loss")]
    fn capture_panics_without_a_loss() {
        let (g, w, y, _) = tanh_sum_tape();
        let spec = CaptureSpec { inputs: &[], params: &[w], loss: None, outputs: &[y] };
        Plan::capture(&g, &spec);
    }

    #[test]
    #[should_panic(expected = "the loss is not the root of the tape's backward")]
    fn capture_panics_on_a_loss_that_is_not_the_backward_root() {
        let (g, w, y, _) = tanh_sum_tape();
        let spec = CaptureSpec { inputs: &[], params: &[w], loss: Some(y), outputs: &[] };
        Plan::capture(&g, &spec);
    }

    #[test]
    #[should_panic(expected = "the loss is not a computed, differentiable scalar")]
    fn capture_panics_on_a_non_scalar_loss() {
        let (g, w, y, _) = tanh_sum_tape();
        let spec = CaptureSpec { inputs: &[], params: &[w], loss: Some(y), outputs: &[] };
        Plan::capture_forward(&g, &spec);
    }

    #[test]
    #[should_panic(expected = "spec.outputs[0] is a leaf, a gradient or listed twice")]
    fn capture_panics_on_a_leaf_output() {
        let (g, w, _, loss) = tanh_sum_tape();
        let spec = CaptureSpec { inputs: &[], params: &[w], loss: Some(loss), outputs: &[w] };
        Plan::capture(&g, &spec);
    }

    #[test]
    #[should_panic(expected = "spec.outputs[1] is a leaf, a gradient or listed twice")]
    fn capture_panics_on_a_repeated_output() {
        let (g, w, y, loss) = tanh_sum_tape();
        let spec = CaptureSpec { inputs: &[], params: &[w], loss: Some(loss), outputs: &[y, y] };
        Plan::capture(&g, &spec);
    }

    #[test]
    fn plan_stats_report_reuse() {
        let ps = lstm_params(140);
        let x = t(141, &[T * B, IN]);
        let lab = vec![0usize, 1];
        let mut tape = lstm_tape(&x, &ps.iter().collect::<Vec<_>>(), &lab);
        tape.g.backward(tape.loss);
        let spec = CaptureSpec {
            inputs: &tape.inputs,
            params: &tape.params,
            loss: Some(tape.loss),
            outputs: &[],
        };
        let plan = Plan::capture(&tape.g, &spec);
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
