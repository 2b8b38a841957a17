//! Tape-free inference execution: frozen parameters + cached forward-only
//! plans, with optional per-client recurrent state.

use legw::PlanCache;
use legw_models::{group_plans, Infer};
use legw_nn::ParamSet;
use std::sync::Mutex;

/// The bound on cached plans per engine: generous for honest traffic (a
/// server sees a handful of batch shapes), finite against adversarial shape
/// churn.
pub const DEFAULT_PLAN_CAPACITY: usize = 32;

/// One `(output, carried state)` per row.
type Rows<M> = Vec<(<M as Infer>::Out, <M as Infer>::RowState)>;

/// A frozen model plus a shape-keyed cache of its inference plans
/// ([`Infer::Plan`]), serving each batch on every lane of the caller's
/// kernel pool.
///
/// A batch of two or more rows is split into contiguous row groups,
/// [`legw_parallel::split_evenly`] over the lanes of the calling thread's
/// kernel pool ([`legw_parallel::current`]). The caller assembles the batch
/// and cuts the groups from it ([`Infer::slice`]); each lane replays its
/// group's plan under a one-lane intra-op pool
/// ([`legw_parallel::map_lanes`]), so a group's kernels — too small to fork
/// well — run inline while the other lanes compute the other groups. A
/// group computes each of its rows bitwise as the whole batch does, so the
/// split changes no served bit.
///
/// A miss and a hit run one routine, [`group_plans`], which eval shares.
/// On the caller's thread and pool, each distinct group shape's first plan
/// is captured from a shape-only tape ([`Infer::capture_infer`], which runs
/// no kernel), gets its arena and packs its weight panels
/// ([`InferPlan::renew`]); each later group of that shape gets a copy
/// ([`InferPlan::copy`]: an arena of its own, the panels shared). Then each
/// lane replays its group's plan. A miss keeps none of its plans, so an
/// engine that serves a shape once holds no arena (DESIGN.md §12); the
/// shape's first hit captures again, which is bitwise, and keeps its plans.
/// From then on each batch of that shape replays on every lane with no
/// tape, no gradient buffers and, at steady state, no pool allocation —
/// for seq2seq, an encoder replay and one decoder-step replay per token. A
/// kernel-pool worker only replays. A capture that fails is a bug in the
/// model's capture and panics with its cause; nothing serves from the live
/// graph.
///
/// Frozen parameters are what make this cheap. A plan reads the parameters
/// at every replay, but packs its weight panels once per parameter version
/// ([`InferPlan::renew`]); the engine's parameters never change, so it is
/// the single version: no request after a shape's first hit repacks a
/// weight, and the copies share the panels, so splitting a batch over lanes
/// costs arenas, not weights.
///
/// The plan cache is bounded ([`DEFAULT_PLAN_CAPACITY`] batch shapes, LRU):
/// unlike training, a server's shape set is driven by client traffic, so
/// an unbounded cache would be a memory leak under shape churn. Eviction
/// never changes results — a re-capture of the same shape over the same
/// frozen weights is deterministic, so the replacement plans replay
/// bitwise-identically.
///
/// [`InferEngine::with_bf16`] opts the engine into bf16 weight storage
/// for its GEMMs: packed panels hold bf16 (half the bytes, f32
/// accumulation), trading ≤2⁻⁸ relative rounding per operand for memory
/// bandwidth. Off by default; never used in training. The mode is
/// thread-local, so the engine sets it on the caller while it gives the
/// groups their plans and inside each lane for its replay.
///
/// `run` takes `&self`: the cache synchronises internally (a batch holds
/// its shape's plans for the whole call), so one engine can be shared
/// across threads behind an [`std::sync::Arc`].
///
/// [`InferPlan::renew`]: legw_models::InferPlan::renew
/// [`InferPlan::copy`]: legw_models::InferPlan::copy
pub struct InferEngine<M: Infer> {
    model: M,
    ps: ParamSet,
    /// Per batch shape, keyed by its groups' keys: one plan per row group,
    /// or none after the shape's miss.
    plans: PlanCache<Vec<M::Plan>>,
    bf16: bool,
}

impl<M: Infer> InferEngine<M> {
    /// Wraps a model and its (frozen) parameters. The parameters are
    /// owned and never mutated — freezing is what lets each plan pack its
    /// weights once.
    ///
    /// Also pins the process-wide kernel choice (first caller wins), so
    /// every capture and replay this engine issues runs the same SIMD
    /// variant.
    pub fn new(model: M, ps: ParamSet) -> Self {
        legw_tensor::kernels::init();
        Self { model, ps, plans: PlanCache::with_capacity(1, DEFAULT_PLAN_CAPACITY), bf16: false }
    }

    /// Enables (or disables) bf16 weight storage for this engine's GEMM
    /// packing. A pure serving-side memory/bandwidth knob: activations
    /// and accumulation stay f32, only the packed panels are rounded to
    /// bf16 (round-to-nearest-even). A plan's panels are packed once and
    /// kept, so changing the mode drops the plans captured so far.
    pub fn with_bf16(mut self, on: bool) -> Self {
        if on != self.bf16 {
            self.plans = PlanCache::with_capacity(1, DEFAULT_PLAN_CAPACITY);
        }
        self.bf16 = on;
        self
    }

    /// True when this engine packs GEMM weights as bf16.
    pub fn bf16(&self) -> bool {
        self.bf16
    }

    /// The wrapped model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Number of batch shapes cached: one per shape and row-group count,
    /// however many plans its groups hold (none after the shape's miss).
    pub fn cached_plans(&self) -> usize {
        self.plans.len()
    }

    /// One batched forward over parallel request/state rows (all rows must
    /// share a coalesce key), split into one row group per lane of the
    /// calling thread's kernel pool. Returns one `(output, carried state)`
    /// per row, in request order.
    pub fn run(&self, reqs: &[M::Req], states: &[M::RowState]) -> Rows<M> {
        assert_eq!(reqs.len(), states.len(), "one carried state per request");
        assert!(!reqs.is_empty(), "empty inference batch");
        let batch = self.model.assemble(reqs, states);
        let rows = legw_parallel::split_evenly(reqs.len(), legw_parallel::current().threads());
        let groups = match rows.len() {
            1 => vec![batch],
            _ => rows.into_iter().map(|r| self.model.slice(&batch, r)).collect(),
        };
        let keys: Vec<Vec<usize>> = groups.iter().map(|g| self.model.infer_key(g)).collect();
        // A shape served once keeps no plan, and so no arena (DESIGN.md §12).
        let miss = || (Vec::new(), self.replay(&mut Vec::new(), &groups, &keys));
        let hit = |plans: &mut Vec<M::Plan>| self.replay(plans, &groups, &keys);
        self.plans.with_plan(0, keys.concat(), miss, hit)
    }

    /// Single-row convenience around [`InferEngine::run`].
    pub fn run_one(&self, req: M::Req, state: M::RowState) -> (M::Out, M::RowState) {
        self.run(std::slice::from_ref(&req), std::slice::from_ref(&state))
            .pop()
            .expect("one row in, one row out")
    }

    /// Gives every group its plan on the caller ([`group_plans`]), then
    /// replays each group's plan on its lane, in the engine's bf16 scope.
    /// Returns every row's result in row order.
    fn replay(
        &self,
        plans: &mut Vec<M::Plan>,
        groups: &[M::Batch],
        keys: &[Vec<usize>],
    ) -> Rows<M> {
        self.scoped(|| group_plans(&self.model, &self.ps, plans, groups, keys));
        let lanes: Vec<Mutex<&mut M::Plan>> = plans.iter_mut().map(Mutex::new).collect();
        let out = legw_parallel::map_lanes(&lanes, |i, plan| {
            let plan = &mut **plan.lock().unwrap();
            self.scoped(|| self.model.replay_infer(plan, &self.ps, &groups[i]))
        });
        out.into_iter().flatten().collect()
    }

    /// Runs `f` in this engine's bf16 scope, on the calling thread.
    fn scoped<R>(&self, f: impl FnOnce() -> R) -> R {
        if self.bf16 {
            legw_tensor::with_bf16_gemm(f)
        } else {
            f()
        }
    }
}
