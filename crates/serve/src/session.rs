//! Tape-free inference execution: frozen parameters + cached forward-only
//! plans, with optional per-client recurrent state.

use legw::PlanCache;
use legw_models::Infer;
use legw_nn::ParamSet;

/// Default bound on cached plans per engine: generous for honest traffic
/// (a server sees a handful of batch shapes), finite against adversarial
/// shape churn. Override with [`InferEngine::with_plan_capacity`].
pub const DEFAULT_PLAN_CAPACITY: usize = 32;

/// A frozen model plus a shape-keyed cache of its inference plans
/// ([`Infer::Plan`]).
///
/// The first batch of a given shape is a miss: it runs the model's tapes
/// for that batch, compiles them into the plan the cache keeps, and answers
/// with the tapes' result, so a miss costs the compile and no second
/// forward. Every later batch of that shape replays the plan with no tape,
/// no gradient buffers and, at steady state, no pool allocation — for
/// seq2seq, an encoder replay and one decoder-step replay per token. A
/// capture that fails is a bug in the model's capture and panics with its
/// cause; nothing serves from the live graph.
///
/// The plan cache is bounded ([`DEFAULT_PLAN_CAPACITY`] shapes, LRU):
/// unlike training, a server's shape set is driven by client traffic, so
/// an unbounded cache would be a memory leak under shape churn. Eviction
/// never changes results — a re-capture of the same shape over the same
/// frozen weights is deterministic, so the replacement plan replays
/// bitwise-identically.
///
/// [`InferEngine::with_bf16`] opts the engine into bf16 weight storage
/// for its GEMMs: packed panels hold bf16 (half the bytes, f32
/// accumulation), trading ≤2⁻⁸ relative rounding per operand for memory
/// bandwidth. Off by default; never used in training.
///
/// `run` takes `&self`: the cache synchronises internally, so one engine
/// can be shared across threads behind an [`std::sync::Arc`].
pub struct InferEngine<M: Infer> {
    model: M,
    ps: ParamSet,
    plans: PlanCache<M::Plan>,
    bf16: bool,
}

impl<M: Infer> InferEngine<M> {
    /// Wraps a model and its (frozen) parameters. The parameters are
    /// owned and never mutated — freezing is what makes plan reuse and
    /// ResNet's folded-BN capture sound.
    ///
    /// Also pins the process-wide kernel choice (first caller wins), so
    /// every capture and replay this engine issues runs the same SIMD
    /// variant.
    pub fn new(model: M, ps: ParamSet) -> Self {
        legw_tensor::kernels::init();
        Self { model, ps, plans: PlanCache::with_capacity(1, DEFAULT_PLAN_CAPACITY), bf16: false }
    }

    /// Replaces the plan cache with one bounded to `capacity` shapes
    /// (LRU-evicted; clamped to ≥ 1). Call before serving traffic —
    /// replacing the cache drops any plans already captured.
    pub fn with_plan_capacity(mut self, capacity: usize) -> Self {
        self.plans = PlanCache::with_capacity(1, capacity);
        self
    }

    /// Enables (or disables) bf16 weight storage for this engine's GEMM
    /// packing. A pure serving-side memory/bandwidth knob: activations
    /// and accumulation stay f32, only the packed panels are rounded to
    /// bf16 (round-to-nearest-even). Plans already captured stay valid —
    /// the mode affects GEMM packing at replay time, not plan structure.
    pub fn with_bf16(mut self, on: bool) -> Self {
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

    /// Number of distinct batch shapes captured so far.
    pub fn cached_plans(&self) -> usize {
        self.plans.len()
    }

    /// Max cached plans (`None` = unbounded).
    pub fn plan_capacity(&self) -> Option<usize> {
        self.plans.capacity()
    }

    /// One batched forward over parallel request/state rows (all rows must
    /// share a coalesce key). Returns one `(output, carried state)` per
    /// row, in request order.
    pub fn run(&self, reqs: &[M::Req], states: &[M::RowState]) -> Vec<(M::Out, M::RowState)> {
        assert_eq!(reqs.len(), states.len(), "one carried state per request");
        assert!(!reqs.is_empty(), "empty inference batch");
        let go = || {
            let batch = self.model.assemble(reqs, states);
            let key = self.model.infer_key(&batch);
            self.plans.with_plan(
                0,
                key,
                || self.model.capture_infer(&self.ps, &batch),
                |plan| self.model.replay_infer(plan, &self.ps, &batch),
            )
        };
        // The bf16 flag is thread-local; scoping it here covers capture and
        // replay alike on whichever thread runs this batch.
        if self.bf16 {
            legw_tensor::with_bf16_gemm(go)
        } else {
            go()
        }
    }

    /// Single-row convenience around [`InferEngine::run`].
    pub fn run_one(&self, req: M::Req, state: M::RowState) -> (M::Out, M::RowState) {
        self.run(std::slice::from_ref(&req), std::slice::from_ref(&state))
            .pop()
            .expect("one row in, one row out")
    }
}
