//! Compiled-plan execution of the sharded training step.
//!
//! [`super::steps::ShardStep`] rebuilds a fresh autograd tape per shard per
//! step. For the shape-static workloads that tape is identical every step
//! modulo the batch data, so `legw-autograd`'s `Plan` can freeze one step's
//! tape into a static schedule and replay it with zero tape recording and
//! (steady-state) zero pool allocation. This module threads that through
//! the executor:
//!
//! * [`PlannedStep`] — a [`ShardStep`] that can additionally capture a
//!   per-shard plan and replay it. A workload opts in per shard via
//!   [`PlannedStep::plan_key`]: `Some(key)` promises the shard's tape
//!   structure is a pure function of `key` (shapes, lengths, dropout
//!   arity); `None` keeps the tape path for that shard.
//! * [`PlanCache`] — one key→plan map per shard index. Keying by shard
//!   index keeps replay buffers thread-local (a plan's arena is mutable
//!   scratch) and keying by shape makes ragged tails safe: a partial final
//!   batch simply captures its own plan, it never replays a mismatched one.
//! * [`Executor::step_planned`] — drop-in variant of [`Executor::step`]:
//!   per shard, look up (or capture) the plan and replay it; fall back to
//!   [`ShardStep::run_shard`] transparently when the workload declines a
//!   key or the capture fails. Identical reduction, loss bookkeeping, and
//!   gradient application.
//!
//! First sight of a key costs one extra forward (the capture tape runs the
//! model once, then the replay recomputes it); every later step with that
//! key skips tape construction entirely.

use crate::exec::{Executor, ShardOut, StepOutcome};
use crate::steps::{MnistStep, PtbStep, ResnetStep, Seq2SeqStep, ShardStep};
use legw_autograd::PlanStats;
use legw_models::StepPlan;
use legw_nn::{DropCtx, GradBuffer, ParamSet};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Mutex;

/// A [`ShardStep`] whose shards can be captured into reusable plans.
pub trait PlannedStep: ShardStep {
    /// Per-(shard, shape) replay state — typically a
    /// [`legw_models::StepPlan`].
    type PlanState: Send;

    /// The cache key identifying this shard's tape structure, or `None` to
    /// run this shard on the tape path. Two shards of one workload with
    /// equal keys must build structurally identical tapes (same ops, same
    /// shapes) — only the fed data may differ.
    fn plan_key(&self, shard: &Self::Shard) -> Option<Vec<usize>>;

    /// Captures a plan for this shard, or `None` when the tape contains
    /// something the plan interpreter does not cover (the executor then
    /// falls back to [`ShardStep::run_shard`] — and retries the capture on
    /// the shape's next occurrence).
    fn capture(&self, ps: &ParamSet, shard: &Self::Shard) -> Option<Self::PlanState>;

    /// Replays the captured plan for one shard. Must produce the same
    /// [`ShardOut`] as [`ShardStep::run_shard`] (bitwise, or to the
    /// documented ≤1e-5 for reassociated reductions).
    fn replay(
        &self,
        ps: &ParamSet,
        state: &mut Self::PlanState,
        index: usize,
        shard: &Self::Shard,
    ) -> ShardOut<Self::Extra>;

    /// Static statistics of a captured plan, when the state exposes them.
    /// `Some` lets the executor pre-size the worker's buffer pool to the
    /// plan's exact peak live set right after capture, so even the *first*
    /// replay allocates nothing.
    fn plan_stats(&self, _state: &Self::PlanState) -> Option<PlanStats> {
        None
    }
}

/// One shard slot: the key→plan map plus the logical clock driving LRU
/// eviction. Each cached plan carries the tick of its last use.
struct Slot<P> {
    map: HashMap<Vec<usize>, (u64, P)>,
    tick: u64,
}

impl<P> Slot<P> {
    fn new() -> Self {
        Self { map: HashMap::new(), tick: 0 }
    }
}

/// Shape-keyed plan store for [`Executor::step_planned`]: one map per
/// shard index, so concurrent shard workers never contend and every plan's
/// mutable replay arena stays with its worker slot.
///
/// A cache built with [`PlanCache::with_capacity`] holds at most `capacity`
/// plans **per slot**, evicting the least-recently-used entry to make room
/// for a new capture. Training steps use the unbounded [`PlanCache::new`]
/// (a run sees a handful of shapes: the steady batch plus ragged tails);
/// the bounded form is for serving, where adversarial batch-shape traffic
/// would otherwise grow the cache without limit. Eviction is safe by
/// construction: a plan is pure replay state, so dropping one only means
/// the next occurrence of that shape pays one re-capture — which produces
/// a bitwise-identical plan (captures are deterministic functions of the
/// frozen weights and the shape).
pub struct PlanCache<P> {
    slots: Vec<Mutex<Slot<P>>>,
    /// Max plans per slot; `None` = unbounded.
    capacity: Option<usize>,
}

impl<P> PlanCache<P> {
    /// An unbounded cache for up to `shards` shard slots.
    pub fn new(shards: usize) -> Self {
        Self { slots: (0..shards.max(1)).map(|_| Mutex::new(Slot::new())).collect(), capacity: None }
    }

    /// A cache holding at most `capacity` plans per shard slot (clamped to
    /// ≥ 1), with least-recently-used eviction on overflow.
    pub fn with_capacity(shards: usize, capacity: usize) -> Self {
        Self { capacity: Some(capacity.max(1)), ..Self::new(shards) }
    }

    /// A cache sized for `exec`'s shard count.
    pub fn for_executor(exec: &Executor) -> Self {
        Self::new(exec.shards())
    }

    /// Number of shard slots this cache was built for.
    pub fn shard_slots(&self) -> usize {
        self.slots.len()
    }

    /// Per-slot plan capacity (`None` = unbounded).
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Total number of cached plans across all shard slots.
    pub fn len(&self) -> usize {
        self.slots.iter().map(|s| s.lock().unwrap().map.len()).sum()
    }

    /// True when no plan has been captured yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Runs `f` on the plan cached under `(slot, key)`, calling `make` to
    /// capture it on first sight. `make` returning `None` (the plan
    /// interpreter cannot cover the tape) caches nothing and skips `f`, so
    /// the caller can fall back to its tape path. The slot lock is held
    /// across `f` — a plan's replay arena is mutable scratch, so this is
    /// what serialises concurrent users of one slot (e.g. the inference
    /// server's batch worker vs. ad-hoc engine calls).
    ///
    /// Every hit refreshes the entry's LRU stamp; on a bounded cache, an
    /// insert that would exceed the slot's capacity first evicts the
    /// least-recently-used plan (O(slot len) scan — capacities are small
    /// and captures are rare, so this never sits on a hot path).
    pub fn with_plan<R>(
        &self,
        slot: usize,
        key: Vec<usize>,
        make: impl FnOnce() -> Option<P>,
        f: impl FnOnce(&mut P) -> R,
    ) -> Option<R> {
        let mut guard = self.slots[slot].lock().unwrap();
        let s = &mut *guard;
        s.tick += 1;
        let tick = s.tick;
        if let Some(v) = s.map.get_mut(&key) {
            v.0 = tick;
            return Some(f(&mut v.1));
        }
        let p = make()?;
        if let Some(cap) = self.capacity {
            while s.map.len() >= cap {
                let oldest = s.map.iter().min_by_key(|(_, (t, _))| *t).map(|(k, _)| k.clone());
                match oldest {
                    Some(k) => {
                        s.map.remove(&k);
                    }
                    None => break,
                }
            }
        }
        match s.map.entry(key) {
            Entry::Vacant(v) => Some(f(&mut v.insert((tick, p)).1)),
            // get_mut above returned None for this key under the same lock.
            Entry::Occupied(_) => unreachable!("plan inserted concurrently under the slot lock"),
        }
    }
}

impl Executor {
    /// [`Executor::step`] with per-shard plan replay: each shard looks up
    /// its [`PlannedStep::plan_key`] in `cache`, captures on first sight,
    /// and replays thereafter; shards without a key (or whose capture
    /// fails) run the ordinary tape path. Reduction and gradient
    /// application are shared with [`Executor::step`], so the two are
    /// interchangeable step-by-step — including mid-run shape changes,
    /// which simply miss the cache and capture fresh plans.
    pub fn step_planned<W: PlannedStep>(
        &self,
        w: &W,
        ps: &mut ParamSet,
        cache: &PlanCache<W::PlanState>,
    ) -> (StepOutcome, Vec<W::Extra>) {
        let shards = w.split(self);
        assert!(
            shards.len() <= cache.shard_slots(),
            "plan cache has {} shard slots but the step split into {}",
            cache.shard_slots(),
            shards.len()
        );
        let weights: Vec<f64> = shards.iter().map(|s| w.weight(s)).collect();
        let ps_ref: &ParamSet = ps;
        let (grads, mut out, extras) =
            self.run_shards(w.reduce(), &shards, &weights, |i, s| match w.plan_key(s) {
                // Shard i's slot is only ever touched by shard task i, so
                // the slot lock is uncontended; it exists to keep
                // `PlanCache` Sync across the worker threads.
                Some(key) => cache
                    .with_plan(
                        i,
                        key,
                        || {
                            // The capture runs on this shard's worker
                            // thread, so the pool prewarm (thread-local
                            // free list) lands where the replays will run.
                            let captured = w.capture(ps_ref, s);
                            if let Some(stats) = captured.as_ref().and_then(|p| w.plan_stats(p)) {
                                legw_tensor::pool::prewarm(stats.peak_live_bytes);
                            }
                            captured
                        },
                        |p| w.replay(ps_ref, p, i, s),
                    )
                    .unwrap_or_else(|| w.run_shard(ps_ref, i, s)),
                None => w.run_shard(ps_ref, i, s),
            });
        out.grad_sq_norm = grads.apply_with_sq_norm(ps);
        (out, extras)
    }
}

impl PlannedStep for MnistStep<'_> {
    type PlanState = StepPlan;

    fn plan_key(&self, (_, sy): &Self::Shard) -> Option<Vec<usize>> {
        Some(vec![sy.len()])
    }

    fn capture(&self, ps: &ParamSet, (sx, sy): &Self::Shard) -> Option<StepPlan> {
        self.model.capture_step_plan(ps, sx, sy)
    }

    fn replay(
        &self,
        ps: &ParamSet,
        plan: &mut StepPlan,
        _i: usize,
        (sx, sy): &Self::Shard,
    ) -> ShardOut<()> {
        let loss = self.model.replay_step_plan(plan, ps, sx, sy) as f64;
        let mut buf = GradBuffer::for_params(ps);
        plan.write_grads_to(&mut buf);
        ShardOut { grads: buf, loss, extra: () }
    }

    fn plan_stats(&self, plan: &StepPlan) -> Option<PlanStats> {
        Some(plan.stats())
    }
}

impl PlannedStep for PtbStep<'_> {
    type PlanState = StepPlan;

    /// Tracks × window length × dropout arity. Dropout masks are feeds, so
    /// the *step* is not part of the key — one plan serves the whole run.
    fn plan_key(&self, (sw, _, _): &Self::Shard) -> Option<Vec<usize>> {
        Some(vec![sw.tracks(), sw.inputs.len(), usize::from(self.drop.is_some())])
    }

    fn capture(&self, ps: &ParamSet, (sw, ss, row0): &Self::Shard) -> Option<StepPlan> {
        let ctx = self.drop.map(|d| DropCtx { seed: d.seed, step: d.step, row0: *row0 });
        self.model.capture_window_plan(ps, sw, ss, ctx.as_ref())
    }

    fn replay(
        &self,
        ps: &ParamSet,
        plan: &mut StepPlan,
        _i: usize,
        (sw, ss, row0): &Self::Shard,
    ) -> ShardOut<legw_models::LmState> {
        let ctx = self.drop.map(|d| DropCtx { seed: d.seed, step: d.step, row0: *row0 });
        let (nll, next) = self.model.replay_window_plan(plan, ps, sw, ss, ctx.as_ref());
        let mut buf = GradBuffer::for_params(ps);
        plan.write_grads_to(&mut buf);
        ShardOut { grads: buf, loss: nll, extra: next }
    }

    fn plan_stats(&self, plan: &StepPlan) -> Option<PlanStats> {
        Some(plan.stats())
    }
}

impl PlannedStep for ResnetStep<'_> {
    type PlanState = StepPlan;

    fn plan_key(&self, (sx, _, _): &Self::Shard) -> Option<Vec<usize>> {
        Some(sx.shape().to_vec())
    }

    fn capture(&self, ps: &ParamSet, (sx, sy, _): &Self::Shard) -> Option<StepPlan> {
        self.model.capture_step_plan(ps, sx, sy)
    }

    fn replay(
        &self,
        ps: &ParamSet,
        plan: &mut StepPlan,
        _i: usize,
        (sx, sy, cell): &Self::Shard,
    ) -> ShardOut<(f32, legw_models::ResNet)> {
        let mut m = cell.lock().unwrap().take().expect("resnet shard clone already taken");
        let loss = m.replay_step_plan(plan, ps, sx, sy) as f64;
        let mut buf = GradBuffer::for_params(ps);
        plan.write_grads_to(&mut buf);
        ShardOut { grads: buf, loss, extra: (sy.len() as f32, m) }
    }

    fn plan_stats(&self, plan: &StepPlan) -> Option<PlanStats> {
        Some(plan.stats())
    }
}

impl PlannedStep for Seq2SeqStep<'_> {
    type PlanState = StepPlan;

    /// Batch size × source length key the *encoder* plan; the
    /// token-dependent decoder runs on a fresh tape every step inside
    /// [`legw_models::Seq2Seq::planned_loss_grads`], so decoder lengths and
    /// loss scales need not be keyed.
    fn plan_key(&self, (sb, _): &Self::Shard) -> Option<Vec<usize>> {
        Some(vec![sb.batch_size(), sb.src.len()])
    }

    fn capture(&self, ps: &ParamSet, (sb, _): &Self::Shard) -> Option<StepPlan> {
        self.model.capture_encoder_plan(ps, sb)
    }

    fn replay(
        &self,
        ps: &ParamSet,
        plan: &mut StepPlan,
        _i: usize,
        (sb, scale): &Self::Shard,
    ) -> ShardOut<()> {
        let mut buf = GradBuffer::for_params(ps);
        let nll = self.model.planned_loss_grads(ps, sb, scale.as_deref(), plan, &mut buf);
        ShardOut { grads: buf, loss: nll, extra: () }
    }

    fn plan_stats(&self, plan: &StepPlan) -> Option<PlanStats> {
        Some(plan.stats())
    }
}
