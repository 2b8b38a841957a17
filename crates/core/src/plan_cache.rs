//! Compiled-plan execution of the sharded training step.
//!
//! [`Executor::step`] rebuilds a fresh autograd tape per shard per step.
//! For the shape-static workloads that tape is identical every step modulo
//! the batch data, so `legw-autograd`'s `Plan` can freeze one step's tape
//! into a static schedule and replay it with zero tape recording and
//! (steady-state) zero pool allocation. This module threads that through
//! the executor:
//!
//! * [`PlanCache`] — one key→plan map per shard index. Keying by shard
//!   index keeps replay buffers thread-local (a plan's arena is mutable
//!   scratch) and keying by shape ([`ShardStep::plan_key`]) makes ragged
//!   tails safe: a partial final batch simply captures its own plan, it
//!   never replays a mismatched one.
//! * [`Executor::step_planned`] — drop-in variant of [`Executor::step`]:
//!   per shard, look up the plan and [`ShardStep::replay`] it; on a miss,
//!   [`ShardStep::capture`] runs the shard's tape step — the reference
//!   path — compiles that same tape, and returns its result. Identical
//!   reduction, loss bookkeeping, and gradient application.
//!
//! First sight of a key costs one tape step plus the compile; every later
//! step with that key skips tape construction entirely.

use crate::exec::{Executor, StepOutcome};
use crate::steps::ShardStep;
use legw_models::StepPlan;
use legw_nn::ParamSet;
use std::collections::HashMap;
use std::sync::Mutex;

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

    /// Runs `replay` on the plan cached under `(slot, key)`. On first sight
    /// of the key, `capture` runs instead: it compiles the plan, which is
    /// cached, and returns it with its own result, which is returned. The
    /// slot lock is held across either — a plan's replay arena is mutable
    /// scratch, so this is what serialises concurrent users of one slot
    /// (e.g. the inference server's batch worker vs. ad-hoc engine calls).
    ///
    /// Every hit refreshes the entry's LRU stamp; on a bounded cache, an
    /// insert that would exceed the slot's capacity first evicts the
    /// least-recently-used plan (O(slot len) scan — capacities are small
    /// and captures are rare, so this never sits on a hot path).
    pub fn with_plan<R>(
        &self,
        slot: usize,
        key: Vec<usize>,
        capture: impl FnOnce() -> (P, R),
        replay: impl FnOnce(&mut P) -> R,
    ) -> R {
        let mut guard = self.slots[slot].lock().unwrap();
        let s = &mut *guard;
        s.tick += 1;
        let tick = s.tick;
        if let Some(v) = s.map.get_mut(&key) {
            v.0 = tick;
            return replay(&mut v.1);
        }
        let (p, out) = capture();
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
        s.map.insert(key, (tick, p));
        out
    }
}

impl Executor {
    /// [`Executor::step`] with per-shard plan replay: each shard looks up
    /// its [`ShardStep::plan_key`] in `cache` and replays the plan found;
    /// on first sight it runs its tape step, compiles that tape into the
    /// plan it caches, and returns the tape step's result. Reduction and
    /// gradient application are shared with [`Executor::step`], so the two
    /// are interchangeable step-by-step — including mid-run shape changes,
    /// which simply miss the cache and capture fresh plans.
    pub fn step_planned<W: ShardStep>(
        &self,
        w: &W,
        ps: &mut ParamSet,
        cache: &PlanCache<StepPlan>,
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
        let (grads, mut out, extras) = self.run_shards(w.reduce(), &shards, &weights, |i, s| {
            // Shard i's slot is only ever touched by shard task i, so the
            // slot lock is uncontended; it exists to keep `PlanCache` Sync
            // across the worker threads.
            let capture = || {
                let (plan, out) = w.capture(ps_ref, i, s);
                // Pre-size this worker's buffer pool to the plan's exact
                // peak live set, so even the *first* replay allocates
                // nothing. The capture runs on the shard's worker thread, so
                // the prewarm (thread-local free list) lands where the
                // replays will run.
                legw_tensor::pool::prewarm(plan.stats().peak_live_bytes);
                (plan, out)
            };
            cache.with_plan(i, w.plan_key(s), capture, |p| w.replay(ps_ref, p, s))
        });
        out.grad_sq_norm = grads.apply_with_sq_norm(ps);
        (out, extras)
    }
}
