//! The shape-keyed store of compiled training-step plans.
//!
//! [`Executor::step`] records a fresh autograd tape per shard per step. For
//! the shape-static workloads that tape is identical every step modulo the
//! batch data, so `legw-autograd`'s `Plan` can compile one step's shapes
//! into a static schedule and replay it with zero tape recording and
//! (steady-state) zero pool allocation. [`Executor::step_planned`] looks
//! each shard's plan up in a [`PlanCache`]: one key→plan map per shard
//! index. Keying by shard index keeps replay buffers thread-local (a plan's
//! arena is mutable replay state) and keying by shape
//! ([`ShardStep::plan_key`](crate::ShardStep::plan_key)) makes ragged tails
//! safe: a partial final batch simply captures its own plan, it never
//! replays a mismatched one.
//!
//! First sight of a key costs one shape-only tape, which runs no kernel,
//! the compile and one replay; every later step with that key skips tape
//! construction entirely.

use crate::exec::Executor;
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
/// mutable replay arena stays with its worker slot. Inference serving
/// (`legw_serve::InferEngine`) keeps one bounded slot. Its entry per batch
/// shape, keyed by the row groups' keys, holds one plan per group, or none
/// after the shape's miss; [`legw_models::group_plans`] gives the groups
/// their plans at a miss and at the first hit, as it does in eval's sweep.
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
    /// cached, and returns it with the call's result, which is returned (a
    /// training step's capture replays the plan for it). The
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
        let slots = self.slots.len();
        assert!(slot < slots, "plan cache has {slots} shard slots; shard {slot} asked for one");
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-plan slot evicts its least recently used plan, a hit
    /// refreshes recency, and only a miss runs the capture.
    #[test]
    fn bounded_cache_evicts_the_least_recently_used_plan() {
        let cache: PlanCache<usize> = PlanCache::with_capacity(1, 2);
        let captures = std::cell::Cell::new(0);
        // Captures the plan `key · 10`; every use returns the plan it ran.
        let run = |key: usize| {
            let capture = || {
                captures.set(captures.get() + 1);
                (key * 10, key * 10)
            };
            cache.with_plan(0, vec![key], capture, |p| *p)
        };
        assert_eq!((run(1), run(2), run(1)), (10, 20, 10));
        assert_eq!((cache.len(), captures.get()), (2, 2), "a hit does not capture");
        // Key 2 is now the least recently used: key 3 evicts it.
        run(3);
        assert_eq!((cache.len(), captures.get()), (2, 3));
        run(1);
        assert_eq!(captures.get(), 3, "key 1 survived the eviction");
        assert_eq!(run(2), 20, "an evicted key captures again");
        assert_eq!((cache.len(), captures.get()), (2, 4));
    }
}
