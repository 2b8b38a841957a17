//! Order-preserving streaming gradient reduction.
//!
//! The executor's post-barrier combine ([`tree_reduce`]) waits for *every*
//! shard before running the fixed stride-doubling tree, so one slow shard
//! stalls the whole reduction — the classic straggler effect large-batch
//! systems engineering works around (You et al., SC'19 §5). This module
//! performs the *same* tree incrementally: as each shard's
//! [`GradBuffer`] completes, the completing thread immediately merges every
//! pair that has just become ready, walking as far up the tree as the
//! already-arrived neighbours allow. Reduction latency hides behind the
//! still-running shards; by the time the last shard finishes, only the
//! merges on its own root path remain.
//!
//! # Why the result is bit-identical to the post-barrier reduce
//!
//! The schedule is *data-independent*: the set of merges is exactly
//! `{(i, i+s) : s = 1,2,4,…, i ≡ 0 (mod 2s), i+s < n}` — the same pairs, in
//! the same left/right roles, as [`tree_reduce`]. Completion order only
//! decides *when* a merge runs and on *which thread*, never *what* it
//! combines: each merge's operands are the fully-reduced left subtree
//! `[i, i+s)` and right subtree `[i+s, min(i+2s, n))`, whose contents are
//! themselves fixed by the same argument, inductively. Every floating-point
//! addition therefore happens between the same values in the same
//! per-element order as the serial tree, and the root buffer is
//! bit-identical for any arrival order — the property the executor's
//! byte-determinism guarantee rests on.
//!
//! Threading: one mutex guards the readiness bookkeeping; the `O(params)`
//! axpy sweeps of the merges themselves run *outside* the lock, on the
//! thread that completed the enabling shard. Disjoint pairs can merge
//! concurrently; a chain up the tree runs sequentially on one thread.
//! Crucially, a partial that finds no ready partner is parked in the *same*
//! critical section that made that observation: whichever of two partner
//! subtrees reaches the lock second is guaranteed to see the other's
//! published partial and perform their merge, so no merge can be stranded
//! by both sides parking.
//!
//! The completion order is fully injectable — [`ReduceScheduler::complete`]
//! is a plain method call — which is how the adversarial-order tests drive
//! reverse, interleaved, straggler, and random schedules without touching
//! real threads.

use legw_nn::GradBuffer;
use std::sync::Mutex;

/// Fixed-order pairwise tree reduction (stride doubling): `bufs[i] +=
/// bufs[i+s]` for `i ≡ 0 (mod 2s)`, `s = 1, 2, 4, …` — the same
/// combination tree regardless of which worker finished first, so the
/// floating-point result is deterministic for a given shard count. This is
/// the post-barrier reference path; [`ReduceScheduler`] streams the same
/// tree and must stay bit-identical to it.
pub fn tree_reduce(mut bufs: Vec<GradBuffer>) -> GradBuffer {
    let n = bufs.len();
    let mut stride = 1;
    while stride < n {
        let mut i = 0;
        while i + stride < n {
            let right = std::mem::take(&mut bufs[i + stride]);
            bufs[i].absorb(right);
            i += 2 * stride;
        }
        stride *= 2;
    }
    bufs.swap_remove(0)
}

/// Shared bookkeeping for one in-flight streaming reduction.
struct State {
    /// Published partial results waiting for their next merge partner.
    /// `slots[p]` is `Some` iff `width[p] > 0`.
    slots: Vec<Option<GradBuffer>>,
    /// Leaves merged into the published partial at position `p`
    /// (`0` = nothing published, or the partial was claimed by a merge).
    width: Vec<usize>,
    /// Leaves completed so far (duplicate-completion guard).
    seen: Vec<bool>,
    /// Pairwise merges performed so far (always `n - 1` at the end).
    merges: usize,
}

/// Streams shard gradient buffers through the fixed reduction tree as they
/// complete. Create one per step with [`ReduceScheduler::new`], call
/// [`ReduceScheduler::complete`] exactly once per shard (any order, any
/// thread), then collect the root with [`ReduceScheduler::finish`].
pub struct ReduceScheduler {
    n: usize,
    state: Mutex<State>,
}

impl ReduceScheduler {
    /// A scheduler expecting `n ≥ 1` leaf buffers.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "reduction needs at least one shard");
        Self {
            n,
            state: Mutex::new(State {
                slots: (0..n).map(|_| None).collect(),
                width: vec![0; n],
                seen: vec![false; n],
                merges: 0,
            }),
        }
    }

    /// Number of leaves this scheduler reduces.
    pub fn shards(&self) -> usize {
        self.n
    }

    /// Pairwise merges performed so far.
    pub fn merges(&self) -> usize {
        self.state.lock().unwrap().merges
    }

    /// Leaf count of the complete subtree rooted at `pos` for `stride`
    /// (truncated at the right edge, mirroring the serial tree).
    fn subtree(&self, pos: usize, stride: usize) -> usize {
        stride.min(self.n - pos)
    }

    /// Offers leaf `i`'s buffer and performs every merge it enables,
    /// walking up the tree until a missing subtree blocks further
    /// progress. Merge sweeps run outside the scheduler lock.
    pub fn complete(&self, i: usize, buf: GradBuffer) {
        assert!(i < self.n, "shard index {i} out of range for {} shards", self.n);
        let mut pos = i; // position our carried partial reduces into
        let mut carry = buf; // owned partial covering `width` leaves at `pos`
        let mut width = 1usize;
        {
            let mut st = self.state.lock().unwrap();
            assert!(!st.seen[i], "duplicate completion for shard {i}");
            st.seen[i] = true;
        }
        loop {
            // Decide the next merge under the lock; claimed operands leave
            // their slots so no other thread can initiate the same merge.
            // When no partner is ready the partial is parked *inside the
            // same critical section* — check-then-park must be atomic, or
            // two threads carrying partner subtrees could each observe the
            // other as absent and both park, stranding their merge.
            enum Act {
                /// Merge `carry += right` (we are the left parent).
                Right(GradBuffer, usize),
                /// Merge `left += carry` and keep climbing from `new_pos`.
                Left(GradBuffer, usize),
            }
            let act = {
                let mut st = self.state.lock().unwrap();
                if pos.is_multiple_of(2 * width) && pos + width < self.n {
                    // `carry` is a full left subtree at stride `width`;
                    // partner is the right subtree starting at pos+width.
                    let q = pos + width;
                    let full = self.subtree(q, width);
                    if st.width[q] == full {
                        st.width[q] = 0;
                        st.merges += 1;
                        Act::Right(st.slots[q].take().expect("width>0 implies slot"), full)
                    } else {
                        st.slots[pos] = Some(carry);
                        st.width[pos] = width;
                        return;
                    }
                } else if pos > 0 {
                    // `carry` is the full right subtree at stride
                    // `lowbit(pos)`; its parent's left part starts at
                    // pos - lowbit(pos) and must cover exactly that stride.
                    let s = pos & pos.wrapping_neg();
                    debug_assert_eq!(width, self.subtree(pos, s));
                    let q = pos - s;
                    if st.width[q] == s {
                        st.width[q] = 0;
                        st.merges += 1;
                        Act::Left(st.slots[q].take().expect("width>0 implies slot"), q)
                    } else {
                        st.slots[pos] = Some(carry);
                        st.width[pos] = width;
                        return;
                    }
                } else {
                    // pos == 0 and no in-range partner: the root is done.
                    debug_assert_eq!(width, self.n);
                    st.slots[pos] = Some(carry);
                    st.width[pos] = width;
                    return;
                }
            };
            match act {
                Act::Right(right, w) => {
                    carry.absorb(right); // bufs[pos] += bufs[pos+width]
                    width += w;
                }
                Act::Left(mut left, q) => {
                    left.absorb(carry); // bufs[q] += bufs[q+s]
                    carry = left;
                    width += pos - q;
                    pos = q;
                }
            }
        }
    }

    /// Returns the fully-reduced root buffer. Panics if any leaf has not
    /// completed.
    pub fn finish(self) -> GradBuffer {
        let mut st = self.state.into_inner().unwrap();
        assert_eq!(
            st.width[0], self.n,
            "reduction incomplete: root covers {} of {} shards",
            st.width[0], self.n
        );
        st.slots[0].take().expect("complete root has a buffer")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legw_nn::{GradBuffer, ParamSet};
    use legw_tensor::Tensor;

    use legw_nn::ParamId;

    /// Distinctly-valued leaf buffers over two params whose sums are
    /// order-sensitive in floating point (so a wrong tree shows up).
    fn leaves(n: usize) -> (Vec<ParamId>, Vec<GradBuffer>) {
        let mut ps = ParamSet::new();
        let a = ps.add("a", Tensor::zeros(&[3]));
        let b = ps.add("b", Tensor::zeros(&[2]));
        let bufs = (0..n)
            .map(|i| {
                let mut g = GradBuffer::for_params(&ps);
                let x = i as f32 + 1.0;
                g.accumulate(a, &Tensor::from_vec(vec![0.1 * x, 1.0 / x, x * x], &[3]));
                // leave `b` empty on every third leaf: sparse-slot coverage
                if i % 3 != 2 {
                    g.accumulate(b, &Tensor::from_vec(vec![x.sqrt(), -x], &[2]));
                }
                g
            })
            .collect();
        (vec![a, b], bufs)
    }

    fn bits(buf: &GradBuffer, ids: &[ParamId]) -> Vec<u32> {
        ids.iter()
            .flat_map(|&id| {
                buf.get(id)
                    .map(|t| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>())
                    .unwrap_or_default()
            })
            .collect()
    }

    fn run_order(n: usize, order: &[usize]) -> Vec<u32> {
        let (ids, bufs) = leaves(n);
        let sched = ReduceScheduler::new(n);
        let mut bufs: Vec<Option<GradBuffer>> = bufs.into_iter().map(Some).collect();
        for &i in order {
            sched.complete(i, bufs[i].take().unwrap());
        }
        assert_eq!(sched.merges(), n - 1, "a tree over {n} leaves has n-1 merges");
        bits(&sched.finish(), &ids)
    }

    fn reference(n: usize) -> Vec<u32> {
        let (ids, bufs) = leaves(n);
        bits(&tree_reduce(bufs), &ids)
    }

    #[test]
    fn in_order_matches_post_barrier_reduce() {
        for n in [1usize, 2, 3, 4, 5, 7, 8, 13] {
            let order: Vec<usize> = (0..n).collect();
            assert_eq!(run_order(n, &order), reference(n), "n={n}");
        }
    }

    #[test]
    fn reverse_order_matches() {
        for n in [2usize, 3, 4, 6, 7, 8, 13] {
            let order: Vec<usize> = (0..n).rev().collect();
            assert_eq!(run_order(n, &order), reference(n), "n={n}");
        }
    }

    #[test]
    fn interleaved_order_matches() {
        // evens first, then odds — adjacent pairs always complete apart
        for n in [4usize, 5, 7, 8, 13] {
            let mut order: Vec<usize> = (0..n).step_by(2).collect();
            order.extend((1..n).step_by(2));
            assert_eq!(run_order(n, &order), reference(n), "n={n}");
        }
    }

    #[test]
    fn every_single_straggler_matches() {
        // shard k arrives last: everything else must pre-reduce, leaving
        // only k's root path.
        for n in [3usize, 4, 7, 8] {
            for k in 0..n {
                let mut order: Vec<usize> = (0..n).filter(|&i| i != k).collect();
                order.push(k);
                assert_eq!(run_order(n, &order), reference(n), "n={n} straggler={k}");
            }
        }
    }

    #[test]
    fn single_leaf_passes_through_untouched() {
        let (ids, mut bufs) = leaves(1);
        let before = bits(&bufs[0], &ids);
        let sched = ReduceScheduler::new(1);
        sched.complete(0, bufs.remove(0));
        assert_eq!(sched.merges(), 0);
        assert_eq!(bits(&sched.finish(), &ids), before);
    }

    #[test]
    #[should_panic(expected = "duplicate completion")]
    fn duplicate_completion_panics() {
        let sched = ReduceScheduler::new(2);
        sched.complete(0, GradBuffer::with_len(1));
        sched.complete(0, GradBuffer::with_len(1));
    }

    #[test]
    #[should_panic(expected = "reduction incomplete")]
    fn finish_before_all_leaves_panics() {
        let sched = ReduceScheduler::new(2);
        sched.complete(1, GradBuffer::with_len(1));
        let _ = sched.finish();
    }
}
