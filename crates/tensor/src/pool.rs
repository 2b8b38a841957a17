//! Recycling allocator for kernel output buffers.
//!
//! Training loops produce the same tensor shapes step after step: every
//! matmul, im2col, and gradient accumulation allocates an output buffer,
//! uses it briefly, and drops it when the autograd tape is discarded. Paying
//! the allocator (and page-faulting fresh zero pages) for each of those is
//! measurable churn at large batch sizes, so `Buffer` — the storage behind
//! every [`crate::Tensor`] — returns its `Vec<f32>` to a thread-local free
//! list on drop, and new kernel outputs are carved from that list when a
//! fitting buffer is available.
//!
//! The pool is deliberately simple and bounded:
//!
//! * **Thread-local** — no locks; a buffer freed on a worker thread is
//!   reused by that worker. Training loops allocate and free on the main
//!   thread, which is where the hits land.
//! * **First fit with a waste cap** — a pooled buffer is reused when its
//!   capacity is at least the request and at most `WASTE_FACTOR`× the
//!   request, so a giant buffer is never pinned under a tiny tensor.
//! * **Bounded** — at most `MAX_POOLED` buffers / `MAX_POOL_FLOATS`
//!   floats per thread; tiny buffers (< `MIN_POOL_ELEMS` elements) skip
//!   the pool entirely since the allocator already handles them well.
//! * **The heap under it keeps its pages** — what the list turns away goes
//!   back to the allocator, which must not hand it on to the kernel between
//!   one tape and the next: see `settle_heap`.

use std::cell::RefCell;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Once;

/// Buffers below this many elements are never pooled.
const MIN_POOL_ELEMS: usize = 1024;
/// Maximum number of buffers retained per thread.
const MAX_POOLED: usize = 48;
/// Maximum total floats retained per thread (64 MiB).
const MAX_POOL_FLOATS: usize = 16 * 1024 * 1024;
/// A pooled buffer is only reused if its capacity is ≤ this multiple of the
/// requested length.
const WASTE_FACTOR: usize = 2;

#[derive(Default)]
struct FreeList {
    bufs: Vec<Vec<f32>>,
    total: usize,
    hits: usize,
    misses: usize,
}

thread_local! {
    static POOL: RefCell<FreeList> = {
        settle_heap();
        RefCell::new(FreeList::default())
    };
}

/// Size of the one block [`settle_heap`] allocates and frees.
const SETTLE_BYTES: usize = 4 << 20;

/// Keeps glibc from returning a dropped tape's memory to the kernel. Runs
/// once per process, before the first buffer is taken or given.
///
/// A tape holds every intermediate until it is dropped: one 64-row
/// `Seq2Seq::greedy_decode` batch is about 350 pool-sized buffers, 3.3 MiB, of
/// which the free list keeps [`MAX_POOLED`]. The rest is freed at once, and
/// when more than `M_TRIM_THRESHOLD` lies free at the top of the heap glibc
/// shrinks the heap — so the next batch faults the same pages back in. On
/// the benchmark box that was 1.5 M minor faults in a 27 s `seq2seq_b16` run
/// and 14 ms instead of 8 ms per `eval_seq2seq_bleu` call. Worse, it came
/// and went: the threshold starts at 128 KiB and glibc moves it (mallopt(3),
/// "dynamic mmap threshold") to twice the size of the largest `mmap`ped
/// block freed so far, and a live block above the tape stops the trim
/// altogether, so the same call ran fast or slow for seconds on end depending
/// on what else the process had allocated, and a run's median landed on
/// either side.
///
/// Freeing one `mmap`ped block of [`SETTLE_BYTES`] is that documented
/// adjustment, made up front: blocks up to 4 MiB then come from the heap and
/// up to 8 MiB may lie free at its top. The block is never touched, so it
/// costs an `mmap`/`munmap` pair and no memory; workloads with larger
/// buffers move the thresholds further, as before (starting at 8 MiB cost
/// `resnet_b128_lars` 7 % of its eval throughput, at 4 MiB nothing
/// resolvable: its multi-MiB buffers are better off `mmap`ped afresh than
/// cleared on the heap). An allocator without the adjustment sees a no-op.
fn settle_heap() {
    static ONCE: Once = Once::new();
    // `black_box`: an unused allocation may otherwise be optimised out.
    ONCE.call_once(|| drop(black_box(Vec::<u8>::with_capacity(SETTLE_BYTES))));
}

/// Takes a `len`-long vector — recycled if the pool has a fit. With
/// `zero`, recycled contents are cleared; without it, the prefix keeps
/// whatever the previous owner wrote (only the grown tail is zero-filled,
/// which `Vec::resize` guarantees), so callers must overwrite every element.
fn take(len: usize, zero: bool) -> Vec<f32> {
    let reused = POOL
        .try_with(|p| {
            let mut p = p.borrow_mut();
            let pos = p
                .bufs
                .iter()
                .position(|b| b.capacity() >= len && b.capacity() <= WASTE_FACTOR * len.max(MIN_POOL_ELEMS));
            match pos {
                Some(i) => {
                    let b = p.bufs.swap_remove(i);
                    p.total -= b.capacity();
                    p.hits += 1;
                    Some(b)
                }
                None => {
                    p.misses += 1;
                    None
                }
            }
        })
        .ok()
        .flatten();
    match reused {
        Some(mut b) => {
            if zero {
                b.clear();
            }
            b.resize(len, 0.0);
            track_acquire(b.capacity(), true);
            b
        }
        None => {
            let b = vec![0.0; len];
            track_acquire(b.capacity(), false);
            b
        }
    }
}

/// Takes a zeroed, `len`-long vector — recycled if the pool has a fit.
fn take_zeroed(len: usize) -> Vec<f32> {
    take(len, true)
}

/// Offers a vector back to the pool (dropped if over budget or too small).
fn give(v: Vec<f32>) {
    if v.capacity() < MIN_POOL_ELEMS {
        return;
    }
    let _ = POOL.try_with(|p| {
        let mut p = p.borrow_mut();
        if p.bufs.len() < MAX_POOLED && p.total + v.capacity() <= MAX_POOL_FLOATS {
            p.total += v.capacity();
            p.bufs.push(v);
        }
    });
}

/// Pre-sizes this thread's free list for a workload whose peak live set is
/// `bytes` (e.g. a compiled plan's `PlanStats::peak_live_bytes`): seeds a
/// doubling ladder of power-of-two buffers, two per rung, from
/// `MIN_POOL_ELEMS` up to the first power of two covering the peak. The
/// take-side fit test accepts a buffer whose capacity is within
/// `WASTE_FACTOR`× of the request, so for any request of `len ≥ 1` the
/// rung at `len.next_power_of_two().max(MIN_POOL_ELEMS)` qualifies —
/// after prewarming, first-use requests up to the peak hit the pool
/// instead of the allocator. Offers go through the normal `give` path,
/// so the per-thread buffer/byte budgets still apply; a second prewarm of
/// an already-warm pool is a bounded no-op once the caps are reached.
/// Returns the number of buffers offered. Seeded capacity never touches
/// the live-buffer counters ([`stats`]) until taken.
pub fn prewarm(bytes: usize) -> usize {
    if bytes == 0 {
        return 0;
    }
    // Anything past the per-thread float budget would be rejected by
    // `give` regardless, so clamp the ladder there.
    let floats = bytes.div_ceil(4).min(MAX_POOL_FLOATS);
    let mut offered = 0;
    let mut rung = MIN_POOL_ELEMS;
    loop {
        for _ in 0..2 {
            give(Vec::with_capacity(rung));
            offered += 1;
        }
        if rung >= floats {
            break;
        }
        rung *= 2;
    }
    offered
}

/// `(hits, misses)` of this thread's pool — test/diagnostic hook.
#[allow(dead_code)]
pub(crate) fn thread_stats() -> (usize, usize) {
    POOL.with(|p| {
        let p = p.borrow();
        (p.hits, p.misses)
    })
}

// Process-wide buffer accounting. Relaxed counters on the buffer create /
// drop paths cost one uncontended atomic op each — noise next to the memset
// or memcpy that accompanies every buffer — and make the "steady-state
// replay performs zero allocations" claim measurable instead of asserted.
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static RECYCLES: AtomicUsize = AtomicUsize::new(0);
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static HIGH_WATER_BYTES: AtomicUsize = AtomicUsize::new(0);

/// Cumulative process-wide buffer-pool counters (all threads).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers materialised by the allocator (pool misses plus wrapped
    /// caller-allocated vectors).
    pub allocations: usize,
    /// Buffers recycled from a thread-local free list (pool hits).
    pub recycles: usize,
    /// Bytes currently held by live `Buffer`s (excludes pooled free lists).
    pub live_bytes: usize,
    /// Maximum `live_bytes` ever observed.
    pub high_water_bytes: usize,
}

impl PoolStats {
    /// Counter movement since an earlier snapshot (`live_bytes` is a gauge
    /// and is reported as-is).
    pub fn since(&self, earlier: &PoolStats) -> PoolStats {
        PoolStats {
            allocations: self.allocations - earlier.allocations,
            recycles: self.recycles - earlier.recycles,
            live_bytes: self.live_bytes,
            high_water_bytes: self.high_water_bytes,
        }
    }
}

/// Snapshot of the process-wide pool counters.
pub fn stats() -> PoolStats {
    PoolStats {
        allocations: ALLOCATIONS.load(Ordering::Relaxed),
        recycles: RECYCLES.load(Ordering::Relaxed),
        live_bytes: LIVE_BYTES.load(Ordering::Relaxed),
        high_water_bytes: HIGH_WATER_BYTES.load(Ordering::Relaxed),
    }
}

/// Records a buffer entering service; `recycled` says whether its storage
/// came from a free list or the allocator.
fn track_acquire(capacity: usize, recycled: bool) {
    if recycled {
        RECYCLES.fetch_add(1, Ordering::Relaxed);
    } else {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
    let live = LIVE_BYTES.fetch_add(capacity * 4, Ordering::Relaxed) + capacity * 4;
    HIGH_WATER_BYTES.fetch_max(live, Ordering::Relaxed);
}

/// The storage behind [`crate::Tensor`]: a `Vec<f32>` that rejoins the
/// thread-local pool when dropped.
pub(crate) struct Buffer {
    data: Vec<f32>,
}

impl Buffer {
    /// Wraps an existing vector (it will be pooled on drop).
    pub(crate) fn from_vec(data: Vec<f32>) -> Self {
        track_acquire(data.capacity(), false);
        Buffer { data }
    }

    /// A zeroed buffer of `len` elements, recycled from the pool if possible.
    pub(crate) fn zeroed(len: usize) -> Self {
        Buffer { data: take_zeroed(len) }
    }

    /// A `len`-element buffer whose contents are unspecified (stale pool data
    /// or zeros). For kernels that overwrite every element before the buffer
    /// escapes — skips the memset that [`Buffer::zeroed`] pays.
    pub(crate) fn dirty(len: usize) -> Self {
        Buffer { data: take(len, false) }
    }

    /// A buffer of `len` copies of `value`.
    pub(crate) fn filled(len: usize, value: f32) -> Self {
        let mut data = take_zeroed(len);
        if value != 0.0 {
            data.iter_mut().for_each(|x| *x = value);
        }
        Buffer { data }
    }
}

impl Drop for Buffer {
    fn drop(&mut self) {
        let data = std::mem::take(&mut self.data);
        LIVE_BYTES.fetch_sub(data.capacity() * 4, Ordering::Relaxed);
        give(data);
    }
}

impl Clone for Buffer {
    fn clone(&self) -> Self {
        // Copy-on-write path: pull a pooled buffer and overwrite it.
        let mut data = take_zeroed(self.data.len());
        data.copy_from_slice(&self.data);
        Buffer { data }
    }
}

impl std::ops::Deref for Buffer {
    type Target = [f32];
    fn deref(&self) -> &[f32] {
        &self.data
    }
}

impl std::ops::DerefMut for Buffer {
    fn deref_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }
}

impl PartialEq for Buffer {
    fn eq(&self, other: &Self) -> bool {
        self.data == other.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_buffers_bypass_pool() {
        let before = thread_stats();
        drop(Buffer::from_vec(vec![1.0; 8]));
        let b = Buffer::zeroed(8);
        assert_eq!(&*b, &[0.0; 8]);
        let after = thread_stats();
        // an 8-element request never produces a pool hit
        assert_eq!(after.0, before.0);
    }

    #[test]
    fn steady_state_reuses_buffers() {
        let len = 64 * 1024;
        // Warm the pool with one buffer of the steady-state size.
        drop(Buffer::zeroed(len));
        let (h0, _) = thread_stats();
        for _ in 0..10 {
            let b = Buffer::zeroed(len);
            assert!(b.iter().all(|&x| x == 0.0), "recycled buffer must be zeroed");
            drop(b);
        }
        let (h1, _) = thread_stats();
        assert!(h1 >= h0 + 10, "expected ≥10 pool hits, got {}", h1 - h0);
    }

    #[test]
    fn recycled_buffer_is_rezeroed_after_writes() {
        let len = 8192;
        {
            let mut b = Buffer::zeroed(len);
            b.iter_mut().for_each(|x| *x = 3.5);
        }
        let b = Buffer::zeroed(len);
        assert!(b.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn clone_is_deep() {
        let mut a = Buffer::filled(4096, 2.0);
        let b = a.clone();
        a[0] = -1.0;
        assert_eq!(b[0], 2.0);
        assert_eq!(b[4095], 2.0);
    }

    #[test]
    fn prewarm_serves_first_takes_without_allocating() {
        // Each Rust test runs on its own thread, so this thread's pool is
        // cold: without prewarm every take below would be a miss.
        prewarm(300 * 1024); // 76 800 floats → ladder up to 131 072
        let (h0, m0) = thread_stats();
        let a = Buffer::zeroed(70_000);
        let b = Buffer::zeroed(70_000); // two per rung: second take same size
        let c = Buffer::dirty(4_000);
        let (h1, m1) = thread_stats();
        assert_eq!(m1, m0, "prewarmed pool must serve first takes without a miss");
        assert_eq!(h1, h0 + 3);
        drop((a, b, c));
    }

    #[test]
    fn prewarm_respects_pool_budgets() {
        // Prewarming for an absurd peak must not blow the per-thread caps.
        prewarm(usize::MAX / 8);
        POOL.with(|p| {
            let p = p.borrow();
            assert!(p.bufs.len() <= MAX_POOLED);
            assert!(p.total <= MAX_POOL_FLOATS);
        });
    }

    /// Minor page faults taken by this thread so far.
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    fn thread_faults() -> u64 {
        let stat = std::fs::read_to_string("/proc/thread-self/stat").expect("procfs");
        // Fields after the parenthesised command name: state, ppid, pgrp,
        // session, tty, tpgid, flags, minflt.
        let after_comm = stat.rsplit(')').next().unwrap();
        after_comm.split_whitespace().nth(7).unwrap().parse().unwrap()
    }

    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    #[test]
    fn dropped_tape_keeps_its_pages() {
        settle_heap();
        // A tape's worth of pool-sized buffers, written, then dropped at
        // once: 6 MiB, under the 8 MiB that may now lie free.
        let tape = || {
            let bufs: Vec<Vec<f32>> = (0..192).map(|_| vec![1.0f32; 8192]).collect();
            black_box(&bufs);
        };
        tape();
        tape();
        let before = thread_faults();
        for _ in 0..4 {
            tape();
        }
        let faults = thread_faults() - before;
        // Re-faulting even one of the four would be 1536 pages.
        assert!(faults < 512, "{faults} page faults rebuilding a dropped tape");
    }

    #[test]
    fn oversized_buffer_not_pinned_under_small_request() {
        // A huge buffer must not be handed out for a much smaller request.
        drop(Buffer::zeroed(1 << 20));
        let small = Buffer::zeroed(2048);
        assert!(small.len() == 2048);
        // capacity of the vec backing `small` must be bounded by the waste cap
        assert!(small.data.capacity() <= WASTE_FACTOR * 2048.max(MIN_POOL_ELEMS));
    }
}
