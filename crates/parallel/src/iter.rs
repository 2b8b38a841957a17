//! Data-parallel helpers built on [`ThreadPool::run`].

use crate::pool::ThreadPool;
use std::ops::Range;
use std::sync::Mutex;

/// Splits `0..len` into at most `max_parts` near-equal contiguous ranges.
///
/// Every element is covered exactly once and ranges are returned in order.
/// Used by the kernels to decide a work decomposition up front.
pub fn split_evenly(len: usize, max_parts: usize) -> Vec<Range<usize>> {
    if len == 0 || max_parts == 0 {
        return Vec::new();
    }
    let parts = max_parts.min(len);
    let base = len / parts;
    let extra = len % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let sz = base + usize::from(p < extra);
        out.push(start..start + sz);
        start += sz;
    }
    debug_assert_eq!(start, len);
    out
}

/// Runs `f(i)` for every `i < n` as one fork/join on `pool` and returns the
/// results in index order. A panic in any `f` is re-raised by the pool once
/// every task has finished.
pub fn fork<R: Send>(pool: &ThreadPool, n: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    pool.run(n, |i| *slots[i].lock().unwrap() = Some(f(i)));
    slots.into_iter().map(|s| s.into_inner().unwrap().expect("a task did not report")).collect()
}

/// Runs `body` over contiguous sub-ranges of `0..len` in parallel.
///
/// `min_chunk` bounds the smallest range a task will receive; work smaller
/// than one chunk runs inline on the caller with no synchronisation cost.
pub fn parallel_for<F>(pool: &ThreadPool, len: usize, min_chunk: usize, body: F)
where
    F: Fn(Range<usize>) + Sync,
{
    let min_chunk = min_chunk.max(1);
    if len == 0 {
        return;
    }
    if len <= min_chunk || pool.threads() == 1 {
        body(0..len);
        return;
    }
    let max_parts = (len / min_chunk).max(1).min(pool.threads() * 4);
    let ranges = split_evenly(len, max_parts);
    pool.run(ranges.len(), |i| body(ranges[i].clone()));
}

/// Mutably processes disjoint chunks of `data` in parallel.
///
/// `body(start, chunk)` receives the chunk's offset into `data` and the chunk
/// itself. Chunks are `chunk_len` long except possibly the last.
pub fn par_chunks_mut<T, F>(pool: &ThreadPool, data: &mut [T], chunk_len: usize, body: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let chunk_len = chunk_len.max(1);
    let len = data.len();
    if len == 0 {
        return;
    }
    let n_chunks = len.div_ceil(chunk_len);
    if n_chunks == 1 || pool.threads() == 1 {
        for (ci, chunk) in data.chunks_mut(chunk_len).enumerate() {
            body(ci * chunk_len, chunk);
        }
        return;
    }
    struct SendPtr<T>(*mut T);
    // SAFETY: the pointer is only used to carve out `&mut [T]` chunks that
    // are pairwise disjoint (below), each handed to exactly one task, so
    // sharing the wrapper shares no `T`; a task may run on another thread,
    // which moves its `&mut [T]` there and needs `T: Send`.
    unsafe impl<T: Send> Sync for SendPtr<T> {}
    impl<T> SendPtr<T> {
        // Method access keeps the closure capturing the whole wrapper (which
        // is Sync) rather than the raw-pointer field (which is not).
        fn get(&self) -> *mut T {
            self.0
        }
    }
    let base = SendPtr(data.as_mut_ptr());
    pool.run(n_chunks, |i| {
        let start = i * chunk_len;
        let end = (start + chunk_len).min(len);
        debug_assert!(start < end && end <= len, "chunk {i} outside the slice");
        // SAFETY: `i < n_chunks = ceil(len / chunk_len)`, so
        // `start < end <= len` lies inside `data`, which `run` keeps mutably
        // borrowed until every task has finished. `run` hands each `i` to
        // one task only, and chunk `i` is the half-open range
        // [i*chunk_len, min((i+1)*chunk_len, len)): no two chunks overlap.
        let chunk = unsafe { std::slice::from_raw_parts_mut(base.get().add(start), end - start) };
        body(start, chunk);
    });
}

/// Runs `body(ti, tj)` for every tile of a `tiles_m × tiles_n` grid in
/// parallel.
///
/// This is the launch shape of 2-D blocked kernels (GEMM): the output is cut
/// into an (M-block × N-block) grid and every grid cell is an independent
/// task, so tall-skinny and short-wide problems still fan out over all
/// threads — a row-only decomposition would leave most of the pool idle when
/// `tiles_m < threads`. Tiles are dispatched through [`ThreadPool::run`]'s
/// dynamic counter, so uneven tile costs load-balance automatically.
pub fn par_tiles_2d<F>(pool: &ThreadPool, tiles_m: usize, tiles_n: usize, body: F)
where
    F: Fn(usize, usize) + Sync,
{
    let total = tiles_m.checked_mul(tiles_n).expect("tile grid overflows usize");
    if total == 0 {
        return;
    }
    pool.run(total, |idx| body(idx / tiles_n, idx % tiles_n));
}

#[cfg(test)]
mod tests {
    use super::*;
    use legw_propcheck::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn pool() -> ThreadPool {
        ThreadPool::new(4)
    }

    #[test]
    fn split_evenly_covers_all() {
        let parts = split_evenly(10, 3);
        assert_eq!(parts, vec![0..4, 4..7, 7..10]);
    }

    #[test]
    fn split_evenly_more_parts_than_items() {
        let parts = split_evenly(2, 8);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0], 0..1);
        assert_eq!(parts[1], 1..2);
    }

    #[test]
    fn split_evenly_empty() {
        assert!(split_evenly(0, 4).is_empty());
        assert!(split_evenly(4, 0).is_empty());
    }

    #[test]
    fn parallel_for_visits_each_index_once() {
        let p = pool();
        let hits: Vec<AtomicUsize> = (0..513).map(|_| AtomicUsize::new(0)).collect();
        parallel_for(&p, hits.len(), 8, |r| {
            for i in r {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_for_small_runs_inline() {
        let p = pool();
        let count = AtomicUsize::new(0);
        parallel_for(&p, 3, 64, |r| {
            assert_eq!(r, 0..3);
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn par_chunks_mut_writes_disjointly() {
        let p = pool();
        let mut v = vec![0usize; 1003];
        par_chunks_mut(&p, &mut v, 100, |start, chunk| {
            for (i, x) in chunk.iter_mut().enumerate() {
                *x = start + i;
            }
        });
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, i);
        }
    }

    #[test]
    fn par_tiles_2d_covers_grid_once() {
        let p = pool();
        let tiles: Vec<AtomicUsize> = (0..7 * 5).map(|_| AtomicUsize::new(0)).collect();
        par_tiles_2d(&p, 7, 5, |ti, tj| {
            tiles[ti * 5 + tj].fetch_add(1, Ordering::Relaxed);
        });
        assert!(tiles.iter().all(|t| t.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn par_tiles_2d_empty_grid_is_noop() {
        let p = pool();
        par_tiles_2d(&p, 0, 5, |_, _| panic!("no tiles"));
        par_tiles_2d(&p, 3, 0, |_, _| panic!("no tiles"));
    }

    proptest! {
        #[test]
        fn prop_split_evenly_partition(len in 0usize..500, parts in 0usize..32) {
            let rs = split_evenly(len, parts);
            // ranges are contiguous, ordered, and cover 0..len exactly
            let mut cursor = 0usize;
            for r in &rs {
                prop_assert_eq!(r.start, cursor);
                prop_assert!(r.end > r.start);
                cursor = r.end;
            }
            prop_assert_eq!(cursor, if parts == 0 { 0 } else { len });
            if len > 0 && parts > 0 {
                let max = rs.iter().map(|r| r.len()).max().unwrap();
                let min = rs.iter().map(|r| r.len()).min().unwrap();
                prop_assert!(max - min <= 1, "near-equal split");
            }
        }

        #[test]
        fn prop_par_chunks_mut_equiv_serial(len in 0usize..800, chunk in 1usize..97) {
            let p = ThreadPool::new(4);
            let mut a = vec![0usize; len];
            let mut b = vec![0usize; len];
            par_chunks_mut(&p, &mut a, chunk, |start, c| {
                for (i, x) in c.iter_mut().enumerate() { *x = (start + i) * 3 + 1; }
            });
            for (i, x) in b.iter_mut().enumerate() { *x = i * 3 + 1; }
            prop_assert_eq!(a, b);
        }
    }
}
