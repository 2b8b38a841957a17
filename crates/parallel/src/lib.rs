//! # legw-parallel
//!
//! A small, dependency-light data-parallelism substrate used by the rest of
//! the LEGW reproduction stack. It provides:
//!
//! * [`ThreadPool`] — a persistent pool of worker threads fed through a
//!   crossbeam channel. Workers stay alive for the lifetime of the pool, so
//!   hot training loops pay no thread-spawn cost per kernel launch.
//! * [`ThreadPool::run`] — a blocking fork/join primitive: run a closure for
//!   every task index `0..n` across the pool and return once all tasks have
//!   finished. Because the call blocks until completion, the closure may
//!   borrow from the caller's stack (the same soundness argument as rayon's
//!   `scope`).
//! * [`parallel_for`], [`par_chunks_mut`], [`par_tiles_2d`] — the
//!   data-parallel helpers the tensor kernels are built on (the last one
//!   is the 2-D grid launch used by blocked GEMM).
//! * [`global`] — a process-wide lazily initialised pool (size taken from
//!   [`set_default_threads`] if called before first use, otherwise the
//!   machine's available parallelism). This crate reads no environment
//!   variables: `LEGW_THREADS` is parsed exactly once, in
//!   `legw::exec::ExecConfig::from_env`, which installs the budget here.
//! * [`current`] / [`with_pool`] — thread-local pool scoping so nested
//!   parallelism (e.g. data-parallel shard workers in the training
//!   executor) can give each outer worker its own small intra-op pool
//!   instead of oversubscribing the global one.
//!
//! The design follows the classic channel + latch structure: jobs are
//! `Box<dyn FnOnce() + Send>` values pushed into an unbounded channel;
//! completion is tracked with a [`CountLatch`] built from an atomic counter
//! and a `parking_lot` mutex/condvar pair. Panics inside tasks are caught and
//! re-raised on the submitting thread so a failed kernel cannot deadlock the
//! latch.
//!
//! ```
//! let pool = legw_parallel::ThreadPool::new(4);
//! let mut out = vec![0usize; 1000];
//! legw_parallel::par_chunks_mut(&pool, &mut out, 64, |start, chunk| {
//!     for (i, v) in chunk.iter_mut().enumerate() {
//!         *v = (start + i) * 2;
//!     }
//! });
//! assert_eq!(out[123], 246);
//! ```

mod latch;
mod pool;
mod iter;
mod scope;

pub use latch::CountLatch;
pub use pool::ThreadPool;
pub use iter::{par_chunks_mut, par_tiles_2d, parallel_for, split_evenly};
pub use scope::{current, with_pool, PoolHandle};

use std::sync::OnceLock;

static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
static DEFAULT_THREADS: OnceLock<usize> = OnceLock::new();

/// Returns the process-wide thread pool, creating it on first use.
///
/// The pool size is the value installed by [`set_default_threads`] (if any),
/// otherwise [`std::thread::available_parallelism`], otherwise 4.
pub fn global() -> &'static ThreadPool {
    GLOBAL.get_or_init(|| ThreadPool::new(default_threads()))
}

/// Installs the worker-thread budget [`global`] (and [`default_threads`])
/// will report. First caller wins; calls after the global pool has been
/// created (or after an earlier install) have no effect. Returns whether
/// this call's value took.
///
/// This is how the executor's `ExecConfig` — the single place `LEGW_THREADS`
/// is parsed — propagates the configured budget down to the kernel pool
/// without this crate touching the environment.
pub fn set_default_threads(threads: usize) -> bool {
    DEFAULT_THREADS.set(threads.max(1)).is_ok()
}

/// The thread count [`global`] will use (before the pool is created):
/// the [`set_default_threads`] value, else the machine's parallelism.
pub fn default_threads() -> usize {
    if let Some(&n) = DEFAULT_THREADS.get() {
        return n;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_pool_is_usable() {
        let pool = global();
        assert!(pool.threads() >= 1);
        let mut v = vec![0u64; 257];
        par_chunks_mut(pool, &mut v, 16, |start, c| {
            for (i, x) in c.iter_mut().enumerate() {
                *x = (start + i) as u64;
            }
        });
        assert_eq!(v[256], 256);
    }

    #[test]
    fn default_threads_positive() {
        assert!(default_threads() >= 1);
    }
}
