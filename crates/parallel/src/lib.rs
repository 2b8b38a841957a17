//! # legw-parallel
//!
//! A small, dependency-free data-parallelism substrate used by the rest of
//! the LEGW reproduction stack. It provides:
//!
//! * [`ThreadPool`] — a fixed number of *lanes*: `threads − 1` persistent
//!   worker threads plus whichever thread calls `run`. Workers stay alive for
//!   the lifetime of the pool, and stay *awake* between the kernels of one
//!   step, so hot training loops pay neither a thread spawn nor a thread
//!   wake-up per kernel launch.
//! * [`ThreadPool::run`] — a blocking fork/join primitive: run a closure for
//!   every task index `0..n` across the lanes and return once all tasks have
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
//! ## How a fork/join is dispatched and completed
//!
//! Everything is built on `std::sync`; the crate has no dependencies.
//!
//! *Lanes.* `ThreadPool::new(t)` spawns `t − 1` workers, because the caller
//! of `run` always takes part and `run` never engages more than
//! `min(t − 1, tasks − 1)` helpers. A one-lane pool owns no thread and runs
//! everything inline.
//!
//! *Dispatch: spin, then park.* `run` puts a refcounted control block
//! `{next, done, tasks, panicked}` on a mutex-protected queue, once per helper
//! it would like. A worker with nothing to do polls the queue length (an
//! atomic, no lock) for a bounded time — one private constant, 200 µs — and
//! only then registers as a sleeper under the queue lock and waits on a
//! condvar; a submit issues a wake-up only if it finds a registered sleeper.
//! Between two kernels of a training step, tens of µs apart, a worker is
//! therefore still polling and picks the next run up in well under a µs,
//! where a sleep + wake costs 30–45 µs; an idle pool is asleep a quarter of a
//! millisecond after its last run and uses no CPU.
//!
//! *Completion counts tasks, not helpers.* Every thread in a run — the caller
//! first among them — claims indices from `next` and bumps `done` after each
//! body returns; the run is complete when `done == tasks`, which the caller
//! awaits by polling for the same bound and then parking until the thread that
//! finished the last task unparks it. A caller that drained every task itself
//! returns at once, without waiting for a helper to wake up and report that it
//! had nothing to do. Since the caller alone can finish any run, completion
//! never depends on a free worker: `run` cannot deadlock when nested to any
//! depth or called from every lane at once.
//!
//! *Why a late helper is safe.* A helper may reach its queue entry after the
//! caller has returned and its stack frame — the closure included — is gone.
//! The control block is refcounted, so the counters it reads are valid; it
//! finds `next ≥ tasks`, claims nothing and drops the entry. The closure
//! pointer is only ever followed for a claimed index `i < tasks`, and while a
//! claimed task is unfinished `done < tasks` keeps the caller inside `run`.
//!
//! Panics inside tasks are caught and re-raised on the submitting thread once
//! every task has finished, so a failed kernel neither deadlocks the run nor
//! kills a worker.
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

mod pool;
mod iter;
mod scope;

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

/// Installs the thread budget (lanes) [`global`] (and [`default_threads`])
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
