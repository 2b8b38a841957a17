//! Thread-local pool scoping for nested parallelism.
//!
//! The tensor kernels launch their intra-op work on whatever
//! [`current`] returns. By default that is the process-wide [`global`]
//! pool, but a caller that already *is* a parallel worker — e.g. a
//! data-parallel shard task in the training executor — can install a
//! smaller dedicated pool with [`with_pool`] for the duration of a
//! closure. This splits an explicit thread budget (`P` shard workers ×
//! `T/P` intra-op threads each) instead of letting every shard fan out
//! onto the same `T`-lane pool, where the shards' kernels would queue
//! behind one another for the same few workers.
//!
//! The override is per-thread and restored (even on panic) when the
//! closure returns, so scoping one shard never affects kernels launched
//! from the main thread or from other shards.

use crate::pool::ThreadPool;
use crate::global;
use std::cell::RefCell;
use std::ops::Deref;
use std::sync::Arc;

thread_local! {
    static CURRENT: RefCell<Option<Arc<ThreadPool>>> = const { RefCell::new(None) };
}

/// The pool kernels on this thread should use: either the process-wide
/// global pool or a scoped override installed by [`with_pool`].
///
/// Derefs to [`ThreadPool`], so call sites can stay pool-agnostic:
/// `par_chunks_mut(&current(), ...)`.
pub enum PoolHandle {
    /// The process-wide pool from [`global`].
    Global(&'static ThreadPool),
    /// A pool installed by an enclosing [`with_pool`] call.
    Scoped(Arc<ThreadPool>),
}

impl Deref for PoolHandle {
    type Target = ThreadPool;

    fn deref(&self) -> &ThreadPool {
        match self {
            PoolHandle::Global(p) => p,
            PoolHandle::Scoped(p) => p,
        }
    }
}

/// Returns the pool the current thread should launch intra-op work on.
///
/// Inside a [`with_pool`] scope this is the scoped pool; everywhere else
/// it is [`global`].
pub fn current() -> PoolHandle {
    match CURRENT.with(|c| c.borrow().clone()) {
        Some(p) => PoolHandle::Scoped(p),
        None => PoolHandle::Global(global()),
    }
}

/// Runs `f` with `pool` installed as this thread's [`current`] pool.
///
/// Scopes nest: the previous override (if any) is restored when `f`
/// returns or panics.
pub fn with_pool<R>(pool: &Arc<ThreadPool>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Arc<ThreadPool>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0.take();
            CURRENT.with(|c| *c.borrow_mut() = prev);
        }
    }
    let prev = CURRENT.with(|c| c.borrow_mut().replace(Arc::clone(pool)));
    let _restore = Restore(prev);
    f()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn current_defaults_to_global() {
        assert_eq!(current().threads(), global().threads());
    }

    #[test]
    fn with_pool_overrides_and_restores() {
        let small = Arc::new(ThreadPool::new(1));
        let seen = with_pool(&small, || current().threads());
        assert_eq!(seen, 1);
        // Restored after the scope.
        assert_eq!(current().threads(), global().threads());
    }

    #[test]
    fn scopes_nest_and_unwind() {
        let a = Arc::new(ThreadPool::new(2));
        let b = Arc::new(ThreadPool::new(3));
        with_pool(&a, || {
            assert_eq!(current().threads(), 2);
            with_pool(&b, || assert_eq!(current().threads(), 3));
            assert_eq!(current().threads(), 2);
        });
        assert_eq!(current().threads(), global().threads());
    }

    #[test]
    fn override_is_restored_on_panic() {
        let small = Arc::new(ThreadPool::new(1));
        let res = catch_unwind(AssertUnwindSafe(|| {
            with_pool(&small, || panic!("boom"));
        }));
        assert!(res.is_err());
        assert_eq!(current().threads(), global().threads());
    }

    #[test]
    fn override_is_per_thread() {
        let small = Arc::new(ThreadPool::new(1));
        with_pool(&small, || {
            // A fresh thread must not inherit this thread's override.
            let t = std::thread::spawn(|| current().threads());
            assert_eq!(t.join().unwrap(), global().threads());
            assert_eq!(current().threads(), 1);
        });
    }
}
