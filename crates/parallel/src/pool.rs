//! The persistent worker pool: spin-then-park dispatch, task-counted
//! completion.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle, Thread};
use std::time::{Duration, Instant};

/// How long a thread with nothing to do — a worker whose queue is empty, a
/// caller whose last tasks are still running on helpers — keeps polling
/// before it parks on the kernel.
///
/// A training step is a train of ~100 µs parallel regions a few to a few tens
/// of µs of serial work apart, and a futex sleep + wake costs 30–45 µs on the
/// benchmark box, so the bound has to outlast the gap between two regions of
/// one step and nothing more. Measured on `legw-perf`'s `mnist_b32` (~95
/// forking regions per step, 2 lanes; median `train_to_target_s` in reference
/// seconds over four runs per setting, order rotated, seeds 300–303; the
/// channel + latch pool this replaced: 6.53): park at once 6.39, 20 µs 5.70,
/// 50 µs 5.38, 200 µs 5.28, 1 ms 5.21. The curve is flat from 200 µs, where an
/// idle pool is still asleep a quarter of a millisecond after its last run —
/// which is what keeps polling a wash rather than a loss when other
/// processes want the cores (CHANGES.md, ISSUE 19).
const SPIN_BOUND: Duration = Duration::from_micros(200);

/// Polls `ready` until it holds (`true`) or [`SPIN_BOUND`] has passed
/// (`false`).
fn spin_until(ready: impl Fn() -> bool) -> bool {
    if ready() {
        return true;
    }
    let start = Instant::now();
    loop {
        // Reading the clock costs as much as a few dozen polls, so it is
        // read once per 32 of them.
        for _ in 0..32 {
            std::hint::spin_loop();
            if ready() {
                return true;
            }
        }
        if start.elapsed() >= SPIN_BOUND {
            return false;
        }
    }
}

/// A schedule perturbation at every point of the wake-up protocol where
/// another thread's move could be missed. Compiled only into this crate's
/// own unit tests, all of which therefore run under it.
#[cfg(test)]
fn interleave() {
    thread::yield_now();
}
#[cfg(not(test))]
#[inline(always)]
fn interleave() {}

/// The control block of one [`ThreadPool::run`] call, shared (refcounted)
/// between the caller and every helper entry it queued, so a helper that
/// gets to its entry after the caller has returned still finds valid
/// counters — and, seeing `next >= tasks`, nothing to do.
struct Run {
    /// Next unclaimed task index; `>= tasks` once every index is taken.
    next: AtomicUsize,
    /// Tasks whose body has returned (or unwound). The run is complete when
    /// this equals `tasks`.
    done: AtomicUsize,
    tasks: usize,
    panicked: AtomicBool,
    /// The caller's `&F`, type-erased. Only valid while the caller is inside
    /// `run`; see the `SAFETY` notes below for why that is enough.
    body: *const (),
    /// `F`'s monomorphised entry point for `body`.
    call: unsafe fn(*const (), usize),
    /// The thread inside `run`, unparked by whoever finishes the last task.
    caller: Thread,
}

// SAFETY: every field but `body` is `Send + Sync` by itself. `body` points
// at an `F: Sync` (the bound on `ThreadPool::run`), so calling it through a
// shared reference from another thread is allowed as long as the pointee is
// alive, and `Run::drain` only dereferences it for a claimed index
// `i < tasks`: that task is then not yet counted in `done`, so
// `done < tasks`, so the caller — which leaves `run` only after it has seen
// `done == tasks` — still holds `F` on its stack. Moving or sharing the
// block itself moves no `F`.
unsafe impl Send for Run {}
// SAFETY: workers share a `Run` only through `&Run`, and the one thing they
// reach through it beyond `Send + Sync` fields is `body`, called as `&F`
// with `F: Sync` while the caller keeps `F` alive — the argument above.
unsafe impl Sync for Run {}

/// Calls the `F` behind `body` on index `i`.
///
/// # Safety
/// `body` must have been made from a `&F` whose referent is still alive.
unsafe fn call_body<F: Fn(usize)>(body: *const (), i: usize) {
    // SAFETY: the caller's contract.
    let body = unsafe { &*body.cast::<F>() };
    body(i)
}

impl Run {
    /// Claims and runs task indices until none is left.
    fn drain(&self) {
        loop {
            // Relaxed: the claim publishes nothing. What a task reads was
            // published to this thread by the queue mutex (helpers) or is
            // the caller's own.
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.tasks {
                return;
            }
            debug_assert!(
                self.done.load(Ordering::Relaxed) < self.tasks,
                "claimed a task of a run that already counted as complete"
            );
            // SAFETY: `i < tasks` was claimed here and is not yet counted in
            // `done`, so the caller is still inside `run` and the `F` that
            // `body` was made from (with `call` instantiated for the same
            // `F`) is alive.
            let outcome = catch_unwind(AssertUnwindSafe(|| unsafe { (self.call)(self.body, i) }));
            if outcome.is_err() {
                // Relaxed: published, like the task's other writes, by the
                // increment of `done` below.
                self.panicked.store(true, Ordering::Relaxed);
            }
            interleave();
            // Release publishes this task's writes. Every increment is a
            // read-modify-write, so the caller's Acquire load of the final
            // value (`Run::wait`) synchronises with all of them.
            if self.done.fetch_add(1, Ordering::Release) + 1 == self.tasks {
                interleave();
                // A token left on a caller that has already seen the count
                // and gone only makes some later `park` return once early,
                // which every user of `park` must tolerate anyway.
                self.caller.unpark();
            }
        }
    }

    /// Blocks the caller until every task has finished: polling while a
    /// helper is likely a few µs from done, parked beyond that.
    fn wait(&self) {
        let complete = || self.done.load(Ordering::Acquire) == self.tasks;
        if spin_until(complete) {
            return;
        }
        interleave();
        // `unpark` before `park` leaves a token that makes `park` return at
        // once, so the increment-then-unpark in `drain` cannot be missed
        // between this check and the sleep.
        while !complete() {
            thread::park();
        }
    }
}

/// What the workers and submitters share.
struct Shared {
    queue: Mutex<Queue>,
    /// `queue.runs.len()`, mirrored (under the lock) so that idle workers
    /// can poll for work without taking it.
    queued: AtomicUsize,
    /// Where workers that have polled for [`SPIN_BOUND`] sleep.
    wake: Condvar,
}

struct Queue {
    /// One entry per helper a `run` asked for.
    runs: VecDeque<Arc<Run>>,
    /// Workers inside `wake.wait`. Registered under the lock, so a submitter
    /// that finds 0 knows every worker will see its push before sleeping.
    sleepers: usize,
    shutdown: bool,
}

impl Shared {
    /// The queue lock. No user code runs under it and each update (push,
    /// pop, a counter, a flag) leaves the queue valid, so a poisoned lock is
    /// simply taken.
    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Queues `helpers` entries for `run` and wakes as many sleepers, if
    /// there are any: a worker that is still polling needs no system call.
    fn submit(&self, run: &Arc<Run>, helpers: usize) {
        let wake = {
            let mut q = self.lock();
            q.runs.extend((0..helpers).map(|_| Arc::clone(run)));
            self.queued.store(q.runs.len(), Ordering::Release);
            helpers.min(q.sleepers)
        };
        interleave();
        for _ in 0..wake {
            self.wake.notify_one();
        }
    }

    /// A worker thread: take an entry, help that run, poll for the next,
    /// park when polling has found nothing for [`SPIN_BOUND`].
    fn work(&self) {
        loop {
            let found = spin_until(|| self.queued.load(Ordering::Acquire) > 0);
            interleave();
            let mut q = self.lock();
            if !found {
                while q.runs.is_empty() && !q.shutdown {
                    q.sleepers += 1;
                    interleave();
                    q = self.wake.wait(q).unwrap_or_else(PoisonError::into_inner);
                    q.sleepers -= 1;
                }
            }
            match q.runs.pop_front() {
                Some(run) => {
                    self.queued.store(q.runs.len(), Ordering::Release);
                    drop(q);
                    run.drain();
                }
                // Another worker was faster; entries left at shutdown belong
                // to runs that have returned (`run` borrows the pool).
                None if q.shutdown => return,
                None => {}
            }
        }
    }
}

/// A fixed number of *lanes* that a fork/join can run on: `threads − 1`
/// persistent worker threads plus the thread that calls [`ThreadPool::run`],
/// which always takes part.
///
/// Dropping the pool stops and joins every worker. The pool is `Sync`, so a
/// single `&'static ThreadPool` (see [`crate::global`]) can be shared by all
/// tensor kernels.
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// A pool of `threads` lanes (clamped to at least 1): spawns
    /// `threads − 1` workers, so a one-lane pool owns no thread at all.
    pub fn new(threads: usize) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue { runs: VecDeque::new(), sleepers: 0, shutdown: false }),
            queued: AtomicUsize::new(0),
            wake: Condvar::new(),
        });
        let workers = (1..threads.max(1))
            .map(|idx| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("legw-worker-{idx}"))
                    .spawn(move || shared.work())
                    .expect("failed to spawn pool worker")
            })
            .collect();
        Self { shared, workers }
    }

    /// Number of lanes: the most threads one [`ThreadPool::run`] engages,
    /// its caller included.
    pub fn threads(&self) -> usize {
        self.workers.len() + 1
    }

    /// Runs `body(task_index)` for every index in `0..tasks`, distributing
    /// indices dynamically over the lanes, and blocks until all have
    /// finished.
    ///
    /// The closure may borrow from the caller's stack: `run` returns only
    /// once every *task* has finished, and a helper touches the closure only
    /// for a task index it has claimed, so no borrow outlives the call —
    /// even though a helper may get to its queue entry after `run` has
    /// returned (it finds no index left and drops the entry). A panic in any
    /// task is captured and re-raised here after the remaining tasks drain.
    ///
    /// The calling thread claims indices like any helper, so completion
    /// never depends on a worker being free: `run` works on a one-lane pool,
    /// from inside a task of the same pool at any nesting depth, and from
    /// every lane at once.
    pub fn run<F>(&self, tasks: usize, body: F)
    where
        F: Fn(usize) + Sync,
    {
        if tasks == 0 {
            return;
        }
        if tasks == 1 || self.workers.is_empty() {
            for i in 0..tasks {
                body(i);
            }
            return;
        }

        let run = Arc::new(Run {
            next: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            tasks,
            panicked: AtomicBool::new(false),
            body: (&body as *const F).cast(),
            call: call_body::<F>,
            caller: thread::current(),
        });
        self.shared.submit(&run, self.workers.len().min(tasks - 1));
        run.drain();
        // `drain` catches every unwind, so nothing leaves this frame — and
        // `body` stays alive — before the wait has seen `done == tasks`.
        run.wait();

        if run.panicked.load(Ordering::Relaxed) {
            panic!("a task panicked inside ThreadPool::run");
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        // Sleepers see the flag when they wake, pollers when they next take
        // the lock: at the latest one SPIN_BOUND from now.
        self.shared.wake.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legw_propcheck::must_finish;

    /// Waits until every worker of `pool` is asleep on the condvar.
    fn until_parked(pool: &ThreadPool) {
        while pool.shared.lock().sleepers < pool.workers.len() {
            thread::sleep(SPIN_BOUND);
        }
    }

    #[test]
    fn run_covers_every_index_exactly_once() {
        let pool = ThreadPool::new(4);
        let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        pool.run(1000, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn run_on_single_thread_pool() {
        let pool = ThreadPool::new(1);
        let sum = AtomicUsize::new(0);
        pool.run(100, |i| {
            sum.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 4950);
    }

    #[test]
    fn one_lane_pool_spawns_nothing_and_runs_inline() {
        let pool = ThreadPool::new(1);
        assert!(pool.workers.is_empty());
        let me = thread::current().id();
        let order = Mutex::new(Vec::new());
        pool.run(5, |i| {
            assert_eq!(thread::current().id(), me);
            order.lock().unwrap().push(i);
        });
        assert_eq!(*order.lock().unwrap(), [0, 1, 2, 3, 4]);
    }

    #[test]
    fn run_zero_tasks_is_noop() {
        let pool = ThreadPool::new(2);
        pool.run(0, |_| panic!("must not be called"));
    }

    #[test]
    fn panic_in_task_propagates_without_deadlock() {
        let pool = ThreadPool::new(4);
        let res = catch_unwind(AssertUnwindSafe(|| {
            pool.run(64, |i| {
                if i == 13 {
                    panic!("boom");
                }
            });
        }));
        assert!(res.is_err());
        // Pool must still be usable afterwards.
        let sum = AtomicUsize::new(0);
        pool.run(16, |i| {
            sum.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 120);
    }

    #[test]
    fn nested_run_does_not_deadlock() {
        let pool = ThreadPool::new(2);
        let total = AtomicUsize::new(0);
        pool.run(4, |_| {
            pool.run(4, |j| {
                total.fetch_add(j, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 4 * 6);
    }

    /// With helper-counted completion every thread of a two-thread pool ends
    /// up parked on a latch whose helper job sits queued behind it.
    #[test]
    fn nested_run_depth_3_on_two_lanes() {
        must_finish(|| {
            let pool = ThreadPool::new(2);
            for _ in 0..200 {
                let total = AtomicUsize::new(0);
                pool.run(4, |_| {
                    pool.run(4, |_| {
                        pool.run(4, |k| {
                            total.fetch_add(k, Ordering::Relaxed);
                        });
                    });
                });
                assert_eq!(total.load(Ordering::Relaxed), 4 * 4 * 6);
            }
        });
    }

    /// Every lane is inside an outer task when the inner runs start, so no
    /// inner run can count on a worker: its caller has to finish it.
    #[test]
    fn run_from_every_lane_at_once() {
        must_finish(|| {
            let lanes = 3;
            let pool = ThreadPool::new(lanes);
            for _ in 0..200 {
                let total = AtomicUsize::new(0);
                let arrived = AtomicUsize::new(0);
                pool.run(lanes, |_| {
                    // Hold every outer task until all lanes have one.
                    arrived.fetch_add(1, Ordering::SeqCst);
                    while arrived.load(Ordering::SeqCst) < lanes {
                        thread::yield_now();
                    }
                    pool.run(8, |j| {
                        total.fetch_add(j, Ordering::Relaxed);
                    });
                });
                assert_eq!(total.load(Ordering::Relaxed), lanes * 28);
            }
        });
    }

    #[test]
    fn borrows_from_stack_are_visible_after_run() {
        let pool = ThreadPool::new(4);
        let data = vec![1u32; 512];
        let sum = AtomicUsize::new(0);
        pool.run(8, |i| {
            let chunk = &data[i * 64..(i + 1) * 64];
            sum.fetch_add(chunk.iter().map(|&x| x as usize).sum(), Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 512);
    }

    /// 10 k back-to-back runs from each of two callers on one pool, under
    /// the yield injection of `interleave`, with idle gaps below, at and well
    /// above the spin bound so that submits meet polling, parking and parked
    /// workers: every index runs exactly once and nothing hangs.
    #[test]
    fn two_callers_across_spin_and_park_run_every_index_once() {
        must_finish(|| {
            let pool = ThreadPool::new(3);
            thread::scope(|s| {
                for caller in 0..2 {
                    let pool = &pool;
                    s.spawn(move || {
                        for round in 0..10_000usize {
                            let tasks = 2 + (round + caller) % 5;
                            let hits: Vec<AtomicUsize> =
                                (0..tasks).map(|_| AtomicUsize::new(0)).collect();
                            pool.run(tasks, |i| {
                                hits[i].fetch_add(1, Ordering::Relaxed);
                            });
                            assert!(
                                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                                "caller {caller} round {round}: {hits:?}"
                            );
                            if round % 500 == caller {
                                thread::sleep(Duration::from_millis(5));
                            } else if round % 20 == caller {
                                thread::sleep(SPIN_BOUND);
                            }
                        }
                    });
                }
            });
        });
    }

    /// The caller usually drains these tiny runs alone and returns while the
    /// helper entry is still queued. A body call after that would be a use
    /// after return (and after free: the captured data is dropped at once);
    /// counted from outside, each run must see exactly `tasks` calls.
    #[test]
    fn late_helper_never_calls_a_returned_body() {
        let calls = AtomicUsize::new(0);
        let pool = ThreadPool::new(3);
        let (rounds, tasks) = (20_000, 3);
        for round in 0..rounds {
            let data: Vec<AtomicUsize> = (0..tasks).map(|_| AtomicUsize::new(round)).collect();
            pool.run(tasks, |i| {
                calls.fetch_add(1, Ordering::Relaxed);
                data[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(data.iter().all(|d| d.load(Ordering::Relaxed) == round + 1));
            drop(data);
            assert_eq!(calls.load(Ordering::Relaxed), (round + 1) * tasks);
        }
        // Joining the workers rules out a call that is merely late.
        drop(pool);
        assert_eq!(calls.load(Ordering::Relaxed), rounds * tasks);
    }

    #[test]
    fn drop_joins_workers() {
        let pool = ThreadPool::new(3);
        pool.run(10, |_| {});
        drop(pool); // must not hang
    }

    #[test]
    fn drop_joins_polling_and_parked_workers() {
        must_finish(|| {
            // Polling: workers that have barely started.
            drop(ThreadPool::new(3));
            // Parked without ever having worked, and parked again after a run.
            let pool = ThreadPool::new(3);
            until_parked(&pool);
            drop(pool);
            let pool = ThreadPool::new(3);
            pool.run(10, |_| {});
            until_parked(&pool);
            drop(pool);
        });
    }

    #[test]
    fn idle_workers_park_and_the_next_run_wakes_them() {
        must_finish(|| {
            let pool = ThreadPool::new(3);
            for _ in 0..20 {
                until_parked(&pool);
                // Tasks that only end once three threads are inside one at
                // the same time: the caller alone cannot finish this run.
                let inside = AtomicUsize::new(0);
                pool.run(3, |_| {
                    inside.fetch_add(1, Ordering::SeqCst);
                    while inside.load(Ordering::SeqCst) < 3 {
                        thread::yield_now();
                    }
                });
            }
        });
    }
}
