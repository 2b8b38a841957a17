//! Data-parallel training executor: shard a batch across workers,
//! all-reduce the gradients deterministically, step once.
//!
//! This is the paper's own computation structure — batch size `B` split
//! over `P` workers, per-worker gradients combined before a single
//! optimizer update (You et al., SC'19) — applied to the local thread
//! pool instead of a cluster:
//!
//! 1. the batch is split into `P` contiguous shards ([`Executor::shards`]
//!    workers, configured via [`ExecConfig`]);
//! 2. each shard runs concurrently into its own [`GradBuffer`] — no shared
//!    `&mut ParamSet`. [`Executor::step`] records the shard's tape
//!    ([`ShardStep::record`]) and runs its backward;
//!    [`Executor::step_planned`] replays the shard's cached plan instead,
//!    compiling the recorded tape on first sight of its shape. The two
//!    share every other line and differ only in that per-shard body;
//! 3. shard buffers are weighted by shard example counts and merged with
//!    the fixed-order pairwise tree of [`crate::reduce_sched`], *streaming*
//!    on every executor: each shard's buffer enters the tree the moment it
//!    completes, so reduction latency hides behind still-running shards
//!    instead of waiting for the slowest one. The merge schedule is
//!    data-independent, so the result is byte-identical to the post-barrier
//!    [`tree_reduce`](crate::reduce_sched::tree_reduce) the tests hold it
//!    to (and across runs), regardless of worker timing;
//! 4. the combined gradient is applied to the `ParamSet` and the caller
//!    performs the single optimizer step.
//!
//! Nested-parallelism budget: shard tasks run on a dedicated `P`-lane
//! pool (`P − 1` workers plus the stepping thread), and each shard installs
//! a private `max(1, T/P)`-lane intra-op pool via
//! [`legw_parallel::with_pool`], so the tensor kernels inside a shard never
//! queue behind another shard's fork/joins and the threads at work stay at
//! `T` ([`ExecConfig::with_threads`]).
//!
//! With one shard (the default) every step runs on the caller's thread
//! against the global pool and is bit-identical to the historical serial
//! trainer path.
//!
//! Configuration is explicit: build an [`ExecConfig`] (or parse the
//! `LEGW_SHARDS` / `LEGW_THREADS` environment variables with
//! [`ExecConfig::from_env`] — the one place in the library that reads
//! those two; `LEGW_KERNEL` is read once, by
//! `legw_tensor::kernels`) and hand it to [`Executor::new`]. The four
//! training workloads plug in through the [`ShardStep`] trait.

use crate::plan_cache::PlanCache;
use crate::reduce_sched::ReduceScheduler;
use crate::steps::{ShardStep, ShardTape};
use legw_models::StepPlan;
use legw_nn::{GradBuffer, ParamSet};
use legw_parallel::{default_threads, with_pool, ThreadPool};
use std::ops::Range;
use std::sync::{Arc, Mutex};

/// Executor configuration: how many shards each batch is split into and
/// the total worker-thread budget. Build with the `with_*` methods or
/// [`ExecConfig::from_env`]:
///
/// ```no_run
/// use legw::exec::{ExecConfig, Executor};
/// let exec = Executor::new(ExecConfig::default().with_shards(4).with_threads(8));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExecConfig {
    /// Maximum shards per batch (`1` = serial executor). Clamped to ≥ 1.
    pub shards: usize,
    /// Total worker-thread budget shared by all shards. `None` leaves the
    /// kernel pool at its default (machine parallelism). Installed via
    /// [`legw_parallel::set_default_threads`], so the first `Executor`
    /// built in a process decides; a later, *different* value is ignored
    /// once the global budget is fixed, and [`Executor::new`] warns on
    /// stderr when that happens.
    pub threads: Option<usize>,
}

impl Default for ExecConfig {
    fn default() -> Self {
        Self { shards: 1, threads: None }
    }
}

impl ExecConfig {
    /// Sets the maximum number of shards per batch.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Sets the total worker-thread budget.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Reads `LEGW_SHARDS` (positive integer, default 1) and `LEGW_THREADS`
    /// (positive integer, default machine parallelism). The SIMD tier is
    /// not part of this config: `LEGW_KERNEL` is read, validated and warned
    /// about by `legw_tensor::kernels` itself, for every entry point.
    ///
    /// A variable that is *set* but malformed (unparsable or zero) falls
    /// back to the default **with a warning on stderr** — a typo in an
    /// experiment script must not silently demote the run to serial.
    ///
    /// This is the **only** place the library consults these two
    /// variables — call it at the composition root (trainers, binaries) and
    /// pass the config down explicitly.
    pub fn from_env() -> Self {
        fn positive(key: &str) -> Option<usize> {
            let raw = std::env::var(key).ok()?;
            match raw.trim().parse::<usize>() {
                Ok(n) if n > 0 => Some(n),
                _ => {
                    eprintln!(
                        "legw: ignoring {key}={raw:?} (expected a positive integer); \
                         falling back to the default"
                    );
                    None
                }
            }
        }
        Self { shards: positive("LEGW_SHARDS").unwrap_or(1), threads: positive("LEGW_THREADS") }
    }
}

/// How shard gradients (and losses) are combined.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reduce {
    /// `Σ (wₛ/W) · gₛ` — exact for losses that are means over examples
    /// (MNIST/ResNet cross-entropy, PTB per-token NLL) when `wₛ` is the
    /// shard example count.
    WeightedMean,
    /// `Σ gₛ` — for shard losses that are already globally normalised
    /// (the seq2seq masked loss with per-step `active_shard/active_batch`
    /// scales).
    Sum,
}

/// What one shard worker returns. Combination weights are supplied to
/// [`Executor::run_shards`] up front (they derive from the shard *data*,
/// not the computation), which is what lets the streaming reduction scale
/// and merge a buffer the moment it completes.
pub struct ShardOut<E> {
    /// The shard's accumulated gradients.
    pub grads: GradBuffer,
    /// The shard's loss value (per [`Reduce`] semantics).
    pub loss: f64,
    /// Arbitrary extra payload (e.g. the carried LSTM state).
    pub extra: E,
}

/// Aggregate result of one sharded training step.
#[derive(Clone, Copy, Debug)]
pub struct StepOutcome {
    /// Combined batch loss, equal (within fp tolerance; exactly, for one
    /// shard) to what the serial path would have reported.
    pub loss: f64,
    /// True if any shard produced a non-finite loss.
    pub diverged: bool,
    /// `Σ gᵢ²` (f64) of the `ParamSet` gradients right after the combined
    /// gradient was applied, accumulated during the apply itself —
    /// `sqrt` gives the global ℓ₂ norm, so the caller's gradient clipping
    /// needs no extra full-parameter sweep. Zero until a step helper has
    /// applied gradients.
    pub grad_sq_norm: f64,
}

/// The data-parallel step executor. See the module docs for the design.
pub struct Executor {
    shards: usize,
    /// Pool the shard closures run on (absent for the serial executor):
    /// `shards` lanes, so `run(n ≤ shards)` gives each shard its own
    /// concurrent thread (the caller participates as one of them).
    shard_pool: Option<ThreadPool>,
    /// Per-shard intra-op pools installed via `with_pool` while the shard
    /// closure runs.
    intra: Vec<Arc<ThreadPool>>,
}

impl Executor {
    /// Builds an executor from an explicit configuration. A `threads`
    /// budget, if set, is installed as the kernel pool's default before
    /// any pool is sized; the default is process-global and sticks at its
    /// first value, so if an earlier `Executor` (or pool use) already fixed
    /// a *different* budget this one cannot take effect and a warning is
    /// printed to stderr. `shards == 1` builds the serial executor: no
    /// extra threads, every step bit-identical to the historical
    /// single-tape path.
    pub fn new(config: ExecConfig) -> Self {
        if let Some(t) = config.threads {
            if !legw_parallel::set_default_threads(t) && default_threads() != t {
                eprintln!(
                    "legw: ExecConfig.threads = {t} ignored: the process-global kernel \
                     thread budget is already fixed at {}",
                    default_threads()
                );
            }
        }
        // Resolve the SIMD kernel selection here, at executor init, not on
        // a hot path.
        legw_tensor::kernels::init();
        let shards = config.shards.max(1);
        if shards == 1 {
            return Self { shards, shard_pool: None, intra: Vec::new() };
        }
        let budget = default_threads();
        let intra_threads = (budget / shards).max(1);
        Self {
            shards,
            shard_pool: Some(ThreadPool::new(shards)),
            intra: (0..shards).map(|_| Arc::new(ThreadPool::new(intra_threads))).collect(),
        }
    }

    /// Maximum number of shards a batch is split into.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Contiguous example ranges for a batch of `n` examples: at most
    /// [`Executor::shards`] shards, never an empty one.
    pub fn shard_ranges(&self, n: usize) -> Vec<Range<usize>> {
        legw_parallel::split_evenly(n, self.shards)
    }

    /// Runs `f` once per shard through [`Executor::map_shards`]
    /// (concurrently when this executor is parallel), combining the shard
    /// gradients with the fixed-order tree reduction, streamed through
    /// [`ReduceScheduler`] as shards finish. Returns the combined buffer,
    /// the aggregate loss/divergence outcome, and the per-shard extras in
    /// shard order.
    ///
    /// `weights` are the [`Reduce::WeightedMean`] combination weights
    /// (shard example counts), one per shard; ignored by [`Reduce::Sum`].
    ///
    /// Determinism: `f` must be deterministic per shard; the merge
    /// schedule is data-independent (same pairs, same left/right roles —
    /// see [`crate::reduce_sched`]), so repeated runs, every executor and
    /// the post-barrier `tree_reduce` of the same scaled buffers are
    /// byte-identical.
    pub fn run_shards<S, E, F>(
        &self,
        reduce: Reduce,
        shards: &[S],
        weights: &[f64],
        f: F,
    ) -> (GradBuffer, StepOutcome, Vec<E>)
    where
        S: Sync,
        E: Send,
        F: Fn(usize, &S) -> ShardOut<E> + Sync,
    {
        let n = shards.len();
        assert!(n >= 1, "run_shards needs at least one shard");
        assert_eq!(weights.len(), n, "one combination weight per shard");

        // Combination fractions are fixed before any shard runs — this is
        // what lets a worker scale its buffer the moment its shard
        // completes. The fraction is computed in f64 and cast once at scale
        // time.
        let fracs: Option<Vec<f64>> = match reduce {
            Reduce::WeightedMean if n > 1 => {
                let total: f64 = weights.iter().sum();
                Some(weights.iter().map(|w| w / total).collect())
            }
            _ => None,
        };

        // Streaming reduction: the completing worker scales its own buffer
        // and offers it to the scheduler, which immediately performs every
        // tree merge the arrival enables.
        let sched = ReduceScheduler::new(n);
        let (losses, extras): (Vec<f64>, Vec<E>) = self
            .map_shards(shards, |i, s| {
                let out = f(i, s);
                let mut buf = out.grads;
                if let Some(fr) = &fracs {
                    buf.scale(fr[i] as f32);
                }
                sched.complete(i, buf);
                (out.loss, out.extra)
            })
            .into_iter()
            .unzip();
        let combined = sched.finish();

        let diverged = losses.iter().any(|l| !l.is_finite());
        let loss = if n == 1 {
            // Single shard: no scaling at all, so the result is
            // bit-identical to the serial path.
            losses[0]
        } else {
            match reduce {
                Reduce::WeightedMean => {
                    fracs.as_ref().unwrap().iter().zip(&losses).map(|(fr, l)| fr * l).sum()
                }
                Reduce::Sum => losses.iter().sum(),
            }
        };
        (combined, StepOutcome { loss, diverged, grad_sq_norm: 0.0 }, extras)
    }

    /// Runs `f` once per item (concurrently on the shard pool when this
    /// executor is parallel, serially in item order otherwise) and returns
    /// the results in item order: the one fork behind
    /// [`Executor::run_shards`] and epoch-end validation, so a sharded
    /// executor accelerates evaluation too. When there are several, each
    /// item runs under its shard's private intra-op pool.
    pub fn map_shards<S, R, F>(&self, shards: &[S], f: F) -> Vec<R>
    where
        S: Sync,
        R: Send,
        F: Fn(usize, &S) -> R + Sync,
    {
        let n = shards.len();
        if n == 0 {
            return Vec::new();
        }
        match &self.shard_pool {
            None => shards.iter().enumerate().map(|(i, s)| f(i, s)).collect(),
            Some(_) if n == 1 => vec![f(0, &shards[0])],
            Some(pool) => {
                assert!(n <= self.intra.len(), "more shards than the executor was built for");
                let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
                pool.run(n, |i| {
                    let out = with_pool(&self.intra[i], || f(i, &shards[i]));
                    *slots[i].lock().unwrap() = Some(out);
                });
                slots
                    .into_iter()
                    .map(|s| s.into_inner().unwrap().expect("shard task did not report"))
                    .collect()
            }
        }
    }
}

impl Executor {
    /// One sharded training step of any [`ShardStep`] workload on the tape:
    /// split, record and backward every shard (streaming the gradient
    /// reduction as shards complete), apply the combined gradient into
    /// `ps.grad` with the fused Σg² sweep. Returns the outcome plus the
    /// per-shard extras in shard order. The caller clips/steps/zeroes as
    /// usual.
    pub fn step<W: ShardStep>(&self, w: &W, ps: &mut ParamSet) -> (StepOutcome, Vec<W::Extra>) {
        self.drive(w, ps, |ps, _, s| run_tape(w.record(ps, s), ps, |_| ()).1)
    }

    /// [`Executor::step`] with per-shard plan replay: each shard looks up
    /// its [`ShardStep::plan_key`] in `cache` and replays the plan found;
    /// on first sight of the key it records its tape as
    /// [`Executor::step`] does, compiles that finished tape into the plan
    /// it caches, and returns the tape's result. The two steps share every
    /// other line, so they are interchangeable step by step — including
    /// mid-run shape changes, which simply miss the cache and capture fresh
    /// plans.
    pub fn step_planned<W: ShardStep>(
        &self,
        w: &W,
        ps: &mut ParamSet,
        cache: &PlanCache<StepPlan>,
    ) -> (StepOutcome, Vec<W::Extra>) {
        self.drive(w, ps, |ps, i, s| {
            // Shard i's slot is only ever touched by shard task i, so the
            // slot lock is uncontended; it exists to keep `PlanCache` Sync
            // across the worker threads.
            let capture = || {
                let (plan, out) = run_tape(w.record(ps, s), ps, |t| {
                    StepPlan::capture(&t.graph, &t.binding, t.loss, &t.outputs)
                });
                // Pre-size this worker's buffer pool to the plan's exact
                // peak live set, so even the *first* replay allocates
                // nothing. The capture runs on the shard's worker thread,
                // so the prewarm (thread-local free list) lands where the
                // replays will run.
                legw_tensor::pool::prewarm(plan.stats().peak_live_bytes);
                (plan, out)
            };
            cache.with_plan(i, w.plan_key(s), capture, |plan| {
                let (loss, extra) = w.replay(ps, plan, s);
                replayed(plan, ps, loss, extra)
            })
        })
    }

    /// The one body of both steps: split, run `shard` on every shard (given the
    /// parameters, the shard index and the shard) with the streaming
    /// reduce, apply the combined gradient.
    fn drive<W: ShardStep>(
        &self,
        w: &W,
        ps: &mut ParamSet,
        shard: impl Fn(&ParamSet, usize, &W::Shard) -> ShardOut<W::Extra> + Sync,
    ) -> (StepOutcome, Vec<W::Extra>) {
        let shards = w.split(self);
        let weights: Vec<f64> = shards.iter().map(|s| w.weight(s)).collect();
        let ps_ref: &ParamSet = ps;
        let (grads, mut out, extras) =
            self.run_shards(w.reduce(), &shards, &weights, |i, s| shard(ps_ref, i, s));
        out.grad_sq_norm = grads.apply_with_sq_norm(ps);
        (out, extras)
    }
}

/// A recorded shard tape's result: backward from its loss, `then` on the
/// finished tape (a plan-cache miss compiles it there), and the tape's
/// gradients drained into a fresh buffer.
fn run_tape<E, P>(
    mut t: ShardTape<E>,
    ps: &ParamSet,
    then: impl FnOnce(&ShardTape<E>) -> P,
) -> (P, ShardOut<E>) {
    t.graph.backward(t.loss);
    let then = then(&t);
    let mut grads = GradBuffer::for_params(ps);
    t.binding.write_grads_to(&t.graph, &mut grads);
    (then, ShardOut { grads, loss: t.value, extra: t.extra })
}

/// A replayed shard's result: the gradients the replay left in `plan`,
/// drained into a fresh buffer.
fn replayed<E>(plan: &StepPlan, ps: &ParamSet, loss: f64, extra: E) -> ShardOut<E> {
    let mut grads = GradBuffer::for_params(ps);
    plan.write_grads_to(&mut grads);
    ShardOut { grads, loss, extra }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legw_nn::ParamSet;
    use legw_tensor::Tensor;

    /// A synthetic "model": shard i contributes gradient `grad[i]` on one
    /// scalar parameter with weight `w[i]` and loss `loss[i]`.
    fn run_synthetic(
        exec: &Executor,
        reduce: Reduce,
        cases: &[(f32, f64, f64)], // (grad, loss, weight)
    ) -> (f32, StepOutcome) {
        let mut ps = ParamSet::new();
        let id = ps.add("w", Tensor::zeros(&[1]));
        let ps_ref = &ps;
        let weights: Vec<f64> = cases.iter().map(|c| c.2).collect();
        let (grads, out, _) = exec.run_shards(reduce, cases, &weights, |_, &(g, l, _)| {
            let mut buf = GradBuffer::for_params(ps_ref);
            buf.accumulate(id, &Tensor::from_vec(vec![g], &[1]));
            ShardOut { grads: buf, loss: l, extra: () }
        });
        (grads.get(id).unwrap().as_slice()[0], out)
    }

    fn serial() -> Executor {
        Executor::new(ExecConfig::default())
    }

    #[test]
    fn weighted_mean_weights_by_example_count() {
        let exec = serial(); // serial executor still reduces n shards
        let (g, out) = run_synthetic(
            &exec,
            Reduce::WeightedMean,
            &[(1.0, 1.0, 3.0), (5.0, 5.0, 1.0)],
        );
        // (3/4)·1 + (1/4)·5 = 2
        assert!((g - 2.0).abs() < 1e-6);
        assert!((out.loss - 2.0).abs() < 1e-9);
        assert!(!out.diverged);
    }

    #[test]
    fn sum_reduce_ignores_weights() {
        let exec = serial();
        let (g, out) =
            run_synthetic(&exec, Reduce::Sum, &[(1.0, 0.5, 99.0), (2.0, 0.25, 1.0)]);
        assert!((g - 3.0).abs() < 1e-6);
        assert!((out.loss - 0.75).abs() < 1e-9);
    }

    #[test]
    fn single_shard_skips_scaling_entirely() {
        let exec = serial();
        let (g, out) = run_synthetic(&exec, Reduce::WeightedMean, &[(0.1, 7.0, 13.0)]);
        assert_eq!(g, 0.1); // bit-identical, not 0.1 * (13/13)
        assert_eq!(out.loss, 7.0);
    }

    #[test]
    fn divergence_aggregates_across_shards() {
        let exec = serial();
        let (_, out) = run_synthetic(
            &exec,
            Reduce::WeightedMean,
            &[(1.0, 1.0, 1.0), (1.0, f64::NAN, 1.0)],
        );
        assert!(out.diverged);
    }

    /// The streaming reduce of the serial and a parallel executor against
    /// the post-barrier `tree_reduce` of the same scaled buffers, for both
    /// `Reduce` kinds.
    #[test]
    fn streaming_reduce_matches_post_barrier_tree_bitwise() {
        use crate::reduce_sched::tree_reduce;
        let parallel = Executor::new(ExecConfig::default().with_shards(4));
        let cases = [(0.3f32, 1.0, 2.0), (0.7, 2.0, 3.0), (0.11, 3.0, 1.0), (0.013, 0.5, 5.0)];
        for reduce in [Reduce::WeightedMean, Reduce::Sum] {
            // An odd and an even shard count.
            for shards in [&cases[..3], &cases[..]] {
                let mut ps = ParamSet::new();
                let id = ps.add("w", Tensor::zeros(&[1]));
                let total: f64 = shards.iter().map(|c| c.2).sum();
                let frac = |w: f64| if reduce == Reduce::WeightedMean { w / total } else { 1.0 };
                let bufs = shards.iter().map(|&(g, _, w)| {
                    let mut buf = GradBuffer::for_params(&ps);
                    buf.accumulate(id, &Tensor::from_vec(vec![g], &[1]));
                    if reduce == Reduce::WeightedMean {
                        buf.scale(frac(w) as f32);
                    }
                    buf
                });
                let want = tree_reduce(bufs.collect()).get(id).unwrap().as_slice()[0];
                let loss: f64 = shards.iter().map(|&(_, l, w)| frac(w) * l).sum();
                for exec in [&serial(), &parallel, &parallel, &parallel] {
                    let (g, out) = run_synthetic(exec, reduce, shards);
                    assert_eq!(g.to_bits(), want.to_bits(), "the tree must not depend on timing");
                    assert_eq!(out.loss.to_bits(), loss.to_bits());
                }
            }
        }
    }

    #[test]
    fn shard_ranges_never_empty() {
        let exec = Executor::new(ExecConfig::default().with_shards(7));
        let ranges = exec.shard_ranges(3);
        assert_eq!(ranges.len(), 3);
        assert!(ranges.iter().all(|r| !r.is_empty()));
    }

    #[test]
    fn config_builder_and_defaults() {
        let cfg = ExecConfig::default();
        assert_eq!(cfg, ExecConfig { shards: 1, threads: None });
        let cfg = cfg.with_shards(0);
        assert_eq!(cfg.shards, 1, "shards clamp to >= 1");
        let cfg = cfg.with_threads(6);
        assert_eq!(cfg.threads, Some(6));
    }
}
