//! The benchmark's mirror of `legw::trainer::train_<family>`.
//!
//! [`drive`] issues the same public calls in the same order as
//! `crates/core/src/trainer.rs` — batch → `lr_at_iter` → `step_planned` →
//! divergence scan → clip → `opt.step` → `zero_grad`, epoch-end `eval_*`.
//! A traced run records one span per call. An untraced run records none (its
//! tracer is off) and instead cuts the loop into laps, one per iteration and
//! one per evaluation, with a reference-clock sample between laps now and
//! then: the laps are what `train_to_target_s` is made of. The trainer keeps
//! its parameters to itself, so this loop is also what hands the trained
//! `ParamSet` to the serving legs.
//! The pipeline checks that its `epoch_losses`, `iterations` and
//! `final_metric` equal the trainer's `TrainReport` bit for bit: if
//! `trainer.rs` changes and this file does not follow, the run fails.

use crate::apps::App;
use crate::refclock::{Piece, RefClock};
use crate::trace::Tracer;
use legw::trainer::RNN_CLIP;
use legw::{ExecConfig, Executor, PlanCache};
use legw_nn::ParamSet;
use legw_optim::build;
use legw_tensor::{pack_traffic, pool};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// What the mirror loop produced.
pub struct Driven<M> {
    pub model: M,
    pub ps: ParamSet,
    pub exec: Executor,
    pub epoch_losses: Vec<f64>,
    pub iterations: usize,
    pub final_metric: f64,
    pub diverged: bool,
    /// Examples consumed by optimizer steps.
    pub samples: usize,
    /// Steady-state steps (from the second epoch on, when every plan is
    /// captured) and the process-wide buffer allocations and packed-panel
    /// bytes counted across their bodies, data batching excluded.
    pub steady_steps: usize,
    pub steady_allocs: usize,
    pub steady_pack_bytes: u64,
    /// The loop cut into laps that together cover all of it but the
    /// reference samples between them; empty without a clock.
    pub laps: Vec<Piece>,
}

/// Cuts the loop into laps on the reference clock, when there is one.
struct Laps<'a> {
    clock: Option<&'a mut RefClock>,
    start: u64,
    done: Vec<Piece>,
}

impl<'a> Laps<'a> {
    fn begin(mut clock: Option<&'a mut RefClock>) -> Self {
        let start = clock.as_mut().map_or(0, |c| {
            c.sample();
            c.now()
        });
        Self {
            clock,
            start,
            done: Vec::new(),
        }
    }

    /// Ends the running lap and starts the next, after a reference sample
    /// if one is due.
    fn mark(&mut self) {
        if let Some(c) = self.clock.as_mut() {
            self.done.push((self.start, c.now()));
            c.tick();
            self.start = c.now();
        }
    }

    fn finish(mut self) -> Vec<Piece> {
        if let Some(c) = self.clock.as_mut() {
            self.done.push((self.start, c.now()));
            c.sample();
        }
        self.done
    }
}

/// `trainer.rs`'s private divergence scan, from public pieces: `x * 0.0`
/// is ±0 for finite `x` and NaN otherwise, summed per 4096-element chunk.
fn any_nonfinite_fast(ps: &ParamSet) -> bool {
    ps.iter().any(|(_, p)| {
        p.value
            .as_slice()
            .chunks(4096)
            .any(|c| c.iter().map(|&v| v * 0.0).sum::<f32>() != 0.0)
    })
}

/// Set-up warm-up: two throw-away optimizer steps on a fresh model, so
/// thread pools are spawned, the SIMD kernel is dispatched and the buffer
/// pool is primed before anything is timed.
pub fn warmup<A: App>(app: &A, data: &A::Data, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ps = ParamSet::new();
    let mut model = app.new_model(&mut ps, &mut rng, data);
    let (solver, wd) = app.solver();
    let mut opt = build(solver, wd);
    let exec = Executor::new(ExecConfig::from_env());
    let cache = PlanCache::for_executor(&exec);
    let mut scratch = Tracer::new();
    let batch = app.schedule().batch_size();
    for (i, b) in app.epoch_batches(data, batch, &mut rng).take(2).enumerate() {
        app.step(
            &mut scratch,
            i as u32,
            &exec,
            &cache,
            &mut model,
            &mut ps,
            &b,
        );
        opt.step(&mut ps, 1e-3);
        ps.zero_grad();
    }
}

/// Runs the mirror loop: under a `driver` span, and in laps on `clock` when
/// one is given.
pub fn drive<A: App>(
    app: &A,
    data: &A::Data,
    seed: u64,
    tr: &mut Tracer,
    clock: Option<&mut RefClock>,
) -> Driven<A::Model> {
    let mut laps = Laps::begin(clock);
    tr.open("driver", None);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ps = ParamSet::new();
    let mut model = tr.span("models.new", None, || {
        app.new_model(&mut ps, &mut rng, data)
    });
    let (solver, wd) = app.solver();
    let mut opt = tr.span("optim.build", None, || build(solver, wd));
    let (exec, cache) = tr.span("core.executor_new", None, || {
        let exec = Executor::new(ExecConfig::from_env());
        let cache = PlanCache::for_executor(&exec);
        (exec, cache)
    });

    let schedule = app.schedule();
    let batch = schedule.batch_size();
    let ipe = app.iters_per_epoch(data, batch);
    let total_iters = (schedule.total_epochs() * ipe as f64).round() as usize;
    let mut epoch_losses = Vec::new();
    let mut diverged = false;
    let mut samples = 0usize;
    let steady_from = if total_iters > ipe {
        ipe
    } else {
        total_iters.min(2)
    };
    let (mut steady_steps, mut steady_allocs, mut steady_pack_bytes) = (0usize, 0usize, 0u64);
    let counters = || {
        let packed = pack_traffic();
        (
            pool::stats().allocations,
            packed.f32_bytes + packed.bf16_bytes,
        )
    };

    let mut iter = 0usize;
    let mut epoch = 0u32;
    'outer: while iter < total_iters {
        tr.open("epoch", Some(epoch));
        let mut epoch_loss = 0.0f64;
        let mut epoch_count = 0usize;
        let mut batches = tr.span("data.epoch_batches", Some(epoch), || {
            app.epoch_batches(data, batch, &mut rng)
        });
        while let Some(b) = tr.span("data.next_batch", Some(iter as u32), || batches.next()) {
            if iter >= total_iters {
                break;
            }
            let step = iter as u32;
            let before = counters();
            let lr = tr.span("schedules.lr_at_iter", Some(step), || {
                schedule.lr_at_iter(iter, ipe) as f32
            });
            let so = app.step(tr, step, &exec, &cache, &mut model, &mut ps, &b);
            epoch_loss += so.loss;
            epoch_count += 1;
            diverged = tr.span("core.divergence_check", Some(step), || {
                so.diverged || any_nonfinite_fast(&ps)
            });
            if diverged {
                tr.close();
                break 'outer;
            }
            if app.clips() {
                tr.span("nn.clip_grad_norm_from", Some(step), || {
                    ps.clip_grad_norm_from(so.grad_sq_norm.sqrt() as f32, RNN_CLIP)
                });
            }
            tr.span("optim.step", Some(step), || opt.step(&mut ps, lr));
            tr.span("nn.zero_grad", Some(step), || ps.zero_grad());
            if iter >= steady_from {
                let after = counters();
                steady_steps += 1;
                steady_allocs += after.0 - before.0;
                steady_pack_bytes += after.1 - before.1;
            }
            samples += app.batch_rows(&b);
            iter += 1;
            laps.mark();
        }
        drop(batches);
        if epoch_count > 0 {
            epoch_losses.push(epoch_loss / epoch_count as f64);
        }
        tr.span("core.eval", Some(epoch), || {
            app.eval(&exec, &model, &ps, data)
        });
        tr.close();
        epoch += 1;
        laps.mark();
    }
    let final_metric = if diverged {
        0.0
    } else {
        tr.span("core.eval", Some(epoch), || {
            app.eval(&exec, &model, &ps, data)
        })
    };
    tr.close();
    let laps = laps.finish();
    Driven {
        model,
        ps,
        exec,
        epoch_losses,
        iterations: iter,
        final_metric,
        diverged,
        samples,
        steady_steps,
        steady_allocs,
        steady_pack_bytes,
        laps,
    }
}
