//! # legw
//!
//! The primary-contribution crate of this reproduction: everything that
//! turns the substrates (tensors, autograd, layers, optimizers, schedules,
//! synthetic data, models) into the paper's experiments.
//!
//! * [`trainer`] — the one training loop, [`trainer::train`]: driven by a
//!   [`legw_schedules::BaselineSchedule`] and any optimizer, with
//!   divergence detection and per-epoch metric histories, generic over a
//!   [`trainer::Workload`] (the four applications of Table 1 are its four
//!   implementors) and run on the [`exec::Executor`] its caller hands it,
//!   so the trained `ParamSet` stays with the caller. `train_<family>` are
//!   its environment-configured constructors.
//! * [`exec`] — the data-parallel step executor the loop runs on:
//!   batches are sharded over [`exec::ExecConfig::shards`] workers and
//!   shard gradients are combined with a deterministic fixed-order tree
//!   reduction — streamed through [`reduce_sched`] as shards complete —
//!   before the single optimizer step. The four workloads' steps plug in
//!   via the one [`steps::ShardStep`] trait (split, weigh, reduce, key,
//!   record a tape, replay a plan); the executor turns a recorded tape into
//!   gradients, or into a plan.
//! * [`plan_cache`] — compiled execution plans: the first recorded step
//!   per (worker, shape) — forward and backward, one tape — is compiled
//!   into a `legw_autograd` plan and replayed tape-free and
//!   allocation-free by [`exec::Executor::step_planned`] from then on. A
//!   capture cannot fail: a mis-specified one is a bug and panics, and
//!   there is no tape fallback.
//! * [`eval`] — the one held-out evaluation sweep of each model family
//!   (`Executor::eval_*`), sharded like training.
//! * [`apps`] — the Table 1 registry: per-application synthetic dataset
//!   parameters, tuned baseline schedules, and a single entry point
//!   ([`apps::run`]) the figure/table harness calls.
//! * [`tuning`] — the grid searches behind the paper's "comprehensive
//!   tuning" baselines (§5.3) and tuned-Adam comparisons (§5.2).
//! * [`lipschitz`] — the finite-difference Hessian-vector estimator of the
//!   local Lipschitz constant `L(x,g) = |gᵀHg|/‖g‖²` used to regenerate
//!   Figure 3 and the paper's §4 explanation of why warmup length should
//!   grow with batch size.
//!
//! ```no_run
//! use legw::apps::{self, App};
//! use legw_optim::SolverKind;
//!
//! // Train the MNIST-LSTM app at 8× its baseline batch with LEGW scaling:
//! let spec = apps::spec(App::MnistLstm);
//! let schedule = legw_schedules::Legw::scale_to(&spec.baseline, spec.baseline.batch_size() * 8);
//! let report = apps::run(App::MnistLstm, &schedule, SolverKind::Momentum, 42);
//! println!("accuracy {:.4}", report.final_metric);
//! ```

pub mod apps;
pub mod eval;
pub mod exec;
pub mod lipschitz;
pub mod plan_cache;
pub mod reduce_sched;
pub mod steps;
pub mod trainer;
pub mod tuning;

pub use exec::{ExecConfig, Executor, StepOutcome};
pub use plan_cache::PlanCache;
pub use steps::{DropPlan, MnistStep, PtbStep, ResnetStep, Seq2SeqStep, ShardStep, ShardTape};
pub use trainer::{train, TrainReport, Workload};
