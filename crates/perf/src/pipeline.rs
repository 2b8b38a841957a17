//! One workload, one process.
//!
//! An untraced run (`--trace 0`) measures what a user sees: setup → `train`
//! (the real `legw::trainer` entry point) → driver → eval → serve, with the
//! tracer off and every timed piece judged on the reference clock
//! ([`crate::refclock`]). A traced run (`--trace 1`) measures the layers:
//! setup → driver → serve, then the traced serving repeat and the layer
//! probes, in plain wall-clock. Both need the driver — it is the only way to
//! a trained `ParamSet`, which the trainer does not return — and the untraced
//! run holds it against the trainer bit for bit.

use crate::apps::App;
use crate::driver::{drive, warmup};
use crate::json::Json;
use crate::refclock::{raw_seconds, Piece, RefClock};
use crate::report::{fingerprint, peak_rss_mb, write_json, Checks, Metrics};
use crate::serve::{self, RowJudge, OFFLINE_ROWS};
use crate::trace::{median, percentile, sample, Tracer};
use crate::workload::{AppKind, Workload};
use crate::{probes, workload};
use legw_models::Infer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::time::Instant;

pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    /// Measurement budget of one run; the time-bound legs take fixed shares.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Test-only scale (see `workload::lookup`).
    pub smoke: bool,
    pub out_dir: PathBuf,
}

/// What a finished run hands back to `main`.
pub struct Outcome {
    /// The end-to-end metrics (untraced run) or the per-layer ones (traced).
    pub metrics: Metrics,
    /// Untraced runs: how the driver compares with the trainer it mirrors.
    pub reconcile: Metrics,
    pub checks: Checks,
}

/// Set-up is repeated at least this often, and on until it has used its
/// share of the budget or hit the cap; `setup_s` is the median.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 15;

/// An untraced run cuts its eval and serving legs into this many slices and
/// interleaves them, so that each metric is sampled across the whole window
/// and not in a single stretch of it.
const ROUNDS: usize = 4;

/// Shares of `--seconds` given to the time-bound legs. Training is fixed
/// work, not a share: its wall-clock is the metric. A traced run needs the
/// untraced serving legs only as the reference its spans are compared with,
/// so it runs them short and in one piece.
struct Budget {
    rounds: usize,
    /// For the repeats of each set-up half (data + warm-up, serve build).
    setup_s: f64,
    eval_s: f64,
    offline_s: f64,
    closed_s: f64,
    closed_min_queries: usize,
    traced_min_queries: usize,
    probe_s: f64,
}

impl Budget {
    fn new(cfg: &RunConfig) -> Self {
        let s = cfg.seconds;
        let leg_share = if cfg.trace { 0.05 } else { 0.2 };
        Self {
            rounds: if cfg.trace { 1 } else { ROUNDS },
            setup_s: 0.02 * s,
            eval_s: leg_share * s,
            offline_s: leg_share * s,
            // No end-to-end metric comes from the closed loop (see the
            // README on latency); an untraced run keeps it for the row checks.
            closed_s: 0.05 * s,
            closed_min_queries: if cfg.smoke { 10 } else { 200 },
            traced_min_queries: if cfg.smoke { 10 } else { 250 },
            probe_s: 0.01 * s,
        }
    }
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let w = workload::lookup(&cfg.workload, cfg.smoke).ok_or_else(|| {
        format!(
            "unknown workload {:?}; expected one of {:?}",
            cfg.workload,
            workload::NAMES
        )
    })?;
    // The trainers read these through ExecConfig::from_env at their own
    // composition root; set them before anything builds an Executor.
    std::env::set_var("LEGW_THREADS", "2");
    std::env::set_var("LEGW_SHARDS", w.shards.to_string());
    match &w.app {
        AppKind::Mnist(app) => run_app(app, &w, cfg),
        AppKind::Resnet(app) => run_app(app, &w, cfg),
        AppKind::Seq2Seq(app) => run_app(app, &w, cfg),
    }
}

fn run_app<A: App>(app: &A, w: &Workload, cfg: &RunConfig) -> Result<Outcome, String>
where
    <A::Model as Infer>::Req: Clone + Sync,
{
    let budget = Budget::new(cfg);
    let mut tr = Tracer::new();
    tr.set_off(!cfg.trace);
    let mut clock = RefClock::new();
    let mut checks = Checks::default();
    let mut out = Metrics::default();
    let mut reconcile = Metrics::default();

    // setup: dataset generation + warm-up, repeated; the last data stays.
    let mut setups = repeat_setup(budget.setup_s, &mut clock, |rep| {
        tr.open("setup", Some(rep));
        let (data, generate_s) = tr.timed("data.generate", None, || app.generate(cfg.seed));
        tr.span("setup.warmup", None, || warmup(app, &data, cfg.seed));
        tr.close();
        (data, generate_s)
    });
    let generate_s: Vec<f64> = setups.iter().map(|s| s.0 .1).collect();
    let setup_reps: Vec<Piece> = setups.iter().map(|s| s.1).collect();
    let data = setups.pop().expect("set-up ran at least once").0 .0;

    // train (untraced run): the real entry point, one call, nothing inside
    // it timed — which is why only its plain wall-clock is known.
    let trained = (!cfg.trace).then(|| {
        let (report, call) = clock.time(|| app.train(&data, cfg.seed));
        (report, raw_seconds(call))
    });

    // driver: the mirror, which also yields the trained model. Traced, it
    // records a span per call; untraced, it runs in laps on the clock.
    let mut driven = drive(
        app,
        &data,
        cfg.seed,
        &mut tr,
        (!cfg.trace).then_some(&mut clock),
    );
    let (quality, diverged) = match &trained {
        Some((report, _)) => (report.final_metric, report.diverged),
        None => (driven.final_metric, driven.diverged),
    };
    checks.named(
        "quality_target",
        !diverged && quality >= w.target,
        format!("final metric {quality} (target {})", w.target),
    );

    if let Some((report, train_s)) = &trained {
        let same_bits = |a: &[f64], b: &[f64]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        };
        checks.named(
            "driver_matches_trainer",
            same_bits(&driven.epoch_losses, &report.epoch_losses)
                && driven.iterations == report.iterations
                && driven.final_metric.to_bits() == report.final_metric.to_bits()
                && driven.diverged == report.diverged,
            format!(
                "driver ({} iters, metric {}, last loss {:?}) vs TrainReport ({} iters, metric {}, \
                 last loss {:?})",
                driven.iterations,
                driven.final_metric,
                driven.epoch_losses.last(),
                report.iterations,
                report.final_metric,
                report.epoch_losses.last()
            ),
        );
        let driver_s: f64 = driven.laps.iter().map(|&lap| raw_seconds(lap)).sum();
        reconcile.put("core.trainer_wall_s", *train_s, "s");
        reconcile.put("core.driver_wall_s", driver_s, "s");
        reconcile.put("core.driver_vs_trainer_ratio", driver_s / train_s, "ratio");
        reconcile.put("core.final_metric", report.final_metric, "metric");
    }

    // serve_build, repeated like set-up; the last engine stays.
    let requests = app.requests(&data, cfg.seed);
    let mut builds = repeat_setup(budget.setup_s, &mut clock, |_| {
        serve::build(
            app,
            &driven.model,
            &driven.ps,
            w.bf16_serve,
            &requests,
            &mut tr,
        )
    });
    let build_reps: Vec<Piece> = builds.iter().map(|b| b.1).collect();
    let built = builds.pop().expect("set-up ran at least once").0;
    let engine = &built.engine;

    let oracles: Vec<_> = tr.span("serve.oracles", None, || {
        requests
            .iter()
            .map(|r| app.oracle(&driven.model, &driven.ps, r))
            .collect()
    });
    let mut judge = RowJudge::new(app, &oracles, w.bf16_serve);

    // eval (untraced run), serve_offline and serve_closed — no spans inside
    // the timed calls.
    let (mut evals, mut offline, mut latencies) = (Vec::new(), Vec::new(), Vec::new());
    let mut closed_stats = None;
    let slice = 1.0 / budget.rounds as f64;
    for round in 0..budget.rounds as u32 {
        if !cfg.trace {
            evals.extend(clock.time_calls(budget.eval_s * slice, 1, || {
                let m = app.eval(&driven.exec, &driven.model, &driven.ps, &data);
                checks.op(m.to_bits() == driven.final_metric.to_bits());
            }));
        }
        tr.open("serve_offline", Some(round));
        offline.extend(serve::offline(
            engine,
            &requests,
            budget.offline_s * slice,
            &mut clock,
            &mut judge,
            &mut checks,
        ));
        tr.close();
        tr.open("serve_closed", Some(round));
        let closed = serve::closed_loop(
            engine,
            &requests,
            budget.closed_s * slice,
            budget.closed_min_queries / budget.rounds,
            None,
            &mut judge,
            &mut checks,
        );
        tr.close();
        latencies.extend(closed.latencies);
        closed_stats = Some(closed.stats);
    }
    let closed_stats = closed_stats.expect("at least one round");
    let offline_rows = OFFLINE_ROWS.min(requests.len());
    let closed_p50 = median(&latencies);

    if !cfg.trace {
        // Every timing below is in reference seconds. Training is the sum
        // of the driver's laps; the throughputs come from the median call,
        // not the mean, so that one stalled call does not move them.
        let judged = |pieces: &[Piece]| -> Vec<f64> {
            pieces.iter().map(|&p| clock.ref_seconds(p)).collect()
        };
        out.put("train_to_target_s", judged(&driven.laps).iter().sum(), "s");
        out.put(
            "eval_samples_per_s",
            app.eval_samples(&data) as f64 / median(&judged(&evals)),
            "samples/s",
        );
        out.put(
            "setup_s",
            median(&judged(&setup_reps)) + median(&judged(&build_reps)),
            "s",
        );
        out.put(
            "serve_rows_per_s",
            offline_rows as f64 / median(&judged(&offline)),
            "rows/s",
        );
        let (samples, slowdown, fastest, slowest) = clock.summary();
        reconcile.put("ref.samples", samples as f64, "count");
        reconcile.put("ref.slowdown_p50", slowdown, "ratio");
        reconcile.put("ref.slowdown_min", fastest, "ratio");
        reconcile.put("ref.slowdown_max", slowest, "ratio");
    } else {
        let offline: Vec<f64> = offline.iter().map(|&p| raw_seconds(p)).collect();
        let (driver_s, unaccounted) = loop_accounting(&tr, &mut checks);
        // serve_traced, then the layer probes. The probes run last: they
        // step and replay the trained model, which moves ResNet's running
        // statistics away from what was frozen and served.
        let one = requests[..1].to_vec();
        let two = requests[..2].to_vec();
        let (b1, b2) = tr.span("serve.engine_probes", None, || {
            let b1 = median(&sample(2.0 * budget.probe_s, 50, || {
                drop(engine.run(&one, &[()]))
            }));
            let b2 = median(&sample(2.0 * budget.probe_s, 50, || {
                drop(engine.run(&two, &[(), ()]))
            }));
            (b1, b2)
        });
        tr.open("serve_traced", None);
        let traced = serve::closed_loop(
            engine,
            &requests,
            0.0,
            budget.traced_min_queries,
            Some(&tr),
            &mut judge,
            &mut checks,
        );
        tr.close();
        let traced_p50 = median(&traced.latencies);
        for t in traced.client_traces {
            tr.absorb(t);
        }

        let batch = app
            .epoch_batches(
                &data,
                app.schedule().batch_size(),
                &mut StdRng::seed_from_u64(cfg.seed),
            )
            .next()
            .expect("the training split has a batch");
        let steps = tr.durations("core.step_planned");
        let step_p50 = median(&steps);
        tr.open("layer_probes", None);
        probes::kernels(
            &app.kernel_shapes(app.batch_rows(&batch).div_ceil(w.shards)),
            budget.probe_s,
            &mut out,
        );
        let steady_steps = driven.steady_steps.max(1) as f64;
        out.put(
            "tensor.pool_allocs_per_step",
            driven.steady_allocs as f64 / steady_steps,
            "count",
        );
        out.put(
            "tensor.pack_bytes_per_step",
            driven.steady_pack_bytes as f64 / steady_steps,
            "bytes",
        );
        let (replay, reduce, apply) =
            probes::step_parts(app, &mut driven, &batch, w.shards, budget.probe_s, &mut out);
        let clip = tr.durations("nn.clip_grad_norm_from");
        let clip_us = if clip.is_empty() {
            probes::clip_us(&driven.ps, budget.probe_s)
        } else {
            median(&clip) * 1e6
        };
        out.put("nn.clip_us_p50", clip_us, "us");
        out.put(
            "nn.zero_grad_us_p50",
            median(&tr.durations("nn.zero_grad")) * 1e6,
            "us",
        );
        let opt = tr.durations("optim.step");
        out.put("optim.step_us_p50", median(&opt) * 1e6, "us");
        out.put("optim.step_total_s", opt.iter().sum(), "s");
        out.put(
            "schedules.lr_ns_p50",
            median(&tr.durations("schedules.lr_at_iter")) * 1e9,
            "ns",
        );
        out.put("data.generate_s", median(&generate_s), "s");
        let (batch_p50, batch_total) = batch_cost(&tr);
        out.put("data.batch_us_p50", batch_p50 * 1e6, "us");
        out.put("data.batch_total_s", batch_total, "s");
        let infer_tape = {
            let rows = requests[..offline_rows].to_vec();
            let model = engine.model();
            probes::probe(budget.probe_s, || {
                let b = model.assemble(&rows, &vec![(); rows.len()]);
                drop(model.infer_tape(&driven.ps, &b));
            })
        };
        out.put(
            "models.infer_plan_vs_tape_ratio",
            median(&offline) / infer_tape,
            "ratio",
        );

        let step_total: f64 = steps.iter().sum();
        out.put("core.steps", driven.iterations as f64, "count");
        out.put("core.step_ms_p50", step_p50 * 1e3, "ms");
        out.put("core.step_ms_p90", percentile(&steps, 90.0) * 1e3, "ms");
        out.put("core.step_total_s", step_total, "s");
        out.put(
            "core.step_samples_per_s",
            driven.samples as f64 / step_total,
            "samples/s",
        );
        let evals_in_loop = tr.durations("core.eval");
        out.put("core.eval_ms_p50", median(&evals_in_loop) * 1e3, "ms");
        out.put("core.eval_total_s", evals_in_loop.iter().sum(), "s");
        out.put(
            "core.divergence_check_us_p50",
            median(&tr.durations("core.divergence_check")) * 1e6,
            "us",
        );
        out.put("core.final_metric", driven.final_metric, "metric");
        out.put(
            "core.final_loss",
            driven.epoch_losses.last().copied().unwrap_or(0.0),
            "nats",
        );
        out.put("core.driver_wall_s", driver_s, "s");
        out.put("core.loop_unaccounted_frac", unaccounted, "frac");
        out.put(
            "core.step_unexplained_frac",
            (step_p50 - (replay + reduce + apply)) / step_p50,
            "frac",
        );
        probes::fork_join(budget.probe_s, &mut out);
        tr.close();

        out.put("serve.freeze_ms", built.freeze_s * 1e3, "ms");
        out.put("serve.restore_ms", built.restore_s * 1e3, "ms");
        out.put("serve.artifact_bytes", built.artifact_bytes as f64, "bytes");
        out.put("serve.capture_ms", built.capture_s * 1e3, "ms");
        out.put("serve.engine_b1_us_p50", b1 * 1e6, "us");
        out.put("serve.engine_b64_ms_p50", median(&offline) * 1e3, "ms");
        out.put("serve.query_ms_p50", closed_p50 * 1e3, "ms");
        out.put(
            "serve.query_ms_p95",
            percentile(&latencies, 95.0) * 1e3,
            "ms",
        );
        out.put(
            "serve.query_ms_p99",
            percentile(&latencies, 99.0) * 1e3,
            "ms",
        );
        out.put("serve.handoff_us_p50", (traced_p50 - b2) * 1e6, "us");
        out.put("serve.mean_batch", closed_stats.mean_batch(), "rows");
        out.put("serve.batches", closed_stats.batches as f64, "count");
        out.put(
            "serve.max_queue_wait_ms",
            closed_stats.max_queue_wait.as_secs_f64() * 1e3,
            "ms",
        );
        out.put("serve.cached_plans", engine.cached_plans() as f64, "count");
        out.put(
            "serve.trace_overhead_frac",
            traced_p50 / closed_p50 - 1.0,
            "frac",
        );
    }
    judge.finish(&mut checks);
    if !cfg.trace {
        out.put("peak_rss_mb", peak_rss_mb(), "MB");
    }

    let (file, section) = if cfg.trace {
        ("layers", "per_layer")
    } else {
        ("result", "end_to_end")
    };
    let mut result = vec![
        (
            "fingerprint",
            fingerprint(w.name, cfg.seed, cfg.seconds, cfg.smoke),
        ),
        ("claim", Json::Null),
        ("correct", Json::Bool(checks.all_passed())),
        ("ops_attempted", Json::Num(checks.attempted as f64)),
        ("ops_failed", Json::Num(checks.failed as f64)),
        ("served_rows", Json::Num(judge.rows as f64)),
        ("checks", checks.to_json()),
        (section, out.to_json()),
    ];
    if !cfg.trace {
        result.push(("reconcile", reconcile.to_json()));
    }
    let io = |e: std::io::Error| format!("writing under {}: {e}", cfg.out_dir.display());
    write_json(
        &cfg.out_dir.join(format!("{file}.{}.json", w.name)),
        &Json::obj(result),
        true,
    )
    .map_err(io)?;
    if cfg.trace {
        let path = cfg.out_dir.join(format!("trace.{}.json", w.name));
        write_json(&path, &tr.to_chrome(w.name), false).map_err(io)?;
    }
    Ok(Outcome {
        metrics: out,
        reconcile,
        checks,
    })
}

/// Runs one half of set-up [`SETUP_MIN_REPS`] times, then on until it has
/// used `budget_s` or hit [`SETUP_MAX_REPS`]. Each repeat is one piece on
/// `clock`, with a reference sample on either side.
fn repeat_setup<T>(
    budget_s: f64,
    clock: &mut RefClock,
    mut once: impl FnMut(u32) -> T,
) -> Vec<(T, Piece)> {
    let start = Instant::now();
    let mut done = Vec::new();
    clock.sample();
    while done.len() < SETUP_MIN_REPS
        || (done.len() < SETUP_MAX_REPS && start.elapsed().as_secs_f64() < budget_s)
    {
        let rep = done.len() as u32;
        done.push(clock.time(|| once(rep)));
        clock.sample();
    }
    done
}

/// A traced run's driver wall in seconds and the share of it that lies
/// outside its call spans — the self time of the `driver` and `epoch` spans —
/// which must stay small for the spans to explain the loop.
fn loop_accounting(tr: &Tracer, checks: &mut Checks) -> (f64, f64) {
    let driver = tr
        .spans()
        .iter()
        .rfind(|s| s.name == "driver")
        .expect("driver span");
    let structural = std::iter::once(driver.id).chain(
        tr.spans()
            .iter()
            .filter(|s| s.name == "epoch")
            .map(|s| s.id),
    );
    let unaccounted =
        structural.map(|id| tr.self_ns(id)).sum::<u64>() as f64 / driver.dur_ns() as f64;
    checks.named(
        "loop_accounted",
        unaccounted <= 0.05,
        format!("{unaccounted:.5} of the driver wall lies outside its call spans (limit 0.05)"),
    );
    (driver.dur_ns() as f64 * 1e-9, unaccounted)
}

/// Per-batch data cost: each `next_batch` call plus its epoch's
/// `epoch_batches` call spread over that epoch's batches (one family builds
/// the whole epoch up front, the others gather per batch). Returns
/// `(p50, total)` in seconds.
fn batch_cost(tr: &Tracer) -> (f64, f64) {
    let mut per_batch = Vec::new();
    for epoch in tr.spans().iter().filter(|s| s.name == "epoch") {
        let of = |name: &str| -> Vec<f64> {
            tr.spans()
                .iter()
                .filter(|s| s.parent == Some(epoch.id) && s.name == name)
                .map(|s| s.dur_ns() as f64 * 1e-9)
                .collect()
        };
        let nexts = of("data.next_batch");
        let share = of("data.epoch_batches").iter().sum::<f64>() / nexts.len().max(1) as f64;
        per_batch.extend(nexts.iter().map(|n| n + share));
    }
    (median(&per_batch), per_batch.iter().sum())
}
