//! Isolated timings of public kernels and step parts at the workload's own
//! shapes. Each probe repeats one call for the probe budget (at least five
//! times) and reports the median, so a probe says what the call costs alone
//! on a warm machine; the driver spans say what it costs in the loop.

use crate::apps::{App, KernelShapes};
use crate::driver::Driven;
use crate::report::Metrics;
use crate::trace::{median, sample};
use legw::reduce_sched::tree_reduce;
use legw::PlanCache;
use legw_nn::{GradBuffer, ParamSet};
use legw_parallel::{with_pool, ThreadPool};
use legw_tensor::{im2col, lstm_cell_backward, lstm_cell_forward, Conv2dGeom, Tensor};
use std::hint::black_box;
use std::sync::Arc;

const MIN_REPS: usize = 5;

/// Median seconds of `f` over the probe budget, after one untimed call that
/// takes the first-touch costs (page faults in fresh arenas, cold caches).
pub fn probe(secs: f64, mut f: impl FnMut()) -> f64 {
    f();
    median(&sample(secs, MIN_REPS, f))
}

/// Shapes used where the workload's model has no such kernel, so that every
/// per-layer metric is a measurement on every workload: the MNIST cell at
/// 32 rows, and the ResNet workload's probed convolution at 128 images.
const NOMINAL_LSTM: (usize, usize) = (32, 128);
const NOMINAL_CONV: (usize, Conv2dGeom) = (
    128,
    Conv2dGeom {
        c: 16,
        h: 8,
        w: 8,
        kh: 3,
        kw: 3,
        stride: 1,
        pad: 1,
    },
);

/// Deterministic non-trivial fill; values in (-1, 1).
fn filled(dims: &[usize]) -> Tensor {
    let n: usize = dims.iter().product();
    Tensor::from_vec(
        (0..n)
            .map(|i| ((i * 37 % 101) as f32 - 50.0) / 51.0)
            .collect(),
        dims,
    )
}

fn gflops(m: usize, k: usize, n: usize, secs: f64) -> f64 {
    2.0 * (m * k * n) as f64 / secs / 1e9
}

/// `tensor.*` kernel probes.
pub fn kernels(shapes: &KernelShapes, secs: f64, out: &mut Metrics) {
    let (m, k, n) = shapes.gemm;
    let (fwd, bwd) = if shapes.gemm_is_conv {
        // conv2d: out = cols·Wᵀ; dW = δᵀ·cols; dcols = δ·W.
        let (cols, w, delta) = (filled(&[m, k]), filled(&[n, k]), filled(&[m, n]));
        let fwd = probe(secs, || drop(black_box(cols.matmul_t(&w))));
        let dw = probe(secs, || drop(black_box(delta.t_matmul(&cols))));
        let dx = probe(secs, || drop(black_box(delta.matmul(&w))));
        (fwd, dw + dx)
    } else {
        // linear / LSTM: out = x·W; dW = xᵀ·δ; dx = δ·Wᵀ.
        let (x, w, delta) = (filled(&[m, k]), filled(&[k, n]), filled(&[m, n]));
        let fwd = probe(secs, || drop(black_box(x.matmul(&w))));
        let dw = probe(secs, || drop(black_box(x.t_matmul(&delta))));
        let dx = probe(secs, || drop(black_box(delta.matmul_t(&w))));
        (fwd, dw + dx)
    };
    out.put("tensor.gemm_fwd_gflops", gflops(m, k, n, fwd), "GFLOP/s");
    out.put(
        "tensor.gemm_bwd_gflops",
        2.0 * gflops(m, k, n, bwd),
        "GFLOP/s",
    );

    let (rows, hid) = shapes.lstm.unwrap_or(NOMINAL_LSTM);
    let (preact, c_prev) = (filled(&[rows, 4 * hid]), filled(&[rows, hid]));
    let cell = lstm_cell_forward(&preact, &c_prev);
    let (dh, dc) = (filled(&[rows, hid]), filled(&[rows, hid]));
    let fwd = probe(secs, || {
        black_box(lstm_cell_forward(&preact, &c_prev));
    });
    let bwd = probe(secs, || {
        black_box(lstm_cell_backward(
            &cell.gates,
            &cell.tanh_c,
            &c_prev,
            Some(&dh),
            Some(&dc),
        ));
    });
    let units = (rows * hid) as f64;
    out.put("tensor.lstm_cell_fwd_ns_per_unit", fwd * 1e9 / units, "ns");
    out.put("tensor.lstm_cell_bwd_ns_per_unit", bwd * 1e9 / units, "ns");

    let (images, geom) = shapes.conv.unwrap_or(NOMINAL_CONV);
    let input = filled(&[images, geom.c, geom.h, geom.w]);
    let t = probe(secs, || drop(black_box(im2col(&input, &geom))));
    // Computed, not measured, traffic: the input read once plus the column
    // matrix written once.
    let bytes = 4 * (input.numel() + images * geom.oh() * geom.ow() * geom.c * geom.kh * geom.kw);
    out.put("tensor.im2col_gbps", bytes as f64 / t / 1e9, "GB/s");
}

/// A gradient buffer with the template's values in buffers of its own, as a
/// shard's buffer is once it has been scaled.
fn private_copy(ps: &ParamSet, template: &GradBuffer) -> GradBuffer {
    let mut buf = GradBuffer::for_params(ps);
    for (id, _) in ps.iter() {
        if let Some(g) = template.get(id) {
            buf.accumulate(id, &Tensor::from_vec(g.as_slice().to_vec(), g.shape()));
        }
    }
    buf
}

/// Step-level probes on one fixed training batch. Returns the median
/// seconds of (plan replay + grad drain, tree reduce, grad apply) for the
/// reconciliation against the in-loop `step_planned` time.
pub fn step_parts<A: App>(
    app: &A,
    driven: &mut Driven<A::Model>,
    batch: &A::Batch,
    shards: usize,
    secs: f64,
    out: &mut Metrics,
) -> (f64, f64, f64) {
    let exec = &driven.exec;
    let mut ps = driven.ps.clone();
    ps.zero_grad();

    // Tape vs plan, interleaved on the same batch so drift hits both alike.
    let cache = PlanCache::for_executor(exec);
    let mut scratch = crate::trace::Tracer::new();
    app.step(
        &mut scratch,
        0,
        exec,
        &cache,
        &mut driven.model,
        &mut ps,
        batch,
    );
    ps.zero_grad();
    let (mut tape, mut plan) = (Vec::new(), Vec::new());
    let start = std::time::Instant::now();
    while tape.len() < MIN_REPS || start.elapsed().as_secs_f64() < 2.0 * secs {
        let t = std::time::Instant::now();
        app.tape_step(exec, &driven.model, &mut ps, batch);
        tape.push(t.elapsed().as_secs_f64());
        ps.zero_grad();
        let t = std::time::Instant::now();
        app.step(
            &mut scratch,
            0,
            exec,
            &cache,
            &mut driven.model,
            &mut ps,
            batch,
        );
        plan.push(t.elapsed().as_secs_f64());
        ps.zero_grad();
    }
    let (tape, plan) = (median(&tape), median(&plan));
    out.put("autograd.tape_step_ms_p50", tape * 1e3, "ms");
    out.put("autograd.plan_step_ms_p50", plan * 1e3, "ms");
    out.put("autograd.plan_vs_tape_ratio", plan / tape, "ratio");

    // One shard's plan: capture cost and static size, then its replay.
    let shard_rows = app.batch_rows(batch).div_ceil(shards);
    let shard = app.shard(batch, shard_rows);
    let t = std::time::Instant::now();
    let mut step_plan = app
        .capture(&driven.model, &ps, &shard)
        .expect("the workload's step captures into a plan");
    out.put(
        "autograd.plan_capture_ms",
        t.elapsed().as_secs_f64() * 1e3,
        "ms",
    );
    let stats = step_plan.stats();
    out.put(
        "autograd.plan_instrs",
        (stats.fwd_instrs + stats.bwd_instrs) as f64,
        "count",
    );
    out.put(
        "autograd.plan_arena_bytes",
        stats.arena_bytes as f64,
        "bytes",
    );

    // A shard of a sharded step runs on a private pool of threads/shards.
    let intra = Arc::new(ThreadPool::new(
        (legw_parallel::default_threads() / shards).max(1),
    ));
    let mut grads = None;
    let replay = probe(secs, || {
        let buf = if shards > 1 {
            with_pool(&intra, || {
                app.replay(&mut driven.model, &mut step_plan, &ps, &shard)
            })
        } else {
            app.replay(&mut driven.model, &mut step_plan, &ps, &shard)
        };
        grads = Some(buf);
    });
    out.put("autograd.plan_replay_ms_p50", replay * 1e3, "ms");
    let grads = grads.expect("at least one replay ran");

    let mut reduce = Vec::new();
    let start = std::time::Instant::now();
    while reduce.len() < MIN_REPS || start.elapsed().as_secs_f64() < secs {
        let bufs = vec![private_copy(&ps, &grads), private_copy(&ps, &grads)];
        let t = std::time::Instant::now();
        black_box(tree_reduce(bufs));
        reduce.push(t.elapsed().as_secs_f64());
    }
    let reduce = median(&reduce);
    out.put("core.reduce_ms_p50", reduce * 1e3, "ms");

    let apply = probe(secs, || {
        black_box(grads.apply_with_sq_norm(&mut ps));
    });
    out.put("nn.grad_apply_us_p50", apply * 1e6, "us");

    let fwd = probe(secs, || app.tape_forward(&driven.model, &ps, batch));
    out.put("models.forward_ms_p50", fwd * 1e3, "ms");

    (replay, if shards > 1 { reduce } else { 0.0 }, apply)
}

/// A forced clip (norm above the bound, so the gradients are rescaled) for
/// workloads whose trainer never clips.
pub fn clip_us(ps: &ParamSet, secs: f64) -> f64 {
    let mut ps = ps.clone();
    probe(secs, || {
        black_box(ps.clip_grad_norm_from(10.0, 5.0));
    }) * 1e6
}

/// `parallel.*`: the cost of one empty fork/join on the kernel pool.
pub fn fork_join(secs: f64, out: &mut Metrics) {
    let pool = legw_parallel::global();
    let t = median(&sample(secs, 200, || {
        pool.run(2, |i| {
            black_box(i);
        })
    }));
    out.put("parallel.fork_join_us_p50", t * 1e6, "us");
    out.put("parallel.threads", pool.threads() as f64, "count");
}
