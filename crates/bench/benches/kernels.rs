//! Kernel microbenchmarks: the primitives that dominate every experiment in
//! the paper reproduction, plus the parallelism ablation called out in
//! DESIGN.md (thread pool vs serial matmul).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use legw_autograd::Graph;
use legw_parallel::{par_map_reduce, ThreadPool};
use legw_tensor::{im2col, Conv2dGeom, Tensor};
use rand::{rngs::StdRng, SeedableRng};
use std::time::Duration;

fn quick(c: &mut Criterion) -> Criterion {
    let _ = c;
    Criterion::default()
        .measurement_time(Duration::from_millis(600))
        .warm_up_time(Duration::from_millis(200))
        .sample_size(10)
}

fn rnd(rng: &mut StdRng, dims: &[usize]) -> Tensor {
    Tensor::rand_uniform(rng, dims, -1.0, 1.0)
}

fn bench_matmul(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let mut g = c.benchmark_group("matmul");
    for &n in &[32usize, 128, 256] {
        let a = rnd(&mut rng, &[n, n]);
        let b = rnd(&mut rng, &[n, n]);
        g.bench_with_input(BenchmarkId::new("square", n), &n, |bch, _| {
            bch.iter(|| black_box(a.matmul(&b)));
        });
        g.bench_with_input(BenchmarkId::new("a_t_b", n), &n, |bch, _| {
            bch.iter(|| black_box(a.t_matmul(&b)));
        });
        g.bench_with_input(BenchmarkId::new("a_b_t", n), &n, |bch, _| {
            bch.iter(|| black_box(a.matmul_t(&b)));
        });
    }
    g.finish();
}

/// The two GEMM shapes that dominate training wall-clock, across the batch
/// sizes the paper sweeps: the fused LSTM gate projection `[B,256] @ [256,512]`
/// and the im2col patch matrix times the conv kernel `[B*64,72] @ [16,72]^T`
/// (16x16 output grid, 8 channels, 3x3 kernel). Results are tracked in
/// BENCH_gemm.json at the repo root.
fn bench_gemm_shapes(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(7);
    let mut g = c.benchmark_group("gemm_shapes");
    let wg = rnd(&mut rng, &[256, 512]);
    let wc = rnd(&mut rng, &[16, 72]);
    for &b in &[32usize, 256, 2048] {
        let x = rnd(&mut rng, &[b, 256]);
        g.bench_with_input(BenchmarkId::new("lstm_gate", b), &b, |bch, _| {
            bch.iter(|| black_box(x.matmul(&wg)));
        });
        let cols = rnd(&mut rng, &[b * 64, 72]);
        g.bench_with_input(BenchmarkId::new("im2col_conv", b), &b, |bch, _| {
            bch.iter(|| black_box(cols.matmul_t(&wc)));
        });
    }
    // Gradient-side layouts of the gate GEMM, batch 256: dW = x^T @ dy and
    // dx = dy @ W^T hit the other two packing paths.
    let x = rnd(&mut rng, &[256, 256]);
    let dy = rnd(&mut rng, &[256, 512]);
    g.bench_function("lstm_gate_grad_w_256", |bch| {
        bch.iter(|| black_box(x.t_matmul(&dy)));
    });
    g.bench_function("lstm_gate_grad_x_256", |bch| {
        bch.iter(|| black_box(dy.matmul_t(&wg)));
    });
    g.finish();
}

/// Ablation: the pool-backed parallel reduction vs a plain serial loop, at
/// a size where both paths are exercised.
fn bench_pool_ablation(c: &mut Criterion) {
    let pool = ThreadPool::new(legw_parallel::default_threads());
    let serial = ThreadPool::new(1);
    let data: Vec<f32> = (0..1_000_000).map(|i| (i as f32).sin()).collect();
    let mut g = c.benchmark_group("pool_ablation");
    g.bench_function("sum_parallel", |b| {
        b.iter(|| {
            par_map_reduce(&pool, data.len(), 4096, 0.0f64, |r| {
                data[r].iter().map(|&x| x as f64).sum()
            }, |a, b| a + b)
        });
    });
    g.bench_function("sum_single_thread_pool", |b| {
        b.iter(|| {
            par_map_reduce(&serial, data.len(), 4096, 0.0f64, |r| {
                data[r].iter().map(|&x| x as f64).sum()
            }, |a, b| a + b)
        });
    });
    g.finish();
}

fn bench_lstm_cell(c: &mut Criterion) {
    use legw_nn::{Binding, LstmCell, ParamSet};
    let mut rng = StdRng::seed_from_u64(2);
    let mut ps = ParamSet::new();
    // the paper's MNIST cell: 128 in, 128 hidden → 256×512 kernel
    let cell = LstmCell::new(&mut ps, &mut rng, "bench", 128, 128);
    let x = rnd(&mut rng, &[64, 128]);

    let mut g = c.benchmark_group("lstm_cell_128x128_b64");
    g.bench_function("forward", |b| {
        b.iter(|| {
            let mut graph = Graph::new();
            let mut bd = Binding::new();
            let s0 = cell.zero_state(&mut graph, 64);
            let xi = graph.input(x.clone());
            let s1 = cell.step(&mut graph, &mut bd, &ps, xi, s0);
            black_box(graph.value(s1.h).as_slice()[0])
        });
    });
    g.bench_function("forward_backward", |b| {
        let mut scratch = ps.clone();
        b.iter(|| {
            let mut graph = Graph::new();
            let mut bd = Binding::new();
            let s0 = cell.zero_state(&mut graph, 64);
            let xi = graph.input(x.clone());
            let s1 = cell.step(&mut graph, &mut bd, &ps, xi, s0);
            let sq = graph.mul(s1.h, s1.h);
            let loss = graph.sum_all(sq);
            graph.backward(loss);
            bd.write_grads(&graph, &mut scratch);
            black_box(scratch.grad_norm());
            scratch.zero_grad();
        });
    });
    // The pre-fusion per-gate op chain, kept as the comparison baseline
    // for the fused two-output cell op (same math, ~13 tape nodes).
    g.bench_function("forward_unfused", |b| {
        b.iter(|| {
            let mut graph = Graph::new();
            let mut bd = Binding::new();
            let s0 = cell.zero_state(&mut graph, 64);
            let xi = graph.input(x.clone());
            let s1 = cell.step_unfused(&mut graph, &mut bd, &ps, xi, s0);
            black_box(graph.value(s1.h).as_slice()[0])
        });
    });
    g.bench_function("forward_backward_unfused", |b| {
        let mut scratch = ps.clone();
        b.iter(|| {
            let mut graph = Graph::new();
            let mut bd = Binding::new();
            let s0 = cell.zero_state(&mut graph, 64);
            let xi = graph.input(x.clone());
            let s1 = cell.step_unfused(&mut graph, &mut bd, &ps, xi, s0);
            let sq = graph.mul(s1.h, s1.h);
            let loss = graph.sum_all(sq);
            graph.backward(loss);
            bd.write_grads(&graph, &mut scratch);
            black_box(scratch.grad_norm());
            scratch.zero_grad();
        });
    });
    g.finish();
}

/// The sequence-hoisted forward (one `[T·B, in]` input-projection GEMM +
/// per-step accumulate-GEMM recurrence) vs the retained stepwise path on
/// the paper's MNIST cell over a 28-step sequence.
fn bench_lstm_seq_hoisting(c: &mut Criterion) {
    use legw_nn::{Binding, LstmCell, ParamSet};
    let mut rng = StdRng::seed_from_u64(4);
    let mut ps = ParamSet::new();
    let cell = LstmCell::new(&mut ps, &mut rng, "bench_seq", 128, 128);
    let (t_len, batch) = (28usize, 64usize);
    let xs: Vec<Tensor> = (0..t_len).map(|_| rnd(&mut rng, &[batch, 128])).collect();

    let mut g = c.benchmark_group("lstm_seq_128x128_b64_t28");
    g.bench_function("forward_hoisted", |b| {
        b.iter(|| {
            let mut graph = Graph::new();
            let mut bd = Binding::new();
            let vars: Vec<_> = xs.iter().map(|x| graph.input(x.clone())).collect();
            let s0 = cell.zero_state(&mut graph, batch);
            let (hs, _) = cell.forward_seq(&mut graph, &mut bd, &ps, &vars, s0);
            black_box(graph.value(*hs.last().unwrap()).as_slice()[0])
        });
    });
    g.bench_function("forward_stepwise", |b| {
        b.iter(|| {
            let mut graph = Graph::new();
            let mut bd = Binding::new();
            let mut s = cell.zero_state(&mut graph, batch);
            for x in &xs {
                let xi = graph.input(x.clone());
                s = cell.step(&mut graph, &mut bd, &ps, xi, s);
            }
            black_box(graph.value(s.h).as_slice()[0])
        });
    });
    g.finish();
}

/// Compiled-plan replay vs the per-step tape rebuild it replaces, on the
/// MNIST-LSTM step at bench scale: the full in-shard unit (forward, tape
/// backward, gradient drain) and the forward alone. The replay runs the
/// captured schedule with no tape recording and zero steady-state pool
/// allocations; the delta between the pairs is the tape overhead the plan
/// eliminates.
fn bench_plan_replay(c: &mut Criterion) {
    use legw_data::SynthMnist;
    use legw_models::MnistLstm;
    use legw_nn::{GradBuffer, ParamSet};
    let data = SynthMnist::generate(9, 64, 8);
    let (bx, by) = data.train.gather(&(0..64).collect::<Vec<_>>());
    let mut rng = StdRng::seed_from_u64(9);
    let mut ps = ParamSet::new();
    let model = MnistLstm::new(&mut ps, &mut rng, 32, 32);

    let mut g = c.benchmark_group("plan_replay");
    g.bench_function("mnist_b64_tape_rebuild", |b| {
        b.iter(|| {
            let (mut graph, bd, loss, _) = model.forward_loss(&ps, &bx, &by);
            graph.backward(loss);
            let mut buf = GradBuffer::for_params(&ps);
            bd.write_grads_to(&graph, &mut buf);
            black_box(graph.value(loss).item())
        });
    });
    g.bench_function("mnist_b64_plan_replay", |b| {
        let mut plan = model
            .capture_step_plan(&ps, &bx, &by)
            .expect("MNIST-LSTM step tape is plan-capturable");
        b.iter(|| {
            let loss = model.replay_step_plan(&mut plan, &ps, &bx, &by);
            let mut buf = GradBuffer::for_params(&ps);
            plan.write_grads_to(&mut buf);
            black_box(loss)
        });
    });
    g.bench_function("mnist_b64_tape_forward", |b| {
        b.iter(|| {
            let (graph, _, loss, _) = model.forward_loss(&ps, &bx, &by);
            black_box(graph.value(loss).item())
        });
    });
    g.bench_function("mnist_b64_plan_forward", |b| {
        let mut plan = model
            .capture_step_plan(&ps, &bx, &by)
            .expect("MNIST-LSTM step tape is plan-capturable");
        b.iter(|| {
            let loss = model.replay_forward_plan(&mut plan, &ps, &bx, &by);
            black_box(loss)
        });
    });
    g.finish();
}

fn bench_conv(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let x = rnd(&mut rng, &[16, 8, 16, 16]);
    let geom = Conv2dGeom { c: 8, h: 16, w: 16, kh: 3, kw: 3, stride: 1, pad: 1 };
    let w = rnd(&mut rng, &[16, 8 * 9]);
    c.bench_function("conv2d_im2col_16x8x16x16", |b| {
        b.iter(|| {
            let cols = im2col(&x, &geom);
            black_box(cols.matmul_t(&w))
        });
    });
}

fn bench_optimizers(c: &mut Criterion) {
    use legw_nn::ParamSet;
    use legw_optim::{build, SolverKind};
    let mut g = c.benchmark_group("optimizer_step_1M_params");
    for kind in [SolverKind::Momentum, SolverKind::Adam, SolverKind::Lars] {
        g.bench_function(format!("{kind:?}"), |b| {
            let mut ps = ParamSet::new();
            let id = ps.add("w", Tensor::ones(&[1024, 1024]));
            let mut opt = build(kind, 1e-4);
            b.iter(|| {
                ps.get_mut(id).grad = Tensor::full(&[1024, 1024], 0.01);
                opt.step(&mut ps, 0.1);
            });
        });
    }
    g.finish();
}

fn all(c: &mut Criterion) {
    bench_matmul(c);
    bench_gemm_shapes(c);
    bench_pool_ablation(c);
    bench_lstm_cell(c);
    bench_lstm_seq_hoisting(c);
    bench_plan_replay(c);
    bench_conv(c);
    bench_optimizers(c);
}

criterion_group! {
    name = benches;
    config = quick(&mut Criterion::default());
    targets = all
}
criterion_main!(benches);
