//! Finite-difference estimation of the local Lipschitz constant along the
//! gradient direction, `L(x, g) = |gᵀ∇²f(x)g| / ‖g‖²` — the quantity the
//! paper plots in Figure 3 to explain LEGW: its early-training peak shifts
//! right roughly linearly with batch size, so warmup should lengthen
//! linearly in epochs.

use crate::trainer::{env_executor, train, MnistWorkload};
use legw_data::SynthMnist;
use legw_models::MnistLstm;
use legw_nn::ParamSet;
use legw_optim::{build, SolverKind};
use legw_schedules::BaselineSchedule;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One probe of `L(x,g)` at the current parameters.
///
/// `grad_fn` must populate fresh gradients of a **fixed** loss into `ps`
/// (the same mini-batch on both calls — the estimator differentiates the
/// gradient field, not the sampling noise). The Hessian-vector product is
/// approximated by the forward difference
/// `H·u ≈ (∇f(w + ε·u) − ∇f(w)) / ε` with `u = g/‖g‖`, giving
/// `L = |gᵀ(H·u)| / ‖g‖`.
///
/// Parameters are restored exactly before returning.
pub fn local_lipschitz(
    ps: &mut ParamSet,
    eps: f32,
    grad_fn: &mut dyn FnMut(&mut ParamSet),
) -> f32 {
    assert!(eps > 0.0, "probe step must be positive");
    ps.zero_grad();
    grad_fn(ps);
    let g_norm = ps.grad_norm();
    if g_norm == 0.0 || !g_norm.is_finite() {
        ps.zero_grad();
        return 0.0;
    }
    let g0: Vec<_> = ps.iter().map(|(_, p)| p.grad.clone()).collect();
    let snapshot = ps.snapshot();

    // w ← w + ε·g/‖g‖
    ps.perturb_along_grad(eps / g_norm);
    ps.zero_grad();
    grad_fn(ps);

    // gᵀ(g₂ − g₀)/ε, accumulated in f64
    let mut dot = 0.0f64;
    for ((_, p), old) in ps.iter().zip(&g0) {
        dot += p.grad.dot(old) as f64 - (old.l2_norm() as f64).powi(2);
    }
    let gtd = dot / eps as f64;

    ps.restore(&snapshot);
    ps.zero_grad();
    (gtd.abs() / g_norm as f64) as f32
}

/// One `(iteration, L)` sample of a Lipschitz trace.
#[derive(Clone, Copy, Debug)]
pub struct LipschitzSample {
    /// Optimizer iteration at which the probe was taken.
    pub iteration: usize,
    /// Epoch position of the probe.
    pub epoch: f64,
    /// Estimated `L(x,g)`.
    pub value: f32,
}

/// Trains the MNIST-LSTM model while probing `L(x,g)` on a fixed probe
/// batch every `probe_every` iterations — the Figure 3 experiment:
/// [`train`] over [`MnistWorkload`] with the probe as its `before_step`,
/// on the environment-configured executor like `train_mnist`.
///
/// Returns the probe trace. The probe batch is the first `probe_batch`
/// training samples, fixed across the run and across batch sizes so traces
/// are comparable.
// A whole experiment in one call: the data, the model's two widths, the
// training recipe and the probe's two settings.
#[allow(clippy::too_many_arguments)]
pub fn mnist_lipschitz_trace(
    data: &SynthMnist,
    proj: usize,
    hidden: usize,
    schedule: &BaselineSchedule,
    solver: SolverKind,
    seed: u64,
    probe_every: usize,
    probe_batch: usize,
) -> Vec<LipschitzSample> {
    assert!(probe_every >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ps = ParamSet::new();
    let model = MnistLstm::new(&mut ps, &mut rng, proj, hidden);
    let mut opt = build(solver, 0.0);

    let probe_idx: Vec<usize> = (0..probe_batch.min(data.train.len())).collect();
    let (probe_x, probe_y) = data.train.gather(&probe_idx);
    let mut grad_fn = |ps: &mut ParamSet| {
        let (mut g, bd, loss, _) = model.forward_loss(ps, &probe_x, &probe_y);
        g.backward(loss);
        bd.write_grads(&g, ps);
    };

    let ipe = data.train.iters_per_epoch(schedule.batch_size());
    let mut trace = Vec::new();
    let mut w = MnistWorkload { model: &model, data };
    train(&mut w, &mut ps, opt.as_mut(), schedule, &mut rng, &env_executor(), |iter, ps| {
        if iter % probe_every == 0 {
            trace.push(LipschitzSample {
                iteration: iter,
                epoch: iter as f64 / ipe as f64,
                value: local_lipschitz(ps, 1e-2, &mut grad_fn),
            });
        }
    });
    trace
}

/// The epoch position of the largest probe in a trace — Figure 3's "peak",
/// which the paper observes shifting right as batch grows.
pub fn peak_epoch(trace: &[LipschitzSample]) -> Option<f64> {
    trace
        .iter()
        .max_by(|a, b| a.value.total_cmp(&b.value))
        .map(|s| s.epoch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use legw_tensor::Tensor;

    /// For a pure quadratic f(w) = ½ wᵀDw the estimator must return the
    /// Rayleigh quotient gᵀDg/‖g‖² exactly (the Hessian is constant).
    #[test]
    fn exact_on_quadratic() {
        let d = [4.0f32, 1.0, 0.25];
        let mut ps = ParamSet::new();
        let id = ps.add("w", Tensor::from_vec(vec![1.0, 2.0, -1.0], &[3]));
        let mut grad_fn = |ps: &mut ParamSet| {
            let w = ps.value(id).clone();
            let g = Tensor::from_vec(
                w.as_slice().iter().zip(&d).map(|(&wi, &di)| di * wi).collect(),
                &[3],
            );
            ps.get_mut(id).grad.axpy(1.0, &g);
        };
        let l = local_lipschitz(&mut ps, 1e-3, &mut grad_fn);
        // g = Dw = [4, 2, -0.25]; L = gᵀDg/‖g‖²
        let g = [4.0f64, 2.0, -0.25];
        let num: f64 = g.iter().zip(&d).map(|(&gi, &di)| gi * gi * di as f64).sum();
        let den: f64 = g.iter().map(|&gi| gi * gi).sum();
        let expect = (num / den) as f32;
        assert!((l - expect).abs() < 1e-2 * expect, "{l} vs {expect}");
        // parameters restored
        assert_eq!(ps.value(id).as_slice(), &[1.0, 2.0, -1.0]);
        assert_eq!(ps.get(id).grad.l2_norm(), 0.0);
    }

    #[test]
    fn zero_gradient_returns_zero() {
        let mut ps = ParamSet::new();
        let _ = ps.add("w", Tensor::ones(&[2]));
        let mut grad_fn = |_: &mut ParamSet| {};
        assert_eq!(local_lipschitz(&mut ps, 1e-2, &mut grad_fn), 0.0);
    }

    #[test]
    fn mnist_trace_produces_positive_probes() {
        let data = SynthMnist::generate(6, 160, 20);
        let sched = BaselineSchedule::constant(16, 0.1, 0.2, 2.0);
        let trace =
            mnist_lipschitz_trace(&data, 12, 12, &sched, SolverKind::Momentum, 1, 2, 32);
        assert!(trace.len() >= 8, "expected ≥8 probes, got {}", trace.len());
        assert!(trace.iter().all(|s| s.value.is_finite()));
        assert!(trace.iter().any(|s| s.value > 0.0));
        let peak = peak_epoch(&trace).unwrap();
        assert!((0.0..=2.0).contains(&peak));
    }

    #[test]
    fn peak_epoch_of_empty_trace_is_none() {
        assert!(peak_epoch(&[]).is_none());
    }
}
