//! Property tests of solver invariants — algebraic identities every
//! implementation must satisfy regardless of problem.

use legw_nn::ParamSet;
use legw_optim::{build, Adam, Momentum, Nesterov, Optimizer, Sgd, SolverKind};
use legw_tensor::Tensor;
use legw_propcheck::prelude::*;

fn one_param(vals: &[f32]) -> (ParamSet, legw_nn::ParamId) {
    let mut ps = ParamSet::new();
    let id = ps.add("w", Tensor::from_vec(vals.to_vec(), &[vals.len()]));
    (ps, id)
}

proptest! {
    /// With zero gradients and zero weight decay, no solver moves.
    #[test]
    fn zero_gradient_means_no_motion(
        vals in legw_propcheck::collection::vec(-5f32..5.0, 1..8),
        steps in 1usize..5,
    ) {
        for kind in [
            SolverKind::Sgd, SolverKind::Momentum, SolverKind::Nesterov,
            SolverKind::Adagrad, SolverKind::RmsProp, SolverKind::Adam,
            SolverKind::Adadelta, SolverKind::Lars,
        ] {
            let (mut ps, id) = one_param(&vals);
            let mut opt = build(kind, 0.0);
            for _ in 0..steps {
                ps.zero_grad();
                opt.step(&mut ps, 0.3);
            }
            let moved: f32 = ps
                .value(id)
                .as_slice()
                .iter()
                .zip(&vals)
                .map(|(a, b)| (a - b).abs())
                .sum();
            prop_assert!(moved < 1e-6, "{kind:?} moved {moved} on zero grads");
        }
    }

    /// SGD's update is linear in the learning rate.
    #[test]
    fn sgd_update_linear_in_lr(
        v in -3f32..3.0,
        g in -2f32..2.0,
        lr in 0.01f32..1.0,
    ) {
        let run = |lr: f32| {
            let (mut ps, id) = one_param(&[v]);
            ps.get_mut(id).grad = Tensor::from_vec(vec![g], &[1]);
            Sgd::new(0.0).step(&mut ps, lr);
            v - ps.value(id).as_slice()[0]
        };
        let d1 = run(lr);
        let d2 = run(2.0 * lr);
        prop_assert!((d2 - 2.0 * d1).abs() < 1e-5, "2x lr must give 2x step: {d1} {d2}");
    }

    /// Momentum and Nesterov with m = 0 reduce exactly to SGD over any
    /// gradient sequence.
    #[test]
    fn zero_momentum_reduces_to_sgd(
        grads in legw_propcheck::collection::vec(-2f32..2.0, 1..10),
        lr in 0.01f32..0.5,
    ) {
        let run = |mut opt: Box<dyn Optimizer>| {
            let (mut ps, id) = one_param(&[1.0]);
            for &g in &grads {
                ps.get_mut(id).grad = Tensor::from_vec(vec![g], &[1]);
                opt.step(&mut ps, lr);
                ps.zero_grad();
            }
            ps.value(id).as_slice()[0]
        };
        let sgd = run(Box::new(Sgd::new(0.0)));
        let mom = run(Box::new(Momentum::new(0.0, 0.0)));
        let nes = run(Box::new(Nesterov::new(0.0, 0.0)));
        prop_assert!((sgd - mom).abs() < 1e-5, "momentum(0) ≠ sgd: {sgd} vs {mom}");
        prop_assert!((sgd - nes).abs() < 1e-5, "nesterov(0) ≠ sgd: {sgd} vs {nes}");
    }

    /// Adam's per-step displacement is bounded by ~lr regardless of the
    /// gradient scale (the bounded-update property that makes it a safe
    /// default — and why the paper treats it as the auto-tuning baseline).
    #[test]
    fn adam_steps_bounded_by_lr(
        gscale in 0.001f32..1000.0,
        lr in 0.001f32..0.5,
        steps in 1usize..20,
    ) {
        let (mut ps, id) = one_param(&[0.0]);
        let mut opt = Adam::new(0.9, 0.999, 0.0);
        let mut prev = 0.0f32;
        for _ in 0..steps {
            ps.get_mut(id).grad = Tensor::from_vec(vec![gscale], &[1]);
            opt.step(&mut ps, lr);
            let now = ps.value(id).as_slice()[0];
            // bias correction makes the bound ~lr·(1/(1−β1))/√(1/(1−β2))
            prop_assert!((now - prev).abs() <= lr * 3.0 + 1e-6,
                "step {} exceeded bound {}", (now - prev).abs(), lr * 3.0);
            prev = now;
        }
    }

    /// Weight decay alone (zero gradient) shrinks weights monotonically for
    /// the decoupled-style solvers that apply it through the gradient.
    #[test]
    fn weight_decay_contracts(
        v in 0.5f32..4.0,
        wd in 0.01f32..0.3,
    ) {
        for kind in [SolverKind::Sgd, SolverKind::Momentum, SolverKind::Lars] {
            let (mut ps, id) = one_param(&[v]);
            let mut opt = build(kind, wd);
            let mut last = v;
            for _ in 0..10 {
                ps.zero_grad();
                opt.step(&mut ps, 0.1);
                let now = ps.value(id).as_slice()[0];
                prop_assert!(now <= last + 1e-6, "{kind:?} grew under pure decay");
                last = now;
            }
            prop_assert!(last < v, "{kind:?} never shrank");
        }
    }
}

#[test]
fn solver_names_are_distinct() {
    let names: Vec<&str> = [
        SolverKind::Sgd,
        SolverKind::Momentum,
        SolverKind::Nesterov,
        SolverKind::Adagrad,
        SolverKind::RmsProp,
        SolverKind::Adam,
        SolverKind::Adadelta,
        SolverKind::Lars,
    ]
    .iter()
    .map(|&k| {
        let b = build(k, 0.0);
        b.name()
    })
    .collect();
    let unique: std::collections::HashSet<_> = names.iter().collect();
    assert_eq!(unique.len(), names.len(), "duplicate solver names: {names:?}");
}
