//! # legw-optim
//!
//! The optimizers evaluated in the LEGW paper. §5.2 compares seven solvers —
//! SGD, Momentum, Nesterov, Adagrad, RMSprop, Adam, Adadelta — and the CNN
//! experiments use LARS (You, Gitman & Ginsburg 2017) with layer-wise trust
//! ratios. All eight are implemented here against
//! [`legw_nn::ParamSet`], with per-parameter state allocated lazily.
//!
//! Every optimizer consumes the gradients accumulated in the store (it does
//! not zero them — call [`legw_nn::ParamSet::zero_grad`] after stepping) and
//! applies the learning rate passed to [`Optimizer::step`], which lets the
//! schedule crate drive LR without the optimizer knowing about warmup.
//!
//! ```
//! use legw_nn::ParamSet;
//! use legw_optim::{Optimizer, Sgd};
//! use legw_tensor::Tensor;
//!
//! let mut ps = ParamSet::new();
//! let w = ps.add("w", Tensor::from_vec(vec![1.0], &[1]));
//! ps.get_mut(w).grad = Tensor::from_vec(vec![0.5], &[1]);
//! let mut opt = Sgd::new(0.0);
//! opt.step(&mut ps, 0.1);
//! assert!((ps.value(w).as_slice()[0] - 0.95).abs() < 1e-6);
//! ```

mod adaptive;
mod lars;
mod sgd;

pub use adaptive::{Adadelta, Adagrad, Adam, RmsProp};
pub use lars::Lars;
pub use sgd::{Momentum, Nesterov, Sgd};

use legw_nn::ParamSet;

/// A first-order optimizer over a [`ParamSet`].
pub trait Optimizer {
    /// Applies one update using the gradients currently in the store and
    /// the supplied learning rate.
    fn step(&mut self, ps: &mut ParamSet, lr: f32);

    /// Solver name as used in the paper's figures.
    fn name(&self) -> &'static str;

    /// Clears all internal state (momentum buffers, moment estimates).
    fn reset(&mut self);
}

/// The solver families of §5.2, for harness construction by name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolverKind {
    /// Plain stochastic gradient descent.
    Sgd,
    /// Heavy-ball momentum (the paper's LSTM baseline, momentum 0.9).
    Momentum,
    /// Nesterov accelerated gradient.
    Nesterov,
    /// Adagrad.
    Adagrad,
    /// RMSprop.
    RmsProp,
    /// Adam (the paper's adaptive baseline).
    Adam,
    /// Adadelta (the paper's second hyper-parameter-free baseline).
    Adadelta,
    /// Layer-wise adaptive rate scaling.
    Lars,
}

/// Builds a boxed optimizer with the defaults used throughout the paper's
/// comparisons (momentum 0.9, Adam β = (0.9, 0.999), Adadelta ρ = 0.95,
/// LARS trust coefficient 0.001).
pub fn build(kind: SolverKind, weight_decay: f32) -> Box<dyn Optimizer> {
    match kind {
        SolverKind::Sgd => Box::new(Sgd::new(weight_decay)),
        SolverKind::Momentum => Box::new(Momentum::new(0.9, weight_decay)),
        SolverKind::Nesterov => Box::new(Nesterov::new(0.9, weight_decay)),
        SolverKind::Adagrad => Box::new(Adagrad::new(weight_decay)),
        SolverKind::RmsProp => Box::new(RmsProp::new(0.9, weight_decay)),
        SolverKind::Adam => Box::new(Adam::new(0.9, 0.999, weight_decay)),
        SolverKind::Adadelta => Box::new(Adadelta::new(0.95, weight_decay)),
        SolverKind::Lars => Box::new(Lars::new(0.9, weight_decay, 0.001)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legw_tensor::Tensor;

    /// Every solver must descend a convex quadratic `f(w) = ½‖w‖²`.
    #[test]
    fn all_solvers_descend_quadratic() {
        for kind in [
            SolverKind::Sgd,
            SolverKind::Momentum,
            SolverKind::Nesterov,
            SolverKind::Adagrad,
            SolverKind::RmsProp,
            SolverKind::Adam,
            SolverKind::Adadelta,
            SolverKind::Lars,
        ] {
            let mut ps = ParamSet::new();
            let w = ps.add("w", Tensor::from_vec(vec![3.0, -2.0, 1.5], &[3]));
            let mut opt = build(kind, 0.0);
            let initial = ps.value(w).l2_norm();
            // LARS normalises updates by the tiny trust coefficient, so it
            // is used with large global LRs (exactly the paper's 2^2.5…2^5).
            let lr = if kind == SolverKind::Lars { 5.0 } else { 0.1 };
            for _ in 0..500 {
                let grad = ps.value(w).clone(); // ∇½‖w‖² = w
                ps.get_mut(w).grad = grad;
                opt.step(&mut ps, lr);
                ps.zero_grad();
            }
            let fin = ps.value(w).l2_norm();
            // Adadelta's self-scaled steps start near √ε and grow slowly —
            // genuine behaviour, so it only has to make clear progress.
            let factor = if kind == SolverKind::Adadelta { 0.9 } else { 0.5 };
            assert!(fin < initial * factor, "{} failed to descend: {initial} → {fin}", opt.name());
            assert!(ps.value(w).all_finite(), "{} diverged", opt.name());
        }
    }

    #[test]
    fn reset_clears_state() {
        let mut ps = ParamSet::new();
        let w = ps.add("w", Tensor::from_vec(vec![1.0], &[1]));
        let mut opt = build(SolverKind::Momentum, 0.0);
        ps.get_mut(w).grad = Tensor::from_vec(vec![1.0], &[1]);
        opt.step(&mut ps, 0.1);
        let after_one = ps.value(w).as_slice()[0];
        opt.reset();
        // after reset, next step behaves like the first (no stale momentum)
        ps.get_mut(w).grad = Tensor::from_vec(vec![1.0], &[1]);
        opt.step(&mut ps, 0.1);
        let delta2 = after_one - ps.value(w).as_slice()[0];
        assert!((delta2 - 0.1).abs() < 1e-6, "step after reset must equal first step");
    }
}
