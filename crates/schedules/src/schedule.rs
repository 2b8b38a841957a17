//! The complete LR policy for one batch size.

use crate::decay::Decay;

/// Shape of the warmup ramp from 0 to the peak LR.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum WarmupShape {
    /// Linear ramp `e/w` — Goyal et al.'s gradual warmup, what LEGW uses.
    #[default]
    Linear,
    /// Slow-start exponential ramp `(e^{5·e/w} − 1)/(e⁵ − 1)` — spends more
    /// of the warmup window at very small LR (an ablation alternative).
    Exponential,
}

impl WarmupShape {
    /// Ramp factor in `[0, 1]` at warmup progress `p ∈ [0, 1]`.
    pub fn factor(&self, p: f64) -> f64 {
        let p = p.clamp(0.0, 1.0);
        match self {
            WarmupShape::Linear => p,
            WarmupShape::Exponential => ((5.0 * p).exp() - 1.0) / (5f64.exp() - 1.0),
        }
    }
}

/// A fully specified learning-rate policy: batch size, peak LR, gradual
/// warmup measured in epochs, total budget, and post-warmup decay.
///
/// `lr(e) = peak · ramp(e) · decay(e)` where `ramp` rises from 0 to 1
/// across the warmup window with a [`WarmupShape`] (linear by default —
/// Goyal et al.'s *gradual warmup*) and `decay` is a [`Decay`] factor.
#[derive(Clone, Debug, PartialEq)]
pub struct BaselineSchedule {
    batch_size: usize,
    peak_lr: f64,
    warmup_epochs: f64,
    total_epochs: f64,
    decay: Decay,
    warmup_shape: WarmupShape,
}

impl BaselineSchedule {
    /// Builds a schedule with an arbitrary decay.
    pub fn new(
        batch_size: usize,
        peak_lr: f64,
        warmup_epochs: f64,
        total_epochs: f64,
        decay: Decay,
    ) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        assert!(peak_lr > 0.0, "peak LR must be positive");
        assert!(warmup_epochs >= 0.0, "warmup cannot be negative");
        assert!(total_epochs > 0.0, "epoch budget must be positive");
        Self {
            batch_size,
            peak_lr,
            warmup_epochs,
            total_epochs,
            decay,
            warmup_shape: WarmupShape::Linear,
        }
    }

    /// Constant-LR schedule (the MNIST-LSTM configuration).
    pub fn constant(batch: usize, lr: f64, warmup_epochs: f64, total_epochs: f64) -> Self {
        Self::new(batch, lr, warmup_epochs, total_epochs, Decay::Constant)
    }

    /// Multi-step schedule (the ImageNet configuration of Figure 2.1).
    pub fn multistep(
        batch: usize,
        lr: f64,
        warmup_epochs: f64,
        total_epochs: f64,
        milestones: Vec<f64>,
        gamma: f64,
    ) -> Self {
        Self::new(batch, lr, warmup_epochs, total_epochs, Decay::MultiStep { milestones, gamma })
    }

    /// Poly-decay schedule (Figure 2.2 / PTB-large, power 2.0).
    pub fn poly(batch: usize, lr: f64, warmup_epochs: f64, total_epochs: f64, power: f64) -> Self {
        Self::new(batch, lr, warmup_epochs, total_epochs, Decay::Polynomial { power })
    }

    /// Exponential per-epoch schedule (PTB-small: 7 constant epochs, γ 0.4).
    pub fn exponential(
        batch: usize,
        lr: f64,
        warmup_epochs: f64,
        total_epochs: f64,
        constant_epochs: f64,
        gamma: f64,
    ) -> Self {
        Self::new(
            batch,
            lr,
            warmup_epochs,
            total_epochs,
            Decay::ExponentialPerEpoch { constant_epochs, gamma },
        )
    }

    /// Batch size this policy is tuned for.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Peak (post-warmup) learning rate.
    pub fn peak_lr(&self) -> f64 {
        self.peak_lr
    }

    /// Warmup length in epochs.
    pub fn warmup_epochs(&self) -> f64 {
        self.warmup_epochs
    }

    /// Total epoch budget.
    pub fn total_epochs(&self) -> f64 {
        self.total_epochs
    }

    /// The decay shape.
    pub fn decay(&self) -> &Decay {
        &self.decay
    }

    /// Returns a copy with a different peak LR (used by tuning baselines).
    pub fn with_peak_lr(&self, lr: f64) -> Self {
        let mut s = self.clone();
        s.peak_lr = lr;
        s
    }

    /// Returns a copy with a different warmup length.
    pub fn with_warmup(&self, warmup_epochs: f64) -> Self {
        let mut s = self.clone();
        s.warmup_epochs = warmup_epochs;
        s
    }

    /// Returns a copy with a different total budget (same-epochs comparisons
    /// and the "train longer" experiments of Figure 8).
    pub fn with_total_epochs(&self, total: f64) -> Self {
        let mut s = self.clone();
        s.total_epochs = total;
        s
    }

    /// Returns a copy with a different warmup ramp shape (ablations).
    pub fn with_warmup_shape(&self, shape: WarmupShape) -> Self {
        let mut s = self.clone();
        s.warmup_shape = shape;
        s
    }

    /// The warmup ramp shape.
    pub fn warmup_shape(&self) -> WarmupShape {
        self.warmup_shape
    }

    /// LR at continuous epoch position `e ∈ [0, total]`.
    pub fn lr_at_epoch(&self, e: f64) -> f64 {
        let ramp = if self.warmup_epochs > 0.0 && e < self.warmup_epochs {
            self.warmup_shape.factor(e / self.warmup_epochs)
        } else {
            1.0
        };
        self.peak_lr * ramp * self.decay.factor(e, self.total_epochs)
    }

    /// LR at iteration `iter` given `iters_per_epoch` (what the training
    /// loop calls each step).
    pub fn lr_at_iter(&self, iter: usize, iters_per_epoch: usize) -> f64 {
        assert!(iters_per_epoch > 0);
        self.lr_at_epoch(iter as f64 / iters_per_epoch as f64)
    }

    /// Samples the full LR curve at every iteration — used to regenerate
    /// Figure 2 and by the schedule property tests.
    pub fn curve(&self, iters_per_epoch: usize) -> Vec<f64> {
        let total_iters = (self.total_epochs * iters_per_epoch as f64).round() as usize;
        (0..total_iters).map(|i| self.lr_at_iter(i, iters_per_epoch)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legw_propcheck::prelude::*;

    #[test]
    fn warmup_ramp_is_linear_and_reaches_peak() {
        let s = BaselineSchedule::constant(128, 0.1, 2.0, 25.0);
        assert_eq!(s.lr_at_epoch(0.0), 0.0);
        assert!((s.lr_at_epoch(1.0) - 0.05).abs() < 1e-12);
        assert!((s.lr_at_epoch(2.0) - 0.1).abs() < 1e-12);
        assert!((s.lr_at_epoch(10.0) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn zero_warmup_starts_at_peak() {
        let s = BaselineSchedule::constant(128, 0.1, 0.0, 25.0);
        assert!((s.lr_at_epoch(0.0) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn imagenet_multistep_shape_matches_figure_2_1() {
        // baseline batch 1K, LR 2^2.5, warmup 0.3125 epochs, drops at 30/60/80
        let s = BaselineSchedule::multistep(
            1024,
            2f64.powf(2.5),
            0.3125,
            90.0,
            vec![30.0, 60.0, 80.0],
            0.1,
        );
        assert!((s.lr_at_epoch(15.0) - 2f64.powf(2.5)).abs() < 1e-9);
        assert!((s.lr_at_epoch(45.0) - 0.1 * 2f64.powf(2.5)).abs() < 1e-9);
        assert!((s.lr_at_epoch(70.0) - 0.01 * 2f64.powf(2.5)).abs() < 1e-9);
        assert!((s.lr_at_epoch(85.0) - 0.001 * 2f64.powf(2.5)).abs() < 1e-9);
    }

    #[test]
    fn poly_decay_shape_matches_figure_2_2() {
        let s = BaselineSchedule::poly(1024, 2f64.powf(2.5), 0.3125, 90.0, 2.0);
        let mid = s.lr_at_epoch(45.0);
        assert!((mid - 2f64.powf(2.5) * 0.25).abs() < 1e-9);
        assert!(s.lr_at_epoch(90.0).abs() < 1e-12);
    }

    #[test]
    fn lr_at_iter_consistent_with_epoch() {
        let s = BaselineSchedule::constant(32, 0.4, 1.0, 10.0);
        let ipe = 50;
        assert!((s.lr_at_iter(25, ipe) - s.lr_at_epoch(0.5)).abs() < 1e-12);
        assert!((s.lr_at_iter(500, ipe) - s.lr_at_epoch(10.0)).abs() < 1e-12);
    }

    #[test]
    fn curve_length_and_peak() {
        let s = BaselineSchedule::constant(32, 0.2, 0.5, 4.0);
        let c = s.curve(100);
        assert_eq!(c.len(), 400);
        let max = c.iter().cloned().fold(0.0f64, f64::max);
        assert!((max - 0.2).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "peak LR must be positive")]
    fn rejects_zero_lr() {
        BaselineSchedule::constant(32, 0.0, 1.0, 5.0);
    }

    proptest! {
        #[test]
        fn prop_lr_bounded_by_peak(
            lr in 0.001f64..10.0,
            warm in 0.0f64..5.0,
            total in 5.0f64..100.0,
            e in 0.0f64..100.0,
        ) {
            let s = BaselineSchedule::poly(64, lr, warm, total, 2.0);
            let v = s.lr_at_epoch(e.min(total));
            prop_assert!(v >= 0.0 && v <= lr + 1e-12);
        }

        #[test]
        fn prop_ramp_monotone_during_warmup(
            lr in 0.01f64..5.0,
            warm in 0.1f64..5.0,
        ) {
            let s = BaselineSchedule::constant(64, lr, warm, 50.0);
            let mut prev = -1.0;
            for i in 0..=20 {
                let e = warm * i as f64 / 20.0;
                let v = s.lr_at_epoch(e);
                prop_assert!(v >= prev - 1e-12, "ramp must not decrease");
                prev = v;
            }
            prop_assert!((prev - lr).abs() < 1e-9, "ramp must end at peak");
        }

        #[test]
        fn prop_continuous_at_warmup_end(
            lr in 0.01f64..5.0,
            warm in 0.1f64..5.0,
            total in 20.0f64..90.0,
        ) {
            let s = BaselineSchedule::poly(64, lr, warm, total, 2.0);
            let before = s.lr_at_epoch(warm - 1e-9);
            let after = s.lr_at_epoch(warm + 1e-9);
            prop_assert!((before - after).abs() < 1e-6 * lr.max(1.0));
        }
    }
}
