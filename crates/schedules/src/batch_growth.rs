//! Dynamic batch-size schedules — the "don't decay the learning rate,
//! increase the batch size" alternative (Smith, Kindermans & Le 2017),
//! which the paper cites as a related direction \[27\]. Implemented here as
//! an extension so the ablation harness can compare it against LR decay
//! under LEGW warmup.

/// A stepwise-growing batch schedule: the batch is multiplied by `factor`
/// at each milestone epoch, clamped to `max_batch`.
///
/// Growing the batch by `f` has the same gradient-variance effect as
/// decaying the LR by `1/f` under the linear-scaling heuristic — the
/// equivalence the ablation experiment checks empirically.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchGrowth {
    base_batch: usize,
    milestones: Vec<f64>,
    factor: usize,
    max_batch: usize,
}

impl BatchGrowth {
    /// Creates the schedule.
    ///
    /// # Panics
    /// If `base_batch == 0`, `factor < 2`, or milestones are not strictly
    /// increasing.
    pub fn new(base_batch: usize, milestones: Vec<f64>, factor: usize, max_batch: usize) -> Self {
        assert!(base_batch > 0, "base batch must be positive");
        assert!(factor >= 2, "growth factor must be ≥ 2");
        assert!(max_batch >= base_batch, "max batch below base");
        assert!(
            milestones.windows(2).all(|w| w[0] < w[1]),
            "milestones must be strictly increasing"
        );
        Self { base_batch, milestones, factor, max_batch }
    }

    /// A fixed-batch "schedule" (no milestones).
    pub fn constant(batch: usize) -> Self {
        Self::new(batch, Vec::new(), 2, batch)
    }

    /// Initial batch size.
    pub fn base_batch(&self) -> usize {
        self.base_batch
    }

    /// Largest batch the schedule can reach.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// Batch size in effect at epoch position `e`.
    pub fn batch_at_epoch(&self, e: f64) -> usize {
        let crossed = self.milestones.iter().filter(|&&m| e >= m).count() as u32;
        self.base_batch
            .saturating_mul(self.factor.saturating_pow(crossed))
            .min(self.max_batch)
    }

    /// The LR-decay factor that is linear-scaling-equivalent to the batch
    /// growth in effect at epoch `e`: `base_batch / batch(e)`.
    pub fn equivalent_lr_factor(&self, e: f64) -> f64 {
        self.base_batch as f64 / self.batch_at_epoch(e) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legw_propcheck::prelude::*;

    #[test]
    fn grows_at_milestones_and_clamps() {
        let g = BatchGrowth::new(32, vec![2.0, 4.0, 6.0], 2, 128);
        assert_eq!(g.batch_at_epoch(0.0), 32);
        assert_eq!(g.batch_at_epoch(1.99), 32);
        assert_eq!(g.batch_at_epoch(2.0), 64);
        assert_eq!(g.batch_at_epoch(4.5), 128);
        assert_eq!(g.batch_at_epoch(6.5), 128, "clamped at max");
    }

    #[test]
    fn constant_never_moves() {
        let g = BatchGrowth::constant(20);
        for e in [0.0, 5.0, 100.0] {
            assert_eq!(g.batch_at_epoch(e), 20);
        }
    }

    #[test]
    fn equivalent_lr_factor_mirrors_growth() {
        let g = BatchGrowth::new(16, vec![1.0], 4, 64);
        assert_eq!(g.equivalent_lr_factor(0.5), 1.0);
        assert_eq!(g.equivalent_lr_factor(1.5), 0.25);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_milestones_rejected() {
        BatchGrowth::new(8, vec![3.0, 2.0], 2, 64);
    }

    proptest! {
        #[test]
        fn prop_monotone_and_bounded(
            base_log in 3u32..7,
            n_miles in 0usize..5,
            factor in 2usize..4,
            e in 0.0f64..30.0,
        ) {
            let base = 1usize << base_log;
            let milestones: Vec<f64> = (0..n_miles).map(|i| 3.0 * (i as f64 + 1.0)).collect();
            let g = BatchGrowth::new(base, milestones, factor, base * 64);
            let b = g.batch_at_epoch(e);
            prop_assert!(b >= base && b <= base * 64);
            // monotone in epoch
            prop_assert!(g.batch_at_epoch(e + 1.0) >= b);
            // equivalent factor in (0, 1]
            let f = g.equivalent_lr_factor(e);
            prop_assert!(f > 0.0 && f <= 1.0);
        }
    }
}
