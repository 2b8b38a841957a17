//! LEGW — the paper's auto-tuning rule — plus the scaling-rule/warmup-rule
//! grid the comparison baselines of Figure 5 live on.

use crate::schedule::BaselineSchedule;

/// How the peak LR responds to a batch-size change by factor `k`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScalingRule {
    /// `lr × √k` — keeps gradient-estimator variance constant
    /// (Krizhevsky 2014); the rule LEGW makes practical.
    Sqrt,
    /// `lr × k` — Goyal et al.'s linear scaling, the prior state of practice.
    Linear,
    /// No change (Figure 5.1's naive baseline).
    Identity,
}

impl ScalingRule {
    /// The LR multiplier for batch-size ratio `k`.
    pub fn lr_factor(&self, k: f64) -> f64 {
        match self {
            ScalingRule::Sqrt => k.sqrt(),
            ScalingRule::Linear => k,
            ScalingRule::Identity => 1.0,
        }
    }
}

/// How the warmup length responds to a batch-size change.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WarmupRule {
    /// Warmup epochs × k — **linear-epoch gradual warmup**, the paper's rule.
    LinearEpochs,
    /// A fixed number of warmup epochs regardless of batch size
    /// (Goyal et al. use 5).
    FixedEpochs(f64),
    /// Keep the baseline's warmup epochs unchanged.
    Unchanged,
    /// No warmup at all.
    None,
}

/// The LEGW auto-tuner (§3): scale a tuned baseline to any batch size.
pub struct Legw;

impl Legw {
    /// Scales `base` to `new_batch`: peak LR × √k, warmup epochs × k, where
    /// `k = new_batch / base.batch_size()`. Total epochs and decay shape are
    /// untouched — that is the whole point: *no re-tuning*.
    ///
    /// Works for scale-down too (k < 1), per §3.3: tune the large batch once,
    /// derive every smaller batch from it.
    pub fn scale_to(base: &BaselineSchedule, new_batch: usize) -> BaselineSchedule {
        scale_with(base, new_batch, ScalingRule::Sqrt, WarmupRule::LinearEpochs)
    }

    /// The batch-size ratio `k` between a schedule and a target batch.
    pub fn ratio(base: &BaselineSchedule, new_batch: usize) -> f64 {
        new_batch as f64 / base.batch_size() as f64
    }
}

/// Generic scaling used to express the paper's comparison baselines:
/// combine any [`ScalingRule`] with any [`WarmupRule`].
pub fn scale_with(
    base: &BaselineSchedule,
    new_batch: usize,
    lr_rule: ScalingRule,
    warmup_rule: WarmupRule,
) -> BaselineSchedule {
    assert!(new_batch > 0, "target batch must be positive");
    let k = new_batch as f64 / base.batch_size() as f64;
    let lr = base.peak_lr() * lr_rule.lr_factor(k);
    let warmup = match warmup_rule {
        WarmupRule::LinearEpochs => base.warmup_epochs() * k,
        WarmupRule::FixedEpochs(e) => e,
        WarmupRule::Unchanged => base.warmup_epochs(),
        WarmupRule::None => 0.0,
    };
    BaselineSchedule::new(new_batch, lr, warmup, base.total_epochs(), base.decay().clone())
        .with_warmup_shape(base.warmup_shape())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decay::Decay;
    use legw_propcheck::prelude::*;

    fn gnmt_base() -> BaselineSchedule {
        // Table 2 row 1: batch 256, LR 2^-0.5/10^3, warmup 0.0145 epochs
        BaselineSchedule::constant(256, 2f64.powf(-0.5) / 1e3, 0.0145, 2.0)
    }

    #[test]
    fn reproduces_table_2_lr_and_warmup_columns() {
        let base = gnmt_base();
        let rows: [(usize, f64, f64); 5] = [
            (256, -0.5, 0.0145),
            (512, 0.0, 0.0290),
            (1024, 0.5, 0.0580),
            (2048, 1.0, 0.1160),
            (4096, 1.5, 0.2320),
        ];
        for (batch, lr_exp, warm) in rows {
            let s = Legw::scale_to(&base, batch);
            assert!(
                (s.peak_lr() - 2f64.powf(lr_exp) / 1e3).abs() < 1e-12,
                "batch {batch}: lr {} ≠ 2^{lr_exp}/10^3",
                s.peak_lr()
            );
            assert!(
                (s.warmup_epochs() - warm).abs() < 1e-9,
                "batch {batch}: warmup {} ≠ {warm}",
                s.warmup_epochs()
            );
        }
    }

    #[test]
    fn reproduces_table_3_lr_and_warmup_columns() {
        // Table 3: baseline batch 1K → LR 2^2.5, warmup 10/2^5 epochs
        let base = BaselineSchedule::multistep(
            1024,
            2f64.powf(2.5),
            10.0 / 32.0,
            90.0,
            vec![30.0, 60.0, 80.0],
            0.1,
        );
        let rows: [(usize, f64, f64); 6] = [
            (1024, 2.5, 10.0 / 32.0),
            (2048, 3.0, 10.0 / 16.0),
            (4096, 3.5, 10.0 / 8.0),
            (8192, 4.0, 10.0 / 4.0),
            (16384, 4.5, 10.0 / 2.0),
            (32768, 5.0, 10.0),
        ];
        for (batch, lr_exp, warm) in rows {
            let s = Legw::scale_to(&base, batch);
            assert!((s.peak_lr() - 2f64.powf(lr_exp)).abs() < 1e-9, "batch {batch}");
            assert!((s.warmup_epochs() - warm).abs() < 1e-9, "batch {batch}");
        }
    }

    #[test]
    fn identity_at_k_equal_one() {
        let base = gnmt_base();
        let same = Legw::scale_to(&base, base.batch_size());
        assert_eq!(same, base);
    }

    #[test]
    fn scale_down_inverts_scale_up() {
        // §3.3: tune large, scale down
        let base = gnmt_base();
        let big = Legw::scale_to(&base, 4096);
        let back = Legw::scale_to(&big, 256);
        assert!((back.peak_lr() - base.peak_lr()).abs() < 1e-15);
        assert!((back.warmup_epochs() - base.warmup_epochs()).abs() < 1e-12);
    }

    #[test]
    fn figure5_baselines_expressible() {
        let base = BaselineSchedule::constant(128, 0.001, 0.0, 25.0);
        // 5.1: fixed η₀
        let s1 = scale_with(&base, 1024, ScalingRule::Identity, WarmupRule::None);
        assert_eq!(s1.peak_lr(), 0.001);
        // 5.2: linear scaling
        let s2 = scale_with(&base, 1024, ScalingRule::Linear, WarmupRule::None);
        assert!((s2.peak_lr() - 0.008).abs() < 1e-12);
        // 5.4: linear scaling + 5-epoch warmup
        let s4 = scale_with(&base, 1024, ScalingRule::Linear, WarmupRule::FixedEpochs(5.0));
        assert_eq!(s4.warmup_epochs(), 5.0);
    }

    #[test]
    fn decay_shape_is_preserved() {
        let base = BaselineSchedule::poly(20, 0.5, 0.1, 55.0, 2.0);
        let s = Legw::scale_to(&base, 640);
        assert_eq!(s.decay(), &Decay::Polynomial { power: 2.0 });
        assert_eq!(s.total_epochs(), 55.0);
    }

    proptest! {
        #[test]
        fn prop_sqrt_scaling_of_peak(
            base_batch_log in 4u32..10,
            k_log in 0u32..7,
            lr in 0.001f64..1.0,
        ) {
            let bb = 1usize << base_batch_log;
            let base = BaselineSchedule::constant(bb, lr, 0.3, 10.0);
            let nb = bb << k_log;
            let s = Legw::scale_to(&base, nb);
            let k = (1u64 << k_log) as f64;
            prop_assert!((s.peak_lr() / lr - k.sqrt()).abs() < 1e-9);
            prop_assert!((s.warmup_epochs() / 0.3 - k).abs() < 1e-9);
        }

        #[test]
        fn prop_warmup_iterations_constant_under_legw(
            base_batch_log in 4u32..9,
            k_log in 0u32..6,
        ) {
            // Linear-epoch warmup at batch k·b means the same *number of
            // warmup iterations* as the baseline: (w·k epochs)·(n/(k·b)) =
            // w·n/b. This is the "fixed the warmup iterations" remark under
            // Table 2.
            let bb = 1usize << base_batch_log;
            let n_samples = 1usize << 16;
            let base = BaselineSchedule::constant(bb, 0.1, 0.5, 10.0);
            let nb = bb << k_log;
            let s = Legw::scale_to(&base, nb);
            let base_warmup_iters = base.warmup_epochs() * (n_samples / bb) as f64;
            let new_warmup_iters = s.warmup_epochs() * (n_samples / nb) as f64;
            prop_assert!((base_warmup_iters - new_warmup_iters).abs() < 1e-6);
        }

        #[test]
        fn prop_scale_roundtrip(
            bb in 1usize..2048,
            nb in 1usize..2048,
        ) {
            let base = BaselineSchedule::constant(bb, 0.2, 0.7, 12.0);
            let there = Legw::scale_to(&base, nb);
            let back = Legw::scale_to(&there, bb);
            prop_assert!((back.peak_lr() - base.peak_lr()).abs() < 1e-12);
            prop_assert!((back.warmup_epochs() - base.warmup_epochs()).abs() < 1e-12);
        }
    }
}
