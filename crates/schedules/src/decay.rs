//! Post-warmup decay shapes used in the paper's experiments.

/// The decay applied to the peak learning rate as a function of training
/// progress (in epochs).
#[derive(Clone, Debug, PartialEq)]
pub enum Decay {
    /// No decay — the MNIST-LSTM experiments use a constant LR (§5.1.1).
    Constant,
    /// Multiply by `gamma` at each milestone epoch — the ImageNet multi-step
    /// scheme of Figure 2.1 (milestones {30, 60, 80}, γ = 0.1).
    MultiStep {
        /// Epochs at which the LR is multiplied by `gamma`.
        milestones: Vec<f64>,
        /// Multiplicative factor applied at each milestone.
        gamma: f64,
    },
    /// Constant for the first `constant_epochs`, then multiplied by `gamma`
    /// after each subsequent epoch — the PTB-small scheme (§5.1.2:
    /// 7 constant epochs, γ = 0.4).
    ExponentialPerEpoch {
        /// Number of initial epochs at full LR.
        constant_epochs: f64,
        /// Per-epoch multiplicative factor afterwards.
        gamma: f64,
    },
    /// `(1 − e/total)^power` — the poly decay of Figure 2.2 (power 2.0,
    /// also used for PTB-large with LARS).
    Polynomial {
        /// Exponent of the polynomial.
        power: f64,
    },
}

impl Decay {
    /// The decay factor (≤ 1) at epoch position `e` of a `total`-epoch run.
    pub fn factor(&self, e: f64, total: f64) -> f64 {
        debug_assert!(total > 0.0);
        match self {
            Decay::Constant => 1.0,
            Decay::MultiStep { milestones, gamma } => {
                let crossed = milestones.iter().filter(|&&m| e >= m).count() as i32;
                gamma.powi(crossed)
            }
            Decay::ExponentialPerEpoch { constant_epochs, gamma } => {
                if e < *constant_epochs {
                    1.0
                } else {
                    let periods = (e - constant_epochs).floor() + 1.0;
                    gamma.powf(periods)
                }
            }
            Decay::Polynomial { power } => {
                let p = (1.0 - (e / total).min(1.0)).max(0.0);
                p.powf(*power)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legw_propcheck::prelude::*;

    #[test]
    fn constant_is_one_everywhere() {
        for e in [0.0, 5.0, 89.9] {
            assert_eq!(Decay::Constant.factor(e, 90.0), 1.0);
        }
    }

    #[test]
    fn multistep_matches_imagenet_schedule() {
        // Figure 2.1: ×0.1 at epochs 30, 60, 80
        let d = Decay::MultiStep { milestones: vec![30.0, 60.0, 80.0], gamma: 0.1 };
        assert_eq!(d.factor(10.0, 90.0), 1.0);
        assert!((d.factor(45.0, 90.0) - 0.1).abs() < 1e-12);
        assert!((d.factor(70.0, 90.0) - 0.01).abs() < 1e-12);
        assert!((d.factor(85.0, 90.0) - 0.001).abs() < 1e-12);
        // boundary inclusive: at exactly 30 the drop has happened
        assert!((d.factor(30.0, 90.0) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn exponential_matches_ptb_small_schedule() {
        // §5.1.2: constant LR for 7 epochs then ×0.4 after each epoch
        let d = Decay::ExponentialPerEpoch { constant_epochs: 7.0, gamma: 0.4 };
        assert_eq!(d.factor(3.0, 13.0), 1.0);
        assert_eq!(d.factor(6.999, 13.0), 1.0);
        assert!((d.factor(7.5, 13.0) - 0.4).abs() < 1e-12);
        assert!((d.factor(8.5, 13.0) - 0.16).abs() < 1e-12);
        assert!((d.factor(9.0, 13.0) - 0.4f64.powi(3)).abs() < 1e-12);
    }

    #[test]
    fn polynomial_power_two() {
        let d = Decay::Polynomial { power: 2.0 };
        assert_eq!(d.factor(0.0, 90.0), 1.0);
        assert!((d.factor(45.0, 90.0) - 0.25).abs() < 1e-12);
        assert_eq!(d.factor(90.0, 90.0), 0.0);
        // never negative past the end
        assert_eq!(d.factor(95.0, 90.0), 0.0);
    }

    proptest! {
        #[test]
        fn prop_factor_in_unit_interval(
            e in 0.0f64..200.0,
            total in 1.0f64..200.0,
            power in 0.5f64..4.0,
            gamma in 0.05f64..0.95,
        ) {
            for d in [
                Decay::Constant,
                Decay::MultiStep { milestones: vec![total * 0.3, total * 0.6], gamma },
                Decay::ExponentialPerEpoch { constant_epochs: total * 0.5, gamma },
                Decay::Polynomial { power },
            ] {
                let f = d.factor(e, total);
                prop_assert!((0.0..=1.0).contains(&f), "{d:?} gave {f}");
            }
        }

        #[test]
        fn prop_factor_monotone_nonincreasing(
            total in 10.0f64..100.0,
            gamma in 0.05f64..0.95,
        ) {
            for d in [
                Decay::MultiStep { milestones: vec![total * 0.33, total * 0.66], gamma },
                Decay::ExponentialPerEpoch { constant_epochs: 3.0, gamma },
                Decay::Polynomial { power: 2.0 },
            ] {
                let mut prev = f64::INFINITY;
                for i in 0..50 {
                    let e = total * i as f64 / 49.0;
                    let f = d.factor(e, total);
                    prop_assert!(f <= prev + 1e-12, "{d:?} increased at {e}");
                    prev = f;
                }
            }
        }
    }
}
