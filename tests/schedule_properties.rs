//! Cross-crate property tests of the schedule machinery against real
//! dataset epoch arithmetic.

use legw_repro::schedules::{scale_with, BaselineSchedule, Decay, Legw, ScalingRule, WarmupRule};
use legw_propcheck::prelude::*;

proptest! {
    /// LEGW commutes with composition: scaling b→kb→mb equals b→(km)b.
    #[test]
    fn legw_scaling_composes(
        b in 8usize..256,
        k in 1usize..8,
        m in 1usize..8,
        lr in 0.01f64..2.0,
        warm in 0.01f64..1.0,
    ) {
        let base = BaselineSchedule::constant(b, lr, warm, 10.0);
        let two_step = Legw::scale_to(&Legw::scale_to(&base, b * k), b * k * m);
        let one_step = Legw::scale_to(&base, b * k * m);
        prop_assert!((two_step.peak_lr() - one_step.peak_lr()).abs() < 1e-9);
        prop_assert!((two_step.warmup_epochs() - one_step.warmup_epochs()).abs() < 1e-9);
    }

    /// Among the scaling rules, LEGW's peak LR always sits between identity
    /// and linear for k ≥ 1 — the theory-practice compromise of §3.1.
    #[test]
    fn sqrt_between_identity_and_linear(
        b in 8usize..128,
        klog in 1u32..7,
        lr in 0.01f64..2.0,
    ) {
        let base = BaselineSchedule::constant(b, lr, 0.1, 10.0);
        let nb = b << klog;
        let sqrt = scale_with(&base, nb, ScalingRule::Sqrt, WarmupRule::LinearEpochs);
        let lin = scale_with(&base, nb, ScalingRule::Linear, WarmupRule::LinearEpochs);
        let idp = scale_with(&base, nb, ScalingRule::Identity, WarmupRule::LinearEpochs);
        prop_assert!(idp.peak_lr() < sqrt.peak_lr());
        prop_assert!(sqrt.peak_lr() < lin.peak_lr());
    }

    /// The LR integral over warmup (area under the ramp) grows with k under
    /// LEGW — larger batches spend more epoch-time at reduced LR.
    #[test]
    fn warmup_area_grows_with_k(
        b in 8usize..128,
        klog in 1u32..6,
    ) {
        let base = BaselineSchedule::constant(b, 0.5, 0.25, 20.0);
        let small = Legw::scale_to(&base, b);
        let large = Legw::scale_to(&base, b << klog);
        // ramp area = ½ · peak · warmup_epochs
        let area_small = 0.5 * small.peak_lr() * small.warmup_epochs();
        let area_large = 0.5 * large.peak_lr() * large.warmup_epochs();
        prop_assert!(area_large > area_small);
    }

    /// Every decay family stays within [0, peak] across the whole run after
    /// LEGW scaling.
    #[test]
    fn scaled_schedules_bounded(
        klog in 0u32..6,
        e in 0.0f64..20.0,
    ) {
        for base in [
            BaselineSchedule::constant(16, 0.2, 0.1, 20.0),
            BaselineSchedule::poly(16, 0.2, 0.1, 20.0, 2.0),
            BaselineSchedule::exponential(16, 0.2, 0.1, 20.0, 5.0, 0.4),
            BaselineSchedule::multistep(16, 0.2, 0.1, 20.0, vec![8.0, 14.0], 0.1),
        ] {
            let s = Legw::scale_to(&base, 16 << klog);
            let v = s.lr_at_epoch(e);
            prop_assert!(v >= 0.0 && v <= s.peak_lr() + 1e-12, "{:?} at {e}: {v}", s.decay());
        }
    }
}

#[test]
fn decay_enum_is_exposed_and_matchable() {
    let s = BaselineSchedule::poly(16, 0.1, 0.0, 10.0, 2.0);
    match s.decay() {
        Decay::Polynomial { power } => assert_eq!(*power, 2.0),
        other => panic!("unexpected decay {other:?}"),
    }
}
