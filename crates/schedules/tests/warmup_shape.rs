//! Tests for the warmup-shape extension and its interaction with LEGW
//! scaling.

use legw_propcheck::prelude::*;
use legw_schedules::{BaselineSchedule, Legw, WarmupShape};

#[test]
fn shapes_agree_at_endpoints() {
    for shape in [WarmupShape::Linear, WarmupShape::Exponential] {
        assert!(shape.factor(0.0).abs() < 1e-12, "{shape:?} must start at 0");
        assert!((shape.factor(1.0) - 1.0).abs() < 1e-12, "{shape:?} must end at 1");
    }
}

#[test]
fn exponential_is_slower_start_than_linear() {
    for p in [0.1, 0.3, 0.5, 0.7, 0.9] {
        assert!(
            WarmupShape::Exponential.factor(p) < WarmupShape::Linear.factor(p),
            "exponential ramp must sit below linear at p={p}"
        );
    }
}

#[test]
fn default_shape_is_linear() {
    let s = BaselineSchedule::constant(32, 0.2, 1.0, 10.0);
    assert_eq!(s.warmup_shape(), WarmupShape::Linear);
}

#[test]
fn legw_preserves_warmup_shape() {
    let s =
        BaselineSchedule::constant(32, 0.2, 1.0, 10.0).with_warmup_shape(WarmupShape::Exponential);
    let big = Legw::scale_to(&s, 256);
    assert_eq!(big.warmup_shape(), WarmupShape::Exponential);
    // and the ramp is actually applied: mid-warmup LR below linear's value
    let mid = big.lr_at_epoch(big.warmup_epochs() / 2.0);
    let linear_mid = big.peak_lr() * 0.5;
    assert!(mid < linear_mid, "{mid} should be below linear {linear_mid}");
}

proptest! {
    #[test]
    fn ramp_monotone_for_both_shapes(steps in 2usize..40) {
        for shape in [WarmupShape::Linear, WarmupShape::Exponential] {
            let mut prev = -1.0;
            for i in 0..=steps {
                let f = shape.factor(i as f64 / steps as f64);
                prop_assert!(f >= prev, "{shape:?} decreased");
                prop_assert!((0.0..=1.0).contains(&f));
                prev = f;
            }
        }
    }

    #[test]
    fn schedule_with_exp_warmup_bounded_by_linear(
        lr in 0.01f64..2.0,
        warm in 0.1f64..3.0,
        frac in 0.0f64..1.0,
    ) {
        let lin = BaselineSchedule::constant(32, lr, warm, 10.0);
        let exp = lin.with_warmup_shape(WarmupShape::Exponential);
        let e = warm * frac;
        prop_assert!(exp.lr_at_epoch(e) <= lin.lr_at_epoch(e) + 1e-12);
    }
}
