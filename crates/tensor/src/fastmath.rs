//! Branch-free rational approximations of `tanh`/`sigmoid` for the hot
//! activation kernels.
//!
//! `f32::tanh` and an `exp`-based stable sigmoid go through libm — an
//! opaque call per element with data-dependent branches, which blocks
//! auto-vectorisation of the elementwise loops that dominate the LSTM
//! forward (the fused cell evaluates five transcendentals per hidden
//! unit, ~1.1M libm calls per MNIST b256 forward). The kernels here are
//! straight-line polynomial arithmetic — clamp plus the classic
//! Cephes/Eigen-style degree-13/6 rational `tanh` — so LLVM vectorises
//! the surrounding loops with FMA lanes instead of calling out per lane.
//!
//! Accuracy: `fast_tanh` stays within a few ulp of `f32::tanh` across the
//! full range and saturates to exactly `±1.0` where the true tanh rounds
//! to `±1` in f32; `fast_sigmoid` is defined as `0.5·tanh(x/2) + 0.5`,
//! accurate to ~2e-7 absolute, saturating to exactly `0.0`/`1.0` beyond
//! `|x| ≈ 18`. Both are pure functions of
//! their input, so run-to-run determinism and shard-equivalence are
//! unaffected. The fused LSTM cell and the unfused `Tensor::sigmoid` /
//! `Tensor::tanh` ops share these exact scalars, which is what keeps the
//! fused and unfused tape paths bit-identical to each other.

// Polynomial coefficients, shared verbatim by the scalar kernel below and
// the AVX2/AVX-512 transcriptions in `crate::kernels` — a single source of
// truth is what keeps the variants bitwise-interchangeable.
/// Input clamp: past this the true tanh rounds to ±1 in f32 anyway.
pub(crate) const CLAMP: f32 = 7.905_311_5;
/// Odd numerator coefficients (degree 13).
pub(crate) const A1: f32 = 4.893_524_6e-3;
pub(crate) const A3: f32 = 6.372_619_3e-4;
pub(crate) const A5: f32 = 1.485_722_4e-5;
pub(crate) const A7: f32 = 5.122_297_1e-8;
pub(crate) const A9: f32 = -8.604_672e-11;
pub(crate) const A11: f32 = 2.000_188e-13;
pub(crate) const A13: f32 = -2.760_768_5e-16;
/// Even denominator coefficients (degree 6).
pub(crate) const B0: f32 = 4.893_525e-3;
pub(crate) const B2: f32 = 2.268_434_6e-3;
pub(crate) const B4: f32 = 1.185_347_1e-4;
pub(crate) const B6: f32 = 1.198_258_4e-6;
/// Past this the tails are pinned to exactly ±1.0 by a branch-free select.
pub(crate) const SATURATE: f32 = 9.011;

/// Rational `tanh` approximation: odd degree-13 numerator over even
/// degree-6 denominator, with the argument clamped where the true `tanh`
/// rounds to `±1` in f32 anyway. The final clamp guarantees the result
/// never overshoots `[-1, 1]`, so derived quantities (sigmoid, gate
/// products) keep their exact bounds.
#[inline(always)]
pub fn fast_tanh(x: f32) -> f32 {
    let xc = x.clamp(-CLAMP, CLAMP);
    let x2 = xc * xc;
    // Horner chains on fused multiply-adds: one rounding per step (more
    // accurate than mul-then-add) and a straight vfmadd sequence once the
    // surrounding loop is vectorised.
    let mut p = A13;
    p = p.mul_add(x2, A11);
    p = p.mul_add(x2, A9);
    p = p.mul_add(x2, A7);
    p = p.mul_add(x2, A5);
    p = p.mul_add(x2, A3);
    p = p.mul_add(x2, A1);
    let p = p * xc;
    // Estrin split for the short even chain: two independent FMAs feed a
    // final one, shortening the dependency chain by a step.
    let x4 = x2 * x2;
    let q = x2.mul_add(B6, B4).mul_add(x4, x2.mul_add(B2, B0));
    let r = (p / q).clamp(-1.0, 1.0);
    if x.abs() >= SATURATE {
        1.0f32.copysign(x)
    } else {
        r
    }
}

/// Logistic sigmoid derived from [`fast_tanh`]: `σ(x) = ½·tanh(x/2) + ½`.
/// Inherits the tanh clamp, so it saturates to exactly `0.0`/`1.0` on the
/// tails and never leaves `[0, 1]`.
#[inline(always)]
pub fn fast_sigmoid(x: f32) -> f32 {
    0.5 * fast_tanh(0.5 * x) + 0.5
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tanh_tracks_libm_within_tolerance() {
        // Dense sweep over the active range plus the saturated tails.
        let mut worst = 0.0f64;
        let mut x = -12.0f32;
        while x <= 12.0 {
            let approx = fast_tanh(x) as f64;
            let exact = (x as f64).tanh();
            let err = (approx - exact).abs() / (1.0 + exact.abs());
            worst = worst.max(err);
            x += 1.3e-3;
        }
        assert!(worst < 5e-7, "worst rel error {worst}");
    }

    #[test]
    fn tanh_is_odd_and_bounded() {
        for i in 0..2000 {
            let x = (i as f32 - 1000.0) * 0.02;
            let y = fast_tanh(x);
            assert!((-1.0..=1.0).contains(&y));
            assert_eq!(y.to_bits(), (-fast_tanh(-x)).to_bits(), "odd symmetry at {x}");
        }
        assert_eq!(fast_tanh(40.0), 1.0);
        assert_eq!(fast_tanh(-40.0), -1.0);
        assert_eq!(fast_tanh(0.0), 0.0);
    }

    #[test]
    fn tanh_accurate_near_zero() {
        // tanh(x) ≈ x for small x; the rational form must not lose
        // relative accuracy there (no cancellation, no denormal traps).
        for &x in &[1e-8f32, 1e-6, 1e-4, 1e-3, 0.01] {
            let y = fast_tanh(x);
            let exact = (x as f64).tanh() as f32;
            assert!(
                (y - exact).abs() <= 2e-7 * (1.0 + exact.abs()),
                "x={x} got {y} want {exact}"
            );
        }
    }

    #[test]
    fn sigmoid_tracks_libm_and_saturates_exactly() {
        let mut x = -20.0f32;
        while x <= 20.0 {
            let approx = fast_sigmoid(x) as f64;
            let exact = 1.0 / (1.0 + (-(x as f64)).exp());
            assert!((approx - exact).abs() < 3e-7, "x={x} got {approx} want {exact}");
            assert!((0.0..=1.0).contains(&(approx as f32)));
            x += 2.7e-3;
        }
        assert_eq!(fast_sigmoid(100.0), 1.0);
        assert_eq!(fast_sigmoid(-100.0), 0.0);
        assert_eq!(fast_sigmoid(0.0), 0.5);
    }
}
