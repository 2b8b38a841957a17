//! Elementwise operations with broadcasting, unary maps, and the in-place
//! update primitives the optimizers are built from.

use crate::shape::{broadcast_shapes, Shape};
use crate::tensor::Tensor;
use crate::PAR_THRESHOLD;
use legw_parallel::{current, par_chunks_mut};

/// How one operand's shape relates to the broadcast output shape; used to
/// pick a fast path.
enum BroadcastKind {
    /// Operand already has the output shape.
    Same,
    /// Operand is a single scalar element.
    Scalar,
    /// Output `[m, n]`, operand `[n]` (or `[1, n]`): repeat per row.
    RowVector { n: usize },
    /// Output `[m, n]`, operand `[m, 1]`: repeat per column.
    ColVector { n: usize },
    /// Anything else: generic strided iteration.
    General,
}

fn classify(operand: &Shape, out: &Shape) -> BroadcastKind {
    if operand == out {
        return BroadcastKind::Same;
    }
    if operand.numel() == 1 {
        return BroadcastKind::Scalar;
    }
    if out.ndim() == 2 {
        let (m, n) = (out.dim(0), out.dim(1));
        let d = operand.dims();
        if d == [n] || d == [1, n] {
            return BroadcastKind::RowVector { n };
        }
        if d == [m, 1] {
            return BroadcastKind::ColVector { n };
        }
    }
    BroadcastKind::General
}

/// Maps a flat output index to a flat operand index under broadcasting.
fn broadcast_index(flat: usize, out: &Shape, operand: &Shape) -> usize {
    let on = out.ndim();
    let pn = operand.ndim();
    let ostr = out.strides();
    let pstr = operand.strides();
    let mut rem = flat;
    let mut idx = 0usize;
    for (i, &stride) in ostr.iter().enumerate().take(on) {
        let coord = rem / stride;
        rem %= stride;
        // align from trailing end
        if i + pn >= on {
            let pi = i + pn - on;
            let pd = operand.dims()[pi];
            let c = if pd == 1 { 0 } else { coord };
            idx += c * pstr[pi];
        }
    }
    idx
}

fn binary_op(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32 + Sync) -> Tensor {
    let out_shape = broadcast_shapes(a.shape_obj(), b.shape_obj()).unwrap_or_else(|| {
        panic!("incompatible broadcast: {:?} vs {:?}", a.shape(), b.shape())
    });
    let n = out_shape.numel();
    let mut out = vec![0.0f32; n];
    let ka = classify(a.shape_obj(), &out_shape);
    let kb = classify(b.shape_obj(), &out_shape);
    let (av, bv) = (a.as_slice(), b.as_slice());

    let fill = |start: usize, chunk: &mut [f32]| {
        for (off, o) in chunk.iter_mut().enumerate() {
            let i = start + off;
            let x = match ka {
                BroadcastKind::Same => av[i],
                BroadcastKind::Scalar => av[0],
                BroadcastKind::RowVector { n } => av[i % n],
                BroadcastKind::ColVector { n } => av[i / n],
                BroadcastKind::General => av[broadcast_index(i, &out_shape, a.shape_obj())],
            };
            let y = match kb {
                BroadcastKind::Same => bv[i],
                BroadcastKind::Scalar => bv[0],
                BroadcastKind::RowVector { n } => bv[i % n],
                BroadcastKind::ColVector { n } => bv[i / n],
                BroadcastKind::General => bv[broadcast_index(i, &out_shape, b.shape_obj())],
            };
            *o = f(x, y);
        }
    };

    if n >= PAR_THRESHOLD {
        let pool = current();
        par_chunks_mut(&pool, &mut out, n.div_ceil(pool.threads() * 2).max(1024), fill);
    } else {
        fill(0, &mut out);
    }
    Tensor::from_vec(out, out_shape.dims())
}

/// Unary map through a runtime-dispatched sweep kernel (the activation
/// paths). The variant is read once here, on the calling thread, so a
/// kernel override covers the pool workers; chunking doesn't affect the
/// result of a pure elementwise map, so the parallel split is unchanged.
fn unary_sweep(a: &Tensor, sweep: fn(crate::kernels::Kernel, &mut [f32])) -> Tensor {
    let kern = crate::kernels::selected();
    let mut out = a.as_slice().to_vec();
    let n = out.len();
    if n >= PAR_THRESHOLD {
        let pool = current();
        par_chunks_mut(&pool, &mut out, n.div_ceil(pool.threads() * 2).max(1024), |_, c| {
            sweep(kern, c)
        });
    } else {
        sweep(kern, &mut out);
    }
    Tensor::from_vec(out, a.shape())
}

fn unary_op(a: &Tensor, f: impl Fn(f32) -> f32 + Sync) -> Tensor {
    let mut out = a.as_slice().to_vec();
    let n = out.len();
    if n >= PAR_THRESHOLD {
        let pool = current();
        par_chunks_mut(&pool, &mut out, n.div_ceil(pool.threads() * 2).max(1024), |_, c| {
            for v in c {
                *v = f(*v);
            }
        });
    } else {
        for v in &mut out {
            *v = f(*v);
        }
    }
    Tensor::from_vec(out, a.shape())
}

impl Tensor {
    // ----------------------------------------------------- binary (allocating)

    /// Elementwise sum with broadcasting.
    pub fn add(&self, rhs: &Tensor) -> Tensor {
        binary_op(self, rhs, |a, b| a + b)
    }

    /// Elementwise difference with broadcasting.
    pub fn sub(&self, rhs: &Tensor) -> Tensor {
        binary_op(self, rhs, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product with broadcasting.
    pub fn mul(&self, rhs: &Tensor) -> Tensor {
        binary_op(self, rhs, |a, b| a * b)
    }

    /// Elementwise maximum with broadcasting.
    pub fn maximum(&self, rhs: &Tensor) -> Tensor {
        binary_op(self, rhs, f32::max)
    }

    // ------------------------------------------------------------- scalar ops

    /// Adds a scalar to every element.
    pub fn add_scalar(&self, s: f32) -> Tensor {
        unary_op(self, |x| x + s)
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&self, s: f32) -> Tensor {
        unary_op(self, |x| x * s)
    }

    // -------------------------------------------------------------- unary ops

    /// Elementwise `exp`.
    pub fn exp(&self) -> Tensor {
        unary_op(self, f32::exp)
    }

    /// Elementwise natural log.
    pub fn ln(&self) -> Tensor {
        unary_op(self, f32::ln)
    }

    /// Elementwise square root.
    pub fn sqrt(&self) -> Tensor {
        unary_op(self, f32::sqrt)
    }

    /// Elementwise square.
    pub fn square(&self) -> Tensor {
        unary_op(self, |x| x * x)
    }

    /// Elementwise absolute value.
    pub fn abs(&self) -> Tensor {
        unary_op(self, f32::abs)
    }

    /// Logistic sigmoid `1/(1+e^{-x})` via the branch-free rational
    /// kernel in [`crate::fastmath`], runtime-dispatched to the widest
    /// SIMD sweep this CPU supports (see [`crate::kernels`]) — saturates
    /// to exact `0`/`1` on the tails, no per-element libm call.
    pub fn sigmoid(&self) -> Tensor {
        unary_sweep(self, crate::kernels::sigmoid_sweep)
    }

    /// Hyperbolic tangent via the branch-free rational kernel in
    /// [`crate::fastmath`], runtime-dispatched like [`Tensor::sigmoid`]
    /// (within a few ulp of `f32::tanh`, exact `±1` saturation).
    pub fn tanh(&self) -> Tensor {
        unary_sweep(self, crate::kernels::tanh_sweep)
    }

    /// Rectified linear unit `max(x, 0)`.
    pub fn relu(&self) -> Tensor {
        unary_op(self, |x| x.max(0.0))
    }

    /// Clamps every element into `[lo, hi]`.
    pub fn clamp(&self, lo: f32, hi: f32) -> Tensor {
        unary_op(self, |x| x.clamp(lo, hi))
    }

    /// Applies an arbitrary function to every element.
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Tensor {
        unary_op(self, f)
    }

    // -------------------------------------------------------- in-place update

    /// `self += alpha * other` (same shape required) — the optimizer axpy.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        let o = other.as_slice().to_vec(); // detach in case self aliases other
        let dst = self.as_mut_slice();
        for (d, s) in dst.iter_mut().zip(o.iter()) {
            *d += alpha * s;
        }
    }

    /// `self += alpha * other`, additionally returning `Σ selfᵢ²` of the
    /// *updated* elements in f64 — the fused accumulate-and-measure the
    /// executor's gradient apply uses so global-norm clipping needs no
    /// second full-parameter sweep. The update itself is bit-identical
    /// to [`Tensor::axpy`].
    pub fn axpy_sq_norm(&mut self, alpha: f32, other: &Tensor) -> f64 {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        let o = other.as_slice().to_vec(); // detach in case self aliases other
        let dst = self.as_mut_slice();
        let mut sq = 0.0f64;
        for (d, s) in dst.iter_mut().zip(o.iter()) {
            *d += alpha * s;
            sq += (*d as f64) * (*d as f64);
        }
        sq
    }

    /// `self *= s` in place.
    pub fn scale_inplace(&mut self, s: f32) {
        for v in self.as_mut_slice() {
            *v *= s;
        }
    }

    /// Sets every element to zero, reusing the buffer when unshared.
    pub fn fill_(&mut self, value: f32) {
        for v in self.as_mut_slice() {
            *v = value;
        }
    }

    /// In-place elementwise update `self[i] = f(self[i], other[i])`.
    pub fn zip_inplace(&mut self, other: &Tensor, f: impl Fn(f32, f32) -> f32) {
        assert_eq!(self.shape(), other.shape(), "zip_inplace shape mismatch");
        let o = other.as_slice().to_vec();
        let dst = self.as_mut_slice();
        for (d, s) in dst.iter_mut().zip(o.iter()) {
            *d = f(*d, *s);
        }
    }

    // ------------------------------------------------------------------ norms

    /// Euclidean (ℓ₂) norm of the flattened tensor, accumulated in f64.
    pub fn l2_norm(&self) -> f32 {
        self.as_slice()
            .iter()
            .map(|&x| (x as f64) * (x as f64))
            .sum::<f64>()
            .sqrt() as f32
    }

    /// Dot product of two same-shaped tensors (flattened), in f64.
    pub fn dot(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape(), other.shape(), "dot shape mismatch");
        self.as_slice()
            .iter()
            .zip(other.as_slice())
            .map(|(&a, &b)| a as f64 * b as f64)
            .sum::<f64>() as f32
    }

    /// True when all elements are finite (no NaN/Inf) — divergence detector.
    pub fn all_finite(&self) -> bool {
        self.as_slice().iter().all(|x| x.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legw_propcheck::prelude::*;

    fn t(v: Vec<f32>, d: &[usize]) -> Tensor {
        Tensor::from_vec(v, d)
    }

    #[test]
    fn add_same_shape() {
        let a = t(vec![1., 2., 3.], &[3]);
        let b = t(vec![10., 20., 30.], &[3]);
        assert_eq!(a.add(&b).as_slice(), &[11., 22., 33.]);
    }

    #[test]
    fn add_row_broadcast() {
        let a = t(vec![1., 2., 3., 4., 5., 6.], &[2, 3]);
        let bias = t(vec![10., 20., 30.], &[3]);
        assert_eq!(a.add(&bias).as_slice(), &[11., 22., 33., 14., 25., 36.]);
    }

    #[test]
    fn mul_col_broadcast() {
        let a = t(vec![1., 2., 3., 4., 5., 6.], &[2, 3]);
        let col = t(vec![2., 10.], &[2, 1]);
        assert_eq!(a.mul(&col).as_slice(), &[2., 4., 6., 40., 50., 60.]);
    }

    #[test]
    fn scalar_broadcast_both_ways() {
        let a = t(vec![1., 2.], &[2]);
        let s = Tensor::scalar(5.);
        assert_eq!(a.add(&s).as_slice(), &[6., 7.]);
        assert_eq!(s.add(&a).as_slice(), &[6., 7.]);
    }

    #[test]
    fn general_broadcast_3d() {
        // [2,1,2] * [1,3,1] -> [2,3,2]
        let a = t(vec![1., 2., 3., 4.], &[2, 1, 2]);
        let b = t(vec![1., 10., 100.], &[1, 3, 1]);
        let c = a.mul(&b);
        assert_eq!(c.shape(), &[2, 3, 2]);
        assert_eq!(
            c.as_slice(),
            &[1., 2., 10., 20., 100., 200., 3., 4., 30., 40., 300., 400.]
        );
    }

    #[test]
    #[should_panic(expected = "incompatible broadcast")]
    fn incompatible_shapes_panic() {
        t(vec![1., 2.], &[2]).add(&t(vec![1., 2., 3.], &[3]));
    }

    #[test]
    fn sigmoid_stable_at_extremes() {
        let a = t(vec![-100.0, 0.0, 100.0], &[3]);
        let s = a.sigmoid();
        assert!(s.as_slice()[0].abs() < 1e-20);
        assert!((s.as_slice()[1] - 0.5).abs() < 1e-7);
        assert!((s.as_slice()[2] - 1.0).abs() < 1e-7);
        assert!(s.all_finite());
    }

    #[test]
    fn relu_and_clamp() {
        let a = t(vec![-2., -0.5, 0.5, 2.], &[4]);
        assert_eq!(a.relu().as_slice(), &[0., 0., 0.5, 2.]);
        assert_eq!(a.clamp(-1., 1.).as_slice(), &[-1., -0.5, 0.5, 1.]);
    }

    #[test]
    fn axpy_matches_manual() {
        let mut a = t(vec![1., 2., 3.], &[3]);
        let g = t(vec![10., 10., 10.], &[3]);
        a.axpy(-0.1, &g);
        for (x, e) in a.as_slice().iter().zip([0., 1., 2.]) {
            assert!((x - e).abs() < 1e-6);
        }
    }

    #[test]
    fn axpy_self_aliasing_is_safe() {
        let mut a = t(vec![1., 2.], &[2]);
        let alias = a.clone();
        a.axpy(1.0, &alias);
        assert_eq!(a.as_slice(), &[2., 4.]);
    }

    #[test]
    fn axpy_sq_norm_updates_like_axpy_and_measures_result() {
        let mut a = t(vec![1., 2., 3.], &[3]);
        let mut b = a.clone();
        let g = t(vec![10., -10., 10.], &[3]);
        a.axpy(-0.1, &g);
        let sq = b.axpy_sq_norm(-0.1, &g);
        assert_eq!(a.as_slice(), b.as_slice(), "update must be bit-identical to axpy");
        let expect: f64 = b.as_slice().iter().map(|&x| (x as f64) * (x as f64)).sum();
        assert!((sq - expect).abs() < 1e-12, "{sq} vs {expect}");
        // aliasing stays safe
        let alias = b.clone();
        let sq2 = b.axpy_sq_norm(1.0, &alias);
        let expect2: f64 = b.as_slice().iter().map(|&x| (x as f64) * (x as f64)).sum();
        assert!((sq2 - expect2).abs() < 1e-12);
    }

    #[test]
    fn l2_norm_and_dot() {
        let a = t(vec![3., 4.], &[2]);
        assert!((a.l2_norm() - 5.0).abs() < 1e-6);
        let b = t(vec![1., 2.], &[2]);
        assert!((a.dot(&b) - 11.0).abs() < 1e-6);
    }

    #[test]
    fn all_finite_detects_nan_inf() {
        assert!(t(vec![1., 2.], &[2]).all_finite());
        assert!(!t(vec![f32::NAN, 2.], &[2]).all_finite());
        assert!(!t(vec![1., f32::INFINITY], &[2]).all_finite());
    }

    #[test]
    fn large_tensor_parallel_path_matches_serial() {
        let n = PAR_THRESHOLD * 2 + 17;
        let a = Tensor::from_vec((0..n).map(|i| i as f32).collect(), &[n]);
        let b = Tensor::full(&[n], 2.0);
        let c = a.mul(&b);
        for i in [0usize, 1, n / 2, n - 1] {
            assert_eq!(c.as_slice()[i], 2.0 * i as f32);
        }
        let e = a.exp().ln();
        assert!((e.as_slice()[10] - 10.0).abs() < 1e-3);
    }

    proptest! {
        #[test]
        fn prop_add_commutes(v in legw_propcheck::collection::vec(-10f32..10.0, 1..64)) {
            let n = v.len();
            let a = Tensor::from_vec(v.clone(), &[n]);
            let b = Tensor::from_vec(v.iter().map(|x| x * 0.5 + 1.0).collect(), &[n]);
            let ab = a.add(&b);
            let ba = b.add(&a);
            prop_assert_eq!(ab.as_slice(), ba.as_slice());
        }

        #[test]
        fn prop_mul_by_ones_is_identity(v in legw_propcheck::collection::vec(-10f32..10.0, 1..64)) {
            let n = v.len();
            let a = Tensor::from_vec(v, &[n]);
            let ones = Tensor::ones(&[n]);
            let prod = a.mul(&ones);
            prop_assert_eq!(prod.as_slice(), a.as_slice());
        }

        #[test]
        fn prop_broadcast_row_equals_manual(m in 1usize..6, n in 1usize..6) {
            let a = Tensor::from_vec((0..m*n).map(|x| x as f32).collect(), &[m, n]);
            let r = Tensor::from_vec((0..n).map(|x| (x * 7) as f32).collect(), &[n]);
            let c = a.add(&r);
            for i in 0..m {
                for j in 0..n {
                    prop_assert_eq!(c.at2(i, j), a.at2(i, j) + (j * 7) as f32);
                }
            }
        }

        #[test]
        fn prop_sigmoid_in_unit_interval(v in legw_propcheck::collection::vec(-50f32..50.0, 1..32)) {
            let n = v.len();
            let s = Tensor::from_vec(v, &[n]).sigmoid();
            for &x in s.as_slice() {
                prop_assert!((0.0..=1.0).contains(&x));
            }
        }
    }
}
