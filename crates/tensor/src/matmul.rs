//! Matrix-product entry points: `matmul` and the transpose variants used by
//! backward passes.
//!
//! All of them route through the packed, register-tiled engine in
//! [`crate::gemm`] — operand transposition is absorbed at pack time, so
//! there is one compute kernel instead of per-variant loops.

use crate::gemm;
use crate::tensor::Tensor;
use legw_parallel::current;

/// Slice-level GEMM into a caller-owned output: `out (+)= op(a) @ op(b)`
/// where `op` is the optional transpose selected by `trans_a`/`trans_b`.
///
/// `a` is `[m,k]` (`[k,m]` when `trans_a`), `b` is `[k,n]` (`[n,k]` when
/// `trans_b`), `out` is `[m,n]`. With `acc` the product accumulates into
/// `out`, otherwise `out` is overwritten. Runs on the current thread pool —
/// the same engine behind [`Tensor::matmul`] and friends, exposed at the
/// slice level so precompiled execution plans can write into preplanned
/// arena slots without materialising tensors.
#[allow(clippy::too_many_arguments)]
pub fn gemm_into(
    trans_a: bool,
    trans_b: bool,
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
    acc: bool,
) {
    assert_eq!(a.len(), m * k, "gemm_into lhs length");
    assert_eq!(b.len(), k * n, "gemm_into rhs length");
    assert_eq!(out.len(), m * n, "gemm_into out length");
    gemm::gemm_into(&current(), trans_a, trans_b, a, b, m, k, n, out, acc);
}

impl Tensor {
    /// Matrix product `self @ rhs` of a `[m,k]` by a `[k,n]` tensor.
    ///
    /// # Panics
    /// If either operand is not 2-D or the inner dimensions disagree.
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 2, "matmul lhs must be 2-D, got {:?}", self.shape());
        assert_eq!(rhs.ndim(), 2, "matmul rhs must be 2-D, got {:?}", rhs.shape());
        let (m, k) = (self.dim(0), self.dim(1));
        let (k2, n) = (rhs.dim(0), rhs.dim(1));
        assert_eq!(k, k2, "matmul inner dims: {:?} @ {:?}", self.shape(), rhs.shape());
        Tensor::from_buffer(
            gemm::gemm(false, false, self.as_slice(), rhs.as_slice(), m, k, n),
            &[m, n],
        )
    }

    /// `selfᵀ @ rhs` for `[k,m]ᵀ @ [k,n] = [m,n]` without materialising the
    /// transpose (used for weight gradients `xᵀ · δ`).
    pub fn t_matmul(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 2);
        assert_eq!(rhs.ndim(), 2);
        let (k, m) = (self.dim(0), self.dim(1));
        let (k2, n) = (rhs.dim(0), rhs.dim(1));
        assert_eq!(k, k2, "t_matmul inner dims: {:?}ᵀ @ {:?}", self.shape(), rhs.shape());
        Tensor::from_buffer(
            gemm::gemm(true, false, self.as_slice(), rhs.as_slice(), m, k, n),
            &[m, n],
        )
    }

    /// `self @ rhsᵀ` for `[m,k] @ [n,k]ᵀ = [m,n]` without materialising the
    /// transpose (used for input gradients `δ · wᵀ`).
    pub fn matmul_t(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 2);
        assert_eq!(rhs.ndim(), 2);
        let (m, k) = (self.dim(0), self.dim(1));
        let (n, k2) = (rhs.dim(0), rhs.dim(1));
        assert_eq!(k, k2, "matmul_t inner dims: {:?} @ {:?}ᵀ", self.shape(), rhs.shape());
        Tensor::from_buffer(
            gemm::gemm(false, true, self.as_slice(), rhs.as_slice(), m, k, n),
            &[m, n],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legw_propcheck::prelude::*;

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.dim(0), a.dim(1));
        let n = b.dim(1);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for kk in 0..k {
                    acc += a.at2(i, kk) * b.at2(kk, j);
                }
                out[i * n + j] = acc;
            }
        }
        Tensor::from_vec(out, &[m, n])
    }

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())), "{x} vs {y}");
        }
    }

    /// Row-major identity matrix of size `n`.
    fn eye(n: usize) -> Tensor {
        let mut v = vec![0.0; n * n];
        for i in 0..n {
            v[i * n + i] = 1.0;
        }
        Tensor::from_vec(v, &[n, n])
    }

    fn rng_tensor(seed: u64, dims: &[usize]) -> Tensor {
        // tiny deterministic LCG; avoids pulling `rand` into this module
        let n: usize = dims.iter().product();
        let mut s = seed.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            s = s.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            v.push(((s >> 33) as f32 / (1u64 << 31) as f32) - 1.0);
        }
        Tensor::from_vec(v, dims)
    }

    #[test]
    fn matmul_identity() {
        let a = rng_tensor(1, &[5, 5]);
        let i = eye(5);
        assert_close(&a.matmul(&i), &a, 1e-6);
        assert_close(&i.matmul(&a), &a, 1e-6);
    }

    #[test]
    fn matmul_matches_naive_small() {
        let a = rng_tensor(2, &[7, 11]);
        let b = rng_tensor(3, &[11, 5]);
        assert_close(&a.matmul(&b), &naive(&a, &b), 1e-5);
    }

    #[test]
    fn matmul_matches_naive_parallel_sizes() {
        let a = rng_tensor(4, &[97, 83]);
        let b = rng_tensor(5, &[83, 101]);
        assert_close(&a.matmul(&b), &naive(&a, &b), 1e-4);
    }

    #[test]
    fn t_matmul_equals_explicit_transpose() {
        let a = rng_tensor(6, &[13, 7]);
        let b = rng_tensor(7, &[13, 9]);
        assert_close(&a.t_matmul(&b), &a.transpose().matmul(&b), 1e-5);
        // and on a parallel-sized problem
        let a2 = rng_tensor(8, &[90, 70]);
        let b2 = rng_tensor(9, &[90, 80]);
        assert_close(&a2.t_matmul(&b2), &a2.transpose().matmul(&b2), 1e-4);
    }

    #[test]
    fn matmul_t_equals_explicit_transpose() {
        let a = rng_tensor(10, &[13, 7]);
        let b = rng_tensor(11, &[9, 7]);
        assert_close(&a.matmul_t(&b), &a.matmul(&b.transpose()), 1e-5);
        let a2 = rng_tensor(12, &[90, 70]);
        let b2 = rng_tensor(13, &[80, 70]);
        assert_close(&a2.matmul_t(&b2), &a2.matmul(&b2.transpose()), 1e-4);
    }

    #[test]
    fn steady_state_matmul_reuses_output_buffers() {
        let a = rng_tensor(30, &[64, 64]);
        let b = rng_tensor(31, &[64, 64]);
        // Warm the pool: the first output buffer is a fresh allocation that
        // joins the pool when dropped.
        drop(a.matmul(&b));
        let (hits0, _) = crate::pool::thread_stats();
        for _ in 0..10 {
            drop(a.matmul(&b));
        }
        let (hits1, _) = crate::pool::thread_stats();
        assert!(
            hits1 >= hits0 + 10,
            "expected every steady-state output to come from the pool, got {} hits",
            hits1 - hits0
        );
    }

    #[test]
    #[should_panic(expected = "inner dims")]
    fn mismatched_inner_dim_panics() {
        rng_tensor(1, &[2, 3]).matmul(&rng_tensor(2, &[4, 2]));
    }

    proptest! {
        #[test]
        fn prop_matmul_associates_with_naive(m in 1usize..12, k in 1usize..12, n in 1usize..12, seed in 0u64..1000) {
            let a = rng_tensor(seed, &[m, k]);
            let b = rng_tensor(seed + 1, &[k, n]);
            assert_close(&a.matmul(&b), &naive(&a, &b), 1e-4);
        }

        #[test]
        fn prop_distributes_over_add(m in 1usize..8, k in 1usize..8, n in 1usize..8, seed in 0u64..1000) {
            let a = rng_tensor(seed, &[m, k]);
            let b = rng_tensor(seed + 1, &[k, n]);
            let c = rng_tensor(seed + 2, &[k, n]);
            let lhs = a.matmul(&b.add(&c));
            let rhs = a.matmul(&b).add(&a.matmul(&c));
            assert_close(&lhs, &rhs, 1e-4);
        }
    }
}
