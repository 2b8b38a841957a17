//! Reductions, row softmax / log-softmax, and argmax.

use crate::tensor::Tensor;

/// Row-wise softmax of the row-major `[m, n]` matrix `src` into `out`,
/// numerically stabilised by the row max, with the normaliser accumulated in
/// f64 — the kernel behind [`Tensor::softmax_rows`], on caller-owned storage.
pub fn softmax_rows_into(src: &[f32], m: usize, n: usize, out: &mut [f32]) {
    assert!(src.len() == m * n && out.len() == m * n, "softmax_rows_into: [{m},{n}] buffers");
    for (row, orow) in src.chunks_exact(n).zip(out.chunks_exact_mut(n)) {
        let mx = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut z = 0.0f64;
        for (o, &x) in orow.iter_mut().zip(row.iter()) {
            let e = (x - mx).exp();
            *o = e;
            z += e as f64;
        }
        let inv = (1.0 / z) as f32;
        for o in orow.iter_mut() {
            *o *= inv;
        }
    }
}

/// Column sums of the row-major `[rows, cols]` matrix `src` into the f64
/// accumulators `acc` (overwritten): each column adds its rows in ascending
/// order while the matrix is read contiguously — the kernel behind
/// [`Tensor::sum_axis`]`(0)`.
pub fn col_sums_into(src: &[f32], rows: usize, cols: usize, acc: &mut [f64]) {
    assert!(src.len() == rows * cols && acc.len() == cols, "col_sums_into: [{rows},{cols}] buffers");
    acc.fill(0.0);
    for row in src.chunks_exact(cols) {
        for (a, &x) in acc.iter_mut().zip(row) {
            *a += x as f64;
        }
    }
}

impl Tensor {
    /// Sum of all elements, accumulated in f64 for stability.
    pub fn sum(&self) -> f32 {
        self.as_slice().iter().map(|&x| x as f64).sum::<f64>() as f32
    }

    /// Arithmetic mean of all elements.
    pub fn mean(&self) -> f32 {
        self.sum() / self.numel() as f32
    }

    /// Maximum element (NaNs propagate as in `f32::max` semantics: ignored).
    pub fn max(&self) -> f32 {
        self.as_slice().iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element.
    pub fn min(&self) -> f32 {
        self.as_slice().iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Sums a 2-D tensor along `axis`: axis 0 collapses rows → `[cols]`,
    /// axis 1 collapses columns → `[rows]`.
    pub fn sum_axis(&self, axis: usize) -> Tensor {
        assert_eq!(self.ndim(), 2, "sum_axis expects 2-D, got {:?}", self.shape());
        let (m, n) = (self.dim(0), self.dim(1));
        let src = self.as_slice();
        match axis {
            0 => {
                let mut out = vec![0.0f64; n];
                col_sums_into(src, m, n, &mut out);
                Tensor::from_vec(out.into_iter().map(|x| x as f32).collect(), &[n])
            }
            1 => {
                let mut out = Vec::with_capacity(m);
                for i in 0..m {
                    out.push(src[i * n..(i + 1) * n].iter().map(|&x| x as f64).sum::<f64>() as f32);
                }
                Tensor::from_vec(out, &[m])
            }
            _ => panic!("sum_axis axis must be 0 or 1, got {axis}"),
        }
    }

    /// Mean along `axis` of a 2-D tensor.
    pub fn mean_axis(&self, axis: usize) -> Tensor {
        let divisor = self.dim(axis) as f32;
        self.sum_axis(axis).scale(1.0 / divisor)
    }

    /// Index of the largest element (first occurrence on ties).
    pub fn argmax(&self) -> usize {
        let mut best = 0;
        let mut bv = f32::NEG_INFINITY;
        for (i, &x) in self.as_slice().iter().enumerate() {
            if x > bv {
                bv = x;
                best = i;
            }
        }
        best
    }

    /// Per-row argmax of a 2-D tensor → `Vec` of column indices.
    pub fn argmax_rows(&self) -> Vec<usize> {
        assert_eq!(self.ndim(), 2);
        let (m, n) = (self.dim(0), self.dim(1));
        let src = self.as_slice();
        (0..m)
            .map(|i| {
                let row = &src[i * n..(i + 1) * n];
                let mut best = 0;
                let mut bv = f32::NEG_INFINITY;
                for (j, &x) in row.iter().enumerate() {
                    if x > bv {
                        bv = x;
                        best = j;
                    }
                }
                best
            })
            .collect()
    }

    /// Row-wise softmax of a 2-D tensor (numerically stabilised by the row
    /// max).
    pub fn softmax_rows(&self) -> Tensor {
        assert_eq!(self.ndim(), 2, "softmax_rows expects 2-D, got {:?}", self.shape());
        let (m, n) = (self.dim(0), self.dim(1));
        let mut out = vec![0.0f32; m * n];
        softmax_rows_into(self.as_slice(), m, n, &mut out);
        Tensor::from_vec(out, &[m, n])
    }

    /// Row-wise log-softmax of a 2-D tensor.
    pub fn log_softmax_rows(&self) -> Tensor {
        assert_eq!(self.ndim(), 2);
        let (m, n) = (self.dim(0), self.dim(1));
        let src = self.as_slice();
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let row = &src[i * n..(i + 1) * n];
            let mx = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let lse = mx
                + (row.iter().map(|&x| ((x - mx) as f64).exp()).sum::<f64>()).ln() as f32;
            for (o, &x) in out[i * n..(i + 1) * n].iter_mut().zip(row.iter()) {
                *o = x - lse;
            }
        }
        Tensor::from_vec(out, &[m, n])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legw_propcheck::prelude::*;

    #[test]
    fn sum_mean_max_min() {
        let a = Tensor::from_vec(vec![1., -2., 3., 4.], &[2, 2]);
        assert_eq!(a.sum(), 6.0);
        assert_eq!(a.mean(), 1.5);
        assert_eq!(a.max(), 4.0);
        assert_eq!(a.min(), -2.0);
    }

    #[test]
    fn sum_axis_both_ways() {
        let a = Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], &[2, 3]);
        assert_eq!(a.sum_axis(0).as_slice(), &[5., 7., 9.]);
        assert_eq!(a.sum_axis(1).as_slice(), &[6., 15.]);
        assert_eq!(a.mean_axis(0).as_slice(), &[2.5, 3.5, 4.5]);
    }

    #[test]
    fn argmax_variants() {
        let a = Tensor::from_vec(vec![0., 5., 2., 9., 1., 3.], &[2, 3]);
        assert_eq!(a.argmax(), 3);
        assert_eq!(a.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn softmax_rows_sum_to_one_and_order_preserved() {
        let a = Tensor::from_vec(vec![1., 2., 3., -1., 0., 1.], &[2, 3]);
        let s = a.softmax_rows();
        for i in 0..2 {
            let row: f32 = (0..3).map(|j| s.at2(i, j)).sum();
            assert!((row - 1.0).abs() < 1e-6);
            assert!(s.at2(i, 0) < s.at2(i, 1) && s.at2(i, 1) < s.at2(i, 2));
        }
    }

    #[test]
    fn softmax_stable_with_large_logits() {
        let a = Tensor::from_vec(vec![1000., 1001., 1002.], &[1, 3]);
        let s = a.softmax_rows();
        assert!(s.all_finite());
        assert!((s.as_slice().iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn log_softmax_consistent_with_softmax() {
        let a = Tensor::from_vec(vec![0.3, -1.2, 2.0, 0.7], &[2, 2]);
        let ls = a.log_softmax_rows();
        let s = a.softmax_rows();
        for (l, p) in ls.as_slice().iter().zip(s.as_slice()) {
            assert!((l.exp() - p).abs() < 1e-6);
        }
    }

    proptest! {
        #[test]
        fn prop_softmax_invariant_to_row_shift(
            v in legw_propcheck::collection::vec(-5f32..5.0, 3..12),
            shift in -100f32..100.0,
        ) {
            let n = v.len();
            let a = Tensor::from_vec(v.clone(), &[1, n]);
            let b = a.add_scalar(shift).reshape(&[1, n]);
            let sa = a.softmax_rows();
            let sb = b.softmax_rows();
            for (x, y) in sa.as_slice().iter().zip(sb.as_slice()) {
                prop_assert!((x - y).abs() < 1e-4);
            }
        }

        #[test]
        fn prop_sum_axis_totals_match(m in 1usize..8, n in 1usize..8) {
            let a = Tensor::from_vec((0..m*n).map(|x| (x as f32).sin()).collect(), &[m, n]);
            let t0 = a.sum_axis(0).sum();
            let t1 = a.sum_axis(1).sum();
            prop_assert!((t0 - a.sum()).abs() < 1e-4);
            prop_assert!((t1 - a.sum()).abs() < 1e-4);
        }
    }
}
