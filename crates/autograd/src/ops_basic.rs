//! Arithmetic, activation, shape, and reduction ops — forward constructors
//! and the backward dispatcher.

use crate::graph::{Graph, Op, Var};
use crate::opk::{self, Mode};
use legw_tensor::Tensor;

impl Graph {
    // ------------------------------------------------------------ arithmetic

    /// Elementwise sum of two same-shaped variables.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        assert_eq!(self.value(a).shape(), self.value(b).shape(), "add shape mismatch");
        let v = self.value(a).add(self.value(b));
        let rg = self.requires(a) || self.requires(b);
        self.push(v, rg, Op::Add(a, b))
    }

    /// Elementwise difference of two same-shaped variables.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        assert_eq!(self.value(a).shape(), self.value(b).shape(), "sub shape mismatch");
        let v = self.value(a).sub(self.value(b));
        let rg = self.requires(a) || self.requires(b);
        self.push(v, rg, Op::Sub(a, b))
    }

    /// Hadamard product of two same-shaped variables.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        assert_eq!(self.value(a).shape(), self.value(b).shape(), "mul shape mismatch");
        let v = self.value(a).mul(self.value(b));
        let rg = self.requires(a) || self.requires(b);
        self.push(v, rg, Op::Mul(a, b))
    }

    /// `x [m,n] + bias [n]`, broadcast over rows.
    pub fn add_bias(&mut self, x: Var, bias: Var) -> Var {
        assert_eq!(self.value(x).ndim(), 2, "add_bias x must be 2-D");
        assert_eq!(
            self.value(bias).shape(),
            &[self.value(x).dim(1)],
            "bias must be [cols] of x"
        );
        let v = self.value(x).add(self.value(bias));
        let rg = self.requires(x) || self.requires(bias);
        self.push(v, rg, Op::AddBias(x, bias))
    }

    /// Scales each row of `x [m,n]` by the scalar in `s [m,1]`.
    pub fn row_scale(&mut self, x: Var, s: Var) -> Var {
        let (m, _n) = (self.value(x).dim(0), self.value(x).dim(1));
        assert_eq!(self.value(s).shape(), &[m, 1], "row_scale scale must be [m,1]");
        let v = self.value(x).mul(self.value(s));
        let rg = self.requires(x) || self.requires(s);
        self.push(v, rg, Op::RowScale(x, s))
    }

    /// Matrix product of 2-D variables.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).matmul(self.value(b));
        let rg = self.requires(a) || self.requires(b);
        self.push(v, rg, Op::Matmul(a, b))
    }

    /// Multiplies by a constant.
    pub fn scale(&mut self, a: Var, c: f32) -> Var {
        let v = self.value(a).scale(c);
        let rg = self.requires(a);
        self.push(v, rg, Op::Scale(a, c))
    }

    /// Adds a constant.
    pub fn add_scalar(&mut self, a: Var, c: f32) -> Var {
        let v = self.value(a).add_scalar(c);
        let rg = self.requires(a);
        self.push(v, rg, Op::AddScalar(a, c))
    }

    // ----------------------------------------------------------- activations

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let v = self.value(a).sigmoid();
        let rg = self.requires(a);
        self.push(v, rg, Op::Sigmoid(a))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let v = self.value(a).tanh();
        let rg = self.requires(a);
        self.push(v, rg, Op::Tanh(a))
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        let v = self.value(a).relu();
        let rg = self.requires(a);
        self.push(v, rg, Op::Relu(a))
    }

    // ----------------------------------------------------------------- shape

    /// Reinterprets under a new shape.
    pub fn reshape(&mut self, a: Var, dims: &[usize]) -> Var {
        let v = self.value(a).reshape(dims);
        let rg = self.requires(a);
        self.push(v, rg, Op::Reshape(a))
    }

    /// Concatenates 2-D variables along columns.
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_cols of nothing");
        let tensors: Vec<&Tensor> = parts.iter().map(|&p| self.value(p)).collect();
        let widths: Vec<usize> = tensors.iter().map(|t| t.dim(1)).collect();
        let v = Tensor::concat_cols(&tensors);
        let rg = parts.iter().any(|&p| self.requires(p));
        self.push(v, rg, Op::ConcatCols(parts.to_vec(), widths))
    }

    /// Extracts columns `[start, end)` of a 2-D variable.
    pub fn slice_cols(&mut self, a: Var, start: usize, end: usize) -> Var {
        let v = self.value(a).slice_cols(start, end);
        let rg = self.requires(a);
        self.push(v, rg, Op::SliceCols(a, start, end))
    }

    /// Concatenates 2-D variables along rows (equal column counts). The
    /// hoisted LSTM path packs T per-step `[B, n]` inputs into one
    /// `[T·B, n]` block with this.
    pub fn concat_rows(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_rows of nothing");
        let tensors: Vec<&Tensor> = parts.iter().map(|&p| self.value(p)).collect();
        let cols = tensors[0].dim(1);
        let row_counts: Vec<usize> = tensors
            .iter()
            .map(|t| {
                assert_eq!(t.ndim(), 2, "concat_rows expects 2-D parts");
                assert_eq!(t.dim(1), cols, "concat_rows column mismatch");
                t.dim(0)
            })
            .collect();
        let v = Tensor::concat_outer(&tensors);
        let rg = parts.iter().any(|&p| self.requires(p));
        self.push(v, rg, Op::ConcatRows(parts.to_vec(), row_counts))
    }

    /// Extracts rows `[start, end)` of a 2-D variable (e.g. the `W_x` or
    /// `W_h` half of the fused `[(in+hid), 4H]` LSTM kernel).
    pub fn slice_rows(&mut self, a: Var, start: usize, end: usize) -> Var {
        let v = self.value(a).rows(start, end);
        let rg = self.requires(a);
        self.push(v, rg, Op::SliceRows(a, start, end))
    }

    // ------------------------------------------------------------ reductions

    /// Sum of all elements → scalar.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let v = Tensor::scalar(opk::sum_all(self.value(a).as_slice(), false));
        let rg = self.requires(a);
        self.push(v, rg, Op::SumAll(a))
    }

    /// Mean of all elements → scalar.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let v = Tensor::scalar(opk::sum_all(self.value(a).as_slice(), true));
        let rg = self.requires(a);
        self.push(v, rg, Op::MeanAll(a))
    }

    // --------------------------------------------------------- regularisation

    /// Inverted dropout with keep probability `keep`: multiplies by a
    /// pre-sampled mask of `{0, 1/keep}` entries supplied by the caller
    /// (layers sample it from their RNG so the tape stays deterministic).
    pub fn dropout(&mut self, a: Var, mask: Tensor) -> Var {
        assert_eq!(self.value(a).shape(), mask.shape(), "dropout mask shape mismatch");
        let v = self.value(a).mul(&mask);
        let rg = self.requires(a);
        self.push(v, rg, Op::Dropout(a, mask))
    }

    // -------------------------------------------------------------- backward

    /// One backward rule, dispatched by op kind. `up` is the upstream
    /// gradient flowing into node `v`.
    pub(crate) fn dispatch_backward(&mut self, op: &Op, v: Var, up: &Tensor) {
        match op {
            Op::Leaf => {}
            Op::Add(a, b) => {
                self.accumulate(*a, up.clone());
                self.accumulate(*b, up.clone());
            }
            Op::Sub(a, b) => {
                self.accumulate(*a, up.clone());
                self.accumulate(*b, up.scale(-1.0));
            }
            Op::Mul(a, b) => {
                let da = up.mul(self.value(*b));
                let db = up.mul(self.value(*a));
                self.accumulate(*a, da);
                self.accumulate(*b, db);
            }
            Op::AddBias(x, bias) => {
                self.accumulate(*x, up.clone());
                self.accumulate(*bias, up.sum_axis(0));
            }
            Op::RowScale(x, s) => {
                let xv = self.value(*x);
                let (m, n) = (xv.dim(0), xv.dim(1));
                let dx = up.mul(self.value(*s)); // broadcast [m,1]
                let mut ds = vec![0.0f32; m];
                opk::row_scale_ds(&mut ds, Mode::Store, up.as_slice(), xv.as_slice(), n);
                self.accumulate(*x, dx);
                self.accumulate(*s, Tensor::from_vec(ds, &[m, 1]));
            }
            Op::Matmul(a, b) => {
                // dA = up · Bᵀ, dB = Aᵀ · up
                let da = up.matmul_t(self.value(*b));
                let db = self.value(*a).t_matmul(up);
                self.accumulate(*a, da);
                self.accumulate(*b, db);
            }
            Op::Scale(a, c) => self.accumulate(*a, up.scale(*c)),
            Op::AddScalar(a, _) => self.accumulate(*a, up.clone()),
            Op::Sigmoid(a) => {
                let y = &self.nodes[v.0].value;
                let d = y.map(|p| p * (1.0 - p)).mul(up);
                self.accumulate(*a, d);
            }
            Op::Tanh(a) => {
                let y = &self.nodes[v.0].value;
                let d = y.map(|t| 1.0 - t * t).mul(up);
                self.accumulate(*a, d);
            }
            Op::Relu(a) => {
                let x = self.value(*a);
                let d = x.map(|t| if t > 0.0 { 1.0 } else { 0.0 }).mul(up);
                self.accumulate(*a, d);
            }
            Op::Reshape(a) => {
                let target = self.value(*a).shape().to_vec();
                self.accumulate(*a, up.reshape(&target));
            }
            Op::ConcatCols(parts, widths) => {
                let mut off = 0;
                let parts = parts.clone();
                let widths = widths.clone();
                for (p, w) in parts.iter().zip(widths.iter()) {
                    let piece = up.slice_cols(off, off + w);
                    self.accumulate(*p, piece);
                    off += w;
                }
            }
            Op::SliceCols(a, start, end) => {
                let xv = self.value(*a);
                let (m, n) = (xv.dim(0), xv.dim(1));
                let mut dx = vec![0.0f32; m * n];
                opk::cols_scatter(&mut dx, Mode::Store, up.as_slice(), n, *start, *end);
                self.accumulate(*a, Tensor::from_vec(dx, &[m, n]));
            }
            Op::ConcatRows(parts, row_counts) => {
                let mut off = 0;
                let parts = parts.clone();
                let row_counts = row_counts.clone();
                for (p, rc) in parts.iter().zip(row_counts.iter()) {
                    let piece = up.rows(off, off + rc);
                    self.accumulate(*p, piece);
                    off += rc;
                }
            }
            Op::SliceRows(a, start, _) => {
                let xv = self.value(*a);
                let (m, n) = (xv.dim(0), xv.dim(1));
                // `dx` is born zero, so only the block is written.
                let mut dx = vec![0.0f32; m * n];
                opk::block(&mut dx, Mode::Store, up.as_slice(), start * n, false);
                self.accumulate(*a, Tensor::from_vec(dx, &[m, n]));
            }
            Op::SumAll(a) => {
                let g = Tensor::full(self.value(*a).shape(), up.item());
                self.accumulate(*a, g);
            }
            Op::MeanAll(a) => {
                let n = self.value(*a).numel() as f32;
                let g = Tensor::full(self.value(*a).shape(), up.item() / n);
                self.accumulate(*a, g);
            }
            Op::Dropout(a, mask) => {
                self.accumulate(*a, up.mul(mask));
            }
            Op::Embedding { .. }
            | Op::SoftmaxRows(_)
            | Op::SoftmaxCrossEntropy { .. } => self.backward_loss(op, v, up),
            Op::Conv2d { .. }
            | Op::MaxPool2x2 { .. }
            | Op::GlobalAvgPool { .. }
            | Op::BatchNorm { .. } => self.backward_conv(op, v, up),
            Op::LstmCell { .. }
            | Op::LstmCellC { .. }
            | Op::LstmPreactSeq { .. }
            | Op::LstmRecurStep { .. } => self.backward_lstm(op, v, up),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::grad_check;

    #[test]
    fn add_sub_mul_grads() {
        grad_check(
            &[Tensor::from_vec(vec![1., -2., 3.], &[3]), Tensor::from_vec(vec![0.5, 2., -1.], &[3])],
            |g, vs| {
                let s = g.add(vs[0], vs[1]);
                let d = g.sub(s, vs[1]);
                let m = g.mul(d, vs[1]);
                g.sum_all(m)
            },
        );
    }

    #[test]
    fn matmul_grads() {
        grad_check(
            &[
                Tensor::from_vec((0..6).map(|i| 0.3 * i as f32 - 1.0).collect(), &[2, 3]),
                Tensor::from_vec((0..12).map(|i| 0.1 * i as f32 - 0.5).collect(), &[3, 4]),
            ],
            |g, vs| {
                let y = g.matmul(vs[0], vs[1]);
                g.sum_all(y)
            },
        );
    }

    #[test]
    fn add_bias_grads() {
        grad_check(
            &[
                Tensor::from_vec((0..6).map(|i| i as f32 * 0.2).collect(), &[2, 3]),
                Tensor::from_vec(vec![0.1, -0.2, 0.3], &[3]),
            ],
            |g, vs| {
                let y = g.add_bias(vs[0], vs[1]);
                let t = g.tanh(y);
                g.mean_all(t)
            },
        );
    }

    #[test]
    fn row_scale_grads() {
        grad_check(
            &[
                Tensor::from_vec((0..6).map(|i| i as f32 * 0.3 - 1.0).collect(), &[2, 3]),
                Tensor::from_vec(vec![0.7, -1.2], &[2, 1]),
            ],
            |g, vs| {
                let y = g.row_scale(vs[0], vs[1]);
                g.sum_all(y)
            },
        );
    }

    #[test]
    fn activation_grads() {
        let x = Tensor::from_vec(vec![-1.5, -0.2, 0.0, 0.3, 2.0, -3.0], &[2, 3]);
        grad_check(std::slice::from_ref(&x), |g, vs| {
            let s = g.sigmoid(vs[0]);
            g.sum_all(s)
        });
        grad_check(std::slice::from_ref(&x), |g, vs| {
            let t = g.tanh(vs[0]);
            g.sum_all(t)
        });
        // relu is non-differentiable at 0; avoid exact zeros
        let xr = Tensor::from_vec(vec![-1.5, -0.2, 0.1, 0.3, 2.0, -3.0], &[2, 3]);
        grad_check(&[xr], |g, vs| {
            let r = g.relu(vs[0]);
            g.sum_all(r)
        });
    }

    #[test]
    fn concat_slice_grads() {
        grad_check(
            &[
                Tensor::from_vec(vec![1., 2., 3., 4.], &[2, 2]),
                Tensor::from_vec(vec![5., 6., 7., 8., 9., 10.], &[2, 3]),
            ],
            |g, vs| {
                let cat = g.concat_cols(&[vs[0], vs[1]]);
                let sl = g.slice_cols(cat, 1, 4);
                let sq = g.mul(sl, sl);
                g.sum_all(sq)
            },
        );
    }

    #[test]
    fn concat_rows_slice_rows_grads() {
        grad_check(
            &[
                Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], &[2, 3]),
                Tensor::from_vec(vec![7., 8., 9.], &[1, 3]),
                Tensor::from_vec(vec![-1., 0.5, 2., 1., -2., 0.25], &[2, 3]),
            ],
            |g, vs| {
                let cat = g.concat_rows(&[vs[0], vs[1], vs[2]]);
                let sl = g.slice_rows(cat, 1, 4);
                let sq = g.mul(sl, sl);
                g.sum_all(sq)
            },
        );
    }

    #[test]
    fn concat_rows_matches_values_and_scatter() {
        // Forward packs rows in order; backward routes each part its rows.
        let mut g = Graph::new();
        let a = g.param(Tensor::from_vec(vec![1., 2., 3., 4.], &[2, 2]));
        let b = g.param(Tensor::from_vec(vec![5., 6.], &[1, 2]));
        let cat = g.concat_rows(&[a, b]);
        assert_eq!(g.value(cat).shape(), &[3, 2]);
        assert_eq!(g.value(cat).as_slice(), &[1., 2., 3., 4., 5., 6.]);
        // Loss = sum of the last row only: a gets zero grad, b gets ones.
        let tail = g.slice_rows(cat, 2, 3);
        let s = g.sum_all(tail);
        g.backward(s);
        assert_eq!(g.grad(a).unwrap().as_slice(), &[0., 0., 0., 0.]);
        assert_eq!(g.grad(b).unwrap().as_slice(), &[1., 1.]);
    }

    #[test]
    fn reshape_and_scale_grads() {
        grad_check(&[Tensor::from_vec((0..8).map(|i| i as f32 * 0.25).collect(), &[2, 4])], |g, vs| {
            let r = g.reshape(vs[0], &[4, 2]);
            let s = g.scale(r, 3.0);
            let a = g.add_scalar(s, -1.0);
            g.mean_all(a)
        });
    }

    #[test]
    fn dropout_backward_uses_mask() {
        let mut g = Graph::new();
        let x = g.param(Tensor::from_vec(vec![1., 2., 3., 4.], &[2, 2]));
        let mask = Tensor::from_vec(vec![2., 0., 2., 0.], &[2, 2]); // keep=0.5
        let d = g.dropout(x, mask);
        let s = g.sum_all(d);
        g.backward(s);
        assert_eq!(g.grad(x).unwrap().as_slice(), &[2., 0., 2., 0.]);
    }

    #[test]
    fn shared_subexpression_accumulates() {
        // y = x*x + x ⇒ dy/dx = 2x + 1
        let mut g = Graph::new();
        let x = g.param(Tensor::from_vec(vec![3.0], &[1]));
        let sq = g.mul(x, x);
        let y = g.add(sq, x);
        g.backward(y);
        assert_eq!(g.grad(x).unwrap().as_slice(), &[7.0]);
    }
}
