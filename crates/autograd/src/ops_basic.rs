//! Arithmetic, activation, shape and reduction ops: their forward
//! constructors, kernels and backward rules, and the gradient kernels those
//! rules append.

use crate::graph::{Graph, Var};
use crate::opk::{self, apply, par_apply, par_sweep_map, store_or_add, Mode};
use crate::table::{Attr, Detour, Entry, Gemm, Io, Role, State};
use legw_tensor::{col_sums_into, concat_cols_into, kernels, slice_cols_into, Tensor};

/// The gradient flowing into a single-output op.
pub(crate) fn up(ups: &[Option<Var>]) -> Var {
    ups[0].expect("backward visits an op only with a gradient")
}

/// `out = f(a, b)` elementwise.
fn ew(io: &mut Io, f: impl Fn(f32, f32) -> f32 + Sync) {
    let (a, b) = (io.src.get(0), io.src.get(1));
    par_apply(io.out[0], Mode::Store, |i| f(a[i], b[i]));
}

/// `out (+)= f(up, other)` elementwise.
fn ew_grad(io: &mut Io, f: impl Fn(f32, f32) -> f32 + Sync) {
    let (u, o) = (io.src.get(0), io.src.get(1));
    par_apply(io.out[0], io.mode[0], |i| f(u[i], o[i]));
}

/// `out = f(a, c)` elementwise, `c` the kernel's scalar.
fn scalar(io: &mut Io, f: impl Fn(f32, f32) -> f32 + Sync) {
    let (Attr::Scalar(c), a) = (*io.a, io.src.get(0)) else { unreachable!() };
    par_apply(io.out[0], Mode::Store, |i| f(a[i], c));
}

/// `da = u · bᵀ`, then `db = aᵀ · u`: the backward of the untransposed `a · b`.
pub(crate) fn matmul_grads(g: &mut Graph, Gemm { m, k, n, .. }: Gemm, [u, a, b]: [Var; 3]) {
    g.contrib(&GEMM, &[u, b], &[a], Attr::Gemm(Gemm { ta: false, tb: true, m, k: n, n: k }), None);
    g.contrib(&GEMM, &[a, u], &[b], Attr::Gemm(Gemm { ta: true, tb: false, m: k, k: m, n }), None);
}

pub(crate) static EW_ADD: Entry = Entry::new("EwAdd", |io| ew(io, |a, b| a + b)).grad(|g, n, u| {
    for &v in &n.src {
        g.contrib(&SCALE_G, &[up(u)], &[v], Attr::Scalar(1.0), None);
    }
});

static EW_SUB: Entry = Entry::new("EwSub", |io| ew(io, |a, b| a - b)).grad(|g, n, u| {
    g.contrib(&SCALE_G, &[up(u)], &[n.src[0]], Attr::Scalar(1.0), None);
    g.contrib(&SCALE_G, &[up(u)], &[n.src[1]], Attr::Scalar(-1.0), None);
});

static EW_MUL: Entry = Entry::new("EwMul", |io| ew(io, |a, b| a * b)).grad(|g, n, u| {
    g.contrib(&MUL_G, &[up(u), n.src[1]], &[n.src[0]], Attr::None, None);
    g.contrib(&MUL_G, &[up(u), n.src[0]], &[n.src[1]], Attr::None, None);
});

static ADD_BIAS: Entry = Entry::new("AddBias", |io| {
    opk::add_bias(io.out[0], Mode::Store, io.src.get(0), io.src.get(1));
})
.grad(|g, n, u| {
    g.contrib(&SCALE_G, &[up(u)], &[n.src[0]], Attr::Scalar(1.0), None);
    g.contrib(&COL_SUM_G, &[up(u)], &[n.src[1]], Attr::None, None);
});

static ROW_SCALE: Entry = Entry::new("RowScale", |io| {
    opk::row_scale(io.out[0], Mode::Store, io.src.get(0), io.src.get(1));
})
.grad(|g, n, u| {
    let [x, s] = [n.src[0], n.src[1]];
    g.contrib(&ROW_SCALE_DX, &[up(u), s], &[x], Attr::None, None);
    g.contrib(&ROW_SCALE_DS, &[up(u), x], &[s], Attr::None, None);
});

/// `Gemm`: `out (+)= op(src 0) · op(src 1)`. An add-mode output detours
/// through scratch ([`store_or_add`]): adding in-engine across k-blocks
/// would reassociate the sums.
pub(crate) static GEMM: Entry = Entry::new("Gemm", |io| {
    store_or_add(io.out[0], io.mode[0], io.scratch, |o| io.src.gemm(io.a, io.src.get(0), o, false));
})
.grad(|g, n, u| {
    let Attr::Gemm(gm) = n.a else { unreachable!() };
    matmul_grads(g, gm, [up(u), n.src[0], n.src[1]]);
})
.detour(Detour::Each);

/// An add-mode [`GEMM`] whose inner dimension is a single k-block
/// ([`legw_tensor::gemm_single_k_block`]) accumulates in-engine: each output
/// element then sees exactly one `+=` of the micro-tile product the scratch
/// detour would have added, so the bits match without the scratch. Only a
/// plan chooses it.
pub(crate) static GEMM_ACC: Entry = Entry::new("GemmAcc", |io| {
    debug_assert!(matches!(*io.a, Attr::Gemm(g) if legw_tensor::gemm_single_k_block(g.k)));
    io.src.gemm(io.a, io.src.get(0), io.out[0], true);
});

static SCALE: Entry = Entry::new("Scale", |io| scalar(io, |x, c| x * c))
    .grad(|g, n, u| g.contrib(&SCALE_G, &[up(u)], &n.src, n.a, None));

static ADD_SCALAR: Entry = Entry::new("AddScalar", |io| scalar(io, |x, c| x + c))
    .grad(|g, n, u| g.contrib(&SCALE_G, &[up(u)], &n.src, Attr::Scalar(1.0), None));

static SIGMOID: Entry =
    Entry::new("Sigmoid", |io| par_sweep_map(io.out[0], io.src.get(0), kernels::sigmoid_sweep))
        .grad(|g, n, u| g.contrib(&SIGMOID_G, &[up(u), n.me()], &n.src, Attr::None, None));

static TANH: Entry =
    Entry::new("Tanh", |io| par_sweep_map(io.out[0], io.src.get(0), kernels::tanh_sweep))
        .grad(|g, n, u| g.contrib(&TANH_G, &[up(u), n.me()], &n.src, Attr::None, None));

static RELU: Entry = Entry::new("Relu", |io| {
    let x = io.src.get(0);
    par_apply(io.out[0], Mode::Store, |i| x[i].max(0.0));
})
.grad(|g, n, u| g.contrib(&RELU_G, &[up(u), n.src[0]], &n.src, Attr::None, None));

/// `Block`: each source, from element `src_off` on, fills the next block
/// of the output from `dst_off` on, as much as fits. Reshape, row slices
/// and row concatenation; a plan runs one instruction per source.
pub(crate) static COPY_BLOCK: Entry = Entry::new("CopyBlock", |io| {
    let Attr::Block { src_off, mut dst_off } = *io.a else { unreachable!() };
    for j in 0..io.src.len() {
        let s = &io.src.get(j)[src_off..];
        let len = s.len().min(io.out[0].len() - dst_off);
        io.out[0][dst_off..dst_off + len].copy_from_slice(&s[..len]);
        dst_off += len;
    }
})
.grad(|g, n, u| {
    let Attr::Block { src_off, mut dst_off } = n.a else { unreachable!() };
    let total = g.numel(n.me());
    for &v in &n.src {
        let len = (g.numel(v) - src_off).min(total - dst_off);
        let a = Attr::Block { src_off: dst_off, dst_off: src_off };
        g.contrib(&BLOCK_G, &[up(u)], &[v], a, None);
        dst_off += len;
    }
});

/// `Cols`: the sources side by side.
static CONCAT_COLS: Entry = Entry::new("ConcatColsF", |io| {
    let Attr::Cols { rows, .. } = *io.a else { unreachable!() };
    let total = io.out[0].len() / rows;
    let mut off = 0;
    for j in 0..io.src.len() {
        let p = io.src.get(j);
        concat_cols_into(p, rows, p.len() / rows, io.out[0], total, off);
        off += p.len() / rows;
    }
})
.grad(|g, n, u| {
    let Attr::Cols { rows, mut off } = n.a else { unreachable!() };
    for &p in &n.src {
        g.contrib(&COLS_BLOCK_G, &[up(u)], &[p], Attr::Cols { rows, off }, None);
        off += g.shape(p)[1];
    }
});

/// `Cols`: columns `off..` of the source, as many as the output has.
static SLICE_COLS: Entry = Entry::new("SliceColsF", |io| {
    let (Attr::Cols { rows, off: start }, x) = (*io.a, io.src.get(0)) else { unreachable!() };
    let end = start + io.out[0].len() / rows;
    slice_cols_into(x, rows, x.len() / rows, start, end, io.out[0]);
})
.grad(|g, n, u| g.contrib(&COLS_SCATTER_G, &[up(u)], &n.src, n.a, None));

/// `Sum`: the sum, or the mean, of all elements, accumulated in f64.
static SUM_ALL: Entry = Entry::new("SumAllF", |io| {
    let Attr::Sum { mean } = *io.a else { unreachable!() };
    io.out[0][0] = opk::sum_all(io.src.get(0), mean);
})
.grad(|g, n, u| g.contrib(&SUM_ALL_G, &[up(u)], &n.src, n.a, None));

static DROPOUT: Entry = Entry::new("DropoutF", |io| {
    let (x, m) = (io.src.get(0), mask(&io.st));
    par_apply(io.out[0], Mode::Store, |i| x[i] * m[i]);
})
.grad(|g, n, u| g.contrib(&DROPOUT_G, &[up(u)], &n.src, Attr::None, n.st))
.role(Role::Mask);

/// The dropout mask of an [`Io::st`].
fn mask<'a>(st: &'a Option<&mut State>) -> &'a [f32] {
    st.as_deref().and_then(|s| s.mask.as_ref()).expect("dropout without its mask").as_slice()
}

// ------------------------------------------------------------- gradients

/// `Scalar`: `out (+)= up · c`; `c = 1` is the plain gradient copy.
pub(crate) static SCALE_G: Entry = Entry::new("ScaleG", |io| {
    let (Attr::Scalar(c), u) = (*io.a, io.src.get(0)) else { unreachable!() };
    par_apply(io.out[0], io.mode[0], |i| u[i] * c);
});

static MUL_G: Entry = Entry::new("MulG", |io| ew_grad(io, |u, o| u * o));

static SIGMOID_G: Entry = Entry::new("SigmoidG", |io| ew_grad(io, |u, y| (y * (1.0 - y)) * u));

static TANH_G: Entry = Entry::new("TanhG", |io| ew_grad(io, |u, y| (1.0 - y * y) * u));

static RELU_G: Entry =
    Entry::new("ReluG", |io| ew_grad(io, |u, x| (if x > 0.0 { 1.0 } else { 0.0 }) * u));

static DROPOUT_G: Entry = Entry::new("DropoutG", |io| {
    let (u, m) = (io.src.get(0), mask(&io.st));
    par_apply(io.out[0], io.mode[0], |i| u[i] * m[i]);
});

/// Column sums of `up [rows, cols]` in f64 → `out [cols]`: the bias gradient.
pub(crate) static COL_SUM_G: Entry = Entry::new("ColSumG", |io| {
    let (u, cols) = (io.src.get(0), io.out[0].len());
    let acc = &mut io.acc[..cols];
    col_sums_into(u, u.len() / cols.max(1), cols, acc);
    apply(io.out[0], io.mode[0], |j| acc[j] as f32);
})
.detour(Detour::F64);

static ROW_SCALE_DX: Entry = Entry::new("RowScaleDx", |io| {
    opk::row_scale(io.out[0], io.mode[0], io.src.get(0), io.src.get(1));
});

static ROW_SCALE_DS: Entry = Entry::new("RowScaleDs", |io| {
    let (u, x) = (io.src.get(0), io.src.get(1));
    let cols = u.len() / io.out[0].len().max(1);
    opk::row_scale_ds(io.out[0], io.mode[0], u, x, cols);
});

/// `Cols`: the `[rows, ·]` column block of `up` starting at `off`.
static COLS_BLOCK_G: Entry = Entry::new("ColsBlockG", |io| {
    let Attr::Cols { rows, off } = *io.a else { unreachable!() };
    opk::cols_block(io.out[0], io.mode[0], io.src.get(0), rows, off);
});

/// `Cols`: `up` scattered into columns `off..` of the wider gradient; its
/// other columns receive the dense gradient's literal zeros.
static COLS_SCATTER_G: Entry = Entry::new("ColsScatterG", |io| {
    let (Attr::Cols { rows, off: start }, u) = (*io.a, io.src.get(0)) else { unreachable!() };
    let (cols, end) = (io.out[0].len() / rows, start + u.len() / rows);
    opk::cols_scatter(io.out[0], io.mode[0], u, cols, start, end);
});

/// `Block`: the block of `up` from `src_off` into the gradient from
/// `dst_off`, as much as fits; the rest of the gradient receives zeros.
static BLOCK_G: Entry = Entry::new("BlockG", |io| {
    let (Attr::Block { src_off, dst_off }, u) = (*io.a, io.src.get(0)) else { unreachable!() };
    let len = (u.len() - src_off).min(io.out[0].len() - dst_off);
    opk::block(io.out[0], io.mode[0], &u[src_off..src_off + len], dst_off, true);
});

/// `Sum`: every element receives `up`, or `up / n`.
static SUM_ALL_G: Entry = Entry::new("SumAllG", |io| {
    let (Attr::Sum { mean }, u) = (*io.a, io.src.get(0)[0]) else { unreachable!() };
    let g = if mean { u / io.out[0].len() as f32 } else { u };
    apply(io.out[0], io.mode[0], |_| g);
});

impl Graph {
    fn binary(&mut self, k: &'static Entry, a: Var, b: Var, what: &str) -> Var {
        let s = self.shape(a);
        assert_eq!(s, self.shape(b), "{what} shape mismatch");
        self.record(k, &[a, b], &[&s], Attr::None, None)
    }

    fn unary(&mut self, k: &'static Entry, a: Var, at: Attr) -> Var {
        let shape = self.shape(a);
        self.record(k, &[a], &[&shape], at, None)
    }

    // ------------------------------------------------------------ arithmetic

    /// Elementwise sum of two same-shaped variables.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        self.binary(&EW_ADD, a, b, "add")
    }

    /// Elementwise difference of two same-shaped variables.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        self.binary(&EW_SUB, a, b, "sub")
    }

    /// Hadamard product of two same-shaped variables.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        self.binary(&EW_MUL, a, b, "mul")
    }

    /// `x [m,n] + bias [n]`, broadcast over rows.
    pub fn add_bias(&mut self, x: Var, bias: Var) -> Var {
        let s = self.shape(x);
        assert_eq!(s.len(), 2, "add_bias x must be 2-D");
        assert_eq!(self.shape(bias), [s[1]], "bias must be [cols] of x");
        self.record(&ADD_BIAS, &[x, bias], &[&s], Attr::None, None)
    }

    /// Scales each row of `x [m,n]` by the scalar in `s [m,1]`.
    pub fn row_scale(&mut self, x: Var, s: Var) -> Var {
        let shape = self.shape(x);
        assert_eq!(self.shape(s), [shape[0], 1], "row_scale scale must be [m,1]");
        self.record(&ROW_SCALE, &[x, s], &[&shape], Attr::None, None)
    }

    /// Matrix product of 2-D variables.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let (sa, sb) = (self.shape(a), self.shape(b));
        assert_eq!(sa.len(), 2, "matmul lhs must be 2-D, got {sa:?}");
        assert_eq!(sb.len(), 2, "matmul rhs must be 2-D, got {sb:?}");
        assert_eq!(sa[1], sb[0], "matmul inner dims: {sa:?} @ {sb:?}");
        let a_ = Attr::Gemm(Gemm { ta: false, tb: false, m: sa[0], k: sa[1], n: sb[1] });
        self.record(&GEMM, &[a, b], &[&[sa[0], sb[1]]], a_, None)
    }

    /// Multiplies by a constant.
    pub fn scale(&mut self, a: Var, c: f32) -> Var {
        self.unary(&SCALE, a, Attr::Scalar(c))
    }

    /// Adds a constant.
    pub fn add_scalar(&mut self, a: Var, c: f32) -> Var {
        self.unary(&ADD_SCALAR, a, Attr::Scalar(c))
    }

    // ----------------------------------------------------------- activations

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        self.unary(&SIGMOID, a, Attr::None)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        self.unary(&TANH, a, Attr::None)
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        self.unary(&RELU, a, Attr::None)
    }

    // ----------------------------------------------------------------- shape

    /// Reinterprets under a new shape.
    pub fn reshape(&mut self, a: Var, dims: &[usize]) -> Var {
        let n = self.numel(a);
        assert_eq!(n, dims.iter().product::<usize>(), "cannot reshape {n} elements to {dims:?}");
        self.record(&COPY_BLOCK, &[a], &[dims], Attr::Block { src_off: 0, dst_off: 0 }, None)
    }

    /// Concatenates 2-D variables along columns.
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_cols of nothing");
        let rows = self.shape(parts[0])[0];
        let mut total = 0;
        for &p in parts {
            let s = self.shape(p);
            assert!(s.len() == 2 && s[0] == rows, "concat_cols expects 2-D parts of {rows} rows");
            total += s[1];
        }
        self.record(&CONCAT_COLS, parts, &[&[rows, total]], Attr::Cols { rows, off: 0 }, None)
    }

    /// Extracts columns `[start, end)` of a 2-D variable.
    pub fn slice_cols(&mut self, a: Var, start: usize, end: usize) -> Var {
        let s = self.shape(a);
        assert!(s.len() == 2 && start < end && end <= s[1], "column slice {start}..{end} of {s:?}");
        let a_ = Attr::Cols { rows: s[0], off: start };
        self.record(&SLICE_COLS, &[a], &[&[s[0], end - start]], a_, None)
    }

    /// Concatenates 2-D variables along rows (equal column counts). The
    /// hoisted LSTM path packs T per-step `[B, n]` inputs into one
    /// `[T·B, n]` block with this.
    pub fn concat_rows(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_rows of nothing");
        let cols = self.shape(parts[0])[1];
        let mut rows = 0;
        for &p in parts {
            let s = self.shape(p);
            assert_eq!(s.len(), 2, "concat_rows expects 2-D parts");
            assert_eq!(s[1], cols, "concat_rows column mismatch");
            rows += s[0];
        }
        let a_ = Attr::Block { src_off: 0, dst_off: 0 };
        self.record(&COPY_BLOCK, parts, &[&[rows, cols]], a_, None)
    }

    /// Extracts rows `[start, end)` of a 2-D variable (e.g. the `W_x` or
    /// `W_h` half of the fused `[(in+hid), 4H]` LSTM kernel).
    pub fn slice_rows(&mut self, a: Var, start: usize, end: usize) -> Var {
        let s = self.shape(a);
        assert!(s.len() == 2 && start <= end && end <= s[0], "row slice {start}..{end} of {s:?}");
        let a_ = Attr::Block { src_off: start * s[1], dst_off: 0 };
        self.record(&COPY_BLOCK, &[a], &[&[end - start, s[1]]], a_, None)
    }

    // ------------------------------------------------------------ reductions

    /// Sum of all elements → scalar.
    pub fn sum_all(&mut self, a: Var) -> Var {
        self.record(&SUM_ALL, &[a], &[&[1]], Attr::Sum { mean: false }, None)
    }

    /// Mean of all elements → scalar.
    pub fn mean_all(&mut self, a: Var) -> Var {
        self.record(&SUM_ALL, &[a], &[&[1]], Attr::Sum { mean: true }, None)
    }

    // --------------------------------------------------------- regularisation

    /// Inverted dropout with keep probability `keep`: multiplies by a
    /// pre-sampled mask of `{0, 1/keep}` entries supplied by the caller
    /// (layers sample it from their RNG so the tape stays deterministic).
    pub fn dropout(&mut self, a: Var, mask: Tensor) -> Var {
        let s = self.shape(a);
        assert_eq!(s, mask.shape(), "dropout mask shape mismatch");
        let st = State { mask: Some(mask), ..State::default() };
        self.record(&DROPOUT, &[a], &[&s], Attr::None, Some(st))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::grad_check;

    #[test]
    fn add_sub_mul_grads() {
        grad_check(
            &[
                Tensor::from_vec(vec![1., -2., 3.], &[3]),
                Tensor::from_vec(vec![0.5, 2., -1.], &[3]),
            ],
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
        grad_check(
            &[Tensor::from_vec((0..8).map(|i| i as f32 * 0.25).collect(), &[2, 4])],
            |g, vs| {
                let r = g.reshape(vs[0], &[4, 2]);
                let s = g.scale(r, 3.0);
                let a = g.add_scalar(s, -1.0);
                g.mean_all(a)
            },
        );
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
