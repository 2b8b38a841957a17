//! # legw-autograd
//!
//! Reverse-mode automatic differentiation over [`legw_tensor::Tensor`].
//!
//! A [`Graph`] is a *tape*: each operation of a forward pass is a node
//! holding its output value, the kernel that computed it and its operands.
//! [`Graph::backward`] walks the tape in reverse and appends the gradient
//! computation to it as ordinary kernel nodes, so forward and backward are
//! one graph — which a [`Plan`] compiles into a replayable program.
//!
//! Variables are lightweight [`Var`] indices into the tape; parameters are
//! leaves created with [`Graph::param`] and are the only leaves that receive
//! gradients by default ([`Graph::input`] leaves do not).
//!
//! The op set is exactly what the LEGW paper's models need — LSTMs
//! (concat/slice/σ/tanh/hadamard), language-model heads (embedding, softmax
//! cross-entropy with optional ignore-index masking), attention (row softmax,
//! row scaling), and CNNs (conv2d on the GEMM engine, max/avg pooling, batch norm).
//!
//! Every op's backward rule is validated against central finite differences
//! in the test suite via [`check::grad_check`].
//!
//! ```
//! use legw_autograd::Graph;
//! use legw_tensor::Tensor;
//!
//! let mut g = Graph::new();
//! let x = g.input(Tensor::from_vec(vec![1.0, 2.0], &[1, 2]));
//! let w = g.param(Tensor::from_vec(vec![0.5, -0.5], &[2, 1]));
//! let y = g.matmul(x, w);          // y = 1*0.5 + 2*(-0.5) = -0.5
//! let loss = g.mean_all(y);
//! g.backward(loss);
//! let gw = g.grad(w).unwrap();
//! assert_eq!(gw.as_slice(), &[1.0, 2.0]); // dL/dw = x
//! ```

pub mod check;
mod graph;
mod opk;
mod ops_basic;
mod ops_conv;
mod ops_loss;
mod ops_lstm;
mod plan;
mod table;

pub use graph::{Graph, Var, IGNORE_INDEX};
pub use plan::{CaptureSpec, Feeds, Plan, PlanStats};

#[cfg(test)]
mod lib_tests {
    use super::*;
    use legw_tensor::Tensor;

    #[test]
    fn doc_example() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_vec(vec![1.0, 2.0], &[1, 2]));
        let w = g.param(Tensor::from_vec(vec![0.5, -0.5], &[2, 1]));
        let y = g.matmul(x, w);
        let loss = g.mean_all(y);
        g.backward(loss);
        assert_eq!(g.grad(w).unwrap().as_slice(), &[1.0, 2.0]);
    }
}
