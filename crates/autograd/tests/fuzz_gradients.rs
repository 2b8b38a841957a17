//! Property-based autodiff fuzzing: build random chains of tape ops and
//! verify every analytic gradient against central finite differences.
//!
//! This is the strongest correctness evidence the crate has — any backward
//! rule that composes wrongly with any other is caught here, not just in
//! the per-op unit tests.

use legw_autograd::check::grad_check_tol;
use legw_autograd::{Graph, Var};
use legw_propcheck::prelude::*;
use legw_tensor::Tensor;

/// The unary/binary op vocabulary the fuzzer draws from. Each entry maps a
/// current variable (and optionally the auxiliary input) to a new variable,
/// keeping the `[rows, cols]` shape.
#[derive(Clone, Copy, Debug)]
enum FuzzOp {
    Tanh,
    Sigmoid,
    Scale,
    AddScalar,
    AddAux,
    MulAux,
    SubAux,
    MatmulSquare, // multiply by a fixed square matrix (needs cols == rows of aux)
    SoftmaxRows,
    SliceAndPad, // slice half the columns then concat with itself
}

fn apply(op: FuzzOp, g: &mut Graph, cur: Var, aux: Var, square: Var) -> Var {
    match op {
        FuzzOp::Tanh => g.tanh(cur),
        FuzzOp::Sigmoid => g.sigmoid(cur),
        FuzzOp::Scale => g.scale(cur, 0.7),
        FuzzOp::AddScalar => g.add_scalar(cur, -0.3),
        FuzzOp::AddAux => g.add(cur, aux),
        FuzzOp::MulAux => g.mul(cur, aux),
        FuzzOp::SubAux => g.sub(cur, aux),
        FuzzOp::MatmulSquare => g.matmul(cur, square),
        FuzzOp::SoftmaxRows => g.softmax_rows(cur),
        FuzzOp::SliceAndPad => {
            let cols = g.value(cur).dim(1);
            let half = g.slice_cols(cur, 0, cols / 2);
            let rest = g.slice_cols(cur, cols / 2, cols);
            g.concat_cols(&[rest, half])
        }
    }
}

fn op_strategy() -> impl Strategy<Value = FuzzOp> {
    prop_oneof![
        Just(FuzzOp::Tanh),
        Just(FuzzOp::Sigmoid),
        Just(FuzzOp::Scale),
        Just(FuzzOp::AddScalar),
        Just(FuzzOp::AddAux),
        Just(FuzzOp::MulAux),
        Just(FuzzOp::SubAux),
        Just(FuzzOp::MatmulSquare),
        Just(FuzzOp::SoftmaxRows),
        Just(FuzzOp::SliceAndPad),
    ]
}

proptest! {
    #[test]
    fn random_op_chains_grad_check(
        ops in legw_propcheck::collection::vec(op_strategy(), 1..6),
        rows in 1usize..4,
        cols_half in 1usize..3,
        seed in 0u64..10_000,
    ) {
        let cols = cols_half * 2; // SliceAndPad needs even width
        // deterministic pseudo-random inputs in a grad-check-friendly range
        let gen = |salt: u64, n: usize| -> Vec<f32> {
            let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(salt);
            (0..n)
                .map(|_| {
                    s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    ((s >> 33) as f32 / (1u64 << 31) as f32) - 1.0
                })
                .collect()
        };
        let x0 = Tensor::from_vec(gen(1, rows * cols), &[rows, cols]);
        let aux0 = Tensor::from_vec(gen(2, rows * cols), &[rows, cols]);
        let sq0 = Tensor::from_vec(gen(3, cols * cols), &[cols, cols]);
        let ops_outer = ops.clone();

        grad_check_tol(&[x0, aux0, sq0], 1e-2, 4e-2, move |g, vs| {
            let mut cur = vs[0];
            for &op in &ops_outer {
                cur = apply(op, g, cur, vs[1], vs[2]);
            }
            // squared mean keeps the loss smooth and O(1)
            let sq = g.mul(cur, cur);
            g.mean_all(sq)
        });
    }
}

#[test]
fn deep_chain_remains_stable() {
    // 12 composed ops; gradients must stay finite and check out
    let x0 = Tensor::from_vec(vec![0.3, -0.5, 0.9, 0.1, -0.2, 0.6], &[3, 2]);
    let a0 = Tensor::from_vec(vec![0.1, 0.7, -0.4, 0.2, 0.5, -0.6], &[3, 2]);
    let s0 = Tensor::from_vec(vec![0.4, -0.3, 0.8, 0.2], &[2, 2]);
    grad_check_tol(&[x0, a0, s0], 1e-2, 4e-2, |g, vs| {
        let mut cur = vs[0];
        for i in 0..12 {
            cur = match i % 4 {
                0 => g.tanh(cur),
                1 => g.matmul(cur, vs[2]),
                2 => g.add(cur, vs[1]),
                _ => g.sigmoid(cur),
            };
        }
        let sq = g.mul(cur, cur);
        g.mean_all(sq)
    });
}

#[test]
fn seeded_backward_scales_gradients_linearly() {
    // backward with seed c must produce exactly c × the unit-seed gradients
    let run = |seed_val: f32| {
        let mut g = Graph::new();
        let w = g.param(Tensor::from_vec(vec![0.4, -0.7], &[2]));
        let t = g.tanh(w);
        let s = g.sum_all(t);
        g.backward_seeded(s, Tensor::scalar(seed_val));
        g.grad(w).unwrap().as_slice().to_vec()
    };
    let unit = run(1.0);
    let tripled = run(3.0);
    for (u, t) in unit.iter().zip(&tripled) {
        assert!((t - 3.0 * u).abs() < 1e-6, "{t} vs 3×{u}");
    }
}
