//! Property-based check of plan replay: a random elementwise chain is
//! captured on one set of values, replayed on another, and must reproduce —
//! loss and gradient, bit for bit — the tape rebuilt on the replay data.
//!
//! The chain vocabulary deliberately includes `relu`, whose backward reads
//! the op's *input*, giving that intermediate a second reader with a longer
//! live range than its neighbours in the arena.

use legw_autograd::{CaptureSpec, Feeds, Graph, Plan, Var};
use legw_propcheck::prelude::*;
use legw_tensor::Tensor;

#[derive(Clone, Copy, Debug)]
enum ChainOp {
    Tanh,
    Sigmoid,
    Relu,
    Scale,
    AddScalar,
}

fn apply(op: ChainOp, g: &mut Graph, cur: Var) -> Var {
    match op {
        ChainOp::Tanh => g.tanh(cur),
        ChainOp::Sigmoid => g.sigmoid(cur),
        ChainOp::Relu => g.relu(cur),
        ChainOp::Scale => g.scale(cur, 0.7),
        ChainOp::AddScalar => g.add_scalar(cur, -0.3),
    }
}

fn op_strategy() -> impl Strategy<Value = ChainOp> {
    prop_oneof![
        Just(ChainOp::Tanh),
        Just(ChainOp::Sigmoid),
        Just(ChainOp::Relu),
        Just(ChainOp::Scale),
        Just(ChainOp::AddScalar),
    ]
}

fn gen(seed: u64, salt: u64, n: usize) -> Vec<f32> {
    let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(salt);
    (0..n)
        .map(|_| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as f32 / (1u64 << 31) as f32) - 1.0
        })
        .collect()
}

/// Builds `sum_all(add_scalar(scale(chain(x * w))))` — the tape under test.
fn build(x: &Tensor, w: &Tensor, ops: &[ChainOp]) -> (Graph, Var, Var, Var) {
    let mut g = Graph::new();
    let xv = g.input(x.clone());
    let wv = g.param(w.clone());
    let mut cur = g.mul(xv, wv);
    for &op in ops {
        cur = apply(op, &mut g, cur);
    }
    let sc = g.scale(cur, 0.5);
    let tail = g.add_scalar(sc, 0.25);
    let loss = g.sum_all(tail);
    (g, xv, wv, loss)
}

proptest! {
    #[test]
    fn random_chains_replay_bitwise_against_the_tape(
        ops in legw_propcheck::collection::vec(op_strategy(), 2..6),
        rows in 1usize..5,
        cols in 1usize..6,
        seed in 0u64..10_000,
    ) {
        let n = rows * cols;
        let x0 = Tensor::from_vec(gen(seed, 1, n), &[rows, cols]);
        let w0 = Tensor::from_vec(gen(seed, 2, n), &[rows, cols]);
        let (mut g, xv, wv, loss) = build(&x0, &w0, &ops);
        g.backward(loss);
        let spec = CaptureSpec { inputs: &[xv], params: &[wv], loss: Some(loss), outputs: &[] };
        let mut plan = Plan::capture(&g, &spec);

        // Replay on fresh data; the oracle is the tape rebuilt on that data.
        let x1 = Tensor::from_vec(gen(seed, 3, n), &[rows, cols]);
        let w1 = Tensor::from_vec(gen(seed, 4, n), &[rows, cols]);
        plan.replay_step(&[&x1], &[&w1], &Feeds::default());
        let (mut tape, _, tw, tloss) = build(&x1, &w1, &ops);
        tape.backward(tloss);
        prop_assert_eq!(plan.loss().to_bits(), tape.value(tloss).as_slice()[0].to_bits());
        let gp = plan.param_grad(0).expect("plan grad");
        let gt = tape.grad(tw).expect("tape grad");
        prop_assert_eq!(gp.as_slice().len(), gt.as_slice().len());
        for (a, b) in gp.as_slice().iter().zip(gt.as_slice()) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "grad diverged: {} vs {} for {:?}", a, b, ops);
        }
    }
}
