//! A kept plan keeps its arena (DESIGN.md §6): on the one-shard executor,
//! every eval call after the first takes from the buffer pool only the
//! tensors its chunks are given and return, never an arena. Between calls
//! the test holds every buffer on the calling thread's free list, so an
//! executor that lent its plans' arenas back to the pool after a call would
//! have to take them again, and from the allocator.
//!
//! The pool counters are process-wide, so this file holds this one test:
//! no other test shares its process, and every buffer it counts is the
//! sweep's own.

use legw::{ExecConfig, Executor};
use legw_data::SynthMnist;
use legw_models::MnistLstm;
use legw_nn::ParamSet;
use legw_parallel::{split_evenly, with_pool, ThreadPool};
use legw_tensor::pool::stats;
use legw_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Takes every buffer this thread's free list holds, rung by power-of-two
/// rung (each pooled capacity fits one), until a take misses.
fn hold_free_buffers() -> Vec<Tensor> {
    let mut held = Vec::new();
    for rung in 10..=24 {
        loop {
            let before = stats().recycles;
            held.push(Tensor::zeros(&[1 << rung]));
            if stats().recycles == before {
                break;
            }
        }
    }
    held
}

#[test]
fn an_eval_call_after_the_first_takes_no_arena() {
    let mut rng = StdRng::seed_from_u64(5);
    let mut ps = ParamSet::new();
    let model = MnistLstm::new(&mut ps, &mut rng, 32, 32);
    // 40 rows in chunks of 16: two chunk shapes, so two sets of kept plans.
    let (data, chunk) = (SynthMnist::generate(3, 8, 40).test, 16);
    for lanes in [1, 2, 3] {
        with_pool(&Arc::new(ThreadPool::new(lanes)), || {
            let exec = Executor::new(ExecConfig::default());
            let first = exec.eval_mnist(&model, &ps, &data, chunk);
            // A replay is given four tensors per row group (its rows, their
            // packed time steps, the zero h and c), and each chunk's logits
            // are gathered into one.
            let chunks: Vec<usize> =
                (0..data.len()).step_by(chunk).map(|s| chunk.min(data.len() - s)).collect();
            let groups: usize = chunks.iter().map(|&c| split_evenly(c, lanes).len()).sum();
            let inputs = 4 * groups + chunks.len();
            for call in 1..4 {
                let _held = hold_free_buffers();
                let before = stats();
                let acc = exec.eval_mnist(&model, &ps, &data, chunk);
                let delta = stats().since(&before);
                assert_eq!(acc.to_bits(), first.to_bits(), "{lanes} lanes, call {call}");
                let taken = delta.allocations + delta.recycles;
                assert!(taken <= inputs, "{lanes} lanes, call {call}: {taken} buffers > {inputs}");
            }
        });
    }
}
