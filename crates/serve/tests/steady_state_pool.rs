//! Serving a batch shape it has seen, a seq2seq engine replays its encoder
//! plan and its decoder-step plan and builds no tape: the run takes no
//! buffer from the pool, fresh or recycled.
//!
//! The pool counters are process-wide, so this file holds this one test:
//! no other test shares its process, and every run it counts is the
//! engine's own.

use legw_models::{Seq2Seq, Seq2SeqConfig};
use legw_nn::ParamSet;
use legw_serve::InferEngine;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn seq2seq_steady_state_run_touches_no_pool_buffer() {
    let mut ps = ParamSet::new();
    let mut rng = StdRng::seed_from_u64(23);
    let cfg = Seq2SeqConfig { vocab: 23, embed: 32, hidden: 32, attn: 24, max_decode: 8 };
    let engine = InferEngine::new(Seq2Seq::new(&mut ps, &mut rng, cfg), ps);
    // 64 ragged sources of 3 to 5 tokens, the benchmark's offline batch.
    let reqs: Vec<Vec<usize>> =
        (0..64).map(|i| (0..3 + i % 3).map(|t| 3 + (7 * i + t) % 20).collect()).collect();
    let states = vec![(); reqs.len()];
    engine.run(&reqs, &states); // the capture
    engine.run(&reqs, &states); // the first replay
    for run in 0..20 {
        let before = legw_tensor::pool::stats();
        let out = engine.run(&reqs, &states);
        let delta = legw_tensor::pool::stats().since(&before);
        drop(out);
        assert_eq!(
            (delta.allocations, delta.recycles),
            (0, 0),
            "steady-state run {run} took buffers from the pool"
        );
    }
    assert_eq!(engine.cached_plans(), 1);
}
