//! A shape served once holds no arena (DESIGN.md §12). A miss replays the
//! plans it gives its row groups and keeps none of them, so the shape's
//! first hit captures its plans again and takes their arenas from the
//! buffer pool. An engine whose miss kept the plans it replayed, arenas and
//! all, would serve that hit from them and take no buffer.
//!
//! The pool counters are process-wide, so this file holds this one test:
//! no other test shares its process, and every run it counts is the
//! engine's own.

use legw_models::{Seq2Seq, Seq2SeqConfig};
use legw_nn::ParamSet;
use legw_parallel::{with_pool, ThreadPool};
use legw_serve::InferEngine;
use legw_tensor::pool::{stats, PoolStats};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

#[test]
fn a_shape_served_once_holds_no_arena() {
    let cfg = Seq2SeqConfig { vocab: 23, embed: 32, hidden: 32, attn: 24, max_decode: 8 };
    // 64 ragged sources of 3 to 5 tokens, the benchmark's offline batch.
    let reqs: Vec<Vec<usize>> =
        (0..64).map(|i| (0..3 + i % 3).map(|t| 3 + (7 * i + t) % 20).collect()).collect();
    let states = vec![(); reqs.len()];
    for lanes in [1, 2, 3] {
        with_pool(&Arc::new(ThreadPool::new(lanes)), || {
            let mut ps = ParamSet::new();
            let mut rng = StdRng::seed_from_u64(23);
            let engine = InferEngine::new(Seq2Seq::new(&mut ps, &mut rng, cfg), ps);
            let taken = |delta: PoolStats| delta.allocations + delta.recycles;
            let run = || {
                let before = stats();
                let _out = engine.run(&reqs, &states);
                stats().since(&before)
            };
            let miss = run();
            assert!(taken(miss) > 0, "{lanes} lanes: the miss replayed on no arena");
            let first_hit = run();
            assert!(
                taken(first_hit) > 0,
                "{lanes} lanes: the first hit took no buffer, so the miss kept an arena"
            );
            for hit in 0..3 {
                assert_eq!(taken(run()), 0, "{lanes} lanes: hit {hit} past the first took buffers");
            }
            assert_eq!(engine.cached_plans(), 1);
        });
    }
}
