//! Dynamic-batcher behaviour under concurrent clients: answers match the
//! single-row serial path, concurrent load actually coalesces (mean
//! executed batch > 1), a lone request is released at its deadline, and
//! per-session recurrent state survives interleaved batched execution.

use legw_models::{Infer, MnistLstm, PtbLm, PtbLmConfig};
use legw_nn::ParamSet;
use legw_serve::{BatchConfig, InferEngine, Server};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

fn mnist_engine() -> Arc<InferEngine<MnistLstm>> {
    let mut ps = ParamSet::new();
    let mut rng = StdRng::seed_from_u64(23);
    let model = MnistLstm::new(&mut ps, &mut rng, 16, 16);
    Arc::new(InferEngine::new(model, ps))
}

fn mnist_req(i: usize) -> Vec<f32> {
    (0..784).map(|p| ((i * 31 + p * 7) % 29) as f32 / 29.0).collect()
}

#[test]
fn concurrent_clients_coalesce_and_match_serial() {
    const CLIENTS: usize = 8;
    const ROUNDS: usize = 4;
    let engine = mnist_engine();
    let server = Server::start(
        Arc::clone(&engine),
        BatchConfig { max_batch: CLIENTS, max_wait: Duration::from_millis(50) },
    );

    // Serial oracle: every request through the same engine, one row at a
    // time (identical math — the batched GEMM is row-independent, and the
    // per-shape plan cache keys B=1 and B=k separately).
    let expected: Vec<Vec<Vec<f32>>> = (0..CLIENTS)
        .map(|c| (0..ROUNDS).map(|r| engine.run_one(mnist_req(c * ROUNDS + r), ()).0).collect())
        .collect();

    // A barrier before every round releases all clients at once, so each
    // round's eight requests land in the queue together.
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let mut session = server.session();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut outs = Vec::with_capacity(ROUNDS);
                for r in 0..ROUNDS {
                    barrier.wait();
                    outs.push(session.query(mnist_req(c * ROUNDS + r)));
                }
                (c, outs)
            })
        })
        .collect();
    for h in handles {
        let (c, outs) = h.join().expect("client thread");
        for (r, out) in outs.iter().enumerate() {
            let want = &expected[c][r];
            assert_eq!(out.len(), want.len());
            for (a, b) in out.iter().zip(want) {
                assert!(
                    (a - b).abs() <= 1e-5 * (1.0 + b.abs()),
                    "client {c} round {r}: batched {a} vs serial {b}"
                );
            }
        }
    }

    let stats = server.shutdown();
    assert_eq!(stats.requests, (CLIENTS * ROUNDS) as u64);
    assert!(
        stats.mean_batch() > 1.0,
        "8 synchronised clients must coalesce, got mean batch {:.2} over {} batches",
        stats.mean_batch(),
        stats.batches
    );
    assert!(
        stats.max_queue_wait < Duration::from_secs(5),
        "queue wait blew past any plausible deadline: {:?}",
        stats.max_queue_wait
    );
}

#[test]
fn lone_request_released_at_deadline() {
    let engine = mnist_engine();
    let server = Server::start(
        Arc::clone(&engine),
        BatchConfig { max_batch: 64, max_wait: Duration::from_millis(20) },
    );
    let mut session = server.session();
    let start = Instant::now();
    let out = session.query(mnist_req(0));
    let elapsed = start.elapsed();
    assert_eq!(out.len(), 10);
    // Must not wait for a full batch that will never arrive. Generous upper
    // bound: deadline + capture cost + scheduling noise.
    assert!(elapsed < Duration::from_secs(5), "single request stalled: {elapsed:?}");
    drop(session);
    let stats = server.shutdown();
    assert_eq!(stats.batches, 1);
    assert_eq!(stats.largest_batch, 1);
}

#[test]
fn ptb_sessions_carry_state_through_batched_execution() {
    const CLIENTS: usize = 4;
    const WINDOWS: usize = 3;
    let mut ps = ParamSet::new();
    let mut rng = StdRng::seed_from_u64(29);
    let cfg = PtbLmConfig { vocab: 30, embed: 12, hidden: 12, layers: 2, keep: 1.0 };
    let model = PtbLm::new(&mut ps, &mut rng, cfg);
    let engine = Arc::new(InferEngine::new(model, ps));

    let req = |c: usize, w: usize| -> Vec<usize> {
        (0..4).map(|t| (c * 11 + w * 5 + t * 3) % 30).collect()
    };

    // Serial oracle: each client's windows chained through its own state,
    // one row at a time.
    let expected: Vec<Vec<Vec<f32>>> = (0..CLIENTS)
        .map(|c| {
            let mut state = engine.model().zero_state();
            (0..WINDOWS)
                .map(|w| {
                    let (out, next) = engine.run_one(req(c, w), state.clone());
                    state = next;
                    out
                })
                .collect()
        })
        .collect();

    let server = Server::start(
        Arc::clone(&engine),
        BatchConfig { max_batch: CLIENTS, max_wait: Duration::from_millis(50) },
    );
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let mut session = server.session();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut outs = Vec::with_capacity(WINDOWS);
                for w in 0..WINDOWS {
                    barrier.wait();
                    outs.push(session.query(req(c, w)));
                }
                (c, outs)
            })
        })
        .collect();
    for h in handles {
        let (c, outs) = h.join().expect("client thread");
        for (w, out) in outs.iter().enumerate() {
            let want = &expected[c][w];
            for (a, b) in out.iter().zip(want) {
                assert!(
                    (a - b).abs() <= 1e-5 * (1.0 + b.abs()),
                    "client {c} window {w}: batched {a} vs serial {b} — \
                     carried state was lost or crossed sessions"
                );
            }
        }
    }
    let stats = server.shutdown();
    assert_eq!(stats.requests, (CLIENTS * WINDOWS) as u64);
    assert!(
        stats.mean_batch() > 1.0,
        "equal-length LM windows must coalesce, got mean batch {:.2}",
        stats.mean_batch()
    );
}
