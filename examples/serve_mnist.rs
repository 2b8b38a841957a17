//! Serving quickstart: train → freeze → restore → batched tape-free serving.
//!
//! ```text
//! cargo run --release --example serve_mnist
//! ```
//!
//! Trains the MNIST-LSTM through the library's one training loop
//! ([`train`] over [`MnistWorkload`] — the loop borrows the model and the
//! parameters, so both are still the caller's when it returns), freezes the
//! trained parameters into a versioned artifact (checkpoint v2 +
//! model-config header), restores the artifact into an [`InferEngine`] that
//! knows nothing about the training code path, and serves it two ways:
//!
//! 1. directly, through a stateless [`InferEngine::run_one`] loop, and
//! 2. behind a dynamic-batching [`Server`] with several concurrent client
//!    threads, whose single-row queries are coalesced into batched forwards
//!    under a max-latency deadline.
//!
//! Exits non-zero unless the restored engine classifies at least 12 of its
//! 16 held-out rows correctly and every batched answer equals the direct
//! one — `scripts/check.sh` runs it as the end-to-end check of
//! train → freeze → restore → serve.

use legw_repro::core::trainer::{train, MnistWorkload};
use legw_repro::core::{ExecConfig, Executor};
use legw_repro::data::SynthMnist;
use legw_repro::models::MnistLstm;
use legw_repro::nn::ParamSet;
use legw_repro::optim::{build, SolverKind};
use legw_repro::schedules::BaselineSchedule;
use legw_repro::serve::{freeze, restore, BatchConfig, FrozenModel, InferEngine, ModelConfig, Server};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

const PROJ: usize = 32;
const HIDDEN: usize = 32;

fn argmax(logits: &[f32]) -> usize {
    logits.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).map(|(i, _)| i).unwrap()
}

fn main() {
    // --- Train -----------------------------------------------------------
    let data = SynthMnist::generate(7, 1024, 256);
    let mut rng = StdRng::seed_from_u64(42);
    let mut ps = ParamSet::new();
    let model = MnistLstm::new(&mut ps, &mut rng, PROJ, HIDDEN);
    let mut opt = build(SolverKind::Momentum, 0.0);
    let schedule = BaselineSchedule::constant(32, 0.2, 0.0625, 6.0);
    // The executor is the caller's too: serial here; `with_shards(n)`
    // would shard every batch over n workers.
    let exec = Executor::new(ExecConfig::default());
    let mut workload = MnistWorkload { model: &model, data: &data };
    let report =
        train(&mut workload, &mut ps, opt.as_mut(), &schedule, &mut rng, &exec, |_, _| {});
    for ((epoch, acc), loss) in report.history.iter().zip(&report.epoch_losses) {
        println!("epoch {epoch:.0}: mean loss {loss:.4}, test accuracy {acc:.4}");
    }

    // --- Freeze ----------------------------------------------------------
    // The artifact is self-describing: checkpoint v2 payload (dtype-tagged,
    // CRC-protected) plus a config header naming the model family and its
    // hyper-parameters, so `restore` needs no out-of-band information.
    let blob = freeze(&ModelConfig::MnistLstm { proj: PROJ, hidden: HIDDEN }, &ps);
    println!("\nfrozen artifact: {} bytes", blob.len());

    // --- Restore ---------------------------------------------------------
    let (frozen, frozen_ps) = restore(&blob).expect("artifact round-trip");
    let FrozenModel::MnistLstm(served) = frozen else {
        panic!("artifact holds a different model family")
    };
    let engine = Arc::new(InferEngine::new(served, frozen_ps));

    // --- Serve directly --------------------------------------------------
    let (eval_batch, eval_labels) = data.test.gather(&(0..16).collect::<Vec<_>>());
    let rows: Vec<Vec<f32>> =
        eval_batch.as_slice().chunks(784).map(|c| c.to_vec()).collect();
    let direct: Vec<usize> =
        rows.iter().map(|row| argmax(&engine.run_one(row.clone(), ()).0)).collect();
    let correct = direct.iter().zip(&eval_labels).filter(|(p, l)| p == l).count();
    println!(
        "direct serving: {}/{} eval rows correct, {} cached forward plan(s)",
        correct,
        rows.len(),
        engine.cached_plans()
    );

    // --- Serve through the dynamic batcher -------------------------------
    const CLIENTS: usize = 4;
    const QUERIES: usize = 8;
    let server = Server::start(
        Arc::clone(&engine),
        BatchConfig { max_batch: 16, max_wait: Duration::from_millis(2) },
    );
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let mut session = server.session();
            let (rows, direct) = (rows.clone(), direct.clone());
            std::thread::spawn(move || {
                (0..QUERIES)
                    .map(|q| (c * QUERIES + q) % rows.len())
                    .filter(|&i| argmax(&session.query(rows[i].clone())) != direct[i])
                    .count()
            })
        })
        .collect();
    let mismatched: usize = handles.into_iter().map(|h| h.join().expect("client thread")).sum();
    let stats = server.shutdown();
    println!(
        "batched serving: {} requests in {} batches (mean batch {:.2}, largest {}), max queue wait {:?}",
        stats.requests,
        stats.batches,
        stats.mean_batch(),
        stats.largest_batch,
        stats.max_queue_wait
    );

    if correct < 12 || mismatched > 0 {
        eprintln!(
            "error: {correct}/16 rows correct (need 12), {mismatched} batched answer(s) \
             differ from the direct one"
        );
        std::process::exit(1);
    }
}
