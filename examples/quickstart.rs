//! Quickstart: tune once, scale the batch with LEGW, never re-tune.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Trains the paper's MNIST-LSTM application (on the synthetic MNIST
//! substitute) at its baseline batch size and at 4× the batch with the
//! LEGW-derived schedule: learning rate × √4, warmup epochs × 4.

use legw_repro::core::trainer::train_mnist;
use legw_repro::data::SynthMnist;
use legw_repro::optim::SolverKind;
use legw_repro::schedules::{BaselineSchedule, Legw};

fn main() {
    // A small instance so the example finishes in seconds.
    let data = SynthMnist::generate(7, 2048, 512);

    // The only tuning you ever do: a baseline at a comfortable batch size.
    let baseline = BaselineSchedule::constant(
        32,     // batch size
        0.2,    // peak learning rate
        0.0625, // warmup epochs
        5.0,    // total epochs
    );

    println!(
        "baseline: batch {}, lr {}, warmup {} epochs",
        baseline.batch_size(),
        baseline.peak_lr(),
        baseline.warmup_epochs()
    );
    let rep = train_mnist(&data, 32, 32, &baseline, SolverKind::Momentum, 42);
    println!("  → test accuracy {:.4}\n", rep.final_metric);

    // Scale up 4× with LEGW — no new hyper-parameters.
    let scaled = Legw::scale_to(&baseline, 128);
    println!(
        "LEGW @ 4x: batch {}, lr {:.4} (×√4), warmup {:.4} epochs (×4)",
        scaled.batch_size(),
        scaled.peak_lr(),
        scaled.warmup_epochs()
    );
    let rep = train_mnist(&data, 32, 32, &scaled, SolverKind::Momentum, 42);
    println!("  → test accuracy {:.4}", rep.final_metric);
    println!("\nSame accuracy, quarter the optimizer steps — that is the paper's result.");
}
