//! Probing the loss landscape: the local Lipschitz constant along the
//! gradient (the paper's §4 explanation of why warmup must lengthen with
//! batch size).
//!
//! ```text
//! cargo run --release --example lipschitz_probe
//! ```
//!
//! Trains the MNIST-LSTM at two batch sizes while estimating
//! `L(x,g) = |gᵀHg|/‖g‖²` by finite-difference Hessian-vector products, and
//! prints where each trace peaks. The peak of the larger batch arrives
//! later (in epochs) — the observation LEGW turns into a rule.

use legw_repro::core::lipschitz::{mnist_lipschitz_trace, peak_epoch};
use legw_repro::data::SynthMnist;
use legw_repro::optim::SolverKind;
use legw_repro::schedules::{BaselineSchedule, Legw};

fn main() {
    let data = SynthMnist::generate(3, 1024, 128);
    let base = BaselineSchedule::constant(32, 0.05, 0.0, 3.0);

    for &batch in &[32usize, 128] {
        let sched = Legw::scale_to(&base, batch);
        let trace = mnist_lipschitz_trace(
            &data,
            16,
            16,
            &sched,
            SolverKind::Sgd,
            1,
            (1024 / batch / 12).max(1),
            96,
        );
        println!("batch {batch}: {} probes", trace.len());
        for s in trace.iter().take(6) {
            println!("  iter {:>4} (epoch {:.2}): L = {:.4}", s.iteration, s.epoch, s.value);
        }
        println!("  … peak at epoch {:.3}\n", peak_epoch(&trace).unwrap_or(f64::NAN));
    }
    println!("The larger batch peaks later in epoch terms — hence *linear-epoch* warmup.");
}
