//! CNN large-batch training with LARS + LEGW (the paper's §6 pipeline).
//!
//! ```text
//! cargo run --release --example imagenet_lars
//! ```
//!
//! Trains the ResNet-8 stand-in on procedural texture classes with the LARS
//! optimizer, scaling the batch with LEGW, and prints a miniature Table 3.

use legw_repro::core::trainer::train_resnet;
use legw_repro::data::SynthImageNet;
use legw_repro::optim::SolverKind;
use legw_repro::schedules::{BaselineSchedule, Legw};

fn main() {
    let data = SynthImageNet::generate_sized(5, 6, 384, 96, 16);
    // poly-decay (p=2) baseline, as in Figure 2.2 / PTB-large
    let baseline = BaselineSchedule::poly(16, 4.0, 0.125, 4.0, 2.0);

    println!(
        "{:>6}  {:>10}  {:>12}  {:>8}  {:>8}",
        "batch", "init LR", "warmup (ep)", "top-1", "top-3"
    );
    for k in [1usize, 2, 4] {
        let batch = 16 * k;
        let sched = Legw::scale_to(&baseline, batch);
        let rep = train_resnet(&data, 6, 3, &sched, SolverKind::Lars, 1e-4, 9);
        println!(
            "{batch:>6}  {:>10.4}  {:>12.4}  {:>8.4}  {:>8.4}",
            sched.peak_lr(),
            sched.warmup_epochs(),
            rep.final_metric,
            rep.secondary_metric.unwrap_or(0.0),
        );
    }
    println!("\nLEGW derives every row from the first — compare the paper's Table 3,");
    println!(
        "where batch 1K→32K keeps ~93% top-5 with LR 2^2.5→2^5.0 and warmup 0.3125→10 epochs."
    );
}
