//! Capacity planning with the cluster performance model: how much wall
//! clock does LEGW's batch headroom actually buy?
//!
//! ```text
//! cargo run --release --example cluster_planning
//! ```
//!
//! Uses the calibrated analytic model (`legw-cluster-sim`) to project
//! time-to-train for the paper's workloads across batch sizes — the
//! arithmetic behind Figure 4 and §7.

use legw_repro::cluster_sim::{presets, scaling};

fn main() {
    println!("Single-TPU time-to-train projections (fixed epoch budgets):\n");
    for (name, job, cluster) in presets::paper_jobs() {
        if name == "imagenet-resnet50" {
            continue; // pod case below
        }
        println!("{name}:");
        let base = presets::paper_batch_ranges().into_iter().find(|(n, _, _)| *n == name);
        let (small, big) = match base {
            Some((_, s, b)) => (s, b),
            None => (256, 4096),
        };
        let mut batch = small;
        while batch <= big {
            let mins = job.time_to_train_secs(&cluster, batch) / 60.0;
            println!("  batch {batch:>6}: {mins:>8.1} min");
            batch *= 4;
        }
        let speedup = job.speedup_same_hardware(&cluster, small, big);
        println!("  speedup {small}→{big}: {speedup:.2}x\n");
    }

    println!("TPU-v2 pod, ImageNet/ResNet-50 (the §7 anecdote):");
    let (_, job, pod) =
        presets::paper_jobs().into_iter().find(|(n, _, _)| *n == "imagenet-resnet50").unwrap();
    for batch in [8192usize, 16384, 32768] {
        let mins = job.time_to_train_secs(&pod, batch) / 60.0;
        println!("  batch {batch:>6}: {mins:>6.1} min");
    }
    println!("\nWeak vs strong scaling on the pod (ImageNet), 1→256 devices:");
    let counts = [1usize, 16, 64, 256];
    let strong = scaling::strong_scaling(&job, &pod, 8192, &counts);
    let weak = scaling::weak_scaling(&job, &pod, 128, &counts);
    println!("  devices   strong eff.   weak eff.");
    for (s, w) in strong.iter().zip(&weak) {
        println!("  {:>7}   {:>10.3}   {:>9.3}", s.devices, s.efficiency, w.efficiency);
    }
    let (knee, t) = scaling::knee_batch(&job, &pod, 1024, 65536, 1.15);
    println!("\ndiminishing-returns knee: batch {knee} ({:.1} min)", t / 60.0);

    println!("\nLEGW's contribution is making the large-batch points *reachable*");
    println!("without accuracy loss; the model shows what that is worth in time.");
}
