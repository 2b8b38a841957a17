//! Figure 4 and §7 — wall-clock speedups from LEGW's batch scaling.
//!
//! Two ingredients, combined exactly as the paper does:
//! 1. *accuracy preservation* is measured by really training the synthetic
//!    applications at the baseline and at the largest LEGW batch;
//! 2. *wall-clock time* comes from the calibrated cluster performance model
//!    at the paper's own dataset/batch scales (`legw-cluster-sim`), since
//!    the paper's numbers are TPU wall-clock.

use crate::{quick_mode, Table};
use legw::apps::{self, App};
use legw_cluster_sim::presets;
use legw_schedules::Legw;

/// Figure 4 — per-application speedup bars plus the 5.3× average headline.
/// Returns `(name, baseline_metric, legw_metric, speedup)`.
pub fn fig4(seed: u64) -> Vec<(String, f64, f64, f64)> {
    let apps_list = [
        (App::MnistLstm, "mnist-lstm"),
        (App::PtbSmall, "ptb-small"),
        (App::PtbLarge, "ptb-large"),
        (App::Gnmt, "gnmt"),
    ];
    let jobs = presets::paper_jobs();
    let ranges = presets::paper_batch_ranges();

    let mut t = Table::new(
        "Figure 4 — LEGW batch scaling: accuracy preserved (measured) and wall-clock speedup (simulated at paper scale)",
        &["app", "metric @ base batch", "metric @ LEGW max batch", "paper batches", "speedup"],
    );
    let mut rows = Vec::new();
    let mut speedups = Vec::new();
    for (app, name) in apps_list {
        let spec = apps::spec(app);
        let max_batch = if quick_mode() { spec.baseline.batch_size() * 4 } else { spec.max_batch };
        let base_rep = apps::run(app, &spec.baseline, spec.solver, seed);
        let big_sched = Legw::scale_to(&spec.baseline, max_batch);
        let big_rep = apps::run(app, &big_sched, spec.solver, seed);

        let (_, job, cluster) = jobs.iter().find(|(n, _, _)| *n == name).unwrap();
        let (_, small, big) = ranges.iter().find(|(n, _, _)| *n == name).unwrap();
        let speedup = job.speedup_same_hardware(cluster, *small, *big);
        speedups.push(speedup);

        t.row(vec![
            name.into(),
            format!("{:.4}", base_rep.final_metric),
            format!("{:.4}", big_rep.final_metric),
            format!("{small}→{big}"),
            format!("{speedup:.2}x"),
        ]);
        rows.push((name.to_string(), base_rep.final_metric, big_rep.final_metric, speedup));
    }
    let avg = speedups.iter().sum::<f64>() / speedups.len() as f64;
    t.row(vec![
        "AVERAGE".into(),
        String::new(),
        String::new(),
        String::new(),
        format!("{avg:.2}x (paper: 5.3x)"),
    ]);
    t.emit("fig4");
    rows
}

/// §7 — the ImageNet pod anecdote (7 min @ 32K vs 16 min @ 8K) and the GNMT
/// single-TPU anecdote (2 h @ 256 vs 33 min @ 4K). Returns
/// `(label, minutes)` rows.
pub fn speedup_section7() -> Vec<(String, f64)> {
    let (rows, table) = section7_table();
    table.emit("speedup");
    rows
}

/// [`speedup_section7`]'s rows, with the table it prints.
fn section7_table() -> (Vec<(String, f64)>, Table) {
    let jobs = presets::paper_jobs();
    let mut t = Table::new(
        "§7 — wall-clock projections from the calibrated cluster model",
        &["configuration", "minutes", "paper reports"],
    );
    let mut out = Vec::new();

    let (_, imagenet, pod) = jobs.iter().find(|(n, _, _)| *n == "imagenet-resnet50").unwrap();
    for (batch, paper) in [(8192usize, "16 min"), (32768, "7 min")] {
        let m = imagenet.time_to_train_secs(pod, batch) / 60.0;
        t.row(vec![
            format!("ImageNet/ResNet-50 @ {batch} on TPU-v2 pod"),
            format!("{m:.1}"),
            paper.into(),
        ]);
        out.push((format!("imagenet@{batch}"), m));
    }

    let (_, gnmt, tpu) = jobs.iter().find(|(n, _, _)| *n == "gnmt").unwrap();
    for (batch, paper) in [(256usize, ">120 min"), (4096, "33 min")] {
        let m = gnmt.time_to_train_secs(tpu, batch) / 60.0;
        t.row(vec![format!("GNMT @ {batch} on one TPU-v2"), format!("{m:.1}"), paper.into()]);
        out.push((format!("gnmt@{batch}"), m));
    }
    (out, t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn section7_shape_holds() {
        let rows = section7_table().0;
        let get = |k: &str| rows.iter().find(|(n, _)| n == k).unwrap().1;
        assert!(get("imagenet@32768") < get("imagenet@8192"));
        assert!(get("gnmt@4096") < get("gnmt@256"));
        // GNMT baseline is in the hours regime, scaled run in fractions of it
        assert!(get("gnmt@256") / get("gnmt@4096") > 2.5);
    }

    #[test]
    fn speedup_section7_runs_and_orders_correctly() {
        let (rows, table) = section7_table();
        assert_eq!((rows.len(), table.len()), (4, 4));
        let get = |k: &str| rows.iter().find(|(n, _)| n == k).unwrap().1;
        assert!(get("imagenet@32768") < get("imagenet@8192"));
        assert!(get("gnmt@4096") < get("gnmt@256"));
    }
}
