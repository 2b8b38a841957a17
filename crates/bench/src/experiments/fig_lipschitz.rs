//! Figure 3 — the approximate local Lipschitz constant `L(x,g)` over
//! training, for increasing batch sizes.
//!
//! The paper's observation: `L` has an early peak that shifts right roughly
//! linearly as the batch grows — so warmup should lengthen with batch size.
//! On the synthetic MNIST trajectory the raw profile looks different in
//! detail (from initialisation, `L` first *dips* as the gradient leaves the
//! init plateau, then rises steadily as the model sharpens), but the same
//! conclusion falls out: every landmark of the curve — the dip and the
//! return to the initial level, i.e. the entry into the high-curvature
//! region where a large LR is dangerous — arrives *later in epochs* as the
//! batch grows, near-linearly. Covering that region is exactly what
//! linear-epoch warmup does.

use crate::{quick_mode, Table};
use legw::lipschitz::{mnist_lipschitz_trace, LipschitzSample};
use legw_data::SynthMnist;
use legw_optim::SolverKind;
use legw_schedules::{BaselineSchedule, Legw};

/// Epoch of the minimum of a trace.
pub fn dip_epoch(trace: &[LipschitzSample]) -> Option<f64> {
    trace.iter().min_by(|a, b| a.value.total_cmp(&b.value)).map(|s| s.epoch)
}

/// Epoch at which `L` first returns above its initial value (the entry into
/// the sharpening region); `None` when it never does within the trace.
pub fn recross_epoch(trace: &[LipschitzSample]) -> Option<f64> {
    let l0 = trace.first()?.value;
    trace.iter().skip(1).find(|s| s.value > l0).map(|s| s.epoch)
}

/// Runs the Figure 3 experiment on SynthMnist with SGD at batch scales
/// ×1…×8 of 64. Returns `(batch, dip_epoch, recross_epoch_or_budget)` per
/// scale; both landmark sequences are non-decreasing in batch size.
pub fn fig3(seed: u64) -> Vec<(usize, f64, f64)> {
    let data = SynthMnist::generate(777, 2048, 256);
    // constant small LR (LEGW-scaled per batch) — probing the landscape
    // along plain SGD trajectories
    let base = BaselineSchedule::constant(64, 0.05, 0.0, 3.0);
    let budget = 3.0;
    let batches: Vec<usize> = if quick_mode() { vec![64, 128] } else { vec![64, 128, 256, 512] };

    let mut t = Table::new(
        "Figure 3 — L(x,g) landmarks shift right (in epochs) as batch grows; warmup must lengthen",
        &["batch", "probes", "L@start", "dip epoch", "re-cross epoch", "L@end"],
    );
    let mut csv = Table::new("fig3 traces", &["batch", "iteration", "epoch", "L"]);
    let mut rows = Vec::new();
    for &batch in &batches {
        let sched = Legw::scale_to(&base, batch);
        let ipe = 2048usize.div_ceil(batch);
        let probe_every = (ipe / 16).max(1);
        let trace =
            mnist_lipschitz_trace(&data, 24, 24, &sched, SolverKind::Sgd, seed, probe_every, 128);
        for s in &trace {
            csv.row(vec![
                batch.to_string(),
                s.iteration.to_string(),
                format!("{:.4}", s.epoch),
                format!("{:.5}", s.value),
            ]);
        }
        let dip = dip_epoch(&trace).unwrap_or(0.0);
        let recross = recross_epoch(&trace);
        t.row(vec![
            batch.to_string(),
            trace.len().to_string(),
            format!("{:.4}", trace.first().map(|s| s.value).unwrap_or(0.0)),
            format!("{dip:.3}"),
            recross.map(|e| format!("{e:.3}")).unwrap_or_else(|| format!(">{budget}")),
            format!("{:.4}", trace.last().map(|s| s.value).unwrap_or(0.0)),
        ]);
        rows.push((batch, dip, recross.unwrap_or(budget)));
    }
    t.emit("fig3");
    let _ = csv.write_csv("fig3_traces");
    rows
}
