//! Figure 2 — the LEGW learning-rate schedules themselves: multi-step and
//! polynomial decay across batch scales. Pure schedule evaluation; no
//! training.

use crate::Table;
use legw_schedules::{BaselineSchedule, Legw};

/// Prints LR-curve landmarks for the ImageNet-style multistep (Figure 2.1)
/// and poly-decay (Figure 2.2) schedules at batch scales ×1…×32, and writes
/// the full sampled curves to `results/fig2_curves.csv`.
///
/// Returns `(batch, peak_lr, warmup_epochs)` per scale for the multistep
/// family.
pub fn fig2() -> Vec<(usize, f64, f64)> {
    let (rows, table, curves) = fig2_tables();
    table.emit("fig2");
    let _ = curves.write_csv("fig2_curves");
    rows
}

/// [`fig2`]'s rows, with the table it prints and the sampled curves it
/// writes.
fn fig2_tables() -> (Vec<(usize, f64, f64)>, Table, Table) {
    // the paper's configuration: baseline batch 1K, LR 2^2.5, warmup 0.3125
    // epochs, 90-epoch budget, drops at 30/60/80 (γ=0.1) or poly p=2
    let base_ms = BaselineSchedule::multistep(
        1024,
        2f64.powf(2.5),
        10.0 / 32.0,
        90.0,
        vec![30.0, 60.0, 80.0],
        0.1,
    );
    let base_poly = BaselineSchedule::poly(1024, 2f64.powf(2.5), 10.0 / 32.0, 90.0, 2.0);

    let mut t = Table::new(
        "Figure 2 — LEGW schedules across batch scales (ImageNet config)",
        &[
            "decay", "batch", "peak LR", "warmup ep", "lr@wu end", "lr@15ep", "lr@45ep",
            "lr@70ep", "lr@85ep",
        ],
    );
    let mut out = Vec::new();
    let mut curves: Vec<(String, usize, Vec<f64>)> = Vec::new();
    for k in [1usize, 2, 4, 8, 16, 32] {
        let batch = 1024 * k;
        for (name, base) in [("multistep", &base_ms), ("poly", &base_poly)] {
            let s = Legw::scale_to(base, batch);
            t.row(vec![
                name.into(),
                batch.to_string(),
                format!("{:.3}", s.peak_lr()),
                format!("{:.4}", s.warmup_epochs()),
                format!("{:.3}", s.lr_at_epoch(s.warmup_epochs())),
                format!("{:.3}", s.lr_at_epoch(15.0)),
                format!("{:.3}", s.lr_at_epoch(45.0)),
                format!("{:.3}", s.lr_at_epoch(70.0)),
                format!("{:.3}", s.lr_at_epoch(85.0)),
            ]);
            if name == "multistep" {
                out.push((batch, s.peak_lr(), s.warmup_epochs()));
            }
            // sampled curve: 180 points over the 90 epochs
            let pts: Vec<f64> = (0..180).map(|i| s.lr_at_epoch(i as f64 * 0.5)).collect();
            curves.push((name.to_string(), batch, pts));
        }
    }
    let mut csv = Table::new("fig2 curves", &["decay", "batch", "epoch", "lr"]);
    for (name, batch, pts) in &curves {
        for (i, lr) in pts.iter().enumerate() {
            csv.row(vec![
                name.clone(),
                batch.to_string(),
                format!("{}", i as f64 * 0.5),
                format!("{lr:.6}"),
            ]);
        }
    }
    (out, t, csv)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_reproduces_paper_scaling_columns() {
        let rows = fig2_tables().0;
        assert_eq!(rows.len(), 6);
        // batch 1K: 2^2.5, 0.3125 warmup; batch 32K: 2^5, 10 epochs
        assert!((rows[0].1 - 2f64.powf(2.5)).abs() < 1e-9);
        assert!((rows[0].2 - 0.3125).abs() < 1e-9);
        assert!((rows[5].1 - 2f64.powf(5.0)).abs() < 1e-9);
        assert!((rows[5].2 - 10.0).abs() < 1e-9);
    }

    #[test]
    fn fig2_runs_and_matches_paper_schedule_columns() {
        let (rows, table, curves) = fig2_tables();
        assert_eq!(rows.len(), 6);
        assert_eq!((table.len(), curves.len()), (12, 12 * 180));
        // √k LR column and k× warmup column across the full 1K→32K range
        for (i, &(batch, lr, warm)) in rows.iter().enumerate() {
            let k = (batch / 1024) as f64;
            assert!((lr - 2f64.powf(2.5) * k.sqrt()).abs() < 1e-9, "row {i}");
            assert!((warm - 0.3125 * k).abs() < 1e-9, "row {i}");
        }
    }
}
