//! `repro summary` — the reproduction scorecard: reads the captured
//! `results/*.csv` files and checks each figure/table's *shape criterion*
//! (the claim EXPERIMENTS.md records) programmatically.

use crate::Table;
use std::path::Path;

/// Outcome of one shape check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Criterion satisfied.
    Pass,
    /// Criterion violated (details attached).
    Warn(String),
    /// The CSV has not been generated yet.
    Missing,
}

impl Verdict {
    fn cell(&self) -> String {
        match self {
            Verdict::Pass => "PASS".into(),
            Verdict::Warn(d) => format!("WARN: {d}"),
            Verdict::Missing => "missing (run the experiment first)".into(),
        }
    }
}

fn load(dir: &Path, id: &str) -> Option<Vec<Vec<String>>> {
    let text = std::fs::read_to_string(dir.join(format!("{id}.csv"))).ok()?;
    let mut rows = Vec::new();
    for line in text.lines().skip(1) {
        if !line.trim().is_empty() {
            rows.push(line.split(',').map(|s| s.trim().to_string()).collect());
        }
    }
    Some(rows)
}

fn col_f64(rows: &[Vec<String>], idx: usize) -> Vec<f64> {
    rows.iter().filter_map(|r| r.get(idx)?.parse().ok()).collect()
}

/// Table 2 shape: BLEU flat across the sweep (max−min small relative to the
/// level).
pub fn check_table2(dir: &Path) -> Verdict {
    let Some(rows) = load(dir, "table2") else { return Verdict::Missing };
    let bleu = col_f64(&rows, 4);
    if bleu.len() < 2 {
        return Verdict::Warn("too few rows".into());
    }
    let max = bleu.iter().cloned().fold(f64::MIN, f64::max);
    let min = bleu.iter().cloned().fold(f64::MAX, f64::min);
    if max - min <= 0.15 * max.max(1.0) {
        Verdict::Pass
    } else {
        Verdict::Warn(format!("BLEU spread {min:.1}–{max:.1}"))
    }
}

/// Table 3 shape: top-1 stays within 5 points of its best across the sweep.
pub fn check_table3(dir: &Path) -> Verdict {
    let Some(rows) = load(dir, "table3") else { return Verdict::Missing };
    let acc = col_f64(&rows, 4);
    if acc.len() < 2 {
        return Verdict::Warn("too few rows".into());
    }
    let max = acc.iter().cloned().fold(f64::MIN, f64::max);
    let min = acc.iter().cloned().fold(f64::MAX, f64::min);
    if max - min <= 0.05 {
        Verdict::Pass
    } else {
        Verdict::Warn(format!("top-1 spread {min:.3}–{max:.3}"))
    }
}

/// Figure 1 shape: at the largest batch, LEGW ≥ both comparison schemes and
/// strictly above the no-retune scheme.
pub fn check_fig1(dir: &Path) -> Verdict {
    let Some(rows) = load(dir, "fig1") else { return Verdict::Missing };
    let Some(last) = rows.last() else { return Verdict::Warn("empty".into()) };
    let legw: f64 = last[1].parse().unwrap_or(0.0);
    let goyal: f64 = last[2].parse().unwrap_or(0.0);
    let fixed: f64 = last[3].parse().unwrap_or(0.0);
    if legw + 1e-9 >= goyal && legw > fixed {
        Verdict::Pass
    } else {
        Verdict::Warn(format!("legw {legw:.3} vs linear {goyal:.3} / no-retune {fixed:.3}"))
    }
}

/// Figure 3 shape: the dip epoch is non-decreasing in batch size.
pub fn check_fig3(dir: &Path) -> Verdict {
    let Some(rows) = load(dir, "fig3") else { return Verdict::Missing };
    let dips = col_f64(&rows, 3);
    if dips.len() < 2 {
        return Verdict::Warn("too few rows".into());
    }
    if dips.windows(2).all(|w| w[1] >= w[0] - 1e-9) {
        Verdict::Pass
    } else {
        Verdict::Warn(format!("dip epochs not monotone: {dips:?}"))
    }
}

/// Figure 4 shape: the average speedup brackets the paper's 5.3×.
pub fn check_fig4(dir: &Path) -> Verdict {
    let Some(rows) = load(dir, "fig4") else { return Verdict::Missing };
    let Some(avg_row) = rows.iter().find(|r| r[0] == "AVERAGE") else {
        return Verdict::Warn("no AVERAGE row".into());
    };
    let s = avg_row[4].trim_end_matches(|c: char| !c.is_ascii_digit() && c != '.');
    let avg: f64 = s.split('x').next().and_then(|v| v.parse().ok()).unwrap_or(0.0);
    if (4.0..=7.0).contains(&avg) {
        Verdict::Pass
    } else {
        Verdict::Warn(format!("average speedup {avg:.2} outside [4,7]"))
    }
}

/// Figure 6 shape: LEGW matches or beats fixed-LR Adam at the largest
/// batch on at least half the apps (the documented result: decisive wins
/// where Adam collapses, small losses on the tiny synthetic LMs — see
/// EXPERIMENTS.md caveat 3).
pub fn check_fig6(dir: &Path) -> Verdict {
    let Some(rows) = load(dir, "fig6") else { return Verdict::Missing };
    // group rows by app (col 0); last row per app is the largest batch
    let mut wins = 0usize;
    let mut total = 0usize;
    let mut i = 0;
    while i < rows.len() {
        let app = rows[i][0].clone();
        let mut last = i;
        while last + 1 < rows.len() && rows[last + 1][0] == app {
            last += 1;
        }
        let legw: f64 = rows[last][2].parse().unwrap_or(f64::NAN);
        let adam: f64 = rows[last][3].parse().unwrap_or(f64::NAN);
        let higher_better = !app.contains("ppl");
        total += 1;
        let win = if higher_better { legw + 1e-9 >= adam } else { legw <= adam + 1e-9 };
        if win {
            wins += 1;
        }
        i = last + 1;
    }
    if total == 0 {
        return Verdict::Warn("no apps parsed".into());
    }
    if wins * 2 >= total {
        Verdict::Pass
    } else {
        Verdict::Warn(format!("LEGW wins only {wins}/{total} apps at max batch"))
    }
}

/// Runs every check and prints the scorecard.
pub fn summary(results_dir: &str) -> Vec<(&'static str, Verdict)> {
    let dir = Path::new(results_dir);
    let checks: Vec<(&'static str, Verdict)> = vec![
        ("table2: GNMT BLEU flat under LEGW", check_table2(dir)),
        ("table3: ImageNet top-1 flat under LEGW+LARS", check_table3(dir)),
        ("fig1: LEGW ≥ prior schemes at max batch", check_fig1(dir)),
        ("fig3: curvature landmarks shift right with batch", check_fig3(dir)),
        ("fig4: ~5.3x average speedup", check_fig4(dir)),
        ("fig6: LEGW ≥ fixed-Adam at max batch (≥ half the apps)", check_fig6(dir)),
    ];
    let mut t = Table::new("Reproduction scorecard (shape criteria)", &["criterion", "verdict"]);
    for (name, v) in &checks {
        t.row(vec![name.to_string(), v.cell()]);
    }
    println!("{}", t.render());
    checks
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn write_csv(dir: &Path, id: &str, content: &str) {
        let mut f = std::fs::File::create(dir.join(format!("{id}.csv"))).unwrap();
        f.write_all(content.as_bytes()).unwrap();
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("legw_summary_{tag}_{}", std::process::id()));
        let _ = std::fs::create_dir_all(&d);
        d
    }

    #[test]
    fn table2_flat_passes_and_spread_warns() {
        let d = tmpdir("t2");
        write_csv(&d, "table2", "batch,lr,warm,ep,BLEU\n16,a,b,8,99.0\n32,a,b,8,100.0\n");
        assert_eq!(check_table2(&d), Verdict::Pass);
        write_csv(&d, "table2", "batch,lr,warm,ep,BLEU\n16,a,b,8,100.0\n32,a,b,8,10.0\n");
        assert!(matches!(check_table2(&d), Verdict::Warn(_)));
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn fig1_ordering_checked() {
        let d = tmpdir("f1");
        write_csv(&d, "fig1", "batch,a,b,c\n128,0.99,0.98,0.84\n");
        assert_eq!(check_fig1(&d), Verdict::Pass);
        write_csv(&d, "fig1", "batch,a,b,c\n128,0.80,0.98,0.84\n");
        assert!(matches!(check_fig1(&d), Verdict::Warn(_)));
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn fig3_monotonicity_checked() {
        let d = tmpdir("f3");
        write_csv(
            &d,
            "fig3",
            "batch,probes,l0,dip,recross,lend\n64,9,0.1,0.4,1.0,2.0\n128,9,0.1,0.9,1.4,2.0\n",
        );
        assert_eq!(check_fig3(&d), Verdict::Pass);
        write_csv(
            &d,
            "fig3",
            "batch,probes,l0,dip,recross,lend\n64,9,0.1,1.4,1.0,2.0\n128,9,0.1,0.2,1.4,2.0\n",
        );
        assert!(matches!(check_fig3(&d), Verdict::Warn(_)));
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn fig6_majority_rule() {
        let d = tmpdir("f6");
        write_csv(
            &d,
            "fig6",
            "app,batch,LEGW,Adam,lr\nmnist (acc),32,1.0,1.0,0.002\nmnist (acc),256,1.0,0.8,0.002\nptb (ppl),8,7.0,6.5,0.01\nptb (ppl),128,8.0,9.0,0.01\n",
        );
        assert_eq!(check_fig6(&d), Verdict::Pass);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn missing_files_reported() {
        let d = tmpdir("none");
        assert_eq!(check_table2(&d), Verdict::Missing);
        assert_eq!(check_fig4(&d), Verdict::Missing);
        let _ = std::fs::remove_dir_all(&d);
    }
}
