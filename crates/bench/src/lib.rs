//! # legw-bench
//!
//! The reproduction harness. The `repro` binary regenerates every table and
//! figure of the paper's evaluation (run `repro help` for the list); this
//! library holds the shared plumbing: aligned table printing, CSV capture
//! into `results/`, and batch-sweep helpers.

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;

/// A simple aligned text table that doubles as a CSV writer.
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (w, c) in widths.iter_mut().zip(r) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout and writes `results/<id>.csv`.
    pub fn emit(&self, id: &str) {
        println!("{}", self.render());
        if let Err(e) = self.write_csv(id) {
            eprintln!("warning: could not write results/{id}.csv: {e}");
        }
    }

    /// Writes the CSV capture.
    pub fn write_csv(&self, id: &str) -> std::io::Result<PathBuf> {
        let dir = PathBuf::from("results");
        fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{id}.csv"));
        let mut f = fs::File::create(&path)?;
        writeln!(f, "{}", self.headers.join(","))?;
        for r in &self.rows {
            writeln!(f, "{}", r.join(","))?;
        }
        Ok(path)
    }
}

/// Formats an LR as both a decimal and the paper's `2^x` notation.
pub fn fmt_lr_pow2(lr: f64) -> String {
    format!("{lr:.5} (2^{:+.1})", lr.log2())
}

/// Doubling batch sweep `base, 2·base, …, max` (inclusive).
pub fn batch_sweep(base: usize, max: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut b = base;
    while b <= max {
        out.push(b);
        b *= 2;
    }
    out
}

/// True when `LEGW_QUICK` asks for reduced sweeps (CI-speed smoke runs).
pub fn quick_mode() -> bool {
    std::env::var("LEGW_QUICK").map(|v| v != "0" && !v.is_empty()).unwrap_or(false)
}

/// Installs the `LEGW_THREADS` budget into the kernel thread pool and pins
/// the SIMD kernel choice (`LEGW_KERNEL`, else CPUID-best) for the whole
/// run. `repro` and `tune` call this at the top of `main`, before the first
/// kernel runs. `LEGW_THREADS` is parsed by [`legw::ExecConfig::from_env`]
/// and `LEGW_KERNEL` by `legw_tensor::kernels` — each variable's single
/// read site; this merely forwards the results.
pub fn init_threads_from_env() {
    if let Some(t) = legw::ExecConfig::from_env().threads {
        legw_parallel::set_default_threads(t);
    }
    legw_tensor::kernels::init();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["a", "long-header"]);
        t.row(vec!["1".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("demo"));
        assert!(s.contains("long-header"));
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn batch_sweep_doubles() {
        assert_eq!(batch_sweep(32, 256), vec![32, 64, 128, 256]);
        assert_eq!(batch_sweep(20, 25), vec![20]);
    }

    #[test]
    fn lr_pow2_formatting() {
        let s = fmt_lr_pow2(8.0);
        assert!(s.contains("2^+3.0"), "{s}");
    }
}
pub mod experiments;
pub mod plot;
