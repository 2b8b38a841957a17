//! Terminal line charts for the captured experiment CSVs — a quick visual
//! check of the figure shapes without leaving the shell:
//!
//! ```text
//! cargo run --release -p legw-bench --bin repro -- plot results/fig3_traces.csv epoch L batch
//! ```

use std::collections::BTreeMap;

/// One named series of `(x, y)` points.
pub type Series = (String, Vec<(f64, f64)>);

/// Renders series as an ASCII scatter chart of `width × height` cells, with
/// per-series glyphs, axis ranges annotated, and a legend.
pub fn line_chart(series: &[Series], width: usize, height: usize) -> String {
    assert!(width >= 16 && height >= 4, "chart too small: {width}x{height}");
    let glyphs = ['*', 'o', '+', 'x', '#', '@', '%', '&'];
    let pts: Vec<(f64, f64)> = series.iter().flat_map(|(_, p)| p.iter().copied()).collect();
    if pts.is_empty() {
        return "(no data)\n".into();
    }
    let (mut x0, mut x1) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut y0, mut y1) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(x, y) in &pts {
        if x.is_finite() && y.is_finite() {
            x0 = x0.min(x);
            x1 = x1.max(x);
            y0 = y0.min(y);
            y1 = y1.max(y);
        }
    }
    if !x0.is_finite() || !y0.is_finite() {
        return "(no finite data)\n".into();
    }
    if (x1 - x0).abs() < 1e-12 {
        x1 = x0 + 1.0;
    }
    if (y1 - y0).abs() < 1e-12 {
        y1 = y0 + 1.0;
    }

    let mut grid = vec![vec![' '; width]; height];
    for (si, (_, points)) in series.iter().enumerate() {
        let glyph = glyphs[si % glyphs.len()];
        for &(x, y) in points {
            if !x.is_finite() || !y.is_finite() {
                continue;
            }
            let cx = ((x - x0) / (x1 - x0) * (width - 1) as f64).round() as usize;
            let cy = ((y - y0) / (y1 - y0) * (height - 1) as f64).round() as usize;
            let row = height - 1 - cy.min(height - 1);
            grid[row][cx.min(width - 1)] = glyph;
        }
    }

    let mut out = String::new();
    out.push_str(&format!("y: [{y0:.4}, {y1:.4}]\n"));
    for row in &grid {
        out.push('|');
        out.extend(row.iter());
        out.push('\n');
    }
    out.push('+');
    out.push_str(&"-".repeat(width));
    out.push('\n');
    out.push_str(&format!("x: [{x0:.4}, {x1:.4}]\n"));
    for (si, (name, _)) in series.iter().enumerate() {
        out.push_str(&format!("  {} {}\n", glyphs[si % glyphs.len()], name));
    }
    out
}

/// Loads `(x, y)` series from a CSV produced by [`crate::Table::write_csv`],
/// optionally grouped into one series per distinct value of `group_col`.
pub fn series_from_csv(
    csv: &str,
    x_col: &str,
    y_col: &str,
    group_col: Option<&str>,
) -> Result<Vec<Series>, String> {
    let mut lines = csv.lines();
    let header = lines.next().ok_or("empty csv")?;
    let cols: Vec<&str> = header.split(',').collect();
    let find = |name: &str| {
        cols.iter()
            .position(|c| *c == name)
            .ok_or_else(|| format!("column '{name}' not in header {cols:?}"))
    };
    let xi = find(x_col)?;
    let yi = find(y_col)?;
    let gi = group_col.map(find).transpose()?;

    let mut groups: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::new();
    for (ln, line) in lines.enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != cols.len() {
            return Err(format!(
                "row {} has {} fields, expected {}",
                ln + 2,
                fields.len(),
                cols.len()
            ));
        }
        let x: f64 = fields[xi]
            .trim()
            .parse()
            .map_err(|_| format!("bad x '{}' row {}", fields[xi], ln + 2))?;
        let y: f64 = fields[yi]
            .trim()
            .parse()
            .map_err(|_| format!("bad y '{}' row {}", fields[yi], ln + 2))?;
        let key = gi.map(|g| fields[g].trim().to_string()).unwrap_or_else(|| y_col.to_string());
        groups.entry(key).or_default().push((x, y));
    }
    Ok(groups.into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chart_places_extremes_on_edges() {
        let s = vec![("a".to_string(), vec![(0.0, 0.0), (10.0, 5.0)])];
        let c = line_chart(&s, 20, 6);
        let rows: Vec<&str> = c.lines().collect();
        // min point bottom-left, max point top-right
        assert!(rows[1].ends_with('*'), "top row should end with max point: {c}");
        assert!(rows[6].starts_with("|*"), "bottom row should start with min point: {c}");
        assert!(c.contains("x: [0.0000, 10.0000]"));
        assert!(c.contains("y: [0.0000, 5.0000]"));
    }

    #[test]
    fn chart_handles_degenerate_ranges() {
        let s = vec![("flat".to_string(), vec![(1.0, 2.0), (1.0, 2.0)])];
        let c = line_chart(&s, 16, 4);
        assert!(c.contains('*'));
        let empty: Vec<Series> = vec![("e".into(), vec![])];
        assert_eq!(line_chart(&empty, 16, 4), "(no data)\n");
    }

    #[test]
    fn csv_parsing_and_grouping() {
        let csv = "batch,epoch,L\n64,0.0,0.5\n64,1.0,0.7\n128,0.0,0.4\n";
        let s = series_from_csv(csv, "epoch", "L", Some("batch")).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].0, "128");
        assert_eq!(s[1].0, "64");
        assert_eq!(s[1].1, vec![(0.0, 0.5), (1.0, 0.7)]);
    }

    #[test]
    fn csv_errors_are_descriptive() {
        assert!(series_from_csv("", "a", "b", None).is_err());
        let bad_col = series_from_csv("a,b\n1,2\n", "a", "zz", None).unwrap_err();
        assert!(bad_col.contains("'zz'"));
        let ragged = series_from_csv("a,b\n1\n", "a", "b", None).unwrap_err();
        assert!(ragged.contains("fields"));
        let nonnum = series_from_csv("a,b\nx,2\n", "a", "b", None).unwrap_err();
        assert!(nonnum.contains("bad x"));
    }

    #[test]
    fn multiple_series_get_distinct_glyphs() {
        let s = vec![("one".to_string(), vec![(0.0, 0.0)]), ("two".to_string(), vec![(1.0, 1.0)])];
        let c = line_chart(&s, 16, 4);
        assert!(c.contains("* one"));
        assert!(c.contains("o two"));
    }
}
