//! Grid-search tuning — the machinery behind the paper's "comprehensive
//! tuning" baselines (§5.3) and the tuned-Adam comparisons (§5.2).

/// Result of a grid search.
#[derive(Clone, Debug)]
pub struct TuneResult {
    /// The hyper-parameter value that won.
    pub best_value: f64,
    /// Its metric.
    pub best_metric: f64,
    /// All `(value, metric)` trials in evaluation order.
    pub trials: Vec<(f64, f64)>,
}

/// Evaluates `eval` at every candidate and returns the best
/// (`higher_better` selects the comparison direction).
pub fn grid_search(
    candidates: &[f64],
    higher_better: bool,
    mut eval: impl FnMut(f64) -> f64,
) -> TuneResult {
    assert!(!candidates.is_empty(), "empty tuning grid");
    let mut trials = Vec::with_capacity(candidates.len());
    for &v in candidates {
        trials.push((v, eval(v)));
    }
    let best = trials
        .iter()
        .copied()
        .reduce(|a, b| {
            let a_wins = if higher_better { a.1 >= b.1 } else { a.1 <= b.1 };
            if a_wins {
                a
            } else {
                b
            }
        })
        .unwrap();
    TuneResult { best_value: best.0, best_metric: best.1, trials }
}

/// Log₂-spaced grid: `base · 2^(i/per_octave)` for exponents covering
/// `[lo_exp, hi_exp]` octaves — the shape of the paper's LR search ranges
/// (e.g. "only the range [0.01, 0.16] is effective").
pub fn log2_grid(base: f64, lo_exp: f64, hi_exp: f64, per_octave: usize) -> Vec<f64> {
    assert!(hi_exp >= lo_exp && per_octave >= 1);
    let steps = ((hi_exp - lo_exp) * per_octave as f64).round() as usize;
    (0..=steps)
        .map(|i| base * 2f64.powf(lo_exp + i as f64 / per_octave as f64))
        .collect()
}

/// Linear grid `lo, lo+step, …` of `n` values — the paper's Adam tuning
/// spaces like {0.001, 0.002, …, 0.020}.
pub fn linear_grid(lo: f64, step: f64, n: usize) -> Vec<f64> {
    (0..n).map(|i| lo + step * i as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_search_finds_max_and_min() {
        let f = |x: f64| -(x - 3.0) * (x - 3.0); // peak at 3
        let grid: Vec<f64> = (0..7).map(|i| i as f64).collect();
        let up = grid_search(&grid, true, f);
        assert_eq!(up.best_value, 3.0);
        let down = grid_search(&grid, false, f);
        assert!(down.best_value == 0.0 || down.best_value == 6.0);
        assert_eq!(up.trials.len(), 7);
    }

    #[test]
    fn grid_search_ties_keep_first() {
        let r = grid_search(&[1.0, 2.0, 3.0], true, |_| 5.0);
        assert_eq!(r.best_value, 1.0);
    }

    #[test]
    fn log2_grid_spacing() {
        let g = log2_grid(0.01, 0.0, 4.0, 1);
        assert_eq!(g.len(), 5);
        assert!((g[0] - 0.01).abs() < 1e-12);
        assert!((g[4] - 0.16).abs() < 1e-12, "paper's MNIST effective range endpoint");
        for w in g.windows(2) {
            assert!((w[1] / w[0] - 2.0).abs() < 1e-9);
        }
    }

    #[test]
    fn linear_grid_matches_paper_adam_space() {
        let g = linear_grid(0.001, 0.001, 20);
        assert_eq!(g.len(), 20);
        assert!((g[0] - 0.001).abs() < 1e-12);
        assert!((g[19] - 0.020).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty tuning grid")]
    fn empty_grid_panics() {
        grid_search(&[], true, |_| 0.0);
    }
}
