//! `legw-perf compare <a-dir> <b-dir>`: do two sets of runs agree within the
//! benchmark's own bounds?
//!
//! A set is a directory holding `result.<workload>.json` files, directly or
//! one level down (one sub-directory per repeat). Per workload × end-to-end
//! metric the medians of both sets are printed with the relative change and
//! the bound from `BENCHMARK.json`; `b` regresses when a metric is worse than
//! `a` by more than its bound, or its failed share of operations rose.

use crate::json::Json;
use crate::report::read_json;
use crate::trace::median;
use crate::workload::NAMES;
use std::path::{Path, PathBuf};

struct Bound {
    name: String,
    unit: String,
    lower_is_better: bool,
    bound: f64,
}

fn bounds(benchmark: &Path) -> Result<Vec<Bound>, String> {
    let spec = read_json(benchmark)?;
    let list = spec
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{}: no end_to_end list", benchmark.display()))?;
    list.iter()
        .map(|m| {
            let text = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_string);
            Some(Bound {
                name: text("name")?,
                unit: text("unit")?,
                lower_is_better: text("better")? == "lower",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| format!("{}: malformed end_to_end entry", benchmark.display()))
}

/// Every `result.<workload>.json` in `dir` or its immediate sub-directories.
fn results(dir: &Path, workload: &str) -> Result<Vec<Json>, String> {
    let file = format!("result.{workload}.json");
    let mut paths: Vec<PathBuf> = vec![dir.join(&file)];
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries.flatten() {
        if entry.path().is_dir() {
            paths.push(entry.path().join(&file));
        }
    }
    paths.sort();
    paths
        .iter()
        .filter(|p| p.is_file())
        .map(|p| read_json(p))
        .collect()
}

fn metric(result: &Json, name: &str) -> Option<f64> {
    result.get("end_to_end")?.get(name)?.get("value")?.as_f64()
}

fn failed_share(runs: &[Json]) -> f64 {
    let sum = |k: &str| runs.iter().filter_map(|r| r.get(k)?.as_f64()).sum::<f64>();
    sum("ops_failed") / sum("ops_attempted").max(1.0)
}

/// Prints the table; `Ok(true)` when `b` holds every bound against `a`.
pub fn compare(a: &Path, b: &Path, benchmark: &Path) -> Result<bool, String> {
    let bounds = bounds(benchmark)?;
    let mut agree = true;
    println!(
        "{:<18} {:<22} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "a median", "b median", "change", "bound"
    );
    for workload in NAMES {
        let (ra, rb) = (results(a, workload)?, results(b, workload)?);
        if ra.is_empty() || rb.is_empty() {
            return Err(format!("no result.{workload}.json in one of the sets"));
        }
        let builds = |rs: &[Json]| -> Vec<String> {
            let mut v: Vec<String> = rs
                .iter()
                .filter_map(|r| Some(r.get("fingerprint")?.get("build")?.as_str()?.to_string()))
                .collect();
            v.sort();
            v.dedup();
            v
        };
        if builds(&ra) != builds(&rb) {
            return Err(format!(
                "{workload}: sets come from different builds ({:?} vs {:?}) and are not comparable",
                builds(&ra),
                builds(&rb)
            ));
        }
        for m in &bounds {
            let med = |rs: &[Json]| {
                median(
                    &rs.iter()
                        .filter_map(|r| metric(r, &m.name))
                        .collect::<Vec<_>>(),
                )
            };
            let (va, vb) = (med(&ra), med(&rb));
            let change = vb / va - 1.0;
            let worse = if m.lower_is_better { change } else { -change };
            let ok = worse <= m.bound;
            agree &= ok;
            println!(
                "{:<18} {:<22} {:>14.4} {:>14.4} {:>+8.2}% {:>6.0}%  {} ({})",
                workload,
                m.name,
                va,
                vb,
                change * 100.0,
                m.bound * 100.0,
                if ok { "within" } else { "WORSE" },
                m.unit
            );
        }
        let (fa, fb) = (failed_share(&ra), failed_share(&rb));
        let ok = fb <= fa;
        agree &= ok;
        println!(
            "{:<18} {:<22} {:>14.6} {:>14.6} {:>9} {:>7}  {}",
            workload,
            "ops_failed/attempted",
            fa,
            fb,
            "",
            "",
            if ok { "within" } else { "ROSE" }
        );
    }
    Ok(agree)
}
