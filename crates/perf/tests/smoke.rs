//! Runs every workload at the test-only scale (a few hundred samples, one
//! epoch, a handful of queries) as its own `legw-perf run` process and holds
//! the schema: every metric `BENCHMARK.json` names is present with its unit,
//! the result line has the contract's keys, the trace's spans nest, and the
//! output checks pass.

use legw_perf::json::Json;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::Command;

fn benchmark() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric under `section`.
fn declared(spec: &Json, section: &str) -> Vec<(String, String)> {
    spec.get(section)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn out_dir(tag: &str) -> PathBuf {
    let base = option_env!("CARGO_TARGET_TMPDIR").map_or_else(std::env::temp_dir, PathBuf::from);
    let dir = base.join(format!("legw-perf-smoke-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

/// Runs one workload and returns the parsed last line of its stdout.
fn run(workload: &str, trace: &str, out: &Path) -> Json {
    let output = Command::new(env!("CARGO_BIN_EXE_legw-perf"))
        .args([
            "run",
            "--workload",
            workload,
            "--smoke",
            "--seconds",
            "1",
            "--trace",
            trace,
        ])
        .arg("--out")
        .arg(out)
        .output()
        .expect("legw-perf starts");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let line = Json::parse(stdout.lines().last().expect("a result line")).expect("result JSON");
    let keys: Vec<&str> = line
        .as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        line.get("correct"),
        Some(&Json::Bool(true)),
        "{workload}: checks failed\n{stdout}"
    );
    assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
    assert!(
        line.get("attempted")
            .and_then(Json::as_f64)
            .expect("attempted")
            >= 1.0
    );
    line
}

/// `metrics` holds exactly the declared metrics, each finite, with its unit.
fn assert_metrics(metrics: &Json, declared: &[(String, String)], what: &str) {
    let got = metrics.as_obj().expect("metrics object");
    for (name, unit) in declared {
        let m = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{what}: metric {name} missing"));
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{what}: {name} unit"
        );
        let v = m.get("value").and_then(Json::as_f64);
        assert!(v.is_some_and(f64::is_finite), "{what}: {name} = {v:?}");
    }
    assert_eq!(
        got.len(),
        declared.len(),
        "{what}: metrics BENCHMARK.json does not name"
    );
}

/// Every `parent` resolves, and a child lies inside its parent's interval.
fn assert_spans_nest(trace: &Json, workload: &str) {
    let events = trace
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents");
    let spans: Vec<&Json> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .collect();
    let num = |e: &Json, k: &str| e.get(k).and_then(Json::as_f64);
    let arg = |e: &Json, k: &str| e.get("args").and_then(|a| a.get(k)).and_then(Json::as_f64);
    let by_id: HashMap<u64, &Json> = spans
        .iter()
        .map(|e| (arg(e, "id").expect("span id") as u64, *e))
        .collect();
    assert_eq!(by_id.len(), spans.len(), "{workload}: span ids repeat");
    let mut children = 0;
    for e in &spans {
        let Some(parent) = arg(e, "parent") else {
            continue;
        };
        let p = by_id
            .get(&(parent as u64))
            .unwrap_or_else(|| panic!("{workload}: parent {parent} of {e:?} is not in the trace"));
        let (ts, dur) = (num(e, "ts").unwrap(), num(e, "dur").unwrap());
        let (pts, pdur) = (num(p, "ts").unwrap(), num(p, "dur").unwrap());
        // Timestamps are nanosecond counts printed in microseconds.
        assert!(
            ts >= pts - 1e-3 && ts + dur <= pts + pdur + 1e-3,
            "{workload}: {e:?} outside {p:?}"
        );
        children += 1;
    }
    let named = |n: &str| {
        spans
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some(n))
            .count()
    };
    assert_eq!(named("driver"), 1);
    assert!(named("core.step_planned") >= 1 && named("serve.query") >= 1 && children >= 10);
}

fn check_workload(workload: &str) {
    let spec = benchmark();
    let out = out_dir(workload);
    let read = |file: String| {
        let text =
            std::fs::read_to_string(out.join(&file)).unwrap_or_else(|e| panic!("{file}: {e}"));
        Json::parse(&text).unwrap_or_else(|e| panic!("{file}: {e}"))
    };
    let assert_fingerprint = |result: &Json| {
        assert_eq!(result.get("claim"), Some(&Json::Null));
        let fp = result.get("fingerprint").expect("fingerprint");
        for key in [
            "build",
            "commit",
            "nproc",
            "cpu",
            "kernel",
            "LEGW_THREADS",
            "LEGW_SHARDS",
            "seed",
        ] {
            assert!(fp.get(key).is_some(), "{workload}: fingerprint lacks {key}");
        }
    };

    // Untraced: the end-to-end set, on the result line and in the result file.
    let end_to_end = declared(&spec, "end_to_end");
    let line = run(workload, "0", &out);
    assert_metrics(line.get("metrics").expect("metrics"), &end_to_end, workload);
    let result = read(format!("result.{workload}.json"));
    assert_metrics(
        result.get("end_to_end").expect("end_to_end"),
        &end_to_end,
        workload,
    );
    let reconcile = result.get("reconcile").expect("reconcile");
    for key in [
        "core.trainer_wall_s",
        "core.driver_wall_s",
        "core.driver_vs_trainer_ratio",
        "ref.slowdown_p50",
    ] {
        assert!(
            reconcile.get(key).is_some(),
            "{workload}: reconcile lacks {key}"
        );
    }
    // The reference clock was read throughout the run, not once.
    let samples = reconcile
        .get("ref.samples")
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64);
    assert!(
        samples.is_some_and(|n| n >= 10.0),
        "{workload}: {samples:?} reference samples"
    );
    assert_fingerprint(&result);

    // Traced: the per-layer set, and a trace whose spans nest.
    let per_layer = declared(&spec, "per_layer");
    let line = run(workload, "1", &out);
    assert_metrics(line.get("metrics").expect("metrics"), &per_layer, workload);
    let layers = read(format!("layers.{workload}.json"));
    assert_metrics(
        layers.get("per_layer").expect("per_layer"),
        &per_layer,
        workload,
    );
    assert_fingerprint(&layers);
    assert_spans_nest(&read(format!("trace.{workload}.json")), workload);
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn mnist_b32() {
    check_workload("mnist_b32");
}

#[test]
fn mnist_b256_dp2() {
    check_workload("mnist_b256_dp2");
}

#[test]
fn resnet_b128_lars() {
    check_workload("resnet_b128_lars");
}

#[test]
fn seq2seq_b16() {
    check_workload("seq2seq_b16");
}

#[test]
fn benchmark_json_names_the_workloads_the_binary_knows() {
    let spec = benchmark();
    let names: Vec<&str> = spec
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(names, legw_perf::workload::NAMES);
}
