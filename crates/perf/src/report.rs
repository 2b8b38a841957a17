//! What a run reports: named metrics with units, the op and check ledger,
//! the machine fingerprint, and the files and lines they are written to.

use crate::json::Json;
use std::path::Path;

/// Named measurements in report order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        debug_assert!(
            self.0.iter().all(|(n, _, _)| n != name),
            "metric {name} reported twice"
        );
        self.0.push((name.to_string(), value, unit));
    }

    /// `{"name": {"value": v, "unit": u}, …}` — the benchmark contract's shape.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|(n, v, u)| {
                    let m = Json::obj([("value", Json::Num(*v)), ("unit", Json::Str((*u).into()))]);
                    (n.clone(), m)
                })
                .collect(),
        )
    }

    pub fn print(&self, heading: &str) {
        println!("-- {heading}");
        for (n, v, u) in &self.0 {
            println!("{n:<40} {v:>16.6} {u}");
        }
    }
}

/// Operations attempted and failed, plus the named output checks. Every
/// named check also counts as one operation.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    named: Vec<(&'static str, bool, String)>,
}

impl Checks {
    /// Books one operation (a train run, an eval call, a served row).
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn named(&mut self, name: &'static str, ok: bool, detail: String) {
        self.op(ok);
        self.named.push((name, ok, detail));
    }

    pub fn all_passed(&self) -> bool {
        self.failed == 0
    }

    pub fn print(&self) {
        println!("-- checks");
        for (name, ok, detail) in &self.named {
            println!("{} {name}: {detail}", if *ok { "PASS" } else { "FAIL" });
        }
        println!(
            "ops_attempted {}  ops_failed {}",
            self.attempted, self.failed
        );
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.named
                .iter()
                .map(|(n, ok, d)| {
                    Json::obj([
                        ("name", Json::Str((*n).into())),
                        ("ok", Json::Bool(*ok)),
                        ("detail", Json::Str(d.clone())),
                    ])
                })
                .collect(),
        )
    }
}

/// Where a number came from. Results with different fingerprints — above
/// all a different `build` — are not comparable.
pub fn fingerprint(workload: &str, seed: u64, seconds: f64, smoke: bool) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let env = |k: &str| Json::Str(std::env::var(k).unwrap_or_else(|_| "unset".into()));
    Json::obj([
        ("workload", Json::Str(workload.into())),
        (
            "build",
            Json::Str(
                if cfg!(legw_stub_build) {
                    "rustc-stub"
                } else {
                    "cargo"
                }
                .into(),
            ),
        ),
        ("commit", env("LEGW_PERF_COMMIT")),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("cpu", Json::Str(cpu)),
        (
            "kernel",
            Json::Str(legw_tensor::kernels::selected().name().into()),
        ),
        ("LEGW_THREADS", env("LEGW_THREADS")),
        ("LEGW_SHARDS", env("LEGW_SHARDS")),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        (
            "scale",
            Json::Str(if smoke { "smoke" } else { "full" }.into()),
        ),
    ])
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn write_json(path: &Path, value: &Json, pretty: bool) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(
        path,
        if pretty {
            value.pretty()
        } else {
            value.encode()
        },
    )
}

pub fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}
