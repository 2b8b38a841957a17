//! Command line: `run` (one workload, one process), `all` (one child
//! process per workload, then the LEGW speedup) and `compare`.

use crate::json::Json;
use crate::pipeline::{self, RunConfig};
use crate::report::read_json;
use crate::workload::NAMES;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "\
usage: legw-perf run --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
       legw-perf all [--seed N] [--seconds S] [--out DIR]
       legw-perf compare <a-dir> <b-dir> [--bounds BENCHMARK.json]

workloads: mnist_b32 mnist_b256_dp2 resnet_b128_lars seq2seq_b16
defaults:  --seed 1234 --seconds 20 --trace 0 --out crates/perf/out";

/// `--flag value` pairs and bare positionals, in order.
struct Args {
    flags: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Self, String> {
        let mut flags = Vec::new();
        let mut positional = Vec::new();
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some("smoke") => flags.push(("smoke".to_string(), "1".to_string())),
                Some(name) => {
                    let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    flags.push((name.to_string(), value.clone()));
                }
                None => positional.push(a.clone()),
            }
        }
        Ok(Self { flags, positional })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot read {v:?}")),
        }
    }

    fn known(&self, allowed: &[&str]) -> Result<(), String> {
        match self
            .flags
            .iter()
            .find(|(n, _)| !allowed.contains(&n.as_str()))
        {
            Some((n, _)) => Err(format!("unknown option --{n}")),
            None => Ok(()),
        }
    }

    fn out_dir(&self) -> PathBuf {
        PathBuf::from(self.get("out").unwrap_or("crates/perf/out"))
    }
}

pub fn main(raw: Vec<String>) -> ExitCode {
    let result = match raw.first().map(String::as_str) {
        Some("run") => Args::parse(&raw[1..]).and_then(|a| run(&a)),
        Some("all") => Args::parse(&raw[1..]).and_then(|a| all(&a)),
        Some("compare") => Args::parse(&raw[1..]).and_then(|a| compare(&a)),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &Args) -> Result<bool, String> {
    args.known(&["workload", "seed", "seconds", "trace", "out", "smoke"])?;
    let seconds: f64 = args.number("seconds", 20.0)?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must lie in (0, 600], got {seconds}"));
    }
    let cfg = RunConfig {
        workload: args
            .get("workload")
            .ok_or("run needs --workload <name>")?
            .to_string(),
        seed: args.number("seed", 1234)?,
        seconds,
        trace: match args.get("trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
        },
        smoke: args.get("smoke").is_some(),
        out_dir: args.out_dir(),
    };
    let outcome = pipeline::run(&cfg)?;
    println!(
        "== {} (seed {}, {} s, trace {})",
        cfg.workload,
        cfg.seed,
        seconds,
        u8::from(cfg.trace)
    );
    outcome
        .metrics
        .print(if cfg.trace { "per layer" } else { "end to end" });
    if !cfg.trace {
        outcome.reconcile.print("driver against trainer");
    }
    outcome.checks.print();
    // The benchmark contract's result line: the last line of stdout.
    let line = Json::obj([
        ("correct", Json::Bool(outcome.checks.all_passed())),
        ("attempted", Json::Num(outcome.checks.attempted as f64)),
        ("failed", Json::Num(outcome.checks.failed as f64)),
        ("metrics", outcome.metrics.to_json()),
    ]);
    println!("{}", line.encode());
    Ok(outcome.checks.all_passed())
}

/// Per workload one untraced and one traced child process, then the
/// measured LEGW speedup.
fn all(args: &Args) -> Result<bool, String> {
    args.known(&["seed", "seconds", "out"])?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot find my own binary: {e}"))?;
    let out = args.out_dir();
    let mut ok = true;
    for (name, trace) in NAMES.iter().flat_map(|n| [(n, "0"), (n, "1")]) {
        let mut child = Command::new(&exe);
        child.args(["run", "--workload", name, "--trace", trace]);
        child.arg("--out").arg(&out);
        for flag in ["seed", "seconds"] {
            if let Some(v) = args.get(flag) {
                child.arg(format!("--{flag}")).arg(v);
            }
        }
        let status = child
            .status()
            .map_err(|e| format!("cannot start {name}: {e}"))?;
        if !status.success() {
            eprintln!("legw-perf: workload {name} (trace {trace}) failed ({status})");
            ok = false;
        }
    }
    if ok {
        print_speedup(&out)?;
    }
    Ok(ok)
}

fn print_speedup(out: &Path) -> Result<(), String> {
    // (train_to_target_s, final metric) of one workload's untraced run.
    let trained = |name: &str| -> Result<(f64, f64), String> {
        let result = read_json(&out.join(format!("result.{name}.json")))?;
        let value =
            |section: &str, metric: &str| result.get(section)?.get(metric)?.get("value")?.as_f64();
        value("end_to_end", "train_to_target_s")
            .zip(value("reconcile", "core.final_metric"))
            .ok_or_else(|| format!("result.{name}.json lacks the training time or final metric"))
    };
    let (small, large) = (trained("mnist_b32")?, trained("mnist_b256_dp2")?);
    println!("== measured LEGW speedup (same data, model, seed and epochs; reference seconds)");
    println!(
        "mnist_b32       batch 32, 1 shard     {:.4} s to accuracy {:.4}",
        small.0, small.1
    );
    println!(
        "mnist_b256_dp2  batch 256, 2 shards   {:.4} s to accuracy {:.4}",
        large.0, large.1
    );
    println!("speedup, base mnist_b32: {:.3}x", small.0 / large.0);
    Ok(())
}

fn compare(args: &Args) -> Result<bool, String> {
    args.known(&["bounds"])?;
    let [a, b] = args.positional.as_slice() else {
        return Err(USAGE.to_string());
    };
    let bounds = Path::new(args.get("bounds").unwrap_or("BENCHMARK.json"));
    crate::compare::compare(Path::new(a), Path::new(b), bounds)
}
