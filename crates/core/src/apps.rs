//! The Table 1 application registry: synthetic dataset parameters, tuned
//! baseline schedules, and a single `run` entry point for the experiment
//! harness.
//!
//! Baselines here play the role of the paper's hand-tuned small-batch
//! configurations (the paper's own Table 1 references). Every figure/table
//! harness derives its large-batch configurations from these via
//! [`legw_schedules::Legw`] or the comparison rules, exactly as the paper
//! prescribes — nothing downstream re-tunes per batch size.

use crate::trainer::{self, TrainReport};
use legw_data::{SynthImageNet, SynthMnist, SynthPtb, SynthTranslation};
use legw_models::{PtbLmConfig, Seq2SeqConfig};
use legw_optim::SolverKind;
use legw_schedules::BaselineSchedule;
use std::sync::OnceLock;

/// The five applications of Table 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum App {
    /// 1-layer LSTM on (synthetic) MNIST.
    MnistLstm,
    /// PTB-small language model.
    PtbSmall,
    /// PTB-large language model.
    PtbLarge,
    /// GNMT-style seq2seq.
    Gnmt,
    /// ResNet on (synthetic) ImageNet.
    ImageNet,
}

/// Whether larger metric values are better for an app.
pub fn higher_is_better(app: App) -> bool {
    !matches!(app, App::PtbSmall | App::PtbLarge)
}

/// Registry row: identification plus the tuned baseline.
#[derive(Clone, Debug)]
pub struct AppSpec {
    /// Which application.
    pub app: App,
    /// Display name.
    pub name: &'static str,
    /// Paper's dataset and sample counts (Table 1).
    pub paper_dataset: &'static str,
    /// Paper's quality target (Table 1).
    pub paper_target: &'static str,
    /// This repo's synthetic substitute, one line.
    pub substitute: &'static str,
    /// Metric name.
    pub metric: &'static str,
    /// The tuned small-batch baseline schedule.
    pub baseline: BaselineSchedule,
    /// Solver the paper uses for this app's LEGW runs.
    pub solver: SolverKind,
    /// Largest batch the experiments scale to (k × baseline).
    pub max_batch: usize,
}

/// The registry (Table 1 analogue).
pub fn registry() -> Vec<AppSpec> {
    vec![
        spec(App::MnistLstm),
        spec(App::PtbSmall),
        spec(App::PtbLarge),
        spec(App::Gnmt),
        spec(App::ImageNet),
    ]
}

/// Specification of one application.
pub fn spec(app: App) -> AppSpec {
    match app {
        App::MnistLstm => AppSpec {
            app,
            name: "mnist-lstm",
            paper_dataset: "MNIST 60K/10K",
            paper_target: "98.7% accuracy, 25 epochs, batch 128→8K",
            substitute: "SynthMnist 8192/1024, LSTM proj/hidden 32, 5 epochs, batch 32→256",
            metric: "test accuracy",
            baseline: BaselineSchedule::constant(32, 0.2, 0.0625, 5.0),
            solver: SolverKind::Momentum,
            max_batch: 256,
        },
        App::PtbSmall => AppSpec {
            app,
            name: "ptb-small",
            paper_dataset: "PTB 930K/82K words",
            paper_target: "116 perplexity, 13 epochs, batch 20→640",
            substitute: "SynthPtb vocab 64 (branch 8), LSTM 2×32, 5 epochs, batch 8→128",
            metric: "valid perplexity",
            baseline: BaselineSchedule::exponential(8, 1.0, 0.1, 5.0, 3.0, 0.4),
            solver: SolverKind::Momentum,
            max_batch: 128,
        },
        App::PtbLarge => AppSpec {
            app,
            name: "ptb-large",
            paper_dataset: "PTB 930K/82K words",
            paper_target: "78 perplexity, 55 epochs, batch 20→640",
            substitute: "SynthPtb vocab 160 (branch 12), LSTM 2×48, 6 epochs, batch 8→128, LARS",
            metric: "valid perplexity",
            baseline: BaselineSchedule::poly(8, 8.0, 0.1, 6.0, 2.0),
            solver: SolverKind::Lars,
            max_batch: 128,
        },
        App::Gnmt => AppSpec {
            app,
            name: "gnmt",
            paper_dataset: "WMT16 En-De 3.5M/3K",
            paper_target: "21.8 BLEU, batch 256→4K",
            substitute: "SynthTranslation 16 tokens, 4096/256 pairs, 2+2 LSTM w/ attention, 8 epochs, batch 16→128",
            metric: "test BLEU",
            baseline: BaselineSchedule::constant(16, 0.5, 0.05, 8.0),
            solver: SolverKind::Momentum,
            max_batch: 128,
        },
        App::ImageNet => AppSpec {
            app,
            name: "imagenet-resnet",
            paper_dataset: "ImageNet 1.3M/5K",
            paper_target: "93% top-5, 90 epochs, batch 1K→32K, LARS",
            substitute: "SynthImageNet 12 classes 1024/252 @16x16, ResNet-8 width 8, 8 epochs, batch 16→128, LARS",
            metric: "test top-1 (top-3 secondary)",
            baseline: BaselineSchedule::poly(16, 4.0, 0.125, 8.0, 2.0),
            solver: SolverKind::Lars,
            max_batch: 128,
        },
    }
}

// --- cached datasets (generation is deterministic; cache avoids repeating
// --- it across the dozens of runs in a sweep)

fn mnist_data() -> &'static SynthMnist {
    static D: OnceLock<SynthMnist> = OnceLock::new();
    D.get_or_init(|| SynthMnist::generate(1234, 8192, 1024))
}

fn ptb_small_data() -> &'static SynthPtb {
    static D: OnceLock<SynthPtb> = OnceLock::new();
    D.get_or_init(|| SynthPtb::generate(1234, 64, 8, 80_000, 10_000))
}

fn ptb_large_data() -> &'static SynthPtb {
    static D: OnceLock<SynthPtb> = OnceLock::new();
    D.get_or_init(|| SynthPtb::generate(4321, 160, 12, 60_000, 10_000))
}

fn gnmt_data() -> &'static SynthTranslation {
    static D: OnceLock<SynthTranslation> = OnceLock::new();
    D.get_or_init(|| SynthTranslation::generate_with(1234, 16, 4096, 256, 3, 5, false))
}

fn imagenet_data() -> &'static SynthImageNet {
    static D: OnceLock<SynthImageNet> = OnceLock::new();
    D.get_or_init(|| SynthImageNet::generate_sized(1234, 12, 1024, 252, 16))
}

/// Sequence length used by the PTB batchers.
pub const PTB_SEQ_LEN: usize = 16;

/// Runs one application under an arbitrary schedule and solver. This is the
/// single entry point every figure/table harness uses.
pub fn run(app: App, schedule: &BaselineSchedule, solver: SolverKind, seed: u64) -> TrainReport {
    match app {
        App::MnistLstm => trainer::train_mnist(mnist_data(), 32, 32, schedule, solver, seed),
        App::PtbSmall => trainer::train_ptb(
            ptb_small_data(),
            PtbLmConfig { vocab: 64, embed: 32, hidden: 32, layers: 2, keep: 1.0 },
            PTB_SEQ_LEN,
            schedule,
            solver,
            seed,
        ),
        App::PtbLarge => trainer::train_ptb(
            ptb_large_data(),
            PtbLmConfig { vocab: 160, embed: 48, hidden: 48, layers: 2, keep: 1.0 },
            PTB_SEQ_LEN,
            schedule,
            solver,
            seed,
        ),
        App::Gnmt => {
            let data = gnmt_data();
            trainer::train_seq2seq(
                data,
                Seq2SeqConfig { vocab: data.vocab, embed: 32, hidden: 32, attn: 24, max_decode: 8 },
                schedule,
                solver,
                seed,
            )
        }
        App::ImageNet => trainer::train_resnet(imagenet_data(), 8, 3, schedule, solver, 1e-4, seed),
    }
}

/// Perplexity floor of the PTB corpora (for EXPERIMENTS.md context).
pub fn ptb_floor(app: App) -> Option<f64> {
    match app {
        App::PtbSmall => Some(ptb_small_data().perplexity_floor()),
        App::PtbLarge => Some(ptb_large_data().perplexity_floor()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legw_schedules::Legw;

    #[test]
    fn registry_covers_table_1() {
        let r = registry();
        assert_eq!(r.len(), 5);
        let names: Vec<_> = r.iter().map(|s| s.name).collect();
        assert!(names.contains(&"mnist-lstm"));
        assert!(names.contains(&"gnmt"));
        assert!(names.contains(&"imagenet-resnet"));
    }

    #[test]
    fn max_batch_is_power_of_two_multiple_of_baseline() {
        for s in registry() {
            let k = s.max_batch / s.baseline.batch_size();
            assert!(k >= 8, "{}: scale factor {k} too small to be interesting", s.name);
            assert_eq!(s.max_batch % s.baseline.batch_size(), 0);
            assert!(k.is_power_of_two());
        }
    }

    #[test]
    fn legw_scaling_of_each_baseline_is_well_formed() {
        for s in registry() {
            let big = Legw::scale_to(&s.baseline, s.max_batch);
            assert!(big.peak_lr() > s.baseline.peak_lr());
            assert!(big.warmup_epochs() <= big.total_epochs(), "{}: warmup exceeds budget", s.name);
        }
    }

    #[test]
    fn direction_of_metrics() {
        assert!(higher_is_better(App::MnistLstm));
        assert!(higher_is_better(App::Gnmt));
        assert!(!higher_is_better(App::PtbSmall));
        assert!(!higher_is_better(App::PtbLarge));
        assert!(higher_is_better(App::ImageNet));
    }

    #[test]
    fn ptb_floors_are_sane() {
        let f_small = ptb_floor(App::PtbSmall).unwrap();
        let f_large = ptb_floor(App::PtbLarge).unwrap();
        assert!(f_small > 1.0 && f_small < 50.0);
        assert!(f_large > 1.0 && f_large < 60.0);
        assert!(ptb_floor(App::Gnmt).is_none());
    }
}
