//! Large-batch language-model training: LEGW vs linear scaling.
//!
//! ```text
//! cargo run --release --example large_batch_lm
//! ```
//!
//! Reproduces the PTB story at example scale: an LSTM language model is
//! trained on a synthetic Markov corpus at batch scales ×1…×8. LEGW (√k LR,
//! k× warmup epochs) holds perplexity near the baseline, while the
//! once-standard linear scaling rule without warmup destabilises.

use legw_repro::core::trainer::train_ptb;
use legw_repro::data::SynthPtb;
use legw_repro::models::PtbLmConfig;
use legw_repro::optim::SolverKind;
use legw_repro::schedules::{scale_with, BaselineSchedule, Legw, ScalingRule, WarmupRule};

fn main() {
    let data = SynthPtb::generate(11, 64, 8, 40_000, 6_000);
    let cfg = PtbLmConfig { vocab: 64, embed: 32, hidden: 32, layers: 2, keep: 1.0 };
    let baseline = BaselineSchedule::exponential(8, 1.0, 0.1, 3.0, 2.0, 0.4);

    println!("corpus entropy floor: perplexity {:.2} (perfect model)", data.perplexity_floor());
    println!("{:>6}  {:>12}  {:>18}", "batch", "LEGW ppl", "linear-scaling ppl");
    for k in [1usize, 2, 4, 8] {
        let batch = 8 * k;
        let legw = Legw::scale_to(&baseline, batch);
        let linear = scale_with(&baseline, batch, ScalingRule::Linear, WarmupRule::None);

        let ppl_legw = train_ptb(&data, cfg, 16, &legw, SolverKind::Momentum, 3).final_metric;
        let rep_lin = train_ptb(&data, cfg, 16, &linear, SolverKind::Momentum, 3);
        let lin_str = if rep_lin.diverged {
            "diverged".to_string()
        } else {
            format!("{:.2}", rep_lin.final_metric)
        };
        println!("{batch:>6}  {ppl_legw:>12.2}  {lin_str:>18}");
    }
    println!("\nLower is better. LEGW needs no per-batch tuning; linear scaling without");
    println!("warmup overshoots as k grows — exactly Figure 6's contrast in the paper.");
}
