//! Ablations of the design choices DESIGN.md calls out — not paper figures,
//! but the studies a reviewer would ask for:
//!
//! * **warmup ablation** — at the largest batch, LEGW with its warmup vs
//!   the identical schedule with warmup removed, isolating what the
//!   *linear-epoch warmup* half of LEGW contributes beyond √k scaling;
//! * **scaling-rule ablation** — sqrt vs linear vs identity LR scaling,
//!   all *with* linear-epoch warmup, isolating the other half;
//! * **batch-growth ablation** — the Smith-et-al. alternative (grow the
//!   batch at milestones instead of decaying the LR), trained with a real
//!   loop over the MNIST app components.

use crate::{quick_mode, Table};
use legw::apps::{self, App};
use legw::{ExecConfig, Executor};
use legw_data::SynthMnist;
use legw_models::MnistLstm;
use legw_nn::ParamSet;
use legw_optim::{build, SolverKind};
use legw_schedules::{
    scale_with, BaselineSchedule, BatchGrowth, Legw, ScalingRule, WarmupRule, WarmupShape,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Warmup ablation at the largest certified batch of each LSTM app.
/// Returns `(app, with_warmup, without_warmup)`.
pub fn warmup_ablation(seed: u64) -> Vec<(&'static str, f64, f64)> {
    let mut t = Table::new(
        "Ablation — the linear-epoch warmup half of LEGW (√k scaling in both columns)",
        &["app", "batch", "with warmup", "without warmup"],
    );
    let mut out = Vec::new();
    for (app, name) in [(App::MnistLstm, "mnist (acc)"), (App::PtbSmall, "ptb-small (ppl)")] {
        let spec = apps::spec(app);
        let batch = if quick_mode() { spec.baseline.batch_size() * 4 } else { spec.max_batch };
        let with = Legw::scale_to(&spec.baseline, batch);
        let without = scale_with(&spec.baseline, batch, ScalingRule::Sqrt, WarmupRule::None);
        let m_with = apps::run(app, &with, spec.solver, seed).final_metric;
        let m_without = apps::run(app, &without, spec.solver, seed).final_metric;
        t.row(vec![
            name.into(),
            batch.to_string(),
            format!("{m_with:.4}"),
            format!("{m_without:.4}"),
        ]);
        out.push((name, m_with, m_without));
    }
    t.emit("ablation_warmup");
    out
}

/// Scaling-rule ablation: sqrt vs linear vs identity (all with
/// linear-epoch warmup) at the largest batch.
pub fn scaling_rule_ablation(seed: u64) -> Vec<(&'static str, f64, f64, f64)> {
    let mut t = Table::new(
        "Ablation — LR scaling rule under linear-epoch warmup",
        &["app", "batch", "sqrt (LEGW)", "linear", "identity"],
    );
    let mut out = Vec::new();
    for (app, name) in [(App::MnistLstm, "mnist (acc)"), (App::PtbSmall, "ptb-small (ppl)")] {
        let spec = apps::spec(app);
        let batch = if quick_mode() { spec.baseline.batch_size() * 4 } else { spec.max_batch };
        let metrics: Vec<f64> = [ScalingRule::Sqrt, ScalingRule::Linear, ScalingRule::Identity]
            .iter()
            .map(|&rule| {
                let s = scale_with(&spec.baseline, batch, rule, WarmupRule::LinearEpochs);
                apps::run(app, &s, spec.solver, seed).final_metric
            })
            .collect();
        t.row(vec![
            name.into(),
            batch.to_string(),
            format!("{:.4}", metrics[0]),
            format!("{:.4}", metrics[1]),
            format!("{:.4}", metrics[2]),
        ]);
        out.push((name, metrics[0], metrics[1], metrics[2]));
    }
    t.emit("ablation_scaling_rule");
    out
}

/// Batch-growth vs LR-decay (Smith et al., reference \[27\] of the paper):
/// train the MNIST-LSTM with
/// (a) fixed batch + step LR decay and (b) growing batch + constant LR,
/// matched so the noise-scale trajectory is linear-scaling-equivalent.
/// Returns `(lr_decay_acc, batch_growth_acc)`.
pub fn batch_growth_ablation(seed: u64) -> (f64, f64) {
    let data = SynthMnist::generate(555, 2048, 512);
    let epochs = 4.0;
    let base_batch = 32;
    let milestones = vec![2.0, 3.0];
    let gamma = 0.5;

    // (a) fixed batch, LR halved at each milestone
    let lr_decay =
        BaselineSchedule::multistep(base_batch, 0.2, 0.0625, epochs, milestones.clone(), gamma);
    let acc_decay =
        legw::trainer::train_mnist(&data, 24, 24, &lr_decay, SolverKind::Momentum, seed)
            .final_metric;

    // (b) constant LR, batch doubled at each milestone (linear-scaling
    // equivalent of halving the LR)
    let growth = BatchGrowth::new(base_batch, milestones, 2, 128);
    let acc_growth = train_mnist_with_batch_growth(&data, 24, 24, 0.2, epochs, &growth, seed);

    let mut t = Table::new(
        "Ablation — decay the LR vs grow the batch (Smith et al.)",
        &["strategy", "final batch", "accuracy"],
    );
    t.row(vec!["multistep LR decay".into(), base_batch.to_string(), format!("{acc_decay:.4}")]);
    t.row(vec![
        "batch growth, constant LR".into(),
        growth.max_batch().to_string(),
        format!("{acc_growth:.4}"),
    ]);
    t.emit("ablation_batch_growth");
    (acc_decay, acc_growth)
}

/// A training loop with a dynamic batch size (`legw::trainer::train` runs
/// at the schedule's one batch size; this demonstrates the same components
/// composing into the Smith-et-al. regime).
fn train_mnist_with_batch_growth(
    data: &SynthMnist,
    proj: usize,
    hidden: usize,
    lr: f64,
    epochs: f64,
    growth: &BatchGrowth,
    seed: u64,
) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ps = ParamSet::new();
    let model = MnistLstm::new(&mut ps, &mut rng, proj, hidden);
    let mut opt = build(SolverKind::Momentum, 0.0);

    let n = data.train.len();
    let mut samples_seen = 0usize;
    let total_samples = (epochs * n as f64) as usize;
    while samples_seen < total_samples {
        let epoch_pos = samples_seen as f64 / n as f64;
        let batch = growth.batch_at_epoch(epoch_pos);
        for (bx, by) in data.train.epoch_batches(batch, &mut rng) {
            if samples_seen >= total_samples {
                break;
            }
            // brief warmup ramp like the LR-decay arm's
            let e = samples_seen as f64 / n as f64;
            let ramp = (e / 0.0625).min(1.0);
            let (mut g, bd, loss, _) = model.forward_loss(&ps, &bx, &by);
            if !g.value(loss).item().is_finite() {
                return 0.0;
            }
            g.backward(loss);
            bd.write_grads(&g, &mut ps);
            ps.clip_grad_norm(legw::trainer::RNN_CLIP);
            opt.step(&mut ps, (lr * ramp) as f32);
            ps.zero_grad();
            samples_seen += by.len();
            // batch may have grown mid-epoch: restart the epoch iterator
            if growth.batch_at_epoch(samples_seen as f64 / n as f64) != batch {
                break;
            }
        }
    }
    Executor::new(ExecConfig::default()).eval_mnist(&model, &ps, &data.test, 256)
}

/// Warmup-ramp shape ablation: LEGW with its linear ramp vs the slow-start
/// exponential ramp, at the largest batch of the two LSTM apps.
pub fn warmup_shape_ablation(seed: u64) -> Vec<(&'static str, f64, f64)> {
    let mut t = Table::new(
        "Ablation — warmup ramp shape under LEGW (linear is the paper's choice)",
        &["app", "batch", "linear ramp", "exponential ramp"],
    );
    let mut out = Vec::new();
    for (app, name) in [(App::MnistLstm, "mnist (acc)"), (App::PtbSmall, "ptb-small (ppl)")] {
        let spec = apps::spec(app);
        let batch = if quick_mode() { spec.baseline.batch_size() * 4 } else { spec.max_batch };
        let lin = Legw::scale_to(&spec.baseline, batch);
        let exp = lin.with_warmup_shape(WarmupShape::Exponential);
        let m_lin = apps::run(app, &lin, spec.solver, seed).final_metric;
        let m_exp = apps::run(app, &exp, spec.solver, seed).final_metric;
        t.row(vec![name.into(), batch.to_string(), format!("{m_lin:.4}"), format!("{m_exp:.4}")]);
        out.push((name, m_lin, m_exp));
    }
    t.emit("ablation_warmup_shape");
    out
}

/// Runs all ablations.
pub fn all(seed: u64) {
    warmup_ablation(seed);
    scaling_rule_ablation(seed);
    warmup_shape_ablation(seed);
    batch_growth_ablation(seed);
}
