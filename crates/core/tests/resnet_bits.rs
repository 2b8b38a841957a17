//! ResNet's trained bits, pinned.
//!
//! The plan-vs-tape suites compare two paths that share every kernel, so a
//! change to a shared kernel — the convolutions' GEMMs and their pack loops,
//! BatchNorm's passes, eval-mode BatchNorm — is invisible to them. This
//! test trains the benchmark's ResNet configuration (width 8, 16×16 inputs,
//! 12 classes, batch 128, LARS under LEGW) for four steps on a small split,
//! evaluates once, and checks the loss bits, a parameter checksum and an
//! eval-logit checksum against constants recorded before those kernels were
//! rewritten. The same run on one, two and three shards pins the BatchNorm
//! running statistics, whose shard fold (per-shard momentum update, then
//! the example-weighted sum) no plan-vs-tape suite can see either.
//! `scripts/check.sh` runs it on every forced kernel tier.

use legw::trainer::ResnetWorkload;
use legw::{train, ExecConfig, Executor, TrainReport};
use legw_data::SynthImageNet;
use legw_models::{Infer, ResNet};
use legw_nn::ParamSet;
use legw_optim::{build, SolverKind};
use legw_schedules::{BaselineSchedule, Legw};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a over the bit patterns of `xs`: equal exactly when every bit is.
fn checksum<'a>(xs: impl IntoIterator<Item = &'a f32>) -> u64 {
    xs.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, x| {
        (h ^ u64::from(x.to_bits())).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Four LARS steps of the benchmark configuration on `shards` shards: the
/// report, the trained parameters and the model.
fn train_on(shards: usize) -> (SynthImageNet, TrainReport, ParamSet, ResNet) {
    let data = SynthImageNet::generate_sized(2601, 12, 256, 36, 16);
    let schedule = Legw::scale_to(&BaselineSchedule::poly(16, 4.0, 0.125, 8.0, 2.0), 128)
        .with_total_epochs(2.0);
    let mut rng = StdRng::seed_from_u64(2601);
    let mut ps = ParamSet::new();
    let mut model = ResNet::new(&mut ps, &mut rng, 8, data.n_classes);
    let mut opt = build(SolverKind::Lars, 1e-4);
    let exec = Executor::new(ExecConfig::default().with_shards(shards));
    let mut w = ResnetWorkload { model: &mut model, data: &data, top_k: 3 };
    let report = train(&mut w, &mut ps, opt.as_mut(), &schedule, &mut rng, &exec, |_, _| {});
    assert_eq!(report.iterations, 4);
    (data, report, ps, model)
}

/// `(running statistics, parameters)` checksums; the statistics run layer
/// by layer, each layer's mean before its variance.
fn state_checksums(ps: &ParamSet, model: &ResNet) -> (u64, u64) {
    let stats = model.bn_running_stats();
    let stats = checksum(stats.iter().flat_map(|(mean, var)| mean.iter().chain(var)));
    (stats, checksum(ps.iter().flat_map(|(_, p)| p.value.as_slice())))
}

#[test]
fn resnet_lars_training_keeps_its_bits() {
    let (data, report, ps, model) = train_on(1);
    let losses: Vec<u64> = report.epoch_losses.iter().map(|l| l.to_bits()).collect();
    let (stats, params) = state_checksums(&ps, &model);
    let (test, _) = data.test.gather(&(0..data.test.len()).collect::<Vec<_>>());
    let logits = model.infer_tape(&ps, &test);
    let eval = checksum(logits.iter().flat_map(|(row, ())| row));
    // 2.706401824951172 and 2.4287058115005493
    assert_eq!(losses, [0x4005_a6b6_0000_0000, 0x4003_6dfd_5000_0000], "epoch mean losses");
    assert_eq!(params, 0x4d88_2cb0_e631_f55d, "parameter checksum");
    assert_eq!(stats, 0xbcae_00e6_8c42_9be7, "running-statistics checksum");
    assert_eq!(eval, 0xefca_2e1b_ed97_6df7, "eval-logit checksum");
    assert_eq!(report.final_metric, 2.0 / 36.0, "top-1 on the 36 held-out images");
}

/// Two shards of 64 rows and three of 43, 43 and 42: the fold weights each
/// shard by its example fraction, which only unequal shards tell apart
/// from an even split.
#[test]
fn resnet_lars_sharded_training_keeps_its_bits() {
    let pins = [
        (2, 0xa7c7_8372_c17c_4b82, 0x55b2_52f2_44d7_0d2c),
        (3, 0x89e9_ece8_fee4_3d8d, 0xd3c2_68d0_86f8_89d2),
    ];
    for (shards, stats, params) in pins {
        let (_, _, ps, model) = train_on(shards);
        let got = state_checksums(&ps, &model);
        assert_eq!(got, (stats, params), "(running statistics, parameters) on {shards} shards");
    }
}
