//! End-to-end smoke training for every model family through the meta-crate
//! public API, at the smallest sizes that still demonstrate learning.

use legw_repro::core::trainer::{train_resnet, train_seq2seq};
use legw_repro::data::{SynthImageNet, SynthTranslation};
use legw_repro::models::Seq2SeqConfig;
use legw_repro::optim::SolverKind;
use legw_repro::schedules::BaselineSchedule;

#[test]
fn seq2seq_learns_toy_language_to_nonzero_bleu() {
    let data = SynthTranslation::generate_with(9, 12, 768, 64, 3, 5, false);
    let cfg = Seq2SeqConfig { vocab: data.vocab, embed: 24, hidden: 24, attn: 16, max_decode: 7 };
    let sched = BaselineSchedule::constant(16, 0.5, 0.05, 9.0);
    let rep = train_seq2seq(&data, cfg, &sched, SolverKind::Momentum, 4);
    assert!(!rep.diverged);
    assert!(
        rep.final_metric > 20.0,
        "seq2seq should reach BLEU > 20 on the easy language, got {:.1}",
        rep.final_metric
    );
    // loss history is meaningful and decreasing overall
    assert!(rep.epoch_losses.first().unwrap() > rep.epoch_losses.last().unwrap());
}

#[test]
fn resnet_lars_learns_textures_above_chance() {
    let data = SynthImageNet::generate_sized(10, 6, 360, 90, 16);
    let sched = BaselineSchedule::poly(16, 4.0, 0.125, 4.0, 2.0);
    let rep = train_resnet(&data, 6, 3, &sched, SolverKind::Lars, 1e-4, 11);
    assert!(!rep.diverged);
    assert!(
        rep.final_metric > 0.4,
        "ResNet+LARS top-1 {:.3} should be well above chance 0.167",
        rep.final_metric
    );
    let top3 = rep.secondary_metric.unwrap();
    assert!(top3 >= rep.final_metric);
}

#[test]
fn all_seven_solvers_train_the_same_model() {
    // §5.2 evaluates seven solvers; every one must be able to make progress
    // on the same small classification task through the same API.
    use legw_repro::core::trainer::train_mnist;
    use legw_repro::data::SynthMnist;
    let data = SynthMnist::generate(11, 512, 128);
    for (kind, lr) in [
        (SolverKind::Sgd, 0.4),
        (SolverKind::Momentum, 0.2),
        (SolverKind::Nesterov, 0.2),
        (SolverKind::Adagrad, 0.05),
        (SolverKind::RmsProp, 0.002),
        (SolverKind::Adam, 0.002),
        (SolverKind::Adadelta, 1.0),
        (SolverKind::Lars, 4.0),
    ] {
        let sched = BaselineSchedule::constant(32, lr, 0.1, 4.0);
        let rep = train_mnist(&data, 16, 16, &sched, kind, 3);
        assert!(!rep.diverged, "{kind:?} diverged");
        assert!(rep.final_metric > 0.2, "{kind:?} failed to beat chance: {:.3}", rep.final_metric);
    }
}
