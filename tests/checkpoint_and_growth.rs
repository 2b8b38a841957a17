//! Integration tests for the extension features: model checkpointing and
//! dynamic batch-size schedules.

use legw_repro::core::{ExecConfig, Executor};
use legw_repro::data::SynthMnist;
use legw_repro::models::MnistLstm;
use legw_repro::nn::{checkpoint, ParamSet};
use legw_repro::schedules::BatchGrowth;
use rand::{rngs::StdRng, SeedableRng};

#[test]
fn checkpoint_roundtrips_a_trained_model_and_preserves_predictions() {
    let data = SynthMnist::generate(31, 256, 64);
    let mut rng = StdRng::seed_from_u64(1);
    let mut ps = ParamSet::new();
    let model = MnistLstm::new(&mut ps, &mut rng, 16, 16);

    // a few steps of training so the weights are non-trivial
    let (bx, by) = data.train.gather(&(0..64).collect::<Vec<_>>());
    for _ in 0..5 {
        let (mut g, bd, loss, _) = model.forward_loss(&ps, &bx, &by);
        g.backward(loss);
        bd.write_grads(&g, &mut ps);
        for (_, p) in ps.iter_mut() {
            let gr = p.grad.clone();
            p.value.axpy(-0.3, &gr);
            p.grad.fill_(0.0);
        }
    }
    let exec = Executor::new(ExecConfig::default());
    let acc_before = exec.eval_mnist(&model, &ps, &data.test, 64);
    let blob = checkpoint::save(&ps);

    // fresh model with a different seed, then restore
    let mut rng2 = StdRng::seed_from_u64(999);
    let mut ps2 = ParamSet::new();
    let model2 = MnistLstm::new(&mut ps2, &mut rng2, 16, 16);
    let acc_fresh = exec.eval_mnist(&model2, &ps2, &data.test, 64);
    checkpoint::load(&mut ps2, &blob).expect("structural match");
    let acc_restored = exec.eval_mnist(&model2, &ps2, &data.test, 64);

    assert!((acc_restored - acc_before).abs() < 1e-12, "restored model must predict identically");
    // overwhelmingly likely distinct from the fresh random model
    assert!(
        (acc_fresh - acc_restored).abs() > 1e-9 || acc_fresh != acc_before,
        "restore visibly changed the model"
    );
}

#[test]
fn batch_growth_schedule_composes_with_epoch_arithmetic() {
    let g = BatchGrowth::new(32, vec![1.0, 2.0], 2, 512);
    // a 3-epoch run sees 32 → 64 → 128
    assert_eq!(g.batch_at_epoch(0.5), 32);
    assert_eq!(g.batch_at_epoch(1.5), 64);
    assert_eq!(g.batch_at_epoch(2.5), 128);
    // the equivalent LR factor halves at each step (linear-scaling duality)
    assert_eq!(g.equivalent_lr_factor(0.5), 1.0);
    assert_eq!(g.equivalent_lr_factor(1.5), 0.5);
    assert_eq!(g.equivalent_lr_factor(2.5), 0.25);
}
