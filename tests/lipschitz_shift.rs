//! Integration test for the paper's §4 explanation (Figure 3): the
//! high-curvature region of the loss landscape arrives later — measured in
//! epochs — as the batch size grows, which is why warmup must lengthen
//! linearly in epochs.

use legw_repro::core::lipschitz::{local_lipschitz, mnist_lipschitz_trace, LipschitzSample};
use legw_repro::data::SynthMnist;
use legw_repro::nn::ParamSet;
use legw_repro::optim::SolverKind;
use legw_repro::schedules::{BaselineSchedule, Legw};
use legw_repro::tensor::Tensor;

fn dip_epoch(trace: &[LipschitzSample]) -> f64 {
    trace.iter().min_by(|a, b| a.value.total_cmp(&b.value)).map(|s| s.epoch).unwrap_or(0.0)
}

#[test]
fn curvature_landmarks_shift_right_with_batch() {
    let data = SynthMnist::generate(777, 1024, 128);
    let base = BaselineSchedule::constant(32, 0.05, 0.0, 2.5);
    let mut dips = Vec::new();
    for &batch in &[32usize, 128] {
        let sched = Legw::scale_to(&base, batch);
        let ipe = 1024usize.div_ceil(batch);
        let trace =
            mnist_lipschitz_trace(&data, 16, 16, &sched, SolverKind::Sgd, 3, (ipe / 12).max(1), 96);
        assert!(trace.len() >= 8, "batch {batch}: too few probes");
        dips.push(dip_epoch(&trace));
    }
    assert!(dips[1] > dips[0], "L(x,g) dip should arrive later (epochs) at 4x batch: {dips:?}");
}

#[test]
fn estimator_restores_parameters_exactly() {
    // the probe must be side-effect free even through a full model grad_fn
    use rand::SeedableRng;
    let data = SynthMnist::generate(5, 64, 16);
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let mut ps = ParamSet::new();
    let model = legw_repro::models::MnistLstm::new(&mut ps, &mut rng, 12, 12);
    let (bx, by) = data.train.gather(&[0, 1, 2, 3]);
    let before: Vec<Tensor> = ps.snapshot();
    let mut grad_fn = |ps: &mut ParamSet| {
        let (mut g, bd, loss, _) = model.forward_loss(ps, &bx, &by);
        g.backward(loss);
        bd.write_grads(&g, ps);
    };
    let l = local_lipschitz(&mut ps, 1e-2, &mut grad_fn);
    assert!(l.is_finite() && l >= 0.0);
    for (snap, (_, p)) in before.iter().zip(ps.iter()) {
        assert_eq!(snap.as_slice(), p.value.as_slice(), "parameter {} mutated", p.name);
        assert_eq!(p.grad.l2_norm(), 0.0, "gradients not cleared");
    }
}
