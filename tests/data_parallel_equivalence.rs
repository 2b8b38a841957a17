//! Data-parallel equivalence: synchronous data parallelism computes the
//! average of per-worker gradients over equal shards, which must equal the
//! gradient of the whole batch. This is the property that makes the
//! cluster simulator's "global batch" abstraction faithful to what real
//! multi-device training computes — verified here through the full model
//! stack.

use legw_repro::data::SynthMnist;
use legw_repro::models::MnistLstm;
use legw_repro::nn::ParamSet;
use legw_repro::tensor::Tensor;
use rand::{rngs::StdRng, SeedableRng};

fn grads_for(model: &MnistLstm, ps: &ParamSet, bx: &Tensor, by: &[usize]) -> Vec<Tensor> {
    let mut scratch = ps.clone();
    scratch.zero_grad();
    let (mut g, bd, loss, _) = model.forward_loss(ps, bx, by);
    g.backward(loss);
    bd.write_grads(&g, &mut scratch);
    scratch.iter().map(|(_, p)| p.grad.clone()).collect()
}

#[test]
fn full_batch_gradient_equals_mean_of_worker_shards() {
    let data = SynthMnist::generate(41, 64, 8);
    let mut rng = StdRng::seed_from_u64(2);
    let mut ps = ParamSet::new();
    let model = MnistLstm::new(&mut ps, &mut rng, 12, 12);

    let idx: Vec<usize> = (0..32).collect();
    let (bx, by) = data.train.gather(&idx);
    let full = grads_for(&model, &ps, &bx, &by);

    // four "workers", eight samples each
    let workers = 4;
    let shard = 32 / workers;
    let mut accumulated: Vec<Tensor> = full.iter().map(|t| t.zeros_like()).collect();
    for w in 0..workers {
        let wi: Vec<usize> = (w * shard..(w + 1) * shard).collect();
        let (wx, wy) = data.train.gather(&wi);
        let wg = grads_for(&model, &ps, &wx, &wy);
        for (acc, g) in accumulated.iter_mut().zip(&wg) {
            acc.axpy(1.0 / workers as f32, g);
        }
    }

    for (i, (f, a)) in full.iter().zip(&accumulated).enumerate() {
        let diff = f.sub(a).l2_norm();
        let scale = f.l2_norm().max(1e-6);
        assert!(
            diff / scale < 1e-3,
            "param {i}: all-reduced gradient deviates by {:.2}% of norm",
            100.0 * diff / scale
        );
    }
}

#[test]
fn unequal_shards_do_not_average_to_the_full_gradient_naively() {
    // a negative control: the equivalence requires *equal* shards (or
    // sample-count weighting); naive averaging of unequal shards is biased.
    let data = SynthMnist::generate(42, 64, 8);
    let mut rng = StdRng::seed_from_u64(3);
    let mut ps = ParamSet::new();
    let model = MnistLstm::new(&mut ps, &mut rng, 12, 12);

    let (bx, by) = data.train.gather(&(0..30).collect::<Vec<_>>());
    let full = grads_for(&model, &ps, &bx, &by);

    // shards of 2 and 28 samples — naive (unweighted) mean is wrong
    let (x1, y1) = data.train.gather(&[0, 1]);
    let (x2, y2) = data.train.gather(&(2..30).collect::<Vec<_>>());
    let g1 = grads_for(&model, &ps, &x1, &y1);
    let g2 = grads_for(&model, &ps, &x2, &y2);

    let mut naive: Vec<Tensor> = full.iter().map(|t| t.zeros_like()).collect();
    for (acc, (a, b)) in naive.iter_mut().zip(g1.iter().zip(&g2)) {
        acc.axpy(0.5, a);
        acc.axpy(0.5, b);
    }
    let max_rel = full
        .iter()
        .zip(&naive)
        .map(|(f, n)| f.sub(n).l2_norm() / f.l2_norm().max(1e-6))
        .fold(0.0f32, f32::max);
    assert!(max_rel > 1e-3, "naive unweighted averaging of unequal shards should visibly deviate");

    // sample-count weighting restores the equivalence
    let mut weighted: Vec<Tensor> = full.iter().map(|t| t.zeros_like()).collect();
    for (acc, (a, b)) in weighted.iter_mut().zip(g1.iter().zip(&g2)) {
        acc.axpy(2.0 / 30.0, a);
        acc.axpy(28.0 / 30.0, b);
    }
    for (f, w) in full.iter().zip(&weighted) {
        assert!(f.sub(w).l2_norm() / f.l2_norm().max(1e-6) < 1e-3);
    }
}
