//! Adaptive solvers: Adagrad, RMSprop, Adam, Adadelta.

use crate::Optimizer;
use legw_nn::ParamSet;
use legw_tensor::Tensor;

fn decayed_grad(ps: &ParamSet, idx: usize, weight_decay: f32) -> Tensor {
    let (_, p) = ps.iter().nth(idx).expect("param index in range");
    if weight_decay == 0.0 {
        p.grad.clone()
    } else {
        let mut g = p.grad.clone();
        g.axpy(weight_decay, &p.value);
        g
    }
}

/// Adagrad (Duchi et al. 2011): `acc += g²; w ← w − lr·g/(√acc + ε)`.
pub struct Adagrad {
    weight_decay: f32,
    eps: f32,
    acc: Vec<Option<Tensor>>,
}

impl Adagrad {
    /// Creates the solver.
    pub fn new(weight_decay: f32) -> Self {
        Self { weight_decay, eps: 1e-10, acc: Vec::new() }
    }
}

impl Optimizer for Adagrad {
    fn step(&mut self, ps: &mut ParamSet, lr: f32) {
        let n = ps.len();
        self.acc.resize(n, None);
        for i in 0..n {
            let g = decayed_grad(ps, i, self.weight_decay);
            let acc = self.acc[i].get_or_insert_with(|| g.zeros_like());
            acc.zip_inplace(&g, |a, gi| a + gi * gi);
            let eps = self.eps;
            let update = {
                let a = acc.as_slice();
                let gs = g.as_slice();
                Tensor::from_vec(
                    gs.iter().zip(a).map(|(&gi, &ai)| gi / (ai.sqrt() + eps)).collect(),
                    g.shape(),
                )
            };
            let (_, p) = ps.iter_mut().nth(i).unwrap();
            p.value.axpy(-lr, &update);
        }
    }

    fn name(&self) -> &'static str {
        "adagrad"
    }

    fn reset(&mut self) {
        self.acc.clear();
    }
}

/// RMSprop (Hinton): `acc ← ρ·acc + (1−ρ)·g²; w ← w − lr·g/(√acc + ε)`.
pub struct RmsProp {
    rho: f32,
    weight_decay: f32,
    eps: f32,
    acc: Vec<Option<Tensor>>,
}

impl RmsProp {
    /// Creates the solver with decay `rho` (paper default 0.9).
    pub fn new(rho: f32, weight_decay: f32) -> Self {
        Self { rho, weight_decay, eps: 1e-8, acc: Vec::new() }
    }
}

impl Optimizer for RmsProp {
    fn step(&mut self, ps: &mut ParamSet, lr: f32) {
        let n = ps.len();
        self.acc.resize(n, None);
        for i in 0..n {
            let g = decayed_grad(ps, i, self.weight_decay);
            let acc = self.acc[i].get_or_insert_with(|| g.zeros_like());
            let rho = self.rho;
            acc.zip_inplace(&g, |a, gi| rho * a + (1.0 - rho) * gi * gi);
            let eps = self.eps;
            let update = {
                let a = acc.as_slice();
                let gs = g.as_slice();
                Tensor::from_vec(
                    gs.iter().zip(a).map(|(&gi, &ai)| gi / (ai.sqrt() + eps)).collect(),
                    g.shape(),
                )
            };
            let (_, p) = ps.iter_mut().nth(i).unwrap();
            p.value.axpy(-lr, &update);
        }
    }

    fn name(&self) -> &'static str {
        "rmsprop"
    }

    fn reset(&mut self) {
        self.acc.clear();
    }
}

/// Adam (Kingma & Ba 2014) with bias correction.
pub struct Adam {
    beta1: f32,
    beta2: f32,
    weight_decay: f32,
    eps: f32,
    t: u64,
    m: Vec<Option<Tensor>>,
    v: Vec<Option<Tensor>>,
}

impl Adam {
    /// Creates the solver (paper default β₁ = 0.9, β₂ = 0.999).
    pub fn new(beta1: f32, beta2: f32, weight_decay: f32) -> Self {
        Self { beta1, beta2, weight_decay, eps: 1e-8, t: 0, m: Vec::new(), v: Vec::new() }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, ps: &mut ParamSet, lr: f32) {
        self.t += 1;
        let n = ps.len();
        self.m.resize(n, None);
        self.v.resize(n, None);
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for i in 0..n {
            let g = decayed_grad(ps, i, self.weight_decay);
            let (b1, b2) = (self.beta1, self.beta2);
            let m = self.m[i].get_or_insert_with(|| g.zeros_like());
            m.zip_inplace(&g, |mi, gi| b1 * mi + (1.0 - b1) * gi);
            let v = self.v[i].get_or_insert_with(|| g.zeros_like());
            v.zip_inplace(&g, |vi, gi| b2 * vi + (1.0 - b2) * gi * gi);
            let eps = self.eps;
            let update = {
                let ms = self.m[i].as_ref().unwrap().as_slice();
                let vs = self.v[i].as_ref().unwrap().as_slice();
                Tensor::from_vec(
                    ms.iter()
                        .zip(vs)
                        .map(|(&mi, &vi)| (mi / bc1) / ((vi / bc2).sqrt() + eps))
                        .collect(),
                    g.shape(),
                )
            };
            let (_, p) = ps.iter_mut().nth(i).unwrap();
            p.value.axpy(-lr, &update);
        }
    }

    fn name(&self) -> &'static str {
        "adam"
    }

    fn reset(&mut self) {
        self.t = 0;
        self.m.clear();
        self.v.clear();
    }
}

/// Adadelta (Zeiler 2012): requires no learning rate; the `lr` passed to
/// [`Optimizer::step`] acts as an optional multiplier (1.0 = pure Adadelta),
/// exactly how the paper uses it as a "no hyper-parameter" baseline.
pub struct Adadelta {
    rho: f32,
    weight_decay: f32,
    eps: f32,
    acc_g: Vec<Option<Tensor>>,
    acc_dx: Vec<Option<Tensor>>,
}

impl Adadelta {
    /// Creates the solver (paper default ρ = 0.95).
    pub fn new(rho: f32, weight_decay: f32) -> Self {
        Self { rho, weight_decay, eps: 1e-6, acc_g: Vec::new(), acc_dx: Vec::new() }
    }
}

impl Optimizer for Adadelta {
    fn step(&mut self, ps: &mut ParamSet, lr: f32) {
        let n = ps.len();
        self.acc_g.resize(n, None);
        self.acc_dx.resize(n, None);
        for i in 0..n {
            let g = decayed_grad(ps, i, self.weight_decay);
            let rho = self.rho;
            let eps = self.eps;
            let acc_g = self.acc_g[i].get_or_insert_with(|| g.zeros_like());
            acc_g.zip_inplace(&g, |a, gi| rho * a + (1.0 - rho) * gi * gi);
            self.acc_dx[i].get_or_insert_with(|| g.zeros_like());
            // Δx = −√(acc_dx + ε)/√(acc_g + ε) · g
            let delta = {
                let ag = self.acc_g[i].as_ref().unwrap().as_slice();
                let ad = self.acc_dx[i].as_ref().unwrap().as_slice();
                let gs = g.as_slice();
                Tensor::from_vec(
                    gs.iter()
                        .zip(ag.iter().zip(ad))
                        .map(|(&gi, (&agi, &adi))| -((adi + eps).sqrt() / (agi + eps).sqrt()) * gi)
                        .collect(),
                    g.shape(),
                )
            };
            let acc_dx = self.acc_dx[i].as_mut().unwrap();
            acc_dx.zip_inplace(&delta, |a, d| rho * a + (1.0 - rho) * d * d);
            let (_, p) = ps.iter_mut().nth(i).unwrap();
            p.value.axpy(lr, &delta); // delta already carries the minus sign
        }
    }

    fn name(&self) -> &'static str {
        "adadelta"
    }

    fn reset(&mut self) {
        self.acc_g.clear();
        self.acc_dx.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_param(v: f32, g: f32) -> (ParamSet, legw_nn::ParamId) {
        let mut ps = ParamSet::new();
        let id = ps.add("w", Tensor::from_vec(vec![v], &[1]));
        ps.get_mut(id).grad = Tensor::from_vec(vec![g], &[1]);
        (ps, id)
    }

    #[test]
    fn adagrad_first_step_is_lr_sign_g() {
        let (mut ps, id) = one_param(0.0, 4.0);
        Adagrad::new(0.0).step(&mut ps, 0.1);
        // g/(sqrt(g²)+ε) ≈ 1 ⇒ step ≈ lr
        assert!((ps.value(id).as_slice()[0] + 0.1).abs() < 1e-5);
    }

    #[test]
    fn adagrad_steps_shrink_over_time() {
        let (mut ps, id) = one_param(0.0, 1.0);
        let mut opt = Adagrad::new(0.0);
        let mut prev = 0.0f32;
        let mut deltas = Vec::new();
        for _ in 0..5 {
            ps.get_mut(id).grad = Tensor::from_vec(vec![1.0], &[1]);
            opt.step(&mut ps, 0.1);
            let now = ps.value(id).as_slice()[0];
            deltas.push((prev - now).abs());
            prev = now;
        }
        for w in deltas.windows(2) {
            assert!(w[1] < w[0], "adagrad effective step must decay: {deltas:?}");
        }
    }

    #[test]
    fn adam_first_step_equals_lr() {
        // bias correction makes the very first Adam step ≈ lr·sign(g)
        let (mut ps, id) = one_param(0.0, 0.01);
        Adam::new(0.9, 0.999, 0.0).step(&mut ps, 0.1);
        assert!((ps.value(id).as_slice()[0] + 0.1).abs() < 1e-3);
    }

    #[test]
    fn adam_scale_invariance_of_first_step() {
        // the first-step size is independent of gradient magnitude
        let (mut a, ia) = one_param(0.0, 1e-3);
        let (mut b, ib) = one_param(0.0, 1e3);
        Adam::new(0.9, 0.999, 0.0).step(&mut a, 0.1);
        Adam::new(0.9, 0.999, 0.0).step(&mut b, 0.1);
        let da = a.value(ia).as_slice()[0];
        let db = b.value(ib).as_slice()[0];
        assert!((da - db).abs() < 1e-4, "{da} vs {db}");
    }

    #[test]
    fn rmsprop_matches_hand_recurrence() {
        let (mut ps, id) = one_param(1.0, 2.0);
        let mut opt = RmsProp::new(0.9, 0.0);
        opt.step(&mut ps, 0.01);
        // acc = 0.1·4 = 0.4; w = 1 − 0.01·2/(√0.4+1e-8)
        let expect = 1.0 - 0.01 * 2.0 / 0.4f32.sqrt();
        assert!((ps.value(id).as_slice()[0] - expect).abs() < 1e-5);
    }

    #[test]
    fn adadelta_moves_without_lr_tuning() {
        let (mut ps, id) = one_param(5.0, 0.0);
        let mut opt = Adadelta::new(0.95, 0.0);
        for _ in 0..50 {
            let g = ps.value(id).clone();
            ps.get_mut(id).grad = g;
            opt.step(&mut ps, 1.0);
            ps.zero_grad();
        }
        let v = ps.value(id).as_slice()[0];
        assert!(v < 5.0 && v.is_finite(), "adadelta should make progress, got {v}");
    }

    #[test]
    fn weight_decay_pulls_toward_zero_for_all() {
        for mut opt in [
            Box::new(Adagrad::new(0.1)) as Box<dyn Optimizer>,
            Box::new(RmsProp::new(0.9, 0.1)),
            Box::new(Adam::new(0.9, 0.999, 0.1)),
        ] {
            let (mut ps, id) = one_param(1.0, 0.0);
            for _ in 0..20 {
                ps.get_mut(id).grad = Tensor::zeros(&[1]);
                opt.step(&mut ps, 0.05);
            }
            assert!(ps.value(id).as_slice()[0] < 1.0, "{} ignored weight decay", opt.name());
        }
    }
}
