//! Parameter storage and the per-step tape binding.

use legw_autograd::{Graph, Var};
use legw_tensor::Tensor;

/// One trainable parameter: its current value and accumulated gradient.
#[derive(Clone)]
pub struct Param {
    /// Human-readable dotted name, e.g. `"encoder.lstm0.w"`.
    pub name: String,
    /// Current value.
    pub value: Tensor,
    /// Gradient accumulated by the last backward pass(es).
    pub grad: Tensor,
}

/// Index of a parameter inside a [`ParamSet`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

/// The central store of all trainable parameters of a model.
///
/// Layers register parameters at construction time and keep the returned
/// [`ParamId`]s; optimizers iterate the store; [`Binding`] connects it to a
/// tape for one forward/backward pass.
#[derive(Default, Clone)]
pub struct ParamSet {
    params: Vec<Param>,
}

impl ParamSet {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter initialised to `value`.
    pub fn add(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        let grad = value.zeros_like();
        self.params.push(Param { name: name.into(), value, grad });
        ParamId(self.params.len() - 1)
    }

    /// Number of registered parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// True if no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Total number of scalar weights.
    pub fn num_scalars(&self) -> usize {
        self.params.iter().map(|p| p.value.numel()).sum()
    }

    /// Immutable access to a parameter.
    pub fn get(&self, id: ParamId) -> &Param {
        &self.params[id.0]
    }

    /// Mutable access to a parameter.
    pub fn get_mut(&mut self, id: ParamId) -> &mut Param {
        &mut self.params[id.0]
    }

    /// The value tensor of `id`.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.params[id.0].value
    }

    /// Iterates over all parameters.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &Param)> {
        self.params.iter().enumerate().map(|(i, p)| (ParamId(i), p))
    }

    /// Iterates mutably over all parameters.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (ParamId, &mut Param)> {
        self.params.iter_mut().enumerate().map(|(i, p)| (ParamId(i), p))
    }

    /// Zeroes every gradient buffer.
    pub fn zero_grad(&mut self) {
        for p in &mut self.params {
            p.grad.fill_(0.0);
        }
    }

    /// Scales every gradient by `s` (used to average gradient accumulation
    /// over micro-batches).
    pub fn scale_grads(&mut self, s: f32) {
        for p in &mut self.params {
            p.grad.scale_inplace(s);
        }
    }

    /// Global ℓ₂ norm over all gradients.
    pub fn grad_norm(&self) -> f32 {
        self.params
            .iter()
            .map(|p| {
                let n = p.grad.l2_norm() as f64;
                n * n
            })
            .sum::<f64>()
            .sqrt() as f32
    }

    /// Global ℓ₂ norm over all parameter values.
    pub fn value_norm(&self) -> f32 {
        self.params
            .iter()
            .map(|p| {
                let n = p.value.l2_norm() as f64;
                n * n
            })
            .sum::<f64>()
            .sqrt() as f32
    }

    /// Clips the global gradient norm to `max_norm` (no-op when below).
    /// Returns the pre-clip norm.
    pub fn clip_grad_norm(&mut self, max_norm: f32) -> f32 {
        let norm = self.grad_norm();
        self.clip_grad_norm_from(norm, max_norm)
    }

    /// [`ParamSet::clip_grad_norm`] with the global norm already known —
    /// e.g. accumulated for free during the executor's gradient apply
    /// ([`crate::GradBuffer::apply_with_sq_norm`]) — so clipping costs no
    /// extra sweep over every parameter. Returns the (pre-clip) norm.
    pub fn clip_grad_norm_from(&mut self, norm: f32, max_norm: f32) -> f32 {
        if norm > max_norm && norm > 0.0 {
            self.scale_grads(max_norm / norm);
        }
        norm
    }

    /// True if any parameter value is NaN/±Inf — the per-step divergence
    /// scan of the training loop. Chunked scan exploiting `x * 0.0`: the
    /// product is ±0 for every finite x and NaN for NaN/±Inf, so a chunk is
    /// all-finite iff the sum of products compares equal to zero.
    /// Branch-free per element (vectorises), and — unlike a
    /// `value_norm().is_finite()` proxy — cannot overflow to Inf on
    /// large-but-finite parameters and falsely flag divergence.
    pub fn has_nonfinite_value(&self) -> bool {
        self.params.iter().any(|p| {
            p.value.as_slice().chunks(4096).any(|c| c.iter().map(|&v| v * 0.0).sum::<f32>() != 0.0)
        })
    }

    /// Flat copy of all parameter values (for checkpoint/perturb-restore in
    /// the Lipschitz estimator).
    pub fn snapshot(&self) -> Vec<Tensor> {
        self.params.iter().map(|p| p.value.clone()).collect()
    }

    /// Restores values captured by [`ParamSet::snapshot`].
    pub fn restore(&mut self, snap: &[Tensor]) {
        assert_eq!(snap.len(), self.params.len(), "snapshot arity mismatch");
        for (p, s) in self.params.iter_mut().zip(snap) {
            assert_eq!(p.value.shape(), s.shape(), "snapshot shape mismatch for {}", p.name);
            p.value = s.clone();
        }
    }

    /// Moves every parameter along its gradient direction:
    /// `value += alpha * grad` (used for finite-difference Hessian probes).
    pub fn perturb_along_grad(&mut self, alpha: f32) {
        for p in &mut self.params {
            let g = p.grad.clone();
            p.value.axpy(alpha, &g);
        }
    }
}

/// Maps parameters onto tape variables for one forward/backward pass.
///
/// Binding the same parameter twice returns the same [`Var`], so weight
/// sharing (LSTM steps, tied embeddings) accumulates gradients on a single
/// tape node.
#[derive(Default)]
pub struct Binding {
    bound: Vec<(ParamId, Var)>,
}

impl Binding {
    /// An empty binding (create one per tape).
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the tape variable for `id`, creating the leaf on first use.
    pub fn bind(&mut self, g: &mut Graph, ps: &ParamSet, id: ParamId) -> Var {
        if let Some(&(_, v)) = self.bound.iter().find(|(pid, _)| *pid == id) {
            return v;
        }
        let v = g.param(ps.value(id).clone());
        self.bound.push((id, v));
        v
    }

    /// Number of distinct parameters bound so far.
    pub fn len(&self) -> usize {
        self.bound.len()
    }

    /// Every `(parameter, tape variable)` pair in binding order. This is
    /// the positional parameter signature a captured
    /// [`legw_autograd::Plan`] replays against: feed
    /// `ps.value(id)` per pair at replay, read `plan.param_grad(k)` back
    /// into `id` afterwards.
    pub fn bound(&self) -> &[(ParamId, Var)] {
        &self.bound
    }

    /// True if nothing is bound.
    pub fn is_empty(&self) -> bool {
        self.bound.is_empty()
    }

    /// Accumulates tape gradients back into the parameter store after
    /// [`Graph::backward`]. Parameters that received no gradient are left
    /// untouched.
    pub fn write_grads(&self, g: &Graph, ps: &mut ParamSet) {
        for &(id, var) in &self.bound {
            if let Some(grad) = g.grad(var) {
                ps.get_mut(id).grad.axpy(1.0, grad);
            }
        }
    }

    /// Like [`Binding::write_grads`], but accumulates into a detached
    /// [`GradBuffer`](crate::GradBuffer) instead of the parameter store.
    /// Visits parameters in the same binding order, so a single-shard
    /// buffer applied to a zeroed `ParamSet` reproduces `write_grads`
    /// bit-for-bit. This is what lets data-parallel shard workers run
    /// backward passes without sharing `&mut ParamSet`.
    pub fn write_grads_to(&self, g: &Graph, buf: &mut crate::GradBuffer) {
        for &(id, var) in &self.bound {
            if let Some(grad) = g.grad(var) {
                buf.accumulate(id, grad);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_lookup() {
        let mut ps = ParamSet::new();
        let id = ps.add("w", Tensor::ones(&[2, 3]));
        assert_eq!(ps.len(), 1);
        assert_eq!(ps.num_scalars(), 6);
        assert_eq!(ps.get(id).name, "w");
        assert_eq!(ps.value(id).shape(), &[2, 3]);
    }

    #[test]
    fn zero_and_scale_grads() {
        let mut ps = ParamSet::new();
        let id = ps.add("w", Tensor::ones(&[2]));
        ps.get_mut(id).grad = Tensor::from_vec(vec![2.0, -4.0], &[2]);
        ps.scale_grads(0.5);
        assert_eq!(ps.get(id).grad.as_slice(), &[1.0, -2.0]);
        ps.zero_grad();
        assert_eq!(ps.get(id).grad.as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn clip_grad_norm_behaviour() {
        let mut ps = ParamSet::new();
        let id = ps.add("w", Tensor::zeros(&[2]));
        ps.get_mut(id).grad = Tensor::from_vec(vec![3.0, 4.0], &[2]); // norm 5
        let pre = ps.clip_grad_norm(1.0);
        assert!((pre - 5.0).abs() < 1e-6);
        assert!((ps.grad_norm() - 1.0).abs() < 1e-6);
        // below threshold: untouched
        let pre2 = ps.clip_grad_norm(10.0);
        assert!((pre2 - 1.0).abs() < 1e-6);
        assert!((ps.grad_norm() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn clip_grad_norm_from_matches_clip_grad_norm() {
        let grads = [vec![3.0f32, 4.0], vec![0.5, 0.5]]; // above / below threshold
        for gv in grads {
            let mut a = ParamSet::new();
            let ia = a.add("w", Tensor::zeros(&[2]));
            a.get_mut(ia).grad = Tensor::from_vec(gv.clone(), &[2]);
            let mut b = a.clone();
            let na = a.clip_grad_norm(1.0);
            let nb = b.clip_grad_norm_from(b.grad_norm(), 1.0);
            assert_eq!(na, nb);
            assert_eq!(a.get(ia).grad.as_slice(), b.get(ia).grad.as_slice());
        }
    }

    #[test]
    fn binding_dedupes_and_accumulates_shared_weights() {
        let mut ps = ParamSet::new();
        let id = ps.add("w", Tensor::from_vec(vec![2.0], &[1]));
        let mut g = Graph::new();
        let mut b = Binding::new();
        let v1 = b.bind(&mut g, &ps, id);
        let v2 = b.bind(&mut g, &ps, id);
        assert_eq!(v1, v2, "same param must bind to same Var");
        // loss = w*w ⇒ dw = 2w = 4
        let y = g.mul(v1, v2);
        g.backward(y);
        b.write_grads(&g, &mut ps);
        assert_eq!(ps.get(id).grad.as_slice(), &[4.0]);
    }

    #[test]
    fn write_grads_accumulates_across_tapes() {
        let mut ps = ParamSet::new();
        let id = ps.add("w", Tensor::from_vec(vec![1.0], &[1]));
        for _ in 0..3 {
            let mut g = Graph::new();
            let mut b = Binding::new();
            let v = b.bind(&mut g, &ps, id);
            let s = g.sum_all(v);
            g.backward(s);
            b.write_grads(&g, &mut ps);
        }
        assert_eq!(ps.get(id).grad.as_slice(), &[3.0]);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut ps = ParamSet::new();
        let id = ps.add("w", Tensor::from_vec(vec![1.0, 2.0], &[2]));
        let snap = ps.snapshot();
        ps.get_mut(id).value = Tensor::from_vec(vec![9.0, 9.0], &[2]);
        ps.restore(&snap);
        assert_eq!(ps.value(id).as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn perturb_along_grad_moves_values() {
        let mut ps = ParamSet::new();
        let id = ps.add("w", Tensor::from_vec(vec![1.0, 1.0], &[2]));
        ps.get_mut(id).grad = Tensor::from_vec(vec![1.0, -1.0], &[2]);
        ps.perturb_along_grad(0.5);
        assert_eq!(ps.value(id).as_slice(), &[1.5, 0.5]);
    }

    #[test]
    fn has_nonfinite_value_detects_nan_and_inf_but_not_large_finite_values() {
        let mut ps = ParamSet::new();
        // Longer than one 4096-element scan chunk, at the largest finite
        // magnitude (whose norm overflows f32).
        let id = ps.add("w", Tensor::from_vec(vec![f32::MAX; 5000], &[5000]));
        assert!(!ps.has_nonfinite_value());
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            for at in [0usize, 4999] {
                let mut v = vec![-f32::MAX; 5000];
                v[at] = bad;
                ps.get_mut(id).value = Tensor::from_vec(v, &[5000]);
                assert!(ps.has_nonfinite_value(), "{bad} at {at}");
            }
        }
        // Gradients are not scanned: the loop checks values only.
        ps.get_mut(id).value = Tensor::ones(&[5000]);
        ps.get_mut(id).grad = Tensor::from_vec(vec![f32::NAN; 5000], &[5000]);
        assert!(!ps.has_nonfinite_value());
    }
}
