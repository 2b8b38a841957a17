//! Inverted-dropout layer with counter-based mask streams.
//!
//! The data-parallel executor replays each batch shard on an arbitrary
//! worker thread and demands that a shard's forward pass be a pure function
//! of `(parameters, shard data, step)`. A stateful mask RNG breaks that in
//! two ways: interior mutability makes the layer `!Sync`, and the stream
//! position depends on how many masks other shards have drawn. This layer
//! therefore owns *no* RNG state at all — each mask row is generated by a
//! stateless counter-based generator ([`CellRng::for_stream`]) keyed on
//! `(seed, step, global row, site)`:
//!
//! * `seed`/`step` come from the trainer via [`DropCtx`], so masks differ
//!   across steps but replay exactly on a rerun;
//! * the **global** row index (shard row offset [`DropCtx::row0`] + local
//!   row) makes each example's mask independent of how the batch was
//!   sharded — gradients under `shards = 1, 2, 4, …` are built from the
//!   same masks, which is what the shard-invariance tests assert;
//! * `site` distinguishes the dropout applications inside one forward pass
//!   (e.g. per-timestep embedding vs pre-head sites in the PTB LM).

use legw_autograd::{Graph, Var};
use legw_tensor::Tensor;

/// Per-step dropout context handed down from the trainer: identifies the
/// mask stream without any mutable state. Shards of one batch share
/// `seed`/`step` and differ only in [`DropCtx::row0`].
#[derive(Clone, Copy, Debug)]
pub struct DropCtx {
    /// Run seed (fixed for a training run).
    pub seed: u64,
    /// Optimizer-step counter (fresh masks every step).
    pub step: u64,
    /// Global index of this shard's first batch row — local row `r` draws
    /// from stream `row0 + r`, so masks are shard-layout-invariant.
    pub row0: usize,
}

/// Stateless counter-based mask generator: a splitmix64-style bijective
/// mixer over the stream key, iterated per element. Same key → same mask
/// bits, on any thread, in any order.
pub struct CellRng(u64);

impl CellRng {
    /// The generator for one `(seed, step, row, site)` stream.
    pub fn for_stream(seed: u64, step: u64, row: u64, site: u64) -> Self {
        // Mix the key fields in one at a time (splitmix64 finalizer per
        // field) so streams differing in a single field decorrelate.
        let mut s = seed ^ 0x9E37_79B9_7F4A_7C15;
        for k in [step, row, site] {
            s = Self::mix(s.wrapping_add(k).wrapping_add(0x9E37_79B9_7F4A_7C15));
        }
        Self(s | 1) // never the all-zero state
    }

    fn mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Next uniform sample in `[0, 1)`.
    pub fn next_f32(&mut self) -> f32 {
        // xorshift64* step over the mixed state
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        ((x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) as f32) / (1u64 << 24) as f32
    }
}

/// Inverted dropout: during training each activation is zeroed with
/// probability `1 − keep` and survivors are scaled by `1/keep`, so the
/// expected activation is unchanged and evaluation needs no rescaling.
/// The layer is plain data (`keep` only) — masks come from the per-call
/// [`DropCtx`] stream key.
#[derive(Clone, Copy, Debug)]
pub struct Dropout {
    keep: f32,
}

impl Dropout {
    /// Creates the layer with keep probability `keep ∈ (0, 1]`.
    pub fn new(keep: f32) -> Self {
        assert!(keep > 0.0 && keep <= 1.0, "keep probability must be in (0,1], got {keep}");
        Self { keep }
    }

    /// Keep probability.
    pub fn keep(&self) -> f32 {
        self.keep
    }

    /// The inverted-dropout mask tensor for a `[rows, cols]` activation
    /// under stream key `(ctx, site)` — exactly what
    /// [`Dropout::forward_train`] records on the tape. Public so a plan
    /// replay can regenerate the step's masks as feeds without a tape.
    pub fn mask(&self, rows: usize, cols: usize, ctx: &DropCtx, site: u64) -> Tensor {
        let inv = 1.0 / self.keep;
        let mut mask = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            let mut rng = CellRng::for_stream(ctx.seed, ctx.step, (ctx.row0 + r) as u64, site);
            for _ in 0..cols {
                mask.push(if rng.next_f32() < self.keep { inv } else { 0.0 });
            }
        }
        Tensor::from_vec(mask, &[rows, cols])
    }

    /// Training-mode forward over a `[rows, cols]` activation: row `r`
    /// draws its mask from stream `(ctx.seed, ctx.step, ctx.row0 + r,
    /// site)`. `site` must be unique per dropout application within one
    /// forward pass.
    pub fn forward_train(&self, g: &mut Graph, x: Var, ctx: &DropCtx, site: u64) -> Var {
        if self.keep >= 1.0 {
            return x;
        }
        let shape = g.shape(x);
        assert_eq!(shape.len(), 2, "row-streamed dropout expects a [rows, cols] activation");
        let mask = self.mask(shape[0], shape[1], ctx, site);
        g.dropout(x, mask)
    }

    /// Evaluation-mode forward: identity (inverted dropout needs no scale).
    pub fn forward_eval(&self, _g: &mut Graph, x: Var) -> Var {
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::{Binding, ParamSet};

    fn ctx(seed: u64, step: u64, row0: usize) -> DropCtx {
        DropCtx { seed, step, row0 }
    }

    #[test]
    fn keep_one_is_identity() {
        let d = Dropout::new(1.0);
        let mut g = Graph::new();
        let x = g.input(Tensor::ones(&[4, 4]));
        let y = d.forward_train(&mut g, x, &ctx(7, 0, 0), 0);
        assert_eq!(y, x);
    }

    #[test]
    fn training_mask_zeroes_and_rescales() {
        let d = Dropout::new(0.5);
        let mut g = Graph::new();
        let x = g.input(Tensor::ones(&[32, 32]));
        let y = d.forward_train(&mut g, x, &ctx(11, 0, 0), 0);
        let vals = g.value(y).as_slice();
        let zeros = vals.iter().filter(|&&v| v == 0.0).count();
        let twos = vals.iter().filter(|&&v| (v - 2.0).abs() < 1e-6).count();
        assert_eq!(zeros + twos, vals.len(), "only 0 or 1/keep survive");
        // roughly half dropped (loose 3-sigma band for 1024 Bernoulli(0.5))
        assert!(zeros > 390 && zeros < 634, "zeros {zeros}");
        // expectation preserved
        let mean = g.value(y).mean();
        assert!((mean - 1.0).abs() < 0.15, "mean {mean}");
    }

    #[test]
    fn eval_mode_is_identity() {
        let d = Dropout::new(0.3);
        let mut g = Graph::new();
        let x = g.input(Tensor::full(&[3, 3], 0.7));
        let y = d.forward_eval(&mut g, x);
        assert_eq!(y, x);
    }

    #[test]
    fn gradient_flows_through_surviving_units_only() {
        let d = Dropout::new(0.5);
        let mut ps = ParamSet::new();
        let id = ps.add("w", Tensor::ones(&[8, 8]));
        let mut g = Graph::new();
        let mut b = Binding::new();
        let w = b.bind(&mut g, &ps, id);
        let y = d.forward_train(&mut g, w, &ctx(13, 0, 0), 0);
        let s = g.sum_all(y);
        g.backward(s);
        b.write_grads(&g, &mut ps);
        let grad = &ps.get(id).grad;
        let forward = g.value(y);
        for (gv, fv) in grad.as_slice().iter().zip(forward.as_slice()) {
            if *fv == 0.0 {
                assert_eq!(*gv, 0.0, "dropped unit must get zero grad");
            } else {
                assert!((gv - 2.0).abs() < 1e-6, "survivor grad is 1/keep");
            }
        }
    }

    fn mask_of(seed: u64, step: u64, row0: usize, site: u64, rows: usize) -> Vec<f32> {
        let d = Dropout::new(0.5);
        let mut g = Graph::new();
        let x = g.input(Tensor::ones(&[rows, 16]));
        let y = d.forward_train(&mut g, x, &ctx(seed, step, row0), site);
        g.value(y).as_slice().to_vec()
    }

    #[test]
    fn deterministic_per_key_and_distinct_across_keys() {
        assert_eq!(mask_of(3, 1, 0, 0, 4), mask_of(3, 1, 0, 0, 4));
        assert_ne!(mask_of(3, 1, 0, 0, 4), mask_of(4, 1, 0, 0, 4), "seed varies masks");
        assert_ne!(mask_of(3, 1, 0, 0, 4), mask_of(3, 2, 0, 0, 4), "step varies masks");
        assert_ne!(mask_of(3, 1, 0, 0, 4), mask_of(3, 1, 0, 1, 4), "site varies masks");
    }

    #[test]
    fn masks_are_shard_layout_invariant() {
        // Rows [2, 4) of the full batch == a 2-row shard at row0 = 2.
        let full = mask_of(9, 5, 0, 3, 4);
        let shard = mask_of(9, 5, 2, 3, 2);
        assert_eq!(&full[2 * 16..], &shard[..], "mask keyed by global row, not local");
    }
}
