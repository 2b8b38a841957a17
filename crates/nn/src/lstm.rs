//! LSTM cell and multi-layer sequence runner — the paper's central
//! architecture (§5.1).
//!
//! The cell follows the classic formulation (Hochreiter & Schmidhuber):
//!
//! ```text
//! [i f ĝ o] = [x, h] · W + b          W: [(in+hid), 4·hid]
//! c' = σ(f) ∘ c + σ(i) ∘ tanh(ĝ)
//! h' = σ(o) ∘ tanh(c')
//! ```
//!
//! The `256×512` MNIST cell kernel the paper describes is exactly
//! `W: [(128+128), 4·128]` here. Gates are built from tape ops so the
//! backward pass is derived by the autograd crate and covered by gradient
//! checks.

use crate::param::{Binding, ParamId, ParamSet};
use legw_autograd::{Graph, Var};
use legw_tensor::Tensor;
use rand::Rng;

/// Recurrent state `(h, c)` of one LSTM layer for one batch.
#[derive(Clone, Copy)]
pub struct LstmState {
    /// Hidden state variable `[B, hidden]`.
    pub h: Var,
    /// Cell state variable `[B, hidden]`.
    pub c: Var,
}

/// A single LSTM cell (one layer's recurrence).
pub struct LstmCell {
    /// Fused gate kernel `[(in+hid), 4·hid]`, gate order `i, f, g, o`.
    pub w: ParamId,
    /// Gate bias `[4·hid]`; forget-gate slice initialised to 1.
    pub b: ParamId,
    in_dim: usize,
    hidden: usize,
}

impl LstmCell {
    /// Creates the cell. The forget-gate bias is initialised to 1.0 (the
    /// standard trick to ease gradient flow early in training).
    pub fn new<R: Rng>(
        ps: &mut ParamSet,
        rng: &mut R,
        name: &str,
        in_dim: usize,
        hidden: usize,
    ) -> Self {
        let w = ps.add(
            format!("{name}.w"),
            Tensor::xavier_uniform(rng, in_dim + hidden, 4 * hidden),
        );
        let mut bias = vec![0.0f32; 4 * hidden];
        bias[hidden..2 * hidden].iter_mut().for_each(|v| *v = 1.0);
        let b = ps.add(format!("{name}.b"), Tensor::from_vec(bias, &[4 * hidden]));
        Self { w, b, in_dim, hidden }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Hidden width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Zero initial state for a batch of `batch` sequences.
    pub fn zero_state(&self, g: &mut Graph, batch: usize) -> LstmState {
        LstmState {
            h: g.input(Tensor::zeros(&[batch, self.hidden])),
            c: g.input(Tensor::zeros(&[batch, self.hidden])),
        }
    }

    /// One recurrence step: consumes `x [B, in]` and the previous state,
    /// returns the next state.
    ///
    /// The cell interior (4 activations + hadamards + adds) is one fused
    /// two-output tape op ([`Graph::lstm_cell`]) — bit-identical to the
    /// unfused per-gate chain (kept as [`LstmCell::step_unfused`]) but
    /// recording 2 nodes instead of ~13 and backpropagating in one
    /// closed-form pass.
    pub fn step(
        &self,
        g: &mut Graph,
        bd: &mut Binding,
        ps: &ParamSet,
        x: Var,
        state: LstmState,
    ) -> LstmState {
        let w = bd.bind(g, ps, self.w);
        let b = bd.bind(g, ps, self.b);
        let xh = g.concat_cols(&[x, state.h]);
        let gates_lin = g.matmul(xh, w);
        let preact = g.add_bias(gates_lin, b);
        let (hh, c) = g.lstm_cell(preact, state.c);
        LstmState { h: hh, c }
    }

    /// Sequence-hoisted input projection: consumes a packed `[T·B, in]`
    /// input block (timestep-major rows, i.e. rows `[t·B, (t+1)·B)` are
    /// step `t`) and computes EVERY timestep's pre-activation input half
    /// `x_t · W_x + b` in one `[T·B, in] × [in, 4H]` GEMM — the
    /// cuDNN-style hoisting of the non-recurrent work out of the time
    /// loop. `W_x` is a row-slice view of the fused kernel (same
    /// `ParamId`, same checkpoint layout).
    pub fn preact_seq(&self, g: &mut Graph, bd: &mut Binding, ps: &ParamSet, x_pack: Var) -> Var {
        assert_eq!(g.value(x_pack).dim(1), self.in_dim, "preact_seq input width");
        let w = bd.bind(g, ps, self.w);
        let b = bd.bind(g, ps, self.b);
        let w_x = g.slice_rows(w, 0, self.in_dim);
        g.lstm_preact_seq(x_pack, w_x, b)
    }

    /// Runs the whole sequence through this cell on the hoisted path:
    /// one big input-projection GEMM via [`LstmCell::preact_seq`], then per
    /// timestep only the small recurrent `[B, hid] × [hid, 4H]` product,
    /// accumulated into the hoisted block's row slice (beta=1 GEMM store),
    /// feeding the fused cell op. Returns each step's `h` and the final
    /// state.
    ///
    /// Numerical note: `x·W_x + h·W_h` splits the stepwise path's single
    /// `[x,h]·W` k-sum at the `in_dim` boundary, so results match the
    /// stepwise reference to ~1e-5 relative, not bitwise.
    // The usual (graph, binding, store) of every forward plus the packed
    // block, its two extents and the carried state.
    #[allow(clippy::too_many_arguments)]
    pub fn forward_seq_packed(
        &self,
        g: &mut Graph,
        bd: &mut Binding,
        ps: &ParamSet,
        x_pack: Var,
        t_len: usize,
        batch: usize,
        state: LstmState,
    ) -> (Vec<Var>, LstmState) {
        assert_eq!(g.value(x_pack).dim(0), t_len * batch, "preact_seq packed rows");
        let seq = self.preact_seq(g, bd, ps, x_pack);
        let w = bd.bind(g, ps, self.w); // same node preact_seq bound (deduped)
        let w_h = g.slice_rows(w, self.in_dim, self.in_dim + self.hidden);
        let mut st = state;
        let mut hs = Vec::with_capacity(t_len);
        for t in 0..t_len {
            let pre = g.lstm_recur_step(seq, t, batch, st.h, w_h);
            let (h, c) = g.lstm_cell(pre, st.c);
            st = LstmState { h, c };
            hs.push(h);
        }
        (hs, st)
    }

    /// [`LstmCell::forward_seq_packed`] for callers holding per-step
    /// variables: packs `xs[t] = [B, in]` into one `[T·B, in]` block first.
    pub fn forward_seq(
        &self,
        g: &mut Graph,
        bd: &mut Binding,
        ps: &ParamSet,
        xs: &[Var],
        state: LstmState,
    ) -> (Vec<Var>, LstmState) {
        assert!(!xs.is_empty(), "forward_seq over an empty sequence");
        let batch = g.value(xs[0]).dim(0);
        let x_pack = g.concat_rows(xs);
        self.forward_seq_packed(g, bd, ps, x_pack, xs.len(), batch, state)
    }

    /// The reference per-gate implementation the fused [`LstmCell::step`]
    /// replaced: ~8 separate elementwise tape ops with derived backward.
    /// Kept for gradient cross-checks against the fused kernel.
    pub fn step_unfused(
        &self,
        g: &mut Graph,
        bd: &mut Binding,
        ps: &ParamSet,
        x: Var,
        state: LstmState,
    ) -> LstmState {
        let h = self.hidden;
        let w = bd.bind(g, ps, self.w);
        let b = bd.bind(g, ps, self.b);
        let xh = g.concat_cols(&[x, state.h]);
        let gates_lin = g.matmul(xh, w);
        let gates = g.add_bias(gates_lin, b);
        let i_lin = g.slice_cols(gates, 0, h);
        let f_lin = g.slice_cols(gates, h, 2 * h);
        let g_lin = g.slice_cols(gates, 2 * h, 3 * h);
        let o_lin = g.slice_cols(gates, 3 * h, 4 * h);
        let i = g.sigmoid(i_lin);
        let f = g.sigmoid(f_lin);
        let gg = g.tanh(g_lin);
        let o = g.sigmoid(o_lin);
        let fc = g.mul(f, state.c);
        let ig = g.mul(i, gg);
        let c = g.add(fc, ig);
        let tc = g.tanh(c);
        let hh = g.mul(o, tc);
        LstmState { h: hh, c }
    }
}

/// A stack of LSTM layers run over a sequence, with optional residual
/// connections starting at a configurable layer (GNMT uses layer 3).
pub struct Lstm {
    /// Per-layer cells, bottom first.
    pub cells: Vec<LstmCell>,
    /// Residual connections are added for layer indices `>= residual_from`
    /// (0-based; `usize::MAX` disables them).
    pub residual_from: usize,
}

impl Lstm {
    /// Builds `layers` stacked cells: layer 0 maps `in_dim → hidden`, the
    /// rest `hidden → hidden`. No residuals.
    pub fn new<R: Rng>(
        ps: &mut ParamSet,
        rng: &mut R,
        name: &str,
        in_dim: usize,
        hidden: usize,
        layers: usize,
    ) -> Self {
        Self::with_residuals(ps, rng, name, in_dim, hidden, layers, usize::MAX)
    }

    /// As [`Lstm::new`] but adding residual connections from layer index
    /// `residual_from` upward (inputs and outputs must both be `hidden`
    /// wide there, which holds for all layers ≥ 1).
    pub fn with_residuals<R: Rng>(
        ps: &mut ParamSet,
        rng: &mut R,
        name: &str,
        in_dim: usize,
        hidden: usize,
        layers: usize,
        residual_from: usize,
    ) -> Self {
        assert!(layers >= 1, "LSTM needs at least one layer");
        assert!(residual_from >= 1, "residuals cannot start at layer 0 (width change)");
        let mut cells = Vec::with_capacity(layers);
        for l in 0..layers {
            let d = if l == 0 { in_dim } else { hidden };
            cells.push(LstmCell::new(ps, rng, &format!("{name}.l{l}"), d, hidden));
        }
        Self { cells, residual_from }
    }

    /// Hidden width of the stack.
    pub fn hidden(&self) -> usize {
        self.cells[0].hidden()
    }

    /// Zero state for every layer.
    pub fn zero_state(&self, g: &mut Graph, batch: usize) -> Vec<LstmState> {
        self.cells.iter().map(|c| c.zero_state(g, batch)).collect()
    }

    /// Runs the stack over a sequence of inputs `xs[t] = [B, in]`,
    /// returning the top-layer output at each step and the final states.
    ///
    /// `state` is threaded through (truncated-BPTT callers pass the
    /// detached final state of the previous window).
    ///
    /// This is the sequence-hoisted path: it walks LAYER-major (each layer
    /// consumes all T of the layer below's outputs), so every layer packs
    /// its whole input sequence and issues ONE `[T·B, in] × [in, 4H]` GEMM
    /// for the non-recurrent half, leaving only the small `[B, hid] ×
    /// [hid, 4H]` product inside the time loop
    /// ([`LstmCell::forward_seq_packed`]). Layer-major and time-major
    /// orders compute the same recurrence — layer `l` at step `t` depends
    /// only on layer `l−1` step `t` and its own step `t−1`. Results match
    /// the retained [`Lstm::forward_seq_stepwise`] reference to ~1e-5
    /// relative (the hoisting splits the `[x,h]·W` k-sum at the `in_dim`
    /// boundary), which the cross-check tests pin down.
    pub fn forward_seq(
        &self,
        g: &mut Graph,
        bd: &mut Binding,
        ps: &ParamSet,
        xs: &[Var],
        mut state: Vec<LstmState>,
    ) -> (Vec<Var>, Vec<LstmState>) {
        assert_eq!(state.len(), self.cells.len(), "one state per layer");
        if xs.is_empty() {
            return (Vec::new(), state);
        }
        let batch = g.value(xs[0]).dim(0);
        let t_len = xs.len();
        let mut layer_in: Vec<Var> = xs.to_vec();
        for (l, cell) in self.cells.iter().enumerate() {
            let x_pack = g.concat_rows(&layer_in);
            let (hs, st) = cell.forward_seq_packed(g, bd, ps, x_pack, t_len, batch, state[l]);
            state[l] = st;
            layer_in = if l >= self.residual_from {
                hs.iter().zip(layer_in.iter()).map(|(&h, &inp)| g.add(h, inp)).collect()
            } else {
                hs
            };
        }
        (layer_in, state)
    }

    /// The pre-hoisting time-major reference: per step, per layer, one
    /// `concat_cols([x, h])` copy and a full `[B, in+hid] × [(in+hid), 4H]`
    /// GEMM ([`LstmCell::step`]). Kept for cross-checks against the hoisted
    /// [`Lstm::forward_seq`] and for back-to-back benchmarking.
    pub fn forward_seq_stepwise(
        &self,
        g: &mut Graph,
        bd: &mut Binding,
        ps: &ParamSet,
        xs: &[Var],
        mut state: Vec<LstmState>,
    ) -> (Vec<Var>, Vec<LstmState>) {
        assert_eq!(state.len(), self.cells.len(), "one state per layer");
        let mut outputs = Vec::with_capacity(xs.len());
        for &x in xs {
            let mut inp = x;
            for (l, cell) in self.cells.iter().enumerate() {
                let next = cell.step(g, bd, ps, inp, state[l]);
                let out = if l >= self.residual_from {
                    g.add(next.h, inp)
                } else {
                    next.h
                };
                state[l] = next;
                inp = out;
            }
            outputs.push(inp);
        }
        (outputs, state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn setup(in_dim: usize, hidden: usize) -> (ParamSet, LstmCell) {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(3);
        let cell = LstmCell::new(&mut ps, &mut rng, "lstm", in_dim, hidden);
        (ps, cell)
    }

    #[test]
    fn kernel_shape_matches_paper_convention() {
        // the paper's MNIST cell: input 128, hidden 128 → kernel 256×512
        let (ps, cell) = setup(128, 128);
        assert_eq!(ps.value(cell.w).shape(), &[256, 512]);
        assert_eq!(ps.value(cell.b).shape(), &[512]);
    }

    #[test]
    fn forget_bias_initialised_to_one() {
        let (ps, cell) = setup(4, 3);
        let b = ps.value(cell.b);
        assert_eq!(&b.as_slice()[0..3], &[0.0, 0.0, 0.0]); // i
        assert_eq!(&b.as_slice()[3..6], &[1.0, 1.0, 1.0]); // f
        assert_eq!(&b.as_slice()[6..9], &[0.0, 0.0, 0.0]); // g
    }

    #[test]
    fn step_shapes_and_state_evolution() {
        let (ps, cell) = setup(5, 4);
        let mut g = Graph::new();
        let mut bd = Binding::new();
        let s0 = cell.zero_state(&mut g, 3);
        let x = g.input(Tensor::ones(&[3, 5]));
        let s1 = cell.step(&mut g, &mut bd, &ps, x, s0);
        assert_eq!(g.value(s1.h).shape(), &[3, 4]);
        assert_eq!(g.value(s1.c).shape(), &[3, 4]);
        // state must actually move away from zero
        assert!(g.value(s1.h).l2_norm() > 0.0);
        // bounded by construction
        assert!(g.value(s1.h).max() <= 1.0 && g.value(s1.h).min() >= -1.0);
    }

    #[test]
    fn lstm_cell_grad_check() {
        // gradient-check the whole cell wrt its kernel and bias
        let in_dim = 3;
        let hidden = 2;
        let x = Tensor::from_vec(vec![0.5, -0.2, 0.8, -0.4, 0.1, 0.9], &[2, 3]);
        let mut rng = StdRng::seed_from_u64(7);
        let w0 = Tensor::xavier_uniform(&mut rng, in_dim + hidden, 4 * hidden);
        let b0 = Tensor::rand_uniform(&mut rng, &[4 * hidden], -0.5, 0.5);

        legw_autograd::check::grad_check(&[w0, b0], |g, vs| {
            let h = 2usize;
            let x = g.input(x.clone());
            let h0 = g.input(Tensor::zeros(&[2, h]));
            let c0 = g.input(Tensor::zeros(&[2, h]));
            let xh = g.concat_cols(&[x, h0]);
            let lin = g.matmul(xh, vs[0]);
            let gates = g.add_bias(lin, vs[1]);
            let i_l = g.slice_cols(gates, 0, h);
            let f_l = g.slice_cols(gates, h, 2 * h);
            let g_l = g.slice_cols(gates, 2 * h, 3 * h);
            let o_l = g.slice_cols(gates, 3 * h, 4 * h);
            let i = g.sigmoid(i_l);
            let f = g.sigmoid(f_l);
            let gg = g.tanh(g_l);
            let o = g.sigmoid(o_l);
            let fc = g.mul(f, c0);
            let ig = g.mul(i, gg);
            let c = g.add(fc, ig);
            let tc = g.tanh(c);
            let hh = g.mul(o, tc);
            let sq = g.mul(hh, hh);
            g.sum_all(sq)
        });
    }

    /// One full cell step through the fused path vs the unfused reference:
    /// identical forward bits and matching parameter gradients, including
    /// at boundary shapes (B=1, H=1, H not a multiple of 8).
    fn assert_fused_matches_unfused(batch: usize, in_dim: usize, hidden: usize, seed: u64) {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let cell = LstmCell::new(&mut ps, &mut rng, "eq", in_dim, hidden);
        let x0 = Tensor::rand_uniform(&mut rng, &[batch, in_dim], -1.0, 1.0);
        let h0 = Tensor::rand_uniform(&mut rng, &[batch, hidden], -0.8, 0.8);
        let c0 = Tensor::rand_uniform(&mut rng, &[batch, hidden], -0.8, 0.8);

        let run = |fused: bool, ps: &ParamSet| -> (Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>) {
            let mut g = Graph::new();
            let mut bd = Binding::new();
            let x = g.input(x0.clone());
            let s0 = LstmState { h: g.input(h0.clone()), c: g.input(c0.clone()) };
            let s1 = if fused {
                cell.step(&mut g, &mut bd, ps, x, s0)
            } else {
                cell.step_unfused(&mut g, &mut bd, ps, x, s0)
            };
            let hv = g.value(s1.h).as_slice().to_vec();
            let cv = g.value(s1.c).as_slice().to_vec();
            // Loss touches both outputs so both gradient paths fire.
            let hh = g.mul(s1.h, s1.h);
            let cc = g.mul(s1.c, s1.c);
            let sum = g.add(hh, cc);
            let loss = g.sum_all(sum);
            g.backward(loss);
            let mut ps2 = ps.clone();
            bd.write_grads(&g, &mut ps2);
            (
                hv,
                cv,
                ps2.get(cell.w).grad.as_slice().to_vec(),
                ps2.get(cell.b).grad.as_slice().to_vec(),
            )
        };
        let (hf, cf, wf, bf) = run(true, &ps);
        let (hu, cu, wu, bu) = run(false, &ps);
        assert_eq!(hf, hu, "fused h differs at B={batch} in={in_dim} H={hidden}");
        assert_eq!(cf, cu, "fused c differs at B={batch} in={in_dim} H={hidden}");
        for (a, b) in wf.iter().zip(&wu).chain(bf.iter().zip(&bu)) {
            assert!(
                (a - b).abs() < 1e-5,
                "grad mismatch at B={batch} in={in_dim} H={hidden}: {a} vs {b}"
            );
        }
    }

    #[test]
    fn fused_step_matches_unfused_at_boundary_shapes() {
        assert_fused_matches_unfused(1, 1, 1, 19); // B=1, H=1
        assert_fused_matches_unfused(1, 4, 3, 23); // B=1, H non-multiple-of-8
        assert_fused_matches_unfused(5, 7, 13, 29); // ragged everything
        assert_fused_matches_unfused(8, 16, 16, 31); // aligned
    }

    legw_propcheck::proptest! {
        /// Random-shape sweep of fused-vs-unfused cell equivalence.
        #[test]
        fn fused_step_matches_unfused_sweep(
            batch in 1usize..9,
            in_dim in 1usize..11,
            hidden in 1usize..18,
            seed in 0u64..500,
        ) {
            assert_fused_matches_unfused(batch, in_dim, hidden, seed);
        }
    }

    /// The hoisted sequence path vs the stepwise reference over a full
    /// stack: per-step outputs, final states, and every parameter gradient
    /// must agree within 1e-5 relative (not bitwise — hoisting splits the
    /// `[x,h]·W` k-sum at the `in_dim` boundary).
    fn assert_hoisted_matches_stepwise(
        batch: usize,
        t_len: usize,
        in_dim: usize,
        hidden: usize,
        layers: usize,
        residual_from: usize,
        seed: u64,
    ) {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let lstm = if residual_from == usize::MAX {
            Lstm::new(&mut ps, &mut rng, "eq", in_dim, hidden, layers)
        } else {
            Lstm::with_residuals(&mut ps, &mut rng, "eq", in_dim, hidden, layers, residual_from)
        };
        let xs0: Vec<Tensor> = (0..t_len)
            .map(|_| Tensor::rand_uniform(&mut rng, &[batch, in_dim], -1.0, 1.0))
            .collect();
        let h0 = Tensor::rand_uniform(&mut rng, &[batch, hidden], -0.8, 0.8);
        let c0 = Tensor::rand_uniform(&mut rng, &[batch, hidden], -0.8, 0.8);

        type Rows = Vec<Vec<f32>>;
        let run = |hoisted: bool| -> (Rows, Rows, Rows) {
            let mut g = Graph::new();
            let mut bd = Binding::new();
            let s0: Vec<LstmState> = (0..layers)
                .map(|_| LstmState { h: g.input(h0.clone()), c: g.input(c0.clone()) })
                .collect();
            let xs: Vec<Var> = xs0.iter().map(|x| g.input(x.clone())).collect();
            let (outs, s_fin) = if hoisted {
                lstm.forward_seq(&mut g, &mut bd, &ps, &xs, s0)
            } else {
                lstm.forward_seq_stepwise(&mut g, &mut bd, &ps, &xs, s0)
            };
            let out_vals: Vec<Vec<f32>> =
                outs.iter().map(|&o| g.value(o).as_slice().to_vec()).collect();
            let state_vals: Vec<Vec<f32>> = s_fin
                .iter()
                .flat_map(|s| [g.value(s.h).as_slice().to_vec(), g.value(s.c).as_slice().to_vec()])
                .collect();
            let all = g.concat_rows(&outs);
            let sq = g.mul(all, all);
            let loss = g.sum_all(sq);
            g.backward(loss);
            let mut ps2 = ps.clone();
            bd.write_grads(&g, &mut ps2);
            let grads: Vec<Vec<f32>> = lstm
                .cells
                .iter()
                .flat_map(|c| {
                    [ps2.get(c.w).grad.as_slice().to_vec(), ps2.get(c.b).grad.as_slice().to_vec()]
                })
                .collect();
            (out_vals, state_vals, grads)
        };
        let (oh, sh, gh) = run(true);
        let (ou, su, gu) = run(false);
        let check = |tag: &str, a: &[Vec<f32>], b: &[Vec<f32>]| {
            for (va, vb) in a.iter().zip(b) {
                for (x, y) in va.iter().zip(vb) {
                    assert!(
                        (x - y).abs() <= 1e-5 * (1.0 + y.abs()),
                        "{tag} mismatch at B={batch} T={t_len} in={in_dim} H={hidden} \
                         L={layers}: {x} vs {y}"
                    );
                }
            }
        };
        check("output", &oh, &ou);
        check("state", &sh, &su);
        check("grad", &gh, &gu);
    }

    #[test]
    fn hoisted_matches_stepwise_at_boundary_shapes() {
        assert_hoisted_matches_stepwise(1, 1, 1, 1, 1, usize::MAX, 43); // all-ones corner
        assert_hoisted_matches_stepwise(1, 3, 4, 3, 1, usize::MAX, 47); // H non-multiple-of-8
        assert_hoisted_matches_stepwise(5, 4, 7, 13, 2, usize::MAX, 53); // ragged stack
        assert_hoisted_matches_stepwise(4, 6, 6, 6, 3, 1, 59); // residuals on
        assert_hoisted_matches_stepwise(8, 8, 16, 16, 2, usize::MAX, 61); // aligned
    }

    legw_propcheck::proptest! {
        /// Random-shape sweep of hoisted-vs-stepwise stack equivalence,
        /// including non-multiple-of-8 widths.
        #[test]
        fn hoisted_matches_stepwise_sweep(
            batch in 1usize..7,
            t_len in 1usize..6,
            in_dim in 1usize..10,
            hidden in 1usize..18,
            layers in 1usize..3,
            seed in 0u64..500,
        ) {
            assert_hoisted_matches_stepwise(batch, t_len, in_dim, hidden, layers, usize::MAX, seed);
        }
    }

    #[test]
    fn stacked_sequence_runs_and_learned_state_flows() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(11);
        let lstm = Lstm::new(&mut ps, &mut rng, "stack", 4, 6, 2);
        let mut g = Graph::new();
        let mut bd = Binding::new();
        let s0 = lstm.zero_state(&mut g, 2);
        let xs: Vec<_> = (0..5)
            .map(|t| g.input(Tensor::full(&[2, 4], 0.1 * t as f32)))
            .collect();
        let (outs, s_final) = lstm.forward_seq(&mut g, &mut bd, &ps, &xs, s0);
        assert_eq!(outs.len(), 5);
        assert_eq!(g.value(outs[4]).shape(), &[2, 6]);
        assert_eq!(s_final.len(), 2);
        // gradient flows back through all steps to the layer-0 kernel
        let last = outs[4];
        let sq = g.mul(last, last);
        let loss = g.sum_all(sq);
        g.backward(loss);
        bd.write_grads(&g, &mut ps);
        assert!(ps.get(lstm.cells[0].w).grad.l2_norm() > 0.0);
        assert!(ps.get(lstm.cells[1].w).grad.l2_norm() > 0.0);
    }

    #[test]
    fn residual_stack_adds_inputs() {
        // Three stacks built from the same rng seed share weights for the
        // layers they have in common: a 2-layer residual stack, its plain
        // (no-skip) twin, and a 1-layer stack exposing the layer-0 output.
        // For one step of a 2-layer stack with residual_from=1:
        //   residual_out = h1 + h0,  plain_out = h1,  single_out = h0
        // so the skip path is verified by residual = plain + single.
        fn run(layers: usize, residual: bool) -> Tensor {
            let mut ps = ParamSet::new();
            let mut rng = StdRng::seed_from_u64(13);
            let lstm = if residual {
                Lstm::with_residuals(&mut ps, &mut rng, "res", 6, 6, layers, 1)
            } else {
                Lstm::new(&mut ps, &mut rng, "res", 6, 6, layers)
            };
            let mut g = Graph::new();
            let mut bd = Binding::new();
            let s0 = lstm.zero_state(&mut g, 1);
            let x = g.input(Tensor::full(&[1, 6], 0.5));
            let (outs, _) = lstm.forward_seq(&mut g, &mut bd, &ps, &[x], s0);
            g.value(outs[0]).clone()
        }
        let residual_out = run(2, true);
        let plain_out = run(2, false);
        let layer0_out = run(1, false);
        // The skip must actually change the output...
        assert!(residual_out.sub(&plain_out).l2_norm() > 1e-6);
        // ...and change it by exactly the layer-below output.
        let expected = plain_out.add(&layer0_out);
        assert!(
            residual_out.sub(&expected).l2_norm() < 1e-6,
            "residual output must equal plain output + layer-0 output"
        );
    }
}
