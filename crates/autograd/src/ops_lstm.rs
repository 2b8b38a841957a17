//! The fused LSTM cell op — the tape's first (and so far only) two-output
//! node.
//!
//! [`Graph::lstm_cell`] records the whole cell interior
//!
//! ```text
//! c' = σ(f)∘c + σ(i)∘tanh(ĝ)        h' = σ(o)∘tanh(c')
//! ```
//!
//! as a *pair* of consecutive nodes instead of the ~8 separate elementwise
//! ops the unfused formulation needs: first the `c'` node
//! ([`Op::LstmCellC`]), then the `h'` node ([`Op::LstmCell`]) which owns
//! the cached intermediates and the closed-form backward (implemented in
//! `legw_tensor::lstm_cell_backward`).
//!
//! ## Why consecutive siblings make two outputs safe on this tape
//!
//! The reverse sweep walks node indices downward and every consumer of
//! either output was pushed *after* both siblings. So when the sweep
//! reaches `h'` (the higher index), the gradient accumulated on `c'` is
//! already final — the `h'` rule can read it and run the joint backward for
//! both outputs at once, accumulating into `preact` and `c_prev`. When the
//! sweep then reaches `c'`, its work is already done; the `c'` node only
//! runs the rule itself (with `dh = 0`) in the corner case where `h'` got
//! no gradient at all (e.g. only the cell state feeds the loss).

use crate::graph::{Graph, Op, Var};
use crate::opk::{self, Mode};
use legw_tensor::{lstm_cell_backward, lstm_cell_forward, Tensor};

impl Graph {
    /// Fused LSTM cell: consumes the packed pre-activation block `preact`
    /// (`[B, 4H]`, gate order `i,f,ĝ,o`) and the previous cell state
    /// `c_prev` (`[B, H]`), returns `(h', c')` — two tape nodes backed by
    /// one cache-resident kernel pass and one closed-form backward.
    pub fn lstm_cell(&mut self, preact: Var, c_prev: Var) -> (Var, Var) {
        let fwd = lstm_cell_forward(self.value(preact), self.value(c_prev));
        let rg = self.requires(preact) || self.requires(c_prev);
        // `h'` lands at index len()+1: right after its `c'` sibling.
        let c = self.push(fwd.c, rg, Op::LstmCellC { h_out: Var(self.len() + 1) });
        let h = self.push(
            fwd.h,
            rg,
            Op::LstmCell { preact, c_prev, gates: fwd.gates, tanh_c: fwd.tanh_c, c_out: c },
        );
        (h, c)
    }

    /// Sequence-hoisted LSTM input projection: computes the ENTIRE
    /// sequence's pre-activation input half
    /// `x_pack [T·B, in] · w_x [in, 4H] + bias [4H]`
    /// as one GEMM accumulated onto the row-tiled bias (the beta=1 store
    /// variant). Element-wise this equals `add_bias(matmul(x_pack, w_x),
    /// bias)` bitwise — f32 addition commutes — but records ONE node and
    /// runs closed-form backward GEMMs over all timesteps at once.
    pub fn lstm_preact_seq(&mut self, x_pack: Var, w_x: Var, bias: Var) -> Var {
        let xv = self.value(x_pack);
        let wv = self.value(w_x);
        assert_eq!(xv.ndim(), 2, "lstm_preact_seq x_pack must be 2-D");
        assert_eq!(xv.dim(1), wv.dim(0), "lstm_preact_seq inner dims");
        assert_eq!(self.value(bias).shape(), &[wv.dim(1)], "lstm_preact_seq bias shape");
        let mut v = Tensor::repeat_rows(self.value(bias), xv.dim(0));
        v.matmul_acc(xv, wv);
        let rg = self.requires(x_pack) || self.requires(w_x) || self.requires(bias);
        self.push(v, rg, Op::LstmPreactSeq { x_pack, w_x, bias })
    }

    /// One timestep of the hoisted recurrence: copies rows
    /// `[t·batch, (t+1)·batch)` of the hoisted block `seq` and accumulates
    /// the small recurrent product `h [B, hid] · w_h [hid, 4H]` into the
    /// copy with the beta=1 GEMM — no concat, no separate add pass. The
    /// result is the full pre-activation for step `t`, ready for
    /// [`Graph::lstm_cell`].
    pub fn lstm_recur_step(&mut self, seq: Var, t: usize, batch: usize, h: Var, w_h: Var) -> Var {
        let sv = self.value(seq);
        assert!( (t + 1) * batch <= sv.dim(0), "lstm_recur_step rows out of range");
        assert_eq!(self.value(h).dim(0), batch, "lstm_recur_step h batch");
        assert_eq!(self.value(h).dim(1), self.value(w_h).dim(0), "lstm_recur_step inner dims");
        assert_eq!(self.value(w_h).dim(1), sv.dim(1), "lstm_recur_step width");
        let mut v = sv.rows(t * batch, (t + 1) * batch);
        let (hv, wv) = (self.value(h).clone(), self.value(w_h).clone());
        v.matmul_acc(&hv, &wv);
        let rg = self.requires(seq) || self.requires(h) || self.requires(w_h);
        self.push(v, rg, Op::LstmRecurStep { seq, h, w_h, t, batch })
    }

    pub(crate) fn backward_lstm(&mut self, op: &Op, _v: Var, up: &Tensor) {
        match op {
            Op::LstmCell { preact, c_prev, gates, tanh_c, c_out } => {
                // `up` is dL/dh'. The sweep visits h' before c' and all of
                // c's consumers are later than h', so c's gradient is final.
                let dc = self.nodes[c_out.0].grad.clone();
                let (dpre, dcp) =
                    lstm_cell_backward(gates, tanh_c, self.value(*c_prev), Some(up), dc.as_ref());
                self.accumulate(*preact, dpre);
                self.accumulate(*c_prev, dcp);
            }
            Op::LstmCellC { h_out } => {
                if self.nodes[h_out.0].grad.is_some() {
                    // The h' node already ran the joint rule (reading this
                    // node's gradient); nothing left to do.
                    return;
                }
                // h' is unused on the tape: run the rule with dh = 0. The
                // cached intermediates live on the sibling (Arc-cheap to
                // clone out).
                let (preact, c_prev, gates, tanh_c) = match &self.nodes[h_out.0].op {
                    Op::LstmCell { preact, c_prev, gates, tanh_c, .. } => {
                        (*preact, *c_prev, gates.clone(), tanh_c.clone())
                    }
                    _ => unreachable!("LstmCellC sibling must be LstmCell"),
                };
                let (dpre, dcp) =
                    lstm_cell_backward(&gates, &tanh_c, self.value(c_prev), None, Some(up));
                self.accumulate(preact, dpre);
                self.accumulate(c_prev, dcp);
            }
            Op::LstmPreactSeq { x_pack, w_x, bias } => {
                // `up` is dL/dPreact for ALL timesteps' rows at once, so
                // the weight and input gradients are one big GEMM each:
                // dX = dP·W_xᵀ, dW_x = X_packᵀ·dP, db = Σ_rows dP.
                let dx = up.matmul_t(self.value(*w_x));
                let dw = self.value(*x_pack).t_matmul(up);
                let db = up.sum_axis(0);
                self.accumulate(*x_pack, dx);
                self.accumulate(*w_x, dw);
                self.accumulate(*bias, db);
            }
            Op::LstmRecurStep { seq, h, w_h, t, batch } => {
                // dh = up·W_hᵀ and dW_h = hᵀ·up stay per-step (the
                // recurrence is inherently sequential in h).
                let dh = up.matmul_t(self.value(*w_h));
                let dwh = self.value(*h).t_matmul(up);
                self.accumulate(*h, dh);
                self.accumulate(*w_h, dwh);
                // dSeq: `up` flows unchanged into rows [t·B, (t+1)·B) of
                // the hoisted block. Going through `accumulate` would build
                // a full [T·B, 4H] zero tensor per step — O(T²) over the
                // sweep — so add the row block into the seq grad slot
                // directly. Sound for the same reason the generic path is:
                // every consumer of `seq` (these recur-step nodes) has a
                // higher index, so the sweep has not yet visited `seq`.
                if self.nodes[seq.0].requires_grad {
                    if self.nodes[seq.0].grad.is_none() {
                        let z = self.nodes[seq.0].value.zeros_like();
                        self.nodes[seq.0].grad = Some(z);
                    }
                    let g = self.nodes[seq.0].grad.as_mut().unwrap();
                    let off = t * batch * up.dim(1);
                    opk::block(g.as_mut_slice(), Mode::Add, up.as_slice(), off, false);
                }
            }
            _ => unreachable!("backward_lstm on non-LSTM op"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::grad_check;

    fn seeded(seed: u64, dims: &[usize]) -> Tensor {
        let mut s = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let data = (0..dims.iter().product())
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((s >> 33) as f32 / (1u64 << 31) as f32) * 2.0 - 1.0
            })
            .collect();
        Tensor::from_vec(data, dims)
    }

    /// The unfused 8-op reference: the exact chain `legw_nn::LstmCell`
    /// recorded before fusion.
    fn unfused_cell(g: &mut Graph, preact: Var, c_prev: Var, hid: usize) -> (Var, Var) {
        let i = g.slice_cols(preact, 0, hid);
        let f = g.slice_cols(preact, hid, 2 * hid);
        let gg = g.slice_cols(preact, 2 * hid, 3 * hid);
        let o = g.slice_cols(preact, 3 * hid, 4 * hid);
        let i = g.sigmoid(i);
        let f = g.sigmoid(f);
        let gg = g.tanh(gg);
        let o = g.sigmoid(o);
        let fc = g.mul(f, c_prev);
        let ig = g.mul(i, gg);
        let c = g.add(fc, ig);
        let tc = g.tanh(c);
        let h = g.mul(o, tc);
        (h, c)
    }

    /// Loss touching both outputs so both gradient paths are exercised.
    fn both_outputs_loss(g: &mut Graph, h: Var, c: Var) -> Var {
        let hh = g.mul(h, h);
        let cc = g.mul(c, c);
        let s = g.add(hh, cc);
        g.sum_all(s)
    }

    /// Forward values and parameter gradients must match the unfused
    /// reference graph bitwise, including at boundary shapes (B=1, H=1,
    /// H not a multiple of 8).
    #[test]
    fn fused_matches_unfused_reference_graph() {
        for &(b, hid) in &[(1usize, 1usize), (1, 5), (4, 13), (3, 8), (7, 3)] {
            let preact0 = seeded(b as u64 * 41 + hid as u64, &[b, 4 * hid]);
            let c0 = seeded(b as u64 * 59 + hid as u64 + 1, &[b, hid]);

            let mut gf = Graph::new();
            let pa_f = gf.param(preact0.clone());
            let cp_f = gf.param(c0.clone());
            let (h_f, c_f) = gf.lstm_cell(pa_f, cp_f);
            let loss_f = both_outputs_loss(&mut gf, h_f, c_f);
            gf.backward(loss_f);

            let mut gu = Graph::new();
            let pa_u = gu.param(preact0);
            let cp_u = gu.param(c0);
            let (h_u, c_u) = unfused_cell(&mut gu, pa_u, cp_u, hid);
            let loss_u = both_outputs_loss(&mut gu, h_u, c_u);
            gu.backward(loss_u);

            assert_eq!(
                gf.value(h_f).as_slice(),
                gu.value(h_u).as_slice(),
                "h forward mismatch at B={b} H={hid}"
            );
            assert_eq!(
                gf.value(c_f).as_slice(),
                gu.value(c_u).as_slice(),
                "c forward mismatch at B={b} H={hid}"
            );
            for (name, vf, vu) in [("preact", pa_f, pa_u), ("c_prev", cp_f, cp_u)] {
                let a = gf.grad(vf).unwrap().as_slice();
                let w = gu.grad(vu).unwrap().as_slice();
                for (x, y) in a.iter().zip(w) {
                    assert!(
                        (x - y).abs() < 1e-5,
                        "{name} grad mismatch at B={b} H={hid}: {x} vs {y}"
                    );
                }
            }
        }
    }

    /// Finite-difference check through the fused op, both outputs in the
    /// loss, at boundary shapes.
    #[test]
    fn lstm_cell_finite_difference_check() {
        for &(b, hid) in &[(1usize, 1usize), (2, 3), (3, 13)] {
            grad_check(
                &[
                    seeded(b as u64 + 100 * hid as u64, &[b, 4 * hid]),
                    seeded(b as u64 + 100 * hid as u64 + 7, &[b, hid]),
                ],
                |g, vs| {
                    let (h, c) = g.lstm_cell(vs[0], vs[1]);
                    both_outputs_loss(g, h, c)
                },
            );
        }
    }

    /// Only `h'` feeds the loss: `c'` has no gradient, the h-node rule
    /// must handle `dc = None`.
    #[test]
    fn grads_flow_when_only_h_used() {
        grad_check(&[seeded(21, &[2, 12]), seeded(22, &[2, 3])], |g, vs| {
            let (h, _c) = g.lstm_cell(vs[0], vs[1]);
            let hh = g.mul(h, h);
            g.sum_all(hh)
        });
    }

    /// Only `c'` feeds the loss: `h'` never receives a gradient, so the
    /// c-sibling must run the rule itself with `dh = 0`.
    #[test]
    fn grads_flow_when_only_c_used() {
        grad_check(&[seeded(31, &[2, 12]), seeded(32, &[2, 3])], |g, vs| {
            let (_h, c) = g.lstm_cell(vs[0], vs[1]);
            let cc = g.mul(c, c);
            g.sum_all(cc)
        });
        // And against the unfused reference, bit-for-bit path equivalence.
        let preact0 = seeded(33, &[3, 20]);
        let c0 = seeded(34, &[3, 5]);
        let mut gf = Graph::new();
        let pa_f = gf.param(preact0.clone());
        let cp_f = gf.param(c0.clone());
        let (_hf, cf) = gf.lstm_cell(pa_f, cp_f);
        let sf = gf.sum_all(cf);
        gf.backward(sf);
        let mut gu = Graph::new();
        let pa_u = gu.param(preact0);
        let cp_u = gu.param(c0);
        let (_hu, cu) = unfused_cell(&mut gu, pa_u, cp_u, 5);
        let su = gu.sum_all(cu);
        gu.backward(su);
        for (x, y) in gf.grad(pa_f).unwrap().as_slice().iter().zip(gu.grad(pa_u).unwrap().as_slice())
        {
            assert!((x - y).abs() < 1e-6, "{x} vs {y}");
        }
    }

    /// `lstm_preact_seq` must match the unfused `add_bias(matmul(x, w), b)`
    /// chain bitwise (f32 addition commutes, and the accumulate-GEMM store
    /// computes the identical per-element sum), with identical gradients.
    #[test]
    fn preact_seq_matches_matmul_add_bias() {
        for &(rows, ind, hid4) in &[(1usize, 1usize, 4usize), (6, 5, 12), (13, 7, 20), (24, 28, 512)] {
            let x0 = seeded(rows as u64 * 3 + ind as u64, &[rows, ind]);
            let w0 = seeded(rows as u64 * 7 + hid4 as u64, &[ind, hid4]);
            let b0 = seeded(rows as u64 + 11, &[hid4]);

            let mut gh = Graph::new();
            let (xh, wh, bh) = (gh.param(x0.clone()), gh.param(w0.clone()), gh.param(b0.clone()));
            let ph = gh.lstm_preact_seq(xh, wh, bh);
            let th = gh.tanh(ph);
            let lh = gh.sum_all(th);
            gh.backward(lh);

            let mut gu = Graph::new();
            let (xu, wu, bu) = (gu.param(x0), gu.param(w0), gu.param(b0));
            let mm = gu.matmul(xu, wu);
            let pu = gu.add_bias(mm, bu);
            let tu = gu.tanh(pu);
            let lu = gu.sum_all(tu);
            gu.backward(lu);

            assert_eq!(
                gh.value(ph).as_slice(),
                gu.value(pu).as_slice(),
                "preact forward mismatch at [{rows},{ind}]·[{ind},{hid4}]"
            );
            for (name, vh, vu) in [("x", xh, xu), ("w", wh, wu), ("b", bh, bu)] {
                let a = gh.grad(vh).unwrap().as_slice();
                let w = gu.grad(vu).unwrap().as_slice();
                for (p, q) in a.iter().zip(w) {
                    assert!((p - q).abs() <= 1e-5 * (1.0 + q.abs()), "{name} grad: {p} vs {q}");
                }
            }
        }
    }

    /// Finite-difference check straight through the hoisted projection op.
    #[test]
    fn preact_seq_finite_difference_check() {
        grad_check(
            &[seeded(61, &[6, 3]), seeded(62, &[3, 8]), seeded(63, &[8])],
            |g, vs| {
                let p = g.lstm_preact_seq(vs[0], vs[1], vs[2]);
                let t = g.tanh(p);
                g.sum_all(t)
            },
        );
    }

    /// A full hoisted two-step recurrence (preact_seq + recur_step +
    /// lstm_cell) must match the stepwise reference chain
    /// (slice_rows of the pack + matmul + add) within 1e-5 relative, with
    /// matching parameter gradients — including the dSeq row-scatter path,
    /// which accumulates directly into the seq node's gradient slot.
    #[test]
    fn recur_step_chain_matches_stepwise_reference() {
        let (t_len, b, ind, hid) = (3usize, 2usize, 3usize, 5usize);
        let x0 = seeded(71, &[t_len * b, ind]);
        let wx0 = seeded(72, &[ind, 4 * hid]);
        let wh0 = seeded(73, &[hid, 4 * hid]);
        let b0 = seeded(74, &[4 * hid]);
        let h0 = Tensor::zeros(&[b, hid]);
        let c0 = Tensor::zeros(&[b, hid]);

        let run = |hoisted: bool| -> (Vec<f32>, Vec<Vec<f32>>) {
            let mut g = Graph::new();
            let x = g.param(x0.clone());
            let wx = g.param(wx0.clone());
            let wh = g.param(wh0.clone());
            let bias = g.param(b0.clone());
            let mut h = g.input(h0.clone());
            let mut c = g.input(c0.clone());
            let mut hs = Vec::new();
            if hoisted {
                let seq = g.lstm_preact_seq(x, wx, bias);
                for t in 0..t_len {
                    let pre = g.lstm_recur_step(seq, t, b, h, wh);
                    let (h2, c2) = g.lstm_cell(pre, c);
                    h = h2;
                    c = c2;
                    hs.push(h2);
                }
            } else {
                for t in 0..t_len {
                    let xt = g.slice_rows(x, t * b, (t + 1) * b);
                    let xw = g.matmul(xt, wx);
                    let hw = g.matmul(h, wh);
                    let s = g.add(xw, hw);
                    let pre = g.add_bias(s, bias);
                    let (h2, c2) = g.lstm_cell(pre, c);
                    h = h2;
                    c = c2;
                    hs.push(h2);
                }
            }
            let all = g.concat_rows(&hs);
            let sq = g.mul(all, all);
            let loss = g.sum_all(sq);
            g.backward(loss);
            (
                g.value(all).as_slice().to_vec(),
                [x, wx, wh, bias].iter().map(|&v| g.grad(v).unwrap().as_slice().to_vec()).collect(),
            )
        };
        let (vh, gh) = run(true);
        let (vu, gu) = run(false);
        for (a, w) in vh.iter().zip(&vu) {
            assert!((a - w).abs() <= 1e-5 * (1.0 + w.abs()), "forward: {a} vs {w}");
        }
        for (name, (ga, gw)) in ["x", "wx", "wh", "bias"].iter().zip(gh.iter().zip(&gu)) {
            for (p, q) in ga.iter().zip(gw) {
                assert!((p - q).abs() <= 1e-5 * (1.0 + q.abs()), "{name} grad: {p} vs {q}");
            }
        }
    }

    /// Finite-difference check through the full hoisted recurrence,
    /// exercising preact_seq, recur_step, and the fused cell together.
    #[test]
    fn recur_step_finite_difference_check() {
        let (t_len, b, ind, hid) = (2usize, 2usize, 2usize, 3usize);
        grad_check(
            &[
                seeded(81, &[t_len * b, ind]),
                seeded(82, &[ind, 4 * hid]),
                seeded(83, &[hid, 4 * hid]),
                seeded(84, &[4 * hid]),
            ],
            |g, vs| {
                let seq = g.lstm_preact_seq(vs[0], vs[1], vs[3]);
                let mut h = g.input(Tensor::zeros(&[b, hid]));
                let mut c = g.input(Tensor::zeros(&[b, hid]));
                let mut hs = Vec::new();
                for t in 0..t_len {
                    let pre = g.lstm_recur_step(seq, t, b, h, vs[2]);
                    let (h2, c2) = g.lstm_cell(pre, c);
                    h = h2;
                    c = c2;
                    hs.push(h2);
                }
                let all = g.concat_rows(&hs);
                let sq = g.mul(all, all);
                g.sum_all(sq)
            },
        );
    }

    /// Chained steps: the cell state threads through two fused cells, so
    /// `c'` of step 1 receives gradients both from its own consumers and
    /// through step 2's interior. Cross-checked against the unfused chain.
    #[test]
    fn chained_cells_accumulate_cell_path() {
        let (b, hid) = (3usize, 4usize);
        let pa1 = seeded(41, &[b, 4 * hid]);
        let pa2 = seeded(42, &[b, 4 * hid]);
        let c0 = seeded(43, &[b, hid]);

        let run = |fused: bool| -> (Vec<f32>, Vec<f32>, Vec<f32>) {
            let mut g = Graph::new();
            let p1 = g.param(pa1.clone());
            let p2 = g.param(pa2.clone());
            let c = g.param(c0.clone());
            let (h1, c1) = if fused {
                g.lstm_cell(p1, c)
            } else {
                unfused_cell(&mut g, p1, c, hid)
            };
            let (h2, c2) =
                if fused { g.lstm_cell(p2, c1) } else { unfused_cell(&mut g, p2, c1, hid) };
            let hs = g.add(h1, h2);
            let loss = both_outputs_loss(&mut g, hs, c2);
            g.backward(loss);
            (
                g.grad(p1).unwrap().as_slice().to_vec(),
                g.grad(p2).unwrap().as_slice().to_vec(),
                g.grad(c).unwrap().as_slice().to_vec(),
            )
        };
        let (f1, f2, fc) = run(true);
        let (u1, u2, uc) = run(false);
        for (a, w) in f1.iter().zip(&u1).chain(f2.iter().zip(&u2)).chain(fc.iter().zip(&uc)) {
            assert!((a - w).abs() < 1e-5, "chained grad mismatch: {a} vs {w}");
        }
    }
}
