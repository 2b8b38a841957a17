//! The fused LSTM cell and the sequence-hoisted input projection.
//!
//! [`Graph::lstm_cell`] records the whole cell interior
//!
//! ```text
//! c' = σ(f)∘c + σ(i)∘tanh(ĝ)        h' = σ(o)∘tanh(c')
//! ```
//!
//! as one kernel with two outputs instead of the ~8 separate elementwise
//! ops the unfused formulation needs: the `c'` node, then the `h'` node
//! that holds the kernel, its cached intermediates and its closed-form
//! backward (`legw_tensor::lstm_cell_backward_into`).
//!
//! ## Why consecutive outputs make two outputs safe on this tape
//!
//! Backward visits node indices downward and every consumer of either
//! output was recorded *after* both. So when it reaches `h'`, the gradients
//! of `c'` and `h'` are both final, and the one rule runs with whichever of
//! them exists (`dh = 0` when only the cell state feeds the loss).

use crate::graph::{Graph, Var};
use crate::opk::{self, apply, Mode};
use crate::ops_basic::{matmul_grads, up, COL_SUM_G};
use crate::table::{Attr, Detour, Entry, Gemm, State};
use legw_tensor::{lstm_cell_backward_into, lstm_cell_forward_into, repeat_rows_into};

/// `Lstm`: `(c', h')` from `preact [B, 4H]` (gates `i,f,ĝ,o`) and
/// `c [B, H]`, keeping the activated gates and `tanh(c')`.
static LSTM: Entry = Entry::new("LstmF", |io| {
    let Attr::Lstm { b, hid, .. } = *io.a else { unreachable!() };
    let (gates, tanh_c) = io.buf.split_at_mut(b * 4 * hid);
    let [c, h, _] = &mut io.out;
    lstm_cell_forward_into(io.src.get(0), io.src.get(1), b, hid, gates, c, tanh_c, h);
})
.grad(|g, n, u| {
    let (Attr::Lstm { b, hid, .. }, dc, dh) = (n.a, u[0], u[1]) else { unreachable!() };
    let src: Vec<Var> = [Some(n.src[1]), dh, dc].into_iter().flatten().collect();
    let a = Attr::Lstm { b, hid, dh: dh.is_some(), dc: dc.is_some() };
    g.contrib(&LSTM_G, &src, &n.src, a, n.st);
});

/// `Gemm`: `x_pack [T·B, in] · w_x [in, 4H] + bias [4H]` for the whole
/// sequence, one GEMM accumulated onto the row-tiled bias. Equals
/// `add_bias(matmul(x_pack, w_x), bias)` bitwise (f32 addition commutes).
static PREACT_SEQ: Entry = Entry::new("PreactSeqF", |io| {
    let (Attr::Gemm(gm), src) = (*io.a, io.src) else { unreachable!() };
    repeat_rows_into(src.get(2), gm.m, io.out[0]);
    src.gemm(io.a, src.get(0), io.out[0], true);
})
.grad(|g, n, u| {
    let Attr::Gemm(gm) = n.a else { unreachable!() };
    matmul_grads(g, gm, [up(u), n.src[0], n.src[1]]);
    g.contrib(&COL_SUM_G, &[up(u)], &[n.src[2]], Attr::None, None);
});

/// `Recur`: rows `[t·m, (t+1)·m)` of the hoisted block plus
/// `h [m, hid] · w_h [hid, 4H]`, accumulated in-engine.
static RECUR_STEP: Entry = Entry::new("RecurStepF", |io| {
    let (Attr::Recur { t, gemm }, src) = (*io.a, io.src) else { unreachable!() };
    let step = gemm.m * gemm.n;
    io.out[0].copy_from_slice(&src.get(0)[t * step..(t + 1) * step]);
    src.gemm(io.a, src.get(1), io.out[0], true);
})
.grad(|g, n, u| {
    let Attr::Recur { t, gemm } = n.a else { unreachable!() };
    matmul_grads(g, gemm, [up(u), n.src[1], n.src[2]]);
    let a = Attr::Block { src_off: 0, dst_off: t * gemm.m * gemm.n };
    g.contrib(&RECUR_SEQ_G, &[up(u)], &[n.src[0]], a, None);
});

/// `Lstm`: the cell's backward from `c_prev` and whichever of `dh` and `dc`
/// flowed, into `(dpreact, dc_prev)`. Two stores are written in place;
/// otherwise both bounce through scratch.
static LSTM_G: Entry = Entry::new("LstmG", |io| {
    let (Attr::Lstm { b, hid, dh, dc }, src) = (*io.a, io.src) else { unreachable!() };
    let (gates, tanh_c) = io.buf.split_at(b * 4 * hid);
    let cp = src.get(0);
    let dh = dh.then(|| src.get(1));
    let dc = dc.then(|| src.get(1 + usize::from(dh.is_some())));
    if io.mode[..2] == [Mode::Store; 2] {
        let [dpre, dcp, _] = &mut io.out;
        lstm_cell_backward_into(gates, tanh_c, cp, dh, dc, b, hid, dpre, dcp);
    } else {
        let (spre, rest) = io.scratch.split_at_mut(b * 4 * hid);
        let scp = &mut rest[..b * hid];
        lstm_cell_backward_into(gates, tanh_c, cp, dh, dc, b, hid, spre, scp);
        apply(io.out[0], io.mode[0], |i| spre[i]);
        apply(io.out[1], io.mode[1], |i| scp[i]);
    }
})
.detour(Detour::Joint);

/// `Block`: `up` added into the hoisted block's gradient at `dst_off`; the
/// step that creates that gradient zeroes it first.
static RECUR_SEQ_G: Entry = Entry::new("RecurSeqG", |io| {
    let Attr::Block { dst_off, .. } = *io.a else { unreachable!() };
    if io.mode[0] == Mode::Store {
        io.out[0].fill(0.0);
    }
    opk::block(io.out[0], Mode::Add, io.src.get(0), dst_off, false);
});

impl Graph {
    /// Fused LSTM cell: consumes the packed pre-activation block `preact`
    /// (`[B, 4H]`, gate order `i,f,ĝ,o`) and the previous cell state
    /// `c_prev` (`[B, H]`), returns `(h', c')` — two tape nodes backed by
    /// one cache-resident kernel pass and one closed-form backward.
    pub fn lstm_cell(&mut self, preact: Var, c_prev: Var) -> (Var, Var) {
        let (b, hid) = (self.shape(c_prev)[0], self.shape(c_prev)[1]);
        let st = State::buf(b * 5 * hid);
        let a = Attr::Lstm { b, hid, dh: false, dc: false };
        let h = self.record(&LSTM, &[preact, c_prev], &[&[b, hid], &[b, hid]], a, Some(st));
        (h, Var(h.0 - 1))
    }

    /// Sequence-hoisted LSTM input projection: computes the ENTIRE
    /// sequence's pre-activation input half
    /// `x_pack [T·B, in] · w_x [in, 4H] + bias [4H]`
    /// as one GEMM accumulated onto the row-tiled bias (the beta=1 store
    /// variant). Element-wise this equals `add_bias(matmul(x_pack, w_x),
    /// bias)` bitwise — f32 addition commutes — but records ONE node and
    /// runs closed-form backward GEMMs over all timesteps at once.
    pub fn lstm_preact_seq(&mut self, x_pack: Var, w_x: Var, bias: Var) -> Var {
        let (xs, ws) = (self.shape(x_pack), self.shape(w_x));
        assert_eq!(xs.len(), 2, "lstm_preact_seq x_pack must be 2-D");
        assert_eq!(xs[1], ws[0], "lstm_preact_seq inner dims");
        assert_eq!(self.shape(bias), [ws[1]], "lstm_preact_seq bias shape");
        let a = Attr::Gemm(Gemm { ta: false, tb: false, m: xs[0], k: xs[1], n: ws[1] });
        self.record(&PREACT_SEQ, &[x_pack, w_x, bias], &[&[xs[0], ws[1]]], a, None)
    }

    /// One timestep of the hoisted recurrence: copies rows
    /// `[t·batch, (t+1)·batch)` of the hoisted block `seq` and accumulates
    /// the small recurrent product `h [B, hid] · w_h [hid, 4H]` into the
    /// copy with the beta=1 GEMM — no concat, no separate add pass. The
    /// result is the full pre-activation for step `t`, ready for
    /// [`Graph::lstm_cell`].
    pub fn lstm_recur_step(&mut self, seq: Var, t: usize, batch: usize, h: Var, w_h: Var) -> Var {
        let (ss, hs, ws) = (self.shape(seq), self.shape(h), self.shape(w_h));
        assert!((t + 1) * batch <= ss[0], "lstm_recur_step rows out of range");
        assert_eq!(hs[0], batch, "lstm_recur_step h batch");
        assert_eq!(hs[1], ws[0], "lstm_recur_step inner dims");
        assert_eq!(ws[1], ss[1], "lstm_recur_step width");
        let gemm = Gemm { ta: false, tb: false, m: batch, k: hs[1], n: ws[1] };
        let a = Attr::Recur { t, gemm };
        self.record(&RECUR_STEP, &[seq, h, w_h], &[&[batch, ss[1]]], a, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::grad_check;
    use legw_tensor::Tensor;

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
        for (x, y) in
            gf.grad(pa_f).unwrap().as_slice().iter().zip(gu.grad(pa_u).unwrap().as_slice())
        {
            assert!((x - y).abs() < 1e-6, "{x} vs {y}");
        }
    }

    /// `lstm_preact_seq` must match the unfused `add_bias(matmul(x, w), b)`
    /// chain bitwise (f32 addition commutes, and the accumulate-GEMM store
    /// computes the identical per-element sum), with identical gradients.
    #[test]
    fn preact_seq_matches_matmul_add_bias() {
        for &(rows, ind, hid4) in
            &[(1usize, 1usize, 4usize), (6, 5, 12), (13, 7, 20), (24, 28, 512)]
        {
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
        grad_check(&[seeded(61, &[6, 3]), seeded(62, &[3, 8]), seeded(63, &[8])], |g, vs| {
            let p = g.lstm_preact_seq(vs[0], vs[1], vs[2]);
            let t = g.tanh(p);
            g.sum_all(t)
        });
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
            let (h1, c1) =
                if fused { g.lstm_cell(p1, c) } else { unfused_cell(&mut g, p1, c, hid) };
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
