//! Bahdanau-style additive attention (the paper's GNMT uses "normalized
//! Bahdanau attention"; we implement the standard additive form, which
//! exercises the identical code path).

use crate::param::{Binding, ParamId, ParamSet};
use legw_autograd::{Graph, Var};
use legw_tensor::Tensor;
use rand::Rng;

/// Additive attention
/// `score(h_t, q) = vᵀ · tanh(h_t · W_enc + q · W_dec)`,
/// with softmax over encoder positions and a convex-combination context.
pub struct BahdanauAttention {
    /// Encoder projection `[enc_hidden, attn]`.
    pub w_enc: ParamId,
    /// Decoder-query projection `[dec_hidden, attn]`.
    pub w_dec: ParamId,
    /// Score vector `[attn, 1]`.
    pub v: ParamId,
}

impl BahdanauAttention {
    /// Creates the attention parameters.
    pub fn new<R: Rng>(
        ps: &mut ParamSet,
        rng: &mut R,
        name: &str,
        enc_hidden: usize,
        dec_hidden: usize,
        attn: usize,
    ) -> Self {
        Self {
            w_enc: ps.add(format!("{name}.w_enc"), Tensor::xavier_uniform(rng, enc_hidden, attn)),
            w_dec: ps.add(format!("{name}.w_dec"), Tensor::xavier_uniform(rng, dec_hidden, attn)),
            v: ps.add(format!("{name}.v"), Tensor::xavier_uniform(rng, attn, 1)),
        }
    }

    /// Computes the context vector for one decode step.
    ///
    /// * `enc_states[t]` — encoder output at source position `t`, `[B, H_enc]`.
    /// * `enc_proj[t]` — cached projections `enc_states[t] · W_enc` from
    ///   [`BahdanauAttention::project_encoder`] (computed once per batch).
    /// * `query` — decoder hidden state `[B, H_dec]`.
    ///
    /// Returns `(context [B, H_enc], weights [B, T])`.
    pub fn step(
        &self,
        g: &mut Graph,
        bd: &mut Binding,
        ps: &ParamSet,
        enc_states: &[Var],
        enc_proj: &[Var],
        query: Var,
    ) -> (Var, Var) {
        assert_eq!(enc_states.len(), enc_proj.len());
        assert!(!enc_states.is_empty(), "attention over empty source");
        let w_dec = bd.bind(g, ps, self.w_dec);
        let v = bd.bind(g, ps, self.v);
        let q_proj = g.matmul(query, w_dec); // [B, A]

        // scores: one [B,1] column per source position
        let mut cols = Vec::with_capacity(enc_states.len());
        for &ep in enc_proj {
            let s = g.add(ep, q_proj);
            let t = g.tanh(s);
            let e = g.matmul(t, v); // [B, 1]
            cols.push(e);
        }
        let scores = g.concat_cols(&cols); // [B, T]
        let weights = g.softmax_rows(scores);

        // context = Σ_t α_t · enc_t
        let mut context: Option<Var> = None;
        for (t, &h) in enc_states.iter().enumerate() {
            let a_t = g.slice_cols(weights, t, t + 1); // [B,1]
            let term = g.row_scale(h, a_t);
            context = Some(match context {
                Some(c) => g.add(c, term),
                None => term,
            });
        }
        (context.unwrap(), weights)
    }

    /// Pre-projects encoder states (`h_t · W_enc`), done once per batch and
    /// reused across decode steps.
    pub fn project_encoder(
        &self,
        g: &mut Graph,
        bd: &mut Binding,
        ps: &ParamSet,
        enc_states: &[Var],
    ) -> Vec<Var> {
        let w_enc = bd.bind(g, ps, self.w_enc);
        enc_states.iter().map(|&h| g.matmul(h, w_enc)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn setup() -> (ParamSet, BahdanauAttention) {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(5);
        let attn = BahdanauAttention::new(&mut ps, &mut rng, "attn", 4, 4, 3);
        (ps, attn)
    }

    #[test]
    fn weights_form_distribution_and_context_has_encoder_width() {
        let (ps, attn) = setup();
        let mut g = Graph::new();
        let mut bd = Binding::new();
        let enc: Vec<Var> =
            (0..5).map(|t| g.input(Tensor::full(&[2, 4], 0.2 * t as f32 - 0.4))).collect();
        let proj = attn.project_encoder(&mut g, &mut bd, &ps, &enc);
        let q = g.input(Tensor::full(&[2, 4], 0.3));
        let (ctx, w) = attn.step(&mut g, &mut bd, &ps, &enc, &proj, q);
        assert_eq!(g.value(ctx).shape(), &[2, 4]);
        assert_eq!(g.value(w).shape(), &[2, 5]);
        // each row of the weights sums to one
        let ws = g.value(w);
        for b in 0..2 {
            let s: f32 = (0..5).map(|t| ws.at2(b, t)).sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn context_is_convex_combination() {
        // with identical encoder states everywhere, context equals them
        let (ps, attn) = setup();
        let mut g = Graph::new();
        let mut bd = Binding::new();
        let state = Tensor::from_vec(vec![0.1, 0.2, 0.3, 0.4, 1.0, -1.0, 0.5, 0.0], &[2, 4]);
        let enc: Vec<Var> = (0..3).map(|_| g.input(state.clone())).collect();
        let proj = attn.project_encoder(&mut g, &mut bd, &ps, &enc);
        let q = g.input(Tensor::full(&[2, 4], -0.2));
        let (ctx, _) = attn.step(&mut g, &mut bd, &ps, &enc, &proj, q);
        for (c, s) in g.value(ctx).as_slice().iter().zip(state.as_slice()) {
            assert!((c - s).abs() < 1e-5);
        }
    }

    #[test]
    fn gradients_reach_all_attention_params() {
        let (mut ps, attn) = setup();
        let mut g = Graph::new();
        let mut bd = Binding::new();
        let enc: Vec<Var> =
            (0..4).map(|t| g.input(Tensor::full(&[1, 4], (t as f32 - 1.5) * 0.3))).collect();
        let proj = attn.project_encoder(&mut g, &mut bd, &ps, &enc);
        let q = g.input(Tensor::full(&[1, 4], 0.1));
        let (ctx, _) = attn.step(&mut g, &mut bd, &ps, &enc, &proj, q);
        let sq = g.mul(ctx, ctx);
        let loss = g.sum_all(sq);
        g.backward(loss);
        bd.write_grads(&g, &mut ps);
        for id in [attn.w_enc, attn.w_dec, attn.v] {
            assert!(ps.get(id).grad.l2_norm() > 0.0, "no grad for {:?}", ps.get(id).name);
        }
    }
}
