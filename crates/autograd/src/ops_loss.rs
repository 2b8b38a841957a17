//! Embedding lookup, row softmax, and softmax cross-entropy (with
//! ignore-index masking for padded sequence batches).

use crate::graph::{Graph, Var, IGNORE_INDEX};
use crate::ops_basic::up;
use crate::opk;
use crate::table::{Attr, Detour, Entry, Role, State};
use legw_tensor::softmax_rows_into;

/// `Row`: `out[i, ·] = table[ids[i], ·]`, the ids a feed.
static EMBED: Entry = Entry::new("EmbedF", |io| {
    let Attr::Row { width } = *io.a else { unreachable!() };
    let ids = &io.st.as_deref().expect("embedding without its ids").ids;
    opk::embed_fwd(io.src.get(0), ids, width, io.out[0]);
})
.grad(|g, n, u| g.contrib(&EMBED_G, &[up(u)], &n.src, n.a, n.st))
.role(Role::Ids);

/// `Row`: row softmax.
static SOFTMAX: Entry = Entry::new("SoftmaxF", |io| {
    let (Attr::Row { width }, x) = (*io.a, io.src.get(0)) else { unreachable!() };
    softmax_rows_into(x, x.len() / width, width, io.out[0]);
})
.grad(|g, n, u| g.contrib(&SOFTMAX_G, &[up(u), n.me()], &n.src, n.a, None));

/// `Row`: mean cross-entropy of `logits [b, width]` against the label
/// feed; keeps the probabilities and the active-row count for the backward.
static CE: Entry = Entry::new("CeF", |io| {
    let Attr::Row { width } = *io.a else { unreachable!() };
    let st = io.st.as_deref_mut().expect("cross-entropy without its labels");
    (io.out[0][0], st.active) = opk::ce_fwd(io.src.get(0), &st.ids, width, io.buf);
})
.grad(|g, n, u| g.contrib(&CE_G, &[up(u)], &n.src, n.a, n.st))
.role(Role::Labels);

static EMBED_G: Entry = Entry::new("EmbedG", |io| {
    let Attr::Row { width } = *io.a else { unreachable!() };
    let ids = &io.st.as_deref().expect("embedding without its ids").ids;
    opk::embed_bwd(io.out[0], io.mode[0], io.scratch, io.src.get(0), ids, width);
})
.detour(Detour::Each);

static SOFTMAX_G: Entry = Entry::new("SoftmaxG", |io| {
    let Attr::Row { width } = *io.a else { unreachable!() };
    opk::softmax_bwd(io.out[0], io.mode[0], io.src.get(0), io.src.get(1), width);
});

static CE_G: Entry = Entry::new("CeG", |io| {
    let (Attr::Row { width }, seed) = (*io.a, io.src.get(0)[0]) else { unreachable!() };
    let st = io.st.as_deref().expect("cross-entropy without its labels");
    opk::ce_bwd(io.out[0], io.mode[0], seed, io.buf, &st.ids, st.active, width);
});

impl Graph {
    /// Looks up rows of an embedding table: `out[i,·] = table[ids[i],·]`.
    pub fn embedding(&mut self, table: Var, ids: &[usize]) -> Var {
        let t = self.shape(table);
        assert_eq!(t.len(), 2, "embedding table must be 2-D");
        let st = State { ids: ids.to_vec(), ..State::default() };
        self.record(&EMBED, &[table], &[&[ids.len(), t[1]]], Attr::Row { width: t[1] }, Some(st))
    }

    /// Row-wise softmax (used for attention weights).
    pub fn softmax_rows(&mut self, a: Var) -> Var {
        let s = self.shape(a);
        self.record(&SOFTMAX, &[a], &[&s], Attr::Row { width: s[1] }, None)
    }

    /// Mean softmax cross-entropy of `logits [B,V]` against integer labels.
    ///
    /// Rows whose label equals [`Graph::ignore_index`] contribute neither to
    /// the mean nor to the gradient — used to mask padding in seq2seq
    /// batches. Returns a scalar. If every row is masked the loss is 0.
    pub fn softmax_cross_entropy(&mut self, logits: Var, labels: &[usize]) -> Var {
        let s = self.shape(logits);
        assert_eq!(s.len(), 2, "logits must be [B,V]");
        assert_eq!(labels.len(), s[0], "one label per logit row");
        let st = State { ids: labels.to_vec(), ..State::buf(s[0] * s[1]) };
        self.record(&CE, &[logits], &[&[1]], Attr::Row { width: s[1] }, Some(st))
    }

    /// The sentinel label excluded from [`Graph::softmax_cross_entropy`].
    pub fn ignore_index() -> usize {
        IGNORE_INDEX
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legw_tensor::Tensor;
    use crate::check::grad_check;

    #[test]
    fn embedding_forward_picks_rows() {
        let mut g = Graph::new();
        let table = g.param(Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[4, 3]));
        let e = g.embedding(table, &[2, 0, 2]);
        assert_eq!(g.value(e).shape(), &[3, 3]);
        assert_eq!(g.value(e).as_slice(), &[6., 7., 8., 0., 1., 2., 6., 7., 8.]);
    }

    #[test]
    fn embedding_backward_accumulates_repeats() {
        let mut g = Graph::new();
        let table = g.param(Tensor::zeros(&[3, 2]));
        let e = g.embedding(table, &[1, 1, 0]);
        let s = g.sum_all(e);
        g.backward(s);
        // row 1 hit twice, row 0 once, row 2 never
        assert_eq!(g.grad(table).unwrap().as_slice(), &[1., 1., 2., 2., 0., 0.]);
    }

    #[test]
    fn embedding_grad_check() {
        grad_check(&[Tensor::from_vec((0..8).map(|x| x as f32 * 0.1).collect(), &[4, 2])], |g, vs| {
            let e = g.embedding(vs[0], &[3, 1, 1, 0]);
            let t = g.tanh(e);
            g.mean_all(t)
        });
    }

    #[test]
    fn softmax_rows_grad_check() {
        grad_check(
            &[Tensor::from_vec(vec![0.1, 1.2, -0.4, 0.9, -1.0, 0.0], &[2, 3])],
            |g, vs| {
                let s = g.softmax_rows(vs[0]);
                let sq = g.mul(s, s); // non-trivial downstream
                g.sum_all(sq)
            },
        );
    }

    #[test]
    fn cross_entropy_matches_manual() {
        let mut g = Graph::new();
        let logits = g.param(Tensor::from_vec(vec![2.0, 0.0, 0.0, 0.0, 3.0, 0.0], &[2, 3]));
        let loss = g.softmax_cross_entropy(logits, &[0, 1]);
        // row losses: -ln(e^2/(e^2+2)), -ln(e^3/(e^3+2))
        let l0 = -((2f64.exp()) / (2f64.exp() + 2.0)).ln();
        let l1 = -((3f64.exp()) / (3f64.exp() + 2.0)).ln();
        let expect = ((l0 + l1) / 2.0) as f32;
        assert!((g.value(loss).item() - expect).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_grad_check() {
        grad_check(
            &[Tensor::from_vec(vec![0.5, -0.3, 0.8, 1.2, 0.1, -0.7], &[2, 3])],
            |g, vs| g.softmax_cross_entropy(vs[0], &[2, 0]),
        );
    }

    #[test]
    fn cross_entropy_ignore_index_masks_rows() {
        let mut g = Graph::new();
        let logits = g.param(Tensor::from_vec(vec![2.0, 0.0, 7.0, -3.0], &[2, 2]));
        let loss = g.softmax_cross_entropy(logits, &[0, IGNORE_INDEX]);
        g.backward(loss);
        let grad = g.grad(logits).unwrap();
        // masked row contributes nothing
        assert_eq!(grad.as_slice()[2], 0.0);
        assert_eq!(grad.as_slice()[3], 0.0);
        // unmasked row has the usual p - 1 / p structure
        assert!(grad.as_slice()[0] < 0.0);
        assert!(grad.as_slice()[1] > 0.0);
        // loss equals the single active row's loss
        let expect = -(2f32.exp() / (2f32.exp() + 1.0)).ln();
        assert!((g.value(loss).item() - expect).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_all_masked_is_zero() {
        let mut g = Graph::new();
        let logits = g.param(Tensor::ones(&[2, 3]));
        let loss = g.softmax_cross_entropy(logits, &[IGNORE_INDEX, IGNORE_INDEX]);
        g.backward(loss);
        assert_eq!(g.value(loss).item(), 0.0);
        // gradient never materialises (node untouched) or is zero
        if let Some(gr) = g.grad(logits) {
            assert!(gr.as_slice().iter().all(|&x| x == 0.0));
        }
    }

    #[test]
    #[should_panic(expected = "out of vocab")]
    fn cross_entropy_bad_label_panics() {
        let mut g = Graph::new();
        let logits = g.param(Tensor::ones(&[1, 3]));
        g.softmax_cross_entropy(logits, &[3]);
    }

    #[test]
    fn masked_ce_grad_check() {
        grad_check(
            &[Tensor::from_vec(vec![0.5, -0.3, 0.8, 1.2, 0.1, -0.7, 0.2, 0.9, -1.1], &[3, 3])],
            |g, vs| g.softmax_cross_entropy(vs[0], &[2, IGNORE_INDEX, 1]),
        );
    }
}
