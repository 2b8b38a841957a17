//! Embedding lookup, row softmax, and softmax cross-entropy (with
//! ignore-index masking for padded sequence batches).

use crate::graph::{Graph, Op, Var, IGNORE_INDEX};
use crate::opk::{self, Mode};
use legw_tensor::Tensor;

impl Graph {
    /// Looks up rows of an embedding table: `out[i,·] = table[ids[i],·]`.
    pub fn embedding(&mut self, table: Var, ids: &[usize]) -> Var {
        let t = self.value(table);
        assert_eq!(t.ndim(), 2, "embedding table must be 2-D");
        let dim = t.dim(1);
        let mut out = vec![0.0f32; ids.len() * dim];
        opk::embed_fwd(t.as_slice(), ids, dim, &mut out);
        let v = Tensor::from_vec(out, &[ids.len(), dim]);
        let rg = self.requires(table);
        self.push(v, rg, Op::Embedding { table, ids: ids.to_vec() })
    }

    /// Row-wise softmax (used for attention weights).
    pub fn softmax_rows(&mut self, a: Var) -> Var {
        let v = self.value(a).softmax_rows();
        let rg = self.requires(a);
        self.push(v, rg, Op::SoftmaxRows(a))
    }

    /// Mean softmax cross-entropy of `logits [B,V]` against integer labels.
    ///
    /// Rows whose label equals [`Graph::ignore_index`] contribute neither to
    /// the mean nor to the gradient — used to mask padding in seq2seq
    /// batches. Returns a scalar. If every row is masked the loss is 0.
    pub fn softmax_cross_entropy(&mut self, logits: Var, labels: &[usize]) -> Var {
        let lv = self.value(logits);
        assert_eq!(lv.ndim(), 2, "logits must be [B,V]");
        let (b, vsz) = (lv.dim(0), lv.dim(1));
        assert_eq!(labels.len(), b, "one label per logit row");
        let mut probs = vec![0.0f32; b * vsz];
        let (mean, active) = opk::ce_fwd(lv.as_slice(), labels, vsz, &mut probs);
        let probs = Tensor::from_vec(probs, &[b, vsz]);
        let rg = self.requires(logits);
        self.push(
            Tensor::scalar(mean),
            rg,
            Op::SoftmaxCrossEntropy { logits, labels: labels.to_vec(), probs, active },
        )
    }

    /// The sentinel label excluded from [`Graph::softmax_cross_entropy`].
    pub fn ignore_index() -> usize {
        IGNORE_INDEX
    }

    pub(crate) fn backward_loss(&mut self, op: &Op, v: Var, up: &Tensor) {
        match op {
            Op::Embedding { table, ids } => {
                let t = self.value(*table);
                let (vocab, dim) = (t.dim(0), t.dim(1));
                let mut dt = vec![0.0f32; vocab * dim];
                opk::embed_bwd(&mut dt, Mode::Store, &mut [], up.as_slice(), ids, dim);
                self.accumulate(*table, Tensor::from_vec(dt, &[vocab, dim]));
            }
            Op::SoftmaxRows(a) => {
                let y = &self.nodes[v.0].value;
                let (m, n) = (y.dim(0), y.dim(1));
                let mut dx = vec![0.0f32; m * n];
                opk::softmax_bwd(&mut dx, Mode::Store, up.as_slice(), y.as_slice(), n);
                self.accumulate(*a, Tensor::from_vec(dx, &[m, n]));
            }
            Op::SoftmaxCrossEntropy { logits, labels, probs, active } => {
                if *active == 0 {
                    return; // no contribution: the subtree stays gradient-free
                }
                let (b, vsz) = (probs.dim(0), probs.dim(1));
                let mut dl = vec![0.0f32; b * vsz];
                opk::ce_bwd(&mut dl, Mode::Store, up.item(), probs.as_slice(), labels, *active, vsz);
                self.accumulate(*logits, Tensor::from_vec(dl, &[b, vsz]));
            }
            _ => unreachable!("backward_loss called with non-loss op"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
