//! Token embedding table.

use crate::param::{Binding, ParamId, ParamSet};
use legw_autograd::{Graph, Var};
use legw_tensor::Tensor;
use rand::Rng;

/// Lookup table mapping token ids to dense vectors.
pub struct Embedding {
    /// Table `[vocab, dim]`.
    pub table: ParamId,
    vocab: usize,
    dim: usize,
}

impl Embedding {
    /// Creates the table with `N(0, 0.1)` initialisation.
    pub fn new<R: Rng>(
        ps: &mut ParamSet,
        rng: &mut R,
        name: &str,
        vocab: usize,
        dim: usize,
    ) -> Self {
        let table =
            ps.add(format!("{name}.table"), Tensor::rand_normal(rng, &[vocab, dim], 0.0, 0.1));
        Self { table, vocab, dim }
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Embedding width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Looks up a batch of ids → `[ids.len(), dim]`.
    pub fn forward(&self, g: &mut Graph, b: &mut Binding, ps: &ParamSet, ids: &[usize]) -> Var {
        let t = b.bind(g, ps, self.table);
        g.embedding(t, ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn lookup_shape() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(0);
        let e = Embedding::new(&mut ps, &mut rng, "emb", 10, 4);
        assert_eq!(e.vocab(), 10);
        assert_eq!(e.dim(), 4);
        let mut g = Graph::new();
        let mut b = Binding::new();
        let v = e.forward(&mut g, &mut b, &ps, &[0, 3, 9]);
        assert_eq!(g.value(v).shape(), &[3, 4]);
    }

    #[test]
    fn grads_hit_only_used_rows() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(0);
        let e = Embedding::new(&mut ps, &mut rng, "emb", 5, 2);
        let mut g = Graph::new();
        let mut b = Binding::new();
        let v = e.forward(&mut g, &mut b, &ps, &[1, 1]);
        let s = g.sum_all(v);
        g.backward(s);
        b.write_grads(&g, &mut ps);
        let grad = &ps.get(e.table).grad;
        assert_eq!(grad.as_slice()[2], 2.0); // row 1 hit twice
        assert_eq!(grad.as_slice()[0], 0.0); // row 0 untouched
        assert_eq!(grad.as_slice()[8], 0.0); // row 4 untouched
    }
}
