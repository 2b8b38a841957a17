//! Evaluation metrics: classification accuracy (top-1/top-k), perplexity,
//! and corpus BLEU-4 — the three quality metrics of Table 1.

use legw_tensor::Tensor;
use std::collections::HashMap;

/// Top-1 accuracy of `logits [B, C]` against labels.
pub fn accuracy(logits: &Tensor, labels: &[usize]) -> f64 {
    assert_eq!(logits.dim(0), labels.len());
    let preds = logits.argmax_rows();
    let correct = preds.iter().zip(labels).filter(|(p, l)| p == l).count();
    correct as f64 / labels.len().max(1) as f64
}

/// Top-k accuracy (the paper reports ImageNet top-5).
pub fn top_k_accuracy(logits: &Tensor, labels: &[usize], k: usize) -> f64 {
    assert_eq!(logits.dim(0), labels.len());
    let (b, c) = (logits.dim(0), logits.dim(1));
    let k = k.min(c);
    let src = logits.as_slice();
    let mut correct = 0usize;
    for (i, &label) in labels.iter().enumerate() {
        let row = &src[i * c..(i + 1) * c];
        let target = row[label];
        // count entries strictly greater than the target's logit; ties
        // resolved in the target's favour (consistent with argmax-first)
        let higher = row.iter().filter(|&&v| v > target).count();
        if higher < k {
            correct += 1;
        }
    }
    correct as f64 / b.max(1) as f64
}

/// Perplexity from a mean negative-log-likelihood (nats per token).
pub fn perplexity(mean_nll: f64) -> f64 {
    mean_nll.exp()
}

/// Corpus-level BLEU-4 with brevity penalty (Papineni et al. 2002), the
/// GNMT quality metric. Uses add-ε smoothing only to avoid log(0) when a
/// higher-order n-gram has zero matches, matching sacrebleu's `exp` default
/// closely enough for shape comparisons.
///
/// Returns a score in `[0, 100]`.
pub fn corpus_bleu(candidates: &[Vec<usize>], references: &[Vec<usize>]) -> f64 {
    assert_eq!(candidates.len(), references.len(), "one reference per candidate");
    if candidates.is_empty() {
        return 0.0;
    }
    let max_n = 4usize;
    let mut match_counts = vec![0u64; max_n];
    let mut total_counts = vec![0u64; max_n];
    let mut cand_len = 0u64;
    let mut ref_len = 0u64;

    for (cand, rf) in candidates.iter().zip(references) {
        cand_len += cand.len() as u64;
        ref_len += rf.len() as u64;
        for n in 1..=max_n {
            if cand.len() < n {
                continue;
            }
            let mut ref_ngrams: HashMap<&[usize], u64> = HashMap::new();
            if rf.len() >= n {
                for w in rf.windows(n) {
                    *ref_ngrams.entry(w).or_insert(0) += 1;
                }
            }
            for w in cand.windows(n) {
                total_counts[n - 1] += 1;
                if let Some(c) = ref_ngrams.get_mut(w) {
                    if *c > 0 {
                        *c -= 1;
                        match_counts[n - 1] += 1;
                    }
                }
            }
        }
    }

    if match_counts[0] == 0 {
        return 0.0; // no unigram overlap at all — BLEU is zero by convention
    }
    let mut log_precision = 0.0f64;
    for n in 0..max_n {
        if total_counts[n] == 0 {
            return 0.0; // all candidates shorter than n — degenerate corpus
        }
        let p = if match_counts[n] == 0 {
            // smoothed floor
            1.0 / (2.0 * total_counts[n] as f64)
        } else {
            match_counts[n] as f64 / total_counts[n] as f64
        };
        log_precision += p.ln() / max_n as f64;
    }
    let bp = if cand_len >= ref_len || cand_len == 0 {
        1.0
    } else {
        (1.0 - ref_len as f64 / cand_len as f64).exp()
    };
    100.0 * bp * log_precision.exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use legw_propcheck::prelude::*;

    #[test]
    fn accuracy_counts_matches() {
        let logits = Tensor::from_vec(vec![1., 5., 0., 9., 2., 3.], &[2, 3]);
        assert!((accuracy(&logits, &[1, 0]) - 1.0).abs() < 1e-12);
        assert!((accuracy(&logits, &[1, 2]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn top_k_contains_top_1() {
        let logits = Tensor::from_vec(vec![0.1, 0.9, 0.5, 0.3, 0.2, 0.8], &[2, 3]);
        let labels = [2, 0];
        let a1 = top_k_accuracy(&logits, &labels, 1);
        let a2 = top_k_accuracy(&logits, &labels, 2);
        let a3 = top_k_accuracy(&logits, &labels, 3);
        assert!(a1 <= a2 && a2 <= a3);
        assert!((a3 - 1.0).abs() < 1e-12, "top-C is always 1");
        assert!((a2 - 1.0).abs() < 1e-12); // both labels in top-2
        assert!((a1 - 0.0).abs() < 1e-12);
    }

    #[test]
    fn perplexity_of_uniform_model() {
        // uniform over V: nll = ln V ⇒ ppl = V
        assert!((perplexity(100f64.ln()) - 100.0).abs() < 1e-9);
        assert!((perplexity(0.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bleu_perfect_match_is_100() {
        let refs = vec![vec![5, 6, 7, 8, 9], vec![4, 4, 5, 6, 7, 8]];
        let score = corpus_bleu(&refs, &refs);
        assert!((score - 100.0).abs() < 1e-9, "got {score}");
    }

    #[test]
    fn bleu_disjoint_tokens_near_zero() {
        let cand = vec![vec![1, 1, 1, 1, 1]];
        let refs = vec![vec![2, 3, 4, 5, 6]];
        assert!(corpus_bleu(&cand, &refs) < 1.0);
    }

    #[test]
    fn bleu_partial_overlap_in_between() {
        let cand = vec![vec![5, 6, 7, 99, 98]];
        let refs = vec![vec![5, 6, 7, 8, 9]];
        let s = corpus_bleu(&cand, &refs);
        assert!(s > 1.0 && s < 80.0, "got {s}");
    }

    #[test]
    fn bleu_brevity_penalty_punishes_short_candidates() {
        let long_ref = vec![vec![1, 2, 3, 4, 5, 6, 7, 8]];
        let full = corpus_bleu(&long_ref, &long_ref);
        let short = corpus_bleu(&[vec![1, 2, 3, 4]], &long_ref);
        assert!(short < full * 0.8, "short {short} vs full {full}");
    }

    #[test]
    fn bleu_empty_corpus_is_zero() {
        assert_eq!(corpus_bleu(&[], &[]), 0.0);
    }

    #[test]
    fn bleu_order_sensitive() {
        let r = vec![vec![1, 2, 3, 4, 5, 6]];
        let shuffled = vec![vec![6, 4, 2, 5, 3, 1]];
        assert!(corpus_bleu(&shuffled, &r) < corpus_bleu(&r, &r) * 0.5);
    }

    proptest! {
        #[test]
        fn prop_bleu_in_range(
            seqs in legw_propcheck::collection::vec(
                legw_propcheck::collection::vec(0usize..10, 1..12),
                1..8,
            )
        ) {
            let cands: Vec<Vec<usize>> = seqs.iter().map(|s| {
                s.iter().map(|&t| (t + 1) % 10).collect()
            }).collect();
            let score = corpus_bleu(&cands, &seqs);
            prop_assert!((0.0..=100.0).contains(&score));
            // self-BLEU is maximal
            let self_score = corpus_bleu(&seqs, &seqs);
            prop_assert!(self_score >= score - 1e-9);
        }

        #[test]
        fn prop_accuracy_bounds(b in 1usize..16, c in 2usize..8, seed in 0u64..100) {
            let mut vals = Vec::with_capacity(b * c);
            let mut s = seed;
            for _ in 0..b * c {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                vals.push(((s >> 33) as f32) / (1u64 << 31) as f32);
            }
            let logits = Tensor::from_vec(vals, &[b, c]);
            let labels: Vec<usize> = (0..b).map(|i| i % c).collect();
            let a = accuracy(&logits, &labels);
            prop_assert!((0.0..=1.0).contains(&a));
            prop_assert!(top_k_accuracy(&logits, &labels, c) == 1.0);
        }
    }
}
