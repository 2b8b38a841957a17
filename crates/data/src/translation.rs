//! Synthetic translation corpus: the GNMT/WMT'16 stand-in (§5.1.3).
//!
//! The "language" is a deterministic but non-trivial transduction: the
//! target is the *reversed* source passed through a global token
//! permutation, with a second permutation applied at odd target positions.
//! Reversal forces the model to use attention (monotonic copying fails);
//! the position-dependent relabelling forces the decoder to track position.
//! BLEU on held-out pairs behaves like the paper's metric: near zero for
//! diverged training, rising smoothly toward 100 as the model learns.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Beginning-of-sequence token id.
pub const BOS: usize = 0;
/// End-of-sequence token id.
pub const EOS: usize = 1;
/// Padding token id.
pub const PAD: usize = 2;
/// First id usable for content tokens.
pub const FIRST_CONTENT: usize = 3;

/// A pair-generating synthetic translation dataset.
pub struct SynthTranslation {
    /// Total vocabulary (shared between source and target, like GNMT's
    /// shared embeddings).
    pub vocab: usize,
    /// Training pairs `(source, target)` without BOS/EOS.
    pub train: Vec<(Vec<usize>, Vec<usize>)>,
    /// Held-out pairs.
    pub test: Vec<(Vec<usize>, Vec<usize>)>,
    perm_even: Vec<usize>,
    perm_odd: Vec<usize>,
    min_len: usize,
    max_len: usize,
    position_rule: bool,
}

impl SynthTranslation {
    /// Generates `train_n`/`test_n` pairs over `content` content tokens with
    /// source lengths in `[min_len, max_len]`, with the position-dependent
    /// second permutation enabled (the harder task).
    pub fn generate(
        seed: u64,
        content: usize,
        train_n: usize,
        test_n: usize,
        min_len: usize,
        max_len: usize,
    ) -> Self {
        Self::generate_with(seed, content, train_n, test_n, min_len, max_len, true)
    }

    /// As [`SynthTranslation::generate`] but with the position-dependent
    /// relabelling optional: `position_rule = false` yields the easier
    /// reversal-plus-single-permutation language (useful when the training
    /// budget is small).
    #[allow(clippy::too_many_arguments)]
    pub fn generate_with(
        seed: u64,
        content: usize,
        train_n: usize,
        test_n: usize,
        min_len: usize,
        max_len: usize,
        position_rule: bool,
    ) -> Self {
        assert!(content >= 4 && min_len >= 2 && max_len >= min_len);
        let mut rng = StdRng::seed_from_u64(seed);
        let vocab = FIRST_CONTENT + content;
        let mut perm_even: Vec<usize> = (FIRST_CONTENT..vocab).collect();
        perm_even.shuffle(&mut rng);
        let mut perm_odd: Vec<usize> = (FIRST_CONTENT..vocab).collect();
        perm_odd.shuffle(&mut rng);

        let mut this = Self {
            vocab,
            train: Vec::new(),
            test: Vec::new(),
            perm_even,
            perm_odd,
            min_len,
            max_len,
            position_rule,
        };
        this.train = (0..train_n).map(|_| this.sample_pair(&mut rng)).collect();
        this.test = (0..test_n).map(|_| this.sample_pair(&mut rng)).collect();
        this
    }

    fn sample_pair(&self, rng: &mut StdRng) -> (Vec<usize>, Vec<usize>) {
        let len = rng.gen_range(self.min_len..=self.max_len);
        let src: Vec<usize> = (0..len).map(|_| rng.gen_range(FIRST_CONTENT..self.vocab)).collect();
        (src.clone(), self.translate(&src))
    }

    /// The ground-truth transduction.
    pub fn translate(&self, src: &[usize]) -> Vec<usize> {
        src.iter()
            .rev()
            .enumerate()
            .map(|(pos, &tok)| {
                let idx = tok - FIRST_CONTENT;
                if pos % 2 == 0 || !self.position_rule {
                    self.perm_even[idx]
                } else {
                    self.perm_odd[idx]
                }
            })
            .collect()
    }

    /// Longest source/target length in the corpus.
    pub fn max_len(&self) -> usize {
        self.max_len
    }

    /// Builds padded batches from a split. Each batch carries:
    /// `src[t][b]` (padded with [`PAD`]), decoder inputs (BOS-prefixed
    /// target) and decoder targets (EOS-suffixed target), padded with a
    /// mask value the loss ignores.
    pub fn batches(&self, train_split: bool, batch: usize) -> Vec<TranslationBatch> {
        let pairs = if train_split { &self.train } else { &self.test };
        assert!(batch > 0);
        let mut out = Vec::new();
        for chunk in pairs.chunks(batch) {
            out.push(TranslationBatch::from_pairs(chunk, self.max_len));
        }
        out
    }

    /// Iterations per epoch at a batch size.
    pub fn iters_per_epoch(&self, batch: usize) -> usize {
        self.train.len().div_ceil(batch).max(1)
    }
}

/// A padded seq2seq batch in time-major layout.
#[derive(Clone)]
pub struct TranslationBatch {
    /// `src[t][b]`: source ids, [`PAD`]-padded.
    pub src: Vec<Vec<usize>>,
    /// `dec_in[t][b]`: decoder inputs, `BOS + target`, PAD-padded.
    pub dec_in: Vec<Vec<usize>>,
    /// `dec_tgt[t][b]`: decoder targets, `target + EOS`; padded positions
    /// hold `usize::MAX` (the loss's ignore index).
    pub dec_tgt: Vec<Vec<usize>>,
    /// Unpadded references (for BLEU).
    pub refs: Vec<Vec<usize>>,
    /// Unpadded sources (for greedy decoding).
    pub sources: Vec<Vec<usize>>,
}

impl TranslationBatch {
    fn from_pairs(pairs: &[(Vec<usize>, Vec<usize>)], max_len: usize) -> Self {
        let b = pairs.len();
        let src_t = max_len;
        let tgt_t = max_len + 1; // room for EOS
        let mut src = vec![vec![PAD; b]; src_t];
        let mut dec_in = vec![vec![PAD; b]; tgt_t];
        let mut dec_tgt = vec![vec![usize::MAX; b]; tgt_t];
        for (bi, (s, t)) in pairs.iter().enumerate() {
            for (ti, &tok) in s.iter().enumerate() {
                src[ti][bi] = tok;
            }
            dec_in[0][bi] = BOS;
            for (ti, &tok) in t.iter().enumerate() {
                dec_in[ti + 1][bi] = tok;
                dec_tgt[ti][bi] = tok;
            }
            dec_tgt[t.len()][bi] = EOS;
        }
        Self {
            src,
            dec_in,
            dec_tgt,
            refs: pairs.iter().map(|(_, t)| t.clone()).collect(),
            sources: pairs.iter().map(|(s, _)| s.clone()).collect(),
        }
    }

    /// Batch width.
    pub fn batch_size(&self) -> usize {
        self.refs.len()
    }

    /// Builds an inference-only batch from bare source sequences: sources
    /// are [`PAD`]-padded to the longest row (the same time-major layout
    /// training batches use, so batched greedy decoding matches the
    /// evaluation path), the teacher-forcing fields stay empty, and `refs`
    /// holds one empty reference per row so [`TranslationBatch::batch_size`]
    /// works. The serving path assembles these from coalesced requests.
    pub fn for_inference(sources: &[Vec<usize>]) -> Self {
        assert!(!sources.is_empty(), "inference batch needs at least one row");
        let b = sources.len();
        let max_len = sources.iter().map(|s| s.len()).max().unwrap();
        assert!(max_len > 0, "empty source sequence");
        let mut src = vec![vec![PAD; b]; max_len];
        for (bi, s) in sources.iter().enumerate() {
            for (ti, &tok) in s.iter().enumerate() {
                src[ti][bi] = tok;
            }
        }
        Self {
            src,
            dec_in: Vec::new(),
            dec_tgt: Vec::new(),
            refs: vec![Vec::new(); b],
            sources: sources.to_vec(),
        }
    }

    /// The sub-batch of sequences `[start, end)` — every per-step id vector
    /// is column-sliced, keeping padding/masking intact. Used by the
    /// data-parallel executor to shard a batch across workers.
    pub fn slice(&self, start: usize, end: usize) -> TranslationBatch {
        assert!(start <= end && end <= self.batch_size());
        let cols = |rows: &[Vec<usize>]| -> Vec<Vec<usize>> {
            rows.iter().map(|r| r[start..end].to_vec()).collect()
        };
        TranslationBatch {
            src: cols(&self.src),
            dec_in: cols(&self.dec_in),
            dec_tgt: cols(&self.dec_tgt),
            refs: self.refs[start..end].to_vec(),
            sources: self.sources[start..end].to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data() -> SynthTranslation {
        SynthTranslation::generate(11, 20, 50, 10, 3, 6)
    }

    #[test]
    fn translation_is_deterministic_function_of_source() {
        let d = data();
        let src = vec![3, 4, 5, 6];
        assert_eq!(d.translate(&src), d.translate(&src));
        assert_eq!(d.translate(&src).len(), 4);
        // every pair in the corpus satisfies the transduction
        for (s, t) in d.train.iter().take(20) {
            assert_eq!(&d.translate(s), t);
        }
    }

    #[test]
    fn reversal_and_position_rule() {
        let d = data();
        let src = vec![5, 7, 9];
        let tgt = d.translate(&src);
        // position 0 of target corresponds to last source token via perm_even
        assert_eq!(tgt[0], d.perm_even[9 - FIRST_CONTENT]);
        assert_eq!(tgt[1], d.perm_odd[7 - FIRST_CONTENT]);
        assert_eq!(tgt[2], d.perm_even[5 - FIRST_CONTENT]);
    }

    #[test]
    fn content_tokens_only() {
        let d = data();
        for (s, t) in &d.train {
            assert!(s.iter().all(|&x| x >= FIRST_CONTENT && x < d.vocab));
            assert!(t.iter().all(|&x| x >= FIRST_CONTENT && x < d.vocab));
            assert_eq!(s.len(), t.len());
            assert!(s.len() >= 3 && s.len() <= 6);
        }
    }

    #[test]
    fn batch_padding_and_masking() {
        let d = data();
        let batches = d.batches(true, 8);
        assert_eq!(batches[0].batch_size(), 8);
        let b = &batches[0];
        assert_eq!(b.src.len(), 6);
        assert_eq!(b.dec_in.len(), 7);
        // dec_in starts with BOS everywhere
        assert!(b.dec_in[0].iter().all(|&x| x == BOS));
        // each target column ends with EOS exactly once, then masks
        for bi in 0..8 {
            let len = b.refs[bi].len();
            assert_eq!(b.dec_tgt[len][bi], EOS);
            for t in len + 1..b.dec_tgt.len() {
                assert_eq!(b.dec_tgt[t][bi], usize::MAX);
            }
            // dec_in shifted right by one relative to dec_tgt
            for t in 0..len {
                assert_eq!(b.dec_in[t + 1][bi], b.dec_tgt[t][bi]);
            }
        }
    }

    #[test]
    fn batches_partition_corpus() {
        let d = data();
        let total: usize = d.batches(true, 8).iter().map(|b| b.batch_size()).sum();
        assert_eq!(total, 50);
        assert_eq!(d.iters_per_epoch(8), 7);
    }
}
