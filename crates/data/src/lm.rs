//! Synthetic PTB: a token stream sampled from a seeded sparse Markov chain
//! with Zipf-weighted transitions, plus the stateful truncated-BPTT batcher
//! used for language modelling (§5.1.2).
//!
//! Each vocabulary entry has `branch` possible successors with Zipf weights,
//! so the stream has a *known entropy floor*: a perfect model reaches
//! `exp(H)` perplexity, a unigram model sits near `ln V`. An LSTM that
//! learns the transition table approaches the floor; diverged or badly
//! scaled training stays near vocabulary-size perplexity — the same dynamic
//! range the paper's PTB plots use.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A synthetic corpus with train/valid token streams.
pub struct SynthPtb {
    /// Vocabulary size.
    pub vocab: usize,
    /// Training token stream.
    pub train: Vec<usize>,
    /// Validation token stream.
    pub valid: Vec<usize>,
    /// Sparse successor table: `successors[v]` lists (token, probability).
    successors: Vec<Vec<(usize, f32)>>,
}

impl SynthPtb {
    /// Generates a corpus: `vocab` tokens, `branch` successors per token,
    /// `train_len`/`valid_len` stream lengths.
    pub fn generate(seed: u64, vocab: usize, branch: usize, train_len: usize, valid_len: usize) -> Self {
        assert!(vocab >= 2 && branch >= 2 && branch <= vocab);
        let mut rng = StdRng::seed_from_u64(seed);
        // Zipf weights shared across states, successor identities per state.
        let weights: Vec<f32> = (1..=branch).map(|r| 1.0 / r as f32).collect();
        let wsum: f32 = weights.iter().sum();
        let successors: Vec<Vec<(usize, f32)>> = (0..vocab)
            .map(|_| {
                let mut succ = Vec::with_capacity(branch);
                let mut used = std::collections::HashSet::new();
                while succ.len() < branch {
                    let t = rng.gen_range(0..vocab);
                    if used.insert(t) {
                        succ.push(t);
                    }
                }
                succ.into_iter()
                    .enumerate()
                    .map(|(r, t)| (t, weights[r] / wsum))
                    .collect()
            })
            .collect();

        let sample_stream = |len: usize, rng: &mut StdRng| {
            let mut stream = Vec::with_capacity(len);
            let mut cur = rng.gen_range(0..vocab);
            for _ in 0..len {
                stream.push(cur);
                let mut u: f32 = rng.gen();
                let succ = &successors[cur];
                let mut next = succ[succ.len() - 1].0;
                for &(t, p) in succ {
                    if u < p {
                        next = t;
                        break;
                    }
                    u -= p;
                }
                cur = next;
            }
            stream
        };
        let train = sample_stream(train_len, &mut rng);
        let valid = sample_stream(valid_len, &mut rng);
        Self { vocab, train, valid, successors }
    }

    /// Exact per-token entropy of the chain in nats (stationary distribution
    /// approximated as uniform over states — transitions share the same Zipf
    /// profile, so conditional entropy is state-independent and exact).
    pub fn entropy_floor(&self) -> f64 {
        let succ = &self.successors[0];
        -succ.iter().map(|&(_, p)| (p as f64) * (p as f64).ln()).sum::<f64>()
    }

    /// The perplexity a perfect model converges to: `exp(entropy)`.
    pub fn perplexity_floor(&self) -> f64 {
        self.entropy_floor().exp()
    }

    /// Standard continuous LM batching: the stream is cut into `batch`
    /// parallel tracks; each call yields windows of `seq_len` inputs and
    /// next-token targets, preserving state continuity across windows.
    pub fn batches(&self, split_train: bool, batch: usize, seq_len: usize) -> Vec<LmBatch> {
        let stream = if split_train { &self.train } else { &self.valid };
        assert!(batch > 0 && seq_len > 0);
        let track_len = stream.len() / batch;
        assert!(
            track_len > seq_len,
            "stream of {} tokens too short for batch {batch} × seq {seq_len}",
            stream.len()
        );
        let n_windows = (track_len - 1) / seq_len;
        let mut out = Vec::with_capacity(n_windows);
        for wi in 0..n_windows {
            let mut inputs = Vec::with_capacity(seq_len);
            let mut targets = Vec::with_capacity(seq_len);
            for t in 0..seq_len {
                let pos = wi * seq_len + t;
                let xs: Vec<usize> = (0..batch).map(|b| stream[b * track_len + pos]).collect();
                let ys: Vec<usize> = (0..batch).map(|b| stream[b * track_len + pos + 1]).collect();
                inputs.push(xs);
                targets.push(ys);
            }
            out.push(LmBatch { inputs, targets });
        }
        out
    }

    /// Iterations per epoch for the training split.
    pub fn iters_per_epoch(&self, batch: usize, seq_len: usize) -> usize {
        let track_len = self.train.len() / batch;
        ((track_len.saturating_sub(1)) / seq_len).max(1)
    }
}

/// One truncated-BPTT window: `inputs[t][b]` and `targets[t][b]` token ids.
#[derive(Clone)]
pub struct LmBatch {
    /// Input token ids per step per track.
    pub inputs: Vec<Vec<usize>>,
    /// Next-token targets aligned with `inputs`.
    pub targets: Vec<Vec<usize>>,
}

impl LmBatch {
    /// Number of parallel tracks in the window.
    pub fn tracks(&self) -> usize {
        self.inputs.first().map_or(0, |step| step.len())
    }

    /// The sub-window of tracks `[start, end)` — every step's id vector is
    /// column-sliced. Used by the data-parallel executor to shard a BPTT
    /// window across workers (track state stays aligned by index).
    pub fn slice_tracks(&self, start: usize, end: usize) -> LmBatch {
        assert!(start <= end && end <= self.tracks());
        let cols = |rows: &[Vec<usize>]| -> Vec<Vec<usize>> {
            rows.iter().map(|r| r[start..end].to_vec()).collect()
        };
        LmBatch { inputs: cols(&self.inputs), targets: cols(&self.targets) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_in_vocab() {
        let a = SynthPtb::generate(5, 50, 8, 2000, 500);
        let b = SynthPtb::generate(5, 50, 8, 2000, 500);
        assert_eq!(a.train, b.train);
        assert!(a.train.iter().all(|&t| t < 50));
        assert_eq!(a.train.len(), 2000);
        assert_eq!(a.valid.len(), 500);
    }

    #[test]
    fn entropy_floor_matches_zipf_branch() {
        let d = SynthPtb::generate(1, 100, 4, 100, 100);
        // Zipf-4: weights 1,1/2,1/3,1/4 normalised
        let w = [1.0f64, 0.5, 1.0 / 3.0, 0.25];
        let s: f64 = w.iter().sum();
        let h: f64 = -w.iter().map(|x| (x / s) * (x / s).ln()).sum::<f64>();
        // probabilities are stored in f32, so compare at f32 precision
        assert!((d.entropy_floor() - h).abs() < 1e-6);
        assert!(d.perplexity_floor() > 1.0 && d.perplexity_floor() < 4.0);
    }

    #[test]
    fn transitions_are_respected_in_stream() {
        // every bigram in the stream must be a valid transition
        let d = SynthPtb::generate(7, 30, 5, 3000, 100);
        for w in d.train.windows(2) {
            let succ = &d.successors[w[0]];
            assert!(succ.iter().any(|&(t, _)| t == w[1]), "invalid bigram {w:?}");
        }
    }

    #[test]
    fn batching_aligns_targets_with_next_tokens() {
        let d = SynthPtb::generate(2, 20, 4, 500, 100);
        let batches = d.batches(true, 4, 5);
        assert!(!batches.is_empty());
        let track_len = d.train.len() / 4;
        let b0 = &batches[0];
        assert_eq!(b0.inputs.len(), 5);
        assert_eq!(b0.inputs[0].len(), 4);
        // target at (t, track) equals input at (t+1, track) within a window
        for t in 0..4 {
            assert_eq!(b0.targets[t], b0.inputs[t + 1]);
        }
        // and track b starts at stream position b*track_len
        assert_eq!(b0.inputs[0][1], d.train[track_len]);
    }

    #[test]
    fn state_continuity_across_windows() {
        let d = SynthPtb::generate(3, 20, 4, 500, 100);
        let batches = d.batches(true, 2, 7);
        // first input of window w+1 == last target of window w
        for w in batches.windows(2) {
            assert_eq!(w[0].targets.last().unwrap(), &w[1].inputs[0]);
        }
    }

    #[test]
    fn iters_per_epoch_counts_windows() {
        let d = SynthPtb::generate(4, 20, 4, 1000, 100);
        assert_eq!(d.iters_per_epoch(4, 10), d.batches(true, 4, 10).len());
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn oversized_batch_rejected() {
        let d = SynthPtb::generate(4, 20, 4, 100, 50);
        d.batches(true, 64, 10);
    }
}
