//! # legw-data
//!
//! Seeded synthetic stand-ins for the four datasets of the LEGW paper
//! (Table 1), plus loaders and evaluation metrics.
//!
//! | paper dataset | here | task shape preserved |
//! |---|---|---|
//! | MNIST | [`SynthMnist`] | 28×28 images, 10 classes, row-per-timestep LSTM |
//! | PTB | [`SynthPtb`] | token stream from a seeded sparse Markov chain; perplexity has a computable entropy floor |
//! | WMT'16 (GNMT) | [`SynthTranslation`] | seq2seq pairs (reversal ∘ position-dependent relabelling), BLEU-scored |
//! | ImageNet | [`SynthImageNet`] | 32×32×3 procedural texture classes for the ResNet/LARS pipeline |
//!
//! Everything is generated from a `u64` seed via `StdRng`, so every
//! experiment in the repo is reproducible bit-for-bit given its seed. The
//! datasets are *optimization-faithful* rather than semantically faithful:
//! what matters for reproducing the paper is that accuracy degrades when
//! large batches are trained naively under a fixed epoch budget and that
//! warmup/LR scaling decisions move the metrics the same way they do on the
//! real datasets.
//!
//! Metrics: [`metrics::accuracy`], [`metrics::perplexity`],
//! [`metrics::corpus_bleu`] (BLEU-4 with brevity penalty, implemented from
//! scratch).

mod classification;
mod imagenet;
mod lm;
pub mod metrics;
mod mnist;
mod translation;

pub use classification::{Batches, Classification};
pub use imagenet::{SynthImageNet, CHANNELS as IMAGE_CHANNELS, SIDE as IMAGE_SIDE};
pub use lm::{LmBatch, SynthPtb};
pub use mnist::SynthMnist;
pub use translation::{SynthTranslation, TranslationBatch, BOS, EOS, PAD};
