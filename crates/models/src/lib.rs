//! # legw-models
//!
//! The four model families of the LEGW paper (Table 1), assembled from
//! `legw-nn` layers and trained through `legw-autograd` tapes:
//!
//! * [`MnistLstm`] — §5.1.1: a 28-step row-per-timestep LSTM classifier with
//!   a 128-wide input projection (configurable width here).
//! * [`PtbLm`] — §5.1.2: a 2-layer LSTM language model with stateful
//!   truncated BPTT; "small" and "large" configurations.
//! * [`Seq2Seq`] — §5.1.3: a GNMT-style encoder/decoder with a bidirectional
//!   first encoder layer, shared embeddings, additive attention, and greedy
//!   decoding for BLEU.
//! * [`ResNet`] — §6: a compact residual CNN (conv/BN/residual stages +
//!   global average pooling) standing in for ResNet-50 in the LARS
//!   experiments.
//!
//! Every model exposes `forward_loss` (builds a tape, returns the loss
//! variable ready for `backward`) and an evaluation entry point producing
//! the paper's metric for that application.

mod mnist_lstm;
mod planned;
mod ptb_lm;
mod resnet;
mod seq2seq;

pub use mnist_lstm::MnistLstm;
pub use planned::{Infer, InferPlan, StepPlan};
pub use ptb_lm::{LmState, PtbLm, PtbLmConfig};
pub use resnet::ResNet;
pub use seq2seq::{Seq2Seq, Seq2SeqConfig, Seq2SeqPlan};
