//! # legw-serve
//!
//! Frozen-model inference serving on top of the training stack:
//!
//! * [`artifact`] — **freeze/restore**: snapshot a trained `ParamSet` into a
//!   self-describing versioned artifact (checkpoint v2 payload + a
//!   model-config header naming the family and its dimensions, plus the
//!   non-parameter state eval needs, e.g. ResNet's BatchNorm running
//!   statistics). `restore` rebuilds the model and reloads the parameters
//!   all-or-nothing.
//! * [`session`] — [`InferEngine`]: frozen params + a shape-keyed cache of
//!   *forward-only* plans ([`legw_models::Infer`]), so serving runs
//!   tape-free, a shape's first batch included, with no gradient buffers
//!   and no backward schedule.
//! * [`server`] — [`Server`]: a dynamic batcher that coalesces concurrent
//!   single-row queries into one batched forward under a max-latency
//!   deadline ([`BatchConfig`]), grouping compatible requests
//!   ([`legw_models::Infer::coalesce_key`]) and scattering outputs back to
//!   the waiting clients. [`ServerSession`] carries per-client recurrent
//!   state across requests (the PTB LM's `LmState`).
//!
//! The serving forward is the *same math* as the training-path forward:
//! equivalence (bitwise for MNIST/PTB/ResNet, token-for-token for seq2seq
//! greedy decoding) is enforced by this crate's integration tests.

pub mod artifact;
pub mod server;
pub mod session;

pub use artifact::{freeze, restore, ArtifactError, FrozenModel, ModelConfig};
pub use server::{BatchConfig, Server, ServerSession, ServerStats};
pub use session::{InferEngine, DEFAULT_PLAN_CAPACITY};
