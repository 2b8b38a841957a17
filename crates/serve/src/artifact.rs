//! Versioned freeze/restore of trained models.
//!
//! A frozen artifact is a checkpoint-v2 blob ([`legw_nn::checkpoint`])
//! whose optional config section carries a [`ModelConfig`]: the model
//! family tag, its constructor dimensions, and any non-parameter state the
//! eval forward needs (ResNet's BatchNorm running statistics — those live
//! outside the `ParamSet` and would otherwise be lost). [`restore`]
//! rebuilds the module tree from the config — parameter names and shapes
//! are a pure function of the constructor arguments — then reloads the
//! checkpointed values all-or-nothing under the v2 CRC.

use legw_models::{MnistLstm, PtbLm, PtbLmConfig, ResNet, Seq2Seq, Seq2SeqConfig};
use legw_nn::checkpoint::{self, CheckpointError};
use legw_nn::ParamSet;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;

/// What went wrong freezing or restoring an artifact.
#[derive(Debug, Clone, PartialEq)]
pub enum ArtifactError {
    /// The checkpoint layer rejected the blob (truncation, CRC, version,
    /// name/shape mismatch against the rebuilt model, …).
    Checkpoint(CheckpointError),
    /// The blob is a valid checkpoint but carries no model config — it was
    /// written by `checkpoint::save`, not by [`freeze`].
    MissingConfig,
    /// The config section is present but malformed.
    BadConfig(&'static str),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Checkpoint(e) => write!(f, "checkpoint error: {e}"),
            Self::MissingConfig => write!(f, "artifact has no model-config section"),
            Self::BadConfig(what) => write!(f, "malformed model config: {what}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

impl From<CheckpointError> for ArtifactError {
    fn from(e: CheckpointError) -> Self {
        Self::Checkpoint(e)
    }
}

/// The model family and everything needed to rebuild it: constructor
/// dimensions plus non-parameter eval state.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelConfig {
    /// §5.1.1 MNIST LSTM: input projection and hidden widths.
    MnistLstm { proj: usize, hidden: usize },
    /// §5.1.2 PTB LM. Dropout keep is not stored: inference is always
    /// eval-mode, so restore builds with `keep = 1.0` (same parameters).
    PtbLm { vocab: usize, embed: usize, hidden: usize, layers: usize },
    /// §5.1.3 GNMT-style seq2seq.
    Seq2Seq { vocab: usize, embed: usize, hidden: usize, attn: usize, max_decode: usize },
    /// §6 ResNet, plus the BatchNorm running `(mean, var)` per layer in
    /// `ResNet::batch_norms` order — eval state the `ParamSet` misses.
    ResNet { width: usize, n_classes: usize, bn_stats: Vec<(Vec<f32>, Vec<f32>)> },
}

const TAG_MNIST: u8 = 0;
const TAG_PTB: u8 = 1;
const TAG_S2S: u8 = 2;
const TAG_RESNET: u8 = 3;

impl ModelConfig {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let mut header = |tag: u8, fields: &[usize]| {
            out.push(tag);
            for &f in fields {
                out.extend_from_slice(&(f as u32).to_le_bytes());
            }
        };
        match self {
            Self::MnistLstm { proj, hidden } => header(TAG_MNIST, &[*proj, *hidden]),
            Self::PtbLm { vocab, embed, hidden, layers } => {
                header(TAG_PTB, &[*vocab, *embed, *hidden, *layers])
            }
            Self::Seq2Seq { vocab, embed, hidden, attn, max_decode } => {
                header(TAG_S2S, &[*vocab, *embed, *hidden, *attn, *max_decode])
            }
            Self::ResNet { width, n_classes, bn_stats } => {
                header(TAG_RESNET, &[*width, *n_classes, bn_stats.len()]);
                for (mean, var) in bn_stats {
                    debug_assert_eq!(mean.len(), var.len());
                    out.extend_from_slice(&(mean.len() as u32).to_le_bytes());
                    for v in mean.iter().chain(var) {
                        out.extend_from_slice(&v.to_le_bytes());
                    }
                }
            }
        }
        out
    }

    fn decode(buf: &[u8]) -> Result<Self, ArtifactError> {
        let u32_field = |buf: &mut &[u8]| -> Result<usize, ArtifactError> {
            let (field, rest) =
                buf.split_first_chunk::<4>().ok_or(ArtifactError::BadConfig("truncated field"))?;
            *buf = rest;
            Ok(u32::from_le_bytes(*field) as usize)
        };
        let (&tag, mut buf) = buf.split_first().ok_or(ArtifactError::BadConfig("empty config"))?;
        let cfg = match tag {
            TAG_MNIST => {
                Self::MnistLstm { proj: u32_field(&mut buf)?, hidden: u32_field(&mut buf)? }
            }
            TAG_PTB => Self::PtbLm {
                vocab: u32_field(&mut buf)?,
                embed: u32_field(&mut buf)?,
                hidden: u32_field(&mut buf)?,
                layers: u32_field(&mut buf)?,
            },
            TAG_S2S => Self::Seq2Seq {
                vocab: u32_field(&mut buf)?,
                embed: u32_field(&mut buf)?,
                hidden: u32_field(&mut buf)?,
                attn: u32_field(&mut buf)?,
                max_decode: u32_field(&mut buf)?,
            },
            TAG_RESNET => {
                let width = u32_field(&mut buf)?;
                let n_classes = u32_field(&mut buf)?;
                let layers = u32_field(&mut buf)?;
                // `layers` comes from the blob, and the smallest layer record
                // is its 4-byte channel count: reserve no more than fits.
                let mut bn_stats = Vec::with_capacity(layers.min(buf.len() / 4));
                let floats = |raw: &[u8]| -> Vec<f32> {
                    raw.chunks_exact(4)
                        .map(|c| f32::from_le_bytes(c.try_into().expect("chunks of 4")))
                        .collect()
                };
                for _ in 0..layers {
                    let ch = u32_field(&mut buf)?;
                    // `ch` means and `ch` variances, if the blob has that many.
                    let Some((stats, rest)) =
                        ch.checked_mul(8).and_then(|need| buf.split_at_checked(need))
                    else {
                        return Err(ArtifactError::BadConfig("truncated BN statistics"));
                    };
                    buf = rest;
                    let (mean, var) = stats.split_at(ch * 4);
                    bn_stats.push((floats(mean), floats(var)));
                }
                Self::ResNet { width, n_classes, bn_stats }
            }
            _ => return Err(ArtifactError::BadConfig("unknown model tag")),
        };
        if !buf.is_empty() {
            return Err(ArtifactError::BadConfig("trailing bytes"));
        }
        Ok(cfg)
    }

    /// The constructor dimensions. A model needs every one of them ≥ 1.
    fn dims(&self) -> Vec<usize> {
        match *self {
            Self::MnistLstm { proj, hidden } => vec![proj, hidden],
            Self::PtbLm { vocab, embed, hidden, layers } => vec![vocab, embed, hidden, layers],
            Self::Seq2Seq { vocab, embed, hidden, attn, max_decode } => {
                vec![vocab, embed, hidden, attn, max_decode]
            }
            Self::ResNet { width, n_classes, .. } => vec![width, n_classes],
        }
    }

    /// A lower bound on the parameter elements the family's constructor
    /// allocates for these dimensions, or `None` when it overflows `usize`:
    /// the sum over a few of the family's real weight matrices, chosen so
    /// that every dimension appears in at least one.
    fn min_param_elems(&self) -> Option<usize> {
        let x4 = |h: usize| h.checked_mul(4);
        // `(rows, cols)` per matrix.
        let mats = match *self {
            Self::MnistLstm { proj, hidden } => {
                vec![(28, proj), (proj.checked_add(hidden)?, x4(hidden)?)]
            }
            // Every layer's cell holds at least its `[hidden, 4·hidden]`
            // recurrent half.
            Self::PtbLm { vocab, embed, hidden, layers } => {
                vec![(vocab, embed), (layers.checked_mul(hidden)?, x4(hidden)?)]
            }
            Self::Seq2Seq { vocab, embed, hidden, attn, .. } => {
                vec![(vocab, embed), (embed.checked_add(hidden)?, x4(hidden)?), (hidden, attn)]
            }
            // The first block's 3×3 conv and the classifier head.
            Self::ResNet { width, n_classes, .. } => {
                vec![(width, width.checked_mul(9)?), (x4(width)?, n_classes)]
            }
        };
        mats.into_iter().try_fold(0usize, |acc, (r, c)| acc.checked_add(r.checked_mul(c)?))
    }
}

/// The channel count of every BatchNorm layer `ResNet::new` builds for
/// `width`, in `ResNet::bn_running_stats` order: the stem's, then `bn1` and
/// `bn2` of each of the three stages, followed by the projection's in the
/// two stages that change shape.
fn resnet_bn_channels(width: usize) -> [usize; 9] {
    let w = width;
    [w, w, w, 2 * w, 2 * w, 2 * w, 4 * w, 4 * w, 4 * w]
}

/// A model restored from a frozen artifact, ready for an
/// [`crate::InferEngine`] of the matching family.
pub enum FrozenModel {
    /// §5.1.1 MNIST classifier.
    MnistLstm(MnistLstm),
    /// §5.1.2 PTB language model.
    PtbLm(PtbLm),
    /// §5.1.3 translation model.
    Seq2Seq(Seq2Seq),
    /// §6 image classifier, BN running stats restored.
    ResNet(ResNet),
}

/// Snapshots a trained model into a self-describing artifact: checkpoint
/// v2 (dtype-tagged, length-prefixed, CRC-protected) with `cfg` encoded
/// into the config section. The caller provides the `ModelConfig` matching
/// the model the `ParamSet` was trained with — for ResNet that includes
/// the current running statistics ([`ResNet::bn_running_stats`]).
pub fn freeze(cfg: &ModelConfig, ps: &ParamSet) -> Vec<u8> {
    checkpoint::save_with_config(ps, Some(&cfg.encode()))
}

/// Rebuilds the model named by the artifact's config section and reloads
/// its parameters. Construction RNG is irrelevant (every initial value is
/// overwritten by the checkpoint), but parameter *names and shapes* are a
/// pure function of the config, so the checkpoint's name/shape validation
/// cross-checks the config against the payload before anything mutates.
///
/// The config's dimensions come from the blob and drive the constructors'
/// allocations and assertions, so a config no constructor can build is
/// rejected before one runs: a zero dimension, more parameters than the
/// blob could hold — every parameter is stored as f32 in the payload — or
/// BatchNorm statistics that are not the ones a ResNet of that width has.
pub fn restore(blob: &[u8]) -> Result<(FrozenModel, ParamSet), ArtifactError> {
    let cfg_bytes = checkpoint::read_config(blob)?.ok_or(ArtifactError::MissingConfig)?;
    let cfg = ModelConfig::decode(&cfg_bytes)?;
    if cfg.dims().contains(&0) {
        return Err(ArtifactError::BadConfig("zero dimension"));
    }
    match cfg.min_param_elems() {
        Some(n) if n <= blob.len() / 4 => {}
        _ => return Err(ArtifactError::BadConfig("model larger than artifact")),
    }
    if let ModelConfig::ResNet { width, bn_stats, .. } = &cfg {
        // `decode` reads each layer's mean and variance at one length, and
        // `4 * width` did not overflow in `min_param_elems`.
        let channels = resnet_bn_channels(*width);
        if !bn_stats.iter().map(|(mean, _)| mean.len()).eq(channels) {
            return Err(ArtifactError::BadConfig("batch-norm statistics do not match the model"));
        }
    }
    let mut ps = ParamSet::new();
    let mut rng = StdRng::seed_from_u64(0);
    let model = match cfg {
        ModelConfig::MnistLstm { proj, hidden } => {
            FrozenModel::MnistLstm(MnistLstm::new(&mut ps, &mut rng, proj, hidden))
        }
        ModelConfig::PtbLm { vocab, embed, hidden, layers } => {
            let cfg = PtbLmConfig { vocab, embed, hidden, layers, keep: 1.0 };
            FrozenModel::PtbLm(PtbLm::new(&mut ps, &mut rng, cfg))
        }
        ModelConfig::Seq2Seq { vocab, embed, hidden, attn, max_decode } => {
            let cfg = Seq2SeqConfig { vocab, embed, hidden, attn, max_decode };
            FrozenModel::Seq2Seq(Seq2Seq::new(&mut ps, &mut rng, cfg))
        }
        ModelConfig::ResNet { width, n_classes, bn_stats } => {
            let mut m = ResNet::new(&mut ps, &mut rng, width, n_classes);
            m.set_bn_running_stats(&bn_stats);
            FrozenModel::ResNet(m)
        }
    };
    checkpoint::load(&mut ps, blob)?;
    Ok((model, ps))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_roundtrips() {
        let cfgs = [
            ModelConfig::MnistLstm { proj: 64, hidden: 128 },
            ModelConfig::PtbLm { vocab: 30, embed: 48, hidden: 48, layers: 2 },
            ModelConfig::Seq2Seq { vocab: 23, embed: 12, hidden: 12, attn: 8, max_decode: 8 },
            ModelConfig::ResNet {
                width: 4,
                n_classes: 6,
                bn_stats: vec![(vec![0.5, -0.5], vec![1.0, 2.0]), (vec![0.0], vec![1.5])],
            },
        ];
        for cfg in &cfgs {
            assert_eq!(&ModelConfig::decode(&cfg.encode()).unwrap(), cfg);
        }
    }

    #[test]
    fn decode_rejects_malformed_configs() {
        assert_eq!(ModelConfig::decode(&[]), Err(ArtifactError::BadConfig("empty config")));
        assert_eq!(
            ModelConfig::decode(&[9, 0, 0, 0, 0]),
            Err(ArtifactError::BadConfig("unknown model tag"))
        );
        let mut ok = ModelConfig::MnistLstm { proj: 1, hidden: 2 }.encode();
        assert_eq!(
            ModelConfig::decode(&ok[..ok.len() - 1]),
            Err(ArtifactError::BadConfig("truncated field"))
        );
        ok.push(0);
        assert_eq!(ModelConfig::decode(&ok), Err(ArtifactError::BadConfig("trailing bytes")));
        // Header-driven sizes: u32::MAX layers with nothing behind them, and
        // one layer claiming u32::MAX channels, must not drive allocation.
        let resnet = |layers: u32| {
            let mut b = vec![TAG_RESNET];
            for v in [4u32, 6, layers] {
                b.extend_from_slice(&v.to_le_bytes());
            }
            b
        };
        assert_eq!(
            ModelConfig::decode(&resnet(u32::MAX)),
            Err(ArtifactError::BadConfig("truncated field"))
        );
        let mut huge_layer = resnet(1);
        huge_layer.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            ModelConfig::decode(&huge_layer),
            Err(ArtifactError::BadConfig("truncated BN statistics"))
        );
    }

    #[test]
    fn restore_rejects_models_larger_than_the_artifact() {
        // Valid CRC, no parameters, dimensions only a far larger blob could
        // back: one dimension at a time (the bound is exceeded), then all at
        // once (it overflows `usize`). Nothing may be constructed.
        const M: usize = u32::MAX as usize;
        let hostile = [
            ModelConfig::MnistLstm { proj: M, hidden: 1 },
            ModelConfig::MnistLstm { proj: 1, hidden: M },
            ModelConfig::MnistLstm { proj: M, hidden: M },
            ModelConfig::PtbLm { vocab: M, embed: 1, hidden: 1, layers: 1 },
            ModelConfig::PtbLm { vocab: 1, embed: M, hidden: 1, layers: 1 },
            ModelConfig::PtbLm { vocab: 1, embed: 1, hidden: M, layers: 1 },
            ModelConfig::PtbLm { vocab: 1, embed: 1, hidden: 1, layers: M },
            ModelConfig::PtbLm { vocab: M, embed: M, hidden: M, layers: M },
            ModelConfig::Seq2Seq { vocab: M, embed: 1, hidden: 1, attn: 1, max_decode: 1 },
            ModelConfig::Seq2Seq { vocab: 1, embed: M, hidden: 1, attn: 1, max_decode: 1 },
            ModelConfig::Seq2Seq { vocab: 1, embed: 1, hidden: M, attn: 1, max_decode: 1 },
            ModelConfig::Seq2Seq { vocab: 1, embed: 1, hidden: 1, attn: M, max_decode: 1 },
            ModelConfig::Seq2Seq { vocab: M, embed: M, hidden: M, attn: M, max_decode: M },
            ModelConfig::ResNet { width: M, n_classes: 1, bn_stats: vec![] },
            ModelConfig::ResNet { width: 1, n_classes: M, bn_stats: vec![] },
            ModelConfig::ResNet { width: M, n_classes: M, bn_stats: vec![] },
        ];
        for cfg in &hostile {
            let blob = freeze(cfg, &ParamSet::new());
            assert!(blob.len() <= 64, "{cfg:?}: {} bytes", blob.len());
            assert_eq!(
                restore(&blob).err(),
                Some(ArtifactError::BadConfig("model larger than artifact")),
                "{cfg:?}"
            );
        }
        assert_eq!(ModelConfig::MnistLstm { proj: M, hidden: M }.min_param_elems(), None);
    }

    #[test]
    fn restore_rejects_configs_no_constructor_can_build() {
        // Valid CRC, every dimension of every family set to zero in turn:
        // a typed error, not a constructor assertion.
        let zeroed = [
            ModelConfig::MnistLstm { proj: 0, hidden: 1 },
            ModelConfig::MnistLstm { proj: 1, hidden: 0 },
            ModelConfig::PtbLm { vocab: 0, embed: 1, hidden: 1, layers: 1 },
            ModelConfig::PtbLm { vocab: 1, embed: 0, hidden: 1, layers: 1 },
            ModelConfig::PtbLm { vocab: 1, embed: 1, hidden: 0, layers: 1 },
            ModelConfig::PtbLm { vocab: 1, embed: 1, hidden: 1, layers: 0 },
            ModelConfig::Seq2Seq { vocab: 0, embed: 1, hidden: 1, attn: 1, max_decode: 1 },
            ModelConfig::Seq2Seq { vocab: 1, embed: 0, hidden: 1, attn: 1, max_decode: 1 },
            ModelConfig::Seq2Seq { vocab: 1, embed: 1, hidden: 0, attn: 1, max_decode: 1 },
            ModelConfig::Seq2Seq { vocab: 1, embed: 1, hidden: 1, attn: 0, max_decode: 1 },
            ModelConfig::Seq2Seq { vocab: 1, embed: 1, hidden: 1, attn: 1, max_decode: 0 },
            ModelConfig::ResNet { width: 0, n_classes: 1, bn_stats: vec![] },
            ModelConfig::ResNet { width: 1, n_classes: 0, bn_stats: vec![] },
        ];
        for cfg in &zeroed {
            let blob = freeze(cfg, &ParamSet::new());
            assert_eq!(
                restore(&blob).err(),
                Some(ArtifactError::BadConfig("zero dimension")),
                "{cfg:?}"
            );
        }

        // A real ResNet's parameters with BatchNorm statistics that are not
        // its own: none, one layer short, one layer at the wrong width.
        let mut ps = ParamSet::new();
        let model = ResNet::new(&mut ps, &mut StdRng::seed_from_u64(1), 4, 6);
        let stats = model.bn_running_stats();
        assert!(stats.iter().map(|(mean, _)| mean.len()).eq(resnet_bn_channels(4)));
        let mut short = stats.clone();
        short.pop();
        let mut narrow = stats.clone();
        narrow[3] = (vec![0.0; 4], vec![1.0; 4]);
        for bn_stats in [vec![], short, narrow] {
            let blob = freeze(&ModelConfig::ResNet { width: 4, n_classes: 6, bn_stats }, &ps);
            assert_eq!(
                restore(&blob).err(),
                Some(ArtifactError::BadConfig("batch-norm statistics do not match the model"))
            );
        }
        let blob = freeze(&ModelConfig::ResNet { width: 4, n_classes: 6, bn_stats: stats }, &ps);
        assert!(restore(&blob).is_ok());
    }

    #[test]
    fn restore_rejects_configless_checkpoints() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(1);
        let _m = MnistLstm::new(&mut ps, &mut rng, 8, 8);
        let blob = checkpoint::save(&ps);
        match restore(&blob) {
            Err(ArtifactError::MissingConfig) => {}
            other => panic!("expected MissingConfig, got {:?}", other.err()),
        }
    }

    #[test]
    fn restore_rejects_config_payload_mismatch() {
        // Freeze MNIST params but lie about the family in the config: the
        // rebuilt PTB model's parameter names don't match the payload, and
        // the all-or-nothing load must reject before any mutation.
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(1);
        let _m = MnistLstm::new(&mut ps, &mut rng, 8, 8);
        let wrong = ModelConfig::PtbLm { vocab: 10, embed: 8, hidden: 8, layers: 2 };
        let blob = freeze(&wrong, &ps);
        match restore(&blob) {
            Err(ArtifactError::Checkpoint(_)) => {}
            Err(other) => panic!("expected a checkpoint-layer rejection, got {other:?}"),
            Ok(_) => panic!("mismatched config/payload must not restore"),
        }
    }
}
