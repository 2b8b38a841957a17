//! Synthetic ImageNet: procedural texture classes for the ResNet + LARS
//! pipeline (§6 / Table 3 / Figure 1).

use crate::classification::Classification;
use legw_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Default image side (32×32 RGB — large enough for two pooling stages of
/// the ResNet-8 stand-in).
pub const SIDE: usize = 32;
/// Colour channels.
pub const CHANNELS: usize = 3;

/// Procedural texture classification dataset.
///
/// Each class is a fixed mixture of three oriented sinusoids (random
/// frequency/orientation/colour per class, drawn once from the seed);
/// samples add a random global phase, amplitude jitter, and pixel noise.
/// A small ResNet separates the classes well; the task shows the standard
/// large-batch cliff under a fixed epoch budget.
pub struct SynthImageNet {
    /// Training split, features `[N, 3, side, side]`.
    pub train: Classification,
    /// Test split.
    pub test: Classification,
    /// Number of classes.
    pub n_classes: usize,
    /// Image side length.
    pub side: usize,
}

#[derive(Clone)]
struct ClassSpec {
    // per component: (fy, fx, phase, per-channel amplitude)
    comps: Vec<(f32, f32, f32, [f32; 3])>,
}

fn render(
    spec: &ClassSpec,
    side: usize,
    phase_jitter: f32,
    gain: f32,
    rng: &mut StdRng,
) -> Vec<f32> {
    let mut img = vec![0.0f32; CHANNELS * side * side];
    for &(fy, fx, ph, amp) in &spec.comps {
        for y in 0..side {
            for x in 0..side {
                let v = (fy * y as f32 + fx * x as f32 + ph + phase_jitter).sin();
                for c in 0..CHANNELS {
                    img[c * side * side + y * side + x] += gain * amp[c] * v;
                }
            }
        }
    }
    for v in &mut img {
        *v = (*v + rng.gen_range(-0.9..0.9f32)).clamp(-2.5, 2.5);
    }
    img
}

impl SynthImageNet {
    /// Generates `train_n`/`test_n` samples over `n_classes` classes at the
    /// default side length ([`SIDE`], re-exported as `IMAGE_SIDE`).
    pub fn generate(seed: u64, n_classes: usize, train_n: usize, test_n: usize) -> Self {
        Self::generate_sized(seed, n_classes, train_n, test_n, SIDE)
    }

    /// As [`SynthImageNet::generate`] with an explicit image side (must be a
    /// multiple of 4 for the two stride-2 stages of the ResNet stand-in).
    pub fn generate_sized(
        seed: u64,
        n_classes: usize,
        train_n: usize,
        test_n: usize,
        side: usize,
    ) -> Self {
        assert!(n_classes >= 2);
        assert!(side >= 8 && side.is_multiple_of(4), "side must be a multiple of 4, got {side}");
        let mut rng = StdRng::seed_from_u64(seed);
        let specs: Vec<ClassSpec> = (0..n_classes)
            .map(|_| ClassSpec {
                comps: (0..3)
                    .map(|_| {
                        (
                            rng.gen_range(0.15..1.3f32),
                            rng.gen_range(0.15..1.3f32),
                            rng.gen_range(0.0..std::f32::consts::TAU),
                            [
                                rng.gen_range(0.2..1.0f32),
                                rng.gen_range(0.2..1.0f32),
                                rng.gen_range(0.2..1.0f32),
                            ],
                        )
                    })
                    .collect(),
            })
            .collect();
        let make = |n: usize, rng: &mut StdRng| {
            let mut feats = Vec::with_capacity(n * CHANNELS * side * side);
            let mut labels = Vec::with_capacity(n);
            for i in 0..n {
                let class = i % n_classes;
                let jitter = rng.gen_range(0.0..std::f32::consts::TAU);
                let gain = rng.gen_range(0.75..1.25f32);
                feats.extend_from_slice(&render(&specs[class], side, jitter, gain, rng));
                labels.push(class);
            }
            Classification::new(
                Tensor::from_vec(feats, &[n, CHANNELS, side, side]),
                labels,
                n_classes,
            )
        };
        let train = make(train_n, &mut rng);
        let test = make(test_n, &mut rng);
        Self { train, test, n_classes, side }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_and_determinism() {
        let a = SynthImageNet::generate(1, 8, 40, 16);
        assert_eq!(a.train.features.shape(), &[40, 3, 32, 32]);
        assert_eq!(a.test.len(), 16);
        let b = SynthImageNet::generate(1, 8, 40, 16);
        assert_eq!(a.train.features.as_slice(), b.train.features.as_slice());
    }

    #[test]
    fn labels_balanced_round_robin() {
        let d = SynthImageNet::generate(2, 4, 40, 8);
        for c in 0..4 {
            assert_eq!(d.train.labels.iter().filter(|&&l| l == c).count(), 10);
        }
    }

    #[test]
    fn pixel_range_bounded() {
        let d = SynthImageNet::generate(3, 4, 20, 4);
        assert!(d.train.features.max() <= 2.5);
        assert!(d.train.features.min() >= -2.5);
        assert!(d.train.features.all_finite());
    }

    #[test]
    fn classes_statistically_distinct() {
        // frequency signatures differ: per-class mean power spectra (proxied
        // by mean absolute horizontal gradient) should spread across classes
        let d = SynthImageNet::generate(4, 6, 120, 6);
        let f = d.train.features.as_slice();
        let ss = 3 * 32 * 32;
        let mut stats = vec![0.0f64; 6];
        let mut counts = vec![0usize; 6];
        for (i, &l) in d.train.labels.iter().enumerate() {
            let base = i * ss;
            let mut grad = 0.0f64;
            for p in 0..(ss - 1) {
                grad += (f[base + p + 1] - f[base + p]).abs() as f64;
            }
            stats[l] += grad;
            counts[l] += 1;
        }
        for (s, &c) in stats.iter_mut().zip(&counts) {
            *s /= c as f64;
        }
        let max = stats.iter().cloned().fold(f64::MIN, f64::max);
        let min = stats.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max / min > 1.02, "classes indistinguishable: {stats:?}");
    }
}
