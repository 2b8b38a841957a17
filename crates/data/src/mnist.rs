//! Synthetic MNIST: 28×28 "digit" classes built from seeded stroke
//! prototypes, consumed row-per-timestep by the paper's 1-layer LSTM
//! (§5.1.1).

use crate::classification::Classification;
use legw_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Image side length (matches MNIST so the LSTM sees 28 steps of 28
/// features, giving the exact 256×512 cell kernel the paper quotes).
pub const SIDE: usize = 28;

/// Synthetic handwritten-digit stand-in.
///
/// Each of the 10 classes is a smooth prototype drawn once from the seed
/// (a random walk of Gaussian "ink" blobs); samples add per-sample noise,
/// a random ±2px translation, and amplitude jitter. The task is learnable
/// to >95% by the paper's LSTM architecture in a few epochs, yet degrades
/// exactly like MNIST when large batches are trained with an untuned LR
/// under a fixed epoch budget.
pub struct SynthMnist {
    /// Training split.
    pub train: Classification,
    /// Held-out test split.
    pub test: Classification,
}

fn render_prototype(rng: &mut StdRng) -> Vec<f32> {
    let mut img = vec![0.0f32; SIDE * SIDE];
    // 3 strokes of a smoothed random walk, each depositing Gaussian blobs
    for _ in 0..3 {
        let mut y = rng.gen_range(6.0..22.0f32);
        let mut x = rng.gen_range(6.0..22.0f32);
        let mut dy = rng.gen_range(-1.2..1.2f32);
        let mut dx = rng.gen_range(-1.2..1.2f32);
        for _ in 0..24 {
            deposit(&mut img, y, x, 1.0);
            dy += rng.gen_range(-0.45..0.45);
            dx += rng.gen_range(-0.45..0.45);
            dy = dy.clamp(-1.6, 1.6);
            dx = dx.clamp(-1.6, 1.6);
            y = (y + dy).clamp(2.0, 25.0);
            x = (x + dx).clamp(2.0, 25.0);
        }
    }
    let mx = img.iter().cloned().fold(0.0f32, f32::max).max(1e-6);
    for v in &mut img {
        *v /= mx;
    }
    img
}

fn deposit(img: &mut [f32], cy: f32, cx: f32, amp: f32) {
    let (iy, ix) = (cy as isize, cx as isize);
    for dy in -2isize..=2 {
        for dx in -2isize..=2 {
            let (py, px) = (iy + dy, ix + dx);
            if (0..SIDE as isize).contains(&py) && (0..SIDE as isize).contains(&px) {
                let d2 = (py as f32 - cy).powi(2) + (px as f32 - cx).powi(2);
                img[py as usize * SIDE + px as usize] += amp * (-d2 / 1.5).exp();
            }
        }
    }
}

fn sample_from(proto: &[f32], rng: &mut StdRng) -> Vec<f32> {
    let shift_y = rng.gen_range(-2i32..=2);
    let shift_x = rng.gen_range(-2i32..=2);
    let gain = rng.gen_range(0.8..1.2f32);
    let mut out = vec![0.0f32; SIDE * SIDE];
    for y in 0..SIDE as i32 {
        for x in 0..SIDE as i32 {
            let (sy, sx) = (y - shift_y, x - shift_x);
            if (0..SIDE as i32).contains(&sy) && (0..SIDE as i32).contains(&sx) {
                out[(y as usize) * SIDE + x as usize] =
                    gain * proto[(sy as usize) * SIDE + sx as usize];
            }
        }
    }
    for v in &mut out {
        *v = (*v + rng.gen_range(-0.08..0.08f32)).clamp(0.0, 1.0);
    }
    out
}

impl SynthMnist {
    /// Generates `train_n` + `test_n` samples across 10 classes.
    pub fn generate(seed: u64, train_n: usize, test_n: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let protos: Vec<Vec<f32>> = (0..10).map(|_| render_prototype(&mut rng)).collect();
        let make = |n: usize, rng: &mut StdRng| {
            let mut feats = Vec::with_capacity(n * SIDE * SIDE);
            let mut labels = Vec::with_capacity(n);
            for i in 0..n {
                let class = i % 10;
                feats.extend_from_slice(&sample_from(&protos[class], rng));
                labels.push(class);
            }
            Classification::new(Tensor::from_vec(feats, &[n, SIDE * SIDE]), labels, 10)
        };
        let train = make(train_n, &mut rng);
        let test = make(test_n, &mut rng);
        Self { train, test }
    }

    /// Splits a gathered batch `[B, 784]` into the 28 per-timestep inputs
    /// `[B, 28]` the LSTM consumes (row `t` of each image at step `t`).
    pub fn row_steps(batch: &Tensor) -> Vec<Tensor> {
        assert_eq!(batch.ndim(), 2);
        assert_eq!(batch.dim(1), SIDE * SIDE);
        let b = batch.dim(0);
        let src = batch.as_slice();
        (0..SIDE)
            .map(|t| {
                let mut step = Vec::with_capacity(b * SIDE);
                for s in 0..b {
                    let off = s * SIDE * SIDE + t * SIDE;
                    step.extend_from_slice(&src[off..off + SIDE]);
                }
                Tensor::from_vec(step, &[b, SIDE])
            })
            .collect()
    }

    /// [`SynthMnist::row_steps`] packed into ONE timestep-major block
    /// `[28·B, 28]`: rows `[t·B, (t+1)·B)` are step `t`. This is the input
    /// layout the sequence-hoisted LSTM path consumes — all 28 steps'
    /// projections become a single GEMM — built with one copy instead of
    /// 28 per-step tensors.
    pub fn row_steps_packed(batch: &Tensor) -> Tensor {
        assert_eq!(batch.ndim(), 2);
        assert_eq!(batch.dim(1), SIDE * SIDE);
        let b = batch.dim(0);
        let src = batch.as_slice();
        let mut packed = Vec::with_capacity(b * SIDE * SIDE);
        for t in 0..SIDE {
            for s in 0..b {
                let off = s * SIDE * SIDE + t * SIDE;
                packed.extend_from_slice(&src[off..off + SIDE]);
            }
        }
        Tensor::from_vec(packed, &[SIDE * b, SIDE])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = SynthMnist::generate(9, 50, 20);
        let b = SynthMnist::generate(9, 50, 20);
        assert_eq!(a.train.features.as_slice(), b.train.features.as_slice());
        let c = SynthMnist::generate(10, 50, 20);
        assert_ne!(a.train.features.as_slice(), c.train.features.as_slice());
    }

    #[test]
    fn shapes_and_label_balance() {
        let d = SynthMnist::generate(1, 100, 40);
        assert_eq!(d.train.features.shape(), &[100, 784]);
        assert_eq!(d.test.len(), 40);
        // round-robin labels: exactly balanced
        for c in 0..10 {
            assert_eq!(d.train.labels.iter().filter(|&&l| l == c).count(), 10);
        }
    }

    #[test]
    fn pixels_are_normalised() {
        let d = SynthMnist::generate(2, 30, 10);
        let f = d.train.features.as_slice();
        assert!(f.iter().all(|&v| (0.0..=1.0).contains(&v)));
        // images are not blank
        assert!(d.train.features.mean() > 0.01);
    }

    #[test]
    fn classes_are_separated() {
        // same-class samples must be closer to their prototype mean than to
        // other classes' means (sanity: task is learnable)
        let d = SynthMnist::generate(3, 200, 10);
        let mut means = vec![vec![0.0f32; 784]; 10];
        let mut counts = [0usize; 10];
        let f = d.train.features.as_slice();
        for (i, &l) in d.train.labels.iter().enumerate() {
            for j in 0..784 {
                means[l][j] += f[i * 784 + j];
            }
            counts[l] += 1;
        }
        for (c, m) in means.iter_mut().enumerate() {
            for v in m.iter_mut() {
                *v /= counts[c] as f32;
            }
        }
        let mut correct = 0;
        for (i, &l) in d.train.labels.iter().enumerate().take(50) {
            let dist = |m: &Vec<f32>| -> f32 {
                (0..784).map(|j| (f[i * 784 + j] - m[j]).powi(2)).sum()
            };
            let best = (0..10).min_by(|&a, &b| dist(&means[a]).total_cmp(&dist(&means[b]))).unwrap();
            if best == l {
                correct += 1;
            }
        }
        assert!(correct >= 45, "nearest-mean should classify ≥90%, got {correct}/50");
    }

    #[test]
    fn row_steps_slices_rows() {
        let d = SynthMnist::generate(4, 10, 5);
        let (batch, _) = d.train.gather(&[0, 1, 2]);
        let steps = SynthMnist::row_steps(&batch);
        assert_eq!(steps.len(), 28);
        assert_eq!(steps[0].shape(), &[3, 28]);
        // step t row s equals pixels [t*28 .. t*28+28] of sample s
        let t = 5;
        let expect = &batch.as_slice()[784 + t * 28..784 + t * 28 + 28];
        let got: Vec<f32> = (0..28).map(|j| steps[t].at2(1, j)).collect();
        assert_eq!(&got[..], expect);
    }

    #[test]
    fn row_steps_packed_matches_per_step_tensors() {
        let d = SynthMnist::generate(4, 10, 5);
        let (batch, _) = d.train.gather(&[0, 1, 2]);
        let steps = SynthMnist::row_steps(&batch);
        let packed = SynthMnist::row_steps_packed(&batch);
        assert_eq!(packed.shape(), &[28 * 3, 28]);
        for (t, step) in steps.iter().enumerate() {
            assert_eq!(
                &packed.as_slice()[t * 3 * 28..(t + 1) * 3 * 28],
                step.as_slice(),
                "packed rows for step {t} must equal the per-step tensor"
            );
        }
    }
}
