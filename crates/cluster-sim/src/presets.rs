//! Calibrated device and job presets.
//!
//! The constants are fitted so that the paper-scale anecdotes drop out of
//! the model (§7): a GNMT epoch budget that takes ~2 h at batch 256 on one
//! TPU-v2 takes ~33 min at batch 4096 on the same device; an ImageNet run
//! on a TPU-v2 pod takes ~16 min at batch 8K and ~7 min at 32K; and the
//! four LSTM applications average ≈5.3× speedup between their baseline and
//! largest LEGW batch. A device's `half_batch` is expressed in the same
//! sample units as the job (images, LM sequences, sentence pairs), so the
//! per-application specs differ — heavier per-sample work saturates the
//! chip at smaller batch counts. Absolute times are illustrative; the
//! experiments consume ratios.

use crate::{ClusterSpec, DeviceSpec, TrainingJob};

/// One TPU-v2-like board running light per-sample work (MNIST-LSTM images,
/// GNMT sentence pairs).
pub fn tpu_v2() -> DeviceSpec {
    DeviceSpec {
        name: "tpu-v2".into(),
        peak_samples_per_sec: 2200.0,
        half_batch: 1100.0,
        overhead_secs: 0.004,
    }
}

/// A TPU-v2 board in LM-sequence units for the PTB-small model
/// (each sample is a 20-step BPTT window).
pub fn tpu_v2_ptb_small() -> DeviceSpec {
    DeviceSpec {
        name: "tpu-v2/ptb-small".into(),
        peak_samples_per_sec: 110.0,
        half_batch: 55.0,
        overhead_secs: 0.004,
    }
}

/// A TPU-v2 board in LM-sequence units for the much wider PTB-large model.
pub fn tpu_v2_ptb_large() -> DeviceSpec {
    DeviceSpec {
        name: "tpu-v2/ptb-large".into(),
        peak_samples_per_sec: 45.0,
        half_batch: 96.0,
        overhead_secs: 0.004,
    }
}

/// A TPU-v2 board in ImageNet images/second for ResNet-50 work.
pub fn tpu_v2_resnet() -> DeviceSpec {
    DeviceSpec {
        name: "tpu-v2/resnet50".into(),
        peak_samples_per_sec: 1400.0,
        half_batch: 60.0,
        overhead_secs: 0.002,
    }
}

/// A V100-like GPU (light per-sample work units).
pub fn v100() -> DeviceSpec {
    DeviceSpec {
        name: "v100".into(),
        peak_samples_per_sec: 1500.0,
        half_batch: 700.0,
        overhead_secs: 0.003,
    }
}

/// A 256-board TPU-v2 pod running ResNet-50.
pub fn tpu_v2_pod() -> ClusterSpec {
    ClusterSpec {
        device: tpu_v2_resnet(),
        devices: 256,
        bandwidth_bytes_per_sec: 60e9,
        latency_secs: 3e-6,
    }
}

/// The four LSTM applications of Figure 4 plus ImageNet: job description
/// and the single-device cluster it runs on, with the paper's sample
/// counts, Table 1 epoch budgets, and gradient payloads estimated from the
/// architectures.
pub fn paper_jobs() -> Vec<(&'static str, TrainingJob, ClusterSpec)> {
    vec![
        (
            "mnist-lstm",
            TrainingJob { n_samples: 60_000, model_bytes: 4.0 * 215_000.0, epochs: 25.0 },
            ClusterSpec::single(tpu_v2()),
        ),
        (
            "ptb-small",
            TrainingJob { n_samples: 930_000 / 20, model_bytes: 4.0 * 4_650_000.0, epochs: 13.0 },
            ClusterSpec::single(tpu_v2_ptb_small()),
        ),
        (
            "ptb-large",
            TrainingJob { n_samples: 930_000 / 35, model_bytes: 4.0 * 66_000_000.0, epochs: 55.0 },
            ClusterSpec::single(tpu_v2_ptb_large()),
        ),
        (
            "gnmt",
            TrainingJob { n_samples: 3_500_000, model_bytes: 4.0 * 160_000_000.0, epochs: 2.0 },
            ClusterSpec::single(tpu_v2()),
        ),
        (
            "imagenet-resnet50",
            TrainingJob { n_samples: 1_281_167, model_bytes: 4.0 * 25_600_000.0, epochs: 90.0 },
            tpu_v2_pod(),
        ),
    ]
}

/// The paper's batch-scaling endpoints per application (baseline → largest
/// batch LEGW sustains without accuracy loss).
pub fn paper_batch_ranges() -> Vec<(&'static str, usize, usize)> {
    vec![
        ("mnist-lstm", 128, 8192),
        ("ptb-small", 20, 640),
        ("ptb-large", 20, 640),
        ("gnmt", 256, 4096),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(name: &str) -> (TrainingJob, ClusterSpec) {
        let (_, j, c) = paper_jobs().into_iter().find(|(n, _, _)| *n == name).unwrap();
        (j, c)
    }

    #[test]
    fn gnmt_anecdote_reproduced_in_shape() {
        // §7: >2h at batch 256 vs ~33 min at 4096 on one TPU-v2 → ~3.6×
        let (j, c) = job("gnmt");
        let speedup = j.speedup_same_hardware(&c, 256, 4096);
        assert!(
            (2.5..6.0).contains(&speedup),
            "GNMT speedup {speedup} should be in the ~3.6× band"
        );
    }

    #[test]
    fn four_lstm_apps_average_speedup_near_paper() {
        // headline: "LEGW achieves a 5.3× average speedup over the baselines
        // for 4 LSTM-based applications"
        let mut speedups = Vec::new();
        for (name, small, big) in paper_batch_ranges() {
            let (j, c) = job(name);
            speedups.push(j.speedup_same_hardware(&c, small, big));
        }
        let avg = speedups.iter().sum::<f64>() / speedups.len() as f64;
        assert!(
            (4.0..7.0).contains(&avg),
            "average speedup {avg} (per-app {speedups:?}) should bracket the paper's 5.3×"
        );
    }

    #[test]
    fn imagenet_pod_7_vs_16_minutes_shape() {
        // §7: batch 32K ≈ 7 min vs batch 8K ≈ 16 min on a TPU-v2 pod → ~2.3×
        let (j, pod) = job("imagenet-resnet50");
        let t8k = j.time_to_train_secs(&pod, 8192) / 60.0;
        let t32k = j.time_to_train_secs(&pod, 32768) / 60.0;
        assert!(t32k < t8k);
        let ratio = t8k / t32k;
        assert!((1.6..3.0).contains(&ratio), "8K/32K ratio {ratio} should be ~2.3");
        // both in the tens-of-minutes regime, not hours
        assert!(t8k < 45.0 && t32k > 2.0, "t8k {t8k}min t32k {t32k}min");
    }

    #[test]
    fn presets_are_self_consistent() {
        for (name, job, cluster) in paper_jobs() {
            assert!(job.n_samples > 0, "{name}");
            assert!(job.model_bytes > 0.0);
            assert!(job.epochs > 0.0);
            assert!(cluster.devices >= 1);
        }
    }
}
