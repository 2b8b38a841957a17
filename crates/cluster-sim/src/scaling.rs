//! Scaling analyses on top of the performance model: strong/weak scaling
//! efficiency and the largest batch worth using — the planning questions
//! LEGW's "batch headroom without accuracy loss" makes actionable.

use crate::{ClusterSpec, TrainingJob};

/// One point of a scaling curve.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScalingPoint {
    /// Device count.
    pub devices: usize,
    /// Wall-clock seconds for the job.
    pub time_secs: f64,
    /// Parallel efficiency relative to one device (1.0 = perfect).
    pub efficiency: f64,
}

/// Strong scaling: fixed *global* batch, growing device count. Efficiency
/// decays as per-device batches shrink below the device's saturation point
/// and the all-reduce term grows — the regime the paper escapes by growing
/// the batch with LEGW.
pub fn strong_scaling(
    job: &TrainingJob,
    base: &ClusterSpec,
    global_batch: usize,
    device_counts: &[usize],
) -> Vec<ScalingPoint> {
    assert!(!device_counts.is_empty());
    let t1 = {
        let mut c = base.clone();
        c.devices = 1;
        job.time_to_train_secs(&c, global_batch)
    };
    device_counts
        .iter()
        .map(|&p| {
            let mut c = base.clone();
            c.devices = p;
            let t = job.time_to_train_secs(&c, global_batch);
            ScalingPoint { devices: p, time_secs: t, efficiency: t1 / (p as f64 * t) }
        })
        .collect()
}

/// Weak scaling: per-device batch held constant, so the global batch grows
/// with the device count (what LEGW enables without accuracy loss).
pub fn weak_scaling(
    job: &TrainingJob,
    base: &ClusterSpec,
    per_device_batch: usize,
    device_counts: &[usize],
) -> Vec<ScalingPoint> {
    assert!(!device_counts.is_empty());
    let t1 = {
        let mut c = base.clone();
        c.devices = 1;
        job.time_to_train_secs(&c, per_device_batch)
    };
    device_counts
        .iter()
        .map(|&p| {
            let mut c = base.clone();
            c.devices = p;
            let t = job.time_to_train_secs(&c, per_device_batch * p);
            // weak-scaling efficiency: ideal time is t1 / p (p× the batch
            // at fixed epochs means p× fewer iterations)
            ScalingPoint { devices: p, time_secs: t, efficiency: t1 / (p as f64 * t) }
        })
        .collect()
}

/// The largest batch whose marginal speedup still exceeds
/// `min_marginal_gain` per doubling (diminishing-returns knee). Returns
/// `(batch, time_secs)`.
pub fn knee_batch(
    job: &TrainingJob,
    cluster: &ClusterSpec,
    start_batch: usize,
    max_batch: usize,
    min_marginal_gain: f64,
) -> (usize, f64) {
    assert!(start_batch > 0 && max_batch >= start_batch);
    assert!(min_marginal_gain > 1.0, "gain threshold must exceed 1.0");
    let mut batch = start_batch;
    let mut time = job.time_to_train_secs(cluster, batch);
    while batch * 2 <= max_batch {
        let t2 = job.time_to_train_secs(cluster, batch * 2);
        if time / t2 < min_marginal_gain {
            break;
        }
        batch *= 2;
        time = t2;
    }
    (batch, time)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeviceSpec;

    fn cluster() -> ClusterSpec {
        ClusterSpec {
            device: DeviceSpec {
                name: "t".into(),
                peak_samples_per_sec: 1000.0,
                half_batch: 64.0,
                overhead_secs: 0.001,
            },
            devices: 1,
            bandwidth_bytes_per_sec: 1e9,
            latency_secs: 1e-5,
        }
    }

    fn job() -> TrainingJob {
        TrainingJob { n_samples: 1 << 18, model_bytes: 4e7, epochs: 4.0 }
    }

    #[test]
    fn strong_scaling_efficiency_declines() {
        let pts = strong_scaling(&job(), &cluster(), 4096, &[1, 4, 16, 64]);
        assert!((pts[0].efficiency - 1.0).abs() < 1e-9);
        for w in pts.windows(2) {
            assert!(w[1].efficiency <= w[0].efficiency + 1e-9, "{pts:?}");
            assert!(w[1].time_secs <= w[0].time_secs + 1e-9, "more devices can't be slower here");
        }
        assert!(pts.last().unwrap().efficiency < 0.95, "64-way strong scaling is not free");
    }

    #[test]
    fn weak_scaling_beats_strong_at_scale() {
        let j = job();
        let c = cluster();
        let strong = strong_scaling(&j, &c, 1024, &[64]);
        let weak = weak_scaling(&j, &c, 1024, &[64]);
        assert!(
            weak[0].efficiency > strong[0].efficiency,
            "weak {} vs strong {}",
            weak[0].efficiency,
            strong[0].efficiency
        );
    }

    #[test]
    fn weak_scaling_single_device_is_unit() {
        let pts = weak_scaling(&job(), &cluster(), 512, &[1]);
        assert!((pts[0].efficiency - 1.0).abs() < 1e-9);
    }

    #[test]
    fn knee_batch_respects_bounds_and_threshold() {
        let j = job();
        let c = cluster();
        let (b, t) = knee_batch(&j, &c, 64, 65536, 1.05);
        assert!((64..=65536).contains(&b));
        assert!(b.is_power_of_two() || b == 64);
        assert!(t > 0.0);
        // a stricter threshold can only stop earlier
        let (b2, _) = knee_batch(&j, &c, 64, 65536, 1.5);
        assert!(b2 <= b);
    }
}
