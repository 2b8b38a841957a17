//! Serving-side contracts for the bf16 weight-storage mode.
//!
//! The [`legw_tensor::pack_traffic`] counters are process-wide, so every
//! test here grabs `PROC_LOCK` — the byte-accounting assertions need the
//! whole process quiet while they measure.

use legw_models::MnistLstm;
use legw_nn::ParamSet;
use legw_serve::InferEngine;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;

static PROC_LOCK: Mutex<()> = Mutex::new(());

fn mnist_engine() -> InferEngine<MnistLstm> {
    let mut ps = ParamSet::new();
    let mut rng = StdRng::seed_from_u64(29);
    let model = MnistLstm::new(&mut ps, &mut rng, 16, 16);
    InferEngine::new(model, ps)
}

fn mnist_reqs(n: usize) -> Vec<Vec<f32>> {
    (0..n).map(|i| (0..784).map(|p| ((i * 7 + p) % 11) as f32 / 11.0).collect()).collect()
}

#[test]
fn bf16_serving_stays_close_to_f32_and_halves_packed_bytes() {
    let _g = PROC_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let f32_engine = mnist_engine();
    let bf16_engine = mnist_engine().with_bf16(true);
    assert!(!f32_engine.bf16() && bf16_engine.bf16());

    let reqs = mnist_reqs(5);
    let states = vec![(); reqs.len()];

    // Warm both caches so the measured passes are pure plan replays (the
    // first pass of a shape runs the capture tape *and* a replay, which
    // would double-count GEMM pack bytes).
    f32_engine.run(&reqs, &states);
    bf16_engine.run(&reqs, &states);

    let t0 = legw_tensor::pack_traffic();
    let out_f32: Vec<Vec<f32>> =
        f32_engine.run(&reqs, &states).into_iter().map(|(o, ())| o).collect();
    let t1 = legw_tensor::pack_traffic();
    let out_bf16: Vec<Vec<f32>> =
        bf16_engine.run(&reqs, &states).into_iter().map(|(o, ())| o).collect();
    let t2 = legw_tensor::pack_traffic();

    // Identical plans over identical shapes: the bf16 replay packs the
    // same panels at half the bytes (2-byte vs 4-byte elements), exactly.
    let f32_bytes = t1.f32_bytes - t0.f32_bytes;
    let bf16_bytes = t2.bf16_bytes - t1.bf16_bytes;
    assert!(f32_bytes > 0, "the f32 replay must pack GEMM panels");
    assert_eq!(t1.bf16_bytes, t0.bf16_bytes, "f32 engine must not pack bf16");
    assert_eq!(t2.f32_bytes, t1.f32_bytes, "bf16 engine must not pack f32");
    assert_eq!(
        2 * bf16_bytes,
        f32_bytes,
        "bf16 serving must pack exactly half the weight bytes ({bf16_bytes} vs {f32_bytes})"
    );

    // Accuracy: bf16 storage rounds each packed operand by ≤ 2⁻⁸
    // relative, so logits drift but stay close — and must actually drift,
    // otherwise the mode isn't wired in.
    let mut max_abs = 0.0f32;
    for (a, b) in out_f32.iter().zip(&out_bf16) {
        assert_eq!(a.len(), b.len());
        for (&x, &y) in a.iter().zip(b) {
            assert!(x.is_finite() && y.is_finite());
            max_abs = max_abs.max((x - y).abs());
        }
    }
    println!("bf16 serving max |logit delta| = {max_abs:.3e}");
    assert!(max_abs > 0.0, "bf16 mode must actually change the arithmetic");
    assert!(max_abs < 0.1, "bf16 logit drift too large: {max_abs}");
}

#[test]
fn bf16_serving_is_deterministic_across_replays() {
    let _g = PROC_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // bf16 rounding is a pure function of the packed values, so two bf16
    // replays of one shape must agree bitwise — the drift vs f32 is
    // deterministic, not noise. (The per-GEMM contract gemm_bf16(A, B) ==
    // gemm_f32(round(A), round(B)) bitwise lives in the tensor crate's
    // dispatch suite; it cannot lift to a whole forward because
    // intermediate activations are not bf16-representable.)
    let engine = mnist_engine().with_bf16(true);
    let reqs = mnist_reqs(3);
    let states = vec![(); reqs.len()];
    let a: Vec<Vec<f32>> = engine.run(&reqs, &states).into_iter().map(|(o, ())| o).collect();
    let b: Vec<Vec<f32>> = engine.run(&reqs, &states).into_iter().map(|(o, ())| o).collect();
    for (x, y) in a.iter().zip(&b) {
        let xb: Vec<u32> = x.iter().map(|v| v.to_bits()).collect();
        let yb: Vec<u32> = y.iter().map(|v| v.to_bits()).collect();
        assert_eq!(xb, yb, "bf16 replays must be deterministic");
    }
}
