//! Cross-variant kernel equivalence matrix (PR 10 acceptance suite).
//!
//! Every runtime-dispatched kernel variant — scalar, AVX2+FMA, AVX-512F —
//! must produce **bitwise identical** results for GEMM (all transpose
//! modes, edge shapes, k spanning multiple KC blocks), the activation
//! sweeps, and the fused LSTM cell. Variants the running CPU
//! lacks are skipped (the suite is still meaningful on any x86-64: scalar
//! always runs, and the scalar-vs-selected checks in the crate's unit
//! tests cover the rest).
//!
//! The bf16 path is checked two ways: exactly (bf16-mode GEMM equals
//! f32-mode GEMM on pre-rounded operands, per variant) and approximately
//! (accuracy deltas against the f32 result stay within the bf16 rounding
//! model's bound, and are printed so the freeze-equivalence story has
//! recorded numbers).

use legw_parallel::{with_pool, ThreadPool};
use legw_propcheck::prelude::*;
use legw_tensor::kernels::{self, Kernel};
use legw_tensor::{gemm_into, gemm_into_packed, lstm_cell_forward, with_bf16_gemm, PackedB, Tensor};
use std::sync::Arc;

const ALL: [Kernel; 3] = [Kernel::Scalar, Kernel::Avx2, Kernel::Avx512];

fn available() -> Vec<Kernel> {
    ALL.iter().copied().filter(|&k| kernels::supported(k)).collect()
}

fn lcg(seed: u64, n: usize) -> Vec<f32> {
    let mut s = seed.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
    (0..n)
        .map(|_| {
            s = s.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            ((s >> 33) as f32 / (1u64 << 31) as f32) * 4.0 - 2.0
        })
        .collect()
}

fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: idx {i}: {x} vs {y}");
    }
}

/// Edge shapes: extents off the 8/16 tile grid, k > KC (=256) to span
/// multiple k-blocks, plus degenerate single-row/column cases.
const SHAPES: &[(usize, usize, usize)] = &[
    (1, 1, 1),
    (7, 5, 3),
    (8, 8, 8),
    (9, 17, 15),
    (8, 16, 16),
    (13, 300, 17), // k spans two KC blocks
    (33, 257, 31),
    (64, 64, 64),
    (1, 520, 19),
    (21, 70, 1),
];

#[test]
fn gemm_bitwise_equal_across_variants() {
    let avail = available();
    for &(m, k, n) in SHAPES {
        let a = lcg(1 + (m * k) as u64, m * k);
        let b = lcg(2 + (k * n) as u64, k * n);
        for (trans_a, trans_b) in [(false, false), (true, false), (false, true)] {
            // Layout note: the Tensor API takes logically-shaped operands;
            // feed it the right storage for each transpose mode.
            let run = |kern: Kernel| {
                kernels::with_override(kern, || {
                    let (at, bt) = if trans_a {
                        (Tensor::from_vec(a.clone(), &[k, m]), Tensor::from_vec(b.clone(), &[k, n]))
                    } else if trans_b {
                        (Tensor::from_vec(a.clone(), &[m, k]), Tensor::from_vec(b.clone(), &[n, k]))
                    } else {
                        (Tensor::from_vec(a.clone(), &[m, k]), Tensor::from_vec(b.clone(), &[k, n]))
                    };
                    let c = if trans_a {
                        at.t_matmul(&bt)
                    } else if trans_b {
                        at.matmul_t(&bt)
                    } else {
                        at.matmul(&bt)
                    };
                    c.as_slice().to_vec()
                })
            };
            let reference = run(Kernel::Scalar);
            for &kern in &avail {
                let got = run(kern);
                assert_bits_eq(
                    &got,
                    &reference,
                    &format!("gemm {:?} ({trans_a},{trans_b}) {m}x{k}x{n}", kern),
                );
            }
        }
    }
}

#[test]
fn activations_bitwise_equal_across_variants() {
    let avail = available();
    // Length 1031: prime, exercises the 8- and 16-lane tails; range wide
    // enough to hit both saturation branches, zero, and subnormal inputs.
    let mut v = lcg(77, 1031).iter().map(|x| x * 8.0).collect::<Vec<_>>();
    v.extend_from_slice(&[0.0, -0.0, 9.5, -9.5, 100.0, -100.0, 1e-30, -1e-30]);
    for &kern in &avail {
        for (name, sweep) in [
            ("tanh", kernels::tanh_sweep as fn(Kernel, &mut [f32])),
            ("sigmoid", kernels::sigmoid_sweep as fn(Kernel, &mut [f32])),
        ] {
            let mut reference = v.clone();
            sweep(Kernel::Scalar, &mut reference);
            let mut got = v.clone();
            sweep(kern, &mut got);
            assert_bits_eq(&got, &reference, &format!("{name} {:?}", kern));
        }
    }
}

#[test]
fn activation_nan_propagates_identically() {
    let avail = available();
    let mut v = vec![f32::NAN, 1.0, f32::INFINITY, f32::NEG_INFINITY, -3.0];
    v.extend(vec![f32::NAN; 20]); // cover full vector lanes, not just tails
    for &kern in &avail {
        let mut got = v.clone();
        kernels::tanh_sweep(kern, &mut got);
        let mut reference = v.clone();
        kernels::tanh_sweep(Kernel::Scalar, &mut reference);
        for (i, (g, r)) in got.iter().zip(reference.iter()).enumerate() {
            assert_eq!(g.is_nan(), r.is_nan(), "tanh NaN-ness {:?} idx {i}", kern);
            if !g.is_nan() {
                assert_eq!(g.to_bits(), r.to_bits(), "tanh {:?} idx {i}", kern);
            }
        }
        assert!(got[0].is_nan(), "tanh(NaN) must stay NaN under {:?}", kern);
    }
}

#[test]
fn lstm_cell_bitwise_equal_across_variants() {
    let avail = available();
    for &(b, hid) in &[(1usize, 1usize), (2, 7), (3, 16), (5, 33), (64, 48)] {
        let preact = lcg(91 + b as u64, b * 4 * hid).iter().map(|x| x * 3.0).collect::<Vec<_>>();
        let c_prev = lcg(93 + hid as u64, b * hid);
        let run = |kern: Kernel| {
            kernels::with_override(kern, || {
                let fwd = lstm_cell_forward(
                    &Tensor::from_vec(preact.clone(), &[b, 4 * hid]),
                    &Tensor::from_vec(c_prev.clone(), &[b, hid]),
                );
                (
                    fwd.h.as_slice().to_vec(),
                    fwd.c.as_slice().to_vec(),
                    fwd.gates.as_slice().to_vec(),
                    fwd.tanh_c.as_slice().to_vec(),
                )
            })
        };
        let reference = run(Kernel::Scalar);
        for &kern in &avail {
            let got = run(kern);
            let tag = format!("lstm {:?} B={b} H={hid}", kern);
            assert_bits_eq(&got.0, &reference.0, &format!("{tag} h"));
            assert_bits_eq(&got.1, &reference.1, &format!("{tag} c"));
            assert_bits_eq(&got.2, &reference.2, &format!("{tag} gates"));
            assert_bits_eq(&got.3, &reference.3, &format!("{tag} tanh_c"));
        }
    }
}

#[test]
fn bf16_gemm_equals_f32_on_prerounded_operands_per_variant() {
    let avail = available();
    for &(m, k, n) in &[(9usize, 300usize, 17usize), (16, 64, 16), (5, 8, 3)] {
        let a = lcg(111 + m as u64, m * k);
        let b = lcg(113 + n as u64, k * n);
        let ar: Vec<f32> = a.iter().map(|&x| kernels::bf16::round_f32(x)).collect();
        let br: Vec<f32> = b.iter().map(|&x| kernels::bf16::round_f32(x)).collect();
        for &kern in &avail {
            kernels::with_override(kern, || {
                let got = with_bf16_gemm(|| {
                    Tensor::from_vec(a.clone(), &[m, k])
                        .matmul(&Tensor::from_vec(b.clone(), &[k, n]))
                });
                let want = Tensor::from_vec(ar.clone(), &[m, k])
                    .matmul(&Tensor::from_vec(br.clone(), &[k, n]));
                assert_bits_eq(
                    got.as_slice(),
                    want.as_slice(),
                    &format!("bf16 {:?} {m}x{k}x{n}", kern),
                );
            });
        }
    }
}

#[test]
fn bf16_accuracy_delta_bounded_and_recorded() {
    // Per-element model: each operand rounds once with relative error
    // ≤ 2⁻⁹ (RNE half-ulp of bf16's 8 mantissa bits), so each of the k
    // products carries ≲ |a||b|·2⁻⁸ ≤ 4/256 error; with random signs the
    // k = 300 accumulation lands near √k·0.0156/2 ≈ 0.1 rather than the
    // k·0.0156 ≈ 4.7 worst case. The deltas are fully deterministic
    // (fixed seed, and every kernel variant is bitwise-identical), so the
    // bounds below sit just above the observed max_abs ≈ 0.146 /
    // max_rel ≈ 0.078 — any regression in the rounding path moves them.
    // Printed so the serving-accuracy story has concrete numbers.
    let (m, k, n) = (16usize, 300usize, 16usize);
    let a = lcg(211, m * k);
    let b = lcg(223, k * n);
    let f32_out =
        Tensor::from_vec(a.clone(), &[m, k]).matmul(&Tensor::from_vec(b.clone(), &[k, n]));
    let bf16_out = with_bf16_gemm(|| {
        Tensor::from_vec(a.clone(), &[m, k]).matmul(&Tensor::from_vec(b.clone(), &[k, n]))
    });
    let mut max_abs = 0.0f32;
    let mut max_rel = 0.0f32;
    for (x, y) in f32_out.as_slice().iter().zip(bf16_out.as_slice()) {
        let d = (x - y).abs();
        max_abs = max_abs.max(d);
        max_rel = max_rel.max(d / (1.0 + x.abs()));
    }
    println!("bf16 GEMM delta m={m} k={k} n={n}: max_abs={max_abs:.3e} max_rel={max_rel:.3e}");
    assert!(max_abs > 0.0, "bf16 rounding should actually change something");
    assert!(max_abs < 0.2, "bf16 delta {max_abs} exceeds rounding model bound");
    assert!(max_rel < 0.1, "bf16 relative delta {max_rel} exceeds bound");
}

proptest! {

    /// A row of a product does not depend on how many rows the product
    /// has: each row of an `m`-row GEMM is bitwise the same row of the GEMM
    /// over its first `m2` rows — on every tier, at 1 and 2 threads (the
    /// tile grid splits `m` differently), through both `gemm_into` and
    /// `gemm_into_packed`. A plan that replays at fewer rows than it was
    /// captured at (a symbolic batch dimension) rests on this.
    #[test]
    fn prop_gemm_rows_do_not_depend_on_m(
        m in 2usize..300, cut in 0usize..300, k in 1usize..300, n in 1usize..48,
        trans_a in legw_propcheck::bool::ANY, trans_b in legw_propcheck::bool::ANY,
    ) {
        let m2 = 1 + cut % (m - 1);
        let a = lcg(m as u64 * 5 + k as u64, m * k);
        let b = lcg(n as u64 * 11 + k as u64, k * n);
        // The first `rows` rows of op(A): a prefix of A, or of each row of Aᵀ.
        let rows_of = |rows: usize| -> Vec<f32> {
            if trans_a {
                a.chunks_exact(m).flat_map(|r| r[..rows].iter().copied()).collect()
            } else {
                a[..rows * k].to_vec()
            }
        };
        let (full_a, part_a) = (rows_of(m), rows_of(m2));
        for kern in available() {
            for threads in [1, 2] {
                let pool = Arc::new(ThreadPool::new(threads));
                kernels::with_override(kern, || with_pool(&pool, || {
                    let mut packed = PackedB::new(k, n);
                    packed.pack(trans_b, &b);
                    for panel in [false, true] {
                        let product = |a: &[f32], rows: usize| {
                            let mut out = vec![0.0; rows * n];
                            if panel {
                                gemm_into_packed(trans_a, a, &packed, rows, &mut out, false);
                            } else {
                                gemm_into(trans_a, trans_b, a, &b, rows, k, n, &mut out, false);
                            }
                            out
                        };
                        let (whole, prefix) = (product(&full_a, m), product(&part_a, m2));
                        for (i, (x, y)) in prefix.iter().zip(&whole).enumerate() {
                            prop_assert_eq!(x.to_bits(), y.to_bits(),
                                "{:?}, {} threads, packed {}, ({},{}), k {} n {}: row {} of {} vs of {} rows",
                                kern, threads, panel, trans_a, trans_b, k, n, i / n, m2, m);
                        }
                    }
                }));
            }
        }
    }

    /// Randomised shape fuzz over the full variant matrix: M, N off the
    /// tile grid and k occasionally > KC.
    #[test]
    fn prop_gemm_variants_agree(
        m in 1usize..40, k in 1usize..320, n in 1usize..40,
        trans_a in legw_propcheck::bool::ANY, trans_b in legw_propcheck::bool::ANY,
    ) {
        let a = lcg(m as u64 * 7 + k as u64, m * k);
        let b = lcg(n as u64 * 13 + k as u64, k * n);
        let run = |kern: Kernel| {
            kernels::with_override(kern, || {
                let (at, bt) = if trans_a {
                    (Tensor::from_vec(a.clone(), &[k, m]), Tensor::from_vec(b.clone(), &[k, n]))
                } else if trans_b {
                    (Tensor::from_vec(a.clone(), &[m, k]), Tensor::from_vec(b.clone(), &[n, k]))
                } else {
                    (Tensor::from_vec(a.clone(), &[m, k]), Tensor::from_vec(b.clone(), &[k, n]))
                };
                let c = if trans_a { at.t_matmul(&bt) }
                    else if trans_b { at.matmul_t(&bt) }
                    else { at.matmul(&bt) };
                c.as_slice().to_vec()
            })
        };
        let reference = run(Kernel::Scalar);
        for kern in available() {
            let got = run(kern);
            for (i, (x, y)) in got.iter().zip(reference.iter()).enumerate() {
                prop_assert_eq!(x.to_bits(), y.to_bits(),
                    "{:?} ({},{}) {}x{}x{} idx {}", kern, trans_a, trans_b, m, k, n, i);
            }
        }
    }
}
