//! Exact packed-panel traffic of one replayed training step: every weight
//! is packed **once per transpose form per replay**, however many GEMMs
//! read it — and not at all by a replay of a frozen plan, or of its copy.
//!
//! Deliberately a **single test in its own integration binary**, like
//! `legw-tensor`'s `pack_traffic`: the [`legw_tensor::pack_traffic`]
//! counters are process-wide, so a byte-exact delta needs this to be the
//! one thread in the process issuing GEMMs.

use legw_autograd::{CaptureSpec, Feeds, Graph, Plan, Var};
use legw_tensor::{pack_traffic, Tensor};

// A 28-step hoisted LSTM on the `LstmCell` wiring (one fused kernel,
// row-sliced into W_x / W_h). Every extent is a multiple of both micro-tile
// widths (8 and 16), so no panel is padded and the byte counts below hold
// on every kernel tier; every GEMM is below the fork threshold, so the tile
// grid does not depend on the thread count either.
const T: usize = 28;
const B: usize = 8;
const IN: usize = 16;
const H: usize = 16;
const C: usize = 16;
const F32: u64 = 4;

fn tensor(seed: u64, dims: &[usize]) -> Tensor {
    let mut s = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    let data = (0..dims.iter().product())
        .map(|_| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        })
        .collect();
    Tensor::from_vec(data, dims)
}

struct Tape {
    g: Graph,
    inputs: Vec<Var>,
    params: Vec<Var>,
    loss: Var,
}

fn build(x: &Tensor, ps: &[Tensor], labels: &[usize]) -> Tape {
    let mut g = Graph::new();
    let xv = g.input(x.clone());
    let h0 = g.input(Tensor::zeros(&[B, H]));
    let c0 = g.input(Tensor::zeros(&[B, H]));
    let pv: Vec<Var> = ps.iter().map(|p| g.param(p.clone())).collect();
    let (w, bias, w_o) = (pv[0], pv[1], pv[2]);
    let w_x = g.slice_rows(w, 0, IN);
    let w_h = g.slice_rows(w, IN, IN + H);
    let seq = g.lstm_preact_seq(xv, w_x, bias);
    let (mut h, mut c) = (h0, c0);
    for t in 0..T {
        let pre = g.lstm_recur_step(seq, t, B, h, w_h);
        let (h2, c2) = g.lstm_cell(pre, c);
        h = h2;
        c = c2;
    }
    let logits = g.matmul(h, w_o);
    let loss = g.softmax_cross_entropy(logits, labels);
    Tape { g, inputs: vec![xv, h0, c0], params: pv, loss }
}

fn f32_bytes_of(f: impl FnOnce()) -> u64 {
    let before = pack_traffic();
    f();
    let after = pack_traffic();
    assert_eq!(after.bf16_bytes, before.bf16_bytes, "no bf16 scope here");
    after.f32_bytes - before.f32_bytes
}

#[test]
fn one_replay_packs_each_weight_once_per_form() {
    let ps = vec![tensor(1, &[IN + H, 4 * H]), tensor(2, &[4 * H]), tensor(3, &[H, C])];
    let x = tensor(4, &[T * B, IN]);
    let labels: Vec<usize> = (0..B).map(|i| i % C).collect();
    let zeros = Tensor::zeros(&[B, H]);
    let pr: Vec<&Tensor> = ps.iter().collect();
    let ins: Vec<&Tensor> = vec![&x, &zeros, &zeros];
    let feeds = Feeds { labels: &[&labels], ..Feeds::default() };

    let mut tape = build(&x, &ps, &labels);
    tape.g.backward(tape.loss);
    let spec = CaptureSpec {
        inputs: &tape.inputs,
        params: &tape.params,
        loss: Some(tape.loss),
        outputs: &[],
    };
    let mut plan = Plan::capture(&tape.g, &spec);

    // A panels, per GEMM `[m, k] × [k, n]`: m·k elements (m is a multiple
    // of the 8-row micro-panel everywhere).
    let (t, b, i, h, c) = (T as u64, B as u64, IN as u64, H as u64, C as u64);
    let a_panels = t * b * i          // x_pack · W_x
        + t * (b * h)                 // T × h · W_h
        + b * h                       // h_T · W_o
        + b * c                       // dlogits · W_oᵀ
        + h * b                       // h_Tᵀ · dlogits
        + (t - 1) * (b * 4 * h)       // dpre · W_hᵀ (h_0 is an input: no gradient)
        + t * (h * b)                 // T × hᵀ · dpre
        + i * t * b; //                  x_packᵀ · dseq
                     // B operands that are activations or gradients: still packed per call.
    let b_per_call = b * c            // dlogits as the B of dW_o
        + t * (b * 4 * h)             // dpre as the B of every dW_h
        + t * b * 4 * h; //              dseq as the B of dW_x
                         // The weights: W_x in its forward form only (x is an input, so there is
                         // no dx GEMM), W_h and W_o forward and transposed — not W_h once per
                         // each of its T forward and T − 1 backward readers.
    let panels = i * 4 * h + 2 * (h * 4 * h) + 2 * (h * c);
    let want = F32 * (a_panels + b_per_call + panels);

    let first = f32_bytes_of(|| plan.replay_step(&ins, &pr, &feeds));
    assert_eq!(first, want, "one replay: A panels + per-call B + each weight once per form");
    let st = plan.stats();
    assert_eq!((st.panels, st.panel_bytes as u64), (5, F32 * panels));
    let second = f32_bytes_of(|| plan.replay_step(&ins, &pr, &feeds));
    assert_eq!(second, want, "every replay repacks each panel exactly once");

    // A forward replay packs the forward forms of the weights.
    let fwd_a = t * b * i + t * (b * h) + b * h;
    let fwd_panels = i * 4 * h + h * 4 * h + h * c;
    let forward = f32_bytes_of(|| plan.replay_forward(&ins, &pr, &feeds));
    assert_eq!(forward, F32 * (fwd_a + fwd_panels), "a forward replay packs its weights");

    // A frozen forward-only plan packs its weights once, before any replay
    // here, and then its replays, and its copy's, pack only their A operands.
    let spec = CaptureSpec { loss: None, ..spec };
    let mut frozen = Plan::capture_forward(&tape.g, &spec);
    let packed = f32_bytes_of(|| frozen.pack_panels(&pr));
    assert_eq!(packed, F32 * fwd_panels, "freezing packs each forward weight once");
    let mut copy = frozen.clone();
    for _ in 0..2 {
        let again = f32_bytes_of(|| frozen.replay_forward(&ins, &pr, &feeds));
        assert_eq!(again, F32 * fwd_a, "a frozen plan's forward replay packs no weight");
        let copied = f32_bytes_of(|| copy.replay_forward(&ins, &pr, &feeds));
        assert_eq!(copied, F32 * fwd_a, "nor does its copy's");
    }
}
