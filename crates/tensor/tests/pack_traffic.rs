//! Exact-delta checks of the two process-wide counter sets: packed-panel
//! and conv image-copy bytes ([`legw_tensor::pack_traffic`]) and
//! buffer-pool traffic
//! ([`legw_tensor::pool::stats`]).
//!
//! Deliberately a **single test in its own integration binary**: the
//! counters are process-wide, so the before/after deltas are exact only
//! when this is the one thread in the process issuing GEMMs and allocating
//! tensors. The four phases therefore run in sequence inside one `#[test]`
//! — separate tests would run on parallel harness threads.

use legw_tensor::{
    conv2d_grad_w_into, conv2d_grad_x_into, conv2d_into, gemm_into, gemm_into_packed, pack_traffic,
    pool, with_bf16_gemm, Conv2dGeom, PackTraffic, PackedB, Tensor,
};

#[test]
fn process_wide_counters_move_by_exact_deltas() {
    bf16_mode_packs_exactly_half_the_bytes();
    packed_b_moves_the_pack_out_of_the_call();
    conv_forward_counts_its_image_copies();
    conv_gradients_count_their_copies_and_panels();
    pool_counters_track_allocations_and_recycles();
}

/// The bf16 mode must pack *exactly half* the bytes of the f32 mode for the
/// same shapes (same panel layout, 2-byte vs 4-byte elements).
fn bf16_mode_packs_exactly_half_the_bytes() {
    // Shapes with edge tiles and k > KC so panel padding and multi-k-block
    // repacking are in the byte count on both sides.
    let shapes: [(usize, usize, usize); 3] = [(9, 300, 17), (64, 64, 64), (33, 257, 31)];
    let run = |bf16: bool| {
        for &(m, k, n) in &shapes {
            let a = Tensor::full(&[m, k], 0.5);
            let b = Tensor::full(&[k, n], 0.25);
            if bf16 {
                with_bf16_gemm(|| a.matmul(&b));
            } else {
                a.matmul(&b);
            }
        }
    };

    let t0 = pack_traffic();
    run(false);
    let t1 = pack_traffic();
    run(true);
    let t2 = pack_traffic();

    let f32_bytes = t1.f32_bytes - t0.f32_bytes;
    let bf16_bytes = t2.bf16_bytes - t1.bf16_bytes;
    assert!(f32_bytes > 0, "f32 GEMMs must pack panels");
    assert_eq!(t1.bf16_bytes, t0.bf16_bytes, "f32-mode GEMMs must not touch the bf16 counter");
    assert_eq!(t2.f32_bytes, t1.f32_bytes, "bf16-mode GEMMs must not touch the f32 counter");
    assert_eq!(
        2 * bf16_bytes,
        f32_bytes,
        "bf16 mode must pack exactly half the bytes ({bf16_bytes} vs {f32_bytes})"
    );
}

/// Packing a [`PackedB`] counts exactly its byte length, once; a call that
/// reads it then counts exactly the A panels — the split of what the plain
/// call counts — and bf16 halves every one of those numbers.
fn packed_b_moves_the_pack_out_of_the_call() {
    // One tile, below the fork threshold, both extents ragged against every
    // tier's micro-tile (8×8 or 8×16), k past one k-block.
    let (m, k, n) = (9usize, 300usize, 17usize);
    let a = vec![0.5f32; m * k];
    let b = vec![0.25f32; k * n];
    // Bytes of this thread's counter for `f`, which one of the two it is
    // depending on the mode `f` runs under.
    let counted = |f: &mut dyn FnMut()| {
        let t0 = pack_traffic();
        f();
        let t1 = pack_traffic();
        (t1.f32_bytes - t0.f32_bytes, t1.bf16_bytes - t0.bf16_bytes)
    };
    let phase = || {
        let mut out = vec![0.0f32; m * n];
        let plain = counted(&mut || gemm_into(false, false, &a, &b, m, k, n, &mut out, false));
        let mut pb = PackedB::new(k, n);
        assert_eq!(pb.bytes(), 0, "nothing is packed before pack()");
        let pack = counted(&mut || pb.pack(false, &b));
        let pb_bytes = pb.bytes() as u64;
        let mut out2 = vec![0.0f32; m * n];
        let call = counted(&mut || gemm_into_packed(false, &a, &pb, m, &mut out2, false));
        let again = counted(&mut || gemm_into_packed(false, &a, &pb, m, &mut out2, false));
        assert_eq!(out, out2);
        (plain, pack, pb_bytes, call, again)
    };

    let (plain, pack, pb_bytes, call, again) = phase();
    assert_eq!(pack, (pb_bytes, 0), "packing counts exactly the panel bytes");
    // A is packed in 8-row micro-panels on every tier: ⌈9/8⌉·8 rows × k.
    let a_bytes = (m.next_multiple_of(8) * k * 4) as u64;
    assert_eq!(call, (a_bytes, 0), "a packed-B call counts exactly the A panels");
    assert_eq!(again, call, "and packs no B however often the panel is read");
    assert_eq!(plain, (a_bytes + pb_bytes, 0), "the plain call packs both, every time");

    let (plain16, pack16, pb_bytes16, call16, _) = with_bf16_gemm(phase);
    assert_eq!(2 * pb_bytes16, pb_bytes, "bf16 panels are half the bytes");
    assert_eq!(pack16, (0, pb_bytes16));
    assert_eq!(call16, (0, a_bytes / 2));
    assert_eq!(plain16, (0, (a_bytes + pb_bytes) / 2));
}

/// A conv forward counts the weight's panels and each image's copy, in the
/// counter of its mode, and bf16 counts exactly half.
fn conv_forward_counts_its_image_copies() {
    // Small enough to run serially, so each image is copied once, whole.
    let g = Conv2dGeom { c: 3, h: 9, w: 9, kh: 3, kw: 3, stride: 1, pad: 1 };
    let (n, oc) = (2usize, 5usize);
    let x = vec![0.5f32; n * 3 * 81];
    let w = vec![0.25f32; oc * 27];
    let mut out = vec![0.0f32; n * oc * 81];
    let t0 = pack_traffic();
    conv2d_into(&x, &w, n, oc, &g, &mut out);
    let t1 = pack_traffic();
    with_bf16_gemm(|| conv2d_into(&x, &w, n, oc, &g, &mut out));
    let t2 = pack_traffic();
    assert_eq!(
        (t1.bf16_bytes, t2.f32_bytes),
        (t0.bf16_bytes, t1.f32_bytes),
        "one counter per mode"
    );
    // The weight in 8-row micro-panels of its 27 taps, and per image, on
    // every tier (9 output columns leave either tile width half empty, so
    // runs cross rows), 9 planes — 3 channels, 3 kernel columns — of
    // 11 rows × 9 columns.
    let elems = (8 * 27 + n * 9 * 11 * 9) as u64;
    assert_eq!(t1.f32_bytes - t0.f32_bytes, 4 * elems, "weight panels and image copies, f32");
    assert_eq!(t2.bf16_bytes - t1.bf16_bytes, 2 * elems, "the same elements, bf16");
}

/// A conv weight gradient counts each image's copy and the output
/// gradient's panels; an input gradient counts the weight's panels and reads
/// the output gradient in place, or, in bf16, counts its rounded copy. The
/// weight gradient's bf16 bytes are exactly half its f32 bytes.
fn conv_gradients_count_their_copies_and_panels() {
    // One weight-gradient block (2 · 64 pixels) and 64-pixel maps, whole
    // tiles on every tier: small enough to run serially.
    let g = Conv2dGeom { c: 3, h: 8, w: 8, kh: 3, kw: 3, stride: 1, pad: 1 };
    let (n, oc) = (2usize, 5usize);
    let x = vec![0.5f32; n * 3 * 64];
    let up = vec![0.25f32; n * oc * 64];
    let w = vec![0.75f32; oc * 27];
    let mut dw = vec![0.0f32; oc * 27];
    let mut dx = vec![0.0f32; x.len()];
    let delta = |f: &mut dyn FnMut()| {
        let t0 = pack_traffic();
        f();
        let t1 = pack_traffic();
        PackTraffic {
            f32_bytes: t1.f32_bytes - t0.f32_bytes,
            bf16_bytes: t1.bf16_bytes - t0.bf16_bytes,
        }
    };
    let dw32 = delta(&mut || conv2d_grad_w_into(&x, &up, n, oc, &g, &mut dw));
    let dw16 = delta(&mut || with_bf16_gemm(|| conv2d_grad_w_into(&x, &up, n, oc, &g, &mut dw)));
    let dx32 = delta(&mut || conv2d_grad_x_into(&up, &w, n, oc, &g, &mut dx));
    let dx16 = delta(&mut || with_bf16_gemm(|| conv2d_grad_x_into(&up, &w, n, oc, &g, &mut dx)));
    // Per image, 3 channel planes of the padded image, 10 × 10; the 5
    // output channels in one 8-column panel over the block's 128 pixels
    // (8 columns on every tier: 5 channels take the AVX2 tile on an AVX-512
    // host).
    let dw_elems = (n * 3 * 10 * 10 + 8 * n * 64) as u64;
    assert_eq!(
        (dw32.f32_bytes, dw32.bf16_bytes),
        (4 * dw_elems, 0),
        "image copies and up panels, f32"
    );
    assert_eq!(
        (dw16.f32_bytes, dw16.bf16_bytes),
        (0, 2 * dw_elems),
        "the same elements, bf16: half"
    );
    // wᵀ in 8-row micro-panels of its 27 taps over 5 channels; in bf16, also
    // each image's output gradient, rounded once.
    let wt_elems = (32 * oc) as u64;
    assert_eq!(
        (dx32.f32_bytes, dx32.bf16_bytes),
        (4 * wt_elems, 0),
        "the weight's panels; up read in place"
    );
    let up_elems = (n * oc * 64) as u64;
    assert_eq!(
        (dx16.f32_bytes, dx16.bf16_bytes),
        (0, 2 * (wt_elems + up_elems)),
        "and up's bf16 copy"
    );
}

/// A take that follows a drop of the same size recycles and does not
/// allocate, and the live-bytes gauge and its high-water mark follow.
fn pool_counters_track_allocations_and_recycles() {
    let len = 96 * 1024; // larger than anything the GEMM phase left pooled
    drop(Tensor::zeros(&[len]));
    let warm = pool::stats();
    let t = Tensor::zeros(&[len]);
    let after_take = pool::stats();
    assert_eq!(
        after_take.recycles - warm.recycles,
        1,
        "steady-state take must recycle, not allocate"
    );
    assert_eq!(after_take.allocations, warm.allocations);
    assert!(after_take.live_bytes >= len * 4);
    assert!(after_take.high_water_bytes >= after_take.live_bytes);
    drop(t);
    let after_drop = pool::stats();
    assert!(after_drop.live_bytes <= after_take.live_bytes - len * 4);
    let delta = after_drop.since(&warm);
    assert_eq!((delta.allocations, delta.recycles), (0, 1));
}
