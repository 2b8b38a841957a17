//! Exact-delta checks of the two process-wide counter sets: packed-panel
//! bytes ([`legw_tensor::pack_traffic`]) and buffer-pool traffic
//! ([`legw_tensor::pool::stats`]).
//!
//! Deliberately a **single test in its own integration binary**: the
//! counters are process-wide, so the before/after deltas are exact only
//! when this is the one thread in the process issuing GEMMs and allocating
//! tensors. The three phases therefore run in sequence inside one `#[test]`
//! — separate tests would run on parallel harness threads.

use legw_tensor::{
    gemm_into, gemm_into_packed, pack_traffic, pool, with_bf16_gemm, PackedB, Tensor,
};

#[test]
fn process_wide_counters_move_by_exact_deltas() {
    bf16_mode_packs_exactly_half_the_bytes();
    packed_b_moves_the_pack_out_of_the_call();
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
