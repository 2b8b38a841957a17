//! Packed, register-tiled GEMM engine.
//!
//! One kernel serves the three matmul entry points (`matmul`, `t_matmul`,
//! `matmul_t`) and the three GEMMs of a convolution. The structure is the
//! classic three-level blocking of high-performance BLAS (GotoBLAS/BLIS),
//! scaled to this crate's needs:
//!
//! * **Register tiling** — the innermost unit is an `MR×NR` tile of `f32`
//!   accumulators. The tile computation is a runtime-dispatched
//!   [`crate::kernels::Micro`] variant: explicit AVX-512F (8×16), AVX2
//!   (8×8), or the original safe-Rust scalar tile, selected once per call
//!   from [`crate::kernels::selected`] — so a portable build without
//!   `-C target-cpu=native` still runs vector microkernels on hardware
//!   that has them. All variants are bitwise-equal (same per-element
//!   mul/add rounding sequence; see the `kernels` module docs).
//! * **Panel packing** — before the microkernel runs, the A and B operands
//!   of the current cache block are repacked into contiguous buffers laid
//!   out exactly in microkernel access order (`MR`- and `NR`-wide
//!   micro-panels, k-major). Packing is where operand layout is absorbed:
//!   a transposed A (`t_matmul`) or transposed B (`matmul_t`) only changes
//!   the gather pattern of the pack loop, so there is a single compute
//!   kernel instead of three divergent hand-written loops. Edge tiles are
//!   zero-padded at pack time, which keeps the microkernel free of bounds
//!   logic; the pack loops write every element of a panel exactly once
//!   (data, then the edge padding), so nothing is zero-filled first.
//!   Packing is also where the **bf16 storage mode** lives: inside a
//!   [`with_bf16`] scope the panels are narrowed f32→bf16
//!   (round-to-nearest-even) as they are packed — halving packed bytes and
//!   pack traffic — and widened back (exactly) inside the micro-tile, with
//!   all accumulation still in f32. Only the packed panels change layout;
//!   operands and outputs stay f32.
//! * **Packing B ahead of the call** — packing B costs `O(k·n)` against
//!   `O(m·k·n)` of arithmetic, so for skinny `m` (a batch-32 recurrent
//!   step, an `m = 1` serving row) it is a third to a half of the call,
//!   and [`gemm_into`] pays it inside every `(row tile, column tile,
//!   k-block)` of every call. A [`PackedB`] holds *all* of B in the same
//!   micro-panel layout, one `kb × n_pad` block per [`KC`] slice of k
//!   (`n_pad` = n rounded up to `NR`), packed once by the same pack loop;
//!   [`gemm_into_packed`] then runs the same blocked engine and hands each
//!   tile the sub-range of those panels it would otherwise have packed —
//!   same packed values, same micro-tile order, bitwise-equal output. The
//!   layout depends on `(k, n, NR, f32|bf16)` only, never on `m`, the
//!   block sizes or the thread count, so one `PackedB` serves any number
//!   of calls until B's values change. Compiled plans own one per weight
//!   operand and refresh it once per replay (`legw-autograd`, `plan.rs`).
//! * **Cache blocking + 2-D parallelism** — the output is cut into an
//!   ([`MC`] × [`NC`]) block grid; each grid cell is an independent task
//!   dispatched via [`legw_parallel::par_tiles_2d`], and loops over shared
//!   [`KC`]-deep slices of the k dimension internally. Block sizes shrink
//!   adaptively (see [`plan_blocks`]) so tall-skinny/short-wide shapes —
//!   the LSTM-gate and convolution shapes large-batch training produces — still
//!   fan out over every worker instead of leaving threads idle the way the
//!   old row-chunk decomposition did.
//! * **Convolutions** — the three products of a convolution run on this
//!   engine without a column matrix (`conv.rs` has the lowering they equal),
//!   and none gathers an operand tap by tap. Each image is copied once into
//!   a layout (`conv::ImageCopy`) in which every tap's im2col row is a run
//!   of the copy at a per-tap offset. The forward's micro-tile reads each
//!   k-step's B row from that copy ([`Taps`]) where a GEMM reads it from a
//!   packed panel ([`Panel`]). The weight gradient swaps the product's
//!   sides: taps are its tile rows, whose A scalars the tile reads from the
//!   copies at a tap's offset plus a pixel's position ([`Gather`]), and
//!   `up`'s channels are its columns, packed a k-block at a time. The input
//!   gradient reads its B rows in place from `up`'s planes ([`Planes`]) and
//!   adds each tile straight into a zero-padded copy of the image
//!   (`Micro::scatter`), the adjoint of the forward's copy. One tile body
//!   serves every source. The weight is packed once per call as the whole
//!   A operand of the forward and the input gradient.
//! * **Scratch reuse** — the per-call buffers are thread-local: a
//!   (packed-A, packed-B) pair per packed element type, which grows to
//!   `MC·KC` / `KC·NC` once and is then sliced, never cleared (a conv
//!   forward task copies its image into the B half, a weight-gradient task
//!   its images into the A half; an input gradient in bf16 rounds `up`'s
//!   planes into the B half); a whole-operand panel per element type (a
//!   conv's weight); a conv's tap offsets; a weight-gradient task's pixel
//!   positions; an input-gradient task's padded image; and a weight
//!   gradient's per-block partial products. A [`PackedB`] keeps its
//!   allocation across repacks, and outputs come from the [`crate::pool`]
//!   recycler, so the steady-state training loop performs no per-call heap
//!   allocation here.

use crate::conv::{self, Conv2dGeom};
use crate::kernels::{self, Gather, Kernel, Micro, PackElem, Panel, Planes, Taps};
use crate::pool::Buffer;
use legw_parallel::{current, par_chunks_mut, par_tiles_2d, ThreadPool};
use std::cell::{Cell, RefCell};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// Scalar/AVX2 microkernel rows: the M-extent of the register tile. (The
/// AVX-512 tile is 8×16; blocking adapts per variant.) Only the boundary
/// tests need the name — the engine takes tile extents from the dispatched
/// [`Micro`] variant.
#[cfg(test)]
pub(crate) const MR: usize = kernels::scalar::TILE;
/// Scalar/AVX2 microkernel columns: the N-extent of the register tile.
#[cfg(test)]
pub(crate) const NR: usize = kernels::scalar::TILE;
/// M-dimension cache block (A block of `MC×KC` targets L2).
pub(crate) const MC: usize = 128;
/// K-dimension cache block (packed panels of `MR×KC`/`KC×NR` live in L1).
pub(crate) const KC: usize = 256;
/// N-dimension cache block (B block of `KC×NC` targets L2/L3).
pub(crate) const NC: usize = 256;

/// Minimum multiply-adds before the thread pool is engaged.
const PAR_FLOPS: usize = 64 * 64 * 64;

thread_local! {
    /// Reused (packed-A, packed-B) f32 scratch; grows to `MC·KC` / `KC·NC`
    /// once and is then reused by every GEMM call on this thread. A conv
    /// forward task copies its image into the B half.
    static SCRATCH_F32: RefCell<(Vec<f32>, Vec<f32>)> = const { RefCell::new((Vec::new(), Vec::new())) };
    /// bf16-mode packing scratch (bf16 bit patterns).
    static SCRATCH_BF16: RefCell<(Vec<u16>, Vec<u16>)> = const { RefCell::new((Vec::new(), Vec::new())) };
    /// A whole operand packed ahead of a call whose tiles share it (a
    /// convolution's weight), one per packed element type. Held by the
    /// issuing thread across the call; tile tasks never touch it.
    static WHOLE_F32: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    static WHOLE_BF16: RefCell<Vec<u16>> = const { RefCell::new(Vec::new()) };
    /// A convolution's per-tap offsets into its image copies, held by the
    /// issuing thread across the call.
    static TAP_OFFSETS: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    /// A conv weight-gradient task's pixel positions in its image copies.
    static POSITIONS: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    /// A conv input-gradient task's padded image, which its tiles add into.
    static PADDED: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// A k-split GEMM's per-block partial products, held by the issuing
    /// thread across the call.
    static PARTIALS: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// Whether GEMMs issued from this thread pack panels as bf16.
    static BF16_MODE: Cell<bool> = const { Cell::new(false) };
}

/// Bytes written into f32 packed panels, process-wide.
static PACKED_F32_BYTES: AtomicU64 = AtomicU64::new(0);
/// Bytes written into bf16 packed panels, process-wide.
static PACKED_BF16_BYTES: AtomicU64 = AtomicU64::new(0);

/// Cumulative packed-operand traffic (process-wide, monotonic): bytes
/// written into packed panels and into the conv forward's image copies.
/// The bf16 serving mode's "half the packed weight bytes" claim is measured
/// against these counters; both count bytes *written*, so for one shape
/// the bf16 number is exactly half the f32 number.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PackTraffic {
    /// Bytes packed (or copied) by f32-mode GEMMs and convolutions.
    pub f32_bytes: u64,
    /// Bytes packed (or copied) by bf16-mode GEMMs and convolutions.
    pub bf16_bytes: u64,
}

/// Snapshot of the process-wide [`PackTraffic`] counters.
pub fn pack_traffic() -> PackTraffic {
    PackTraffic {
        f32_bytes: PACKED_F32_BYTES.load(Ordering::Relaxed),
        bf16_bytes: PACKED_BF16_BYTES.load(Ordering::Relaxed),
    }
}

/// Runs `f` with bf16 packed-panel storage enabled for every GEMM *issued
/// from this thread* (the mode is read once at `gemm_into` entry, so a
/// parallel GEMM's worker tasks inherit the issuing call's mode). Restores
/// the previous mode on exit; scopes nest.
///
/// Numerics contract: inside the scope, `A·B` is computed bitwise as the
/// f32 engine would compute `round_bf16(A) · round_bf16(B)` — rounding
/// happens once per packed element and accumulation stays f32. See
/// `kernels::bf16`.
pub fn with_bf16<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            BF16_MODE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(BF16_MODE.with(|c| c.replace(true)));
    f()
}

/// True when this thread is inside a [`with_bf16`] scope.
pub fn bf16_enabled() -> bool {
    BF16_MODE.with(Cell::get)
}

/// Packed-element plumbing the blocked engine needs beyond
/// [`PackElem`]: a per-thread scratch pair, a traffic counter, and this
/// element type's view of a [`PackedB`]'s storage.
trait PackScratch: PackElem {
    fn with_scratch<R>(f: impl FnOnce(&mut Vec<Self>, &mut Vec<Self>) -> R) -> R;
    /// This thread's whole-operand panel scratch.
    fn with_whole<R>(f: impl FnOnce(&mut Vec<Self>) -> R) -> R;
    fn counter() -> &'static AtomicU64;
    /// The vector of `p` that holds panels of this element type.
    fn panels(p: &PackedB) -> &Vec<Self>;
    fn panels_mut(p: &mut PackedB) -> &mut Vec<Self>;
    /// `x` itself when it is already this element type.
    fn in_place(x: &[f32]) -> Option<&[Self]>;
}

impl PackScratch for f32 {
    fn with_scratch<R>(f: impl FnOnce(&mut Vec<f32>, &mut Vec<f32>) -> R) -> R {
        SCRATCH_F32.with(|s| {
            let (a, b) = &mut *s.borrow_mut();
            f(a, b)
        })
    }
    fn with_whole<R>(f: impl FnOnce(&mut Vec<f32>) -> R) -> R {
        WHOLE_F32.with(|w| f(&mut w.borrow_mut()))
    }
    fn counter() -> &'static AtomicU64 {
        &PACKED_F32_BYTES
    }
    fn panels(p: &PackedB) -> &Vec<f32> {
        &p.f32_panels
    }
    fn panels_mut(p: &mut PackedB) -> &mut Vec<f32> {
        &mut p.f32_panels
    }
    fn in_place(x: &[f32]) -> Option<&[f32]> {
        Some(x)
    }
}

impl PackScratch for u16 {
    fn with_scratch<R>(f: impl FnOnce(&mut Vec<u16>, &mut Vec<u16>) -> R) -> R {
        SCRATCH_BF16.with(|s| {
            let (a, b) = &mut *s.borrow_mut();
            f(a, b)
        })
    }
    fn with_whole<R>(f: impl FnOnce(&mut Vec<u16>) -> R) -> R {
        WHOLE_BF16.with(|w| f(&mut w.borrow_mut()))
    }
    fn counter() -> &'static AtomicU64 {
        &PACKED_BF16_BYTES
    }
    fn panels(p: &PackedB) -> &Vec<u16> {
        &p.bf16_panels
    }
    fn panels_mut(p: &mut PackedB) -> &mut Vec<u16> {
        &mut p.bf16_panels
    }
    fn in_place(_: &[f32]) -> Option<&[u16]> {
        None
    }
}

/// Evaluates `$body` with `$M` naming the micro-tile type of `($kernel,
/// $bf16)` — the one dispatch table behind every entry point, so the tier
/// and element type are fixed once per call, on the calling thread, and
/// worker tasks inherit them through monomorphisation.
macro_rules! with_micro {
    ($kernel:expr, $bf16:expr, $M:ident => $body:expr) => {{
        use crate::kernels::scalar::ScalarMicro;
        #[cfg(target_arch = "x86_64")]
        use crate::kernels::{avx2::Avx2Micro, avx512::Avx512Micro};
        match ($kernel, $bf16) {
            (Kernel::Scalar, false) => {
                type $M = ScalarMicro<f32>;
                $body
            }
            (Kernel::Scalar, true) => {
                type $M = ScalarMicro<u16>;
                $body
            }
            #[cfg(target_arch = "x86_64")]
            (Kernel::Avx2, false) => {
                type $M = Avx2Micro<f32>;
                $body
            }
            #[cfg(target_arch = "x86_64")]
            (Kernel::Avx2, true) => {
                type $M = Avx2Micro<u16>;
                $body
            }
            #[cfg(target_arch = "x86_64")]
            (Kernel::Avx512, false) => {
                type $M = Avx512Micro<f32>;
                $body
            }
            #[cfg(target_arch = "x86_64")]
            (Kernel::Avx512, true) => {
                type $M = Avx512Micro<u16>;
                $body
            }
            // selected() never returns a vector variant off x86-64.
            #[cfg(not(target_arch = "x86_64"))]
            _ => unreachable!("vector kernel selected on non-x86_64"),
        }
    }};
}

/// Computes `C = A·B` into a pooled buffer.
///
/// `trans_a` means A is stored `[k, m]` (so `A[i,l] = a[l·m + i]`);
/// `trans_b` means B is stored `[n, k]` (so `B[l,j] = b[j·k + l]`). The
/// result is always row-major `[m, n]`.
pub(crate) fn gemm(
    trans_a: bool,
    trans_b: bool,
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
) -> Buffer {
    // The non-accumulating kernel overwrites every output element, so the
    // buffer can start dirty — no memset on the hot path.
    let mut out = Buffer::dirty(m * n);
    gemm_into(&current(), trans_a, trans_b, a, b, m, k, n, &mut out, false);
    out
}

/// Thin wrapper over a raw output pointer, shared by the tile tasks of one
/// GEMM call.
struct OutPtr(*mut f32);
// SAFETY: the pointer is the base of the `out: &mut [f32]` the GEMM call
// holds for its whole duration, and is only dereferenced inside
// `macro_kernel`, where tile `(ti, tj)` writes output rows
// `ti·mc..` × columns `tj·nc..` and nothing else. The tile grid partitions
// the output, `par_tiles_2d` runs each `(ti, tj)` exactly once, and the
// fork/join returns before the borrow ends — so moving the wrapper to
// another thread never lets two threads touch the same element.
unsafe impl Send for OutPtr {}
// SAFETY: as for `Send` above — the tasks that share the wrapper each write
// their own tile of the partition and read nothing through it.
unsafe impl Sync for OutPtr {}
impl OutPtr {
    fn get(&self) -> *mut f32 {
        self.0
    }
}

/// An empty product still has defined beta semantics: beta = 0 must leave
/// C = 0, beta = 1 leaves C untouched.
fn empty_product(out: &mut [f32], acc: bool) {
    if !acc {
        out.iter_mut().for_each(|x| *x = 0.0);
    }
}

/// [`gemm`] with an explicit pool, output slice, and store mode.
///
/// With `acc = false` the kernel computes `C = A·B` (beta = 0: every output
/// element is overwritten, so `out` may hold garbage on entry). With
/// `acc = true` it computes `C += A·B` (beta = 1), which is what the
/// sequence-hoisted LSTM recurrent step uses to fold `h·W_h` into the
/// pre-computed input-projection block. Also the test hook — lets
/// single- vs multi-threaded execution be compared without touching the
/// global pool.
///
/// The kernel variant ([`crate::kernels::selected`]) and the bf16 pack
/// mode ([`bf16_enabled`]) are both read **once, here, on the calling
/// thread** — worker tasks inherit the choice through monomorphisation, so
/// thread-local overrides and bf16 scopes cover the whole call.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_into(
    pool: &ThreadPool,
    trans_a: bool,
    trans_b: bool,
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
    acc: bool,
) {
    assert_eq!(a.len(), m * k, "gemm A size");
    assert_eq!(b.len(), k * n, "gemm B size");
    assert_eq!(out.len(), m * n, "gemm C size");
    if m == 0 || n == 0 || k == 0 {
        return empty_product(out, acc);
    }
    let a = Src { data: a, ld: if trans_a { m } else { k }, trans: trans_a };
    // B is read as Bᵀ `[n, k]`: stored `[n, k]` is its plain form.
    let b = Src { data: b, ld: if trans_b { k } else { n }, trans: !trans_b };
    with_micro!(kernels::selected(), bf16_enabled(), M => {
        gemm_blocked::<M>(pool, Operand::Src(a), Operand::Src(b), m, k, n, out, acc)
    })
}

// ------------------------------------------------------------ pre-packed B

/// All of one GEMM's B operand in micro-panel layout, packed once and read
/// by any number of [`gemm_into_packed`] calls — see the module docs,
/// "Packing B ahead of the call".
///
/// The layout is fixed by `(k, n)`, the kernel tier's `NR` and the packed
/// element type, so a `PackedB` is tied to the tier and the
/// [`with_bf16`](crate::with_bf16_gemm) mode it was packed under;
/// [`gemm_into_packed`] refuses it under any other. It does not remember
/// *which* values it packed: whoever owns it repacks when B changes.
#[derive(Clone)]
pub struct PackedB {
    k: usize,
    n: usize,
    /// `(tier, bf16)` of the last [`PackedB::pack`]; `None` before it.
    packed_for: Option<(Kernel, bool)>,
    /// The panels live in the vector of the mode's element type; the other
    /// one is empty.
    f32_panels: Vec<f32>,
    bf16_panels: Vec<u16>,
}

impl PackedB {
    /// An unpacked holder for a `k × n` operand, with storage reserved for
    /// the tier and bf16 mode current on this thread — so a first
    /// [`PackedB::pack`] under the same mode allocates nothing.
    pub fn new(k: usize, n: usize) -> PackedB {
        let (kernel, bf16) = (kernels::selected(), bf16_enabled());
        let len = with_micro!(kernel, bf16, M => k * n.next_multiple_of(M::NR));
        let (f32_len, bf16_len) = if bf16 { (0, len) } else { (len, 0) };
        PackedB {
            k,
            n,
            packed_for: None,
            f32_panels: Vec::with_capacity(f32_len),
            bf16_panels: Vec::with_capacity(bf16_len),
        }
    }

    /// Packs (or repacks) `b` — stored `[k, n]`, or `[n, k]` when `trans_b`
    /// — for the tier and bf16 mode current on this thread. Repacking under
    /// an unchanged mode overwrites in place; large operands fork over
    /// micro-panels on the current pool.
    pub fn pack(&mut self, trans_b: bool, b: &[f32]) {
        assert_eq!(b.len(), self.k * self.n, "PackedB source size");
        let mode = (kernels::selected(), bf16_enabled());
        with_micro!(mode.0, mode.1, M => self.pack_as::<M>(&current(), trans_b, b));
        // A switch of element type frees what the other one held.
        if mode.1 {
            self.f32_panels = Vec::new();
        } else {
            self.bf16_panels = Vec::new();
        }
        self.packed_for = Some(mode);
    }

    /// Bytes of packed storage held (0 before the first pack).
    pub fn bytes(&self) -> usize {
        std::mem::size_of_val(&self.f32_panels[..]) + std::mem::size_of_val(&self.bf16_panels[..])
    }

    fn pack_as<M: Micro>(&mut self, pool: &ThreadPool, trans_b: bool, b: &[f32])
    where
        M::E: PackScratch,
    {
        let (k, n) = (self.k, self.n);
        let buf = M::E::panels_mut(self);
        // A no-op once the layout is settled: every element is overwritten
        // below, so only growth (first pack, or a new tier) fills.
        buf.resize(k * n.next_multiple_of(M::NR), M::E::default());
        let bt = Src { data: b, ld: if trans_b { k } else { n }, trans: !trans_b };
        pack_whole(pool, buf, bt, n, k, M::NR);
    }
}

/// Packs all of `src` (`rows × k`) into `buf` as `w`-row micro-panels, one
/// `kb × rows_pad` block per [`KC`] slice of k (`rows_pad` = rows rounded
/// up to `w`): the layout [`Operand::Packed`] reads. Forks over micro-panels
/// on `pool` when the operand is large. `buf` must hold exactly that many
/// elements, and every one is overwritten.
fn pack_whole<E: PackScratch>(
    pool: &ThreadPool,
    buf: &mut [E],
    src: Src<'_>,
    rows: usize,
    k: usize,
    w: usize,
) {
    let pad = rows.next_multiple_of(w);
    debug_assert_eq!(buf.len(), k * pad, "whole-operand panel length");
    // Micro-panels per task: all of them for a small operand, about two
    // tasks per lane for one worth forking over.
    let tasks = if k * rows >= crate::PAR_THRESHOLD { 2 * pool.threads() } else { 1 };
    let group = (pad / w).div_ceil(tasks).max(1);
    for k0 in (0..k).step_by(KC) {
        let kb = KC.min(k - k0);
        let block = &mut buf[k0 * pad..(k0 + kb) * pad];
        par_chunks_mut(pool, block, group * kb * w, |start, chunk| {
            // Chunks are whole micro-panels of `kb·w` elements each.
            let r0 = start / kb;
            src.pack(chunk, r0, (chunk.len() / kb).min(rows - r0), k0, kb, w);
        });
    }
    E::counter().fetch_add(std::mem::size_of_val(buf) as u64, Ordering::Relaxed);
}

/// `out (+)= op(a) · B` with B taken from `b`'s panels instead of being
/// packed inside the call: the same blocked engine, micro-tile and
/// operation order as [`crate::gemm_into`], hence the same bits. `a` is `[m, k]`
/// (`[k, m]` when `trans_a`) and `out` is `[m, n]`, with `k` and `n` those
/// `b` was created for. Runs on the current thread pool.
///
/// # Panics
/// If `b` was never packed, or was last packed under another kernel tier or
/// bf16 mode than the one current on this thread — its panels would have
/// another micro-panel width or element type than the tile dispatched.
pub fn gemm_into_packed(
    trans_a: bool,
    a: &[f32],
    b: &PackedB,
    m: usize,
    out: &mut [f32],
    acc: bool,
) {
    let (k, n) = (b.k, b.n);
    assert_eq!(a.len(), m * k, "gemm_into_packed lhs length");
    assert_eq!(out.len(), m * n, "gemm_into_packed out length");
    let mode = (kernels::selected(), bf16_enabled());
    assert_eq!(
        b.packed_for,
        Some(mode),
        "PackedB is unpacked, or was packed under another (kernel tier, bf16 mode) than this one"
    );
    if m == 0 || n == 0 || k == 0 {
        return empty_product(out, acc);
    }
    with_micro!(mode.0, mode.1, M => {
        let panels = <<M as Micro>::E as PackScratch>::panels(b);
        let a = Operand::Src(Src { data: a, ld: if trans_a { m } else { k }, trans: trans_a });
        let b = Operand::Packed(panels, n.next_multiple_of(M::NR));
        gemm_blocked::<M>(&current(), a, b, m, k, n, out, acc)
    })
}

/// A matrix the engine reads as `[rows, k]` — A as it is, B transposed —
/// and packs into `w`-row micro-panels, k-major, a block at a time: the one
/// place operand layout is absorbed. Row-major `[rows, k]` with row stride
/// `ld`, or stored `[k, rows]` (row stride `ld`) when `trans`.
#[derive(Clone, Copy)]
pub(crate) struct Src<'a> {
    data: &'a [f32],
    ld: usize,
    trans: bool,
}

impl Src<'_> {
    /// Packs the `rows × kb` block at `(r0, k0)` into `dst`, exactly the
    /// panels' length; every element is written, rows past `rows` in the
    /// last panel as zeros, so the microkernel needs no edge handling.
    // Inlined, with `pack_dense`, into every tile body, which LLVM then
    // specialises to the tile's constant `w`; a shared copy keeps `w` a
    // run-time stride, which costs a small GEMM up to a fifth of its speed.
    #[inline(always)]
    fn pack<E: PackElem>(
        &self,
        dst: &mut [E],
        r0: usize,
        rows: usize,
        k0: usize,
        kb: usize,
        w: usize,
    ) {
        debug_assert_eq!(dst.len(), rows.div_ceil(w) * kb * w, "packed block length");
        pack_dense(dst, self.data, self.trans, self.ld, r0, rows, k0, kb, w)
    }
}

/// Where the blocked engine takes an operand's micro-panels from.
#[derive(Clone, Copy)]
enum Operand<'a, E> {
    /// Packed into the tile's thread scratch, block by block, as it runs.
    Src(Src<'a>),
    /// Every block packed ahead of the call ([`pack_whole`]'s layout, with
    /// its `rows_pad`), shared read-only by every tile.
    Packed(&'a [E], usize),
}

impl<'a, E: PackElem> Operand<'a, E> {
    /// The `rows × kb` block at `(r0, k0)` in `w`-row micro-panels, and the
    /// elements packed to get it. `r0` is on the micro-panel grid.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn block<'s>(
        &self,
        scratch: &'s mut Vec<E>,
        r0: usize,
        rows: usize,
        k0: usize,
        kb: usize,
        w: usize,
    ) -> (&'s [E], usize)
    where
        'a: 's,
    {
        let len = rows.div_ceil(w) * kb * w;
        match *self {
            Operand::Src(src) => {
                let dst = scratch_prefix(scratch, len);
                src.pack(dst, r0, rows, k0, kb, w);
                (dst, len)
            }
            // Block `k0` starts at `k0 · pad`; inside it the micro-panel of
            // row `r0` starts at `(r0 / w) · kb · w`.
            Operand::Packed(p, pad) => (&p[k0 * pad + r0 * kb..][..len], 0),
        }
    }
}

/// `C (+)= A·B` on output rows `i0..i0+mb` × columns `j0..j0+nb` of the
/// `ldc`-stride matrix at `out`, over the [`KC`] blocks of the k range `ks`
/// (`ks.start` a multiple of KC): the body of every engine task. Each block
/// packs (or looks up) its A and B panels on this thread and runs the
/// micro-tiles; the first block stores unless `acc`, later ones add their
/// partial sums.
///
/// # Safety
/// The caller must own that output rectangle exclusively for the call, all
/// of it inside the allocation `out` points into; `i0` and `j0` must lie on
/// the micro-panel grid; a [`Operand::Packed`] operand must hold panels of
/// `M`'s tier and element type; and the dispatch layer must have checked
/// that `M` runs on this CPU.
#[allow(clippy::too_many_arguments)]
unsafe fn block_product<M: Micro>(
    a: Operand<'_, M::E>,
    b: Operand<'_, M::E>,
    (i0, mb): (usize, usize),
    (j0, nb): (usize, usize),
    ks: Range<usize>,
    out: *mut f32,
    ldc: usize,
    acc: bool,
) where
    M::E: PackScratch,
{
    debug_assert!(i0 % M::MR == 0 && j0 % M::NR == 0, "block off the micro-panel grid");
    M::E::with_scratch(|abuf, bbuf| {
        for k0 in ks.clone().step_by(KC) {
            let kb = KC.min(ks.end - k0);
            let (ap, packed_a) = a.block(abuf, i0, mb, k0, kb, M::MR);
            let (bp, packed_b) = b.block(bbuf, j0, nb, k0, kb, M::NR);
            M::E::counter().fetch_add(
                ((packed_a + packed_b) * std::mem::size_of::<M::E>()) as u64,
                Ordering::Relaxed,
            );
            debug_assert_eq!(bp.len(), nb.div_ceil(M::NR) * kb * M::NR, "B panels");
            let b_panel = |jp: usize| Panel(&bp[jp * kb * M::NR..][..kb * M::NR]);
            // SAFETY: the caller's contract: it owns the rectangle, `M` runs
            // here; `ap` / `bp` hold the `mb×kb` / `kb×nb` blocks in `M`'s
            // micro-panel layout (packed just above, or panels of `M`'s
            // tier and element type), so each panel is a whole `kb`-step
            // micro-panel.
            unsafe {
                macro_kernel::<M, _>(
                    ap,
                    b_panel,
                    mb,
                    nb,
                    kb,
                    out,
                    ldc,
                    i0,
                    j0,
                    acc || k0 > ks.start,
                )
            };
        }
    });
}

/// The blocked engine, monomorphised per micro-tile variant: the output cut
/// into an `(mc × nc)` tile grid, one [`block_product`] over all of k per
/// tile.
#[allow(clippy::too_many_arguments)]
fn gemm_blocked<M: Micro>(
    pool: &ThreadPool,
    a: Operand<'_, M::E>,
    b: Operand<'_, M::E>,
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
    acc: bool,
) where
    M::E: PackScratch,
{
    let parallel = m * n * k >= PAR_FLOPS && pool.threads() > 1;
    let (mc, nc) =
        if parallel { plan_blocks(m, n, pool.threads(), M::MR, M::NR) } else { (MC, NC) };

    let base = OutPtr(out.as_mut_ptr());
    let tile = |ti: usize, tj: usize| {
        let (i0, j0) = (ti * mc, tj * nc);
        // SAFETY: this (ti, tj) task is the only one that writes output
        // rows i0..i0+mb × columns j0..j0+nb — the tile grid partitions
        // `out`, which has `m·n` elements (asserted by the entry points) and
        // stays mutably borrowed until every tile has run; `mc` and `nc`
        // are multiples of MR and NR; a packed operand was checked against
        // `M` by the entry point, which dispatched `M` for this CPU.
        unsafe {
            let (rows, cols) = ((i0, mc.min(m - i0)), (j0, nc.min(n - j0)));
            block_product::<M>(a, b, rows, cols, 0..k, base.get(), n, acc)
        }
    };

    let (tiles_m, tiles_n) = (m.div_ceil(mc), n.div_ceil(nc));
    if parallel {
        par_tiles_2d(pool, tiles_m, tiles_n, tile);
    } else {
        for ti in 0..tiles_m {
            for tj in 0..tiles_n {
                tile(ti, tj);
            }
        }
    }
}

// ------------------------------------------------------------ convolutions
//
// The three GEMMs of a convolution read their operands where they already
// are: the weight, the images (read in place from per-image copies, laid out
// by `conv::ImageCopy`: as the forward's B rows and the weight gradient's A
// scalars) and the NCHW output gradient (the input gradient's B rows in
// place, the weight gradient's B packed a block at a time). Each is the
// product the im2col lowering computed, with the operands of every multiply
// swapped where the product is transposed — `a·b` is `b·a` in IEEE
// arithmetic, the k-blocks are the same [`KC`] slices and each tile still
// sums its k-steps in order — so every output element keeps its bits.

/// Packs all of `src` (`rows × k`) into this thread's whole-operand scratch
/// for `f`, as the panels and padded row count every tile of the call
/// reads ([`pack_whole`]'s layout).
fn with_whole_operand<E: PackScratch, R>(
    pool: &ThreadPool,
    src: Src<'_>,
    rows: usize,
    k: usize,
    w: usize,
    f: impl FnOnce(&[E], usize) -> R,
) -> R {
    E::with_whole(|buf| {
        let pad = rows.next_multiple_of(w);
        let panels = scratch_prefix(buf, k * pad);
        pack_whole(pool, panels, src, rows, k, w);
        f(panels, pad)
    })
}

/// Writes `layout`'s offset of every tap into this thread's tap table, `len`
/// long (taps past `c·kh·kw` at offset 0), for `f`.
fn with_tap_offsets<R>(
    layout: &conv::ImageCopy,
    g: &Conv2dGeom,
    len: usize,
    f: impl FnOnce(&[usize]) -> R,
) -> R {
    TAP_OFFSETS.with(|off| {
        let mut off = off.borrow_mut();
        let off = scratch_prefix(&mut off, len);
        let ckk = g.c * g.kh * g.kw;
        layout.offsets(g, &mut off[..ckk]);
        off[ckk..].fill(0);
        f(off)
    })
}

/// Conv2d forward: `out [imgs, oc, oh·ow]`, image `i` being
/// `w [oc, ckk] · Unfold(xᵢ)ᵀ`, multiplied straight from the image. The
/// weight is packed once for the call as the whole A operand. Each task
/// copies the rows of its image it reads, once, into this thread's B
/// scratch ([`conv::ImageCopy`]'s planes, rounded like a packed panel), and
/// its micro-tiles load each k-step's B row from that copy at the tap's
/// offset ([`Taps`]) instead of from a packed panel. The k-blocks, the
/// tile and the stores are the engine's, so the bits are the im2col
/// product's. Tasks are images, each cut into pixel ranges when there are
/// fewer than two images per lane.
pub(crate) fn conv_forward(
    pool: &ThreadPool,
    x: &[f32],
    w: &[f32],
    imgs: usize,
    oc: usize,
    g: &Conv2dGeom,
    out: &mut [f32],
) {
    let (ckk, hw, img) = (g.c * g.kh * g.kw, g.oh() * g.ow(), g.c * g.h * g.w);
    debug_assert!(x.len() == imgs * img && w.len() == oc * ckk && out.len() == imgs * oc * hw);
    if out.is_empty() || ckk == 0 {
        return empty_product(out, false);
    }
    let lanes = if imgs * oc * ckk * hw >= PAR_FLOPS { pool.threads() } else { 1 };
    let weight = Src { data: w, ld: ckk, trans: false };
    with_micro!(kernels::selected(), bf16_enabled(), M => {
        let layout = conv::ImageCopy::new(g, M::NR);
        // Pixel ranges per image, whole output rows where runs are rows.
        let cuts = if imgs >= 2 * lanes { 1 } else { (2 * lanes).div_ceil(imgs) };
        let span = hw.div_ceil(cuts).next_multiple_of(layout.run_grid(M::NR)).min(hw);
        let ranges = hw.div_ceil(span);
        with_whole_operand::<<M as Micro>::E, _>(pool, weight, oc, ckk, M::MR, |panels, pad| {
            with_tap_offsets(&layout, g, ckk, |off| {
                let (a, base) = (Operand::Packed(panels, pad), OutPtr(out.as_mut_ptr()));
                let task = |t: usize| {
                    let (i, p0) = (t / ranges, t % ranges * span);
                    let image = &x[i * img..(i + 1) * img];
                    // SAFETY: task t alone writes columns `p0..p0 + span`
                    // of image i's `[oc, hw]` block, which lies inside `out`
                    // (`imgs·oc·hw` elements, borrowed until every task
                    // ran); `a` was packed for `M` just above, on the tier
                    // dispatch chose for this CPU.
                    unsafe {
                        let img_out = base.get().add(i * oc * hw);
                        conv_pixels::<M>(a, image, g, &layout, off, oc, p0..hw.min(p0 + span), img_out)
                    }
                };
                if lanes > 1 {
                    pool.run(imgs * ranges, task);
                } else {
                    (0..imgs * ranges).for_each(task);
                }
            })
        })
    })
}

/// One conv forward task: output pixels `pixels` of one image, all `oc`
/// channels, into the image's `[oc, oh·ow]` output block at `out`. Copies
/// what the pixels read of `image` into this thread's B scratch, then runs
/// the engine's k-blocks over each run of pixels, B's rows read from the
/// copy at the taps' offsets `off`.
///
/// # Safety
/// The caller must own columns `pixels` of the `[oc, oh·ow]` block at `out`
/// exclusively, all of it inside the allocation `out` points into; `a`
/// must hold the weight's panels in `M`'s layout; and the dispatch layer
/// must have checked that `M` runs on this CPU.
#[allow(clippy::too_many_arguments)]
unsafe fn conv_pixels<M: Micro>(
    a: Operand<'_, M::E>,
    image: &[f32],
    g: &Conv2dGeom,
    layout: &conv::ImageCopy,
    off: &[usize],
    oc: usize,
    pixels: Range<usize>,
    out: *mut f32,
) where
    M::E: PackScratch,
{
    let (ckk, hw) = (off.len(), g.oh() * g.ow());
    M::E::with_scratch(|abuf, bbuf| {
        // `NR` elements past the planes, so that `NR` values from any
        // pixel's position plus any tap's offset lie inside the copy.
        let copy = scratch_prefix(bbuf, layout.len(g) + M::NR);
        let copied = layout.copy(g, image, &mut copy[..layout.len(g)], pixels.clone());
        M::E::counter().fetch_add((copied * std::mem::size_of::<M::E>()) as u64, Ordering::Relaxed);
        let copy = &*copy;
        for (run, at) in layout.runs(pixels) {
            for k0 in (0..ckk).step_by(KC) {
                let kb = KC.min(ckk - k0);
                let taps =
                    |jp: usize| Taps { data: copy, at: at + jp * M::NR, off: &off[k0..k0 + kb] };
                for i0 in (0..oc).step_by(MC) {
                    let mb = MC.min(oc - i0);
                    let (ap, _) = a.block(abuf, i0, mb, k0, kb, M::MR);
                    // SAFETY: the caller owns the run's columns of the
                    // block and vouches for `a` and `M`; `i0` steps by MC,
                    // a multiple of MR. Each tile reads B's rows at a
                    // pixel's copy position plus a tap's offset, and the
                    // copy is `NR` elements longer than any such sum, so
                    // every row lies inside it.
                    unsafe {
                        macro_kernel::<M, _>(
                            ap,
                            taps,
                            mb,
                            run.len(),
                            kb,
                            out,
                            hw,
                            i0,
                            run.start,
                            k0 > 0,
                        )
                    };
                }
            }
        }
    })
}

/// Floats of the widest micro-tile, `MR·NR` of the AVX-512 tier.
const TILE_FLOATS: usize = 8 * 16;

/// Conv2d input gradient: image `i` of `dx [imgs, c, h·w]` is the fold
/// (col2im) of `wᵀ [ckk, oc] · upᵢ [oc, oh·ow]`. The weight is packed once
/// for the call as the whole A operand; B's rows are read in place from
/// `up`'s planes. One task per image ([`dx_image`]). Overwrites `dx`.
pub(crate) fn conv_dx(
    pool: &ThreadPool,
    up: &[f32],
    w: &[f32],
    imgs: usize,
    oc: usize,
    g: &Conv2dGeom,
    dx: &mut [f32],
) {
    let (ckk, hw, img) = (g.c * g.kh * g.kw, g.oh() * g.ow(), g.c * g.h * g.w);
    debug_assert!(up.len() == imgs * oc * hw && w.len() == oc * ckk && dx.len() == imgs * img);
    if dx.is_empty() || oc == 0 {
        return empty_product(dx, false);
    }
    let parallel = imgs * oc * ckk * hw >= PAR_FLOPS && pool.threads() > 1;
    let (weight_t, layout) = (Src { data: w, ld: ckk, trans: true }, conv::ImageCopy::padded(g));
    with_micro!(kernels::selected(), bf16_enabled(), M => {
        const { assert!(M::MR * M::NR <= TILE_FLOATS) };
        with_whole_operand::<<M as Micro>::E, _>(pool, weight_t, ckk, oc, M::MR, |wt, pad| {
            with_tap_offsets(&layout, g, ckk, |off| {
                par_chunks_mut(pool, dx, if parallel { img } else { dx.len() }, |start, grads| {
                    for (j, grad) in grads.chunks_exact_mut(img).enumerate() {
                        let i = start / img + j;
                        // SAFETY: `wt` holds wᵀ's panels in `M`'s layout,
                        // packed just above on the tier dispatch chose.
                        unsafe { dx_image::<M>(wt, pad, &up[i * oc * hw..(i + 1) * oc * hw], g, &layout, off, grad) };
                    }
                })
            })
        })
    })
}

/// One image of a conv input gradient, `grad [c, h·w]`, from its output
/// gradient `up [oc, oh·ow]` and `wt`, wᵀ's whole-operand panels (`pad`
/// rows). Each micro-tile is `MR` taps × `NR` output pixels of `wᵀ · up`,
/// its B rows read in place from `up`'s planes (their bf16 copy in bf16
/// mode; a packed panel for a ragged last pixel tile), summed over `oc` at
/// the engine's k-blocks into a tile on the stack, then added straight into
/// this thread's padded image ([`Micro::scatter`]). Pixel tiles
/// run in order and the tap panels of each from the last to the first, so
/// every image pixel receives its contributions in output-pixel order, as
/// the lowering's fold adds them. The image is copied out of the padded one
/// at the end.
///
/// # Safety
/// `wt` must hold wᵀ's panels in `M`'s layout, and the dispatch layer must
/// have checked that `M` runs on this CPU.
#[allow(clippy::too_many_arguments)]
unsafe fn dx_image<M: Micro>(
    wt: &[M::E],
    pad: usize,
    up: &[f32],
    g: &Conv2dGeom,
    layout: &conv::ImageCopy,
    off: &[usize],
    grad: &mut [f32],
) where
    M::E: PackScratch,
{
    let (ckk, hw) = (off.len(), g.oh() * g.ow());
    let oc = up.len() / hw;
    M::E::with_scratch(|abuf, bbuf| {
        PADDED.with(|padded| {
            let mut padded = padded.borrow_mut();
            let padded = scratch_prefix(&mut padded, layout.len(g));
            padded.fill(0.0);
            let mut packed = 0;
            let planes: &[M::E] = match M::E::in_place(up) {
                Some(up) => up,
                None => {
                    let b = scratch_prefix(bbuf, up.len());
                    b.iter_mut().zip(up).for_each(|(d, &v)| *d = M::E::pack(v));
                    packed += b.len();
                    b
                }
            };
            let mut tile = [0.0f32; TILE_FLOATS];
            for p0 in (0..hw).step_by(M::NR) {
                let cols = M::NR.min(hw - p0);
                let (at_copy, stretches) = layout.stretches(p0, cols);
                // A whole tile reads its `NR` pixels in place; a ragged one
                // from `oc` k-steps packed `NR` wide.
                let (rows_of, at, ld) = if cols == M::NR {
                    (planes, p0, hw)
                } else {
                    let b = scratch_prefix(abuf, oc * M::NR);
                    Src { data: up, ld: hw, trans: true }.pack(b, p0, cols, 0, oc, M::NR);
                    packed += b.len();
                    (&*b, 0, M::NR)
                };
                for ip in (0..ckk.div_ceil(M::MR)).rev() {
                    let rows = M::MR.min(ckk - ip * M::MR);
                    for k0 in (0..oc).step_by(KC) {
                        let kb = KC.min(oc - k0);
                        let a = Panel(&wt[k0 * pad + ip * M::MR * kb..][..kb * M::MR]);
                        let b = Planes { data: rows_of, at: at + k0 * ld, ld };
                        // SAFETY: the stack tile holds `MR·NR` floats
                        // (asserted by the caller), rows `NR` apart; `a` is
                        // a whole `kb`-step micro-panel of wᵀ; B's rows are
                        // `oc` planes `ld` apart from which `NR` values at
                        // `at` lie inside `rows_of` (a whole tile's pixels,
                        // or the packed panel); `M` is the caller's.
                        unsafe { M::tile(kb, a, b, tile.as_mut_ptr(), M::NR, rows, cols, k0 > 0) };
                    }
                    let taps = &off[ip * M::MR..ip * M::MR + rows];
                    let last = layout.position(p0 + cols - 1) - layout.position(p0);
                    debug_assert!(taps.iter().all(|&o| o + at_copy + last < padded.len()));
                    let dst = padded.as_mut_ptr();
                    // SAFETY: the stack tile holds `rows` rows of `NR`; a
                    // tap's offset plus a pixel's position lies inside the
                    // padded copy, which this thread owns; `M` is the
                    // caller's.
                    unsafe {
                        M::scatter(&tile[..rows * M::NR], dst.add(at_copy), taps, cols, stretches)
                    };
                }
            }
            M::E::counter()
                .fetch_add((packed * std::mem::size_of::<M::E>()) as u64, Ordering::Relaxed);
            layout.copy_out(g, padded, grad);
        })
    })
}

/// Conv2d weight gradient `dw [oc, ckk] = up [oc, imgs·oh·ow] · Unfold(x)`,
/// computed as its transpose `Unfold(x)ᵀ · upᵀ`: taps are the tiles' rows,
/// read in place from copies of the images ([`Gather`]), and output
/// channels their columns, `up`'s planes packed a [`KC`] block of pixels at
/// a time. The reduction runs over every output pixel of the batch, so each
/// task computes one k-block's product over the whole output, every element
/// started from zero as the engine's tiles start it, into a `[ckk, oc]`
/// slot of its own; the slots are then added in block order and transposed
/// into `dw`. Those are the adds the serial engine makes, block after block,
/// so the bits are its bits at any thread count. Blocks run a wave at a
/// time, so the slots stay near [`SPLIT_FLOATS`]. Overwrites `dw`.
pub(crate) fn conv_dw(
    pool: &ThreadPool,
    x: &[f32],
    up: &[f32],
    imgs: usize,
    oc: usize,
    g: &Conv2dGeom,
    dw: &mut [f32],
) {
    let (ckk, k) = (g.c * g.kh * g.kw, imgs * g.oh() * g.ow());
    debug_assert!(x.len() == imgs * g.c * g.h * g.w && up.len() == oc * k);
    debug_assert_eq!(dw.len(), oc * ckk);
    if dw.is_empty() || k == 0 {
        return empty_product(dw, false);
    }
    let blocks = k.div_ceil(KC);
    let lanes = if oc * ckk * k >= PAR_FLOPS && blocks > 1 { pool.threads() } else { 1 };
    let wave = (SPLIT_FLOATS / (ckk * oc)).max(2 * lanes).min(blocks);
    let layout = conv::ImageCopy::padded(g);
    // Eight output channels or fewer fill the AVX2 tile's 8 columns but half
    // of the AVX-512 tile's 16; on an AVX-512 host the narrower tile ran the
    // ResNet's two such weight gradients in 0.7× the time. Every tier
    // computes the same bits.
    let kernel = match kernels::selected() {
        Kernel::Avx512 if oc <= 8 && kernels::supported(Kernel::Avx2) => Kernel::Avx2,
        k => k,
    };
    with_micro!(kernel, bf16_enabled(), M => {
        // Taps past the last, in the last tap panel, read the copies' first
        // plane: rows that are never stored.
        with_tap_offsets(&layout, g, ckk.next_multiple_of(M::MR), |off| {
            PARTIALS.with(|partials| {
                let mut partials = partials.borrow_mut();
                let slots = scratch_prefix(&mut partials, wave * ckk * oc);
                for first in (0..blocks).step_by(wave) {
                    let count = wave.min(blocks - first);
                    let base = OutPtr(slots.as_mut_ptr());
                    let task = |t: usize| {
                        let k0 = (first + t) * KC;
                        // SAFETY: slot `t` — `ckk·oc` elements at `t·ckk·oc`
                        // of `slots`, which holds `wave·ckk·oc` and `t <
                        // count <= wave` — is task t's alone; `M` is the
                        // tier dispatch chose.
                        unsafe {
                            let slot = base.get().add(t * ckk * oc);
                            dw_block::<M>(x, up, g, &layout, off, oc, k0..k.min(k0 + KC), slot)
                        }
                    };
                    if lanes > 1 {
                        pool.run(count, task);
                    } else {
                        (0..count).for_each(task);
                    }
                    for (t, slot) in slots.chunks_exact(ckk * oc).take(count).enumerate() {
                        for (q, row) in slot.chunks_exact(oc).enumerate() {
                            for (o, &v) in row.iter().enumerate() {
                                let d = &mut dw[o * ckk + q];
                                *d = if first + t == 0 { v } else { *d + v };
                            }
                        }
                    }
                }
            })
        })
    })
}

/// One k-block of a conv weight gradient, output pixels `ks` of the batch,
/// into `slot [ckk, oc]`. Copies what the block's pixels read of each of its
/// images into this thread's A scratch ([`conv::ImageCopy`]'s padded
/// planes, one image's copy after another), tables each pixel's position in
/// those copies, packs `up`'s channels over the block into its B scratch,
/// and runs the micro-tiles, A's scalars read from the copies at a tap's
/// offset plus a pixel's position.
///
/// # Safety
/// The caller must own the `ckk·oc` elements at `slot` exclusively; `off`
/// must hold `layout`'s offset of every tap, then zeros to a whole tap panel
/// of `M`; and the dispatch layer must have checked that `M` runs on this
/// CPU.
#[allow(clippy::too_many_arguments)]
unsafe fn dw_block<M: Micro>(
    x: &[f32],
    up: &[f32],
    g: &Conv2dGeom,
    layout: &conv::ImageCopy,
    off: &[usize],
    oc: usize,
    ks: Range<usize>,
    slot: *mut f32,
) where
    M::E: PackScratch,
{
    let (ckk, hw, img, per) = (g.c * g.kh * g.kw, g.oh() * g.ow(), g.c * g.h * g.w, layout.len(g));
    let (kb, images) = (ks.len(), ks.start / hw..(ks.end - 1) / hw + 1);
    M::E::with_scratch(|abuf, bbuf| {
        POSITIONS.with(|pos| {
            let copies = scratch_prefix(abuf, images.len() * per);
            let mut pos = pos.borrow_mut();
            let pos = scratch_prefix(&mut pos, kb);
            let (mut packed, mut kk) = (0, 0);
            for (j, i) in images.enumerate() {
                let pixels = ks.start.max(i * hw) - i * hw..ks.end.min((i + 1) * hw) - i * hw;
                let copy = &mut copies[j * per..(j + 1) * per];
                packed += layout.copy(g, &x[i * img..(i + 1) * img], copy, pixels.clone());
                for (run, at) in layout.runs(pixels) {
                    pos[kk..kk + run.len()]
                        .iter_mut()
                        .zip(j * per + at..)
                        .for_each(|(p, a)| *p = a);
                    kk += run.len();
                }
            }
            let bp = scratch_prefix(bbuf, oc.div_ceil(M::NR) * kb * M::NR);
            conv::pack_planes(bp, up, oc, hw, 0, oc, ks.start, kb, M::NR);
            packed += bp.len();
            M::E::counter()
                .fetch_add((packed * std::mem::size_of::<M::E>()) as u64, Ordering::Relaxed);
            let (copies, pos, bp) = (&*copies, &*pos, &*bp);
            for ip in 0..ckk.div_ceil(M::MR) {
                let taps = Gather { data: copies, off: &off[ip * M::MR..(ip + 1) * M::MR], pos };
                let rows = M::MR.min(ckk - ip * M::MR);
                for jp in 0..oc.div_ceil(M::NR) {
                    let channels = Panel(&bp[jp * kb * M::NR..][..kb * M::NR]);
                    let cols = M::NR.min(oc - jp * M::NR);
                    // SAFETY: the caller owns the `[ckk, oc]` slot, in which
                    // this tile's corner lies, and vouches for `M`; `taps`
                    // has `MR` offsets (`off` runs to a whole tap panel) and
                    // `kb` positions, and an offset plus a position lies
                    // inside the copies: a tap reads its pixel's copy at most
                    // `(kh − 1) / stride` rows and `(kw − 1) / stride`
                    // columns past the pixel's position, inside its plane;
                    // `channels` is a whole `kb`-step micro-panel.
                    unsafe {
                        let out = slot.add(ip * M::MR * oc + jp * M::NR);
                        M::tile(kb, taps, channels, out, oc, rows, cols, false)
                    };
                }
            }
        })
    })
}

/// Partial-product floats [`conv_dw`] keeps at once, 1 MiB.
const SPLIT_FLOATS: usize = 1 << 18;

/// Chooses (MC, NC) for this problem: start from the cache-friendly
/// defaults and halve the proportionally larger block until the tile grid
/// has at least `2·threads` cells (or blocks reach two micro-tiles), so
/// skinny shapes still occupy the whole pool. `mr`/`nr` are the selected
/// variant's tile extents (blocks stay micro-tile-aligned).
fn plan_blocks(m: usize, n: usize, threads: usize, mr: usize, nr: usize) -> (usize, usize) {
    let mut mc = MC.min(m.next_multiple_of(mr));
    let mut nc = NC.min(n.next_multiple_of(nr));
    while m.div_ceil(mc) * n.div_ceil(nc) < 2 * threads {
        let can_m = mc > 2 * mr;
        let can_n = nc > 2 * nr;
        if !can_m && !can_n {
            break;
        }
        if can_m && (!can_n || mc / mr >= nc / nr) {
            mc = (mc / 2).next_multiple_of(mr);
        } else {
            nc = (nc / 2).next_multiple_of(nr);
        }
    }
    (mc, nc)
}

/// The first `len` elements of a per-thread scratch vector, which grows on
/// demand and is never cleared: what is handed out holds whatever an
/// earlier call left there, and the pack loops overwrite all of it.
pub(crate) fn scratch_prefix<T: Copy + Default>(buf: &mut Vec<T>, len: usize) -> &mut [T] {
    if buf.len() < len {
        buf.resize(len, T::default());
    }
    &mut buf[..len]
}

/// [`Src::pack`]'s loop: the `rows×kb` block at `(r0, k0)` of a
/// `[rows, k]` matrix (stored `[k, rows]` when `trans`) into `w`-row
/// micro-panels, k-major within each panel, converting each element via
/// [`PackElem::pack`] (identity for f32, round-to-nearest-even for bf16).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn pack_dense<E: PackElem>(
    dst: &mut [E],
    a: &[f32],
    trans: bool,
    ld: usize,
    r0: usize,
    rows: usize,
    k0: usize,
    kb: usize,
    w: usize,
) {
    for (p, dst) in dst.chunks_exact_mut(kb * w).enumerate() {
        let p0 = r0 + p * w;
        let live = w.min(r0 + rows - p0);
        if trans {
            // Stored [k, rows]: each k-step is a contiguous converting copy.
            for kk in 0..kb {
                let src = &a[(k0 + kk) * ld + p0..][..live];
                for (d, &v) in dst[kk * w..kk * w + live].iter_mut().zip(src) {
                    *d = E::pack(v);
                }
            }
        } else {
            // Stored [rows, k]: gather each row's k-slice with stride w.
            for r in 0..live {
                let src = &a[(p0 + r) * ld + k0..][..kb];
                for (kk, &v) in src.iter().enumerate() {
                    dst[kk * w + r] = E::pack(v);
                }
            }
        }
        zero_tail(dst, live, kb, w);
    }
}

/// Zeroes rows `live..w` of every k-step of one `w`-row micro-panel: the
/// padding past an operand's last row.
#[inline]
pub(crate) fn zero_tail<E: PackElem>(panel: &mut [E], live: usize, kb: usize, w: usize) {
    if live < w {
        for kk in 0..kb {
            panel[kk * w + live..(kk + 1) * w].fill(E::default());
        }
    }
}

/// Runs the micro-tile over every tile of one (mb×nb) block — A packed,
/// B micro-panel `jp`'s rows from `b(jp)` — and stores into `out` (row
/// stride `ldc`, block origin `(i0, j0)`): `C += tile` when `acc`,
/// `C = tile` otherwise (the beta=1/beta=0 store variants — only the store
/// differs, the compute path is shared).
///
/// # Safety
/// The caller must own output rows `i0..i0+mb` × columns `j0..j0+nb` of the
/// `ldc`-stride matrix at `out` exclusively for the duration of the call,
/// all of them inside the allocation `out` points into; `apack` must hold
/// `⌈mb/MR⌉` micro-panels of `kb` k-steps in `M`'s layout and each `b(jp)`,
/// `jp < ⌈nb/NR⌉`, rows that meet [`kernels::Rows::row`]'s contract for
/// `kb` k-steps at `M::NR`; and `M` must be runnable on this CPU
/// (guaranteed by the dispatch layer).
#[allow(clippy::too_many_arguments)]
unsafe fn macro_kernel<M: Micro, B: kernels::Rows<M::E>>(
    apack: &[M::E],
    b: impl Fn(usize) -> B,
    mb: usize,
    nb: usize,
    kb: usize,
    out: *mut f32,
    ldc: usize,
    i0: usize,
    j0: usize,
    acc: bool,
) {
    debug_assert_eq!(apack.len(), mb.div_ceil(M::MR) * kb * M::MR, "A panels");
    debug_assert!(j0 + nb <= ldc, "column block outside the output row");
    for jp in 0..nb.div_ceil(M::NR) {
        let bp = b(jp);
        let cols = M::NR.min(nb - jp * M::NR);
        for ip in 0..mb.div_ceil(M::MR) {
            let ap = &apack[ip * kb * M::MR..(ip + 1) * kb * M::MR];
            let rows = M::MR.min(mb - ip * M::MR);
            // SAFETY: the `rows×cols` corner stored at this offset lies
            // inside the caller's `mb×nb` rectangle (`ip·MR + rows ≤ mb`,
            // `jp·NR + cols ≤ nb`), which the caller owns; the A panel is
            // `kb` k-steps long as sliced above, and B's rows are the
            // caller's to vouch for.
            M::tile(
                kb,
                Panel(ap),
                bp,
                out.add((i0 + ip * M::MR) * ldc + j0 + jp * M::NR),
                ldc,
                rows,
                cols,
                acc,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legw_parallel::with_pool;
    use legw_propcheck::prelude::*;
    use std::sync::Arc;

    /// Scalar reference: C[i,j] = Σ_l A[i,l]·B[l,j] with explicit layouts.
    fn naive(
        trans_a: bool,
        trans_b: bool,
        a: &[f32],
        b: &[f32],
        m: usize,
        k: usize,
        n: usize,
    ) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f64;
                for l in 0..k {
                    let av = if trans_a { a[l * m + i] } else { a[i * k + l] };
                    let bv = if trans_b { b[j * k + l] } else { b[l * n + j] };
                    acc += (av * bv) as f64;
                }
                out[i * n + j] = acc as f32;
            }
        }
        out
    }

    fn lcg(seed: u64, n: usize) -> Vec<f32> {
        let mut s = seed.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
        (0..n)
            .map(|_| {
                s = s.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
                ((s >> 33) as f32 / (1u64 << 31) as f32) - 1.0
            })
            .collect()
    }

    /// Runs `f` once per (supported kernel tier, packed element type):
    /// the modes a `PackedB` layout depends on.
    fn for_each_mode(mut f: impl FnMut()) {
        for tier in [Kernel::Scalar, Kernel::Avx2, Kernel::Avx512] {
            if kernels::supported(tier) {
                kernels::with_override(tier, || {
                    f();
                    with_bf16(&mut f);
                });
            }
        }
    }

    /// The packed-B leg: under the current tier and element type,
    /// `gemm_into_packed` over `pb` must reproduce `gemm_into` over the
    /// unpacked `b` bit for bit, from the same initial output.
    #[allow(clippy::too_many_arguments)]
    fn assert_packed_matches_unpacked(
        pool: &Arc<ThreadPool>,
        trans_a: bool,
        trans_b: bool,
        a: &[f32],
        b: &[f32],
        pb: &PackedB,
        [m, k, n]: [usize; 3],
        acc: bool,
    ) {
        // Poison a beta=0 output (it must be fully overwritten); start a
        // beta=1 output from values both sides share.
        let init = if acc { lcg(77 + (m * n) as u64, m * n) } else { vec![f32::NAN; m * n] };
        let mut want = init.clone();
        gemm_into(pool, trans_a, trans_b, a, b, m, k, n, &mut want, acc);
        let mut got = init;
        with_pool(pool, || gemm_into_packed(trans_a, a, pb, m, &mut got, acc));
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "packed B ({:?}, bf16 {}) ({trans_a},{trans_b}) acc={acc} threads={} \
                 m={m} k={k} n={n} idx={i}: {g} vs {w}",
                kernels::selected(),
                bf16_enabled(),
                pool.threads(),
            );
        }
    }

    /// Packs `b` on `pool` under the current mode.
    fn packed(pool: &Arc<ThreadPool>, trans_b: bool, b: &[f32], k: usize, n: usize) -> PackedB {
        let mut pb = PackedB::new(k, n);
        with_pool(pool, || pb.pack(trans_b, b));
        pb
    }

    fn check_case(
        pool: &Arc<ThreadPool>,
        trans_a: bool,
        trans_b: bool,
        m: usize,
        k: usize,
        n: usize,
    ) {
        let a = lcg(m as u64 * 31 + k as u64, m * k);
        let b = lcg(n as u64 * 17 + k as u64 + 1, k * n);
        let want = naive(trans_a, trans_b, &a, &b, m, k, n);
        // Poison the output: beta=0 must fully overwrite it.
        let mut got = vec![f32::NAN; m * n];
        gemm_into(pool, trans_a, trans_b, &a, &b, m, k, n, &mut got, false);
        for (i, (&g, &w)) in got.iter().zip(want.iter()).enumerate() {
            assert!(
                (g - w).abs() <= 1e-3 * (1.0 + w.abs()),
                "({trans_a},{trans_b}) m={m} k={k} n={n} idx={i}: {g} vs {w}"
            );
        }
        for_each_mode(|| {
            let pb = packed(pool, trans_b, &b, k, n);
            for acc in [false, true] {
                assert_packed_matches_unpacked(pool, trans_a, trans_b, &a, &b, &pb, [m, k, n], acc);
            }
        });
    }

    /// Block-boundary extents: 1, MR±1, MR, MC−1, MC, MC+1, and a couple of
    /// non-aligned in-between values.
    fn boundary_dims() -> Vec<usize> {
        vec![1, MR - 1, MR, MR + 1, 3 * MR + 5, MC - 1, MC, MC + 1]
    }

    #[test]
    fn boundary_sweep_all_variants_single_thread() {
        let pool = Arc::new(ThreadPool::new(1));
        for &m in &boundary_dims() {
            for &(k, n) in &[(KC - 1, MR + 1), (MR, MC + 1), (KC + 1, NR - 1)] {
                check_case(&pool, false, false, m, k, n);
                check_case(&pool, true, false, m, k, n);
                check_case(&pool, false, true, m, k, n);
            }
        }
    }

    #[test]
    fn boundary_sweep_all_variants_multi_thread() {
        let pool = Arc::new(ThreadPool::new(4));
        for &n in &boundary_dims() {
            for &(m, k) in &[(MC + 1, KC + 1), (2 * MC, MR - 1), (MR + 1, KC)] {
                check_case(&pool, false, false, m, k, n);
                check_case(&pool, true, false, m, k, n);
                check_case(&pool, false, true, m, k, n);
            }
        }
    }

    #[test]
    fn k_block_boundaries() {
        let pool = Arc::new(ThreadPool::new(2));
        for &k in &[1, MR, KC - 1, KC, KC + 1, 2 * KC + 3] {
            check_case(&pool, false, false, MR + 3, k, NR + 5);
            check_case(&pool, true, true, MR + 3, k, NR + 5);
        }
    }

    #[test]
    fn one_packed_b_serves_every_m_and_pool_size() {
        // The layout depends on (k, n, tier, element type) only: pack once
        // on one pool, then read it at three row counts on pools of four
        // sizes — serial and forked, default and shrunk blocks, both A
        // layouts, both store modes. k spans two k-blocks and n is past one
        // column block with a ragged last micro-panel, and B is large
        // enough for the pack itself to fork.
        let (k, n) = (KC + 3, NC + 5);
        let pools: Vec<Arc<ThreadPool>> = (1..=4).map(|t| Arc::new(ThreadPool::new(t))).collect();
        for trans_b in [false, true] {
            let b = lcg(41 + trans_b as u64, k * n);
            for_each_mode(|| {
                let pb = packed(&pools[2], trans_b, &b, k, n);
                for m in [1, MR + 1, MC + 1] {
                    for trans_a in [false, true] {
                        let a = lcg(43 + m as u64, m * k);
                        for pool in &pools {
                            for acc in [false, true] {
                                assert_packed_matches_unpacked(
                                    pool,
                                    trans_a,
                                    trans_b,
                                    &a,
                                    &b,
                                    &pb,
                                    [m, k, n],
                                    acc,
                                );
                            }
                        }
                    }
                }
            });
        }
    }

    #[test]
    fn repack_follows_new_values_and_new_modes() {
        // One holder, repacked in place with other values, then under every
        // other mode: each pack must fully replace the one before it.
        let pool = Arc::new(ThreadPool::new(2));
        let (m, k, n) = (MR + 1, KC + 1, NR + 3);
        let a = lcg(51, m * k);
        let mut pb = PackedB::new(k, n);
        for seed in [52, 53] {
            let b = lcg(seed, k * n);
            for_each_mode(|| {
                with_pool(&pool, || pb.pack(true, &b));
                assert_packed_matches_unpacked(&pool, false, true, &a, &b, &pb, [m, k, n], false);
            });
        }
    }

    #[test]
    fn packed_b_is_refused_under_another_mode() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let (m, k, n) = (3, 5, 7);
        let a = lcg(61, m * k);
        let b = lcg(62, k * n);
        let run = |pb: &PackedB| {
            let mut out = vec![0.0f32; m * n];
            catch_unwind(AssertUnwindSafe(|| gemm_into_packed(false, &a, pb, m, &mut out, false)))
        };
        kernels::with_override(Kernel::Scalar, || {
            // never packed
            assert!(run(&PackedB::new(k, n)).is_err(), "an unpacked PackedB must be refused");
            let mut pb = PackedB::new(k, n);
            pb.pack(false, &b);
            assert!(run(&pb).is_ok());
            // other element type, both directions
            assert!(with_bf16(|| run(&pb)).is_err(), "f32 panels under bf16 mode");
            with_bf16(|| pb.pack(false, &b));
            assert!(run(&pb).is_err(), "bf16 panels under f32 mode");
            assert!(with_bf16(|| run(&pb)).is_ok());
        });
        // other tier — even Scalar → AVX2, whose tiles have the same extents
        for other in [Kernel::Avx2, Kernel::Avx512] {
            if kernels::supported(other) {
                let mut pb = PackedB::new(k, n);
                kernels::with_override(Kernel::Scalar, || pb.pack(false, &b));
                assert!(
                    kernels::with_override(other, || run(&pb)).is_err(),
                    "scalar-tier panels under {other:?}"
                );
            }
        }
    }

    #[test]
    fn stale_scratch_does_not_leak_into_results() {
        // Scratch is sliced, not cleared: fill this thread's A and B scratch
        // to the brim with NaN from a full-block product, then run small
        // edge shapes whose panels are shorter than what is left behind and
        // end in padded rows/columns. Any element the pack loops failed to
        // overwrite would surface as NaN.
        let pool = Arc::new(ThreadPool::new(1));
        for_each_mode(|| {
            let nan_a = vec![f32::NAN; MC * KC];
            let nan_b = vec![f32::NAN; KC * NC];
            let mut sink = vec![0.0f32; MC * NC];
            gemm_into(&pool, false, false, &nan_a, &nan_b, MC, KC, NC, &mut sink, false);
            assert!(sink[0].is_nan(), "the poisoning product ran");
            for &(m, k, n) in &[(1, 1, 1), (MR + 1, 3, NR + 3), (3, KC - 1, 2 * NR + 1)] {
                let a = vec![1.0f32; m * k];
                let b = vec![0.5f32; k * n];
                for (ta, tb) in [(false, false), (true, false), (false, true), (true, true)] {
                    let mut got = vec![f32::NAN; m * n];
                    gemm_into(&pool, ta, tb, &a, &b, m, k, n, &mut got, false);
                    // k halves sum exactly in f32 (and in bf16 storage)
                    assert!(
                        got.iter().all(|&x| x == 0.5 * k as f32),
                        "({ta},{tb}) m={m} k={k} n={n}: {got:?}"
                    );
                    let pb = packed(&pool, tb, &b, k, n);
                    assert_packed_matches_unpacked(&pool, ta, tb, &a, &b, &pb, [m, k, n], false);
                }
            }
        });
    }

    #[test]
    fn plan_blocks_fans_out_skinny_shapes() {
        // The LSTM-gate shape [256, 256] @ [256, 512] must produce enough
        // tiles to occupy an 8-thread pool, whatever the tile extents.
        for &(mr, nr) in &[(MR, NR), (8usize, 16usize)] {
            let (mc, nc) = plan_blocks(256, 512, 8, mr, nr);
            assert!(256usize.div_ceil(mc) * 512usize.div_ceil(nc) >= 16);
            // Tiny problems can't be split below two micro-tiles per block.
            let (mc, nc) = plan_blocks(8, 8, 8, mr, nr);
            assert!(mc >= mr && nc >= nr);
        }
    }

    #[test]
    fn single_and_multi_thread_agree() {
        // One thread runs the serial tile loop with default blocks, four
        // threads run the 2-D grid with adaptively shrunk blocks; both must
        // match the reference on a parallel-sized problem.
        let (m, k, n) = (2 * MC + 5, KC + 9, NC + 3);
        let a = lcg(5, m * k);
        let b = lcg(6, k * n);
        let p1 = ThreadPool::new(1);
        let p4 = ThreadPool::new(4);
        let mut o1 = vec![0.0f32; m * n];
        let mut o4 = vec![0.0f32; m * n];
        gemm_into(&p1, false, false, &a, &b, m, k, n, &mut o1, false);
        gemm_into(&p4, false, false, &a, &b, m, k, n, &mut o4, false);
        let want = naive(false, false, &a, &b, m, k, n);
        for (got, w) in o1.iter().chain(o4.iter()).zip(want.iter().chain(want.iter())) {
            assert!((got - w).abs() <= 1e-3 * (1.0 + w.abs()));
        }
    }

    proptest! {
        #[test]
        fn prop_packed_matches_naive(
            mi in 0usize..8, ki in 0usize..8, ni in 0usize..8,
            trans_a in legw_propcheck::bool::ANY, trans_b in legw_propcheck::bool::ANY,
            threads in 1usize..5,
        ) {
            // sample each extent from the block-boundary set
            let dims = [1usize, MR - 1, MR, MR + 1, 2 * MR + 3, MC - 1, MC, MC + 1];
            let (m, k, n) = (dims[mi], dims[ki], dims[ni]);
            let pool = Arc::new(ThreadPool::new(threads));
            let a = lcg(1 + m as u64 + 7 * k as u64, m * k);
            let b = lcg(2 + n as u64 + 13 * k as u64, k * n);
            let want = naive(trans_a, trans_b, &a, &b, m, k, n);
            let mut got = vec![0.0f32; m * n];
            gemm_into(&pool, trans_a, trans_b, &a, &b, m, k, n, &mut got, false);
            for (g, w) in got.iter().zip(want.iter()) {
                prop_assert!((g - w).abs() <= 1e-3 * (1.0 + w.abs()), "{g} vs {w}");
            }
            for_each_mode(|| {
                let pb = packed(&pool, trans_b, &b, k, n);
                assert_packed_matches_unpacked(
                    &pool, trans_a, trans_b, &a, &b, &pb, [m, k, n], false,
                );
            });
        }

        #[test]
        fn prop_accumulate_equals_init_plus_product(
            mi in 0usize..8, ki in 0usize..8, ni in 0usize..8,
            threads in 1usize..5,
        ) {
            let dims = [1usize, MR - 1, MR, MR + 1, 2 * MR + 3, MC - 1, MC, MC + 1];
            let (m, k, n) = (dims[mi], dims[ki], dims[ni]);
            let pool = ThreadPool::new(threads);
            let a = lcg(3 + m as u64 + 7 * k as u64, m * k);
            let b = lcg(4 + n as u64 + 13 * k as u64, k * n);
            let init = lcg(5 + (m * n) as u64, m * n);
            let mut got = init.clone();
            gemm_into(&pool, false, false, &a, &b, m, k, n, &mut got, true);
            let prod = naive(false, false, &a, &b, m, k, n);
            for ((g, c0), p) in got.iter().zip(init.iter()).zip(prod.iter()) {
                let w = c0 + p;
                prop_assert!((g - w).abs() <= 1e-3 * (1.0 + w.abs()), "{g} vs {w}");
            }
        }
    }

    #[test]
    fn accumulate_spans_k_blocks() {
        // k > KC: the first k-block must respect beta=1 and later k-blocks
        // must not re-trigger an overwrite.
        let pool = Arc::new(ThreadPool::new(2));
        let (m, k, n) = (MR + 3, 2 * KC + 5, NR + 1);
        let a = lcg(21, m * k);
        let b = lcg(22, k * n);
        let init = lcg(23, m * n);
        let mut got = init.clone();
        gemm_into(&pool, false, false, &a, &b, m, k, n, &mut got, true);
        let prod = naive(false, false, &a, &b, m, k, n);
        for ((g, c0), p) in got.iter().zip(init.iter()).zip(prod.iter()) {
            let w = c0 + p;
            assert!((g - w).abs() <= 1e-3 * (1.0 + w.abs()), "{g} vs {w}");
        }
        // Same through pre-packed panels: three k-blocks of one PackedB,
        // the first of which must add, not overwrite.
        for_each_mode(|| {
            let pb = packed(&pool, false, &b, k, n);
            assert_packed_matches_unpacked(&pool, false, false, &a, &b, &pb, [m, k, n], true);
        });
    }

    #[test]
    fn empty_k_beta_semantics() {
        // k = 0: beta=0 zeroes C, beta=1 leaves C untouched.
        let pool = ThreadPool::new(1);
        let mut c = vec![7.0f32; 12];
        gemm_into(&pool, false, false, &[], &[], 3, 0, 4, &mut c, true);
        assert!(c.iter().all(|&x| x == 7.0));
        gemm_into(&pool, false, false, &[], &[], 3, 0, 4, &mut c, false);
        assert!(c.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn bf16_mode_equals_f32_on_prerounded_operands() {
        // The bf16 path's whole contract in one place: gemm_bf16(A, B)
        // must be bitwise gemm_f32(round(A), round(B)).
        let pool = ThreadPool::new(2);
        for &(m, k, n) in &[(MR + 3, KC + 1, NR + 5), (MC + 1, 2 * MR, MC - 1)] {
            let a = lcg(31 + m as u64, m * k);
            let b = lcg(32 + n as u64, k * n);
            let ar: Vec<f32> = a.iter().map(|&x| kernels::bf16::round_f32(x)).collect();
            let br: Vec<f32> = b.iter().map(|&x| kernels::bf16::round_f32(x)).collect();
            let mut got = vec![0.0f32; m * n];
            with_bf16(|| gemm_into(&pool, false, false, &a, &b, m, k, n, &mut got, false));
            let mut want = vec![0.0f32; m * n];
            gemm_into(&pool, false, false, &ar, &br, m, k, n, &mut want, false);
            for (g, w) in got.iter().zip(want.iter()) {
                assert_eq!(g.to_bits(), w.to_bits(), "m={m} k={k} n={n}");
            }
        }
    }

    #[test]
    fn bf16_scope_restores_mode() {
        assert!(!bf16_enabled());
        with_bf16(|| {
            assert!(bf16_enabled());
            with_bf16(|| assert!(bf16_enabled()));
            assert!(bf16_enabled());
        });
        assert!(!bf16_enabled());
    }
}
