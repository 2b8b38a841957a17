//! Packed, register-tiled GEMM engine.
//!
//! One kernel serves all four matmul entry points (`matmul`, `t_matmul`,
//! `matmul_t`, `matvec`) and the im2col conv path. The structure is the
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
//!   the LSTM-gate and im2col shapes large-batch training produces — still
//!   fan out over every worker instead of leaving threads idle the way the
//!   old row-chunk decomposition did.
//! * **Scratch reuse** — the per-call packing buffers are thread-local (one
//!   pair per packed element type), grow to `MC·KC` / `KC·NC` once and are
//!   then sliced, never cleared; a [`PackedB`] keeps its allocation across
//!   repacks; and outputs come from the [`crate::pool`] recycler, so the
//!   steady-state training loop performs no per-call heap allocation here.

use crate::kernels::{self, Kernel, Micro, PackElem};
use crate::pool::Buffer;
use legw_parallel::{current, par_chunks_mut, par_tiles_2d, ThreadPool};
use std::cell::{Cell, RefCell};
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
    /// once and is then reused by every GEMM call on this thread.
    static SCRATCH_F32: RefCell<(Vec<f32>, Vec<f32>)> = const { RefCell::new((Vec::new(), Vec::new())) };
    /// bf16-mode packing scratch (bf16 bit patterns).
    static SCRATCH_BF16: RefCell<(Vec<u16>, Vec<u16>)> = const { RefCell::new((Vec::new(), Vec::new())) };
    /// Whether GEMMs issued from this thread pack panels as bf16.
    static BF16_MODE: Cell<bool> = const { Cell::new(false) };
}

/// Bytes written into f32 packed panels, process-wide.
static PACKED_F32_BYTES: AtomicU64 = AtomicU64::new(0);
/// Bytes written into bf16 packed panels, process-wide.
static PACKED_BF16_BYTES: AtomicU64 = AtomicU64::new(0);

/// Cumulative packed-panel traffic (process-wide, monotonic). The bf16
/// serving mode's "half the packed weight bytes" claim is measured against
/// these counters; both count bytes *written to pack buffers*, so for one
/// shape the bf16 number is exactly half the f32 number.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PackTraffic {
    /// Bytes packed by f32-mode GEMMs.
    pub f32_bytes: u64,
    /// Bytes packed by bf16-mode GEMMs.
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
/// happens once per packed element, accumulation stays f32, and `matvec`
/// (which packs nothing) is unaffected. See `kernels::bf16`.
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
    fn counter() -> &'static AtomicU64;
    /// The vector of `p` that holds panels of this element type.
    fn panels(p: &PackedB) -> &Vec<Self>;
    fn panels_mut(p: &mut PackedB) -> &mut Vec<Self>;
}

impl PackScratch for f32 {
    fn with_scratch<R>(f: impl FnOnce(&mut Vec<f32>, &mut Vec<f32>) -> R) -> R {
        SCRATCH_F32.with(|s| {
            let (a, b) = &mut *s.borrow_mut();
            f(a, b)
        })
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
}

impl PackScratch for u16 {
    fn with_scratch<R>(f: impl FnOnce(&mut Vec<u16>, &mut Vec<u16>) -> R) -> R {
        SCRATCH_BF16.with(|s| {
            let (a, b) = &mut *s.borrow_mut();
            f(a, b)
        })
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
    with_micro!(kernels::selected(), bf16_enabled(), M => {
        let b = BOperand::Raw { b, trans: trans_b };
        gemm_blocked::<M>(pool, trans_a, a, b, m, k, n, out, acc)
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
        let n_pad = n.next_multiple_of(M::NR);
        let buf = M::E::panels_mut(self);
        // A no-op once the layout is settled: every element is overwritten
        // below, so only growth (first pack, or a new tier) fills.
        buf.resize(k * n_pad, M::E::default());
        let ldb = if trans_b { k } else { n };
        // Micro-panels per task: all of them for a small operand, about two
        // tasks per lane for one worth forking over.
        let tasks = if k * n >= crate::PAR_THRESHOLD { 2 * pool.threads() } else { 1 };
        let group = (n_pad / M::NR).div_ceil(tasks).max(1);
        for k0 in (0..k).step_by(KC) {
            let kb = KC.min(k - k0);
            let block = &mut buf[k0 * n_pad..(k0 + kb) * n_pad];
            par_chunks_mut(pool, block, group * kb * M::NR, |start, chunk| {
                // Chunks are whole micro-panels of `kb·NR` elements each.
                let j0 = start / kb;
                let nb = (chunk.len() / kb).min(n - j0);
                pack_b::<M::E>(chunk, b, trans_b, ldb, k0, kb, j0, nb, M::NR);
            });
        }
        M::E::counter().fetch_add(std::mem::size_of_val(&buf[..]) as u64, Ordering::Relaxed);
    }
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
        gemm_blocked::<M>(&current(), trans_a, a, BOperand::Packed(panels), m, k, n, out, acc)
    })
}

/// Where the blocked engine gets B's micro-panels from.
#[derive(Clone, Copy)]
enum BOperand<'a, E> {
    /// An unpacked operand (`[k, n]`, or `[n, k]` when `trans`): every tile
    /// packs the block it needs into its thread's scratch.
    Raw { b: &'a [f32], trans: bool },
    /// The panels of a [`PackedB`], shared read-only by every tile.
    Packed(&'a [E]),
}

/// The blocked engine, monomorphised per micro-tile variant. The loop
/// structure (and, for the scalar f32 instantiation, every arithmetic
/// step) is identical to the pre-dispatch engine.
#[allow(clippy::too_many_arguments)]
fn gemm_blocked<M: Micro>(
    pool: &ThreadPool,
    trans_a: bool,
    a: &[f32],
    b: BOperand<'_, M::E>,
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
    acc: bool,
) where
    M::E: PackScratch,
{
    let lda = if trans_a { m } else { k };
    let n_pad = n.next_multiple_of(M::NR);
    if let BOperand::Packed(p) = b {
        // One `kb × n_pad` block per k-slice: Σ kb · n_pad.
        debug_assert_eq!(p.len(), k * n_pad, "PackedB panel length");
    }

    let parallel = m * n * k >= PAR_FLOPS && pool.threads() > 1;
    let (mc, nc) =
        if parallel { plan_blocks(m, n, pool.threads(), M::MR, M::NR) } else { (MC, NC) };

    let base = OutPtr(out.as_mut_ptr());
    let tile = |ti: usize, tj: usize| {
        let i0 = ti * mc;
        let mb = mc.min(m - i0);
        let j0 = tj * nc;
        let nb = nc.min(n - j0);
        // Column tiles start on a micro-panel boundary (`nc` is a multiple
        // of NR), which is what lets a tile address whole panels of a
        // `PackedB`.
        debug_assert_eq!(j0 % M::NR, 0, "column tile off the micro-panel grid");
        M::E::with_scratch(|abuf, bbuf| {
            for k0 in (0..k).step_by(KC) {
                let kb = KC.min(k - k0);
                let ap = scratch_prefix(abuf, mb.div_ceil(M::MR) * kb * M::MR);
                pack_a::<M::E>(ap, a, trans_a, lda, i0, mb, k0, kb, M::MR);
                let b_len = nb.div_ceil(M::NR) * kb * M::NR;
                let (bp, packed_here): (&[M::E], usize) = match b {
                    BOperand::Raw { b, trans } => {
                        let ldb = if trans { k } else { n };
                        let bp = scratch_prefix(bbuf, b_len);
                        pack_b::<M::E>(bp, b, trans, ldb, k0, kb, j0, nb, M::NR);
                        (&*bp, ap.len() + b_len)
                    }
                    // Block `k0` starts at `k0 · n_pad`; inside it the
                    // micro-panel of column `j0` starts at `(j0 / NR) · kb · NR`.
                    BOperand::Packed(p) => (&p[k0 * n_pad + j0 * kb..][..b_len], ap.len()),
                };
                M::E::counter().fetch_add(
                    (packed_here * std::mem::size_of::<M::E>()) as u64,
                    Ordering::Relaxed,
                );
                // Only the first k-block of a beta=0 GEMM overwrites; later
                // k-blocks always accumulate partial sums.
                let acc_block = acc || k0 > 0;
                // SAFETY: this (ti, tj) task is the only one that writes
                // output rows i0..i0+mb × columns j0..j0+nb — the tile grid
                // partitions `out`, which has `m·n` elements (asserted by
                // the entry points) and stays mutably borrowed until every
                // tile has run; `ap` / `bp` hold the `mb×kb` / `kb×nb`
                // blocks in micro-panel layout (packed just above, or a
                // `PackedB` whose tier and element type the entry point
                // checked against `M`); and the dispatch layer only selects
                // variants this CPU supports.
                unsafe {
                    macro_kernel::<M>(ap, bp, mb, nb, kb, base.get(), n, i0, j0, acc_block)
                };
            }
        });
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
fn scratch_prefix<E: PackElem>(buf: &mut Vec<E>, len: usize) -> &mut [E] {
    if buf.len() < len {
        buf.resize(len, E::default());
    }
    &mut buf[..len]
}

/// Packs the `mb×kb` block of A starting at `(i0, k0)` into `mr`-row
/// micro-panels, k-major within each panel, converting each element via
/// [`PackElem::pack`] (identity for f32, round-to-nearest-even for bf16).
/// `dst` is exactly the panels' length and every element of it is written:
/// rows past `mb` in the last panel are zeroed so the microkernel needs no
/// M-edge handling.
#[allow(clippy::too_many_arguments)]
fn pack_a<E: PackElem>(
    dst: &mut [E],
    a: &[f32],
    trans: bool,
    lda: usize,
    i0: usize,
    mb: usize,
    k0: usize,
    kb: usize,
    mr: usize,
) {
    debug_assert_eq!(dst.len(), mb.div_ceil(mr) * kb * mr, "packed A length");
    for (p, dst) in dst.chunks_exact_mut(kb * mr).enumerate() {
        let r0 = i0 + p * mr;
        let rows = mr.min(i0 + mb - r0);
        if trans {
            // A stored [k, m]: row kk of the source is already contiguous
            // in i, so each k-step is a straight converting copy.
            for kk in 0..kb {
                let src = &a[(k0 + kk) * lda + r0..(k0 + kk) * lda + r0 + rows];
                for (d, &v) in dst[kk * mr..kk * mr + rows].iter_mut().zip(src) {
                    *d = E::pack(v);
                }
            }
        } else {
            // A stored [m, k]: gather each row's k-slice with stride mr.
            for r in 0..rows {
                let src = &a[(r0 + r) * lda + k0..][..kb];
                for (kk, &v) in src.iter().enumerate() {
                    dst[kk * mr + r] = E::pack(v);
                }
            }
        }
        if rows < mr {
            for kk in 0..kb {
                dst[kk * mr + rows..(kk + 1) * mr].fill(E::default());
            }
        }
    }
}

/// Packs the `kb×nb` block of B starting at `(k0, j0)` into `nr`-column
/// micro-panels, k-major within each panel, converting via
/// [`PackElem::pack`]. `dst` is exactly the panels' length and every
/// element of it is written: columns past `nb` in the last panel are
/// zeroed. The one pack loop behind both the per-tile scratch and
/// [`PackedB`].
#[allow(clippy::too_many_arguments)]
fn pack_b<E: PackElem>(
    dst: &mut [E],
    b: &[f32],
    trans: bool,
    ldb: usize,
    k0: usize,
    kb: usize,
    j0: usize,
    nb: usize,
    nr: usize,
) {
    debug_assert_eq!(dst.len(), nb.div_ceil(nr) * kb * nr, "packed B length");
    for (p, dst) in dst.chunks_exact_mut(kb * nr).enumerate() {
        let c0 = j0 + p * nr;
        let cols = nr.min(j0 + nb - c0);
        if trans {
            // B stored [n, k]: gather each column's k-slice with stride nr.
            for c in 0..cols {
                let src = &b[(c0 + c) * ldb + k0..][..kb];
                for (kk, &v) in src.iter().enumerate() {
                    dst[kk * nr + c] = E::pack(v);
                }
            }
        } else {
            // B stored [k, n]: each k-step is a contiguous converting copy.
            for kk in 0..kb {
                let src = &b[(k0 + kk) * ldb + c0..][..cols];
                for (d, &v) in dst[kk * nr..kk * nr + cols].iter_mut().zip(src) {
                    *d = E::pack(v);
                }
            }
        }
        if cols < nr {
            for kk in 0..kb {
                dst[kk * nr + cols..(kk + 1) * nr].fill(E::default());
            }
        }
    }
}

/// Runs the micro-tile over every tile of one packed (mb×nb) block and
/// stores into `out` (row stride `ldc`, block origin `(i0, j0)`):
/// `C += tile` when `acc`, `C = tile` otherwise (the beta=1/beta=0 store
/// variants — only the store differs, the compute path is shared).
///
/// # Safety
/// The caller must own output rows `i0..i0+mb` × columns `j0..j0+nb` of the
/// `ldc`-stride matrix at `out` exclusively for the duration of the call,
/// all of them inside the allocation `out` points into; `apack` / `bpack`
/// must hold `⌈mb/MR⌉` / `⌈nb/NR⌉` micro-panels of `kb` k-steps in `M`'s
/// layout; and `M` must be runnable on this CPU (guaranteed by the
/// dispatch layer).
#[allow(clippy::too_many_arguments)]
unsafe fn macro_kernel<M: Micro>(
    apack: &[M::E],
    bpack: &[M::E],
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
    debug_assert_eq!(bpack.len(), nb.div_ceil(M::NR) * kb * M::NR, "B panels");
    debug_assert!(j0 + nb <= ldc, "column block outside the output row");
    for jp in 0..nb.div_ceil(M::NR) {
        let bp = &bpack[jp * kb * M::NR..(jp + 1) * kb * M::NR];
        let cols = M::NR.min(nb - jp * M::NR);
        for ip in 0..mb.div_ceil(M::MR) {
            let ap = &apack[ip * kb * M::MR..(ip + 1) * kb * M::MR];
            let rows = M::MR.min(mb - ip * M::MR);
            // SAFETY: the `rows×cols` corner stored at this offset lies
            // inside the caller's `mb×nb` rectangle (`ip·MR + rows ≤ mb`,
            // `jp·NR + cols ≤ nb`), which the caller owns; the panels are
            // `kb` k-steps long as sliced above.
            M::tile(
                kb,
                ap,
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

// --------------------------------------------------------------- mat × vec

/// Dedicated matrix–vector kernel: `out[i] = a[i,·] · v`.
///
/// A GEMM with n = 1 wastes the whole blocking machinery (each packed B
/// "panel" is one column), so `matvec` gets a straight multi-accumulator
/// dot product over contiguous rows instead, parallelised over row chunks.
/// The dot kernel is runtime-dispatched (scalar or the 256-bit AVX2
/// variant — see `kernels`), read once here on the calling thread.
pub(crate) fn gemv(pool: &ThreadPool, a: &[f32], v: &[f32], m: usize, k: usize, out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "gemv A size");
    assert_eq!(v.len(), k, "gemv x size");
    assert_eq!(out.len(), m, "gemv y size");
    let kern = kernels::selected();
    let rows_per_chunk = if m * k < PAR_FLOPS || pool.threads() == 1 {
        m.max(1)
    } else {
        m.div_ceil(pool.threads() * 2).max(1)
    };
    par_chunks_mut(pool, out, rows_per_chunk, |row0, chunk| {
        for (r, o) in chunk.iter_mut().enumerate() {
            *o = kernels::dot(kern, &a[(row0 + r) * k..(row0 + r + 1) * k], v);
        }
    });
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
                assert_packed_matches_unpacked(
                    pool, trans_a, trans_b, &a, &b, &pb, [m, k, n], acc,
                );
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
        let pools: Vec<Arc<ThreadPool>> =
            (1..=4).map(|t| Arc::new(ThreadPool::new(t))).collect();
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
                                    pool, trans_a, trans_b, &a, &b, &pb, [m, k, n], acc,
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
    fn gemv_matches_naive() {
        let pool = ThreadPool::new(3);
        for &(m, k) in &[(1, 1), (MR, KC), (MC + 7, 93), (257, 1025)] {
            let a = lcg(9 + m as u64, m * k);
            let v = lcg(11 + k as u64, k);
            let mut got = vec![0.0f32; m];
            gemv(&pool, &a, &v, m, k, &mut got);
            for i in 0..m {
                let want: f64 =
                    (0..k).map(|l| (a[i * k + l] * v[l]) as f64).sum();
                assert!(
                    (got[i] - want as f32).abs() <= 1e-3 * (1.0 + want.abs() as f32),
                    "m={m} k={k} row {i}: {} vs {want}",
                    got[i]
                );
            }
        }
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
