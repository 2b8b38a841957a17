//! Runtime-dispatched SIMD microkernels.
//!
//! Every hot kernel in this crate — the packed GEMM micro-tile, the
//! `fast_tanh`/`fast_sigmoid` sweeps, and the fused LSTM gate row — used
//! to get its SIMD exclusively from
//! `-C target-cpu=native` auto-vectorisation, which a *shipped* binary
//! cannot assume: a portable build silently dropped every one of those
//! kernels to scalar. This module makes instruction-set selection a
//! **runtime decision made once per process**: explicit-intrinsics
//! variants for AVX-512F (16-wide), AVX2+FMA (8-wide), and the original
//! safe-Rust scalar loops as the universal fallback, chosen via
//! `is_x86_feature_detected!` the first time a kernel runs (or eagerly at
//! executor/engine init).
//!
//! ## One body per vector kernel
//!
//! The vector tile, the scatter of a tile into a padded image, the
//! `tanh`/`sigmoid` pipeline, the sweep and the gate row are each written
//! once, in `simd.rs`, generic over a `Lanes` trait (one register of `f32`
//! lanes: load, store, masked edge, add, mul, div, fmadd, min/max,
//! saturate). The tile is also written once over where it reads its
//! operands. Its A scalars (`Lhs`) come from a packed panel, or, in a conv
//! weight gradient, from the images' copies read in place at a tap's offset
//! plus a pixel's position. Its B rows (`Rows`) come from a packed panel,
//! from a conv forward's image copy read in place at a tap's offset, or, in
//! a conv input gradient, from the output gradient's planes as they are.
//! `avx2.rs` and `avx512.rs` hold only their `Lanes` impl (`V8`, `V16`) and
//! the `#[target_feature]` entry points that instantiate the generic bodies.
//! `scalar.rs` stays separate: it is the reference every tier is tested
//! against, and its gate row also finishes the columns past a vector row's
//! last register.
//!
//! ## Selection
//!
//! Priority, first match wins:
//!
//! 1. a thread-local [`with_override`] scope (tests and benches comparing
//!    variants in one process);
//! 2. an explicit [`force`] call (a program pinning a tier in code);
//! 3. the `LEGW_KERNEL=scalar|avx2|avx512` variable, read here and nowhere
//!    else — at [`init`] or lazily at first kernel use, so standalone
//!    `legw-tensor` users get the override without an executor;
//! 4. CPUID feature detection.
//!
//! A requested variant the CPU cannot run is never installed — it warns on
//! stderr and falls back to detection, because dispatching an AVX-512
//! kernel on a non-AVX-512 machine is undefined behaviour, not a perf bug.
//!
//! ## Why all variants produce bitwise-identical results
//!
//! The dispatch seam is only sound for this repo's determinism guarantees
//! (shard-equivalence, fused-vs-unfused, plan-replay bitwise suites)
//! because every variant performs the *same scalar arithmetic in the same
//! order* per output element:
//!
//! * **GEMM micro-tile**: the scalar tile accumulates `acc += a·b` with
//!   separate multiply and add roundings (rustc does not contract `a*b + c`
//!   into FMA), so the vector tiles use `mul` + `add` intrinsics — *not*
//!   FMA — and keep the k-loop sequential per element. Widening the tile
//!   from 8 to 16 columns (AVX-512) regroups which elements share a
//!   register, but each element's accumulation chain is untouched, so even
//!   the 16-wide tile is bitwise-equal to scalar.
//! * **activations**: `fast_tanh` is built on `f32::mul_add`, a true
//!   fused multiply-add (one rounding), so the vector versions use
//!   `fmadd` intrinsics and match exactly — including on portable scalar
//!   builds, where `mul_add` lowers to the correctly-rounded libm `fmaf`.
//!   Clamp/saturation use NaN-propagating min/max operand order and an
//!   ordered-quiet compare, matching the scalar semantics bit for bit.
//!
//! The equivalence matrix is enforced by
//! `crates/tensor/tests/kernel_dispatch.rs`.
//!
//! ## bf16 packed storage
//!
//! The micro-tile (`Micro`) is generic over the packed element, which is
//! what the bf16-storage GEMM path plugs into: panels (and a convolution's
//! image copy) are converted f32→bf16 (round-to-nearest-even) as they are
//! written and widened back to f32 (exact, a bit shift) inside the
//! micro-tile, with all accumulation in f32. Only the packed operands
//! change layout — operands, outputs, and the blocking machinery are
//! untouched. See [`bf16`] and `gemm.rs`.

use std::cell::Cell;
use std::sync::OnceLock;

pub mod bf16;
pub(crate) mod scalar;

#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2;
#[cfg(target_arch = "x86_64")]
pub(crate) mod avx512;
#[cfg(target_arch = "x86_64")]
mod simd;

/// One instruction-set tier. Ordering is meaningful: later variants are
/// wider.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Kernel {
    /// Safe-Rust scalar loops — runs everywhere, and is what every other
    /// variant must match bitwise.
    Scalar,
    /// AVX2 + FMA, 8-lane `f32` (FMA is required by the activation
    /// kernels; the GEMM tile itself only needs AVX2).
    Avx2,
    /// AVX-512F, 16-lane `f32` GEMM tile and activation sweeps.
    Avx512,
}

impl Kernel {
    /// Stable lower-case name (`scalar`/`avx2`/`avx512`) — the grammar of
    /// the `LEGW_KERNEL` variable, and what benches print.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Avx2 => "avx2",
            Kernel::Avx512 => "avx512",
        }
    }

    /// Parses a [`Kernel::name`] (ASCII case-insensitive).
    pub fn parse(s: &str) -> Option<Kernel> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(Kernel::Scalar),
            "avx2" => Some(Kernel::Avx2),
            "avx512" => Some(Kernel::Avx512),
            _ => None,
        }
    }
}

/// True when this CPU can execute `k`'s instruction set.
pub fn supported(k: Kernel) -> bool {
    match k {
        Kernel::Scalar => true,
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 => {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        }
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
        #[cfg(not(target_arch = "x86_64"))]
        _ => false,
    }
}

/// Widest supported variant: AVX-512 > AVX2+FMA > scalar.
fn detect() -> Kernel {
    if supported(Kernel::Avx512) {
        Kernel::Avx512
    } else if supported(Kernel::Avx2) {
        Kernel::Avx2
    } else {
        Kernel::Scalar
    }
}

/// Process-global selection, fixed at its first value (first-wins, like
/// `legw_parallel::set_default_threads`).
static SELECTED: OnceLock<Kernel> = OnceLock::new();

thread_local! {
    /// Test/bench-scoped override; see [`with_override`].
    static OVERRIDE: Cell<Option<Kernel>> = const { Cell::new(None) };
}

/// Lazy default: the `LEGW_KERNEL` environment override if valid and
/// runnable, CPUID detection otherwise. Warns on stderr for a value that
/// is set but unparsable or unsupported — a typo in a deploy script must
/// not silently change which kernels serve traffic.
fn default_kernel() -> Kernel {
    if let Ok(raw) = std::env::var("LEGW_KERNEL") {
        match Kernel::parse(&raw) {
            Some(k) if supported(k) => return k,
            Some(k) => eprintln!(
                "legw: LEGW_KERNEL={} requested but this CPU does not support it; \
                 falling back to runtime detection",
                k.name()
            ),
            None => eprintln!(
                "legw: ignoring LEGW_KERNEL={raw:?} (expected scalar/avx2/avx512); \
                 falling back to runtime detection"
            ),
        }
    }
    detect()
}

/// The kernel variant every dispatched entry point uses right now: the
/// thread-local [`with_override`] if one is active, else the process
/// selection (installing the default on first call).
///
/// Dispatched entry points read this **once at their own entry, on the
/// calling thread**, and carry the choice into any worker-pool closures —
/// so an override scope covers the whole call even though pool workers
/// never see the caller's thread-locals.
pub fn selected() -> Kernel {
    if let Some(k) = OVERRIDE.with(Cell::get) {
        return k;
    }
    *SELECTED.get_or_init(default_kernel)
}

/// Installs `k` as the process-wide selection. First-wins: returns `true`
/// when `k` is now the active selection (whether this call installed it or
/// it was already installed), `false` when the CPU cannot run `k` or a
/// *different* selection is already fixed. Called by `Executor::new` /
/// `InferEngine::new` so selection happens once at init rather than on a
/// hot path.
pub fn force(k: Kernel) -> bool {
    if !supported(k) {
        return false;
    }
    SELECTED.set(k).is_ok() || *SELECTED.get().expect("just checked") == k
}

/// Eagerly resolves the process selection (detection + `LEGW_KERNEL`).
/// Idempotent; exists so pool/engine init can pay the CPUID + env lookup
/// up front.
pub fn init() -> Kernel {
    *SELECTED.get_or_init(default_kernel)
}

/// Runs `f` with `k` as this thread's kernel selection, restoring the
/// previous override on exit. This is the test/bench hook that lets one
/// process compare variants; it panics if the CPU cannot run `k` (callers
/// gate on [`supported`]).
///
/// The override is thread-local: it covers dispatched entry points
/// *called on this thread* (which read it once and propagate it into
/// their worker closures), not kernels launched independently from other
/// threads.
pub fn with_override<R>(k: Kernel, f: impl FnOnce() -> R) -> R {
    assert!(supported(k), "kernel override {:?} not supported by this CPU", k);
    struct Restore(Option<Kernel>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(OVERRIDE.with(|c| c.replace(Some(k))));
    f()
}

// ------------------------------------------------------------------ traits

/// A packed-panel element: `f32` for the full-precision path, bf16 bits
/// (`u16`) for the reduced-storage path. Conversion happens once at pack
/// time ([`PackElem::pack`]); the micro-tile widens back to f32
/// ([`PackElem::unpack`], exact for bf16) and accumulates in f32.
pub trait PackElem: Copy + Send + Sync + Default + 'static {
    /// Converts one source f32 into packed storage.
    fn pack(x: f32) -> Self;
    /// Widens packed storage back to f32 (identity for f32, exact
    /// `<< 16` for bf16).
    fn unpack(self) -> f32;
}

impl PackElem for f32 {
    #[inline(always)]
    fn pack(x: f32) -> f32 {
        x
    }
    #[inline(always)]
    fn unpack(self) -> f32 {
        self
    }
}

/// bf16 storage as raw bits.
impl PackElem for u16 {
    #[inline(always)]
    fn pack(x: f32) -> u16 {
        bf16::round(x)
    }
    #[inline(always)]
    fn unpack(self) -> f32 {
        bf16::widen(self)
    }
}

/// Where a micro-tile reads its B operand: k-step `kk`'s `NR` values lie
/// contiguous at [`Rows::row`]. A packed micro-panel ([`Panel`]) and a
/// convolution's image copy read through per-tap offsets ([`Taps`]) are the
/// two sources; every tier's tile body is the same for both, and a panel is
/// the case `offset = kk·NR`.
///
/// # Safety
/// Implementors promise that `row` computes its pointer from the source
/// alone, so that the caller's bound on the source bounds the pointer.
pub(crate) unsafe trait Rows<E>: Copy {
    /// The first of k-step `kk`'s values, in a tile `nr` columns wide.
    ///
    /// # Safety
    /// `kk` lies below the `kb` the tile runs, and the `nr` elements from
    /// the returned pointer lie inside the source (each implementor states
    /// its bound).
    unsafe fn row(self, kk: usize, nr: usize) -> *const E;
}

/// One packed micro-panel: k-step `kk` at `kk·nr`. In bounds for `kk < kb`
/// when the panel holds `kb·nr` elements.
#[derive(Clone, Copy)]
pub(crate) struct Panel<'a, E>(pub &'a [E]);

// SAFETY: `row` offsets the panel's own pointer.
unsafe impl<E: Copy> Rows<E> for Panel<'_, E> {
    #[inline(always)]
    unsafe fn row(self, kk: usize, nr: usize) -> *const E {
        debug_assert!((kk + 1) * nr <= self.0.len(), "k-step {kk} past the panel");
        // SAFETY: the caller's contract puts `kk·nr .. + nr` inside the panel.
        unsafe { self.0.as_ptr().add(kk * nr) }
    }
}

/// A convolution's B rows read in place: k-step `kk` (tap `k0 + kk` of the
/// block) at `data[at + off[kk]..]`, where `data` is the image copy, `at`
/// the tile's first output pixel and `off` the block's slice of the tap
/// offset table (see `conv::ImageCopy`). In bounds for `kk < off.len()` when
/// `at + off[kk] + nr <= data.len()`.
#[derive(Clone, Copy)]
pub(crate) struct Taps<'a, E> {
    pub data: &'a [E],
    pub at: usize,
    pub off: &'a [usize],
}

// SAFETY: `row` offsets the copy's own pointer.
unsafe impl<E: Copy> Rows<E> for Taps<'_, E> {
    #[inline(always)]
    unsafe fn row(self, kk: usize, nr: usize) -> *const E {
        debug_assert!(kk < self.off.len(), "k-step {kk} past the tap block");
        // SAFETY: the caller's contract: `kk < off.len()`, and the row's
        // `nr` elements from `at + off[kk]` lie inside `data`.
        unsafe {
            let at = self.at + *self.off.get_unchecked(kk);
            debug_assert!(at + nr <= self.data.len(), "tap row past the image copy");
            self.data.as_ptr().add(at)
        }
    }
}

/// Where a micro-tile reads its A operand: `A[r, kk]` of the tile's `MR`
/// rows is [`Lhs::at`]. A packed micro-panel ([`Panel`]) and a convolution's
/// image copy read through per-tap offsets and per-pixel positions
/// ([`Gather`]) are the two sources; a panel is the case `kk·MR + r`.
///
/// # Safety
/// Implementors promise that `at` reads from the source alone, so that the
/// caller's bound on the source bounds the read.
pub(crate) unsafe trait Lhs<E>: Copy {
    /// `A[r, kk]`, in a tile `mr` rows high.
    ///
    /// # Safety
    /// `kk` lies below the `kb` the tile runs and `r` below `mr`, and the
    /// element lies inside the source (each implementor states its bound).
    unsafe fn at(self, kk: usize, r: usize, mr: usize) -> E;
}

// SAFETY: `at` indexes the panel's own pointer.
unsafe impl<E: Copy> Lhs<E> for Panel<'_, E> {
    #[inline(always)]
    unsafe fn at(self, kk: usize, r: usize, mr: usize) -> E {
        debug_assert!(kk * mr + r < self.0.len(), "k-step {kk} past the panel");
        // SAFETY: the caller's contract puts `kk·mr + r` inside the panel.
        unsafe { *self.0.as_ptr().add(kk * mr + r) }
    }
}

/// A convolution's A scalars read in place: `A[r, kk]` (tap `r` of the
/// tile, pixel `kk` of the k-block) at `data[off[r] + pos[kk]]`, where
/// `data` holds the image copies of the block, `off` the tile's slice of the
/// tap offset table and `pos` each pixel's position in the copies (see
/// `conv::ImageCopy`). In bounds for `r < off.len()` and `kk < pos.len()`
/// when every `off[r] + pos[kk] < data.len()`.
#[derive(Clone, Copy)]
pub(crate) struct Gather<'a, E> {
    pub data: &'a [E],
    pub off: &'a [usize],
    pub pos: &'a [usize],
}

// SAFETY: `at` indexes the copy's own pointer.
unsafe impl<E: Copy> Lhs<E> for Gather<'_, E> {
    #[inline(always)]
    unsafe fn at(self, kk: usize, r: usize, _mr: usize) -> E {
        debug_assert!(
            r < self.off.len() && kk < self.pos.len(),
            "tap {r} or pixel {kk} past the tables"
        );
        // SAFETY: the caller's contract: both indices lie inside their
        // tables, and their sum inside `data`.
        unsafe {
            let at = *self.off.as_ptr().add(r) + *self.pos.as_ptr().add(kk);
            debug_assert!(at < self.data.len(), "tap read past the image copies");
            *self.data.as_ptr().add(at)
        }
    }
}

/// B rows read in place from feature-map planes: k-step `kk` (channel `kk`
/// of the block) at `data[at + kk·ld..]`, where `ld` is the plane length and
/// `at` the tile's first pixel. In bounds for `kk < kb` when
/// `at + (kb − 1)·ld + nr <= data.len()`.
#[derive(Clone, Copy)]
pub(crate) struct Planes<'a, E> {
    pub data: &'a [E],
    pub at: usize,
    pub ld: usize,
}

// SAFETY: `row` offsets the planes' own pointer.
unsafe impl<E: Copy> Rows<E> for Planes<'_, E> {
    #[inline(always)]
    unsafe fn row(self, kk: usize, nr: usize) -> *const E {
        debug_assert!(self.at + kk * self.ld + nr <= self.data.len(), "plane row past the planes");
        // SAFETY: the caller's contract puts the row's `nr` elements inside
        // `data`.
        unsafe { self.data.as_ptr().add(self.at + kk * self.ld) }
    }
}

/// One GEMM register micro-tile variant: computes an `MR×NR` tile of
/// `A·B` from A's scalars and B's rows, and stores (or accumulates) the
/// `rows×cols` valid corner into the output.
///
/// Packed-panel layout contract (shared with `gemm.rs`'s pack loops):
/// `A[r, kk]` is `a.at(kk, r, MR)` ([`Lhs`]), which for a packed panel is
/// `ap[kk·MR + r]`; B's k-step `kk` is the `NR` values at `b.row(kk, NR)`
/// ([`Rows`]), which for a packed panel is `bp[kk·NR + c]`; edge panels are
/// zero-padded to full width, and A rows past `rows` and B lanes past
/// `cols` may hold anything — they only reach elements that are never
/// stored.
pub(crate) trait Micro {
    /// Packed element type of both operands.
    type E: PackElem;
    /// Tile rows.
    const MR: usize;
    /// Tile columns.
    const NR: usize;

    /// Computes the tile over `kb` k-steps and stores `rows×cols` of it at
    /// `out` (row stride `ldc`): `C += tile` when `acc`, `C = tile`
    /// otherwise.
    ///
    /// # Safety
    /// The caller must (a) own the `rows×cols` output region at `out`
    /// (`rows <= MR`, `cols <= NR`, rows `ldc >= cols` apart) exclusively,
    /// (b) only invoke a variant whose instruction set [`supported`] reports
    /// available — dispatch guarantees (b) — and (c) pass A scalars that
    /// meet [`Lhs::at`]'s contract for every `kk < kb`, `r < MR` and B rows
    /// that meet [`Rows::row`]'s for every `kk < kb` at `nr = NR`.
    // One flat call per micro-tile from the GEMM's innermost loop: the
    // eight scalars are the tile's whole description.
    #[allow(clippy::missing_safety_doc, clippy::too_many_arguments)]
    unsafe fn tile<A: Lhs<Self::E>, B: Rows<Self::E>>(
        kb: usize,
        a: A,
        b: B,
        out: *mut f32,
        ldc: usize,
        rows: usize,
        cols: usize,
        acc: bool,
    );

    /// Adds the first `cols` columns of an `off.len() × NR` tile (`tile`,
    /// rows `NR` apart) into `dst`: row `r` at `dst + off[r]`, cut into
    /// `s`'s stretches. Rows go from the last to the first, so a place two
    /// rows share receives the later row first.
    ///
    /// # Safety
    /// The caller must own, exclusively, every place a row's stretches name
    /// (see [`Stretches`]), all of them inside the allocation `dst` points
    /// into; `tile` must hold `off.len() · NR` floats and `off.len() <= MR`,
    /// `cols <= NR`; and the variant must run on this CPU.
    #[allow(clippy::missing_safety_doc)]
    unsafe fn scatter(tile: &[f32], dst: *mut f32, off: &[usize], cols: usize, s: Stretches);
}

/// How [`Micro::scatter`] cuts a tile row into runs of contiguous places:
/// columns `0..first` go to the row's place onwards, and each next `run`
/// columns `gap` places further on than contiguous. A tile of output pixels
/// added into a padded image copy is cut at each output row, whose copy rows
/// are `gap` places longer.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Stretches {
    pub first: usize,
    pub run: usize,
    pub gap: usize,
}

// ------------------------------------------------- dispatched entry points

/// In-place `fast_tanh` over a slice with the given variant. Bitwise-equal
/// to the scalar map for every variant.
///
/// # Panics
/// If this CPU cannot run `k` (see [`supported`]).
pub fn tanh_sweep(k: Kernel, v: &mut [f32]) {
    assert!(supported(k), "kernel {k:?} not supported by this CPU");
    match k {
        Kernel::Scalar => scalar::tanh_sweep(v),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `supported(Avx2)` above saw AVX2 and FMA, the features the
        // callee enables; it indexes only inside `v`.
        Kernel::Avx2 => unsafe { avx2::tanh_sweep(v) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `supported(Avx512)` above saw AVX-512F, the feature the
        // callee enables; it indexes only inside `v`.
        Kernel::Avx512 => unsafe { avx512::tanh_sweep(v) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => scalar::tanh_sweep(v),
    }
}

/// In-place `fast_sigmoid` over a slice with the given variant.
///
/// # Panics
/// If this CPU cannot run `k` (see [`supported`]).
pub fn sigmoid_sweep(k: Kernel, v: &mut [f32]) {
    assert!(supported(k), "kernel {k:?} not supported by this CPU");
    match k {
        Kernel::Scalar => scalar::sigmoid_sweep(v),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `supported(Avx2)` above saw AVX2 and FMA, the features the
        // callee enables; it indexes only inside `v`.
        Kernel::Avx2 => unsafe { avx2::sigmoid_sweep(v) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `supported(Avx512)` above saw AVX-512F, the feature the
        // callee enables; it indexes only inside `v`.
        Kernel::Avx512 => unsafe { avx512::sigmoid_sweep(v) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => scalar::sigmoid_sweep(v),
    }
}

/// One fused LSTM gate row: activates the `[i|f|ĝ|o]` pre-activation row
/// and produces the new cell state, its tanh, and the hidden state. All
/// variants are bitwise-equal to the scalar loop (mul/mul/add cell update,
/// no FMA contraction — matching the unfused tape ops). `k` is the
/// caller's [`selected`] variant, read once per cell.
#[allow(clippy::too_many_arguments)]
pub(crate) fn lstm_gate_row(
    k: Kernel,
    pa_r: &[f32],
    cp_r: &[f32],
    hid: usize,
    g_r: &mut [f32],
    c_r: &mut [f32],
    t_r: &mut [f32],
    h_r: &mut [f32],
) {
    assert!(pa_r.len() >= 4 * hid && g_r.len() >= 4 * hid, "gate rows shorter than 4·hid");
    assert!(
        cp_r.len().min(c_r.len()).min(t_r.len()).min(h_r.len()) >= hid,
        "state rows shorter than hid"
    );
    debug_assert!(supported(k));
    match k {
        Kernel::Scalar => scalar::lstm_gate_row(pa_r, cp_r, hid, 0, g_r, c_r, t_r, h_r),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `k` came from `selected()`, which yields only variants
        // `supported` confirmed, so AVX2 and FMA are present; the row
        // lengths the callee's raw loads and stores rely on are asserted
        // above.
        Kernel::Avx2 => unsafe { avx2::lstm_gate_row(pa_r, cp_r, hid, g_r, c_r, t_r, h_r) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as for `Avx2`, with AVX-512F the confirmed feature.
        Kernel::Avx512 => unsafe { avx512::lstm_gate_row(pa_r, cp_r, hid, g_r, c_r, t_r, h_r) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => scalar::lstm_gate_row(pa_r, cp_r, hid, 0, g_r, c_r, t_r, h_r),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_names() {
        for k in [Kernel::Scalar, Kernel::Avx2, Kernel::Avx512] {
            assert_eq!(Kernel::parse(k.name()), Some(k));
        }
        assert_eq!(Kernel::parse(" AVX2 "), Some(Kernel::Avx2));
        assert_eq!(Kernel::parse("sse9"), None);
    }

    #[test]
    fn scalar_always_supported_and_detect_is_supported() {
        assert!(supported(Kernel::Scalar));
        assert!(supported(detect()));
    }

    #[test]
    fn override_scopes_nest_and_restore() {
        let base = selected();
        with_override(Kernel::Scalar, || {
            assert_eq!(selected(), Kernel::Scalar);
            if supported(Kernel::Avx2) {
                with_override(Kernel::Avx2, || assert_eq!(selected(), Kernel::Avx2));
                assert_eq!(selected(), Kernel::Scalar);
            }
        });
        assert_eq!(selected(), base);
    }

    /// Each vector tier's micro-tile, called directly for every corner
    /// `rows×cols` of its tile, with and without `acc`, writes the corner
    /// bit for bit as the scalar tile does and leaves every other element —
    /// the `ldc − cols` gap of each row and the rows after the last —
    /// untouched.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn vector_tile_writes_exactly_its_corner() {
        fn check<E: PackElem, M: Micro<E = E>>(tier: Kernel) {
            const KB: usize = 5;
            const SENTINEL: f32 = -7.25;
            let (mr, nr) = (M::MR, M::NR);
            let ldc = nr + 3;
            let panel = |n: usize, seed: usize| -> Vec<E> {
                (0..n).map(|i| E::pack(((i * 7 + seed) % 13) as f32 * 0.37 - 2.1)).collect()
            };
            let (ap, bp) = (panel(KB * mr, 1), panel(KB * nr, 2));
            for rows in 1..=mr {
                for cols in 1..=nr {
                    for acc in [false, true] {
                        let in_corner = |i: usize| i / ldc < rows && i % ldc < cols;
                        let start: Vec<f32> = (0..(mr + 1) * ldc)
                            .map(|i| if in_corner(i) { i as f32 * 0.25 } else { SENTINEL })
                            .collect();
                        let (mut got, mut want) = (start.clone(), start);
                        // SAFETY: `tier` is supported (checked by the caller);
                        // the panels hold `KB` micro-panels; the corner lies
                        // inside `got`, rows `ldc >= cols` apart.
                        unsafe {
                            M::tile(
                                KB,
                                Panel(&ap),
                                Panel(&bp),
                                got.as_mut_ptr(),
                                ldc,
                                rows,
                                cols,
                                acc,
                            )
                        };
                        // The scalar tile is 8 columns wide: one call per
                        // 8-column block of the corner.
                        for c0 in (0..cols).step_by(scalar::TILE) {
                            let bp8: Vec<E> = (0..KB * scalar::TILE)
                                .map(|i| bp[(i / scalar::TILE) * nr + c0 + i % scalar::TILE])
                                .collect();
                            let w = (cols - c0).min(scalar::TILE);
                            // SAFETY: as above, for columns `c0..c0 + w` of
                            // the corner in `want`.
                            unsafe {
                                scalar::ScalarMicro::<E>::tile(
                                    KB,
                                    Panel(&ap),
                                    Panel(&bp8),
                                    want.as_mut_ptr().add(c0),
                                    ldc,
                                    rows,
                                    w,
                                    acc,
                                )
                            };
                        }
                        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                            let w = if in_corner(i) { *w } else { SENTINEL };
                            assert_eq!(
                                g.to_bits(),
                                w.to_bits(),
                                "{tier:?} {} {rows}x{cols} acc {acc}: element {i}",
                                std::any::type_name::<E>()
                            );
                        }
                    }
                }
            }
        }
        if supported(Kernel::Avx2) {
            check::<f32, avx2::Avx2Micro<f32>>(Kernel::Avx2);
            check::<u16, avx2::Avx2Micro<u16>>(Kernel::Avx2);
        }
        if supported(Kernel::Avx512) {
            check::<f32, avx512::Avx512Micro<f32>>(Kernel::Avx512);
            check::<u16, avx512::Avx512Micro<u16>>(Kernel::Avx512);
        }
    }
}
