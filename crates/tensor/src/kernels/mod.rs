//! Runtime-dispatched SIMD microkernels.
//!
//! Every hot kernel in this crate — the packed GEMM micro-tile, the
//! `matvec` dot product, the `fast_tanh`/`fast_sigmoid` sweeps, and the
//! fused LSTM gate row — used to get its SIMD exclusively from
//! `-C target-cpu=native` auto-vectorisation, which a *shipped* binary
//! cannot assume: a portable build silently dropped every one of those
//! kernels to scalar. This module makes instruction-set selection a
//! **runtime decision made once per process**: explicit-intrinsics
//! variants for AVX-512F (16-wide), AVX2+FMA (8-wide), and the original
//! safe-Rust scalar loops as the universal fallback, chosen via
//! `is_x86_feature_detected!` the first time a kernel runs (or eagerly at
//! executor/engine init).
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
//! * **dot** (`matvec`): the scalar kernel owes its value order to its 8
//!   independent accumulator lanes; the AVX2 variant maps those lanes onto
//!   one 256-bit register and reduces them in the same sequential lane
//!   order. AVX-512 *reuses the 256-bit dot* — a 16-lane dot would change
//!   the partial-sum grouping and break bitwise equality.
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
//! [`Micro`] is generic over the packed-panel element, which is what the
//! bf16-storage GEMM path plugs into: panels are converted f32→bf16
//! (round-to-nearest-even) at pack time and widened back to f32 (exact, a
//! bit shift) inside the micro-tile, with all accumulation in f32. Only
//! the packed panels change layout — operands, outputs, and the blocking
//! machinery are untouched. See [`bf16`] and `gemm.rs`.

use std::cell::Cell;
use std::sync::OnceLock;

pub mod bf16;
pub(crate) mod scalar;

#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2;
#[cfg(target_arch = "x86_64")]
pub(crate) mod avx512;

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

/// One GEMM register micro-tile variant: computes an `MR×NR` tile of
/// `A·B` from packed panels and stores (or accumulates) the `rows×cols`
/// valid corner into the output.
///
/// Packed-panel layout contract (shared with `gemm.rs`'s pack loops):
/// `ap[kk·MR + r]` is `A[r, kk]` of the current micro-panel, `bp[kk·NR + c]`
/// is `B[kk, c]`; edge panels are zero-padded to full width.
pub trait Micro {
    /// Packed element type of both panels.
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
    /// available — dispatch guarantees (b) — and (c) pass panels of at least
    /// `kb·MR` (`ap`) and `kb·NR` (`bp`) elements.
    // One flat call per micro-tile from the GEMM's innermost loop: the
    // eight scalars are the tile's whole description.
    #[allow(clippy::missing_safety_doc, clippy::too_many_arguments)]
    unsafe fn tile(
        kb: usize,
        ap: &[Self::E],
        bp: &[Self::E],
        out: *mut f32,
        ldc: usize,
        rows: usize,
        cols: usize,
        acc: bool,
    );
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

/// Dot product with the scalar kernel's exact 8-lane accumulation order.
/// AVX-512 deliberately routes to the 256-bit kernel (see module docs).
/// `k` is the caller's [`selected`] variant, read once per GEMV.
pub(crate) fn dot(k: Kernel, x: &[f32], y: &[f32]) -> f32 {
    assert!(y.len() >= x.len(), "dot: {} against {} elements", x.len(), y.len());
    debug_assert!(supported(k));
    match k {
        Kernel::Scalar => scalar::dot(x, y),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `k` came from `selected()`, which yields only variants
        // `supported` confirmed (`force`, `with_override` and
        // `default_kernel` each check), and every AVX-512F CPU has AVX2,
        // the feature the callee enables. `y` is at least as long as `x`
        // (asserted above), the bound its raw loads rely on.
        Kernel::Avx2 | Kernel::Avx512 => unsafe { avx2::dot(x, y) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => scalar::dot(x, y),
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
        Kernel::Scalar => scalar::lstm_gate_row(pa_r, cp_r, hid, g_r, c_r, t_r, h_r),
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
        _ => scalar::lstm_gate_row(pa_r, cp_r, hid, g_r, c_r, t_r, h_r),
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
}
