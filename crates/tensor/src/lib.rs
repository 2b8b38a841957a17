//! # legw-tensor
//!
//! Dense, row-major `f32` tensors — the numeric substrate for the LEGW
//! reproduction stack. Everything the training experiments need is here:
//!
//! * [`Tensor`] — contiguous storage behind `Arc<Vec<f32>>` with
//!   copy-on-write semantics: cloning a tensor is O(1), the first in-place
//!   mutation of a shared buffer copies it. The autograd tape exploits this
//!   to record values without deep copies.
//! * NumPy-style [broadcasting](crate::broadcast_shapes) for elementwise
//!   binary ops, with fast paths for the shapes that dominate training
//!   (same-shape, `[m,n] ∘ [n]` bias rows, `[m,n] ∘ [m,1]` column factors).
//! * A packed, register-tiled GEMM engine (the `gemm` module) behind
//!   [`Tensor::matmul`] and the transpose variants backward passes need
//!   (`aᵀb`, `abᵀ`): MR×NR register tiles, pack-time transpose absorption,
//!   MC/KC/NC cache blocking with a 2-D parallel tile grid, and thread-local
//!   packing scratch reused across calls. Kernel outputs come from a
//!   recycling buffer pool, so steady-state training loops stop paying the
//!   allocator per call. The micro-tile (and the other hot kernels: the
//!   `matvec` dot, the activation sweeps, the fused LSTM gate row) is a
//!   runtime-dispatched SIMD variant — AVX-512F, AVX2+FMA, or scalar —
//!   selected once per process (see the [`kernels`] module), so portable
//!   builds keep their vector kernels; all variants are bitwise-equal. An
//!   opt-in bf16 packed-storage mode ([`with_bf16_gemm`]) halves packed
//!   panel bytes for frozen-weight serving, accumulating in f32. A B
//!   operand read by many calls (a weight) can be packed once into a
//!   [`PackedB`] and multiplied through [`gemm_into_packed`], bitwise-equal
//!   to [`gemm_into`].
//! * Axis [reductions](Tensor::sum_axis), softmax/log-softmax rows, argmax.
//! * [`im2col`]/[`col2im`] for convolution lowered onto matmul.
//! * Seeded random initialisers (uniform, Gaussian via Box–Muller) — the
//!   `rand` crate supplies the generator, distributions are implemented here.
//!
//! Parallelism comes from [`legw_parallel::global`]; kernels fall back to
//! serial loops below a size threshold so small tensors (like LSTM gate
//! slices) pay no synchronisation cost.
//!
//! ```
//! use legw_tensor::Tensor;
//! let a = Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], &[2, 3]);
//! let b = Tensor::from_vec(vec![1., 0., 0., 1., 1., 1.], &[3, 2]);
//! let c = a.matmul(&b);
//! assert_eq!(c.shape(), &[2, 2]);
//! assert_eq!(c.as_slice(), &[4., 5., 10., 11.]);
//! ```

mod conv;
pub mod fastmath;
mod gemm;
mod init;
pub mod kernels;
mod lstm_cell;
mod matmul;
mod ops;
pub mod pool;
mod reduce;
mod shape;
mod tensor;

pub use conv::{col2im, col2im_into, im2col, im2col_into, Conv2dGeom};
pub use gemm::{
    bf16_enabled, gemm_into_packed, pack_traffic, with_bf16 as with_bf16_gemm, PackTraffic, PackedB,
};
pub use lstm_cell::{
    lstm_cell_backward, lstm_cell_backward_into, lstm_cell_forward, lstm_cell_forward_into,
    LstmCellFwd,
};
pub use matmul::gemm_into;
pub use reduce::{col_sums_into, softmax_rows_into};
pub use shape::{broadcast_shapes, Shape};
pub use tensor::{concat_cols_into, repeat_rows_into, slice_cols_into, Tensor};

/// True when a GEMM with this inner dimension runs as a single k-block.
/// For such shapes `gemm_into(..., acc = true)` accumulates the product
/// directly into the output and is bitwise-identical to computing the
/// product into scratch and adding it afterwards: the engine computes the
/// same micro-tile values either way and each output element sees exactly
/// one `+=`. Multi-k-block shapes interleave partial sums in a different
/// order and must keep the scratch detour.
pub fn gemm_single_k_block(k: usize) -> bool {
    k <= gemm::KC
}

/// Work below this many elements runs serially; above it, kernels use the
/// global thread pool. Chosen so LSTM-cell-sized ops stay on one core.
pub(crate) const PAR_THRESHOLD: usize = 16 * 1024;

#[cfg(test)]
mod lib_tests {
    use super::*;

    #[test]
    fn readme_example_holds() {
        let a = Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], &[2, 3]);
        let b = Tensor::from_vec(vec![1., 0., 0., 1., 1., 1.], &[3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[4., 5., 10., 11.]);
    }
}
