//! The core tensor type: contiguous row-major `f32` storage with
//! copy-on-write sharing.

use crate::pool::Buffer;
use crate::shape::Shape;
use std::sync::Arc;

/// Tiles the vector `v` into every row of the row-major `[rows, v.len()]`
/// matrix `out` — the kernel behind [`Tensor::repeat_rows`].
pub fn repeat_rows_into(v: &[f32], rows: usize, out: &mut [f32]) {
    assert_eq!(out.len(), rows * v.len(), "repeat_rows_into: [{rows},{}] output", v.len());
    for row in out.chunks_exact_mut(v.len()) {
        row.copy_from_slice(v);
    }
}

/// Copies the row-major `[rows, width]` matrix `part` into columns
/// `off..off + width` of the `[rows, total]` matrix `out` — one operand of
/// [`Tensor::concat_cols`].
pub fn concat_cols_into(part: &[f32], rows: usize, width: usize, out: &mut [f32], total: usize, off: usize) {
    assert!(part.len() == rows * width && out.len() == rows * total && off + width <= total);
    for (src, dst) in part.chunks_exact(width).zip(out.chunks_exact_mut(total)) {
        dst[off..off + width].copy_from_slice(src);
    }
}

/// Copies columns `start..end` of the row-major `[rows, cols]` matrix `src`
/// into the `[rows, end - start]` matrix `out` — the kernel behind
/// [`Tensor::slice_cols`].
pub fn slice_cols_into(src: &[f32], rows: usize, cols: usize, start: usize, end: usize, out: &mut [f32]) {
    assert!(start < end && end <= cols, "column slice {start}..{end} out of {cols}");
    assert!(src.len() == rows * cols && out.len() == rows * (end - start));
    for (src, dst) in src.chunks_exact(cols).zip(out.chunks_exact_mut(end - start)) {
        dst.copy_from_slice(&src[start..end]);
    }
}

/// A dense, row-major `f32` tensor.
///
/// Cloning is O(1): the buffer is behind an [`Arc`] and only copied when a
/// shared tensor is mutated ([`Tensor::as_mut_slice`] uses `Arc::make_mut`).
/// This makes it cheap for the autograd tape to retain every intermediate
/// value of a forward pass.
///
/// Storage is a pooled `Buffer` rather than a bare `Vec<f32>`: when the last
/// reference drops, the allocation rejoins a thread-local recycling pool
/// (see [`crate::pool`]), so steady-state training loops stop paying the
/// allocator for every kernel output.
#[derive(Clone)]
pub struct Tensor {
    data: Arc<Buffer>,
    shape: Shape,
}

impl Tensor {
    // ---------------------------------------------------------------- ctors

    /// Builds a tensor from a flat row-major buffer.
    ///
    /// # Panics
    /// If `data.len()` does not equal the product of `dims`.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        assert_eq!(
            data.len(),
            shape.numel(),
            "buffer of {} elements does not fill shape {:?}",
            data.len(),
            shape
        );
        Self { data: Arc::new(Buffer::from_vec(data)), shape }
    }

    /// Builds a tensor directly from a pooled [`Buffer`] (kernel outputs).
    pub(crate) fn from_buffer(buf: Buffer, dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        assert_eq!(
            buf.len(),
            shape.numel(),
            "buffer of {} elements does not fill shape {:?}",
            buf.len(),
            shape
        );
        Self { data: Arc::new(buf), shape }
    }

    /// A tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let buf = Buffer::filled(shape.numel(), value);
        Self { data: Arc::new(buf), shape }
    }

    /// A tensor whose contents are unspecified (stale pool data or zeros),
    /// for a kernel that writes every element before reading any: it skips
    /// the memset [`Tensor::zeros`] pays.
    pub fn dirty(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        Self { data: Arc::new(Buffer::dirty(shape.numel())), shape }
    }

    /// All zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        Self::full(dims, 0.0)
    }

    /// All ones.
    pub fn ones(dims: &[usize]) -> Self {
        Self::full(dims, 1.0)
    }

    /// A zero tensor with the same shape as `self`.
    pub fn zeros_like(&self) -> Self {
        Self { data: Arc::new(Buffer::zeroed(self.numel())), shape: self.shape.clone() }
    }

    /// A 1-element tensor holding `value`.
    pub fn scalar(value: f32) -> Self {
        Self::from_vec(vec![value], &[1])
    }

    // ------------------------------------------------------------ accessors

    /// The shape's dimension extents.
    pub fn shape(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.shape.ndim()
    }

    /// Extent of dimension `i`.
    pub fn dim(&self, i: usize) -> usize {
        self.shape.dim(i)
    }

    /// Total element count.
    pub fn numel(&self) -> usize {
        self.shape.numel()
    }

    /// Read-only view of the flat buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat buffer, copying first if the buffer is
    /// shared (copy-on-write).
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        let buf: &mut Buffer = Arc::make_mut(&mut self.data);
        buf
    }

    /// The single value of a 1-element tensor.
    ///
    /// # Panics
    /// If the tensor has more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(self.numel(), 1, "item() on tensor of shape {:?}", self.shape);
        self.data[0]
    }

    /// Element at 2-D index `(r, c)`.
    pub fn at2(&self, r: usize, c: usize) -> f32 {
        assert_eq!(self.ndim(), 2, "at2 on {:?}", self.shape);
        let (rows, cols) = (self.dim(0), self.dim(1));
        assert!(r < rows && c < cols, "({r},{c}) out of bounds for {:?}", self.shape);
        self.data[r * cols + c]
    }

    // ------------------------------------------------------------- reshape

    /// Reinterprets the buffer under a new shape with the same element count.
    pub fn reshape(&self, dims: &[usize]) -> Tensor {
        let shape = Shape::new(dims);
        assert_eq!(
            shape.numel(),
            self.numel(),
            "cannot reshape {:?} ({} elems) to {:?} ({} elems)",
            self.shape,
            self.numel(),
            shape,
            shape.numel()
        );
        Tensor { data: Arc::clone(&self.data), shape }
    }

    /// Flattens to 1-D.
    pub fn flatten(&self) -> Tensor {
        self.reshape(&[self.numel()])
    }

    /// Extracts row `r` of a 2-D tensor as a `[cols]` tensor (copies).
    pub fn row(&self, r: usize) -> Tensor {
        assert_eq!(self.ndim(), 2);
        let cols = self.dim(1);
        let start = r * cols;
        Tensor::from_vec(self.data[start..start + cols].to_vec(), &[cols])
    }

    /// Copies rows `[start, end)` of a 2-D tensor into a new `[end-start, cols]` tensor.
    pub fn rows(&self, start: usize, end: usize) -> Tensor {
        assert_eq!(self.ndim(), 2);
        assert!(start <= end && end <= self.dim(0));
        let cols = self.dim(1);
        Tensor::from_vec(self.data[start * cols..end * cols].to_vec(), &[end - start, cols])
    }

    /// Tiles a 1-D `[n]` vector into a `[rows, n]` matrix (every row a copy
    /// of `v`). Used to broadcast a bias into a block that a GEMM then
    /// accumulates onto.
    pub fn repeat_rows(v: &Tensor, rows: usize) -> Tensor {
        assert_eq!(v.ndim(), 1, "repeat_rows expects a vector, got {:?}", v.shape);
        let n = v.dim(0);
        let mut out = Buffer::dirty(rows * n);
        repeat_rows_into(v.as_slice(), rows, &mut out);
        Tensor::from_buffer(out, &[rows, n])
    }

    /// Copies the index range `[start, end)` of the leading axis, for any
    /// rank ≥ 1 (the N-dimensional generalisation of [`Tensor::rows`]).
    pub fn slice_outer(&self, start: usize, end: usize) -> Tensor {
        assert!(self.ndim() >= 1);
        assert!(start <= end && end <= self.dim(0));
        let inner: usize = self.shape()[1..].iter().product();
        let mut dims = self.shape().to_vec();
        dims[0] = end - start;
        Tensor::from_vec(self.data[start * inner..end * inner].to_vec(), &dims)
    }

    /// Concatenates tensors along the existing leading axis; trailing
    /// dimensions must match. Inverse of slicing with [`Tensor::slice_outer`].
    pub fn concat_outer(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat of zero tensors");
        let tail = &parts[0].shape()[1..];
        let mut lead = 0;
        let mut data = Vec::with_capacity(parts.iter().map(|p| p.numel()).sum());
        for p in parts {
            assert_eq!(&p.shape()[1..], tail, "concat_outer trailing-shape mismatch");
            lead += p.dim(0);
            data.extend_from_slice(p.as_slice());
        }
        let mut dims = vec![lead];
        dims.extend_from_slice(tail);
        Tensor::from_vec(data, &dims)
    }

    /// Transposes a 2-D tensor (copies into a new buffer).
    pub fn transpose(&self) -> Tensor {
        assert_eq!(self.ndim(), 2, "transpose expects 2-D, got {:?}", self.shape);
        let (m, n) = (self.dim(0), self.dim(1));
        let src = self.as_slice();
        let mut out = Buffer::zeroed(m * n);
        // Simple blocked transpose for cache friendliness.
        const B: usize = 32;
        for ib in (0..m).step_by(B) {
            for jb in (0..n).step_by(B) {
                for i in ib..(ib + B).min(m) {
                    for j in jb..(jb + B).min(n) {
                        out[j * m + i] = src[i * n + j];
                    }
                }
            }
        }
        Tensor::from_buffer(out, &[n, m])
    }

    /// Concatenates 2-D tensors with equal row counts along the column axis.
    pub fn concat_cols(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty());
        let rows = parts[0].dim(0);
        let total_cols: usize = parts
            .iter()
            .map(|p| {
                assert_eq!(p.ndim(), 2, "concat_cols expects 2-D parts");
                assert_eq!(p.dim(0), rows, "concat_cols row mismatch");
                p.dim(1)
            })
            .sum();
        let mut out = vec![0.0f32; rows * total_cols];
        let mut col_off = 0;
        for p in parts {
            concat_cols_into(p.as_slice(), rows, p.dim(1), &mut out, total_cols, col_off);
            col_off += p.dim(1);
        }
        Tensor::from_vec(out, &[rows, total_cols])
    }

    /// Extracts columns `[start, end)` of a 2-D tensor.
    pub fn slice_cols(&self, start: usize, end: usize) -> Tensor {
        assert_eq!(self.ndim(), 2);
        let (rows, cols) = (self.dim(0), self.dim(1));
        assert!(start < end && end <= cols, "column slice {start}..{end} out of {cols}");
        let mut out = vec![0.0f32; rows * (end - start)];
        slice_cols_into(self.as_slice(), rows, cols, start, end, &mut out);
        Tensor::from_vec(out, &[rows, end - start])
    }
}

impl std::fmt::Debug for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        if self.numel() <= 16 {
            write!(f, " {:?}", self.as_slice())
        } else {
            write!(
                f,
                " [{:.4}, {:.4}, …, {:.4}]",
                self.data[0],
                self.data[1],
                self.data[self.numel() - 1]
            )
        }
    }
}

impl PartialEq for Tensor {
    fn eq(&self, other: &Self) -> bool {
        self.shape == other.shape && self.data == other.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cow_clone_is_cheap_and_isolated() {
        let mut a = Tensor::zeros(&[4, 4]);
        let b = a.clone();
        assert_eq!(Arc::strong_count(&a.data), 2, "a clone shares the buffer");
        a.as_mut_slice()[0] = 7.0;
        assert_eq!(a.as_slice()[0], 7.0);
        assert_eq!(b.as_slice()[0], 0.0, "clone must not observe mutation");
        assert_eq!(Arc::strong_count(&a.data), 1, "the write copied");
    }

    #[test]
    fn reshape_shares_buffer() {
        let a = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]);
        let b = a.reshape(&[3, 2]);
        assert_eq!(b.shape(), &[3, 2]);
        assert_eq!(b.as_slice(), a.as_slice());
    }

    #[test]
    #[should_panic(expected = "cannot reshape")]
    fn reshape_wrong_count_panics() {
        Tensor::zeros(&[2, 3]).reshape(&[4]);
    }

    #[test]
    fn transpose_round_trip() {
        let a = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[3, 4]);
        let t = a.transpose();
        assert_eq!(t.shape(), &[4, 3]);
        assert_eq!(t.at2(1, 2), a.at2(2, 1));
        let back = t.transpose();
        assert_eq!(back, a);
    }

    #[test]
    fn concat_and_slice_cols_inverse() {
        let a = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]);
        let b = Tensor::from_vec((10..14).map(|x| x as f32).collect(), &[2, 2]);
        let cat = Tensor::concat_cols(&[&a, &b]);
        assert_eq!(cat.shape(), &[2, 5]);
        assert_eq!(cat.slice_cols(0, 3), a);
        assert_eq!(cat.slice_cols(3, 5), b);
    }

    #[test]
    fn rows_extracts_block() {
        let a = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[4, 3]);
        let mid = a.rows(1, 3);
        assert_eq!(mid.shape(), &[2, 3]);
        assert_eq!(mid.as_slice(), &[3., 4., 5., 6., 7., 8.]);
    }

    #[test]
    fn repeat_rows_tiles_vector() {
        let v = Tensor::from_vec(vec![1., 2., 3.], &[3]);
        let m = Tensor::repeat_rows(&v, 4);
        assert_eq!(m.shape(), &[4, 3]);
        for r in 0..4 {
            assert_eq!(&m.as_slice()[r * 3..(r + 1) * 3], &[1., 2., 3.]);
        }
    }

    #[test]
    fn slice_outer_and_concat_outer_roundtrip() {
        let a = Tensor::from_vec((0..24).map(|x| x as f32).collect(), &[4, 2, 3]);
        let head = a.slice_outer(0, 1);
        let tail = a.slice_outer(1, 4);
        assert_eq!(head.shape(), &[1, 2, 3]);
        assert_eq!(tail.shape(), &[3, 2, 3]);
        assert_eq!(tail.as_slice()[0], 6.0);
        let back = Tensor::concat_outer(&[&head, &tail]);
        assert_eq!(back, a);
    }

    #[test]
    fn item_on_scalar() {
        assert_eq!(Tensor::scalar(3.5).item(), 3.5);
    }

    #[test]
    #[should_panic(expected = "item()")]
    fn item_on_multi_panics() {
        Tensor::zeros(&[2]).item();
    }
}
