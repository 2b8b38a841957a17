//! Shape arithmetic: dimension products and strides.

/// A tensor shape: the extent of each dimension, outermost first.
///
/// Stored inline for up to four dimensions (all models in this repo are
/// ≤4-D: `[N,C,H,W]` images are the deepest), falling back would be easy but
/// is not needed.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: [usize; 4],
    ndim: u8,
}

impl Shape {
    /// Creates a shape from a slice of dimension extents.
    ///
    /// # Panics
    /// If `dims` has more than 4 dimensions or any zero extent.
    pub fn new(dims: &[usize]) -> Self {
        assert!(dims.len() <= 4, "at most 4 dimensions supported, got {}", dims.len());
        assert!(dims.iter().all(|&d| d > 0), "zero-sized dimension in {dims:?}");
        let mut inline = [1usize; 4];
        inline[..dims.len()].copy_from_slice(dims);
        Self { dims: inline, ndim: dims.len() as u8 }
    }

    /// A scalar (0-dimensional) shape with one element.
    pub fn scalar() -> Self {
        Self { dims: [1; 4], ndim: 0 }
    }

    /// The dimension extents as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.dims[..self.ndim as usize]
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.ndim as usize
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.dims().iter().product::<usize>().max(1)
    }

    /// Extent of dimension `i`.
    ///
    /// # Panics
    /// If `i >= self.ndim()`.
    pub fn dim(&self, i: usize) -> usize {
        assert!(i < self.ndim(), "dimension {i} out of range for {self:?}");
        self.dims[i]
    }

    /// Row-major strides (in elements) for this shape.
    pub fn strides(&self) -> [usize; 4] {
        let n = self.ndim();
        let mut s = [1usize; 4];
        if n > 0 {
            for i in (0..n - 1).rev() {
                s[i] = s[i + 1] * self.dims[i + 1];
            }
        }
        s
    }

    /// True if the two shapes are identical.
    pub fn same(&self, other: &Shape) -> bool {
        self == other
    }
}

impl std::fmt::Debug for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}", self.dims())
    }
}

impl From<&[usize]> for Shape {
    fn from(d: &[usize]) -> Self {
        Shape::new(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numel_and_dims() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.numel(), 24);
        assert_eq!(s.ndim(), 3);
        assert_eq!(s.dim(1), 3);
        assert_eq!(s.dims(), &[2, 3, 4]);
    }

    #[test]
    fn scalar_shape() {
        let s = Shape::scalar();
        assert_eq!(s.ndim(), 0);
        assert_eq!(s.numel(), 1);
    }

    #[test]
    fn strides_row_major() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.strides()[..3], [12, 4, 1]);
        let s1 = Shape::new(&[7]);
        assert_eq!(s1.strides()[0], 1);
    }

    #[test]
    #[should_panic(expected = "zero-sized")]
    fn zero_dim_rejected() {
        Shape::new(&[2, 0]);
    }

    #[test]
    #[should_panic(expected = "at most 4")]
    fn too_many_dims_rejected() {
        Shape::new(&[1, 1, 1, 1, 1]);
    }
}
