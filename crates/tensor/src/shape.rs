//! Shape arithmetic: dimension products, strides, and broadcasting rules.

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

/// Computes the broadcast result shape of two shapes under NumPy rules:
/// align trailing dimensions; each pair must be equal or one of them 1.
///
/// Returns `None` if the shapes are incompatible.
pub fn broadcast_shapes(a: &Shape, b: &Shape) -> Option<Shape> {
    let n = a.ndim().max(b.ndim());
    let mut out = [1usize; 4];
    for i in 0..n {
        // index from the trailing end
        let da = if i < a.ndim() { a.dims()[a.ndim() - 1 - i] } else { 1 };
        let db = if i < b.ndim() { b.dims()[b.ndim() - 1 - i] } else { 1 };
        let d = if da == db {
            da
        } else if da == 1 {
            db
        } else if db == 1 {
            da
        } else {
            return None;
        };
        out[n - 1 - i] = d;
    }
    Some(Shape::new(&out[..n]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use legw_propcheck::prelude::*;

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

    #[test]
    fn broadcast_basic() {
        let a = Shape::new(&[4, 3]);
        let b = Shape::new(&[3]);
        assert_eq!(broadcast_shapes(&a, &b).unwrap().dims(), &[4, 3]);
        let c = Shape::new(&[4, 1]);
        assert_eq!(broadcast_shapes(&a, &c).unwrap().dims(), &[4, 3]);
        let d = Shape::new(&[2, 3]);
        assert!(broadcast_shapes(&a, &d).is_none());
    }

    #[test]
    fn broadcast_scalar_with_anything() {
        let a = Shape::new(&[2, 3, 4]);
        let s = Shape::new(&[1]);
        assert_eq!(broadcast_shapes(&a, &s).unwrap().dims(), &[2, 3, 4]);
    }

    proptest! {
        #[test]
        fn prop_broadcast_commutative(
            a in legw_propcheck::collection::vec(1usize..5, 1..4),
            b in legw_propcheck::collection::vec(1usize..5, 1..4),
        ) {
            let sa = Shape::new(&a);
            let sb = Shape::new(&b);
            let ab = broadcast_shapes(&sa, &sb);
            let ba = broadcast_shapes(&sb, &sa);
            prop_assert_eq!(ab.clone().map(|s| s.dims().to_vec()), ba.map(|s| s.dims().to_vec()));
            // broadcasting with itself is identity
            let aa = broadcast_shapes(&sa, &sa).unwrap();
            prop_assert_eq!(aa.dims(), sa.dims());
        }

        #[test]
        fn prop_broadcast_result_dominates(
            a in legw_propcheck::collection::vec(1usize..5, 1..4),
            b in legw_propcheck::collection::vec(1usize..5, 1..4),
        ) {
            let sa = Shape::new(&a);
            let sb = Shape::new(&b);
            if let Some(r) = broadcast_shapes(&sa, &sb) {
                // right-aligned, every output dim is the larger of the two
                // input dims, or the only one present
                let from_end = |dims: &[usize], i: usize| dims.iter().rev().nth(i).copied();
                let want: Vec<usize> = (0..a.len().max(b.len()))
                    .rev()
                    .map(|i| from_end(&a, i).max(from_end(&b, i)).expect("one of the two has dim i"))
                    .collect();
                prop_assert_eq!(r.dims(), &want[..]);
                prop_assert_eq!(r.numel(), want.iter().product::<usize>());
            }
        }
    }
}
