//! Row-major shapes: dimension sizes, strides, and coordinate arithmetic.

use crate::{MatrixError, Result};

/// A row-major d-dimensional shape.
///
/// The last axis is contiguous (stride 1); axis `i` has stride
/// `∏_{j>i} dims[j]`. All dimensions must be non-zero and the total cell
/// count must fit in `usize`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shape {
    dims: Vec<usize>,
    strides: Vec<usize>,
    len: usize,
}

impl Shape {
    /// Builds a shape from dimension sizes.
    pub fn new(dims: &[usize]) -> Result<Self> {
        if dims.is_empty() {
            return Err(MatrixError::EmptyShape);
        }
        for (axis, &d) in dims.iter().enumerate() {
            if d == 0 {
                return Err(MatrixError::ZeroDim { axis });
            }
        }
        let mut strides = vec![0usize; dims.len()];
        let mut acc: usize = 1;
        for axis in (0..dims.len()).rev() {
            strides[axis] = acc;
            acc = acc.checked_mul(dims[axis]).ok_or(MatrixError::TooLarge)?;
        }
        Ok(Shape {
            dims: dims.to_vec(),
            strides,
            len: acc,
        })
    }

    /// Number of dimensions.
    #[inline]
    pub fn ndim(&self) -> usize {
        self.dims.len()
    }

    /// Dimension sizes.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Size of one axis.
    #[inline]
    pub fn dim(&self, axis: usize) -> usize {
        self.dims[axis]
    }

    /// Row-major strides.
    #[inline]
    pub fn strides(&self) -> &[usize] {
        &self.strides
    }

    /// Stride of one axis.
    #[inline]
    pub fn stride(&self, axis: usize) -> usize {
        self.strides[axis]
    }

    /// Total number of cells.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// A shape is never empty (every dim ≥ 1); provided for lint symmetry.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Linear index of a coordinate vector (checked).
    pub fn linear(&self, coords: &[usize]) -> Result<usize> {
        if coords.len() != self.dims.len() {
            return Err(MatrixError::WrongArity {
                expected: self.dims.len(),
                got: coords.len(),
            });
        }
        let mut idx = 0usize;
        for (axis, (&c, (&d, &s))) in coords
            .iter()
            .zip(self.dims.iter().zip(self.strides.iter()))
            .enumerate()
        {
            if c >= d {
                return Err(MatrixError::OutOfBounds {
                    axis,
                    coord: c,
                    dim: d,
                });
            }
            idx += c * s;
        }
        Ok(idx)
    }

    /// Linear index of a coordinate vector (unchecked bounds, debug-asserted).
    #[inline]
    pub fn linear_unchecked(&self, coords: &[usize]) -> usize {
        debug_assert_eq!(coords.len(), self.dims.len());
        let mut idx = 0usize;
        for (axis, &c) in coords.iter().enumerate() {
            debug_assert!(c < self.dims[axis]);
            idx += c * self.strides[axis];
        }
        idx
    }

    /// Writes the coordinates of a linear index into `out`.
    pub fn coords(&self, mut linear: usize, out: &mut [usize]) -> Result<()> {
        if out.len() != self.dims.len() {
            return Err(MatrixError::WrongArity {
                expected: self.dims.len(),
                got: out.len(),
            });
        }
        if linear >= self.len {
            return Err(MatrixError::OutOfBounds {
                axis: 0,
                coord: linear,
                dim: self.len,
            });
        }
        for (slot, &stride) in out.iter_mut().zip(&self.strides) {
            *slot = linear / stride;
            linear %= stride;
        }
        Ok(())
    }

    /// Returns a shape identical to `self` except that `axis` has size
    /// `new_size`.
    pub fn with_dim(&self, axis: usize, new_size: usize) -> Result<Shape> {
        if axis >= self.ndim() {
            return Err(MatrixError::BadAxis {
                axis,
                ndim: self.ndim(),
            });
        }
        let mut dims = self.dims.clone();
        dims[axis] = new_size;
        Shape::new(&dims)
    }

    /// Checks an inclusive hyper-rectangle `[lo, hi]` against the shape:
    /// one coordinate per axis in each corner (a wrong corner reports its
    /// own length, `lo`'s first), `hi` inside the shape, and `lo ≤ hi`.
    pub(crate) fn check_rect(&self, lo: &[usize], hi: &[usize]) -> Result<()> {
        let d = self.ndim();
        for corner in [lo, hi] {
            if corner.len() != d {
                return Err(MatrixError::WrongArity {
                    expected: d,
                    got: corner.len(),
                });
            }
        }
        for axis in 0..d {
            if hi[axis] >= self.dims[axis] {
                return Err(MatrixError::OutOfBounds {
                    axis,
                    coord: hi[axis],
                    dim: self.dims[axis],
                });
            }
            if lo[axis] > hi[axis] {
                return Err(MatrixError::EmptyRect { axis });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_are_row_major() {
        let s = Shape::new(&[2, 3, 4]).unwrap();
        assert_eq!(s.strides(), &[12, 4, 1]);
        assert_eq!(s.len(), 24);
        assert_eq!(s.ndim(), 3);
    }

    #[test]
    fn one_dimensional_shape() {
        let s = Shape::new(&[7]).unwrap();
        assert_eq!(s.strides(), &[1]);
        assert_eq!(s.len(), 7);
        assert_eq!(s.linear(&[3]).unwrap(), 3);
    }

    #[test]
    fn rejects_empty_and_zero_dims() {
        assert_eq!(Shape::new(&[]).unwrap_err(), MatrixError::EmptyShape);
        assert_eq!(
            Shape::new(&[3, 0]).unwrap_err(),
            MatrixError::ZeroDim { axis: 1 }
        );
    }

    #[test]
    fn rejects_overflowing_shapes() {
        assert_eq!(
            Shape::new(&[usize::MAX, 3]).unwrap_err(),
            MatrixError::TooLarge
        );
    }

    #[test]
    fn linear_and_coords_roundtrip() {
        let s = Shape::new(&[3, 4, 5]).unwrap();
        let mut c = [0usize; 3];
        for lin in 0..s.len() {
            s.coords(lin, &mut c).unwrap();
            assert_eq!(s.linear(&c).unwrap(), lin);
            assert_eq!(s.linear_unchecked(&c), lin);
        }
    }

    #[test]
    fn linear_rejects_bad_coords() {
        let s = Shape::new(&[3, 4]).unwrap();
        assert_eq!(
            s.linear(&[1, 4]).unwrap_err(),
            MatrixError::OutOfBounds {
                axis: 1,
                coord: 4,
                dim: 4
            }
        );
        assert_eq!(
            s.linear(&[1]).unwrap_err(),
            MatrixError::WrongArity {
                expected: 2,
                got: 1
            }
        );
    }

    #[test]
    fn coords_rejects_bad_input() {
        let s = Shape::new(&[3, 4]).unwrap();
        let mut c = [0usize; 2];
        assert!(s.coords(12, &mut c).is_err());
        let mut short = [0usize; 1];
        assert!(s.coords(0, &mut short).is_err());
    }

    #[test]
    fn with_dim_changes_one_axis() {
        let s = Shape::new(&[3, 4]).unwrap();
        let t = s.with_dim(1, 8).unwrap();
        assert_eq!(t.dims(), &[3, 8]);
        assert!(s.with_dim(2, 8).is_err());
    }
}
