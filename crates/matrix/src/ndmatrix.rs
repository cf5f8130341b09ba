//! The dense d-dimensional `f64` matrix.

use crate::shape::Shape;
use crate::{MatrixError, Result};

/// A dense d-dimensional `f64` array with row-major layout.
///
/// This is the common representation for frequency matrices (cell = tuple
/// count), wavelet-coefficient matrices, and noisy published matrices.
#[derive(Debug, Clone, PartialEq)]
pub struct NdMatrix {
    shape: Shape,
    data: Vec<f64>,
}

impl NdMatrix {
    /// All-zero matrix of the given dimension sizes.
    pub fn zeros(dims: &[usize]) -> Result<Self> {
        let shape = Shape::new(dims)?;
        let data = vec![0.0; shape.len()];
        Ok(NdMatrix { shape, data })
    }

    /// Builds a matrix from a flat row-major data vector.
    pub fn from_vec(dims: &[usize], data: Vec<f64>) -> Result<Self> {
        let shape = Shape::new(dims)?;
        if data.len() != shape.len() {
            return Err(MatrixError::DataLenMismatch {
                expected: shape.len(),
                got: data.len(),
            });
        }
        Ok(NdMatrix { shape, data })
    }

    /// Builds a matrix with an existing shape and flat data.
    pub fn from_shape_vec(shape: Shape, data: Vec<f64>) -> Result<Self> {
        if data.len() != shape.len() {
            return Err(MatrixError::DataLenMismatch {
                expected: shape.len(),
                got: data.len(),
            });
        }
        Ok(NdMatrix { shape, data })
    }

    /// The matrix shape.
    #[inline]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Dimension sizes.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Number of dimensions.
    #[inline]
    pub fn ndim(&self) -> usize {
        self.shape.ndim()
    }

    /// Total number of cells.
    #[inline]
    pub fn len(&self) -> usize {
        self.shape.len()
    }

    /// Never empty (shapes have no zero-sized dims).
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Flat row-major view of the cells.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat row-major view of the cells.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Checked cell read by coordinates.
    pub fn get(&self, coords: &[usize]) -> Result<f64> {
        Ok(self.data[self.shape.linear(coords)?])
    }

    /// Checked cell write by coordinates.
    pub fn set(&mut self, coords: &[usize], value: f64) -> Result<()> {
        let idx = self.shape.linear(coords)?;
        self.data[idx] = value;
        Ok(())
    }

    /// Adds `delta` to the cell at `coords`.
    pub fn add_at(&mut self, coords: &[usize], delta: f64) -> Result<()> {
        let idx = self.shape.linear(coords)?;
        self.data[idx] += delta;
        Ok(())
    }

    /// Sum of all cells.
    pub fn total(&self) -> f64 {
        self.data.iter().sum()
    }

    /// L1 distance to another matrix of the same shape
    /// (`‖M − M'‖₁ = Σ |v − v'|`, Definition 3 of the paper).
    pub fn l1_distance(&self, other: &NdMatrix) -> Result<f64> {
        if self.shape != other.shape {
            return Err(MatrixError::DataLenMismatch {
                expected: self.len(),
                got: other.len(),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).abs())
            .sum())
    }

    /// Rounds every cell to the nearest integer and clamps below at zero.
    ///
    /// A common post-processing step when treating a noisy matrix as counts;
    /// purely a function of the published matrix, so it has no privacy cost.
    pub fn round_nonnegative(&mut self) {
        for v in &mut self.data {
            *v = v.round().max(0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_basic_access() {
        let mut m = NdMatrix::zeros(&[2, 3]).unwrap();
        assert_eq!(m.len(), 6);
        assert_eq!(m.total(), 0.0);
        m.set(&[1, 2], 5.0).unwrap();
        assert_eq!(m.get(&[1, 2]).unwrap(), 5.0);
        m.add_at(&[1, 2], 1.5).unwrap();
        assert_eq!(m.get(&[1, 2]).unwrap(), 6.5);
        assert_eq!(m.total(), 6.5);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(NdMatrix::from_vec(&[2, 2], vec![1.0; 4]).is_ok());
        assert_eq!(
            NdMatrix::from_vec(&[2, 2], vec![1.0; 5]).unwrap_err(),
            MatrixError::DataLenMismatch {
                expected: 4,
                got: 5
            }
        );
    }

    #[test]
    fn row_major_layout_matches_table_ii_example() {
        // Table II of the paper: 5 age groups × {Yes, No}.
        // Rows: <30, 30-39, 40-49, 50-59, >=60; columns: Yes, No.
        let m = NdMatrix::from_vec(
            &[5, 2],
            vec![0.0, 2.0, 0.0, 1.0, 1.0, 2.0, 0.0, 1.0, 1.0, 0.0],
        )
        .unwrap();
        assert_eq!(m.get(&[0, 1]).unwrap(), 2.0); // <30, No
        assert_eq!(m.get(&[2, 0]).unwrap(), 1.0); // 40-49, Yes
        assert_eq!(m.total(), 8.0); // 8 medical records
    }

    #[test]
    fn l1_distance_counts_single_tuple_change() {
        // Changing one tuple moves one unit between two cells: L1 = 2.
        let mut a = NdMatrix::zeros(&[4]).unwrap();
        let mut b = NdMatrix::zeros(&[4]).unwrap();
        a.set(&[0], 3.0).unwrap();
        b.set(&[0], 2.0).unwrap();
        b.set(&[2], 1.0).unwrap();
        assert_eq!(a.l1_distance(&b).unwrap(), 2.0);
    }

    #[test]
    fn distance_requires_same_shape() {
        let a = NdMatrix::zeros(&[4]).unwrap();
        let b = NdMatrix::zeros(&[2, 2]).unwrap();
        assert!(a.l1_distance(&b).is_err());
    }

    #[test]
    fn round_nonnegative_clamps_and_rounds() {
        let mut m = NdMatrix::from_vec(&[4], vec![-0.7, 0.4, 1.6, 2.0]).unwrap();
        m.round_nonnegative();
        assert_eq!(m.as_slice(), &[0.0, 0.0, 2.0, 2.0]);
    }
}
