//! Sub-matrix extraction.
//!
//! Privelet⁺'s Figure-5 formulation splits the frequency matrix into
//! sub-matrices along the `SA` dimensions — a generic dense-array
//! operation, so it lives here in the storage substrate.

use crate::ndmatrix::NdMatrix;
use crate::{MatrixError, Result};

/// Extracts the sub-matrix obtained by *fixing* the given axes at the given
/// coordinates; the remaining (free) axes keep their order and sizes.
///
/// `fixed_axes` must be strictly increasing and each coordinate in bounds.
/// Fixing every axis yields a 1-cell matrix.
pub fn fix_axes(m: &NdMatrix, fixed_axes: &[usize], fixed_coords: &[usize]) -> Result<NdMatrix> {
    let d = m.ndim();
    if fixed_axes.len() != fixed_coords.len() {
        return Err(MatrixError::WrongArity {
            expected: fixed_axes.len(),
            got: fixed_coords.len(),
        });
    }
    for (i, &axis) in fixed_axes.iter().enumerate() {
        if axis >= d {
            return Err(MatrixError::BadAxis { axis, ndim: d });
        }
        if i > 0 && fixed_axes[i - 1] >= axis {
            return Err(MatrixError::BadAxis { axis, ndim: d });
        }
        if fixed_coords[i] >= m.dims()[axis] {
            return Err(MatrixError::OutOfBounds {
                axis,
                coord: fixed_coords[i],
                dim: m.dims()[axis],
            });
        }
    }
    if fixed_axes.len() == d {
        let v = m.get(fixed_coords)?;
        return NdMatrix::from_vec(&[1], vec![v]);
    }

    let free_axes: Vec<usize> = (0..d).filter(|a| !fixed_axes.contains(a)).collect();
    let sub_dims: Vec<usize> = free_axes.iter().map(|&a| m.dims()[a]).collect();
    let total: usize = sub_dims.iter().product();
    let strides = m.shape().strides();

    // Base offset from the fixed coordinates.
    let base: usize = fixed_axes
        .iter()
        .zip(fixed_coords)
        .map(|(&a, &c)| c * strides[a])
        .sum();

    let mut out = Vec::with_capacity(total);
    let mut free_coords = vec![0usize; free_axes.len()];
    let data = m.as_slice();
    for _ in 0..total {
        let off: usize = free_axes
            .iter()
            .zip(&free_coords)
            .map(|(&a, &c)| c * strides[a])
            .sum();
        out.push(data[base + off]);
        // Row-major odometer over the free axes.
        for k in (0..free_coords.len()).rev() {
            free_coords[k] += 1;
            if free_coords[k] < sub_dims[k] {
                break;
            }
            free_coords[k] = 0;
        }
    }
    NdMatrix::from_vec(&sub_dims, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iota(dims: &[usize]) -> NdMatrix {
        let n: usize = dims.iter().product();
        NdMatrix::from_vec(dims, (0..n).map(|v| v as f64).collect()).unwrap()
    }

    #[test]
    fn fix_single_axis_extracts_slice() {
        let m = iota(&[2, 3]); // rows [0,1,2], [3,4,5]
        let row1 = fix_axes(&m, &[0], &[1]).unwrap();
        assert_eq!(row1.dims(), &[3]);
        assert_eq!(row1.as_slice(), &[3.0, 4.0, 5.0]);
        let col2 = fix_axes(&m, &[1], &[2]).unwrap();
        assert_eq!(col2.dims(), &[2]);
        assert_eq!(col2.as_slice(), &[2.0, 5.0]);
    }

    #[test]
    fn fix_multiple_axes() {
        let m = iota(&[2, 3, 4]);
        let sub = fix_axes(&m, &[0, 2], &[1, 3]).unwrap();
        assert_eq!(sub.dims(), &[3]);
        // Cells (1, j, 3) = 12 + 4j + 3.
        assert_eq!(sub.as_slice(), &[15.0, 19.0, 23.0]);
    }

    #[test]
    fn fix_all_axes_yields_single_cell() {
        let m = iota(&[2, 2]);
        let cell = fix_axes(&m, &[0, 1], &[1, 0]).unwrap();
        assert_eq!(cell.as_slice(), &[2.0]);
    }

    #[test]
    fn fix_rejects_bad_input() {
        let m = iota(&[2, 3]);
        assert!(fix_axes(&m, &[2], &[0]).is_err()); // bad axis
        assert!(fix_axes(&m, &[0], &[2]).is_err()); // out of bounds
        assert!(fix_axes(&m, &[1, 0], &[0, 0]).is_err()); // not increasing
        assert!(fix_axes(&m, &[0], &[0, 1]).is_err()); // arity
    }
}
