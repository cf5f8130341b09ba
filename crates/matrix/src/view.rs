//! Hyper-rectangle iteration and naive rectangle sums.
//!
//! The naive path is the ground truth that the prefix-sum engine and the
//! mechanisms are validated against in tests; it is also used by the
//! timing experiments to model "answer a query by summing cells".

use crate::ndmatrix::NdMatrix;
use crate::Result;

/// Iterator over the linear indices of an inclusive hyper-rectangle
/// `[lo, hi]` of a shape, in row-major order.
#[derive(Debug, Clone)]
pub struct RectIter {
    strides: Vec<usize>,
    lo: Vec<usize>,
    hi: Vec<usize>,
    cur: Vec<usize>,
    done: bool,
}

impl RectIter {
    /// Builds a rectangle iterator over `m`'s shape.
    pub fn new(m: &NdMatrix, lo: &[usize], hi: &[usize]) -> Result<Self> {
        m.shape().check_rect(lo, hi)?;
        Ok(RectIter {
            strides: m.shape().strides().to_vec(),
            lo: lo.to_vec(),
            hi: hi.to_vec(),
            cur: lo.to_vec(),
            done: false,
        })
    }
}

impl Iterator for RectIter {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.done {
            return None;
        }
        let idx: usize = self
            .cur
            .iter()
            .zip(self.strides.iter())
            .map(|(&c, &s)| c * s)
            .sum();
        // Advance odometer within [lo, hi].
        let mut axis = self.cur.len();
        loop {
            if axis == 0 {
                self.done = true;
                break;
            }
            axis -= 1;
            if self.cur[axis] < self.hi[axis] {
                self.cur[axis] += 1;
                break;
            }
            self.cur[axis] = self.lo[axis];
        }
        Some(idx)
    }
}

/// Sums the cells of the inclusive hyper-rectangle `[lo, hi]` by direct
/// iteration (O(covered cells)).
pub fn rect_sum_naive(m: &NdMatrix, lo: &[usize], hi: &[usize]) -> Result<f64> {
    let iter = RectIter::new(m, lo, hi)?;
    let data = m.as_slice();
    Ok(iter.map(|i| data[i]).sum())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MatrixError;

    #[test]
    fn iterates_full_matrix_in_order() {
        let m = NdMatrix::from_vec(&[2, 3], (0..6).map(|v| v as f64).collect()).unwrap();
        let idxs: Vec<usize> = RectIter::new(&m, &[0, 0], &[1, 2]).unwrap().collect();
        assert_eq!(idxs, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn iterates_sub_rectangle() {
        let m = NdMatrix::from_vec(&[3, 4], (0..12).map(|v| v as f64).collect()).unwrap();
        let idxs: Vec<usize> = RectIter::new(&m, &[1, 1], &[2, 2]).unwrap().collect();
        // Rows 1..=2, cols 1..=2 of a 3x4: linear indices 5,6,9,10.
        assert_eq!(idxs, vec![5, 6, 9, 10]);
        assert_eq!(
            rect_sum_naive(&m, &[1, 1], &[2, 2]).unwrap(),
            5.0 + 6.0 + 9.0 + 10.0
        );
    }

    #[test]
    fn single_cell_rectangle() {
        let m = NdMatrix::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(rect_sum_naive(&m, &[1, 0], &[1, 0]).unwrap(), 3.0);
    }

    #[test]
    fn rejects_bad_rectangles() {
        let m = NdMatrix::zeros(&[2, 2]).unwrap();
        assert!(RectIter::new(&m, &[0, 0], &[2, 1]).is_err());
        assert!(RectIter::new(&m, &[1, 1], &[0, 1]).is_err());
        assert!(RectIter::new(&m, &[0], &[1, 1]).is_err());
        // A one-sided arity mismatch names the offending corner's length.
        for (lo, hi) in [(vec![0, 0, 0], vec![1, 1]), (vec![0, 0], vec![1, 1, 1])] {
            assert_eq!(
                rect_sum_naive(&m, &lo, &hi).unwrap_err(),
                MatrixError::WrongArity {
                    expected: 2,
                    got: 3
                }
            );
        }
    }
}
