//! d-dimensional prefix sums and O(2^d) hyper-rectangle sums.
//!
//! Every range-count query in the paper reduces to summing a
//! hyper-rectangle of the (noisy) frequency matrix: ordinal predicates are
//! intervals, and nominal predicates select a hierarchy node whose leaves
//! occupy a contiguous index range (§V-A). A summed-area table makes each of
//! the 40 000 workload queries O(2^d) instead of O(covered cells).

use crate::ndmatrix::NdMatrix;
use crate::shape::Shape;
use crate::{MatrixError, Result};

/// Inclusive d-dimensional prefix sums over an [`NdMatrix`].
///
/// `P[c] = Σ_{x ≤ c} M[x]` (component-wise ≤). Built in `d` passes over the
/// data (one per axis), each pass accumulating along that axis.
#[derive(Debug, Clone)]
pub struct PrefixSums {
    shape: Shape,
    data: Vec<f64>,
}

impl PrefixSums {
    /// Builds prefix sums for `m`: one [`prefix_sum_axis`] pass per axis,
    /// so after axis k the data holds prefix sums over axes 0..=k.
    pub fn build(m: &NdMatrix) -> Self {
        let shape = m.shape().clone();
        let mut data = m.as_slice().to_vec();
        for axis in 0..shape.ndim() {
            accumulate_axis(&mut data, shape.dims(), axis);
        }
        PrefixSums { shape, data }
    }

    /// The underlying shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Sum of the cells in the inclusive hyper-rectangle `[lo, hi]`
    /// (component-wise), via inclusion–exclusion over the 2^d corners.
    pub fn rect_sum(&self, lo: &[usize], hi: &[usize]) -> Result<f64> {
        self.shape.check_rect(lo, hi)?;
        let d = self.shape.ndim();
        let mut total = 0.0f64;
        let mut corner = vec![0usize; d];
        // Enumerate the 2^d corners; bit k chooses hi[k] (+) or lo[k]-1 (−).
        'corners: for mask in 0u32..(1u32 << d) {
            let mut sign = 1.0f64;
            for (axis, c) in corner.iter_mut().enumerate() {
                if mask & (1 << axis) != 0 {
                    *c = hi[axis];
                } else {
                    if lo[axis] == 0 {
                        continue 'corners; // that term is zero
                    }
                    *c = lo[axis] - 1;
                    sign = -sign;
                }
            }
            total += sign * self.data[self.shape.linear_unchecked(&corner)];
        }
        Ok(total)
    }

    /// Sum of the whole matrix (the prefix value at the far corner).
    pub fn total(&self) -> f64 {
        *self.data.last().expect("shapes are never empty")
    }
}

/// Accumulates `m` in place along `axis` only: every entry becomes the
/// sum of itself and all entries before it on its axis-`axis` line (the
/// pass [`PrefixSums::build`] runs once per axis). Errors with
/// [`MatrixError::BadAxis`] when `axis >= m.ndim()`.
pub fn prefix_sum_axis(m: &mut NdMatrix, axis: usize) -> Result<()> {
    if axis >= m.ndim() {
        return Err(MatrixError::BadAxis {
            axis,
            ndim: m.ndim(),
        });
    }
    let dims = m.dims().to_vec();
    accumulate_axis(m.as_mut_slice(), &dims, axis);
    Ok(())
}

/// The one prefix pass: row `j` of every `len × inner` block gains row
/// `j − 1`, `j` ascending. Needs `data.len() == ∏ dims`, `axis < d`.
fn accumulate_axis(data: &mut [f64], dims: &[usize], axis: usize) {
    let len = dims[axis];
    let inner: usize = dims[axis + 1..].iter().product();
    for block in data.chunks_exact_mut(len * inner) {
        for j in 1..len {
            let (prev, cur) = block[(j - 1) * inner..(j + 1) * inner].split_at_mut(inner);
            for (c, p) in cur.iter_mut().zip(prev.iter()) {
                *c += *p;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::rect_sum_naive;

    fn iota(dims: &[usize]) -> NdMatrix {
        let n: usize = dims.iter().product();
        NdMatrix::from_vec(dims, (0..n).map(|v| v as f64).collect()).unwrap()
    }

    #[test]
    fn one_dim_prefix_sums() {
        let m = NdMatrix::from_vec(&[4], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let p = PrefixSums::build(&m);
        assert_eq!(p.rect_sum(&[0], &[3]).unwrap(), 10.0);
        assert_eq!(p.rect_sum(&[1], &[2]).unwrap(), 5.0);
        assert_eq!(p.rect_sum(&[3], &[3]).unwrap(), 4.0);
        assert_eq!(p.total(), 10.0);
    }

    #[test]
    fn two_dim_matches_naive() {
        let m = iota(&[3, 4]);
        let p = PrefixSums::build(&m);
        for lo0 in 0..3 {
            for hi0 in lo0..3 {
                for lo1 in 0..4 {
                    for hi1 in lo1..4 {
                        let expected = rect_sum_naive(&m, &[lo0, lo1], &[hi0, hi1]).unwrap();
                        let got = p.rect_sum(&[lo0, lo1], &[hi0, hi1]).unwrap();
                        assert_eq!(got, expected, "rect [{lo0},{lo1}]..[{hi0},{hi1}]");
                    }
                }
            }
        }
    }

    #[test]
    fn four_dim_matches_naive_spot_checks() {
        let m = iota(&[2, 3, 2, 3]);
        let p = PrefixSums::build(&m);
        let rects: &[(&[usize], &[usize])] = &[
            (&[0, 0, 0, 0], &[1, 2, 1, 2]),
            (&[1, 1, 0, 1], &[1, 2, 1, 2]),
            (&[0, 2, 1, 0], &[1, 2, 1, 0]),
            (&[1, 0, 1, 2], &[1, 0, 1, 2]),
        ];
        for (lo, hi) in rects {
            assert_eq!(
                p.rect_sum(lo, hi).unwrap(),
                rect_sum_naive(&m, lo, hi).unwrap()
            );
        }
    }

    #[test]
    fn rejects_inverted_and_out_of_bounds_rects() {
        let m = iota(&[3, 3]);
        let p = PrefixSums::build(&m);
        assert!(matches!(
            p.rect_sum(&[2, 0], &[1, 2]).unwrap_err(),
            MatrixError::EmptyRect { axis: 0 }
        ));
        assert!(matches!(
            p.rect_sum(&[0, 0], &[0, 3]).unwrap_err(),
            MatrixError::OutOfBounds { axis: 1, .. }
        ));
        assert!(p.rect_sum(&[0], &[1, 1]).is_err());
        // A one-sided arity mismatch names the offending corner's length.
        for (lo, hi) in [(vec![0, 0, 0], vec![1, 1]), (vec![0, 0], vec![1, 1, 1])] {
            assert_eq!(
                p.rect_sum(&lo, &hi).unwrap_err(),
                MatrixError::WrongArity {
                    expected: 2,
                    got: 3
                }
            );
        }
    }

    #[test]
    fn one_axis_pass_leaves_the_other_axes_alone() {
        // [[0, 1, 2], [3, 4, 5]] summed down axis 0, then along axis 1.
        let mut m = iota(&[2, 3]);
        prefix_sum_axis(&mut m, 0).unwrap();
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 3.0, 5.0, 7.0]);
        prefix_sum_axis(&mut m, 1).unwrap();
        assert_eq!(m.as_slice(), &[0.0, 1.0, 3.0, 3.0, 8.0, 15.0]);
        // A pass per axis is the table `build` answers from.
        assert_eq!(
            m.as_slice(),
            PrefixSums::build(&iota(&[2, 3])).data.as_slice()
        );
        assert!(matches!(
            prefix_sum_axis(&mut m, 2).unwrap_err(),
            MatrixError::BadAxis { axis: 2, ndim: 2 }
        ));
    }

    #[test]
    fn singleton_dims_are_handled() {
        let m = iota(&[1, 5, 1]);
        let p = PrefixSums::build(&m);
        assert_eq!(p.rect_sum(&[0, 1, 0], &[0, 3, 0]).unwrap(), 1.0 + 2.0 + 3.0);
        assert_eq!(p.total(), 10.0);
    }
}
