//! Lane maps: applying a 1-D function along one axis of a matrix.
//!
//! The paper's multi-dimensional Haar–nominal wavelet transform (§VI-A,
//! "standard decomposition") repeatedly divides a matrix into
//! one-dimensional vectors along a given dimension, transforms each vector,
//! and reassembles a matrix whose size on that dimension may differ (the
//! nominal transform is over-complete, the Haar transform pads to a power of
//! two). [`map_lanes`] implements exactly that reassembly.

use crate::ndmatrix::NdMatrix;
use crate::{MatrixError, Result};

/// Applies `f` to every lane of `src` along `axis`, producing a matrix whose
/// size along `axis` is `out_len`.
///
/// A *lane* is the 1-D vector of cells whose coordinates agree on every axis
/// except `axis`. `f` receives the gathered input lane and a zero-initialized
/// output slice of length `out_len` to fill. All other axes keep their sizes
/// and ordering, so a coefficient inherits the coordinates of its source
/// vector on the non-transformed axes — matching the coefficient coordinate
/// assignment of §VI-A.
pub fn map_lanes(
    src: &NdMatrix,
    axis: usize,
    out_len: usize,
    mut f: impl FnMut(&[f64], &mut [f64]),
) -> Result<NdMatrix> {
    let ndim = src.ndim();
    if axis >= ndim {
        return Err(MatrixError::BadAxis { axis, ndim });
    }
    if out_len == 0 {
        return Err(MatrixError::ZeroDim { axis });
    }
    let dims = src.dims();
    let in_len = dims[axis];
    // Row-major [outer, axis, inner] decomposition.
    let inner: usize = dims[axis + 1..].iter().product();
    let outer: usize = dims[..axis].iter().product();

    let out_shape = src.shape().with_dim(axis, out_len)?;
    let mut out = vec![0.0f64; out_shape.len()];
    let src_data = src.as_slice();

    let mut in_lane = vec![0.0f64; in_len];
    let mut out_lane = vec![0.0f64; out_len];

    for o in 0..outer {
        let src_base = o * in_len * inner;
        let dst_base = o * out_len * inner;
        for i in 0..inner {
            // Gather.
            for (j, slot) in in_lane.iter_mut().enumerate() {
                *slot = src_data[src_base + j * inner + i];
            }
            out_lane.fill(0.0);
            f(&in_lane, &mut out_lane);
            // Scatter.
            for (j, &v) in out_lane.iter().enumerate() {
                out[dst_base + j * inner + i] = v;
            }
        }
    }
    NdMatrix::from_shape_vec(out_shape, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_2x3() -> NdMatrix {
        NdMatrix::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap()
    }

    #[test]
    fn identity_lane_map_preserves_matrix() {
        let m = sample_2x3();
        for axis in 0..2 {
            let out = map_lanes(&m, axis, m.dims()[axis], |src, dst| {
                dst.copy_from_slice(src);
            })
            .unwrap();
            assert_eq!(out, m);
        }
    }

    #[test]
    fn lane_map_along_axis0_sees_columns() {
        let m = sample_2x3();
        let mut seen = Vec::new();
        let _ = map_lanes(&m, 0, 2, |src, dst| {
            seen.push(src.to_vec());
            dst.copy_from_slice(src);
        })
        .unwrap();
        assert_eq!(seen, vec![vec![1.0, 4.0], vec![2.0, 5.0], vec![3.0, 6.0]]);
    }

    #[test]
    fn lane_map_along_axis1_sees_rows() {
        let m = sample_2x3();
        let mut seen = Vec::new();
        let _ = map_lanes(&m, 1, 3, |src, dst| {
            seen.push(src.to_vec());
            dst.copy_from_slice(src);
        })
        .unwrap();
        assert_eq!(seen, vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
    }

    #[test]
    fn lane_map_can_grow_axis() {
        // Duplicate each lane entry-sum into a length-4 vector: checks that
        // changing the axis size reshapes correctly.
        let m = sample_2x3();
        let out = map_lanes(&m, 0, 4, |src, dst| {
            let s: f64 = src.iter().sum();
            dst.fill(s);
        })
        .unwrap();
        assert_eq!(out.dims(), &[4, 3]);
        assert_eq!(out.get(&[0, 0]).unwrap(), 5.0);
        assert_eq!(out.get(&[3, 2]).unwrap(), 9.0);
    }

    #[test]
    fn lane_map_can_shrink_axis() {
        let m = sample_2x3();
        let out = map_lanes(&m, 1, 1, |src, dst| {
            dst[0] = src.iter().sum();
        })
        .unwrap();
        assert_eq!(out.dims(), &[2, 1]);
        assert_eq!(out.get(&[0, 0]).unwrap(), 6.0);
        assert_eq!(out.get(&[1, 0]).unwrap(), 15.0);
    }

    #[test]
    fn three_dim_middle_axis() {
        // 2x2x2 cube, transform middle axis with reversal.
        let m = NdMatrix::from_vec(&[2, 2, 2], (0..8).map(|v| v as f64).collect()).unwrap();
        let out = map_lanes(&m, 1, 2, |src, dst| {
            dst[0] = src[1];
            dst[1] = src[0];
        })
        .unwrap();
        for a in 0..2 {
            for b in 0..2 {
                for c in 0..2 {
                    assert_eq!(out.get(&[a, b, c]).unwrap(), m.get(&[a, 1 - b, c]).unwrap());
                }
            }
        }
    }

    #[test]
    fn bad_axis_is_rejected() {
        let m = sample_2x3();
        assert!(map_lanes(&m, 2, 3, |_, _| {}).is_err());
    }

    #[test]
    fn zero_out_len_is_rejected() {
        let m = sample_2x3();
        assert!(map_lanes(&m, 0, 0, |_, _| {}).is_err());
    }
}
