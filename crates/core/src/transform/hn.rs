//! The multi-dimensional Haar–nominal (HN) wavelet transform (§VI).
//!
//! Standard decomposition: the 1-D transforms are applied along each
//! dimension in turn; the step-`i` matrix `Cᵢ` is the input to step `i+1`.
//! Coefficient coordinates on non-transformed axes are inherited from the
//! source vector, so the output is again a dense matrix whose size on axis
//! `i` is the 1-D transform's output length (padded power of two for Haar,
//! node count for the over-complete nominal transform).
//!
//! **Weight factorization.** §VI-B assigns each coefficient the product of
//! its 1-D weight and the weight shared by its source vector. Unrolling the
//! recursion, the weight of the coefficient at coordinates `(x₁,…,x_d)` is
//! exactly `∏ᵢ wᵢ[xᵢ]` where `wᵢ` is dimension `i`'s 1-D weight vector.
//! [`HnTransform::for_each_weight`] iterates that product in O(m') without
//! materializing a weight matrix.
//!
//! Because all three 1-D transforms are linear and act on disjoint axes,
//! the composition commutes across axis order; we apply axes `0..d`
//! forward and `d..0` on the inverse.
//!
//! **Identity axes are not staged.** Privelet⁺ leaves its `SA` attributes
//! untransformed (§VI-D): an identity stage would be a full strided copy
//! of the matrix that changes no value. A plain forward or inverse
//! therefore stages no identity axis, and one whose every axis is
//! identity is the executor's zero-stage copy. Only the streaming
//! release's forward, which keeps every axis's kernel state, runs them.
//!
//! **Refinement.** The nominal mean subtraction (§V-B, placed by footnote
//! 2 of §VI-B) is post-processing of the noisy coefficients, and it has
//! one definition: [`HnTransform::refine_in_place`] runs
//! [`Transform1d::refine`] once on every lane of every refining axis.
//! Each axis's refinement is a linear map acting on that axis alone, so
//! refining every axis up front and then running the plain inverse equals
//! refining each axis right before it is inverted, up to rounding. The
//! dense release and the coefficient-domain serving core both refine this
//! way, so they read the same refined coefficients.

use super::{DimTransform, Transform1d};
use crate::{CoreError, Result};
use privelet_data::schema::Schema;
use privelet_matrix::{AxisStage, LaneExecutor, LaneKernel, NdMatrix};
use std::collections::BTreeSet;

/// Lane kernel running one dimension's forward transform.
struct ForwardKernel<'a>(&'a DimTransform);

impl LaneKernel for ForwardKernel<'_> {
    fn input_len(&self) -> usize {
        self.0.input_len()
    }
    fn output_len(&self) -> usize {
        self.0.output_len()
    }
    fn scratch_len(&self) -> usize {
        self.0.scratch_len()
    }
    fn state_len(&self) -> usize {
        self.0.state_len()
    }
    fn apply(&self, src: &[f64], dst: &mut [f64], scratch: &mut [f64]) {
        self.0.forward(src, dst, scratch);
    }
}

/// Lane kernel running one dimension's inverse transform.
struct InverseKernel<'a>(&'a DimTransform);

impl LaneKernel for InverseKernel<'_> {
    fn input_len(&self) -> usize {
        self.0.output_len()
    }
    fn output_len(&self) -> usize {
        self.0.input_len()
    }
    fn scratch_len(&self) -> usize {
        self.0.scratch_len()
    }
    fn apply(&self, src: &[f64], dst: &mut [f64], scratch: &mut [f64]) {
        self.0.inverse(src, dst, scratch);
    }
}

/// The multi-dimensional HN wavelet transform: one [`DimTransform`] per
/// dimension, with cached per-dimension weight vectors.
#[derive(Debug, Clone)]
pub struct HnTransform {
    transforms: Vec<DimTransform>,
    weights: Vec<Vec<f64>>,
}

impl HnTransform {
    /// Builds the transform from per-dimension 1-D transforms.
    pub fn new(transforms: Vec<DimTransform>) -> Result<Self> {
        if transforms.is_empty() {
            return Err(CoreError::EmptyTransform);
        }
        let weights = transforms.iter().map(DimTransform::weights).collect();
        Ok(HnTransform {
            transforms,
            weights,
        })
    }

    /// Builds the transform for a schema: Haar for ordinal dimensions,
    /// nominal for nominal dimensions, identity for dimensions in `sa`
    /// (Privelet⁺). `sa` indices must be valid attribute indices.
    pub fn for_schema(schema: &Schema, sa: &BTreeSet<usize>) -> Result<Self> {
        if let Some(&bad) = sa.iter().find(|&&i| i >= schema.arity()) {
            return Err(CoreError::BadSaIndex {
                index: bad,
                arity: schema.arity(),
            });
        }
        let transforms = schema
            .attrs()
            .iter()
            .enumerate()
            .map(|(i, attr)| DimTransform::for_attribute(attr, sa.contains(&i)))
            .collect();
        Self::new(transforms)
    }

    /// The per-dimension transforms.
    pub fn transforms(&self) -> &[DimTransform] {
        &self.transforms
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.transforms.len()
    }

    /// Expected input dimension sizes (= the frequency matrix dims).
    pub fn input_dims(&self) -> Vec<usize> {
        self.transforms
            .iter()
            .map(DimTransform::input_len)
            .collect()
    }

    /// Output dimension sizes (= the coefficient matrix dims).
    pub fn output_dims(&self) -> Vec<usize> {
        self.transforms
            .iter()
            .map(DimTransform::output_len)
            .collect()
    }

    /// Number of coefficients `m' = ∏ output_len(i)`.
    pub fn output_cells(&self) -> usize {
        self.transforms
            .iter()
            .map(DimTransform::output_len)
            .product()
    }

    /// Per-dimension 1-D weight vectors.
    pub fn weight_vectors(&self) -> &[Vec<f64>] {
        &self.weights
    }

    /// Generalized sensitivity `ρ = ∏ P(Aᵢ)` (Theorem 2).
    pub fn rho(&self) -> f64 {
        self.transforms.iter().map(DimTransform::p_value).product()
    }

    /// Variance factor `∏ H(Aᵢ)` (Theorem 3 / Corollary 1).
    pub fn variance_factor(&self) -> f64 {
        self.transforms.iter().map(DimTransform::h_value).product()
    }

    /// Forward transform `M → C_d` on a throwaway executor.
    ///
    /// For repeated transforms (a publish, a sweep, a server loop) prefer
    /// [`forward_with`](Self::forward_with) with a long-lived
    /// [`LaneExecutor`] so the engine's ping-pong buffers amortize to zero
    /// allocations.
    pub fn forward(&self, m: &NdMatrix) -> Result<NdMatrix> {
        self.forward_with(&mut LaneExecutor::new(), m)
    }

    /// Forward transform `M → C_d` on a caller-provided executor: the d
    /// per-axis 1-D transforms run as one engine pipeline, allocating
    /// nothing but the returned matrix once the executor is warm.
    pub fn forward_with(&self, exec: &mut LaneExecutor, m: &NdMatrix) -> Result<NdMatrix> {
        let mut out = NdMatrix::zeros(&self.output_dims())?;
        self.forward_keeping_state(exec, m, &mut [], out.as_mut_slice())?;
        Ok(out)
    }

    /// The forward transform into caller-owned buffers, keeping every
    /// axis's per-lane kernel state: `out` receives the coefficients, and
    /// `states[i]` (for each buffer given, resized to fit) axis `i`'s
    /// [`state_len`](Transform1d::state_len) slots for every lane, laid
    /// out `(out₀, …, outᵢ₋₁, sᵢ, inᵢ₊₁, …, in_d)` — axes before `i`
    /// already in the coefficient domain, axes after it still in the data
    /// domain.
    ///
    /// With no state buffer given, identity axes are not staged.
    pub(crate) fn forward_keeping_state(
        &self,
        exec: &mut LaneExecutor,
        m: &NdMatrix,
        states: &mut [Vec<f64>],
        out: &mut [f64],
    ) -> Result<()> {
        if m.dims() != self.input_dims() {
            return Err(CoreError::ShapeMismatch {
                expected: self.input_dims(),
                got: m.dims().to_vec(),
            });
        }
        let kernels: Vec<ForwardKernel<'_>> = self.transforms.iter().map(ForwardKernel).collect();
        let stages = self.stages(&kernels, !states.is_empty());
        exec.run_into(m, &stages, states, out)
            .map_err(CoreError::Matrix)
    }

    /// Inverse transform `C_d → M` (the exact algebraic inverse; noisy
    /// coefficients go through [`refine_in_place`](Self::refine_in_place)
    /// first). Throwaway executor; see [`inverse_with`](Self::inverse_with).
    pub fn inverse(&self, c: &NdMatrix) -> Result<NdMatrix> {
        self.inverse_with(&mut LaneExecutor::new(), c)
    }

    /// [`inverse`](Self::inverse) on a caller-provided executor.
    pub fn inverse_with(&self, exec: &mut LaneExecutor, c: &NdMatrix) -> Result<NdMatrix> {
        self.check_output_dims(c)?;
        let kernels: Vec<InverseKernel<'_>> = self.transforms.iter().map(InverseKernel).collect();
        // Axes are inverted last to first, mirroring the forward order.
        let mut stages = self.stages(&kernels, false);
        stages.reverse();
        exec.run(c, &stages).map_err(CoreError::Matrix)
    }

    /// The executor pipeline over `kernels` (one per axis): a stage per
    /// axis in axis order, except that an identity axis — a copy that
    /// changes no value — is staged only when `keep_state` asks for every
    /// axis's kernel state.
    fn stages<'k>(&self, kernels: &'k [impl LaneKernel], keep_state: bool) -> Vec<AxisStage<'k>> {
        kernels
            .iter()
            .zip(&self.transforms)
            .enumerate()
            .filter(|(_, (_, t))| keep_state || !matches!(t, DimTransform::Identity(_)))
            .map(|(axis, (kernel, _))| AxisStage { axis, kernel })
            .collect()
    }

    /// Applies every dimension's refinement (the §V-B mean subtraction on
    /// nominal axes) to a coefficient matrix in place: axes in order, each
    /// lane through [`Transform1d::refine`]. Contiguous lanes (the last
    /// axis) are refined where they lie; strided lanes are gathered into
    /// one reused lane buffer and scattered back. Axes without a
    /// refinement are skipped, so a release with no nominal axis is left
    /// untouched.
    ///
    /// This is the one refinement pass: the dense publish and
    /// [`CoefficientOutput::to_matrix`](crate::mechanism::CoefficientOutput::to_matrix)
    /// refine and then run the plain [`inverse`](Self::inverse), and the
    /// serving core refines once at build and answers from the result.
    /// The refinement is idempotent and a no-op on exact coefficients.
    pub fn refine_in_place(&self, c: &mut NdMatrix) -> Result<()> {
        self.check_output_dims(c)?;
        let dims = c.dims().to_vec();
        let data = c.as_mut_slice();
        let mut lane = Vec::new();
        for (axis, t) in self.transforms.iter().enumerate() {
            if !t.has_refinement() {
                continue;
            }
            let len = dims[axis];
            let inner: usize = dims[axis + 1..].iter().product();
            if inner == 1 {
                data.chunks_exact_mut(len).for_each(|l| t.refine(l));
                continue;
            }
            lane.resize(len, 0.0);
            for block in data.chunks_exact_mut(len * inner) {
                for i in 0..inner {
                    for (j, slot) in lane.iter_mut().enumerate() {
                        *slot = block[j * inner + i];
                    }
                    t.refine(&mut lane);
                    for (j, &v) in lane.iter().enumerate() {
                        block[j * inner + i] = v;
                    }
                }
            }
        }
        Ok(())
    }

    /// `Err` unless `c` is shaped like this transform's output.
    fn check_output_dims(&self, c: &NdMatrix) -> Result<()> {
        if c.dims() != self.output_dims() {
            return Err(CoreError::ShapeMismatch {
                expected: self.output_dims(),
                got: c.dims().to_vec(),
            });
        }
        Ok(())
    }

    /// The validation an interval-sum derivation runs before it calls
    /// dimension `axis`'s [`query_weights`](Transform1d::query_weights):
    /// [`CoreError::BadAxis`] unless `axis` names a dimension,
    /// [`CoreError::BadQueryBounds`] unless `lo ≤ hi < len`.
    pub fn check_query_bounds(&self, axis: usize, lo: usize, hi: usize) -> Result<()> {
        let t = self.transforms.get(axis).ok_or(CoreError::BadAxis {
            axis,
            ndim: self.ndim(),
        })?;
        if lo > hi || hi >= t.input_len() {
            return Err(CoreError::BadQueryBounds {
                axis,
                lo,
                hi,
                len: t.input_len(),
            });
        }
        Ok(())
    }

    /// Visits every coefficient cell of the output matrix in row-major
    /// order with its factorized weight `W_HN = ∏ᵢ wᵢ[xᵢ]`.
    pub fn for_each_weight(&self, mut f: impl FnMut(usize, f64)) {
        let dims = self.output_dims();
        let d = dims.len();
        let total: usize = dims.iter().product();
        let mut coords = vec![0usize; d];
        // prod[i+1] = prod[i] * w_i[coords[i]]; prod[0] = 1.
        let mut prod = vec![1.0f64; d + 1];
        for i in 0..d {
            prod[i + 1] = prod[i] * self.weights[i][0];
        }
        for linear in 0..total {
            f(linear, prod[d]);
            // Odometer increment, last axis fastest; refresh the prefix
            // products from the changed axis onward.
            let mut axis = d;
            while axis > 0 {
                axis -= 1;
                coords[axis] += 1;
                if coords[axis] < dims[axis] {
                    for i in axis..d {
                        prod[i + 1] = prod[i] * self.weights[i][coords[i]];
                    }
                    break;
                }
                coords[axis] = 0;
            }
        }
    }

    /// The weight `W_HN = ∏ᵢ wᵢ[xᵢ]` of the coefficient at explicit
    /// coordinates: the direct definition, which the sensitivity probes
    /// read per coefficient. The publish visits every weight in order
    /// through [`Self::for_each_weight`] instead.
    ///
    /// [`CoreError::BadQueryArity`] unless there is one coordinate per
    /// dimension, [`CoreError::BadQueryBounds`] for a coordinate at or past
    /// its axis's [`output_len`](Transform1d::output_len).
    pub fn weight_at(&self, coords: &[usize]) -> Result<f64> {
        if coords.len() != self.ndim() {
            return Err(CoreError::BadQueryArity {
                expected: self.ndim(),
                got: coords.len(),
            });
        }
        coords
            .iter()
            .zip(&self.weights)
            .enumerate()
            .try_fold(1.0, |product, (axis, (&x, w))| {
                let wx = w.get(x).ok_or(CoreError::BadQueryBounds {
                    axis,
                    lo: x,
                    hi: x,
                    len: w.len(),
                })?;
                Ok(product * wx)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privelet_data::schema::Attribute;
    use privelet_hierarchy::builder::{flat, three_level};

    fn ordinal_2x2() -> HnTransform {
        let schema =
            Schema::new(vec![Attribute::ordinal("r", 2), Attribute::ordinal("c", 2)]).unwrap();
        HnTransform::for_schema(&schema, &BTreeSet::new()).unwrap()
    }

    #[test]
    fn figure4_coefficients() {
        // M = [[8,4],[1,5]] -> C2 = [[4.5, 0], [1.5, 2]] (Figure 4; the
        // result is axis-order independent because the 1-D transforms act
        // on disjoint axes).
        let hn = ordinal_2x2();
        let m = NdMatrix::from_vec(&[2, 2], vec![8.0, 4.0, 1.0, 5.0]).unwrap();
        let c = hn.forward(&m).unwrap();
        assert_eq!(c.as_slice(), &[4.5, 0.0, 1.5, 2.0]);
        let back = hn.inverse(&c).unwrap();
        assert_eq!(back.as_slice(), m.as_slice());
    }

    #[test]
    fn figure4_weights_factorize() {
        // Each dim is Haar on 2 entries: weights [2, 2]; WHN = 4 everywhere.
        let hn = ordinal_2x2();
        assert_eq!(hn.weight_at(&[0, 0]), Ok(4.0));
        assert_eq!(hn.weight_at(&[1, 1]), Ok(4.0));
        let mut seen = Vec::new();
        hn.for_each_weight(|lin, w| seen.push((lin, w)));
        assert_eq!(seen, vec![(0, 4.0), (1, 4.0), (2, 4.0), (3, 4.0)]);
    }

    #[test]
    fn weight_at_rejects_bad_arity_and_bounds() {
        let schema =
            Schema::new(vec![Attribute::ordinal("r", 4), Attribute::ordinal("c", 8)]).unwrap();
        let hn = HnTransform::for_schema(&schema, &BTreeSet::new()).unwrap();
        assert_eq!(
            hn.weight_at(&[1]),
            Err(CoreError::BadQueryArity {
                expected: 2,
                got: 1
            })
        );
        assert_eq!(
            hn.weight_at(&[9, 0]),
            Err(CoreError::BadQueryBounds {
                axis: 0,
                lo: 9,
                hi: 9,
                len: 4
            })
        );
        assert!(matches!(
            hn.weight_at(&[3, 8]),
            Err(CoreError::BadQueryBounds {
                axis: 1,
                len: 8,
                ..
            })
        ));
        assert_eq!(
            hn.weight_at(&[3, 7]),
            Ok(hn.weight_vectors()[0][3] * hn.weight_vectors()[1][7])
        );
    }

    fn mixed_transform() -> (Schema, HnTransform) {
        let schema = Schema::new(vec![
            Attribute::ordinal("age", 5),                          // pads to 8
            Attribute::nominal("gender", flat(2).unwrap()),        // 3 nodes
            Attribute::nominal("occ", three_level(6, 2).unwrap()), // 9 nodes
            Attribute::ordinal("income", 4),                       // exact 4
        ])
        .unwrap();
        let hn = HnTransform::for_schema(&schema, &BTreeSet::new()).unwrap();
        (schema, hn)
    }

    #[test]
    fn mixed_shapes_and_factors() {
        let (_, hn) = mixed_transform();
        assert_eq!(hn.input_dims(), vec![5, 2, 6, 4]);
        assert_eq!(hn.output_dims(), vec![8, 3, 9, 4]);
        assert_eq!(hn.output_cells(), 8 * 3 * 9 * 4);
        // rho = P products: (1+3) * 2 * 3 * (1+2) = 72.
        assert_eq!(hn.rho(), 72.0);
        // variance factor = H products: (2+3)/2 * 4 * 4 * (2+2)/2 = 80.
        assert_eq!(hn.variance_factor(), 80.0);
    }

    /// Refine, then the plain inverse: the path every noisy release takes.
    fn refine_then_inverse(hn: &HnTransform, c: &NdMatrix) -> NdMatrix {
        let mut refined = c.clone();
        hn.refine_in_place(&mut refined).unwrap();
        hn.inverse(&refined).unwrap()
    }

    #[test]
    fn mixed_roundtrip_both_inverses() {
        let (_, hn) = mixed_transform();
        let n: usize = hn.input_dims().iter().product();
        let data: Vec<f64> = (0..n).map(|i| ((i * 37) % 11) as f64 - 3.0).collect();
        let m = NdMatrix::from_vec(&hn.input_dims(), data).unwrap();
        let c = hn.forward(&m).unwrap();
        for back in [hn.inverse(&c).unwrap(), refine_then_inverse(&hn, &c)] {
            assert_eq!(back.dims(), m.dims());
            for (a, b) in m.as_slice().iter().zip(back.as_slice()) {
                assert!((a - b).abs() < 1e-9, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn privelet_plus_identity_dims() {
        let schema = Schema::new(vec![
            Attribute::ordinal("small", 3),
            Attribute::ordinal("large", 16),
        ])
        .unwrap();
        let sa = BTreeSet::from([0usize]);
        let hn = HnTransform::for_schema(&schema, &sa).unwrap();
        assert_eq!(hn.transforms()[0].kind(), "identity");
        assert_eq!(hn.transforms()[1].kind(), "haar");
        assert_eq!(hn.output_dims(), vec![3, 16]);
        // rho excludes identity dims: P = 1 * (1 + 4) = 5.
        assert_eq!(hn.rho(), 5.0);
        // variance factor includes |A| for SA dims: 3 * (2+4)/2 = 9.
        assert_eq!(hn.variance_factor(), 9.0);
    }

    #[test]
    fn bad_sa_index_is_rejected() {
        let schema = Schema::new(vec![Attribute::ordinal("a", 4)]).unwrap();
        let sa = BTreeSet::from([1usize]);
        assert!(matches!(
            HnTransform::for_schema(&schema, &sa).unwrap_err(),
            CoreError::BadSaIndex { index: 1, arity: 1 }
        ));
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let (_, hn) = mixed_transform();
        let wrong = NdMatrix::zeros(&[5, 2, 6, 5]).unwrap();
        assert!(matches!(
            hn.forward(&wrong).unwrap_err(),
            CoreError::ShapeMismatch { .. }
        ));
        let mut wrong_c = NdMatrix::zeros(&[8, 3, 9, 5]).unwrap();
        assert!(matches!(
            hn.inverse(&wrong_c).unwrap_err(),
            CoreError::ShapeMismatch { .. }
        ));
        assert!(matches!(
            hn.refine_in_place(&mut wrong_c).unwrap_err(),
            CoreError::ShapeMismatch { .. }
        ));
    }

    #[test]
    fn empty_transform_is_rejected() {
        assert!(matches!(
            HnTransform::new(vec![]).unwrap_err(),
            CoreError::EmptyTransform
        ));
    }

    #[test]
    fn refine_in_place_is_idempotent() {
        let (_, hn) = mixed_transform();
        let n: usize = hn.output_dims().iter().product();
        // Arbitrary (noisy-like) coefficients, NOT a forward image.
        let mut refined = NdMatrix::from_vec(
            &hn.output_dims(),
            (0..n)
                .map(|i| ((i * 29 + 3) % 17) as f64 * 0.43 - 3.0)
                .collect(),
        )
        .unwrap();
        hn.refine_in_place(&mut refined).unwrap();
        // Refining again changes nothing (groups already sum to zero).
        let mut twice = refined.clone();
        hn.refine_in_place(&mut twice).unwrap();
        for (a, b) in refined.as_slice().iter().zip(twice.as_slice()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn refine_leaves_matrix_when_no_axis_refines() {
        let schema =
            Schema::new(vec![Attribute::ordinal("a", 4), Attribute::ordinal("b", 3)]).unwrap();
        let hn = HnTransform::for_schema(&schema, &BTreeSet::new()).unwrap();
        let c = NdMatrix::from_vec(&hn.output_dims(), (0..16).map(|i| i as f64).collect()).unwrap();
        let mut refined = c.clone();
        hn.refine_in_place(&mut refined).unwrap();
        assert_eq!(refined.as_slice(), c.as_slice());
    }

    #[test]
    fn query_weights_compute_rect_sums_from_coefficients() {
        // The HN transform is the tensor product of its per-dimension
        // transforms, so the sparse tensor-product dot of every axis's
        // `query_weights` over exact coefficients equals the direct
        // rectangle sum over the data, for a sweep of rectangles.
        let (_, hn) = mixed_transform();
        let dims = hn.input_dims();
        let n: usize = dims.iter().product();
        let data: Vec<f64> = (0..n).map(|i| ((i * 37) % 11) as f64 - 3.0).collect();
        let m = NdMatrix::from_vec(&dims, data).unwrap();
        let c = hn.forward(&m).unwrap();
        let strides = c.shape().strides().to_vec();
        let cdata = c.as_slice();
        for (lo, hi) in [
            (vec![0, 0, 0, 0], vec![4, 1, 5, 3]), // everything
            (vec![1, 0, 2, 1], vec![3, 0, 4, 2]),
            (vec![4, 1, 5, 3], vec![4, 1, 5, 3]), // single cell
            (vec![0, 1, 0, 0], vec![2, 1, 5, 1]),
        ] {
            // Fold the tensor product.
            let mut acc = vec![(0usize, 1.0f64)];
            for (axis, t) in hn.transforms().iter().enumerate() {
                hn.check_query_bounds(axis, lo[axis], hi[axis]).unwrap();
                let support = t.query_weights(lo[axis], hi[axis]);
                let mut next = Vec::with_capacity(acc.len() * support.len());
                for &(base, w) in &acc {
                    for &(k, wk) in &support {
                        next.push((base + k * strides[axis], w * wk));
                    }
                }
                acc = next;
            }
            let sparse: f64 = acc.iter().map(|&(idx, w)| w * cdata[idx]).sum();
            let direct = privelet_matrix::rect_sum_naive(&m, &lo, &hi).unwrap();
            assert!(
                (direct - sparse).abs() < 1e-9,
                "rect {lo:?}..{hi:?}: {direct} vs {sparse}"
            );
        }
    }

    #[test]
    fn check_query_bounds_rejects_bad_axis_and_bounds() {
        let (_, hn) = mixed_transform();
        assert!(matches!(
            hn.check_query_bounds(4, 0, 0).unwrap_err(),
            CoreError::BadAxis { axis: 4, ndim: 4 }
        ));
        // hi at the (unpadded) domain size: Err, not a panic.
        assert!(matches!(
            hn.check_query_bounds(0, 0, 5).unwrap_err(),
            CoreError::BadQueryBounds {
                axis: 0,
                hi: 5,
                len: 5,
                ..
            }
        ));
        assert!(matches!(
            hn.check_query_bounds(1, 0, 2).unwrap_err(),
            CoreError::BadQueryBounds {
                axis: 1,
                hi: 2,
                len: 2,
                ..
            }
        ));
        // lo > hi likewise.
        assert!(matches!(
            hn.check_query_bounds(0, 3, 2).unwrap_err(),
            CoreError::BadQueryBounds { axis: 0, .. }
        ));
        assert!(matches!(
            hn.check_query_bounds(2, 3, 2).unwrap_err(),
            CoreError::BadQueryBounds { axis: 2, .. }
        ));
        assert_eq!(hn.check_query_bounds(2, 2, 4), Ok(()));
    }

    #[test]
    fn for_each_weight_matches_weight_at() {
        let (_, hn) = mixed_transform();
        let dims = hn.output_dims();
        let shape = privelet_matrix::Shape::new(&dims).unwrap();
        let mut coords = vec![0usize; dims.len()];
        hn.for_each_weight(|lin, w| {
            shape.coords(lin, &mut coords).unwrap();
            let direct = hn.weight_at(&coords).unwrap();
            assert!(
                (w - direct).abs() < 1e-12,
                "linear {lin}: odometer {w} vs direct {direct}"
            );
        });
    }

    #[test]
    fn theorem2_sensitivity_exact_on_uniform_depth_dims() {
        // All dims Haar or uniform-depth nominal: the weighted L1 change
        // from a unit cell bump equals rho exactly, for every cell.
        let (_, hn) = mixed_transform();
        let dims = hn.input_dims();
        let n: usize = dims.iter().product();
        let weights = hn.weight_vectors().to_vec();
        let shape = privelet_matrix::Shape::new(&hn.output_dims()).unwrap();
        for cell in 0..n {
            let mut unit = vec![0.0; n];
            unit[cell] = 1.0;
            let m = NdMatrix::from_vec(&dims, unit).unwrap();
            let c = hn.forward(&m).unwrap();
            let mut coords = vec![0usize; dims.len()];
            let mut weighted = 0.0;
            for (lin, &v) in c.as_slice().iter().enumerate() {
                if v != 0.0 {
                    shape.coords(lin, &mut coords).unwrap();
                    let w: f64 = coords.iter().zip(&weights).map(|(&x, wv)| wv[x]).product();
                    weighted += w * v.abs();
                }
            }
            assert!(
                (weighted - hn.rho()).abs() < 1e-6,
                "cell {cell}: {weighted} vs rho {}",
                hn.rho()
            );
        }
    }
}
