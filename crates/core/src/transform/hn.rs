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
//! forward and `d..0` on the inverse (with the nominal mean-subtraction
//! refinement applied to each lane right before that axis is inverted —
//! footnote 2 of §VI-B).

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

/// Lane kernel running one dimension's inverse transform, optionally with
/// the mean-subtraction refinement applied to the coefficient lane first
/// (footnote 2 of §VI-B).
struct InverseKernel<'a> {
    transform: &'a DimTransform,
    refined: bool,
}

impl LaneKernel for InverseKernel<'_> {
    fn input_len(&self) -> usize {
        self.transform.output_len()
    }
    fn output_len(&self) -> usize {
        self.transform.input_len()
    }
    fn scratch_len(&self) -> usize {
        if self.refined {
            // Front half: the refined coefficient lane; back half: the
            // transform's own scratch.
            self.transform.output_len() + self.transform.scratch_len()
        } else {
            self.transform.scratch_len()
        }
    }
    fn apply(&self, src: &[f64], dst: &mut [f64], scratch: &mut [f64]) {
        if self.refined {
            let (lane, rest) = scratch.split_at_mut(self.transform.output_len());
            lane.copy_from_slice(src);
            self.transform.refine(lane);
            self.transform.inverse(lane, dst, rest);
        } else {
            self.transform.inverse(src, dst, scratch);
        }
    }
}

/// Lane kernel applying one dimension's refinement in place (same lane
/// length in and out); used by the standalone coefficient-refinement pass.
struct RefineKernel<'a>(&'a DimTransform);

impl LaneKernel for RefineKernel<'_> {
    fn input_len(&self) -> usize {
        self.0.output_len()
    }
    fn output_len(&self) -> usize {
        self.0.output_len()
    }
    fn scratch_len(&self) -> usize {
        0
    }
    fn apply(&self, src: &[f64], dst: &mut [f64], _scratch: &mut [f64]) {
        dst.copy_from_slice(src);
        self.0.refine(dst);
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
        let stages: Vec<AxisStage<'_>> = kernels
            .iter()
            .enumerate()
            .map(|(axis, kernel)| AxisStage { axis, kernel })
            .collect();
        exec.run_into(m, &stages, states, out)
            .map_err(CoreError::Matrix)
    }

    /// Inverse transform `C_d → M` without refinement (exact algebraic
    /// inverse; used by round-trip tests). Throwaway executor; see
    /// [`inverse_with`](Self::inverse_with).
    pub fn inverse(&self, c: &NdMatrix) -> Result<NdMatrix> {
        self.inverse_with(&mut LaneExecutor::new(), c)
    }

    /// Inverse transform with the mean-subtraction refinement applied to
    /// every nominal lane right before that dimension is inverted
    /// (footnote 2 of §VI-B). This is the path the Privelet mechanism uses
    /// on noisy coefficients; it is a no-op on exact coefficients.
    pub fn inverse_refined(&self, c: &NdMatrix) -> Result<NdMatrix> {
        self.inverse_refined_with(&mut LaneExecutor::new(), c)
    }

    /// [`inverse`](Self::inverse) on a caller-provided executor.
    pub fn inverse_with(&self, exec: &mut LaneExecutor, c: &NdMatrix) -> Result<NdMatrix> {
        self.inverse_impl(exec, c, false)
    }

    /// [`inverse_refined`](Self::inverse_refined) on a caller-provided
    /// executor.
    pub fn inverse_refined_with(&self, exec: &mut LaneExecutor, c: &NdMatrix) -> Result<NdMatrix> {
        self.inverse_impl(exec, c, true)
    }

    fn inverse_impl(
        &self,
        exec: &mut LaneExecutor,
        c: &NdMatrix,
        refined: bool,
    ) -> Result<NdMatrix> {
        if c.dims() != self.output_dims() {
            return Err(CoreError::ShapeMismatch {
                expected: self.output_dims(),
                got: c.dims().to_vec(),
            });
        }
        // Axes are inverted in reverse order; because the 1-D transforms
        // act on disjoint axes the composition commutes, but keeping the
        // reverse order preserves the refine-before-invert pairing.
        let kernels: Vec<InverseKernel<'_>> = self
            .transforms
            .iter()
            .map(|transform| InverseKernel {
                transform,
                // Only axes whose refine() does anything pay the
                // copy-refine step; for the rest it would be a no-op copy.
                refined: refined && transform.has_refinement(),
            })
            .collect();
        let stages: Vec<AxisStage<'_>> = kernels
            .iter()
            .enumerate()
            .rev()
            .map(|(axis, kernel)| AxisStage { axis, kernel })
            .collect();
        exec.run(c, &stages).map_err(CoreError::Matrix)
    }

    /// Applies every dimension's refinement (the §V-B mean subtraction on
    /// nominal axes) to a coefficient matrix without inverting it, on a
    /// throwaway executor. See
    /// [`refine_coefficients_with`](Self::refine_coefficients_with).
    pub fn refine_coefficients(&self, c: &NdMatrix) -> Result<NdMatrix> {
        self.refine_coefficients_with(&mut LaneExecutor::new(), c)
    }

    /// [`refine_coefficients`](Self::refine_coefficients) on a
    /// caller-provided executor.
    ///
    /// Because the per-axis transforms are linear maps on disjoint axes,
    /// refining every nominal lane up front and then running the plain
    /// [`inverse`](Self::inverse) is equivalent to
    /// [`inverse_refined`](Self::inverse_refined) (to floating-point
    /// rounding). This is the publish-side step of coefficient-domain
    /// query answering: a noisy coefficient matrix refined once can be
    /// served directly via [`query_supports`](Self::query_supports)
    /// without ever reconstructing the m-cell matrix. The refinement is
    /// idempotent, and a no-op (one copy) when no axis has one.
    pub fn refine_coefficients_with(
        &self,
        exec: &mut LaneExecutor,
        c: &NdMatrix,
    ) -> Result<NdMatrix> {
        if c.dims() != self.output_dims() {
            return Err(CoreError::ShapeMismatch {
                expected: self.output_dims(),
                got: c.dims().to_vec(),
            });
        }
        let kernels: Vec<(usize, RefineKernel<'_>)> = self
            .transforms
            .iter()
            .enumerate()
            .filter(|(_, t)| t.has_refinement())
            .map(|(axis, t)| (axis, RefineKernel(t)))
            .collect();
        if kernels.is_empty() {
            return Ok(c.clone());
        }
        let stages: Vec<AxisStage<'_>> = kernels
            .iter()
            .map(|(axis, kernel)| AxisStage {
                axis: *axis,
                kernel,
            })
            .collect();
        exec.run(c, &stages).map_err(CoreError::Matrix)
    }

    /// Per-dimension sparse supports of the hyper-rectangle-sum functional
    /// `[lo, hi]` (inclusive bounds, one pair per dimension): entry `i`
    /// lists the `(coefficient index, weight)` pairs of dimension `i`'s
    /// [`query_weights`](Transform1d::query_weights).
    ///
    /// Because the HN transform is the tensor product of its per-dimension
    /// transforms, the rectangle sum over the reconstruction equals the
    /// sparse tensor-product dot `Σ ∏ᵢ wᵢ[kᵢ] · C[k₁,…,k_d]` over the
    /// (refined) coefficient matrix — `∏ᵢ supportᵢ` terms, which for
    /// all-Haar schemas is O(∏ᵢ log mᵢ) instead of the O(m) of
    /// reconstruct-then-sum. Bounds must satisfy `loᵢ ≤ hiᵢ <
    /// input_len(i)`; wrong arity or out-of-range intervals are rejected
    /// with an `Err`, never a panic, so untrusted query bounds can be fed
    /// here directly.
    pub fn query_supports(&self, lo: &[usize], hi: &[usize]) -> Result<Vec<Vec<(usize, f64)>>> {
        if lo.len() != self.ndim() || hi.len() != self.ndim() {
            // Report the offending slice's length (lo's takes precedence).
            let got = if lo.len() != self.ndim() {
                lo.len()
            } else {
                hi.len()
            };
            return Err(CoreError::BadQueryArity {
                expected: self.ndim(),
                got,
            });
        }
        lo.iter()
            .zip(hi)
            .enumerate()
            .map(|(axis, (&l, &h))| self.query_weights_for_dim(axis, l, h))
            .collect()
    }

    /// Sparse coefficient support of **one** dimension's interval-sum
    /// functional: dimension `axis`'s
    /// [`query_weights`](Transform1d::query_weights) over the inclusive
    /// interval `[lo, hi]`, validated (`Err`, never a panic, on a bad axis
    /// or bounds).
    ///
    /// This is the planner-facing entry point of
    /// [`query_supports`](Self::query_supports): a batch compiler that
    /// interns each distinct `(axis, lo, hi)` support once needs to derive
    /// supports per *dimension*, not per whole query, so it can skip the
    /// derivation entirely on an interned triple.
    pub fn query_weights_for_dim(
        &self,
        axis: usize,
        lo: usize,
        hi: usize,
    ) -> Result<Vec<(usize, f64)>> {
        self.check_query_bounds(axis, lo, hi)?;
        Ok(self.transforms[axis].query_weights(lo, hi))
    }

    /// The validation [`query_weights_for_dim`](Self::query_weights_for_dim)
    /// runs before deriving: [`CoreError::BadAxis`] unless `axis` names a
    /// dimension, [`CoreError::BadQueryBounds`] unless `lo ≤ hi < len`.
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

    /// Sparse coefficient support of **one** dimension's single-cell
    /// increment: dimension `axis`'s
    /// [`update_weights`](Transform1d::update_weights) at domain cell
    /// `cell`, validated (`Err`, never a panic, on a bad axis or cell).
    ///
    /// The streaming dual of
    /// [`query_weights_for_dim`](Self::query_weights_for_dim): an ingest
    /// path absorbing row arrivals derives per-dimension update columns
    /// through here, so a single-cell increment touches at most
    /// `∏ᵢ max_update_support(i)` coefficients of the d-dimensional
    /// tensor product instead of the whole output matrix.
    pub fn update_weights_for_dim(&self, axis: usize, cell: usize) -> Result<Vec<(usize, f64)>> {
        let t = self.transforms.get(axis).ok_or(CoreError::BadAxis {
            axis,
            ndim: self.ndim(),
        })?;
        if cell >= t.input_len() {
            return Err(CoreError::BadQueryBounds {
                axis,
                lo: cell,
                hi: cell,
                len: t.input_len(),
            });
        }
        Ok(t.update_weights(cell))
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

    /// The weight of the coefficient at explicit coordinates (test/debug
    /// path; the hot path is [`Self::for_each_weight`]).
    pub fn weight_at(&self, coords: &[usize]) -> f64 {
        coords
            .iter()
            .zip(&self.weights)
            .map(|(&x, w)| w[x])
            .product()
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
        assert_eq!(hn.weight_at(&[0, 0]), 4.0);
        assert_eq!(hn.weight_at(&[1, 1]), 4.0);
        let mut seen = Vec::new();
        hn.for_each_weight(|lin, w| seen.push((lin, w)));
        assert_eq!(seen, vec![(0, 4.0), (1, 4.0), (2, 4.0), (3, 4.0)]);
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

    #[test]
    fn mixed_roundtrip_both_inverses() {
        let (_, hn) = mixed_transform();
        let n: usize = hn.input_dims().iter().product();
        let data: Vec<f64> = (0..n).map(|i| ((i * 37) % 11) as f64 - 3.0).collect();
        let m = NdMatrix::from_vec(&hn.input_dims(), data).unwrap();
        let c = hn.forward(&m).unwrap();
        for back in [hn.inverse(&c).unwrap(), hn.inverse_refined(&c).unwrap()] {
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
        let wrong_c = NdMatrix::zeros(&[8, 3, 9, 5]).unwrap();
        assert!(matches!(
            hn.inverse(&wrong_c).unwrap_err(),
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
    fn refine_then_plain_inverse_matches_inverse_refined() {
        let (_, hn) = mixed_transform();
        let n: usize = hn.output_dims().iter().product();
        // Arbitrary (noisy-like) coefficients, NOT a forward image.
        let c = NdMatrix::from_vec(
            &hn.output_dims(),
            (0..n)
                .map(|i| ((i * 29 + 3) % 17) as f64 * 0.43 - 3.0)
                .collect(),
        )
        .unwrap();
        let refined = hn.refine_coefficients(&c).unwrap();
        let via_refined_coeffs = hn.inverse(&refined).unwrap();
        let via_inverse_refined = hn.inverse_refined(&c).unwrap();
        for (a, b) in via_refined_coeffs
            .as_slice()
            .iter()
            .zip(via_inverse_refined.as_slice())
        {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
        // Idempotent: refining again changes nothing (groups already sum
        // to zero).
        let twice = hn.refine_coefficients(&refined).unwrap();
        for (a, b) in refined.as_slice().iter().zip(twice.as_slice()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn refine_is_copy_when_no_axis_refines() {
        let schema =
            Schema::new(vec![Attribute::ordinal("a", 4), Attribute::ordinal("b", 3)]).unwrap();
        let hn = HnTransform::for_schema(&schema, &BTreeSet::new()).unwrap();
        let c = NdMatrix::from_vec(&hn.output_dims(), (0..16).map(|i| i as f64).collect()).unwrap();
        let refined = hn.refine_coefficients(&c).unwrap();
        assert_eq!(refined.as_slice(), c.as_slice());
    }

    #[test]
    fn query_supports_compute_rect_sums_from_coefficients() {
        // The sparse tensor-product dot over exact coefficients equals the
        // direct rectangle sum over the data, for a sweep of rectangles.
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
            let supports = hn.query_supports(&lo, &hi).unwrap();
            // Fold the tensor product.
            let mut acc = vec![(0usize, 1.0f64)];
            for (axis, support) in supports.iter().enumerate() {
                let mut next = Vec::with_capacity(acc.len() * support.len());
                for &(base, w) in &acc {
                    for &(k, wk) in support {
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
    fn query_supports_reject_bad_arity_and_bounds() {
        let (_, hn) = mixed_transform();
        assert!(matches!(
            hn.query_supports(&[0, 0], &[1, 1]).unwrap_err(),
            CoreError::BadQueryArity {
                expected: 4,
                got: 2
            }
        ));
        // One-sided mismatch reports the offending slice's length, not a
        // self-contradictory "4 vs 4".
        assert!(matches!(
            hn.query_supports(&[0, 0, 0, 0], &[1, 1]).unwrap_err(),
            CoreError::BadQueryArity {
                expected: 4,
                got: 2
            }
        ));
        // hi at the (unpadded) domain size: Err, not a panic.
        assert!(matches!(
            hn.query_supports(&[0, 0, 0, 0], &[5, 1, 5, 3]).unwrap_err(),
            CoreError::BadQueryBounds {
                axis: 0,
                hi: 5,
                len: 5,
                ..
            }
        ));
        // lo > hi likewise.
        assert!(matches!(
            hn.query_supports(&[0, 0, 3, 0], &[4, 1, 2, 3]).unwrap_err(),
            CoreError::BadQueryBounds { axis: 2, .. }
        ));
    }

    #[test]
    fn query_weights_for_dim_matches_query_supports() {
        let (_, hn) = mixed_transform();
        let lo = vec![1, 0, 2, 1];
        let hi = vec![3, 1, 4, 2];
        let all = hn.query_supports(&lo, &hi).unwrap();
        for (axis, support) in all.iter().enumerate() {
            let one = hn.query_weights_for_dim(axis, lo[axis], hi[axis]).unwrap();
            assert_eq!(&one, support, "axis {axis}");
        }
        assert!(matches!(
            hn.query_weights_for_dim(4, 0, 0).unwrap_err(),
            CoreError::BadAxis { axis: 4, ndim: 4 }
        ));
        assert!(matches!(
            hn.query_weights_for_dim(0, 3, 2).unwrap_err(),
            CoreError::BadQueryBounds { axis: 0, .. }
        ));
        assert!(matches!(
            hn.query_weights_for_dim(1, 0, 2).unwrap_err(),
            CoreError::BadQueryBounds {
                axis: 1,
                hi: 2,
                len: 2,
                ..
            }
        ));
        // The validation alone: same verdicts, nothing derived.
        for (axis, l, h) in [(4, 0, 0), (0, 3, 2), (1, 0, 2), (2, 2, 4)] {
            assert_eq!(
                hn.check_query_bounds(axis, l, h).err(),
                hn.query_weights_for_dim(axis, l, h).err()
            );
        }
    }

    #[test]
    fn update_weights_for_dim_is_the_validated_forward_column() {
        let (_, hn) = mixed_transform();
        // Each dimension's column at a cell matches the 1-D transform's.
        for (axis, t) in hn.transforms().iter().enumerate() {
            let cell = t.input_len() - 1;
            assert_eq!(
                hn.update_weights_for_dim(axis, cell).unwrap(),
                t.update_weights(cell),
                "axis {axis}"
            );
        }
        assert!(matches!(
            hn.update_weights_for_dim(4, 0).unwrap_err(),
            CoreError::BadAxis { axis: 4, ndim: 4 }
        ));
        // Cell at the (unpadded) domain size: Err, not a panic.
        assert!(matches!(
            hn.update_weights_for_dim(0, 5).unwrap_err(),
            CoreError::BadQueryBounds {
                axis: 0,
                lo: 5,
                hi: 5,
                len: 5,
            }
        ));
    }

    #[test]
    fn for_each_weight_matches_weight_at() {
        let (_, hn) = mixed_transform();
        let dims = hn.output_dims();
        let shape = privelet_matrix::Shape::new(&dims).unwrap();
        let mut coords = vec![0usize; dims.len()];
        hn.for_each_weight(|lin, w| {
            shape.coords(lin, &mut coords).unwrap();
            let direct = hn.weight_at(&coords);
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
