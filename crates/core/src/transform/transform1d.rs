//! The [`Transform1d`] trait: the common interface of the paper's three
//! 1-D building blocks (Haar §IV, nominal §V, identity §VI-D).
//!
//! Every 1-D transform here is an invertible linear map from a frequency
//! vector of [`input_len`] entries to a coefficient vector of
//! [`output_len`] entries, equipped with a weight function and the two
//! §VI-C accounting factors. The multi-dimensional HN transform and the
//! [`LaneExecutor`](privelet_matrix::LaneExecutor) engine dispatch through
//! this trait, so the enum wrapper [`DimTransform`](super::DimTransform)
//! is only needed where object-safe *storage* is (one heterogeneous
//! transform per dimension), not for behavior.
//!
//! The hot-path entry points take caller-provided scratch so the engine
//! can reuse one buffer set across millions of lanes; the `*_alloc`
//! convenience wrappers allocate scratch per call and exist for tests and
//! one-shot use.
//!
//! [`input_len`]: Transform1d::input_len
//! [`output_len`]: Transform1d::output_len

/// A 1-D wavelet (or pass-through) transform along one dimension.
///
/// Implementations must be pure: two calls with the same inputs write the
/// same outputs, bit for bit. The engine relies on this for its bitwise
/// guarantees (every tile width equals the per-lane walk, and a reused
/// executor equals a fresh one).
pub trait Transform1d {
    /// Domain size |A| (the frequency-vector length).
    fn input_len(&self) -> usize;

    /// Number of coefficients produced (≥ `input_len` for over-complete
    /// transforms, the padded power of two for Haar).
    fn output_len(&self) -> usize;

    /// Scratch slots `forward` / `inverse` need. Defaults to
    /// `output_len()`; the identity transform needs none.
    fn scratch_len(&self) -> usize {
        self.output_len()
    }

    /// Leading scratch slots that hold the lane's forward-kernel state
    /// once [`forward`](Self::forward) returns: the Haar averaging pyramid
    /// in heap layout (`2·padded`: leaves at `m + x`, zero-padded,
    /// averages at `j ∈ [1, m)`, slot 0 zero), the nominal leaf-sums by
    /// hierarchy node id (`node_count`), the identity lane (`|A|`). Every
    /// coefficient is a pure expression of this state, which streaming
    /// releases keep per lane. Not defaulted: every transform states it.
    fn state_len(&self) -> usize;

    /// Forward transform of one lane: `src.len() == input_len()`,
    /// `dst.len() == output_len()`, `scratch.len() >= scratch_len()`.
    /// Every element of `dst` is written, and — whenever `scratch` holds
    /// at least [`state_len`](Self::state_len) slots, as callers keeping
    /// the state size it — so are those first slots (the lane's state).
    fn forward(&self, src: &[f64], dst: &mut [f64], scratch: &mut [f64]);

    /// Inverse transform of one lane: `src.len() == output_len()`,
    /// `dst.len() == input_len()`, `scratch.len() >= scratch_len()`.
    /// Every element of `dst` is written.
    fn inverse(&self, src: &[f64], dst: &mut [f64], scratch: &mut [f64]);

    /// Refinement of one noisy coefficient lane before inversion: the
    /// mean-subtraction step for nominal dimensions (§V-B), a no-op
    /// otherwise. Must be a no-op on exact coefficients.
    fn refine(&self, _coeffs: &mut [f64]) {}

    /// Whether [`refine`](Self::refine) does anything; lets callers skip
    /// the copy-refine step on axes where it is a no-op.
    ///
    /// Deliberately **not** defaulted: an implementation overriding
    /// `refine` but inheriting a `false` here would have its refinement
    /// silently skipped by the engine, so every transform must state it.
    fn has_refinement(&self) -> bool;

    /// The weight vector over the coefficient layout (`output_len()`
    /// entries, all strictly positive).
    fn weights(&self) -> Vec<f64>;

    /// Sparse coefficient support of the interval-sum functional
    /// `c ↦ Σ_{x ∈ [lo, hi]} inverse(c)[x]` (inclusive bounds over the
    /// *domain*, `lo ≤ hi < input_len()`).
    ///
    /// Returns `(coefficient index, weight)` pairs with strictly nonzero
    /// weights such that the identity above holds for **every** coefficient
    /// vector — noisy or exact — because it is the adjoint of the (linear)
    /// inverse transform applied to the interval's indicator vector. This
    /// is the paper's §IV/§V observation that a range-count query touches
    /// only a few coefficients: O(log m) entries for Haar (the two
    /// boundary root-to-leaf paths), O(cells + height) for nominal, and
    /// exactly the covered cells for identity. Coefficient-domain query
    /// answering rests on this method on Haar and nominal axes. The
    /// serving core (`privelet_query::ReleaseCore`) stores identity axes
    /// as prefix sums and reads two entries there instead, while the
    /// covered-cell support still defines identity's variance factor.
    ///
    /// For transforms with a refinement step ([`refine`](Self::refine)),
    /// the identity is stated against the plain `inverse`; callers serving
    /// noisy coefficients must refine them once beforehand (the
    /// refinement is idempotent, so refining already-refined or exact
    /// coefficients is harmless).
    fn query_weights(&self, lo: usize, hi: usize) -> Vec<(usize, f64)>;

    /// Sparse coefficient support of a *single-cell increment*: the set of
    /// `(coefficient index, weight)` pairs such that adding `δ` to domain
    /// cell `cell` adds exactly `δ·weight` to each listed coefficient of
    /// the **exact** forward transform, and changes no other coefficient.
    /// This is the dual of [`query_weights`](Self::query_weights): the
    /// column of the forward transform matrix at `cell`, i.e.
    /// `forward(e_cell)` restricted to its nonzeros.
    ///
    /// For Haar this is the leaf-to-root heap path plus the base — exactly
    /// `⌈log₂ m⌉ + 1` entries; for nominal it is the leaf's root path
    /// (`height + 1` entries, one per hierarchy node containing the leaf);
    /// for identity it is the single covered cell. Streaming releases rest
    /// on this method: an increment touches O(log m) coefficients per
    /// dimension instead of re-running the O(m) forward transform.
    ///
    /// The support describes the *exact* linear algebra. Incremental
    /// maintenance that must stay bit-identical to a from-scratch forward
    /// transform additionally recomputes touched values with the forward
    /// kernel's own float expressions (see
    /// [`IncrementalRelease`](crate::incremental::IncrementalRelease));
    /// this method is the index machinery and the touch-count contract.
    ///
    /// Deliberately **not** defaulted (like
    /// [`has_refinement`](Self::has_refinement)): a default deriving it
    /// from a dense `forward(e_cell)` would silently cost O(m) per
    /// increment, defeating the point.
    fn update_weights(&self, cell: usize) -> Vec<(usize, f64)>;

    /// Upper bound on `update_weights(cell).len()` over every cell — the
    /// per-dimension factor in the streaming touch-count contract
    /// (`⌈log₂ m⌉ + 1` for Haar, the deepest root path for nominal, 1 for
    /// identity).
    fn max_update_support(&self) -> usize;

    /// The per-dimension noise-variance factor `Σ_j u(j)²/W(j)²` of an
    /// already-derived interval-sum support (as returned by
    /// [`query_weights`](Self::query_weights)), where `u` is the image of
    /// the support under the adjoint of [`refine`](Self::refine).
    ///
    /// With independent `Lap(λ/W(c))` noise on every coefficient and the
    /// refinement applied before serving, the noise in a range-count
    /// answer along this dimension contributes exactly this factor to the
    /// tensor-product variance `2λ²·∏ᵢ factorᵢ` (see
    /// [`variance`](crate::variance)). For transforms without a
    /// refinement the adjoint is the identity and the factor is the plain
    /// fold `Σ (entry/weight)²`; the nominal transform's mean subtraction
    /// couples sibling coefficients, so its implementation folds per
    /// sibling group.
    ///
    /// Deliberately **not** defaulted (like
    /// [`has_refinement`](Self::has_refinement)): a default fold ignoring
    /// the refinement adjoint would silently mispredict the variance of
    /// every refining transform.
    ///
    /// Cost: O(support) — the caller already paid the derivation, so
    /// computing the factor alongside a freshly derived support is free of
    /// additional derivations.
    fn support_variance_factor(&self, support: &[(usize, f64)]) -> f64;

    /// [`support_variance_factor`](Self::support_variance_factor) of the
    /// interval `[lo, hi]`, deriving the support internally — the one-shot
    /// entry point (O(polylog m) for Haar/nominal). Serving tiers that
    /// already hold the support should call `support_variance_factor`
    /// directly to avoid the second derivation.
    fn query_variance_factor(&self, lo: usize, hi: usize) -> f64 {
        self.support_variance_factor(&self.query_weights(lo, hi))
    }

    /// Generalized-sensitivity factor `P(A)` (§VI-C).
    fn p_value(&self) -> f64;

    /// Variance factor `H(A)` (§VI-C; `|A|` for identity per Corollary 1).
    fn h_value(&self) -> f64;

    /// Short kind label for diagnostics ("haar", "nominal", "identity").
    fn kind(&self) -> &'static str;

    /// Forward transform allocating its own scratch (tests / one-shot).
    fn forward_alloc(&self, src: &[f64], dst: &mut [f64])
    where
        Self: Sized,
    {
        let mut scratch = vec![0.0f64; self.scratch_len()];
        self.forward(src, dst, &mut scratch);
    }

    /// Inverse transform allocating its own scratch (tests / one-shot).
    fn inverse_alloc(&self, src: &[f64], dst: &mut [f64])
    where
        Self: Sized,
    {
        let mut scratch = vec![0.0f64; self.scratch_len()];
        self.inverse(src, dst, &mut scratch);
    }
}
