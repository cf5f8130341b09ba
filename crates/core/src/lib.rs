//! **Privelet** — differentially private data publishing via wavelet
//! transforms.
//!
//! This crate implements the primary contribution of *"Differential Privacy
//! via Wavelet Transforms"* (Xiao, Wang, Gehrke; ICDE 2010): publishing a
//! noisy frequency matrix `M*` of a relational table under ε-differential
//! privacy such that every range-count query answered on `M*` has noise
//! variance polylogarithmic in the matrix size `m` — versus the Θ(m)
//! variance of the Laplace-on-every-cell baseline.
//!
//! # Pipeline (§III)
//!
//! 1. Apply an invertible linear wavelet transform to the frequency matrix
//!    `M`, giving the coefficient matrix `C` ([`transform`]).
//! 2. Add independent Laplace noise with magnitude `λ/W(c)` to each
//!    coefficient, where the weight function `W` gives the transform
//!    generalized sensitivity `ρ` — this is `(2ρ/λ)`-differentially private
//!    (Lemma 1; [`privacy`]).
//! 3. Optionally refine the noisy coefficients (mean subtraction for
//!    nominal dimensions), then invert the transform to obtain `M*`.
//!
//! # Quick start
//!
//! ```
//! use privelet::mechanism::{publish_basic, publish_privelet, PriveletConfig};
//! use privelet_data::{medical::medical_example, FrequencyMatrix};
//!
//! let table = medical_example();
//! let m = FrequencyMatrix::from_table(&table).unwrap();
//!
//! // The baseline: Laplace noise on every cell (Dwork et al.).
//! let basic = publish_basic(&m, 1.0, 42).unwrap();
//!
//! // Privelet with the HN wavelet transform (pure Privelet: SA = ∅).
//! let out = publish_privelet(&m, &PriveletConfig::pure(1.0, 42)).unwrap();
//! assert_eq!(out.matrix.cell_count(), basic.cell_count());
//! ```
//!
//! # Modules
//!
//! - [`transform`] — the Haar (§IV), nominal (§V) and identity 1-D
//!   transforms and the multi-dimensional HN composition (§VI).
//! - [`privacy`] — generalized sensitivity and the ε ↔ λ accounting.
//! - [`bounds`] — the paper's analytic noise-variance bounds (Eqs. 4, 6, 7;
//!   Theorems 2–3; Corollary 1) and the `SA` selection rule.
//! - [`mechanism`] — the publishers: `Basic` (Dwork et al.), `Privelet` /
//!   `Privelet⁺`, and a Hay et al.-style hierarchical baseline (§VIII).
//! - [`sensitivity`] — empirical generalized-sensitivity probes used by
//!   tests and ablations.
//! - [`variance`] — exact per-query noise variance, computed sparsely from
//!   the same supports the serving stack derives (turns the paper's
//!   worst-case bounds into per-query error bars).

// No unsafe anywhere in this crate — enforced at compile time (and
// pinned by privelet-analysis lint US002). privelet-matrix is the only
// crate US002 allows unsafe in, and it holds none.
#![forbid(unsafe_code)]

pub mod bounds;
pub mod incremental;
pub mod mechanism;
pub mod privacy;
pub mod sensitivity;
pub mod streaming;
pub mod transform;
pub mod variance;

pub use incremental::{IncrementalRelease, IngestReport};
pub use mechanism::{
    publish_basic, publish_hierarchical_1d, publish_privelet, PriveletConfig, PriveletOutput,
};
pub use privacy::{BudgetLedger, PrivacyMeta};
pub use streaming::{DecayedSumRelease, SlidingWindowRelease};
pub use transform::{DimTransform, HnTransform, Transform1d};

/// Errors produced by the Privelet core.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// The HN transform needs at least one dimension.
    EmptyTransform,
    /// An `SA` index is out of range for the schema.
    BadSaIndex { index: usize, arity: usize },
    /// A matrix does not have the dimensions the transform expects.
    ShapeMismatch {
        expected: Vec<usize>,
        got: Vec<usize>,
    },
    /// A query-bound vector has the wrong number of dimensions.
    BadQueryArity { expected: usize, got: usize },
    /// A per-dimension accessor was given an axis index outside the
    /// transform's dimensions.
    BadAxis { axis: usize, ndim: usize },
    /// A query interval is invalid on one dimension (`lo > hi` or `hi`
    /// out of the domain).
    BadQueryBounds {
        axis: usize,
        lo: usize,
        hi: usize,
        len: usize,
    },
    /// ε must be finite and strictly positive.
    BadEpsilon(f64),
    /// An exponential-decay factor must be finite and strictly positive
    /// (α ≥ 1 is allowed: "decay" then amplifies, which some
    /// damped-oscillator workloads legitimately use).
    BadDecayFactor(f64),
    /// A sliding window must retain at least one epoch.
    BadWindow(usize),
    /// A streaming increment's delta is NaN or infinite; `index` is its
    /// position in the batch. Raised while the batch is validated, before
    /// any state changes: one non-finite delta would poison every
    /// coefficient on its update path, and no later increment (or window
    /// expiry) could subtract it back out.
    NonFiniteIncrement { index: usize, delta: f64 },
    /// A streaming release's lifetime privacy budget cannot cover the
    /// requested epoch. Raised *before* any noise is drawn, so a refused
    /// epoch never leaks a partially noised release.
    BudgetExhausted { requested: f64, remaining: f64 },
    /// A mechanism was applied to an unsupported schema (e.g. the 1-D
    /// hierarchical baseline on a multi-dimensional table).
    Unsupported(String),
    /// An underlying matrix operation failed.
    Matrix(privelet_matrix::MatrixError),
    /// An underlying data operation failed.
    Data(privelet_data::DataError),
    /// An underlying noise operation failed.
    Noise(privelet_noise::NoiseError),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::EmptyTransform => write!(f, "transform needs at least one dimension"),
            CoreError::BadSaIndex { index, arity } => {
                write!(f, "SA index {index} out of range for {arity} attributes")
            }
            CoreError::ShapeMismatch { expected, got } => {
                write!(f, "expected matrix dims {expected:?}, got {got:?}")
            }
            CoreError::BadQueryArity { expected, got } => {
                write!(
                    f,
                    "query bounds have {got} dimensions, transform has {expected}"
                )
            }
            CoreError::BadAxis { axis, ndim } => {
                write!(
                    f,
                    "axis {axis} out of range for a {ndim}-dimensional transform"
                )
            }
            CoreError::BadQueryBounds { axis, lo, hi, len } => {
                write!(
                    f,
                    "query interval [{lo}, {hi}] out of range on axis {axis} of length {len}"
                )
            }
            CoreError::BadEpsilon(e) => write!(f, "epsilon must be finite and > 0, got {e}"),
            CoreError::BadDecayFactor(a) => {
                write!(f, "decay factor must be finite and > 0, got {a}")
            }
            CoreError::BadWindow(n) => {
                write!(f, "sliding window must retain at least one epoch, got {n}")
            }
            CoreError::NonFiniteIncrement { index, delta } => {
                write!(
                    f,
                    "increment {index} of the batch has non-finite delta {delta}"
                )
            }
            CoreError::BudgetExhausted {
                requested,
                remaining,
            } => {
                write!(
                    f,
                    "privacy budget exhausted: epoch requested ε = {requested}, \
                     only {remaining} remains"
                )
            }
            CoreError::Unsupported(msg) => write!(f, "unsupported: {msg}"),
            CoreError::Matrix(e) => write!(f, "matrix error: {e}"),
            CoreError::Data(e) => write!(f, "data error: {e}"),
            CoreError::Noise(e) => write!(f, "noise error: {e}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Matrix(e) => Some(e),
            CoreError::Data(e) => Some(e),
            CoreError::Noise(e) => Some(e),
            _ => None,
        }
    }
}

impl From<privelet_matrix::MatrixError> for CoreError {
    fn from(e: privelet_matrix::MatrixError) -> Self {
        CoreError::Matrix(e)
    }
}

impl From<privelet_data::DataError> for CoreError {
    fn from(e: privelet_data::DataError) -> Self {
        CoreError::Data(e)
    }
}

impl From<privelet_noise::NoiseError> for CoreError {
    fn from(e: privelet_noise::NoiseError) -> Self {
        CoreError::Noise(e)
    }
}

/// Crate-local result alias.
pub type Result<T> = std::result::Result<T, CoreError>;
