//! Range-count queries over frequency matrices.
//!
//! The paper optimizes published data for OLAP-style range-count queries
//! (§II-A):
//!
//! ```sql
//! SELECT COUNT(*) FROM T
//! WHERE A1 IN S1 AND A2 IN S2 AND ... AND Ad IN Sd
//! ```
//!
//! where each ordinal `Sᵢ` is an interval and each nominal `Sᵢ` is a leaf or
//! the set of leaves under a hierarchy node. Because nominal domains are
//! ordered by hierarchy traversal (see `privelet-hierarchy`), *every*
//! predicate resolves to a contiguous index interval, and a query is a
//! hyper-rectangle sum over the (noisy) frequency matrix.
//!
//! Modules:
//! - [`predicate`] — per-attribute predicates and their interval resolution.
//! - [`range_query`] — the query type, naive and prefix-sum evaluation,
//!   coverage and selectivity.
//! - [`engine`] — [`AnnotatedAnswer`]: an answer with its exact noise
//!   std-dev, confidence interval and z-score.
//! - [`release`] — [`ReleaseCore`]: the immutable `Send + Sync` core of
//!   one coefficient-domain release (schema, transform, and the noisy
//!   coefficients stored refined, with identity axes as prefix sums),
//!   shared across threads via `Arc`. It holds every cache-free call:
//!   uncached answers, and batch plan compile and execute.
//! - [`concurrent`] — [`ConcurrentEngine`]: the one online serving engine
//!   for every release, a shared core plus one support cache of fixed
//!   size — O(log m) coefficient reads per Haar dimension and two per
//!   identity (SA) dimension, instead of an O(m) reconstruction before
//!   the first query.
//! - [`plan`] — [`QueryPlan`]: a batch compiled into interned supports
//!   and CSR-style span lists over one contiguous arena.
//! - [`cache`] — [`DimSupport`], the one support layout both paths read
//!   (stride-premultiplied `(offset, weight)` pairs over the core's
//!   stored coefficients, derived by one function, recording the axis,
//!   stride and transform a dot checks), the engine's crate-private
//!   memoization of it (1024 direct-mapped slots, one lock each), and
//!   its [`CacheStats`].
//! - [`workload`] — the random workload generator of §VII-A (40 000 queries,
//!   1–4 predicates each).
//! - [`metrics`] — square error and relative error with the sanity bound
//!   `s = 0.1% · n`.
//! - [`buckets`] — quintile bucketing of queries by coverage / selectivity
//!   used to produce the series in Figures 6–9.
//!
//! Plans and online answers dot their supports through one crate-private
//! kernel, so a query's answer is bitwise identical on every path.

// No unsafe anywhere in this crate — enforced at compile time (and
// pinned by privelet-analysis lint US002). privelet-matrix is the only
// crate US002 allows unsafe in, and it holds none.
#![forbid(unsafe_code)]

pub mod buckets;
pub mod cache;
pub mod concurrent;
pub mod engine;
mod kernel;
pub mod metrics;
pub mod plan;
pub mod predicate;
pub mod range_query;
pub mod release;
pub mod workload;

pub use buckets::{quantile_rows, BucketRow};
pub use cache::{CacheStats, DimSupport};
pub use concurrent::ConcurrentEngine;
pub use engine::AnnotatedAnswer;
pub use metrics::{relative_error, sanity_bound, square_error};
pub use plan::QueryPlan;
pub use predicate::Predicate;
pub use range_query::RangeQuery;
pub use release::ReleaseCore;
pub use workload::{generate_workload, WorkloadConfig};

/// Errors produced by query construction and evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// The query has a different number of predicates than the schema has
    /// attributes.
    WrongArity { expected: usize, got: usize },
    /// An ordinal interval is invalid (`lo > hi` or `hi` out of domain).
    BadInterval {
        attr: usize,
        lo: usize,
        hi: usize,
        size: usize,
    },
    /// An interval predicate was applied to a nominal attribute or a node
    /// predicate to an ordinal attribute.
    KindMismatch { attr: usize },
    /// A node id is out of range for the attribute's hierarchy.
    BadNode {
        attr: usize,
        node: usize,
        nodes: usize,
    },
    /// The matrix/prefix structure does not match the schema.
    ShapeMismatch,
    /// Error-annotated answering was requested on a release that carries
    /// no privacy accounting (a core built from a bare coefficient
    /// matrix): without λ the noise std-dev is unknowable. Build the
    /// release from a publisher output (`from_output` /
    /// `ReleaseCore::with_meta`) to get error accounting.
    MissingPrivacyMeta,
    /// A release core's stored coefficient matrix (after refinement and
    /// the identity axes' prefix sums) holds a NaN or ±∞; `index` is the
    /// flat (row-major) index of the first one. Refused when the core is
    /// built, because one such coefficient silently poisons every answer
    /// whose support reads it. It comes from a non-finite published
    /// coefficient, or from finite ones whose refinement or prefix sums
    /// overflow.
    NonFiniteCoefficient { index: usize },
    /// A confidence level outside the open interval `(0, 1)` was passed
    /// to [`AnnotatedAnswer::interval`](crate::AnnotatedAnswer::interval):
    /// Chebyshev's `1/√(1−β)` is undefined or meaningless there.
    BadConfidenceLevel(f64),
    /// A transform-layer failure that has no structural query-layer
    /// counterpart; carries the rendered core error so the cause (the
    /// offending dimension, bounds, or shapes) is preserved.
    Transform(String),
    /// The workload generator was misconfigured.
    BadConfig(String),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::WrongArity { expected, got } => {
                write!(
                    f,
                    "query has {got} predicates, schema has {expected} attributes"
                )
            }
            QueryError::BadInterval { attr, lo, hi, size } => {
                write!(
                    f,
                    "bad interval [{lo},{hi}] for attribute {attr} of size {size}"
                )
            }
            QueryError::KindMismatch { attr } => {
                write!(
                    f,
                    "predicate kind does not match attribute {attr}'s domain kind"
                )
            }
            QueryError::BadNode { attr, node, nodes } => {
                write!(
                    f,
                    "node {node} out of range for attribute {attr} ({nodes} nodes)"
                )
            }
            QueryError::ShapeMismatch => write!(f, "matrix shape does not match schema"),
            QueryError::MissingPrivacyMeta => {
                write!(
                    f,
                    "release carries no privacy metadata (λ); build it from a \
                     publisher output to get error-annotated answers"
                )
            }
            QueryError::NonFiniteCoefficient { index } => {
                write!(f, "coefficient {index} is not finite (NaN or ±∞)")
            }
            QueryError::BadConfidenceLevel(beta) => {
                write!(f, "confidence level must be in (0, 1), got {beta}")
            }
            QueryError::Transform(msg) => write!(f, "transform error: {msg}"),
            QueryError::BadConfig(msg) => write!(f, "bad workload config: {msg}"),
        }
    }
}

impl std::error::Error for QueryError {}

/// Converts transform-side failures into faithful query-layer errors:
/// structural variants map onto their query-layer counterparts (so
/// messages keep naming the offending dimension and bounds), everything
/// else is preserved verbatim inside [`QueryError::Transform`].
impl From<privelet::CoreError> for QueryError {
    fn from(e: privelet::CoreError) -> Self {
        use privelet::CoreError;
        match e {
            CoreError::BadQueryArity { expected, got } => QueryError::WrongArity { expected, got },
            CoreError::BadQueryBounds { axis, lo, hi, len } => QueryError::BadInterval {
                attr: axis,
                lo,
                hi,
                size: len,
            },
            CoreError::ShapeMismatch { .. } => QueryError::ShapeMismatch,
            other => QueryError::Transform(other.to_string()),
        }
    }
}

/// Crate-local result alias.
pub type Result<T> = std::result::Result<T, QueryError>;
