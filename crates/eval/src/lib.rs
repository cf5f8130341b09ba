//! Experiment harness regenerating the paper's evaluation (§VII).
//!
//! - [`config`] — experiment configurations: the Brazil/US census datasets
//!   with the paper's ε sweep and 40 000-query workloads, the timing
//!   sweeps of §VII-B, and the `PRIVELET_SCALE` env switch between the
//!   fast scaled defaults and full paper scale.
//! - [`accuracy`] — runs the error experiments behind Figures 6–9: publish
//!   with Basic and Privelet⁺, answer the workload on each noisy matrix,
//!   and aggregate square / relative errors into coverage / selectivity
//!   quintile buckets.
//! - [`ground_truth`] — exact query evaluation against the raw data
//!   ([`ExactEvaluate`]); kept out of the serving tier on purpose, see
//!   the module docs.
//! - [`timing`] — runs the computation-time sweeps behind Figures 10–11.
//! - [`calibration`] — an across-seed z-score check that the serving
//!   engine's predicted error bars are honest
//!   ([`calibration::calibration_check`]).
//! - [`report`] — fixed-width table / markdown rendering of the series so
//!   each bench target prints the same rows the paper plots.

// No unsafe anywhere in this crate — enforced at compile time (and
// pinned by privelet-analysis lint US002). privelet-matrix is the only
// crate US002 allows unsafe in, and it holds none.
#![forbid(unsafe_code)]

pub mod accuracy;
pub mod calibration;
pub mod config;
pub mod ground_truth;
pub mod report;
pub mod timing;

pub use accuracy::{run_accuracy, AccuracyRun, MechanismSeries};
pub use calibration::{calibration_check, CalibrationReport};
pub use config::{AccuracyConfig, Scale};
pub use ground_truth::ExactEvaluate;
pub use report::{print_figure, print_timing};
pub use timing::{run_timing_m_sweep, run_timing_n_sweep, TimingPoint};

/// Errors produced by the harness.
#[derive(Debug)]
pub enum EvalError {
    /// Propagated from the data layer.
    Data(privelet_data::DataError),
    /// Propagated from the query layer.
    Query(privelet_query::QueryError),
    /// Propagated from the mechanism layer.
    Core(privelet::CoreError),
    /// Invalid harness configuration.
    BadConfig(String),
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::Data(e) => write!(f, "data error: {e}"),
            EvalError::Query(e) => write!(f, "query error: {e}"),
            EvalError::Core(e) => write!(f, "mechanism error: {e}"),
            EvalError::BadConfig(msg) => write!(f, "bad experiment config: {msg}"),
        }
    }
}

impl std::error::Error for EvalError {}

impl From<privelet_data::DataError> for EvalError {
    fn from(e: privelet_data::DataError) -> Self {
        EvalError::Data(e)
    }
}

impl From<privelet_query::QueryError> for EvalError {
    fn from(e: privelet_query::QueryError) -> Self {
        EvalError::Query(e)
    }
}

impl From<privelet::CoreError> for EvalError {
    fn from(e: privelet::CoreError) -> Self {
        EvalError::Core(e)
    }
}

/// Crate-local result alias.
pub type Result<T> = std::result::Result<T, EvalError>;
