//! Dense d-dimensional `f64` arrays for the Privelet reproduction.
//!
//! This crate is the storage substrate underneath every other crate in the
//! workspace. It provides:
//!
//! - [`Shape`]: row-major shapes with stride arithmetic and coordinate
//!   iteration ([`shape`]).
//! - [`NdMatrix`]: a dense d-dimensional `f64` array ([`ndmatrix`]).
//! - Lane maps: applying a 1-D function to every axis-aligned lane of a
//!   matrix, possibly changing the length of that axis ([`lanes`]) — this is
//!   exactly the operation the paper's multi-dimensional Haar–nominal
//!   wavelet transform (standard decomposition, §VI-A) is built from.
//! - [`LaneExecutor`]: the allocation-free, optionally multi-threaded
//!   engine running pipelines of per-axis lane kernels over reusable
//!   ping-pong buffers ([`executor`]) — the hot path under every
//!   multi-dimensional transform in the workspace.
//! - [`WorkerPool`]: the persistent worker threads behind the executor's
//!   `parallel` feature — spawned once, fed stage chunks over channels,
//!   bit-identical to serial execution ([`pool`]).
//! - [`PrefixSums`]: d-dimensional inclusive prefix sums answering
//!   hyper-rectangle sums in O(2^d) ([`prefix`]) — the range-count query
//!   engine substrate.
//! - Rectangle iteration and naive rectangle sums for cross-checking
//!   ([`view`]).
//!
//! Everything is plain safe Rust over a flat `Vec<f64>`; counts are exact in
//! `f64` up to 2^53 which comfortably covers the paper's datasets
//! (n ≤ 10^7, m ≤ 2^26).

pub mod executor;
mod knob;
pub mod lanes;
pub mod ndmatrix;
pub mod pool;
pub mod prefix;
pub mod shape;
pub mod slice;
pub mod view;

pub use executor::{AxisStage, LaneExecutor, LaneKernel};
pub use lanes::map_lanes;
pub use ndmatrix::NdMatrix;
pub use pool::WorkerPool;
pub use prefix::{prefix_sum_axis, PrefixSums};
pub use shape::{CoordIter, Shape};
pub use slice::fix_axes;
pub use view::{rect_sum_naive, RectIter};

/// Errors produced by shape and matrix construction/access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatrixError {
    /// A shape was requested with no dimensions.
    EmptyShape,
    /// A shape was requested with a zero-sized dimension.
    ZeroDim { axis: usize },
    /// The total number of cells overflows `usize`.
    TooLarge,
    /// A data vector's length does not match the shape's cell count.
    DataLenMismatch { expected: usize, got: usize },
    /// A lane kernel's input length does not match the axis it is applied
    /// to (at that point in the pipeline).
    KernelLenMismatch {
        axis: usize,
        axis_len: usize,
        kernel_len: usize,
    },
    /// A coordinate vector has the wrong number of dimensions.
    WrongArity { expected: usize, got: usize },
    /// A coordinate is out of bounds on some axis.
    OutOfBounds {
        axis: usize,
        coord: usize,
        dim: usize,
    },
    /// An axis index is out of range.
    BadAxis { axis: usize, ndim: usize },
    /// A rectangle has `lo > hi` on some axis.
    EmptyRect { axis: usize },
    /// A lane kernel panicked on a worker-pool thread. The panic was
    /// contained (the pool stays usable), but the stage's output buffer
    /// is unspecified.
    WorkerPanicked,
}

impl std::fmt::Display for MatrixError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MatrixError::EmptyShape => write!(f, "shape must have at least one dimension"),
            MatrixError::ZeroDim { axis } => write!(f, "dimension {axis} has size zero"),
            MatrixError::TooLarge => write!(f, "shape cell count overflows usize"),
            MatrixError::DataLenMismatch { expected, got } => {
                write!(
                    f,
                    "data length {got} does not match shape cell count {expected}"
                )
            }
            MatrixError::KernelLenMismatch {
                axis,
                axis_len,
                kernel_len,
            } => {
                write!(
                    f,
                    "kernel consumes lanes of {kernel_len} but axis {axis} has length {axis_len}"
                )
            }
            MatrixError::WrongArity { expected, got } => {
                write!(f, "expected {expected} coordinates, got {got}")
            }
            MatrixError::OutOfBounds { axis, coord, dim } => {
                write!(
                    f,
                    "coordinate {coord} out of bounds for axis {axis} of size {dim}"
                )
            }
            MatrixError::BadAxis { axis, ndim } => {
                write!(f, "axis {axis} out of range for {ndim}-dimensional shape")
            }
            MatrixError::EmptyRect { axis } => {
                write!(f, "rectangle is empty on axis {axis} (lo > hi)")
            }
            MatrixError::WorkerPanicked => {
                write!(f, "a lane kernel panicked on a worker-pool thread")
            }
        }
    }
}

impl std::error::Error for MatrixError {}

/// Crate-local result alias.
pub type Result<T> = std::result::Result<T, MatrixError>;
