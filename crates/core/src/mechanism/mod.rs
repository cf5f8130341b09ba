//! The publishing mechanisms.
//!
//! - [`basic`] — Dwork et al.'s baseline (§II-B): independent `Lap(2/ε)`
//!   noise on every frequency-matrix cell ("Basic" in the experiments).
//! - [`privelet`] — Privelet and Privelet⁺ (§III–§VI): wavelet transform,
//!   weighted Laplace noise on the coefficients, refinement, inverse.
//! - [`hierarchical`] — a Hay et al.-style hierarchical mechanism with
//!   consistency post-processing for one-dimensional data (§VIII discusses
//!   it as concurrent work with comparable 1-D utility); included as a
//!   related-work baseline for the ablation benches.
//!
//! All mechanisms take the *exact* frequency matrix and a `u64` seed and
//! return a noisy [`privelet_data::FrequencyMatrix`] over the same schema. Both Basic and
//! Privelet draw their noise from the same derived RNG stream, so
//! `Privelet⁺ with SA = all attributes` reproduces Basic *bit-for-bit*
//! (the identity transform with unit weights and ρ = 1 is Basic) — an
//! equivalence the integration tests assert.

pub mod basic;
pub mod hierarchical;
pub mod privelet;

pub use basic::{publish_basic, publish_basic_geometric, publish_basic_with_noise};
pub use hierarchical::{publish_hierarchical_1d, publish_hierarchical_1d_kary};
pub use privelet::{
    publish_coefficients, publish_coefficients_with, publish_privelet, publish_privelet_with,
    publish_with_transform, publish_with_transform_on, CoefficientOutput, PriveletConfig,
    PriveletOutput,
};

/// RNG sub-stream shared by the mechanisms' noise draws (see module docs).
pub(crate) const NOISE_STREAM: u64 = 0x4E01_5EED;
