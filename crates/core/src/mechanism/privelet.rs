//! The Privelet and Privelet⁺ publishers (§III–§VI).

use crate::bounds::recommend_sa;
use crate::privacy::PrivacyMeta;
use crate::transform::HnTransform;
use crate::Result;
use privelet_data::schema::Schema;
use privelet_data::FrequencyMatrix;
use privelet_matrix::{LaneExecutor, NdMatrix};
use privelet_noise::{derive_rng, Laplace, NoiseDistribution};
use std::collections::BTreeSet;

/// Configuration of a Privelet / Privelet⁺ run.
#[derive(Debug, Clone)]
pub struct PriveletConfig {
    /// The differential-privacy budget ε.
    pub epsilon: f64,
    /// Attributes excluded from the wavelet transform (Privelet⁺'s `SA`,
    /// Figure 5). Empty = pure Privelet.
    pub sa: BTreeSet<usize>,
    /// Noise seed.
    pub seed: u64,
}

impl PriveletConfig {
    /// Pure Privelet: every dimension is wavelet-transformed (`SA = ∅`).
    pub fn pure(epsilon: f64, seed: u64) -> Self {
        PriveletConfig {
            epsilon,
            sa: BTreeSet::new(),
            seed,
        }
    }

    /// Privelet⁺ with an explicit `SA` set.
    pub fn plus(epsilon: f64, sa: BTreeSet<usize>, seed: u64) -> Self {
        PriveletConfig { epsilon, sa, seed }
    }

    /// Privelet⁺ with `SA` chosen by the §VII-A rule
    /// (`|A| ≤ P(A)²·H(A)` ⇒ exclude from the transform).
    pub fn auto(schema: &Schema, epsilon: f64, seed: u64) -> Self {
        PriveletConfig {
            epsilon,
            sa: recommend_sa(schema),
            seed,
        }
    }
}

/// The result of a Privelet publish: the noisy matrix plus the privacy /
/// utility accounting that produced it.
#[derive(Debug, Clone)]
pub struct PriveletOutput {
    /// The noisy frequency matrix `M*` (same schema as the input).
    pub matrix: FrequencyMatrix,
    /// The privacy / utility accounting (ε, ρ, λ, variance bound) shared
    /// with [`CoefficientOutput`].
    pub meta: PrivacyMeta,
    /// Number of wavelet coefficients that received noise (`m'`; exceeds
    /// `m` when nominal transforms are over-complete).
    pub coefficient_count: usize,
}

/// Publishes a noisy frequency matrix under ε-DP with the HN wavelet
/// transform (Privelet; Privelet⁺ when `cfg.sa` is non-empty).
///
/// Steps: forward HN transform → add `Lap(λ/W_HN(c))` to every coefficient
/// with `λ = 2ρ/ε` → mean-subtraction refinement on nominal dimensions
/// ([`HnTransform::refine_in_place`]) → inverse transform.
pub fn publish_privelet(fm: &FrequencyMatrix, cfg: &PriveletConfig) -> Result<PriveletOutput> {
    publish_privelet_with(&mut LaneExecutor::new(), fm, cfg)
}

/// [`publish_privelet`] on a caller-provided [`LaneExecutor`].
///
/// Repeated publishes (epsilon sweeps, trial loops, serving) should hold
/// one executor so the transform engine's ping-pong buffers are reused;
/// each publish then performs only the two unavoidable matrix-sized
/// allocations (the coefficient matrix and the published matrix).
pub fn publish_privelet_with(
    exec: &mut LaneExecutor,
    fm: &FrequencyMatrix,
    cfg: &PriveletConfig,
) -> Result<PriveletOutput> {
    let hn = HnTransform::for_schema(fm.schema(), &cfg.sa)?;
    publish_with_transform_on(exec, fm, &hn, cfg.epsilon, cfg.seed)
}

/// Publishes with an explicitly constructed transform (used by ablations
/// that pair non-standard transforms with schemas, e.g. the HWT applied to
/// a nominal attribute's imposed order in §V-D).
pub fn publish_with_transform(
    fm: &FrequencyMatrix,
    hn: &HnTransform,
    epsilon: f64,
    seed: u64,
) -> Result<PriveletOutput> {
    publish_with_transform_on(&mut LaneExecutor::new(), fm, hn, epsilon, seed)
}

/// [`publish_with_transform`] on a caller-provided executor: the forward
/// and the inverse run on its buffers, and the refinement runs in place on
/// the noisy coefficients between them.
pub fn publish_with_transform_on(
    exec: &mut LaneExecutor,
    fm: &FrequencyMatrix,
    hn: &HnTransform,
    epsilon: f64,
    seed: u64,
) -> Result<PriveletOutput> {
    let (mut coeffs, meta) = noisy_coefficient_matrix(exec, fm, hn, epsilon, seed)?;

    // Step 3: refinement, then the inverse transform.
    hn.refine_in_place(&mut coeffs)?;
    let noisy = hn.inverse_with(exec, &coeffs)?;

    Ok(PriveletOutput {
        matrix: FrequencyMatrix::from_parts(fm.schema().clone(), noisy)?,
        meta,
        coefficient_count: hn.output_cells(),
    })
}

/// Unit-noise chunk size for the weighted Laplace step: large enough to
/// amortize the per-chunk virtual call to nothing, small enough (32 KiB)
/// to stay L1/L2-resident next to the coefficient slab it is applied to.
const NOISE_CHUNK: usize = 4096;

/// Steps 1–2 of a Privelet publish, shared by the matrix-publishing and
/// coefficient-publishing paths so both draw the identical noise stream
/// for a given seed: forward HN transform, then `Lap(λ/W_HN(c))` on every
/// coefficient, drawn through the [`NoiseDistribution`] seam.
fn noisy_coefficient_matrix(
    exec: &mut LaneExecutor,
    fm: &FrequencyMatrix,
    hn: &HnTransform,
    epsilon: f64,
    seed: u64,
) -> Result<(NdMatrix, PrivacyMeta)> {
    let meta = PrivacyMeta::for_transform(hn, epsilon)?;

    // Step 1: wavelet transform.
    let mut coeffs = hn.forward_with(exec, fm.matrix())?;

    // Step 2: weighted Laplace noise.
    add_weighted_noise(hn, coeffs.as_mut_slice(), meta.lambda, seed)?;
    Ok((coeffs, meta))
}

/// The weighted-Laplace injection step of a publish, in place on an exact
/// coefficient slab laid out like `hn`'s output matrix (row-major):
/// `Lap(λ/W) == (λ/W) · Lap(1)`, so one unit-scale sampler serves every
/// coefficient. The unit draws are fused: `for_each_weight` visits linear
/// indices `0..total` in order, so refilling a chunk buffer through
/// `sample_into` consumes the RNG in exactly the per-coefficient order —
/// the per-seed release is bit-identical to the unfused loop — while
/// paying one virtual call per chunk instead of one per coefficient.
///
/// This is the *epoch re-draw seam*: both the one-shot publishers here and
/// the streaming [`IncrementalRelease`](crate::incremental) epoch path
/// inject noise through this one function, so an epoch published from
/// incrementally maintained exact coefficients is bit-identical to
/// `publish_coefficients` run from scratch with the same seed.
pub(crate) fn add_weighted_noise(
    hn: &HnTransform,
    data: &mut [f64],
    lambda: f64,
    seed: u64,
) -> Result<()> {
    let unit: &dyn NoiseDistribution = &Laplace::new(1.0)?;
    let mut rng = derive_rng(seed, super::NOISE_STREAM);
    let total = data.len();
    let mut buf = vec![0.0f64; NOISE_CHUNK.min(total.max(1))];
    let mut pos = buf.len();
    hn.for_each_weight(|lin, w| {
        if pos == buf.len() {
            let n = (total - lin).min(buf.len());
            unit.sample_into(&mut rng, &mut buf[..n]);
            pos = 0;
        }
        data[lin] += lambda / w * buf[pos];
        pos += 1;
    });
    Ok(())
}

/// A Privelet release kept in the *coefficient domain*: the noisy
/// coefficient matrix plus the schema / transform metadata needed to
/// interpret it.
///
/// Skipping the inverse transform changes the serving cost model: a
/// range-count query intersects only O(log m) Haar coefficients per
/// dimension (§IV–§V), so a coefficient-domain engine built over this
/// release answers queries in O(∏ polylog mᵢ) without ever materializing
/// the m-cell matrix — the right shape when queries arrive online and m
/// is large. [`to_matrix`](Self::to_matrix) recovers exactly what
/// [`publish_privelet`] would have produced for the same seed, bit for
/// bit, so nothing is lost by publishing coefficients.
///
/// The stored coefficients are the raw noisy ones (no refinement);
/// consumers that serve them directly must refine a copy once with
/// [`HnTransform::refine_in_place`] — the query crate's `ReleaseCore`
/// does this at construction.
#[derive(Debug, Clone)]
pub struct CoefficientOutput {
    /// The schema of the underlying frequency matrix.
    pub schema: Schema,
    /// The HN transform that produced the coefficients.
    pub transform: HnTransform,
    /// The noisy, unrefined coefficient matrix (dims =
    /// `transform.output_dims()`).
    pub coefficients: NdMatrix,
    /// The privacy / utility accounting (ε, ρ, λ, variance bound) shared
    /// with [`PriveletOutput`]. Serving tiers carry this into their
    /// release cores so every answer can report its exact noise std-dev.
    pub meta: PrivacyMeta,
}

impl CoefficientOutput {
    /// Number of published coefficients `m'`.
    pub fn coefficient_count(&self) -> usize {
        self.coefficients.len()
    }

    /// Reconstructs the noisy frequency matrix (refinement of a copy of
    /// the coefficients, then the inverse transform) on a throwaway
    /// executor. Bit-identical to the matrix [`publish_privelet`] produces
    /// for the same input, config and seed.
    pub fn to_matrix(&self) -> Result<FrequencyMatrix> {
        let mut refined = self.coefficients.clone();
        self.transform.refine_in_place(&mut refined)?;
        let noisy = self.transform.inverse(&refined)?;
        Ok(FrequencyMatrix::from_parts(self.schema.clone(), noisy)?)
    }
}

/// Publishes the *noisy coefficient matrix* of a Privelet / Privelet⁺ run
/// instead of inverting it — the serve-from-coefficients flow. Privacy is
/// identical to [`publish_privelet`] (the release is a post-processing cut
/// of the same mechanism at the same point ε-DP is established: after the
/// Laplace step).
pub fn publish_coefficients(
    fm: &FrequencyMatrix,
    cfg: &PriveletConfig,
) -> Result<CoefficientOutput> {
    publish_coefficients_with(&mut LaneExecutor::new(), fm, cfg)
}

/// [`publish_coefficients`] on a caller-provided [`LaneExecutor`].
pub fn publish_coefficients_with(
    exec: &mut LaneExecutor,
    fm: &FrequencyMatrix,
    cfg: &PriveletConfig,
) -> Result<CoefficientOutput> {
    let hn = HnTransform::for_schema(fm.schema(), &cfg.sa)?;
    let (coefficients, meta) = noisy_coefficient_matrix(exec, fm, &hn, cfg.epsilon, cfg.seed)?;
    Ok(CoefficientOutput {
        schema: fm.schema().clone(),
        transform: hn,
        coefficients,
        meta,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::publish_basic;
    use privelet_data::medical::medical_example;
    use privelet_data::schema::Attribute;

    fn medical_fm() -> FrequencyMatrix {
        FrequencyMatrix::from_table(&medical_example()).unwrap()
    }

    #[test]
    fn publishes_same_shape_with_accounting() {
        let fm = medical_fm();
        let out = publish_privelet(&fm, &PriveletConfig::pure(1.0, 3)).unwrap();
        assert_eq!(out.matrix.schema().dims(), fm.schema().dims());
        // Age 5 -> Haar P = 1+3 = 4; diabetes flat(2) -> nominal P = 2.
        assert_eq!(out.meta.rho, 8.0);
        assert_eq!(out.meta.lambda, 16.0);
        assert_eq!(out.meta.epsilon, 1.0);
        // Coefficients: padded 8 (Haar) x 3 nodes (flat-2 hierarchy).
        assert_eq!(out.coefficient_count, 24);
        assert!(out.meta.variance_bound > 0.0);
    }

    #[test]
    fn reused_executor_is_bit_identical_to_throwaway() {
        // The engine's buffers carry garbage from earlier publishes; reuse
        // must never leak it into results.
        let fm = medical_fm();
        let mut exec = LaneExecutor::new();
        for seed in 0..8u64 {
            let cfg = PriveletConfig::pure(1.0, seed);
            let warm = publish_privelet_with(&mut exec, &fm, &cfg).unwrap();
            let cold = publish_privelet(&fm, &cfg).unwrap();
            assert_eq!(
                warm.matrix.matrix().as_slice(),
                cold.matrix.matrix().as_slice(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn coefficient_publish_reconstructs_matrix_publish_bitwise() {
        // Same seed, same noise stream: inverting the published
        // coefficients must recover publish_privelet's matrix bit for bit,
        // with identical accounting.
        let fm = medical_fm();
        for seed in [3u64, 7, 99] {
            let cfg = PriveletConfig::pure(1.0, seed);
            let dense = publish_privelet(&fm, &cfg).unwrap();
            let coeff = publish_coefficients(&fm, &cfg).unwrap();
            assert_eq!(coeff.coefficient_count(), dense.coefficient_count);
            assert_eq!(coeff.meta, dense.meta);
            let back = coeff.to_matrix().unwrap();
            assert_eq!(
                back.matrix().as_slice(),
                dense.matrix.matrix().as_slice(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn coefficient_publish_shape_and_config_handling() {
        let fm = medical_fm();
        let out = publish_coefficients(&fm, &PriveletConfig::pure(1.0, 5)).unwrap();
        // Age 5 pads to 8 (Haar); diabetes flat(2) has 3 nodes (nominal).
        assert_eq!(out.coefficients.dims(), &[8, 3]);
        assert_eq!(out.transform.output_dims(), vec![8, 3]);
        assert_eq!(out.schema.dims(), fm.schema().dims());
        // Bad configs are rejected exactly like the dense publisher.
        assert!(publish_coefficients(&fm, &PriveletConfig::pure(0.0, 1)).is_err());
        let bad_sa = PriveletConfig::plus(1.0, BTreeSet::from([9]), 1);
        assert!(publish_coefficients(&fm, &bad_sa).is_err());
    }

    #[test]
    fn chunked_weighted_noise_pins_the_prefusion_stream() {
        // The chunk-buffered weighted step must release exactly what the
        // pre-fusion per-coefficient loop released for the same seed —
        // that loop (forward transform, then one unit draw per linear
        // index in for_each_weight order) is reproduced here as the
        // reference. Domains straddle the 4096-coefficient chunk size so
        // full-chunk, partial-tail, and single-chunk refills all pin.
        use privelet_data::schema::Attribute;
        use privelet_noise::derive_rng;
        for dims in [vec![256usize], vec![4096, 2], vec![64, 64, 4]] {
            let attrs: Vec<Attribute> = dims
                .iter()
                .enumerate()
                .map(|(i, &d)| Attribute::ordinal(format!("a{i}"), d))
                .collect();
            let schema = Schema::new(attrs).unwrap();
            let cells: usize = dims.iter().product();
            let data: Vec<f64> = (0..cells).map(|i| ((i * 13) % 29) as f64).collect();
            let fm = FrequencyMatrix::from_parts(schema, NdMatrix::from_vec(&dims, data).unwrap())
                .unwrap();
            let cfg = PriveletConfig::pure(1.0, 77);

            let hn = HnTransform::for_schema(fm.schema(), &cfg.sa).unwrap();
            let meta = PrivacyMeta::for_transform(&hn, cfg.epsilon).unwrap();
            let unit = Laplace::new(1.0).unwrap();
            let dyn_unit: &dyn NoiseDistribution = &unit;
            let mut rng = derive_rng(cfg.seed, crate::mechanism::NOISE_STREAM);
            let mut exec = LaneExecutor::new();
            let mut reference = hn.forward_with(&mut exec, fm.matrix()).unwrap();
            let slab = reference.as_mut_slice();
            hn.for_each_weight(|lin, w| {
                slab[lin] += meta.lambda / w * dyn_unit.sample(&mut rng);
            });

            let fused = publish_coefficients(&fm, &cfg).unwrap();
            for (i, (a, b)) in fused
                .coefficients
                .as_slice()
                .iter()
                .zip(reference.as_slice())
                .enumerate()
            {
                assert_eq!(a.to_bits(), b.to_bits(), "dims {dims:?} coeff {i}");
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let fm = medical_fm();
        let a = publish_privelet(&fm, &PriveletConfig::pure(1.0, 3)).unwrap();
        let b = publish_privelet(&fm, &PriveletConfig::pure(1.0, 3)).unwrap();
        assert_eq!(a.matrix.matrix().as_slice(), b.matrix.matrix().as_slice());
        let c = publish_privelet(&fm, &PriveletConfig::pure(1.0, 4)).unwrap();
        assert_ne!(a.matrix.matrix().as_slice(), c.matrix.matrix().as_slice());
    }

    #[test]
    fn sa_all_reproduces_basic_exactly() {
        // Privelet+ with SA = all attributes is the identity transform with
        // unit weights and rho = 1 — i.e. Basic, bit for bit (same noise
        // stream).
        let fm = medical_fm();
        let eps = 0.8;
        let seed = 99;
        let sa = BTreeSet::from([0usize, 1]);
        let plus = publish_privelet(&fm, &PriveletConfig::plus(eps, sa, seed)).unwrap();
        let basic = publish_basic(&fm, eps, seed).unwrap();
        assert_eq!(plus.meta.rho, 1.0);
        assert_eq!(plus.matrix.matrix().as_slice(), basic.matrix().as_slice());
    }

    #[test]
    fn auto_config_uses_recommended_sa() {
        let schema = Schema::new(vec![
            Attribute::ordinal("small", 4),
            Attribute::ordinal("large", 1 << 12),
        ])
        .unwrap();
        let cfg = PriveletConfig::auto(&schema, 1.0, 1);
        assert!(cfg.sa.contains(&0));
        assert!(!cfg.sa.contains(&1));
    }

    #[test]
    fn rejects_bad_epsilon_and_sa() {
        let fm = medical_fm();
        assert!(publish_privelet(&fm, &PriveletConfig::pure(0.0, 1)).is_err());
        assert!(publish_privelet(&fm, &PriveletConfig::pure(-2.0, 1)).is_err());
        let bad_sa = PriveletConfig::plus(1.0, BTreeSet::from([9]), 1);
        assert!(publish_privelet(&fm, &bad_sa).is_err());
    }

    #[test]
    fn noise_shrinks_as_epsilon_grows() {
        // Average absolute cell perturbation across trials must decrease
        // when the privacy budget loosens.
        let fm = medical_fm();
        let mean_abs = |eps: f64| -> f64 {
            let mut total = 0.0;
            let trials = 200;
            for t in 0..trials {
                let out = publish_privelet(&fm, &PriveletConfig::pure(eps, t)).unwrap();
                total += out.matrix.matrix().l1_distance(fm.matrix()).unwrap();
            }
            total / trials as f64
        };
        let tight = mean_abs(0.5);
        let loose = mean_abs(2.0);
        assert!(
            loose < tight / 2.0,
            "eps=2 perturbation {loose} should be well under eps=0.5's {tight}"
        );
    }
}
