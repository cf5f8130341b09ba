//! Empirical calibration of the serving engine's predicted error bars:
//! [`calibration_check`] republishes a release across seeds and pools the
//! z-scores of every annotated answer against the exact evaluation.

use crate::ground_truth::ExactEvaluate;
use crate::Result;
use privelet::mechanism::{publish_coefficients_with, PriveletConfig};
use privelet_data::FrequencyMatrix;
use privelet_matrix::LaneExecutor;
use privelet_noise::RunningStats;
use privelet_query::{ConcurrentEngine, RangeQuery};

/// Empirical calibration of the predicted error bars across seeds.
///
/// For every seed the release is re-published and every workload query
/// answered with [`answer_with_error`]; the z-score
/// `(noisy − exact)/predicted_std` is pooled across seeds and queries.
/// If the predicted std-dev is honest the scores have mean ≈ 0 and
/// variance ≈ 1 regardless of the per-query noise law (a weighted sum of
/// independent Laplace draws whose shape varies from a single Laplace to
/// a near-Gaussian mixture).
///
/// [`answer_with_error`]: privelet_query::ConcurrentEngine::answer_with_error
#[derive(Debug, Clone)]
pub struct CalibrationReport {
    /// Seeds (independent publishes) pooled.
    pub seeds: usize,
    /// Workload queries scored per seed.
    pub queries: usize,
    /// Mean of the pooled z-scores (≈ 0 when calibrated: the mechanism
    /// is unbiased).
    pub mean_z: f64,
    /// Variance of the pooled z-scores (≈ 1 when the predicted variance
    /// equals the empirical one).
    pub z_variance: f64,
    /// Fraction of (seed, query) answers whose Chebyshev `beta` interval
    /// covered the exact answer. Chebyshev is conservative, so this sits
    /// well above `beta`.
    pub coverage: f64,
    /// The confidence level the coverage was measured at.
    pub beta: f64,
    /// Mean predicted std-dev across the pool (scale context for
    /// `mean_z`).
    pub mean_predicted_std: f64,
}

/// Publishes `fm` once per seed (`cfg`'s seed field is replaced by
/// `seed_base + s` for `s` in `0..seeds`) and scores every query's
/// annotated answer against the exact evaluation. `beta` is the
/// confidence level for the coverage column.
pub fn calibration_check(
    fm: &FrequencyMatrix,
    cfg: &PriveletConfig,
    queries: &[RangeQuery],
    seeds: usize,
    beta: f64,
) -> Result<CalibrationReport> {
    let exact: Vec<f64> = queries
        .iter()
        .map(|q| q.evaluate(fm))
        .collect::<std::result::Result<_, _>>()?;
    let mut exec = LaneExecutor::new();
    let mut z = RunningStats::new();
    let mut std_sum = 0.0f64;
    let mut covered = 0usize;
    for s in 0..seeds {
        let mut seeded = cfg.clone();
        seeded.seed = cfg.seed.wrapping_add(s as u64);
        let release = publish_coefficients_with(&mut exec, fm, &seeded)?;
        let engine = ConcurrentEngine::from_output(&release)?;
        for (q, &truth) in queries.iter().zip(&exact) {
            let a = engine.answer_with_error(q)?;
            z.push(a.z_score(truth));
            std_sum += a.std_dev;
            let (lo, hi) = a.interval(beta)?;
            if lo <= truth && truth <= hi {
                covered += 1;
            }
        }
    }
    let n = seeds * queries.len();
    Ok(CalibrationReport {
        seeds,
        queries: queries.len(),
        mean_z: z.mean(),
        z_variance: z.variance(),
        coverage: if n == 0 {
            0.0
        } else {
            covered as f64 / n as f64
        },
        beta,
        mean_predicted_std: if n == 0 { 0.0 } else { std_sum / n as f64 },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use privelet_data::uniform::{self, TimingConfig};
    use privelet_query::{generate_workload, WorkloadConfig};

    #[test]
    fn calibration_pools_z_scores_across_seeds() {
        let cfg = TimingConfig::with_total_cells(1 << 8, 2_000, 3);
        let table = uniform::generate(&cfg).unwrap();
        let fm = FrequencyMatrix::from_table(&table).unwrap();
        let queries = generate_workload(
            fm.schema(),
            &WorkloadConfig {
                n_queries: 16,
                min_predicates: 1,
                max_predicates: 3,
                seed: 9,
            },
        )
        .unwrap();
        let report =
            calibration_check(&fm, &PriveletConfig::pure(1.0, 100), &queries, 48, 0.9).unwrap();
        assert_eq!(report.seeds, 48);
        assert_eq!(report.queries, 16);
        assert!(report.mean_predicted_std > 0.0);
        // 48·16 pooled scores: mean near 0, variance near 1. Tolerances
        // are loose — the stress-gated root test tightens them.
        assert!(report.mean_z.abs() < 0.25, "mean z {}", report.mean_z);
        assert!(
            report.z_variance > 0.5 && report.z_variance < 1.6,
            "z variance {}",
            report.z_variance
        );
        // Chebyshev coverage must clear its level (it is conservative).
        assert!(
            report.coverage >= report.beta,
            "coverage {} below beta {}",
            report.coverage,
            report.beta
        );
    }
}
