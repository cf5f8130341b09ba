//! Serving-path comparison: the unified answering engine's
//! coefficient-domain paths (compiled batch plan + cached online loop)
//! versus reconstruct-then-prefix-sum.
//!
//! The accuracy harness ([`accuracy`](crate::accuracy)) evaluates 40 000
//! queries per published matrix, which favors the O(m)-build / O(2^d)-
//! per-query prefix path. A serving tier sees the opposite regime:
//! queries arrive in batches or trickle in online over a large domain,
//! so the O(polylog m)-per-query coefficient paths of
//! [`ConcurrentEngine`] win.
//! This module measures the serving paths on the same release and
//! checks they agree, reporting the batch plan's support-dedup ratio
//! and the online cache's hit rate alongside the timings — the two
//! amortization levers the serving engine adds. A fourth pass drives
//! the engine from many threads: scoped threads share one compiled plan
//! and one engine over the same core with a fresh cache, and the report
//! carries the sharded cache's per-shard counters so capacity and shard
//! count can be sized from real traffic.

use crate::ground_truth::ExactEvaluate;
use crate::Result;
use privelet::mechanism::{publish_coefficients_with, PriveletConfig};
use privelet::variance::{dense_dim_variance_factor, exact_query_variance};
use privelet_data::FrequencyMatrix;
use privelet_matrix::LaneExecutor;
use privelet_noise::RunningStats;
use privelet_query::{Answerer, CacheStats, ConcurrentEngine, QueryError, RangeQuery};
use std::sync::Arc;
use std::time::Instant;

/// Scoped serving threads the concurrent pass spawns. Four matches the
/// acceptance contract (≥ 4 threads against one shared plan) while
/// staying cheap on single-CPU CI runners.
pub const CONCURRENT_THREADS: usize = 4;

/// Timings, agreement and amortization diagnostics of the serving paths
/// on one release.
#[derive(Debug, Clone)]
pub struct ServingReport {
    /// Frequency-matrix cell count m.
    pub cells: usize,
    /// Published coefficient count m'.
    pub coefficients: usize,
    /// Workload size.
    pub queries: usize,
    /// Worst absolute disagreement across the three paths (batch plan,
    /// online cached loop, reconstruct + prefix sums) over the workload
    /// (floating-point rounding only; must be tiny).
    pub max_abs_diff: f64,
    /// Seconds to build the coefficient-domain engine (refinement pass).
    pub coeff_build_secs: f64,
    /// Seconds to compile the workload into a `QueryPlan` (support
    /// interning + term flattening).
    pub plan_compile_secs: f64,
    /// Seconds to execute the compiled plan (the batch path).
    pub coeff_answer_secs: f64,
    /// Seconds to answer the workload one query at a time through the
    /// support cache (the online path).
    pub online_answer_secs: f64,
    /// Seconds to reconstruct the matrix and build prefix sums.
    pub prefix_build_secs: f64,
    /// Seconds to answer the workload on the prefix sums.
    pub prefix_answer_secs: f64,
    /// Mean coefficient reads per query (`∏ᵢ |supportᵢ|`).
    pub mean_support: f64,
    /// Distinct `(dim, lo, hi)` supports the plan derived.
    pub distinct_supports: usize,
    /// Fraction of the batch's support derivations the plan's interning
    /// avoided (`1 − distinct/requested`).
    pub dedup_ratio: f64,
    /// Hit rate of the online support cache over the one-at-a-time pass.
    pub cache_hit_rate: f64,
    /// Wall-clock seconds for [`CONCURRENT_THREADS`] scoped threads to
    /// each execute the shared compiled plan and answer the workload
    /// online through one shared [`ConcurrentEngine`].
    pub concurrent_answer_secs: f64,
    /// Threads the concurrent pass spawned (= [`CONCURRENT_THREADS`]).
    pub concurrent_threads: usize,
    /// Shards of the concurrent engine's support cache.
    pub shard_count: usize,
    /// Per-shard hit/miss/eviction counters after the concurrent pass,
    /// in shard order; fold them for the aggregate (its hit rate is
    /// [`sharded_hit_rate`](Self::sharded_hit_rate)).
    pub shard_stats: Vec<CacheStats>,
    /// Aggregate hit rate of the sharded cache over the concurrent pass.
    pub sharded_hit_rate: f64,
    /// Mean predicted noise std-dev over the workload, read off the
    /// plan's compile-time-interned variance factors (0.0 for an empty
    /// workload) — the error bar a dashboard would print next to the
    /// mean answer.
    pub mean_predicted_std: f64,
    /// Queries the sparse-vs-dense variance timing below covered (a
    /// small prefix of the workload — the dense oracle is O(m'·(m+m'))
    /// per dimension and exists only as a correctness reference).
    pub variance_timed_queries: usize,
    /// Mean seconds per query to compute the exact variance sparsely
    /// (`exact_query_variance`, O(polylog m) per dimension).
    pub variance_sparse_secs_per_query: f64,
    /// Mean seconds per query for the dense basis-vector oracle on the
    /// same queries.
    pub variance_dense_secs_per_query: f64,
}

impl ServingReport {
    /// Total wall-clock of the batch coefficient path (build + compile +
    /// execute).
    pub fn coeff_total_secs(&self) -> f64 {
        self.coeff_build_secs + self.plan_compile_secs + self.coeff_answer_secs
    }

    /// Total wall-clock of the reconstruct path (build + answer).
    pub fn prefix_total_secs(&self) -> f64 {
        self.prefix_build_secs + self.prefix_answer_secs
    }

    /// Queries per second sustained by the compiled-plan execution path
    /// (excluding compilation — plans are compiled once and executed per
    /// refresh). The headline number the `plan_throughput` bench tracks;
    /// 0.0 for an empty workload. Compare with
    /// [`online_queries_per_sec`](Self::online_queries_per_sec) to size
    /// the batch-vs-online tradeoff for a deployment.
    pub fn plan_queries_per_sec(&self) -> f64 {
        if self.coeff_answer_secs > 0.0 {
            self.queries as f64 / self.coeff_answer_secs
        } else {
            0.0
        }
    }

    /// Queries per second sustained by the cached online path.
    pub fn online_queries_per_sec(&self) -> f64 {
        if self.online_answer_secs > 0.0 {
            self.queries as f64 / self.online_answer_secs
        } else {
            0.0
        }
    }

    /// How many times faster the sparse exact-variance path is than the
    /// dense basis-vector oracle on this release (0.0 when nothing was
    /// timed).
    pub fn variance_speedup(&self) -> f64 {
        if self.variance_sparse_secs_per_query > 0.0 {
            self.variance_dense_secs_per_query / self.variance_sparse_secs_per_query
        } else {
            0.0
        }
    }
}

/// Publishes `fm` in the coefficient domain and serves `queries` through
/// the engine's batch path (compiled plan), its online path (support
/// cache) and the reconstruct-then-prefix-sum path, timing each phase
/// and recording the worst disagreement.
pub fn compare_serving_paths(
    fm: &FrequencyMatrix,
    cfg: &PriveletConfig,
    queries: &[RangeQuery],
) -> Result<ServingReport> {
    let mut exec = LaneExecutor::new();
    let release = publish_coefficients_with(&mut exec, fm, cfg)?;

    let start = Instant::now();
    let coeff = ConcurrentEngine::from_output(&release)?;
    let coeff_build_secs = start.elapsed().as_secs_f64();

    // Batch path: compile the workload once, then execute the plan.
    let start = Instant::now();
    let plan = coeff.plan(queries)?;
    let plan_compile_secs = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let batch_answers = coeff.answer_plan(&plan)?;
    let coeff_answer_secs = start.elapsed().as_secs_f64();

    // Online path: one query at a time through the support cache.
    let start = Instant::now();
    let mut online_answers = Vec::with_capacity(queries.len());
    for q in queries {
        online_answers.push(coeff.answer(q)?);
    }
    let online_answer_secs = start.elapsed().as_secs_f64();
    let cache_hit_rate = coeff.cache_stats().hit_rate();

    // Concurrent path: scoped threads share the release core (no copy)
    // and the compiled plan; each also replays the workload online
    // through a fresh sharded cache so its counters see only this pass,
    // under real contention.
    let engine = ConcurrentEngine::new(Arc::clone(coeff.core()));
    let start = Instant::now();
    let thread_results: Vec<std::result::Result<Vec<f64>, QueryError>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONCURRENT_THREADS)
            .map(|_| {
                let engine = engine.clone();
                let plan = &plan;
                s.spawn(move || {
                    let batch = engine.answer_plan(plan)?;
                    for q in queries {
                        engine.answer(q)?;
                    }
                    Ok(batch)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("serving thread panicked"))
            .collect()
    });
    let concurrent_answer_secs = start.elapsed().as_secs_f64();
    let mut concurrent_batches = Vec::with_capacity(CONCURRENT_THREADS);
    for result in thread_results {
        concurrent_batches.push(result?);
    }
    let shard_stats = engine.shard_stats();
    let sharded_hit_rate = engine.cache_stats().hit_rate();

    // Error accounting: the annotated batch reuses the compiled plan's
    // interned variance factors, so predicted std-devs are plan reads.
    let annotated = coeff.answer_plan_with_error(&plan)?;
    let mean_predicted_std = if annotated.is_empty() {
        0.0
    } else {
        annotated.iter().map(|a| a.std_dev).sum::<f64>() / annotated.len() as f64
    };

    // Sparse-vs-dense exact variance on a small prefix of the workload
    // (the dense oracle revisits every coefficient per dimension, so it
    // is priced per query, not run over the whole batch).
    let hn = coeff.core().transform();
    let lambda = release.meta.lambda;
    let timed: Vec<(Vec<usize>, Vec<usize>)> = queries
        .iter()
        .take(VARIANCE_TIMING_QUERIES)
        .map(|q| q.bounds(coeff.schema()))
        .collect::<std::result::Result<_, _>>()?;
    let variance_timed_queries = timed.len();
    let start = Instant::now();
    for (lo, hi) in &timed {
        std::hint::black_box(exact_query_variance(hn, lambda, lo, hi)?);
    }
    let sparse_total = start.elapsed().as_secs_f64();
    // The dense oracle pushes every coefficient basis vector of a
    // dimension through refine-then-invert — O(m'ᵢ·(mᵢ + m'ᵢ)) per
    // dimension per query, which at serving-tier domain sizes is minutes
    // per query; that gap is the point of the sparse rewrite. Price it
    // only when every dimension is small enough that the comparison is
    // cheap; otherwise the report records 0.0 (not timed) and
    // `variance_speedup()` returns 0.0.
    let dense_is_tractable = hn
        .output_dims()
        .iter()
        .all(|&len| len <= DENSE_VARIANCE_ORACLE_MAX_DIM);
    let dense_total = if dense_is_tractable {
        let start = Instant::now();
        for (lo, hi) in &timed {
            let mut product = 2.0 * lambda * lambda;
            for axis in 0..coeff.schema().arity() {
                product *= dense_dim_variance_factor(hn, axis, lo[axis], hi[axis])?;
            }
            std::hint::black_box(product);
        }
        start.elapsed().as_secs_f64()
    } else {
        0.0
    };
    let per_query = |total: f64| {
        if variance_timed_queries == 0 {
            0.0
        } else {
            total / variance_timed_queries as f64
        }
    };

    let start = Instant::now();
    let rec = release.to_matrix_with(&mut exec)?;
    let dense = Answerer::new(rec.schema().clone(), rec.matrix())?;
    let prefix_build_secs = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let prefix_answers = dense.answer_all(queries)?;
    let prefix_answer_secs = start.elapsed().as_secs_f64();

    let max_abs_diff = batch_answers
        .iter()
        .zip(&prefix_answers)
        .map(|(a, b)| (a - b).abs())
        .chain(
            batch_answers
                .iter()
                .zip(&online_answers)
                .map(|(a, b)| (a - b).abs()),
        )
        .chain(
            concurrent_batches
                .iter()
                .flat_map(|batch| batch_answers.iter().zip(batch).map(|(a, b)| (a - b).abs())),
        )
        .fold(0.0f64, f64::max);

    Ok(ServingReport {
        cells: fm.cell_count(),
        coefficients: release.coefficient_count(),
        queries: queries.len(),
        max_abs_diff,
        coeff_build_secs,
        plan_compile_secs,
        coeff_answer_secs,
        online_answer_secs,
        prefix_build_secs,
        prefix_answer_secs,
        mean_support: plan.mean_support(),
        distinct_supports: plan.distinct_supports(),
        dedup_ratio: plan.dedup_ratio(),
        cache_hit_rate,
        concurrent_answer_secs,
        concurrent_threads: CONCURRENT_THREADS,
        shard_count: engine.shard_count(),
        shard_stats,
        sharded_hit_rate,
        mean_predicted_std,
        variance_timed_queries,
        variance_sparse_secs_per_query: per_query(sparse_total),
        variance_dense_secs_per_query: per_query(dense_total),
    })
}

/// Queries [`compare_serving_paths`] prices the sparse-vs-dense exact
/// variance on: enough to average timer noise out, few enough that the
/// dense oracle (a correctness reference, not a serving path) stays
/// cheap at large m.
pub const VARIANCE_TIMING_QUERIES: usize = 8;

/// Largest per-dimension coefficient length the dense variance oracle is
/// timed at (its cost is quadratic-ish in this); the sparse path is
/// still timed (and served) above it.
pub const DENSE_VARIANCE_ORACLE_MAX_DIM: usize = 1 << 12;

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
    use privelet_data::schema::{Attribute, Schema};
    use privelet_data::uniform::{self, TimingConfig};
    use privelet_query::{generate_workload, WorkloadConfig};

    #[test]
    fn paths_agree_on_a_mixed_release() {
        let cfg = TimingConfig::with_total_cells(1 << 12, 5_000, 11);
        let table = uniform::generate(&cfg).unwrap();
        let fm = FrequencyMatrix::from_table(&table).unwrap();
        let queries = generate_workload(
            fm.schema(),
            &WorkloadConfig {
                n_queries: 400,
                min_predicates: 1,
                max_predicates: 4,
                seed: 3,
            },
        )
        .unwrap();
        let report = compare_serving_paths(&fm, &PriveletConfig::pure(1.0, 17), &queries).unwrap();
        assert_eq!(report.queries, 400);
        assert_eq!(report.cells, 1 << 12);
        assert!(
            report.max_abs_diff < 1e-7,
            "paths disagree by {}",
            report.max_abs_diff
        );
        assert!(report.mean_support >= 1.0);
        assert!(report.coeff_total_secs() > 0.0 && report.prefix_total_secs() > 0.0);
        assert!(report.online_answer_secs > 0.0);
        // Throughput diagnostics are finite and positive on a real run.
        assert!(report.plan_queries_per_sec() > 0.0);
        assert!(report.online_queries_per_sec() > 0.0);
        // 400 queries over a few dimensions must repeat predicate
        // intervals: the plan dedups and the cache hits.
        assert!(report.distinct_supports >= 1);
        assert!(
            report.dedup_ratio > 0.0 && report.dedup_ratio < 1.0,
            "dedup ratio {}",
            report.dedup_ratio
        );
        assert!(
            report.cache_hit_rate > 0.0 && report.cache_hit_rate <= 1.0,
            "cache hit rate {}",
            report.cache_hit_rate
        );
        // Concurrent pass: ran, agreed (folded into max_abs_diff above),
        // and its shard counters conserve across the whole run.
        assert!(report.concurrent_answer_secs > 0.0);
        assert_eq!(report.concurrent_threads, CONCURRENT_THREADS);
        assert_eq!(report.shard_stats.len(), report.shard_count);
        let (hits, misses) = report
            .shard_stats
            .iter()
            .fold((0u64, 0u64), |(h, m), s| (h + s.hits, m + s.misses));
        assert_eq!(
            hits + misses,
            (CONCURRENT_THREADS * report.queries * fm.schema().arity()) as u64
        );
        assert!(
            report.sharded_hit_rate > 0.0 && report.sharded_hit_rate <= 1.0,
            "sharded hit rate {}",
            report.sharded_hit_rate
        );
        // Error accounting: a noisy release predicts a positive error
        // bar bounded by the analytic worst case, and the sparse
        // exact-variance path beats the dense oracle comfortably.
        assert!(report.mean_predicted_std > 0.0);
        assert_eq!(report.variance_timed_queries, VARIANCE_TIMING_QUERIES);
        assert!(report.variance_sparse_secs_per_query > 0.0);
        assert!(
            report.variance_dense_secs_per_query > 0.0,
            "dense was timed"
        );
        // No speedup assertion here: this release's per-dim domains are
        // tiny (8–12), so the gap is only ~2x — within scheduler-noise
        // range over an 8-query timing window on a loaded runner. The
        // structural assertion lives in
        // `sparse_variance_beats_dense_at_serving_scale`, where the
        // margin is four orders of magnitude.
        // Visible under --nocapture; the recorded numbers in ROADMAP.md
        // come from this line under --release.
        println!(
            "variance timing at m={} (m'={}): sparse {:.3e}s vs dense {:.3e}s per query ({:.0}x)",
            report.cells,
            report.coefficients,
            report.variance_sparse_secs_per_query,
            report.variance_dense_secs_per_query,
            report.variance_speedup()
        );
    }

    #[test]
    fn sparse_variance_beats_dense_at_serving_scale() {
        // One Haar dimension of 2^12 values: the largest domain the
        // dense oracle is still timed at. Sparse cost is O(log m) here
        // vs the oracle's O(m²)-ish — this is the gap that made the
        // dense loop unusable in the serving stack.
        let schema = Schema::new(vec![Attribute::ordinal("v", 1 << 12)]).unwrap();
        let fm = FrequencyMatrix::from_parts(
            schema.clone(),
            privelet_matrix::NdMatrix::zeros(&schema.dims()).unwrap(),
        )
        .unwrap();
        let queries = generate_workload(
            &schema,
            &WorkloadConfig {
                n_queries: 64,
                min_predicates: 1,
                max_predicates: 1,
                seed: 8,
            },
        )
        .unwrap();
        let report = compare_serving_paths(&fm, &PriveletConfig::pure(1.0, 31), &queries).unwrap();
        assert!(report.variance_sparse_secs_per_query > 0.0);
        assert!(
            report.variance_speedup() > 10.0,
            "speedup only {:.1}x (sparse {:.3e}s, dense {:.3e}s)",
            report.variance_speedup(),
            report.variance_sparse_secs_per_query,
            report.variance_dense_secs_per_query
        );
        println!(
            "variance timing at m={} (1-D Haar): sparse {:.3e}s vs dense {:.3e}s per query ({:.0}x)",
            report.cells,
            report.variance_sparse_secs_per_query,
            report.variance_dense_secs_per_query,
            report.variance_speedup()
        );
    }

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

    #[test]
    fn empty_workload_yields_a_well_defined_report() {
        // Regression: the ratio diagnostics (dedup ratio, mean support,
        // hit rates) must come back as finite 0-values on an empty
        // workload, not NaN from a 0/0.
        let schema = Schema::new(vec![Attribute::ordinal("v", 32)]).unwrap();
        let fm = FrequencyMatrix::from_parts(
            schema.clone(),
            privelet_matrix::NdMatrix::zeros(&schema.dims()).unwrap(),
        )
        .unwrap();
        let report = compare_serving_paths(&fm, &PriveletConfig::pure(1.0, 2), &[]).unwrap();
        assert_eq!(report.queries, 0);
        assert_eq!(report.max_abs_diff, 0.0);
        // Throughput of nothing is 0, not NaN.
        assert!(report.plan_queries_per_sec().is_finite());
        assert!(report.online_queries_per_sec().is_finite());
        assert_eq!(report.mean_support, 0.0);
        assert!(report.mean_support.is_finite());
        assert_eq!(report.dedup_ratio, 0.0);
        assert!(report.dedup_ratio.is_finite());
        assert_eq!(report.distinct_supports, 0);
        assert_eq!(report.cache_hit_rate, 0.0);
        assert_eq!(report.sharded_hit_rate, 0.0);
        let stats = report
            .shard_stats
            .iter()
            .fold((0u64, 0u64), |(h, m), s| (h + s.hits, m + s.misses));
        assert_eq!(stats, (0, 0), "no queries, no cache traffic");
    }

    #[test]
    fn per_query_support_stays_polylog_on_a_large_ordinal_domain() {
        // 2^16 cells in one Haar dimension: every query's support is
        // ≤ 2·16 + 1 coefficients while the prefix path scans 2^16 cells
        // before its first answer.
        let schema = Schema::new(vec![Attribute::ordinal("v", 1 << 16)]).unwrap();
        let fm = FrequencyMatrix::from_parts(
            schema.clone(),
            privelet_matrix::NdMatrix::zeros(&schema.dims()).unwrap(),
        )
        .unwrap();
        let queries = generate_workload(
            &schema,
            &WorkloadConfig {
                n_queries: 64,
                min_predicates: 1,
                max_predicates: 1,
                seed: 5,
            },
        )
        .unwrap();
        let report = compare_serving_paths(&fm, &PriveletConfig::pure(1.0, 23), &queries).unwrap();
        assert!(
            report.mean_support <= (2 * 16 + 1) as f64,
            "mean support {}",
            report.mean_support
        );
        assert!(report.max_abs_diff < 1e-7);
        // 2^16 coefficients: the sparse error bars still come out (and
        // fast), but the dense oracle is skipped as hopeless at this m.
        assert!(report.mean_predicted_std > 0.0);
        assert!(report.variance_sparse_secs_per_query > 0.0);
        assert_eq!(report.variance_dense_secs_per_query, 0.0);
        assert_eq!(report.variance_speedup(), 0.0);
        // 64 random intervals over 2^16 values rarely collide, but the
        // ratio is still well-defined and bounded.
        assert!((0.0..=1.0).contains(&report.dedup_ratio));
        assert!((0.0..=1.0).contains(&report.cache_hit_rate));
    }
}
