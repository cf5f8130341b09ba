//! The `query_answering` bench group: coefficient-domain serving versus
//! reconstruct-then-prefix-sum, across domain sizes m = 2^10 … 2^20 and
//! workload sizes.
//!
//! What the numbers should show (the tentpole claim of the
//! coefficient-domain subsystem):
//!
//! - `coeff_build_*` is the O(m') refinement copy; `prefix_build_*` is the
//!   O(m) inverse transform + prefix-sum pass — both linear in m, with the
//!   prefix path paying the full reconstruction.
//! - `coeff_answer*` grows ~log(m) per query (a range query reads at most
//!   `2·log₂ m + 1` Haar coefficients), while `prefix_answer*` is O(2^d)
//!   per query *after* its O(m) build — so serve-one-query-from-scratch
//!   (`serve1_*`) flips from prefix-favored to coefficient-favored as m
//!   grows.
//!
//! The `query_answering_batched` group isolates the serving engine's
//! batch machinery at m = 2^10 … 2^20, workloads 64 and 1024:
//! `plan_compile_*` (support interning + term flattening),
//! `plan_execute_*` (sparse dots over the compiled arena),
//! `batched_*` (compile + execute, what `answer_all` does) and
//! `perquery_*` (the one-at-a-time loop through the support cache).
//! The batch path must beat the per-query loop — it derives each
//! distinct support once and skips per-query locking/allocation.
//!
//! Run with: `cargo bench --bench query_answering`

use criterion::{criterion_group, criterion_main, Criterion};
use privelet_bench::harness::{interval_workload, ordinal_release};
use privelet_query::{Answerer, ConcurrentEngine, RangeQuery};
use std::hint::black_box;

/// Domain exponents swept: m = 2^10 … 2^20.
const EXPONENTS: [u32; 6] = [10, 12, 14, 16, 18, 20];

/// Workload sizes for the answering benchmarks.
const WORKLOADS: [usize; 2] = [64, 1024];

fn bench_query_answering(c: &mut Criterion) {
    let mut group = c.benchmark_group("query_answering");
    group.sample_size(10);
    for exp in EXPONENTS {
        let out = ordinal_release(exp).unwrap();

        // Build costs: refinement copy vs inverse transform + prefix sums.
        group.bench_function(&format!("coeff_build_2^{exp}"), |b| {
            b.iter(|| ConcurrentEngine::from_output(black_box(&out)).unwrap())
        });
        group.bench_function(&format!("prefix_build_2^{exp}"), |b| {
            b.iter(|| {
                let rec = black_box(&out).to_matrix().unwrap();
                Answerer::new(rec.schema().clone(), rec.matrix()).unwrap()
            })
        });

        // Per-query costs on prebuilt answerers, at each workload size.
        let coeff = ConcurrentEngine::from_output(&out).unwrap();
        let rec = out.to_matrix().unwrap();
        let prefix = Answerer::new(rec.schema().clone(), rec.matrix()).unwrap();
        for n_queries in WORKLOADS {
            let queries = interval_workload(&out.schema, n_queries).unwrap();
            // Sanity: the two paths agree before we time them.
            let a = coeff.answer_all(&queries).unwrap();
            let b = prefix.answer_all(&queries).unwrap();
            for (x, y) in a.iter().zip(&b) {
                // Relative tolerance: the two paths sum the same noisy
                // mass in different orders, so rounding scales with the
                // answer magnitude (~1e7 at 2^20).
                assert!(
                    (x - y).abs() <= 1e-9 * x.abs().max(1.0),
                    "paths disagree at 2^{exp}: {x} vs {y}"
                );
            }
            group.bench_function(&format!("coeff_answer{n_queries}_2^{exp}"), |b| {
                b.iter(|| coeff.answer_all(black_box(&queries)).unwrap())
            });
            group.bench_function(&format!("prefix_answer{n_queries}_2^{exp}"), |b| {
                b.iter(|| prefix.answer_all(black_box(&queries)).unwrap())
            });
        }

        // Serve-one-query-from-scratch: the cost model the coefficient
        // path exists for (no O(m) build before the first answer).
        let one = interval_workload(&out.schema, 1).unwrap();
        group.bench_function(&format!("serve1_coeff_2^{exp}"), |b| {
            b.iter(|| {
                let ans = ConcurrentEngine::from_output(black_box(&out)).unwrap();
                ans.answer(&one[0]).unwrap()
            })
        });
        group.bench_function(&format!("serve1_prefix_2^{exp}"), |b| {
            b.iter(|| {
                let rec = black_box(&out).to_matrix().unwrap();
                let ans = Answerer::new(rec.schema().clone(), rec.matrix()).unwrap();
                ans.answer(&one[0]).unwrap()
            })
        });
    }
    group.finish();
}

fn bench_batched(c: &mut Criterion) {
    let mut group = c.benchmark_group("query_answering_batched");
    group.sample_size(10);
    for exp in EXPONENTS {
        let out = ordinal_release(exp).unwrap();
        let coeff = ConcurrentEngine::from_output(&out).unwrap();
        for n_queries in WORKLOADS {
            // The motivating batch workload: a dashboard of 64 distinct
            // queries refreshed n/64 times per batch (WaveCluster-style
            // consumers re-ask the same predicates every tick). The
            // planner collapses the repeats onto 64 term lists and at
            // most 64 distinct supports.
            let catalog = interval_workload(&out.schema, 64.min(n_queries)).unwrap();
            let queries: Vec<RangeQuery> =
                catalog.iter().cycle().take(n_queries).cloned().collect();

            // Sanity: the compiled plan and the per-query loop agree to
            // 1e-12 relative — the plan's arena kernel may sum supports
            // in a different order than the online dot (summation-order
            // policy, docs/architecture.md).
            let plan = coeff.plan(&queries).unwrap();
            let batch = coeff.answer_plan(&plan).unwrap();
            for (q, want) in queries.iter().zip(&batch) {
                let got = coeff.answer(q).unwrap();
                assert!(
                    (got - want).abs() <= 1e-12 * want.abs().max(1.0),
                    "2^{exp}: online {got} vs plan {want}"
                );
            }

            group.bench_function(&format!("plan_compile{n_queries}_2^{exp}"), |b| {
                b.iter(|| coeff.plan(black_box(&queries)).unwrap())
            });
            group.bench_function(&format!("plan_execute{n_queries}_2^{exp}"), |b| {
                b.iter(|| coeff.answer_plan(black_box(&plan)).unwrap())
            });
            group.bench_function(&format!("batched{n_queries}_2^{exp}"), |b| {
                b.iter(|| coeff.answer_all(black_box(&queries)).unwrap())
            });
            group.bench_function(&format!("perquery{n_queries}_2^{exp}"), |b| {
                b.iter(|| {
                    black_box(&queries)
                        .iter()
                        .map(|q| coeff.answer(q).unwrap())
                        .collect::<Vec<f64>>()
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_query_answering, bench_batched);
criterion_main!(benches);
