//! `plan_throughput`: queries/sec through the compiled-plan hot path.
//!
//! The arena-execution optimisation (sorted spans + 4-wide unrolled
//! sparse dot + locality-ordered distinct evaluation) is judged by this
//! single number: how many queries per second `answer_plan` sustains at
//! m = 2^18 with a 1024-query workload (the ISSUE-6 acceptance point).
//! Criterion's offline stub ignores CLI arguments, so this bench is a
//! hand-written harness:
//!
//! - `cargo bench --bench plan_throughput` — full run, prints a table of
//!   queries/sec per (m, workload) point plus the acceptance point.
//! - `... -- --test` — smoke mode: one tiny point (m = 2^10, 64
//!   queries), correctness assertions only; seconds, not minutes. CI
//!   runs this on both feature sets.
//! - `... -- --record <path>` — additionally writes the measured points
//!   as JSON (the `BENCH_plan_throughput.json` before/after ledger is
//!   assembled from two such runs).
//!
//! Methodology: per point, `answer_plan` is repeated until ≥0.5 s of
//! wall time has accumulated (minimum 10 iterations) and the *best*
//! iteration is reported — best-of is the right statistic for a
//! single-threaded CPU-bound kernel on a noisy shared box, since all
//! perturbation is additive.

use privelet::mechanism::{publish_coefficients, PriveletConfig};
use privelet_bench::json::Json;
use privelet_data::schema::{Attribute, Schema};
use privelet_data::FrequencyMatrix;
use privelet_matrix::NdMatrix;
use privelet_query::{generate_workload, ConcurrentEngine, RangeQuery, WorkloadConfig};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// One measured sweep point.
struct Point {
    exp: u32,
    n_queries: usize,
    compile_secs: f64,
    execute_secs: f64,
    queries_per_sec: f64,
}

fn release_for(exp: u32) -> (Schema, privelet::mechanism::CoefficientOutput) {
    let m = 1usize << exp;
    let schema = Schema::new(vec![Attribute::ordinal("v", m)]).unwrap();
    let data: Vec<f64> = (0..m).map(|i| ((i * 31) % 101) as f64).collect();
    let fm = FrequencyMatrix::from_parts(schema.clone(), NdMatrix::from_vec(&[m], data).unwrap())
        .unwrap();
    let out = publish_coefficients(&fm, &PriveletConfig::pure(1.0, 7)).unwrap();
    (schema, out)
}

fn workload_for(schema: &Schema, n_queries: usize) -> Vec<RangeQuery> {
    // Unlike `query_answering_batched`'s 64-query dashboard catalog,
    // every query here is independently drawn: the plan keeps ~n_queries
    // distinct supports, so the arena is large enough (≈30k entries at
    // the acceptance point) that execution is genuinely bound by the
    // dot-product kernel, not by the per-query fan-out loop.
    generate_workload(
        schema,
        &WorkloadConfig {
            n_queries,
            min_predicates: 1,
            max_predicates: 1,
            seed: 42,
        },
    )
    .unwrap()
}

/// Best-of timing: repeat `f` until ≥`budget_secs` of wall time has
/// accumulated (min 10 iters) and return the fastest single iteration.
fn best_of<R>(budget_secs: f64, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    let mut spent = 0.0;
    let mut iters = 0u32;
    while spent < budget_secs || iters < 10 {
        let t = Instant::now();
        black_box(f());
        let dt = t.elapsed().as_secs_f64();
        best = best.min(dt);
        spent += dt;
        iters += 1;
    }
    best
}

fn measure(exp: u32, n_queries: usize, budget_secs: f64) -> Point {
    let (schema, out) = release_for(exp);
    let coeff = ConcurrentEngine::from_output(&out).unwrap();
    let queries = workload_for(&schema, n_queries);

    let plan = coeff.plan(&queries).unwrap();
    // Correctness gate before timing: the plan path must agree with the
    // online per-query loop. The plan's unrolled dot sums each support
    // in a different order than the online path, so the comparison is
    // 1e-12 relative (the summation-order policy in
    // docs/architecture.md), not bitwise.
    let batch = coeff.answer_plan(&plan).unwrap();
    assert_eq!(batch.len(), queries.len());
    for (q, &got) in queries.iter().zip(&batch) {
        let want = coeff.answer(q).unwrap();
        assert!(
            (got - want).abs() <= 1e-12 * want.abs().max(1.0),
            "plan vs online at 2^{exp}: {got} vs {want}"
        );
    }

    let compile_secs = best_of(budget_secs, || coeff.plan(&queries).unwrap());
    let execute_secs = best_of(budget_secs, || coeff.answer_plan(&plan).unwrap());
    Point {
        exp,
        n_queries,
        compile_secs,
        execute_secs,
        queries_per_sec: n_queries as f64 / execute_secs,
    }
}

fn to_json(points: &[Point]) -> Json {
    Json::Arr(
        points
            .iter()
            .map(|p| {
                let mut obj = BTreeMap::new();
                obj.insert("m_exp".into(), Json::Num(p.exp as f64));
                obj.insert("workload".into(), Json::Num(p.n_queries as f64));
                obj.insert("compile_secs".into(), Json::Num(p.compile_secs));
                obj.insert("execute_secs".into(), Json::Num(p.execute_secs));
                obj.insert("queries_per_sec".into(), Json::Num(p.queries_per_sec));
                Json::Obj(obj)
            })
            .collect(),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--test");
    let record = args
        .iter()
        .position(|a| a == "--record")
        .map(|i| args.get(i + 1).expect("--record needs a path").clone());

    let sweep: &[(u32, usize)] = if smoke {
        &[(10, 64)]
    } else {
        // The acceptance point (2^18, 1024) plus flanking points so a
        // regression at one size can't hide behind a win at another.
        &[(14, 1024), (18, 64), (18, 1024), (20, 1024)]
    };
    let budget = if smoke { 0.02 } else { 0.5 };

    let mut points = Vec::new();
    println!(
        "{:>6} {:>9} {:>13} {:>13} {:>13}",
        "m", "queries", "compile_s", "execute_s", "queries/s"
    );
    for &(exp, n_queries) in sweep {
        let p = measure(exp, n_queries, budget);
        println!(
            "  2^{:<3} {:>9} {:>13.6} {:>13.6} {:>13.0}",
            p.exp, p.n_queries, p.compile_secs, p.execute_secs, p.queries_per_sec
        );
        points.push(p);
    }

    if let Some(path) = record {
        std::fs::write(&path, to_json(&points).to_string())
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        eprintln!("[bench] recorded {} points to {path}", points.len());
    }
    if smoke {
        println!("plan_throughput smoke OK");
    }
}
