//! `query_answering`: queries/sec of coefficient-domain serving versus
//! reconstruct-then-prefix-sum, across domain sizes m = 2^10 … 2^20 and
//! workloads of 64 and 1024 queries.
//!
//! What the numbers should show (the claim of the coefficient-domain
//! engine):
//!
//! - `coeff_answer` grows ~log(m) per query (a range query reads at most
//!   `2·log₂ m + 1` Haar coefficients), while `prefix_answer`
//!   (`RangeQuery::evaluate_prefix`) is O(2^d) per query *after* an O(m)
//!   build (`to_matrix` + `PrefixSums::build`).
//! - Serving one query from scratch, build included (`serve1_coeff` /
//!   `serve1_prefix`), the coefficient path pays one O(m') refinement
//!   copy where the prefix path pays an inverse transform plus the
//!   prefix-sum passes.
//! - On a dashboard workload (a 64-query catalog cycled to the workload
//!   size), `plan_compile` (support interning + term flattening),
//!   `plan_execute` (sparse dots over the compiled arena), `batched`
//!   (`core().plan` + `execute_plan`, compile and execute on the cache-free
//!   core) and `perquery` (the engine's one-at-a-time loop through its
//!   warm support cache) isolate the batch machinery. Once the catalog
//!   repeats, the batch path beats the per-query loop: it derives each
//!   distinct support once per call and skips per-query locking.
//!
//! Before timing, each point checks that the engine agrees with
//! `to_matrix` + `PrefixSums` within 1e-9 relative, and that the
//! compiled plan equals the online answers bit for bit.
//!
//! - `cargo bench --bench query_answering` — full run.
//! - `... -- --test` — smoke mode: m = 2^10 with both workload shapes,
//!   so both checks run in seconds. CI runs it.
//! - `... -- --record <path>` — also writes the run in the one BENCH
//!   schema.
//!
//! Timing, flags and the record live in `privelet_bench::harness`.

use privelet::mechanism::CoefficientOutput;
use privelet_bench::harness::{best_of, interval_workload, ordinal_release, Args, Record};
use privelet_bench::json::Json;
use privelet_matrix::PrefixSums;
use privelet_query::{ConcurrentEngine, RangeQuery, ReleaseCore};
use std::error::Error;
use std::hint::black_box;

/// Workload sizes for the answering points.
const WORKLOADS: [usize; 2] = [64, 1024];

/// Compiles `queries` on `core` and executes the plan: a batch's answers
/// with no support cache involved.
fn compile_and_execute(
    core: &ReleaseCore,
    queries: &[RangeQuery],
) -> privelet_query::Result<Vec<f64>> {
    core.execute_plan(&core.plan(queries)?)
}

fn params(exp: u32, n_queries: usize) -> Vec<(&'static str, Json)> {
    vec![
        ("m_exp", Json::Num(exp.into())),
        ("queries", Json::Num(n_queries as f64)),
    ]
}

/// Independently drawn queries: the coefficient path (a plan compiled
/// and executed on the release core) against prefix sums over the
/// reconstructed matrix, per query and serving one query from scratch.
fn serving(
    record: &mut Record,
    exp: u32,
    out: &CoefficientOutput,
    budget: f64,
) -> Result<(), Box<dyn Error>> {
    let core = ReleaseCore::from_output(out)?;
    let rec = out.to_matrix()?;
    let prefix = PrefixSums::build(rec.matrix());
    let prefix_all = |queries: &[RangeQuery]| {
        queries
            .iter()
            .map(|q| q.evaluate_prefix(&out.schema, &prefix))
            .collect::<Result<Vec<f64>, _>>()
    };
    for n_queries in WORKLOADS {
        let queries = interval_workload(&out.schema, n_queries)?;
        // Sanity: the two paths agree before they are timed.
        let a = compile_and_execute(&core, &queries)?;
        let b = prefix_all(&queries)?;
        for (x, y) in a.iter().zip(&b) {
            // Relative tolerance: the two paths sum the same noisy mass
            // in different orders, so rounding scales with the answer
            // magnitude (~1e7 at 2^20).
            assert!(
                (x - y).abs() <= 1e-9 * x.abs().max(1.0),
                "paths disagree at 2^{exp}: {x} vs {y}"
            );
        }
        let work = n_queries as f64;
        let secs = best_of(budget, || compile_and_execute(&core, black_box(&queries)));
        record.push("coeff_answer", params(exp, n_queries), secs, work);
        let secs = best_of(budget, || prefix_all(black_box(&queries)));
        record.push("prefix_answer", params(exp, n_queries), secs, work);
    }

    // Serve one query from scratch: the cost model the coefficient path
    // exists for (no inverse transform before the first answer).
    let one_query = interval_workload(&out.schema, 1)?;
    let one = &one_query[0];
    let secs = best_of(budget, || {
        ConcurrentEngine::from_output(black_box(out)).and_then(|e| e.answer(one))
    });
    record.push("serve1_coeff", params(exp, 1), secs, 1.0);
    let secs = best_of(budget, || -> Result<f64, Box<dyn Error>> {
        let rec = black_box(out).to_matrix()?;
        let prefix = PrefixSums::build(rec.matrix());
        Ok(one.evaluate_prefix(rec.schema(), &prefix)?)
    });
    record.push("serve1_prefix", params(exp, 1), secs, 1.0);
    Ok(())
}

/// The batch machinery on a dashboard: 64 distinct queries refreshed
/// until the workload size is reached (consumers that re-ask the same
/// predicates every tick). The planner collapses the repeats onto 64 span
/// lists and at most 64 distinct supports.
fn batched(
    record: &mut Record,
    exp: u32,
    out: &CoefficientOutput,
    budget: f64,
) -> Result<(), Box<dyn Error>> {
    let coeff = ConcurrentEngine::from_output(out)?;
    let core = coeff.core();
    for n_queries in WORKLOADS {
        let catalog = interval_workload(&out.schema, 64.min(n_queries))?;
        let queries: Vec<RangeQuery> = catalog.iter().cycle().take(n_queries).cloned().collect();

        // Sanity: the compiled plan and the per-query loop agree bit for
        // bit (one derivation, one kernel).
        let plan = core.plan(&queries)?;
        let batch = core.execute_plan(&plan)?;
        for (q, want) in queries.iter().zip(&batch) {
            let got = coeff.answer(q)?;
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "2^{exp}: online {got} vs plan {want}"
            );
        }

        let work = n_queries as f64;
        let secs = best_of(budget, || core.plan(black_box(&queries)));
        record.push("plan_compile", params(exp, n_queries), secs, work);
        let secs = best_of(budget, || core.execute_plan(black_box(&plan)));
        record.push("plan_execute", params(exp, n_queries), secs, work);
        let secs = best_of(budget, || compile_and_execute(core, black_box(&queries)));
        record.push("batched", params(exp, n_queries), secs, work);
        let secs = best_of(budget, || {
            black_box(&queries)
                .iter()
                .map(|q| coeff.answer(q))
                .collect::<Result<Vec<f64>, _>>()
        });
        record.push("perquery", params(exp, n_queries), secs, work);
    }
    Ok(())
}

fn main() -> Result<(), Box<dyn Error>> {
    let args = Args::from_env()?;
    let budget = args.budget_secs();
    let exps: &[u32] = if args.smoke {
        &[10]
    } else {
        &[10, 12, 14, 16, 18, 20]
    };
    let mut record = Record::new("query_answering", "queries/s");
    for &exp in exps {
        let out = ordinal_release(exp)?;
        serving(&mut record, exp, &out, budget)?;
        batched(&mut record, exp, &out, budget)?;
    }
    record.finish(&args)?;
    if args.smoke {
        println!("query_answering smoke OK");
    }
    Ok(())
}
