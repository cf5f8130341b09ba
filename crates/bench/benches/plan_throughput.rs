//! `plan_throughput`: queries/sec through the compiled-plan hot path.
//!
//! The arena-execution optimisation (sorted spans + 4-wide unrolled
//! sparse dot + locality-ordered distinct evaluation) is judged by this
//! number: how many queries per second `answer_plan` sustains at
//! m = 2^18 with a 1024-query workload, with flanking points so a
//! regression at one size can't hide behind a win at another.
//!
//! - `cargo bench --bench plan_throughput` — full run: compile and
//!   execute time per (m, workload) point.
//! - `... -- --test` — smoke mode: one tiny point (m = 2^10, 64
//!   queries) and the plan-vs-online agreement check. CI runs this.
//! - `... -- --record <path>` — also writes the run in the one BENCH
//!   schema (`BENCH_plan_throughput.json` is such a run).
//!
//! Timing, flags and the record live in `privelet_bench::harness`.

use privelet_bench::harness::{best_of, interval_workload, ordinal_release, Args, Record};
use privelet_bench::json::Json;
use privelet_query::ConcurrentEngine;
use std::error::Error;

fn measure(
    record: &mut Record,
    exp: u32,
    n_queries: usize,
    budget_secs: f64,
) -> Result<(), Box<dyn Error>> {
    let out = ordinal_release(exp)?;
    let engine = ConcurrentEngine::from_output(&out)?;
    // Every query is independently drawn, so the plan keeps ~n_queries
    // distinct supports and execution is bound by the dot-product
    // kernel, not by the per-query fan-out loop.
    let queries = interval_workload(&out.schema, n_queries)?;

    let plan = engine.plan(&queries)?;
    // Correctness gate before timing: the plan path must equal the
    // online per-query loop bit for bit (one derivation, one kernel).
    let batch = engine.answer_plan(&plan)?;
    assert_eq!(batch.len(), queries.len());
    for (q, &got) in queries.iter().zip(&batch) {
        let want = engine.answer(q)?;
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "plan vs online at 2^{exp}: {got} vs {want}"
        );
    }

    let params = || {
        vec![
            ("m_exp", Json::Num(exp.into())),
            ("queries", Json::Num(n_queries as f64)),
        ]
    };
    let compile = best_of(budget_secs, || engine.plan(&queries));
    record.push("compile", params(), compile, n_queries as f64);
    let execute = best_of(budget_secs, || engine.answer_plan(&plan));
    record.push("execute", params(), execute, n_queries as f64);
    Ok(())
}

fn main() -> Result<(), Box<dyn Error>> {
    let args = Args::from_env()?;
    let sweep: &[(u32, usize)] = if args.smoke {
        &[(10, 64)]
    } else {
        &[(14, 1024), (18, 64), (18, 1024), (20, 1024)]
    };
    let mut record = Record::new("plan_throughput", "queries/s");
    for &(exp, n_queries) in sweep {
        measure(&mut record, exp, n_queries, args.budget_secs())?;
    }
    record.finish(&args)?;
    if args.smoke {
        println!("plan_throughput smoke OK");
    }
    Ok(())
}
