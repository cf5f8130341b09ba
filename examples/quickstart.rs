//! Quickstart: the paper's running example (Tables I and II).
//!
//! Builds the eight medical records of Table I, derives the frequency
//! matrix of Table II, publishes it under ε-differential privacy with both
//! Basic (Dwork et al.) and Privelet, and answers the introduction's
//! example query — "the number of diabetes patients with age under 50" —
//! on each published matrix. Finally it publishes the *coefficient-domain*
//! release and serves the same query straight from the noisy coefficients,
//! reading O(log m) of them per dimension instead of reconstructing the
//! matrix.
//!
//! Run with: `cargo run --example quickstart`

use privelet_repro::core::mechanism::{
    publish_basic, publish_coefficients, publish_privelet, PriveletConfig,
};
use privelet_repro::data::medical::{medical_example, AGE_GROUPS, DIABETES};
use privelet_repro::data::FrequencyMatrix;
use privelet_repro::eval::ExactEvaluate;
use privelet_repro::query::{ConcurrentEngine, Predicate, RangeQuery};

fn main() {
    // Table I: the input relation.
    let table = medical_example();
    println!(
        "Table I — {} medical records (Age, Has Diabetes?)",
        table.len()
    );

    // Table II: its frequency matrix.
    let fm = FrequencyMatrix::from_table(&table).expect("frequency matrix");
    println!("\nTable II — frequency matrix ({} cells):", fm.cell_count());
    println!("{:>8} {:>6} {:>6}", "Age", DIABETES[0], DIABETES[1]);
    for (age, label) in AGE_GROUPS.iter().enumerate() {
        let yes = fm.matrix().get(&[age, 0]).unwrap();
        let no = fm.matrix().get(&[age, 1]).unwrap();
        println!("{label:>8} {yes:>6} {no:>6}");
    }

    // The introduction's query: diabetes patients with age under 50 =
    // age groups {<30, 30-39, 40-49} x {Yes}.
    let hierarchy = fm.schema().attr(1).domain().hierarchy().unwrap().clone();
    let query = RangeQuery::new(vec![
        Predicate::Range { lo: 0, hi: 2 },
        Predicate::Node {
            node: hierarchy.leaf_node(0),
        },
    ]);
    let exact = query.evaluate(&fm).unwrap();
    println!("\nquery: COUNT(*) WHERE Age < 50 AND Diabetes = Yes");
    println!("exact answer: {exact}");

    // Publish under ε = 1 with both mechanisms and answer on the noisy
    // matrices. (A single tiny table is the worst case for utility — this
    // is a wiring demo, not a benchmark; see the benches for the real
    // error profiles.)
    let epsilon = 1.0;
    let basic = publish_basic(&fm, epsilon, 2024).expect("basic publish");
    let out =
        publish_privelet(&fm, &PriveletConfig::pure(epsilon, 2024)).expect("privelet publish");

    println!("\nε = {epsilon}:");
    println!(
        "  Basic:     answer = {:+.2}   (Lap(2/ε) per cell)",
        query.evaluate(&basic).unwrap()
    );
    println!(
        "  Privelet:  answer = {:+.2}   (ρ = {}, λ = {}, {} coefficients)",
        query.evaluate(&out.matrix).unwrap(),
        out.meta.rho,
        out.meta.lambda,
        out.coefficient_count
    );
    println!(
        "  Privelet per-query variance bound: {:.1}",
        out.meta.variance_bound
    );

    // Optional count post-processing (pure function of the release).
    let mut rounded = out.matrix.clone();
    rounded.round_nonnegative();
    println!(
        "  Privelet (rounded to counts): answer = {}",
        query.evaluate(&rounded).unwrap()
    );

    // Serve-from-coefficients: publish the noisy coefficient matrix
    // instead of inverting it, and answer the query as a sparse dot
    // against the coefficients — per-query cost O(log m) per dimension,
    // no O(m) reconstruction in the serving path. Same seed ⇒ the same
    // noise stream as the Privelet publish above, so the answer matches
    // the inverse-transform path to floating-point rounding.
    let release = publish_coefficients(&fm, &PriveletConfig::pure(epsilon, 2024))
        .expect("coefficient publish");
    let answerer = ConcurrentEngine::from_output(&release).expect("coefficient engine");
    println!(
        "\nserve-from-coefficients ({} noisy coefficients kept, matrix never rebuilt):",
        release.coefficient_count()
    );
    let coeff_answer = answerer.answer(&query).unwrap();
    let support: usize = answerer
        .core()
        .supports_uncached(&query)
        .unwrap()
        .iter()
        .map(|s| s.len())
        .product();
    println!(
        "  coefficient-domain answer = {coeff_answer:+.2} (reads {support} of {} coefficients)",
        release.coefficient_count()
    );
    let diff = (coeff_answer - query.evaluate(&out.matrix).unwrap()).abs();
    assert!(diff < 1e-9, "serving paths must agree; diff = {diff}");
    println!("  agrees with the inverse-transform path to {diff:.1e}");

    // Error-accounted serving: every answer knows its own exact noise
    // std-dev (Var = 2λ²·∏ factors, a pure function of public transform
    // parameters — no privacy cost), so the release can report a
    // confidence interval next to each count.
    let annotated = answerer.answer_with_error(&query).unwrap();
    assert_eq!(annotated.value, coeff_answer, "same supports, same dot");
    let (lo95, hi95) = annotated
        .interval(0.95)
        .expect("0.95 is a valid confidence level");
    println!(
        "  error bars: {:+.2} ± {:.2} std dev; 95% interval [{lo95:+.2}, {hi95:+.2}]",
        annotated.value, annotated.std_dev
    );
    assert!(
        lo95 <= exact && exact <= hi95,
        "this demo's interval happens to cover the exact answer"
    );

    // Batched serving: a small OLAP-style workload (the same age interval
    // drilled across both diabetes values, plus the total) compiled into
    // one QueryPlan on the engine's release core. The planner interns
    // each distinct per-dimension support once, so repeated predicate
    // intervals cost one derivation for the whole batch.
    let workload = vec![
        query.clone(),
        RangeQuery::new(vec![
            Predicate::Range { lo: 0, hi: 2 },
            Predicate::Node {
                node: hierarchy.leaf_node(1),
            },
        ]),
        RangeQuery::new(vec![Predicate::Range { lo: 0, hi: 2 }, Predicate::All]),
        RangeQuery::all(2),
    ];
    let core = answerer.core();
    let plan = core.plan(&workload).expect("plan compiles");
    let batch = core.execute_plan(&plan).expect("plan executes");
    println!(
        "\nbatched serving ({} queries compiled into one plan):",
        plan.len()
    );
    println!(
        "  supports: {} requested, {} derived (dedup ratio {:.0}%)",
        plan.support_requests(),
        plan.distinct_supports(),
        100.0 * plan.dedup_ratio()
    );
    for (q, a) in workload.iter().zip(&batch) {
        // Plan vs online: bitwise — both paths derive the same supports
        // and dot them through the same kernel.
        let online = answerer.answer(q).unwrap();
        assert_eq!(
            online.to_bits(),
            a.to_bits(),
            "batch must equal the per-query loop: {a} vs {online}"
        );
    }
    println!(
        "  answers: {:?}",
        batch
            .iter()
            .map(|a| (a * 100.0).round() / 100.0)
            .collect::<Vec<_>>()
    );
    let cache = answerer.cache_stats();
    println!(
        "  engine: {} coefficients held, online cache {} hits / {} misses",
        core.coefficients().len(),
        cache.hits,
        cache.misses
    );
}
