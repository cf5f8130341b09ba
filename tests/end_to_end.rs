//! End-to-end pipelines: table → frequency matrix → publish → query.

use privelet_repro::core::mechanism::{
    publish_basic, publish_hierarchical_1d, publish_privelet, PriveletConfig,
};
use privelet_repro::data::census::{self, CensusConfig};
use privelet_repro::data::medical::medical_example;
use privelet_repro::data::schema::{Attribute, Schema};
use privelet_repro::data::{FrequencyMatrix, Table};
use privelet_repro::eval::ExactEvaluate;
use privelet_repro::matrix::PrefixSums;
use privelet_repro::query::{generate_workload, Predicate, RangeQuery, WorkloadConfig};

fn tiny_census() -> (CensusConfig, FrequencyMatrix, usize) {
    let mut cfg = CensusConfig::brazil().scaled();
    cfg.n_tuples = 30_000;
    cfg.age_size = 41;
    cfg.occupation_size = 48;
    cfg.occupation_groups = 6;
    cfg.income_size = 80;
    let table = census::generate(&cfg).unwrap();
    let n = table.len();
    (cfg, FrequencyMatrix::from_table(&table).unwrap(), n)
}

#[test]
fn medical_pipeline_round_trips() {
    let table = medical_example();
    let fm = FrequencyMatrix::from_table(&table).unwrap();
    assert_eq!(fm.total(), table.len() as f64);
    // Every mechanism publishes a matrix over the identical schema.
    let basic = publish_basic(&fm, 1.0, 1).unwrap();
    let privelet = publish_privelet(&fm, &PriveletConfig::pure(1.0, 1)).unwrap();
    assert_eq!(basic.schema().dims(), fm.schema().dims());
    assert_eq!(privelet.matrix.schema().dims(), fm.schema().dims());
    // The unconstrained query still answers on all outputs.
    let q = RangeQuery::all(2);
    assert!(q.evaluate(&basic).unwrap().is_finite());
    assert!(q.evaluate(&privelet.matrix).unwrap().is_finite());
}

#[test]
fn census_pipeline_answers_workload_on_all_mechanisms() {
    let (_, fm, n) = tiny_census();
    let wcfg = WorkloadConfig {
        n_queries: 300,
        ..WorkloadConfig::paper(5)
    };
    let queries = generate_workload(fm.schema(), &wcfg).unwrap();
    let exact_prefix = PrefixSums::build(fm.matrix());

    let basic = publish_basic(&fm, 1.0, 11).unwrap();
    let plus = publish_privelet(&fm, &PriveletConfig::auto(fm.schema(), 1.0, 11)).unwrap();
    let basic_prefix = PrefixSums::build(basic.matrix());
    let plus_prefix = PrefixSums::build(plus.matrix.matrix());

    for q in &queries {
        let act = q.evaluate_prefix(fm.schema(), &exact_prefix).unwrap();
        assert!(act >= 0.0 && act <= n as f64);
        // Both noisy answers are finite and (on average) near the truth;
        // just assert finiteness per-query here, moments are covered by
        // the utility tests.
        assert!(q
            .evaluate_prefix(fm.schema(), &basic_prefix)
            .unwrap()
            .is_finite());
        assert!(q
            .evaluate_prefix(fm.schema(), &plus_prefix)
            .unwrap()
            .is_finite());
    }
}

#[test]
fn noisy_totals_track_true_total() {
    // The full-domain count on Privelet's output is the (noisy) base
    // coefficient chain; it must stay close to n relative to m.
    let (_, fm, n) = tiny_census();
    let q = RangeQuery::all(4);
    let mut total_err = 0.0f64;
    let trials = 20;
    for t in 0..trials {
        let out = publish_privelet(&fm, &PriveletConfig::auto(fm.schema(), 1.0, t)).unwrap();
        total_err += (q.evaluate(&out.matrix).unwrap() - n as f64).abs();
    }
    let mean_err = total_err / trials as f64;
    // The variance bound caps the total-count error far below n.
    assert!(
        mean_err < n as f64 * 0.2,
        "mean absolute total error {mean_err} too large vs n = {n}"
    );
}

#[test]
fn rounding_post_process_keeps_schema_and_integrality() {
    let table = medical_example();
    let fm = FrequencyMatrix::from_table(&table).unwrap();
    let mut out = publish_privelet(&fm, &PriveletConfig::pure(1.0, 9))
        .unwrap()
        .matrix;
    out.round_nonnegative();
    for &v in out.matrix().as_slice() {
        assert!(v >= 0.0);
        assert_eq!(v, v.round());
    }
}

#[test]
fn one_dimensional_pipeline_through_all_three_mechanisms() {
    let schema = Schema::new(vec![Attribute::ordinal("x", 100)]).unwrap();
    let mut table = Table::new(schema);
    for i in 0..5_000u32 {
        table.push_row(&[i * 7 % 100]).unwrap();
    }
    let fm = FrequencyMatrix::from_table(&table).unwrap();
    let q = RangeQuery::new(vec![Predicate::Range { lo: 10, hi: 60 }]);
    let act = q.evaluate(&fm).unwrap();
    for seed in 0..5 {
        let b = publish_basic(&fm, 1.0, seed).unwrap();
        let p = publish_privelet(&fm, &PriveletConfig::pure(1.0, seed)).unwrap();
        let h = publish_hierarchical_1d(&fm, 1.0, seed).unwrap();
        for noisy in [&b, &p.matrix, &h] {
            let x = q.evaluate(noisy).unwrap();
            assert!((x - act).abs() < 2_000.0, "answer {x} too far from {act}");
        }
    }
}

#[test]
fn workload_statistics_match_paper_conventions() {
    let (_, fm, n) = tiny_census();
    let wcfg = WorkloadConfig {
        n_queries: 500,
        ..WorkloadConfig::paper(3)
    };
    let queries = generate_workload(fm.schema(), &wcfg).unwrap();
    let prefix = PrefixSums::build(fm.matrix());
    for q in &queries {
        let k = q.predicate_count();
        assert!((1..=4).contains(&k));
        let cov = q.coverage(fm.schema()).unwrap();
        assert!(cov > 0.0 && cov <= 1.0);
        let sel = q.evaluate_prefix(fm.schema(), &prefix).unwrap() / n as f64;
        assert!((0.0..=1.0).contains(&sel));
    }
}
