//! Property tests for the query layer.

use privelet_data::schema::{Attribute, Schema};
use privelet_data::{FrequencyMatrix, Table};
use privelet_hierarchy::builder::random as random_hierarchy;
use privelet_matrix::PrefixSums;
use privelet_query::{generate_workload, quantile_rows, Predicate, RangeQuery, WorkloadConfig};
use proptest::prelude::*;

/// Ground-truth evaluation by direct summation. The library version is
/// `privelet_eval::ExactEvaluate` (eval depends on query, so the tests
/// here re-derive it from `bounds` + `rect_sum_naive` instead).
fn exact(fm: &FrequencyMatrix, q: &RangeQuery) -> f64 {
    let (lo, hi) = q.bounds(fm.schema()).unwrap();
    privelet_matrix::rect_sum_naive(fm.matrix(), &lo, &hi).unwrap()
}

/// Strategy: a random schema of 1..=3 attributes (ordinal or nominal).
fn schema_strategy() -> impl Strategy<Value = Schema> {
    prop::collection::vec(
        prop_oneof![
            (2usize..=10).prop_map(|n| (n, 0u64)),
            ((2usize..=10), 1u64..u64::MAX).prop_map(|(n, s)| (n, s)),
        ],
        1..=3,
    )
    .prop_map(|specs| {
        let attrs = specs
            .into_iter()
            .enumerate()
            .map(|(i, (n, seed))| {
                if seed == 0 {
                    Attribute::ordinal(format!("o{i}"), n)
                } else {
                    Attribute::nominal(
                        format!("n{i}"),
                        random_hierarchy(n, 4, seed).expect("valid hierarchy"),
                    )
                }
            })
            .collect();
        Schema::new(attrs).expect("valid schema")
    })
}

/// A deterministic table over the schema with `rows` tuples.
fn table_for(schema: &Schema, rows: usize) -> Table {
    let mut t = Table::with_capacity(schema.clone(), rows);
    let sizes: Vec<u32> = schema.attrs().iter().map(|a| a.size() as u32).collect();
    let mut row = vec![0u32; schema.arity()];
    for i in 0..rows {
        for (j, slot) in row.iter_mut().enumerate() {
            *slot = ((i as u32)
                .wrapping_mul(2654435761)
                .wrapping_add(j as u32 * 40503))
                % sizes[j];
        }
        t.push_row_unchecked(&row);
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every generated workload query validates, and its prefix-sum answer
    /// equals the naive answer.
    #[test]
    fn workload_queries_agree_across_evaluators(
        schema in schema_strategy(),
        seed in any::<u64>(),
    ) {
        let table = table_for(&schema, 500);
        let fm = FrequencyMatrix::from_table(&table).unwrap();
        let prefix = PrefixSums::build(fm.matrix());
        let cfg = WorkloadConfig { n_queries: 50, min_predicates: 1, max_predicates: 4, seed };
        for q in generate_workload(&schema, &cfg).unwrap() {
            let naive = exact(&fm, &q);
            let fast = q.evaluate_prefix(fm.schema(), &prefix).unwrap();
            prop_assert!((naive - fast).abs() < 1e-9 * (1.0 + naive.abs()));
            // Counting queries on exact data return integers in [0, n].
            prop_assert!((0.0..=500.0).contains(&naive));
            prop_assert!((naive - naive.round()).abs() < 1e-9);
        }
    }

    /// Coverage is the covered-cell fraction: monotone under predicate
    /// widening and equal to 1 for the unconstrained query.
    #[test]
    fn coverage_properties(schema in schema_strategy()) {
        let all = RangeQuery::all(schema.arity());
        prop_assert!((all.coverage(&schema).unwrap() - 1.0).abs() < 1e-12);
        // Constrain the first attribute to a point: coverage becomes
        // 1/|A1| of the unconstrained query.
        let mut preds = vec![Predicate::All; schema.arity()];
        preds[0] = match schema.attr(0).domain().hierarchy() {
            None => Predicate::Range { lo: 0, hi: 0 },
            Some(h) => Predicate::Node { node: h.leaf_node(0) },
        };
        let point = RangeQuery::new(preds);
        let expected = 1.0 / schema.attr(0).size() as f64;
        prop_assert!((point.coverage(&schema).unwrap() - expected).abs() < 1e-12);
    }

    /// Quantile bucketing conserves mass: bucket counts sum to the query
    /// count and global value means are preserved under weighting.
    #[test]
    fn bucketing_conserves_mass(
        keys in prop::collection::vec(0.0f64..1.0, 5..200),
        k in 1usize..8,
    ) {
        let values: Vec<f64> = keys.iter().map(|&x| x * 10.0 + 1.0).collect();
        let rows = quantile_rows(&keys, &[&values], k).unwrap();
        let total: usize = rows.iter().map(|r| r.count).sum();
        prop_assert_eq!(total, keys.len());
        let weighted: f64 = rows.iter().map(|r| r.mean_values[0] * r.count as f64).sum();
        let direct: f64 = values.iter().sum();
        prop_assert!((weighted - direct).abs() < 1e-6 * (1.0 + direct.abs()));
        // Bucket keys are sorted.
        for w in rows.windows(2) {
            prop_assert!(w[0].mean_key <= w[1].mean_key + 1e-12);
        }
    }

    /// The unconstrained query counts every tuple exactly once.
    #[test]
    fn full_query_counts_every_tuple(schema in schema_strategy()) {
        let table = table_for(&schema, 123);
        let fm = FrequencyMatrix::from_table(&table).unwrap();
        let q = RangeQuery::all(schema.arity());
        prop_assert!((exact(&fm, &q) - 123.0).abs() < 1e-12);
    }
}
