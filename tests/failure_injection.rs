//! Failure injection: every misuse surfaces as a typed error, never as a
//! panic or a silently wrong release.

use privelet_repro::core::mechanism::{
    publish_basic, publish_coefficients, publish_hierarchical_1d, publish_privelet, PriveletConfig,
};
use privelet_repro::core::transform::HnTransform;
use privelet_repro::core::CoreError;
use privelet_repro::data::medical::medical_example;
use privelet_repro::data::schema::{Attribute, Schema};
use privelet_repro::data::{DataError, FrequencyMatrix, Table};
use privelet_repro::eval::ExactEvaluate;
use privelet_repro::hierarchy::{HierarchyError, Spec};
use privelet_repro::matrix::NdMatrix;
use privelet_repro::query::{Predicate, QueryError, RangeQuery};
use std::collections::BTreeSet;

fn medical_fm() -> FrequencyMatrix {
    FrequencyMatrix::from_table(&medical_example()).unwrap()
}

#[test]
fn invalid_epsilons_are_rejected_everywhere() {
    let fm = medical_fm();
    for bad in [0.0, -0.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert!(matches!(
            publish_basic(&fm, bad, 1).unwrap_err(),
            CoreError::BadEpsilon(_)
        ));
        assert!(matches!(
            publish_privelet(&fm, &PriveletConfig::pure(bad, 1)).unwrap_err(),
            CoreError::BadEpsilon(_)
        ));
    }
    let one_d = FrequencyMatrix::from_parts(
        Schema::new(vec![Attribute::ordinal("x", 4)]).unwrap(),
        NdMatrix::zeros(&[4]).unwrap(),
    )
    .unwrap();
    assert!(publish_hierarchical_1d(&one_d, 0.0, 1).is_err());
}

#[test]
fn sa_indices_out_of_range_are_rejected() {
    let fm = medical_fm();
    let err =
        publish_privelet(&fm, &PriveletConfig::plus(1.0, BTreeSet::from([2]), 1)).unwrap_err();
    assert!(matches!(err, CoreError::BadSaIndex { index: 2, arity: 2 }));
}

#[test]
fn transform_shape_mismatches_are_rejected() {
    let schema = Schema::new(vec![Attribute::ordinal("x", 4)]).unwrap();
    let hn = HnTransform::for_schema(&schema, &BTreeSet::new()).unwrap();
    let wrong = NdMatrix::zeros(&[5]).unwrap();
    assert!(matches!(
        hn.forward(&wrong).unwrap_err(),
        CoreError::ShapeMismatch { .. }
    ));
}

#[test]
fn hierarchical_requires_one_dimension() {
    let fm = medical_fm(); // 2-D
    assert!(matches!(
        publish_hierarchical_1d(&fm, 1.0, 1).unwrap_err(),
        CoreError::Unsupported(_)
    ));
}

#[test]
fn malformed_hierarchies_are_rejected_at_build_time() {
    assert!(matches!(
        Spec::internal("bad", vec![Spec::leaf("only")])
            .build()
            .unwrap_err(),
        HierarchyError::UndersizedInternal { .. }
    ));
    assert!(privelet_repro::hierarchy::builder::three_level(4, 3).is_err());
}

#[test]
fn tables_reject_out_of_domain_rows_without_corruption() {
    let schema = Schema::new(vec![Attribute::ordinal("x", 3)]).unwrap();
    let mut t = Table::new(schema);
    t.push_row(&[2]).unwrap();
    assert!(matches!(
        t.push_row(&[3]).unwrap_err(),
        DataError::ValueOutOfDomain { .. }
    ));
    assert!(matches!(
        t.push_row(&[0, 0]).unwrap_err(),
        DataError::WrongArity { .. }
    ));
    // The failed pushes left the table consistent.
    assert_eq!(t.len(), 1);
    let fm = FrequencyMatrix::from_table(&t).unwrap();
    assert_eq!(fm.total(), 1.0);
}

#[test]
fn queries_validate_against_the_schema() {
    let fm = medical_fm();
    // Interval on a nominal attribute.
    let q = RangeQuery::new(vec![Predicate::All, Predicate::Range { lo: 0, hi: 1 }]);
    assert!(matches!(
        q.evaluate(&fm).unwrap_err(),
        QueryError::KindMismatch { attr: 1 }
    ));
    // Node on an ordinal attribute.
    let q = RangeQuery::new(vec![Predicate::Node { node: 0 }, Predicate::All]);
    assert!(matches!(
        q.evaluate(&fm).unwrap_err(),
        QueryError::KindMismatch { attr: 0 }
    ));
    // Out-of-domain interval.
    let q = RangeQuery::new(vec![Predicate::Range { lo: 3, hi: 9 }, Predicate::All]);
    assert!(matches!(
        q.evaluate(&fm).unwrap_err(),
        QueryError::BadInterval { .. }
    ));
}

#[test]
fn schema_matrix_mismatch_is_rejected() {
    let schema = Schema::new(vec![Attribute::ordinal("x", 4)]).unwrap();
    let wrong = NdMatrix::zeros(&[5]).unwrap();
    assert!(matches!(
        FrequencyMatrix::from_parts(schema, wrong).unwrap_err(),
        DataError::ShapeMismatch
    ));
}

#[test]
fn non_finite_tables_never_reach_a_publisher() {
    let schema = Schema::new(vec![Attribute::ordinal("x", 8)]).unwrap();
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut data = vec![3.0; 8];
        data[5] = bad;
        let matrix = NdMatrix::from_vec(&[8], data.clone()).unwrap();
        let err = FrequencyMatrix::from_parts(schema.clone(), matrix).unwrap_err();
        assert_eq!(err, DataError::NonFiniteCell { index: 5 });
        assert!(
            err.to_string().contains("cell 5"),
            "unhelpful message: {err}"
        );
        // The same table with the cell made finite publishes cleanly.
        data[5] = 0.0;
        let fm =
            FrequencyMatrix::from_parts(schema.clone(), NdMatrix::from_vec(&[8], data).unwrap())
                .unwrap();
        let out = publish_coefficients(&fm, &PriveletConfig::pure(1.0, 3)).unwrap();
        assert!(out.coefficients.as_slice().iter().all(|c| c.is_finite()));
    }
}

#[test]
fn errors_render_human_readable_messages() {
    let fm = medical_fm();
    let err = publish_privelet(&fm, &PriveletConfig::pure(-1.0, 1)).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("epsilon"), "unhelpful message: {msg}");
    let err =
        publish_privelet(&fm, &PriveletConfig::plus(1.0, BTreeSet::from([9]), 1)).unwrap_err();
    assert!(err.to_string().contains("9"));
}
