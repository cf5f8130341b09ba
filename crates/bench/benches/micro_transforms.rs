//! `micro_transforms`: cells/sec through the building blocks — the 1-D
//! transforms, the multi-dimensional HN transform on the lane executor,
//! the two publishers, and prefix-sum versus naive rectangle sums. These
//! back the O(n + m) complexity claims of §IV–§VI with per-component
//! numbers; the `hn_scaling` points time the HN forward plus refined
//! inverse at 2^16, 2^18 and 2^20 cells, so the engine's near-linear
//! scaling is directly visible.
//!
//! Every rate counts cells: a transform or publish its input cells, a
//! rectangle sum the cells its rectangle covers, so the `prefix_rect_sum`
//! and `naive_rect_sum` rates read as the prefix-sum speedup directly.
//!
//! - `cargo bench --bench micro_transforms` — full run.
//! - `... -- --test` — smoke mode: the same points at sizes that finish
//!   in seconds. It asserts nothing (unit and property tests pin these
//!   kernels); running it keeps the target from rotting.
//! - `... -- --record <path>` — also writes the run in the one BENCH
//!   schema.
//!
//! Timing, flags and the record live in `privelet_bench::harness`.

use privelet::mechanism::{publish_basic, publish_privelet, PriveletConfig};
use privelet::transform::{HaarTransform, HnTransform, NominalTransform, Transform1d};
use privelet_bench::harness::{best_of, Args, Record};
use privelet_bench::json::Json;
use privelet_data::schema::{Attribute, Schema};
use privelet_data::{uniform, FrequencyMatrix};
use privelet_hierarchy::builder::three_level;
use privelet_matrix::{rect_sum_naive, LaneExecutor, NdMatrix, PrefixSums};
use std::collections::BTreeSet;
use std::error::Error;
use std::hint::black_box;
use std::sync::Arc;

/// The size of every point, for the full run or for smoke mode.
struct Sizes {
    /// Haar lane length.
    haar: usize,
    /// Nominal `three_level(leaves, groups)` hierarchy.
    nominal: (usize, usize),
    /// Side of the cubic ordinal × nominal × identity HN schema.
    hn_side: usize,
    /// Cell-count exponents of the `hn_scaling` points.
    scaling: &'static [u32],
    /// Target cells of the publish points.
    publish: usize,
    /// The rectangle-sum matrix's dims, and the rectangle's `lo` and `hi`.
    rect: ([usize; 3], [usize; 3], [usize; 3]),
}

const FULL: Sizes = Sizes {
    haar: 1 << 16,
    nominal: (512, 22),
    hn_side: 64,
    scaling: &[16, 18, 20],
    publish: 1 << 16,
    rect: ([128, 128, 64], [5, 10, 3], [100, 90, 60]),
};

const SMOKE: Sizes = Sizes {
    haar: 1 << 10,
    nominal: (64, 8),
    hn_side: 16,
    scaling: &[8, 10, 12],
    publish: 1 << 10,
    rect: ([16, 16, 8], [1, 2, 1], [12, 11, 7]),
};

fn cells(n: usize) -> Vec<(&'static str, Json)> {
    vec![("cells", Json::Num(n as f64))]
}

fn dims_params(dims: &[usize]) -> Vec<(&'static str, Json)> {
    vec![(
        "dims",
        Json::Arr(dims.iter().map(|&d| Json::Num(d as f64)).collect()),
    )]
}

/// Forward and inverse of one 1-D transform on one lane.
fn one_dim(record: &mut Record, name: &str, t: &dyn Transform1d, budget: f64) {
    let n = t.input_len();
    let src: Vec<f64> = (0..n).map(|i| (i % 251) as f64).collect();
    let mut dst = vec![0.0f64; t.output_len()];
    let mut back = vec![0.0f64; n];
    let mut scratch = vec![0.0f64; t.scratch_len()];
    let secs = best_of(budget, || {
        t.forward(black_box(&src), &mut dst, &mut scratch)
    });
    record.push(&format!("{name}_forward"), cells(n), secs, n as f64);
    let secs = best_of(budget, || {
        t.inverse(black_box(&dst), &mut back, &mut scratch)
    });
    record.push(&format!("{name}_inverse"), cells(n), secs, n as f64);
}

/// HN forward and refined inverse on a cubic ordinal × nominal × identity
/// schema.
fn hn(record: &mut Record, side: usize, budget: f64) -> Result<(), Box<dyn Error>> {
    let schema = Schema::new(vec![
        Attribute::ordinal("o", side),
        Attribute::nominal("n", three_level(side, side / 8)?),
        Attribute::ordinal("s", side),
    ])?;
    let hn = HnTransform::for_schema(&schema, &BTreeSet::from([2]))?;
    let dims = schema.dims();
    let n = schema.cell_count();
    let m = NdMatrix::from_vec(&dims, (0..n).map(|i| (i % 17) as f64).collect())?;
    let mut exec = LaneExecutor::new();
    let coeffs = hn.forward_with(&mut exec, &m)?;
    let secs = best_of(budget, || hn.forward_with(&mut exec, black_box(&m)));
    record.push("hn_forward", dims_params(&dims), secs, n as f64);
    hn.inverse_refined_with(&mut exec, &coeffs)?;
    let secs = best_of(budget, || {
        hn.inverse_refined_with(&mut exec, black_box(&coeffs))
    });
    record.push("hn_inverse_refined", dims_params(&dims), secs, n as f64);
    Ok(())
}

/// The engine scaling sweep: HN forward plus refined inverse at 2^`exp`
/// cells over a 4-d mixed schema.
fn hn_scaling(record: &mut Record, exp: u32, budget: f64) -> Result<(), Box<dyn Error>> {
    // Fourth root per dimension: a^4 = 2^exp.
    let a = ((1usize << exp) as f64).powf(0.25).round() as usize;
    let schema = Schema::new(vec![
        Attribute::ordinal("o1", a),
        Attribute::ordinal("o2", a),
        Attribute::nominal("n1", three_level(a, (a / 4).max(2))?),
        Attribute::ordinal("o3", a),
    ])?;
    let hn = HnTransform::for_schema(&schema, &BTreeSet::new())?;
    let dims = schema.dims();
    let n = schema.cell_count();
    let m = NdMatrix::from_vec(&dims, (0..n).map(|i| ((i * 31) % 101) as f64).collect())?;
    let mut exec = LaneExecutor::new();
    let mut round_trip = || {
        hn.forward_with(&mut exec, black_box(&m))
            .and_then(|c| hn.inverse_refined_with(&mut exec, &c))
    };
    round_trip()?;
    let secs = best_of(budget, round_trip);
    let mut params = dims_params(&dims);
    params.push(("m_exp", Json::Num(exp.into())));
    record.push("hn_scaling", params, secs, n as f64);
    Ok(())
}

/// Basic versus pure Privelet on the uniform timing table.
fn publishers(record: &mut Record, target: usize, budget: f64) -> Result<(), Box<dyn Error>> {
    let cfg = uniform::TimingConfig::with_total_cells(target, 50_000, 5);
    let fm = FrequencyMatrix::from_table(&uniform::generate(&cfg)?)?;
    let n = fm.cell_count();
    publish_basic(&fm, 1.0, 3)?;
    let secs = best_of(budget, || publish_basic(black_box(&fm), 1.0, 3));
    record.push("publish_basic", cells(n), secs, n as f64);
    let config = PriveletConfig::pure(1.0, 3);
    publish_privelet(&fm, &config)?;
    let secs = best_of(budget, || publish_privelet(black_box(&fm), &config));
    record.push("publish_privelet", cells(n), secs, n as f64);
    Ok(())
}

/// `PrefixSums::build`, then one rectangle summed through the prefix
/// sums and by direct iteration.
fn rect_sums(record: &mut Record, sizes: &Sizes, budget: f64) -> Result<(), Box<dyn Error>> {
    let (dims, lo, hi) = sizes.rect;
    let n: usize = dims.iter().product();
    let m = NdMatrix::from_vec(&dims, (0..n).map(|i| (i % 5) as f64).collect())?;
    let secs = best_of(budget, || PrefixSums::build(black_box(&m)));
    record.push("prefix_build", dims_params(&dims), secs, n as f64);

    let prefix = PrefixSums::build(&m);
    let covered: usize = lo.iter().zip(&hi).map(|(l, h)| h - l + 1).product();
    let params = || {
        let mut p = dims_params(&dims);
        p.push(("covered", Json::Num(covered as f64)));
        p
    };
    prefix.rect_sum(&lo, &hi)?;
    let secs = best_of(budget, || prefix.rect_sum(black_box(&lo), black_box(&hi)));
    record.push("prefix_rect_sum", params(), secs, covered as f64);
    let secs = best_of(budget, || {
        rect_sum_naive(black_box(&m), black_box(&lo), black_box(&hi))
    });
    record.push("naive_rect_sum", params(), secs, covered as f64);
    Ok(())
}

fn main() -> Result<(), Box<dyn Error>> {
    let args = Args::from_env()?;
    let budget = args.budget_secs();
    let sizes = if args.smoke { &SMOKE } else { &FULL };
    let mut record = Record::new("micro_transforms", "cells/s");
    one_dim(&mut record, "haar", &HaarTransform::new(sizes.haar), budget);
    let (leaves, groups) = sizes.nominal;
    let nominal = NominalTransform::new(Arc::new(three_level(leaves, groups)?));
    one_dim(&mut record, "nominal", &nominal, budget);
    hn(&mut record, sizes.hn_side, budget)?;
    for &exp in sizes.scaling {
        hn_scaling(&mut record, exp, budget)?;
    }
    publishers(&mut record, sizes.publish, budget)?;
    rect_sums(&mut record, sizes, budget)?;
    record.finish(&args)?;
    if args.smoke {
        println!("micro_transforms smoke OK");
    }
    Ok(())
}
