//! `publish_throughput`: cells/sec through the full publish pipeline.
//!
//! One number per point: how many cells per second
//! `publish_privelet_with` sustains — forward HN transform, weighted
//! Laplace noise, refinement, inverse transform — on a warm executor
//! (constructed and run once before timing, so its buffers amortize as
//! they do in a serving loop). The full run records two sweeps, told
//! apart by the `sweep` param:
//!
//! - `shape` — m = 2^14 … 2^22 across 1–3-dim schemas at the default
//!   tile width. m = 2^20 in 2 dims (axis 0 gathers with inner stride
//!   2^10) is the acceptance point of the tiled executor.
//! - `tile` — the tile-width calibration at that point: the data behind
//!   `DEFAULT_TILE_LANES`.
//!
//! `... -- --test` is smoke mode: tiny `shape` points, then the
//! publish must come out bitwise identical per-lane and tiled (default
//! and 64-wide), on the ordinal tables and on a small census-shaped
//! Privelet⁺ table whose identity (SA) and nominal axes run the kernels
//! the ordinal tables never reach. `... -- --record <path>` also writes
//! the run in the one BENCH schema (`BENCH_publish_throughput.json`).
//!
//! Timing, flags and the record live in `privelet_bench::harness`.

use privelet::mechanism::{publish_coefficients_with, publish_privelet_with, PriveletConfig};
use privelet_bench::harness::{best_of, ordinal_table, Args, Record};
use privelet_bench::json::Json;
use privelet_data::schema::{Attribute, Schema};
use privelet_data::FrequencyMatrix;
use privelet_hierarchy::builder::{flat, three_level};
use privelet_matrix::{LaneExecutor, NdMatrix};
use std::collections::BTreeSet;
use std::error::Error;

/// Splits `2^exp` cells across `ndim` ordinal dimensions as evenly as
/// powers of two allow (larger axes first: 2^20 over 3 dims is
/// `[128, 128, 64]`, keeping every axis a power of two).
fn dims_for(exp: u32, ndim: usize) -> Vec<usize> {
    let base = exp / ndim as u32;
    let extra = (exp % ndim as u32) as usize;
    (0..ndim)
        .map(|i| 1usize << (base + u32::from(i < extra)))
        .collect()
}

fn measure(
    record: &mut Record,
    sweep: &str,
    mut exec: LaneExecutor,
    dims: &[usize],
    budget_secs: f64,
) -> Result<(), Box<dyn Error>> {
    let fm = ordinal_table(dims)?;
    let cfg = PriveletConfig::pure(1.0, 7);
    publish_privelet_with(&mut exec, &fm, &cfg)?;
    let secs = best_of(budget_secs, || publish_privelet_with(&mut exec, &fm, &cfg));
    let params = vec![
        ("sweep", Json::Str(sweep.into())),
        (
            "dims",
            Json::Arr(dims.iter().map(|&d| Json::Num(d as f64)).collect()),
        ),
        ("tile_lanes", Json::Num(exec.tile_lanes() as f64)),
    ];
    record.push("publish", params, secs, fm.cell_count() as f64);
    Ok(())
}

/// A small census-shaped Privelet⁺ fixture: Age 12 × Gender `flat(2)` ×
/// Occupation `three_level(8, 2)` × Income 8, with Age and Gender in SA
/// (identity axes) and a nominal Occupation axis.
fn census_fixture() -> Result<(FrequencyMatrix, BTreeSet<usize>), Box<dyn Error>> {
    let schema = Schema::new(vec![
        Attribute::ordinal("age", 12),
        Attribute::nominal("gender", flat(2)?),
        Attribute::nominal("occupation", three_level(8, 2)?),
        Attribute::ordinal("income", 8),
    ])?;
    let dims = schema.dims();
    let data = (0..schema.cell_count())
        .map(|i| ((i * 37) % 23) as f64)
        .collect();
    let fm = FrequencyMatrix::from_parts(schema, NdMatrix::from_vec(&dims, data)?)?;
    Ok((fm, BTreeSet::from([0, 1])))
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Smoke gate: the publish must be identical no matter how the engine
/// tiles lanes — per-lane (tile width 1), tiled (default width) and wide
/// tiles must all produce the same bits for the same seed, both the
/// published coefficients and the dense matrix.
fn assert_paths_agree() -> Result<(), Box<dyn Error>> {
    let mut fixtures = Vec::new();
    for dims in [vec![1 << 10], vec![64, 32], vec![16, 8, 8]] {
        fixtures.push((ordinal_table(&dims)?, BTreeSet::new()));
    }
    fixtures.push(census_fixture()?);
    for (fm, sa) in &fixtures {
        let cfg = PriveletConfig::plus(1.0, sa.clone(), 11);
        let dims = fm.schema().dims();
        let mut reference = LaneExecutor::new().with_tile_lanes(1);
        let want_coeffs = publish_coefficients_with(&mut reference, fm, &cfg)?;
        let want = publish_privelet_with(&mut reference, fm, &cfg)?;
        let mut variants: Vec<(&str, LaneExecutor)> = vec![
            ("default-tile", LaneExecutor::new()),
            ("tile-64", LaneExecutor::new().with_tile_lanes(64)),
        ];
        for (name, exec) in &mut variants {
            let coeffs = publish_coefficients_with(exec, fm, &cfg)?;
            assert_eq!(
                bits(coeffs.coefficients.as_slice()),
                bits(want_coeffs.coefficients.as_slice()),
                "{name} coefficients diverged from per-lane at dims {dims:?}, sa {sa:?}"
            );
            let got = publish_privelet_with(exec, fm, &cfg)?;
            assert_eq!(
                bits(got.matrix.matrix().as_slice()),
                bits(want.matrix.matrix().as_slice()),
                "{name} publish diverged from per-lane at dims {dims:?}, sa {sa:?}"
            );
        }
    }
    Ok(())
}

/// The tile-width calibration at the acceptance point.
fn tile_sweep(record: &mut Record, budget_secs: f64) -> Result<(), Box<dyn Error>> {
    for tile in [1, 2, 4, 8, 16, 32, 64, 128] {
        let exec = LaneExecutor::new().with_tile_lanes(tile);
        measure(record, "tile", exec, &dims_for(20, 2), budget_secs)?;
    }
    Ok(())
}

fn main() -> Result<(), Box<dyn Error>> {
    let args = Args::from_env()?;
    let budget = args.budget_secs();
    let mut record = Record::new("publish_throughput", "cells/s");
    let exps: &[u32] = if args.smoke {
        &[12]
    } else {
        &[14, 16, 18, 20, 22]
    };
    for &exp in exps {
        for ndim in 1..=3 {
            let dims = dims_for(exp, ndim);
            measure(&mut record, "shape", LaneExecutor::new(), &dims, budget)?;
        }
    }
    if args.smoke {
        assert_paths_agree()?;
        println!("publish_throughput smoke OK");
    } else {
        tile_sweep(&mut record, budget)?;
    }
    record.finish(&args)?;
    Ok(())
}
