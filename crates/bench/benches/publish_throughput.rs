//! `publish_throughput`: cells/sec through the full publish pipeline.
//!
//! One number per point: how many cells per second
//! `publish_privelet_with` sustains — forward HN transform, weighted
//! Laplace noise, refinement, inverse transform — on a warm executor
//! (constructed and run once before timing, so its buffers and worker
//! pool amortize as they do in a serving loop). The full run records
//! three sweeps, told apart by the `sweep` param:
//!
//! - `shape` — m = 2^14 … 2^22 across 1–3-dim schemas on one thread
//!   (`LaneExecutor::serial()`), so the numbers mean the same on both
//!   feature sets. m = 2^20 in 2 dims (axis 0 gathers with inner stride
//!   2^10) is the acceptance point of the tiled executor.
//! - `tile` — the tile-width calibration at that point, one thread: the
//!   data behind `DEFAULT_TILE_LANES`.
//! - `threads` — the 2^12 × 2^6 publish at 1, 2, 4, … threads up to
//!   the box's hardware threads. It runs only with `--features
//!   parallel` on a box with at least 2 of them; otherwise it prints
//!   why it was skipped, since more workers than cores only add
//!   scheduling overhead.
//!
//! `... -- --test` is smoke mode: tiny `shape` points, then the
//! publish must come out bitwise identical per-lane, tiled (default and
//! 64-wide) and pooled. CI runs it on both feature sets.
//! `... -- --record <path>` also writes the run in the one BENCH schema
//! (`BENCH_publish_throughput.json` is a `--features parallel` run).
//!
//! Timing, flags and the record live in `privelet_bench::harness`.

use privelet::mechanism::{publish_privelet_with, PriveletConfig};
use privelet_bench::harness::{best_of, ordinal_table, Args, Record};
use privelet_bench::json::Json;
use privelet_matrix::LaneExecutor;
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
        ("threads", Json::Num(exec.threads() as f64)),
        ("tile_lanes", Json::Num(exec.tile_lanes() as f64)),
    ];
    record.push("publish", params, secs, fm.cell_count() as f64);
    Ok(())
}

/// Smoke gate: the publish must be identical no matter how the engine
/// schedules lanes — per-lane (tile width 1), tiled (default width),
/// wide tiles, and the pooled parallel path must all produce the same
/// bits for the same seed.
fn assert_paths_agree() -> Result<(), Box<dyn Error>> {
    for dims in [vec![1 << 10], vec![64, 32], vec![16, 8, 8]] {
        let fm = ordinal_table(&dims)?;
        let cfg = PriveletConfig::pure(1.0, 11);
        let mut reference = LaneExecutor::serial().with_tile_lanes(1);
        let want = publish_privelet_with(&mut reference, &fm, &cfg)?;
        let mut variants: Vec<(&str, LaneExecutor)> = vec![
            ("default-tile", LaneExecutor::serial()),
            ("tile-64", LaneExecutor::serial().with_tile_lanes(64)),
            (
                "pooled",
                LaneExecutor::with_threads(4).with_parallel_threshold(0),
            ),
        ];
        for (name, exec) in &mut variants {
            let got = publish_privelet_with(exec, &fm, &cfg)?;
            assert_eq!(
                got.matrix.matrix().as_slice(),
                want.matrix.matrix().as_slice(),
                "{name} publish diverged from per-lane at dims {dims:?}"
            );
        }
    }
    Ok(())
}

/// The tile-width calibration at the acceptance point, one thread.
fn tile_sweep(record: &mut Record, budget_secs: f64) -> Result<(), Box<dyn Error>> {
    for tile in [1, 2, 4, 8, 16, 32, 64, 128] {
        let exec = LaneExecutor::serial().with_tile_lanes(tile);
        measure(record, "tile", exec, &dims_for(20, 2), budget_secs)?;
    }
    Ok(())
}

/// The 2^12 × 2^6 publish at 1, 2, 4, … threads, or why it was skipped.
fn thread_sweep(record: &mut Record, budget_secs: f64) -> Result<(), Box<dyn Error>> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let skipped = if !cfg!(feature = "parallel") {
        Some("built without --features parallel")
    } else if cores < 2 {
        Some("1 hardware thread, scaling numbers would be noise")
    } else {
        None
    };
    if let Some(why) = skipped {
        println!("thread sweep skipped: {why}");
        return Ok(());
    }
    let mut threads = 1;
    while threads <= cores {
        let exec = LaneExecutor::with_threads(threads);
        measure(record, "threads", exec, &[1 << 12, 1 << 6], budget_secs)?;
        threads *= 2;
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
            measure(&mut record, "shape", LaneExecutor::serial(), &dims, budget)?;
        }
    }
    if args.smoke {
        assert_paths_agree()?;
        println!("publish_throughput smoke OK");
    } else {
        tile_sweep(&mut record, budget)?;
        thread_sweep(&mut record, budget)?;
    }
    record.finish(&args)?;
    Ok(())
}
