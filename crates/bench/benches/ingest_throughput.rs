//! `ingest_throughput`: streaming-ingest cost, sequential vs coalesced.
//!
//! The coalesced bulk-ingest path is judged here: at the acceptance
//! point — m = 2^18 on a 2-dim mixed schema (ordinal 512 × nominal
//! `three_level(512, 8)`) — `apply_increments` on clustered batches of
//! 4096 must beat a loop of `apply_increment` calls (each a batch of
//! one) by ≥2×. The sweep crosses batch size (1 / 64 / 1024 / 4096)
//! with cell locality (clustered: all cells inside one 64×64 tile, so
//! leaf-to-root paths overlap heavily; uniform: hashed over the whole
//! domain), because the win is algorithmic — bulk cost is proportional
//! to the *distinct dirty coefficients*, the loop's cost to
//! batch × ∏ log mᵢ.
//!
//! - `cargo bench --bench ingest_throughput` — full sweep: per point,
//!   seconds per batch and increments/sec for both paths, the bulk
//!   path's `IngestReport` counters, and the speedup at the acceptance
//!   point.
//! - `... -- --test` — smoke mode: a tiny fixture of the same shape,
//!   the correctness assertions (bulk == sequential == dense forward,
//!   bitwise, on pure and Privelet⁺ schemas, on a batch below the lane
//!   count and one above it, so both lane groupings run; bulk writes no
//!   more coefficients than the loop or the touch bound), then one
//!   timed batch size. CI runs this.
//! - `... -- --record <path>` — also writes the run in the one BENCH
//!   schema (`BENCH_ingest_batch.json` is such a run); the counters
//!   travel in each point's params.
//!
//! Per point, one release per path is constructed and reused across
//! the timed calls, so the bulk path's workspace amortizes exactly as
//! it does in a serving loop (deltas accumulate across calls; that only
//! grows leaf values, never the touched-path structure). Timing, flags
//! and the record live in `privelet_bench::harness`.

use privelet::transform::HnTransform;
use privelet::IncrementalRelease;
use privelet_bench::harness::{best_of, Args, Record};
use privelet_bench::json::Json;
use privelet_data::schema::{Attribute, Schema};
use privelet_data::FrequencyMatrix;
use privelet_hierarchy::builder::three_level;
use privelet_matrix::NdMatrix;
use std::collections::BTreeSet;
use std::error::Error;
use std::hint::black_box;

/// An ordinal × nominal `three_level(leaves, groups)` table with
/// deterministic counts.
fn fixture(
    ordinal: usize,
    leaves: usize,
    groups: usize,
) -> Result<FrequencyMatrix, Box<dyn Error>> {
    let schema = Schema::new(vec![
        Attribute::ordinal("o", ordinal),
        Attribute::nominal("n", three_level(leaves, groups)?),
    ])?;
    let dims = schema.dims();
    let cells: usize = dims.iter().product();
    let data = (0..cells).map(|i| (i % 17) as f64).collect();
    Ok(FrequencyMatrix::from_parts(
        schema,
        NdMatrix::from_vec(&dims, data)?,
    )?)
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic batch of `n` unit increments. Clustered batches land
/// inside one 64×64 (or domain-capped) tile anchored by `seed`, so the
/// per-dimension coefficient paths overlap almost entirely; uniform
/// batches hash over the whole domain.
fn batch(schema: &Schema, seed: u64, n: usize, clustered: bool) -> Vec<(Vec<usize>, f64)> {
    let dims = schema.dims();
    let mut state = seed;
    let tile: Vec<usize> = dims.iter().map(|&m| m.min(64)).collect();
    let origin: Vec<usize> = dims
        .iter()
        .zip(&tile)
        .map(|(&m, &t)| (splitmix(&mut state) as usize) % (m - t + 1))
        .collect();
    (0..n)
        .map(|_| {
            let cell = dims
                .iter()
                .enumerate()
                .map(|(d, &m)| {
                    let r = splitmix(&mut state) as usize;
                    if clustered {
                        origin[d] + r % tile[d]
                    } else {
                        r % m
                    }
                })
                .collect();
            (cell, 1.0)
        })
        .collect()
}

/// Times one batch size and locality on `fm` through both paths and
/// returns the bulk path's speedup over the loop.
fn measure(
    record: &mut Record,
    fm: &FrequencyMatrix,
    size: usize,
    clustered: bool,
    budget_secs: f64,
) -> Result<f64, Box<dyn Error>> {
    let sa = BTreeSet::new();
    let seed = 0xB07C * size as u64 + clustered as u64;
    let increments = batch(fm.schema(), seed, size, clustered);
    let mode = Json::Str(if clustered { "clustered" } else { "uniform" }.into());
    let params = |counters: &[(&'static str, usize)]| {
        let mut params = vec![("batch", Json::Num(size as f64)), ("mode", mode.clone())];
        params.extend(counters.iter().map(|&(k, n)| (k, Json::Num(n as f64))));
        params
    };

    // Before: the per-increment loop (each `apply_increment` a batch of
    // one).
    let mut seq = IncrementalRelease::new(fm, &sa, 1e9)?;
    let mut seq_written = 0usize;
    for (cell, delta) in &increments {
        seq_written += seq.apply_increment(cell, *delta)?;
    }
    let seq_secs = best_of(budget_secs, || {
        increments
            .iter()
            .map(|(cell, delta)| seq.apply_increment(black_box(cell), *delta))
            .sum::<Result<usize, _>>()
    });
    let written = [("coefficients_written", seq_written)];
    record.push("sequential", params(&written), seq_secs, size as f64);

    // After: one coalesced dirty-set walk per batch.
    let mut bulk = IncrementalRelease::new(fm, &sa, 1e9)?;
    let report = bulk.apply_increments(&increments)?;
    let bulk_secs = best_of(budget_secs, || {
        bulk.apply_increments(black_box(&increments))
    });
    let counters = [
        ("coefficients_written", report.coefficients_written),
        ("coalesced_cells", report.coalesced_cells),
        ("touch_bound", report.touch_bound),
    ];
    record.push("bulk", params(&counters), bulk_secs, size as f64);
    Ok(seq_secs / bulk_secs)
}

/// Smoke gate (CI): the bulk path must be bit-identical
/// to the sequential loop, and both to a dense forward on the updated
/// table — while writing no more coefficients than the loop did. The
/// smoke fixture's axes have 24 and 32 lanes: a batch of 8 groups axis 0's
/// dirty lanes with the comparison sort, a batch of 512 with the
/// counting pass.
fn assert_bulk_matches_sequential(fm: &FrequencyMatrix) -> Result<(), Box<dyn Error>> {
    let schema = fm.schema();
    let sa_sets = [BTreeSet::new(), BTreeSet::from([0usize])];
    for sa in &sa_sets {
        for (size, clustered) in [8, 512].into_iter().flat_map(|n| [(n, true), (n, false)]) {
            let increments = batch(schema, 42 + clustered as u64, size, clustered);

            let mut seq = IncrementalRelease::new(fm, sa, 1.0)?;
            let mut seq_written = 0usize;
            let mut dense = fm.matrix().clone();
            for (cell, delta) in &increments {
                seq_written += seq.apply_increment(cell, *delta)?;
                let old = dense.get(cell)?;
                dense.set(cell, old + delta)?;
            }

            let mut bulk = IncrementalRelease::new(fm, sa, 1.0)?;
            let report = bulk.apply_increments(&increments)?;
            assert!(
                report.coefficients_written <= seq_written,
                "bulk wrote {} coefficients, sequential loop wrote {seq_written}",
                report.coefficients_written
            );
            assert!(report.coefficients_written <= report.touch_bound);

            let hn = HnTransform::for_schema(schema, sa)?;
            let want = hn.forward(&dense)?;
            assert_eq!(
                seq.exact_coefficients().as_slice(),
                want.as_slice(),
                "sequential state must track the dense forward bitwise"
            );
            assert_eq!(
                bulk.exact_coefficients().as_slice(),
                seq.exact_coefficients().as_slice(),
                "bulk batch must be bit-identical to the sequential loop \
                 (batch = {size}, clustered = {clustered}, sa = {sa:?})"
            );
        }
    }
    Ok(())
}

fn main() -> Result<(), Box<dyn Error>> {
    let args = Args::from_env()?;
    let mut record = Record::new("ingest_throughput", "increments/s");
    // Smoke mode runs a tiny fixture of the acceptance shape.
    let (fm, sizes): (_, &[usize]) = if args.smoke {
        (fixture(32, 24, 4)?, &[64])
    } else {
        (fixture(512, 512, 8)?, &[1, 64, 1024, 4096])
    };
    if args.smoke {
        assert_bulk_matches_sequential(&fm)?;
    }
    for clustered in [true, false] {
        for &size in sizes {
            let speedup = measure(&mut record, &fm, size, clustered, args.budget_secs())?;
            if clustered && size == 4096 {
                println!("acceptance (clustered 4096, m = 2^18): {speedup:.1}x (need ≥ 2x)");
            }
        }
    }
    record.finish(&args)?;
    if args.smoke {
        println!("ingest_throughput smoke OK");
    }
    Ok(())
}
