//! The streaming-release contract, end to end:
//!
//! 1. **Bit-identity after increments** — on random 1–3-dimensional
//!    mixed schemas (non-power-of-two extents included), absorbing N
//!    random cell increments through `IncrementalRelease` and then
//!    advancing an epoch yields output bit-identical to
//!    `publish_coefficients` run from scratch on the updated table with
//!    the same seed and ε — coefficients, meta, everything.
//! 2. **Sparse-touch bounds** — every increment writes at least
//!    ∏ᵢ |update_weights(dim, cell)| and at most
//!    ∏ᵢ max_update_support(i) coefficients; on all-ordinal schemas the
//!    count is *exactly* ∏ᵢ (⌈log₂ mᵢ⌉ + 1).
//! 3. **Serving-side epoch advance** — `ConcurrentEngine::advance_epoch`
//!    produces answers bitwise-equal to a fresh engine built on the same
//!    epoch output, while the support cache is *shared* across the bump:
//!    supports are data-independent, so the rolled engine's cache moves
//!    exactly like that of an engine that never rolled, and
//!    `hits + misses == lookups` stays conserved across it.
//! 4. **Coalesced bulk ingest** — `apply_increments` (duplicates
//!    included, on batches below and above the lane count, so both the
//!    comparison sort and the counting pass group the dirty lanes)
//!    leaves the exact tensor bit-identical to `HnTransform::forward` of
//!    the mirrored table, and the tensor and the next epoch output
//!    bit-identical to an `apply_increment` loop (batches of one), while
//!    writing no more coefficients than the loop did.
//! 5. **Sliding windows** — a full expire-then-ingest cycle equals a
//!    publish-from-scratch on a table holding exactly the retained
//!    epochs' increments (exact for the integer-valued deltas used
//!    here, since expiry relies on `x + δ − δ == x`).

mod common;

use common::{data_matrix, distinct_triples, schema_strategy, workload};
use privelet_repro::core::mechanism::{publish_coefficients, PriveletConfig};
use privelet_repro::core::transform::Transform1d;
use privelet_repro::core::{CoreError, IncrementalRelease, SlidingWindowRelease};
use privelet_repro::data::schema::{Attribute, Schema};
use privelet_repro::data::FrequencyMatrix;
use privelet_repro::matrix::NdMatrix;
use privelet_repro::query::ConcurrentEngine;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Deterministic cell/delta stream for a schema — splitmix-style hashing
/// so proptest seeds shrink cleanly (no ambient RNG in tests).
fn increment_stream(schema: &Schema, seed: u64, n: usize) -> Vec<(Vec<usize>, f64)> {
    let mut out = Vec::with_capacity(n);
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for _ in 0..n {
        let cell: Vec<usize> = schema
            .dims()
            .iter()
            .map(|&m| (next() % m as u64) as usize)
            .collect();
        // Small signed integer deltas keep the dense mirror exact.
        let delta = ((next() % 9) as f64) - 4.0;
        out.push((cell, delta));
    }
    out
}

/// Applies the same increments to a plain dense table, with the same
/// `+=` per cell, producing the "from scratch" comparison input.
fn updated_table(fm: &FrequencyMatrix, increments: &[(Vec<usize>, f64)]) -> FrequencyMatrix {
    let mut matrix = fm.matrix().clone();
    for (cell, delta) in increments {
        let old = matrix.get(cell).unwrap();
        matrix.set(cell, old + delta).unwrap();
    }
    FrequencyMatrix::from_parts(fm.schema().clone(), matrix).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Acceptance check: after N random increments plus an epoch
    /// re-noise, the streaming release is bit-identical per seed to a
    /// from-scratch `publish_coefficients` on the updated table, and
    /// every increment's coefficient-touch count is bounded by the
    /// per-dimension update supports.
    #[test]
    fn incremental_release_is_bit_identical_to_from_scratch(
        (schema, sa) in schema_strategy(),
        data_seed in any::<u64>(),
        inc_seed in any::<u64>(),
        noise_seed in any::<u64>(),
    ) {
        let fm = data_matrix(&schema, data_seed);
        let mut rel = IncrementalRelease::new(&fm, &sa, 4.0).unwrap();
        let increments = increment_stream(&schema, inc_seed, 12);

        let transforms = rel.transform().transforms().to_vec();
        let max_bound: usize = transforms.iter().map(|t| t.max_update_support()).product();
        prop_assert_eq!(rel.touch_bound(), max_bound);

        for (cell, delta) in &increments {
            let written = rel.apply_increment(cell, *delta).unwrap();
            let min_bound: usize = transforms
                .iter()
                .zip(cell)
                .map(|(t, &c)| t.update_weights(c).len())
                .product();
            prop_assert!(
                min_bound <= written && written <= max_bound,
                "touched {} coefficients, expected within [{}, {}]",
                written, min_bound, max_bound
            );
        }

        // Exact (pre-noise) state matches a dense forward on the updated
        // table bitwise...
        let updated = updated_table(&fm, &increments);
        let epsilon = 1.0;
        let scratch = publish_coefficients(
            &updated,
            &PriveletConfig::plus(epsilon, sa.clone(), noise_seed),
        )
        .unwrap();

        // ...and so does the epoch output, noise and meta included.
        let out = rel.advance_epoch(epsilon, noise_seed).unwrap();
        prop_assert_eq!(out.meta, scratch.meta);
        prop_assert_eq!(out.coefficients.dims(), scratch.coefficients.dims());
        for (got, want) in out
            .coefficients
            .as_slice()
            .iter()
            .zip(scratch.coefficients.as_slice())
        {
            prop_assert_eq!(got.to_bits(), want.to_bits());
        }
        prop_assert_eq!(rel.epoch(), 1);
        prop_assert!((rel.ledger().spent() - epsilon).abs() < 1e-15);
    }

    /// Counter conservation on the support cache across an epoch advance:
    /// supports survive the bump (the rolled engine's counters equal
    /// those of an engine that answered the same queries without
    /// rolling), and the rolled engine's cached answers equal a cold
    /// engine's on the same epoch.
    #[test]
    fn epoch_advance_conserves_sharded_cache_counters(
        (schema, sa) in schema_strategy(),
        data_seed in any::<u64>(),
        inc_seed in any::<u64>(),
        wl_seed in any::<u64>(),
    ) {
        let fm = data_matrix(&schema, data_seed);
        let queries = workload(&schema, wl_seed);
        let distinct = distinct_triples(&schema, &queries) as u64;
        let lookups_per_round = (queries.len() * schema.arity()) as u64;

        let mut rel = IncrementalRelease::new(&fm, &sa, 4.0).unwrap();
        let epoch0 = rel.advance_epoch(1.0, 7).unwrap();
        let engine = ConcurrentEngine::from_output(&epoch0).unwrap();
        // The twin answers the same queries and never rolls.
        let twin = ConcurrentEngine::from_output(&epoch0).unwrap();

        // Round 1: warm both caches through the online path.
        for q in &queries {
            engine.answer(q).unwrap();
            twin.answer(q).unwrap();
        }
        let s1 = engine.cache_stats();
        prop_assert_eq!(s1, twin.cache_stats());
        prop_assert_eq!(s1.hits + s1.misses, lookups_per_round);

        // Epoch bump: coefficients roll, supports survive. Re-answering
        // the same workload on the new engine moves its cache exactly as
        // the same round moves the twin's.
        for (cell, delta) in &increment_stream(&schema, inc_seed, 6) {
            rel.apply_increment(cell, *delta).unwrap();
        }
        let epoch1 = rel.advance_epoch(1.0, 8).unwrap();
        let engine1 = engine.advance_epoch(&epoch1).unwrap();
        let round2: Vec<f64> = queries.iter().map(|q| engine1.answer(q).unwrap()).collect();
        for q in &queries {
            twin.answer(q).unwrap();
        }
        let s2 = engine1.cache_stats();
        prop_assert_eq!(s2, twin.cache_stats(), "epoch advance must not re-derive supports");
        prop_assert_eq!(s2.hits + s2.misses, 2 * lookups_per_round);
        prop_assert!(distinct <= s2.misses && s2.misses <= distinct + s2.evictions);
        prop_assert_eq!(s2.len as u64, s2.misses - s2.evictions);

        // The data changed between epochs, so answers generally differ —
        // but both engines agree with a cold engine on their own epoch.
        let cold = ConcurrentEngine::from_output(&epoch1).unwrap();
        let cold_answers: Vec<f64> =
            queries.iter().map(|q| cold.answer(q).unwrap()).collect();
        for (got, want) in round2.iter().zip(&cold_answers) {
            prop_assert_eq!(got.to_bits(), want.to_bits());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Tentpole pin: a coalesced bulk batch — duplicate cells included —
    /// leaves the exact tensor bit-identical to the forward transform of
    /// the mirrored table, and the tensor AND the next epoch output
    /// bit-identical to an `apply_increment` loop over the same batch in
    /// order, while writing no more coefficients than the loop did. The
    /// batch is either 13 increments, usually fewer than an axis has
    /// lanes (the comparison sort), or 4 × the cell count plus 3, more
    /// than axis 0 has lanes (the counting pass).
    #[test]
    fn bulk_ingest_is_bit_identical_to_sequential_loop(
        (schema, sa) in schema_strategy(),
        data_seed in any::<u64>(),
        inc_seed in any::<u64>(),
        noise_seed in any::<u64>(),
        large in any::<bool>(),
    ) {
        let fm = data_matrix(&schema, data_seed);
        let n = if large { 4 * schema.cell_count() } else { 10 };
        let mut batch = increment_stream(&schema, inc_seed, n);
        // Guarantee duplicate cells: replay the first three cells with
        // fresh deltas at the end of the batch, so the `+=` arrival-order
        // replay is actually exercised.
        let dups: Vec<(Vec<usize>, f64)> = batch
            .iter()
            .take(3)
            .enumerate()
            .map(|(i, (cell, _))| (cell.clone(), i as f64 - 1.0))
            .collect();
        batch.extend(dups);

        let mut seq = IncrementalRelease::new(&fm, &sa, 4.0).unwrap();
        let mut seq_written = 0usize;
        for (cell, delta) in &batch {
            seq_written += seq.apply_increment(cell, *delta).unwrap();
        }
        let mut bulk = IncrementalRelease::new(&fm, &sa, 4.0).unwrap();
        let report = bulk.apply_increments(&batch).unwrap();
        prop_assert_eq!(report.increments, batch.len());
        prop_assert!(
            report.coefficients_written <= seq_written,
            "bulk wrote {} coefficients, sequential loop wrote {}",
            report.coefficients_written, seq_written
        );
        prop_assert!(report.coefficients_written <= report.touch_bound);
        let mirrored = bulk
            .transform()
            .forward(updated_table(&fm, &batch).matrix())
            .unwrap();
        for ((a, b), c) in bulk
            .exact_coefficients()
            .as_slice()
            .iter()
            .zip(seq.exact_coefficients().as_slice())
            .zip(mirrored.as_slice())
        {
            prop_assert_eq!(a.to_bits(), b.to_bits());
            prop_assert_eq!(a.to_bits(), c.to_bits());
        }

        // The next epoch output matches too, noise and meta included.
        let eo_seq = seq.advance_epoch(1.0, noise_seed).unwrap();
        let eo_bulk = bulk.advance_epoch(1.0, noise_seed).unwrap();
        prop_assert_eq!(eo_seq.meta, eo_bulk.meta);
        for (a, b) in eo_bulk
            .coefficients
            .as_slice()
            .iter()
            .zip(eo_seq.coefficients.as_slice())
        {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Satellite 3: a full expire-then-ingest cycle on a 2-epoch sliding
    /// window equals `publish_coefficients` from scratch on a table
    /// holding exactly the retained epochs' increments, every epoch.
    #[test]
    fn window_expiry_equals_publish_from_scratch(
        (schema, sa) in schema_strategy(),
        inc_seed in any::<u64>(),
        noise_seed in any::<u64>(),
    ) {
        let zero_fm = FrequencyMatrix::from_parts(
            schema.clone(),
            NdMatrix::from_vec(&schema.dims(), vec![0.0; schema.cell_count()]).unwrap(),
        )
        .unwrap();
        let window = 2usize;
        let mut rel = SlidingWindowRelease::new(&zero_fm, &sa, 16.0, window).unwrap();
        let mut logs: Vec<Vec<(Vec<usize>, f64)>> = Vec::new();
        for e in 0..4u64 {
            let batch = increment_stream(&schema, inc_seed ^ e.wrapping_mul(0x9E37), 8);
            rel.apply_increments(&batch).unwrap();
            logs.push(batch);
            let out = rel.advance_epoch(0.5, noise_seed ^ e).unwrap();
            prop_assert!(rel.retained_epochs() <= window);

            let lo = logs.len().saturating_sub(window);
            let flat: Vec<(Vec<usize>, f64)> =
                logs[lo..].iter().flatten().cloned().collect();
            let windowed = updated_table(&zero_fm, &flat);
            let scratch = publish_coefficients(
                &windowed,
                &PriveletConfig::plus(0.5, sa.clone(), noise_seed ^ e),
            )
            .unwrap();
            prop_assert_eq!(out.meta, scratch.meta);
            for (a, b) in out
                .coefficients
                .as_slice()
                .iter()
                .zip(scratch.coefficients.as_slice())
            {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
}

/// All-ordinal schemas hit the acceptance bound *exactly*: every
/// increment touches ∏ᵢ (⌈log₂ mᵢ⌉ + 1) coefficients — one detail level
/// plus the overall average per dimension — even for non-power-of-two
/// extents like 5 and 13.
#[test]
fn ordinal_touch_count_is_product_of_log_supports() {
    let schema = Schema::new(vec![
        Attribute::ordinal("a", 5),  // ⌈log₂ 5⌉ = 3 → 4 touches
        Attribute::ordinal("b", 13), // ⌈log₂ 13⌉ = 4 → 5 touches
    ])
    .unwrap();
    let expected: usize = schema
        .dims()
        .iter()
        .map(|&m| m.next_power_of_two().trailing_zeros() as usize + 1)
        .product();
    assert_eq!(expected, 4 * 5);

    let fm = data_matrix(&schema, 99);
    let mut rel = IncrementalRelease::new(&fm, &BTreeSet::new(), 2.0).unwrap();
    assert_eq!(rel.touch_bound(), expected);
    for (cell, delta) in increment_stream(&schema, 17, 25) {
        let written = rel.apply_increment(&cell, delta).unwrap();
        assert_eq!(
            written, expected,
            "cell {cell:?} touched {written}, want ∏(⌈log₂ mᵢ⌉+1) = {expected}"
        );
    }
}

/// An epoch whose debit would overdraw the lifetime budget is refused
/// with `BudgetExhausted` *before* any noise is drawn: the ledger and the
/// exact state are untouched, and a smaller debit still succeeds
/// afterwards.
#[test]
fn epoch_over_spend_is_refused_before_noise() {
    let schema = Schema::new(vec![Attribute::ordinal("a", 6)]).unwrap();
    let fm = data_matrix(&schema, 5);
    let mut rel = IncrementalRelease::new(&fm, &BTreeSet::new(), 1.0).unwrap();
    rel.advance_epoch(0.75, 1).unwrap();

    let exact_before: Vec<u64> = rel
        .exact_coefficients()
        .as_slice()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    let err = rel.advance_epoch(0.5, 2).unwrap_err();
    assert!(
        matches!(err, CoreError::BudgetExhausted { .. }),
        "want BudgetExhausted, got {err:?}"
    );
    assert_eq!(rel.epoch(), 1, "failed epoch must not count");
    assert!((rel.ledger().spent() - 0.75).abs() < 1e-15);
    let exact_after: Vec<u64> = rel
        .exact_coefficients()
        .as_slice()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    assert_eq!(exact_before, exact_after);

    // The remaining 0.25 is still spendable.
    rel.advance_epoch(0.25, 3).unwrap();
    assert_eq!(rel.epoch(), 2);
}

/// `NdMatrix` round-trip sanity for the helper above — guards the test
/// harness itself against silent shape drift.
#[test]
fn updated_table_helper_applies_deltas_exactly() {
    let schema = Schema::new(vec![Attribute::ordinal("a", 3)]).unwrap();
    let fm = FrequencyMatrix::from_parts(
        schema.clone(),
        NdMatrix::from_vec(&[3], vec![1.0, 2.0, 3.0]).unwrap(),
    )
    .unwrap();
    let updated = updated_table(&fm, &[(vec![1], 4.0), (vec![1], -1.0), (vec![2], 2.0)]);
    assert_eq!(updated.matrix().as_slice(), &[1.0, 5.0, 5.0]);
}
