//! The concurrent serving tier's contract, tested with real threads:
//!
//! 1. **Bitwise equivalence** — a `QueryPlan` compiled once and executed
//!    from many scoped threads against one shared `ReleaseCore` (and the
//!    online path through the engine's support cache) returns answers
//!    bit-identical to the core's serial, cache-free reference
//!    (`ReleaseCore::execute_plan` and `ReleaseCore::answer_uncached`),
//!    on random 1–3-dimensional mixed schemas.
//! 2. **Counter conservation under contention** — the engine's
//!    `cache_stats()` keeps `hits + misses == lookups` across threads.
//!    Every distinct `(dim, lo, hi)` triple misses at least once, and
//!    misses again only after an eviction, so
//!    `distinct ≤ misses ≤ distinct + evictions`; every occupied slot is
//!    a miss no later miss displaced, so `len == misses − evictions`. The
//!    cache itself is crate-private; its own contended tests (keys in
//!    distinct slots, keys sharing a slot, more keys than slots) live in
//!    `crates/query/src/cache.rs`.
//! 3. **Compile-time shareability** — `Send + Sync` static assertions
//!    for the plan, the release core and the engine.
//!
//! Thread-stress iteration counts are bounded by default and scaled up
//! in CI via the `PRIVELET_STRESS_ITERS` environment variable.

mod common;

use common::{
    assert_send_sync, data_matrix, distinct_triples, schema_strategy, stress_iters, workload,
};
use privelet_repro::core::mechanism::{publish_coefficients, PriveletConfig};
use privelet_repro::data::schema::{Attribute, Schema};
use privelet_repro::query::{ConcurrentEngine, QueryPlan, RangeQuery, ReleaseCore};
use proptest::prelude::*;
use std::sync::Arc;
use std::thread;

/// Threads used by the equivalence tests — the acceptance bar requires
/// at least 4.
const THREADS: usize = 6;

/// The compile-time audit: every type a concurrent serving tier shares
/// across threads must be `Send + Sync`. A regression (an `Rc`, a
/// `RefCell`, a raw pointer without the right impls) fails compilation
/// of this test, not a nightly stress run.
#[test]
fn send_sync_assertion_suite() {
    assert_send_sync::<QueryPlan>();
    assert_send_sync::<ReleaseCore>();
    assert_send_sync::<Arc<ReleaseCore>>();
    assert_send_sync::<ConcurrentEngine>();
}

/// The engine's cache has one geometry: 1024 supports on a fresh engine,
/// which is what makes `grid_serve`'s catalog larger than the cache.
#[test]
fn a_fresh_engine_caches_1024_supports() {
    let schema = Schema::new(vec![Attribute::ordinal("a", 16)]).unwrap();
    let fm = data_matrix(&schema, 3);
    let release = publish_coefficients(&fm, &PriveletConfig::pure(1.0, 5)).unwrap();
    let engine = ConcurrentEngine::from_output(&release).unwrap();
    let stats = engine.cache_stats();
    assert_eq!(stats.capacity, 1024);
    assert_eq!((stats.hits, stats.misses, stats.len), (0, 0, 0));
}

/// The acceptance scenario, deterministic: one release, one plan
/// compiled once, `THREADS` scoped threads each executing the shared
/// plan and answering the workload online through the shared support
/// cache. Every thread's batch is bitwise-identical to the core's serial
/// plan execution, every online answer to `answer_uncached`, and the
/// cache counters conserve.
#[test]
fn shared_plan_from_many_threads_is_bitwise_identical_to_serial() {
    let schema = Schema::new(vec![
        Attribute::ordinal("a", 64),
        Attribute::ordinal("b", 16),
    ])
    .unwrap();
    let fm = data_matrix(&schema, 41);
    let release = publish_coefficients(&fm, &PriveletConfig::pure(1.0, 59)).unwrap();
    let engine = ConcurrentEngine::from_output(&release).unwrap();
    let core = engine.core();
    let queries = workload(&schema, 77);

    // Compile ONCE; the serial reference uses its own compilation of the
    // same workload (plans are deterministic, but nothing is shared) and
    // the cache-free online path.
    let plan = core.plan(&queries).unwrap();
    let serial_batch = core.execute_plan(&core.plan(&queries).unwrap()).unwrap();
    let serial_online: Vec<f64> = queries
        .iter()
        .map(|q| core.answer_uncached(q).unwrap())
        .collect();

    let rounds = stress_iters(3);
    thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let engine = engine.clone();
                let plan = &plan;
                let queries = &queries;
                s.spawn(move || {
                    let mut batches = Vec::new();
                    for _ in 0..rounds {
                        batches.push(engine.core().execute_plan(plan).unwrap());
                    }
                    let online: Vec<f64> =
                        queries.iter().map(|q| engine.answer(q).unwrap()).collect();
                    (batches, online)
                })
            })
            .collect();
        for handle in handles {
            let (batches, online) = handle.join().expect("serving thread panicked");
            for batch in batches {
                assert_eq!(batch.len(), serial_batch.len());
                for (got, want) in batch.iter().zip(&serial_batch) {
                    assert_eq!(got.to_bits(), want.to_bits(), "plan path must be bitwise");
                }
            }
            for (got, want) in online.iter().zip(&serial_online) {
                assert_eq!(got.to_bits(), want.to_bits(), "online path must be bitwise");
            }
        }
    });

    // Counter conservation across the whole run: every online lookup
    // moved exactly one counter, every distinct triple was derived once
    // plus once per eviction that displaced it, and every occupied slot
    // holds a miss no later miss displaced.
    let stats = engine.cache_stats();
    let requests = (THREADS * queries.len() * schema.arity()) as u64;
    assert_eq!(stats.hits + stats.misses, requests);
    let distinct = distinct_triples(&schema, &queries) as u64;
    assert!(
        distinct <= stats.misses && stats.misses <= distinct + stats.evictions,
        "{stats:?} over {distinct} distinct triples"
    );
    assert_eq!(stats.len as u64, stats.misses - stats.evictions);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random mixed schemas: every thread's shared-plan batch and online
    /// answers are bitwise-identical to the core's serial reference. The
    /// equivalence holds because all float arithmetic lives in the
    /// shared `ReleaseCore` and runs in the same order on every path.
    #[test]
    fn concurrent_answers_are_bitwise_identical_on_random_schemas(
        (schema, sa) in schema_strategy(),
        data_seed in any::<u64>(),
        noise_seed in any::<u64>(),
        wl_seed in any::<u64>(),
    ) {
        let fm = data_matrix(&schema, data_seed);
        let cfg = PriveletConfig::plus(1.0, sa, noise_seed);
        let release = publish_coefficients(&fm, &cfg).unwrap();
        let engine = ConcurrentEngine::from_output(&release).unwrap();
        let core = engine.core();
        let queries = workload(&schema, wl_seed);

        let plan = core.plan(&queries).unwrap();
        let serial_batch = core.execute_plan(&core.plan(&queries).unwrap()).unwrap();
        let serial_online: Vec<f64> =
            queries.iter().map(|q| core.answer_uncached(q).unwrap()).collect();

        let results: Vec<(Vec<f64>, Vec<f64>)> = thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let engine = engine.clone();
                    let plan = &plan;
                    let queries = &queries;
                    s.spawn(move || {
                        let batch = engine.core().execute_plan(plan).unwrap();
                        let online: Vec<f64> =
                            queries.iter().map(|q| engine.answer(q).unwrap()).collect();
                        (batch, online)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("serving thread panicked"))
                .collect()
        });

        for (batch, online) in results {
            for (got, want) in batch.iter().zip(&serial_batch) {
                prop_assert_eq!(got.to_bits(), want.to_bits());
            }
            for (got, want) in online.iter().zip(&serial_online) {
                prop_assert_eq!(got.to_bits(), want.to_bits());
            }
        }

        // Conservation on the engine's shared cache across all threads.
        let stats = engine.cache_stats();
        prop_assert_eq!(
            stats.hits + stats.misses,
            (4 * queries.len() * schema.arity()) as u64
        );
        let distinct = distinct_triples(&schema, &queries) as u64;
        prop_assert!(distinct <= stats.misses && stats.misses <= distinct + stats.evictions);
        prop_assert_eq!(stats.len as u64, stats.misses - stats.evictions);
    }
}

/// An empty workload flows through the concurrent tier with well-defined
/// 0-values everywhere (the empty-plan regression, concurrent edition).
#[test]
fn empty_workload_is_well_defined_concurrently() {
    let schema = Schema::new(vec![Attribute::ordinal("a", 16)]).unwrap();
    let fm = data_matrix(&schema, 3);
    let release = publish_coefficients(&fm, &PriveletConfig::pure(1.0, 5)).unwrap();
    let engine = ConcurrentEngine::from_output(&release).unwrap();
    let plan = engine.core().plan(&[]).unwrap();
    assert!(plan.is_empty());
    assert_eq!(plan.dedup_ratio(), 0.0);
    assert_eq!(plan.mean_support(), 0.0);
    thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let engine = engine.clone();
                let plan = &plan;
                s.spawn(move || engine.core().execute_plan(plan).unwrap())
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), Vec::<f64>::new());
        }
    });
    let stats = engine.cache_stats();
    assert_eq!(stats.hits + stats.misses, 0);
    assert_eq!(stats.hit_rate(), 0.0);
}

/// Errors cross the thread boundary intact: a bad query answered
/// concurrently yields the same error as the serial cache-free path, and
/// poisons nothing (subsequent valid queries still succeed).
#[test]
fn errors_from_threads_match_serial_and_poison_nothing() {
    let schema = Schema::new(vec![Attribute::ordinal("a", 8)]).unwrap();
    let fm = data_matrix(&schema, 9);
    let release = publish_coefficients(&fm, &PriveletConfig::pure(1.0, 11)).unwrap();
    let engine = ConcurrentEngine::from_output(&release).unwrap();
    let bad = RangeQuery::new(vec![privelet_repro::query::Predicate::Range {
        lo: 8,
        hi: 9,
    }]);
    let want = engine.core().answer_uncached(&bad).unwrap_err();
    thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let engine = engine.clone();
                let bad = &bad;
                s.spawn(move || engine.answer(bad).unwrap_err())
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), want);
        }
    });
    // The cache and engine keep working after the errors.
    assert_eq!(
        engine.answer(&RangeQuery::all(1)).unwrap().to_bits(),
        engine.core().total().to_bits()
    );
}
