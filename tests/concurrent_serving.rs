//! The concurrent serving tier's contract, tested with real threads:
//!
//! 1. **Bitwise equivalence** — a `QueryPlan` compiled once and executed
//!    from many scoped threads against one shared `ReleaseCore` (and the
//!    online path through the sharded cache) returns answers
//!    bit-identical to the core's serial, cache-free reference
//!    (`ReleaseCore::execute_plan` and `ReleaseCore::answer_uncached`),
//!    on random 1–3-dimensional mixed schemas.
//! 2. **Counter conservation under contention** — hammering one
//!    `ShardedSupportCache` from many threads keeps
//!    `hits + misses == requests`, `evictions ≤ inserts`, and exactly
//!    one derivation per distinct `(dim, lo, hi)` key resident in its
//!    shard.
//! 3. **Compile-time shareability** — `Send + Sync` static assertions
//!    for the plan, the release core, the engine and the cache.
//!
//! Thread-stress iteration counts are bounded by default (the dev
//! container is single-CPU) and scaled up in CI via the
//! `PRIVELET_STRESS_ITERS` environment variable.

mod common;

use common::{
    assert_send_sync, data_matrix, distinct_triples, schema_strategy, stress_iters, workload,
};
use privelet_repro::core::mechanism::{publish_coefficients, PriveletConfig};
use privelet_repro::data::schema::{Attribute, Schema};
use privelet_repro::query::cache::{SharedSupport, SupportKey};
use privelet_repro::query::{
    ConcurrentEngine, QueryPlan, RangeQuery, ReleaseCore, ShardedSupportCache,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
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
    assert_send_sync::<ShardedSupportCache>();
    assert_send_sync::<Arc<ShardedSupportCache>>();
}

/// `n` real supports, one per cache key, derived up front from a small
/// 1-D release: the stress tests hand out `Arc` clones of these, so a
/// lookup that returns another key's support fails `Arc::ptr_eq`.
fn real_supports(n: usize) -> Vec<SharedSupport> {
    let schema = Schema::new(vec![Attribute::ordinal("v", 8)]).unwrap();
    let fm = data_matrix(&schema, 3);
    let release = publish_coefficients(&fm, &PriveletConfig::pure(1.0, 5)).unwrap();
    let core = ReleaseCore::from_output(&release).unwrap();
    (0..n)
        .map(|k| core.derive_support(0, k % 8, 7).unwrap())
        .collect()
}

/// The acceptance scenario, deterministic: one release, one plan
/// compiled once, `THREADS` scoped threads each executing the shared
/// plan and answering the workload online through the shared sharded
/// cache. Every thread's batch is bitwise-identical to the core's serial
/// plan execution, every online answer to `answer_uncached`, and the
/// sharded counters conserve.
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
    let plan = engine.plan(&queries).unwrap();
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
                        batches.push(engine.answer_plan(plan).unwrap());
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
    // moved exactly one counter, and the distinct triples were each
    // derived once (capacity is ample, so nothing was evicted).
    let stats = engine.cache_stats();
    let requests = (THREADS * queries.len() * schema.arity()) as u64;
    assert_eq!(stats.hits + stats.misses, requests);
    assert_eq!(stats.evictions, 0);
    assert_eq!(stats.misses as usize, distinct_triples(&schema, &queries));
    assert_eq!(stats.len as u64, stats.misses);
}

/// Hammers one sharded cache from many threads and checks the counters
/// conserve: `hits + misses == requests`, `evictions ≤ inserts`, and the
/// derivation count per distinct key stays 1 (ample capacity ⇒ every
/// key stays resident in its shard).
#[test]
fn contended_sharded_cache_conserves_counters_and_derives_once() {
    const KEYS: usize = 48;
    const WRITERS: usize = 8;
    let iters = stress_iters(16);
    let cache = ShardedSupportCache::new(4 * KEYS, 8);
    let keys: Vec<SupportKey> = (0..KEYS).map(|i| (i % 3, 5 * i, 5 * i + 3)).collect();
    let derivations: Vec<AtomicU64> = (0..KEYS).map(|_| AtomicU64::new(0)).collect();
    let supports = real_supports(KEYS);

    thread::scope(|s| {
        for t in 0..WRITERS {
            let cache = &cache;
            let keys = &keys;
            let derivations = &derivations;
            let supports = &supports;
            s.spawn(move || {
                for round in 0..iters {
                    // Offset the walk per thread so lock acquisition
                    // interleaves instead of convoying.
                    for i in 0..KEYS {
                        let k = (i + t + round) % KEYS;
                        let support = cache
                            .get_or_derive(keys[k], || {
                                derivations[k].fetch_add(1, Ordering::SeqCst);
                                Ok::<_, ()>(Arc::clone(&supports[k]))
                            })
                            .unwrap();
                        assert!(
                            Arc::ptr_eq(&support, &supports[k]),
                            "supports must never cross keys"
                        );
                    }
                }
            });
        }
    });

    let stats = cache.stats();
    let requests = (WRITERS * iters * KEYS) as u64;
    assert_eq!(stats.hits + stats.misses, requests, "one counter per call");
    assert_eq!(stats.evictions, 0, "ample capacity: nothing evicted");
    assert_eq!(stats.len, KEYS);
    for (k, d) in derivations.iter().enumerate() {
        assert_eq!(
            d.load(Ordering::SeqCst),
            1,
            "key {k} must be derived exactly once in its shard"
        );
    }
    // Misses == inserts == distinct keys, since each key missed once.
    assert_eq!(stats.misses as usize, KEYS);
    // The per-shard breakdown sums to the aggregate.
    let per_shard = cache.shard_stats();
    assert_eq!(per_shard.iter().map(|s| s.hits).sum::<u64>(), stats.hits);
    assert_eq!(
        per_shard.iter().map(|s| s.misses).sum::<u64>(),
        stats.misses
    );
    assert_eq!(per_shard.iter().map(|s| s.len).sum::<usize>(), stats.len);
}

/// The same hammering under eviction pressure (capacity far below the
/// key count): counters still conserve, evictions never exceed inserts,
/// and occupancy respects the bound.
#[test]
fn contended_sharded_cache_conserves_counters_under_eviction_pressure() {
    const KEYS: usize = 64;
    const WRITERS: usize = 8;
    let iters = stress_iters(8);
    let cache = ShardedSupportCache::new(8, 4); // 2 entries per shard
    let keys: Vec<SupportKey> = (0..KEYS).map(|i| (i % 3, 5 * i, 5 * i + 3)).collect();
    let derivations: Vec<AtomicU64> = (0..KEYS).map(|_| AtomicU64::new(0)).collect();
    let supports = real_supports(KEYS);

    thread::scope(|s| {
        for t in 0..WRITERS {
            let cache = &cache;
            let keys = &keys;
            let derivations = &derivations;
            let supports = &supports;
            s.spawn(move || {
                for round in 0..iters {
                    for i in 0..KEYS {
                        let k = (i + t + round) % KEYS;
                        let support = cache
                            .get_or_derive(keys[k], || {
                                derivations[k].fetch_add(1, Ordering::SeqCst);
                                Ok::<_, ()>(Arc::clone(&supports[k]))
                            })
                            .unwrap();
                        assert!(Arc::ptr_eq(&support, &supports[k]));
                    }
                }
            });
        }
    });

    let stats = cache.stats();
    let requests = (WRITERS * iters * KEYS) as u64;
    assert_eq!(stats.hits + stats.misses, requests, "one counter per call");
    // Every miss performed exactly one derivation and one insert.
    let total_derivations: u64 = derivations.iter().map(|d| d.load(Ordering::SeqCst)).sum();
    assert_eq!(total_derivations, stats.misses);
    assert!(
        stats.evictions <= stats.misses,
        "evictions ({}) must not exceed inserts ({})",
        stats.evictions,
        stats.misses
    );
    assert!(stats.len <= stats.capacity);
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

        let plan = engine.plan(&queries).unwrap();
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
                        let batch = engine.answer_plan(plan).unwrap();
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
        prop_assert_eq!(stats.misses as usize, distinct_triples(&schema, &queries));
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
    let plan = engine.plan(&[]).unwrap();
    assert!(plan.is_empty());
    assert_eq!(plan.dedup_ratio(), 0.0);
    assert_eq!(plan.mean_support(), 0.0);
    thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let engine = engine.clone();
                let plan = &plan;
                s.spawn(move || engine.answer_plan(plan).unwrap())
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
