//! The one per-dimension support layout, and the serving engine's
//! bounded LRU memoization of it.
//!
//! [`DimSupport`] is what both answering paths read: stride-premultiplied
//! `(offset, weight)` pairs plus the variance factor, produced by one
//! derivation. A compiled [`QueryPlan`](crate::QueryPlan) copies them
//! into its arena; the online path caches them here.
//!
//! The online one-query-at-a-time serving path would re-derive each
//! dimension's sparse support (`Transform1d::query_weights`) on every
//! request, even though OLAP traffic repeats the same predicate
//! intervals dimension after dimension. The crate-private
//! `ShardedSupportCache` inside
//! [`ConcurrentEngine`](crate::ConcurrentEngine) memoizes supports keyed
//! on `(dim, lo, hi)`, so repeated predicates across requests amortize
//! the derivation the way a compiled plan amortizes it within one batch.
//!
//! Its geometry is fixed: 1024 entries over 8 independently locked LRU
//! shards of 128, keys routed by a fixed hash. Concurrent lookups of
//! different supports hash to different shards and rarely contend; each
//! shard evicts its least recently used entry and counts hits, misses
//! and evictions, which [`CacheStats`] sums. Each entry holds one
//! dimension's pairs behind an [`Arc`] — `O(polylog m)` of them on Haar
//! dimensions, O(covered leaves + height) on nominal ones, and at most
//! two on identity-transformed (SA) dimensions, which the core stores as
//! prefix sums — so a hit is one clone of a pointer, never of the
//! support. A lookup holds its shard's lock across a miss's derivation,
//! so each distinct `(dim, lo, hi)` key is derived at most once per
//! residency in its shard.

use crate::release::ReleaseCore;
use crate::{QueryError, Result};
use privelet::transform::{DimTransform, Transform1d};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, PoisonError};

/// Cache key: `(dimension index, inclusive lo, inclusive hi)` over the
/// *domain* of that dimension.
pub(crate) type SupportKey = (usize, usize, usize);

/// One dimension's derived query support plus its precomputed noise
/// accounting, in the one layout both answering paths read: the sparse
/// `(offset, weight)` terms of the interval-sum functional over the
/// core's **stored** coefficients, each offset the coefficient index
/// already multiplied by the axis stride, and the per-dimension variance
/// factor `Σ_j u(j)²/W(j)²` the exact-variance formula consumes (an
/// O(|support|) fold done once at derivation time, so every cached or
/// interned support carries its error accounting for free).
///
/// The fields are private and the crate's one derivation is the only
/// constructor, so every support a core dots came from a core; obtain
/// one through
/// [`ReleaseCore::derive_support`](crate::ReleaseCore::derive_support).
#[derive(Debug, Clone, PartialEq)]
pub struct DimSupport {
    /// `(stride-premultiplied offset, weight)` pairs with strictly
    /// nonzero weights, in ascending offset order.
    terms: Vec<(usize, f64)>,
    /// The per-dimension variance factor of this support.
    variance_factor: f64,
}

impl DimSupport {
    /// Derives the support of the interval-sum functional over
    /// `[lo, hi]` on axis `dim` of `core`'s stored coefficients — the one
    /// derivation behind
    /// [`ReleaseCore::derive_support`](crate::ReleaseCore::derive_support)
    /// and [`ReleaseCore::plan`](crate::ReleaseCore::plan).
    ///
    /// The axis and bounds are validated before any stride is read. Haar
    /// and nominal axes take the transform's `query_weights` and fold the
    /// variance factor over them. Identity (SA) axes are stored as prefix
    /// sums, so their support is `{(lo − 1, −1), (hi, +1)}` (no first
    /// entry when `lo = 0`), while the variance factor stays the covered
    /// count `hi − lo + 1`: it describes the noise on the covered cells,
    /// not the stored layout. The offsets are then premultiplied in place;
    /// the premultiply is monotone, so the ascending order carries over.
    pub(crate) fn derive(
        core: &ReleaseCore,
        dim: usize,
        lo: usize,
        hi: usize,
    ) -> Result<DimSupport> {
        let transform = core.transform();
        transform
            .check_query_bounds(dim, lo, hi)
            .map_err(QueryError::from)?;
        let (mut terms, variance_factor) = match &transform.transforms()[dim] {
            DimTransform::Identity(_) => {
                let mut terms = Vec::with_capacity(2);
                if lo > 0 {
                    terms.push((lo - 1, -1.0));
                }
                terms.push((hi, 1.0));
                (terms, (hi - lo + 1) as f64)
            }
            t => {
                let terms = t.query_weights(lo, hi);
                let factor = t.support_variance_factor(&terms);
                (terms, factor)
            }
        };
        let stride = core.coefficients().shape().strides()[dim];
        for (k, _) in &mut terms {
            *k *= stride;
        }
        Ok(DimSupport {
            terms,
            variance_factor,
        })
    }

    /// The `(stride-premultiplied offset, weight)` pairs, ascending by
    /// offset.
    pub fn terms(&self) -> &[(usize, f64)] {
        &self.terms
    }

    /// The per-dimension variance factor of this support.
    pub fn variance_factor(&self) -> f64 {
        self.variance_factor
    }

    /// Number of support entries (= coefficients one dot along this
    /// dimension reads).
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether the support is empty (never true for a valid interval).
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }
}

impl AsRef<[(usize, f64)]> for DimSupport {
    fn as_ref(&self) -> &[(usize, f64)] {
        &self.terms
    }
}

/// A memoized per-dimension support behind an [`Arc`]: a cache hit clones
/// a pointer, never the support.
pub type SharedSupport = Arc<DimSupport>;

/// Hit/miss/eviction counters and current occupancy of the serving
/// engine's support cache, summed over its shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that required a fresh derivation.
    pub misses: u64,
    /// Entries evicted to respect the capacity bound.
    pub evictions: u64,
    /// Entries currently held.
    pub len: usize,
    /// Maximum entries held.
    pub capacity: usize,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0.0 when none were
    /// made).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One shard of a [`ShardedSupportCache`]: a bounded LRU cache of
/// per-dimension query supports.
///
/// Recency is tracked with a monotone tick per entry and a
/// `BTreeMap<tick, key>` index, so `get`/`insert` are O(log capacity)
/// and eviction pops the smallest tick.
#[derive(Debug, Default)]
struct SupportCache {
    capacity: usize,
    entries: HashMap<SupportKey, (SharedSupport, u64)>,
    by_tick: BTreeMap<u64, SupportKey>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl SupportCache {
    /// An empty cache holding at most `capacity` supports.
    fn new(capacity: usize) -> Self {
        SupportCache {
            capacity,
            ..SupportCache::default()
        }
    }

    /// Looks up a support, marking it most recently used on a hit.
    fn get(&mut self, key: SupportKey) -> Option<SharedSupport> {
        match self.entries.get_mut(&key) {
            Some((support, tick)) => {
                self.hits += 1;
                let support = support.clone();
                self.by_tick.remove(tick);
                self.tick += 1;
                *tick = self.tick;
                self.by_tick.insert(self.tick, key);
                Some(support)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Stores a freshly derived support, evicting the least recently
    /// used entry if the cache is full.
    fn insert(&mut self, key: SupportKey, support: SharedSupport) {
        if let Some((_, old_tick)) = self.entries.remove(&key) {
            // Replacing an existing entry never needs an eviction.
            self.by_tick.remove(&old_tick);
        } else if self.entries.len() >= self.capacity {
            if let Some((_, victim)) = self.by_tick.pop_first() {
                self.entries.remove(&victim);
                self.evictions += 1;
            }
        }
        self.tick += 1;
        self.entries.insert(key, (support, self.tick));
        self.by_tick.insert(self.tick, key);
    }

    /// Current counters and occupancy.
    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            len: self.entries.len(),
            capacity: self.capacity,
        }
    }
}

/// Supports the engine's cache holds in total: each entry is one
/// dimension's `O(polylog m)` weight pairs, so the footprint is a few
/// hundred kilobytes at most.
const CAPACITY: usize = 1024;

/// Shards of the engine's cache: enough that a handful of serving
/// threads rarely collide, few enough that each shard's 128 entries
/// keep its LRU useful.
const SHARDS: usize = 8;

/// The support cache of the coefficient serving engine: `SHARDS`
/// independently locked LRU shards of `CAPACITY / SHARDS` supports each,
/// keys routed by a fixed (process-stable) hash of `(dim, lo, hi)`.
///
/// Every operation takes `&self` — locking is per shard and internal —
/// so one cache sits behind an `Arc` shared by every clone of the engine
/// and by its later epochs. Lookups in different shards proceed in
/// parallel; same-shard lookups serialize for the O(log capacity) LRU
/// touch (plus the derivation on a miss — see
/// [`get_or_derive`](Self::get_or_derive) for why that is deliberate).
#[derive(Debug)]
pub(crate) struct ShardedSupportCache {
    shards: Vec<Mutex<SupportCache>>,
}

impl ShardedSupportCache {
    /// An empty cache of the engine's one geometry.
    pub(crate) fn new() -> Self {
        Self::with_geometry(CAPACITY, SHARDS)
    }

    /// `shards` shards of `ceil(capacity / shards)` supports each.
    fn with_geometry(capacity: usize, shards: usize) -> Self {
        ShardedSupportCache {
            shards: (0..shards)
                .map(|_| Mutex::new(SupportCache::new(capacity.div_ceil(shards))))
                .collect(),
        }
    }

    /// The shard a key routes to. The hash is `DefaultHasher::new()`
    /// (fixed keys), so routing is stable within and across processes —
    /// required for the derive-once-per-shard contract to be testable.
    fn shard_for(&self, key: SupportKey) -> usize {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() as usize) % self.shards.len()
    }

    fn lock_shard(&self, idx: usize) -> std::sync::MutexGuard<'_, SupportCache> {
        self.shards[idx]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks up `key`, deriving and inserting it via `derive` on a miss
    /// — all under the key's shard lock, so concurrent requests for the
    /// same key perform exactly one derivation (the losers of the lock
    /// race hit the freshly inserted entry). Requests hashing to other
    /// shards are unaffected either way. A Haar or identity derivation is
    /// O(log m) or O(1) — comparable to the LRU touch itself — so the
    /// derive-once guarantee costs next to nothing; a wide nominal
    /// predicate derives O(covered leaves) pairs while the shard is
    /// locked, which is exactly when derive-once matters most.
    ///
    /// Errors from `derive` propagate untouched and insert nothing; the
    /// miss is still counted (every call moves exactly one hit or miss
    /// counter, so `hits + misses` always equals the number of calls).
    pub(crate) fn get_or_derive<E>(
        &self,
        key: SupportKey,
        derive: impl FnOnce() -> std::result::Result<SharedSupport, E>,
    ) -> std::result::Result<SharedSupport, E> {
        let mut shard = self.lock_shard(self.shard_for(key));
        if let Some(support) = shard.get(key) {
            return Ok(support);
        }
        let support = derive()?;
        shard.insert(key, support.clone());
        Ok(support)
    }

    /// Counters and occupancy summed over every shard (`capacity` is the
    /// sum of the per-shard bounds).
    pub(crate) fn stats(&self) -> CacheStats {
        (0..self.shards.len())
            .map(|i| self.lock_shard(i).stats())
            .fold(CacheStats::default(), |acc, s| CacheStats {
                hits: acc.hits + s.hits,
                misses: acc.misses + s.misses,
                evictions: acc.evictions + s.evictions,
                len: acc.len + s.len,
                capacity: acc.capacity + s.capacity,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::thread;

    fn support(v: usize) -> SharedSupport {
        Arc::new(DimSupport {
            terms: vec![(v, 1.0)],
            variance_factor: 1.0,
        })
    }

    /// Thread-stress iteration count: `default`, or the
    /// `PRIVELET_STRESS_ITERS` environment variable when set (CI raises
    /// it for release-mode runs).
    fn stress_iters(default: usize) -> usize {
        std::env::var("PRIVELET_STRESS_ITERS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    #[test]
    fn hit_miss_and_eviction_counters() {
        let mut cache = SupportCache::new(2);
        assert!(cache.get((0, 0, 1)).is_none());
        cache.insert((0, 0, 1), support(1));
        cache.insert((0, 2, 3), support(2));
        assert_eq!(cache.get((0, 0, 1)).unwrap().terms[0].0, 1);
        // Inserting a third entry evicts the least recently used (0,2,3).
        cache.insert((1, 0, 0), support(3));
        assert!(cache.get((0, 2, 3)).is_none());
        assert!(cache.get((0, 0, 1)).is_some());
        assert!(cache.get((1, 0, 0)).is_some());
        let stats = cache.stats();
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.len, 2);
        assert_eq!(stats.capacity, 2);
        assert!((stats.hit_rate() - 0.6).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn reinsert_replaces_without_eviction() {
        let mut cache = SupportCache::new(2);
        cache.insert((0, 0, 1), support(1));
        cache.insert((0, 0, 1), support(9));
        assert_eq!(cache.get((0, 0, 1)).unwrap().terms[0].0, 9);
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.stats().len, 1);
    }

    #[test]
    fn capacity_one_evicts_on_every_distinct_insert() {
        let mut cache = SupportCache::new(1);
        cache.insert((0, 0, 0), support(0));
        assert_eq!(cache.stats().evictions, 0);
        for i in 1..=5usize {
            // Each distinct key displaces the single resident entry.
            cache.insert((0, i, i), support(i));
            let stats = cache.stats();
            assert_eq!(stats.len, 1);
            assert_eq!(stats.evictions, i as u64);
            assert!(cache.get((0, i - 1, i - 1)).is_none(), "old entry gone");
            assert_eq!(cache.get((0, i, i)).unwrap().terms[0].0, i);
        }
        // Re-inserting the resident key replaces in place, no eviction.
        cache.insert((0, 5, 5), support(99));
        assert_eq!(cache.stats().evictions, 5);
        assert_eq!(cache.get((0, 5, 5)).unwrap().terms[0].0, 99);
    }

    #[test]
    fn reinsert_after_evict_rederives_exactly_once() {
        // A key evicted and requested again costs exactly one fresh
        // derivation — modeled here by counting the get-miss → insert
        // cycles a caller would perform.
        let mut cache = SupportCache::new(1);
        let mut derivations = 0;
        let mut lookup = |cache: &mut SupportCache, key: SupportKey| {
            if cache.get(key).is_none() {
                derivations += 1;
                cache.insert(key, support(key.1));
            }
        };
        lookup(&mut cache, (0, 1, 1)); // derive #1
        lookup(&mut cache, (0, 2, 2)); // derive #2, evicts (0,1,1)
        lookup(&mut cache, (0, 1, 1)); // derive #3: exactly one re-derivation
        lookup(&mut cache, (0, 1, 1)); // hit: no further derivation
        assert_eq!(derivations, 3);
        let stats = cache.stats();
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.evictions, 2);
        assert_eq!(stats.len, 1);
    }

    #[test]
    fn sharded_cache_routes_and_aggregates() {
        let cache = ShardedSupportCache::new();
        let keys: Vec<SupportKey> = (0..16).map(|i| (i % 3, i, i + 1)).collect();
        let supports: Vec<SharedSupport> = (0..keys.len()).map(support).collect();
        // First pass derives every key, the second must return the very
        // support the first stored under it.
        for _ in 0..2 {
            for (key, want) in keys.iter().zip(&supports) {
                let got = cache
                    .get_or_derive(*key, || Ok::<_, ()>(Arc::clone(want)))
                    .unwrap();
                assert!(Arc::ptr_eq(&got, want), "routing must be stable");
            }
        }
        let stats = cache.stats();
        assert_eq!(stats.hits, 16);
        assert_eq!(stats.misses, 16);
        assert_eq!(stats.len, 16);
        assert_eq!(stats.evictions, 0);
        // The one geometry: 8 shards of 128.
        assert_eq!(stats.capacity, CAPACITY);
        assert_eq!(cache.shards.len(), SHARDS);
    }

    #[test]
    fn sharded_get_or_derive_derives_once_and_counts_errors() {
        let cache = ShardedSupportCache::new();
        let mut derivations = 0;
        for _ in 0..3 {
            let s = cache
                .get_or_derive((1, 2, 3), || {
                    derivations += 1;
                    Ok::<_, ()>(support(7))
                })
                .unwrap();
            assert_eq!(s.terms[0].0, 7);
        }
        assert_eq!(derivations, 1, "first call derives, the rest hit");
        // A failing derivation propagates, stores nothing, counts a miss.
        assert_eq!(
            cache.get_or_derive((9, 9, 9), || Err::<SharedSupport, &str>("boom")),
            Err("boom")
        );
        let stats = cache.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.hits + stats.misses, 4, "one counter per call");
        assert_eq!(stats.len, 1);
    }

    /// Hammers `cache` from `WRITERS` threads, each walking every key
    /// `iters` times from its own offset, and returns how often each key
    /// was derived. Every lookup must return the support derived for its
    /// own key.
    fn hammer(cache: &ShardedSupportCache, keys: &[SupportKey], iters: usize) -> Vec<u64> {
        const WRITERS: usize = 8;
        let derivations: Vec<AtomicU64> = keys.iter().map(|_| AtomicU64::new(0)).collect();
        let supports: Vec<SharedSupport> = (0..keys.len()).map(support).collect();
        thread::scope(|s| {
            for t in 0..WRITERS {
                let derivations = &derivations;
                let supports = &supports;
                s.spawn(move || {
                    for round in 0..iters {
                        // Offset the walk per thread so lock acquisition
                        // interleaves instead of convoying.
                        for i in 0..keys.len() {
                            let k = (i + t + round) % keys.len();
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
        let requests = (WRITERS * iters * keys.len()) as u64;
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, requests, "one counter per call");
        derivations
            .iter()
            .map(|d| d.load(Ordering::SeqCst))
            .collect()
    }

    /// Many threads on one sharded cache with ample capacity: counters
    /// conserve, nothing is evicted, and every key is derived exactly
    /// once in its shard.
    #[test]
    fn contended_sharded_cache_conserves_counters_and_derives_once() {
        const KEYS: usize = 48;
        let cache = ShardedSupportCache::with_geometry(4 * KEYS, 8);
        let keys: Vec<SupportKey> = (0..KEYS).map(|i| (i % 3, 5 * i, 5 * i + 3)).collect();
        let derivations = hammer(&cache, &keys, stress_iters(16));

        let stats = cache.stats();
        assert_eq!(stats.evictions, 0, "ample capacity: nothing evicted");
        assert_eq!(stats.len, KEYS);
        for (k, &d) in derivations.iter().enumerate() {
            assert_eq!(d, 1, "key {k} must be derived exactly once in its shard");
        }
        // Misses == inserts == distinct keys, since each key missed once.
        assert_eq!(stats.misses as usize, KEYS);
    }

    /// The same hammering under eviction pressure (capacity far below the
    /// key count): counters still conserve, evictions never exceed
    /// inserts, and occupancy respects the bound.
    #[test]
    fn contended_sharded_cache_conserves_counters_under_eviction_pressure() {
        const KEYS: usize = 64;
        let cache = ShardedSupportCache::with_geometry(8, 4); // 2 entries per shard
        let keys: Vec<SupportKey> = (0..KEYS).map(|i| (i % 3, 5 * i, 5 * i + 3)).collect();
        let derivations = hammer(&cache, &keys, stress_iters(8));

        let stats = cache.stats();
        // Every miss performed exactly one derivation and one insert.
        assert_eq!(derivations.iter().sum::<u64>(), stats.misses);
        assert!(
            stats.evictions <= stats.misses,
            "evictions ({}) must not exceed inserts ({})",
            stats.evictions,
            stats.misses
        );
        assert!(stats.len <= stats.capacity);
        assert_eq!(stats.len as u64, stats.misses - stats.evictions);
    }
}
