//! The one per-dimension support layout, and bounded LRU memoization
//! of it.
//!
//! [`DimSupport`] is what both answering paths read: stride-premultiplied
//! `(offset, weight)` pairs plus the variance factor, produced by one
//! derivation. A compiled [`QueryPlan`](crate::QueryPlan) copies them
//! into its arena; the online path caches them here.
//!
//! The online one-query-at-a-time serving path would re-derive each
//! dimension's sparse support (`Transform1d::query_weights`) on every
//! request, even though OLAP traffic repeats the same predicate
//! intervals dimension after dimension. [`ShardedSupportCache`] memoizes
//! supports keyed on `(dim, lo, hi)` so repeated predicates across
//! requests amortize the derivation the same way a compiled
//! [`QueryPlan`](crate::QueryPlan) amortizes it within one batch.
//!
//! The cache spreads the keys across N independently locked LRU shards:
//! concurrent lookups of different supports hash to different shards and
//! never contend, while each shard is bounded (least-recently-used
//! eviction) and counts hits, misses and evictions, so serving tiers can
//! report hit rates and size the capacity. Each entry holds one
//! dimension's pairs behind an [`Arc`] — `O(polylog m)` of them on
//! Haar dimensions, O(covered leaves + height) on nominal ones, and at
//! most two on identity-transformed (SA) dimensions, which the core
//! stores as prefix sums — so a hit is one clone of a pointer, never of
//! the support. [`ShardedSupportCache::get_or_derive`] holds the one
//! shard's lock across the derivation, so each distinct `(dim, lo, hi)`
//! key is derived at most once per residency in its shard.

use crate::release::ReleaseCore;
use crate::{QueryError, Result};
use privelet::transform::{DimTransform, Transform1d};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, PoisonError};

/// Cache key: `(dimension index, inclusive lo, inclusive hi)` over the
/// *domain* of that dimension.
pub type SupportKey = (usize, usize, usize);

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

/// Hit/miss/eviction counters and current occupancy of a support cache
/// (one shard, or the aggregate over all shards).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that required a fresh derivation.
    pub misses: u64,
    /// Entries evicted to respect the capacity bound.
    pub evictions: u64,
    /// Entries explicitly dropped via
    /// [`ShardedSupportCache::invalidate_where`] — kept separate from
    /// `evictions` because invalidation is a correctness action (the
    /// caller knows the entries are stale), not capacity pressure.
    pub invalidations: u64,
    /// Entries currently held.
    pub len: usize,
    /// Maximum entries held (0 disables caching).
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
/// and eviction pops the smallest tick. A capacity of 0 disables the
/// cache: every lookup misses and nothing is stored.
#[derive(Debug, Default)]
struct SupportCache {
    capacity: usize,
    entries: HashMap<SupportKey, (SharedSupport, u64)>,
    by_tick: BTreeMap<u64, SupportKey>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    invalidations: u64,
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
    /// used entry if the cache is full. No-op at capacity 0.
    fn insert(&mut self, key: SupportKey, support: SharedSupport) {
        if self.capacity == 0 {
            return;
        }
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

    /// Drops every resident entry whose key matches `pred`, returning
    /// how many were dropped (see
    /// [`ShardedSupportCache::invalidate_where`]).
    fn invalidate_where(&mut self, mut pred: impl FnMut(&SupportKey) -> bool) -> usize {
        let stale: Vec<SupportKey> = self.entries.keys().filter(|k| pred(k)).copied().collect();
        for key in &stale {
            if let Some((_, tick)) = self.entries.remove(key) {
                self.by_tick.remove(&tick);
            }
        }
        self.invalidations += stale.len() as u64;
        stale.len()
    }

    /// Current counters and occupancy.
    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            invalidations: self.invalidations,
            len: self.entries.len(),
            capacity: self.capacity,
        }
    }
}

/// Default shard count of a [`ShardedSupportCache`]: enough lanes that a
/// handful of serving threads rarely collide, few enough that per-shard
/// capacity stays useful at the default total capacity.
pub const DEFAULT_SHARD_COUNT: usize = 8;

/// The support cache of the coefficient serving engine: N independently
/// locked LRU shards, keys routed by a fixed (process-stable) hash of
/// `(dim, lo, hi)`.
///
/// Every operation takes `&self` — locking is per shard and internal —
/// so one `ShardedSupportCache` can sit behind an `Arc` and be hammered
/// from any number of threads. Lookups of supports in different shards
/// proceed fully in parallel; only same-shard lookups serialize, and
/// they hold the lock for the O(log capacity) LRU touch (plus the
/// O(polylog m) derivation on a miss — see
/// [`get_or_derive`](Self::get_or_derive) for why that is deliberate).
///
/// The `capacity` is split evenly across shards, rounded up: each shard
/// holds at most `ceil(capacity / shards)` supports, so the cache as a
/// whole can hold up to `shards · ceil(capacity / shards)` (a few more
/// than `capacity` when the split is uneven). Capacity 0 disables every
/// shard, and one shard is a single exact LRU. Counters are kept per
/// shard and aggregate in [`stats`](Self::stats);
/// [`shard_stats`](Self::shard_stats) exposes the per-shard breakdown
/// for diagnostics.
#[derive(Debug)]
pub struct ShardedSupportCache {
    shards: Vec<Mutex<SupportCache>>,
}

impl ShardedSupportCache {
    /// A cache of `shards` independently locked shards (clamped to ≥ 1),
    /// each holding at most `ceil(capacity / shards)` supports — e.g.
    /// `new(10, 4)` can hold 12. Capacity 0 disables caching.
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let per_shard = if capacity == 0 {
            0
        } else {
            capacity.div_ceil(shards)
        };
        ShardedSupportCache {
            shards: (0..shards)
                .map(|_| Mutex::new(SupportCache::new(per_shard)))
                .collect(),
        }
    }

    /// Number of shards (≥ 1).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
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

    /// Looks up a support in its shard, marking it most recently used on
    /// a hit. Exactly one shard counter (hit or miss) moves per call.
    pub fn get(&self, key: SupportKey) -> Option<SharedSupport> {
        self.lock_shard(self.shard_for(key)).get(key)
    }

    /// Stores a freshly derived support in its shard, evicting that
    /// shard's least recently used entry if it is full.
    pub fn insert(&self, key: SupportKey, support: SharedSupport) {
        self.lock_shard(self.shard_for(key)).insert(key, support)
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
    pub fn get_or_derive<E>(
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

    /// Drops every resident entry (across all shards) whose key matches
    /// `pred`, returning how many were dropped. Invalidations are counted
    /// apart from evictions (see [`CacheStats::invalidations`]), and
    /// hit/miss counters do not move, so `hits + misses` keeps equaling
    /// the lookup count.
    ///
    /// Epoch note: per-dimension supports are **data-independent** — a
    /// pure function of `(dim, lo, hi)` and the transform — so rolling a
    /// release to a new epoch of the *same* transform must NOT
    /// invalidate them. This hook exists for the cases where cached
    /// state really does go stale: a schema/transform swap, or targeted
    /// memory reclamation. Shards are swept one lock at a time —
    /// concurrent lookups in other shards proceed, so a sweep never
    /// stalls the serving tier globally.
    pub fn invalidate_where(&self, mut pred: impl FnMut(&SupportKey) -> bool) -> usize {
        (0..self.shards.len())
            .map(|i| self.lock_shard(i).invalidate_where(&mut pred))
            .sum()
    }

    /// Aggregated counters and occupancy across all shards. `capacity`
    /// is the sum of per-shard bounds (≥ the constructor's `capacity`
    /// due to the even split rounding up).
    pub fn stats(&self) -> CacheStats {
        self.shard_stats()
            .into_iter()
            .fold(CacheStats::default(), |acc, s| CacheStats {
                hits: acc.hits + s.hits,
                misses: acc.misses + s.misses,
                evictions: acc.evictions + s.evictions,
                invalidations: acc.invalidations + s.invalidations,
                len: acc.len + s.len,
                capacity: acc.capacity + s.capacity,
            })
    }

    /// Per-shard counters, in shard order — the breakdown serving-tier
    /// diagnostics report next to the aggregate.
    pub fn shard_stats(&self) -> Vec<CacheStats> {
        (0..self.shards.len())
            .map(|i| self.lock_shard(i).stats())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn support(v: usize) -> SharedSupport {
        Arc::new(DimSupport {
            terms: vec![(v, 1.0)],
            variance_factor: 1.0,
        })
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
    fn zero_capacity_disables_the_cache() {
        let mut cache = SupportCache::new(0);
        cache.insert((0, 0, 1), support(1));
        assert!(cache.get((0, 0, 1)).is_none());
        let stats = cache.stats();
        assert_eq!(stats.len, 0);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hit_rate(), 0.0);
    }

    #[test]
    fn zero_capacity_counters_do_not_drift() {
        // Hammering a disabled cache must leave every counter consistent:
        // no entries, no evictions, one miss per lookup, nothing stored.
        let mut cache = SupportCache::new(0);
        for round in 0..10u64 {
            cache.insert((0, 0, 1), support(round as usize));
            assert!(cache.get((0, 0, 1)).is_none());
        }
        let stats = cache.stats();
        assert_eq!(stats.len, 0);
        assert_eq!(stats.capacity, 0);
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 10);
        assert_eq!(stats.evictions, 0);
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
    fn invalidate_where_drops_matches_and_counts_separately() {
        let mut cache = SupportCache::new(8);
        for i in 0..4usize {
            cache.insert((i % 2, i, i), support(i));
        }
        // Invalidate dimension 0's entries: (0,0,0) and (0,2,2).
        let dropped = cache.invalidate_where(|&(dim, _, _)| dim == 0);
        assert_eq!(dropped, 2);
        let stats = cache.stats();
        assert_eq!(stats.invalidations, 2);
        assert_eq!(stats.evictions, 0, "invalidation is not eviction");
        assert_eq!(stats.len, 2);
        // Dropped keys miss, survivors hit; hits+misses still counts
        // lookups only (inserts move neither).
        assert!(cache.get((0, 0, 0)).is_none());
        assert!(cache.get((1, 1, 1)).is_some());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        // Re-inserting an invalidated key needs no eviction.
        cache.insert((0, 0, 0), support(9));
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.stats().len, 3);
    }

    #[test]
    fn sharded_invalidate_where_sweeps_all_shards() {
        let cache = ShardedSupportCache::new(64, 4);
        let keys: Vec<SupportKey> = (0..12).map(|i| (i % 3, i, i + 1)).collect();
        for (i, &key) in keys.iter().enumerate() {
            cache.insert(key, support(i));
        }
        let dropped = cache.invalidate_where(|&(dim, _, _)| dim == 1);
        assert_eq!(dropped, 4, "keys 1, 4, 7, 10");
        let stats = cache.stats();
        assert_eq!(stats.invalidations, 4);
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.len, 8);
        for &key in &keys {
            assert_eq!(cache.get(key).is_some(), key.0 != 1);
        }
    }

    #[test]
    fn sharded_cache_routes_and_aggregates() {
        let cache = ShardedSupportCache::new(64, 4);
        assert_eq!(cache.shard_count(), 4);
        let keys: Vec<SupportKey> = (0..16).map(|i| (i % 3, i, i + 1)).collect();
        for (i, &key) in keys.iter().enumerate() {
            assert!(cache.get(key).is_none());
            cache.insert(key, support(i));
        }
        for (i, &key) in keys.iter().enumerate() {
            assert_eq!(
                cache.get(key).unwrap().terms[0].0,
                i,
                "routing must be stable"
            );
        }
        let stats = cache.stats();
        assert_eq!(stats.hits, 16);
        assert_eq!(stats.misses, 16);
        assert_eq!(stats.len, 16);
        assert_eq!(stats.capacity, 64);
        let per_shard = cache.shard_stats();
        assert_eq!(per_shard.len(), 4);
        assert_eq!(per_shard.iter().map(|s| s.len).sum::<usize>(), 16);
        assert_eq!(per_shard.iter().map(|s| s.hits).sum::<u64>(), 16);
        // Each shard is bounded at ceil(capacity / shards), so an uneven
        // split holds a few more than the requested capacity.
        assert_eq!(ShardedSupportCache::new(10, 4).stats().capacity, 12);
        assert_eq!(ShardedSupportCache::new(10, 0).shard_count(), 1);
    }

    #[test]
    fn sharded_get_or_derive_derives_once_and_counts_errors() {
        let cache = ShardedSupportCache::new(64, 4);
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

    #[test]
    fn sharded_zero_capacity_disables_every_shard() {
        let cache = ShardedSupportCache::new(0, 4);
        let mut derivations = 0;
        for _ in 0..2 {
            cache
                .get_or_derive((0, 0, 1), || {
                    derivations += 1;
                    Ok::<_, ()>(support(1))
                })
                .unwrap();
        }
        // Nothing is retained, so every call re-derives.
        assert_eq!(derivations, 2);
        let stats = cache.stats();
        assert_eq!(stats.capacity, 0);
        assert_eq!(stats.len, 0);
        assert_eq!(stats.misses, 2);
    }
}
