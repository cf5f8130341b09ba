//! The one per-dimension support layout, and the serving engine's
//! bounded memoization of it.
//!
//! [`DimSupport`] is what both answering paths read: stride-premultiplied
//! `(offset, weight)` pairs plus the variance factor, produced by one
//! derivation. A compiled [`QueryPlan`](crate::QueryPlan) copies them
//! into its arena; the online path caches them here. Each support also
//! records where it was derived — the axis, that axis's stride and that
//! axis's transform — so [`ReleaseCore::dot`](crate::ReleaseCore::dot)
//! refuses a support of another layout.
//!
//! The online one-query-at-a-time serving path would re-derive each
//! dimension's sparse support (`Transform1d::query_weights`) on every
//! request, even though OLAP traffic repeats the same predicate
//! intervals dimension after dimension. The crate-private `SupportCache`
//! inside [`ConcurrentEngine`](crate::ConcurrentEngine) memoizes supports
//! keyed on `(dim, lo, hi)`, so repeated predicates across requests
//! amortize the derivation the way a compiled plan amortizes it within
//! one batch.
//!
//! The cache is direct-mapped and fixed: 1024 slots, each a lock over at
//! most one entry plus the slot's own hit, miss and eviction counters,
//! which [`CacheStats`] sums. A key lives only in the slot a fixed hash
//! of it picks, and a miss overwrites that slot. There is no recency
//! order: two keys that share a slot displace each other, so even a
//! working set smaller than the cache may be derived more than once.
//! Lookups in different slots never wait for each other, and a hit holds its lock
//! for one key compare and one pointer clone. Each entry holds one
//! dimension's pairs behind an [`Arc`] — `O(polylog m)` of them on Haar
//! dimensions, O(covered leaves + height) on nominal ones, and at most
//! two on identity-transformed (SA) dimensions, which the core stores as
//! prefix sums — so a hit never clones the support. A miss derives while
//! holding its slot's lock, so each key is derived at most once per
//! residency.

use crate::release::ReleaseCore;
use crate::{QueryError, Result};
use privelet::transform::{DimTransform, Transform1d};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

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
/// A support remembers the axis, stride and transform it was derived
/// under, and a dot refuses it on a core whose layout differs there.
#[derive(Debug, Clone, PartialEq)]
pub struct DimSupport {
    /// `(stride-premultiplied offset, weight)` pairs with strictly
    /// nonzero weights, in ascending offset order.
    terms: Vec<(usize, f64)>,
    /// The per-dimension variance factor of this support.
    variance_factor: f64,
    /// The axis the support was derived on.
    dim: usize,
    /// That axis's stride in the stored layout: the factor already in
    /// every offset.
    stride: usize,
    /// That axis's transform. A nominal transform shares its hierarchy
    /// and layout tables by `Arc`, so the record copies no table.
    transform: DimTransform,
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
        let axis = &transform.transforms()[dim];
        let (mut terms, variance_factor) = match axis {
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
            dim,
            stride,
            transform: axis.clone(),
        })
    }

    /// Whether this support was derived on axis `dim` of a core laid out
    /// like `core` there — the same axis, stride and transform — so its
    /// offsets address `core`'s stored coefficients. An epoch roll keeps
    /// every transform, and with them the strides, so supports carried
    /// across a roll still fit.
    pub(crate) fn fits(&self, core: &ReleaseCore, dim: usize) -> bool {
        self.dim == dim
            && self.stride == core.coefficients().shape().strides()[dim]
            && self.transform == core.transform().transforms()[dim]
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
/// engine's support cache, summed over its slots.
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

/// Slots in the engine's cache, one entry each: each entry is one
/// dimension's `O(polylog m)` weight pairs, so the footprint is a few
/// hundred kilobytes at most.
const SLOTS: usize = 1024;

/// One slot of the [`SupportCache`]: at most one entry, and counters of
/// its own, so no counter is shared between slots.
#[derive(Debug, Default)]
struct Slot {
    entry: Option<(SupportKey, SharedSupport)>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// The support cache of the coefficient serving engine: `SLOTS`
/// direct-mapped slots, each behind its own lock. A key lives only in
/// the slot [`slot_of`](Self::slot_of) picks.
///
/// Every operation takes `&self`, so one cache sits behind an `Arc`
/// shared by every clone of the engine and by its later epochs. A
/// lookup locks one slot; see [`get_or_derive`](Self::get_or_derive).
#[derive(Debug)]
pub(crate) struct SupportCache {
    slots: Box<[Mutex<Slot>]>,
}

impl SupportCache {
    /// An empty cache of `SLOTS` slots.
    pub(crate) fn new() -> Self {
        SupportCache {
            slots: (0..SLOTS).map(|_| Mutex::default()).collect(),
        }
    }

    /// The one slot `key` can live in. The hash is `DefaultHasher::new()`
    /// (fixed keys), so placement is stable within and across processes,
    /// which is what lets a test pick keys that share a slot.
    fn slot_of(key: SupportKey) -> usize {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() as usize) % SLOTS
    }

    fn lock(&self, slot: usize) -> MutexGuard<'_, Slot> {
        self.slots[slot]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks up `key`, and on a miss derives it via `derive` and stores
    /// it in the key's slot, counting an eviction when the slot held
    /// another key. All of it runs under that one slot's lock, so threads
    /// racing on one key derive it once (the losers of the lock race hit
    /// the fresh entry), and lookups in other slots never wait. A Haar or
    /// identity derivation is O(log m) or O(1); a wide nominal predicate
    /// derives O(covered leaves) pairs while the slot is locked, which is
    /// exactly when deriving once matters most.
    ///
    /// Errors from `derive` propagate untouched and store nothing; the
    /// miss is still counted (every call moves exactly one hit or miss
    /// counter, so `hits + misses` always equals the number of calls).
    pub(crate) fn get_or_derive<E>(
        &self,
        key: SupportKey,
        derive: impl FnOnce() -> std::result::Result<SharedSupport, E>,
    ) -> std::result::Result<SharedSupport, E> {
        let mut guard = self.lock(Self::slot_of(key));
        let slot = &mut *guard;
        if let Some((resident, support)) = &slot.entry {
            if *resident == key {
                slot.hits += 1;
                return Ok(Arc::clone(support));
            }
        }
        slot.misses += 1;
        let support = derive()?;
        if slot.entry.replace((key, Arc::clone(&support))).is_some() {
            slot.evictions += 1;
        }
        Ok(support)
    }

    /// Counters and occupied slots summed over every slot; `capacity` is
    /// the slot count.
    pub(crate) fn stats(&self) -> CacheStats {
        let mut stats = CacheStats {
            capacity: SLOTS,
            ..CacheStats::default()
        };
        for i in 0..SLOTS {
            let slot = self.lock(i);
            stats.hits += slot.hits;
            stats.misses += slot.misses;
            stats.evictions += slot.evictions;
            stats.len += usize::from(slot.entry.is_some());
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::thread;

    /// A support whose one offset tells which key it was made for. The
    /// record fields are never read by the cache.
    fn support(v: usize) -> SharedSupport {
        Arc::new(DimSupport {
            terms: vec![(v, 1.0)],
            variance_factor: 1.0,
            dim: 0,
            stride: 1,
            transform: DimTransform::Identity(privelet::transform::IdentityTransform::new(1)),
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

    /// The first `n` keys of the form `(i % 3, 5i, 5i + 3)` that land in
    /// slots no earlier one took.
    fn keys_in_distinct_slots(n: usize) -> Vec<SupportKey> {
        let mut taken = BTreeSet::new();
        (0..)
            .map(|i| (i % 3, 5 * i, 5 * i + 3))
            .filter(|&key| taken.insert(SupportCache::slot_of(key)))
            .take(n)
            .collect()
    }

    /// Two keys that share a slot.
    fn keys_sharing_a_slot() -> (SupportKey, SupportKey) {
        let a = (0, 0, 0);
        let b = (1..)
            .map(|i| (0, i, i))
            .find(|&key| SupportCache::slot_of(key) == SupportCache::slot_of(a))
            .unwrap();
        (a, b)
    }

    #[test]
    fn keys_stay_in_their_slots_and_stats_sum_the_slots() {
        let cache = SupportCache::new();
        let keys = keys_in_distinct_slots(16);
        let supports: Vec<SharedSupport> = (0..keys.len()).map(support).collect();
        // First pass derives every key, the second must return the very
        // support the first stored under it.
        for _ in 0..2 {
            for (key, want) in keys.iter().zip(&supports) {
                let got = cache
                    .get_or_derive(*key, || Ok::<_, ()>(Arc::clone(want)))
                    .unwrap();
                assert!(Arc::ptr_eq(&got, want), "placement must be stable");
            }
        }
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.evictions, stats.len),
            (16, 16, 0, 16)
        );
        assert_eq!(stats.capacity, 1024);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn get_or_derive_derives_once_and_counts_errors() {
        let cache = SupportCache::new();
        let (resident, neighbour) = keys_sharing_a_slot();
        let mut derivations = 0;
        for _ in 0..3 {
            let s = cache
                .get_or_derive(resident, || {
                    derivations += 1;
                    Ok::<_, ()>(support(7))
                })
                .unwrap();
            assert_eq!(s.terms[0].0, 7);
        }
        assert_eq!(derivations, 1, "first call derives, the rest hit");
        // A failing derivation propagates and counts a miss, but stores
        // nothing: the slot keeps its entry and evicts nothing.
        assert_eq!(
            cache.get_or_derive(neighbour, || Err::<SharedSupport, &str>("boom")),
            Err("boom")
        );
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (2, 2));
        assert_eq!((stats.evictions, stats.len), (0, 1));
        let kept = cache.get_or_derive(resident, || Err("the entry must still be there"));
        assert_eq!(kept.unwrap().terms[0].0, 7);
    }

    /// Two keys in one slot, looked up alternately, displace each other:
    /// every lookup misses and derives, every miss after the first
    /// evicts, and the slot holds one entry throughout.
    #[test]
    fn keys_sharing_a_slot_miss_on_every_alternate_lookup() {
        let cache = SupportCache::new();
        let (a, b) = keys_sharing_a_slot();
        let lookups = 2 * stress_iters(16) as u64;
        let mut derivations = 0u64;
        for i in 0..lookups {
            let (key, v) = if i % 2 == 0 { (a, 1) } else { (b, 2) };
            let got = cache
                .get_or_derive(key, || {
                    derivations += 1;
                    Ok::<_, ()>(support(v))
                })
                .unwrap();
            assert_eq!(got.terms[0].0, v, "a slot never answers for another key");
        }
        let stats = cache.stats();
        assert_eq!(derivations, lookups);
        assert_eq!((stats.hits, stats.misses), (0, lookups));
        assert_eq!(stats.evictions, stats.misses - 1);
        assert_eq!(stats.len, 1);
    }

    /// Hammers `cache` from `WRITERS` threads, each walking every key
    /// `iters` times from its own offset, and returns how often each key
    /// was derived. Every lookup must return the support derived for its
    /// own key, and the lookups must move `hits + misses` by exactly
    /// their number.
    fn hammer(cache: &SupportCache, keys: &[SupportKey], iters: usize) -> Vec<u64> {
        const WRITERS: usize = 8;
        let before = cache.stats();
        let derivations: Vec<AtomicU64> = keys.iter().map(|_| AtomicU64::new(0)).collect();
        thread::scope(|s| {
            for t in 0..WRITERS {
                let derivations = &derivations;
                s.spawn(move || {
                    for round in 0..iters {
                        // Offset the walk per thread so lock acquisition
                        // interleaves instead of convoying.
                        for i in 0..keys.len() {
                            let k = (i + t + round) % keys.len();
                            let support = cache
                                .get_or_derive(keys[k], || {
                                    derivations[k].fetch_add(1, Ordering::SeqCst);
                                    Ok::<_, ()>(support(k))
                                })
                                .unwrap();
                            assert_eq!(support.terms[0].0, k, "supports must never cross keys");
                        }
                    }
                });
            }
        });
        let calls = (WRITERS * iters * keys.len()) as u64;
        let after = cache.stats();
        assert_eq!(
            (after.hits + after.misses) - (before.hits + before.misses),
            calls,
            "one counter per call"
        );
        derivations
            .iter()
            .map(|d| d.load(Ordering::SeqCst))
            .collect()
    }

    /// Eight threads over keys in distinct slots: each key is derived
    /// exactly once however the threads race, nothing is evicted, and a
    /// second contended pass is all hits.
    #[test]
    fn contended_keys_in_distinct_slots_derive_once() {
        let cache = SupportCache::new();
        let keys = keys_in_distinct_slots(256);
        let iters = stress_iters(16);
        let derivations = hammer(&cache, &keys, iters);
        assert!(derivations.iter().all(|&d| d == 1), "{derivations:?}");
        let first = cache.stats();
        assert_eq!(first.misses as usize, keys.len());
        assert_eq!((first.evictions, first.len), (0, keys.len()));

        let again = hammer(&cache, &keys, iters);
        assert!(
            again.iter().all(|&d| d == 0),
            "second pass must be all hits"
        );
        let second = cache.stats();
        assert_eq!((second.misses, second.evictions), (first.misses, 0));
        assert_eq!(second.len, keys.len());
    }

    /// Three times more distinct keys than slots, under contention:
    /// counters conserve, every miss derived exactly once, and each
    /// occupied slot is one miss that no later miss displaced.
    #[test]
    fn contended_keys_beyond_capacity_conserve_counters() {
        let cache = SupportCache::new();
        let keys: Vec<SupportKey> = (0..3 * SLOTS).map(|i| (i % 3, i, i + 2)).collect();
        let derivations = hammer(&cache, &keys, stress_iters(2));
        let stats = cache.stats();
        assert_eq!(derivations.iter().sum::<u64>(), stats.misses);
        assert!(stats.evictions > 0);
        assert!(stats.len <= stats.capacity);
        assert_eq!(stats.len as u64, stats.misses - stats.evictions);
    }
}
