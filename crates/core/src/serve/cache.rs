//! The sharded, epoch-invalidated estimate cache.
//!
//! Entries are keyed by the query *fingerprint* — its canonical
//! [`Display`](std::fmt::Display) rendering, which round-trips through
//! the parser — and stamped with the
//! [`CompiledSynopsis::epoch`](crate::CompiledSynopsis::epoch) and the
//! embedding cap
//! ([`EstimateOptions::max_embeddings`](crate::estimate::EstimateOptions::max_embeddings))
//! they were computed under. A lookup presents the current epoch and
//! its request's cap; an entry stamped with any other epoch is treated
//! as a miss and evicted on sight, and one stamped with another cap is
//! a miss (a capped sum is a different number, not a cheaper one).
//! Because epochs are process-unique and monotone, refining the
//! synopsis and recompiling invalidates every cached estimate at once
//! without a flush protocol, and an entry can never be served across
//! synopsis generations. The same property gives the multi-tenant
//! [`SnapshotCatalog`](crate::SnapshotCatalog) its per-document cache
//! partitions for free: every fault-in mints a fresh epoch, so a
//! republished document's partition self-invalidates.
//!
//! Only *full-fidelity* results are cached: an estimate whose meter
//! tripped (deadline or work exhaustion) is returned to the caller but
//! never inserted, so a transient overload cannot freeze degraded
//! numbers into the cache.

use std::collections::HashMap;

use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::{Mutex, PoisonError};

use crate::estimate::{EstimateReport, Provenance, QueryTelemetry};
use crate::telemetry;

/// Number of independently locked shards. A power of two so the shard
/// index is a mask of the fingerprint hash; 16 keeps lock contention
/// negligible at the batch parallelism we run (≤ available cores).
pub(crate) const SHARD_COUNT: usize = 16;

/// One cached estimate with its provenance.
#[derive(Debug, Clone)]
struct Entry {
    /// Synopsis epoch this estimate was computed under.
    epoch: u64,
    /// Embedding cap of the request this estimate answered.
    max_embeddings: usize,
    /// The cached full-fidelity estimate.
    estimate: f64,
    /// The provenance of the original computation (embeddings, work,
    /// clamping) — threading it through the cache keeps a served hit
    /// distinguishable from a fresh run (e.g. a clamped-but-complete
    /// "degraded-adjacent" result keeps its `clamped` count and gains
    /// `cached: true` on the way out).
    provenance: Provenance,
    /// Logical timestamp of the last hit (for LRU eviction).
    last_used: u64,
}

/// One shard: a fingerprint-keyed map plus its logical clock.
#[derive(Debug, Default)]
struct Shard {
    entries: HashMap<String, Entry>,
    tick: u64,
}

/// Aggregate cache counters, cheap enough to read per batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache at the current epoch.
    pub hits: u64,
    /// Lookups that had to compute (includes stale evictions).
    pub misses: u64,
    /// Entries evicted because their epoch no longer matched.
    pub stale_evictions: u64,
    /// Entries evicted to make room for an insert into a full shard.
    pub lru_evictions: u64,
    /// Entries currently resident across all shards.
    pub entries: usize,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; `0.0` when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits.saturating_add(self.misses);
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Combines two snapshots field-by-field, saturating instead of
    /// overflowing — merging stats from long-lived shards (or several
    /// caches) must never wrap a counter back toward zero.
    pub fn merged(&self, other: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_add(other.hits),
            misses: self.misses.saturating_add(other.misses),
            stale_evictions: self.stale_evictions.saturating_add(other.stale_evictions),
            lru_evictions: self.lru_evictions.saturating_add(other.lru_evictions),
            entries: self.entries.saturating_add(other.entries),
        }
    }
}

/// A sharded, LRU-evicting, epoch-invalidated estimate cache.
///
/// Thread-safe: shards are individually mutex-guarded and counters are
/// atomic, so a scoped-thread batch can probe it concurrently.
#[derive(Debug)]
pub struct EstimateCache {
    shards: Vec<Mutex<Shard>>,
    /// Per-shard entry capacity; the least-recently used entry is
    /// evicted when a full shard takes an insert.
    shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    stale: AtomicU64,
    lru: AtomicU64,
}

impl EstimateCache {
    /// A cache holding at most `capacity` entries (rounded up to a
    /// multiple of the shard count; minimum one entry per shard).
    /// `capacity == 0` yields a *disabled* cache: every lookup misses
    /// without touching counters and inserts are dropped, rather than
    /// panicking or dividing by zero.
    pub fn new(capacity: usize) -> EstimateCache {
        EstimateCache::with_shards(capacity, SHARD_COUNT)
    }

    /// Like [`new`](EstimateCache::new) but with an explicit shard
    /// count (rounded up to a power of two so shard selection stays a
    /// mask). Zero capacity *or* zero shards disables the cache — a
    /// valid configuration for "serve uncached" paths — instead of
    /// constructing a cache that would panic on first use.
    pub fn with_shards(capacity: usize, shards: usize) -> EstimateCache {
        let (shards, shard_capacity) = if capacity == 0 || shards == 0 {
            (0, 0)
        } else {
            let shards = shards.next_power_of_two();
            (shards, capacity.div_ceil(shards).max(1))
        };
        EstimateCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            shard_capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stale: AtomicU64::new(0),
            lru: AtomicU64::new(0),
        }
    }

    /// Whether this cache can hold entries. A disabled cache (zero
    /// capacity or zero shards) behaves as a universal miss.
    pub fn is_enabled(&self) -> bool {
        !self.shards.is_empty()
    }

    /// Deterministic FNV-1a over the fingerprint bytes. `HashMap`'s
    /// default hasher is randomly seeded per process; shard selection
    /// must not be, so runs are reproducible. Callers guard against an
    /// empty (disabled) shard vector before indexing.
    fn shard_of(&self, key: &str) -> usize {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in key.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        (h as usize) & (self.shards.len() - 1)
    }

    /// Looks up `key` at `epoch` for a request capped at
    /// `max_embeddings`, returning the cached estimate together with the
    /// provenance of the computation that produced it. A hit refreshes
    /// the entry's LRU stamp; an entry stamped with a different epoch is
    /// evicted and counted as both stale and a miss, and one computed
    /// under a different cap is a miss.
    pub fn get(&self, key: &str, epoch: u64, max_embeddings: usize) -> Option<(f64, Provenance)> {
        if !self.is_enabled() {
            return None;
        }
        let tg = telemetry::global();
        let mut shard = self.shards[self.shard_of(key)]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        shard.tick += 1;
        let tick = shard.tick;
        match shard.entries.get_mut(key) {
            Some(e) if e.epoch == epoch && e.max_embeddings == max_embeddings => {
                e.last_used = tick;
                // lint:allow(atomic-ordering): monotonic stats counter; nothing is ordered against it
                self.hits.fetch_add(1, Ordering::Relaxed);
                tg.cache_hits.incr();
                Some((e.estimate, e.provenance))
            }
            Some(e) if e.epoch != epoch => {
                shard.entries.remove(key);
                // lint:allow(atomic-ordering): monotonic stats counter; nothing is ordered against it
                self.stale.fetch_add(1, Ordering::Relaxed);
                // lint:allow(atomic-ordering): monotonic stats counter; nothing is ordered against it
                self.misses.fetch_add(1, Ordering::Relaxed);
                tg.cache_stale_evictions.incr();
                tg.cache_misses.incr();
                None
            }
            _ => {
                // lint:allow(atomic-ordering): monotonic stats counter; nothing is ordered against it
                self.misses.fetch_add(1, Ordering::Relaxed);
                tg.cache_misses.incr();
                None
            }
        }
    }

    /// Inserts `estimate` (with the `provenance` of its computation)
    /// under `key` at `epoch` for requests capped at `max_embeddings`,
    /// evicting the shard's least-recently-used entry if it is full.
    /// The O(shard-size) LRU scan is deliberate: shards are small
    /// (capacity/16) and an intrusive list is not worth the complexity
    /// at this scale.
    pub fn insert(
        &self,
        key: &str,
        epoch: u64,
        max_embeddings: usize,
        estimate: f64,
        provenance: Provenance,
    ) {
        if !self.is_enabled() {
            return;
        }
        let tg = telemetry::global();
        let mut shard = self.shards[self.shard_of(key)]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        shard.tick += 1;
        let tick = shard.tick;
        if shard.entries.len() >= self.shard_capacity && !shard.entries.contains_key(key) {
            let victim = shard
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone());
            if let Some(v) = victim {
                shard.entries.remove(&v);
                // lint:allow(atomic-ordering): monotonic stats counter; nothing is ordered against it
                self.lru.fetch_add(1, Ordering::Relaxed);
                tg.cache_lru_evictions.incr();
            }
        }
        tg.cache_inserts.incr();
        shard.entries.insert(
            key.to_owned(),
            Entry {
                epoch,
                max_embeddings,
                estimate,
                provenance,
                last_used: tick,
            },
        );
    }

    /// Current aggregate counters.
    pub fn stats(&self) -> CacheStats {
        let entries = self.shards.iter().fold(0usize, |acc, s| {
            acc.saturating_add(
                s.lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .entries
                    .len(),
            )
        });
        CacheStats {
            // lint:allow(atomic-ordering): point-in-time stats snapshot; torn reads across counters are acceptable
            hits: self.hits.load(Ordering::Relaxed),
            // lint:allow(atomic-ordering): point-in-time stats snapshot; torn reads across counters are acceptable
            misses: self.misses.load(Ordering::Relaxed),
            // lint:allow(atomic-ordering): point-in-time stats snapshot; torn reads across counters are acceptable
            stale_evictions: self.stale.load(Ordering::Relaxed),
            // lint:allow(atomic-ordering): point-in-time stats snapshot; torn reads across counters are acceptable
            lru_evictions: self.lru.load(Ordering::Relaxed),
            entries,
        }
    }
}

/// Builds the report served for a cache hit: the stored estimate and
/// the provenance of its *original* computation, re-marked as `cached`.
/// Timings/telemetry are zeroed — the cache did no per-stage work — and
/// there is no explain (the embeddings were not re-enumerated).
pub(crate) fn cached_report(estimate: f64, original: Provenance) -> EstimateReport {
    EstimateReport {
        estimate,
        provenance: Provenance {
            cached: true,
            ..original
        },
        telemetry: QueryTelemetry::default(),
        explain: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coarse::coarse_synopsis;
    use crate::compiled::CompiledSynopsis;
    use xtwig_xml::parse;

    const CAP: usize = 4096;

    #[test]
    fn stale_epoch_is_never_served() {
        let doc = parse("<bib><paper><kw/></paper></bib>").unwrap();
        let s = coarse_synopsis(&doc);
        let old = CompiledSynopsis::compile(&s);
        let new = CompiledSynopsis::compile(&s);
        let cache = EstimateCache::new(8);
        cache.insert(
            "q",
            old.epoch(),
            CAP,
            1234.5,
            Provenance::new("xsketch-compiled"),
        );
        assert!(cache.get("q", old.epoch(), CAP).is_some());
        // Another embedding cap misses without evicting the entry.
        assert!(cache.get("q", old.epoch(), 1).is_none());
        assert!(cache.get("q", old.epoch(), CAP).is_some());
        // Same key at the fresh epoch: stale entry evicted, not served.
        assert!(cache.get("q", new.epoch(), CAP).is_none());
        assert!(
            cache.get("q", old.epoch(), CAP).is_none(),
            "evicted on sight"
        );
        let stats = cache.stats();
        assert_eq!(stats.stale_evictions, 1);
    }

    #[test]
    fn lru_eviction_keeps_recent_entries() {
        let cache = EstimateCache::new(SHARD_COUNT); // capacity 1 per shard
        let b = 1.0;
        // Two keys in the same shard: the second insert evicts the first.
        let (mut k1, mut k2) = (None, None);
        for i in 0..1000 {
            let k = format!("q{i}");
            let shard = cache.shard_of(&k);
            if shard == 0 {
                if k1.is_none() {
                    k1 = Some(k);
                } else if k2.is_none() {
                    k2 = Some(k);
                    break;
                }
            }
        }
        let (k1, k2) = (k1.unwrap(), k2.unwrap());
        let prov = Provenance::new("xsketch-compiled");
        cache.insert(&k1, 1, CAP, b, prov);
        cache.insert(&k2, 1, CAP, b, prov);
        assert!(cache.get(&k1, 1, CAP).is_none(), "LRU victim");
        assert!(cache.get(&k2, 1, CAP).is_some());
        assert_eq!(cache.stats().lru_evictions, 1);
    }

    #[test]
    fn disabled_cache_is_a_universal_miss() {
        let cache = EstimateCache::with_shards(0, 16);
        assert!(!cache.is_enabled());
        cache.insert("q", 1, CAP, 1.0, Provenance::new("xsketch-compiled"));
        assert!(cache.get("q", 1, CAP).is_none());
        assert_eq!(cache.stats().entries, 0);
    }
}
