//! Regression: [`EstimateCache`] edge-case configurations (ISSUE 5
//! satellites). Zero capacity and zero shards must *disable* caching —
//! universal miss, dropped inserts — rather than panic or divide by
//! zero; `CacheStats::hit_rate` must be 0.0 (never NaN) with no
//! lookups; and merged stats must saturate instead of overflowing.

use xtwig::core::estimate::{EstimateOptions, Provenance};
use xtwig::core::{coarse_synopsis, BatchServer, CacheStats, CompiledSynopsis, EstimateCache};
use xtwig::query::{parse_twig, TwigQuery};

fn setup() -> (xtwig::xml::Document, Vec<TwigQuery>) {
    let doc =
        xtwig::xml::parse("<bib><conf><paper><kw/></paper><paper><kw/><kw/></paper></conf></bib>")
            .unwrap();
    let queries = [
        "for $t0 in //paper, $t1 in $t0/kw",
        "for $t0 in //conf, $t1 in $t0/paper",
    ]
    .iter()
    .map(|t| parse_twig(t).unwrap())
    .collect();
    (doc, queries)
}

#[test]
fn zero_capacity_cache_disables_instead_of_panicking() {
    let cache = EstimateCache::new(0);
    assert!(!cache.is_enabled());
    // Lookups miss, inserts drop, stats stay quiet — and nothing panics.
    assert!(cache.get("q", 1).is_none());
    let prov = Provenance::new("xsketch-compiled");
    cache.insert("q", 1, 1.0, prov);
    assert!(cache.get("q", 1).is_none(), "disabled cache never stores");
    let stats = cache.stats();
    assert_eq!(stats.entries, 0);
    assert_eq!(stats.hit_rate(), 0.0, "no NaN from 0/0");
}

#[test]
fn zero_shard_cache_is_also_disabled() {
    let cache = EstimateCache::with_shards(64, 0);
    assert!(!cache.is_enabled());
    assert!(cache.get("q", 1).is_none());
    assert_eq!(cache.stats().entries, 0);
    // And a normal with_shards configuration still works.
    let enabled = EstimateCache::with_shards(64, 3); // rounds up to 4 shards
    assert!(enabled.is_enabled());
}

#[test]
fn serving_through_a_disabled_cache_still_answers_correctly() {
    let (doc, queries) = setup();
    let s = coarse_synopsis(&doc);
    let cs = CompiledSynopsis::compile(&s);
    let opts = EstimateOptions::default();
    let disabled = EstimateCache::new(0);
    let uncached = BatchServer::new(&cs)
        .with_options(opts)
        .with_threads(2)
        .serve(&queries);
    let through = BatchServer::new(&cs)
        .with_cache(&disabled)
        .with_options(opts)
        .with_threads(2)
        .serve(&queries);
    for (a, b) in uncached.iter().zip(&through) {
        assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
        assert!(!b.provenance.cached, "a disabled cache can never hit");
    }
    // Second pass: still recomputes, still correct, still no hits.
    let again = BatchServer::new(&cs)
        .with_cache(&disabled)
        .with_options(opts)
        .with_threads(2)
        .serve(&queries);
    for (a, b) in uncached.iter().zip(&again) {
        assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
        assert!(!b.provenance.cached);
    }
    assert_eq!(disabled.stats().entries, 0);
}

#[test]
fn hit_rate_is_zero_not_nan_before_any_lookup() {
    let stats = EstimateCache::new(16).stats();
    assert_eq!(stats.hits + stats.misses, 0);
    let rate = stats.hit_rate();
    assert!(!rate.is_nan());
    assert_eq!(rate, 0.0);
}

#[test]
fn merged_stats_saturate_instead_of_overflowing() {
    let a = CacheStats {
        hits: u64::MAX - 1,
        misses: u64::MAX,
        stale_evictions: 5,
        lru_evictions: u64::MAX,
        entries: usize::MAX,
    };
    let b = CacheStats {
        hits: 10,
        misses: 10,
        stale_evictions: 1,
        lru_evictions: 1,
        entries: 1,
    };
    let m = a.merged(&b);
    assert_eq!(m.hits, u64::MAX, "saturated, not wrapped");
    assert_eq!(m.misses, u64::MAX);
    assert_eq!(m.stale_evictions, 6);
    assert_eq!(m.lru_evictions, u64::MAX);
    assert_eq!(m.entries, usize::MAX);
    // hit_rate survives pegged counters without NaN/panic.
    assert!(m.hit_rate() > 0.0 && m.hit_rate() <= 1.0);
}
