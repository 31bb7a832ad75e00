//! Regression: [`EstimateCache`] edge-case configurations. Zero
//! capacity and zero shards must *disable* caching — universal miss,
//! dropped inserts — rather than panic or divide by zero;
//! `CacheStats::hit_rate` must be 0.0 (never NaN) with no lookups;
//! merged stats must saturate instead of overflowing; and a cached
//! answer serves only requests under the embedding cap it was computed
//! under.

use xtwig::core::estimate::{EstimateOptions, EstimateReport, Provenance};
use xtwig::core::{
    coarse_synopsis, BatchServer, CacheStats, CatalogOptions, CompiledSynopsis, EstimateCache,
    SnapshotCatalog,
};
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
    assert!(cache.get("q", 1, 4096).is_none());
    let prov = Provenance::new("xsketch-compiled");
    cache.insert("q", 1, 4096, 1.0, prov);
    assert!(
        cache.get("q", 1, 4096).is_none(),
        "disabled cache never stores"
    );
    let stats = cache.stats();
    assert_eq!(stats.entries, 0);
    assert_eq!(stats.hit_rate(), 0.0, "no NaN from 0/0");
}

#[test]
fn zero_shard_cache_is_also_disabled() {
    let cache = EstimateCache::with_shards(64, 0);
    assert!(!cache.is_enabled());
    assert!(cache.get("q", 1, 4096).is_none());
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

/// A capped sum is a different number, not a cheaper one: once a
/// request under `max_embeddings(1)` has filled the cache, a default
/// request must still get the full sum, and the capped request must
/// not be served the full sum back — through a cached `BatchServer` and
/// through a catalog key. Repeats under one cap still hit.
#[test]
fn cached_answers_serve_only_their_embedding_cap() {
    let doc = xtwig::xml::parse("<r><x><b/><b/></x><y><b/></y></r>").unwrap();
    let s = coarse_synopsis(&doc);
    let q = vec![parse_twig("for $t0 in //b").unwrap()];
    let capped = EstimateOptions::builder().max_embeddings(1).build();
    let full = EstimateOptions::default();
    let fresh = |opts: EstimateOptions| {
        let cs = CompiledSynopsis::compile(&s);
        let rep = BatchServer::new(&cs).with_options(opts).serve(&q).remove(0);
        (rep.estimate, rep.provenance.embeddings)
    };
    let (want_full, want_capped) = (fresh(full), fresh(capped));
    assert_eq!(want_full, (3.0, 2));
    assert_eq!(want_capped, (2.0, 1));

    let check = |path: &str, serve: &dyn Fn(EstimateOptions) -> EstimateReport| {
        for (step, (opts, want, cached)) in [
            (capped, want_capped, false),
            (full, want_full, false),
            (full, want_full, true),
            (capped, want_capped, false),
            (capped, want_capped, true),
        ]
        .into_iter()
        .enumerate()
        {
            let got = serve(opts);
            assert_eq!(
                (got.estimate.to_bits(), got.provenance.embeddings),
                (want.0.to_bits(), want.1),
                "{path} step {step}: {got:?}"
            );
            assert_eq!(got.provenance.cached, cached, "{path} step {step}");
        }
    };

    let cs = CompiledSynopsis::compile(&s);
    let cache = EstimateCache::new(64);
    check("batch", &|opts| {
        BatchServer::new(&cs)
            .with_cache(&cache)
            .with_options(opts)
            .serve(&q)
            .remove(0)
    });

    let dir = std::env::temp_dir().join(format!("xtwig-serve-cache-cap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let catalog = SnapshotCatalog::open(&dir, CatalogOptions::default());
    catalog.publish("t", "main", &s).unwrap();
    check("catalog", &|opts| {
        catalog.serve("t", "main", &q, &opts).unwrap().remove(0)
    });
    let _ = std::fs::remove_dir_all(&dir);
}
