//! Integration: the multi-tenant snapshot catalog as the serving
//! front door. Two tenants with *different* documents round-trip
//! through publish → verified fault-in → serve with estimates
//! bit-identical to a dedicated single-document [`BatchServer`], and
//! a live [`IngestStore`] publishes its maintained synopsis into the
//! catalog so a mutating tenant's next request sees the new
//! generation while other tenants are untouched.

use rand::rngs::StdRng;
use rand::SeedableRng;
use xtwig::core::estimate::EstimateOptions;
use xtwig::core::{
    coarse_synopsis, BatchServer, CatalogError, CatalogOptions, CompiledSynopsis, SnapshotCatalog,
};
use xtwig::datagen::{imdb, xmark, ImdbConfig, XMarkConfig};
use xtwig::query::{parse_twig, TwigQuery};
use xtwig::workload::{random_delta, IngestOptions, IngestStore};

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("xtwig-catalog-it-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn queries(texts: &[&str]) -> Vec<TwigQuery> {
    texts.iter().map(|t| parse_twig(t).unwrap()).collect()
}

#[test]
fn tenants_with_different_documents_round_trip_bit_identically() {
    let dir = tmp("roundtrip");
    let catalog = SnapshotCatalog::open(&dir, CatalogOptions::default());
    let opts = EstimateOptions::default();

    let xdoc = xmark(XMarkConfig {
        scale: 0.002,
        seed: 3,
    });
    let idoc = imdb(ImdbConfig {
        movies: 30,
        seed: 9,
    });
    let xsyn = coarse_synopsis(&xdoc);
    let isyn = coarse_synopsis(&idoc);
    catalog.publish("auctions", "xmark", &xsyn).unwrap();
    catalog.publish("studios", "films", &isyn).unwrap();

    let xq = queries(&["for $t0 in //item", "for $t0 in //person, $t1 in $t0/name"]);
    let iq = queries(&["for $t0 in //movie, $t1 in $t0/actor", "for $t0 in //movie"]);

    let xgot = catalog.serve("auctions", "xmark", &xq, &opts).unwrap();
    let igot = catalog.serve("studios", "films", &iq, &opts).unwrap();

    let xcs = CompiledSynopsis::compile(&xsyn);
    let ics = CompiledSynopsis::compile(&isyn);
    let xwant = BatchServer::new(&xcs).with_options(opts).serve(&xq);
    let iwant = BatchServer::new(&ics).with_options(opts).serve(&iq);
    for (g, w) in xgot.iter().zip(&xwant) {
        assert_eq!(g.estimate.to_bits(), w.estimate.to_bits());
    }
    for (g, w) in igot.iter().zip(&iwant) {
        assert_eq!(g.estimate.to_bits(), w.estimate.to_bits());
    }

    // Key separation: the other tenant's document name is unknown.
    assert!(matches!(
        catalog.serve("auctions", "films", &xq, &opts),
        Err(CatalogError::UnknownDocument { .. })
    ));

    let stats = catalog.stats();
    assert_eq!(stats.cold_loads, 2, "one fault-in per document");
    assert_eq!(stats.documents, 3, "two published + one unknown probe");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ingest_store_publishes_generations_into_the_catalog() {
    let dir = tmp("ingest");
    let store_dir = dir.join("store");
    let cat_dir = dir.join("catalog");
    let doc = imdb(ImdbConfig {
        movies: 40,
        seed: 21,
    });
    let mut store = IngestStore::create(&store_dir, doc.clone(), IngestOptions::default()).unwrap();
    let catalog = SnapshotCatalog::open(&cat_dir, CatalogOptions::default());
    let opts = EstimateOptions::default();
    let qs = queries(&["for $t0 in //movie, $t1 in $t0/actor", "for $t0 in //movie"]);

    // A bystander tenant that must never observe the mutating tenant.
    let bsyn = coarse_synopsis(&xmark(XMarkConfig {
        scale: 0.002,
        seed: 5,
    }));
    catalog.publish("bystander", "main", &bsyn).unwrap();
    let bq = queries(&["for $t0 in //item"]);
    let bystander_before = catalog.serve("bystander", "main", &bq, &opts).unwrap();

    store
        .publish_to_catalog(&catalog, "studio", "live")
        .unwrap();
    let gen0 = catalog.serve("studio", "live", &qs, &opts).unwrap();
    let cs0 = CompiledSynopsis::compile(store.synopsis());
    let want0 = BatchServer::new(&cs0).with_options(opts).serve(&qs);
    for (g, w) in gen0.iter().zip(&want0) {
        assert_eq!(g.estimate.to_bits(), w.estimate.to_bits());
    }

    // Mutate until the synopsis actually changes, then republish: the
    // catalog must serve the new generation (invalidate on publish).
    let mut rng = StdRng::seed_from_u64(0x0CA7_A106);
    for _ in 0..16 {
        let delta = random_delta(store.doc(), &mut rng);
        store.ingest(&delta).unwrap();
    }
    store
        .publish_to_catalog(&catalog, "studio", "live")
        .unwrap();
    let gen1 = catalog.serve("studio", "live", &qs, &opts).unwrap();
    let cs1 = CompiledSynopsis::compile(store.synopsis());
    let want1 = BatchServer::new(&cs1).with_options(opts).serve(&qs);
    for (g, w) in gen1.iter().zip(&want1) {
        assert_eq!(
            g.estimate.to_bits(),
            w.estimate.to_bits(),
            "catalog must serve the republished generation"
        );
    }

    // The bystander's estimates are byte-for-byte what they were.
    let bystander_after = catalog.serve("bystander", "main", &bq, &opts).unwrap();
    for (a, b) in bystander_before.iter().zip(&bystander_after) {
        assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
    }
    let _ = std::fs::remove_dir_all(&dir);
}
