//! Integration: the guarded fallback chain as a catalog tier on cold
//! keys.
//!
//! 1. **Markov from columns** — the chain's Markov tier is derived from
//!    the compiled columns a v3 load carries (label ids in table order,
//!    per-label totals, per-edge child counts), and must equal the model
//!    derived from the in-memory synopsis: same tag counts, same
//!    transitions, same `estimate_twig` bits. Pruning breaks ties by
//!    label id, so the ids must match too.
//! 2. **Cold key under a tight budget** — a key faulted in cold and
//!    served under a work limit tier 1 cannot meet answers from the
//!    Markov tier, bit-identical to the chain over the in-memory
//!    synopsis.
//! 3. **Warm key under a budget** — a key whose cache partition and
//!    expansion memo were warmed by unbudgeted requests answers a
//!    work-limited request exactly like the cold chain (same tier, same
//!    bits), and the exhausted budgets leave tier 1 serving the key's
//!    unbudgeted callers.

use std::sync::Arc;
use std::time::Duration;

use xtwig::core::construct::{xbuild, BuildOptions, TruthSource};
use xtwig::core::estimate::{EstimateOptions, EstimateRequest, Estimator};
use xtwig::core::{
    coarse_synopsis, load_compiled_snapshot, save_synopsis_v3, BreakerConfig, CatalogOptions,
    SnapshotCatalog, StdVfs, Synopsis,
};
use xtwig::datagen::{imdb, sprot, xmark, ImdbConfig, SprotConfig, XMarkConfig};
use xtwig::markov::MarkovOptions;
use xtwig::workload::{
    generate_workload, markov_from_synopsis, GuardPolicy, GuardedCatalog, GuardedEstimator,
    Workload, WorkloadKind, WorkloadSpec,
};
use xtwig::xml::{Document, LabelId};

/// Coarse and XBUILD synopses of all three generators, each with a
/// branching workload over its document.
fn cases() -> Vec<(String, Synopsis, Workload)> {
    let docs: Vec<(&str, Document)> = vec![
        (
            "xmark",
            xmark(XMarkConfig {
                scale: 0.01,
                seed: 5,
            }),
        ),
        ("imdb", imdb(ImdbConfig::scaled(0.01, 5))),
        ("sprot", sprot(SprotConfig::scaled(0.01, 5))),
    ];
    let mut out = Vec::new();
    for (name, doc) in docs {
        let w = generate_workload(
            &doc,
            &WorkloadSpec {
                queries: 20,
                kind: WorkloadKind::Branching,
                seed: 5,
                ..Default::default()
            },
        );
        let coarse = coarse_synopsis(&doc);
        let build = BuildOptions {
            budget_bytes: coarse.size_bytes() + 700,
            refinements_per_round: 3,
            max_rounds: 15,
            seed: 5,
            ..Default::default()
        };
        let (refined, _) = xbuild(&doc, TruthSource::Exact, &build);
        out.push((format!("{name}/coarse"), coarse, w.clone()));
        out.push((format!("{name}/xbuild"), refined, w));
    }
    out
}

#[test]
fn markov_derived_from_loaded_columns_matches_the_in_memory_synopsis() {
    let budget = MarkovOptions::default().budget_bytes;
    for (name, s, w) in cases() {
        let loaded = load_compiled_snapshot(&save_synopsis_v3(&s)).expect("v3 loads");
        let from_columns = markov_from_synopsis(&loaded, budget);
        let from_graph = markov_from_synopsis(&s, budget);
        let labels = s.labels().len();
        assert_eq!(from_columns.root_tag(), from_graph.root_tag(), "{name}");
        assert_eq!(
            from_columns.transition_count(),
            from_graph.transition_count(),
            "{name}"
        );
        assert_eq!(from_columns.size_bytes(), from_graph.size_bytes(), "{name}");
        for a in 0..labels {
            let la = LabelId(a as u16);
            assert_eq!(
                from_columns.tag_count(la),
                from_graph.tag_count(la),
                "{name}"
            );
            for b in 0..labels {
                let lb = LabelId(b as u16);
                assert_eq!(
                    from_columns.transition(la, lb).to_bits(),
                    from_graph.transition(la, lb).to_bits(),
                    "{name}: transition {a}->{b}"
                );
            }
        }
        for q in &w.queries {
            assert_eq!(
                from_columns.estimate_twig(q).to_bits(),
                from_graph.estimate_twig(q).to_bits(),
                "{name}: {q}"
            );
        }
    }
}

#[test]
fn cold_guarded_key_under_a_tight_work_limit_answers_from_markov() {
    let dir = std::env::temp_dir().join(format!("xtwig-guarded-catalog-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let catalog: GuardedCatalog =
        SnapshotCatalog::open_tier(&dir, CatalogOptions::default(), Arc::new(StdVfs));
    let tight = EstimateOptions::builder().work_limit(1).build();
    for (i, (name, s, w)) in cases().into_iter().enumerate() {
        let tenant = format!("t{i}");
        catalog.publish(&tenant, "doc", &s).expect("publish");
        // `publish` leaves the key cold: this serve faults it in.
        let served = catalog
            .serve(&tenant, "doc", &w.queries, &tight)
            .expect("serve");
        let in_memory = GuardedEstimator::new(
            &s,
            GuardPolicy {
                work_limit: 1,
                ..Default::default()
            },
        );
        assert_eq!(served.len(), w.queries.len());
        for (q, r) in w.queries.iter().zip(&served) {
            assert_eq!(r.provenance.tier, Some("markov"), "{name}: {q}");
            assert!(r.provenance.degraded, "{name}: {q}");
            let want = Estimator::estimate(&in_memory, &EstimateRequest::new(q));
            assert_eq!(want.provenance.tier, Some("markov"), "{name}: {q}");
            assert_eq!(r.estimate.to_bits(), want.estimate.to_bits(), "{name}: {q}");
        }
    }
    assert_eq!(catalog.stats().cold_loads, 6);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_guarded_key_under_a_work_limit_answers_like_the_cold_chain() {
    let dir =
        std::env::temp_dir().join(format!("xtwig-guarded-catalog-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // A breaker that opens on the first failure and never cools down:
    // had an exhausted budget counted against tier 1, every later
    // request on the key would be answered by Markov.
    let options = CatalogOptions::builder()
        .breaker(BreakerConfig {
            failure_threshold: 1,
            cooldown: Duration::from_secs(3600),
        })
        .build();
    let catalog: GuardedCatalog = SnapshotCatalog::open_tier(&dir, options, Arc::new(StdVfs));
    let unbudgeted = EstimateOptions::default();
    for (i, (name, s, w)) in cases().into_iter().enumerate() {
        let tenant = format!("t{i}");
        catalog.publish(&tenant, "doc", &s).expect("publish");
        let warm = catalog
            .serve(&tenant, "doc", &w.queries, &unbudgeted)
            .expect("serve");
        assert!(warm.iter().all(|r| r.provenance.tier == Some("xsketch")));
        for limit in [1u64, 200] {
            let limited = EstimateOptions::builder().work_limit(limit).build();
            let served = catalog
                .serve(&tenant, "doc", &w.queries, &limited)
                .expect("serve");
            let cold = GuardedEstimator::new(
                &s,
                GuardPolicy {
                    work_limit: limit,
                    ..Default::default()
                },
            );
            for (q, r) in w.queries.iter().zip(&served) {
                let want = Estimator::estimate(&cold, &EstimateRequest::new(q));
                assert!(!r.provenance.cached, "{name} limit {limit}: {q}");
                assert_eq!(
                    r.provenance.tier, want.provenance.tier,
                    "{name} limit {limit}: {q}"
                );
                assert_eq!(
                    r.estimate.to_bits(),
                    want.estimate.to_bits(),
                    "{name} limit {limit}: {q}"
                );
            }
        }
        // The exhausted budgets left tier 1 serving the key's
        // unbudgeted callers, bit for bit.
        let again = catalog
            .serve(&tenant, "doc", &w.queries, &unbudgeted)
            .expect("serve");
        for (a, b) in warm.iter().zip(&again) {
            assert_eq!(b.provenance.tier, Some("xsketch"), "{name}");
            assert_eq!(a.estimate.to_bits(), b.estimate.to_bits(), "{name}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
