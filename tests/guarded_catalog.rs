//! Integration: the guarded fallback chain as a catalog tier on cold
//! keys.
//!
//! 1. **Markov from columns** — the chain's Markov tier is derived from
//!    the compiled columns a v3 load carries (label ids in table order,
//!    per-label totals, per-edge child counts), and must equal the model
//!    derived from the in-memory compile: same tag counts, same
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
//! 4. **One contract** — every estimator answers the request under its
//!    own options: the standalone chain's tier-1 answers equal the
//!    compiled synopsis's under the same request, bit for bit, the chain
//!    falls to Markov exactly when the compiled report is exhausted, and
//!    the CST and Markov baselines answer their own `estimate_twig`.

use std::sync::Arc;
use std::time::Duration;

use xtwig::core::construct::{xbuild, BuildOptions, TruthSource};
use xtwig::core::estimate::{EstimateOptions, EstimateReport, EstimateRequest, Estimator};
use xtwig::core::{
    coarse_synopsis, load_compiled_snapshot, save_synopsis_v3, BreakerConfig, CatalogOptions,
    CompiledSynopsis, SnapshotCatalog, StdVfs, Synopsis,
};
use xtwig::cst::{Cst, CstOptions};
use xtwig::datagen::{imdb, sprot, xmark, ImdbConfig, SprotConfig, XMarkConfig};
use xtwig::markov::{MarkovOptions, MarkovPaths};
use xtwig::workload::{
    generate_workload, markov_from_synopsis, CstEstimator, GuardedCatalog, GuardedEstimator,
    MarkovEstimator, Workload, WorkloadKind, WorkloadSpec,
};
use xtwig::xml::{Document, LabelId};

/// The documents of all three generators at test scale.
fn docs() -> Vec<(&'static str, Document)> {
    vec![
        (
            "xmark",
            xmark(XMarkConfig {
                scale: 0.01,
                seed: 5,
            }),
        ),
        ("imdb", imdb(ImdbConfig::scaled(0.01, 5))),
        ("sprot", sprot(SprotConfig::scaled(0.01, 5))),
    ]
}

/// The branching workload every case serves over `doc`.
fn branching(doc: &Document) -> Workload {
    generate_workload(
        doc,
        &WorkloadSpec {
            queries: 20,
            kind: WorkloadKind::Branching,
            seed: 5,
            ..Default::default()
        },
    )
}

/// Coarse and XBUILD synopses of all three generators, each with a
/// branching workload over its document.
fn cases() -> Vec<(String, Synopsis, Workload)> {
    let mut out = Vec::new();
    for (name, doc) in docs() {
        let w = branching(&doc);
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
        let in_memory = markov_from_synopsis(&CompiledSynopsis::compile(&s), budget);
        let labels = s.labels().len();
        assert_eq!(from_columns.root_tag(), in_memory.root_tag(), "{name}");
        assert_eq!(
            from_columns.transition_count(),
            in_memory.transition_count(),
            "{name}"
        );
        assert_eq!(from_columns.size_bytes(), in_memory.size_bytes(), "{name}");
        for a in 0..labels {
            let la = LabelId(a as u16);
            assert_eq!(
                from_columns.tag_count(la),
                in_memory.tag_count(la),
                "{name}"
            );
            for b in 0..labels {
                let lb = LabelId(b as u16);
                assert_eq!(
                    from_columns.transition(la, lb).to_bits(),
                    in_memory.transition(la, lb).to_bits(),
                    "{name}: transition {a}->{b}"
                );
            }
        }
        for q in &w.queries {
            assert_eq!(
                from_columns.estimate_twig(q).to_bits(),
                in_memory.estimate_twig(q).to_bits(),
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
        let in_memory = GuardedEstimator::new(CompiledSynopsis::compile(&s));
        assert_eq!(served.len(), w.queries.len());
        for (q, r) in w.queries.iter().zip(&served) {
            assert_eq!(r.provenance.tier, Some("markov"), "{name}: {q}");
            assert!(r.provenance.degraded, "{name}: {q}");
            let want = Estimator::estimate(&in_memory, &EstimateRequest::with_options(q, tight));
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
            let cold = GuardedEstimator::new(CompiledSynopsis::compile(&s));
            for (q, r) in w.queries.iter().zip(&served) {
                let want = Estimator::estimate(&cold, &EstimateRequest::with_options(q, limited));
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

/// The request options the contract test serves every workload under:
/// the defaults, an explain, an embedding cap and several work limits.
fn contract_options() -> Vec<EstimateOptions> {
    let mut options = vec![
        EstimateOptions::default(),
        EstimateOptions::builder().explain(true).build(),
        EstimateOptions::builder().max_embeddings(1).build(),
    ];
    for k in [1u64, 20, 60, 200, 1000] {
        options.push(EstimateOptions::builder().work_limit(k).build());
    }
    options
}

#[test]
fn every_estimator_keeps_one_contract() {
    for (name, s, w) in cases() {
        // Served in lockstep, the two memos see the same requests in the
        // same order, so even memo-dependent work counts must agree.
        let compiled = CompiledSynopsis::compile(&s);
        let chain = GuardedEstimator::new(CompiledSynopsis::compile(&s));
        let (mut full, mut fell_back) = (0, 0);
        for opts in contract_options() {
            for q in &w.queries {
                let req = EstimateRequest::with_options(q, opts);
                let want = compiled.estimate(&req);
                let got = chain.estimate(&req);
                let at = format!("{name} {opts:?}: {q}");
                if want.provenance.exhaustion.is_some() {
                    assert_eq!(got.provenance.tier, Some("markov"), "{at}");
                    let exhaustion = want.provenance.exhaustion;
                    assert_eq!(got.provenance.exhaustion, exhaustion, "{at}");
                    fell_back += 1;
                    continue;
                }
                assert_eq!(got.provenance.tier, Some("xsketch"), "{at}");
                assert_eq!(got.estimate.to_bits(), want.estimate.to_bits(), "{at}");
                let embeddings = want.provenance.embeddings;
                assert_eq!(got.provenance.embeddings, embeddings, "{at}");
                assert_eq!(got.provenance.work, want.provenance.work, "{at}");
                assert_eq!(got.provenance.exhaustion, None, "{at}");
                let contributions = |r: &EstimateReport| {
                    r.explain.as_ref().map(|e| {
                        (e.embeddings.iter())
                            .map(|c| c.contribution.to_bits())
                            .collect::<Vec<_>>()
                    })
                };
                assert_eq!(contributions(&got), contributions(&want), "{at}");
                full += 1;
            }
        }
        assert!(
            full > 0 && fell_back > 0,
            "{name}: {full} full, {fell_back} fell back"
        );
    }
    for (name, doc) in docs() {
        let cst = Cst::build(&doc, CstOptions::default());
        let model = MarkovPaths::build(&doc, MarkovOptions::default());
        let baselines: [(&dyn Estimator, &str); 2] = [
            (&CstEstimator { cst: &cst }, "cst"),
            (&MarkovEstimator { model: &model }, "markov"),
        ];
        for q in &branching(&doc).queries {
            let own = [xtwig::cst::estimate_twig(&cst, q), model.estimate_twig(q)];
            for ((tech, source), want) in baselines.iter().zip(own) {
                for opts in contract_options() {
                    let rep = tech.estimate(&EstimateRequest::with_options(q, opts));
                    assert_eq!(
                        rep.estimate.to_bits(),
                        want.to_bits(),
                        "{name} {source}: {q}"
                    );
                    assert_eq!(rep.provenance.source, *source);
                    assert!(rep.explain.is_none());
                }
            }
        }
    }
}
