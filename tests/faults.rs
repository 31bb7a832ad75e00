//! Integration: snapshot corruption and the guarded estimation chain.
//! Every truncation and every bit flip of a v3 snapshot is rejected with
//! a typed error; across all three data generators, the storage soak plan
//! serves each document's own workload through the catalog with zero
//! escaped panics, every full answer bit-identical and every other one
//! typed; a 1 ms deadline on a pathologically deep twig degrades to a
//! lower tier within budget; and an injected tier panic never escapes
//! the chain.

use proptest::prelude::*;
use std::time::{Duration, Instant};
use xtwig::core::{
    coarse_synopsis, load_synopsis, save_synopsis_v3, BatchServer, CompiledSynopsis,
    EstimateOptions, EstimateRequest, Estimator,
};
use xtwig::datagen::{imdb, sprot, xmark, ImdbConfig, SprotConfig, XMarkConfig};
use xtwig::query::{parse_twig, TwigQuery};
use xtwig::workload::{
    generate_workload, run_catalog_soak, CatalogSoakOptions, GuardPolicy, GuardedEstimator,
    InjectedFault, SoakFault, SoakPlan, Tier, WorkloadKind, WorkloadSpec,
};
use xtwig::xml::Document;

fn small_doc() -> Document {
    xtwig::xml::parse(concat!(
        "<bib>",
        "<author><name/><paper><kw/><kw/></paper><paper><kw/></paper></author>",
        "<author><name/><paper><kw/></paper><book/></author>",
        "</bib>"
    ))
    .unwrap()
}

fn queries() -> Vec<TwigQuery> {
    [
        "for $t0 in //author, $t1 in $t0/paper",
        "for $t0 in //author[book], $t1 in $t0/name",
        "for $t0 in //paper, $t1 in $t0/kw",
        "for $t0 in //kw",
    ]
    .iter()
    .map(|t| parse_twig(t).unwrap())
    .collect()
}

/// Silences panic backtraces for tests that deliberately inject panics.
fn quietly<T>(f: impl FnOnce() -> T) -> T {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(prev);
    out
}

// ---------------------------------------------------------------------
// Corruption corpus: every truncation point and every bit position.
// ---------------------------------------------------------------------

#[test]
fn corruption_corpus_truncate_every_position() {
    let bytes = save_synopsis_v3(&coarse_synopsis(&small_doc()));
    for cut in 0..bytes.len() {
        assert!(
            load_synopsis(&bytes[..cut]).is_err(),
            "truncation to {cut} bytes went undetected"
        );
    }
}

#[test]
fn corruption_corpus_flip_every_bit() {
    let bytes = save_synopsis_v3(&coarse_synopsis(&small_doc()));
    for byte in 0..bytes.len() {
        for bit in 0..8u8 {
            let mut corrupted = bytes.clone();
            corrupted[byte] ^= 1 << bit;
            assert!(
                load_synopsis(&corrupted).is_err(),
                "bit {bit} of byte {byte} went undetected"
            );
        }
    }
}

// ---------------------------------------------------------------------
// The storage soak plan on all three generators.
// ---------------------------------------------------------------------

#[test]
fn storage_plan_runs_clean_on_all_generators() {
    let docs: Vec<(&str, Document)> = vec![
        (
            "xmark",
            xmark(XMarkConfig {
                scale: 0.01,
                seed: 11,
            }),
        ),
        ("imdb", imdb(ImdbConfig::scaled(0.01, 12))),
        ("sprot", sprot(SprotConfig::scaled(0.01, 13))),
    ];
    for (name, doc) in &docs {
        // The document's own workload, so the soak's bit-identity checks
        // compare real numbers: at least one reference estimate is
        // nonzero.
        let queries = generate_workload(
            doc,
            &WorkloadSpec {
                queries: 8,
                kind: WorkloadKind::Branching,
                seed: 5,
                ..Default::default()
            },
        )
        .queries;
        let synopsis = coarse_synopsis(doc);
        let compiled = CompiledSynopsis::compile(&synopsis);
        let reference = BatchServer::new(&compiled).serve(&queries);
        assert!(
            reference.iter().any(|r| r.estimate > 0.0),
            "{name}: every reference estimate is 0"
        );

        // Every damage kind without and with the rebuild hook, the
        // unreadable file, and one rotation of the five device emphases
        // with and without the hook; the full fifty device phases run in
        // `tests/soak.rs`.
        let mut plan = SoakPlan::storage(0xFA17);
        let fixed = plan
            .phases
            .iter()
            .take_while(|p| !matches!(p.fault, Some(SoakFault::Device { .. })))
            .count();
        plan.phases.truncate(fixed + 10);
        let dir = std::env::temp_dir().join(format!("xtwig-faults-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let report = quietly(|| {
            run_catalog_soak(doc, &queries, &dir, &plan, &CatalogSoakOptions::default())
        });
        let _ = std::fs::remove_dir_all(&dir);
        assert!(report.passed(), "{name}: {report}");
        assert_eq!(report.escaped_panics, 0, "{name}: {report}");
        assert_eq!(report.bad_estimates, 0, "{name}: {report}");
        // The damage phases check their own quarantine or rebuild: they
        // shed without the hook and answered in full with it.
        assert!(report.full > 0 && report.shed > 0, "{name}: {report}");
        assert_eq!(report.degraded, 0, "{name}: {report}");
    }
}

// ---------------------------------------------------------------------
// Deadline demo: 1 ms on a deep twig degrades within budget.
// ---------------------------------------------------------------------

#[test]
fn one_ms_deadline_on_deep_twig_degrades_within_budget() {
    // A 160-deep single-tag chain with sibling fanout makes the
    // `//a//a//a` expansion combinatorial: the synopsis has one recursive
    // `a` node, so chain enumeration explodes with depth.
    let mut b = xtwig::xml::DocumentBuilder::new();
    b.open("a", None);
    for _ in 0..160 {
        b.open("a", None);
        b.leaf("a", None);
    }
    for _ in 0..161 {
        b.close();
    }
    let doc = b.finish();
    let s = coarse_synopsis(&doc);
    let q = parse_twig("for $t0 in //a, $t1 in $t0//a, $t2 in $t1//a").unwrap();

    let policy = GuardPolicy {
        time_budget: Some(Duration::from_millis(1)),
        estimate: xtwig::core::EstimateOptions::builder()
            .max_embeddings(usize::MAX)
            .build(),
        ..Default::default()
    };
    let g = GuardedEstimator::new(&s, policy);
    let start = Instant::now();
    let out = g.estimate(&EstimateRequest::new(&q));
    let elapsed = start.elapsed();

    assert!(
        out.provenance.degraded,
        "deep twig should exceed a 1 ms deadline"
    );
    assert_ne!(
        out.provenance.tier,
        Some(Tier::Xsketch.name()),
        "a lower tier must serve"
    );
    assert!(out.estimate.is_finite() && out.estimate >= 0.0);
    assert!(
        elapsed < Duration::from_millis(500),
        "took {elapsed:?} under a 1 ms budget"
    );
    let c = g.counters();
    assert_eq!(c.deadline_trips, 1);
    assert_eq!(c.degraded, 1);
}

#[test]
fn unbudgeted_deep_twig_still_terminates_exactly() {
    // Same query, no budget: the embedding cap alone bounds the work and
    // tier 1 answers at full fidelity — guarding must not change that.
    let mut b = xtwig::xml::DocumentBuilder::new();
    b.open("a", None);
    for _ in 0..40 {
        b.open("a", None);
    }
    for _ in 0..41 {
        b.close();
    }
    let doc = b.finish();
    let s = coarse_synopsis(&doc);
    let q = parse_twig("for $t0 in //a, $t1 in $t0//a").unwrap();
    let g = GuardedEstimator::new(&s, GuardPolicy::default());
    let out = g.estimate(&EstimateRequest::new(&q));
    assert_eq!(out.provenance.tier, Some(Tier::Xsketch.name()));
    assert!(!out.provenance.degraded);
    assert!(out.estimate.is_finite() && out.estimate >= 0.0);
}

// ---------------------------------------------------------------------
// Panic isolation across the whole chain.
// ---------------------------------------------------------------------

#[test]
fn injected_panics_never_escape_the_chain() {
    let doc = small_doc();
    let s = coarse_synopsis(&doc);
    let qs = queries();
    // Pair each injected panic with a policy that actually reaches the
    // poisoned tier: tier 1 is always reached; tier 2 only after tier 1
    // exhausts (work_limit 1); tier 3 is unreachable with a single fault,
    // so its injection must be a no-op when tier 1 answers.
    let cases = [
        (Tier::Xsketch, GuardPolicy::default(), true),
        (
            Tier::Markov,
            GuardPolicy {
                work_limit: 1,
                ..Default::default()
            },
            true,
        ),
        (Tier::LabelCount, GuardPolicy::default(), false),
    ];
    quietly(|| {
        for (tier, policy, expect_panics) in cases {
            let g = GuardedEstimator::new(&s, policy).with_fault(InjectedFault::PanicIn(tier));
            for q in &qs {
                let out = g.estimate(&EstimateRequest::new(q));
                assert!(
                    out.estimate.is_finite() && out.estimate >= 0.0,
                    "panic in {tier} leaked a bad estimate"
                );
            }
            let panics = g.counters().panics as usize;
            if expect_panics {
                assert_eq!(panics, qs.len(), "panic in {tier} was not contained");
            } else {
                assert_eq!(panics, 0, "tier {tier} should not have been reached");
            }
        }
    });
}

// ---------------------------------------------------------------------
// Property: under any injected fault, estimates stay finite and ≥ 0.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn guarded_estimates_always_finite_under_faults(
        fault_kind in 0usize..7,
        tier_pick in 0usize..3,
        micros in 50u64..3000,
        qpick in 0usize..4,
    ) {
        let doc = small_doc();
        let s = coarse_synopsis(&doc);
        let tier = [Tier::Xsketch, Tier::Markov, Tier::LabelCount][tier_pick];
        let (policy, fault) = match fault_kind {
            0 => (GuardPolicy::default(), Some(InjectedFault::PanicIn(tier))),
            1 => (GuardPolicy::default(), Some(InjectedFault::PoisonIn(tier))),
            2 => (
                GuardPolicy {
                    time_budget: Some(Duration::from_micros(micros)),
                    ..Default::default()
                },
                Some(InjectedFault::StallXsketch),
            ),
            3 => (
                GuardPolicy {
                    time_budget: Some(Duration::from_micros(micros)),
                    ..Default::default()
                },
                None,
            ),
            4 => (
                GuardPolicy {
                    work_limit: micros, // reuse as a small work budget
                    ..Default::default()
                },
                None,
            ),
            5 => (
                GuardPolicy {
                    estimate: xtwig::core::EstimateOptions::builder().max_embeddings(1).build(),
                    ..Default::default()
                },
                None,
            ),
            _ => (GuardPolicy::default(), None),
        };
        let mut g = GuardedEstimator::new(&s, policy);
        if let Some(fault) = fault {
            g = g.with_fault(fault);
        }
        let q = &queries()[qpick];
        let req = EstimateRequest::with_options(
            q,
            EstimateOptions::builder().explain(true).build(),
        );
        let out = quietly(|| g.estimate(&req));
        prop_assert!(
            out.estimate.is_finite() && out.estimate >= 0.0,
            "fault {fault_kind} produced {}",
            out.estimate
        );
        // The tier trail replaces the legacy outcome's attempt list.
        prop_assert!(out.explain.as_ref().is_some_and(|e| !e.tier_path.is_empty()));
    }
}
