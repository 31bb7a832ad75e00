//! Properties of the compiled serving path:
//!
//! 1. **Bit-identity** — for any synopsis XBUILD produces on any of the
//!    three paper generators, and any workload query, the compiled
//!    estimate equals the interpreted test oracle's (`support::oracle`)
//!    *to the bit* (they are one computation in two representations, so
//!    even float rounding must agree).
//! 2. **Epoch invalidation** — refining a synopsis and recompiling bumps
//!    the epoch, so an estimate cache never serves entries computed
//!    under the stale generation.
//! 3. **Observability is free** — requesting an `Explain` report, and
//!    compiling with or without the `trace` feature, never changes a
//!    single bit of any estimate (the whole suite runs under
//!    `--features trace` in CI to prove the latter).
//! 4. **The loaded form is the same computation** — a synopsis served
//!    from its v3 snapshot (`load_compiled_snapshot`), whose expansion
//!    reads the snapshot's columns instead of a synopsis graph, matches
//!    the oracle to the bit, including under a tight work limit, where
//!    both must charge the meter at the same points.

mod support;

use proptest::prelude::*;
use support::oracle;
use xtwig::core::construct::{xbuild, BuildOptions, TruthSource};
use xtwig::core::estimate::EstimateOptions;
use xtwig::core::synopsis::{DimKind, ScopeDim, SynId};
use xtwig::core::{
    coarse_synopsis, load_compiled_snapshot, save_synopsis_v3, BatchServer, CompiledSynopsis,
    EstimateCache, EstimateReport,
};
use xtwig::datagen::{imdb, sprot, xmark, ImdbConfig, SprotConfig, XMarkConfig};
use xtwig::query::{parse_twig, TwigQuery};
use xtwig::workload::{generate_workload, WorkloadKind, WorkloadSpec};
use xtwig::xml::DocumentBuilder;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(9))]

    #[test]
    fn compiled_estimates_are_bit_identical(
        which in 0usize..3,
        seed in 0u64..10_000,
        extra_budget in 300usize..1500,
    ) {
        let doc = match which {
            0 => xmark(XMarkConfig { scale: 0.01, seed }),
            1 => imdb(ImdbConfig::scaled(0.01, seed)),
            _ => sprot(SprotConfig::scaled(0.01, seed)),
        };
        let coarse = coarse_synopsis(&doc);
        let opts = BuildOptions {
            budget_bytes: coarse.size_bytes() + extra_budget,
            refinements_per_round: 3,
            max_rounds: 25,
            workload_with_values: seed % 2 == 0,
            seed,
            ..Default::default()
        };
        let (s, _) = xbuild(&doc, TruthSource::Exact, &opts);
        let spec = WorkloadSpec {
            queries: 24,
            kind: if seed % 2 == 0 {
                WorkloadKind::BranchingValues
            } else {
                WorkloadKind::Branching
            },
            seed,
            ..Default::default()
        };
        let w = generate_workload(&doc, &spec);
        let eopts = EstimateOptions::default();
        let cs = CompiledSynopsis::compile(&s);
        let loaded = load_compiled_snapshot(&save_synopsis_v3(&s)).expect("v3 loads");
        for q in &w.queries {
            let interp = oracle::estimate(&s, q, &eopts);
            for (form, compiled) in [
                ("compiled", cs.estimate_report(q, &eopts)),
                ("loaded", loaded.estimate_report(q, &eopts)),
            ] {
                prop_assert!(
                    same_answer(&interp, &compiled),
                    "{} {}: oracle {:?} vs {:?}",
                    form,
                    q,
                    interp.estimate,
                    compiled.estimate
                );
            }
        }
        // The batched path with a cache must serve the same numbers —
        // cold (computing + inserting) and warm (cache hits).
        let cache = EstimateCache::new(256);
        let cold = BatchServer::new(&cs)
        .with_cache(&cache)
        .with_options(eopts)
        .with_threads(4)
        .serve(&w.queries);
        let warm = BatchServer::new(&cs)
        .with_cache(&cache)
        .with_options(eopts)
        .with_threads(4)
        .serve(&w.queries);
        for ((q, a), b) in w.queries.iter().zip(&cold).zip(&warm) {
            let interp = oracle::estimate(&s, q, &eopts);
            prop_assert_eq!(interp.estimate.to_bits(), a.estimate.to_bits());
            prop_assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
        }
        if !w.queries.is_empty() {
            prop_assert!(cache.stats().hits >= w.queries.len() as u64);
        }
        // Explain on or off, every bit of the estimate and the
        // provenance facts agree with the oracle.
        let plain = eopts;
        let with_explain = eopts.to_builder().explain(true).build();
        for q in &w.queries {
            let interp = oracle::estimate(&s, q, &eopts);
            let rep = cs.estimate_report(q, &plain);
            let rep_explain = cs.estimate_report(q, &with_explain);
            prop_assert_eq!(rep.estimate.to_bits(), interp.estimate.to_bits());
            prop_assert_eq!(rep_explain.estimate.to_bits(), interp.estimate.to_bits());
            prop_assert_eq!(rep.provenance.exhaustion, interp.provenance.exhaustion);
            prop_assert_eq!(rep.provenance.clamped, interp.provenance.clamped);
            prop_assert!(rep.explain.is_none());
            let e = rep_explain.explain.as_ref();
            prop_assert!(e.is_some());
            prop_assert_eq!(
                e.map_or(0, |e| e.embeddings.len()),
                rep_explain.provenance.embeddings
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    /// Batch plan reuse and degraded (budget-exhausted) serving are
    /// still the oracle's computation, bit for bit, on all three
    /// paper generators. Duplicating every query in a batch forces the
    /// later members of each fingerprint group through the reuse path;
    /// a tight work limit forces the guarded path to trip its meter at
    /// the same point in both representations.
    #[test]
    fn reused_plans_and_degraded_results_are_bit_identical(
        which in 0usize..3,
        seed in 0u64..10_000,
        work_limit in 8u64..600,
    ) {
        let doc = match which {
            0 => xmark(XMarkConfig { scale: 0.01, seed }),
            1 => imdb(ImdbConfig::scaled(0.01, seed)),
            _ => sprot(SprotConfig::scaled(0.01, seed)),
        };
        let coarse = coarse_synopsis(&doc);
        let opts = BuildOptions {
            budget_bytes: coarse.size_bytes() + 700,
            refinements_per_round: 3,
            max_rounds: 15,
            seed,
            ..Default::default()
        };
        let (s, _) = xbuild(&doc, TruthSource::Exact, &opts);
        let w = generate_workload(&doc, &WorkloadSpec {
            queries: 10,
            kind: WorkloadKind::Branching,
            seed,
            ..Default::default()
        });
        let cs = CompiledSynopsis::compile(&s);
        let loaded = load_compiled_snapshot(&save_synopsis_v3(&s)).expect("v3 loads");
        let eopts = EstimateOptions::default();

        // Duplicate every query: within one batch the duplicates land in
        // the same fingerprint group and receive the leader's report
        // instead of re-lowering and re-evaluating the plan.
        let mut batch: Vec<TwigQuery> = Vec::new();
        for q in &w.queries {
            batch.push(q.clone());
            batch.push(q.clone());
        }
        let reuses_before = xtwig::core::telemetry::global().batch_plan_reuses.get();
        let got = BatchServer::new(&cs)
        .with_options(eopts)
        .with_threads(4)
        .serve(&batch);
        prop_assert_eq!(got.len(), batch.len());
        for (q, r) in batch.iter().zip(&got) {
            let interp = oracle::estimate(&s, q, &eopts);
            prop_assert_eq!(
                interp.estimate.to_bits(),
                r.estimate.to_bits(),
                "plan-reuse batch diverged on {}: interpreted {} vs served {}",
                q,
                interp.estimate,
                r.estimate
            );
            prop_assert_eq!(interp.provenance.exhaustion, r.provenance.exhaustion);
        }
        // Each duplicated query must have reused its group leader's
        // plan. (`>=`: other suites in this binary may bump the global
        // counter concurrently, but only upward.)
        let reuses_after = xtwig::core::telemetry::global().batch_plan_reuses.get();
        prop_assert!(
            reuses_after >= reuses_before + w.queries.len() as u64,
            "expected at least {} plan reuses, counter moved {} -> {}",
            w.queries.len(),
            reuses_before,
            reuses_after
        );

        // Degraded serving: a tight work limit makes both
        // representations trip the meter at the same operation, so even
        // partial (exhausted) estimates agree to the bit.
        let tight = eopts.to_builder().work_limit(work_limit).build();
        let degraded = BatchServer::new(&cs)
        .with_options(tight)
        .with_threads(4)
        .serve(&w.queries);
        for (q, r) in w.queries.iter().zip(&degraded) {
            let interp = oracle::estimate(&s, q, &tight);
            prop_assert_eq!(
                interp.estimate.to_bits(),
                r.estimate.to_bits(),
                "degraded path diverged on {} (work_limit {})",
                q,
                work_limit
            );
            prop_assert_eq!(interp.provenance.exhaustion, r.provenance.exhaustion);
            // The column-backed expansion of the loaded form trips the
            // meter where the graph-backed oracle does.
            let l = loaded.estimate_report(q, &tight);
            prop_assert!(
                same_answer(&interp, &l),
                "loaded degraded path diverged on {} (work_limit {}): {:?} vs {:?}",
                q,
                work_limit,
                interp.estimate,
                l.estimate
            );
        }
    }
}

/// The loaded form against the oracle on fixed inputs: coarse and
/// XBUILD (value-dimension) synopses of all three generators, a P+V
/// workload (branch predicates over edges where `parent_count` and
/// `child_count` differ, value ranges that cut value-summary buckets),
/// with explain on and under a tight work limit.
#[test]
fn loaded_form_matches_oracle_on_every_generator() {
    for (name, doc) in [
        (
            "xmark",
            xmark(XMarkConfig {
                scale: 0.01,
                seed: 3,
            }),
        ),
        ("imdb", imdb(ImdbConfig::scaled(0.01, 3))),
        ("sprot", sprot(SprotConfig::scaled(0.01, 3))),
    ] {
        let coarse = coarse_synopsis(&doc);
        let opts = BuildOptions {
            budget_bytes: coarse.size_bytes() + 1200,
            refinements_per_round: 3,
            max_rounds: 20,
            workload_with_values: true,
            seed: 3,
            ..Default::default()
        };
        let (built, _) = xbuild(&doc, TruthSource::Exact, &opts);
        let w = generate_workload(
            &doc,
            &WorkloadSpec {
                queries: 40,
                kind: WorkloadKind::BranchingValues,
                seed: 11,
                ..Default::default()
            },
        );
        let plain = EstimateOptions::default();
        for (kind, s) in [("coarse", &coarse), ("xbuild", &built)] {
            let image = save_synopsis_v3(s);
            for q in &w.queries {
                for eopts in [
                    plain,
                    plain.to_builder().explain(true).build(),
                    plain.to_builder().work_limit(64).build(),
                ] {
                    // A fresh load per answer: a warm expansion memo
                    // would skip the metered expansion the oracle runs.
                    let loaded = load_compiled_snapshot(&image).expect("v3 loads");
                    let interp = oracle::estimate(s, q, &eopts);
                    let got = loaded.estimate_report(q, &eopts);
                    assert!(
                        same_answer(&interp, &got),
                        "{name}/{kind} {q}: oracle {} vs loaded {}",
                        interp.estimate,
                        got.estimate
                    );
                }
            }
        }
    }
}

/// Estimate bits, exhaustion, clamped count and embedding count agree.
fn same_answer(a: &EstimateReport, b: &EstimateReport) -> bool {
    a.estimate.to_bits() == b.estimate.to_bits()
        && a.provenance.exhaustion == b.provenance.exhaustion
        && a.provenance.clamped == b.provenance.clamped
        && a.provenance.embeddings == b.provenance.embeddings
}

/// A warm expansion memo charges the work it skips: a batch served
/// without a limit warms the memo, and the same queries served again
/// under a tight work limit give the bits a fresh compile (and the
/// oracle) gives under that limit — the meter trips where a cold run
/// trips, so memo state never decides a budgeted answer.
#[test]
fn warm_memo_under_a_work_limit_matches_a_fresh_compile() {
    for (name, doc) in [
        (
            "xmark",
            xmark(XMarkConfig {
                scale: 0.01,
                seed: 11,
            }),
        ),
        ("imdb", imdb(ImdbConfig::scaled(0.01, 11))),
        ("sprot", sprot(SprotConfig::scaled(0.01, 11))),
    ] {
        let coarse = coarse_synopsis(&doc);
        let opts = BuildOptions {
            budget_bytes: coarse.size_bytes() + 700,
            refinements_per_round: 3,
            max_rounds: 15,
            seed: 11,
            ..Default::default()
        };
        let (s, _) = xbuild(&doc, TruthSource::Exact, &opts);
        let w = generate_workload(
            &doc,
            &WorkloadSpec {
                queries: 20,
                kind: WorkloadKind::Branching,
                seed: 11,
                ..Default::default()
            },
        );
        let warm = CompiledSynopsis::compile(&s);
        BatchServer::new(&warm).serve(&w.queries);
        let (hits_before, _) = warm.expansion_memo_stats();
        for limit in [8u64, 40, 83, 200, 600] {
            let tight = EstimateOptions::builder().work_limit(limit).build();
            let got = BatchServer::new(&warm)
                .with_options(tight)
                .serve(&w.queries);
            let fresh = CompiledSynopsis::compile(&s);
            let want = BatchServer::new(&fresh)
                .with_options(tight)
                .serve(&w.queries);
            for ((q, g), f) in w.queries.iter().zip(&got).zip(&want) {
                assert!(
                    same_answer(g, f),
                    "{name}: warm memo diverged on {q} (work limit {limit}): {:?} vs {:?}",
                    g.estimate,
                    f.estimate
                );
                let oracle = oracle::estimate(&s, q, &tight);
                assert_eq!(
                    g.estimate.to_bits(),
                    oracle.estimate.to_bits(),
                    "{name}: {q}"
                );
            }
        }
        let (hits_after, _) = warm.expansion_memo_stats();
        assert!(
            hits_after > hits_before,
            "{name}: the warm memo answered nothing"
        );
    }
}

/// Refine → recompile → epoch bump → stale entries never served.
#[test]
fn refinement_bumps_epoch_and_invalidates_cache() {
    let doc = xmark(XMarkConfig {
        scale: 0.01,
        seed: 7,
    });
    let mut s = coarse_synopsis(&doc);
    let eopts = EstimateOptions::default();
    let w = generate_workload(
        &doc,
        &WorkloadSpec {
            queries: 8,
            kind: WorkloadKind::Branching,
            seed: 7,
            ..Default::default()
        },
    );
    assert!(!w.queries.is_empty());

    let cache = EstimateCache::new(256);
    let old_epoch;
    let old_results;
    {
        let cs = CompiledSynopsis::compile(&s);
        old_epoch = cs.epoch();
        old_results = BatchServer::new(&cs)
            .with_cache(&cache)
            .with_options(eopts)
            .with_threads(2)
            .serve(&w.queries);
        // Entries are resident and served at this epoch.
        let again = BatchServer::new(&cs)
            .with_cache(&cache)
            .with_options(eopts)
            .with_threads(2)
            .serve(&w.queries);
        for (a, b) in old_results.iter().zip(&again) {
            assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
        }
        assert!(cache.stats().hits >= w.queries.len() as u64);
    }

    // Refine the synopsis: widen the root's histogram scope (the same
    // kind of mutation an XBUILD round applies).
    let root = s.root();
    let scope: Vec<ScopeDim> = s
        .children_of(root)
        .iter()
        .take(2)
        .map(|&c| ScopeDim {
            parent: root,
            child: c,
            kind: DimKind::Forward,
        })
        .collect();
    assert!(!scope.is_empty(), "root must have children");
    s.set_edge_hist(&doc, root, scope, 4096);

    let cs = CompiledSynopsis::compile(&s);
    assert!(
        cs.epoch() > old_epoch,
        "recompilation must advance the epoch"
    );

    // Every lookup at the new epoch misses (stale entries evicted, never
    // served), and the batch repopulates the cache at the new epoch.
    let hits_before = cache.stats().hits;
    let fresh = BatchServer::new(&cs)
        .with_cache(&cache)
        .with_options(eopts)
        .with_threads(2)
        .serve(&w.queries);
    let stats = cache.stats();
    assert_eq!(
        stats.hits, hits_before,
        "no stale entry may be served across the epoch bump"
    );
    assert!(stats.stale_evictions >= w.queries.len() as u64);
    // The fresh results are the oracle's for the refined synopsis, not
    // the cached numbers of the old generation.
    for (q, b) in w.queries.iter().zip(&fresh) {
        let interp = oracle::estimate(&s, q, &eopts);
        assert_eq!(interp.estimate.to_bits(), b.estimate.to_bits());
    }
}

fn fwd(parent: SynId, child: SynId) -> ScopeDim {
    ScopeDim {
        parent,
        child,
        kind: DimKind::Forward,
    }
}

/// The §4 worked-example document with conditioning histograms: the
/// compiled and oracle evaluators agree to the bit on every query shape
/// the example exercises (backward conditioning, a branching predicate,
/// a value predicate, a bare tag).
#[test]
fn compiled_matches_oracle_on_worked_example() {
    let d = xtwig::datagen::worked_example();
    let mut s = coarse_synopsis(&d);
    let tag = |t: &str| s.nodes_with_tag(t)[0];
    let (author, paper, name) = (tag("author"), tag("paper"), tag("name"));
    let (keyword, year) = (tag("keyword"), tag("year"));
    s.set_edge_hist(
        &d,
        author,
        vec![fwd(author, paper), fwd(author, name)],
        4096,
    );
    s.set_edge_hist(
        &d,
        paper,
        vec![
            fwd(paper, keyword),
            fwd(paper, year),
            ScopeDim {
                parent: author,
                child: paper,
                kind: DimKind::Backward,
            },
        ],
        4096,
    );
    let cs = CompiledSynopsis::compile(&s);
    let opts = EstimateOptions::default();
    for text in [
        "for $t0 in //author, $t1 in $t0/name, $t2 in $t0/paper, $t3 in $t2/keyword, $t4 in $t2/year",
        "for $t0 in //author[book], $t1 in $t0/paper",
        "for $t0 in //paper, $t1 in $t0/keyword",
        "for $t0 in //keyword",
        "for $t0 in //author, $t1 in $t0/paper, $t2 in $t1/year[. >= 2001]",
    ] {
        let q = parse_twig(text).unwrap();
        let interp = oracle::estimate(&s, &q, &opts).estimate;
        let compiled = cs.estimate_report(&q, &opts).estimate;
        assert_eq!(
            interp.to_bits(),
            compiled.to_bits(),
            "{text}: interpreted {interp} vs compiled {compiled}"
        );
    }
}

/// The §1 movie scenario routed through a joint value × count dimension.
#[test]
fn compiled_matches_oracle_on_joint_value_summary() {
    let mut b = DocumentBuilder::new();
    b.open("ms", None);
    for i in 0..40 {
        b.open("movie", None);
        let t = if i % 2 == 0 { 1 } else { 2 };
        b.leaf("type", Some(t));
        for _ in 0..(if t == 1 { 8 } else { 1 }) {
            b.leaf("actor", None);
        }
        b.close();
    }
    b.close();
    let d = b.finish();
    let mut s = coarse_synopsis(&d);
    let movie = s.nodes_with_tag("movie")[0];
    let typ = s.nodes_with_tag("type")[0];
    let actor = s.nodes_with_tag("actor")[0];
    let mut scope = s.edge_hist(movie).scope.clone();
    if s.edge_hist(movie)
        .dim_of(movie, actor, DimKind::Forward)
        .is_none()
    {
        scope.push(fwd(movie, actor));
    }
    scope.push(ScopeDim {
        parent: movie,
        child: typ,
        kind: DimKind::Value,
    });
    s.set_edge_hist(&d, movie, scope, 2048);
    let cs = CompiledSynopsis::compile(&s);
    let opts = EstimateOptions::default();
    let q = parse_twig("for $t0 in //movie[type = 1], $t1 in $t0/actor").unwrap();
    let interp = oracle::estimate(&s, &q, &opts).estimate;
    let compiled = cs.estimate_report(&q, &opts).estimate;
    assert_eq!(interp.to_bits(), compiled.to_bits());
    assert!((compiled - 160.0).abs() < 1.0, "{compiled}");
}
