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
//! 3. **Observability is free** — requesting an `Explain` report never
//!    changes a single bit of any estimate.
//! 4. **The loaded form is the same computation** — a synopsis served
//!    from its v3 snapshot (`load_compiled_snapshot`), whose expansion
//!    reads the snapshot's columns instead of a synopsis graph, matches
//!    the oracle to the bit, including under a tight work limit, where
//!    both must charge the meter at the same points.
//! 5. **The flat plan is the reference enumeration** — the plan a memo
//!    miss builds, read back through its materializing accessor, equals
//!    the oracle's recursive-clone enumeration node for node, and under
//!    every work limit both charge the same work and trip at the same
//!    point.

mod support;

use proptest::prelude::*;
use support::oracle;
use xtwig::core::construct::{xbuild, BuildOptions, TruthSource};
use xtwig::core::estimate::{Embedding, EstimateOptions, ExpandedQuery, Meter};
use xtwig::core::synopsis::{DimKind, ScopeDim, SynId, Synopsis};
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
        let mut warm_hits = 0;
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
                warm_hits += usize::from(g.provenance.memo_hit == Some(true));
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
        assert!(warm_hits > 0, "{name}: the warm memo answered nothing");
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

/// Checks that `plan`, read back through [`ExpandedQuery::embedding`] and
/// its materializing accessor, equals the reference embeddings node for
/// node: synopsis node, parent, children order, value range,
/// branch-fraction bits, branch values and the `needs` set.
fn assert_same_plan(s: &Synopsis, what: &str, plan: &ExpandedQuery, reference: &[Embedding]) {
    assert_eq!(plan.len(), reference.len(), "{what}: embedding count");
    for (e, want) in reference.iter().enumerate() {
        let view = plan.embedding(e).expect("embedding in range");
        let got = view.to_embedding().expect("a rooted embedding");
        assert_eq!(
            got.root_count.to_bits(),
            want.root_count.to_bits(),
            "{what} #{e}"
        );
        assert_eq!(got.nodes.len(), want.nodes.len(), "{what} #{e}: node count");
        let needs = oracle::compute_needs(s, want);
        for (i, (g, w)) in got.nodes.iter().zip(&want.nodes).enumerate() {
            let at = format!("{what} #{e} node {i}");
            assert_eq!(g.syn, w.syn, "{at}: syn");
            assert_eq!(g.parent, w.parent, "{at}: parent");
            assert_eq!(g.children, w.children, "{at}: children");
            assert_eq!(g.value_range, w.value_range, "{at}: value range");
            assert_eq!(
                g.branch_fraction.to_bits(),
                w.branch_fraction.to_bits(),
                "{at}: branch fraction"
            );
            let values = |n: &xtwig::core::estimate::EmbNode| -> Vec<(SynId, (i64, i64), u64)> {
                n.branch_values
                    .iter()
                    .map(|b| (b.child, b.range, b.fallback.to_bits()))
                    .collect()
            };
            assert_eq!(values(g), values(w), "{at}: branch values");
            assert_eq!(view.needs(i), needs[i].as_slice(), "{at}: needs");
        }
    }
}

/// A parlist-style recursive document: items whose descriptions nest
/// `parlist/listitem` up to six levels, so the coarse synopsis has a
/// `parlist → listitem → parlist` cycle that `//` steps go around.
fn recursive_doc() -> xtwig::xml::Document {
    fn nest(b: &mut DocumentBuilder, depth: usize, salt: usize) {
        b.open("parlist", None);
        for k in 0..1 + (depth + salt) % 2 {
            b.open("listitem", None);
            b.leaf("text", Some(((depth * 7 + k + salt) % 10) as i64));
            if depth > 1 && (k + salt) % 3 != 2 {
                nest(b, depth - 1, salt + k);
            }
            b.close();
        }
        b.close();
    }
    let mut b = DocumentBuilder::new();
    b.open("site", None);
    for i in 0..6 {
        b.open("item", None);
        b.leaf("name", Some(i));
        b.open("description", None);
        nest(&mut b, 1 + i as usize, i as usize);
        b.close();
        b.close();
    }
    b.close();
    b.finish()
}

/// The flat plan a cold memo miss builds equals the oracle's
/// recursive-clone enumeration node for node, on the three generators'
/// coarse and XBUILD synopses with P and P+V twigs and on a recursive
/// synopsis with `//` twigs — under the embedding and `//` length caps,
/// and under every work limit from 1 up to the reference's full
/// expansion work, where both enumerators charge the same work, trip at
/// the same point and return the same embeddings.
#[test]
fn flat_plans_equal_the_reference_enumeration() {
    let mut inputs: Vec<(String, Synopsis, Vec<TwigQuery>)> = Vec::new();
    for (name, doc) in [
        (
            "xmark",
            xmark(XMarkConfig {
                scale: 0.01,
                seed: 5,
            }),
        ),
        ("imdb", imdb(ImdbConfig::scaled(0.01, 5))),
        ("sprot", sprot(SprotConfig::scaled(0.01, 5))),
    ] {
        let coarse = coarse_synopsis(&doc);
        let opts = BuildOptions {
            budget_bytes: coarse.size_bytes() + 1200,
            refinements_per_round: 3,
            max_rounds: 20,
            workload_with_values: true,
            seed: 5,
            ..Default::default()
        };
        let (built, _) = xbuild(&doc, TruthSource::Exact, &opts);
        let mut queries = Vec::new();
        for kind in [WorkloadKind::Branching, WorkloadKind::BranchingValues] {
            let spec = WorkloadSpec {
                queries: 8,
                kind,
                seed: 23,
                ..Default::default()
            };
            queries.extend(generate_workload(&doc, &spec).queries);
        }
        inputs.push((format!("{name}/coarse"), coarse, queries.clone()));
        inputs.push((format!("{name}/xbuild"), built, queries));
    }
    let recursive = [
        "for $t0 in //parlist, $t1 in $t0//text",
        "for $t0 in //parlist/listitem/parlist/listitem/text",
        "for $t0 in //item[name > 2], $t1 in $t0//listitem, $t2 in $t1/text[. < 5]",
        "for $t0 in //description//parlist[listitem/text = 3], $t1 in $t0//text",
        "for $t0 in /site//listitem, $t1 in $t0//parlist, $t2 in $t0/text",
    ];
    inputs.push((
        "parlist".to_string(),
        coarse_synopsis(&recursive_doc()),
        recursive.iter().map(|t| parse_twig(t).unwrap()).collect(),
    ));

    let plain = EstimateOptions::default();
    let (mut limited, mut multi) = (0usize, 0usize);
    for (name, s, queries) in &inputs {
        let cs = CompiledSynopsis::compile(s);
        let mut matched = 0usize;
        for q in queries {
            let what = format!("{name}: {q}");
            let mut full = Meter::unlimited();
            let reference = oracle::enumerate_embeddings_metered(s, q, &plain, &mut full);
            let mut meter = Meter::unlimited();
            let plan = cs.expand_metered(q, &plain, &mut meter);
            assert_eq!(meter.work_done(), full.work_done(), "{what}: work");
            assert_eq!(plan.work, full.work_done(), "{what}: plan work");
            assert_same_plan(s, &what, &plan, &reference);
            matched += usize::from(!reference.is_empty());
            multi += usize::from(reference.len() > 1);
            // The embedding cap truncates at the same points.
            for capped in [
                plain.to_builder().max_embeddings(1).build(),
                plain.to_builder().max_embeddings(3).build(),
            ] {
                let mut want = Meter::unlimited();
                let reference = oracle::enumerate_embeddings_metered(s, q, &capped, &mut want);
                let mut got = Meter::unlimited();
                let plan = cs.expand_metered(q, &capped, &mut got);
                let at = format!("{what} (cap {})", capped.max_embeddings);
                assert_eq!(got.work_done(), want.work_done(), "{at}: work");
                assert_same_plan(s, &at, &plan, &reference);
            }
            for limit in 1..=full.work_done() {
                let tight = plain.to_builder().work_limit(limit).build();
                let mut want = Meter::from_options(&tight);
                let reference = oracle::enumerate_embeddings_metered(s, q, &tight, &mut want);
                let mut got = Meter::from_options(&tight);
                let plan = cs.expand_metered(q, &tight, &mut got);
                let at = format!("{what} (work limit {limit})");
                assert_eq!(got.work_done(), want.work_done(), "{at}: work");
                assert_eq!(got.exhaustion(), want.exhaustion(), "{at}: exhaustion");
                assert_same_plan(s, &at, &plan, &reference);
                limited += 1;
            }
        }
        assert!(matched > 0, "{name}: no query embedded");
    }
    assert!(multi >= 10, "only {multi} queries with several embeddings");
    assert!(limited > 1000, "only {limited} work-limited cases");
}
