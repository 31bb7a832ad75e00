//! Forced batch work-splitting (Phase C of the `BatchServer` pipeline).
//!
//! This suite lives in its own test binary so it can pin
//! `XTWIG_SPLIT_THRESHOLD=1` for the whole process without racing other
//! suites over the environment: with a threshold of one embedding, every
//! unguarded fingerprint group takes the heavy-group path, where one
//! query's embeddings are dealt out to several workers and folded back
//! through the same sequential clamping loop as the serial path. The
//! split must be invisible — estimates bit-identical to the interpreted
//! test oracle (`support::oracle`), equivalent provenance, honest cache
//! interaction — and telemetry must record it.

mod support;

use support::oracle;
use xtwig::core::construct::{xbuild, BuildOptions, TruthSource};
use xtwig::core::estimate::EstimateOptions;
use xtwig::core::{coarse_synopsis, BatchServer, CompiledSynopsis, EstimateCache};
use xtwig::datagen::{xmark, XMarkConfig};
use xtwig::query::TwigQuery;
use xtwig::workload::{generate_workload, Workload, WorkloadKind, WorkloadSpec};
use xtwig::xml::Document;

/// Every test in this binary forces the splitter on; the variable is
/// read once per batch, so setting it repeatedly (to the same value)
/// from concurrent tests is benign.
fn force_split() {
    std::env::set_var("XTWIG_SPLIT_THRESHOLD", "1");
}

fn fixture(seed: u64) -> (Document, Workload) {
    let doc = xmark(XMarkConfig { scale: 0.02, seed });
    let w = generate_workload(
        &doc,
        &WorkloadSpec {
            queries: 16,
            kind: WorkloadKind::Branching,
            seed,
            ..Default::default()
        },
    );
    (doc, w)
}

fn build(doc: &Document, seed: u64) -> xtwig::core::synopsis::Synopsis {
    let coarse = coarse_synopsis(doc);
    let opts = BuildOptions {
        budget_bytes: coarse.size_bytes() + 900,
        refinements_per_round: 3,
        max_rounds: 20,
        seed,
        ..Default::default()
    };
    let (s, _) = xbuild(doc, TruthSource::Exact, &opts);
    s
}

#[test]
fn split_evaluation_is_bit_identical_to_interpreted() {
    force_split();
    let (doc, w) = fixture(11);
    assert!(!w.queries.is_empty());
    let s = build(&doc, 11);
    let cs = CompiledSynopsis::compile(&s);
    let eopts = EstimateOptions::default();

    let splits_before = xtwig::core::telemetry::global().batch_splits.get();
    let got = BatchServer::new(&cs)
        .with_options(eopts)
        .with_threads(4)
        .serve(&w.queries);
    let splits_after = xtwig::core::telemetry::global().batch_splits.get();
    assert!(
        splits_after > splits_before,
        "threshold 1 must force at least one work split ({splits_before} -> {splits_after})"
    );

    for (q, r) in w.queries.iter().zip(&got) {
        let interp = oracle::estimate(&s, q, &eopts);
        assert_eq!(
            interp.estimate.to_bits(),
            r.estimate.to_bits(),
            "split evaluation diverged on {q}: interpreted {} vs served {}",
            interp.estimate,
            r.estimate
        );
        assert_eq!(interp.provenance.exhaustion, r.provenance.exhaustion);
        assert_eq!(interp.provenance.clamped, r.provenance.clamped);
        assert_eq!(interp.provenance.embeddings, r.provenance.embeddings);
    }
}

#[test]
fn split_results_populate_and_reuse_the_cache() {
    force_split();
    let (doc, w) = fixture(23);
    assert!(!w.queries.is_empty());
    let s = build(&doc, 23);
    let cs = CompiledSynopsis::compile(&s);
    let eopts = EstimateOptions::default();

    let cache = EstimateCache::new(256);
    let cold = BatchServer::new(&cs)
        .with_cache(&cache)
        .with_options(eopts)
        .with_threads(4)
        .serve(&w.queries);
    let hits_cold = cache.stats().hits;
    let warm = BatchServer::new(&cs)
        .with_cache(&cache)
        .with_options(eopts)
        .with_threads(4)
        .serve(&w.queries);
    assert!(
        cache.stats().hits >= hits_cold + w.queries.len() as u64,
        "split-produced entries must be served from the cache on the warm pass"
    );
    for (a, b) in cold.iter().zip(&warm) {
        assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
    }
}

#[test]
fn split_groups_share_one_plan_with_duplicates() {
    force_split();
    let (doc, w) = fixture(37);
    assert!(!w.queries.is_empty());
    let s = build(&doc, 37);
    let cs = CompiledSynopsis::compile(&s);
    let eopts = EstimateOptions::default();

    // Duplicates of a heavy query land in the same fingerprint group:
    // the group leader is split across workers, the members reuse the
    // assembled report.
    let mut batch: Vec<TwigQuery> = Vec::new();
    for q in &w.queries {
        batch.push(q.clone());
        batch.push(q.clone());
        batch.push(q.clone());
    }
    let got = BatchServer::new(&cs)
        .with_options(eopts)
        .with_threads(4)
        .serve(&batch);
    assert_eq!(got.len(), batch.len());
    for (q, r) in batch.iter().zip(&got) {
        let interp = oracle::estimate(&s, q, &eopts);
        assert_eq!(
            interp.estimate.to_bits(),
            r.estimate.to_bits(),
            "split + reuse diverged on {q}"
        );
    }
}

#[test]
fn split_with_explain_reports_every_embedding() {
    force_split();
    let (doc, w) = fixture(53);
    assert!(!w.queries.is_empty());
    let s = build(&doc, 53);
    let cs = CompiledSynopsis::compile(&s);
    let with_explain = EstimateOptions::default()
        .to_builder()
        .explain(true)
        .build();

    let got = BatchServer::new(&cs)
        .with_options(with_explain)
        .with_threads(4)
        .serve(&w.queries);
    for (q, r) in w.queries.iter().zip(&got) {
        let interp = oracle::estimate(&s, q, &with_explain);
        assert_eq!(interp.estimate.to_bits(), r.estimate.to_bits());
        let e = r.explain.as_ref();
        assert!(e.is_some(), "explain batch must carry an Explain on {q}");
        assert_eq!(
            e.map_or(0, |e| e.embeddings.len()),
            r.provenance.embeddings,
            "split explain must cover every evaluated embedding on {q}"
        );
    }
}
