#![allow(missing_docs)] // criterion macros expand to undocumented items

//! Estimation latency micro-benchmarks.
//!
//! The paper motivates synopses with the optimizer's "time and memory
//! constraints" (§1): an estimate must be orders of magnitude cheaper
//! than evaluating the twig. These benches measure per-query estimation
//! latency over a built Twig XSKETCH and a CST, against the cost of exact
//! evaluation on the document.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use xtwig_core::construct::{xbuild, BuildOptions, TruthSource};
use xtwig_core::{CompiledSynopsis, EstimateRequest, Estimator};
use xtwig_cst::{estimate_twig, Cst, CstOptions};
use xtwig_datagen::{imdb, ImdbConfig};
use xtwig_query::selectivity;
use xtwig_workload::{generate_workload, WorkloadKind, WorkloadSpec};

fn bench_estimation(c: &mut Criterion) {
    let doc = imdb(ImdbConfig {
        movies: 400,
        seed: 77,
    });
    let spec = WorkloadSpec {
        queries: 20,
        kind: WorkloadKind::Branching,
        seed: 3,
        ..Default::default()
    };
    let w = generate_workload(&doc, &spec);
    let build = BuildOptions {
        budget_bytes: xtwig_core::coarse_synopsis(&doc).size_bytes() + 1024,
        refinements_per_round: 4,
        sample_queries: 8,
        max_rounds: 40,
        ..Default::default()
    };
    let (synopsis, _) = xbuild(&doc, TruthSource::Exact, &build);
    let cst = Cst::build(&doc, CstOptions::default());

    let est = CompiledSynopsis::compile(&synopsis);
    let mut g = c.benchmark_group("estimation");
    g.bench_function("xsketch_estimate_20q", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for q in &w.queries {
                acc += black_box(&est).estimate(&EstimateRequest::new(q)).estimate;
            }
            acc
        })
    });
    g.bench_function("cst_estimate_20q", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for q in &w.queries {
                acc += estimate_twig(black_box(&cst), q);
            }
            acc
        })
    });
    g.bench_function("exact_eval_20q", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for q in &w.queries {
                acc += selectivity(black_box(&doc), q);
            }
            acc
        })
    });
    g.finish();
}

criterion_group!(benches, bench_estimation);
criterion_main!(benches);
