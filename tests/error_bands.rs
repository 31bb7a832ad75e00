//! Regression gates on end-to-end estimation quality: each dataset's
//! error at a fixed budget must stay inside a band. These are the
//! numbers EXPERIMENTS.md reports, frozen with generous headroom so the
//! suite fails if an estimator or construction change quietly degrades
//! accuracy (rather than only when unit-level behaviour breaks).

use xtwig::core::construct::{xbuild_from, BuildOptions, TruthSource};
use xtwig::core::estimate::{EstimateOptions, EstimateRequest, Estimator};
use xtwig::core::{coarse_synopsis, CompiledSynopsis};
use xtwig::datagen::Dataset;
use xtwig::workload::{avg_relative_error, generate_workload, WorkloadKind, WorkloadSpec};

fn built_error(ds: Dataset, kind: WorkloadKind, extra_budget: usize) -> (f64, f64) {
    let doc = ds.generate(0.05);
    let spec = WorkloadSpec {
        queries: 80,
        kind,
        seed: 0xBAD5,
        ..Default::default()
    };
    let w = generate_workload(&doc, &spec);
    let truths: Vec<f64> = w.truths.iter().map(|&t| t as f64).collect();
    let coarse = coarse_synopsis(&doc);
    let opts = EstimateOptions::default();
    let score = |s: &xtwig::core::Synopsis| {
        let estimator = CompiledSynopsis::compile(s);
        let est: Vec<f64> = w
            .queries
            .iter()
            .map(|q| {
                estimator
                    .estimate(&EstimateRequest::with_options(q, opts))
                    .estimate
            })
            .collect();
        avg_relative_error(&est, &truths).avg_rel_error
    };
    let coarse_err = score(&coarse);
    let build = BuildOptions {
        budget_bytes: coarse.size_bytes() + extra_budget,
        refinements_per_round: 3,
        sample_queries: 10,
        max_rounds: 120,
        workload_with_values: kind == WorkloadKind::BranchingValues,
        ..Default::default()
    };
    let (built, _) = xbuild_from(coarse, &doc, TruthSource::Exact, &build);
    (coarse_err, score(&built))
}

#[test]
fn p_workload_error_bands() {
    // Bands are ~3× the typically measured values — loose enough for
    // seed drift, tight enough to catch real regressions.
    for (ds, coarse_cap, built_cap) in [
        (Dataset::XMark, 0.45, 0.30),
        (Dataset::Imdb, 0.60, 0.30),
        (Dataset::SProt, 0.35, 0.25),
    ] {
        let (coarse_err, built_err) = built_error(ds, WorkloadKind::Branching, 1500);
        assert!(
            coarse_err < coarse_cap,
            "{}: coarse error {coarse_err:.3} above band {coarse_cap}",
            ds.name()
        );
        assert!(
            built_err < built_cap,
            "{}: built error {built_err:.3} above band {built_cap}",
            ds.name()
        );
    }
}

#[test]
fn pv_workload_error_bands() {
    for (ds, built_cap) in [(Dataset::XMark, 0.70), (Dataset::Imdb, 0.90)] {
        let (_, built_err) = built_error(ds, WorkloadKind::BranchingValues, 1500);
        assert!(
            built_err < built_cap,
            "{}: built P+V error {built_err:.3} above band {built_cap}",
            ds.name()
        );
    }
}
