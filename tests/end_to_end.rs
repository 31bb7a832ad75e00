//! Cross-crate integration: dataset generation → XBUILD → estimation →
//! error measurement, on all three datasets at test scale.

use xtwig::core::construct::{xbuild, BuildOptions, TruthSource};
use xtwig::core::estimate::EstimateOptions;
use xtwig::core::{coarse_synopsis, CompiledSynopsis, EstimateRequest, Estimator};
use xtwig::datagen::Dataset;
use xtwig::workload::{avg_relative_error, generate_workload, WorkloadKind, WorkloadSpec};

fn workload_error(s: &xtwig::core::Synopsis, w: &xtwig::workload::Workload) -> f64 {
    let est = CompiledSynopsis::compile(s);
    let estimates: Vec<f64> = w
        .queries
        .iter()
        .map(|q| est.estimate(&EstimateRequest::new(q)).estimate)
        .collect();
    let truths: Vec<f64> = w.truths.iter().map(|&t| t as f64).collect();
    avg_relative_error(&estimates, &truths).avg_rel_error
}

#[test]
fn xbuild_beats_coarse_on_every_dataset() {
    for ds in Dataset::ALL {
        let doc = ds.generate(0.03);
        let spec = WorkloadSpec {
            queries: 40,
            kind: WorkloadKind::Branching,
            seed: 0xE2E,
            ..Default::default()
        };
        let w = generate_workload(&doc, &spec);
        assert!(!w.queries.is_empty(), "{}: no workload", ds.name());

        let coarse = coarse_synopsis(&doc);
        coarse.check_invariants(&doc).unwrap();
        let coarse_err = workload_error(&coarse, &w);

        let build = BuildOptions {
            budget_bytes: coarse.size_bytes() + 1500,
            refinements_per_round: 3,
            candidates_per_round: 6,
            sample_queries: 10,
            max_rounds: 80,
            ..Default::default()
        };
        let (built, trace) = xbuild(&doc, TruthSource::Exact, &build);
        built.check_invariants(&doc).unwrap();
        assert!(
            !trace.rounds.is_empty(),
            "{}: no refinements applied",
            ds.name()
        );
        let built_err = workload_error(&built, &w);
        assert!(
            built_err <= coarse_err * 1.15 + 0.02,
            "{}: error grew from {coarse_err:.4} to {built_err:.4}",
            ds.name()
        );
    }
}

#[test]
fn estimates_are_finite_and_nonnegative_across_workloads() {
    let doc = Dataset::Imdb.generate(0.03);
    let s = coarse_synopsis(&doc);
    for kind in [
        WorkloadKind::Branching,
        WorkloadKind::BranchingValues,
        WorkloadKind::SimplePath,
    ] {
        let spec = WorkloadSpec {
            queries: 30,
            kind,
            seed: 7,
            ..Default::default()
        };
        let w = generate_workload(&doc, &spec);
        let estimator = CompiledSynopsis::compile(&s);
        for q in &w.queries {
            let req = EstimateRequest::with_options(q, EstimateOptions::default());
            let e = estimator.estimate(&req).estimate;
            assert!(e.is_finite() && e >= 0.0, "query {q} -> {e}");
        }
    }
}

#[test]
fn pv_error_exceeds_p_error_on_skewed_data() {
    // Figure 9(b) vs 9(a): value predicates make estimation harder.
    let doc = Dataset::Imdb.generate(0.05);
    let coarse = coarse_synopsis(&doc);
    let p = generate_workload(
        &doc,
        &WorkloadSpec {
            queries: 60,
            kind: WorkloadKind::Branching,
            seed: 2,
            ..Default::default()
        },
    );
    let pv = generate_workload(
        &doc,
        &WorkloadSpec {
            queries: 60,
            kind: WorkloadKind::BranchingValues,
            seed: 2,
            ..Default::default()
        },
    );
    let p_err = workload_error(&coarse, &p);
    let pv_err = workload_error(&coarse, &pv);
    assert!(
        pv_err > p_err * 0.8,
        "P+V error {pv_err:.4} unexpectedly far below P error {p_err:.4}"
    );
}
