//! Figure 9(c)'s headline claim as an integration test: on skewed,
//! correlated data, Twig XSKETCHes beat CSTs at matched storage budgets.

use xtwig::core::construct::{xbuild, BuildOptions, TruthSource};
use xtwig::core::{CompiledSynopsis, EstimateRequest, Estimator};
use xtwig::cst::{Cst, CstOptions};
use xtwig::datagen::{imdb, ImdbConfig};
use xtwig::workload::{
    avg_relative_error, generate_workload, CstEstimator, WorkloadKind, WorkloadSpec,
};

#[test]
fn xsketch_beats_cst_on_correlated_data() {
    let doc = imdb(ImdbConfig {
        movies: 400,
        seed: 77,
    });
    let spec = WorkloadSpec {
        queries: 80,
        kind: WorkloadKind::SimplePath,
        seed: 0xC57,
        ..Default::default()
    };
    let w = generate_workload(&doc, &spec);
    let truths: Vec<f64> = w.truths.iter().map(|&t| t as f64).collect();

    let budget = 2200usize;
    let build = BuildOptions {
        budget_bytes: budget,
        refinements_per_round: 3,
        candidates_per_round: 8,
        sample_queries: 12,
        max_rounds: 150,
        ..Default::default()
    };
    let (synopsis, _) = xbuild(&doc, TruthSource::Exact, &build);
    let cst = Cst::build(
        &doc,
        CstOptions {
            budget_bytes: budget,
            ..Default::default()
        },
    );

    let xs = CompiledSynopsis::compile(&synopsis);
    let ce = CstEstimator { cst: &cst };
    let estimates = |tech: &dyn Estimator| -> Vec<f64> {
        w.queries
            .iter()
            .map(|q| tech.estimate(&EstimateRequest::new(q)).estimate)
            .collect()
    };
    let xs_est = estimates(&xs);
    let cst_est = estimates(&ce);
    let xs_err = avg_relative_error(&xs_est, &truths).avg_rel_error;
    let cst_err = avg_relative_error(&cst_est, &truths).avg_rel_error;

    assert!(
        xs_err <= cst_err * 1.05,
        "XSKETCH ({xs_err:.4}) should not lose to CST ({cst_err:.4}) on correlated data"
    );
    // Both summaries honour the budget (CST strictly; XBUILD may overshoot
    // by at most one refinement).
    assert!(cst.size_bytes() <= budget);
    assert!(synopsis.size_bytes() <= budget + 2048);
}

#[test]
fn both_techniques_are_exact_on_unambiguous_single_paths() {
    let doc = imdb(ImdbConfig {
        movies: 60,
        seed: 3,
    });
    let q = xtwig::query::parse_twig("for $t0 in //movie, $t1 in $t0/actor").unwrap();
    let truth = xtwig::query::selectivity(&doc, &q) as f64;
    let s = xtwig::core::coarse_synopsis(&doc);
    let cst = Cst::build(
        &doc,
        CstOptions {
            budget_bytes: 1 << 20,
            ..Default::default()
        },
    );
    let xs = CompiledSynopsis::compile(&s)
        .estimate(&EstimateRequest::new(&q))
        .estimate;
    let ce = xtwig::cst::estimate_twig(&cst, &q);
    assert!((xs - truth).abs() < 1e-6, "xsketch {xs} vs {truth}");
    assert!((ce - truth).abs() < 1e-6, "cst {ce} vs {truth}");
}
