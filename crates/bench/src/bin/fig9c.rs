//! Regenerates **Figure 9(c)**: the error ratio `err_CST / err_XSKETCH`
//! vs. storage budget, on a workload of twig queries with simple path
//! expressions, for all three datasets.
//!
//! Expected shape (paper, at 50 KB): ratio ≈ 1 on the regular SProt,
//! clearly above 1 on IMDB (44 % vs 8 %) and XMark (26 % vs 3 %), with an
//! increasing trend in the budget because XSKETCH construction allocates
//! space where correlation lives. CST outliers above 1000 % error are
//! excluded, as in the paper.

use xtwig_bench::{kb, row, BenchConfig};
use xtwig_core::construct::{xbuild_from, BuildOptions, TruthSource};
use xtwig_core::{coarse_synopsis, CompiledSynopsis, EstimateRequest, Estimator};
use xtwig_cst::{estimate_twig, Cst, CstOptions};
use xtwig_datagen::Dataset;
use xtwig_workload::{avg_relative_error, generate_workload, WorkloadKind, WorkloadSpec};

fn main() {
    let cfg = BenchConfig::from_env();
    cfg.announce("Figure 9(c): Simple Paths — CSTs vs XSKETCHes (error ratio)");
    for ds in Dataset::ALL {
        let doc = ds.generate(cfg.scale);
        let spec = WorkloadSpec {
            // The paper uses 500 queries for this comparison.
            queries: cfg.queries.min(500),
            kind: WorkloadKind::SimplePath,
            seed: 0x9C,
            ..Default::default()
        };
        let w = generate_workload(&doc, &spec);
        let truths: Vec<f64> = w.truths.iter().map(|&t| t as f64).collect();
        println!("## {} ({} queries)", ds.name(), w.queries.len());
        println!(
            "{:>12}{:>12}{:>12}{:>12}",
            "size (KB)", "err CST", "err XSK", "ratio"
        );
        let mut synopsis = coarse_synopsis(&doc);
        for &budget in &cfg.budgets_bytes {
            // XSKETCH at this budget (incremental build).
            if budget > synopsis.size_bytes() {
                let build = BuildOptions {
                    budget_bytes: budget,
                    refinements_per_round: 4,
                    candidates_per_round: 8,
                    sample_queries: 12,
                    ..Default::default()
                };
                let (next, _) = xbuild_from(synopsis, &doc, TruthSource::Exact, &build);
                synopsis = next;
            }
            let compiled = CompiledSynopsis::compile(&synopsis);
            let xsk: Vec<f64> = w
                .queries
                .iter()
                .map(|q| compiled.estimate(&EstimateRequest::new(q)).estimate)
                .collect();
            // CST at the same budget.
            let cst = Cst::build(
                &doc,
                CstOptions {
                    budget_bytes: budget,
                    ..Default::default()
                },
            );
            let cst_est: Vec<f64> = w.queries.iter().map(|q| estimate_twig(&cst, q)).collect();

            // Exclude CST outliers (>1000 % error) as the paper does.
            let keep: Vec<usize> = (0..truths.len())
                .filter(|&i| {
                    let sanity = 1.0f64.max(truths[i]);
                    (cst_est[i] - truths[i]).abs() / sanity <= 10.0
                })
                .collect();
            let f = |v: &[f64]| keep.iter().map(|&i| v[i]).collect::<Vec<f64>>();
            let err_cst = avg_relative_error(&f(&cst_est), &f(&truths)).avg_rel_error;
            let err_xsk = avg_relative_error(&f(&xsk), &f(&truths)).avg_rel_error;
            let ratio = if err_xsk > 0.0 {
                err_cst / err_xsk
            } else {
                f64::INFINITY
            };
            println!(
                "{:>12}{:>12.3}{:>12.3}{:>12.2}",
                kb(budget),
                err_cst,
                err_xsk,
                ratio
            );
            row(&[
                ds.name().to_string(),
                kb(budget),
                format!("{err_cst:.4}"),
                format!("{err_xsk:.4}"),
                format!("{ratio:.2}"),
            ]);
        }
    }
}
