//! Three-way baseline comparison beyond the paper's Figure 9(c): Twig
//! XSKETCH vs. the Correlated Suffix Tree vs. a first-order Markov path
//! model (the XPathLearner-style family from the paper's related work),
//! at matched storage budgets, on simple-path and branching workloads.
//!
//! Expected shape: the Markov model is the smallest/cheapest and the
//! most context-blind; the CST memorizes suffixes and wins on regular
//! data once its trie fits; the XSKETCH wins wherever counts correlate
//! (IMDB) and on branching twigs.

use xtwig_bench::{kb, row, BenchConfig};
use xtwig_core::construct::{xbuild_from, BuildOptions, TruthSource};
use xtwig_core::{coarse_synopsis, CompiledSynopsis, EstimateRequest, Estimator};
use xtwig_cst::{Cst, CstOptions};
use xtwig_datagen::Dataset;
use xtwig_markov::{MarkovOptions, MarkovPaths};
use xtwig_workload::{
    avg_relative_error, generate_workload, CstEstimator, MarkovEstimator, WorkloadKind,
    WorkloadSpec,
};

fn main() {
    let cfg = BenchConfig::from_env();
    cfg.announce("Baselines: XSKETCH vs CST vs Markov at matched budgets");
    let budget = cfg.budgets_bytes[cfg.budgets_bytes.len() / 2];
    for ds in Dataset::ALL {
        let doc = ds.generate(cfg.scale);
        for (wname, kind) in [
            ("simple", WorkloadKind::SimplePath),
            ("branching", WorkloadKind::Branching),
        ] {
            let spec = WorkloadSpec {
                queries: cfg.queries.min(300),
                kind,
                seed: 0xBA5E,
                ..Default::default()
            };
            let w = generate_workload(&doc, &spec);
            let truths: Vec<f64> = w.truths.iter().map(|&t| t as f64).collect();

            let mut synopsis = coarse_synopsis(&doc);
            if budget > synopsis.size_bytes() {
                let build = BuildOptions {
                    budget_bytes: budget,
                    refinements_per_round: 4,
                    sample_queries: 12,
                    ..Default::default()
                };
                synopsis = xbuild_from(synopsis, &doc, TruthSource::Exact, &build).0;
            }
            let cst = Cst::build(
                &doc,
                CstOptions {
                    budget_bytes: budget,
                    ..Default::default()
                },
            );
            let markov = MarkovPaths::build(
                &doc,
                MarkovOptions {
                    budget_bytes: budget,
                },
            );

            println!(
                "## {} / {wname} ({} queries, budget {} KB)",
                ds.name(),
                w.queries.len(),
                kb(budget)
            );
            println!(
                "{:<10}{:>12}{:>12}{:>12}",
                "technique", "size (KB)", "avg err", "p90 err"
            );
            let xs = CompiledSynopsis::compile(&synopsis);
            let ce = CstEstimator { cst: &cst };
            let me = MarkovEstimator { model: &markov };
            let techniques: [(&str, usize, &dyn Estimator); 3] = [
                ("XSKETCH", synopsis.size_bytes(), &xs),
                ("CST", cst.size_bytes(), &ce),
                ("Markov", markov.size_bytes(), &me),
            ];
            for (name, footprint, tech) in techniques {
                let estimates: Vec<f64> = w
                    .queries
                    .iter()
                    .map(|q| tech.estimate(&EstimateRequest::new(q)).estimate)
                    .collect();
                let r = avg_relative_error(&estimates, &truths);
                println!(
                    "{:<10}{:>12}{:>12.3}{:>12.3}",
                    name,
                    kb(footprint),
                    r.avg_rel_error,
                    r.p90
                );
                row(&[
                    ds.name().to_string(),
                    wname.to_string(),
                    name.to_string(),
                    kb(footprint),
                    format!("{:.4}", r.avg_rel_error),
                    format!("{:.4}", r.p90),
                ]);
            }
        }
    }
}
