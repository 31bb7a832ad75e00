//! Regenerates §6.2's single-path comparison: "Twig XSKETCHes compute
//! low-error estimates of path selectivities, but, as expected,
//! Structural XSKETCHes enable more accurate approximations since they
//! target specifically the problem of selectivity estimation for single
//! paths."
//!
//! We compare, on single-path workloads, the twig estimator
//! (`CompiledSynopsis` through the `Estimator` trait) against the
//! dedicated single-path estimator (`single_path::estimate_path_count`)
//! over the same compiled synopsis.

use xtwig_bench::{pct, row, BenchConfig};
use xtwig_core::construct::{xbuild, BuildOptions, TruthSource};
use xtwig_core::estimate::EvalArena;
use xtwig_core::single_path::estimate_path_count;
use xtwig_core::{CompiledSynopsis, EstimateRequest, Estimator};
use xtwig_datagen::Dataset;
use xtwig_query::TwigQuery;
use xtwig_workload::{avg_relative_error, generate_workload, WorkloadKind, WorkloadSpec};

fn main() {
    let cfg = BenchConfig::from_env();
    cfg.announce("Single-path workloads: twig estimator vs single-path estimator");
    println!(
        "{:>8}{:>10}{:>14}{:>18}",
        "dataset", "queries", "twig est err", "single-path err"
    );
    for ds in Dataset::ALL {
        let doc = ds.generate(cfg.scale);
        // Single-path queries: twigs with exactly one node (a chain).
        let spec = WorkloadSpec {
            queries: cfg.queries.min(300),
            min_nodes: 1,
            max_nodes: 1,
            kind: WorkloadKind::SimplePath,
            seed: 0x9E,
        };
        let w = generate_workload(&doc, &spec);
        let chains: Vec<&TwigQuery> = w.queries.iter().collect();
        let build = BuildOptions {
            budget_bytes: *cfg.budgets_bytes.last().unwrap_or(&(30 * 1024)),
            refinements_per_round: 4,
            sample_queries: 10,
            max_rounds: 400,
            ..Default::default()
        };
        let (synopsis, _) = xbuild(&doc, TruthSource::Exact, &build);
        let truths: Vec<f64> = w.truths.iter().map(|&t| t as f64).collect();
        let compiled = CompiledSynopsis::compile(&synopsis);
        let twig_est: Vec<f64> = chains
            .iter()
            .map(|q| compiled.estimate(&EstimateRequest::new(q)).estimate)
            .collect();
        let mut arena = EvalArena::new();
        let sp_est: Vec<f64> = chains
            .iter()
            .map(|q| {
                estimate_path_count(&compiled, q.path(q.root()), &Default::default(), &mut arena)
            })
            .collect();
        let twig_err = avg_relative_error(&twig_est, &truths).avg_rel_error;
        let sp_err = avg_relative_error(&sp_est, &truths).avg_rel_error;
        println!(
            "{:>8}{:>10}{:>14}{:>18}",
            ds.name(),
            w.queries.len(),
            pct(twig_err),
            pct(sp_err)
        );
        row(&[
            ds.name().to_string(),
            w.queries.len().to_string(),
            format!("{twig_err:.4}"),
            format!("{sp_err:.4}"),
        ]);
    }
}
