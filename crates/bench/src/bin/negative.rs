//! Regenerates §6.2's negative-workload observation: "we have also
//! experimented with 'negative' workloads (selectivity equal to zero) and
//! we have found that our synopses consistently give close to zero
//! estimates for this type of queries."

use xtwig_bench::{row, BenchConfig};
use xtwig_core::construct::{xbuild, BuildOptions, TruthSource};
use xtwig_core::{CompiledSynopsis, EstimateRequest, Estimator};
use xtwig_datagen::Dataset;
use xtwig_workload::{negative_workload, WorkloadSpec};

fn main() {
    let cfg = BenchConfig::from_env();
    cfg.announce("Negative workloads: estimates for zero-selectivity twigs");
    println!(
        "{:>8}{:>10}{:>14}{:>14}{:>16}",
        "dataset", "queries", "avg estimate", "max estimate", "exact zeros (%)"
    );
    for ds in Dataset::ALL {
        let doc = ds.generate(cfg.scale);
        let spec = WorkloadSpec {
            queries: cfg.queries.min(200),
            seed: 0x9D,
            ..Default::default()
        };
        let neg = negative_workload(&doc, &spec);
        let build = BuildOptions {
            budget_bytes: *cfg.budgets_bytes.last().unwrap_or(&(30 * 1024)),
            refinements_per_round: 4,
            sample_queries: 10,
            max_rounds: 400,
            ..Default::default()
        };
        let (synopsis, _) = xbuild(&doc, TruthSource::Exact, &build);
        let compiled = CompiledSynopsis::compile(&synopsis);
        let estimates: Vec<f64> = neg
            .iter()
            .map(|q| compiled.estimate(&EstimateRequest::new(q)).estimate)
            .collect();
        let avg = estimates.iter().sum::<f64>() / estimates.len().max(1) as f64;
        let max = estimates.iter().cloned().fold(0.0f64, f64::max);
        let zeros = estimates.iter().filter(|&&e| e < 1e-9).count();
        let zero_pct = 100.0 * zeros as f64 / estimates.len().max(1) as f64;
        println!(
            "{:>8}{:>10}{:>14.3}{:>14.3}{:>16.1}",
            ds.name(),
            neg.len(),
            avg,
            max,
            zero_pct
        );
        row(&[
            ds.name().to_string(),
            neg.len().to_string(),
            format!("{avg:.4}"),
            format!("{max:.4}"),
            format!("{zero_pct:.1}"),
        ]);
    }
}
