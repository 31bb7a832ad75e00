//! Budget sweeps — the series behind Figure 9.

use crate::error::avg_relative_error;
use crate::generator::Workload;
use xtwig_core::construct::{xbuild_from, BuildOptions, TruthSource};
use xtwig_core::{coarse_synopsis, CompiledSynopsis};
use xtwig_cst::{Cst, CstOptions};
use xtwig_xml::Document;

/// One point of a budget/error series.
#[derive(Debug, Clone, Copy)]
pub struct SweepPoint {
    /// Requested budget in bytes.
    pub budget_bytes: usize,
    /// Actual summary size in bytes.
    pub actual_bytes: usize,
    /// Average absolute relative error on the workload.
    pub error: f64,
}

/// Sweep tunables shared by both techniques.
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// XBUILD options (budget is overridden per checkpoint).
    pub build: BuildOptions,
}

/// Builds one Twig XSKETCH incrementally through the given budget
/// checkpoints (ascending) and scores the workload at each. The first
/// point is always the coarsest synopsis, matching the paper's plots
/// ("the point at the lowest storage corresponds to the label split
/// graph").
pub fn sweep_xsketch(
    doc: &Document,
    workload: &Workload,
    budgets: &[usize],
    opts: &SweepOptions,
) -> Vec<SweepPoint> {
    let truths: Vec<f64> = workload.truths.iter().map(|&t| t as f64).collect();
    let mut out = Vec::with_capacity(budgets.len() + 1);
    let mut s = coarse_synopsis(doc);
    out.push(score_point(&s, workload, &truths, s.size_bytes(), opts));
    for &budget in budgets {
        if budget <= s.size_bytes() {
            continue;
        }
        let mut build = opts.build.clone();
        build.budget_bytes = budget;
        let (next, _) = xbuild_from(s, doc, TruthSource::Exact, &build);
        s = next;
        out.push(score_point(&s, workload, &truths, budget, opts));
    }
    out
}

fn score_point(
    s: &xtwig_core::Synopsis,
    workload: &Workload,
    truths: &[f64],
    budget: usize,
    opts: &SweepOptions,
) -> SweepPoint {
    let cs = CompiledSynopsis::compile(s);
    let estimates: Vec<f64> = workload
        .queries
        .iter()
        .map(|q| cs.estimate_report(q, &opts.build.estimate).estimate)
        .collect();
    SweepPoint {
        budget_bytes: budget,
        actual_bytes: s.size_bytes(),
        error: avg_relative_error(&estimates, truths).avg_rel_error,
    }
}

/// Builds a CST per budget checkpoint and scores the workload at each.
pub fn sweep_cst(doc: &Document, workload: &Workload, budgets: &[usize]) -> Vec<SweepPoint> {
    let truths: Vec<f64> = workload.truths.iter().map(|&t| t as f64).collect();
    budgets
        .iter()
        .map(|&budget| {
            let cst = Cst::build(
                doc,
                CstOptions {
                    budget_bytes: budget,
                    ..Default::default()
                },
            );
            let estimates: Vec<f64> = workload
                .queries
                .iter()
                .map(|q| xtwig_cst::estimate_twig(&cst, q))
                .collect();
            SweepPoint {
                budget_bytes: budget,
                actual_bytes: cst.size_bytes(),
                error: avg_relative_error(&estimates, &truths).avg_rel_error,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate_workload, WorkloadKind, WorkloadSpec};
    use xtwig_datagen::{imdb, ImdbConfig};

    #[test]
    fn xsketch_sweep_trends_downward() {
        let doc = imdb(ImdbConfig {
            movies: 150,
            seed: 21,
        });
        let spec = WorkloadSpec {
            queries: 30,
            seed: 5,
            ..Default::default()
        };
        let w = generate_workload(&doc, &spec);
        let coarse = coarse_synopsis(&doc).size_bytes();
        let opts = SweepOptions {
            build: BuildOptions {
                candidates_per_round: 5,
                sample_queries: 8,
                refinements_per_round: 2,
                max_rounds: 50,
                ..Default::default()
            },
        };
        let pts = sweep_xsketch(&doc, &w, &[coarse + 400, coarse + 1200], &opts);
        assert_eq!(pts.len(), 3);
        let first = pts[0].error;
        let last = pts[pts.len() - 1].error;
        assert!(
            last <= first * 1.10 + 0.02,
            "error went up: {first} -> {last}"
        );
        assert!(pts
            .windows(2)
            .all(|w| w[0].actual_bytes <= w[1].actual_bytes));
    }

    #[test]
    fn cst_sweep_runs_at_multiple_budgets() {
        let doc = imdb(ImdbConfig {
            movies: 150,
            seed: 21,
        });
        let spec = WorkloadSpec {
            queries: 25,
            kind: WorkloadKind::SimplePath,
            seed: 6,
            ..Default::default()
        };
        let w = generate_workload(&doc, &spec);
        let pts = sweep_cst(&doc, &w, &[400, 2000, 1 << 16]);
        assert_eq!(pts.len(), 3);
        // More budget can only help (counts get more exact).
        assert!(pts[2].error <= pts[0].error + 1e-9);
        assert!(pts[2].error.is_finite());
    }
}
