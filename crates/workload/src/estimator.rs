//! The CST and Markov baselines behind the one [`Estimator`] trait, so
//! the comparison harnesses score every technique the way the compiled
//! synopsis and the guarded chain are served.

use std::time::Instant;

use xtwig_core::estimate::{
    EstimateReport, EstimateRequest, Estimator, Provenance, QueryTelemetry,
};
use xtwig_cst::Cst;
use xtwig_markov::MarkovPaths;

use crate::guarded::elapsed_ns;

/// A Correlated Suffix Tree estimator.
pub struct CstEstimator<'a> {
    /// The pruned trie to estimate over.
    pub cst: &'a Cst,
}

/// Answers with `estimate_twig`'s value under provenance `"cst"`; the
/// baseline has no budgets and no embeddings to explain.
impl Estimator for CstEstimator<'_> {
    fn estimate(&self, req: &EstimateRequest<'_>) -> EstimateReport {
        let started = Instant::now();
        let estimate = xtwig_cst::estimate_twig(self.cst, req.query);
        baseline_report(estimate, "cst", started)
    }
}

/// A first-order Markov path-model estimator.
pub struct MarkovEstimator<'a> {
    /// The pruned Markov model to estimate over.
    pub model: &'a MarkovPaths,
}

/// Answers with `estimate_twig`'s value under provenance `"markov"`;
/// the baseline has no budgets and no embeddings to explain.
impl Estimator for MarkovEstimator<'_> {
    fn estimate(&self, req: &EstimateRequest<'_>) -> EstimateReport {
        let started = Instant::now();
        let estimate = self.model.estimate_twig(req.query);
        baseline_report(estimate, "markov", started)
    }
}

/// A baseline's report: its value unchanged, full-fidelity provenance
/// for `source`, and the wall-clock since `started`.
fn baseline_report(estimate: f64, source: &'static str, started: Instant) -> EstimateReport {
    EstimateReport {
        estimate,
        provenance: Provenance::new(source),
        telemetry: QueryTelemetry {
            total_ns: elapsed_ns(started),
            ..QueryTelemetry::default()
        },
        explain: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtwig_core::CompiledSynopsis;
    use xtwig_query::parse_twig;

    #[test]
    fn every_estimator_answers_queries() {
        let doc = xtwig_xml::parse(
            "<bib><author><name/><paper><keyword/></paper></author><author><name/><paper><keyword/><keyword/></paper></author></bib>",
        )
        .unwrap();
        let s = xtwig_core::coarse_synopsis(&doc);
        let cst = Cst::build(&doc, xtwig_cst::CstOptions::default());
        let q = parse_twig("for $t0 in //author, $t1 in $t0/paper/keyword").unwrap();
        let req = EstimateRequest::new(&q);
        let xs = CompiledSynopsis::compile(&s);
        let ce = CstEstimator { cst: &cst };
        let model = xtwig_markov::MarkovPaths::build(&doc, xtwig_markov::MarkovOptions::default());
        let me = MarkovEstimator { model: &model };
        let techniques: [(&str, &dyn Estimator); 3] =
            [("xsketch-compiled", &xs), ("cst", &ce), ("markov", &me)];
        for (source, tech) in techniques {
            let rep = tech.estimate(&req);
            assert!((rep.estimate - 3.0).abs() < 1e-9, "{source}");
            assert_eq!(rep.provenance.source, source);
            assert!(!rep.provenance.degraded, "{source}");
            assert!(rep.explain.is_none(), "{source}");
        }
        assert_eq!(
            ce.estimate(&req).estimate.to_bits(),
            xtwig_cst::estimate_twig(&cst, &q).to_bits()
        );
        assert_eq!(
            me.estimate(&req).estimate.to_bits(),
            model.estimate_twig(&q).to_bits()
        );
        assert!(s.size_bytes() > 0);
        assert!(cst.size_bytes() > 0);
    }
}
