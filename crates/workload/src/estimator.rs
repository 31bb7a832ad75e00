//! A common interface over the summarization techniques.

use xtwig_core::estimate::EstimateOptions;
use xtwig_core::CompiledSynopsis;
use xtwig_cst::Cst;
use xtwig_markov::MarkovPaths;
use xtwig_query::TwigQuery;

/// A selectivity estimator backed by some summary structure.
///
/// This is the *comparison-harness* abstraction (one number per query,
/// plus the summary's footprint) used by the error sweeps and baseline
/// benches. It is deliberately narrower than the serving-path
/// [`xtwig_core::Estimator`] trait, which returns a full
/// [`xtwig_core::EstimateReport`] with provenance and telemetry.
pub trait SummaryEstimator {
    /// Estimated number of binding tuples for `q`.
    fn estimate(&self, q: &TwigQuery) -> f64;
    /// Storage footprint of the summary.
    fn size_bytes(&self) -> usize;
    /// Technique name for reports.
    fn name(&self) -> &'static str;
}

/// Twig XSKETCH: the compiled synopsis under default
/// [`EstimateOptions`]; the footprint is the source synopsis' charged
/// size.
impl SummaryEstimator for CompiledSynopsis<'_> {
    fn estimate(&self, q: &TwigQuery) -> f64 {
        self.estimate_report(q, &EstimateOptions::default())
            .estimate
    }

    fn size_bytes(&self) -> usize {
        self.source().size_bytes()
    }

    fn name(&self) -> &'static str {
        "XSKETCH"
    }
}

/// A Correlated Suffix Tree estimator.
pub struct CstEstimator<'a> {
    /// The pruned trie to estimate over.
    pub cst: &'a Cst,
}

impl SummaryEstimator for CstEstimator<'_> {
    fn estimate(&self, q: &TwigQuery) -> f64 {
        xtwig_cst::estimate_twig(self.cst, q)
    }

    fn size_bytes(&self) -> usize {
        self.cst.size_bytes()
    }

    fn name(&self) -> &'static str {
        "CST"
    }
}

/// A first-order Markov path-model estimator.
pub struct MarkovEstimator<'a> {
    /// The pruned Markov model to estimate over.
    pub model: &'a MarkovPaths,
}

impl SummaryEstimator for MarkovEstimator<'_> {
    fn estimate(&self, q: &TwigQuery) -> f64 {
        self.model.estimate_twig(q)
    }

    fn size_bytes(&self) -> usize {
        self.model.size_bytes()
    }

    fn name(&self) -> &'static str {
        "Markov"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let xs = CompiledSynopsis::compile(&s);
        let ce = CstEstimator { cst: &cst };
        let model = xtwig_markov::MarkovPaths::build(&doc, xtwig_markov::MarkovOptions::default());
        let me = MarkovEstimator { model: &model };
        assert!((xs.estimate(&q) - 3.0).abs() < 1e-9);
        assert!((ce.estimate(&q) - 3.0).abs() < 1e-9);
        assert!((me.estimate(&q) - 3.0).abs() < 1e-9);
        assert_eq!(me.name(), "Markov");
        assert!(xs.size_bytes() > 0);
        assert!(ce.size_bytes() > 0);
        assert_eq!(xs.name(), "XSKETCH");
        assert_eq!(ce.name(), "CST");
    }
}
