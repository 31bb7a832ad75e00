//! The estimation framework (§4): maximal-twig expansion, embedding
//! enumeration, TREEPARSE, and evaluation of the selectivity expression
//! under the paper's three statistical assumptions.
//!
//! Pipeline for a query `T_Q` over a synopsis `S`:
//!
//! 1. **Expansion + embedding** ([`expand`], [`embedding`]): every `//`
//!    step is expanded to the valid synopsis paths, every multi-step path
//!    is split into a chain of single-step twig nodes, and each node is
//!    bound to a concrete synopsis node — producing the set of *maximal
//!    twig embeddings* whose selectivities add up to the query's. A cold
//!    memo miss builds them in the arena's expansion lanes and stores
//!    one flat plan ([`ExpandedQuery`]).
//! 2. **TREEPARSE + evaluation** ([`crate::CompiledSynopsis`], the one
//!    evaluator): each embedding is walked depth-first; at every node
//!    the recorded edge histogram supplies the joint distribution of
//!    the needed forward counts, conditioned on
//!    whatever enumerated ancestor counts appear among its backward
//!    dimensions (*Correlation-Scope Independence*). Forward counts
//!    outside the histogram's scope contribute their exact per-edge
//!    average (*Forward Uniformity*) independently of everything else
//!    (*Forward Independence*). Value and branching predicates multiply
//!    in as fractions from the value summaries and the single-path
//!    estimator.

pub mod api;
pub mod arena;
pub mod embedding;
pub mod expand;
pub mod guard;
pub mod kernel;

pub use api::{
    AssumptionCounts, EmbeddingContribution, EstimateReport, EstimateRequest, Estimator, Explain,
    Provenance, QueryTelemetry,
};
pub use arena::EvalArena;
pub use embedding::{EmbNode, Embedding, EmbeddingView, ExpandedQuery};
pub use guard::{EvalStats, Exhaustion, Meter};

use crate::compiled::CompiledSynopsis;
use xtwig_query::TwigQuery;

/// Tunables for expansion, embedding enumeration, budget guarding, and
/// introspection.
///
/// The struct is `#[non_exhaustive]`: outside this crate, construct it
/// with [`EstimateOptions::builder`] (or start from
/// [`EstimateOptions::default`] and set fields) so future knobs are not
/// breaking changes.
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub struct EstimateOptions {
    /// Hard cap on the number of embeddings evaluated per query (the sum
    /// over embeddings is truncated beyond it).
    pub max_embeddings: usize,
    /// Wall-clock deadline for the whole estimation; once passed, the
    /// pipeline unwinds cooperatively and the partial result is returned
    /// with [`Exhaustion::Deadline`]. `None` = no deadline.
    pub deadline: Option<std::time::Instant>,
    /// Abstract work-unit budget across expansion, embedding enumeration
    /// and TREEPARSE evaluation (0 = unlimited). See [`guard::Meter`].
    pub work_limit: u64,
    /// Collect an [`Explain`] report (per-embedding contributions,
    /// assumption counts, provenance) alongside the estimate. Never
    /// changes the numeric result.
    pub explain: bool,
}

impl Default for EstimateOptions {
    fn default() -> Self {
        EstimateOptions {
            max_embeddings: 4096,
            deadline: None,
            work_limit: 0,
            explain: false,
        }
    }
}

impl EstimateOptions {
    /// A builder seeded with the defaults.
    pub fn builder() -> EstimateOptionsBuilder {
        EstimateOptionsBuilder {
            opts: EstimateOptions::default(),
        }
    }

    /// A builder seeded with this options value, for tweaking a copy.
    pub fn to_builder(self) -> EstimateOptionsBuilder {
        EstimateOptionsBuilder { opts: self }
    }
}

/// Builder for [`EstimateOptions`] — the supported way to construct
/// options outside this crate now that the struct is `#[non_exhaustive]`.
///
/// ```
/// use std::time::{Duration, Instant};
/// use xtwig_core::estimate::EstimateOptions;
/// let opts = EstimateOptions::builder()
///     .deadline(Instant::now() + Duration::from_millis(50))
///     .work_limit(1_000_000)
///     .explain(true)
///     .build();
/// assert!(opts.explain);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct EstimateOptionsBuilder {
    opts: EstimateOptions,
}

impl EstimateOptionsBuilder {
    /// Sets the hard cap on embeddings evaluated per query.
    pub fn max_embeddings(mut self, n: usize) -> Self {
        self.opts.max_embeddings = n;
        self
    }

    /// Sets the wall-clock deadline.
    pub fn deadline(mut self, at: std::time::Instant) -> Self {
        self.opts.deadline = Some(at);
        self
    }

    /// Sets or clears the wall-clock deadline.
    pub fn deadline_opt(mut self, at: Option<std::time::Instant>) -> Self {
        self.opts.deadline = at;
        self
    }

    /// Sets the abstract work-unit budget (0 = unlimited).
    pub fn work_limit(mut self, units: u64) -> Self {
        self.opts.work_limit = units;
        self
    }

    /// Requests an [`Explain`] report alongside the estimate.
    pub fn explain(mut self, on: bool) -> Self {
        self.opts.explain = on;
        self
    }

    /// Finishes the build.
    pub fn build(self) -> EstimateOptions {
        self.opts
    }
}

/// A trivially cheap, always-finite upper bound on twig selectivity: the
/// product over twig nodes of the document-wide element count of the
/// node's terminal tag. Every binding tuple is an element of that
/// Cartesian product, so the true selectivity can never exceed it. Used
/// as the last-resort degradation tier and as the clamp target for
/// infinite intermediate results. Returns 0.0 when some queried tag does
/// not occur in the document, and saturates at `f64::MAX`.
pub fn coarse_count_bound(s: &CompiledSynopsis<'_>, query: &TwigQuery) -> f64 {
    let mut bound = 1.0f64;
    for t in query.node_refs() {
        let Some(step) = query.path(t).steps.last() else {
            continue;
        };
        let total = s.tag_total(&step.label);
        if total <= 0.0 {
            return 0.0;
        }
        bound = (bound * total).min(f64::MAX);
    }
    bound
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coarse::coarse_synopsis;
    use crate::synopsis::Synopsis;
    use xtwig_query::{parse_twig, selectivity};
    use xtwig_xml::parse;

    #[test]
    fn selectivity_is_the_sum_over_embeddings() {
        // paper reachable under two parents: each embedding contributes.
        let doc = parse(
            "<bib><conf><paper><kw/></paper><paper><kw/><kw/></paper></conf>\
             <journal><paper><kw/></paper></journal></bib>",
        )
        .unwrap();
        let s = coarse_synopsis(&doc);
        let opts = EstimateOptions::default();
        let q = parse_twig("for $t0 in //paper, $t1 in $t0/kw").unwrap();
        let cs = CompiledSynopsis::compile(&s);
        let plan = cs.expand_metered(&q, &opts, &mut Meter::unlimited());
        assert_eq!(plan.len(), 2);
        let sum: f64 = (0..plan.len())
            .map(|e| {
                let emb = plan.embedding(e).and_then(|v| v.to_embedding()).unwrap();
                cs.estimate_embedding(&emb)
            })
            .sum();
        let direct = cs.estimate_report(&q, &opts).estimate;
        assert!((sum - direct).abs() < 1e-12);
        assert!((direct - selectivity(&doc, &q) as f64).abs() < 1e-9);
    }

    #[test]
    fn options_default_caps_are_sane() {
        let opts = EstimateOptions::default();
        assert!(opts.max_embeddings >= 1024);
    }

    /// Rebuilds `s` with every edge histogram's buckets passed through
    /// `doctor`, via the crate-private raw constructor.
    fn with_doctored_hists(
        s: &Synopsis,
        doctor: impl Fn(xtwig_histogram::Bucket) -> xtwig_histogram::Bucket,
    ) -> Synopsis {
        let mut nodes = Vec::new();
        let mut hists = Vec::new();
        let mut summaries = Vec::new();
        for n in s.node_ids() {
            nodes.push(crate::synopsis::SynopsisNode {
                label: s.label(n),
                extent: Vec::new(),
                count: s.extent_size(n),
            });
            let h = s.edge_hist(n);
            let buckets = h.hist.buckets().iter().cloned().map(&doctor).collect();
            hists.push(crate::synopsis::EdgeHistogram {
                scope: h.scope.clone(),
                hist: xtwig_histogram::MdHistogram::from_parts(h.hist.dims(), buckets),
                value_buckets: h.value_buckets.clone(),
                budget_bytes: h.budget_bytes,
                distinct_points: h.distinct_points,
            });
            summaries.push(s.value_summary(n).cloned());
        }
        let mut edges = std::collections::BTreeMap::new();
        for (u, v, e) in s.edge_iter() {
            edges.insert((u, v), *e);
        }
        Synopsis::from_raw_parts(
            s.labels().clone(),
            nodes,
            edges,
            s.root(),
            s.max_depth(),
            hists,
            summaries,
        )
    }

    /// Regression: histogram buckets with zero mass — a state refinement
    /// can legitimately produce before re-bucketing — must never surface
    /// as NaN or a negative estimate at the report boundary.
    #[test]
    fn zero_mass_buckets_never_produce_nan() {
        let doc = parse(
            "<bib><conf><paper><kw/></paper><paper><kw/><kw/></paper></conf>\
             <journal><paper><kw/></paper></journal></bib>",
        )
        .unwrap();
        let s = coarse_synopsis(&doc);
        let opts = EstimateOptions::default();
        let queries = [
            "for $t0 in //paper, $t1 in $t0/kw",
            "for $t0 in //conf, $t1 in $t0/paper, $t2 in $t1/kw",
            "for $t0 in //journal//kw",
        ];

        // All mass zeroed out (means poisoned to NaN for good measure):
        // estimates degrade to 0, never to NaN.
        let zeroed = with_doctored_hists(&s, |mut b| {
            b.fraction = 0.0;
            b.mean = vec![f64::NAN; b.mean.len()];
            b
        });
        let cz = CompiledSynopsis::compile(&zeroed);
        for q in &queries {
            let q = parse_twig(q).unwrap();
            let v = cz.estimate_report(&q, &opts).estimate;
            assert!(v.is_finite() && v >= 0.0, "zero-mass: got {v}");
        }

        // Positive mass but NaN means: the per-embedding contributions go
        // NaN and the boundary must clamp them (dropped, counted).
        let poisoned = with_doctored_hists(&s, |mut b| {
            b.mean = vec![f64::NAN; b.mean.len()];
            b
        });
        let cp = CompiledSynopsis::compile(&poisoned);
        for q in &queries {
            let q = parse_twig(q).unwrap();
            let rep = cp.estimate_report(&q, &opts);
            assert!(
                rep.estimate.is_finite() && rep.estimate >= 0.0,
                "NaN means: got {}",
                rep.estimate
            );
        }
    }
}
