//! The estimation API: one request/report surface over the compiled
//! evaluator, the guarded fallback chain and the baselines.
//!
//! Every estimator implements the single [`Estimator`] trait:
//!
//! ```text
//! fn estimate(&self, req: &EstimateRequest<'_>) -> EstimateReport
//! ```
//!
//! An [`EstimateReport`] always carries the sanitized value plus
//! [`Provenance`] (which path served it, whether a budget tripped,
//! whether it came from a cache or memo, which fallback tier answered)
//! and [`QueryTelemetry`] (per-stage wall-clock and work-budget burn).
//! When the request asks for it ([`EstimateOptions::explain`]), the
//! report also carries an [`Explain`]: the per-embedding contributions
//! that sum to the estimate, and how often each of the paper's
//! statistical assumptions fired.

use super::embedding::EmbeddingView;
use super::guard::{EvalStats, Exhaustion};
use super::EstimateOptions;
use crate::compiled::CompiledSynopsis;
use crate::telemetry;
use std::time::Instant;
use xtwig_query::TwigQuery;

/// One estimation request: the query plus every knob that shapes how it
/// is answered (budgets, caps, explain).
#[derive(Debug, Clone, Copy)]
pub struct EstimateRequest<'q> {
    /// The twig query to estimate.
    pub query: &'q TwigQuery,
    /// Expansion caps, budget guards, and introspection switches.
    pub options: EstimateOptions,
}

impl<'q> EstimateRequest<'q> {
    /// A request with default options.
    pub fn new(query: &'q TwigQuery) -> EstimateRequest<'q> {
        EstimateRequest {
            query,
            options: EstimateOptions::default(),
        }
    }

    /// A request with explicit options.
    pub fn with_options(query: &'q TwigQuery, options: EstimateOptions) -> EstimateRequest<'q> {
        EstimateRequest { query, options }
    }
}

/// Where an estimate came from and how trustworthy it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Provenance {
    /// The serving path: `"xsketch-compiled"`, `"guarded"`, or a
    /// baseline's `"cst"` or `"markov"`.
    pub source: &'static str,
    /// Why evaluation stopped early, if it did.
    pub exhaustion: Option<Exhaustion>,
    /// Number of embeddings whose contribution entered the sum.
    pub embeddings: usize,
    /// Total abstract work units charged.
    pub work: u64,
    /// Number of per-embedding contributions clamped at the boundary
    /// (NaN/negative dropped, `+∞` replaced by the coarse bound).
    pub clamped: usize,
    /// Whether the result was served from an estimate cache rather than
    /// computed fresh for this request.
    pub cached: bool,
    /// Whether the expansion was served from the expansion memo
    /// (`None` when the path has no memo, e.g. a non-XSKETCH tier).
    pub memo_hit: Option<bool>,
    /// Which guarded fallback tier answered (`None` outside the guarded
    /// chain): `"xsketch"`, `"markov"`, or `"label-count"`.
    pub tier: Option<&'static str>,
    /// Whether the result is anything less than the full-fidelity sum.
    pub degraded: bool,
    /// Whether the request was *shed* by admission control before any
    /// estimation ran — distinct from `degraded`, which means a tier
    /// produced a lower-fidelity number. A shed report carries no
    /// estimate the optimizer should trust.
    pub shed: bool,
}

impl Provenance {
    /// Full-fidelity provenance for `source` with everything else unset.
    pub fn new(source: &'static str) -> Provenance {
        Provenance {
            source,
            exhaustion: None,
            embeddings: 0,
            work: 0,
            clamped: 0,
            cached: false,
            memo_hit: None,
            tier: None,
            degraded: false,
            shed: false,
        }
    }
}

/// Per-query, per-stage resource accounting: wall-clock nanoseconds and
/// abstract work-budget consumption, plus the TREEPARSE bucket count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryTelemetry {
    /// Wall-clock of maximal-twig expansion + embedding enumeration.
    pub expand_ns: u64,
    /// Wall-clock of TREEPARSE evaluation over the embeddings.
    pub eval_ns: u64,
    /// End-to-end wall-clock of the estimate.
    pub total_ns: u64,
    /// Work units charged during expansion/enumeration.
    pub expand_work: u64,
    /// Work units charged during TREEPARSE evaluation.
    pub eval_work: u64,
    /// TREEPARSE support terms (histogram buckets) visited.
    pub buckets_visited: u64,
}

/// One embedding's contribution to the estimate, as it entered the sum.
#[derive(Debug, Clone, PartialEq)]
pub struct EmbeddingContribution {
    /// Position in the enumeration order.
    pub index: usize,
    /// The embedding rendered over synopsis labels, e.g.
    /// `author(name,paper(keyword))`.
    pub rendered: String,
    /// The raw per-embedding evaluation result (may be NaN/∞ before
    /// clamping).
    pub raw: f64,
    /// What actually entered the sum: `raw` when finite and ≥ 0, the
    /// coarse bound for `+∞`, `0.0` for NaN/negative.
    pub contribution: f64,
    /// Whether this contribution was clamped at the boundary.
    pub clamped: bool,
}

/// How often each of the paper's statistical assumptions fired while
/// evaluating a query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AssumptionCounts {
    /// Forward Uniformity fallbacks (child edge outside the histogram's
    /// enumerated forward dimensions → exact per-edge average used).
    pub forward_uniformity: u64,
    /// Correlation-Scope Independence conditionings (node evaluated
    /// under ≥ 1 matched backward dimension).
    pub conditioning: u64,
}

/// The on-demand introspection report: why the estimate is the number
/// it is.
#[derive(Debug, Clone, PartialEq)]
pub struct Explain {
    /// Maximal twig embeddings enumerated by expansion (before any
    /// budget truncation of the evaluation loop).
    pub expanded: usize,
    /// Per-embedding contributions, in evaluation order; their
    /// `contribution` fields sum to the estimate (exactly, unless
    /// `final_clamp` fired).
    pub embeddings: Vec<EmbeddingContribution>,
    /// Assumption application counts for this query.
    pub assumptions: AssumptionCounts,
    /// Whether the summed total went non-finite and was replaced by the
    /// coarse label-count bound.
    pub final_clamp: bool,
    /// Tier-by-tier trail through the guarded chain (empty outside it),
    /// e.g. `["xsketch: deadline exceeded", "markov: ok"]`.
    pub tier_path: Vec<String>,
}

/// The result of one estimation: value, provenance, per-stage
/// telemetry, and (on request) the explain report.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimateReport {
    /// The estimated number of binding tuples — always finite and ≥ 0.
    pub estimate: f64,
    /// Where the value came from and how trustworthy it is.
    pub provenance: Provenance,
    /// Per-stage wall-clock and work accounting.
    pub telemetry: QueryTelemetry,
    /// Present iff the request set [`EstimateOptions::explain`] and the
    /// serving path could produce one (cache hits and non-XSKETCH
    /// tiers have no embeddings to explain).
    pub explain: Option<Explain>,
}

/// The estimation surface: implemented by the compiled synopsis
/// ([`crate::CompiledSynopsis`]), the guarded fallback chain and the
/// CST and Markov baselines (`xtwig-workload`'s `GuardedEstimator`,
/// `CstEstimator` and `MarkovEstimator`).
pub trait Estimator {
    /// Estimates the selectivity of `req.query` under `req.options`,
    /// reporting value + provenance + telemetry (+ explain on demand).
    fn estimate(&self, req: &EstimateRequest<'_>) -> EstimateReport;
}

/// Saturating `u128 → u64` nanosecond conversion.
pub(crate) fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The outcome of the shared embedding-sum loop.
pub(crate) struct Accumulated {
    /// The sanitized total (already clamped to `[0, f64::MAX]`).
    pub total: f64,
    /// Contributions clamped at the boundary (incl. the final clamp).
    pub clamped: usize,
    /// Embeddings whose contribution entered the sum.
    pub evaluated: usize,
    /// Per-embedding contributions, when explain was requested.
    pub contributions: Option<Vec<EmbeddingContribution>>,
    /// Whether the summed total went non-finite and was replaced by the
    /// coarse bound.
    pub final_clamp: bool,
}

/// The one canonical evaluation loop over enumerated embeddings, shared
/// by the compiled evaluator's single-thread and work-split paths so the
/// clamping semantics can never drift apart. `eval_one` evaluates
/// embedding `i` and reports the meter's exhaustion after doing so;
/// `coarse_bound` supplies the clamp target; `render` labels embedding
/// `i` for explain output.
///
/// Finite non-negative values add; NaN/negative drop (count as
/// clamped); `+∞` adds the coarse bound; a non-finite total is replaced
/// wholesale by the coarse bound; the loop breaks as soon as the meter
/// is exhausted.
pub(crate) fn sum_embeddings(
    n: usize,
    want_explain: bool,
    mut eval_one: impl FnMut(usize) -> (f64, Option<Exhaustion>),
    coarse_bound: impl Fn() -> f64,
    render: impl Fn(usize) -> String,
) -> Accumulated {
    let mut total = 0.0f64;
    let mut clamped = 0usize;
    let mut evaluated = 0usize;
    let mut contributions = if want_explain { Some(Vec::new()) } else { None };
    for i in 0..n {
        let (v, ex) = eval_one(i);
        evaluated += 1;
        let contribution;
        if v.is_finite() && v >= 0.0 {
            total += v;
            contribution = v;
        } else {
            clamped += 1;
            if v == f64::INFINITY {
                let b = coarse_bound();
                total += b;
                contribution = b;
            } else {
                // NaN / negative contributions clamp to 0.0 (dropped).
                contribution = 0.0;
            }
        }
        if let Some(c) = contributions.as_mut() {
            c.push(EmbeddingContribution {
                index: i,
                rendered: render(i),
                raw: v,
                contribution,
                clamped: !(v.is_finite() && v >= 0.0),
            });
        }
        if ex.is_some() {
            break;
        }
    }
    let mut final_clamp = false;
    if !total.is_finite() {
        clamped += 1;
        total = coarse_bound();
        final_clamp = true;
    }
    Accumulated {
        total: total.clamp(0.0, f64::MAX),
        clamped,
        evaluated,
        contributions,
        final_clamp,
    }
}

/// Renders an embedding over the synopsis's tag names, nested as
/// `root(child,child(grandchild))`.
pub(crate) fn render_embedding(s: &CompiledSynopsis<'_>, emb: EmbeddingView<'_>) -> String {
    fn render_node(
        s: &CompiledSynopsis<'_>,
        emb: EmbeddingView<'_>,
        i: usize,
        depth: usize,
        out: &mut String,
    ) {
        if depth > emb.len() {
            return; // defensive: malformed parent links can't recurse forever
        }
        let Some(node) = emb.node(i) else {
            return;
        };
        out.push_str(s.tag(node.syn));
        let children = emb.children_of(node);
        if !children.is_empty() {
            out.push('(');
            for (k, &c) in children.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                render_node(
                    s,
                    emb,
                    usize::try_from(c).unwrap_or(usize::MAX),
                    depth + 1,
                    out,
                );
            }
            out.push(')');
        }
    }
    let mut out = String::new();
    render_node(s, emb, 0, 0, &mut out);
    out
}

/// Flushes one query's worth of counters into the global registry and
/// returns the per-query [`QueryTelemetry`] unchanged. One call per
/// estimate: a handful of relaxed atomics, off the per-bucket hot path.
pub(crate) fn flush_query_telemetry(
    stats: EvalStats,
    exhaustion: Option<Exhaustion>,
    degraded: bool,
    qt: QueryTelemetry,
) -> QueryTelemetry {
    let tg = telemetry::global();
    tg.queries_estimated.incr();
    tg.treeparse_buckets_visited.add(stats.buckets_visited);
    tg.uniformity_applications
        .add(stats.uniformity_applications);
    tg.conditioning_applications
        .add(stats.conditioning_applications);
    match exhaustion {
        Some(Exhaustion::Deadline) => tg.meter_deadline_exhaustions.incr(),
        Some(Exhaustion::Work) => tg.meter_work_exhaustions.incr(),
        None => {}
    }
    if degraded {
        tg.degraded_results.incr();
    }
    tg.expand_latency.record_ns(qt.expand_ns);
    tg.treeparse_latency.record_ns(qt.eval_ns);
    tg.estimate_latency.record_ns(qt.total_ns);
    qt
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coarse::coarse_synopsis;
    use crate::compiled::CompiledSynopsis;
    use crate::estimate::Meter;
    use xtwig_query::parse_twig;
    use xtwig_xml::parse;

    fn doc() -> xtwig_xml::Document {
        parse(
            "<bib><conf><paper><kw/></paper><paper><kw/><kw/></paper></conf>\
             <journal><paper><kw/></paper></journal></bib>",
        )
        .unwrap()
    }

    #[test]
    fn trait_report_matches_the_inherent_report() {
        let d = doc();
        let s = coarse_synopsis(&d);
        let cs = CompiledSynopsis::compile(&s);
        let q = parse_twig("for $t0 in //paper, $t1 in $t0/kw").unwrap();
        let req = EstimateRequest::new(&q);
        let rep = cs.estimate(&req);
        let direct = cs.estimate_report(&q, &req.options);
        assert_eq!(rep.estimate.to_bits(), direct.estimate.to_bits());
        assert_eq!(rep.provenance.source, "xsketch-compiled");
        assert_eq!(rep.provenance.embeddings, direct.provenance.embeddings);
        assert!(!rep.provenance.degraded);
        assert!(rep.explain.is_none());
    }

    #[test]
    fn explain_contributions_sum_to_estimate() {
        let d = doc();
        let s = coarse_synopsis(&d);
        let cs = CompiledSynopsis::compile(&s);
        let q = parse_twig("for $t0 in //paper, $t1 in $t0/kw").unwrap();
        let opts = EstimateOptions::builder().explain(true).build();
        let rep = cs.estimate(&EstimateRequest::with_options(&q, opts));
        let ex = rep.explain.as_ref().unwrap();
        assert_eq!(ex.expanded, 2, "paper reachable under two parents");
        let sum: f64 = ex.embeddings.iter().map(|c| c.contribution).sum();
        assert!(
            (sum - rep.estimate).abs() <= 1e-9 * rep.estimate.max(1.0),
            "{sum} vs {}",
            rep.estimate
        );
        assert!(ex.embeddings.iter().all(|c| !c.rendered.is_empty()));
        assert!(!ex.final_clamp);
        // Explain never changes the number.
        let plain = cs.estimate(&EstimateRequest::new(&q));
        assert_eq!(plain.estimate.to_bits(), rep.estimate.to_bits());
    }

    #[test]
    fn degraded_run_reports_exhaustion_provenance() {
        let d = doc();
        let s = coarse_synopsis(&d);
        let cs = CompiledSynopsis::compile(&s);
        let q = parse_twig("for $t0 in //conf, $t1 in $t0/paper, $t2 in $t1/kw").unwrap();
        let opts = EstimateOptions::builder()
            .work_limit(1)
            .explain(true)
            .build();
        let rep = cs.estimate(&EstimateRequest::with_options(&q, opts));
        assert_eq!(rep.provenance.exhaustion, Some(Exhaustion::Work));
        assert!(rep.provenance.degraded);
        assert!(rep.telemetry.total_ns >= rep.telemetry.eval_ns);
    }

    #[test]
    fn render_embedding_is_nested_labels() {
        let d = doc();
        let s = coarse_synopsis(&d);
        let q = parse_twig("for $t0 in //conf, $t1 in $t0/paper, $t2 in $t1/kw").unwrap();
        let cs = CompiledSynopsis::compile(&s);
        let plan = cs.expand_metered(&q, &EstimateOptions::default(), &mut Meter::unlimited());
        assert!(!plan.is_empty());
        let rendered = render_embedding(&cs, plan.embedding(0).unwrap());
        assert!(rendered.contains("conf"), "{rendered}");
        assert!(rendered.contains("paper(kw)"), "{rendered}");
    }
}
