//! The XBUILD construction algorithm (§5, Figure 8).
//!
//! Starting from the coarse label-split synopsis, XBUILD repeatedly: (1)
//! proposes candidate refinements on a node sample weighted by extent size
//! and incident instability, (2) samples a positive twig workload around
//! the affected regions, (3) scores every candidate by *marginal gain* —
//! accuracy improvement per extra byte — against that workload, and (4)
//! applies the best candidate(s), until the byte budget is exhausted.
//!
//! The true selectivities needed for the error scores come from a
//! [`TruthSource`]: either the document itself (exact counting — cheap for
//! us since the document is in memory) or a large *reference summary* as
//! the paper uses to avoid database access.

use crate::coarse::coarse_synopsis;
use crate::compiled::CompiledSynopsis;
use crate::construct::refine::{best_expand_dim_with, best_value_expand, Refinement};
use crate::construct::sample::sample_region_workload;
use crate::estimate::EstimateOptions;
use crate::synopsis::{SynId, Synopsis};
use crate::telemetry;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use xtwig_query::{selectivity, TwigQuery};
use xtwig_xml::Document;

/// Where XBUILD's error scoring gets "true" selectivities from.
#[derive(Debug, Clone, Copy)]
pub enum TruthSource<'a> {
    /// Count exactly on the document (the default; our documents are in
    /// memory, so the paper's motivation for avoiding this does not bind).
    Exact,
    /// Estimate over a large reference synopsis, as in the paper.
    Reference(&'a Synopsis),
}

/// Tunables for XBUILD.
#[derive(Debug, Clone)]
pub struct BuildOptions {
    /// Target synopsis size in bytes.
    pub budget_bytes: usize,
    /// Nodes sampled per round to seed candidate refinements.
    pub candidates_per_round: usize,
    /// Sample workload size per round.
    pub sample_queries: usize,
    /// Number of top-scored refinements applied per round (1 reproduces
    /// the paper exactly; larger values trade fidelity for build speed).
    pub refinements_per_round: usize,
    /// Extra bytes granted by each `edge-refine`.
    pub edge_refine_step: usize,
    /// Extra bytes granted by each `value-refine`.
    pub value_refine_step: usize,
    /// Whether the sample workload carries value predicates (use for P+V
    /// targets so value summaries attract budget).
    pub workload_with_values: bool,
    /// Restrict `edge-expand` candidates to the paper's strict TSN rule
    /// (F-stable children only). Off by default: forward counts are
    /// well-defined for every child edge. Toggled by the ablation bench.
    pub strict_tsn: bool,
    /// Safety cap on rounds.
    pub max_rounds: usize,
    /// RNG seed (construction is deterministic given the seed).
    pub seed: u64,
    /// Estimation options used while scoring.
    pub estimate: EstimateOptions,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions {
            budget_bytes: 50 * 1024,
            candidates_per_round: 8,
            sample_queries: 16,
            refinements_per_round: 1,
            edge_refine_step: 48,
            value_refine_step: 24,
            workload_with_values: false,
            strict_tsn: false,
            max_rounds: 100_000,
            seed: 0xC0FFEE,
            estimate: EstimateOptions::default(),
        }
    }
}

/// One round of the build, for tracing/plots.
#[derive(Debug, Clone)]
pub struct RoundInfo {
    /// Human-readable description of the applied refinement(s).
    pub applied: Vec<String>,
    /// Synopsis size after the round.
    pub size_bytes: usize,
    /// Error of the (new) synopsis on this round's sample workload.
    pub sample_error: f64,
}

/// Trace of an XBUILD run.
#[derive(Debug, Clone, Default)]
pub struct BuildTrace {
    /// Per-round records in application order.
    pub rounds: Vec<RoundInfo>,
}

/// Runs XBUILD from the coarse synopsis. Returns the built synopsis and
/// the round trace.
pub fn xbuild(
    doc: &Document,
    truth: TruthSource<'_>,
    opts: &BuildOptions,
) -> (Synopsis, BuildTrace) {
    xbuild_from(coarse_synopsis(doc), doc, truth, opts)
}

/// Continues XBUILD from an existing synopsis (used by budget sweeps that
/// checkpoint at increasing sizes).
pub fn xbuild_from(
    s: Synopsis,
    doc: &Document,
    truth: TruthSource<'_>,
    opts: &BuildOptions,
) -> (Synopsis, BuildTrace) {
    xbuild_from_with_workload(s, doc, truth, opts, &[])
}

/// XBUILD tuned to a target workload: every round scores candidates on a
/// mix of the region-sampled queries (§5) and a slice of the supplied
/// query log, so the synopsis concentrates its budget on the shapes the
/// application actually asks. Pass an empty slice to recover plain
/// [`xbuild_from`].
pub fn xbuild_from_with_workload(
    mut s: Synopsis,
    doc: &Document,
    truth: TruthSource<'_>,
    opts: &BuildOptions,
    target_workload: &[TwigQuery],
) -> (Synopsis, BuildTrace) {
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut trace = BuildTrace::default();
    let mut rounds = 0;
    let mut stalls = 0u32;
    while s.size_bytes() < opts.budget_bytes && rounds < opts.max_rounds {
        rounds += 1;
        telemetry::global().xbuild_rounds.incr();
        let candidates = gen_candidates(&s, doc, opts, &mut rng);
        if candidates.is_empty() {
            break;
        }
        let regions: Vec<SynId> = candidates.iter().flat_map(|c| c.affected_nodes()).collect();
        let mut queries = sample_region_workload(
            doc,
            &s,
            &regions,
            opts.sample_queries,
            opts.workload_with_values,
            &mut rng,
        );
        if !target_workload.is_empty() {
            // Blend in up to `sample_queries` log queries per round,
            // rotating through the log so every shape gets its turn.
            let take = opts.sample_queries.max(1).min(target_workload.len());
            for k in 0..take {
                let idx = (rounds * take + k) % target_workload.len();
                queries.push(target_workload[idx].clone());
            }
        }
        if queries.is_empty() {
            break;
        }
        // A reference truth source is compiled once per round, not once
        // per query.
        let truths: Vec<f64> = match truth {
            TruthSource::Reference(r) => {
                let cr = CompiledSynopsis::compile(r);
                queries
                    .iter()
                    .map(|q| cr.estimate_report(q, &opts.estimate).estimate)
                    .collect()
            }
            TruthSource::Exact => queries.iter().map(|q| selectivity(doc, q) as f64).collect(),
        };
        let base_err = workload_error(&s, &queries, &truths, &opts.estimate);
        let base_size = s.size_bytes();

        // Score candidates by marginal gain (q - q_r)/(s_r - s). Each
        // candidate is applied to its own clone, so scoring parallelizes
        // across scoped threads (clone + rebuild + estimate dominate the
        // round's cost); results keep candidate order for determinism.
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(candidates.len().max(1));
        let slots: Vec<std::sync::Mutex<Option<f64>>> = candidates
            .iter()
            .map(|_| std::sync::Mutex::new(None))
            .collect();
        if threads <= 1 {
            for (r, slot) in candidates.iter().zip(&slots) {
                *slot
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner) =
                    score_candidate(&s, doc, r, &queries, &truths, base_err, base_size, opts);
            }
        } else {
            let next = std::sync::atomic::AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    let s = &s;
                    let queries = &queries;
                    let truths = &truths;
                    let candidates = &candidates;
                    let slots = &slots;
                    let next = &next;
                    scope.spawn(move || loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(r) = candidates.get(i) else { break };
                        let g =
                            score_candidate(s, doc, r, queries, truths, base_err, base_size, opts);
                        *slots[i]
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner) = g;
                    });
                }
            });
        }
        let scored: Vec<(f64, usize, Refinement)> = candidates
            .into_iter()
            .zip(slots)
            .enumerate()
            .filter_map(|(i, (r, slot))| {
                slot.into_inner()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .map(|g| (g, i, r))
            })
            .collect();
        let mut scored = scored;
        if scored.is_empty() {
            break;
        }
        // Total order: gain descending, then generation index ascending.
        // `total_cmp` makes NaN gains sort deterministically (last), and
        // the index tiebreak pins equal-gain candidates to generation
        // order — the ranking no longer depends on incidental memory or
        // thread-completion order.
        scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        // The paper applies the max-gain refinement unconditionally; we
        // skip rounds where every candidate hurts the sample workload
        // (re-sampling next round), but force progress after repeated
        // stalls so the budget loop terminates.
        if scored[0].0 <= 0.0 && stalls < 3 {
            stalls += 1;
            continue;
        }
        stalls = 0;

        let mut applied = Vec::new();
        for (gain, _, r) in scored.into_iter().take(opts.refinements_per_round.max(1)) {
            if s.size_bytes() >= opts.budget_bytes {
                break;
            }
            if gain < 0.0 && !applied.is_empty() {
                break; // only the forced-progress head may be negative
            }
            if r.apply(&mut s, doc) {
                applied.push(refinement_name(&r));
            }
        }
        if applied.is_empty() {
            break;
        }
        let err_now = workload_error(&s, &queries, &truths, &opts.estimate);
        trace.rounds.push(RoundInfo {
            applied,
            size_bytes: s.size_bytes(),
            sample_error: err_now,
        });
        // Fsck the synopsis after every refinement round in debug builds:
        // a refinement that breaks an invariant is caught at the round
        // that introduced it, not at estimation time.
        #[cfg(debug_assertions)]
        if let Err(report) = crate::validate::validate(&s) {
            debug_assert!(
                false,
                "synopsis fsck failed after refinement round {rounds}: {report}"
            );
        }
    }
    (s, trace)
}

/// Applies `r` to a clone of `s` and returns its marginal gain on the
/// sample workload, or `None` when the refinement is a no-op.
#[allow(clippy::too_many_arguments)]
fn score_candidate(
    s: &Synopsis,
    doc: &Document,
    r: &Refinement,
    queries: &[TwigQuery],
    truths: &[f64],
    base_err: f64,
    base_size: usize,
    opts: &BuildOptions,
) -> Option<f64> {
    telemetry::global().xbuild_candidates_scored.incr();
    let mut sr = s.clone();
    if !r.apply(&mut sr, doc) {
        return None;
    }
    // Compile the refined clone once; every query in the sample workload
    // is then pure index arithmetic instead of hashmap probes.
    let cr = CompiledSynopsis::compile(&sr);
    let err = workload_error_compiled(&cr, queries, truths, &opts.estimate);
    let delta = sr.size_bytes().saturating_sub(base_size).max(1);
    Some((base_err - err) / delta as f64)
}

fn refinement_name(r: &Refinement) -> String {
    match r {
        Refinement::BStabilize { parent, child } => format!("b-stabilize {parent}->{child}"),
        Refinement::FStabilize { parent, child } => format!("f-stabilize {parent}->{child}"),
        Refinement::EdgeRefine { node, .. } => format!("edge-refine {node}"),
        Refinement::EdgeExpand { node, dim } => {
            format!("edge-expand {node} += {}->{}", dim.parent, dim.child)
        }
        Refinement::ValueRefine { node, .. } => format!("value-refine {node}"),
        Refinement::ValueExpand {
            node, value_source, ..
        } => {
            format!("value-expand {node} x {value_source:?}")
        }
    }
}

/// Average absolute relative error with the paper's sanity bound: the
/// 10th percentile of the true counts (so tiny-count queries do not blow
/// the percentage up).
pub fn workload_error(
    s: &Synopsis,
    queries: &[TwigQuery],
    truths: &[f64],
    opts: &EstimateOptions,
) -> f64 {
    workload_error_compiled(&CompiledSynopsis::compile(s), queries, truths, opts)
}

/// [`workload_error`] over an already-compiled synopsis, so callers
/// scoring many workloads against one synopsis pay the lowering once.
pub fn workload_error_compiled(
    cs: &CompiledSynopsis<'_>,
    queries: &[TwigQuery],
    truths: &[f64],
    opts: &EstimateOptions,
) -> f64 {
    debug_assert_eq!(queries.len(), truths.len());
    if queries.is_empty() {
        return 0.0;
    }
    let sanity = percentile10(truths).max(1.0);
    let mut acc = 0.0;
    for (q, &t) in queries.iter().zip(truths) {
        let est = cs.estimate_report(q, opts).estimate;
        acc += (est - t).abs() / t.max(sanity);
    }
    acc / queries.len() as f64
}

fn percentile10(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[(v.len() - 1) / 10]
}

/// Proposes candidate refinements: nodes are sampled with probability
/// proportional to `extent × (1 + unstable incident edges)` (§5), and each
/// sampled node contributes the applicable operations.
fn gen_candidates(
    s: &Synopsis,
    doc: &Document,
    opts: &BuildOptions,
    rng: &mut StdRng,
) -> Vec<Refinement> {
    let ids: Vec<SynId> = s.node_ids().collect();
    let weights: Vec<f64> = ids
        .iter()
        .map(|&n| {
            let unstable_in = s
                .parents_of(n)
                .iter()
                .filter(|&&u| !s.is_b_stable(u, n))
                .count();
            let unstable_out = s
                .children_of(n)
                .iter()
                .filter(|&&v| !s.is_f_stable(n, v))
                .count();
            s.extent_size(n) as f64 * (1.0 + (unstable_in + unstable_out) as f64)
        })
        .collect();
    let total: f64 = weights.iter().sum();
    if total <= 0.0 {
        return Vec::new();
    }
    let mut picked: Vec<SynId> = Vec::new();
    for _ in 0..opts.candidates_per_round {
        let mut x = rng.random_range(0.0..total);
        for (i, &w) in weights.iter().enumerate() {
            if x < w {
                if !picked.contains(&ids[i]) {
                    picked.push(ids[i]);
                }
                break;
            }
            x -= w;
        }
    }

    let mut out: Vec<Refinement> = Vec::new();
    let push = |r: Refinement, out: &mut Vec<Refinement>| {
        if !out.contains(&r) {
            out.push(r);
        }
    };
    for n in picked {
        // Structural refinements on one unstable incident edge each.
        let unstable_in: Vec<SynId> = s
            .parents_of(n)
            .iter()
            .copied()
            .filter(|&u| !s.is_b_stable(u, n))
            .collect();
        if !unstable_in.is_empty() {
            let u = unstable_in[rng.random_range(0..unstable_in.len())];
            push(
                Refinement::BStabilize {
                    parent: u,
                    child: n,
                },
                &mut out,
            );
        }
        let unstable_out: Vec<SynId> = s
            .children_of(n)
            .iter()
            .copied()
            .filter(|&v| !s.is_f_stable(n, v))
            .collect();
        if !unstable_out.is_empty() {
            let v = unstable_out[rng.random_range(0..unstable_out.len())];
            push(
                Refinement::FStabilize {
                    parent: n,
                    child: v,
                },
                &mut out,
            );
        }
        // Edge refinements.
        let h = s.edge_hist(n);
        if !h.scope.is_empty() && h.hist.buckets().len() < h.distinct_points {
            push(
                Refinement::EdgeRefine {
                    node: n,
                    extra_bytes: opts.edge_refine_step,
                },
                &mut out,
            );
        }
        if let Some(dim) = best_expand_dim_with(s, doc, n, opts.strict_tsn) {
            push(Refinement::EdgeExpand { node: n, dim }, &mut out);
        }
        // Value refinements.
        if let Some(vs) = s.value_summary(n) {
            if (vs.hist.bucket_count() as u64) < vs.hist.total() {
                push(
                    Refinement::ValueRefine {
                        node: n,
                        extra_bytes: opts.value_refine_step,
                    },
                    &mut out,
                );
            }
        }
        if opts.workload_with_values {
            if let Some(value_source) = best_value_expand(s, doc, n) {
                push(
                    Refinement::ValueExpand {
                        node: n,
                        value_source,
                        budget_bytes: 96,
                    },
                    &mut out,
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use xtwig_xml::DocumentBuilder;

    /// A skewed document where correlation matters: half the `movie`
    /// elements (action) have many actors and producers; the rest
    /// (documentary) have few.
    fn skewed_doc() -> Document {
        let mut b = DocumentBuilder::new();
        let mut rng = StdRng::seed_from_u64(9);
        b.open("movies", None);
        for i in 0..120 {
            b.open("movie", None);
            let action = i % 2 == 0;
            b.leaf("type", Some(if action { 1 } else { 2 }));
            let actors = if action {
                rng.random_range(8..14)
            } else {
                rng.random_range(0..2)
            };
            let producers = if action {
                rng.random_range(3..6)
            } else {
                rng.random_range(0..2)
            };
            for _ in 0..actors {
                b.leaf("actor", None);
            }
            for _ in 0..producers {
                b.leaf("producer", None);
            }
            b.close();
        }
        b.close();
        b.finish()
    }

    #[test]
    fn xbuild_reduces_error_within_budget() {
        let doc = skewed_doc();
        let coarse = coarse_synopsis(&doc);
        let start_size = coarse.size_bytes();
        let opts = BuildOptions {
            budget_bytes: start_size + 600,
            candidates_per_round: 6,
            sample_queries: 10,
            refinements_per_round: 2,
            max_rounds: 60,
            seed: 42,
            ..Default::default()
        };
        let (built, trace) = xbuild(&doc, TruthSource::Exact, &opts);
        built.check_invariants(&doc).unwrap();
        assert!(built.size_bytes() >= start_size);
        assert!(!trace.rounds.is_empty());
        // The built synopsis must beat the coarse one on the correlated
        // twig the data is engineered around.
        let q =
            xtwig_query::parse_twig("for $t0 in //movie, $t1 in $t0/actor, $t2 in $t0/producer")
                .unwrap();
        let truth = xtwig_query::selectivity(&doc, &q) as f64;
        let err = |s: &Synopsis| {
            let est = CompiledSynopsis::compile(s)
                .estimate_report(&q, &EstimateOptions::default())
                .estimate;
            (est - truth).abs() / truth
        };
        let (coarse_err, built_err) = (err(&coarse), err(&built));
        assert!(
            built_err <= coarse_err + 1e-9,
            "built {built_err} vs coarse {coarse_err}"
        );
    }

    #[test]
    fn xbuild_respects_budget_and_is_deterministic() {
        let doc = skewed_doc();
        let coarse_size = coarse_synopsis(&doc).size_bytes();
        let opts = BuildOptions {
            budget_bytes: coarse_size + 300,
            candidates_per_round: 4,
            sample_queries: 6,
            max_rounds: 40,
            seed: 7,
            ..Default::default()
        };
        let (a, _) = xbuild(&doc, TruthSource::Exact, &opts);
        let (b, _) = xbuild(&doc, TruthSource::Exact, &opts);
        assert_eq!(a.size_bytes(), b.size_bytes());
        assert_eq!(a.node_count(), b.node_count());
        // One refinement may overshoot slightly; the loop stops right after.
        assert!(
            a.size_bytes() <= opts.budget_bytes + 2048,
            "{}",
            a.size_bytes()
        );
    }

    #[test]
    fn reference_truth_source_works() {
        let doc = skewed_doc();
        // Build a "reference" with a generous budget, then a small synopsis
        // scored against it.
        let ref_opts = BuildOptions {
            budget_bytes: coarse_synopsis(&doc).size_bytes() + 400,
            max_rounds: 20,
            refinements_per_round: 2,
            seed: 3,
            ..Default::default()
        };
        let (reference, _) = xbuild(&doc, TruthSource::Exact, &ref_opts);
        let opts = BuildOptions {
            budget_bytes: coarse_synopsis(&doc).size_bytes() + 150,
            max_rounds: 10,
            seed: 4,
            ..Default::default()
        };
        let (built, _) = xbuild(&doc, TruthSource::Reference(&reference), &opts);
        built.check_invariants(&doc).unwrap();
    }

    #[test]
    fn workload_error_sanity_bound() {
        let doc = skewed_doc();
        let s = coarse_synopsis(&doc);
        let q = xtwig_query::parse_twig("for $t0 in //movie").unwrap();
        let truths = vec![120.0];
        let err = workload_error(
            &s,
            std::slice::from_ref(&q),
            &truths,
            &EstimateOptions::default(),
        );
        assert!(
            err < 1e-9,
            "exact count query should have zero error, got {err}"
        );
        // Zero-truth query: sanity bound keeps the error finite.
        let qneg = xtwig_query::parse_twig("for $t0 in //movie, $t1 in $t0/zzz").unwrap();
        let err2 = workload_error(&s, &[qneg], &[0.0], &EstimateOptions::default());
        assert!(err2.is_finite());
    }
}

#[cfg(test)]
mod workload_aware_tests {
    use super::*;
    use crate::coarse::coarse_synopsis;
    use rand::rngs::StdRng;

    /// Document where one rare correlated region matters only to the log.
    fn doc() -> Document {
        let mut b = xtwig_xml::DocumentBuilder::new();
        let mut rng = StdRng::seed_from_u64(77);
        b.open("shop", None);
        for i in 0..150 {
            b.open("order", None);
            let rush = i % 10 == 0;
            b.leaf("rush", Some(if rush { 1 } else { 0 }));
            for _ in 0..(if rush { 9 } else { rng.random_range(0..2u32) }) {
                b.leaf("item", None);
            }
            for _ in 0..(if rush { 4 } else { 1 }) {
                b.leaf("note", None);
            }
            b.close();
        }
        b.close();
        b.finish()
    }

    #[test]
    fn log_queries_steer_the_budget() {
        let d = doc();
        let log = vec![xtwig_query::parse_twig(
            "for $t0 in //order[rush = 1], $t1 in $t0/item, $t2 in $t0/note",
        )
        .unwrap()];
        let truth = xtwig_query::selectivity(&d, &log[0]) as f64;
        let coarse = coarse_synopsis(&d);
        let budget = coarse.size_bytes() + 700;
        let opts = BuildOptions {
            budget_bytes: budget,
            refinements_per_round: 2,
            candidates_per_round: 6,
            sample_queries: 8,
            workload_with_values: true,
            max_rounds: 60,
            seed: 5,
            ..Default::default()
        };
        let (tuned, _) =
            xbuild_from_with_workload(coarse.clone(), &d, TruthSource::Exact, &opts, &log);
        let (blind, _) = xbuild_from(coarse, &d, TruthSource::Exact, &opts);
        let err = |s: &Synopsis| {
            let est = CompiledSynopsis::compile(s)
                .estimate_report(&log[0], &EstimateOptions::default())
                .estimate;
            (est - truth).abs() / truth
        };
        let (tuned_err, blind_err) = (err(&tuned), err(&blind));
        assert!(
            tuned_err <= blind_err + 1e-9,
            "tuned {tuned_err:.4} should not lose to blind {blind_err:.4}"
        );
        assert!(tuned_err < 0.35, "tuned error {tuned_err:.4} too high");
    }
}
