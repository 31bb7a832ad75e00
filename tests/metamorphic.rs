//! Metamorphic properties of the compiled evaluator: relations between
//! the estimates of related queries that must hold whatever the data.
//!
//! **Narrowing a value range never raises the estimate.** Every value
//! predicate reaches TREEPARSE as a factor that is monotone in its
//! range: a per-bucket `overlap_share` weight on a value dimension
//! (applied after the conditional renormalisation and never
//! renormalised over), a `range_fraction` of the node's value summary,
//! or a branch-value existence fraction. Products and sums of
//! non-negative terms are monotone under IEEE rounding too, so the
//! relation holds exactly, with no tolerance: shrinking any one value
//! predicate of a query to a sub-range must give an estimate `<=` the
//! original, bit for bit. Checked on the `P+V` (`BranchingValues`)
//! workloads of all three generators, over both the coarse synopsis
//! (value-summary fractions) and an XBUILD synopsis built with value
//! refinements (value dimensions), on queries whose estimates finish
//! undegraded.

use proptest::prelude::*;
use xtwig::core::construct::{xbuild, BuildOptions, TruthSource};
use xtwig::core::estimate::EstimateOptions;
use xtwig::core::{coarse_synopsis, CompiledSynopsis};
use xtwig::datagen::{imdb, sprot, xmark, ImdbConfig, SprotConfig, XMarkConfig};
use xtwig::query::{TwigQuery, ValueRange};
use xtwig::workload::{generate_workload, WorkloadKind, WorkloadSpec};

/// Where a value predicate sits: twig node, step, predicate.
type PredAt = (usize, usize, usize);

/// Every value predicate position in `q`.
fn value_preds(q: &TwigQuery) -> Vec<(PredAt, ValueRange)> {
    let mut out = Vec::new();
    for node in q.node_refs() {
        for (si, step) in q.path(node).steps.iter().enumerate() {
            for (pi, pred) in step.preds.iter().enumerate() {
                if let Some(range) = pred.value {
                    out.push(((node, si, pi), range));
                }
            }
        }
    }
    out
}

/// `q` with the value range at `at` replaced by `range`. Nodes are
/// re-added in index order, so every index keeps its meaning.
fn with_range(q: &TwigQuery, at: PredAt, range: ValueRange) -> TwigQuery {
    let path_of = |node: usize| {
        let mut path = q.path(node).clone();
        if node == at.0 {
            path.steps[at.1].preds[at.2].value = Some(range);
        }
        path
    };
    let mut out = TwigQuery::new(path_of(q.root()));
    for node in q.node_refs().skip(1) {
        let parent = q.parent(node).expect("non-root twig nodes have a parent");
        out.add_child(parent, path_of(node));
    }
    out
}

/// Non-empty proper-or-equal sub-ranges of `r`: both halves, each end
/// trimmed by one, and each end point alone.
fn sub_ranges(r: ValueRange) -> Vec<ValueRange> {
    let (lo, hi) = (i128::from(r.lo), i128::from(r.hi));
    let mid = i64::try_from((lo + hi).div_euclid(2)).expect("midpoint of i64 bounds is an i64");
    let mut out = vec![
        ValueRange { lo: r.lo, hi: mid },
        ValueRange { lo: mid, hi: r.hi },
        ValueRange { lo: r.lo, hi: r.lo },
        ValueRange { lo: r.hi, hi: r.hi },
    ];
    if r.lo < r.hi {
        out.push(ValueRange {
            lo: r.lo + 1,
            hi: r.hi,
        });
        out.push(ValueRange {
            lo: r.lo,
            hi: r.hi - 1,
        });
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn narrowing_a_value_range_never_raises_the_estimate(
        which in 0usize..3,
        seed in 0u64..10_000,
    ) {
        let doc = match which {
            0 => xmark(XMarkConfig { scale: 0.01, seed }),
            1 => imdb(ImdbConfig::scaled(0.01, seed)),
            _ => sprot(SprotConfig::scaled(0.01, seed)),
        };
        let w = generate_workload(&doc, &WorkloadSpec {
            queries: 24,
            kind: WorkloadKind::BranchingValues,
            seed,
            ..Default::default()
        });
        let coarse = coarse_synopsis(&doc);
        let (built, _) = xbuild(&doc, TruthSource::Exact, &BuildOptions {
            budget_bytes: coarse.size_bytes() + 900,
            refinements_per_round: 3,
            max_rounds: 20,
            workload_with_values: true,
            seed,
            ..Default::default()
        });
        let opts = EstimateOptions::default();
        let mut checked = 0usize;
        for s in [&coarse, &built] {
            let cs = CompiledSynopsis::compile(s);
            for q in &w.queries {
                let base = cs.estimate_report(q, &opts);
                if base.provenance.degraded {
                    continue;
                }
                for (at, range) in value_preds(q) {
                    for sub in sub_ranges(range) {
                        let narrowed = with_range(q, at, sub);
                        let rep = cs.estimate_report(&narrowed, &opts);
                        if rep.provenance.degraded {
                            continue;
                        }
                        checked += 1;
                        prop_assert!(
                            rep.estimate <= base.estimate,
                            "{} -> {}: narrowing raised {} to {}",
                            q,
                            narrowed,
                            base.estimate,
                            rep.estimate
                        );
                    }
                }
            }
        }
        prop_assert!(checked > 0, "no value predicate was narrowed");
    }
}
