//! Path expansion against the synopsis graph.
//!
//! Expands a path expression into the set of concrete synopsis chains it
//! can traverse: `/label` steps follow synopsis edges to nodes with the
//! tag, `//label` steps enumerate every downward synopsis path (bounded by
//! the document depth) ending at the tag. Step predicates are resolved per
//! chain link: self value predicates become a value range on the link,
//! and branching predicates are folded into a per-link existence fraction
//! via the single-path estimator.

use crate::estimate::guard::Meter;
use crate::estimate::{EstimateOptions, SynopsisView};
use crate::single_path::branch_fraction;
use crate::synopsis::SynId;
use xtwig_query::{Axis, PathExpr, Step};

/// A single-step branching predicate with a value restriction, kept
/// symbolic so the evaluator can route it through a joint value×count
/// summary (`H^v(V, C)`) when one is recorded: `[tag op const]` resolved
/// to the synopsis child node carrying the tag.
#[derive(Debug, Clone, PartialEq)]
pub struct BranchValue {
    /// The synopsis child node the branch step matched.
    pub child: SynId,
    /// The value restriction on the branch target.
    pub range: (i64, i64),
    /// Existence-fraction fallback used when no joint summary applies.
    pub fallback: f64,
}

/// One node of an expanded chain with its resolved step predicates.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainLink {
    /// The synopsis node this chain position binds to.
    pub syn: SynId,
    /// Self-value restriction from the step's predicates, if any.
    pub value_range: Option<(i64, i64)>,
    /// Product of the existence fractions of the step's branching
    /// predicates that could not stay symbolic (1.0 when there are none).
    pub pred_fraction: f64,
    /// Symbolic single-step branch-value predicates.
    pub branch_values: Vec<BranchValue>,
}

impl ChainLink {
    fn plain(syn: SynId) -> ChainLink {
        ChainLink {
            syn,
            value_range: None,
            pred_fraction: 1.0,
            branch_values: Vec::new(),
        }
    }
}

/// An expanded synopsis chain for one path expression.
#[derive(Debug, Clone, PartialEq)]
pub struct Chain {
    /// The chain links in navigation order. For absolute expansions the
    /// first link is the synopsis root node; for relative expansions the
    /// context node is *not* included.
    pub nodes: Vec<ChainLink>,
}

/// Expands an absolute path: the first child-axis step must match the
/// synopsis root node's tag; a first descendant-axis step may land
/// anywhere below (or at) the root. Every returned chain starts at the
/// synopsis root node.
pub fn expand_path_absolute<S: SynopsisView + ?Sized>(
    s: &S,
    path: &PathExpr,
    opts: &EstimateOptions,
) -> Vec<Chain> {
    expand_path_absolute_metered(s, path, opts, &mut Meter::from_options(opts))
}

/// [`expand_path_absolute`] charging a caller-owned budget [`Meter`]; on
/// exhaustion the chains expanded so far are returned.
pub fn expand_path_absolute_metered<S: SynopsisView + ?Sized>(
    s: &S,
    path: &PathExpr,
    opts: &EstimateOptions,
    meter: &mut Meter,
) -> Vec<Chain> {
    let root = s.root();
    let Some(first) = path.steps.first() else {
        return Vec::new();
    };
    let mut heads: Vec<Vec<ChainLink>> = Vec::new();
    match first.axis {
        Axis::Child => {
            if s.tag(root) == first.label {
                heads.push(vec![resolve_link(s, root, first, opts)]);
            }
        }
        Axis::Descendant => {
            // `//label` from the document top: the root itself or any
            // descendant path from the root.
            if s.tag(root) == first.label {
                heads.push(vec![resolve_link(s, root, first, opts)]);
            }
            for mut tail in descendant_chains(s, root, &first.label, opts, meter) {
                let Some(last) = tail.pop() else { continue };
                let mut chain = vec![ChainLink::plain(root)];
                chain.extend(tail.into_iter().map(ChainLink::plain));
                chain.push(resolve_link(s, last, first, opts));
                heads.push(chain);
            }
        }
    }
    extend_chains(s, heads, &path.steps[1..], opts, meter)
        .into_iter()
        .map(|nodes| Chain { nodes })
        .collect()
}

/// Expands a relative path from context node `from`. Returned chains do
/// not include `from` itself.
pub fn expand_path_from<S: SynopsisView + ?Sized>(
    s: &S,
    from: SynId,
    path: &PathExpr,
    opts: &EstimateOptions,
) -> Vec<Chain> {
    expand_path_from_metered(s, from, path, opts, &mut Meter::from_options(opts))
}

/// [`expand_path_from`] charging a caller-owned budget [`Meter`]; on
/// exhaustion the chains expanded so far are returned.
pub fn expand_path_from_metered<S: SynopsisView + ?Sized>(
    s: &S,
    from: SynId,
    path: &PathExpr,
    opts: &EstimateOptions,
    meter: &mut Meter,
) -> Vec<Chain> {
    let Some(first) = path.steps.first() else {
        return Vec::new();
    };
    let mut heads: Vec<Vec<ChainLink>> = Vec::new();
    match first.axis {
        Axis::Child => {
            for &v in s.children_of(from) {
                if s.tag(v) == first.label {
                    heads.push(vec![resolve_link(s, v, first, opts)]);
                }
            }
        }
        Axis::Descendant => {
            for mut tail in descendant_chains(s, from, &first.label, opts, meter) {
                let Some(last) = tail.pop() else { continue };
                let mut chain: Vec<ChainLink> = tail.into_iter().map(ChainLink::plain).collect();
                chain.push(resolve_link(s, last, first, opts));
                heads.push(chain);
            }
        }
    }
    extend_chains(s, heads, &path.steps[1..], opts, meter)
        .into_iter()
        .map(|nodes| Chain { nodes })
        .collect()
}

/// Resolves a step's predicates at synopsis node `v`.
fn resolve_link<S: SynopsisView + ?Sized>(
    s: &S,
    v: SynId,
    step: &Step,
    opts: &EstimateOptions,
) -> ChainLink {
    let mut value_range: Option<(i64, i64)> = None;
    let mut pred_fraction = 1.0;
    let mut branch_values = Vec::new();
    for p in &step.preds {
        let Some(path) = &p.path else {
            // A self predicate without a range (`[.]`) is vacuous.
            let Some(r) = p.value else { continue };
            value_range = Some(match value_range {
                None => (r.lo, r.hi),
                Some((lo, hi)) => (lo.max(r.lo), hi.min(r.hi)),
            });
            continue;
        };
        // Keep `[tag op const]` symbolic when the branch maps to exactly
        // one synopsis child, so the evaluator may use a joint summary.
        let symbolic = match (&p.value, path.steps.as_slice()) {
            (Some(r), [only]) if only.axis == xtwig_query::Axis::Child && only.preds.is_empty() => {
                let mut tagged = s
                    .children_of(v)
                    .iter()
                    .copied()
                    .filter(|&c| s.tag(c) == only.label);
                match (tagged.next(), tagged.next()) {
                    (Some(child), None) => Some((child, (r.lo, r.hi))),
                    _ => None,
                }
            }
            _ => None,
        };
        match symbolic {
            Some((child, range)) => branch_values.push(BranchValue {
                child,
                range,
                fallback: branch_fraction(s, v, p, opts),
            }),
            None => pred_fraction *= branch_fraction(s, v, p, opts),
        }
    }
    ChainLink {
        syn: v,
        value_range,
        pred_fraction,
        branch_values,
    }
}

/// Extends partial chains over the remaining steps, charging the meter
/// one unit per candidate extension.
fn extend_chains<S: SynopsisView + ?Sized>(
    s: &S,
    mut chains: Vec<Vec<ChainLink>>,
    steps: &[Step],
    opts: &EstimateOptions,
    meter: &mut Meter,
) -> Vec<Vec<ChainLink>> {
    for step in steps {
        let mut next: Vec<Vec<ChainLink>> = Vec::new();
        for chain in &chains {
            if !meter.proceed(1) {
                return next;
            }
            let Some(anchor) = chain.last().map(|l| l.syn) else {
                continue;
            };
            match step.axis {
                Axis::Child => {
                    for &v in s.children_of(anchor) {
                        if s.tag(v) == step.label {
                            let mut c = chain.clone();
                            c.push(resolve_link(s, v, step, opts));
                            next.push(c);
                        }
                    }
                }
                Axis::Descendant => {
                    for mut tail in descendant_chains(s, anchor, &step.label, opts, meter) {
                        let Some(last) = tail.pop() else { continue };
                        let mut c = chain.clone();
                        c.extend(tail.into_iter().map(ChainLink::plain));
                        c.push(resolve_link(s, last, step, opts));
                        next.push(c);
                    }
                }
            }
            if next.len() > opts.max_embeddings {
                next.truncate(opts.max_embeddings);
                break;
            }
        }
        chains = next;
        if chains.is_empty() {
            break;
        }
    }
    chains
}

/// Enumerates downward synopsis paths `from → x1 → … → xk` (k ≥ 1, `from`
/// excluded from the result) whose final node carries `label`. Bounded by
/// the synopsis' recorded document depth (or the option override) and by
/// the embedding cap, so synopsis cycles (recursive document structures)
/// terminate.
fn descendant_chains<S: SynopsisView + ?Sized>(
    s: &S,
    from: SynId,
    label: &str,
    opts: &EstimateOptions,
    meter: &mut Meter,
) -> Vec<Vec<SynId>> {
    let max_len = if opts.max_descendant_len > 0 {
        opts.max_descendant_len
    } else {
        s.max_depth().max(1)
    };
    let mut out: Vec<Vec<SynId>> = Vec::new();
    let mut stack: Vec<SynId> = Vec::new();
    descend(
        s,
        from,
        label,
        max_len,
        opts.max_embeddings,
        &mut stack,
        &mut out,
        meter,
    );
    out
}

#[allow(clippy::too_many_arguments)]
fn descend<S: SynopsisView + ?Sized>(
    s: &S,
    at: SynId,
    label: &str,
    remaining: usize,
    cap: usize,
    stack: &mut Vec<SynId>,
    out: &mut Vec<Vec<SynId>>,
    meter: &mut Meter,
) {
    if remaining == 0 || out.len() >= cap {
        return;
    }
    for &v in s.children_of(at) {
        if out.len() >= cap || !meter.proceed(1) {
            return;
        }
        stack.push(v);
        if s.tag(v) == label {
            out.push(stack.clone());
        }
        descend(s, v, label, remaining - 1, cap, stack, out, meter);
        stack.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coarse::coarse_synopsis;
    use xtwig_query::parse_path;
    use xtwig_xml::parse;

    fn doc() -> xtwig_xml::Document {
        parse("<bib><author><name/><paper><title/><keyword/></paper></author><journal><paper><title/></paper></journal></bib>").unwrap()
    }

    #[test]
    fn absolute_child_expansion() {
        let d = doc();
        let s = coarse_synopsis(&d);
        let p = parse_path("/bib/author/paper").unwrap();
        let chains = expand_path_absolute(&s, &p, &EstimateOptions::default());
        assert_eq!(chains.len(), 1);
        let tags: Vec<&str> = chains[0].nodes.iter().map(|l| s.tag(l.syn)).collect();
        assert_eq!(tags, vec!["bib", "author", "paper"]);
    }

    #[test]
    fn absolute_wrong_root_tag_yields_nothing() {
        let d = doc();
        let s = coarse_synopsis(&d);
        let p = parse_path("/library/author").unwrap();
        assert!(expand_path_absolute(&s, &p, &EstimateOptions::default()).is_empty());
    }

    #[test]
    fn descendant_expansion_finds_all_paths() {
        let d = doc();
        let s = coarse_synopsis(&d);
        // //paper reaches the paper node via author and via journal — in
        // the label-split synopsis that is two distinct chains to the same
        // node.
        let p = parse_path("//paper").unwrap();
        let chains = expand_path_absolute(&s, &p, &EstimateOptions::default());
        assert_eq!(chains.len(), 2);
        for c in &chains {
            assert_eq!(s.tag(c.nodes[0].syn), "bib");
            assert_eq!(s.tag(c.nodes.last().unwrap().syn), "paper");
        }
        // //title: under paper only, but paper is reachable two ways.
        let p2 = parse_path("//title").unwrap();
        assert_eq!(
            expand_path_absolute(&s, &p2, &EstimateOptions::default()).len(),
            2
        );
    }

    #[test]
    fn relative_expansion_excludes_context() {
        let d = doc();
        let s = coarse_synopsis(&d);
        let author = s.nodes_with_tag("author")[0];
        let p = parse_path("/paper/keyword").unwrap();
        let chains = expand_path_from(&s, author, &p, &EstimateOptions::default());
        assert_eq!(chains.len(), 1);
        let tags: Vec<&str> = chains[0].nodes.iter().map(|l| s.tag(l.syn)).collect();
        assert_eq!(tags, vec!["paper", "keyword"]);
    }

    #[test]
    fn predicates_are_resolved_per_link() {
        let d = doc();
        let s = coarse_synopsis(&d);
        let p = parse_path("//paper[keyword]").unwrap();
        let chains = expand_path_absolute(&s, &p, &EstimateOptions::default());
        assert_eq!(chains.len(), 2);
        for c in &chains {
            let last = c.nodes.last().unwrap();
            // One of two papers has a keyword: existence fraction 0.5.
            assert!((last.pred_fraction - 0.5).abs() < 1e-9);
        }
        let p2 = parse_path("/bib/author/paper/keyword[. > 10]").unwrap();
        let chains2 = expand_path_absolute(&s, &p2, &EstimateOptions::default());
        assert_eq!(
            chains2[0].nodes.last().unwrap().value_range,
            Some((11, i64::MAX))
        );
    }

    #[test]
    fn recursive_synopsis_terminates() {
        // parlist-style recursion: a self-loop in the synopsis.
        let d = parse("<r><list><item/><list><item/></list></list></r>").unwrap();
        let s = coarse_synopsis(&d);
        let p = parse_path("//item").unwrap();
        let chains = expand_path_absolute(&s, &p, &EstimateOptions::default());
        // Depth bound = max document depth (3): r/list/item, r/list/list/item.
        assert_eq!(chains.len(), 2);
    }
}

#[cfg(test)]
mod branch_value_tests {
    use super::*;
    use crate::coarse::coarse_synopsis;
    use xtwig_query::parse_path;
    use xtwig_xml::parse;

    #[test]
    fn single_step_branch_values_stay_symbolic() {
        let d = parse("<r><m><t>1</t><a/></m><m><t>2</t></m></r>").unwrap();
        let s = coarse_synopsis(&d);
        let p = parse_path("//m[t = 1]").unwrap();
        let chains = expand_path_absolute(&s, &p, &EstimateOptions::default());
        assert_eq!(chains.len(), 1);
        let link = chains[0].nodes.last().unwrap();
        assert_eq!(link.branch_values.len(), 1);
        let bv = &link.branch_values[0];
        assert_eq!(s.tag(bv.child), "t");
        assert_eq!(bv.range, (1, 1));
        // Fallback fraction: every m has a t, value fraction ~0.5.
        assert!(bv.fallback > 0.2 && bv.fallback <= 1.0, "{}", bv.fallback);
        // No fraction folded into pred_fraction for symbolic preds.
        assert!((link.pred_fraction - 1.0).abs() < 1e-12);
    }

    #[test]
    fn multi_step_branch_values_fold_into_fraction() {
        let d = parse("<r><m><x><t>1</t></x><a/></m><m><x><t>2</t></x></m></r>").unwrap();
        let s = coarse_synopsis(&d);
        let p = parse_path("//m[x/t = 1]").unwrap();
        let chains = expand_path_absolute(&s, &p, &EstimateOptions::default());
        assert_eq!(chains.len(), 1);
        let link = chains[0].nodes.last().unwrap();
        assert!(link.branch_values.is_empty());
        assert!(link.pred_fraction < 1.0);
    }

    #[test]
    fn pure_existence_branches_fold_into_fraction() {
        let d = parse("<r><m><a/></m><m/></r>").unwrap();
        let s = coarse_synopsis(&d);
        let p = parse_path("//m[a]").unwrap();
        let chains = expand_path_absolute(&s, &p, &EstimateOptions::default());
        let link = chains[0].nodes.last().unwrap();
        assert!(link.branch_values.is_empty());
        assert!((link.pred_fraction - 0.5).abs() < 1e-9);
    }
}
