//! Path expansion against the compiled synopsis's structural columns.
//!
//! Expands a path expression into the concrete synopsis chains it can
//! traverse: `/label` steps follow synopsis edges to nodes with the tag,
//! `//label` steps enumerate every downward synopsis path (bounded by
//! the document depth) ending at the tag. Step predicates are resolved
//! per chain link: self value predicates become a value range on the
//! link, and branching predicates fold into a per-link existence
//! fraction via the single-path estimator.
//!
//! Chains live in the expansion lanes of the caller's arena
//! (`ExpandScratch`): a chain is a range of `Link`s, and extending
//! one copies its links forward in the lane instead of cloning a `Vec`.
//! Each step's label is resolved once (`resolve_steps`) into the set
//! of label ids whose name equals it, so matching a synopsis node tests
//! its label id instead of comparing strings. A branch predicate's
//! expansion runs inside a link's resolution: it pushes above the
//! caller's data and truncates back to its own mark, so the caller's
//! ranges stay valid.
//!
//! The meter is charged one unit per chain extended and one per node
//! the `//` search visits, at the same points and in the same order as
//! the reference enumerator of the test suite, so budgets trip at the
//! same operation.

use std::ops::Range;

use crate::compiled::CompiledSynopsis;
use crate::estimate::arena::ExpandScratch;
use crate::estimate::guard::Meter;
use crate::estimate::EstimateOptions;
use crate::single_path::branch_fraction_in;
use crate::synopsis::SynId;
use xtwig_query::{Axis, PathExpr, Step};

/// A single-step branching predicate with a value restriction, kept
/// symbolic so the evaluator can route it through a joint value×count
/// summary (`H^v(V, C)`) when one is recorded: `[tag op const]` resolved
/// to the synopsis child node carrying the tag.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BranchValue {
    /// The synopsis child node the branch step matched.
    pub child: SynId,
    /// The value restriction on the branch target.
    pub range: (i64, i64),
    /// Existence-fraction fallback used when no joint summary applies.
    pub fallback: f64,
}

/// One node of an expanded chain with its resolved step predicates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Link {
    /// The synopsis node this chain position binds to.
    pub(crate) syn: SynId,
    /// Self-value restriction from the step's predicates, if any.
    pub(crate) value_range: Option<(i64, i64)>,
    /// Product of the existence fractions of the step's branching
    /// predicates that could not stay symbolic (1.0 when there are none).
    pub(crate) pred_fraction: f64,
    /// The link's symbolic branch values: a range of
    /// [`ExpandScratch::link_values`].
    pub(crate) values: (usize, usize),
}

impl Link {
    /// An intermediate `//` node: no predicates.
    fn plain(syn: SynId) -> Link {
        Link {
            syn,
            value_range: None,
            pred_fraction: 1.0,
            values: (0, 0),
        }
    }
}

/// The links of chain `chain`; empty when out of range.
pub(crate) fn chain_links(sc: &ExpandScratch, chain: usize) -> &[Link] {
    sc.chains
        .get(chain)
        .and_then(|&(start, end)| sc.links.get(start..end))
        .unwrap_or(&[])
}

/// Resolves each step's label into the set of label ids whose name
/// equals it, pushed onto `step_sets`; returns the index of the first
/// step's set. Every matching id is marked, so a label table with a
/// repeated name matches exactly the nodes a string compare would.
pub(crate) fn resolve_steps(
    s: &CompiledSynopsis<'_>,
    steps: &[Step],
    sc: &mut ExpandScratch,
) -> usize {
    let first = sc.step_sets.len();
    for step in steps {
        let start = sc.label_ids.len();
        for l in 0..s.label_count() {
            if s.label_name(l) == step.label {
                sc.label_ids.push(l);
            }
        }
        sc.step_sets.push((start, sc.label_ids.len()));
    }
    first
}

/// Whether synopsis node `v` carries a label in resolved set `set`.
fn matches(s: &CompiledSynopsis<'_>, sc: &ExpandScratch, set: usize, v: SynId) -> bool {
    let label = s.node_label(v);
    sc.step_sets
        .get(set)
        .and_then(|&(start, end)| sc.label_ids.get(start..end))
        .is_some_and(|ids| ids.contains(&label))
}

/// Expands an absolute path whose steps were resolved from `set`: the
/// first child-axis step must match the synopsis root node's tag; a
/// first descendant-axis step may land anywhere below (or at) the root.
/// Every chain starts at the synopsis root node. Returns the range of
/// the new chains in [`ExpandScratch::chains`]; on meter exhaustion the
/// chains expanded so far.
pub(crate) fn expand_absolute(
    s: &CompiledSynopsis<'_>,
    path: &PathExpr,
    set: usize,
    opts: &EstimateOptions,
    meter: &mut Meter,
    sc: &mut ExpandScratch,
) -> Range<usize> {
    let start = sc.chains.len();
    let root = s.root();
    let Some(first) = path.steps.first() else {
        return start..start;
    };
    if matches(s, sc, set, root) {
        let head = resolve_link(s, root, first, opts, sc);
        push_chain(sc, (0, 0), 0..0, head);
    }
    if first.axis == Axis::Descendant {
        // `//label` from the document top: the root itself (above) or
        // any descendant path from the root, led by a plain root link.
        let lead = sc.links.len();
        sc.links.push(Link::plain(root));
        descend_from(s, root, first, set, (lead, lead + 1), opts, meter, sc);
    }
    extend_chains(s, start..sc.chains.len(), path, set, opts, meter, sc)
}

/// Expands a relative path, steps resolved from `set`, from context node
/// `from`. The chains do not include `from` itself. Returns the range of
/// the new chains; on meter exhaustion the chains expanded so far.
pub(crate) fn expand_from(
    s: &CompiledSynopsis<'_>,
    from: SynId,
    path: &PathExpr,
    set: usize,
    opts: &EstimateOptions,
    meter: &mut Meter,
    sc: &mut ExpandScratch,
) -> Range<usize> {
    let start = sc.chains.len();
    let Some(first) = path.steps.first() else {
        return start..start;
    };
    step_chains(s, from, first, set, (0, 0), opts, meter, sc);
    extend_chains(s, start..sc.chains.len(), path, set, opts, meter, sc)
}

/// Pushes one chain `links[prefix] → … → v` per synopsis path from
/// `anchor` that `step` (label set `set`) matches: a child for
/// `/label`, any downward path for `//label`.
#[allow(clippy::too_many_arguments)]
fn step_chains(
    s: &CompiledSynopsis<'_>,
    anchor: SynId,
    step: &Step,
    set: usize,
    prefix: (usize, usize),
    opts: &EstimateOptions,
    meter: &mut Meter,
    sc: &mut ExpandScratch,
) {
    match step.axis {
        Axis::Child => {
            for &v in s.children_of(anchor) {
                if matches(s, sc, set, v) {
                    let last = resolve_link(s, v, step, opts, sc);
                    push_chain(sc, prefix, 0..0, last);
                }
            }
        }
        Axis::Descendant => descend_from(s, anchor, step, set, prefix, opts, meter, sc),
    }
}

/// Pushes the chain `links[prefix] ++ path[between] ++ last`, the
/// `path` nodes as plain links.
fn push_chain(sc: &mut ExpandScratch, prefix: (usize, usize), between: Range<usize>, last: Link) {
    let start = sc.links.len();
    sc.links.extend_from_within(prefix.0..prefix.1);
    if let Some(nodes) = sc.path.get(between) {
        sc.links.extend(nodes.iter().map(|&x| Link::plain(x)));
    }
    sc.links.push(last);
    sc.chains.push((start, sc.links.len()));
}

/// Resolves a step's predicates at synopsis node `v`.
fn resolve_link(
    s: &CompiledSynopsis<'_>,
    v: SynId,
    step: &Step,
    opts: &EstimateOptions,
    sc: &mut ExpandScratch,
) -> Link {
    let mut value_range: Option<(i64, i64)> = None;
    let mut pred_fraction = 1.0;
    let values_start = sc.link_values.len();
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
            (Some(r), [only]) if only.axis == Axis::Child && only.preds.is_empty() => {
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
        // The nested expansion truncates back to its own mark, so the
        // values pushed here stay contiguous.
        let fraction = branch_fraction_in(s, v, p, opts, sc);
        match symbolic {
            Some((child, range)) => sc.link_values.push(BranchValue {
                child,
                range,
                fallback: fraction,
            }),
            None => pred_fraction *= fraction,
        }
    }
    Link {
        syn: v,
        value_range,
        pred_fraction,
        values: (values_start, sc.link_values.len()),
    }
}

/// Extends the chains `heads` over the path's remaining steps (from
/// step 1; step `k`'s label set is `set + k`), charging the meter one
/// unit per chain extended. Each step's chains are pushed above the
/// previous step's; the returned range is the last step's.
fn extend_chains(
    s: &CompiledSynopsis<'_>,
    heads: Range<usize>,
    path: &PathExpr,
    set: usize,
    opts: &EstimateOptions,
    meter: &mut Meter,
    sc: &mut ExpandScratch,
) -> Range<usize> {
    let mut chains = heads;
    for (k, step) in path.steps.iter().enumerate().skip(1) {
        let next = sc.chains.len();
        for chain in chains.clone() {
            if !meter.proceed(1) {
                return next..sc.chains.len();
            }
            let Some(&prefix) = sc.chains.get(chain) else {
                continue;
            };
            let Some(anchor) = chain_links(sc, chain).last().map(|l| l.syn) else {
                continue;
            };
            step_chains(s, anchor, step, set + k, prefix, opts, meter, sc);
            if sc.chains.len() - next > opts.max_embeddings {
                sc.chains.truncate(next + opts.max_embeddings);
                break;
            }
        }
        chains = next..sc.chains.len();
        if chains.is_empty() {
            break;
        }
    }
    chains
}

/// Pushes one chain `links[prefix] → x1 → … → xk` per downward synopsis
/// path from `from` (`from` excluded, k ≥ 1) whose final node carries a
/// label in `set`. Bounded by the synopsis' recorded document depth and
/// by the embedding cap, so synopsis cycles (recursive document
/// structures) terminate.
#[allow(clippy::too_many_arguments)]
fn descend_from(
    s: &CompiledSynopsis<'_>,
    from: SynId,
    step: &Step,
    set: usize,
    prefix: (usize, usize),
    opts: &EstimateOptions,
    meter: &mut Meter,
    sc: &mut ExpandScratch,
) {
    let max_len = s.max_depth().max(1);
    let mut search = Search {
        step,
        set,
        prefix,
        base: sc.path.len(),
        found: 0,
    };
    descend(s, from, max_len, &mut search, opts, meter, sc);
}

/// One `//` search: the step it matches and where its chains start.
struct Search<'q> {
    step: &'q Step,
    set: usize,
    /// Links every found chain starts with.
    prefix: (usize, usize),
    /// Where this search's path starts in [`ExpandScratch::path`].
    base: usize,
    /// Chains found so far.
    found: usize,
}

fn descend(
    s: &CompiledSynopsis<'_>,
    at: SynId,
    remaining: usize,
    search: &mut Search<'_>,
    opts: &EstimateOptions,
    meter: &mut Meter,
    sc: &mut ExpandScratch,
) {
    let cap = opts.max_embeddings;
    if remaining == 0 || search.found >= cap {
        return;
    }
    for &v in s.children_of(at) {
        if search.found >= cap || !meter.proceed(1) {
            return;
        }
        sc.path.push(v);
        if matches(s, sc, search.set, v) {
            let last = resolve_link(s, v, search.step, opts, sc);
            let between = search.base..sc.path.len() - 1;
            push_chain(sc, search.prefix, between, last);
            search.found += 1;
        }
        descend(s, v, remaining - 1, search, opts, meter, sc);
        sc.path.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coarse::coarse_synopsis;
    use crate::synopsis::Synopsis;
    use xtwig_query::parse_path;
    use xtwig_xml::parse;

    fn doc() -> xtwig_xml::Document {
        parse("<bib><author><name/><paper><title/><keyword/></paper></author><journal><paper><title/></paper></journal></bib>").unwrap()
    }

    /// Expands `path` (absolute, or relative to `from`) over the
    /// compiled `s` and copies the chains out of the lanes.
    fn expand(s: &Synopsis, from: Option<SynId>, path: &PathExpr) -> Vec<Vec<Link>> {
        let s = &CompiledSynopsis::compile(s);
        let mut sc = ExpandScratch::default();
        let opts = EstimateOptions::default();
        let mut meter = Meter::from_options(&opts);
        let set = resolve_steps(s, &path.steps, &mut sc);
        let chains = match from {
            None => expand_absolute(s, path, set, &opts, &mut meter, &mut sc),
            Some(f) => expand_from(s, f, path, set, &opts, &mut meter, &mut sc),
        };
        chains.map(|c| chain_links(&sc, c).to_vec()).collect()
    }

    fn tags<'s>(s: &'s Synopsis, chain: &[Link]) -> Vec<&'s str> {
        chain.iter().map(|l| s.tag(l.syn)).collect()
    }

    #[test]
    fn absolute_child_expansion() {
        let d = doc();
        let s = coarse_synopsis(&d);
        let chains = expand(&s, None, &parse_path("/bib/author/paper").unwrap());
        assert_eq!(chains.len(), 1);
        assert_eq!(tags(&s, &chains[0]), vec!["bib", "author", "paper"]);
    }

    #[test]
    fn absolute_wrong_root_tag_yields_nothing() {
        let d = doc();
        let s = coarse_synopsis(&d);
        assert!(expand(&s, None, &parse_path("/library/author").unwrap()).is_empty());
    }

    #[test]
    fn descendant_expansion_finds_all_paths() {
        let d = doc();
        let s = coarse_synopsis(&d);
        // //paper reaches the paper node via author and via journal — in
        // the label-split synopsis that is two distinct chains to the same
        // node.
        let chains = expand(&s, None, &parse_path("//paper").unwrap());
        assert_eq!(chains.len(), 2);
        for c in &chains {
            assert_eq!(s.tag(c[0].syn), "bib");
            assert_eq!(s.tag(c.last().unwrap().syn), "paper");
        }
        // //title: under paper only, but paper is reachable two ways.
        assert_eq!(expand(&s, None, &parse_path("//title").unwrap()).len(), 2);
    }

    #[test]
    fn relative_expansion_excludes_context() {
        let d = doc();
        let s = coarse_synopsis(&d);
        let author = s.nodes_with_tag("author")[0];
        let chains = expand(&s, Some(author), &parse_path("/paper/keyword").unwrap());
        assert_eq!(chains.len(), 1);
        assert_eq!(tags(&s, &chains[0]), vec!["paper", "keyword"]);
    }

    #[test]
    fn predicates_are_resolved_per_link() {
        let d = doc();
        let s = coarse_synopsis(&d);
        let chains = expand(&s, None, &parse_path("//paper[keyword]").unwrap());
        assert_eq!(chains.len(), 2);
        for c in &chains {
            // One of two papers has a keyword: existence fraction 0.5.
            assert!((c.last().unwrap().pred_fraction - 0.5).abs() < 1e-9);
        }
        let p2 = parse_path("/bib/author/paper/keyword[. > 10]").unwrap();
        let chains2 = expand(&s, None, &p2);
        assert_eq!(chains2[0].last().unwrap().value_range, Some((11, i64::MAX)));
    }

    #[test]
    fn recursive_synopsis_terminates() {
        // parlist-style recursion: a self-loop in the synopsis.
        let d = parse("<r><list><item/><list><item/></list></list></r>").unwrap();
        let s = coarse_synopsis(&d);
        let chains = expand(&s, None, &parse_path("//item").unwrap());
        // Depth bound = max document depth (3): r/list/item, r/list/list/item.
        assert_eq!(chains.len(), 2);
    }

    #[test]
    fn nested_expansion_leaves_the_lanes_as_it_found_them() {
        let d = parse("<r><m><t>1</t><a/></m><m><t>2</t></m></r>").unwrap();
        let syn = coarse_synopsis(&d);
        let s = CompiledSynopsis::compile(&syn);
        let mut sc = ExpandScratch::default();
        let opts = EstimateOptions::default();
        let path = parse_path("//m[t = 1][a]/t").unwrap();
        let set = resolve_steps(&s, &path.steps, &mut sc);
        let before = (sc.label_ids.len(), sc.step_sets.len(), sc.path.len());
        let chains = expand_absolute(&s, &path, set, &opts, &mut Meter::unlimited(), &mut sc);
        assert_eq!(chains.len(), 1);
        assert_eq!(
            before,
            (sc.label_ids.len(), sc.step_sets.len(), sc.path.len())
        );
        // The `m` link holds one symbolic branch value and a folded
        // existence fraction for `[a]`.
        let m = chain_links(&sc, chains.start)[1];
        assert_eq!(m.values.1 - m.values.0, 1);
        assert!((m.pred_fraction - 0.5).abs() < 1e-9);
    }
}

#[cfg(test)]
mod branch_value_tests {
    use super::*;
    use crate::coarse::coarse_synopsis;
    use xtwig_query::parse_path;
    use xtwig_xml::parse;

    /// The last link of the single chain `path` expands to, with its
    /// branch values.
    fn last_link(doc: &str, path: &str) -> (crate::synopsis::Synopsis, Link, Vec<BranchValue>) {
        let s = coarse_synopsis(&parse(doc).unwrap());
        let cs = CompiledSynopsis::compile(&s);
        let mut sc = ExpandScratch::default();
        let opts = EstimateOptions::default();
        let p = parse_path(path).unwrap();
        let set = resolve_steps(&cs, &p.steps, &mut sc);
        let chains = expand_absolute(&cs, &p, set, &opts, &mut Meter::unlimited(), &mut sc);
        assert_eq!(chains.len(), 1);
        let link = *chain_links(&sc, chains.start).last().unwrap();
        let values = sc.link_values[link.values.0..link.values.1].to_vec();
        (s, link, values)
    }

    #[test]
    fn single_step_branch_values_stay_symbolic() {
        let (s, link, values) =
            last_link("<r><m><t>1</t><a/></m><m><t>2</t></m></r>", "//m[t = 1]");
        assert_eq!(values.len(), 1);
        let bv = &values[0];
        assert_eq!(s.tag(bv.child), "t");
        assert_eq!(bv.range, (1, 1));
        // Fallback fraction: every m has a t, value fraction ~0.5.
        assert!(bv.fallback > 0.2 && bv.fallback <= 1.0, "{}", bv.fallback);
        // No fraction folded into pred_fraction for symbolic preds.
        assert!((link.pred_fraction - 1.0).abs() < 1e-12);
    }

    #[test]
    fn multi_step_branch_values_fold_into_fraction() {
        let (_, link, values) = last_link(
            "<r><m><x><t>1</t></x><a/></m><m><x><t>2</t></x></m></r>",
            "//m[x/t = 1]",
        );
        assert!(values.is_empty());
        assert!(link.pred_fraction < 1.0);
    }

    #[test]
    fn pure_existence_branches_fold_into_fraction() {
        let (_, link, values) = last_link("<r><m><a/></m><m/></r>", "//m[a]");
        assert!(values.is_empty());
        assert!((link.pred_fraction - 0.5).abs() < 1e-9);
    }
}
