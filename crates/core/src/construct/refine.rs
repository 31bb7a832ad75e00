//! The six refinement operations of §5.
//!
//! * **Structural**: `b-stabilize` / `f-stabilize` split a node so an edge
//!   becomes backward / forward stable in the transformed region.
//! * **Value**: `value-refine` grows a value histogram's budget;
//!   `value-expand` adds a joint value×count dimension.
//! * **Edge** (unique to Twig XSKETCHes): `edge-refine` grows an edge
//!   histogram's bucket budget; `edge-expand` adds an edge dimension to a
//!   histogram's scope, lifting an independence assumption.

use crate::synopsis::{DimKind, ScopeDim, SynId, Synopsis, ValueSource};
use std::collections::HashMap;
use xtwig_xml::Document;

/// A localized synopsis transformation considered by XBUILD.
#[derive(Debug, Clone, PartialEq)]
pub enum Refinement {
    /// Split `child` into elements with / without a parent in `parent`,
    /// making the surviving edge B-stable.
    BStabilize {
        /// Parent endpoint of the unstable edge.
        parent: SynId,
        /// Child endpoint (the node that is split).
        child: SynId,
    },
    /// Split `parent` into elements with / without a child in `child`,
    /// making the surviving edge F-stable.
    FStabilize {
        /// Parent endpoint (the node that is split).
        parent: SynId,
        /// Child endpoint of the unstable edge.
        child: SynId,
    },
    /// Grow `node`'s edge-histogram budget by `extra_bytes` and rebuild.
    EdgeRefine {
        /// The node whose histogram is refined.
        node: SynId,
        /// Additional bucket budget in bytes.
        extra_bytes: usize,
    },
    /// Add `dim` to `node`'s edge-histogram scope (budget grows by the
    /// per-bucket cost of the extra dimension).
    EdgeExpand {
        /// The node whose histogram is expanded.
        node: SynId,
        /// The new scope dimension.
        dim: ScopeDim,
    },
    /// Grow `node`'s 1-D value-histogram budget by `extra_bytes`.
    ValueRefine {
        /// The node whose value summary is refined.
        node: SynId,
        /// Additional budget in bytes.
        extra_bytes: usize,
    },
    /// Add a **value dimension** to `node`'s edge histogram — the §3.2
    /// extension `H^v(V, C1..Ck)` that jointly summarizes a value (the
    /// node's own, or a valued child's such as a movie's `type`) with all
    /// the edge counts in scope, capturing e.g. the genre / cast-size
    /// correlation of the paper's introduction.
    ValueExpand {
        /// The node whose histogram gains the value dimension.
        node: SynId,
        /// Where the value dimension comes from.
        value_source: ValueSource,
        /// Extra byte budget granted to the grown histogram.
        budget_bytes: usize,
    },
}

impl Refinement {
    /// Applies the refinement to `s`, returning whether it changed
    /// anything. Splits that would leave an empty side, expansions of
    /// already-covered dimensions, etc. return `false` without mutating.
    pub fn apply(&self, s: &mut Synopsis, doc: &Document) -> bool {
        match *self {
            Refinement::BStabilize { parent, child } => {
                if s.is_b_stable(parent, child) || s.edge(parent, child).is_none() {
                    return false;
                }
                let stay: std::collections::HashSet<_> = s
                    .extent(child)
                    .iter()
                    .copied()
                    .filter(|&e| doc.parent(e).is_some_and(|p| s.node_of(p) == parent))
                    .collect();
                s.split_node(doc, child, |e| stay.contains(&e)).is_some()
            }
            Refinement::FStabilize { parent, child } => {
                if s.is_f_stable(parent, child) || s.edge(parent, child).is_none() {
                    return false;
                }
                let stay: std::collections::HashSet<_> = s
                    .extent(parent)
                    .iter()
                    .copied()
                    .filter(|&e| doc.children(e).any(|c| s.node_of(c) == child))
                    .collect();
                s.split_node(doc, parent, |e| stay.contains(&e)).is_some()
            }
            Refinement::EdgeRefine { node, extra_bytes } => {
                let h = s.edge_hist(node);
                if h.scope.is_empty() || h.hist.buckets().len() >= h.distinct_points {
                    return false; // already exact
                }
                let scope = h.scope.clone();
                let budget = h.budget_bytes + extra_bytes;
                s.set_edge_hist(doc, node, scope, budget);
                true
            }
            Refinement::EdgeExpand { node, dim } => {
                let h = s.edge_hist(node);
                if h.dim_of(dim.parent, dim.child, dim.kind).is_some() {
                    return false;
                }
                if s.edge(dim.parent, dim.child).is_none() {
                    return false;
                }
                // A backward dim proposed earlier in the round may have
                // been invalidated by a split applied since: its anchor
                // must still be a B-stable ancestor of the owner for the
                // count to be defined over the whole extent (§3.2).
                if dim.kind == DimKind::Backward
                    && !crate::tsn::b_stable_ancestors(s, node).contains(&dim.parent)
                {
                    return false;
                }
                let mut scope = h.scope.clone();
                // Budget grows by the incremental per-bucket cost of one
                // dimension so the bucket count is roughly preserved.
                let buckets = h.hist.buckets().len().max(4);
                let budget = h.budget_bytes + 4 * buckets + 4;
                scope.push(dim);
                s.set_edge_hist(doc, node, scope, budget);
                true
            }
            Refinement::ValueRefine { node, extra_bytes } => {
                let Some(vs) = s.value_summary(node) else {
                    return false;
                };
                let total = vs.hist.total();
                if (vs.hist.bucket_count() as u64) >= total {
                    return false; // one bucket per value already
                }
                let budget = vs.budget_bytes + extra_bytes;
                s.set_value_summary(doc, node, budget);
                true
            }
            Refinement::ValueExpand {
                node,
                value_source,
                budget_bytes,
            } => {
                let h = s.edge_hist(node);
                if h.value_dim_of(node, value_source).is_some() {
                    return false;
                }
                let source_node = match value_source {
                    ValueSource::OwnValue => node,
                    ValueSource::ChildValue(z) => {
                        if s.edge(node, z).is_none() {
                            return false;
                        }
                        z
                    }
                };
                let mut scope = h.scope.clone();
                scope.push(ScopeDim {
                    parent: node,
                    child: source_node,
                    kind: DimKind::Value,
                });
                let before_dims = h.scope.len();
                let budget = h.budget_bytes + budget_bytes;
                s.set_edge_hist(doc, node, scope, budget);
                // set_edge_hist drops value dims without source values; a
                // no-op expand is reported as unchanged.
                s.edge_hist(node).scope.len() > before_dims
            }
        }
    }

    /// The synopsis nodes a refinement transforms — used to focus the
    /// sample workload on the affected region.
    pub fn affected_nodes(&self) -> Vec<SynId> {
        match *self {
            Refinement::BStabilize { parent, child } | Refinement::FStabilize { parent, child } => {
                vec![parent, child]
            }
            Refinement::EdgeRefine { node, .. } | Refinement::ValueRefine { node, .. } => {
                vec![node]
            }
            Refinement::EdgeExpand { node, dim } => vec![node, dim.parent, dim.child],
            Refinement::ValueExpand {
                node, value_source, ..
            } => match value_source {
                ValueSource::OwnValue => vec![node],
                ValueSource::ChildValue(z) => vec![node, z],
            },
        }
    }
}

/// Proposes a `value-expand` pair for `node`: a value source (own values
/// or a valued child) and a count edge, chosen to maximize the absolute
/// correlation between the value and the edge count on a bounded element
/// sample. Returns `None` when the node has no usable value source or no
/// count edge with variance.
pub fn best_value_expand(s: &Synopsis, doc: &Document, node: SynId) -> Option<ValueSource> {
    let hist = s.edge_hist(node);
    let mut sources: Vec<ValueSource> = Vec::new();
    if s.extent(node).iter().any(|&e| doc.value(e).is_some()) {
        sources.push(ValueSource::OwnValue);
    }
    for &z in s.children_of(node) {
        if s.extent(z).iter().any(|&e| doc.value(e).is_some()) {
            sources.push(ValueSource::ChildValue(z));
        }
    }
    sources.retain(|&src| hist.value_dim_of(node, src).is_none());
    if sources.is_empty() || s.children_of(node).is_empty() {
        return None;
    }
    let extent = s.extent(node);
    let stride = (extent.len() / 256).max(1);
    let sample: Vec<_> = extent.iter().step_by(stride).copied().collect();
    let mut best: Option<(f64, ValueSource)> = None;
    for &source in &sources {
        let vals: Vec<Option<f64>> = sample
            .iter()
            .map(|&e| s.source_value(doc, e, source).map(|v| v as f64))
            .collect();
        // Score the source by its strongest correlation with any child
        // edge count — the joint histogram then carries the correlation to
        // every count dimension in scope.
        for &c in s.children_of(node) {
            let mut xs = Vec::new();
            let mut ys = Vec::new();
            for (i, &e) in sample.iter().enumerate() {
                let Some(v) = vals[i] else { continue };
                xs.push(v);
                ys.push(doc.children(e).filter(|&ch| s.node_of(ch) == c).count() as f64);
            }
            if xs.len() < 4 {
                continue;
            }
            let score = correlation(&xs, &ys).abs() * variance(&ys).clamp(0.01, 1.0);
            if best.as_ref().is_none_or(|(b, _)| score > *b) {
                best = Some((score, source));
            }
        }
    }
    best.filter(|(score, _)| *score > 0.05).map(|(_, src)| src)
}

/// Proposes an `edge-expand` dimension for `node`: the TSN candidate whose
/// counts correlate most with the product of the counts already in scope
/// (§3.2: "the construction algorithm includes in `H_i` the most highly
/// correlated path counts"). `strict_tsn` toggles the strict candidate
/// rule (see [`candidate_dims_with`](crate::tsn::candidate_dims_with)).
/// Returns `None` when nothing qualifies.
pub fn best_expand_dim_with(
    s: &Synopsis,
    doc: &Document,
    node: SynId,
    strict_tsn: bool,
) -> Option<ScopeDim> {
    let hist = s.edge_hist(node);
    // Backward dims only pay off when the node has forward counts to
    // condition (a childless node's histogram never enumerates anything,
    // so ancestor context would be dead weight in the budget).
    let has_forward = !s.children_of(node).is_empty();
    let candidates: Vec<ScopeDim> = crate::tsn::candidate_dims_with(s, node, strict_tsn)
        .into_iter()
        .filter(|d| hist.dim_of(d.parent, d.child, d.kind).is_none())
        .filter(|d| d.kind != DimKind::Backward || has_forward)
        .collect();
    if candidates.is_empty() {
        return None;
    }
    // Evaluate correlation on a bounded element sample.
    let extent = s.extent(node);
    let stride = (extent.len() / 256).max(1);
    let sample: Vec<_> = extent.iter().step_by(stride).copied().collect();
    let existing = &hist.scope;
    let mut counts = DimCounts::default();
    // The product of the in-scope counts does not depend on the candidate.
    let ys: Vec<f64> = sample
        .iter()
        .map(|&e| {
            existing
                .iter()
                .map(|d| counts.get(s, doc, e, d))
                .product::<f64>()
        })
        .collect();
    let mut best: Option<(f64, ScopeDim)> = None;
    for cand in candidates {
        let xs: Vec<f64> = sample
            .iter()
            .map(|&e| counts.get(s, doc, e, &cand))
            .collect();
        let score = if existing.is_empty() {
            // No scope yet: prefer the dimension with the most variance.
            variance(&xs)
        } else {
            correlation(&xs, &ys).abs()
        };
        if best.as_ref().is_none_or(|(b, _)| score > *b) {
            best = Some((score, cand));
        }
    }
    best.map(|(_, d)| d)
}

/// Per-element dimension counts for edge-expand scoring. Backward counts
/// are memoized per (anchor element, child node): every sampled element
/// under one anchor shares the count, and an anchor such as a root with
/// a thousand children would otherwise be rescanned for each of them.
#[derive(Default)]
struct DimCounts {
    backward: HashMap<(xtwig_xml::NodeId, SynId), f64>,
}

impl DimCounts {
    fn get(&mut self, s: &Synopsis, doc: &Document, e: xtwig_xml::NodeId, dim: &ScopeDim) -> f64 {
        match dim.kind {
            DimKind::Forward => child_count(s, doc, e, dim.child),
            DimKind::Value => {
                let Some(source) = dim.value_source() else {
                    return 0.0;
                };
                s.source_value(doc, e, source).unwrap_or(0) as f64
            }
            DimKind::Backward => {
                let mut cur = e;
                while let Some(p) = doc.parent(cur) {
                    if s.node_of(p) == dim.parent {
                        return *self
                            .backward
                            .entry((p, dim.child))
                            .or_insert_with(|| child_count(s, doc, p, dim.child));
                    }
                    cur = p;
                }
                0.0
            }
        }
    }
}

/// Children of element `a` in synopsis node `child`.
fn child_count(s: &Synopsis, doc: &Document, a: xtwig_xml::NodeId, child: SynId) -> f64 {
    doc.children(a).filter(|&c| s.node_of(c) == child).count() as f64
}

fn variance(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64
}

fn correlation(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len() as f64;
    if n == 0.0 {
        return 0.0;
    }
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        cov += (x - mx) * (y - my);
        vx += (x - mx) * (x - mx);
        vy += (y - my) * (y - my);
    }
    if vx == 0.0 || vy == 0.0 {
        return 0.0;
    }
    cov / (vx.sqrt() * vy.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coarse::coarse_synopsis;
    use xtwig_xml::parse;

    fn doc() -> xtwig_xml::Document {
        parse(concat!(
            "<bib>",
            "<author><name/><paper><title/><year>1999</year><keyword/><keyword/></paper></author>",
            "<author><name/><paper><title/><year>2002</year><keyword/></paper><book><title/></book></author>",
            "<author><name/><paper><title/><year>2001</year><keyword/></paper></author>",
            "</bib>"
        ))
        .unwrap()
    }

    #[test]
    fn f_stabilize_splits_authors_by_book() {
        let d = doc();
        let mut s = coarse_synopsis(&d);
        let author = s.nodes_with_tag("author")[0];
        let book = s.nodes_with_tag("book")[0];
        assert!(!s.is_f_stable(author, book));
        let r = Refinement::FStabilize {
            parent: author,
            child: book,
        };
        assert!(r.apply(&mut s, &d));
        s.check_invariants(&d).unwrap();
        // author split into with-book (1) and without-book (2).
        let nodes = s.nodes_with_tag("author");
        assert_eq!(nodes.len(), 2);
        let with_book = nodes
            .iter()
            .copied()
            .find(|&n| s.edge(n, book).is_some())
            .unwrap();
        assert!(s.is_f_stable(with_book, book));
        assert_eq!(s.extent_size(with_book), 1);
        // Reapplying is a no-op.
        assert!(!r.apply(&mut s, &d));
    }

    #[test]
    fn b_stabilize_splits_titles_by_parent() {
        let d = doc();
        let mut s = coarse_synopsis(&d);
        let paper = s.nodes_with_tag("paper")[0];
        let title = s.nodes_with_tag("title")[0];
        assert!(!s.is_b_stable(paper, title));
        let r = Refinement::BStabilize {
            parent: paper,
            child: title,
        };
        assert!(r.apply(&mut s, &d));
        s.check_invariants(&d).unwrap();
        let nodes = s.nodes_with_tag("title");
        assert_eq!(nodes.len(), 2);
        // One title node is now fully under paper (B-stable), the other
        // under book.
        let under_paper = nodes
            .iter()
            .copied()
            .find(|&n| s.edge(paper, n).is_some())
            .unwrap();
        assert!(s.is_b_stable(paper, under_paper));
        assert_eq!(s.extent_size(under_paper), 3);
    }

    #[test]
    fn edge_refine_and_expand_grow_histograms() {
        let d = doc();
        let mut s = coarse_synopsis(&d);
        let author = s.nodes_with_tag("author")[0];
        let book = s.nodes_with_tag("book")[0];
        let before_dims = s.edge_hist(author).scope.len();
        let r = Refinement::EdgeExpand {
            node: author,
            dim: ScopeDim {
                parent: author,
                child: book,
                kind: DimKind::Forward,
            },
        };
        assert!(r.apply(&mut s, &d));
        assert_eq!(s.edge_hist(author).scope.len(), before_dims + 1);
        // Expanding the same dim twice is a no-op.
        assert!(!r.apply(&mut s, &d));
    }

    #[test]
    fn value_refine_grows_budget() {
        let d = doc();
        let mut s = coarse_synopsis(&d);
        let year = s.nodes_with_tag("year")[0];
        let before = s.value_summary(year).unwrap().budget_bytes;
        // 3 distinct years, tiny budget: refining helps until exact.
        let r = Refinement::ValueRefine {
            node: year,
            extra_bytes: 24,
        };
        let changed = r.apply(&mut s, &d);
        if changed {
            assert!(s.value_summary(year).unwrap().budget_bytes > before);
        }
        // A valueless node can't be value-refined.
        let name = s.nodes_with_tag("name")[0];
        assert!(!Refinement::ValueRefine {
            node: name,
            extra_bytes: 24
        }
        .apply(&mut s, &d));
    }

    #[test]
    fn value_expand_adds_value_dimension() {
        let d = doc();
        let mut s = coarse_synopsis(&d);
        let year = s.nodes_with_tag("year")[0];
        let paper = s.nodes_with_tag("paper")[0];
        // Own-value expand fails on a valueless node (papers carry no
        // values themselves)...
        assert!(!Refinement::ValueExpand {
            node: paper,
            value_source: ValueSource::OwnValue,
            budget_bytes: 64
        }
        .apply(&mut s, &d));
        // ...and for a child that is not connected.
        assert!(!Refinement::ValueExpand {
            node: year,
            value_source: ValueSource::ChildValue(paper),
            budget_bytes: 64
        }
        .apply(&mut s, &d));
        // Child-value expand works on paper: the year child's value joins
        // the histogram as a dimension.
        let before = s.edge_hist(paper).scope.len();
        let r = Refinement::ValueExpand {
            node: paper,
            value_source: ValueSource::ChildValue(year),
            budget_bytes: 64,
        };
        assert!(r.apply(&mut s, &d));
        let h = s.edge_hist(paper);
        assert_eq!(h.scope.len(), before + 1);
        let vd = h
            .value_dim_of(paper, ValueSource::ChildValue(year))
            .expect("value dim");
        assert!(h.value_buckets[vd].is_some());
        // Reapplying the identical expand is a no-op.
        assert!(!r.apply(&mut s, &d));
    }

    #[test]
    fn best_value_expand_finds_correlated_pair() {
        // Engineered correlation: movies whose type child has value 1
        // carry many actors; type 2 carries none.
        let mut b = xtwig_xml::DocumentBuilder::new();
        b.open("ms", None);
        for i in 0..40 {
            b.open("m", None);
            let t = if i % 2 == 0 { 1 } else { 2 };
            b.leaf("t", Some(t));
            for _ in 0..(if t == 1 { 6 } else { 0 }) {
                b.leaf("a", None);
            }
            b.close();
        }
        b.close();
        let d = b.finish();
        let s = coarse_synopsis(&d);
        let m = s.nodes_with_tag("m")[0];
        let t = s.nodes_with_tag("t")[0];
        let source = best_value_expand(&s, &d, m).expect("a source is proposed");
        assert_eq!(source, ValueSource::ChildValue(t));
    }

    #[test]
    fn best_expand_dim_prefers_correlated_counts() {
        let d = doc();
        let s = coarse_synopsis(&d);
        let paper = s.nodes_with_tag("paper")[0];
        let dim = best_expand_dim_with(&s, &d, paper, false);
        assert!(dim.is_some());
        let dim = dim.unwrap();
        // Must be a fresh dim not already in scope.
        assert!(s
            .edge_hist(paper)
            .dim_of(dim.parent, dim.child, dim.kind)
            .is_none());
    }

    #[test]
    fn split_preserves_estimates_infrastructure() {
        // After a split, histograms reference only live edges.
        let d = doc();
        let mut s = coarse_synopsis(&d);
        let paper = s.nodes_with_tag("paper")[0];
        let title = s.nodes_with_tag("title")[0];
        Refinement::BStabilize {
            parent: paper,
            child: title,
        }
        .apply(&mut s, &d);
        for n in s.node_ids() {
            for dim in &s.edge_hist(n).scope {
                assert!(
                    s.edge(dim.parent, dim.child).is_some(),
                    "dangling scope dim at {n}"
                );
            }
        }
    }
}
