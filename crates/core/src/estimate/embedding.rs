//! Maximal twig embeddings (§4), and the flat plan a cold memo miss
//! builds from them.
//!
//! A twig embedding binds every (expanded) twig node to a concrete
//! synopsis node. Expansion of multi-step and `//` paths introduces chain
//! nodes, so an embedding is itself a tree of single-step nodes — a
//! *maximal* twig matched onto the synopsis. The selectivity of the
//! original query is the sum of the estimates of its embeddings.
//!
//! `enumerate_plan` backtracks over one partial embedding held in the
//! arena's expansion lanes: it expands the next pending twig node's path
//! from its anchor into chains, and for each chain pushes the chain's
//! nodes, queues the twig node's children, recurses, and truncates back.
//! A completed embedding is appended to the plan columns — nodes,
//! children, branch values, and each node's `needs` set (the backward
//! edges below it that TREEPARSE conditions on) — and the finished plan,
//! an [`ExpandedQuery`], is copied out once, exact-size, whatever its
//! embedding count. TREEPARSE and explain rendering read an embedding
//! through [`EmbeddingView`], a copyable view over those columns.
//!
//! Embedding order, node order, children order and every meter charge
//! follow the reference enumerator of the test suite, so estimates,
//! `provenance.work` and work-limited answers do not depend on which
//! one ran.
//!
//! [`Embedding`] is the hand-built form: the §4 worked example builds one
//! node by node and evaluates it through
//! [`CompiledSynopsis::estimate_embedding`], which lowers it into a
//! one-embedding plan. Serving never builds one.

use std::ops::Range;

use crate::compiled::CompiledSynopsis;
use crate::estimate::arena::ExpandScratch;
use crate::estimate::expand::{expand_absolute, expand_from, resolve_steps, BranchValue};
use crate::estimate::guard::Meter;
use crate::estimate::EstimateOptions;
use crate::synopsis::SynId;
use xtwig_query::TwigQuery;

/// An edge key `(parent, child)`.
type Edge = (SynId, SynId);

/// The parent index of an embedding root.
const NO_PARENT: u32 = u32::MAX;

/// A lane offset as a plan index. Plans index rows with `u32`: a plan
/// with 2^32 rows would not fit in memory.
fn ix(n: usize) -> u32 {
    u32::try_from(n).unwrap_or(u32::MAX)
}

/// A plan index as a lane offset.
fn us(n: u32) -> usize {
    usize::try_from(n).unwrap_or(usize::MAX)
}

/// A plan range as a lane range.
fn span(r: (u32, u32)) -> Range<usize> {
    us(r.0)..us(r.1)
}

/// One node of a plan embedding. Ranges index the plan's shared columns;
/// `parent` indexes the embedding's own nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PlanNode {
    /// The synopsis node bound at this position.
    pub(crate) syn: SynId,
    /// Parent node (`NO_PARENT` for the root).
    parent: u32,
    /// Child node indices: a range of the children column.
    pub(crate) children: (u32, u32),
    /// Self-value restriction `[lo, hi]`, if the step carried one.
    pub(crate) value_range: Option<(i64, i64)>,
    /// Product of the branching-predicate existence fractions that could
    /// not stay symbolic.
    pub(crate) branch_fraction: f64,
    /// Symbolic branch values: a range of the branch-value column.
    pub(crate) values: (u32, u32),
    /// Sorted backward edges needed at or below this node: a range of
    /// the needs column.
    pub(crate) needs: (u32, u32),
}

/// One node of the partial embedding the enumerator backtracks over:
/// the synopsis node, its parent in the partial embedding, and the chain
/// link it was bound from.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PartialNode {
    syn: SynId,
    parent: u32,
    link: usize,
}

/// A fully expanded query — what the expansion memo stores: every
/// maximal twig embedding as a range of plan nodes over shared node,
/// children, branch-value and needs columns.
#[derive(Debug)]
pub struct ExpandedQuery {
    /// Each embedding's first node; embedding `e` ends where `e + 1`
    /// starts.
    embs: Box<[u32]>,
    nodes: Box<[PlanNode]>,
    children: Box<[u32]>,
    values: Box<[BranchValue]>,
    needs: Box<[Edge]>,
    /// Document elements each embedding root stands for: 1.0 (the
    /// document root) for an enumerated plan.
    root_count: f64,
    /// Meter work the expansion charged; a memo hit under a work limit
    /// charges it again.
    pub work: u64,
}

impl ExpandedQuery {
    /// Copies the plan columns out of `sc`, each exact-size.
    fn copy_out(sc: &ExpandScratch, root_count: f64, work: u64) -> ExpandedQuery {
        ExpandedQuery {
            embs: sc.plan_embs.as_slice().into(),
            nodes: sc.plan_nodes.as_slice().into(),
            children: sc.plan_children.as_slice().into(),
            values: sc.plan_values.as_slice().into(),
            needs: sc.plan_needs.as_slice().into(),
            root_count,
            work,
        }
    }

    /// Number of embeddings.
    pub fn len(&self) -> usize {
        self.embs.len()
    }

    /// Whether the plan has no embedding.
    pub fn is_empty(&self) -> bool {
        self.embs.is_empty()
    }

    /// Embedding `e`, read in place.
    pub fn embedding(&self, e: usize) -> Option<EmbeddingView<'_>> {
        let start = us(*self.embs.get(e)?);
        let end = self
            .embs
            .get(e.saturating_add(1))
            .map_or(self.nodes.len(), |&n| us(n));
        Some(EmbeddingView {
            plan: self,
            nodes: self.nodes.get(start..end)?,
        })
    }
}

/// One embedding of an [`ExpandedQuery`], read in place. Node `0` is the
/// root; children follow their parent. Copying it copies two pointers.
#[derive(Debug, Clone, Copy)]
pub struct EmbeddingView<'p> {
    plan: &'p ExpandedQuery,
    nodes: &'p [PlanNode],
}

impl<'p> EmbeddingView<'p> {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the embedding has no node.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Document elements the root position stands for.
    pub fn root_count(&self) -> f64 {
        self.plan.root_count
    }

    /// The sorted, deduplicated backward edges TREEPARSE needs at or
    /// below node `i` (empty when out of range).
    pub fn needs(&self, i: usize) -> &'p [(SynId, SynId)] {
        self.nodes.get(i).map_or(&[], |n| self.needs_of(n))
    }

    /// Node `i`.
    pub(crate) fn node(&self, i: usize) -> Option<&'p PlanNode> {
        self.nodes.get(i)
    }

    /// The synopsis node bound at child index `c`.
    pub(crate) fn syn_at(&self, c: u32) -> Option<SynId> {
        self.nodes.get(us(c)).map(|n| n.syn)
    }

    /// Node `n`'s child indices, in order.
    pub(crate) fn children_of(&self, n: &PlanNode) -> &'p [u32] {
        self.plan.children.get(span(n.children)).unwrap_or(&[])
    }

    /// Node `n`'s symbolic branch values.
    pub(crate) fn values_of(&self, n: &PlanNode) -> &'p [BranchValue] {
        self.plan.values.get(span(n.values)).unwrap_or(&[])
    }

    /// Node `n`'s needs set.
    pub(crate) fn needs_of(&self, n: &PlanNode) -> &'p [Edge] {
        self.plan.needs.get(span(n.needs)).unwrap_or(&[])
    }

    /// The needs set of child index `c`.
    pub(crate) fn needs_at(&self, c: u32) -> &'p [Edge] {
        self.nodes.get(us(c)).map_or(&[], |n| self.needs_of(n))
    }

    /// Materializes the embedding as an owned [`Embedding`] through the
    /// hand-built builder — for inspection and tests; evaluation reads
    /// the view. `None` for an embedding without a root.
    pub fn to_embedding(&self) -> Option<Embedding> {
        let root = self.nodes.first()?;
        let mut emb = Embedding::with_root(root.syn, self.root_count());
        for n in self.nodes.iter().skip(1) {
            emb.push_node(us(n.parent), n.syn, n.value_range, n.branch_fraction);
        }
        for (out, n) in emb.nodes.iter_mut().zip(self.nodes) {
            out.value_range = n.value_range;
            out.branch_fraction = n.branch_fraction;
            out.branch_values.extend_from_slice(self.values_of(n));
            out.children.clear();
            out.children
                .extend(self.children_of(n).iter().map(|&c| us(c)));
        }
        Some(emb)
    }
}

/// Enumerates the maximal twig embeddings of `query` over `cs` into a
/// flat plan, charging `meter`; on exhaustion the plan holds the
/// embeddings completed so far. Truncated at `opts.max_embeddings`.
/// Every label the twig's steps name is resolved once, up front.
pub(crate) fn enumerate_plan(
    cs: &CompiledSynopsis<'_>,
    query: &TwigQuery,
    opts: &EstimateOptions,
    meter: &mut Meter,
    sc: &mut ExpandScratch,
) -> ExpandedQuery {
    let work_before = meter.work_done();
    sc.twig_steps.clear();
    sc.partial.clear();
    sc.pending.clear();
    sc.clear_plan();
    let mark = sc.mark();
    for t in query.node_refs() {
        let first = resolve_steps(cs, &query.path(t).steps, sc);
        sc.twig_steps.push(first);
    }
    let root = query.root();
    let set = sc.twig_steps.get(root).copied().unwrap_or(usize::MAX);
    let roots = expand_absolute(cs, query.path(root), set, opts, meter, sc);
    let walk = Walk { cs, query, opts };
    for chain in roots {
        if meter.exhaustion().is_some() {
            break;
        }
        let Some(&(start, end)) = sc.chains.get(chain) else {
            continue;
        };
        if start == end {
            continue;
        }
        // The first link is the synopsis root, standing for the single
        // document root element.
        let anchor = push_chain_nodes(sc, NO_PARENT, start..end);
        queue_children(sc, query.children(root), anchor);
        walk.attach(meter, sc);
        sc.pending.clear();
        sc.partial.clear();
        if sc.plan_embs.len() >= opts.max_embeddings {
            break;
        }
    }
    sc.release(mark);
    let plan = ExpandedQuery::copy_out(sc, 1.0, meter.work_done().saturating_sub(work_before));
    sc.clear_plan();
    sc.twig_steps.clear();
    plan
}

/// The fixed inputs of one enumeration.
struct Walk<'a, 'c> {
    cs: &'a CompiledSynopsis<'c>,
    query: &'a TwigQuery,
    opts: &'a EstimateOptions,
}

impl Walk<'_, '_> {
    /// Embeds the next pending twig node (the top of `sc.pending`) under
    /// its anchor, once per chain its path expands to, and recurses; an
    /// empty worklist completes an embedding. Leaves `sc.pending` and
    /// `sc.partial` as it found them.
    fn attach(&self, meter: &mut Meter, sc: &mut ExpandScratch) {
        if sc.plan_embs.len() >= self.opts.max_embeddings || !meter.proceed(1) {
            return;
        }
        let Some((t, anchor)) = sc.pending.pop() else {
            record(self.cs, sc);
            return;
        };
        let rest = sc.pending.len();
        if let Some(from) = sc.partial.get(us(anchor)).map(|n| n.syn) {
            let mark = sc.mark();
            let set = sc.twig_steps.get(t).copied().unwrap_or(usize::MAX);
            let chains = expand_from(self.cs, from, self.query.path(t), set, self.opts, meter, sc);
            for chain in chains {
                if meter.exhaustion().is_some() {
                    break;
                }
                let Some(&(start, end)) = sc.chains.get(chain) else {
                    continue;
                };
                let nodes = sc.partial.len();
                let end_node = push_chain_nodes(sc, anchor, start..end);
                // `t`'s own children go ahead of the remaining siblings.
                queue_children(sc, self.query.children(t), end_node);
                self.attach(meter, sc);
                sc.pending.truncate(rest);
                sc.partial.truncate(nodes);
            }
            sc.release(mark);
        }
        sc.pending.push((t, anchor));
    }
}

/// Pushes twig children `children` anchored at partial node `anchor`
/// onto the worklist so that the first child is on top.
fn queue_children(sc: &mut ExpandScratch, children: &[usize], anchor: u32) {
    sc.pending
        .extend(children.iter().rev().map(|&c| (c, anchor)));
}

/// Pushes the links `links` onto the partial embedding as a chain under
/// `anchor` (`NO_PARENT`: the first link becomes the root). Returns the
/// chain's last node, or `anchor` for an empty chain.
fn push_chain_nodes(sc: &mut ExpandScratch, anchor: u32, links: Range<usize>) -> u32 {
    let mut at = anchor;
    for link in links {
        let Some(syn) = sc.links.get(link).map(|l| l.syn) else {
            continue;
        };
        sc.partial.push(PartialNode {
            syn,
            parent: at,
            link,
        });
        at = ix(sc.partial.len() - 1);
    }
    at
}

/// Appends the completed partial embedding to the plan columns.
fn record(cs: &CompiledSynopsis<'_>, sc: &mut ExpandScratch) {
    let first = sc.plan_nodes.len();
    sc.plan_embs.push(ix(first));
    for p in &sc.partial {
        let (value_range, branch_fraction, values) =
            sc.links.get(p.link).map_or((None, 1.0, (0, 0)), |l| {
                (l.value_range, l.pred_fraction, l.values)
            });
        let start = sc.plan_values.len();
        if let Some(v) = sc.link_values.get(values.0..values.1) {
            sc.plan_values.extend_from_slice(v);
        }
        sc.plan_nodes.push(PlanNode {
            syn: p.syn,
            parent: p.parent,
            children: (0, 0),
            value_range,
            branch_fraction,
            values: (ix(start), ix(sc.plan_values.len())),
            needs: (0, 0),
        });
    }
    link_children(sc, first);
    compute_needs(cs, sc, first);
}

/// Fills the children ranges of the embedding starting at plan node
/// `first` from its parent indices. Siblings keep node order, which is
/// the order the enumerator pushed them in.
fn link_children(sc: &mut ExpandScratch, first: usize) {
    let Some(nodes) = sc.plan_nodes.get_mut(first..) else {
        return;
    };
    // Count each node's children into the end of its range ...
    for j in 0..nodes.len() {
        let parent = nodes.get(j).map_or(NO_PARENT, |n| n.parent);
        if let Some(p) = nodes.get_mut(us(parent)) {
            p.children.1 += 1;
        }
    }
    // ... turn the counts into empty ranges of the children column ...
    let mut at = sc.plan_children.len();
    for n in nodes.iter_mut() {
        let count = us(n.children.1);
        n.children = (ix(at), ix(at));
        at += count;
    }
    sc.plan_children.resize(at, 0);
    // ... and fill them in node order.
    for j in 0..nodes.len() {
        let parent = nodes.get(j).map_or(NO_PARENT, |n| n.parent);
        if let Some(p) = nodes.get_mut(us(parent)) {
            if let Some(slot) = sc.plan_children.get_mut(us(p.children.1)) {
                *slot = ix(j);
            }
            p.children.1 += 1;
        }
    }
}

/// The `needs` pre-pass over the embedding starting at plan node
/// `first`: node `i`'s set holds the edges that appear as backward
/// dimensions of histograms in the subtree rooted at `i` (including `i`
/// itself) — ancestors must enumerate these when they can, so
/// descendants can condition on them. Sets are sorted and deduplicated,
/// queried by binary search. Children follow their parents, so a reverse
/// sweep sees every child's set before its parent's.
fn compute_needs(cs: &CompiledSynopsis<'_>, sc: &mut ExpandScratch, first: usize) {
    for i in (first..sc.plan_nodes.len()).rev() {
        let Some(node) = sc.plan_nodes.get(i).copied() else {
            continue;
        };
        let start = sc.plan_needs.len();
        if let Some(h) = cs.hist(node.syn) {
            sc.plan_needs.extend(h.backward_edges());
        }
        for k in span(node.children) {
            let child = sc
                .plan_children
                .get(k)
                .map_or(usize::MAX, |&c| first.saturating_add(us(c)));
            if let Some(below) = sc.plan_nodes.get(child).map(|c| span(c.needs)) {
                sc.plan_needs.extend_from_within(below);
            }
        }
        let kept = sort_dedup(sc.plan_needs.get_mut(start..).unwrap_or(&mut []));
        sc.plan_needs.truncate(start + kept);
        if let Some(n) = sc.plan_nodes.get_mut(i) {
            n.needs = (ix(start), ix(sc.plan_needs.len()));
        }
    }
}

/// Sorts `set` and moves its distinct elements to the front; returns
/// how many there are.
fn sort_dedup(set: &mut [Edge]) -> usize {
    set.sort_unstable();
    let mut kept = 0;
    for r in 0..set.len() {
        let Some(x) = set.get(r).copied() else {
            continue;
        };
        if kept == 0 || set.get(kept - 1) != Some(&x) {
            if let Some(slot) = set.get_mut(kept) {
                *slot = x;
            }
            kept += 1;
        }
    }
    kept
}

/// Lowers a hand-built embedding into a one-embedding plan: nodes and
/// children lists as given, needs sets computed.
pub(crate) fn plan_of(
    cs: &CompiledSynopsis<'_>,
    emb: &Embedding,
    sc: &mut ExpandScratch,
) -> ExpandedQuery {
    sc.clear_plan();
    if !emb.nodes.is_empty() {
        sc.plan_embs.push(0);
    }
    for node in &emb.nodes {
        let values = sc.plan_values.len();
        sc.plan_values.extend_from_slice(&node.branch_values);
        let children = sc.plan_children.len();
        sc.plan_children
            .extend(node.children.iter().map(|&c| ix(c)));
        sc.plan_nodes.push(PlanNode {
            syn: node.syn,
            parent: node.parent.map_or(NO_PARENT, ix),
            children: (ix(children), ix(sc.plan_children.len())),
            value_range: node.value_range,
            branch_fraction: node.branch_fraction,
            values: (ix(values), ix(sc.plan_values.len())),
            needs: (0, 0),
        });
    }
    compute_needs(cs, sc, 0);
    let plan = ExpandedQuery::copy_out(sc, emb.root_count, 0);
    sc.clear_plan();
    plan
}

/// One node of a hand-built embedding: a synopsis node plus resolved
/// predicates.
#[derive(Debug, Clone, PartialEq)]
pub struct EmbNode {
    /// The synopsis node bound at this position.
    pub syn: SynId,
    /// Parent embedding node.
    pub parent: Option<usize>,
    /// Child embedding nodes.
    pub children: Vec<usize>,
    /// Self-value restriction `[lo, hi]`, if the step carried one.
    pub value_range: Option<(i64, i64)>,
    /// Product of branching-predicate existence fractions at this node
    /// (predicates that could not stay symbolic).
    pub branch_fraction: f64,
    /// Symbolic single-step branch-value predicates (candidates for joint
    /// value×count summaries).
    pub branch_values: Vec<BranchValue>,
}

/// A hand-built maximal twig embedding over the synopsis, evaluated
/// with [`CompiledSynopsis::estimate_embedding`].
#[derive(Debug, Clone, PartialEq)]
pub struct Embedding {
    /// Embedding nodes; index 0 is the root, children always follow their
    /// parent (depth-first-compatible order).
    pub nodes: Vec<EmbNode>,
    /// Number of document elements the root position stands for: 1.0
    /// for the document root; the worked example anchors an embedding at
    /// an arbitrary node with its extent size.
    pub root_count: f64,
}

impl Embedding {
    /// Creates an embedding with the given root binding.
    pub fn with_root(syn: SynId, root_count: f64) -> Embedding {
        // A hand-built embedding is test and example input; serving
        // enumerates plans and never builds one.
        Embedding {
            // lint:allow(hot-alloc)
            nodes: vec![EmbNode {
                syn,
                parent: None,
                children: Vec::new(), // lint:allow(hot-alloc): hand-built input
                value_range: None,
                branch_fraction: 1.0,
                branch_values: Vec::new(), // lint:allow(hot-alloc): hand-built input
            }],
            root_count,
        }
    }

    /// Appends a child node under `parent` and returns its index.
    pub fn push_node(
        &mut self,
        parent: usize,
        syn: SynId,
        value_range: Option<(i64, i64)>,
        branch_fraction: f64,
    ) -> usize {
        let idx = self.nodes.len();
        self.nodes.push(EmbNode {
            syn,
            parent: Some(parent),
            children: Vec::new(), // lint:allow(hot-alloc): hand-built input
            value_range,
            branch_fraction,
            branch_values: Vec::new(), // lint:allow(hot-alloc): hand-built input
        });
        if let Some(p) = self.nodes.get_mut(parent) {
            p.children.push(idx);
        }
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coarse::coarse_synopsis;
    use xtwig_query::parse_twig;
    use xtwig_xml::parse;

    fn doc() -> xtwig_xml::Document {
        parse(concat!(
            "<bib>",
            "<author><name/><paper><title/><keyword/></paper></author>",
            "<journal><paper><title/></paper></journal>",
            "</bib>"
        ))
        .unwrap()
    }

    /// The embeddings of `text` over `s`'s compiled form, materialized.
    fn embeddings(
        s: &crate::synopsis::Synopsis,
        text: &str,
        opts: &EstimateOptions,
    ) -> Vec<Embedding> {
        let q = parse_twig(text).unwrap();
        let plan = CompiledSynopsis::compile(s).expand_metered(&q, opts, &mut Meter::unlimited());
        (0..plan.len())
            .map(|e| plan.embedding(e).unwrap().to_embedding().unwrap())
            .collect()
    }

    #[test]
    fn simple_twig_single_embedding() {
        let d = doc();
        let s = coarse_synopsis(&d);
        let embs = embeddings(
            &s,
            "for $t0 in /bib/author, $t1 in $t0/name, $t2 in $t0/paper/title",
            &EstimateOptions::default(),
        );
        assert_eq!(embs.len(), 1);
        let e = &embs[0];
        // bib, author, name, paper, title = 5 embedding nodes.
        assert_eq!(e.nodes.len(), 5);
        assert_eq!(s.tag(e.nodes[0].syn), "bib");
        // The author node has two children: name and paper.
        let author_idx = e
            .nodes
            .iter()
            .position(|n| s.tag(n.syn) == "author")
            .unwrap();
        assert_eq!(e.nodes[author_idx].children.len(), 2);
        assert_eq!(e.root_count, 1.0);
    }

    #[test]
    fn descendant_twig_multiplies_embeddings() {
        let d = doc();
        let s = coarse_synopsis(&d);
        let text = "for $t0 in //paper, $t1 in $t0/title";
        // paper is reachable via author and via journal.
        assert_eq!(embeddings(&s, text, &EstimateOptions::default()).len(), 2);
    }

    #[test]
    fn unmatchable_twig_has_no_embeddings() {
        let d = doc();
        let s = coarse_synopsis(&d);
        let text = "for $t0 in //paper, $t1 in $t0/zzz";
        assert!(embeddings(&s, text, &EstimateOptions::default()).is_empty());
    }

    #[test]
    fn embedding_cap_is_honored() {
        let d = doc();
        let s = coarse_synopsis(&d);
        let opts = EstimateOptions {
            max_embeddings: 1,
            ..Default::default()
        };
        let text = "for $t0 in //paper, $t1 in $t0/title";
        assert_eq!(embeddings(&s, text, &opts).len(), 1);
    }

    #[test]
    fn branch_fractions_attach_to_nodes() {
        let d = doc();
        let s = coarse_synopsis(&d);
        let text = "for $t0 in //paper[keyword], $t1 in $t0/title";
        for e in &embeddings(&s, text, &EstimateOptions::default()) {
            let paper = e.nodes.iter().find(|n| s.tag(n.syn) == "paper").unwrap();
            assert!((paper.branch_fraction - 0.5).abs() < 1e-9);
        }
    }

    #[test]
    fn a_hand_built_embedding_round_trips_through_a_plan() {
        let d = doc();
        let s = coarse_synopsis(&d);
        let cs = CompiledSynopsis::compile(&s);
        let tag = |t: &str| s.nodes_with_tag(t)[0];
        let mut emb = Embedding::with_root(tag("author"), 3.0);
        emb.push_node(0, tag("name"), None, 1.0);
        let p = emb.push_node(0, tag("paper"), Some((1, 9)), 0.5);
        emb.push_node(p, tag("keyword"), None, 1.0);
        let plan = plan_of(&cs, &emb, &mut ExpandScratch::default());
        assert_eq!(plan.len(), 1);
        let view = plan.embedding(0).unwrap();
        assert_eq!(view.to_embedding(), Some(emb));
        assert_eq!(view.root_count(), 3.0);
    }

    #[test]
    fn sort_dedup_keeps_each_edge_once() {
        let e = |a: u32, b: u32| (SynId(a), SynId(b));
        let mut set = [e(2, 3), e(1, 2), e(2, 3), e(1, 2), e(0, 9)];
        let kept = sort_dedup(&mut set);
        assert_eq!(&set[..kept], &[e(0, 9), e(1, 2), e(2, 3)]);
        assert_eq!(sort_dedup(&mut []), 0);
    }
}
