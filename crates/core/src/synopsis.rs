//! The graph-synopsis model underlying Twig XSKETCHes (§3).
//!
//! A [`Synopsis`] partitions the document's elements into nodes whose
//! extents share a tag, and connects two synopsis nodes whenever a
//! document edge crosses their extents. Every synopsis edge `u→v` stores
//! two exact integers: `child_count` (elements of `v` with their parent in
//! `u`) and `parent_count` (elements of `u` with at least one child in
//! `v`). Stability is then derived: the edge is **B**ackward-stable iff
//! `child_count = |v|` and **F**orward-stable iff `parent_count = |u|`.
//!
//! Each node carries an [`EdgeHistogram`] — the paper's multidimensional
//! edge-count distribution `H_i(C1,…,Ck)` over a recorded `scope` of
//! forward and backward counts — and optionally a [`ValueSummary`].
//!
//! The struct keeps the element partition (`extent`s and the inverse
//! `elem_to_node` map) so the XBUILD refinement operations can split nodes
//! and rebuild histograms from the document. That construction-time state
//! is *not* charged to [`Synopsis::size_bytes`], which accounts only for
//! the information an optimizer would ship: node counts, edge counts, and
//! histogram buckets.

use std::collections::{BTreeMap, HashMap, HashSet};
use xtwig_histogram::{ExactDistribution, MdHistogram, ValueHistogram};
use xtwig_xml::{Document, LabelId, LabelTable, NodeId};

/// Handle to a synopsis node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SynId(pub u32);

impl SynId {
    /// Raw index of the node.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for SynId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Exact per-edge counts from which stability is derived.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SynopsisEdge {
    /// Number of elements in the child node whose parent lies in the parent
    /// node (`|u→v|` in the paper's notation).
    pub child_count: u64,
    /// Number of elements in the parent node with at least one child in the
    /// child node.
    pub parent_count: u64,
}

/// What a histogram dimension tracks: children counts of the node itself
/// (forward), children counts of a stable ancestor (backward), or a value
/// from the node's neighborhood (§3.2's extended histograms
/// `H^v(V1..Vl, C1..Ck)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DimKind {
    /// Count of children along `node → child`.
    Forward,
    /// Count of children along `ancestor → target`, where the ancestor is
    /// reached from every element of the node via a B-stable path.
    Backward,
    /// A bucketized value: the element's own value when `child == parent`,
    /// otherwise the value of the element's first valued child in `child`.
    Value,
}

/// One dimension of an edge histogram's scope: a synopsis edge plus its
/// orientation relative to the owning node (for [`DimKind::Value`] the
/// "edge" designates the value source instead).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScopeDim {
    /// Parent endpoint of the counted edge (always the owning node for
    /// forward and value dimensions).
    pub parent: SynId,
    /// Child endpoint of the counted edge, or the value-source node.
    pub child: SynId,
    /// Forward / backward count, or value.
    pub kind: DimKind,
}

impl ScopeDim {
    /// The undirected edge key `(parent, child)` of the counted edge.
    pub fn edge_key(&self) -> (SynId, SynId) {
        (self.parent, self.child)
    }

    /// The value source of a [`DimKind::Value`] dimension.
    pub fn value_source(&self) -> Option<ValueSource> {
        match self.kind {
            DimKind::Value if self.child == self.parent => Some(ValueSource::OwnValue),
            DimKind::Value => Some(ValueSource::ChildValue(self.child)),
            _ => None,
        }
    }
}

/// Disjoint, sorted value buckets for one value dimension of an edge
/// histogram. Bucket `i` covers the *actual* data span `[lo[i], hi[i]]`
/// (gaps between buckets hold no values); the extra coordinate `lo.len()`
/// stands for "element has no source value".
#[derive(Debug, Clone, PartialEq)]
pub struct ValueBuckets {
    /// Smallest value in each bucket.
    pub lo: Vec<i64>,
    /// Largest value in each bucket.
    pub hi: Vec<i64>,
}

impl ValueBuckets {
    /// Builds quantile buckets over `values` (ties never split). Returns
    /// `None` when no values were supplied.
    pub fn from_values(mut values: Vec<i64>, max_buckets: usize) -> Option<ValueBuckets> {
        if values.is_empty() {
            return None;
        }
        values.sort_unstable();
        let per = values.len().div_ceil(max_buckets.max(1));
        let mut lo = Vec::new();
        let mut hi = Vec::new();
        let mut i = 0;
        while i < values.len() {
            let mut j = (i + per).min(values.len());
            while j < values.len() && values[j] == values[j - 1] {
                j += 1;
            }
            lo.push(values[i]);
            hi.push(values[j - 1]);
            i = j;
        }
        Some(ValueBuckets { lo, hi })
    }

    /// Number of value buckets (the missing-value coordinate is
    /// `len()` itself).
    pub fn len(&self) -> usize {
        self.lo.len()
    }

    /// Whether there are no buckets.
    pub fn is_empty(&self) -> bool {
        self.lo.is_empty()
    }

    /// The histogram coordinate for a source value (`None` → the
    /// missing-value coordinate).
    pub fn coord_of(&self, v: Option<i64>) -> u32 {
        let Some(v) = v else {
            return self.lo.len() as u32;
        };
        match self.lo.binary_search(&v) {
            Ok(i) => i as u32,
            Err(i) => i.saturating_sub(1) as u32,
        }
    }

    /// Fraction of the values represented by histogram-bucket coordinates
    /// `[coord_lo, coord_hi]` that fall in `[lo, hi]`, assuming uniform
    /// spread over the covered spans. Coordinates at/after the
    /// missing-value slot contribute zero.
    pub fn overlap_share(&self, coord_lo: u32, coord_hi: u32, lo: i64, hi: i64) -> f64 {
        let n = self.lo.len() as u32;
        if coord_lo >= n {
            return 0.0;
        }
        let v_hi = coord_hi.min(n - 1);
        let span_lo = self.lo[coord_lo as usize];
        let span_hi = self.hi[v_hi as usize];
        if span_hi < lo || span_lo > hi {
            return 0.0;
        }
        let span = (span_hi - span_lo) as f64 + 1.0;
        let overlap = (hi.min(span_hi) - lo.max(span_lo)) as f64 + 1.0;
        let mut share = (overlap / span).clamp(0.0, 1.0);
        if coord_hi >= n {
            // The bucket mixes valued and valueless coordinates; scale by
            // the valued share of the coordinate range.
            let total = (coord_hi - coord_lo + 1) as f64;
            let valued = (v_hi - coord_lo + 1) as f64;
            share *= valued / total;
        }
        share
    }
}

/// A node's edge histogram: the recorded scope and the compressed
/// multidimensional distribution, with the byte budget it was compressed to.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeHistogram {
    /// The edges whose counts the histogram's dimensions track.
    pub scope: Vec<ScopeDim>,
    /// The compressed distribution; dimension `d` corresponds to
    /// `scope[d]`.
    pub hist: MdHistogram,
    /// Per-dimension value bucketization (`Some` exactly for
    /// [`DimKind::Value`] dimensions).
    pub value_buckets: Vec<Option<ValueBuckets>>,
    /// Byte budget the histogram honours (`hist.size_bytes() <= budget`).
    pub budget_bytes: usize,
    /// Number of distinct count vectors in the exact distribution the
    /// histogram was built from (refinement stops paying off beyond this).
    pub distinct_points: usize,
}

impl EdgeHistogram {
    /// Index of the scope dimension counting edge `(parent, child)` with
    /// the given kind, if recorded.
    pub fn dim_of(&self, parent: SynId, child: SynId, kind: DimKind) -> Option<usize> {
        self.scope
            .iter()
            .position(|d| d.parent == parent && d.child == child && d.kind == kind)
    }

    /// Index of the value dimension drawing from `source`, if recorded.
    pub fn value_dim_of(&self, owner: SynId, source: ValueSource) -> Option<usize> {
        let child = match source {
            ValueSource::OwnValue => owner,
            ValueSource::ChildValue(z) => z,
        };
        self.dim_of(owner, child, DimKind::Value)
    }

    /// Storage cost: the histogram buckets plus 4 bytes per scope
    /// dimension for the edge reference, plus 8 bytes per value-bucket
    /// boundary pair.
    pub fn size_bytes(&self) -> usize {
        let value_bytes: usize = self
            .value_buckets
            .iter()
            .flatten()
            .map(|vb| 8 * vb.len())
            .sum();
        self.hist.size_bytes() + 4 * self.scope.len() + value_bytes
    }
}

/// Where a joint value×count summary draws its value dimension from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueSource {
    /// The element's own value.
    OwnValue,
    /// The value of the element's (first) child in the given synopsis node
    /// — e.g. the `type` child of a `movie`, letting the summary capture
    /// the paper's §1 correlation between a movie's genre and its cast
    /// size.
    ChildValue(SynId),
}

/// Per-node value summary: the 1-D histogram the prototype uses.
#[derive(Debug, Clone, PartialEq)]
pub struct ValueSummary {
    /// 1-D compressed equi-depth histogram over the extent's values.
    pub hist: ValueHistogram,
    /// Byte budget for the 1-D histogram.
    pub budget_bytes: usize,
}

impl ValueSummary {
    /// Storage cost of the summary.
    pub fn size_bytes(&self) -> usize {
        self.hist.size_bytes()
    }
}

/// One node of the synopsis: the shared tag and the element extent.
#[derive(Debug, Clone, PartialEq)]
pub struct SynopsisNode {
    /// Tag common to all elements in the extent.
    pub label: LabelId,
    /// Sorted element ids in this node's extent (empty for synopses
    /// loaded from a serialized snapshot, which are estimation-only).
    pub extent: Vec<NodeId>,
    /// Extent cardinality `|n|` (kept explicitly so deserialized,
    /// extent-less synopses can still estimate).
    pub count: u64,
}

/// A Twig XSKETCH synopsis (Definition 3.1): graph summary + stabilities +
/// per-node edge histograms and value summaries.
#[derive(Debug, Clone)]
pub struct Synopsis {
    labels: LabelTable,
    nodes: Vec<SynopsisNode>,
    edges: BTreeMap<(SynId, SynId), SynopsisEdge>,
    children: Vec<Vec<SynId>>,
    parents: Vec<Vec<SynId>>,
    by_label: HashMap<LabelId, Vec<SynId>>,
    elem_to_node: Vec<u32>,
    root: SynId,
    max_depth: usize,
    edge_hists: Vec<EdgeHistogram>,
    value_summaries: Vec<Option<ValueSummary>>,
}

/// Byte accounting, mirroring the paper's storage model: per node a 2-byte
/// tag and 4-byte extent count; per edge a 4-byte target reference and two
/// 4-byte counts (from which the stability bits are derived).
const BYTES_PER_NODE: usize = 6;
/// See [`BYTES_PER_NODE`].
const BYTES_PER_EDGE: usize = 12;
/// Quantile buckets per value dimension of an edge histogram.
const VALUE_DIM_BUCKETS: usize = 8;

impl Synopsis {
    /// Builds a synopsis from an explicit element partition.
    ///
    /// `partition` maps each document element to its group; groups must be
    /// label-pure. All edges, counts and the requested histograms are
    /// computed from the document. Use [`coarse_synopsis`] for the standard
    /// label-split seed.
    ///
    /// # Panics
    /// Panics when `partition.len() != doc.len()` or a group mixes labels.
    ///
    /// [`coarse_synopsis`]: crate::coarse::coarse_synopsis
    pub fn from_partition(doc: &Document, partition: &[u32]) -> Synopsis {
        assert_eq!(
            partition.len(),
            doc.len(),
            "partition must cover the document"
        );
        let group_count = partition
            .iter()
            .copied()
            .max()
            .map_or(0, |m| m as usize + 1);
        let mut nodes: Vec<SynopsisNode> = Vec::with_capacity(group_count);
        for _ in 0..group_count {
            nodes.push(SynopsisNode {
                label: LabelId(0),
                extent: Vec::new(),
                count: 0,
            });
        }
        let mut seen = vec![false; group_count];
        for e in doc.nodes() {
            let g = partition[e.index()] as usize;
            let node = &mut nodes[g];
            if !seen[g] {
                node.label = doc.label(e);
                seen[g] = true;
            } else {
                assert_eq!(node.label, doc.label(e), "group {g} mixes labels");
            }
            node.extent.push(e);
        }
        assert!(seen.iter().all(|&s| s), "empty partition group");
        for node in &mut nodes {
            node.count = node.extent.len() as u64;
        }
        let mut s = Synopsis {
            labels: doc.labels().clone(),
            nodes,
            edges: BTreeMap::new(),
            children: Vec::new(),
            parents: Vec::new(),
            by_label: HashMap::new(),
            elem_to_node: partition.to_vec(),
            root: SynId(partition[doc.root().index()]),
            max_depth: 0,
            edge_hists: Vec::new(),
            value_summaries: Vec::new(),
        };
        s.max_depth = doc.nodes().map(|n| doc.depth(n)).max().unwrap_or(0);
        s.rebuild_label_index();
        s.recompute_all_edges(doc);
        s.edge_hists = (0..s.nodes.len())
            .map(|_| EdgeHistogram {
                scope: Vec::new(),
                hist: MdHistogram::exact(&ExactDistribution::new(0)),
                value_buckets: Vec::new(),
                budget_bytes: 0,
                distinct_points: 0,
            })
            .collect();
        s.value_summaries = vec![None; s.nodes.len()];
        s
    }

    // ------------------------------------------------------------------
    // Accessors.
    // ------------------------------------------------------------------

    /// Number of synopsis nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Iterates over all synopsis node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = SynId> {
        (0..self.nodes.len() as u32).map(SynId)
    }

    /// The node containing the document root.
    pub fn root(&self) -> SynId {
        self.root
    }

    /// Maximum document depth (bounds `//` expansion).
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }

    /// The label table (cloned from the document at construction).
    pub fn labels(&self) -> &LabelTable {
        &self.labels
    }

    /// The label of node `n`.
    pub fn label(&self, n: SynId) -> LabelId {
        self.nodes[n.index()].label
    }

    /// The tag name of node `n`.
    pub fn tag(&self, n: SynId) -> &str {
        self.labels.name(self.nodes[n.index()].label)
    }

    /// Extent size `|n|`.
    pub fn extent_size(&self, n: SynId) -> u64 {
        self.nodes[n.index()].count
    }

    /// The sorted element extent of node `n`.
    pub fn extent(&self, n: SynId) -> &[NodeId] {
        &self.nodes[n.index()].extent
    }

    /// The synopsis node containing document element `e`.
    pub fn node_of(&self, e: NodeId) -> SynId {
        SynId(self.elem_to_node[e.index()])
    }

    /// Synopsis nodes whose extents carry `label`.
    pub fn nodes_with_label(&self, label: LabelId) -> &[SynId] {
        self.by_label.get(&label).map_or(&[], |v| v.as_slice())
    }

    /// Synopsis nodes whose tag is `tag`.
    pub fn nodes_with_tag(&self, tag: &str) -> &[SynId] {
        match self.labels.get(tag) {
            Some(l) => self.nodes_with_label(l),
            None => &[],
        }
    }

    /// Total number of document elements carrying `tag`, as a float —
    /// the count→float boundary the estimation path uses for coarse
    /// label-count bounds. 0.0 when the tag does not occur.
    pub fn tag_total(&self, tag: &str) -> f64 {
        self.nodes_with_tag(tag)
            .iter()
            .map(|&n| self.extent_size(n) as f64)
            .sum()
    }

    /// The edge record for `u→v`, if the edge exists.
    pub fn edge(&self, u: SynId, v: SynId) -> Option<&SynopsisEdge> {
        self.edges.get(&(u, v))
    }

    /// Child nodes of `u` (synopsis successors).
    pub fn children_of(&self, u: SynId) -> &[SynId] {
        &self.children[u.index()]
    }

    /// Parent nodes of `v` (synopsis predecessors).
    pub fn parents_of(&self, v: SynId) -> &[SynId] {
        &self.parents[v.index()]
    }

    /// Iterates over all edges `(u, v, record)`.
    pub fn edge_iter(&self) -> impl Iterator<Item = (SynId, SynId, &SynopsisEdge)> {
        self.edges.iter().map(|(&(u, v), e)| (u, v, e))
    }

    /// Number of synopsis edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// `u→v` is B(ackward)-stable iff every element of `v` has a parent in
    /// `u`.
    pub fn is_b_stable(&self, u: SynId, v: SynId) -> bool {
        self.edge(u, v)
            .is_some_and(|e| e.child_count == self.extent_size(v))
    }

    /// `u→v` is F(orward)-stable iff every element of `u` has at least one
    /// child in `v`.
    pub fn is_f_stable(&self, u: SynId, v: SynId) -> bool {
        self.edge(u, v)
            .is_some_and(|e| e.parent_count == self.extent_size(u))
    }

    /// Average children in `v` per element of `u`: `child_count/|u|` — the
    /// Forward Uniformity factor.
    pub fn avg_children(&self, u: SynId, v: SynId) -> f64 {
        match self.edge(u, v) {
            Some(e) if self.extent_size(u) > 0 => e.child_count as f64 / self.extent_size(u) as f64,
            _ => 0.0,
        }
    }

    /// Fraction of `u`'s elements with at least one child in `v` — the
    /// branching-predicate existence factor.
    pub fn exist_fraction(&self, u: SynId, v: SynId) -> f64 {
        match self.edge(u, v) {
            Some(e) if self.extent_size(u) > 0 => {
                e.parent_count as f64 / self.extent_size(u) as f64
            }
            _ => 0.0,
        }
    }

    /// The edge histogram of node `n`.
    pub fn edge_hist(&self, n: SynId) -> &EdgeHistogram {
        &self.edge_hists[n.index()]
    }

    /// The value summary of node `n`, if any.
    pub fn value_summary(&self, n: SynId) -> Option<&ValueSummary> {
        self.value_summaries[n.index()].as_ref()
    }

    /// Estimated fraction of `n`'s elements whose value lies in `[lo, hi]`.
    /// Nodes without a value summary fall back to 0 when valueless and to
    /// the uniform assumption otherwise — in practice every valued node of
    /// a built synopsis carries a summary.
    pub fn value_fraction(&self, n: SynId, lo: i64, hi: i64) -> f64 {
        match self.value_summary(n) {
            Some(vs) => vs.hist.range_fraction(lo, hi),
            None => 0.0,
        }
    }

    /// Total storage cost in bytes: nodes + edges + edge histograms +
    /// value summaries. Extents and the element map are construction-time
    /// state and are not charged (§5's space budget covers the summary an
    /// optimizer would load).
    pub fn size_bytes(&self) -> usize {
        let mut total = self.nodes.len() * BYTES_PER_NODE + self.edges.len() * BYTES_PER_EDGE;
        total += self
            .edge_hists
            .iter()
            .map(|h| h.size_bytes())
            .sum::<usize>();
        total += self
            .value_summaries
            .iter()
            .flatten()
            .map(|v| v.size_bytes())
            .sum::<usize>();
        total
    }

    // ------------------------------------------------------------------
    // Histogram construction.
    // ------------------------------------------------------------------

    /// Computes the per-dimension value bucketizations for `scope`
    /// (`Some` exactly at [`DimKind::Value`] dimensions, `None` when the
    /// source carries no values at all).
    pub fn value_bucketizations(
        &self,
        doc: &Document,
        n: SynId,
        scope: &[ScopeDim],
        buckets_per_dim: usize,
    ) -> Vec<Option<ValueBuckets>> {
        scope
            .iter()
            .map(|dim| {
                let source = dim.value_source()?;
                let values: Vec<i64> = self
                    .extent(n)
                    .iter()
                    .filter_map(|&e| self.source_value(doc, e, source))
                    .collect();
                ValueBuckets::from_values(values, buckets_per_dim)
            })
            .collect()
    }

    /// Computes the exact edge distribution of node `n` over `scope` from
    /// the document. Value dimensions (if any) are bucketized with the
    /// default granularity; use [`edge_distribution_with`] to control it.
    ///
    /// [`edge_distribution_with`]: Self::edge_distribution_with
    pub fn edge_distribution(
        &self,
        doc: &Document,
        n: SynId,
        scope: &[ScopeDim],
    ) -> ExactDistribution {
        let maps = self.value_bucketizations(doc, n, scope, VALUE_DIM_BUCKETS);
        self.edge_distribution_with(doc, n, scope, &maps)
    }

    /// Computes the exact edge distribution of node `n` over `scope`,
    /// mapping value dimensions through the supplied bucketizations.
    pub fn edge_distribution_with(
        &self,
        doc: &Document,
        n: SynId,
        scope: &[ScopeDim],
        value_maps: &[Option<ValueBuckets>],
    ) -> ExactDistribution {
        debug_assert_eq!(scope.len(), value_maps.len());
        let mut dist = ExactDistribution::new(scope.len());
        let mut point = vec![0u32; scope.len()];
        // Cache: children counts of the most recent ancestor looked up,
        // keyed by ancestor element; backward dims often share ancestors.
        let mut anc_cache: HashMap<(NodeId, u32), u32> = HashMap::new();
        // Forward dims as (position, child node): one pass over each
        // element's children fills all of them.
        let forward: Vec<(usize, SynId)> = scope
            .iter()
            .enumerate()
            .filter(|(_, dim)| dim.kind == DimKind::Forward)
            .map(|(d, dim)| {
                debug_assert_eq!(dim.parent, n, "forward dim must start at the node");
                (d, dim.child)
            })
            .collect();
        for &e in self.extent(n) {
            for &(d, _) in &forward {
                point[d] = 0;
            }
            if !forward.is_empty() {
                for c in doc.children(e) {
                    let z = self.node_of(c);
                    for &(d, child) in &forward {
                        if child == z {
                            point[d] += 1;
                        }
                    }
                }
            }
            for (d, dim) in scope.iter().enumerate() {
                point[d] = match dim.kind {
                    DimKind::Forward => continue,
                    DimKind::Backward => match self.nearest_ancestor_in(doc, e, dim.parent) {
                        Some(anc) => *anc_cache.entry((anc, dim.child.0)).or_insert_with(|| {
                            doc.children(anc)
                                .filter(|&c| self.node_of(c) == dim.child)
                                .count() as u32
                        }),
                        None => 0,
                    },
                    DimKind::Value => match (dim.value_source(), &value_maps[d]) {
                        (Some(source), Some(vb)) => vb.coord_of(self.source_value(doc, e, source)),
                        _ => 0,
                    },
                };
            }
            dist.add(&point);
        }
        dist
    }

    fn nearest_ancestor_in(&self, doc: &Document, e: NodeId, target: SynId) -> Option<NodeId> {
        let mut cur = e;
        while let Some(p) = doc.parent(cur) {
            if self.node_of(p) == target {
                return Some(p);
            }
            cur = p;
        }
        None
    }

    /// Rebuilds node `n`'s edge histogram from the document with the given
    /// scope and byte budget. Value dimensions whose source carries no
    /// values are dropped from the scope.
    pub fn set_edge_hist(
        &mut self,
        doc: &Document,
        n: SynId,
        scope: Vec<ScopeDim>,
        budget_bytes: usize,
    ) {
        self.edge_hists[n.index()] = self.build_edge_hist(doc, n, scope, budget_bytes);
    }

    /// The histogram [`set_edge_hist`](Self::set_edge_hist) installs.
    fn build_edge_hist(
        &self,
        doc: &Document,
        n: SynId,
        mut scope: Vec<ScopeDim>,
        budget_bytes: usize,
    ) -> EdgeHistogram {
        let mut maps = self.value_bucketizations(doc, n, &scope, VALUE_DIM_BUCKETS);
        // Drop unusable value dims (no element has a source value).
        let mut d = 0;
        while d < scope.len() {
            if scope[d].kind == DimKind::Value && maps[d].is_none() {
                scope.remove(d);
                maps.remove(d);
            } else {
                d += 1;
            }
        }
        let dist = self.edge_distribution_with(doc, n, &scope, &maps);
        let distinct = dist.distinct();
        let hist = MdHistogram::build(&dist, budget_bytes.max(8));
        EdgeHistogram {
            scope,
            hist,
            value_buckets: maps,
            budget_bytes,
            distinct_points: distinct,
        }
    }

    /// Collects the values of `n`'s extent (elements without values are
    /// skipped).
    pub fn extent_values(&self, doc: &Document, n: SynId) -> Vec<i64> {
        self.extent(n)
            .iter()
            .filter_map(|&e| doc.value(e))
            .collect()
    }

    /// Rebuilds node `n`'s 1-D value summary with the given byte budget
    /// (dropping it when the extent holds no values).
    pub fn set_value_summary(&mut self, doc: &Document, n: SynId, budget_bytes: usize) {
        let values = self.extent_values(doc, n);
        if values.is_empty() {
            self.value_summaries[n.index()] = None;
            return;
        }
        self.value_summaries[n.index()] = Some(ValueSummary {
            hist: ValueHistogram::build_bytes(values, budget_bytes.max(12)),
            budget_bytes,
        });
    }

    /// The source value of element `e` under `source` (the element's own
    /// value, or the value of its first valued child in the source node).
    pub fn source_value(&self, doc: &Document, e: NodeId, source: ValueSource) -> Option<i64> {
        match source {
            ValueSource::OwnValue => doc.value(e),
            ValueSource::ChildValue(z) => doc
                .children(e)
                .find(|&c| self.node_of(c) == z && doc.value(c).is_some())
                .and_then(|c| doc.value(c)),
        }
    }

    // ------------------------------------------------------------------
    // Mutation (XBUILD refinements).
    // ------------------------------------------------------------------

    /// Splits node `v`: elements satisfying `keep` stay in `v`, the rest
    /// move to a fresh node. Returns the new node's id, or `None` when the
    /// split would leave either side empty.
    ///
    /// Incident edges of `v`, the new node, and their neighbours are
    /// recomputed; histograms whose scopes reference edges touching `v`
    /// are re-scoped (the split edge is replaced by whichever of the two
    /// resulting edges exist) and rebuilt from the document at their
    /// existing byte budgets. A neighbour's histogram whose inputs the
    /// split left unchanged is kept as it is.
    pub fn split_node(
        &mut self,
        doc: &Document,
        v: SynId,
        keep: impl Fn(NodeId) -> bool,
    ) -> Option<SynId> {
        let (stay, moved): (Vec<NodeId>, Vec<NodeId>) =
            self.nodes[v.index()].extent.iter().partition(|&&e| keep(e));
        if stay.is_empty() || moved.is_empty() {
            return None;
        }
        let new_id = SynId(self.nodes.len() as u32);
        let label = self.nodes[v.index()].label;
        for &e in &moved {
            self.elem_to_node[e.index()] = new_id.0;
        }
        let stay_count = stay.len() as u64;
        let moved_count = moved.len() as u64;
        self.nodes[v.index()].extent = stay;
        self.nodes[v.index()].count = stay_count;
        self.nodes.push(SynopsisNode {
            label,
            extent: moved,
            count: moved_count,
        });
        // The new node inherits the split node's scope and budget; the
        // rebuild pass below remaps the dims to surviving edges.
        let seeded = self.edge_hists[v.index()].clone();
        self.edge_hists.push(seeded);
        self.value_summaries.push(None);
        if self.node_of(doc.root()) == new_id {
            self.root = new_id;
        } else if v == self.root {
            // Root element stayed in `v` — nothing to update.
        }
        self.rebuild_label_index();

        // Recompute edges incident to the split pair and remember the old
        // neighbourhood for histogram re-scoping.
        let old_neighbors: Vec<SynId> = self
            .edges
            .keys()
            .filter(|&&(a, b)| a == v || b == v)
            .flat_map(|&(a, b)| [a, b])
            .filter(|&x| x != v)
            .collect();
        self.recompute_incident_edges(doc, &[v, new_id]);

        // Re-scope and rebuild histograms referencing the split node.
        let mut affected: HashSet<SynId> = HashSet::from([v, new_id]);
        affected.extend(old_neighbors);
        affected.extend(
            self.edges
                .keys()
                .filter(|&&(a, b)| a == v || b == v || a == new_id || b == new_id)
                .flat_map(|&(a, b)| [a, b]),
        );
        let mut to_rebuild: Vec<SynId> = Vec::new();
        for n in self.node_ids() {
            let touches = self.edge_hists[n.index()].scope.iter().any(|d| {
                d.parent == v || d.child == v || d.parent == n && affected.contains(&d.child)
            });
            if touches || affected.contains(&n) {
                to_rebuild.push(n);
            }
        }
        for n in to_rebuild {
            let old = &self.edge_hists[n.index()];
            let budget = old.budget_bytes;
            let new_scope = self.remap_scope(n, &old.scope, v, new_id);
            // A histogram is rebuilt only when the split changed one of
            // its inputs. One whose owner is neither split node, whose
            // scope names neither, and whose scope the remap leaves as it
            // was reads the same owner extent and the same membership of
            // every node and edge it names, so a rebuild would reproduce
            // it bit for bit.
            let unchanged = n != v
                && n != new_id
                && new_scope == old.scope
                && !old.scope.iter().any(|d| d.parent == v || d.child == v);
            if unchanged {
                debug_assert!(
                    *old == self.build_edge_hist(doc, n, new_scope, budget),
                    "split of {v} skipped the rebuild of {n}'s histogram, which changed"
                );
                continue;
            }
            self.set_edge_hist(doc, n, new_scope, budget);
        }
        // A split can break the B-stable path that justified a backward
        // dimension anchored far above the split point — even for
        // histograms whose scope never mentions the split pair, so the
        // edge-liveness remap above cannot see it. Sweep every histogram
        // and drop backward dims whose anchor stopped being a B-stable
        // ancestor of the owner (§3.2's TSN rule: without the guaranteed
        // ancestor, the backward count is undefined for part of the
        // extent).
        for n in self.node_ids().collect::<Vec<_>>() {
            let scope = &self.edge_hists[n.index()].scope;
            if !scope.iter().any(|d| d.kind == DimKind::Backward) {
                continue;
            }
            let ancestors = crate::tsn::b_stable_ancestors(self, n);
            let stale =
                |d: &ScopeDim| d.kind == DimKind::Backward && !ancestors.contains(&d.parent);
            if scope.iter().any(stale) {
                let budget = self.edge_hists[n.index()].budget_bytes;
                let kept: Vec<ScopeDim> = scope.iter().filter(|d| !stale(d)).copied().collect();
                self.set_edge_hist(doc, n, kept, budget);
            }
        }
        // Value summaries of the split pair track their new extents.
        for n in [v, new_id] {
            let budget = self.value_summaries[n.index()]
                .as_ref()
                .map(|s| s.budget_bytes)
                .unwrap_or(24);
            self.set_value_summary(doc, n, budget);
        }
        Some(new_id)
    }

    /// Remaps a histogram scope after `v` was split (with `new_id` holding
    /// the moved elements): dims on edges that no longer exist are retargeted
    /// to the surviving counterpart or dropped; dims on split edges existing
    /// on both sides are duplicated.
    fn remap_scope(
        &self,
        owner: SynId,
        scope: &[ScopeDim],
        v: SynId,
        new_id: SynId,
    ) -> Vec<ScopeDim> {
        let mut out = Vec::with_capacity(scope.len() + 1);
        let owner_has_children = !self.children[owner.index()].is_empty();
        for d in scope {
            // Backward context is useless on a childless node (nothing to
            // condition) — drop it rather than carry dead budget through
            // splits.
            if d.kind == DimKind::Backward && !owner_has_children {
                continue;
            }
            // Own-value dims track the owner itself.
            if d.kind == DimKind::Value && d.child == d.parent {
                let dim = ScopeDim {
                    parent: owner,
                    child: owner,
                    kind: DimKind::Value,
                };
                if !out.contains(&dim) {
                    out.push(dim);
                }
                continue;
            }
            let mut candidates: Vec<ScopeDim> = Vec::new();
            let parents = if d.parent == v {
                vec![v, new_id]
            } else {
                vec![d.parent]
            };
            let childs = if d.child == v {
                vec![v, new_id]
            } else {
                vec![d.child]
            };
            for &p in &parents {
                for &c in &childs {
                    // Forward and value dims must keep the owner as parent;
                    // an owner that was itself split keeps only its own
                    // edges.
                    if matches!(d.kind, DimKind::Forward | DimKind::Value) && p != owner {
                        continue;
                    }
                    if self.edge(p, c).is_some() {
                        candidates.push(ScopeDim {
                            parent: p,
                            child: c,
                            kind: d.kind,
                        });
                    }
                }
            }
            for c in candidates {
                if !out.contains(&c) {
                    out.push(c);
                }
            }
        }
        out
    }

    /// Recomputes every edge incident to any node in `set` (dropping edges
    /// that no longer exist) and rebuilds the adjacency lists.
    fn recompute_incident_edges(&mut self, doc: &Document, set: &[SynId]) {
        let in_set: HashSet<SynId> = set.iter().copied().collect();
        self.edges
            .retain(|&(a, b), _| !in_set.contains(&a) && !in_set.contains(&b));
        // Outgoing edges of each affected node (covers intra-set edges).
        for &a in set {
            let mut out_counts: HashMap<SynId, SynopsisEdge> = HashMap::new();
            for &e in self.extent(a) {
                let mut targets: HashSet<SynId> = HashSet::new();
                for c in doc.children(e) {
                    let t = self.node_of(c);
                    out_counts.entry(t).or_default().child_count += 1;
                    targets.insert(t);
                }
                for t in targets {
                    out_counts.entry(t).or_default().parent_count += 1;
                }
            }
            for (t, rec) in out_counts {
                self.edges.insert((a, t), rec);
            }
        }
        // Incoming edges from outside the set: derived from the affected
        // extents' parents.
        for &a in set {
            let mut in_counts: HashMap<SynId, (u64, HashSet<NodeId>)> = HashMap::new();
            for &e in self.extent(a) {
                if let Some(p) = doc.parent(e) {
                    let src = self.node_of(p);
                    if in_set.contains(&src) {
                        continue; // already covered by the outgoing pass
                    }
                    let entry = in_counts.entry(src).or_default();
                    entry.0 += 1;
                    entry.1.insert(p);
                }
            }
            for (src, (child_count, parents)) in in_counts {
                self.edges.insert(
                    (src, a),
                    SynopsisEdge {
                        child_count,
                        parent_count: parents.len() as u64,
                    },
                );
            }
        }
        self.rebuild_adjacency();
    }

    /// Recomputes all edges from scratch.
    fn recompute_all_edges(&mut self, doc: &Document) {
        self.edges.clear();
        let all: Vec<SynId> = self.node_ids().collect();
        self.recompute_incident_edges(doc, &all);
    }

    fn rebuild_adjacency(&mut self) {
        self.children = vec![Vec::new(); self.nodes.len()];
        self.parents = vec![Vec::new(); self.nodes.len()];
        for &(u, v) in self.edges.keys() {
            self.children[u.index()].push(v);
            self.parents[v.index()].push(u);
        }
    }

    fn rebuild_label_index(&mut self) {
        self.by_label.clear();
        for (i, n) in self.nodes.iter().enumerate() {
            self.by_label
                .entry(n.label)
                .or_default()
                .push(SynId(i as u32));
        }
    }

    /// Rewrites the element partition in place after a document delta.
    ///
    /// The group structure survives — node ids, histogram scopes and byte
    /// budgets are untouched — while extents, counts, the element map,
    /// root, max depth, the label index and every edge incident to an
    /// `affected` group are recomputed against the new document. Groups
    /// referenced by `assignment` at or past the current node count are
    /// appended with empty histograms, exactly as [`from_partition`]
    /// seeds them. Group labels are re-interned by *name*: the rebuilt
    /// arena assigns [`LabelId`]s in its own first-occurrence order, so
    /// the old ids may not line up.
    ///
    /// Callers (delta-XBUILD in `construct::delta`) must rebuild the
    /// histograms and value summaries of affected groups afterwards —
    /// this method only restores the structural invariants that
    /// [`check_invariants`] verifies.
    ///
    /// # Panics
    /// Panics when `assignment` does not cover `doc`, mixes labels
    /// within a group, or leaves any group empty (delta-XBUILD falls
    /// back to a full rebuild before that can happen).
    ///
    /// [`from_partition`]: Synopsis::from_partition
    /// [`check_invariants`]: Synopsis::check_invariants
    pub(crate) fn reset_partition(
        &mut self,
        doc: &Document,
        assignment: &[u32],
        affected: &[SynId],
    ) {
        assert_eq!(
            assignment.len(),
            doc.len(),
            "assignment must cover the document"
        );
        let group_count = assignment
            .iter()
            .copied()
            .max()
            .map_or(0, |m| m as usize + 1);
        let old_len = self.nodes.len();
        assert!(group_count >= old_len, "assignment drops existing groups");
        // Re-intern surviving group labels by name against the new
        // document's table.
        let old_names: Vec<String> = self
            .nodes
            .iter()
            .map(|n| self.labels.name(n.label).to_owned())
            .collect();
        self.labels = doc.labels().clone();
        for (g, name) in old_names.iter().enumerate() {
            if let Some(l) = self.labels.get(name) {
                self.nodes[g].label = l;
            }
            // A tag absent from the new document means the group must be
            // empty; the emptiness assert below rejects that.
        }
        for n in &mut self.nodes {
            n.extent.clear();
        }
        for _ in old_len..group_count {
            self.nodes.push(SynopsisNode {
                label: LabelId(0),
                extent: Vec::new(),
                count: 0,
            });
            self.edge_hists.push(EdgeHistogram {
                scope: Vec::new(),
                hist: MdHistogram::exact(&ExactDistribution::new(0)),
                value_buckets: Vec::new(),
                budget_bytes: 0,
                distinct_points: 0,
            });
            self.value_summaries.push(None);
        }
        let mut seen = vec![false; group_count];
        for e in doc.nodes() {
            let g = assignment[e.index()] as usize;
            if !seen[g] {
                seen[g] = true;
                if g >= old_len {
                    self.nodes[g].label = doc.label(e);
                }
            }
            assert_eq!(self.nodes[g].label, doc.label(e), "group {g} mixes labels");
            self.nodes[g].extent.push(e);
        }
        assert!(seen.iter().all(|&s| s), "empty partition group");
        for n in &mut self.nodes {
            n.count = n.extent.len() as u64;
        }
        self.elem_to_node = assignment.to_vec();
        self.root = SynId(assignment[doc.root().index()]);
        self.max_depth = doc.nodes().map(|n| doc.depth(n)).max().unwrap_or(0);
        self.rebuild_label_index();
        self.recompute_incident_edges(doc, affected);
    }

    /// Assembles an estimation-only synopsis from deserialized parts
    /// (extents and the element map are empty — splitting and rebuilding
    /// are unavailable on such a synopsis).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_raw_parts(
        labels: LabelTable,
        nodes: Vec<SynopsisNode>,
        edges: BTreeMap<(SynId, SynId), SynopsisEdge>,
        root: SynId,
        max_depth: usize,
        edge_hists: Vec<EdgeHistogram>,
        value_summaries: Vec<Option<ValueSummary>>,
    ) -> Synopsis {
        let mut s = Synopsis {
            labels,
            nodes,
            edges,
            children: Vec::new(),
            parents: Vec::new(),
            by_label: HashMap::new(),
            elem_to_node: Vec::new(),
            root,
            max_depth,
            edge_hists,
            value_summaries,
        };
        s.rebuild_adjacency();
        s.rebuild_label_index();
        s
    }

    /// Whether this synopsis still holds the element partition (false for
    /// deserialized snapshots, which can estimate but not refine).
    pub fn has_extents(&self) -> bool {
        !self.elem_to_node.is_empty()
    }

    /// Verifies structural invariants against the document (tests/debug).
    pub fn check_invariants(&self, doc: &Document) -> Result<(), String> {
        if self.elem_to_node.len() != doc.len() {
            return Err("element map size mismatch".into());
        }
        let total: usize = self.nodes.iter().map(|n| n.extent.len()).sum();
        if total != doc.len() {
            return Err(format!("extents cover {total} of {} elements", doc.len()));
        }
        for (i, n) in self.nodes.iter().enumerate() {
            if n.count != n.extent.len() as u64 {
                return Err(format!(
                    "node s{i}: count {} != extent {}",
                    n.count,
                    n.extent.len()
                ));
            }
            for &e in &n.extent {
                if self.elem_to_node[e.index()] != i as u32 {
                    return Err(format!("element {e} not mapped to node s{i}"));
                }
                if doc.label(e) != n.label {
                    return Err(format!("element {e} label differs from node s{i}"));
                }
            }
        }
        // Edge counts.
        for (u, v, rec) in self.edge_iter() {
            let child_count = self
                .extent(v)
                .iter()
                .filter(|&&e| doc.parent(e).is_some_and(|p| self.node_of(p) == u))
                .count() as u64;
            if child_count != rec.child_count {
                return Err(format!(
                    "edge {u}->{v} child_count {} != {child_count}",
                    rec.child_count
                ));
            }
            let parent_count = self
                .extent(u)
                .iter()
                .filter(|&&e| doc.children(e).any(|c| self.node_of(c) == v))
                .count() as u64;
            if parent_count != rec.parent_count {
                return Err(format!(
                    "edge {u}->{v} parent_count {} != {parent_count}",
                    rec.parent_count
                ));
            }
            if rec.child_count == 0 {
                return Err(format!(
                    "edge {u}->{v} with zero child_count should not exist"
                ));
            }
        }
        // Every document edge is represented.
        for e in doc.nodes() {
            if let Some(p) = doc.parent(e) {
                if self.edge(self.node_of(p), self.node_of(e)).is_none() {
                    return Err(format!("document edge {p}->{e} missing in synopsis"));
                }
            }
        }
        // Sum of incoming child_counts equals extent size (tree property).
        for v in self.node_ids() {
            let incoming: u64 = self
                .parents_of(v)
                .iter()
                .map(|&u| self.edge(u, v).map_or(0, |e| e.child_count))
                .sum();
            let expected = if v == self.root {
                self.extent_size(v) - 1
            } else {
                self.extent_size(v)
            };
            if incoming != expected && !(v == self.root && incoming == self.extent_size(v)) {
                return Err(format!(
                    "node {v}: incoming child_counts {incoming} != extent {expected}"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coarse::coarse_synopsis;
    use xtwig_xml::parse;

    #[test]
    fn value_buckets_quantiles_and_coords() {
        let vb = ValueBuckets::from_values(vec![1, 1, 2, 5, 5, 5, 9], 3).unwrap();
        assert!(vb.len() >= 2);
        // Every supplied value maps to a bucket containing it.
        for v in [1i64, 2, 5, 9] {
            let c = vb.coord_of(Some(v)) as usize;
            assert!(vb.lo[c] <= v && v <= vb.hi[c], "value {v} -> bucket {c}");
        }
        // Missing values get the sentinel coordinate.
        assert_eq!(vb.coord_of(None) as usize, vb.len());
        assert!(ValueBuckets::from_values(vec![], 4).is_none());
    }

    #[test]
    fn value_buckets_overlap_share() {
        let vb = ValueBuckets::from_values(vec![10, 10, 10, 20, 20, 30], 3).unwrap();
        // A coordinate range entirely of 10s matched exactly.
        let c10 = vb.coord_of(Some(10));
        assert!((vb.overlap_share(c10, c10, 10, 10) - 1.0).abs() < 1e-12);
        assert_eq!(vb.overlap_share(c10, c10, 11, 19), 0.0);
        // The missing-value coordinate contributes nothing.
        let miss = vb.len() as u32;
        assert_eq!(vb.overlap_share(miss, miss, i64::MIN, i64::MAX), 0.0);
        // A range covering everything yields share 1 on value coords.
        assert!((vb.overlap_share(0, vb.len() as u32 - 1, i64::MIN, i64::MAX) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn value_dims_are_dropped_when_source_is_valueless() {
        let doc = parse("<r><a><b/></a><a><b/><b/></a></r>").unwrap();
        let mut s = coarse_synopsis(&doc);
        let a = s.nodes_with_tag("a")[0];
        let b = s.nodes_with_tag("b")[0];
        s.set_edge_hist(
            &doc,
            a,
            vec![
                ScopeDim {
                    parent: a,
                    child: b,
                    kind: DimKind::Forward,
                },
                ScopeDim {
                    parent: a,
                    child: a,
                    kind: DimKind::Value,
                }, // no values
            ],
            512,
        );
        let h = s.edge_hist(a);
        assert_eq!(h.scope.len(), 1);
        assert_eq!(h.scope[0].kind, DimKind::Forward);
    }

    #[test]
    fn value_dim_distribution_buckets_match_data() {
        let doc =
            parse("<r><m><t>1</t><x/><x/></m><m><t>2</t></m><m><t>1</t><x/></m></r>").unwrap();
        let mut s = coarse_synopsis(&doc);
        let m = s.nodes_with_tag("m")[0];
        let t = s.nodes_with_tag("t")[0];
        let x = s.nodes_with_tag("x")[0];
        s.set_edge_hist(
            &doc,
            m,
            vec![
                ScopeDim {
                    parent: m,
                    child: x,
                    kind: DimKind::Forward,
                },
                ScopeDim {
                    parent: m,
                    child: t,
                    kind: DimKind::Value,
                },
            ],
            4096,
        );
        let h = s.edge_hist(m);
        assert_eq!(h.scope.len(), 2);
        let vb = h.value_buckets[1].as_ref().unwrap();
        // Values 1 and 2 land in distinct buckets.
        assert_ne!(vb.coord_of(Some(1)), vb.coord_of(Some(2)));
        // Histogram totals 1 across the three movies.
        assert!((h.hist.total_mass() - 1.0).abs() < 1e-9);
        // E[x-count | t=1] = (2+1)/2 via the conditional machinery.
        let c1 = vb.coord_of(Some(1)) as f64;
        let f = h.hist.conditional_expectation_product(&[(1, c1)], &[0]);
        assert!((f - 1.5).abs() < 1e-9, "{f}");
    }

    #[test]
    fn split_remaps_value_dims() {
        let doc = parse(concat!(
            "<r>",
            "<m><t>1</t><x/><x/></m>",
            "<m><t>2</t></m>",
            "<n><m><t>1</t><x/></m></n>",
            "</r>"
        ))
        .unwrap();
        let mut s = coarse_synopsis(&doc);
        let m = s.nodes_with_tag("m")[0];
        let t = s.nodes_with_tag("t")[0];
        let x = s.nodes_with_tag("x")[0];
        s.set_edge_hist(
            &doc,
            m,
            vec![
                ScopeDim {
                    parent: m,
                    child: x,
                    kind: DimKind::Forward,
                },
                ScopeDim {
                    parent: m,
                    child: t,
                    kind: DimKind::Value,
                },
            ],
            4096,
        );
        // Split m by parent (b-stabilize r→m): value dims must survive on
        // both halves and reference live structure.
        let stay: std::collections::HashSet<_> = s
            .extent(m)
            .iter()
            .copied()
            .filter(|&e| doc.parent(e).is_some_and(|p| s.node_of(p) == s.root()))
            .collect();
        let new_id = s.split_node(&doc, m, |e| stay.contains(&e)).unwrap();
        s.check_invariants(&doc).unwrap();
        for node in [m, new_id] {
            let h = s.edge_hist(node);
            let has_value_dim = h
                .scope
                .iter()
                .any(|d| d.kind == DimKind::Value && d.parent == node);
            assert!(has_value_dim, "{node} lost its value dim: {:?}", h.scope);
            for (d, vb) in h.scope.iter().zip(&h.value_buckets) {
                assert_eq!(d.kind == DimKind::Value, vb.is_some());
            }
        }
    }

    #[test]
    fn source_value_child_lookup() {
        let doc = parse("<r><m><t>7</t></m><m><u/></m></r>").unwrap();
        let s = coarse_synopsis(&doc);
        let m = s.nodes_with_tag("m")[0];
        let t = s.nodes_with_tag("t")[0];
        let elems = s.extent(m);
        assert_eq!(
            s.source_value(&doc, elems[0], ValueSource::ChildValue(t)),
            Some(7)
        );
        assert_eq!(
            s.source_value(&doc, elems[1], ValueSource::ChildValue(t)),
            None
        );
        assert_eq!(s.source_value(&doc, elems[0], ValueSource::OwnValue), None);
    }

    #[test]
    fn size_accounting_includes_value_buckets() {
        let doc = parse("<r><m><t>1</t><x/></m><m><t>2</t></m></r>").unwrap();
        let mut s = coarse_synopsis(&doc);
        let m = s.nodes_with_tag("m")[0];
        let t = s.nodes_with_tag("t")[0];
        let before = s.size_bytes();
        let x = s.nodes_with_tag("x")[0];
        s.set_edge_hist(
            &doc,
            m,
            vec![
                ScopeDim {
                    parent: m,
                    child: x,
                    kind: DimKind::Forward,
                },
                ScopeDim {
                    parent: m,
                    child: t,
                    kind: DimKind::Value,
                },
            ],
            4096,
        );
        assert!(s.size_bytes() > before);
    }
}
