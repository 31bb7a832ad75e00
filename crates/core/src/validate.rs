//! Synopsis fsck: structural invariant checking for Twig XSKETCHes.
//!
//! [`validate`] verifies every invariant a well-formed synopsis must
//! satisfy *without* access to the source document (so it also works on
//! deserialized snapshots):
//!
//! * graph shape — root index in range, adjacency lists consistent with
//!   the edge map, non-empty extents;
//! * per-edge count bounds — `1 ≤ parent_count ≤ child_count`,
//!   `child_count ≤ |v|`, `parent_count ≤ |u|`, and the incoming
//!   `child_count` sum of every node equals its extent size (the root
//!   node may be short by exactly one: the document root has no parent);
//! * B-/F-stability derivations — stability as reported by the synopsis
//!   must coincide with the raw counts, and a B-stable incoming edge must
//!   be the node's only incoming edge;
//! * TSN scope references — every histogram dimension must name a live
//!   synopsis edge, forward/value dimensions must be anchored at the
//!   owning node, and backward dimensions must reference a B-stable
//!   ancestor (§3.2's twig stable neighborhood);
//! * histogram mass — bucket fractions finite, non-negative, and summing
//!   to 1 within [`MASS_EPS`]; bucket bounds and means ordered and
//!   dimension-consistent; value bucketizations present exactly for
//!   [`DimKind::Value`] dimensions, sorted and disjoint.
//!
//! [`fsck`] additionally checks serialized-snapshot round-trip integrity
//! (a v3 `save → load → save` must reproduce the bytes and the reload
//! must itself validate). XBUILD calls [`validate`] after every refinement
//! round under `debug_assertions`; the CLI exposes [`fsck`] as
//! `xtwig-cli check`.

use crate::io::load_synopsis;
use crate::io::v3::save_synopsis_v3;
use crate::synopsis::{DimKind, EdgeHistogram, SynId, Synopsis};
use crate::tsn::b_stable_ancestors;
use std::fmt;

/// Tolerance for histogram bucket-mass sums.
pub const MASS_EPS: f64 = 1e-6;

/// One invariant violation found by [`validate`] / [`fsck`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FsckIssue {
    /// Where the violation sits (node, edge or histogram coordinates).
    pub location: String,
    /// What is wrong, with the offending values.
    pub message: String,
}

impl fmt::Display for FsckIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.location, self.message)
    }
}

/// All violations found in one pass. [`validate`]/[`fsck`] return this as
/// the error type so callers see every problem at once, not just the
/// first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FsckReport {
    /// The individual violations, in synopsis traversal order.
    pub issues: Vec<FsckIssue>,
}

impl fmt::Display for FsckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "synopsis fsck found {} issue(s):", self.issues.len())?;
        for issue in &self.issues {
            writeln!(f, "  - {issue}")?;
        }
        Ok(())
    }
}

impl std::error::Error for FsckReport {}

/// Collects issues during a validation pass.
struct Checker {
    issues: Vec<FsckIssue>,
}

impl Checker {
    fn push(&mut self, location: String, message: String) {
        self.issues.push(FsckIssue { location, message });
    }

    fn finish(self) -> Result<(), FsckReport> {
        if self.issues.is_empty() {
            Ok(())
        } else {
            Err(FsckReport {
                issues: self.issues,
            })
        }
    }
}

/// Verifies every document-free invariant of `s`. Returns all violations
/// found; `Ok(())` means the synopsis is structurally sound.
pub fn validate(s: &Synopsis) -> Result<(), FsckReport> {
    let mut c = Checker { issues: Vec::new() };
    check_graph(s, &mut c);
    check_edges(s, &mut c);
    check_incoming_sums(s, &mut c);
    check_stability(s, &mut c);
    for n in s.node_ids() {
        check_histogram(s, n, s.edge_hist(n), &mut c);
        check_value_summary(s, n, &mut c);
    }
    c.finish()
}

/// [`validate`] plus serialized round-trip integrity: the synopsis must
/// survive a v3 `save → load → save` byte-identically, and the reloaded copy
/// must itself validate. This is the full check behind `xtwig-cli check`.
pub fn fsck(s: &Synopsis) -> Result<(), FsckReport> {
    let mut c = Checker { issues: Vec::new() };
    if let Err(report) = validate(s) {
        c.issues.extend(report.issues);
    }
    let bytes = save_synopsis_v3(s);
    match load_synopsis(&bytes) {
        Err(e) => c.push(
            "snapshot".into(),
            format!("own serialization does not load back: {e}"),
        ),
        Ok(reloaded) => {
            let again = save_synopsis_v3(&reloaded);
            if again != bytes {
                c.push(
                    "snapshot".into(),
                    format!(
                        "save/load/save is not byte-stable ({} vs {} bytes)",
                        bytes.len(),
                        again.len()
                    ),
                );
            }
            if let Err(report) = validate(&reloaded) {
                for issue in report.issues {
                    c.push(
                        format!("snapshot reload, {}", issue.location),
                        issue.message,
                    );
                }
            }
        }
    }
    c.finish()
}

fn node_name(s: &Synopsis, n: SynId) -> String {
    if n.index() < s.node_count() {
        format!("node {} ({})", n.0, s.tag(n))
    } else {
        format!("node {}", n.0)
    }
}

fn edge_name(s: &Synopsis, u: SynId, v: SynId) -> String {
    format!("edge {} -> {}", node_name(s, u), node_name(s, v))
}

fn check_graph(s: &Synopsis, c: &mut Checker) {
    let n = s.node_count();
    if n == 0 {
        c.push("synopsis".into(), "no nodes".into());
        return;
    }
    if s.root().index() >= n {
        c.push(
            "synopsis".into(),
            format!("root id {} out of range (node count {n})", s.root().0),
        );
        return;
    }
    for id in s.node_ids() {
        if s.extent_size(id) == 0 {
            c.push(node_name(s, id), "empty extent (count = 0)".into());
        }
        if s.has_extents() && s.extent(id).len() as u64 != s.extent_size(id) {
            c.push(
                node_name(s, id),
                format!(
                    "extent length {} disagrees with count {}",
                    s.extent(id).len(),
                    s.extent_size(id)
                ),
            );
        }
    }
    // Adjacency lists and the edge map must describe the same graph.
    for (u, v, _) in s.edge_iter() {
        if u.index() >= n || v.index() >= n {
            c.push(
                format!("edge {} -> {}", u.0, v.0),
                format!("endpoint out of range (node count {n})"),
            );
            continue;
        }
        if !s.children_of(u).contains(&v) {
            c.push(edge_name(s, u, v), "missing from children adjacency".into());
        }
        if !s.parents_of(v).contains(&u) {
            c.push(edge_name(s, u, v), "missing from parents adjacency".into());
        }
    }
    let child_refs: usize = s.node_ids().map(|u| s.children_of(u).len()).sum();
    let parent_refs: usize = s.node_ids().map(|v| s.parents_of(v).len()).sum();
    if child_refs != s.edge_count() || parent_refs != s.edge_count() {
        c.push(
            "synopsis".into(),
            format!(
                "adjacency lists reference {child_refs} child / {parent_refs} parent edges \
                 but the edge map holds {}",
                s.edge_count()
            ),
        );
    }
}

fn check_edges(s: &Synopsis, c: &mut Checker) {
    for (u, v, e) in s.edge_iter() {
        if u.index() >= s.node_count() || v.index() >= s.node_count() {
            continue; // already reported by check_graph
        }
        let name = || edge_name(s, u, v);
        if e.child_count == 0 {
            c.push(name(), "child_count = 0 (edge should not exist)".into());
        }
        if e.parent_count == 0 {
            c.push(name(), "parent_count = 0 (edge should not exist)".into());
        }
        if e.child_count > s.extent_size(v) {
            c.push(
                name(),
                format!(
                    "child_count {} exceeds |child extent| {}",
                    e.child_count,
                    s.extent_size(v)
                ),
            );
        }
        if e.parent_count > s.extent_size(u) {
            c.push(
                name(),
                format!(
                    "parent_count {} exceeds |parent extent| {}",
                    e.parent_count,
                    s.extent_size(u)
                ),
            );
        }
        if e.parent_count > e.child_count {
            c.push(
                name(),
                format!(
                    "parent_count {} exceeds child_count {} (each counted parent \
                     needs at least one child)",
                    e.parent_count, e.child_count
                ),
            );
        }
    }
}

/// Every element has exactly one parent, so the incoming `child_count`
/// sum of node `v` must equal `|v|` — except at the synopsis root, whose
/// extent contains the parentless document root (sum `|v| - 1`), and
/// which may also have no incoming edges at all.
fn check_incoming_sums(s: &Synopsis, c: &mut Checker) {
    for v in s.node_ids() {
        let sum: u64 = s
            .parents_of(v)
            .iter()
            .filter_map(|&u| s.edge(u, v))
            .map(|e| e.child_count)
            .sum();
        let size = s.extent_size(v);
        let ok = if v == s.root() {
            sum == size || sum + 1 == size
        } else {
            sum == size
        };
        if !ok {
            c.push(
                node_name(s, v),
                format!("incoming child_count sum {sum} disagrees with extent size {size}"),
            );
        }
    }
}

fn check_stability(s: &Synopsis, c: &mut Checker) {
    for (u, v, e) in s.edge_iter() {
        if u.index() >= s.node_count() || v.index() >= s.node_count() {
            continue;
        }
        // The reported stability must be exactly the count-derived one.
        let b_derived = e.child_count == s.extent_size(v);
        if s.is_b_stable(u, v) != b_derived {
            c.push(
                edge_name(s, u, v),
                format!(
                    "is_b_stable = {} but child_count {} vs |v| {} derives {}",
                    s.is_b_stable(u, v),
                    e.child_count,
                    s.extent_size(v),
                    b_derived
                ),
            );
        }
        let f_derived = e.parent_count == s.extent_size(u);
        if s.is_f_stable(u, v) != f_derived {
            c.push(
                edge_name(s, u, v),
                format!(
                    "is_f_stable = {} but parent_count {} vs |u| {} derives {}",
                    s.is_f_stable(u, v),
                    e.parent_count,
                    s.extent_size(u),
                    f_derived
                ),
            );
        }
        // A B-stable edge accounts for the whole child extent, so the
        // incoming-sum invariant leaves no room for siblings (the root
        // may still host the parentless document root element).
        if b_derived && v != s.root() && s.parents_of(v).len() != 1 {
            c.push(
                edge_name(s, u, v),
                format!(
                    "B-stable edge into a node with {} incoming edges",
                    s.parents_of(v).len()
                ),
            );
        }
    }
}

fn check_histogram(s: &Synopsis, n: SynId, h: &EdgeHistogram, c: &mut Checker) {
    let loc = || format!("{} histogram", node_name(s, n));
    if h.hist.dims() != h.scope.len() {
        c.push(
            loc(),
            format!(
                "histogram has {} dims but scope lists {}",
                h.hist.dims(),
                h.scope.len()
            ),
        );
        return; // per-dimension checks below would mis-index
    }
    if h.value_buckets.len() != h.scope.len() {
        c.push(
            loc(),
            format!(
                "{} value bucketizations for {} scope dims",
                h.value_buckets.len(),
                h.scope.len()
            ),
        );
        return;
    }

    // TSN scope references: every dimension names a live edge anchored
    // correctly relative to the owning node.
    let ancestors = b_stable_ancestors(s, n);
    for (d, dim) in h.scope.iter().enumerate() {
        let dloc = || format!("{} dim {d} ({:?})", loc(), dim.kind);
        match dim.kind {
            DimKind::Forward => {
                if dim.parent != n {
                    c.push(dloc(), format!("forward dim anchored at {}", dim.parent.0));
                }
                if s.edge(dim.parent, dim.child).is_none() {
                    c.push(
                        dloc(),
                        format!("references dead edge {} -> {}", dim.parent.0, dim.child.0),
                    );
                }
            }
            DimKind::Backward => {
                if s.edge(dim.parent, dim.child).is_none() {
                    c.push(
                        dloc(),
                        format!("references dead edge {} -> {}", dim.parent.0, dim.child.0),
                    );
                }
                if !ancestors.contains(&dim.parent) {
                    c.push(
                        dloc(),
                        format!(
                            "backward dim anchored at {} which is not a B-stable \
                             ancestor of the owner",
                            dim.parent.0
                        ),
                    );
                }
            }
            DimKind::Value => {
                if dim.parent != n {
                    c.push(dloc(), format!("value dim anchored at {}", dim.parent.0));
                }
                if dim.child != n && s.edge(dim.parent, dim.child).is_none() {
                    c.push(
                        dloc(),
                        format!(
                            "value source {} is neither the owner nor a child edge",
                            dim.child.0
                        ),
                    );
                }
            }
        }
        // Value bucketization present exactly for value dimensions, and
        // sorted/disjoint when present.
        match (dim.kind, h.value_buckets.get(d).and_then(Option::as_ref)) {
            (DimKind::Value, None) => {
                c.push(dloc(), "value dimension without value buckets".into());
            }
            (DimKind::Forward | DimKind::Backward, Some(_)) => {
                c.push(dloc(), "count dimension carries value buckets".into());
            }
            (DimKind::Value, Some(vb)) => {
                if vb.lo.len() != vb.hi.len() || vb.lo.is_empty() {
                    c.push(
                        dloc(),
                        format!(
                            "malformed value buckets ({} lo / {} hi bounds)",
                            vb.lo.len(),
                            vb.hi.len()
                        ),
                    );
                } else {
                    for i in 0..vb.lo.len() {
                        let (Some(&lo), Some(&hi)) = (vb.lo.get(i), vb.hi.get(i)) else {
                            continue;
                        };
                        if lo > hi {
                            c.push(dloc(), format!("value bucket {i} inverted: {lo} > {hi}"));
                        }
                        if let Some(&next_lo) = vb.lo.get(i + 1) {
                            if next_lo <= hi {
                                c.push(
                                    dloc(),
                                    format!(
                                        "value buckets {i}/{} overlap: hi {hi} >= next lo \
                                         {next_lo}",
                                        i + 1
                                    ),
                                );
                            }
                        }
                    }
                }
            }
            _ => {}
        }
    }

    // Bucket mass and geometry.
    let dims = h.hist.dims();
    let mut mass = 0.0f64;
    for (i, b) in h.hist.buckets().iter().enumerate() {
        let bloc = || format!("{} bucket {i}", loc());
        if !b.fraction.is_finite() {
            c.push(bloc(), format!("non-finite fraction {}", b.fraction));
            continue;
        }
        if b.fraction < 0.0 {
            c.push(bloc(), format!("negative fraction {}", b.fraction));
        }
        if b.fraction > 1.0 + MASS_EPS {
            c.push(bloc(), format!("fraction {} exceeds 1", b.fraction));
        }
        mass += b.fraction;
        if b.lo.len() != dims || b.hi.len() != dims || b.mean.len() != dims {
            c.push(
                bloc(),
                format!(
                    "bounds arity ({}, {}, {}) disagrees with {dims} dims",
                    b.lo.len(),
                    b.hi.len(),
                    b.mean.len()
                ),
            );
            continue;
        }
        for d in 0..dims {
            let (Some(&lo), Some(&hi), Some(&mean)) = (b.lo.get(d), b.hi.get(d), b.mean.get(d))
            else {
                continue;
            };
            if lo > hi {
                c.push(bloc(), format!("dim {d} bounds inverted: {lo} > {hi}"));
            }
            if !mean.is_finite() || mean < lo as f64 - MASS_EPS || mean > hi as f64 + MASS_EPS {
                c.push(
                    bloc(),
                    format!("dim {d} mean {mean} outside bounds [{lo}, {hi}]"),
                );
            }
        }
    }
    if !h.scope.is_empty() {
        if h.hist.buckets().is_empty() {
            c.push(loc(), "scoped histogram has no buckets".into());
        } else if (mass - 1.0).abs() > MASS_EPS {
            c.push(loc(), format!("bucket fractions sum to {mass}, expected 1"));
        }
    }
}

fn check_value_summary(s: &Synopsis, n: SynId, c: &mut Checker) {
    let Some(vs) = s.value_summary(n) else { return };
    let loc = || format!("{} value summary", node_name(s, n));
    if vs.hist.total() == 0 {
        c.push(loc(), "summarizes zero values".into());
    }
    if vs.hist.bucket_count() == 0 {
        c.push(loc(), "has no buckets".into());
    }
    if vs.hist.bucket_count() as u64 > vs.hist.total() {
        c.push(
            loc(),
            format!(
                "{} buckets for {} values",
                vs.hist.bucket_count(),
                vs.hist.total()
            ),
        );
    }
    if vs.hist.total() > s.extent_size(n) {
        c.push(
            loc(),
            format!(
                "summarizes {} values but the extent holds {} elements",
                vs.hist.total(),
                s.extent_size(n)
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coarse::coarse_synopsis;
    use crate::construct::{xbuild, BuildOptions, TruthSource};
    use crate::synopsis::SynopsisEdge;
    use xtwig_xml::parse;

    fn doc() -> xtwig_xml::Document {
        parse(concat!(
            "<bib>",
            "<author><name/>",
            "<paper><title/><year>1999</year><keyword/><keyword/></paper>",
            "<paper><title/><year>2002</year><keyword/></paper>",
            "</author>",
            "<author><name/>",
            "<paper><title/><year>2001</year><keyword/></paper>",
            "<book><title/></book>",
            "</author>",
            "</bib>"
        ))
        .unwrap()
    }

    #[test]
    fn coarse_synopsis_validates() {
        let s = coarse_synopsis(&doc());
        validate(&s).unwrap();
        fsck(&s).unwrap();
    }

    #[test]
    fn built_synopsis_validates() {
        let d = doc();
        let opts = BuildOptions {
            budget_bytes: coarse_synopsis(&d).size_bytes() + 400,
            max_rounds: 30,
            refinements_per_round: 2,
            workload_with_values: true,
            seed: 11,
            ..Default::default()
        };
        let (s, _) = xbuild(&d, TruthSource::Exact, &opts);
        validate(&s).unwrap();
        fsck(&s).unwrap();
    }

    #[test]
    fn reloaded_snapshot_validates() {
        let s = coarse_synopsis(&doc());
        let reloaded = load_synopsis(&save_synopsis_v3(&s)).unwrap();
        assert!(!reloaded.has_extents());
        validate(&reloaded).unwrap();
        fsck(&reloaded).unwrap();
    }

    /// Builds a broken two-node synopsis through the crate-private
    /// constructor and checks the fsck output names the violations.
    #[test]
    fn corrupted_counts_are_reported() {
        let s = coarse_synopsis(&doc());
        let mut nodes: Vec<crate::synopsis::SynopsisNode> = Vec::new();
        let mut edges = std::collections::BTreeMap::new();
        let mut hists = Vec::new();
        let mut summaries = Vec::new();
        for n in s.node_ids() {
            nodes.push(crate::synopsis::SynopsisNode {
                label: s.label(n),
                extent: Vec::new(),
                count: s.extent_size(n),
            });
            hists.push(s.edge_hist(n).clone());
            summaries.push(s.value_summary(n).cloned());
        }
        for (u, v, e) in s.edge_iter() {
            edges.insert((u, v), *e);
        }
        // Corrupt one edge: child_count larger than the child extent and
        // smaller than parent_count.
        let (&key, _) = edges.iter().next().unwrap();
        edges.insert(
            key,
            SynopsisEdge {
                child_count: 1_000_000,
                parent_count: 2_000_000,
            },
        );
        let broken = Synopsis::from_raw_parts(
            s.labels().clone(),
            nodes,
            edges,
            s.root(),
            s.max_depth(),
            hists,
            summaries,
        );
        let report = validate(&broken).unwrap_err();
        let text = report.to_string();
        assert!(text.contains("exceeds |child extent|"), "{text}");
        assert!(text.contains("exceeds child_count"), "{text}");
        assert!(text.contains("incoming child_count sum"), "{text}");
    }

    #[test]
    fn report_lists_every_issue() {
        let report = FsckReport {
            issues: vec![
                FsckIssue {
                    location: "a".into(),
                    message: "x".into(),
                },
                FsckIssue {
                    location: "b".into(),
                    message: "y".into(),
                },
            ],
        };
        let text = report.to_string();
        assert!(text.contains("2 issue(s)"));
        assert!(text.contains("a: x"));
        assert!(text.contains("b: y"));
    }
}
