//! Document deltas: insert/delete/modify subtree operations.
//!
//! The arena layout of [`Document`] is immutable (node ids are pre-order
//! positions, so any structural change shifts every later id). A [`Delta`]
//! therefore describes mutations against the *old* document's ids, and
//! [`apply_delta`] materializes a fresh arena in one pre-order pass,
//! returning the old→new [`NodeId`] mapping so downstream consumers (the
//! synopsis's extents, the WAL) can follow elements across the rebuild.
//!
//! Semantics:
//! - [`DeltaOp::InsertSubtree`] grafts a complete subtree (itself a
//!   [`Document`]) as the new *last* child of `parent`.
//! - [`DeltaOp::DeleteSubtree`] removes `target` and all its descendants.
//!   The root cannot be deleted (a document always has one root).
//! - [`DeltaOp::ModifyValue`] replaces the leaf value of `target`.
//!
//! Operations in one delta are applied as a batch: deletions are resolved
//! first, and an insert or modify aimed at a deleted element is an error
//! rather than a silent drop.
//!
//! An inserted element may not end up nested deeper than the parser's
//! default [`StreamLimits::max_depth`]: the result must parse back, since
//! the ingest store writes it as its checkpoint document and reads it
//! again on recovery. Deletes and value edits cannot deepen a document.

use crate::builder::DocumentBuilder;
use crate::document::{Document, NodeId};
use crate::parser_stream::StreamLimits;
use std::collections::HashMap;
use std::fmt;

/// One mutation against a document, in the old document's id space.
#[derive(Debug, Clone)]
pub enum DeltaOp {
    /// Graft `subtree` (a complete document) as the new last child of
    /// `parent`.
    InsertSubtree {
        /// The element receiving the new child subtree.
        parent: NodeId,
        /// The subtree to graft; its root becomes the new child.
        subtree: Document,
    },
    /// Delete `target` and its entire subtree.
    DeleteSubtree {
        /// The root of the subtree to remove (never the document root).
        target: NodeId,
    },
    /// Replace the value of `target`.
    ModifyValue {
        /// The element whose value changes.
        target: NodeId,
        /// The new value (`None` clears it).
        value: Option<i64>,
    },
}

/// A batch of [`DeltaOp`]s against one document generation.
#[derive(Debug, Clone, Default)]
pub struct Delta {
    /// The operations, applied as one batch.
    pub ops: Vec<DeltaOp>,
}

impl Delta {
    /// An empty delta.
    pub fn new() -> Delta {
        Delta::default()
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the delta holds no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Appends an insert op.
    pub fn insert(&mut self, parent: NodeId, subtree: Document) -> &mut Delta {
        self.ops.push(DeltaOp::InsertSubtree { parent, subtree });
        self
    }

    /// Appends a delete op.
    pub fn delete(&mut self, target: NodeId) -> &mut Delta {
        self.ops.push(DeltaOp::DeleteSubtree { target });
        self
    }

    /// Appends a modify op.
    pub fn modify(&mut self, target: NodeId, value: Option<i64>) -> &mut Delta {
        self.ops.push(DeltaOp::ModifyValue { target, value });
        self
    }
}

/// Why a delta could not be applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// An op referenced an id outside the document.
    UnknownNode {
        /// The out-of-range id.
        node: NodeId,
        /// The document's element count.
        doc_len: usize,
    },
    /// A delete targeted the document root.
    DeleteRoot,
    /// An insert or modify targeted an element deleted by the same delta.
    TargetDeleted {
        /// The deleted target.
        node: NodeId,
    },
    /// An inserted subtree would nest elements deeper than the parser's
    /// default depth limit, so the document could not be parsed back.
    DepthLimitExceeded {
        /// The element receiving the insert.
        parent: NodeId,
        /// The limit on open elements ([`StreamLimits::max_depth`]).
        limit: usize,
    },
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::UnknownNode { node, doc_len } => {
                write!(f, "delta references {node} outside document of {doc_len}")
            }
            DeltaError::DeleteRoot => write!(f, "delta deletes the document root"),
            DeltaError::TargetDeleted { node } => {
                write!(f, "delta targets {node}, deleted by the same delta")
            }
            DeltaError::DepthLimitExceeded { parent, limit } => write!(
                f,
                "delta inserts under {parent} past the element nesting limit of {limit}"
            ),
        }
    }
}

impl std::error::Error for DeltaError {}

/// The result of [`apply_delta`]: the new document plus the id mapping.
#[derive(Debug, Clone)]
pub struct AppliedDelta {
    /// The rebuilt document.
    pub doc: Document,
    /// Old id → new id for every old element (`None` when deleted).
    pub node_map: Vec<Option<NodeId>>,
    /// New-document ids of every inserted element, in document order.
    pub inserted: Vec<NodeId>,
}

/// Applies `delta` to `doc`, producing the rebuilt document and the
/// old→new id mapping. `doc` itself is untouched.
///
/// Fails with [`DeltaError::DepthLimitExceeded`] when an inserted element
/// would sit under more than `StreamLimits::default().max_depth - 1`
/// ancestors (256 open elements pass and 257 fail, as in the parser).
pub fn apply_delta(doc: &Document, delta: &Delta) -> Result<AppliedDelta, DeltaError> {
    let check = |n: NodeId| -> Result<(), DeltaError> {
        if n.index() >= doc.len() {
            return Err(DeltaError::UnknownNode {
                node: n,
                doc_len: doc.len(),
            });
        }
        Ok(())
    };

    // Pass 1: resolve deletions.
    let mut deleted = vec![false; doc.len()];
    for op in &delta.ops {
        if let DeltaOp::DeleteSubtree { target } = op {
            check(*target)?;
            if *target == doc.root() {
                return Err(DeltaError::DeleteRoot);
            }
            deleted[target.index()] = true;
            for d in doc.descendants(*target) {
                deleted[d.index()] = true;
            }
        }
    }

    // Pass 2: value overrides and per-parent insert lists (in op order).
    let mut values: HashMap<u32, Option<i64>> = HashMap::new();
    let mut inserts: HashMap<u32, Vec<&Document>> = HashMap::new();
    for op in &delta.ops {
        match op {
            DeltaOp::DeleteSubtree { .. } => {}
            DeltaOp::ModifyValue { target, value } => {
                check(*target)?;
                if deleted[target.index()] {
                    return Err(DeltaError::TargetDeleted { node: *target });
                }
                values.insert(target.0, *value);
            }
            DeltaOp::InsertSubtree { parent, subtree } => {
                check(*parent)?;
                if deleted[parent.index()] {
                    return Err(DeltaError::TargetDeleted { node: *parent });
                }
                inserts.entry(parent.0).or_default().push(subtree);
            }
        }
    }

    // Pass 3: rebuild the arena in pre-order with an explicit stack, so a
    // pathological depth never overflows the call stack. Inserted subtrees
    // come after the surviving original children (last-child semantics).
    enum Work<'d> {
        Enter(NodeId),
        Exit,
        EnterNew {
            sub: &'d Document,
            node: NodeId,
            parent: NodeId,
        },
    }
    let max_depth = StreamLimits::default().max_depth;
    let mut b = DocumentBuilder::new();
    let mut node_map: Vec<Option<NodeId>> = vec![None; doc.len()];
    let mut inserted: Vec<NodeId> = Vec::new();
    let mut stack: Vec<Work> = vec![Work::Enter(doc.root())];
    // Elements open in the builder: the ancestors of the next one opened.
    let mut open = 0usize;
    while let Some(w) = stack.pop() {
        match w {
            Work::Enter(n) => {
                if deleted[n.index()] {
                    continue;
                }
                let value = values.get(&n.0).copied().unwrap_or_else(|| doc.value(n));
                let new_id = b.open(doc.tag(n), value);
                open += 1;
                node_map[n.index()] = Some(new_id);
                stack.push(Work::Exit);
                if let Some(subs) = inserts.get(&n.0) {
                    for sub in subs.iter().rev() {
                        stack.push(Work::EnterNew {
                            sub,
                            node: sub.root(),
                            parent: n,
                        });
                    }
                }
                let kids: Vec<NodeId> = doc.children(n).collect();
                for &c in kids.iter().rev() {
                    stack.push(Work::Enter(c));
                }
            }
            Work::EnterNew { sub, node, parent } => {
                if open >= max_depth {
                    return Err(DeltaError::DepthLimitExceeded {
                        parent,
                        limit: max_depth,
                    });
                }
                let new_id = b.open(sub.tag(node), sub.value(node));
                open += 1;
                inserted.push(new_id);
                stack.push(Work::Exit);
                let kids: Vec<NodeId> = sub.children(node).collect();
                for &c in kids.iter().rev() {
                    stack.push(Work::EnterNew {
                        sub,
                        node: c,
                        parent,
                    });
                }
            }
            Work::Exit => {
                b.close();
                open -= 1;
            }
        }
    }
    Ok(AppliedDelta {
        doc: b.finish(),
        node_map,
        inserted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser_stream::parse;
    use crate::writer::write_xml;

    #[test]
    fn insert_appends_as_last_child() {
        let doc = parse("<r><a/><b/></r>").unwrap();
        let sub = parse("<c><d>7</d></c>").unwrap();
        let mut delta = Delta::new();
        delta.insert(doc.root(), sub);
        let out = apply_delta(&doc, &delta).unwrap();
        out.doc.check_invariants().unwrap();
        assert_eq!(write_xml(&out.doc), "<r><a/><b/><c><d>7</d></c></r>");
        assert_eq!(out.inserted.len(), 2);
        // Surviving elements map through unchanged (no deletions before
        // them in pre-order).
        for n in doc.nodes() {
            assert_eq!(out.node_map[n.index()], Some(n));
        }
    }

    #[test]
    fn delete_removes_the_whole_subtree_and_maps_to_none() {
        let doc = parse("<r><a><x/><y/></a><b/></r>").unwrap();
        let a = doc.children(doc.root()).next().unwrap();
        let mut delta = Delta::new();
        delta.delete(a);
        let out = apply_delta(&doc, &delta).unwrap();
        out.doc.check_invariants().unwrap();
        assert_eq!(write_xml(&out.doc), "<r><b/></r>");
        assert_eq!(out.node_map[a.index()], None);
        for d in doc.descendants(a) {
            assert_eq!(out.node_map[d.index()], None);
        }
        // `b` shifted left in the arena but is still tracked.
        let b = doc.children(doc.root()).nth(1).unwrap();
        let nb = out.node_map[b.index()].unwrap();
        assert_eq!(out.doc.tag(nb), "b");
    }

    #[test]
    fn modify_rewrites_values() {
        let doc = parse("<r><v>1</v></r>").unwrap();
        let v = doc.children(doc.root()).next().unwrap();
        let mut delta = Delta::new();
        delta.modify(v, Some(99)).modify(doc.root(), None);
        let out = apply_delta(&doc, &delta).unwrap();
        let nv = out.node_map[v.index()].unwrap();
        assert_eq!(out.doc.value(nv), Some(99));
    }

    #[test]
    fn batch_semantics_reject_ops_on_deleted_targets() {
        let doc = parse("<r><a><x/></a></r>").unwrap();
        let a = doc.children(doc.root()).next().unwrap();
        let x = doc.children(a).next().unwrap();
        let mut delta = Delta::new();
        delta.delete(a).modify(x, Some(1));
        match apply_delta(&doc, &delta) {
            Err(e) => assert_eq!(e, DeltaError::TargetDeleted { node: x }),
            Ok(_) => panic!("modify under a deleted subtree must fail"),
        }
        let mut delta = Delta::new();
        delta.delete(doc.root());
        assert!(matches!(
            apply_delta(&doc, &delta),
            Err(DeltaError::DeleteRoot)
        ));
        let mut delta = Delta::new();
        delta.modify(NodeId(999), None);
        assert!(matches!(
            apply_delta(&doc, &delta),
            Err(DeltaError::UnknownNode { .. })
        ));
    }

    #[test]
    fn combined_ops_apply_in_one_pass() {
        let doc = parse("<r><a>1</a><b/><c>3</c></r>").unwrap();
        let kids: Vec<_> = doc.children(doc.root()).collect();
        let mut delta = Delta::new();
        delta
            .delete(kids[1])
            .modify(kids[0], Some(10))
            .insert(kids[2], parse("<d/>").unwrap());
        let out = apply_delta(&doc, &delta).unwrap();
        out.doc.check_invariants().unwrap();
        assert_eq!(write_xml(&out.doc), "<r><a>10</a><c>3<d/></c></r>");
        assert_eq!(out.inserted.len(), 1);
        assert_eq!(out.doc.tag(out.inserted[0]), "d");
    }

    #[test]
    fn empty_delta_is_identity() {
        let doc = parse("<r><a>1</a><b/></r>").unwrap();
        let out = apply_delta(&doc, &Delta::new()).unwrap();
        assert_eq!(write_xml(&out.doc), write_xml(&doc));
        assert!(out.inserted.is_empty());
        for n in doc.nodes() {
            assert_eq!(out.node_map[n.index()], Some(n));
        }
    }

    /// A single-label chain `depth` elements deep, and its deepest element.
    fn chain(depth: usize) -> (Document, NodeId) {
        let mut b = DocumentBuilder::new();
        let mut last = NodeId(0);
        for _ in 0..depth {
            last = b.open("a", None);
        }
        for _ in 0..depth {
            b.close();
        }
        (b.finish(), last)
    }

    #[test]
    fn inserts_past_the_parser_depth_limit_are_refused() {
        let limit = StreamLimits::default().max_depth;
        let (doc, deepest) = chain(limit - 6);
        // Six more levels reach exactly the limit: the result parses back.
        let mut delta = Delta::new();
        delta.insert(deepest, chain(6).0);
        let out = apply_delta(&doc, &delta).unwrap();
        assert_eq!(out.doc.len(), limit);
        assert!(parse(&write_xml(&out.doc)).is_ok());
        // Seven would nest 257 open elements: refused, naming the limit.
        let mut delta = Delta::new();
        delta.insert(deepest, chain(7).0);
        assert_eq!(
            apply_delta(&doc, &delta).unwrap_err(),
            DeltaError::DepthLimitExceeded {
                parent: deepest,
                limit,
            }
        );
    }
}
