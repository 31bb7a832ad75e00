//! Arena-backed document tree.

use crate::labels::{LabelId, LabelTable};
use std::fmt;

/// Handle to an element node in a [`Document`] arena.
///
/// Node ids are assigned in document order (pre-order of the tree), which
/// several algorithms rely on: a parent's id is always smaller than its
/// descendants' ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    pub(crate) const NONE: u32 = u32::MAX;

    /// The raw index of this node in the arena.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Per-element storage: label, tree links, and optional leaf value.
#[derive(Debug, Clone)]
pub struct ElementData {
    pub(crate) label: LabelId,
    pub(crate) parent: u32,
    pub(crate) first_child: u32,
    pub(crate) next_sibling: u32,
    pub(crate) value: Option<i64>,
}

/// An immutable XML document tree.
///
/// Construct one through [`DocumentBuilder`](crate::DocumentBuilder) or
/// [`parse`](crate::parse). A document always has exactly one root element.
#[derive(Debug, Clone)]
pub struct Document {
    pub(crate) labels: LabelTable,
    pub(crate) elems: Vec<ElementData>,
}

impl Document {
    /// Number of elements in the document.
    #[inline]
    pub fn len(&self) -> usize {
        self.elems.len()
    }

    /// Whether the document holds no elements. Never true for documents
    /// produced by the builder or parser (they require a root).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.elems.is_empty()
    }

    /// The root element (document order id 0).
    #[inline]
    pub fn root(&self) -> NodeId {
        debug_assert!(!self.elems.is_empty());
        NodeId(0)
    }

    /// The label of `n`.
    #[inline]
    pub fn label(&self, n: NodeId) -> LabelId {
        self.elems[n.index()].label
    }

    /// The tag name of `n`.
    #[inline]
    pub fn tag(&self, n: NodeId) -> &str {
        self.labels.name(self.label(n))
    }

    /// The integer value stored at `n`, if any.
    #[inline]
    pub fn value(&self, n: NodeId) -> Option<i64> {
        self.elems[n.index()].value
    }

    /// The parent of `n`, or `None` for the root.
    #[inline]
    pub fn parent(&self, n: NodeId) -> Option<NodeId> {
        let p = self.elems[n.index()].parent;
        (p != NodeId::NONE).then_some(NodeId(p))
    }

    /// Iterates over the children of `n` in document order.
    #[inline]
    pub fn children(&self, n: NodeId) -> Children<'_> {
        Children {
            doc: self,
            next: self.elems[n.index()].first_child,
        }
    }

    /// Iterates over the children of `n` that carry label `label`.
    pub fn children_labeled(&self, n: NodeId, label: LabelId) -> impl Iterator<Item = NodeId> + '_ {
        self.children(n).filter(move |&c| self.label(c) == label)
    }

    /// Number of children of `n`.
    pub fn child_count(&self, n: NodeId) -> usize {
        self.children(n).count()
    }

    /// Whether `n` has no children.
    #[inline]
    pub fn is_leaf(&self, n: NodeId) -> bool {
        self.elems[n.index()].first_child == NodeId::NONE
    }

    /// The label table of this document.
    #[inline]
    pub fn labels(&self) -> &LabelTable {
        &self.labels
    }

    /// Iterates over all node ids in document (pre-)order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.elems.len() as u32).map(NodeId)
    }

    /// Depth of `n` (root has depth 0).
    pub fn depth(&self, n: NodeId) -> usize {
        let mut d = 0;
        let mut cur = n;
        while let Some(p) = self.parent(cur) {
            d += 1;
            cur = p;
        }
        d
    }

    /// The sequence of labels on the path from the root down to `n`
    /// (inclusive of both endpoints).
    pub fn label_path(&self, n: NodeId) -> Vec<LabelId> {
        let mut path = vec![self.label(n)];
        let mut cur = n;
        while let Some(p) = self.parent(cur) {
            path.push(self.label(p));
            cur = p;
        }
        path.reverse();
        path
    }

    /// Iterates over all descendants of `n` (excluding `n`) in document
    /// order. The walk follows the first-child, next-sibling and parent
    /// links, so it allocates nothing.
    pub fn descendants(&self, n: NodeId) -> Descendants<'_> {
        Descendants {
            doc: self,
            top: n.0,
            next: self.elems[n.index()].first_child,
        }
    }

    /// Verifies internal arena invariants; used by tests and debug builds.
    ///
    /// Checks that ids are in pre-order (parents precede children), links are
    /// consistent, and exactly one node (the root) has no parent.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.elems.is_empty() {
            return Err("document has no elements".into());
        }
        let mut rootless = 0usize;
        for n in self.nodes() {
            let e = &self.elems[n.index()];
            if e.parent == NodeId::NONE {
                rootless += 1;
            } else {
                if e.parent >= n.0 {
                    return Err(format!("{n}: parent id {} not before child", e.parent));
                }
                let is_child = self.children(NodeId(e.parent)).any(|c| c == n);
                if !is_child {
                    return Err(format!("{n}: not linked from its parent"));
                }
            }
            for c in self.children(n) {
                if self.elems[c.index()].parent != n.0 {
                    return Err(format!("{c}: child link without back pointer to {n}"));
                }
            }
        }
        if rootless != 1 {
            return Err(format!("{rootless} parentless nodes (expected 1)"));
        }
        Ok(())
    }
}

/// Iterator over the children of a node.
pub struct Children<'a> {
    doc: &'a Document,
    next: u32,
}

impl Iterator for Children<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        if self.next == NodeId::NONE {
            return None;
        }
        let cur = NodeId(self.next);
        self.next = self.doc.elems[cur.index()].next_sibling;
        Some(cur)
    }
}

/// Iterator over the descendants of a node in document order.
pub struct Descendants<'a> {
    doc: &'a Document,
    /// The node whose descendants are walked.
    top: u32,
    /// The next node to yield, or `NodeId::NONE` once the walk is done.
    next: u32,
}

impl Iterator for Descendants<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        if self.next == NodeId::NONE {
            return None;
        }
        let cur = self.next;
        // Pre-order successor: the first child, else the next sibling of
        // the nearest node on the way back up to `top` that has one.
        let elems = &self.doc.elems;
        let mut n = cur;
        self.next = elems[n as usize].first_child;
        while self.next == NodeId::NONE && n != self.top {
            let e = &elems[n as usize];
            self.next = e.next_sibling;
            n = e.parent;
        }
        Some(NodeId(cur))
    }
}

#[cfg(test)]
mod tests {
    use crate::DocumentBuilder;

    #[test]
    fn navigation_basics() {
        let mut b = DocumentBuilder::new();
        let root = b.open("a", None);
        let c1 = b.open("b", Some(1));
        b.close();
        let c2 = b.open("c", None);
        let g = b.open("d", Some(7));
        b.close();
        b.close();
        b.close();
        let doc = b.finish();
        doc.check_invariants().unwrap();

        assert_eq!(doc.root(), root);
        assert_eq!(doc.tag(root), "a");
        assert_eq!(doc.parent(root), None);
        let kids: Vec<_> = doc.children(root).collect();
        assert_eq!(kids, vec![c1, c2]);
        assert_eq!(doc.value(c1), Some(1));
        assert_eq!(doc.parent(g), Some(c2));
        assert_eq!(doc.depth(g), 2);
        assert!(doc.is_leaf(c1));
        assert!(!doc.is_leaf(c2));
        assert_eq!(doc.child_count(root), 2);
    }

    #[test]
    fn descendants_in_document_order() {
        let mut b = DocumentBuilder::new();
        b.open("r", None);
        b.open("a", None);
        b.open("b", None);
        b.close();
        b.close();
        b.open("c", None);
        b.close();
        b.close();
        let doc = b.finish();
        let tags: Vec<_> = doc
            .descendants(doc.root())
            .map(|n| doc.tag(n).to_owned())
            .collect();
        assert_eq!(tags, vec!["a", "b", "c"]);
    }

    #[test]
    fn label_path_from_root() {
        let mut b = DocumentBuilder::new();
        b.open("r", None);
        b.open("a", None);
        let n = b.open("b", None);
        b.close();
        b.close();
        b.close();
        let doc = b.finish();
        let path = doc.label_path(n);
        let names: Vec<_> = path.iter().map(|&l| doc.labels().name(l)).collect();
        assert_eq!(names, vec!["r", "a", "b"]);
    }
}
