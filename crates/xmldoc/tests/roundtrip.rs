//! Property tests: the writer and parser are inverse on the document
//! model, the parser agrees with the DOM reference on every generated
//! document, and arena invariants hold for arbitrary build sequences.

mod support;

use proptest::prelude::*;
use xtwig_xml::{parse, write_xml, Document, DocumentBuilder, NodeId};

/// Strategy: a random tree as a nested structure of (tag index, value,
/// children).
#[derive(Debug, Clone)]
struct Node {
    tag: usize,
    value: Option<i64>,
    children: Vec<Node>,
}

fn arb_node() -> impl Strategy<Value = Node> {
    let leaf = (0usize..6, prop::option::of(-1000i64..1000)).prop_map(|(tag, value)| Node {
        tag,
        value,
        children: Vec::new(),
    });
    leaf.prop_recursive(3, 24, 4, |inner| {
        (
            0usize..6,
            prop::option::of(-1000i64..1000),
            prop::collection::vec(inner, 0..4),
        )
            .prop_map(|(tag, value, children)| Node {
                tag,
                value,
                children,
            })
    })
}

const TAGS: [&str; 6] = ["a", "b", "c", "movie", "actor", "year"];

fn build(node: &Node, b: &mut DocumentBuilder) {
    b.open(TAGS[node.tag], node.value);
    for c in &node.children {
        build(c, b);
    }
    b.close();
}

fn to_doc(root: &Node) -> Document {
    let mut b = DocumentBuilder::new();
    build(root, &mut b);
    b.finish()
}

fn docs_equal(a: &Document, b: &Document) -> bool {
    if a.len() != b.len() {
        return false;
    }
    a.nodes().zip(b.nodes()).all(|(x, y)| {
        a.tag(x) == b.tag(y)
            && a.value(x) == b.value(y)
            && a.parent(x).map(|p| p.0) == b.parent(y).map(|p| p.0)
    })
}

#[test]
fn agrees_with_dom_reference() {
    for input in [
        "<a><b>42</b><c><d>-7</d></c></a>",
        r#"<m year="1999" title="x"><a/></m>"#,
        "<?xml version=\"1.0\"?>\n<!-- hi -->\n<a>\n  <b>1</b>\n</a>\n<!-- bye -->",
        "<a><b>hello</b></a>",
        "<a>&lt;&amp;&gt;</a>",
        "<a>12<b/>34</a>",
        "<r><x/><x/><x y='7'/></r>",
        "<a>  7  </a>",
    ] {
        support::assert_agrees_with_dom(input);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn write_parse_roundtrip(root in arb_node()) {
        let doc = to_doc(&root);
        doc.check_invariants().unwrap();
        let text = write_xml(&doc);
        support::assert_agrees_with_dom(&text);
        let reparsed = parse(&text).unwrap();
        reparsed.check_invariants().unwrap();
        // Values on internal elements are a model-only feature (XML mixed
        // content drops them), so compare leaf values and full structure.
        prop_assert_eq!(doc.len(), reparsed.len());
        for (x, y) in doc.nodes().zip(reparsed.nodes()) {
            prop_assert_eq!(doc.tag(x), reparsed.tag(y));
            prop_assert_eq!(doc.parent(x).map(|p| p.0), reparsed.parent(y).map(|p| p.0));
            if doc.is_leaf(x) {
                prop_assert_eq!(doc.value(x), reparsed.value(y));
            }
        }
    }

    #[test]
    fn double_roundtrip_is_identity(root in arb_node()) {
        // After one write+parse (which canonicalizes mixed content), the
        // document is a fixed point.
        let doc = to_doc(&root);
        let once = parse(&write_xml(&doc)).unwrap();
        support::assert_agrees_with_dom(&write_xml(&once));
        let twice = parse(&write_xml(&once)).unwrap();
        prop_assert!(docs_equal(&once, &twice));
    }

    #[test]
    fn depth_and_paths_are_consistent(root in arb_node()) {
        let doc = to_doc(&root);
        support::assert_agrees_with_dom(&write_xml(&doc));
        for n in doc.nodes() {
            let path = doc.label_path(n);
            prop_assert_eq!(path.len(), doc.depth(n) + 1);
            prop_assert_eq!(*path.last().unwrap(), doc.label(n));
            prop_assert_eq!(path[0], doc.label(doc.root()));
        }
    }

    #[test]
    fn descendant_count_matches_subtree_sizes(root in arb_node()) {
        let doc = to_doc(&root);
        support::assert_agrees_with_dom(&write_xml(&doc));
        // Σ over children subtree sizes + 1 == own subtree size.
        fn size(doc: &Document, n: xtwig_xml::NodeId) -> usize {
            1 + doc.children(n).map(|c| size(doc, c)).sum::<usize>()
        }
        prop_assert_eq!(size(&doc, doc.root()), doc.len());
        let listed = doc.descendants(doc.root()).count();
        prop_assert_eq!(listed + 1, doc.len());
    }

    #[test]
    fn descendants_match_a_recursive_walk(root in arb_node()) {
        let doc = to_doc(&root);
        for n in doc.nodes() {
            let walked: Vec<NodeId> = doc.descendants(n).collect();
            prop_assert_eq!(walked, recursive_descendants(&doc, n), "below {}", n);
        }
    }
}

/// The descendants of `n` in document order, by recursion over the
/// children: the reference `Document::descendants` must reproduce.
fn recursive_descendants(doc: &Document, n: NodeId) -> Vec<NodeId> {
    fn walk(doc: &Document, n: NodeId, out: &mut Vec<NodeId>) {
        for c in doc.children(n) {
            out.push(c);
            walk(doc, c, out);
        }
    }
    let mut out = Vec::new();
    walk(doc, n, &mut out);
    out
}
