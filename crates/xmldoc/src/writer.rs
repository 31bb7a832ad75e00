//! XML serialization.
//!
//! The writer walks the tree with an explicit stack, not recursion, so a
//! document of any depth serializes without growing the call stack. Its
//! output is byte-stable: WAL insert records, checkpoint document files
//! and the Table 1 text size are all this function's bytes.

use crate::document::{Document, NodeId};
use std::fmt::Write as _;

/// One pending step of the pre-order walk.
enum Step {
    /// Write the element's start tag (with its attributes) and schedule
    /// its element children.
    Open(NodeId),
    /// Write the element's end tag.
    Close(NodeId),
}

/// Serializes `doc` back to XML text.
///
/// Elements with a value are written with the value as character data;
/// attribute nodes (labels starting with `@`) are written as attributes on
/// their parent's start tag. The output round-trips through
/// [`parse`](crate::parse) when the document is within the parser's
/// [`StreamLimits`](crate::StreamLimits). Used to measure the "text size"
/// column of the paper's Table 1 for the synthetic datasets.
pub fn write_xml(doc: &Document) -> String {
    let mut out = String::with_capacity(doc.len() * 16);
    let mut stack = vec![Step::Open(doc.root())];
    while let Some(step) = stack.pop() {
        let n = match step {
            Step::Open(n) => n,
            Step::Close(n) => {
                out.push_str("</");
                out.push_str(doc.tag(n));
                out.push('>');
                continue;
            }
        };
        let tag = doc.tag(n);
        debug_assert!(
            !tag.starts_with('@'),
            "attribute nodes are emitted by their parent"
        );
        out.push('<');
        out.push_str(tag);
        stack.push(Step::Close(n));
        let first_child = stack.len();
        for c in doc.children(n) {
            if let Some(attr) = doc.tag(c).strip_prefix('@') {
                out.push(' ');
                out.push_str(attr);
                out.push_str("=\"");
                if let Some(v) = doc.value(c) {
                    let _ = write!(out, "{v}");
                }
                out.push('"');
            } else {
                stack.push(Step::Open(c));
            }
        }
        let value = doc.value(n);
        if stack.len() == first_child && value.is_none() {
            stack.pop();
            out.push_str("/>");
            continue;
        }
        // Children were pushed in document order; pop them in that order.
        stack[first_child..].reverse();
        out.push('>');
        if let Some(v) = value {
            let _ = write!(out, "{v}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn writes_values_and_empty_elements() {
        let doc = parse("<a><b>42</b><c/></a>").unwrap();
        assert_eq!(write_xml(&doc), "<a><b>42</b><c/></a>");
        // Attributes stay on their element's start tag (a non-integer one
        // as an empty string), children keep document order, and closing
        // tags unwind in nesting order.
        let doc = parse(r#"<m y="7" t="x"><a><b>-3</b><c/></a><d><e><f/></e></d></m>"#).unwrap();
        assert_eq!(
            write_xml(&doc),
            r#"<m y="7" t=""><a><b>-3</b><c/></a><d><e><f/></e></d></m>"#
        );
    }

    #[test]
    fn round_trips_attributes() {
        let doc = parse(r#"<m year="1999"><a/></m>"#).unwrap();
        let text = write_xml(&doc);
        let doc2 = parse(&text).unwrap();
        assert_eq!(doc.len(), doc2.len());
        let k1: Vec<_> = doc
            .children(doc.root())
            .map(|c| doc.tag(c).to_owned())
            .collect();
        let k2: Vec<_> = doc2
            .children(doc2.root())
            .map(|c| doc2.tag(c).to_owned())
            .collect();
        assert_eq!(k1, k2);
    }
}
