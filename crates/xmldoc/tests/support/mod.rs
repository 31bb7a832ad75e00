//! Helpers shared by the integration test binaries (`mod support;`).

pub mod dom;

use xtwig_xml::{parse, write_xml};

/// Asserts that the shipped parser and the DOM reference build the same
/// document from `input`: the same node count and, node by node, the same
/// tag, value and parent.
pub fn assert_agrees_with_dom(input: &str) {
    let reference =
        dom::parse(input).unwrap_or_else(|e| panic!("reference rejects {input:?}: {e}"));
    let shipped = parse(input).unwrap_or_else(|e| panic!("parse rejects {input:?}: {e}"));
    shipped.check_invariants().unwrap();
    assert_eq!(reference.len(), shipped.len(), "node count for {input:?}");
    for (x, y) in reference.nodes().zip(shipped.nodes()) {
        assert_eq!(reference.tag(x), shipped.tag(y), "tag of {x} in {input:?}");
        assert_eq!(
            reference.value(x),
            shipped.value(y),
            "value of {x} in {input:?}"
        );
        assert_eq!(
            reference.parent(x),
            shipped.parent(y),
            "parent of {x} in {input:?}"
        );
    }
    assert_eq!(
        write_xml(&reference),
        write_xml(&shipped),
        "round-trip disagreement for {input:?}"
    );
}
