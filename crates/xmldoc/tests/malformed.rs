//! Hostile-input corpus for the streaming parser: truncated markup,
//! illegal nesting, entity bombs, and limit-violating documents must
//! surface as typed [`StreamError`]s with byte offsets — never a panic
//! and never unbounded memory. A fixed corpus pins each
//! [`StreamErrorKind`]; property tests then feed arbitrary and mutated
//! byte streams through the parser asserting it always terminates with
//! `Ok` or a typed error whose offset lies inside the input.

use proptest::prelude::*;
use std::io::Read;
use xtwig_xml::{parse, parse_stream, write_xml, DocumentBuilder, StreamErrorKind};
use xtwig_xml::{Document, StreamLimits};

/// Bytes that need not be UTF-8, under the default limits.
fn parse_bytes(bytes: &[u8]) -> Result<Document, xtwig_xml::StreamError> {
    parse_stream(bytes, StreamLimits::default())
}

fn parse_str_with(text: &str, limits: StreamLimits) -> Result<Document, xtwig_xml::StreamError> {
    parse_stream(text.as_bytes(), limits)
}

/// The error kind for `text`, asserting the offset is inside the input.
fn kind_of(text: &str) -> StreamErrorKind {
    let err = parse(text).expect_err("malformed input must not parse");
    assert!(
        err.offset <= text.len() as u64,
        "offset {} past input length {} for {text:?}",
        err.offset,
        text.len()
    );
    err.kind
}

// ---------------------------------------------------------------- fixed corpus

#[test]
fn truncated_tags_report_unexpected_eof() {
    // Cut a valid document at every position that leaves a construct
    // open; the parser must say what it was still waiting for.
    for text in [
        "<",
        "<a",
        "<a ",
        "<a attr",
        "<a attr=",
        "<a attr=\"v",
        "<a>",
        "<a><b></b>",
        "<a>text",
        "<a><!-- comment",
        "<a><![CDATA[x",
        "<a></a",
        "<a/",
    ] {
        match kind_of(text) {
            StreamErrorKind::UnexpectedEof { .. } => {}
            // A cut mid-name can surface as "expected a name" — still a
            // typed, located error, which is the contract.
            StreamErrorKind::Malformed { .. } => {}
            other => panic!("{text:?}: expected UnexpectedEof/Malformed, got {other:?}"),
        }
    }
}

#[test]
fn every_strict_prefix_of_a_document_errors_or_parses_without_panic() {
    let text = "<bib><paper year=\"2004\"><kw>twig</kw><cite/></paper></bib>";
    for cut in 0..text.len() {
        let prefix = &text[..cut];
        if let Err(e) = parse(prefix) {
            assert!(
                e.offset <= cut as u64,
                "{prefix:?}: offset {} > {cut}",
                e.offset
            );
        }
    }
    assert!(parse(text).is_ok());
}

#[test]
fn illegal_nesting_reports_the_mismatched_pair() {
    match kind_of("<a><b></a></b>") {
        StreamErrorKind::MismatchedTag { open, found } => {
            assert_eq!(open, "b");
            assert_eq!(found, "a");
        }
        other => panic!("expected MismatchedTag, got {other:?}"),
    }
    match kind_of("</a>") {
        StreamErrorKind::MismatchedTag { open, found } => {
            assert!(open.is_empty(), "nothing was open");
            assert_eq!(found, "a");
        }
        other => panic!("expected MismatchedTag, got {other:?}"),
    }
}

#[test]
fn dtd_internal_subsets_are_rejected_outright() {
    // The classic billion-laughs vector: entity declarations in an
    // internal DTD subset. Rejected before any expansion can happen.
    let bomb = concat!(
        "<!DOCTYPE lolz [",
        "<!ENTITY lol \"lol\">",
        "<!ENTITY lol2 \"&lol;&lol;&lol;&lol;&lol;&lol;&lol;&lol;&lol;&lol;\">",
        "]><lolz>&lol2;</lolz>"
    );
    assert_eq!(kind_of(bomb), StreamErrorKind::DtdRejected);
    assert_eq!(kind_of("<!DOCTYPE a><a/>"), StreamErrorKind::DtdRejected);
}

#[test]
fn entity_reference_floods_hit_the_entity_budget() {
    let limits = StreamLimits {
        max_entity_refs: 8,
        ..StreamLimits::default()
    };
    let mut text = String::from("<a>");
    for _ in 0..50 {
        text.push_str("&amp;");
    }
    text.push_str("</a>");
    let err = parse_str_with(&text, limits).expect_err("flood must trip the budget");
    assert_eq!(err.kind, StreamErrorKind::EntityLimitExceeded { limit: 8 });
    assert!(err.offset <= text.len() as u64);
    // Under the default (generous) budget the same stream is fine.
    assert!(parse(&text).is_ok());
}

#[test]
fn unknown_and_unterminated_entities_are_typed() {
    match kind_of("<a>&x33;</a>") {
        StreamErrorKind::UnsupportedEntity { entity } => assert_eq!(entity, "&x33;"),
        other => panic!("expected UnsupportedEntity, got {other:?}"),
    }
    let long_ref = format!("<a>&{};</a>", "n".repeat(4096));
    match kind_of(&long_ref) {
        StreamErrorKind::UnterminatedEntity | StreamErrorKind::UnsupportedEntity { .. } => {}
        other => panic!("expected an entity error, got {other:?}"),
    }
}

#[test]
fn nesting_past_the_depth_limit_is_cut_off() {
    let limits = StreamLimits {
        max_depth: 16,
        ..StreamLimits::default()
    };
    let mut text = String::new();
    for _ in 0..32 {
        text.push_str("<d>");
    }
    for _ in 0..32 {
        text.push_str("</d>");
    }
    let err = parse_str_with(&text, limits).expect_err("32 levels over a 16 limit");
    assert_eq!(err.kind, StreamErrorKind::DepthLimitExceeded { limit: 16 });
    // The offset points inside the opening run, before any close tag.
    assert!(err.offset <= (32 * 3) as u64);

    // A document deeper than the *default* limit is also refused.
    let deep: String = "<x>".repeat(300) + &"</x>".repeat(300);
    let err = parse(&deep).expect_err("300 levels over the default limit");
    assert!(matches!(
        err.kind,
        StreamErrorKind::DepthLimitExceeded { .. }
    ));
}

#[test]
fn name_attr_and_text_limits_are_enforced() {
    let limits = StreamLimits {
        max_name_bytes: 8,
        max_attrs: 2,
        max_text_bytes: 16,
        ..StreamLimits::default()
    };
    let long_name = format!("<{}/>", "n".repeat(64));
    assert_eq!(
        parse_str_with(&long_name, limits)
            .expect_err("name over limit")
            .kind,
        StreamErrorKind::NameLimitExceeded { limit: 8 }
    );
    let many_attrs = "<a p=\"1\" q=\"2\" r=\"3\"/>";
    assert_eq!(
        parse_str_with(many_attrs, limits)
            .expect_err("attrs over limit")
            .kind,
        StreamErrorKind::AttrLimitExceeded { limit: 2 }
    );
    let long_text = format!("<a>{}</a>", "t".repeat(64));
    assert_eq!(
        parse_str_with(&long_text, limits)
            .expect_err("text over limit")
            .kind,
        StreamErrorKind::TextLimitExceeded { limit: 16 }
    );
}

#[test]
fn trailing_content_and_empty_streams_are_typed() {
    assert_eq!(kind_of("<a/><b/>"), StreamErrorKind::TrailingContent);
    assert_eq!(kind_of("<a/>junk"), StreamErrorKind::TrailingContent);
    assert_eq!(kind_of(""), StreamErrorKind::EmptyDocument);
    assert_eq!(kind_of("   \n\t "), StreamErrorKind::EmptyDocument);
    assert_eq!(
        kind_of("<!-- only a comment -->"),
        StreamErrorKind::EmptyDocument
    );
}

/// A reader that yields `<a>` then an endless run of text bytes: the
/// parser must fail at its text budget after reading O(limit) bytes —
/// constant memory on an infinite stream, not an OOM.
struct EndlessText {
    emitted: usize,
}

impl Read for EndlessText {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        const PREFIX: &[u8] = b"<a>";
        let mut n = 0;
        for slot in buf.iter_mut() {
            *slot = if self.emitted < PREFIX.len() {
                PREFIX[self.emitted]
            } else {
                b'x'
            };
            self.emitted += 1;
            n += 1;
        }
        Ok(n)
    }
}

#[test]
fn an_infinite_text_stream_fails_at_the_budget_not_at_oom() {
    let limits = StreamLimits {
        max_text_bytes: 1 << 12,
        ..StreamLimits::default()
    };
    let mut reader = EndlessText { emitted: 0 };
    let err = parse_stream(&mut reader, limits).expect_err("endless text must trip the budget");
    assert_eq!(
        err.kind,
        StreamErrorKind::TextLimitExceeded { limit: 1 << 12 }
    );
    // The parser stopped reading shortly after the budget, not gigabytes in.
    assert!(
        reader.emitted < (1 << 16),
        "parser consumed {} bytes past a 4 KiB budget",
        reader.emitted
    );
}

#[test]
fn io_errors_from_the_reader_are_surfaced_not_panicked() {
    struct FailAfter<'a>(&'a [u8]);
    impl Read for FailAfter<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.0.is_empty() {
                return Err(std::io::Error::other("link down"));
            }
            let n = self.0.len().min(buf.len());
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }
    // Mid-element failure: the open tag parsed, then the link died.
    let err = parse_stream(FailAfter(b"<a><b>"), StreamLimits::default())
        .expect_err("reader failure must surface");
    assert!(matches!(err.kind, StreamErrorKind::Io(_)));
    assert!(err.offset >= 6, "failure happened after the durable prefix");
}

// ---------------------------------------------------------------- properties

/// Builds a small valid document so mutations start from well-formed bytes.
fn small_doc_xml(shape: &[(usize, Option<i64>)]) -> String {
    const TAGS: [&str; 4] = ["a", "b", "c", "d"];
    let mut b = DocumentBuilder::new();
    b.open("root", None);
    for (tag, value) in shape {
        b.open(TAGS[tag % TAGS.len()], *value);
        b.close();
    }
    b.close();
    write_xml(&b.finish())
}

proptest! {
    /// Arbitrary bytes never panic the parser: the result is a document
    /// or a typed error whose offset lies within the input.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(0u8..=255, 0..512)) {
        if let Err(e) = parse_bytes(&bytes) {
            prop_assert!(e.offset <= bytes.len() as u64);
        }
    }

    /// Arbitrary *markup-shaped* streams (angle brackets, quotes, names)
    /// never panic — this biases coverage toward the tag state machine
    /// instead of being rejected as leading garbage.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn markup_soup_never_panics(picks in prop::collection::vec(0usize..16, 0..256)) {
        const ALPHABET: [char; 16] = [
            '<', '>', '/', '=', '"', '\'', 'a', 'b', 'c', ' ', '&', ';', '!', '[', ']', '-',
        ];
        let s: String = picks.iter().map(|&i| ALPHABET[i]).collect();
        if let Err(e) = parse(&s) {
            prop_assert!(e.offset <= s.len() as u64);
        }
    }

    /// Truncating a valid document at any byte yields a clean parse or a
    /// typed error located at or before the cut.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn truncations_fail_cleanly(
        shape in prop::collection::vec((0usize..4, prop::option::of(-100i64..100)), 0..12),
        cut_frac in 0.0f64..1.0,
    ) {
        let xml = small_doc_xml(&shape);
        let cut = ((xml.len() as f64) * cut_frac) as usize;
        let prefix = &xml.as_bytes()[..cut.min(xml.len())];
        if let Err(e) = parse_bytes(prefix) {
            prop_assert!(e.offset <= prefix.len() as u64);
        }
    }

    /// Flipping one byte of a valid document never panics and never
    /// loops: the parser terminates with Ok or a typed in-range error.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn single_byte_mutations_fail_cleanly(
        shape in prop::collection::vec((0usize..4, prop::option::of(-100i64..100)), 0..12),
        pos_frac in 0.0f64..1.0,
        replacement in 0u8..=255,
    ) {
        let mut bytes = small_doc_xml(&shape).into_bytes();
        let pos = (((bytes.len() - 1) as f64) * pos_frac) as usize;
        bytes[pos] = replacement;
        if let Err(e) = parse_bytes(&bytes) {
            prop_assert!(e.offset <= bytes.len() as u64);
        }
    }
}
