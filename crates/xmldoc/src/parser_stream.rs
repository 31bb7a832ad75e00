//! The XML parser: a streaming, SAX-style parser over any
//! [`std::io::Read`], and the one way a document enters the system.
//!
//! [`parse`] (text) and [`parse_stream`] (any reader) pull typed events
//! out of the bytes and build a [`Document`]. The parser's own state is
//! bounded whatever the input: it reads in fixed-size chunks, and the only
//! state that grows is the open-tag stack (bounded by
//! [`StreamLimits::max_depth`]), the name being read (bounded by
//! [`StreamLimits::max_name_bytes`]) and the pending character data of the
//! innermost element (bounded by [`StreamLimits::max_text_bytes`]). The
//! document it builds grows with the input. Every error is typed
//! ([`StreamError`]) and carries the absolute byte offset where it was
//! detected, so a corrupted or hostile feed is a recoverable condition,
//! not a panic, a stack overflow or an OOM.
//!
//! Supported XML is the subset the paper's datasets need: nested
//! elements, self-closing tags, attributes (materialized as `@name` leaf
//! children, following the paper's convention that attributes are
//! document nodes), character data (an `i64` leaf value when it trims to
//! an integer; mixed content drops interior text), comments and the XML
//! declaration. Only the five predefined entities expand; DTDs and
//! processing instructions are rejected.

use crate::builder::DocumentBuilder;
use crate::document::Document;
use std::collections::VecDeque;
use std::fmt;
use std::io::Read;

/// Hard bounds protecting the parser against hostile inputs (entity
/// floods, million-laughs-style nesting, unbounded names or text runs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamLimits {
    /// Maximum element nesting depth.
    pub max_depth: usize,
    /// Maximum number of attributes on a single element.
    pub max_attrs: usize,
    /// Maximum byte length of a tag or attribute name.
    pub max_name_bytes: usize,
    /// Maximum byte length of one element's character data or of one
    /// attribute value.
    pub max_text_bytes: usize,
    /// Maximum total entity references across the whole document.
    pub max_entity_refs: u64,
}

impl Default for StreamLimits {
    fn default() -> Self {
        StreamLimits {
            max_depth: 256,
            max_attrs: 256,
            max_name_bytes: 1 << 10,
            max_text_bytes: 1 << 20,
            max_entity_refs: 1 << 20,
        }
    }
}

/// Why the stream could not be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamErrorKind {
    /// The underlying reader failed.
    Io(String),
    /// The stream ended in the middle of a construct.
    UnexpectedEof {
        /// What the parser was waiting for.
        expected: &'static str,
    },
    /// Ill-formed markup (bad name, missing `=`, unquoted value, …).
    Malformed {
        /// Human-readable description.
        message: String,
    },
    /// An end tag did not match the innermost open element.
    MismatchedTag {
        /// Tag currently open (empty when nothing is open).
        open: String,
        /// Tag named by the end tag.
        found: String,
    },
    /// Nesting exceeded [`StreamLimits::max_depth`].
    DepthLimitExceeded {
        /// The configured limit.
        limit: usize,
    },
    /// An element carried more than [`StreamLimits::max_attrs`] attributes.
    AttrLimitExceeded {
        /// The configured limit.
        limit: usize,
    },
    /// A name ran past [`StreamLimits::max_name_bytes`].
    NameLimitExceeded {
        /// The configured limit.
        limit: usize,
    },
    /// A text run or attribute value ran past
    /// [`StreamLimits::max_text_bytes`].
    TextLimitExceeded {
        /// The configured limit.
        limit: usize,
    },
    /// The document used more than [`StreamLimits::max_entity_refs`]
    /// entity references.
    EntityLimitExceeded {
        /// The configured limit.
        limit: u64,
    },
    /// An entity reference other than the five predefined ones.
    UnsupportedEntity {
        /// The reference as written, e.g. `&x33;`.
        entity: String,
    },
    /// An entity reference with no terminating `;` in range.
    UnterminatedEntity,
    /// `<!DOCTYPE` — DTDs are rejected wholesale (internal subsets are
    /// the classic entity-bomb vector).
    DtdRejected,
    /// Non-comment content after the root element closed.
    TrailingContent,
    /// The stream held no root element.
    EmptyDocument,
}

/// A typed, recoverable streaming-parse error with its byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamError {
    /// Absolute byte offset in the stream where the error was detected.
    pub offset: u64,
    /// What went wrong.
    pub kind: StreamErrorKind,
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XML stream error at byte {}: ", self.offset)?;
        match &self.kind {
            StreamErrorKind::Io(e) => write!(f, "I/O error: {e}"),
            StreamErrorKind::UnexpectedEof { expected } => {
                write!(f, "unexpected end of stream, expected {expected}")
            }
            StreamErrorKind::Malformed { message } => write!(f, "{message}"),
            StreamErrorKind::MismatchedTag { open, found } => {
                if open.is_empty() {
                    write!(f, "end tag </{found}> with nothing open")
                } else {
                    write!(f, "mismatched end tag </{found}>, open <{open}>")
                }
            }
            StreamErrorKind::DepthLimitExceeded { limit } => {
                write!(f, "element nesting exceeds the depth limit of {limit}")
            }
            StreamErrorKind::AttrLimitExceeded { limit } => {
                write!(f, "element exceeds the attribute limit of {limit}")
            }
            StreamErrorKind::NameLimitExceeded { limit } => {
                write!(f, "name exceeds the length limit of {limit} bytes")
            }
            StreamErrorKind::TextLimitExceeded { limit } => {
                write!(f, "text run exceeds the length limit of {limit} bytes")
            }
            StreamErrorKind::EntityLimitExceeded { limit } => {
                write!(f, "document exceeds the entity-reference limit of {limit}")
            }
            StreamErrorKind::UnsupportedEntity { entity } => {
                write!(f, "unsupported entity `{entity}`")
            }
            StreamErrorKind::UnterminatedEntity => write!(f, "unterminated entity reference"),
            StreamErrorKind::DtdRejected => write!(f, "DTDs are not supported"),
            StreamErrorKind::TrailingContent => {
                write!(f, "trailing content after root element")
            }
            StreamErrorKind::EmptyDocument => write!(f, "empty document"),
        }
    }
}

impl std::error::Error for StreamError {}

/// One parse event pulled from the stream.
///
/// Events arrive in document order; for every element the sequence is
/// `Open`, its `Attr`s, its children's events, then `Close`.
#[derive(Debug, Clone, PartialEq, Eq)]
enum XmlEvent {
    /// A start tag opened an element.
    Open {
        /// The element's tag name.
        tag: String,
    },
    /// An attribute of the most recently opened element, pre-shaped to
    /// the document model's `@name` leaf convention.
    Attr {
        /// The attribute name (without the `@` prefix).
        name: String,
        /// The attribute value when it parses as an integer.
        value: Option<i64>,
    },
    /// The innermost open element closed.
    Close {
        /// The element's leaf value (its character data, when that data
        /// trims to a parseable integer).
        value: Option<i64>,
    },
}

/// Longest predefined entity reference, `&quot;` — anything longer with
/// no `;` is reported unterminated without buffering the rest of the
/// stream.
const MAX_ENTITY_BYTES: usize = 6;

/// Read granularity of the internal window.
const READ_CHUNK: usize = 8 * 1024;

/// Buffered byte source with an absolute offset and bounded lookahead.
struct Source<R: Read> {
    reader: R,
    buf: Vec<u8>,
    pos: usize,
    base: u64,
    hit_eof: bool,
}

impl<R: Read> Source<R> {
    fn new(reader: R) -> Source<R> {
        Source {
            reader,
            buf: Vec::new(),
            pos: 0,
            base: 0,
            hit_eof: false,
        }
    }

    /// Absolute offset of the next unread byte.
    fn offset(&self) -> u64 {
        self.base + self.pos as u64
    }

    /// Ensures at least `need` unread bytes are buffered, or EOF was hit.
    fn fill(&mut self, need: usize) -> Result<(), StreamError> {
        if self.buf.len() - self.pos >= need {
            return Ok(());
        }
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.base += self.pos as u64;
            self.pos = 0;
        }
        while self.buf.len() < need && !self.hit_eof {
            let mut chunk = [0u8; READ_CHUNK];
            match self.reader.read(&mut chunk) {
                Ok(0) => self.hit_eof = true,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    return Err(StreamError {
                        offset: self.base + self.buf.len() as u64,
                        kind: StreamErrorKind::Io(e.to_string()),
                    })
                }
            }
        }
        Ok(())
    }

    fn peek(&mut self) -> Result<Option<u8>, StreamError> {
        self.fill(1)?;
        Ok(self.buf.get(self.pos).copied())
    }

    fn starts_with(&mut self, s: &str) -> Result<bool, StreamError> {
        self.fill(s.len())?;
        Ok(self.buf[self.pos..].starts_with(s.as_bytes()))
    }

    fn bump(&mut self) {
        debug_assert!(self.pos < self.buf.len());
        self.pos += 1;
    }
}

/// Where the parser is in the document grammar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Before the root element (XML declaration, comments).
    Prolog,
    /// Inside the root element.
    Content,
    /// After the root closed (trailing whitespace and comments only).
    Epilogue,
    /// Finished (or failed — the parser does not resume after an error).
    Done,
}

/// The streaming parser: pull events with
/// [`next_event`](StreamParser::next_event) until it returns `Ok(None)`.
struct StreamParser<R: Read> {
    src: Source<R>,
    limits: StreamLimits,
    state: State,
    open_tags: Vec<String>,
    text: Vec<u8>,
    pending: VecDeque<XmlEvent>,
    entity_refs: u64,
}

impl<R: Read> StreamParser<R> {
    /// Wraps `reader` with explicit limits.
    fn with_limits(reader: R, limits: StreamLimits) -> StreamParser<R> {
        StreamParser {
            src: Source::new(reader),
            limits,
            state: State::Prolog,
            open_tags: Vec::new(),
            text: Vec::new(),
            pending: VecDeque::new(),
            entity_refs: 0,
        }
    }

    /// Absolute byte offset of the next unread input byte.
    fn offset(&self) -> u64 {
        self.src.offset()
    }

    /// Pulls the next event, `Ok(None)` when the document completed.
    ///
    /// After an error the parser stays failed: further calls return the
    /// same terminal condition rather than resuming mid-construct.
    fn next_event(&mut self) -> Result<Option<XmlEvent>, StreamError> {
        loop {
            if let Some(ev) = self.pending.pop_front() {
                return Ok(Some(ev));
            }
            match self.state {
                State::Prolog => match self.prolog() {
                    Ok(()) => self.state = State::Content,
                    Err(e) => return self.fail(e),
                },
                State::Content => {
                    if let Err(e) = self.step_content() {
                        return self.fail(e);
                    }
                }
                State::Epilogue => {
                    return match self.epilogue() {
                        Ok(()) => {
                            self.state = State::Done;
                            Ok(None)
                        }
                        Err(e) => self.fail(e),
                    };
                }
                State::Done => return Ok(None),
            }
        }
    }

    fn fail(&mut self, e: StreamError) -> Result<Option<XmlEvent>, StreamError> {
        self.state = State::Done;
        self.pending.clear();
        Err(e)
    }

    fn err<T>(&self, kind: StreamErrorKind) -> Result<T, StreamError> {
        Err(StreamError {
            offset: self.src.offset(),
            kind,
        })
    }

    fn malformed<T>(&self, message: impl Into<String>) -> Result<T, StreamError> {
        self.err(StreamErrorKind::Malformed {
            message: message.into(),
        })
    }

    fn skip_ws(&mut self) -> Result<(), StreamError> {
        while matches!(self.src.peek()?, Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.src.bump();
        }
        Ok(())
    }

    /// Consumes through the next occurrence of `delim`.
    fn skip_until(&mut self, delim: &str, expected: &'static str) -> Result<(), StreamError> {
        loop {
            self.src.fill(delim.len())?;
            if self.src.buf.len() - self.src.pos < delim.len() {
                return self.err(StreamErrorKind::UnexpectedEof { expected });
            }
            if self.src.buf[self.src.pos..].starts_with(delim.as_bytes()) {
                for _ in 0..delim.len() {
                    self.src.bump();
                }
                return Ok(());
            }
            self.src.bump();
        }
    }

    fn prolog(&mut self) -> Result<(), StreamError> {
        self.skip_ws()?;
        if self.src.starts_with("<?xml")? {
            self.skip_until("?>", "`?>` closing the XML declaration")?;
            self.skip_ws()?;
        }
        while self.src.starts_with("<!--")? {
            self.skip_until("-->", "`-->` closing a comment")?;
            self.skip_ws()?;
        }
        if self.src.starts_with("<!DOCTYPE")? {
            return self.err(StreamErrorKind::DtdRejected);
        }
        match self.src.peek()? {
            Some(b'<') => Ok(()),
            Some(_) => self.malformed("expected root element"),
            None => self.err(StreamErrorKind::EmptyDocument),
        }
    }

    /// Advances through content until at least one event is queued or the
    /// root element closes.
    fn step_content(&mut self) -> Result<(), StreamError> {
        loop {
            if self.src.starts_with("<!--")? {
                self.skip_until("-->", "`-->` closing a comment")?;
                continue;
            }
            if self.src.starts_with("</")? {
                self.close_tag()?;
                if self.open_tags.is_empty() {
                    self.state = State::Epilogue;
                }
                return Ok(());
            }
            match self.src.peek()? {
                Some(b'<') => return self.open_tag(),
                Some(_) => self.char_data()?,
                None => {
                    return self.err(StreamErrorKind::UnexpectedEof {
                        expected: "an end tag",
                    })
                }
            }
        }
    }

    fn name(&mut self) -> Result<String, StreamError> {
        let mut name = String::new();
        while let Some(c) = self.src.peek()? {
            let ok = c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b':');
            if !ok {
                break;
            }
            if name.len() >= self.limits.max_name_bytes {
                return self.err(StreamErrorKind::NameLimitExceeded {
                    limit: self.limits.max_name_bytes,
                });
            }
            name.push(c as char);
            self.src.bump();
        }
        if name.is_empty() {
            return self.malformed("expected a name");
        }
        Ok(name)
    }

    fn open_tag(&mut self) -> Result<(), StreamError> {
        debug_assert_eq!(self.src.peek()?, Some(b'<'));
        self.src.bump();
        if self.open_tags.len() >= self.limits.max_depth {
            return self.err(StreamErrorKind::DepthLimitExceeded {
                limit: self.limits.max_depth,
            });
        }
        let tag = self.name()?;
        // Mixed content: text pending when a child opens is dropped (the
        // document model has values on leaves only).
        self.text.clear();
        self.pending.push_back(XmlEvent::Open { tag: tag.clone() });
        self.open_tags.push(tag);
        let mut attrs = 0usize;
        loop {
            self.skip_ws()?;
            match self.src.peek()? {
                Some(b'>') => {
                    self.src.bump();
                    return Ok(());
                }
                Some(b'/') => {
                    self.src.bump();
                    if self.src.peek()? != Some(b'>') {
                        return self.malformed("expected `>` after `/`");
                    }
                    self.src.bump();
                    self.open_tags.pop();
                    self.text.clear();
                    self.pending.push_back(XmlEvent::Close { value: None });
                    if self.open_tags.is_empty() {
                        self.state = State::Epilogue;
                    }
                    return Ok(());
                }
                Some(_) => {
                    if attrs >= self.limits.max_attrs {
                        return self.err(StreamErrorKind::AttrLimitExceeded {
                            limit: self.limits.max_attrs,
                        });
                    }
                    attrs += 1;
                    let attr = self.name()?;
                    self.skip_ws()?;
                    if self.src.peek()? != Some(b'=') {
                        return self.malformed("expected `=` in attribute");
                    }
                    self.src.bump();
                    self.skip_ws()?;
                    let quote = match self.src.peek()? {
                        Some(q @ (b'"' | b'\'')) => q,
                        _ => return self.malformed("expected quoted attribute value"),
                    };
                    self.src.bump();
                    let mut raw: Vec<u8> = Vec::new();
                    loop {
                        match self.src.peek()? {
                            None => {
                                return self.err(StreamErrorKind::UnexpectedEof {
                                    expected: "the closing attribute quote",
                                })
                            }
                            Some(q) if q == quote => {
                                self.src.bump();
                                break;
                            }
                            Some(b'&') => {
                                let c = self.entity()?;
                                let mut enc = [0u8; 4];
                                raw.extend_from_slice(c.encode_utf8(&mut enc).as_bytes());
                            }
                            Some(c) => {
                                raw.push(c);
                                self.src.bump();
                            }
                        }
                        if raw.len() > self.limits.max_text_bytes {
                            return self.err(StreamErrorKind::TextLimitExceeded {
                                limit: self.limits.max_text_bytes,
                            });
                        }
                    }
                    let value = String::from_utf8_lossy(&raw).trim().parse::<i64>().ok();
                    self.pending.push_back(XmlEvent::Attr { name: attr, value });
                }
                None => {
                    return self.err(StreamErrorKind::UnexpectedEof {
                        expected: "`>` closing the start tag",
                    })
                }
            }
        }
    }

    fn close_tag(&mut self) -> Result<(), StreamError> {
        self.src.bump(); // `<`
        self.src.bump(); // `/`
        let tag = self.name()?;
        self.skip_ws()?;
        if self.src.peek()? != Some(b'>') {
            return self.malformed("expected `>` in end tag");
        }
        self.src.bump();
        match self.open_tags.last() {
            Some(open) if *open == tag => {}
            Some(open) => {
                let open = open.clone();
                return self.err(StreamErrorKind::MismatchedTag { open, found: tag });
            }
            None => {
                return self.err(StreamErrorKind::MismatchedTag {
                    open: String::new(),
                    found: tag,
                })
            }
        }
        self.open_tags.pop();
        let value = String::from_utf8_lossy(&self.text)
            .trim()
            .parse::<i64>()
            .ok();
        self.text.clear();
        self.pending.push_back(XmlEvent::Close { value });
        Ok(())
    }

    fn char_data(&mut self) -> Result<(), StreamError> {
        loop {
            match self.src.peek()? {
                None | Some(b'<') => return Ok(()),
                Some(b'&') => {
                    let c = self.entity()?;
                    let mut enc = [0u8; 4];
                    self.text
                        .extend_from_slice(c.encode_utf8(&mut enc).as_bytes());
                }
                Some(c) => {
                    self.text.push(c);
                    self.src.bump();
                }
            }
            if self.text.len() > self.limits.max_text_bytes {
                return self.err(StreamErrorKind::TextLimitExceeded {
                    limit: self.limits.max_text_bytes,
                });
            }
        }
    }

    /// Expands one predefined entity reference at the current `&`.
    fn entity(&mut self) -> Result<char, StreamError> {
        self.entity_refs += 1;
        if self.entity_refs > self.limits.max_entity_refs {
            return self.err(StreamErrorKind::EntityLimitExceeded {
                limit: self.limits.max_entity_refs,
            });
        }
        let at = self.src.offset();
        self.src.bump(); // `&`
        let mut body = String::new();
        loop {
            match self.src.peek()? {
                Some(b';') => {
                    self.src.bump();
                    break;
                }
                Some(c) if body.len() < MAX_ENTITY_BYTES => {
                    body.push(c as char);
                    self.src.bump();
                }
                _ => {
                    return Err(StreamError {
                        offset: at,
                        kind: StreamErrorKind::UnterminatedEntity,
                    })
                }
            }
        }
        match body.as_str() {
            "lt" => Ok('<'),
            "gt" => Ok('>'),
            "amp" => Ok('&'),
            "apos" => Ok('\''),
            "quot" => Ok('"'),
            _ => Err(StreamError {
                offset: at,
                kind: StreamErrorKind::UnsupportedEntity {
                    entity: format!("&{body};"),
                },
            }),
        }
    }

    fn epilogue(&mut self) -> Result<(), StreamError> {
        self.skip_ws()?;
        while self.src.starts_with("<!--")? {
            self.skip_until("-->", "`-->` closing a comment")?;
            self.skip_ws()?;
        }
        match self.src.peek()? {
            None => Ok(()),
            Some(_) => self.err(StreamErrorKind::TrailingContent),
        }
    }
}

/// Parses a complete document from text with the default
/// [`StreamLimits`].
///
/// ```
/// let doc = xtwig_xml::parse("<a><b>7</b><c/></a>").unwrap();
/// assert_eq!(doc.len(), 3);
/// let b = doc.children(doc.root()).next().unwrap();
/// assert_eq!(doc.value(b), Some(7));
/// ```
pub fn parse(text: &str) -> Result<Document, StreamError> {
    parse_stream(text.as_bytes(), StreamLimits::default())
}

/// Parses a complete document from a byte stream under `limits`.
pub fn parse_stream<R: Read>(reader: R, limits: StreamLimits) -> Result<Document, StreamError> {
    let mut parser = StreamParser::with_limits(reader, limits);
    let mut b = DocumentBuilder::new();
    while let Some(ev) = parser.next_event()? {
        match ev {
            XmlEvent::Open { tag } => {
                b.open(&tag, None);
            }
            XmlEvent::Attr { name, value } => {
                b.leaf(&format!("@{name}"), value);
            }
            XmlEvent::Close { value } => {
                if value.is_some() {
                    b.set_pending_value(value);
                }
                b.close();
            }
        }
    }
    if b.is_empty() {
        return Err(StreamError {
            offset: parser.offset(),
            kind: StreamErrorKind::EmptyDocument,
        });
    }
    Ok(b.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_elements_and_values() {
        let doc = parse("<a><b>42</b><c><d>-7</d></c></a>").unwrap();
        doc.check_invariants().unwrap();
        assert_eq!(doc.len(), 4);
        let kids: Vec<_> = doc.children(doc.root()).collect();
        assert_eq!(doc.tag(kids[0]), "b");
        assert_eq!(doc.value(kids[0]), Some(42));
        let d = doc.children(kids[1]).next().unwrap();
        assert_eq!(doc.value(d), Some(-7));
    }

    #[test]
    fn parses_self_closing_and_attributes() {
        let doc = parse(r#"<m year="1999" title="x"><a/></m>"#).unwrap();
        let kids: Vec<_> = doc.children(doc.root()).collect();
        assert_eq!(kids.len(), 3);
        assert_eq!(doc.tag(kids[0]), "@year");
        assert_eq!(doc.value(kids[0]), Some(1999));
        assert_eq!(doc.tag(kids[1]), "@title");
        assert_eq!(doc.value(kids[1]), None);
        assert_eq!(doc.tag(kids[2]), "a");
    }

    #[test]
    fn parses_prolog_comments_and_whitespace() {
        let doc =
            parse("<?xml version=\"1.0\"?>\n<!-- hi -->\n<a>\n  <b>1</b>\n</a>\n<!-- bye -->")
                .unwrap();
        assert_eq!(doc.len(), 2);
    }

    #[test]
    fn non_integer_text_yields_no_value() {
        let doc = parse("<a><b>hello</b></a>").unwrap();
        let b = doc.children(doc.root()).next().unwrap();
        assert_eq!(doc.value(b), None);
    }

    #[test]
    fn entities_are_expanded() {
        // The expanded text is not numeric, so no value, but parsing must
        // succeed.
        let doc = parse("<a>&lt;&amp;&gt;</a>").unwrap();
        assert_eq!(doc.value(doc.root()), None);
    }

    #[test]
    fn rejects_mismatched_tags() {
        let e = parse("<a><b></a></b>").unwrap_err();
        assert!(
            matches!(e.kind, StreamErrorKind::MismatchedTag { .. }),
            "{e}"
        );
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("<a/><b/>").is_err());
        assert!(parse("<a/>junk").is_err());
    }

    #[test]
    fn rejects_unterminated() {
        assert!(parse("<a><b>").is_err());
        assert!(parse("<a attr=>").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn mixed_content_drops_text() {
        let doc = parse("<a>12<b/>34</a>").unwrap();
        // Text interleaved with elements is not a leaf value.
        assert_eq!(doc.len(), 2);
    }

    #[test]
    fn events_arrive_in_document_order() {
        let mut p =
            StreamParser::with_limits(&b"<a k=\"3\"><b>5</b></a>"[..], StreamLimits::default());
        let mut evs = Vec::new();
        while let Some(ev) = p.next_event().unwrap() {
            evs.push(ev);
        }
        assert_eq!(
            evs,
            vec![
                XmlEvent::Open { tag: "a".into() },
                XmlEvent::Attr {
                    name: "k".into(),
                    value: Some(3)
                },
                XmlEvent::Open { tag: "b".into() },
                XmlEvent::Close { value: Some(5) },
                XmlEvent::Close { value: None },
            ]
        );
        // The parser is exhausted and stays that way.
        assert_eq!(p.next_event().unwrap(), None);
    }

    #[test]
    fn typed_errors_carry_offsets() {
        let e = parse("<a><b></a></b>").unwrap_err();
        match e.kind {
            StreamErrorKind::MismatchedTag { open, found } => {
                assert_eq!(open, "b");
                assert_eq!(found, "a");
            }
            k => panic!("wrong kind {k:?}"),
        }
        assert!(e.offset > 0);

        let e = parse("<a><b>").unwrap_err();
        assert!(matches!(e.kind, StreamErrorKind::UnexpectedEof { .. }));
        assert_eq!(e.offset, 6);

        let e = parse("").unwrap_err();
        assert_eq!(e.kind, StreamErrorKind::EmptyDocument);

        let e = parse("<!DOCTYPE foo []><a/>").unwrap_err();
        assert_eq!(e.kind, StreamErrorKind::DtdRejected);

        let e = parse("<a/>junk").unwrap_err();
        assert_eq!(e.kind, StreamErrorKind::TrailingContent);
        assert_eq!(e.offset, 4);
    }

    #[test]
    fn depth_limit_is_enforced() {
        let limits = StreamLimits {
            max_depth: 8,
            ..StreamLimits::default()
        };
        let mut deep = String::new();
        for _ in 0..20 {
            deep.push_str("<d>");
        }
        let e = parse_stream(deep.as_bytes(), limits).unwrap_err();
        assert_eq!(e.kind, StreamErrorKind::DepthLimitExceeded { limit: 8 });
        // Within the limit the same shape parses.
        let ok = "<d><d><d></d></d></d>";
        assert!(parse_stream(ok.as_bytes(), limits).is_ok());
    }

    #[test]
    fn attr_name_text_and_entity_limits() {
        let limits = StreamLimits {
            max_attrs: 2,
            max_name_bytes: 4,
            max_text_bytes: 8,
            max_entity_refs: 3,
            ..StreamLimits::default()
        };
        let e = parse_stream(&b"<a p=\"1\" q=\"2\" r=\"3\"/>"[..], limits).unwrap_err();
        assert_eq!(e.kind, StreamErrorKind::AttrLimitExceeded { limit: 2 });
        let e = parse_stream(&b"<toolong/>"[..], limits).unwrap_err();
        assert_eq!(e.kind, StreamErrorKind::NameLimitExceeded { limit: 4 });
        let e = parse_stream(&b"<a>123456789abc</a>"[..], limits).unwrap_err();
        assert_eq!(e.kind, StreamErrorKind::TextLimitExceeded { limit: 8 });
        let e = parse_stream(&b"<a>&lt;&lt;&lt;&lt;</a>"[..], limits).unwrap_err();
        assert_eq!(e.kind, StreamErrorKind::EntityLimitExceeded { limit: 3 });
    }

    #[test]
    fn entity_errors_are_typed() {
        let e = parse("<a>&bogus;</a>").unwrap_err();
        assert_eq!(
            e.kind,
            StreamErrorKind::UnsupportedEntity {
                entity: "&bogus;".into()
            }
        );
        assert_eq!(e.offset, 3);
        let e = parse("<a>&ampersand-no-semi</a>").unwrap_err();
        assert_eq!(e.kind, StreamErrorKind::UnterminatedEntity);
    }

    #[test]
    fn small_read_chunks_do_not_change_the_result() {
        /// A reader that returns one byte per `read` call: every construct
        /// spans a buffer boundary.
        struct OneByte<'a>(&'a [u8]);
        impl Read for OneByte<'_> {
            fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
                match self.0.split_first() {
                    Some((&b, rest)) if !out.is_empty() => {
                        out[0] = b;
                        self.0 = rest;
                        Ok(1)
                    }
                    _ => Ok(0),
                }
            }
        }
        let input = r#"<?xml version="1.0"?><m year="1999"><t>7</t><!-- c --><u/>&amp;</m>"#;
        let whole = parse(input).unwrap();
        let trickled = parse_stream(OneByte(input.as_bytes()), StreamLimits::default()).unwrap();
        assert_eq!(whole.len(), trickled.len());
        for n in whole.nodes() {
            assert_eq!(whole.tag(n), trickled.tag(n));
            assert_eq!(whole.value(n), trickled.value(n));
        }
    }

    #[test]
    fn io_errors_surface_as_typed_errors() {
        struct Broken;
        impl Read for Broken {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("wire cut"))
            }
        }
        let e = parse_stream(Broken, StreamLimits::default()).unwrap_err();
        match e.kind {
            StreamErrorKind::Io(msg) => assert!(msg.contains("wire cut")),
            k => panic!("wrong kind {k:?}"),
        }
    }
}
