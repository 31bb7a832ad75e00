//! A DOM parser: it takes the whole text as one slice and has no depth,
//! name, text or entity limits. It is the reference the shipped streaming
//! parser is checked against (`agrees_with_dom_reference` and the
//! round-trip properties in `roundtrip.rs`); nothing outside the tests
//! uses it.
//!
//! Supports the subset of XML the paper's datasets need: nested elements,
//! self-closing tags, attributes (materialized as `@name` child elements,
//! following the paper's convention that attributes are document nodes),
//! character data (stored as an `i64` value when it parses as an integer),
//! comments, and XML declarations. Entities other than the five predefined
//! ones, DTDs and processing instructions are rejected.

use std::fmt;
use xtwig_xml::{Document, DocumentBuilder};

/// Error produced by [`parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the input where the error was detected.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "XML parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
    builder: DocumentBuilder,
    /// Stack of open tag names for well-formedness checking.
    open_tags: Vec<String>,
    /// Pending character data for the innermost open element.
    text: String,
}

/// Parses an XML document from text.
pub fn parse(text: &str) -> Result<Document, ParseError> {
    let p = Parser {
        input: text.as_bytes(),
        pos: 0,
        builder: DocumentBuilder::new(),
        open_tags: Vec::new(),
        text: String::new(),
    };
    p.document()
}

impl<'a> Parser<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            offset: self.pos,
            message: message.into(),
        })
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input[self.pos..].starts_with(s.as_bytes())
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn skip_until(&mut self, delim: &str) -> Result<(), ParseError> {
        match self.input[self.pos..]
            .windows(delim.len())
            .position(|w| w == delim.as_bytes())
        {
            Some(i) => {
                self.pos += i + delim.len();
                Ok(())
            }
            None => self.err(format!("unterminated construct, expected `{delim}`")),
        }
    }

    fn document(mut self) -> Result<Document, ParseError> {
        self.prolog()?;
        if self.peek() != Some(b'<') {
            return self.err("expected root element");
        }
        self.content()?;
        if let Some(tag) = self.open_tags.last() {
            return self.err(format!("unclosed element <{tag}>"));
        }
        self.skip_ws();
        // Trailing comments are fine.
        while self.starts_with("<!--") {
            self.skip_until("-->")?;
            self.skip_ws();
        }
        if self.pos != self.input.len() {
            return self.err("trailing content after root element");
        }
        if self.builder.is_empty() {
            return self.err("empty document");
        }
        Ok(self.builder.finish())
    }

    fn prolog(&mut self) -> Result<(), ParseError> {
        self.skip_ws();
        if self.starts_with("<?xml") {
            self.skip_until("?>")?;
            self.skip_ws();
        }
        while self.starts_with("<!--") {
            self.skip_until("-->")?;
            self.skip_ws();
        }
        if self.starts_with("<!DOCTYPE") {
            return self.err("DTDs are not supported");
        }
        Ok(())
    }

    /// Parses element content until the document's root element closes.
    fn content(&mut self) -> Result<(), ParseError> {
        let mut root_seen = false;
        loop {
            if self.pos >= self.input.len() {
                return Ok(());
            }
            if self.starts_with("<!--") {
                self.skip_until("-->")?;
                continue;
            }
            if self.starts_with("</") {
                self.close_tag()?;
                if self.open_tags.is_empty() {
                    return Ok(());
                }
                continue;
            }
            if self.peek() == Some(b'<') {
                if root_seen && self.open_tags.is_empty() {
                    return Ok(());
                }
                root_seen = true;
                self.open_tag()?;
                continue;
            }
            if self.open_tags.is_empty() {
                self.skip_ws();
                if self.pos < self.input.len() && self.peek() != Some(b'<') {
                    return self.err("character data outside root element");
                }
                if self.pos >= self.input.len() {
                    return Ok(());
                }
                continue;
            }
            self.char_data()?;
        }
    }

    fn name(&mut self) -> Result<String, ParseError> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            let ok = c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b':');
            if !ok {
                break;
            }
            self.pos += 1;
        }
        if self.pos == start {
            return self.err("expected a name");
        }
        Ok(String::from_utf8_lossy(&self.input[start..self.pos]).into_owned())
    }

    fn open_tag(&mut self) -> Result<(), ParseError> {
        debug_assert_eq!(self.peek(), Some(b'<'));
        self.pos += 1;
        let tag = self.name()?;
        self.flush_text_as_error_guard();
        self.builder.open(&tag, None);
        self.open_tags.push(tag);
        // Attributes.
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'>') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b'/') => {
                    self.pos += 1;
                    if self.peek() != Some(b'>') {
                        return self.err("expected `>` after `/`");
                    }
                    self.pos += 1;
                    self.end_element();
                    return Ok(());
                }
                Some(_) => {
                    let attr = self.name()?;
                    self.skip_ws();
                    if self.peek() != Some(b'=') {
                        return self.err("expected `=` in attribute");
                    }
                    self.pos += 1;
                    self.skip_ws();
                    let quote = match self.peek() {
                        Some(q @ (b'"' | b'\'')) => q,
                        _ => return self.err("expected quoted attribute value"),
                    };
                    self.pos += 1;
                    let start = self.pos;
                    while self.peek().is_some_and(|c| c != quote) {
                        self.pos += 1;
                    }
                    if self.peek() != Some(quote) {
                        return self.err("unterminated attribute value");
                    }
                    let raw = String::from_utf8_lossy(&self.input[start..self.pos]).into_owned();
                    self.pos += 1;
                    let value = unescape(&raw)
                        .map_err(|m| ParseError {
                            offset: start,
                            message: m,
                        })?
                        .trim()
                        .parse::<i64>()
                        .ok();
                    self.builder.leaf(&format!("@{attr}"), value);
                }
                None => return self.err("unterminated start tag"),
            }
        }
    }

    fn close_tag(&mut self) -> Result<(), ParseError> {
        debug_assert!(self.starts_with("</"));
        self.pos += 2;
        let tag = self.name()?;
        self.skip_ws();
        if self.peek() != Some(b'>') {
            return self.err("expected `>` in end tag");
        }
        self.pos += 1;
        match self.open_tags.last() {
            Some(open) if *open == tag => {}
            Some(open) => return self.err(format!("mismatched end tag </{tag}>, open <{open}>")),
            None => return self.err(format!("end tag </{tag}> with nothing open")),
        }
        self.end_element();
        Ok(())
    }

    /// Pops the innermost element, attaching accumulated text as its value.
    fn end_element(&mut self) {
        self.open_tags.pop();
        let value = self.text.trim().parse::<i64>().ok();
        if value.is_some() {
            // The builder has no set-value-after-open API by design (values
            // are immutable); re-home the value by patching the last opened
            // element. This is safe: char data belongs to the element being
            // closed.
            self.builder.set_pending_value(value);
        }
        self.text.clear();
        self.builder.close();
    }

    fn char_data(&mut self) -> Result<(), ParseError> {
        let start = self.pos;
        while self.peek().is_some_and(|c| c != b'<') {
            self.pos += 1;
        }
        let raw = String::from_utf8_lossy(&self.input[start..self.pos]).into_owned();
        let unescaped = unescape(&raw).map_err(|m| ParseError {
            offset: start,
            message: m,
        })?;
        self.text.push_str(&unescaped);
        Ok(())
    }

    /// Mixed content: when a child element opens while text is pending, the
    /// text cannot become a leaf value; it is simply dropped (the paper's
    /// model has values on leaves only).
    fn flush_text_as_error_guard(&mut self) {
        self.text.clear();
    }
}

/// Expands the five predefined XML entities.
fn unescape(s: &str) -> Result<String, String> {
    if !s.contains('&') {
        return Ok(s.to_owned());
    }
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(i) = rest.find('&') {
        out.push_str(&rest[..i]);
        rest = &rest[i..];
        let end = rest
            .find(';')
            .ok_or_else(|| "unterminated entity reference".to_owned())?;
        match &rest[..=end] {
            "&lt;" => out.push('<'),
            "&gt;" => out.push('>'),
            "&amp;" => out.push('&'),
            "&apos;" => out.push('\''),
            "&quot;" => out.push('"'),
            e => return Err(format!("unsupported entity `{e}`")),
        }
        rest = &rest[end + 1..];
    }
    out.push_str(rest);
    Ok(out)
}
