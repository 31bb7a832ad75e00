//! Parser for the paper's twig-query notation.
//!
//! Grammar (whitespace-insensitive):
//!
//! ```text
//! twig   := 'for' binding (',' binding)*
//! binding:= '$' name 'in' ( path | '$' name path )
//! path   := (('/' | '//') step)+
//! step   := name pred*
//! pred   := '[' target (op int)? ']'
//! target := '.' | rel-path
//! rel    := step (('/' | '//') step)*        // first step is child axis
//! op     := '=' | '<' | '<=' | '>' | '>='
//! ```
//!
//! Examples: `for $t0 in //movie[type = 5], $t1 in $t0/actor` and the
//! range form `[. in 10..20]`.

use crate::ast::{Axis, CmpOp, PathExpr, Pred, Step, TwigQuery, ValueRange};
use std::fmt;

/// Error from [`parse_twig`] / [`parse_path`].
///
/// Every variant carries the byte offset in the input where parsing
/// stopped (see [`ParseError::offset`]), so callers can point at the
/// failing position when echoing queries back to users.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// A specific punctuation byte was required (`$`, `[`, `]`, …).
    ExpectedByte {
        /// Byte offset of the failure.
        offset: usize,
        /// The byte that was required.
        byte: char,
    },
    /// A keyword (`for`, `in`, `..`) was required.
    ExpectedKeyword {
        /// Byte offset of the failure.
        offset: usize,
        /// The keyword that was required.
        keyword: &'static str,
    },
    /// An element or attribute name was required.
    ExpectedName {
        /// Byte offset of the failure.
        offset: usize,
    },
    /// An integer literal was required.
    ExpectedInt {
        /// Byte offset of the failure.
        offset: usize,
    },
    /// A path with at least one step was required.
    ExpectedPath {
        /// Byte offset of the failure.
        offset: usize,
    },
    /// A comparison operator (`=`, `<`, `<=`, `>`, `>=`) was required.
    ExpectedCmpOp {
        /// Byte offset of the failure.
        offset: usize,
    },
    /// A binding referenced a `$variable` that was never bound.
    UnknownVariable {
        /// Byte offset of the failure.
        offset: usize,
        /// The unbound variable name.
        name: String,
    },
    /// The first binding used a `$variable` source instead of an
    /// absolute path.
    FirstBindingNotAbsolute {
        /// Byte offset of the failure.
        offset: usize,
    },
    /// A binding after the first used an absolute path.
    SecondAbsoluteBinding {
        /// Byte offset of the failure.
        offset: usize,
    },
    /// A `[.]` predicate with neither a branch path nor a comparison.
    EmptyPredicate {
        /// Byte offset of the failure.
        offset: usize,
    },
    /// A `[. in lo..hi]` range with `lo > hi`.
    InvalidRange {
        /// Byte offset of the failure.
        offset: usize,
        /// Lower bound as written.
        lo: i64,
        /// Upper bound as written.
        hi: i64,
    },
    /// Input remained after a complete query or path.
    TrailingInput {
        /// Byte offset of the first unconsumed byte.
        offset: usize,
    },
    /// The query contained no bindings at all.
    EmptyQuery,
}

impl ParseError {
    /// Byte offset in the input where parsing failed.
    pub fn offset(&self) -> usize {
        match *self {
            ParseError::ExpectedByte { offset, .. }
            | ParseError::ExpectedKeyword { offset, .. }
            | ParseError::ExpectedName { offset }
            | ParseError::ExpectedInt { offset }
            | ParseError::ExpectedPath { offset }
            | ParseError::ExpectedCmpOp { offset }
            | ParseError::UnknownVariable { offset, .. }
            | ParseError::FirstBindingNotAbsolute { offset }
            | ParseError::SecondAbsoluteBinding { offset }
            | ParseError::EmptyPredicate { offset }
            | ParseError::InvalidRange { offset, .. }
            | ParseError::TrailingInput { offset } => offset,
            ParseError::EmptyQuery => 0,
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "query parse error at byte {}: ", self.offset())?;
        match self {
            ParseError::ExpectedByte { byte, .. } => write!(f, "expected `{byte}`"),
            ParseError::ExpectedKeyword { keyword, .. } => write!(f, "expected `{keyword}`"),
            ParseError::ExpectedName { .. } => write!(f, "expected a name"),
            ParseError::ExpectedInt { .. } => write!(f, "expected an integer"),
            ParseError::ExpectedPath { .. } => write!(f, "expected a path"),
            ParseError::ExpectedCmpOp { .. } => {
                write!(f, "expected a comparison operator")
            }
            ParseError::UnknownVariable { name, .. } => {
                write!(f, "unknown variable ${name}")
            }
            ParseError::FirstBindingNotAbsolute { .. } => {
                write!(f, "first binding must be absolute")
            }
            ParseError::SecondAbsoluteBinding { .. } => {
                write!(f, "only the first binding may be absolute")
            }
            ParseError::EmptyPredicate { .. } => write!(f, "`[.]` needs a comparison"),
            ParseError::InvalidRange { lo, hi, .. } => {
                write!(f, "empty range {lo}..{hi}")
            }
            ParseError::TrailingInput { .. } => write!(f, "trailing input"),
            ParseError::EmptyQuery => write!(f, "empty twig"),
        }
    }
}

impl std::error::Error for ParseError {}

struct P<'a> {
    s: &'a [u8],
    pos: usize,
}

/// Parses an absolute path expression such as `//movie[type = 5]/actor`.
pub fn parse_path(text: &str) -> Result<PathExpr, ParseError> {
    let mut p = P {
        s: text.as_bytes(),
        pos: 0,
    };
    p.ws();
    let path = p.path(true)?;
    p.ws();
    if p.pos != p.s.len() {
        return Err(ParseError::TrailingInput { offset: p.pos });
    }
    Ok(path)
}

/// Parses a twig query in `for $t0 in …, $t1 in $t0/…` notation.
///
/// ```
/// let q = xtwig_query::parse_twig(
///     "for $t0 in //author, $t1 in $t0/name, $t2 in $t0/paper[year > 2000]"
/// ).unwrap();
/// assert_eq!(q.len(), 3);
/// ```
pub fn parse_twig(text: &str) -> Result<TwigQuery, ParseError> {
    let mut p = P {
        s: text.as_bytes(),
        pos: 0,
    };
    p.ws();
    p.keyword("for")?;
    let mut twig: Option<TwigQuery> = None;
    let mut var_names: Vec<String> = Vec::new();
    loop {
        p.ws();
        p.expect_byte(b'$')?;
        let var = p.name()?;
        p.ws();
        p.keyword("in")?;
        p.ws();
        if p.peek() == Some(b'$') {
            let var_offset = p.pos;
            p.pos += 1;
            let parent_var = p.name()?;
            let Some(parent_idx) = var_names.iter().position(|v| *v == parent_var) else {
                return Err(ParseError::UnknownVariable {
                    offset: var_offset,
                    name: parent_var,
                });
            };
            let path = p.path(true)?;
            let t = twig
                .as_mut()
                .ok_or(ParseError::FirstBindingNotAbsolute { offset: var_offset })?;
            t.add_child(parent_idx, path);
        } else {
            if twig.is_some() {
                return Err(ParseError::SecondAbsoluteBinding { offset: p.pos });
            }
            let path = p.path(true)?;
            twig = Some(TwigQuery::new(path));
        }
        var_names.push(var);
        p.ws();
        if p.peek() == Some(b',') {
            p.pos += 1;
            continue;
        }
        break;
    }
    if p.pos != p.s.len() {
        return Err(ParseError::TrailingInput { offset: p.pos });
    }
    twig.ok_or(ParseError::EmptyQuery)
}

impl<'a> P<'a> {
    fn peek(&self) -> Option<u8> {
        self.s.get(self.pos).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, c: u8) -> Result<(), ParseError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(ParseError::ExpectedByte {
                offset: self.pos,
                byte: c as char,
            })
        }
    }

    fn keyword(&mut self, kw: &'static str) -> Result<(), ParseError> {
        if self.s[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(ParseError::ExpectedKeyword {
                offset: self.pos,
                keyword: kw,
            })
        }
    }

    fn name(&mut self) -> Result<String, ParseError> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b'@' | b':') {
                // `.` only allowed mid-name, not as the whole name (that is
                // the self target); handled by caller context since `.` alone
                // never reaches name().
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(ParseError::ExpectedName { offset: self.pos });
        }
        Ok(String::from_utf8_lossy(&self.s[start..self.pos]).into_owned())
    }

    fn int(&mut self) -> Result<i64, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.s[start..self.pos])
            .ok()
            .and_then(|t| t.parse().ok())
            .ok_or(ParseError::ExpectedInt { offset: start })
    }

    /// Parses a path. When `leading_slash` is true the path must begin with
    /// `/` or `//`; otherwise the first step defaults to the child axis and
    /// has no separator (relative paths inside predicates).
    fn path(&mut self, leading_slash: bool) -> Result<PathExpr, ParseError> {
        let mut steps = Vec::new();
        loop {
            let axis = if self.s[self.pos..].starts_with(b"//") {
                self.pos += 2;
                Axis::Descendant
            } else if self.peek() == Some(b'/') {
                self.pos += 1;
                Axis::Child
            } else if steps.is_empty() && !leading_slash {
                Axis::Child
            } else {
                break;
            };
            let label = self.name()?;
            let mut step = Step {
                axis,
                label,
                preds: Vec::new(),
            };
            while self.peek() == Some(b'[') {
                step.preds.push(self.pred()?);
            }
            steps.push(step);
            if self.peek() != Some(b'/') {
                break;
            }
        }
        if steps.is_empty() {
            return Err(ParseError::ExpectedPath { offset: self.pos });
        }
        Ok(PathExpr::new(steps))
    }

    fn pred(&mut self) -> Result<Pred, ParseError> {
        self.expect_byte(b'[')?;
        self.ws();
        let path = if self.peek() == Some(b'.') && !self.is_name_dot() {
            self.pos += 1;
            None
        } else {
            Some(self.path(false)?)
        };
        self.ws();
        let value = if self.peek() == Some(b']') {
            None
        } else if self.s[self.pos..].starts_with(b"in ") || self.s[self.pos..].starts_with(b"in-") {
            // range form: `in lo..hi`
            self.keyword("in")?;
            self.ws();
            let range_offset = self.pos;
            let lo = self.int()?;
            self.keyword("..")?;
            let hi = self.int()?;
            if lo > hi {
                return Err(ParseError::InvalidRange {
                    offset: range_offset,
                    lo,
                    hi,
                });
            }
            Some(ValueRange { lo, hi })
        } else {
            let op = self.cmp_op()?;
            self.ws();
            let v = self.int()?;
            Some(ValueRange::from_cmp(op, v))
        };
        self.ws();
        self.expect_byte(b']')?;
        if path.is_none() && value.is_none() {
            return Err(ParseError::EmptyPredicate { offset: self.pos });
        }
        Ok(Pred { path, value })
    }

    /// Disambiguates `.` (self target) from a name that merely starts with a
    /// dot — names cannot start with `.` in our grammar, so a lone dot is
    /// always the self target; this hook exists for clarity.
    fn is_name_dot(&self) -> bool {
        false
    }

    fn cmp_op(&mut self) -> Result<CmpOp, ParseError> {
        let rest = &self.s[self.pos..];
        let (op, len) = if rest.starts_with(b"<=") {
            (CmpOp::Le, 2)
        } else if rest.starts_with(b">=") {
            (CmpOp::Ge, 2)
        } else if rest.starts_with(b"<") {
            (CmpOp::Lt, 1)
        } else if rest.starts_with(b">") {
            (CmpOp::Gt, 1)
        } else if rest.starts_with(b"=") {
            (CmpOp::Eq, 1)
        } else {
            return Err(ParseError::ExpectedCmpOp { offset: self.pos });
        };
        self.pos += len;
        Ok(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Axis;

    #[test]
    fn parses_simple_twig() {
        let q = parse_twig("for $t0 in /bib/author, $t1 in $t0/name, $t2 in $t0/paper").unwrap();
        assert_eq!(q.len(), 3);
        assert_eq!(q.path(0).steps.len(), 2);
        assert_eq!(q.children(0), &[1, 2]);
        assert_eq!(q.path(1).steps[0].label, "name");
    }

    #[test]
    fn parses_descendant_axis() {
        let q = parse_twig("for $t0 in //movie, $t1 in $t0//actor").unwrap();
        assert_eq!(q.path(0).steps[0].axis, Axis::Descendant);
        assert_eq!(q.path(1).steps[0].axis, Axis::Descendant);
    }

    #[test]
    fn parses_branch_and_value_predicates() {
        let q = parse_twig("for $t0 in //movie[type = 5][year > 1990], $t1 in $t0/actor").unwrap();
        let preds = &q.path(0).steps[0].preds;
        assert_eq!(preds.len(), 2);
        assert_eq!(preds[0].path.as_ref().unwrap().steps[0].label, "type");
        assert_eq!(preds[0].value, Some(ValueRange { lo: 5, hi: 5 }));
        assert_eq!(preds[1].path.as_ref().unwrap().steps[0].label, "year");
        assert_eq!(
            preds[1].value,
            Some(ValueRange {
                lo: 1991,
                hi: i64::MAX
            })
        );
    }

    #[test]
    fn parses_self_value_predicate_and_range() {
        let p = parse_path("/r/y[. >= 2000]").unwrap();
        assert_eq!(p.steps[1].preds[0].path, None);
        assert_eq!(
            p.steps[1].preds[0].value,
            Some(ValueRange {
                lo: 2000,
                hi: i64::MAX
            })
        );
        let p2 = parse_path("/r/y[. in 10..20]").unwrap();
        assert_eq!(
            p2.steps[1].preds[0].value,
            Some(ValueRange { lo: 10, hi: 20 })
        );
    }

    #[test]
    fn parses_nested_branch_paths() {
        let p = parse_path("//a[b/c[d > 3]]").unwrap();
        let b = p.steps[0].preds[0].path.as_ref().unwrap();
        assert_eq!(b.steps.len(), 2);
        let inner = &b.steps[1].preds[0];
        assert_eq!(inner.path.as_ref().unwrap().steps[0].label, "d");
    }

    #[test]
    fn display_round_trips() {
        for text in [
            "for $t0 in //movie[type = 5], $t1 in $t0/actor, $t2 in $t0/producer",
            "for $t0 in /bib/author, $t1 in $t0/paper[year >= 2000]/title",
            "for $t0 in //a[b/c], $t1 in $t0/d[. in 1..9]",
        ] {
            let q = parse_twig(text).unwrap();
            let shown = q.to_string();
            let q2 = parse_twig(&shown).unwrap();
            assert_eq!(q, q2, "round trip failed for `{text}` -> `{shown}`");
        }
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse_twig("for $t0 in").is_err());
        assert!(parse_twig("for $t0 in /a, $t9 in $tX/b").is_err());
        assert!(
            parse_twig("for $t0 in /a, $t1 in /b").is_err(),
            "second absolute binding"
        );
        assert!(parse_path("/a[").is_err());
        assert!(parse_path("/a[.]").is_err());
        assert!(parse_path("").is_err());
        assert!(parse_path("/a[b >]").is_err());
    }

    #[test]
    fn unclosed_predicate_reports_bracket_offset() {
        // `/a[b = 3` — the predicate never closes; the error points past
        // the comparison where `]` was required.
        match parse_path("/a[b = 3") {
            Err(ParseError::ExpectedByte { offset, byte }) => {
                assert_eq!(byte, ']');
                assert_eq!(offset, 8);
            }
            other => panic!("expected ExpectedByte, got {other:?}"),
        }
        // `/a[b` — parsing stops where an operator or `]` was required.
        assert!(matches!(
            parse_path("/a[b"),
            Err(ParseError::ExpectedCmpOp { offset: 4 })
        ));
        match parse_path("/a[") {
            Err(ParseError::ExpectedName { offset }) => assert_eq!(offset, 3),
            other => panic!("expected ExpectedName, got {other:?}"),
        }
    }

    #[test]
    fn empty_predicate_reports_variant() {
        match parse_path("/a[.]") {
            Err(ParseError::EmptyPredicate { offset }) => assert_eq!(offset, 5),
            other => panic!("expected EmptyPredicate, got {other:?}"),
        }
    }

    #[test]
    fn inverted_range_reports_bounds() {
        match parse_path("/a[. in 20..10]") {
            Err(ParseError::InvalidRange { lo, hi, offset }) => {
                assert_eq!((lo, hi), (20, 10));
                assert_eq!(offset, 8);
            }
            other => panic!("expected InvalidRange, got {other:?}"),
        }
        // A degenerate but non-empty range still parses.
        assert!(parse_path("/a[. in 10..10]").is_ok());
    }

    #[test]
    fn unknown_variable_reports_name() {
        match parse_twig("for $t0 in /a, $t9 in $tX/b") {
            Err(ParseError::UnknownVariable { name, offset }) => {
                assert_eq!(name, "tX");
                assert_eq!(offset, 22);
            }
            other => panic!("expected UnknownVariable, got {other:?}"),
        }
    }

    #[test]
    fn trailing_input_and_missing_keyword_offsets() {
        match parse_path("/a extra") {
            Err(ParseError::TrailingInput { offset }) => assert_eq!(offset, 3),
            other => panic!("expected TrailingInput, got {other:?}"),
        }
        match parse_twig("$t0 in /a") {
            Err(ParseError::ExpectedKeyword {
                keyword: "for",
                offset: 0,
            }) => {}
            other => panic!("expected ExpectedKeyword(for), got {other:?}"),
        }
        match parse_twig("for $t0 in /a[. in 3..]") {
            Err(ParseError::ExpectedInt { .. }) => {}
            other => panic!("expected ExpectedInt, got {other:?}"),
        }
        assert!(matches!(
            parse_path("/a[b >]"),
            Err(ParseError::ExpectedInt { .. })
        ));
    }

    #[test]
    fn attribute_labels_parse() {
        let p = parse_path("//movie/@year[. > 1990]").unwrap();
        assert_eq!(p.steps[1].label, "@year");
    }
}
