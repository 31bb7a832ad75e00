//! XML document substrate for the Twig XSKETCH reproduction.
//!
//! This crate implements the paper's data model (§2): an XML document is a
//! tree `T(V, E)` in which every node is an element (or attribute) with a
//! label, and leaf elements may carry values. Values are 64-bit integers,
//! matching the paper's prototype which supports *range predicates on
//! integer values*.
//!
//! The document is stored in a single arena (`Vec<ElementData>`) threaded
//! with first-child/next-sibling links, so traversal never chases heap
//! pointers and node handles are plain `u32` newtypes. Labels (tags) are
//! interned once in a [`LabelTable`].
//!
//! The crate also provides the XML parser ([`parse`], [`parse_stream`]),
//! the one way a document enters the system: it streams under typed
//! [`StreamLimits`] and fails with a typed [`StreamError`] on hostile input
//! (over-deep nesting, DTDs, entity floods). The writer ([`write_xml`])
//! walks the tree with an explicit stack, so no document depth can
//! overflow the call stack. Document statistics ([`DocStats`]) feed
//! Table 1.

mod builder;
mod delta;
mod document;
mod labels;
mod parser_stream;
mod stats;
mod writer;

pub use builder::DocumentBuilder;
pub use delta::{apply_delta, AppliedDelta, Delta, DeltaError, DeltaOp};
pub use document::{Document, ElementData, NodeId};
pub use labels::{LabelId, LabelTable};
pub use parser_stream::{parse, parse_stream, StreamError, StreamErrorKind, StreamLimits};
pub use stats::DocStats;
pub use writer::write_xml;
