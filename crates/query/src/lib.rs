//! Twig query model for the Twig XSKETCH reproduction.
//!
//! Implements the paper's query fragment (§2): a *twig query* is a
//! node-labeled tree in which every node carries a path expression of the
//! form `l1{σ1}[branch1]/…/ln{σn}[branchn]`, where `σi` are integer range
//! predicates on element values and `[branch]` are existential branching
//! predicates (themselves complex paths). The root node's path is absolute;
//! every other node's path is evaluated relative to its parent's binding.
//!
//! The crate provides:
//! * the AST ([`PathExpr`], [`Step`], [`Pred`], [`TwigQuery`]),
//! * a parser for the paper's `for $t0 in …, $t1 in $t0/…` notation
//!   ([`parse_twig`]) and for standalone paths ([`parse_path`]),
//! * an **exact evaluator** ([`selectivity`], [`eval_path`]) that counts
//!   binding tuples by dynamic programming without materializing them —
//!   this is the ground truth that the paper's error metric compares
//!   synopsis estimates against.

mod ast;
mod eval;
mod parser;

pub use ast::{Axis, CmpOp, PathExpr, Pred, Step, TwigNodeRef, TwigQuery, ValueRange};
pub use eval::{enumerate_bindings, eval_path, selectivity};
pub use parser::{parse_path, parse_twig, ParseError};
