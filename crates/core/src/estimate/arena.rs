//! Bump-style scratch arena for the TREEPARSE kernel.
//!
//! Every TREEPARSE node visit used to allocate half a dozen short-lived
//! `Vec`s (value conditions, enumerated dimensions, backward-edge
//! conditioning pairs, per-child dimension slots, bucket selections).
//! Under serving load that is thousands of allocator round-trips per
//! query for buffers whose lifetimes nest perfectly with the recursion.
//!
//! [`EvalArena`] replaces them with *typed lanes*: one long-lived `Vec`
//! per element type, used with strict stack discipline. A recursion
//! frame records each lane's length on entry (its *mark*), pushes its
//! own data, and truncates back to the mark on exit. Because every
//! element is `Copy` and a frame only ever reads indices **below** any
//! child frame's marks, the parent's ranges stay valid across recursive
//! calls that borrow the whole arena mutably — no `unsafe`, no
//! second-guessing the borrow checker, no allocator traffic once each
//! lane has grown to its high-water mark.
//!
//! The arena is reached through a thread-local ([`with_scratch`]), so
//! steady-state serving reuses one warmed arena per worker thread. The
//! rare re-entrant caller (an estimator invoked from inside another
//! estimator's evaluation) falls back to a fresh arena rather than
//! panicking on the `RefCell`.
//!
//! See DESIGN.md §13 for the lifecycle and the bit-identity argument.

use crate::synopsis::SynId;
use std::cell::RefCell;

/// Typed-lane scratch for one thread's TREEPARSE evaluations.
///
/// Lanes are `pub(crate)`: the evaluator in [`crate::compiled`] pushes
/// and truncates them directly, which keeps the hot path free of
/// accessor indirection while the module boundary still hides the lanes
/// from downstream crates.
#[derive(Debug, Default)]
pub struct EvalArena {
    /// Enumerated-value environment: `((parent, child), value)` pairs
    /// pushed on the path from the embedding root to the current node.
    pub(crate) env: Vec<((SynId, SynId), f64)>,
    /// Matched value predicates `(dim, lo, hi)` of the current frame.
    pub(crate) value_conds: Vec<(usize, i64, i64)>,
    /// Forward dimensions enumerated by the current frame.
    pub(crate) enum_dims: Vec<usize>,
    /// Backward conditioning pairs `(dim, value)` of the current frame.
    pub(crate) cond: Vec<(usize, f64)>,
    /// Per-child slot into the frame's `enum_dims` (`None` = uniformity).
    pub(crate) child_dim: Vec<Option<usize>>,
    /// Bucket-selection mask scratch (one byte per bucket).
    pub(crate) mask: Vec<u8>,
    /// Bucket distance / weight scratch (one f64 per bucket).
    pub(crate) scratch: Vec<f64>,
    /// Reusable fingerprint/memo-key buffer, so steady-state key lookups
    /// format into retained capacity instead of allocating a `String`.
    pub(crate) key_buf: String,
}

impl EvalArena {
    /// An empty arena; lanes grow on first use and are then reused.
    pub fn new() -> EvalArena {
        EvalArena::default()
    }

    /// Clears every lane (between queries; capacity is retained).
    pub(crate) fn reset(&mut self) {
        self.env.clear();
        self.value_conds.clear();
        self.enum_dims.clear();
        self.cond.clear();
        self.child_dim.clear();
        self.mask.clear();
        self.scratch.clear();
        self.key_buf.clear();
    }
}

thread_local! {
    /// One warmed arena per thread; serving reuses it across queries.
    static SCRATCH: RefCell<EvalArena> = RefCell::new(EvalArena::new());
}

/// Runs `f` with this thread's scratch arena.
///
/// Re-entrant calls (an estimator running inside another estimator's
/// evaluation, e.g. through a guarded-chain closure) observe the cell
/// already borrowed and fall back to a fresh temporary arena — a cold
/// path that trades a few allocations for never panicking.
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut EvalArena) -> R) -> R {
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut arena) => {
            arena.reset();
            f(&mut arena)
        }
        Err(_) => f(&mut EvalArena::new()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_keeps_capacity() {
        let mut a = EvalArena::new();
        a.scratch.resize(1024, 0.0);
        let cap = a.scratch.capacity();
        a.reset();
        assert!(a.scratch.is_empty());
        assert_eq!(a.scratch.capacity(), cap);
    }

    #[test]
    fn with_scratch_is_reentrant_safe() {
        let out = with_scratch(|outer| {
            outer.enum_dims.push(7);
            with_scratch(|inner| {
                // Re-entrant borrow: a fresh arena, not the outer one.
                assert!(inner.enum_dims.is_empty());
                inner.enum_dims.push(9);
                inner.enum_dims.len()
            }) + outer.enum_dims.len()
        });
        assert_eq!(out, 2);
    }
}
