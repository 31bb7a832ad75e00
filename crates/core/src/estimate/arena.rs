//! Bump-style scratch arena for the estimation path.
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
//! Two groups of lanes live here. The TREEPARSE lanes are the
//! evaluator's frames. The expansion lanes (`ExpandScratch`) hold a
//! cold memo miss: resolved step labels, chains as ranges of links, the
//! `//` search path, the one partial embedding the enumerator
//! backtracks over, and the plan columns it fills before copying them
//! out once, exact-size.
//!
//! The arena is reached through a thread-local ([`with_scratch`]), so
//! steady-state serving reuses one warmed arena per worker thread. The
//! rare re-entrant caller (an estimator invoked from inside another
//! estimator's evaluation) falls back to a fresh arena rather than
//! panicking on the `RefCell`. Code already holding the arena (branch
//! fractions inside an expansion) takes it passed down instead.
//!
//! See DESIGN.md §13 for the lifecycle and the bit-identity argument.

use crate::estimate::embedding::{PartialNode, PlanNode};
use crate::estimate::expand::{BranchValue, Link};
use crate::synopsis::SynId;
use std::cell::RefCell;
use xtwig_query::TwigNodeRef;

/// Typed-lane scratch for one thread's estimates.
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
    /// Expansion and plan lanes of a cold memo miss.
    pub(crate) expand: ExpandScratch,
}

/// The expansion lanes: everything a cold memo miss builds before it
/// copies its plan out.
///
/// Chain, link and label lanes nest: a branch predicate's expansion runs
/// inside a link's resolution, pushes above the caller's data and
/// truncates back to its [`ChainMark`]. The enumeration and plan lanes
/// serve one plan build at a time and are cleared when one starts.
#[derive(Debug, Default)]
pub(crate) struct ExpandScratch {
    /// Label ids of every resolved step, concatenated.
    pub(crate) label_ids: Vec<usize>,
    /// Per resolved step: its range of `label_ids`.
    pub(crate) step_sets: Vec<(usize, usize)>,
    /// Chain links; a chain is a range of this lane.
    pub(crate) links: Vec<Link>,
    /// Symbolic branch values of the links; a link holds a range.
    pub(crate) link_values: Vec<BranchValue>,
    /// Per chain: its range of `links`.
    pub(crate) chains: Vec<(usize, usize)>,
    /// The `//` search's current synopsis path.
    pub(crate) path: Vec<SynId>,
    /// Per twig node: the index of its first step in `step_sets`.
    pub(crate) twig_steps: Vec<usize>,
    /// The one partial embedding the enumerator extends and backtracks.
    pub(crate) partial: Vec<PartialNode>,
    /// Twig nodes still to embed as `(twig node, anchor)`, next on top.
    pub(crate) pending: Vec<(TwigNodeRef, u32)>,
    /// Plan columns: each embedding's first node.
    pub(crate) plan_embs: Vec<u32>,
    /// Plan columns: the nodes of every embedding.
    pub(crate) plan_nodes: Vec<PlanNode>,
    /// Plan columns: child node indices, a range per node.
    pub(crate) plan_children: Vec<u32>,
    /// Plan columns: symbolic branch values, a range per node.
    pub(crate) plan_values: Vec<BranchValue>,
    /// Plan columns: sorted `needs` edges, a range per node.
    pub(crate) plan_needs: Vec<(SynId, SynId)>,
}

/// The lengths of the nesting expansion lanes on entry to an expansion;
/// [`ExpandScratch::release`] truncates back to them.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChainMark {
    label_ids: usize,
    step_sets: usize,
    links: usize,
    link_values: usize,
    chains: usize,
    path: usize,
}

impl ExpandScratch {
    /// The current lengths of the nesting lanes.
    pub(crate) fn mark(&self) -> ChainMark {
        ChainMark {
            label_ids: self.label_ids.len(),
            step_sets: self.step_sets.len(),
            links: self.links.len(),
            link_values: self.link_values.len(),
            chains: self.chains.len(),
            path: self.path.len(),
        }
    }

    /// Drops everything pushed to the nesting lanes since `m`.
    pub(crate) fn release(&mut self, m: ChainMark) {
        self.label_ids.truncate(m.label_ids);
        self.step_sets.truncate(m.step_sets);
        self.links.truncate(m.links);
        self.link_values.truncate(m.link_values);
        self.chains.truncate(m.chains);
        self.path.truncate(m.path);
    }

    /// Clears every lane (capacity is retained).
    pub(crate) fn clear(&mut self) {
        self.release(ChainMark {
            label_ids: 0,
            step_sets: 0,
            links: 0,
            link_values: 0,
            chains: 0,
            path: 0,
        });
        self.twig_steps.clear();
        self.partial.clear();
        self.pending.clear();
        self.clear_plan();
    }

    /// Clears the plan columns for the next plan build.
    pub(crate) fn clear_plan(&mut self) {
        self.plan_embs.clear();
        self.plan_nodes.clear();
        self.plan_children.clear();
        self.plan_values.clear();
        self.plan_needs.clear();
    }
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
        self.expand.clear();
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
