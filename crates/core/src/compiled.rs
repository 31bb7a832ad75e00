//! The TREEPARSE evaluator (§4) over a compiled, serving-oriented
//! lowering of the [`Synopsis`].
//!
//! The synopsis is built for construction: `avg_children` probes a
//! `BTreeMap`, and every histogram access walks `Vec<Bucket>` objects
//! whose per-dimension vectors live behind separate allocations. A
//! service compiles it once and then consults it millions of times, so
//! [`CompiledSynopsis`] performs a one-time lowering into flat,
//! cache-friendly arrays:
//!
//! * **CSR adjacency** — per-parent sorted child lists with the Forward
//!   Uniformity average `child_count/|u|` precomputed, so the hot-path
//!   `avg_children` is a binary search over a contiguous `u32` slice
//!   instead of a `BTreeMap` probe. Each row equals
//!   `Synopsis::children_of` (both follow the edge map's key order).
//! * **Structural columns** — root and max depth, per-node label ids
//!   with the label-name table, per-edge `child_count`/`parent_count`,
//!   per-label element totals, and the per-node value summaries
//!   flattened into one bucket column: everything expansion, branch
//!   fractions, value-summary fallbacks, [`coarse_count_bound`],
//!   explain rendering and the Markov derivation read. A v3 snapshot
//!   stores exactly these columns, so a loaded synopsis serves without
//!   ever building a [`Synopsis`]; [`CompiledSynopsis::source`] rebuilds
//!   one from the columns only for the cold consumers that ask (fsck,
//!   the footprint of a size report).
//! * **Flat histogram columns** — every node's edge histogram in one
//!   set of owned columns per synopsis: bucket masses, bucket-major box
//!   bounds and means, scope dimensions as parallel edge/kind tables,
//!   value buckets with per-dimension spans, per-dimension marginal
//!   expectations `Σ f·mean_d`, and the dimension-major `f64` bound
//!   transposes the vectorized kernels stream. Each node has a small
//!   head (shape, row starts, total mass), and [`CompiledHistogram`] is
//!   a copyable handle — head plus a reference to the columns — that
//!   owns no heap memory. A v3 load fills the same columns in a fixed
//!   number of allocations, whatever the node count.
//! * **Memoized maximal-twig expansion** — one flat plan per
//!   `(query signature, embedding cap)`: every embedding as a range
//!   of plan nodes over shared node, children, branch-value and `needs`
//!   columns ([`ExpandedQuery`]), so repeated queries skip expansion and
//!   embedding enumeration entirely. A miss enumerates in the thread's
//!   arena lanes and copies the plan out once, exact-size. The memo is
//!   only populated by expansions that ran to completion (no
//!   deadline/work exhaustion mid-enumeration).
//!
//! Every compiled synopsis carries an **epoch** drawn from a global
//! monotone counter. Downstream caches (the serving layer's estimate
//! cache, see [`crate::serve`]) key their entries by this epoch: when the
//! synopsis is refined and recompiled, the fresh epoch invalidates every
//! stale entry without any explicit flush protocol.
//!
//! ## TREEPARSE
//!
//! For each embedding node `t_i` bound to synopsis node `n_i` with edge
//! histogram `H_i`, the evaluator classifies the information available:
//!
//! * `E_i` — forward dimensions of `H_i` that must be **enumerated**:
//!   those covering a twig child edge of `t_i`, plus those some descendant
//!   conditions on through a backward dimension (computed by the `needs`
//!   pre-pass). Dimensions of `H_i` outside `E_i` are marginalized.
//! * `D_i` — backward dimensions of `H_i` whose edges were enumerated by
//!   an ancestor: the evaluation **conditions** `H_i` on the enumerated
//!   values (`F_i(E_i | D_i) = H_i(E_i ∪ D_i)/H_i(D_i)`, the
//!   Correlation-Scope Independence assumption). Backward dimensions whose
//!   edges were not enumerated are dropped (`F(E|D) ≈ F(E | E∩D)`).
//! * `U_i` — twig child edges not covered by any forward dimension: each
//!   contributes its exact per-edge average `child_count(u→v)/|u|`
//!   independently (Forward Uniformity + Forward Independence).
//!
//! Conditioning context flows through an environment of
//! `(edge, enumerated value)` pairs maintained along the depth-first
//! recursion — the paper's global `covered` set restricted to the
//! ancestor chain, which is the context a depth-first product
//! evaluation can condition on.
//!
//! This is the only evaluator in shipped code. The test suite keeps an
//! independent interpreted evaluator over the [`Synopsis`] itself
//! (`tests/support/oracle.rs`) and checks that the two agree to the bit
//! on all three paper generators, with and without budgets
//! (`tests/compiled_identity.rs`).

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use crate::estimate::api::{
    self, AssumptionCounts, EstimateReport, EstimateRequest, Estimator, Explain, Provenance,
    QueryTelemetry,
};
use crate::estimate::arena::{self, EvalArena, ExpandScratch};
use crate::estimate::embedding::{
    enumerate_plan, plan_of, Embedding, EmbeddingView, ExpandedQuery,
};
use crate::estimate::guard::{EvalStats, Meter};
use crate::estimate::kernel;
use crate::estimate::{coarse_count_bound, EstimateOptions};
use crate::synopsis::{
    DimKind, EdgeHistogram, ScopeDim, SynId, Synopsis, SynopsisEdge, SynopsisNode, ValueBuckets,
    ValueSource, ValueSummary,
};
use crate::telemetry::{self, Span, Stage};
use std::time::Instant;
use xtwig_histogram::{Bucket, MdHistogram, ValueHistogram};
use xtwig_query::TwigQuery;
use xtwig_xml::{LabelId, LabelTable};

/// Global epoch source: every compilation gets a fresh, process-unique
/// epoch so caches can tell synopsis generations apart.
static EPOCH: AtomicU64 = AtomicU64::new(1);

/// Upper bound on memoized expansions; a full memo is cleared wholesale
/// (expansion is cheap to redo relative to unbounded memory growth, and
/// serving workloads cycle through far fewer distinct shapes).
const EXPANSION_MEMO_CAP: usize = 4096;

/// One node's edge histogram within [`HistColumns`]: its shape, where
/// its rows start in each column, and its per-histogram scalars.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HistHead {
    /// Number of scope dimensions.
    pub(crate) dims: usize,
    /// Number of buckets.
    pub(crate) buckets: usize,
    /// Number of value-bucket rows over all its dimensions.
    pub(crate) value_buckets: usize,
    /// First scope dimension in the per-dimension columns.
    pub(crate) dim: usize,
    /// First bucket in `frac`.
    pub(crate) bucket: usize,
    /// First of its `buckets × dims` cells in the cell columns.
    pub(crate) cell: usize,
    /// First row in `vb_lo`/`vb_hi`.
    pub(crate) vb: usize,
    /// Precomputed total probability mass `Σ_b frac[b]`.
    pub(crate) total_mass: f64,
    /// The histogram's byte budget (kept for the source rebuild).
    pub(crate) budget_bytes: u32,
    /// Distinct points the histogram summarized (kept for the source
    /// rebuild).
    pub(crate) distinct_points: u32,
}

/// Every node's edge histogram, flattened into one set of owned
/// columns per synopsis. Node `n`'s rows are the ranges `heads[n]`
/// names. Within them, bucket `b`'s row for dimension `d` is cell
/// `b * dims + d` of `lo`/`hi`/`mean`, and value dimension `d`'s bucket
/// boundaries are rows `vb_span[d]` of the node's `vb_lo`/`vb_hi` rows.
/// [`CompiledSynopsis::compile`] and the v3 carve both fill these
/// columns, so serving reads one layout whichever way the synopsis
/// arrived, and a node's [`CompiledHistogram`] is a handle that owns no
/// heap memory.
#[derive(Debug, Clone, Default)]
pub(crate) struct HistColumns {
    /// One head per node, in node-id order.
    pub(crate) heads: Vec<HistHead>,
    /// Parent endpoint of each scope dimension's edge.
    pub(crate) dim_parent: Vec<SynId>,
    /// Child endpoint (or value source) of each scope dimension's edge.
    pub(crate) dim_child: Vec<SynId>,
    /// Kind of each scope dimension.
    pub(crate) dim_kind: Vec<DimKind>,
    /// Per dimension, `(start, len)` of its value buckets within its
    /// node's value-bucket rows; `None` without value buckets.
    pub(crate) vb_span: Vec<Option<(usize, usize)>>,
    /// Precomputed marginal expectation `Σ_b frac[b] · mean[b][d]` per
    /// dimension — the `E[C_d]` an AVI-style consumer reads in O(1).
    pub(crate) dim_expectation: Vec<f64>,
    /// Per-bucket probability mass.
    pub(crate) frac: Vec<f64>,
    /// Bucket-major inclusive lower box bounds.
    pub(crate) lo: Vec<u32>,
    /// Bucket-major inclusive upper box bounds.
    pub(crate) hi: Vec<u32>,
    /// Bucket-major mass-weighted means.
    pub(crate) mean: Vec<f64>,
    /// Value-bucket lower bounds.
    pub(crate) vb_lo: Vec<i64>,
    /// Value-bucket upper bounds.
    pub(crate) vb_hi: Vec<i64>,
    /// Dimension-major (transposed) lower box bounds as `f64`, rebuilt
    /// from `lo` by [`HistColumns::build_transposes`].
    pub(crate) lo_t: Vec<f64>,
    /// Dimension-major (transposed) upper box bounds as `f64`.
    pub(crate) hi_t: Vec<f64>,
}

impl HistColumns {
    /// Lowers every edge histogram of `s`, in node-id order.
    fn compile(s: &Synopsis) -> HistColumns {
        let mut c = HistColumns::default();
        let (mut mean_t, mut prod) = (Vec::new(), Vec::new());
        for n in s.node_ids() {
            let h = s.edge_hist(n);
            let dims = h.hist.dims();
            let buckets = h.hist.buckets();
            let (bucket, cell, vb) = (c.frac.len(), c.lo.len(), c.vb_lo.len());
            for b in buckets {
                c.frac.push(b.fraction);
                c.lo.extend_from_slice(&b.lo);
                c.hi.extend_from_slice(&b.hi);
                c.mean.extend_from_slice(&b.mean);
            }
            let dim = c.dim_kind.len();
            for (d, sd) in h.scope.iter().enumerate() {
                c.dim_parent.push(sd.parent);
                c.dim_child.push(sd.child);
                c.dim_kind.push(sd.kind);
                let span = h.value_buckets.get(d).and_then(Option::as_ref).map(|v| {
                    let start = c.vb_lo.len() - vb;
                    c.vb_lo.extend_from_slice(&v.lo);
                    c.vb_hi.extend_from_slice(&v.hi);
                    (start, v.len())
                });
                c.vb_span.push(span);
            }
            // Expectation per dimension as a two-pass kernel: vectorized
            // elementwise products, then an order-preserving left fold —
            // the same multiply-then-add sequence (in the same bucket
            // order) as the scalar `Σ_b frac[b]·mean[b][d]`, so the result
            // is bit-identical to the historical per-bucket loop.
            let nb = buckets.len();
            let (frac, mean) = (&c.frac[bucket..], &c.mean[cell..]);
            mean_t.resize(nb, 0.0);
            prod.resize(nb, 0.0);
            for d in 0..dims {
                for (b, m) in mean_t.iter_mut().enumerate() {
                    *m = mean[b * dims + d];
                }
                kernel::mul_into(frac, &mean_t, &mut prod);
                c.dim_expectation.push(kernel::sum_seq(&prod));
            }
            c.heads.push(HistHead {
                dims,
                buckets: nb,
                value_buckets: c.vb_lo.len() - vb,
                dim,
                bucket,
                cell,
                vb,
                total_mass: h.hist.total_mass(),
                budget_bytes: h.budget_bytes as u32,
                distinct_points: h.distinct_points as u32,
            });
        }
        c.build_transposes();
        c
    }

    /// Rebuilds the dimension-major `f64` transposes of `lo`/`hi` in one
    /// pass: node `h`'s dimension `d` lane is its cells
    /// `d * buckets .. (d + 1) * buckets`. The row-major columns stay the
    /// source of truth for per-bucket reads (one cache line per visited
    /// bucket); the transposes feed the whole-column kernels, which
    /// stream them with unit stride so LLVM vectorizes them (see
    /// `estimate::kernel`). `u32 → f64` is exact, so each transposed
    /// bound equals `lo[b * dims + d] as f64` bit for bit.
    pub(crate) fn build_transposes(&mut self) {
        let mut lo_t = vec![0.0f64; self.lo.len()];
        let mut hi_t = vec![0.0f64; self.hi.len()];
        for h in &self.heads {
            for b in 0..h.buckets {
                for d in 0..h.dims {
                    let (row, lane) = (h.cell + b * h.dims + d, h.cell + d * h.buckets + b);
                    lo_t[lane] = f64::from(self.lo[row]);
                    hi_t[lane] = f64::from(self.hi[row]);
                }
            }
        }
        self.lo_t = lo_t;
        self.hi_t = hi_t;
    }
}

/// `len` rows of `col` from `start`; empty when out of range, which the
/// columns of a compiled or carved synopsis never are.
fn rows<T>(col: &[T], start: usize, len: usize) -> &[T] {
    start
        .checked_add(len)
        .and_then(|end| col.get(start..end))
        .unwrap_or(&[])
}

/// One node's edge histogram: its [`HistHead`] plus a reference to the
/// synopsis' [`HistColumns`]. Copying it copies two pointers. Each
/// accessor slices the node's rows out of one column, so an evaluator
/// frame fetches the slices it reads once and then indexes them.
#[derive(Debug, Clone, Copy)]
pub struct CompiledHistogram<'c> {
    head: &'c HistHead,
    cols: &'c HistColumns,
}

impl<'c> CompiledHistogram<'c> {
    /// The [`EdgeHistogram`] this histogram was lowered from: scope,
    /// buckets in bucket order, value bucketizations, budget.
    fn to_edge_hist(self) -> EdgeHistogram {
        let dims = self.head.dims;
        let scope = self
            .dim_parent()
            .iter()
            .zip(self.dim_child())
            .zip(self.dim_kind())
            .map(|((&parent, &child), &kind)| ScopeDim {
                parent,
                child,
                kind,
            })
            .collect();
        let (lo, hi, mean) = (self.lo(), self.hi(), self.mean());
        let buckets = self
            .frac()
            .iter()
            .enumerate()
            .map(|(b, &fraction)| {
                let row = b * dims..(b + 1) * dims;
                Bucket {
                    fraction,
                    lo: lo[row.clone()].to_vec(),
                    hi: hi[row.clone()].to_vec(),
                    mean: mean[row].to_vec(),
                }
            })
            .collect();
        let (vb_lo, vb_hi) = (self.vb_lo(), self.vb_hi());
        let value_buckets = self
            .vb_span()
            .iter()
            .map(|span| {
                span.map(|(start, len)| ValueBuckets {
                    lo: vb_lo[start..start + len].to_vec(),
                    hi: vb_hi[start..start + len].to_vec(),
                })
            })
            .collect();
        EdgeHistogram {
            scope,
            hist: MdHistogram::from_parts(dims, buckets),
            value_buckets,
            budget_bytes: self.head.budget_bytes as usize,
            distinct_points: self.head.distinct_points as usize,
        }
    }

    /// Number of scope dimensions.
    pub fn dims(self) -> usize {
        self.head.dims
    }

    /// Number of buckets.
    pub fn bucket_count(self) -> usize {
        self.head.buckets
    }

    /// Precomputed marginal expectation `E[C_d]` of dimension `d`.
    pub fn dim_expectation(self, d: usize) -> Option<f64> {
        rows(&self.cols.dim_expectation, self.head.dim, self.head.dims)
            .get(d)
            .copied()
    }

    /// Precomputed total probability mass.
    pub fn total_mass(self) -> f64 {
        self.head.total_mass
    }

    fn dim_parent(self) -> &'c [SynId] {
        rows(&self.cols.dim_parent, self.head.dim, self.head.dims)
    }

    fn dim_child(self) -> &'c [SynId] {
        rows(&self.cols.dim_child, self.head.dim, self.head.dims)
    }

    /// The histogram's backward dimensions, as `(parent, child)` edges in
    /// scope order.
    pub(crate) fn backward_edges(self) -> impl Iterator<Item = (SynId, SynId)> + 'c {
        self.dim_kind()
            .iter()
            .zip(self.dim_parent().iter().zip(self.dim_child()))
            .filter(|(&k, _)| k == DimKind::Backward)
            .map(|(_, (&p, &c))| (p, c))
    }

    fn dim_kind(self) -> &'c [DimKind] {
        rows(&self.cols.dim_kind, self.head.dim, self.head.dims)
    }

    fn vb_span(self) -> &'c [Option<(usize, usize)>] {
        rows(&self.cols.vb_span, self.head.dim, self.head.dims)
    }

    fn frac(self) -> &'c [f64] {
        rows(&self.cols.frac, self.head.bucket, self.head.buckets)
    }

    fn cells(self) -> usize {
        self.head.buckets * self.head.dims
    }

    fn lo(self) -> &'c [u32] {
        rows(&self.cols.lo, self.head.cell, self.cells())
    }

    fn hi(self) -> &'c [u32] {
        rows(&self.cols.hi, self.head.cell, self.cells())
    }

    fn mean(self) -> &'c [f64] {
        rows(&self.cols.mean, self.head.cell, self.cells())
    }

    fn vb_lo(self) -> &'c [i64] {
        rows(&self.cols.vb_lo, self.head.vb, self.head.value_buckets)
    }

    fn vb_hi(self) -> &'c [i64] {
        rows(&self.cols.vb_hi, self.head.vb, self.head.value_buckets)
    }

    /// Index of the value dimension drawing from `source` when it
    /// carries value buckets: the first dimension matching
    /// `EdgeHistogram::value_dim_of`, and `None` when that one has no
    /// bucketization (the predicate then falls back to a fraction).
    fn bucketed_value_dim(self, owner: SynId, source: ValueSource) -> Option<usize> {
        let child = match source {
            ValueSource::OwnValue => owner,
            ValueSource::ChildValue(z) => z,
        };
        let d = self
            .dim_parent()
            .iter()
            .zip(self.dim_child())
            .zip(self.dim_kind())
            .position(|((&p, &c), &k)| p == owner && c == child && k == DimKind::Value)?;
        self.vb_span().get(d).copied().flatten().map(|_| d)
    }

    /// Vectorized mirror of `Bucket::contains_on` over **all** buckets
    /// at once: `mask[b] = frac[b] > 0 && cond is inside bucket b's box`,
    /// one dimension-major lane pass per conditioning pair. The compare
    /// arithmetic (`v >= lo - 0.5 && v <= hi + 0.5` on exactly-converted
    /// `f64` bounds) is the scalar test's, so the surviving bucket set is
    /// identical.
    fn contains_mask(self, frac: &[f64], cond: &[(usize, f64)], mask: &mut [u8]) {
        let nb = self.head.buckets;
        let (lo_t, hi_t) = (self.lo_t(), self.hi_t());
        kernel::positive_mask(frac, mask);
        for &(d, v) in cond {
            let lane = d * nb;
            kernel::range_mask_and(v, &lo_t[lane..lane + nb], &hi_t[lane..lane + nb], mask);
        }
    }

    /// Vectorized mirror of `Bucket::distance_on` over all buckets:
    /// `dist[b] = Σ_cond axial-distance²`, accumulated per conditioning
    /// pair in `cond` order — the same add sequence per bucket as the
    /// scalar per-dimension sum, so distances are bit-identical (see
    /// `kernel::sq_distance_add` for the branch-free equivalence).
    fn distance_fill(self, cond: &[(usize, f64)], dist: &mut [f64]) {
        let nb = self.head.buckets;
        let (lo_t, hi_t) = (self.lo_t(), self.hi_t());
        for d in dist.iter_mut() {
            *d = 0.0;
        }
        for &(d, v) in cond {
            let lane = d * nb;
            kernel::sq_distance_add(v, &lo_t[lane..lane + nb], &hi_t[lane..lane + nb], dist);
        }
    }

    fn lo_t(self) -> &'c [f64] {
        rows(&self.cols.lo_t, self.head.cell, self.cells())
    }

    fn hi_t(self) -> &'c [f64] {
        rows(&self.cols.hi_t, self.head.cell, self.cells())
    }
}

/// The rows a bucket's value weight reads, fetched once per `eval_node`
/// frame that has matched value predicates.
#[derive(Clone, Copy)]
struct ValueRows<'c> {
    dims: usize,
    lo: &'c [u32],
    hi: &'c [u32],
    vb_span: &'c [Option<(usize, usize)>],
    vb_lo: &'c [i64],
    vb_hi: &'c [i64],
}

impl<'c> ValueRows<'c> {
    fn of(h: CompiledHistogram<'c>) -> ValueRows<'c> {
        ValueRows {
            dims: h.head.dims,
            lo: h.lo(),
            hi: h.hi(),
            vb_span: h.vb_span(),
            vb_lo: h.vb_lo(),
            vb_hi: h.vb_hi(),
        }
    }

    /// Per-bucket weight from matched value predicates: the share of
    /// bucket `b`'s elements whose value dimension(s) survive the ranges.
    fn weight(&self, b: usize, value_conds: &[(usize, i64, i64)]) -> f64 {
        let row = b * self.dims;
        let mut w = 1.0;
        for &(di, lo, hi) in value_conds {
            let (blo, bhi) = (self.lo[row + di], self.hi[row + di]);
            w *= self.overlap_share(di, blo, bhi, lo, hi);
            if w == 0.0 {
                break;
            }
        }
        w
    }

    /// Mirror of `ValueBuckets::overlap_share` over the flattened bucket
    /// boundaries of value dimension `di` — identical arithmetic, so the
    /// weighted masses match the synopsis' own value buckets bit-for-bit.
    fn overlap_share(&self, di: usize, coord_lo: u32, coord_hi: u32, lo: i64, hi: i64) -> f64 {
        let Some(Some((start, len))) = self.vb_span.get(di).copied() else {
            return 1.0;
        };
        let n = len as u32;
        if coord_lo >= n {
            return 0.0;
        }
        let v_hi = coord_hi.min(n - 1);
        let span_lo = self.vb_lo[start + coord_lo as usize];
        let span_hi = self.vb_hi[start + v_hi as usize];
        if span_hi < lo || span_lo > hi {
            return 0.0;
        }
        let span = (span_hi - span_lo) as f64 + 1.0;
        let overlap = (hi.min(span_hi) - lo.max(span_lo)) as f64 + 1.0;
        let mut share = (overlap / span).clamp(0.0, 1.0);
        if coord_hi >= n {
            let total = (coord_hi - coord_lo + 1) as f64;
            let valued = (v_hi - coord_lo + 1) as f64;
            share *= valued / total;
        }
        share
    }
}

/// The label-name table as one UTF-8 string plus end offsets: label
/// `l` is `text[ends[l - 1]..ends[l]]` (from 0 for the first), labels in
/// id order.
#[derive(Debug, Clone)]
pub(crate) struct LabelNames {
    pub(crate) text: String,
    /// Ascending end offsets into `text`, one per label.
    pub(crate) ends: Vec<usize>,
}

impl LabelNames {
    /// The names of `labels`, in id order.
    fn from_table(labels: &LabelTable) -> LabelNames {
        let mut names = LabelNames {
            text: String::new(),
            ends: Vec::with_capacity(labels.len()),
        };
        for (_, name) in labels.iter() {
            names.text.push_str(name);
            names.ends.push(names.text.len());
        }
        names
    }

    /// Number of labels.
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    /// The name of label `l` (`""` out of range).
    pub(crate) fn name(&self, l: usize) -> &str {
        let start = match l.checked_sub(1) {
            Some(p) => self.ends.get(p).copied(),
            None => Some(0),
        };
        match (start, self.ends.get(l)) {
            (Some(a), Some(&b)) => self.text.get(a..b).unwrap_or(""),
            _ => "",
        }
    }

    /// The id of the label named `name`, if any.
    fn position(&self, name: &str) -> Option<usize> {
        (0..self.len()).find(|&l| self.name(l) == name)
    }
}

/// One node's 1-D value summary within [`ValueColumns`]: its bucket
/// rows `start..end`, the summarized value count, and the byte budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ValueSpan {
    pub(crate) start: usize,
    pub(crate) end: usize,
    pub(crate) total: u64,
    pub(crate) budget: u32,
}

/// One flattened value-summary bucket: `(lo, hi, count, distinct)`, the
/// `ValueHistogram::to_parts` row.
pub(crate) type ValueBucket = (i64, i64, u64, u64);

/// Per-node 1-D value summaries flattened into one bucket column;
/// `spans[n]` is `None` for a node without a summary.
#[derive(Debug, Clone)]
pub(crate) struct ValueColumns {
    pub(crate) spans: Vec<Option<ValueSpan>>,
    pub(crate) buckets: Vec<ValueBucket>,
}

impl ValueColumns {
    fn from_synopsis(s: &Synopsis) -> ValueColumns {
        let mut v = ValueColumns {
            spans: Vec::with_capacity(s.node_count()),
            buckets: Vec::new(),
        };
        for n in s.node_ids() {
            let span = s.value_summary(n).map(|vs| {
                let (buckets, total) = vs.hist.to_parts();
                let start = v.buckets.len();
                v.buckets.extend(buckets);
                ValueSpan {
                    start,
                    end: v.buckets.len(),
                    total,
                    budget: vs.budget_bytes as u32,
                }
            });
            v.spans.push(span);
        }
        v
    }

    /// Node `n`'s summary span and bucket rows, if it has a summary.
    fn summary_rows(&self, n: usize) -> Option<(ValueSpan, &[ValueBucket])> {
        let span = (*self.spans.get(n)?)?;
        Some((span, self.buckets.get(span.start..span.end)?))
    }

    /// Mirror of `ValueHistogram::range_fraction` over node `n`'s
    /// flattened buckets — identical arithmetic in bucket order, so the
    /// fraction matches the synopsis' own value summary bit for bit.
    fn range_fraction(&self, n: usize, lo: i64, hi: i64) -> f64 {
        let Some((span, rows)) = self.summary_rows(n) else {
            return 0.0;
        };
        if span.total == 0 || lo > hi {
            return 0.0;
        }
        let mut covered = 0.0;
        for &(blo, bhi, count, _) in rows {
            if bhi < lo || blo > hi {
                continue;
            }
            if lo <= blo && bhi <= hi {
                covered += count as f64;
                continue;
            }
            // Partial overlap: interpolate on the value range.
            let span = (bhi - blo) as f64 + 1.0;
            let olo = lo.max(blo);
            let ohi = hi.min(bhi);
            let overlap = (ohi - olo) as f64 + 1.0;
            covered += count as f64 * (overlap / span).clamp(0.0, 1.0);
        }
        (covered / span.total as f64).clamp(0.0, 1.0)
    }

    /// The [`ValueSummary`] node `n`'s rows were flattened from.
    fn summary(&self, n: usize) -> Option<ValueSummary> {
        let (span, rows) = self.summary_rows(n)?;
        Some(ValueSummary {
            hist: ValueHistogram::from_parts(rows.to_vec(), span.total),
            budget_bytes: span.budget as usize,
        })
    }
}

/// The structural columns of a compiled synopsis — everything besides
/// the edge histograms. [`CompiledSynopsis::compile`] lowers them from
/// a live [`Synopsis`] and the v3 loader decodes them from `META`, so
/// serving has one backing whichever way the synopsis arrived.
pub(crate) struct Columns {
    /// The node containing the document root.
    pub(crate) root: SynId,
    /// Maximum document depth (bounds `//` expansion).
    pub(crate) max_depth: usize,
    /// Extent sizes per node.
    pub(crate) counts: Vec<u64>,
    /// Label id per node.
    pub(crate) node_label: Vec<u16>,
    /// Label names, by label id.
    pub(crate) labels: LabelNames,
    /// CSR row offsets into the edge columns (`nodes + 1`).
    pub(crate) edge_off: Vec<usize>,
    /// Child endpoints, sorted per parent.
    pub(crate) edge_child: Vec<SynId>,
    /// Precomputed Forward Uniformity averages `child_count/|u|`.
    pub(crate) edge_avg: Vec<f64>,
    /// Per-edge `child_count`: elements of the child with a parent in
    /// the parent node.
    pub(crate) edge_child_count: Vec<u64>,
    /// Per-edge `parent_count`: elements of the parent with a child in
    /// the child node.
    pub(crate) edge_parent_count: Vec<u64>,
    /// Per-node value summaries.
    pub(crate) values: ValueColumns,
}

/// Where `source()` finds the [`Synopsis`]: a caller-owned borrow (the
/// `compile` path) or an estimation-only copy rebuilt from the columns
/// on first use (a v3 load, which carries no other copy). Serving never
/// asks for it.
enum SourceRef<'a> {
    /// Borrowed from the caller; lives at least as long as `'a`.
    Borrowed(&'a Synopsis),
    /// Rebuilt from the columns on first call.
    Rebuilt(OnceLock<Box<Synopsis>>),
}

/// The compiled synopsis: flat arrays that answer every question the
/// estimation path asks — expansion, branch fractions, value-summary
/// fallbacks, the coarse count bound and explain rendering read the
/// structural columns through the accessors below; TREEPARSE reads the
/// histograms. It is the only synopsis view estimation reads.
///
/// Two provenances share this one type: [`CompiledSynopsis::compile`]
/// lowers a live synopsis into owned arrays (`'a` borrows the source),
/// while [`crate::io::v3::load_compiled_snapshot`] decodes the same
/// arrays out of a v3 snapshot into a self-contained
/// `CompiledSynopsis<'static>`.
pub struct CompiledSynopsis<'a> {
    source: SourceRef<'a>,
    epoch: u64,
    /// The structural columns.
    pub(crate) cols: Columns,
    /// Elements per label id, summed in node-id order.
    label_total: Vec<f64>,
    /// Every node's edge histogram, in flat columns.
    pub(crate) hists: HistColumns,
    /// Memoized expansions keyed by `(query, embedding cap)`.
    memo: Mutex<HashMap<String, Arc<ExpandedQuery>>>,
    memo_hits: AtomicU64,
    memo_misses: AtomicU64,
}

impl<'a> CompiledSynopsis<'a> {
    /// Lowers `s` into flat form. O(synopsis size); done once per
    /// synopsis generation, amortized over every query served from it.
    pub fn compile(s: &'a Synopsis) -> CompiledSynopsis<'a> {
        let n = s.node_count();
        let counts: Vec<u64> = s.node_ids().map(|id| s.extent_size(id)).collect();
        // The synopsis stores edges in a BTreeMap keyed by (parent,
        // child), so iteration is already CSR order: grouped by parent,
        // children sorted — each row equals `Synopsis::children_of`.
        let e = s.edge_count();
        let mut edge_off = vec![0usize; n + 1];
        let mut edge_child = Vec::with_capacity(e);
        let mut edge_avg = Vec::with_capacity(e);
        let mut edge_child_count = Vec::with_capacity(e);
        let mut edge_parent_count = Vec::with_capacity(e);
        for (u, v, rec) in s.edge_iter() {
            edge_off[u.index() + 1] += 1;
            edge_child.push(v);
            // Same operands and operation as `Synopsis::avg_children`,
            // so the precomputed quotient is bit-identical.
            let cu = counts.get(u.index()).copied().unwrap_or(0);
            edge_avg.push(if cu > 0 {
                rec.child_count as f64 / cu as f64
            } else {
                0.0
            });
            edge_child_count.push(rec.child_count);
            edge_parent_count.push(rec.parent_count);
        }
        for i in 0..n {
            edge_off[i + 1] += edge_off[i];
        }
        let cols = Columns {
            root: s.root(),
            max_depth: s.max_depth(),
            node_label: s.node_ids().map(|id| s.label(id).0).collect(),
            labels: LabelNames::from_table(s.labels()),
            counts,
            edge_off,
            edge_child,
            edge_avg,
            edge_child_count,
            edge_parent_count,
            values: ValueColumns::from_synopsis(s),
        };
        let hists = HistColumns::compile(s);
        CompiledSynopsis::assemble(SourceRef::Borrowed(s), cols, hists)
    }

    /// Assembles a compiled synopsis from columns decoded out of a v3
    /// snapshot. Draws a fresh epoch, exactly like a recompilation, so
    /// downstream caches treat the load as a new generation.
    pub(crate) fn from_columns(cols: Columns, hists: HistColumns) -> CompiledSynopsis<'static> {
        CompiledSynopsis::assemble(SourceRef::Rebuilt(OnceLock::new()), cols, hists)
    }

    fn assemble(source: SourceRef<'a>, cols: Columns, hists: HistColumns) -> CompiledSynopsis<'a> {
        // Same order and operands as `Synopsis::tag_total`: each
        // label's counts added in node-id order.
        let mut label_total = vec![0.0f64; cols.labels.len()];
        for (&l, &c) in cols.node_label.iter().zip(&cols.counts) {
            if let Some(t) = label_total.get_mut(usize::from(l)) {
                *t += c as f64;
            }
        }
        CompiledSynopsis {
            source,
            epoch: EPOCH.fetch_add(1, Ordering::Relaxed),
            cols,
            label_total,
            hists,
            memo: Mutex::new(HashMap::new()),
            memo_hits: AtomicU64::new(0),
            memo_misses: AtomicU64::new(0),
        }
    }

    /// The synopsis this compilation was lowered from. For a
    /// snapshot-loaded synopsis this rebuilds an estimation-only copy
    /// from the columns on first use; serving never calls it.
    pub fn source(&self) -> &Synopsis {
        match &self.source {
            SourceRef::Borrowed(s) => s,
            SourceRef::Rebuilt(cell) => cell.get_or_init(|| Box::new(self.to_synopsis())),
        }
    }

    /// Rebuilds an estimation-only [`Synopsis`] from the columns: graph,
    /// edge counts, edge histograms and value summaries — every fact a
    /// synopsis holds besides its extents, so the v2 yardstick
    /// `save_synopsis` of the result equals that of the original byte
    /// for byte.
    pub(crate) fn to_synopsis(&self) -> Synopsis {
        let c = &self.cols;
        let mut labels = LabelTable::new();
        let ids: Vec<LabelId> = (0..c.labels.len())
            .map(|l| labels.intern(c.labels.name(l)))
            .collect();
        let nodes = c
            .node_label
            .iter()
            .zip(&c.counts)
            .map(|(&l, &count)| SynopsisNode {
                label: ids.get(usize::from(l)).copied().unwrap_or(LabelId(0)),
                extent: Vec::new(),
                count,
            })
            .collect();
        let mut edges = BTreeMap::new();
        for u in 0..c.counts.len() {
            let parent = SynId(u as u32);
            for i in c.edge_off[u]..c.edge_off[u + 1] {
                edges.insert(
                    (parent, c.edge_child[i]),
                    SynopsisEdge {
                        child_count: c.edge_child_count[i],
                        parent_count: c.edge_parent_count[i],
                    },
                );
            }
        }
        Synopsis::from_raw_parts(
            labels,
            nodes,
            edges,
            c.root,
            c.max_depth,
            self.hists
                .heads
                .iter()
                .map(|head| {
                    CompiledHistogram {
                        head,
                        cols: &self.hists,
                    }
                    .to_edge_hist()
                })
                .collect(),
            (0..c.counts.len()).map(|n| c.values.summary(n)).collect(),
        )
    }

    /// The process-unique epoch of this compilation. Monotonically
    /// increasing across compilations: recompiling after a refinement
    /// yields a strictly larger epoch, invalidating epoch-keyed caches.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of synopsis nodes; node ids are `0..node_count()`.
    pub fn node_count(&self) -> usize {
        self.cols.counts.len()
    }

    /// The node containing the document root.
    pub fn root(&self) -> SynId {
        self.cols.root
    }

    /// Maximum document depth (bounds `//` expansion).
    pub fn max_depth(&self) -> usize {
        self.cols.max_depth
    }

    /// The tag name of node `n`.
    pub fn tag(&self, n: SynId) -> &str {
        self.cols
            .node_label
            .get(n.index())
            .map_or("", |&l| self.cols.labels.name(usize::from(l)))
    }

    /// The label id of node `n`: its tag is `label_name(node_label(n))`.
    pub fn node_label(&self, n: SynId) -> usize {
        self.cols
            .node_label
            .get(n.index())
            .map_or(usize::MAX, |&l| usize::from(l))
    }

    /// Child nodes of `u`, in ascending id order.
    pub fn children_of(&self, u: SynId) -> &[SynId] {
        self.edge_row(u)
            .and_then(|(start, end)| self.cols.edge_child.get(start..end))
            .unwrap_or(&[])
    }

    /// Fraction of `u`'s elements with at least one child in `v`. Same
    /// operands and operation as `Synopsis::exist_fraction`.
    pub fn exist_fraction(&self, u: SynId, v: SynId) -> f64 {
        match (self.edge_index(u, v), self.cols.counts.get(u.index())) {
            (Some(i), Some(&cu)) if cu > 0 => {
                self.cols.edge_parent_count.get(i).copied().unwrap_or(0) as f64 / cu as f64
            }
            _ => 0.0,
        }
    }

    /// Estimated fraction of `n`'s elements whose value lies in
    /// `[lo, hi]` (0 for a node without a value summary).
    pub fn value_fraction(&self, n: SynId, lo: i64, hi: i64) -> f64 {
        self.cols.values.range_fraction(n.index(), lo, hi)
    }

    /// Total number of document elements carrying `tag`, summed in node
    /// id order (0.0 when the tag does not occur).
    pub fn tag_total(&self, tag: &str) -> f64 {
        self.cols
            .labels
            .position(tag)
            .and_then(|l| self.label_total.get(l))
            .copied()
            .unwrap_or(0.0)
    }

    /// Number of labels in the label table.
    pub fn label_count(&self) -> usize {
        self.cols.labels.len()
    }

    /// The name of label id `label`, in table order (`""` out of range).
    pub fn label_name(&self, label: usize) -> &str {
        self.cols.labels.name(label)
    }

    /// Elements of `v` with a parent in `u` (0 when `u→v` is no edge).
    pub fn child_count(&self, u: SynId, v: SynId) -> u64 {
        self.edge_index(u, v)
            .and_then(|i| self.cols.edge_child_count.get(i))
            .copied()
            .unwrap_or(0)
    }

    /// The compiled histogram of node `n`.
    pub fn hist(&self, n: SynId) -> Option<CompiledHistogram<'_>> {
        Some(CompiledHistogram {
            head: self.hists.heads.get(n.index())?,
            cols: &self.hists,
        })
    }

    /// `(hits, misses)` of the expansion memo so far.
    pub fn expansion_memo_stats(&self) -> (u64, u64) {
        (
            self.memo_hits.load(Ordering::Relaxed),
            self.memo_misses.load(Ordering::Relaxed),
        )
    }

    /// Node `u`'s CSR row `[start, end)` in the edge columns.
    #[inline]
    fn edge_row(&self, u: SynId) -> Option<(usize, usize)> {
        Some((
            *self.cols.edge_off.get(u.index())?,
            *self.cols.edge_off.get(u.index() + 1)?,
        ))
    }

    /// Index of edge `u→v` in the edge columns: binary search in `u`'s
    /// CSR row.
    #[inline]
    fn edge_index(&self, u: SynId, v: SynId) -> Option<usize> {
        let (start, end) = self.edge_row(u)?;
        let i = self
            .cols
            .edge_child
            .get(start..end)?
            .binary_search(&v)
            .ok()?;
        Some(start + i)
    }

    /// Compiled `avg_children`: the precomputed average of edge `u→v`.
    #[inline]
    fn avg_children(&self, u: SynId, v: SynId) -> f64 {
        self.edge_index(u, v)
            .and_then(|i| self.cols.edge_avg.get(i))
            .copied()
            .unwrap_or(0.0)
    }

    /// Expands `query` through the memo and reports whether the memo
    /// answered — the batch scheduler needs the flag to carry accurate
    /// `memo_hit` provenance through plan reuse and work splitting.
    pub(crate) fn expand_tracked(
        &self,
        query: &TwigQuery,
        opts: &EstimateOptions,
        meter: &mut Meter,
    ) -> (Arc<ExpandedQuery>, bool) {
        arena::with_scratch(|ar| {
            self.expand_inner(query, opts, meter, &mut ar.key_buf, &mut ar.expand)
        })
    }

    /// Enumerates `query`'s maximal twig embeddings into a fresh plan
    /// under `meter`, bypassing the memo — what a memo miss runs. On
    /// exhaustion the plan holds the embeddings completed so far.
    pub fn expand_metered(
        &self,
        query: &TwigQuery,
        opts: &EstimateOptions,
        meter: &mut Meter,
    ) -> ExpandedQuery {
        arena::with_scratch(|ar| enumerate_plan(self, query, opts, meter, &mut ar.expand))
    }

    /// Expands `query` through the memo: a hit returns the cached plan
    /// instantly; a miss enumerates the embeddings over the structural
    /// columns under `meter`, in `sc`'s lanes, and caches the copied-out
    /// plan only when the enumeration ran to completion. Also reports
    /// whether the memo answered.
    ///
    /// A hit under a work limit charges the work the stored expansion
    /// took when it fits the remaining budget, and otherwise runs the
    /// metered expansion, so the meter trips exactly where a cold run
    /// would and a warm memo never changes a budgeted answer. Requests
    /// without a work limit take the hit as is.
    ///
    /// `key_buf` is a reusable buffer for the memo key: on the
    /// steady-state hit path the key is formatted into retained capacity
    /// and looked up as `&str` (the map borrows `String` keys as `str`),
    /// so a memo hit performs **zero** heap allocations. A cold miss
    /// acquires the plan's columns, its `Arc` and an owned key for
    /// insertion, whatever the embedding count.
    fn expand_inner(
        &self,
        query: &TwigQuery,
        opts: &EstimateOptions,
        meter: &mut Meter,
        key_buf: &mut String,
        sc: &mut ExpandScratch,
    ) -> (Arc<ExpandedQuery>, bool) {
        use std::fmt::Write as _;
        key_buf.clear();
        // Writing into a String is infallible.
        let _ = write!(key_buf, "{query}\u{1}{}", opts.max_embeddings);
        {
            let memo = self.memo.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(hit) = memo.get(key_buf.as_str()) {
                let answered = match meter.work_remaining() {
                    None => true,
                    Some(left) => {
                        hit.work <= left && meter.exhaustion().is_none() && meter.proceed(hit.work)
                    }
                };
                if answered {
                    self.memo_hits.fetch_add(1, Ordering::Relaxed);
                    telemetry::global().expansion_memo_hits.incr();
                    return (Arc::clone(hit), true);
                }
            }
        }
        self.memo_misses.fetch_add(1, Ordering::Relaxed);
        telemetry::global().expansion_memo_misses.incr();
        let expanded = Arc::new(enumerate_plan(self, query, opts, meter, sc));
        if meter.exhaustion().is_none() {
            let mut memo = self.memo.lock().unwrap_or_else(PoisonError::into_inner);
            if memo.len() >= EXPANSION_MEMO_CAP {
                memo.clear();
            }
            memo.insert(key_buf.clone(), Arc::clone(&expanded));
        }
        (expanded, false)
    }

    /// Estimates the selectivity (number of binding tuples) of `query`:
    /// the sum of the TREEPARSE estimates of its maximal twig embeddings.
    /// Memoized expansion and flat-array TREEPARSE run under spans and
    /// one shared [`Meter`] built from the options' deadline/work-limit
    /// fields, followed by one telemetry flush. The estimate is always
    /// finite and ≥ 0: NaN/negative per-embedding contributions drop,
    /// `+∞` ones (and a non-finite total) clamp to
    /// [`coarse_count_bound`]. This is also what the [`Estimator`] trait
    /// serves.
    pub fn estimate_report(&self, query: &TwigQuery, opts: &EstimateOptions) -> EstimateReport {
        arena::with_scratch(|ar| {
            let t_total = Instant::now();
            let mut meter = Meter::from_options(opts);

            let mut expand_span = Span::enter(Stage::Expand);
            let (expanded, memo_hit) =
                self.expand_inner(query, opts, &mut meter, &mut ar.key_buf, &mut ar.expand);
            let expand_ns = api::elapsed_ns(t_total);
            let expand_work = meter.work_done();
            expand_span.add_work(expand_work);
            expand_span.exit();

            self.report_from_plan(
                query,
                opts,
                &expanded,
                memo_hit,
                meter,
                t_total,
                expand_ns,
                expand_work,
                ar,
            )
        })
    }

    /// Estimates `query` against an already-expanded plan, skipping
    /// expansion and the memo entirely. This is the batch plan-reuse
    /// entry point: [`crate::BatchServer::serve`] expands each distinct
    /// twig signature once per batch and evaluates it against the
    /// expanded plan. Numerically identical to
    /// [`CompiledSynopsis::estimate_report`] on the same plan —
    /// TREEPARSE is deterministic given the plan and options — with
    /// `memo_hit` provenance supplied by the caller.
    pub(crate) fn estimate_report_with_plan(
        &self,
        query: &TwigQuery,
        opts: &EstimateOptions,
        plan: &ExpandedQuery,
        memo_hit: bool,
    ) -> EstimateReport {
        arena::with_scratch(|ar| {
            let t_total = Instant::now();
            let meter = Meter::from_options(opts);
            self.report_from_plan(query, opts, plan, memo_hit, meter, t_total, 0, 0, ar)
        })
    }

    /// The evaluation tail shared by every compiled entry point:
    /// TREEPARSE over `expanded` under `meter`, the canonical clamping
    /// loop, provenance/telemetry/explain assembly.
    #[allow(clippy::too_many_arguments)]
    fn report_from_plan(
        &self,
        query: &TwigQuery,
        opts: &EstimateOptions,
        expanded: &ExpandedQuery,
        memo_hit: bool,
        mut meter: Meter,
        t_total: Instant,
        expand_ns: u64,
        expand_work: u64,
        ar: &mut EvalArena,
    ) -> EstimateReport {
        let t_eval = Instant::now();
        let mut eval_span = Span::enter(Stage::TreeParse);
        let acc = api::sum_embeddings(
            expanded.len(),
            opts.explain,
            |i| match expanded.embedding(i) {
                Some(e) => {
                    let v = self.estimate_embedding_metered(e, &mut meter, ar);
                    (v, meter.exhaustion())
                }
                None => (0.0, None),
            },
            || coarse_count_bound(self, query),
            |i| {
                expanded
                    .embedding(i)
                    .map_or_else(String::new, |e| api::render_embedding(self, e))
            },
        );
        let eval_ns = api::elapsed_ns(t_eval);
        let eval_work = meter.work_done().saturating_sub(expand_work);
        eval_span.add_work(eval_work);
        eval_span.exit();

        let exhaustion = meter.exhaustion();
        let mut provenance = Provenance::new("xsketch-compiled");
        provenance.exhaustion = exhaustion;
        provenance.embeddings = acc.evaluated;
        provenance.work = meter.work_done();
        provenance.clamped = acc.clamped;
        provenance.memo_hit = Some(memo_hit);
        provenance.degraded = exhaustion.is_some() || acc.clamped > 0;

        let telemetry = api::flush_query_telemetry(
            meter.stats(),
            exhaustion,
            provenance.degraded,
            QueryTelemetry {
                expand_ns,
                eval_ns,
                total_ns: api::elapsed_ns(t_total),
                expand_work,
                eval_work,
                buckets_visited: meter.stats().buckets_visited,
            },
        );

        let explain = acc.contributions.map(|embeddings| Explain {
            expanded: expanded.len(),
            embeddings,
            assumptions: AssumptionCounts {
                forward_uniformity: meter.stats().uniformity_applications,
                conditioning: meter.stats().conditioning_applications,
            },
            final_clamp: acc.final_clamp,
            tier_path: Vec::new(),
        });

        EstimateReport {
            estimate: acc.total,
            provenance,
            telemetry,
            explain,
        }
    }

    /// Estimates the selectivity of one maximal twig embedding — the
    /// per-embedding TREEPARSE term of [`CompiledSynopsis::estimate_report`],
    /// without a budget. The §4 worked example evaluates a hand-built
    /// embedding through this; it is lowered into a one-embedding plan
    /// first.
    pub fn estimate_embedding(&self, emb: &Embedding) -> f64 {
        arena::with_scratch(|ar| {
            let plan = plan_of(self, emb, &mut ar.expand);
            plan.embedding(0).map_or(0.0, |e| {
                self.estimate_embedding_metered(e, &mut Meter::unlimited(), ar)
            })
        })
    }

    /// Estimates one plan embedding. Scratch lives in `ar`; the
    /// recursion's stack discipline leaves every lane at its entry
    /// length on return.
    fn estimate_embedding_metered(
        &self,
        emb: EmbeddingView<'_>,
        meter: &mut Meter,
        ar: &mut EvalArena,
    ) -> f64 {
        if emb.is_empty() {
            return 0.0;
        }
        emb.root_count() * self.eval_node(emb, 0, ar, meter)
    }

    /// Evaluates a single embedding of an expanded plan under its own
    /// meter — the unit of work the batch scheduler hands out when it
    /// splits a heavy unguarded query across workers (see
    /// [`crate::BatchServer::serve`]).
    pub(crate) fn eval_one_embedding(
        &self,
        expanded: &ExpandedQuery,
        i: usize,
        meter: &mut Meter,
    ) -> f64 {
        arena::with_scratch(|ar| {
            expanded
                .embedding(i)
                .map_or(0.0, |e| self.estimate_embedding_metered(e, meter, ar))
        })
    }

    /// Assembles the report for a work-split evaluation: per-embedding
    /// contributions were computed out-of-band (in parallel, each under
    /// an unlimited meter — splitting only happens for unguarded
    /// queries, where no meter can trip), and are folded here through
    /// the *same* sequential clamping loop (`api::sum_embeddings`, in
    /// embedding order) as the single-threaded path, so the total is
    /// bit-identical. `stats`/`work` are the merged per-worker meter
    /// tallies (saturating integer sums — order-insensitive).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn report_from_split(
        &self,
        query: &TwigQuery,
        opts: &EstimateOptions,
        expanded: &ExpandedQuery,
        memo_hit: bool,
        contribs: &[f64],
        stats: EvalStats,
        work: u64,
        timings: QueryTelemetry,
    ) -> EstimateReport {
        let acc = api::sum_embeddings(
            expanded.len(),
            opts.explain,
            |i| (contribs.get(i).copied().unwrap_or(0.0), None),
            || coarse_count_bound(self, query),
            |i| {
                expanded
                    .embedding(i)
                    .map_or_else(String::new, |e| api::render_embedding(self, e))
            },
        );
        let mut provenance = Provenance::new("xsketch-compiled");
        provenance.exhaustion = None;
        provenance.embeddings = acc.evaluated;
        provenance.work = work;
        provenance.clamped = acc.clamped;
        provenance.memo_hit = Some(memo_hit);
        provenance.degraded = acc.clamped > 0;
        let telemetry = api::flush_query_telemetry(stats, None, provenance.degraded, timings);
        let explain = acc.contributions.map(|embeddings| Explain {
            expanded: expanded.len(),
            embeddings,
            assumptions: AssumptionCounts {
                forward_uniformity: stats.uniformity_applications,
                conditioning: stats.conditioning_applications,
            },
            final_clamp: acc.final_clamp,
            tier_path: Vec::new(),
        });
        EstimateReport {
            estimate: acc.total,
            provenance,
            telemetry,
            explain,
        }
    }

    /// TREEPARSE node evaluation: the expected number of binding tuples
    /// for the subtree rooted at embedding node `i`, per element of its
    /// synopsis node, conditioned on the enumerated-value environment in
    /// `ar.env`. Value predicates route through the histogram's value
    /// dimensions when recorded (§3.2's extended `H^v(V, C)`): each
    /// matched predicate becomes a soft per-bucket weight on the joint
    /// support; unmatched predicates fall back to an independent
    /// fraction. The node's column rows are sliced once per frame and
    /// iterated in place. All
    /// per-frame scratch (value conditions, enumerated dimensions,
    /// conditioning pairs, child dimension slots, bucket masks) lives in
    /// the arena's typed lanes; the frame truncates them back on exit,
    /// so steady-state evaluation performs zero heap allocations.
    fn eval_node(
        &self,
        emb: EmbeddingView<'_>,
        i: usize,
        ar: &mut EvalArena,
        meter: &mut Meter,
    ) -> f64 {
        let Some(node) = emb.node(i) else {
            return 0.0;
        };
        let syn = node.syn;
        let children = emb.children_of(node);
        let Some(ch) = self.hist(syn) else {
            return 0.0;
        };

        // --- Predicate factors -------------------------------------------
        let mut factor = node.branch_fraction;
        let vc_start = ar.value_conds.len();
        if let Some((lo, hi)) = node.value_range {
            match ch.bucketed_value_dim(syn, ValueSource::OwnValue) {
                Some(di) => ar.value_conds.push((di, lo, hi)),
                None => factor *= self.cols.values.range_fraction(syn.index(), lo, hi),
            }
        }
        for bv in emb.values_of(node) {
            match ch.bucketed_value_dim(syn, ValueSource::ChildValue(bv.child)) {
                Some(di) => ar.value_conds.push((di, bv.range.0, bv.range.1)),
                None => factor *= bv.fallback,
            }
        }
        let vc_end = ar.value_conds.len();
        if factor == 0.0 {
            ar.value_conds.truncate(vc_start);
            return 0.0;
        }
        if children.is_empty() && vc_start == vc_end {
            ar.value_conds.truncate(vc_start);
            return factor;
        }

        // The slices this frame reads, each fetched once.
        let (dim_parent, dim_child, dim_kind) = (ch.dim_parent(), ch.dim_child(), ch.dim_kind());
        let frac = ch.frac();
        let values = (vc_start != vc_end).then(|| ValueRows::of(ch));
        let weight =
            |b: usize, vc: &[(usize, i64, i64)]| values.as_ref().map_or(1.0, |v| v.weight(b, vc));

        // --- TREEPARSE classification -------------------------------------
        let is_child_edge = |edge: (SynId, SynId)| -> bool {
            children
                .iter()
                .any(|&c| emb.syn_at(c).is_some_and(|cs| (syn, cs) == edge))
        };
        let needs_below = |edge: &(SynId, SynId)| -> bool {
            children
                .iter()
                .any(|&c| emb.needs_at(c).binary_search(edge).is_ok())
        };
        let dim_table = || dim_parent.iter().zip(dim_child).zip(dim_kind).enumerate();
        let ed_start = ar.enum_dims.len();
        for (d, ((&parent, &child), &kind)) in dim_table() {
            if kind == DimKind::Forward && parent == syn {
                let key = (parent, child);
                if is_child_edge(key) || needs_below(&key) {
                    ar.enum_dims.push(d);
                }
            }
        }
        let ed_end = ar.enum_dims.len();
        let cd_start = ar.cond.len();
        for (d, ((&parent, &child), &kind)) in dim_table() {
            if kind == DimKind::Backward {
                let key = (parent, child);
                if let Some(&(_, v)) = ar.env.iter().rev().find(|(k, _)| *k == key) {
                    ar.cond.push((d, v));
                }
            }
        }
        let cd_end = ar.cond.len();
        if cd_end > cd_start {
            // Correlation-Scope Independence fires. (Observational.)
            meter.note_conditioning();
        }
        let cdim_start = ar.child_dim.len();
        for &c in children {
            let child_syn = emb.syn_at(c);
            let pos = ar.enum_dims[ed_start..ed_end]
                .iter()
                .position(|&di| Some(dim_child[di]) == child_syn && dim_parent[di] == syn);
            ar.child_dim.push(pos);
        }

        let frame = Frame {
            ed: (ed_start, ed_end),
            cdim: cdim_start,
            dims: ch.dims(),
            dim_parent,
            dim_child,
            mean: ch.mean(),
        };

        // --- Evaluation ----------------------------------------------------
        // The joint support — `MdHistogram::visit_conditional_support_weighted`
        // over the lowered rows — is visited in place, bucket order
        // preserved, one term at a time through `visit_bucket`.
        let mut acc = 0.0;
        let nb = frac.len();
        if ed_start == ed_end && vc_start == vc_end {
            // Nothing to enumerate or weigh: one unit-mass term.
            self.visit_bucket(emb, i, frame, 1.0, None, ar, meter, &mut acc);
        } else if cd_start == cd_end {
            if ed_start == ed_end {
                // Scalar collapse: sum the weighted masses, emit once.
                let total: f64 = {
                    let vc = &ar.value_conds[vc_start..vc_end];
                    (0..nb)
                        .filter(|&b| frac[b] > 0.0)
                        .map(|b| frac[b] * weight(b, vc))
                        .sum()
                };
                self.visit_bucket(emb, i, frame, total, None, ar, meter, &mut acc);
            } else {
                for (b, &f) in frac.iter().enumerate() {
                    if f > 0.0 {
                        let w = f * weight(b, &ar.value_conds[vc_start..vc_end]);
                        if !self.visit_bucket(emb, i, frame, w, Some(b), ar, meter, &mut acc) {
                            break;
                        }
                    }
                }
            }
        } else {
            // Conditional branch: select compatible buckets with the
            // vectorized whole-column mask (pass one), then emit the
            // survivors in bucket order, renormalized by their mass (pass
            // two), with the nearest-bucket first-minimum fallback on
            // holes.
            let mask_start = ar.mask.len();
            ar.mask.resize(mask_start + nb, 0);
            {
                let (cond, mask) = (&ar.cond[cd_start..cd_end], &mut ar.mask[mask_start..]);
                ch.contains_mask(frac, cond, mask);
            }
            let any_selected = ar.mask[mask_start..].iter().any(|&m| m != 0);
            if any_selected {
                let den = kernel::masked_sum_seq(frac, &ar.mask[mask_start..]);
                if ed_start == ed_end {
                    let total: f64 = {
                        let vc = &ar.value_conds[vc_start..vc_end];
                        let mask = &ar.mask[mask_start..];
                        (0..nb)
                            .filter(|&b| mask.get(b).copied().unwrap_or(0) != 0)
                            .map(|b| frac[b] / den * weight(b, vc))
                            .sum()
                    };
                    self.visit_bucket(emb, i, frame, total, None, ar, meter, &mut acc);
                } else {
                    for (b, &f) in frac.iter().enumerate() {
                        if ar.mask.get(mask_start + b).copied().unwrap_or(0) == 0 {
                            continue;
                        }
                        let w = f / den * weight(b, &ar.value_conds[vc_start..vc_end]);
                        if !self.visit_bucket(emb, i, frame, w, Some(b), ar, meter, &mut acc) {
                            break;
                        }
                    }
                }
            } else {
                // Nearest-bucket fallback: vectorized distances, then a
                // sequential first-minimum scan (ties keep the earliest
                // bucket).
                let dist_start = ar.scratch.len();
                ar.scratch.resize(dist_start + nb, 0.0);
                {
                    let (cond, dist) = (&ar.cond[cd_start..cd_end], &mut ar.scratch[dist_start..]);
                    ch.distance_fill(cond, dist);
                }
                let mut best: Option<(f64, usize)> = None;
                for (b, &f) in frac.iter().enumerate() {
                    if f > 0.0 {
                        let d = ar.scratch[dist_start + b];
                        let better = match best {
                            None => true,
                            Some((bd, _)) => {
                                d.partial_cmp(&bd).unwrap_or(std::cmp::Ordering::Equal)
                                    == std::cmp::Ordering::Less
                            }
                        };
                        if better {
                            best = Some((d, b));
                        }
                    }
                }
                ar.scratch.truncate(dist_start);
                if let Some((_, b)) = best {
                    let den = frac[b];
                    let w = frac[b] / den * weight(b, &ar.value_conds[vc_start..vc_end]);
                    // A single-bucket selection: the scalar-collapse sum
                    // over one element equals the element itself.
                    let bucket = if ed_start == ed_end { None } else { Some(b) };
                    self.visit_bucket(emb, i, frame, w, bucket, ar, meter, &mut acc);
                }
                // An empty selection (no massy bucket at all) is an
                // empty support: emit nothing.
            }
            ar.mask.truncate(mask_start);
        }

        // --- Frame release -------------------------------------------------
        ar.child_dim.truncate(cdim_start);
        ar.cond.truncate(cd_start);
        ar.enum_dims.truncate(ed_start);
        ar.value_conds.truncate(vc_start);
        factor * acc
    }

    /// One support-list entry of `eval_node`'s frame: charge the meter,
    /// extend the environment with the bucket's enumerated means, recurse
    /// into the children, fold the term. Returns `false` when the meter
    /// trips, so the bucket loops stop at the first uncharged term.
    #[allow(clippy::too_many_arguments)]
    fn visit_bucket(
        &self,
        emb: EmbeddingView<'_>,
        i: usize,
        frame: Frame<'_>,
        mass: f64,
        bucket: Option<usize>,
        ar: &mut EvalArena,
        meter: &mut Meter,
        acc: &mut f64,
    ) -> bool {
        if !meter.proceed(1) {
            return false;
        }
        meter.note_bucket();
        if mass == 0.0 {
            return true;
        }
        let Some(node) = emb.node(i) else {
            return true;
        };
        let syn = node.syn;
        let env_base = ar.env.len();
        if let Some(b) = bucket {
            let row = b * frame.dims;
            for k in frame.ed.0..frame.ed.1 {
                let di = ar.enum_dims[k];
                let key = (frame.dim_parent[di], frame.dim_child[di]);
                ar.env.push((key, frame.mean[row + di]));
            }
        }
        let mut term = mass;
        for (j, &c) in emb.children_of(node).iter().enumerate() {
            let sub = self.eval_node(emb, c as usize, ar, meter);
            let dim = ar.child_dim.get(frame.cdim + j).copied().flatten();
            let mult = match (bucket, dim) {
                (Some(b), Some(slot)) => match ar.enum_dims.get(frame.ed.0 + slot) {
                    Some(&di) => frame.mean[b * frame.dims + di],
                    None => 0.0,
                },
                _ => match emb.syn_at(c) {
                    Some(child) => {
                        meter.note_uniformity();
                        self.avg_children(syn, child)
                    }
                    None => 0.0,
                },
            };
            term *= mult * sub;
            if term == 0.0 {
                break;
            }
        }
        ar.env.truncate(env_base);
        *acc += term;
        true
    }
}

/// One `eval_node` frame: its lane ranges inside the arena — the
/// enumerated dimensions (`enum_dims[ed.0..ed.1]`) and the start of its
/// per-child dimension slots in `child_dim` — and the histogram rows
/// `visit_bucket` reads, fetched once per frame. `Copy`, so
/// `visit_bucket` can carry it across recursive calls that re-borrow
/// the whole arena.
#[derive(Debug, Clone, Copy)]
struct Frame<'c> {
    ed: (usize, usize),
    cdim: usize,
    dims: usize,
    dim_parent: &'c [SynId],
    dim_child: &'c [SynId],
    mean: &'c [f64],
}

impl Estimator for CompiledSynopsis<'_> {
    fn estimate(&self, req: &EstimateRequest<'_>) -> EstimateReport {
        self.estimate_report(req.query, &req.options)
    }
}

impl std::fmt::Debug for CompiledSynopsis<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledSynopsis")
            .field("epoch", &self.epoch)
            .field("nodes", &self.cols.counts.len())
            .field("edges", &self.cols.edge_child.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coarse::coarse_synopsis;
    use crate::synopsis::ScopeDim;
    use xtwig_query::{parse_twig, selectivity};
    use xtwig_xml::{parse, DocumentBuilder};

    fn estimate(s: &Synopsis, text: &str) -> f64 {
        let q = parse_twig(text).unwrap();
        CompiledSynopsis::compile(s)
            .estimate_report(&q, &EstimateOptions::default())
            .estimate
    }

    fn fwd(parent: SynId, child: SynId) -> ScopeDim {
        ScopeDim {
            parent,
            child,
            kind: DimKind::Forward,
        }
    }

    fn bwd(parent: SynId, child: SynId) -> ScopeDim {
        ScopeDim {
            parent,
            child,
            kind: DimKind::Backward,
        }
    }

    fn value(parent: SynId, child: SynId) -> ScopeDim {
        ScopeDim {
            parent,
            child,
            kind: DimKind::Value,
        }
    }

    /// Figure 4's two documents: same single-path structure, twig
    /// selectivities 2000 vs 10100.
    fn figure4_doc(counts: &[(usize, usize)]) -> xtwig_xml::Document {
        let mut b = DocumentBuilder::new();
        b.open("R", None);
        for &(nb, nc) in counts {
            b.open("A", None);
            for _ in 0..nb {
                b.leaf("B", None);
            }
            for _ in 0..nc {
                b.leaf("C", None);
            }
            b.close();
        }
        b.close();
        b.finish()
    }

    #[test]
    fn figure4_exact_with_two_dim_histogram() {
        // With a 2-D histogram f_A(b, c) the estimate is exact — the
        // paper's motivating computation Σ |A|·f_A(b,c)·b·c.
        for (counts, truth) in [
            (vec![(10usize, 100usize), (100, 10)], 2000.0),
            (vec![(100, 100), (10, 10)], 10100.0),
        ] {
            let d = figure4_doc(&counts);
            let mut s = coarse_synopsis(&d);
            let a = s.nodes_with_tag("A")[0];
            let bnode = s.nodes_with_tag("B")[0];
            let cnode = s.nodes_with_tag("C")[0];
            s.set_edge_hist(&d, a, vec![fwd(a, bnode), fwd(a, cnode)], 4096);
            let text = "for $t0 in //A, $t1 in $t0/B, $t2 in $t0/C";
            let est = estimate(&s, text);
            assert!((est - truth).abs() < 1e-10, "estimate {est} != {truth}");
            assert_eq!(selectivity(&d, &parse_twig(text).unwrap()) as f64, truth);
        }
    }

    #[test]
    fn figure4_coarse_histograms_confuse_the_documents() {
        // Without the joint distribution, both documents get the same
        // (wrong) AVI-style estimate |A|·E[b]·E[c] = 2·55·55 = 6050.
        for counts in [
            vec![(10usize, 100usize), (100, 10)],
            vec![(100, 100), (10, 10)],
        ] {
            let d = figure4_doc(&counts);
            let mut s = coarse_synopsis(&d);
            let a = s.nodes_with_tag("A")[0];
            // Independent 1-D scopes: enumerate b and c separately.
            s.set_edge_hist(&d, a, vec![], 8);
            let est = estimate(&s, "for $t0 in //A, $t1 in $t0/B, $t2 in $t0/C");
            assert!((est - 6050.0).abs() < 1e-6, "estimate {est}");
        }
    }

    /// Builds the Example 3.1 / §4 worked-example document: three authors
    /// (p,n) = (2,1), (1,1), (1,1); papers with (k,y) = (2,1), (1,1),
    /// (1,1), (1,1); two books.
    fn worked_example_doc() -> xtwig_xml::Document {
        parse(concat!(
            "<bib>",
            "<author><name/>",
            "<paper><keyword/><keyword/><year>1999</year></paper>",
            "<paper><keyword/><year>2002</year></paper>",
            "</author>",
            "<author><name/>",
            "<paper><keyword/><year>2001</year></paper>",
            "<book/>",
            "</author>",
            "<author><name/>",
            "<paper><keyword/><year>2000</year></paper>",
            "<book/>",
            "</author>",
            "</bib>"
        ))
        .unwrap()
    }

    #[test]
    fn example_3_1_histogram_contents() {
        // The f_P(C_K, C_Y, C_P, C_N) table of Example 3.1.
        let d = worked_example_doc();
        let s = coarse_synopsis(&d);
        let paper = s.nodes_with_tag("paper")[0];
        let author = s.nodes_with_tag("author")[0];
        let keyword = s.nodes_with_tag("keyword")[0];
        let year = s.nodes_with_tag("year")[0];
        let name = s.nodes_with_tag("name")[0];
        let scope = vec![
            fwd(paper, keyword),
            fwd(paper, year),
            bwd(author, paper),
            bwd(author, name),
        ];
        let dist = s.edge_distribution(&d, paper, &scope);
        assert!((dist.fraction(&[2, 1, 2, 1]) - 0.25).abs() < 1e-12);
        assert!((dist.fraction(&[1, 1, 2, 1]) - 0.25).abs() < 1e-12);
        assert!((dist.fraction(&[1, 1, 1, 1]) - 0.50).abs() < 1e-12);
    }

    #[test]
    fn paper_worked_example_ten_thirds() {
        // §4's end-to-end example: the embedding A→{B,N,P}, P→{K,Y} with
        // H_A(P,N) and H_P(K,Y | P) evaluates to 10/3.
        let d = worked_example_doc();
        let mut s = coarse_synopsis(&d);
        let author = s.nodes_with_tag("author")[0];
        let paper = s.nodes_with_tag("paper")[0];
        let name = s.nodes_with_tag("name")[0];
        let keyword = s.nodes_with_tag("keyword")[0];
        let year = s.nodes_with_tag("year")[0];
        let book = s.nodes_with_tag("book")[0];
        s.set_edge_hist(
            &d,
            author,
            vec![fwd(author, paper), fwd(author, name)],
            4096,
        );
        s.set_edge_hist(
            &d,
            paper,
            vec![fwd(paper, keyword), fwd(paper, year), bwd(author, paper)],
            4096,
        );
        // Build the Fig. 6 embedding directly, rooted at A with |A| = 3.
        let mut emb = Embedding::with_root(author, 3.0);
        emb.push_node(0, book, None, 1.0); // B
        emb.push_node(0, name, None, 1.0); // N
        let p = emb.push_node(0, paper, None, 1.0); // P
        emb.push_node(p, keyword, None, 1.0); // K
        emb.push_node(p, year, None, 1.0); // Y
        let est = CompiledSynopsis::compile(&s).estimate_embedding(&emb);
        assert!(
            (est - 10.0 / 3.0).abs() < 1e-10,
            "worked example: {est} != 10/3"
        );
    }

    #[test]
    fn full_information_is_exact_on_the_worked_example() {
        // With backward counts linking P to both of A's enumerated dims,
        // the estimate for the A→{N,P}, P→{K,Y} twig (no book) is exact.
        let d = worked_example_doc();
        let mut s = coarse_synopsis(&d);
        let author = s.nodes_with_tag("author")[0];
        let paper = s.nodes_with_tag("paper")[0];
        let name = s.nodes_with_tag("name")[0];
        let keyword = s.nodes_with_tag("keyword")[0];
        let year = s.nodes_with_tag("year")[0];
        s.set_edge_hist(
            &d,
            author,
            vec![fwd(author, paper), fwd(author, name)],
            1 << 16,
        );
        s.set_edge_hist(
            &d,
            paper,
            vec![
                fwd(paper, keyword),
                fwd(paper, year),
                bwd(author, paper),
                bwd(author, name),
            ],
            1 << 16,
        );
        let text = "for $t0 in //author, $t1 in $t0/name, $t2 in $t0/paper, \
                    $t3 in $t2/keyword, $t4 in $t2/year";
        let est = estimate(&s, text);
        let truth = selectivity(&d, &parse_twig(text).unwrap()) as f64;
        assert!((est - truth).abs() < 1e-6, "{est} vs {truth}");
    }

    #[test]
    fn value_predicates_scale_estimates() {
        let d = worked_example_doc();
        let s = coarse_synopsis(&d);
        let est_all = estimate(&s, "for $t0 in //author, $t1 in $t0/paper, $t2 in $t1/year");
        let some = "for $t0 in //author, $t1 in $t0/paper, $t2 in $t1/year[. >= 2001]";
        let est_some = estimate(&s, some);
        assert!(est_some < est_all, "{est_some} !< {est_all}");
        assert!(est_some > 0.0);
        // Exact: 2 of 4 years are ≥ 2001.
        assert_eq!(selectivity(&d, &parse_twig(some).unwrap()), 2);
    }

    #[test]
    fn branch_predicate_scales_estimates() {
        let d = worked_example_doc();
        let s = coarse_synopsis(&d);
        let text = "for $t0 in //author[book], $t1 in $t0/paper";
        let est = estimate(&s, text);
        // 2 of 3 authors have a book; they hold 2 papers total. The
        // uniformity assumption spreads papers evenly: 3 × 2/3 × 4/3 ≈ 2.67.
        let truth = selectivity(&d, &parse_twig(text).unwrap()) as f64;
        assert_eq!(truth, 2.0);
        assert!((est - 8.0 / 3.0).abs() < 1e-9, "{est}");
    }

    #[test]
    fn leaf_only_queries_count_elements() {
        let d = worked_example_doc();
        let s = coarse_synopsis(&d);
        let est = estimate(&s, "for $t0 in //keyword");
        assert!((est - 5.0).abs() < 1e-9, "{est}");
    }

    /// The §1 movie scenario: type=1 movies have 8 actors, type=2 have 1.
    fn movie_doc() -> xtwig_xml::Document {
        let mut b = DocumentBuilder::new();
        b.open("ms", None);
        for i in 0..40 {
            b.open("movie", None);
            let t = if i % 2 == 0 { 1 } else { 2 };
            b.leaf("type", Some(t));
            for _ in 0..(if t == 1 { 8 } else { 1 }) {
                b.leaf("actor", None);
            }
            b.close();
        }
        b.close();
        b.finish()
    }

    #[test]
    fn joint_value_summary_captures_genre_correlation() {
        // A 1-D value histogram + independence gets the per-type actor
        // join badly wrong; a joint (type-value × actor-count) summary is
        // near-exact.
        let d = movie_doc();
        let text = "for $t0 in //movie[type = 1], $t1 in $t0/actor";
        let truth = selectivity(&d, &parse_twig(text).unwrap()) as f64; // 20 movies × 8
        assert_eq!(truth, 160.0);

        let plain = coarse_synopsis(&d);
        let plain_est = estimate(&plain, text);
        // Independence: 40 movies × 0.5 (type fraction) × 4.5 avg = 90.
        assert!((plain_est - 90.0).abs() < 1.0, "{plain_est}");

        let mut joint = plain.clone();
        let movie = joint.nodes_with_tag("movie")[0];
        let typ = joint.nodes_with_tag("type")[0];
        let actor = joint.nodes_with_tag("actor")[0];
        let mut scope = joint.edge_hist(movie).scope.clone();
        if joint
            .edge_hist(movie)
            .dim_of(movie, actor, DimKind::Forward)
            .is_none()
        {
            scope.push(fwd(movie, actor));
        }
        scope.push(value(movie, typ));
        joint.set_edge_hist(&d, movie, scope, 2048);
        let joint_est = estimate(&joint, text);
        assert!(
            (joint_est - truth).abs() < 1.0,
            "joint estimate {joint_est} vs truth {truth}"
        );
    }

    #[test]
    fn own_value_joint_summary_still_works() {
        // Elements whose own value correlates with their child count.
        let mut b = DocumentBuilder::new();
        b.open("r", None);
        for i in 0..30 {
            let v = if i % 3 == 0 { 10 } else { 20 };
            b.open("x", Some(v));
            for _ in 0..(if v == 10 { 5 } else { 0 }) {
                b.leaf("y", None);
            }
            b.close();
        }
        b.close();
        let d = b.finish();
        // Note: x elements carry values AND children in this synthetic
        // document (values normally live on leaves; the model allows both).
        let text = "for $t0 in //x[. = 10], $t1 in $t0/y";
        let truth = selectivity(&d, &parse_twig(text).unwrap()) as f64;
        assert_eq!(truth, 50.0);
        let mut s = coarse_synopsis(&d);
        let x = s.nodes_with_tag("x")[0];
        let y = s.nodes_with_tag("y")[0];
        let mut scope = s.edge_hist(x).scope.clone();
        if s.edge_hist(x).dim_of(x, y, DimKind::Forward).is_none() {
            scope.push(fwd(x, y));
        }
        scope.push(value(x, x));
        s.set_edge_hist(&d, x, scope, 2048);
        let est = estimate(&s, text);
        assert!((est - truth).abs() < 1.0, "{est} vs {truth}");
    }

    #[test]
    fn needs_propagate_upward() {
        let d = worked_example_doc();
        let mut s = coarse_synopsis(&d);
        let author = s.nodes_with_tag("author")[0];
        let paper = s.nodes_with_tag("paper")[0];
        let keyword = s.nodes_with_tag("keyword")[0];
        s.set_edge_hist(
            &d,
            paper,
            vec![fwd(paper, keyword), bwd(author, paper)],
            4096,
        );
        let q = parse_twig("for $t0 in //author, $t1 in $t0/paper, $t2 in $t1/keyword").unwrap();
        let plan = CompiledSynopsis::compile(&s).expand_metered(
            &q,
            &EstimateOptions::default(),
            &mut Meter::unlimited(),
        );
        assert_eq!(plan.len(), 1);
        // The root (bib) must know that (author→paper) is needed below.
        assert!(plan
            .embedding(0)
            .unwrap()
            .needs(0)
            .contains(&(author, paper)));
    }

    /// Departments with a grade child whose value drives both team size
    /// and the per-member report count — exercises a value dimension at
    /// the top node together with backward conditioning below it.
    fn dept_doc() -> xtwig_xml::Document {
        let mut b = DocumentBuilder::new();
        b.open("org", None);
        for i in 0..24 {
            b.open("dept", None);
            let grade = if i % 3 == 0 { 1 } else { 2 };
            b.leaf("grade", Some(grade));
            let members = if grade == 1 { 6 } else { 2 };
            for _ in 0..members {
                b.open("member", None);
                let reports = if grade == 1 { 3 } else { 1 };
                for _ in 0..reports {
                    b.leaf("report", None);
                }
                b.close();
            }
            b.close();
        }
        b.close();
        b.finish()
    }

    #[test]
    fn value_dim_with_backward_conditioning_is_near_exact() {
        let d = dept_doc();
        let mut s = coarse_synopsis(&d);
        let dept = s.nodes_with_tag("dept")[0];
        let grade = s.nodes_with_tag("grade")[0];
        let member = s.nodes_with_tag("member")[0];
        let report = s.nodes_with_tag("report")[0];
        s.set_edge_hist(
            &d,
            dept,
            vec![fwd(dept, member), value(dept, grade)],
            1 << 14,
        );
        s.set_edge_hist(
            &d,
            member,
            vec![fwd(member, report), bwd(dept, member)],
            1 << 14,
        );
        let text = "for $t0 in //dept[grade = 1], $t1 in $t0/member, $t2 in $t1/report";
        let truth = selectivity(&d, &parse_twig(text).unwrap()) as f64; // 8 × 6 × 3
        assert_eq!(truth, 144.0);
        let est = estimate(&s, text);
        assert!(
            (est - truth).abs() < 1.0,
            "value dim + backward conditioning: {est} vs {truth}"
        );
        // Without the value dimension, independence blurs the two grades.
        let mut blurred = coarse_synopsis(&d);
        blurred.set_edge_hist(&d, dept, vec![fwd(dept, member)], 1 << 14);
        let blurred_est = estimate(&blurred, text);
        assert!(
            (blurred_est - truth).abs() > 20.0,
            "independence should miss: {blurred_est} vs {truth}"
        );
    }

    #[test]
    fn value_dim_on_leaf_node_acts_as_fraction() {
        // A value predicate on a node with no twig children still routes
        // through the value dimension (weighted mass, no counts).
        let d = dept_doc();
        let mut s = coarse_synopsis(&d);
        let grade = s.nodes_with_tag("grade")[0];
        s.set_edge_hist(&d, grade, vec![value(grade, grade)], 1 << 12);
        let text = "for $t0 in //grade[. = 1]";
        let truth = selectivity(&d, &parse_twig(text).unwrap()) as f64; // 8
        let est = estimate(&s, text);
        assert!((est - truth).abs() < 1e-6, "{est} vs {truth}");
    }

    #[test]
    fn unmatched_value_preds_fall_back_to_summaries() {
        let d = dept_doc();
        let s = coarse_synopsis(&d); // no value dims anywhere
        let est = estimate(&s, "for $t0 in //dept[grade = 1], $t1 in $t0/member");
        // Fallback = fraction × average members: 24 × (1/3) × (8·6+16·2)/24.
        let expected = 24.0 * (1.0 / 3.0) * ((8.0 * 6.0 + 16.0 * 2.0) / 24.0);
        assert!((est - expected).abs() < 1.5, "{est} vs expected {expected}");
    }

    #[test]
    fn expansion_memo_hits_on_repeat() {
        let d = worked_example_doc();
        let s = coarse_synopsis(&d);
        let cs = CompiledSynopsis::compile(&s);
        let opts = EstimateOptions::default();
        let q = parse_twig("for $t0 in //author, $t1 in $t0/paper").unwrap();
        let a = cs.estimate_report(&q, &opts).estimate;
        let b = cs.estimate_report(&q, &opts).estimate;
        assert_eq!(a.to_bits(), b.to_bits());
        let (hits, misses) = cs.expansion_memo_stats();
        assert_eq!(misses, 1);
        assert_eq!(hits, 1);
    }

    #[test]
    fn epochs_are_unique_and_monotone() {
        let d = worked_example_doc();
        let s = coarse_synopsis(&d);
        let a = CompiledSynopsis::compile(&s);
        let b = CompiledSynopsis::compile(&s);
        assert!(b.epoch() > a.epoch());
    }

    #[test]
    fn precomputed_marginals_match_histogram() {
        let d = worked_example_doc();
        let s = coarse_synopsis(&d);
        let cs = CompiledSynopsis::compile(&s);
        for n in s.node_ids() {
            let h = s.edge_hist(n);
            let ch = cs.hist(n).unwrap();
            assert_eq!(ch.dims(), h.hist.dims());
            assert!((ch.total_mass() - h.hist.total_mass()).abs() < 1e-15);
            for dim in 0..h.hist.dims() {
                let expect = h.hist.expectation_product(&[dim]);
                let got = ch.dim_expectation(dim).unwrap();
                assert!(
                    (expect - got).abs() < 1e-12,
                    "node {n} dim {dim}: {expect} vs {got}"
                );
            }
        }
    }

    /// Serving from a snapshot load reads only the columns: a P+V-style
    /// workload (value predicates that fall back to value summaries,
    /// existence and value branch predicates, `//` steps) under default
    /// options, explain, and a tight work limit answers bit-identically
    /// to the compile path without ever building the source synopsis.
    #[test]
    fn loaded_synopsis_serves_without_building_its_source() {
        use crate::construct::{xbuild, BuildOptions, TruthSource};
        use crate::io::v3::{load_compiled_snapshot, save_synopsis_v3};
        let d = worked_example_doc();
        let coarse = coarse_synopsis(&d);
        let (built, _) = xbuild(
            &d,
            TruthSource::Exact,
            &BuildOptions {
                budget_bytes: coarse.size_bytes() + 400,
                max_rounds: 20,
                workload_with_values: true,
                ..Default::default()
            },
        );
        let queries = [
            "for $t0 in //author, $t1 in $t0/paper, $t2 in $t1/year[. >= 2001]",
            "for $t0 in //author[book], $t1 in $t0/paper",
            "for $t0 in //paper[year > 2000], $t1 in $t0/keyword",
            "for $t0 in /bib/author[paper/year >= 2001], $t1 in $t0/name",
            "for $t0 in //bib//keyword",
            "for $t0 in //author, $t1 in $t0//year[. < 2001]",
        ];
        let plain = EstimateOptions::default();
        let options = [
            plain,
            plain.to_builder().explain(true).build(),
            plain.to_builder().work_limit(4).build(),
        ];
        for s in [&coarse, &built] {
            let owned = CompiledSynopsis::compile(s);
            let loaded = load_compiled_snapshot(&save_synopsis_v3(s)).unwrap();
            let mut fallbacks = 0;
            for text in queries {
                let q = parse_twig(text).unwrap();
                for opts in &options {
                    let a = owned.estimate_report(&q, opts);
                    let b = loaded.estimate_report(&q, opts);
                    assert_eq!(a.estimate.to_bits(), b.estimate.to_bits(), "{text}");
                    assert_eq!(a.provenance.exhaustion, b.provenance.exhaustion, "{text}");
                    assert_eq!(a.provenance.embeddings, b.provenance.embeddings, "{text}");
                    let render = |r: &EstimateReport| {
                        r.explain.as_ref().map(|e| {
                            e.embeddings
                                .iter()
                                .map(|c| (c.rendered.clone(), c.contribution.to_bits()))
                                .collect::<Vec<_>>()
                        })
                    };
                    assert_eq!(render(&a), render(&b), "{text}");
                }
                assert_eq!(
                    coarse_count_bound(&owned, &q).to_bits(),
                    coarse_count_bound(&loaded, &q).to_bits(),
                    "{text}"
                );
                if q.has_value_predicate() {
                    fallbacks += 1;
                }
            }
            assert!(fallbacks >= 3);
            match &loaded.source {
                SourceRef::Rebuilt(cell) => {
                    assert!(cell.get().is_none(), "serving built the source")
                }
                SourceRef::Borrowed(_) => panic!("a snapshot load borrows no synopsis"),
            }
            // A cold consumer that asks for the graph gets a rebuild
            // equal to the original, byte for byte in v2 form.
            assert_eq!(
                crate::io::save_synopsis(loaded.source()),
                crate::io::save_synopsis(s)
            );
        }
    }

    #[test]
    fn exhausted_expansion_is_not_cached() {
        let d = worked_example_doc();
        let s = coarse_synopsis(&d);
        let cs = CompiledSynopsis::compile(&s);
        let opts = EstimateOptions {
            work_limit: 1,
            ..Default::default()
        };
        let q = parse_twig("for $t0 in //author, $t1 in $t0/paper, $t2 in $t1/keyword").unwrap();
        let b = cs.estimate_report(&q, &opts);
        assert!(b.provenance.exhaustion.is_some());
        // The exhausted (partial) expansion must not poison later full
        // runs: the full estimate equals a fresh compilation's, whose
        // memo never saw the partial expansion.
        let full = cs.estimate_report(&q, &EstimateOptions::default());
        assert!(full.provenance.exhaustion.is_none());
        assert_eq!(full.provenance.memo_hit, Some(false));
        let fresh = CompiledSynopsis::compile(&s).estimate_report(&q, &EstimateOptions::default());
        assert_eq!(full.estimate.to_bits(), fresh.estimate.to_bits());
    }
}
