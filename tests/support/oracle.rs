//! The interpreted TREEPARSE evaluator (§4), kept as an independent
//! reference for the production evaluator in `xtwig_core::compiled`.
//!
//! It walks the pointer-rich [`Synopsis`] directly — `EdgeHistogram`
//! scopes, `MdHistogram` buckets through the histogram's own support
//! visitor, `Synopsis::avg_children` — and owns its `needs` pre-pass and
//! its clamping loop, so a defect in the compiled lowering cannot hide
//! by being shared. It charges the caller's [`Meter`] at exactly the
//! points the compiled evaluator does, which is what lets the degraded
//! (budget-exhausted) suites compare partial sums bit for bit.
//!
//! For each embedding node `t_i` bound to synopsis node `n_i` with edge
//! histogram `H_i`, the evaluator classifies the information available:
//!
//! * `E_i` — forward dimensions of `H_i` that must be **enumerated**:
//!   those covering a twig child edge of `t_i`, plus those some descendant
//!   conditions on through a backward dimension (computed by the `needs`
//!   pre-pass). Dimensions of `H_i` outside `E_i` are marginalized by the
//!   histogram operations.
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
//! ancestor chain, which is the context a depth-first product evaluation
//! can condition on.
//!
//! The oracle allocates freely (fresh per-frame buffers, a fresh `needs`
//! table per embedding); zero allocation is a property of the compiled
//! path, checked in `tests/alloc_zero.rs`.

use xtwig::core::estimate::{
    coarse_count_bound, enumerate_embeddings_metered, Embedding, EstimateOptions, EstimateReport,
    Meter, Provenance, QueryTelemetry,
};
use xtwig::core::synopsis::{DimKind, SynId, Synopsis, ValueSource};
use xtwig::histogram::Bucket;
use xtwig::query::TwigQuery;

/// An edge key `(parent, child)`.
type Edge = (SynId, SynId);

/// Estimates `query` over `s` the interpreted way: expansion and
/// enumeration under one meter built from `opts`, then the sum over
/// maximal embeddings with the boundary clamping rules. Provenance
/// carries the facts the compiled report is compared on (source
/// `"oracle"`); telemetry is left zero and there is no explain.
pub fn estimate(s: &Synopsis, query: &TwigQuery, opts: &EstimateOptions) -> EstimateReport {
    let mut meter = Meter::from_options(opts);
    let embs = enumerate_embeddings_metered(s, query, opts, &mut meter);

    // Finite non-negative contributions add; NaN/negative drop (counted
    // as clamped); `+∞` adds the coarse bound; a non-finite total is
    // replaced wholesale by the coarse bound; the loop stops as soon as
    // the meter is exhausted.
    let mut total = 0.0f64;
    let mut clamped = 0usize;
    let mut evaluated = 0usize;
    for emb in &embs {
        let v = estimate_embedding_metered(s, emb, &mut meter);
        evaluated += 1;
        if v.is_finite() && v >= 0.0 {
            total += v;
        } else {
            clamped += 1;
            if v == f64::INFINITY {
                total += coarse_count_bound(s, query);
            }
        }
        if meter.exhaustion().is_some() {
            break;
        }
    }
    if !total.is_finite() {
        clamped += 1;
        total = coarse_count_bound(s, query);
    }

    let exhaustion = meter.exhaustion();
    let mut provenance = Provenance::new("oracle");
    provenance.exhaustion = exhaustion;
    provenance.embeddings = evaluated;
    provenance.work = meter.work_done();
    provenance.clamped = clamped;
    provenance.degraded = exhaustion.is_some() || clamped > 0;
    EstimateReport {
        estimate: total.clamp(0.0, f64::MAX),
        provenance,
        telemetry: QueryTelemetry::default(),
        explain: None,
    }
}

/// Estimates one maximal twig embedding, charging `meter`. On
/// exhaustion the support-term loops stop early, yielding the (finite)
/// partial accumulation instead of the full TREEPARSE sum.
fn estimate_embedding_metered(s: &Synopsis, emb: &Embedding, meter: &mut Meter) -> f64 {
    if emb.nodes.is_empty() {
        return 0.0;
    }
    let needs = compute_needs(s, emb);
    let mut env = Vec::new();
    emb.root_count * eval_node(s, emb, &needs, 0, &mut env, meter)
}

/// `needs[i]`: edges that appear as backward dimensions of histograms in
/// the subtree rooted at `i` (including `i` itself) — ancestors must
/// enumerate these when they can, so descendants can condition on them.
/// Sets are sorted, deduplicated `Vec`s, queried by binary search.
fn compute_needs(s: &Synopsis, emb: &Embedding) -> Vec<Vec<Edge>> {
    let mut needs: Vec<Vec<Edge>> = vec![Vec::new(); emb.nodes.len()];
    // Children always follow parents in index order, so a reverse sweep
    // sees every child before its parent.
    for (i, node) in emb.nodes.iter().enumerate().rev() {
        let hist = s.edge_hist(node.syn);
        let mut set: Vec<Edge> = hist
            .scope
            .iter()
            .filter(|d| d.kind == DimKind::Backward)
            .map(|d| d.edge_key())
            .collect();
        for &c in &node.children {
            if let Some(below) = needs.get(c) {
                set.extend(below.iter().copied());
            }
        }
        set.sort_unstable();
        set.dedup();
        needs[i] = set;
    }
    needs
}

/// Expected number of binding tuples for the subtree rooted at embedding
/// node `i`, per element of its synopsis node, conditioned on the
/// enumerated-value environment `env`.
fn eval_node(
    s: &Synopsis,
    emb: &Embedding,
    needs: &[Vec<Edge>],
    i: usize,
    env: &mut Vec<(Edge, f64)>,
    meter: &mut Meter,
) -> f64 {
    let Some(node) = emb.nodes.get(i) else {
        return 0.0;
    };
    let syn = node.syn;
    let hist = s.edge_hist(syn);

    // --- Predicate factors -------------------------------------------
    // Value predicates route through the histogram's value dimensions
    // when recorded (§3.2's extended `H^v(V, C)`): each matched predicate
    // becomes a soft per-bucket weight on the joint support. Unmatched
    // predicates fall back to an independent fraction.
    let mut factor = node.branch_fraction;
    let mut value_conds: Vec<(usize, i64, i64)> = Vec::new();
    if let Some((lo, hi)) = node.value_range {
        match hist.value_dim_of(syn, ValueSource::OwnValue) {
            Some(di) if hist.value_buckets[di].is_some() => value_conds.push((di, lo, hi)),
            _ => factor *= s.value_fraction(syn, lo, hi),
        }
    }
    for bv in &node.branch_values {
        match hist.value_dim_of(syn, ValueSource::ChildValue(bv.child)) {
            Some(di) if hist.value_buckets.get(di).is_some_and(Option::is_some) => {
                value_conds.push((di, bv.range.0, bv.range.1));
            }
            _ => factor *= bv.fallback,
        }
    }
    if factor == 0.0 {
        return 0.0;
    }
    if node.children.is_empty() && value_conds.is_empty() {
        return factor;
    }

    // --- TREEPARSE classification -------------------------------------
    let is_child_edge = |edge: Edge| -> bool {
        node.children
            .iter()
            .any(|&c| emb.nodes.get(c).is_some_and(|cn| (syn, cn.syn) == edge))
    };
    let needs_below = |edge: &Edge| -> bool {
        node.children.iter().any(|&c| {
            needs
                .get(c)
                .is_some_and(|set| set.binary_search(edge).is_ok())
        })
    };
    // E_i: forward dims to enumerate jointly.
    let mut enum_dims: Vec<usize> = Vec::new();
    for (di, d) in hist.scope.iter().enumerate() {
        if d.kind == DimKind::Forward && d.parent == syn {
            let key = d.edge_key();
            if is_child_edge(key) || needs_below(&key) {
                enum_dims.push(di);
            }
        }
    }
    // D_i: backward dims with an enumerated ancestor value in `env`
    // (latest binding wins, handling repeated synopsis nodes on a chain).
    let mut cond: Vec<(usize, f64)> = Vec::new();
    for (di, d) in hist.scope.iter().enumerate() {
        if d.kind == DimKind::Backward {
            let key = d.edge_key();
            if let Some(&(_, v)) = env.iter().rev().find(|(k, _)| *k == key) {
                cond.push((di, v));
            }
        }
    }
    if !cond.is_empty() {
        // Correlation-Scope Independence fires. (Observational.)
        meter.note_conditioning();
    }

    // Map each child to the enumerated dim covering its edge, if any.
    let child_dim: Vec<Option<usize>> = node
        .children
        .iter()
        .map(|&c| {
            let child_syn = emb.nodes.get(c).map(|cn| cn.syn);
            enum_dims.iter().position(|&di| {
                child_syn.is_some_and(|cs| {
                    hist.scope
                        .get(di)
                        .is_some_and(|d| d.edge_key() == (syn, cs))
                })
            })
        })
        .collect();

    // --- Evaluation ----------------------------------------------------
    // Per-bucket weight from the matched value predicates: the share of
    // the bucket's elements whose value dimension(s) survive the ranges.
    let weight = |b: &Bucket| -> f64 {
        let mut w = 1.0;
        for &(di, lo, hi) in &value_conds {
            let Some(Some(vb)) = hist.value_buckets.get(di) else {
                continue;
            };
            let (Some(&blo), Some(&bhi)) = (b.lo.get(di), b.hi.get(di)) else {
                continue;
            };
            w *= vb.overlap_share(blo, bhi, lo, hi);
            if w == 0.0 {
                break;
            }
        }
        w
    };
    // The joint support is consumed through the histogram's own visitor;
    // the enumerated value of `enum_dims[j]` is the bucket's mean there.
    let mut acc = 0.0;
    let mut body = |mass: f64, bucket: Option<&Bucket>| -> bool {
        if !meter.proceed(1) {
            return false;
        }
        meter.note_bucket();
        if mass == 0.0 {
            return true;
        }
        let env_base = env.len();
        if let Some(b) = bucket {
            for &di in &enum_dims {
                if let (Some(dim), Some(&val)) = (hist.scope.get(di), b.mean.get(di)) {
                    env.push((dim.edge_key(), val));
                }
            }
        }
        let mut term = mass;
        for (&c, dim) in node.children.iter().zip(child_dim.iter()) {
            let sub = eval_node(s, emb, needs, c, env, meter);
            let enumerated = match (bucket, dim) {
                (Some(b), Some(j)) => enum_dims.get(*j).and_then(|&di| b.mean.get(di)).copied(),
                _ => None,
            };
            let mult = match enumerated {
                Some(v) => v,
                // U_i: Forward Uniformity over the exact edge average.
                None => match emb.nodes.get(c) {
                    Some(child) => {
                        meter.note_uniformity();
                        s.avg_children(syn, child.syn)
                    }
                    None => 0.0,
                },
            };
            term *= mult * sub;
            if term == 0.0 {
                break;
            }
        }
        env.truncate(env_base);
        acc += term;
        true
    };
    if enum_dims.is_empty() && value_conds.is_empty() {
        body(1.0, None);
    } else {
        hist.hist
            .visit_conditional_support_weighted(&cond, &enum_dims, &weight, &mut body);
    }
    factor * acc
}
