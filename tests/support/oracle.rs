//! The interpreted estimator (§4), kept as an independent reference for
//! the production path in `xtwig_core::compiled`.
//!
//! It walks the pointer-rich [`Synopsis`] directly — `EdgeHistogram`
//! scopes, `MdHistogram` buckets through the histogram's own support
//! visitor, `Synopsis::avg_children` — and owns its embedding
//! enumeration, chain expansion, branch fractions, `needs` pre-pass and
//! clamping loop, so a defect in the compiled lowering or the flat plan
//! cannot hide by being shared. The enumerator is the recursive-clone
//! one: every alternative clones the partial embedding, every chain
//! extension clones the chain. It charges the caller's [`Meter`] at
//! exactly the points the production path does, which is what lets the
//! degraded (budget-exhausted) suites compare partial sums bit for bit.
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
//! table per embedding); bounded allocation is a property of the
//! compiled path, checked in `tests/alloc_zero.rs`.

use xtwig::core::estimate::expand::BranchValue;
use xtwig::core::estimate::{
    Embedding, EstimateOptions, EstimateReport, Meter, Provenance, QueryTelemetry,
};
use xtwig::core::synopsis::{DimKind, SynId, Synopsis, ValueSource};
use xtwig::histogram::Bucket;
use xtwig::query::{Axis, PathExpr, Pred, Step, TwigNodeRef, TwigQuery};

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

/// The label-count bound over the synopsis graph: the product over twig
/// nodes of [`Synopsis::tag_total`] of the node's terminal tag, 0.0 when
/// a tag does not occur, saturating at `f64::MAX`.
fn coarse_count_bound(s: &Synopsis, query: &TwigQuery) -> f64 {
    let mut bound = 1.0f64;
    for t in query.node_refs() {
        let Some(step) = query.path(t).steps.last() else {
            continue;
        };
        let total = s.tag_total(&step.label);
        if total <= 0.0 {
            return 0.0;
        }
        bound = (bound * total).min(f64::MAX);
    }
    bound
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
pub fn compute_needs(s: &Synopsis, emb: &Embedding) -> Vec<Vec<Edge>> {
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

// ---------------------------------------------------------------------
// The reference enumerator and chain expansion
// ---------------------------------------------------------------------

/// One node of an expanded chain with its resolved step predicates.
#[derive(Debug, Clone, PartialEq)]
struct ChainLink {
    syn: SynId,
    value_range: Option<(i64, i64)>,
    pred_fraction: f64,
    branch_values: Vec<BranchValue>,
}

impl ChainLink {
    fn plain(syn: SynId) -> ChainLink {
        ChainLink {
            syn,
            value_range: None,
            pred_fraction: 1.0,
            branch_values: Vec::new(),
        }
    }
}

/// Enumerates the maximal twig embeddings of `query` over `s`, charging
/// `meter`; on exhaustion the embeddings completed so far. Truncated at
/// `opts.max_embeddings`.
pub fn enumerate_embeddings_metered(
    s: &Synopsis,
    query: &TwigQuery,
    opts: &EstimateOptions,
    meter: &mut Meter,
) -> Vec<Embedding> {
    let root_chains = expand_path_absolute(s, query.path(query.root()), opts, meter);
    let mut out: Vec<Embedding> = Vec::new();
    for chain in &root_chains {
        if meter.exhaustion().is_some() {
            break;
        }
        let Some(head) = chain.first() else {
            continue;
        };
        // The first link is the synopsis root, standing for the single
        // document root element.
        let mut emb = Embedding::with_root(head.syn, 1.0);
        emb.nodes[0].value_range = head.value_range;
        emb.nodes[0].branch_fraction = head.pred_fraction;
        emb.nodes[0].branch_values = head.branch_values.clone();
        let anchor = push_chain(&mut emb, 0, &chain[1..]);
        let pending: Vec<(TwigNodeRef, usize)> = query
            .children(query.root())
            .iter()
            .map(|&c| (c, anchor))
            .collect();
        attach(s, query, opts, emb, &pending, &mut out, meter);
        if out.len() >= opts.max_embeddings {
            out.truncate(opts.max_embeddings);
            break;
        }
    }
    out
}

/// Appends `chain` under `anchor`; returns the index of its last node.
fn push_chain(emb: &mut Embedding, anchor: usize, chain: &[ChainLink]) -> usize {
    let mut at = anchor;
    for link in chain {
        at = emb.push_node(at, link.syn, link.value_range, link.pred_fraction);
        emb.nodes[at].branch_values = link.branch_values.clone();
    }
    at
}

/// Embeds the twig nodes of `pending` in order, cloning the partial
/// embedding once per chain the next one expands to; a completed
/// embedding goes to `out`.
fn attach(
    s: &Synopsis,
    query: &TwigQuery,
    opts: &EstimateOptions,
    emb: Embedding,
    pending: &[(TwigNodeRef, usize)],
    out: &mut Vec<Embedding>,
    meter: &mut Meter,
) {
    if out.len() >= opts.max_embeddings || !meter.proceed(1) {
        return;
    }
    let Some(&(t, anchor)) = pending.first() else {
        out.push(emb);
        return;
    };
    let Some(anchor_syn) = emb.nodes.get(anchor).map(|n| n.syn) else {
        return;
    };
    let chains = expand_path_from(s, anchor_syn, query.path(t), opts, meter);
    for chain in &chains {
        if meter.exhaustion().is_some() {
            return;
        }
        let mut e = emb.clone();
        let end = push_chain(&mut e, anchor, chain);
        // `t`'s own children go ahead of the remaining siblings.
        let mut next: Vec<(TwigNodeRef, usize)> =
            query.children(t).iter().map(|&c| (c, end)).collect();
        next.extend_from_slice(&pending[1..]);
        attach(s, query, opts, e, &next, out, meter);
    }
}

/// Expands an absolute path: every chain starts at the synopsis root.
fn expand_path_absolute(
    s: &Synopsis,
    path: &PathExpr,
    opts: &EstimateOptions,
    meter: &mut Meter,
) -> Vec<Vec<ChainLink>> {
    let root = s.root();
    let Some(first) = path.steps.first() else {
        return Vec::new();
    };
    let mut heads: Vec<Vec<ChainLink>> = Vec::new();
    if s.tag(root) == first.label {
        heads.push(vec![resolve_link(s, root, first, opts)]);
    }
    if first.axis == Axis::Descendant {
        for mut tail in descendant_paths(s, root, &first.label, opts, meter) {
            let Some(last) = tail.pop() else { continue };
            let mut chain = vec![ChainLink::plain(root)];
            chain.extend(tail.into_iter().map(ChainLink::plain));
            chain.push(resolve_link(s, last, first, opts));
            heads.push(chain);
        }
    }
    extend_chains(s, heads, &path.steps[1..], opts, meter)
}

/// Expands a relative path from `from`; chains exclude `from`.
fn expand_path_from(
    s: &Synopsis,
    from: SynId,
    path: &PathExpr,
    opts: &EstimateOptions,
    meter: &mut Meter,
) -> Vec<Vec<ChainLink>> {
    let Some(first) = path.steps.first() else {
        return Vec::new();
    };
    let mut heads: Vec<Vec<ChainLink>> = Vec::new();
    match first.axis {
        Axis::Child => {
            for &v in s.children_of(from) {
                if s.tag(v) == first.label {
                    heads.push(vec![resolve_link(s, v, first, opts)]);
                }
            }
        }
        Axis::Descendant => {
            for mut tail in descendant_paths(s, from, &first.label, opts, meter) {
                let Some(last) = tail.pop() else { continue };
                let mut chain: Vec<ChainLink> = tail.into_iter().map(ChainLink::plain).collect();
                chain.push(resolve_link(s, last, first, opts));
                heads.push(chain);
            }
        }
    }
    extend_chains(s, heads, &path.steps[1..], opts, meter)
}

/// Resolves a step's predicates at synopsis node `v`.
fn resolve_link(s: &Synopsis, v: SynId, step: &Step, opts: &EstimateOptions) -> ChainLink {
    let mut value_range: Option<(i64, i64)> = None;
    let mut pred_fraction = 1.0;
    let mut branch_values = Vec::new();
    for p in &step.preds {
        let Some(path) = &p.path else {
            let Some(r) = p.value else { continue };
            value_range = Some(match value_range {
                None => (r.lo, r.hi),
                Some((lo, hi)) => (lo.max(r.lo), hi.min(r.hi)),
            });
            continue;
        };
        let symbolic = match (&p.value, path.steps.as_slice()) {
            (Some(r), [only]) if only.axis == Axis::Child && only.preds.is_empty() => {
                let mut tagged = s
                    .children_of(v)
                    .iter()
                    .copied()
                    .filter(|&c| s.tag(c) == only.label);
                match (tagged.next(), tagged.next()) {
                    (Some(child), None) => Some((child, (r.lo, r.hi))),
                    _ => None,
                }
            }
            _ => None,
        };
        match symbolic {
            Some((child, range)) => branch_values.push(BranchValue {
                child,
                range,
                fallback: branch_fraction(s, v, p, opts),
            }),
            None => pred_fraction *= branch_fraction(s, v, p, opts),
        }
    }
    ChainLink {
        syn: v,
        value_range,
        pred_fraction,
        branch_values,
    }
}

/// The existence fraction of branch predicate `pred` at `from`, over its
/// own expansion under a fresh meter built from `opts`.
fn branch_fraction(s: &Synopsis, from: SynId, pred: &Pred, opts: &EstimateOptions) -> f64 {
    let Some(path) = &pred.path else {
        let Some(r) = pred.value else { return 1.0 };
        return s.value_fraction(from, r.lo, r.hi);
    };
    let chains = expand_path_from(s, from, path, opts, &mut Meter::from_options(opts));
    let mut miss_all = 1.0f64;
    for chain in &chains {
        let mut f = 1.0f64;
        let mut prev = from;
        for link in chain {
            f *= s.exist_fraction(prev, link.syn);
            f *= link.pred_fraction;
            prev = link.syn;
        }
        if let Some(r) = pred.value {
            f *= s.value_fraction(prev, r.lo, r.hi);
        }
        miss_all *= 1.0 - f.clamp(0.0, 1.0);
    }
    (1.0 - miss_all).clamp(0.0, 1.0)
}

/// Extends partial chains over the remaining steps, charging the meter
/// one unit per chain extended.
fn extend_chains(
    s: &Synopsis,
    mut chains: Vec<Vec<ChainLink>>,
    steps: &[Step],
    opts: &EstimateOptions,
    meter: &mut Meter,
) -> Vec<Vec<ChainLink>> {
    for step in steps {
        let mut next: Vec<Vec<ChainLink>> = Vec::new();
        for chain in &chains {
            if !meter.proceed(1) {
                return next;
            }
            let Some(anchor) = chain.last().map(|l| l.syn) else {
                continue;
            };
            match step.axis {
                Axis::Child => {
                    for &v in s.children_of(anchor) {
                        if s.tag(v) == step.label {
                            let mut c = chain.clone();
                            c.push(resolve_link(s, v, step, opts));
                            next.push(c);
                        }
                    }
                }
                Axis::Descendant => {
                    for mut tail in descendant_paths(s, anchor, &step.label, opts, meter) {
                        let Some(last) = tail.pop() else { continue };
                        let mut c = chain.clone();
                        c.extend(tail.into_iter().map(ChainLink::plain));
                        c.push(resolve_link(s, last, step, opts));
                        next.push(c);
                    }
                }
            }
            if next.len() > opts.max_embeddings {
                next.truncate(opts.max_embeddings);
                break;
            }
        }
        chains = next;
        if chains.is_empty() {
            break;
        }
    }
    chains
}

/// Downward synopsis paths `from → x1 → … → xk` (k ≥ 1, `from`
/// excluded) ending at a node tagged `label`, bounded by the document
/// depth and the embedding cap.
fn descendant_paths(
    s: &Synopsis,
    from: SynId,
    label: &str,
    opts: &EstimateOptions,
    meter: &mut Meter,
) -> Vec<Vec<SynId>> {
    let max_len = s.max_depth().max(1);
    let mut out = Vec::new();
    let mut stack = Vec::new();
    descend(
        s,
        from,
        label,
        max_len,
        opts.max_embeddings,
        &mut stack,
        &mut out,
        meter,
    );
    out
}

#[allow(clippy::too_many_arguments)]
fn descend(
    s: &Synopsis,
    at: SynId,
    label: &str,
    remaining: usize,
    cap: usize,
    stack: &mut Vec<SynId>,
    out: &mut Vec<Vec<SynId>>,
    meter: &mut Meter,
) {
    if remaining == 0 || out.len() >= cap {
        return;
    }
    for &v in s.children_of(at) {
        if out.len() >= cap || !meter.proceed(1) {
            return;
        }
        stack.push(v);
        if s.tag(v) == label {
            out.push(stack.clone());
        }
        descend(s, v, label, remaining - 1, cap, stack, out, meter);
        stack.pop();
    }
}
