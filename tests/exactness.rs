//! Property-based integration tests: the paper's zero-error claim ("the
//! final expression will compute the selectivity of T with zero error if
//! the synopsis records full information") checked for the compiled
//! evaluator against the exact evaluator on random documents — on fixed
//! twigs and on generated ones — plus agreement between the counting
//! evaluator and brute-force enumeration. On twig shapes outside the
//! claim, the compiled evaluator must still be the interpreted test
//! oracle's computation, bit for bit: full-information synopses carry
//! backward dimensions on non-twig edges, which exercises the `needs`
//! pre-pass that XBUILD synopses rarely reach.

mod support;

use proptest::prelude::*;
use support::oracle;
use xtwig::core::estimate::EstimateOptions;
use xtwig::core::synopsis::{DimKind, ScopeDim};
use xtwig::core::{coarse_synopsis, CompiledSynopsis};
use xtwig::query::{enumerate_bindings, parse_twig, selectivity, PathExpr, TwigQuery};
use xtwig::xml::{Document, DocumentBuilder};

/// A random 3-level document: root `r`, children `a`, grandchildren from
/// {b, c}, great-grandchildren from {d}.
fn arb_doc() -> impl Strategy<Value = Document> {
    // For each `a`: counts of b and c children, and for each b a count of d.
    prop::collection::vec(
        (
            prop::collection::vec(0u8..4, 0..4), // d-counts per b child
            0u8..4,                              // c count
        ),
        1..6,
    )
    .prop_map(|groups| {
        let mut builder = DocumentBuilder::new();
        builder.open("r", None);
        for (d_counts, c_count) in groups {
            builder.open("a", None);
            for &dc in &d_counts {
                builder.open("b", None);
                for _ in 0..dc {
                    builder.leaf("d", None);
                }
                builder.close();
            }
            for _ in 0..c_count {
                builder.leaf("c", None);
            }
            builder.close();
        }
        builder.close();
        builder.finish()
    })
}

fn full_info_synopsis(doc: &Document) -> xtwig::core::Synopsis {
    let mut s = coarse_synopsis(doc);
    // Full information: every node's histogram covers every forward edge
    // exactly, plus backward counts tying each node to all of its parent's
    // dimensions.
    let nodes: Vec<_> = s.node_ids().collect();
    for n in nodes {
        let mut scope: Vec<ScopeDim> = s
            .children_of(n)
            .to_vec()
            .into_iter()
            .map(|v| ScopeDim {
                parent: n,
                child: v,
                kind: DimKind::Forward,
            })
            .collect();
        for &p in &s.parents_of(n).to_vec() {
            for &z in &s.children_of(p).to_vec() {
                scope.push(ScopeDim {
                    parent: p,
                    child: z,
                    kind: DimKind::Backward,
                });
            }
        }
        s.set_edge_hist(doc, n, scope, 1 << 20);
    }
    s
}

/// Parent → child tags of the `arb_doc` family.
const EDGES: [(&str, &str); 4] = [("r", "a"), ("a", "b"), ("a", "c"), ("b", "d")];

/// `(via, tag)` for every proper descendant tag of `p`: `via` is the
/// child of `p` on the way (`tag` itself for a child).
fn descendants(p: &str) -> Vec<(&'static str, &'static str)> {
    let mut out = Vec::new();
    for &(u, v) in &EDGES {
        if u == p {
            out.push((v, v));
            out.extend(descendants(v).into_iter().map(|(_, w)| (v, w)));
        }
    }
    out
}

/// A generated twig over the `arb_doc` tags: a root path, then up to
/// four more nodes built from `(extend, tag choice, step kind)` draws.
///
/// The twig is a *caterpillar*: nodes hang off one spine, and every
/// node off the spine is a single step to a child tag, so it embeds as
/// one synopsis node with no children. That is the shape on which the
/// paper's full-information claim holds: a node's forward counts are
/// enumerated jointly and its descendants condition on them, so each
/// spine node's one non-trivial subtree enters its term linearly.
/// (Two sibling subtrees that both vary per element — say two
/// `$t/b/d` branches under one `a` — multiply two per-element sums, and
/// the product of their conditional means is not the mean of their
/// product, so no per-node histogram makes that shape exact.)
///
/// Spine steps are child (`/x`), descendant (`//x`, any depth) or
/// two-step (`/m/x`); off-spine steps are `/x` or `//x` to a child tag,
/// unless `caterpillar` is false, when they may be any spine step too.
/// A step from a tag with no fitting target (`c` and `d` are leaves)
/// goes to `a`, which matches nothing there: both sides must then be
/// exactly 0.
fn arb_twig(caterpillar: bool) -> impl Strategy<Value = String> {
    const ROOTS: [&str; 6] = ["/r", "//r", "//a", "/r/a", "//b", "//a/b"];
    (
        0..ROOTS.len(),
        prop::collection::vec((0u8..2, 0usize..6, 0usize..3), 0..5),
    )
        .prop_map(move |(root, ops)| {
            let root = ROOTS[root];
            let mut text = format!("for $t0 in {root}");
            let mut spine = (0usize, root.rsplit('/').next().unwrap_or("r"));
            for (i, (extend, pick, kind)) in ops.into_iter().enumerate() {
                let (at, p) = spine;
                let below = descendants(p);
                let children: Vec<_> = below.iter().filter(|(m, x)| m == x).collect();
                let grandchildren: Vec<_> = below.iter().filter(|(m, x)| m != x).collect();
                let (step, tag) = match (extend == 1 || !caterpillar, kind) {
                    (true, 1) if !below.is_empty() => {
                        let (_, x) = below[pick % below.len()];
                        (format!("//{x}"), x)
                    }
                    (true, 2) if !grandchildren.is_empty() => {
                        let (m, x) = grandchildren[pick % grandchildren.len()];
                        (format!("/{m}/{x}"), *x)
                    }
                    (_, k) if !children.is_empty() => {
                        let (_, x) = children[pick % children.len()];
                        let slashes = if k == 1 { "//" } else { "/" };
                        (format!("{slashes}{x}"), *x)
                    }
                    _ => ("/a".to_string(), "a"),
                };
                text.push_str(&format!(", $t{} in $t{at}{step}", i + 1));
                if extend == 1 {
                    spine = (i + 1, tag);
                }
            }
            text
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn full_information_estimates_are_exact(doc in arb_doc()) {
        let s = full_info_synopsis(&doc);
        let cs = CompiledSynopsis::compile(&s);
        let opts = EstimateOptions::default();
        for text in [
            "for $t0 in /r, $t1 in $t0/a, $t2 in $t1/b, $t3 in $t1/c",
            "for $t0 in //a, $t1 in $t0/b, $t2 in $t0/c",
            "for $t0 in //a, $t1 in $t0/b/d, $t2 in $t0/c",
            "for $t0 in //b, $t1 in $t0/d",
        ] {
            let q = parse_twig(text).unwrap();
            let truth = selectivity(&doc, &q) as f64;
            let est = cs.estimate_report(&q, &opts).estimate;
            prop_assert!(
                (est - truth).abs() < 1e-6 * truth.max(1.0),
                "{text}: est {est} truth {truth}"
            );
        }
    }

    #[test]
    fn full_information_is_exact_on_generated_twigs(
        doc in arb_doc(),
        twigs in prop::collection::vec(arb_twig(true), 8),
    ) {
        let s = full_info_synopsis(&doc);
        let cs = CompiledSynopsis::compile(&s);
        let opts = EstimateOptions::default();
        for text in &twigs {
            let q = parse_twig(text).unwrap();
            let truth = selectivity(&doc, &q) as f64;
            let rep = cs.estimate_report(&q, &opts);
            prop_assert!(!rep.provenance.degraded, "{text}: degraded");
            prop_assert!(
                (rep.estimate - truth).abs() <= 1e-9 * truth.max(1.0),
                "{text}: est {} truth {truth}",
                rep.estimate
            );
        }
    }

    #[test]
    fn generated_twigs_match_the_oracle_bit_for_bit(
        doc in arb_doc(),
        twigs in prop::collection::vec(arb_twig(false), 8),
    ) {
        let s = full_info_synopsis(&doc);
        let cs = CompiledSynopsis::compile(&s);
        let opts = EstimateOptions::default();
        for text in &twigs {
            let q = parse_twig(text).unwrap();
            let est = cs.estimate_report(&q, &opts).estimate;
            let interp = oracle::estimate(&s, &q, &opts).estimate;
            prop_assert_eq!(
                est.to_bits(),
                interp.to_bits(),
                "{}: compiled {} vs oracle {}",
                text,
                est,
                interp
            );
        }
    }

    #[test]
    fn counting_agrees_with_enumeration(doc in arb_doc()) {
        let mut q = TwigQuery::new(PathExpr::child("r"));
        let a = q.add_child(0, PathExpr::child("a"));
        let b = q.add_child(a, PathExpr::child("b"));
        q.add_child(b, PathExpr::child("d"));
        q.add_child(a, PathExpr::child("c"));
        let n = selectivity(&doc, &q);
        let listed = enumerate_bindings(&doc, &q);
        prop_assert_eq!(n as usize, listed.len());
    }

    #[test]
    fn coarse_estimates_bounded_for_single_edges(doc in arb_doc()) {
        // Single parent-child twigs are exact even on the coarse synopsis
        // (the per-edge counts are exact).
        let s = coarse_synopsis(&doc);
        let cs = CompiledSynopsis::compile(&s);
        let opts = EstimateOptions::default();
        for text in ["for $t0 in //a, $t1 in $t0/b", "for $t0 in //b, $t1 in $t0/d"] {
            let q = parse_twig(text).unwrap();
            let truth = selectivity(&doc, &q) as f64;
            let est = cs.estimate_report(&q, &opts).estimate;
            prop_assert!((est - truth).abs() < 1e-6 * truth.max(1.0), "{text}: {est} vs {truth}");
        }
    }
}
