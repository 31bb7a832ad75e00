//! Property tests for the query crate: parser/printer inversion and
//! evaluator consistency on random documents and twigs.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use xtwig_query::{
    enumerate_bindings, eval_path, parse_twig, selectivity, PathExpr, Pred, Step, TwigQuery,
    ValueRange,
};
use xtwig_xml::{Document, DocumentBuilder};

const TAGS: [&str; 5] = ["a", "b", "c", "d", "e"];

/// A random 3-level document over a tiny alphabet (dense enough that
/// random twigs often match).
fn arb_doc() -> impl Strategy<Value = Document> {
    (1u64..10_000).prop_map(|seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = DocumentBuilder::new();
        b.open("r", None);
        for _ in 0..rng.random_range(1..5u32) {
            b.open(TAGS[rng.random_range(0..TAGS.len())], None);
            for _ in 0..rng.random_range(0..4u32) {
                b.open(
                    TAGS[rng.random_range(0..TAGS.len())],
                    Some(rng.random_range(0..10)),
                );
                for _ in 0..rng.random_range(0..3u32) {
                    b.leaf(
                        TAGS[rng.random_range(0..TAGS.len())],
                        Some(rng.random_range(0..10)),
                    );
                }
                b.close();
            }
            b.close();
        }
        b.close();
        b.finish()
    })
}

/// A random tag of the alphabet.
fn tag(rng: &mut StdRng) -> &'static str {
    TAGS[rng.random_range(0..TAGS.len())]
}

/// A random step: a child step, or now and then a `//` step, carrying
/// value and branch predicates at any position of its path. Branch paths
/// run one or two child steps, or a `//` step.
fn arb_step(rng: &mut StdRng, descendant: f64) -> Step {
    let mut step = if rng.random_bool(descendant) {
        Step::descendant(tag(rng))
    } else {
        Step::child(tag(rng))
    };
    if rng.random_bool(0.25) {
        step = step.with_pred(Pred::self_value(ValueRange {
            lo: 0,
            hi: rng.random_range(0..10),
        }));
    }
    if rng.random_bool(0.2) {
        let branch = match rng.random_range(0..3u32) {
            0 => PathExpr::child(tag(rng)),
            1 => PathExpr::child_chain([tag(rng), tag(rng)]),
            _ => PathExpr::new(vec![Step::descendant(tag(rng))]),
        };
        step = step.with_pred(if rng.random_bool(0.5) {
            Pred::branch(branch)
        } else {
            Pred::branch_value(
                branch,
                ValueRange {
                    lo: rng.random_range(0..5),
                    hi: rng.random_range(5..10),
                },
            )
        });
    }
    step
}

/// A random small twig over the same alphabet. Paths below the root run
/// one to three steps, so the exact counter takes both its routes: a
/// path of child steps (`$t0/a/b`) streams, and a path with a `//` step
/// materializes through `eval_path`.
fn arb_twig() -> impl Strategy<Value = TwigQuery> {
    (1u64..10_000).prop_map(|seed| {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E3779B9));
        let root_tag = if rng.random_bool(0.5) {
            "r"
        } else {
            tag(&mut rng)
        };
        let mut root = vec![if rng.random_bool(0.5) {
            Step::descendant(root_tag)
        } else {
            Step::child("r")
        }];
        if rng.random_bool(0.25) {
            root.push(arb_step(&mut rng, 0.0));
        }
        let mut q = TwigQuery::new(PathExpr::new(root));
        for _ in 0..rng.random_range(0..4u32) {
            let parent = rng.random_range(0..q.len());
            let steps = (0..rng.random_range(1..4u32))
                .map(|_| arb_step(&mut rng, 0.2))
                .collect();
            q.add_child(parent, PathExpr::new(steps));
        }
        q
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn display_parse_inversion(q in arb_twig()) {
        let text = q.to_string();
        let reparsed = parse_twig(&text).unwrap_or_else(|e| panic!("`{text}`: {e}"));
        prop_assert_eq!(q, reparsed);
    }

    #[test]
    fn counting_matches_enumeration(doc in arb_doc(), q in arb_twig()) {
        let count = selectivity(&doc, &q);
        // Enumeration is exponential; skip absurd cases (cannot happen at
        // these sizes, but stay safe).
        prop_assume!(count < 50_000);
        let listed = enumerate_bindings(&doc, &q);
        prop_assert_eq!(count as usize, listed.len());
    }

    #[test]
    fn bindings_satisfy_structure(doc in arb_doc(), q in arb_twig()) {
        let listed = enumerate_bindings(&doc, &q);
        prop_assume!(listed.len() < 5_000);
        for binding in &listed {
            for t in q.node_refs() {
                if let Some(p) = q.parent(t) {
                    // The bound element must be reachable from the parent
                    // binding via the node's path.
                    let reach = eval_path(&doc, Some(binding[p]), q.path(t));
                    prop_assert!(reach.contains(&binding[t]));
                }
            }
        }
    }

    #[test]
    fn selectivity_is_monotone_in_predicates(doc in arb_doc()) {
        // Adding a branch predicate can only shrink the result.
        let base = parse_twig("for $t0 in //a, $t1 in $t0/b").unwrap();
        let restricted = parse_twig("for $t0 in //a[c], $t1 in $t0/b").unwrap();
        prop_assert!(selectivity(&doc, &restricted) <= selectivity(&doc, &base));
        // Widening a value range can only grow the result.
        let narrow = parse_twig("for $t0 in //a, $t1 in $t0/b[. in 2..3]").unwrap();
        let wide = parse_twig("for $t0 in //a, $t1 in $t0/b[. in 0..9]").unwrap();
        prop_assert!(selectivity(&doc, &narrow) <= selectivity(&doc, &wide));
    }

    #[test]
    fn descendant_at_root_counts_all_matching(doc in arb_doc()) {
        for tag in TAGS {
            let q = parse_twig(&format!("for $t0 in //{tag}")).unwrap();
            let expected = doc.nodes().filter(|&n| doc.tag(n) == tag).count() as u64;
            prop_assert_eq!(selectivity(&doc, &q), expected);
        }
    }
}
