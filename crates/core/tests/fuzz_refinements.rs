//! Fuzz-style property tests: arbitrary refinement sequences must keep
//! the synopsis structurally consistent with the document, keep size
//! accounting monotone, and never break estimation (finite, non-negative
//! results; exact results where exactness is guaranteed).

// Test helpers may unwrap freely; clippy's `allow-unwrap-in-tests` only
// covers `#[test]` bodies, not free helper functions in integration tests.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use xtwig_core::coarse_synopsis;
use xtwig_core::construct::Refinement;
use xtwig_core::estimate::{EstimateOptions, EstimateRequest, Estimator};
use xtwig_core::synopsis::{DimKind, ScopeDim, SynId, ValueSource};
use xtwig_core::CompiledSynopsis;
use xtwig_query::{parse_twig, selectivity};
use xtwig_xml::{Document, DocumentBuilder};

const TAGS: [&str; 5] = ["a", "b", "c", "d", "e"];

fn random_doc(seed: u64) -> Document {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = DocumentBuilder::new();
    b.open("r", None);
    for _ in 0..rng.random_range(2..7u32) {
        b.open(TAGS[rng.random_range(0..TAGS.len())], None);
        for _ in 0..rng.random_range(0..5u32) {
            b.open(
                TAGS[rng.random_range(0..TAGS.len())],
                Some(rng.random_range(0..20)),
            );
            for _ in 0..rng.random_range(0..3u32) {
                b.leaf(
                    TAGS[rng.random_range(0..TAGS.len())],
                    Some(rng.random_range(0..20)),
                );
            }
            b.close();
        }
        b.close();
    }
    b.close();
    b.finish()
}

/// Applies `steps` pseudo-random refinements, checking invariants after
/// each successful application.
fn fuzz_refinements(doc: &Document, seed: u64, steps: usize) -> Result<(), TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut s = coarse_synopsis(doc);
    for step in 0..steps {
        let n = SynId(rng.random_range(0..s.node_count() as u32));
        let r = match rng.random_range(0..6u32) {
            0 => {
                let parents = s.parents_of(n).to_vec();
                if parents.is_empty() {
                    continue;
                }
                let u = parents[rng.random_range(0..parents.len())];
                Refinement::BStabilize {
                    parent: u,
                    child: n,
                }
            }
            1 => {
                let children = s.children_of(n).to_vec();
                if children.is_empty() {
                    continue;
                }
                let v = children[rng.random_range(0..children.len())];
                Refinement::FStabilize {
                    parent: n,
                    child: v,
                }
            }
            2 => Refinement::EdgeRefine {
                node: n,
                extra_bytes: 32,
            },
            3 => {
                let children = s.children_of(n).to_vec();
                if children.is_empty() {
                    continue;
                }
                let v = children[rng.random_range(0..children.len())];
                Refinement::EdgeExpand {
                    node: n,
                    dim: ScopeDim {
                        parent: n,
                        child: v,
                        kind: DimKind::Forward,
                    },
                }
            }
            4 => Refinement::ValueRefine {
                node: n,
                extra_bytes: 24,
            },
            _ => {
                let children = s.children_of(n).to_vec();
                let source = if children.is_empty() || rng.random_bool(0.3) {
                    ValueSource::OwnValue
                } else {
                    ValueSource::ChildValue(children[rng.random_range(0..children.len())])
                };
                Refinement::ValueExpand {
                    node: n,
                    value_source: source,
                    budget_bytes: 48,
                }
            }
        };
        let before = s.size_bytes();
        if r.apply(&mut s, doc) {
            s.check_invariants(doc)
                .map_err(|e| TestCaseError::fail(format!("step {step} ({r:?}): {e}")))?;
            prop_assert!(
                s.size_bytes() >= before.saturating_sub(64),
                "size dropped sharply after {r:?}: {before} -> {}",
                s.size_bytes()
            );
            // Scope dims always reference live edges / value sources.
            for node in s.node_ids() {
                for d in &s.edge_hist(node).scope {
                    match d.kind {
                        DimKind::Value => {
                            prop_assert!(
                                d.child == d.parent || s.edge(d.parent, d.child).is_some()
                            );
                        }
                        _ => prop_assert!(s.edge(d.parent, d.child).is_some()),
                    }
                }
            }
        }
    }
    // Estimation stays total and sane after the barrage.
    let opts = EstimateOptions::default();
    for text in [
        "for $t0 in //a, $t1 in $t0/b",
        "for $t0 in //b, $t1 in $t0/c, $t2 in $t0/d",
        "for $t0 in //a[b], $t1 in $t0/c[. in 0..9]",
        "for $t0 in //e",
    ] {
        let q = parse_twig(text).unwrap();
        let est = CompiledSynopsis::compile(&s)
            .estimate(&EstimateRequest::with_options(&q, opts))
            .estimate;
        prop_assert!(est.is_finite() && est >= 0.0, "{text}: {est}");
    }
    // Note: exactness assertions are deliberately absent here. These
    // random documents nest tags recursively, and recursive tags make
    // `//`-expansion chains overlap, where the uniform-spread assumption
    // is genuinely approximate — an inherent property of the synopsis
    // model (the paper's included), not a defect. The dedicated
    // `exactness` integration tests cover the guaranteed cases on
    // level-stratified documents.
    let _ = selectivity(doc, &parse_twig("for $t0 in //a").unwrap());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn refinement_sequences_preserve_invariants(doc_seed in 1u64..5000, ref_seed in 1u64..5000) {
        let doc = random_doc(doc_seed);
        fuzz_refinements(&doc, ref_seed, 12)?;
    }
}

#[test]
fn long_refinement_sequence_on_fixed_doc() {
    let doc = random_doc(42);
    fuzz_refinements(&doc, 7, 60).unwrap();
}
