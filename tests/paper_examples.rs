//! Every concrete number the paper states, checked end-to-end through
//! the public facade.

use xtwig::core::estimate::{Embedding, EstimateRequest, Estimator};
use xtwig::core::synopsis::{DimKind, ScopeDim};
use xtwig::core::{coarse_synopsis, CompiledSynopsis};
use xtwig::datagen::{bibliography, figure4_a, figure4_b, worked_example};
use xtwig::query::{parse_twig, selectivity};

#[test]
fn example_2_1_produces_three_binding_tuples() {
    let doc = bibliography();
    let q = parse_twig(
        "for $t0 in //author, $t1 in $t0/name, $t2 in $t0/paper[year > 2000], \
         $t3 in $t2/title, $t4 in $t2/keyword",
    )
    .unwrap();
    assert_eq!(selectivity(&doc, &q), 3);
}

#[test]
fn figure3_stability_statements() {
    let doc = bibliography();
    let s = coarse_synopsis(&doc);
    let a = s.nodes_with_tag("author")[0];
    let p = s.nodes_with_tag("paper")[0];
    // "edge A→P is both backward and forward stable since all papers have
    // an author parent, and all authors have at least one paper child."
    assert!(s.is_b_stable(a, p));
    assert!(s.is_f_stable(a, p));
    // "|P| = 4 is an accurate selectivity estimate for path expression
    // A/P, while |A| = 3 is an accurate estimate for A[/P]" — our instance
    // keeps those extent sizes.
    assert_eq!(s.extent_size(p), 4);
    assert_eq!(s.extent_size(a), 3);
}

#[test]
fn figure4_documents_2000_vs_10100() {
    let q = parse_twig("for $t0 in //A, $t1 in $t0/B, $t2 in $t0/C").unwrap();
    assert_eq!(selectivity(&figure4_a(), &q), 2000);
    assert_eq!(selectivity(&figure4_b(), &q), 10100);
    // With the 2-D edge histogram f_A(b, c) the compiled evaluator tells
    // the two documents apart and reproduces both counts.
    for (doc, truth) in [(figure4_a(), 2000.0), (figure4_b(), 10100.0)] {
        let mut s = coarse_synopsis(&doc);
        let a = s.nodes_with_tag("A")[0];
        let b = s.nodes_with_tag("B")[0];
        let c = s.nodes_with_tag("C")[0];
        let forward = |child| ScopeDim {
            parent: a,
            child,
            kind: DimKind::Forward,
        };
        s.set_edge_hist(&doc, a, vec![forward(b), forward(c)], 4096);
        let est = CompiledSynopsis::compile(&s)
            .estimate(&EstimateRequest::new(&q))
            .estimate;
        assert!((est - truth).abs() < 1e-10, "{est} vs {truth}");
    }
}

#[test]
fn figure4_fraction_table() {
    // "f_A(10, 100) = 0.5, f_A(100, 10) = 0.5" for document (a).
    let doc = figure4_a();
    let s = coarse_synopsis(&doc);
    let a = s.nodes_with_tag("A")[0];
    let b = s.nodes_with_tag("B")[0];
    let c = s.nodes_with_tag("C")[0];
    let dist = s.edge_distribution(
        &doc,
        a,
        &[
            ScopeDim {
                parent: a,
                child: b,
                kind: DimKind::Forward,
            },
            ScopeDim {
                parent: a,
                child: c,
                kind: DimKind::Forward,
            },
        ],
    );
    assert!((dist.fraction(&[10, 100]) - 0.5).abs() < 1e-12);
    assert!((dist.fraction(&[100, 10]) - 0.5).abs() < 1e-12);
    // Selectivity via Σ |A|·f_A(b,c)·b·c = 2000.
    let sel = s.extent_size(a) as f64 * dist.expectation_product(&[0, 1]);
    assert!((sel - 2000.0).abs() < 1e-9);
}

#[test]
fn section4_worked_example_evaluates_to_ten_thirds() {
    let doc = worked_example();
    let mut s = coarse_synopsis(&doc);
    let author = s.nodes_with_tag("author")[0];
    let paper = s.nodes_with_tag("paper")[0];
    let name = s.nodes_with_tag("name")[0];
    let keyword = s.nodes_with_tag("keyword")[0];
    let year = s.nodes_with_tag("year")[0];
    let book = s.nodes_with_tag("book")[0];
    s.set_edge_hist(
        &doc,
        author,
        vec![
            ScopeDim {
                parent: author,
                child: paper,
                kind: DimKind::Forward,
            },
            ScopeDim {
                parent: author,
                child: name,
                kind: DimKind::Forward,
            },
        ],
        4096,
    );
    s.set_edge_hist(
        &doc,
        paper,
        vec![
            ScopeDim {
                parent: paper,
                child: keyword,
                kind: DimKind::Forward,
            },
            ScopeDim {
                parent: paper,
                child: year,
                kind: DimKind::Forward,
            },
            ScopeDim {
                parent: author,
                child: paper,
                kind: DimKind::Backward,
            },
        ],
        4096,
    );
    let mut emb = Embedding::with_root(author, 3.0);
    emb.push_node(0, book, None, 1.0);
    emb.push_node(0, name, None, 1.0);
    let p = emb.push_node(0, paper, None, 1.0);
    emb.push_node(p, keyword, None, 1.0);
    emb.push_node(p, year, None, 1.0);
    let est = CompiledSynopsis::compile(&s).estimate_embedding(&emb);
    assert!((est - 10.0 / 3.0).abs() < 1e-10, "{est}");
}

#[test]
fn section1_movie_query_parses_and_runs() {
    // The introduction's XQuery for-clause as a twig.
    let q =
        parse_twig("for $t0 in //movie[type = 1], $t1 in $t0/actor, $t2 in $t0/producer").unwrap();
    assert_eq!(q.len(), 3);
    // "A qualifying movie with 10 actors and 3 producers will generate 30
    // tuples."
    let mut b = xtwig::xml::DocumentBuilder::new();
    b.open("movies", None);
    b.open("movie", None);
    b.leaf("type", Some(1));
    for _ in 0..10 {
        b.leaf("actor", None);
    }
    for _ in 0..3 {
        b.leaf("producer", None);
    }
    b.close();
    b.close();
    let doc = b.finish();
    assert_eq!(selectivity(&doc, &q), 30);
    let s = coarse_synopsis(&doc);
    let est = CompiledSynopsis::compile(&s)
        .estimate(&EstimateRequest::new(&q))
        .estimate;
    assert!((est - 30.0).abs() < 1e-9, "{est}");
}
