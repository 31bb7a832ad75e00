//! A guided tour through the paper's running example: the Figure 1
//! bibliography, Example 2.1's binding tuples, Example 3.1's edge
//! distribution, and the §4 worked estimate of 10/3.
//!
//! Run with `cargo run --example bibliography`.

use xtwig::core::estimate::Embedding;
use xtwig::core::synopsis::{DimKind, ScopeDim};
use xtwig::datagen::{bibliography, worked_example};
use xtwig::prelude::*;
use xtwig::query::enumerate_bindings;

fn main() {
    // --- Example 2.1: three binding tuples --------------------------
    let doc = bibliography();
    let q = parse_twig(
        "for $t0 in //author, $t1 in $t0/name, $t2 in $t0/paper[year > 2000], \
         $t3 in $t2/title, $t4 in $t2/keyword",
    )
    .unwrap();
    println!("Example 2.1 query: {q}");
    let bindings = enumerate_bindings(&doc, &q);
    println!("binding tuples ({}):", bindings.len());
    for b in &bindings {
        let row: Vec<String> = b
            .iter()
            .map(|&n| format!("{}{}", doc.tag(n), n.0))
            .collect();
        println!("  [{}]", row.join(", "));
    }
    assert_eq!(bindings.len(), 3);

    // --- Example 3.1: the edge distribution f_P ----------------------
    let doc = worked_example();
    let s = coarse_synopsis(&doc);
    let paper = s.nodes_with_tag("paper")[0];
    let author = s.nodes_with_tag("author")[0];
    let keyword = s.nodes_with_tag("keyword")[0];
    let year = s.nodes_with_tag("year")[0];
    let name = s.nodes_with_tag("name")[0];
    let scope = vec![
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
        ScopeDim {
            parent: author,
            child: name,
            kind: DimKind::Backward,
        },
    ];
    let dist = s.edge_distribution(&doc, paper, &scope);
    println!("\nExample 3.1 distribution f_P(C_K, C_Y, C_P, C_N):");
    println!(
        "  {:>4}{:>4}{:>4}{:>4}{:>8}",
        "C_K", "C_Y", "C_P", "C_N", "f_P"
    );
    let mut points: Vec<(Vec<u32>, u64)> = dist.iter().map(|(p, f)| (p.to_vec(), f)).collect();
    points.sort();
    for (p, f) in points.iter().rev() {
        println!(
            "  {:>4}{:>4}{:>4}{:>4}{:>8.2}",
            p[0],
            p[1],
            p[2],
            p[3],
            *f as f64 / dist.total() as f64
        );
    }

    // --- §4 worked example: s(T) = 10/3 -----------------------------
    let mut s = coarse_synopsis(&doc);
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
    let mut emb = Embedding::with_root(author, s.extent_size(author) as f64);
    emb.push_node(0, book, None, 1.0);
    emb.push_node(0, name, None, 1.0);
    let p = emb.push_node(0, paper, None, 1.0);
    emb.push_node(p, keyword, None, 1.0);
    emb.push_node(p, year, None, 1.0);
    let est = CompiledSynopsis::compile(&s).estimate_embedding(&emb);
    println!(
        "\n§4 worked example: s(T) = {est:.6} (paper: 10/3 = {:.6})",
        10.0 / 3.0
    );
    assert!((est - 10.0 / 3.0).abs() < 1e-9);
    println!("reproduced exactly.");
}
