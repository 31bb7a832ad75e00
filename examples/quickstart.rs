//! Quickstart: parse a document, build a Twig XSKETCH under a byte
//! budget, and estimate a twig query's selectivity.
//!
//! Run with `cargo run --example quickstart`.

use xtwig::prelude::*;

fn main() {
    // A small bibliography in the shape of the paper's Figure 1.
    let doc = parse(concat!(
        "<bib>",
        "<author><name/>",
        "<paper><title/><year>1999</year><keyword/><keyword/></paper>",
        "<paper><title/><year>2002</year><keyword/><keyword/></paper>",
        "</author>",
        "<author><name/>",
        "<paper><title/><year>2001</year><keyword/></paper>",
        "<book><title/></book>",
        "</author>",
        "</bib>"
    ))
    .expect("well-formed XML");
    println!(
        "document: {} elements, {} tags",
        doc.len(),
        doc.labels().len()
    );

    // The paper's Example 2.1 query: authors with their name and the
    // title/keywords of their post-2000 papers.
    let query = parse_twig(
        "for $t0 in //author, $t1 in $t0/name, $t2 in $t0/paper[year > 2000], \
         $t3 in $t2/title, $t4 in $t2/keyword",
    )
    .expect("valid twig query");
    println!("query:    {query}");

    // Ground truth by exact evaluation.
    let truth = selectivity(&doc, &query);
    println!("exact selectivity: {truth} binding tuples");

    // The coarsest synopsis: label-split graph with edge counts and small
    // default histograms.
    let coarse = coarse_synopsis(&doc);
    let opts = EstimateOptions::default();
    let req = EstimateRequest::with_options(&query, opts);
    println!(
        "coarse synopsis:  {} nodes, {} edges, {} bytes -> estimate {:.2}",
        coarse.node_count(),
        coarse.edge_count(),
        coarse.size_bytes(),
        CompiledSynopsis::compile(&coarse).estimate(&req).estimate
    );

    // XBUILD: refine within a budget, scoring refinements on sampled
    // workloads (true counts from exact evaluation here).
    let build = BuildOptions {
        budget_bytes: coarse.size_bytes() + 512,
        max_rounds: 40,
        ..Default::default()
    };
    let (synopsis, trace) = xbuild(&doc, TruthSource::Exact, &build);
    println!(
        "built synopsis:   {} nodes, {} bytes after {} refinement rounds",
        synopsis.node_count(),
        synopsis.size_bytes(),
        trace.rounds.len()
    );
    for r in trace.rounds.iter().take(5) {
        println!("  applied {:?} -> {} bytes", r.applied, r.size_bytes);
    }
    let est = CompiledSynopsis::compile(&synopsis).estimate(&req).estimate;
    println!("estimate: {est:.2} (truth {truth})");
}
