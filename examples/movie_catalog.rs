//! The paper's §1 motivating scenario: a movie catalog where the number
//! of actors and producers per movie is strongly correlated with the
//! movie's type ("we expect to retrieve more actors and producers per
//! movie if the type X is 'Action' than if it is 'Documentary'").
//!
//! This example shows exactly that effect: a coarse synopsis estimates
//! the same tuple count per qualifying movie regardless of the type
//! predicate, while a refined Twig XSKETCH tracks the correlation.
//!
//! Run with `cargo run --release --example movie_catalog`.

use xtwig::datagen::{imdb, ImdbConfig};
use xtwig::prelude::*;

fn main() {
    let doc = imdb(ImdbConfig {
        movies: 1500,
        seed: 42,
    });
    println!("movie catalog: {} elements", doc.len());

    // The XQuery from the paper's introduction:
    //   for t0 in //movie[/type=X], t1 in t0/actor, t2 in t0/producer
    let action =
        parse_twig("for $t0 in //movie[type = 1], $t1 in $t0/actor, $t2 in $t0/producer").unwrap();
    let documentary =
        parse_twig("for $t0 in //movie[type = 4], $t1 in $t0/actor, $t2 in $t0/producer").unwrap();

    let coarse = coarse_synopsis(&doc);
    let build = BuildOptions {
        budget_bytes: coarse.size_bytes() + 2048,
        refinements_per_round: 2,
        max_rounds: 150,
        workload_with_values: true,
        ..Default::default()
    };
    let (refined, _) = xbuild(&doc, TruthSource::Exact, &build);
    let opts = EstimateOptions::default();

    println!(
        "{:<36}{:>10}{:>14}{:>14}",
        "query", "truth", "coarse est", "refined est"
    );
    for (name, q) in [
        ("action movies (type=1)", &action),
        ("documentaries (type=4)", &documentary),
    ] {
        let truth = selectivity(&doc, q);
        let req = EstimateRequest::with_options(q, opts);
        let c = CompiledSynopsis::compile(&coarse).estimate(&req).estimate;
        let r = CompiledSynopsis::compile(&refined).estimate(&req).estimate;
        println!("{name:<36}{truth:>10}{c:>14.0}{r:>14.0}");
    }
    println!();
    println!(
        "coarse synopsis: {} bytes | refined synopsis: {} bytes",
        coarse.size_bytes(),
        refined.size_bytes()
    );
    println!(
        "The coarse synopsis scales both queries by the same per-movie tuple count;\n\
         the refined synopsis separates the large action joins from the tiny\n\
         documentary joins."
    );
}
