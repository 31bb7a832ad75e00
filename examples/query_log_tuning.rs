//! Workload-aware statistics: tune the synopsis to an application's
//! query log instead of XBUILD's self-sampled twigs.
//!
//! The paper's XBUILD samples its scoring workload around the refined
//! regions (§5) — a reasonable prior when nothing is known about the
//! queries. Real optimizers *do* know: they have a log. This example
//! builds two synopses at the same byte budget — one blind, one tuned to
//! a small log of rush-order queries — and compares their accuracy on
//! that log and on unrelated queries.
//!
//! Run with `cargo run --release --example query_log_tuning`.

use xtwig::core::construct::{xbuild_from, xbuild_from_with_workload, BuildOptions, TruthSource};
use xtwig::datagen::{imdb, ImdbConfig};
use xtwig::prelude::*;

fn main() {
    let doc = imdb(ImdbConfig {
        movies: 1000,
        seed: 13,
    });
    println!("catalog: {} elements", doc.len());

    // The application's log: genre-predicated cast joins.
    let log: Vec<TwigQuery> = [
        "for $t0 in //movie[type = 1], $t1 in $t0/actor, $t2 in $t0/producer",
        "for $t0 in //movie[type = 4], $t1 in $t0/actor",
        "for $t0 in //movie[type = 2], $t1 in $t0/keyword, $t2 in $t0/producer",
    ]
    .iter()
    .map(|t| parse_twig(t).expect("log query parses"))
    .collect();
    // Control queries the log never asks.
    let control: Vec<TwigQuery> = [
        "for $t0 in //movie, $t1 in $t0/director",
        "for $t0 in //review, $t1 in $t0/rating",
    ]
    .iter()
    .map(|t| parse_twig(t).expect("control query parses"))
    .collect();

    let coarse = coarse_synopsis(&doc);
    let opts = BuildOptions {
        budget_bytes: coarse.size_bytes() + 2500,
        refinements_per_round: 2,
        workload_with_values: true,
        max_rounds: 150,
        ..Default::default()
    };
    let (blind, _) = xbuild_from(coarse.clone(), &doc, TruthSource::Exact, &opts);
    let (tuned, _) = xbuild_from_with_workload(coarse, &doc, TruthSource::Exact, &opts, &log);

    let e = EstimateOptions::default();
    let score = |s: &Synopsis, qs: &[TwigQuery]| -> f64 {
        let cs = CompiledSynopsis::compile(s);
        qs.iter()
            .map(|q| {
                let t = selectivity(&doc, q) as f64;
                let est = cs.estimate(&EstimateRequest::with_options(q, e)).estimate;
                (est - t).abs() / t.max(1.0)
            })
            .sum::<f64>()
            / qs.len() as f64
    };
    println!(
        "{:<28}{:>14}{:>14}",
        "synopsis (same budget)", "log error", "control error"
    );
    println!(
        "{:<28}{:>13.1}%{:>13.1}%",
        "blind (paper §5)",
        100.0 * score(&blind, &log),
        100.0 * score(&blind, &control)
    );
    println!(
        "{:<28}{:>13.1}%{:>13.1}%",
        "tuned to the log",
        100.0 * score(&tuned, &log),
        100.0 * score(&tuned, &control)
    );
    println!(
        "\nThe tuned synopsis spends the same bytes where the log needs them;\n\
         control queries show what that focus costs elsewhere."
    );
}
