//! Using Twig XSKETCH estimates the way an optimizer would (§1: twig
//! queries "represent the equivalent of the SQL FROM clause in the XML
//! world"): rank alternative twig evaluation orders by estimated
//! intermediate-result size and check the ranking against exact counts.
//!
//! For a twig `root → {b1, b2, b3}`, a structural-join plan evaluates the
//! branches in some order; the cheapest plan grows intermediate results
//! as late as possible, i.e. joins the most selective (smallest
//! fan-out) branches first. The example costs every branch prefix with
//! the synopsis and compares the chosen order against the ground truth.
//!
//! Run with `cargo run --release --example optimizer_costing`.

use xtwig::datagen::{xmark, XMarkConfig};
use xtwig::prelude::*;

fn main() {
    let doc = xmark(XMarkConfig {
        scale: 0.1,
        seed: 7,
    });
    println!("XMark document: {} elements", doc.len());

    let coarse = coarse_synopsis(&doc);
    let build = BuildOptions {
        budget_bytes: coarse.size_bytes() + 1024,
        refinements_per_round: 2,
        max_rounds: 80,
        ..Default::default()
    };
    let (synopsis, _) = xbuild(&doc, TruthSource::Exact, &build);
    let opts = EstimateOptions::default();

    // Candidate branches under //open_auction.
    let branches = ["bidder", "annotation", "interval/start", "seller"];
    println!("\nbranch fan-out estimates under //open_auction:");
    let base = parse_twig("for $t0 in //open_auction").unwrap();
    let estimator = CompiledSynopsis::compile(&synopsis);
    let base_est = estimator
        .estimate(&EstimateRequest::with_options(&base, opts))
        .estimate;
    let base_truth = selectivity(&doc, &base) as f64;
    println!("  |//open_auction| = {base_truth} (est {base_est:.1})");

    let mut ranked: Vec<(f64, f64, &str)> = Vec::new();
    for b in branches {
        let q = parse_twig(&format!("for $t0 in //open_auction, $t1 in $t0/{b}")).unwrap();
        let est = estimator
            .estimate(&EstimateRequest::with_options(&q, opts))
            .estimate;
        let truth = selectivity(&doc, &q) as f64;
        ranked.push((est / base_est.max(1.0), truth / base_truth.max(1.0), b));
    }
    ranked.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    println!(
        "\n{:<20}{:>16}{:>16}",
        "branch", "est fan-out", "true fan-out"
    );
    for (est, truth, b) in &ranked {
        println!("{b:<20}{est:>16.3}{truth:>16.3}");
    }
    let plan: Vec<&str> = ranked.iter().map(|r| r.2).collect();
    println!(
        "\nchosen join order (most selective first): {}",
        plan.join(" -> ")
    );

    // Verify the chosen order is optimal w.r.t. exact fan-outs: the
    // estimated ranking must be monotone in the true ranking.
    let mut truths: Vec<f64> = ranked.iter().map(|r| r.1).collect();
    let sorted = {
        let mut t = truths.clone();
        t.sort_by(|a, b| a.partial_cmp(b).unwrap());
        t
    };
    let inversions = truths.windows(2).filter(|w| w[0] > w[1] + 1e-9).count();
    truths.sort_by(|a, b| a.partial_cmp(b).unwrap());
    println!(
        "ranking inversions vs ground truth: {inversions} (0 = optimal order); \
         true fan-outs sorted: {sorted:?}"
    );
}
