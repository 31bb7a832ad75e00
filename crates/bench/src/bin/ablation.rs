//! Ablations over the design choices DESIGN.md calls out:
//!
//! 1. **Scope vs. resolution** — at a fixed per-node histogram budget, is
//!    it better to spend bytes on more dimensions (correlations) or more
//!    buckets (marginal resolution)? (The tension behind `edge-expand`
//!    vs. `edge-refine`.)
//! 2. **Strict TSN vs. relaxed forward candidates** — the paper restricts
//!    histogram dimensions to provably-existing paths; our default also
//!    admits non-F-stable child edges (zero counts are representable).
//! 3. **Refinements per round** — XBUILD fidelity (1 refinement/round, as
//!    in the paper) vs. batched application (4/round).
//! 4. **Truth source** — scoring refinements against exact counts vs. a
//!    reference summary (§5's choice).
//! 5. **Histograms vs. wavelets** — the §3.3 "histograms or wavelets"
//!    alternative, compared as 1-D count-distribution summarizers at
//!    equal storage.

use xtwig_bench::{pct, row, BenchConfig};
use xtwig_core::construct::{xbuild, BuildOptions, TruthSource};
use xtwig_core::estimate::EstimateOptions;
use xtwig_core::synopsis::{DimKind, ScopeDim};
use xtwig_core::{coarse_synopsis, CompiledSynopsis, EstimateRequest, Estimator};
use xtwig_datagen::{imdb, Dataset, ImdbConfig};
use xtwig_histogram::{MdHistogram, WaveletSummary};
use xtwig_workload::{avg_relative_error, generate_workload, WorkloadKind, WorkloadSpec};

fn main() {
    let cfg = BenchConfig::from_env();
    cfg.announce("Ablations");
    scope_vs_resolution();
    strict_tsn(&cfg);
    refinements_per_round(&cfg);
    truth_source(&cfg);
    wavelets_vs_histograms();
}

/// Fixed bytes on the movie node: 2 count dims + value dim vs. 1 count
/// dim with more buckets, on the genre-correlated join.
fn scope_vs_resolution() {
    println!("\n## 1. scope (dims) vs resolution (buckets) at equal bytes");
    let doc = imdb(ImdbConfig {
        movies: 1200,
        seed: 5,
    });
    let q = xtwig_query::parse_twig(
        "for $t0 in //movie[type = 1], $t1 in $t0/actor, $t2 in $t0/producer",
    )
    .unwrap();
    let truth = xtwig_query::selectivity(&doc, &q) as f64;
    let s0 = coarse_synopsis(&doc);
    let movie = s0.nodes_with_tag("movie")[0];
    let actor = s0.nodes_with_tag("actor")[0];
    let producer = s0.nodes_with_tag("producer")[0];
    let typ = s0.nodes_with_tag("type")[0];
    let opts = EstimateOptions::default();
    let fwd = |c| ScopeDim {
        parent: movie,
        child: c,
        kind: DimKind::Forward,
    };
    let val = |c| ScopeDim {
        parent: movie,
        child: c,
        kind: DimKind::Value,
    };
    let budget = 512;
    println!("{:<44}{:>12}{:>12}", "variant", "estimate", "rel.err");
    for (name, scope) in [
        ("1 dim (actor), max buckets", vec![fwd(actor)]),
        ("2 dims (actor, producer)", vec![fwd(actor), fwd(producer)]),
        (
            "3 dims (actor, producer, type-value)",
            vec![fwd(actor), fwd(producer), val(typ)],
        ),
    ] {
        let mut s = s0.clone();
        s.set_edge_hist(&doc, movie, scope, budget);
        let est = CompiledSynopsis::compile(&s)
            .estimate(&EstimateRequest::with_options(&q, opts))
            .estimate;
        let err = (est - truth).abs() / truth;
        println!("{name:<44}{est:>12.0}{:>12}", pct(err));
        row(&[
            "scope_vs_res".into(),
            name.into(),
            format!("{est:.0}"),
            format!("{err:.4}"),
        ]);
    }
    println!("(truth = {truth:.0}; correlation dims beat marginal resolution)");
}

fn build_and_score(
    doc: &xtwig_xml::Document,
    budget: usize,
    build: BuildOptions,
    w: &xtwig_workload::Workload,
) -> (f64, usize) {
    let build = BuildOptions {
        budget_bytes: budget,
        ..build
    };
    let (s, _) = xbuild(doc, TruthSource::Exact, &build);
    let compiled = CompiledSynopsis::compile(&s);
    let est: Vec<f64> = w
        .queries
        .iter()
        .map(|q| {
            compiled
                .estimate(&EstimateRequest::with_options(q, build.estimate))
                .estimate
        })
        .collect();
    let truths: Vec<f64> = w.truths.iter().map(|&t| t as f64).collect();
    (
        avg_relative_error(&est, &truths).avg_rel_error,
        s.size_bytes(),
    )
}

fn strict_tsn(cfg: &BenchConfig) {
    println!("\n## 2. strict TSN (paper) vs relaxed forward candidates (default)");
    let doc = Dataset::Imdb.generate(cfg.scale.min(0.1));
    let spec = WorkloadSpec {
        queries: cfg.queries.min(120),
        kind: WorkloadKind::Branching,
        seed: 11,
        ..Default::default()
    };
    let w = generate_workload(&doc, &spec);
    let budget = coarse_synopsis(&doc).size_bytes() + 2000;
    for (name, strict) in [("strict TSN", true), ("relaxed (default)", false)] {
        let build = BuildOptions {
            strict_tsn: strict,
            refinements_per_round: 2,
            max_rounds: 200,
            ..Default::default()
        };
        let (err, size) = build_and_score(&doc, budget, build, &w);
        println!("{name:<24} error {:>8}  ({size} bytes)", pct(err));
        row(&[
            "strict_tsn".into(),
            name.into(),
            format!("{err:.4}"),
            size.to_string(),
        ]);
    }
}

fn refinements_per_round(cfg: &BenchConfig) {
    println!("\n## 3. refinements applied per XBUILD round");
    let doc = Dataset::Imdb.generate(cfg.scale.min(0.1));
    let spec = WorkloadSpec {
        queries: cfg.queries.min(120),
        kind: WorkloadKind::Branching,
        seed: 12,
        ..Default::default()
    };
    let w = generate_workload(&doc, &spec);
    let budget = coarse_synopsis(&doc).size_bytes() + 2000;
    for k in [1usize, 2, 4, 8] {
        let build = BuildOptions {
            refinements_per_round: k,
            max_rounds: 600,
            ..Default::default()
        };
        let start = std::time::Instant::now();
        let (err, size) = build_and_score(&doc, budget, build, &w);
        println!(
            "k={k:<3} error {:>8}  ({size} bytes, {:?})",
            pct(err),
            start.elapsed()
        );
        row(&[
            "per_round".into(),
            k.to_string(),
            format!("{err:.4}"),
            size.to_string(),
        ]);
    }
}

fn truth_source(cfg: &BenchConfig) {
    println!("\n## 4. truth source for XBUILD scoring");
    let doc = Dataset::Imdb.generate(cfg.scale.min(0.1));
    let spec = WorkloadSpec {
        queries: cfg.queries.min(120),
        kind: WorkloadKind::Branching,
        seed: 13,
        ..Default::default()
    };
    let w = generate_workload(&doc, &spec);
    let truths: Vec<f64> = w.truths.iter().map(|&t| t as f64).collect();
    let coarse = coarse_synopsis(&doc).size_bytes();
    let budget = coarse + 1600;

    // Exact truth.
    let build = BuildOptions {
        budget_bytes: budget,
        refinements_per_round: 2,
        max_rounds: 300,
        ..Default::default()
    };
    let (exact_built, _) = xbuild(&doc, TruthSource::Exact, &build);
    // Reference truth: a larger synopsis built first.
    let ref_build = BuildOptions {
        budget_bytes: coarse + 5000,
        refinements_per_round: 4,
        max_rounds: 300,
        ..Default::default()
    };
    let (reference, _) = xbuild(&doc, TruthSource::Exact, &ref_build);
    let (ref_built, _) = xbuild(&doc, TruthSource::Reference(&reference), &build);

    for (name, s) in [
        ("exact counts", &exact_built),
        ("reference summary", &ref_built),
    ] {
        let compiled = CompiledSynopsis::compile(s);
        let est: Vec<f64> = w
            .queries
            .iter()
            .map(|q| compiled.estimate(&EstimateRequest::new(q)).estimate)
            .collect();
        let err = avg_relative_error(&est, &truths).avg_rel_error;
        println!(
            "{name:<24} error {:>8}  ({} bytes)",
            pct(err),
            s.size_bytes()
        );
        row(&["truth_source".into(), name.into(), format!("{err:.4}")]);
    }
}

/// 1-D count-distribution summarizers at equal storage: bucket histograms
/// vs. Haar wavelets, on real per-node distributions from the IMDB
/// document (error of the reconstructed mean `Σ f·c`).
fn wavelets_vs_histograms() {
    println!("\n## 5. histograms vs wavelets as 1-D count summarizers");
    let doc = imdb(ImdbConfig {
        movies: 1500,
        seed: 6,
    });
    let s = coarse_synopsis(&doc);
    let movie = s.nodes_with_tag("movie")[0];
    let mut rows = Vec::new();
    for &child in s.children_of(movie) {
        let scope = vec![ScopeDim {
            parent: movie,
            child,
            kind: DimKind::Forward,
        }];
        let dist = s.edge_distribution(&doc, movie, &scope);
        let exact = dist.expectation_product(&[0]);
        if exact == 0.0 {
            continue;
        }
        for bytes in [32usize, 64] {
            let h = MdHistogram::build(&dist, bytes);
            let wv = WaveletSummary::build_bytes(&dist, bytes);
            let herr = (h.expectation_product(&[0]) - exact).abs() / exact;
            let werr = (wv.expectation() - exact).abs() / exact;
            rows.push((s.tag(child).to_owned(), bytes, herr, werr));
        }
    }
    println!(
        "{:<12}{:>8}{:>14}{:>14}",
        "edge", "bytes", "hist err", "wavelet err"
    );
    for (tag, bytes, herr, werr) in &rows {
        println!("{tag:<12}{bytes:>8}{:>14}{:>14}", pct(*herr), pct(*werr));
        row(&[
            "wavelet".into(),
            tag.clone(),
            bytes.to_string(),
            format!("{herr:.4}"),
            format!("{werr:.4}"),
        ]);
    }
}
