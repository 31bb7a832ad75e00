//! Batch-serving profiler: where does cold `BatchServer::serve` time go?
//!
//! Ranks the workload's heaviest queries (per-query latency, embedding
//! count, metered work), then times repeated cold batches and dumps the
//! split/reuse telemetry. This is the tool behind DESIGN.md §8's
//! `batch_cold_qps` root-cause note: it separates first-touch expansion
//! (plan lowering, memo misses) from steady-state evaluation, and shows
//! whether the work-splitting path engaged at all (it cannot on a
//! single-hardware-thread host, where `available_parallelism() == 1`
//! forces the inline serial path).
//!
//! Usage: `cargo run --release -p xtwig-bench --bin probe_heavy`
//! (XMark at scale 0.25, 250 branching queries, seed 42 — the same
//! configuration as the committed `BENCH_estimation.json`).

use std::time::Instant;
use xtwig_core::construct::{xbuild, BuildOptions, TruthSource};
use xtwig_core::{BatchServer, CompiledSynopsis, EstimateCache, EstimateOptions};
use xtwig_datagen::{xmark, XMarkConfig};
use xtwig_workload::{generate_workload, WorkloadKind, WorkloadSpec};

fn main() {
    let doc = xmark(XMarkConfig {
        scale: 0.25,
        seed: 42,
    });
    let coarse = xtwig_core::coarse_synopsis(&doc);
    let opts_b = BuildOptions {
        budget_bytes: coarse.size_bytes() + 5120,
        ..Default::default()
    };
    let (s, _) = xbuild(&doc, TruthSource::Exact, &opts_b);
    let spec = WorkloadSpec {
        queries: 250,
        kind: WorkloadKind::Branching,
        seed: 42,
        ..Default::default()
    };
    let w = generate_workload(&doc, &spec);
    let cs = CompiledSynopsis::compile(&s);
    let opts = EstimateOptions::default();

    // First serial pass is cold on the expansion memo: per-query time
    // here is expansion + evaluation. The sorted tail exposes the heavy
    // deep-recursion queries.
    let mut times: Vec<(u128, String)> = Vec::new();
    for q in &w.queries {
        let t = Instant::now();
        let r = cs.estimate_report(q, &opts);
        let dt = t.elapsed().as_micros();
        times.push((
            dt,
            format!(
                "{} emb={} work={}",
                q, r.provenance.embeddings, r.provenance.work
            ),
        ));
    }
    times.sort_by_key(|t| std::cmp::Reverse(t.0));
    println!("# heaviest queries (cold: expansion + eval)");
    for (t, d) in times.iter().take(6) {
        println!("{t:>8}us  {d}");
    }
    let total: u128 = times.iter().map(|t| t.0).sum();
    println!(
        "# serial cold total: {}us over {} queries",
        total,
        times.len()
    );

    // Batch trials run against the now-warm expansion memo, so they
    // isolate evaluation + scheduling; a fresh cache per trial keeps
    // the report path honest (no report-level hits).
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    println!("# available_parallelism = {threads}");
    for trial in 0..3 {
        let cache = EstimateCache::new(4096);
        let t = Instant::now();
        let _ = BatchServer::new(&cs)
            .with_options(opts)
            .with_cache(&cache)
            .with_threads(threads)
            .serve(&w.queries);
        println!(
            "# trial {trial}: batch (warm memo) {}us -> {:.0} qps",
            t.elapsed().as_micros(),
            w.queries.len() as f64 / t.elapsed().as_secs_f64()
        );
    }
    let tg = xtwig_core::telemetry::global();
    println!(
        "# batch_splits={} batch_plan_reuses={}",
        tg.batch_splits.get(),
        tg.batch_plan_reuses.get()
    );
}
