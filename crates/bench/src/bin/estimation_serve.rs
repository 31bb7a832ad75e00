//! Serving-path throughput benchmark across all three generators,
//! emitting `BENCH_estimation.json` so every PR has a perf trajectory.
//! Every number is an absolute latency or throughput of the production
//! evaluator; none is a ratio against another path.
//!
//! Per dataset it measures:
//!
//! * **single-query throughput** — repeated `Estimator::estimate` calls
//!   on a warm expansion memo;
//! * **serve latency** — per-query p50/p95/p99, plus per-stage
//!   breakdowns (expansion vs. TREEPARSE evaluation) taken from each
//!   [`xtwig_core::EstimateReport`]'s query telemetry;
//! * **batch throughput** — `BatchServer` QPS on scoped threads with
//!   the sharded estimate cache, cold then warm, plus the cache hit-rate;
//! * **multi-tenant throughput** — four resident tenants served
//!   concurrently through `SnapshotCatalog::serve`;
//! * **cold first answer** — the median, over repeated fresh loads, of
//!   a verified v3 read (`read_compiled_snapshot_in`, the read behind
//!   the catalog's fault-in) followed by the first `estimate_report` on
//!   its cold memo (`cold_first_answer_us`).
//!
//! Correctness: every query's estimate from a v3 snapshot loaded with
//! `load_compiled_arena` must equal the in-memory
//! `CompiledSynopsis::compile` estimate bit for bit, as must every cold
//! first answer, and the warm batch (cache hits) must return the cold
//! batch's bits. Any disagreement is counted in `mismatches` and fails
//! the run.
//!
//! Environment: the usual `XTWIG_SCALE` / `XTWIG_QUERIES`, plus
//! `XTWIG_BENCH_OUT` (output path, default `BENCH_estimation.json`).

use std::sync::Arc;
use std::time::Instant;
use xtwig_bench::BenchConfig;
use xtwig_core::construct::BuildOptions;
use xtwig_core::{
    load_compiled_arena, read_compiled_snapshot_in, save_synopsis_v3, xbuild, AlignedBytes,
    BatchServer, CatalogOptions, CompiledSynopsis, EstimateCache, EstimateOptions, EstimateRequest,
    Estimator, SnapshotCatalog, StdVfs, TruthSource,
};
use xtwig_datagen::Dataset;
use xtwig_workload::{generate_workload, WorkloadKind, WorkloadSpec};

/// Per-dataset measurements destined for the JSON report.
struct DatasetReport {
    name: String,
    queries: usize,
    compiled_qps: f64,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
    expand_us_p50: f64,
    expand_us_p95: f64,
    eval_us_p50: f64,
    eval_us_p95: f64,
    batch_cold_qps: f64,
    batch_warm_qps: f64,
    cache_hit_rate: f64,
    multi_tenant_qps: f64,
    cold_first_answer_us: f64,
    mismatches: usize,
}

/// Fresh loads timed per dataset for the cold-first-answer medians.
const COLD_LOADS: usize = 25;

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn main() {
    let cfg = BenchConfig::from_env();
    cfg.announce("Serving-path throughput of the compiled evaluator");
    let out_path =
        std::env::var("XTWIG_BENCH_OUT").unwrap_or_else(|_| "BENCH_estimation.json".to_string());
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let mut reports: Vec<DatasetReport> = Vec::new();
    let mut total_mismatches = 0usize;

    for ds in Dataset::ALL {
        let doc = ds.generate(cfg.scale);
        let build = BuildOptions {
            budget_bytes: 24 * 1024,
            refinements_per_round: 4,
            candidates_per_round: 8,
            sample_queries: 12,
            max_rounds: 40,
            ..Default::default()
        };
        let (s, _) = xbuild(&doc, TruthSource::Exact, &build);
        let spec = WorkloadSpec {
            queries: cfg.queries,
            kind: WorkloadKind::Branching,
            seed: 0x5E,
            ..Default::default()
        };
        let w = generate_workload(&doc, &spec);
        if w.queries.is_empty() {
            eprintln!("warning: {} produced no workload at this scale", ds.name());
            continue;
        }
        let opts = EstimateOptions::default();
        let cs = CompiledSynopsis::compile(&s);

        // --- bit-identity: v3 snapshot load vs in-memory compile --------
        let arena = Arc::new(AlignedBytes::from_bytes(&save_synopsis_v3(&s)));
        let loaded = load_compiled_arena(arena).expect("v3 snapshot loads");
        let mut mismatches = 0usize;
        for q in &w.queries {
            let req = EstimateRequest::with_options(q, opts);
            let a = cs.estimate(&req).estimate;
            let b = loaded.estimate(&req).estimate;
            if a.to_bits() != b.to_bits() {
                eprintln!(
                    "MISMATCH {}: compiled {a} vs loaded v3 {b} for {q}",
                    ds.name()
                );
                mismatches += 1;
            }
        }

        // --- single-query throughput -----------------------------------
        // The subset keeps the repeat loop affordable while the full
        // workload still feeds the batch phases below. The agreement
        // pass above warmed the expansion memo; repeat to smooth timer
        // noise.
        let subset: Vec<_> = w.queries.iter().take(64).cloned().collect();
        let repeats = 5usize;
        let t0 = Instant::now();
        for _ in 0..repeats {
            for q in &subset {
                std::hint::black_box(
                    cs.estimate(&EstimateRequest::with_options(q, opts))
                        .estimate,
                );
            }
        }
        let compiled_secs = t0.elapsed().as_secs_f64();
        let calls = (repeats * subset.len()) as f64;
        let compiled_qps = calls / compiled_secs.max(1e-9);

        // --- serve latency distribution (compiled, single thread) ------
        // Wall latency from the clock, per-stage split from the report's
        // query telemetry (expansion vs. TREEPARSE evaluation).
        let mut lat_us: Vec<f64> = Vec::with_capacity(subset.len());
        let mut expand_us: Vec<f64> = Vec::with_capacity(subset.len());
        let mut eval_us: Vec<f64> = Vec::with_capacity(subset.len());
        for q in &subset {
            let t = Instant::now();
            let rep = std::hint::black_box(cs.estimate_report(q, &opts));
            lat_us.push(t.elapsed().as_secs_f64() * 1e6);
            expand_us.push(rep.telemetry.expand_ns as f64 / 1e3);
            eval_us.push(rep.telemetry.eval_ns as f64 / 1e3);
        }
        lat_us.sort_by(f64::total_cmp);
        expand_us.sort_by(f64::total_cmp);
        eval_us.sort_by(f64::total_cmp);

        // --- batched serving through the cache --------------------------
        let cache = EstimateCache::new(4096);
        let tb = Instant::now();
        let cold = BatchServer::new(&cs)
            .with_cache(&cache)
            .with_options(opts)
            .with_threads(threads)
            .serve(&w.queries);
        let cold_secs = tb.elapsed().as_secs_f64();
        let tw = Instant::now();
        let warm = BatchServer::new(&cs)
            .with_cache(&cache)
            .with_options(opts)
            .with_threads(threads)
            .serve(&w.queries);
        let warm_secs = tw.elapsed().as_secs_f64();
        for (a, b) in cold.iter().zip(&warm) {
            if a.estimate.to_bits() != b.estimate.to_bits() {
                eprintln!("MISMATCH {}: cold vs warm batch estimate", ds.name());
                mismatches += 1;
            }
        }
        let stats = cache.stats();

        // --- multi-tenant catalog throughput ---------------------------
        // Four resident tenants served concurrently through the catalog
        // front door (admission + per-document cache partitions on top
        // of the same compiled path).
        let tenants = 4usize;
        let cat_dir = std::env::temp_dir().join(format!(
            "xtwig-bench-catalog-{}-{}",
            std::process::id(),
            ds.name()
        ));
        let _ = std::fs::remove_dir_all(&cat_dir);
        let catalog = SnapshotCatalog::open(&cat_dir, CatalogOptions::default());
        for t in 0..tenants {
            let name = format!("tenant-{t}");
            catalog.publish(&name, "main", &s).expect("publish");
            catalog.warm(&name, "main").expect("warm");
        }
        let tm = Instant::now();
        std::thread::scope(|scope| {
            for t in 0..tenants {
                let catalog = &catalog;
                let w = &w;
                let opts = &opts;
                scope.spawn(move || {
                    let name = format!("tenant-{t}");
                    std::hint::black_box(
                        catalog
                            .serve(&name, "main", &w.queries, opts)
                            .expect("tenant serve"),
                    );
                });
            }
        });
        let mt_secs = tm.elapsed().as_secs_f64();
        let multi_tenant_qps = (tenants * w.queries.len()) as f64 / mt_secs.max(1e-9);
        let _ = std::fs::remove_dir_all(&cat_dir);

        // --- cold first answer: fresh load, then one cold-memo answer ---
        // Each load answers a different workload query, so the median is
        // not one query's cost.
        let snap_dir = std::env::temp_dir().join(format!(
            "xtwig-bench-cold-{}-{}",
            std::process::id(),
            ds.name()
        ));
        let _ = std::fs::remove_dir_all(&snap_dir);
        std::fs::create_dir_all(&snap_dir).expect("snapshot dir");
        let v3_path = snap_dir.join("s.v3.xtwg");
        std::fs::write(&v3_path, save_synopsis_v3(&s)).expect("write v3");
        let mut cold_us: Vec<f64> = Vec::with_capacity(COLD_LOADS);
        for i in 0..COLD_LOADS {
            let q = &w.queries[i % w.queries.len()];
            let expect = cs.estimate_report(q, &opts).estimate;
            let t = Instant::now();
            let loaded = read_compiled_snapshot_in(&StdVfs, &v3_path).expect("v3 read");
            let a = loaded.estimate_report(q, &opts).estimate;
            cold_us.push(t.elapsed().as_secs_f64() * 1e6);
            if a.to_bits() != expect.to_bits() {
                eprintln!(
                    "MISMATCH {}: cold v3 first answer {a} vs compiled {expect} for {q}",
                    ds.name()
                );
                mismatches += 1;
            }
        }
        let _ = std::fs::remove_dir_all(&snap_dir);
        cold_us.sort_by(f64::total_cmp);

        total_mismatches += mismatches;
        let rep = DatasetReport {
            name: ds.name().to_string(),
            queries: w.queries.len(),
            compiled_qps,
            p50_us: percentile(&lat_us, 0.50),
            p95_us: percentile(&lat_us, 0.95),
            p99_us: percentile(&lat_us, 0.99),
            expand_us_p50: percentile(&expand_us, 0.50),
            expand_us_p95: percentile(&expand_us, 0.95),
            eval_us_p50: percentile(&eval_us, 0.50),
            eval_us_p95: percentile(&eval_us, 0.95),
            batch_cold_qps: w.queries.len() as f64 / cold_secs.max(1e-9),
            batch_warm_qps: w.queries.len() as f64 / warm_secs.max(1e-9),
            cache_hit_rate: stats.hit_rate(),
            multi_tenant_qps,
            cold_first_answer_us: percentile(&cold_us, 0.50),
            mismatches,
        };
        println!(
            "## {}: {:.0} qps single, p50 {:.1}us p95 {:.1}us p99 {:.1}us \
             (expand p50 {:.1}us / eval p50 {:.1}us), batch {:.0} -> {:.0} qps warm, \
             hit-rate {:.2}, {:.0} qps multi-tenant, cold first answer {:.1}us, \
             mismatches {}",
            rep.name,
            rep.compiled_qps,
            rep.p50_us,
            rep.p95_us,
            rep.p99_us,
            rep.expand_us_p50,
            rep.eval_us_p50,
            rep.batch_cold_qps,
            rep.batch_warm_qps,
            rep.cache_hit_rate,
            rep.multi_tenant_qps,
            rep.cold_first_answer_us,
            rep.mismatches,
        );
        reports.push(rep);
    }

    // --- JSON report ----------------------------------------------------
    let mut json = String::from("{\n  \"bench\": \"estimation_serve\",\n  \"datasets\": [\n");
    for (i, r) in reports.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"queries\": {}, \"compiled_qps\": {:.1}, \
             \"p50_us\": {:.2}, \"p95_us\": {:.2}, \"p99_us\": {:.2}, \
             \"expand_us_p50\": {:.2}, \"expand_us_p95\": {:.2}, \
             \"eval_us_p50\": {:.2}, \"eval_us_p95\": {:.2}, \
             \"batch_cold_qps\": {:.1}, \"batch_warm_qps\": {:.1}, \
             \"cache_hit_rate\": {:.4}, \"multi_tenant_qps\": {:.1}, \
             \"cold_first_answer_us\": {:.2}, \
             \"mismatches\": {}}}{}\n",
            r.name,
            r.queries,
            r.compiled_qps,
            r.p50_us,
            r.p95_us,
            r.p99_us,
            r.expand_us_p50,
            r.expand_us_p95,
            r.eval_us_p50,
            r.eval_us_p95,
            r.batch_cold_qps,
            r.batch_warm_qps,
            r.cache_hit_rate,
            r.multi_tenant_qps,
            r.cold_first_answer_us,
            r.mismatches,
            if i + 1 < reports.len() { "," } else { "" },
        ));
    }
    json.push_str(&format!(
        "  ],\n  \"available_parallelism\": {threads},\n  \"total_mismatches\": {total_mismatches}\n}}\n"
    ));
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("failed to write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("# wrote {out_path}");

    if total_mismatches > 0 {
        eprintln!("FAIL: {total_mismatches} estimate disagreements");
        std::process::exit(1);
    }
}
