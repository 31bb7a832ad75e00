//! Integration: the observability layer end to end. The `Explain`
//! report's per-embedding contributions must sum to the estimate on all
//! three generators — an estimate that matches the interpreted test
//! oracle (`support::oracle`) to the bit, explain or not — the CLI must
//! render the report, and a served batch must leave non-zero counters
//! in the exported metrics.

mod support;

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use support::oracle;
use xtwig::core::estimate::{EstimateOptions, EstimateRequest, Estimator};
use xtwig::core::{coarse_synopsis, CompiledSynopsis};
use xtwig::datagen::Dataset;
use xtwig::workload::{generate_workload, WorkloadKind, WorkloadSpec};

fn explain_opts() -> EstimateOptions {
    EstimateOptions::builder().explain(true).build()
}

// ---------------------------------------------------------------------
// Library level: contributions sum to the estimate.
// ---------------------------------------------------------------------

#[test]
fn explain_contributions_sum_to_estimate_on_all_generators() {
    for ds in Dataset::ALL {
        let doc = ds.generate(0.02);
        let s = coarse_synopsis(&doc);
        let spec = WorkloadSpec {
            queries: 12,
            kind: WorkloadKind::Branching,
            seed: 0x51,
            ..Default::default()
        };
        let w = generate_workload(&doc, &spec);
        assert!(!w.queries.is_empty(), "{}: empty workload", ds.name());

        let cs = CompiledSynopsis::compile(&s);
        let opts = explain_opts();
        for q in &w.queries {
            let report = cs.estimate(&EstimateRequest::with_options(q, opts));
            let interp = oracle::estimate(&s, q, &opts);
            assert_eq!(
                report.estimate.to_bits(),
                interp.estimate.to_bits(),
                "{}: explain changed the estimate for {q}",
                ds.name()
            );
            let e = report
                .explain
                .as_ref()
                .unwrap_or_else(|| panic!("{}: explain requested but absent", ds.name()));
            assert_eq!(e.embeddings.len(), report.provenance.embeddings);
            assert_eq!(e.embeddings.len(), interp.provenance.embeddings);
            if e.final_clamp {
                // The sum was non-finite and replaced by the coarse
                // bound; contributions no longer add up by design.
                continue;
            }
            let sum: f64 = e.embeddings.iter().map(|c| c.contribution).sum();
            let tol = 1e-9_f64.max(report.estimate.abs() * 1e-12);
            assert!(
                (sum - report.estimate).abs() <= tol,
                "{}: contributions sum {sum} != estimate {} for {q}",
                ds.name(),
                report.estimate,
            );
        }
    }
}

#[test]
fn explain_is_absent_unless_requested() {
    let doc = Dataset::ALL[0].generate(0.01);
    let s = coarse_synopsis(&doc);
    let spec = WorkloadSpec {
        queries: 4,
        kind: WorkloadKind::Branching,
        seed: 0x52,
        ..Default::default()
    };
    let w = generate_workload(&doc, &spec);
    let cs = CompiledSynopsis::compile(&s);
    for q in &w.queries {
        let report = cs.estimate(&EstimateRequest::new(q));
        assert!(report.explain.is_none());
    }
}

// ---------------------------------------------------------------------
// CLI level: estimate --explain, serve --metrics-out, stats --metrics.
// ---------------------------------------------------------------------

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_xtwig-cli"))
}

fn run(args: &[&str]) -> Output {
    cli().args(args).output().expect("spawning xtwig-cli")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xtwig-explain-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("creating temp dir");
    dir
}

fn write_small_doc(dir: &Path) -> PathBuf {
    let path = dir.join("doc.xml");
    std::fs::write(
        &path,
        concat!(
            "<bib>",
            "<author><name/><paper><kw/><kw/></paper><paper><kw/></paper></author>",
            "<author><name/><paper><kw/></paper><book/></author>",
            "</bib>"
        ),
    )
    .expect("writing doc");
    path
}

const QUERY: &str = "for $t0 in //author, $t1 in $t0/paper, $t2 in $t1/kw";

/// Extracts the value of one counter from Prometheus text format.
fn prom_counter(prom: &str, name: &str) -> u64 {
    prom.lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("missing counter {name} in:\n{prom}"))
}

#[test]
fn cli_estimate_explain_prints_contributions_that_sum() {
    let dir = temp_dir("estimate");
    let doc = write_small_doc(&dir);

    let out = run(&["estimate", doc.to_str().unwrap(), QUERY, "--explain"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let text = stdout(&out);
    for needle in [
        "explain:",
        "maximal-twig embeddings expanded:",
        "contribution sum:",
        "assumptions: forward-uniformity",
        "tier path: xsketch: ok",
        "provenance: source=guarded, tier=xsketch",
        "timing: expand",
    ] {
        assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
    }

    // The printed contribution sum agrees with the printed estimate
    // (both are rounded for display, hence the loose tolerance).
    let estimate: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("estimate: "))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no estimate line in:\n{text}"));
    let sum: f64 = text
        .lines()
        .find_map(|l| l.trim().strip_prefix("contribution sum: "))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no contribution sum line in:\n{text}"));
    let tol = 0.06 + estimate.abs() * 1e-3;
    assert!(
        (sum - estimate).abs() <= tol,
        "printed sum {sum} vs estimate {estimate}"
    );
}

#[test]
fn cli_serve_exports_metrics_and_stats_reads_them() {
    let dir = temp_dir("serve");
    let doc = write_small_doc(&dir);
    let queries = dir.join("queries.txt");
    // Duplicated lines so the single-threaded batch produces cache hits.
    std::fs::write(
        &queries,
        format!("{QUERY}\n{QUERY}\nfor $t0 in //author, $t1 in $t0/name\n{QUERY}\n"),
    )
    .expect("writing queries");
    let prom_path = dir.join("metrics.prom");

    let out = run(&[
        "serve",
        doc.to_str().unwrap(),
        queries.to_str().unwrap(),
        "--threads",
        "1",
        "--metrics-out",
        prom_path.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(
        stdout(&out).contains("[cached]"),
        "duplicated query not served from cache:\n{}",
        stdout(&out)
    );

    let prom = std::fs::read_to_string(&prom_path).expect("metrics file");
    assert!(prom_counter(&prom, "xtwig_queries_estimated") >= 2);
    assert!(prom_counter(&prom, "xtwig_cache_inserts") >= 2);
    assert!(prom_counter(&prom, "xtwig_cache_hits") >= 2);
    assert!(prom_counter(&prom, "xtwig_cache_misses") >= 2);
    assert!(prom.contains("xtwig_estimate_latency_seconds_count"));
    assert!(prom.contains("xtwig_parse_latency_seconds_count"));

    // `stats --metrics` renders the same file for humans.
    let out = run(&["stats", "--metrics", prom_path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let text = stdout(&out);
    for needle in [
        "xtwig_cache_hits",
        "xtwig_queries_estimated",
        "xtwig_estimate_latency_seconds",
        "obs,",
    ] {
        assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
    }
}

#[test]
fn cli_serve_under_work_limit_exports_exhaustion_counters() {
    let dir = temp_dir("exhaust");
    let doc = write_small_doc(&dir);
    let queries = dir.join("queries.txt");
    std::fs::write(&queries, format!("{QUERY}\n")).expect("writing queries");
    let prom_path = dir.join("metrics.prom");

    let out = run(&[
        "serve",
        doc.to_str().unwrap(),
        queries.to_str().unwrap(),
        "--work-limit",
        "1",
        "--threads",
        "1",
        "--metrics-out",
        prom_path.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(3), "{}", stderr(&out));

    let prom = std::fs::read_to_string(&prom_path).expect("metrics file");
    assert!(prom_counter(&prom, "xtwig_meter_work_exhaustions") >= 1);
    assert!(prom_counter(&prom, "xtwig_degraded_results") >= 1);
    // Exhausted results must not be cached for reuse.
    assert_eq!(prom_counter(&prom, "xtwig_cache_inserts"), 0);
}
