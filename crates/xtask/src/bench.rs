//! `xtask bench-check` — a perf-ratchet gate over the serving benchmark.
//!
//! `estimation_serve` (crates/bench) writes `BENCH_estimation.json`;
//! this command compares a freshly generated report against the
//! committed baseline (`ci/bench_baseline.json`, captured at the same
//! CI scale) and fails when the serving path regresses past a
//! tolerance band:
//!
//! | metric                      | bound                       |
//! |-----------------------------|-----------------------------|
//! | `total_mismatches`          | exactly 0 (bit-identity)    |
//! | per-dataset `batch_cold_qps`| ≥ baseline × 0.35           |
//! | per-dataset `expand_us_p95` | ≤ baseline × 4.00           |
//! | per-dataset `eval_us_p95`   | ≤ baseline × 4.00           |
//! | per-dataset `multi_tenant_qps`  | ≥ baseline × 0.35       |
//! | per-dataset `cold_first_answer_us` | ≤ baseline × 4.00    |
//!
//! Every band is on an absolute latency or throughput of the production
//! path, never a ratio against a neighbouring path. The bands are
//! deliberately loose — shared CI runners jitter — while still catching
//! the step-function regressions that matter: a re-serialized batch
//! (cold QPS drops by an order of magnitude, the DESIGN.md §8 anomaly),
//! a lost vectorization or an accidental O(n²) in expansion/evaluation
//! (p95 explodes), or a cold fault-in that decodes more than it needs
//! (the first answer from a fresh verified v3 read slows down).
//! Ratchet the baseline *up* after a real improvement with
//! `--update-baseline`, which copies the current report over it.
//!
//! The JSON "parser" below is a field extractor for the flat schema
//! `estimation_serve` emits (no external deps by policy); it is not a
//! general JSON reader and does not try to be.

use std::path::PathBuf;
use std::process::ExitCode;

/// Default current-report path (what `estimation_serve` writes).
const CURRENT_PATH: &str = "BENCH_estimation.json";
/// Default committed baseline path.
const BASELINE_PATH: &str = "ci/bench_baseline.json";

/// Allowed shrink of per-dataset `batch_cold_qps` relative to baseline.
const COLD_QPS_TOLERANCE: f64 = 0.35;
/// Allowed growth of per-dataset latencies (stage p95s, cold first
/// answer) relative to baseline.
const LATENCY_TOLERANCE: f64 = 4.00;

/// One dataset's metrics pulled out of the report.
#[derive(Debug, Clone, PartialEq)]
struct DatasetMetrics {
    name: String,
    batch_cold_qps: Option<f64>,
    expand_us_p95: Option<f64>,
    eval_us_p95: Option<f64>,
    multi_tenant_qps: Option<f64>,
    cold_first_answer_us: Option<f64>,
}

/// The whole report, as far as the ratchet cares.
#[derive(Debug, Clone, PartialEq)]
struct BenchReport {
    total_mismatches: Option<f64>,
    datasets: Vec<DatasetMetrics>,
}

/// Entry point for `cargo run -p xtask -- bench-check`.
pub fn run(args: &[String]) -> ExitCode {
    let mut current_path: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut update = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--update-baseline" => update = true,
            "--current" => {
                i += 1;
                match args.get(i) {
                    Some(p) => current_path = Some(p.clone()),
                    None => {
                        eprintln!("--current needs a file argument");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--baseline" => {
                i += 1;
                match args.get(i) {
                    Some(p) => baseline_path = Some(p.clone()),
                    None => {
                        eprintln!("--baseline needs a file argument");
                        return ExitCode::FAILURE;
                    }
                }
            }
            other => {
                eprintln!("unknown bench-check flag `{other}`");
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }
    let current_path = current_path.map_or_else(|| PathBuf::from(CURRENT_PATH), PathBuf::from);
    let baseline_path = baseline_path.map_or_else(|| PathBuf::from(BASELINE_PATH), PathBuf::from);

    let current_text = match std::fs::read_to_string(&current_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!(
                "bench-check: reading {} (generate it with the estimation_serve bench): {e}",
                current_path.display()
            );
            return ExitCode::FAILURE;
        }
    };

    if update {
        if let Some(dir) = baseline_path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        return match std::fs::write(&baseline_path, &current_text) {
            Ok(()) => {
                println!(
                    "bench-check: baseline ratcheted -> {}",
                    baseline_path.display()
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("bench-check: writing {}: {e}", baseline_path.display());
                ExitCode::FAILURE
            }
        };
    }

    let baseline_text = match std::fs::read_to_string(&baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench-check: reading {}: {e}", baseline_path.display());
            return ExitCode::FAILURE;
        }
    };
    let current = parse_report(&current_text);
    let baseline = parse_report(&baseline_text);

    let mut failures = 0usize;
    let mut fail = |msg: String| {
        failures += 1;
        eprintln!("bench-check: FAIL {msg}");
    };

    // Bit-identity is a hard zero, not a band.
    match current.total_mismatches {
        Some(0.0) => {}
        Some(m) => fail(format!("total_mismatches = {m}, must be 0")),
        None => fail("current report has no total_mismatches field".to_string()),
    }

    for base_ds in &baseline.datasets {
        let Some(cur_ds) = current.datasets.iter().find(|d| d.name == base_ds.name) else {
            fail(format!(
                "dataset {} missing from current report",
                base_ds.name
            ));
            continue;
        };
        check_floor(
            &base_ds.name,
            "batch_cold_qps",
            cur_ds.batch_cold_qps,
            base_ds.batch_cold_qps,
            COLD_QPS_TOLERANCE,
            &mut fail,
        );
        check_ceiling(
            &base_ds.name,
            "expand_us_p95",
            cur_ds.expand_us_p95,
            base_ds.expand_us_p95,
            LATENCY_TOLERANCE,
            &mut fail,
        );
        check_ceiling(
            &base_ds.name,
            "eval_us_p95",
            cur_ds.eval_us_p95,
            base_ds.eval_us_p95,
            LATENCY_TOLERANCE,
            &mut fail,
        );
        check_floor(
            &base_ds.name,
            "multi_tenant_qps",
            cur_ds.multi_tenant_qps,
            base_ds.multi_tenant_qps,
            COLD_QPS_TOLERANCE,
            &mut fail,
        );
        check_ceiling(
            &base_ds.name,
            "cold_first_answer_us",
            cur_ds.cold_first_answer_us,
            base_ds.cold_first_answer_us,
            LATENCY_TOLERANCE,
            &mut fail,
        );
    }

    if failures > 0 {
        eprintln!(
            "bench-check: FAILED with {failures} regression(s) vs {} — \
             if this is a *deliberate* trade-off, ratchet with \
             `cargo run -p xtask -- bench-check --update-baseline`",
            baseline_path.display()
        );
        ExitCode::FAILURE
    } else {
        println!(
            "bench-check: ok ({} dataset(s) within tolerance of {})",
            baseline.datasets.len(),
            baseline_path.display()
        );
        ExitCode::SUCCESS
    }
}

/// Asserts `current >= baseline * tolerance` (a throughput floor). A
/// metric missing from the *baseline* skips with a note (older
/// baselines predate some fields); missing from the *current* report
/// fails — the bench should always emit the full schema.
fn check_floor(
    ds: &str,
    metric: &str,
    current: Option<f64>,
    baseline: Option<f64>,
    tolerance: f64,
    fail: &mut impl FnMut(String),
) {
    match (current, baseline) {
        (Some(cur), Some(base)) => {
            let floor = base * tolerance;
            if cur < floor {
                fail(format!(
                    "{ds}.{metric} {cur:.1} < {floor:.1} (baseline {base:.1} x {tolerance})"
                ));
            } else {
                println!("bench-check: {ds}.{metric} {cur:.1} (floor {floor:.1}) ok");
            }
        }
        (None, Some(_)) => fail(format!("{ds}.{metric} missing from current report")),
        (_, None) => println!("bench-check: {ds}.{metric} not in baseline, skipped"),
    }
}

/// Asserts `current <= baseline * tolerance` (a latency ceiling); same
/// missing-field policy as [`check_floor`].
fn check_ceiling(
    ds: &str,
    metric: &str,
    current: Option<f64>,
    baseline: Option<f64>,
    tolerance: f64,
    fail: &mut impl FnMut(String),
) {
    match (current, baseline) {
        (Some(cur), Some(base)) => {
            let ceiling = base * tolerance;
            if cur > ceiling {
                fail(format!(
                    "{ds}.{metric} {cur:.2} > {ceiling:.2} (baseline {base:.2} x {tolerance})"
                ));
            } else {
                println!("bench-check: {ds}.{metric} {cur:.2} (ceiling {ceiling:.2}) ok");
            }
        }
        (None, Some(_)) => fail(format!("{ds}.{metric} missing from current report")),
        (_, None) => println!("bench-check: {ds}.{metric} not in baseline, skipped"),
    }
}

/// Extracts the ratchet's metrics from an `estimation_serve` report.
fn parse_report(text: &str) -> BenchReport {
    let datasets = dataset_objects(text)
        .into_iter()
        .map(|obj| DatasetMetrics {
            name: extract_string(&obj, "name").unwrap_or_default(),
            batch_cold_qps: extract_number(&obj, "batch_cold_qps"),
            expand_us_p95: extract_number(&obj, "expand_us_p95"),
            eval_us_p95: extract_number(&obj, "eval_us_p95"),
            multi_tenant_qps: extract_number(&obj, "multi_tenant_qps"),
            cold_first_answer_us: extract_number(&obj, "cold_first_answer_us"),
        })
        .collect();
    // Top-level fields live after the datasets array; searching the
    // whole text is safe because the per-dataset objects use different
    // key names for everything the ratchet reads at top level.
    BenchReport {
        total_mismatches: extract_number(text, "total_mismatches"),
        datasets,
    }
}

/// Splits the `"datasets": [ {…}, {…} ]` array into its `{…}` object
/// substrings (the schema nests no objects inside them).
fn dataset_objects(text: &str) -> Vec<String> {
    let Some(start) = text.find("\"datasets\"") else {
        return Vec::new();
    };
    let Some(open) = text[start..].find('[') else {
        return Vec::new();
    };
    let body_start = start + open + 1;
    let Some(close) = text[body_start..].find(']') else {
        return Vec::new();
    };
    let body = &text[body_start..body_start + close];
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(o) = body[from..].find('{') {
        let obj_start = from + o;
        let Some(c) = body[obj_start..].find('}') else {
            break;
        };
        out.push(body[obj_start..obj_start + c + 1].to_string());
        from = obj_start + c + 1;
    }
    out
}

/// Reads the number following `"key":`, if present.
fn extract_number(obj: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\"");
    let at = obj.find(&needle)?;
    let rest = obj[at + needle.len()..].trim_start().strip_prefix(':')?;
    let rest = rest.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Reads the string following `"key":`, if present.
fn extract_string(obj: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\"");
    let at = obj.find(&needle)?;
    let rest = obj[at + needle.len()..].trim_start().strip_prefix(':')?;
    let rest = rest.trim_start().strip_prefix('"')?;
    let end = rest.find('"')?;
    Some(rest[..end].to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "bench": "estimation_serve",
  "datasets": [
    {"name": "XMark", "queries": 50, "expand_us_p95": 3.10, "eval_us_p95": 12.00, "batch_cold_qps": 42000.5, "multi_tenant_qps": 91000.0, "cold_first_answer_us": 210.25, "mismatches": 0},
    {"name": "IMDB", "queries": 50, "expand_us_p95": 2.20, "eval_us_p95": 18.40, "batch_cold_qps": 68501.5, "mismatches": 0}
  ],
  "available_parallelism": 2,
  "total_mismatches": 0
}
"#;

    #[test]
    fn parses_the_estimation_serve_schema() {
        let r = parse_report(SAMPLE);
        assert_eq!(r.total_mismatches, Some(0.0));
        assert_eq!(r.datasets.len(), 2);
        assert_eq!(r.datasets[0].name, "XMark");
        assert_eq!(r.datasets[0].batch_cold_qps, Some(42000.5));
        assert_eq!(r.datasets[0].expand_us_p95, Some(3.10));
        assert_eq!(r.datasets[0].multi_tenant_qps, Some(91000.0));
        assert_eq!(r.datasets[0].cold_first_answer_us, Some(210.25));
        assert_eq!(r.datasets[1].eval_us_p95, Some(18.40));
        // Older reports predate the catalog metrics: absent, not 0.
        assert_eq!(r.datasets[1].multi_tenant_qps, None);
        assert_eq!(r.datasets[1].cold_first_answer_us, None);
    }

    #[test]
    fn missing_fields_parse_to_none() {
        let r = parse_report("{\"datasets\": [{\"name\": \"X\"}]}");
        assert_eq!(r.total_mismatches, None);
        assert_eq!(r.datasets.len(), 1);
        assert_eq!(r.datasets[0].batch_cold_qps, None);
    }

    #[test]
    fn floor_and_ceiling_bands() {
        let mut failures: Vec<String> = Vec::new();
        // 50 >= 100 * 0.4 — inside the band.
        check_floor("X", "m", Some(50.0), Some(100.0), 0.4, &mut |m| {
            failures.push(m)
        });
        assert!(failures.is_empty());
        // 39 < 100 * 0.4 — regression.
        check_floor("X", "m", Some(39.0), Some(100.0), 0.4, &mut |m| {
            failures.push(m)
        });
        assert_eq!(failures.len(), 1);
        // 20 <= 10 * 2.5 — inside the band.
        check_ceiling("X", "m", Some(20.0), Some(10.0), 2.5, &mut |m| {
            failures.push(m)
        });
        assert_eq!(failures.len(), 1);
        // 26 > 10 * 2.5 — regression.
        check_ceiling("X", "m", Some(26.0), Some(10.0), 2.5, &mut |m| {
            failures.push(m)
        });
        assert_eq!(failures.len(), 2);
        // Metric absent from the baseline: skipped, not failed.
        check_floor("X", "m", Some(1.0), None, 0.4, &mut |m| failures.push(m));
        assert_eq!(failures.len(), 2);
        // Metric absent from the current report: failed.
        check_ceiling("X", "m", None, Some(10.0), 2.5, &mut |m| failures.push(m));
        assert_eq!(failures.len(), 3);
    }

    #[test]
    fn negative_and_exponent_numbers_parse() {
        assert_eq!(extract_number("\"k\": -3.5,", "k"), Some(-3.5));
        assert_eq!(extract_number("\"k\": 1.2e3}", "k"), Some(1200.0));
        assert_eq!(extract_number("\"k\": \"str\"}", "k"), None);
    }
}
