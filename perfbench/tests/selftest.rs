//! Self-test of the benchmark: short runs must emit exactly the
//! metrics `BENCHMARK.json` names, with their units, and a traced
//! run's layer spans must account for the request span.
//!
//! ```text
//! cargo test --release --offline --manifest-path perfbench/Cargo.toml
//! ```

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

/// `trace.coverage` — the summed `query.parse`, `catalog.warm`,
/// `catalog.serve` and `query.format` spans over the summed request
/// spans — must fall in this band. The remainder is the traced path's
/// own call overhead, largest on the ~5 µs cached requests.
const COVERAGE_BAND: (f64, f64) = (0.85, 1.0);

#[derive(Debug, Clone)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or(&Json::Null),
            _ => &Json::Null,
        }
    }
    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("expected a string, got {other:?}"),
        }
    }
    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("expected a number, got {other:?}"),
        }
    }
    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            other => panic!("expected an array, got {other:?}"),
        }
    }
    fn obj(&self) -> &BTreeMap<String, Json> {
        match self {
            Json::Obj(m) => m,
            other => panic!("expected an object, got {other:?}"),
        }
    }
}

/// A minimal JSON reader for the benchmark's own files (no escapes
/// beyond `\"` and `\\`).
fn parse(text: &str) -> Json {
    fn ws(b: &[u8], i: &mut usize) {
        while *i < b.len() && b[*i].is_ascii_whitespace() {
            *i += 1;
        }
    }
    fn value(b: &[u8], i: &mut usize) -> Json {
        ws(b, i);
        match b[*i] {
            b'{' => {
                *i += 1;
                let mut m = BTreeMap::new();
                loop {
                    ws(b, i);
                    if b[*i] == b'}' {
                        *i += 1;
                        return Json::Obj(m);
                    }
                    let Json::Str(k) = value(b, i) else {
                        panic!("object key must be a string")
                    };
                    ws(b, i);
                    assert_eq!(b[*i], b':');
                    *i += 1;
                    m.insert(k, value(b, i));
                    ws(b, i);
                    if b[*i] == b',' {
                        *i += 1;
                    }
                }
            }
            b'[' => {
                *i += 1;
                let mut v = Vec::new();
                loop {
                    ws(b, i);
                    if b[*i] == b']' {
                        *i += 1;
                        return Json::Arr(v);
                    }
                    v.push(value(b, i));
                    ws(b, i);
                    if b[*i] == b',' {
                        *i += 1;
                    }
                }
            }
            b'"' => {
                *i += 1;
                let mut s = String::new();
                while b[*i] != b'"' {
                    if b[*i] == b'\\' {
                        *i += 1;
                    }
                    s.push(b[*i] as char);
                    *i += 1;
                }
                *i += 1;
                Json::Str(s)
            }
            b't' => {
                *i += 4;
                Json::Bool(true)
            }
            b'f' => {
                *i += 5;
                Json::Bool(false)
            }
            b'n' => {
                *i += 4;
                Json::Null
            }
            _ => {
                let start = *i;
                while *i < b.len()
                    && matches!(b[*i], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                {
                    *i += 1;
                }
                Json::Num(std::str::from_utf8(&b[start..*i]).unwrap().parse().unwrap())
            }
        }
    }
    let mut i = 0;
    value(text.as_bytes(), &mut i)
}

/// `name -> unit` of one metric list in `BENCHMARK.json`.
fn declared(list: &str) -> BTreeMap<String, String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let spec = parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json beside the package"));
    spec.get(list)
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

/// Runs the benchmark and returns its result object.
fn run(workload: &str, trace: u8) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_xtwig-perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", &trace.to_string()])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let result = parse(stdout.lines().last().expect("a result line"));
    assert!(
        matches!(result.get("correct"), Json::Bool(true)),
        "{result:?}"
    );
    assert!(result.get("attempted").num() >= 1.0);
    assert_eq!(result.get("failed").num(), 0.0);
    result
}

fn assert_emits(result: &Json, want: &BTreeMap<String, String>) {
    let got: BTreeMap<String, String> = result
        .get("metrics")
        .obj()
        .iter()
        .map(|(k, v)| (k.clone(), v.get("unit").str().to_string()))
        .collect();
    assert_eq!(
        &got, want,
        "emitted metrics and units differ from BENCHMARK.json"
    );
}

#[test]
fn untraced_run_emits_every_end_to_end_metric() {
    let result = run("cold_tenants", 0);
    assert_emits(&result, &declared("end_to_end"));
    for (name, m) in result.get("metrics").obj() {
        assert!(m.get("value").num() > 0.0, "{name} must never be 0");
    }
}

#[test]
fn traced_run_emits_every_layer_metric_and_spans_cover_the_request() {
    let result = run("warm_serve", 1);
    assert_emits(&result, &declared("per_layer"));
    let metrics = result.get("metrics");
    let coverage = metrics.get("trace.coverage").get("value").num();
    assert!(
        (COVERAGE_BAND.0..=COVERAGE_BAND.1).contains(&coverage),
        "layer spans cover {coverage} of the request span, outside {COVERAGE_BAND:?}"
    );
    assert!(metrics.get("trace.overhead").get("value").num() > 0.0);
    assert!(metrics.get("catalog.fault_in_us_p50").get("value").num() > 0.0);
}
