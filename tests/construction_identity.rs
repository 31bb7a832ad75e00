//! Pins what construction produces, byte for byte.
//!
//! XBUILD and the exact counter behind its truths are optimized in
//! place: every such change must leave the built synopsis and the
//! generated workloads unchanged. These constants were recorded before
//! the greedy merge, the split rebuilds, the edge-expand scoring, the
//! edge distribution, `Document::descendants` and the exact counter lost
//! their repeated work, and every later change must reproduce them.
//!
//! 1. **Synopsis bytes** — a 64-bit FNV-1a hash of
//!    `save_synopsis_v3(xbuild(..))` for each generator at scale 0.05,
//!    under the serving bench's build options and under
//!    `BuildOptions::default()` capped at 60 rounds. Uncapped, the default
//!    build runs 1,514 one-refinement rounds on XMark (about 30 s in
//!    release); its first 60 rounds already split, expand and refine
//!    every kind of node.
//! 2. **Exact truths** — a hash of every generated query's text and
//!    exact selectivity, for the P and P+V workloads of each generator.

use xtwig::core::construct::{xbuild, BuildOptions, TruthSource};
use xtwig::core::save_synopsis_v3;
use xtwig::datagen::Dataset;
use xtwig::workload::{generate_workload, WorkloadKind, WorkloadSpec};

const SCALE: f64 = 0.05;

/// FNV-1a, 64-bit: stable across platforms and toolchains.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// The serving bench's XBUILD settings (`perfbench/src/setup.rs`).
fn bench_options() -> BuildOptions {
    BuildOptions {
        budget_bytes: 24 * 1024,
        refinements_per_round: 4,
        candidates_per_round: 8,
        sample_queries: 12,
        max_rounds: 40,
        ..Default::default()
    }
}

fn synopsis_hash(ds: Dataset, opts: &BuildOptions) -> u64 {
    let doc = ds.generate(SCALE);
    let (s, _) = xbuild(&doc, TruthSource::Exact, opts);
    fnv1a(FNV_OFFSET, &save_synopsis_v3(&s))
}

fn truth_hash(ds: Dataset, kind: WorkloadKind) -> u64 {
    let doc = ds.generate(SCALE);
    let spec = WorkloadSpec {
        queries: 320,
        kind,
        ..Default::default()
    };
    let w = generate_workload(&doc, &spec);
    w.queries
        .iter()
        .zip(&w.truths)
        .fold(FNV_OFFSET, |h, (q, &truth)| {
            let h = fnv1a(h, q.to_string().as_bytes());
            fnv1a(h, &truth.to_le_bytes())
        })
}

#[test]
fn xbuild_bytes_are_pinned_under_bench_options() {
    let got: Vec<u64> = Dataset::ALL
        .into_iter()
        .map(|ds| synopsis_hash(ds, &bench_options()))
        .collect();
    assert_eq!(
        got,
        [
            7907680704075053467,
            11197546201258266784,
            17292954133154140305
        ],
        "XMark, IMDB, SProt"
    );
}

#[test]
fn xbuild_bytes_are_pinned_under_default_options() {
    let got: Vec<u64> = Dataset::ALL
        .into_iter()
        .map(|ds| {
            let opts = BuildOptions {
                max_rounds: 60,
                ..BuildOptions::default()
            };
            synopsis_hash(ds, &opts)
        })
        .collect();
    assert_eq!(
        got,
        [
            108785528834381303,
            13097928538721572888,
            3025831175367614976
        ],
        "XMark, IMDB, SProt"
    );
}

#[test]
fn workload_truths_are_pinned() {
    let got: Vec<u64> = Dataset::ALL
        .into_iter()
        .flat_map(|ds| {
            [WorkloadKind::Branching, WorkloadKind::BranchingValues]
                .into_iter()
                .map(move |kind| truth_hash(ds, kind))
        })
        .collect();
    assert_eq!(
        got,
        [
            11056444324515659438,
            1155151807137751097,
            5467360202848022611,
            9347309631193274204,
            7752537936491498101,
            14036751725840872895
        ],
        "XMark P, XMark P+V, IMDB P, IMDB P+V, SProt P, SProt P+V"
    );
}
