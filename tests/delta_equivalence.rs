//! Integration: incremental maintenance is equivalent to rebuilding.
//! For each dataset, a synopsis built on the base document and then
//! maintained through a stream of random deltas (`delta_xbuild`) must
//! (a) stay fsck-clean after every delta, and (b) estimate the final
//! document's workloads within the same error bands a synopsis built
//! directly on that final document satisfies (the PR-2 regression
//! bands, with their ~3× headroom). Incremental maintenance may not
//! quietly degrade into a stale or structurally broken summary.

use rand::SeedableRng;
use xtwig::core::construct::{delta_xbuild, DeltaBuildOptions, DriftMeter};
use xtwig::core::estimate::{EstimateOptions, EstimateRequest, Estimator};
use xtwig::core::{coarse_synopsis, fsck, CompiledSynopsis, Synopsis};
use xtwig::datagen::Dataset;
use xtwig::workload::{
    avg_relative_error, generate_workload, random_delta, WorkloadKind, WorkloadSpec,
};
use xtwig::xml::Document;

/// Applies `deltas` random mutations to a maintained synopsis and
/// returns the final document plus the maintained synopsis.
fn maintain(ds: Dataset, deltas: usize, seed: u64) -> (Document, Synopsis) {
    let mut doc = ds.generate(0.05);
    let mut synopsis = coarse_synopsis(&doc);
    let mut meter = DriftMeter::new();
    // A high threshold: this test exercises pure incremental
    // maintenance, never the re-refinement escape hatch.
    let opts = DeltaBuildOptions {
        drift_threshold: 1e9,
        ..Default::default()
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    for i in 0..deltas {
        let delta = random_delta(&doc, &mut rng);
        let outcome = delta_xbuild(&mut synopsis, &doc, &delta, &mut meter, &opts)
            .unwrap_or_else(|e| panic!("{}: delta {i} rejected: {e}", ds.name()));
        doc = outcome.doc;
        fsck(&synopsis)
            .unwrap_or_else(|r| panic!("{}: synopsis broken after delta {i}: {r}", ds.name()));
    }
    (doc, synopsis)
}

/// Average relative error of `s` on the PR-2 regression workload over
/// `doc`.
fn workload_error(s: &Synopsis, doc: &Document, kind: WorkloadKind) -> f64 {
    let spec = WorkloadSpec {
        queries: 80,
        kind,
        seed: 0xBAD5,
        ..Default::default()
    };
    let w = generate_workload(doc, &spec);
    let truths: Vec<f64> = w.truths.iter().map(|&t| t as f64).collect();
    let opts = EstimateOptions::default();
    let estimator = CompiledSynopsis::compile(s);
    let est: Vec<f64> = w
        .queries
        .iter()
        .map(|q| {
            estimator
                .estimate(&EstimateRequest::with_options(q, opts))
                .estimate
        })
        .collect();
    avg_relative_error(&est, &truths).avg_rel_error
}

#[test]
fn maintained_synopsis_matches_rebuild_error_bands() {
    // The coarse-synopsis bands from tests/error_bands.rs, with the same
    // ~3× headroom. A maintained synopsis and one built fresh on the
    // mutated document are both label-split coarse summaries of the same
    // tree, so they must clear the same bar.
    for (ds, band) in [
        (Dataset::XMark, 0.45),
        (Dataset::Imdb, 0.60),
        (Dataset::SProt, 0.35),
    ] {
        let (final_doc, maintained) = maintain(ds, 40, 0xD317A ^ ds.name().len() as u64);
        let rebuilt = coarse_synopsis(&final_doc);
        let maintained_err = workload_error(&maintained, &final_doc, WorkloadKind::Branching);
        let rebuilt_err = workload_error(&rebuilt, &final_doc, WorkloadKind::Branching);
        assert!(
            maintained_err < band,
            "{}: maintained error {maintained_err:.3} above band {band}",
            ds.name()
        );
        assert!(
            rebuilt_err < band,
            "{}: rebuilt error {rebuilt_err:.3} above band {band} (band itself drifted)",
            ds.name()
        );
        // Equivalence, not merely co-compliance: incremental maintenance
        // may cost at most a small constant over the fresh rebuild.
        assert!(
            maintained_err <= rebuilt_err * 3.0 + 0.05,
            "{}: maintained {maintained_err:.3} vs rebuilt {rebuilt_err:.3}",
            ds.name()
        );
    }
}

#[test]
fn maintained_synopsis_holds_on_value_workloads() {
    for ds in [Dataset::XMark, Dataset::Imdb] {
        let (final_doc, maintained) = maintain(ds, 25, 0x5EED);
        let err = workload_error(&maintained, &final_doc, WorkloadKind::BranchingValues);
        // P+V on a *coarse* maintained summary: looser than the built
        // bands in error_bands.rs, but still a hard ceiling.
        assert!(
            err < 1.2,
            "{}: maintained P+V error {err:.3} above band 1.2",
            ds.name()
        );
    }
}

#[test]
fn maintenance_is_deterministic_across_replays() {
    // The same delta stream applied twice must produce byte-identical
    // snapshots — the property WAL replay relies on.
    let (_, a) = maintain(Dataset::Imdb, 30, 99);
    let (_, b) = maintain(Dataset::Imdb, 30, 99);
    assert_eq!(
        xtwig::core::save_synopsis(&a),
        xtwig::core::save_synopsis(&b),
        "maintenance diverged across identical replays"
    );
}
