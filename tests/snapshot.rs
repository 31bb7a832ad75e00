//! Integration: a built synopsis survives a save/load cycle and keeps
//! answering workloads identically — the build-once / estimate-anywhere
//! deployment an optimizer needs. Torn-write coverage rides along:
//! every strict prefix of a v2 snapshot, a v1 snapshot, or a delta WAL
//! must surface as [`SnapshotError::Truncated`] with exact lengths (or,
//! for the WAL, as replayable data with a located torn tail) — never a
//! panic and never a silently half-loaded synopsis.

use xtwig::core::construct::{xbuild, BuildOptions, TruthSource};
use xtwig::core::estimate::EstimateOptions;
use xtwig::core::io::v3::V3_HEADER_LEN;
use xtwig::core::io::wal::{WAL_FRAME_LEN, WAL_HEADER_LEN};
use xtwig::core::io::HEADER_LEN;
use xtwig::core::{
    encode_delta, load_compiled_snapshot, load_synopsis, parse_wal, save_synopsis,
    save_synopsis_v3, verify_snapshot_v3, CompiledSynopsis, EstimateRequest, Estimator,
    SnapshotError, WalWriter,
};
use xtwig::datagen::{imdb, sprot, xmark, ImdbConfig, SprotConfig, XMarkConfig};
use xtwig::workload::{generate_workload, WorkloadKind, WorkloadSpec};
use xtwig::xml::{Delta, Document, NodeId};

#[test]
fn snapshot_preserves_workload_estimates() {
    let doc = imdb(ImdbConfig {
        movies: 200,
        seed: 31,
    });
    let build = BuildOptions {
        budget_bytes: 3000,
        refinements_per_round: 3,
        max_rounds: 80,
        workload_with_values: true,
        ..Default::default()
    };
    let (synopsis, _) = xbuild(&doc, TruthSource::Exact, &build);
    let bytes = save_synopsis(&synopsis);
    let loaded = load_synopsis(&bytes).expect("snapshot loads");
    assert!(!loaded.has_extents());

    let opts = EstimateOptions::default();
    for kind in [
        WorkloadKind::Branching,
        WorkloadKind::BranchingValues,
        WorkloadKind::SimplePath,
    ] {
        let spec = WorkloadSpec {
            queries: 40,
            kind,
            seed: 17,
            ..Default::default()
        };
        let w = generate_workload(&doc, &spec);
        let built = CompiledSynopsis::compile(&synopsis);
        let reloaded = CompiledSynopsis::compile(&loaded);
        for q in &w.queries {
            let req = EstimateRequest::with_options(q, opts);
            let a = built.estimate(&req).estimate;
            let b = reloaded.estimate(&req).estimate;
            assert!(
                (a - b).abs() <= 1e-9 * a.abs().max(1.0),
                "estimates diverged after reload for {q}: {a} vs {b}"
            );
        }
    }
    // Snapshot compactness: within an order of magnitude of the charged
    // synopsis size (the format stores f64 means the accounting charges
    // more coarsely).
    assert!(
        bytes.len() < synopsis.size_bytes() * 12,
        "snapshot {} bytes",
        bytes.len()
    );
}

/// A small built synopsis serialized to v2 snapshot bytes.
fn v2_bytes() -> Vec<u8> {
    let doc = imdb(ImdbConfig {
        movies: 20,
        seed: 7,
    });
    let (synopsis, _) = xbuild(
        &doc,
        TruthSource::Exact,
        &BuildOptions {
            budget_bytes: 2000,
            max_rounds: 10,
            ..Default::default()
        },
    );
    save_synopsis(&synopsis)
}

#[test]
fn every_v2_prefix_reports_truncated_with_exact_lengths() {
    let bytes = v2_bytes();
    for cut in 0..bytes.len() {
        let err = load_synopsis(&bytes[..cut]).expect_err("a strict prefix must not load");
        match err {
            SnapshotError::Truncated { expected, actual } => {
                assert_eq!(actual, cut, "actual must be the bytes present");
                // Short cuts are measured against the header; past the
                // header, against the full header+payload promise.
                let promised = if cut < HEADER_LEN {
                    HEADER_LEN
                } else {
                    bytes.len()
                };
                assert_eq!(expected, promised, "cut at {cut}");
            }
            other => panic!("prefix of {cut} bytes: expected Truncated, got {other:?}"),
        }
    }
    assert!(load_synopsis(&bytes).is_ok(), "the full image still loads");
}

#[test]
fn v1_header_only_and_payload_truncations_are_typed() {
    // The v1 format is magic + version + the same payload, without the
    // length/checksum header — synthesize one from a v2 image.
    let v2 = v2_bytes();
    let mut v1 = Vec::new();
    v1.extend_from_slice(b"XTWG");
    v1.extend_from_slice(&1u32.to_le_bytes());
    v1.extend_from_slice(&v2[HEADER_LEN..]);
    assert!(load_synopsis(&v1).is_ok(), "synthesized v1 image loads");

    // Header-only: the torn write stopped before the label count.
    assert!(matches!(
        load_synopsis(&v1[..8]),
        Err(SnapshotError::Truncated {
            expected: 12,
            actual: 8
        })
    ));
    // Mid-payload cuts have no length header to compare against, but
    // must still fail with a typed error — never load partially.
    for cut in [9, 12, v1.len() / 2, v1.len() - 1] {
        assert!(
            load_synopsis(&v1[..cut]).is_err(),
            "v1 prefix of {cut} bytes must not load"
        );
    }
}

/// The three paper datasets at toy scale — the format coverage must
/// span generators because their synopses stress different corners
/// (value summaries, deep recursion, wide fan-out).
fn generator_docs() -> Vec<(&'static str, Document)> {
    vec![
        (
            "xmark",
            xmark(XMarkConfig {
                scale: 0.002,
                seed: 11,
            }),
        ),
        (
            "imdb",
            imdb(ImdbConfig {
                movies: 25,
                seed: 7,
            }),
        ),
        (
            "sprot",
            sprot(SprotConfig {
                entries: 25,
                seed: 13,
            }),
        ),
    ]
}

fn build_small(doc: &Document) -> xtwig::core::Synopsis {
    let (synopsis, _) = xbuild(
        doc,
        TruthSource::Exact,
        &BuildOptions {
            budget_bytes: 2500,
            max_rounds: 12,
            workload_with_values: true,
            ..Default::default()
        },
    );
    synopsis
}

#[test]
fn v1_v2_v3_round_trip_identically_for_every_generator() {
    for (name, doc) in generator_docs() {
        let synopsis = build_small(&doc);
        let v2 = save_synopsis(&synopsis);
        let v3 = save_synopsis_v3(&synopsis);
        let mut v1 = Vec::new();
        v1.extend_from_slice(b"XTWG");
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&v2[HEADER_LEN..]);

        verify_snapshot_v3(&v3).expect("full-CRC fsck of the v3 image");
        let from_v1 = load_synopsis(&v1).expect("v1 loads");
        let from_v2 = load_synopsis(&v2).expect("v2 loads");
        let from_v3 = load_synopsis(&v3).expect("v3 loads");

        let spec = WorkloadSpec {
            queries: 25,
            kind: WorkloadKind::Branching,
            seed: 5,
            ..Default::default()
        };
        let w = generate_workload(&doc, &spec);
        let e1 = CompiledSynopsis::compile(&from_v1);
        let e2 = CompiledSynopsis::compile(&from_v2);
        let e3 = CompiledSynopsis::compile(&from_v3);
        for q in &w.queries {
            let req = EstimateRequest::new(q);
            let a = e1.estimate(&req).estimate;
            let b = e2.estimate(&req).estimate;
            let c = e3.estimate(&req).estimate;
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{name}: v1 vs v2 diverged for {q}: {a} vs {b}"
            );
            assert_eq!(
                b.to_bits(),
                c.to_bits(),
                "{name}: v2 vs v3 diverged for {q}: {b} vs {c}"
            );
        }
    }
}

/// v3 stands alone: it carries every fact a v2 snapshot does, so the
/// synopsis rebuilt from its columns re-saves as exactly the original
/// v2 image — coarse and XBUILD (with value dimensions) synopses of all
/// three generators.
#[test]
fn v3_carries_everything_v2_does_for_every_generator() {
    for (name, doc) in generator_docs() {
        let coarse = xtwig::core::coarse_synopsis(&doc);
        for (kind, s) in [("coarse", coarse), ("xbuild", build_small(&doc))] {
            let v3 = save_synopsis_v3(&s);
            let rebuilt = load_synopsis(&v3).expect("v3 loads as a synopsis");
            assert!(
                save_synopsis(&rebuilt) == save_synopsis(&s),
                "{name}/{kind}: v2 image of the v3 round trip differs"
            );
            let loaded = load_compiled_snapshot(&v3).expect("zero-copy load");
            assert!(save_synopsis(loaded.source()) == save_synopsis(&s));
        }
    }
}

#[test]
fn v3_mapped_and_owned_estimates_are_bit_identical_for_every_generator() {
    for (name, doc) in generator_docs() {
        let synopsis = build_small(&doc);
        let v3 = save_synopsis_v3(&synopsis);
        // Mapped: lanes point straight into the arena image, no bucket
        // deserialization. Owned: the classic parse-and-compile path.
        let mapped = load_compiled_snapshot(&v3).expect("zero-copy load");
        let owned_syn = load_synopsis(&v3).expect("v3 parses to a synopsis");
        let owned = CompiledSynopsis::compile(&owned_syn);

        let spec = WorkloadSpec {
            queries: 25,
            kind: WorkloadKind::BranchingValues,
            seed: 23,
            ..Default::default()
        };
        let w = generate_workload(&doc, &spec);
        for q in &w.queries {
            let req = EstimateRequest::new(q);
            let m = mapped.estimate(&req);
            let o = owned.estimate(&req);
            assert_eq!(
                m.estimate.to_bits(),
                o.estimate.to_bits(),
                "{name}: mapped vs owned diverged for {q}: {} vs {}",
                m.estimate,
                o.estimate
            );
            assert_eq!(
                m.provenance.exhaustion, o.provenance.exhaustion,
                "{name}: provenance diverged for {q}"
            );
        }
    }
}

#[test]
fn every_v3_prefix_reports_truncated_with_exact_lengths() {
    let doc = imdb(ImdbConfig {
        movies: 20,
        seed: 7,
    });
    let bytes = save_synopsis_v3(&build_small(&doc));
    for cut in 0..bytes.len() {
        let err = load_compiled_snapshot(&bytes[..cut]).expect_err("a strict prefix must not load");
        match err {
            SnapshotError::Truncated { expected, actual } => {
                assert_eq!(actual, cut, "actual must be the bytes present");
                // Before the version is readable the loader can only
                // promise the generic header; with the version known it
                // promises the v3 header; with the header present it
                // promises the arena's own total length.
                let promised = if cut < 8 {
                    HEADER_LEN
                } else if cut < V3_HEADER_LEN {
                    V3_HEADER_LEN
                } else {
                    bytes.len()
                };
                assert_eq!(expected, promised, "cut at {cut}");
            }
            other => panic!("prefix of {cut} bytes: expected Truncated, got {other:?}"),
        }
        // The interpreted loader must reject the same prefixes — v3
        // arenas never half-load through either front door.
        assert!(
            load_synopsis(&bytes[..cut]).is_err(),
            "load_synopsis accepted a {cut}-byte v3 prefix"
        );
    }
    assert!(
        load_compiled_snapshot(&bytes).is_ok(),
        "the full image still loads"
    );
    let mut long = bytes.clone();
    long.push(0);
    assert!(matches!(
        load_compiled_snapshot(&long),
        Err(SnapshotError::TrailingBytes { extra: 1 })
    ));
}

#[test]
fn wal_truncations_are_torn_tails_never_silent_loss() {
    let dir = std::env::temp_dir().join(format!("xtwig-snapshot-wal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("t.wal");
    let mut w = WalWriter::create(&path).unwrap();
    let mut d1 = Delta::new();
    d1.modify(NodeId(1), Some(42));
    let mut d2 = Delta::new();
    d2.delete(NodeId(2));
    let p1 = encode_delta(&d1);
    let p2 = encode_delta(&d2);
    w.append(&p1).unwrap();
    w.append(&p2).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_dir_all(&dir).ok();

    // The intact journal replays both records with no tail.
    let full = parse_wal(&bytes).unwrap();
    assert_eq!(full.records, vec![p1.clone(), p2.clone()]);
    assert!(full.torn.is_none());

    // Header truncations: exact lengths, like the snapshot formats.
    for cut in 0..WAL_HEADER_LEN {
        assert!(
            matches!(
                parse_wal(&bytes[..cut]),
                Err(SnapshotError::Truncated { expected, actual })
                    if expected == WAL_HEADER_LEN && actual == cut
            ),
            "WAL prefix of {cut} bytes"
        );
    }

    // Every cut inside the record area replays the durable prefix and
    // reports the partial frame as a located torn tail — data, not an
    // error, because truncating it is the recovery contract.
    let first_frame_end = WAL_HEADER_LEN + WAL_FRAME_LEN + p1.len();
    for cut in WAL_HEADER_LEN + 1..bytes.len() {
        let replay = parse_wal(&bytes[..cut]).expect("torn tails are data");
        if cut == first_frame_end {
            // The cut landed exactly on a frame boundary: a complete
            // one-record journal, no tail at all.
            assert_eq!(replay.records, vec![p1.clone()]);
            assert!(replay.torn.is_none());
            continue;
        }
        let torn = replay.torn.expect("a mid-frame cut must report its tail");
        if cut < first_frame_end {
            assert!(replay.records.is_empty(), "cut at {cut}");
            assert_eq!(torn.offset, WAL_HEADER_LEN as u64);
        } else {
            assert_eq!(replay.records, vec![p1.clone()], "cut at {cut}");
            assert_eq!(torn.offset, first_frame_end as u64);
        }
    }
}
