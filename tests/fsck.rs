//! Integration: the synopsis fsck (`xtwig_core::validate`) accepts every
//! synopsis XBUILD produces on the three paper datasets — coarse, refined
//! and reloaded-from-snapshot — and rejects corrupted snapshots with a
//! descriptive error.

use xtwig::core::construct::{xbuild, BuildOptions, TruthSource};
use xtwig::core::{
    coarse_synopsis, fsck, load_synopsis, save_synopsis_v3, snapshot_checksum, validate,
    SnapshotError,
};
use xtwig::datagen::{imdb, sprot, xmark, ImdbConfig, SprotConfig, XMarkConfig};
use xtwig::xml::Document;

fn datasets() -> Vec<(&'static str, Document)> {
    vec![
        (
            "xmark",
            xmark(XMarkConfig {
                scale: 0.02,
                seed: 5,
            }),
        ),
        ("imdb", imdb(ImdbConfig::scaled(0.02, 6))),
        ("sprot", sprot(SprotConfig::scaled(0.02, 7))),
    ]
}

#[test]
fn xbuild_synopses_pass_fsck_on_all_generators() {
    for (name, doc) in datasets() {
        let coarse = coarse_synopsis(&doc);
        validate(&coarse).unwrap_or_else(|r| panic!("{name} coarse: {r}"));

        let build = BuildOptions {
            budget_bytes: coarse.size_bytes() + 1200,
            refinements_per_round: 3,
            max_rounds: 40,
            workload_with_values: true,
            seed: 23,
            ..Default::default()
        };
        let (built, trace) = xbuild(&doc, TruthSource::Exact, &build);
        assert!(!trace.rounds.is_empty(), "{name}: no refinement happened");
        fsck(&built).unwrap_or_else(|r| panic!("{name} built: {r}"));

        let loaded = load_synopsis(&save_synopsis_v3(&built)).expect("snapshot loads");
        fsck(&loaded).unwrap_or_else(|r| panic!("{name} reloaded: {r}"));
    }
}

fn u32_at(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().unwrap())
}

fn u64_at(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().unwrap())
}

/// The first section-table entry of a v3 image, which is `META` (id 1).
const META_ENTRY: usize = 32;

/// The byte offset of a v3 image's `META` section.
fn meta_offset(b: &[u8]) -> usize {
    assert_eq!(u32_at(b, META_ENTRY), 1, "the first table entry is META");
    u64_at(b, META_ENTRY + 8) as usize
}

/// Re-stamps the `META` CRC and the section-table CRC of a v3 image,
/// so an edit inside `META` passes every checksum.
fn restamp_meta(b: &mut [u8]) {
    let (off, len) = (meta_offset(b), u64_at(b, META_ENTRY + 16) as usize);
    let crc = snapshot_checksum(&b[off..off + len]);
    b[META_ENTRY + 24..META_ENTRY + 32].copy_from_slice(&crc.to_le_bytes());
    let table_end = META_ENTRY + 32 * u32_at(b, 16) as usize;
    let table_crc = snapshot_checksum(&b[META_ENTRY..table_end]);
    b[24..32].copy_from_slice(&table_crc.to_le_bytes());
}

#[test]
fn corrupted_snapshot_fails_descriptively() {
    let doc = imdb(ImdbConfig::scaled(0.02, 9));
    let (built, _) = xbuild(
        &doc,
        TruthSource::Exact,
        &BuildOptions {
            budget_bytes: 2500,
            max_rounds: 30,
            ..Default::default()
        },
    );
    let bytes = save_synopsis_v3(&built);

    // Wrong magic: refused before any decoding.
    let mut garbled = bytes.clone();
    garbled[0] ^= 0xFF;
    let err = load_synopsis(&garbled).unwrap_err();
    assert!(err.to_string().contains("not an XTWG snapshot"), "{err}");

    // Unsupported version: named in the error.
    let mut versioned = bytes.clone();
    versioned[4] = 0xEE;
    let err = load_synopsis(&versioned).unwrap_err();
    assert!(
        err.to_string().contains("unsupported snapshot version"),
        "{err}"
    );

    // Truncation: the typed error names expected vs actual sizes.
    let truncated = &bytes[..bytes.len() / 2];
    let err = load_synopsis(truncated).unwrap_err();
    assert!(
        matches!(
            err,
            SnapshotError::Truncated { expected, actual }
                if actual == truncated.len() && expected == bytes.len()
        ),
        "{err}"
    );

    // An inconsistent `META` under valid checksums (the root pushed out
    // of range, every CRC re-stamped): the carve refuses it, and the
    // decode error carries the byte offset where it died.
    let meta = meta_offset(&bytes);
    let mut rootless = bytes.clone();
    rootless[meta + 8..meta + 12].copy_from_slice(&u32::MAX.to_le_bytes());
    restamp_meta(&mut rootless);
    let err = load_synopsis(&rootless).unwrap_err();
    assert!(err.offset().is_some_and(|o| o <= bytes.len()), "{err}");
    assert!(err.to_string().contains("snapshot error at byte"), "{err}");

    // Semantic corruption: bump a node's extent count inside `META`
    // (after its four u32 header words, one u64 count per node) and
    // re-stamp the checksums so only fsck can catch it. The snapshot
    // still decodes, but the fsck must reject it with a report naming
    // the broken invariant.
    let first_count_at = meta + 16;
    let mut corrupted = bytes.clone();
    corrupted[first_count_at + 6] = 0x7F; // count += 2^55: way past any extent
    restamp_meta(&mut corrupted);
    let s = load_synopsis(&corrupted).expect("count corruption still decodes");
    let report = fsck(&s).expect_err("corrupted count must fail fsck");
    assert!(!report.issues.is_empty());
    let text = report.to_string();
    assert!(text.contains("issue(s)"), "{text}");
    assert!(
        text.contains("incoming child_count sum") || text.contains("exceeds"),
        "report should name the count invariant: {text}"
    );
}
