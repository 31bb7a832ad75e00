//! Integration: the storage fault-injection chaos soak (ISSUE 10).
//!
//! [`run_storage_chaos`] drives the full durability surface — the
//! ingest commit protocol (WAL append → delta maintenance →
//! checkpoint flip) and the multi-tenant catalog fault-in — through
//! ≥ 50 deterministic [`FaultVfs`] plans rotating write errors /
//! ENOSPC, torn renames, fsync failures, read errors, and read-path
//! bit-flips. The invariants are exact:
//!
//! * zero panics escape any faulted operation;
//! * after write-side chaos, and one reopen with every stat failing,
//!   the healed store always reopens, passes the structural fsck, and
//!   its recovered synopsis is bit-identical to a state the commit
//!   protocol legitimately made durable (the last acknowledged state —
//!   the seed before any delta was acknowledged — or, after a faulted
//!   ingest, its post-delta replay or a checkpoint that flipped before
//!   its directory fsync faulted) — never a torn hybrid, and never an
//!   older state an acknowledged delta retired;
//! * every read-side serve under fault either matches the healthy
//!   reference bit-for-bit or fails with a typed [`CatalogError`] —
//!   corrupt snapshots quarantine the tenant instead of serving
//!   garbage, and transient read faults are absorbed by retry;
//! * once the device heals, a republish restores bit-identical
//!   service for every plan (quarantine is not sticky across
//!   publishes).
//!
//! [`FaultVfs`]: xtwig::core::FaultVfs
//! [`CatalogError`]: xtwig::core::serve::CatalogError

use xtwig::query::{parse_twig, TwigQuery};
use xtwig::workload::{run_storage_chaos, StorageChaosOptions};
use xtwig::xml::Document;

fn doc() -> Document {
    xtwig::xml::parse(concat!(
        "<bib>",
        "<conf><paper><kw/><kw/><cite/></paper><paper><kw/></paper></conf>",
        "<conf><paper><kw/><cite/></paper></conf>",
        "<journal><paper><kw/></paper><paper/></journal>",
        "</bib>"
    ))
    .unwrap()
}

fn queries() -> Vec<TwigQuery> {
    [
        "for $t0 in //paper, $t1 in $t0/kw",
        "for $t0 in //conf, $t1 in $t0/paper",
        "for $t0 in //paper[cite], $t1 in $t0/kw",
        "for $t0 in //journal//paper",
        "for $t0 in //kw",
    ]
    .iter()
    .map(|t| parse_twig(t).unwrap())
    .collect()
}

#[test]
fn fifty_seeded_fault_plans_hold_every_invariant() {
    let d = doc();
    let qs = queries();
    let dir = std::env::temp_dir().join(format!("xtwig-storage-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let options = StorageChaosOptions::default();
    assert!(options.plans >= 50, "the acceptance floor is 50 plans");

    // Injected faults surface as io::Errors, but a chaos soak's whole
    // point is that a panic COULD slip out of a faulted path; silence
    // the default hook so an expected-caught one doesn't spam stderr.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let report = run_storage_chaos(&d, &qs, &dir, &options);
    let _ = std::panic::take_hook();
    std::panic::set_hook(prev);

    let _ = std::fs::remove_dir_all(&dir);

    assert!(report.passed(), "chaos invariants violated: {report}");
    assert_eq!(report.plans, options.plans as u64);

    // The soak must have actually exercised the fault surface, not
    // passed vacuously: faults injected on both sides, write attempts
    // rejected, reads absorbed by retry, and corruption quarantined.
    assert!(report.injected_faults > 0, "no faults injected: {report}");
    assert!(report.write_faults > 0, "write chaos never fired: {report}");
    assert!(
        report.serve_typed_errors > 0,
        "read chaos never surfaced a typed error: {report}"
    );
    assert!(report.quarantines > 0, "no tenant quarantined: {report}");
    assert!(
        report.load_retries > 0,
        "transient-read retry never engaged: {report}"
    );
    assert!(
        report.serves > 0 && report.serve_ok > 0,
        "no successful serves under chaos: {report}"
    );
}
