//! Integration: the catalog fault-soak acceptance test.
//!
//! A guarded catalog (every key behind the XSKETCH → Markov →
//! label-count chain) serves a seeded [`SoakPlan`] from ≥ 4 caller
//! threads while each phase fires its fault mid-flight: a panic burst
//! that trips the tenant breaker, a recovery window, a verified hot
//! reload, a corrupt reload (nothing published), requests starved onto
//! the fallback chain, a quota-saturating stall wave, and reloads under
//! a crash-recovering ingest stream. The invariants are deterministic
//! even though interleavings are not:
//!
//! * zero panics escape the catalog, and no served estimate is
//!   non-finite or negative;
//! * every request ends full, degraded, or shed with a typed catalog
//!   error, and each phase's sheds match the catalog's own counters;
//! * the tenant breaker is observed to open *and* re-close;
//! * at least one verified reload publishes and exactly one corrupt
//!   reload rolls back;
//! * starved requests (a work limit, an expired deadline) degrade
//!   through the fallback chain;
//! * the `reload-under-mutation` phase runs ≥ 50 kill/recover cycles:
//!   every recovery is fsck-clean and lands on the pre- or post-delta
//!   state (never torn), and each recovered synopsis is published into
//!   the serving key;
//! * post-soak estimates are bit-identical to a fresh
//!   `GuardedEstimator` on the surviving synopsis.
//!
//! The storage plan runs on the same driver: the key's snapshot file
//! damaged (quarantined without a rebuild hook, rebuilt with one) and
//! unreadable (typed I/O errors, bit-identical once healed), then ≥ 50
//! seeded [`FaultVfs`] device phases rotating write errors / ENOSPC,
//! failed renames, fsync failures, read errors, and read-path bit
//! flips. Under each device, the ingest store's commit protocol must
//! recover (after one reopen with every stat failing) fsck-clean to a
//! state it legitimately made durable, every cold fault-in must answer
//! bit-identically or fail typed, and once the device heals a
//! republish must serve bit-identically.
//!
//! [`FaultVfs`]: xtwig::core::FaultVfs

use std::path::PathBuf;

use xtwig::core::telemetry;
use xtwig::query::{parse_twig, TwigQuery};
use xtwig::workload::{run_catalog_soak, CatalogSoakOptions, SoakFault, SoakPlan, SoakReport};
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

/// Soak tuning: 4 caller threads under a tenant quota of 4, a low
/// breaker threshold with a short cooldown so the open → half-open →
/// close cycle completes within the run.
fn soak_options() -> CatalogSoakOptions {
    CatalogSoakOptions::default()
}

/// Runs `plan` in a scratch catalog directory with the injected panics
/// kept out of the log.
fn soak(tag: &str, plan: &SoakPlan, options: &CatalogSoakOptions) -> SoakReport {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("xtwig-soak-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let report = run_catalog_soak(&doc(), &queries(), &dir, plan, options);
    std::panic::set_hook(prev);
    let _ = std::fs::remove_dir_all(&dir);
    report
}

#[test]
fn concurrent_soak_holds_every_invariant() {
    let options = soak_options();
    assert!(options.threads >= 4);
    let plan = SoakPlan::generate(0xD0C5_0AB5, &options);
    assert!(plan.phases.len() >= 6, "standard plan covers all phases");
    assert!(
        plan.phases
            .iter()
            .any(|p| p.label == "reload-under-mutation"),
        "plan includes the mutation phase"
    );

    let report = soak("full", &plan, &options);

    assert_eq!(report.escaped_panics, 0, "{report}");
    assert_eq!(report.bad_estimates, 0, "{report}");
    assert_eq!(report.unexpected_errors, 0, "{report}");
    assert_eq!(report.stat_mismatches, 0, "{report}");
    assert_eq!(
        report.full + report.degraded + report.shed,
        report.requests,
        "every request needs a terminal outcome: {report}"
    );
    assert_eq!(report.requests, plan.total_requests() as u64, "{report}");
    assert!(
        report.breaker_opened,
        "burst must trip the breaker: {report}"
    );
    assert!(report.shed_while_open, "open breaker must shed: {report}");
    assert!(
        report.breaker_reclosed,
        "recovery phase must re-close it: {report}"
    );
    assert!(report.reloads >= 1, "mid-flight reload succeeded: {report}");
    assert_eq!(
        report.reload_rollbacks, 1,
        "corrupt reload rolled back: {report}"
    );
    assert!(
        report.post_soak_bit_identical,
        "soak left residue in serving state: {report}"
    );
    assert!(
        report.degraded > 0,
        "starved requests must degrade through the fallback chain: {report}"
    );
    assert!(report.shed > 0, "saturation must shed: {report}");
    assert!(
        report.ingest_kills >= 50,
        "mutation phase must fire ≥ 50 kill/recover cycles: {report}"
    );
    assert_eq!(
        report.ingest_failures, 0,
        "every recovery fsck-clean, pre- or post-delta, and published: {report}"
    );
    assert!(
        report.ingest_checkpoints > 0,
        "mutation stream must commit checkpoints: {report}"
    );
    assert!(report.violations.is_empty(), "{report}");
    assert!(report.passed(), "{report}");

    // The global telemetry registry saw at least what the soak counted
    // (≥, not ==: other tests in this binary share the process-wide
    // registry).
    let counters: std::collections::HashMap<&str, u64> =
        telemetry::global().counters().into_iter().collect();
    assert!(counters["breaker_opened"] >= 1);
    assert!(counters["breaker_reclosed"] >= 1);
    assert!(counters["catalog_reloads"] >= report.reloads);
    assert!(counters["catalog_reload_rollbacks"] >= report.reload_rollbacks);
    assert!(counters["catalog_quota_sheds"] >= report.stats.quota_sheds);
    assert!(counters["tier_markov_served"] >= 1);
}

#[test]
fn soak_is_reproducible_in_its_invariant_surface() {
    // Two runs of the same seeded plan: interleavings differ, but the
    // deterministic surface — request count, breaker cycle, reload and
    // rollback counts, bit-identity — must agree exactly.
    let options = soak_options();
    let plan = SoakPlan::generate(77, &options);
    let a = soak("repro-a", &plan, &options);
    let b = soak("repro-b", &plan, &options);
    assert_eq!(a.requests, b.requests);
    assert_eq!(a.requests, plan.total_requests() as u64);
    assert_eq!(a.reloads, b.reloads);
    assert_eq!(a.reload_rollbacks, b.reload_rollbacks);
    assert_eq!(a.breaker_opened, b.breaker_opened);
    assert_eq!(a.breaker_reclosed, b.breaker_reclosed);
    assert_eq!(a.ingest_kills, b.ingest_kills);
    assert!(a.post_soak_bit_identical && b.post_soak_bit_identical);
    assert!(a.passed() && b.passed(), "{a}\n{b}");
}

#[test]
fn saturation_profile_sheds_but_never_rolls_back() {
    let mut options = soak_options();
    options.threads = 1;
    options.catalog = options.catalog.to_builder().tenant_quota(2).build();
    let plan = SoakPlan::saturation_only(5, &options);
    let report = soak("saturation", &plan, &options);
    assert!(
        report.shed > 0,
        "a stall wave over a quota of 2 must shed: {report}"
    );
    assert_eq!(report.shed, report.stats.quota_sheds, "{report}");
    assert_eq!(report.reload_rollbacks, 0);
    assert!(report.passed(), "{report}");
}

#[test]
fn storage_plan_holds_every_invariant() {
    let plan = SoakPlan::storage(0xC4A05);
    let devices = plan
        .phases
        .iter()
        .filter(|p| matches!(p.fault, Some(SoakFault::Device { .. })))
        .count();
    assert!(devices >= 50, "the acceptance floor is 50 device phases");

    let report = soak("storage", &plan, &soak_options());
    assert!(report.passed(), "storage invariants violated: {report}");
    assert_eq!(report.requests, plan.total_requests() as u64, "{report}");

    // Every answer was full and bit-checked: the plan has no budgeted
    // request, so nothing may degrade.
    assert_eq!(report.degraded, 0, "{report}");
    // The device phases must have exercised the fault surface, not
    // passed vacuously: faults injected, write attempts failed, reads
    // ended typed, corruption quarantined, transient reads retried, and
    // requests still served in full. These counters cover the device
    // phases alone; the damage and unreadable phases check their own.
    assert!(report.injected_faults > 0, "no faults injected: {report}");
    assert!(
        report.write_faults > 0,
        "write faults never fired: {report}"
    );
    assert!(
        report.storage_sheds > 0,
        "storage faults never surfaced a typed error: {report}"
    );
    assert!(report.quarantines > 0, "nothing was quarantined: {report}");
    assert!(
        report.load_retries > 0,
        "transient-read retry never engaged: {report}"
    );
    assert!(
        report.device_served > 0,
        "nothing was served in full: {report}"
    );
}
