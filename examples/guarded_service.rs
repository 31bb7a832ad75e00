//! Serving estimates the way a production optimizer must (§1: an
//! estimate that misses the optimizer's time budget is worthless):
//! every query goes through a guarded fallback chain
//!
//!   XSKETCH (full fidelity) → Markov paths (derived) → label-count bound
//!
//! under a per-query deadline carried by each request's options, with
//! panics contained per tier and crash-safe snapshot persistence
//! underneath. The example walks the three operational scenarios end to
//! end:
//!
//! 1. a healthy query served at full fidelity,
//! 2. a pathological deep twig tripping a 1 ms deadline and degrading,
//! 3. a corrupted snapshot detected by checksum and recovered by
//!    rebuilding from the document.
//!
//! Run with `cargo run --release --example guarded_service`.

use std::time::{Duration, Instant};
use xtwig::datagen::{xmark, XMarkConfig};
use xtwig::prelude::*;
use xtwig::workload::Tier;

fn main() {
    let doc = xmark(XMarkConfig {
        scale: 0.05,
        seed: 7,
    });
    println!("XMark document: {} elements", doc.len());
    let synopsis = coarse_synopsis(&doc);

    // --- 1. Healthy serving: tier 1 answers, exit path is full fidelity.
    let guarded = GuardedEstimator::new(CompiledSynopsis::compile(&synopsis));
    let q = parse_twig("for $t0 in //open_auction, $t1 in $t0/bidder").unwrap();
    let healthy = EstimateOptions::builder()
        .deadline(Instant::now() + Duration::from_millis(50))
        .build();
    let out = guarded.estimate(&EstimateRequest::with_options(&q, healthy));
    let truth = selectivity(&doc, &q);
    let tier = out.provenance.tier.unwrap_or("-");
    println!(
        "\nhealthy query: estimate {:.1} (exact {truth}) served by {tier} tier, degraded: {}",
        out.estimate, out.provenance.degraded
    );
    assert_eq!(out.provenance.tier, Some(Tier::Xsketch.name()));

    // --- 2. Deadline degradation: a deep recursive twig whose expansion
    // is combinatorial. Under a 1 ms budget tier 1 unwinds cooperatively
    // and a cheaper tier serves within the deadline's order of magnitude.
    let mut b = DocumentBuilder::new();
    b.open("a", None);
    for _ in 0..160 {
        b.open("a", None);
        b.leaf("a", None);
    }
    for _ in 0..161 {
        b.close();
    }
    let deep = b.finish();
    let deep_syn = coarse_synopsis(&deep);
    let guarded = GuardedEstimator::new(CompiledSynopsis::compile(&deep_syn));
    let deep_q = parse_twig("for $t0 in //a, $t1 in $t0//a, $t2 in $t1//a").unwrap();
    let t0 = Instant::now();
    let tight = EstimateOptions::builder()
        .deadline(t0 + Duration::from_millis(1))
        .max_embeddings(usize::MAX)
        .explain(true)
        .build();
    let out = guarded.estimate(&EstimateRequest::with_options(&deep_q, tight));
    let elapsed = t0.elapsed();
    println!("\ndeep twig under a 1 ms deadline ({elapsed:?} wall):");
    for step in out.explain.iter().flat_map(|e| &e.tier_path) {
        println!("  tier {step}");
    }
    let tier = out.provenance.tier.unwrap_or("-");
    println!(
        "  served by {tier} tier: estimate {:.1} (finite: {})",
        out.estimate,
        out.estimate.is_finite()
    );
    let c = guarded.counters();
    println!(
        "  counters: {} queries, {} degraded, {} deadline trips",
        c.queries, c.degraded, c.deadline_trips
    );
    assert!(out.provenance.degraded && out.provenance.tier != Some(Tier::Xsketch.name()));

    // --- 3. Crash-safe persistence: an atomically-written snapshot, a
    // bit flip, checksum detection, and rebuild-from-document recovery.
    let dir = std::env::temp_dir().join(format!("xtwig-guarded-service-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let snap = dir.join("xmark.xtwg");
    let written = write_snapshot_atomic(&snap, &synopsis).expect("atomic write");
    println!("\nsnapshot: {written} bytes -> {}", snap.display());

    let mut bytes = std::fs::read(&snap).expect("read snapshot");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x04;
    std::fs::write(&snap, &bytes).expect("corrupt snapshot");
    match read_snapshot(&snap) {
        Ok(_) => unreachable!("checksum must catch a single flipped bit"),
        Err(e) => println!("corrupted snapshot rejected: {e}"),
    }
    let recovered = coarse_synopsis(&doc); // rebuild, as the CLI does
    let after = GuardedEstimator::new(CompiledSynopsis::compile(&recovered))
        .estimate(&EstimateRequest::new(&q));
    println!(
        "recovered estimate {:.1} (exact {truth}) — service never observed a bad synopsis",
        after.estimate
    );
    let _ = std::fs::remove_dir_all(&dir);
}
