//! Allocation audit for the compiled estimation path, in two phases.
//!
//! **Steady state.** The arena rework (DESIGN.md §13) claims that once a
//! worker thread's scratch arena and expansion memo are warm, a repeated
//! query performs **zero** heap allocations end to end: the memo key
//! formats into retained `String` capacity and is looked up by `&str`,
//! the plan comes back as an `Arc` clone, every TREEPARSE frame lives
//! in recycled arena lanes, and the report itself
//! (`estimate`/`Provenance`/`QueryTelemetry`) is plain stack data.
//!
//! **Fault-in.** A verified v3 load (stat, read, full CRC sweep, carve)
//! fills one set of flat columns per synopsis (DESIGN.md §14), so it
//! acquires a fixed number of heap blocks whatever the node count: at
//! most [`MAX_LOAD_ACQUISITIONS`] for the coarse and the XBUILD
//! synopsis of every generator.
//!
//! The test *proves* both with a counting global allocator: snapshot
//! the allocation counter, run the measured work, and compare. It must
//! remain the **only** `#[test]` in this file — a sibling test running
//! concurrently on another libtest thread would allocate into the same
//! global counter and turn the assertions into noise. CI runs it in
//! release (the `alloc-audit` job), matching the codegen the claims are
//! about.

// The counting allocator is the one place the workspace-wide
// `unsafe_code` deny is lifted: `GlobalAlloc` is an unsafe trait, and
// the implementation only forwards to `System`.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use xtwig::core::construct::{xbuild, BuildOptions, TruthSource};
use xtwig::core::estimate::EstimateOptions;
use xtwig::core::{
    coarse_synopsis, read_compiled_snapshot_in, save_synopsis_v3, CompiledSynopsis, StdVfs,
    Synopsis,
};
use xtwig::datagen::{xmark, Dataset, XMarkConfig};
use xtwig::workload::{generate_workload, WorkloadKind, WorkloadSpec};
use xtwig::xml::Document;

/// Heap blocks one verified v3 load of any generator's synopsis may
/// acquire.
const MAX_LOAD_ACQUISITIONS: u64 = 64;

/// Forwards every call to [`System`], counting acquisition events
/// (`alloc`, `alloc_zeroed`, `realloc`). Deallocations are not counted:
/// freeing warmed capacity would already imply a later re-acquisition,
/// which the acquisition counter catches.
struct CountingAlloc;

static ACQUISITIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ACQUISITIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ACQUISITIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ACQUISITIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The XBUILD synopsis of `doc` at 900 bytes over its coarse one.
fn built(doc: &Document, coarse: &Synopsis) -> Synopsis {
    let opts = BuildOptions {
        budget_bytes: coarse.size_bytes() + 900,
        refinements_per_round: 3,
        max_rounds: 20,
        seed: 7,
        ..Default::default()
    };
    xbuild(doc, TruthSource::Exact, &opts).0
}

/// Eight seeded branching queries over `doc`.
fn branching(doc: &Document) -> Vec<xtwig::query::TwigQuery> {
    let spec = WorkloadSpec {
        queries: 8,
        kind: WorkloadKind::Branching,
        seed: 7,
        ..Default::default()
    };
    generate_workload(doc, &spec).queries
}

#[test]
fn steady_state_queries_allocate_nothing() {
    steady_state_phase();
    fault_in_phase();
}

/// Phase one: warm estimates allocate nothing.
fn steady_state_phase() {
    // Setup (allocates freely): document, synopsis, compiled form,
    // workload. Small scale keeps the test fast; branching queries
    // exercise the full TREEPARSE recursion, not just path chains.
    let doc = xmark(XMarkConfig {
        scale: 0.01,
        seed: 7,
    });
    let s = built(&doc, &coarse_synopsis(&doc));
    let cs = CompiledSynopsis::compile(&s);
    let queries = branching(&doc);
    assert!(!queries.is_empty(), "workload generator produced nothing");
    let eopts = EstimateOptions::default();

    // Warm-up: grows each arena lane to its high-water mark, warms the
    // frame pool to the deepest recursion, and populates the expansion
    // memo. Two passes so pass two re-treads the exact steady state the
    // measured passes will see. The second pass's sum is the bitwise
    // reference every measured pass must reproduce.
    let mut reference = 0.0f64;
    for _ in 0..2 {
        reference = 0.0;
        for q in &queries {
            reference += cs.estimate_report(q, &eopts).estimate;
        }
    }

    // Measured window: nothing here may touch the allocator. The
    // accumulators are stack scalars; the reports are stack data; the
    // loop bounds are pre-existing.
    const PASSES: usize = 25;
    let before = ACQUISITIONS.load(Ordering::SeqCst);
    let mut divergent_passes = 0u64;
    for _ in 0..PASSES {
        let mut pass_sum = 0.0f64;
        for q in &queries {
            pass_sum += cs.estimate_report(q, &eopts).estimate;
        }
        if pass_sum.to_bits() != reference.to_bits() {
            divergent_passes += 1;
        }
    }
    let after = ACQUISITIONS.load(Ordering::SeqCst);

    let delta = after.saturating_sub(before);
    assert_eq!(
        delta,
        0,
        "steady-state estimation allocated: {} acquisition(s) across {} \
         queries ({} passes x {} queries). The zero-alloc invariant of \
         DESIGN.md §13 is broken — look for a collect()/Vec::new that \
         bypassed the arena, or a memo key that stopped reusing key_buf.",
        delta,
        PASSES * queries.len(),
        PASSES,
        queries.len(),
    );

    // The measured passes computed the same bits as the warm pass
    // (sanity that the zero-alloc path is the *real* path).
    assert_eq!(
        divergent_passes, 0,
        "measured passes diverged bitwise from the warm-up pass"
    );
}

/// Phase two: a verified v3 load of each generator's coarse and XBUILD
/// synopsis — the catalog fault-in's stat, read, CRC sweep and carve —
/// acquires at most [`MAX_LOAD_ACQUISITIONS`] heap blocks, and the
/// loaded synopsis answers like the in-memory compile.
fn fault_in_phase() {
    let dir = std::env::temp_dir().join(format!("xtwig-alloc-audit-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let eopts = EstimateOptions::default();
    for ds in Dataset::ALL {
        let doc = ds.generate(0.01);
        let coarse = coarse_synopsis(&doc);
        let xbuilt = built(&doc, &coarse);
        let queries = branching(&doc);
        for (form, s) in [("coarse", &coarse), ("xbuild", &xbuilt)] {
            let path = dir.join(format!("{}-{form}.xtwg", ds.name()));
            std::fs::write(&path, save_synopsis_v3(s)).unwrap();
            let before = ACQUISITIONS.load(Ordering::SeqCst);
            let loaded = read_compiled_snapshot_in(&StdVfs, &path, true);
            let acquired = ACQUISITIONS.load(Ordering::SeqCst).saturating_sub(before);
            let loaded = loaded.expect("verified v3 load");
            assert!(
                acquired <= MAX_LOAD_ACQUISITIONS,
                "{} {form} ({} nodes): a verified v3 load acquired {acquired} heap \
                 blocks, over {MAX_LOAD_ACQUISITIONS}. The carve should fill one set \
                 of flat columns per synopsis — look for a per-node Vec.",
                ds.name(),
                s.node_count(),
            );
            let compiled = CompiledSynopsis::compile(s);
            for q in &queries {
                let want = compiled.estimate_report(q, &eopts).estimate;
                let got = loaded.estimate_report(q, &eopts).estimate;
                assert_eq!(got.to_bits(), want.to_bits(), "{} {form}: {q}", ds.name());
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
