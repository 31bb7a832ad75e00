//! Allocation audit for the compiled estimation path, in three phases.
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
//! **Cold memo miss.** The first estimate on a freshly loaded synopsis
//! expands its twig in the thread's arena lanes — chains, the one
//! partial embedding the enumerator backtracks over, branch-predicate
//! expansions, the plan columns — and copies one flat plan out
//! (DESIGN.md §8). Once a warm-up pass has grown the lanes, it acquires
//! at most [`MAX_MISS_ACQUISITIONS`] heap blocks, whatever the
//! embedding count: the plan's columns, its `Arc`, the memo key and the
//! memo table's first growth. Every generator's P and P+V twigs, over
//! its coarse and XBUILD synopsis.
//!
//! The test *proves* all three with a counting global allocator:
//! snapshot the allocation counter, run the measured work, and compare.
//! It must
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
    coarse_synopsis, load_compiled_snapshot, read_compiled_snapshot_in, save_synopsis_v3,
    CompiledSynopsis, StdVfs, Synopsis,
};
use xtwig::datagen::{xmark, Dataset, XMarkConfig};
use xtwig::workload::{generate_workload, WorkloadKind, WorkloadSpec};
use xtwig::xml::Document;

/// Heap blocks one verified v3 load of any generator's synopsis may
/// acquire.
const MAX_LOAD_ACQUISITIONS: u64 = 64;

/// Heap blocks the first estimate on a freshly loaded synopsis — a cold
/// expansion-memo miss — may acquire once the thread's arena is warm:
/// five plan columns, the plan's `Arc`, the memo key and the memo
/// table's first allocation.
const MAX_MISS_ACQUISITIONS: u64 = 8;

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
    workload(doc, WorkloadKind::Branching)
}

/// Eight seeded queries of `kind` over `doc`.
fn workload(doc: &Document, kind: WorkloadKind) -> Vec<xtwig::query::TwigQuery> {
    let spec = WorkloadSpec {
        queries: 8,
        kind,
        seed: 7,
        ..Default::default()
    };
    generate_workload(doc, &spec).queries
}

#[test]
fn steady_state_queries_allocate_nothing() {
    steady_state_phase();
    fault_in_phase();
    cold_miss_phase();
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
            let loaded = read_compiled_snapshot_in(&StdVfs, &path);
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

/// Phase three: after one warm-up pass, the first estimate on a freshly
/// loaded synopsis — a cold memo miss — acquires at most
/// [`MAX_MISS_ACQUISITIONS`] heap blocks, for every generator's P and
/// P+V twigs over its coarse and XBUILD synopsis. The load itself is
/// not counted.
fn cold_miss_phase() {
    let eopts = EstimateOptions::default();
    let mut predicate_twigs = 0;
    for ds in Dataset::ALL {
        let doc = ds.generate(0.01);
        let coarse = coarse_synopsis(&doc);
        let xbuilt = built(&doc, &coarse);
        let mut queries = branching(&doc);
        queries.extend(workload(&doc, WorkloadKind::BranchingValues));
        predicate_twigs += queries.iter().filter(|q| q.has_value_predicate()).count();
        for (form, s) in [("coarse", &coarse), ("xbuild", &xbuilt)] {
            let image = save_synopsis_v3(s);
            let fresh = || load_compiled_snapshot(&image).expect("v3 loads");
            // Warm-up: grows the arena's expansion lanes to this
            // workload's high-water mark.
            for q in &queries {
                fresh().estimate_report(q, &eopts);
            }
            for q in &queries {
                let loaded = fresh();
                let before = ACQUISITIONS.load(Ordering::SeqCst);
                let report = loaded.estimate_report(q, &eopts);
                let acquired = ACQUISITIONS.load(Ordering::SeqCst).saturating_sub(before);
                assert_eq!(report.provenance.memo_hit, Some(false), "{q}");
                assert!(
                    acquired <= MAX_MISS_ACQUISITIONS,
                    "{} {form}: a cold memo miss on {q} ({} embeddings) acquired \
                     {acquired} heap blocks, over {MAX_MISS_ACQUISITIONS}. Expansion \
                     should run in the arena's lanes and copy one plan out — look for \
                     a clone or collect on the miss path.",
                    ds.name(),
                    report.provenance.embeddings,
                );
            }
        }
    }
    assert!(
        predicate_twigs > 0,
        "the P+V workloads carried no predicate"
    );
}
