//! Twig XSKETCH synopses — the primary contribution of *Selectivity
//! Estimation for XML Twigs* (ICDE 2004).
//!
//! A Twig XSKETCH (Definition 3.1) is a graph summary of an XML document:
//! elements are partitioned into synopsis nodes with a common tag, edges
//! carry backward/forward stability information, and every node stores a
//! multidimensional *edge histogram* approximating the joint distribution
//! of its elements' edge counts (plus an optional value summary). The
//! estimation framework (§4) expands a twig query into maximal twigs,
//! embeds them into the synopsis, and evaluates the TREEPARSE selectivity
//! expression under the paper's three statistical assumptions. The XBUILD
//! algorithm (§5) constructs an accurate synopsis for a byte budget by
//! greedy marginal-gains refinement.
//!
//! Crate map:
//! * [`synopsis`] — the graph summary: nodes, extents, edges with exact
//!   child/parent counts, derived B-/F-stability, per-node histograms.
//! * [`coarse`] — the label-split coarsest synopsis `S0` (XBUILD's seed).
//! * [`tsn`] — twig stable neighborhoods (§3.2).
//! * [`single_path`] — the single-path XSKETCH estimator used for
//!   `|A→B|` terms, branching predicates, and the §6.2 comparison.
//! * [`estimate`] — maximal-twig expansion, embedding enumeration, and
//!   the estimation API (options, budgets, reports).
//! * [`compiled`] — the TREEPARSE evaluator over the compiled synopsis.
//! * [`construct`] — refinement operations and the XBUILD driver.

#![forbid(unsafe_code)]

pub mod coarse;
pub mod compiled;
pub mod construct;
pub mod describe;
pub mod estimate;
pub mod io;
pub mod serve;
pub mod single_path;
pub mod sync;
pub mod synopsis;
pub mod telemetry;
pub mod tsn;
pub mod validate;

pub use coarse::coarse_synopsis;
pub use compiled::{CompiledHistogram, CompiledSynopsis};
pub use construct::{
    delta_xbuild, xbuild, BuildOptions, BuildTrace, DeltaBuildOptions, DeltaBuildOutcome,
    DeltaBuildReport, DriftMeter, Refinement, TruthSource,
};
pub use describe::describe;
pub use estimate::{
    coarse_count_bound, AssumptionCounts, EmbeddingContribution, EstimateOptions,
    EstimateOptionsBuilder, EstimateReport, EstimateRequest, Estimator, Exhaustion, Explain,
    Provenance, QueryTelemetry,
};
pub use io::pod::AlignedBytes;
pub use io::v3::{
    load_compiled_arena, load_compiled_snapshot, read_compiled_snapshot_in, save_synopsis_v3,
    verify_snapshot_v3,
};
pub use io::vfs::{FaultVfs, StdVfs, Vfs, VfsFaultPlan, VfsFile, VfsMetadata, INJECTED_PREFIX};
pub use io::wal::{
    decode_delta, encode_delta, parse_wal, read_wal, read_wal_in, TornTail, WalReplay, WalWriter,
};
pub use io::{
    load_synopsis, read_snapshot, save_synopsis, snapshot_checksum, write_bytes_atomic,
    write_bytes_atomic_in, write_snapshot_atomic, write_snapshot_atomic_in, SnapshotError,
};
pub use serve::breaker::{BackoffPolicy, BreakerConfig, BreakerState, CircuitBreaker};
pub use serve::{
    BatchServer, CacheStats, CatalogError, CatalogOptions, CatalogOptionsBuilder, CatalogStats,
    EstimateCache, FaultHook, RebuildHook, Resident, ServeTier, SnapshotCatalog,
};
pub use synopsis::{EdgeHistogram, ScopeDim, SynId, Synopsis, SynopsisEdge, ValueSummary};
pub use tsn::twig_stable_neighborhood;
pub use validate::{fsck, validate, FsckIssue, FsckReport};
