//! Workload generation, error metrics and the experiment harness (§6.1).
//!
//! Reproduces the paper's evaluation methodology:
//!
//! * **Workloads** ([`generate_workload`]): positive twig queries with
//!   4–8 twig nodes, in three flavours — `P` (branching predicates),
//!   `P+V` (branching + value predicates on random 10 % domain ranges,
//!   on half the queries), and `SimplePath` (no predicates, for the CST
//!   comparison). Negative workloads ([`negative_workload`]) mutate
//!   labels so selectivity is exactly zero.
//! * **Error metric** ([`avg_relative_error`]): average absolute relative
//!   error `|r − c| / max(s, c)` with the sanity bound `s` set to the
//!   10th percentile of the true counts.
//! * **One estimator trait**: the CST and Markov baselines
//!   ([`CstEstimator`], [`MarkovEstimator`]) and the guarded fallback
//!   chain ([`GuardedEstimator`]) implement the core's
//!   [`Estimator`](xtwig_core::Estimator), as the compiled Twig XSKETCH
//!   does, and **budget sweeps** ([`sweep_xsketch`], [`sweep_cst`])
//!   regenerate the Figure 9 series.

mod error;
mod estimator;
pub mod faults;
mod generator;
pub mod guarded;
pub mod ingest;
mod sweep;

pub use error::{avg_relative_error, ErrorReport};
pub use estimator::{CstEstimator, MarkovEstimator};
pub use faults::{
    run_catalog_soak, CatalogSoakOptions, Damage, SoakFault, SoakPhase, SoakPlan, SoakReport,
};
pub use generator::{
    generate_workload, negative_workload, workload_stats, Workload, WorkloadKind, WorkloadSpec,
    WorkloadStats,
};
pub use ingest::{
    random_delta, CheckpointKind, CrashPoint, IngestError, IngestOptions, IngestReport,
    IngestStats, IngestStore, RecoveryReport, CRASH_POINTS,
};

pub use guarded::{
    markov_from_synopsis, DegradationSnapshot, GuardedCatalog, GuardedEstimator, InjectedFault,
    Tier, TierFailure,
};
pub use sweep::{sweep_cst, sweep_xsketch, SweepOptions, SweepPoint};
