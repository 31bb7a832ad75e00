//! A deterministic fault-injection harness for the estimation service.
//!
//! A [`FaultPlan`] is a seeded, reproducible list of [`Fault`]s covering
//! the failure modes an operator actually sees: torn and bit-flipped
//! snapshot files, unreadable paths, pathological slow queries, and
//! tiers that die mid-request. [`run_fault_plan`] drives a full
//! load-or-recover + serve cycle under each fault and records what
//! happened — the acceptance bar is *zero uncaught panics and every
//! served estimate finite and non-negative*, with corruptions rejected
//! by typed errors and recovered by rebuilding the synopsis from the
//! document.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::Duration;
use xtwig_core::construct::DeltaBuildOptions;
use xtwig_core::estimate::{EstimateRequest, Estimator};
use xtwig_core::{
    coarse_synopsis, load_synopsis, save_synopsis, BackoffPolicy, BatchServer, BreakerConfig,
    BreakerState, CatalogError, CatalogOptions, CatalogStats, CompiledSynopsis, EstimateOptions,
    FaultVfs, SnapshotCatalog, SnapshotError, StdVfs, Synopsis, Vfs, VfsFaultPlan,
};
use xtwig_query::TwigQuery;
use xtwig_xml::Document;

use crate::guarded::{GuardPolicy, GuardedCatalog, GuardedEstimator, InjectedFault, Tier};
use crate::ingest::{random_delta, run_ingest_soak, IngestOptions, IngestStore};

/// One injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The snapshot file is cut off after `keep` bytes (a torn write).
    SnapshotTruncate {
        /// Bytes kept.
        keep: usize,
    },
    /// One bit of the snapshot is flipped (media corruption).
    SnapshotBitFlip {
        /// Byte position.
        byte: usize,
        /// Bit within the byte (0–7).
        bit: u8,
    },
    /// The snapshot is replaced by seeded random garbage.
    SnapshotGarbage {
        /// Garbage length.
        len: usize,
        /// Garbage seed.
        seed: u64,
    },
    /// The snapshot file is empty.
    SnapshotEmpty,
    /// The snapshot cannot be read at all (missing / unreadable path).
    IoUnreadable,
    /// The XSKETCH tier hits an artificial slow path under a deadline.
    SlowEstimate,
    /// Queries are served under a very tight wall-clock budget.
    TightDeadline {
        /// The budget, in microseconds.
        micros: u64,
    },
    /// The named tier panics on every query.
    PanicTier(Tier),
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fault::SnapshotTruncate { keep } => write!(f, "truncate snapshot to {keep} bytes"),
            Fault::SnapshotBitFlip { byte, bit } => {
                write!(f, "flip bit {bit} of snapshot byte {byte}")
            }
            Fault::SnapshotGarbage { len, .. } => write!(f, "replace snapshot with {len}B garbage"),
            Fault::SnapshotEmpty => write!(f, "empty snapshot"),
            Fault::IoUnreadable => write!(f, "unreadable snapshot path"),
            Fault::SlowEstimate => write!(f, "artificial slow path in xsketch tier"),
            Fault::TightDeadline { micros } => write!(f, "tight deadline of {micros}us"),
            Fault::PanicTier(t) => write!(f, "panic injected into {t} tier"),
        }
    }
}

/// A seeded, reproducible fault schedule.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// The generation seed (for reports).
    pub seed: u64,
    /// The faults, in injection order.
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// Generates a plan of `n` faults against a snapshot of
    /// `snapshot_len` bytes. The first eight slots cycle through every
    /// fault kind so even short plans cover the full failure surface;
    /// the remainder is seeded-random.
    pub fn generate(seed: u64, snapshot_len: usize, n: usize) -> FaultPlan {
        let mut rng = StdRng::seed_from_u64(seed);
        let len = snapshot_len.max(1);
        let mut faults = Vec::with_capacity(n);
        for i in 0..n {
            let kind = if i < 8 {
                i
            } else {
                rng.random_range(0..8usize)
            };
            faults.push(match kind {
                0 => Fault::SnapshotTruncate {
                    keep: rng.random_range(0..len),
                },
                1 => Fault::SnapshotBitFlip {
                    byte: rng.random_range(0..len),
                    bit: rng.random_range(0..8u32) as u8,
                },
                2 => Fault::SnapshotGarbage {
                    len: rng.random_range(1..2 * len),
                    seed: rng.random_range(0..u64::MAX),
                },
                3 => Fault::SnapshotEmpty,
                4 => Fault::IoUnreadable,
                5 => Fault::SlowEstimate,
                6 => Fault::TightDeadline {
                    micros: rng.random_range(100..2000u64),
                },
                _ => Fault::PanicTier(match rng.random_range(0..3u32) {
                    0 => Tier::Xsketch,
                    1 => Tier::Markov,
                    _ => Tier::LabelCount,
                }),
            });
        }
        FaultPlan { seed, faults }
    }
}

/// Applies a snapshot-corrupting fault to `bytes`, or returns `None`
/// for faults that do not touch the snapshot image.
pub fn apply_snapshot_fault(bytes: &[u8], fault: &Fault) -> Option<Vec<u8>> {
    match *fault {
        Fault::SnapshotTruncate { keep } => Some(bytes.get(..keep.min(bytes.len()))?.to_vec()),
        Fault::SnapshotBitFlip { byte, bit } => {
            let mut out = bytes.to_vec();
            let i = byte.min(out.len().saturating_sub(1));
            if let Some(b) = out.get_mut(i) {
                *b ^= 1u8 << (bit % 8);
            }
            Some(out)
        }
        Fault::SnapshotGarbage { len, seed } => {
            let mut rng = StdRng::seed_from_u64(seed);
            Some(
                (0..len)
                    .map(|_| rng.random_range(0..=255u32) as u8)
                    .collect(),
            )
        }
        Fault::SnapshotEmpty => Some(Vec::new()),
        _ => None,
    }
}

/// What happened under one injected fault.
#[derive(Debug, Clone)]
pub struct FaultOutcome {
    /// The fault injected.
    pub fault: Fault,
    /// A corrupted/unreadable snapshot was rejected with a typed error.
    pub rejected: Option<SnapshotError>,
    /// The service recovered by rebuilding the synopsis from the
    /// document.
    pub rebuilt: bool,
    /// Queries served.
    pub queries: usize,
    /// Queries that degraded below full fidelity.
    pub degraded: usize,
    /// Uncaught panics observed while serving (must stay 0).
    pub panics: usize,
    /// Served estimates that were NaN, negative, or infinite (must stay
    /// 0).
    pub bad_estimates: usize,
}

/// The aggregate result of a fault plan run.
#[derive(Debug, Clone)]
pub struct FaultReport {
    /// Per-fault outcomes, in plan order.
    pub outcomes: Vec<FaultOutcome>,
}

impl FaultReport {
    /// Total uncaught panics across the run (acceptance: 0).
    pub fn total_panics(&self) -> usize {
        self.outcomes.iter().map(|o| o.panics).sum()
    }

    /// Total non-finite/negative served estimates (acceptance: 0).
    pub fn total_bad_estimates(&self) -> usize {
        self.outcomes.iter().map(|o| o.bad_estimates).sum()
    }

    /// How many faults corrupted the snapshot and were rejected.
    pub fn total_rejections(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.rejected.is_some())
            .count()
    }

    /// How many faults forced a rebuild-from-document recovery.
    pub fn total_rebuilds(&self) -> usize {
        self.outcomes.iter().filter(|o| o.rebuilt).count()
    }

    /// How many queries degraded below full fidelity overall.
    pub fn total_degraded(&self) -> usize {
        self.outcomes.iter().map(|o| o.degraded).sum()
    }
}

impl std::fmt::Display for FaultReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "fault plan: {} faults, {} rejections, {} rebuilds, {} degraded queries, \
             {} panics, {} bad estimates",
            self.outcomes.len(),
            self.total_rejections(),
            self.total_rebuilds(),
            self.total_degraded(),
            self.total_panics(),
            self.total_bad_estimates()
        )?;
        for o in &self.outcomes {
            writeln!(
                f,
                "  {}: rejected={} rebuilt={} queries={} degraded={} panics={}",
                o.fault,
                o.rejected.is_some(),
                o.rebuilt,
                o.queries,
                o.degraded,
                o.panics
            )?;
        }
        Ok(())
    }
}

/// Runs the full fault plan: for each fault, corrupt (or budget-squeeze)
/// the serving path, recover if needed, serve every query through a
/// [`GuardedEstimator`], and record the outcome.
pub fn run_fault_plan(
    doc: &Document,
    queries: &[TwigQuery],
    plan: &FaultPlan,
    policy: &GuardPolicy,
) -> FaultReport {
    let pristine = coarse_synopsis(doc);
    let snapshot = save_synopsis(&pristine);
    let mut outcomes = Vec::with_capacity(plan.faults.len());
    for fault in &plan.faults {
        outcomes.push(run_one_fault(doc, queries, fault, policy, &snapshot));
    }
    FaultReport { outcomes }
}

fn run_one_fault(
    doc: &Document,
    queries: &[TwigQuery],
    fault: &Fault,
    policy: &GuardPolicy,
    snapshot: &[u8],
) -> FaultOutcome {
    let mut outcome = FaultOutcome {
        fault: *fault,
        rejected: None,
        rebuilt: false,
        queries: 0,
        degraded: 0,
        panics: 0,
        bad_estimates: 0,
    };

    // Resolve the synopsis to serve from: load the (possibly corrupted)
    // snapshot, falling back to a rebuild from the document — the same
    // recovery the CLI performs.
    let synopsis: Synopsis = match apply_snapshot_fault(snapshot, fault) {
        Some(corrupted) => match load_synopsis(&corrupted) {
            Ok(s) => s,
            Err(e) => {
                outcome.rejected = Some(e);
                outcome.rebuilt = true;
                coarse_synopsis(doc)
            }
        },
        None if *fault == Fault::IoUnreadable => {
            let bogus = std::path::Path::new("/nonexistent/xtwig/fault/plan.xtwg");
            match xtwig_core::read_snapshot(bogus) {
                Ok(s) => s,
                Err(e) => {
                    outcome.rejected = Some(e);
                    outcome.rebuilt = true;
                    coarse_synopsis(doc)
                }
            }
        }
        None => match load_synopsis(snapshot) {
            Ok(s) => s,
            Err(_) => {
                outcome.rebuilt = true;
                coarse_synopsis(doc)
            }
        },
    };

    // Apply estimator-level faults / budget squeezes.
    let mut fault_policy = *policy;
    let injected = match *fault {
        Fault::SlowEstimate => {
            if fault_policy.time_budget.is_none() {
                fault_policy.time_budget = Some(Duration::from_millis(2));
            }
            Some(InjectedFault::StallXsketch)
        }
        Fault::TightDeadline { micros } => {
            fault_policy.time_budget = Some(Duration::from_micros(micros));
            None
        }
        Fault::PanicTier(t) => Some(InjectedFault::PanicIn(t)),
        _ => None,
    };
    let mut estimator = GuardedEstimator::new(&synopsis, fault_policy);
    if let Some(injected) = injected {
        estimator = estimator.with_fault(injected);
    }

    for q in queries {
        outcome.queries += 1;
        let served = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Estimator::estimate(&estimator, &EstimateRequest::new(q))
        }));
        match served {
            Err(_) => outcome.panics += 1,
            Ok(report) => {
                if report.provenance.degraded {
                    outcome.degraded += 1;
                }
                if !report.estimate.is_finite() || report.estimate < 0.0 {
                    outcome.bad_estimates += 1;
                }
            }
        }
    }
    outcome
}

// ---------------------------------------------------------------------
// Catalog fault soak
// ---------------------------------------------------------------------

/// The document name every soak tenant publishes under.
const SOAK_DOCUMENT: &str = "main";

/// A fault fired at the catalog while a soak phase's requests are in
/// flight. Phases without one serve healthy traffic on the primary key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SoakFault {
    /// The phase's requests race, one per thread, to the primary key
    /// just after it was made cold: the slot mutex must collapse them
    /// onto exactly one disk load.
    Stampede,
    /// The fault hook panics every serve of the victim tenant while
    /// every other tenant serves beside it: the victim's breaker must
    /// open and shed it at admission, and no bystander may see an error
    /// or a changed bit.
    PanicBurst,
    /// The hook is cleared and the breaker cooldown elapses: the
    /// victim's half-open probe must succeed and re-close its breaker.
    Recovery,
    /// A verified snapshot is hot-reloaded into the primary key
    /// mid-flight.
    Reload,
    /// A corrupt snapshot reload is attempted mid-flight: verification
    /// must reject it and publish nothing (the rollback).
    CorruptReload,
    /// Every request to the warm primary key but the last carries a
    /// work limit of one unit, which tier 1 cannot meet: the guarded
    /// chain must answer them from its fallback tiers. Neither the
    /// key's cache nor its expansion memo may answer for free under a
    /// work limit. The last request has no limit and must get tier 1:
    /// exhausted budgets belong to their requests and never trip the
    /// key's tier-1 breaker.
    Starve,
    /// The hook sleeps 2 ms while it holds each request's quota slot,
    /// and four times as many callers as the quota admits serve at
    /// once: the tenant quota must shed.
    Saturate,
    /// A delta-ingest stream with `kills` simulated crashes publishes
    /// every recovered synopsis into the primary key while the phase's
    /// requests serve.
    MutationReload {
        /// Simulated ingest crashes that must fire during the phase.
        kills: u32,
    },
}

/// One phase of a soak: a request wave with at most one fault in force.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SoakPhase {
    /// Phase label for reports.
    pub label: &'static str,
    /// Serve calls per participating key (queries cycled from the
    /// workload set, one query per call).
    pub requests: usize,
    /// The fault in force, if any.
    pub fault: Option<SoakFault>,
}

/// A seeded, reproducible soak schedule over `tenants` catalog keys
/// (`tenant-0` is the primary; the last tenant is the breaker victim).
/// The fixed phase *structure* guarantees every transition is
/// exercised; the seed only varies wave sizes, so any seed produces a
/// plan whose invariants are checkable.
#[derive(Debug, Clone)]
pub struct SoakPlan {
    /// The generation seed (for reports).
    pub seed: u64,
    /// Tenants published, one `main` document each.
    pub tenants: usize,
    /// The phases, in execution order.
    pub phases: Vec<SoakPhase>,
}

impl SoakPlan {
    /// The full single-key plan: healthy warm-up, breaker burst and
    /// recovery, mid-flight reload, corrupt reload, starvation through
    /// the fallback chain, saturation, and reload under mutation. The
    /// burst is sized from the breaker threshold so the breaker *must*
    /// open, and the saturation wave from the tenant quota so the quota
    /// *must* shed.
    pub fn generate(seed: u64, options: &CatalogSoakOptions) -> SoakPlan {
        let mut rng = StdRng::seed_from_u64(seed);
        let phases = vec![
            SoakPhase {
                label: "healthy-warmup",
                requests: 8 + rng.random_range(0..8usize),
                fault: None,
            },
            burst_phase(&mut rng, options),
            SoakPhase {
                label: "breaker-recovery",
                requests: 4 + rng.random_range(0..4usize),
                fault: Some(SoakFault::Recovery),
            },
            SoakPhase {
                label: "mid-flight-reload",
                requests: 16 + rng.random_range(0..16usize),
                fault: Some(SoakFault::Reload),
            },
            SoakPhase {
                label: "corrupt-reload",
                requests: 8 + rng.random_range(0..8usize),
                fault: Some(SoakFault::CorruptReload),
            },
            SoakPhase {
                label: "degraded-fallback",
                requests: 8 + rng.random_range(0..8usize),
                fault: Some(SoakFault::Starve),
            },
            saturation_phase(&mut rng, options),
            SoakPhase {
                label: "reload-under-mutation",
                requests: 16 + rng.random_range(0..16usize),
                fault: Some(SoakFault::MutationReload {
                    kills: 50 + rng.random_range(0..8u32),
                }),
            },
        ];
        SoakPlan {
            seed,
            tenants: 1,
            phases,
        }
    }

    /// Only the saturation phase — the CLI's deterministic "shed
    /// without rollback" profile.
    pub fn saturation_only(seed: u64, options: &CatalogSoakOptions) -> SoakPlan {
        let mut rng = StdRng::seed_from_u64(seed);
        SoakPlan {
            seed,
            tenants: 1,
            phases: vec![saturation_phase(&mut rng, options)],
        }
    }

    /// The tenant-isolation plan over four keys: a cold stampede of
    /// eight callers, a victim's panic burst beside healthy bystanders,
    /// and recovery. With more tenants than resident slots the burst
    /// also churns eviction. Run it under
    /// [`CatalogSoakOptions::isolation`]: a tenant quota below the
    /// stampede would shed callers before they reach the load.
    pub fn isolation(seed: u64, options: &CatalogSoakOptions) -> SoakPlan {
        let mut rng = StdRng::seed_from_u64(seed);
        SoakPlan {
            seed,
            tenants: 4,
            phases: vec![
                SoakPhase {
                    label: "cold-stampede",
                    requests: STAMPEDE_CALLERS,
                    fault: Some(SoakFault::Stampede),
                },
                burst_phase(&mut rng, options),
                SoakPhase {
                    label: "breaker-recovery",
                    requests: 2 + rng.random_range(0..4usize),
                    fault: Some(SoakFault::Recovery),
                },
            ],
        }
    }

    /// Serve calls across all phases (a panic burst serves its
    /// `requests` on every tenant).
    pub fn total_requests(&self) -> usize {
        self.phases
            .iter()
            .map(|p| match p.fault {
                Some(SoakFault::PanicBurst) => p.requests * self.tenants.max(1),
                _ => p.requests,
            })
            .sum()
    }
}

/// Callers that race one cold key in a stampede phase, one request
/// each.
const STAMPEDE_CALLERS: usize = 8;

/// A victim burst long enough to trip the breaker and then be shed.
fn burst_phase(rng: &mut StdRng, options: &CatalogSoakOptions) -> SoakPhase {
    let threshold = options.catalog.breaker.failure_threshold as usize;
    SoakPhase {
        label: "breaker-burst",
        requests: threshold.max(1) + 3 + rng.random_range(0..4usize),
        fault: Some(SoakFault::PanicBurst),
    }
}

/// Callers of a saturation wave: four times what the quota admits.
fn saturation_callers(options: &CatalogSoakOptions) -> usize {
    options.catalog.tenant_quota.max(1).saturating_mul(4).max(8)
}

/// A stall wave of two requests per caller, plus seeded extras.
fn saturation_phase(rng: &mut StdRng, options: &CatalogSoakOptions) -> SoakPhase {
    SoakPhase {
        label: "saturation",
        requests: saturation_callers(options) * 2 + rng.random_range(0..8usize),
        fault: Some(SoakFault::Saturate),
    }
}

/// Knobs for the catalog soak. Defaults are sized so a run finishes in
/// seconds while forcing every transition: a small tenant quota for the
/// saturation wave, a low breaker threshold with a cooldown short
/// enough to recover within the run, and two resident slots so a
/// multi-tenant plan churns eviction.
#[derive(Debug, Clone, Copy)]
pub struct CatalogSoakOptions {
    /// Caller threads for healthy waves (clamped to the tenant quota).
    pub threads: usize,
    /// Catalog configuration (quota, breaker, residency bound, …).
    pub catalog: CatalogOptions,
}

impl Default for CatalogSoakOptions {
    fn default() -> CatalogSoakOptions {
        CatalogSoakOptions {
            threads: 4,
            catalog: CatalogOptions::builder()
                .tenant_quota(4)
                .max_resident(2)
                .breaker(BreakerConfig {
                    failure_threshold: 3,
                    cooldown: Duration::from_millis(50),
                })
                .build(),
        }
    }
}

impl CatalogSoakOptions {
    /// The defaults with an unlimited tenant quota, for
    /// [`SoakPlan::isolation`]: that plan has no saturation wave, and
    /// every one of its eight stampede callers must reach the single
    /// cold load rather than be shed by the quota.
    pub fn isolation() -> CatalogSoakOptions {
        let defaults = CatalogSoakOptions::default();
        CatalogSoakOptions {
            catalog: defaults.catalog.to_builder().tenant_quota(0).build(),
            ..defaults
        }
    }
}

/// The aggregate result of [`run_catalog_soak`]. Every field feeds one
/// of the acceptance invariants; [`SoakReport::passed`] checks them all.
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// Phases executed.
    pub phases: usize,
    /// Tenants published.
    pub tenants: usize,
    /// Serve calls issued across all phases.
    pub requests: u64,
    /// Requests answered at full fidelity.
    pub full: u64,
    /// Requests answered degraded (a fallback tier, or a clamped sum).
    pub degraded: u64,
    /// Requests refused with a typed catalog error.
    pub shed: u64,
    /// Serve calls that panicked out of the catalog (must be 0).
    pub escaped_panics: u64,
    /// Served estimates that were non-finite, negative, or (full-fidelity
    /// answers where the answer is known) not bit-identical to a fresh
    /// compile (must be 0).
    pub bad_estimates: u64,
    /// Typed errors other than quota, breaker and contained-fault sheds
    /// (must be 0).
    pub unexpected_errors: u64,
    /// Phases whose quota, breaker and fault sheds disagreed with the
    /// catalog's own counters (must be 0).
    pub stat_mismatches: u64,
    /// Disk loads the cold stampede caused (1 when one ran).
    pub stampede_cold_loads: u64,
    /// Whether the victim's breaker was observed open after the burst.
    pub breaker_opened: bool,
    /// Whether the victim was shed at admission while it was open.
    pub shed_while_open: bool,
    /// Whether the victim's breaker re-closed during recovery.
    pub breaker_reclosed: bool,
    /// Errors, degraded answers or changed bits bystanders saw during
    /// the burst (must be 0).
    pub bystander_errors: u64,
    /// Verified reloads published.
    pub reloads: u64,
    /// Corrupt reloads rejected (nothing published).
    pub reload_rollbacks: u64,
    /// Ingest kill/recover cycles that fired during mutation phases.
    pub ingest_kills: u64,
    /// Ingest invariant violations (failed recoveries, torn states,
    /// fsck failures, rejected publishes — must be 0).
    pub ingest_failures: u64,
    /// Checkpoints committed by the mutation stream.
    pub ingest_checkpoints: u64,
    /// Drift-triggered refinements installed by the mutation stream.
    pub ingest_refinements: u64,
    /// Whether post-soak estimates on the primary key were
    /// bit-identical to a fresh [`GuardedEstimator`] over the surviving
    /// snapshot.
    pub post_soak_bit_identical: bool,
    /// Phase invariants that did not hold (must be empty).
    pub violations: Vec<String>,
    /// Final catalog counters.
    pub stats: CatalogStats,
}

impl SoakReport {
    /// Whether every acceptance invariant held.
    pub fn passed(&self) -> bool {
        self.escaped_panics == 0
            && self.bad_estimates == 0
            && self.unexpected_errors == 0
            && self.stat_mismatches == 0
            && self.bystander_errors == 0
            && self.ingest_failures == 0
            && self.full + self.degraded + self.shed == self.requests
            && self.post_soak_bit_identical
            && self.violations.is_empty()
    }
}

impl std::fmt::Display for SoakReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "soak: {} phases over {} keys, {} requests ({} full / {} degraded / {} shed), \
             {} escaped panics, {} bad estimates, {} unexpected errors, {} stat mismatches, \
             {} stampede cold loads, breaker open={} shed={} reclose={}, \
             {} bystander errors, {} evictions, {} reloads, {} rollbacks, \
             {} ingest kills ({} failures, {} checkpoints, {} refinements), \
             bit-identical={}",
            self.phases,
            self.tenants,
            self.requests,
            self.full,
            self.degraded,
            self.shed,
            self.escaped_panics,
            self.bad_estimates,
            self.unexpected_errors,
            self.stat_mismatches,
            self.stampede_cold_loads,
            self.breaker_opened,
            self.shed_while_open,
            self.breaker_reclosed,
            self.bystander_errors,
            self.stats.evictions,
            self.reloads,
            self.reload_rollbacks,
            self.ingest_kills,
            self.ingest_failures,
            self.ingest_checkpoints,
            self.ingest_refinements,
            self.post_soak_bit_identical
        )?;
        if !self.violations.is_empty() {
            write!(f, "; violated: {}", self.violations.join("; "))?;
        }
        Ok(())
    }
}

/// What one wave of soak requests saw.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    full: u64,
    degraded: u64,
    /// Every typed error.
    shed: u64,
    /// Of those, breaker-open sheds.
    breaker_sheds: u64,
    /// Of those, errors that are not quota, breaker or fault sheds.
    unexpected: u64,
    bad: u64,
    escaped: u64,
}

impl Tally {
    fn merge(&mut self, o: Tally) {
        self.full += o.full;
        self.degraded += o.degraded;
        self.shed += o.shed;
        self.breaker_sheds += o.breaker_sheds;
        self.unexpected += o.unexpected;
        self.bad += o.bad;
        self.escaped += o.escaped;
    }

    /// Requests that reached any outcome.
    fn issued(&self) -> u64 {
        self.full + self.degraded + self.shed + self.escaped
    }
}

/// Issues one serve call for `q` and tallies its outcome. `want` is the
/// known full-fidelity answer, when the phase expects one.
fn serve_tallied(
    catalog: &GuardedCatalog,
    tenant: &str,
    q: &TwigQuery,
    opts: &EstimateOptions,
    want: Option<f64>,
    t: &mut Tally,
) {
    let served = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        catalog.serve(tenant, SOAK_DOCUMENT, std::slice::from_ref(q), opts)
    }));
    match served {
        Err(_) => t.escaped += 1,
        Ok(Ok(reports)) => {
            for r in reports {
                if r.provenance.degraded {
                    t.degraded += 1;
                } else {
                    t.full += 1;
                }
                // A fallback tier answers differently by design; only a
                // full-fidelity answer must match the known one.
                let changed = !r.provenance.degraded
                    && want.is_some_and(|w| w.to_bits() != r.estimate.to_bits());
                if !r.estimate.is_finite() || r.estimate < 0.0 || changed {
                    t.bad += 1;
                }
            }
        }
        Ok(Err(e)) => {
            t.shed += 1;
            match e {
                CatalogError::BreakerOpen { .. } => t.breaker_sheds += 1,
                CatalogError::QuotaExceeded { .. } | CatalogError::Faulted { .. } => {}
                _ => t.unexpected += 1,
            }
        }
    }
}

/// Issues `count` serve calls against `tenant` from `callers` threads
/// released together; call `i` serves query `i mod len`.
fn drive(
    catalog: &GuardedCatalog,
    tenant: &str,
    queries: &[TwigQuery],
    reference: Option<&[f64]>,
    count: usize,
    callers: usize,
    opts: &EstimateOptions,
) -> Tally {
    let callers = callers.clamp(1, count.max(1));
    let start = std::sync::Barrier::new(callers);
    let mut total = Tally::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..callers)
            .map(|c| {
                let start = &start;
                scope.spawn(move || {
                    let mut t = Tally::default();
                    start.wait();
                    for i in (c..count).step_by(callers) {
                        let k = i % queries.len();
                        let want = reference.and_then(|r| r.get(k)).copied();
                        if let Some(q) = queries.get(k) {
                            serve_tallied(catalog, tenant, q, opts, want, &mut t);
                        }
                    }
                    t
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(t) => total.merge(t),
                Err(_) => total.escaped += 1,
            }
        }
    });
    total
}

/// Runs `wave` on a scoped thread while `side` runs on this one.
fn beside<R>(wave: impl FnOnce() -> Tally + Send, side: impl FnOnce() -> R) -> (Tally, R) {
    std::thread::scope(|scope| {
        let handle = scope.spawn(wave);
        let r = side();
        let t = handle.join().unwrap_or(Tally {
            escaped: 1,
            ..Tally::default()
        });
        (t, r)
    })
}

/// Flips one byte mid-snapshot so the CRC must reject it.
fn corrupt_copy(bytes: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    let mid = out.len() / 2;
    if let Some(b) = out.get_mut(mid) {
        *b ^= 0xFF;
    }
    out
}

/// Sheds the catalog counted itself: quota, breaker, contained faults.
fn counted_sheds(s: &CatalogStats) -> u64 {
    s.quota_sheds + s.breaker_sheds + s.faults
}

/// Runs a catalog fault soak: publishes the document's synopsis under
/// `plan.tenants` keys of a [`GuardedCatalog`] rooted at `dir` and
/// drives every phase of `plan`, firing the phase's fault while its
/// requests are in flight. Deterministic in its *invariants* — thread
/// interleavings vary, but every request ends full, degraded or shed
/// with a typed error, panic containment is total, the phase
/// transitions are forced by plan construction, and the post-soak
/// estimates must be bit-identical to a fresh [`GuardedEstimator`] on
/// the surviving snapshot.
pub fn run_catalog_soak(
    doc: &Document,
    queries: &[TwigQuery],
    dir: &std::path::Path,
    plan: &SoakPlan,
    options: &CatalogSoakOptions,
) -> SoakReport {
    let tenants = plan.tenants.max(1);
    let synopsis = coarse_synopsis(doc);
    let pristine = save_synopsis(&synopsis);
    let catalog: GuardedCatalog =
        SnapshotCatalog::open_tier(dir, options.catalog, std::sync::Arc::new(StdVfs));
    let tenant = |i: usize| format!("tenant-{i}");
    let primary = tenant(0);
    let victim = tenant(tenants - 1);
    let cooldown = options.catalog.breaker.cooldown;
    let quota = options.catalog.tenant_quota;
    let callers = if quota == 0 {
        options.threads
    } else {
        options.threads.min(quota)
    };
    let healthy = EstimateOptions::default();

    let mut report = SoakReport {
        phases: plan.phases.len(),
        tenants,
        requests: 0,
        full: 0,
        degraded: 0,
        shed: 0,
        escaped_panics: 0,
        bad_estimates: 0,
        unexpected_errors: 0,
        stat_mismatches: 0,
        stampede_cold_loads: 0,
        breaker_opened: false,
        shed_while_open: false,
        breaker_reclosed: false,
        bystander_errors: 0,
        reloads: 0,
        reload_rollbacks: 0,
        ingest_kills: 0,
        ingest_failures: 0,
        ingest_checkpoints: 0,
        ingest_refinements: 0,
        post_soak_bit_identical: false,
        violations: Vec::new(),
        stats: catalog.stats(),
    };
    if queries.is_empty() {
        return report;
    }
    for i in 0..tenants {
        if let Err(e) = catalog.publish(&tenant(i), SOAK_DOCUMENT, &synopsis) {
            report
                .violations
                .push(format!("publish {}: {e}", tenant(i)));
            return report;
        }
    }

    // The full-fidelity answers of the published synopsis: a fresh
    // compile, no catalog involved.
    let compiled = CompiledSynopsis::compile(&synopsis);
    let reference: Vec<f64> = BatchServer::new(&compiled)
        .serve(queries)
        .iter()
        .map(|r| r.estimate)
        .collect();
    // The snapshot the primary key should end on.
    let mut surviving = pristine.clone();

    for phase in &plan.phases {
        let before = catalog.stats();
        let mut check = |ok: bool, what: &str| {
            if !ok {
                report.violations.push(format!("{}: {what}", phase.label));
            }
        };
        let n = phase.requests;
        let t = match phase.fault {
            None => drive(
                &catalog,
                &primary,
                queries,
                Some(&reference),
                n,
                callers,
                &healthy,
            ),
            Some(SoakFault::Stampede) => {
                catalog.invalidate(&primary, SOAK_DOCUMENT);
                let t = drive(
                    &catalog,
                    &primary,
                    queries,
                    Some(&reference),
                    n,
                    n,
                    &healthy,
                );
                report.stampede_cold_loads = catalog.stats().cold_loads - before.cold_loads;
                check(
                    report.stampede_cold_loads == 1,
                    "the stampede did not collapse to one load",
                );
                check(t.shed == 0, "a stampede caller was shed before the load");
                t
            }
            Some(SoakFault::PanicBurst) => {
                {
                    let hooked = victim.clone();
                    catalog.set_fault_hook(Some(Box::new(move |t, _| t == hooked)));
                }
                let (bystanders, t) = beside(
                    || {
                        let mut b = Tally::default();
                        for name in (0..tenants).map(tenant).filter(|name| *name != victim) {
                            b.merge(drive(
                                &catalog,
                                &name,
                                queries,
                                Some(&reference),
                                n,
                                1,
                                &healthy,
                            ));
                        }
                        b
                    },
                    || drive(&catalog, &victim, queries, None, n, 1, &healthy),
                );
                report.bystander_errors +=
                    bystanders.shed + bystanders.degraded + bystanders.bad + bystanders.escaped;
                report.shed_while_open = t.breaker_sheds > 0;
                report.breaker_opened = catalog.breaker_state(&victim) == Some(BreakerState::Open);
                check(report.breaker_opened, "the victim's breaker never opened");
                check(
                    report.shed_while_open,
                    "the open breaker never shed the victim",
                );
                // Let the cooldown elapse so a later probe re-closes it.
                std::thread::sleep(cooldown);
                let mut t = t;
                t.merge(bystanders);
                t
            }
            Some(SoakFault::Recovery) => {
                catalog.set_fault_hook(None);
                std::thread::sleep(cooldown + Duration::from_millis(5));
                let t = drive(&catalog, &victim, queries, Some(&reference), n, 1, &healthy);
                report.breaker_reclosed =
                    catalog.breaker_state(&victim) == Some(BreakerState::Closed);
                check(
                    report.breaker_reclosed,
                    "the victim's breaker did not re-close",
                );
                t
            }
            Some(SoakFault::Reload) | Some(SoakFault::CorruptReload) => {
                let valid = phase.fault == Some(SoakFault::Reload);
                let bytes = if valid {
                    pristine.clone()
                } else {
                    corrupt_copy(&pristine)
                };
                let (t, outcome) = beside(
                    || drive(&catalog, &primary, queries, None, n, callers, &healthy),
                    || {
                        // A brief yield so requests are in motion when
                        // the reload lands; correctness does not depend
                        // on it.
                        std::thread::sleep(Duration::from_micros(200));
                        catalog.reload(&primary, SOAK_DOCUMENT, &bytes)
                    },
                );
                match (valid, outcome) {
                    (true, Ok(_)) => {
                        report.reloads += 1;
                        surviving = bytes;
                    }
                    (false, Err(_)) => report.reload_rollbacks += 1,
                    (true, Err(_)) => check(false, "a verified reload was rejected"),
                    (false, Ok(_)) => check(false, "a corrupt reload was published"),
                }
                t
            }
            Some(SoakFault::Starve) => {
                let starved = EstimateOptions::builder().work_limit(1).build();
                let mut t = drive(
                    &catalog,
                    &primary,
                    queries,
                    None,
                    n.saturating_sub(1),
                    callers,
                    &starved,
                );
                check(t.degraded > 0, "no request fell back");
                let after = drive(
                    &catalog,
                    &primary,
                    queries,
                    Some(&reference),
                    1,
                    1,
                    &healthy,
                );
                check(
                    after.full == 1,
                    "starved budgets switched an unbudgeted caller off tier 1",
                );
                t.merge(after);
                t
            }
            Some(SoakFault::Saturate) => {
                {
                    let hooked = primary.clone();
                    catalog.set_fault_hook(Some(Box::new(move |t, _| {
                        if t == hooked {
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        false
                    })));
                }
                let wave_callers = saturation_callers(options);
                let t = drive(
                    &catalog,
                    &primary,
                    queries,
                    Some(&reference),
                    n,
                    wave_callers,
                    &healthy,
                );
                catalog.set_fault_hook(None);
                check(t.shed > 0, "the quota never shed");
                t
            }
            Some(SoakFault::MutationReload { kills }) => {
                let ingest_dir = dir.join("ingest");
                let opts = IngestOptions {
                    delta: DeltaBuildOptions {
                        drift_threshold: 0.5,
                        ..Default::default()
                    },
                    checkpoint_every: 4,
                    ..Default::default()
                };
                let (t, outcome) = beside(
                    || drive(&catalog, &primary, queries, None, n, callers, &healthy),
                    || {
                        let key = (&catalog, primary.as_str(), SOAK_DOCUMENT);
                        run_ingest_soak(
                            doc,
                            &ingest_dir,
                            plan.seed,
                            u64::from(kills),
                            &opts,
                            Some(key),
                        )
                    },
                );
                // lint:allow(vfs-direct): soak-harness scratch-dir wipe
                let _ = std::fs::remove_dir_all(&ingest_dir);
                match outcome {
                    Ok(rep) => {
                        report.ingest_kills += rep.kills;
                        report.ingest_checkpoints += rep.checkpoints;
                        report.ingest_refinements += rep.refinements;
                        report.ingest_failures += rep.recovery_failures
                            + rep.state_mismatches
                            + rep.fsck_failures
                            + rep.publish_failures;
                        check(rep.kills >= u64::from(kills), "too few kill/recover cycles");
                        check(rep.checkpoints > 0, "no checkpoint committed");
                        surviving = rep.final_snapshot;
                    }
                    Err(_) => report.ingest_failures += 1,
                }
                t
            }
        };
        let after = catalog.stats();
        if counted_sheds(&after) - counted_sheds(&before) != t.shed - t.unexpected {
            report.stat_mismatches += 1;
        }
        report.requests += t.issued();
        report.full += t.full;
        report.degraded += t.degraded;
        report.shed += t.shed;
        report.escaped_panics += t.escaped;
        report.bad_estimates += t.bad;
        report.unexpected_errors += t.unexpected;
    }
    catalog.set_fault_hook(None);

    // Post-soak bit-identity: the primary key must answer exactly like
    // a fresh chain over the snapshot that should have survived — the
    // soak left no residue in the serving state.
    std::thread::sleep(cooldown);
    report.post_soak_bit_identical = match (
        load_synopsis(&surviving),
        catalog.serve(&primary, SOAK_DOCUMENT, queries, &healthy),
    ) {
        (Ok(fresh_syn), Ok(served)) => {
            let fresh = GuardedEstimator::new(&fresh_syn, GuardPolicy::default());
            served.len() == queries.len()
                && queries.iter().zip(&served).all(|(q, r)| {
                    let want = Estimator::estimate(&fresh, &EstimateRequest::new(q)).estimate;
                    want.to_bits() == r.estimate.to_bits()
                })
        }
        _ => false,
    };
    report.stats = catalog.stats();
    let max_resident = options.catalog.max_resident;
    if max_resident != 0 && tenants > max_resident && report.stats.evictions == 0 {
        report
            .violations
            .push("more tenants than resident slots, yet nothing was evicted".into());
    }
    report
}

// ---------------------------------------------------------------------
// Storage chaos soak (device-level fault injection through the VFS)
// ---------------------------------------------------------------------

/// Knobs for the storage-chaos soak. Defaults match the CI acceptance
/// bar: 50 seeded fault plans cycling write-error/ENOSPC, torn-rename,
/// fsync-failure, transient-read, and bit-rot emphasis.
#[derive(Debug, Clone, Copy)]
pub struct StorageChaosOptions {
    /// Seeded fault plans to run (each gets a write phase and a read
    /// phase).
    pub plans: usize,
    /// The master seed; plan `i` derives its own `VfsFaultPlan` seed.
    pub seed: u64,
    /// Deltas ingested under write-side faults per plan.
    pub deltas_per_plan: usize,
    /// Cold fault-ins served under read-side faults per plan.
    pub serves_per_plan: usize,
}

impl Default for StorageChaosOptions {
    fn default() -> StorageChaosOptions {
        StorageChaosOptions {
            plans: 50,
            seed: 0xC4A05,
            deltas_per_plan: 6,
            serves_per_plan: 6,
        }
    }
}

/// The fault emphasis a chaos plan injects (one of five, cycled by plan
/// index so every category fires many times across a default run).
fn chaos_fault_plan(seed: u64, index: u64) -> VfsFaultPlan {
    let s = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let base = VfsFaultPlan {
        seed: s,
        stall: 50,
        stall_micros: 10,
        ..VfsFaultPlan::default()
    };
    match index % 5 {
        0 => VfsFaultPlan {
            write_error: 200,
            short_write: 150,
            enospc: true,
            ..base
        },
        1 => VfsFaultPlan {
            rename_error: 300,
            ..base
        },
        2 => VfsFaultPlan {
            fsync_error: 300,
            ..base
        },
        3 => VfsFaultPlan {
            read_error: 300,
            ..base
        },
        _ => VfsFaultPlan {
            read_flip: 300,
            ..base
        },
    }
}

/// The aggregate result of [`run_storage_chaos`]. The invariants are
/// the storage fault model's acceptance bar: panics never escape, a
/// faulted commit never publishes torn state (recovery on a clean
/// device is fsck-clean and bit-identical to an observed durable
/// state), and every read-side request ends correct or typed.
#[derive(Debug, Clone, Default)]
pub struct StorageChaosReport {
    /// Fault plans executed.
    pub plans: u64,
    /// Deltas attempted under write-side faults.
    pub write_attempts: u64,
    /// Write-side attempts rejected with a typed error (the injector
    /// fired inside the commit protocol).
    pub write_faults: u64,
    /// Panics that escaped any faulted operation (must be 0).
    pub escaped_panics: u64,
    /// Clean-device reopens after write chaos that failed outright
    /// (must be 0 — the atomic commit protocol guarantees a complete
    /// generation).
    pub recovery_failures: u64,
    /// Recovered stores that failed the structural fsck (must be 0).
    pub fsck_failures: u64,
    /// Recovered states bit-identical to no observed durable state
    /// (must be 0 — pre- or post-delta, never a torn hybrid).
    pub state_mismatches: u64,
    /// Cold fault-ins attempted under read-side faults.
    pub serves: u64,
    /// Read-side serves that succeeded.
    pub serve_ok: u64,
    /// Successful serves whose estimates were not bit-identical to the
    /// pristine reference (must be 0 — never serve garbage).
    pub serve_mismatches: u64,
    /// Read-side serves rejected with a typed [`CatalogError`].
    pub serve_typed_errors: u64,
    /// Serves rejected because the tenant was quarantined.
    pub quarantines: u64,
    /// Serves of the published key answered
    /// [`CatalogError::UnknownDocument`] (must be 0 — a failed stat is
    /// transient I/O, not a missing file).
    pub lost_documents: u64,
    /// Post-chaos serves (device healthy again) that failed or
    /// mismatched (must be 0 — quarantine lifts on republish/invalidate
    /// and recovery is bit-identical).
    pub post_recovery_failures: u64,
    /// Transient-read retries the catalog performed.
    pub load_retries: u64,
    /// Corrupt snapshots rebuilt in place from the source document.
    pub rebuilds: u64,
    /// Faults the injector actually fired across both phases.
    pub injected_faults: u64,
}

impl StorageChaosReport {
    /// Whether every storage-fault invariant held.
    pub fn passed(&self) -> bool {
        self.escaped_panics == 0
            && self.recovery_failures == 0
            && self.fsck_failures == 0
            && self.state_mismatches == 0
            && self.serve_mismatches == 0
            && self.lost_documents == 0
            && self.post_recovery_failures == 0
    }
}

impl std::fmt::Display for StorageChaosReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "storage chaos: {} plans, {} injected faults, write {}/{} faulted, \
             {} escaped panics, {} recovery failures, {} fsck failures, \
             {} state mismatches, read {}/{} ok ({} typed, {} quarantines, \
             {} retries, {} rebuilds), {} serve mismatches, {} lost documents, \
             {} post-recovery failures",
            self.plans,
            self.injected_faults,
            self.write_faults,
            self.write_attempts,
            self.escaped_panics,
            self.recovery_failures,
            self.fsck_failures,
            self.state_mismatches,
            self.serve_ok,
            self.serves,
            self.serve_typed_errors,
            self.quarantines,
            self.load_retries,
            self.rebuilds,
            self.serve_mismatches,
            self.lost_documents,
            self.post_recovery_failures,
        )
    }
}

/// Runs the storage-chaos soak: for each seeded plan, (a) drive an
/// [`IngestStore`] commit protocol through a [`FaultVfs`] injecting
/// write/rename/fsync faults, reopen it once with every stat failing,
/// and prove a clean-device reopen then recovers fsck-clean and
/// bit-identical to a state the protocol made durable — the last
/// acknowledged one, or what a faulted ingest may have left — then (b)
/// drive [`SnapshotCatalog`] cold fault-ins through transient read and
/// stat failures and bit-rot injection and prove every request ends
/// bit-identical or typed (retried, rebuilt, or quarantined — never
/// garbage). Scratch state lives under `dir` (wiped per plan).
pub fn run_storage_chaos(
    doc: &Document,
    queries: &[TwigQuery],
    dir: &std::path::Path,
    options: &StorageChaosOptions,
) -> StorageChaosReport {
    let synopsis = coarse_synopsis(doc);
    let mut report = StorageChaosReport::default();
    if queries.is_empty() {
        return report;
    }

    // The bit-identity reference for read-side serves.
    let compiled = CompiledSynopsis::compile(&synopsis);
    let opts = EstimateOptions::default();
    let reference: Vec<f64> = BatchServer::new(&compiled)
        .with_options(opts)
        .serve(queries)
        .iter()
        .map(|r| r.estimate)
        .collect();
    let check_batch = |reports: &[xtwig_core::EstimateReport]| -> u64 {
        let mut bad = 0u64;
        for (r, want) in reports.iter().zip(&reference) {
            if !r.estimate.is_finite() || r.estimate.to_bits() != want.to_bits() {
                bad += 1;
            }
        }
        bad
    };

    let ingest_opts = IngestOptions {
        checkpoint_every: 2,
        ..Default::default()
    };

    for i in 0..options.plans as u64 {
        report.plans += 1;
        let fault_plan = chaos_fault_plan(options.seed, i);

        // -- Phase A: write-side chaos on the ingest commit protocol.
        let store_dir = dir.join(format!("chaos-store-{i}"));
        let _ = std::fs::remove_dir_all(&store_dir);
        let vfs = std::sync::Arc::new(FaultVfs::over_std(fault_plan));
        vfs.arm(false);
        let created = IngestStore::create_in(
            std::sync::Arc::clone(&vfs) as std::sync::Arc<dyn Vfs>,
            &store_dir,
            doc.clone(),
            ingest_opts.clone(),
        );
        if let Ok(mut store) = created {
            // Every state the protocol could legitimately recover to.
            // An acknowledged delta retires every older state, so this
            // holds the last acknowledged state (the seed before any)
            // plus, after a faulted ingest, what that ingest may have
            // made durable.
            let mut durable = vec![store.snapshot_bytes()];
            let mut rng = StdRng::seed_from_u64(options.seed ^ i);
            vfs.arm(true);
            for _ in 0..options.deltas_per_plan {
                let delta = random_delta(store.doc(), &mut rng);
                if delta.is_empty() {
                    continue;
                }
                // Shadow-apply the WAL-canonical form to know the
                // post-delta bytes a replay would reconstruct if the
                // append reached the log before the fault.
                let delta = match xtwig_core::io::wal::decode_delta(
                    &xtwig_core::io::wal::encode_delta(&delta),
                ) {
                    Ok(d) => d,
                    Err(_) => continue,
                };
                let mut shadow = store.synopsis().clone();
                let mut shadow_drift = xtwig_core::construct::DriftMeter::new();
                let post_bytes = match xtwig_core::delta_xbuild(
                    &mut shadow,
                    store.doc(),
                    &delta,
                    &mut shadow_drift,
                    &ingest_opts.delta,
                ) {
                    Ok(_) => save_synopsis(&shadow),
                    Err(_) => continue, // delta does not apply; skip
                };
                report.write_attempts += 1;
                let outcome =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| store.ingest(&delta)));
                match outcome {
                    Err(_) => {
                        report.escaped_panics += 1;
                        break;
                    }
                    Ok(Err(_)) => {
                        // Three durable states are legitimate here:
                        // pre-delta (append rejected or torn — the last
                        // acknowledged state), post-delta (append landed, a
                        // later commit step faulted — the shadow), or
                        // the rebuilt checkpoint itself (the manifest
                        // rename landed but its directory fsync faulted:
                        // the flip is on disk even though the call
                        // errored — the store's memory, which holds the
                        // rebuilt synopsis). Memory may have diverged
                        // from the durable chain, so stop tracking here.
                        report.write_faults += 1;
                        durable.push(post_bytes);
                        durable.push(store.snapshot_bytes());
                        break;
                    }
                    Ok(Ok(_)) => durable = vec![store.snapshot_bytes()],
                }
            }
            vfs.arm(false);
            drop(store);
            // A reopen whose every stat fails must leave the store as it
            // was: a failed stat is not a missing journal, and
            // re-creating the journal would drop acknowledged deltas,
            // which the clean reopen below would then miss.
            let stat_faults = std::sync::Arc::new(FaultVfs::over_std(VfsFaultPlan {
                seed: fault_plan.seed,
                metadata_error: 1000,
                ..VfsFaultPlan::default()
            }));
            let reopened = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                IngestStore::open_in(
                    std::sync::Arc::clone(&stat_faults) as std::sync::Arc<dyn Vfs>,
                    &store_dir,
                    ingest_opts.clone(),
                )
            }));
            if reopened.is_err() {
                report.escaped_panics += 1;
            }
            report.injected_faults += stat_faults.injected();
            // The device heals; recovery must land on a durable state.
            match IngestStore::open(&store_dir, ingest_opts.clone()) {
                Err(_) => report.recovery_failures += 1,
                Ok(recovered) => {
                    if recovered.fsck().is_err() {
                        report.fsck_failures += 1;
                    }
                    let bytes = recovered.snapshot_bytes();
                    if !durable.contains(&bytes) {
                        report.state_mismatches += 1;
                    }
                }
            }
        } else {
            // Creation runs disarmed; a failure here is a harness bug
            // surfaced as a recovery failure.
            report.recovery_failures += 1;
        }
        report.injected_faults += vfs.injected();
        let _ = std::fs::remove_dir_all(&store_dir);

        // -- Phase B: read-side chaos on catalog fault-in. The
        // read-error emphasis fails stats as often as reads.
        let cat_dir = dir.join(format!("chaos-catalog-{i}"));
        let _ = std::fs::remove_dir_all(&cat_dir);
        let read_plan = VfsFaultPlan {
            metadata_error: fault_plan.read_error,
            ..fault_plan
        };
        let vfs = std::sync::Arc::new(FaultVfs::over_std(read_plan));
        vfs.arm(false);
        let catalog_opts = CatalogOptions::builder()
            .load_retries(4)
            .backoff(BackoffPolicy {
                base: Duration::from_micros(5),
                cap: Duration::from_micros(100),
                seed: options.seed ^ i,
            })
            .breaker(BreakerConfig {
                // High threshold: the soak asserts on typed errors, not
                // breaker admission (covered by the catalog soak).
                failure_threshold: u32::MAX,
                cooldown: Duration::from_millis(1),
            })
            .build();
        let catalog = SnapshotCatalog::open_in(
            &cat_dir,
            catalog_opts,
            std::sync::Arc::clone(&vfs) as std::sync::Arc<dyn Vfs>,
        );
        if catalog.publish("tenant", "main", &synopsis).is_err() {
            report.post_recovery_failures += 1;
            report.injected_faults += vfs.injected();
            let _ = std::fs::remove_dir_all(&cat_dir);
            continue;
        }
        if i % 2 == 1 {
            // Odd plans recover corruption in place from the document.
            let source = synopsis.clone();
            catalog.set_rebuild_hook(Some(std::sync::Arc::new(move |_, _| Some(source.clone()))));
        }
        vfs.arm(true);
        for _ in 0..options.serves_per_plan {
            catalog.invalidate("tenant", "main");
            report.serves += 1;
            let served = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                catalog.serve("tenant", "main", queries, &opts)
            }));
            match served {
                Err(_) => report.escaped_panics += 1,
                Ok(Ok(reports)) => {
                    report.serve_ok += 1;
                    report.serve_mismatches += check_batch(&reports);
                }
                Ok(Err(e)) => {
                    report.serve_typed_errors += 1;
                    match e {
                        CatalogError::Quarantined { .. } => report.quarantines += 1,
                        CatalogError::UnknownDocument { .. } => report.lost_documents += 1,
                        _ => {}
                    }
                }
            }
        }
        vfs.arm(false);
        // The device heals: a republish must lift any quarantine and
        // the next serve must be bit-identical.
        if catalog.publish("tenant", "main", &synopsis).is_err() {
            report.post_recovery_failures += 1;
        } else {
            match catalog.serve("tenant", "main", queries, &opts) {
                Ok(reports) => report.post_recovery_failures += check_batch(&reports),
                Err(_) => report.post_recovery_failures += 1,
            }
        }
        let stats = catalog.stats();
        report.load_retries += stats.load_retries;
        report.rebuilds += stats.rebuilds;
        report.injected_faults += vfs.injected();
        let _ = std::fs::remove_dir_all(&cat_dir);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtwig_query::parse_twig;

    fn doc() -> Document {
        xtwig_xml::parse(concat!(
            "<bib>",
            "<author><name/><paper><kw/><kw/></paper></author>",
            "<author><name/><paper><kw/></paper></author>",
            "</bib>"
        ))
        .unwrap()
    }

    #[test]
    fn plans_are_deterministic() {
        let a = FaultPlan::generate(7, 500, 24);
        let b = FaultPlan::generate(7, 500, 24);
        assert_eq!(a.faults, b.faults);
        let c = FaultPlan::generate(8, 500, 24);
        assert_ne!(a.faults, c.faults);
    }

    #[test]
    fn short_plans_cover_every_fault_kind() {
        let plan = FaultPlan::generate(1, 500, 8);
        assert!(plan
            .faults
            .iter()
            .any(|f| matches!(f, Fault::SnapshotTruncate { .. })));
        assert!(plan
            .faults
            .iter()
            .any(|f| matches!(f, Fault::SnapshotBitFlip { .. })));
        assert!(plan.faults.contains(&Fault::SnapshotEmpty));
        assert!(plan.faults.contains(&Fault::IoUnreadable));
        assert!(plan.faults.contains(&Fault::SlowEstimate));
        assert!(plan
            .faults
            .iter()
            .any(|f| matches!(f, Fault::TightDeadline { .. })));
        assert!(plan.faults.iter().any(|f| matches!(f, Fault::PanicTier(_))));
    }

    #[test]
    fn snapshot_faults_change_the_bytes() {
        let d = doc();
        let bytes = save_synopsis(&coarse_synopsis(&d));
        let cut = apply_snapshot_fault(&bytes, &Fault::SnapshotTruncate { keep: 10 }).unwrap();
        assert_eq!(cut.len(), 10);
        let flip =
            apply_snapshot_fault(&bytes, &Fault::SnapshotBitFlip { byte: 30, bit: 3 }).unwrap();
        assert_ne!(flip, bytes);
        assert_eq!(flip.len(), bytes.len());
        assert!(apply_snapshot_fault(&bytes, &Fault::SlowEstimate).is_none());
    }

    #[test]
    fn soak_plans_are_deterministic_and_cover_the_transitions() {
        let opts = CatalogSoakOptions::default();
        let a = SoakPlan::generate(9, &opts);
        let b = SoakPlan::generate(9, &opts);
        assert_eq!(a.phases, b.phases);
        let c = SoakPlan::generate(10, &opts);
        assert_ne!(a.phases, c.phases, "seed varies wave sizes");
        // The fixed structure always includes every fault kind the
        // single-key plan promises.
        let has =
            |f: fn(&SoakFault) -> bool| a.phases.iter().any(|p| p.fault.as_ref().is_some_and(f));
        assert!(has(|f| *f == SoakFault::PanicBurst));
        assert!(has(|f| *f == SoakFault::Recovery));
        assert!(has(|f| *f == SoakFault::Reload));
        assert!(has(|f| *f == SoakFault::CorruptReload));
        assert!(has(|f| *f == SoakFault::Starve));
        assert!(has(|f| *f == SoakFault::Saturate));
        assert!(has(|f| matches!(f, SoakFault::MutationReload { .. })));
        // The burst outlasts the breaker threshold; the wave outnumbers
        // the quota.
        for p in &a.phases {
            if p.fault == Some(SoakFault::PanicBurst) {
                assert!(p.requests > opts.catalog.breaker.failure_threshold as usize);
            }
        }
        assert!(saturation_callers(&opts) > opts.catalog.tenant_quota);
        let sat = SoakPlan::saturation_only(9, &opts);
        assert_eq!(sat.phases.len(), 1);
        let iso = SoakPlan::isolation(9, &opts);
        assert!(iso.tenants > opts.catalog.max_resident);
        assert_eq!(iso.phases[0].fault, Some(SoakFault::Stampede));
        assert_eq!(iso.phases[0].requests, STAMPEDE_CALLERS);
        assert_eq!(CatalogSoakOptions::isolation().catalog.tenant_quota, 0);
        assert_eq!(
            iso.total_requests(),
            iso.phases[0].requests + iso.phases[1].requests * iso.tenants + iso.phases[2].requests
        );
    }

    #[test]
    fn full_plan_runs_clean_on_a_small_doc() {
        let d = doc();
        let queries: Vec<TwigQuery> = [
            "for $t0 in //author, $t1 in $t0/paper",
            "for $t0 in //paper, $t1 in $t0/kw",
            "for $t0 in //kw",
        ]
        .iter()
        .map(|t| parse_twig(t).unwrap())
        .collect();
        let plan = FaultPlan::generate(42, save_synopsis(&coarse_synopsis(&d)).len(), 16);
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let report = run_fault_plan(&d, &queries, &plan, &GuardPolicy::default());
        std::panic::set_hook(prev);
        assert_eq!(report.total_panics(), 0, "{report}");
        assert_eq!(report.total_bad_estimates(), 0, "{report}");
        assert!(report.total_rejections() > 0, "{report}");
        assert_eq!(report.total_rebuilds(), report.total_rejections());
        assert!(report.total_degraded() > 0, "{report}");
    }

    #[test]
    fn storage_chaos_passes_and_covers_both_phases() {
        let d = doc();
        let queries: Vec<TwigQuery> = ["for $t0 in //author, $t1 in $t0/paper", "for $t0 in //kw"]
            .iter()
            .map(|t| parse_twig(t).unwrap())
            .collect();
        let dir = std::env::temp_dir().join(format!("xtwig-storage-chaos-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let options = StorageChaosOptions {
            plans: 10, // one full cycle of every fault category, twice
            ..Default::default()
        };
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let report = run_storage_chaos(&d, &queries, &dir, &options);
        std::panic::set_hook(prev);
        let _ = std::fs::remove_dir_all(&dir);
        assert!(report.passed(), "{report}");
        assert_eq!(report.plans, 10, "{report}");
        assert!(report.injected_faults > 0, "chaos must fire: {report}");
        assert!(report.write_faults > 0, "write-side faults: {report}");
        assert!(
            report.serve_typed_errors > 0,
            "read-side typed errors: {report}"
        );
        assert!(report.load_retries > 0, "transient retries: {report}");
        assert!(report.quarantines + report.rebuilds > 0, "{report}");
    }

    #[test]
    fn catalog_soak_isolation_plan_passes() {
        let d = doc();
        let queries: Vec<TwigQuery> = [
            "for $t0 in //author, $t1 in $t0/paper",
            "for $t0 in //paper, $t1 in $t0/kw",
            "for $t0 in //kw",
        ]
        .iter()
        .map(|t| parse_twig(t).unwrap())
        .collect();
        let dir = std::env::temp_dir().join(format!("xtwig-catalog-soak-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let options = CatalogSoakOptions::isolation();
        let plan = SoakPlan::isolation(3, &options);
        // The victim's injected panics are expected; keep the log quiet.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let report = run_catalog_soak(&d, &queries, &dir, &plan, &options);
        std::panic::set_hook(prev);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(report.stampede_cold_loads, 1, "{report}");
        assert_eq!(report.bystander_errors, 0, "{report}");
        assert_eq!(report.bad_estimates, 0, "{report}");
        assert!(report.breaker_opened, "{report}");
        assert!(report.shed_while_open, "{report}");
        assert!(report.breaker_reclosed, "{report}");
        // 4 tenants > max_resident 2 ⇒ eviction churn must fire.
        assert!(report.stats.evictions > 0, "{report}");
        assert_eq!(report.requests, plan.total_requests() as u64, "{report}");
        assert!(report.passed(), "{report}");
    }
}
