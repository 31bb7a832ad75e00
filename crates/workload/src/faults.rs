//! The fault harness: one seeded soak over the serving front door.
//!
//! [`run_catalog_soak`] publishes a document's synopsis into a
//! [`GuardedCatalog`] (the tier `xtwig-cli serve` runs) and drives the
//! phases of a [`SoakPlan`], each a request wave with one [`SoakFault`]
//! in force: a tenant's panic burst and breaker recovery, hot and
//! corrupt reloads, starved budgets, quota saturation, reloads under a
//! crash-recovering ingest stream, damaged and unreadable snapshot
//! files, and device faults under both the ingest store and catalog
//! fault-in. Every request must end full (bit-identical to a fresh
//! compile), degraded, or shed with a typed error, and no panic may
//! escape.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use xtwig_core::construct::DeltaBuildOptions;
use xtwig_core::estimate::{EstimateRequest, Estimator};
use xtwig_core::{
    coarse_synopsis, save_synopsis_v3, BackoffPolicy, BatchServer, BreakerConfig, BreakerState,
    CatalogError, CatalogOptions, CatalogStats, CompiledSynopsis, EstimateOptions, FaultVfs,
    RebuildHook, SnapshotCatalog, SnapshotError, StdVfs, VfsFaultPlan,
};
use xtwig_query::TwigQuery;
use xtwig_xml::Document;

use crate::guarded::{GuardedCatalog, GuardedEstimator};
use crate::ingest::{run_ingest_soak, Failure, IngestOptions};

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
    /// Two starved waves on the primary key, then one unbudgeted
    /// request. The first wave carries a work limit of one unit and runs
    /// on the warm key; the second carries an expired deadline and runs
    /// on the key freshly faulted in. Tier 1 can meet neither budget, so
    /// both waves must degrade through the fallback tiers. Neither the
    /// key's cache nor its expansion memo may answer the work-limited
    /// wave for free. The last request must get tier 1: exhausted budgets
    /// belong to their requests and never trip the key's tier-1 breaker.
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
    /// The primary key's snapshot file is overwritten with a damaged
    /// copy and its slot invalidated; requests then serve one at a time.
    /// Without the rebuild hook, the first fault-in must quarantine the
    /// key and every request end typed. With it, the first fault-in must
    /// rebuild the key and every answer be full. The phase ends with a
    /// republish.
    Damage {
        /// How the file is damaged.
        kind: Damage,
        /// Whether the rebuild hook is installed.
        rebuild: bool,
        /// Seeds the damage: the cut, the flipped bit, the garbage.
        seed: u64,
    },
    /// The primary key's file can be neither read nor stat'ed. Every
    /// request must end `Snapshot(Io)` after its retries, and nothing may
    /// be quarantined or rebuilt, although the rebuild hook is
    /// installed. Once the device heals, the key must serve
    /// bit-identically with no republish.
    Unreadable,
    /// A device injecting `plan`'s faults under both sides of storage.
    /// The ingest soak runs a store on it, and the primary key is faulted
    /// in cold for every request, with stats failing as often as reads:
    /// every request must end full and bit-identical, or typed. After the
    /// phase the device heals, and a republish must serve
    /// bit-identically.
    Device {
        /// The device's faults.
        plan: VfsFaultPlan,
        /// Whether the rebuild hook is installed for the read side.
        rebuild: bool,
    },
}

/// How a damage phase damages the primary key's snapshot file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Damage {
    /// The file is cut short (a torn write).
    Truncate,
    /// One bit anywhere in the file is flipped (media corruption).
    BitFlip,
    /// One bit in the file's last eighth is flipped. v3 keeps bucket
    /// columns there, which the fault-in's CRC sweep alone checks.
    ColumnFlip,
    /// The file is replaced by random garbage up to twice its length.
    Garbage,
    /// The file is emptied.
    Empty,
}

/// Every damage kind, in plan order.
const DAMAGE_KINDS: [Damage; 5] = [
    Damage::Truncate,
    Damage::BitFlip,
    Damage::ColumnFlip,
    Damage::Garbage,
    Damage::Empty,
];

/// Device phases in the storage plan.
const DEVICE_PHASES: usize = 50;

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
/// exercised; the seed only varies wave sizes and fault draws, so any
/// seed produces a plan whose invariants are checkable.
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

    /// The storage plan over one key: each [`Damage`] kind without and
    /// then with the rebuild hook, an unreadable file, and 50 device
    /// phases. The device phases rotate five
    /// fault emphases (write errors with short writes and ENOSPC, failed
    /// renames, failed fsyncs, read errors, read bit flips), and every
    /// other one installs the rebuild hook. Its sheds are the expected
    /// outcome.
    pub fn storage(seed: u64) -> SoakPlan {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut phases = Vec::new();
        for kind in DAMAGE_KINDS {
            for rebuild in [false, true] {
                phases.push(SoakPhase {
                    label: if rebuild {
                        "damage-rebuilt"
                    } else {
                        "damage-quarantined"
                    },
                    requests: 6 + rng.random_range(0..4usize),
                    fault: Some(SoakFault::Damage {
                        kind,
                        rebuild,
                        seed: rng.random_range(0..u64::MAX),
                    }),
                });
            }
        }
        phases.push(SoakPhase {
            label: "unreadable",
            requests: 6 + rng.random_range(0..4usize),
            fault: Some(SoakFault::Unreadable),
        });
        for i in 0..DEVICE_PHASES {
            phases.push(SoakPhase {
                label: "device",
                requests: 6,
                fault: Some(SoakFault::Device {
                    plan: device_plan(rng.random_range(0..u64::MAX), i),
                    rebuild: i % 2 == 1,
                }),
            });
        }
        SoakPlan {
            seed,
            tenants: 1,
            phases,
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

/// The faults of device phase `index`: its emphasis in turn, over a
/// light stall.
fn device_plan(seed: u64, index: usize) -> VfsFaultPlan {
    let base = VfsFaultPlan {
        seed,
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

/// A damaged copy of `bytes`.
fn damaged(bytes: &[u8], kind: Damage, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let len = bytes.len().max(1);
    match kind {
        Damage::Truncate => bytes
            .get(..rng.random_range(0..len))
            .unwrap_or_default()
            .to_vec(),
        Damage::BitFlip | Damage::ColumnFlip => {
            let at = if kind == Damage::BitFlip {
                rng.random_range(0..len)
            } else {
                len - 1 - rng.random_range(0..len.div_ceil(8))
            };
            let mut out = bytes.to_vec();
            if let Some(b) = out.get_mut(at) {
                *b ^= 1u8 << rng.random_range(0..8u32);
            }
            out
        }
        Damage::Garbage => (0..rng.random_range(1..2 * len))
            .map(|_| rng.random_range(0..=255u32) as u8)
            .collect(),
        Damage::Empty => Vec::new(),
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
    /// Typed errors other than quota, breaker and contained-fault sheds,
    /// and, in damage and device phases, quarantines and I/O errors. An
    /// `UnknownDocument` for a published key is always one (must be 0).
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
    /// Ingest invariant violations in mutation and device phases (failed
    /// recoveries, torn states, fsck failures, escaped panics, rejected
    /// publishes — must be 0).
    pub ingest_failures: u64,
    /// Checkpoints committed by the mutation stream.
    pub ingest_checkpoints: u64,
    /// Drift-triggered refinements installed by the mutation stream.
    pub ingest_refinements: u64,
    /// Faults the device phases' injectors fired. This and the device
    /// counters below cover device phases only: damage and unreadable
    /// phases check their own exact counts.
    pub injected_faults: u64,
    /// Device phases' ingests that a device fault failed.
    pub write_faults: u64,
    /// Requests the device phases answered, every one in full.
    pub device_served: u64,
    /// Requests the device phases shed as `Quarantined` or
    /// `Snapshot(Io)`.
    pub storage_sheds: u64,
    /// Keys the device phases' catalogs quarantined.
    pub quarantines: u64,
    /// Corrupt keys the device phases' catalogs rebuilt through the hook.
    pub rebuilds: u64,
    /// Fault-in retries the device phases' catalogs made after transient
    /// I/O errors.
    pub load_retries: u64,
    /// Whether post-soak estimates on the primary key were
    /// bit-identical to a fresh [`GuardedEstimator`] over the surviving
    /// synopsis.
    pub post_soak_bit_identical: bool,
    /// Phase invariants that did not hold (must be empty).
    pub violations: Vec<String>,
    /// Final counters of the soak's catalog.
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
             device phases: {} injected faults, {} write faults, {} served, \
             {} typed sheds, {} quarantines, {} rebuilds, {} retries, bit-identical={}",
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
            self.injected_faults,
            self.write_faults,
            self.device_served,
            self.storage_sheds,
            self.quarantines,
            self.rebuilds,
            self.load_retries,
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
    /// Of those, quarantines and I/O errors where storage faults are in
    /// force.
    storage: u64,
    /// Of those, errors that are not quota, breaker, fault or expected
    /// storage sheds.
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
        self.storage += o.storage;
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
/// known full-fidelity answer, when the phase expects one; `storage`
/// marks a phase whose storage faults end requests `Quarantined` or
/// `Snapshot(Io)`.
fn serve_tallied(
    catalog: &GuardedCatalog,
    tenant: &str,
    q: &TwigQuery,
    opts: &EstimateOptions,
    want: Option<f64>,
    storage: bool,
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
                CatalogError::Quarantined { .. }
                | CatalogError::Snapshot(SnapshotError::Io { .. })
                    if storage =>
                {
                    t.storage += 1
                }
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
                            serve_tallied(catalog, tenant, q, opts, want, false, &mut t);
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

/// Issues `count` serve calls against `tenant` one at a time, on a key
/// whose file is damaged or whose device is faulty: `Quarantined` and
/// `Snapshot(Io)` are expected sheds. `cold` invalidates the key before
/// each call, so every one faults the file in.
fn drive_storage(
    catalog: &GuardedCatalog,
    tenant: &str,
    queries: &[TwigQuery],
    reference: &[f64],
    count: usize,
    cold: bool,
) -> Tally {
    let mut t = Tally::default();
    for i in 0..count {
        if cold {
            catalog.invalidate(tenant, SOAK_DOCUMENT);
        }
        let k = i % queries.len();
        if let Some(q) = queries.get(k) {
            let want = reference.get(k).copied();
            serve_tallied(
                catalog,
                tenant,
                q,
                &EstimateOptions::default(),
                want,
                true,
                &mut t,
            );
        }
    }
    t
}

/// Whether one batch of `queries` on `tenant` is served bit-identical
/// to `reference`.
fn serves_reference(
    catalog: &GuardedCatalog,
    tenant: &str,
    queries: &[TwigQuery],
    reference: &[f64],
) -> bool {
    match catalog.serve(tenant, SOAK_DOCUMENT, queries, &EstimateOptions::default()) {
        Ok(reports) => {
            reports.len() == reference.len()
                && reports
                    .iter()
                    .zip(reference)
                    .all(|(r, want)| r.estimate.to_bits() == want.to_bits())
        }
        Err(_) => false,
    }
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
/// the surviving synopsis.
///
/// Unreadable and device phases serve through a catalog of their own,
/// opened at `dir` over the faulty device: it reads the same files, and
/// its counters are the phase's. It never trips its breaker (these
/// phases count typed errors, not admission) and retries transient
/// fault-in errors four times.
pub fn run_catalog_soak(
    doc: &Document,
    queries: &[TwigQuery],
    dir: &std::path::Path,
    plan: &SoakPlan,
    options: &CatalogSoakOptions,
) -> SoakReport {
    let tenants = plan.tenants.max(1);
    let synopsis = coarse_synopsis(doc);
    let pristine = save_synopsis_v3(&synopsis);
    let catalog: GuardedCatalog =
        SnapshotCatalog::open_tier(dir, options.catalog, Arc::new(StdVfs));
    let device_options = options
        .catalog
        .to_builder()
        .load_retries(4)
        .backoff(BackoffPolicy {
            base: Duration::from_micros(5),
            cap: Duration::from_micros(100),
            seed: plan.seed,
        })
        .breaker(BreakerConfig {
            failure_threshold: u32::MAX,
            cooldown: Duration::from_millis(1),
        })
        .build();
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
        injected_faults: 0,
        write_faults: 0,
        device_served: 0,
        storage_sheds: 0,
        quarantines: 0,
        rebuilds: 0,
        load_retries: 0,
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
    // Storage phases rebuild a corrupt key from the document's synopsis.
    let rebuild_hook: RebuildHook = {
        let source = synopsis.clone();
        Arc::new(move |_: &str, _: &str| Some(source.clone()))
    };
    // The synopsis the primary key should end on.
    let mut surviving = synopsis.clone();

    for (index, phase) in plan.phases.iter().enumerate() {
        let device = match phase.fault {
            Some(SoakFault::Unreadable) => Some(VfsFaultPlan {
                read_error: 1000,
                metadata_error: 1000,
                ..VfsFaultPlan::default()
            }),
            Some(SoakFault::Device { plan, .. }) => Some(VfsFaultPlan {
                metadata_error: plan.read_error,
                ..plan
            }),
            _ => None,
        }
        .map(|faults| {
            let vfs = Arc::new(FaultVfs::over_std(faults));
            vfs.arm(false);
            vfs
        });
        let device_catalog: Option<GuardedCatalog> = device
            .as_ref()
            .map(|vfs| SnapshotCatalog::open_tier(dir, device_options, vfs.clone()));
        let cat = device_catalog.as_ref().unwrap_or(&catalog);
        let arm = |on: bool| {
            if let Some(vfs) = &device {
                vfs.arm(on);
            }
        };
        let before = cat.stats();
        let mut check = |ok: bool, what: &str| {
            if !ok {
                report
                    .violations
                    .push(format!("phase {index} ({}): {what}", phase.label));
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
                        surviving = synopsis.clone();
                    }
                    (false, Err(_)) => report.reload_rollbacks += 1,
                    (true, Err(_)) => check(false, "a verified reload was rejected"),
                    (false, Ok(_)) => check(false, "a corrupt reload was published"),
                }
                t
            }
            Some(SoakFault::Starve) => {
                let waves = n.saturating_sub(1);
                let starved = EstimateOptions::builder().work_limit(1).build();
                let mut t = drive(
                    &catalog,
                    &primary,
                    queries,
                    None,
                    waves / 2,
                    callers,
                    &starved,
                );
                check(t.degraded > 0, "no work-limited request fell back");
                // A deadline does not bypass the key's cache, so the
                // expired wave runs on the key freshly faulted in, whose
                // cache is empty.
                catalog.invalidate(&primary, SOAK_DOCUMENT);
                let expired = EstimateOptions::builder().deadline(Instant::now()).build();
                let late = drive(
                    &catalog,
                    &primary,
                    queries,
                    None,
                    waves - waves / 2,
                    callers,
                    &expired,
                );
                check(
                    late.degraded > 0 && late.full == 0,
                    "an expired deadline was answered at full fidelity",
                );
                t.merge(late);
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
                        let kills = Failure::Crash {
                            kills: u64::from(kills),
                        };
                        run_ingest_soak(doc, &ingest_dir, plan.seed, kills, &opts, Some(key))
                    },
                );
                let _ = std::fs::remove_dir_all(&ingest_dir);
                match outcome {
                    Ok(rep) => {
                        report.ingest_kills += rep.kills;
                        report.ingest_checkpoints += rep.checkpoints;
                        report.ingest_refinements += rep.refinements;
                        report.ingest_failures += rep.failures();
                        check(rep.kills >= u64::from(kills), "too few kill/recover cycles");
                        check(rep.checkpoints > 0, "no checkpoint committed");
                        check(rep.torn_tails > 0, "no torn WAL tail was recovered");
                        surviving = rep.final_synopsis;
                    }
                    Err(_) => report.ingest_failures += 1,
                }
                t
            }
            Some(SoakFault::Damage {
                kind,
                rebuild,
                seed,
            }) => {
                let path = catalog.path_for(&primary, SOAK_DOCUMENT);
                let written = std::fs::read(&path)
                    .and_then(|bytes| std::fs::write(&path, damaged(&bytes, kind, seed)));
                check(written.is_ok(), "the snapshot file could not be damaged");
                catalog.invalidate(&primary, SOAK_DOCUMENT);
                if rebuild {
                    catalog.set_rebuild_hook(Some(rebuild_hook.clone()));
                }
                let t = drive_storage(&catalog, &primary, queries, &reference, n, false);
                catalog.set_rebuild_hook(None);
                let s = catalog.stats();
                let counts = (
                    s.quarantined - before.quarantined,
                    s.rebuilds - before.rebuilds,
                );
                if rebuild {
                    check(counts == (0, 1), "the damaged file was not rebuilt once");
                    check(t.full == t.issued(), "a rebuilt key did not answer in full");
                } else {
                    check(
                        counts == (1, 0),
                        "the damaged file was not quarantined once",
                    );
                    check(
                        t.full + t.degraded == 0,
                        "a request was answered from a damaged file",
                    );
                }
                check(
                    catalog.publish(&primary, SOAK_DOCUMENT, &synopsis).is_ok(),
                    "the republish failed",
                );
                surviving = synopsis.clone();
                if catalog.breaker_state(&primary) != Some(BreakerState::Closed) {
                    std::thread::sleep(cooldown);
                }
                t
            }
            Some(SoakFault::Unreadable) => {
                cat.set_rebuild_hook(Some(rebuild_hook.clone()));
                arm(true);
                let t = drive_storage(cat, &primary, queries, &reference, n, false);
                arm(false);
                let s = cat.stats();
                // No quarantine means no request can be `Quarantined`:
                // every storage shed was a typed I/O error.
                check(
                    t.storage == t.issued() && s.quarantined == before.quarantined,
                    "a request to an unreadable file did not end Snapshot(Io)",
                );
                check(
                    s.rebuilds == before.rebuilds,
                    "an unreadable file was rebuilt",
                );
                check(
                    serves_reference(cat, &primary, queries, &reference),
                    "the healed key did not serve bit-identically without a republish",
                );
                t
            }
            Some(SoakFault::Device {
                plan: faults,
                rebuild,
            }) => {
                let ingest_dir = dir.join("ingest");
                let opts = IngestOptions {
                    checkpoint_every: 2,
                    ..Default::default()
                };
                let failure = Failure::Device(faults);
                match run_ingest_soak(doc, &ingest_dir, faults.seed, failure, &opts, None) {
                    Ok(rep) => {
                        report.write_faults += rep.kills;
                        report.injected_faults += rep.injected_faults;
                        report.ingest_failures += rep.failures();
                    }
                    Err(_) => report.ingest_failures += 1,
                }
                let _ = std::fs::remove_dir_all(&ingest_dir);
                if rebuild {
                    cat.set_rebuild_hook(Some(rebuild_hook.clone()));
                }
                arm(true);
                let t = drive_storage(cat, &primary, queries, &reference, n, true);
                arm(false);
                // No request carries a budget, so tier 1 answers every one
                // that faults in: each ends full (and bit-checked) or typed.
                check(
                    t.degraded == 0,
                    "a device phase answered below full fidelity",
                );
                let s = cat.stats();
                report.device_served += t.full;
                report.storage_sheds += t.storage;
                report.quarantines += s.quarantined - before.quarantined;
                report.rebuilds += s.rebuilds - before.rebuilds;
                report.load_retries += s.load_retries - before.load_retries;
                report.injected_faults += device.as_ref().map_or(0, |vfs| vfs.injected());
                check(
                    cat.publish(&primary, SOAK_DOCUMENT, &synopsis).is_ok()
                        && serves_reference(cat, &primary, queries, &reference),
                    "the healed, republished key did not serve bit-identically",
                );
                surviving = synopsis.clone();
                t
            }
        };
        let after = cat.stats();
        if counted_sheds(&after) - counted_sheds(&before) != t.shed - t.unexpected - t.storage {
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
    // a fresh chain over the synopsis that should have survived — the
    // soak left no residue in the serving state.
    std::thread::sleep(cooldown);
    report.post_soak_bit_identical = match catalog.serve(&primary, SOAK_DOCUMENT, queries, &healthy)
    {
        Ok(served) => {
            let fresh = GuardedEstimator::new(CompiledSynopsis::compile(&surviving));
            served.len() == queries.len()
                && queries.iter().zip(&served).all(|(q, r)| {
                    let want = Estimator::estimate(&fresh, &EstimateRequest::new(q)).estimate;
                    want.to_bits() == r.estimate.to_bits()
                })
        }
        Err(_) => false,
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

    fn queries() -> Vec<TwigQuery> {
        [
            "for $t0 in //author, $t1 in $t0/paper",
            "for $t0 in //paper, $t1 in $t0/kw",
            "for $t0 in //kw",
        ]
        .iter()
        .map(|t| parse_twig(t).unwrap())
        .collect()
    }

    /// Runs `plan` in a scratch directory with the log kept quiet: the
    /// injected panics are expected.
    fn soak(tag: &str, plan: &SoakPlan, options: &CatalogSoakOptions) -> SoakReport {
        let dir = std::env::temp_dir().join(format!("xtwig-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let report = run_catalog_soak(&doc(), &queries(), &dir, plan, options);
        std::panic::set_hook(prev);
        let _ = std::fs::remove_dir_all(&dir);
        report
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

        // The storage plan: every damage kind without and with the
        // rebuild hook, the unreadable file, and all five device
        // emphases, each with and without the hook.
        let s = SoakPlan::storage(9);
        assert_eq!(s.phases, SoakPlan::storage(9).phases);
        assert_ne!(s.phases, SoakPlan::storage(10).phases, "seed varies draws");
        for kind in DAMAGE_KINDS {
            for hook in [false, true] {
                assert!(s.phases.iter().any(|p| matches!(
                    p.fault,
                    Some(SoakFault::Damage { kind: k, rebuild, .. }) if k == kind && rebuild == hook
                )));
            }
        }
        assert!(s
            .phases
            .iter()
            .any(|p| p.fault == Some(SoakFault::Unreadable)));
        let devices: Vec<(VfsFaultPlan, bool)> = s
            .phases
            .iter()
            .filter_map(|p| match p.fault {
                Some(SoakFault::Device { plan, rebuild }) => Some((plan, rebuild)),
                _ => None,
            })
            .collect();
        assert!(devices.len() >= 50, "the device floor is 50 phases");
        let emphases: [fn(&VfsFaultPlan) -> bool; 5] = [
            |p| p.write_error > 0 && p.short_write > 0 && p.enospc,
            |p| p.rename_error > 0,
            |p| p.fsync_error > 0,
            |p| p.read_error > 0,
            |p| p.read_flip > 0,
        ];
        for emphasis in emphases {
            for hook in [false, true] {
                assert!(devices.iter().any(|(p, r)| emphasis(p) && *r == hook));
            }
        }
    }

    #[test]
    fn storage_plan_runs_clean_through_its_first_device_phase() {
        // Every damage phase, the unreadable phase, and one device phase.
        let phases = 2 * DAMAGE_KINDS.len() + 2;
        let mut plan = SoakPlan::storage(42);
        plan.phases.truncate(phases);
        assert!(matches!(
            plan.phases.last().and_then(|p| p.fault),
            Some(SoakFault::Device { .. })
        ));
        let report = soak("storage-plan", &plan, &CatalogSoakOptions::default());
        assert!(report.passed(), "{report}");
        assert_eq!(report.phases, phases, "{report}");
        assert_eq!(report.requests, plan.total_requests() as u64, "{report}");
        // The damage phases shed without the hook and answered in full
        // with it (each checks its own quarantine or rebuild); the
        // write-error device fired and failed an ingest.
        assert!(report.shed > 0 && report.full > 0, "{report}");
        assert!(report.injected_faults > 0, "{report}");
        assert!(report.write_faults > 0, "{report}");
    }

    #[test]
    fn catalog_soak_isolation_plan_passes() {
        let options = CatalogSoakOptions::isolation();
        let plan = SoakPlan::isolation(3, &options);
        let report = soak("catalog-soak", &plan, &options);
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
