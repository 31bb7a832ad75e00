//! Guarded estimation: a panic-isolated fallback chain over the three
//! summary techniques.
//!
//! An optimizer calling into the estimator must *always* get a finite,
//! non-negative number back, fast — a panic, an infinite loop, or a NaN
//! reaching join-ordering arithmetic is strictly worse than a crude
//! estimate. [`GuardedEstimator`] therefore serves every query through a
//! chain of tiers, each cheaper and more robust than the last:
//!
//! 1. **XSKETCH** — the full TREEPARSE estimate over the compiled
//!    synopsis, bounded by a wall-clock deadline and a work budget (the
//!    core crate's [`Meter`](xtwig_core::estimate::Meter) machinery) and
//!    wrapped in `catch_unwind`.
//! 2. **Markov** — a first-order tag-transition model *derived from the
//!    synopsis's structural columns* (per-label totals and per-edge
//!    child counts aggregate exactly to the Markov tables), so the
//!    fallback needs no access to the original document. It is built
//!    the first time a query falls back, never on the healthy path.
//! 3. **Label-count bound** — the product of per-tag element counts, a
//!    guaranteed-finite upper bound computed in microseconds.
//!
//! Every response records which tier produced it and why earlier tiers
//! were skipped (the report's `provenance.tier` and the explain tier
//! trail); aggregate [`DegradationSnapshot`] counters expose the health
//! of the chain to operators. Deterministic [`InjectedFault`]s let the
//! fault-injection harness (and tests) exercise each degradation path.
//!
//! The chain has one entry point, a batch served under the request's
//! [`EstimateOptions`]: tier 1 is the default tier's batch (its cache,
//! plan reuse and work splitting), and only the members tier 1 could
//! not answer at full fidelity walk down the chain. As a catalog
//! [`ServeTier`] — [`GuardedCatalog`] — each resident key answers whole
//! batches through a cache partition, with each tier gated by the key's
//! own circuit breaker. The [`Estimator`] trait serves a one-query batch
//! through the same code, on a standalone chain
//! ([`GuardedEstimator::new`]) with neither a cache nor breakers.

use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::time::Instant;

use xtwig_core::estimate::{
    EstimateOptions, EstimateReport, EstimateRequest, Estimator, Exhaustion, Explain, Provenance,
    QueryTelemetry,
};
use xtwig_core::serve::breaker::{BreakerConfig, CircuitBreaker};
use xtwig_core::sync::atomic::{AtomicU64, Ordering};
use xtwig_core::sync::OnceLock;
use xtwig_core::telemetry;
use xtwig_core::{
    coarse_count_bound, CatalogOptions, CompiledSynopsis, Resident, ServeTier, SnapshotCatalog,
    SynId,
};
use xtwig_markov::{MarkovOptions, MarkovPaths};
use xtwig_query::TwigQuery;
use xtwig_xml::LabelTable;

/// A snapshot catalog whose resident keys serve through the guarded
/// fallback chain — the front door every shipped serve path uses.
pub type GuardedCatalog = SnapshotCatalog<GuardedEstimator<'static>>;

/// One tier of the fallback chain, in descending fidelity order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Full TREEPARSE evaluation over the XSKETCH synopsis.
    Xsketch,
    /// First-order Markov path model derived from the synopsis.
    Markov,
    /// Product-of-label-counts upper bound.
    LabelCount,
}

impl Tier {
    /// Short name for logs and CLI output.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Xsketch => "xsketch",
            Tier::Markov => "markov",
            Tier::LabelCount => "label-count",
        }
    }
}

impl std::fmt::Display for Tier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Why a tier did not produce the served estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierFailure {
    /// The tier panicked; `catch_unwind` contained it.
    Panicked,
    /// The tier ran out of budget before finishing.
    Exhausted(Exhaustion),
    /// The tier returned NaN, a negative value, or an infinity.
    NonFinite,
    /// The tier's circuit breaker was open: the attempt was skipped
    /// without running (or charging the deadline budget) at all.
    ShortCircuited,
}

impl TierFailure {
    /// Short human-readable cause.
    pub fn describe(self) -> &'static str {
        match self {
            TierFailure::Panicked => "panicked",
            TierFailure::Exhausted(Exhaustion::Deadline) => "deadline exceeded",
            TierFailure::Exhausted(Exhaustion::Work) => "work limit exhausted",
            TierFailure::NonFinite => "non-finite result",
            TierFailure::ShortCircuited => "breaker open",
        }
    }
}

/// The record of one tier consulted while answering a query.
#[derive(Debug, Clone, Copy)]
struct TierAttempt {
    tier: Tier,
    /// `None` if this tier produced the served estimate.
    failure: Option<TierFailure>,
}

/// Monotonic counters describing the health of the fallback chain.
#[derive(Debug, Default)]
struct DegradationCounters {
    queries: AtomicU64,
    degraded: AtomicU64,
    panics: AtomicU64,
    deadline_trips: AtomicU64,
    work_trips: AtomicU64,
    served_markov: AtomicU64,
    served_label_count: AtomicU64,
}

/// A point-in-time copy of a chain's degradation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradationSnapshot {
    /// Queries served in total.
    pub queries: u64,
    /// Queries that got anything less than full fidelity.
    pub degraded: u64,
    /// Panics contained across all tiers.
    pub panics: u64,
    /// XSKETCH deadline exhaustions.
    pub deadline_trips: u64,
    /// XSKETCH work-limit exhaustions.
    pub work_trips: u64,
    /// Queries answered by the Markov tier.
    pub served_markov: u64,
    /// Queries answered by the label-count tier.
    pub served_label_count: u64,
}

/// Bumps a chain counter.
fn bump(c: &AtomicU64) {
    // lint:allow(atomic-ordering): monotonic stats counter; nothing is ordered against it
    c.fetch_add(1, Ordering::Relaxed);
}

impl DegradationCounters {
    fn snapshot(&self) -> DegradationSnapshot {
        // lint:allow(atomic-ordering): point-in-time stats snapshot; torn reads across counters are acceptable
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        DegradationSnapshot {
            queries: get(&self.queries),
            degraded: get(&self.degraded),
            panics: get(&self.panics),
            deadline_trips: get(&self.deadline_trips),
            work_trips: get(&self.work_trips),
            served_markov: get(&self.served_markov),
            served_label_count: get(&self.served_label_count),
        }
    }
}

/// A deterministic fault injected into the chain, for tests and the
/// fault harness. Production estimators carry `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// The named tier panics instead of computing.
    PanicIn(Tier),
    /// The named tier returns NaN instead of an estimate.
    PoisonIn(Tier),
    /// The XSKETCH tier spins until the query deadline has passed before
    /// evaluating (an artificial slow path).
    StallXsketch,
}

/// One circuit breaker per fallback tier, shared by every request one
/// catalog key serves. A tier whose breaker is open is skipped
/// (recorded as [`TierFailure::ShortCircuited`]) so a persistently
/// failing tier stops burning each request's deadline budget; the
/// half-open probe re-admits it once it recovers. Tier 1 records one
/// outcome per batch, each fallback tier one per query it answers for;
/// only panics and non-finite results count as failures.
#[derive(Debug)]
struct TierBreakers {
    xsketch: CircuitBreaker,
    markov: CircuitBreaker,
    label_count: CircuitBreaker,
}

impl TierBreakers {
    /// Three closed breakers with the same tuning.
    fn new(config: BreakerConfig) -> TierBreakers {
        TierBreakers {
            xsketch: CircuitBreaker::new(config),
            markov: CircuitBreaker::new(config),
            label_count: CircuitBreaker::new(config),
        }
    }

    /// The breaker guarding `tier`.
    fn get(&self, tier: Tier) -> &CircuitBreaker {
        match tier {
            Tier::Xsketch => &self.xsketch,
            Tier::Markov => &self.markov,
            Tier::LabelCount => &self.label_count,
        }
    }
}

/// Derives the first-order Markov model implied by a synopsis: label ids
/// in table order, per-label element totals as the tag table, and
/// per-edge child counts summed per label pair as the transition table —
/// exactly what a document scan would produce. Reads only the compiled
/// structural columns, so a synopsis loaded from a snapshot derives the
/// same model as the in-memory compile of the synopsis it was saved
/// from.
pub fn markov_from_synopsis(s: &CompiledSynopsis<'_>, budget_bytes: usize) -> MarkovPaths {
    let mut labels = LabelTable::new();
    for l in 0..s.label_count() {
        labels.intern(s.label_name(l));
    }
    let tag_counts: Vec<u64> = labels
        .iter()
        .map(|(_, name)| s.tag_total(name) as u64)
        .collect();
    let label_of = |n: SynId| labels.get(s.tag(n));
    let mut transitions: HashMap<(xtwig_xml::LabelId, xtwig_xml::LabelId), u64> = HashMap::new();
    for u in (0..s.node_count()).filter_map(|i| u32::try_from(i).ok().map(SynId)) {
        for &v in s.children_of(u) {
            if let (Some(lu), Some(lv)) = (label_of(u), label_of(v)) {
                *transitions.entry((lu, lv)).or_insert(0) += s.child_count(u, v);
            }
        }
    }
    let root = label_of(s.root()).unwrap_or(xtwig_xml::LabelId(0));
    MarkovPaths::from_parts(
        labels,
        tag_counts,
        transitions,
        root,
        MarkovOptions { budget_bytes },
    )
}

/// The guarded fallback-chain estimator. See the module docs.
pub struct GuardedEstimator<'a> {
    /// Tier 1: the compiled synopsis, its cache partition and its batch
    /// server — the catalog's default [`Resident`] tier.
    tier1: Resident<'a>,
    /// Tier 2, derived from the compiled columns on first fallback.
    markov: OnceLock<MarkovPaths>,
    counters: DegradationCounters,
    fault: Option<InjectedFault>,
    breakers: Option<TierBreakers>,
}

impl<'a> GuardedEstimator<'a> {
    /// Wraps `compiled` in a standalone fallback chain: no cache
    /// partition and no breakers. Budgets come from each request.
    pub fn new(compiled: CompiledSynopsis<'a>) -> GuardedEstimator<'a> {
        GuardedEstimator {
            tier1: Resident::new(compiled, 0),
            markov: OnceLock::new(),
            counters: DegradationCounters::default(),
            fault: None,
            breakers: None,
        }
    }

    /// Injects a deterministic fault (tests / fault harness only).
    pub fn with_fault(mut self, fault: InjectedFault) -> GuardedEstimator<'a> {
        self.fault = Some(fault);
        self
    }

    /// The compiled form tier 1 serves from.
    pub fn compiled(&self) -> &CompiledSynopsis<'a> {
        self.tier1.compiled()
    }

    /// A snapshot of the degradation counters.
    pub fn counters(&self) -> DegradationSnapshot {
        self.counters.snapshot()
    }

    /// The Markov tier, derived on first use.
    fn markov(&self) -> &MarkovPaths {
        self.markov.get_or_init(|| {
            markov_from_synopsis(self.tier1.compiled(), MarkovOptions::default().budget_bytes)
        })
    }

    /// Serves a batch through the chain: tier 1 is the default tier's
    /// batch under `opts` on `threads` workers; every member it could not
    /// answer at full fidelity falls back to Markov, then to the
    /// label-count bound. One report per query, in input order; every
    /// estimate is finite and ≥ 0.
    fn serve_batch(
        &self,
        queries: &[TwigQuery],
        opts: &EstimateOptions,
        threads: usize,
    ) -> Vec<EstimateReport> {
        let started = Instant::now();
        let tier1 = self.run_tier1(queries.len(), opts.deadline, || {
            self.tier1.batch(opts, threads).serve(queries)
        });
        queries
            .iter()
            .zip(tier1)
            .map(|(q, r)| self.finish(q, r, opts.explain, started))
            .collect()
    }

    /// Runs tier 1 for `n` queries behind its breaker and `catch_unwind`,
    /// returning each member's full-fidelity report or why it has none.
    ///
    /// The whole batch is one attempt: one breaker acquisition, one
    /// recorded outcome. Only a fault of the tier itself (a panic or a
    /// non-finite result) counts against the breaker. A member that ran
    /// out of its request's budget falls back, but the tier stays
    /// healthy, so one caller's tight budget never switches the key's
    /// other callers to Markov.
    fn run_tier1(
        &self,
        n: usize,
        deadline: Option<Instant>,
        run: impl FnOnce() -> Vec<EstimateReport>,
    ) -> Vec<Result<EstimateReport, TierFailure>> {
        // An empty batch runs nothing and records nothing, so it must
        // not take the half-open probe: nothing would ever release it.
        if n == 0 {
            return Vec::new();
        }
        let breaker = self.breakers.as_ref().map(|b| b.get(Tier::Xsketch));
        if breaker.is_some_and(|b| !b.try_acquire()) {
            return vec![Err(TierFailure::ShortCircuited); n];
        }
        let fault = self.fault;
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            (!tier1_poisoned(fault, deadline)).then(run)
        }));
        let mut out: Vec<Result<EstimateReport, TierFailure>> = match caught {
            Err(_) => vec![Err(TierFailure::Panicked); n],
            Ok(None) => vec![Err(TierFailure::NonFinite); n],
            Ok(Some(reports)) => reports.into_iter().map(full_fidelity).collect(),
        };
        out.resize_with(n, || Err(TierFailure::Panicked));
        let faulted = out
            .iter()
            .any(|r| matches!(r, Err(TierFailure::Panicked | TierFailure::NonFinite)));
        self.record(Tier::Xsketch, !faulted);
        out
    }

    /// Turns one member's tier-1 outcome into its served report, walking
    /// down the chain when tier 1 had no full-fidelity answer.
    fn finish(
        &self,
        q: &TwigQuery,
        tier1: Result<EstimateReport, TierFailure>,
        explain: bool,
        started: Instant,
    ) -> EstimateReport {
        bump(&self.counters.queries);
        telemetry::global().guarded_queries.incr();
        match tier1 {
            Ok(rep) => {
                let clamped = rep.provenance.clamped > 0;
                if clamped {
                    self.note_degraded();
                }
                tier1_report(rep, clamped)
            }
            Err(failure) => {
                self.note_failure(failure);
                self.fall_back(q, failure, explain, started)
            }
        }
    }

    /// Tiers 2 and 3 for one query whose tier 1 failed.
    fn fall_back(
        &self,
        q: &TwigQuery,
        tier1_failure: TierFailure,
        explain: bool,
        started: Instant,
    ) -> EstimateReport {
        let tg = telemetry::global();
        let t_fallback = Instant::now();
        let mut attempts = vec![TierAttempt {
            tier: Tier::Xsketch,
            failure: Some(tier1_failure),
        }];
        let (value, tier) = match self.run_tier(Tier::Markov, || self.markov().estimate_twig(q)) {
            Ok(v) => {
                attempts.push(TierAttempt {
                    tier: Tier::Markov,
                    failure: None,
                });
                bump(&self.counters.served_markov);
                tg.tier_markov_served.incr();
                (v, Tier::Markov)
            }
            Err(f) => {
                self.note_failure(f);
                attempts.push(TierAttempt {
                    tier: Tier::Markov,
                    failure: Some(f),
                });
                let lc = self.run_tier(Tier::LabelCount, || {
                    coarse_count_bound(self.tier1.compiled(), q)
                });
                // The end of the chain: a failing last tier serves 0.0
                // rather than propagating anything.
                let (value, failure) = match lc {
                    Ok(v) => (v, None),
                    Err(f) => {
                        self.note_failure(f);
                        (0.0, Some(f))
                    }
                };
                attempts.push(TierAttempt {
                    tier: Tier::LabelCount,
                    failure,
                });
                bump(&self.counters.served_label_count);
                tg.tier_label_count_served.incr();
                (value, Tier::LabelCount)
            }
        };
        tg.fallback_latency.record_ns(elapsed_ns(t_fallback));
        self.note_degraded();
        fallback_report(value, tier, tier1_failure, &attempts, explain, started)
    }

    /// Runs a fallback tier behind its breaker and `catch_unwind`.
    fn run_tier(&self, tier: Tier, f: impl FnOnce() -> f64) -> Result<f64, TierFailure> {
        let breaker = self.breakers.as_ref().map(|b| b.get(tier));
        if breaker.is_some_and(|b| !b.try_acquire()) {
            return Err(TierFailure::ShortCircuited);
        }
        let fault = self.fault;
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            match fault {
                Some(InjectedFault::PanicIn(t)) if t == tier => {
                    // Deliberate: exercises containment in lower tiers.
                    panic!("injected fault: {} tier", tier.name()); // lint:allow(panic)
                }
                Some(InjectedFault::PoisonIn(t)) if t == tier => return f64::NAN,
                _ => {}
            }
            f()
        }));
        let result = match caught {
            Err(_) => Err(TierFailure::Panicked),
            Ok(v) if !v.is_finite() || v < 0.0 => Err(TierFailure::NonFinite),
            Ok(v) => Ok(v),
        };
        self.record(tier, result.is_ok());
        result
    }

    /// Feeds one attempt's outcome into `tier`'s breaker, if any.
    fn record(&self, tier: Tier, ok: bool) {
        if let Some(b) = self.breakers.as_ref() {
            let breaker = b.get(tier);
            if ok {
                breaker.record_success();
            } else {
                breaker.record_failure();
            }
        }
    }

    fn note_degraded(&self) {
        bump(&self.counters.degraded);
        telemetry::global().guarded_degraded.incr();
    }

    fn note_failure(&self, f: TierFailure) {
        match f {
            TierFailure::Panicked => {
                bump(&self.counters.panics);
                telemetry::global().tier_panics.incr();
            }
            TierFailure::Exhausted(Exhaustion::Deadline) => bump(&self.counters.deadline_trips),
            TierFailure::Exhausted(Exhaustion::Work) => bump(&self.counters.work_trips),
            // Short circuits were counted by the breaker at acquisition.
            TierFailure::NonFinite | TierFailure::ShortCircuited => {}
        }
    }
}

/// Applies an injected tier-1 fault before tier 1 runs: panics, stalls
/// until `deadline`, or reports that tier 1's result is poisoned.
fn tier1_poisoned(fault: Option<InjectedFault>, deadline: Option<Instant>) -> bool {
    match fault {
        Some(InjectedFault::PanicIn(Tier::Xsketch)) => {
            // Deliberate: the harness verifies catch_unwind containment
            // of a tier that dies mid-query.
            panic!("injected fault: xsketch tier"); // lint:allow(panic)
        }
        Some(InjectedFault::PoisonIn(Tier::Xsketch)) => true,
        Some(InjectedFault::StallXsketch) => {
            if let Some(d) = deadline {
                while Instant::now() < d {
                    std::hint::spin_loop();
                }
            }
            false
        }
        _ => false,
    }
}

/// A tier-1 report is a full-fidelity answer unless its budget ran out
/// or its value is unusable.
fn full_fidelity(rep: EstimateReport) -> Result<EstimateReport, TierFailure> {
    if let Some(ex) = rep.provenance.exhaustion {
        Err(TierFailure::Exhausted(ex))
    } else if !rep.estimate.is_finite() || rep.estimate < 0.0 {
        Err(TierFailure::NonFinite)
    } else {
        Ok(rep)
    }
}

/// Wall-clock nanoseconds since `since`, saturating.
pub(crate) fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Renders the attempt trail for [`Explain::tier_path`], e.g.
/// `["xsketch: deadline exceeded", "markov: ok"]`.
fn tier_path(attempts: &[TierAttempt]) -> Vec<String> {
    attempts
        .iter()
        .map(|a| match a.failure {
            None => format!("{}: ok", a.tier.name()),
            Some(f) => format!("{}: {}", a.tier.name(), f.describe()),
        })
        .collect()
}

/// The report for a query tier 1 answered: the compiled path's report,
/// re-sourced to the guarded chain with the tier trail attached.
fn tier1_report(rep: EstimateReport, clamped: bool) -> EstimateReport {
    let mut provenance = rep.provenance;
    provenance.source = "guarded";
    provenance.tier = Some(Tier::Xsketch.name());
    provenance.degraded = clamped;
    let mut explain = rep.explain;
    if let Some(e) = explain.as_mut() {
        e.tier_path = tier_path(&[TierAttempt {
            tier: Tier::Xsketch,
            failure: None,
        }]);
    }
    EstimateReport {
        estimate: rep.estimate,
        provenance,
        telemetry: rep.telemetry,
        explain,
    }
}

/// The report for a query a fallback tier answered. The fallback tiers
/// have no embeddings, so the explain section (present only on request)
/// carries just the tier trail.
fn fallback_report(
    estimate: f64,
    tier: Tier,
    tier1_failure: TierFailure,
    attempts: &[TierAttempt],
    explain: bool,
    started: Instant,
) -> EstimateReport {
    let mut provenance = Provenance::new("guarded");
    provenance.tier = Some(tier.name());
    provenance.degraded = true;
    if let TierFailure::Exhausted(ex) = tier1_failure {
        provenance.exhaustion = Some(ex);
    }
    EstimateReport {
        estimate,
        provenance,
        telemetry: QueryTelemetry {
            total_ns: elapsed_ns(started),
            ..QueryTelemetry::default()
        },
        explain: explain.then(|| Explain {
            expanded: 0,
            embeddings: Vec::new(),
            assumptions: Default::default(),
            final_clamp: false,
            tier_path: tier_path(attempts),
        }),
    }
}

impl Estimator for GuardedEstimator<'_> {
    /// Serves the request as a one-query batch through the chain, under
    /// `req.options` — the code a catalog key runs.
    fn estimate(&self, req: &EstimateRequest<'_>) -> EstimateReport {
        let served = self.serve_batch(std::slice::from_ref(req.query), &req.options, 1);
        // A batch answers every member; a missing report falls back as
        // a lost tier-1 answer would.
        served.into_iter().next().unwrap_or_else(|| {
            self.finish(
                req.query,
                Err(TierFailure::Panicked),
                req.options.explain,
                Instant::now(),
            )
        })
    }
}

/// The guarded chain as a catalog tier: each resident key gets its own
/// chain over the v3 load, a cache partition of
/// [`CatalogOptions::cache_entries`], and per-tier breakers tuned by
/// [`CatalogOptions::breaker`].
impl ServeTier for GuardedEstimator<'static> {
    fn load(compiled: CompiledSynopsis<'static>, options: &CatalogOptions) -> Self {
        GuardedEstimator {
            tier1: Resident::new(compiled, options.cache_entries),
            markov: OnceLock::new(),
            counters: DegradationCounters::default(),
            fault: None,
            breakers: Some(TierBreakers::new(options.breaker)),
        }
    }

    fn serve(
        &self,
        queries: &[TwigQuery],
        opts: &EstimateOptions,
        threads: usize,
    ) -> Vec<EstimateReport> {
        self.serve_batch(queries, opts, threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use xtwig_core::estimate::EstimateOptionsBuilder;
    use xtwig_core::{
        coarse_synopsis, load_compiled_snapshot, save_synopsis_v3, BreakerState, Synopsis,
    };
    use xtwig_query::parse_twig;

    fn setup() -> (xtwig_xml::Document, Synopsis) {
        let doc = xtwig_xml::parse(concat!(
            "<bib>",
            "<author><name/><paper><kw/><kw/></paper><paper><kw/></paper></author>",
            "<author><name/><paper><kw/></paper></author>",
            "</bib>"
        ))
        .unwrap();
        let s = coarse_synopsis(&doc);
        (doc, s)
    }

    /// A standalone chain over the in-memory compile of `s`.
    fn chain(s: &Synopsis) -> GuardedEstimator<'_> {
        GuardedEstimator::new(CompiledSynopsis::compile(s))
    }

    /// The chain's report for `q` under `opts`, with the tier trail
    /// rendered.
    fn explained(
        g: &GuardedEstimator<'_>,
        q: &TwigQuery,
        opts: EstimateOptionsBuilder,
    ) -> EstimateReport {
        let opts = opts.explain(true).build();
        Estimator::estimate(g, &EstimateRequest::with_options(q, opts))
    }

    fn trail(rep: &EstimateReport) -> Vec<String> {
        rep.explain
            .as_ref()
            .map(|e| e.tier_path.clone())
            .unwrap_or_default()
    }

    fn quietly<R>(f: impl FnOnce() -> R) -> R {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let r = f();
        std::panic::set_hook(prev);
        r
    }

    #[test]
    fn healthy_chain_serves_tier_one() {
        let (_d, s) = setup();
        let g = chain(&s);
        let q = parse_twig("for $t0 in //author, $t1 in $t0/paper").unwrap();
        let rep = explained(&g, &q, EstimateOptions::builder());
        assert_eq!(rep.provenance.tier, Some("xsketch"));
        assert!(!rep.provenance.degraded);
        assert!((rep.estimate - 3.0).abs() < 1e-9);
        assert_eq!(trail(&rep), vec!["xsketch: ok".to_string()]);
        let sum: f64 = rep
            .explain
            .iter()
            .flat_map(|e| &e.embeddings)
            .map(|c| c.contribution)
            .sum();
        assert!((sum - rep.estimate).abs() <= 1e-9 * rep.estimate.max(1.0));
        let c = g.counters();
        assert_eq!((c.queries, c.degraded), (1, 0));
        assert!(g.markov.get().is_none(), "healthy path never builds Markov");
    }

    #[test]
    fn derived_markov_matches_document_markov() {
        let (d, s) = setup();
        let built = MarkovPaths::build(&d, MarkovOptions::default());
        let derived = markov_from_synopsis(
            &CompiledSynopsis::compile(&s),
            MarkovOptions::default().budget_bytes,
        );
        for text in [
            "for $t0 in //author, $t1 in $t0/paper, $t2 in $t1/kw",
            "for $t0 in //paper, $t1 in $t0/kw",
        ] {
            let q = parse_twig(text).unwrap();
            let a = built.estimate_twig(&q);
            let b = derived.estimate_twig(&q);
            assert!((a - b).abs() < 1e-12, "{text}: {a} vs {b}");
        }
    }

    #[test]
    fn panic_in_tier_one_falls_back_to_markov() {
        let (_d, s) = setup();
        let g = chain(&s).with_fault(InjectedFault::PanicIn(Tier::Xsketch));
        let q = parse_twig("for $t0 in //author, $t1 in $t0/paper").unwrap();
        let rep = quietly(|| explained(&g, &q, EstimateOptions::builder()));
        assert_eq!(rep.provenance.tier, Some("markov"));
        assert!(rep.provenance.degraded);
        assert!(rep.estimate.is_finite() && rep.estimate >= 0.0);
        assert_eq!(trail(&rep)[0], "xsketch: panicked");
        let c = g.counters();
        assert_eq!((c.panics, c.served_markov), (1, 1));
    }

    #[test]
    fn panic_everywhere_still_returns_finite() {
        let (_d, s) = setup();
        let q = parse_twig("for $t0 in //author, $t1 in $t0/paper").unwrap();
        for tier in [Tier::Xsketch, Tier::Markov, Tier::LabelCount] {
            let g = chain(&s).with_fault(InjectedFault::PanicIn(tier));
            let rep = quietly(|| explained(&g, &q, EstimateOptions::builder()));
            assert!(rep.estimate.is_finite() && rep.estimate >= 0.0, "{tier}");
        }
    }

    #[test]
    fn poison_falls_through_to_finite_tier() {
        let (_d, s) = setup();
        let q = parse_twig("for $t0 in //author, $t1 in $t0/paper").unwrap();
        let g = chain(&s).with_fault(InjectedFault::PoisonIn(Tier::Xsketch));
        let rep = explained(&g, &q, EstimateOptions::builder());
        assert_eq!(rep.provenance.tier, Some("markov"));
        assert_eq!(trail(&rep)[0], "xsketch: non-finite result");
        assert!(rep.estimate.is_finite());
    }

    #[test]
    fn stalled_tier_one_degrades_within_budget() {
        let (_d, s) = setup();
        let g = chain(&s).with_fault(InjectedFault::StallXsketch);
        let q = parse_twig("for $t0 in //author, $t1 in $t0/paper").unwrap();
        let start = Instant::now();
        let budget = EstimateOptions::builder().deadline(start + Duration::from_millis(1));
        let rep = explained(&g, &q, budget);
        let elapsed = start.elapsed();
        assert!(rep.provenance.degraded);
        assert_ne!(rep.provenance.tier, Some("xsketch"));
        assert!(rep.estimate.is_finite() && rep.estimate >= 0.0);
        assert!(
            elapsed < Duration::from_millis(250),
            "took {elapsed:?} for a 1 ms budget"
        );
        assert_eq!(g.counters().deadline_trips, 1);
    }

    #[test]
    fn work_limit_degrades_to_markov_with_its_tier_path() {
        let (_d, s) = setup();
        let g = chain(&s);
        let q = parse_twig("for $t0 in //author, $t1 in $t0/paper, $t2 in $t1/kw").unwrap();
        let rep = explained(&g, &q, EstimateOptions::builder().work_limit(1));
        assert_eq!(rep.provenance.tier, Some("markov"));
        assert!(rep.provenance.degraded);
        assert_eq!(rep.provenance.exhaustion, Some(Exhaustion::Work));
        assert_eq!(
            trail(&rep),
            vec![
                "xsketch: work limit exhausted".to_string(),
                "markov: ok".to_string()
            ]
        );
        assert!(rep.explain.is_some_and(|e| e.embeddings.is_empty()));
        assert_eq!(g.counters().work_trips, 1);
    }

    #[test]
    fn estimator_trait_is_wired() {
        let (_d, s) = setup();
        let g = chain(&s);
        let q = parse_twig("for $t0 in //kw").unwrap();
        let rep = Estimator::estimate(&g, &EstimateRequest::new(&q));
        assert!((rep.estimate - 4.0).abs() < 1e-9);
    }

    fn batch() -> Vec<TwigQuery> {
        [
            "for $t0 in //author, $t1 in $t0/paper",
            "for $t0 in //paper, $t1 in $t0/kw",
            "for $t0 in //author, $t1 in $t0/paper",
        ]
        .iter()
        .map(|t| parse_twig(t).unwrap())
        .collect()
    }

    /// The chain as a catalog tier over the v3 load of `s`.
    fn tier(s: &Synopsis, breaker: BreakerConfig) -> GuardedEstimator<'static> {
        let compiled = load_compiled_snapshot(&save_synopsis_v3(s)).unwrap();
        let options = CatalogOptions::builder().breaker(breaker).build();
        <GuardedEstimator<'static> as ServeTier>::load(compiled, &options)
    }

    #[test]
    fn healthy_batch_matches_the_single_query_chain_bit_for_bit() {
        let (_d, s) = setup();
        let g = tier(&s, BreakerConfig::default());
        let single = chain(&s);
        let qs = batch();
        let reports = g.serve(&qs, &EstimateOptions::default(), 2);
        assert_eq!(reports.len(), qs.len());
        for (q, r) in qs.iter().zip(&reports) {
            let want = explained(&single, q, EstimateOptions::builder());
            assert_eq!(r.estimate.to_bits(), want.estimate.to_bits(), "{q}");
            assert_eq!(r.provenance.tier, Some("xsketch"));
            assert!(!r.provenance.degraded);
        }
        // The duplicate is served from the key's cache partition.
        let again = g.serve(&qs, &EstimateOptions::default(), 1);
        assert!(again.iter().all(|r| r.provenance.cached));
        assert!(g.markov.get().is_none(), "healthy path never builds Markov");
    }

    #[test]
    fn expired_request_deadline_degrades_every_batch_member() {
        let (_d, s) = setup();
        let g = tier(&s, BreakerConfig::default());
        let opts = EstimateOptions::builder()
            .deadline(Instant::now() - Duration::from_millis(1))
            .build();
        for r in g.serve(&batch(), &opts, 1) {
            assert_eq!(r.provenance.tier, Some("markov"));
            assert_eq!(r.provenance.exhaustion, Some(Exhaustion::Deadline));
            assert!(r.estimate.is_finite() && r.estimate >= 0.0);
        }
    }

    /// The state of the key's tier-1 breaker.
    fn xsketch_state(g: &GuardedEstimator<'_>) -> BreakerState {
        g.breakers.as_ref().unwrap().get(Tier::Xsketch).state()
    }

    #[test]
    fn tier_breaker_opens_short_circuits_and_half_open_probe_recloses() {
        let (_d, s) = setup();
        let mut g = tier(
            &s,
            BreakerConfig {
                failure_threshold: 3,
                cooldown: Duration::ZERO,
            },
        )
        .with_fault(InjectedFault::PanicIn(Tier::Xsketch));
        // One failure per batch: the third panicking batch opens it.
        for _ in 0..2 {
            quietly(|| g.serve(&batch(), &EstimateOptions::default(), 1));
            assert_eq!(xsketch_state(&g), BreakerState::Closed);
        }
        quietly(|| g.serve(&batch(), &EstimateOptions::default(), 1));
        assert_eq!(xsketch_state(&g), BreakerState::Open);
        // Zero cooldown: the next batch is the half-open probe; with the
        // fault gone it succeeds, re-closes the breaker, and tier 1
        // serves again.
        g.fault = None;
        let healthy = g.serve(&batch(), &EstimateOptions::default(), 1);
        assert!(healthy.iter().all(|r| r.provenance.tier == Some("xsketch")));
        assert_eq!(xsketch_state(&g), BreakerState::Closed);
        let xsketch = g.breakers.as_ref().unwrap().get(Tier::Xsketch);
        let (opens, closes, _) = xsketch.transitions();
        assert_eq!((opens, closes), (1, 1));
    }

    #[test]
    fn open_tier_breaker_skips_tier_one_without_running_it() {
        let (_d, s) = setup();
        let mut g = tier(
            &s,
            BreakerConfig {
                failure_threshold: 1,
                cooldown: Duration::from_secs(3600),
            },
        )
        .with_fault(InjectedFault::PoisonIn(Tier::Xsketch));
        g.serve(&batch()[..1], &EstimateOptions::default(), 1);
        g.fault = None;
        let opts = EstimateOptions::builder().explain(true).build();
        let reports = g.serve(&batch(), &opts, 1);
        for r in &reports {
            assert_eq!(r.provenance.tier, Some("markov"));
            assert_eq!(trail(r)[0], "xsketch: breaker open");
        }
    }

    #[test]
    fn exhausted_budgets_never_trip_the_tier_breaker() {
        let (_d, s) = setup();
        let g = tier(
            &s,
            BreakerConfig {
                failure_threshold: 1,
                cooldown: Duration::from_secs(3600),
            },
        );
        let starved = EstimateOptions::builder().work_limit(1).build();
        let expired = EstimateOptions::builder()
            .deadline(Instant::now() - Duration::from_millis(1))
            .build();
        for opts in [&starved, &expired, &starved] {
            for r in g.serve(&batch(), opts, 1) {
                assert_eq!(r.provenance.tier, Some("markov"));
            }
        }
        // The budgets belonged to the requests: an unbudgeted caller of
        // the same key still gets tier 1.
        assert_eq!(xsketch_state(&g), BreakerState::Closed);
        let healthy = g.serve(&batch(), &EstimateOptions::default(), 1);
        assert!(healthy.iter().all(|r| r.provenance.tier == Some("xsketch")));
    }

    #[test]
    fn empty_batch_leaves_the_half_open_probe_to_a_real_batch() {
        let (_d, s) = setup();
        let mut g = tier(
            &s,
            BreakerConfig {
                failure_threshold: 1,
                cooldown: Duration::ZERO,
            },
        )
        .with_fault(InjectedFault::PanicIn(Tier::Xsketch));
        quietly(|| g.serve(&batch(), &EstimateOptions::default(), 1));
        assert_eq!(xsketch_state(&g), BreakerState::Open);
        g.fault = None;
        // The cooldown has passed, so the next acquisition is the probe.
        // An empty batch must not take it.
        assert!(g.serve(&[], &EstimateOptions::default(), 1).is_empty());
        assert_eq!(xsketch_state(&g), BreakerState::Open);
        let healthy = g.serve(&batch(), &EstimateOptions::default(), 1);
        assert!(healthy.iter().all(|r| r.provenance.tier == Some("xsketch")));
        assert_eq!(xsketch_state(&g), BreakerState::Closed);
    }
}
