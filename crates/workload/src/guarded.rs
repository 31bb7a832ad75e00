//! Guarded estimation: a panic-isolated fallback chain over the three
//! summary techniques.
//!
//! An optimizer calling into the estimator must *always* get a finite,
//! non-negative number back, fast — a panic, an infinite loop, or a NaN
//! reaching join-ordering arithmetic is strictly worse than a crude
//! estimate. [`GuardedEstimator`] therefore serves every query through a
//! chain of tiers, each cheaper and more robust than the last:
//!
//! 1. **XSKETCH** — the full TREEPARSE estimate, bounded by the policy's
//!    wall-clock deadline and work budget (the core crate's [`Meter`]
//!    machinery) and wrapped in `catch_unwind`.
//! 2. **Markov** — a first-order tag-transition model *derived from the
//!    synopsis itself* (extent sizes and edge counts aggregate exactly
//!    to the Markov tables), so the fallback needs no access to the
//!    original document.
//! 3. **Label-count bound** — the product of per-tag element counts, a
//!    guaranteed-finite upper bound computed in microseconds.
//!
//! Every response records which tier produced it and why earlier tiers
//! were skipped; aggregate [`DegradationCounters`] expose the health of
//! the chain to operators. Deterministic [`InjectedFault`]s let the
//! fault-injection harness (and tests) exercise each degradation path.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use xtwig_core::estimate::{
    earliest_deadline, EstimateOptions, EstimateReport, EstimateRequest, Estimator, Exhaustion,
    Explain, Provenance, QueryTelemetry,
};
use xtwig_core::serve::runtime::{BreakerConfig, CircuitBreaker};
use xtwig_core::sync::atomic::{AtomicU64, Ordering};
use xtwig_core::telemetry::{self, Span, Stage};
use xtwig_core::{coarse_count_bound, CompiledSynopsis, Synopsis};
use xtwig_markov::{MarkovOptions, MarkovPaths};
use xtwig_query::TwigQuery;

use crate::estimator::SummaryEstimator;

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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierAttempt {
    /// Which tier ran.
    pub tier: Tier,
    /// `None` if this tier produced the served estimate.
    pub failure: Option<TierFailure>,
}

/// A guarded estimation result with full provenance.
#[derive(Debug, Clone)]
pub struct EstimateOutcome {
    /// The served estimate — always finite and ≥ 0.
    pub estimate: f64,
    /// The tier that produced it.
    pub tier: Tier,
    /// Whether anything less than full-fidelity XSKETCH evaluation was
    /// served (a lower tier answered, or the XSKETCH sum was clamped).
    pub degraded: bool,
    /// Every tier consulted, in order.
    pub attempts: Vec<TierAttempt>,
}

/// Budgets applied to every query served by a [`GuardedEstimator`].
#[derive(Debug, Clone, Copy)]
pub struct GuardPolicy {
    /// Per-query wall-clock budget for the XSKETCH tier (`None` = no
    /// deadline).
    pub time_budget: Option<Duration>,
    /// Per-query abstract work budget for the XSKETCH tier (0 =
    /// unlimited).
    pub work_limit: u64,
    /// Embedding cap and descendant-expansion options for tier 1.
    pub estimate: EstimateOptions,
    /// Byte budget for the derived Markov fallback model.
    pub markov_budget_bytes: usize,
}

impl Default for GuardPolicy {
    fn default() -> Self {
        GuardPolicy {
            time_budget: None,
            work_limit: 0,
            estimate: EstimateOptions::default(),
            markov_budget_bytes: MarkovOptions::default().budget_bytes,
        }
    }
}

/// Monotonic counters describing the health of the fallback chain.
#[derive(Debug, Default)]
pub struct DegradationCounters {
    queries: AtomicU64,
    degraded: AtomicU64,
    panics: AtomicU64,
    deadline_trips: AtomicU64,
    work_trips: AtomicU64,
    served_markov: AtomicU64,
    served_label_count: AtomicU64,
}

/// A point-in-time copy of [`DegradationCounters`].
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

impl DegradationCounters {
    fn snapshot(&self) -> DegradationSnapshot {
        DegradationSnapshot {
            // lint:allow(atomic-ordering): point-in-time stats snapshot; torn reads across counters are acceptable
            queries: self.queries.load(Ordering::Relaxed),
            // lint:allow(atomic-ordering): point-in-time stats snapshot; torn reads across counters are acceptable
            degraded: self.degraded.load(Ordering::Relaxed),
            // lint:allow(atomic-ordering): point-in-time stats snapshot; torn reads across counters are acceptable
            panics: self.panics.load(Ordering::Relaxed),
            // lint:allow(atomic-ordering): point-in-time stats snapshot; torn reads across counters are acceptable
            deadline_trips: self.deadline_trips.load(Ordering::Relaxed),
            // lint:allow(atomic-ordering): point-in-time stats snapshot; torn reads across counters are acceptable
            work_trips: self.work_trips.load(Ordering::Relaxed),
            // lint:allow(atomic-ordering): point-in-time stats snapshot; torn reads across counters are acceptable
            served_markov: self.served_markov.load(Ordering::Relaxed),
            // lint:allow(atomic-ordering): point-in-time stats snapshot; torn reads across counters are acceptable
            served_label_count: self.served_label_count.load(Ordering::Relaxed),
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

/// One circuit breaker per fallback tier, shared across every request a
/// serving runtime handles. A tier whose breaker is open is skipped
/// (recorded as [`TierFailure::ShortCircuited`]) so a persistently
/// failing tier stops burning each request's deadline budget; the
/// half-open probe mechanism re-admits it once it recovers.
#[derive(Debug)]
pub struct TierBreakers {
    xsketch: CircuitBreaker,
    markov: CircuitBreaker,
    label_count: CircuitBreaker,
}

impl TierBreakers {
    /// Three closed breakers with the same tuning.
    pub fn new(config: BreakerConfig) -> TierBreakers {
        TierBreakers {
            xsketch: CircuitBreaker::new(config),
            markov: CircuitBreaker::new(config),
            label_count: CircuitBreaker::new(config),
        }
    }

    /// The breaker guarding `tier`.
    pub fn get(&self, tier: Tier) -> &CircuitBreaker {
        match tier {
            Tier::Xsketch => &self.xsketch,
            Tier::Markov => &self.markov,
            Tier::LabelCount => &self.label_count,
        }
    }
}

impl Default for TierBreakers {
    fn default() -> TierBreakers {
        TierBreakers::new(BreakerConfig::default())
    }
}

/// Per-request controls layered over a [`GuardedEstimator`]'s policy by
/// the serving runtime: a request deadline that can only *tighten* the
/// policy budget, shared per-tier breakers, and an optional fault
/// override for the soak harness (takes precedence over the
/// estimator-level fault when set).
#[derive(Debug, Clone, Copy, Default)]
pub struct ChainControls<'b> {
    /// Absolute per-request deadline; combined with the policy's
    /// time budget via [`earliest_deadline`].
    pub deadline: Option<Instant>,
    /// Shared per-tier circuit breakers (`None` = no breaking).
    pub breakers: Option<&'b TierBreakers>,
    /// Fault override for this request only.
    pub fault: Option<InjectedFault>,
}

/// Derives the first-order Markov model implied by a synopsis: per-tag
/// extent sums and per-label-pair edge child counts are exactly the tag
/// and transition tables a document scan would produce.
pub fn markov_from_synopsis(s: &Synopsis, budget_bytes: usize) -> MarkovPaths {
    let mut tag_counts = vec![0u64; s.labels().len()];
    for n in s.node_ids() {
        let i = s.label(n).index();
        if let Some(slot) = tag_counts.get_mut(i) {
            *slot += s.extent_size(n);
        }
    }
    let mut transitions: HashMap<(xtwig_xml::LabelId, xtwig_xml::LabelId), u64> = HashMap::new();
    for (u, v, rec) in s.edge_iter() {
        *transitions.entry((s.label(u), s.label(v))).or_insert(0) += rec.child_count;
    }
    MarkovPaths::from_parts(
        s.labels().clone(),
        tag_counts,
        transitions,
        s.label(s.root()),
        MarkovOptions { budget_bytes },
    )
}

/// The guarded fallback-chain estimator. See the module docs.
pub struct GuardedEstimator<'a> {
    synopsis: &'a Synopsis,
    /// One-time lowering of the synopsis to the compiled serving form;
    /// the XSKETCH tier runs over it.
    compiled: CompiledSynopsis<'a>,
    markov: MarkovPaths,
    policy: GuardPolicy,
    counters: DegradationCounters,
    fault: Option<InjectedFault>,
}

impl<'a> GuardedEstimator<'a> {
    /// Wraps `synopsis` in the fallback chain, deriving the Markov
    /// fallback model from it.
    pub fn new(synopsis: &'a Synopsis, policy: GuardPolicy) -> GuardedEstimator<'a> {
        let markov = markov_from_synopsis(synopsis, policy.markov_budget_bytes);
        GuardedEstimator {
            synopsis,
            compiled: CompiledSynopsis::compile(synopsis),
            markov,
            policy,
            counters: DegradationCounters::default(),
            fault: None,
        }
    }

    /// The compiled form tier 1 serves from — callers batching queries
    /// can hand it to a [`xtwig_core::BatchServer`] directly, sharing
    /// this estimator's expansion memo and epoch.
    pub fn compiled(&self) -> &CompiledSynopsis<'a> {
        &self.compiled
    }

    /// Injects a deterministic fault (tests / fault harness only).
    pub fn with_fault(mut self, fault: InjectedFault) -> GuardedEstimator<'a> {
        self.fault = Some(fault);
        self
    }

    /// The policy in force.
    pub fn policy(&self) -> &GuardPolicy {
        &self.policy
    }

    /// A snapshot of the degradation counters.
    pub fn counters(&self) -> DegradationSnapshot {
        self.counters.snapshot()
    }

    /// The chain implementation: runs the tiers in order, producing both
    /// the chain's [`EstimateOutcome`] and its [`EstimateReport`]. Never
    /// panics; the estimate is always finite and ≥ 0.
    fn serve(&self, q: &TwigQuery, explain: bool) -> (EstimateOutcome, EstimateReport) {
        self.serve_controlled(q, explain, &ChainControls::default())
    }

    /// Serves `q` with per-request [`ChainControls`]: the request
    /// deadline is combined with the policy's budget via
    /// [`earliest_deadline`] (a request can only shrink its budget),
    /// each tier is gated by its shared circuit breaker (an open breaker
    /// records [`TierFailure::ShortCircuited`] without running the
    /// tier), and a per-request fault override takes precedence over the
    /// estimator-level one. This is the serving runtime's entry point;
    /// single-query callers without controls should use the
    /// [`Estimator`] trait.
    pub fn estimate_controlled(
        &self,
        q: &TwigQuery,
        explain: bool,
        controls: &ChainControls<'_>,
    ) -> (EstimateOutcome, EstimateReport) {
        self.serve_controlled(q, explain, controls)
    }

    /// Whether `tier` may run under `controls`' breakers.
    fn acquire(&self, controls: &ChainControls<'_>, tier: Tier) -> bool {
        match controls.breakers {
            Some(b) => b.get(tier).try_acquire(),
            None => true,
        }
    }

    /// Feeds one attempt result into `tier`'s breaker, if any.
    fn record_tier(&self, controls: &ChainControls<'_>, tier: Tier, ok: bool) {
        if let Some(b) = controls.breakers {
            let breaker = b.get(tier);
            if ok {
                breaker.record_success();
            } else {
                breaker.record_failure();
            }
        }
    }

    fn serve_controlled(
        &self,
        q: &TwigQuery,
        explain: bool,
        controls: &ChainControls<'_>,
    ) -> (EstimateOutcome, EstimateReport) {
        let t_total = Instant::now();
        let tg = telemetry::global();
        // lint:allow(atomic-ordering): monotonic stats counter; nothing is ordered against it
        self.counters.queries.fetch_add(1, Ordering::Relaxed);
        tg.guarded_queries.incr();
        let policy_deadline = self.policy.time_budget.map(|b| Instant::now() + b);
        let deadline = earliest_deadline(policy_deadline, controls.deadline);
        let fault = controls.fault.or(self.fault);
        let mut attempts: Vec<TierAttempt> = Vec::new();

        // --- Tier 1: XSKETCH under budget, gated by its breaker ----------
        let tier1_failure = if !self.acquire(controls, Tier::Xsketch) {
            attempts.push(TierAttempt {
                tier: Tier::Xsketch,
                failure: Some(TierFailure::ShortCircuited),
            });
            TierFailure::ShortCircuited
        } else {
            match self.run_xsketch(q, deadline, explain, fault) {
                Ok(rep) => {
                    self.record_tier(controls, Tier::Xsketch, true);
                    attempts.push(TierAttempt {
                        tier: Tier::Xsketch,
                        failure: None,
                    });
                    let clamped = rep.provenance.clamped > 0;
                    let outcome = self.outcome(rep.estimate, Tier::Xsketch, clamped, attempts);
                    let report = tier1_report(rep, &outcome, t_total);
                    return (outcome, report);
                }
                Err(f) => {
                    self.record_tier(controls, Tier::Xsketch, false);
                    self.note_failure(f);
                    attempts.push(TierAttempt {
                        tier: Tier::Xsketch,
                        failure: Some(f),
                    });
                    f
                }
            }
        };

        // --- Fallback tiers, under the fallback span/latency -------------
        let t_fallback = Instant::now();
        let span = Span::enter(Stage::Fallback);
        // --- Tier 2: Markov ----------------------------------------------
        let markov_result = if !self.acquire(controls, Tier::Markov) {
            TierResult::Failed(TierFailure::ShortCircuited)
        } else {
            let r = self.run_simple(Tier::Markov, || self.markov.estimate_twig(q), fault);
            self.record_tier(controls, Tier::Markov, matches!(r, TierResult::Ok(_)));
            r
        };
        let (value, tier) = match markov_result {
            TierResult::Ok(v) => {
                attempts.push(TierAttempt {
                    tier: Tier::Markov,
                    failure: None,
                });
                // lint:allow(atomic-ordering): monotonic stats counter; nothing is ordered against it
                self.counters.served_markov.fetch_add(1, Ordering::Relaxed);
                tg.tier_markov_served.incr();
                (v, Tier::Markov)
            }
            TierResult::Failed(f) => {
                self.note_failure(f);
                attempts.push(TierAttempt {
                    tier: Tier::Markov,
                    failure: Some(f),
                });
                // --- Tier 3: label-count bound ---------------------------
                let lc_result = if !self.acquire(controls, Tier::LabelCount) {
                    TierResult::Failed(TierFailure::ShortCircuited)
                } else {
                    let r = self.run_simple(
                        Tier::LabelCount,
                        || coarse_count_bound(self.synopsis, q),
                        fault,
                    );
                    self.record_tier(controls, Tier::LabelCount, matches!(r, TierResult::Ok(_)));
                    r
                };
                let (value, failure) = match lc_result {
                    TierResult::Ok(v) => (v, None),
                    // The end of the chain: a failing last tier serves 0.0
                    // rather than propagating anything.
                    TierResult::Failed(f) => {
                        self.note_failure(f);
                        (0.0, Some(f))
                    }
                };
                attempts.push(TierAttempt {
                    tier: Tier::LabelCount,
                    failure,
                });
                self.counters
                    .served_label_count
                    // lint:allow(atomic-ordering): monotonic stats counter; nothing is ordered against it
                    .fetch_add(1, Ordering::Relaxed);
                tg.tier_label_count_served.incr();
                (value, Tier::LabelCount)
            }
        };
        span.exit();
        tg.fallback_latency.record_ns(elapsed_ns(t_fallback));
        let outcome = self.outcome(value, tier, true, attempts);
        let report = fallback_report(&outcome, tier1_failure, explain, t_total);
        (outcome, report)
    }

    fn outcome(
        &self,
        estimate: f64,
        tier: Tier,
        degraded: bool,
        attempts: Vec<TierAttempt>,
    ) -> EstimateOutcome {
        if degraded {
            // lint:allow(atomic-ordering): monotonic stats counter; nothing is ordered against it
            self.counters.degraded.fetch_add(1, Ordering::Relaxed);
            telemetry::global().guarded_degraded.incr();
        }
        EstimateOutcome {
            estimate: if estimate.is_finite() && estimate >= 0.0 {
                estimate.min(f64::MAX)
            } else {
                0.0
            },
            tier,
            degraded,
            attempts,
        }
    }

    fn note_failure(&self, f: TierFailure) {
        match f {
            TierFailure::Panicked => {
                // lint:allow(atomic-ordering): monotonic stats counter; nothing is ordered against it
                self.counters.panics.fetch_add(1, Ordering::Relaxed);
                telemetry::global().tier_panics.incr();
            }
            TierFailure::Exhausted(Exhaustion::Deadline) => {
                // lint:allow(atomic-ordering): monotonic stats counter; nothing is ordered against it
                self.counters.deadline_trips.fetch_add(1, Ordering::Relaxed);
            }
            TierFailure::Exhausted(Exhaustion::Work) => {
                // lint:allow(atomic-ordering): monotonic stats counter; nothing is ordered against it
                self.counters.work_trips.fetch_add(1, Ordering::Relaxed);
            }
            TierFailure::NonFinite => {}
            // Short circuits were counted by the breaker at acquisition.
            TierFailure::ShortCircuited => {}
        }
    }

    fn run_xsketch(
        &self,
        q: &TwigQuery,
        deadline: Option<Instant>,
        explain: bool,
        fault: Option<InjectedFault>,
    ) -> Result<EstimateReport, TierFailure> {
        let opts = self
            .policy
            .estimate
            .to_builder()
            .deadline_opt(deadline)
            .work_limit(self.policy.work_limit)
            .explain(explain)
            .build();
        let cs = &self.compiled;
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            match fault {
                Some(InjectedFault::PanicIn(Tier::Xsketch)) => {
                    // Deliberate: the harness verifies catch_unwind
                    // containment of a tier that dies mid-query.
                    panic!("injected fault: xsketch tier"); // lint:allow(panic)
                }
                Some(InjectedFault::PoisonIn(Tier::Xsketch)) => {
                    // A poisoned report: exercises the NonFinite arm.
                    return EstimateReport {
                        estimate: f64::NAN,
                        provenance: Provenance::new("xsketch-compiled"),
                        telemetry: QueryTelemetry::default(),
                        explain: None,
                    };
                }
                Some(InjectedFault::StallXsketch) => {
                    if let Some(d) = deadline {
                        while Instant::now() < d {
                            std::hint::spin_loop();
                        }
                    }
                }
                _ => {}
            }
            cs.estimate_report(q, &opts)
        }));
        match caught {
            Err(_) => Err(TierFailure::Panicked),
            Ok(rep) => {
                if let Some(ex) = rep.provenance.exhaustion {
                    Err(TierFailure::Exhausted(ex))
                } else if !rep.estimate.is_finite() || rep.estimate < 0.0 {
                    Err(TierFailure::NonFinite)
                } else {
                    Ok(rep)
                }
            }
        }
    }

    fn run_simple(
        &self,
        tier: Tier,
        f: impl Fn() -> f64,
        fault: Option<InjectedFault>,
    ) -> TierResult {
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
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
        match caught {
            Err(_) => TierResult::Failed(TierFailure::Panicked),
            Ok(v) if !v.is_finite() || v < 0.0 => TierResult::Failed(TierFailure::NonFinite),
            Ok(v) => TierResult::Ok(v),
        }
    }
}

enum TierResult {
    Ok(f64),
    Failed(TierFailure),
}

/// Wall-clock nanoseconds since `since`, saturating.
fn elapsed_ns(since: Instant) -> u64 {
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

/// Builds the unified report for a query tier 1 answered: the compiled
/// path's report, re-sourced to the guarded chain with the tier trail
/// attached.
fn tier1_report(
    rep: EstimateReport,
    outcome: &EstimateOutcome,
    t_total: Instant,
) -> EstimateReport {
    let mut provenance = rep.provenance;
    provenance.source = "guarded";
    provenance.tier = Some(Tier::Xsketch.name());
    provenance.degraded = outcome.degraded;
    let mut telemetry = rep.telemetry;
    telemetry.total_ns = elapsed_ns(t_total);
    let mut explain = rep.explain;
    if let Some(e) = explain.as_mut() {
        e.tier_path = tier_path(&outcome.attempts);
    }
    EstimateReport {
        estimate: outcome.estimate,
        provenance,
        telemetry,
        explain,
    }
}

/// Builds the unified report for a query a fallback tier answered. The
/// fallback tiers have no embeddings, so the explain section (present
/// only on request) carries just the tier trail.
fn fallback_report(
    outcome: &EstimateOutcome,
    tier1_failure: TierFailure,
    explain: bool,
    t_total: Instant,
) -> EstimateReport {
    let mut provenance = Provenance::new("guarded");
    provenance.tier = Some(outcome.tier.name());
    provenance.degraded = true;
    if let TierFailure::Exhausted(ex) = tier1_failure {
        provenance.exhaustion = Some(ex);
    }
    EstimateReport {
        estimate: outcome.estimate,
        provenance,
        telemetry: QueryTelemetry {
            total_ns: elapsed_ns(t_total),
            ..QueryTelemetry::default()
        },
        explain: explain.then(|| Explain {
            expanded: 0,
            embeddings: Vec::new(),
            assumptions: Default::default(),
            final_clamp: false,
            tier_path: tier_path(&outcome.attempts),
        }),
    }
}

impl Estimator for GuardedEstimator<'_> {
    /// Serves the request through the fallback chain. Budgets come from
    /// the estimator's [`GuardPolicy`], not the request — the request
    /// contributes only its `explain` flag, so one policy governs every
    /// caller uniformly.
    fn estimate(&self, req: &EstimateRequest<'_>) -> EstimateReport {
        self.serve(req.query, req.options.explain).1
    }
}

impl SummaryEstimator for GuardedEstimator<'_> {
    fn estimate(&self, q: &TwigQuery) -> f64 {
        self.serve(q, false).0.estimate
    }

    fn size_bytes(&self) -> usize {
        self.synopsis.size_bytes() + self.markov.size_bytes()
    }

    fn name(&self) -> &'static str {
        "Guarded"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtwig_core::coarse_synopsis;
    use xtwig_query::parse_twig;

    /// The chain's outcome for `q` with no per-request controls.
    fn outcome(g: &GuardedEstimator<'_>, q: &TwigQuery) -> EstimateOutcome {
        g.estimate_controlled(q, false, &ChainControls::default()).0
    }

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

    #[test]
    fn healthy_chain_serves_tier_one() {
        let (_d, s) = setup();
        let g = GuardedEstimator::new(&s, GuardPolicy::default());
        let q = parse_twig("for $t0 in //author, $t1 in $t0/paper").unwrap();
        let out = outcome(&g, &q);
        assert_eq!(out.tier, Tier::Xsketch);
        assert!(!out.degraded);
        assert!((out.estimate - 3.0).abs() < 1e-9);
        let c = g.counters();
        assert_eq!(c.queries, 1);
        assert_eq!(c.degraded, 0);
    }

    #[test]
    fn derived_markov_matches_document_markov() {
        let (d, s) = setup();
        let built = MarkovPaths::build(&d, MarkovOptions::default());
        let derived = markov_from_synopsis(&s, MarkovOptions::default().budget_bytes);
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
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let g = GuardedEstimator::new(&s, GuardPolicy::default())
            .with_fault(InjectedFault::PanicIn(Tier::Xsketch));
        let q = parse_twig("for $t0 in //author, $t1 in $t0/paper").unwrap();
        let out = outcome(&g, &q);
        std::panic::set_hook(prev);
        assert_eq!(out.tier, Tier::Markov);
        assert!(out.degraded);
        assert!(out.estimate.is_finite() && out.estimate >= 0.0);
        assert_eq!(
            out.attempts[0].failure,
            Some(TierFailure::Panicked),
            "{:?}",
            out.attempts
        );
        let c = g.counters();
        assert_eq!(c.panics, 1);
        assert_eq!(c.served_markov, 1);
    }

    #[test]
    fn panic_everywhere_still_returns_finite() {
        let (_d, s) = setup();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let q = parse_twig("for $t0 in //author, $t1 in $t0/paper").unwrap();
        for tier in [Tier::Xsketch, Tier::Markov, Tier::LabelCount] {
            let g = GuardedEstimator::new(&s, GuardPolicy::default())
                .with_fault(InjectedFault::PanicIn(tier));
            let out = outcome(&g, &q);
            assert!(out.estimate.is_finite() && out.estimate >= 0.0, "{tier}");
        }
        std::panic::set_hook(prev);
    }

    #[test]
    fn poison_falls_through_to_finite_tier() {
        let (_d, s) = setup();
        let q = parse_twig("for $t0 in //author, $t1 in $t0/paper").unwrap();
        let g = GuardedEstimator::new(&s, GuardPolicy::default())
            .with_fault(InjectedFault::PoisonIn(Tier::Xsketch));
        let out = outcome(&g, &q);
        assert_eq!(out.tier, Tier::Markov);
        assert_eq!(out.attempts[0].failure, Some(TierFailure::NonFinite));
        assert!(out.estimate.is_finite());
    }

    #[test]
    fn stalled_tier_one_degrades_within_budget() {
        let (_d, s) = setup();
        let policy = GuardPolicy {
            time_budget: Some(Duration::from_millis(1)),
            ..Default::default()
        };
        let g = GuardedEstimator::new(&s, policy).with_fault(InjectedFault::StallXsketch);
        let q = parse_twig("for $t0 in //author, $t1 in $t0/paper").unwrap();
        let start = Instant::now();
        let out = outcome(&g, &q);
        let elapsed = start.elapsed();
        assert!(out.degraded);
        assert_ne!(out.tier, Tier::Xsketch);
        assert!(out.estimate.is_finite() && out.estimate >= 0.0);
        assert!(
            elapsed < Duration::from_millis(250),
            "took {elapsed:?} for a 1 ms budget"
        );
        assert_eq!(g.counters().deadline_trips, 1);
    }

    #[test]
    fn work_limit_degrades_to_markov() {
        let (_d, s) = setup();
        let policy = GuardPolicy {
            work_limit: 1,
            ..Default::default()
        };
        let g = GuardedEstimator::new(&s, policy);
        let q = parse_twig("for $t0 in //author, $t1 in $t0/paper, $t2 in $t1/kw").unwrap();
        let out = outcome(&g, &q);
        assert!(out.degraded);
        assert_eq!(
            out.attempts[0].failure,
            Some(TierFailure::Exhausted(Exhaustion::Work))
        );
        assert!(out.estimate.is_finite() && out.estimate >= 0.0);
        assert_eq!(g.counters().work_trips, 1);
    }

    #[test]
    fn estimator_trait_is_wired() {
        let (_d, s) = setup();
        let g = GuardedEstimator::new(&s, GuardPolicy::default());
        let q = parse_twig("for $t0 in //kw").unwrap();
        assert!((SummaryEstimator::estimate(&g, &q) - 4.0).abs() < 1e-9);
        assert!(g.size_bytes() > s.size_bytes());
        assert_eq!(g.name(), "Guarded");
    }

    #[test]
    fn unified_report_matches_outcome_on_healthy_chain() {
        let (_d, s) = setup();
        let g = GuardedEstimator::new(&s, GuardPolicy::default());
        let q = parse_twig("for $t0 in //author, $t1 in $t0/paper").unwrap();
        let out = outcome(&g, &q);
        let opts = EstimateOptions::builder().explain(true).build();
        let rep = Estimator::estimate(&g, &EstimateRequest::with_options(&q, opts));
        assert_eq!(rep.estimate.to_bits(), out.estimate.to_bits());
        assert_eq!(rep.provenance.source, "guarded");
        assert_eq!(rep.provenance.tier, Some("xsketch"));
        assert!(!rep.provenance.degraded);
        let explain = rep.explain.expect("explain was requested");
        assert_eq!(explain.tier_path, vec!["xsketch: ok".to_string()]);
        let sum: f64 = explain.embeddings.iter().map(|c| c.contribution).sum();
        assert!((sum - rep.estimate).abs() <= 1e-9 * rep.estimate.max(1.0));
    }

    #[test]
    fn breaker_opens_after_repeated_tier_one_panics_and_short_circuits() {
        let (_d, s) = setup();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let g = GuardedEstimator::new(&s, GuardPolicy::default());
        let q = parse_twig("for $t0 in //author, $t1 in $t0/paper").unwrap();
        let breakers = TierBreakers::new(xtwig_core::BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::from_secs(3600),
        });
        let faulty = ChainControls {
            breakers: Some(&breakers),
            fault: Some(InjectedFault::PanicIn(Tier::Xsketch)),
            ..Default::default()
        };
        for _ in 0..3 {
            let (out, _) = g.estimate_controlled(&q, false, &faulty);
            assert_eq!(out.attempts[0].failure, Some(TierFailure::Panicked));
        }
        assert_eq!(
            breakers.get(Tier::Xsketch).state(),
            xtwig_core::BreakerState::Open
        );
        // Healthy request while the breaker is open: tier 1 is skipped
        // without running, and the fallback still answers.
        let healthy = ChainControls {
            breakers: Some(&breakers),
            ..Default::default()
        };
        let (out, rep) = g.estimate_controlled(&q, true, &healthy);
        std::panic::set_hook(prev);
        assert_eq!(out.attempts[0].failure, Some(TierFailure::ShortCircuited));
        assert_eq!(out.tier, Tier::Markov);
        assert!(rep.provenance.degraded);
        let explain = rep.explain.expect("explain was requested");
        assert_eq!(explain.tier_path[0], "xsketch: breaker open");
    }

    #[test]
    fn half_open_probe_recloses_the_breaker() {
        let (_d, s) = setup();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let g = GuardedEstimator::new(&s, GuardPolicy::default());
        let q = parse_twig("for $t0 in //author, $t1 in $t0/paper").unwrap();
        let breakers = TierBreakers::new(xtwig_core::BreakerConfig {
            failure_threshold: 1,
            cooldown: Duration::ZERO,
        });
        let faulty = ChainControls {
            breakers: Some(&breakers),
            fault: Some(InjectedFault::PanicIn(Tier::Xsketch)),
            ..Default::default()
        };
        g.estimate_controlled(&q, false, &faulty);
        std::panic::set_hook(prev);
        assert_eq!(
            breakers.get(Tier::Xsketch).state(),
            xtwig_core::BreakerState::Open
        );
        // Zero cooldown: the next healthy request is the probe and
        // re-closes the breaker; tier 1 serves again.
        let healthy = ChainControls {
            breakers: Some(&breakers),
            ..Default::default()
        };
        let (out, _) = g.estimate_controlled(&q, false, &healthy);
        assert_eq!(out.tier, Tier::Xsketch);
        assert_eq!(
            breakers.get(Tier::Xsketch).state(),
            xtwig_core::BreakerState::Closed
        );
        let (opens, closes, _) = breakers.get(Tier::Xsketch).transitions();
        assert_eq!((opens, closes), (1, 1));
    }

    #[test]
    fn request_deadline_tightens_the_policy_budget() {
        let (_d, s) = setup();
        // Policy is generous; the *request* deadline is already expired,
        // so tier 1 must trip on it and the chain must degrade.
        let policy = GuardPolicy {
            time_budget: Some(Duration::from_secs(600)),
            ..Default::default()
        };
        let g = GuardedEstimator::new(&s, policy);
        let q = parse_twig("for $t0 in //author, $t1 in $t0/paper").unwrap();
        let controls = ChainControls {
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            ..Default::default()
        };
        let (out, _) = g.estimate_controlled(&q, false, &controls);
        assert_eq!(
            out.attempts[0].failure,
            Some(TierFailure::Exhausted(Exhaustion::Deadline))
        );
        assert!(out.degraded);
        assert!(out.estimate.is_finite() && out.estimate >= 0.0);
    }

    #[test]
    fn controls_fault_overrides_estimator_fault() {
        let (_d, s) = setup();
        let g = GuardedEstimator::new(&s, GuardPolicy::default())
            .with_fault(InjectedFault::PoisonIn(Tier::Xsketch));
        let q = parse_twig("for $t0 in //author, $t1 in $t0/paper").unwrap();
        // The per-request override redirects the poison to Markov; tier 1
        // still fails (its own estimator-level fault is replaced, not
        // stacked), proving precedence.
        let controls = ChainControls {
            fault: Some(InjectedFault::PoisonIn(Tier::Markov)),
            ..Default::default()
        };
        let (out, _) = g.estimate_controlled(&q, false, &controls);
        assert_eq!(out.attempts[0].failure, None, "tier 1 healthy again");
        assert_eq!(out.tier, Tier::Xsketch);
    }

    #[test]
    fn unified_report_records_fallback_tier_path() {
        let (_d, s) = setup();
        let policy = GuardPolicy {
            work_limit: 1,
            ..Default::default()
        };
        let g = GuardedEstimator::new(&s, policy);
        let q = parse_twig("for $t0 in //author, $t1 in $t0/paper, $t2 in $t1/kw").unwrap();
        let opts = EstimateOptions::builder().explain(true).build();
        let rep = Estimator::estimate(&g, &EstimateRequest::with_options(&q, opts));
        assert_eq!(rep.provenance.tier, Some("markov"));
        assert!(rep.provenance.degraded);
        assert_eq!(rep.provenance.exhaustion, Some(Exhaustion::Work));
        let explain = rep.explain.expect("explain was requested");
        assert_eq!(
            explain.tier_path,
            vec![
                "xsketch: work limit exhausted".to_string(),
                "markov: ok".to_string()
            ]
        );
        assert!(explain.embeddings.is_empty(), "fallback has no embeddings");
    }
}
