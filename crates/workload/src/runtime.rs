//! The resilient serving runtime: admission control, retry with
//! backoff, circuit-broken tiers, and hot snapshot reload wired around
//! the [`GuardedEstimator`] chain.
//!
//! This is the layer the ROADMAP's "heavy traffic" north star needs on
//! top of crash-safe single estimates (PR 2) and fast observable
//! batches (PR 3/4): a [`ServingRuntime`] owns the synopsis, admits
//! requests through a bounded [`AdmissionQueue`] (shedding under
//! overload instead of queueing without bound), serves each request
//! through the guarded chain gated by shared per-tier
//! [`TierBreakers`], retries transiently degraded answers under
//! deterministic jittered backoff, and atomically swaps in a freshly
//! CRC-validated synopsis without blocking requests already in flight.
//!
//! ## Reload epoch protocol
//!
//! [`GuardedEstimator`] borrows its synopsis, so the swap cannot hand a
//! long-lived estimator to the workers. Instead the runtime holds
//! `RwLock<Arc<Generation>>` plus an atomic epoch. Each worker clones
//! the current `Arc`, builds its *own* estimator borrowing the local
//! clone, and serves requests while the atomic epoch still matches its
//! generation. A reload installs the new generation and bumps the
//! epoch; workers observe the mismatch at the next request boundary,
//! drop their estimator (and with it the compiled form, expansion memo,
//! and any epoch-keyed cache entries — the fresh compile gets a fresh
//! process-unique epoch, so invalidation is structural, not a flush
//! protocol), and rebuild from the new `Arc`. In-flight requests finish
//! on the old generation because their worker's `Arc` keeps it alive; a
//! corrupt reload never installs, which *is* the rollback — the
//! previous generation keeps serving.

use std::time::{Duration, Instant};

use xtwig_core::sync::atomic::{AtomicU64, Ordering};
use xtwig_core::sync::{Arc, Mutex, PoisonError, RwLock};

use xtwig_core::estimate::{
    EstimateReport, EstimateRequest, Estimator, Provenance, QueryTelemetry,
};
use xtwig_core::io::{load_synopsis, SnapshotError};
use xtwig_core::serve::runtime::{Admission, AdmissionQueue, BackoffPolicy, ShedPolicy};
use xtwig_core::telemetry;
use xtwig_core::Synopsis;
use xtwig_query::TwigQuery;

use crate::guarded::{
    ChainControls, GuardPolicy, GuardedEstimator, InjectedFault, Tier, TierBreakers, TierFailure,
};

/// One installed synopsis version. Workers hold it via `Arc`, so an old
/// generation lives exactly as long as the last in-flight request
/// served from it.
#[derive(Debug)]
pub struct Generation {
    /// The synopsis this generation serves from.
    pub synopsis: Synopsis,
    /// The runtime reload epoch it was installed at (0 = initial).
    pub epoch: u64,
}

/// Runtime tuning. Every knob has a serving-sensible default; the soak
/// harness shrinks queue depth and breaker thresholds to force the
/// interesting transitions within a test run.
///
/// `#[non_exhaustive]`: construct through [`RuntimeOptions::default`]
/// or [`RuntimeOptions::builder`] (mirroring
/// [`EstimateOptions::builder`](xtwig_core::EstimateOptions::builder))
/// so future knobs are not breaking changes.
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub struct RuntimeOptions {
    /// Bounded work-queue depth (minimum one).
    pub queue_depth: usize,
    /// What to do when the queue is full.
    pub shed_policy: ShedPolicy,
    /// Worker threads serving the queue (minimum one).
    pub workers: usize,
    /// Per-request wall-clock budget measured from *admission*; it can
    /// only tighten the estimator policy's own time budget.
    pub request_timeout: Option<Duration>,
    /// Retries after a degraded answer (0 = serve first answer as-is).
    pub max_retries: u32,
    /// Backoff schedule between retries.
    pub backoff: BackoffPolicy,
    /// Per-tier breaker tuning.
    pub breaker: xtwig_core::BreakerConfig,
    /// Budgets for the guarded chain itself.
    pub policy: GuardPolicy,
}

impl Default for RuntimeOptions {
    fn default() -> RuntimeOptions {
        RuntimeOptions {
            queue_depth: 256,
            shed_policy: ShedPolicy::RejectNew,
            workers: 4,
            request_timeout: None,
            max_retries: 2,
            backoff: BackoffPolicy::default(),
            breaker: xtwig_core::BreakerConfig::default(),
            policy: GuardPolicy::default(),
        }
    }
}

impl RuntimeOptions {
    /// A builder seeded with the defaults.
    pub fn builder() -> RuntimeOptionsBuilder {
        RuntimeOptionsBuilder {
            opts: RuntimeOptions::default(),
        }
    }

    /// A builder seeded with this value (for tweaking a base config).
    pub fn to_builder(self) -> RuntimeOptionsBuilder {
        RuntimeOptionsBuilder { opts: self }
    }
}

/// Builder for [`RuntimeOptions`].
#[derive(Debug, Clone, Copy)]
pub struct RuntimeOptionsBuilder {
    opts: RuntimeOptions,
}

impl RuntimeOptionsBuilder {
    /// Sets the bounded work-queue depth (minimum one, enforced at
    /// queue construction).
    pub fn queue_depth(mut self, n: usize) -> Self {
        self.opts.queue_depth = n;
        self
    }

    /// Sets the full-queue shedding policy.
    pub fn shed_policy(mut self, policy: ShedPolicy) -> Self {
        self.opts.shed_policy = policy;
        self
    }

    /// Sets the worker-thread count (minimum one, enforced at serve).
    pub fn workers(mut self, n: usize) -> Self {
        self.opts.workers = n;
        self
    }

    /// Sets or clears the per-request wall-clock budget.
    pub fn request_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.opts.request_timeout = timeout;
        self
    }

    /// Sets the retry budget after a degraded answer.
    pub fn max_retries(mut self, n: u32) -> Self {
        self.opts.max_retries = n;
        self
    }

    /// Sets the backoff schedule between retries.
    pub fn backoff(mut self, backoff: BackoffPolicy) -> Self {
        self.opts.backoff = backoff;
        self
    }

    /// Sets the per-tier breaker tuning.
    pub fn breaker(mut self, config: xtwig_core::BreakerConfig) -> Self {
        self.opts.breaker = config;
        self
    }

    /// Sets the guarded-chain budgets.
    pub fn policy(mut self, policy: GuardPolicy) -> Self {
        self.opts.policy = policy;
        self
    }

    /// Finalizes the options.
    pub fn build(self) -> RuntimeOptions {
        self.opts
    }
}

/// How a request terminated. Every submitted request gets exactly one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TerminalProvenance {
    /// Full-fidelity tier-1 answer.
    Full,
    /// A lower tier (or clamped tier 1) answered.
    Degraded,
    /// Admission control shed the request; the estimate is 0.0 and must
    /// not be trusted.
    Shed,
}

impl TerminalProvenance {
    /// Short name for logs and CLI output.
    pub fn name(self) -> &'static str {
        match self {
            TerminalProvenance::Full => "full",
            TerminalProvenance::Degraded => "degraded",
            TerminalProvenance::Shed => "shed",
        }
    }
}

/// The runtime's answer for one submitted request.
#[derive(Debug, Clone)]
pub struct RuntimeResult {
    /// Index of the query in the submitted batch.
    pub request_id: u64,
    /// How the request terminated.
    pub terminal: TerminalProvenance,
    /// The tier that answered (`None` when shed).
    pub tier: Option<Tier>,
    /// Retries spent beyond the first attempt.
    pub retries: u32,
    /// The reload epoch the answer was served under (the *submission*
    /// epoch for shed requests).
    pub epoch: u64,
    /// The full report (shed requests carry a zeroed report whose
    /// provenance has `shed: true`).
    pub report: EstimateReport,
}

/// Internal request envelope flowing through the admission queue.
struct Request {
    id: u64,
    admitted_at: Instant,
}

#[derive(Debug, Default)]
struct RuntimeCounters {
    submitted: AtomicU64,
    full: AtomicU64,
    degraded: AtomicU64,
    shed: AtomicU64,
    retries: AtomicU64,
    reloads: AtomicU64,
    reload_rollbacks: AtomicU64,
}

/// A point-in-time copy of the runtime's counters, including aggregate
/// breaker transitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Requests submitted to the runtime.
    pub submitted: u64,
    /// Requests answered at full fidelity.
    pub full: u64,
    /// Requests answered degraded.
    pub degraded: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Retry attempts spent across all requests.
    pub retries: u64,
    /// Successful hot reloads.
    pub reloads: u64,
    /// Corrupt reloads rolled back (previous generation kept serving).
    pub reload_rollbacks: u64,
    /// Breaker open transitions summed over the three tiers.
    pub breaker_opens: u64,
    /// Breaker close transitions summed over the three tiers.
    pub breaker_closes: u64,
    /// Attempts refused by an open breaker, summed over the tiers.
    pub breaker_short_circuits: u64,
}

impl RuntimeStats {
    /// Requests that received *some* terminal provenance.
    pub fn terminated(&self) -> u64 {
        self.full
            .saturating_add(self.degraded)
            .saturating_add(self.shed)
    }
}

/// The resilient serving runtime. See the module docs for the epoch
/// protocol; [`serve`](ServingRuntime::serve) /
/// [`serve_with`](ServingRuntime::serve_with) for the request path.
pub struct ServingRuntime {
    options: RuntimeOptions,
    /// The tenant this runtime serves (single-document runtimes inside
    /// a multi-tenant catalog deployment; `"default"` when standalone).
    tenant: String,
    generation: RwLock<Arc<Generation>>,
    epoch: AtomicU64,
    breakers: TierBreakers,
    /// Pending injected faults: each admitted request consumes at most
    /// one, so a burst of N faults hits exactly the next N requests —
    /// deterministic in count, independent of thread interleaving.
    fault_bursts: Mutex<std::collections::VecDeque<InjectedFault>>,
    counters: RuntimeCounters,
}

impl ServingRuntime {
    /// A runtime serving `synopsis` under `options` for the standalone
    /// `"default"` tenant.
    pub fn new(synopsis: Synopsis, options: RuntimeOptions) -> ServingRuntime {
        ServingRuntime::new_for_tenant("default", synopsis, options)
    }

    /// A runtime serving `synopsis` for a named tenant — the shape a
    /// multi-tenant catalog deployment uses, where each tenant's
    /// breaker/queue state must stay isolated in its own runtime.
    pub fn new_for_tenant(
        tenant: impl Into<String>,
        synopsis: Synopsis,
        options: RuntimeOptions,
    ) -> ServingRuntime {
        ServingRuntime {
            breakers: TierBreakers::new(options.breaker),
            options,
            tenant: tenant.into(),
            generation: RwLock::new(Arc::new(Generation { synopsis, epoch: 0 })),
            epoch: AtomicU64::new(0),
            fault_bursts: Mutex::new(std::collections::VecDeque::new()),
            counters: RuntimeCounters::default(),
        }
    }

    /// The tenant this runtime serves.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// The options in force.
    pub fn options(&self) -> &RuntimeOptions {
        &self.options
    }

    /// The shared per-tier breakers.
    pub fn breakers(&self) -> &TierBreakers {
        &self.breakers
    }

    /// The current reload epoch (0 until the first successful reload).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The currently installed generation.
    fn current(&self) -> Arc<Generation> {
        Arc::clone(
            &self
                .generation
                .read()
                .unwrap_or_else(PoisonError::into_inner),
        )
    }

    /// Queues `count` copies of `fault`; each is consumed by exactly one
    /// subsequent request attempt (soak harness / tests only).
    pub fn inject_fault_burst(&self, fault: InjectedFault, count: u32) {
        let mut q = self
            .fault_bursts
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        for _ in 0..count {
            q.push_back(fault);
        }
    }

    fn take_fault(&self) -> Option<InjectedFault> {
        self.fault_bursts
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop_front()
    }

    /// Discards faults left unconsumed, returning how many there were.
    /// The soak harness calls this at phase boundaries so one phase's
    /// burst cannot leak into the next.
    pub fn drain_faults(&self) -> usize {
        let mut q = self
            .fault_bursts
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let n = q.len();
        q.clear();
        n
    }

    /// Validates `bytes` as a snapshot and hot-swaps it in: the epoch is
    /// bumped and the new generation installed atomically, so requests
    /// admitted after this call serve from the new synopsis while
    /// requests already in flight finish on the old one. A corrupt
    /// snapshot installs *nothing* — the previous generation keeps
    /// serving (the rollback) — and the error is returned.
    pub fn reload_snapshot_bytes(&self, bytes: &[u8]) -> Result<u64, SnapshotError> {
        let tg = telemetry::global();
        match load_synopsis(bytes) {
            Ok(synopsis) => {
                let mut slot = self
                    .generation
                    .write()
                    .unwrap_or_else(PoisonError::into_inner);
                let epoch = self.epoch.load(Ordering::Acquire).wrapping_add(1);
                *slot = Arc::new(Generation { synopsis, epoch });
                self.epoch.store(epoch, Ordering::Release);
                drop(slot);
                // lint:allow(atomic-ordering): monotonic stats counter; nothing is ordered against it
                self.counters.reloads.fetch_add(1, Ordering::Relaxed);
                tg.runtime_reloads.incr();
                Ok(epoch)
            }
            Err(e) => {
                self.counters
                    .reload_rollbacks
                    // lint:allow(atomic-ordering): monotonic stats counter; nothing is ordered against it
                    .fetch_add(1, Ordering::Relaxed);
                tg.runtime_reload_rollbacks.incr();
                Err(e)
            }
        }
    }

    /// A point-in-time stats snapshot.
    pub fn stats(&self) -> RuntimeStats {
        let mut opens = 0u64;
        let mut closes = 0u64;
        let mut shorts = 0u64;
        for tier in [Tier::Xsketch, Tier::Markov, Tier::LabelCount] {
            let (o, c, s) = self.breakers.get(tier).transitions();
            opens = opens.saturating_add(o);
            closes = closes.saturating_add(c);
            shorts = shorts.saturating_add(s);
        }
        RuntimeStats {
            // lint:allow(atomic-ordering): point-in-time stats snapshot; torn reads across counters are acceptable
            submitted: self.counters.submitted.load(Ordering::Relaxed),
            // lint:allow(atomic-ordering): point-in-time stats snapshot; torn reads across counters are acceptable
            full: self.counters.full.load(Ordering::Relaxed),
            // lint:allow(atomic-ordering): point-in-time stats snapshot; torn reads across counters are acceptable
            degraded: self.counters.degraded.load(Ordering::Relaxed),
            // lint:allow(atomic-ordering): point-in-time stats snapshot; torn reads across counters are acceptable
            shed: self.counters.shed.load(Ordering::Relaxed),
            // lint:allow(atomic-ordering): point-in-time stats snapshot; torn reads across counters are acceptable
            retries: self.counters.retries.load(Ordering::Relaxed),
            // lint:allow(atomic-ordering): point-in-time stats snapshot; torn reads across counters are acceptable
            reloads: self.counters.reloads.load(Ordering::Relaxed),
            // lint:allow(atomic-ordering): point-in-time stats snapshot; torn reads across counters are acceptable
            reload_rollbacks: self.counters.reload_rollbacks.load(Ordering::Relaxed),
            breaker_opens: opens,
            breaker_closes: closes,
            breaker_short_circuits: shorts,
        }
    }

    /// Serves one query immediately on the calling thread — no queue,
    /// no breakers, no faults. This is the reference path the soak test
    /// compares against: post-soak, a fresh estimator on the same
    /// snapshot must produce bit-identical estimates.
    pub fn estimate_now(&self, q: &TwigQuery) -> EstimateReport {
        let generation = self.current();
        let estimator = GuardedEstimator::new(&generation.synopsis, self.options.policy);
        Estimator::estimate(&estimator, &EstimateRequest::new(q))
    }

    /// Serves a batch through the full admission/retry/breaker path and
    /// returns one [`RuntimeResult`] per query, in input order.
    pub fn serve(&self, queries: &[TwigQuery]) -> Vec<RuntimeResult> {
        self.serve_with(queries, |_| {})
    }

    /// Like [`serve`](ServingRuntime::serve), but runs `driver` on its
    /// own thread concurrently with submission and the workers — the
    /// soak harness uses it to fire mid-flight reloads and fault bursts
    /// while requests are in motion. The driver runs for the duration of
    /// the batch; `serve_with` returns once every request has a terminal
    /// result and the driver has finished.
    pub fn serve_with<F>(&self, queries: &[TwigQuery], driver: F) -> Vec<RuntimeResult>
    where
        F: FnOnce(&ServingRuntime) + Send,
    {
        let queue: AdmissionQueue<Request> =
            AdmissionQueue::new(self.options.queue_depth, self.options.shed_policy);
        let slots: Vec<Mutex<Option<RuntimeResult>>> =
            queries.iter().map(|_| Mutex::new(None)).collect();
        let workers = self.options.workers.max(1);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| self.worker_loop(&queue, queries, &slots));
            }
            let driver_handle = scope.spawn(|| driver(self));
            for (i, _) in queries.iter().enumerate() {
                // lint:allow(atomic-ordering): monotonic stats counter; nothing is ordered against it
                self.counters.submitted.fetch_add(1, Ordering::Relaxed);
                let req = Request {
                    id: i as u64,
                    admitted_at: Instant::now(),
                };
                match queue.offer(req) {
                    Admission::Accepted => {}
                    Admission::Rejected(r) => self.store_shed(&slots, r.id),
                    Admission::AcceptedDroppedOldest(old) => self.store_shed(&slots, old.id),
                }
            }
            // All submissions are in; let the workers drain and exit.
            queue.close();
            let _ = driver_handle.join();
        });
        slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                slot.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    // A worker always stores before moving on; this arm
                    // keeps the result total if one did not (it would
                    // indicate a runtime bug, surfaced as a shed).
                    .unwrap_or_else(|| self.shed_result(i as u64))
            })
            .collect()
    }

    fn store_shed(&self, slots: &[Mutex<Option<RuntimeResult>>], id: u64) {
        // lint:allow(atomic-ordering): monotonic stats counter; nothing is ordered against it
        self.counters.shed.fetch_add(1, Ordering::Relaxed);
        if let Some(slot) = slots.get(id as usize) {
            *slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(self.shed_result(id));
        }
    }

    fn shed_result(&self, id: u64) -> RuntimeResult {
        RuntimeResult {
            request_id: id,
            terminal: TerminalProvenance::Shed,
            tier: None,
            retries: 0,
            epoch: self.epoch(),
            report: EstimateReport {
                estimate: 0.0,
                provenance: Provenance {
                    shed: true,
                    ..Provenance::new("runtime")
                },
                telemetry: QueryTelemetry::default(),
                explain: None,
            },
        }
    }

    /// One worker: build an estimator for the current generation, serve
    /// until the epoch moves, rebuild. The pending-request carry-over
    /// keeps a request observed across a reload from being lost.
    fn worker_loop(
        &self,
        queue: &AdmissionQueue<Request>,
        queries: &[TwigQuery],
        slots: &[Mutex<Option<RuntimeResult>>],
    ) {
        let tg = telemetry::global();
        let mut pending: Option<Request> = None;
        'generation: loop {
            let generation = self.current();
            let estimator = GuardedEstimator::new(&generation.synopsis, self.options.policy);
            loop {
                let Some(req) = pending.take().or_else(|| queue.pop()) else {
                    return;
                };
                if self.epoch.load(Ordering::Acquire) != generation.epoch {
                    pending = Some(req);
                    continue 'generation;
                }
                tg.runtime_inflight.inc();
                let result = self.process(&estimator, generation.epoch, &req, queries);
                tg.runtime_inflight.dec();
                match result.terminal {
                    TerminalProvenance::Full => {
                        // lint:allow(atomic-ordering): monotonic stats counter; nothing is ordered against it
                        self.counters.full.fetch_add(1, Ordering::Relaxed);
                    }
                    TerminalProvenance::Degraded => {
                        // lint:allow(atomic-ordering): monotonic stats counter; nothing is ordered against it
                        self.counters.degraded.fetch_add(1, Ordering::Relaxed);
                    }
                    TerminalProvenance::Shed => {
                        // lint:allow(atomic-ordering): monotonic stats counter; nothing is ordered against it
                        self.counters.shed.fetch_add(1, Ordering::Relaxed);
                    }
                }
                if let Some(slot) = slots.get(req.id as usize) {
                    *slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
                }
            }
        }
    }

    /// Serves one admitted request: estimate through the breaker-gated
    /// chain, retrying degraded answers under jittered backoff until the
    /// retry budget or the request deadline runs out. A tier-1 short
    /// circuit is *not* retried — the breaker is open precisely so that
    /// requests stop burning budget on it; the half-open probe brings
    /// the tier back.
    fn process(
        &self,
        estimator: &GuardedEstimator<'_>,
        epoch: u64,
        req: &Request,
        queries: &[TwigQuery],
    ) -> RuntimeResult {
        let tg = telemetry::global();
        let query = match queries.get(req.id as usize) {
            Some(q) => q,
            None => return self.shed_result(req.id),
        };
        let deadline = self.options.request_timeout.map(|t| req.admitted_at + t);
        let mut retries = 0u32;
        loop {
            let controls = ChainControls {
                deadline,
                breakers: Some(&self.breakers),
                fault: self.take_fault(),
            };
            let (outcome, report) = estimator.estimate_controlled(query, false, &controls);
            let tier1_short_circuited = outcome
                .attempts
                .first()
                .is_some_and(|a| a.failure == Some(TierFailure::ShortCircuited));
            let done =
                !outcome.degraded || retries >= self.options.max_retries || tier1_short_circuited;
            if done {
                return RuntimeResult {
                    request_id: req.id,
                    terminal: if outcome.degraded {
                        TerminalProvenance::Degraded
                    } else {
                        TerminalProvenance::Full
                    },
                    tier: Some(outcome.tier),
                    retries,
                    epoch,
                    report,
                };
            }
            retries += 1;
            let delay = self.options.backoff.delay(req.id, retries);
            if let Some(d) = deadline {
                if Instant::now() + delay >= d {
                    // No budget left to retry into: serve what we have.
                    return RuntimeResult {
                        request_id: req.id,
                        terminal: TerminalProvenance::Degraded,
                        tier: Some(outcome.tier),
                        retries: retries - 1,
                        epoch,
                        report,
                    };
                }
            }
            // lint:allow(atomic-ordering): monotonic stats counter; nothing is ordered against it
            self.counters.retries.fetch_add(1, Ordering::Relaxed);
            tg.runtime_retries.incr();
            if !delay.is_zero() {
                std::thread::sleep(delay);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SummaryEstimator;
    use xtwig_core::io::save_synopsis;
    use xtwig_core::{coarse_synopsis, BreakerConfig};
    use xtwig_query::parse_twig;

    fn setup() -> (Synopsis, Vec<TwigQuery>) {
        let doc = xtwig_xml::parse(concat!(
            "<bib>",
            "<author><name/><paper><kw/><kw/></paper><paper><kw/></paper></author>",
            "<author><name/><paper><kw/></paper></author>",
            "</bib>"
        ))
        .unwrap();
        let s = coarse_synopsis(&doc);
        let queries = [
            "for $t0 in //author, $t1 in $t0/paper",
            "for $t0 in //paper, $t1 in $t0/kw",
            "for $t0 in //author//kw",
        ]
        .iter()
        .map(|t| parse_twig(t).unwrap())
        .collect();
        (s, queries)
    }

    #[test]
    fn healthy_batch_is_all_full_fidelity_and_matches_direct() {
        let (s, queries) = setup();
        let rt = ServingRuntime::new(s.clone(), RuntimeOptions::default());
        let results = rt.serve(&queries);
        assert_eq!(results.len(), queries.len());
        let direct = GuardedEstimator::new(&s, GuardPolicy::default());
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.request_id, i as u64);
            assert_eq!(r.terminal, TerminalProvenance::Full, "{i}: {r:?}");
            assert_eq!(r.tier, Some(Tier::Xsketch));
            let want = SummaryEstimator::estimate(&direct, &queries[i]);
            assert_eq!(r.report.estimate.to_bits(), want.to_bits());
        }
        let stats = rt.stats();
        assert_eq!(stats.submitted, queries.len() as u64);
        assert_eq!(stats.full, queries.len() as u64);
        assert_eq!(stats.terminated(), stats.submitted);
    }

    #[test]
    fn successful_reload_bumps_epoch_and_serves_new_generation() {
        let (s, queries) = setup();
        let rt = ServingRuntime::new(s.clone(), RuntimeOptions::default());
        assert_eq!(rt.epoch(), 0);
        let bytes = save_synopsis(&s);
        let epoch = rt.reload_snapshot_bytes(&bytes).expect("valid snapshot");
        assert_eq!(epoch, 1);
        assert_eq!(rt.epoch(), 1);
        let results = rt.serve(&queries);
        for r in &results {
            assert_eq!(r.epoch, 1, "served under the new generation");
        }
        assert_eq!(rt.stats().reloads, 1);
    }

    #[test]
    fn corrupt_reload_rolls_back_and_keeps_serving() {
        let (s, queries) = setup();
        let rt = ServingRuntime::new(s.clone(), RuntimeOptions::default());
        let mut bytes = save_synopsis(&s);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        let before = rt.estimate_now(&queries[0]).estimate;
        assert!(rt.reload_snapshot_bytes(&bytes).is_err());
        assert_eq!(rt.epoch(), 0, "corrupt reload must not bump the epoch");
        assert_eq!(rt.stats().reload_rollbacks, 1);
        let after = rt.estimate_now(&queries[0]).estimate;
        assert_eq!(before.to_bits(), after.to_bits(), "old generation intact");
    }

    #[test]
    fn fault_burst_degrades_exactly_that_many_attempts() {
        let (s, queries) = setup();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let opts = RuntimeOptions {
            workers: 1,
            max_retries: 0,
            ..Default::default()
        };
        let rt = ServingRuntime::new(s, opts);
        rt.inject_fault_burst(InjectedFault::PanicIn(Tier::Xsketch), 2);
        let results = rt.serve(&queries);
        std::panic::set_hook(prev);
        let degraded = results
            .iter()
            .filter(|r| r.terminal == TerminalProvenance::Degraded)
            .count();
        assert_eq!(degraded, 2, "{results:?}");
        assert_eq!(rt.stats().degraded, 2);
    }

    #[test]
    fn tiny_queue_with_stalled_worker_sheds() {
        let (s, queries) = setup();
        // One worker stalled by an expired request timeout plus a depth-1
        // queue: submission outruns service and the overflow is shed.
        let many: Vec<TwigQuery> = (0..24)
            .map(|i| queries[i % queries.len()].clone())
            .collect();
        let opts = RuntimeOptions {
            queue_depth: 1,
            workers: 1,
            max_retries: 0,
            request_timeout: Some(Duration::from_millis(2)),
            ..Default::default()
        };
        let rt = ServingRuntime::new(s, opts);
        rt.inject_fault_burst(InjectedFault::StallXsketch, 24);
        let results = rt.serve(&many);
        for r in &results {
            assert!(
                matches!(
                    r.terminal,
                    TerminalProvenance::Full
                        | TerminalProvenance::Degraded
                        | TerminalProvenance::Shed
                ),
                "terminal provenance is total"
            );
        }
        let stats = rt.stats();
        assert_eq!(stats.terminated(), many.len() as u64, "{stats:?}");
        assert!(stats.shed > 0, "depth-1 queue must shed: {stats:?}");
    }

    #[test]
    fn retry_recovers_after_transient_fault() {
        let (s, queries) = setup();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let opts = RuntimeOptions {
            workers: 1,
            max_retries: 2,
            breaker: BreakerConfig {
                failure_threshold: 10,
                cooldown: Duration::from_millis(1),
            },
            ..Default::default()
        };
        let rt = ServingRuntime::new(s, opts);
        // Exactly one fault: the first attempt of the first request
        // panics in tier 1, the retry is clean and recovers to Full.
        rt.inject_fault_burst(InjectedFault::PanicIn(Tier::Xsketch), 1);
        let results = rt.serve(&queries[..1]);
        std::panic::set_hook(prev);
        assert_eq!(results[0].terminal, TerminalProvenance::Full);
        assert_eq!(results[0].retries, 1);
        assert_eq!(rt.stats().retries, 1);
    }
}
