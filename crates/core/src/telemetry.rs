//! Observability substrate: a lock-free metrics registry, log2-bucketed
//! latency histograms, and a zero-cost-when-disabled tracing span API.
//!
//! The paper's evaluation (§5) reasons about *why* an estimate is
//! accurate — which embeddings dominate, where the assumptions fire —
//! and a production serving layer needs the same visibility at the
//! aggregate level: cache behaviour, budget exhaustions, fallback-tier
//! degradations, per-stage latency. This module provides the plumbing:
//!
//! * [`Counter`] — a saturating atomic counter (never wraps, so a
//!   dashboard can trust monotonicity even after years of uptime).
//! * [`LatencyHistogram`] — fixed log2 buckets over nanoseconds; an
//!   observation is two relaxed atomic adds, no locks, no allocation.
//! * [`Telemetry`] — the registry of named counters and histograms for
//!   the estimation hot paths, exported as Prometheus text exposition
//!   ([`Telemetry::to_prometheus`]) and JSON ([`Telemetry::to_json`]).
//!   The process-wide instance is [`global`].
//! * [`Span`] / [`Stage`] — structured tracing of the estimation
//!   pipeline (parse → expansion → TREEPARSE → fallback), carrying
//!   work-budget consumption per stage. Compiled out entirely unless
//!   the `trace` cargo feature is enabled: with the feature off,
//!   [`Span::enter`] returns a zero-sized value and every method is an
//!   empty inline function.
//!
//! Everything here is observational: no counter or span feeds back into
//! the numeric estimation path, so estimates are bit-identical with
//! telemetry on, off, or torn down mid-flight (property-tested in
//! `tests/compiled_identity.rs`).

use crate::sync::atomic::{AtomicU64, Ordering};

/// Number of log2 latency buckets: bucket `i > 0` holds observations in
/// `[2^(i-1), 2^i)` nanoseconds, bucket 0 holds zeros, and the top
/// bucket absorbs everything beyond `2^62` ns.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A lock-free monotonic counter. Additions saturate at `u64::MAX`
/// instead of wrapping, so a long-lived process can never report a
/// counter going backwards.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter (const, so registries can live in statics).
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Adds `n`, saturating at `u64::MAX`.
    #[inline]
    pub fn add(&self, n: u64) {
        if n == 0 {
            return;
        }
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_add(n);
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A lock-free gauge: a value that can move both ways (queue depth,
/// in-flight requests). Unlike [`Counter`], decrements are expected;
/// `dec` saturates at zero so a racy teardown can never underflow into
/// a huge bogus reading.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A zeroed gauge (const, so registries can live in statics).
    pub const fn new() -> Gauge {
        Gauge(AtomicU64::new(0))
    }

    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Increments by one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Decrements by one, saturating at zero.
    #[inline]
    pub fn dec(&self) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(1);
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-size, lock-free latency histogram with log2 buckets over
/// nanoseconds. Recording is two relaxed atomic adds; reading is a
/// point-in-time snapshot (not atomic across buckets, which is fine for
/// monitoring).
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram (const, so registries can live in statics).
    pub const fn new() -> LatencyHistogram {
        #[allow(clippy::declare_interior_mutable_const)] // repeat-initializer idiom
        const ZERO: AtomicU64 = AtomicU64::new(0);
        LatencyHistogram {
            buckets: [ZERO; HISTOGRAM_BUCKETS],
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
        }
    }

    /// The bucket index an observation of `ns` nanoseconds lands in:
    /// 0 for zero, otherwise `floor(log2(ns)) + 1`, clamped to the top
    /// bucket.
    #[inline]
    pub fn bucket_of(ns: u64) -> usize {
        if ns == 0 {
            0
        } else {
            (64 - ns.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
        }
    }

    /// Inclusive upper bound (in ns) of bucket `i`; the top bucket is
    /// unbounded (`u64::MAX`).
    pub fn upper_bound_ns(i: usize) -> u64 {
        if i >= HISTOGRAM_BUCKETS - 1 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Records one observation of `ns` nanoseconds.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        if let Some(b) = self.buckets.get(Self::bucket_of(ns)) {
            b.fetch_add(1, Ordering::Relaxed);
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        // Saturating: a sum that pegged at MAX is better than one that
        // silently wrapped back through zero.
        let mut cur = self.sum_ns.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_add(ns);
            match self
                .sum_ns
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations in nanoseconds (saturating).
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns.load(Ordering::Relaxed)
    }

    /// Point-in-time copy of the per-bucket counts.
    pub fn bucket_counts(&self) -> [u64; HISTOGRAM_BUCKETS] {
        let mut out = [0u64; HISTOGRAM_BUCKETS];
        for (slot, b) in out.iter_mut().zip(self.buckets.iter()) {
            *slot = b.load(Ordering::Relaxed);
        }
        out
    }
}

/// The metrics registry: every counter and histogram the estimation,
/// serving, and construction hot paths report into. One instance is the
/// process-wide [`global`]; tests construct their own for isolated
/// assertions.
#[derive(Debug, Default)]
pub struct Telemetry {
    /// Expansion-memo lookups answered from the memo.
    pub expansion_memo_hits: Counter,
    /// Expansion-memo lookups that had to enumerate the embeddings.
    pub expansion_memo_misses: Counter,
    /// Estimate-cache lookups answered at the current epoch.
    pub cache_hits: Counter,
    /// Estimate-cache lookups that had to compute.
    pub cache_misses: Counter,
    /// Estimate-cache entries evicted because their epoch was stale.
    pub cache_stale_evictions: Counter,
    /// Estimate-cache entries evicted to make room (LRU victims).
    pub cache_lru_evictions: Counter,
    /// Estimate-cache inserts of full-fidelity results.
    pub cache_inserts: Counter,
    /// Meters tripped by a wall-clock deadline.
    pub meter_deadline_exhaustions: Counter,
    /// Meters tripped by the abstract work limit.
    pub meter_work_exhaustions: Counter,
    /// Estimates served with anything less than full fidelity (tripped
    /// budget or clamped contribution).
    pub degraded_results: Counter,
    /// Queries the guarded chain served in total.
    pub guarded_queries: Counter,
    /// Queries the guarded chain served below full fidelity.
    pub guarded_degraded: Counter,
    /// Panics contained by the guarded chain's `catch_unwind`.
    pub tier_panics: Counter,
    /// Queries answered by the Markov fallback tier.
    pub tier_markov_served: Counter,
    /// Queries answered by the label-count fallback tier.
    pub tier_label_count_served: Counter,
    /// TREEPARSE support terms (histogram-bucket visits) evaluated.
    pub treeparse_buckets_visited: Counter,
    /// Forward Uniformity fallbacks applied (per child edge not covered
    /// by an enumerated forward dimension).
    pub uniformity_applications: Counter,
    /// Correlation-Scope Independence conditionings applied (per node
    /// evaluation with at least one matched backward dimension).
    pub conditioning_applications: Counter,
    /// XBUILD refinement rounds executed.
    pub xbuild_rounds: Counter,
    /// XBUILD refinement candidates scored.
    pub xbuild_candidates_scored: Counter,
    /// Queries estimated (single or batched).
    pub queries_estimated: Counter,
    /// Batch members served from a groupmate's evaluation (same twig
    /// fingerprint in one batch: one lowered plan, one evaluation).
    pub batch_plan_reuses: Counter,
    /// Heavy unguarded queries whose embeddings were split across the
    /// batch's workers instead of evaluated by one.
    pub batch_splits: Counter,
    /// Requests a catalog shed at its per-tenant admission quota.
    pub runtime_shed_reject_new: Counter,
    /// Circuit-breaker transitions into the open state.
    pub runtime_breaker_open: Counter,
    /// Circuit-breaker transitions back to closed (successful probe).
    pub runtime_breaker_close: Counter,
    /// Attempts a breaker refused while open (a tenant shed at the
    /// catalog, or a fallback tier skipped).
    pub runtime_breaker_short_circuits: Counter,
    /// Hot reloads that verified their snapshot bytes and published
    /// them into a catalog key.
    pub runtime_reloads: Counter,
    /// Hot reloads whose bytes failed verification; nothing was
    /// published and the key kept serving its previous snapshot.
    pub runtime_reload_rollbacks: Counter,
    /// Deltas applied through incremental synopsis maintenance.
    pub ingest_deltas_applied: Counter,
    /// Delta records appended to the write-ahead log (fsynced).
    pub ingest_wal_appends: Counter,
    /// Checkpoints taken (document + synopsis re-derived and the WAL
    /// rotated under a new generation).
    pub ingest_checkpoints: Counter,
    /// Store recoveries (open of an existing store).
    pub ingest_recoveries: Counter,
    /// WAL delta records replayed during recovery.
    pub ingest_replayed_records: Counter,
    /// Torn WAL tails detected (and truncated) during recovery.
    pub ingest_torn_tails: Counter,
    /// Delta applications that fell back to a full partition rebuild
    /// (a group emptied out).
    pub ingest_full_rebuilds: Counter,
    /// Drift-triggered budgeted re-refinements that installed.
    pub drift_refinements: Counter,
    /// Drift-triggered re-refinements rejected (invalid or over budget)
    /// and rolled back while the maintained synopsis kept serving.
    pub drift_refine_rollbacks: Counter,
    /// Accumulated per-edge drift since the last refinement, in
    /// milli-units (gauge; `drift × 1000` truncated).
    pub drift_total_milli: Gauge,
    /// Delta records in the current WAL generation (gauge).
    pub ingest_wal_records: Gauge,
    /// Wall-clock of query parsing (CLI surface).
    pub parse_latency: LatencyHistogram,
    /// Wall-clock of maximal-twig expansion + embedding enumeration.
    pub expand_latency: LatencyHistogram,
    /// Wall-clock of TREEPARSE evaluation over the embeddings.
    pub treeparse_latency: LatencyHistogram,
    /// Wall-clock of guarded fallback-tier evaluation.
    pub fallback_latency: LatencyHistogram,
    /// End-to-end wall-clock of one estimate.
    pub estimate_latency: LatencyHistogram,
}

/// The process-wide registry.
static GLOBAL: Telemetry = Telemetry::new();

/// The process-wide metrics registry every hot path reports into.
pub fn global() -> &'static Telemetry {
    &GLOBAL
}

impl Telemetry {
    /// An empty registry (const, so the global can be a static).
    pub const fn new() -> Telemetry {
        Telemetry {
            expansion_memo_hits: Counter::new(),
            expansion_memo_misses: Counter::new(),
            cache_hits: Counter::new(),
            cache_misses: Counter::new(),
            cache_stale_evictions: Counter::new(),
            cache_lru_evictions: Counter::new(),
            cache_inserts: Counter::new(),
            meter_deadline_exhaustions: Counter::new(),
            meter_work_exhaustions: Counter::new(),
            degraded_results: Counter::new(),
            guarded_queries: Counter::new(),
            guarded_degraded: Counter::new(),
            tier_panics: Counter::new(),
            tier_markov_served: Counter::new(),
            tier_label_count_served: Counter::new(),
            treeparse_buckets_visited: Counter::new(),
            uniformity_applications: Counter::new(),
            conditioning_applications: Counter::new(),
            xbuild_rounds: Counter::new(),
            xbuild_candidates_scored: Counter::new(),
            queries_estimated: Counter::new(),
            batch_plan_reuses: Counter::new(),
            batch_splits: Counter::new(),
            runtime_shed_reject_new: Counter::new(),
            runtime_breaker_open: Counter::new(),
            runtime_breaker_close: Counter::new(),
            runtime_breaker_short_circuits: Counter::new(),
            runtime_reloads: Counter::new(),
            runtime_reload_rollbacks: Counter::new(),
            ingest_deltas_applied: Counter::new(),
            ingest_wal_appends: Counter::new(),
            ingest_checkpoints: Counter::new(),
            ingest_recoveries: Counter::new(),
            ingest_replayed_records: Counter::new(),
            ingest_torn_tails: Counter::new(),
            ingest_full_rebuilds: Counter::new(),
            drift_refinements: Counter::new(),
            drift_refine_rollbacks: Counter::new(),
            drift_total_milli: Gauge::new(),
            ingest_wal_records: Gauge::new(),
            parse_latency: LatencyHistogram::new(),
            expand_latency: LatencyHistogram::new(),
            treeparse_latency: LatencyHistogram::new(),
            fallback_latency: LatencyHistogram::new(),
            estimate_latency: LatencyHistogram::new(),
        }
    }

    /// Every counter as `(name, value)`, in stable declaration order.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("expansion_memo_hits", self.expansion_memo_hits.get()),
            ("expansion_memo_misses", self.expansion_memo_misses.get()),
            ("cache_hits", self.cache_hits.get()),
            ("cache_misses", self.cache_misses.get()),
            ("cache_stale_evictions", self.cache_stale_evictions.get()),
            ("cache_lru_evictions", self.cache_lru_evictions.get()),
            ("cache_inserts", self.cache_inserts.get()),
            (
                "meter_deadline_exhaustions",
                self.meter_deadline_exhaustions.get(),
            ),
            ("meter_work_exhaustions", self.meter_work_exhaustions.get()),
            ("degraded_results", self.degraded_results.get()),
            ("guarded_queries", self.guarded_queries.get()),
            ("guarded_degraded", self.guarded_degraded.get()),
            ("tier_panics", self.tier_panics.get()),
            ("tier_markov_served", self.tier_markov_served.get()),
            (
                "tier_label_count_served",
                self.tier_label_count_served.get(),
            ),
            (
                "treeparse_buckets_visited",
                self.treeparse_buckets_visited.get(),
            ),
            (
                "uniformity_applications",
                self.uniformity_applications.get(),
            ),
            (
                "conditioning_applications",
                self.conditioning_applications.get(),
            ),
            ("xbuild_rounds", self.xbuild_rounds.get()),
            (
                "xbuild_candidates_scored",
                self.xbuild_candidates_scored.get(),
            ),
            ("queries_estimated", self.queries_estimated.get()),
            ("batch_plan_reuses", self.batch_plan_reuses.get()),
            ("batch_splits", self.batch_splits.get()),
            (
                "runtime_shed_reject_new",
                self.runtime_shed_reject_new.get(),
            ),
            ("runtime_breaker_open", self.runtime_breaker_open.get()),
            ("runtime_breaker_close", self.runtime_breaker_close.get()),
            (
                "runtime_breaker_short_circuits",
                self.runtime_breaker_short_circuits.get(),
            ),
            ("runtime_reloads", self.runtime_reloads.get()),
            (
                "runtime_reload_rollbacks",
                self.runtime_reload_rollbacks.get(),
            ),
            ("ingest_deltas_applied", self.ingest_deltas_applied.get()),
            ("ingest_wal_appends", self.ingest_wal_appends.get()),
            ("ingest_checkpoints", self.ingest_checkpoints.get()),
            ("ingest_recoveries", self.ingest_recoveries.get()),
            (
                "ingest_replayed_records",
                self.ingest_replayed_records.get(),
            ),
            ("ingest_torn_tails", self.ingest_torn_tails.get()),
            ("ingest_full_rebuilds", self.ingest_full_rebuilds.get()),
            ("drift_refinements", self.drift_refinements.get()),
            ("drift_refine_rollbacks", self.drift_refine_rollbacks.get()),
        ]
    }

    /// Every gauge as `(name, value)`, in stable declaration order.
    pub fn gauges(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("drift_total_milli", self.drift_total_milli.get()),
            ("ingest_wal_records", self.ingest_wal_records.get()),
        ]
    }

    /// Every histogram as `(name, histogram)`, in stable order.
    pub fn histograms(&self) -> Vec<(&'static str, &LatencyHistogram)> {
        vec![
            ("parse_latency", &self.parse_latency),
            ("expand_latency", &self.expand_latency),
            ("treeparse_latency", &self.treeparse_latency),
            ("fallback_latency", &self.fallback_latency),
            ("estimate_latency", &self.estimate_latency),
        ]
    }

    /// Renders the registry in the Prometheus text exposition format.
    /// Counters become `xtwig_<name>`; histograms become
    /// `xtwig_<name>_seconds` with cumulative `_bucket{le=...}` lines
    /// (trailing empty buckets elided), `_sum`, and `_count`.
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, value) in self.counters() {
            let _ = writeln!(out, "# TYPE xtwig_{name} counter");
            let _ = writeln!(out, "xtwig_{name} {value}");
        }
        for (name, value) in self.gauges() {
            let _ = writeln!(out, "# TYPE xtwig_{name} gauge");
            let _ = writeln!(out, "xtwig_{name} {value}");
        }
        for (name, h) in self.histograms() {
            let counts = h.bucket_counts();
            let _ = writeln!(out, "# TYPE xtwig_{name}_seconds histogram");
            let top = counts
                .iter()
                .rposition(|&c| c > 0)
                .map_or(0, |i| (i + 1).min(HISTOGRAM_BUCKETS - 1));
            let mut cumulative = 0u64;
            for (i, &c) in counts.iter().enumerate().take(top + 1) {
                cumulative = cumulative.saturating_add(c);
                let le = LatencyHistogram::upper_bound_ns(i) as f64 / 1e9;
                let _ = writeln!(
                    out,
                    "xtwig_{name}_seconds_bucket{{le=\"{le:e}\"}} {cumulative}"
                );
            }
            let _ = writeln!(
                out,
                "xtwig_{name}_seconds_bucket{{le=\"+Inf\"}} {}",
                h.count()
            );
            let _ = writeln!(
                out,
                "xtwig_{name}_seconds_sum {:e}",
                h.sum_ns() as f64 / 1e9
            );
            let _ = writeln!(out, "xtwig_{name}_seconds_count {}", h.count());
        }
        out
    }

    /// Renders the registry as a JSON object:
    /// `{"counters": {...}, "gauges": {...}, "histograms": {name:
    /// {count, sum_ns, buckets}}}` (histogram buckets are
    /// non-cumulative, trailing zeros elided).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\n  \"counters\": {\n");
        let counters = self.counters();
        for (i, (name, value)) in counters.iter().enumerate() {
            let comma = if i + 1 < counters.len() { "," } else { "" };
            let _ = writeln!(out, "    \"{name}\": {value}{comma}");
        }
        out.push_str("  },\n  \"gauges\": {\n");
        let gauges = self.gauges();
        for (i, (name, value)) in gauges.iter().enumerate() {
            let comma = if i + 1 < gauges.len() { "," } else { "" };
            let _ = writeln!(out, "    \"{name}\": {value}{comma}");
        }
        out.push_str("  },\n  \"histograms\": {\n");
        let histograms = self.histograms();
        for (i, (name, h)) in histograms.iter().enumerate() {
            let counts = h.bucket_counts();
            let top = counts.iter().rposition(|&c| c > 0).map_or(0, |i| i + 1);
            let rendered: Vec<String> = counts.iter().take(top).map(|c| c.to_string()).collect();
            let comma = if i + 1 < histograms.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    \"{name}\": {{\"count\": {}, \"sum_ns\": {}, \"buckets\": [{}]}}{comma}",
                h.count(),
                h.sum_ns(),
                rendered.join(", ")
            );
        }
        out.push_str("  }\n}\n");
        out
    }
}

// ---------------------------------------------------------------------
// Structured tracing: feature-gated spans with work attribution.
// ---------------------------------------------------------------------

/// A stage of the estimation pipeline, for spans and explain output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Query-text parsing (CLI surface).
    Parse,
    /// Maximal-twig expansion + embedding enumeration.
    Expand,
    /// TREEPARSE evaluation over the embeddings.
    TreeParse,
    /// Guarded fallback-tier evaluation.
    Fallback,
}

impl Stage {
    /// Stable short name for exports and span records.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Expand => "expand",
            Stage::TreeParse => "treeparse",
            Stage::Fallback => "fallback",
        }
    }
}

/// One finished span: which stage ran, for how long, and how much of
/// the work budget it consumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// The pipeline stage.
    pub stage: Stage,
    /// Wall-clock nanoseconds between enter and exit.
    pub nanos: u64,
    /// Abstract work units attributed to this span.
    pub work: u64,
}

#[cfg(feature = "trace")]
mod span_impl {
    use super::{SpanRecord, Stage};
    use std::cell::RefCell;
    use std::time::Instant;

    thread_local! {
        static SPANS: RefCell<Vec<SpanRecord>> = const { RefCell::new(Vec::new()) };
    }

    /// An in-flight tracing span. Exiting (or dropping) records it into
    /// the thread-local span buffer read by [`take_spans`](super::take_spans).
    #[derive(Debug)]
    pub struct Span {
        stage: Stage,
        start: Instant,
        work: u64,
    }

    impl Span {
        /// Opens a span for `stage`.
        #[inline]
        pub fn enter(stage: Stage) -> Span {
            Span {
                stage,
                start: Instant::now(),
                work: 0,
            }
        }

        /// Attributes `units` of work-budget consumption to this span.
        #[inline]
        pub fn add_work(&mut self, units: u64) {
            self.work = self.work.saturating_add(units);
        }

        /// Closes the span, recording it.
        #[inline]
        pub fn exit(self) {
            drop(self);
        }
    }

    impl Drop for Span {
        fn drop(&mut self) {
            let rec = SpanRecord {
                stage: self.stage,
                nanos: u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX),
                work: self.work,
            };
            SPANS.with(|s| s.borrow_mut().push(rec));
        }
    }

    /// Drains and returns this thread's finished spans.
    pub fn take_spans() -> Vec<SpanRecord> {
        SPANS.with(|s| std::mem::take(&mut *s.borrow_mut()))
    }

    /// Whether tracing is compiled in.
    pub const fn trace_enabled() -> bool {
        true
    }
}

#[cfg(not(feature = "trace"))]
mod span_impl {
    use super::{SpanRecord, Stage};

    /// An in-flight tracing span — the `trace` feature is disabled, so
    /// this is a zero-sized no-op.
    #[derive(Debug)]
    pub struct Span;

    impl Span {
        /// Opens a span for `stage` (no-op without the `trace` feature).
        #[inline(always)]
        pub fn enter(_stage: Stage) -> Span {
            Span
        }

        /// Attributes work to this span (no-op without `trace`).
        #[inline(always)]
        pub fn add_work(&mut self, _units: u64) {}

        /// Closes the span (no-op without `trace`).
        #[inline(always)]
        pub fn exit(self) {}
    }

    /// Drains this thread's finished spans — always empty without the
    /// `trace` feature.
    pub fn take_spans() -> Vec<SpanRecord> {
        Vec::new()
    }

    /// Whether tracing is compiled in.
    pub const fn trace_enabled() -> bool {
        false
    }
}

pub use span_impl::{take_spans, trace_enabled, Span};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_saturates_instead_of_wrapping() {
        let c = Counter::new();
        c.add(u64::MAX - 1);
        c.incr();
        assert_eq!(c.get(), u64::MAX);
        c.add(10); // would wrap; must stay pegged
        assert_eq!(c.get(), u64::MAX);
        c.add(0);
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn histogram_bucketing_is_log2() {
        assert_eq!(LatencyHistogram::bucket_of(0), 0);
        assert_eq!(LatencyHistogram::bucket_of(1), 1);
        assert_eq!(LatencyHistogram::bucket_of(2), 2);
        assert_eq!(LatencyHistogram::bucket_of(3), 2);
        assert_eq!(LatencyHistogram::bucket_of(4), 3);
        assert_eq!(LatencyHistogram::bucket_of(1023), 10);
        assert_eq!(LatencyHistogram::bucket_of(1024), 11);
        assert_eq!(LatencyHistogram::bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
        // Every observation lands in the bucket whose bounds contain it.
        for ns in [0u64, 1, 2, 7, 8, 1000, 123_456_789, u64::MAX / 2] {
            let b = LatencyHistogram::bucket_of(ns);
            assert!(ns <= LatencyHistogram::upper_bound_ns(b), "{ns} -> {b}");
            if b > 0 {
                assert!(ns > LatencyHistogram::upper_bound_ns(b - 1), "{ns} -> {b}");
            }
        }
    }

    #[test]
    fn histogram_records_count_and_sum() {
        let h = LatencyHistogram::new();
        for ns in [0u64, 5, 5, 900, 1_000_000] {
            h.record_ns(ns);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum_ns(), 1_000_910);
        let counts = h.bucket_counts();
        assert_eq!(counts[0], 1); // the zero
        assert_eq!(counts[LatencyHistogram::bucket_of(5)], 2);
        assert_eq!(counts.iter().sum::<u64>(), 5);
        // Sum saturates rather than wrapping.
        h.record_ns(u64::MAX);
        assert_eq!(h.sum_ns(), u64::MAX);
    }

    #[test]
    fn prometheus_export_is_well_formed() {
        let t = Telemetry::new();
        t.cache_hits.add(3);
        t.estimate_latency.record_ns(1500);
        t.estimate_latency.record_ns(40);
        let text = t.to_prometheus();
        assert!(text.contains("# TYPE xtwig_cache_hits counter"));
        assert!(text.contains("xtwig_cache_hits 3"));
        assert!(text.contains("# TYPE xtwig_estimate_latency_seconds histogram"));
        assert!(text.contains("xtwig_estimate_latency_seconds_count 2"));
        assert!(text.contains("le=\"+Inf\"} 2"));
        // Cumulative buckets never decrease.
        let mut last = 0u64;
        for line in text.lines().filter(|l| {
            l.starts_with("xtwig_estimate_latency_seconds_bucket") && !l.contains("+Inf")
        }) {
            let v: u64 = line
                .rsplit(' ')
                .next()
                .and_then(|s| s.parse().ok())
                .unwrap_or(0);
            assert!(v >= last, "{line}");
            last = v;
        }
    }

    #[test]
    fn json_export_contains_all_counters() {
        let t = Telemetry::new();
        t.meter_work_exhaustions.incr();
        let json = t.to_json();
        for (name, _) in t.counters() {
            assert!(json.contains(&format!("\"{name}\"")), "{name} missing");
        }
        assert!(json.contains("\"meter_work_exhaustions\": 1"));
        assert!(json.contains("\"histograms\""));
    }

    #[test]
    fn gauge_moves_both_ways_and_never_underflows() {
        let g = Gauge::new();
        g.inc();
        g.inc();
        assert_eq!(g.get(), 2);
        g.dec();
        assert_eq!(g.get(), 1);
        g.dec();
        g.dec(); // extra dec saturates at zero
        assert_eq!(g.get(), 0);
        g.set(7);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn exports_carry_runtime_counters_and_gauges() {
        let t = Telemetry::new();
        t.runtime_shed_reject_new.incr();
        t.drift_total_milli.set(3);
        let prom = t.to_prometheus();
        assert!(prom.contains("# TYPE xtwig_runtime_shed_reject_new counter"));
        assert!(prom.contains("xtwig_runtime_shed_reject_new 1"));
        assert!(prom.contains("# TYPE xtwig_drift_total_milli gauge"));
        assert!(prom.contains("xtwig_drift_total_milli 3"));
        let json = t.to_json();
        assert!(json.contains("\"gauges\""));
        assert!(json.contains("\"drift_total_milli\": 3"));
        assert!(json.contains("\"runtime_breaker_open\": 0"));
    }

    #[test]
    fn spans_are_free_or_recorded() {
        let mut s = Span::enter(Stage::Expand);
        s.add_work(42);
        s.exit();
        let spans = take_spans();
        if trace_enabled() {
            assert_eq!(spans.len(), 1);
            assert_eq!(spans[0].stage, Stage::Expand);
            assert_eq!(spans[0].work, 42);
        } else {
            assert!(spans.is_empty());
            assert_eq!(std::mem::size_of::<Span>(), 0);
        }
    }
}
