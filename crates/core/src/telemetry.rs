//! Observability substrate: a lock-free metrics registry and
//! log2-bucketed latency histograms.
//!
//! The paper's evaluation (§5) reasons about *why* an estimate is
//! accurate — which embeddings dominate, where the assumptions fire —
//! and a production serving layer needs the same visibility at the
//! aggregate level: cache behaviour, budget exhaustions, fallback-tier
//! degradations, per-stage latency. Per request, those facts travel in
//! each report's [`QueryTelemetry`](crate::estimate::QueryTelemetry)
//! and provenance; this module holds the process-wide aggregates:
//!
//! * [`Counter`] — a saturating atomic counter (never wraps, so a
//!   dashboard can trust monotonicity even after years of uptime).
//! * [`Gauge`] — a level that is set, not accumulated.
//! * [`LatencyHistogram`] — fixed log2 buckets over nanoseconds; an
//!   observation is two relaxed atomic adds, no locks, no allocation.
//! * [`Telemetry`] — the registry, declared once by the `metrics!`
//!   table below: each row gives a metric's doc, type and name, and
//!   generates its field, its constructor entry and its export row.
//!   Exported as Prometheus text ([`Telemetry::to_prometheus`]). The
//!   process-wide instance is [`global`].
//!
//! Everything here is observational: no metric feeds back into the
//! numeric estimation path, so no estimate depends on what the
//! registry holds.

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

/// A lock-free gauge: a level the producer sets (a drift total, a WAL
/// record count), read back as the last value set.
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

/// One registry metric, as the exports read it. The variants are named
/// after the metric types, so a `metrics!` row's type names its variant.
#[derive(Clone, Copy)]
enum Metric<'a> {
    Counter(&'a Counter),
    Gauge(&'a Gauge),
    LatencyHistogram(&'a LatencyHistogram),
}

/// Declares the registry from one table. Each row is a metric's doc
/// comment, its type (`Counter`, `Gauge` or `LatencyHistogram`) and its
/// name; the macro generates the [`Telemetry`] field, its entry in the
/// const constructor, and its row in the name→metric listing the
/// exports read. `xtask lint`'s `metric-producer` rule reads the rows.
macro_rules! metrics {
    ($($(#[$doc:meta])* $kind:ident $name:ident,)*) => {
        /// The metrics registry: every counter, gauge and histogram the
        /// estimation, serving, construction and ingest paths report
        /// into. One instance is the process-wide [`global`]; tests
        /// construct their own for isolated assertions.
        #[derive(Debug, Default)]
        pub struct Telemetry {
            $($(#[$doc])* pub $name: $kind,)*
        }

        impl Telemetry {
            /// An empty registry (const, so the global can be a static).
            pub const fn new() -> Telemetry {
                Telemetry {
                    $($name: $kind::new(),)*
                }
            }

            /// Every metric with its export name, in table order.
            fn listing(&self) -> Vec<(&'static str, Metric<'_>)> {
                vec![$((stringify!($name), Metric::$kind(&self.$name)),)*]
            }
        }
    };
}

metrics! {
    /// Expansion-memo lookups answered from the memo.
    Counter expansion_memo_hits,
    /// Expansion-memo lookups that had to enumerate the embeddings.
    Counter expansion_memo_misses,
    /// Estimate-cache lookups answered at the current epoch.
    Counter cache_hits,
    /// Estimate-cache lookups that had to compute.
    Counter cache_misses,
    /// Estimate-cache entries evicted because their epoch was stale.
    Counter cache_stale_evictions,
    /// Estimate-cache entries evicted to make room (LRU victims).
    Counter cache_lru_evictions,
    /// Estimate-cache inserts of full-fidelity results.
    Counter cache_inserts,
    /// Meters tripped by a wall-clock deadline.
    Counter meter_deadline_exhaustions,
    /// Meters tripped by the abstract work limit.
    Counter meter_work_exhaustions,
    /// Estimates served with anything less than full fidelity (tripped
    /// budget or clamped contribution).
    Counter degraded_results,
    /// Queries the guarded chain served in total.
    Counter guarded_queries,
    /// Queries the guarded chain served below full fidelity.
    Counter guarded_degraded,
    /// Panics contained by the guarded chain's `catch_unwind`.
    Counter tier_panics,
    /// Queries answered by the Markov fallback tier.
    Counter tier_markov_served,
    /// Queries answered by the label-count fallback tier.
    Counter tier_label_count_served,
    /// TREEPARSE support terms (histogram-bucket visits) evaluated.
    Counter treeparse_buckets_visited,
    /// Forward Uniformity fallbacks applied (per child edge not covered
    /// by an enumerated forward dimension).
    Counter uniformity_applications,
    /// Correlation-Scope Independence conditionings applied (per node
    /// evaluation with at least one matched backward dimension).
    Counter conditioning_applications,
    /// XBUILD refinement rounds executed.
    Counter xbuild_rounds,
    /// XBUILD refinement candidates scored.
    Counter xbuild_candidates_scored,
    /// Queries estimated (single or batched).
    Counter queries_estimated,
    /// Batch members served from a groupmate's evaluation (same twig
    /// fingerprint in one batch: one lowered plan, one evaluation).
    Counter batch_plan_reuses,
    /// Heavy unguarded queries whose embeddings were split across the
    /// batch's workers instead of evaluated by one.
    Counter batch_splits,
    /// Requests a catalog shed at its per-tenant admission quota.
    Counter catalog_quota_sheds,
    /// Circuit-breaker transitions into the open state.
    Counter breaker_opened,
    /// Circuit-breaker transitions back to closed (successful probe).
    Counter breaker_reclosed,
    /// Attempts a breaker refused while open (a tenant shed at the
    /// catalog, or a fallback tier skipped).
    Counter breaker_short_circuits,
    /// Hot reloads that verified their snapshot bytes and published
    /// them into a catalog key.
    Counter catalog_reloads,
    /// Hot reloads whose bytes failed verification; nothing was
    /// published and the key kept serving its previous snapshot.
    Counter catalog_reload_rollbacks,
    /// Deltas applied through incremental synopsis maintenance.
    Counter ingest_deltas_applied,
    /// Delta records appended to the write-ahead log (fsynced).
    Counter ingest_wal_appends,
    /// Checkpoints taken (document + synopsis re-derived and the WAL
    /// rotated under a new generation).
    Counter ingest_checkpoints,
    /// Store recoveries (open of an existing store).
    Counter ingest_recoveries,
    /// WAL delta records replayed during recovery.
    Counter ingest_replayed_records,
    /// Torn WAL tails detected (and truncated) during recovery.
    Counter ingest_torn_tails,
    /// Delta applications that fell back to a full partition rebuild
    /// (a group emptied out).
    Counter ingest_full_rebuilds,
    /// Drift-triggered budgeted re-refinements that installed.
    Counter drift_refinements,
    /// Drift-triggered re-refinements rejected (invalid or over budget)
    /// and rolled back while the maintained synopsis kept serving.
    Counter drift_refine_rollbacks,
    /// Accumulated edge drift since the last refinement, in
    /// milli-units (gauge; `drift × 1000` truncated).
    Gauge drift_total_milli,
    /// Delta records in the current WAL generation (gauge).
    Gauge ingest_wal_records,
    /// Wall-clock of query parsing (CLI surface).
    LatencyHistogram parse_latency,
    /// Wall-clock of maximal-twig expansion + embedding enumeration.
    LatencyHistogram expand_latency,
    /// Wall-clock of TREEPARSE evaluation over the embeddings.
    LatencyHistogram treeparse_latency,
    /// Wall-clock of guarded fallback-tier evaluation.
    LatencyHistogram fallback_latency,
    /// End-to-end wall-clock of one estimate.
    LatencyHistogram estimate_latency,
}

/// The process-wide registry.
static GLOBAL: Telemetry = Telemetry::new();

/// The process-wide metrics registry every hot path reports into.
pub fn global() -> &'static Telemetry {
    &GLOBAL
}

impl Telemetry {
    /// Every counter as `(name, value)`, in table order.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        self.listing()
            .into_iter()
            .filter_map(|(name, m)| match m {
                Metric::Counter(c) => Some((name, c.get())),
                _ => None,
            })
            .collect()
    }

    /// Every gauge as `(name, value)`, in table order.
    pub fn gauges(&self) -> Vec<(&'static str, u64)> {
        self.listing()
            .into_iter()
            .filter_map(|(name, m)| match m {
                Metric::Gauge(g) => Some((name, g.get())),
                _ => None,
            })
            .collect()
    }

    /// Every histogram as `(name, histogram)`, in table order.
    pub fn histograms(&self) -> Vec<(&'static str, &LatencyHistogram)> {
        self.listing()
            .into_iter()
            .filter_map(|(name, m)| match m {
                Metric::LatencyHistogram(h) => Some((name, h)),
                _ => None,
            })
            .collect()
    }

    /// Renders the registry in the Prometheus text exposition format.
    /// Counters and gauges become `xtwig_<name>`; histograms become
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
}

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
    fn prometheus_export_contains_every_metric() {
        let t = Telemetry::new();
        t.meter_work_exhaustions.incr();
        let prom = t.to_prometheus();
        for (name, _) in t.counters() {
            assert!(
                prom.contains(&format!("# TYPE xtwig_{name} counter\n")),
                "{name}"
            );
        }
        for (name, _) in t.gauges() {
            assert!(
                prom.contains(&format!("# TYPE xtwig_{name} gauge\n")),
                "{name}"
            );
        }
        for (name, _) in t.histograms() {
            let line = format!("# TYPE xtwig_{name}_seconds histogram\n");
            assert!(prom.contains(&line), "{name}");
        }
        assert!(prom.contains("\nxtwig_meter_work_exhaustions 1\n"));
    }

    #[test]
    fn exports_carry_runtime_counters_and_gauges() {
        let t = Telemetry::new();
        t.catalog_quota_sheds.incr();
        t.drift_total_milli.set(3);
        let prom = t.to_prometheus();
        assert!(prom.contains("# TYPE xtwig_catalog_quota_sheds counter"));
        assert!(prom.contains("xtwig_catalog_quota_sheds 1"));
        assert!(prom.contains("# TYPE xtwig_drift_total_milli gauge"));
        assert!(prom.contains("xtwig_drift_total_milli 3"));
        assert!(prom.contains("xtwig_breaker_opened 0"));
    }
}
