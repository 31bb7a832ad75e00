//! Cooperative time- and work-budget guarding for the estimation path.
//!
//! The paper positions the synopsis as a structure an optimizer consults
//! *inside its time budget* (§1): an estimate that arrives late is worth
//! nothing. TREEPARSE and the expansion/embedding enumeration are
//! worst-case exponential in pathological twigs (deep `//` chains over
//! recursive synopses), so the estimation kernel threads a [`Meter`]
//! through every recursion: each unit of traversal work charges the
//! meter, and once the deadline passes or the work limit is hit the
//! whole pipeline unwinds cooperatively, returning the partial (finite,
//! non-negative) result accumulated so far together with an
//! [`Exhaustion`] marker so callers can degrade to a cheaper estimator
//! instead of spinning.

use crate::estimate::EstimateOptions;
use std::time::Instant;

/// Why a bounded estimation stopped before finishing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exhaustion {
    /// The wall-clock deadline passed mid-evaluation.
    Deadline,
    /// The abstract work limit was spent.
    Work,
}

impl Exhaustion {
    /// Short human-readable cause, for logs and CLI output.
    pub fn describe(self) -> &'static str {
        match self {
            Exhaustion::Deadline => "deadline exceeded",
            Exhaustion::Work => "work limit exhausted",
        }
    }
}

impl std::fmt::Display for Exhaustion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.describe())
    }
}

/// How many work units pass between wall-clock polls: `Instant::now` is
/// a syscall-adjacent operation and must stay off the per-node hot path.
const DEADLINE_STRIDE: u64 = 256;

/// Per-query evaluation statistics gathered alongside the work budget:
/// how many TREEPARSE support terms (histogram buckets) were visited and
/// how often each of the paper's statistical assumptions fired. Purely
/// observational — nothing here feeds back into the numeric path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Histogram-bucket support terms evaluated by TREEPARSE.
    pub buckets_visited: u64,
    /// Forward Uniformity fallbacks (child edge not covered by an
    /// enumerated forward dimension, so `avg_children` is used).
    pub uniformity_applications: u64,
    /// Correlation-Scope Independence conditionings (node evaluated
    /// under at least one matched backward dimension).
    pub conditioning_applications: u64,
}

impl EvalStats {
    /// Field-wise saturating sum. Merging per-worker tallies from a
    /// split evaluation must never wrap a counter; and because every
    /// field is a plain integer sum, the merge is order-insensitive —
    /// workers can be combined in any order and agree with the
    /// single-threaded tally.
    pub fn merged(&self, other: &EvalStats) -> EvalStats {
        EvalStats {
            buckets_visited: self.buckets_visited.saturating_add(other.buckets_visited),
            uniformity_applications: self
                .uniformity_applications
                .saturating_add(other.uniformity_applications),
            conditioning_applications: self
                .conditioning_applications
                .saturating_add(other.conditioning_applications),
        }
    }
}

/// A cooperative budget meter threaded through path expansion, embedding
/// enumeration, and TREEPARSE evaluation.
///
/// Work is counted in abstract units (roughly one synopsis-node visit,
/// chain extension, or histogram-bucket term each). The deadline is
/// polled every `DEADLINE_STRIDE` units. Once exhausted, the meter
/// stays exhausted: every subsequent [`Meter::proceed`] returns `false`,
/// so deeply nested recursions unwind without re-checking the clock.
#[derive(Debug, Clone)]
pub struct Meter {
    work: u64,
    work_limit: u64,
    deadline: Option<Instant>,
    next_poll: u64,
    exhausted: Option<Exhaustion>,
    stats: EvalStats,
}

impl Meter {
    /// A meter with the given deadline and work limit (`0` = unlimited).
    /// An already-expired deadline trips immediately — small queries may
    /// finish in fewer than `DEADLINE_STRIDE` units and would otherwise
    /// never poll the clock.
    pub fn new(deadline: Option<Instant>, work_limit: u64) -> Meter {
        let exhausted = match deadline {
            Some(d) if Instant::now() >= d => Some(Exhaustion::Deadline),
            _ => None,
        };
        Meter {
            work: 0,
            work_limit: if work_limit == 0 {
                u64::MAX
            } else {
                work_limit
            },
            deadline,
            next_poll: DEADLINE_STRIDE,
            exhausted,
            stats: EvalStats::default(),
        }
    }

    /// A meter that never trips — the legacy unbounded behaviour.
    pub fn unlimited() -> Meter {
        Meter::new(None, 0)
    }

    /// The meter described by an [`EstimateOptions`]' guard fields.
    pub fn from_options(opts: &EstimateOptions) -> Meter {
        Meter::new(opts.deadline, opts.work_limit)
    }

    /// Charges `units` of work and reports whether evaluation may
    /// continue. Returns `false` forever once the budget is exhausted.
    #[inline]
    pub fn proceed(&mut self, units: u64) -> bool {
        if self.exhausted.is_some() {
            return false;
        }
        self.work = self.work.saturating_add(units);
        if self.work > self.work_limit {
            self.exhausted = Some(Exhaustion::Work);
            return false;
        }
        if let Some(d) = self.deadline {
            if self.work >= self.next_poll {
                self.next_poll = self.work.saturating_add(DEADLINE_STRIDE);
                if Instant::now() >= d {
                    self.exhausted = Some(Exhaustion::Deadline);
                    return false;
                }
            }
        }
        true
    }

    /// Why the meter tripped, if it did.
    pub fn exhaustion(&self) -> Option<Exhaustion> {
        self.exhausted
    }

    /// The wall-clock deadline this meter enforces, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Total work charged so far.
    pub fn work_done(&self) -> u64 {
        self.work
    }

    /// Work units left before the work limit trips (`None` when the
    /// meter has no work limit).
    pub(crate) fn work_remaining(&self) -> Option<u64> {
        (self.work_limit != u64::MAX).then(|| self.work_limit.saturating_sub(self.work))
    }

    /// Records one TREEPARSE support term visited.
    #[inline]
    pub fn note_bucket(&mut self) {
        self.stats.buckets_visited = self.stats.buckets_visited.saturating_add(1);
    }

    /// Records one Forward Uniformity fallback.
    #[inline]
    pub fn note_uniformity(&mut self) {
        self.stats.uniformity_applications = self.stats.uniformity_applications.saturating_add(1);
    }

    /// Records one Correlation-Scope Independence conditioning.
    #[inline]
    pub fn note_conditioning(&mut self) {
        self.stats.conditioning_applications =
            self.stats.conditioning_applications.saturating_add(1);
    }

    /// The evaluation statistics gathered so far.
    pub fn stats(&self) -> EvalStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn unlimited_meter_never_trips() {
        let mut m = Meter::unlimited();
        for _ in 0..100_000 {
            assert!(m.proceed(10));
        }
        assert_eq!(m.exhaustion(), None);
        assert_eq!(m.work_done(), 1_000_000);
    }

    #[test]
    fn work_limit_trips_and_latches() {
        let mut m = Meter::new(None, 100);
        let mut steps = 0;
        while m.proceed(7) {
            steps += 1;
        }
        assert_eq!(m.exhaustion(), Some(Exhaustion::Work));
        assert!(steps <= 15);
        // Latched: never recovers.
        assert!(!m.proceed(0));
        assert!(!m.proceed(1));
    }

    #[test]
    fn expired_deadline_trips_within_a_stride() {
        let past = Instant::now() - Duration::from_millis(5);
        let mut m = Meter::new(Some(past), 0);
        let mut steps = 0u64;
        while m.proceed(1) {
            steps += 1;
            assert!(steps <= DEADLINE_STRIDE + 1, "deadline never polled");
        }
        assert_eq!(m.exhaustion(), Some(Exhaustion::Deadline));
    }

    #[test]
    fn generous_deadline_does_not_trip() {
        let future = Instant::now() + Duration::from_secs(600);
        let mut m = Meter::new(Some(future), 0);
        for _ in 0..10_000 {
            assert!(m.proceed(1));
        }
        assert_eq!(m.exhaustion(), None);
    }

    #[test]
    fn eval_stats_accumulate_and_saturate() {
        let mut m = Meter::unlimited();
        assert_eq!(m.stats(), EvalStats::default());
        m.note_bucket();
        m.note_bucket();
        m.note_uniformity();
        m.note_conditioning();
        let s = m.stats();
        assert_eq!(s.buckets_visited, 2);
        assert_eq!(s.uniformity_applications, 1);
        assert_eq!(s.conditioning_applications, 1);
        // Saturation: pegged counters stay pegged instead of wrapping.
        m.stats.buckets_visited = u64::MAX;
        m.note_bucket();
        assert_eq!(m.stats().buckets_visited, u64::MAX);
    }

    #[test]
    fn saturating_charge_does_not_wrap() {
        let mut m = Meter::unlimited();
        assert!(m.proceed(u64::MAX - 1));
        // Unlimited limit is u64::MAX; saturation keeps work ≤ limit.
        assert!(m.proceed(u64::MAX));
        assert_eq!(m.work_done(), u64::MAX);
    }

    #[test]
    fn meter_exposes_its_deadline() {
        let d = Instant::now() + Duration::from_secs(1);
        assert_eq!(Meter::new(Some(d), 0).deadline(), Some(d));
        assert_eq!(Meter::unlimited().deadline(), None);
    }
}
