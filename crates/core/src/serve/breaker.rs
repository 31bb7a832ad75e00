//! Estimator-agnostic resilient-serving primitives: a three-state
//! circuit breaker and deterministic jittered exponential backoff.
//!
//! The paper frames the synopsis as the estimator an optimizer consults
//! on *every* query, which makes the serving layer itself part of the
//! contract: a persistently failing tenant or tier must stop burning
//! per-request deadline budget (circuit breaking), and transient I/O
//! failures deserve a cheap second chance (retry with backoff). These
//! primitives carry no estimator types: the catalog gates each tenant
//! with a breaker and retries transient fault-in errors under the
//! backoff, and `xtwig-workload`'s guarded chain gates each fallback
//! tier of a resident key with its own breaker.
//!
//! Everything here is deterministic given its inputs: the breaker is a
//! pure state machine over explicit success/failure events (time enters
//! only through the half-open cooldown), and the backoff jitter is
//! seeded (SplitMix64) rather than drawn from a global RNG.

use std::time::{Duration, Instant};

use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::{Mutex, PoisonError};
use crate::telemetry;

// ---------------------------------------------------------------------
// Circuit breaker
// ---------------------------------------------------------------------

/// The classic three-state breaker:
///
/// ```text
///            N consecutive failures
///   Closed ───────────────────────────▶ Open
///     ▲                                  │ cooldown elapsed
///     │ probe succeeds                   ▼
///     └────────────────────────────── HalfOpen ──▶ Open (probe fails)
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: every acquisition is granted.
    Closed,
    /// Tripped: acquisitions are refused until the cooldown elapses.
    Open,
    /// Cooling down: exactly one probe request is in flight; its result
    /// decides between re-closing and re-opening.
    HalfOpen,
}

/// Breaker tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the breaker open.
    pub failure_threshold: u32,
    /// How long the breaker stays open before admitting a half-open
    /// probe.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 5,
            cooldown: Duration::from_millis(100),
        }
    }
}

#[derive(Debug)]
struct BreakerInner {
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: Option<Instant>,
    probe_in_flight: bool,
}

/// A per-tier circuit breaker. `try_acquire` gates each attempt;
/// `record_success` / `record_failure` feed the state machine. All
/// transitions are counted so tests (and the soak harness) can assert
/// the breaker opened *and* re-closed during a run.
#[derive(Debug)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    inner: Mutex<BreakerInner>,
    opens: AtomicU64,
    closes: AtomicU64,
    short_circuits: AtomicU64,
}

impl CircuitBreaker {
    /// A closed breaker with the given tuning. A zero failure threshold
    /// is clamped to one (a breaker that can never close again would
    /// permanently disable its tier).
    pub fn new(config: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker {
            config: BreakerConfig {
                failure_threshold: config.failure_threshold.max(1),
                cooldown: config.cooldown,
            },
            inner: Mutex::new(BreakerInner {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                opened_at: None,
                probe_in_flight: false,
            }),
            opens: AtomicU64::new(0),
            closes: AtomicU64::new(0),
            short_circuits: AtomicU64::new(0),
        }
    }

    /// Whether an attempt may proceed. `false` means short-circuit:
    /// skip the tier without burning deadline budget. In the half-open
    /// state exactly one caller at a time is granted the probe.
    pub fn try_acquire(&self) -> bool {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        match inner.state {
            BreakerState::Closed => true,
            BreakerState::Open => {
                let elapsed = inner
                    .opened_at
                    .map(|t| t.elapsed() >= self.config.cooldown)
                    .unwrap_or(true);
                if elapsed {
                    inner.state = BreakerState::HalfOpen;
                    inner.probe_in_flight = true;
                    true
                } else {
                    // lint:allow(atomic-ordering): monotonic stats counter; nothing is ordered against it
                    self.short_circuits.fetch_add(1, Ordering::Relaxed);
                    telemetry::global().breaker_short_circuits.incr();
                    false
                }
            }
            BreakerState::HalfOpen => {
                if inner.probe_in_flight {
                    // lint:allow(atomic-ordering): monotonic stats counter; nothing is ordered against it
                    self.short_circuits.fetch_add(1, Ordering::Relaxed);
                    telemetry::global().breaker_short_circuits.incr();
                    false
                } else {
                    inner.probe_in_flight = true;
                    true
                }
            }
        }
    }

    /// Records a successful attempt: resets the failure streak; a
    /// successful half-open probe re-closes the breaker.
    pub fn record_success(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.consecutive_failures = 0;
        if inner.state == BreakerState::HalfOpen {
            inner.state = BreakerState::Closed;
            inner.probe_in_flight = false;
            inner.opened_at = None;
            // lint:allow(atomic-ordering): monotonic stats counter; nothing is ordered against it
            self.closes.fetch_add(1, Ordering::Relaxed);
            telemetry::global().breaker_reclosed.incr();
        }
    }

    /// Records a failed attempt: extends the failure streak; at the
    /// threshold the breaker opens; a failed half-open probe re-opens
    /// immediately (restarting the cooldown).
    pub fn record_failure(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        match inner.state {
            BreakerState::Closed => {
                inner.consecutive_failures = inner.consecutive_failures.saturating_add(1);
                if inner.consecutive_failures >= self.config.failure_threshold {
                    inner.state = BreakerState::Open;
                    inner.opened_at = Some(Instant::now());
                    // lint:allow(atomic-ordering): monotonic stats counter; nothing is ordered against it
                    self.opens.fetch_add(1, Ordering::Relaxed);
                    telemetry::global().breaker_opened.incr();
                }
            }
            BreakerState::HalfOpen => {
                inner.state = BreakerState::Open;
                inner.opened_at = Some(Instant::now());
                inner.probe_in_flight = false;
                // lint:allow(atomic-ordering): monotonic stats counter; nothing is ordered against it
                self.opens.fetch_add(1, Ordering::Relaxed);
                telemetry::global().breaker_opened.incr();
            }
            BreakerState::Open => {}
        }
    }

    /// The current state (point-in-time; may change immediately after).
    pub fn state(&self) -> BreakerState {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .state
    }

    /// `(opens, closes, short_circuits)` transition counters.
    pub fn transitions(&self) -> (u64, u64, u64) {
        (
            // lint:allow(atomic-ordering): point-in-time stats snapshot; torn reads across counters are acceptable
            self.opens.load(Ordering::Relaxed),
            // lint:allow(atomic-ordering): point-in-time stats snapshot; torn reads across counters are acceptable
            self.closes.load(Ordering::Relaxed),
            // lint:allow(atomic-ordering): point-in-time stats snapshot; torn reads across counters are acceptable
            self.short_circuits.load(Ordering::Relaxed),
        )
    }
}

// ---------------------------------------------------------------------
// Backoff
// ---------------------------------------------------------------------

/// Deterministic jittered exponential backoff: attempt `k` sleeps
/// between half and all of `min(cap, base << k)`, with the jitter drawn
/// from SplitMix64 over `(seed, request_id, attempt)` — reproducible
/// under a fixed seed, decorrelated across requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// First-retry delay.
    pub base: Duration,
    /// Upper bound any single delay is clamped to.
    pub cap: Duration,
    /// Jitter seed.
    pub seed: u64,
}

impl Default for BackoffPolicy {
    fn default() -> BackoffPolicy {
        BackoffPolicy {
            base: Duration::from_micros(200),
            cap: Duration::from_millis(20),
            seed: 0x5eed_ba5e,
        }
    }
}

/// SplitMix64: a tiny, high-quality mixing function — enough for
/// backoff jitter without dragging in an RNG dependency.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl BackoffPolicy {
    /// The delay before retry `attempt` (1-based) of `request_id`.
    /// Attempt 0 (the first try) has no delay.
    pub fn delay(&self, request_id: u64, attempt: u32) -> Duration {
        if attempt == 0 {
            return Duration::ZERO;
        }
        let exp = attempt.saturating_sub(1).min(20);
        let ceiling_ns = u64::try_from(self.base.as_nanos())
            .unwrap_or(u64::MAX)
            .saturating_shl(exp)
            .min(u64::try_from(self.cap.as_nanos()).unwrap_or(u64::MAX));
        let half = ceiling_ns / 2;
        let mix = splitmix64(
            self.seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(request_id)
                .rotate_left(attempt),
        );
        // Uniform in [half, ceiling]: full jitter on the upper half.
        let jitter = if half == 0 { 0 } else { mix % (half + 1) };
        Duration::from_nanos(half.saturating_add(jitter))
    }
}

/// `u64::checked_shl` that saturates instead of masking the shift.
trait SaturatingShl {
    fn saturating_shl(self, rhs: u32) -> u64;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, rhs: u32) -> u64 {
        self.checked_shl(rhs).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn half_open_probe_is_exclusive_under_racing_acquires() {
        // Schedule-independent invariant: once the cooldown elapses,
        // racing callers get exactly one probe grant — no matter how
        // the threads interleave — and everyone else short-circuits.
        let b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 1,
            cooldown: Duration::ZERO,
        });
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
        let grants: usize = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| scope.spawn(|| usize::from(b.try_acquire())))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("acquirer panicked"))
                .sum()
        });
        assert_eq!(grants, 1, "exactly one half-open probe may run");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // A failed probe restarts the cycle: again exactly one grant.
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
        let regrants: usize = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| scope.spawn(|| usize::from(b.try_acquire())))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("acquirer panicked"))
                .sum()
        });
        assert_eq!(regrants, 1);
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        let (opens, closes, short_circuits) = b.transitions();
        assert_eq!((opens, closes), (2, 1));
        assert_eq!(short_circuits, 14, "7 losers per racing round");
    }

    #[test]
    fn breaker_opens_after_threshold_and_probes_closed() {
        let b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::ZERO,
        });
        assert_eq!(b.state(), BreakerState::Closed);
        for _ in 0..2 {
            assert!(b.try_acquire());
            b.record_failure();
        }
        assert_eq!(b.state(), BreakerState::Closed, "below threshold");
        assert!(b.try_acquire());
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
        // Zero cooldown: next acquisition is the half-open probe.
        assert!(b.try_acquire());
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // Second caller is refused while the probe is in flight.
        assert!(!b.try_acquire());
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        let (opens, closes, shorts) = b.transitions();
        assert_eq!((opens, closes), (1, 1));
        assert_eq!(shorts, 1);
    }

    #[test]
    fn open_breaker_short_circuits_during_cooldown() {
        let b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 1,
            cooldown: Duration::from_secs(3600),
        });
        assert!(b.try_acquire());
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
        for _ in 0..5 {
            assert!(!b.try_acquire(), "must stay short-circuited");
        }
        assert_eq!(b.transitions().2, 5);
    }

    #[test]
    fn failed_probe_reopens() {
        let b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 1,
            cooldown: Duration::ZERO,
        });
        assert!(b.try_acquire());
        b.record_failure(); // open
        assert!(b.try_acquire()); // probe
        b.record_failure(); // probe fails: re-open
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.transitions().0, 2);
        // And the cycle can still complete later.
        assert!(b.try_acquire());
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 2,
            cooldown: Duration::ZERO,
        });
        b.record_failure();
        b.record_success();
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Closed, "streak was broken");
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_grows() {
        let p = BackoffPolicy {
            base: Duration::from_millis(1),
            cap: Duration::from_millis(16),
            seed: 42,
        };
        assert_eq!(p.delay(7, 0), Duration::ZERO);
        for id in 0..10u64 {
            let mut prev_ceiling = Duration::ZERO;
            for attempt in 1..8u32 {
                let d = p.delay(id, attempt);
                let ceiling = Duration::from_millis((1u64 << (attempt - 1)).min(16));
                assert!(d <= ceiling, "attempt {attempt}: {d:?} > {ceiling:?}");
                assert!(d >= ceiling / 2, "attempt {attempt}: {d:?} < half ceiling");
                assert!(ceiling >= prev_ceiling);
                prev_ceiling = ceiling;
                // Deterministic: same inputs, same delay.
                assert_eq!(d, p.delay(id, attempt));
            }
        }
        // Different requests jitter differently (with overwhelming
        // probability for this seed — fixed inputs, so not flaky).
        assert_ne!(p.delay(1, 3), p.delay(2, 3));
    }

    #[test]
    fn backoff_huge_attempt_saturates_at_cap() {
        let p = BackoffPolicy::default();
        let d = p.delay(0, u32::MAX);
        assert!(d <= p.cap);
    }
}
