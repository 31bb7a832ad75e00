//! Exhaustive model-checked interleavings of the serving runtime's
//! shared-state protocols, run under `RUSTFLAGS="--cfg loom"`:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p xtwig-core --test loom --release
//! ```
//!
//! Each test explores *every* schedule of its threads up to the
//! preemption bound (`LOOM_MAX_PREEMPTIONS`, default 2), so an
//! assertion here is a proof over the sequentially consistent
//! interleaving space, not a sample like `tests/soak.rs`. The four
//! protocols are the ones DESIGN.md §11 calls out as scary:
//!
//! 1. admission queue — offer/shed/drain racing close;
//! 2. circuit breaker — trip → half-open probe → re-close/re-open
//!    under racing callers and racing failures;
//! 3. hot reload — epoch publication vs. concurrent cache reads
//!    (no stale-epoch hit may ever be served);
//! 4. telemetry counters — saturation at the boundaries.
#![cfg(loom)]

use std::time::Duration;

use loom::thread;
use xtwig_core::estimate::Provenance;
use xtwig_core::serve::runtime::{
    Admission, AdmissionQueue, BreakerConfig, BreakerState, CircuitBreaker, ShedPolicy,
};
use xtwig_core::serve::EstimateCache;
use xtwig_core::sync::atomic::{AtomicU64, Ordering};
use xtwig_core::sync::{Arc, PoisonError, RwLock};
use xtwig_core::telemetry::{Counter, Gauge};

// ---------------------------------------------------------------------
// 1. Admission queue: enqueue/shed/drain vs. shutdown
// ---------------------------------------------------------------------

/// Every accepted item is drained exactly once, shed + admitted
/// accounts for every offer, and a closed-and-drained queue pops `None`
/// — across every interleaving of one producer (who closes), one
/// consumer, and the root.
#[test]
fn queue_accounting_holds_under_racing_producer_consumer_and_close() {
    loom::model(|| {
        let q = Arc::new(AdmissionQueue::new(1, ShedPolicy::RejectNew));
        let producer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let outcomes = [q.offer(1u8), q.offer(2u8)];
                q.close();
                outcomes
                    .iter()
                    .filter(|a| matches!(a, Admission::Accepted))
                    .count()
            })
        };
        let consumer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let mut drained = 0usize;
                while q.pop().is_some() {
                    drained += 1;
                }
                drained
            })
        };
        let accepted = producer.join().unwrap();
        let drained = consumer.join().unwrap();
        assert_eq!(
            drained, accepted,
            "accepted items must be drained exactly once"
        );
        assert!(q.pop().is_none(), "closed+drained queue must pop None");
        let (admitted, shed, _) = q.stats();
        assert_eq!(admitted + shed, 2, "every offer is admitted or shed");
        assert_eq!(admitted as usize, accepted);
    });
}

/// Drop-oldest sheds the *oldest* queued item, never the newest: with
/// capacity 1 and no consumer, the queue must end holding the last
/// offer, whatever the interleaving of two racing producers.
#[test]
fn queue_drop_oldest_keeps_newest_under_race() {
    loom::model(|| {
        let q = Arc::new(AdmissionQueue::new(1, ShedPolicy::DropOldest));
        let t1 = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.offer(1u8))
        };
        let t2 = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.offer(2u8))
        };
        let a1 = t1.join().unwrap();
        let a2 = t2.join().unwrap();
        q.close();
        let survivor = q.pop().expect("one item must survive");
        assert!(q.pop().is_none());
        // The item shed (if any) is the one that was offered first; the
        // survivor is the other one, and the shed item was handed back.
        match (a1, a2) {
            (Admission::Accepted, Admission::Accepted) => {
                panic!("capacity-1 queue accepted both offers without shedding")
            }
            (Admission::AcceptedDroppedOldest(dropped), Admission::Accepted) => {
                assert_eq!(dropped, 2, "t1 displaced t2's item");
                assert_eq!(survivor, 1);
            }
            (Admission::Accepted, Admission::AcceptedDroppedOldest(dropped)) => {
                assert_eq!(dropped, 1, "t2 displaced t1's item");
                assert_eq!(survivor, 2);
            }
            other => panic!("reject outcomes impossible under DropOldest: {other:?}"),
        }
    });
}

// ---------------------------------------------------------------------
// 2. Circuit breaker: trip → half-open probe → re-close / re-open
// ---------------------------------------------------------------------

/// With the breaker open and the cooldown elapsed, exactly one of two
/// racing `try_acquire` callers wins the half-open probe; the winner's
/// success re-closes the breaker for everyone.
#[test]
fn breaker_grants_exactly_one_half_open_probe() {
    loom::model(|| {
        let b = Arc::new(CircuitBreaker::new(BreakerConfig {
            failure_threshold: 1,
            cooldown: Duration::ZERO,
        }));
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
        let t1 = {
            let b = Arc::clone(&b);
            thread::spawn(move || b.try_acquire())
        };
        let t2 = {
            let b = Arc::clone(&b);
            thread::spawn(move || b.try_acquire())
        };
        let g1 = t1.join().unwrap();
        let g2 = t2.join().unwrap();
        assert!(
            g1 ^ g2,
            "exactly one racing caller may win the probe (got {g1}, {g2})"
        );
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.try_acquire(), "a re-closed breaker admits everyone");
    });
}

/// A failed half-open probe re-opens the breaker even when a second
/// failure races it; the breaker then still recovers through the next
/// successful probe (no stuck state, no double-close).
#[test]
fn breaker_reopens_after_failed_probe_under_racing_failures() {
    loom::model(|| {
        let b = Arc::new(CircuitBreaker::new(BreakerConfig {
            failure_threshold: 1,
            cooldown: Duration::ZERO,
        }));
        b.record_failure();
        assert!(b.try_acquire(), "cooldown ZERO: the probe must be granted");
        let f1 = {
            let b = Arc::clone(&b);
            thread::spawn(move || b.record_failure())
        };
        let f2 = {
            let b = Arc::clone(&b);
            thread::spawn(move || b.record_failure())
        };
        f1.join().unwrap();
        f2.join().unwrap();
        assert_eq!(b.state(), BreakerState::Open, "failed probe must re-open");
        assert!(b.try_acquire(), "next probe after re-open");
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        let (opens, closes, _) = b.transitions();
        assert_eq!(opens, 2, "initial trip + failed probe");
        assert_eq!(closes, 1, "exactly one re-close");
    });
}

// ---------------------------------------------------------------------
// 3. Hot reload: epoch publication vs. concurrent cache reads
// ---------------------------------------------------------------------

/// The reload publication order used by `ServingRuntime` (install the
/// generation under the write lock, store the epoch with `Release`
/// before releasing it): a reader that observes the new epoch via
/// `Acquire` and *then* read-locks the slot can never see the old
/// generation.
#[test]
fn epoch_observation_implies_new_generation_visible() {
    loom::model(|| {
        let slot = Arc::new(RwLock::new(Arc::new(1u64)));
        let epoch = Arc::new(AtomicU64::new(1));
        let writer = {
            let slot = Arc::clone(&slot);
            let epoch = Arc::clone(&epoch);
            thread::spawn(move || {
                let mut g = slot.write().unwrap_or_else(PoisonError::into_inner);
                *g = Arc::new(2);
                epoch.store(2, Ordering::Release);
                drop(g);
            })
        };
        let reader = {
            let slot = Arc::clone(&slot);
            let epoch = Arc::clone(&epoch);
            thread::spawn(move || {
                let seen = epoch.load(Ordering::Acquire);
                let generation = **slot.read().unwrap_or_else(PoisonError::into_inner);
                (seen, generation)
            })
        };
        writer.join().unwrap();
        let (seen, generation) = reader.join().unwrap();
        assert!(
            generation >= seen,
            "observed epoch {seen} but read generation {generation}: \
             the publication order was violated"
        );
    });
}

/// No stale-epoch cache hit is ever served: whatever epoch the reader
/// observed, a hit must carry the value inserted at that same epoch,
/// across every interleaving with a racing reload (epoch bump +
/// re-insert).
#[test]
fn cache_never_serves_stale_epoch_hit_across_reload() {
    loom::model(|| {
        let cache = Arc::new(EstimateCache::with_shards(4, 1));
        let epoch = Arc::new(AtomicU64::new(1));
        cache.insert("q", 1, 1.0, Provenance::new("loom"));
        let reloader = {
            let cache = Arc::clone(&cache);
            let epoch = Arc::clone(&epoch);
            thread::spawn(move || {
                epoch.store(2, Ordering::Release);
                cache.insert("q", 2, 2.0, Provenance::new("loom"));
            })
        };
        let reader = {
            let cache = Arc::clone(&cache);
            let epoch = Arc::clone(&epoch);
            thread::spawn(move || {
                let seen = epoch.load(Ordering::Acquire);
                (seen, cache.get("q", seen))
            })
        };
        reloader.join().unwrap();
        let (seen, hit) = reader.join().unwrap();
        if let Some((est, _)) = hit {
            let want = if seen == 1 { 1.0 } else { 2.0 };
            assert_eq!(
                est, want,
                "hit at observed epoch {seen} served another epoch's value"
            );
        }
        // After the reload settles, the old entry is unreachable: a get
        // at the new epoch either hits the new value or misses — and a
        // subsequent stale probe must evict rather than serve.
        match cache.get("q", 2) {
            Some((est, _)) => assert_eq!(est, 2.0),
            None => assert!(cache.get("q", 1).is_none() || cache.stats().stale_evictions > 0),
        }
    });
}

// ---------------------------------------------------------------------
// 4. Telemetry counters: saturation at the boundaries
// ---------------------------------------------------------------------

/// Racing adds near `u64::MAX` saturate instead of wrapping, and no
/// update is lost below the ceiling.
#[test]
fn counter_saturates_and_loses_no_update() {
    loom::model(|| {
        let c = Arc::new(Counter::new());
        c.add(u64::MAX - 1);
        let t1 = {
            let c = Arc::clone(&c);
            thread::spawn(move || c.add(1))
        };
        let t2 = {
            let c = Arc::clone(&c);
            thread::spawn(move || c.add(1))
        };
        t1.join().unwrap();
        t2.join().unwrap();
        assert_eq!(c.get(), u64::MAX, "saturation must hold under races");
    });
}

/// Racing decrements at 1 saturate at zero — a teardown race can never
/// underflow the gauge into a huge bogus reading.
#[test]
fn gauge_dec_saturates_at_zero_under_race() {
    loom::model(|| {
        let g = Arc::new(Gauge::new());
        g.inc();
        let t1 = {
            let g = Arc::clone(&g);
            thread::spawn(move || g.dec())
        };
        let t2 = {
            let g = Arc::clone(&g);
            thread::spawn(move || g.dec())
        };
        t1.join().unwrap();
        t2.join().unwrap();
        assert_eq!(g.get(), 0, "double-dec at 1 must floor at zero");
    });
}
