//! Synchronization façade for the serving path.
//!
//! Every concurrent module in the serving path (`serve`,
//! `serve::breaker`, `serve::catalog`, `telemetry`, and the workload
//! crate's `guarded` chain) imports its sync primitives from here
//! instead of `std::sync` — enforced by the `sync-direct` rule in
//! `xtask lint`, so model-checker coverage cannot silently rot as code
//! is added.
//!
//! Under a normal build this module is a zero-cost re-export of
//! `std::sync`. Under `RUSTFLAGS="--cfg loom"` it re-exports the
//! vendored [loom](../../../vendor/loom/src/lib.rs) model checker's
//! primitives instead, whose operations become schedule points inside
//! `loom::model` runs (`crates/core/tests/loom.rs`) and degrade to
//! `std` behaviour outside them — ordinary unit tests still pass under
//! `--cfg loom`.
//!
//! Deliberately *not* modeled: `std::thread::scope` (structured fan-out
//! in `BatchServer::serve`), which the checker cannot model — the loom
//! suite drives the shared-state protocols (breaker, catalog slot,
//! cache/epoch, counters) directly instead — and [`OnceLock`], which
//! is `std`'s in both builds: it only memoizes a value derived
//! deterministically from immutable data (the guarded chain's Markov
//! model), so every racing initializer computes the same value.

pub use std::sync::OnceLock;

#[cfg(not(loom))]
pub use std::sync::{Arc, LockResult, Mutex, MutexGuard, PoisonError, TryLockError, TryLockResult};

#[cfg(loom)]
pub use loom::sync::{
    Arc, LockResult, Mutex, MutexGuard, PoisonError, TryLockError, TryLockResult,
};

/// Atomic types and memory orderings (model-checked under `cfg(loom)`).
pub mod atomic {
    #[cfg(not(loom))]
    pub use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};

    #[cfg(loom)]
    pub use loom::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};
}
