//! The multi-tenant snapshot catalog: the serving tier's one front
//! door.
//!
//! A [`SnapshotCatalog`] maps `(tenant, document)` keys to snapshot
//! files under a root directory (`<root>/<tenant>/<document>.xtwg`,
//! format v3) and serves estimates from them with:
//!
//! * **Verified fault-in** — a cold document's file is stat'ed once
//!   (no file is [`CatalogError::UnknownDocument`]) and read, every
//!   section CRC is checked, and the carve decodes it into owned
//!   columns (see [`crate::io::v3`]). Transient I/O errors, a failed
//!   stat included, are retried under [`CatalogOptions::load_retries`];
//!   corruption is rebuilt through the [`RebuildHook`] or quarantined,
//!   never served.
//! * **Per-tenant admission quotas** — at most
//!   [`CatalogOptions::tenant_quota`] requests of one tenant in
//!   flight; excess is shed with [`CatalogError::QuotaExceeded`]
//!   before it can queue behind another tenant's work. The quota plus
//!   the caller's own threads is the whole admission model: there is no
//!   queue to wait in.
//! * **Per-tenant circuit breakers** — serving failures (contained
//!   panics, corrupt snapshots) trip only the failing tenant's
//!   [`CircuitBreaker`]; other tenants keep full service.
//! * **Cold-key eviction** — at most [`CatalogOptions::max_resident`]
//!   documents stay resident; the least-recently-used one is dropped
//!   to make room, and a later request simply faults it back in.
//! * **Publish/invalidate** — [`SnapshotCatalog::publish`] installs new
//!   bytes atomically and drops the resident copy, so the next request
//!   faults the new document in while requests already in flight finish
//!   on the `Arc` they hold. A hot reload is a verified publish: check
//!   the bytes, then publish; bytes that fail the check publish
//!   nothing, which *is* the rollback.
//!
//! What a resident key serves through is the catalog's [`ServeTier`]
//! type parameter. The default, [`Resident`], is the compiled synopsis,
//! its private [`EstimateCache`] partition and a [`BatchServer`] — the
//! full-fidelity XSKETCH path. `xtwig-workload` supplies the guarded
//! tier, which runs the same batch as its first tier and answers the
//! members it could not (budget exhausted, non-finite, panicked) from a
//! Markov model and then the label-count bound. Single-document
//! serving is the one-key catalog. Every fault-in mints a fresh compile
//! epoch, so a republished document's cache partition self-invalidates
//! without a flush protocol.
//!
//! ## Lock discipline
//!
//! The catalog never holds two locks at once (the repo's `LOCK_ORDER`
//! manifest sanctions no nestings): map guards are block-scoped and
//! die before any slot lock is taken, and eviction selects its victim
//! from atomics under the map guard, then locks the victim only after
//! the guard is dead. A document's slot mutex is held across its disk
//! load on purpose — that is what collapses a cold-tenant stampede
//! into exactly one load, and what makes [`SnapshotCatalog::invalidate`]
//! final: a load that read the old bytes installs them before the
//! invalidate can take the lock, so the invalidate drops them.

use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};

use crate::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use crate::sync::{Arc, Mutex, PoisonError};

use super::breaker::{BackoffPolicy, BreakerConfig, BreakerState, CircuitBreaker};
use super::cache::EstimateCache;
use super::BatchServer;
use crate::compiled::CompiledSynopsis;
use crate::estimate::{EstimateOptions, EstimateReport};
use crate::io::v3::{load_verified, read_after_stat, save_synopsis_v3};
use crate::io::vfs::{StdVfs, Vfs};
use crate::io::{write_bytes_atomic_in, write_snapshot_atomic_in, SnapshotError};
use crate::synopsis::Synopsis;
use crate::telemetry;
use xtwig_query::TwigQuery;

/// Why a catalog request was not served.
#[derive(Debug)]
pub enum CatalogError {
    /// The tenant or document name is not a safe path component
    /// (ASCII alphanumerics plus `-`, `_`, `.`; at most 128 bytes; not
    /// `.` or `..`).
    InvalidKey {
        /// The offending name.
        key: String,
    },
    /// No snapshot has been published under this `(tenant, document)`.
    UnknownDocument {
        /// Tenant name.
        tenant: String,
        /// Document name.
        document: String,
    },
    /// The tenant already has `tenant_quota` requests in flight.
    QuotaExceeded {
        /// Tenant name.
        tenant: String,
    },
    /// The tenant's circuit breaker is open; the request was shed
    /// without touching the document.
    BreakerOpen {
        /// Tenant name.
        tenant: String,
    },
    /// Serving panicked (fault injection, or a genuine bug); the
    /// panic was contained and charged to the tenant's breaker.
    Faulted {
        /// Tenant name.
        tenant: String,
    },
    /// The snapshot file exists but could not be loaded.
    Snapshot(SnapshotError),
    /// The document's on-disk snapshot failed integrity validation and
    /// could not be rebuilt; the slot is quarantined and sheds every
    /// request with this provenance until a fresh snapshot is
    /// published. The catalog never serves estimates from bytes that
    /// failed their CRCs.
    Quarantined {
        /// Tenant name.
        tenant: String,
        /// Document name.
        document: String,
        /// The integrity failure that triggered the quarantine.
        reason: String,
    },
}

impl std::fmt::Display for CatalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatalogError::InvalidKey { key } => {
                write!(f, "invalid tenant/document name {key:?}")
            }
            CatalogError::UnknownDocument { tenant, document } => {
                write!(f, "no snapshot published for {tenant}:{document}")
            }
            CatalogError::QuotaExceeded { tenant } => {
                write!(f, "tenant {tenant} is at its admission quota")
            }
            CatalogError::BreakerOpen { tenant } => {
                write!(f, "tenant {tenant}'s circuit breaker is open")
            }
            CatalogError::Faulted { tenant } => {
                write!(f, "serving for tenant {tenant} panicked; fault contained")
            }
            CatalogError::Snapshot(e) => write!(f, "snapshot error: {e}"),
            CatalogError::Quarantined {
                tenant,
                document,
                reason,
            } => {
                write!(f, "{tenant}:{document} is quarantined: {reason}")
            }
        }
    }
}

impl std::error::Error for CatalogError {}

impl From<SnapshotError> for CatalogError {
    fn from(e: SnapshotError) -> CatalogError {
        CatalogError::Snapshot(e)
    }
}

/// Catalog tuning. `#[non_exhaustive]`: construct through
/// [`CatalogOptions::default`] or [`CatalogOptions::builder`] so
/// future knobs are not breaking changes.
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub struct CatalogOptions {
    /// Maximum resident (faulted-in) documents; `0` = unlimited. The
    /// least-recently-used document is evicted to admit a cold one.
    pub max_resident: usize,
    /// Maximum in-flight requests per tenant; `0` = unlimited.
    pub tenant_quota: usize,
    /// Capacity of each document's private [`EstimateCache`]
    /// partition; `0` disables caching.
    pub cache_entries: usize,
    /// Tuning for each tenant's circuit breaker.
    pub breaker: BreakerConfig,
    /// Worker threads per served batch (`0` or `1` = inline).
    pub threads: usize,
    /// Extra fault-in attempts after a transient I/O failure (EIO,
    /// short read, stall) before the error is surfaced. Corruption is
    /// never retried — a bad CRC goes straight to rebuild/quarantine.
    pub load_retries: u32,
    /// Jittered exponential backoff between fault-in retry attempts.
    pub backoff: BackoffPolicy,
}

impl Default for CatalogOptions {
    fn default() -> CatalogOptions {
        CatalogOptions {
            max_resident: 64,
            tenant_quota: 0,
            cache_entries: 1024,
            breaker: BreakerConfig::default(),
            threads: 1,
            load_retries: 2,
            backoff: BackoffPolicy::default(),
        }
    }
}

impl CatalogOptions {
    /// A builder seeded with the defaults.
    pub fn builder() -> CatalogOptionsBuilder {
        CatalogOptionsBuilder {
            opts: CatalogOptions::default(),
        }
    }

    /// A builder seeded with this value (for tweaking a base config).
    pub fn to_builder(self) -> CatalogOptionsBuilder {
        CatalogOptionsBuilder { opts: self }
    }
}

/// Builder for [`CatalogOptions`].
#[derive(Debug, Clone, Copy)]
pub struct CatalogOptionsBuilder {
    opts: CatalogOptions,
}

impl CatalogOptionsBuilder {
    /// Sets the resident-document cap (`0` = unlimited).
    pub fn max_resident(mut self, n: usize) -> Self {
        self.opts.max_resident = n;
        self
    }

    /// Sets the per-tenant in-flight quota (`0` = unlimited).
    pub fn tenant_quota(mut self, n: usize) -> Self {
        self.opts.tenant_quota = n;
        self
    }

    /// Sets each document's cache-partition capacity (`0` = uncached).
    pub fn cache_entries(mut self, n: usize) -> Self {
        self.opts.cache_entries = n;
        self
    }

    /// Sets the per-tenant breaker tuning.
    pub fn breaker(mut self, config: BreakerConfig) -> Self {
        self.opts.breaker = config;
        self
    }

    /// Sets the per-batch worker thread count.
    pub fn threads(mut self, n: usize) -> Self {
        self.opts.threads = n;
        self
    }

    /// Sets the transient-I/O retry budget for fault-in.
    pub fn load_retries(mut self, n: u32) -> Self {
        self.opts.load_retries = n;
        self
    }

    /// Sets the backoff policy between fault-in retries.
    pub fn backoff(mut self, policy: BackoffPolicy) -> Self {
        self.opts.backoff = policy;
        self
    }

    /// Finalizes the options.
    pub fn build(self) -> CatalogOptions {
        self.opts
    }
}

/// Point-in-time catalog counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CatalogStats {
    /// Documents faulted in from disk (cold loads).
    pub cold_loads: u64,
    /// Requests served from an already-resident document.
    pub warm_hits: u64,
    /// Documents evicted to respect `max_resident`.
    pub evictions: u64,
    /// Requests shed at the tenant admission quota.
    pub quota_sheds: u64,
    /// Requests shed by an open tenant breaker.
    pub breaker_sheds: u64,
    /// Serving panics contained and charged to a breaker.
    pub faults: u64,
    /// Fault-in retry attempts after transient I/O failures.
    pub load_retries: u64,
    /// Documents quarantined after failing integrity validation.
    pub quarantined: u64,
    /// Corrupt documents rebuilt in place via the rebuild hook.
    pub rebuilds: u64,
    /// Documents currently resident.
    pub resident: usize,
    /// Tenants with breaker/quota state.
    pub tenants: usize,
    /// `(tenant, document)` slots known to this catalog process.
    pub documents: usize,
}

/// What a resident catalog key serves through: built once per
/// fault-in from the verified, carved document, shared by every request
/// that finds the key resident, and dropped on eviction or invalidate
/// (requests in flight keep their `Arc`).
pub trait ServeTier: Send + Sync + Sized + 'static {
    /// Wraps a freshly faulted-in document.
    fn load(compiled: CompiledSynopsis<'static>, options: &CatalogOptions) -> Self;

    /// Serves one admitted batch: one report per query, in input order.
    fn serve(
        &self,
        queries: &[TwigQuery],
        opts: &EstimateOptions,
        threads: usize,
    ) -> Vec<EstimateReport>;
}

/// The default serving tier: a compiled synopsis plus its private cache
/// partition, served through a [`BatchServer`] (plan reuse, work
/// splitting, epoch-checked caching). Budget-exhausted members come
/// back degraded with the partial XSKETCH sum. In a catalog the
/// synopsis is the `'static` v3 load of the key's snapshot.
#[derive(Debug)]
pub struct Resident<'syn> {
    compiled: CompiledSynopsis<'syn>,
    cache: EstimateCache,
}

impl<'syn> Resident<'syn> {
    /// `compiled` with a cache partition of `cache_entries` (`0`
    /// disables caching).
    pub fn new(compiled: CompiledSynopsis<'syn>, cache_entries: usize) -> Resident<'syn> {
        Resident {
            compiled,
            cache: EstimateCache::new(cache_entries),
        }
    }

    /// The resident compiled synopsis.
    pub fn compiled(&self) -> &CompiledSynopsis<'syn> {
        &self.compiled
    }

    /// The batch server over the resident synopsis and its cache
    /// partition, configured for one request.
    pub fn batch(&self, opts: &EstimateOptions, threads: usize) -> BatchServer<'_, 'syn> {
        BatchServer::new(&self.compiled)
            .with_cache(&self.cache)
            .with_options(*opts)
            .with_threads(threads)
    }
}

impl ServeTier for Resident<'static> {
    fn load(compiled: CompiledSynopsis<'static>, options: &CatalogOptions) -> Resident<'static> {
        Resident::new(compiled, options.cache_entries)
    }

    fn serve(
        &self,
        queries: &[TwigQuery],
        opts: &EstimateOptions,
        threads: usize,
    ) -> Vec<EstimateReport> {
        self.batch(opts, threads).serve(queries)
    }
}

/// The mutex-guarded part of a [`DocSlot`]: the resident document and
/// the quarantine marker live under **one** lock so fault-in never
/// nests slot locks (the repo's `LOCK_ORDER` manifest sanctions no
/// nestings).
#[derive(Debug)]
struct SlotState<T> {
    doc: Option<Arc<T>>,
    /// When set, the on-disk snapshot failed integrity validation and
    /// could not be rebuilt; every request sheds with
    /// [`CatalogError::Quarantined`] until a publish clears it.
    quarantine: Option<String>,
}

/// One `(tenant, document)` slot. The mutex serializes fault-in (a
/// cold stampede performs exactly one disk load); the atomics let the
/// eviction scan pick a victim without locking every slot.
#[derive(Debug)]
struct DocSlot<T> {
    loaded: Mutex<SlotState<T>>,
    /// Catalog-clock stamp of the last serve (LRU eviction order).
    last_used: AtomicU64,
    /// Mirror of `loaded.doc.is_some()` (`0`/`1`), readable without
    /// the lock. `AtomicUsize` rather than `AtomicBool` because the
    /// loom façade only models the integer atomics.
    is_loaded: AtomicUsize,
}

/// The `(tenant, document)` slots a catalog knows.
type DocMap<T> = HashMap<(String, String), Arc<DocSlot<T>>>;

/// Per-tenant admission and failure-isolation state.
#[derive(Debug)]
struct TenantState {
    breaker: CircuitBreaker,
    inflight: AtomicUsize,
}

/// RAII decrement for the tenant in-flight counter.
struct InflightGuard<'a> {
    state: &'a TenantState,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        // lint:allow(atomic-ordering): advisory admission counter; quota is a soft bound
        self.state.inflight.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Fault-injection hook: given `(tenant, document)`, return `true` to
/// make that serve panic inside the catalog's containment boundary.
/// Used by the soak harness to prove per-tenant breaker isolation.
pub type FaultHook = Box<dyn Fn(&str, &str) -> bool + Send + Sync>;

/// Rebuild hook: given `(tenant, document)`, return the source-derived
/// [`Synopsis`] to republish when the on-disk snapshot is corrupt, or
/// `None` when the source document is unavailable. Called while the
/// document's slot is locked, so the hook must not call back into the
/// catalog.
pub type RebuildHook = Arc<dyn Fn(&str, &str) -> Option<Synopsis> + Send + Sync>;

/// A multi-tenant catalog of v3 snapshots under one root directory,
/// serving each resident key through the tier `T` (see the module
/// docs).
///
/// ```no_run
/// use xtwig_core::{CatalogOptions, EstimateOptions, SnapshotCatalog};
///
/// let catalog = SnapshotCatalog::open("/var/lib/xtwig", CatalogOptions::default());
/// # let synopsis: xtwig_core::Synopsis = unimplemented!();
/// # let queries: Vec<xtwig_query::TwigQuery> = vec![];
/// catalog.publish("acme", "orders", &synopsis).unwrap();
/// let reports = catalog
///     .serve("acme", "orders", &queries, &EstimateOptions::default())
///     .unwrap();
/// ```
pub struct SnapshotCatalog<T = Resident<'static>> {
    root: PathBuf,
    options: CatalogOptions,
    vfs: Arc<dyn Vfs>,
    docs: Mutex<DocMap<T>>,
    tenants: Mutex<HashMap<String, Arc<TenantState>>>,
    /// Logical clock for LRU stamps.
    tick: AtomicU64,
    /// Resident-document count (soft bound; see `evict_for_space`).
    resident: AtomicUsize,
    cold_loads: AtomicU64,
    warm_hits: AtomicU64,
    evictions: AtomicU64,
    quota_sheds: AtomicU64,
    breaker_sheds: AtomicU64,
    faults: AtomicU64,
    load_retries: AtomicU64,
    quarantined: AtomicU64,
    rebuilds: AtomicU64,
    fault_hook: Mutex<Option<FaultHook>>,
    rebuild_hook: Mutex<Option<RebuildHook>>,
}

impl<T> std::fmt::Debug for SnapshotCatalog<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotCatalog")
            .field("root", &self.root)
            .field("options", &self.options)
            .finish_non_exhaustive()
    }
}

/// Whether `k` is safe to embed as a path component.
fn valid_key(k: &str) -> bool {
    !k.is_empty()
        && k.len() <= 128
        && k != "."
        && k != ".."
        && k.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'.')
}

impl SnapshotCatalog {
    /// Opens a catalog of [`Resident`] keys rooted at `root`. The
    /// directory need not exist yet — [`publish`](SnapshotCatalog::publish)
    /// creates it — and no I/O happens here; documents are discovered
    /// lazily on first request.
    pub fn open(root: impl Into<PathBuf>, options: CatalogOptions) -> SnapshotCatalog {
        SnapshotCatalog::open_tier(root, options, Arc::new(StdVfs))
    }

    /// [`SnapshotCatalog::open`] over an explicit [`Vfs`] — the soak
    /// harness injects a fault-plan VFS here; production passes
    /// [`StdVfs`] via [`SnapshotCatalog::open`].
    pub fn open_in(
        root: impl Into<PathBuf>,
        options: CatalogOptions,
        vfs: Arc<dyn Vfs>,
    ) -> SnapshotCatalog {
        SnapshotCatalog::open_tier(root, options, vfs)
    }
}

impl<T: ServeTier> SnapshotCatalog<T> {
    /// Opens a catalog whose resident keys serve through the tier `T`,
    /// over an explicit [`Vfs`].
    pub fn open_tier(
        root: impl Into<PathBuf>,
        options: CatalogOptions,
        vfs: Arc<dyn Vfs>,
    ) -> SnapshotCatalog<T> {
        SnapshotCatalog {
            root: root.into(),
            options,
            vfs,
            docs: Mutex::new(HashMap::new()),
            tenants: Mutex::new(HashMap::new()),
            tick: AtomicU64::new(0),
            resident: AtomicUsize::new(0),
            cold_loads: AtomicU64::new(0),
            warm_hits: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            quota_sheds: AtomicU64::new(0),
            breaker_sheds: AtomicU64::new(0),
            faults: AtomicU64::new(0),
            load_retries: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            rebuilds: AtomicU64::new(0),
            fault_hook: Mutex::new(None),
            rebuild_hook: Mutex::new(None),
        }
    }

    /// The catalog root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The options this catalog was opened with.
    pub fn options(&self) -> &CatalogOptions {
        &self.options
    }

    /// The snapshot path for a `(tenant, document)` key.
    pub fn path_for(&self, tenant: &str, document: &str) -> PathBuf {
        self.root.join(tenant).join(format!("{document}.xtwg"))
    }

    /// Serializes `s` as a v3 snapshot, atomically installs it at the
    /// key's path (creating directories as needed), and invalidates
    /// any resident copy so the next request faults the new bytes in.
    /// Returns the snapshot size in bytes.
    pub fn publish(&self, tenant: &str, document: &str, s: &Synopsis) -> Result<u64, CatalogError> {
        self.publish_bytes(tenant, document, &save_synopsis_v3(s))
    }

    /// A hot reload: runs the full verified load over `bytes` (every
    /// section CRC, the padding, the carve) and publishes them
    /// unchanged. Bytes that fail verification — corrupt, or any format
    /// but v3 — publish nothing: the key keeps serving what it served,
    /// which is the rollback, and the error comes back as
    /// [`CatalogError::Snapshot`]. Requests already in flight finish on
    /// the document they hold.
    pub fn reload(&self, tenant: &str, document: &str, bytes: &[u8]) -> Result<u64, CatalogError> {
        let tg = telemetry::global();
        if let Err(e) = load_verified(bytes) {
            tg.catalog_reload_rollbacks.incr();
            return Err(CatalogError::Snapshot(e));
        }
        let n = self.publish_bytes(tenant, document, bytes)?;
        tg.catalog_reloads.incr();
        Ok(n)
    }

    /// Atomically installs snapshot `bytes` at the key's path and
    /// invalidates any resident copy.
    fn publish_bytes(
        &self,
        tenant: &str,
        document: &str,
        bytes: &[u8],
    ) -> Result<u64, CatalogError> {
        self.check_keys(tenant, document)?;
        let dir = self.root.join(tenant);
        self.vfs.create_dir_all(&dir).map_err(|e| {
            CatalogError::Snapshot(SnapshotError::Io {
                path: dir.display().to_string(),
                cause: e.to_string(),
            })
        })?;
        write_bytes_atomic_in(&*self.vfs, &self.path_for(tenant, document), bytes)?;
        self.invalidate(tenant, document);
        Ok(bytes.len() as u64)
    }

    /// Drops the resident copy of a document, if any, and lifts any
    /// quarantine (the caller just installed or is about to install
    /// fresh bytes). The snapshot file is untouched; the next request
    /// faults it back in.
    pub fn invalidate(&self, tenant: &str, document: &str) {
        let slot = self.doc_slot(tenant, document);
        let mut state = slot.loaded.lock().unwrap_or_else(PoisonError::into_inner);
        state.quarantine = None;
        if state.doc.take().is_some() {
            // lint:allow(atomic-ordering): mirror of the slot state just changed under its own lock
            slot.is_loaded.store(0, Ordering::Relaxed);
            // lint:allow(atomic-ordering): advisory residency count; max_resident is a soft bound
            self.resident.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Faults a document in ahead of traffic (no quota or breaker
    /// involvement). A no-op if it is already resident.
    pub fn warm(&self, tenant: &str, document: &str) -> Result<(), CatalogError> {
        self.check_keys(tenant, document)?;
        let slot = self.doc_slot(tenant, document);
        self.fault_in(&slot, tenant, document).map(|_| ())
    }

    /// Serves a batch of queries for one `(tenant, document)` through
    /// the key's tier, returning one report per query in input order.
    ///
    /// Checks run in this order: quota (before any work), then the
    /// tenant's breaker, then fault-in, then the batch itself. A serving panic
    /// is contained, reported as [`CatalogError::Faulted`], and
    /// charged to the tenant's breaker — after
    /// [`BreakerConfig::failure_threshold`] consecutive faults the
    /// tenant is shed at admission while every other tenant keeps
    /// full, un-degraded service.
    pub fn serve(
        &self,
        tenant: &str,
        document: &str,
        queries: &[TwigQuery],
        opts: &EstimateOptions,
    ) -> Result<Vec<EstimateReport>, CatalogError> {
        self.check_keys(tenant, document)?;
        let ts = self.tenant_state(tenant);

        // Quota first: shed before consuming any shared resource.
        let inflight = ts
            .inflight
            // lint:allow(atomic-ordering): advisory admission counter; quota is a soft bound
            .fetch_add(1, Ordering::Relaxed)
            .saturating_add(1);
        let _inflight = InflightGuard { state: &ts };
        let quota = self.options.tenant_quota;
        if quota != 0 && inflight > quota {
            // lint:allow(atomic-ordering): monotonic stats counter
            self.quota_sheds.fetch_add(1, Ordering::Relaxed);
            telemetry::global().catalog_quota_sheds.incr();
            return Err(CatalogError::QuotaExceeded {
                tenant: tenant.to_owned(),
            });
        }

        if !ts.breaker.try_acquire() {
            // lint:allow(atomic-ordering): monotonic stats counter
            self.breaker_sheds.fetch_add(1, Ordering::Relaxed);
            return Err(CatalogError::BreakerOpen {
                tenant: tenant.to_owned(),
            });
        }

        // From here on the breaker granted the attempt (possibly as
        // the half-open probe), so every exit must record an outcome.
        let result = self.serve_admitted(tenant, document, queries, opts);
        match result {
            Ok(_) => ts.breaker.record_success(),
            Err(_) => ts.breaker.record_failure(),
        }
        result
    }

    /// The post-admission serve path: fault-in plus the contained
    /// batch run. Split out so `serve` can pair every admission with
    /// exactly one breaker outcome.
    fn serve_admitted(
        &self,
        tenant: &str,
        document: &str,
        queries: &[TwigQuery],
        opts: &EstimateOptions,
    ) -> Result<Vec<EstimateReport>, CatalogError> {
        let slot = self.doc_slot(tenant, document);
        let doc = self.fault_in(&slot, tenant, document)?;
        let fire = {
            let hook = self
                .fault_hook
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            hook.as_ref().is_some_and(|h| h(tenant, document))
        };
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            assert!(!fire, "injected fault for tenant {tenant}");
            doc.serve(queries, opts, self.options.threads)
        }));
        match outcome {
            Ok(reports) => Ok(reports),
            Err(_) => {
                // lint:allow(atomic-ordering): monotonic stats counter
                self.faults.fetch_add(1, Ordering::Relaxed);
                Err(CatalogError::Faulted {
                    tenant: tenant.to_owned(),
                })
            }
        }
    }

    /// Installs (or clears) the fault-injection hook. Soak/test
    /// surface: a hook returning `true` makes that serve panic inside
    /// the containment boundary, exactly as a serving bug would; a hook
    /// that sleeps before returning holds the request's quota slot
    /// while it does.
    pub fn set_fault_hook(&self, hook: Option<FaultHook>) {
        *self
            .fault_hook
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = hook;
    }

    /// Installs (or clears) the rebuild hook consulted when a
    /// snapshot fails integrity validation: return the source-derived
    /// synopsis to republish in place, or `None` to quarantine.
    pub fn set_rebuild_hook(&self, hook: Option<RebuildHook>) {
        *self
            .rebuild_hook
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = hook;
    }

    /// The quarantine reason for a `(tenant, document)`, if the slot
    /// is currently quarantined.
    pub fn quarantine_reason(&self, tenant: &str, document: &str) -> Option<String> {
        let slot = self.doc_slot(tenant, document);
        let state = slot.loaded.lock().unwrap_or_else(PoisonError::into_inner);
        state.quarantine.clone()
    }

    /// The current state of a tenant's breaker, if the tenant has been
    /// seen by this catalog.
    pub fn breaker_state(&self, tenant: &str) -> Option<BreakerState> {
        let ts = {
            let map = self.tenants.lock().unwrap_or_else(PoisonError::into_inner);
            map.get(tenant).cloned()
        };
        ts.map(|t| t.breaker.state())
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> CatalogStats {
        let documents = {
            let map = self.docs.lock().unwrap_or_else(PoisonError::into_inner);
            map.len()
        };
        let tenants = {
            let map = self.tenants.lock().unwrap_or_else(PoisonError::into_inner);
            map.len()
        };
        CatalogStats {
            // lint:allow(atomic-ordering): point-in-time stats snapshot; torn reads across counters are acceptable
            cold_loads: self.cold_loads.load(Ordering::Relaxed),
            // lint:allow(atomic-ordering): point-in-time stats snapshot; torn reads across counters are acceptable
            warm_hits: self.warm_hits.load(Ordering::Relaxed),
            // lint:allow(atomic-ordering): point-in-time stats snapshot; torn reads across counters are acceptable
            evictions: self.evictions.load(Ordering::Relaxed),
            // lint:allow(atomic-ordering): point-in-time stats snapshot; torn reads across counters are acceptable
            quota_sheds: self.quota_sheds.load(Ordering::Relaxed),
            // lint:allow(atomic-ordering): point-in-time stats snapshot; torn reads across counters are acceptable
            breaker_sheds: self.breaker_sheds.load(Ordering::Relaxed),
            // lint:allow(atomic-ordering): point-in-time stats snapshot; torn reads across counters are acceptable
            faults: self.faults.load(Ordering::Relaxed),
            // lint:allow(atomic-ordering): point-in-time stats snapshot; torn reads across counters are acceptable
            load_retries: self.load_retries.load(Ordering::Relaxed),
            // lint:allow(atomic-ordering): point-in-time stats snapshot; torn reads across counters are acceptable
            quarantined: self.quarantined.load(Ordering::Relaxed),
            // lint:allow(atomic-ordering): point-in-time stats snapshot; torn reads across counters are acceptable
            rebuilds: self.rebuilds.load(Ordering::Relaxed),
            // lint:allow(atomic-ordering): point-in-time stats snapshot; torn reads across counters are acceptable
            resident: self.resident.load(Ordering::Relaxed),
            tenants,
            documents,
        }
    }

    /// Validates both key components.
    fn check_keys(&self, tenant: &str, document: &str) -> Result<(), CatalogError> {
        for k in [tenant, document] {
            if !valid_key(k) {
                return Err(CatalogError::InvalidKey { key: k.to_owned() });
            }
        }
        Ok(())
    }

    /// Gets or creates the tenant's admission/breaker state.
    fn tenant_state(&self, tenant: &str) -> Arc<TenantState> {
        let mut map = self.tenants.lock().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(map.entry(tenant.to_owned()).or_insert_with(|| {
            Arc::new(TenantState {
                breaker: CircuitBreaker::new(self.options.breaker),
                inflight: AtomicUsize::new(0),
            })
        }))
    }

    /// Gets or creates the `(tenant, document)` slot.
    fn doc_slot(&self, tenant: &str, document: &str) -> Arc<DocSlot<T>> {
        let mut map = self.docs.lock().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(
            map.entry((tenant.to_owned(), document.to_owned()))
                .or_insert_with(|| {
                    Arc::new(DocSlot {
                        loaded: Mutex::new(SlotState {
                            doc: None,
                            quarantine: None,
                        }),
                        last_used: AtomicU64::new(0),
                        is_loaded: AtomicUsize::new(0),
                    })
                }),
        )
    }

    /// Stats, reads and fully CRC-verifies the snapshot at `path`, or
    /// `Ok(None)` when the stat finds no file there. Every other stat
    /// or read failure is transient I/O, retried with the catalog's
    /// jittered backoff. Corruption (anything other than
    /// [`SnapshotError::Io`]) returns immediately — re-reading rotten
    /// bytes cannot help.
    fn load_verified_with_retry(
        &self,
        path: &Path,
        request_id: u64,
    ) -> Result<Option<CompiledSynopsis<'static>>, SnapshotError> {
        let mut attempt = 0u32;
        loop {
            let loaded = match self.vfs.metadata(path) {
                Ok(meta) => read_after_stat(&*self.vfs, path, meta),
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
                Err(e) => Err(SnapshotError::Io {
                    path: path.display().to_string(),
                    cause: e.to_string(),
                }),
            };
            match loaded {
                Ok(compiled) => return Ok(Some(compiled)),
                Err(SnapshotError::Io { path, cause }) if attempt < self.options.load_retries => {
                    let _transient = (path, cause);
                    attempt += 1;
                    // lint:allow(atomic-ordering): monotonic stats counter
                    self.load_retries.fetch_add(1, Ordering::Relaxed);
                    let delay = self.options.backoff.delay(request_id, attempt);
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Returns the resident document for `slot`, faulting it in from
    /// disk if cold. The slot mutex is held across the load, so a
    /// stampede of cold requests performs exactly one disk read; the
    /// latecomers block briefly and then share the `Arc`.
    ///
    /// The load path is hardened against storage faults:
    /// * every byte of the snapshot is CRC-verified before serving
    ///   (the fast load checksums header/table/`META` only);
    /// * transient I/O errors are retried under
    ///   [`CatalogOptions::load_retries`]/[`CatalogOptions::backoff`];
    /// * corruption triggers an in-place rebuild through the
    ///   [`RebuildHook`] when one is installed, and otherwise
    ///   **quarantines** the slot — garbage is never served, and the
    ///   typed [`CatalogError::Quarantined`] keeps feeding the
    ///   tenant's breaker so repeat offenders are shed at admission.
    fn fault_in(
        &self,
        slot: &Arc<DocSlot<T>>,
        tenant: &str,
        document: &str,
    ) -> Result<Arc<T>, CatalogError> {
        // lint:allow(atomic-ordering): LRU stamp; eviction order is advisory
        let stamp = self.tick.fetch_add(1, Ordering::Relaxed).saturating_add(1);
        {
            let state = slot.loaded.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(reason) = &state.quarantine {
                return Err(CatalogError::Quarantined {
                    tenant: tenant.to_owned(),
                    document: document.to_owned(),
                    reason: reason.clone(),
                });
            }
            if let Some(doc) = state.doc.as_ref() {
                // lint:allow(atomic-ordering): LRU stamp; eviction order is advisory
                slot.last_used.store(stamp, Ordering::Relaxed);
                // lint:allow(atomic-ordering): monotonic stats counter
                self.warm_hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Arc::clone(doc));
            }
        }

        // Snapshot the rebuild hook before taking the slot lock, so a
        // corrupt load can invoke it without nesting the hook mutex
        // inside the slot mutex.
        let rebuild = {
            let hook = self
                .rebuild_hook
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            hook.clone()
        };

        // Make room before (not while) holding the slot lock, so no
        // two slot mutexes are ever held together.
        self.evict_for_space();

        let mut state = slot.loaded.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(reason) = &state.quarantine {
            // A racing loader quarantined the slot first.
            return Err(CatalogError::Quarantined {
                tenant: tenant.to_owned(),
                document: document.to_owned(),
                reason: reason.clone(),
            });
        }
        if let Some(doc) = state.doc.as_ref() {
            // A racing loader won between our fast path and here.
            // lint:allow(atomic-ordering): LRU stamp; eviction order is advisory
            slot.last_used.store(stamp, Ordering::Relaxed);
            return Ok(Arc::clone(doc));
        }
        let path = self.path_for(tenant, document);
        let compiled = match self.load_verified_with_retry(&path, stamp) {
            Ok(Some(compiled)) => compiled,
            Ok(None) => {
                return Err(CatalogError::UnknownDocument {
                    tenant: tenant.to_owned(),
                    document: document.to_owned(),
                })
            }
            Err(e @ SnapshotError::Io { .. }) => {
                // Transient I/O exhausted its retry budget: surface it
                // typed, but do not quarantine — the bytes on disk may
                // be fine once the device recovers.
                return Err(CatalogError::Snapshot(e));
            }
            Err(corrupt) => {
                // Integrity failure. Rebuild from source if we can;
                // otherwise quarantine so garbage is never served.
                if let Some(hook) = rebuild.as_ref() {
                    if let Some(s) = hook(tenant, document) {
                        let rebuilt =
                            write_snapshot_atomic_in(&*self.vfs, &path, &s).and_then(|_| {
                                self.load_verified_with_retry(&path, stamp)?.ok_or_else(|| {
                                    SnapshotError::Io {
                                        path: path.display().to_string(),
                                        cause: "rebuilt snapshot not found".into(),
                                    }
                                })
                            });
                        match rebuilt {
                            Ok(compiled) => {
                                // lint:allow(atomic-ordering): monotonic stats counter
                                self.rebuilds.fetch_add(1, Ordering::Relaxed);
                                return Ok(self.install(slot, &mut state, stamp, compiled));
                            }
                            Err(e) => {
                                return Err(self.quarantine(
                                    &mut state,
                                    tenant,
                                    document,
                                    format!("{corrupt}; rebuild failed: {e}"),
                                ));
                            }
                        }
                    }
                }
                return Err(self.quarantine(&mut state, tenant, document, corrupt.to_string()));
            }
        };
        Ok(self.install(slot, &mut state, stamp, compiled))
    }

    /// Installs a freshly loaded document into its locked slot state,
    /// updates the residency bookkeeping, and returns the installed
    /// handle so callers never have to re-extract it from the slot.
    fn install(
        &self,
        slot: &Arc<DocSlot<T>>,
        state: &mut SlotState<T>,
        stamp: u64,
        compiled: CompiledSynopsis<'static>,
    ) -> Arc<T> {
        let doc = Arc::new(T::load(compiled, &self.options));
        state.doc = Some(Arc::clone(&doc));
        // lint:allow(atomic-ordering): mirror of the slot state just changed under its own lock
        slot.is_loaded.store(1, Ordering::Relaxed);
        // lint:allow(atomic-ordering): LRU stamp; eviction order is advisory
        slot.last_used.store(stamp, Ordering::Relaxed);
        // lint:allow(atomic-ordering): advisory residency count; max_resident is a soft bound
        self.resident.fetch_add(1, Ordering::Relaxed);
        // lint:allow(atomic-ordering): monotonic stats counter
        self.cold_loads.fetch_add(1, Ordering::Relaxed);
        doc
    }

    /// Marks a locked slot quarantined and returns the typed error.
    fn quarantine(
        &self,
        state: &mut SlotState<T>,
        tenant: &str,
        document: &str,
        reason: String,
    ) -> CatalogError {
        state.quarantine = Some(reason.clone());
        // lint:allow(atomic-ordering): monotonic stats counter
        self.quarantined.fetch_add(1, Ordering::Relaxed);
        CatalogError::Quarantined {
            tenant: tenant.to_owned(),
            document: document.to_owned(),
            reason,
        }
    }

    /// Evicts least-recently-used documents until a cold load would
    /// fit under `max_resident`. Holds no lock while locking a victim
    /// (the candidate scan reads only atomics under the map guard), so
    /// eviction can never deadlock against a concurrent fault-in.
    /// `max_resident` is a soft bound: concurrent loads may briefly
    /// overshoot it, and the next fault-in pulls it back down.
    fn evict_for_space(&self) {
        let max = self.options.max_resident;
        if max == 0 {
            return;
        }
        // lint:allow(atomic-ordering): advisory residency count; max_resident is a soft bound
        while self.resident.load(Ordering::Relaxed) >= max {
            let victim: Option<Arc<DocSlot<T>>> = {
                let map = self.docs.lock().unwrap_or_else(PoisonError::into_inner);
                map.values()
                    // lint:allow(atomic-ordering): lock-free residency mirror; a stale read just retries
                    .filter(|s| s.is_loaded.load(Ordering::Relaxed) != 0)
                    // lint:allow(atomic-ordering): LRU stamp; eviction order is advisory
                    .min_by_key(|s| s.last_used.load(Ordering::Relaxed))
                    .map(Arc::clone)
            };
            let Some(v) = victim else {
                // Counter says resident but no loaded slot is visible:
                // a racing invalidate got there first. Nothing to do.
                return;
            };
            let mut state = v.loaded.lock().unwrap_or_else(PoisonError::into_inner);
            if state.doc.take().is_some() {
                // lint:allow(atomic-ordering): mirror of the slot state just changed under its own lock
                v.is_loaded.store(0, Ordering::Relaxed);
                // lint:allow(atomic-ordering): advisory residency count; max_resident is a soft bound
                self.resident.fetch_sub(1, Ordering::Relaxed);
                // lint:allow(atomic-ordering): monotonic stats counter
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coarse::coarse_synopsis;
    use xtwig_query::parse_twig;
    use xtwig_xml::parse;

    fn sample_synopsis(extra_papers: usize) -> Synopsis {
        let mut xml = String::from("<bib><conf>");
        for _ in 0..=extra_papers {
            xml.push_str("<paper><kw/></paper>");
        }
        xml.push_str("</conf></bib>");
        coarse_synopsis(&parse(&xml).unwrap())
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("xtwig-catalog-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn publish_then_serve_roundtrips() {
        let dir = tempdir("roundtrip");
        let catalog = SnapshotCatalog::open(&dir, CatalogOptions::default());
        let s = sample_synopsis(1);
        catalog.publish("acme", "orders", &s).unwrap();
        let q = vec![parse_twig("for $t0 in //paper, $t1 in $t0/kw").unwrap()];
        let opts = EstimateOptions::default();
        let served = catalog.serve("acme", "orders", &q, &opts).unwrap();
        // Bit-identical to estimating over the same synopsis directly.
        let cs = CompiledSynopsis::compile(&s);
        let direct = BatchServer::new(&cs).serve(&q);
        assert_eq!(
            served[0].estimate.to_bits(),
            direct[0].estimate.to_bits(),
            "catalog serve must match direct compiled estimation"
        );
        let stats = catalog.stats();
        assert_eq!(stats.cold_loads, 1);
        assert_eq!(stats.resident, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reload_publishes_verified_bytes_and_rolls_back_corrupt_ones() {
        let dir = tempdir("reload");
        let catalog = SnapshotCatalog::open(&dir, CatalogOptions::default());
        let (old, new) = (sample_synopsis(0), sample_synopsis(3));
        catalog.publish("t", "d", &old).unwrap();
        let q = vec![parse_twig("for $t0 in //paper, $t1 in $t0/kw").unwrap()];
        let opts = EstimateOptions::default();
        let served = |c: &SnapshotCatalog| c.serve("t", "d", &q, &opts).unwrap()[0].estimate;
        let before = served(&catalog);
        // A corrupt image publishes nothing: the key keeps serving.
        let mut bytes = save_synopsis_v3(&new);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        let err = catalog.reload("t", "d", &bytes).unwrap_err();
        assert!(matches!(err, CatalogError::Snapshot(_)), "{err}");
        assert_eq!(served(&catalog).to_bits(), before.to_bits());
        // Verified bytes publish unchanged, and the next request serves
        // them.
        let image = save_synopsis_v3(&new);
        catalog.reload("t", "d", &image).unwrap();
        assert_eq!(std::fs::read(catalog.path_for("t", "d")).unwrap(), image);
        let cs = CompiledSynopsis::compile(&new);
        let want = BatchServer::new(&cs).serve(&q)[0].estimate;
        assert_eq!(served(&catalog).to_bits(), want.to_bits());
        assert_ne!(want.to_bits(), before.to_bits());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_document_is_typed() {
        let dir = tempdir("unknown");
        let catalog = SnapshotCatalog::open(&dir, CatalogOptions::default());
        let q = vec![parse_twig("for $t0 in //paper").unwrap()];
        let err = catalog
            .serve("ghost", "nothing", &q, &EstimateOptions::default())
            .unwrap_err();
        assert!(matches!(err, CatalogError::UnknownDocument { .. }), "{err}");
        // Path-escaping keys are refused before touching the fs.
        let err = catalog
            .serve("../evil", "x", &q, &EstimateOptions::default())
            .unwrap_err();
        assert!(matches!(err, CatalogError::InvalidKey { .. }), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lru_eviction_respects_max_resident() {
        let dir = tempdir("evict");
        let options = CatalogOptions::builder().max_resident(2).build();
        let catalog = SnapshotCatalog::open(&dir, options);
        let s = sample_synopsis(0);
        for doc in ["a", "b", "c"] {
            catalog.publish("t", doc, &s).unwrap();
            catalog.warm("t", doc).unwrap();
        }
        let stats = catalog.stats();
        assert!(stats.resident <= 2, "{stats:?}");
        assert!(stats.evictions >= 1, "{stats:?}");
        // The evicted document faults back in transparently.
        let q = vec![parse_twig("for $t0 in //paper").unwrap()];
        catalog
            .serve("t", "a", &q, &EstimateOptions::default())
            .unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn faults_open_only_the_victims_breaker() {
        let dir = tempdir("isolation");
        let options = CatalogOptions::builder()
            .breaker(BreakerConfig {
                failure_threshold: 3,
                cooldown: std::time::Duration::from_secs(60),
            })
            .build();
        let catalog = SnapshotCatalog::open(&dir, options);
        let s = sample_synopsis(1);
        catalog.publish("victim", "d", &s).unwrap();
        catalog.publish("healthy", "d", &s).unwrap();
        catalog.set_fault_hook(Some(Box::new(|tenant, _| tenant == "victim")));
        let q = vec![parse_twig("for $t0 in //paper").unwrap()];
        let opts = EstimateOptions::default();
        // Quiet the expected injected panics.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        for _ in 0..3 {
            let err = catalog.serve("victim", "d", &q, &opts).unwrap_err();
            assert!(matches!(err, CatalogError::Faulted { .. }), "{err}");
        }
        std::panic::set_hook(prev);
        // Victim now shed at admission; healthy tenant unaffected.
        let err = catalog.serve("victim", "d", &q, &opts).unwrap_err();
        assert!(matches!(err, CatalogError::BreakerOpen { .. }), "{err}");
        assert_eq!(catalog.breaker_state("victim"), Some(BreakerState::Open));
        let ok = catalog.serve("healthy", "d", &q, &opts).unwrap();
        assert_eq!(ok.len(), 1);
        assert!(ok[0].provenance.exhaustion.is_none());
        assert_eq!(catalog.breaker_state("healthy"), Some(BreakerState::Closed));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quota_sheds_excess_inflight() {
        let dir = tempdir("quota");
        let options = CatalogOptions::builder().tenant_quota(1).build();
        let catalog = SnapshotCatalog::open(&dir, options);
        let s = sample_synopsis(0);
        catalog.publish("t", "d", &s).unwrap();
        let q = vec![parse_twig("for $t0 in //paper").unwrap()];
        let opts = EstimateOptions::default();
        // Sequential requests each fit the quota of one.
        catalog.serve("t", "d", &q, &opts).unwrap();
        catalog.serve("t", "d", &q, &opts).unwrap();
        // Concurrent requests contend for the single slot: with the
        // hook holding one serve open, the second must shed.
        let gate = Arc::new(std::sync::Barrier::new(2));
        let entered = Arc::new(std::sync::Barrier::new(2));
        {
            let (gate, entered) = (Arc::clone(&gate), Arc::clone(&entered));
            catalog.set_fault_hook(Some(Box::new(move |_, _| {
                entered.wait();
                gate.wait();
                false
            })));
        }
        std::thread::scope(|scope| {
            let slow = scope.spawn(|| catalog.serve("t", "d", &q, &opts));
            entered.wait(); // first request is inside the hook, quota slot taken
            let shed = catalog.serve("t", "d", &q, &opts).unwrap_err();
            assert!(matches!(shed, CatalogError::QuotaExceeded { .. }), "{shed}");
            gate.wait(); // release the first request
            slow.join().unwrap().unwrap();
        });
        assert!(catalog.stats().quota_sheds >= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Flips one bit inside a bucket-lane section of the snapshot at
    /// `path` — corruption the fast load would decode unchecked.
    fn rot_snapshot(path: &Path) {
        let mut bytes = std::fs::read(path).unwrap();
        let idx = crate::io::v3::parse_arena(&bytes).unwrap();
        let sec = idx.get(crate::io::v3::section::FRAC);
        assert!(sec.len > 0);
        bytes[sec.off] ^= 0x08;
        std::fs::write(path, &bytes).unwrap();
    }

    #[test]
    fn corrupt_snapshot_quarantines_instead_of_serving() {
        let dir = tempdir("quarantine");
        let catalog = SnapshotCatalog::open(&dir, CatalogOptions::default());
        let s = sample_synopsis(1);
        catalog.publish("t", "d", &s).unwrap();
        rot_snapshot(&catalog.path_for("t", "d"));
        let q = vec![parse_twig("for $t0 in //paper").unwrap()];
        let opts = EstimateOptions::default();
        let err = catalog.serve("t", "d", &q, &opts).unwrap_err();
        assert!(matches!(err, CatalogError::Quarantined { .. }), "{err}");
        assert!(err.to_string().contains("quarantined"), "{err}");
        // The quarantine is sticky: no disk read can resurrect the
        // slot, and no retries were burned on the rotten bytes.
        let err = catalog.serve("t", "d", &q, &opts).unwrap_err();
        assert!(matches!(err, CatalogError::Quarantined { .. }), "{err}");
        let stats = catalog.stats();
        assert_eq!(stats.quarantined, 1, "{stats:?}");
        assert_eq!(stats.load_retries, 0, "{stats:?}");
        assert_eq!(stats.resident, 0, "{stats:?}");
        assert!(catalog.quarantine_reason("t", "d").is_some());
        // Other documents of the same tenant are untouched.
        catalog.publish("t", "clean", &s).unwrap();
        catalog.serve("t", "clean", &q, &opts).unwrap();
        // A fresh publish lifts the quarantine.
        catalog.publish("t", "d", &s).unwrap();
        assert!(catalog.quarantine_reason("t", "d").is_none());
        catalog.serve("t", "d", &q, &opts).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn out_of_range_ids_quarantine_the_key() {
        // CRC-valid images whose carve must fail: the verified fault-in
        // passes the sweep, the carve rejects the id, and the key is
        // quarantined instead of serving (or panicking on) the file.
        let dir = tempdir("out-of-range");
        let catalog = SnapshotCatalog::open(&dir, CatalogOptions::default());
        catalog.publish("t", "clean", &sample_synopsis(1)).unwrap();
        let q = vec![parse_twig("for $t0 in //paper, $t1 in $t0/keyword").unwrap()];
        let opts = EstimateOptions::default();
        let images = crate::io::v3::out_of_range_images();
        for (field, bytes) in &images {
            // One tenant per image, so no tenant's breaker opens.
            let tenant = format!("t-{field}");
            let path = catalog.path_for(&tenant, "d");
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, bytes).unwrap();
            let err = catalog.serve(&tenant, "d", &q, &opts).unwrap_err();
            assert!(
                matches!(err, CatalogError::Quarantined { .. }),
                "{field}: {err}"
            );
            let reason = catalog.quarantine_reason(&tenant, "d").unwrap_or_default();
            assert!(
                reason.contains("out of range")
                    || reason.contains("end of")
                    || reason.contains("heads claim"),
                "{reason}"
            );
        }
        let stats = catalog.stats();
        assert_eq!(stats.quarantined, images.len() as u64, "{stats:?}");
        catalog.serve("t", "clean", &q, &opts).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn repeated_quarantined_requests_open_the_breaker() {
        let dir = tempdir("quarantine-breaker");
        let options = CatalogOptions::builder()
            .breaker(BreakerConfig {
                failure_threshold: 3,
                cooldown: std::time::Duration::from_secs(60),
            })
            .build();
        let catalog = SnapshotCatalog::open(&dir, options);
        let s = sample_synopsis(0);
        catalog.publish("t", "d", &s).unwrap();
        rot_snapshot(&catalog.path_for("t", "d"));
        let q = vec![parse_twig("for $t0 in //paper").unwrap()];
        let opts = EstimateOptions::default();
        for _ in 0..3 {
            let err = catalog.serve("t", "d", &q, &opts).unwrap_err();
            assert!(matches!(err, CatalogError::Quarantined { .. }), "{err}");
        }
        let err = catalog.serve("t", "d", &q, &opts).unwrap_err();
        assert!(matches!(err, CatalogError::BreakerOpen { .. }), "{err}");
        assert_eq!(catalog.breaker_state("t"), Some(BreakerState::Open));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rebuild_hook_recovers_corruption_in_place() {
        let dir = tempdir("rebuild");
        let catalog = SnapshotCatalog::open(&dir, CatalogOptions::default());
        let s = sample_synopsis(1);
        catalog.publish("t", "d", &s).unwrap();
        rot_snapshot(&catalog.path_for("t", "d"));
        let source = s.clone();
        catalog.set_rebuild_hook(Some(Arc::new(move |tenant: &str, document: &str| {
            (tenant == "t" && document == "d").then(|| source.clone())
        })));
        let q = vec![parse_twig("for $t0 in //paper, $t1 in $t0/kw").unwrap()];
        let opts = EstimateOptions::default();
        // The corrupt load is repaired transparently: same request,
        // correct answer, no quarantine.
        let served = catalog.serve("t", "d", &q, &opts).unwrap();
        let cs = CompiledSynopsis::compile(&s);
        let direct = BatchServer::new(&cs).serve(&q);
        assert_eq!(served[0].estimate.to_bits(), direct[0].estimate.to_bits());
        let stats = catalog.stats();
        assert_eq!(stats.rebuilds, 1, "{stats:?}");
        assert_eq!(stats.quarantined, 0, "{stats:?}");
        assert!(catalog.quarantine_reason("t", "d").is_none());
        // The rebuilt snapshot on disk is clean.
        let bytes = std::fs::read(catalog.path_for("t", "d")).unwrap();
        crate::io::v3::verify_snapshot_v3(&bytes).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_read_errors_are_retried_with_backoff() {
        use crate::io::vfs::{FaultVfs, VfsFaultPlan};
        let dir = tempdir("retry");
        let vfs = Arc::new(FaultVfs::over_std(VfsFaultPlan {
            seed: 42,
            read_error: 400,
            ..VfsFaultPlan::default()
        }));
        vfs.arm(false);
        let options = CatalogOptions::builder()
            .load_retries(16)
            .backoff(BackoffPolicy {
                base: std::time::Duration::from_micros(10),
                cap: std::time::Duration::from_micros(200),
                seed: 1,
            })
            .build();
        let catalog = SnapshotCatalog::open_in(
            &dir,
            options,
            Arc::clone(&vfs) as Arc<dyn crate::io::vfs::Vfs>,
        );
        let s = sample_synopsis(1);
        catalog.publish("t", "d", &s).unwrap();
        vfs.arm(true);
        let q = vec![parse_twig("for $t0 in //paper").unwrap()];
        let opts = EstimateOptions::default();
        // With a 40% injected EIO rate and 16 retries, the load must
        // eventually win (deterministically, per the seeded plan) and
        // the retry counter must show the transient failures absorbed.
        let mut stats = catalog.stats();
        for _ in 0..8 {
            catalog.invalidate("t", "d");
            catalog.serve("t", "d", &q, &opts).unwrap();
            stats = catalog.stats();
        }
        assert!(stats.load_retries > 0, "{stats:?}");
        assert_eq!(stats.quarantined, 0, "{stats:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_stat_is_retried_not_an_unknown_document() {
        use crate::io::vfs::{FaultVfs, VfsFaultPlan};
        let dir = tempdir("stat-fault");
        let vfs = Arc::new(FaultVfs::over_std(VfsFaultPlan {
            seed: 7,
            metadata_error: 1000,
            ..VfsFaultPlan::default()
        }));
        vfs.arm(false);
        let options = CatalogOptions::builder()
            .load_retries(3)
            .backoff(BackoffPolicy {
                base: std::time::Duration::from_micros(1),
                cap: std::time::Duration::from_micros(10),
                seed: 1,
            })
            .build();
        let catalog = SnapshotCatalog::open_in(
            &dir,
            options,
            Arc::clone(&vfs) as Arc<dyn crate::io::vfs::Vfs>,
        );
        catalog.publish("t", "d", &sample_synopsis(1)).unwrap();
        let q = vec![parse_twig("for $t0 in //paper").unwrap()];
        let opts = EstimateOptions::default();
        vfs.arm(true);
        // Every stat fails: the published key is not unknown, the
        // failure is transient I/O, and it burned the retry budget.
        let err = catalog.serve("t", "d", &q, &opts).unwrap_err();
        assert!(
            matches!(err, CatalogError::Snapshot(SnapshotError::Io { .. })),
            "{err}"
        );
        let stats = catalog.stats();
        assert_eq!(stats.load_retries, 3, "{stats:?}");
        assert_eq!(stats.quarantined, 0, "{stats:?}");
        // Healthy stats: the key serves, and a missing key is unknown.
        vfs.arm(false);
        catalog.serve("t", "d", &q, &opts).unwrap();
        let err = catalog.serve("t", "ghost", &q, &opts).unwrap_err();
        assert!(matches!(err, CatalogError::UnknownDocument { .. }), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_previous_layout_key_is_quarantined_or_rebuilt() {
        let dir = tempdir("previous-layout");
        let catalog = SnapshotCatalog::open(&dir, CatalogOptions::default());
        let image = crate::io::v3::previous_layout_image();
        let q = vec![parse_twig("for $t0 in //paper, $t1 in $t0/kw").unwrap()];
        let opts = EstimateOptions::default();
        for document in ["stale", "rebuilt"] {
            let path = catalog.path_for("t", document);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &image).unwrap();
        }
        let err = catalog.serve("t", "stale", &q, &opts).unwrap_err();
        assert!(matches!(err, CatalogError::Quarantined { .. }), "{err}");
        let reason = catalog.quarantine_reason("t", "stale").unwrap_or_default();
        assert!(reason.contains("expected 7 sections"), "{reason}");
        let s = sample_synopsis(2);
        let source = s.clone();
        catalog.set_rebuild_hook(Some(Arc::new(move |_: &str, document: &str| {
            (document == "rebuilt").then(|| source.clone())
        })));
        let served = catalog.serve("t", "rebuilt", &q, &opts).unwrap();
        let cs = CompiledSynopsis::compile(&s);
        let want = BatchServer::new(&cs).serve(&q)[0].estimate;
        assert_eq!(served[0].estimate.to_bits(), want.to_bits());
        assert_eq!(catalog.stats().rebuilds, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
