//! Exhaustive model-checked interleavings of the serving path's
//! shared-state protocols, run under `RUSTFLAGS="--cfg loom"`:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p xtwig-core --test loom --release
//! ```
//!
//! Each test explores *every* schedule of its threads up to the
//! preemption bound (`LOOM_MAX_PREEMPTIONS`, default 2), so an
//! assertion here is a proof over the sequentially consistent
//! interleaving space, not a sample like `tests/soak.rs`. The protocols
//! are the ones DESIGN.md §11 calls out as scary:
//!
//! 1. circuit breaker — trip → half-open probe → re-close/re-open
//!    under racing callers and racing failures;
//! 2. catalog slot — publish/invalidate vs. a concurrent fault-in (a
//!    fault-in that starts after `invalidate` returns never serves the
//!    old document), and epoch-stamped cache reads across a reload (no
//!    stale-epoch hit may ever be served);
//! 3. telemetry counters — saturation at the boundaries.
//!
//! Every model runs under one file-level lock (see [`serial`]), so the
//! suite is deterministic under libtest's default parallel threads.
#![cfg(loom)]

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Duration;

use loom::thread;
use xtwig_core::estimate::{EstimateOptions, EstimateReport, Provenance, QueryTelemetry};
use xtwig_core::io::vfs::{Vfs, VfsFile, VfsMetadata};
use xtwig_core::serve::breaker::{BreakerConfig, BreakerState, CircuitBreaker};
use xtwig_core::serve::{CatalogOptions, EstimateCache, ServeTier, SnapshotCatalog};
use xtwig_core::sync::atomic::{AtomicU64, Ordering};
use xtwig_core::sync::{Arc, PoisonError};
use xtwig_core::telemetry::{Counter, Gauge};
use xtwig_core::{coarse_synopsis, CompiledSynopsis};
use xtwig_query::{parse_twig, TwigQuery};

/// One model at a time. The breaker models count transitions in the
/// process-global telemetry registry through `Counter::add`'s CAS loop;
/// when libtest runs models on parallel threads, another model's
/// increments change how often that loop retries, the replayed
/// schedule diverges from the recorded one ("nondeterministic replay")
/// or the run hangs. Every model takes this lock first, so every
/// invocation — default threads or `--test-threads=1` — is
/// deterministic.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static MODELS: std::sync::Mutex<()> = std::sync::Mutex::new(());
    MODELS.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------
// 1. Circuit breaker: trip → half-open probe → re-close / re-open
// ---------------------------------------------------------------------

/// With the breaker open and the cooldown elapsed, exactly one of two
/// racing `try_acquire` callers wins the half-open probe; the winner's
/// success re-closes the breaker for everyone.
#[test]
fn breaker_grants_exactly_one_half_open_probe() {
    let _serial = serial();
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
    let _serial = serial();
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
// 2. Catalog slot: publish/invalidate vs. fault-in and cache reads
// ---------------------------------------------------------------------

/// An in-memory [`Vfs`], so each explored schedule re-publishes without
/// touching a disk. Its lock is `std`'s: no loom operation runs while
/// it is held, so it never becomes a schedule point.
#[derive(Debug, Clone, Default)]
struct MemVfs {
    files: std::sync::Arc<std::sync::Mutex<HashMap<PathBuf, Vec<u8>>>>,
}

impl MemVfs {
    fn with<R>(&self, f: impl FnOnce(&mut HashMap<PathBuf, Vec<u8>>) -> R) -> R {
        f(&mut self.files.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

#[derive(Debug)]
struct MemFile {
    vfs: MemVfs,
    path: PathBuf,
}

impl VfsFile for MemFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.vfs.with(|m| {
            m.entry(self.path.clone())
                .or_default()
                .extend_from_slice(buf)
        });
        Ok(())
    }
    fn sync_all(&mut self) -> io::Result<()> {
        Ok(())
    }
    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.vfs.with(|m| {
            m.entry(self.path.clone())
                .or_default()
                .resize(len as usize, 0)
        });
        Ok(())
    }
    fn size(&self) -> io::Result<u64> {
        Ok(self
            .vfs
            .with(|m| m.get(&self.path).map_or(0, |b| b.len() as u64)))
    }
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, path.display().to_string())
}

impl Vfs for MemVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.with(|m| m.get(path).cloned())
            .ok_or_else(|| not_found(path))
    }
    fn metadata(&self, path: &Path) -> io::Result<VfsMetadata> {
        self.with(|m| m.get(path).map(|b| b.len() as u64))
            .map(|len| VfsMetadata {
                len,
                is_dir: false,
                is_file: true,
            })
            .ok_or_else(|| not_found(path))
    }
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.with(|m| m.insert(path.to_path_buf(), Vec::new()));
        Ok(Box::new(MemFile {
            vfs: self.clone(),
            path: path.to_path_buf(),
        }))
    }
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(MemFile {
            vfs: self.clone(),
            path: path.to_path_buf(),
        }))
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let bytes = self
            .with(|m| m.remove(from))
            .ok_or_else(|| not_found(from))?;
        self.with(|m| m.insert(to.to_path_buf(), bytes));
        Ok(())
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.with(|m| m.remove(path))
            .map(|_| ())
            .ok_or_else(|| not_found(path))
    }
    fn create_dir_all(&self, _path: &Path) -> io::Result<()> {
        Ok(())
    }
    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        let mut out: Vec<PathBuf> = self.with(|m| {
            m.keys()
                .filter(|p| p.parent() == Some(path))
                .cloned()
                .collect()
        });
        out.sort();
        Ok(out)
    }
    fn fsync_dir(&self, _path: &Path) -> io::Result<()> {
        Ok(())
    }
}

/// A serving tier that reports which document its fault-in carved:
/// every query is answered with the resident synopsis's node count.
struct Probe(usize);

impl ServeTier for Probe {
    fn load(compiled: CompiledSynopsis<'static>, _options: &CatalogOptions) -> Probe {
        Probe(compiled.node_count())
    }

    fn serve(
        &self,
        queries: &[TwigQuery],
        _opts: &EstimateOptions,
        _threads: usize,
    ) -> Vec<EstimateReport> {
        queries
            .iter()
            .map(|_| EstimateReport {
                estimate: self.0 as f64,
                provenance: Provenance::new("probe"),
                telemetry: QueryTelemetry::default(),
                explain: None,
            })
            .collect()
    }
}

/// The node count of the document a fresh request to `t/d` is served.
fn served_nodes(catalog: &SnapshotCatalog<Probe>, q: &TwigQuery) -> usize {
    let reports = catalog
        .serve(
            "t",
            "d",
            std::slice::from_ref(q),
            &EstimateOptions::default(),
        )
        .expect("the key serves");
    reports[0].estimate as usize
}

/// The catalog slot protocol: `publish` writes the new snapshot, then
/// invalidates the resident copy under the slot lock, and a fault-in
/// reads and installs under that same lock. So once `invalidate` has
/// returned, a fault-in that starts afterwards never returns the old
/// document — even when a racing fault-in read the old bytes — across
/// every interleaving of a publisher and a concurrent reader.
#[test]
fn fault_in_after_invalidate_never_returns_the_old_document() {
    let _serial = serial();
    let old = coarse_synopsis(&xtwig_xml::parse("<a><b/></a>").unwrap());
    let new = coarse_synopsis(&xtwig_xml::parse("<a><b/><c/></a>").unwrap());
    let (old_nodes, new_nodes) = (old.node_count(), new.node_count());
    assert_ne!(old_nodes, new_nodes);
    let q = parse_twig("for $t0 in //a").unwrap();
    loom::model(move || {
        let catalog: Arc<SnapshotCatalog<Probe>> = Arc::new(SnapshotCatalog::open_tier(
            "/catalog",
            CatalogOptions::default(),
            std::sync::Arc::new(MemVfs::default()),
        ));
        // Published but cold: the reader's fault-in may read the old
        // bytes before the publisher writes the new ones.
        catalog.publish("t", "d", &old).unwrap();
        let reader = {
            let (catalog, q) = (Arc::clone(&catalog), q.clone());
            thread::spawn(move || served_nodes(&catalog, &q))
        };
        let publisher = {
            let (catalog, q, new) = (Arc::clone(&catalog), q.clone(), new.clone());
            thread::spawn(move || {
                catalog.publish("t", "d", &new).unwrap();
                served_nodes(&catalog, &q)
            })
        };
        let raced = reader.join().unwrap();
        let after = publisher.join().unwrap();
        assert!(raced == old_nodes || raced == new_nodes, "served {raced}");
        assert_eq!(
            after, new_nodes,
            "a fault-in after invalidate returned served the old document"
        );
        assert_eq!(served_nodes(&catalog, &q), new_nodes);
    });
}

/// No stale-epoch cache hit is ever served: whatever epoch the reader
/// observed, a hit must carry the value inserted at that same epoch,
/// across every interleaving with a racing republish (a fault-in mints
/// a new epoch and re-inserts).
#[test]
fn cache_never_serves_stale_epoch_hit_across_reload() {
    let _serial = serial();
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
// 3. Telemetry counters: saturation at the boundaries
// ---------------------------------------------------------------------

/// Racing adds near `u64::MAX` saturate instead of wrapping, and no
/// update is lost below the ceiling.
#[test]
fn counter_saturates_and_loses_no_update() {
    let _serial = serial();
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
    let _serial = serial();
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
