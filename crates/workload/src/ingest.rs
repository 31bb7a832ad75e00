//! Crash-safe incremental synopsis maintenance: the streaming-ingest
//! store that keeps a live document, its maintained synopsis, and a
//! delta write-ahead log durable across kills.
//!
//! ## Store layout and recovery contract
//!
//! An [`IngestStore`] owns a directory:
//!
//! ```text
//! CURRENT              manifest: "xtwig-store v1\ngen <g> <coarse|refined>"
//! doc-<g>.xml          the checkpointed document (atomic tmp+rename+fsync)
//! synopsis-<g>.xtwg    the checkpointed synopsis snapshot (CRC-framed)
//! deltas-<g>.wal       CRC-framed delta records appended since <g>
//! ```
//!
//! The commit point of every checkpoint is the atomic rewrite of
//! `CURRENT`; files of a generation are fully written and fsynced
//! *before* the flip, so a kill at any instant leaves `CURRENT`
//! pointing at a complete generation. Recovery ([`IngestStore::open`])
//! is a deterministic re-derivation: parse `doc-<g>.xml`, rebuild the
//! synopsis exactly as the checkpoint did (coarse label-split, plus the
//! seeded budgeted XBUILD pass when the manifest says `refined`), then
//! replay the WAL's durable prefix through
//! [`delta_xbuild`](xtwig_core::construct::delta_xbuild). A torn WAL
//! tail (partial frame or CRC failure from a mid-write kill) is
//! truncated, not an error: the store recovers to the last durable
//! delta — pre- or post-delta, never a torn hybrid. Because every step
//! is deterministic, the recovered synopsis is *bit-identical* to the
//! pre-kill in-memory state (the checkpoint snapshot is byte-compared
//! against the re-derivation as an integrity cross-check).
//!
//! ## Drift-triggered budgeted re-refinement
//!
//! Each applied delta feeds the
//! [`DriftMeter`](xtwig_core::construct::DriftMeter); once accumulated
//! drift crosses the threshold, the store re-derives a refined synopsis
//! under the bounded [`BuildOptions`] budget (the same work/deadline
//! `Meter` machinery the estimator uses). A refined synopsis that fails
//! validation or blows its size budget is **rolled back breaker-style**:
//! the maintained synopsis keeps serving, the failure is counted, and
//! the effective threshold backs off exponentially so a pathological
//! document cannot wedge ingest in a refine loop.
//!
//! Publication goes through the serving front door:
//! [`IngestStore::publish_to_catalog`] writes the maintained synopsis
//! as a v3 snapshot under a catalog key and invalidates the resident
//! copy, so the next request faults the new synopsis in under a fresh
//! compile epoch (which structurally invalidates epoch-stamped
//! `EstimateCache` entries). In-flight requests finish on the document
//! they already hold.

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use xtwig_core::coarse::{coarse_synopsis_with, CoarseOptions};
use xtwig_core::construct::{
    delta_xbuild, xbuild_from, BuildOptions, DeltaBuildOptions, DeltaBuildReport, DriftMeter,
    TruthSource,
};
use xtwig_core::io::vfs::{StdVfs, Vfs};
use xtwig_core::io::wal::{decode_delta, encode_delta, read_wal_in, WalWriter};
use xtwig_core::io::{
    save_synopsis, write_bytes_atomic_in, write_snapshot_atomic_in, SnapshotError,
};
use xtwig_core::telemetry;
use xtwig_core::validate::{validate, FsckReport};
use xtwig_core::{CatalogError, ServeTier, SnapshotCatalog, Synopsis};
use xtwig_xml::{
    apply_delta, parse, write_xml, Delta, DeltaError, Document, DocumentBuilder, StreamError,
};

use crate::guarded::GuardedCatalog;

/// How a checkpoint's synopsis was derived — recorded in the manifest
/// so recovery re-derives the identical synopsis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointKind {
    /// Label-split coarsest synopsis (periodic checkpoints).
    Coarse,
    /// Coarse plus the seeded budgeted XBUILD refinement pass
    /// (drift-triggered checkpoints).
    Refined,
}

impl fmt::Display for CheckpointKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointKind::Coarse => write!(f, "coarse"),
            CheckpointKind::Refined => write!(f, "refined"),
        }
    }
}

/// A deterministic kill site inside [`IngestStore::ingest`]. Armed via
/// [`IngestStore::set_crash`]; when the protocol reaches the armed
/// point, the call stops exactly as a `kill -9` there would — on-disk
/// state is whatever was already durable — and returns
/// [`IngestError::Crash`]. The store must then be dropped and
/// [`opened`](IngestStore::open) again (the recovery a restart performs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Before the delta is appended to the WAL (nothing durable).
    BeforeWalAppend,
    /// After the WAL append fsyncs (the delta is durable, memory is not).
    AfterWalAppend,
    /// Mid-append: a partial frame reaches the disk (torn write).
    TornWalAppend,
    /// After the next generation's files are written but before the
    /// `CURRENT` flip commits them (the checkpoint must vanish).
    AfterCheckpointFiles,
    /// After the `CURRENT` flip but before old-generation cleanup (the
    /// checkpoint must survive; the orphans must be swept).
    AfterCurrentFlip,
}

impl fmt::Display for CrashPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            CrashPoint::BeforeWalAppend => "before-wal-append",
            CrashPoint::AfterWalAppend => "after-wal-append",
            CrashPoint::TornWalAppend => "torn-wal-append",
            CrashPoint::AfterCheckpointFiles => "after-checkpoint-files",
            CrashPoint::AfterCurrentFlip => "after-current-flip",
        };
        write!(f, "{name}")
    }
}

/// Every kill site, in protocol order (used by soaks to cycle coverage).
pub const CRASH_POINTS: [CrashPoint; 5] = [
    CrashPoint::BeforeWalAppend,
    CrashPoint::AfterWalAppend,
    CrashPoint::TornWalAppend,
    CrashPoint::AfterCheckpointFiles,
    CrashPoint::AfterCurrentFlip,
];

/// An ingest-store failure.
#[derive(Debug)]
pub enum IngestError {
    /// A filesystem operation failed.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A snapshot/WAL codec operation failed.
    Snapshot {
        /// The path involved.
        path: PathBuf,
        /// The underlying typed error.
        source: SnapshotError,
    },
    /// A delta did not apply to the current document (this includes an
    /// insert that would nest elements past the parser's depth limit).
    Delta(DeltaError),
    /// A document failed to parse under the parser's limits: the
    /// checkpointed document on recovery, or the canonicalizing
    /// round-trip at create or checkpoint time.
    Doc {
        /// The document path.
        path: PathBuf,
        /// The parser's typed error.
        source: StreamError,
    },
    /// The store directory or manifest is not a valid ingest store.
    Store(String),
    /// An armed [`CrashPoint`] fired (simulated kill; drop and re-open).
    Crash(CrashPoint),
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Io { path, source } => write!(f, "{}: {source}", path.display()),
            IngestError::Snapshot { path, source } => write!(f, "{}: {source}", path.display()),
            IngestError::Delta(e) => write!(f, "delta rejected: {e}"),
            IngestError::Doc { path, source } => write!(f, "{}: {source}", path.display()),
            IngestError::Store(msg) => write!(f, "not a valid ingest store: {msg}"),
            IngestError::Crash(p) => write!(f, "simulated crash at {p}"),
        }
    }
}

impl From<DeltaError> for IngestError {
    fn from(e: DeltaError) -> IngestError {
        IngestError::Delta(e)
    }
}

/// Ingest tuning. `delta.drift_threshold` is the *base* refine trigger;
/// rejected refinements double the effective threshold (capped by
/// `max_refine_backoff`) until one installs.
#[derive(Debug, Clone)]
pub struct IngestOptions {
    /// Incremental-maintenance budgets and the base drift threshold.
    pub delta: DeltaBuildOptions,
    /// Take a coarse checkpoint after this many deltas without a
    /// drift-triggered one (0 disables periodic checkpoints).
    pub checkpoint_every: usize,
    /// The budgeted XBUILD pass run at drift-triggered checkpoints.
    /// Must be identical across [`create`](IngestStore::create) and
    /// [`open`](IngestStore::open) — recovery re-runs it verbatim.
    pub refine: BuildOptions,
    /// A refined synopsis larger than `refine.budget_bytes × slack` is
    /// rejected (rolled back) instead of installed.
    pub refine_size_slack: f64,
    /// Cap on the exponential threshold backoff after rejected
    /// refinements (`threshold × 2^failures`).
    pub max_refine_backoff: u32,
}

impl Default for IngestOptions {
    fn default() -> IngestOptions {
        IngestOptions {
            delta: DeltaBuildOptions::default(),
            checkpoint_every: 64,
            refine: BuildOptions {
                budget_bytes: 64 * 1024,
                candidates_per_round: 6,
                sample_queries: 8,
                refinements_per_round: 2,
                max_rounds: 32,
                ..Default::default()
            },
            refine_size_slack: 2.0,
            max_refine_backoff: 6,
        }
    }
}

/// Monotonic per-store counters (process lifetime, not persisted).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Deltas applied to the maintained synopsis.
    pub deltas_applied: u64,
    /// Delta records appended (fsynced) to the WAL.
    pub wal_appends: u64,
    /// Checkpoints committed (generation advanced).
    pub checkpoints: u64,
    /// Drift-triggered refinements installed.
    pub refinements: u64,
    /// Refinements rejected and rolled back.
    pub refine_rollbacks: u64,
    /// Deltas that forced a full partition rebuild (emptied group).
    pub full_rebuilds: u64,
    /// Recoveries performed (1 after a successful [`IngestStore::open`]).
    pub recoveries: u64,
    /// WAL records replayed during recovery.
    pub replayed_records: u64,
    /// Torn WAL tails truncated during recovery.
    pub torn_tails: u64,
}

/// What [`IngestStore::open`] found and did.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// The generation `CURRENT` committed.
    pub generation: u64,
    /// How that generation's synopsis was derived.
    pub kind: CheckpointKind,
    /// Durable WAL records replayed on top of the checkpoint.
    pub replayed: usize,
    /// A torn WAL tail was detected and truncated.
    pub torn_tail: bool,
    /// The checkpoint snapshot byte-matched the re-derived synopsis.
    pub snapshot_verified: bool,
    /// The checkpoint snapshot was unreadable or corrupt; the
    /// re-derivation (which is authoritative) served as recovery.
    pub rebuilt_snapshot: bool,
    /// The refined re-derivation fell back to coarse (should not happen
    /// for a store written by this code; counted as degraded).
    pub refine_fallback: bool,
}

impl RecoveryReport {
    /// Whether recovery was clean: snapshot verified, no fallback. A
    /// torn tail does *not* degrade a recovery — truncating it is the
    /// contract.
    pub fn clean(&self) -> bool {
        self.snapshot_verified && !self.rebuilt_snapshot && !self.refine_fallback
    }
}

/// What one [`IngestStore::ingest`] call did.
#[derive(Debug, Clone)]
pub struct IngestReport {
    /// The incremental-maintenance report.
    pub build: DeltaBuildReport,
    /// The checkpoint taken, if any.
    pub checkpoint: Option<CheckpointKind>,
    /// A drift-triggered refinement was computed, rejected, and rolled
    /// back (the maintained synopsis kept serving).
    pub refine_rolled_back: bool,
}

fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("CURRENT")
}

fn doc_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("doc-{generation}.xml"))
}

fn snap_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("synopsis-{generation}.xtwg"))
}

fn wal_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("deltas-{generation}.wal"))
}

const MANIFEST_HEADER: &str = "xtwig-store v1";

fn manifest_bytes(generation: u64, kind: CheckpointKind) -> Vec<u8> {
    format!("{MANIFEST_HEADER}\ngen {generation} {kind}\n").into_bytes()
}

fn parse_manifest(text: &str) -> Result<(u64, CheckpointKind), IngestError> {
    let mut lines = text.lines();
    if lines.next() != Some(MANIFEST_HEADER) {
        return Err(IngestError::Store("bad manifest header".into()));
    }
    let line = lines
        .next()
        .ok_or_else(|| IngestError::Store("manifest missing gen line".into()))?;
    let mut parts = line.split_whitespace();
    match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some("gen"), Some(g), Some(kind), None) => {
            let generation: u64 = g
                .parse()
                .map_err(|_| IngestError::Store(format!("bad generation `{g}`")))?;
            let kind = match kind {
                "coarse" => CheckpointKind::Coarse,
                "refined" => CheckpointKind::Refined,
                other => return Err(IngestError::Store(format!("bad checkpoint kind `{other}`"))),
            };
            Ok((generation, kind))
        }
        _ => Err(IngestError::Store(format!("bad manifest line `{line}`"))),
    }
}

fn coarse_opts(options: &IngestOptions) -> CoarseOptions {
    CoarseOptions {
        edge_hist_budget: options.delta.edge_hist_budget,
        value_budget: options.delta.value_budget,
    }
}

/// Re-derives a checkpoint's synopsis from its document. Deterministic:
/// recovery calls this with the same inputs the checkpoint used and gets
/// the same bytes. Returns the synopsis and whether a refined derivation
/// had to fall back to coarse.
fn derive_synopsis(
    doc: &Document,
    kind: CheckpointKind,
    options: &IngestOptions,
) -> (Synopsis, bool) {
    let coarse = coarse_synopsis_with(doc, coarse_opts(options));
    match kind {
        CheckpointKind::Coarse => (coarse, false),
        CheckpointKind::Refined => {
            let (refined, _) =
                xbuild_from(coarse.clone(), doc, TruthSource::Exact, &options.refine);
            if refine_acceptable(&refined, options) {
                (refined, false)
            } else {
                (coarse, true)
            }
        }
    }
}

fn refine_acceptable(refined: &Synopsis, options: &IngestOptions) -> bool {
    let cap = (options.refine.budget_bytes as f64 * options.refine_size_slack.max(1.0)) as usize;
    validate(refined).is_ok() && refined.size_bytes() <= cap
}

/// `doc` canonicalized through the serialize→parse roundtrip, with its
/// text: exactly what recovery reconstructs from the document file at
/// `path` (the parser drops non-leaf values; node ids renumber in
/// document order). A document the parser refuses fails here, before it
/// can be checkpointed.
fn canonicalize(doc: &Document, path: PathBuf) -> Result<(String, Document), IngestError> {
    let xml = write_xml(doc);
    let canon = parse(&xml).map_err(|source| IngestError::Doc { path, source })?;
    Ok((xml, canon))
}

/// A durable, crash-safe ingest store (see the module docs for the
/// layout, commit protocol, and recovery contract).
pub struct IngestStore {
    vfs: Arc<dyn Vfs>,
    dir: PathBuf,
    options: IngestOptions,
    generation: u64,
    doc: Document,
    synopsis: Synopsis,
    drift: DriftMeter,
    wal: WalWriter,
    since_checkpoint: usize,
    refine_failures: u32,
    crash: Option<CrashPoint>,
    stats: IngestStats,
    last_recovery: Option<RecoveryReport>,
}

impl fmt::Debug for IngestStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IngestStore")
            .field("dir", &self.dir)
            .field("generation", &self.generation)
            .field("doc_len", &self.doc.len())
            .field("since_checkpoint", &self.since_checkpoint)
            .field("stats", &self.stats)
            .finish()
    }
}

impl IngestStore {
    /// Creates a fresh store in `dir` (created if missing; must not
    /// already contain a store) seeded with `doc` at generation 0 with a
    /// coarse checkpoint.
    pub fn create(
        dir: &Path,
        doc: Document,
        options: IngestOptions,
    ) -> Result<IngestStore, IngestError> {
        IngestStore::create_in(Arc::new(StdVfs), dir, doc, options)
    }

    /// [`create`](IngestStore::create) with every disk touch routed
    /// through `vfs` — the hook the storage-chaos soak uses to inject
    /// write/fsync/rename faults into the commit protocol.
    pub fn create_in(
        vfs: Arc<dyn Vfs>,
        dir: &Path,
        doc: Document,
        options: IngestOptions,
    ) -> Result<IngestStore, IngestError> {
        // Canonicalize before touching the disk, so a document the parser
        // refuses (nested past its depth limit, say) writes nothing.
        let (xml, doc) = canonicalize(&doc, doc_path(dir, 0))?;
        vfs.create_dir_all(dir).map_err(|source| IngestError::Io {
            path: dir.to_path_buf(),
            source,
        })?;
        // Stat the manifest once: only `NotFound` means the directory
        // holds no store; any other stat failure is a typed I/O error,
        // never a licence to write a fresh store over an existing one.
        let manifest = manifest_path(dir);
        match vfs.metadata(&manifest) {
            Ok(_) => {
                return Err(IngestError::Store(format!(
                    "{} already holds a store",
                    dir.display()
                )))
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(source) => {
                return Err(IngestError::Io {
                    path: manifest,
                    source,
                })
            }
        }
        let (synopsis, _) = derive_synopsis(&doc, CheckpointKind::Coarse, &options);
        write_bytes_atomic_in(&*vfs, &doc_path(dir, 0), xml.as_bytes()).map_err(|source| {
            IngestError::Snapshot {
                path: doc_path(dir, 0),
                source,
            }
        })?;
        write_snapshot_atomic_in(&*vfs, &snap_path(dir, 0), &synopsis).map_err(|source| {
            IngestError::Snapshot {
                path: snap_path(dir, 0),
                source,
            }
        })?;
        let wal = WalWriter::create_in(Arc::clone(&vfs), &wal_path(dir, 0)).map_err(|source| {
            IngestError::Snapshot {
                path: wal_path(dir, 0),
                source,
            }
        })?;
        // The manifest write is the commit point: a kill before this line
        // leaves no CURRENT, and open() reports "not a store".
        write_bytes_atomic_in(&*vfs, &manifest, &manifest_bytes(0, CheckpointKind::Coarse))
            .map_err(|source| IngestError::Snapshot {
                path: manifest,
                source,
            })?;
        Ok(IngestStore {
            vfs,
            dir: dir.to_path_buf(),
            options,
            generation: 0,
            doc,
            synopsis,
            drift: DriftMeter::new(),
            wal,
            since_checkpoint: 0,
            refine_failures: 0,
            crash: None,
            stats: IngestStats::default(),
            last_recovery: None,
        })
    }

    /// Opens an existing store, running the recovery state machine:
    /// manifest → checkpoint re-derivation → snapshot cross-check → WAL
    /// replay (torn tail truncated) → orphan sweep. `options` must match
    /// the ones the store was written with (the refined re-derivation is
    /// replayed verbatim).
    pub fn open(dir: &Path, options: IngestOptions) -> Result<IngestStore, IngestError> {
        IngestStore::open_in(Arc::new(StdVfs), dir, options)
    }

    /// [`open`](IngestStore::open) with every disk touch routed through
    /// `vfs`, so recovery itself can run under fault injection.
    pub fn open_in(
        vfs: Arc<dyn Vfs>,
        dir: &Path,
        options: IngestOptions,
    ) -> Result<IngestStore, IngestError> {
        let tg = telemetry::global();
        let read_utf8 = |path: &Path| -> Result<String, IngestError> {
            let bytes = vfs.read(path).map_err(|source| IngestError::Io {
                path: path.to_path_buf(),
                source,
            })?;
            String::from_utf8(bytes).map_err(|e| IngestError::Io {
                path: path.to_path_buf(),
                source: std::io::Error::new(std::io::ErrorKind::InvalidData, e),
            })
        };
        let manifest = manifest_path(dir);
        let text = read_utf8(&manifest)?;
        let (generation, kind) = parse_manifest(&text)?;

        let dpath = doc_path(dir, generation);
        let xml = read_utf8(&dpath)?;
        let doc = parse(&xml).map_err(|source| IngestError::Doc {
            path: dpath,
            source,
        })?;

        let (synopsis, refine_fallback) = derive_synopsis(&doc, kind, &options);

        // Integrity cross-check: the checkpoint snapshot must be byte-
        // identical to the re-derivation. The re-derivation is
        // authoritative either way — a corrupt or torn snapshot file
        // degrades the recovery report, never the recovered state.
        let spath = snap_path(dir, generation);
        let (snapshot_verified, rebuilt_snapshot) = match vfs.read(&spath) {
            Ok(bytes) => (bytes == save_synopsis(&synopsis), false),
            Err(_) => (false, true),
        };

        let wpath = wal_path(dir, generation);
        let replay = read_wal_in(&*vfs, &wpath).map_err(|source| IngestError::Snapshot {
            path: wpath.clone(),
            source,
        })?;
        let torn_tail = replay.torn.is_some();
        // Truncates the torn tail so appends resume after the durable
        // prefix.
        let wal = WalWriter::open_append_in(Arc::clone(&vfs), &wpath).map_err(|source| {
            IngestError::Snapshot {
                path: wpath.clone(),
                source,
            }
        })?;

        let mut store = IngestStore {
            vfs,
            dir: dir.to_path_buf(),
            options,
            generation,
            doc,
            synopsis,
            drift: DriftMeter::new(),
            wal,
            since_checkpoint: 0,
            refine_failures: 0,
            crash: None,
            stats: IngestStats::default(),
            last_recovery: None,
        };

        let mut replayed = 0usize;
        for record in &replay.records {
            let delta = decode_delta(record).map_err(|source| IngestError::Snapshot {
                path: wpath.clone(),
                source,
            })?;
            let outcome = delta_xbuild(
                &mut store.synopsis,
                &store.doc,
                &delta,
                &mut store.drift,
                &store.options.delta,
            )?;
            if outcome.report.full_rebuild {
                store.stats.full_rebuilds += 1;
            }
            store.doc = outcome.doc;
            replayed += 1;
        }
        store.since_checkpoint = replayed;
        store.stats.recoveries = 1;
        store.stats.replayed_records = replayed as u64;
        store.stats.torn_tails = u64::from(torn_tail);
        tg.ingest_recoveries.incr();
        tg.ingest_replayed_records.add(replayed as u64);
        if torn_tail {
            tg.ingest_torn_tails.incr();
        }
        tg.ingest_wal_records.set(store.wal.records());
        tg.drift_total_milli
            .set((store.drift.total() * 1000.0) as u64);

        store.sweep_orphans();
        store.last_recovery = Some(RecoveryReport {
            generation,
            kind,
            replayed,
            torn_tail,
            snapshot_verified,
            rebuilt_snapshot,
            refine_fallback,
        });
        Ok(store)
    }

    /// Best-effort removal of files from non-current generations (left
    /// behind by a kill between the `CURRENT` flip and cleanup).
    fn sweep_orphans(&self) {
        let Ok(entries) = self.vfs.read_dir(&self.dir) else {
            return;
        };
        let keep = [
            doc_path(&self.dir, self.generation),
            snap_path(&self.dir, self.generation),
            wal_path(&self.dir, self.generation),
            manifest_path(&self.dir),
        ];
        for path in entries {
            let Some(name) = path.file_name() else {
                continue;
            };
            let name = name.to_string_lossy();
            let is_store_file = name.starts_with("doc-")
                || name.starts_with("synopsis-")
                || name.starts_with("deltas-");
            if is_store_file && !keep.contains(&path) {
                let _ = self.vfs.remove_file(&path);
            }
        }
    }

    /// Arms (or clears) a one-shot simulated kill; the next time the
    /// ingest protocol reaches the point, it fires and is consumed.
    pub fn set_crash(&mut self, point: Option<CrashPoint>) {
        self.crash = point;
    }

    fn crash_if_armed(&mut self, point: CrashPoint) -> Result<(), IngestError> {
        if self.crash == Some(point) {
            self.crash = None;
            return Err(IngestError::Crash(point));
        }
        Ok(())
    }

    /// The effective drift threshold under breaker-style backoff.
    pub fn effective_drift_threshold(&self) -> f64 {
        let exp = self.refine_failures.min(self.options.max_refine_backoff);
        self.options.delta.drift_threshold * f64::from(1u32 << exp)
    }

    /// Durably applies one delta: WAL append (fsync) → incremental
    /// maintenance → drift accounting → checkpoint when the drift
    /// threshold or the periodic limit is reached. On `Err` the
    /// in-memory state is unchanged except for [`IngestError::Crash`],
    /// after which the store must be dropped and re-opened.
    pub fn ingest(&mut self, delta: &Delta) -> Result<IngestReport, IngestError> {
        let tg = telemetry::global();
        // Canonicalize through the WAL codec FIRST: replay applies the
        // decoded record, so memory must apply the identical form (e.g.
        // a subtree root's non-leaf value drops in XML transit — the
        // decoded insert is the authoritative one).
        let payload = encode_delta(delta);
        let delta = decode_delta(&payload).map_err(|source| IngestError::Snapshot {
            path: self.wal.path().to_path_buf(),
            source,
        })?;
        // Validate against the current document *before* the append so a
        // malformed delta can never enter the durable log. That includes
        // an insert nesting past the parser's depth limit: journaled, it
        // would make every later checkpoint fail to parse its document.
        apply_delta(&self.doc, &delta)?;

        self.crash_if_armed(CrashPoint::BeforeWalAppend)?;
        if self.crash == Some(CrashPoint::TornWalAppend) {
            self.crash = None;
            self.torn_append(&payload)?;
            return Err(IngestError::Crash(CrashPoint::TornWalAppend));
        }
        self.wal
            .append(&payload)
            .map_err(|source| IngestError::Snapshot {
                path: self.wal.path().to_path_buf(),
                source,
            })?;
        self.stats.wal_appends += 1;
        tg.ingest_wal_appends.incr();
        tg.ingest_wal_records.set(self.wal.records());
        self.crash_if_armed(CrashPoint::AfterWalAppend)?;

        let mut delta_opts = self.options.delta;
        delta_opts.drift_threshold = self.effective_drift_threshold();
        let outcome = delta_xbuild(
            &mut self.synopsis,
            &self.doc,
            &delta,
            &mut self.drift,
            &delta_opts,
        )?;
        self.doc = outcome.doc;
        self.since_checkpoint += 1;
        self.stats.deltas_applied += 1;
        tg.ingest_deltas_applied.incr();
        if outcome.report.full_rebuild {
            self.stats.full_rebuilds += 1;
            tg.ingest_full_rebuilds.incr();
        }
        tg.drift_total_milli
            .set((self.drift.total() * 1000.0) as u64);

        let mut report = IngestReport {
            build: outcome.report,
            checkpoint: None,
            refine_rolled_back: false,
        };

        if report.build.needs_refine {
            // Drift-triggered budgeted re-refinement: canonicalize,
            // derive, vet, install + checkpoint — or roll back
            // breaker-style (doc and synopsis untouched on rollback).
            let (xml, canon) = canonicalize(&self.doc, doc_path(&self.dir, self.generation + 1))?;
            let (candidate, fell_back) =
                derive_synopsis(&canon, CheckpointKind::Refined, &self.options);
            if fell_back {
                self.refine_failures =
                    (self.refine_failures + 1).min(self.options.max_refine_backoff);
                self.stats.refine_rollbacks += 1;
                tg.drift_refine_rollbacks.incr();
                report.refine_rolled_back = true;
            } else {
                self.doc = canon;
                self.synopsis = candidate;
                self.checkpoint(CheckpointKind::Refined, &xml)?;
                self.refine_failures = 0;
                self.stats.refinements += 1;
                tg.drift_refinements.incr();
                report.checkpoint = Some(CheckpointKind::Refined);
            }
        } else if self.options.checkpoint_every > 0
            && self.since_checkpoint >= self.options.checkpoint_every
        {
            let (xml, canon) = canonicalize(&self.doc, doc_path(&self.dir, self.generation + 1))?;
            let (rebuilt, _) = derive_synopsis(&canon, CheckpointKind::Coarse, &self.options);
            self.doc = canon;
            self.synopsis = rebuilt;
            self.checkpoint(CheckpointKind::Coarse, &xml)?;
            report.checkpoint = Some(CheckpointKind::Coarse);
        }
        Ok(report)
    }

    /// Simulates a torn write: half a frame reaches the WAL file, as a
    /// kill mid-`write` would leave it. Recovery must truncate it.
    fn torn_append(&mut self, payload: &[u8]) -> Result<(), IngestError> {
        let mut frame = Vec::with_capacity(6);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&payload[..payload.len().min(2)]);
        let mut f = self
            .vfs
            .open_append(self.wal.path())
            .map_err(|source| IngestError::Io {
                path: self.wal.path().to_path_buf(),
                source,
            })?;
        f.write_all(&frame).map_err(|source| IngestError::Io {
            path: self.wal.path().to_path_buf(),
            source,
        })?;
        let _ = f.sync_all();
        Ok(())
    }

    /// Commits the current `(doc, synopsis)` as generation `g+1`: write
    /// all files, fsync, flip `CURRENT`, sweep the old generation. The
    /// flip is the commit point.
    fn checkpoint(&mut self, kind: CheckpointKind, xml: &str) -> Result<(), IngestError> {
        let tg = telemetry::global();
        let next = self.generation + 1;
        write_bytes_atomic_in(&*self.vfs, &doc_path(&self.dir, next), xml.as_bytes()).map_err(
            |source| IngestError::Snapshot {
                path: doc_path(&self.dir, next),
                source,
            },
        )?;
        write_snapshot_atomic_in(&*self.vfs, &snap_path(&self.dir, next), &self.synopsis).map_err(
            |source| IngestError::Snapshot {
                path: snap_path(&self.dir, next),
                source,
            },
        )?;
        let wal = WalWriter::create_in(Arc::clone(&self.vfs), &wal_path(&self.dir, next)).map_err(
            |source| IngestError::Snapshot {
                path: wal_path(&self.dir, next),
                source,
            },
        )?;
        self.crash_if_armed(CrashPoint::AfterCheckpointFiles)?;
        write_bytes_atomic_in(
            &*self.vfs,
            &manifest_path(&self.dir),
            &manifest_bytes(next, kind),
        )
        .map_err(|source| IngestError::Snapshot {
            path: manifest_path(&self.dir),
            source,
        })?;
        let old = self.generation;
        self.generation = next;
        self.wal = wal;
        self.since_checkpoint = 0;
        self.drift.reset();
        self.stats.checkpoints += 1;
        tg.ingest_checkpoints.incr();
        tg.ingest_wal_records.set(0);
        tg.drift_total_milli.set(0);
        self.crash_if_armed(CrashPoint::AfterCurrentFlip)?;
        let _ = self.vfs.remove_file(&doc_path(&self.dir, old));
        let _ = self.vfs.remove_file(&snap_path(&self.dir, old));
        let _ = self.vfs.remove_file(&wal_path(&self.dir, old));
        Ok(())
    }

    /// Publishes the maintained synopsis into a multi-tenant
    /// [`SnapshotCatalog`] as a format-v3 snapshot under
    /// `(tenant, document)`, atomically installing the file and
    /// invalidating any resident copy. Returns the snapshot size in
    /// bytes.
    pub fn publish_to_catalog<T: ServeTier>(
        &self,
        catalog: &SnapshotCatalog<T>,
        tenant: &str,
        document: &str,
    ) -> Result<u64, CatalogError> {
        catalog.publish(tenant, document, &self.synopsis)
    }

    /// The maintained synopsis serialized as CRC-framed snapshot bytes.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        save_synopsis(&self.synopsis)
    }

    /// Runs the full structural fsck over the maintained synopsis.
    pub fn fsck(&self) -> Result<(), FsckReport> {
        xtwig_core::fsck(&self.synopsis)
    }

    /// The live document.
    pub fn doc(&self) -> &Document {
        &self.doc
    }

    /// The maintained synopsis.
    pub fn synopsis(&self) -> &Synopsis {
        &self.synopsis
    }

    /// The committed generation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Accumulated drift since the last checkpoint.
    pub fn drift_total(&self) -> f64 {
        self.drift.total()
    }

    /// Deltas applied since the last checkpoint (the WAL's logical
    /// length).
    pub fn since_checkpoint(&self) -> usize {
        self.since_checkpoint
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> IngestStats {
        self.stats
    }

    /// The recovery report, when this store was [`open`](IngestStore::open)ed.
    pub fn last_recovery(&self) -> Option<&RecoveryReport> {
        self.last_recovery.as_ref()
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

/// A seeded random document delta for soak/mutation testing: small
/// subtree inserts under random parents, bounded subtree deletes, and
/// value modifications, with label names drawn from the document's own
/// tag set. Biased against shrinking tiny documents or growing huge
/// ones.
pub fn random_delta(doc: &Document, rng: &mut StdRng) -> Delta {
    let mut delta = Delta::new();
    let pick_node = |rng: &mut StdRng| doc.nodes().nth(rng.random_range(0..doc.len()));
    // Attribute nodes carry `@`-prefixed labels and are serialized on
    // their parent's start tag, so they can neither anchor an inserted
    // subtree (their children would be dropped on write-out) nor name
    // one of its elements (`@` is not a legal element-name start).
    let pick_parent = |rng: &mut StdRng| {
        pick_node(rng).map(|n| {
            if doc.tag(n).starts_with('@') {
                doc.root()
            } else {
                n
            }
        })
    };
    let element_tags: Vec<&str> = (0..doc.labels().len())
        .map(|i| doc.labels().name(xtwig_xml::LabelId(i as u16)))
        .filter(|t| !t.starts_with('@'))
        .collect();
    let pick_tag =
        |rng: &mut StdRng| element_tags[rng.random_range(0..element_tags.len())].to_string();
    let kind = if doc.len() > 400 {
        2 // bias to delete when large
    } else if doc.len() < 8 {
        0 // bias to insert when tiny
    } else {
        rng.random_range(0..4u32).min(2)
    };
    match kind {
        0 => {
            let Some(parent) = pick_parent(rng) else {
                return delta;
            };
            let mut b = DocumentBuilder::new();
            let root_tag = pick_tag(rng);
            b.open(
                &root_tag,
                rng.random_range(0..4u32)
                    .eq(&0)
                    .then(|| rng.random_range(0..1000i64)),
            );
            for _ in 0..rng.random_range(0..3u32) {
                let tag = pick_tag(rng);
                b.leaf(&tag, None);
            }
            b.close();
            delta.insert(parent, b.finish());
        }
        1 => {
            let Some(target) = pick_node(rng) else {
                return delta;
            };
            let value = rng
                .random_range(0..3u32)
                .ne(&0)
                .then(|| rng.random_range(0..1000i64));
            delta.modify(target, value);
        }
        _ => {
            // Bounded delete: a non-root node with a small subtree.
            let candidate = doc
                .nodes()
                .skip(1)
                .filter(|&n| doc.descendants(n).count() <= 6)
                .nth(rng.random_range(0..doc.len().max(1)).min(7));
            match candidate {
                Some(target) => {
                    delta.delete(target);
                }
                None => {
                    if let Some(target) = pick_node(rng) {
                        delta.modify(target, Some(rng.random_range(0..1000i64)));
                    }
                }
            }
        }
    }
    delta
}

/// The aggregate result of a kill-and-recover ingest soak
/// ([`run_ingest_soak`]). [`passed`](IngestSoakReport::passed) is the
/// acceptance bar.
#[derive(Debug, Clone)]
pub struct IngestSoakReport {
    /// Simulated kills that actually fired.
    pub kills: u64,
    /// Deltas applied cleanly (no kill).
    pub clean_deltas: u64,
    /// Recoveries where `open` failed outright (must be 0).
    pub recovery_failures: u64,
    /// Recoveries whose synopsis was neither the pre-delta nor the
    /// post-delta state (must be 0).
    pub state_mismatches: u64,
    /// Recoveries whose synopsis failed fsck (must be 0).
    pub fsck_failures: u64,
    /// Torn WAL tails detected and truncated across recoveries.
    pub torn_tails: u64,
    /// WAL records replayed across recoveries.
    pub replayed: u64,
    /// Checkpoints committed across the run.
    pub checkpoints: u64,
    /// Drift-triggered refinements installed across the run.
    pub refinements: u64,
    /// Refinements rolled back across the run.
    pub refine_rollbacks: u64,
    /// Publications the catalog rejected (must be 0 — every recovered
    /// synopsis is fsck-clean and the catalog directory is healthy).
    pub publish_failures: u64,
    /// The last recovered/maintained snapshot bytes (the serving
    /// reference for post-soak bit-identity).
    pub final_snapshot: Vec<u8>,
}

impl IngestSoakReport {
    /// Whether every crash-safety invariant held.
    pub fn passed(&self) -> bool {
        self.recovery_failures == 0
            && self.state_mismatches == 0
            && self.fsck_failures == 0
            && self.publish_failures == 0
    }
}

impl fmt::Display for IngestSoakReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ingest soak: {} kills, {} clean deltas, {} recovery failures, \
             {} state mismatches, {} fsck failures, {} torn tails truncated, \
             {} replayed, {} checkpoints, {} refinements ({} rolled back), \
             {} publish failures",
            self.kills,
            self.clean_deltas,
            self.recovery_failures,
            self.state_mismatches,
            self.fsck_failures,
            self.torn_tails,
            self.replayed,
            self.checkpoints,
            self.refinements,
            self.refine_rollbacks,
            self.publish_failures,
        )
    }
}

/// Runs a kill-and-recover soak: seeds a store with `doc` in `dir`
/// (wiped first), then repeatedly ingests seeded random deltas with a
/// simulated kill armed at a cycling [`CrashPoint`], recovering after
/// every kill until `kills` of them have fired. After each recovery the
/// store must be fsck-clean and byte-identical to the pre-delta or
/// post-delta synopsis (kills at a checkpoint's commit point instead
/// verify the recovered checkpoint against its own re-derivation — the
/// `snapshot_verified` cross-check). When `publish_to` names a catalog
/// key, every recovered synopsis is also published there, so queries
/// keep serving concurrently with the kill/recover cycle.
pub fn run_ingest_soak(
    doc: &Document,
    dir: &Path,
    seed: u64,
    kills: u64,
    options: &IngestOptions,
    publish_to: Option<(&GuardedCatalog, &str, &str)>,
) -> Result<IngestSoakReport, IngestError> {
    // lint:allow(vfs-direct): soak-harness scratch-dir wipe, not store I/O
    let _ = std::fs::remove_dir_all(dir);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut store = IngestStore::create(dir, doc.clone(), options.clone())?;
    let mut report = IngestSoakReport {
        kills: 0,
        clean_deltas: 0,
        recovery_failures: 0,
        state_mismatches: 0,
        fsck_failures: 0,
        torn_tails: 0,
        replayed: 0,
        checkpoints: 0,
        refinements: 0,
        refine_rollbacks: 0,
        publish_failures: 0,
        final_snapshot: store.snapshot_bytes(),
    };
    let mut point_cursor = 0usize;
    // Safety bound: checkpoint crash points only fire when a checkpoint
    // actually runs, so some armed kills pass through cleanly.
    let max_rounds = kills.saturating_mul(8).max(64);
    let tally_store = |report: &mut IngestSoakReport, store: &IngestStore| {
        let s = store.stats();
        report.checkpoints += s.checkpoints;
        report.refinements += s.refinements;
        report.refine_rollbacks += s.refine_rollbacks;
    };
    for _ in 0..max_rounds {
        if report.kills >= kills {
            break;
        }
        // A few clean deltas between kills keep the WAL non-trivial.
        for _ in 0..rng.random_range(0..2u32) {
            let delta = random_delta(store.doc(), &mut rng);
            if delta.is_empty() {
                continue;
            }
            if store.ingest(&delta).is_ok() {
                report.clean_deltas += 1;
            }
        }

        let point = CRASH_POINTS[point_cursor % CRASH_POINTS.len()];
        point_cursor += 1;
        let delta = random_delta(store.doc(), &mut rng);
        if delta.is_empty() {
            continue;
        }
        // Shadow-apply the WAL-canonical form (what ingest and replay
        // both apply) to know the would-be post-delta synopsis bytes.
        let delta = match decode_delta(&encode_delta(&delta)) {
            Ok(d) => d,
            Err(_) => continue,
        };
        // Shadow-apply to know the would-be post-delta synopsis bytes.
        let pre_bytes = store.snapshot_bytes();
        let mut shadow_syn = store.synopsis().clone();
        let mut shadow_drift = DriftMeter::new();
        let post_bytes = match delta_xbuild(
            &mut shadow_syn,
            store.doc(),
            &delta,
            &mut shadow_drift,
            &options.delta,
        ) {
            Ok(_) => save_synopsis(&shadow_syn),
            Err(_) => continue, // delta does not apply; skip this round
        };
        store.set_crash(Some(point));
        match store.ingest(&delta) {
            Err(IngestError::Crash(_)) => {
                report.kills += 1;
                tally_store(&mut report, &store);
                drop(store);
                store = match IngestStore::open(dir, options.clone()) {
                    Ok(s) => s,
                    Err(_) => {
                        report.recovery_failures += 1;
                        // Re-seed so the soak can continue measuring.
                        // lint:allow(vfs-direct): soak-harness reseed wipe
                        let _ = std::fs::remove_dir_all(dir);
                        IngestStore::create(dir, doc.clone(), options.clone())?
                    }
                };
                if let Some(rec) = store.last_recovery() {
                    report.torn_tails += u64::from(rec.torn_tail);
                    report.replayed += rec.replayed as u64;
                    if store.fsck().is_err() {
                        report.fsck_failures += 1;
                    }
                    let recovered = store.snapshot_bytes();
                    let at_commit_point = rec.replayed == 0 && rec.generation > 0;
                    let ok = recovered == pre_bytes
                        || recovered == post_bytes
                        || (at_commit_point && rec.snapshot_verified);
                    if !ok {
                        report.state_mismatches += 1;
                    }
                }
                if let Some((catalog, tenant, document)) = publish_to {
                    if store.publish_to_catalog(catalog, tenant, document).is_err() {
                        report.publish_failures += 1;
                    }
                }
            }
            Ok(_) => {
                // The armed point was not reached (e.g. a checkpoint
                // kill with no checkpoint due): a clean delta.
                store.set_crash(None);
                report.clean_deltas += 1;
                if let Some((catalog, tenant, document)) = publish_to {
                    if store.publish_to_catalog(catalog, tenant, document).is_err() {
                        report.publish_failures += 1;
                    }
                }
            }
            Err(_) => {
                store.set_crash(None);
            }
        }
    }
    tally_store(&mut report, &store);
    report.final_snapshot = store.snapshot_bytes();
    // Leave the key serving exactly the final maintained state so
    // callers can bit-compare post-soak queries against it.
    if let Some((catalog, tenant, document)) = publish_to {
        if store.publish_to_catalog(catalog, tenant, document).is_err() {
            report.publish_failures += 1;
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn bib() -> Document {
        parse(concat!(
            "<bib>",
            "<author><name/><paper><title/><year>1999</year><kw/><kw/></paper></author>",
            "<author><name/><paper><title/><year>2002</year><kw/></paper></author>",
            "<author><name/><book><title/></book></author>",
            "</bib>"
        ))
        .unwrap()
    }

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("xtwig-ingest-test-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn small_opts() -> IngestOptions {
        IngestOptions {
            checkpoint_every: 3,
            ..Default::default()
        }
    }

    /// Every file under `dir` with its bytes, in path order.
    fn dir_bytes(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
        let mut out = Vec::new();
        for entry in fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                out.extend(dir_bytes(&path));
            } else {
                let bytes = fs::read(&path).unwrap();
                out.push((path, bytes));
            }
        }
        out.sort();
        out
    }

    /// A single-label chain `depth` elements deep.
    fn chain(depth: usize) -> Document {
        let mut b = DocumentBuilder::new();
        for _ in 0..depth {
            b.open("a", None);
        }
        for _ in 0..depth {
            b.close();
        }
        b.finish()
    }

    #[test]
    fn a_document_past_the_depth_limit_fails_typed_and_writes_nothing() {
        // On a default test thread: writing, sizing and refusing a
        // 100,000-deep chain must not recurse once per level.
        let deep = chain(100_000);
        let xml = write_xml(&deep);
        assert_eq!(xml.len(), 3 * 99_999 + "<a/>".len() + 4 * 99_999);
        let stats = xtwig_xml::DocStats::compute(&deep);
        assert_eq!(stats.max_depth, 99_999);
        assert_eq!(stats.text_bytes, xml.len());
        let dir = tmp("too-deep");
        match IngestStore::create(&dir, deep, small_opts()) {
            Err(IngestError::Doc { source, .. }) => assert_eq!(
                source.kind,
                xtwig_xml::StreamErrorKind::DepthLimitExceeded {
                    limit: xtwig_xml::StreamLimits::default().max_depth
                }
            ),
            other => panic!("expected a typed parse refusal, got {other:?}"),
        }
        assert!(!dir.exists(), "a refused document writes nothing");
    }

    #[test]
    fn an_insert_past_the_depth_limit_is_refused_before_the_wal() {
        let limit = xtwig_xml::StreamLimits::default().max_depth;
        let dir = tmp("deep-insert");
        let opts = IngestOptions {
            checkpoint_every: 1,
            ..Default::default()
        };
        let mut store = IngestStore::create(&dir, chain(limit - 6), opts.clone()).unwrap();
        let deepest = xtwig_xml::NodeId(limit as u32 - 7);
        let pre_delta = write_xml(store.doc());
        let wal = wal_path(&dir, store.generation());
        let wal_before = fs::read(&wal).unwrap();

        // 20 more levels would nest 270 open elements: refused with the
        // limit named, and the journal is untouched.
        let mut delta = Delta::new();
        delta.insert(deepest, chain(20));
        match store.ingest(&delta) {
            Err(IngestError::Delta(DeltaError::DepthLimitExceeded { parent, limit: l })) => {
                assert_eq!((parent, l), (deepest, limit));
            }
            other => panic!("expected a depth refusal, got {other:?}"),
        }
        assert_eq!(fs::read(&wal).unwrap(), wal_before);

        // The store still checkpoints (a value edit that changes nothing)
        // and reopens with the pre-delta document.
        let mut delta = Delta::new();
        delta.modify(store.doc().root(), None);
        let report = store.ingest(&delta).unwrap();
        assert_eq!(report.checkpoint, Some(CheckpointKind::Coarse));
        drop(store);
        let mut store = IngestStore::open(&dir, opts.clone()).unwrap();
        assert!(store.last_recovery().unwrap().clean());
        assert_eq!(write_xml(store.doc()), pre_delta);

        // Six more levels reach exactly the limit: accepted, checkpointed
        // and recovered.
        let mut delta = Delta::new();
        delta.insert(deepest, chain(6));
        let report = store.ingest(&delta).unwrap();
        assert_eq!(report.checkpoint, Some(CheckpointKind::Coarse));
        let bytes = store.snapshot_bytes();
        drop(store);
        let store = IngestStore::open(&dir, opts).unwrap();
        assert_eq!(store.doc().len(), limit);
        assert!(store.last_recovery().unwrap().clean());
        assert_eq!(store.snapshot_bytes(), bytes);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_stat_never_writes_a_store_over_a_store() {
        use xtwig_core::{FaultVfs, VfsFaultPlan};
        let dir = tmp("stat-fault");
        drop(IngestStore::create(&dir, bib(), small_opts()).unwrap());
        let before = dir_bytes(&dir);
        let vfs = Arc::new(FaultVfs::over_std(VfsFaultPlan {
            seed: 5,
            metadata_error: 1000,
            ..VfsFaultPlan::default()
        }));
        // Every stat fails: a typed I/O error naming the manifest, and
        // the store is left byte for byte as it was.
        let err = IngestStore::create_in(vfs, &dir, bib(), small_opts()).err();
        assert!(matches!(err, Some(IngestError::Io { .. })), "{err:?}");
        assert_eq!(dir_bytes(&dir), before);
        // Without the fault the guard still names the existing store.
        assert!(matches!(
            IngestStore::create(&dir, bib(), small_opts()),
            Err(IngestError::Store(_))
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_then_open_roundtrips_bit_identically() {
        let dir = tmp("roundtrip");
        let store = IngestStore::create(&dir, bib(), small_opts()).unwrap();
        let before = store.snapshot_bytes();
        drop(store);
        let store = IngestStore::open(&dir, small_opts()).unwrap();
        assert_eq!(store.snapshot_bytes(), before);
        let rec = store.last_recovery().unwrap();
        assert!(rec.snapshot_verified, "{rec:?}");
        assert!(rec.clean());
        assert_eq!(rec.replayed, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_replay_reconstructs_the_maintained_state() {
        let dir = tmp("replay");
        let opts = IngestOptions {
            checkpoint_every: 0, // no checkpoints: everything replays
            ..Default::default()
        };
        let mut store = IngestStore::create(&dir, bib(), opts.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..5 {
            let delta = random_delta(store.doc(), &mut rng);
            if !delta.is_empty() {
                store.ingest(&delta).unwrap();
            }
        }
        let before = store.snapshot_bytes();
        let doc_before = write_xml(store.doc());
        drop(store);
        let store = IngestStore::open(&dir, opts).unwrap();
        assert_eq!(store.snapshot_bytes(), before, "replay must be exact");
        assert_eq!(write_xml(store.doc()), doc_before);
        assert!(store.last_recovery().unwrap().replayed > 0);
        assert!(store.fsck().is_ok());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_recovers_to_the_durable_prefix() {
        let dir = tmp("torn");
        let mut store = IngestStore::create(&dir, bib(), small_opts()).unwrap();
        let mut delta = Delta::new();
        delta.modify(store.doc().root(), Some(5));
        store.ingest(&delta).unwrap();
        let pre = store.snapshot_bytes();
        let mut delta2 = Delta::new();
        delta2.modify(store.doc().root(), Some(9));
        store.set_crash(Some(CrashPoint::TornWalAppend));
        match store.ingest(&delta2) {
            Err(IngestError::Crash(CrashPoint::TornWalAppend)) => {}
            other => panic!("expected torn crash, got {other:?}"),
        }
        drop(store);
        let store = IngestStore::open(&dir, small_opts()).unwrap();
        let rec = store.last_recovery().unwrap();
        assert!(rec.torn_tail, "{rec:?}");
        assert_eq!(store.snapshot_bytes(), pre, "torn tail must be dropped");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn kill_after_wal_append_recovers_to_post_delta() {
        let dir = tmp("postdelta");
        let mut store = IngestStore::create(&dir, bib(), small_opts()).unwrap();
        let mut delta = Delta::new();
        delta.modify(store.doc().root(), Some(41));
        // Shadow-apply for the expected post state.
        let mut shadow = store.synopsis().clone();
        let mut dm = DriftMeter::new();
        delta_xbuild(
            &mut shadow,
            store.doc(),
            &delta,
            &mut dm,
            &small_opts().delta,
        )
        .unwrap();
        let post = save_synopsis(&shadow);
        store.set_crash(Some(CrashPoint::AfterWalAppend));
        assert!(matches!(
            store.ingest(&delta),
            Err(IngestError::Crash(CrashPoint::AfterWalAppend))
        ));
        drop(store);
        let store = IngestStore::open(&dir, small_opts()).unwrap();
        assert_eq!(store.last_recovery().unwrap().replayed, 1);
        assert_eq!(store.snapshot_bytes(), post);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn uncommitted_checkpoint_vanishes_and_committed_one_survives() {
        let dir = tmp("checkpoint");
        let opts = IngestOptions {
            checkpoint_every: 1, // every delta checkpoints
            ..Default::default()
        };
        // Kill between the file writes and the CURRENT flip: recovery
        // must land on generation 0 with the delta replayed from the WAL.
        let mut store = IngestStore::create(&dir, bib(), opts.clone()).unwrap();
        let mut delta = Delta::new();
        delta.modify(store.doc().root(), Some(1));
        store.set_crash(Some(CrashPoint::AfterCheckpointFiles));
        assert!(matches!(
            store.ingest(&delta),
            Err(IngestError::Crash(CrashPoint::AfterCheckpointFiles))
        ));
        drop(store);
        let store = IngestStore::open(&dir, opts.clone()).unwrap();
        let rec = store.last_recovery().unwrap();
        assert_eq!(rec.generation, 0, "flip never committed");
        assert_eq!(rec.replayed, 1, "delta survives in the old WAL");
        drop(store);

        // Kill after the flip: recovery lands on generation 1 with an
        // empty WAL and a verified snapshot; orphans are swept.
        let _ = fs::remove_dir_all(&dir);
        let mut store = IngestStore::create(&dir, bib(), opts.clone()).unwrap();
        let mut delta = Delta::new();
        delta.modify(store.doc().root(), Some(2));
        store.set_crash(Some(CrashPoint::AfterCurrentFlip));
        assert!(matches!(
            store.ingest(&delta),
            Err(IngestError::Crash(CrashPoint::AfterCurrentFlip))
        ));
        drop(store);
        let store = IngestStore::open(&dir, opts).unwrap();
        let rec = store.last_recovery().unwrap();
        assert_eq!(rec.generation, 1, "flip committed");
        assert_eq!(rec.replayed, 0);
        assert!(rec.snapshot_verified, "{rec:?}");
        assert!(!doc_path(&dir, 0).exists(), "orphans swept");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn drift_triggers_a_refined_checkpoint() {
        let dir = tmp("drift");
        let opts = IngestOptions {
            delta: DeltaBuildOptions {
                drift_threshold: 0.2, // hair trigger
                ..Default::default()
            },
            checkpoint_every: 0,
            ..Default::default()
        };
        let mut store = IngestStore::create(&dir, bib(), opts.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let mut refined = false;
        for _ in 0..20 {
            let delta = random_delta(store.doc(), &mut rng);
            if delta.is_empty() {
                continue;
            }
            let report = store.ingest(&delta).unwrap();
            if report.checkpoint == Some(CheckpointKind::Refined) {
                refined = true;
                break;
            }
        }
        assert!(refined, "drift never crossed the hair trigger");
        assert!(store.stats().refinements >= 1);
        assert_eq!(store.drift_total(), 0.0, "meter resets at checkpoint");
        assert!(store.fsck().is_ok());
        // And the refined checkpoint recovers bit-identically.
        let bytes = store.snapshot_bytes();
        drop(store);
        let store = IngestStore::open(&dir, opts).unwrap();
        assert_eq!(store.snapshot_bytes(), bytes);
        assert!(store.last_recovery().unwrap().snapshot_verified);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn ingest_soak_passes_with_many_randomized_kills() {
        let dir = tmp("soak");
        let opts = IngestOptions {
            checkpoint_every: 3,
            ..Default::default()
        };
        let report = run_ingest_soak(&bib(), &dir, 0xFEED, 20, &opts, None).unwrap();
        assert!(report.passed(), "{report}");
        assert_eq!(report.kills, 20, "{report}");
        assert!(report.torn_tails > 0, "torn point must fire: {report}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn random_deltas_are_seed_deterministic() {
        let d = bib();
        let a: Vec<String> = {
            let mut rng = StdRng::seed_from_u64(3);
            (0..10)
                .map(|_| format!("{:?}", random_delta(&d, &mut rng)))
                .collect()
        };
        let b: Vec<String> = {
            let mut rng = StdRng::seed_from_u64(3);
            (0..10)
                .map(|_| format!("{:?}", random_delta(&d, &mut rng)))
                .collect()
        };
        assert_eq!(a, b);
    }
}
