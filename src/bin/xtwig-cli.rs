//! Command-line front end: generate datasets, inspect documents, build
//! synopses and estimate twig queries.
//!
//! ```text
//! xtwig-cli generate <xmark|imdb|sprot> [--scale S] [--seed N]   # XML to stdout
//! xtwig-cli stats <file.xml>                                     # Table-1-style stats
//! xtwig-cli eval <file.xml> <twig-query>                         # exact selectivity
//! xtwig-cli estimate <file.xml> <twig-query> [--budget BYTES]    # build + estimate
//! xtwig-cli ingest <dir> --init <file.xml> | --mutate N          # live store
//! ```
//!
//! Twig queries use the paper's notation, e.g.
//! `for $t0 in //movie[type = 1], $t1 in $t0/actor`.
//!
//! Exit codes are part of the tool's contract (scripts rely on them):
//! `0` full-fidelity success, `1` failure, `2` usage error, `3` the
//! answer was served degraded (fallback tier, tripped budget, or a
//! snapshot recovered by rebuilding), `4` corrupt snapshot.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;
use xtwig::core::construct::{xbuild, BuildOptions, TruthSource};
use xtwig::core::estimate::{EstimateOptions, EstimateRequest, Estimator};
use xtwig::core::telemetry::{self, Span, Stage};
use xtwig::core::{
    coarse_synopsis, load_synopsis, read_snapshot, verify_snapshot_v3, write_snapshot_atomic,
    BatchServer, CatalogError, CatalogOptions, CompiledSynopsis, EstimateCache, SnapshotCatalog,
    Synopsis,
};
use xtwig::core::{BreakerConfig, ShedPolicy};
use xtwig::datagen::{imdb, sprot, xmark, ImdbConfig, SprotConfig, XMarkConfig};
use xtwig::query::{parse_twig, selectivity, TwigQuery};
use xtwig::workload::{
    random_delta, run_catalog_soak, run_soak, run_storage_chaos, CatalogSoakOptions, CrashPoint,
    GuardPolicy, GuardedEstimator, IngestError, IngestOptions, IngestStore, RuntimeOptions,
    ServingRuntime, SoakPlan, StorageChaosOptions, TerminalProvenance, CRASH_POINTS,
};
use xtwig::xml::{parse, write_xml, DocStats, Document};

/// How a command finished when it did not error.
enum Outcome {
    /// Full fidelity — exit 0.
    Full,
    /// The answer was served, but degraded (fallback tier, tripped
    /// budget, or recovery from a bad snapshot) — exit 3.
    Degraded,
}

/// A command failure carrying its exit code.
enum CliError {
    /// Bad arguments — exit 2.
    Usage(String),
    /// Operational failure — exit 1.
    Failure(String),
    /// Corrupt snapshot — exit 4.
    Corrupt(String),
}

const EXIT_DEGRADED: u8 = 3;
const EXIT_CORRUPT: u8 = 4;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("generate") => cmd_generate(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("eval") => cmd_eval(&args[1..]),
        Some("estimate") => cmd_estimate(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("build") => cmd_build(&args[1..]),
        Some("ingest") => cmd_ingest(&args[1..]),
        Some("inspect") => cmd_inspect(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            print!("{USAGE}");
            Ok(Outcome::Full)
        }
        Some(other) => Err(CliError::Usage(format!("unknown command `{other}`"))),
    };
    match result {
        Ok(Outcome::Full) => ExitCode::SUCCESS,
        Ok(Outcome::Degraded) => ExitCode::from(EXIT_DEGRADED),
        Err(CliError::Usage(e)) => {
            eprintln!("usage error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
        Err(CliError::Failure(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
        Err(CliError::Corrupt(e)) => {
            eprintln!("corrupt snapshot: {e}");
            ExitCode::from(EXIT_CORRUPT)
        }
    }
}

const USAGE: &str = "\
xtwig-cli — Twig XSKETCH selectivity estimation

USAGE:
  xtwig-cli generate <xmark|imdb|sprot> [--scale S] [--seed N]
  xtwig-cli stats <file.xml>
  xtwig-cli stats [--metrics <file.prom>]
  xtwig-cli eval <file.xml> '<twig-query>'
  xtwig-cli estimate <file.xml> '<twig-query>' [--budget BYTES] [--synopsis F]
                     [--deadline-ms N] [--work-limit N] [--explain]
  xtwig-cli serve <file.xml> <queries.txt> [--budget BYTES] [--synopsis F]
                  [--threads N] [--deadline-ms N] [--work-limit N]
                  [--metrics-out <file.prom>]
                  [--max-inflight N] [--queue-depth N] [--reload-on <snap>]
                  [--soak] [--soak-profile <full|saturation|catalog|storage>]
                  [--soak-seed N]
  xtwig-cli serve <plan.txt> --catalog <dir> [--publish <file.xml>]
                  [--budget BYTES] [--threads N] [--deadline-ms N]
                  [--work-limit N] [--tenant-quota N] [--max-resident N]
                  [--metrics-out <file.prom>]
  xtwig-cli build <file.xml> --out <synopsis.xtwg> [--budget BYTES]
  xtwig-cli ingest <store-dir> --init <file.xml>
  xtwig-cli ingest <store-dir> [--status] [--mutate N] [--seed S]
                   [--crash-after K] [--crash-point <site>]
                   [--checkpoint-every N] [--drift-threshold X]
  xtwig-cli inspect <synopsis.xtwg>
  xtwig-cli check <synopsis.xtwg | file.xml> [--budget BYTES]
  xtwig-cli check --catalog <dir>

Twig query notation: for $t0 in //movie[type = 1], $t1 in $t0/actor

`estimate` serves through a guarded fallback chain (XSKETCH -> Markov ->
label-count bound) under the optional per-query deadline/work budget;
the serving tier is reported on stderr whenever it is not full-fidelity
XSKETCH. A corrupt --synopsis snapshot is recovered by rebuilding from
the document (and exits 3 so scripts notice). `--explain` additionally
prints every embedding's contribution to the sum (they add up to the
estimate), the assumption-application counts, and the tier trail.

`serve` runs a batch: one twig query per line of <queries.txt>, estimated
over the compiled synopsis on worker threads through the epoch-keyed
estimate cache, reporting per-query results plus batch QPS and cache
statistics. Exits 3 if any member was served degraded. `--metrics-out`
writes the process-wide metrics registry in Prometheus text format on
exit; read it back with `xtwig-cli stats --metrics <file.prom>`.

Any of --max-inflight / --queue-depth / --reload-on routes `serve`
through the resilient runtime instead: a bounded admission queue that
sheds overflow (shed requests exit 3), per-tier circuit breakers, and
retry with jittered backoff under the per-request --deadline-ms budget.
`--reload-on <snap>` hot-reloads that snapshot mid-batch without
blocking in-flight requests; a corrupt snapshot is rejected by its CRC,
rolled back, and exits 4. `--soak` runs the seeded concurrent
fault-soak plan (panic bursts, hot + corrupt reloads, queue
saturation) and exits 4 deterministically because the corrupt-reload
rollback is part of the plan; `--soak-profile saturation` only
saturates the queue and exits 3 deterministically via shedding. Exit 1
from a soak run means a resilience invariant was violated.

`serve --catalog <dir>` is the multi-tenant front door: snapshots live
under `<dir>/<tenant>/<document>.xtwg` in the zero-copy v3 format and
fault in on first use. The plan file holds one request per line,
`tenant/document <twig-query>`; `--publish <file.xml>` builds a
synopsis from the document and publishes it under every plan key
first. Each tenant is admitted through its own in-flight quota
(`--tenant-quota`, 0 = unlimited) and circuit breaker, so one tenant's
faults or floods never degrade another's service; `--max-resident`
bounds how many documents stay resident before cold-tenant eviction.
Quota or breaker sheds exit 3; a tenant quarantined over a corrupt
snapshot exits 4 (the snapshot was rejected and never served — lift
the quarantine by republishing). `--soak-profile catalog` (with the
single-document arguments) runs the multi-tenant soak instead: a
cold-tenant stampede that must collapse to one disk load, a panic
burst that must open only the victim tenant's breaker while healthy
tenants serve bit-identical estimates, and post-cooldown recovery.
`--soak-profile storage` runs the storage-chaos soak: seeded
device-fault plans (write errors, ENOSPC, short writes, torn renames,
fsync failures, transient read errors, bit-rot) injected through the
storage VFS into the ingest commit protocol and catalog fault-in,
asserting zero escaped panics, no torn state ever published, and
every request ending bit-identical or typed; exits 1 on any violated
invariant.

`check --catalog <dir>` is the deep fsck for a catalog directory: it
sweeps every `<tenant>/<document>.xtwg`, verifies every section CRC of
the zero-copy v3 arena (the fast serving load only checks the header,
table, and META section), rebuilds the synopsis from the arena's
columns, and runs the structural fsck, printing one report line per
key. Exits 4 if any
snapshot is corrupt (after completing the sweep), 1 if any is
unreadable or the catalog is empty.

`ingest` maintains a live document store: `--init` seeds it from an XML
file; every later invocation opens it through crash recovery (replaying
the delta WAL onto the committed checkpoint, truncating torn tails),
then applies `--mutate N` seeded random deltas through the incremental
delta-XBUILD path with drift-triggered refined checkpoints. The
recovery outcome maps onto the exit codes: 0 when the recovered state
byte-matched the checkpoint snapshot and fsck passes, 3 when recovery
had to rebuild from the document or a refinement fell back to coarse,
4 when the recovered synopsis fails fsck. `--crash-after K` arms a
simulated kill at the K-th delta's `--crash-point` site (one of
before-wal-append, after-wal-append, torn-wal-append,
after-checkpoint-files, after-current-flip); the process stops there
with exit 1 exactly as a kill -9 would, and the next invocation must
recover cleanly.

EXIT CODES:
  0  success, full-fidelity estimate
  1  failure (I/O, parse, build errors, violated soak invariant)
  2  usage error (bad flags or arguments)
  3  degraded: answered by a fallback tier, a tripped deadline/work
     budget, shed by admission control, after rebuilding a corrupt
     snapshot, or an ingest recovery that had to rebuild
  4  corrupt snapshot (inspect/check, a rolled-back serve --reload-on,
     a soak run that exercised its rollback phase, or an ingest store
     whose recovered synopsis fails fsck)
";

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Whether a bare (valueless) flag is present.
fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// Parses a twig query under a [`Stage::Parse`] span, reporting its
/// latency to the metrics registry.
fn parse_twig_traced(text: &str) -> Result<TwigQuery, xtwig::query::ParseError> {
    let t0 = std::time::Instant::now();
    let span = Span::enter(Stage::Parse);
    let q = parse_twig(text);
    span.exit();
    telemetry::global()
        .parse_latency
        .record_ns(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
    q
}

fn parse_flag<T: std::str::FromStr>(
    args: &[String],
    name: &str,
    default: T,
) -> Result<T, CliError> {
    match flag(args, name) {
        None => Ok(default),
        Some(s) => s
            .parse()
            .map_err(|_| CliError::Usage(format!("invalid {name} value `{s}`"))),
    }
}

fn load(path: &str) -> Result<Document, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Failure(format!("reading {path}: {e}")))?;
    parse(&text).map_err(|e| CliError::Failure(format!("parsing {path}: {e}")))
}

fn cmd_generate(args: &[String]) -> Result<Outcome, CliError> {
    let which = args
        .first()
        .ok_or_else(|| CliError::Usage("generate needs a dataset name".into()))?;
    let scale: f64 = parse_flag(args, "--scale", 0.05)?;
    let seed: u64 = parse_flag(args, "--seed", 1)?;
    let doc = match which.as_str() {
        "xmark" => xmark(XMarkConfig { scale, seed }),
        "imdb" => imdb(ImdbConfig::scaled(scale, seed)),
        "sprot" => sprot(SprotConfig::scaled(scale, seed)),
        other => {
            return Err(CliError::Usage(format!(
                "unknown dataset `{other}` (xmark|imdb|sprot)"
            )))
        }
    };
    println!("{}", write_xml(&doc));
    Ok(Outcome::Full)
}

fn cmd_stats(args: &[String]) -> Result<Outcome, CliError> {
    // Telemetry mode: no positional file, or an explicit --metrics flag.
    let wants_metrics = args.is_empty() || has_flag(args, "--metrics");
    if wants_metrics {
        return cmd_stats_metrics(args);
    }
    let path = args
        .first()
        .ok_or_else(|| CliError::Usage("stats needs a file".into()))?;
    let doc = load(path)?;
    let s = DocStats::compute(&doc);
    let synopsis = coarse_synopsis(&doc);
    println!("elements:          {}", s.element_count);
    println!("distinct tags:     {}", s.label_count);
    println!("max depth:         {}", s.max_depth);
    println!("avg fanout:        {:.2}", s.avg_fanout);
    println!("valued elements:   {}", s.valued_count);
    println!("text size:         {:.2} MB", s.text_mb());
    println!(
        "coarsest synopsis: {} nodes, {} edges, {:.1} KB",
        synopsis.node_count(),
        synopsis.edge_count(),
        synopsis.size_bytes() as f64 / 1024.0
    );
    Ok(Outcome::Full)
}

/// Default path `serve --metrics-out` writes and `stats` reads when no
/// explicit file is given.
const DEFAULT_METRICS_FILE: &str = "xtwig-metrics.prom";

/// `stats --metrics`: pretty-print a Prometheus text-format metrics file
/// written by `serve --metrics-out` (estimation counters, cache health,
/// guarded-chain degradations, per-stage latency histograms).
fn cmd_stats_metrics(args: &[String]) -> Result<Outcome, CliError> {
    let path = flag(args, "--metrics").unwrap_or_else(|| DEFAULT_METRICS_FILE.to_string());
    let text = std::fs::read_to_string(&path).map_err(|e| {
        CliError::Failure(format!(
            "reading {path}: {e} (run `serve --metrics-out {path}` first)"
        ))
    })?;
    let mut counters: Vec<(&str, &str)> = Vec::new();
    let mut histograms: Vec<(&str, &str, &str)> = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((name, value)) = line.rsplit_once(' ') else {
            continue;
        };
        if let Some(base) = name.strip_suffix("_count") {
            if let Some(sum) = text.lines().find_map(|l| {
                l.trim()
                    .strip_prefix(&format!("{base}_sum "))
                    .map(str::trim)
            }) {
                histograms.push((base, value, sum));
            }
            continue;
        }
        if name.contains('{') || name.ends_with("_sum") {
            continue; // histogram buckets / sums, folded above
        }
        counters.push((name, value));
    }
    if counters.is_empty() && histograms.is_empty() {
        return Err(CliError::Failure(format!("{path}: no metrics found")));
    }
    println!("metrics from {path}:");
    for (name, value) in &counters {
        println!("  {name:<42} {value}");
    }
    for (base, count, sum) in &histograms {
        let mean_us = match (count.parse::<f64>(), sum.parse::<f64>()) {
            (Ok(c), Ok(s)) if c > 0.0 => format!("{:.1} us mean", s / c * 1e6),
            _ => "-".to_string(),
        };
        println!("  {base:<42} {count} obs, {mean_us}");
    }
    Ok(Outcome::Full)
}

fn cmd_eval(args: &[String]) -> Result<Outcome, CliError> {
    let path = args
        .first()
        .ok_or_else(|| CliError::Usage("eval needs a file".into()))?;
    let qtext = args
        .get(1)
        .ok_or_else(|| CliError::Usage("eval needs a twig query".into()))?;
    let doc = load(path)?;
    let q = parse_twig(qtext).map_err(|e| CliError::Usage(e.to_string()))?;
    let t0 = std::time::Instant::now();
    let count = selectivity(&doc, &q);
    println!("selectivity: {count} binding tuples ({:?})", t0.elapsed());
    Ok(Outcome::Full)
}

fn cmd_build(args: &[String]) -> Result<Outcome, CliError> {
    let path = args
        .first()
        .ok_or_else(|| CliError::Usage("build needs a file".into()))?;
    let out =
        flag(args, "--out").ok_or_else(|| CliError::Usage("build needs --out <file>".into()))?;
    let budget: usize = parse_flag(args, "--budget", 20 * 1024)?;
    let doc = load(path)?;
    let t0 = std::time::Instant::now();
    let build = BuildOptions {
        budget_bytes: budget,
        refinements_per_round: 4,
        ..Default::default()
    };
    let (synopsis, trace) = xbuild(&doc, TruthSource::Exact, &build);
    let written = write_snapshot_atomic(Path::new(&out), &synopsis)
        .map_err(|e| CliError::Failure(format!("writing {out}: {e}")))?;
    println!(
        "built {} nodes / {} edges / {:.1} KB in {} rounds ({:?}); snapshot {written} bytes -> {out}",
        synopsis.node_count(),
        synopsis.edge_count(),
        synopsis.size_bytes() as f64 / 1024.0,
        trace.rounds.len(),
        t0.elapsed(),
    );
    Ok(Outcome::Full)
}

/// Parses a `--crash-point` name against the kill sites' kebab-case
/// display names.
fn parse_crash_point(name: &str) -> Result<CrashPoint, CliError> {
    CRASH_POINTS
        .iter()
        .copied()
        .find(|p| p.to_string() == name)
        .ok_or_else(|| {
            let known: Vec<String> = CRASH_POINTS.iter().map(|p| p.to_string()).collect();
            CliError::Usage(format!(
                "unknown --crash-point `{name}` (one of: {})",
                known.join(", ")
            ))
        })
}

/// Ingest tuning shared by every `ingest` invocation. The refinement
/// budgets stay at their defaults so recovery re-derives checkpoints
/// verbatim; `--checkpoint-every` / `--drift-threshold` only steer when
/// *new* checkpoints are taken and are safe to vary between runs.
fn ingest_options(args: &[String]) -> Result<IngestOptions, CliError> {
    let defaults = IngestOptions::default();
    let checkpoint_every: usize = parse_flag(args, "--checkpoint-every", 8)?;
    let drift: f64 = parse_flag(args, "--drift-threshold", defaults.delta.drift_threshold)?;
    let mut options = defaults;
    options.checkpoint_every = checkpoint_every;
    options.delta.drift_threshold = drift;
    Ok(options)
}

/// `ingest`: a crash-safe live-document store. `--init` creates it;
/// everything else opens it through recovery, optionally mutates it,
/// and reports status. The exit code is the recovery verdict: 0 clean,
/// 3 degraded (rebuilt or refine fallback), 4 fsck failure, 1 on a
/// simulated `--crash-after` kill.
fn cmd_ingest(args: &[String]) -> Result<Outcome, CliError> {
    let dir = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or_else(|| CliError::Usage("ingest needs a store directory".into()))?
        .clone();
    let dir = Path::new(&dir);
    let options = ingest_options(args)?;
    // Validate up front so a typo'd kill site is a usage error even
    // when no mutation (or no `--crash-after`) would ever arm it.
    let crash_point = match flag(args, "--crash-point") {
        Some(name) => parse_crash_point(&name)?,
        None => CrashPoint::AfterWalAppend,
    };

    if let Some(init) = flag(args, "--init") {
        let doc = load(&init)?;
        let store =
            IngestStore::create(dir, doc, options).map_err(|e| CliError::Failure(e.to_string()))?;
        store
            .fsck()
            .map_err(|r| CliError::Corrupt(format!("{}: {r}", dir.display())))?;
        println!(
            "store created at {}: generation {}, {} elements, synopsis {} bytes",
            dir.display(),
            store.generation(),
            store.doc().len(),
            store.snapshot_bytes().len(),
        );
        return Ok(Outcome::Full);
    }

    // Every non-init invocation opens through recovery — the same path
    // a restart after a real kill takes.
    let mut store = IngestStore::open(dir, options).map_err(|e| match e {
        IngestError::Snapshot { .. } => CliError::Corrupt(e.to_string()),
        other => CliError::Failure(other.to_string()),
    })?;
    let recovery = store.last_recovery().cloned();
    if let Some(rec) = &recovery {
        println!(
            "recovered generation {} ({} checkpoint): {} WAL record(s) replayed{}{}{}",
            rec.generation,
            rec.kind,
            rec.replayed,
            if rec.torn_tail {
                ", torn tail truncated"
            } else {
                ""
            },
            if rec.rebuilt_snapshot {
                ", snapshot rebuilt from document"
            } else {
                ""
            },
            if rec.refine_fallback {
                ", refinement fell back to coarse"
            } else {
                ""
            },
        );
    }

    let mutate: usize = parse_flag(args, "--mutate", 0)?;
    if mutate > 0 {
        let seed: u64 = parse_flag(args, "--seed", 1)?;
        let crash_after: usize = parse_flag(args, "--crash-after", 0)?;
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 1..=mutate {
            if crash_after > 0 && i == crash_after {
                store.set_crash(Some(crash_point));
            }
            let delta = random_delta(store.doc(), &mut rng);
            match store.ingest(&delta) {
                Ok(report) => {
                    if let Some(kind) = report.checkpoint {
                        println!("delta {i}/{mutate}: {kind} checkpoint committed");
                    }
                }
                Err(IngestError::Crash(point)) => {
                    eprintln!(
                        "simulated crash at {point} (delta {i}/{mutate}); \
                         on-disk state is whatever was durable — re-open to recover"
                    );
                    return Err(CliError::Failure(format!("killed at {point}")));
                }
                Err(e) => return Err(CliError::Failure(e.to_string())),
            }
        }
        let stats = store.stats();
        println!(
            "applied {mutate} delta(s): {} WAL append(s), {} checkpoint(s), \
             {} refinement(s), {} rollback(s)",
            stats.wal_appends, stats.checkpoints, stats.refinements, stats.refine_rollbacks,
        );
    }

    store
        .fsck()
        .map_err(|r| CliError::Corrupt(format!("{}: {r}", dir.display())))?;
    println!(
        "generation {}, {} delta(s) since checkpoint, drift {:.3}, \
         {} elements, synopsis {} bytes — fsck clean",
        store.generation(),
        store.since_checkpoint(),
        store.drift_total(),
        store.doc().len(),
        store.snapshot_bytes().len(),
    );
    if recovery.as_ref().is_some_and(|r| !r.clean()) {
        eprintln!("recovery was degraded (see above)");
        return Ok(Outcome::Degraded);
    }
    Ok(Outcome::Full)
}

fn cmd_inspect(args: &[String]) -> Result<Outcome, CliError> {
    let path = args
        .first()
        .ok_or_else(|| CliError::Usage("inspect needs a snapshot file".into()))?;
    let synopsis = read_snapshot(Path::new(path)).map_err(|e| match e {
        xtwig::core::SnapshotError::Io { .. } => CliError::Failure(e.to_string()),
        _ => CliError::Corrupt(format!("{path}: {e}")),
    })?;
    print!("{}", xtwig::core::describe(&synopsis));
    Ok(Outcome::Full)
}

/// Synopsis fsck: load (or build) a synopsis and run every structural
/// invariant check, including snapshot round-trip integrity.
fn cmd_check(args: &[String]) -> Result<Outcome, CliError> {
    if let Some(dir) = flag(args, "--catalog") {
        return cmd_check_catalog(&dir);
    }
    let path = args
        .first()
        .ok_or_else(|| CliError::Usage("check needs a snapshot or XML file".into()))?;
    let synopsis = if path.ends_with(".xml") {
        let budget: usize = parse_flag(args, "--budget", 20 * 1024)?;
        let doc = load(path)?;
        let build = BuildOptions {
            budget_bytes: budget,
            refinements_per_round: 4,
            ..Default::default()
        };
        let (s, _) = xbuild(&doc, TruthSource::Exact, &build);
        s
    } else {
        read_snapshot(Path::new(path)).map_err(|e| match e {
            xtwig::core::SnapshotError::Io { .. } => CliError::Failure(e.to_string()),
            _ => CliError::Corrupt(format!("{path}: {e}")),
        })?
    };
    xtwig::core::fsck(&synopsis)
        .map_err(|report| CliError::Corrupt(format!("{path}: {report}")))?;
    println!(
        "ok: {} nodes / {} edges / {:.1} KB — all invariants hold",
        synopsis.node_count(),
        synopsis.edge_count(),
        synopsis.size_bytes() as f64 / 1024.0
    );
    Ok(Outcome::Full)
}

/// `check --catalog <dir>`: deep fsck over a multi-tenant snapshot
/// catalog. Sweeps every `<dir>/<tenant>/<document>.xtwg`, runs the
/// full per-section CRC verification of the v3 arena, rebuilds the
/// synopsis from the arena's columns, and runs the structural fsck —
/// reporting one line per key. Any corrupt snapshot exits 4 (after the
/// whole sweep, so the report is complete); unreadable files exit 1.
fn cmd_check_catalog(dir: &str) -> Result<Outcome, CliError> {
    let root = Path::new(dir);
    let mut tenants: Vec<std::path::PathBuf> = std::fs::read_dir(root)
        .map_err(|e| CliError::Failure(format!("reading {dir}: {e}")))?
        .flatten()
        .map(|entry| entry.path())
        .filter(|p| p.is_dir())
        .collect();
    tenants.sort();
    let mut keys = 0usize;
    let mut corrupt: Vec<String> = Vec::new();
    let mut unreadable: Vec<String> = Vec::new();
    for tenant_dir in &tenants {
        let tenant = tenant_dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let mut snaps: Vec<std::path::PathBuf> = match std::fs::read_dir(tenant_dir) {
            Ok(entries) => entries
                .flatten()
                .map(|entry| entry.path())
                .filter(|p| p.extension().is_some_and(|x| x == "xtwg"))
                .collect(),
            Err(e) => {
                println!("{tenant}: unreadable tenant directory: {e}");
                unreadable.push(tenant.clone());
                continue;
            }
        };
        snaps.sort();
        for snap in snaps {
            let document = snap
                .file_stem()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            let key = format!("{tenant}/{document}");
            keys += 1;
            let bytes = match std::fs::read(&snap) {
                Ok(b) => b,
                Err(e) => {
                    println!("{key}: unreadable: {e}");
                    unreadable.push(key);
                    continue;
                }
            };
            // Depth 1: every section CRC (the zero-copy fast load only
            // checks header + table + META). Depth 2: carve the arena,
            // rebuild the synopsis from its columns, and run the
            // structural fsck.
            let deep = verify_snapshot_v3(&bytes)
                .map_err(|e| e.to_string())
                .and_then(|()| load_synopsis(&bytes).map_err(|e| e.to_string()))
                .and_then(|s| {
                    xtwig::core::fsck(&s)
                        .map(|()| s)
                        .map_err(|report| report.to_string())
                });
            match deep {
                Ok(s) => println!(
                    "{key}: ok ({} bytes, {} nodes / {} edges, all section CRCs verified)",
                    bytes.len(),
                    s.node_count(),
                    s.edge_count()
                ),
                Err(e) => {
                    println!("{key}: CORRUPT: {e}");
                    corrupt.push(key);
                }
            }
        }
    }
    println!(
        "checked {keys} snapshots across {} tenants: {} corrupt, {} unreadable",
        tenants.len(),
        corrupt.len(),
        unreadable.len()
    );
    if !corrupt.is_empty() {
        return Err(CliError::Corrupt(format!(
            "{} of {keys} snapshots corrupt: {}",
            corrupt.len(),
            corrupt.join(", ")
        )));
    }
    if !unreadable.is_empty() {
        return Err(CliError::Failure(format!(
            "{} of {keys} snapshots unreadable: {}",
            unreadable.len(),
            unreadable.join(", ")
        )));
    }
    if keys == 0 {
        return Err(CliError::Failure(format!("{dir}: no snapshots found")));
    }
    Ok(Outcome::Full)
}

/// Batched serving over the compiled synopsis: one query per input
/// line, estimated through a `BatchServer` with the sharded estimate cache.
fn cmd_serve(args: &[String]) -> Result<Outcome, CliError> {
    // `--catalog` (without a soak profile) is the multi-tenant front
    // door: the positional argument is a serving plan, not an XML file.
    let soak_mode = has_flag(args, "--soak") || flag(args, "--soak-profile").is_some();
    if flag(args, "--catalog").is_some() && !soak_mode {
        return cmd_serve_catalog(args);
    }
    let path = args
        .first()
        .ok_or_else(|| CliError::Usage("serve needs an XML file".into()))?;
    let qfile = args
        .get(1)
        .ok_or_else(|| CliError::Usage("serve needs a queries file".into()))?;
    let budget: usize = parse_flag(args, "--budget", 20 * 1024)?;
    let deadline_ms: u64 = parse_flag(args, "--deadline-ms", 0)?;
    let work_limit: u64 = parse_flag(args, "--work-limit", 0)?;
    let default_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let threads: usize = parse_flag(args, "--threads", default_threads)?;

    let qtext = std::fs::read_to_string(qfile)
        .map_err(|e| CliError::Failure(format!("reading {qfile}: {e}")))?;
    let mut queries = Vec::new();
    for (lineno, line) in qtext.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let q = parse_twig_traced(line)
            .map_err(|e| CliError::Usage(format!("{qfile}:{}: {e}", lineno + 1)))?;
        queries.push(q);
    }
    if queries.is_empty() {
        return Err(CliError::Usage(format!("{qfile}: no queries")));
    }

    let doc = load(path)?;
    let synopsis: Synopsis = match flag(args, "--synopsis") {
        Some(snap) => read_snapshot(Path::new(&snap)).map_err(|e| match e {
            xtwig::core::SnapshotError::Io { .. } => CliError::Failure(e.to_string()),
            _ => CliError::Corrupt(format!("{snap}: {e}")),
        })?,
        None => {
            let build = BuildOptions {
                budget_bytes: budget,
                refinements_per_round: 4,
                ..Default::default()
            };
            xbuild(&doc, TruthSource::Exact, &build).0
        }
    };

    // Any resilient-runtime flag routes the batch through the
    // admission/retry/breaker path instead of the plain cache pipeline.
    let runtime_mode = has_flag(args, "--soak")
        || flag(args, "--soak-profile").is_some()
        || flag(args, "--max-inflight").is_some()
        || flag(args, "--queue-depth").is_some()
        || flag(args, "--reload-on").is_some();
    if runtime_mode {
        return cmd_serve_runtime(args, &doc, synopsis, &queries, deadline_ms, work_limit);
    }

    let compiled = CompiledSynopsis::compile(&synopsis);
    let opts = {
        let mut b = EstimateOptions::builder().work_limit(work_limit);
        if deadline_ms > 0 {
            b = b.deadline(std::time::Instant::now() + Duration::from_millis(deadline_ms));
        }
        b.build()
    };
    let cache = EstimateCache::new(4096);

    let server = BatchServer::new(&compiled)
        .with_cache(&cache)
        .with_options(opts)
        .with_threads(threads);
    let t0 = std::time::Instant::now();
    let results = server.serve(&queries);
    let elapsed = t0.elapsed();

    let mut degraded = 0usize;
    for (q, rep) in queries.iter().zip(&results) {
        let mut marker = String::new();
        if let Some(ex) = rep.provenance.exhaustion {
            degraded += 1;
            marker = format!("  [degraded: {ex}]");
        }
        if rep.provenance.cached {
            marker.push_str("  [cached]");
        }
        println!("{:.1}  {q}{marker}", rep.estimate);
    }
    let stats = cache.stats();
    eprintln!(
        "served {} queries in {elapsed:?} ({:.0} qps, {threads} threads, epoch {}); \
         cache: {} hits / {} misses (hit-rate {:.2})",
        queries.len(),
        queries.len() as f64 / elapsed.as_secs_f64().max(1e-9),
        compiled.epoch(),
        stats.hits,
        stats.misses,
        stats.hit_rate(),
    );
    if let Some(out) = flag(args, "--metrics-out") {
        let prom = telemetry::global().to_prometheus();
        std::fs::write(&out, prom).map_err(|e| CliError::Failure(format!("writing {out}: {e}")))?;
        eprintln!("metrics written to {out}");
    }
    if degraded > 0 {
        eprintln!("{degraded} of {} queries served degraded", queries.len());
        return Ok(Outcome::Degraded);
    }
    Ok(Outcome::Full)
}

/// `serve --catalog <dir>`: the multi-tenant snapshot catalog as the
/// serving front door. The positional argument is a plan file — one
/// request per line, `tenant/document <twig-query>` — served through
/// per-tenant admission (quota + circuit breaker) and zero-copy v3
/// snapshot fault-in. `--publish <file.xml>` builds a synopsis from
/// the document and publishes it under every key in the plan first.
///
/// Exit codes: quota/breaker sheds exit 3; an unknown document or a
/// contained serving fault exits 1; a corrupt snapshot exits 4.
fn cmd_serve_catalog(args: &[String]) -> Result<Outcome, CliError> {
    let dir = flag(args, "--catalog")
        .ok_or_else(|| CliError::Usage("serve --catalog needs a directory".into()))?;
    let plan_path = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or_else(|| CliError::Usage("serve --catalog needs a plan file".into()))?;
    let budget: usize = parse_flag(args, "--budget", 20 * 1024)?;
    let deadline_ms: u64 = parse_flag(args, "--deadline-ms", 0)?;
    let work_limit: u64 = parse_flag(args, "--work-limit", 0)?;
    let threads: usize = parse_flag(args, "--threads", 1)?;
    let tenant_quota: usize = parse_flag(args, "--tenant-quota", 0)?;
    let max_resident: usize = parse_flag(args, "--max-resident", 64)?;

    // Parse the plan: `tenant/document <query>`, grouped per key so
    // each document serves one batch, with output in input order.
    type KeyedBatch = ((String, String), Vec<(usize, TwigQuery)>);
    let text = std::fs::read_to_string(plan_path)
        .map_err(|e| CliError::Failure(format!("reading {plan_path}: {e}")))?;
    let mut batches: Vec<KeyedBatch> = Vec::new();
    let mut total = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = || {
            CliError::Usage(format!(
                "{plan_path}:{}: expected `tenant/document <query>`",
                lineno + 1
            ))
        };
        let (key, qtext) = line.split_once(char::is_whitespace).ok_or_else(bad)?;
        let (tenant, document) = key.split_once('/').ok_or_else(bad)?;
        let q = parse_twig_traced(qtext.trim())
            .map_err(|e| CliError::Usage(format!("{plan_path}:{}: {e}", lineno + 1)))?;
        let key = (tenant.to_string(), document.to_string());
        match batches.iter_mut().find(|(k, _)| *k == key) {
            Some((_, qs)) => qs.push((total, q)),
            None => batches.push((key, vec![(total, q)])),
        }
        total += 1;
    }
    if total == 0 {
        return Err(CliError::Usage(format!("{plan_path}: no requests")));
    }

    let catalog = SnapshotCatalog::open(
        &dir,
        CatalogOptions::builder()
            .threads(threads)
            .tenant_quota(tenant_quota)
            .max_resident(max_resident)
            .build(),
    );

    if let Some(xml) = flag(args, "--publish") {
        let doc = load(&xml)?;
        let build = BuildOptions {
            budget_bytes: budget,
            refinements_per_round: 4,
            ..Default::default()
        };
        let synopsis = xbuild(&doc, TruthSource::Exact, &build).0;
        for ((tenant, document), _) in &batches {
            let n = catalog
                .publish(tenant, document, &synopsis)
                .map_err(|e| CliError::Failure(format!("publish {tenant}/{document}: {e}")))?;
            eprintln!("published {tenant}/{document} ({n} bytes)");
        }
    }

    let opts = {
        let mut b = EstimateOptions::builder().work_limit(work_limit);
        if deadline_ms > 0 {
            b = b.deadline(std::time::Instant::now() + Duration::from_millis(deadline_ms));
        }
        b.build()
    };

    let mut lines: Vec<Option<String>> = vec![None; total];
    let mut shed = 0usize;
    let mut degraded = 0usize;
    let t0 = std::time::Instant::now();
    for ((tenant, document), members) in &batches {
        let queries: Vec<TwigQuery> = members.iter().map(|(_, q)| q.clone()).collect();
        match catalog.serve(tenant, document, &queries, &opts) {
            Ok(reports) => {
                for ((idx, q), rep) in members.iter().zip(&reports) {
                    let mut marker = String::new();
                    if let Some(ex) = rep.provenance.exhaustion {
                        degraded += 1;
                        marker = format!("  [degraded: {ex}]");
                    }
                    lines[*idx] = Some(format!(
                        "{:.1}  {tenant}/{document}  {q}{marker}",
                        rep.estimate
                    ));
                }
            }
            Err(e @ (CatalogError::QuotaExceeded { .. } | CatalogError::BreakerOpen { .. })) => {
                shed += members.len();
                for (idx, q) in members {
                    lines[*idx] = Some(format!("shed  {tenant}/{document}  {q}  [{e}]"));
                }
            }
            Err(CatalogError::Snapshot(e)) => {
                return Err(match e {
                    xtwig::core::SnapshotError::Io { .. } => CliError::Failure(e.to_string()),
                    _ => CliError::Corrupt(format!("{tenant}/{document}: {e}")),
                })
            }
            Err(e @ CatalogError::Quarantined { .. }) => {
                // A quarantined tenant is a corruption outcome: the
                // snapshot was rejected and never served.
                return Err(CliError::Corrupt(e.to_string()));
            }
            Err(e) => {
                return Err(CliError::Failure(format!("serve {tenant}/{document}: {e}")));
            }
        }
    }
    let elapsed = t0.elapsed();
    for line in lines.into_iter().flatten() {
        println!("{line}");
    }
    let stats = catalog.stats();
    eprintln!(
        "catalog served {total} requests over {} documents in {elapsed:?} \
         ({:.0} qps, {threads} threads); {} cold loads / {} warm hits, \
         {} resident, {} evictions, {} quota sheds, {} breaker sheds",
        batches.len(),
        total as f64 / elapsed.as_secs_f64().max(1e-9),
        stats.cold_loads,
        stats.warm_hits,
        stats.resident,
        stats.evictions,
        stats.quota_sheds,
        stats.breaker_sheds,
    );
    if let Some(out) = flag(args, "--metrics-out") {
        let prom = telemetry::global().to_prometheus();
        std::fs::write(&out, prom).map_err(|e| CliError::Failure(format!("writing {out}: {e}")))?;
        eprintln!("metrics written to {out}");
    }
    if shed > 0 || degraded > 0 {
        eprintln!("{shed} requests shed, {degraded} served degraded");
        return Ok(Outcome::Degraded);
    }
    Ok(Outcome::Full)
}

/// `serve` under the resilient runtime: bounded admission queue,
/// per-tier circuit breakers, retry with jittered backoff, optional
/// mid-batch hot reload, and the seeded fault-soak profiles.
///
/// Exit-code mapping (deterministic, scripts rely on it): a reload
/// rollback — including the corrupt-reload phase of the full soak —
/// exits 4 and takes precedence; shed or degraded requests exit 3;
/// a violated soak invariant exits 1.
fn cmd_serve_runtime(
    args: &[String],
    doc: &Document,
    synopsis: Synopsis,
    queries: &[TwigQuery],
    deadline_ms: u64,
    work_limit: u64,
) -> Result<Outcome, CliError> {
    let soak = has_flag(args, "--soak") || flag(args, "--soak-profile").is_some();
    let workers: usize = parse_flag(args, "--max-inflight", 4)?;
    // The soak profiles want a small queue and fast breaker cycle so
    // every transition happens within one run; plain runtime serving
    // gets production-shaped defaults.
    let queue_depth: usize = parse_flag(args, "--queue-depth", if soak { 4 } else { 256 })?;
    let timeout_ms = if deadline_ms > 0 {
        deadline_ms
    } else if soak {
        5 // stalled soak requests must degrade quickly
    } else {
        0
    };
    let options = RuntimeOptions::builder()
        .queue_depth(queue_depth)
        .workers(workers)
        .shed_policy(ShedPolicy::RejectNew)
        .request_timeout((timeout_ms > 0).then(|| Duration::from_millis(timeout_ms)))
        .max_retries(1)
        .breaker(if soak {
            BreakerConfig {
                failure_threshold: 3,
                cooldown: Duration::from_millis(2),
            }
        } else {
            BreakerConfig::default()
        })
        .policy(GuardPolicy {
            work_limit,
            ..Default::default()
        })
        .build();

    if soak {
        let seed: u64 = parse_flag(args, "--soak-seed", 0xD0C5_0AB5)?;
        let profile = flag(args, "--soak-profile").unwrap_or_else(|| "full".to_string());
        if profile == "catalog" {
            // The multi-tenant soak: cold-tenant stampede collapse,
            // per-tenant breaker isolation, eviction churn, recovery.
            let (dir, ephemeral) = match flag(args, "--catalog") {
                Some(d) => (std::path::PathBuf::from(d), false),
                None => (
                    std::env::temp_dir().join(format!("xtwig-catalog-soak-{}", std::process::id())),
                    true,
                ),
            };
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(|_| {}));
            let report = run_catalog_soak(doc, queries, &dir, &CatalogSoakOptions::default());
            std::panic::set_hook(prev);
            if ephemeral {
                let _ = std::fs::remove_dir_all(&dir);
            }
            println!("{report}");
            if !report.passed() {
                return Err(CliError::Failure(format!(
                    "catalog soak invariants violated: {report}"
                )));
            }
            return Ok(Outcome::Full);
        }
        if profile == "storage" {
            // The storage-chaos soak: seeded device-fault plans driven
            // through the VFS injector against the ingest commit
            // protocol and catalog fault-in.
            let dir =
                std::env::temp_dir().join(format!("xtwig-storage-chaos-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let chaos = StorageChaosOptions {
                seed,
                ..Default::default()
            };
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(|_| {}));
            let report = run_storage_chaos(doc, queries, &dir, &chaos);
            std::panic::set_hook(prev);
            let _ = std::fs::remove_dir_all(&dir);
            println!("{report}");
            if !report.passed() {
                return Err(CliError::Failure(format!(
                    "storage chaos invariants violated: {report}"
                )));
            }
            return Ok(Outcome::Full);
        }
        let plan = match profile.as_str() {
            "full" => SoakPlan::generate(seed, &options),
            "saturation" => SoakPlan::saturation_only(seed, &options),
            other => {
                return Err(CliError::Usage(format!(
                    "unknown --soak-profile `{other}` (full|saturation|catalog|storage)"
                )))
            }
        };
        // Injected panics are part of the plan; silence their backtraces
        // so the report below is the only output.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let report = run_soak(doc, queries, &plan, options);
        std::panic::set_hook(prev);
        println!("{report}");
        let full_profile = profile == "full";
        if !report.passed(full_profile, full_profile) {
            return Err(CliError::Failure(format!(
                "soak invariants violated: {report}"
            )));
        }
        if report.reload_rollbacks > 0 {
            return Err(CliError::Corrupt(format!(
                "soak rolled back {} corrupt reload(s); serving never observed them",
                report.reload_rollbacks
            )));
        }
        if report.shed > 0 || report.degraded > 0 {
            eprintln!(
                "{} of {} requests shed, {} degraded",
                report.shed, report.requests, report.degraded
            );
            return Ok(Outcome::Degraded);
        }
        return Ok(Outcome::Full);
    }

    // Read the reload snapshot up front so a missing file fails fast
    // (exit 1) instead of mid-batch; a *corrupt* file is detected by the
    // CRC during the hot reload itself and rolls back (exit 4).
    let reload_bytes: Option<Vec<u8>> = match flag(args, "--reload-on") {
        Some(p) => {
            Some(std::fs::read(&p).map_err(|e| CliError::Failure(format!("reading {p}: {e}")))?)
        }
        None => None,
    };

    let rt = ServingRuntime::new(synopsis, options);
    let mut reload_outcome: Option<Result<u64, xtwig::core::SnapshotError>> = None;
    let t0 = std::time::Instant::now();
    let results = rt.serve_with(queries, |rt| {
        if let Some(bytes) = &reload_bytes {
            // Fire mid-flight: workers are already draining the queue.
            std::thread::sleep(Duration::from_micros(200));
            reload_outcome = Some(rt.reload_snapshot_bytes(bytes));
        }
    });
    let elapsed = t0.elapsed();

    for (q, r) in queries.iter().zip(&results) {
        let marker = match r.terminal {
            TerminalProvenance::Full => String::new(),
            TerminalProvenance::Degraded => match r.tier {
                Some(tier) => format!("  [degraded: {tier}]"),
                None => "  [degraded]".to_string(),
            },
            TerminalProvenance::Shed => "  [shed]".to_string(),
        };
        println!("{:.1}  {q}{marker}", r.report.estimate);
    }
    let stats = rt.stats();
    eprintln!(
        "served {} requests in {elapsed:?} ({} full / {} degraded / {} shed, \
         {} retries, {workers} workers, queue depth {queue_depth}, epoch {})",
        queries.len(),
        stats.full,
        stats.degraded,
        stats.shed,
        stats.retries,
        rt.epoch(),
    );
    if let Some(out) = flag(args, "--metrics-out") {
        let prom = telemetry::global().to_prometheus();
        std::fs::write(&out, prom).map_err(|e| CliError::Failure(format!("writing {out}: {e}")))?;
        eprintln!("metrics written to {out}");
    }
    match reload_outcome {
        Some(Ok(epoch)) => eprintln!("hot reload installed epoch {epoch}"),
        Some(Err(e)) => {
            return Err(CliError::Corrupt(format!(
                "--reload-on rolled back: {e}; serving continued on epoch {}",
                rt.epoch()
            )))
        }
        None => {}
    }
    if stats.shed > 0 || stats.degraded > 0 {
        eprintln!(
            "{} of {} requests shed or degraded",
            stats.shed + stats.degraded,
            queries.len()
        );
        return Ok(Outcome::Degraded);
    }
    Ok(Outcome::Full)
}

fn cmd_estimate(args: &[String]) -> Result<Outcome, CliError> {
    let path = args
        .first()
        .ok_or_else(|| CliError::Usage("estimate needs a file".into()))?;
    let qtext = args
        .get(1)
        .ok_or_else(|| CliError::Usage("estimate needs a twig query".into()))?;
    let budget: usize = parse_flag(args, "--budget", 20 * 1024)?;
    let deadline_ms: u64 = parse_flag(args, "--deadline-ms", 0)?;
    let work_limit: u64 = parse_flag(args, "--work-limit", 0)?;
    let explain = has_flag(args, "--explain");
    let doc = load(path)?;
    let q = parse_twig_traced(qtext).map_err(|e| CliError::Usage(e.to_string()))?;

    let t0 = std::time::Instant::now();
    let mut recovered = false;
    let (synopsis, rounds): (Synopsis, usize) = match flag(args, "--synopsis") {
        Some(snap) => match read_snapshot(Path::new(&snap)) {
            Ok(s) => (s, 0),
            // Crash-safe serving: a bad snapshot is reported and the
            // synopsis rebuilt from the document instead of failing the
            // query.
            Err(e) => {
                eprintln!("warning: {snap}: {e}; rebuilding synopsis from {path}");
                recovered = true;
                let build = BuildOptions {
                    budget_bytes: budget,
                    refinements_per_round: 4,
                    ..Default::default()
                };
                let (s, trace) = xbuild(&doc, TruthSource::Exact, &build);
                (s, trace.rounds.len())
            }
        },
        None => {
            let build = BuildOptions {
                budget_bytes: budget,
                refinements_per_round: 4,
                ..Default::default()
            };
            let (s, trace) = xbuild(&doc, TruthSource::Exact, &build);
            (s, trace.rounds.len())
        }
    };
    let built_in = t0.elapsed();

    let policy = GuardPolicy {
        time_budget: (deadline_ms > 0).then(|| Duration::from_millis(deadline_ms)),
        work_limit,
        ..Default::default()
    };
    let guarded = GuardedEstimator::new(&synopsis, policy);
    let t1 = std::time::Instant::now();
    // Always request an explain internally: the tier trail drives the
    // degradation report, and the report is bit-identical either way.
    let req_opts = EstimateOptions::builder().explain(true).build();
    let report = Estimator::estimate(&guarded, &EstimateRequest::with_options(&q, req_opts));
    let est_in = t1.elapsed();
    let truth = selectivity(&doc, &q);

    println!(
        "synopsis: {} nodes / {} edges / {:.1} KB ({rounds} refinement rounds, {built_in:?})",
        synopsis.node_count(),
        synopsis.edge_count(),
        synopsis.size_bytes() as f64 / 1024.0,
    );
    println!("estimate: {:.1} ({est_in:?})", report.estimate);
    println!("exact:    {truth}");
    let err = (report.estimate - truth as f64).abs() / (truth as f64).max(1.0);
    println!("relative error: {:.1}%", err * 100.0);
    if explain {
        print_explain(&report);
    }
    let tier = report.provenance.tier.unwrap_or("xsketch");
    if tier != "xsketch" || report.provenance.degraded {
        if let Some(e) = &report.explain {
            for step in &e.tier_path {
                if !step.ends_with(": ok") {
                    eprintln!("tier {step}");
                }
            }
        }
        eprintln!("served by tier: {tier} (degraded)");
    }
    if recovered || report.provenance.degraded {
        return Ok(Outcome::Degraded);
    }
    Ok(Outcome::Full)
}

/// Renders the `--explain` section: per-embedding contributions (which
/// sum to the estimate), assumption counts, provenance, and timings.
fn print_explain(report: &xtwig::core::EstimateReport) {
    let Some(e) = &report.explain else {
        println!("explain: unavailable on this serving path");
        return;
    };
    println!("explain:");
    println!(
        "  maximal-twig embeddings expanded: {} ({} evaluated)",
        e.expanded, report.provenance.embeddings
    );
    for c in &e.embeddings {
        let clamp = if c.clamped {
            format!("  [clamped from {}]", c.raw)
        } else {
            String::new()
        };
        println!(
            "    #{:<3} {:<40} {:+.4}{clamp}",
            c.index, c.rendered, c.contribution
        );
    }
    let sum: f64 = e.embeddings.iter().map(|c| c.contribution).sum();
    println!("  contribution sum: {sum:.4}");
    if e.final_clamp {
        println!("  final clamp: non-finite total replaced by coarse bound");
    }
    println!(
        "  assumptions: forward-uniformity x{}, conditioning x{}",
        e.assumptions.forward_uniformity, e.assumptions.conditioning
    );
    if !e.tier_path.is_empty() {
        println!("  tier path: {}", e.tier_path.join(" -> "));
    }
    let p = &report.provenance;
    println!(
        "  provenance: source={}, tier={}, cached={}, memo-hit={}, work={}",
        p.source,
        p.tier.unwrap_or("-"),
        p.cached,
        p.memo_hit.map_or("-".to_string(), |h| h.to_string()),
        p.work,
    );
    let t = &report.telemetry;
    println!(
        "  timing: expand {:.1} us, eval {:.1} us, total {:.1} us, {} buckets visited",
        t.expand_ns as f64 / 1e3,
        t.eval_ns as f64 / 1e3,
        t.total_ns as f64 / 1e3,
        t.buckets_visited,
    );
}
