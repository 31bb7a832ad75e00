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
use xtwig::core::estimate::{EstimateOptions, EstimateOptionsBuilder};
use xtwig::core::telemetry;
use xtwig::core::{
    coarse_synopsis, load_synopsis, read_snapshot, write_snapshot_atomic, CatalogError,
    CatalogOptions, EstimateReport, SnapshotCatalog, SnapshotError, StdVfs, Synopsis,
};
use xtwig::datagen::{imdb, sprot, xmark, ImdbConfig, SprotConfig, XMarkConfig};
use xtwig::query::{parse_twig, selectivity, TwigQuery};
use xtwig::workload::{
    random_delta, run_catalog_soak, CatalogSoakOptions, CrashPoint, GuardedCatalog, IngestError,
    IngestOptions, IngestStore, SoakPlan, CRASH_POINTS,
};
use xtwig::xml::{parse_stream, write_xml, DocStats, Document, StreamLimits};

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

/// A subcommand's handler: its arguments after the command name.
type Command = fn(&[String]) -> Result<Outcome, CliError>;

const EXIT_DEGRADED: u8 = 3;
const EXIT_CORRUPT: u8 = 4;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("help") | Some("--help") | Some("-h") | None => {
            print!("{USAGE}");
            Ok(Outcome::Full)
        }
        Some(name) => {
            let run: Option<Command> = match name {
                "generate" => Some(cmd_generate),
                "stats" => Some(cmd_stats),
                "eval" => Some(cmd_eval),
                "estimate" => Some(cmd_estimate),
                "serve" => Some(cmd_serve),
                "build" => Some(cmd_build),
                "ingest" => Some(cmd_ingest),
                "inspect" => Some(cmd_inspect),
                "check" => Some(cmd_check),
                _ => None,
            };
            match run {
                Some(run) => check_flags(name, &args[1..]).and_then(|()| run(&args[1..])),
                None => Err(CliError::Usage(format!("unknown command `{name}`"))),
            }
        }
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
                  [--catalog <dir>] [--threads N] [--tenant-quota N]
                  [--deadline-ms N] [--work-limit N] [--reload-on <snap>]
                  [--metrics-out <file.prom>]
                  [--soak] [--soak-profile <full|saturation|catalog|storage>]
                  [--soak-seed N]
  xtwig-cli serve <plan.txt> --catalog <dir> [--publish <file.xml>]
                  [--budget BYTES] [--threads N] [--tenant-quota N]
                  [--max-resident N] [--deadline-ms N] [--work-limit N]
                  [--reload-on <snap>] [--metrics-out <file.prom>]
  xtwig-cli build <file.xml> --out <synopsis.xtwg> [--budget BYTES]
  xtwig-cli ingest <store-dir> --init <file.xml>
  xtwig-cli ingest <store-dir> [--status] [--mutate N] [--seed S]
                   [--crash-after K] [--crash-point <site>]
                   [--checkpoint-every N] [--drift-threshold X]
  xtwig-cli inspect <synopsis.xtwg>
  xtwig-cli check <synopsis.xtwg | file.xml> [--budget BYTES]
  xtwig-cli check --catalog <dir>

Twig query notation: for $t0 in //movie[type = 1], $t1 in $t0/actor

`estimate` serves through the same front door as `serve`: the synopsis
(--synopsis, or a fresh XBUILD under --budget) is published as the one
key of a snapshot catalog in a temporary directory, removed on exit,
and the query is served through that key's guarded fallback chain
(XSKETCH -> Markov -> label-count bound) under the optional deadline/work
budget; the serving tier is reported on stderr whenever it is not
full-fidelity XSKETCH. A corrupt --synopsis snapshot, or one in a retired
format, is recovered by rebuilding from the document (and exits 3 so
scripts notice). `--explain` additionally
prints every embedding's contribution to the sum (they add up to the
estimate), the assumption-application counts, and the tier trail.

`serve` answers every request through one front door: a snapshot
catalog whose keys each serve through the guarded chain (XSKETCH, then
Markov, then the label-count bound). With <file.xml> <queries.txt> the
document's synopsis (--synopsis, or a fresh XBUILD under --budget) is
published as the one key `default/main` of a catalog in a temporary
directory (or --catalog) and every query line is served against it.
With <plan.txt> --catalog <dir> the plan holds one request per line,
`tenant/document <twig-query>`, against snapshots stored as
`<dir>/<tenant>/<document>.xtwg` (snapshot format v3, faulted in on
first use and CRC-verified); `--publish <file.xml>` builds a synopsis
from the document and publishes it under every plan key first. Each
tenant is admitted through its own in-flight quota (`--tenant-quota`,
0 = unlimited) and circuit breaker, so one tenant's faults or floods
never degrade another's service; `--max-resident` bounds how many
documents stay resident before cold-key eviction. Every batch runs on
--threads workers through the key's epoch-keyed estimate cache; one
line per request reports the estimate, marked `[degraded: <tier>]` when
a budget (--deadline-ms, --work-limit) or a fault sent it down the
chain and `[cached]` when the cache answered, plus a summary on stderr.
Requests shed by admission control (quota or breaker) or served
degraded exit 3; a key quarantined over a corrupt snapshot exits 4
(the snapshot was rejected and never served; republishing lifts the
quarantine). `--metrics-out` writes the process-wide metrics registry
in Prometheus text format on exit; read it back with
`xtwig-cli stats --metrics <file.prom>`.

`--reload-on <snap>` hot-reloads that snapshot into every key while
the requests are in flight: the bytes are verified first and published
only if they pass, so in-flight requests finish on the snapshot they
started on. A corrupt snapshot publishes nothing — the rollback — and
exits 4.

`--soak` runs the seeded catalog soak plan (a panic burst that must
open and re-close the tenant breaker, hot and corrupt reloads,
requests starved onto the fallback chain, quota saturation, and reloads
under a crash-recovering ingest stream) and exits 4 deterministically
because the corrupt-reload rollback phase is part of the plan;
`--soak-profile saturation` only saturates the tenant quota and exits 3
deterministically via shedding; `--soak-profile catalog` runs the
tenant-isolation plan: a cold stampede of 8 callers that must collapse
to one disk load (the profile's tenant quota defaults to unlimited, so
no stampede caller is shed), a panic burst that must open only the victim tenant's breaker
while healthy tenants serve bit-identical estimates, and post-cooldown
recovery (exit 0). `--soak-profile storage` runs the storage plan on
the same catalog: the key's snapshot file truncated, bit-flipped
(anywhere, and in its bucket columns), replaced by garbage and emptied (each quarantined without a rebuild
hook and rebuilt with one), an unreadable file (typed I/O errors, no
quarantine, bit-identical once the device heals), and 50 seeded
device-fault phases (write errors, ENOSPC, short writes, failed
renames and fsyncs, read errors, bit-rot) under both the ingest store's
commit protocol and cold fault-ins. Every request must end
bit-identical or typed and every recovery land on a durable state; its
sheds are expected (exit 0). All four profiles honour --catalog,
--threads and --tenant-quota. Exit 1 from a soak run means a
resilience invariant was violated.

`build` writes the synopsis as a v3 snapshot, the one format every
command reads; `inspect` and `check` refuse any other version (the
retired v1 and v2 included) as a corrupt snapshot.

`check --catalog <dir>` is the deep fsck for a catalog directory: it
sweeps every `<tenant>/<document>.xtwg`, verifies every section CRC of
the v3 snapshot, rebuilds the synopsis from the snapshot's columns, and
runs the structural fsck, printing one report line per key. Exits 4 if any
snapshot is corrupt (after completing the sweep), 1 if any is
unreadable or the catalog is empty.

`ingest` maintains a live document store: `--init` seeds it from an XML
file; every later invocation opens it through crash recovery (replaying
the delta WAL onto the committed checkpoint, truncating torn tails),
then applies `--mutate N` seeded random deltas through the incremental
delta-XBUILD path with drift-triggered refined checkpoints. The
recovery outcome maps onto the exit codes: 0 when the recovered state
byte-matched the checkpoint image and fsck passes, 3 when the image was
unreadable or did not match (recovery rewrites it from the document, so
the next open is clean) or a refinement fell back to coarse, 4 when the
recovered synopsis fails fsck. `--crash-after K` arms a
simulated kill at the K-th delta's `--crash-point` site (one of
before-wal-append, after-wal-append, torn-wal-append,
after-checkpoint-files, after-current-flip); the process stops there
with exit 1 exactly as a kill -9 would, and the next invocation must
recover cleanly.

EXIT CODES:
  0  success, full-fidelity estimate
  1  failure (I/O, build errors, violated soak invariant, or a document
     the parser refuses: nested past 256 elements, a DTD, an entity
     flood; the error names the byte offset and the limit)
  2  usage error (bad flags or arguments)
  3  degraded: answered by a fallback tier, a tripped deadline/work
     budget, shed by admission control, after rebuilding a corrupt
     snapshot, or an ingest recovery that rewrote a bad checkpoint image
  4  corrupt snapshot (inspect/check, a quarantined catalog key, a
     rolled-back serve --reload-on, a soak run that exercised its
     rollback phase, or an ingest store whose recovered synopsis fails
     fsck)
";

/// The flags `command`'s USAGE lines list, each with whether it takes
/// a value: `[--flag]` alone is bare. USAGE is the one list of flags.
fn usage_flags(command: &str) -> Vec<(&'static str, bool)> {
    let mut current = "";
    let mut flags = Vec::new();
    let block = USAGE.lines().skip_while(|l| *l != "USAGE:").skip(1);
    for line in block.take_while(|l| !l.is_empty()) {
        if let Some(rest) = line.trim_start().strip_prefix("xtwig-cli ") {
            current = rest.split_whitespace().next().unwrap_or_default();
        }
        if current != command {
            continue;
        }
        for token in line.split_whitespace() {
            let token = token.trim_start_matches('[');
            if token.starts_with("--") {
                let flag = token.trim_end_matches(']');
                flags.push((flag, flag.len() == token.len()));
            }
        }
    }
    flags
}

/// Refuses any `--flag` the command's USAGE lines do not list.
fn check_flags(command: &str, args: &[String]) -> Result<(), CliError> {
    let flags = usage_flags(command);
    let mut i = 0;
    while let Some(a) = args.get(i) {
        i += match flags.iter().find(|(flag, _)| flag == a) {
            Some((_, true)) => 2,
            Some((_, false)) => 1,
            None if !a.starts_with("--") => 1,
            None => {
                return Err(CliError::Usage(format!(
                    "unknown flag `{a}` for `{command}`"
                )))
            }
        };
    }
    Ok(())
}

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

/// Parses a twig query, reporting its latency to the metrics registry.
fn parse_twig_timed(text: &str) -> Result<TwigQuery, xtwig::query::ParseError> {
    let t0 = std::time::Instant::now();
    let q = parse_twig(text);
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

/// Streams the document at `path` through the XML parser under the
/// default [`StreamLimits`]. Every command that reads a document comes
/// through here, so a hostile one (nested too deep, a DTD, an entity
/// flood) fails the command with the parser's typed error, which names
/// the byte offset and the limit.
fn load(path: &str) -> Result<Document, CliError> {
    let file =
        std::fs::File::open(path).map_err(|e| CliError::Failure(format!("reading {path}: {e}")))?;
    parse_stream(file, StreamLimits::default())
        .map_err(|e| CliError::Failure(format!("parsing {path}: {e}")))
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
    let doc = load(path)?;
    let t0 = std::time::Instant::now();
    let (synopsis, rounds) = build_synopsis(args, &doc)?;
    let written = write_snapshot_atomic(Path::new(&out), &synopsis)
        .map_err(|e| CliError::Failure(format!("writing {out}: {e}")))?;
    println!(
        "built {} nodes / {} edges / {:.1} KB in {} rounds ({:?}); snapshot {written} bytes -> {out}",
        synopsis.node_count(),
        synopsis.edge_count(),
        synopsis.size_bytes() as f64 / 1024.0,
        rounds,
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
        let image = if rec.snapshot_verified {
            String::new()
        } else {
            format!(
                ", checkpoint image {} ({})",
                if rec.snapshot_unreadable {
                    "unreadable"
                } else {
                    "did not match the re-derived synopsis"
                },
                if rec.rebuilt_snapshot {
                    "rewritten from the document"
                } else {
                    "rewrite failed"
                },
            )
        };
        println!(
            "recovered generation {} ({} checkpoint): {} WAL record(s) replayed{}{image}{}",
            rec.generation,
            rec.kind,
            rec.replayed,
            if rec.torn_tail {
                ", torn tail truncated"
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

/// Reads a snapshot file: an I/O failure exits 1, a corrupt snapshot
/// (or one in a retired format) exits 4.
fn read_synopsis(path: &str) -> Result<Synopsis, CliError> {
    read_snapshot(Path::new(path)).map_err(|e| match e {
        SnapshotError::Io { .. } => CliError::Failure(e.to_string()),
        _ => CliError::Corrupt(format!("{path}: {e}")),
    })
}

fn cmd_inspect(args: &[String]) -> Result<Outcome, CliError> {
    let path = args
        .first()
        .ok_or_else(|| CliError::Usage("inspect needs a snapshot file".into()))?;
    let synopsis = read_synopsis(path)?;
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
        build_synopsis(args, &load(path)?)?.0
    } else {
        read_synopsis(path)?
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
            // Every section CRC and the carve (the verified load), the
            // synopsis rebuilt from the columns, then the structural fsck.
            let deep = load_synopsis(&bytes)
                .map_err(|e| e.to_string())
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

/// The positional arguments of `serve`: everything that is neither a
/// flag nor a flag's value.
fn positionals(args: &[String]) -> Vec<&str> {
    let flags = usage_flags("serve");
    let mut out = Vec::new();
    let mut i = 0;
    while let Some(a) = args.get(i) {
        if a.starts_with("--") {
            let bare = flags.iter().any(|(flag, valued)| flag == a && !valued);
            i += if bare { 1 } else { 2 };
        } else {
            out.push(a.as_str());
            i += 1;
        }
    }
    out
}

/// Reads one twig query per non-comment line of `path`.
fn read_queries(path: &str) -> Result<Vec<TwigQuery>, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Failure(format!("reading {path}: {e}")))?;
    let mut queries = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let q = parse_twig_timed(line)
            .map_err(|e| CliError::Usage(format!("{path}:{}: {e}", lineno + 1)))?;
        queries.push(q);
    }
    if queries.is_empty() {
        return Err(CliError::Usage(format!("{path}: no queries")));
    }
    Ok(queries)
}

/// The requests of one catalog key, with each one's position in the
/// input so output keeps input order.
type KeyedBatch = ((String, String), Vec<(usize, TwigQuery)>);

/// Parses a catalog plan: one `tenant/document <query>` request per
/// line, grouped per key so each document serves one batch.
fn read_plan(path: &str) -> Result<(Vec<KeyedBatch>, usize), CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Failure(format!("reading {path}: {e}")))?;
    let mut batches: Vec<KeyedBatch> = Vec::new();
    let mut total = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = || {
            CliError::Usage(format!(
                "{path}:{}: expected `tenant/document <query>`",
                lineno + 1
            ))
        };
        let (key, qtext) = line.split_once(char::is_whitespace).ok_or_else(bad)?;
        let (tenant, document) = key.split_once('/').ok_or_else(bad)?;
        let q = parse_twig_timed(qtext.trim())
            .map_err(|e| CliError::Usage(format!("{path}:{}: {e}", lineno + 1)))?;
        let key = (tenant.to_string(), document.to_string());
        match batches.iter_mut().find(|(k, _)| *k == key) {
            Some((_, qs)) => qs.push((total, q)),
            None => batches.push((key, vec![(total, q)])),
        }
        total += 1;
    }
    if total == 0 {
        return Err(CliError::Usage(format!("{path}: no requests")));
    }
    Ok((batches, total))
}

/// XBUILD under the CLI's `--budget`: the synopsis and its refinement
/// rounds.
fn build_synopsis(args: &[String], doc: &Document) -> Result<(Synopsis, usize), CliError> {
    let budget: usize = parse_flag(args, "--budget", 20 * 1024)?;
    let build = BuildOptions {
        budget_bytes: budget,
        refinements_per_round: 4,
        ..Default::default()
    };
    let (synopsis, trace) = xbuild(doc, TruthSource::Exact, &build);
    Ok((synopsis, trace.rounds.len()))
}

/// Request options under `--deadline-ms` (from now; 0 = none) and
/// `--work-limit` (0 = unlimited).
fn budget(deadline_ms: u64, work_limit: u64) -> EstimateOptionsBuilder {
    let deadline =
        (deadline_ms > 0).then(|| std::time::Instant::now() + Duration::from_millis(deadline_ms));
    EstimateOptions::builder()
        .work_limit(work_limit)
        .deadline_opt(deadline)
}

/// A catalog directory: `--catalog` when given, else a fresh temporary
/// directory the caller removes (`true`).
fn catalog_dir(args: &[String], tag: &str) -> (std::path::PathBuf, bool) {
    match flag(args, "--catalog") {
        Some(d) => (std::path::PathBuf::from(d), false),
        None => {
            let dir = std::env::temp_dir().join(format!("xtwig-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            (dir, true)
        }
    }
}

/// `serve`: every mode answers through one loop over a guarded catalog
/// (`SnapshotCatalog::serve`, each key behind the XSKETCH → Markov →
/// label-count chain).
///
/// * `serve <file.xml> <queries.txt>` publishes the document's synopsis
///   (`--synopsis` or a fresh XBUILD) as the one key `default/main` of
///   a catalog in a temporary directory (or `--catalog`) and serves
///   every query line against it.
/// * `serve <plan.txt> --catalog <dir>` serves `tenant/document <query>`
///   lines, optionally publishing `--publish <file.xml>` under every key
///   first.
/// * `--soak`/`--soak-profile` run the seeded soak plans instead.
///
/// Exit codes: a reload rollback exits 4 and takes precedence; shed or
/// degraded requests exit 3; a quarantined key or a corrupt snapshot
/// exits 4; an unknown document or a contained serving fault exits 1.
fn cmd_serve(args: &[String]) -> Result<Outcome, CliError> {
    if has_flag(args, "--soak") || flag(args, "--soak-profile").is_some() {
        return cmd_soak(args);
    }
    let pos = positionals(args);
    let default_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let threads: usize = parse_flag(args, "--threads", default_threads)?;
    let tenant_quota: usize = parse_flag(args, "--tenant-quota", 0)?;
    let max_resident: usize = parse_flag(args, "--max-resident", 64)?;
    let deadline_ms: u64 = parse_flag(args, "--deadline-ms", 0)?;
    let work_limit: u64 = parse_flag(args, "--work-limit", 0)?;

    let single_doc = pos.len() >= 2 || flag(args, "--catalog").is_none();
    let (batches, total) = if single_doc {
        let qfile = pos
            .get(1)
            .ok_or_else(|| CliError::Usage("serve needs an XML file and a queries file".into()))?;
        let queries = read_queries(qfile)?;
        let total = queries.len();
        let key = ("default".to_string(), "main".to_string());
        (
            vec![(key, queries.into_iter().enumerate().collect())],
            total,
        )
    } else {
        let plan = pos
            .first()
            .ok_or_else(|| CliError::Usage("serve --catalog needs a plan file".into()))?;
        read_plan(plan)?
    };

    // Read the reload snapshot up front so a missing file fails fast
    // (exit 1) instead of mid-batch; a *corrupt* file is caught by the
    // verification inside the reload itself and rolls back (exit 4).
    let reload_bytes: Option<Vec<u8>> = match flag(args, "--reload-on") {
        Some(p) => {
            Some(std::fs::read(&p).map_err(|e| CliError::Failure(format!("reading {p}: {e}")))?)
        }
        None => None,
    };

    let (dir, ephemeral) = catalog_dir(args, "serve");
    let catalog: GuardedCatalog = SnapshotCatalog::open_tier(
        &dir,
        CatalogOptions::builder()
            .threads(threads)
            .tenant_quota(tenant_quota)
            .max_resident(max_resident)
            .build(),
        std::sync::Arc::new(StdVfs),
    );
    let served = (|| {
        let publish = |synopsis: &Synopsis| -> Result<(), CliError> {
            for ((tenant, document), _) in &batches {
                let n = catalog
                    .publish(tenant, document, synopsis)
                    .map_err(|e| CliError::Failure(format!("publish {tenant}/{document}: {e}")))?;
                if !single_doc {
                    eprintln!("published {tenant}/{document} ({n} bytes)");
                }
            }
            Ok(())
        };
        if single_doc {
            let path = pos
                .first()
                .ok_or_else(|| CliError::Usage("serve needs an XML file".into()))?;
            let doc = load(path)?;
            let synopsis = match flag(args, "--synopsis") {
                Some(snap) => read_synopsis(&snap)?,
                None => build_synopsis(args, &doc)?.0,
            };
            publish(&synopsis)?;
        } else if let Some(xml) = flag(args, "--publish") {
            publish(&build_synopsis(args, &load(&xml)?)?.0)?;
        }
        let opts = budget(deadline_ms, work_limit).build();
        serve_plan(
            &catalog,
            &batches,
            total,
            &opts,
            !single_doc,
            reload_bytes.as_deref(),
        )
    })();
    if ephemeral {
        let _ = std::fs::remove_dir_all(&dir);
    }
    let (shed, degraded) = served?;
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

/// The serve loop: one `SnapshotCatalog::serve` per key, output in
/// input order, and — with `reload` — a verified publish of those bytes
/// into every key while the requests are in flight. Returns
/// `(shed, degraded)` request counts.
fn serve_plan(
    catalog: &GuardedCatalog,
    batches: &[KeyedBatch],
    total: usize,
    opts: &EstimateOptions,
    show_keys: bool,
    reload: Option<&[u8]>,
) -> Result<(usize, usize), CliError> {
    let mut lines: Vec<Option<String>> = vec![None; total];
    let (mut shed, mut degraded) = (0usize, 0usize);
    let mut reloaded: Vec<Result<u64, CatalogError>> = Vec::new();
    let t0 = std::time::Instant::now();
    let served: Result<(), CliError> = std::thread::scope(|scope| {
        let reloader = reload.map(|bytes| {
            scope.spawn(move || {
                // Fire mid-flight: the batches are already serving.
                std::thread::sleep(Duration::from_micros(200));
                batches
                    .iter()
                    .map(|((tenant, document), _)| catalog.reload(tenant, document, bytes))
                    .collect::<Vec<_>>()
            })
        });
        let mut result = Ok(());
        for ((tenant, document), members) in batches {
            let key = if show_keys {
                format!("  {tenant}/{document}")
            } else {
                String::new()
            };
            let queries: Vec<TwigQuery> = members.iter().map(|(_, q)| q.clone()).collect();
            match catalog.serve(tenant, document, &queries, opts) {
                Ok(reports) => {
                    for ((idx, q), rep) in members.iter().zip(&reports) {
                        let p = &rep.provenance;
                        let mut marker = String::new();
                        if p.degraded {
                            degraded += 1;
                            marker = format!("  [degraded: {}", p.tier.unwrap_or("xsketch"));
                            if let Some(ex) = p.exhaustion {
                                marker.push_str(&format!(", {ex}"));
                            }
                            marker.push(']');
                        }
                        if p.cached {
                            marker.push_str("  [cached]");
                        }
                        if let Some(line) = lines.get_mut(*idx) {
                            *line = Some(format!("{:.1}{key}  {q}{marker}", rep.estimate));
                        }
                    }
                }
                Err(
                    e @ (CatalogError::QuotaExceeded { .. } | CatalogError::BreakerOpen { .. }),
                ) => {
                    shed += members.len();
                    for (idx, q) in members {
                        if let Some(line) = lines.get_mut(*idx) {
                            *line = Some(format!("shed{key}  {q}  [{e}]"));
                        }
                    }
                }
                Err(e) => {
                    result = Err(serve_error(tenant, document, e));
                    break;
                }
            }
        }
        if let Some(r) = reloader {
            reloaded = r.join().unwrap_or_default();
        }
        result
    });
    served?;
    let elapsed = t0.elapsed();
    for line in lines.into_iter().flatten() {
        println!("{line}");
    }
    let stats = catalog.stats();
    eprintln!(
        "catalog served {total} requests over {} documents in {elapsed:?} \
         ({:.0} qps, {} threads); {} cold loads / {} warm hits, \
         {} resident, {} evictions, {} quota sheds, {} breaker sheds",
        batches.len(),
        total as f64 / elapsed.as_secs_f64().max(1e-9),
        catalog.options().threads,
        stats.cold_loads,
        stats.warm_hits,
        stats.resident,
        stats.evictions,
        stats.quota_sheds,
        stats.breaker_sheds,
    );
    let mut epoch = 0u64;
    for (r, ((tenant, document), _)) in reloaded.into_iter().zip(batches) {
        match r {
            Ok(n) => {
                epoch += 1;
                eprintln!("hot reload installed epoch {epoch} on {tenant}/{document} ({n} bytes)");
            }
            Err(e) => {
                return Err(CliError::Corrupt(format!(
                    "--reload-on rolled back on {tenant}/{document}: {e}; \
                     serving continued on the previous snapshot"
                )))
            }
        }
    }
    Ok((shed, degraded))
}

/// The exit a failed catalog serve maps to: a corrupt snapshot or a
/// quarantined key (the snapshot was rejected and never served) exits
/// 4, anything else 1.
fn serve_error(tenant: &str, document: &str, e: CatalogError) -> CliError {
    match e {
        CatalogError::Snapshot(e @ SnapshotError::Io { .. }) => CliError::Failure(e.to_string()),
        CatalogError::Snapshot(e) => CliError::Corrupt(format!("{tenant}/{document}: {e}")),
        e @ CatalogError::Quarantined { .. } => CliError::Corrupt(e.to_string()),
        e => CliError::Failure(format!("serve {tenant}/{document}: {e}")),
    }
}

/// `serve --soak` / `--soak-profile`: the seeded soak plans (`full`,
/// `saturation`, `catalog`, `storage`) on the same guarded catalog.
///
/// Exit-code mapping (deterministic, scripts rely on it): a reload
/// rollback — the corrupt-reload phase of the full plan — exits 4 and
/// takes precedence; shed or degraded requests exit 3 (the sheds of the
/// `catalog` and `storage` plans are their expected outcome and exit 0);
/// a violated soak invariant exits 1.
fn cmd_soak(args: &[String]) -> Result<Outcome, CliError> {
    let pos = positionals(args);
    let path = pos
        .first()
        .ok_or_else(|| CliError::Usage("serve needs an XML file".into()))?;
    let qfile = pos
        .get(1)
        .ok_or_else(|| CliError::Usage("serve needs a queries file".into()))?;
    let queries = read_queries(qfile)?;
    let doc = load(path)?;
    let seed: u64 = parse_flag(args, "--soak-seed", 0xD0C5_0AB5)?;
    let profile = flag(args, "--soak-profile").unwrap_or_else(|| "full".to_string());
    let defaults = if profile == "catalog" {
        CatalogSoakOptions::isolation()
    } else {
        CatalogSoakOptions::default()
    };
    let options = CatalogSoakOptions {
        threads: parse_flag(args, "--threads", defaults.threads)?,
        catalog: defaults
            .catalog
            .to_builder()
            .tenant_quota(parse_flag(
                args,
                "--tenant-quota",
                defaults.catalog.tenant_quota,
            )?)
            .build(),
    };
    let plan = match profile.as_str() {
        "full" => SoakPlan::generate(seed, &options),
        "saturation" => SoakPlan::saturation_only(seed, &options),
        "catalog" => SoakPlan::isolation(seed, &options),
        "storage" => SoakPlan::storage(seed),
        other => {
            return Err(CliError::Usage(format!(
                "unknown --soak-profile `{other}` (full|saturation|catalog|storage)"
            )))
        }
    };
    let (dir, ephemeral) = catalog_dir(args, "soak");
    // Injected panics are part of the plan; silence their backtraces so
    // the report below is the only output.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let report = run_catalog_soak(&doc, &queries, &dir, &plan, &options);
    std::panic::set_hook(prev);
    if ephemeral {
        let _ = std::fs::remove_dir_all(&dir);
    }
    println!("{report}");
    if !report.passed() {
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
    let sheds_expected = profile == "catalog" || profile == "storage";
    if !sheds_expected && (report.shed > 0 || report.degraded > 0) {
        eprintln!(
            "{} of {} requests shed, {} degraded",
            report.shed, report.requests, report.degraded
        );
        return Ok(Outcome::Degraded);
    }
    Ok(Outcome::Full)
}

/// Serves `q` the way `serve <file.xml>` serves each query line:
/// `synopsis` is published as the one key `default/main` of a guarded
/// catalog in a temporary directory, which is removed before returning.
/// The budget starts when the request does, after the publish. Returns
/// the report and the time the serve took (fault-in included).
fn serve_through_catalog(
    args: &[String],
    synopsis: &Synopsis,
    q: &TwigQuery,
    deadline_ms: u64,
    work_limit: u64,
) -> Result<(EstimateReport, Duration), CliError> {
    let (dir, ephemeral) = catalog_dir(args, "estimate");
    let catalog: GuardedCatalog =
        SnapshotCatalog::open_tier(&dir, CatalogOptions::default(), std::sync::Arc::new(StdVfs));
    let (tenant, document) = ("default", "main");
    let served = catalog
        .publish(tenant, document, synopsis)
        .map_err(|e| CliError::Failure(format!("publish {tenant}/{document}: {e}")))
        .and_then(|_| {
            // Always request an explain: the tier trail drives the
            // degradation report, and the report is bit-identical
            // either way.
            let opts = budget(deadline_ms, work_limit).explain(true).build();
            let t0 = std::time::Instant::now();
            let reports = catalog
                .serve(tenant, document, std::slice::from_ref(q), &opts)
                .map_err(|e| serve_error(tenant, document, e))?;
            Ok((reports, t0.elapsed()))
        });
    if ephemeral {
        let _ = std::fs::remove_dir_all(&dir);
    }
    let (mut reports, took) = served?;
    let report = reports
        .pop()
        .ok_or_else(|| CliError::Failure("the catalog returned no report".into()))?;
    Ok((report, took))
}

fn cmd_estimate(args: &[String]) -> Result<Outcome, CliError> {
    let path = args
        .first()
        .ok_or_else(|| CliError::Usage("estimate needs a file".into()))?;
    let qtext = args
        .get(1)
        .ok_or_else(|| CliError::Usage("estimate needs a twig query".into()))?;
    // A malformed --budget is a usage error even when --synopsis spares
    // the build.
    parse_flag::<usize>(args, "--budget", 0)?;
    let deadline_ms: u64 = parse_flag(args, "--deadline-ms", 0)?;
    let work_limit: u64 = parse_flag(args, "--work-limit", 0)?;
    let explain = has_flag(args, "--explain");
    let doc = load(path)?;
    let q = parse_twig_timed(qtext).map_err(|e| CliError::Usage(e.to_string()))?;

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
                build_synopsis(args, &doc)?
            }
        },
        None => build_synopsis(args, &doc)?,
    };
    let built_in = t0.elapsed();

    let (report, est_in) = serve_through_catalog(args, &synopsis, &q, deadline_ms, work_limit)?;
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
fn print_explain(report: &EstimateReport) {
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
