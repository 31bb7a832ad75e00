//! Request-path benchmark for the snapshot catalog front door.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload warm_serve --seed 1 --seconds 10 --trace 0
//! ```
//!
//! With `--trace 0` the last stdout line is a JSON object carrying the
//! end-to-end metrics; with `--trace 1` it carries the per-layer
//! metrics of a traced run. See `perfbench/README.md`.

mod drive;
mod setup;
mod trace;

use std::path::{Path, PathBuf};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use drive::{verify_live, wal_replay, Client, ClientOut, Live, Until, Writer, WriterOut};
use setup::{doc_name, run_xbuild, Setup, SCALE};
use trace::{peak_rss_mb, steal_ticks, unstolen, Dist, Spans};
use xtwig_datagen::Dataset;
use xtwig_workload::{IngestOptions, IngestStore};

/// Set-ups per untraced run; `setup_s` is their median. `ingest_mixed`
/// sets up in under a second, so it repeats more to span the host's
/// multi-second speed swings as the others do.
const SETUPS: usize = 3;
const SETUPS_INGEST: usize = 7;
/// On `ingest_mixed` the reader and the writer swap threads this often,
/// so each role spends half the window on each vCPU. The host's vCPUs
/// swing about 1.6x in speed, independently and for seconds at a time;
/// a reader that kept one thread timed that thread's vCPU (ten-seed
/// spread of `request_p50_us` 0.39 against 0.10 with swapping).
const SWAP_EVERY: Duration = Duration::from_secs(1);
/// Deltas the traced read-only workloads push through the ingest
/// probe: 72 per store, so each store takes one periodic checkpoint.
const PROBE_DELTAS: usize = 3 * 72;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every key resident; a Zipf-skewed pool larger than each cache
    /// partition.
    WarmServe,
    /// Six times more keys than `max_resident`: most requests fault in.
    ColdTenants,
    /// One writer ingesting and publishing beside one reader.
    IngestMixed,
}

/// How a workload shapes set-up and load.
pub struct Params {
    /// Tenants per generator.
    pub tenants: usize,
    /// Catalog `max_resident`.
    pub max_resident: usize,
    /// Keys are live ingest stores.
    pub ingest: bool,
    /// The warm-up pass visits every key, not one per generator.
    pub warm_all: bool,
    /// Closed-loop reader threads.
    pub readers: usize,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "warm_serve" => Some(Workload::WarmServe),
            "cold_tenants" => Some(Workload::ColdTenants),
            "ingest_mixed" => Some(Workload::IngestMixed),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::WarmServe => "warm_serve",
            Workload::ColdTenants => "cold_tenants",
            Workload::IngestMixed => "ingest_mixed",
        }
    }

    /// The workload's shape.
    pub fn params(self) -> Params {
        match self {
            Workload::WarmServe => Params {
                tenants: 4,
                max_resident: 64,
                ingest: false,
                warm_all: true,
                readers: 2,
            },
            Workload::ColdTenants => Params {
                tenants: 16,
                max_resident: 8,
                ingest: false,
                warm_all: false,
                // Two readers faulting in side by side finished fewer
                // requests than one, and their p99 tracked that
                // contention (five-seed spread 0.43 against 0.07).
                readers: 1,
            },
            Workload::IngestMixed => Params {
                tenants: 1,
                max_resident: 64,
                ingest: true,
                warm_all: true,
                readers: 1,
            },
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = Workload::parse(get("--workload")?)
        .ok_or("--workload must be warm_serve, cold_tenants or ingest_mixed")?;
    let seed = get("--seed")?
        .parse()
        .map_err(|_| "--seed must be an integer")?;
    let seconds: u64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be an integer")?;
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Removes the run's work directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The shared parent goes too once no other run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s.get(s.len() / 2).copied().unwrap_or(0.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per one-second window of the measured window, pooled over clients:
/// request p50 and p99 in microseconds, and requests per second of the
/// window's time the hypervisor did not steal. Only the half of the
/// windows with the least host steal time is kept, and the reported
/// figures are medians over those, so seconds in which the host took
/// the vCPUs away move them little.
struct Windows {
    p50: Vec<f64>,
    p99: Vec<f64>,
    rps: Vec<f64>,
}

/// Splits the clients' samples into the windows `steal` (ticks per
/// window) covers.
fn windowed(clients: &[ClientOut], steal: &[u64], cpus: usize) -> Windows {
    let mut lat: Vec<Vec<u64>> = vec![Vec::new(); steal.len()];
    let mut count = vec![0u64; steal.len()];
    for c in clients {
        for (w, ns) in c.lat.samples() {
            if let Some(v) = lat.get_mut(w as usize) {
                v.push(ns);
            }
        }
        for (w, n) in c.per_window.iter().enumerate() {
            if let Some(slot) = count.get_mut(w) {
                *slot += n;
            }
        }
    }
    // (steal, window, count, samples) of the windows with samples,
    // least stolen first.
    let mut rows: Vec<(u64, usize, u64, Vec<u64>)> = lat
        .into_iter()
        .enumerate()
        .filter(|(_, v)| !v.is_empty())
        .map(|(w, v)| (steal[w], w, count[w], v))
        .collect();
    rows.sort_by_key(|r| (r.0, r.1));
    rows.truncate(rows.len().div_ceil(2));
    let mut out = Windows {
        p50: Vec::new(),
        p99: Vec::new(),
        rps: Vec::new(),
    };
    for (stolen, _, n, v) in rows {
        let d = Dist::from_iter(v);
        out.p50.push(d.us(0.5));
        out.p99.push(d.us(0.99));
        out.rps.push(n as f64 / unstolen(1.0, stolen, cpus));
    }
    out
}

/// One metric line of the result object.
type Metric = (&'static str, f64, &'static str);

fn json_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Runs the ingest probe of the traced read-only workloads: fresh
/// stores over the same documents, a fixed number of deltas published
/// into the run's catalog under tenant `probe`.
fn ingest_probe(setup: &Setup, seed: u64, dir: &Path) -> Result<WriterOut, String> {
    let mut stores = Vec::new();
    let mut keys = Vec::new();
    for (gi, ds) in Dataset::ALL.into_iter().enumerate() {
        let store = IngestStore::create(
            &dir.join(format!("probe-{}", doc_name(ds))),
            ds.generate(SCALE),
            IngestOptions::default(),
        )
        .map_err(|e| format!("probe store: {e}"))?;
        stores.push(store);
        keys.push(setup::Key {
            tenant: "probe".into(),
            gen: gi,
        });
    }
    let mut w = Writer::new(&keys, &setup.gens, &setup.catalog, seed, None);
    w.run(&mut stores, Until::Count(PROBE_DELTAS));
    Ok(w.finish(&stores))
}

fn per_layer(sp: &Spans, setup: &Setup, w: &WriterOut, wal_bytes: f64) -> Vec<Metric> {
    let us = |name: &str, q: f64| sp.dist(name).us(q);
    let parse = sp.total("query.parse");
    let children =
        parse + sp.total("catalog.warm") + sp.total("catalog.serve") + sp.total("query.format");
    let fault_in_parts = sp.total("vfs.read") + sp.total("v3.crc_sweep") + sp.total("v3.carve");
    let stats = setup.catalog.stats();
    let fault_ins = sp.dist("catalog.fault_in").len() as f64;
    let setup_fault_ins = setup.keys.len() as f64;
    let uncached = sp.counter("uncached");
    let ack = Dist::from_iter(w.ack.iter().copied());
    let telemetry = xtwig_core::telemetry::global();
    vec![
        ("query.parse_us_p50", us("query.parse", 0.5), "us"),
        ("query.parse_us_p99", us("query.parse", 0.99), "us"),
        ("query.format_us_p50", us("query.format", 0.5), "us"),
        ("catalog.fault_in_us_p50", us("catalog.fault_in", 0.5), "us"),
        (
            "catalog.fault_in_us_p99",
            us("catalog.fault_in", 0.99),
            "us",
        ),
        (
            "catalog.serve_self_us_p50",
            us("catalog.serve_self", 0.5),
            "us",
        ),
        ("catalog.publish_us_p50", us("catalog.publish", 0.5), "us"),
        ("catalog.cold_loads", stats.cold_loads as f64, "count"),
        ("catalog.warm_hits", stats.warm_hits as f64, "count"),
        (
            "catalog.resident_hit_ratio",
            1.0 - ratio(fault_ins - setup_fault_ins, sp.counter("traced")),
            "ratio",
        ),
        ("catalog.evictions", stats.evictions as f64, "count"),
        (
            "catalog.sheds",
            (stats.quota_sheds + stats.breaker_sheds) as f64,
            "count",
        ),
        ("catalog.quarantined", stats.quarantined as f64, "count"),
        ("catalog.load_retries", stats.load_retries as f64, "count"),
        ("vfs.read_us_p50", us("vfs.read", 0.5), "us"),
        (
            "vfs.bytes_per_fault_in",
            ratio(sp.counter("vfs.bytes"), fault_ins),
            "bytes",
        ),
        ("v3.crc_sweep_us_p50", us("v3.crc_sweep", 0.5), "us"),
        ("v3.carve_us_p50", us("v3.carve", 0.5), "us"),
        (
            "v3.bytes_per_doc",
            setup.v3_bytes as f64 / setup.gens.len() as f64,
            "bytes",
        ),
        (
            "v3.bytes_over_v2",
            ratio(setup.v3_bytes as f64, setup.v2_bytes as f64),
            "ratio",
        ),
        (
            "compiled.source_decode_us_p50",
            us("compiled.source_decode", 0.5),
            "us",
        ),
        ("compiled.expand_us_p50", us("compiled.expand", 0.5), "us"),
        ("compiled.expand_us_p99", us("compiled.expand", 0.99), "us"),
        (
            "compiled.memo_hit_ratio",
            ratio(sp.counter("memo.hits"), uncached),
            "ratio",
        ),
        ("compiled.eval_us_p50", us("compiled.eval", 0.5), "us"),
        ("compiled.eval_us_p99", us("compiled.eval", 0.99), "us"),
        (
            "compiled.embeddings_per_query",
            ratio(sp.counter("embeddings"), uncached),
            "count",
        ),
        (
            "compiled.buckets_per_query",
            ratio(sp.counter("buckets"), uncached),
            "count",
        ),
        (
            "cache.hit_ratio",
            ratio(sp.counter("cache.hits"), sp.counter("answers")),
            "ratio",
        ),
        (
            "batch.plan_reuses",
            telemetry.batch_plan_reuses.get() as f64,
            "count",
        ),
        ("batch.splits", telemetry.batch_splits.get() as f64, "count"),
        ("wal.append_fsync_us_p50", us("wal.append_fsync", 0.5), "us"),
        (
            "wal.append_fsync_us_p99",
            us("wal.append_fsync", 0.99),
            "us",
        ),
        ("wal.bytes_per_delta", wal_bytes, "bytes"),
        ("ingest.ack_us_p50", ack.us(0.5), "us"),
        ("ingest.ack_us_p99", ack.us(0.99), "us"),
        ("ingest.commit_us_p50", us("ingest.commit", 0.5), "us"),
        ("ingest.commit_us_p99", us("ingest.commit", 0.99), "us"),
        (
            "ingest.checkpoint_us_p50",
            us("ingest.checkpoint", 0.5),
            "us",
        ),
        ("ingest.checkpoints", w.stats.checkpoints as f64, "count"),
        ("ingest.refinements", w.stats.refinements as f64, "count"),
        (
            "ingest.refine_rollbacks",
            w.stats.refine_rollbacks as f64,
            "count",
        ),
        (
            "ingest.full_rebuilds",
            w.stats.full_rebuilds as f64,
            "count",
        ),
        ("xbuild.xmark_s", sp.total("xbuild.xmark") / 1e9, "s"),
        ("xbuild.imdb_s", sp.total("xbuild.imdb") / 1e9, "s"),
        ("xbuild.sprot_s", sp.total("xbuild.sprot") / 1e9, "s"),
        ("xbuild.rounds", sp.counter("xbuild.rounds"), "count"),
        (
            "trace.coverage",
            ratio(children, sp.total("request")),
            "ratio",
        ),
        (
            "trace.fault_in_coverage",
            ratio(fault_in_parts, sp.total("catalog.fault_in")),
            "ratio",
        ),
        (
            "trace.overhead",
            ratio(
                sp.dist("request").us(0.5),
                sp.dist("request.untraced").us(0.5),
            ),
            "ratio",
        ),
    ]
}

fn run(args: &Args) -> Result<i32, String> {
    let params = args.workload.params();
    let root = PathBuf::from(".bench_work").join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    let _cleanup = WorkDir(root.clone());

    // --- set-up ------------------------------------------------------
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut spans = Spans::default();
    let mut setup_s = Vec::new();
    let mut setup: Option<Setup> = None;
    let mut stores = Vec::new();
    // Warm-up answers of every set-up pass the same gate as the window's.
    let (mut warm_attempted, mut errors) = (0u64, Vec::new());
    let setups = match (args.trace, params.ingest) {
        (true, _) => 1,
        (false, true) => SETUPS_INGEST,
        (false, false) => SETUPS,
    };
    for i in 0..setups {
        if let Some(prev) = setup.take() {
            let dir = prev.dir.clone();
            drop(prev);
            let _ = std::fs::remove_dir_all(dir);
        }
        let dir = root.join(format!("setup-{i}"));
        let (t, steal0) = (Instant::now(), steal_ticks());
        let (mut s, st) = Setup::build(
            args.workload,
            args.seed,
            &dir,
            args.trace.then_some(&mut spans),
        )?;
        let wall = t.elapsed().as_secs_f64();
        setup_s.push(unstolen(wall, steal_ticks().saturating_sub(steal0), cpus));
        eprintln!(
            "# setup {i}: {:.3} s ({wall:.3} s wall), peak rss {:.1} MiB",
            setup_s[i],
            peak_rss_mb()
        );
        warm_attempted += s.warm_attempted;
        errors.append(&mut s.warm_failures);
        setup = Some(s);
        stores = st;
    }
    let setup = setup.ok_or("no set-up ran")?;

    let catalog_bytes = setup.catalog_bytes();

    // --- measured window ---------------------------------------------
    let live = params.ingest.then(|| Live::new(&setup));
    let start = Instant::now();
    let deadline = start + Duration::from_secs(args.seconds);
    let shared = params.ingest.then(|| {
        let writer = Writer::new(
            &setup.keys,
            &setup.gens,
            &setup.catalog,
            args.seed,
            live.as_ref(),
        );
        Mutex::new((writer, std::mem::take(&mut stores)))
    });
    let swap = Barrier::new(2);
    let mut steal = Vec::new();
    let clients: Vec<ClientOut> = std::thread::scope(|s| {
        let (setup, live, shared, swap) = (&setup, live.as_ref(), shared.as_ref(), &swap);
        let threads = if shared.is_some() { 2 } else { params.readers };
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let seed = setup::sub_seed(args.seed, 100 + t as u64);
                s.spawn(move || {
                    let mut client = Client::new(setup, seed, args.trace, live, start);
                    let Some(shared) = shared else {
                        client.run_until(deadline);
                        return client.out;
                    };
                    // One reader and one writer at any time, trading
                    // threads every `SWAP_EVERY`.
                    for period in 1u32.. {
                        let end = (start + SWAP_EVERY * period).min(deadline);
                        if (period as usize + t) & 1 == 0 {
                            client.run_until(end);
                        } else {
                            let mut guard = shared.lock().expect("writer lock is never poisoned");
                            let (writer, stores) = &mut *guard;
                            writer.run(stores, Until::Deadline(end));
                        }
                        swap.wait();
                        if end >= deadline {
                            break;
                        }
                    }
                    client.out
                })
            })
            .collect();
        // Meanwhile this thread notes the host's steal time per window.
        let mut prev = steal_ticks();
        for w in 1..=args.seconds {
            std::thread::sleep(
                (start + Duration::from_secs(w)).saturating_duration_since(Instant::now()),
            );
            let now = steal_ticks();
            steal.push(now.saturating_sub(prev));
            prev = now;
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread does not panic"))
            .collect()
    });
    let writer_out = shared.map(|m| {
        let (writer, st) = m.into_inner().expect("writer lock is never poisoned");
        stores = st;
        writer.finish(&stores)
    });

    // --- correctness gate ----------------------------------------------
    let requests: u64 = clients.iter().map(|c| c.attempted).sum();
    let mut attempted = requests + warm_attempted;
    let mut failed = errors.len() as u64 + clients.iter().map(|c| c.failed).sum::<u64>();
    errors.extend(clients.iter().flat_map(|c| c.errors.clone()));
    if let Some(w) = &writer_out {
        attempted += w.attempted;
        failed += w.failed;
        errors.extend(w.errors.iter().cloned());
    }
    if let Some(l) = &live {
        for c in &clients {
            let bad = verify_live(l, &c.log);
            failed += bad.len() as u64;
            errors.extend(bad.into_iter().take(8));
        }
    }
    // Every acknowledged delta is durable: reopening each store
    // recovers the live snapshot bytes.
    for store in stores.drain(..) {
        let live_bytes = store.snapshot_bytes();
        let dir = store.dir().to_path_buf();
        drop(store);
        attempted += 1;
        match IngestStore::open(&dir, IngestOptions::default()) {
            Ok(r) if r.snapshot_bytes() == live_bytes => {}
            Ok(_) => {
                failed += 1;
                errors.push(format!(
                    "{}: recovered snapshot differs from live",
                    dir.display()
                ));
            }
            Err(e) => {
                failed += 1;
                errors.push(format!("{}: recovery failed: {e}", dir.display()));
            }
        }
    }

    // --- metrics -------------------------------------------------------
    let metrics: Vec<Metric> = if args.trace {
        for c in clients {
            spans.merge(c.spans);
        }
        let probe_dir = root.join("probe");
        std::fs::create_dir_all(&probe_dir).map_err(|e| e.to_string())?;
        let w = match writer_out {
            Some(w) => w,
            None => ingest_probe(&setup, args.seed, &probe_dir)?,
        };
        if params.ingest {
            // The only layer this workload does not cross.
            for ds in Dataset::ALL {
                run_xbuild(&ds.generate(SCALE), doc_name(ds), Some(&mut spans));
            }
        }
        let wal_bytes = wal_replay(&probe_dir, &w.payloads, &mut spans)?;
        let mut w = w;
        spans.merge(std::mem::take(&mut w.spans));
        per_layer(&spans, &setup, &w, wal_bytes)
    } else {
        let lat = Dist::from_iter(clients.iter().flat_map(|c| c.lat.samples().map(|(_, ns)| ns)));
        let (tail_q, tail_us) = lat.tail();
        let windows = windowed(&clients, &steal, cpus);
        eprintln!(
            "# steal ticks per window {steal:?}; kept windows: p50 {:.0?} p99 {:.0?} rps {:.0?}",
            windows.p50, windows.p99, windows.rps
        );
        println!(
            "# facts: {{\"workload\": \"{}\", \"seed\": {}, \"scale\": {SCALE}, \"available_parallelism\": {}, \
             \"readers\": {}, \"writers\": {}, \"vfs\": \"StdVfs\", \"flush\": \"fsync on every WAL append and publish\", \
             \"latency_samples\": {}, \"tail\": [{tail_q}, {tail_us}], \"windows_kept\": {}, \"steal_ticks\": {}, \
             \"setup_runs\": {:?}, \
             \"note\": \"latencies are this host's page-cache-backed timings, not a storage device's\"}}",
            args.workload.name(),
            args.seed,
            cpus,
            params.readers,
            usize::from(params.ingest),
            lat.len(),
            windows.p50.len(),
            steal.iter().sum::<u64>(),
            setup_s,
        );
        if let Some(w) = &writer_out {
            let ack = Dist::from_iter(w.ack.iter().copied());
            println!(
                "# ingest: {} deltas, ack p50 {:.1} us p99 {:.1} us",
                ack.len(),
                ack.us(0.5),
                ack.us(0.99)
            );
        }
        vec![
            ("setup_s", median(&setup_s), "s"),
            ("request_p50_us", median(&windows.p50), "us"),
            ("request_p99_us", median(&windows.p99), "us"),
            ("throughput_rps", median(&windows.rps), "1/s"),
            ("avg_rel_error", setup.avg_rel_error, "ratio"),
            ("catalog_bytes", catalog_bytes as f64, "bytes"),
            ("peak_rss_mb", peak_rss_mb(), "MiB"),
        ]
    };
    for e in &errors {
        eprintln!("FAIL {e}");
    }
    let correct = failed == 0;
    println!(
        "{}",
        json_result(correct, attempted.max(1), failed, &metrics)
    );
    Ok(if correct { 0 } else { 1 })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage: --workload <warm_serve|cold_tenants|ingest_mixed> --seed <n> --seconds <n> --trace <0|1>\n{e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            std::process::exit(1);
        }
    }
}
