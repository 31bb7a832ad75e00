//! The request path and the closed-loop drivers.
//!
//! A request is one plan line, `tenant/document <twig text>`, taken
//! from its text to its answer line: `parse_twig`, then
//! `SnapshotCatalog::serve` for that one query, then the answer line
//! the CLI would print. Every client waits for its answer before
//! sending the next line (a closed loop, as an optimizer waits for each
//! estimate).

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use xtwig_core::{
    encode_delta, CompiledSynopsis, EstimateOptions, EstimateReport, SnapshotCatalog, WalWriter,
};
use xtwig_datagen::Zipf;
use xtwig_query::{parse_twig, TwigQuery};
use xtwig_workload::{random_delta, IngestStats, IngestStore};

use crate::setup::{fault_in_steps, sub_seed, Gen, Key, Setup};
use crate::trace::{take_reads, Reservoir, Spans, RESERVOIR};

/// Zipf exponent of query popularity.
const ZIPF_THETA: f64 = 1.0;
/// Popular ranks per generator the `ingest_mixed` reader draws from;
/// the writer answers exactly these on every new generation so the
/// reader's answers can be checked bitwise.
pub const LIVE_RANKS: usize = 32;
/// Error messages kept per thread.
const MAX_ERRORS: usize = 8;

/// One served request: the report, or why it failed.
pub type Served = Result<EstimateReport, String>;

fn split_line(line: &str) -> Result<(&str, &str, &str), String> {
    let (key, text) = line
        .split_once(' ')
        .ok_or_else(|| format!("bad plan line `{line}`"))?;
    let (tenant, document) = key
        .split_once('/')
        .ok_or_else(|| format!("bad plan key `{key}`"))?;
    Ok((tenant, document, text))
}

fn serve_one(
    catalog: &SnapshotCatalog,
    tenant: &str,
    document: &str,
    q: &TwigQuery,
    opts: &EstimateOptions,
) -> Served {
    catalog
        .serve(tenant, document, std::slice::from_ref(q), opts)
        .map_err(|e| e.to_string())?
        .pop()
        .ok_or_else(|| "empty answer batch".to_string())
}

fn answer_line(
    out: &mut String,
    rep: &EstimateReport,
    tenant: &str,
    document: &str,
    q: &TwigQuery,
) {
    out.clear();
    let _ = write!(out, "{:.1}  {tenant}/{document}  {q}", rep.estimate);
}

/// Serves one plan line through the front door, leaving the answer
/// line in `out`.
pub fn request(
    catalog: &SnapshotCatalog,
    line: &str,
    opts: &EstimateOptions,
    out: &mut String,
) -> Served {
    let (tenant, document, text) = split_line(line)?;
    let q = parse_twig(text).map_err(|e| e.to_string())?;
    let rep = serve_one(catalog, tenant, document, &q, opts)?;
    answer_line(out, &rep, tenant, document, &q);
    Ok(rep)
}

/// Layer timings of one traced request. The four spans tile the
/// request — each starts where the previous one ended — and are
/// recorded only after the request span closes, so recording costs
/// land outside it.
pub struct ReqTrace {
    parse: u64,
    warm: u64,
    serve: u64,
    format: u64,
    /// `(reads, ns, bytes)` of snapshot reads during `catalog.warm`;
    /// non-zero reads mean the request faulted its document in.
    reads: (u64, u64, u64),
}

impl ReqTrace {
    /// Whether the request faulted its document in.
    pub fn faulted(&self) -> bool {
        self.reads.0 > 0
    }

    /// Records the spans, plus the serve's own expansion/evaluation
    /// split taken from the report.
    pub fn record(&self, served: &Served, sp: &mut Spans) {
        sp.span("query.parse", self.parse);
        sp.span("catalog.warm", self.warm);
        sp.span("catalog.serve", self.serve);
        sp.span("query.format", self.format);
        sp.count("traced", 1.0);
        if self.faulted() {
            sp.span("catalog.fault_in", self.warm);
            sp.span("vfs.read", self.reads.1);
            sp.count("vfs.bytes", self.reads.2 as f64);
        }
        let Ok(rep) = served else {
            return;
        };
        let tel = rep.telemetry;
        sp.span(
            "catalog.serve_self",
            self.serve.saturating_sub(tel.expand_ns + tel.eval_ns),
        );
        sp.count("answers", 1.0);
        if rep.provenance.cached {
            sp.count("cache.hits", 1.0);
        } else {
            sp.span("compiled.expand", tel.expand_ns);
            sp.span("compiled.eval", tel.eval_ns);
            sp.count("uncached", 1.0);
            sp.count(
                "memo.hits",
                f64::from(u8::from(rep.provenance.memo_hit == Some(true))),
            );
            sp.count("embeddings", rep.provenance.embeddings as f64);
            sp.count("buckets", tel.buckets_visited as f64);
        }
    }
}

fn ns(from: Instant, to: Instant) -> u64 {
    to.duration_since(from).as_nanos() as u64
}

/// [`request`] split at each layer call: `query.parse`,
/// `catalog.warm` (a fault-in when it read the snapshot),
/// `catalog.serve` and `query.format`.
pub fn request_traced(
    catalog: &SnapshotCatalog,
    line: &str,
    opts: &EstimateOptions,
    out: &mut String,
) -> (Served, ReqTrace) {
    let mut tr = ReqTrace {
        parse: 0,
        warm: 0,
        serve: 0,
        format: 0,
        reads: (0, 0, 0),
    };
    let t0 = Instant::now();
    let parsed = split_line(line).and_then(|(tenant, document, text)| {
        parse_twig(text)
            .map(|q| (tenant, document, q))
            .map_err(|e| e.to_string())
    });
    let t1 = Instant::now();
    tr.parse = ns(t0, t1);
    let (tenant, document, q) = match parsed {
        Ok(p) => p,
        Err(e) => return (Err(e), tr),
    };

    take_reads();
    let warmed = catalog.warm(tenant, document);
    tr.reads = take_reads();
    let t2 = Instant::now();
    tr.warm = ns(t1, t2);
    if let Err(e) = warmed {
        return (Err(e.to_string()), tr);
    }

    let served = serve_one(catalog, tenant, document, &q, opts);
    let t3 = Instant::now();
    tr.serve = ns(t2, t3);
    let rep = match served {
        Ok(rep) => rep,
        Err(e) => return (Err(e), tr),
    };

    answer_line(out, &rep, tenant, document, &q);
    tr.format = ns(t3, Instant::now());
    (Ok(rep), tr)
}

/// Rejects an answer the benchmark sets no reason for: degraded
/// (meter exhaustion or clamping) or shed.
fn check_quality(rep: &EstimateReport) -> Result<(), String> {
    if rep.provenance.shed {
        return Err("shed".into());
    }
    if rep.provenance.degraded || rep.provenance.exhaustion.is_some() {
        return Err("degraded answer".into());
    }
    Ok(())
}

/// The correctness gate for one answer against its reference bits;
/// returns the estimate.
pub fn check_report(served: Served, reference_bits: u64) -> Result<f64, String> {
    let rep = served?;
    check_quality(&rep)?;
    if rep.estimate.to_bits() != reference_bits {
        return Err(format!(
            "answer {} differs from reference {}",
            rep.estimate,
            f64::from_bits(reference_bits)
        ));
    }
    Ok(rep.estimate)
}

/// Seeded request stream: a uniform key, a Zipf-popular rank.
struct Stream {
    rng: StdRng,
    zipf: Zipf,
    keys: usize,
}

impl Stream {
    fn new(seed: u64, keys: usize, ranks: usize) -> Stream {
        Stream {
            rng: StdRng::seed_from_u64(seed),
            zipf: Zipf::new(ranks.max(1), ZIPF_THETA),
            keys: keys.max(1),
        }
    }

    fn next(&mut self) -> (usize, usize) {
        let key = self.rng.random_range(0..self.keys);
        let rank = self.zipf.sample(&mut self.rng) - 1;
        (key, rank)
    }
}

/// Shared state between the `ingest_mixed` writer and reader: the
/// per-key publish count and the reference answers of every published
/// generation.
pub struct Live {
    seq: Vec<AtomicU64>,
    refs: Mutex<HashMap<(usize, u64), Vec<u64>>>,
}

impl Live {
    /// Generation 0 is what set-up published.
    pub fn new(setup: &Setup) -> Live {
        let mut refs = HashMap::new();
        for (ki, k) in setup.keys.iter().enumerate() {
            let g = &setup.gens[k.gen];
            let bits = g.ranks[..LIVE_RANKS.min(g.ranks.len())]
                .iter()
                .map(|&i| g.pool[i].bits)
                .collect();
            refs.insert((ki, 0), bits);
        }
        Live {
            seq: setup.keys.iter().map(|_| AtomicU64::new(0)).collect(),
            refs: Mutex::new(refs),
        }
    }
}

/// What one client measured.
pub struct ClientOut {
    /// Request latencies (untraced runs), tagged with their window.
    pub lat: Reservoir,
    /// Requests sent.
    pub attempted: u64,
    /// Requests completed per one-second window of the measured window.
    pub per_window: Vec<u64>,
    /// Requests that failed the correctness gate.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// Traced-run spans.
    pub spans: Spans,
    /// `ingest_mixed` answers awaiting their bitwise check:
    /// `(key, rank, publish count before, after, answer bits)`.
    pub log: HashSet<(usize, usize, u64, u64, u64)>,
}

/// One closed-loop client: sends plan lines, timing each from plan-line
/// text to answer line. In a traced run every other request goes
/// through [`request_traced`]; the rest stay untraced so the run can
/// report tracing overhead.
pub struct Client<'a> {
    setup: &'a Setup,
    live: Option<&'a Live>,
    trace: bool,
    stream: Stream,
    opts: EstimateOptions,
    answer: String,
    trace_next: bool,
    /// Start of the measured window; requests are binned by the whole
    /// seconds since it.
    start: Instant,
    /// What this client measured so far.
    pub out: ClientOut,
}

impl<'a> Client<'a> {
    /// A client with its own seeded request stream, measuring a window
    /// that opens at `start`.
    pub fn new(
        setup: &'a Setup,
        seed: u64,
        trace: bool,
        live: Option<&'a Live>,
        start: Instant,
    ) -> Client<'a> {
        let ranks = match live {
            Some(_) => LIVE_RANKS,
            None => setup.gens.iter().map(|g| g.ranks.len()).min().unwrap_or(1),
        };
        Client {
            setup,
            live,
            trace,
            stream: Stream::new(seed, setup.keys.len(), ranks),
            opts: EstimateOptions::default(),
            answer: String::with_capacity(256),
            trace_next: trace,
            start,
            out: ClientOut {
                lat: Reservoir::new(RESERVOIR, seed ^ 0x1A7),
                attempted: 0,
                per_window: Vec::new(),
                failed: 0,
                errors: Vec::new(),
                spans: Spans::default(),
                log: HashSet::new(),
            },
        }
    }

    /// Sends requests until `end`.
    pub fn run_until(&mut self, end: Instant) {
        let (setup, out) = (self.setup, &mut self.out);
        while Instant::now() < end {
            let (ki, rank) = self.stream.next();
            let key: &Key = &setup.keys[ki];
            let g: &Gen = &setup.gens[key.gen];
            let pi = g.ranks[rank];
            let line = &setup.lines[ki][pi];
            let before = self.live.map_or(0, |l| l.seq[ki].load(Ordering::SeqCst));
            let traced = self.trace_next;
            self.trace_next = self.trace && !traced;
            let t = Instant::now();
            let window = t.saturating_duration_since(self.start).as_secs() as u32;
            let (served, tr) = if traced {
                let (served, tr) =
                    request_traced(&setup.catalog, line, &self.opts, &mut self.answer);
                (served, Some(tr))
            } else {
                (
                    request(&setup.catalog, line, &self.opts, &mut self.answer),
                    None,
                )
            };
            let ns = t.elapsed().as_nanos() as u64;
            std::hint::black_box(&self.answer);
            if let Some(tr) = &tr {
                tr.record(&served, &mut out.spans);
            }
            out.attempted += 1;
            let verdict = match self.live {
                None => check_report(served, g.pool[pi].bits).map(|_| ()),
                Some(l) => served.and_then(|rep| {
                    check_quality(&rep)?;
                    let after = l.seq[ki].load(Ordering::SeqCst);
                    out.log
                        .insert((ki, rank, before, after, rep.estimate.to_bits()));
                    Ok(())
                }),
            };
            if out.per_window.len() <= window as usize {
                out.per_window.resize(window as usize + 1, 0);
            }
            out.per_window[window as usize] += 1;
            match verdict {
                Ok(()) if !self.trace => out.lat.push(window, ns),
                Ok(()) => out.spans.span(
                    if traced {
                        "request"
                    } else {
                        "request.untraced"
                    },
                    ns,
                ),
                Err(e) => {
                    out.failed += 1;
                    if out.errors.len() < MAX_ERRORS {
                        out.errors.push(format!("{line}: {e}"));
                    }
                }
            }
            if tr.as_ref().is_some_and(ReqTrace::faulted) {
                fault_in_steps(&mut out.spans, &setup.catalog.path_for(&key.tenant, g.name));
            }
        }
    }
}

/// Checks every logged `ingest_mixed` answer against the reference of
/// a generation that was live at some point during its request.
/// Returns the mismatches.
pub fn verify_live(live: &Live, log: &HashSet<(usize, usize, u64, u64, u64)>) -> Vec<String> {
    let refs = live
        .refs
        .lock()
        .expect("reference map lock is never poisoned");
    let mut bad = Vec::new();
    for &(ki, rank, before, after, bits) in log {
        let ok = (before..=after + 1).any(|gen| {
            refs.get(&(ki, gen))
                .and_then(|r| r.get(rank))
                .is_some_and(|&b| b == bits)
        });
        if !ok {
            bad.push(format!(
                "key {ki} rank {rank}: answer {} matches no generation in {before}..={}",
                f64::from_bits(bits),
                after + 1
            ));
        }
    }
    bad
}

/// When a writer stops.
pub enum Until {
    /// At a deadline.
    Deadline(Instant),
    /// After this many deltas.
    Count(usize),
}

/// What the writer measured.
pub struct WriterOut {
    /// Per acknowledged delta: `IngestStore::ingest` through
    /// `publish_to_catalog`, in nanoseconds.
    pub ack: Vec<u64>,
    /// Commit / checkpoint / publish spans.
    pub spans: Spans,
    /// Every applied delta, WAL-encoded (for the append replay).
    pub payloads: Vec<Vec<u8>>,
    /// Deltas attempted.
    pub attempted: u64,
    /// Deltas that failed.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// Store counters summed over the stores.
    pub stats: IngestStats,
}

/// The single writer: applies seeded `random_delta`s round-robin over
/// the stores (WAL append with fsync, `delta_xbuild`, periodic
/// checkpoints) and publishes each result into the catalog. With
/// `live`, it then answers the reader's popular ranks on the new
/// generation, outside the timed span, so every reader answer can be
/// checked bitwise.
pub struct Writer<'a> {
    keys: &'a [Key],
    gens: &'a [Gen],
    catalog: &'a SnapshotCatalog,
    live: Option<&'a Live>,
    rng: StdRng,
    live_queries: Vec<Vec<TwigQuery>>,
    n: usize,
    /// What the writer measured so far.
    pub out: WriterOut,
}

impl<'a> Writer<'a> {
    /// A writer over stores parallel to `keys`.
    pub fn new(
        keys: &'a [Key],
        gens: &'a [Gen],
        catalog: &'a SnapshotCatalog,
        seed: u64,
        live: Option<&'a Live>,
    ) -> Writer<'a> {
        let live_queries = gens
            .iter()
            .map(|g| {
                g.ranks[..LIVE_RANKS.min(g.ranks.len())]
                    .iter()
                    .filter_map(|&i| parse_twig(&g.pool[i].text).ok())
                    .collect()
            })
            .collect();
        Writer {
            keys,
            gens,
            catalog,
            live,
            rng: StdRng::seed_from_u64(sub_seed(seed, 0xD17A)),
            live_queries,
            n: 0,
            out: WriterOut {
                ack: Vec::new(),
                spans: Spans::default(),
                payloads: Vec::new(),
                attempted: 0,
                failed: 0,
                errors: Vec::new(),
                stats: IngestStats::default(),
            },
        }
    }

    /// Applies deltas to `stores` until `until`.
    pub fn run(&mut self, stores: &mut [IngestStore], until: Until) {
        let opts = EstimateOptions::default();
        let out = &mut self.out;
        let mut applied_here = 0usize;
        loop {
            match until {
                Until::Deadline(d) if Instant::now() >= d => break,
                Until::Count(c) if applied_here >= c => break,
                _ => {}
            }
            applied_here += 1;
            let ki = self.n % stores.len();
            self.n += 1;
            let store = &mut stores[ki];
            let key = &self.keys[ki];
            let name = self.gens[key.gen].name;
            let delta = random_delta(store.doc(), &mut self.rng);
            out.attempted += 1;
            let t0 = Instant::now();
            let applied = store.ingest(&delta);
            let t1 = Instant::now();
            let result = applied.map_err(|e| e.to_string()).and_then(|report| {
                store
                    .publish_to_catalog(self.catalog, &key.tenant, name)
                    .map_err(|e| e.to_string())
                    .map(|_| report)
            });
            let t2 = Instant::now();
            match result {
                Ok(report) => {
                    let commit = (t1 - t0).as_nanos() as u64;
                    if report.checkpoint.is_some() {
                        out.spans.span("ingest.checkpoint", commit);
                    } else {
                        out.spans.span("ingest.commit", commit);
                    }
                    out.spans
                        .span("catalog.publish", (t2 - t1).as_nanos() as u64);
                    out.ack.push((t2 - t0).as_nanos() as u64);
                    out.payloads.push(encode_delta(&delta));
                }
                Err(e) => {
                    out.failed += 1;
                    if out.errors.len() < MAX_ERRORS {
                        out.errors
                            .push(format!("delta on {}/{name}: {e}", key.tenant));
                    }
                    continue;
                }
            }
            if let Some(l) = self.live {
                let reference = CompiledSynopsis::compile(store.synopsis());
                let bits = self.live_queries[key.gen]
                    .iter()
                    .map(|q| reference.estimate_report(q, &opts).estimate.to_bits())
                    .collect();
                let gen = l.seq[ki].load(Ordering::SeqCst) + 1;
                l.refs
                    .lock()
                    .expect("reference map lock is never poisoned")
                    .insert((ki, gen), bits);
                l.seq[ki].store(gen, Ordering::SeqCst);
            }
        }
    }

    /// The measurements, with the stores' counters summed in.
    pub fn finish(mut self, stores: &[IngestStore]) -> WriterOut {
        for s in stores {
            let st = s.stats();
            self.out.stats.checkpoints += st.checkpoints;
            self.out.stats.refinements += st.refinements;
            self.out.stats.refine_rollbacks += st.refine_rollbacks;
            self.out.stats.full_rebuilds += st.full_rebuilds;
            self.out.stats.deltas_applied += st.deltas_applied;
        }
        self.out
    }
}

/// Replays the run's encoded deltas through a fresh `WalWriter`,
/// timing each `append` (write + fsync). Returns the WAL bytes per
/// delta.
pub fn wal_replay(
    dir: &std::path::Path,
    payloads: &[Vec<u8>],
    sp: &mut Spans,
) -> Result<f64, String> {
    let path = dir.join("replay.wal");
    let mut wal = WalWriter::create(&path).map_err(|e| e.to_string())?;
    let start = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    for p in payloads {
        let t = Instant::now();
        wal.append(p).map_err(|e| e.to_string())?;
        sp.since("wal.append_fsync", t);
    }
    let end = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    Ok((end - start) as f64 / payloads.len().max(1) as f64)
}
