//! The serving tier: batched estimation over a compiled synopsis, the
//! sharded epoch-invalidated [`EstimateCache`], and the
//! [`SnapshotCatalog`] — the one front door every served estimate
//! passes through.
//!
//! The batch API is handle-based: construct a [`BatchServer`] over a
//! [`CompiledSynopsis`] (optionally wiring in a cache, options, and a
//! worker count), then call [`BatchServer::serve`] per batch.
//!
//! Layering, bottom-up:
//!
//! * [`cache`] — the fingerprint-keyed, epoch-stamped estimate cache.
//! * [`BatchServer`] (this module) — fans a batch of queries out over
//!   scoped worker threads with every member still running under its
//!   own [`Meter`](crate::estimate::Meter) deadline/work-budget guard,
//!   with per-fingerprint plan reuse and heavy-plan work splitting.
//! * [`breaker`] — the circuit breaker and the jittered backoff the
//!   catalog and the guarded fallback chain share.
//! * [`catalog`] — `(tenant, document)`-keyed verified fault-in, per-tenant quotas and breakers, cold-key eviction,
//!   quarantine, and publish/invalidate. What a resident key serves
//!   through is a [`ServeTier`]: the default [`Resident`] tier is the
//!   compiled synopsis, its cache partition and a `BatchServer`;
//!   `xtwig-workload` adds the guarded XSKETCH → Markov → label-count
//!   chain as a second tier. Single-document serving is the one-key
//!   catalog.

pub mod breaker;
pub mod cache;
pub mod catalog;

pub use cache::{CacheStats, EstimateCache};
pub use catalog::{
    CatalogError, CatalogOptions, CatalogOptionsBuilder, CatalogStats, FaultHook, RebuildHook,
    Resident, ServeTier, SnapshotCatalog,
};

use std::collections::HashMap;
// The plan handles below are the `Arc<ExpandedQuery>`s minted by the
// expansion memo in `compiled.rs`, which lives outside the loom-modeled
// façade scope — the type must match, so this one import bypasses
// `crate::sync` (where `Arc` would be loom's under `--cfg loom`).
// lint:allow(sync-direct)
use std::sync::Arc;
use std::time::Instant;

use crate::sync::atomic::{AtomicUsize, Ordering};
use crate::sync::{Mutex, PoisonError};

use crate::compiled::CompiledSynopsis;
use crate::estimate::api::elapsed_ns;
use crate::estimate::{
    EstimateOptions, EstimateReport, EvalStats, ExpandedQuery, Meter, Provenance, QueryTelemetry,
};
use crate::telemetry;
use cache::cached_report;
use xtwig_query::TwigQuery;

/// Minimum number of embeddings before an unguarded (no deadline, no
/// work limit) query is *split*: its embeddings fanned out across the
/// batch's workers instead of evaluated by one thread. Override with
/// the `XTWIG_SPLIT_THRESHOLD` environment variable (read per batch;
/// zero or unparsable falls back to the default).
///
/// The default is deliberately high: a split pays one thread scope plus
/// a stats merge per query, which only amortizes when a single heavy
/// query would otherwise serialize its batch — the XMark cold-batch
/// anomaly (DESIGN.md §8), where one ~25 ms descendant-chain query
/// (`//parlist/listitem/parlist/listitem/text`, hundreds of
/// embeddings) pinned `batch_cold_qps` an order of magnitude below the
/// other datasets while its batchmates' workers sat idle.
const SPLIT_THRESHOLD_DEFAULT: usize = 64;

/// The effective split threshold for this batch.
fn split_threshold() -> usize {
    std::env::var("XTWIG_SPLIT_THRESHOLD")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(SPLIT_THRESHOLD_DEFAULT)
}

/// One fingerprint group deferred by the batch pass for
/// embedding-level work splitting (tentpole fix for the cold-batch
/// anomaly): the plan is already expanded; evaluation happens across
/// all workers after the light groups drain.
struct HeavyGroup {
    /// Index into the batch's group list.
    group: usize,
    /// The expanded plan (shared with the memo).
    plan: Arc<ExpandedQuery>,
    /// Whether the expansion memo answered.
    memo_hit: bool,
    /// Wall-clock of the expansion stage, ns.
    expand_ns: u64,
    /// Meter work charged by the expansion stage.
    expand_work: u64,
    /// When this group's service started (for total_ns).
    started: Instant,
}

/// A configured batch-serving handle over one compiled synopsis.
///
/// This is the primary serving surface: build one per (synopsis,
/// cache, options, parallelism) configuration and call
/// [`serve`](BatchServer::serve) per batch. The handle borrows its
/// synopsis and cache and copies its options, so it is `Copy` — cheap
/// to hand to scoped worker threads or reconfigure per request.
///
/// ```
/// use xtwig_core::{coarse_synopsis, BatchServer, CompiledSynopsis, EstimateCache};
/// use xtwig_query::parse_twig;
///
/// let doc = xtwig_xml::parse("<a><b/><b/></a>").unwrap();
/// let s = coarse_synopsis(&doc);
/// let cs = CompiledSynopsis::compile(&s);
/// let cache = EstimateCache::new(1024);
/// let server = BatchServer::new(&cs).with_cache(&cache).with_threads(4);
/// let queries = vec![parse_twig("for $t0 in //b").unwrap()];
/// let reports = server.serve(&queries);
/// assert_eq!(reports.len(), 1);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct BatchServer<'a, 'syn> {
    cs: &'a CompiledSynopsis<'syn>,
    cache: Option<&'a EstimateCache>,
    options: EstimateOptions,
    threads: usize,
}

impl<'a, 'syn> BatchServer<'a, 'syn> {
    /// A handle over `cs` with no cache, default [`EstimateOptions`],
    /// and inline (single-threaded) execution.
    pub fn new(cs: &'a CompiledSynopsis<'syn>) -> BatchServer<'a, 'syn> {
        BatchServer {
            cs,
            cache: None,
            options: EstimateOptions::default(),
            threads: 1,
        }
    }

    /// Serves through `cache` (epoch-checked; degraded results are
    /// never inserted, and work-limited requests never read it).
    pub fn with_cache(self, cache: &'a EstimateCache) -> BatchServer<'a, 'syn> {
        BatchServer {
            cache: Some(cache),
            ..self
        }
    }

    /// Serves under `options` — each batch member gets its own
    /// [`Meter`](crate::estimate::Meter) built from them.
    pub fn with_options(self, options: EstimateOptions) -> BatchServer<'a, 'syn> {
        BatchServer { options, ..self }
    }

    /// Fans batches out over up to `threads` scoped worker threads
    /// (`0` or `1` = inline on the caller).
    pub fn with_threads(self, threads: usize) -> BatchServer<'a, 'syn> {
        BatchServer { threads, ..self }
    }

    /// The compiled synopsis this handle serves from.
    pub fn synopsis(&self) -> &'a CompiledSynopsis<'syn> {
        self.cs
    }

    /// Estimates a batch of queries, returning full-fidelity
    /// [`EstimateReport`]s in input order.
    ///
    /// Each member runs under its own meter built from the handle's
    /// options, so a deadline or work limit bounds every query
    /// individually — one pathological twig cannot starve its batch.
    /// Degraded results (tripped meter) are returned but never cached.
    ///
    /// ## Plan reuse
    ///
    /// Members are grouped by query fingerprint before scheduling: each
    /// distinct twig signature is expanded and evaluated **once** per
    /// batch, and its groupmates are served either an honest cache hit
    /// (the representative's insert warms the cache) or the
    /// representative's report verbatim — TREEPARSE is deterministic
    /// given the plan and options, so recomputing the same fingerprint
    /// could only reproduce the same bits.
    ///
    /// ## Work splitting
    ///
    /// With multiple workers and *unguarded* options (no deadline, no
    /// work limit — the meter provably never trips, so per-embedding
    /// evaluations are independent), a group whose plan has at least
    /// [`SPLIT_THRESHOLD_DEFAULT`] embeddings is deferred: its
    /// embeddings are ticket-drawn across every worker, then folded
    /// through the same sequential clamping loop in embedding order,
    /// which keeps the total bit-identical to the single-threaded
    /// evaluation. Guarded queries never split — a meter's early-exit
    /// point depends on evaluation order, which splitting would change.
    ///
    /// When the options request an explain, cache *reads* are bypassed
    /// (a hit has no embeddings to explain) but full-fidelity results
    /// are still inserted, so an explain pass warms the cache for later
    /// plain requests.
    ///
    /// ## Budgets and the cache
    ///
    /// A request with a work limit also bypasses cache reads: a hit
    /// charges no work, so reading the cache would let an earlier
    /// request's warm-up decide whether this one is answered at full
    /// fidelity or exhausts its budget. Under a work limit the meter
    /// alone decides, exactly as on a cold synopsis (the expansion memo
    /// charges the work it skips for the same reason). A deadline does
    /// not bypass the cache: wall-clock budgets already depend on
    /// timing, and a hit counts as within any deadline.
    pub fn serve(&self, queries: &[TwigQuery]) -> Vec<EstimateReport> {
        serve_batch(self.cs, queries, &self.options, self.cache, self.threads)
    }
}

/// The batch engine behind [`BatchServer::serve`].
fn serve_batch(
    cs: &CompiledSynopsis<'_>,
    queries: &[TwigQuery],
    opts: &EstimateOptions,
    cache: Option<&EstimateCache>,
    threads: usize,
) -> Vec<EstimateReport> {
    if queries.is_empty() {
        return Vec::new();
    }
    let tg = telemetry::global();
    let epoch = cs.epoch();

    // --- Group members by fingerprint --------------------------------
    let fingerprints: Vec<String> = queries.iter().map(ToString::to_string).collect();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    {
        let mut group_of: HashMap<&str, usize> = HashMap::new();
        for (i, fp) in fingerprints.iter().enumerate() {
            match group_of.get(fp.as_str()) {
                Some(&g) => {
                    if let Some(members) = groups.get_mut(g) {
                        members.push(i);
                    }
                }
                None => {
                    group_of.insert(fp, groups.len());
                    groups.push(vec![i]);
                }
            }
        }
    }

    let try_cache = |fp: &str| -> Option<EstimateReport> {
        let c = cache?;
        if opts.explain || opts.work_limit > 0 {
            return None;
        }
        c.get(fp, epoch).map(|(hit, prov)| cached_report(hit, prov))
    };
    let cache_insert = |fp: &str, rep: &EstimateReport| {
        if let Some(c) = cache {
            if rep.provenance.exhaustion.is_none() {
                c.insert(fp, epoch, rep.estimate, rep.provenance);
            }
        }
    };
    // Serves one group's representative without splitting.
    let run_rep = |q: &TwigQuery, fp: &str| -> EstimateReport {
        if let Some(hit) = try_cache(fp) {
            return hit;
        }
        let rep = cs.estimate_report(q, opts);
        cache_insert(fp, &rep);
        rep
    };
    // Serves a non-representative member: an honest cache hit when
    // possible (the representative's insert warmed the cache),
    // otherwise the groupmate's report verbatim.
    let fill_member = |rep: &EstimateReport, fp: &str| -> EstimateReport {
        if let Some(hit) = try_cache(fp) {
            return hit;
        }
        tg.batch_plan_reuses.incr();
        rep.clone()
    };

    // --- Inline path ---------------------------------------------------
    let mut slots: Vec<Option<EstimateReport>> = queries.iter().map(|_| None).collect();
    if threads <= 1 || queries.len() <= 1 {
        for members in &groups {
            let Some(&rep_idx) = members.first() else {
                continue;
            };
            let (Some(q), Some(fp)) = (queries.get(rep_idx), fingerprints.get(rep_idx)) else {
                continue;
            };
            let rep = run_rep(q, fp);
            for &m in members.iter().skip(1) {
                let filled = fingerprints.get(m).map(|mfp| fill_member(&rep, mfp));
                if let Some(slot) = slots.get_mut(m) {
                    *slot = filled;
                }
            }
            if let Some(slot) = slots.get_mut(rep_idx) {
                *slot = Some(rep);
            }
        }
        return finish(slots);
    }

    // --- Parallel path: light groups, heavy groups deferred ------------
    let splittable = opts.deadline.is_none() && opts.work_limit == 0;
    let threshold = split_threshold();
    let workers = threads.min(groups.len());
    let shared: Vec<Mutex<Option<EstimateReport>>> = slots.drain(..).map(Mutex::new).collect();
    let heavy: Mutex<Vec<HeavyGroup>> = Mutex::new(Vec::new());
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| 'groups: loop {
                // lint:allow(atomic-ordering): ticket draw — uniqueness comes from the RMW itself; result slots are guarded by their own Mutex
                let g = next.fetch_add(1, Ordering::Relaxed);
                let Some(members) = groups.get(g) else {
                    break;
                };
                let Some(&rep_idx) = members.first() else {
                    continue;
                };
                let (Some(q), Some(fp)) = (queries.get(rep_idx), fingerprints.get(rep_idx)) else {
                    continue;
                };
                let rep = 'rep: {
                    if let Some(hit) = try_cache(fp) {
                        break 'rep hit;
                    }
                    if splittable {
                        // Expand first (memoized) to see the plan size;
                        // heavy plans are deferred for splitting.
                        let started = Instant::now();
                        let mut meter = Meter::from_options(opts);
                        let (plan, memo_hit) = cs.expand_tracked(q, opts, &mut meter);
                        let expand_ns = elapsed_ns(started);
                        if plan.len() >= threshold {
                            heavy
                                .lock()
                                .unwrap_or_else(PoisonError::into_inner)
                                .push(HeavyGroup {
                                    group: g,
                                    plan,
                                    memo_hit,
                                    expand_ns,
                                    expand_work: meter.work_done(),
                                    started,
                                });
                            continue 'groups; // members filled after the scope
                        }
                        let rep = cs.estimate_report_with_plan(q, opts, &plan, memo_hit);
                        cache_insert(fp, &rep);
                        break 'rep rep;
                    }
                    // Guarded queries take the historical single-query
                    // path: one meter across expansion + evaluation.
                    let rep = cs.estimate_report(q, opts);
                    cache_insert(fp, &rep);
                    rep
                };
                for &m in members.iter().skip(1) {
                    if let (Some(slot), Some(mfp)) = (shared.get(m), fingerprints.get(m)) {
                        *slot.lock().unwrap_or_else(PoisonError::into_inner) =
                            Some(fill_member(&rep, mfp));
                    }
                }
                if let Some(slot) = shared.get(rep_idx) {
                    *slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(rep);
                }
            });
        }
    });

    // --- Heavy groups: split each plan's embeddings across workers -----
    for h in heavy.into_inner().unwrap_or_else(PoisonError::into_inner) {
        let Some(members) = groups.get(h.group) else {
            continue;
        };
        let Some(&rep_idx) = members.first() else {
            continue;
        };
        let (Some(q), Some(fp)) = (queries.get(rep_idx), fingerprints.get(rep_idx)) else {
            continue;
        };
        tg.batch_splits.incr();
        let n = h.plan.len();
        let contribs: Vec<Mutex<f64>> = (0..n).map(|_| Mutex::new(0.0)).collect();
        let totals: Mutex<(EvalStats, u64)> = Mutex::new((EvalStats::default(), 0));
        let draw = AtomicUsize::new(0);
        let eval_started = Instant::now();
        let eval_workers = threads.min(n).max(1);
        std::thread::scope(|scope| {
            for _ in 0..eval_workers {
                scope.spawn(|| {
                    // Unlimited by construction: only unguarded groups
                    // split, so no meter can trip mid-embedding and the
                    // per-embedding results are order-independent.
                    let mut meter = Meter::unlimited();
                    loop {
                        // lint:allow(atomic-ordering): ticket draw — uniqueness comes from the RMW itself; result slots are guarded by their own Mutex
                        let i = draw.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let v = cs.eval_one_embedding(&h.plan, i, &mut meter);
                        if let Some(slot) = contribs.get(i) {
                            *slot.lock().unwrap_or_else(PoisonError::into_inner) = v;
                        }
                    }
                    let mut t = totals.lock().unwrap_or_else(PoisonError::into_inner);
                    t.0 = t.0.merged(&meter.stats());
                    t.1 = t.1.saturating_add(meter.work_done());
                });
            }
        });
        let eval_ns = elapsed_ns(eval_started);
        let contribs: Vec<f64> = contribs
            .into_iter()
            .map(|m| m.into_inner().unwrap_or_else(PoisonError::into_inner))
            .collect();
        let (stats, eval_work) = totals.into_inner().unwrap_or_else(PoisonError::into_inner);
        let timings = QueryTelemetry {
            expand_ns: h.expand_ns,
            eval_ns,
            total_ns: elapsed_ns(h.started),
            expand_work: h.expand_work,
            eval_work,
            buckets_visited: stats.buckets_visited,
        };
        let rep = cs.report_from_split(
            q,
            opts,
            &h.plan,
            h.memo_hit,
            &contribs,
            stats,
            h.expand_work.saturating_add(eval_work),
            timings,
        );
        cache_insert(fp, &rep);
        for &m in members.iter().skip(1) {
            if let (Some(slot), Some(mfp)) = (shared.get(m), fingerprints.get(m)) {
                *slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(fill_member(&rep, mfp));
            }
        }
        if let Some(slot) = shared.get(rep_idx) {
            *slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(rep);
        }
    }

    finish(
        shared
            .into_iter()
            .map(|slot| slot.into_inner().unwrap_or_else(PoisonError::into_inner))
            .collect(),
    )
}

/// Unwraps the batch's result slots, substituting a clamped zero report
/// for any member a worker failed to fill (unreachable in practice —
/// every group either completes or defers and completes).
fn finish(slots: Vec<Option<EstimateReport>>) -> Vec<EstimateReport> {
    slots
        .into_iter()
        .map(|slot| {
            slot.unwrap_or_else(|| EstimateReport {
                estimate: 0.0,
                provenance: Provenance {
                    clamped: 1,
                    ..Provenance::new("xsketch-compiled")
                },
                telemetry: QueryTelemetry::default(),
                explain: None,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coarse::coarse_synopsis;
    use xtwig_query::parse_twig;
    use xtwig_xml::parse;

    fn setup() -> (xtwig_xml::Document, Vec<TwigQuery>) {
        let doc = parse(
            "<bib><conf><paper><kw/></paper><paper><kw/><kw/></paper></conf>\
             <journal><paper><kw/></paper></journal></bib>",
        )
        .unwrap();
        let queries = [
            "for $t0 in //paper, $t1 in $t0/kw",
            "for $t0 in //conf, $t1 in $t0/paper",
            "for $t0 in //journal//kw",
            "for $t0 in //paper, $t1 in $t0/kw", // repeat: cache hit
        ]
        .iter()
        .map(|t| parse_twig(t).unwrap())
        .collect();
        (doc, queries)
    }

    #[test]
    fn batch_matches_single_threaded_and_caches() {
        let (doc, queries) = setup();
        let s = coarse_synopsis(&doc);
        let cs = CompiledSynopsis::compile(&s);
        let cache = EstimateCache::new(64);
        let serial = BatchServer::new(&cs).serve(&queries);
        let parallel = BatchServer::new(&cs).with_cache(&cache).with_threads(4);
        let batched = parallel.serve(&queries);
        for (a, b) in serial.iter().zip(&batched) {
            assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
        }
        // Second pass: everything answered from cache.
        let again = parallel.serve(&queries);
        for (a, b) in batched.iter().zip(&again) {
            assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
        }
        let stats = cache.stats();
        assert!(stats.hits >= queries.len() as u64, "{stats:?}");
        assert!(stats.hit_rate() > 0.0);
    }

    #[test]
    fn batch_matches_single_query_reports_bit_for_bit() {
        let (doc, queries) = setup();
        let s = coarse_synopsis(&doc);
        let cs = CompiledSynopsis::compile(&s);
        let opts = EstimateOptions::default();
        let via_handle = BatchServer::new(&cs).with_threads(4).serve(&queries);
        for (q, a) in queries.iter().zip(&via_handle) {
            let single = cs.estimate_report(q, &opts);
            assert_eq!(a.estimate.to_bits(), single.estimate.to_bits());
            assert_eq!(a.provenance.embeddings, single.provenance.embeddings);
        }
    }

    #[test]
    fn cache_hits_carry_original_provenance() {
        let (doc, queries) = setup();
        let s = coarse_synopsis(&doc);
        let cs = CompiledSynopsis::compile(&s);
        let cache = EstimateCache::new(64);
        let server = BatchServer::new(&cs).with_cache(&cache);
        let cold = server.serve(&queries[..1]);
        let warm = server.serve(&queries[..1]);
        assert!(!cold[0].provenance.cached);
        assert!(warm[0].provenance.cached, "second pass must be a hit");
        // The hit keeps the original computation's outcome fields, so a
        // served result stays distinguishable from a fresh one without
        // losing how it was first produced.
        assert_eq!(warm[0].estimate.to_bits(), cold[0].estimate.to_bits());
        assert_eq!(warm[0].provenance.embeddings, cold[0].provenance.embeddings);
        assert_eq!(warm[0].provenance.work, cold[0].provenance.work);
        assert_eq!(warm[0].provenance.clamped, cold[0].provenance.clamped);
        assert_eq!(warm[0].provenance.source, cold[0].provenance.source);
        assert!(warm[0].explain.is_none(), "hits have nothing to re-explain");
    }

    #[test]
    fn explain_requests_bypass_cache_reads_but_still_warm() {
        let (doc, queries) = setup();
        let s = coarse_synopsis(&doc);
        let cs = CompiledSynopsis::compile(&s);
        let cache = EstimateCache::new(64);
        let explain_opts = EstimateOptions::builder().explain(true).build();
        let explain_server = BatchServer::new(&cs)
            .with_options(explain_opts)
            .with_cache(&cache);
        let a = explain_server.serve(&queries[..1]);
        let b = explain_server.serve(&queries[..1]);
        assert!(a[0].explain.is_some() && b[0].explain.is_some());
        assert!(!b[0].provenance.cached, "explain always recomputes");
        // ... but the explain pass still inserted, so a plain request hits.
        let plain = BatchServer::new(&cs)
            .with_cache(&cache)
            .serve(&queries[..1]);
        assert!(plain[0].provenance.cached);
    }

    #[test]
    fn degraded_results_are_not_cached() {
        let (doc, queries) = setup();
        let s = coarse_synopsis(&doc);
        let cs = CompiledSynopsis::compile(&s);
        let cache = EstimateCache::new(64);
        let tight = EstimateOptions {
            work_limit: 1,
            ..Default::default()
        };
        let out = BatchServer::new(&cs)
            .with_options(tight)
            .with_cache(&cache)
            .serve(&queries[..1]);
        assert!(out[0].provenance.exhaustion.is_some());
        assert_eq!(cache.stats().entries, 0, "degraded result must not stick");
    }

    #[test]
    fn work_limited_requests_bypass_a_warm_cache() {
        let (doc, queries) = setup();
        let s = coarse_synopsis(&doc);
        let cs = CompiledSynopsis::compile(&s);
        let cache = EstimateCache::new(64);
        BatchServer::new(&cs).with_cache(&cache).serve(&queries);
        for limit in [1, 1_000_000] {
            let limited = EstimateOptions::builder().work_limit(limit).build();
            let warm = BatchServer::new(&cs)
                .with_options(limited)
                .with_cache(&cache)
                .serve(&queries);
            let fresh = CompiledSynopsis::compile(&s);
            let cold = BatchServer::new(&fresh)
                .with_options(limited)
                .serve(&queries);
            for (w, c) in warm.iter().zip(&cold) {
                assert!(!w.provenance.cached, "limit {limit}: served from cache");
                assert_eq!(w.estimate.to_bits(), c.estimate.to_bits(), "limit {limit}");
                assert_eq!(w.provenance.exhaustion, c.provenance.exhaustion);
            }
        }
        // A deadline does not bypass the cache.
        let deadline = EstimateOptions::builder()
            .deadline(Instant::now() + std::time::Duration::from_secs(60))
            .build();
        let hit = BatchServer::new(&cs)
            .with_options(deadline)
            .with_cache(&cache)
            .serve(&queries[..1]);
        assert!(hit[0].provenance.cached);
    }
}
