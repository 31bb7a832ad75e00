//! Set-up shared by every workload: documents, synopses, the query
//! pool with exact truths and bitwise references, plan lines, and a
//! published, warmed catalog.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use xtwig_core::construct::BuildOptions;
use xtwig_core::{
    load_compiled_arena, save_synopsis, save_synopsis_v3, verify_snapshot_v3, xbuild,
    CatalogOptions, CompiledSynopsis, EstimateOptions, SnapshotCatalog, StdVfs, Synopsis,
    TruthSource, Vfs,
};
use xtwig_datagen::Dataset;
use xtwig_query::parse_twig;
use xtwig_workload::{
    avg_relative_error, generate_workload, IngestOptions, IngestStore, WorkloadKind, WorkloadSpec,
};

use crate::drive::{check_report, request};
use crate::trace::{take_reads, Spans, TracingVfs};
use crate::Workload;

/// Document scale: the repository's default bench scale (1.0 is the
/// paper's Table 1 size).
pub const SCALE: f64 = 0.25;
/// Queries generated per document (before the embedding cap).
pub const POOL_QUERIES: usize = 320;
/// Queries whose reference answer enumerates more embeddings than this
/// are left out of the pool. On XMark about 2% of generated queries
/// exceed it and take 2–180 ms uncached; their share is thereby fixed
/// at zero for every seed, so tail latency does not hinge on whether a
/// seed happened to draw one of them.
pub const MAX_EMBEDDINGS: usize = 128;
/// Popularity strata: ranks are dealt round-robin from pool slices of
/// increasing reference work, so each seed's popular queries carry the
/// same cost profile.
const STRATA: usize = 16;
/// Seed of the query pool. The pool is part of the fixed database, like
/// the documents; `--seed` draws the traffic over it.
const POOL_SEED: u64 = 0x5E;
/// Per-document estimate-cache partition: smaller than the pool, so a
/// skewed stream both hits and misses.
pub const CACHE_ENTRIES: usize = 128;

/// One generator's document, synopsis and query pool.
pub struct Gen {
    /// Document name used in plan lines (`xmark`, `imdb`, `sprot`).
    pub name: &'static str,
    /// The synopsis every key of this generator publishes.
    pub synopsis: Synopsis,
    /// The pool: plan text, exact truth and reference bits per query.
    pub pool: Vec<PoolQuery>,
    /// Popularity rank -> pool index.
    pub ranks: Vec<usize>,
}

/// One pool query.
pub struct PoolQuery {
    /// Twig text exactly as sent in plan lines.
    pub text: String,
    /// Exact selectivity on the source document.
    pub truth: u64,
    /// `f64::to_bits` of the in-memory compiled reference estimate.
    pub bits: u64,
    /// Reference work units (deterministic cost proxy).
    pub work: u64,
}

/// A `(tenant, document)` key and the generator it serves.
pub struct Key {
    /// Tenant name.
    pub tenant: String,
    /// Index into [`Setup::gens`].
    pub gen: usize,
}

/// Everything a measured window needs.
pub struct Setup {
    /// Per-generator state.
    pub gens: Vec<Gen>,
    /// Catalog keys.
    pub keys: Vec<Key>,
    /// `lines[key][pool index]`: the plan line `tenant/document twig`.
    pub lines: Vec<Vec<String>>,
    /// The front door.
    pub catalog: SnapshotCatalog,
    /// Mean over generators of the paper's average relative error of
    /// the answers served during warm-up.
    pub avg_rel_error: f64,
    /// Requests the warm-up pass sent.
    pub warm_attempted: u64,
    /// Warm-up answers that failed the correctness gate.
    pub warm_failures: Vec<String>,
    /// `save_synopsis` (v2) bytes summed over generators.
    pub v2_bytes: u64,
    /// `save_synopsis_v3` bytes summed over generators.
    pub v3_bytes: u64,
    /// Work directory of this set-up.
    pub dir: PathBuf,
}

/// Options XBUILD runs with (the repository's serving-bench settings).
pub fn build_options() -> BuildOptions {
    BuildOptions {
        budget_bytes: 24 * 1024,
        refinements_per_round: 4,
        candidates_per_round: 8,
        sample_queries: 12,
        max_rounds: 40,
        ..Default::default()
    }
}

/// Plan-line document name of a generator.
pub fn doc_name(ds: Dataset) -> &'static str {
    match ds {
        Dataset::XMark => "xmark",
        Dataset::Imdb => "imdb",
        Dataset::SProt => "sprot",
    }
}

/// Runs XBUILD on `doc`, recording `xbuild.<name>` and the round count
/// when tracing.
pub fn run_xbuild(
    doc: &xtwig_xml::Document,
    name: &'static str,
    spans: Option<&mut Spans>,
) -> Synopsis {
    let t = Instant::now();
    let (s, trace) = xbuild(doc, TruthSource::Exact, &build_options());
    if let Some(sp) = spans {
        sp.since(xbuild_span(name), t);
        sp.count("xbuild.rounds", trace.rounds.len() as f64);
    }
    s
}

/// Span name of one generator's XBUILD.
pub fn xbuild_span(name: &str) -> &'static str {
    match name {
        "xmark" => "xbuild.xmark",
        "imdb" => "xbuild.imdb",
        _ => "xbuild.sprot",
    }
}

/// Re-reads the snapshot at `path` and times the fault-in steps the
/// catalog just ran on it — CRC sweep (`verify_snapshot_v3`), carve
/// (`load_compiled_arena`) — plus the first lazy `source()` decode on
/// the carved synopsis. Runs outside any request span.
pub fn fault_in_steps(spans: &mut Spans, path: &Path) {
    let Ok(arena) = StdVfs.read_aligned(path) else {
        return;
    };
    let t = Instant::now();
    let verified = verify_snapshot_v3(arena.bytes()).is_ok();
    spans.since("v3.crc_sweep", t);
    if !verified {
        return;
    }
    let t = Instant::now();
    let Ok(compiled) = load_compiled_arena(Arc::new(arena)) else {
        return;
    };
    spans.since("v3.carve", t);
    let t = Instant::now();
    std::hint::black_box(compiled.source().node_count());
    spans.since("compiled.source_decode", t);
}

/// Derives an independent sub-seed from the workload seed (SplitMix64
/// finalizer over `seed ^ salt·φ`).
pub fn sub_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Builds the pool for one generator: generated queries with exact
/// truths, round-tripped through their plan text, answered by an
/// in-memory compiled reference, capped at [`MAX_EMBEDDINGS`], ranked
/// by a seeded stratified popularity order.
fn build_pool(
    doc: &xtwig_xml::Document,
    synopsis: &Synopsis,
    gen: u64,
    seed: u64,
) -> Result<(Vec<PoolQuery>, Vec<usize>), String> {
    let spec = WorkloadSpec {
        queries: POOL_QUERIES,
        kind: WorkloadKind::Branching,
        seed: POOL_SEED + gen,
        ..Default::default()
    };
    let w = generate_workload(doc, &spec);
    let reference = CompiledSynopsis::compile(synopsis);
    let opts = EstimateOptions::default();
    let mut pool = Vec::with_capacity(w.queries.len());
    for (q, &truth) in w.queries.iter().zip(&w.truths) {
        let text = q.to_string();
        let parsed = parse_twig(&text).map_err(|e| format!("pool query `{text}`: {e}"))?;
        let rep = reference.estimate_report(&parsed, &opts);
        if rep.provenance.embeddings > MAX_EMBEDDINGS {
            continue;
        }
        pool.push(PoolQuery {
            text,
            truth,
            bits: rep.estimate.to_bits(),
            work: rep.provenance.work,
        });
    }
    if pool.len() < 64 {
        return Err(format!("pool too small ({} queries)", pool.len()));
    }
    // Stratified popularity: sort by work, shuffle within each stratum,
    // then deal ranks round-robin across strata.
    let mut by_work: Vec<usize> = (0..pool.len()).collect();
    by_work.sort_by_key(|&i| (pool[i].work, i));
    let per = by_work.len().div_ceil(STRATA);
    let mut strata: Vec<Vec<usize>> = by_work.chunks(per).map(<[usize]>::to_vec).collect();
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
    for s in &mut strata {
        for i in (1..s.len()).rev() {
            let j = rand::RngExt::random_range(&mut rng, 0..=i);
            s.swap(i, j);
        }
    }
    let mut ranks = Vec::with_capacity(pool.len());
    let mut cursor = 0usize;
    while ranks.len() < pool.len() {
        for s in &strata {
            if let Some(&i) = s.get(cursor) {
                ranks.push(i);
            }
        }
        cursor += 1;
    }
    Ok((pool, ranks))
}

impl Setup {
    /// Builds a fresh set-up in `dir` (created; must not exist), with
    /// the live ingest stores parallel to `keys` on `ingest_mixed`.
    /// With `spans`, records the publish, fault-in and XBUILD layers.
    pub fn build(
        workload: Workload,
        seed: u64,
        dir: &Path,
        mut spans: Option<&mut Spans>,
    ) -> Result<(Setup, Vec<IngestStore>), String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let params = workload.params();
        let catalog_dir = dir.join("catalog");
        let options = CatalogOptions::builder()
            .max_resident(params.max_resident)
            .cache_entries(CACHE_ENTRIES)
            .build();
        let catalog = if spans.is_some() {
            SnapshotCatalog::open_in(&catalog_dir, options, Arc::new(TracingVfs))
        } else {
            SnapshotCatalog::open(&catalog_dir, options)
        };

        let mut gens = Vec::new();
        let mut stores = Vec::new();
        let (mut v2_bytes, mut v3_bytes) = (0u64, 0u64);
        for (gi, ds) in Dataset::ALL.into_iter().enumerate() {
            let name = doc_name(ds);
            let doc = ds.generate(SCALE);
            let synopsis = if params.ingest {
                let store = IngestStore::create(
                    &dir.join(format!("store-{name}")),
                    doc.clone(),
                    IngestOptions::default(),
                )
                .map_err(|e| format!("ingest store {name}: {e}"))?;
                let s = store.synopsis().clone();
                stores.push(store);
                s
            } else {
                run_xbuild(&doc, name, spans.as_deref_mut())
            };
            let (pool, ranks) =
                build_pool(&doc, &synopsis, gi as u64, sub_seed(seed, gi as u64 + 1))?;
            v2_bytes += save_synopsis(&synopsis).len() as u64;
            v3_bytes += save_synopsis_v3(&synopsis).len() as u64;
            gens.push(Gen {
                name,
                synopsis,
                pool,
                ranks,
            });
        }

        let mut keys = Vec::new();
        for t in 0..params.tenants {
            for gen in 0..gens.len() {
                let tenant = if params.ingest {
                    "live".to_string()
                } else {
                    format!("t{t:02}")
                };
                keys.push(Key { tenant, gen });
            }
        }
        let lines: Vec<Vec<String>> = keys
            .iter()
            .map(|k| {
                let g = &gens[k.gen];
                g.pool
                    .iter()
                    .map(|p| format!("{}/{} {}", k.tenant, g.name, p.text))
                    .collect()
            })
            .collect();

        // Publish and warm every key.
        for (ki, k) in keys.iter().enumerate() {
            let g = &gens[k.gen];
            let t = Instant::now();
            let published = match stores.get(ki) {
                Some(store) => store.publish_to_catalog(&catalog, &k.tenant, g.name),
                None => catalog.publish(&k.tenant, g.name, &g.synopsis),
            };
            published.map_err(|e| format!("publish {}/{}: {e}", k.tenant, g.name))?;
            if let Some(sp) = spans.as_deref_mut() {
                sp.since("catalog.publish", t);
                take_reads();
            }
            let t = Instant::now();
            catalog
                .warm(&k.tenant, g.name)
                .map_err(|e| format!("warm {}/{}: {e}", k.tenant, g.name))?;
            if let Some(sp) = spans.as_deref_mut() {
                sp.since("catalog.fault_in", t);
                let (_, read_ns, bytes) = take_reads();
                sp.span("vfs.read", read_ns);
                sp.count("vfs.bytes", bytes as f64);
                fault_in_steps(sp, &catalog.path_for(&k.tenant, g.name));
            }
        }

        // Warm-up pass through the front door: fills memos and caches
        // (every key on `warm_serve`, the first key per generator
        // otherwise), gates every answer bitwise, and scores accuracy
        // against the exact truths.
        let opts = EstimateOptions::default();
        let mut out = String::new();
        let mut errs_per_gen = Vec::new();
        let mut warm_attempted = 0u64;
        let mut errors = Vec::new();
        for (gi, g) in gens.iter().enumerate() {
            let mut estimates = Vec::with_capacity(g.pool.len());
            for (ki, k) in keys.iter().enumerate() {
                if k.gen != gi || (ki >= gens.len() && !params.warm_all) {
                    continue;
                }
                for (pi, p) in g.pool.iter().enumerate() {
                    warm_attempted += 1;
                    let rep = request(&catalog, &lines[ki][pi], &opts, &mut out);
                    match check_report(rep, p.bits) {
                        Ok(est) => {
                            if ki < gens.len() {
                                estimates.push(est);
                            }
                        }
                        Err(e) => errors.push(format!("warm-up {}: {e}", lines[ki][pi])),
                    }
                }
            }
            let truths: Vec<f64> = g.pool.iter().map(|p| p.truth as f64).collect();
            if estimates.len() == truths.len() {
                errs_per_gen.push(avg_relative_error(&estimates, &truths).avg_rel_error);
            }
        }
        let avg_rel_error = if errs_per_gen.len() == gens.len() {
            errs_per_gen.iter().sum::<f64>() / errs_per_gen.len() as f64
        } else {
            0.0
        };

        let setup = Setup {
            gens,
            keys,
            lines,
            catalog,
            avg_rel_error,
            warm_attempted,
            warm_failures: errors,
            v2_bytes,
            v3_bytes,
            dir: dir.to_path_buf(),
        };
        Ok((setup, stores))
    }

    /// v3 bytes on disk summed over this set-up's keys (as published by
    /// set-up when called before the window).
    pub fn catalog_bytes(&self) -> u64 {
        self.keys
            .iter()
            .map(|k| {
                std::fs::metadata(self.catalog.path_for(&k.tenant, self.gens[k.gen].name))
                    .map_or(0, |m| m.len())
            })
            .sum()
    }
}
