//! # xtwig — Selectivity Estimation for XML Twigs
//!
//! A from-scratch Rust implementation of the **Twig XSKETCH** system from
//! *Selectivity Estimation for XML Twigs* (Polyzotis, Garofalakis,
//! Ioannidis — ICDE 2004): concise graph synopses of XML documents that
//! estimate the result cardinality (number of binding tuples) of twig
//! queries with complex XPath expressions, within an optimizer's time and
//! space budget.
//!
//! ## Quickstart
//!
//! ```
//! use xtwig::prelude::*;
//!
//! // A document and a twig query.
//! let doc = xtwig::xml::parse(
//!     "<bib><author><name/><paper><year>2001</year><keyword/></paper></author>\
//!      <author><name/><paper><year>1999</year><keyword/><keyword/></paper></author></bib>",
//! )
//! .unwrap();
//! let query = parse_twig(
//!     "for $t0 in //author, $t1 in $t0/name, $t2 in $t0/paper, $t3 in $t2/keyword",
//! )
//! .unwrap();
//!
//! // Exact evaluation (the ground truth an optimizer cannot afford).
//! let truth = selectivity(&doc, &query);
//! assert_eq!(truth, 3);
//!
//! // Build a Twig XSKETCH within a byte budget, compile it once, and
//! // estimate through the `Estimator` trait.
//! let build = BuildOptions { budget_bytes: 2048, max_rounds: 30, ..Default::default() };
//! let (synopsis, _trace) = xbuild(&doc, TruthSource::Exact, &build);
//! let compiled = CompiledSynopsis::compile(&synopsis);
//! let report = compiled.estimate(&EstimateRequest::new(&query));
//! assert!((report.estimate - truth as f64).abs() < 1.0);
//! assert!(!report.provenance.degraded);
//!
//! // Batches go through a `BatchServer`, optionally with a cache.
//! let reports = BatchServer::new(&compiled).serve(&[query]);
//! assert_eq!(reports[0].estimate.to_bits(), report.estimate.to_bits());
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`xml`] | document arena, XML parser/writer, statistics |
//! | [`query`] | twig-query AST, parser, exact evaluator |
//! | [`histogram`] | multidimensional count histograms, value histograms, wavelets |
//! | [`core`] | synopses, stability, TSN, estimation framework, XBUILD |
//! | [`cst`] | the Correlated Suffix Tree baseline |
//! | [`datagen`] | XMark/IMDB/SwissProt-like dataset generators |
//! | [`workload`] | workload generation, error metric, budget sweeps |

/// XML document substrate (re-export of `xtwig-xml`).
pub use xtwig_xml as xml;

/// Twig query model and exact evaluator (re-export of `xtwig-query`).
pub use xtwig_query as query;

/// Distribution summaries (re-export of `xtwig-histogram`).
pub use xtwig_histogram as histogram;

/// Twig XSKETCH synopses (re-export of `xtwig-core`).
pub use xtwig_core as core;

/// CST baseline (re-export of `xtwig-cst`).
pub use xtwig_cst as cst;

/// Dataset generators (re-export of `xtwig-datagen`).
pub use xtwig_datagen as datagen;

/// Markov path-model baseline (re-export of `xtwig-markov`).
pub use xtwig_markov as markov;

/// Workloads, metrics and sweeps (re-export of `xtwig-workload`).
pub use xtwig_workload as workload;

/// The names most programs need.
pub mod prelude {
    pub use xtwig_core::construct::{xbuild, BuildOptions, TruthSource};
    pub use xtwig_core::estimate::{EstimateOptions, EstimateOptionsBuilder};
    pub use xtwig_core::{
        coarse_synopsis, read_snapshot, write_snapshot_atomic, BatchServer, CompiledSynopsis,
        EstimateCache, EstimateReport, EstimateRequest, Estimator, Explain, Provenance,
        SnapshotError, Synopsis,
    };
    pub use xtwig_query::{parse_path, parse_twig, selectivity, PathExpr, TwigQuery};
    pub use xtwig_workload::GuardedEstimator;
    pub use xtwig_xml::{parse, Document, DocumentBuilder};
}
