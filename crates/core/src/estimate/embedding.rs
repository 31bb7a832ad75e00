//! Maximal twig embeddings (§4).
//!
//! A twig embedding binds every (expanded) twig node to a concrete
//! synopsis node. Expansion of multi-step and `//` paths introduces chain
//! nodes, so an embedding is itself a tree of single-step nodes — a
//! *maximal* twig matched onto the synopsis. The selectivity of the
//! original query is the sum of the estimates of its embeddings.

use crate::estimate::expand::{
    expand_path_absolute_metered, expand_path_from_metered, BranchValue, Chain,
};
use crate::estimate::guard::Meter;
use crate::estimate::{EstimateOptions, SynopsisView};
use crate::synopsis::SynId;
use xtwig_query::{TwigNodeRef, TwigQuery};

/// One node of an embedding: a synopsis node plus resolved predicates.
#[derive(Debug, Clone, PartialEq)]
pub struct EmbNode {
    /// The synopsis node bound at this position.
    pub syn: SynId,
    /// Parent embedding node.
    pub parent: Option<usize>,
    /// Child embedding nodes.
    pub children: Vec<usize>,
    /// Self-value restriction `[lo, hi]`, if the step carried one.
    pub value_range: Option<(i64, i64)>,
    /// Product of branching-predicate existence fractions at this node
    /// (predicates that could not stay symbolic).
    pub branch_fraction: f64,
    /// Symbolic single-step branch-value predicates (candidates for joint
    /// value×count summaries).
    pub branch_values: Vec<BranchValue>,
}

/// A maximal twig embedding over the synopsis.
#[derive(Debug, Clone, PartialEq)]
pub struct Embedding {
    /// Embedding nodes; index 0 is the root, children always follow their
    /// parent (depth-first-compatible order).
    pub nodes: Vec<EmbNode>,
    /// Number of document elements the root position stands for. For
    /// absolute queries this is 1.0 (the document root); tests may anchor
    /// an embedding at an arbitrary node with its extent size.
    pub root_count: f64,
}

impl Embedding {
    /// Creates an embedding with the given root binding.
    pub fn with_root(syn: SynId, root_count: f64) -> Embedding {
        // Embeddings are plan data: built once per expansion-memo miss,
        // stored behind the memo's `Arc`, and only *read* per query —
        // not arena material.
        Embedding {
            // lint:allow(hot-alloc)
            nodes: vec![EmbNode {
                syn,
                parent: None,
                children: Vec::new(), // lint:allow(hot-alloc): memo-stored plan
                value_range: None,
                branch_fraction: 1.0,
                branch_values: Vec::new(), // lint:allow(hot-alloc): memo-stored plan
            }],
            root_count,
        }
    }

    /// Appends a child node under `parent` and returns its index.
    pub fn push_node(
        &mut self,
        parent: usize,
        syn: SynId,
        value_range: Option<(i64, i64)>,
        branch_fraction: f64,
    ) -> usize {
        let idx = self.nodes.len();
        self.nodes.push(EmbNode {
            syn,
            parent: Some(parent),
            children: Vec::new(), // lint:allow(hot-alloc): memo-stored plan
            value_range,
            branch_fraction,
            branch_values: Vec::new(), // lint:allow(hot-alloc): memo-stored plan
        });
        if let Some(p) = self.nodes.get_mut(parent) {
            p.children.push(idx);
        }
        idx
    }

    /// Appends an expanded chain under `anchor`; returns the index of the
    /// chain's final node.
    fn push_chain(&mut self, anchor: usize, chain: &Chain) -> usize {
        let mut at = anchor;
        for link in &chain.nodes {
            at = self.push_node(at, link.syn, link.value_range, link.pred_fraction);
            if let Some(n) = self.nodes.get_mut(at) {
                n.branch_values = link.branch_values.clone();
            }
        }
        at
    }
}

/// Enumerates the maximal twig embeddings of `query` over the synopsis.
/// The result is truncated at `opts.max_embeddings`.
pub fn enumerate_embeddings<S: SynopsisView + ?Sized>(
    s: &S,
    query: &TwigQuery,
    opts: &EstimateOptions,
) -> Vec<Embedding> {
    enumerate_embeddings_metered(s, query, opts, &mut Meter::from_options(opts))
}

/// [`enumerate_embeddings`] charging a caller-owned budget [`Meter`]; on
/// exhaustion the embeddings completed so far are returned.
pub fn enumerate_embeddings_metered<S: SynopsisView + ?Sized>(
    s: &S,
    query: &TwigQuery,
    opts: &EstimateOptions,
    meter: &mut Meter,
) -> Vec<Embedding> {
    let root_chains = expand_path_absolute_metered(s, query.path(query.root()), opts, meter);
    // This whole function is the cold memo-miss path: the embedding list
    // it builds is stored behind the memo's `Arc` and reused by every
    // subsequent query with the same fingerprint.
    // lint:allow(hot-alloc)
    let mut out: Vec<Embedding> = Vec::new();
    for chain in &root_chains {
        if meter.exhaustion().is_some() {
            break;
        }
        let Some(head) = chain.nodes.first() else {
            continue;
        };
        // The first link is the synopsis root, standing for the single
        // document root element.
        let mut emb = Embedding::with_root(head.syn, 1.0);
        if let Some(root) = emb.nodes.first_mut() {
            root.value_range = head.value_range;
            root.branch_fraction = head.pred_fraction;
            root.branch_values = head.branch_values.clone();
        }
        let anchor = if chain.nodes.len() > 1 {
            let tail: Vec<_> = chain.nodes.iter().skip(1).cloned().collect(); // lint:allow(hot-alloc): cold memo-miss path
            emb.push_chain(0, &Chain { nodes: tail })
        } else {
            0
        };
        attach_children(s, query, opts, emb, query.root(), anchor, &mut out, meter);
        if out.len() >= opts.max_embeddings {
            out.truncate(opts.max_embeddings);
            break;
        }
    }
    out
}

/// Recursively attaches the twig children of `t` under `anchor`, pushing
/// every completed embedding into `out`.
#[allow(clippy::too_many_arguments)]
fn attach_children<S: SynopsisView + ?Sized>(
    s: &S,
    query: &TwigQuery,
    opts: &EstimateOptions,
    emb: Embedding,
    t: TwigNodeRef,
    anchor: usize,
    out: &mut Vec<Embedding>,
    meter: &mut Meter,
) {
    // Process children sequentially via an explicit worklist of partial
    // embeddings, then recurse into the grandchildren (handled by the
    // inner recursion below).
    #[allow(clippy::too_many_arguments)]
    fn rec<S: SynopsisView + ?Sized>(
        s: &S,
        query: &TwigQuery,
        opts: &EstimateOptions,
        emb: Embedding,
        pending: &[(TwigNodeRef, usize)],
        out: &mut Vec<Embedding>,
        meter: &mut Meter,
    ) {
        if out.len() >= opts.max_embeddings || !meter.proceed(1) {
            return;
        }
        let Some(&(t, anchor)) = pending.first() else {
            out.push(emb);
            return;
        };
        let rest = &pending[1..];
        let Some(anchor_syn) = emb.nodes.get(anchor).map(|n| n.syn) else {
            return;
        };
        let chains = expand_path_from_metered(s, anchor_syn, query.path(t), opts, meter);
        for chain in &chains {
            if meter.exhaustion().is_some() {
                return;
            }
            let mut e = emb.clone();
            let end = e.push_chain(anchor, chain);
            // Queue t's own children anchored at the chain end, ahead of
            // the remaining siblings.
            let mut next: Vec<(TwigNodeRef, usize)> =
                query.children(t).iter().map(|&c| (c, end)).collect(); // lint:allow(hot-alloc): cold memo-miss path
            next.extend_from_slice(rest);
            rec(s, query, opts, e, &next, out, meter);
        }
    }

    let pending: Vec<(TwigNodeRef, usize)> =
        query.children(t).iter().map(|&c| (c, anchor)).collect(); // lint:allow(hot-alloc): cold memo-miss path
    rec(s, query, opts, emb, &pending, out, meter);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coarse::coarse_synopsis;
    use xtwig_query::parse_twig;
    use xtwig_xml::parse;

    fn doc() -> xtwig_xml::Document {
        parse(concat!(
            "<bib>",
            "<author><name/><paper><title/><keyword/></paper></author>",
            "<journal><paper><title/></paper></journal>",
            "</bib>"
        ))
        .unwrap()
    }

    #[test]
    fn simple_twig_single_embedding() {
        let d = doc();
        let s = coarse_synopsis(&d);
        let q =
            parse_twig("for $t0 in /bib/author, $t1 in $t0/name, $t2 in $t0/paper/title").unwrap();
        let embs = enumerate_embeddings(&s, &q, &EstimateOptions::default());
        assert_eq!(embs.len(), 1);
        let e = &embs[0];
        // bib, author, name, paper, title = 5 embedding nodes.
        assert_eq!(e.nodes.len(), 5);
        assert_eq!(s.tag(e.nodes[0].syn), "bib");
        // The author node has two children: name and paper.
        let author_idx = e
            .nodes
            .iter()
            .position(|n| s.tag(n.syn) == "author")
            .unwrap();
        assert_eq!(e.nodes[author_idx].children.len(), 2);
        assert_eq!(e.root_count, 1.0);
    }

    #[test]
    fn descendant_twig_multiplies_embeddings() {
        let d = doc();
        let s = coarse_synopsis(&d);
        let q = parse_twig("for $t0 in //paper, $t1 in $t0/title").unwrap();
        let embs = enumerate_embeddings(&s, &q, &EstimateOptions::default());
        // paper is reachable via author and via journal.
        assert_eq!(embs.len(), 2);
    }

    #[test]
    fn unmatchable_twig_has_no_embeddings() {
        let d = doc();
        let s = coarse_synopsis(&d);
        let q = parse_twig("for $t0 in //paper, $t1 in $t0/zzz").unwrap();
        assert!(enumerate_embeddings(&s, &q, &EstimateOptions::default()).is_empty());
    }

    #[test]
    fn embedding_cap_is_honored() {
        let d = doc();
        let s = coarse_synopsis(&d);
        let q = parse_twig("for $t0 in //paper, $t1 in $t0/title").unwrap();
        let opts = EstimateOptions {
            max_embeddings: 1,
            ..Default::default()
        };
        assert_eq!(enumerate_embeddings(&s, &q, &opts).len(), 1);
    }

    #[test]
    fn branch_fractions_attach_to_nodes() {
        let d = doc();
        let s = coarse_synopsis(&d);
        let q = parse_twig("for $t0 in //paper[keyword], $t1 in $t0/title").unwrap();
        let embs = enumerate_embeddings(&s, &q, &EstimateOptions::default());
        for e in &embs {
            let paper = e.nodes.iter().find(|n| s.tag(n.syn) == "paper").unwrap();
            assert!((paper.branch_fraction - 0.5).abs() < 1e-9);
        }
    }
}
