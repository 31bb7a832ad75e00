//! Twig stable neighborhoods (§3.2).
//!
//! The TSN of a synopsis node `n` is the set of nodes that either (a)
//! reach `n` through a B-stable path (including `n` itself), or (b) are
//! reached from a node in (a) through an F-stable path of length 1. Every
//! element of `n` is guaranteed to belong to a document twig covering all
//! TSN nodes, so edge counts between TSN nodes are well-defined for the
//! whole extent — these are the candidate dimensions for `n`'s edge
//! histogram.

use crate::synopsis::{DimKind, ScopeDim, SynId, Synopsis};
use std::collections::HashSet;

/// Computes the twig stable neighborhood of `n`.
pub fn twig_stable_neighborhood(s: &Synopsis, n: SynId) -> HashSet<SynId> {
    let r = b_stable_ancestors(s, n);
    let mut tsn = r.clone();
    for &u in &r {
        for &v in s.children_of(u) {
            if s.is_f_stable(u, v) {
                tsn.insert(v);
            }
        }
    }
    tsn
}

/// The set (a) above: nodes reaching `n` via B-stable paths, `n` included.
pub fn b_stable_ancestors(s: &Synopsis, n: SynId) -> HashSet<SynId> {
    let mut r: HashSet<SynId> = HashSet::from([n]);
    let mut stack = vec![n];
    while let Some(v) = stack.pop() {
        for &u in s.parents_of(v) {
            if s.is_b_stable(u, v) && r.insert(u) {
                stack.push(u);
            }
        }
    }
    r
}

/// All candidate scope dimensions for `n`'s edge histogram: forward counts
/// over every edge `n → v`, and backward counts over F-stable edges
/// `a → z` for every proper B-stable ancestor `a`.
///
/// The paper limits *both* kinds to the TSN ("paths that provably exist
/// for all elements"); that restriction is essential for backward counts
/// (the ancestor must exist for the count to be defined) but not for
/// forward counts — a zero count is perfectly well-defined and our
/// histograms represent it directly, so every child edge is a candidate.
/// The coarse synopsis still seeds scopes with F-stable children only, as
/// in §5.
///
/// `strict = true` enforces the paper's strict TSN rule for forward
/// dimensions too, keeping only F-stable children exactly as §3.2 words
/// it. Used by the ablation bench.
pub fn candidate_dims_with(s: &Synopsis, n: SynId, strict: bool) -> Vec<ScopeDim> {
    let mut ancestors: Vec<SynId> = b_stable_ancestors(s, n).into_iter().collect();
    ancestors.sort_unstable(); // deterministic proposal order
    let mut dims = Vec::new();
    for &v in s.children_of(n) {
        if strict && !s.is_f_stable(n, v) {
            continue;
        }
        dims.push(ScopeDim {
            parent: n,
            child: v,
            kind: DimKind::Forward,
        });
    }
    for &a in &ancestors {
        if a == n {
            continue;
        }
        for &z in s.children_of(a) {
            if s.is_f_stable(a, z) {
                dims.push(ScopeDim {
                    parent: a,
                    child: z,
                    kind: DimKind::Backward,
                });
            }
        }
    }
    dims
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coarse::coarse_synopsis;
    use xtwig_xml::parse;

    fn bib_doc() -> xtwig_xml::Document {
        parse(concat!(
            "<bib>",
            "<author><name/>",
            "<paper><title/><year>1999</year><keyword/><keyword/></paper>",
            "<paper><title/><year>2002</year><keyword/></paper>",
            "</author>",
            "<author><name/>",
            "<paper><title/><year>2001</year><keyword/></paper>",
            "<book><title/></book>",
            "</author>",
            "<author><name/>",
            "<paper><title/><year>2000</year><keyword/></paper>",
            "</author>",
            "</bib>"
        ))
        .unwrap()
    }

    #[test]
    fn tsn_of_paper_contains_author_context() {
        let doc = bib_doc();
        let s = coarse_synopsis(&doc);
        let paper = s.nodes_with_tag("paper")[0];
        let author = s.nodes_with_tag("author")[0];
        let name = s.nodes_with_tag("name")[0];
        let title = s.nodes_with_tag("title")[0];
        let year = s.nodes_with_tag("year")[0];
        let book = s.nodes_with_tag("book")[0];
        let tsn = twig_stable_neighborhood(&s, paper);
        // Paper reaches itself; author reaches paper B-stably; bib reaches
        // author B-stably. F-stable frontier: name, paper, title, year
        // (every paper has a title and year), keyword (every paper has ≥1
        // keyword in this instance).
        assert!(tsn.contains(&paper));
        assert!(tsn.contains(&author));
        assert!(tsn.contains(&name));
        assert!(tsn.contains(&title));
        assert!(tsn.contains(&year));
        // book is not F-stable from author, so not in TSN.
        assert!(!tsn.contains(&book));
    }

    #[test]
    fn candidate_dims_include_example_3_1_scope() {
        // Example 3.1 records f_P(C_Y, C_K, C_P, C_N): forward counts to
        // year and keyword, backward counts for author→paper and
        // author→name.
        let doc = bib_doc();
        let s = coarse_synopsis(&doc);
        let paper = s.nodes_with_tag("paper")[0];
        let author = s.nodes_with_tag("author")[0];
        let dims = candidate_dims_with(&s, paper, false);
        let has = |parent: SynId, child_tag: &str, kind: DimKind| {
            dims.iter()
                .any(|d| d.parent == parent && s.tag(d.child) == child_tag && d.kind == kind)
        };
        assert!(has(paper, "year", DimKind::Forward));
        assert!(has(paper, "keyword", DimKind::Forward));
        assert!(has(paper, "title", DimKind::Forward));
        assert!(has(author, "paper", DimKind::Backward));
        assert!(has(author, "name", DimKind::Backward));
    }

    #[test]
    fn b_stable_ancestors_reach_the_root() {
        let doc = bib_doc();
        let s = coarse_synopsis(&doc);
        let keyword = s.nodes_with_tag("keyword")[0];
        let r = b_stable_ancestors(&s, keyword);
        // keyword ← paper is B-stable; paper ← author B-stable; author ←
        // bib B-stable.
        assert!(r.contains(&s.nodes_with_tag("paper")[0]));
        assert!(r.contains(&s.nodes_with_tag("author")[0]));
        assert!(r.contains(&s.root()));
    }
}
