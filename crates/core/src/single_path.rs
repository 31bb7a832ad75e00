//! The single-path XSKETCH estimation framework [11, 12], as used inside
//! the twig estimator.
//!
//! The twig framework (§4) delegates three sub-problems to single-path
//! estimation: the `|A→B|` terms of the Forward Uniformity assumption,
//! the existence fractions of branching predicates, and the §6.2
//! comparison on single-path workloads. With the exact per-edge counts our
//! synopses store, a chain estimate walks the synopsis path applying the
//! uniformity assumption at every step: if a fraction `f` of `u`'s extent
//! is reachable, then `child_count(u→v) · f` elements of `v` are reachable
//! (children are assumed uniformly distributed over parents).

use crate::compiled::CompiledSynopsis;
use crate::estimate::arena::ExpandScratch;
use crate::estimate::expand::{chain_links, expand_absolute, expand_from, resolve_steps};
use crate::estimate::{EstimateOptions, EvalArena, Meter};
use crate::synopsis::SynId;
use xtwig_query::{PathExpr, Pred};

/// Estimated fraction of `from`'s elements satisfying the existential
/// branch predicate `[path]` (with optional value restriction), combining
/// per-step existence fractions under independence and summing alternative
/// synopsis expansions as disjoint-ish alternatives
/// (`1 − Π(1 − f_alt)`). The branch path expands in `ar`'s lanes under
/// its own meter, built from `opts`.
pub fn branch_fraction(
    s: &CompiledSynopsis<'_>,
    from: SynId,
    pred: &Pred,
    opts: &EstimateOptions,
    ar: &mut EvalArena,
) -> f64 {
    branch_fraction_in(s, from, pred, opts, &mut ar.expand)
}

/// [`branch_fraction`] over the expansion lanes an expansion already
/// holds: the branch path's chains are pushed above the caller's and
/// released before returning.
pub(crate) fn branch_fraction_in(
    s: &CompiledSynopsis<'_>,
    from: SynId,
    pred: &Pred,
    opts: &EstimateOptions,
    sc: &mut ExpandScratch,
) -> f64 {
    let Some(path) = &pred.path else {
        // Self value predicate: fraction of elements with value in range.
        let Some(r) = pred.value else { return 1.0 };
        return s.value_fraction(from, r.lo, r.hi);
    };
    let mark = sc.mark();
    let set = resolve_steps(s, &path.steps, sc);
    let mut meter = Meter::from_options(opts);
    let chains = expand_from(s, from, path, set, opts, &mut meter, sc);
    let mut miss_all = 1.0f64;
    for chain in chains {
        // The chain excludes `from`; existence fraction along the chain.
        let mut f = 1.0f64;
        let mut prev = from;
        for link in chain_links(sc, chain) {
            f *= s.exist_fraction(prev, link.syn);
            // Chained predicates nested inside the branch path.
            f *= link.pred_fraction;
            prev = link.syn;
        }
        if let Some(r) = pred.value {
            f *= s.value_fraction(prev, r.lo, r.hi);
        }
        miss_all *= 1.0 - f.clamp(0.0, 1.0);
    }
    sc.release(mark);
    (1.0 - miss_all).clamp(0.0, 1.0)
}

/// Estimates the result count of a single (absolute) path expression over
/// the synopsis — the single-path XSKETCH estimator used by the §6.2
/// comparison bench. Branch and value predicates multiply in as fractions.
/// The path expands in `ar`'s lanes; node counts come from the `counts`
/// column and edge counts from [`CompiledSynopsis::child_count`].
pub fn estimate_path_count(
    s: &CompiledSynopsis<'_>,
    path: &PathExpr,
    opts: &EstimateOptions,
    ar: &mut EvalArena,
) -> f64 {
    let sc = &mut ar.expand;
    let mark = sc.mark();
    let set = resolve_steps(s, &path.steps, sc);
    let mut meter = Meter::from_options(opts);
    let chains = expand_absolute(s, path, set, opts, &mut meter, sc);
    let mut total = 0.0;
    for chain in chains {
        let Some((head, links)) = chain_links(sc, chain).split_first() else {
            continue;
        };
        // The chain starts at the synopsis root node, which matches exactly
        // one document element (the root).
        let mut count = 1.0f64;
        let mut prev = head.syn;
        count *= head.pred_fraction;
        for link in links {
            let size_prev = s.cols.counts.get(prev.index()).copied().unwrap_or(0) as f64;
            let frac = if size_prev > 0.0 {
                (count / size_prev).min(1.0)
            } else {
                0.0
            };
            let child_count = s.child_count(prev, link.syn) as f64;
            count = child_count * frac * link.pred_fraction;
            prev = link.syn;
        }
        total += count;
    }
    sc.release(mark);
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coarse::coarse_synopsis;
    use xtwig_query::parse_path;
    use xtwig_xml::parse;

    fn doc() -> xtwig_xml::Document {
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
            "</bib>"
        ))
        .unwrap()
    }

    #[test]
    fn estimate_path_count_simple() {
        let d = doc();
        let syn = coarse_synopsis(&d);
        let s = CompiledSynopsis::compile(&syn);
        let opts = EstimateOptions::default();
        let p = parse_path("/bib/author/paper").unwrap();
        let mut ar = EvalArena::new();
        let est = estimate_path_count(&s, &p, &opts, &mut ar);
        assert!((est - 3.0).abs() < 1e-9, "{est}");
        let p2 = parse_path("//keyword").unwrap();
        let est2 = estimate_path_count(&s, &p2, &opts, &mut ar);
        assert!((est2 - 4.0).abs() < 1e-9, "{est2}");
    }

    #[test]
    fn branch_fraction_single_step() {
        let d = doc();
        let syn = coarse_synopsis(&d);
        let s = CompiledSynopsis::compile(&syn);
        let opts = EstimateOptions::default();
        let author = syn.nodes_with_tag("author")[0];
        // [book]: one of two authors has a book.
        let pred = Pred::branch(PathExpr::child("book"));
        let mut ar = EvalArena::new();
        let f = branch_fraction(&s, author, &pred, &opts, &mut ar);
        assert!((f - 0.5).abs() < 1e-9, "{f}");
        // [paper]: F-stable, every author qualifies.
        let pred2 = Pred::branch(PathExpr::child("paper"));
        let f2 = branch_fraction(&s, author, &pred2, &opts, &mut ar);
        assert!((f2 - 1.0).abs() < 1e-9, "{f2}");
    }

    #[test]
    fn branch_fraction_with_value() {
        let d = doc();
        let syn = coarse_synopsis(&d);
        let s = CompiledSynopsis::compile(&syn);
        let opts = EstimateOptions::default();
        let paper = syn.nodes_with_tag("paper")[0];
        // [year > 2000]: 2 of 3 years qualify; every paper has a year, so
        // fraction ≈ 2/3 (value histogram approximation).
        let pred = xtwig_query::parse_path("/x[year > 2000]").unwrap().steps[0].preds[0].clone();
        let f = branch_fraction(&s, paper, &pred, &opts, &mut EvalArena::new());
        assert!(f > 0.3 && f <= 1.0, "{f}");
    }
}
