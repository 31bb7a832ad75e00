//! Sparse multidimensional histograms over integer count vectors.
//!
//! An [`MdHistogram`] approximates an edge distribution `f(C1,…,Ck)` with a
//! set of buckets. Each bucket covers a box of count space and stores the
//! probability mass plus the mass-weighted per-dimension mean of the points
//! it absorbed. Inside a bucket, the estimation framework treats
//! dimensions as independent and concentrated at their means — the usual
//! histogram uniformity assumption, which is exact when every bucket holds
//! a single distinct point.
//!
//! Compression is greedy agglomerative merging: repeatedly merge the bucket
//! pair whose merge increases the (mass-weighted) sum of squared deviations
//! of the means the least, until the byte budget is met. Each bucket
//! caches its cheapest partner, so a merge costs O(n) cost evaluations
//! rather than a rescan of all O(n²) pairs, and picks the pair the full
//! scan would. For large exact distributions a lexicographic pre-merge
//! bounds the greedy phase's input.

use crate::cast::count_f64;
use crate::exact::ExactDistribution;

/// One histogram bucket: a box in count space with its probability mass.
#[derive(Debug, Clone, PartialEq)]
pub struct Bucket {
    /// Probability mass (fraction of elements) in this bucket.
    pub fraction: f64,
    /// Per-dimension inclusive lower bounds of the covered box.
    pub lo: Vec<u32>,
    /// Per-dimension inclusive upper bounds of the covered box.
    pub hi: Vec<u32>,
    /// Per-dimension mass-weighted mean of the absorbed points.
    pub mean: Vec<f64>,
}

impl Bucket {
    fn from_point(point: &[u32], fraction: f64) -> Bucket {
        Bucket {
            fraction,
            lo: point.to_vec(),
            hi: point.to_vec(),
            mean: point.iter().map(|&c| f64::from(c)).collect(),
        }
    }

    /// Whether `values` (one per dimension, in histogram dimension order for
    /// the listed dims) fall inside this bucket's box on those dims.
    fn contains_on(&self, dims: &[usize], values: &[f64]) -> bool {
        dims.iter()
            .zip(values)
            .all(|(&d, &v)| match (self.lo.get(d), self.hi.get(d)) {
                // Half-open tolerance: bucket boxes are inclusive integer
                // ranges.
                (Some(&lo), Some(&hi)) => v >= f64::from(lo) - 0.5 && v <= f64::from(hi) + 0.5,
                _ => false,
            })
    }

    /// Squared distance from `values` to this bucket's box on `dims`.
    fn distance_on(&self, dims: &[usize], values: &[f64]) -> f64 {
        dims.iter()
            .zip(values)
            .map(|(&d, &v)| match (self.lo.get(d), self.hi.get(d)) {
                (Some(&lo), Some(&hi)) => {
                    let (lo, hi) = (f64::from(lo), f64::from(hi));
                    let delta = if v < lo {
                        lo - v
                    } else if v > hi {
                        v - hi
                    } else {
                        0.0
                    };
                    delta * delta
                }
                _ => 0.0,
            })
            .sum()
    }

    fn merge_with(&self, other: &Bucket) -> Bucket {
        let fraction = self.fraction + other.fraction;
        let lo = self
            .lo
            .iter()
            .zip(&other.lo)
            .map(|(&a, &b)| a.min(b))
            .collect();
        let hi = self
            .hi
            .iter()
            .zip(&other.hi)
            .map(|(&a, &b)| a.max(b))
            .collect();
        let mean = self
            .mean
            .iter()
            .zip(&other.mean)
            .map(|(&m1, &m2)| {
                if fraction > 0.0 {
                    (self.fraction * m1 + other.fraction * m2) / fraction
                } else {
                    (m1 + m2) / 2.0
                }
            })
            .collect();
        Bucket {
            fraction,
            lo,
            hi,
            mean,
        }
    }

    /// Mass-weighted SSE increase caused by merging `self` and `other`:
    /// `(f1·f2)/(f1+f2) · Σ_d (m1_d − m2_d)²`.
    fn merge_cost(&self, other: &Bucket) -> f64 {
        let f = self.fraction + other.fraction;
        if f <= 0.0 {
            return 0.0;
        }
        let w = self.fraction * other.fraction / f;
        let sse: f64 = self
            .mean
            .iter()
            .zip(&other.mean)
            .map(|(&a, &b)| (a - b) * (a - b))
            .sum();
        w * sse
    }
}

/// A compressed multidimensional histogram over integer count vectors.
#[derive(Debug, Clone, PartialEq)]
pub struct MdHistogram {
    dims: usize,
    buckets: Vec<Bucket>,
}

/// Storage cost accounting, charged against the synopsis space budget:
/// per bucket, 4 bytes for the fraction plus `BYTES_PER_DIM` for each
/// dimension (2-byte lo + 2-byte hi; the mean is derivable in principle
/// from a stored 2-byte average but we charge the box bounds only, matching
/// typical histogram size accounting).
const BYTES_PER_BUCKET_BASE: usize = 4;
/// See [`BYTES_PER_BUCKET_BASE`].
const BYTES_PER_DIM: usize = 4;

impl MdHistogram {
    /// Builds an exact (one bucket per distinct point) histogram.
    pub fn exact(dist: &ExactDistribution) -> MdHistogram {
        let total = count_f64(dist.total().max(1));
        let mut buckets: Vec<Bucket> = dist
            .iter()
            .map(|(p, freq)| Bucket::from_point(p, count_f64(freq) / total))
            .collect();
        // Deterministic order (lexicographic on lo) so construction is
        // reproducible regardless of hash iteration order.
        buckets.sort_by(|a, b| a.lo.cmp(&b.lo));
        if buckets.is_empty() {
            // An empty distribution: a single zero-mass bucket keeps the
            // query operations total.
            buckets.push(Bucket {
                fraction: 0.0,
                lo: vec![0; dist.dims()],
                hi: vec![0; dist.dims()],
                mean: vec![0.0; dist.dims()],
            });
        }
        MdHistogram {
            dims: dist.dims(),
            buckets,
        }
    }

    /// Builds a histogram compressed to at most `budget_bytes`.
    pub fn build(dist: &ExactDistribution, budget_bytes: usize) -> MdHistogram {
        let mut h = MdHistogram::exact(dist);
        h.compress_to_bytes(budget_bytes);
        h
    }

    /// Reassembles a histogram from previously extracted buckets
    /// (deserialization). The buckets are trusted as-is.
    ///
    /// # Panics
    /// Panics when a bucket's arity differs from `dims`.
    pub fn from_parts(dims: usize, buckets: Vec<Bucket>) -> MdHistogram {
        for b in &buckets {
            assert_eq!(b.lo.len(), dims, "bucket arity mismatch");
            assert_eq!(b.hi.len(), dims, "bucket arity mismatch");
            assert_eq!(b.mean.len(), dims, "bucket arity mismatch");
        }
        MdHistogram { dims, buckets }
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// The buckets of this histogram.
    pub fn buckets(&self) -> &[Bucket] {
        &self.buckets
    }

    /// Storage cost in bytes (see the accounting constants).
    pub fn size_bytes(&self) -> usize {
        self.buckets.len() * (BYTES_PER_BUCKET_BASE + BYTES_PER_DIM * self.dims)
    }

    /// Bytes one additional bucket would cost at this dimensionality.
    pub fn bytes_per_bucket(&self) -> usize {
        BYTES_PER_BUCKET_BASE + BYTES_PER_DIM * self.dims
    }

    /// Total probability mass (≈ 1 for non-empty distributions).
    pub fn total_mass(&self) -> f64 {
        self.buckets.iter().map(|b| b.fraction).sum()
    }

    /// Greedy-merges buckets until `size_bytes() <= budget_bytes` (but never
    /// below one bucket).
    pub fn compress_to_bytes(&mut self, budget_bytes: usize) {
        let per = self.bytes_per_bucket();
        let max_buckets = (budget_bytes / per).max(1);
        self.compress_to_buckets(max_buckets);
    }

    /// Greedy-merges buckets until at most `max_buckets` remain.
    pub fn compress_to_buckets(&mut self, max_buckets: usize) {
        let max_buckets = max_buckets.max(1);
        if self.buckets.len() <= max_buckets {
            return;
        }
        // Pre-merge pass for very large inputs: lexicographic neighbours
        // are cheap to merge and bound the quadratic phase.
        const QUADRATIC_LIMIT: usize = 512;
        if self.buckets.len() > QUADRATIC_LIMIT.max(4 * max_buckets) {
            let target = QUADRATIC_LIMIT.max(4 * max_buckets);
            self.buckets.sort_by(|a, b| {
                a.mean
                    .iter()
                    .zip(&b.mean)
                    .map(|(x, y)| x.partial_cmp(y).unwrap_or(std::cmp::Ordering::Equal))
                    .find(|o| *o != std::cmp::Ordering::Equal)
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            while self.buckets.len() > target {
                // Merge the cheapest adjacent pair in one sweep, halving
                // until under the limit.
                let old = std::mem::take(&mut self.buckets);
                let mut next: Vec<Bucket> = Vec::with_capacity(old.len() / 2 + 1);
                let mut it = old.into_iter();
                while let Some(a) = it.next() {
                    match it.next() {
                        Some(b) => next.push(a.merge_with(&b)),
                        None => next.push(a),
                    }
                }
                self.buckets = next;
            }
        }
        // Greedy phase on the reduced set. `partner[k]` caches bucket k's
        // cheapest merge with a later bucket (first on ties). The first
        // row holding the lowest cached cost names the same pair as a
        // full lexicographic scan with strict `<`, so only the rows a
        // merge touched are rescanned: the two merged positions, and rows
        // whose partner was one of them or the slot `swap_remove` emptied.
        // Every other row is offered the two new buckets.
        let mut partner: Vec<Option<(f64, usize)>> = (0..self.buckets.len())
            .map(|k| cheapest_partner(&self.buckets, k))
            .collect();
        while self.buckets.len() > max_buckets {
            let mut best = (f64::INFINITY, 0usize, 1usize);
            for (i, p) in partner.iter().enumerate() {
                if let Some((c, j)) = *p {
                    if c < best.0 {
                        best = (c, i, j);
                    }
                }
            }
            let (_, i, j) = best;
            let last = self.buckets.len() - 1;
            let merged = match (self.buckets.get(i), self.buckets.get(j)) {
                (Some(a), Some(b)) => a.merge_with(b),
                // Unreachable: best always names two live buckets.
                _ => return,
            };
            self.buckets.swap_remove(j);
            if let Some(slot) = self.buckets.get_mut(i) {
                *slot = merged;
            }
            partner.swap_remove(j);
            let buckets = &self.buckets;
            for (k, p) in partner.iter_mut().enumerate() {
                if k == i || k == j || p.is_some_and(|(_, q)| q == i || q == j || q == last) {
                    *p = cheapest_partner(buckets, k);
                    continue;
                }
                let Some(a) = buckets.get(k) else { continue };
                for pos in [i, j].into_iter().filter(|&pos| pos > k) {
                    if let Some(b) = buckets.get(pos) {
                        offer(p, a.merge_cost(b), pos);
                    }
                }
            }
        }
    }

    /// `Σ_c f(c) · Π_{d ∈ mult} c_d` under the histogram approximation —
    /// the paper's `Σ F(C)` with unused dimensions marginalized out.
    pub fn expectation_product(&self, mult: &[usize]) -> f64 {
        self.buckets
            .iter()
            .map(|b| {
                mult.iter().fold(b.fraction, |t, &d| {
                    t * b.mean.get(d).copied().unwrap_or(0.0)
                })
            })
            .sum()
    }

    /// Conditional expectation `Σ_{E} f(E | D = values) · Π_{d ∈ mult} c_d`,
    /// the paper's `F(E | D)` computed as the marginal ratio
    /// `H(E ∪ D)/H(D)` (Correlation-Scope Independence, §4).
    ///
    /// `cond` pairs histogram dimension indices with the conditioning values
    /// (typically bucket means of an ancestor's histogram); `mult` lists the
    /// dimensions whose counts multiply into the result. Buckets whose boxes
    /// contain the conditioning point are selected; if none does (holes in
    /// count space), the nearest bucket is used so estimates stay total.
    pub fn conditional_expectation_product(&self, cond: &[(usize, f64)], mult: &[usize]) -> f64 {
        if cond.is_empty() {
            return self.expectation_product(mult);
        }
        let dims: Vec<usize> = cond.iter().map(|&(d, _)| d).collect();
        let values: Vec<f64> = cond.iter().map(|&(_, v)| v).collect();
        let mut num = 0.0;
        let mut den = 0.0;
        for b in &self.buckets {
            if b.contains_on(&dims, &values) {
                num += mult.iter().fold(b.fraction, |t, &d| {
                    t * b.mean.get(d).copied().unwrap_or(0.0)
                });
                den += b.fraction;
            }
        }
        if den > 0.0 {
            return num / den;
        }
        // Hole: fall back to the nearest bucket.
        let nearest = self.buckets.iter().min_by(|a, b| {
            a.distance_on(&dims, &values)
                .partial_cmp(&b.distance_on(&dims, &values))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        match nearest {
            Some(b) => mult
                .iter()
                .map(|&d| b.mean.get(d).copied().unwrap_or(0.0))
                .product(),
            None => 0.0,
        }
    }

    /// Enumerates the joint support of the given dimensions as weighted
    /// representative points: `(probability mass, values)` per bucket. The
    /// estimation framework iterates these when descendants condition on
    /// the dimensions (live dims of TREEPARSE).
    pub fn support_on(&self, dims: &[usize]) -> Vec<(f64, Vec<f64>)> {
        self.buckets
            .iter()
            .filter(|b| b.fraction > 0.0)
            .map(|b| {
                let values = dims
                    .iter()
                    .filter_map(|&d| b.mean.get(d).copied())
                    .collect();
                (b.fraction, values)
            })
            .collect()
    }

    /// Like [`support_on`](Self::support_on) but restricted to buckets
    /// compatible with `cond`, with masses renormalized: the joint support
    /// of `f(dims | cond)`.
    pub fn conditional_support_on(
        &self,
        cond: &[(usize, f64)],
        dims: &[usize],
    ) -> Vec<(f64, Vec<f64>)> {
        self.conditional_support_weighted(cond, dims, &|_| 1.0)
    }

    /// [`conditional_support_on`](Self::conditional_support_on) with an
    /// additional per-bucket weight applied *after* the conditional
    /// renormalization. Weights model soft filters (e.g. the fraction of a
    /// bucket's elements whose value dimension survives a range
    /// predicate): the returned masses are `f(b | cond) · weight(b)` and
    /// intentionally do **not** renormalize over the weights. An empty
    /// `dims` list yields a single entry carrying the total weighted
    /// conditional mass.
    pub fn conditional_support_weighted(
        &self,
        cond: &[(usize, f64)],
        dims: &[usize],
        weight: &dyn Fn(&Bucket) -> f64,
    ) -> Vec<(f64, Vec<f64>)> {
        let mut out: Vec<(f64, Vec<f64>)> = Vec::new();
        self.visit_conditional_support_weighted(cond, dims, weight, &mut |mass, bucket| {
            let values = match bucket {
                Some(b) => dims
                    .iter()
                    .filter_map(|&d| b.mean.get(d).copied())
                    .collect(),
                None => Vec::new(),
            };
            out.push((mass, values));
            true
        });
        out
    }

    /// Visitor form of
    /// [`conditional_support_weighted`](Self::conditional_support_weighted):
    /// the same `(mass, bucket)` entries in the same order, delivered to
    /// `visit` instead of materialized into a list — the estimation hot
    /// path consumes each term in place without per-node allocations.
    ///
    /// `visit` receives the entry's probability mass and the originating
    /// bucket (`None` for the single collapsed entry when `dims` is
    /// empty, whose mass is the weighted conditional total); returning
    /// `false` stops the walk early (the hot path uses this to unwind on
    /// budget exhaustion).
    pub fn visit_conditional_support_weighted(
        &self,
        cond: &[(usize, f64)],
        dims: &[usize],
        weight: &dyn Fn(&Bucket) -> f64,
        visit: &mut dyn FnMut(f64, Option<&Bucket>) -> bool,
    ) {
        if cond.is_empty() {
            if dims.is_empty() {
                let total: f64 = self
                    .buckets
                    .iter()
                    .filter(|b| b.fraction > 0.0)
                    .map(|b| b.fraction * weight(b))
                    .sum();
                visit(total, None);
                return;
            }
            for b in self.buckets.iter().filter(|b| b.fraction > 0.0) {
                if !visit(b.fraction * weight(b), Some(b)) {
                    return;
                }
            }
            return;
        }
        let cdims: Vec<usize> = cond.iter().map(|&(d, _)| d).collect();
        let values: Vec<f64> = cond.iter().map(|&(_, v)| v).collect();
        let selected: Vec<&Bucket> = self
            .buckets
            .iter()
            .filter(|b| b.fraction > 0.0 && b.contains_on(&cdims, &values))
            .collect();
        let (selected, den) = if selected.is_empty() {
            let nearest = self
                .buckets
                .iter()
                .filter(|b| b.fraction > 0.0)
                .min_by(|a, b| {
                    a.distance_on(&cdims, &values)
                        .partial_cmp(&b.distance_on(&cdims, &values))
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
            match nearest {
                Some(b) => (vec![b], b.fraction),
                // No buckets at all: an empty support, not a collapsed
                // zero entry — the walk emits nothing.
                None => return,
            }
        } else {
            let den = selected.iter().map(|b| b.fraction).sum::<f64>();
            (selected, den)
        };
        if dims.is_empty() {
            let total: f64 = selected.iter().map(|b| b.fraction / den * weight(b)).sum();
            visit(total, None);
            return;
        }
        for b in selected {
            if !visit(b.fraction / den * weight(b), Some(b)) {
                return;
            }
        }
    }

    /// Probability that every listed dimension is ≥ 1 — used for branching
    /// predicates resolved through an edge histogram: the fraction of
    /// elements with at least one child along each branch edge.
    pub fn positive_fraction(&self, dims: &[usize]) -> f64 {
        self.buckets
            .iter()
            .filter(|b| {
                dims.iter()
                    .all(|&d| b.mean.get(d).is_some_and(|&m| m >= 0.5))
            })
            .map(|b| b.fraction)
            .sum()
    }
}

/// Bucket `k`'s cheapest merge with a later bucket: `(cost, position)`,
/// the first position on ties; `None` when no cost is below infinity.
fn cheapest_partner(buckets: &[Bucket], k: usize) -> Option<(f64, usize)> {
    let a = buckets.get(k)?;
    let mut best: Option<(f64, usize)> = None;
    for (j, b) in buckets.iter().enumerate().skip(k + 1) {
        let c = a.merge_cost(b);
        if c < best.map_or(f64::INFINITY, |(bc, _)| bc) {
            best = Some((c, j));
        }
    }
    best
}

/// Replaces a cached partner with `(cost, pos)` when that pair comes
/// first in `(cost, position)` order.
fn offer(slot: &mut Option<(f64, usize)>, cost: f64, pos: usize) {
    let better = match *slot {
        Some((c, q)) => cost < c || (cost == c && pos < q),
        None => cost < f64::INFINITY,
    };
    if better {
        *slot = Some((cost, pos));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dist(points: &[(&[u32], u64)]) -> ExactDistribution {
        let mut d = ExactDistribution::new(points[0].0.len());
        for &(p, w) in points {
            d.add_weighted(p, w);
        }
        d
    }

    #[test]
    fn exact_histogram_matches_distribution() {
        let d = dist(&[(&[10, 100], 1), (&[100, 10], 1)]);
        let h = MdHistogram::exact(&d);
        assert_eq!(h.buckets().len(), 2);
        assert!((h.total_mass() - 1.0).abs() < 1e-12);
        assert!((h.expectation_product(&[0, 1]) - 1000.0).abs() < 1e-9);
        assert!((h.expectation_product(&[0]) - 55.0).abs() < 1e-9);
        assert_eq!(h.expectation_product(&[]), 1.0);
    }

    #[test]
    fn compression_preserves_mass_and_means() {
        let d = dist(&[(&[1], 4), (&[2], 4), (&[100], 2)]);
        let mut h = MdHistogram::exact(&d);
        h.compress_to_buckets(2);
        assert_eq!(h.buckets().len(), 2);
        assert!((h.total_mass() - 1.0).abs() < 1e-12);
        // The cheap merge is 1 with 2 (close means); 100 stays separate.
        let mut means: Vec<f64> = h.buckets().iter().map(|b| b.mean[0]).collect();
        means.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((means[0] - 1.5).abs() < 1e-12);
        assert!((means[1] - 100.0).abs() < 1e-12);
        // Global mean (expectation of c) is preserved exactly by mean merging.
        let exact_mean = d.expectation_product(&[0]);
        assert!((h.expectation_product(&[0]) - exact_mean).abs() < 1e-9);
    }

    #[test]
    fn conditional_matches_marginal_ratio() {
        // f over (k, p): the paper's H_P(k,y,p) pattern in miniature.
        let d = dist(&[(&[2, 2], 1), (&[1, 2], 1), (&[1, 1], 2)]);
        let h = MdHistogram::exact(&d);
        // F(k | p=2) = (0.25·2 + 0.25·1)/0.5 = 1.5
        let f = h.conditional_expectation_product(&[(1, 2.0)], &[0]);
        assert!((f - 1.5).abs() < 1e-12, "{f}");
        // F(k | p=1) = (0.5·1)/0.5 = 1
        let f1 = h.conditional_expectation_product(&[(1, 1.0)], &[0]);
        assert!((f1 - 1.0).abs() < 1e-12);
        // Unconditioned reduces to plain expectation.
        let f2 = h.conditional_expectation_product(&[], &[0]);
        assert!((f2 - d.expectation_product(&[0])).abs() < 1e-12);
    }

    #[test]
    fn conditional_hole_falls_back_to_nearest() {
        let d = dist(&[(&[5, 1], 1), (&[50, 10], 1)]);
        let h = MdHistogram::exact(&d);
        // p=9 matches no bucket; nearest (on dim 1) is the p=10 bucket.
        let f = h.conditional_expectation_product(&[(1, 9.0)], &[0]);
        assert!((f - 50.0).abs() < 1e-9, "{f}");
    }

    #[test]
    fn support_enumeration() {
        let d = dist(&[(&[1, 7], 3), (&[2, 9], 1)]);
        let h = MdHistogram::exact(&d);
        let mut s = h.support_on(&[0]);
        s.sort_by(|a, b| a.1[0].partial_cmp(&b.1[0]).unwrap());
        assert_eq!(s.len(), 2);
        assert!((s[0].0 - 0.75).abs() < 1e-12);
        assert!((s[0].1[0] - 1.0).abs() < 1e-12);
        let cs = h.conditional_support_on(&[(0, 2.0)], &[1]);
        assert_eq!(cs.len(), 1);
        assert!((cs[0].0 - 1.0).abs() < 1e-12);
        assert!((cs[0].1[0] - 9.0).abs() < 1e-12);
    }

    #[test]
    fn positive_fraction() {
        let d = dist(&[(&[0, 3], 1), (&[2, 0], 1), (&[1, 1], 2)]);
        let h = MdHistogram::exact(&d);
        assert!((h.positive_fraction(&[0]) - 0.75).abs() < 1e-12);
        assert!((h.positive_fraction(&[0, 1]) - 0.5).abs() < 1e-12);
        assert_eq!(h.positive_fraction(&[]), 1.0);
    }

    #[test]
    fn size_accounting_and_budget() {
        let mut d = ExactDistribution::new(2);
        for i in 0..100u32 {
            d.add(&[i, i * 2]);
        }
        let h = MdHistogram::build(&d, 120);
        assert!(h.size_bytes() <= 120, "{} bytes", h.size_bytes());
        assert!(!h.buckets().is_empty());
        assert!((h.total_mass() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn large_input_premerge_terminates() {
        let mut d = ExactDistribution::new(1);
        for i in 0..5000u32 {
            d.add(&[i]);
        }
        let h = MdHistogram::build(&d, 64);
        assert!(h.size_bytes() <= 64);
        assert!((h.total_mass() - 1.0).abs() < 1e-9);
        // Mean is preserved by merging.
        let exact_mean = d.expectation_product(&[0]);
        assert!((h.expectation_product(&[0]) - exact_mean).abs() / exact_mean < 1e-9);
    }

    #[test]
    fn empty_distribution_yields_zero_mass() {
        let d = ExactDistribution::new(2);
        let h = MdHistogram::exact(&d);
        assert_eq!(h.expectation_product(&[0, 1]), 0.0);
        assert_eq!(h.total_mass(), 0.0);
    }
}
