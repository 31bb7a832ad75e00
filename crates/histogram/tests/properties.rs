//! Property tests for the histogram substrate: mass conservation,
//! exactness with sufficient budget, marginal/conditional consistency,
//! wavelet reconstruction, and a differential check of the greedy
//! merge against the full pair scan it replaced.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use xtwig_histogram::{Bucket, ExactDistribution, MdHistogram, ValueHistogram, WaveletSummary};

fn arb_dist(dims: usize) -> impl Strategy<Value = ExactDistribution> {
    prop::collection::vec(
        (prop::collection::vec(0u32..30, dims..=dims), 1u64..20),
        1..40,
    )
    .prop_map(move |points| {
        let mut d = ExactDistribution::new(dims);
        for (p, w) in points {
            d.add_weighted(&p, w);
        }
        d
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn exact_histogram_matches_distribution(d in arb_dist(2)) {
        let h = MdHistogram::exact(&d);
        prop_assert!((h.total_mass() - 1.0).abs() < 1e-9);
        for mult in [vec![], vec![0], vec![1], vec![0, 1]] {
            let e = d.expectation_product(&mult);
            let he = h.expectation_product(&mult);
            prop_assert!((he - e).abs() <= 1e-6 * e.abs().max(1.0), "{mult:?}: {he} vs {e}");
        }
    }

    #[test]
    fn compression_conserves_mass_and_means(d in arb_dist(2), buckets in 1usize..12) {
        let mut h = MdHistogram::exact(&d);
        h.compress_to_buckets(buckets);
        prop_assert!(h.buckets().len() <= buckets.max(1));
        prop_assert!((h.total_mass() - 1.0).abs() < 1e-9);
        // Single-dimension means are preserved exactly by mass-weighted
        // merging.
        for dim in [0usize, 1] {
            let e = d.expectation_product(&[dim]);
            let he = h.expectation_product(&[dim]);
            prop_assert!((he - e).abs() <= 1e-6 * e.abs().max(1.0), "dim {dim}: {he} vs {e}");
        }
    }

    #[test]
    fn conditional_masses_are_normalized(d in arb_dist(2)) {
        let h = MdHistogram::exact(&d);
        // Conditioning on any observed dim-1 value yields masses ≈ 1.
        for b in h.buckets() {
            let support = h.conditional_support_on(&[(1, b.mean[1])], &[0]);
            let total: f64 = support.iter().map(|(m, _)| m).sum();
            prop_assert!((total - 1.0).abs() < 1e-9, "total {total}");
        }
    }

    #[test]
    fn law_of_total_expectation(d in arb_dist(2)) {
        // E[c0] == Σ_v P(c1 = v) · E[c0 | c1 = v] over the exact histogram.
        let h = MdHistogram::exact(&d);
        let marginal = d.marginal(&[1]);
        let mut acc = 0.0;
        for (point, _) in marginal.iter() {
            let p = marginal.fraction(&[point[0]]);
            let e = h.conditional_expectation_product(&[(1, point[0] as f64)], &[0]);
            acc += p * e;
        }
        let expect = d.expectation_product(&[0]);
        prop_assert!((acc - expect).abs() < 1e-6 * expect.max(1.0), "{acc} vs {expect}");
    }

    #[test]
    fn weighted_support_scales_linearly(d in arb_dist(1), w in 0.0f64..1.0) {
        let h = MdHistogram::exact(&d);
        let plain: f64 = h
            .conditional_support_weighted(&[], &[0], &|_| 1.0)
            .iter()
            .map(|(m, v)| m * v[0])
            .sum();
        let weighted: f64 = h
            .conditional_support_weighted(&[], &[0], &|_| w)
            .iter()
            .map(|(m, v)| m * v[0])
            .sum();
        prop_assert!((weighted - plain * w).abs() < 1e-9);
    }

    #[test]
    fn value_histogram_total_and_monotone(values in prop::collection::vec(-500i64..500, 1..200), buckets in 1usize..16) {
        let h = ValueHistogram::build(values.clone(), buckets);
        prop_assert_eq!(h.total(), values.len() as u64);
        let full = h.range_fraction(i64::MIN, i64::MAX);
        prop_assert!((full - 1.0).abs() < 1e-9);
        // Range fractions are monotone in range inclusion.
        let half = h.range_fraction(-500, 0);
        let quarter = h.range_fraction(-500, -250);
        prop_assert!(quarter <= half + 1e-9);
        prop_assert!(half <= full + 1e-9);
    }

    #[test]
    fn value_histogram_exact_when_buckets_dominate(values in prop::collection::vec(-20i64..20, 1..40)) {
        let h = ValueHistogram::build(values.clone(), 64);
        for probe in -20i64..20 {
            let expected = values.iter().filter(|&&v| v == probe).count() as f64
                / values.len() as f64;
            let got = h.range_fraction(probe, probe);
            prop_assert!((got - expected).abs() < 1e-9, "probe {probe}: {got} vs {expected}");
        }
    }

    #[test]
    fn wavelet_full_retention_is_exact(d in arb_dist(1)) {
        let w = WaveletSummary::build(&d, 1 << 12);
        let maxc = 30u32;
        for c in 0..=maxc {
            let expect = d.fraction(&[c]);
            prop_assert!((w.fraction(c) - expect).abs() < 1e-9, "c={c}");
        }
        let mean = d.expectation_product(&[0]);
        prop_assert!((w.expectation() - mean).abs() < 1e-6 * mean.max(1.0));
    }

    #[test]
    fn wavelet_thresholding_never_panics_and_stays_finite(d in arb_dist(1), keep in 1usize..8) {
        let w = WaveletSummary::build(&d, keep);
        prop_assert!(w.coefficient_count() <= keep.max(1));
        prop_assert!(w.expectation().is_finite());
        prop_assert!(w.reconstruct().iter().all(|f| f.is_finite() && *f >= 0.0));
    }

    /// Greedy bucket merging under any byte budget keeps every fraction a
    /// valid probability: finite, non-negative, at most 1, summing to 1.
    #[test]
    fn greedy_merge_fractions_stay_valid_probabilities(
        d in arb_dist(3),
        budget in 16usize..400,
    ) {
        let mut h = MdHistogram::exact(&d);
        h.compress_to_bytes(budget);
        let mut mass = 0.0f64;
        for b in h.buckets() {
            prop_assert!(b.fraction.is_finite(), "NaN/inf fraction {}", b.fraction);
            prop_assert!(b.fraction >= 0.0, "negative fraction {}", b.fraction);
            prop_assert!(b.fraction <= 1.0 + 1e-9, "fraction {} > 1", b.fraction);
            mass += b.fraction;
        }
        prop_assert!((mass - 1.0).abs() < 1e-6, "mass {mass}");
    }

    /// Same guarantee under bucket-count-driven compression, across every
    /// intermediate merge level down to a single bucket.
    #[test]
    fn every_merge_level_conserves_mass(d in arb_dist(2)) {
        let exact = MdHistogram::exact(&d);
        for target in (1..=exact.buckets().len()).rev() {
            let mut h = exact.clone();
            h.compress_to_buckets(target);
            prop_assert!(h.buckets().len() <= target.max(1));
            let mass: f64 = h.buckets().iter().map(|b| b.fraction).sum();
            prop_assert!((mass - 1.0).abs() < 1e-6, "target {target}: mass {mass}");
            prop_assert!(
                h.buckets().iter().all(|b| b.fraction.is_finite() && b.fraction >= 0.0),
                "target {target}: invalid fraction"
            );
        }
    }
}

/// Distributions rich in tied merge costs: integer points on a grid with
/// masses drawn from {1, 2, 4}, over 1–3 dims. One in six holds more than
/// 512 distinct points, so the pre-merge runs before the greedy phase.
fn arb_tied_dist() -> impl Strategy<Value = ExactDistribution> {
    (1usize..4, 0u64..u64::MAX).prop_map(|(dims, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let large = rng.random_range(0..6u32) == 0;
        let (distinct, side) = if large {
            (rng.random_range(513..641usize), [4096u32, 64, 16][dims - 1])
        } else {
            (rng.random_range(1..61usize), [64u32, 8, 4][dims - 1])
        };
        // Each grid holds at least 64 cells, so the loop below ends.
        let mut d = ExactDistribution::new(dims);
        while d.distinct() < distinct {
            let point: Vec<u32> = (0..dims).map(|_| rng.random_range(0..side)).collect();
            d.add_weighted(&point, [1u64, 2, 4][rng.random_range(0..3usize)]);
        }
        d
    })
}

/// The greedy merge before each bucket cached its cheapest partner: the
/// same pre-merge, then a scan of every pair for each merge, taking the
/// first pair in lexicographic order on ties (strict `<`).
fn full_scan_compress(h: &MdHistogram, max_buckets: usize) -> Vec<Bucket> {
    fn merge_cost(a: &Bucket, b: &Bucket) -> f64 {
        let f = a.fraction + b.fraction;
        if f <= 0.0 {
            return 0.0;
        }
        let w = a.fraction * b.fraction / f;
        let sse: f64 = a
            .mean
            .iter()
            .zip(&b.mean)
            .map(|(&x, &y)| (x - y) * (x - y))
            .sum();
        w * sse
    }
    fn merge(a: &Bucket, b: &Bucket) -> Bucket {
        let fraction = a.fraction + b.fraction;
        Bucket {
            fraction,
            lo: a.lo.iter().zip(&b.lo).map(|(&x, &y)| x.min(y)).collect(),
            hi: a.hi.iter().zip(&b.hi).map(|(&x, &y)| x.max(y)).collect(),
            mean: a
                .mean
                .iter()
                .zip(&b.mean)
                .map(|(&m1, &m2)| {
                    if fraction > 0.0 {
                        (a.fraction * m1 + b.fraction * m2) / fraction
                    } else {
                        (m1 + m2) / 2.0
                    }
                })
                .collect(),
        }
    }
    let max_buckets = max_buckets.max(1);
    let mut buckets = h.buckets().to_vec();
    if buckets.len() <= max_buckets {
        return buckets;
    }
    let target = 512usize.max(4 * max_buckets);
    if buckets.len() > target {
        buckets.sort_by(|a, b| {
            a.mean
                .iter()
                .zip(&b.mean)
                .map(|(x, y)| x.partial_cmp(y).unwrap_or(std::cmp::Ordering::Equal))
                .find(|o| *o != std::cmp::Ordering::Equal)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        while buckets.len() > target {
            buckets = buckets
                .chunks(2)
                .map(|pair| match pair {
                    [a, b] => merge(a, b),
                    [a] => a.clone(),
                    _ => unreachable!(),
                })
                .collect();
        }
    }
    while buckets.len() > max_buckets {
        let mut best = (f64::INFINITY, 0usize, 1usize);
        for (i, a) in buckets.iter().enumerate() {
            for (j, b) in buckets.iter().enumerate().skip(i + 1) {
                let c = merge_cost(a, b);
                if c < best.0 {
                    best = (c, i, j);
                }
            }
        }
        let (_, i, j) = best;
        let merged = merge(&buckets[i], &buckets[j]);
        buckets.swap_remove(j);
        buckets[i] = merged;
    }
    buckets
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `compress_to_buckets` merges the pairs the full pair scan merges:
    /// the same buckets in the same positions, bit for bit.
    #[test]
    fn greedy_merge_matches_the_full_pair_scan(d in arb_tied_dist(), pick in 0.0f64..1.0) {
        let exact = MdHistogram::exact(&d);
        let n = exact.buckets().len();
        // Large inputs compress to at most 128 buckets, so the pre-merge
        // (target max(512, 4 · max_buckets)) always runs on them.
        let cap = if n > 512 { 128 } else { n };
        let max_buckets = 1 + (pick * cap as f64) as usize;
        let want = full_scan_compress(&exact, max_buckets);
        let mut got = exact.clone();
        got.compress_to_buckets(max_buckets);
        prop_assert_eq!(got.buckets().len(), want.len());
        for (k, (g, w)) in got.buckets().iter().zip(&want).enumerate() {
            prop_assert_eq!(g.fraction.to_bits(), w.fraction.to_bits(), "bucket {} fraction", k);
            prop_assert_eq!(&g.lo, &w.lo, "bucket {} lo", k);
            prop_assert_eq!(&g.hi, &w.hi, "bucket {} hi", k);
            let gm: Vec<u64> = g.mean.iter().map(|m| m.to_bits()).collect();
            let wm: Vec<u64> = w.mean.iter().map(|m| m.to_bits()).collect();
            prop_assert_eq!(gm, wm, "bucket {} mean", k);
        }
    }
}
