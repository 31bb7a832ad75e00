//! Exact (uncompressed) multidimensional count distributions.

use std::collections::HashMap;

use crate::cast::count_f64;

/// An exact frequency distribution over integer count vectors.
///
/// This is the paper's edge distribution `f_i(C1,…,Ck)` before compression:
/// each key is a count vector, each value the number of elements exhibiting
/// it. Fractions are obtained by normalizing with the total.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExactDistribution {
    dims: usize,
    points: HashMap<Vec<u32>, u64>,
    total: u64,
}

impl ExactDistribution {
    /// Creates an empty distribution over `dims` dimensions.
    pub fn new(dims: usize) -> Self {
        ExactDistribution {
            dims,
            points: HashMap::new(),
            total: 0,
        }
    }

    /// Records one element with count vector `point`.
    ///
    /// # Panics
    /// Panics when `point.len() != dims`.
    pub fn add(&mut self, point: &[u32]) {
        self.add_weighted(point, 1);
    }

    /// Records `weight` elements with count vector `point`.
    pub fn add_weighted(&mut self, point: &[u32], weight: u64) {
        assert_eq!(point.len(), self.dims, "dimension mismatch");
        // Allocate a key only for a point not seen before.
        match self.points.get_mut(point) {
            Some(freq) => *freq += weight,
            None => {
                self.points.insert(point.to_vec(), weight);
            }
        }
        self.total += weight;
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Total element count recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of distinct count vectors.
    pub fn distinct(&self) -> usize {
        self.points.len()
    }

    /// Iterates over `(point, frequency)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&[u32], u64)> {
        self.points.iter().map(|(k, &v)| (k.as_slice(), v))
    }

    /// The fraction of elements with exactly this count vector.
    pub fn fraction(&self, point: &[u32]) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        count_f64(*self.points.get(point).unwrap_or(&0)) / count_f64(self.total)
    }

    /// Exact value of `Σ_c f(c) · Π_{d ∈ mult} c_d` — the paper's
    /// `Σ F(C)` term (average number of binding tuples per element).
    pub fn expectation_product(&self, mult: &[usize]) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let mut acc = 0.0;
        for (point, freq) in self.iter() {
            // Out-of-range dimensions contribute no binding tuples.
            let term = mult.iter().fold(count_f64(freq), |t, &d| {
                t * point.get(d).map_or(0.0, |&c| f64::from(c))
            });
            acc += term;
        }
        acc / count_f64(self.total)
    }

    /// Exact marginal onto the given dimensions (in the given order).
    pub fn marginal(&self, keep: &[usize]) -> ExactDistribution {
        let mut out = ExactDistribution::new(keep.len());
        for (point, freq) in self.iter() {
            let proj: Vec<u32> = keep
                .iter()
                .map(|&d| point.get(d).copied().unwrap_or(0))
                .collect();
            out.add_weighted(&proj, freq);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_and_expectations() {
        // Figure 4(a): f_A(10,100)=0.5, f_A(100,10)=0.5.
        let mut d = ExactDistribution::new(2);
        d.add(&[10, 100]);
        d.add(&[100, 10]);
        assert_eq!(d.total(), 2);
        assert_eq!(d.distinct(), 2);
        assert!((d.fraction(&[10, 100]) - 0.5).abs() < 1e-12);
        // Σ f·b·c = 0.5·1000 + 0.5·1000 = 1000 (per |A|=2 elements: 2000 tuples).
        assert!((d.expectation_product(&[0, 1]) - 1000.0).abs() < 1e-9);
        // Σ f·b = 55.
        assert!((d.expectation_product(&[0]) - 55.0).abs() < 1e-9);
        // Σ f (no multipliers) = 1.
        assert!((d.expectation_product(&[]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_adds_accumulate() {
        let mut d = ExactDistribution::new(1);
        d.add_weighted(&[3], 4);
        d.add_weighted(&[3], 1);
        d.add(&[7]);
        assert_eq!(d.total(), 6);
        assert_eq!(d.distinct(), 2);
        assert!((d.fraction(&[3]) - 5.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn marginal_projects_and_sums() {
        let mut d = ExactDistribution::new(3);
        d.add(&[1, 2, 3]);
        d.add(&[1, 5, 3]);
        d.add(&[2, 2, 3]);
        let m = d.marginal(&[0]);
        assert_eq!(m.dims(), 1);
        assert!((m.fraction(&[1]) - 2.0 / 3.0).abs() < 1e-12);
        // Marginal in swapped order.
        let m2 = d.marginal(&[2, 0]);
        assert!((m2.fraction(&[3, 2]) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn zero_dim_distribution() {
        let mut d = ExactDistribution::new(0);
        d.add(&[]);
        d.add(&[]);
        assert!((d.expectation_product(&[]) - 1.0).abs() < 1e-12);
        assert!((d.fraction(&[]) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_dims_panics() {
        let mut d = ExactDistribution::new(2);
        d.add(&[1]);
    }
}
