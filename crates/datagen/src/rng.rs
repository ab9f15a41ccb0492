//! Deterministic random sampling helpers used by the data generators.

use qob_storage::encoding::fnv1a64;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Creates a deterministic RNG for a named generation stream.
///
/// Every table/column combination uses its own stream so that changing the
/// generation order of one table does not perturb the others.
pub fn stream_rng(seed: u64, stream: &str) -> StdRng {
    // Mix the stream name into the seed with FNV-1a so streams are independent.
    StdRng::seed_from_u64(seed ^ fnv1a64(stream.as_bytes()))
}

/// A zipf-like sampler over `0..n` with exponent `s`.
///
/// Rank 0 is the most popular item.  Sampling uses the inverse-CDF over the
/// precomputed normalised weights, which is exact and O(log n) per sample.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Creates a sampler over `n` items with skew exponent `s` (0 = uniform,
    /// 1 = classic zipf, larger = more skewed).
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf over zero items");
        let mut weights: Vec<f64> = (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        for w in &mut weights {
            acc += *w / total;
            *w = acc;
        }
        // Guard against floating point drift.
        if let Some(last) = weights.last_mut() {
            *last = 1.0;
        }
        Zipf { cdf: weights }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True if there are no items (never the case for a constructed sampler).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Samples a rank in `0..n`.
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Samples an index according to integer weights.
///
/// # Panics
/// Panics if `weights` is empty or sums to zero.
pub fn weighted_choice(rng: &mut impl Rng, weights: &[u32]) -> usize {
    let total: u64 = weights.iter().map(|w| *w as u64).sum();
    assert!(total > 0, "weighted_choice needs a positive total weight");
    let mut x = rng.gen_range(0..total);
    for (i, &w) in weights.iter().enumerate() {
        let w = w as u64;
        if x < w {
            return i;
        }
        x -= w;
    }
    weights.len() - 1
}

/// Returns true with probability `p`.
pub fn chance(rng: &mut impl Rng, p: f64) -> bool {
    rng.gen::<f64>() < p
}

/// Samples a count with the given mean using a skewed (geometric-ish)
/// distribution: most items get a small count, a few get a large one.
pub fn skewed_count(rng: &mut impl Rng, mean: f64, max: usize) -> usize {
    if mean <= 0.0 || max == 0 {
        return 0;
    }
    // Mixture: 80% geometric around mean*0.6, 20% heavy tail around mean*2.6.
    let m = if chance(rng, 0.8) { mean * 0.6 } else { mean * 2.6 };
    let p = 1.0 / (1.0 + m);
    let mut count = 0usize;
    while count < max && !chance(rng, p) {
        count += 1;
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_rng_is_deterministic_and_stream_dependent() {
        let mut a1 = stream_rng(1, "title");
        let mut a2 = stream_rng(1, "title");
        let mut b = stream_rng(1, "cast_info");
        let xs1: Vec<u32> = (0..5).map(|_| a1.gen()).collect();
        let xs2: Vec<u32> = (0..5).map(|_| a2.gen()).collect();
        let ys: Vec<u32> = (0..5).map(|_| b.gen()).collect();
        assert_eq!(xs1, xs2);
        assert_ne!(xs1, ys);
    }

    #[test]
    fn zipf_is_skewed_toward_low_ranks() {
        let z = Zipf::new(100, 1.0);
        assert_eq!(z.len(), 100);
        assert!(!z.is_empty());
        let mut rng = stream_rng(0, "zipf-test");
        let mut counts = vec![0usize; 100];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10], "rank 0 more popular than rank 10");
        assert!(counts[0] > counts[50] * 3, "strong skew toward the head");
        assert!(counts.iter().sum::<usize>() == 20_000);
    }

    #[test]
    fn zipf_with_zero_skew_is_roughly_uniform() {
        let z = Zipf::new(10, 0.0);
        let mut rng = stream_rng(0, "uniform-test");
        let mut counts = vec![0usize; 10];
        for _ in 0..10_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!(c > 700 && c < 1300, "uniform-ish bucket, got {c}");
        }
    }

    #[test]
    fn weighted_choice_respects_weights() {
        let mut rng = stream_rng(0, "wc");
        let weights = [80, 15, 5];
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            counts[weighted_choice(&mut rng, &weights)] += 1;
        }
        assert!(counts[0] > counts[1]);
        assert!(counts[1] > counts[2]);
        assert!(counts[0] > 7_000);
    }

    #[test]
    fn skewed_count_mean_is_close_to_target() {
        let mut rng = stream_rng(0, "sc");
        let n = 20_000;
        let total: usize = (0..n).map(|_| skewed_count(&mut rng, 5.0, 1000)).sum();
        let mean = total as f64 / n as f64;
        assert!(mean > 3.0 && mean < 7.0, "mean {mean} should be near 5");
        assert_eq!(skewed_count(&mut rng, 0.0, 100), 0);
        assert_eq!(skewed_count(&mut rng, 5.0, 0), 0);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = stream_rng(0, "chance");
        assert!(!chance(&mut rng, 0.0));
        assert!(chance(&mut rng, 1.0));
    }

    #[test]
    #[should_panic(expected = "zipf over zero items")]
    fn zipf_zero_items_panics() {
        let _ = Zipf::new(0, 1.0);
    }
}
