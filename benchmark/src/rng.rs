//! The seeded randomness behind every op list: a SplitMix64 generator, a
//! Fisher–Yates shuffle and a Zipf sampler.  Self-contained on purpose — the
//! op list of a seed must not change when the repository's `rand` stand-in
//! does.

/// SplitMix64 (Steele, Lea, Flood): 64 bits of state, full period.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` (one stream per
    /// connection, so connections draw different lists from one seed).
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2⁻⁴⁰ for every
    /// `n` the benchmark uses.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf(s) over ranks `0..n`: rank `k` is drawn with probability
/// proportional to `1 / (k + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    /// Cumulative probabilities, ascending, last entry 1.
    cdf: Vec<f64>,
}

impl Zipf {
    /// A sampler over `n ≥ 1` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n >= 1, "a Zipf sampler needs at least one rank");
        let weights: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        cdf[n - 1] = 1.0;
        Zipf { cdf }
    }

    /// Draws a rank in `0..n`.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_repeats_and_others_differ() {
        let draw = |seed, stream| {
            let mut rng = Rng::new(seed, stream);
            (0..8).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 0), draw(7, 0));
        assert_ne!(draw(7, 0), draw(8, 0));
        assert_ne!(draw(7, 0), draw(7, 1));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut items: Vec<usize> = (0..113).collect();
        Rng::new(1, 0).shuffle(&mut items);
        assert_ne!(items, (0..113).collect::<Vec<_>>());
        items.sort_unstable();
        assert_eq!(items, (0..113).collect::<Vec<_>>());
    }

    #[test]
    fn zipf_stays_in_bounds_and_favours_low_ranks() {
        let zipf = Zipf::new(512, 1.0);
        let mut rng = Rng::new(42, 0);
        let mut counts = vec![0u32; 512];
        for _ in 0..100_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        // H(512) ≈ 6.82, so rank 0 draws ≈ 14.7 % and rank 1 half of that.
        assert!((13_500..16_000).contains(&counts[0]), "rank 0 drew {}", counts[0]);
        assert!((6_500..8_200).contains(&counts[1]), "rank 1 drew {}", counts[1]);
        assert!(counts[0] > counts[9] && counts[9] > counts[99]);
        // One rank only: every draw is rank 0.
        let single = Zipf::new(1, 1.0);
        assert!((0..100).all(|_| single.sample(&mut rng) == 0));
    }

    #[test]
    fn unit_and_below_respect_their_ranges() {
        let mut rng = Rng::new(3, 0);
        for _ in 0..10_000 {
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u));
            assert!(rng.below(7) < 7);
        }
    }
}
