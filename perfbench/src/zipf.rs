//! Seeded request-mix generation: a SplitMix64 stream and a Zipf sampler.
//!
//! Both are defined here rather than taken from `rand` so the traffic a
//! seed produces cannot change with a dependency.

/// SplitMix64: a small, fast, fully specified 64-bit generator.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream starting from `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[0, 1)` with 53 bits of resolution.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize % n
    }
}

/// Zipf(`s`) over ranks `0..n`: rank `k` has weight `1 / (k + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n > 0` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "a Zipf distribution needs at least one rank");
        let weights: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// A seeded permutation of `0..n` (Fisher–Yates), so which catalog entry is
/// hot depends on the seed.
pub fn permutation(n: usize, rng: &mut SplitMix64) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.below(i + 1));
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draws(seed: u64) -> Vec<usize> {
        let z = Zipf::new(72, 1.1);
        let mut rng = SplitMix64::new(seed);
        (0..500).map(|_| z.sample(&mut rng)).collect()
    }

    #[test]
    fn same_seed_same_draws() {
        assert_eq!(draws(7), draws(7));
        assert_ne!(draws(7), draws(8));
    }

    #[test]
    fn draws_are_in_range_and_skewed() {
        let d = draws(1);
        assert!(d.iter().all(|&r| r < 72));
        let top = d.iter().filter(|&&r| r == 0).count();
        let tail = d.iter().filter(|&&r| r == 71).count();
        assert!(
            top > 5 * tail.max(1),
            "rank 0 drawn {top}x, rank 71 {tail}x"
        );
    }

    #[test]
    fn permutation_is_a_seeded_bijection() {
        let p = permutation(72, &mut SplitMix64::new(3));
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..72).collect::<Vec<_>>());
        assert_eq!(p, permutation(72, &mut SplitMix64::new(3)));
    }
}
