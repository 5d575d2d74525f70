//! Deterministic workload generators.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Seeded generator of benchmark keys and access patterns.
pub struct KeyGen {
    rng: StdRng,
}

impl KeyGen {
    /// A generator with a fixed seed (all experiments default to 42 so runs
    /// are reproducible).
    pub fn new(seed: u64) -> Self {
        KeyGen {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// `n` uniform random 64-bit keys (the paper's insert workload).
    /// Duplicates are possible but vanishingly rare and handled as updates.
    pub fn uniform_keys(&mut self, n: usize) -> Vec<u64> {
        (0..n).map(|_| self.rng.random::<u64>()).collect()
    }

    /// One uniform index in `[0, n)`.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        self.rng.random_range(0..n)
    }

    /// `count` uniform indices in `[0, n)` (the paper's random-access
    /// streams).
    pub fn indices(&mut self, n: usize, count: usize) -> Vec<u32> {
        assert!(n <= u32::MAX as usize, "index space exceeds u32");
        (0..count)
            .map(|_| self.rng.random_range(0..n) as u32)
            .collect()
    }

    /// Sample `count` keys (with replacement) from an existing key set —
    /// the "100 % hits" lookup workload of Figure 7b.
    pub fn hits_from(&mut self, keys: &[u64], count: usize) -> Vec<u64> {
        (0..count)
            .map(|_| keys[self.rng.random_range(0..keys.len())])
            .collect()
    }

    /// Zipf-distributed indices over `[0, n)` with exponent `theta`
    /// (used by the skewed-workload extension experiments).
    pub fn zipf_indices(&mut self, n: usize, theta: f64, count: usize) -> Vec<u32> {
        // Precompute the harmonic normalizer once.
        let h: f64 = (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum();
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 1..=n {
            acc += 1.0 / (i as f64).powf(theta) / h;
            cdf.push(acc);
        }
        // Map ranks to a shuffled identity so hot keys are spread out.
        let mut perm: Vec<u32> = (0..n as u32).collect();
        perm.shuffle(&mut self.rng);
        (0..count)
            .map(|_| {
                let u: f64 = self.rng.random::<f64>();
                let rank = cdf.partition_point(|&c| c < u).min(n - 1);
                perm[rank]
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let a = KeyGen::new(7).uniform_keys(100);
        let b = KeyGen::new(7).uniform_keys(100);
        let c = KeyGen::new(8).uniform_keys(100);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn indices_in_range() {
        let mut g = KeyGen::new(1);
        for i in g.indices(50, 1000) {
            assert!((i as usize) < 50);
        }
    }

    #[test]
    fn hits_only_sample_existing() {
        let mut g = KeyGen::new(2);
        let keys = vec![10, 20, 30];
        for k in g.hits_from(&keys, 100) {
            assert!(keys.contains(&k));
        }
    }

    #[test]
    fn zipf_is_skewed() {
        let mut g = KeyGen::new(3);
        let xs = g.zipf_indices(1000, 1.1, 10_000);
        let mut counts = std::collections::HashMap::new();
        for x in xs {
            *counts.entry(x).or_insert(0usize) += 1;
        }
        let max = counts.values().max().copied().unwrap();
        // The hottest key must dominate vastly over the uniform expectation (10).
        assert!(max > 100, "zipf max count {max} too flat");
    }
}
