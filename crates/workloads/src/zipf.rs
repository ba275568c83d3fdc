//! O(1) Zipfian sampling (Gray et al., SIGMOD '94) with key scrambling.
//!
//! `sample` draws a *rank* in `[0, n)` where rank 0 is the hottest;
//! `sample_key` additionally scrambles ranks into key ids with a stable
//! 64-bit mix, so key ids carry no popularity information (hot keys are
//! spread uniformly over the keyspace, as in YCSB's "scrambled zipfian").

use cachekit::ring::splitmix64;
use rand::Rng;

/// Zipf(α) sampler over `n` items.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    n: u64,
    alpha: f64,
    zeta_n: f64,
    theta_denom: f64, // 1 - alpha, cached
    eta: f64,
}

impl ZipfSampler {
    /// Build a sampler. `alpha` must be positive and ≠ 1 is handled via the
    /// generalized-harmonic formulation (α = 1 works too).
    pub fn new(n: u64, alpha: f64) -> Self {
        assert!(n > 0, "zipf over empty keyspace");
        assert!(alpha > 0.0, "alpha must be positive");
        let zeta_n = Self::zeta(n, alpha);
        let zeta_2 = Self::zeta(2.min(n), alpha);
        let theta_denom = 1.0 - alpha;
        let eta = if (theta_denom).abs() < 1e-12 {
            0.0 // unused in the α≈1 branch
        } else {
            (1.0 - (2.0 / n as f64).powf(theta_denom)) / (1.0 - zeta_2 / zeta_n)
        };
        ZipfSampler {
            n,
            alpha,
            zeta_n,
            theta_denom,
            eta,
        }
    }

    /// Generalized harmonic number H_{n,α}. O(n) once at construction; for
    /// the 100K–10M keyspaces here that is microseconds.
    fn zeta(n: u64, alpha: f64) -> f64 {
        (1..=n).map(|i| (i as f64).powf(-alpha)).sum()
    }

    pub fn n(&self) -> u64 {
        self.n
    }

    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Draw a rank in `[0, n)`; rank 0 is most popular.
    pub fn sample(&self, rng: &mut impl Rng) -> u64 {
        if self.n == 1 {
            return 0;
        }
        let u: f64 = rng.gen();
        let uz = u * self.zeta_n;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.alpha) {
            return 1;
        }
        if self.theta_denom.abs() < 1e-12 {
            // α = 1: invert the harmonic CDF approximately.
            let rank = (self.n as f64).powf(u * self.zeta_n / self.zeta_n.max(1e-300));
            // fall through to the clamped generic formula below when odd
            let r = rank as u64;
            return r.min(self.n - 1);
        }
        let rank = (self.n as f64) * (self.eta * u - self.eta + 1.0).powf(1.0 / self.theta_denom);
        (rank as u64).min(self.n - 1)
    }

    /// Draw a scrambled key id in `[0, n)`.
    pub fn sample_key(&self, rng: &mut impl Rng) -> u64 {
        scramble(self.sample(rng), self.n)
    }

    /// The exact probability of a given rank (for analytic cross-checks).
    pub fn rank_probability(&self, rank: u64) -> f64 {
        ((rank + 1) as f64).powf(-self.alpha) / self.zeta_n
    }

    /// Access to ζ(2,α)/ζ(n,α) internals for tests.
    pub fn head_mass(&self, top: u64) -> f64 {
        (1..=top.min(self.n))
            .map(|i| (i as f64).powf(-self.alpha))
            .sum::<f64>()
            / self.zeta_n
    }
}

/// Bijective-ish scramble of a rank into a key id in `[0, n)`. (Hash then
/// mod; collisions merely permute popularity among keys, preserving the
/// overall popularity *distribution*, which is what the experiments need.)
pub fn scramble(rank: u64, n: u64) -> u64 {
    splitmix64(
        rank.wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(0x1234_5678),
    ) % n
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn frequencies(alpha: f64, n: u64, draws: usize) -> Vec<u64> {
        let z = ZipfSampler::new(n, alpha);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = vec![0u64; n as usize];
        for _ in 0..draws {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        counts
    }

    #[test]
    fn rank_zero_is_most_popular() {
        let counts = frequencies(1.2, 1000, 200_000);
        assert!(counts[0] > counts[1]);
        assert!(counts[0] > counts[10]);
        assert!(counts[0] > counts[100]);
    }

    #[test]
    fn empirical_matches_analytic_head_mass() {
        let n = 10_000u64;
        let z = ZipfSampler::new(n, 1.2);
        let counts = frequencies(1.2, n, 400_000);
        let head_total: u64 = counts[..100].iter().sum();
        let empirical = head_total as f64 / 400_000.0;
        let analytic = z.head_mass(100);
        assert!(
            (empirical - analytic).abs() < 0.02,
            "head mass: empirical {empirical} vs analytic {analytic}"
        );
    }

    #[test]
    fn alpha_controls_skew() {
        let steep = frequencies(1.4, 1000, 100_000);
        let flat = frequencies(0.6, 1000, 100_000);
        let head = |c: &[u64]| c[..10].iter().sum::<u64>() as f64 / 100_000.0;
        assert!(head(&steep) > head(&flat) + 0.2);
    }

    #[test]
    fn samples_stay_in_range() {
        for alpha in [0.5, 0.99, 1.0, 1.2, 2.0] {
            let z = ZipfSampler::new(100, alpha);
            let mut rng = StdRng::seed_from_u64(1);
            for _ in 0..10_000 {
                assert!(z.sample(&mut rng) < 100);
                assert!(z.sample_key(&mut rng) < 100);
            }
        }
    }

    #[test]
    fn single_key_space_always_samples_zero() {
        let z = ZipfSampler::new(1, 1.2);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(z.sample(&mut rng), 0);
    }

    #[test]
    fn scramble_spreads_hot_ranks() {
        let n = 10_000;
        let hot: Vec<u64> = (0..10).map(|r| scramble(r, n)).collect();
        // Hot keys should not be clustered in id space.
        let min = *hot.iter().min().unwrap();
        let max = *hot.iter().max().unwrap();
        assert!(max - min > n / 4, "hot keys clustered: {hot:?}");
        // And scrambling is deterministic.
        assert_eq!(scramble(5, n), scramble(5, n));
    }

    #[test]
    fn rank_probabilities_normalize() {
        let z = ZipfSampler::new(500, 1.2);
        let total: f64 = (0..500).map(|r| z.rank_probability(r)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn same_seed_same_stream() {
        let z = ZipfSampler::new(1000, 1.2);
        let draw = |seed| -> Vec<u64> {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..100).map(|_| z.sample_key(&mut rng)).collect()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
    }
}
