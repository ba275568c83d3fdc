//! Key-value request streams — the synthetic workload of §5.2.
//!
//! A [`KvWorkload`] is a deterministic iterator of [`KvRequest`]s: Zipfian
//! key choice, Bernoulli read/write choice, and per-key stable value sizes.
//! The paper's synthetic configuration is 100K keys, α = 1.2, read ratio
//! swept 50–99%, value size swept 1 KB–1 MB ([`KvWorkloadConfig::paper_synthetic`]).

use crate::sizes::SizeDist;
use crate::zipf::{scramble, ZipfSampler};
use cachekit::ring::splitmix64;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum KvOp {
    Read,
    Write,
}

/// One request against the key-value service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvRequest {
    pub op: KvOp,
    /// Key id in `[0, keys)`.
    pub key: u64,
    /// The value size associated with this key.
    pub value_bytes: u64,
}

/// Workload parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KvWorkloadConfig {
    pub keys: u64,
    pub alpha: f64,
    /// Fraction of requests that are reads, in [0, 1].
    pub read_ratio: f64,
    pub sizes: SizeDist,
    pub seed: u64,
    /// Popularity churn: every `period` requests the rank→key mapping is
    /// re-scrambled, rotating the hot set — the "dashboards over the last T
    /// minutes" pattern from the paper's §2.2 motivation. `None` = the
    /// standard static popularity of the synthetic sweeps.
    pub churn_period: Option<u64>,
}

impl KvWorkloadConfig {
    /// §5.2's synthetic workload: 100K keys, Zipf(1.2), given read ratio and
    /// fixed value size.
    pub fn paper_synthetic(read_ratio: f64, value_bytes: u64, seed: u64) -> Self {
        KvWorkloadConfig {
            keys: 100_000,
            alpha: 1.2,
            read_ratio,
            sizes: SizeDist::Fixed(value_bytes),
            seed,
            churn_period: None,
        }
    }

    /// Enable popularity churn with the given period (in requests).
    pub fn with_churn(mut self, period: u64) -> Self {
        self.churn_period = Some(period.max(1));
        self
    }

    pub fn build(&self) -> KvWorkload {
        KvWorkload {
            zipf: ZipfSampler::new(self.keys, self.alpha),
            sizes: self.sizes.clone(),
            read_ratio: self.read_ratio.clamp(0.0, 1.0),
            rng: StdRng::seed_from_u64(self.seed),
            seed: self.seed,
            churn_period: self.churn_period,
            emitted: 0,
            epoch: 0,
            epoch_override: None,
        }
    }

    /// The size of `key`'s value under this configuration.
    pub fn size_of(&self, key: u64) -> u64 {
        self.sizes.size_of(key, self.seed)
    }

    /// Mean value size (for capacity↔entries conversions).
    pub fn mean_value_bytes(&self) -> f64 {
        self.sizes.mean_over_keys(self.keys, self.seed)
    }
}

/// The request stream. Infinite; take as many as the experiment needs.
pub struct KvWorkload {
    zipf: ZipfSampler,
    sizes: SizeDist,
    read_ratio: f64,
    rng: StdRng,
    seed: u64,
    churn_period: Option<u64>,
    emitted: u64,
    epoch: u64,
    epoch_override: Option<u64>,
}

impl KvWorkload {
    /// The current churn epoch (0 when churn is disabled).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Pin the churn epoch from outside — how a time-driven
    /// [`crate::tenants::ChurnSchedule`] rotates the hot set on the
    /// simulator's clock rather than a request count. Consumes no RNG
    /// draws, so flipping it mid-stream never perturbs the request
    /// sequence beyond the rank→key mapping it exists to change.
    pub fn set_epoch(&mut self, epoch: u64) {
        self.epoch_override = Some(epoch);
        self.epoch = epoch;
    }

    /// Override the read ratio mid-stream (invalidation storms). RNG-
    /// neutral: the Bernoulli draw consumes one draw regardless of the
    /// ratio, so the key sequence is untouched.
    pub fn set_read_ratio(&mut self, read_ratio: f64) {
        self.read_ratio = read_ratio.clamp(0.0, 1.0);
    }

    pub fn next_request(&mut self) -> KvRequest {
        if let Some(epoch) = self.epoch_override {
            self.epoch = epoch;
        } else if let Some(period) = self.churn_period {
            let epoch = self.emitted / period;
            self.epoch = epoch;
        }
        self.emitted += 1;
        let rank = self.zipf.sample(&mut self.rng);
        // Under churn, each epoch permutes rank→key differently, so a new
        // set of keys becomes hot while sizes (a key property) are stable.
        let key = if self.epoch == 0 {
            scramble(rank, self.zipf.n())
        } else {
            scramble(rank ^ splitmix64(self.epoch), self.zipf.n())
        };
        let op = if self.rng.gen_bool(self.read_ratio) {
            KvOp::Read
        } else {
            KvOp::Write
        };
        KvRequest {
            op,
            key,
            value_bytes: self.sizes.size_of(key, self.seed),
        }
    }
}

impl Iterator for KvWorkload {
    type Item = KvRequest;
    fn next(&mut self) -> Option<KvRequest> {
        Some(self.next_request())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_deterministic() {
        let a: Vec<KvRequest> = KvWorkloadConfig::paper_synthetic(0.9, 1024, 5)
            .build()
            .take(50)
            .collect();
        let b: Vec<KvRequest> = KvWorkloadConfig::paper_synthetic(0.9, 1024, 5)
            .build()
            .take(50)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn read_ratio_is_respected() {
        let reqs: Vec<KvRequest> = KvWorkloadConfig::paper_synthetic(0.93, 1024, 1)
            .build()
            .take(20_000)
            .collect();
        let reads = reqs.iter().filter(|r| r.op == KvOp::Read).count();
        let ratio = reads as f64 / reqs.len() as f64;
        assert!((ratio - 0.93).abs() < 0.01, "read ratio {ratio}");
    }

    #[test]
    fn keys_are_skewed() {
        let reqs: Vec<KvRequest> = KvWorkloadConfig::paper_synthetic(1.0, 1024, 2)
            .build()
            .take(50_000)
            .collect();
        let mut counts = std::collections::HashMap::new();
        for r in &reqs {
            *counts.entry(r.key).or_insert(0u64) += 1;
        }
        let mut freq: Vec<u64> = counts.values().copied().collect();
        freq.sort_unstable_by(|a, b| b.cmp(a));
        let top100: u64 = freq.iter().take(100).sum();
        assert!(
            top100 as f64 / reqs.len() as f64 > 0.5,
            "α=1.2 should focus >50% of traffic on the hottest 100 keys"
        );
    }

    #[test]
    fn value_sizes_are_stable_per_key() {
        let cfg = KvWorkloadConfig {
            keys: 1000,
            alpha: 1.0,
            read_ratio: 0.5,
            sizes: SizeDist::Uniform {
                lo: 100,
                hi: 10_000,
            },
            seed: 9,
            churn_period: None,
        };
        let reqs: Vec<KvRequest> = cfg.build().take(10_000).collect();
        let mut seen = std::collections::HashMap::new();
        for r in reqs {
            let prev = seen.insert(r.key, r.value_bytes);
            if let Some(p) = prev {
                assert_eq!(p, r.value_bytes, "key {} changed size", r.key);
            }
            assert_eq!(r.value_bytes, cfg.size_of(r.key));
        }
    }

    #[test]
    fn churn_rotates_the_hot_set() {
        let cfg = KvWorkloadConfig::paper_synthetic(1.0, 100, 3).with_churn(20_000);
        let mut wl = cfg.build();
        let hot_keys = |wl: &mut KvWorkload, n: usize| -> std::collections::HashSet<u64> {
            let mut counts = std::collections::HashMap::new();
            for _ in 0..n {
                *counts.entry(wl.next_request().key).or_insert(0u64) += 1;
            }
            let mut v: Vec<(u64, u64)> = counts.into_iter().collect();
            v.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
            v.into_iter().take(50).map(|(k, _)| k).collect()
        };
        let epoch0 = hot_keys(&mut wl, 20_000);
        assert_eq!(wl.epoch(), 0);
        let epoch1 = hot_keys(&mut wl, 20_000);
        assert!(wl.epoch() >= 1);
        let overlap = epoch0.intersection(&epoch1).count();
        assert!(
            overlap < 10,
            "hot sets must rotate almost completely: overlap {overlap}/50"
        );
    }

    #[test]
    fn no_churn_keeps_hot_set_stable() {
        let cfg = KvWorkloadConfig::paper_synthetic(1.0, 100, 3);
        let mut wl = cfg.build();
        let hot = |wl: &mut KvWorkload, n: usize| -> std::collections::HashSet<u64> {
            let mut counts = std::collections::HashMap::new();
            for _ in 0..n {
                *counts.entry(wl.next_request().key).or_insert(0u64) += 1;
            }
            let mut v: Vec<(u64, u64)> = counts.into_iter().collect();
            v.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
            v.into_iter().take(50).map(|(k, _)| k).collect()
        };
        let a = hot(&mut wl, 20_000);
        let b = hot(&mut wl, 20_000);
        assert!(
            a.intersection(&b).count() > 35,
            "static popularity must persist"
        );
    }

    #[test]
    fn extreme_read_ratios() {
        let all_reads: Vec<KvRequest> = KvWorkloadConfig::paper_synthetic(1.0, 10, 1)
            .build()
            .take(1000)
            .collect();
        assert!(all_reads.iter().all(|r| r.op == KvOp::Read));
        let all_writes: Vec<KvRequest> = KvWorkloadConfig::paper_synthetic(0.0, 10, 1)
            .build()
            .take(1000)
            .collect();
        assert!(all_writes.iter().all(|r| r.op == KvOp::Write));
    }
}
