//! Meta / CacheLib-style workload synthesizer.
//!
//! The paper uses the open-source Meta traces [CacheLib, OSDI '20]: ≈30%
//! writes and a median value size around 10 bytes with a long tail, over a
//! highly skewed key popularity. The raw traces are not redistributable
//! here, so this module synthesizes a stream matching those published
//! aggregates — the only properties the paper's cost results consume.

use crate::kv::KvWorkloadConfig;
use crate::sizes::SizeDist;

/// Keyspace used for the Meta-style runs.
pub const META_KEYS: u64 = 1_000_000;

/// Value-size mixture matching the published percentiles: tiny values
/// dominate (median ≈10 B), with a tail reaching tens of KB.
pub fn meta_size_dist() -> SizeDist {
    SizeDist::Discrete(vec![
        (4, 0.20),  // counters / flags
        (10, 0.35), // median bucket
        (40, 0.20),
        (150, 0.12),
        (600, 0.08),
        (4_096, 0.04),
        (65_536, 0.01), // rare large objects
    ])
}

/// The Meta-style workload: 70% reads / 30% writes, skewed keys, tiny values.
pub fn meta_workload(seed: u64) -> KvWorkloadConfig {
    KvWorkloadConfig {
        keys: META_KEYS,
        alpha: 1.05,
        read_ratio: 0.70,
        sizes: meta_size_dist(),
        seed,
        churn_period: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::KvOp;

    #[test]
    fn read_write_mix_matches_published_stats() {
        let reqs: Vec<_> = meta_workload(1).build().take(50_000).collect();
        let writes = reqs.iter().filter(|r| r.op == KvOp::Write).count() as f64;
        let frac = writes / reqs.len() as f64;
        assert!((frac - 0.30).abs() < 0.01, "write fraction {frac}");
    }

    #[test]
    fn median_value_size_is_about_ten_bytes() {
        let mut sizes: Vec<u64> = (0..50_000u64)
            .map(|k| meta_size_dist().size_of(k, 1))
            .collect();
        sizes.sort_unstable();
        let median = sizes[sizes.len() / 2];
        assert!(
            (4..=40).contains(&median),
            "median {median} not in the ~10B regime"
        );
        // tail exists
        assert!(*sizes.last().unwrap() >= 4_096);
    }

    #[test]
    fn mean_size_is_small_but_above_median() {
        let mean = meta_workload(2).mean_value_bytes();
        assert!(mean > 50.0 && mean < 2_000.0, "mean {mean}");
    }
}
