//! SHARDS profiler vs exact Mattson oracle.
//!
//! The profiler's whole claim is that a spatially-sampled substream
//! estimates the full stream's miss-ratio curve. This suite feeds the
//! same deterministic traces to [`elastic::ShardsProfiler`] at several
//! sampling rates and to [`cachekit::StackDistance`] (the exact oracle),
//! then compares the curves pointwise at a spread of cache sizes.
//!
//! Tolerances follow the SHARDS paper's findings: error grows as the rate
//! falls, and we probe rates down to 1% on Zipf-like and scan traces.
//! Like `cachekit`'s oracle tests, a deterministic driver always runs and
//! a `proptest!` block adds exploration when the real crate is available
//! (the offline stub swallows it).

// The offline `proptest` stub swallows `proptest!` blocks, leaving the
// strategy helpers (and some imports) unreferenced in offline builds.
#![allow(dead_code, unused_imports)]
use cachekit::ring::splitmix64;
use cachekit::StackDistance;
use elastic::{ShardsConfig, ShardsProfiler};
use proptest::prelude::*;

fn key_bytes(k: u64) -> Vec<u8> {
    format!("key-{k}").into_bytes()
}

/// Zipf-ish trace via inverse-power mapping of a uniform draw: heavily
/// skewed toward low key ids, like cache workloads.
fn skewed_trace(seed: u64, universe: u64, len: usize) -> Vec<u64> {
    let mut state = seed;
    (0..len)
        .map(|_| {
            let r = splitmix64(state_mix(&mut state));
            let u = (r >> 11) as f64 / (1u64 << 53) as f64; // [0,1)
                                                            // rank ∝ u^3 concentrates ~50% of draws on ~12% of keys.
            ((u * u * u) * universe as f64) as u64
        })
        .collect()
}

fn state_mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    *state
}

/// Max |sampled - exact| miss-ratio difference over probe sizes.
fn max_curve_error(trace: &[u64], rate: f64, probes: &[u64]) -> f64 {
    let mut profiler = ShardsProfiler::new(ShardsConfig {
        sampling_rate: rate,
        max_tracked_keys: 64 << 10,
    });
    let mut oracle = StackDistance::new();
    for &k in trace {
        profiler.observe(&key_bytes(k));
        oracle.access(k);
    }
    let live = profiler.curve();
    let exact = oracle.curve();
    probes
        .iter()
        .map(|&c| (live.miss_ratio(c) - exact.miss_ratio(c)).abs())
        .fold(0.0, f64::max)
}

const PROBES: &[u64] = &[1, 4, 16, 64, 256, 1_024, 4_096, 16_384, 1 << 20];

#[test]
fn full_rate_is_exact() {
    let trace = skewed_trace(0xE1A5, 5_000, 60_000);
    let err = max_curve_error(&trace, 1.0, PROBES);
    assert!(err < 1e-9, "rate 1.0 must reproduce Mattson exactly: {err}");
}

#[test]
fn sampled_curves_stay_within_tolerance_across_rates() {
    // SHARDS reports *mean* absolute error well under 0.02 at 1% sampling;
    // we check the *max* over probes including very small caches, where
    // distance quantization (multiples of 1/R) dominates — hence looser
    // bounds that still tighten as the rate rises.
    let cases = [(0.5, 0.05), (0.25, 0.05), (0.1, 0.06), (0.01, 0.10)];
    for seed in [0xA11CE, 0xB0B, 0xC0FFEE] {
        let trace = skewed_trace(seed, 20_000, 120_000);
        for &(rate, tol) in &cases {
            let err = max_curve_error(&trace, rate, PROBES);
            assert!(
                err < tol,
                "seed={seed:#x} rate={rate}: max curve error {err} > {tol}"
            );
        }
    }
}

#[test]
fn cyclic_scan_curve_survives_sampling() {
    // LRU's worst case: a cyclic scan has a curve that is a step at the
    // working-set size. Sampling must preserve the cliff's location.
    let n = 2_000u64;
    let trace: Vec<u64> = (0..12 * n).map(|i| i % n).collect();
    for rate in [1.0, 0.25, 0.1] {
        let mut profiler = ShardsProfiler::new(ShardsConfig {
            sampling_rate: rate,
            max_tracked_keys: 64 << 10,
        });
        for &k in &trace {
            profiler.observe(&key_bytes(k));
        }
        let curve = profiler.curve();
        assert!(
            curve.miss_ratio(n / 2) > 0.9,
            "rate={rate}: below the cliff everything misses"
        );
        assert!(
            curve.miss_ratio(2 * n) < 0.2,
            "rate={rate}: above the cliff the scan hits"
        );
    }
}

#[test]
fn adapted_profiler_still_tracks_the_oracle() {
    // Force heavy rate adaptation with a tiny key budget: the curve must
    // stay a usable estimate even after several halvings.
    let trace = skewed_trace(0xD00D, 30_000, 150_000);
    let mut profiler = ShardsProfiler::new(ShardsConfig {
        sampling_rate: 1.0,
        max_tracked_keys: 2_048,
    });
    let mut oracle = StackDistance::new();
    for &k in &trace {
        profiler.observe(&key_bytes(k));
        oracle.access(k);
    }
    assert!(
        profiler.rate_adaptations() > 0,
        "budget must have forced adaptation"
    );
    let live = profiler.curve();
    let exact = oracle.curve();
    for &c in PROBES {
        let err = (live.miss_ratio(c) - exact.miss_ratio(c)).abs();
        assert!(err < 0.08, "entries={c}: error {err} after adaptation");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Exploratory driver (no-op under the offline proptest stub): any
    /// seed/universe at 25% sampling stays within loose tolerance.
    #[test]
    fn sampled_curve_tracks_oracle(
        seed in 0u64..1_000,
        universe in 500u64..8_000,
    ) {
        let trace = skewed_trace(seed, universe, 60_000);
        let err = max_curve_error(&trace, 0.25, PROBES);
        prop_assert!(err < 0.06, "err={err}");
    }
}
