//! Batching-invariance properties: splitting a multi-key read into frames
//! — any frames — must never change what the cache returns or stores, and
//! must change total CPU by *exactly* the amortized-RPC accounting
//! identity. The plain `#[test]` cases below enumerate deterministic
//! splits (including adversarial ones from a seeded LCG) so they run under
//! the offline test harness; the `proptest!` block re-states the property
//! for environments with a full proptest.

// The offline `proptest` stub swallows `proptest!` blocks, leaving the
// strategy helpers (and some imports) unreferenced in offline builds.
#![allow(dead_code, unused_imports)]
use dcache::deployment::{batch_counters, kv_catalog, Deployment};
use dcache::{ArchKind, BatchingConfig, DeploymentConfig, ServeOutcome};
use proptest::prelude::*;
use simnet::{SimDuration, SimTime};
use storekit::value::Datum;

const KEYS: i64 = 40;

fn deployment(max_batch: u32) -> Deployment {
    let mut cfg = DeploymentConfig::test_small(ArchKind::Remote);
    cfg.batching = BatchingConfig {
        batch_window_us: 0.0, // explicit batches only; per-call reads stay unbatched
        max_batch,
    };
    let mut d = Deployment::new(cfg, kv_catalog("kv"));
    d.cluster
        .bulk_load(
            "kv",
            (0..KEYS).map(|k| vec![Datum::Int(k), Datum::Payload { len: 256, seed: 0 }]),
        )
        .unwrap();
    d
}

/// app + remote-cache CPU, in exact nanoseconds.
fn cpu_ns(d: &Deployment) -> u64 {
    d.app_cpu_total().total().as_nanos() + d.cache_cpu_total().total().as_nanos()
}

/// Exact per-follower saving: the fixed per-RPC cost minus the per-key
/// marginal, on both message sides of both meters (app + cache node).
fn saved_per_follower_ns(d: &Deployment) -> u64 {
    let cost = d.config.app_cost;
    SimDuration::from_micros_f64(4.0 * (cost.rpc_fixed_us - cost.rpc_batched_key_us)).as_nanos()
}

/// Serve `keys` through `serve_kv_read_batch` in the given frame splits
/// (slices of `keys`), returning outcomes in key order.
fn serve_split(d: &mut Deployment, splits: &[Vec<i64>], at: SimTime) -> Vec<ServeOutcome> {
    let mut outs = Vec::new();
    for frame in splits {
        outs.extend(d.serve_kv_read_batch("kv", frame, at).unwrap());
    }
    outs
}

/// Compare semantic outcome fields; latency is excluded on purpose —
/// followers' cheaper RPC legs legitimately shorten it.
fn assert_same_outcomes(a: &[ServeOutcome], b: &[ServeOutcome]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.cache_hit, y.cache_hit);
        assert_eq!(x.bytes, y.bytes);
        assert_eq!(x.seed, y.seed);
        assert_eq!(x.version, y.version);
        assert_eq!(x.not_found, y.not_found);
        assert_eq!(x.degraded, y.degraded);
    }
}

/// The invariant: against a sequential (batching-off) baseline over the
/// same keys, a split into frames leaves every outcome identical and
/// reduces CPU by exactly `followers × saved_per_follower`.
fn check_split(splits: &[Vec<i64>]) {
    let keys: Vec<i64> = splits.iter().flatten().copied().collect();

    let mut seq = deployment(1); // max_batch 1 ⇒ batching disabled
    let mut bat = deployment(64);

    // Identical warmup so both sides hit the same cache state.
    for (i, &k) in keys.iter().enumerate() {
        let at = SimTime::from_nanos((i as u64 + 1) * 1_000_000);
        seq.serve_kv_read("kv", k, at).unwrap();
        bat.serve_kv_read("kv", k, at).unwrap();
    }
    seq.reset_metrics();
    bat.reset_metrics();

    let at = SimTime::from_nanos(1_000_000_000);
    let seq_outs: Vec<ServeOutcome> = keys
        .iter()
        .map(|&k| seq.serve_kv_read("kv", k, at).unwrap())
        .collect();
    let bat_outs = serve_split(&mut bat, splits, at);

    assert_same_outcomes(&seq_outs, &bat_outs);

    let frames = bat.metrics.counter_value(batch_counters::RPC_BATCHES);
    let carried = bat.metrics.counter_value(batch_counters::BATCHED_RPC_KEYS);
    assert_eq!(
        carried,
        keys.len() as u64,
        "every key rides exactly one frame"
    );
    let followers = carried - frames;
    assert_eq!(
        cpu_ns(&seq) - cpu_ns(&bat),
        followers * saved_per_follower_ns(&bat),
        "CPU must differ by exactly the amortized-RPC constant per follower"
    );
    // The histogram accounts for every key exactly once.
    let histo: u64 = bat
        .batch_size_counts
        .iter()
        .map(|(&s, &c)| s as u64 * c)
        .sum();
    assert_eq!(histo, carried);
}

#[test]
fn singleton_frames_match_sequential_with_zero_savings() {
    let splits: Vec<Vec<i64>> = (0..KEYS).map(|k| vec![k]).collect();
    check_split(&splits);
}

#[test]
fn one_big_frame_matches_sequential() {
    check_split(&[(0..KEYS).collect::<Vec<i64>>()]);
}

#[test]
fn uneven_frames_match_sequential() {
    check_split(&[
        (0..3).collect(),
        (3..4).collect(),
        (4..17).collect(),
        (17..40).collect(),
    ]);
}

#[test]
fn lcg_random_splits_match_sequential() {
    // A few dozen adversarial splits from a deterministic LCG: random frame
    // boundaries, shuffled key order, duplicate keys across frames.
    let mut state = 0x2545f4914f6cdd1du64;
    let mut rng = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    for _case in 0..24 {
        // Shuffled key list (Fisher–Yates with the LCG), possibly with dups.
        let mut keys: Vec<i64> = (0..KEYS).collect();
        for i in (1..keys.len()).rev() {
            keys.swap(i, rng() % (i + 1));
        }
        if rng() % 3 == 0 {
            let dup = keys[rng() % keys.len()];
            keys.push(dup);
        }
        // Random frame boundaries.
        let mut splits: Vec<Vec<i64>> = Vec::new();
        let mut rest = keys.as_slice();
        while !rest.is_empty() {
            let take = (rng() % 9 + 1).min(rest.len());
            splits.push(rest[..take].to_vec());
            rest = &rest[take..];
        }
        check_split(&splits);
    }
}

#[test]
fn batch_cap_splits_oversized_frames() {
    // A frame larger than max_batch must be chunked, never over-filled.
    let mut d = deployment(8);
    for k in 0..KEYS {
        d.serve_kv_read("kv", k, SimTime::from_nanos((k as u64 + 1) * 1_000_000))
            .unwrap();
    }
    d.reset_metrics();
    let keys: Vec<i64> = (0..KEYS).collect();
    let outs = d
        .serve_kv_read_batch("kv", &keys, SimTime::from_nanos(1_000_000_000))
        .unwrap();
    assert!(outs.iter().all(|o| o.cache_hit));
    assert!(
        d.batch_size_counts.keys().all(|&s| s <= 8),
        "no frame may exceed the cap: {:?}",
        d.batch_size_counts
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The same invariant over arbitrary frame splits (runs where the full
    /// proptest crate is available; compile-checked offline).
    #[test]
    fn any_split_matches_sequential(
        sizes in proptest::collection::vec(1usize..12, 1..12),
    ) {
        let mut splits = Vec::new();
        let mut next = 0i64;
        for s in sizes {
            let end = (next + s as i64).min(KEYS);
            if next >= end {
                break;
            }
            splits.push((next..end).collect::<Vec<i64>>());
            next = end;
        }
        if !splits.is_empty() {
            check_split(&splits);
        }
    }
}
