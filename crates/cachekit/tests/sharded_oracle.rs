//! Oracle property tests for [`cachekit::ShardedCache`].
//!
//! The oracle is deliberately naive: one flat list of resident entries per
//! shard with LRU recency order, routed by an independently-constructed
//! [`HashRing`] with the same parameters. Every observable of every
//! operation — hit/miss per get, [`InsertOutcome`] (including how many
//! entries each insert evicted), remove results, per-shard byte usage and
//! the aggregate [`CacheStats`] counters — must match the real sharded
//! cache operation-for-operation under arbitrary interleavings.
//!
//! Two drivers feed the same checker: a deterministic splitmix64 trace
//! generator that always runs (the vendored offline proptest stub swallows
//! `proptest!` blocks), and a `proptest!` block that adds shrinking and
//! broader exploration when the real crate is available.

// The offline `proptest` stub swallows `proptest!` blocks, leaving the
// strategy helpers (and some imports) unreferenced in offline builds.
#![allow(dead_code, unused_imports)]
use cachekit::cache::ENTRY_OVERHEAD_BYTES;
use cachekit::{CacheStats, HashRing, InsertOutcome, PolicyKind, ShardedCache};
use proptest::prelude::*;
use std::collections::VecDeque;

const KEY_UNIVERSE: u8 = 48;
const PER_SHARD_CAPACITY: u64 = 2_000;

/// Flat per-shard LRU deques as a reference model of `ShardedCache` with
/// `PolicyKind::Lru` and no TTLs. Front of each deque = most recent.
struct ShardedOracle {
    shards: Vec<VecDeque<(Vec<u8>, u64, u32)>>, // (key, charge, value)
    ring: HashRing,
    per_shard_capacity: u64,
    stats: CacheStats,
}

impl ShardedOracle {
    fn new(shard_count: u32, per_shard_capacity: u64) -> Self {
        ShardedOracle {
            shards: (0..shard_count).map(|_| VecDeque::new()).collect(),
            // Same vnode count ShardedCache::new uses, so routing agrees.
            ring: HashRing::with_shards(shard_count, 128),
            per_shard_capacity,
            stats: CacheStats::default(),
        }
    }

    fn owner(&self, key: &[u8]) -> usize {
        self.ring.shard_for(key).expect("ring has shards") as usize
    }

    fn shard_used(&self, shard: usize) -> u64 {
        self.shards[shard].iter().map(|&(_, c, _)| c).sum()
    }

    fn used(&self) -> u64 {
        (0..self.shards.len()).map(|s| self.shard_used(s)).sum()
    }

    fn contains(&self, key: &[u8]) -> bool {
        self.shards[self.owner(key)]
            .iter()
            .any(|(k, _, _)| k == key)
    }

    fn get(&mut self, key: &[u8]) -> Option<u32> {
        let shard = self.owner(key);
        let deque = &mut self.shards[shard];
        if let Some(pos) = deque.iter().position(|(k, _, _)| k == key) {
            let e = deque.remove(pos).unwrap();
            let value = e.2;
            deque.push_front(e);
            self.stats.hits += 1;
            Some(value)
        } else {
            self.stats.misses += 1;
            None
        }
    }

    fn insert(&mut self, key: &[u8], value: u32, value_bytes: u64) -> InsertOutcome {
        let charge = value_bytes + ENTRY_OVERHEAD_BYTES;
        if charge > self.per_shard_capacity {
            self.stats.rejected += 1;
            return InsertOutcome::TooLarge;
        }
        let shard = self.owner(key);
        let replaced = if let Some(pos) = self.shards[shard].iter().position(|(k, _, _)| k == key) {
            self.shards[shard].remove(pos);
            true
        } else {
            false
        };
        let mut evicted = 0;
        while self.shard_used(shard) + charge > self.per_shard_capacity {
            self.shards[shard].pop_back();
            self.stats.evictions += 1;
            evicted += 1;
        }
        self.shards[shard].push_front((key.to_vec(), charge, value));
        self.stats.inserts += 1;
        if replaced {
            InsertOutcome::Replaced { evicted }
        } else {
            InsertOutcome::Inserted { evicted }
        }
    }

    fn remove(&mut self, key: &[u8]) -> Option<u32> {
        let shard = self.owner(key);
        if let Some(pos) = self.shards[shard].iter().position(|(k, _, _)| k == key) {
            let (_, _, value) = self.shards[shard].remove(pos).unwrap();
            self.stats.invalidations += 1;
            Some(value)
        } else {
            None
        }
    }

    /// Elastic resize: every shard's capacity changes and each over-full
    /// shard evicts from its LRU tail until it fits. Returns evictions.
    fn resize(&mut self, per_shard_capacity: u64) -> u64 {
        self.per_shard_capacity = per_shard_capacity;
        let mut evicted = 0;
        for shard in 0..self.shards.len() {
            while self.shard_used(shard) > per_shard_capacity {
                self.shards[shard].pop_back();
                self.stats.evictions += 1;
                evicted += 1;
            }
        }
        evicted
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Get(u8),
    Insert(u8, u64),
    Remove(u8),
    /// Set every shard's byte capacity (the elastic controller's move).
    Resize(u64),
}

fn key_bytes(k: u8) -> Vec<u8> {
    format!("key{k}").into_bytes()
}

/// Run one trace against both implementations, checking every observable
/// after every operation. Plain asserts so both drivers can share it.
fn check_trace(shard_count: u32, ops: &[Op]) {
    let mut cache: ShardedCache<u32> =
        ShardedCache::new(shard_count, PER_SHARD_CAPACITY, PolicyKind::Lru);
    let mut oracle = ShardedOracle::new(shard_count, PER_SHARD_CAPACITY);

    for (i, op) in ops.iter().enumerate() {
        match *op {
            Op::Get(k) => {
                let key = key_bytes(k);
                assert_eq!(oracle.owner(&key), cache.owner(&key), "routing diverged");
                let real = cache.get(&key, 0).copied();
                let expect = oracle.get(&key);
                assert_eq!(real, expect, "get(key{k}) at op {i}");
            }
            Op::Insert(k, sz) => {
                let key = key_bytes(k);
                let real = cache.insert(&key, i as u32, sz, 0);
                let expect = oracle.insert(&key, i as u32, sz);
                assert_eq!(real, expect, "insert(key{k}, {sz}) at op {i}");
            }
            Op::Remove(k) => {
                let key = key_bytes(k);
                let real = cache.remove(&key);
                let expect = oracle.remove(&key);
                assert_eq!(real, expect, "remove(key{k}) at op {i}");
            }
            Op::Resize(cap) => {
                let real = cache.set_per_shard_capacity(cap);
                let expect = oracle.resize(cap);
                assert_eq!(real.evicted_entries, expect, "resize({cap}) at op {i}");
                assert_eq!(real.migrated_entries, 0, "resize never migrates");
                assert_eq!(cache.total_capacity_bytes(), cap * shard_count as u64);
            }
        }
        assert_eq!(cache.total_used_bytes(), oracle.used(), "bytes at op {i}");
        assert!(cache.total_used_bytes() <= cache.total_capacity_bytes());
    }

    // Aggregate counters must agree exactly (no TTLs => expired is 0 on
    // both sides), and so must per-key residency across the universe.
    assert_eq!(cache.stats(), oracle.stats);
    for k in 0..KEY_UNIVERSE {
        let key = key_bytes(k);
        assert_eq!(
            cache.contains(&key, 0),
            oracle.contains(&key),
            "residency of key{k}"
        );
    }
    let mut summed = CacheStats::default();
    for s in 0..shard_count as usize {
        summed += *cache.shard_stats(s);
    }
    assert_eq!(
        summed,
        cache.stats(),
        "shard stats must partition the aggregate"
    );
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

fn random_trace(seed: u64, len: usize) -> Vec<Op> {
    let mut state = seed;
    (0..len)
        .map(|_| {
            let r = splitmix64(&mut state);
            let key = (r >> 8) as u8 % KEY_UNIVERSE;
            match r % 16 {
                0..=5 => Op::Get(key),
                // Sizes span "many fit" through "one barely fits" through
                // "rejected as too large for a whole shard".
                6..=11 => Op::Insert(key, 1 + (r >> 16) % 2_200),
                12 | 13 => Op::Remove(key),
                // Capacities span "evict almost everything" through "larger
                // than the starting capacity".
                _ => Op::Resize(ENTRY_OVERHEAD_BYTES + (r >> 16) % 3_000),
            }
        })
        .collect()
}

/// Always-running driver: 64 seeds × 400 ops across 1–5 shards.
#[test]
fn sharded_cache_matches_flat_oracle_on_random_traces() {
    for seed in 0..64u64 {
        let shard_count = 1 + (seed % 5) as u32;
        let ops = random_trace(0xD15C0 ^ (seed * 0x9e37), 400);
        check_trace(shard_count, &ops);
    }
}

/// Hand-picked edge traces: replacement that must evict, an entry exactly
/// at capacity, and remove-then-reinsert cycles.
#[test]
fn sharded_cache_matches_oracle_on_edge_traces() {
    let exact_fit = PER_SHARD_CAPACITY - ENTRY_OVERHEAD_BYTES;
    check_trace(
        3,
        &[
            Op::Insert(1, exact_fit),     // fills its whole shard
            Op::Insert(1, exact_fit),     // same-key replacement at full capacity
            Op::Insert(2, exact_fit + 1), // rejected: larger than a shard
            Op::Get(1),
            Op::Remove(1),
            Op::Get(1),
            Op::Insert(1, 1),
            Op::Remove(1),
        ],
    );
    // Many small entries then one huge one: the insert must cascade
    // evictions through its owner shard only.
    let mut ops: Vec<Op> = (0..40).map(|k| Op::Insert(k, 50)).collect();
    ops.push(Op::Insert(40, exact_fit));
    (0..40).for_each(|k| ops.push(Op::Get(k)));
    check_trace(2, &ops);
}

/// Resize edges: shrink below the resident set, shrink to the point where
/// nothing fits, then regrow and refill. Recency from a prior hit must
/// steer which entries the shrink keeps, exactly as in the oracle.
#[test]
fn sharded_cache_matches_oracle_across_resizes() {
    let mut ops = vec![
        Op::Insert(0, 500),
        Op::Insert(1, 500),
        Op::Insert(2, 500),
        Op::Insert(3, 500),
        Op::Get(0), // promote key0 so the shrink keeps it if it can
        Op::Resize(700),
        Op::Get(0),
        Op::Resize(ENTRY_OVERHEAD_BYTES), // nothing fits: shards empty out
        Op::Get(0),
        Op::Insert(4, 100), // rejected while capacity is tiny
        Op::Resize(PER_SHARD_CAPACITY),
        Op::Insert(4, 100),
        Op::Get(4),
    ];
    // And a grow applied while already under capacity changes nothing.
    ops.push(Op::Resize(PER_SHARD_CAPACITY * 2));
    ops.push(Op::Get(4));
    for shards in 1..=4u32 {
        check_trace(shards, &ops);
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0u8..KEY_UNIVERSE).prop_map(Op::Get),
        3 => ((0u8..KEY_UNIVERSE), (1u64..2_200)).prop_map(|(k, sz)| Op::Insert(k, sz)),
        1 => (0u8..KEY_UNIVERSE).prop_map(Op::Remove),
        1 => (ENTRY_OVERHEAD_BYTES..3_000u64).prop_map(Op::Resize),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Shrinking driver for the same checker (no-op under the offline
    /// proptest stub; full exploration with the real crate).
    #[test]
    fn sharded_cache_matches_flat_oracle(
        shard_count in 1u32..6,
        ops in proptest::collection::vec(op_strategy(), 1..400),
    ) {
        check_trace(shard_count, &ops);
    }
}
