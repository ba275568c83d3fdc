//! The storage-layer block cache — the paper's `s_D` knob.
//!
//! TiKV serves reads from RocksDB, whose hot blocks live in a DRAM block
//! cache; cold reads pay the disk path. We model the same structure: the
//! keyspace is divided into fixed-size logical blocks, a [`BlockCache`]
//! (an LRU from `cachekit`) tracks which blocks are DRAM-resident, and each
//! row access reports whether it hit. The *cost* of a miss (disk read CPU +
//! latency) is charged by the cluster layer using
//! [`crate::cost::StorageCostConfig`].
//!
//! Blocks are identified by hashing the row key and bucketing: rows that are
//! key-adjacent share blocks imperfectly under hashing, but popularity-based
//! residency — the property the cost model depends on — is preserved, and
//! hashing avoids pathological co-location of hot synthetic keys.

use cachekit::ring::stable_hash;
use cachekit::{Cache, PolicyKind};
use serde::{Deserialize, Serialize};

/// Identifier of one logical block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BlockId(pub u64);

impl cachekit::CacheKeyHash for BlockId {}

/// Outcome of one row access against the block cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockAccess {
    /// Block was DRAM-resident.
    Hit,
    /// Block had to be read from disk (and is now resident).
    Miss,
}

/// Configuration for block layout.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct BlockConfig {
    /// Logical block size in bytes (RocksDB defaults to 4–32 KiB; TiKV
    /// commonly 32 KiB). Large values occupy multiple blocks.
    pub block_bytes: u64,
}

impl Default for BlockConfig {
    fn default() -> Self {
        BlockConfig {
            block_bytes: 32 * 1024,
        }
    }
}

/// The per-storage-node block cache.
#[derive(Debug)]
pub struct BlockCache {
    cache: Cache<BlockId, ()>,
    config: BlockConfig,
}

impl BlockCache {
    /// A block cache holding at most `capacity_bytes` of blocks.
    pub fn new(capacity_bytes: u64, config: BlockConfig) -> Self {
        BlockCache {
            cache: Cache::new(capacity_bytes, PolicyKind::Lru),
            config,
        }
    }

    pub fn capacity_bytes(&self) -> u64 {
        self.cache.capacity_bytes()
    }

    /// How many blocks a value of `value_bytes` spans.
    pub fn blocks_spanned(&self, value_bytes: u64) -> u64 {
        value_bytes.div_ceil(self.config.block_bytes).max(1)
    }

    /// Access the row stored at `row_key` whose record occupies
    /// `value_bytes`. Returns how many of its blocks hit and missed;
    /// missed blocks become resident (read-through).
    pub fn access(&mut self, row_key: &[u8], value_bytes: u64) -> (u64, u64) {
        self.access_hashed(stable_hash(row_key), value_bytes)
    }

    /// [`BlockCache::access`] for a caller that already holds the row key's
    /// [`stable_hash`] (the storage tier routes by the same hash).
    pub fn access_hashed(&mut self, row_key_hash: u64, value_bytes: u64) -> (u64, u64) {
        let span = self.blocks_spanned(value_bytes);
        let mut hits = 0;
        let mut misses = 0;
        for i in 0..span {
            let id = BlockId(row_key_hash.wrapping_add(i));
            if self.cache.get(&id, 0).is_some() {
                hits += 1;
            } else {
                misses += 1;
                self.cache.insert(id, (), self.config.block_bytes, 0);
            }
        }
        (hits, misses)
    }

    /// Convenience for single-block accesses.
    pub fn access_one(&mut self, row_key: &[u8]) -> BlockAccess {
        let (hits, _) = self.access(row_key, 1);
        if hits > 0 {
            BlockAccess::Hit
        } else {
            BlockAccess::Miss
        }
    }

    /// Hit ratio observed so far.
    pub fn hit_ratio(&self) -> f64 {
        self.cache.stats().hit_ratio()
    }

    /// Raw `(hits, misses)` counters — the mergeable form of
    /// [`BlockCache::hit_ratio`] for sharded experiment runs.
    pub fn counts(&self) -> (u64, u64) {
        let s = self.cache.stats();
        (s.hits, s.misses)
    }

    /// Number of DRAM-resident blocks right now.
    pub fn resident_blocks(&self) -> usize {
        self.cache.len()
    }

    /// Drop every resident block (a crash: the block cache is volatile).
    /// Stats are preserved — the refill misses that follow are the point.
    pub fn wipe(&mut self) {
        self.cache.clear();
    }

    pub fn reset_stats(&mut self) {
        self.cache.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(cap_blocks: u64) -> BlockCache {
        let cfg = BlockConfig { block_bytes: 1024 };
        // Account for cachekit's per-entry overhead so `cap_blocks` blocks fit.
        BlockCache::new(cap_blocks * (1024 + 64), cfg)
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut bc = cache(16);
        assert_eq!(bc.access_one(b"k1"), BlockAccess::Miss);
        assert_eq!(bc.access_one(b"k1"), BlockAccess::Hit);
    }

    #[test]
    fn large_values_span_multiple_blocks() {
        let mut bc = cache(100);
        assert_eq!(bc.blocks_spanned(1), 1);
        assert_eq!(bc.blocks_spanned(1024), 1);
        assert_eq!(bc.blocks_spanned(1025), 2);
        let (h, m) = bc.access(b"big", 10 * 1024);
        assert_eq!((h, m), (0, 10));
        let (h, m) = bc.access(b"big", 10 * 1024);
        assert_eq!((h, m), (10, 0));
    }

    #[test]
    fn cold_keys_evict_under_pressure() {
        let mut bc = cache(4);
        for i in 0..8 {
            bc.access_one(format!("key{i}").as_bytes());
        }
        // Cache holds 4 blocks; re-touching the first key must miss again.
        assert_eq!(bc.access_one(b"key0"), BlockAccess::Miss);
    }

    #[test]
    fn hot_key_stays_resident_under_mixed_traffic() {
        let mut bc = cache(8);
        bc.access_one(b"hot");
        for i in 0..100 {
            bc.access_one(b"hot");
            bc.access_one(format!("cold{i}").as_bytes());
        }
        assert_eq!(bc.access_one(b"hot"), BlockAccess::Hit);
        assert!(bc.hit_ratio() > 0.3);
    }

    #[test]
    fn zero_byte_values_still_occupy_a_block() {
        let mut bc = cache(4);
        let (h, m) = bc.access(b"empty", 0);
        assert_eq!((h, m), (0, 1));
    }

    #[test]
    fn wipe_empties_residency_but_keeps_stats() {
        let mut bc = cache(8);
        bc.access_one(b"a");
        bc.access_one(b"a");
        assert_eq!(bc.resident_blocks(), 1);
        let ratio_before = bc.hit_ratio();
        bc.wipe();
        assert_eq!(bc.resident_blocks(), 0);
        assert_eq!(bc.hit_ratio(), ratio_before, "wipe is not a stats reset");
        // Post-crash traffic is cold again.
        assert_eq!(bc.access_one(b"a"), BlockAccess::Miss);
    }
}
