//! SHARDS: spatially-sampled miss-ratio curves in bounded memory.
//!
//! Mattson stack-distance processing ([`cachekit::mrc::StackDistance`])
//! yields the exact LRU miss-ratio curve but tracks every distinct key —
//! unbounded state for an online profiler sitting on a cache's request
//! path. SHARDS (Waldspurger et al., FAST '15) fixes this with *spatial
//! sampling*: only keys whose stable hash satisfies
//! `hash(key) mod P < T` are tracked, an unbiased per-key coin with rate
//! `R = T / P`. Each sampled access's stack distance — measured within the
//! sampled substream — estimates `R ×` the true distance, so distances are
//! scaled by `1/R` and each access contributes weight `1/R` to the
//! histogram.
//!
//! Two mechanisms keep memory bounded regardless of the key universe:
//!
//! * **rate adaptation** (SHARDS-max): when the tracked-key set exceeds
//!   its budget, halve `T` and evict every tracked key whose hash lands
//!   above the new threshold. The substream thins itself as the working
//!   set grows.
//! * **timestamp compaction**: the Fenwick tree is indexed by access
//!   timestamps, which grow without bound; periodically renumber live
//!   keys (preserving order) so the tree's span stays proportional to the
//!   key budget.
//!
//! Determinism: hashing uses `cachekit::ring::stable_hash`, adaptation and
//! compaction trigger at exact counts, and no RNG is involved — the same
//! key stream always yields the same curve.

use cachekit::ring::stable_hash;
use cachekit::MissRatioCurve;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// Hash-space modulus `P`. Rates are expressed as `T / P`; 1 << 24 gives
/// ~6e-8 rate resolution, plenty for rates down to 1e-3.
const MODULUS: u64 = 1 << 24;

/// Configuration for a [`ShardsProfiler`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShardsConfig {
    /// Initial sampling rate `R` in `(0, 1]`. 1.0 starts exact and lets
    /// rate adaptation thin the stream; small rates start cheap.
    pub sampling_rate: f64,
    /// Tracked-key budget: when exceeded, the rate halves and over-
    /// threshold keys are evicted. Memory is O(this), not O(keys).
    pub max_tracked_keys: usize,
}

impl Default for ShardsConfig {
    fn default() -> Self {
        ShardsConfig {
            sampling_rate: 1.0,
            max_tracked_keys: 16_384,
        }
    }
}

/// Fenwick tree over sampled-access timestamps (same scheme as
/// `cachekit::mrc`, private there; this copy additionally supports the
/// removals that rate adaptation and compaction need).
#[derive(Debug, Clone, Default)]
struct Fenwick {
    tree: Vec<i64>,
}

impl Fenwick {
    fn with_capacity(n: usize) -> Self {
        Fenwick {
            tree: vec![0; n + 1],
        }
    }

    fn capacity(&self) -> usize {
        self.tree.len().saturating_sub(1)
    }

    fn add(&mut self, mut i: usize, delta: i64) {
        debug_assert!(i >= 1 && i <= self.capacity(), "fenwick index {i}");
        while i < self.tree.len() {
            self.tree[i] += delta;
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of marks in `[1, i]`.
    fn prefix(&self, mut i: usize) -> u64 {
        i = i.min(self.capacity());
        let mut s: i64 = 0;
        while i > 0 {
            s += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        debug_assert!(s >= 0);
        s as u64
    }
}

/// Streaming SHARDS profiler. Feed it every request key via
/// [`ShardsProfiler::observe`]; read the live curve with
/// [`ShardsProfiler::curve`].
#[derive(Debug, Clone)]
pub struct ShardsProfiler {
    threshold: u64,
    max_tracked: usize,
    /// key hash → (timestamp of last access, hash mod P).
    last_access: HashMap<u64, (usize, u64)>,
    fenwick: Fenwick,
    clock: usize,
    /// scaled stack distance → total weight (1/R per access). BTreeMap so
    /// curve construction iterates distances in deterministic order.
    histogram: BTreeMap<u64, f64>,
    cold_weight: f64,
    total_weight: f64,
    raw_accesses: u64,
    sampled_accesses: u64,
    rate_adaptations: u64,
}

impl ShardsProfiler {
    pub fn new(cfg: ShardsConfig) -> Self {
        let rate = cfg.sampling_rate.clamp(1e-6, 1.0);
        let threshold = ((rate * MODULUS as f64).round() as u64).clamp(1, MODULUS);
        let max_tracked = cfg.max_tracked_keys.max(64);
        ShardsProfiler {
            threshold,
            max_tracked,
            last_access: HashMap::new(),
            fenwick: Fenwick::with_capacity(Self::span_for(max_tracked)),
            clock: 0,
            histogram: BTreeMap::new(),
            cold_weight: 0.0,
            total_weight: 0.0,
            raw_accesses: 0,
            sampled_accesses: 0,
            rate_adaptations: 0,
        }
    }

    /// Timestamp span before compaction: 8× the key budget keeps
    /// compactions rare (≥ 7/8 of the span between them) at O(budget) memory.
    fn span_for(max_tracked: usize) -> usize {
        (max_tracked * 8).max(2_048)
    }

    /// Current sampling rate `R = T / P`.
    pub fn rate(&self) -> f64 {
        self.threshold as f64 / MODULUS as f64
    }

    /// Keys currently tracked (bounded by the configured budget).
    pub fn tracked_keys(&self) -> usize {
        self.last_access.len()
    }

    /// All keys offered, sampled or not.
    pub fn raw_accesses(&self) -> u64 {
        self.raw_accesses
    }

    /// Accesses that passed the sampling filter.
    pub fn sampled_accesses(&self) -> u64 {
        self.sampled_accesses
    }

    /// How many times the rate halved to stay within the key budget.
    pub fn rate_adaptations(&self) -> u64 {
        self.rate_adaptations
    }

    /// Estimated distinct keys in the full stream (scaled cold misses).
    pub fn estimated_unique_keys(&self) -> f64 {
        self.cold_weight
    }

    /// Record one access.
    pub fn observe(&mut self, key: &[u8]) {
        self.observe_hashed(stable_hash(key));
    }

    /// Record one access by pre-computed `stable_hash` (callers that
    /// already hash for routing can skip the second hash).
    pub fn observe_hashed(&mut self, hash: u64) {
        self.raw_accesses += 1;
        let hmod = hash % MODULUS;
        if hmod >= self.threshold {
            return;
        }
        self.sampled_accesses += 1;
        let scale = 1.0 / self.rate();
        if self.clock + 1 > self.fenwick.capacity() {
            self.compact();
        }
        self.clock += 1;
        let t = self.clock;
        match self.last_access.insert(hash, (t, hmod)) {
            None => {
                self.fenwick.add(t, 1);
                self.cold_weight += scale;
            }
            Some((prev, _)) => {
                let between = self.fenwick.prefix(t - 1) - self.fenwick.prefix(prev);
                let distance = between + 1;
                self.fenwick.add(prev, -1);
                self.fenwick.add(t, 1);
                let scaled = ((distance as f64) * scale).round().max(1.0) as u64;
                *self.histogram.entry(scaled).or_insert(0.0) += scale;
            }
        }
        self.total_weight += scale;
        // Halving may not shed enough keys if survivors cluster under the
        // new threshold, so repeat until the budget holds.
        while self.last_access.len() > self.max_tracked && self.threshold > 1 {
            self.adapt_rate();
        }
    }

    /// Halve the threshold and evict tracked keys above it (SHARDS-max).
    fn adapt_rate(&mut self) {
        self.threshold = (self.threshold / 2).max(1);
        self.rate_adaptations += 1;
        let threshold = self.threshold;
        let mut evicted: Vec<(u64, usize)> = self
            .last_access
            .iter()
            .filter(|&(_, &(_, hmod))| hmod >= threshold)
            .map(|(&h, &(t, _))| (h, t))
            .collect();
        // Deterministic removal order (HashMap iteration order is not).
        evicted.sort_unstable_by_key(|&(_, t)| t);
        for (h, t) in evicted {
            self.last_access.remove(&h);
            self.fenwick.add(t, -1);
        }
    }

    /// Renumber live keys 1..n in timestamp order and rebuild the Fenwick
    /// tree, so the timestamp span stays bounded by `span_for`.
    fn compact(&mut self) {
        let mut live: Vec<(usize, u64)> = self
            .last_access
            .iter()
            .map(|(&h, &(t, _))| (t, h))
            .collect();
        live.sort_unstable();
        let mut fresh = Fenwick::with_capacity(Self::span_for(self.max_tracked));
        for (rank, &(_, h)) in live.iter().enumerate() {
            let nt = rank + 1;
            let entry = self.last_access.get_mut(&h).expect("live key");
            entry.0 = nt;
            fresh.add(nt, 1);
        }
        self.clock = live.len();
        self.fenwick = fresh;
    }

    /// The live miss-ratio curve over cache sizes in entries, in the same
    /// shape `StackDistance::curve` produces. Weighted by sampling scale,
    /// so curves from different rates estimate the same function.
    pub fn curve(&self) -> MissRatioCurve {
        let mut points = Vec::with_capacity(self.histogram.len() + 1);
        points.push((0u64, 1.0));
        let reuse_total: f64 = self.histogram.values().sum();
        let mut within = 0.0;
        for (&d, &w) in &self.histogram {
            within += w;
            let misses = self.cold_weight + (reuse_total - within);
            let ratio = if self.total_weight == 0.0 {
                0.0
            } else {
                misses / self.total_weight
            };
            points.push((d, ratio));
        }
        if points.len() == 1 {
            // No reuse observed: every access is a cold miss at any size.
            points.push((1, 1.0));
        }
        MissRatioCurve { points }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachekit::StackDistance;

    fn key(i: u64) -> Vec<u8> {
        format!("key-{i}").into_bytes()
    }

    #[test]
    fn rate_one_matches_exact_mattson_curve() {
        let mut sh = ShardsProfiler::new(ShardsConfig::default());
        let mut sd = StackDistance::new();
        for i in 0..30_000u64 {
            let k = cachekit::ring::splitmix64(i) % 500;
            sh.observe(&key(k));
            sd.access(k);
        }
        assert_eq!(sh.rate(), 1.0, "budget not exceeded: no adaptation");
        let live = sh.curve();
        let exact = sd.curve();
        for entries in [0u64, 1, 10, 50, 100, 250, 500, 1_000] {
            let a = live.miss_ratio(entries);
            let b = exact.miss_ratio(entries);
            assert!((a - b).abs() < 1e-9, "entries={entries}: {a} vs {b}");
        }
    }

    #[test]
    fn curve_is_a_non_increasing_step_function() {
        let mut sh = ShardsProfiler::new(ShardsConfig {
            sampling_rate: 0.3,
            ..ShardsConfig::default()
        });
        for i in 0..50_000u64 {
            sh.observe(&key(cachekit::ring::splitmix64(i) % 2_000));
        }
        let curve = sh.curve();
        for w in curve.points.windows(2) {
            assert!(w[0].0 < w[1].0, "entries strictly increasing");
            assert!(w[0].1 >= w[1].1 - 1e-12, "miss ratio non-increasing");
        }
        assert_eq!(curve.points[0], (0, 1.0));
    }

    #[test]
    fn adaptation_keeps_tracked_keys_bounded() {
        let budget = 256;
        let mut sh = ShardsProfiler::new(ShardsConfig {
            sampling_rate: 1.0,
            max_tracked_keys: budget,
        });
        for i in 0..200_000u64 {
            sh.observe(&key(i % 20_000));
        }
        assert!(sh.tracked_keys() <= budget, "{} keys", sh.tracked_keys());
        assert!(sh.rate() < 1.0, "rate must have adapted down");
        assert!(sh.rate_adaptations() > 0);
        // Unique-key estimate stays in the right ballpark after adaptation.
        let est = sh.estimated_unique_keys();
        assert!(
            (10_000.0..40_000.0).contains(&est),
            "estimated {est} unique keys, expected ≈20k"
        );
    }

    #[test]
    fn compaction_preserves_distances() {
        // A tiny budget forces many compactions; distances across the
        // compaction boundary must still be exact for an un-thinned stream.
        let mut sh = ShardsProfiler::new(ShardsConfig {
            sampling_rate: 1.0,
            max_tracked_keys: 64,
        });
        let mut sd = StackDistance::new();
        // 40 distinct keys cycled: fits the budget, but the clock wraps
        // the 8×64-entry span many times over 30_000 accesses.
        for i in 0..30_000u64 {
            let k = cachekit::ring::splitmix64(i) % 40;
            sh.observe(&key(k));
            sd.access(k);
        }
        assert_eq!(sh.rate(), 1.0);
        let live = sh.curve();
        let exact = sd.curve();
        for entries in [1u64, 5, 10, 20, 40, 80] {
            let a = live.miss_ratio(entries);
            let b = exact.miss_ratio(entries);
            assert!((a - b).abs() < 1e-9, "entries={entries}: {a} vs {b}");
        }
    }

    #[test]
    fn sampled_fraction_tracks_the_rate() {
        let mut sh = ShardsProfiler::new(ShardsConfig {
            sampling_rate: 0.25,
            // Budget above the expected ~25k sampled keys, so the rate
            // never adapts and the hash filter alone sets the fraction.
            max_tracked_keys: 64 << 10,
        });
        for i in 0..100_000u64 {
            sh.observe(&key(i)); // all distinct: pure hash-rate measurement
        }
        let frac = sh.sampled_accesses() as f64 / sh.raw_accesses() as f64;
        assert!((frac - 0.25).abs() < 0.01, "sampled fraction {frac}");
    }

    #[test]
    fn profiler_is_deterministic() {
        let run = || {
            let mut sh = ShardsProfiler::new(ShardsConfig {
                sampling_rate: 0.5,
                max_tracked_keys: 128,
            });
            for i in 0..50_000u64 {
                sh.observe(&key(cachekit::ring::splitmix64(i) % 5_000));
            }
            (
                format!("{:?}", sh.curve().points),
                sh.rate(),
                sh.tracked_keys(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn no_reuse_stream_misses_everywhere() {
        let mut sh = ShardsProfiler::new(ShardsConfig::default());
        for i in 0..1_000u64 {
            sh.observe(&key(i));
        }
        let curve = sh.curve();
        assert_eq!(curve.miss_ratio(1_000_000), 1.0);
    }
}
