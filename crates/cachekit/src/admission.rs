//! TinyLFU admission control.
//!
//! Eviction decides who *leaves*; admission decides who may *enter*. Under
//! scan-heavy or long-tailed traffic (the Meta trace's one-hit wonders),
//! plain LRU lets cold keys wash hot ones out. TinyLFU (Einziger et al.)
//! keeps an approximate frequency history — a count-min sketch of 4-bit
//! counters with periodic halving, fronted by a doorkeeper Bloom filter —
//! and admits a candidate only if it is historically more popular than the
//! eviction victim it would displace.
//!
//! Everything here is hash-based and O(1); the sketch uses ~8 bits per
//! expected cache entry, negligible next to the entries themselves.

use cachekit_hash::spread;
use serde::{Deserialize, Serialize};

mod cachekit_hash {
    /// Re-derive independent hash functions from one 64-bit key hash.
    pub fn spread(hash: u64, i: u64) -> u64 {
        crate::ring::splitmix64(hash ^ (i.wrapping_mul(0x9E3779B97F4A7C15)))
    }
}

/// Count-min sketch with 4-bit counters packed 16 per `u64`, 4 hash rows in
/// one flat table, and halving-based aging every `sample_size` increments.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FrequencySketch {
    table: Vec<u64>,
    /// Mask for slot selection (table length is a power of two).
    mask: u64,
    additions: u64,
    sample_size: u64,
}

const ROWS: u64 = 4;
const COUNTER_MAX: u64 = 15;

impl FrequencySketch {
    /// Size the sketch for roughly `capacity` distinct hot items.
    pub fn new(capacity: usize) -> Self {
        let slots = (capacity.max(16)).next_power_of_two();
        FrequencySketch {
            table: vec![0; slots],
            mask: (slots - 1) as u64,
            additions: 0,
            sample_size: (slots as u64) * 10,
        }
    }

    fn slot_of(&self, hash: u64, row: u64) -> (usize, u32) {
        let h = spread(hash, row);
        let index = (h & self.mask) as usize;
        // 16 4-bit counters per word; pick one from the upper hash bits.
        let counter = ((h >> 32) & 0xF) as u32;
        (index, counter * 4)
    }

    fn counter_at(&self, index: usize, shift: u32) -> u64 {
        (self.table[index] >> shift) & COUNTER_MAX
    }

    /// Record one occurrence of `hash`.
    ///
    /// Conservative update (Estan & Varghese): only the rows currently at
    /// the minimum are bumped. Rows above the minimum already overestimate
    /// this key — they carry some colliding neighbour's counts — so raising
    /// them again would only inflate *that* neighbour's estimate further.
    /// The minimum (which is what [`FrequencySketch::estimate`] reads)
    /// still advances by exactly one, so no estimate gets less accurate.
    pub fn increment(&mut self, hash: u64) {
        let mut slots = [(0usize, 0u32); ROWS as usize];
        let mut min = COUNTER_MAX;
        for (row, slot) in slots.iter_mut().enumerate() {
            *slot = self.slot_of(hash, row as u64);
            min = min.min(self.counter_at(slot.0, slot.1));
        }
        if min >= COUNTER_MAX {
            return; // all rows saturated: nothing to record
        }
        for &(index, shift) in &slots {
            if self.counter_at(index, shift) == min {
                self.table[index] += 1u64 << shift;
            }
        }
        self.additions += 1;
        if self.additions >= self.sample_size {
            self.age();
        }
    }

    /// Estimated frequency of `hash` (min over rows; ≤ 15).
    pub fn estimate(&self, hash: u64) -> u64 {
        (0..ROWS)
            .map(|row| {
                let (index, shift) = self.slot_of(hash, row);
                self.counter_at(index, shift)
            })
            .min()
            .unwrap_or(0)
    }

    /// Halve every counter — the aging step that keeps the sketch tracking
    /// *recent* popularity rather than all-time counts.
    fn age(&mut self) {
        for word in &mut self.table {
            // Halve each 4-bit lane: shift right then clear carried-in bits.
            *word = (*word >> 1) & 0x7777_7777_7777_7777;
        }
        self.additions /= 2;
    }

    pub fn additions(&self) -> u64 {
        self.additions
    }
}

/// A small Bloom filter in front of the sketch: the first occurrence of a
/// key only sets doorkeeper bits, so one-hit wonders never pollute the
/// sketch counters. Reset on each aging cycle.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Doorkeeper {
    bits: Vec<u64>,
    mask: u64,
    set_count: u64,
    reset_at: u64,
}

impl Doorkeeper {
    pub fn new(capacity: usize) -> Self {
        let words = (capacity.max(64) / 8).next_power_of_two();
        Doorkeeper {
            bits: vec![0; words],
            mask: (words as u64 * 64) - 1,
            set_count: 0,
            reset_at: words as u64 * 16, // ~25% fill before reset
        }
    }

    /// Insert; returns true if the key was (probably) already present.
    pub fn insert(&mut self, hash: u64) -> bool {
        let mut present = true;
        for i in 0..2u64 {
            let bit = spread(hash, 100 + i) & self.mask;
            let (word, offset) = ((bit / 64) as usize, bit % 64);
            if self.bits[word] >> offset & 1 == 0 {
                present = false;
                self.bits[word] |= 1 << offset;
                self.set_count += 1;
            }
        }
        // Backstop only: the primary reset rides the sketch's aging cycle
        // (see `TinyLfu::record`), but a filter saturating between cycles
        // would stop absorbing one-hit wonders, so clear it here too.
        if self.set_count >= self.reset_at {
            self.reset();
        }
        present
    }

    /// Membership test (no mutation): true if both probe bits are set.
    pub fn contains(&self, hash: u64) -> bool {
        (0..2u64).all(|i| {
            let bit = spread(hash, 100 + i) & self.mask;
            let (word, offset) = ((bit / 64) as usize, bit % 64);
            self.bits[word] >> offset & 1 == 1
        })
    }

    /// Clear every bit — called on each sketch aging cycle so doorkeeper
    /// history decays on the same clock as the counters.
    pub fn reset(&mut self) {
        self.bits.iter_mut().for_each(|w| *w = 0);
        self.set_count = 0;
    }
}

/// The TinyLFU admission policy.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TinyLfu {
    sketch: FrequencySketch,
    doorkeeper: Doorkeeper,
}

impl TinyLfu {
    pub fn new(expected_entries: usize) -> Self {
        TinyLfu {
            sketch: FrequencySketch::new(expected_entries),
            doorkeeper: Doorkeeper::new(expected_entries),
        }
    }

    /// Record one access to `hash` (call on every lookup and insert).
    ///
    /// The first occurrence only sets doorkeeper bits; repeats reach the
    /// sketch. When the sketch ages (detected by its additions counter
    /// halving), the doorkeeper resets with it, keeping both histories on
    /// the same decay clock.
    pub fn record(&mut self, hash: u64) {
        if self.doorkeeper.insert(hash) {
            let before = self.sketch.additions();
            self.sketch.increment(hash);
            if self.sketch.additions() < before {
                self.doorkeeper.reset();
            }
        }
    }

    /// Frequency estimate including the doorkeeper's implicit +1: a key
    /// whose only sighting lives in the doorkeeper still counts as seen
    /// once, so it can displace a victim with no history at all.
    pub fn estimate(&self, hash: u64) -> u64 {
        self.sketch.estimate(hash) + self.doorkeeper.contains(hash) as u64
    }

    /// Should `candidate` displace `victim`? Admit ties in favor of the
    /// candidate only when strictly more popular — conservative, matching
    /// the original TinyLFU design (protects the resident working set).
    pub fn admit(&self, candidate: u64, victim: u64) -> bool {
        self.estimate(candidate) > self.estimate(victim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::stable_hash;

    fn h(s: &str) -> u64 {
        stable_hash(s.as_bytes())
    }

    #[test]
    fn sketch_counts_frequencies_approximately() {
        let mut sk = FrequencySketch::new(1024);
        for _ in 0..10 {
            sk.increment(h("hot"));
        }
        sk.increment(h("cold"));
        assert!(sk.estimate(h("hot")) >= 8, "hot underestimated");
        assert!(sk.estimate(h("cold")) <= 3, "cold overestimated");
        assert_eq!(sk.estimate(h("never")), 0);
    }

    #[test]
    fn counters_saturate_at_fifteen() {
        let mut sk = FrequencySketch::new(64);
        for _ in 0..100 {
            sk.increment(h("k"));
        }
        assert!(sk.estimate(h("k")) <= 15);
    }

    #[test]
    fn aging_halves_counts() {
        let mut sk = FrequencySketch::new(16);
        for _ in 0..12 {
            sk.increment(h("a"));
        }
        let before = sk.estimate(h("a"));
        sk.age();
        let after = sk.estimate(h("a"));
        assert_eq!(after, before / 2);
    }

    #[test]
    fn doorkeeper_absorbs_first_touch() {
        let mut tl = TinyLfu::new(256);
        tl.record(h("one-hit"));
        // First touch lives only in the doorkeeper: the sketch stays clean
        // but the estimate still reflects the implicit +1.
        assert_eq!(tl.sketch.estimate(h("one-hit")), 0);
        assert_eq!(tl.estimate(h("one-hit")), 1);
        tl.record(h("one-hit"));
        assert!(
            tl.estimate(h("one-hit")) >= 2,
            "second touch reaches the sketch"
        );
    }

    #[test]
    fn once_seen_candidate_beats_never_seen_victim() {
        // Regression: `estimate` used to drop the doorkeeper's implicit +1,
        // so a key seen exactly once tied a key never seen at all and the
        // tie-rejecting `admit` kept it out.
        let mut tl = TinyLfu::new(256);
        tl.record(h("seen-once"));
        assert_eq!(tl.estimate(h("never")), 0);
        assert_eq!(tl.estimate(h("seen-once")), 1);
        assert!(
            tl.admit(h("seen-once"), h("never")),
            "a once-seen candidate must displace a victim with no history"
        );
        assert!(!tl.admit(h("never"), h("seen-once")));
    }

    #[test]
    fn aging_resets_the_doorkeeper() {
        // Regression: the doorkeeper used to reset only at its own 25%-fill
        // threshold, never on the sketch's aging cycle as documented.
        let mut tl = TinyLfu::new(16); // sample_size = 160 additions/cycle
        tl.record(h("resident"));
        assert_eq!(
            tl.estimate(h("resident")),
            1,
            "doorkeeper holds the first touch"
        );
        // Drive the sketch through an aging cycle: a dozen keys recorded
        // past the doorkeeper, each adding ~15 additions before saturating
        // — far too few distinct keys to trip the 25%-fill backstop.
        for i in 0..12 {
            let key = h(&format!("driver{i}"));
            for _ in 0..16 {
                tl.record(key);
            }
        }
        assert_eq!(
            tl.estimate(h("resident")),
            0,
            "aging must clear doorkeeper bits along with halving the sketch"
        );
        // The sketch survives aging (halved), so real history remains.
        assert!(tl.estimate(h("driver0")) >= 1);
    }

    /// The pre-fix full update: bump every unsaturated row, minimum or not.
    fn full_update(sk: &mut FrequencySketch, hash: u64) {
        for row in 0..ROWS {
            let (index, shift) = sk.slot_of(hash, row);
            if sk.counter_at(index, shift) < COUNTER_MAX {
                sk.table[index] += 1u64 << shift;
            }
        }
    }

    #[test]
    fn conservative_update_never_less_accurate_than_full_update() {
        // Property vs an exact-count oracle, over deterministic pseudo-random
        // streams: for every key, min(true, 15) <= conservative <= full.
        // The left inequality is the count-min guarantee (estimates never
        // undershoot); the right says conservative update only ever removes
        // overestimation error, never adds it.
        let mut seed = 0x9E37u64;
        let mut next = move || {
            seed = crate::ring::splitmix64(seed);
            seed
        };
        for _trial in 0..20 {
            let mut cons = FrequencySketch::new(256);
            let mut full = FrequencySketch::new(256);
            let mut exact: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
            // Short streams: stay below sample_size so aging never fires
            // and the exact oracle stays comparable.
            for _ in 0..800 {
                let key = next() % 64; // small domain forces collisions
                let hash = crate::ring::splitmix64(key);
                cons.increment(hash);
                full_update(&mut full, hash);
                *exact.entry(hash).or_insert(0) += 1;
            }
            for (&hash, &count) in &exact {
                let c = cons.estimate(hash);
                let f = full.estimate(hash);
                assert!(
                    c >= count.min(COUNTER_MAX),
                    "conservative undershoots: {c} < {count}"
                );
                assert!(
                    c <= f,
                    "conservative overestimate {c} exceeds full-update {f}"
                );
            }
        }
    }

    #[test]
    fn admit_prefers_frequent_candidates() {
        let mut tl = TinyLfu::new(1024);
        for _ in 0..8 {
            tl.record(h("popular"));
        }
        tl.record(h("rare"));
        assert!(tl.admit(h("popular"), h("rare")));
        assert!(!tl.admit(h("rare"), h("popular")));
        // Ties (both unknown) reject the candidate: protect residents.
        assert!(!tl.admit(h("x"), h("y")));
    }

    #[test]
    fn sketch_distinguishes_many_keys() {
        let mut sk = FrequencySketch::new(4096);
        for i in 0..200u32 {
            let key = format!("hot{i}");
            for _ in 0..9 {
                sk.increment(h(&key));
            }
        }
        for i in 0..2000u32 {
            sk.increment(h(&format!("cold{i}")));
        }
        let mut hot_wins = 0;
        for i in 0..200u32 {
            if sk.estimate(h(&format!("hot{i}"))) > sk.estimate(h(&format!("cold{}", i * 7))) {
                hot_wins += 1;
            }
        }
        assert!(
            hot_wins > 180,
            "sketch collisions too damaging: {hot_wins}/200"
        );
    }
}
