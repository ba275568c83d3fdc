//! A byte-capacity-bounded cache with pluggable eviction and optional TTL.
//!
//! Capacity is expressed in bytes because the paper bills DRAM by the
//! gigabyte: a cache holding few large values must cost the same memory as
//! one holding many small values. Each entry carries an explicit `charge`
//! (value bytes plus per-entry overhead), and inserts evict until the charge
//! fits.
//!
//! Time is a caller-supplied `u64` nanosecond clock (the simulator's virtual
//! clock in practice). Expired entries count as misses and are lazily
//! reclaimed on access; `expire_sweep` supports proactive reclamation.

use crate::admission::TinyLfu;
use crate::fxhash::FxHashMap;
use crate::policy::{Policy, PolicyImpl, PolicyKind};
use crate::stats::CacheStats;
use std::borrow::Borrow;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};

/// The admission-sketch hash the cache has always used: FNV-1a over the
/// key's `std::hash::Hash` byte stream, finished with SplitMix64. Stable
/// across runs and platforms for keys that hash deterministic bytes.
pub(crate) fn legacy_sketch_hash<Q>(key: &Q) -> u64
where
    Q: Hash + ?Sized,
{
    struct Fnv(u64);
    impl Hasher for Fnv {
        fn finish(&self) -> u64 {
            crate::ring::splitmix64(self.0)
        }
        fn write(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.0 ^= b as u64;
                self.0 = self.0.wrapping_mul(0x100000001b3);
            }
        }
    }
    let mut h = Fnv(0xcbf29ce484222325);
    key.hash(&mut h);
    h.finish()
}

/// Keys a [`Cache`] can index: hashable, plus a stable admission-sketch
/// hash. The provided method computes the sketch hash the cache has always
/// used; implementors that already know their bytes' hash (interned keys)
/// override it with the precomputed value — which must equal what the
/// default would produce for the original byte key, or TinyLFU admission
/// decisions change.
///
/// Implemented explicitly (no blanket impl) so a key type with a custom
/// override can never be shadowed by a generic one.
pub trait CacheKeyHash: Hash {
    fn sketch_hash(&self) -> u64 {
        legacy_sketch_hash(self)
    }
}

impl CacheKeyHash for Vec<u8> {}
impl CacheKeyHash for [u8] {}
impl CacheKeyHash for Box<[u8]> {}
impl CacheKeyHash for String {}
impl CacheKeyHash for str {}
impl CacheKeyHash for u8 {}
impl CacheKeyHash for u16 {}
impl CacheKeyHash for u32 {}
impl CacheKeyHash for u64 {}
impl CacheKeyHash for usize {}
impl CacheKeyHash for i64 {}
impl<A: CacheKeyHash, B: CacheKeyHash> CacheKeyHash for (A, B) {}

/// Fixed per-entry metadata overhead added to every charge, approximating
/// hash-table, policy and allocator bookkeeping (Memcached's item overhead is
/// ~50–60 B; we use 64).
pub const ENTRY_OVERHEAD_BYTES: u64 = 64;

#[derive(Debug, Clone)]
struct Entry<K, V> {
    key: K,
    value: V,
    charge: u64,
    /// Absolute expiry in nanoseconds; u64::MAX = never.
    expires_at: u64,
}

/// Outcome of an insert, so callers can account for admission behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// Entry admitted; `evicted` entries were displaced to make room.
    Inserted { evicted: usize },
    /// Entry replaced an existing value under the same key.
    Replaced { evicted: usize },
    /// Entry is larger than the whole cache and was rejected.
    TooLarge,
    /// TinyLFU admission judged the candidate colder than the eviction
    /// victim it would displace; the cache is unchanged.
    NotAdmitted,
}

/// Byte-bounded key-value cache. See module docs.
#[derive(Debug, Clone)]
pub struct Cache<K, V> {
    map: FxHashMap<K, usize>,
    slab: Vec<Option<Entry<K, V>>>,
    free: Vec<usize>,
    policy: PolicyImpl,
    kind: PolicyKind,
    capacity_bytes: u64,
    used_bytes: u64,
    default_ttl_nanos: Option<u64>,
    admission: Option<TinyLfu>,
    stats: CacheStats,
    /// Expiry index over entries with a finite deadline, ordered by
    /// `(expires_at, slot)`. Entries with `expires_at == u64::MAX` (never)
    /// are not indexed, so caches that never use TTLs pay nothing beyond a
    /// branch per insert/remove and `expire_sweep` on them is O(1).
    expiry: BTreeSet<(u64, usize)>,
}

impl<K: CacheKeyHash + Eq + Clone, V> Cache<K, V> {
    /// Create a cache bounded to `capacity_bytes` with the given policy.
    pub fn new(capacity_bytes: u64, kind: PolicyKind) -> Self {
        Cache {
            map: FxHashMap::default(),
            slab: Vec::new(),
            free: Vec::new(),
            policy: kind.build(),
            kind,
            capacity_bytes,
            used_bytes: 0,
            default_ttl_nanos: None,
            admission: None,
            stats: CacheStats::default(),
            expiry: BTreeSet::new(),
        }
    }

    /// LRU cache — the default everywhere in the paper's deployments.
    pub fn lru(capacity_bytes: u64) -> Self {
        Cache::new(capacity_bytes, PolicyKind::Lru)
    }

    /// Set a default TTL applied to entries inserted without an explicit one.
    pub fn with_default_ttl(mut self, ttl_nanos: u64) -> Self {
        self.default_ttl_nanos = Some(ttl_nanos);
        self
    }

    /// Change the default TTL at runtime (the TTL control plane's knob).
    /// Applies to future inserts only; resident entries keep the deadline
    /// they were stored with. `None` disables the default TTL.
    pub fn set_default_ttl(&mut self, ttl_nanos: Option<u64>) {
        self.default_ttl_nanos = ttl_nanos;
    }

    /// The default TTL currently applied to inserts, if any.
    pub fn default_ttl_nanos(&self) -> Option<u64> {
        self.default_ttl_nanos
    }

    /// Enable TinyLFU admission: when the cache is full, a new entry only
    /// displaces the eviction victim if it is historically more popular.
    /// `expected_entries` sizes the frequency sketch (≈ capacity / mean
    /// entry size).
    pub fn with_tinylfu(mut self, expected_entries: usize) -> Self {
        self.admission = Some(TinyLfu::new(expected_entries));
        self
    }

    pub fn policy_kind(&self) -> PolicyKind {
        self.kind
    }

    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    fn alloc_slot(&mut self, entry: Entry<K, V>) -> usize {
        if let Some(slot) = self.free.pop() {
            self.slab[slot] = Some(entry);
            slot
        } else {
            self.slab.push(Some(entry));
            self.slab.len() - 1
        }
    }

    fn drop_slot(&mut self, slot: usize) -> Entry<K, V> {
        let entry = self.slab[slot].take().expect("slot must be occupied");
        self.free.push(slot);
        self.map.remove(&entry.key);
        self.policy.on_remove(slot);
        self.used_bytes -= entry.charge;
        if entry.expires_at != u64::MAX {
            self.expiry.remove(&(entry.expires_at, slot));
        }
        entry
    }

    /// Evict the policy's victim; returns the evicted key. Panics if empty
    /// (callers guard on `len()`).
    fn evict_one(&mut self) -> K {
        let victim = self
            .policy
            .victim()
            .expect("evict_one called on empty cache");
        let entry = self.drop_slot(victim);
        self.stats.evictions += 1;
        entry.key
    }

    /// Insert with the cache's default TTL (or no TTL).
    pub fn insert(&mut self, key: K, value: V, value_bytes: u64, now: u64) -> InsertOutcome {
        let expires = self
            .default_ttl_nanos
            .map(|t| now.saturating_add(t))
            .unwrap_or(u64::MAX);
        self.insert_with_expiry(key, value, value_bytes, now, expires)
    }

    /// Insert with an explicit TTL relative to `now`.
    pub fn insert_with_ttl(
        &mut self,
        key: K,
        value: V,
        value_bytes: u64,
        now: u64,
        ttl_nanos: u64,
    ) -> InsertOutcome {
        self.insert_with_expiry(key, value, value_bytes, now, now.saturating_add(ttl_nanos))
    }

    fn insert_with_expiry(
        &mut self,
        key: K,
        value: V,
        value_bytes: u64,
        _now: u64,
        expires_at: u64,
    ) -> InsertOutcome {
        let charge = value_bytes.saturating_add(ENTRY_OVERHEAD_BYTES);
        if charge > self.capacity_bytes {
            self.stats.rejected += 1;
            return InsertOutcome::TooLarge;
        }
        let candidate_hash = if let Some(adm) = &mut self.admission {
            let h = key.sketch_hash();
            adm.record(h);
            Some(h)
        } else {
            None
        };
        let replaced = if let Some(&slot) = self.map.get(&key) {
            self.drop_slot(slot);
            true
        } else {
            false
        };
        // TinyLFU gate: if making room would displace a historically more
        // popular victim, refuse the candidate instead (never gates
        // replacements of the same key or inserts that fit for free).
        if !replaced && self.used_bytes + charge > self.capacity_bytes {
            if let (Some(cand), Some(adm)) = (candidate_hash, &self.admission) {
                let victim_hash = self
                    .policy
                    .victim()
                    .and_then(|slot| self.slab[slot].as_ref())
                    .map(|e| e.key.sketch_hash());
                if let Some(victim) = victim_hash {
                    if !adm.admit(cand, victim) {
                        self.stats.rejected += 1;
                        return InsertOutcome::NotAdmitted;
                    }
                }
            }
        }
        let mut evicted = 0;
        while self.used_bytes + charge > self.capacity_bytes {
            self.evict_one();
            evicted += 1;
        }
        let entry = Entry {
            key: key.clone(),
            value,
            charge,
            expires_at,
        };
        let slot = self.alloc_slot(entry);
        self.map.insert(key, slot);
        self.policy.on_insert(slot);
        self.used_bytes += charge;
        if expires_at != u64::MAX {
            self.expiry.insert((expires_at, slot));
        }
        self.stats.inserts += 1;
        if replaced {
            InsertOutcome::Replaced { evicted }
        } else {
            InsertOutcome::Inserted { evicted }
        }
    }

    /// Look up `key` at time `now`. Records hit/miss statistics; expired
    /// entries are removed and count as misses.
    pub fn get<Q>(&mut self, key: &Q, now: u64) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: CacheKeyHash + Eq + ?Sized,
    {
        if let Some(adm) = &mut self.admission {
            adm.record(key.sketch_hash());
        }
        let slot = match self.map.get(key) {
            Some(&s) => s,
            None => {
                self.stats.misses += 1;
                return None;
            }
        };
        let expired = self.slab[slot]
            .as_ref()
            .map(|e| e.expires_at <= now)
            .unwrap_or(true);
        if expired {
            self.drop_slot(slot);
            self.stats.expired += 1;
            self.stats.misses += 1;
            return None;
        }
        self.policy.on_hit(slot);
        self.stats.hits += 1;
        self.slab[slot].as_ref().map(|e| &e.value)
    }

    /// Look up without affecting recency or statistics (for invariants,
    /// invalidation checks, and tests).
    pub fn peek<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.map
            .get(key)
            .and_then(|&s| self.slab[s].as_ref())
            .map(|e| &e.value)
    }

    /// The charge currently held for `key`, if resident.
    pub fn charge_of<Q>(&self, key: &Q) -> Option<u64>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.map
            .get(key)
            .and_then(|&s| self.slab[s].as_ref())
            .map(|e| e.charge)
    }

    /// Remove `key`, returning its value (used for invalidation).
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let slot = *self.map.get(key)?;
        let entry = self.drop_slot(slot);
        self.stats.invalidations += 1;
        Some(entry.value)
    }

    /// Whether `key` is resident and unexpired at `now` (no stats effect).
    pub fn contains<Q>(&self, key: &Q, now: u64) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.map
            .get(key)
            .and_then(|&s| self.slab[s].as_ref())
            .map(|e| e.expires_at > now)
            .unwrap_or(false)
    }

    /// Drop every expired entry; returns how many were reclaimed. O(k log n)
    /// in the number reclaimed via the expiry index — a sweep over a cache
    /// with nothing expired (or no finite TTLs at all) touches no entries.
    pub fn expire_sweep(&mut self, now: u64) -> usize {
        let mut n = 0;
        while let Some(&(deadline, slot)) = self.expiry.iter().next() {
            if deadline > now {
                break;
            }
            self.drop_slot(slot);
            self.stats.expired += 1;
            n += 1;
        }
        n
    }

    /// Bytes held by entries still alive at `now`: `used_bytes` minus the
    /// charges of entries whose deadline has lapsed but which no sweep or
    /// access has reclaimed yet. This is what memory billing and profilers
    /// should read — expired residents are ghosts, not working set.
    pub fn resident_bytes(&self, now: u64) -> u64 {
        let mut lapsed = 0u64;
        for &(deadline, slot) in self.expiry.iter() {
            if deadline > now {
                break;
            }
            if let Some(e) = self.slab[slot].as_ref() {
                lapsed += e.charge;
            }
        }
        self.used_bytes - lapsed
    }

    /// Resize the cache to `capacity_bytes`, evicting (policy order) until
    /// the resident set fits. Returns how many entries were evicted; growth
    /// never evicts. This is the primitive an elastic controller uses to
    /// track a changing capacity plan.
    pub fn set_capacity(&mut self, capacity_bytes: u64) -> usize {
        self.capacity_bytes = capacity_bytes;
        let mut evicted = 0;
        while self.used_bytes > self.capacity_bytes && !self.is_empty() {
            self.evict_one();
            evicted += 1;
        }
        evicted
    }

    /// Remove `key` without touching hit/miss/invalidation statistics,
    /// returning its value and charge. For migration between shards, where
    /// the move is an artifact of resharding rather than cache traffic.
    pub fn take<Q>(&mut self, key: &Q) -> Option<(V, u64)>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let slot = *self.map.get(key)?;
        let entry = self.drop_slot(slot);
        Some((entry.value, entry.charge))
    }

    /// Remove everything.
    pub fn clear(&mut self) {
        let occupied: Vec<usize> = self
            .slab
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.as_ref().map(|_| i))
            .collect();
        for slot in occupied {
            self.drop_slot(slot);
        }
    }

    /// Iterate resident keys (unspecified order; for tests and resharding).
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.slab.iter().flatten().map(|e| &e.key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(cap: u64) -> Cache<String, u64> {
        Cache::lru(cap)
    }

    const T0: u64 = 0;

    #[test]
    fn get_after_insert_returns_value() {
        let mut c = cache(10_000);
        c.insert("a".into(), 1, 100, T0);
        assert_eq!(c.get("a", T0), Some(&1));
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn miss_on_absent_key() {
        let mut c = cache(10_000);
        assert_eq!(c.get("nope", T0), None);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn capacity_is_never_exceeded() {
        let mut c = cache(1_000);
        for i in 0..50 {
            c.insert(format!("k{i}"), i, 100, T0);
            assert!(c.used_bytes() <= c.capacity_bytes());
        }
        assert!(c.stats().evictions > 0);
    }

    #[test]
    fn lru_evicts_cold_keys_first() {
        // capacity for ~4 entries of charge 164
        let mut c = cache(700);
        for k in ["a", "b", "c", "d"] {
            c.insert(k.into(), 0, 100, T0);
        }
        c.get("a", T0); // warm "a"
        c.insert("e".into(), 0, 100, T0); // evicts "b"
        assert!(c.contains("a", T0));
        assert!(!c.contains("b", T0));
        assert!(c.contains("e", T0));
    }

    #[test]
    fn replace_updates_value_and_charge() {
        let mut c = cache(10_000);
        c.insert("k".into(), 1, 100, T0);
        let out = c.insert("k".into(), 2, 500, T0);
        assert!(matches!(out, InsertOutcome::Replaced { .. }));
        assert_eq!(c.get("k", T0), Some(&2));
        assert_eq!(c.len(), 1);
        assert_eq!(c.used_bytes(), 500 + ENTRY_OVERHEAD_BYTES);
    }

    #[test]
    fn oversized_entry_is_rejected() {
        let mut c = cache(100);
        let out = c.insert("big".into(), 0, 1_000, T0);
        assert_eq!(out, InsertOutcome::TooLarge);
        assert!(c.is_empty());
        assert_eq!(c.stats().rejected, 1);
    }

    #[test]
    fn ttl_expires_entries_lazily() {
        let mut c = cache(10_000);
        c.insert_with_ttl("k".into(), 9, 10, T0, 1_000);
        assert_eq!(c.get("k", 999), Some(&9));
        assert_eq!(c.get("k", 1_000), None); // expired exactly at deadline
        assert_eq!(c.stats().expired, 1);
        assert!(c.is_empty());
    }

    #[test]
    fn default_ttl_applies_when_set() {
        let mut c = cache(10_000).with_default_ttl(500);
        c.insert("k".into(), 1, 10, 100);
        assert!(c.contains("k", 599));
        assert!(!c.contains("k", 600));
    }

    #[test]
    fn expire_sweep_reclaims_bytes() {
        let mut c = cache(10_000);
        c.insert_with_ttl("a".into(), 1, 10, T0, 100);
        c.insert_with_ttl("b".into(), 2, 10, T0, 100);
        c.insert("c".into(), 3, 10, T0);
        assert_eq!(c.expire_sweep(200), 2);
        assert_eq!(c.len(), 1);
        assert_eq!(c.used_bytes(), 10 + ENTRY_OVERHEAD_BYTES);
    }

    #[test]
    fn remove_returns_value_and_counts_invalidation() {
        let mut c = cache(10_000);
        c.insert("k".into(), 42, 10, T0);
        assert_eq!(c.remove("k"), Some(42));
        assert_eq!(c.remove("k"), None);
        assert_eq!(c.stats().invalidations, 1);
        assert_eq!(c.used_bytes(), 0);
    }

    #[test]
    fn peek_does_not_touch_stats_or_recency() {
        let mut c = cache(700);
        for k in ["a", "b", "c", "d"] {
            c.insert(k.into(), 0, 100, T0);
        }
        assert!(c.peek("a").is_some());
        assert_eq!(c.stats().hits, 0);
        // "a" was not promoted by peek, so it is still the LRU victim.
        c.insert("e".into(), 0, 100, T0);
        assert!(!c.contains("a", T0));
    }

    #[test]
    fn clear_empties_everything() {
        let mut c = cache(10_000);
        for i in 0..10 {
            c.insert(format!("k{i}"), i, 50, T0);
        }
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.used_bytes(), 0);
        // reuse after clear works
        c.insert("x".into(), 1, 50, T0);
        assert_eq!(c.get("x", T0), Some(&1));
    }

    #[test]
    fn hit_ratio_reflects_traffic() {
        let mut c = cache(100_000);
        c.insert("k".into(), 1, 10, T0);
        for _ in 0..9 {
            c.get("k", T0);
        }
        c.get("absent", T0);
        assert!((c.stats().hit_ratio() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn tinylfu_protects_hot_entries_from_scans() {
        // A full cache of hot keys, then a one-pass scan of cold keys: with
        // TinyLFU the scan must not displace the hot set.
        let mut c: Cache<u64, ()> = Cache::lru(164 * 20).with_tinylfu(64);
        for k in 0..20u64 {
            c.insert(k, (), 100, 0);
        }
        // Heat the residents (recorded by the sketch via get()).
        for _ in 0..5 {
            for k in 0..20u64 {
                c.get(&k, 0);
            }
        }
        // One-hit-wonder scan.
        let mut rejected = 0;
        for k in 1_000..1_200u64 {
            if c.insert(k, (), 100, 0) == InsertOutcome::NotAdmitted {
                rejected += 1;
            }
        }
        assert!(
            rejected >= 190,
            "scan keys must be rejected: {rejected}/200"
        );
        // Hot set intact.
        let resident = (0..20u64).filter(|k| c.contains(k, 0)).count();
        assert!(resident >= 18, "hot set was washed out: {resident}/20");
    }

    #[test]
    fn tinylfu_admits_keys_that_become_popular() {
        let mut c: Cache<u64, ()> = Cache::lru(164 * 10).with_tinylfu(64);
        for k in 0..10u64 {
            c.insert(k, (), 100, 0);
        }
        // Key 99 gets requested repeatedly (each miss records a touch via
        // get, each attempted insert records another).
        for _ in 0..10 {
            c.get(&99, 0);
            c.insert(99, (), 100, 0);
        }
        assert!(c.contains(&99, 0), "a genuinely popular key must get in");
    }

    #[test]
    fn tinylfu_never_gates_replacements_or_free_inserts() {
        let mut c: Cache<u64, u64> = Cache::lru(1 << 20).with_tinylfu(64);
        // Fits for free: always admitted.
        assert!(matches!(
            c.insert(1, 10, 100, 0),
            InsertOutcome::Inserted { .. }
        ));
        // Same-key replacement: always admitted even when full.
        let mut small: Cache<u64, u64> = Cache::lru(164).with_tinylfu(64);
        small.insert(1, 10, 100, 0);
        assert!(matches!(
            small.insert(1, 20, 100, 0),
            InsertOutcome::Replaced { .. }
        ));
        assert_eq!(small.get(&1, 0), Some(&20));
    }

    #[test]
    fn set_capacity_shrink_evicts_lru_order_and_grow_is_free() {
        let mut c = cache(1_000);
        for k in ["a", "b", "c", "d", "e"] {
            c.insert(k.into(), 0, 100, T0); // charge 164 each, 820 total
        }
        c.get("a", T0); // warm "a" so "b" is the LRU victim
        let evicted = c.set_capacity(500); // fits 3 entries of 164
        assert_eq!(evicted, 2);
        assert!(!c.contains("b", T0) && !c.contains("c", T0));
        assert!(c.contains("a", T0));
        assert!(c.used_bytes() <= c.capacity_bytes());
        assert_eq!(c.stats().evictions, 2);
        // Growing back never evicts and leaves residents intact.
        assert_eq!(c.set_capacity(10_000), 0);
        assert_eq!(c.len(), 3);
        assert_eq!(c.capacity_bytes(), 10_000);
    }

    #[test]
    fn set_capacity_to_zero_empties_the_cache() {
        let mut c = cache(1_000);
        c.insert("k".into(), 1, 100, T0);
        assert_eq!(c.set_capacity(0), 1);
        assert!(c.is_empty());
        assert_eq!(c.used_bytes(), 0);
    }

    #[test]
    fn take_returns_value_and_charge_without_stats() {
        let mut c = cache(10_000);
        c.insert("k".into(), 42, 100, T0);
        let before = *c.stats();
        assert_eq!(c.take("k"), Some((42, 100 + ENTRY_OVERHEAD_BYTES)));
        assert_eq!(c.take("k"), None);
        assert_eq!(*c.stats(), before, "take must not move any counter");
        assert_eq!(c.used_bytes(), 0);
    }

    #[test]
    fn ttl_boundary_expires_exactly_at_deadline() {
        // `expires_at == now` is a miss: an entry with TTL t inserted at
        // time 0 serves through t-1 and not at t (pinned above in
        // ttl_expires_entries_lazily too; this one also checks contains()).
        let mut c = cache(10_000);
        c.insert_with_ttl("k".into(), 1, 10, T0, 1_000);
        assert!(c.contains("k", 999));
        assert!(!c.contains("k", 1_000));
        assert_eq!(c.get("k", 1_000), None);
    }

    #[test]
    fn zero_ttl_is_an_immediate_miss_without_panicking() {
        let mut c = cache(10_000);
        c.insert_with_ttl("k".into(), 1, 10, 500, 0);
        assert_eq!(c.get("k", 500), None);
        assert_eq!(c.stats().expired, 1);
        let mut d = cache(10_000).with_default_ttl(0);
        d.insert("k".into(), 1, 10, 500);
        assert_eq!(d.get("k", 500), None);
    }

    #[test]
    fn overflowing_ttl_saturates_to_never_expires() {
        let mut c = cache(10_000);
        c.insert_with_ttl("k".into(), 1, 10, 5, u64::MAX);
        assert!(c.contains("k", u64::MAX - 1));
        assert_eq!(c.get("k", u64::MAX - 1), Some(&1));
        assert_eq!(c.expire_sweep(u64::MAX - 1), 0);
        let mut d = cache(10_000).with_default_ttl(u64::MAX);
        d.insert("k".into(), 2, 10, 7);
        assert!(d.contains("k", u64::MAX - 1));
    }

    #[test]
    fn overwrite_resets_ttl() {
        let mut c = cache(10_000);
        c.insert_with_ttl("k".into(), 1, 10, T0, 100);
        // Re-insert at t=50 with a fresh TTL: the old deadline is gone.
        c.insert_with_ttl("k".into(), 2, 10, 50, 100);
        assert_eq!(c.get("k", 120), Some(&2));
        assert_eq!(c.get("k", 150), None);
        // And a TTL'd entry overwritten without a TTL never expires.
        c.insert_with_ttl("k".into(), 3, 10, 200, 100);
        c.insert("k".into(), 4, 10, 250);
        assert_eq!(c.get("k", 100_000), Some(&4));
        assert_eq!(c.expire_sweep(u64::MAX - 1), 0);
    }

    #[test]
    fn set_default_ttl_applies_to_future_inserts_only() {
        let mut c = cache(10_000);
        c.insert("old".into(), 1, 10, T0);
        c.set_default_ttl(Some(100));
        assert_eq!(c.default_ttl_nanos(), Some(100));
        c.insert("new".into(), 2, 10, T0);
        assert!(
            c.contains("old", 1_000),
            "pre-change entries keep their deadline"
        );
        assert!(!c.contains("new", 1_000));
        c.set_default_ttl(None);
        c.insert("later".into(), 3, 10, T0);
        assert!(c.contains("later", 1_000));
    }

    #[test]
    fn resident_bytes_drops_the_moment_entries_lapse() {
        let mut c = cache(10_000);
        c.insert_with_ttl("a".into(), 1, 100, T0, 1_000);
        c.insert("b".into(), 2, 100, T0);
        let charge = 100 + ENTRY_OVERHEAD_BYTES;
        assert_eq!(c.resident_bytes(999), 2 * charge);
        // At the deadline "a" is a ghost: still in used_bytes (not yet
        // reclaimed) but out of resident_bytes.
        assert_eq!(c.used_bytes(), 2 * charge);
        assert_eq!(c.resident_bytes(1_000), charge);
        assert_eq!(c.expire_sweep(1_000), 1);
        assert_eq!(c.used_bytes(), charge);
        assert_eq!(c.resident_bytes(1_000), charge);
    }

    #[test]
    fn expire_sweep_matches_full_scan_semantics() {
        // The indexed sweep must reclaim exactly the entries a full slab
        // scan would, across interleaved inserts/overwrites/removes.
        let mut c: Cache<u64, u64> = Cache::lru(1 << 20);
        let mut x = 42u64;
        let mut rng = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for step in 0..2_000u64 {
            let k = rng() % 64;
            match rng() % 4 {
                0 => {
                    c.insert_with_ttl(k, step, 32, step, 1 + rng() % 500);
                }
                1 => {
                    c.insert(k, step, 32, step);
                }
                2 => {
                    c.remove(&k);
                }
                _ => {
                    c.get(&k, step);
                }
            }
            if step % 97 == 0 {
                let expected: Vec<u64> =
                    c.keys().copied().filter(|k| !c.contains(k, step)).collect();
                assert_eq!(c.expire_sweep(step), expected.len(), "step {step}");
                for k in expected {
                    assert!(c.peek(&k).is_none(), "step {step}: {k} survived sweep");
                }
            }
        }
        // Non-vacuous: the run actually expired and evicted things.
        assert!(c.stats().expired > 0);
    }

    #[test]
    fn works_with_every_policy_kind() {
        for kind in PolicyKind::ALL {
            let mut c: Cache<u64, u64> = Cache::new(10_000, kind);
            for i in 0..200u64 {
                c.insert(i, i, 100, T0);
                assert!(c.used_bytes() <= c.capacity_bytes(), "{kind:?}");
            }
            // Something must still be resident and retrievable.
            assert!(!c.is_empty(), "{kind:?}");
            let k = *c.keys().next().unwrap();
            assert_eq!(c.get(&k, T0), Some(&k), "{kind:?}");
        }
    }
}
