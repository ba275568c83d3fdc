//! Property test: the TTL'd cache against a shadow oracle.
//!
//! The oracle is a `BTreeMap` of `key -> (value, charge, expires_at)` that
//! applies the documented TTL semantics directly: inserts store
//! `now.saturating_add(ttl)` (or the cache-wide default, or never), an
//! entry with `expires_at <= now` does not exist, overwrites reset the
//! deadline, and removal is immediate. Two modes:
//!
//! * **exact** — capacity far above the working set, no admission gate, so
//!   nothing is ever evicted and the cache must agree with the oracle on
//!   *every* observable: get/contains outcomes, length, `used_bytes`,
//!   `resident_bytes`, and `expire_sweep` counts.
//! * **capped** — a small byte cap makes evictions constant; the contract
//!   weakens to fail-open (a miss is always safe) but a *hit* must still
//!   serve exactly the oracle's unexpired value, and expired entries must
//!   never be served no matter what eviction did around them.
//!
//! Both streams flip the default TTL mid-run via `set_default_ttl` — the
//! adaptive-TTL-control-plane case — which the oracle mirrors by tracking
//! the same default.

use cachekit::cache::ENTRY_OVERHEAD_BYTES;
use cachekit::Cache;
use std::collections::BTreeMap;

/// xorshift64* — deterministic, dependency-free op stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

#[derive(Clone, Copy)]
struct ShadowEntry {
    value: u64,
    charge: u64,
    expires_at: u64,
}

struct Shadow {
    map: BTreeMap<u64, ShadowEntry>,
    default_ttl: Option<u64>,
}

impl Shadow {
    fn insert(&mut self, key: u64, value: u64, value_bytes: u64, now: u64, ttl: Option<u64>) {
        // Explicit TTL wins; otherwise the default; otherwise never.
        let expires_at = match ttl.or(self.default_ttl) {
            Some(t) => now.saturating_add(t),
            None => u64::MAX,
        };
        self.map.insert(
            key,
            ShadowEntry {
                value,
                charge: value_bytes + ENTRY_OVERHEAD_BYTES,
                expires_at,
            },
        );
    }

    fn alive(&self, key: u64, now: u64) -> Option<&ShadowEntry> {
        self.map.get(&key).filter(|e| e.expires_at > now)
    }

    /// Drop lapsed entries, returning how many an eager sweep reclaims.
    fn sweep(&mut self, now: u64) -> usize {
        let before = self.map.len();
        self.map.retain(|_, e| e.expires_at > now);
        before - self.map.len()
    }

    fn resident_bytes(&self, now: u64) -> u64 {
        self.map
            .values()
            .filter(|e| e.expires_at > now)
            .map(|e| e.charge)
            .sum()
    }

    fn used_bytes(&self) -> u64 {
        self.map.values().map(|e| e.charge).sum()
    }
}

fn drive(cache: &mut Cache<u64, u64>, shadow: &mut Shadow, seed: u64, ops: u64, exact: bool) {
    const KEYS: u64 = 48;
    let mut rng = Rng(seed | 1);
    let mut now = 0u64;
    let (mut hits, mut inserts, mut sweeps_reclaimed) = (0u64, 0u64, 0usize);

    for step in 0..ops {
        now += rng.below(200); // uneven clock so deadlines interleave ops
        let key = rng.below(KEYS);
        match rng.below(12) {
            // Reads: the oracle's main observable.
            0..=4 => {
                let got = cache.get(&key, now).copied();
                match (got, shadow.alive(key, now).map(|e| e.value)) {
                    (Some(v), Some(want)) => {
                        assert_eq!(v, want, "step {step}: hit served the wrong value");
                        hits += 1;
                    }
                    (Some(v), None) => {
                        panic!("step {step}: served {v} for a key the oracle rules out")
                    }
                    (None, Some(_)) => {
                        // Fail-open: legal only when eviction may have
                        // removed it. In exact mode nothing evicts.
                        assert!(!exact, "step {step}: exact-mode miss on a live key");
                        shadow.map.remove(&key);
                    }
                    (None, None) => {}
                }
                // A get on an expired entry reclaims it in both worlds.
                if shadow.map.get(&key).is_some_and(|e| e.expires_at <= now) {
                    shadow.map.remove(&key);
                }
            }
            // Insert with an explicit TTL (sometimes 0, sometimes huge).
            5..=6 => {
                let ttl = match rng.below(8) {
                    0 => 0,
                    1 => u64::MAX,
                    _ => 1 + rng.below(5_000),
                };
                let bytes = 16 + rng.below(112);
                inserts += 1;
                cache.insert_with_ttl(key, step, bytes, now, ttl);
                shadow.insert(key, step, bytes, now, Some(ttl));
            }
            // Insert under the current default TTL.
            7..=8 => {
                let bytes = 16 + rng.below(112);
                inserts += 1;
                cache.insert(key, step, bytes, now);
                shadow.insert(key, step, bytes, now, None);
            }
            // Remove.
            9 => {
                let got = cache.remove(&key);
                let want = shadow.map.remove(&key);
                if exact {
                    assert_eq!(got, want.map(|e| e.value), "step {step}: remove diverged");
                } else if let Some(v) = got {
                    assert_eq!(
                        Some(v),
                        want.map(|e| e.value),
                        "step {step}: removed wrong value"
                    );
                }
            }
            // Eager sweep.
            10 => {
                let got = cache.expire_sweep(now);
                let want = shadow.sweep(now);
                if exact {
                    assert_eq!(got, want, "step {step}: sweep reclaimed a different count");
                } else {
                    assert!(got <= want, "step {step}: swept more than ever expired");
                }
                sweeps_reclaimed += got;
            }
            // The control plane retunes the default TTL mid-stream.
            _ => {
                let ttl = match rng.below(4) {
                    0 => None,
                    1 => Some(0),
                    _ => Some(1 + rng.below(3_000)),
                };
                cache.set_default_ttl(ttl);
                shadow.default_ttl = ttl;
            }
        }
        if exact {
            assert_eq!(
                cache.len(),
                shadow.map.len(),
                "step {step}: length diverged"
            );
            assert_eq!(
                cache.used_bytes(),
                shadow.used_bytes(),
                "step {step}: used bytes"
            );
            assert_eq!(
                cache.resident_bytes(now),
                shadow.resident_bytes(now),
                "step {step}: resident bytes diverged"
            );
        } else {
            assert!(
                cache.used_bytes() <= cache.capacity_bytes(),
                "step {step}: cap breached"
            );
            assert!(
                cache.resident_bytes(now) <= cache.used_bytes(),
                "step {step}"
            );
        }
    }

    // The stream must exercise the machinery, not miss its way through.
    assert!(hits > 0, "vacuous run: no hits");
    assert!(inserts > 0, "vacuous run: no inserts");
    assert!(
        sweeps_reclaimed > 0,
        "vacuous run: sweeps never reclaimed anything"
    );
    assert!(
        cache.stats().expired > 0,
        "vacuous run: nothing ever expired"
    );
}

#[test]
fn uncapped_cache_matches_the_oracle_exactly() {
    for seed in [7, 42, 4242] {
        let mut cache: Cache<u64, u64> = Cache::lru(1 << 30);
        let mut shadow = Shadow {
            map: BTreeMap::new(),
            default_ttl: None,
        };
        drive(&mut cache, &mut shadow, seed, 20_000, true);
    }
}

#[test]
fn capped_cache_is_fail_open_but_never_serves_ghosts() {
    for seed in [7, 42, 4242] {
        // ~6 entries' worth of bytes: evictions are constant even though
        // expiry keeps trimming the resident set.
        let mut cache: Cache<u64, u64> = Cache::lru(6 * 192);
        let mut shadow = Shadow {
            map: BTreeMap::new(),
            default_ttl: None,
        };
        drive(&mut cache, &mut shadow, seed, 20_000, false);
        assert!(
            cache.stats().evictions > 0,
            "capped run must actually evict"
        );
    }
}
