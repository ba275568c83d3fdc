//! Property test: the L0 tier against a shadow oracle.
//!
//! The L0's contract is fail-open: a miss is always safe, but a *hit* makes
//! hard promises — the value is the one from the latest accepted admit, its
//! version never regresses past an invalidation, its age is measured from
//! the admit that stored it, and in serve-stale mode the age never reaches
//! the declared bound. The oracle tracks, per key, the only state the tier
//! is allowed to serve (`Some((version, stored_at))` = "if resident, then
//! exactly this"; `None` = "definitely absent") and checks every hit
//! against it. Eviction, TTL expiry and the TinyLFU gate may turn any
//! `Some` into a silent miss — that's the fail-open half, and the oracle
//! deliberately accepts it — but the reverse direction (serving something
//! the shadow rules out) is a coherence bug.
//!
//! Ops are driven by a deterministic xorshift stream over a small keyspace
//! and a small byte cap, so evictions, scans, stale refills and
//! invalidation races all actually happen.

use cachekit::{L0Cache, L0Mode, L0Params};
use std::collections::HashMap;

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

/// What the tier may serve for one key, if it serves anything at all.
#[derive(Clone, Copy)]
struct Possible {
    version: u64,
    stored_at: u64,
}

fn run_oracle(mode: L0Mode, seed: u64, ops: u64) {
    const KEYS: u64 = 32;
    let mut l0: L0Cache<u64, (u64, u64)> = L0Cache::new(L0Params {
        capacity_bytes: 2_048,
        expected_entries: 64,
        mode,
    });
    let mut rng = Rng(seed | 1);
    // The authoritative store: version each writer bumps.
    let mut authoritative: HashMap<u64, u64> = HashMap::new();
    // The oracle: per key, the only (version, stored_at) a hit may carry.
    let mut possible: HashMap<u64, Possible> = HashMap::new();
    let (mut gets, mut admits, mut invalidates) = (0u64, 0u64, 0u64);

    for step in 0..ops {
        let now = step * 1_000; // 1 µs per op keeps ages readable
        let key = rng.below(KEYS);
        match rng.below(10) {
            // Read-and-fill: the common serve path.
            0..=5 => {
                gets += 1;
                let hit = l0
                    .get(&key, now)
                    .map(|h| (*h.value, h.version, h.age_nanos));
                if let Some(((vk, vv), version, age)) = hit {
                    let p = possible.get(&key).unwrap_or_else(|| {
                        panic!("step {step}: hit on a key the oracle ruled absent")
                    });
                    assert_eq!(version, p.version, "step {step}: served version diverged");
                    assert_eq!(
                        age,
                        now - p.stored_at,
                        "step {step}: age not measured from the storing admit"
                    );
                    assert_eq!(
                        (vk, vv),
                        (key, version),
                        "step {step}: served value diverged"
                    );
                    if let L0Mode::ServeStale { stale_after_nanos } = mode {
                        assert!(
                            age < stale_after_nanos,
                            "step {step}: served {age} ns stale, bound {stale_after_nanos}"
                        );
                    }
                } else {
                    // Fail open: fetch from the authoritative store and offer.
                    let version = *authoritative.entry(key).or_insert(1);
                    admits += 1;
                    if l0.admit(key, (key, version), version, 16 + rng.below(112), now) {
                        possible.insert(
                            key,
                            Possible {
                                version,
                                stored_at: now,
                            },
                        );
                    }
                }
            }
            // Write: bump the authoritative version; invalidate-first purges.
            6..=7 => {
                let v = authoritative.entry(key).or_insert(1);
                *v += 1;
                let new_version = *v;
                if !matches!(mode, L0Mode::ServeStale { .. }) {
                    invalidates += 1;
                    let removed = l0.invalidate(&key, new_version);
                    if let Some(p) = possible.get(&key).copied() {
                        if p.version < new_version {
                            possible.remove(&key);
                        } else {
                            assert!(
                                !removed,
                                "step {step}: invalidation removed an entry at or past v{new_version}"
                            );
                        }
                    } else {
                        assert!(
                            !removed,
                            "step {step}: invalidation removed a ruled-absent entry"
                        );
                    }
                }
            }
            // A late refill: an offer at an old version must never roll the
            // tier backwards past what it *currently holds*. The shadow
            // can't know residency (eviction is silent), but the tier's own
            // stale-drop counter discloses which case happened: a drop
            // proves the resident entry was newer — which the oracle can
            // cross-check — while an accept is legal whenever the key was
            // evicted in between, and simply re-arms the oracle at the old
            // version (subsequent hits must then serve exactly that).
            8 => {
                let version = authoritative.get(&key).copied().unwrap_or(1);
                let old = version.saturating_sub(1 + rng.below(3)).max(1);
                let drops_before = l0.stats().stale_admits_dropped;
                admits += 1;
                if l0.admit(key, (key, old), old, 64, now) {
                    possible.insert(
                        key,
                        Possible {
                            version: old,
                            stored_at: now,
                        },
                    );
                } else if l0.stats().stale_admits_dropped > drops_before {
                    let p = possible.get(&key).unwrap_or_else(|| {
                        panic!("step {step}: stale-drop against a ruled-absent entry")
                    });
                    assert!(
                        p.version > old,
                        "step {step}: v{old} dropped as stale against resident v{}",
                        p.version
                    );
                }
            }
            // A cold scan key: mostly bounced by the TinyLFU gate, but if
            // one gets in it plays by the same rules.
            _ => {
                let scan_key = KEYS + rng.below(1_000);
                admits += 1;
                if l0.admit(scan_key, (scan_key, 1), 1, 64, now) {
                    possible.insert(
                        scan_key,
                        Possible {
                            version: 1,
                            stored_at: now,
                        },
                    );
                }
            }
        }
        assert!(
            l0.used_bytes() <= l0.capacity_bytes(),
            "step {step}: byte cap breached ({} > {})",
            l0.used_bytes(),
            l0.capacity_bytes()
        );
    }

    // Stats tally exactly with the ops issued — nothing double-counted.
    let s = l0.stats();
    assert_eq!(s.hits + s.misses, gets, "get accounting");
    assert_eq!(
        s.admitted + s.rejected + s.stale_admits_dropped,
        admits,
        "admit accounting"
    );
    assert_eq!(
        s.invalidations + s.invalidation_misses,
        invalidates,
        "invalidate accounting"
    );
    // The run must exercise the interesting paths, not just miss its way
    // through: hits, admissions, gate rejections and (in invalidate-first)
    // actual invalidations.
    assert!(s.hits > 0, "vacuous run: no hits");
    assert!(s.admitted > 0, "vacuous run: nothing admitted");
    assert!(
        s.rejected > 0,
        "vacuous run: the admission gate never fired"
    );
    if !matches!(mode, L0Mode::ServeStale { .. }) {
        assert!(s.invalidations > 0, "vacuous run: nothing invalidated");
    }
}

#[test]
fn invalidate_first_matches_the_oracle() {
    for seed in [7, 42, 4242] {
        run_oracle(L0Mode::InvalidateFirst, seed, 20_000);
    }
}

#[test]
fn serve_stale_matches_the_oracle() {
    for seed in [7, 42, 4242] {
        run_oracle(
            L0Mode::ServeStale {
                stale_after_nanos: 50_000, // 50 ops — entries expire mid-run
            },
            seed,
            20_000,
        );
    }
}
