//! Key interning: resolve a byte key to a small copyable id once, then pass
//! the id through the serve path instead of re-allocating and re-hashing
//! the bytes at every layer.
//!
//! The simulated services address values by `table/key` byte strings. The
//! pre-interning hot path built that `Vec<u8>` per request and hashed it
//! separately in the sharder ring, the cache index, the admission sketch,
//! and the single-flight table. An [`InternedKey`] carries the two hashes
//! the serving layers need — the routing hash ([`stable_hash`] of the
//! bytes, which consistent-hash rings and MRC profilers consume) and the
//! admission-sketch hash (byte-identical to what the cache computed over
//! the raw `Vec<u8>` key, so TinyLFU decisions are unchanged) — plus a
//! dense u32 id that makes cache-index hashing a single word multiply.
//!
//! Interning is a pure wall-clock optimization: every hash an `InternedKey`
//! exposes equals the hash the same byte key produced before, so routing,
//! admission, eviction, and every simulated outcome stay byte-identical.

use crate::cache::legacy_sketch_hash;
use crate::flat::FlatBytes;
use crate::fxhash::FxHasher;
use crate::ring::stable_hash;
use crate::CacheKeyHash;
use std::hash::{Hash, Hasher};

/// A small, copyable stand-in for an interned byte key.
///
/// Equality and hashing go through the dense id (two interned keys are equal
/// iff their bytes were equal, because the interner is bijective), so using
/// `InternedKey` as a `HashMap`/[`crate::Cache`] key costs one word hash
/// instead of a byte-string walk.
#[derive(Debug, Clone, Copy)]
pub struct InternedKey {
    id: u32,
    route_hash: u64,
    sketch_hash: u64,
}

impl InternedKey {
    /// Dense id in `[0, interner.len())`.
    pub fn id(self) -> u32 {
        self.id
    }

    /// [`stable_hash`] of the original bytes — feed to
    /// [`crate::HashRing::shard_for_hashed`] and MRC profilers.
    pub fn route_hash(self) -> u64 {
        self.route_hash
    }
}

impl PartialEq for InternedKey {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}

impl Eq for InternedKey {}

impl Hash for InternedKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u32(self.id);
    }
}

impl CacheKeyHash for InternedKey {
    fn sketch_hash(&self) -> u64 {
        self.sketch_hash
    }
}

/// Bijective bytes ↔ id table. Ids are handed out densely in first-intern
/// order, so a given request stream always produces the same ids.
///
/// Each key is kept once: `entries[id]` holds its bytes — inline when they
/// fit in [`INLINE_BYTES`](crate::flat::INLINE_BYTES), so a short key is no
/// heap object of its own — next to the handle `intern` returns. A small
/// open-addressing index of ids finds the entry from the bytes' FxHash.
#[derive(Debug, Default)]
pub struct KeyInterner {
    entries: Vec<(FlatBytes, InternedKey)>,
    /// A power of two long and at most half full. An occupied slot holds
    /// the low 32 bits of its key's hash above the key's id; the hash
    /// places it (linear probing from `hash & mask`) and screens out most
    /// other keys before their bytes are compared.
    slots: Vec<u64>,
}

/// A free slot; no occupied slot has an all-ones id.
const EMPTY: u64 = u64::MAX;

fn slot_hash(bytes: &[u8]) -> u32 {
    let mut h = FxHasher::default();
    h.write(bytes);
    h.finish() as u32
}

impl KeyInterner {
    pub fn new() -> Self {
        KeyInterner::default()
    }

    /// Number of distinct keys interned so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The id of `bytes`, or the free slot where it would go. The index
    /// must have a free slot.
    fn probe(&self, bytes: &[u8], hash: u32) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let slot = self.slots[i];
            if slot == EMPTY {
                return Err(i);
            }
            let id = slot as u32;
            if (slot >> 32) as u32 == hash && self.entries[id as usize].0.as_slice() == bytes {
                return Ok(id);
            }
            i = (i + 1) & mask;
        }
    }

    /// Double the index (16 slots at first), re-placing every key by the
    /// hash bits its slot keeps.
    fn grow(&mut self) {
        let len = (self.slots.len() * 2).max(16);
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; len]);
        for slot in old.into_iter().filter(|&s| s != EMPTY) {
            let mut i = (slot >> 32) as usize & (len - 1);
            while self.slots[i] != EMPTY {
                i = (i + 1) & (len - 1);
            }
            self.slots[i] = slot;
        }
    }

    /// The id for `bytes`, interning on first sight. The returned key's
    /// hashes equal `stable_hash(bytes)` and the cache's legacy sketch hash
    /// of the same bytes, so downstream behaviour is unchanged.
    pub fn intern(&mut self, bytes: &[u8]) -> InternedKey {
        if 2 * self.entries.len() >= self.slots.len() {
            self.grow();
        }
        let hash = slot_hash(bytes);
        let free = match self.probe(bytes, hash) {
            Ok(id) => return self.entries[id as usize].1,
            Err(free) => free,
        };
        let id = u32::try_from(self.entries.len())
            .ok()
            .filter(|&id| id != u32::MAX)
            .expect("interner overflow");
        let key = InternedKey {
            id,
            route_hash: stable_hash(bytes),
            sketch_hash: legacy_sketch_hash(bytes),
        };
        self.slots[free] = (hash as u64) << 32 | id as u64;
        self.entries.push((FlatBytes::new(bytes), key));
        key
    }

    /// The id for `bytes` if it was interned before (no insertion).
    pub fn get(&self, bytes: &[u8]) -> Option<InternedKey> {
        if self.entries.is_empty() {
            return None;
        }
        let id = self.probe(bytes, slot_hash(bytes)).ok()?;
        Some(self.entries[id as usize].1)
    }

    /// The original bytes of an interned key.
    pub fn resolve(&self, key: InternedKey) -> &[u8] {
        self.entries[key.id as usize].0.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_bijective() {
        let mut i = KeyInterner::new();
        let a = i.intern(b"table/1");
        let b = i.intern(b"table/2");
        let a2 = i.intern(b"table/1");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(i.resolve(a), b"table/1");
        assert_eq!(i.resolve(b), b"table/2");
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn hashes_match_the_byte_key_paths() {
        let mut i = KeyInterner::new();
        for bytes in [b"kv/abcdefg".as_slice(), b"".as_slice(), b"x".as_slice()] {
            let k = i.intern(bytes);
            assert_eq!(k.route_hash(), stable_hash(bytes));
            assert_eq!(k.sketch_hash(), bytes.sketch_hash());
            assert_eq!(k.sketch_hash(), bytes.to_vec().sketch_hash());
        }
    }

    #[test]
    fn many_keys_of_every_form_round_trip_in_first_intern_order() {
        let mut i = KeyInterner::new();
        // Short (inline) and long (boxed) keys, and keys differing only in
        // trailing zeros or length, across several index doublings.
        let keys: Vec<Vec<u8>> = (0..5_000u32)
            .map(|n| {
                let mut k = n.to_be_bytes().to_vec();
                k.resize(4 + (n % 40) as usize, 0);
                k
            })
            .collect();
        for (n, k) in keys.iter().enumerate() {
            assert_eq!(i.intern(k).id(), n as u32);
        }
        for (n, k) in keys.iter().enumerate() {
            assert_eq!(i.intern(k).id(), n as u32);
            assert_eq!(i.get(k).map(InternedKey::id), Some(n as u32));
            assert_eq!(i.resolve(i.get(k).unwrap()), k.as_slice());
        }
        assert_eq!(i.len(), keys.len());
        assert_eq!(i.get(&[0xAB; 47]), None);
    }

    #[test]
    fn keys_whose_slot_hashes_collide_stay_distinct() {
        // Birthday search: among ~10^5 keys two share their 32 slot-hash
        // bits, so the index must tell them apart by their bytes.
        let mut seen = std::collections::HashMap::new();
        let (a, b) = (0u64..)
            .map(|n| format!("kv/{n}").into_bytes())
            .find_map(|k| seen.insert(slot_hash(&k), k.clone()).map(|prev| (prev, k)))
            .unwrap();
        let mut i = KeyInterner::new();
        let (ka, kb) = (i.intern(&a), i.intern(&b));
        assert_ne!(ka, kb);
        assert_eq!(i.get(&a), Some(ka));
        assert_eq!(i.resolve(kb), b.as_slice());
    }

    #[test]
    fn get_does_not_intern() {
        let mut i = KeyInterner::new();
        assert_eq!(i.get(b"missing"), None);
        let k = i.intern(b"present");
        assert_eq!(i.get(b"present"), Some(k));
        assert_eq!(i.len(), 1);
    }
}
