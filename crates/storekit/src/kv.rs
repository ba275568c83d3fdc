//! MVCC key-value engine — the TiKV analogue.
//!
//! Every write is assigned a monotonically increasing commit version; reads
//! see the latest version at or below their snapshot. Deletes write
//! tombstones. This versioning is exactly what the paper's §5.5 version
//! check reads: "returning the row's 8-byte version column".
//!
//! Keys are raw byte strings produced by the order-preserving encoders in
//! this module, so prefix and range scans work for both primary-key and
//! secondary-index layouts:
//!
//! ```text
//! t/<table>/<pk>          -> encoded row          (record space)
//! i/<table>/<col>/<val>/<pk> -> ""                (index space)
//! ```
//!
//! # Entry layout
//!
//! Every storage pod holds a replica of every key it hosts, so the per-key
//! layout sets both the simulator's memory and its allocator traffic. A key
//! and a value up to [`INLINE_BYTES`] long are stored inside the B-tree
//! entry itself (`FlatBytes`); longer ones take one heap object. A key's
//! newest version is stored inline too, and only older versions go in a
//! `Vec`, which stays unallocated while a key has one version. A record key
//! (14 bytes for an integer key) with a `Payload` row (28 bytes) therefore
//! costs no heap object of its own: only its share of a B-tree node.
//!
//! Reads and writes of a key up to [`INLINE_BYTES`] long probe the tree
//! with an inline copy of it, so each node key visited is compared word by
//! word (see [`FlatBytes`]) rather than through a `memcmp` call.

use crate::value::Datum;
pub use cachekit::flat::{FlatBytes, INLINE_BYTES};
use std::collections::BTreeMap;
use std::ops::Bound;

/// A raw storage key.
pub type Key = Vec<u8>;

/// One MVCC version: the commit version and the value (`None` = tombstone).
#[derive(Debug, Clone, PartialEq)]
struct VersionEntry {
    version: u64,
    value: Option<FlatBytes>,
}

impl VersionEntry {
    fn new(version: u64, value: Option<&[u8]>) -> Self {
        VersionEntry {
            version,
            value: value.map(FlatBytes::new),
        }
    }

    fn read(&self) -> Option<VersionedValue<'_>> {
        self.value.as_ref().map(|value| VersionedValue {
            value: value.as_slice(),
            version: self.version,
        })
    }
}

/// All versions of one key: the newest inline, older ones ascending.
#[derive(Debug, Clone, PartialEq)]
struct Versions {
    newest: VersionEntry,
    /// Versions older than `newest`, ascending. Unallocated for a key
    /// written once.
    older: Vec<VersionEntry>,
}

impl Versions {
    fn new(newest: VersionEntry) -> Self {
        Versions {
            newest,
            older: Vec::new(),
        }
    }

    /// The newest entry at or below `snapshot`.
    fn at(&self, snapshot: u64) -> Option<&VersionEntry> {
        if self.newest.version <= snapshot {
            return Some(&self.newest);
        }
        let idx = self.older.partition_point(|v| v.version <= snapshot);
        idx.checked_sub(1).map(|i| &self.older[i])
    }

    /// Make `entry` the newest version.
    fn push(&mut self, entry: VersionEntry) {
        let previous = std::mem::replace(&mut self.newest, entry);
        self.older.push(previous);
    }
}

/// Result of a successful versioned read.
#[derive(Debug, Clone, PartialEq)]
pub struct VersionedValue<'a> {
    pub value: &'a [u8],
    pub version: u64,
}

/// The MVCC store. Single-threaded by design: concurrency in the simulation
/// is modeled by the event kernel, not by host threads.
#[derive(Debug, Clone, PartialEq)]
pub struct KvEngine {
    data: BTreeMap<FlatBytes, Versions>,
    next_version: u64,
    /// Logical bytes written over the engine's lifetime (cost accounting).
    bytes_written: u64,
    /// [`KvEngine::live_bytes`], kept exact by every write and undo.
    live_bytes: u64,
}

impl Default for KvEngine {
    fn default() -> Self {
        KvEngine::new()
    }
}

/// Bytes one key contributes to [`KvEngine::live_bytes`] when `newest` is
/// its newest entry.
fn live_size(key: &[u8], newest: &VersionEntry) -> u64 {
    match &newest.value {
        Some(value) => key.len() as u64 + value.as_slice().len() as u64,
        None => 0,
    }
}

/// A live entry of a scan at `snapshot`, if the key has one.
fn scan_hit<'a>(
    (key, versions): (&'a FlatBytes, &'a Versions),
    snapshot: u64,
) -> Option<(&'a [u8], VersionedValue<'a>)> {
    versions
        .at(snapshot)
        .and_then(VersionEntry::read)
        .map(|v| (key.as_slice(), v))
}

impl KvEngine {
    /// The versions of `key`. A key short enough to be stored inline is
    /// looked up by an inline copy, so the tree compares it word by word.
    #[inline]
    fn versions(&self, key: &[u8]) -> Option<&Versions> {
        if key.len() <= INLINE_BYTES {
            self.data.get(&FlatBytes::new(key))
        } else {
            self.data.get(key)
        }
    }

    /// [`KvEngine::versions`], mutably; borrows only the tree.
    #[inline]
    fn versions_mut<'a>(
        data: &'a mut BTreeMap<FlatBytes, Versions>,
        key: &[u8],
    ) -> Option<&'a mut Versions> {
        if key.len() <= INLINE_BYTES {
            data.get_mut(&FlatBytes::new(key))
        } else {
            data.get_mut(key)
        }
    }

    pub fn new() -> Self {
        KvEngine {
            data: BTreeMap::new(),
            next_version: 1,
            bytes_written: 0,
            live_bytes: 0,
        }
    }

    /// Number of live keys (latest version is not a tombstone).
    pub fn live_keys(&self) -> usize {
        self.data
            .values()
            .filter(|vs| vs.newest.value.is_some())
            .count()
    }

    /// Total version entries retained (for GC tests).
    pub fn version_entries(&self) -> usize {
        self.data.values().map(|vs| 1 + vs.older.len()).sum()
    }

    /// Logical bytes of the live dataset: key plus latest non-tombstone
    /// value per key. This is the size a full snapshot persists. O(1): the
    /// writes and undos that change a key's newest entry keep it current.
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// [`KvEngine::live_bytes`] recomputed by a full scan, to check the
    /// counter against.
    #[cfg(test)]
    fn scanned_live_bytes(&self) -> u64 {
        self.data
            .iter()
            .map(|(k, vs)| live_size(k.as_slice(), &vs.newest))
            .sum()
    }

    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// The version the *next* write will receive.
    pub fn next_version(&self) -> u64 {
        self.next_version
    }

    fn allocate_version(&mut self) -> u64 {
        let v = self.next_version;
        self.next_version += 1;
        v
    }

    /// Write `value` under `key`, returning the assigned commit version.
    pub fn put(&mut self, key: Key, value: Vec<u8>) -> u64 {
        let version = self.allocate_version();
        self.put_at(key, Some(value), version);
        version
    }

    /// Delete `key` (tombstone), returning the commit version.
    pub fn delete(&mut self, key: Key) -> u64 {
        let version = self.allocate_version();
        self.put_at(key, None::<&[u8]>, version);
        version
    }

    /// Apply a write at an explicit version — used by Raft followers
    /// replaying the leader's log so replicas converge on identical state.
    /// Versions must be applied in increasing order per key. Key and value
    /// are borrowed: the engine copies them into its own entry, so every
    /// replica can apply straight from the one raft entry.
    pub fn put_at<K, V>(&mut self, key: K, value: Option<V>, version: u64)
    where
        K: AsRef<[u8]>,
        V: AsRef<[u8]>,
    {
        let key = key.as_ref();
        let value = value.as_ref().map(|v| v.as_ref());
        self.next_version = self.next_version.max(version + 1);
        self.bytes_written += value.map(|v| v.len() as u64).unwrap_or(0);
        let entry = VersionEntry::new(version, value);
        let added = live_size(key, &entry);
        let replaced = match Self::versions_mut(&mut self.data, key) {
            Some(versions) => {
                debug_assert!(versions.newest.version < version, "out-of-order MVCC apply");
                let replaced = live_size(key, &versions.newest);
                versions.push(entry);
                replaced
            }
            None => {
                self.data.insert(FlatBytes::new(key), Versions::new(entry));
                0
            }
        };
        self.live_bytes = self.live_bytes - replaced + added;
    }

    /// Load a run of values sorted by key, then by strictly increasing
    /// version per key — the same state as [`KvEngine::put_at`] on each,
    /// in any order. An empty engine is built in one pass from the run
    /// (`BTreeMap::from_iter` over the grouped keys), which fills every
    /// B-tree node instead of splitting them; otherwise each write takes
    /// the per-key path.
    ///
    /// # Panics
    /// If the run is not sorted that way.
    pub fn load_sorted<K, V>(&mut self, run: impl IntoIterator<Item = (K, u64, V)>)
    where
        K: AsRef<[u8]>,
        V: AsRef<[u8]>,
    {
        if !self.data.is_empty() {
            for (key, version, value) in run {
                self.put_at(key, Some(value), version);
            }
            return;
        }
        let mut grouped: Vec<(FlatBytes, Versions)> = Vec::new();
        for (key, version, value) in run {
            let (key, value) = (key.as_ref(), value.as_ref());
            self.next_version = self.next_version.max(version + 1);
            self.bytes_written += value.len() as u64;
            let entry = VersionEntry::new(version, Some(value));
            match grouped.last_mut() {
                Some((last, versions)) if last.as_slice() == key => {
                    assert!(
                        versions.newest.version < version,
                        "load_sorted: versions out of order"
                    );
                    versions.push(entry);
                }
                last => {
                    assert!(
                        last.is_none_or(|(k, _)| k.as_slice() < key),
                        "load_sorted: keys out of order"
                    );
                    grouped.push((FlatBytes::new(key), Versions::new(entry)));
                }
            }
        }
        self.live_bytes = grouped
            .iter()
            .map(|(k, vs)| live_size(k.as_slice(), &vs.newest))
            .sum();
        self.data = grouped.into_iter().collect();
    }

    /// Take back the newest write to `key`, which must carry `version`:
    /// crash recovery pops a pod's un-fsynced WAL tail off its live engine,
    /// newest first. Restores [`KvEngine::bytes_written`] and
    /// [`KvEngine::live_bytes`], and drops the key once no entry is left.
    /// Leaves `next_version` alone (see [`KvEngine::reset_next_version`]).
    ///
    /// # Panics
    /// If the key's newest entry is not `version`, in release builds too:
    /// the engine then holds state its WAL never saw.
    pub fn undo_put_at(&mut self, key: &[u8], version: u64) {
        let versions = Self::versions_mut(&mut self.data, key);
        let newest = versions.as_ref().map(|vs| vs.newest.version);
        assert!(
            newest == Some(version),
            "undo_put_at: newest entry of key {key:?} is {newest:?}, not the WAL record's \
             version {version}; pod engines must never be gc'd and every pod mutation must \
             go through durable_apply"
        );
        let versions = versions.expect("checked above");
        if let Some(value) = &versions.newest.value {
            let len = value.as_slice().len() as u64;
            self.bytes_written -= len;
            self.live_bytes -= key.len() as u64 + len;
        }
        match versions.older.pop() {
            Some(restored) => {
                self.live_bytes += live_size(key, &restored);
                versions.newest = restored;
                if versions.older.is_empty() {
                    versions.older = Vec::new();
                }
            }
            None => {
                self.data.remove(key);
            }
        }
    }

    /// Set the version the next write will receive. Recovery uses this once
    /// it has undone writes, so the counter matches what was kept.
    pub(crate) fn reset_next_version(&mut self, next_version: u64) {
        self.next_version = next_version;
    }

    /// Read the latest committed version of `key`.
    pub fn get_latest(&self, key: &[u8]) -> Option<VersionedValue<'_>> {
        self.versions(key)?.newest.read()
    }

    /// Read `key` at `snapshot`: the newest version ≤ snapshot. Tombstones
    /// return `None`.
    pub fn get_at(&self, key: &[u8], snapshot: u64) -> Option<VersionedValue<'_>> {
        self.versions(key)?.at(snapshot)?.read()
    }

    /// The latest version number recorded for `key`, even if a tombstone —
    /// this is what a version check compares against.
    pub fn latest_version(&self, key: &[u8]) -> Option<u64> {
        self.versions(key).map(|vs| vs.newest.version)
    }

    /// Scan live entries whose key starts with `prefix`, at `snapshot`, in
    /// key order. Returns (key, value, version) triples.
    pub fn scan_prefix<'a>(
        &'a self,
        prefix: &'a [u8],
        snapshot: u64,
    ) -> impl Iterator<Item = (&'a [u8], VersionedValue<'a>)> + 'a {
        self.data
            .range::<[u8], _>((Bound::Included(prefix), Bound::Unbounded))
            .take_while(move |(k, _)| k.as_slice().starts_with(prefix))
            .filter_map(move |hit| scan_hit(hit, snapshot))
    }

    /// Scan live entries with keys in `[start, end_exclusive)` (unbounded
    /// above when `end_exclusive` is `None`), at `snapshot`, in key order.
    pub fn scan_between<'a>(
        &'a self,
        start: &[u8],
        end_exclusive: Option<&'a [u8]>,
        snapshot: u64,
    ) -> impl Iterator<Item = (&'a [u8], VersionedValue<'a>)> + 'a {
        self.data
            .range::<[u8], _>((Bound::Included(start), Bound::Unbounded))
            .take_while(move |(k, _)| end_exclusive.is_none_or(|end| k.as_slice() < end))
            .filter_map(move |hit| scan_hit(hit, snapshot))
    }

    /// Garbage-collect versions strictly older than `keep_after`, always
    /// retaining the newest version of each key. Fully-dead keys (tombstone
    /// older than the horizon) are dropped. Returns entries reclaimed.
    pub fn gc(&mut self, keep_after: u64) -> usize {
        let mut reclaimed = 0;
        self.data.retain(|_, versions| {
            let old = versions.older.partition_point(|v| v.version < keep_after);
            reclaimed += old;
            versions.older.drain(..old);
            if versions.older.is_empty() {
                versions.older = Vec::new();
            }
            // Drop the key entirely if all that remains is an old tombstone.
            let newest = &versions.newest;
            if newest.value.is_none() && newest.version < keep_after {
                reclaimed += 1 + versions.older.len();
                false
            } else {
                true
            }
        });
        reclaimed
    }
}

// ---------------------------------------------------------------------------
// Order-preserving key encoding
// ---------------------------------------------------------------------------

/// Encode a datum so that byte-wise key order matches SQL value order within
/// a type. Ints get their sign bit flipped and go big-endian; text/bytes are
/// terminated with `0x00 0x01` and embedded zeros escaped as `0x00 0xFF`
/// (the standard escape so prefixes cannot collide).
pub fn encode_key_datum(out: &mut Vec<u8>, d: &Datum) {
    match d {
        Datum::Null => out.push(0x00),
        Datum::Bool(b) => {
            out.push(0x01);
            out.push(*b as u8);
        }
        Datum::Int(i) => {
            out.push(0x02);
            out.extend_from_slice(&((*i as u64) ^ (1u64 << 63)).to_be_bytes());
        }
        Datum::Float(x) => {
            // Standard total-order float encoding: flip sign bit for
            // positives, flip all bits for negatives.
            let bits = x.to_bits();
            let ordered = if bits >> 63 == 0 {
                bits ^ (1u64 << 63)
            } else {
                !bits
            };
            out.push(0x03);
            out.extend_from_slice(&ordered.to_be_bytes());
        }
        Datum::Text(s) => {
            out.push(0x04);
            escape_bytes(out, s.as_bytes());
        }
        Datum::Bytes(b) => {
            out.push(0x05);
            escape_bytes(out, b);
        }
        Datum::Payload { len, seed } => {
            out.push(0x06);
            out.extend_from_slice(&len.to_be_bytes());
            out.extend_from_slice(&seed.to_be_bytes());
        }
    }
}

fn escape_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    for &b in bytes {
        if b == 0x00 {
            out.extend_from_slice(&[0x00, 0xFF]);
        } else {
            out.push(b);
        }
    }
    out.extend_from_slice(&[0x00, 0x01]);
}

/// Record-space key for a row: `t/<table>/<pk>`.
pub fn record_key(table: &str, pk: &Datum) -> Key {
    let mut k = Vec::with_capacity(table.len() + 16);
    record_key_into(&mut k, table, pk);
    k
}

/// [`record_key`] into a caller-owned buffer (cleared first), so the serve
/// path can reuse one scratch allocation across requests.
pub fn record_key_into(k: &mut Key, table: &str, pk: &Datum) {
    k.clear();
    k.extend_from_slice(b"t/");
    k.extend_from_slice(table.as_bytes());
    k.push(b'/');
    encode_key_datum(k, pk);
}

/// Prefix covering all rows of a table.
pub fn record_prefix(table: &str) -> Key {
    let mut k = Vec::with_capacity(table.len() + 3);
    k.extend_from_slice(b"t/");
    k.extend_from_slice(table.as_bytes());
    k.push(b'/');
    k
}

/// Conservative byte bounds for record keys whose primary key lies in
/// `[lo, hi]`; same contract as [`index_range_bounds`].
pub fn record_range_bounds(
    table: &str,
    lo: Option<&Datum>,
    hi: Option<&Datum>,
) -> (Key, Option<Key>) {
    let prefix = record_prefix(table);
    let start = match lo {
        Some(d) => {
            let mut k = prefix.clone();
            encode_key_datum(&mut k, d);
            k
        }
        None => prefix.clone(),
    };
    let end = match hi {
        Some(d) => {
            let mut k = prefix.clone();
            encode_key_datum(&mut k, d);
            k.push(0xFF);
            Some(k)
        }
        None => {
            let mut k = prefix;
            let last = k.last_mut().expect("prefix non-empty");
            *last += 1;
            Some(k)
        }
    };
    (start, end)
}

/// Index-space key: `i/<table>/<col>/<val>/<pk>`.
pub fn index_key(table: &str, column: usize, value: &Datum, pk: &Datum) -> Key {
    let mut k = index_prefix(table, column, value);
    encode_key_datum(&mut k, pk);
    k
}

/// Prefix covering all index entries for one (column, value) pair.
pub fn index_prefix(table: &str, column: usize, value: &Datum) -> Key {
    let mut k = index_column_prefix(table, column);
    encode_key_datum(&mut k, value);
    k
}

/// Prefix covering *all* index entries of one column (any value).
pub fn index_column_prefix(table: &str, column: usize) -> Key {
    let mut k = Vec::with_capacity(table.len() + 24);
    k.extend_from_slice(b"i/");
    k.extend_from_slice(table.as_bytes());
    k.push(b'/');
    k.extend_from_slice(&(column as u32).to_be_bytes());
    k.push(b'/');
    k
}

/// Conservative byte bounds for index entries whose column value lies in
/// `[lo, hi]` (either side optional). The returned range may include a few
/// neighbors — callers re-filter rows with the original predicate — but
/// never excludes a matching entry. Works because `encode_key_datum` is
/// order-preserving and prefix-free.
pub fn index_range_bounds(
    table: &str,
    column: usize,
    lo: Option<&Datum>,
    hi: Option<&Datum>,
) -> (Key, Option<Key>) {
    let prefix = index_column_prefix(table, column);
    let start = match lo {
        Some(d) => {
            let mut k = prefix.clone();
            encode_key_datum(&mut k, d);
            k
        }
        None => prefix.clone(),
    };
    let end = match hi {
        Some(d) => {
            let mut k = prefix.clone();
            encode_key_datum(&mut k, d);
            k.push(0xFF); // strictly after every pk suffix for this value
            Some(k)
        }
        None => {
            // End of the column prefix: bump the last byte ('/' < 0xFF).
            let mut k = prefix;
            let last = k.last_mut().expect("prefix non-empty");
            *last += 1;
            Some(k)
        }
    };
    (start, end)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(s: &str) -> Key {
        s.as_bytes().to_vec()
    }

    #[test]
    fn put_then_get_latest() {
        let mut kv = KvEngine::new();
        let v1 = kv.put(key("a"), b"one".to_vec());
        let got = kv.get_latest(b"a").unwrap();
        assert_eq!(got.value, b"one");
        assert_eq!(got.version, v1);
    }

    #[test]
    fn versions_are_monotonic_and_snapshot_reads_work() {
        let mut kv = KvEngine::new();
        let v1 = kv.put(key("a"), b"one".to_vec());
        let v2 = kv.put(key("a"), b"two".to_vec());
        assert!(v2 > v1);
        assert_eq!(kv.get_at(b"a", v1).unwrap().value, b"one");
        assert_eq!(kv.get_at(b"a", v2).unwrap().value, b"two");
        assert_eq!(kv.get_at(b"a", v1 - 1), None);
        assert_eq!(kv.get_latest(b"a").unwrap().value, b"two");
    }

    #[test]
    fn delete_writes_tombstone_with_version() {
        let mut kv = KvEngine::new();
        let v1 = kv.put(key("a"), b"x".to_vec());
        let v2 = kv.delete(key("a"));
        assert_eq!(kv.get_latest(b"a"), None);
        assert_eq!(kv.get_at(b"a", v1).unwrap().value, b"x");
        assert_eq!(kv.latest_version(b"a"), Some(v2));
        assert_eq!(kv.live_keys(), 0);
    }

    #[test]
    fn put_at_replays_deterministically() {
        let mut leader = KvEngine::new();
        let mut follower = KvEngine::new();
        let v1 = leader.put(key("a"), b"1".to_vec());
        let v2 = leader.put(key("b"), b"2".to_vec());
        follower.put_at(key("a"), Some(b"1".to_vec()), v1);
        follower.put_at(key("b"), Some(b"2".to_vec()), v2);
        assert_eq!(leader.get_latest(b"a"), follower.get_latest(b"a"));
        assert_eq!(follower.next_version(), leader.next_version());
    }

    #[test]
    fn scan_prefix_returns_sorted_live_rows() {
        let mut kv = KvEngine::new();
        kv.put(key("t/users/b"), b"2".to_vec());
        kv.put(key("t/users/a"), b"1".to_vec());
        kv.put(key("t/orders/z"), b"9".to_vec());
        kv.delete(key("t/users/b"));
        let hits: Vec<_> = kv
            .scan_prefix(b"t/users/", u64::MAX)
            .map(|(k, v)| (k.to_vec(), v.value.to_vec()))
            .collect();
        assert_eq!(hits, vec![(key("t/users/a"), b"1".to_vec())]);
    }

    #[test]
    fn scan_respects_snapshot() {
        let mut kv = KvEngine::new();
        let v1 = kv.put(key("p/a"), b"old".to_vec());
        kv.put(key("p/a"), b"new".to_vec());
        kv.put(key("p/b"), b"later".to_vec());
        let at_v1: Vec<_> = kv
            .scan_prefix(b"p/", v1)
            .map(|(_, v)| v.value.to_vec())
            .collect();
        assert_eq!(at_v1, vec![b"old".to_vec()]);
    }

    #[test]
    fn gc_keeps_latest_and_reclaims_old() {
        let mut kv = KvEngine::new();
        for i in 0..10 {
            kv.put(key("a"), vec![i]);
        }
        let horizon = kv.next_version();
        assert_eq!(kv.version_entries(), 10);
        let reclaimed = kv.gc(horizon);
        assert_eq!(reclaimed, 9);
        assert_eq!(kv.version_entries(), 1);
        assert_eq!(kv.get_latest(b"a").unwrap().value, &[9]);
    }

    #[test]
    fn gc_drops_dead_keys_entirely() {
        let mut kv = KvEngine::new();
        kv.put(key("a"), b"x".to_vec());
        kv.delete(key("a"));
        kv.gc(kv.next_version());
        assert_eq!(kv.version_entries(), 0);
        assert_eq!(kv.latest_version(b"a"), None);
    }

    #[test]
    fn default_is_new() {
        // Recovery of a pod with no snapshot starts from `Default`; it must
        // hand out version 1 first, like `new()`.
        assert_eq!(KvEngine::default(), KvEngine::new());
        assert_eq!(KvEngine::default().next_version(), 1);
    }

    #[test]
    fn live_bytes_counter_matches_scan_over_random_streams() {
        let mut state = 0x5eed_u64;
        let mut next = move || {
            // splitmix64
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for _case in 0..64 {
            let mut kv = KvEngine::new();
            for version in 1..=400u64 {
                let k = vec![b'k', (next() % 24) as u8, 0, (next() % 3) as u8];
                match next() % 10 {
                    0..=4 => {
                        let len = (next() % 40) as usize;
                        kv.put_at(k, Some(vec![7; len]), version);
                    }
                    5 | 6 => kv.put_at(k, None::<&[u8]>, version),
                    7 => {
                        kv.gc(version.saturating_sub(next() % 50));
                    }
                    _ => {
                        if let Some(newest) = kv.latest_version(&k) {
                            let written = kv.bytes_written();
                            let popped = kv.get_latest(&k).map(|v| v.value.len() as u64);
                            kv.undo_put_at(&k, newest);
                            assert_eq!(kv.bytes_written(), written - popped.unwrap_or(0));
                        }
                    }
                }
                assert_eq!(kv.live_bytes(), kv.scanned_live_bytes());
            }
        }
    }

    #[test]
    fn undo_restores_the_previous_state_and_drops_emptied_keys() {
        let mut kv = KvEngine::new();
        kv.put_at(key("a"), Some(b"one".to_vec()), 3);
        let before = kv.clone();
        kv.put_at(key("a"), None::<&[u8]>, 5);
        kv.put_at(key("b"), Some(b"two".to_vec()), 6);
        kv.undo_put_at(b"b", 6);
        kv.undo_put_at(b"a", 5);
        kv.reset_next_version(before.next_version());
        assert_eq!(kv, before);
        kv.undo_put_at(b"a", 3);
        kv.reset_next_version(1);
        assert_eq!(kv, KvEngine::new());
    }

    #[test]
    #[should_panic(expected = "pod engines must never be gc'd")]
    fn undo_of_a_version_that_is_not_newest_panics() {
        let mut kv = KvEngine::new();
        kv.put_at(key("a"), Some(b"one".to_vec()), 1);
        kv.put_at(key("a"), Some(b"two".to_vec()), 2);
        kv.undo_put_at(b"a", 1);
    }

    #[test]
    #[should_panic(expected = "every pod mutation must go through durable_apply")]
    fn undo_of_a_missing_key_panics() {
        let mut kv = KvEngine::new();
        kv.undo_put_at(b"a", 1);
    }

    #[test]
    fn int_key_encoding_preserves_order() {
        let ints = [i64::MIN, -5, -1, 0, 1, 7, i64::MAX];
        let mut keys: Vec<Key> = ints
            .iter()
            .map(|&i| record_key("t", &Datum::Int(i)))
            .collect();
        let sorted = keys.clone();
        keys.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn float_key_encoding_preserves_order() {
        let floats = [f64::NEG_INFINITY, -2.5, -0.0, 0.0, 1.5, f64::INFINITY];
        let enc = |x: f64| {
            let mut k = Vec::new();
            encode_key_datum(&mut k, &Datum::Float(x));
            k
        };
        for w in floats.windows(2) {
            assert!(enc(w[0]) <= enc(w[1]), "{} !<= {}", w[0], w[1]);
        }
    }

    #[test]
    fn text_keys_with_embedded_nul_do_not_collide() {
        let a = record_key("t", &Datum::Text("a\0b".into()));
        let b = record_key("t", &Datum::Text("a".into()));
        let c = record_key("t", &Datum::Text("a\0".into()));
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
        // "a" < "a\0" < "a\0b" in value order must hold in byte order.
        assert!(b < c && c < a);
    }

    #[test]
    fn scan_between_respects_bounds() {
        let mut kv = KvEngine::new();
        for i in 0..10u8 {
            kv.put(vec![b'k', i], vec![i]);
        }
        let hits: Vec<u8> = kv
            .scan_between(&[b'k', 3], Some(&[b'k', 7]), u64::MAX)
            .map(|(_, v)| v.value[0])
            .collect();
        assert_eq!(hits, vec![3, 4, 5, 6]);
        let open_ended: Vec<u8> = kv
            .scan_between(&[b'k', 8], None, u64::MAX)
            .map(|(_, v)| v.value[0])
            .collect();
        assert_eq!(open_ended, vec![8, 9]);
    }

    #[test]
    fn index_range_bounds_cover_matching_values_exactly() {
        // Build index keys for ints 0..20 and check the [5, 12] bounds.
        let keys: Vec<Key> = (0..20i64)
            .map(|v| index_key("t", 1, &Datum::Int(v), &Datum::Int(v * 100)))
            .collect();
        let (start, end) = index_range_bounds("t", 1, Some(&Datum::Int(5)), Some(&Datum::Int(12)));
        let end = end.unwrap();
        let selected: Vec<usize> = keys
            .iter()
            .enumerate()
            .filter(|(_, k)| k.as_slice() >= start.as_slice() && k.as_slice() < end.as_slice())
            .map(|(i, _)| i)
            .collect();
        assert_eq!(selected, (5..=12).collect::<Vec<_>>());
        // Unbounded sides cover everything on that side.
        let (start, _) = index_range_bounds("t", 1, None, Some(&Datum::Int(3)));
        assert!(keys
            .iter()
            .take(4)
            .all(|k| k.as_slice() >= start.as_slice()));
        let (_, end) = index_range_bounds("t", 1, Some(&Datum::Int(17)), None);
        let end = end.unwrap();
        assert!(keys.iter().skip(17).all(|k| k.as_slice() < end.as_slice()));
        // Other columns are never inside the bounds.
        let other = index_key("t", 2, &Datum::Int(7), &Datum::Int(0));
        assert!(other.as_slice() >= end.as_slice() || other.as_slice() < start.as_slice());
    }

    #[test]
    fn index_prefix_isolates_column_and_value() {
        let p1 = index_prefix("t", 1, &Datum::Int(5));
        let k_same = index_key("t", 1, &Datum::Int(5), &Datum::Int(1));
        let k_other_val = index_key("t", 1, &Datum::Int(6), &Datum::Int(1));
        let k_other_col = index_key("t", 2, &Datum::Int(5), &Datum::Int(1));
        assert!(k_same.starts_with(&p1));
        assert!(!k_other_val.starts_with(&p1));
        assert!(!k_other_col.starts_with(&p1));
    }

    #[test]
    fn record_prefix_covers_only_that_table() {
        let k = record_key("users", &Datum::Int(1));
        assert!(k.starts_with(&record_prefix("users")));
        assert!(!k.starts_with(&record_prefix("user")));
        // distinct tables with common prefixes stay separate
        let k2 = record_key("users_ext", &Datum::Int(1));
        assert!(!k2.starts_with(&record_prefix("users")));
    }
}
