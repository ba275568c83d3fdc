//! Differential oracle for the flat MVCC entry layout.
//!
//! `KvEngine` stores short keys and values inline, keeps each key's newest
//! version inline and builds empty engines from sorted runs. [`Reference`]
//! below is the layout it replaces — a `BTreeMap<Vec<u8>, Vec<VersionEntry>>`
//! with every version in one vector — and a seeded run of writes, deletes,
//! undos, gcs and sorted loads must leave both answering every read, scan
//! and counter identically. Keys and values of 0 bytes, of exactly
//! `INLINE_BYTES` and of one byte more are all in the mix, and a second run
//! uses keys that differ only by trailing zero bytes or by length — the
//! keys that the word-wise comparison of inline keys could confuse.

use cachekit::ring::stable_hash;
use cachekit::FlatBytes;
use std::collections::BTreeMap;
use std::ops::Bound;
use storekit::kv::{index_key, record_key, KvEngine, INLINE_BYTES};
use storekit::schema::{ColumnDef, ColumnType, TableSchema};
use storekit::{Catalog, ClusterConfig, Datum, Row, SqlCluster};

#[derive(Debug, Clone)]
struct VersionEntry {
    version: u64,
    value: Option<Vec<u8>>,
}

/// The one-vector-per-key engine.
#[derive(Debug, Default)]
struct Reference {
    data: BTreeMap<Vec<u8>, Vec<VersionEntry>>,
    next_version: u64,
    bytes_written: u64,
}

impl Reference {
    fn new() -> Self {
        Reference {
            next_version: 1,
            ..Default::default()
        }
    }

    fn put_at(&mut self, key: &[u8], value: Option<&[u8]>, version: u64) {
        self.next_version = self.next_version.max(version + 1);
        self.bytes_written += value.map_or(0, |v| v.len() as u64);
        let versions = self.data.entry(key.to_vec()).or_default();
        assert!(versions.last().is_none_or(|l| l.version < version));
        versions.push(VersionEntry {
            version,
            value: value.map(<[u8]>::to_vec),
        });
    }

    fn delete(&mut self, key: &[u8]) -> u64 {
        let version = self.next_version;
        self.put_at(key, None, version);
        version
    }

    fn undo_put_at(&mut self, key: &[u8], version: u64) {
        let versions = self.data.get_mut(key).expect("undo of a present key");
        let popped = versions.pop().expect("at least one version");
        assert_eq!(popped.version, version);
        self.bytes_written -= popped.value.map_or(0, |v| v.len() as u64);
        if versions.is_empty() {
            self.data.remove(key);
        }
    }

    fn read(versions: &[VersionEntry], snapshot: u64) -> Option<(Vec<u8>, u64)> {
        let idx = versions.partition_point(|v| v.version <= snapshot);
        let entry = &versions[idx.checked_sub(1)?];
        entry.value.clone().map(|v| (v, entry.version))
    }

    fn get_at(&self, key: &[u8], snapshot: u64) -> Option<(Vec<u8>, u64)> {
        Self::read(self.data.get(key)?, snapshot)
    }

    fn latest_version(&self, key: &[u8]) -> Option<u64> {
        self.data
            .get(key)
            .and_then(|vs| vs.last())
            .map(|v| v.version)
    }

    fn scan(&self, start: &[u8], keep: impl Fn(&[u8]) -> bool, snapshot: u64) -> Vec<ScanHit> {
        self.data
            .range::<[u8], _>((Bound::Included(start), Bound::Unbounded))
            .take_while(|(k, _)| keep(k))
            .filter_map(|(k, vs)| Self::read(vs, snapshot).map(|(v, ver)| (k.clone(), v, ver)))
            .collect()
    }

    fn gc(&mut self, keep_after: u64) -> usize {
        let mut reclaimed = 0;
        self.data.retain(|_, versions| {
            let keep_from = versions
                .partition_point(|v| v.version < keep_after)
                .min(versions.len() - 1);
            reclaimed += keep_from;
            versions.drain(..keep_from);
            let last = versions.last().expect("newest kept");
            if last.value.is_none() && last.version < keep_after {
                reclaimed += versions.len();
                false
            } else {
                true
            }
        });
        reclaimed
    }

    fn live_bytes(&self) -> u64 {
        self.data
            .iter()
            .filter_map(|(k, vs)| {
                vs.last()?
                    .value
                    .as_ref()
                    .map(|v| (k.len() + v.len()) as u64)
            })
            .sum()
    }

    fn live_keys(&self) -> usize {
        self.data
            .values()
            .filter(|vs| vs.last().is_some_and(|v| v.value.is_some()))
            .count()
    }

    fn version_entries(&self) -> usize {
        self.data.values().map(Vec::len).sum()
    }
}

type ScanHit = (Vec<u8>, Vec<u8>, u64);

/// splitmix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}

/// Lengths around the inline bound, plus the two real record shapes (a
/// 14-byte kv record key, a 28-byte `Payload` row).
const LENGTHS: [usize; 9] = [
    0,
    1,
    5,
    14,
    28,
    INLINE_BYTES - 1,
    INLINE_BYTES,
    INLINE_BYTES + 1,
    47,
];

/// Bytes from a small alphabet, so keys share prefixes and scans overlap.
fn bytes(rng: &mut Rng, len: usize) -> Vec<u8> {
    (0..len).map(|_| *rng.pick(&[0u8, 1, b'a', 0xFF])).collect()
}

/// A key pool: a few keys of every length, and every key's prefixes
/// reachable through scans.
fn key_pool(rng: &mut Rng) -> Vec<Vec<u8>> {
    let mut pool: Vec<Vec<u8>> = LENGTHS
        .iter()
        .flat_map(|&len| (0..4).map(move |_| len))
        .map(|len| bytes(rng, len))
        .collect();
    pool.sort();
    pool.dedup();
    pool
}

/// Keys that differ only by trailing zero bytes or by length: a few base
/// keys, each with zeros appended up to and past the inline bound, plus all
/// its prefixes. Inline keys compare by zero-padded words, so these are the
/// keys that padding could confuse.
fn zero_tail_pool(rng: &mut Rng) -> Vec<Vec<u8>> {
    let mut pool = Vec::new();
    for _ in 0..3 {
        let len = *rng.pick(&[0, 1, 5, 14]);
        let base = bytes(rng, len);
        for total in [
            len,
            len + 1,
            len + 2,
            len + 8,
            INLINE_BYTES,
            INLINE_BYTES + 1,
            47,
        ] {
            let mut key = base.clone();
            key.resize(total, 0);
            pool.push(key);
        }
        pool.extend((0..len).map(|cut| base[..cut].to_vec()));
    }
    pool.sort();
    pool.dedup();
    pool
}

/// Coverage counters: each path the run must actually take.
#[derive(Debug, Default)]
struct Coverage {
    loads_into_empty: u64,
    loads_into_nonempty: u64,
    undos: u64,
    older_version_reads: u64,
    tombstone_reads: u64,
    inline_bound_values: u64,
    past_bound_values: u64,
    gc_reclaims: u64,
}

/// The engine under test and the reference, driven in lockstep.
struct Lockstep {
    kv: KvEngine,
    reference: Reference,
    /// Fault injection for the negative case: drop this many leading
    /// entries from every non-empty scan of the engine under test.
    skip_scan_entries: usize,
}

impl Lockstep {
    fn new() -> Self {
        Lockstep {
            kv: KvEngine::new(),
            reference: Reference::new(),
            skip_scan_entries: 0,
        }
    }

    fn put_at(&mut self, key: &[u8], value: Option<&[u8]>, version: u64) {
        self.kv.put_at(key, value, version);
        self.reference.put_at(key, value, version);
    }

    fn got_scan<'a>(
        &self,
        hits: impl Iterator<Item = (&'a [u8], storekit::kv::VersionedValue<'a>)>,
    ) -> Vec<ScanHit> {
        hits.skip(self.skip_scan_entries)
            .map(|(k, v)| (k.to_vec(), v.value.to_vec(), v.version))
            .collect()
    }

    /// Every observable of both engines, with reads at `snapshots` and
    /// scans from each of `starts`.
    fn check(
        &self,
        pool: &[Vec<u8>],
        snapshots: &[u64],
        starts: &[(Vec<u8>, Option<Vec<u8>>)],
    ) -> Result<(), String> {
        let (kv, r) = (&self.kv, &self.reference);
        let counters = [
            ("live_bytes", kv.live_bytes(), r.live_bytes()),
            ("live_keys", kv.live_keys() as u64, r.live_keys() as u64),
            (
                "version_entries",
                kv.version_entries() as u64,
                r.version_entries() as u64,
            ),
            ("bytes_written", kv.bytes_written(), r.bytes_written),
            ("next_version", kv.next_version(), r.next_version),
        ];
        for (name, got, want) in counters {
            if got != want {
                return Err(format!("{name}: engine {got}, reference {want}"));
            }
        }
        for key in pool {
            if kv.latest_version(key) != r.latest_version(key) {
                return Err(format!("latest_version of {key:?} differs"));
            }
            for &snapshot in snapshots {
                let got = kv
                    .get_at(key, snapshot)
                    .map(|v| (v.value.to_vec(), v.version));
                let want = r.get_at(key, snapshot);
                if got != want {
                    return Err(format!("get_at({key:?}, {snapshot}): {got:?} vs {want:?}"));
                }
            }
            let latest = kv.get_latest(key).map(|v| (v.value.to_vec(), v.version));
            if latest != r.get_at(key, u64::MAX) {
                return Err(format!("get_latest({key:?}) differs"));
            }
        }
        for (start, end) in starts {
            for &snapshot in snapshots {
                let got = self.got_scan(kv.scan_prefix(start, snapshot));
                let want = r.scan(start, |k| k.starts_with(start), snapshot);
                if got != want {
                    return Err(format!(
                        "scan_prefix({start:?}, {snapshot}): {got:?} vs {want:?}"
                    ));
                }
                let got = self.got_scan(kv.scan_between(start, end.as_deref(), snapshot));
                let want = r.scan(
                    start,
                    |k| end.as_ref().is_none_or(|e| k < e.as_slice()),
                    snapshot,
                );
                if got != want {
                    return Err(format!(
                        "scan_between({start:?}, {end:?}, {snapshot}): {got:?} vs {want:?}"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// One seeded case: `ops` random operations from a fresh pair, checked
/// after each.
fn run_case(
    seed: u64,
    ops: usize,
    skip_scan_entries: usize,
    pool_of: fn(&mut Rng) -> Vec<Vec<u8>>,
    cov: &mut Coverage,
) -> Result<(), String> {
    let mut rng = Rng(seed);
    let pool = pool_of(&mut rng);
    let mut pair = Lockstep::new();
    pair.skip_scan_entries = skip_scan_entries;
    for step in 0..ops {
        let value_len = *rng.pick(&LENGTHS);
        match rng.below(16) {
            0..=5 => {
                let key = rng.pick(&pool).clone();
                let value = bytes(&mut rng, value_len);
                cov.inline_bound_values += (value_len == INLINE_BYTES) as u64;
                cov.past_bound_values += (value_len == INLINE_BYTES + 1) as u64;
                let version = pair.kv.next_version() + rng.below(3);
                pair.put_at(&key, Some(value.as_slice()), version);
            }
            6 | 7 => {
                let key = rng.pick(&pool).clone();
                let got = pair.kv.delete(key.clone());
                let want = pair.reference.delete(&key);
                if got != want {
                    return Err(format!("step {step}: delete versions {got} vs {want}"));
                }
            }
            8 | 9 => {
                let key = rng.pick(&pool).clone();
                if let Some(version) = pair.reference.latest_version(&key) {
                    pair.kv.undo_put_at(&key, version);
                    pair.reference.undo_put_at(&key, version);
                    cov.undos += 1;
                }
            }
            10 => {
                let keep_after = rng.below(pair.reference.next_version + 1);
                let got = pair.kv.gc(keep_after);
                let want = pair.reference.gc(keep_after);
                if got != want {
                    return Err(format!(
                        "step {step}: gc({keep_after}) reclaimed {got} vs {want}"
                    ));
                }
                cov.gc_reclaims += (got > 0) as u64;
            }
            11 => {
                // A sorted load: keys in order, a key possibly twice with
                // increasing versions, values at every length.
                let mut keys: Vec<Vec<u8>> = (0..rng.below(12))
                    .map(|_| rng.pick(&pool).clone())
                    .collect();
                keys.sort();
                let base = pair.kv.next_version();
                let run: Vec<(Vec<u8>, u64, Vec<u8>)> = keys
                    .into_iter()
                    .enumerate()
                    .map(|(i, k)| {
                        let len = *rng.pick(&LENGTHS);
                        (k, base + i as u64, bytes(&mut rng, len))
                    })
                    .collect();
                if pair.reference.data.is_empty() {
                    cov.loads_into_empty += !run.is_empty() as u64;
                } else {
                    cov.loads_into_nonempty += !run.is_empty() as u64;
                }
                for (k, v, value) in &run {
                    pair.reference.put_at(k, Some(value.as_slice()), *v);
                }
                pair.kv.load_sorted(run);
            }
            _ => {
                // Pure reads: the check below does them.
            }
        }
        let next = pair.reference.next_version;
        let snapshots = [0, rng.below(next + 1), rng.below(next + 1), next, u64::MAX];
        for key in &pool {
            if let Some(vs) = pair.reference.data.get(key) {
                let older = vs.len() > 1
                    && snapshots
                        .iter()
                        .any(|&s| s >= vs[0].version && s < vs[vs.len() - 1].version);
                cov.older_version_reads += older as u64;
                cov.tombstone_reads += vs.iter().any(|v| v.value.is_none()) as u64;
            }
        }
        let mut starts = Vec::new();
        for _ in 0..3 {
            let key = rng.pick(&pool);
            let start = key[..rng.below(key.len() as u64 + 1) as usize].to_vec();
            let end = match rng.below(3) {
                0 => None,
                _ => Some(rng.pick(&pool).clone()),
            };
            starts.push((start, end));
        }
        pair.check(&pool, &snapshots, &starts)
            .map_err(|e| format!("seed {seed:#x}, step {step}: {e}"))?;
    }
    Ok(())
}

#[test]
fn flat_layout_matches_the_vector_per_key_reference() {
    let mut cov = Coverage::default();
    for case in 0..200u64 {
        run_case(0x1a70_0000 + case, 120, 0, key_pool, &mut cov).unwrap();
    }
    let paths = [
        cov.loads_into_empty,
        cov.loads_into_nonempty,
        cov.undos,
        cov.older_version_reads,
        cov.tombstone_reads,
        cov.inline_bound_values,
        cov.past_bound_values,
        cov.gc_reclaims,
    ];
    assert!(
        paths.iter().all(|&n| n > 0),
        "a path went unexercised: {cov:?}"
    );
}

#[test]
fn keys_differing_by_trailing_zeros_or_length_match_the_reference() {
    let mut cov = Coverage::default();
    for case in 0..200u64 {
        run_case(0x2e40_0000 + case, 120, 0, zero_tail_pool, &mut cov).unwrap();
    }
    assert!(cov.undos > 0 && cov.loads_into_empty > 0 && cov.older_version_reads > 0);
}

/// `FlatBytes` orders and equates strings exactly as their slices do, at
/// the lengths around the inline bound, for unrelated strings and for
/// near-copies (zeros appended or dropped, one byte changed, truncated).
#[test]
fn flat_bytes_compare_like_slices() {
    const LENS: [usize; 5] = [0, 29, 30, 31, 47];
    let mut rng = Rng(0xf1a7_b175);
    for _ in 0..20_000 {
        let len = *rng.pick(&LENS);
        let a = bytes(&mut rng, len);
        let b = match rng.below(5) {
            0 => {
                let len = *rng.pick(&LENS);
                bytes(&mut rng, len)
            }
            1 => {
                let mut b = a.clone();
                b.resize(*rng.pick(&LENS), 0);
                b
            }
            2 if !a.is_empty() => {
                let mut b = a.clone();
                let at = rng.below(a.len() as u64) as usize;
                b[at] = *rng.pick(&[0u8, 1, b'a', 0xFF]);
                b
            }
            3 => a[..rng.below(a.len() as u64 + 1) as usize].to_vec(),
            _ => a.clone(),
        };
        let (fa, fb) = (FlatBytes::new(&a), FlatBytes::new(&b));
        assert_eq!(fa.cmp(&fb), a.cmp(&b), "{a:?} vs {b:?}");
        assert_eq!(fa.partial_cmp(&fb), Some(a.cmp(&b)), "{a:?} vs {b:?}");
        assert_eq!(fa == fb, a == b, "{a:?} vs {b:?}");
        assert_eq!(fa.as_slice(), a.as_slice());
    }
}

#[test]
fn a_scan_that_skips_an_entry_is_caught() {
    let mut cov = Coverage::default();
    let caught = (0..20u64).any(|case| {
        run_case(0x1a70_0000 + case, 120, 1, key_pool, &mut cov).is_err_and(|e| e.contains("scan_"))
    });
    assert!(caught, "dropping a scan entry must fail the check");
}

/// `SqlCluster::bulk_load` leaves every pod's engine equal to row-by-row
/// `put_at` of the same entries, into empty pods and into loaded ones, with
/// index entries, repeated primary keys, and rows whose encoding straddles
/// the inline bound.
#[test]
fn cluster_bulk_load_matches_row_by_row_apply() {
    let mut catalog = Catalog::new();
    catalog.add(
        TableSchema::new(
            "users",
            vec![
                ColumnDef::new("id", ColumnType::Int),
                ColumnDef::new("name", ColumnType::Text),
                ColumnDef::new("org", ColumnType::Int),
            ],
            "id",
            &["org"],
        )
        .unwrap(),
    );
    let config = ClusterConfig {
        storage_nodes: 4,
        regions: 7,
        ..ClusterConfig::default()
    };
    let mut cluster = SqlCluster::new(catalog.clone(), config);
    let schema = catalog.get("users").unwrap().clone();
    let mut reference: Vec<KvEngine> = (0..4).map(|_| KvEngine::new()).collect();
    let mut tso = 0u64;
    let mut rng = Rng(0x10ad);
    let row = |rng: &mut Rng, id: i64| {
        let name_len = rng.below(2 * INLINE_BYTES as u64) as usize;
        vec![
            Datum::Int(id),
            Datum::Text("n".repeat(name_len)),
            Datum::Int(rng.below(5) as i64),
        ]
    };
    // Second load repeats some ids of the first (multi-version keys); the
    // third ends at an invalid row, after which nothing more loads.
    let loads: [Vec<i64>; 3] = [
        (0..300).rev().collect(),
        (250..400).step_by(3).collect(),
        vec![500, 7, 501],
    ];
    for (n, ids) in loads.iter().enumerate() {
        let mut rows: Vec<Vec<Datum>> = ids.iter().map(|&id| row(&mut rng, id)).collect();
        if n == 2 {
            rows.insert(2, vec![Datum::Int(502)]);
        }
        for values in rows.iter().take_while(|r| r.len() == 3) {
            tso += 1;
            let r = Row(values.clone());
            let record = record_key("users", &values[0]);
            let mut entries = vec![(record.clone(), r.encode())];
            for &col in &schema.indexes {
                entries.push((
                    index_key("users", col, &values[col], &values[0]),
                    record.clone(),
                ));
            }
            for (key, value) in entries {
                let region = (stable_hash(&key) % cluster.region_count() as u64) as usize;
                for &pod in &cluster.region(region).replicas {
                    reference[pod].put_at(&key, Some(&value), tso);
                }
            }
        }
        let loaded = cluster.bulk_load("users", rows);
        assert_eq!(loaded.is_err(), n == 2, "load {n}");
        for (pod, want) in reference.iter().enumerate() {
            assert!(
                cluster.storages[pod].kv == *want,
                "load {n}: pod {pod} differs"
            );
        }
    }
    assert!(reference
        .iter()
        .any(|kv| kv.version_entries() > kv.live_keys()));
}
