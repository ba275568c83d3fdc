//! Differential oracle for copy-free durability.
//!
//! `DurableStore` keeps no copy of the engine: a snapshot is bookkeeping,
//! and recovery pops the un-synced WAL tail off the crashed pod's live
//! engine. [`Reference`] below is the model it replaces — clone the engine
//! at every snapshot, replay the synced WAL onto the clone at recovery —
//! and every seeded run must land both on the same engine, the same
//! `RecoveryOutcome`, the same `DurabilityStats` and the same SSD bytes.

use std::collections::VecDeque;
use storekit::durability::{DurableStore, RecoveryOutcome};
use storekit::kv::KvEngine;
use storekit::{DurabilityConfig, DurabilityStats, FsyncPolicy, StorageCostConfig};

type Writes = Vec<(Vec<u8>, Option<Vec<u8>>)>;

/// The clone-and-replay durable store.
struct Reference {
    cfg: DurabilityConfig,
    snapshot: Option<KvEngine>,
    snapshot_bytes: u64,
    wal: Vec<(usize, u64, u64, Writes)>,
    synced: usize,
    since_snapshot: u64,
    durable_applied: Vec<usize>,
    tail_applied: Vec<usize>,
    stats: DurabilityStats,
}

impl Reference {
    fn new(cfg: DurabilityConfig, regions: usize) -> Self {
        Reference {
            cfg,
            snapshot: None,
            snapshot_bytes: 0,
            wal: Vec::new(),
            synced: 0,
            since_snapshot: 0,
            durable_applied: vec![0; regions],
            tail_applied: vec![0; regions],
            stats: DurabilityStats::default(),
        }
    }

    fn on_apply(&mut self, region: usize, version: u64, writes: Writes, bytes: u64) {
        self.wal.push((region, version, bytes, writes));
        self.tail_applied[region] += 1;
        self.since_snapshot += 1;
        self.stats.wal_appends += 1;
        self.stats.wal_bytes += bytes;
        if self.wal.len() - self.synced >= self.cfg.fsync.group_size() as usize {
            for rec in &self.wal[self.synced..] {
                self.durable_applied[rec.0] += 1;
            }
            self.synced = self.wal.len();
            self.stats.fsync_batches += 1;
        }
    }

    fn maybe_snapshot(&mut self, kv: &KvEngine) {
        if self.since_snapshot >= self.cfg.snapshot_every_entries {
            self.snapshot_now(kv);
        }
    }

    fn snapshot_now(&mut self, kv: &KvEngine) {
        // Sized by scan, independently of the engine's live-bytes counter.
        let bytes = kv
            .scan_prefix(&[], u64::MAX)
            .map(|(k, v)| (k.len() + v.value.len()) as u64)
            .sum();
        self.snapshot = Some(kv.clone());
        self.snapshot_bytes = bytes;
        self.durable_applied = self.tail_applied.clone();
        self.wal.clear();
        self.synced = 0;
        self.since_snapshot = 0;
        self.stats.snapshots += 1;
        self.stats.snapshot_bytes += bytes;
    }

    fn ssd_resident_bytes(&self) -> u64 {
        self.snapshot_bytes + self.wal.iter().map(|r| r.2).sum::<u64>()
    }

    fn crash_and_recover(&mut self, cost: &StorageCostConfig) -> RecoveryOutcome {
        let lost = (self.wal.len() - self.synced) as u64;
        self.wal.truncate(self.synced);
        self.tail_applied = self.durable_applied.clone();
        let mut kv = self.snapshot.clone().unwrap_or_default();
        let mut replay_cpu = simnet::SimDuration::ZERO;
        for (_, version, bytes, writes) in &self.wal {
            for (key, value) in writes {
                kv.put_at(key.clone(), value.clone(), *version);
            }
            replay_cpu += cost.wal_replay_cost(*bytes);
        }
        let replayed_bytes = self.wal.iter().map(|r| r.2).sum();
        let recovery_time =
            cost.ssd_seek_latency() + cost.snapshot_load_cost(self.snapshot_bytes) + replay_cpu;
        self.stats.recoveries += 1;
        self.stats.recovery_time_us += recovery_time.as_nanos() / 1_000;
        self.stats.replayed_entries += self.wal.len() as u64;
        self.stats.replayed_bytes += replayed_bytes;
        self.stats.lost_tail_entries += lost;
        RecoveryOutcome {
            kv,
            durable_applied: self.durable_applied.clone(),
            replayed_entries: self.wal.len() as u64,
            replayed_bytes,
            lost_tail_entries: lost,
            recovery_time,
            replay_cpu,
        }
    }
}

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
}

/// One raft entry bound for a region.
#[derive(Clone)]
struct Entry {
    version: u64,
    writes: Writes,
    bytes: u64,
}

/// The pod under test and the reference pod, driven in lockstep.
struct Pair {
    cost: StorageCostConfig,
    kv: KvEngine,
    store: DurableStore,
    /// The engine a crash took off the pod, until recovery.
    image: Option<KvEngine>,
    ref_kv: KvEngine,
    reference: Reference,
}

impl Pair {
    fn new(cfg: DurabilityConfig, regions: usize) -> Self {
        Pair {
            cost: StorageCostConfig::default(),
            kv: KvEngine::new(),
            store: DurableStore::new(cfg, regions),
            image: None,
            ref_kv: KvEngine::new(),
            reference: Reference::new(cfg, regions),
        }
    }

    /// Apply `entry` to both engines and log it, as `durable_apply` does.
    /// Returns whether the cadence took a snapshot.
    fn apply(&mut self, region: usize, entry: &Entry) -> bool {
        for (key, value) in &entry.writes {
            self.kv.put_at(key.clone(), value.clone(), entry.version);
            self.ref_kv
                .put_at(key.clone(), value.clone(), entry.version);
        }
        self.store.on_apply(
            region,
            entry.version,
            entry.writes.clone(),
            entry.bytes,
            &self.cost,
        );
        self.reference
            .on_apply(region, entry.version, entry.writes.clone(), entry.bytes);
        let snapped = self.store.maybe_snapshot(&self.kv, &self.cost).is_some();
        self.reference.maybe_snapshot(&self.ref_kv);
        snapped
    }

    fn crash(&mut self) {
        let live = std::mem::take(&mut self.kv);
        self.image.get_or_insert(live);
        self.ref_kv = KvEngine::new();
    }

    fn recover(&mut self) -> Result<(), String> {
        let image = self.image.take().expect("recover follows a crash");
        let got = self.store.crash_and_recover(image, &self.cost);
        let want = self.reference.crash_and_recover(&self.cost);
        let verdict = check(&got, &want);
        self.kv = got.kv;
        self.ref_kv = want.kv;
        verdict.and_then(|()| self.check_books())
    }

    fn check_books(&self) -> Result<(), String> {
        if self.kv != self.ref_kv {
            return Err("live engines differ".into());
        }
        if self.store.stats != self.reference.stats {
            return Err(format!(
                "stats {:?} != {:?}",
                self.store.stats, self.reference.stats
            ));
        }
        let (got, want) = (
            self.store.ssd_resident_bytes(),
            self.reference.ssd_resident_bytes(),
        );
        if got != want {
            return Err(format!("ssd_resident_bytes {got} != {want}"));
        }
        for r in 0..self.reference.durable_applied.len() {
            if self.store.durable_applied(r) != self.reference.durable_applied[r] {
                return Err(format!("durable_applied({r}) differs"));
            }
        }
        Ok(())
    }
}

/// The oracle's verdict on one recovery.
fn check(got: &RecoveryOutcome, want: &RecoveryOutcome) -> Result<(), String> {
    if got.kv != want.kv {
        return Err(format!(
            "recovered engines differ:\n{:?}\n{:?}",
            got.kv, want.kv
        ));
    }
    if got != want {
        return Err(format!("outcomes differ:\n{got:?}\n{want:?}"));
    }
    Ok(())
}

/// How often each crash shape came up, so the test can show it covered
/// every one.
#[derive(Default, Debug)]
struct Coverage {
    no_snapshot: u64,
    after_snapshot: u64,
    back_to_back: u64,
    double_crash: u64,
    out_of_order_applies: u64,
    tombstones: u64,
    lost_tails: u64,
}

fn run_case(seed: u64, cov: &mut Coverage) {
    let mut rng = Rng(seed);
    let regions = 3 + rng.below(3) as usize;
    let fsync = match rng.below(3) {
        0 => FsyncPolicy::EveryEntry,
        _ => FsyncPolicy::Group(2 + rng.below(7) as u32),
    };
    let cfg = DurabilityConfig {
        enabled: true,
        fsync,
        snapshot_every_entries: 1 + rng.below(64),
    };
    let ctx = format!(
        "seed {seed} ({fsync:?}, every {})",
        cfg.snapshot_every_entries
    );
    let mut pair = Pair::new(cfg, regions);
    let mut tso = 0u64;
    // Keys `[region, i]`: every key lives in exactly one region.
    let keys_per_region = 2 + rng.below(10);

    // Half the cases start from a bulk load, which lands as a snapshot.
    if rng.below(2) == 0 {
        for r in 0..regions {
            for i in 0..keys_per_region {
                tso += 1;
                let value = Some(vec![tso as u8; rng.below(16) as usize]);
                pair.kv.put_at(vec![r as u8, i as u8], value.clone(), tso);
                pair.ref_kv.put_at(vec![r as u8, i as u8], value, tso);
            }
        }
        pair.store.snapshot_now(&pair.kv, &pair.cost);
        pair.reference.snapshot_now(&pair.ref_kv);
    }

    let mut pending: Vec<VecDeque<Entry>> = vec![VecDeque::new(); regions];
    let mut applied: Vec<Vec<Entry>> = vec![Vec::new(); regions];
    let mut newest_applied = 0u64;
    let mut just_snapshotted = false;
    for _step in 0..300 {
        let roll = rng.below(100);
        if roll < 40 {
            // Propose a multi-key batch on one region.
            let r = rng.below(regions as u64) as usize;
            tso += 1;
            let mut writes: Writes = Vec::new();
            for _ in 0..1 + rng.below(4) {
                let key = vec![r as u8, rng.below(keys_per_region) as u8];
                if writes.iter().any(|(k, _)| *k == key) {
                    continue;
                }
                let value = match rng.below(4) {
                    0 => None,
                    _ => Some(vec![tso as u8; rng.below(24) as usize]),
                };
                writes.push((key, value));
            }
            let payload: u64 = writes
                .iter()
                .filter_map(|(_, v)| v.as_ref())
                .map(|v| v.len() as u64)
                .sum();
            let bytes = 64 + payload;
            pending[r].push_back(Entry {
                version: tso,
                writes,
                bytes,
            });
        } else if roll < 85 {
            // A replica applies the oldest pending entry of any region: the
            // regions interleave out of version order.
            let ready: Vec<usize> = (0..regions).filter(|&r| !pending[r].is_empty()).collect();
            if ready.is_empty() {
                continue;
            }
            let r = ready[rng.below(ready.len() as u64) as usize];
            let entry = pending[r].pop_front().expect("ready");
            if entry.version < newest_applied {
                cov.out_of_order_applies += 1;
            }
            newest_applied = newest_applied.max(entry.version);
            cov.tombstones += entry.writes.iter().filter(|(_, v)| v.is_none()).count() as u64;
            just_snapshotted = pair.apply(r, &entry);
            applied[r].push(entry);
            pair.check_books().unwrap_or_else(|e| panic!("{ctx}: {e}"));
        } else {
            let shape = roll % 3;
            if pair.store.stats.snapshots == 0 {
                cov.no_snapshot += 1;
            }
            if just_snapshotted {
                cov.after_snapshot += 1;
            }
            let tail = pair.store.stats.lost_tail_entries;
            pair.crash();
            if shape == 1 {
                cov.double_crash += 1;
                pair.crash();
            }
            pair.recover().unwrap_or_else(|e| panic!("{ctx}: {e}"));
            if shape == 2 {
                cov.back_to_back += 1;
                pair.crash();
                pair.recover().unwrap_or_else(|e| panic!("{ctx}: {e}"));
            }
            if pair.store.stats.lost_tail_entries > tail {
                cov.lost_tails += 1;
            }
            // The quorum re-replicates everything past the durable prefix.
            for r in 0..regions {
                let lost = applied[r].split_off(pair.store.durable_applied(r));
                for entry in lost.into_iter().rev() {
                    pending[r].push_front(entry);
                }
            }
            just_snapshotted = false;
        }
    }
}

#[test]
fn copy_free_recovery_matches_clone_and_replay() {
    let mut cov = Coverage::default();
    for seed in 0..300 {
        run_case(seed, &mut cov);
    }
    assert!(cov.no_snapshot > 0, "{cov:?}");
    assert!(cov.after_snapshot > 0, "{cov:?}");
    assert!(cov.back_to_back > 0, "{cov:?}");
    assert!(cov.double_crash > 0, "{cov:?}");
    assert!(cov.out_of_order_applies > 0, "{cov:?}");
    assert!(cov.tombstones > 0, "{cov:?}");
    assert!(cov.lost_tails > 0, "{cov:?}");
}

#[test]
fn oracle_catches_an_undo_that_skips_a_tail_record() {
    let cfg = DurabilityConfig {
        enabled: true,
        fsync: FsyncPolicy::Group(4),
        snapshot_every_entries: 1_000,
    };
    let mut pair = Pair::new(cfg, 3);
    for (v, region) in [(1u64, 0usize), (2, 1), (3, 2)] {
        let entry = Entry {
            version: v,
            writes: vec![(vec![region as u8, 0], Some(vec![v as u8; 8]))],
            bytes: 72,
        };
        pair.apply(region, &entry);
    }
    // Nothing is synced yet: recovery must undo all three records.
    pair.crash();
    let image = pair.image.take().expect("crashed");
    let got = pair.store.crash_and_recover(image, &pair.cost);
    let want = pair.reference.crash_and_recover(&pair.cost);
    assert_eq!(got.lost_tail_entries, 3);
    check(&got, &want).expect("the real undo matches the reference");

    // An undo that skipped the newest tail record would leave its write in
    // the recovered engine.
    let mut skipped = got;
    skipped.kv.put_at(vec![2, 0], Some(vec![3; 8]), 3);
    let err = check(&skipped, &want).expect_err("a skipped undo must be caught");
    assert!(err.contains("recovered engines differ"), "{err}");
}
