//! Crash-replay determinism: the durability layer's headline invariant,
//! enforced exhaustively.
//!
//! A deterministic (splitmix64-driven) op sequence runs against a durable
//! cluster, and a storage pod is crashed and recovered at **every** event
//! boundary — after each committed op. At each boundary the recovered
//! cluster must serve exactly the committed prefix: acked writes are never
//! lost (re-replicated from the quorum when the local fsync tail was
//! discarded), deletes stay deleted, and the shadow model matches byte for
//! byte. A second pass re-runs the same schedule and must land on
//! identical durability counters and identical state — and the recovery
//! ablation figure must be byte-identical whether the sweep runs on one
//! worker or four.

use std::collections::BTreeMap;

use bench::golden::ablation_recovery;
use bench::sweep::SweepRunner;
use simnet::{SimDuration, SimTime};
use storekit::schema::ColumnType;
use storekit::value::Datum;
use storekit::{
    Catalog, ClusterConfig, ColumnDef, DurabilityConfig, DurabilityStats, FsyncPolicy, SqlCluster,
    TableSchema,
};

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.add(
        TableSchema::new(
            "kv",
            vec![
                ColumnDef::new("k", ColumnType::Int),
                ColumnDef::new("v", ColumnType::Bytes),
            ],
            "k",
            &[],
        )
        .unwrap(),
    );
    c
}

fn durable_cluster() -> SqlCluster {
    SqlCluster::new(
        catalog(),
        ClusterConfig {
            durability: DurabilityConfig {
                enabled: true,
                // Group commit leaves an un-fsynced tail at most crash
                // points, so recovery exercises quorum re-replication, and
                // a tight snapshot cadence keeps WAL replay bounded.
                fsync: FsyncPolicy::Group(4),
                snapshot_every_entries: 256,
            },
            ..ClusterConfig::default()
        },
    )
}

fn t(n: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(n)
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Put(i64, u8),
    Del(i64),
}

const KEYS: u64 = 64;

/// The deterministic op schedule: ~90% upserts, ~10% deletes over a small
/// hot key space so updates and deletes genuinely recur.
fn schedule(ops: usize) -> Vec<Op> {
    let mut s = 0x0D15_EA5E_u64;
    (0..ops)
        .map(|_| {
            let r = splitmix64(&mut s);
            let key = (r % KEYS) as i64;
            if r % 10 == 9 {
                Op::Del(key)
            } else {
                Op::Put(key, (r >> 32) as u8)
            }
        })
        .collect()
}

fn apply(c: &mut SqlCluster, model: &mut BTreeMap<i64, Vec<u8>>, op: Op, now: SimTime) {
    match op {
        Op::Put(k, b) => {
            let v = vec![b; 16];
            if model.contains_key(&k) {
                c.execute(
                    "UPDATE kv SET v = ? WHERE k = ?",
                    &[Datum::Bytes(v.clone()), k.into()],
                    now,
                )
                .unwrap();
            } else {
                c.execute(
                    "INSERT INTO kv VALUES (?, ?)",
                    &[k.into(), Datum::Bytes(v.clone())],
                    now,
                )
                .unwrap();
            }
            model.insert(k, v);
        }
        Op::Del(k) => {
            c.execute("DELETE FROM kv WHERE k = ?", &[k.into()], now)
                .unwrap();
            model.remove(&k);
        }
    }
}

/// Read key `k` through the cluster's public query path.
fn read(c: &mut SqlCluster, k: i64, now: SimTime) -> Option<Vec<u8>> {
    let r = c
        .execute("SELECT v FROM kv WHERE k = ?", &[k.into()], now)
        .unwrap();
    r.rows.first().map(|row| match row.get(0) {
        Some(Datum::Bytes(b)) => b.clone(),
        other => panic!("unexpected datum {other:?}"),
    })
}

fn assert_state_matches(
    c: &mut SqlCluster,
    model: &BTreeMap<i64, Vec<u8>>,
    now: SimTime,
    at: usize,
) {
    for k in 0..KEYS as i64 {
        assert_eq!(
            read(c, k, now).as_ref(),
            model.get(&k),
            "key {k} diverged after the crash at boundary {at}"
        );
    }
}

/// Run `ops` committed operations, crashing and recovering a storage pod
/// at every event boundary, verifying the just-touched key each time and
/// the whole key space periodically. Returns the final durability stats
/// and the final recovered state for cross-run comparison.
fn exhaustive_crash_pass(ops: usize) -> (DurabilityStats, BTreeMap<i64, Vec<u8>>) {
    let mut c = durable_cluster();
    let mut model = BTreeMap::new();
    let pods = c.storages.len();
    for (i, &op) in schedule(ops).iter().enumerate() {
        let now = t(i as u64);
        apply(&mut c, &mut model, op, now);
        // Crash a different pod each boundary; the quorum carries the
        // un-fsynced tail back onto the recovered pod.
        c.crash_pod(i % pods);
        c.recover_pod(i % pods, now);
        let touched = match op {
            Op::Put(k, _) | Op::Del(k) => k,
        };
        assert_eq!(
            read(&mut c, touched, now).as_ref(),
            model.get(&touched),
            "acked write lost at boundary {i}"
        );
        if i % 128 == 0 {
            assert_state_matches(&mut c, &model, now, i);
        }
    }
    let final_now = t(ops as u64 + 1);
    assert_state_matches(&mut c, &model, final_now, ops);
    let stats = c.durability_stats();
    assert_eq!(stats.recoveries, ops as u64, "one recovery per boundary");
    let mut state = BTreeMap::new();
    for k in 0..KEYS as i64 {
        if let Some(v) = read(&mut c, k, final_now) {
            state.insert(k, v);
        }
    }
    (stats, state)
}

#[test]
fn every_event_boundary_crash_recovers_the_committed_prefix() {
    exhaustive_crash_pass(1_000);
}

#[test]
fn crash_replay_lands_on_identical_counters_and_state_across_runs() {
    let (stats_a, state_a) = exhaustive_crash_pass(300);
    let (stats_b, state_b) = exhaustive_crash_pass(300);
    assert_eq!(stats_a, stats_b, "durability counters diverged across runs");
    assert_eq!(state_a, state_b, "recovered state diverged across runs");
    assert!(stats_a.wal_appends > 0 && stats_a.replayed_entries > 0);
}

#[test]
fn recovery_figure_is_byte_identical_across_worker_counts() {
    let seq = ablation_recovery(&SweepRunner::sequential());
    let par = ablation_recovery(&SweepRunner::new(4));
    assert_eq!(
        seq.to_json(),
        par.to_json(),
        "post-recovery report counters must not depend on worker count"
    );
}
