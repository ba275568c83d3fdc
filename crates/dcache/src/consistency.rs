//! Consistency machinery: a linearizability checker and the paper's
//! Figure 8 delayed-writes scenario — hazard and fix.
//!
//! §6 describes the hazard: (1) an application sends a write to storage but
//! the write is *delayed*; (2) a different cache instance — after
//! resharding or a node failure — reads the current (old) value from
//! storage and caches it; (3) the delayed write finally commits, leaving
//! cache and storage permanently out of sync, even under ownership leases.
//!
//! [`delayed_write_scenario`] reproduces this end to end on the real
//! substrate (storage with Raft, linked cache shards, the auto-sharder),
//! and shows that epoch fencing — every write carries the lease epoch it
//! was issued under, and storage-side admission rejects stale epochs —
//! restores linearizability. [`check_linearizable`] is the judge: a
//! Wing & Gong-style search over single-register histories.

use crate::lease::AutoSharder;
use serde::{Deserialize, Serialize};
use simnet::{SimDuration, SimTime};
use storekit::cluster::{ClusterConfig, SqlCluster};
use storekit::error::StoreResult;
use storekit::schema::Catalog;
use storekit::value::Datum;

// ---------------------------------------------------------------------------
// Linearizability checking
// ---------------------------------------------------------------------------

/// One completed operation on a single register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistoryOp {
    pub kind: OpKind,
    /// Value written, or value observed by a read (`None` = key absent).
    pub value: Option<u64>,
    pub invoked: SimTime,
    pub completed: SimTime,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OpKind {
    Write,
    Read,
}

impl HistoryOp {
    pub fn write(value: u64, invoked: SimTime, completed: SimTime) -> Self {
        HistoryOp {
            kind: OpKind::Write,
            value: Some(value),
            invoked,
            completed,
        }
    }

    pub fn read(value: Option<u64>, invoked: SimTime, completed: SimTime) -> Self {
        HistoryOp {
            kind: OpKind::Read,
            value,
            invoked,
            completed,
        }
    }
}

/// Is this single-register history linearizable, starting from an initial
/// register value of `initial`?
///
/// Exhaustive search with pruning (histories here are small — tens of ops):
/// at each step, any not-yet-linearized operation whose invocation precedes
/// the completion of every other pending operation *may* be next; reads must
/// observe the current register value.
pub fn check_linearizable(history: &[HistoryOp], initial: Option<u64>) -> bool {
    fn search(remaining: &mut Vec<HistoryOp>, register: Option<u64>) -> bool {
        if remaining.is_empty() {
            return true;
        }
        // An op can be linearized next only if no other remaining op
        // completed before it was invoked (real-time order).
        let min_completion = remaining
            .iter()
            .map(|o| o.completed)
            .min()
            .expect("non-empty");
        for i in 0..remaining.len() {
            let op = remaining[i];
            if op.invoked > min_completion {
                continue;
            }
            let next_register = match op.kind {
                OpKind::Write => op.value,
                OpKind::Read => {
                    if op.value != register {
                        continue;
                    }
                    register
                }
            };
            let removed = remaining.remove(i);
            if search(remaining, next_register) {
                remaining.insert(i, removed);
                return true;
            }
            remaining.insert(i, removed);
        }
        false
    }
    let mut ops = history.to_vec();
    search(&mut ops, initial)
}

// ---------------------------------------------------------------------------
// The Figure 8 scenario
// ---------------------------------------------------------------------------

/// What the scenario produced.
#[derive(Debug)]
pub struct ScenarioOutcome {
    /// The operation history observed by clients.
    pub history: Vec<HistoryOp>,
    /// Whether the delayed write was admitted by storage.
    pub delayed_write_admitted: bool,
    /// The value the (new-owner) cache serves at the end.
    pub final_cache_value: Option<u64>,
    /// The value storage holds at the end.
    pub final_storage_value: Option<u64>,
    pub linearizable: bool,
}

fn scenario_catalog() -> Catalog {
    use storekit::schema::{ColumnDef, ColumnType, TableSchema};
    let mut c = Catalog::new();
    c.add(
        TableSchema::new(
            "kv",
            vec![
                ColumnDef::new("k", ColumnType::Int),
                ColumnDef::new("v", ColumnType::Int),
            ],
            "k",
            &[],
        )
        .expect("static schema"),
    );
    c
}

/// Reproduce Figure 8 on the real substrate.
///
/// Timeline (all on the virtual clock):
///
/// 1. `t=0`  — key `k` holds `1`; owner A caches it.
/// 2. `t=1ms` — a client asks A to write `2`; A stamps the write with its
///    current lease epoch and sends it to storage, where it is *delayed*
///    (prepared but not committed — e.g. stuck in a network queue).
/// 3. `t=2ms` — the auto-sharder transfers ownership of `k`'s range to B
///    (epoch bump). B warms its cache by reading storage: it sees `1`.
/// 4. `t=3ms` — the delayed write arrives at storage.
///    * `fencing = false`: storage admits it. Storage now holds `2`, B's
///      cache holds `1` — silent divergence, and the resulting history is
///      **not linearizable** (a later read through B returns `1` after the
///      write of `2` completed).
///    * `fencing = true`: storage rejects the stale epoch; the write fails
///      (the client sees an error and may retry through B). Cache and
///      storage agree; the history of *completed* operations stays
///      linearizable.
/// 5. `t=4ms` — a client reads through B's cache.
pub fn delayed_write_scenario(fencing: bool) -> StoreResult<ScenarioOutcome> {
    let ms = |m: u64| SimTime::from_nanos(m * 1_000_000);
    let mut cluster = SqlCluster::new(scenario_catalog(), ClusterConfig::default());
    let mut sharder = AutoSharder::new(2, SimDuration::from_secs(10), ms(0));
    let key_bytes = b"kv/k1".to_vec();
    let shard = sharder.owner(&key_bytes);
    let mut history = Vec::new();

    // t=0: initial state, committed and cached by owner A.
    cluster.execute("INSERT INTO kv VALUES (1, 1)", &[], ms(0))?;
    history.push(HistoryOp::write(1, ms(0), ms(0)));

    // t=1ms: client write of 2 through A; stamped with A's epoch; delayed.
    let issue_epoch = sharder.epoch(shard);
    let delayed =
        cluster.begin_delayed_write("UPDATE kv SET v = ? WHERE k = 1", &[Datum::Int(2)], ms(1))?;

    // t=2ms: ownership transfer A → B (epoch bump). A drops its range and
    // is out of the picture from here on.
    sharder.transfer(shard, ms(2));

    // B warms its cache from storage: reads the current committed value.
    let read = cluster.execute("SELECT v FROM kv WHERE k = 1", &[], ms(2))?;
    let mut cache_b: Option<u64> = read
        .rows
        .first()
        .and_then(|r| r.get(0))
        .and_then(|d| d.as_int())
        .map(|v| v as u64);

    // t=3ms: the delayed write finally reaches storage.
    let admitted = if fencing && !sharder.admit_write(shard, issue_epoch) {
        // Fenced: storage rejects; the client's write FAILS (it never
        // completes successfully, so it does not enter the history of
        // completed operations).
        false
    } else {
        cluster.commit_delayed(delayed, ms(3))?;
        history.push(HistoryOp::write(2, ms(1), ms(3)));
        true
    };

    // t=4ms: a client reads through the new owner B's cache (B trusts its
    // lease, so it serves from cache without a storage round trip).
    history.push(HistoryOp::read(cache_b, ms(4), ms(4)));

    // Ground truth in storage.
    let stored = cluster.execute("SELECT v FROM kv WHERE k = 1", &[], ms(5))?;
    let final_storage_value = stored
        .rows
        .first()
        .and_then(|r| r.get(0))
        .and_then(|d| d.as_int())
        .map(|v| v as u64);

    // If B's cache were invalidation-driven it would still say 1; it only
    // converges if something refreshes it. Nothing does — that is the bug.
    if !admitted {
        // With fencing, cache and storage already agree (both old value);
        // a retried write through B would go through cleanly — do it, to
        // show the system makes progress.
        let retry = cluster.execute("UPDATE kv SET v = ? WHERE k = 1", &[Datum::Int(2)], ms(6))?;
        debug_assert!(retry.write_version.is_some());
        cache_b = Some(2); // B, the owner, updates its own cache on write.
        history.push(HistoryOp::write(2, ms(6), ms(6)));
        history.push(HistoryOp::read(cache_b, ms(7), ms(7)));
    }

    let final_storage_value = if admitted {
        final_storage_value
    } else {
        let stored = cluster.execute("SELECT v FROM kv WHERE k = 1", &[], ms(8))?;
        stored
            .rows
            .first()
            .and_then(|r| r.get(0))
            .and_then(|d| d.as_int())
            .map(|v| v as u64)
    };

    Ok(ScenarioOutcome {
        linearizable: check_linearizable(&history, None),
        history,
        delayed_write_admitted: admitted,
        final_cache_value: cache_b,
        final_storage_value,
    })
}

// ---------------------------------------------------------------------------
// Event-driven variant
// ---------------------------------------------------------------------------

/// World state for the discrete-event variant of the scenario.
struct ScenarioWorld {
    cluster: SqlCluster,
    sharder: AutoSharder,
    shard: u32,
    issue_epoch: u64,
    fencing: bool,
    delayed: Option<storekit::cluster::DelayedWrite>,
    cache_b: Option<u64>,
    history: Vec<HistoryOp>,
    delayed_write_admitted: bool,
}

/// The same Figure 8 timeline, driven through the [`simnet::Sim`] event
/// kernel instead of straight-line code: each step is a scheduled event, so
/// reordering experiments (e.g. "what if the transfer lands *after* the
/// write?") are one `schedule_at` away. Asserted equivalent to
/// [`delayed_write_scenario`] by tests.
pub fn delayed_write_scenario_des(fencing: bool) -> StoreResult<ScenarioOutcome> {
    use simnet::Sim;
    let ms = |m: u64| SimTime::from_nanos(m * 1_000_000);

    let mut cluster = SqlCluster::new(scenario_catalog(), ClusterConfig::default());
    cluster.execute("INSERT INTO kv VALUES (1, 1)", &[], ms(0))?;
    let sharder = AutoSharder::new(2, SimDuration::from_secs(10), ms(0));
    let shard = sharder.owner(b"kv/k1");
    let issue_epoch = sharder.epoch(shard);

    let mut world = ScenarioWorld {
        cluster,
        sharder,
        shard,
        issue_epoch,
        fencing,
        delayed: None,
        cache_b: None,
        history: vec![HistoryOp::write(1, ms(0), ms(0))],
        delayed_write_admitted: false,
    };
    let mut sim: Sim<ScenarioWorld> = Sim::new(1);

    // t=1ms: owner A issues the write; it stalls in flight.
    sim.schedule_at(ms(1), |w: &mut ScenarioWorld, s| {
        let dw = w
            .cluster
            .begin_delayed_write("UPDATE kv SET v = ? WHERE k = 1", &[Datum::Int(2)], s.now())
            .expect("prepare delayed write");
        w.delayed = Some(dw);
    });

    // t=2ms: ownership transfer; new owner B warms its cache from storage.
    sim.schedule_at(ms(2), |w: &mut ScenarioWorld, s| {
        w.sharder.transfer(w.shard, s.now());
        let read = w
            .cluster
            .execute("SELECT v FROM kv WHERE k = 1", &[], s.now())
            .expect("warm read");
        w.cache_b = read
            .rows
            .first()
            .and_then(|r| r.get(0))
            .and_then(|d| d.as_int())
            .map(|v| v as u64);
    });

    // t=3ms: the delayed write arrives at storage (fenced or not).
    sim.schedule_at(ms(3), |w: &mut ScenarioWorld, s| {
        let dw = w.delayed.take().expect("write was prepared");
        if w.fencing && !w.sharder.admit_write(w.shard, w.issue_epoch) {
            w.delayed_write_admitted = false;
        } else {
            w.cluster.commit_delayed(dw, s.now()).expect("commit");
            w.history
                .push(HistoryOp::write(2, SimTime::from_nanos(1_000_000), s.now()));
            w.delayed_write_admitted = true;
        }
    });

    // t=4ms: a client reads through B's cache (lease-trusting).
    sim.schedule_at(ms(4), |w: &mut ScenarioWorld, s| {
        w.history.push(HistoryOp::read(w.cache_b, s.now(), s.now()));
    });

    // t=6ms: if the write was fenced, the client retries through B.
    sim.schedule_at(ms(6), |w: &mut ScenarioWorld, s| {
        if !w.delayed_write_admitted {
            w.cluster
                .execute("UPDATE kv SET v = ? WHERE k = 1", &[Datum::Int(2)], s.now())
                .expect("retry");
            w.cache_b = Some(2);
            w.history.push(HistoryOp::write(2, s.now(), s.now()));
            let at = s.now() + SimDuration::from_millis(1);
            s.schedule_at(at, |w: &mut ScenarioWorld, s| {
                w.history.push(HistoryOp::read(w.cache_b, s.now(), s.now()));
            });
        }
    });

    sim.run(&mut world);

    let stored = world
        .cluster
        .execute("SELECT v FROM kv WHERE k = 1", &[], ms(10))?;
    let final_storage_value = stored
        .rows
        .first()
        .and_then(|r| r.get(0))
        .and_then(|d| d.as_int())
        .map(|v| v as u64);

    Ok(ScenarioOutcome {
        linearizable: check_linearizable(&world.history, None),
        history: world.history,
        delayed_write_admitted: world.delayed_write_admitted,
        final_cache_value: world.cache_b,
        final_storage_value,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }

    #[test]
    fn sequential_history_is_linearizable() {
        let h = vec![
            HistoryOp::write(1, t(0), t(1)),
            HistoryOp::read(Some(1), t(2), t(3)),
            HistoryOp::write(2, t(4), t(5)),
            HistoryOp::read(Some(2), t(6), t(7)),
        ];
        assert!(check_linearizable(&h, None));
    }

    #[test]
    fn stale_read_after_write_is_not_linearizable() {
        let h = vec![
            HistoryOp::write(1, t(0), t(1)),
            HistoryOp::write(2, t(2), t(3)),
            HistoryOp::read(Some(1), t(4), t(5)), // observes overwritten value
        ];
        assert!(!check_linearizable(&h, None));
    }

    #[test]
    fn concurrent_ops_may_reorder() {
        // Write of 2 overlaps the read; the read may see either 1 or 2.
        let base = vec![HistoryOp::write(1, t(0), t(1))];
        for observed in [1u64, 2] {
            let mut h = base.clone();
            h.push(HistoryOp::write(2, t(2), t(6)));
            h.push(HistoryOp::read(Some(observed), t(3), t(5)));
            assert!(check_linearizable(&h, None), "observed {observed}");
        }
        // But it cannot see a never-written value.
        let mut h = base.clone();
        h.push(HistoryOp::write(2, t(2), t(6)));
        h.push(HistoryOp::read(Some(9), t(3), t(5)));
        assert!(!check_linearizable(&h, None));
    }

    #[test]
    fn read_of_initial_value_requires_it() {
        let h = vec![HistoryOp::read(Some(7), t(0), t(1))];
        assert!(check_linearizable(&h, Some(7)));
        assert!(!check_linearizable(&h, None));
        let h = vec![HistoryOp::read(None, t(0), t(1))];
        assert!(check_linearizable(&h, None));
    }

    #[test]
    fn real_time_order_is_enforced() {
        // Two sequential reads must not "swap" across a completed write.
        let h = vec![
            HistoryOp::write(1, t(0), t(1)),
            HistoryOp::read(Some(1), t(10), t(11)),
            HistoryOp::write(2, t(12), t(13)),
            HistoryOp::read(Some(1), t(20), t(21)), // strictly after write 2
        ];
        assert!(!check_linearizable(&h, None));
    }

    #[test]
    fn figure8_without_fencing_violates_linearizability() {
        let outcome = delayed_write_scenario(false).unwrap();
        assert!(outcome.delayed_write_admitted);
        assert_eq!(outcome.final_storage_value, Some(2), "write landed");
        assert_eq!(outcome.final_cache_value, Some(1), "cache is stale");
        assert!(
            !outcome.linearizable,
            "delayed write must break linearizability: {:?}",
            outcome.history
        );
    }

    #[test]
    fn des_variant_agrees_with_straight_line_version() {
        for fencing in [false, true] {
            let a = delayed_write_scenario(fencing).unwrap();
            let b = delayed_write_scenario_des(fencing).unwrap();
            assert_eq!(
                a.delayed_write_admitted, b.delayed_write_admitted,
                "fencing={fencing}"
            );
            assert_eq!(
                a.final_cache_value, b.final_cache_value,
                "fencing={fencing}"
            );
            assert_eq!(
                a.final_storage_value, b.final_storage_value,
                "fencing={fencing}"
            );
            assert_eq!(a.linearizable, b.linearizable, "fencing={fencing}");
        }
    }

    #[test]
    fn figure8_with_fencing_stays_linearizable() {
        let outcome = delayed_write_scenario(true).unwrap();
        assert!(!outcome.delayed_write_admitted, "stale epoch fenced out");
        assert_eq!(
            outcome.final_cache_value, outcome.final_storage_value,
            "cache and storage agree"
        );
        assert!(
            outcome.linearizable,
            "fenced history must linearize: {:?}",
            outcome.history
        );
    }
}
