//! Consistency under faults, end to end: the Figure 8 hazard, fencing,
//! leader failover during cached serving, and linearizability checking of
//! machine-generated histories.

use dcache_cost::sim::{SimDuration, SimTime};
use dcache_cost::store::value::Datum;
use dcache_cost::study::consistency::{check_linearizable, delayed_write_scenario, HistoryOp};
use dcache_cost::study::deployment::{kv_catalog, Deployment};
use dcache_cost::study::{ArchKind, DeploymentConfig};

fn t(ms: u64) -> SimTime {
    SimTime::from_nanos(ms * 1_000_000)
}

#[test]
fn figure8_hazard_and_fix() {
    let broken = delayed_write_scenario(false).unwrap();
    assert!(!broken.linearizable);
    assert_ne!(broken.final_cache_value, broken.final_storage_value);

    let fixed = delayed_write_scenario(true).unwrap();
    assert!(fixed.linearizable);
    assert_eq!(fixed.final_cache_value, fixed.final_storage_value);
}

#[test]
fn storage_survives_leader_failover_mid_run() {
    let mut d = Deployment::new(
        DeploymentConfig::test_small(ArchKind::LinkedVersion),
        kv_catalog("kv"),
    );
    d.cluster
        .bulk_load(
            "kv",
            (0..50i64).map(|k| vec![Datum::Int(k), Datum::Payload { len: 256, seed: 0 }]),
        )
        .unwrap();

    // Serve some traffic, then crash every region's leader and re-elect.
    for k in 0..50 {
        d.serve_kv_read("kv", k, t(k as u64)).unwrap();
    }
    for r in 0..d.cluster.region_count() {
        let slot = d.cluster.region(r).leader_slot().unwrap();
        d.cluster.region_mut(r).crash(slot);
        d.cluster.region_mut(r).elect(t(100)).unwrap();
    }

    // All data still served, and version checks still catch staleness.
    for k in 0..50 {
        let out = d.serve_kv_read("kv", k, t(200 + k as u64)).unwrap();
        assert!(!out.not_found, "key {k} lost in failover");
        assert_eq!(out.seed, Some(0));
    }
    // Writes work against the new leaders.
    let w = d
        .serve_kv_write("kv", 7, Datum::Payload { len: 256, seed: 9 }, t(300))
        .unwrap();
    assert!(w.version.is_some());
    let r = d.serve_kv_read("kv", 7, t(301)).unwrap();
    assert_eq!(r.seed, Some(9));
}

#[test]
fn version_checked_reads_are_linearizable_under_interleaving() {
    // Drive an adversarial interleaving: reads through the cache racing
    // direct storage writes, with every completed operation recorded, then
    // hand the history to the checker.
    let mut d = Deployment::new(
        DeploymentConfig::test_small(ArchKind::LinkedVersion),
        kv_catalog("kv"),
    );
    d.cluster
        .bulk_load(
            "kv",
            vec![vec![Datum::Int(1), Datum::Payload { len: 64, seed: 0 }]],
        )
        .unwrap();

    let mut history = vec![HistoryOp::write(0, t(0), t(0))];
    let mut clock = 1u64;
    for round in 1..=10u64 {
        // External writer updates storage directly (bypassing the cache).
        let start = t(clock);
        d.cluster
            .execute(
                "UPDATE kv SET v = ? WHERE k = 1",
                &[Datum::Payload {
                    len: 64,
                    seed: round,
                }],
                start,
            )
            .unwrap();
        history.push(HistoryOp::write(round, start, t(clock + 1)));
        clock += 2;

        // Cached read with version check must observe the new value.
        let start = t(clock);
        let out = d.serve_kv_read("kv", 1, start).unwrap();
        history.push(HistoryOp::read(out.seed, start, t(clock + 1)));
        clock += 2;
    }
    assert!(
        check_linearizable(&history, None),
        "version-checked history must linearize: {history:?}"
    );
}

#[test]
fn plain_linked_interleaving_fails_the_checker() {
    // The same experiment without version checks produces a non-linearizable
    // history (stale reads after external writes).
    let mut d = Deployment::new(
        DeploymentConfig::test_small(ArchKind::Linked),
        kv_catalog("kv"),
    );
    d.cluster
        .bulk_load(
            "kv",
            vec![vec![Datum::Int(1), Datum::Payload { len: 64, seed: 0 }]],
        )
        .unwrap();
    // Fill the cache.
    d.serve_kv_read("kv", 1, t(1)).unwrap();

    let mut history = vec![HistoryOp::write(0, t(0), t(0))];
    // External write lands...
    d.cluster
        .execute(
            "UPDATE kv SET v = ? WHERE k = 1",
            &[Datum::Payload { len: 64, seed: 1 }],
            t(10),
        )
        .unwrap();
    history.push(HistoryOp::write(1, t(10), t(11)));
    // ...and the cache keeps serving the old value.
    let out = d.serve_kv_read("kv", 1, t(20)).unwrap();
    history.push(HistoryOp::read(out.seed, t(20), t(21)));
    assert_eq!(out.seed, Some(0), "linked serves stale");
    assert!(!check_linearizable(&history, None));
}

#[test]
fn lease_expiry_recovers_freshness_without_per_read_checks() {
    let mut d = Deployment::new(
        DeploymentConfig::test_small(ArchKind::LeaseOwned),
        kv_catalog("kv"),
    );
    d.cluster
        .bulk_load(
            "kv",
            vec![vec![Datum::Int(1), Datum::Payload { len: 64, seed: 0 }]],
        )
        .unwrap();
    d.serve_kv_read("kv", 1, t(1)).unwrap();

    // External write while the owner holds its lease: the externally-written
    // value is invisible to lease-owned reads *by design* — correctness
    // requires all writes to route through the owner. Route one through:
    d.serve_kv_write("kv", 1, Datum::Payload { len: 64, seed: 5 }, t(2))
        .unwrap();
    let fresh = d.serve_kv_read("kv", 1, t(3)).unwrap();
    assert_eq!(fresh.seed, Some(5));
    assert_eq!(fresh.version_checks, 0, "no storage contact while leased");

    // After lease expiry (10s) the next read re-validates against storage.
    let late = SimTime::ZERO + SimDuration::from_secs(20);
    let out = d.serve_kv_read("kv", 1, late).unwrap();
    assert_eq!(out.version_checks, 1);
    assert_eq!(out.seed, Some(5));
}

#[test]
fn checker_handles_larger_random_histories() {
    // Sanity on checker performance/pruning: a serial history of 24 ops.
    let mut history = Vec::new();
    let mut clock = 0u64;
    for v in 0..12u64 {
        history.push(HistoryOp::write(v, t(clock), t(clock + 1)));
        history.push(HistoryOp::read(Some(v), t(clock + 2), t(clock + 3)));
        clock += 4;
    }
    assert!(check_linearizable(&history, None));
    // Corrupt one read and it must fail.
    history[13] = HistoryOp::read(Some(99), history[13].invoked, history[13].completed);
    assert!(!check_linearizable(&history, None));
}
