//! Allocation regression gate for the zero-alloc serve path.
//!
//! The PR-8 overhaul removed every steady-state heap allocation from the
//! cache-hit serve path: keys are interned once (scratch-buffer reuse +
//! dense-id equality), cache lookups are FxHash map hits, and outcomes are
//! plain structs. This test pins that property with a counting
//! `#[global_allocator]`: after warmup, N cache-hit reads must perform
//! exactly **zero** allocations. Any future change that sneaks a `Vec`,
//! `format!`, or boxed closure back into the hit path fails here with the
//! allocation count, not as a silent throughput regression.
//!
//! A second gate pins the storage tier's bulk load: a stored key costs no
//! heap object of its own, so loading a row into every replica takes a
//! small constant number of allocations (B-tree nodes and the load's
//! run buffers), not several per replica.
//!
//! A third gate pins the SQL point read, the path every Base read and every
//! LinkedVersion version check takes: the executor streams the fetched row
//! through filter and projection, so a read allocates the decoded row and
//! the receipt's row and version vectors — three objects — and nothing else.
//!
//! The gates count *allocations* (not frees), only around the measured
//! window and only on the measuring thread: the test harness allocating on
//! its own threads (say, to report a sibling test that just finished) does
//! not pollute the count.

use dcache::deployment::{kv_catalog, Deployment};
use dcache::{ArchKind, DeploymentConfig};
use simnet::{SimDuration, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use storekit::value::Datum;
use storekit::SqlCluster;

struct CountingAlloc;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Count one allocation if this thread is inside a measured window.
fn count() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            ALLOCS.with(|n| n.set(n.get() + 1));
        }
    });
}

/// Open a measured window on this thread.
fn start_counting() {
    ALLOCS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
}

/// Close the window; the allocations this thread made inside it.
fn stop_counting() -> u64 {
    COUNTING.with(|on| on.set(false));
    ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const KEYS: i64 = 32;

fn warmed_deployment(arch: ArchKind) -> Deployment {
    let mut d = Deployment::new(DeploymentConfig::test_small(arch), kv_catalog("kv"));
    d.cluster
        .bulk_load(
            "kv",
            (0..KEYS).map(|k| vec![Datum::Int(k), Datum::Payload { len: 256, seed: 3 }]),
        )
        .unwrap();
    // Two passes: the first faults every key into cache (interning it and
    // growing every map to steady-state size), the second confirms hits
    // wherever there is a cache.
    let mut now = SimTime::ZERO;
    for pass in 0..2 {
        for k in 0..KEYS {
            now += SimDuration::from_micros(50);
            let out = d.serve_kv_read("kv", k, now).expect("warm read");
            if pass == 1 && arch != ArchKind::Base {
                assert!(out.cache_hit, "warmup pass 2 must hit ({arch:?}, key {k})");
            }
        }
    }
    d
}

/// Count allocations across `rounds` full sweeps of cache-hit reads.
fn count_hit_path_allocs(d: &mut Deployment, rounds: usize) -> u64 {
    let mut now = SimTime::from_nanos(1_000_000_000);
    start_counting();
    for _ in 0..rounds {
        for k in 0..KEYS {
            now += SimDuration::from_micros(50);
            let out = d.serve_kv_read("kv", k, now).expect("hit read");
            assert!(out.cache_hit, "measured read must be a cache hit");
        }
    }
    stop_counting()
}

#[test]
fn steady_state_cache_hit_reads_allocate_nothing() {
    // Linked: the paper's cheapest path (in-process cache hit) and the one
    // fig_scale hammers hardest. Remote: hit served by a cache-tier node.
    for arch in [ArchKind::Linked, ArchKind::Remote] {
        let mut d = warmed_deployment(arch);
        let requests = 50 * KEYS as u64;
        let allocs = count_hit_path_allocs(&mut d, 50);
        assert_eq!(
            allocs, 0,
            "{arch:?} hit path allocated {allocs} times over {requests} requests \
             (expected 0 steady-state allocations per request)"
        );
    }
}

#[test]
fn sql_point_reads_allocate_at_most_three_objects() {
    // Base reads every key through SQL; LinkedVersion serves from its cache
    // but version-checks each read with a SQL point read.
    for arch in [ArchKind::Base, ArchKind::LinkedVersion] {
        let mut d = warmed_deployment(arch);
        let requests = 50 * KEYS as u64;
        let mut now = SimTime::from_nanos(1_000_000_000);
        start_counting();
        for _ in 0..50 {
            for k in 0..KEYS {
                now += SimDuration::from_micros(50);
                let out = d.serve_kv_read("kv", k, now).expect("read");
                assert_eq!(out.cache_hit, arch == ArchKind::LinkedVersion);
            }
        }
        let allocs = stop_counting();
        let per_read = allocs as f64 / requests as f64;
        assert!(
            per_read <= 3.0,
            "{arch:?} SQL point reads made {allocs} allocations over {requests} reads \
             ({per_read:.2} per read, gate 3)"
        );
    }
}

#[test]
fn bulk_load_allocates_at_most_two_objects_per_row() {
    const ROWS: i64 = 10_000;
    // The paper's storage tier: 3 pods, every key on all three replicas.
    let config = DeploymentConfig::paper(ArchKind::Base).cluster;
    let mut cluster = SqlCluster::new(kv_catalog("kv"), config);
    // Rows are built outside the window: the gate counts the load's own
    // allocations, not the caller's.
    let rows: Vec<Vec<Datum>> = (0..ROWS)
        .map(|k| {
            vec![
                Datum::Int(k),
                Datum::Payload {
                    len: 1_024,
                    seed: 0,
                },
            ]
        })
        .collect();
    start_counting();
    let loaded = cluster.bulk_load("kv", rows);
    let allocs = stop_counting();
    assert_eq!(loaded.unwrap(), ROWS as usize);
    let per_row = allocs as f64 / ROWS as f64;
    assert!(
        per_row <= 2.0,
        "bulk_load made {allocs} allocations for {ROWS} rows ({per_row:.2} per row, gate 2)"
    );
}
