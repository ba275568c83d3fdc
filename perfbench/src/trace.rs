//! The traced run: a `Deployment` driven call by call through its public
//! API with one span per call, the same key stream replayed against each
//! layer's public functions, and the host ns/request attribution that
//! combines the two.
//!
//! Spans are recorded here, around the calls into each layer, not inside
//! the program; they stay in memory and are written when the run ends.

use crate::sim::Workload;
use cachekit::{Cache, HashRing, InternedKey, KeyInterner, L0Cache, PolicyKind, TinyLfu};
use dcache::deployment::{kv_catalog, CachedVal};
use dcache::experiment::KvExperimentConfig;
use dcache::{Deployment, L0Config};
use simnet::{SimDuration, SimTime};
use std::collections::HashMap;
use std::hint::black_box;
use std::io::Write;
use std::time::Instant;
use storekit::durability::DurableStore;
use storekit::kv::{record_key, KvEngine};
use storekit::{Datum, DurabilityConfig, Row, SqlCluster, StoreResult};
use workloads::{KvOp, KvRequest};

/// One recorded call.
pub struct Span {
    name: &'static str,
    /// Index of the parent span, or `u32::MAX` for a root.
    parent: u32,
    /// Request index within the run (`u64::MAX` outside the request loop).
    req: u64,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span store; nanoseconds are host time since `t0`.
pub struct SpanLog {
    t0: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn open(&mut self, name: &'static str, parent: u32, req: u64) -> u32 {
        let start_ns = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent,
            req,
            start_ns,
            end_ns: start_ns,
        });
        (self.spans.len() - 1) as u32
    }

    /// Close span `id`; returns its duration in ns.
    fn close(&mut self, id: u32) -> u64 {
        let now = self.t0.elapsed().as_nanos() as u64;
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        now - span.start_ns
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Tab-separated: id, parent (-1 for roots), request, name, start, end.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\treq\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == u32::MAX {
                -1
            } else {
                s.parent as i64
            };
            let req = if s.req == u64::MAX { -1 } else { s.req as i64 };
            writeln!(
                out,
                "{i}\t{parent}\t{req}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// What one traced drive of a deployment observed.
#[derive(Default)]
pub struct Drive {
    /// Host seconds of the whole drive, set-up included.
    pub secs: f64,
    /// Host seconds of the request loop alone.
    pub loop_secs: f64,
    pub total_requests: u64,
    pub bulk_load_ns: u64,
    pub rows: u64,
    pub prewarm_ns: u64,
    /// Host ns of every `serve_kv_read` / `serve_kv_write` call in the loop.
    pub read_ns: Vec<u64>,
    pub write_ns: Vec<u64>,
    // Measured-window counters (after the warmup reset), as the runner
    // counts them.
    pub requests: u64,
    pub reads: u64,
    pub writes: u64,
    pub cache_hits: u64,
    pub read_sql: u64,
    pub write_sql: u64,
    pub version_checks: u64,
    pub stale_reads: u64,
    pub l0_hits: u64,
    pub l0_misses: u64,
    pub cache_lookups: u64,
    pub cache_inserts: u64,
    pub evictions: u64,
    pub wal_appends: u64,
    pub snapshots: u64,
    pub snapshot_bytes: u64,
    pub block_hits: u64,
    pub block_misses: u64,
}

/// Drive `cfg` the way `run_kv_experiment` does (single workload, no
/// faults, no control planes), one span per call.
pub fn drive(cfg: &KvExperimentConfig, log: &mut SpanLog) -> StoreResult<Drive> {
    let t0 = Instant::now();
    let mut d = Drive::default();
    let root = log.open("perfbench.drive", u32::MAX, u64::MAX);
    let wl_cfg = &cfg.workload;

    let s = log.open("dcache.deployment_new", root, u64::MAX);
    let mut dep = Deployment::new(cfg.deployment.clone(), kv_catalog("kv"));
    log.close(s);

    let s = log.open("storekit.bulk_load", root, u64::MAX);
    d.rows = dep.cluster.bulk_load(
        "kv",
        (0..wl_cfg.keys).map(|k| {
            vec![
                Datum::Int(k as i64),
                Datum::Payload {
                    len: wl_cfg.size_of(k),
                    seed: 0,
                },
            ]
        }),
    )? as u64;
    d.bulk_load_ns = log.close(s);

    if cfg.prewarm {
        let s = log.open("dcache.prewarm", root, u64::MAX);
        for k in 0..wl_cfg.keys {
            let c = log.open("dcache.serve_kv_read", s, u64::MAX);
            dep.serve_kv_read("kv", k as i64, SimTime::ZERO)?;
            log.close(c);
        }
        d.prewarm_ns = log.close(s);
    }

    let mut wl = wl_cfg.build();
    dep.set_ttl_tenants(1);
    let mut generation: HashMap<u64, u64> = HashMap::new();
    let dt = SimDuration::from_secs_f64(1.0 / cfg.qps.max(1.0));
    let heartbeat_every = (cfg.qps as u64).max(1);
    let mut now = SimTime::ZERO;
    d.total_requests = cfg.warmup_requests + cfg.requests;
    d.read_ns.reserve(d.total_requests as usize);
    let loop_start = Instant::now();
    let mut measuring = false;
    for i in 0..d.total_requests {
        if i == cfg.warmup_requests {
            dep.reset_metrics();
            measuring = true;
        }
        if i % heartbeat_every == 0 {
            dep.cluster.tick(now);
            dep.sharder.renew_all(now);
        }
        let req = wl.next_request();
        dep.ttl_begin_request(0);
        match req.op {
            KvOp::Read => {
                dep.ttl_observe(0, req.key, req.value_bytes, now);
                let s = log.open("dcache.serve_kv_read", root, i);
                let out = dep.serve_kv_read("kv", req.key as i64, now)?;
                d.read_ns.push(log.close(s));
                if measuring {
                    d.reads += 1;
                    d.cache_hits += out.cache_hit as u64;
                    d.version_checks += out.version_checks;
                    d.read_sql += out.sql_statements;
                    d.l0_hits += out.l0_hit as u64;
                    let expect = generation.get(&req.key).copied().unwrap_or(0);
                    d.stale_reads += (out.seed != Some(expect)) as u64;
                }
            }
            KvOp::Write => {
                let g = generation.entry(req.key).or_insert(0);
                *g += 1;
                let value = Datum::Payload {
                    len: req.value_bytes,
                    seed: *g,
                };
                let s = log.open("dcache.serve_kv_write", root, i);
                let out = dep.serve_kv_write("kv", req.key as i64, value, now)?;
                d.write_ns.push(log.close(s));
                if measuring {
                    d.writes += 1;
                    d.write_sql += out.sql_statements;
                }
            }
        }
        now += dt;
    }
    d.loop_secs = loop_start.elapsed().as_secs_f64();
    d.requests = cfg.requests;
    let cache = {
        let (l, r) = (dep.linked_stats(), dep.remote_stats());
        (
            l.hits + l.misses + r.hits + r.misses,
            l.inserts + r.inserts,
            l.evictions + r.evictions,
        )
    };
    (d.cache_lookups, d.cache_inserts, d.evictions) = cache;
    d.l0_misses = dep.l0_stats_total().misses;
    let dur = dep.cluster.durability_stats();
    (d.wal_appends, d.snapshots, d.snapshot_bytes) =
        (dur.wal_appends, dur.snapshots, dur.snapshot_bytes);
    (d.block_hits, d.block_misses) = dep.cluster.block_cache_counts();
    // The runner's call tears its deployment down too.
    let s = log.open("dcache.deployment_drop", root, u64::MAX);
    drop(dep);
    log.close(s);
    log.close(root);
    d.secs = t0.elapsed().as_secs_f64();
    Ok(d)
}

/// Differences between a drive's measured counters and the runner's report
/// of the same configuration (empty when the drive reproduced the run).
pub fn compare(d: &Drive, r: &dcache::ExperimentReport) -> Vec<String> {
    let hit_ratio = if d.reads == 0 {
        0.0
    } else {
        d.cache_hits as f64 / d.reads as f64
    };
    let mut bad = Vec::new();
    for (name, ours, theirs) in [
        ("sql_statements", d.read_sql + d.write_sql, r.sql_statements),
        ("version_checks", d.version_checks, r.version_checks),
        ("stale_reads", d.stale_reads, r.stale_reads),
        ("l0_hits", d.l0_hits, r.l0_hits),
        ("wal_appends", d.wal_appends, r.wal_appends),
        ("snapshot_bytes", d.snapshot_bytes, r.snapshot_bytes),
    ] {
        if ours != theirs {
            bad.push(format!("traced {name} {ours} != report {theirs}"));
        }
    }
    if (hit_ratio - r.cache_hit_ratio).abs() > 1e-12 {
        bad.push(format!(
            "traced hit ratio {hit_ratio} != report {}",
            r.cache_hit_ratio
        ));
    }
    bad
}

/// Host ns per call of each layer's public functions, on the workload's
/// key stream at its sizes.
#[derive(Default, Debug)]
pub struct LayerNs {
    pub next_request: f64,
    pub row_encode: f64,
    pub row_decode: f64,
    pub kv_get_latest: f64,
    pub sql_parse_plan: f64,
    pub sql_select: f64,
    pub sql_update: f64,
    pub on_apply: f64,
    pub snapshot: f64,
    pub cache_get: f64,
    pub cache_insert: f64,
    pub intern: f64,
    pub ring: f64,
    pub tinylfu: f64,
    pub l0_get: f64,
    pub l0_admit: f64,
}

/// Per-call timer that subtracts the cost of reading the clock.
struct Stopwatch {
    overhead_ns: f64,
}

impl Stopwatch {
    fn new() -> Self {
        let mut v: Vec<u64> = (0..10_001)
            .map(|_| {
                let t = Instant::now();
                black_box(());
                t.elapsed().as_nanos() as u64
            })
            .collect();
        v.sort_unstable();
        Stopwatch {
            overhead_ns: v[v.len() / 2] as f64,
        }
    }

    fn time<T>(&self, acc: &mut (f64, u64), f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        acc.0 += t.elapsed().as_nanos() as f64 - self.overhead_ns;
        acc.1 += 1;
        out
    }
}

fn mean(acc: (f64, u64)) -> f64 {
    (acc.0 / acc.1.max(1) as f64).max(0.0)
}

/// Whole-loop timing: host ns per item.
fn per_item<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let t = Instant::now();
    for x in items {
        f(x);
    }
    t.elapsed().as_nanos() as f64 / items.len().max(1) as f64
}

fn kv_key_bytes(key: u64) -> Vec<u8> {
    let mut b = b"kv/".to_vec();
    b.extend_from_slice(&(key as i64).to_be_bytes());
    b
}

fn row_of(key: u64, len: u64, seed: u64) -> Row {
    Row(vec![Datum::Int(key as i64), Datum::Payload { len, seed }])
}

/// Replay `n` requests of `workload`'s stream against each layer.
pub fn replay(workload: Workload, seed: u64, n: usize) -> StoreResult<LayerNs> {
    let cfg = workload.experiment(dcache::ArchKind::Remote, seed);
    let stream = &cfg.workload;
    let mut ns = LayerNs::default();
    let sw = Stopwatch::new();

    // workloads: the request generator.
    let mut wl = stream.build();
    let t = Instant::now();
    let reqs: Vec<KvRequest> = (0..n).map(|_| wl.next_request()).collect();
    ns.next_request = t.elapsed().as_nanos() as f64 / n as f64;
    let reads: Vec<&KvRequest> = reqs.iter().filter(|r| r.op == KvOp::Read).collect();
    let writes: Vec<&KvRequest> = reqs.iter().filter(|r| r.op == KvOp::Write).collect();

    // storekit: row codec and the MVCC engine.
    let rows: Vec<Row> = reqs
        .iter()
        .map(|r| row_of(r.key, r.value_bytes, 0))
        .collect();
    let mut encoded = Vec::with_capacity(n);
    ns.row_encode = per_item(&rows, |r| encoded.push(black_box(r).encode()));
    ns.row_decode = per_item(&encoded, |b| {
        black_box(Row::decode(black_box(b)).is_ok());
    });
    let mut engine = KvEngine::new();
    for k in 0..stream.keys {
        engine.put(
            record_key("kv", &Datum::Int(k as i64)),
            row_of(k, stream.size_of(k), 0).encode(),
        );
    }
    let read_keys: Vec<Vec<u8>> = reads
        .iter()
        .map(|r| record_key("kv", &Datum::Int(r.key as i64)))
        .collect();
    ns.kv_get_latest = per_item(&read_keys, |k| {
        black_box(engine.get_latest(black_box(k)).map(|v| v.version));
    });

    // storekit: durability, at the engine's size.
    let cost = &cfg.deployment.cluster.cost;
    let regions = cfg.deployment.cluster.regions as usize;
    let mut store = DurableStore::new(
        DurabilityConfig {
            enabled: true,
            ..DurabilityConfig::default()
        },
        regions,
    );
    let wal: Vec<(usize, Vec<u8>, Vec<u8>)> = writes
        .iter()
        .map(|w| {
            let key = record_key("kv", &Datum::Int(w.key as i64));
            let row = row_of(w.key, w.value_bytes, 1).encode();
            ((w.key % regions as u64) as usize, key, row)
        })
        .collect();
    let mut version = engine.next_version();
    ns.on_apply = per_item(&wal, |(region, key, row)| {
        version += 1;
        let bytes = row.len() as u64;
        black_box(store.on_apply(
            *region,
            version,
            vec![(key.clone(), Some(row.clone()))],
            bytes,
            cost,
        ));
    });
    let mut snaps: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            black_box(store.snapshot_now(&engine, cost));
            t.elapsed().as_nanos() as f64
        })
        .collect();
    snaps.sort_by(f64::total_cmp);
    ns.snapshot = snaps[1];
    drop(store);
    drop(engine);

    // storekit: the SQL path, with the workload's cluster configuration.
    let mut cluster = SqlCluster::new(kv_catalog("kv"), cfg.deployment.cluster.clone());
    cluster.bulk_load(
        "kv",
        (0..stream.keys).map(|k| row_of(k, stream.size_of(k), 0).0),
    )?;
    let select_sql = "SELECT v, _version FROM kv WHERE k = ?";
    let t = Instant::now();
    for _ in 0..1_000 {
        black_box(cluster.prepare_cached(black_box(select_sql))?);
    }
    ns.sql_parse_plan = t.elapsed().as_nanos() as f64 / 1_000.0;
    let select = cluster.prepare_cached(select_sql)?;
    let replace = cluster.prepare_cached("REPLACE INTO kv VALUES (?, ?)")?;
    let dt = SimDuration::from_secs_f64(1.0 / cfg.qps);
    let heartbeat_every = cfg.qps as usize;
    let mut now = SimTime::ZERO;
    let (mut sel, mut upd) = ((0.0, 0), (0.0, 0));
    let mut gen: HashMap<u64, u64> = HashMap::new();
    for (i, r) in reqs.iter().enumerate() {
        if i % heartbeat_every == 0 {
            cluster.tick(now);
        }
        match r.op {
            KvOp::Read => {
                sw.time(&mut sel, || {
                    cluster.execute_cached(&select, &[Datum::Int(r.key as i64)], now)
                })?;
            }
            KvOp::Write => {
                let g = gen.entry(r.key).or_insert(0);
                *g += 1;
                let params = [
                    Datum::Int(r.key as i64),
                    Datum::Payload {
                        len: r.value_bytes,
                        seed: *g,
                    },
                ];
                sw.time(&mut upd, || cluster.execute_cached(&replace, &params, now))?;
            }
        }
        now += dt;
    }
    (ns.sql_select, ns.sql_update) = (mean(sel), mean(upd));
    drop(cluster);

    // cachekit: interner, ring, one cache node/server, TinyLFU, L0.
    let mut interner = KeyInterner::new();
    for k in 0..stream.keys {
        interner.intern(&kv_key_bytes(k));
    }
    let key_bytes: Vec<Vec<u8>> = reqs.iter().map(|r| kv_key_bytes(r.key)).collect();
    let mut interned = Vec::with_capacity(n);
    ns.intern = per_item(&key_bytes, |b| interned.push(interner.intern(black_box(b))));
    let ring = HashRing::with_shards(cfg.deployment.remote_cache_nodes as u32, 128);
    ns.ring = per_item(&interned, |k: &InternedKey| {
        black_box(ring.shard_for_hashed(black_box(k.route_hash())));
    });

    let val = |r: &KvRequest, version: u64| CachedVal {
        version,
        bytes: r.value_bytes,
        seed: 0,
    };
    let mut cache: Cache<InternedKey, CachedVal> =
        Cache::new(cfg.deployment.remote_cache_bytes_per_node, PolicyKind::Lru);
    for k in 0..stream.keys {
        let v = CachedVal {
            version: 1,
            bytes: stream.size_of(k),
            seed: 0,
        };
        cache.insert(interner.intern(&kv_key_bytes(k)), v, v.bytes, 0);
    }
    let (mut get, mut ins) = ((0.0, 0), (0.0, 0));
    for (i, (r, k)) in reqs.iter().zip(&interned).enumerate() {
        let t = i as u64 * 1_000;
        let hit = r.op == KvOp::Read && sw.time(&mut get, || cache.get(k, t).is_some());
        if !hit {
            sw.time(&mut ins, || cache.insert(*k, val(r, 2), r.value_bytes, t));
        }
    }
    (ns.cache_get, ns.cache_insert) = (mean(get), mean(ins));
    drop(cache);

    let l0_cfg = L0Config::default();
    let mut lfu = TinyLfu::new(l0_cfg.params().expected_entries);
    let mut victim = 0u64;
    ns.tinylfu = per_item(&interned, |k: &InternedKey| {
        let h = k.route_hash();
        lfu.record(h);
        black_box(lfu.admit(h, victim));
        victim = h;
    });
    let mut l0: L0Cache<InternedKey, CachedVal> = L0Cache::new(l0_cfg.params());
    let (mut get, mut admit) = ((0.0, 0), (0.0, 0));
    for (i, (r, k)) in reqs.iter().zip(&interned).enumerate() {
        if r.op != KvOp::Read {
            continue;
        }
        let t = i as u64 * 1_000;
        if !sw.time(&mut get, || l0.get(k, t).is_some()) {
            sw.time(&mut admit, || l0.admit(*k, val(r, 1), 1, r.value_bytes, t));
        }
    }
    (ns.l0_get, ns.l0_admit) = (mean(get), mean(admit));
    Ok(ns)
}

/// One architecture's host ns/request split by layer.
pub struct Attribution {
    pub host_ns_per_req: f64,
    pub workloads: f64,
    pub sql: f64,
    /// Parts of `sql` spent in the MVCC engine, the row codec and the WAL.
    pub sql_kv_row_wal: f64,
    pub cachekit: f64,
    pub dcache_self: f64,
}

pub fn attribute(d: &Drive, ns: &LayerNs, remote: bool, l0: bool) -> Attribution {
    let per = |x: u64| x as f64 / d.requests.max(1) as f64;
    let host = d.loop_secs * 1e9 / d.total_requests.max(1) as f64;
    let workloads = ns.next_request;
    let sql = per(d.read_sql) * ns.sql_select + per(d.write_sql) * ns.sql_update;
    let sql_kv_row_wal = per(d.read_sql) * (ns.kv_get_latest + ns.row_decode)
        + per(d.writes) * ns.row_encode
        + per(d.wal_appends) * ns.on_apply
        + per(d.snapshots) * ns.snapshot;
    let l0_part = if l0 {
        per(d.reads) * ns.l0_get + per(d.l0_misses) * (ns.l0_admit + ns.tinylfu)
    } else {
        0.0
    };
    let cachekit = ns.intern
        + ns.ring * if remote { 2.0 } else { 1.0 }
        + per(d.cache_lookups) * ns.cache_get
        + per(d.cache_inserts) * ns.cache_insert
        + l0_part;
    Attribution {
        host_ns_per_req: host,
        workloads,
        sql,
        sql_kv_row_wal,
        cachekit,
        dcache_self: host - workloads - sql - cachekit,
    }
}
