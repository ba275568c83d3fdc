//! Criterion micro-benchmarks of the substrates.
//!
//! These measure *host* performance of the building blocks (not simulated
//! cost): cache operations per policy, Zipf sampling, SQL parse/plan/
//! execute, row codec, wire codec, MVCC reads, and a whole simulated
//! request through each architecture. Useful for keeping the experiment
//! harness fast and for spotting regressions in the hot paths.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dcache::deployment::{kv_catalog, Deployment};
use dcache::{ArchKind, DeploymentConfig};
use simnet::SimTime;
use storekit::row::Row;
use storekit::sql::exec::MemStore;
use storekit::sql::{parse, plan};
use storekit::value::Datum;
use workloads::ZipfSampler;

fn bench_cache_ops(c: &mut Criterion) {
    use cachekit::{Cache, PolicyKind};
    let mut group = c.benchmark_group("cache_ops");
    for policy in PolicyKind::ALL {
        group.bench_with_input(
            BenchmarkId::new("get_hit", policy.label()),
            &policy,
            |b, &policy| {
                let mut cache: Cache<u64, u64> = Cache::new(1 << 20, policy);
                for k in 0..1_000u64 {
                    cache.insert(k, k, 100, 0);
                }
                let mut k = 0u64;
                b.iter(|| {
                    k = (k + 7) % 1_000;
                    black_box(cache.get(&k, 0));
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("insert_evict", policy.label()),
            &policy,
            |b, &policy| {
                let mut cache: Cache<u64, u64> = Cache::new(64 << 10, policy);
                let mut k = 0u64;
                b.iter(|| {
                    k += 1;
                    cache.insert(black_box(k), k, 100, 0);
                });
            },
        );
    }
    group.finish();
}

fn bench_zipf(c: &mut Criterion) {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let z = ZipfSampler::new(100_000, 1.2);
    let mut rng = StdRng::seed_from_u64(7);
    c.bench_function("zipf_sample_100k_keys", |b| {
        b.iter(|| black_box(z.sample_key(&mut rng)))
    });
}

fn bench_sql(c: &mut Criterion) {
    let mut group = c.benchmark_group("sql");
    let sql = "SELECT v, _version FROM kv WHERE k = ?";
    group.bench_function("parse", |b| b.iter(|| black_box(parse(sql).unwrap())));

    let mut store = MemStore::new(kv_catalog("kv"));
    for k in 0..1_000i64 {
        store
            .run(
                "INSERT INTO kv VALUES (?, ?)",
                &[k.into(), Datum::Bytes(vec![0; 64])],
            )
            .unwrap();
    }
    let stmt = parse(sql).unwrap();
    let catalog = store.catalog.clone();
    group.bench_function("plan", |b| {
        b.iter(|| black_box(plan(&catalog, &stmt).unwrap()))
    });
    group.bench_function("point_select_end_to_end", |b| {
        let mut k = 0i64;
        b.iter(|| {
            k = (k + 1) % 1_000;
            black_box(store.run(sql, &[k.into()]).unwrap());
        })
    });
    group.finish();
}

fn bench_row_codec(c: &mut Criterion) {
    let row = Row(vec![
        Datum::Int(42),
        Datum::Text("catalog_7.schema_3.table_99".into()),
        Datum::Bytes(vec![7; 256]),
        Datum::Payload {
            len: 1 << 20,
            seed: 9,
        },
    ]);
    let encoded = row.encode();
    let mut group = c.benchmark_group("row_codec");
    group.throughput(Throughput::Bytes(encoded.len() as u64));
    group.bench_function("encode", |b| b.iter(|| black_box(row.encode())));
    group.bench_function("decode", |b| {
        b.iter(|| black_box(Row::decode(&encoded).unwrap()))
    });
    group.finish();
}

fn bench_wire_codec(c: &mut Criterion) {
    use bytes::BytesMut;
    use netrpc::Request;
    let req = Request::Set {
        key: b"user:12345".to_vec(),
        value: vec![0xAB; 1024],
        ttl_ms: Some(30_000),
    };
    let mut group = c.benchmark_group("wire_codec");
    group.throughput(Throughput::Bytes(1024));
    group.bench_function("encode_decode_set_1k", |b| {
        b.iter(|| {
            let mut buf = BytesMut::new();
            req.encode(&mut buf);
            black_box(Request::decode(&mut buf).unwrap());
        })
    });
    group.finish();
}

fn bench_mvcc(c: &mut Criterion) {
    use storekit::kv::KvEngine;
    let mut kv = KvEngine::new();
    for k in 0..10_000u64 {
        for _ in 0..4 {
            kv.put(k.to_be_bytes().to_vec(), vec![0; 64]);
        }
    }
    c.bench_function("mvcc_get_latest_10k_keys_4_versions", |b| {
        let mut k = 0u64;
        b.iter(|| {
            k = (k + 13) % 10_000;
            black_box(kv.get_latest(&k.to_be_bytes()));
        })
    });
}

fn bench_serve_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulated_request");
    group.sample_size(20);
    for arch in [ArchKind::Base, ArchKind::Linked, ArchKind::LinkedVersion] {
        group.bench_with_input(BenchmarkId::new("read", arch.label()), &arch, |b, &arch| {
            let mut d = Deployment::new(DeploymentConfig::test_small(arch), kv_catalog("kv"));
            d.cluster
                .bulk_load(
                    "kv",
                    (0..1_000i64).map(|k| {
                        vec![
                            Datum::Int(k),
                            Datum::Payload {
                                len: 1_024,
                                seed: 0,
                            },
                        ]
                    }),
                )
                .unwrap();
            let mut i = 0u64;
            b.iter(|| {
                i += 1;
                let key = (i % 1_000) as i64;
                black_box(
                    d.serve_kv_read("kv", key, SimTime::from_nanos(i * 1_000))
                        .unwrap(),
                );
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_cache_ops,
    bench_zipf,
    bench_sql,
    bench_row_codec,
    bench_wire_codec,
    bench_mvcc,
    bench_serve_paths
);
criterion_main!(benches);
