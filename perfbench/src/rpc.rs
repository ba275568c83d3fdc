//! The real-server side: `netrpc::CacheServer` on 127.0.0.1, driven by one
//! `ResilientClient` in a closed loop (the next request leaves only after
//! the previous reply arrived) with the workload's key stream.
//!
//! Reads are `GET`s, and one read in eight becomes an 8-key `MGET` of it and
//! the next seven keys of the stream; writes are `SET`s. Every reply is
//! checked against a shadow of the client's own writes.

use cachekit::ring::splitmix64;
use netrpc::{CacheServer, Request, ResilientClient, ResilientConfig, Response, ServerHandle};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};
use tokio::runtime::block_on;
use workloads::{KvOp, KvWorkload, KvWorkloadConfig};

/// Keys per `MSET` while preloading.
const PRELOAD_BATCH: u64 = 128;
/// Keys in one `MGET`.
const MGET_KEYS: usize = 8;

/// One client operation.
#[derive(Clone, Debug)]
pub enum Op {
    Get(u64),
    MGet(Vec<u64>),
    Set(u64),
}

/// Deterministic operation stream over a workload's requests.
pub struct OpStream {
    wl: KvWorkload,
    seed: u64,
    i: u64,
}

impl OpStream {
    pub fn new(stream: &KvWorkloadConfig) -> Self {
        OpStream {
            wl: stream.build(),
            seed: stream.seed,
            i: 0,
        }
    }

    pub fn next_op(&mut self) -> Op {
        self.i += 1;
        let req = self.wl.next_request();
        match req.op {
            KvOp::Write => Op::Set(req.key),
            KvOp::Read if splitmix64(self.seed ^ self.i).is_multiple_of(MGET_KEYS as u64) => {
                let mut keys = vec![req.key];
                keys.extend((1..MGET_KEYS).map(|_| self.wl.next_request().key));
                Op::MGet(keys)
            }
            KvOp::Read => Op::Get(req.key),
        }
    }
}

pub fn key_bytes(key: u64) -> [u8; 8] {
    key.to_be_bytes()
}

/// The value the client writes for `key` at write generation `gen`.
pub fn value_bytes(key: u64, gen: u64, len: u64) -> Vec<u8> {
    let word = splitmix64(key ^ gen.rotate_left(32)).to_le_bytes();
    (0..len as usize).map(|i| word[i % 8]).collect()
}

/// What the client wrote last for each key: `(generation, version)`.
pub struct Shadow {
    stream: KvWorkloadConfig,
    latest: HashMap<u64, (u64, u64)>,
}

impl Shadow {
    fn expect(&self, key: u64, got: &Option<(Vec<u8>, u64)>) -> bool {
        match (self.latest.get(&key), got) {
            (Some(&(gen, version)), Some((value, v))) => {
                *v == version && *value == value_bytes(key, gen, self.stream.size_of(key))
            }
            _ => false,
        }
    }

    fn next_generation(&self, key: u64) -> u64 {
        self.latest.get(&key).map_or(1, |&(g, _)| g + 1)
    }
}

/// A bound server preloaded with every key of the stream.
pub struct Loaded {
    pub handle: ServerHandle,
    pub addr: std::net::SocketAddr,
    pub shadow: Shadow,
}

/// Bind a server sized to hold every key without eviction, then preload
/// every key at generation 0 through the server's own `MSET` apply, the
/// server-side counterpart of the simulator's bulk load.
pub fn bind_and_preload(stream: &KvWorkloadConfig) -> std::io::Result<Loaded> {
    let bytes: u64 = (0..stream.keys).map(|k| stream.size_of(k) + 128).sum();
    let server = block_on(CacheServer::bind("127.0.0.1:0", bytes * 2 + (64 << 20)))?;
    let addr = server.local_addr();
    let handle = server.spawn();
    let mut latest = HashMap::with_capacity(stream.keys as usize);
    let mut start = 0;
    while start < stream.keys {
        let end = (start + PRELOAD_BATCH).min(stream.keys);
        let entries = (start..end)
            .map(|k| (key_bytes(k).to_vec(), value_bytes(k, 0, stream.size_of(k))))
            .collect();
        match handle.shared.apply(Request::MSet {
            entries,
            ttl_ms: None,
        }) {
            Response::StoredMany { versions } if versions.len() == (end - start) as usize => {
                latest.extend((start..end).zip(versions.into_iter().map(|v| (0, v))));
            }
            other => {
                shutdown(handle);
                return Err(std::io::Error::other(format!("preload MSET: {other:?}")));
            }
        }
        start = end;
    }
    Ok(Loaded {
        handle,
        addr,
        shadow: Shadow {
            stream: stream.clone(),
            latest,
        },
    })
}

pub fn shutdown(handle: ServerHandle) {
    block_on(handle.shutdown());
}

/// Result of the timed closed loop.
pub struct LoopResult {
    pub secs: f64,
    /// Round trip of every operation, microseconds, sorted.
    pub rtt_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub retries: u64,
    pub failures: Vec<String>,
}

/// One operation against the server; `Err` carries the failure reason.
async fn apply_op(
    client: &mut ResilientClient,
    shadow: &mut Shadow,
    op: &Op,
) -> Result<(), String> {
    match op {
        Op::Get(k) => {
            let got = client
                .get(&key_bytes(*k))
                .await
                .map_err(|e| e.to_string())?;
            shadow
                .expect(*k, &got)
                .then_some(())
                .ok_or_else(|| format!("GET {k} returned a wrong value"))
        }
        Op::MGet(ks) => {
            let keys: Vec<[u8; 8]> = ks.iter().map(|&k| key_bytes(k)).collect();
            let refs: Vec<&[u8]> = keys.iter().map(|k| &k[..]).collect();
            let items = client.mget(&refs).await.map_err(|e| e.to_string())?;
            ks.iter()
                .zip(&items)
                .all(|(&k, got)| shadow.expect(k, got))
                .then_some(())
                .ok_or_else(|| format!("MGET {ks:?} returned a wrong value"))
        }
        Op::Set(k) => {
            let gen = shadow.next_generation(*k);
            let value = value_bytes(*k, gen, shadow.stream.size_of(*k));
            let version = client
                .set(&key_bytes(*k), &value, None)
                .await
                .map_err(|e| e.to_string())?;
            shadow.latest.insert(*k, (gen, version));
            Ok(())
        }
    }
}

/// Closed loop for `seconds` on one connection.
pub fn closed_loop(loaded: &mut Loaded, seconds: f64) -> LoopResult {
    let mut ops = OpStream::new(&loaded.shadow.stream);
    let mut client = ResilientClient::new(loaded.addr, ResilientConfig::default());
    let shadow = &mut loaded.shadow;
    let mut out = LoopResult {
        secs: 0.0,
        rtt_us: Vec::new(),
        attempted: 0,
        failed: 0,
        retries: 0,
        failures: Vec::new(),
    };
    block_on(async {
        let t0 = Instant::now();
        let until = t0 + Duration::from_secs_f64(seconds);
        while Instant::now() < until {
            let op = ops.next_op();
            let start = Instant::now();
            let result = apply_op(&mut client, shadow, &op).await;
            out.rtt_us.push(start.elapsed().as_secs_f64() * 1e6);
            out.attempted += 1;
            if let Err(e) = result {
                out.failed += 1;
                if out.failures.len() < 5 {
                    out.failures.push(e);
                }
            }
        }
        out.secs = t0.elapsed().as_secs_f64();
    });
    out.retries = client.stats().retries;
    out.rtt_us.sort_by(f64::total_cmp);
    out
}

/// Per-layer costs of the server path, timed from outside.
pub struct Layers {
    /// Host ns per key of binding the server and preloading every key.
    pub preload_ns_per_key: f64,
    /// Host ns per `Shared::apply` on the stream's requests.
    pub apply_ns: f64,
    /// Host ns per request encode+decode plus response encode+decode.
    pub codec_roundtrip_ns: f64,
    /// Median loopback round trip minus apply and codec, microseconds.
    pub client_wait_us: f64,
    pub rtt_p50_us: f64,
    pub rtt_p99_us: f64,
    pub retries: u64,
    pub rtt_samples: usize,
    pub failed: u64,
    pub attempted: u64,
}

fn request_of(op: &Op, shadow: &Shadow) -> Request {
    match op {
        Op::Get(k) => Request::Get {
            key: key_bytes(*k).to_vec(),
        },
        Op::MGet(ks) => Request::MGet {
            keys: ks.iter().map(|&k| key_bytes(k).to_vec()).collect(),
        },
        Op::Set(k) => Request::Set {
            key: key_bytes(*k).to_vec(),
            value: value_bytes(*k, 1, shadow.stream.size_of(*k)),
            ttl_ms: None,
        },
    }
}

/// Time `Shared::apply` and the codec on `n` operations, then `n` traced
/// loopback round trips.
pub fn layers(stream: &KvWorkloadConfig, n: usize) -> std::io::Result<Layers> {
    let t0 = Instant::now();
    let mut loaded = bind_and_preload(stream)?;
    let preload_ns_per_key = t0.elapsed().as_nanos() as f64 / stream.keys as f64;
    let mut ops = OpStream::new(stream);
    let ops: Vec<Op> = (0..n).map(|_| ops.next_op()).collect();
    let reqs: Vec<Request> = ops
        .iter()
        .map(|op| request_of(op, &loaded.shadow))
        .collect();

    let mut buf = bytes::BytesMut::new();
    let t0 = Instant::now();
    for req in &reqs {
        req.encode(&mut buf);
        let back =
            Request::decode(&mut buf).map_err(|e| std::io::Error::other(format!("{e:?}")))?;
        black_box(back);
    }
    let req_codec = t0.elapsed().as_nanos() as f64;

    let t0 = Instant::now();
    let resps: Vec<Response> = reqs
        .into_iter()
        .map(|r| loaded.handle.shared.apply(black_box(r)))
        .collect();
    let apply_ns = t0.elapsed().as_nanos() as f64 / n as f64;
    // The direct applies wrote generation-1 values; teach the shadow.
    for (op, resp) in ops.iter().zip(&resps) {
        if let (Op::Set(k), Response::Stored { version }) = (op, resp) {
            loaded.shadow.latest.insert(*k, (1, *version));
        }
    }

    let t0 = Instant::now();
    for resp in &resps {
        resp.encode(&mut buf);
        let back =
            Response::decode(&mut buf).map_err(|e| std::io::Error::other(format!("{e:?}")))?;
        black_box(back);
    }
    let codec_roundtrip_ns = (req_codec + t0.elapsed().as_nanos() as f64) / n as f64;

    let mut ops = OpStream::new(stream);
    let mut client = ResilientClient::new(loaded.addr, ResilientConfig::default());
    let mut rtt = Vec::with_capacity(n);
    let mut failed = 0;
    block_on(async {
        for _ in 0..n {
            let op = ops.next_op();
            let start = Instant::now();
            if apply_op(&mut client, &mut loaded.shadow, &op)
                .await
                .is_err()
            {
                failed += 1;
            }
            rtt.push(start.elapsed().as_secs_f64() * 1e6);
        }
    });
    let retries = client.stats().retries;
    drop(client);
    shutdown(loaded.handle);
    rtt.sort_by(f64::total_cmp);
    let median_rtt = crate::quantile(&rtt, 0.5);
    Ok(Layers {
        preload_ns_per_key,
        apply_ns,
        codec_roundtrip_ns,
        client_wait_us: median_rtt - (apply_ns + codec_roundtrip_ns) / 1e3,
        rtt_p50_us: median_rtt,
        rtt_p99_us: crate::quantile(&rtt, 0.99),
        retries,
        rtt_samples: rtt.len(),
        failed,
        attempted: n as u64,
    })
}
