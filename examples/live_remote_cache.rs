//! The Remote architecture over real sockets — and where the simulator's
//! cost constants come from.
//!
//! Starts the `netrpc` cache server on loopback, drives a Zipfian workload
//! through it with real tokio clients, and reports measured per-operation
//! CPU time next to the constants the simulator charges for the same
//! operations. Loopback has no NIC, so wire-level per-byte costs read low
//! here; the fixed per-op costs are the interesting comparison.
//!
//! ```sh
//! cargo run --release --example live_remote_cache
//! ```

use dcache_cost::net::{CacheClient, CacheServer};
use dcache_cost::workload::{KvWorkloadConfig, SizeDist};
use std::time::Instant;

/// Process CPU time (user+sys) in nanoseconds, via getrusage-equivalent
/// /proc accounting. Good enough for per-op averages over millions of ops.
fn process_cpu_nanos() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields 14 and 15 (1-based) are utime/stime in clock ticks. The comm
    // field may contain spaces but is parenthesized, so index from after
    // the closing paren: utime/stime are then fields 11 and 12 (0-based).
    let start = stat.rfind(") ").map(|i| i + 2).unwrap_or(0);
    let fields: Vec<&str> = stat[start..].split_whitespace().collect();
    let utime: u64 = fields.get(11).and_then(|s| s.parse().ok()).unwrap_or(0);
    let stime: u64 = fields.get(12).and_then(|s| s.parse().ok()).unwrap_or(0);
    let ticks_per_sec = 100u64; // CLK_TCK on Linux
    (utime + stime) * (1_000_000_000 / ticks_per_sec)
}

#[tokio::main(flavor = "multi_thread", worker_threads = 4)]
async fn main() -> std::io::Result<()> {
    let ops: u64 = if std::env::args().any(|a| a == "--quick") {
        20_000
    } else {
        100_000
    };

    let server = CacheServer::bind("127.0.0.1:0", 256 << 20).await?;
    let addr = server.local_addr();
    let handle = server.spawn();
    println!("remote cache listening on {addr}");

    // A Zipfian stream of GET/SET against 10K keys of 1 KB values.
    let cfg = KvWorkloadConfig {
        keys: 10_000,
        alpha: 1.2,
        read_ratio: 0.9,
        sizes: SizeDist::Fixed(1_024),
        seed: 42,
        churn_period: None,
    };
    let mut workload = cfg.build();
    let value = vec![0xABu8; 1_024];

    let mut client = CacheClient::connect(addr).await?;
    // Warm: one SET per key.
    for k in 0..cfg.keys {
        client
            .set(format!("key{k}").as_bytes(), &value, None)
            .await?;
    }

    let cpu0 = process_cpu_nanos();
    let wall0 = Instant::now();
    let mut hits = 0u64;
    for _ in 0..ops {
        let req = workload.next_request();
        let key = format!("key{}", req.key);
        match req.op {
            dcache_cost::workload::KvOp::Read => {
                if client.get(key.as_bytes()).await?.is_some() {
                    hits += 1;
                }
            }
            dcache_cost::workload::KvOp::Write => {
                client.set(key.as_bytes(), &value, None).await?;
            }
        }
    }
    let wall = wall0.elapsed();
    let cpu = process_cpu_nanos().saturating_sub(cpu0);

    let (srv_hits, srv_misses, entries, used) = client.stats().await?;
    handle.shutdown().await;

    let per_op_cpu_us = cpu as f64 / ops as f64 / 1_000.0;
    let per_op_wall_us = wall.as_micros() as f64 / ops as f64;
    println!("\n{ops} ops over real TCP (1 KB values, 90% reads):");
    println!(
        "  wall time  : {:.2}s  ({per_op_wall_us:.1} us/op round trip)",
        wall.as_secs_f64()
    );
    println!("  CPU (both sides + runtime): {per_op_cpu_us:.1} us/op");
    println!("  client-observed hits: {hits}; server stats: {srv_hits} hits / {srv_misses} misses, {entries} entries, {used} bytes");

    println!("\nSimulator constants for the same path (see dcache::AppCostConfig):");
    println!("  app rpc fixed 35us x2 sides + cache server op 6us + per-byte terms");
    println!("  => modeled remote GET hit ~ 80-90us CPU at 1 KB, measured {per_op_cpu_us:.1}us.");
    println!("  (Loopback skips NIC/kernel-bypass costs real deployments pay; the");
    println!("   simulator's constants deliberately sit above this floor.)");
    Ok(())
}
