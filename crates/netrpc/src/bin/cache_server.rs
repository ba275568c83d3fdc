//! Standalone remote-cache server.
//!
//! ```sh
//! cargo run --release -p netrpc --bin cache_server -- 127.0.0.1:7600 256
//! #                                                    [addr]        [capacity MiB]
//! ```
//!
//! Speaks the `netrpc` length-prefixed protocol (GET/SET/DEL/VERSION/STATS/
//! PING). Shuts down cleanly on ctrl-c. Pair it with
//! `examples/live_remote_cache.rs` or the `netrpc::CacheClient` API.

use netrpc::CacheServer;

#[tokio::main]
async fn main() -> std::io::Result<()> {
    let mut args = std::env::args().skip(1);
    let addr = args.next().unwrap_or_else(|| "127.0.0.1:7600".to_string());
    let capacity_mib: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(256);

    let server = CacheServer::bind(&addr, capacity_mib << 20).await?;
    println!(
        "cache_server listening on {} (capacity {} MiB); ctrl-c to stop",
        server.local_addr(),
        capacity_mib
    );
    let handle = server.spawn();

    tokio::signal::ctrl_c().await?;
    println!("shutting down");
    handle.shutdown().await;
    Ok(())
}
