//! # netrpc — a real remote cache over real sockets
//!
//! The simulator charges *modeled* CPU for RPC and cache operations; this
//! crate is the grounding for those constants and the live demonstration of
//! the paper's **Remote** architecture (Figure 1b): a Memcached/Redis-style
//! versioned cache server speaking a length-prefixed binary protocol over
//! TCP, built on tokio per the project's networking guides.
//!
//! * [`codec`] — the wire format: `u32` length prefix + tagged payload,
//!   encoded/decoded with `bytes`. Every message round-trips bit-exactly
//!   (property-tested). Includes the batched `MGET`/`MSET` operations,
//!   which carry many keys/entries per frame so the fixed per-RPC cost
//!   (syscalls, framing, scheduling) is paid once per batch.
//! * [`server`] — the cache server: one tokio task per connection, a
//!   sharded in-memory store built on [`cachekit::Cache`], per-key MVCC
//!   versions (`SET` returns the new version; `VERSION` reads it — the
//!   §5.5 "version check" as a real network operation), whole-batch
//!   `MGET`/`MSET` application under a single lock acquisition, and
//!   graceful shutdown via a watch channel.
//! * [`client`] — a straightforward request/response client, including
//!   `mget`/`mset` batch helpers.
//! * [`resilient`] — the fault-tolerant client: per-request deadlines,
//!   automatic reconnect with jittered backoff, bounded retries on
//!   idempotent operations (GET / VERSION / STATS / PING / MGET — a
//!   batched read is still safe to replay; MSET, like SET, is attempted
//!   once), and an open/half-open circuit breaker.
//! * [`obs`] — wall-clock tracing: attach a [`obs::SharedTraceSink`] to
//!   the resilient client and/or the server's [`server::Shared`] and every
//!   RPC attempt / server apply records a `telemetry` span.
//!
//! ```no_run
//! # async fn demo() -> std::io::Result<()> {
//! use netrpc::{client::CacheClient, server::CacheServer};
//!
//! let server = CacheServer::bind("127.0.0.1:0", 64 << 20).await?;
//! let addr = server.local_addr();
//! let handle = server.spawn();
//!
//! let mut client = CacheClient::connect(addr).await?;
//! let version = client.set(b"k", b"v", None).await?;
//! assert_eq!(client.get(b"k").await?, Some((b"v".to_vec(), version)));
//! handle.shutdown().await;
//! # Ok(())
//! # }
//! ```

pub mod client;
pub mod codec;
pub mod obs;
pub mod resilient;
pub mod server;

pub use client::CacheClient;
pub use codec::{Request, Response};
pub use obs::{shared_sink, SharedTraceSink};
pub use resilient::{ResilienceStats, ResilientClient, ResilientConfig, RetryPolicy};
pub use server::{CacheServer, ServerHandle};
