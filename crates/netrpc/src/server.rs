//! The cache server: tokio TCP, one task per connection, shared store.
//!
//! The store is a [`cachekit::Cache`] behind a `parking_lot` mutex with a
//! monotonically increasing version counter — `SET` returns the assigned
//! version, `VERSION` reads it, giving the wire-level equivalent of the
//! paper's version check. Shutdown is cooperative: a watch channel closes
//! the accept loop and in-flight connections finish their current request.

use crate::codec::{CodecError, Request, Response};
use crate::obs::{record_span, SharedTraceSink};
use bytes::BytesMut;
use cachekit::{Cache, PolicyKind};
use parking_lot::Mutex;
use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{SystemTime, UNIX_EPOCH};
use telemetry::SpanStatus;
use tokio::io::{AsyncReadExt, AsyncWriteExt};
use tokio::net::{TcpListener, TcpStream};
use tokio::sync::watch;
use tokio::task::JoinHandle;

/// One stored entry.
#[derive(Debug, Clone)]
struct Entry {
    value: Vec<u8>,
    version: u64,
}

struct Store {
    cache: Cache<Vec<u8>, Entry>,
    next_version: u64,
}

/// Shared server state.
pub struct Shared {
    store: Mutex<Store>,
    trace_sink: Mutex<Option<SharedTraceSink>>,
}

fn now_nanos() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}

impl Shared {
    fn new(capacity_bytes: u64) -> Self {
        Shared {
            store: Mutex::new(Store {
                cache: Cache::new(capacity_bytes, PolicyKind::Lru),
                next_version: 1,
            }),
            trace_sink: Mutex::new(None),
        }
    }

    /// Attach a shared trace sink: every subsequent `apply` records one
    /// wall-clock span (tier `server`, named after the request kind). The
    /// wire protocol carries no trace context, so server spans use trace
    /// id 0 — they are per-node observations, correlated by time.
    pub fn attach_trace_sink(&self, sink: SharedTraceSink) {
        *self.trace_sink.lock() = Some(sink);
    }

    /// Apply one request. Pure with respect to IO — trivially testable.
    pub fn apply(&self, req: Request) -> Response {
        let name = match &req {
            Request::Get { .. } => "net.server_get",
            Request::Set { .. } => "net.server_set",
            Request::Del { .. } => "net.server_del",
            Request::Version { .. } => "net.server_version",
            Request::Stats => "net.server_stats",
            Request::Ping => "net.server_ping",
            Request::MGet { .. } => "net.server_mget",
            Request::MSet { .. } => "net.server_mset",
        };
        let sink = self.trace_sink.lock().clone();
        let start = now_nanos();
        let resp = self.apply_inner(req);
        let status = match &resp {
            Response::Error { .. } => SpanStatus::Failed,
            _ => SpanStatus::Ok,
        };
        record_span(&sink, 0, name, "server", start, now_nanos(), 0, status);
        resp
    }

    fn apply_inner(&self, req: Request) -> Response {
        let now = now_nanos();
        let mut store = self.store.lock();
        match req {
            Request::Get { key } => match store.cache.get(&key, now) {
                Some(e) => Response::Value {
                    value: e.value.clone(),
                    version: e.version,
                },
                None => Response::NotFound,
            },
            Request::Set { key, value, ttl_ms } => {
                let version = store.next_version;
                store.next_version += 1;
                let bytes = value.len() as u64;
                let entry = Entry { value, version };
                match ttl_ms {
                    Some(t) => {
                        store.cache.insert_with_ttl(
                            key,
                            entry,
                            bytes,
                            now,
                            t.saturating_mul(1_000_000),
                        );
                    }
                    None => {
                        store.cache.insert(key, entry, bytes, now);
                    }
                }
                Response::Stored { version }
            }
            Request::Del { key } => match store.cache.remove(&key) {
                Some(_) => Response::Deleted,
                None => Response::NotFound,
            },
            Request::Version { key } => match store.cache.get(&key, now) {
                Some(e) => Response::VersionIs { version: e.version },
                None => Response::NotFound,
            },
            Request::Stats => {
                let stats = store.cache.stats();
                Response::Stats {
                    hits: stats.hits,
                    misses: stats.misses,
                    entries: store.cache.len() as u64,
                    used_bytes: store.cache.used_bytes(),
                }
            }
            Request::Ping => Response::Pong,
            // Batched ops apply the whole frame under one lock acquisition:
            // that single traversal of socket + lock + dispatch is exactly
            // the fixed per-RPC cost MGET/MSET exist to amortize.
            Request::MGet { keys } => {
                let mut items = Vec::with_capacity(keys.len());
                for key in keys {
                    items.push(
                        store
                            .cache
                            .get(&key, now)
                            .map(|e| (e.value.clone(), e.version)),
                    );
                }
                Response::Values { items }
            }
            Request::MSet { entries, ttl_ms } => {
                let mut versions = Vec::with_capacity(entries.len());
                for (key, value) in entries {
                    let version = store.next_version;
                    store.next_version += 1;
                    let bytes = value.len() as u64;
                    let entry = Entry { value, version };
                    match ttl_ms {
                        Some(t) => {
                            store.cache.insert_with_ttl(
                                key,
                                entry,
                                bytes,
                                now,
                                t.saturating_mul(1_000_000),
                            );
                        }
                        None => {
                            store.cache.insert(key, entry, bytes, now);
                        }
                    }
                    versions.push(version);
                }
                Response::StoredMany { versions }
            }
        }
    }
}

/// A bound-but-not-yet-running server.
pub struct CacheServer {
    listener: TcpListener,
    shared: Arc<Shared>,
    local_addr: SocketAddr,
}

/// Handle to a running server: request shutdown, await completion.
pub struct ServerHandle {
    shutdown_tx: watch::Sender<bool>,
    join: JoinHandle<()>,
    pub shared: Arc<Shared>,
}

impl ServerHandle {
    /// Signal shutdown and wait for the accept loop to exit.
    pub async fn shutdown(self) {
        let _ = self.shutdown_tx.send(true);
        let _ = self.join.await;
    }
}

impl CacheServer {
    /// Bind to `addr` (use port 0 for an ephemeral port) with the given
    /// cache capacity.
    pub async fn bind(addr: &str, capacity_bytes: u64) -> io::Result<CacheServer> {
        let listener = TcpListener::bind(addr).await?;
        let local_addr = listener.local_addr()?;
        Ok(CacheServer {
            listener,
            shared: Arc::new(Shared::new(capacity_bytes)),
            local_addr,
        })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Start serving; returns a handle for shutdown. Connections run as
    /// independent tasks; a failed connection never takes the server down.
    pub fn spawn(self) -> ServerHandle {
        let (shutdown_tx, shutdown_rx) = watch::channel(false);
        let shared = self.shared.clone();
        let listener = self.listener;
        let accept_shared = shared.clone();
        let mut accept_shutdown = shutdown_rx.clone();
        let join = tokio::spawn(async move {
            // Not a `while let`: the shutdown arm breaks the loop too.
            #[allow(clippy::while_let_loop)]
            loop {
                tokio::select! {
                    accepted = listener.accept() => {
                        match accepted {
                            Ok((socket, _peer)) => {
                                let conn_shared = accept_shared.clone();
                                let conn_shutdown = shutdown_rx.clone();
                                tokio::spawn(async move {
                                    let _ = serve_connection(socket, conn_shared, conn_shutdown).await;
                                });
                            }
                            Err(_) => break,
                        }
                    }
                    _ = accept_shutdown.changed() => break,
                }
            }
        });
        ServerHandle {
            shutdown_tx,
            join,
            shared,
        }
    }
}

/// Read frames, apply, write responses, until EOF, error, or shutdown.
async fn serve_connection(
    mut socket: TcpStream,
    shared: Arc<Shared>,
    mut shutdown: watch::Receiver<bool>,
) -> io::Result<()> {
    let mut inbound = BytesMut::with_capacity(8 * 1024);
    let mut outbound = BytesMut::with_capacity(8 * 1024);
    loop {
        // Drain any complete frames already buffered.
        loop {
            match Request::decode(&mut inbound) {
                Ok(req) => {
                    let resp = shared.apply(req);
                    outbound.clear();
                    resp.encode(&mut outbound);
                    socket.write_all(&outbound).await?;
                }
                Err(CodecError::Incomplete) => break,
                Err(e) => {
                    // Protocol violation: answer once, then hang up.
                    outbound.clear();
                    Response::Error {
                        message: e.to_string(),
                    }
                    .encode(&mut outbound);
                    let _ = socket.write_all(&outbound).await;
                    return Ok(());
                }
            }
        }
        tokio::select! {
            read = socket.read_buf(&mut inbound) => {
                if read? == 0 {
                    return Ok(()); // clean EOF
                }
            }
            _ = shutdown.changed() => return Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_set_get_del_version() {
        let shared = Shared::new(1 << 20);
        let v1 = match shared.apply(Request::Set {
            key: b"k".to_vec(),
            value: b"hello".to_vec(),
            ttl_ms: None,
        }) {
            Response::Stored { version } => version,
            other => panic!("{other:?}"),
        };
        assert_eq!(
            shared.apply(Request::Get { key: b"k".to_vec() }),
            Response::Value {
                value: b"hello".to_vec(),
                version: v1
            }
        );
        assert_eq!(
            shared.apply(Request::Version { key: b"k".to_vec() }),
            Response::VersionIs { version: v1 }
        );
        // Overwrite bumps the version.
        let v2 = match shared.apply(Request::Set {
            key: b"k".to_vec(),
            value: b"world".to_vec(),
            ttl_ms: None,
        }) {
            Response::Stored { version } => version,
            other => panic!("{other:?}"),
        };
        assert!(v2 > v1);
        assert_eq!(
            shared.apply(Request::Del { key: b"k".to_vec() }),
            Response::Deleted
        );
        assert_eq!(
            shared.apply(Request::Get { key: b"k".to_vec() }),
            Response::NotFound
        );
        assert_eq!(
            shared.apply(Request::Del { key: b"k".to_vec() }),
            Response::NotFound
        );
    }

    #[test]
    fn stats_track_traffic() {
        let shared = Shared::new(1 << 20);
        shared.apply(Request::Set {
            key: b"a".to_vec(),
            value: vec![0; 100],
            ttl_ms: None,
        });
        shared.apply(Request::Get { key: b"a".to_vec() });
        shared.apply(Request::Get {
            key: b"nope".to_vec(),
        });
        match shared.apply(Request::Stats) {
            Response::Stats {
                hits,
                misses,
                entries,
                used_bytes,
            } => {
                assert_eq!(hits, 1);
                assert_eq!(misses, 1);
                assert_eq!(entries, 1);
                assert!(used_bytes >= 100);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn ping_pongs() {
        let shared = Shared::new(1024);
        assert_eq!(shared.apply(Request::Ping), Response::Pong);
    }

    #[test]
    fn mset_then_mget_match_sequential_semantics() {
        let shared = Shared::new(1 << 20);
        let versions = match shared.apply(Request::MSet {
            entries: vec![
                (b"a".to_vec(), b"1".to_vec()),
                (b"b".to_vec(), b"22".to_vec()),
                (b"c".to_vec(), b"333".to_vec()),
            ],
            ttl_ms: None,
        }) {
            Response::StoredMany { versions } => versions,
            other => panic!("{other:?}"),
        };
        assert_eq!(versions.len(), 3);
        // Versions are assigned in entry order, strictly increasing — the
        // same sequence three sequential SETs would have produced.
        assert!(versions.windows(2).all(|w| w[0] < w[1]));

        match shared.apply(Request::MGet {
            keys: vec![b"b".to_vec(), b"missing".to_vec(), b"a".to_vec()],
        }) {
            Response::Values { items } => {
                assert_eq!(items.len(), 3);
                assert_eq!(items[0], Some((b"22".to_vec(), versions[1])));
                assert_eq!(items[1], None);
                assert_eq!(items[2], Some((b"1".to_vec(), versions[0])));
            }
            other => panic!("{other:?}"),
        }

        // Empty batches are legal no-ops.
        assert_eq!(
            shared.apply(Request::MGet { keys: vec![] }),
            Response::Values { items: vec![] }
        );
        assert_eq!(
            shared.apply(Request::MSet {
                entries: vec![],
                ttl_ms: None
            }),
            Response::StoredMany { versions: vec![] }
        );
    }

    #[test]
    fn capacity_evicts_under_pressure() {
        let shared = Shared::new(1_000);
        for i in 0..100u8 {
            shared.apply(Request::Set {
                key: vec![i],
                value: vec![0; 100],
                ttl_ms: None,
            });
        }
        match shared.apply(Request::Stats) {
            Response::Stats {
                entries,
                used_bytes,
                ..
            } => {
                assert!(entries < 100);
                assert!(used_bytes <= 1_000);
            }
            other => panic!("{other:?}"),
        }
    }
}
