//! Fault-injection tests for the resilient client: servers that die
//! mid-session, come back on the same port, hang without responding, or
//! refuse connections entirely.

use netrpc::{CacheServer, ResilientClient, ResilientConfig, RetryPolicy};
use std::time::Duration;

async fn start() -> (std::net::SocketAddr, netrpc::ServerHandle) {
    let server = CacheServer::bind("127.0.0.1:0", 4 << 20).await.unwrap();
    let addr = server.local_addr();
    (addr, server.spawn())
}

fn fast_cfg() -> ResilientConfig {
    ResilientConfig {
        request_timeout: Duration::from_millis(500),
        connect_timeout: Duration::from_millis(500),
        retry: RetryPolicy {
            max_retries: 2,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(20),
            jitter: 0.5,
        },
        failure_threshold: 10,
        open_for: Duration::from_millis(200),
        jitter_seed: 7,
    }
}

#[tokio::test]
async fn server_killed_mid_session_errors_instead_of_hanging() {
    let (addr, handle) = start().await;
    let mut client = ResilientClient::new(addr, fast_cfg());
    client.set(b"k", b"v", None).await.unwrap();
    assert_eq!(client.get(b"k").await.unwrap(), Some((b"v".to_vec(), 1)));

    handle.shutdown().await;

    // The dead server must surface as a prompt error, never a hang: each
    // retried call (3 attempts + backoff) is bounded well under the outer
    // 5s guard. Shutdown races the connection task noticing it, so one
    // straggler request may still be answered — but never two.
    let mut got_err = false;
    for _ in 0..2 {
        let res = tokio::time::timeout(Duration::from_secs(5), client.get(b"k")).await;
        let inner = res.expect("call must not hang after server death");
        if inner.is_err() {
            got_err = true;
            break;
        }
    }
    assert!(got_err, "dead server must produce an error");
}

#[tokio::test]
async fn client_reconnects_after_server_restart_on_same_port() {
    let (addr, handle) = start().await;
    let mut client = ResilientClient::new(addr, fast_cfg());
    client.set(b"k", b"v1", None).await.unwrap();
    handle.shutdown().await;
    // Drain the shutdown race (the old connection may answer one straggler).
    let _ = client.get(b"k").await;
    assert!(client.get(b"k").await.is_err());

    // Same port, fresh (cold) server — the client must redial on its own.
    let server = CacheServer::bind(&addr.to_string(), 4 << 20).await.unwrap();
    let handle = server.spawn();

    assert_eq!(client.get(b"k").await.unwrap(), None, "restart is cold");
    client.set(b"k", b"v2", None).await.unwrap();
    assert_eq!(client.get(b"k").await.unwrap(), Some((b"v2".to_vec(), 1)));
    assert!(client.stats().connects >= 2, "must have redialed");
    handle.shutdown().await;
}

#[tokio::test]
async fn request_deadline_fires_on_unresponsive_server() {
    // A listener that accepts and then ignores the connection: the classic
    // hang. The per-request deadline must convert it into TimedOut.
    let listener = tokio::net::TcpListener::bind("127.0.0.1:0").await.unwrap();
    let addr = listener.local_addr().unwrap();
    let hold = tokio::spawn(async move {
        let mut held = Vec::new();
        loop {
            let (sock, _) = match listener.accept().await {
                Ok(x) => x,
                Err(_) => return,
            };
            held.push(sock); // keep open, never respond
        }
    });

    let mut cfg = fast_cfg();
    cfg.request_timeout = Duration::from_millis(100);
    cfg.retry.max_retries = 1;
    let mut client = ResilientClient::new(addr, cfg);
    let err = tokio::time::timeout(Duration::from_secs(5), client.get(b"k"))
        .await
        .expect("deadline must bound the call")
        .unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::TimedOut);
    assert!(client.stats().timeouts >= 1);
    assert_eq!(client.stats().retries, 1, "idempotent GET retries once");
    hold.abort();
}

#[tokio::test]
async fn circuit_breaker_opens_fails_fast_and_recovers() {
    let (addr, handle) = start().await;
    handle.shutdown().await; // port is now refusing connections

    let mut cfg = fast_cfg();
    cfg.failure_threshold = 1;
    cfg.retry.max_retries = 0;
    cfg.open_for = Duration::from_millis(150);
    let mut client = ResilientClient::new(addr, cfg);

    assert!(
        client.get(b"k").await.is_err(),
        "first failure trips breaker"
    );
    assert_eq!(client.stats().breaker_opens, 1);
    assert!(client.circuit_open());

    // While open: fail fast, no socket traffic.
    let err = client.get(b"k").await.unwrap_err();
    assert!(err.to_string().contains("circuit breaker open"));
    assert_eq!(client.stats().fast_failures, 1);

    // Bring the server back; after the cool-down the half-open probe
    // succeeds and the breaker closes.
    let server = CacheServer::bind(&addr.to_string(), 4 << 20).await.unwrap();
    let handle = server.spawn();
    tokio::time::sleep(Duration::from_millis(200)).await;
    client
        .ping()
        .await
        .expect("half-open probe must close breaker");
    assert!(!client.circuit_open());
    client.set(b"k", b"v", None).await.unwrap();
    assert!(client.get(b"k").await.unwrap().is_some());
    handle.shutdown().await;
}

#[tokio::test]
async fn mutations_are_never_retried() {
    let (addr, handle) = start().await;
    handle.shutdown().await; // dead port

    let mut client = ResilientClient::new(addr, fast_cfg());
    let _ = client.get(b"k").await; // idempotent: retries
    let after_get = client.stats().retries;
    assert_eq!(after_get, 2, "GET uses the full retry budget");
    let _ = client.set(b"k", b"v", None).await;
    let _ = client.del(b"k").await;
    assert_eq!(
        client.stats().retries,
        after_get,
        "SET/DEL must not add retries"
    );
}
