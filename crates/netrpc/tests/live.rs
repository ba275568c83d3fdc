//! End-to-end tests of the remote cache over real TCP (loopback), plus
//! property tests of the codec against arbitrary inputs.

// The offline `proptest` stub swallows `proptest!` blocks, leaving the
// strategy helpers (and some imports) unreferenced in offline builds.
#![allow(dead_code, unused_imports)]
use bytes::BytesMut;
use netrpc::codec::{CodecError, Request, Response};
use netrpc::{CacheClient, CacheServer};
use proptest::prelude::*;

async fn start() -> (std::net::SocketAddr, netrpc::ServerHandle) {
    let server = CacheServer::bind("127.0.0.1:0", 4 << 20).await.unwrap();
    let addr = server.local_addr();
    (addr, server.spawn())
}

#[tokio::test]
async fn get_set_del_version_over_tcp() {
    let (addr, handle) = start().await;
    let mut client = CacheClient::connect(addr).await.unwrap();

    client.ping().await.unwrap();
    assert_eq!(client.get(b"missing").await.unwrap(), None);

    let v1 = client.set(b"user:1", b"ada", None).await.unwrap();
    assert_eq!(
        client.get(b"user:1").await.unwrap(),
        Some((b"ada".to_vec(), v1))
    );
    assert_eq!(client.version(b"user:1").await.unwrap(), Some(v1));

    let v2 = client.set(b"user:1", b"bob", None).await.unwrap();
    assert!(v2 > v1, "versions advance");
    assert_eq!(
        client.get(b"user:1").await.unwrap(),
        Some((b"bob".to_vec(), v2))
    );

    assert!(client.del(b"user:1").await.unwrap());
    assert!(!client.del(b"user:1").await.unwrap());
    assert_eq!(client.get(b"user:1").await.unwrap(), None);

    handle.shutdown().await;
}

#[tokio::test]
async fn large_values_cross_the_wire_intact() {
    let (addr, handle) = start().await;
    let mut client = CacheClient::connect(addr).await.unwrap();
    let value: Vec<u8> = (0..1_000_000u32)
        .map(|i| (i.wrapping_mul(2654435761)) as u8)
        .collect();
    let v = client.set(b"big", &value, None).await.unwrap();
    let (got, version) = client.get(b"big").await.unwrap().unwrap();
    assert_eq!(got, value);
    assert_eq!(version, v);
    handle.shutdown().await;
}

#[tokio::test]
async fn concurrent_clients_share_the_store() {
    let (addr, handle) = start().await;
    let mut tasks = Vec::new();
    for c in 0..8u8 {
        tasks.push(tokio::spawn(async move {
            let mut client = CacheClient::connect(addr).await.unwrap();
            for i in 0..50u8 {
                client.set(&[c, i], &[c, i, 99], None).await.unwrap();
            }
        }));
    }
    for t in tasks {
        t.await.unwrap();
    }
    let mut client = CacheClient::connect(addr).await.unwrap();
    for c in 0..8u8 {
        for i in 0..50u8 {
            let (v, _) = client.get(&[c, i]).await.unwrap().unwrap();
            assert_eq!(v, vec![c, i, 99]);
        }
    }
    let (_, _, entries, _) = client.stats().await.unwrap();
    assert_eq!(entries, 400);
    handle.shutdown().await;
}

#[tokio::test]
async fn ttl_expires_entries() {
    let (addr, handle) = start().await;
    let mut client = CacheClient::connect(addr).await.unwrap();
    client.set(b"ephemeral", b"x", Some(30)).await.unwrap();
    assert!(client.get(b"ephemeral").await.unwrap().is_some());
    tokio::time::sleep(std::time::Duration::from_millis(60)).await;
    assert_eq!(client.get(b"ephemeral").await.unwrap(), None);
    handle.shutdown().await;
}

#[tokio::test]
async fn malformed_frame_gets_error_then_disconnect() {
    use tokio::io::{AsyncReadExt, AsyncWriteExt};
    let (addr, handle) = start().await;
    let mut raw = tokio::net::TcpStream::connect(addr).await.unwrap();
    // A frame with an unknown tag.
    raw.write_all(&[1, 0, 0, 0, 0xFF]).await.unwrap();
    let mut buf = Vec::new();
    raw.read_to_end(&mut buf).await.unwrap();
    let mut frame = BytesMut::from(&buf[..]);
    match Response::decode(&mut frame).unwrap() {
        Response::Error { message } => assert!(message.contains("corrupt")),
        other => panic!("expected error, got {other:?}"),
    }
    handle.shutdown().await;
}

#[tokio::test]
async fn server_shutdown_is_clean_with_idle_connections() {
    let (addr, handle) = start().await;
    let _idle = CacheClient::connect(addr).await.unwrap();
    handle.shutdown().await;
    // New connections are refused after shutdown.
    assert!(CacheClient::connect(addr).await.is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Decoding arbitrary bytes never panics and never fabricates a frame
    /// longer than the input.
    #[test]
    fn request_decode_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut buf = BytesMut::from(&bytes[..]);
        let _ = Request::decode(&mut buf);
        let mut buf = BytesMut::from(&bytes[..]);
        let _ = Response::decode(&mut buf);
    }

    /// Any request round-trips bit-exactly through the codec.
    #[test]
    fn request_round_trip(
        key in proptest::collection::vec(any::<u8>(), 0..64),
        value in proptest::collection::vec(any::<u8>(), 0..512),
        ttl in proptest::option::of(any::<u64>()),
        keys in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..32), 0..16),
        entries in proptest::collection::vec(
            (proptest::collection::vec(any::<u8>(), 0..32), proptest::collection::vec(any::<u8>(), 0..128)),
            0..16,
        ),
        which in 0u8..8,
    ) {
        let req = match which {
            0 => Request::Get { key },
            1 => Request::Set { key, value, ttl_ms: ttl },
            2 => Request::Del { key },
            3 => Request::Version { key },
            4 => Request::Stats,
            5 => Request::MGet { keys },
            6 => Request::MSet { entries, ttl_ms: ttl },
            _ => Request::Ping,
        };
        let mut buf = BytesMut::new();
        req.encode(&mut buf);
        prop_assert_eq!(Request::decode(&mut buf), Ok(req));
        prop_assert!(buf.is_empty());
    }

    /// Batched responses round-trip bit-exactly, hits and misses mixed.
    #[test]
    fn batched_response_round_trip(
        items in proptest::collection::vec(
            proptest::option::of((proptest::collection::vec(any::<u8>(), 0..128), any::<u64>())),
            0..16,
        ),
        versions in proptest::collection::vec(any::<u64>(), 0..16),
        which in 0u8..2,
    ) {
        let resp = match which {
            0 => Response::Values { items },
            _ => Response::StoredMany { versions },
        };
        let mut buf = BytesMut::new();
        resp.encode(&mut buf);
        prop_assert_eq!(Response::decode(&mut buf), Ok(resp));
        prop_assert!(buf.is_empty());
    }

    /// Pipelined frames always decode back in order, regardless of how the
    /// byte stream is chunked (stream reassembly correctness).
    #[test]
    fn pipelined_frames_survive_arbitrary_chunking(
        keys in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..16), 1..8),
        chunk in 1usize..32,
    ) {
        let reqs: Vec<Request> = keys.into_iter().map(|key| Request::Get { key }).collect();
        let mut wire = BytesMut::new();
        for r in &reqs {
            r.encode(&mut wire);
        }
        // Feed the stream in `chunk`-sized pieces.
        let mut rx = BytesMut::new();
        let mut decoded = Vec::new();
        for piece in wire.chunks(chunk) {
            rx.extend_from_slice(piece);
            loop {
                match Request::decode(&mut rx) {
                    Ok(r) => decoded.push(r),
                    Err(CodecError::Incomplete) => break,
                    Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
                }
            }
        }
        prop_assert_eq!(decoded, reqs);
    }
}
