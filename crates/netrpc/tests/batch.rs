//! Loopback integration tests for the batched MGET/MSET path.
//!
//! The contract under test: one MGET frame is *semantically identical* to N
//! sequential GETs (same hits, same misses, same values, same versions) —
//! the only thing batching removes is N−1 frame round trips. Same for MSET
//! vs N sequential SETs, modulo the versions it assigns being its own.

use netrpc::{CacheClient, CacheServer, ResilientClient, ResilientConfig};

async fn start() -> (std::net::SocketAddr, netrpc::ServerHandle) {
    let server = CacheServer::bind("127.0.0.1:0", 4 << 20).await.unwrap();
    let addr = server.local_addr();
    (addr, server.spawn())
}

#[tokio::test]
async fn mget_equals_n_sequential_gets() {
    let (addr, handle) = start().await;
    let mut client = CacheClient::connect(addr).await.unwrap();

    // Populate every third key so the batch mixes hits and misses.
    let keys: Vec<Vec<u8>> = (0..32u32)
        .map(|i| format!("key-{i}").into_bytes())
        .collect();
    for (i, key) in keys.iter().enumerate() {
        if i % 3 != 0 {
            let value = format!("value-{i}").into_bytes();
            client.set(key, &value, None).await.unwrap();
        }
    }

    // Sequential baseline: N individual GETs.
    let mut sequential = Vec::new();
    for key in &keys {
        sequential.push(client.get(key).await.unwrap());
    }

    // One MGET of the same keys in the same order.
    let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
    let batched = client.mget(&refs).await.unwrap();

    assert_eq!(batched, sequential, "MGET must equal N sequential GETs");
    assert!(batched.iter().any(|i| i.is_some()), "batch saw hits");
    assert!(batched.iter().any(|i| i.is_none()), "batch saw misses");

    handle.shutdown().await;
}

#[tokio::test]
async fn mset_then_reads_match_sequential_set_semantics() {
    let (addr, handle) = start().await;
    let mut client = CacheClient::connect(addr).await.unwrap();

    let entries: Vec<(Vec<u8>, Vec<u8>)> = (0..16u32)
        .map(|i| {
            (
                format!("mk-{i}").into_bytes(),
                vec![i as u8; (i as usize % 7) + 1],
            )
        })
        .collect();
    let refs: Vec<(&[u8], &[u8])> = entries
        .iter()
        .map(|(k, v)| (k.as_slice(), v.as_slice()))
        .collect();
    let versions = client.mset(&refs, None).await.unwrap();

    // Versions are assigned in entry order, strictly increasing — exactly
    // the sequence N sequential SETs would produce.
    assert_eq!(versions.len(), entries.len());
    assert!(versions.windows(2).all(|w| w[0] < w[1]));

    // Every entry is visible to both single GET and MGET, with the version
    // MSET reported.
    let key_refs: Vec<&[u8]> = entries.iter().map(|(k, _)| k.as_slice()).collect();
    let batched = client.mget(&key_refs).await.unwrap();
    for (i, (key, value)) in entries.iter().enumerate() {
        let single = client.get(key).await.unwrap();
        assert_eq!(single, Some((value.clone(), versions[i])));
        assert_eq!(batched[i], Some((value.clone(), versions[i])));
    }

    handle.shutdown().await;
}

#[tokio::test]
async fn mset_with_ttl_expires_the_whole_batch() {
    let (addr, handle) = start().await;
    let mut client = CacheClient::connect(addr).await.unwrap();
    client
        .mset(
            &[(b"t1".as_slice(), b"x".as_slice()), (b"t2", b"y")],
            Some(30),
        )
        .await
        .unwrap();
    let live = client.mget(&[b"t1".as_slice(), b"t2"]).await.unwrap();
    assert!(live.iter().all(|i| i.is_some()));
    tokio::time::sleep(std::time::Duration::from_millis(60)).await;
    let gone = client.mget(&[b"t1".as_slice(), b"t2"]).await.unwrap();
    assert_eq!(gone, vec![None, None]);
    handle.shutdown().await;
}

#[tokio::test]
async fn empty_batches_are_legal_no_ops() {
    let (addr, handle) = start().await;
    let mut client = CacheClient::connect(addr).await.unwrap();
    assert_eq!(client.mget(&[]).await.unwrap(), vec![]);
    assert_eq!(client.mset(&[], None).await.unwrap(), vec![]);
    handle.shutdown().await;
}

#[tokio::test]
async fn resilient_client_batches_with_deadlines() {
    // The resilient wrapper routes MGET through the idempotent retry path
    // and MSET through single-attempt; over a healthy loopback both must
    // behave exactly like the plain client.
    let (addr, handle) = start().await;
    let mut client = ResilientClient::new(addr, ResilientConfig::default());

    let versions = client
        .mset(&[(b"a".as_slice(), b"1".as_slice()), (b"b", b"2")], None)
        .await
        .unwrap();
    assert_eq!(versions.len(), 2);
    let items = client
        .mget(&[b"a".as_slice(), b"missing", b"b"])
        .await
        .unwrap();
    assert_eq!(items[0], Some((b"1".to_vec(), versions[0])));
    assert_eq!(items[1], None);
    assert_eq!(items[2], Some((b"2".to_vec(), versions[1])));
    assert_eq!(client.stats().retries, 0, "healthy path retries nothing");

    handle.shutdown().await;

    // With the server gone, MGET exhausts its retries (counted), while
    // MSET fails after exactly one attempt — the idempotency split.
    let mut cfg = ResilientConfig {
        request_timeout: std::time::Duration::from_millis(100),
        connect_timeout: std::time::Duration::from_millis(100),
        failure_threshold: 100, // keep the breaker out of the way
        ..ResilientConfig::default()
    };
    cfg.retry.base_backoff = std::time::Duration::from_millis(1);
    cfg.retry.max_backoff = std::time::Duration::from_millis(5);
    let mut dead = ResilientClient::new(addr, cfg);
    assert!(dead.mget(&[b"a".as_slice()]).await.is_err());
    let retries_after_mget = dead.stats().retries;
    assert!(retries_after_mget > 0, "idempotent MGET retries");
    assert!(dead
        .mset(&[(b"a".as_slice(), b"1".as_slice())], None)
        .await
        .is_err());
    assert_eq!(
        dead.stats().retries,
        retries_after_mget,
        "MSET must not retry: an ambiguous batch mutation is never replayed"
    );
}
