//! The wire format.
//!
//! Every message is one frame: a `u32` little-endian length prefix followed
//! by `length` payload bytes. The payload starts with a one-byte tag, then
//! tag-specific fields; variable-length fields are `u32`-length-prefixed.
//! Frames are capped at 16 MiB — a malicious or corrupt length prefix must
//! not make the server allocate unbounded memory.

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Upper bound on one frame's payload (16 MiB).
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// Client → server messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Fetch a value (and its version).
    Get { key: Vec<u8> },
    /// Store a value; optional TTL in milliseconds.
    Set {
        key: Vec<u8>,
        value: Vec<u8>,
        ttl_ms: Option<u64>,
    },
    /// Remove a key.
    Del { key: Vec<u8> },
    /// Read only the key's version — the §5.5 version check on the wire.
    Version { key: Vec<u8> },
    /// Server statistics.
    Stats,
    /// Liveness probe.
    Ping,
    /// Batched GET: fetch many keys in one frame, amortizing the per-frame
    /// cost (syscalls, framing, scheduling) over the whole batch.
    MGet { keys: Vec<Vec<u8>> },
    /// Batched SET: store many entries in one frame. One optional TTL
    /// applies to every entry in the batch.
    MSet {
        entries: Vec<(Vec<u8>, Vec<u8>)>,
        ttl_ms: Option<u64>,
    },
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// GET hit: the value and its version.
    Value {
        value: Vec<u8>,
        version: u64,
    },
    /// GET/VERSION miss or DEL of an absent key.
    NotFound,
    /// SET acknowledged with the assigned version.
    Stored {
        version: u64,
    },
    /// DEL removed the key.
    Deleted,
    /// VERSION hit.
    VersionIs {
        version: u64,
    },
    /// Aggregate statistics.
    Stats {
        hits: u64,
        misses: u64,
        entries: u64,
        used_bytes: u64,
    },
    Pong,
    /// Protocol or server error, with a human-readable reason.
    Error {
        message: String,
    },
    /// MGET reply: one entry per requested key, in request order.
    /// `None` marks a miss.
    Values {
        items: Vec<Option<(Vec<u8>, u64)>>,
    },
    /// MSET acknowledged: the assigned versions, in request order.
    StoredMany {
        versions: Vec<u64>,
    },
}

/// Errors surfaced while decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Not enough bytes yet — keep reading (not a failure).
    Incomplete,
    /// Frame advertises a payload beyond [`MAX_FRAME_BYTES`].
    FrameTooLarge(usize),
    /// Payload malformed at the given description.
    Corrupt(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Incomplete => write!(f, "frame incomplete"),
            CodecError::FrameTooLarge(n) => write!(f, "frame of {n} bytes exceeds cap"),
            CodecError::Corrupt(what) => write!(f, "corrupt frame: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

fn put_bytes(buf: &mut BytesMut, bytes: &[u8]) {
    buf.put_u32_le(bytes.len() as u32);
    buf.put_slice(bytes);
}

fn take_bytes(buf: &mut Bytes) -> Result<Vec<u8>, CodecError> {
    if buf.remaining() < 4 {
        return Err(CodecError::Corrupt("missing length"));
    }
    let len = buf.get_u32_le() as usize;
    if buf.remaining() < len {
        return Err(CodecError::Corrupt("truncated field"));
    }
    Ok(buf.copy_to_bytes(len).to_vec())
}

fn take_u64(buf: &mut Bytes) -> Result<u64, CodecError> {
    if buf.remaining() < 8 {
        return Err(CodecError::Corrupt("missing u64"));
    }
    Ok(buf.get_u64_le())
}

/// Read a batch element count. Guards against corrupt counts before any
/// allocation: each element occupies at least `min_elem_bytes` of payload,
/// so a larger count cannot be honest.
fn take_count(buf: &mut Bytes, min_elem_bytes: usize) -> Result<usize, CodecError> {
    if buf.remaining() < 4 {
        return Err(CodecError::Corrupt("missing count"));
    }
    let count = buf.get_u32_le() as usize;
    if count > buf.remaining() / min_elem_bytes.max(1) {
        return Err(CodecError::Corrupt("batch count exceeds payload"));
    }
    Ok(count)
}

impl Request {
    /// Append this request as one frame (length prefix included).
    pub fn encode(&self, buf: &mut BytesMut) {
        let mut payload = BytesMut::new();
        match self {
            Request::Get { key } => {
                payload.put_u8(0);
                put_bytes(&mut payload, key);
            }
            Request::Set { key, value, ttl_ms } => {
                payload.put_u8(1);
                put_bytes(&mut payload, key);
                put_bytes(&mut payload, value);
                match ttl_ms {
                    None => payload.put_u8(0),
                    Some(t) => {
                        payload.put_u8(1);
                        payload.put_u64_le(*t);
                    }
                }
            }
            Request::Del { key } => {
                payload.put_u8(2);
                put_bytes(&mut payload, key);
            }
            Request::Version { key } => {
                payload.put_u8(3);
                put_bytes(&mut payload, key);
            }
            Request::Stats => payload.put_u8(4),
            Request::Ping => payload.put_u8(5),
            Request::MGet { keys } => {
                payload.put_u8(6);
                payload.put_u32_le(keys.len() as u32);
                for key in keys {
                    put_bytes(&mut payload, key);
                }
            }
            Request::MSet { entries, ttl_ms } => {
                payload.put_u8(7);
                payload.put_u32_le(entries.len() as u32);
                for (key, value) in entries {
                    put_bytes(&mut payload, key);
                    put_bytes(&mut payload, value);
                }
                match ttl_ms {
                    None => payload.put_u8(0),
                    Some(t) => {
                        payload.put_u8(1);
                        payload.put_u64_le(*t);
                    }
                }
            }
        }
        buf.put_u32_le(payload.len() as u32);
        buf.extend_from_slice(&payload);
    }

    /// Try to decode one frame from the front of `buf`. On success the
    /// frame's bytes are consumed; on [`CodecError::Incomplete`] nothing is.
    pub fn decode(buf: &mut BytesMut) -> Result<Request, CodecError> {
        let mut payload = split_frame(buf)?;
        let tag = payload.get_u8();
        let req = match tag {
            0 => Request::Get {
                key: take_bytes(&mut payload)?,
            },
            1 => {
                let key = take_bytes(&mut payload)?;
                let value = take_bytes(&mut payload)?;
                if payload.remaining() < 1 {
                    return Err(CodecError::Corrupt("missing ttl flag"));
                }
                let ttl_ms = match payload.get_u8() {
                    0 => None,
                    1 => Some(take_u64(&mut payload)?),
                    _ => return Err(CodecError::Corrupt("bad ttl flag")),
                };
                Request::Set { key, value, ttl_ms }
            }
            2 => Request::Del {
                key: take_bytes(&mut payload)?,
            },
            3 => Request::Version {
                key: take_bytes(&mut payload)?,
            },
            4 => Request::Stats,
            5 => Request::Ping,
            6 => {
                let count = take_count(&mut payload, 4)?;
                let mut keys = Vec::with_capacity(count);
                for _ in 0..count {
                    keys.push(take_bytes(&mut payload)?);
                }
                Request::MGet { keys }
            }
            7 => {
                let count = take_count(&mut payload, 8)?;
                let mut entries = Vec::with_capacity(count);
                for _ in 0..count {
                    let key = take_bytes(&mut payload)?;
                    let value = take_bytes(&mut payload)?;
                    entries.push((key, value));
                }
                if payload.remaining() < 1 {
                    return Err(CodecError::Corrupt("missing ttl flag"));
                }
                let ttl_ms = match payload.get_u8() {
                    0 => None,
                    1 => Some(take_u64(&mut payload)?),
                    _ => return Err(CodecError::Corrupt("bad ttl flag")),
                };
                Request::MSet { entries, ttl_ms }
            }
            _ => return Err(CodecError::Corrupt("unknown request tag")),
        };
        if payload.has_remaining() {
            return Err(CodecError::Corrupt("trailing bytes"));
        }
        Ok(req)
    }
}

impl Response {
    pub fn encode(&self, buf: &mut BytesMut) {
        let mut payload = BytesMut::new();
        match self {
            Response::Value { value, version } => {
                payload.put_u8(0);
                put_bytes(&mut payload, value);
                payload.put_u64_le(*version);
            }
            Response::NotFound => payload.put_u8(1),
            Response::Stored { version } => {
                payload.put_u8(2);
                payload.put_u64_le(*version);
            }
            Response::Deleted => payload.put_u8(3),
            Response::VersionIs { version } => {
                payload.put_u8(4);
                payload.put_u64_le(*version);
            }
            Response::Stats {
                hits,
                misses,
                entries,
                used_bytes,
            } => {
                payload.put_u8(5);
                payload.put_u64_le(*hits);
                payload.put_u64_le(*misses);
                payload.put_u64_le(*entries);
                payload.put_u64_le(*used_bytes);
            }
            Response::Pong => payload.put_u8(6),
            Response::Error { message } => {
                payload.put_u8(7);
                put_bytes(&mut payload, message.as_bytes());
            }
            Response::Values { items } => {
                payload.put_u8(8);
                payload.put_u32_le(items.len() as u32);
                for item in items {
                    match item {
                        None => payload.put_u8(0),
                        Some((value, version)) => {
                            payload.put_u8(1);
                            put_bytes(&mut payload, value);
                            payload.put_u64_le(*version);
                        }
                    }
                }
            }
            Response::StoredMany { versions } => {
                payload.put_u8(9);
                payload.put_u32_le(versions.len() as u32);
                for v in versions {
                    payload.put_u64_le(*v);
                }
            }
        }
        buf.put_u32_le(payload.len() as u32);
        buf.extend_from_slice(&payload);
    }

    pub fn decode(buf: &mut BytesMut) -> Result<Response, CodecError> {
        let mut payload = split_frame(buf)?;
        let tag = payload.get_u8();
        let resp = match tag {
            0 => Response::Value {
                value: take_bytes(&mut payload)?,
                version: take_u64(&mut payload)?,
            },
            1 => Response::NotFound,
            2 => Response::Stored {
                version: take_u64(&mut payload)?,
            },
            3 => Response::Deleted,
            4 => Response::VersionIs {
                version: take_u64(&mut payload)?,
            },
            5 => Response::Stats {
                hits: take_u64(&mut payload)?,
                misses: take_u64(&mut payload)?,
                entries: take_u64(&mut payload)?,
                used_bytes: take_u64(&mut payload)?,
            },
            6 => Response::Pong,
            7 => Response::Error {
                message: String::from_utf8(take_bytes(&mut payload)?)
                    .map_err(|_| CodecError::Corrupt("error message not utf8"))?,
            },
            8 => {
                let count = take_count(&mut payload, 1)?;
                let mut items = Vec::with_capacity(count);
                for _ in 0..count {
                    if payload.remaining() < 1 {
                        return Err(CodecError::Corrupt("missing hit flag"));
                    }
                    match payload.get_u8() {
                        0 => items.push(None),
                        1 => {
                            let value = take_bytes(&mut payload)?;
                            let version = take_u64(&mut payload)?;
                            items.push(Some((value, version)));
                        }
                        _ => return Err(CodecError::Corrupt("bad hit flag")),
                    }
                }
                Response::Values { items }
            }
            9 => {
                let count = take_count(&mut payload, 8)?;
                let mut versions = Vec::with_capacity(count);
                for _ in 0..count {
                    versions.push(take_u64(&mut payload)?);
                }
                Response::StoredMany { versions }
            }
            _ => return Err(CodecError::Corrupt("unknown response tag")),
        };
        if payload.has_remaining() {
            return Err(CodecError::Corrupt("trailing bytes"));
        }
        Ok(resp)
    }
}

/// Split one complete frame's payload off the front of `buf`.
fn split_frame(buf: &mut BytesMut) -> Result<Bytes, CodecError> {
    if buf.len() < 4 {
        return Err(CodecError::Incomplete);
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(CodecError::FrameTooLarge(len));
    }
    if len == 0 {
        return Err(CodecError::Corrupt("empty frame"));
    }
    if buf.len() < 4 + len {
        return Err(CodecError::Incomplete);
    }
    buf.advance(4);
    Ok(buf.split_to(len).freeze())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) {
        let mut buf = BytesMut::new();
        req.encode(&mut buf);
        let decoded = Request::decode(&mut buf).unwrap();
        assert_eq!(decoded, req);
        assert!(buf.is_empty(), "frame fully consumed");
    }

    fn round_trip_response(resp: Response) {
        let mut buf = BytesMut::new();
        resp.encode(&mut buf);
        let decoded = Response::decode(&mut buf).unwrap();
        assert_eq!(decoded, resp);
        assert!(buf.is_empty());
    }

    #[test]
    fn all_request_variants_round_trip() {
        round_trip_request(Request::Get { key: b"k".to_vec() });
        round_trip_request(Request::Set {
            key: b"key".to_vec(),
            value: vec![0; 1000],
            ttl_ms: None,
        });
        round_trip_request(Request::Set {
            key: vec![],
            value: vec![],
            ttl_ms: Some(30_000),
        });
        round_trip_request(Request::Del {
            key: b"gone".to_vec(),
        });
        round_trip_request(Request::Version { key: b"v".to_vec() });
        round_trip_request(Request::Stats);
        round_trip_request(Request::Ping);
        round_trip_request(Request::MGet { keys: vec![] });
        round_trip_request(Request::MGet {
            keys: vec![b"a".to_vec(), vec![], vec![7; 300]],
        });
        round_trip_request(Request::MSet {
            entries: vec![],
            ttl_ms: None,
        });
        round_trip_request(Request::MSet {
            entries: vec![
                (b"k1".to_vec(), vec![1; 100]),
                (vec![], vec![]),
                (b"k3".to_vec(), vec![3; 4096]),
            ],
            ttl_ms: Some(12_345),
        });
    }

    #[test]
    fn all_response_variants_round_trip() {
        round_trip_response(Response::Value {
            value: vec![9; 123],
            version: 42,
        });
        round_trip_response(Response::NotFound);
        round_trip_response(Response::Stored { version: 7 });
        round_trip_response(Response::Deleted);
        round_trip_response(Response::VersionIs { version: u64::MAX });
        round_trip_response(Response::Stats {
            hits: 1,
            misses: 2,
            entries: 3,
            used_bytes: 4,
        });
        round_trip_response(Response::Pong);
        round_trip_response(Response::Error {
            message: "nope".into(),
        });
        round_trip_response(Response::Values { items: vec![] });
        round_trip_response(Response::Values {
            items: vec![Some((vec![1; 64], 9)), None, Some((vec![], u64::MAX)), None],
        });
        round_trip_response(Response::StoredMany { versions: vec![] });
        round_trip_response(Response::StoredMany {
            versions: vec![1, 2, u64::MAX],
        });
    }

    #[test]
    fn dishonest_batch_counts_are_rejected_before_allocation() {
        // An MGET frame claiming u32::MAX keys in a 16-byte payload must be
        // rejected by the count guard, not by a giant Vec::with_capacity.
        let mut buf = BytesMut::new();
        let mut payload = BytesMut::new();
        payload.put_u8(6);
        payload.put_u32_le(u32::MAX);
        payload.put_slice(&[0; 16]);
        buf.put_u32_le(payload.len() as u32);
        buf.extend_from_slice(&payload);
        assert_eq!(
            Request::decode(&mut buf),
            Err(CodecError::Corrupt("batch count exceeds payload"))
        );

        // Same for a Values response claiming more items than bytes.
        let mut buf = BytesMut::new();
        let mut payload = BytesMut::new();
        payload.put_u8(8);
        payload.put_u32_le(1_000);
        payload.put_slice(&[0; 8]);
        buf.put_u32_le(payload.len() as u32);
        buf.extend_from_slice(&payload);
        assert_eq!(
            Response::decode(&mut buf),
            Err(CodecError::Corrupt("batch count exceeds payload"))
        );
    }

    #[test]
    fn batch_frames_with_trailing_bytes_are_rejected() {
        // An MGET payload with one key plus a stray trailing byte.
        let mut payload = BytesMut::new();
        payload.put_u8(6);
        payload.put_u32_le(1);
        put_bytes(&mut payload, b"k");
        payload.put_u8(0xAB);
        let mut buf = BytesMut::new();
        buf.put_u32_le(payload.len() as u32);
        buf.extend_from_slice(&payload);
        assert_eq!(
            Request::decode(&mut buf),
            Err(CodecError::Corrupt("trailing bytes"))
        );
    }

    #[test]
    fn partial_frames_report_incomplete_and_consume_nothing() {
        let mut buf = BytesMut::new();
        Request::Get {
            key: b"abcdef".to_vec(),
        }
        .encode(&mut buf);
        let full = buf.clone();
        for cut in 0..full.len() {
            let mut partial = BytesMut::from(&full[..cut]);
            let before = partial.len();
            assert_eq!(Request::decode(&mut partial), Err(CodecError::Incomplete));
            assert_eq!(partial.len(), before, "incomplete must not consume");
        }
    }

    #[test]
    fn two_frames_decode_in_order() {
        let mut buf = BytesMut::new();
        Request::Ping.encode(&mut buf);
        Request::Stats.encode(&mut buf);
        assert_eq!(Request::decode(&mut buf).unwrap(), Request::Ping);
        assert_eq!(Request::decode(&mut buf).unwrap(), Request::Stats);
        assert_eq!(Request::decode(&mut buf), Err(CodecError::Incomplete));
    }

    #[test]
    fn oversized_frame_is_rejected_before_allocation() {
        let mut buf = BytesMut::new();
        buf.put_u32_le((MAX_FRAME_BYTES + 1) as u32);
        buf.put_slice(&[0; 16]);
        assert!(matches!(
            Request::decode(&mut buf),
            Err(CodecError::FrameTooLarge(_))
        ));
    }

    #[test]
    fn corrupt_tags_and_trailing_bytes_are_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(1);
        buf.put_u8(99);
        assert!(matches!(
            Request::decode(&mut buf),
            Err(CodecError::Corrupt(_))
        ));

        // A Ping with a trailing byte.
        let mut buf = BytesMut::new();
        buf.put_u32_le(2);
        buf.put_u8(5);
        buf.put_u8(0xAA);
        assert!(matches!(
            Request::decode(&mut buf),
            Err(CodecError::Corrupt("trailing bytes"))
        ));
    }

    #[test]
    fn empty_frame_is_corrupt() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(0);
        assert!(matches!(
            Request::decode(&mut buf),
            Err(CodecError::Corrupt("empty frame"))
        ));
    }
}
