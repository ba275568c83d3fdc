//! Trace capture and replay.
//!
//! The paper evaluates on production traces we cannot redistribute; this
//! module closes the gap for users who *have* such traces: a newline-
//! delimited JSON record format (`{"op":"r","k":123,"b":1024}`), writers
//! and readers, and capture from any generator. A replayed trace drives
//! the same experiment runner as the synthetic generators
//! (`dcache::experiment::run_trace_experiment`).

use crate::kv::{KvOp, KvRequest, KvWorkload};
use serde::{Deserialize, Serialize};
use std::io::{BufRead, Write};

/// One trace record. Field names are kept to one byte so large traces stay
/// compact (`op` is `"r"` or `"w"`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// `"r"` for read, `"w"` for write.
    pub op: char,
    /// Key id.
    pub k: u64,
    /// Value size in bytes.
    pub b: u64,
}

impl TraceRecord {
    pub fn from_request(r: &KvRequest) -> Self {
        TraceRecord {
            op: match r.op {
                KvOp::Read => 'r',
                KvOp::Write => 'w',
            },
            k: r.key,
            b: r.value_bytes,
        }
    }

    pub fn to_request(self) -> Result<KvRequest, TraceError> {
        let op = match self.op {
            'r' => KvOp::Read,
            'w' => KvOp::Write,
            other => return Err(TraceError::BadOp(other)),
        };
        Ok(KvRequest {
            op,
            key: self.k,
            value_bytes: self.b,
        })
    }
}

/// Trace IO errors.
#[derive(Debug)]
pub enum TraceError {
    Io(std::io::Error),
    Parse { line: usize, message: String },
    BadOp(char),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace io: {e}"),
            TraceError::Parse { line, message } => {
                write!(f, "trace parse error on line {line}: {message}")
            }
            TraceError::BadOp(c) => write!(f, "bad op {c:?} (expected 'r' or 'w')"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// Capture `n` requests from a generator into a trace.
pub fn capture(workload: &mut KvWorkload, n: usize) -> Vec<TraceRecord> {
    (0..n)
        .map(|_| TraceRecord::from_request(&workload.next_request()))
        .collect()
}

/// Write records as JSON lines.
///
/// The record is flat enough that the codec is hand-rolled (like
/// `bench::golden`'s canonical JSON): trace capture and replay then work —
/// and round-trip byte-for-byte — in every build of this repo, with no
/// serializer behind them to drift.
pub fn write_jsonl<W: Write>(records: &[TraceRecord], mut w: W) -> Result<(), TraceError> {
    for r in records {
        writeln!(w, "{{\"op\":\"{}\",\"k\":{},\"b\":{}}}", r.op, r.k, r.b)?;
    }
    Ok(())
}

/// Parse one `{"op":"r","k":123,"b":1024}` line. Fields may come in any
/// order and carry arbitrary whitespace, but all three must be present
/// exactly once and nothing else may appear.
fn parse_record(s: &str) -> Result<TraceRecord, String> {
    let inner = s
        .strip_prefix('{')
        .and_then(|t| t.strip_suffix('}'))
        .ok_or("expected a JSON object")?;
    let (mut op, mut k, mut b) = (None::<char>, None::<u64>, None::<u64>);
    for field in inner.split(',') {
        let (key, value) = field.split_once(':').ok_or("expected \"key\": value")?;
        let key = key
            .trim()
            .strip_prefix('"')
            .and_then(|t| t.strip_suffix('"'));
        let value = value.trim();
        match key {
            Some("op") => {
                let c = value
                    .strip_prefix('"')
                    .and_then(|t| t.strip_suffix('"'))
                    .filter(|t| t.chars().count() == 1)
                    .ok_or("\"op\" must be a one-character string")?;
                if op.replace(c.chars().next().unwrap()).is_some() {
                    return Err("duplicate field \"op\"".into());
                }
            }
            Some(name @ ("k" | "b")) => {
                let n: u64 = value
                    .parse()
                    .map_err(|_| format!("\"{name}\" must be a u64"))?;
                let slot = if name == "k" { &mut k } else { &mut b };
                if slot.replace(n).is_some() {
                    return Err(format!("duplicate field \"{name}\""));
                }
            }
            _ => return Err(format!("unexpected field {}", field.trim())),
        }
    }
    match (op, k, b) {
        (Some(op), Some(k), Some(b)) => Ok(TraceRecord { op, k, b }),
        _ => Err("missing field (need \"op\", \"k\", \"b\")".into()),
    }
}

/// Read JSON-lines records; blank lines are skipped, malformed lines error
/// with their line number.
pub fn read_jsonl<R: BufRead>(r: R) -> Result<Vec<TraceRecord>, TraceError> {
    let mut out = Vec::new();
    for (i, line) in r.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let record = parse_record(trimmed).map_err(|message| TraceError::Parse {
            line: i + 1,
            message,
        })?;
        // Validate op eagerly so replay can't fail later.
        record.to_request()?;
        out.push(record);
    }
    Ok(out)
}

/// Aggregate statistics of a trace, mirroring how §5.2 characterizes its
/// workloads (read ratio, value-size percentiles, distinct keys).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TraceStats {
    pub requests: usize,
    pub distinct_keys: usize,
    pub read_ratio: f64,
    pub median_value_bytes: u64,
    pub p99_value_bytes: u64,
    pub total_read_bytes: u64,
}

pub fn stats(records: &[TraceRecord]) -> TraceStats {
    let mut keys = std::collections::HashSet::new();
    let mut sizes: Vec<u64> = Vec::with_capacity(records.len());
    let mut reads = 0usize;
    let mut total_read_bytes = 0u64;
    for r in records {
        keys.insert(r.k);
        sizes.push(r.b);
        if r.op == 'r' {
            reads += 1;
            total_read_bytes += r.b;
        }
    }
    sizes.sort_unstable();
    let pct = |q: f64| -> u64 {
        if sizes.is_empty() {
            0
        } else {
            sizes[((sizes.len() - 1) as f64 * q) as usize]
        }
    };
    TraceStats {
        requests: records.len(),
        distinct_keys: keys.len(),
        read_ratio: if records.is_empty() {
            0.0
        } else {
            reads as f64 / records.len() as f64
        },
        median_value_bytes: pct(0.5),
        p99_value_bytes: pct(0.99),
        total_read_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::KvWorkloadConfig;

    fn sample_trace() -> Vec<TraceRecord> {
        let mut wl = KvWorkloadConfig::paper_synthetic(0.8, 512, 5).build();
        capture(&mut wl, 500)
    }

    #[test]
    fn jsonl_round_trips() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        write_jsonl(&trace, &mut buf).unwrap();
        let parsed = read_jsonl(&buf[..]).unwrap();
        assert_eq!(parsed, trace);
    }

    #[test]
    fn requests_round_trip_through_records() {
        let mut wl = KvWorkloadConfig::paper_synthetic(0.5, 100, 1).build();
        for _ in 0..50 {
            let req = wl.next_request();
            let rec = TraceRecord::from_request(&req);
            assert_eq!(rec.to_request().unwrap(), req);
        }
    }

    #[test]
    fn malformed_lines_report_position() {
        let input = b"{\"op\":\"r\",\"k\":1,\"b\":2}\n\nnot json\n";
        match read_jsonl(&input[..]) {
            Err(TraceError::Parse { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn bad_ops_are_rejected() {
        let input = b"{\"op\":\"x\",\"k\":1,\"b\":2}\n";
        assert!(matches!(
            read_jsonl(&input[..]),
            Err(TraceError::BadOp('x'))
        ));
    }

    #[test]
    fn stats_match_generator_parameters() {
        let trace = sample_trace();
        let st = stats(&trace);
        assert_eq!(st.requests, 500);
        assert!(
            (st.read_ratio - 0.8).abs() < 0.08,
            "read ratio {}",
            st.read_ratio
        );
        assert_eq!(st.median_value_bytes, 512);
        assert!(st.distinct_keys > 50);
    }

    #[test]
    fn empty_trace_stats_are_zeroed() {
        let st = stats(&[]);
        assert_eq!(st.requests, 0);
        assert_eq!(st.read_ratio, 0.0);
        assert_eq!(st.median_value_bytes, 0);
    }
}
