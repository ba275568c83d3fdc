//! A fault-tolerant wrapper over [`CacheClient`]: per-request deadlines,
//! automatic reconnect with jittered exponential backoff, bounded retries
//! on idempotent operations, and an open/half-open circuit breaker.
//!
//! The plain client assumes a healthy server; this one assumes the opposite.
//! Every call carries a deadline (`tokio::time::timeout`), so a server that
//! dies mid-response produces a prompt error instead of a hang. Failed
//! connections are dropped and transparently re-dialed on the next call.
//! Read-only operations (GET / VERSION / STATS / PING) are retried up to
//! [`RetryPolicy::max_retries`] times; mutations (SET / DEL) are attempted
//! once, because a timed-out SET may or may not have been applied and
//! blind replay would widen the ambiguity window.
//!
//! The breaker trips after [`ResilientConfig::failure_threshold`]
//! consecutive failures: while open, calls fail fast without touching the
//! socket; after [`ResilientConfig::open_for`], one half-open probe is let
//! through — success closes the breaker, failure re-opens it with an
//! exponentially widened window (`open_for · 2^streak`, capped), so a
//! server that keeps failing its probes is bothered less and less often.
//!
//! Backoff jitter comes from a small splitmix/LCG seeded at construction,
//! so the crate stays free of heavyweight RNG dependencies and two clients
//! built with the same seed behave identically.

use crate::client::CacheClient;
use crate::codec::{Request, Response};
use crate::obs::{record_span, wall_nanos, SharedTraceSink};
use std::io;
use std::net::SocketAddr;
use std::time::{Duration, Instant};
use telemetry::SpanStatus;
use tokio::time::timeout;

/// Retry schedule for idempotent calls: exponential backoff from
/// `base_backoff` doubling per attempt, capped at `max_backoff`, stretched
/// by up to `jitter` (fraction of the computed delay).
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Extra attempts after the first (0 = no retry).
    pub max_retries: u32,
    pub base_backoff: Duration,
    pub max_backoff: Duration,
    /// 0.0–1.0: max fractional stretch added to each delay.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
            jitter: 0.5,
        }
    }
}

impl RetryPolicy {
    /// Delay before retry number `attempt` (0-based), with `unit` ∈ [0, 1)
    /// supplying the jitter draw. `max_backoff` bounds the *jittered* delay:
    /// clamping before stretching let the result exceed the configured
    /// maximum by up to `1 + jitter`×.
    pub fn backoff(&self, attempt: u32, unit: f64) -> Duration {
        let exp = self.base_backoff.saturating_mul(1u32 << attempt.min(16));
        let jittered = exp.mul_f64(1.0 + self.jitter.clamp(0.0, 1.0) * unit.clamp(0.0, 1.0));
        jittered.min(self.max_backoff)
    }
}

/// Knobs for [`ResilientClient`].
#[derive(Debug, Clone)]
pub struct ResilientConfig {
    /// Deadline for a single attempt (dial excluded — see
    /// `connect_timeout`). A hit turns into `ErrorKind::TimedOut` and drops
    /// the connection.
    pub request_timeout: Duration,
    pub connect_timeout: Duration,
    pub retry: RetryPolicy,
    /// Consecutive failures before the breaker opens.
    pub failure_threshold: u32,
    /// How long the breaker stays open before a half-open probe.
    pub open_for: Duration,
    /// Seed for the jitter RNG (fixed default keeps tests reproducible).
    pub jitter_seed: u64,
}

impl Default for ResilientConfig {
    fn default() -> Self {
        ResilientConfig {
            request_timeout: Duration::from_secs(1),
            connect_timeout: Duration::from_secs(1),
            retry: RetryPolicy::default(),
            failure_threshold: 3,
            open_for: Duration::from_millis(500),
            jitter_seed: 0x9e37_79b9_7f4a_7c15,
        }
    }
}

/// Observable resilience counters (monotonic since construction).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// Successful (re)dials, including the first.
    pub connects: u64,
    /// Idempotent-call retries performed.
    pub retries: u64,
    /// Attempts that hit the request deadline.
    pub timeouts: u64,
    /// Closed/half-open → open transitions.
    pub breaker_opens: u64,
    /// Calls rejected without touching the socket (breaker open).
    pub fast_failures: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Breaker {
    Closed,
    Open,
    HalfOpen,
}

/// Minimal 64-bit LCG (Knuth's MMIX constants); top bits → unit interval.
#[derive(Debug)]
struct Lcg(u64);

impl Lcg {
    fn next_unit(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The fault-tolerant client. Like [`CacheClient`], one in-flight request
/// at a time; unlike it, survives server crashes and restarts.
pub struct ResilientClient {
    addr: SocketAddr,
    cfg: ResilientConfig,
    conn: Option<CacheClient>,
    breaker: Breaker,
    opened_at: Option<Instant>,
    consecutive_failures: u32,
    /// Consecutive failed half-open probes since the breaker first
    /// tripped; each one doubles the open window (capped). Reset on any
    /// success.
    reopen_streak: u32,
    rng: Lcg,
    stats: ResilienceStats,
    trace_sink: Option<SharedTraceSink>,
    trace_id: u64,
}

fn protocol_err(e: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

impl ResilientClient {
    /// Build without dialing; the first call connects lazily.
    pub fn new(addr: SocketAddr, cfg: ResilientConfig) -> Self {
        let seed = cfg.jitter_seed;
        ResilientClient {
            addr,
            cfg,
            conn: None,
            breaker: Breaker::Closed,
            opened_at: None,
            consecutive_failures: 0,
            reopen_streak: 0,
            rng: Lcg(seed),
            stats: ResilienceStats::default(),
            trace_sink: None,
            trace_id: 0,
        }
    }

    /// Attach a shared trace sink: every subsequent attempt records one
    /// wall-clock span (`net.rpc_attempt`, tier `client`) under the current
    /// trace id.
    pub fn attach_trace_sink(&mut self, sink: SharedTraceSink) {
        self.trace_sink = Some(sink);
    }

    /// Set the trace id stamped on subsequent spans (e.g. from
    /// `telemetry::trace_id`). Stays in effect until changed.
    pub fn set_trace_id(&mut self, trace_id: u64) {
        self.trace_id = trace_id;
    }

    pub fn stats(&self) -> ResilienceStats {
        self.stats
    }

    pub fn is_connected(&self) -> bool {
        self.conn.is_some()
    }

    /// True while the breaker rejects calls without touching the socket.
    pub fn circuit_open(&self) -> bool {
        self.breaker == Breaker::Open
            && self
                .opened_at
                .map(|t| t.elapsed() < self.open_window())
                .unwrap_or(false)
    }

    /// How long the breaker stays open before the next half-open probe:
    /// `open_for` doubled per failed probe, capped at 2^10 ≈ 1000×.
    fn open_window(&self) -> Duration {
        self.cfg
            .open_for
            .saturating_mul(1u32 << self.reopen_streak.min(10))
    }

    fn breaker_admit(&mut self) -> io::Result<()> {
        if self.breaker == Breaker::Open {
            let cooled = self
                .opened_at
                .map(|t| t.elapsed() >= self.open_window())
                .unwrap_or(true);
            if cooled {
                self.breaker = Breaker::HalfOpen;
            } else {
                self.stats.fast_failures += 1;
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionRefused,
                    "circuit breaker open",
                ));
            }
        }
        Ok(())
    }

    fn record_success(&mut self) {
        self.consecutive_failures = 0;
        self.reopen_streak = 0;
        self.breaker = Breaker::Closed;
        self.opened_at = None;
    }

    fn record_failure(&mut self) {
        self.consecutive_failures += 1;
        let probe_failed = self.breaker == Breaker::HalfOpen;
        let trip = probe_failed || self.consecutive_failures >= self.cfg.failure_threshold;
        if probe_failed {
            // A failed probe re-opens with a widened window rather than
            // forgetting the history: the server just proved it is still
            // down, so back off before bothering it again.
            self.reopen_streak += 1;
        }
        if trip && self.breaker != Breaker::Open {
            self.breaker = Breaker::Open;
            self.opened_at = Some(Instant::now());
            self.stats.breaker_opens += 1;
        } else if trip {
            self.opened_at = Some(Instant::now());
        }
    }

    async fn ensure_conn(&mut self) -> io::Result<()> {
        if self.conn.is_none() {
            let dial = CacheClient::connect(self.addr);
            let client = timeout(self.cfg.connect_timeout, dial)
                .await
                .map_err(|_| io::Error::new(io::ErrorKind::TimedOut, "connect timed out"))??;
            self.stats.connects += 1;
            self.conn = Some(client);
        }
        Ok(())
    }

    /// One attempt under the request deadline. Any failure (dial, I/O,
    /// deadline) poisons the connection: a timed-out call may have left
    /// half a frame on the wire, so the socket cannot be reused.
    async fn attempt(&mut self, req: &Request) -> io::Result<Response> {
        self.ensure_conn().await?;
        let deadline = self.cfg.request_timeout;
        let conn = self.conn.as_mut().expect("ensured above");
        match timeout(deadline, conn.call(req.clone())).await {
            Ok(Ok(resp)) => Ok(resp),
            Ok(Err(e)) => {
                self.conn = None;
                Err(e)
            }
            Err(_) => {
                self.conn = None;
                self.stats.timeouts += 1;
                Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "request deadline exceeded",
                ))
            }
        }
    }

    /// One attempt bracketed by a wall-clock trace span.
    async fn traced_attempt(&mut self, req: &Request, attempt: u32) -> io::Result<Response> {
        let start = wall_nanos();
        let result = self.attempt(req).await;
        let status = if result.is_ok() {
            SpanStatus::Ok
        } else {
            SpanStatus::Failed
        };
        record_span(
            &self.trace_sink,
            self.trace_id,
            "net.rpc_attempt",
            "client",
            start,
            wall_nanos(),
            attempt,
            status,
        );
        result
    }

    /// Call with retries — only for requests safe to replay.
    pub async fn call_idempotent(&mut self, req: Request) -> io::Result<Response> {
        self.breaker_admit()?;
        let mut attempt = 0u32;
        loop {
            match self.traced_attempt(&req, attempt).await {
                Ok(resp) => {
                    self.record_success();
                    return Ok(resp);
                }
                Err(e) => {
                    self.record_failure();
                    let tripped = self.breaker == Breaker::Open;
                    if tripped || attempt >= self.cfg.retry.max_retries {
                        return Err(e);
                    }
                    let unit = self.rng.next_unit();
                    tokio::time::sleep(self.cfg.retry.backoff(attempt, unit)).await;
                    attempt += 1;
                    self.stats.retries += 1;
                }
            }
        }
    }

    /// Single attempt — for mutations, where blind replay after an
    /// ambiguous timeout could double-apply.
    pub async fn call_once(&mut self, req: Request) -> io::Result<Response> {
        self.breaker_admit()?;
        match self.traced_attempt(&req, 0).await {
            Ok(resp) => {
                self.record_success();
                Ok(resp)
            }
            Err(e) => {
                self.record_failure();
                Err(e)
            }
        }
    }

    /// GET with deadline + retries: `Some((value, version))` on hit.
    pub async fn get(&mut self, key: &[u8]) -> io::Result<Option<(Vec<u8>, u64)>> {
        match self
            .call_idempotent(Request::Get { key: key.to_vec() })
            .await?
        {
            Response::Value { value, version } => Ok(Some((value, version))),
            Response::NotFound => Ok(None),
            other => Err(protocol_err(format!("unexpected response {other:?}"))),
        }
    }

    /// VERSION with deadline + retries.
    pub async fn version(&mut self, key: &[u8]) -> io::Result<Option<u64>> {
        match self
            .call_idempotent(Request::Version { key: key.to_vec() })
            .await?
        {
            Response::VersionIs { version } => Ok(Some(version)),
            Response::NotFound => Ok(None),
            other => Err(protocol_err(format!("unexpected response {other:?}"))),
        }
    }

    /// STATS with deadline + retries: `(hits, misses, entries, used_bytes)`.
    pub async fn stats_remote(&mut self) -> io::Result<(u64, u64, u64, u64)> {
        match self.call_idempotent(Request::Stats).await? {
            Response::Stats {
                hits,
                misses,
                entries,
                used_bytes,
            } => Ok((hits, misses, entries, used_bytes)),
            other => Err(protocol_err(format!("unexpected response {other:?}"))),
        }
    }

    /// PING with deadline + retries.
    pub async fn ping(&mut self) -> io::Result<()> {
        match self.call_idempotent(Request::Ping).await? {
            Response::Pong => Ok(()),
            other => Err(protocol_err(format!("unexpected response {other:?}"))),
        }
    }

    /// SET with deadline, single attempt: returns the assigned version.
    pub async fn set(&mut self, key: &[u8], value: &[u8], ttl_ms: Option<u64>) -> io::Result<u64> {
        match self
            .call_once(Request::Set {
                key: key.to_vec(),
                value: value.to_vec(),
                ttl_ms,
            })
            .await?
        {
            Response::Stored { version } => Ok(version),
            other => Err(protocol_err(format!("unexpected response {other:?}"))),
        }
    }

    /// DEL with deadline, single attempt: true if the key existed.
    pub async fn del(&mut self, key: &[u8]) -> io::Result<bool> {
        match self.call_once(Request::Del { key: key.to_vec() }).await? {
            Response::Deleted => Ok(true),
            Response::NotFound => Ok(false),
            other => Err(protocol_err(format!("unexpected response {other:?}"))),
        }
    }

    /// MGET with deadline + retries. A batched read is still a read:
    /// replaying it cannot double-apply anything, so the whole frame is
    /// retried under [`RetryPolicy`] like a single GET.
    pub async fn mget(&mut self, keys: &[&[u8]]) -> io::Result<Vec<Option<(Vec<u8>, u64)>>> {
        let req = Request::MGet {
            keys: keys.iter().map(|k| k.to_vec()).collect(),
        };
        match self.call_idempotent(req).await? {
            Response::Values { items } => {
                if items.len() != keys.len() {
                    return Err(protocol_err(format!(
                        "mget returned {} items for {} keys",
                        items.len(),
                        keys.len()
                    )));
                }
                Ok(items)
            }
            other => Err(protocol_err(format!("unexpected response {other:?}"))),
        }
    }

    /// MSET with deadline, single attempt: a timed-out batch may have been
    /// applied in part or in full on the server, so — like SET — it is
    /// never blindly replayed.
    pub async fn mset(
        &mut self,
        entries: &[(&[u8], &[u8])],
        ttl_ms: Option<u64>,
    ) -> io::Result<Vec<u64>> {
        let req = Request::MSet {
            entries: entries
                .iter()
                .map(|(k, v)| (k.to_vec(), v.to_vec()))
                .collect(),
            ttl_ms,
        };
        match self.call_once(req).await? {
            Response::StoredMany { versions } => {
                if versions.len() != entries.len() {
                    return Err(protocol_err(format!(
                        "mset returned {} versions for {} entries",
                        versions.len(),
                        entries.len()
                    )));
                }
                Ok(versions)
            }
            other => Err(protocol_err(format!("unexpected response {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_caps_and_jitters() {
        let p = RetryPolicy {
            max_retries: 5,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(60),
            jitter: 0.5,
        };
        assert_eq!(p.backoff(0, 0.0), Duration::from_millis(10));
        assert_eq!(p.backoff(1, 0.0), Duration::from_millis(20));
        assert_eq!(p.backoff(2, 0.0), Duration::from_millis(40));
        assert_eq!(p.backoff(3, 0.0), Duration::from_millis(60), "capped");
        assert_eq!(p.backoff(0, 1.0), Duration::from_millis(15), "max jitter");
    }

    #[test]
    fn jittered_backoff_never_exceeds_max() {
        // Regression: jitter used to be applied after the clamp, so a
        // capped delay could come out up to (1 + jitter)× the configured
        // maximum. The cap must bound the final, jittered delay.
        let p = RetryPolicy {
            max_retries: 8,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(60),
            jitter: 0.5,
        };
        for attempt in 0..10 {
            for unit in [0.0, 0.25, 0.5, 0.75, 0.999, 1.0] {
                let b = p.backoff(attempt, unit);
                assert!(
                    b <= p.max_backoff,
                    "attempt {attempt} unit {unit}: {b:?} exceeds max {:?}",
                    p.max_backoff
                );
            }
        }
        // At the cap, jitter has nothing left to stretch.
        assert_eq!(p.backoff(3, 1.0), Duration::from_millis(60));
        // Below the cap, jitter still applies in full.
        assert_eq!(p.backoff(1, 1.0), Duration::from_millis(30));
    }

    fn test_client() -> ResilientClient {
        ResilientClient::new("127.0.0.1:1".parse().unwrap(), ResilientConfig::default())
    }

    #[test]
    fn failed_probes_reopen_with_widening_windows() {
        let mut c = test_client();
        for _ in 0..c.cfg.failure_threshold {
            c.record_failure();
        }
        assert_eq!(c.breaker, Breaker::Open);
        assert_eq!(c.stats.breaker_opens, 1);
        assert_eq!(c.open_window(), c.cfg.open_for);
        // Still hot: calls fail fast.
        assert!(c.breaker_admit().is_err());
        assert_eq!(c.stats.fast_failures, 1);
        // Cooled (rewind the clock instead of sleeping): one probe passes.
        c.opened_at = Some(Instant::now() - c.open_window());
        assert!(c.breaker_admit().is_ok());
        assert_eq!(c.breaker, Breaker::HalfOpen);
        // The probe fails → re-open with a doubled window.
        c.record_failure();
        assert_eq!(c.breaker, Breaker::Open);
        assert_eq!(c.stats.breaker_opens, 2);
        assert_eq!(c.open_window(), c.cfg.open_for * 2);
        // Another failed probe doubles it again.
        c.opened_at = Some(Instant::now() - c.open_window());
        assert!(c.breaker_admit().is_ok());
        c.record_failure();
        assert_eq!(c.open_window(), c.cfg.open_for * 4);
        // The old cool-down no longer admits: the window widened.
        c.opened_at = Some(Instant::now() - c.cfg.open_for * 2);
        assert!(
            c.breaker_admit().is_err(),
            "must respect the backed-off window"
        );
        assert!(c.circuit_open());
    }

    #[test]
    fn successful_probe_closes_and_resets_the_backoff() {
        let mut c = test_client();
        for _ in 0..c.cfg.failure_threshold {
            c.record_failure();
        }
        c.opened_at = Some(Instant::now() - c.open_window());
        assert!(c.breaker_admit().is_ok());
        c.record_failure(); // failed probe: streak 1
        c.opened_at = Some(Instant::now() - c.open_window());
        assert!(c.breaker_admit().is_ok());
        c.record_success(); // probe lands: closed, history forgotten
        assert_eq!(c.breaker, Breaker::Closed);
        assert_eq!(c.consecutive_failures, 0);
        assert_eq!(c.open_window(), c.cfg.open_for, "backoff reset");
        // A fresh outage needs a full threshold again, and starts over at
        // the base window.
        c.record_failure();
        c.record_failure();
        assert_eq!(c.breaker, Breaker::Closed);
        c.record_failure();
        assert_eq!(c.breaker, Breaker::Open);
        assert_eq!(c.stats.breaker_opens, 3);
        assert_eq!(c.open_window(), c.cfg.open_for);
    }

    #[test]
    fn lcg_is_deterministic_and_in_unit_interval() {
        let mut a = Lcg(42);
        let mut b = Lcg(42);
        for _ in 0..1000 {
            let x = a.next_unit();
            assert_eq!(x, b.next_unit());
            assert!((0.0..1.0).contains(&x));
        }
    }
}
