//! The session-state service — the paper's second motivating workload
//! (§2.3): low-latency session reads that must be *strongly consistent*,
//! because a stale session state "can yield incorrect query behavior".
//!
//! The runner drives the lifecycle stream ([`workloads::sessions`]) through
//! a deployment and reports, alongside cost, the metric this service
//! actually cares about: **incorrect reads** — `Get`s that observed a
//! session state older than the latest acknowledged `Advance`. For
//! eventually-consistent architectures that number is the price of their
//! cheapness; for Base / Linked+Version / LeaseOwned it must be zero
//! (tests enforce it).
//!
//! Sessions map onto the deployment's KV paths: `Create`/`Advance` are
//! writes of the state payload (generation = step), `Get` is a read, `End`
//! is a delete. Unlike the KV trace, deletes are frequent, so this also
//! exercises tombstone handling end to end.

use crate::config::DeploymentConfig;
use crate::deployment::{kv_catalog, Deployment};
use crate::experiment::{build_report, ExperimentReport, RunMetrics, RunTotals};
use costmodel::Pricing;
use simnet::{SimDuration, SimTime};
use storekit::error::StoreResult;
use storekit::value::Datum;
use workloads::sessions::{SessionOp, SessionWorkloadConfig};

/// Configuration of one session-service cost run.
#[derive(Debug, Clone)]
pub struct SessionExperimentConfig {
    pub deployment: DeploymentConfig,
    pub workload: SessionWorkloadConfig,
    pub qps: f64,
    pub warmup_requests: u64,
    pub requests: u64,
    pub pricing: Pricing,
}

impl SessionExperimentConfig {
    pub fn paper(arch: crate::ArchKind) -> Self {
        SessionExperimentConfig {
            deployment: DeploymentConfig::paper(arch),
            workload: SessionWorkloadConfig::default(),
            qps: 40_000.0,
            warmup_requests: 80_000,
            requests: 80_000,
            pricing: Pricing::default(),
        }
    }

    pub fn test_small(arch: crate::ArchKind) -> Self {
        SessionExperimentConfig {
            deployment: DeploymentConfig::test_small(arch),
            workload: SessionWorkloadConfig {
                live_sessions: 300,
                ..Default::default()
            },
            qps: 50_000.0,
            warmup_requests: 2_000,
            requests: 4_000,
            pricing: Pricing::default(),
        }
    }
}

/// Run the session service. The returned report's `stale_reads` counts
/// *incorrect session reads* — the §2.3 correctness violations.
pub fn run_session_experiment(cfg: &SessionExperimentConfig) -> StoreResult<ExperimentReport> {
    let mut dep = Deployment::new(cfg.deployment.clone(), kv_catalog("sessions"));

    // Seed the initial live pool at step 0.
    dep.cluster.bulk_load(
        "sessions",
        (0..cfg.workload.live_sessions as u64).map(|id| {
            vec![
                Datum::Int(id as i64),
                Datum::Payload {
                    len: cfg.workload.state_bytes(id),
                    seed: 0,
                },
            ]
        }),
    )?;

    let mut workload = cfg.workload.build();
    // Latest acknowledged step per live session (None = ended).
    let mut truth: std::collections::HashMap<u64, u64> = (0..cfg.workload.live_sessions as u64)
        .map(|id| (id, 0))
        .collect();
    let dt = SimDuration::from_secs_f64(1.0 / cfg.qps.max(1.0));
    let mut now = SimTime::ZERO;
    let mut metrics = RunMetrics::new();
    let total = cfg.warmup_requests + cfg.requests;
    let heartbeat_every = (cfg.qps as u64).max(1);
    let mut measuring = false;
    let mut measure_start = SimTime::ZERO;

    for i in 0..total {
        if i == cfg.warmup_requests {
            dep.reset_metrics();
            metrics = RunMetrics::new();
            measuring = true;
            measure_start = now;
        }
        if i % heartbeat_every == 0 {
            dep.cluster.tick(now);
            dep.sharder.renew_all(now);
        }
        match workload.next_op() {
            SessionOp::Get { id } => {
                let out = dep.serve_kv_read("sessions", id as i64, now)?;
                if measuring {
                    metrics.reads += 1;
                    metrics.read_latency.record(out.latency.as_nanos());
                    metrics.cache_hits += out.cache_hit as u64;
                    metrics.version_checks += out.version_checks;
                    metrics.sql_statements += out.sql_statements;
                    let expect = truth.get(&id).copied();
                    if out.seed != expect {
                        // Stale state or a resurrected tombstone: the
                        // "incorrect query behavior" of §2.3.
                        metrics.stale_reads += 1;
                    }
                }
            }
            SessionOp::Create { id } => {
                let value = Datum::Payload {
                    len: cfg.workload.state_bytes(id),
                    seed: 0,
                };
                let out = dep.serve_kv_write("sessions", id as i64, value, now)?;
                truth.insert(id, 0);
                if measuring {
                    metrics.writes += 1;
                    metrics.write_latency.record(out.latency.as_nanos());
                    metrics.sql_statements += out.sql_statements;
                }
            }
            SessionOp::Advance { id, step } => {
                let value = Datum::Payload {
                    len: cfg.workload.state_bytes(id),
                    seed: step,
                };
                let out = dep.serve_kv_write("sessions", id as i64, value, now)?;
                truth.insert(id, step);
                if measuring {
                    metrics.writes += 1;
                    metrics.write_latency.record(out.latency.as_nanos());
                    metrics.sql_statements += out.sql_statements;
                }
            }
            SessionOp::End { id } => {
                let out = dep.serve_kv_delete("sessions", id as i64, now)?;
                truth.remove(&id);
                if measuring {
                    metrics.writes += 1;
                    metrics.write_latency.record(out.latency.as_nanos());
                    metrics.sql_statements += out.sql_statements;
                }
            }
        }
        now += dt;
    }

    let duration = now.since(measure_start);
    Ok(build_report(
        &dep.config,
        &RunTotals::of(&dep),
        &metrics,
        cfg.qps,
        cfg.requests,
        duration,
        &cfg.pricing,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ArchKind;

    #[test]
    fn consistent_architectures_never_serve_stale_sessions() {
        for arch in [
            ArchKind::Base,
            ArchKind::LinkedVersion,
            ArchKind::LeaseOwned,
        ] {
            let r = run_session_experiment(&SessionExperimentConfig::test_small(arch)).unwrap();
            assert_eq!(
                r.stale_reads, 0,
                "{arch}: session reads must be linearizable"
            );
            assert!(r.total_cost.total() > 0.0);
        }
    }

    #[test]
    fn linked_and_remote_stay_coherent_with_routed_writes() {
        // With all writes routed through the serving path (single-writer
        // sessions), even the eventual architectures read their own writes.
        for arch in [ArchKind::Linked, ArchKind::Remote] {
            let r = run_session_experiment(&SessionExperimentConfig::test_small(arch)).unwrap();
            assert_eq!(r.stale_reads, 0, "{arch}");
        }
    }

    #[test]
    fn ttl_replicas_serve_incorrect_session_state() {
        // The §2.3 argument, quantified: TTL-freshness caches serve stale
        // session state between an Advance and the TTL horizon.
        let r = run_session_experiment(&SessionExperimentConfig::test_small(ArchKind::LinkedTtl))
            .unwrap();
        assert!(
            r.stale_reads > 0,
            "per-server TTL replicas must exhibit incorrect reads"
        );
    }

    #[test]
    fn lease_owned_is_cheapest_consistent_option() {
        let base =
            run_session_experiment(&SessionExperimentConfig::test_small(ArchKind::Base)).unwrap();
        let checked = run_session_experiment(&SessionExperimentConfig::test_small(
            ArchKind::LinkedVersion,
        ))
        .unwrap();
        let leased =
            run_session_experiment(&SessionExperimentConfig::test_small(ArchKind::LeaseOwned))
                .unwrap();
        assert!(
            leased.total_cost.total() < checked.total_cost.total(),
            "leases {} must beat per-read checks {}",
            leased.total_cost.total(),
            checked.total_cost.total()
        );
        assert!(
            leased.total_cost.total() < base.total_cost.total(),
            "leases {} must beat reading storage {}",
            leased.total_cost.total(),
            base.total_cost.total()
        );
    }
}
