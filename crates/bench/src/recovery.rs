//! Shared builder for the crash-recovery ablation.
//!
//! One sweep definition, three consumers: the `ablation_recovery` bin
//! (full budget, table + JSON + the headline durability-tax comparison),
//! the golden suite (small fixed-seed snapshot), and the determinism tests
//! (jobs=1 vs jobs=N byte-equality). Keeping the config construction here
//! guarantees they all measure the same thing.
//!
//! Every cell runs the same write-heavy day under the same periodic
//! crash schedule — a storage pod goes down `crashes` times during the
//! measured window and comes back a quarter-period later. Cells differ
//! only in the durability configuration: the `off` baseline recovers the
//! legacy way (re-election, volatile state magically intact — the
//! optimistic fiction every crash-free cost model quietly assumes), while
//! durable cells pay for WAL appends, fsync batches and snapshots on the
//! write path, then rebuild the pod from its SSD image at restart:
//! snapshot load + WAL replay + a cold block cache refilled at miss CPU
//! rates. The figure is what crash-consistency actually costs, in dollars
//! and in recovery seconds, as fsync policy and snapshot cadence move.

use crate::golden::small_kv;
use crate::sweep::SweepRunner;
use dcache::experiment::{run_kv_experiment, KvExperimentConfig, STORAGE_FAULT_NODE_BASE};
use dcache::{ArchKind, ExperimentReport};
use simnet::{FaultSchedule, NodeId, SimDuration, SimTime};
use storekit::{DurabilityConfig, FsyncPolicy};

/// Architectures in the sweep: the remote-cache and linked-cache designs
/// (storage durability is arch-independent; two archs pin both read paths).
pub const ARCHS: &[ArchKind] = &[ArchKind::Remote, ArchKind::Linked];

/// Write share of the workload — recovery is about the write path, so the
/// sweep runs a heavier mix than the 95%-read figures.
pub const READ_RATIO: f64 = 0.90;

/// One cell of the recovery sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoverySpec {
    pub arch: ArchKind,
    /// `None` = durability off: the legacy baseline (same crash schedule,
    /// recovery by re-election with state intact and nothing billed).
    pub durability: Option<DurabilityKnobs>,
    /// Crash/recover cycles inside the measured window.
    pub crashes: u32,
}

/// The durable knobs one cell sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityKnobs {
    /// WAL fsync group size (1 = fsync every entry).
    pub fsync_group: u32,
    /// Snapshot after this many WAL entries per pod.
    pub snapshot_every: u64,
}

impl RecoverySpec {
    pub fn label(&self) -> String {
        match self.durability {
            None => format!("{}/off_c{}", self.arch.label(), self.crashes),
            Some(k) => format!(
                "{}/f{}_s{}_c{}",
                self.arch.label(),
                k.fsync_group,
                k.snapshot_every,
                self.crashes
            ),
        }
    }
}

/// The full grid in deterministic order: per arch, the durability-off
/// baseline, then fsync policy × snapshot cadence at the base crash
/// interval, then the doubled crash rate at the default durable config.
pub fn sweep_specs() -> Vec<RecoverySpec> {
    let mut specs = Vec::new();
    for &arch in ARCHS {
        specs.push(RecoverySpec {
            arch,
            durability: None,
            crashes: 2,
        });
        for knobs in [
            DurabilityKnobs {
                fsync_group: 1,
                snapshot_every: 1_024,
            },
            DurabilityKnobs {
                fsync_group: 8,
                snapshot_every: 1_024,
            },
            DurabilityKnobs {
                fsync_group: 8,
                snapshot_every: 256,
            },
        ] {
            specs.push(RecoverySpec {
                arch,
                durability: Some(knobs),
                crashes: 2,
            });
        }
        specs.push(RecoverySpec {
            arch,
            durability: Some(DurabilityKnobs {
                fsync_group: 8,
                snapshot_every: 1_024,
            }),
            crashes: 4,
        });
    }
    specs
}

/// The experiment for one sweep cell: the golden small-KV base at a
/// write-heavy mix, with region 0's hosting pod crashed periodically
/// through the measured window. Crash period = `measured / crashes`
/// requests, downtime a quarter period, first outage half a period into
/// the measured window — so every cycle completes (crash, recover, refill)
/// before the run ends, at any budget.
pub fn experiment(spec: &RecoverySpec, warmup: u64, measured: u64) -> KvExperimentConfig {
    let mut cfg = small_kv(spec.arch, READ_RATIO, 1_024);
    cfg.warmup_requests = warmup;
    cfg.requests = measured;
    if let Some(knobs) = spec.durability {
        cfg.deployment.cluster.durability = DurabilityConfig {
            enabled: true,
            fsync: if knobs.fsync_group <= 1 {
                FsyncPolicy::EveryEntry
            } else {
                FsyncPolicy::Group(knobs.fsync_group)
            },
            snapshot_every_entries: knobs.snapshot_every,
        };
    }
    let dt = SimDuration::from_secs_f64(1.0 / cfg.qps);
    let period_reqs = (measured / spec.crashes.max(1) as u64).max(4);
    let regions = cfg.deployment.cluster.regions.max(1);
    let mut schedule = FaultSchedule::new();
    // Each cycle takes out a *different* region's leader (round-robin), so
    // the off baseline — whose Restart only re-elects, it never revives
    // the dead replica — keeps quorum everywhere.
    for i in 0..spec.crashes {
        let region = i % regions as u32;
        schedule.crash_for(
            SimTime::ZERO + dt.saturating_mul(warmup + period_reqs / 2 + i as u64 * period_reqs),
            NodeId(STORAGE_FAULT_NODE_BASE + region),
            dt.saturating_mul(period_reqs / 4),
        );
    }
    cfg.cache_fault_schedule = Some(schedule);
    cfg
}

/// Run every spec through `runner` (results in spec order).
pub fn run_sweep(
    runner: &SweepRunner,
    specs: &[RecoverySpec],
    warmup: u64,
    measured: u64,
) -> Vec<ExperimentReport> {
    runner.run_map(specs, |_, spec| {
        run_kv_experiment(&experiment(spec, warmup, measured)).expect("recovery sweep run")
    })
}

/// Mean time to rebuild a crashed pod (snapshot load + WAL replay), in
/// milliseconds. 0 when nothing recovered (the off baseline).
pub fn mean_recovery_ms(r: &ExperimentReport) -> f64 {
    if r.recoveries == 0 {
        0.0
    } else {
        r.recovery_time_us as f64 / 1e3 / r.recoveries as f64
    }
}

/// Cores spent refilling cold block caches after recoveries, amortized
/// over the measured window.
pub fn cold_refill_cores(r: &ExperimentReport, measured_secs: f64) -> f64 {
    r.cold_refill_cpu_us as f64 * 1e-6 / measured_secs.max(1e-9)
}

/// Extra monthly dollars a durable cell pays over its off baseline — the
/// durability tax: WAL/fsync/snapshot CPU, SSD residency and replay/refill
/// work, all already metered into the bill.
pub fn durability_tax(off: &ExperimentReport, durable: &ExperimentReport) -> f64 {
    durable.total_cost.total() - off.total_cost.total()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_cover_the_grid_in_order() {
        let specs = sweep_specs();
        assert_eq!(specs.len(), 5 * ARCHS.len());
        // Each arch's block starts with its off baseline — the pairing the
        // bin's headline table relies on.
        for block in specs.chunks(5) {
            assert!(block[0].durability.is_none());
            assert!(block.iter().all(|s| s.arch == block[0].arch));
            assert!(block[1..].iter().all(|s| s.durability.is_some()));
        }
        assert_eq!(specs, sweep_specs());
    }

    #[test]
    fn off_cell_keeps_durability_disabled_but_schedules_crashes() {
        let spec = RecoverySpec {
            arch: ArchKind::Remote,
            durability: None,
            crashes: 2,
        };
        let cfg = experiment(&spec, 1_000, 2_000);
        assert!(!cfg.deployment.cluster.durability.enabled());
        let schedule = cfg.cache_fault_schedule.expect("crash schedule");
        // 2 cycles × (crash + restart).
        assert_eq!(schedule.events().len(), 4);
    }

    #[test]
    fn durable_cell_maps_knobs_onto_the_config() {
        let spec = RecoverySpec {
            arch: ArchKind::Linked,
            durability: Some(DurabilityKnobs {
                fsync_group: 1,
                snapshot_every: 256,
            }),
            crashes: 4,
        };
        let cfg = experiment(&spec, 1_000, 2_000);
        let d = cfg.deployment.cluster.durability;
        assert!(d.enabled());
        assert_eq!(d.fsync, FsyncPolicy::EveryEntry);
        assert_eq!(d.snapshot_every_entries, 256);
        assert_eq!(
            cfg.cache_fault_schedule.expect("schedule").events().len(),
            8
        );
    }

    #[test]
    fn labels_are_unique() {
        let specs = sweep_specs();
        let mut labels: Vec<String> = specs.iter().map(|s| s.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), specs.len());
    }

    #[test]
    fn durable_run_pays_and_recovers_where_the_baseline_does_not() {
        let runner = SweepRunner::sequential();
        let arch_block: Vec<RecoverySpec> = sweep_specs()
            .into_iter()
            .filter(|s| s.arch == ArchKind::Remote)
            .take(2) // off + fsync-every-entry
            .collect();
        let reports = run_sweep(&runner, &arch_block, 500, 1_000);
        let (off, durable) = (&reports[0], &reports[1]);
        assert_eq!(off.recoveries, 0);
        assert_eq!(off.wal_appends, 0);
        assert_eq!(off.total_cost.ssd, 0.0);
        assert!(durable.recoveries >= 1, "pod must crash and recover");
        assert!(durable.wal_appends > 0);
        assert!(durable.total_cost.ssd > 0.0);
        assert!(mean_recovery_ms(durable) > 0.0);
        assert!(
            durability_tax(off, durable) > 0.0,
            "crash consistency is not free: {} vs {}",
            durable.total_cost.total(),
            off.total_cost.total()
        );
    }
}
