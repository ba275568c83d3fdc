//! Shared builder for the TTL-control-plane ablation.
//!
//! One sweep definition, three consumers: the `ablation_ttl` bin (full
//! budget, tables + JSON + the TTL-vs-MRC-vs-static headline), the golden
//! suite (small fixed-seed snapshot), and the determinism/acceptance tests
//! (jobs=1 vs jobs=N byte-equality, the ISSUE's non-vacuity bounds).
//! Keeping the config construction here guarantees they all measure the
//! same thing.
//!
//! The grid is {Remote, Linked} × {diurnal, churn, storm} × three control
//! planes:
//!
//! * **static** — fixed capacity, fixed (infinite) TTL: the baseline that
//!   pays for its peak window and its full configured DRAM all day;
//! * **mrc** — the PR-5 elastic controller: SHARDS miss-ratio curves drive
//!   *capacity* resizes, memory billed at the time-averaged configured
//!   size;
//! * **ttl** — the adaptive TTL plane: a streaming age histogram drives
//!   *expiry*, memory billed at time-averaged resident bytes.
//!
//! Every cell routes its workload through a single-tenant [`TenantMix`] so
//! all three schedules (and both planes) share the tenant machinery the
//! isolation cells use; the churn and storm stressors are the tenant
//! schedules from `workloads::tenants`. The isolation pair runs two
//! tenants — a quiet victim and a storm-prone aggressor — with per-tenant
//! TTL controllers, toggling only the aggressor's storm.

use crate::golden::small_kv;
use crate::sweep::SweepRunner;
use dcache::experiment::{run_kv_experiment, KvExperimentConfig};
use dcache::{ArchKind, ExperimentReport};
use workloads::{DiurnalSchedule, KvWorkloadConfig, SizeDist, TenantMix, TenantSpec};

/// Architectures with a TTL-manageable cache tier (see
/// `ArchKind::supports_ttl_plane`).
pub const ARCHS: &[ArchKind] = &[ArchKind::Remote, ArchKind::Linked];

/// Workload footprint for the sweep: large enough that cache DRAM is a
/// real line item next to compute. 20K keys × 4 KB ≈ 83 MB of entries.
pub const KEYS: u64 = 20_000;
pub const VALUE_BYTES: u64 = 4_096;

/// Cache capacity per node/server: comfortably holds the whole footprint,
/// so what the control planes *reclaim* (not LRU pressure) decides the
/// memory bill.
pub const CACHE_BYTES: u64 = 64 << 20;

/// DRAM price multiplier for the sweep (the fig2 sensitivity axis; also
/// Carra et al.'s premise — TTL tuning pays when memory is dear). Applied
/// uniformly to every cell, so the three planes stay comparable.
pub const MEM_PRICE_MULT: f64 = 8.0;

/// Peak request rate: one heartbeat (≈ one virtual second) per `qps`
/// requests, so sweeps and decisions land many times per run.
pub const PEAK_QPS: f64 = 2_000.0;

/// One compressed diurnal "day" of simulated load.
pub const DAY_SECS: f64 = 8.0;

/// Demand at the quietest point, as a fraction of peak.
pub const TROUGH: f64 = 0.25;

/// Virtual seconds between control-plane decisions (both planes).
pub const DECISION_INTERVAL_SECS: f64 = 2.0;

/// Candidate-TTL ceiling: a few decision intervals, so the candidate grid
/// is meaningful at simulated timescales (the production default is 7
/// days — longer than any run here).
pub const MAX_TTL_SECS: f64 = 16.0;

/// Working-set rotation period for the churn schedule.
pub const CHURN_PERIOD_SECS: f64 = 2.5;

/// Invalidation-storm cadence: a write-heavy burst every period.
pub const STORM_PERIOD_SECS: f64 = 3.0;
pub const STORM_BURST_SECS: f64 = 1.0;
pub const STORM_READ_RATIO: f64 = 0.2;

/// The three stress schedules of the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// Sinusoidal arrival-rate day, steady working set.
    Diurnal,
    /// Flat arrivals, the hot set rotates every [`CHURN_PERIOD_SECS`].
    Churn,
    /// Flat arrivals, periodic write-heavy invalidation bursts.
    Storm,
}

impl Schedule {
    pub const ALL: [Schedule; 3] = [Schedule::Diurnal, Schedule::Churn, Schedule::Storm];

    pub fn label(&self) -> &'static str {
        match self {
            Schedule::Diurnal => "diurnal",
            Schedule::Churn => "churn",
            Schedule::Storm => "storm",
        }
    }
}

/// The control plane managing the cache tier in a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plane {
    /// No controller: static capacity, entries never expire.
    Static,
    /// The MRC capacity planner (PR 5's `ElasticController`).
    Mrc,
    /// The adaptive TTL plane (`TtlController`).
    Ttl,
}

impl Plane {
    pub const ALL: [Plane; 3] = [Plane::Static, Plane::Mrc, Plane::Ttl];

    pub fn label(&self) -> &'static str {
        match self {
            Plane::Static => "static",
            Plane::Mrc => "mrc",
            Plane::Ttl => "ttl",
        }
    }
}

/// One cell of the TTL sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TtlSpec {
    pub arch: ArchKind,
    pub schedule: Schedule,
    pub plane: Plane,
}

impl TtlSpec {
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}",
            self.arch.label(),
            self.schedule.label(),
            self.plane.label()
        )
    }
}

/// The full grid in deterministic (arch, schedule, static-mrc-ttl) order.
pub fn sweep_specs() -> Vec<TtlSpec> {
    ARCHS
        .iter()
        .flat_map(|&arch| {
            Schedule::ALL.iter().flat_map(move |&schedule| {
                Plane::ALL.iter().map(move |&plane| TtlSpec {
                    arch,
                    schedule,
                    plane,
                })
            })
        })
        .collect()
}

/// An enabled TTL-plane config scaled to the sweep's timescales.
pub fn ttl_plane_config() -> elastic::TtlConfig {
    elastic::TtlConfig {
        decision_interval_secs: DECISION_INTERVAL_SECS,
        max_ttl_secs: MAX_TTL_SECS,
        ..elastic::TtlConfig::default()
    }
}

/// The MRC capacity plane scaled to the same deployment (mirrors the
/// `ablation_elastic` planner so the head-to-head is apples-to-apples).
fn mrc_plane_config(cfg: &KvExperimentConfig) -> elastic::ElasticConfig {
    elastic::ElasticConfig {
        decision_interval_secs: DECISION_INTERVAL_SECS,
        profiler: elastic::ShardsConfig::default(),
        planner: elastic::PlannerConfig {
            min_cache_bytes: 64 << 10,
            max_cache_bytes: cfg
                .deployment
                .total_linked_bytes()
                .max(cfg.deployment.total_remote_bytes())
                .max(1 << 20),
            mean_entry_bytes: VALUE_BYTES + 64,
            max_miss_ratio_delta: 0.01,
            ..elastic::PlannerConfig::default()
        },
    }
}

/// The experiment for one sweep cell: the golden small-KV base routed
/// through a single-tenant mix carrying the cell's stress schedule, with
/// the cell's control plane armed. Warmup should span several decision
/// intervals so the first adopted plan (and its churn) lands before the
/// measured window.
pub fn experiment(spec: &TtlSpec, warmup: u64, measured: u64) -> KvExperimentConfig {
    let mut cfg = small_kv(spec.arch, 0.95, VALUE_BYTES);
    cfg.workload.keys = KEYS;
    cfg.deployment.remote_cache_bytes_per_node = CACHE_BYTES;
    cfg.deployment.linked_cache_bytes_per_server = CACHE_BYTES;
    cfg.pricing = costmodel::Pricing::default().with_memory_multiplier(MEM_PRICE_MULT);
    cfg.qps = PEAK_QPS;
    cfg.warmup_requests = warmup;
    cfg.requests = measured;
    let mut svc = TenantSpec::new("svc", 1.0, cfg.workload.clone());
    match spec.schedule {
        Schedule::Diurnal => cfg.diurnal = Some(DiurnalSchedule::sinusoid(DAY_SECS, TROUGH)),
        Schedule::Churn => svc = svc.with_churn(CHURN_PERIOD_SECS),
        Schedule::Storm => {
            svc = svc.with_storm(STORM_PERIOD_SECS, STORM_BURST_SECS, STORM_READ_RATIO)
        }
    }
    cfg.tenants = Some(TenantMix::new(vec![svc], 5));
    match spec.plane {
        Plane::Static => {}
        Plane::Mrc => cfg.deployment.elastic = mrc_plane_config(&cfg),
        Plane::Ttl => cfg.deployment.ttl = ttl_plane_config(),
    }
    cfg
}

/// Run every spec through `runner` (results in spec order).
pub fn run_sweep(
    runner: &SweepRunner,
    specs: &[TtlSpec],
    warmup: u64,
    measured: u64,
) -> Vec<ExperimentReport> {
    runner.run_map(specs, |_, spec| {
        run_kv_experiment(&experiment(spec, warmup, measured)).expect("ttl sweep run")
    })
}

/// Monthly dollars for a cell. Static cells are billed at their peak
/// window (what you'd provision for); controller cells are already
/// integral-billed in the report, so the totals compare directly.
pub fn cell_dollars(plane: Plane, r: &ExperimentReport) -> f64 {
    match plane {
        Plane::Static => crate::elastic::static_peak_dollars(r),
        Plane::Mrc | Plane::Ttl => r.total_cost.total(),
    }
}

// ---------------------------------------------------------------------------
// Tenant isolation: a quiet victim next to a storm-prone aggressor.
// ---------------------------------------------------------------------------

/// The isolation pair: aggressor storm off, then on. Everything else —
/// both tenants' request streams included — is byte-identical, so any
/// movement in the victim's numbers is the storm's doing.
pub fn isolation_specs() -> Vec<bool> {
    vec![false, true]
}

pub fn isolation_label(storm: bool) -> &'static str {
    if storm {
        "isolation/storm"
    } else {
        "isolation/quiet"
    }
}

/// Two tenants on one Remote cache with per-tenant TTL controllers. The
/// victim's workload (keys, skew, seed, read mix) never changes; the
/// aggressor optionally runs periodic invalidation storms. `set_read_ratio`
/// is RNG-neutral, so toggling the storm leaves every key sequence intact.
pub fn isolation_experiment(storm: bool, warmup: u64, measured: u64) -> KvExperimentConfig {
    let mut cfg = small_kv(ArchKind::Remote, 0.95, 1_024);
    cfg.qps = PEAK_QPS;
    cfg.warmup_requests = warmup;
    cfg.requests = measured;
    let victim = TenantSpec::new(
        "victim",
        2.0,
        KvWorkloadConfig {
            keys: 1_000,
            alpha: 1.2,
            read_ratio: 0.95,
            sizes: SizeDist::Fixed(1_024),
            seed: 21,
            churn_period: None,
        },
    );
    let mut aggressor = TenantSpec::new(
        "aggressor",
        1.0,
        KvWorkloadConfig {
            keys: 1_000,
            alpha: 1.1,
            read_ratio: 0.9,
            sizes: SizeDist::Fixed(1_024),
            seed: 22,
            churn_period: None,
        },
    );
    if storm {
        aggressor = aggressor.with_storm(STORM_PERIOD_SECS, STORM_BURST_SECS, STORM_READ_RATIO);
    }
    cfg.tenants = Some(TenantMix::new(vec![victim, aggressor], 9));
    cfg.deployment.ttl = ttl_plane_config();
    cfg
}

/// A tenant's measured hit ratio from the per-tenant report.
pub fn tenant_hit(r: &ExperimentReport, label: &str) -> f64 {
    r.tenants
        .iter()
        .find(|t| t.label == label)
        .map(|t| t.hit_ratio)
        .unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_cover_the_grid_in_order() {
        let specs = sweep_specs();
        assert_eq!(
            specs.len(),
            ARCHS.len() * Schedule::ALL.len() * Plane::ALL.len()
        );
        assert_eq!(
            specs[0],
            TtlSpec {
                arch: ArchKind::Remote,
                schedule: Schedule::Diurnal,
                plane: Plane::Static,
            }
        );
        // Each (arch, schedule) triplet comes static, mrc, ttl — the
        // pairing the bin's headline and the acceptance tests rely on.
        for triplet in specs.chunks(3) {
            assert_eq!(triplet[0].arch, triplet[1].arch);
            assert_eq!(triplet[0].schedule, triplet[2].schedule);
            assert_eq!(
                [triplet[0].plane, triplet[1].plane, triplet[2].plane],
                [Plane::Static, Plane::Mrc, Plane::Ttl]
            );
        }
        assert_eq!(specs, sweep_specs());
    }

    #[test]
    fn static_cell_keeps_both_planes_off() {
        let cfg = experiment(
            &TtlSpec {
                arch: ArchKind::Linked,
                schedule: Schedule::Churn,
                plane: Plane::Static,
            },
            100,
            100,
        );
        assert!(!cfg.deployment.elastic.enabled());
        assert!(!cfg.deployment.ttl.enabled());
        let mix = cfg.tenants.as_ref().expect("single-tenant mix");
        assert!(mix.tenants[0].churn.is_some(), "churn rides the tenant");
    }

    #[test]
    fn planes_are_mutually_exclusive_per_cell() {
        let spec = |plane| TtlSpec {
            arch: ArchKind::Remote,
            schedule: Schedule::Diurnal,
            plane,
        };
        let mrc = experiment(&spec(Plane::Mrc), 100, 100);
        assert!(mrc.deployment.elastic.enabled());
        assert!(!mrc.deployment.ttl.enabled());
        let ttl = experiment(&spec(Plane::Ttl), 100, 100);
        assert!(!ttl.deployment.elastic.enabled());
        assert!(ttl.deployment.ttl.enabled());
        assert_eq!(ttl.deployment.ttl.max_ttl_secs, MAX_TTL_SECS);
        assert!(ttl.diurnal.is_some(), "diurnal arrives via the rate curve");
    }

    #[test]
    fn isolation_pair_differs_only_in_the_storm() {
        let quiet = isolation_experiment(false, 100, 100);
        let stormy = isolation_experiment(true, 100, 100);
        let q = quiet.tenants.as_ref().unwrap();
        let s = stormy.tenants.as_ref().unwrap();
        assert_eq!(q.tenants[0], s.tenants[0], "victim untouched");
        assert!(q.tenants[1].storm.is_none());
        assert!(s.tenants[1].storm.is_some());
        assert_eq!(q.tenants[1].workload, s.tenants[1].workload);
        assert!(
            quiet.deployment.ttl.enabled(),
            "isolation runs the TTL plane"
        );
    }
}
