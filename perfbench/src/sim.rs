//! The simulator side of the benchmark: workload definitions, timed
//! `run_kv_experiment` calls, and the output check on their reports.
//!
//! Every sim workload runs all four paper architectures, so each end-to-end
//! metric name (`sim_rps.<arch>`) exists on every workload. Base and
//! Linked+Version spend most of their host time in storekit's SQL path;
//! Remote and Linked are served by cachekit. A storage-path change should
//! move the first pair and leave the second unchanged, and a cache-path
//! change the reverse.

use dcache::experiment::{run_kv_experiment, ExperimentReport, KvExperimentConfig};
use dcache::{ArchKind, DeploymentConfig, L0Config};
use storekit::DurabilityConfig;
use workloads::KvWorkloadConfig;

/// The seed whose reports are pinned in `pinned_digests.txt`.
pub const DEFAULT_SEED: u64 = 42;

/// Digests of every (workload, arch) report at [`DEFAULT_SEED`], recorded
/// when the benchmark was defined. A speed-only change leaves them as is.
const PINNED: &str = include_str!("../pinned_digests.txt");

/// The architectures every sim workload runs, with their metric suffixes.
pub const ARCHS: [(ArchKind, &str); 4] = [
    (ArchKind::Base, "base"),
    (ArchKind::LinkedVersion, "linked_version"),
    (ArchKind::Remote, "remote"),
    (ArchKind::Linked, "linked"),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// §5.2 synthetic stream: 100K keys, Zipf 1.2, 95% reads, 1 KB values,
    /// paper deployment at 10× the paper's QPS (as `fig_scale` runs it).
    KvSynthetic,
    /// Meta-style stream (30% writes, tiny heavy-tailed values) with
    /// durability on and caches too small for the working set.
    MetaWriteDurable,
}

/// Keys in the Meta-style workload: a tenth of `workloads::meta::META_KEYS`,
/// with the caches cut by the same factor, so the working set still
/// overflows them while one set-up stays well under a second.
const META_KEYS: u64 = 100_000;
/// A tenth of the 64 MB per server/node that overflows at 1M keys.
const META_CACHE_BYTES: u64 = (64 << 20) / 10;

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::KvSynthetic, Workload::MetaWriteDurable];

    pub fn name(self) -> &'static str {
        match self {
            Workload::KvSynthetic => "kv_synthetic",
            Workload::MetaWriteDurable => "meta_write_durable",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The request stream for `seed`.
    pub fn stream(self, seed: u64) -> KvWorkloadConfig {
        match self {
            Workload::KvSynthetic => KvWorkloadConfig::paper_synthetic(0.95, 1_024, seed),
            Workload::MetaWriteDurable => KvWorkloadConfig {
                keys: META_KEYS,
                ..workloads::meta::meta_workload(seed)
            },
        }
    }

    /// Simulated requests (warmup plus measured) in one timed call.
    pub fn requests_per_call(self) -> u64 {
        match self {
            Workload::KvSynthetic => 300_000,
            Workload::MetaWriteDurable => 40_000,
        }
    }

    /// One full experiment on `arch`.
    pub fn experiment(self, arch: ArchKind, seed: u64) -> KvExperimentConfig {
        let mut cfg = KvExperimentConfig::paper(arch, self.stream(seed));
        match self {
            Workload::KvSynthetic => cfg.qps = 1_000_000.0,
            Workload::MetaWriteDurable => {
                cfg.deployment = meta_deployment(arch);
            }
        }
        let total = self.requests_per_call();
        cfg.warmup_requests = total / 2;
        cfg.requests = total - total / 2;
        cfg
    }

    /// The same call with zero requests: build, bulk load, prewarm, report.
    pub fn setup_only(self, arch: ArchKind, seed: u64) -> KvExperimentConfig {
        let mut cfg = self.experiment(arch, seed);
        cfg.warmup_requests = 0;
        cfg.requests = 0;
        cfg
    }
}

fn meta_deployment(arch: ArchKind) -> DeploymentConfig {
    let mut d = DeploymentConfig::paper(arch);
    d.linked_cache_bytes_per_server = META_CACHE_BYTES;
    d.remote_cache_bytes_per_node = META_CACHE_BYTES;
    if arch == ArchKind::Remote {
        d.l0 = Some(L0Config::default());
    }
    d.cluster.durability = DurabilityConfig {
        enabled: true,
        ..DurabilityConfig::default()
    };
    d
}

/// FNV-1a over the report's `Debug` text: every simulated statistic (cost
/// per tier, cores, hit ratios, simulated latencies, SQL statements, stale
/// reads, durability and L0 counters) and nothing measured on the host.
pub fn digest(report: &ExperimentReport) -> u64 {
    format!("{report:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
        })
}

/// The pinned digest of `(workload, arch)`, if one was recorded.
pub fn pinned(workload: &str, arch: &str) -> Option<u64> {
    PINNED.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        (f.next() == Some(workload) && f.next() == Some(arch))
            .then(|| f.next().and_then(|h| u64::from_str_radix(h, 16).ok()))
            .flatten()
    })
}

/// The output check of one call. Returns the reasons it failed (empty when
/// it passed). The invariants hold on every seed; `pinned_digest` is
/// `Some` only on [`DEFAULT_SEED`], where a missing pin (`Some(None)`)
/// fails too.
pub fn check(
    cfg: &KvExperimentConfig,
    report: &ExperimentReport,
    pinned_digest: Option<Option<u64>>,
) -> Vec<String> {
    let mut bad = Vec::new();
    if report.requests != cfg.requests {
        bad.push(format!("requests {} != {}", report.requests, cfg.requests));
    }
    for (name, v) in [
        ("stale_reads", report.stale_reads),
        ("l0_stale_serves", report.l0_stale_serves),
        ("deadline_exceeded", report.deadline_exceeded),
    ] {
        if v != 0 {
            bad.push(format!("{name} = {v}"));
        }
    }
    if let Some(want) = pinned_digest {
        let got = digest(report);
        match want {
            Some(want) if want == got => {}
            Some(want) => bad.push(format!("digest {got:016x} != pinned {want:016x}")),
            None => bad.push(format!("no pinned digest (got {got:016x})")),
        }
    }
    bad
}

/// One timed call and its check.
pub struct Call {
    pub secs: f64,
    pub report: Option<ExperimentReport>,
    pub failures: Vec<String>,
}

/// Time one `run_kv_experiment` call and check its report; `pinned_digest`
/// as in [`check`].
pub fn timed_call(cfg: &KvExperimentConfig, pinned_digest: Option<Option<u64>>) -> Call {
    let t0 = std::time::Instant::now();
    let result = run_kv_experiment(std::hint::black_box(cfg));
    let secs = t0.elapsed().as_secs_f64();
    match result {
        Ok(report) => Call {
            secs,
            failures: check(cfg, &report, pinned_digest),
            report: Some(report),
        },
        Err(e) => Call {
            secs,
            report: None,
            failures: vec![format!("run_kv_experiment returned Err: {e:?}")],
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_report() -> (KvExperimentConfig, ExperimentReport) {
        let mut cfg = KvExperimentConfig::paper(
            ArchKind::Remote,
            KvWorkloadConfig::paper_synthetic(0.95, 1_024, DEFAULT_SEED),
        );
        cfg.deployment = DeploymentConfig::test_small(ArchKind::Remote);
        cfg.workload.keys = 2_000;
        cfg.warmup_requests = 2_000;
        cfg.requests = 2_000;
        let report = run_kv_experiment(&cfg).expect("small run");
        (cfg, report)
    }

    #[test]
    fn digest_is_repeatable() {
        let (_, a) = small_report();
        let (_, b) = small_report();
        assert_eq!(digest(&a), digest(&b));
    }

    #[test]
    fn one_field_change_is_caught() {
        let (cfg, report) = small_report();
        let pin = Some(Some(digest(&report)));
        assert!(check(&cfg, &report, pin).is_empty());

        let mut perturbed = report.clone();
        perturbed.sql_statements += 1;
        assert!(check(&cfg, &perturbed, pin)[0].contains("digest"));
        let mut perturbed = report.clone();
        perturbed.total_cost.compute *= 1.0 + 1e-12;
        assert!(check(&cfg, &perturbed, pin)[0].contains("digest"));
        assert!(check(&cfg, &report, Some(None))[0].contains("no pinned digest"));

        // Off the default seed only the invariants apply.
        assert!(check(&cfg, &perturbed, None).is_empty());
        let mut stale = report.clone();
        stale.stale_reads = 1;
        assert_eq!(
            check(&cfg, &stale, None),
            vec!["stale_reads = 1".to_string()]
        );
    }

    #[test]
    fn every_pair_is_pinned() {
        for w in Workload::ALL {
            for (_, arch) in ARCHS {
                assert!(pinned(w.name(), arch).is_some(), "{} {arch}", w.name());
            }
        }
    }
}
