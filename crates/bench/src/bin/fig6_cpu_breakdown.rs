//! Figure 6 — CPU usage breakdown at app server, remote cache and storage,
//! by value size and architecture.
//!
//! The paper's panels (a)–(d) show, per architecture, how total compute
//! splits across tiers as value size grows, with §5.3's in-text numbers:
//! 40–65% of database CPU on connection/query processing/planning, and the
//! version check (panel d) dramatically inflating the storage share.

use bench::sweep::SweepRunner;
use bench::{print_table, request_budget, write_json};
use dcache::experiment::{run_kv_experiment, KvExperimentConfig};
use dcache::ArchKind;
use serde::Serialize;
use workloads::KvWorkloadConfig;

// Fields are read via `Serialize`; the offline serde stub derive is a no-op.
#[allow(dead_code)]
#[derive(Serialize)]
struct Breakdown {
    arch: String,
    value_bytes: u64,
    /// (tier, cores) pairs.
    tier_cores: Vec<(String, f64)>,
    /// Fraction of DB (frontend) CPU in conn/parse/plan + lease.
    frontend_fixed_fraction: f64,
    /// Fraction of app CPU on client communication.
    app_client_fraction: f64,
    /// Fraction of app CPU on preparing/issuing storage+cache requests.
    app_storage_fraction: f64,
    memory_fraction: f64,
}

fn main() {
    println!("Reproducing Figure 6: CPU breakdown by tier, per architecture");
    let (warmup, measured) = request_budget(100_000, 100_000);
    let mut out = Vec::new();

    const SIZES: [u64; 3] = [1u64 << 10, 100 << 10, 1 << 20];
    let specs: Vec<(ArchKind, u64)> = ArchKind::PAPER
        .iter()
        .flat_map(|&a| SIZES.iter().map(move |&v| (a, v)))
        .collect();
    let reports = SweepRunner::from_env().run_map(&specs, |_, &(arch, value_bytes)| {
        let workload = KvWorkloadConfig::paper_synthetic(0.95, value_bytes, 42);
        let mut cfg = KvExperimentConfig::paper(arch, workload);
        cfg.qps = 100_000.0;
        cfg.warmup_requests = warmup;
        cfg.requests = measured;
        run_kv_experiment(&cfg).expect("run")
    });
    let mut report_iter = specs.iter().zip(&reports);

    for arch in ArchKind::PAPER {
        let mut rows = Vec::new();
        for value_bytes in SIZES {
            let (_, r) = report_iter.next().expect("one report per spec");

            let tier_cores: Vec<(String, f64)> =
                r.tiers.iter().map(|t| (t.name.clone(), t.cores)).collect();
            let frac = |tier: &str, cats: &[&str]| -> f64 {
                r.tier(tier)
                    .map(|t| {
                        t.cpu_fractions
                            .iter()
                            .filter(|(n, _)| cats.contains(&n.as_str()))
                            .map(|(_, f)| f)
                            .sum()
                    })
                    .unwrap_or(0.0)
            };
            let b = Breakdown {
                arch: arch.label().to_string(),
                value_bytes,
                frontend_fixed_fraction: frac("sql_frontend", &["sql_frontend", "txn_lease"]),
                app_client_fraction: frac("app", &["client_comm"]),
                app_storage_fraction: frac("app", &["rpc_stack", "serialization", "app_logic"]),
                memory_fraction: r.memory_cost_fraction(),
                tier_cores,
            };
            let cores_of = |name: &str| {
                b.tier_cores
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, c)| *c)
                    .unwrap_or(0.0)
            };
            rows.push(vec![
                format!("{}KB", value_bytes >> 10),
                format!("{:.1}", cores_of("app")),
                format!("{:.1}", cores_of("remote_cache")),
                format!("{:.1}", cores_of("sql_frontend")),
                format!("{:.1}", cores_of("storage")),
                format!("{:.0}%", b.frontend_fixed_fraction * 100.0),
                format!("{:.0}%", b.app_client_fraction * 100.0),
                format!("{:.0}%", b.app_storage_fraction * 100.0),
                format!("{:.1}%", b.memory_fraction * 100.0),
            ]);
            out.push(b);
        }
        print_table(
            &format!("Figure 6 ({arch})"),
            &[
                "size",
                "app",
                "cache",
                "frontend",
                "storage",
                "db-fixed%",
                "app-client%",
                "app-storage%",
                "mem-cost%",
            ],
            &rows,
        );
    }

    write_json("fig6_cpu_breakdown", &out);

    // §5.3 in-text claims.
    let base_db: Vec<f64> = out
        .iter()
        .filter(|b| b.arch == "base")
        .map(|b| b.frontend_fixed_fraction)
        .collect();
    println!(
        "\nDB fixed-overhead (conn/parse/plan/lease) share of frontend CPU for Base: {:?}",
        base_db
            .iter()
            .map(|f| format!("{:.0}%", f * 100.0))
            .collect::<Vec<_>>()
    );
    let linked_mem: Vec<f64> = out
        .iter()
        .filter(|b| b.arch == "linked")
        .map(|b| b.memory_fraction)
        .collect();
    println!(
        "Memory share of total cost for Linked: {:?} (paper: 6-22%); Base: {:?} (paper: 1-5%)",
        linked_mem
            .iter()
            .map(|f| format!("{:.1}%", f * 100.0))
            .collect::<Vec<_>>(),
        out.iter()
            .filter(|b| b.arch == "base")
            .map(|b| format!("{:.1}%", b.memory_fraction * 100.0))
            .collect::<Vec<_>>()
    );
}
