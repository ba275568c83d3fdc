//! Ablation — the price of consistency, and the §6 way out.
//!
//! Compares eventually-consistent Linked, the §5.5 per-read version check
//! (Linked+Version), and the §6 lease-owned design across value sizes.
//! The version check pays the whole SQL front-end + lease + RPC + row-fetch
//! path on every read; ownership leases amortize that to ~nothing while
//! preserving linearizability (fencing handles the Figure 8 hazard).

use bench::sweep::SweepRunner;
use bench::{print_table, ratio, request_budget, usd, write_json};
use dcache::experiment::{run_kv_experiment, KvExperimentConfig};
use dcache::ArchKind;
use serde::Serialize;
use workloads::KvWorkloadConfig;

// Fields are read via `Serialize`; the offline serde stub derive is a no-op.
#[allow(dead_code)]
#[derive(Serialize)]
struct Point {
    arch: String,
    value_bytes: u64,
    total_cost: f64,
    saving_vs_base: f64,
    version_checks_per_read: f64,
    stale_reads: u64,
}

fn main() {
    println!("Ablation: consistency mechanisms (Linked vs +Version vs LeaseOwned)");
    let (warmup, measured) = request_budget(100_000, 100_000);
    let mut points = Vec::new();

    const VARIANTS: [ArchKind; 4] = [
        ArchKind::Base,
        ArchKind::Linked,
        ArchKind::LinkedVersion,
        ArchKind::LeaseOwned,
    ];
    let specs: Vec<(u64, ArchKind)> = [1u64 << 10, 100 << 10]
        .iter()
        .flat_map(|&v| VARIANTS.iter().map(move |&a| (v, a)))
        .collect();
    let reports = SweepRunner::from_env().run_map(&specs, |_, &(value_bytes, arch)| {
        let workload = KvWorkloadConfig::paper_synthetic(0.95, value_bytes, 42);
        let mut cfg = KvExperimentConfig::paper(arch, workload);
        cfg.qps = 100_000.0;
        cfg.warmup_requests = warmup;
        cfg.requests = measured;
        run_kv_experiment(&cfg).expect("run")
    });

    for (chunk, reports) in specs
        .chunks(VARIANTS.len())
        .zip(reports.chunks(VARIANTS.len()))
    {
        let value_bytes = chunk[0].0;
        let base_cost = reports[0].total_cost.total();
        let mut rows = Vec::new();
        for (&(_, arch), r) in chunk.iter().zip(reports).skip(1) {
            let total = r.total_cost.total();
            let checks = r.version_checks as f64 / (r.requests as f64 * 0.95);
            rows.push(vec![
                arch.label().to_string(),
                usd(total),
                ratio(base_cost / total),
                format!("{checks:.3}"),
                format!("{}", r.stale_reads),
                if arch.is_consistent() { "yes" } else { "no" }.to_string(),
            ]);
            points.push(Point {
                arch: arch.label().to_string(),
                value_bytes,
                total_cost: total,
                saving_vs_base: base_cost / total,
                version_checks_per_read: checks,
                stale_reads: r.stale_reads,
            });
        }
        print_table(
            &format!(
                "Consistency ablation at {}KB values (Base: {})",
                value_bytes >> 10,
                usd(base_cost)
            ),
            &[
                "arch",
                "total/mo",
                "saving",
                "checks/read",
                "stale",
                "linearizable",
            ],
            &rows,
        );
    }
    write_json("ablation_consistency", &points);

    println!(
        "\nPer-read version checks collapse the saving toward 1x (§5.5); ownership\n\
         leases recover nearly all of Linked's saving while keeping reads\n\
         linearizable (§6) — the fencing correctness argument is fig8_delayed_writes."
    );
}
