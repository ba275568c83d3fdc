//! Ablation — popularity churn.
//!
//! The paper's §2.2 motivates rich-object workloads with parameterized,
//! time-varying requests ("top-N user-relevant logs in the past T minutes").
//! This ablation stresses the static-popularity assumption behind the cost
//! results: the workload's hot set rotates completely every `period`
//! requests, and we measure how much of the Linked saving survives.
//!
//! Expected shape: rapid churn (period ≪ cache fill time) collapses the hit
//! ratio toward the cold-miss floor and the saving toward 1×; slow churn
//! costs only the transient refill after each rotation.

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
    churn_period: Option<u64>,
    cache_hit_ratio: f64,
    total_cost: f64,
    saving_vs_base: f64,
}

fn main() {
    println!(
        "Ablation: popularity churn (100K keys, 1KB, r=0.95, 100K QPS, cache ~5% of keyspace)"
    );
    let (warmup, measured) = request_budget(120_000, 120_000);

    let run = |arch: ArchKind, churn: Option<u64>| {
        let mut workload = KvWorkloadConfig::paper_synthetic(0.95, 1_024, 42);
        workload.churn_period = churn;
        let mut cfg = KvExperimentConfig::paper(arch, workload);
        cfg.qps = 100_000.0;
        cfg.warmup_requests = warmup;
        cfg.requests = measured;
        // Size the cache well below the keyspace (~5K of 100K entries) so
        // hot-set rotation actually forces refills.
        cfg.deployment.linked_cache_bytes_per_server = 2 << 20;
        run_kv_experiment(&cfg).expect("run")
    };

    // Spec 0 is the Base reference; the rest are Linked under churn.
    let mut specs: Vec<(String, ArchKind, Option<u64>)> =
        vec![("base".into(), ArchKind::Base, None)];
    specs.push(("static".into(), ArchKind::Linked, None));
    for period in [200_000u64, 60_000, 20_000, 5_000] {
        specs.push((
            format!("churn every {period}"),
            ArchKind::Linked,
            Some(period),
        ));
    }
    let reports = SweepRunner::from_env().run_map(&specs, |_, (_, arch, churn)| run(*arch, *churn));
    let base_cost = reports[0].total_cost.total();

    let mut rows = Vec::new();
    let mut points = Vec::new();
    for ((label, _, churn), r) in specs.iter().zip(&reports).skip(1) {
        let total = r.total_cost.total();
        rows.push(vec![
            label.clone(),
            format!("{:.3}", r.cache_hit_ratio),
            usd(total),
            ratio(base_cost / total),
        ]);
        points.push(Point {
            churn_period: *churn,
            cache_hit_ratio: r.cache_hit_ratio,
            total_cost: total,
            saving_vs_base: base_cost / total,
        });
    }

    print_table(
        &format!("Churn ablation (Base: {})", usd(base_cost)),
        &["popularity", "hit", "total/mo", "saving"],
        &rows,
    );
    write_json("ablation_churn", &points);

    println!(
        "\nCaches pay for popularity stability: every hot-set rotation forces a\n\
         refill (cold misses through the full storage path). The cost advantage\n\
         degrades smoothly with churn rate rather than cliffing — but workloads\n\
         that rotate faster than the cache can fill keep little of it."
    );
}
