//! Cost explorer: should *your* service add a cache, and how big?
//!
//! Feeds your workload parameters through the paper's §4 analytical model
//! and prints the recommended allocation, the expected saving, and the
//! DRAM+SSD hybrid option.
//!
//! ```sh
//! cargo run --release --example cost_explorer -- \
//!     --qps 40000 --keys 10000000 --alpha 1.1 --value-bytes 23000 \
//!     --replicas 1 --storage-cache-gb 1
//! ```
//!
//! All flags are optional; defaults are the paper's production regime.

use dcache_cost::cost::{HybridModel, Pricing, SsdTier, TheoryModel, TheoryParams};

fn arg(name: &str) -> Option<f64> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

fn main() {
    let params = TheoryParams {
        qps: arg("--qps").unwrap_or(40_000.0),
        keys: arg("--keys").unwrap_or(10_000_000.0) as u64,
        alpha: arg("--alpha").unwrap_or(1.1),
        mean_entry_bytes: arg("--value-bytes").unwrap_or(23_000.0),
        replicas: arg("--replicas").unwrap_or(1.0),
        ..TheoryParams::default()
    };
    let s_d = arg("--storage-cache-gb").unwrap_or(1.0);
    let dataset_gb = params.keys as f64 * params.mean_entry_bytes / 1e9;

    println!(
        "workload: {:.0} QPS over {} keys (Zipf {:.2}), mean entry {:.0} B",
        params.qps, params.keys, params.alpha, params.mean_entry_bytes
    );
    println!("dataset:  {dataset_gb:.1} GB; storage-layer cache fixed at {s_d:.1} GB\n");

    let model = TheoryModel::new(params.clone());
    let no_cache = model.total_cost(0.0, s_d);
    println!(
        "no linked cache      : ${no_cache:>10.2}/mo   (MR at storage cache: {:.3})",
        model.miss_ratio(s_d)
    );

    let best = model.optimal_s_a(s_d, (dataset_gb * 1.2).max(1.0));
    let best_cost = model.total_cost(best, s_d);
    println!(
        "optimal linked cache : ${best_cost:>10.2}/mo   s_A = {best:.2} GB, hit ratio {:.3}  => {:.2}x cheaper",
        1.0 - model.miss_ratio(best),
        no_cache / best_cost
    );

    for s_a in [1.0, 4.0, 8.0, 16.0] {
        let c = model.total_cost(s_a, s_d);
        println!(
            "  s_A = {s_a:>4.0} GB       : ${c:>10.2}/mo   hit {:.3}   {:.2}x",
            1.0 - model.miss_ratio(s_a),
            no_cache / c
        );
    }

    let hybrid = HybridModel::new(&model, SsdTier::default());
    let alloc = hybrid.optimize(s_d, (dataset_gb * 1.2).max(1.0), dataset_gb.max(1.0) * 2.0);
    println!(
        "\nDRAM+SSD hybrid      : ${:>10.2}/mo   {:.2} GB DRAM + {:.0} GB SSD  => {:.2}x cheaper than no cache",
        alloc.monthly_cost,
        alloc.dram_gb,
        alloc.ssd_gb,
        no_cache / alloc.monthly_cost
    );

    println!("\ngradients at the optimum (s_A = {best:.2} GB):");
    println!(
        "  dT/ds_A = {:+.2} $/GB    dT/ds_D = {:+.2} $/GB",
        model.d_ds_a(best, s_d),
        model.d_ds_d(best, s_d)
    );
    println!(
        "\nPrices: ${}/core-month, ${}/GB-month DRAM (GCP, paper Section 3).",
        Pricing::default().cpu_core_month,
        Pricing::default().mem_gb_month
    );
    println!("Caveat: the model prices steady state; run the full simulator");
    println!("(`dcache::experiment`) for per-architecture and consistency costs.");
}
