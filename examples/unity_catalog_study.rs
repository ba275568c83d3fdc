//! The rich-object study: Unity Catalog-Object vs Unity Catalog-KV (§5.4).
//!
//! A `getTable` against the relational schema costs 8 SQL statements plus
//! app-side assembly; the denormalized KV flavor costs one point lookup.
//! This example runs both flavors under Base and Linked and shows the
//! paper's claim: caching the *assembled object* saves disproportionately,
//! because a hit elides the whole query fan-out.
//!
//! ```sh
//! cargo run --release --example unity_catalog_study
//! ```

use dcache_cost::study::unityapp::{
    run_unity_kv_experiment, run_unity_object_experiment, UnityExperimentConfig,
};
use dcache_cost::study::{ArchKind, DeploymentConfig};
use dcache_cost::workload::unity::{UnityDataset, UnityScale};

fn main() {
    // A reduced universe (4K tables) so the example runs in ~10 seconds.
    let scale = UnityScale {
        tables: 4_000,
        schemas: 200,
        catalogs: 10,
        principals: 400,
        ..UnityScale::default()
    };

    let dataset = UnityDataset::new(scale);
    let mut sizes: Vec<u64> = (0..scale.tables)
        .map(|t| dataset.object_logical_bytes(t))
        .collect();
    sizes.sort_unstable();
    println!(
        "universe: {} tables; assembled objects: median {} KB, p99 {} KB",
        scale.tables,
        sizes[sizes.len() / 2] / 1024,
        sizes[(sizes.len() as f64 * 0.99) as usize] / 1024,
    );
    let stmts = dataset.get_table_statements(7);
    println!("getTable(7) issues {} SQL statements:", stmts.len());
    for (sql, params) in &stmts {
        println!("    {sql}   -- params {params:?}");
    }
    println!();

    let run = |flavor: &str, arch: ArchKind| {
        let mut cfg = UnityExperimentConfig {
            deployment: DeploymentConfig::paper(arch),
            scale,
            qps: 40_000.0,
            warmup_requests: 20_000,
            requests: 20_000,
            prewarm: true,
            pricing: Default::default(),
            stream_seed: 1,
        };
        cfg.deployment.cluster.regions = 12;
        let r = match flavor {
            "object" => run_unity_object_experiment(&cfg).expect("object run"),
            _ => run_unity_kv_experiment(&cfg).expect("kv run"),
        };
        (
            r.total_cost.total(),
            r.sql_statements as f64 / r.requests as f64,
            r.cache_hit_ratio,
        )
    };

    for flavor in ["object", "kv"] {
        let (base, base_sql, _) = run(flavor, ArchKind::Base);
        let (linked, linked_sql, hit) = run(flavor, ArchKind::Linked);
        println!("Unity Catalog-{flavor:6}:");
        println!("    base   ${base:>8.2}/mo   {base_sql:.2} SQL/req");
        println!(
            "    linked ${linked:>8.2}/mo   {linked_sql:.2} SQL/req   {:.0}% hits   => {:.2}x cheaper",
            hit * 100.0,
            base / linked
        );
    }

    println!(
        "\nCaching the rich object eliminates the 8-statement query amplification\n\
         entirely on a hit; the KV flavor only saves a single lookup — hence the\n\
         object flavor's larger saving multiple (§5.4, Figure 7)."
    );
}
