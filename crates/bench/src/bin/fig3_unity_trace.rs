//! Figure 3 — Unity Catalog trace distributions.
//!
//! (a) value-size distribution of the rich objects (median ≈ 23 KB, heavy
//!     tail); (b) access-frequency distribution (Zipf-like rank/frequency).
//! Also prints the §5.2 aggregates: read ratio ≈ 93%, getTable dominant.

use bench::{print_table, write_json};
use serde::Serialize;
use workloads::unity::{UnityDataset, UnityOp, UnityScale, UnityWorkload};

// Fields are read via `Serialize`; the offline serde stub derive is a no-op.
#[allow(dead_code)]
#[derive(Serialize)]
struct Fig3Results {
    size_percentiles: Vec<(String, u64)>,
    rank_frequency: Vec<(u64, u64)>,
    read_ratio: f64,
    median_object_bytes: u64,
}

fn main() {
    println!("Reproducing Figure 3: Unity Catalog trace distributions");
    let scale = UnityScale::default();
    let dataset = UnityDataset::new(scale);

    // (a) object size distribution.
    let mut sizes: Vec<u64> = (0..scale.tables)
        .map(|t| dataset.object_logical_bytes(t))
        .collect();
    sizes.sort_unstable();
    let pct = |q: f64| sizes[((sizes.len() - 1) as f64 * q) as usize];
    let size_percentiles: Vec<(String, u64)> = [
        ("p10", 0.10),
        ("p25", 0.25),
        ("p50", 0.50),
        ("p75", 0.75),
        ("p90", 0.90),
        ("p99", 0.99),
        ("max", 1.0),
    ]
    .iter()
    .map(|&(name, q)| (name.to_string(), pct(q)))
    .collect();
    print_table(
        "Figure 3a: rich-object value sizes (paper: median ~23KB, heavy tail)",
        &["pct", "bytes"],
        &size_percentiles
            .iter()
            .map(|(n, v)| vec![n.clone(), format!("{v}")])
            .collect::<Vec<_>>(),
    );

    // (b) access frequency: draw a trace and rank tables by popularity.
    let draws = 400_000usize;
    let mut counts = std::collections::HashMap::new();
    let mut reads = 0u64;
    for req in UnityWorkload::new(&scale, 7).take(draws) {
        *counts.entry(req.table).or_insert(0u64) += 1;
        if req.op == UnityOp::GetTable {
            reads += 1;
        }
    }
    let mut freq: Vec<u64> = counts.values().copied().collect();
    freq.sort_unstable_by(|a, b| b.cmp(a));
    let rank_frequency: Vec<(u64, u64)> = [1usize, 2, 5, 10, 50, 100, 500, 1_000, 5_000]
        .iter()
        .filter(|&&r| r <= freq.len())
        .map(|&r| (r as u64, freq[r - 1]))
        .collect();
    print_table(
        "Figure 3b: access frequency by popularity rank (Zipf-like)",
        &["rank", "accesses"],
        &rank_frequency
            .iter()
            .map(|(r, f)| vec![format!("{r}"), format!("{f}")])
            .collect::<Vec<_>>(),
    );

    let read_ratio = reads as f64 / draws as f64;
    println!("\nread ratio: {read_ratio:.3} (paper: ~0.93)");
    println!("median object size: {} bytes (paper: ~23KB)", pct(0.5));
    println!(
        "distinct tables touched: {} of {}",
        counts.len(),
        scale.tables
    );

    write_json(
        "fig3_unity_trace",
        &Fig3Results {
            size_percentiles,
            rank_frequency,
            read_ratio,
            median_object_bytes: pct(0.5),
        },
    );
}
