//! Ablation — the in-process hot-key L0 tier (the "fifth architecture").
//!
//! A few MB of TinyLFU-admitted, version-invalidated cache inside each app
//! server absorbs the Zipf head at the cost of one in-process probe — no
//! RPC, no serialization, no shard routing. This sweep layers that L0 in
//! front of the Remote and Linked architectures and varies tier size ×
//! skew × value size, then compares the measured dollars against the §4
//! alternative for cutting Remote's RPC tax: batched multi-get at the
//! B* ≈ 8.8 crossover frame size.
//!
//! Expected shape:
//!
//! * L0 absorption tracks the head mass: it grows with skew and with tier
//!   bytes (more head keys resident), and saturates once the tier holds
//!   the whole head;
//! * with invalidate-first coherence, `stale_reads` stays zero — writers
//!   purge every server's L0 before acknowledging, paying invalidation
//!   CPU that shows up in the app tier;
//! * serve-stale drops the invalidation traffic and serves bounded-stale
//!   hits instead — the measured stale serves and age percentiles put
//!   numbers on that trade;
//! * at high skew and small values the L0's dollars undercut even a
//!   well-amortized batch, matching the `costmodel` crossover.

use bench::hotkey::{cpu_us_per_request, l0_absorption, run_sweep, sweep_specs};
use bench::sweep::SweepRunner;
use bench::{print_table, request_budget, usd, write_json};
use costmodel::{RpcTax, TheoryModel, TheoryParams};
use serde::Serialize;

// Fields are read via `Serialize`; the offline serde stub derive is a no-op.
#[allow(dead_code)]
#[derive(Serialize)]
struct Point {
    arch: String,
    l0_bytes: u64,
    alpha: f64,
    value_bytes: u64,
    serve_stale: bool,
    l0_hit_ratio: f64,
    l0_absorption: f64,
    l0_invalidations: u64,
    l0_stale_serves: u64,
    l0_age_p99_us: u64,
    stale_reads: u64,
    cpu_us_per_request: f64,
    total_cost: f64,
    cache_hit_ratio: f64,
    read_p50_us: u64,
    read_p99_us: u64,
}

fn main() {
    println!("Ablation: in-process hot-key L0 tier (bytes x skew x value size)");
    let (warmup, measured) = request_budget(20_000, 40_000);

    let specs = sweep_specs();
    let reports = run_sweep(&SweepRunner::from_env(), &specs, warmup, measured);

    let mut rows = Vec::new();
    let mut points = Vec::new();
    for (spec, r) in specs.iter().zip(&reports) {
        rows.push(vec![
            spec.arch.label().to_string(),
            format!("{}", spec.alpha),
            format!("{}", spec.value_bytes),
            format!("{}", spec.l0_bytes >> 10),
            if spec.serve_stale { "stale" } else { "inval" }.to_string(),
            format!("{:.3}", l0_absorption(r)),
            format!("{}", r.l0_stale_serves),
            format!("{}", r.l0_age_p99_us),
            format!("{:.2}", cpu_us_per_request(r)),
            format!("{}", r.read_latency_p50_us),
            usd(r.total_cost.total()),
        ]);
        points.push(Point {
            arch: spec.arch.label().to_string(),
            l0_bytes: spec.l0_bytes,
            alpha: spec.alpha,
            value_bytes: spec.value_bytes,
            serve_stale: spec.serve_stale,
            l0_hit_ratio: r.l0_hit_ratio,
            l0_absorption: l0_absorption(r),
            l0_invalidations: r.l0_invalidations,
            l0_stale_serves: r.l0_stale_serves,
            l0_age_p99_us: r.l0_age_p99_us,
            stale_reads: r.stale_reads,
            cpu_us_per_request: cpu_us_per_request(r),
            total_cost: r.total_cost.total(),
            cache_hit_ratio: r.cache_hit_ratio,
            read_p50_us: r.read_latency_p50_us,
            read_p99_us: r.read_latency_p99_us,
        });
    }
    print_table(
        "Hot-key L0 ablation (95% reads)",
        &[
            "arch",
            "alpha",
            "val_B",
            "l0_kB",
            "mode",
            "l0_abs",
            "stale",
            "age_p99_us",
            "cpu_us/req",
            "p50_us",
            "total/mo",
        ],
        &rows,
    );
    write_json("ablation_hotkey", &points);

    // The costmodel companion: at what skew does a 4 MB L0 beat batching at
    // the §4 B* ≈ 8.8 crossover frame size, and how does value size move it?
    let tax = RpcTax::default();
    let template = |entry_bytes: f64| TheoryParams {
        keys: 1_000_000,
        mean_entry_bytes: entry_bytes,
        qps: 40_000.0,
        ..TheoryParams::default()
    };
    let (l0_gb, l0_hit, servers, b_star) = (4.0e-3, 0.15e-6, 4.0, 8.8);
    println!("\nL0-vs-batching dollar crossover (4 MB/server, B* = 8.8):");
    for entry_bytes in [128.0, 1_024.0, 65_536.0] {
        match TheoryModel::l0_crossover_alpha(
            &template(entry_bytes),
            &tax,
            b_star,
            l0_gb,
            l0_hit,
            servers,
            0.5,
            1.6,
        ) {
            Some(a) => println!("  {entry_bytes:>8.0} B values: L0 wins from alpha >= {a:.2}"),
            None => {
                println!("  {entry_bytes:>8.0} B values: batching keeps winning below alpha 1.6")
            }
        }
    }
    let m = TheoryModel::new(TheoryParams {
        alpha: 1.2,
        ..template(1_024.0)
    });
    println!(
        "  at alpha 1.2, 1 KB values: margin {} per month vs the batched frame",
        usd(m.l0_vs_batching_margin(&tax, b_star, l0_gb, l0_hit, servers))
    );

    println!(
        "\nThe L0 tier converts the Zipf head into in-process probes: its\n\
         absorption follows the head mass, invalidate-first keeps stale\n\
         reads at zero for invalidation CPU, and serve-stale trades a\n\
         bounded staleness window for dropping that write fan-out. At\n\
         production skew and small values a few MB per server undercuts\n\
         even a B*-sized batched frame on dollars — batching amortizes the\n\
         RPC tax, the L0 deletes it."
    );
}
