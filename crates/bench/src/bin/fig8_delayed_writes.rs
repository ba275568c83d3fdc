//! Figure 8 — the delayed-writes problem, reproduced end to end.
//!
//! Runs the §6 scenario twice on the real substrate (Raft storage, linked
//! cache, auto-sharder): once without write fencing — showing the silent
//! cache/storage divergence and the linearizability violation — and once
//! with epoch fencing, showing the fix.

use bench::{print_table, write_json};
use dcache::consistency::delayed_write_scenario;
use serde::Serialize;

// Fields are read via `Serialize`; the offline serde stub derive is a no-op.
#[allow(dead_code)]
#[derive(Serialize)]
struct Fig8Results {
    unfenced_admitted: bool,
    unfenced_cache: Option<u64>,
    unfenced_storage: Option<u64>,
    unfenced_linearizable: bool,
    fenced_admitted: bool,
    fenced_cache: Option<u64>,
    fenced_storage: Option<u64>,
    fenced_linearizable: bool,
}

fn fmt(v: Option<u64>) -> String {
    v.map(|x| x.to_string()).unwrap_or_else(|| "-".to_string())
}

fn main() {
    println!("Reproducing Figure 8: delayed writes under ownership transfer");

    let unfenced = delayed_write_scenario(false).expect("scenario runs");
    let fenced = delayed_write_scenario(true).expect("scenario runs");

    print_table(
        "Delayed-write scenario outcomes",
        &[
            "variant",
            "write admitted",
            "cache",
            "storage",
            "linearizable",
        ],
        &[
            vec![
                "no fencing".into(),
                unfenced.delayed_write_admitted.to_string(),
                fmt(unfenced.final_cache_value),
                fmt(unfenced.final_storage_value),
                unfenced.linearizable.to_string(),
            ],
            vec![
                "epoch fencing".into(),
                fenced.delayed_write_admitted.to_string(),
                fmt(fenced.final_cache_value),
                fmt(fenced.final_storage_value),
                fenced.linearizable.to_string(),
            ],
        ],
    );

    println!("\nWithout fencing: the delayed write of 2 lands after ownership moved;");
    println!("the new owner cached the old value (1) and keeps serving it — cache and");
    println!("storage silently diverge, and the client-visible history is not");
    println!("linearizable. With epoch fencing, the stale-epoch write is rejected,");
    println!("the client retries through the new owner, and consistency holds.");

    for (name, o) in [("unfenced", &unfenced), ("fenced", &fenced)] {
        println!("\n{name} history:");
        for op in &o.history {
            println!(
                "  {:?} value={:?} [{} .. {}]",
                op.kind, op.value, op.invoked, op.completed
            );
        }
    }

    write_json(
        "fig8_delayed_writes",
        &Fig8Results {
            unfenced_admitted: unfenced.delayed_write_admitted,
            unfenced_cache: unfenced.final_cache_value,
            unfenced_storage: unfenced.final_storage_value,
            unfenced_linearizable: unfenced.linearizable,
            fenced_admitted: fenced.delayed_write_admitted,
            fenced_cache: fenced.final_cache_value,
            fenced_storage: fenced.final_storage_value,
            fenced_linearizable: fenced.linearizable,
        },
    );

    assert!(!unfenced.linearizable, "hazard must reproduce");
    assert!(fenced.linearizable, "fix must hold");
    println!("\nOK: hazard reproduced and fix verified.");
}
