//! Golden-figure regression suite.
//!
//! Each figure of the paper has a checked-in snapshot under
//! `tests/golden/<figure>.json`: a small set of summary metrics computed
//! from the figure's experiments at fixed seeds and reduced (test-sized)
//! budgets. This suite re-runs those experiments through the parallel
//! sweep runner and compares every metric against the snapshot with the
//! per-field tolerances encoded in `bench::golden::tolerance_for` —
//! counters and flags must match exactly, model outputs to 1e-9, simulated
//! fractions/costs/latencies within small windows.
//!
//! To re-bless the snapshots after an intentional behavior change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --release --test golden_figures
//! ```
//!
//! The diff of `tests/golden/` then documents exactly which figures moved
//! and by how much.

use std::path::PathBuf;

use bench::golden::{all_figures, compare, GoldenFigure};
use bench::sweep::SweepRunner;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

fn bless_mode() -> bool {
    std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1")
}

#[test]
fn figures_match_goldens() {
    let runner = SweepRunner::from_env();
    let figures = all_figures(&runner);
    assert!(
        figures.len() >= 7,
        "expected golden coverage for fig2..fig8, got {}",
        figures.len()
    );

    let dir = golden_dir();
    if bless_mode() {
        std::fs::create_dir_all(&dir).expect("create tests/golden");
        for fig in &figures {
            let path = dir.join(format!("{}.json", fig.name));
            std::fs::write(&path, fig.to_json()).expect("write golden");
            println!("blessed {}", path.display());
        }
        return;
    }

    let mut violations = Vec::new();
    for fig in &figures {
        let path = dir.join(format!("{}.json", fig.name));
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                violations.push(format!(
                    "{}: missing golden {} ({e}); run UPDATE_GOLDEN=1 to bless",
                    fig.name,
                    path.display()
                ));
                continue;
            }
        };
        let expected = GoldenFigure::parse(&text)
            .unwrap_or_else(|e| panic!("{}: malformed golden: {e}", fig.name));
        violations.extend(compare(&expected, fig));
    }
    assert!(
        violations.is_empty(),
        "golden-figure regressions:\n  {}",
        violations.join("\n  ")
    );
}

#[test]
fn goldens_on_disk_are_well_formed() {
    // Snapshots must parse and carry at least one metric per point, so a
    // truncated or hand-mangled file fails loudly here rather than as a
    // confusing tolerance violation above.
    if bless_mode() {
        // `figures_match_goldens` is rewriting the snapshots concurrently.
        return;
    }
    let dir = golden_dir();
    assert!(
        dir.exists(),
        "tests/golden missing; bless with UPDATE_GOLDEN=1"
    );
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).expect("read tests/golden") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("read golden");
        let fig = GoldenFigure::parse(&text)
            .unwrap_or_else(|e| panic!("{}: malformed: {e}", path.display()));
        assert!(!fig.points.is_empty(), "{}: no points", path.display());
        for p in &fig.points {
            assert!(
                !p.metrics.is_empty(),
                "{}: point {:?} has no metrics",
                path.display(),
                p.label
            );
        }
        // Round-trip: parse(to_json(parse(x))) is the identity, so blessing
        // never rewrites a snapshot that didn't change.
        assert_eq!(
            fig.to_json(),
            text,
            "{}: not in canonical form",
            path.display()
        );
        seen += 1;
    }
    assert!(seen >= 7, "expected >=7 golden snapshots, found {seen}");
}
