//! Safety checks for the Raft layer: under random interleavings of
//! proposals, crashes, restarts, elections and heartbeats, committed
//! entries are never lost and replica state machines never diverge.
//!
//! The property runs 256 seeded splitmix64 schedules; a failure names the
//! case seed, so it replays on its own.

use simnet::{SimDuration, SimTime};
use storekit::raft::{ApplyOp, RaftGroup};
use storekit::sql::exec::WriteBatch;

const CASES: u64 = 256;

/// splitmix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

#[derive(Debug, Clone)]
enum Step {
    Propose(u8),
    Crash(u8),
    Restart(u8),
    Elect,
    Tick,
}

/// One step, weighted 4:1:1:1:2 (propose : crash : restart : elect : tick).
fn step(rng: &mut Rng) -> Step {
    match rng.below(9) {
        0..=3 => Step::Propose(rng.next() as u8),
        4 => Step::Crash(rng.below(3) as u8),
        5 => Step::Restart(rng.below(3) as u8),
        6 => Step::Elect,
        _ => Step::Tick,
    }
}

fn batch(tag: u8) -> WriteBatch {
    WriteBatch {
        table: format!("t{tag}"),
        logical_bytes: tag as u64,
        ..Default::default()
    }
}

/// Record applied entries per replica; applies must arrive in log order.
fn record_ops(g: &RaftGroup, ops: Vec<ApplyOp>, applied: &mut [Vec<u64>; 3]) -> Result<(), String> {
    for op in ops {
        if applied[op.slot].len() != op.index {
            return Err(format!(
                "replica {} applied index {} after {} entries: out-of-order apply",
                op.slot,
                op.index,
                applied[op.slot].len()
            ));
        }
        applied[op.slot].push(g.entry(op.index).version);
    }
    Ok(())
}

/// The core Raft safety argument, checked mechanically on one schedule:
/// 1. the commit index never regresses;
/// 2. once an entry is committed, its (index → version) binding never
///    changes across failovers;
/// 3. per-replica applied prefixes match the leader's log;
/// 4. a live quorum can always eventually elect a leader.
fn committed_entries_survive(steps: &[Step]) -> Result<(), String> {
    let mut g = RaftGroup::new(
        0,
        vec![10, 11, 12],
        SimTime::ZERO,
        SimDuration::from_secs(10),
    );
    let mut next_version = 1u64;
    // Ground truth: versions of entries at each committed index.
    let mut committed_log: Vec<u64> = Vec::new();
    // Per-replica applied versions, in order.
    let mut applied: [Vec<u64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    let now = SimTime::ZERO;

    for (n, step) in steps.iter().enumerate() {
        let commit_before = g.committed();
        match *step {
            Step::Propose(tag) => {
                if let Ok(ops) = g.propose(batch(tag), next_version, now) {
                    next_version += 1;
                    record_ops(&g, ops, &mut applied)?;
                }
            }
            Step::Crash(slot) => g.crash(slot as usize),
            Step::Restart(slot) => g.restart(slot as usize),
            Step::Elect => {
                let _ = g.elect(now);
            }
            Step::Tick => {
                let ops = g.tick(now);
                record_ops(&g, ops, &mut applied)?;
            }
        }
        let at = format!("step {n} ({step:?})");
        // (1) commit never regresses.
        if g.committed() < commit_before {
            return Err(format!(
                "{at}: commit regressed from {commit_before} to {}",
                g.committed()
            ));
        }
        // (2) committed bindings are stable.
        for (index, &version) in committed_log.iter().enumerate() {
            if g.log_len() <= index {
                return Err(format!("{at}: committed entry {index} truncated"));
            }
            if g.entry(index).version != version {
                return Err(format!(
                    "{at}: committed entry {index} changed identity: version {} != {version}",
                    g.entry(index).version
                ));
            }
        }
        for index in committed_log.len()..g.committed() {
            committed_log.push(g.entry(index).version);
        }
        // (3) every replica's applied sequence is a prefix of the
        // committed log.
        for (slot, seq) in applied.iter().enumerate() {
            if seq.len() > committed_log.len().max(g.committed()) {
                return Err(format!("{at}: replica {slot} applied beyond commit"));
            }
            for (i, &v) in seq.iter().enumerate() {
                if v != g.entry(i).version {
                    return Err(format!("{at}: replica {slot} diverged at {i}"));
                }
            }
        }
    }

    // (4) liveness escape hatch: restart everyone, elect, tick — all
    // replicas converge to the full committed log.
    for slot in 0..3 {
        g.restart(slot);
    }
    let _ = g.elect(now);
    let ops = g.tick(now);
    record_ops(&g, ops, &mut applied)?;
    for (slot, seq) in applied.iter().enumerate() {
        if seq.len() != g.committed() {
            return Err(format!(
                "replica {slot} did not converge: applied {} of {} committed",
                seq.len(),
                g.committed()
            ));
        }
    }
    Ok(())
}

#[test]
fn committed_entries_survive_any_schedule() {
    for case in 0..CASES {
        let seed = 0x7AF7_5AFE ^ (case << 20);
        let mut rng = Rng(seed);
        let len = 1 + rng.below(119) as usize;
        let steps: Vec<Step> = (0..len).map(|_| step(&mut rng)).collect();
        if let Err(e) = committed_entries_survive(&steps) {
            panic!("case seed {seed:#x}: {e}");
        }
    }
}
