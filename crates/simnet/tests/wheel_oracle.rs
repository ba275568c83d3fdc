//! Differential test: the hierarchical-timer-wheel kernel vs a straight
//! `BinaryHeap` oracle.
//!
//! The wheel rewrite is a pure speed play — its contract is *bit-identical
//! behavior* to the old heap-based engine: events pop in exact `(time, seq)`
//! order, scheduling in the past clamps to now, `run_until` stops at the
//! deadline and advances the clock to it, and cancels report liveness
//! truthfully. This test drives both implementations with the same
//! splitmix64-derived operation stream — schedules (with deliberate ties and
//! beyond-horizon times to force overflow promotion), cancels, reschedules,
//! and partial `run_until`s — and asserts the execution logs, clocks, and
//! pending counts match at every step.

use simnet::{Sim, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::collections::HashMap;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Reference model: the old engine, minus the closure machinery. A min-heap
/// of `(at, seq, tag)` with tombstone cancellation.
#[derive(Default)]
struct Oracle {
    clock: u64,
    heap: BinaryHeap<Reverse<(u64, u64, u64)>>,
    cancelled: std::collections::HashSet<u64>,
    next_seq: u64,
    live: usize,
}

impl Oracle {
    fn schedule(&mut self, at: u64, tag: u64) -> u64 {
        let at = at.max(self.clock);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse((at, seq, tag)));
        self.live += 1;
        seq
    }

    fn cancel(&mut self, seq: u64) -> bool {
        let pending = self
            .heap
            .iter()
            .any(|Reverse((_, s, _))| *s == seq && !self.cancelled.contains(s));
        if pending {
            self.cancelled.insert(seq);
            self.live -= 1;
        }
        pending
    }

    fn run_until(&mut self, deadline: u64, log: &mut Vec<(u64, u64)>) {
        while let Some(Reverse((at, seq, tag))) = self.heap.peek().copied() {
            if at > deadline {
                break;
            }
            self.heap.pop();
            if self.cancelled.remove(&seq) {
                continue;
            }
            self.clock = at;
            self.live -= 1;
            log.push((at, tag));
        }
        if deadline != u64::MAX {
            self.clock = self.clock.max(deadline);
        }
    }
}

/// Drive both engines with one op stream; panic on the first divergence.
fn differential_run(seed: u64, ops: usize) {
    let mut rng = seed;
    let mut sim: Sim<Vec<(u64, u64)>> = Sim::new(seed);
    let mut sim_log: Vec<(u64, u64)> = Vec::new();
    let mut oracle = Oracle::default();
    let mut oracle_log: Vec<(u64, u64)> = Vec::new();
    // tag -> (oracle seq, sim handle); tags double as event identities.
    let mut handles: HashMap<u64, (u64, simnet::EventId)> = HashMap::new();
    let mut live_tags: Vec<u64> = Vec::new();
    let mut next_tag = 0u64;

    // Delay palette. Coarse quantization forces (time, seq) ties; the large
    // entries exceed the wheel's 64^6 ns ≈ 68.7 s horizon to exercise the
    // overflow heap and its promotion path.
    const DELAYS: [u64; 12] = [
        0,
        0,
        1,
        7,
        64,
        4_096,
        262_144,
        16_777_216,
        1_000_000_000,
        68_719_476_736, // exactly 64^6: first tick past the horizon
        100_000_000_000,
        400_000_000_000,
    ];

    let schedule = |sim: &mut Sim<Vec<(u64, u64)>>,
                    oracle: &mut Oracle,
                    handles: &mut HashMap<u64, (u64, simnet::EventId)>,
                    live_tags: &mut Vec<u64>,
                    next_tag: &mut u64,
                    rng: &mut u64| {
        let delay = DELAYS[(splitmix64(rng) % DELAYS.len() as u64) as usize];
        let at = oracle.clock.saturating_add(delay);
        let tag = *next_tag;
        *next_tag += 1;
        let id = sim.schedule_at(
            SimTime::from_nanos(at),
            move |log: &mut Vec<(u64, u64)>, s| {
                log.push((s.now().as_nanos(), tag));
            },
        );
        let seq = oracle.schedule(at, tag);
        handles.insert(tag, (seq, id));
        live_tags.push(tag);
    };

    for _ in 0..ops {
        match splitmix64(&mut rng) % 100 {
            // Schedule (possibly several, to pile up ties).
            0..=49 => {
                let n = 1 + splitmix64(&mut rng) % 3;
                for _ in 0..n {
                    schedule(
                        &mut sim,
                        &mut oracle,
                        &mut handles,
                        &mut live_tags,
                        &mut next_tag,
                        &mut rng,
                    );
                }
            }
            // Cancel a random (possibly already-fired) event.
            50..=64 => {
                if !live_tags.is_empty() {
                    let i = (splitmix64(&mut rng) % live_tags.len() as u64) as usize;
                    let tag = live_tags.swap_remove(i);
                    let (seq, id) = handles[&tag];
                    let a = sim.cancel(id);
                    let b = oracle.cancel(seq);
                    assert_eq!(a, b, "cancel liveness diverged for tag {tag}");
                }
            }
            // Reschedule: cancel + schedule afresh.
            65..=74 => {
                if !live_tags.is_empty() {
                    let i = (splitmix64(&mut rng) % live_tags.len() as u64) as usize;
                    let tag = live_tags.swap_remove(i);
                    let (seq, id) = handles[&tag];
                    let a = sim.cancel(id);
                    let b = oracle.cancel(seq);
                    assert_eq!(a, b, "reschedule-cancel diverged for tag {tag}");
                    schedule(
                        &mut sim,
                        &mut oracle,
                        &mut handles,
                        &mut live_tags,
                        &mut next_tag,
                        &mut rng,
                    );
                }
            }
            // Partial run: deadline a random distance ahead (sometimes 0,
            // sometimes far enough to cross the horizon).
            _ => {
                let span = DELAYS[(splitmix64(&mut rng) % DELAYS.len() as u64) as usize];
                let deadline = oracle.clock.saturating_add(span);
                sim.run_until(&mut sim_log, SimTime::from_nanos(deadline));
                oracle.run_until(deadline, &mut oracle_log);
                assert_eq!(
                    sim.now().as_nanos(),
                    oracle.clock,
                    "clock diverged after run_until({deadline})"
                );
                assert_eq!(
                    sim_log, oracle_log,
                    "logs diverged after run_until({deadline})"
                );
                assert_eq!(sim.pending(), oracle.live, "pending diverged");
                live_tags.retain(|t| sim_log.iter().all(|&(_, fired)| fired != *t));
            }
        }
    }

    // Drain both to completion.
    sim.run(&mut sim_log);
    oracle.run_until(u64::MAX, &mut oracle_log);
    assert_eq!(sim_log, oracle_log, "final logs diverged (seed {seed})");
    assert_eq!(sim.pending(), 0);
    assert_eq!(oracle.live, 0);
    assert_eq!(sim.now().as_nanos(), oracle.clock, "final clocks diverged");
}

#[test]
fn wheel_matches_heap_oracle_across_seeds() {
    for seed in 0..32 {
        differential_run(seed, 400);
    }
}

#[test]
fn wheel_matches_heap_oracle_long_run() {
    differential_run(0xD1FF_5EED, 5_000);
}

#[test]
fn tie_storm_pops_in_insertion_order() {
    // 1000 events on 4 instants, interleaved: order must be (time, seq).
    let mut sim: Sim<Vec<(u64, u64)>> = Sim::new(9);
    let mut oracle = Oracle::default();
    let (mut sim_log, mut oracle_log) = (Vec::new(), Vec::new());
    for tag in 0..1000u64 {
        let at = (tag % 4) * 1_000;
        sim.schedule_at(
            SimTime::from_nanos(at),
            move |log: &mut Vec<(u64, u64)>, s| {
                log.push((s.now().as_nanos(), tag));
            },
        );
        oracle.schedule(at, tag);
    }
    sim.run(&mut sim_log);
    oracle.run_until(u64::MAX, &mut oracle_log);
    assert_eq!(sim_log, oracle_log);
}

#[test]
fn overflow_promotion_preserves_order_across_horizon_batches() {
    // Schedule far-future events first (all overflow), then near ones;
    // interleave instants around multiples of the horizon so promotion
    // happens in several batches.
    const HORIZON: u64 = 68_719_476_736;
    let mut sim: Sim<Vec<(u64, u64)>> = Sim::new(11);
    let mut oracle = Oracle::default();
    let (mut sim_log, mut oracle_log) = (Vec::new(), Vec::new());
    let mut tag = 0u64;
    for mult in [5u64, 2, 7, 1, 3, 2, 5] {
        for off in [0u64, 1, 63, 64, 4_095] {
            let at = mult * HORIZON + off;
            let t = tag;
            tag += 1;
            sim.schedule_at(
                SimTime::from_nanos(at),
                move |log: &mut Vec<(u64, u64)>, s| {
                    log.push((s.now().as_nanos(), t));
                },
            );
            oracle.schedule(at, t);
        }
    }
    sim.run(&mut sim_log);
    oracle.run_until(u64::MAX, &mut oracle_log);
    assert_eq!(sim_log, oracle_log);
}
