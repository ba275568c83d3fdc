//! Time-scheduled fault injection.
//!
//! [`crate::net::FaultPlan`] describes the network's *current* fault state:
//! which pairs are partitioned, the ambient drop probability, the congestion
//! delay. A [`FaultSchedule`] is the dynamic counterpart — an ordered script
//! of crash/restart, partition/heal, latency-spike and loss-window events
//! that a run replays against the network as virtual time advances. The
//! schedule itself contains no randomness; combined with the seeded kernel
//! RNG (which only probabilistic drops consume), the same seed and the same
//! schedule reproduce the exact same fault trace.
//!
//! Node-id conventions are owned by the embedding layer: the experiment
//! runner maps small ids to cache shards and offset ids to storage replicas.
//! This module only toggles liveness and link state on the [`Network`].

use crate::net::Network;
use crate::node::NodeId;
use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// One kind of fault transition.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Node stops: every message to or from it is dropped until `Restart`.
    Crash { node: NodeId },
    /// Node comes back (cold — whatever state it held is the owner's
    /// problem; the network merely resumes delivering to it).
    Restart { node: NodeId },
    /// Begin a bidirectional partition between `a` and `b`.
    PartitionStart { a: NodeId, b: NodeId },
    /// Heal the partition between `a` and `b`.
    PartitionHeal { a: NodeId, b: NodeId },
    /// Congestion window: every message pays `extra` on top of link latency.
    LatencySpikeStart { extra: SimDuration },
    /// End of the congestion window.
    LatencySpikeEnd,
    /// Random-loss window: messages drop with probability `prob` (evaluated
    /// against the seeded RNG handed to `Network::send`).
    DropWindowStart { prob: f64 },
    /// End of the random-loss window.
    DropWindowEnd,
}

/// A fault transition pinned to a point in virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    pub at: SimTime,
    pub kind: FaultKind,
}

impl FaultEvent {
    /// Apply this transition to the network's fault state.
    pub fn apply_to(&self, net: &mut Network) {
        match self.kind {
            FaultKind::Crash { node } => net.set_node_down(node, true),
            FaultKind::Restart { node } => net.set_node_down(node, false),
            FaultKind::PartitionStart { a, b } => net.faults.partition(a, b),
            FaultKind::PartitionHeal { a, b } => net.faults.heal(a, b),
            FaultKind::LatencySpikeStart { extra } => net.faults.extra_delay = extra,
            FaultKind::LatencySpikeEnd => net.faults.extra_delay = SimDuration::ZERO,
            FaultKind::DropWindowStart { prob } => net.faults.drop_prob = prob.clamp(0.0, 1.0),
            FaultKind::DropWindowEnd => net.faults.drop_prob = 0.0,
        }
    }
}

/// An ordered script of fault events. Builder methods append in any order;
/// [`FaultDriver`] replays them sorted by time (stable, so same-time events
/// fire in insertion order — deterministic by construction).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Append an arbitrary event.
    pub fn push(&mut self, at: SimTime, kind: FaultKind) -> &mut Self {
        self.events.push(FaultEvent { at, kind });
        self
    }

    /// Crash `node` at `at` (stays down until an explicit restart).
    pub fn crash(&mut self, at: SimTime, node: NodeId) -> &mut Self {
        self.push(at, FaultKind::Crash { node })
    }

    /// Restart `node` at `at`.
    pub fn restart(&mut self, at: SimTime, node: NodeId) -> &mut Self {
        self.push(at, FaultKind::Restart { node })
    }

    /// Crash `node` at `at` and restart it `downtime` later.
    pub fn crash_for(&mut self, at: SimTime, node: NodeId, downtime: SimDuration) -> &mut Self {
        self.crash(at, node);
        self.restart(at + downtime, node)
    }

    /// Crash `node` every `period` starting at `first_at`, each outage
    /// lasting `downtime`, until (exclusive) `until`. `downtime` should be
    /// shorter than `period` or the outages will overlap.
    pub fn periodic_crashes(
        &mut self,
        node: NodeId,
        first_at: SimTime,
        period: SimDuration,
        downtime: SimDuration,
        until: SimTime,
    ) -> &mut Self {
        let mut at = first_at;
        while at < until {
            self.crash_for(at, node, downtime);
            at += period;
        }
        self
    }

    /// Partition `a`↔`b` during `[from, until)`.
    pub fn partition_window(
        &mut self,
        from: SimTime,
        until: SimTime,
        a: NodeId,
        b: NodeId,
    ) -> &mut Self {
        self.push(from, FaultKind::PartitionStart { a, b });
        self.push(until, FaultKind::PartitionHeal { a, b })
    }

    /// Add `extra` latency to every message during `[from, until)`.
    pub fn latency_spike(
        &mut self,
        from: SimTime,
        until: SimTime,
        extra: SimDuration,
    ) -> &mut Self {
        self.push(from, FaultKind::LatencySpikeStart { extra });
        self.push(until, FaultKind::LatencySpikeEnd)
    }

    /// Drop messages with probability `prob` during `[from, until)`.
    pub fn drop_window(&mut self, from: SimTime, until: SimTime, prob: f64) -> &mut Self {
        self.push(from, FaultKind::DropWindowStart { prob });
        self.push(until, FaultKind::DropWindowEnd)
    }

    /// Events sorted by time, stable in insertion order for ties.
    pub fn sorted(&self) -> Vec<FaultEvent> {
        let mut evs = self.events.clone();
        evs.sort_by_key(|e| e.at);
        evs
    }
}

/// Replays a [`FaultSchedule`] as time advances: call [`FaultDriver::due`]
/// with the current virtual time and apply whatever it hands back.
#[derive(Debug, Clone)]
pub struct FaultDriver {
    events: Vec<FaultEvent>,
    next: usize,
}

impl FaultDriver {
    pub fn new(schedule: &FaultSchedule) -> Self {
        FaultDriver {
            events: schedule.sorted(),
            next: 0,
        }
    }

    /// Time of the next unfired event, if any.
    pub fn peek_next_at(&self) -> Option<SimTime> {
        self.events.get(self.next).map(|e| e.at)
    }

    /// Number of events not yet fired.
    pub fn pending(&self) -> usize {
        self.events.len() - self.next
    }

    /// All events due at or before `now`, in order. Each event is returned
    /// exactly once across the driver's lifetime.
    pub fn due(&mut self, now: SimTime) -> &[FaultEvent] {
        let start = self.next;
        while self.next < self.events.len() && self.events[self.next].at <= now {
            self.next += 1;
        }
        &self.events[start..self.next]
    }

    /// Convenience: pop due events and apply them straight to `net`.
    /// Returns how many fired.
    pub fn apply_due(&mut self, net: &mut Network, now: SimTime) -> usize {
        let start = self.next;
        while self.next < self.events.len() && self.events[self.next].at <= now {
            self.events[self.next].apply_to(net);
            self.next += 1;
        }
        self.next - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::Delivery;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn schedule_sorts_stably_by_time() {
        let mut s = FaultSchedule::new();
        s.restart(t(20), NodeId(1));
        s.crash(t(10), NodeId(1));
        s.crash(t(10), NodeId(2)); // same time, later insertion
        let evs = s.sorted();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].kind, FaultKind::Crash { node: NodeId(1) });
        assert_eq!(evs[1].kind, FaultKind::Crash { node: NodeId(2) });
        assert_eq!(evs[2].kind, FaultKind::Restart { node: NodeId(1) });
    }

    #[test]
    fn crash_for_emits_paired_events() {
        let mut s = FaultSchedule::new();
        s.crash_for(t(5), NodeId(7), SimDuration::from_millis(3));
        let evs = s.sorted();
        assert_eq!(evs[0].at, t(5));
        assert_eq!(evs[1].at, t(8));
        assert_eq!(evs[1].kind, FaultKind::Restart { node: NodeId(7) });
    }

    #[test]
    fn periodic_crashes_cover_the_window() {
        let mut s = FaultSchedule::new();
        s.periodic_crashes(
            NodeId(0),
            t(10),
            SimDuration::from_millis(100),
            SimDuration::from_millis(20),
            t(310),
        );
        // Crashes at 10, 110, 210 (310 is exclusive) → 3 crash+restart pairs.
        assert_eq!(s.len(), 6);
        let crashes: Vec<_> = s
            .events()
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::Crash { .. }))
            .map(|e| e.at)
            .collect();
        assert_eq!(crashes, vec![t(10), t(110), t(210)]);
    }

    #[test]
    fn driver_fires_each_event_exactly_once() {
        let mut s = FaultSchedule::new();
        s.crash_for(t(10), NodeId(1), SimDuration::from_millis(10));
        let mut d = FaultDriver::new(&s);
        assert_eq!(d.pending(), 2);
        assert_eq!(d.due(t(5)).len(), 0);
        assert_eq!(d.due(t(10)).len(), 1);
        assert_eq!(d.due(t(10)).len(), 0, "no refire at the same instant");
        assert_eq!(d.due(t(50)).len(), 1);
        assert_eq!(d.pending(), 0);
        assert_eq!(d.peek_next_at(), None);
    }

    #[test]
    fn crash_window_drops_traffic_then_heals() {
        let mut s = FaultSchedule::new();
        s.crash_for(t(10), NodeId(1), SimDuration::from_millis(10));
        let mut d = FaultDriver::new(&s);
        let mut net = Network::new();
        let mut rng = StdRng::seed_from_u64(1);

        d.apply_due(&mut net, t(9));
        assert!(matches!(
            net.send(&mut rng, NodeId(0), NodeId(1), 8),
            Delivery::After(_)
        ));

        d.apply_due(&mut net, t(10));
        assert_eq!(
            net.send(&mut rng, NodeId(0), NodeId(1), 8),
            Delivery::Dropped
        );
        assert_eq!(
            net.send(&mut rng, NodeId(1), NodeId(0), 8),
            Delivery::Dropped
        );

        d.apply_due(&mut net, t(20));
        assert!(matches!(
            net.send(&mut rng, NodeId(0), NodeId(1), 8),
            Delivery::After(_)
        ));
        assert_eq!(net.dropped, 2);
        assert_eq!(net.delivered, 2);
    }

    #[test]
    fn latency_spike_and_drop_windows_toggle_fault_plan() {
        let mut s = FaultSchedule::new();
        s.latency_spike(t(0), t(10), SimDuration::from_millis(5));
        s.drop_window(t(0), t(10), 0.25);
        let mut d = FaultDriver::new(&s);
        let mut net = Network::new();
        d.apply_due(&mut net, t(0));
        assert_eq!(net.faults.extra_delay, SimDuration::from_millis(5));
        assert!((net.faults.drop_prob - 0.25).abs() < 1e-12);
        d.apply_due(&mut net, t(10));
        assert_eq!(net.faults.extra_delay, SimDuration::ZERO);
        assert_eq!(net.faults.drop_prob, 0.0);
    }

    #[test]
    fn partition_window_heals_on_schedule() {
        let mut s = FaultSchedule::new();
        s.partition_window(t(1), t(2), NodeId(3), NodeId(4));
        let mut d = FaultDriver::new(&s);
        let mut net = Network::new();
        d.apply_due(&mut net, t(1));
        assert!(net.faults.is_partitioned(NodeId(3), NodeId(4)));
        assert!(net.faults.is_partitioned(NodeId(4), NodeId(3)));
        d.apply_due(&mut net, t(2));
        assert!(!net.faults.is_partitioned(NodeId(3), NodeId(4)));
    }
}
