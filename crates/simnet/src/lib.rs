//! # simnet — deterministic discrete-event simulation kernel
//!
//! `simnet` is the substrate every experiment in this repository runs on. It
//! provides:
//!
//! * a virtual clock and event queue ([`Sim`]) with deterministic,
//!   seed-reproducible execution,
//! * per-node CPU meters ([`cpu::CpuMeter`]) that attribute busy time to
//!   semantic categories (serialization, SQL front-end work, replication, …),
//!   which is exactly the quantity the paper's cost model consumes,
//! * a network model ([`net::Network`]) with per-hop latency, per-byte wire
//!   cost, and fault injection (drops, extra delay, partitions, node
//!   crashes) used by the delayed-writes scenario of the paper's Figure 8,
//! * a time-scheduled fault engine ([`fault::FaultSchedule`]) that scripts
//!   crash/restart, partition and latency-spike windows deterministically,
//! * lightweight metrics ([`metrics`]) — counters and log-bucketed histograms.
//!
//! The kernel is generic over a user-supplied world type `W`; events are
//! boxed `FnOnce(&mut W, &mut Sim<W>)` closures. Nothing in the kernel uses
//! wall-clock time or ambient randomness: two runs with the same seed and the
//! same event insertion order produce byte-identical traces.
//!
//! ```
//! use simnet::{Sim, SimDuration};
//!
//! struct World { ticks: u32 }
//! let mut sim = Sim::new(42);
//! let mut world = World { ticks: 0 };
//! sim.schedule_in(SimDuration::from_millis(5), |w: &mut World, sim| {
//!     w.ticks += 1;
//!     assert_eq!(sim.now().as_millis(), 5);
//! });
//! sim.run(&mut world);
//! assert_eq!(world.ticks, 1);
//! ```

pub mod cpu;
pub mod engine;
pub mod fault;
pub mod metrics;
pub mod net;
pub mod node;
pub mod prof;
pub mod queueing;
pub mod time;

pub use cpu::{CpuCategory, CpuMeter};
pub use engine::{EventId, Sim};
pub use fault::{FaultDriver, FaultEvent, FaultKind, FaultSchedule};
pub use metrics::{Counter, Histogram, MetricSet};
pub use net::{Delivery, FaultPlan, LinkClass, Network};
pub use node::{Node, NodeId, NodeKind, NodeRegistry};
pub use queueing::{cores_for_wait_target, erlang_c, mmc_wait_time};
pub use time::{SimDuration, SimTime};
