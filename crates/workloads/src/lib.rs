//! # workloads — trace generators for the cost study
//!
//! The paper evaluates on three workload families (§5.2); this crate
//! synthesizes all of them, deterministically from a seed:
//!
//! * [`kv`] — the synthetic workload: 100K keys, Zipf(α=1.2) popularity,
//!   read ratio swept 50–99%, value size swept 1 KB–1 MB.
//! * [`meta`] — a synthesizer matching the published statistics of the Meta
//!   / CacheLib traces: ≈30% writes, ≈10-byte median values with a heavy
//!   tail.
//! * [`twitter`] — Twitter-cluster-like parameters (230 B median, mixed
//!   read/write), used by ablations.
//! * [`sessions`] — the §2.3 session-state service: lifecycle-heavy,
//!   read-your-writes-critical traffic where staleness is a correctness
//!   bug (the consistent-cache motivation).
//! * [`unity`] — the Unity Catalog model: a hierarchical namespace
//!   (metastore → catalog → schema → table) with principals, privileges,
//!   constraints, columns and lineage; `getTable` expands to 8 SQL
//!   statements exactly as §5.2 describes, and the trace reproduces the
//!   Figure 3 distributions (≈23 KB median values, Zipfian table
//!   popularity, ≈93% reads).
//!
//! [`diurnal`] modulates any of them over simulated time (day/night
//! sinusoid plus explicit phase shifts) for the elastic-provisioning study,
//! [`tenants`] composes weighted multi-tenant KV mixes with working-set
//! churn and invalidation-storm schedules for the TTL control plane,
//! [`zipf`] provides the O(1) scrambled-Zipfian sampler underneath,
//! [`sizes`] the per-key deterministic value-size model, and [`trace`]
//! capture/replay so real production traces can drive the experiments.

pub mod diurnal;
pub mod kv;
pub mod meta;
pub mod sessions;
pub mod sizes;
pub mod tenants;
pub mod trace;
pub mod twitter;
pub mod unity;
pub mod zipf;

pub use diurnal::DiurnalSchedule;
pub use kv::{KvOp, KvRequest, KvWorkload, KvWorkloadConfig};
pub use sessions::{SessionOp, SessionWorkload, SessionWorkloadConfig};
pub use sizes::SizeDist;
pub use tenants::{ChurnSchedule, StormSchedule, TenantMix, TenantPicker, TenantSpec};
pub use trace::{TraceRecord, TraceStats};
pub use zipf::ZipfSampler;
