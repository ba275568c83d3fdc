//! Cloud unit pricing and cost aggregation.
//!
//! The paper's §3 reference prices on GCP: a vCPU core ≈ $17/month, a GB of
//! DRAM ≈ $2/month, and persistent disk ≈ $2 per 100 GB per month. The cost
//! of a deployment is simply `Σ cores·P_cpu + Σ GB·P_mem + Σ diskGB·P_disk`
//! over its billed tiers — the paper bills steady-state usage, arguing that
//! autoscaling and custom VM shapes make cores/GB fungible (§5.1).

use serde::{Deserialize, Serialize};
use std::iter::Sum;
use std::ops::Add;

/// Unit prices in dollars per month.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Pricing {
    pub cpu_core_month: f64,
    pub mem_gb_month: f64,
    pub disk_gb_month: f64,
    /// Local NVMe/SSD $/GB·month — between DRAM and cold persistent disk;
    /// bills the storage tier's WAL + snapshot residency. Matches
    /// [`crate::ssd::SsdTier::default`].
    pub ssd_gb_month: f64,
}

impl Default for Pricing {
    /// The paper's §3 GCP reference prices.
    fn default() -> Self {
        Pricing {
            cpu_core_month: 17.0,
            mem_gb_month: 2.0,
            disk_gb_month: 0.02,
            ssd_gb_month: 0.08,
        }
    }
}

impl Pricing {
    /// Scale the memory price (the §4 sensitivity analysis runs DRAM up to
    /// 40× today's price and shows caches still win).
    pub fn with_memory_multiplier(mut self, multiplier: f64) -> Self {
        self.mem_gb_month *= multiplier;
        self
    }

    /// Monthly cost of one usage bundle.
    pub fn monthly(&self, usage: &ResourceUsage) -> CostBreakdown {
        CostBreakdown {
            compute: usage.cores * self.cpu_core_month,
            memory: usage.mem_gb * self.mem_gb_month,
            disk: usage.disk_gb * self.disk_gb_month,
            ssd: usage.ssd_gb * self.ssd_gb_month,
        }
    }
}

/// Steady-state resource usage of one tier (or a whole deployment).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ResourceUsage {
    pub cores: f64,
    pub mem_gb: f64,
    pub disk_gb: f64,
    /// Local SSD residency (WAL + snapshots); 0 everywhere durability is
    /// off, keeping legacy bundles and their totals untouched.
    pub ssd_gb: f64,
}

impl ResourceUsage {
    pub fn new(cores: f64, mem_gb: f64, disk_gb: f64) -> Self {
        ResourceUsage {
            cores,
            mem_gb,
            disk_gb,
            ssd_gb: 0.0,
        }
    }

    /// The same bundle with an SSD residency attached.
    pub fn with_ssd(mut self, ssd_gb: f64) -> Self {
        self.ssd_gb = ssd_gb;
        self
    }
}

impl Add for ResourceUsage {
    type Output = ResourceUsage;
    fn add(self, rhs: ResourceUsage) -> ResourceUsage {
        ResourceUsage {
            cores: self.cores + rhs.cores,
            mem_gb: self.mem_gb + rhs.mem_gb,
            disk_gb: self.disk_gb + rhs.disk_gb,
            ssd_gb: self.ssd_gb + rhs.ssd_gb,
        }
    }
}

impl Sum for ResourceUsage {
    fn sum<I: Iterator<Item = ResourceUsage>>(iter: I) -> Self {
        iter.fold(ResourceUsage::default(), |a, b| a + b)
    }
}

/// Monthly dollars, split by resource.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CostBreakdown {
    pub compute: f64,
    pub memory: f64,
    pub disk: f64,
    /// SSD-tier dollars (WAL + snapshot residency); 0 with durability off.
    pub ssd: f64,
}

impl CostBreakdown {
    pub fn total(&self) -> f64 {
        self.compute + self.memory + self.disk + self.ssd
    }

    /// Fraction of total cost that is memory — the paper reports 6–22% for
    /// Linked and 1–5% for Base (§5.3).
    pub fn memory_fraction(&self) -> f64 {
        let t = self.total();
        if t == 0.0 {
            0.0
        } else {
            self.memory / t
        }
    }
}

impl Add for CostBreakdown {
    type Output = CostBreakdown;
    fn add(self, rhs: CostBreakdown) -> CostBreakdown {
        CostBreakdown {
            compute: self.compute + rhs.compute,
            memory: self.memory + rhs.memory,
            disk: self.disk + rhs.disk,
            ssd: self.ssd + rhs.ssd,
        }
    }
}

impl Sum for CostBreakdown {
    fn sum<I: Iterator<Item = CostBreakdown>>(iter: I) -> Self {
        iter.fold(CostBreakdown::default(), |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_reference_prices() {
        let p = Pricing::default();
        // §3: 1 vCPU ≈ $17/mo, 1 GB ≈ $2/mo, storage $2 per 100 GB.
        let c = p.monthly(&ResourceUsage::new(1.0, 1.0, 100.0));
        assert!((c.compute - 17.0).abs() < 1e-9);
        assert!((c.memory - 2.0).abs() < 1e-9);
        assert!((c.disk - 2.0).abs() < 1e-9);
        assert!((c.total() - 21.0).abs() < 1e-9);
    }

    #[test]
    fn memory_multiplier_scales_only_memory() {
        let p = Pricing::default().with_memory_multiplier(40.0);
        let c = p.monthly(&ResourceUsage::new(1.0, 1.0, 0.0));
        assert!((c.memory - 80.0).abs() < 1e-9);
        assert!((c.compute - 17.0).abs() < 1e-9);
    }

    #[test]
    fn usage_and_costs_sum() {
        let tiers = vec![
            ResourceUsage::new(2.0, 8.0, 0.0),
            ResourceUsage::new(1.0, 16.0, 50.0),
        ];
        let total: ResourceUsage = tiers.into_iter().sum();
        assert_eq!(total, ResourceUsage::new(3.0, 24.0, 50.0));
        let p = Pricing::default();
        let c = p.monthly(&total);
        assert!((c.total() - (3.0 * 17.0 + 24.0 * 2.0 + 1.0)).abs() < 1e-9);
    }

    #[test]
    fn memory_fraction_bounds() {
        let c = CostBreakdown {
            compute: 90.0,
            memory: 10.0,
            disk: 0.0,
            ssd: 0.0,
        };
        assert!((c.memory_fraction() - 0.1).abs() < 1e-12);
        assert_eq!(CostBreakdown::default().memory_fraction(), 0.0);
    }

    #[test]
    fn ssd_residency_bills_between_dram_and_disk() {
        let p = Pricing::default();
        assert!(p.ssd_gb_month < p.mem_gb_month && p.ssd_gb_month > p.disk_gb_month);
        let c = p.monthly(&ResourceUsage::new(0.0, 0.0, 0.0).with_ssd(100.0));
        assert!((c.ssd - 8.0).abs() < 1e-9);
        assert!((c.total() - 8.0).abs() < 1e-9);
        // Zero-SSD bundles price exactly as before the tier existed.
        let legacy = p.monthly(&ResourceUsage::new(1.0, 2.0, 3.0));
        assert_eq!(legacy.ssd, 0.0);
        assert!((legacy.total() - (17.0 + 4.0 + 0.06)).abs() < 1e-9);
    }
}
