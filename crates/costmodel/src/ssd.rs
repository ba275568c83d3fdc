//! SSD-tier extension of the §4 model.
//!
//! The paper's related work (§7, discussing Kangaroo) notes that this work
//! targets DRAM caches and that "SSD caches may further improve cost".
//! This module extends the analytical model with a second, flash-backed
//! cache tier at the application:
//!
//! ```text
//! T(s_A, s_F, s_D) = QPS · [ (MR(s_A) − MR(s_A+s_F)) · c_F      (flash hits)
//!                          +  MR(s_A+s_F) · c_A                  (full misses)
//!                          +  MR(s_A+s_F+s_D) · c_D ]            (disk path)
//!                  + c_M·s_A·N_r + c_F$·s_F·N_r + c_M·s_D
//! ```
//!
//! where `c_F` is the CPU cost of serving from flash (NVMe read + checksum;
//! far below the network path `c_A` but above DRAM's ~0) and `c_F$` the
//! $/GB-month of SSD (the paper's §3 storage price band). The headline
//! result, asserted by tests and printed by the `fig2_theory` bench's SSD
//! table: because SSD is ~25× cheaper per GB than DRAM while a flash hit
//! still avoids the whole network+SQL path, a DRAM+SSD hybrid strictly
//! dominates DRAM-only for large, moderately-skewed working sets.

use crate::theory::TheoryModel;
use serde::{Deserialize, Serialize};

/// Flash-tier parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SsdTier {
    /// $/GB-month for flash (GCP local SSD ≈ $0.08).
    pub ssd_gb_month: f64,
    /// Core-seconds of CPU per flash hit (NVMe syscall + checksum + copy).
    pub c_f_core_secs: f64,
}

impl Default for SsdTier {
    fn default() -> Self {
        SsdTier {
            ssd_gb_month: 0.08,
            c_f_core_secs: 25e-6,
        }
    }
}

/// A DRAM+SSD allocation and its cost.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct HybridAllocation {
    pub dram_gb: f64,
    pub ssd_gb: f64,
    pub monthly_cost: f64,
}

/// Evaluate the hybrid model on top of an existing [`TheoryModel`].
pub struct HybridModel<'a> {
    pub base: &'a TheoryModel,
    pub ssd: SsdTier,
}

impl<'a> HybridModel<'a> {
    pub fn new(base: &'a TheoryModel, ssd: SsdTier) -> Self {
        HybridModel { base, ssd }
    }

    /// Monthly cost with `s_a` GB of DRAM cache, `s_f` GB of flash cache,
    /// and `s_d` GB of storage-layer cache.
    pub fn total_cost(&self, s_a: f64, s_f: f64, s_d: f64) -> f64 {
        let p = &self.base.params;
        let mr_a = self.base.miss_ratio(s_a);
        let mr_af = self.base.miss_ratio(s_a + s_f);
        let mr_afd = self.base.miss_ratio(s_a + s_f + s_d);
        let flash_hits = (mr_a - mr_af).max(0.0);
        let cores = p.qps
            * (flash_hits * self.ssd.c_f_core_secs
                + mr_af * p.c_a_core_secs
                + mr_afd * p.c_d_core_secs);
        cores * p.pricing.cpu_core_month
            + s_a * p.replicas * p.pricing.mem_gb_month
            + s_f * p.replicas * self.ssd.ssd_gb_month
            + s_d * p.pricing.mem_gb_month
    }

    /// Grid-search the best (DRAM, SSD) split for a fixed `s_d`.
    pub fn optimize(&self, s_d: f64, max_dram_gb: f64, max_ssd_gb: f64) -> HybridAllocation {
        let mut best = HybridAllocation {
            dram_gb: 0.0,
            ssd_gb: 0.0,
            monthly_cost: self.total_cost(0.0, 0.0, s_d),
        };
        let mut dram = 0.01f64;
        while dram <= max_dram_gb {
            let mut ssd = 0.0f64;
            loop {
                let cost = self.total_cost(dram, ssd, s_d);
                if cost < best.monthly_cost {
                    best = HybridAllocation {
                        dram_gb: dram,
                        ssd_gb: ssd,
                        monthly_cost: cost,
                    };
                }
                if ssd >= max_ssd_gb {
                    break;
                }
                ssd = (ssd.max(0.01) * 1.35).min(max_ssd_gb);
            }
            dram *= 1.35;
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::theory::{TheoryModel, TheoryParams};

    fn base_model() -> TheoryModel {
        TheoryModel::new(TheoryParams {
            keys: 1_000_000,
            alpha: 1.0, // moderate skew: the regime where SSD shines
            mean_entry_bytes: 230_000.0,
            qps: 40_000.0,
            ..TheoryParams::default()
        })
    }

    #[test]
    fn flash_tier_reduces_to_base_model_when_empty() {
        let base = base_model();
        let hybrid = HybridModel::new(&base, SsdTier::default());
        for (s_a, s_d) in [(0.5, 1.0), (4.0, 1.0), (16.0, 0.0)] {
            let diff = (hybrid.total_cost(s_a, 0.0, s_d) - base.total_cost(s_a, s_d)).abs();
            assert!(diff < 1e-9, "s_f=0 must equal the DRAM-only model: {diff}");
        }
    }

    #[test]
    fn adding_flash_below_dram_price_saves() {
        let base = base_model();
        let hybrid = HybridModel::new(&base, SsdTier::default());
        let dram_only = hybrid.total_cost(8.0, 0.0, 1.0);
        let with_flash = hybrid.total_cost(8.0, 64.0, 1.0);
        assert!(
            with_flash < dram_only,
            "64 GB of $0.08 flash must pay for itself: {with_flash} vs {dram_only}"
        );
    }

    #[test]
    fn optimal_hybrid_beats_optimal_dram_only() {
        let base = base_model();
        let hybrid = HybridModel::new(&base, SsdTier::default());
        let dram_only_best = base.optimal_s_a(1.0, 128.0);
        let dram_only_cost = base.total_cost(dram_only_best, 1.0);
        let alloc = hybrid.optimize(1.0, 128.0, 512.0);
        assert!(
            alloc.monthly_cost < dram_only_cost,
            "hybrid {:?} must beat DRAM-only ${dram_only_cost:.0}",
            alloc
        );
        assert!(alloc.ssd_gb > 0.0, "the optimum must actually use flash");
    }

    #[test]
    fn expensive_flash_is_not_used() {
        let base = base_model();
        let pricey = SsdTier {
            ssd_gb_month: 10.0, // costlier than DRAM
            ..SsdTier::default()
        };
        let hybrid = HybridModel::new(&base, pricey);
        let alloc = hybrid.optimize(1.0, 64.0, 256.0);
        assert!(
            alloc.ssd_gb < 0.1,
            "flash priced above DRAM must not be allocated: {alloc:?}"
        );
    }

    #[test]
    fn flash_is_monotone_improvement_at_fixed_dram() {
        let base = base_model();
        let hybrid = HybridModel::new(&base, SsdTier::default());
        // At fixed DRAM, growing the (cheap) flash tier never hurts until
        // the working set is covered.
        let costs: Vec<f64> = [0.0, 8.0, 32.0, 128.0]
            .iter()
            .map(|&s_f| hybrid.total_cost(2.0, s_f, 1.0))
            .collect();
        for w in costs.windows(2) {
            assert!(
                w[1] <= w[0] + 1e-9,
                "flash growth must not raise cost: {costs:?}"
            );
        }
        // And it always costs less than no cache at all.
        assert!(costs[3] < hybrid.total_cost(0.0, 0.0, 1.0));
    }
}
