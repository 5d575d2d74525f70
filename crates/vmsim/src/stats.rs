//! Aggregated simulation statistics.

/// Counters accumulated by an [`crate::Mmu`] / [`crate::Machine`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimStats {
    /// Accesses satisfied by the L1 TLB.
    pub tlb_l1_hits: u64,
    /// Accesses satisfied by the L2 TLB.
    pub tlb_l2_hits: u64,
    /// Accesses that required a page walk.
    pub tlb_misses: u64,
    /// Individual page-table entry touches performed by walks.
    pub walk_touches: u64,
    /// Walk touches that missed the cache model (went to DRAM).
    pub walk_dram_touches: u64,
    /// Data touches that missed the cache model.
    pub data_dram_touches: u64,
    /// Soft page faults taken (lazy PTE population).
    pub soft_faults: u64,
    /// mmap syscalls issued.
    pub mmap_calls: u64,
    /// IPIs sent for TLB shootdowns.
    pub ipis_sent: u64,
    /// Shootdown invalidations applied on remote TLBs.
    pub remote_invalidations: u64,
    /// Total simulated time in nanoseconds.
    pub total_ns: f64,
}

impl SimStats {
    /// Sum of all TLB lookups.
    pub fn total_accesses(&self) -> u64 {
        self.tlb_l1_hits + self.tlb_l2_hits + self.tlb_misses
    }

    /// Fraction of accesses that required a page walk.
    pub fn tlb_miss_rate(&self) -> f64 {
        let total = self.total_accesses();
        if total == 0 {
            0.0
        } else {
            self.tlb_misses as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_rate_computation() {
        let s = SimStats {
            tlb_l1_hits: 6,
            tlb_l2_hits: 2,
            tlb_misses: 2,
            ..SimStats::default()
        };
        assert_eq!(s.total_accesses(), 10);
        assert!((s.tlb_miss_rate() - 0.2).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_miss_rate_is_zero() {
        assert_eq!(SimStats::default().tlb_miss_rate(), 0.0);
    }
}
