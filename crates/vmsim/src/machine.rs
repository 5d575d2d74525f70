//! A multi-core machine model with TLB shootdowns (paper §3.3).
//!
//! TLBs have no hardware coherency. When one core remaps a page
//! (`mmap(MAP_FIXED)` over an existing mapping), the OS must invalidate the
//! stale translation in every other core's TLB by sending inter-processor
//! interrupts (IPIs). The model charges:
//!
//! * the `mmap` syscall plus **one IPI send per remote core that may hold
//!   the translation** to the *shooting* core — this is why, as Figure 5
//!   shows, shootdowns "do not affect the threads being targeted, but
//!   actually slow down the shooting thread";
//! * a small IPI-handling cost to each targeted core, whose only lasting
//!   penalty is a TLB entry loss (it re-walks on next access).

use crate::addr::VirtAddr;
use crate::address_space::{AddressSpace, FileId, MemError};
use crate::cache::CacheConfig;
use crate::cost::CostModel;
use crate::mmu::{AccessOutcome, Mmu};
use crate::stats::SimStats;
use crate::tlb::TlbHierarchyConfig;

/// Index of a simulated core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CoreId(pub usize);

/// Machine geometry and cost parameters.
#[derive(Debug, Clone, Copy)]
pub struct MachineConfig {
    /// Number of cores (each with a private TLB hierarchy and cache).
    pub cores: usize,
    /// Per-core TLB geometry.
    pub tlb: TlbHierarchyConfig,
    /// Per-core cache geometry.
    pub cache: CacheConfig,
    /// Cost model shared by all cores.
    pub cost: CostModel,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            cores: 8,
            tlb: TlbHierarchyConfig::default(),
            cache: CacheConfig::llc_default(),
            cost: CostModel::default(),
        }
    }
}

/// A shared address space executed on `n` cores.
pub struct Machine {
    /// The single shared address space (one process, many threads).
    pub aspace: AddressSpace,
    cores: Vec<Mmu>,
    cost: CostModel,
    /// IPIs sent per core (indexed by shooter).
    ipis_sent: Vec<u64>,
}

impl Machine {
    /// Build a machine.
    pub fn new(cfg: MachineConfig) -> Self {
        assert!(cfg.cores > 0);
        Machine {
            aspace: AddressSpace::new(),
            cores: (0..cfg.cores)
                .map(|_| Mmu::new(cfg.tlb, cfg.cache, cfg.cost))
                .collect(),
            cost: cfg.cost,
            ipis_sent: vec![0; cfg.cores],
        }
    }

    /// Data access from `core`.
    pub fn access(&mut self, core: CoreId, addr: VirtAddr) -> Result<AccessOutcome, MemError> {
        self.cores[core.0].access(&mut self.aspace, addr)
    }

    /// Remap `[addr, addr+pages)` to `file` at `file_page` from `core`,
    /// running the TLB-shootdown protocol. Returns the simulated cost in
    /// nanoseconds charged to the shooting core.
    pub fn remap_from_core(
        &mut self,
        core: CoreId,
        addr: VirtAddr,
        pages: usize,
        file: FileId,
        file_page: usize,
        populate: bool,
    ) -> Result<f64, MemError> {
        let changed = self
            .aspace
            .mmap_file_fixed(addr, pages, file, file_page, populate)?;

        let mut ns = self.cost.mmap_ns;
        if populate {
            // Eager PTE installation costs roughly a fault per page, paid
            // inside the syscall instead of at access time.
            ns += self.cost.soft_fault_ns * 0.5 * pages as f64;
        }

        // Local invalidation is cheap (INVLPG, no IPI).
        for vpn in &changed {
            self.cores[core.0].tlb.invalidate(*vpn);
        }

        // Remote shootdown: one IPI per remote core holding any of the
        // changed translations.
        let shooter = core.0;
        for (i, remote) in self.cores.iter_mut().enumerate() {
            if i == shooter {
                continue;
            }
            let holds_any = changed.iter().any(|vpn| remote.tlb.contains(*vpn));
            if holds_any {
                ns += self.cost.ipi_send_ns;
                self.ipis_sent[shooter] += 1;
                let mut remote_ns = self.cost.ipi_receive_ns;
                for vpn in &changed {
                    if remote.tlb.invalidate(*vpn) {
                        remote.stats.remote_invalidations += 1;
                    }
                }
                remote.stats.total_ns += remote_ns;
                remote_ns = 0.0;
                let _ = remote_ns;
            }
        }

        let st = &mut self.cores[shooter].stats;
        st.mmap_calls += 1;
        st.ipis_sent = self.ipis_sent[shooter];
        st.total_ns += ns;
        Ok(ns)
    }

    /// Per-core statistics.
    pub fn core_stats(&self, core: CoreId) -> &SimStats {
        &self.cores[core.0].stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_machine(cores: usize) -> (Machine, VirtAddr, FileId) {
        let mut m = Machine::new(MachineConfig {
            cores,
            ..MachineConfig::default()
        });
        let file = m.aspace.create_file();
        m.aspace.resize_file(file, 64).unwrap();
        let addr = m.aspace.mmap_anon(32);
        m.aspace.mmap_file_fixed(addr, 32, file, 0, true).unwrap();
        (m, addr, file)
    }

    #[test]
    fn remap_invalidates_remote_tlbs() {
        let (mut m, addr, file) = small_machine(2);
        // Core 1 caches the translation of page 0.
        m.access(CoreId(1), addr).unwrap();
        assert!(m.cores[1].tlb.contains(addr.vpn()));
        // Core 0 remaps page 0 to a different file page.
        m.remap_from_core(CoreId(0), addr, 1, file, 40, true)
            .unwrap();
        assert!(!m.cores[1].tlb.contains(addr.vpn()));
        assert_eq!(m.cores[1].stats.remote_invalidations, 1);
        assert_eq!(m.core_stats(CoreId(0)).ipis_sent, 1);
    }

    #[test]
    fn shootdown_cost_scales_with_holders() {
        // More cores holding the translation => the *shooter* pays more.
        let cost_with_holders = {
            let (mut m, addr, file) = small_machine(8);
            for c in 1..8 {
                m.access(CoreId(c), addr).unwrap();
            }
            m.remap_from_core(CoreId(0), addr, 1, file, 40, true)
                .unwrap()
        };
        let cost_alone = {
            let (mut m, addr, file) = small_machine(8);
            m.remap_from_core(CoreId(0), addr, 1, file, 40, true)
                .unwrap()
        };
        assert!(
            cost_with_holders > cost_alone,
            "shooter with 7 holders ({cost_with_holders}) must pay more than alone ({cost_alone})"
        );
    }

    #[test]
    fn readers_are_barely_affected() {
        // Figure 5's observation: reading cost is independent of the
        // shootdowns; readers only re-walk once per shot page.
        let (mut m, addr, file) = small_machine(2);
        // Reader warms up page 0.
        m.access(CoreId(1), addr).unwrap();
        let before = m.core_stats(CoreId(1)).total_ns;
        m.remap_from_core(CoreId(0), addr, 1, file, 40, true)
            .unwrap();
        let reader_penalty = m.core_stats(CoreId(1)).total_ns - before;
        // The reader's penalty is a fraction of the shooter's mmap cost.
        assert!(reader_penalty < CostModel::default().mmap_ns / 2.0);
    }

    #[test]
    fn no_ipi_when_nobody_holds_entry() {
        let (mut m, addr, file) = small_machine(4);
        let ns = m
            .remap_from_core(CoreId(0), addr, 1, file, 40, false)
            .unwrap();
        assert_eq!(m.core_stats(CoreId(0)).ipis_sent, 0);
        assert!((ns - CostModel::default().mmap_ns).abs() < 1e-9);
    }

    #[test]
    fn remap_redirects_translation() {
        let (mut m, addr, file) = small_machine(1);
        let pfn_before = m.aspace.translate(addr.vpn()).unwrap();
        m.remap_from_core(CoreId(0), addr, 1, file, 33, true)
            .unwrap();
        let pfn_after = m.aspace.translate(addr.vpn()).unwrap();
        assert_ne!(pfn_before, pfn_after);
    }
}
