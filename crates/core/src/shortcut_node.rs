//! The shortcut inner node (paper Figure 1b).
//!
//! A `k`-slot virtual memory area where page `i` *is* slot `i`: rather than
//! storing a pointer, slot `i` is rewired so that its virtual window maps
//! to the physical slot of the referenced leaf. "Following" the slot is
//! then pure address arithmetic (`base + (i << 12)`); the actual indirection is
//! resolved by the MMU when the leaf is read — one hardware-accelerated
//! page-table lookup, cached by the TLB.

use shortcut_rewire::{Mapping, PageIdx, PoolHandle, Result, VirtArea, ZapCall, PAGE_SIZE_4K};

/// A `k`-slot inner node expressed purely in the page table.
pub struct ShortcutNode {
    area: VirtArea,
}

impl ShortcutNode {
    /// Reserve a shortcut node with `k` slots (one virtual page each).
    /// Rewirings populate the page table lazily (a PTE appears at first
    /// access, via a soft fault).
    pub fn new(k: usize) -> Result<Self> {
        Ok(ShortcutNode {
            area: VirtArea::reserve(k)?,
        })
    }

    /// Reserve with **eager** page-table population on every rewiring
    /// (`MAP_POPULATE`), the paper's recommended mode for hiding fault cost.
    pub fn new_populated(k: usize) -> Result<Self> {
        Ok(ShortcutNode {
            area: VirtArea::reserve_populated(k)?,
        })
    }

    /// [`ShortcutNode::new_populated`] or [`ShortcutNode::new`]: a stub
    /// whose `pool` argument is unused, kept only because the benchmark
    /// calls it; the change to the benchmark that drops those calls drops
    /// this too.
    pub fn for_pool(k: usize, _pool: &PoolHandle, populated: bool) -> Result<Self> {
        if populated {
            Self::new_populated(k)
        } else {
            Self::new(k)
        }
    }

    /// Attach `pool`'s [`shortcut_rewire::VmaBudget`] without charging
    /// now: the caller built the node under a
    /// [`shortcut_rewire::BudgetReservation`] and has settled it down to
    /// this node's exact estimate
    /// ([`shortcut_rewire::BudgetReservation::settle`]), so the directory
    /// is never double-counted while it is being rewired. Future remapping
    /// deltas and the release on drop are tracked as usual.
    pub fn charge_to_prepaid(&mut self, pool: &PoolHandle) {
        self.area.attach_budget_prepaid(pool.binding());
    }

    /// Surrender the node's virtual area (for retirement into a
    /// [`shortcut_rewire::RetireList`]).
    pub fn into_area(self) -> VirtArea {
        self.area
    }

    /// Estimated VMAs the node currently occupies.
    pub fn vma_estimate(&self) -> usize {
        self.area.vma_estimate()
    }

    /// Number of slots.
    #[inline]
    pub fn slots(&self) -> usize {
        self.area.pages()
    }

    /// Set slot `i` to reference the leaf stored in pool page `ppage`
    /// (one rewiring `mmap`).
    pub fn set_slot(&mut self, i: usize, pool: &PoolHandle, ppage: PageIdx) -> Result<()> {
        self.area.rewire(i, pool, ppage)
    }

    /// Set `n` consecutive slots to `n` consecutive pool pages with a
    /// single `mmap` (the coalescing optimization).
    pub fn set_run(&mut self, i: usize, pool: &PoolHandle, ppage: PageIdx, n: usize) -> Result<()> {
        self.area.rewire_run(i, pool, ppage, n)
    }

    /// Apply a sorted batch of `(slot, pool page)` assignments, coalescing
    /// contiguous runs. Returns the number of `mmap` calls used.
    pub fn set_batch(
        &mut self,
        pool: &PoolHandle,
        assignments: &[(usize, PageIdx)],
    ) -> Result<u64> {
        self.area.rewire_batch(pool, assignments)
    }

    /// Drop the page-table entries of the slots `assignments` is about to
    /// set ([`VirtArea::zap`]): the slots zapped, `None` once `call` fails.
    pub fn zap(&self, call: ZapCall, assignments: &[(usize, PageIdx)]) -> Option<usize> {
        self.area.zap(call, assignments)
    }

    /// Clear slot `i` back to the anonymous (null-like) state.
    pub fn clear_slot(&mut self, i: usize) -> Result<()> {
        self.area.reset(i)
    }

    /// Address of slot `i`'s leaf — **pure arithmetic, no memory access**.
    /// Dereferencing the returned pointer is where the single implicit
    /// indirection happens.
    #[inline]
    pub fn slot_ptr(&self, i: usize) -> *mut u8 {
        self.area.page_ptr(i)
    }

    /// Base address of the node's virtual area.
    #[inline]
    pub fn base(&self) -> *mut u8 {
        self.area.base()
    }

    /// Whether slot `i` is currently rewired, and to which pool page.
    pub fn slot_mapping(&self, i: usize) -> Option<PageIdx> {
        match self.area.mapping(i) {
            Mapping::Anon => None,
            Mapping::Pool(p) => Some(p),
        }
    }

    /// Touch every rewired slot to force page-table population; returns the
    /// number of slots touched (phase (3) of the paper's Table 1).
    pub fn populate(&self) -> usize {
        self.area.populate_by_touch()
    }

    /// Total `mmap` calls issued by this node so far.
    pub fn mmap_calls(&self) -> u64 {
        self.area.mmap_calls()
    }

    /// Size of the virtual area in bytes (`slots × 4 KB`) — the
    /// quantity that drives TLB pressure in §3.2.
    pub fn virtual_bytes(&self) -> usize {
        self.slots() * PAGE_SIZE_4K
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shortcut_rewire::{page_size, PagePool, PoolConfig};

    fn pool() -> PagePool {
        PagePool::new(PoolConfig {
            initial_pages: 8,
            min_growth_pages: 8,
            view_capacity_pages: 1024,
            ..PoolConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn slots_resolve_to_leaves() {
        let mut p = pool();
        let h = p.handle();
        let l0 = p.alloc_page().unwrap();
        let l1 = p.alloc_page().unwrap();
        // SAFETY: slot_ptr of a slot wired (or deliberately left anon) above;
        // the node's area and the pool view both outlive the access.
        unsafe {
            *(p.page_ptr(l0) as *mut u64) = 100;
            *(p.page_ptr(l1) as *mut u64) = 101;
        }
        let mut n = ShortcutNode::new(4).unwrap();
        n.set_slot(0, &h, l0).unwrap();
        n.set_slot(3, &h, l1).unwrap();
        // SAFETY: slot_ptr of a slot wired (or deliberately left anon) above;
        // the node's area and the pool view both outlive the access.
        unsafe {
            assert_eq!(*(n.slot_ptr(0) as *const u64), 100);
            assert_eq!(*(n.slot_ptr(3) as *const u64), 101);
            assert_eq!(*(n.slot_ptr(1) as *const u64), 0); // anon slot
        }
        assert_eq!(n.slot_mapping(0), Some(l0));
        assert_eq!(n.slot_mapping(1), None);
    }

    #[test]
    fn fan_in_two_slots_one_leaf() {
        let mut p = pool();
        let h = p.handle();
        let l = p.alloc_page().unwrap();
        let mut n = ShortcutNode::new(2).unwrap();
        n.set_slot(0, &h, l).unwrap();
        n.set_slot(1, &h, l).unwrap();
        // SAFETY: slot_ptr of a slot wired (or deliberately left anon) above;
        // the node's area and the pool view both outlive the access.
        unsafe {
            *(n.slot_ptr(0) as *mut u64) = 5;
            assert_eq!(*(n.slot_ptr(1) as *const u64), 5);
        }
    }

    #[test]
    fn writes_via_slot_reach_pool() {
        let mut p = pool();
        let h = p.handle();
        let l = p.alloc_page().unwrap();
        let mut n = ShortcutNode::new(1).unwrap();
        n.set_slot(0, &h, l).unwrap();
        // SAFETY: slot_ptr of a slot wired (or deliberately left anon) above;
        // the node's area and the pool view both outlive the access.
        unsafe {
            *(n.slot_ptr(0) as *mut u64) = 77;
            assert_eq!(*(p.page_ptr(l) as *const u64), 77);
        }
    }

    #[test]
    fn clear_slot_reads_zero_again() {
        let mut p = pool();
        let h = p.handle();
        let l = p.alloc_page().unwrap();
        // SAFETY: slot_ptr of a slot wired (or deliberately left anon) above;
        // the node's area and the pool view both outlive the access.
        unsafe {
            *(p.page_ptr(l) as *mut u64) = 9;
        }
        let mut n = ShortcutNode::new(1).unwrap();
        n.set_slot(0, &h, l).unwrap();
        n.clear_slot(0).unwrap();
        // SAFETY: slot_ptr of a slot wired (or deliberately left anon) above;
        // the node's area and the pool view both outlive the access.
        unsafe {
            assert_eq!(*(n.slot_ptr(0) as *const u64), 0);
        }
        // The leaf itself is untouched.
        // SAFETY: slot_ptr of a slot wired (or deliberately left anon) above;
        // the node's area and the pool view both outlive the access.
        unsafe {
            assert_eq!(*(p.page_ptr(l) as *const u64), 9);
        }
    }

    #[test]
    fn populate_touches_only_wired_slots() {
        let mut p = pool();
        let h = p.handle();
        let l = p.alloc_page().unwrap();
        let mut n = ShortcutNode::new(8).unwrap();
        n.set_slot(1, &h, l).unwrap();
        n.set_slot(5, &h, l).unwrap();
        assert_eq!(n.populate(), 2);
    }

    #[test]
    fn set_batch_counts_calls() {
        let mut p = pool();
        let h = p.handle();
        let run = p.alloc_run(3).unwrap();
        let mut n = ShortcutNode::new(4).unwrap();
        let calls = n
            .set_batch(
                &h,
                &[(0, run), (1, PageIdx(run.0 + 1)), (2, PageIdx(run.0 + 2))],
            )
            .unwrap();
        assert_eq!(calls, 1);
        assert_eq!(n.virtual_bytes(), 4 * page_size());
    }
}
