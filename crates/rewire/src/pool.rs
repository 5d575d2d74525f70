//! The self-managed pool of physical pages (paper §2.1).
//!
//! One [`MemFile`] represents all physical memory the application wants to
//! be able to create shortcuts to. The pool
//!
//! * grows the file on demand (`ftruncate`) in chunks, eagerly populating
//!   new pages to avoid hard page faults at access time,
//! * keeps a FIFO free-queue of page offsets for reuse — it never shrinks
//!   the file: a retired shortcut directory may still map any page of it,
//!   and a truncated page would `SIGBUS` a straggling reader, where a
//!   freed one only reads stale or zero — and
//! * maintains `v_pool`: a virtual memory area that maps **linearly** to the
//!   entire file, so that pool pages are directly addressable and so that
//!   the physical page of any leaf can be recovered from its `v_pool`
//!   address by plain offset arithmetic (`offset_leaf = v_leaf − v_pool`).
//!
//! The linear view lives inside a fixed-size anonymous reservation, so its
//! base address never changes as it grows — pointers derived from
//! [`PagePool::page_ptr`] stay valid for the lifetime of the allocation.

use crate::budget::{BudgetBinding, PoolUsage, VmaBudget, VmaSnapshot};
use crate::error::{Error, Result};
use crate::memfile::MemFile;
use crate::page::{page_size, PageIdx};
use crate::retire::{PinStrategy, RetireList};
use crate::slot::SlotLayout;
use crate::stats::{RewireStats, StatsSnapshot};
use crate::varea::reserve_aligned;
use std::collections::VecDeque;
use std::sync::Arc;

/// VMAs charged for the pool's own linear view: the mapped file prefix
/// plus the `PROT_NONE` remainder of the fixed reservation.
const POOL_VIEW_VMAS: usize = 2;

/// [`PagePool::alloc_page`] grows an exhausted file by this fraction of
/// its size (at least [`PoolConfig::min_growth_pages`]). Grown slots are
/// populated, so the step bounds what is faulted in ahead of use: an
/// eighth, at ≈ 6 calls per doubling, where doubling left up to half.
const GROWTH_DIVISOR: usize = 8;

/// Shared implementation of [`PagePool::vma_snapshot`] /
/// [`PoolHandle::vma_snapshot`].
fn vma_snapshot(budget: &VmaBudget, usage: &PoolUsage, retire: &RetireList) -> VmaSnapshot {
    let (areas_retired, areas_reclaimed, vmas_reclaimed) = retire.counters();
    VmaSnapshot {
        in_use: budget.in_use() as u64,
        limit: budget.limit() as u64,
        retired_vmas: retire.retired_vmas() as u64,
        retired_areas: retire.retired_count() as u64,
        areas_retired,
        areas_reclaimed,
        vmas_reclaimed,
        pool_in_use: usage.in_use() as u64,
        fair_pools: budget.fair_pool_count() as u64,
        fair_share: budget.fair_share(crate::budget_headroom(budget.limit())) as u64,
    }
}

/// Tuning knobs for a [`PagePool`].
///
/// All `*_pages` counts are denominated in **slots** — the pool's
/// allocation unit of `2^k` base pages fixed by
/// [`PoolConfig::slot_layout`]. At the default layout (`k = 0`) a slot is
/// one 4 KB page and the historical field names read literally.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Diagnostic name of the backing memfd.
    pub name: String,
    /// Initial file size in slots (the paper's indexes start at one
    /// bucket, i.e. one slot).
    pub initial_pages: usize,
    /// Grow by at least this many slots per `ftruncate` (amortizes
    /// syscalls).
    pub min_growth_pages: usize,
    /// Size of the fixed virtual reservation holding the linear view, in
    /// slots. The pool can never grow beyond this. Virtual address space is
    /// effectively free on 64-bit; the default reserves 16 GB at `k = 0`.
    pub view_capacity_pages: usize,
    /// VMA budget this pool (and the areas retired into it) accounts
    /// against. `None` uses the process-global budget fed by
    /// `vm.max_map_count` ([`VmaBudget::global`]); tests and stress rigs
    /// inject private budgets with small limits.
    pub vma_budget: Option<Arc<VmaBudget>>,
    /// Opt this pool into **fair-share admission** on its (shared) VMA
    /// budget: pool-scoped reservations taken through
    /// [`VmaBudget::try_reserve_for`] may exceed the pool's even share of
    /// the budget only while every other fair pool's unfilled share stays
    /// spare. Off by default — a single pool owning its budget behaves
    /// exactly as before. The sharded index sets this on every shard so
    /// one hot shard's directory cannot starve its siblings' rebuilds.
    pub fair_share: bool,
    /// Physical slot layout: `2^k` base pages per slot (default `k = 0`,
    /// the paper's one-page buckets). Constructed once; every consumer of
    /// the pool must use the same layout for its offset arithmetic.
    pub slot_layout: SlotLayout,
    /// Reader-pin pairing for this pool's retire list. `None` (default)
    /// probes `membarrier(2)` once per process and picks
    /// [`PinStrategy::Asymmetric`] when registration succeeds, else the
    /// PR 3 [`PinStrategy::Dekker`] pairing. Tests force `Dekker` to
    /// exercise the fallback matrix on hosts that do support membarrier.
    pub pin_strategy: Option<PinStrategy>,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            name: "shortcut-pool".to_string(),
            initial_pages: 1,
            min_growth_pages: 64,
            view_capacity_pages: 1 << 22, // 16 GB of 4 KB pages
            vma_budget: None,
            fair_share: false,
            slot_layout: SlotLayout::base(),
            pin_strategy: None,
        }
    }
}

/// Allocation state of one pool page (kept for double-free detection).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PageState {
    Free,
    Allocated,
    /// Relocated away but not yet reusable: the page keeps its (stale)
    /// contents until every reader pin taken before its retirement has
    /// drained, then [`PagePool::reclaim_retired_pages`] frees it. Neither
    /// allocatable nor freeable in this state.
    Retired,
}

/// A shareable, thread-safe handle to the pool's physical memory.
///
/// Rewiring from another thread (the paper's asynchronous *mapper thread*)
/// only needs the file descriptor and byte offsets — not the allocator — so
/// this handle is all that crosses the thread boundary.
#[derive(Debug, Clone)]
pub struct PoolHandle {
    file: Arc<MemFile>,
    stats: Arc<RewireStats>,
    budget: Arc<VmaBudget>,
    usage: Arc<PoolUsage>,
    retire: Arc<RetireList>,
    layout: SlotLayout,
}

impl PoolHandle {
    /// Raw fd of the main-memory file (for `mmap`).
    #[inline]
    pub fn fd(&self) -> std::os::unix::io::RawFd {
        self.file.fd()
    }

    /// Current file length in bytes.
    #[inline]
    pub fn file_len(&self) -> usize {
        self.file.len()
    }

    /// The pool's physical slot layout.
    #[inline]
    pub fn layout(&self) -> SlotLayout {
        self.layout
    }

    /// The VMA budget this pool accounts against.
    #[inline]
    pub fn budget(&self) -> &Arc<VmaBudget> {
        &self.budget
    }

    /// This pool's usage attribution on the (shared) budget.
    #[inline]
    pub fn usage(&self) -> &Arc<PoolUsage> {
        &self.usage
    }

    /// A [`BudgetBinding`] that charges the budget *and* attributes the
    /// charge to this pool — what areas built on behalf of this pool
    /// should attach.
    pub fn binding(&self) -> BudgetBinding {
        BudgetBinding::with_pool(Arc::clone(&self.budget), Arc::clone(&self.usage))
    }

    /// The pool's retirement machinery: reader pins and the retired-area
    /// list (see [`RetireList`]).
    #[inline]
    pub fn retire_list(&self) -> &Arc<RetireList> {
        &self.retire
    }

    /// Point-in-time view of the VMA budget and retirement counters.
    pub fn vma_snapshot(&self) -> VmaSnapshot {
        vma_snapshot(&self.budget, &self.usage, &self.retire)
    }

    pub(crate) fn stats(&self) -> &RewireStats {
        &self.stats
    }
}

/// The pool of physical slots (`2^k` base pages each). See module docs.
pub struct PagePool {
    file: Arc<MemFile>,
    cfg: PoolConfig,
    /// The slot layout (copied out of `cfg` for hot-path arithmetic).
    layout: SlotLayout,
    /// Base of the fixed anonymous reservation that hosts the linear view.
    view_base: *mut u8,
    /// Slots of the file currently mapped into the view (== file length).
    file_pages: usize,
    /// FIFO of reusable slot indices, each free.
    free_queue: VecDeque<usize>,
    state: Vec<PageState>,
    allocated: usize,
    /// Slots relocated away by compaction, stamped with the retirement
    /// epoch at which they became unreachable. Freed (as runs) by
    /// [`PagePool::reclaim_retired_pages`] once readers quiesce.
    retired_pages: Vec<(u64, usize)>,
    stats: Arc<RewireStats>,
    budget: Arc<VmaBudget>,
    usage: Arc<PoolUsage>,
    retire: Arc<RetireList>,
}

impl std::fmt::Debug for PagePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PagePool")
            .field("file_pages", &self.file_pages)
            .field("allocated", &self.allocated)
            .field("free_queued", &self.free_queue.len())
            .finish()
    }
}

impl PagePool {
    /// Create a pool with the given configuration.
    pub fn new(cfg: PoolConfig) -> Result<Self> {
        if cfg.view_capacity_pages == 0 {
            return Err(Error::invalid("view_capacity_pages must be > 0"));
        }
        if cfg.initial_pages > cfg.view_capacity_pages {
            return Err(Error::invalid("initial_pages exceeds view_capacity_pages"));
        }
        let layout = cfg.slot_layout;
        let slot_bytes = layout.slot_bytes();

        let file = Arc::new(MemFile::create(&cfg.name)?);
        let stats = Arc::new(RewireStats::default());

        // Reserve the fixed view as PROT_NONE anonymous memory: any stray
        // access to a not-yet-grown region faults loudly. The base is
        // slot-aligned, so over-reserve and trim.
        let cap_bytes = cfg.view_capacity_pages * slot_bytes;
        let view_base = reserve_aligned(cap_bytes, slot_bytes.max(page_size()), libc::PROT_NONE)?;
        stats.mmap_calls.add(1);
        let budget = cfg.vma_budget.clone().unwrap_or_else(VmaBudget::global);
        let usage = budget.register_pool(cfg.fair_share);
        BudgetBinding::with_pool(Arc::clone(&budget), Arc::clone(&usage)).charge(POOL_VIEW_VMAS);

        let cfg_pin_strategy = cfg.pin_strategy;
        let mut pool = PagePool {
            file,
            layout,
            cfg,
            view_base,
            file_pages: 0,
            free_queue: VecDeque::new(),
            state: Vec::new(),
            allocated: 0,
            retired_pages: Vec::new(),
            stats,
            budget,
            usage,
            retire: Arc::new(match cfg_pin_strategy {
                Some(s) => RetireList::with_strategy(s),
                None => RetireList::new(),
            }),
        };
        let initial = pool.cfg.initial_pages;
        if initial > 0 {
            pool.grow_to(initial)?;
        }
        Ok(pool)
    }

    /// Bytes per slot (the pool's allocation unit).
    #[inline]
    fn slot_bytes(&self) -> usize {
        self.layout.slot_bytes()
    }

    /// The pool's physical slot layout.
    #[inline]
    pub fn layout(&self) -> SlotLayout {
        self.layout
    }

    /// Create a pool with [`PoolConfig::default`].
    pub fn with_defaults() -> Result<Self> {
        Self::new(PoolConfig::default())
    }

    /// Grow the file (and the linear view) to exactly `new_pages` slots.
    fn grow_to(&mut self, new_pages: usize) -> Result<()> {
        debug_assert!(new_pages > self.file_pages);
        if new_pages > self.cfg.view_capacity_pages {
            return Err(Error::BadResize {
                current: self.file_pages,
                requested: new_pages,
            });
        }
        let slot_bytes = self.slot_bytes();
        let old_pages = self.file_pages;
        self.file.resize(new_pages * slot_bytes)?;
        self.stats.pool_grows.add(1);

        // Map the newly valid file range into the view at the same offset.
        // Populated eagerly, so first accesses take no hard page fault.
        let delta = new_pages - old_pages;
        // SAFETY: the target range lies inside our own reservation; MAP_FIXED
        // replaces the PROT_NONE placeholder; offset/length are slot aligned.
        let rc = unsafe {
            libc::mmap(
                self.view_base.add(old_pages * slot_bytes) as *mut libc::c_void,
                delta * slot_bytes,
                libc::PROT_READ | libc::PROT_WRITE,
                libc::MAP_SHARED | libc::MAP_FIXED | libc::MAP_POPULATE,
                self.file.fd(),
                (old_pages * slot_bytes) as libc::off_t,
            )
        };
        if rc == libc::MAP_FAILED {
            return Err(Error::os("mmap"));
        }
        self.stats.mmap_calls.add(1);
        self.stats.pages_populated.add(delta as u64);

        self.file_pages = new_pages;
        self.state.resize(new_pages, PageState::Free);
        for i in old_pages..new_pages {
            self.free_queue.push_back(i);
        }
        Ok(())
    }

    /// Allocate one physical page. A slot never handed out before reads as
    /// zeros; a recycled one still holds what its last owner left there.
    pub fn alloc_page(&mut self) -> Result<PageIdx> {
        if self.free_queue.is_empty() {
            let step = (self.file_pages / GROWTH_DIVISOR)
                .max(self.cfg.min_growth_pages)
                .max(1);
            let target = (self.file_pages + step).min(self.cfg.view_capacity_pages);
            if target <= self.file_pages {
                return Err(Error::BadResize {
                    current: self.file_pages,
                    requested: target + 1,
                });
            }
            self.grow_to(target)?;
        }
        let i = self.free_queue.pop_front().expect("grown");
        debug_assert_eq!(self.state[i], PageState::Free);
        self.state[i] = PageState::Allocated;
        self.allocated += 1;
        self.stats.pages_allocated.add(1);
        Ok(PageIdx(i))
    }

    /// Allocate `n` physically **contiguous** pages (contiguous in file
    /// offsets), so the run can later be rewired with a single `mmap` call.
    ///
    /// Prefers the first free span of `n` pages already inside the file
    /// (compaction allocates a bucket-count-sized run per pass; without
    /// reuse of the span the previous pass freed, the file would grow by
    /// that much every time) and carves fresh space from the end of the
    /// file only when no span fits. Reused spans read as zeros, like
    /// fresh ones.
    pub fn alloc_run(&mut self, n: usize) -> Result<PageIdx> {
        if n == 0 {
            return Err(Error::invalid("alloc_run of zero pages"));
        }
        let start = match self.find_free_run(n) {
            Some(start) => {
                // Reset the reused span to zeros (releasing any stale
                // physical pages); fall back to an explicit clear where
                // hole punching is unsupported.
                if self
                    .file
                    .punch_hole(start * self.slot_bytes(), n * self.slot_bytes())
                    .is_err()
                {
                    // SAFETY: in-bounds span of the mapped linear view.
                    unsafe {
                        std::ptr::write_bytes(
                            self.page_ptr(PageIdx(start)),
                            0,
                            n * self.slot_bytes(),
                        );
                    }
                }
                start
            }
            None => {
                let start = self.file_pages;
                self.grow_to(start + n)?;
                start
            }
        };
        for i in start..start + n {
            debug_assert_eq!(self.state[i], PageState::Free);
            self.state[i] = PageState::Allocated;
        }
        // Remove the claimed indices from the free queue (they were either
        // just appended by grow_to or left over from earlier frees).
        self.free_queue
            .retain(|&i| !(start..start + n).contains(&i));
        self.allocated += n;
        self.stats.pages_allocated.add(n as u64);
        Ok(PageIdx(start))
    }

    /// First free span of `n` contiguous pages inside the file, if any.
    fn find_free_run(&self, n: usize) -> Option<usize> {
        let mut run = 0usize;
        for i in 0..self.file_pages {
            if self.state[i] == PageState::Free {
                run += 1;
                if run == n {
                    return Some(i + 1 - n);
                }
            } else {
                run = 0;
            }
        }
        None
    }

    /// Return a page to the pool's free queue.
    pub fn free_page(&mut self, page: PageIdx) -> Result<()> {
        let i = page.0;
        if i >= self.file_pages {
            return Err(Error::BadPageRef {
                page: i,
                what: "beyond end of pool",
            });
        }
        if self.state[i] != PageState::Allocated {
            return Err(Error::BadPageRef {
                page: i,
                what: "double free",
            });
        }
        self.state[i] = PageState::Free;
        self.allocated -= 1;
        self.stats.pages_freed.add(1);
        self.free_queue.push_back(i);
        Ok(())
    }

    /// Free `n` contiguous pages `[start, start + n)` as one run: every
    /// page is returned to the allocator and the run's physical memory is
    /// released with a **single** `FALLOC_FL_PUNCH_HOLE` call. A punched
    /// hole reads as zeros to a straggling (ticket-discarded) reader of a
    /// retired shortcut directory that still maps it. The hole punch is
    /// best-effort — hosts without memfd hole support merely keep the
    /// physical pages until reuse.
    ///
    /// # Errors
    ///
    /// Rejects the run (without freeing anything) if any page is out of
    /// range or not currently allocated.
    pub fn free_run(&mut self, start: PageIdx, n: usize) -> Result<()> {
        if n == 0 {
            return Err(Error::invalid("free_run of zero pages"));
        }
        if start.0 + n > self.file_pages {
            return Err(Error::BadPageRef {
                page: start.0 + n - 1,
                what: "beyond end of pool",
            });
        }
        // Validate the whole run before mutating any state, so a bad run
        // is rejected atomically.
        for i in start.0..start.0 + n {
            if self.state[i] != PageState::Allocated {
                return Err(Error::BadPageRef {
                    page: i,
                    what: "double free",
                });
            }
        }
        for i in start.0..start.0 + n {
            self.state[i] = PageState::Free;
            self.free_queue.push_back(i);
        }
        self.allocated -= n;
        self.stats.pages_freed.add(n as u64);
        let _ = self
            .file
            .punch_hole(self.layout.byte_offset(start.0), n * self.slot_bytes());
        Ok(())
    }

    /// Copy the contents of pool page `src` into pool page `dst` (both
    /// must be allocated). This is the physical half of bucket-page
    /// relocation: the caller then redirects its directory slots to `dst`
    /// and hands `src` to [`PagePool::retire_page`] so concurrent pinned
    /// readers — which may still dereference `src` through a retired
    /// shortcut directory — never observe the page being reused while
    /// they could read it.
    pub fn relocate_page(&mut self, src: PageIdx, dst: PageIdx) -> Result<()> {
        for (p, what) in [(src, "relocate source"), (dst, "relocate target")] {
            if p.0 >= self.file_pages {
                return Err(Error::BadPageRef {
                    page: p.0,
                    what: "beyond end of pool",
                });
            }
            if self.state[p.0] != PageState::Allocated {
                return Err(Error::BadPageRef { page: p.0, what });
            }
        }
        if src == dst {
            return Err(Error::invalid("relocate_page onto itself"));
        }
        // SAFETY: both pages are in-bounds, allocated, and distinct; the
        // linear view maps the whole file read/write.
        unsafe {
            std::ptr::copy_nonoverlapping(
                self.page_ptr(src),
                self.page_ptr(dst),
                self.slot_bytes(),
            );
        }
        Ok(())
    }

    /// Retire an allocated page: it stops being the caller's storage but
    /// is **not** returned to the allocator yet. The page keeps its
    /// contents (readable by pinned stragglers through retired shortcut
    /// directories) until a [`PagePool::reclaim_retired_pages`] call
    /// observes every reader pin taken before this retirement drained —
    /// the same epoch machinery [`RetireList`] uses for whole areas.
    /// Returns the stamped epoch.
    pub fn retire_page(&mut self, page: PageIdx) -> Result<u64> {
        if page.0 >= self.file_pages {
            return Err(Error::BadPageRef {
                page: page.0,
                what: "beyond end of pool",
            });
        }
        if self.state[page.0] != PageState::Allocated {
            return Err(Error::BadPageRef {
                page: page.0,
                what: "retire of unallocated page",
            });
        }
        self.state[page.0] = PageState::Retired;
        let epoch = self.retire.advance_epoch();
        self.retired_pages.push((epoch, page.0));
        Ok(epoch)
    }

    /// Free every retired page whose retirement epoch is covered by one
    /// reader-quiescence scan, coalescing adjacent pages into
    /// [`PagePool::free_run`]-style single hole punches. Returns the
    /// number of pages freed (0 while readers keep a stripe busy — retry
    /// later; reclamation is only ever delayed, never lost).
    pub fn reclaim_retired_pages(&mut self) -> usize {
        if self.retired_pages.is_empty() {
            return 0;
        }
        let Some(safe_epoch) = self.retire.quiescent_epoch() else {
            return 0;
        };
        let mut ready: Vec<usize> = Vec::new();
        self.retired_pages.retain(|&(epoch, page)| {
            if epoch <= safe_epoch {
                ready.push(page);
                false
            } else {
                true
            }
        });
        ready.sort_unstable();
        let freed = ready.len();
        let mut i = 0;
        while i < freed {
            let mut j = i + 1;
            while j < freed && ready[j] == ready[j - 1] + 1 {
                j += 1;
            }
            let (start, n) = (ready[i], j - i);
            for p in start..start + n {
                debug_assert_eq!(self.state[p], PageState::Retired);
                self.state[p] = PageState::Free;
                self.free_queue.push_back(p);
            }
            self.allocated -= n;
            self.stats.pages_freed.add(n as u64);
            let _ = self
                .file
                .punch_hole(start * self.slot_bytes(), n * self.slot_bytes());
            i = j;
        }
        freed
    }

    /// Pages currently retired (relocated away, awaiting reader drain).
    #[inline]
    pub fn retired_page_count(&self) -> usize {
        self.retired_pages.len()
    }

    /// Pointer to the start of pool page `page` in the linear view.
    ///
    /// The pointer stays valid until the page is freed (the view base is a
    /// fixed reservation). Callers must uphold the aliasing rule from the
    /// crate docs when the same page is also rewired into a [`crate::VirtArea`].
    #[inline]
    pub fn page_ptr(&self, page: PageIdx) -> *mut u8 {
        assert!(page.0 < self.file_pages, "page {page} out of range");
        // SAFETY: in-bounds offset inside the mapped view.
        unsafe { self.view_base.add(page.0 * self.slot_bytes()) }
    }

    /// Base address of the linear view (`v_pool` in the paper).
    #[inline]
    pub fn view_base(&self) -> *mut u8 {
        self.view_base
    }

    /// Recover the pool page index from a pointer into the linear view
    /// (the paper's `offset_leaf = v_leaf − v_pool` step).
    pub fn page_of_ptr(&self, ptr: *const u8) -> Result<PageIdx> {
        let base = self.view_base as usize;
        let p = ptr as usize;
        if p < base || p >= base + self.file_pages * self.slot_bytes() {
            return Err(Error::invalid("pointer not inside the pool view"));
        }
        Ok(PageIdx((p - base) / self.slot_bytes()))
    }

    /// Number of pages currently backed by the file.
    #[inline]
    pub fn file_pages(&self) -> usize {
        self.file_pages
    }

    /// Number of pages currently allocated out.
    #[inline]
    pub fn allocated_pages(&self) -> usize {
        self.allocated
    }

    /// Shareable handle for rewiring from other threads.
    pub fn handle(&self) -> PoolHandle {
        PoolHandle {
            file: Arc::clone(&self.file),
            stats: Arc::clone(&self.stats),
            budget: Arc::clone(&self.budget),
            usage: Arc::clone(&self.usage),
            retire: Arc::clone(&self.retire),
            layout: self.layout,
        }
    }

    /// Snapshot of the pool's operation counters.
    pub fn stats(&self) -> StatsSnapshot {
        StatsSnapshot {
            pool_file_slots: self.file_pages as u64,
            ..self.stats.snapshot()
        }
    }

    /// The VMA budget this pool accounts against.
    pub fn budget(&self) -> &Arc<VmaBudget> {
        &self.budget
    }

    /// The pool's retirement machinery.
    pub fn retire_list(&self) -> &Arc<RetireList> {
        &self.retire
    }

    /// Point-in-time view of the VMA budget and retirement counters.
    pub fn vma_snapshot(&self) -> VmaSnapshot {
        vma_snapshot(&self.budget, &self.usage, &self.retire)
    }
}

impl Drop for PagePool {
    fn drop(&mut self) {
        self.stats.munmap_calls.add(1);
        BudgetBinding::with_pool(Arc::clone(&self.budget), Arc::clone(&self.usage))
            .release(POOL_VIEW_VMAS);
        // SAFETY: unmapping our own reservation exactly once.
        unsafe {
            libc::munmap(
                self.view_base as *mut libc::c_void,
                self.cfg.view_capacity_pages * self.slot_bytes(),
            );
        }
    }
}

// SAFETY: the pool owns its mapping; moving it between threads is fine.
unsafe impl Send for PagePool {}
// SAFETY: no interior mutability — allocation, freeing and resizing all
// take `&mut self`; the `&self` surface (page_ptr, view_base, page_of_ptr,
// counters) only reads plain fields. Cross-thread *rewiring* still goes
// through PoolHandle; shared references permit concurrent reads only.
unsafe impl Sync for PagePool {}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_pool() -> PagePool {
        PagePool::new(PoolConfig {
            initial_pages: 2,
            min_growth_pages: 2,
            view_capacity_pages: 64,
            ..PoolConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn alloc_grows_on_demand() {
        let mut p = small_pool();
        let mut pages = Vec::new();
        for _ in 0..10 {
            pages.push(p.alloc_page().unwrap());
        }
        assert_eq!(p.allocated_pages(), 10);
        assert!(p.file_pages() >= 10);
        // All distinct.
        let mut sorted: Vec<_> = pages.iter().map(|p| p.0).collect();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 10);
    }

    /// Lines of `/proc/self/maps` that lie inside `[lo, hi)`, as
    /// `(start, end)` addresses.
    fn mappings_within(lo: usize, hi: usize) -> Vec<(usize, usize)> {
        std::fs::read_to_string("/proc/self/maps")
            .unwrap()
            .lines()
            .filter_map(|line| {
                let (start, end) = line.split_whitespace().next()?.split_once('-')?;
                let start = usize::from_str_radix(start, 16).ok()?;
                let end = usize::from_str_radix(end, 16).ok()?;
                (start >= lo && end <= hi).then_some((start, end))
            })
            .collect()
    }

    #[test]
    fn growth_populates_an_eighth_ahead_and_keeps_one_mapping() {
        let mut p = PagePool::with_defaults().unwrap();
        let floor = PoolConfig::default().min_growth_pages;
        for n in 1..=33_000usize {
            p.alloc_page().unwrap();
            assert!(
                p.file_pages() <= n * 9 / 8 + floor,
                "{} file slots for {n} allocated",
                p.file_pages()
            );
        }
        let s = p.stats();
        assert_eq!(s.pages_allocated, 33_000);
        assert_eq!(s.pool_file_slots, p.file_pages() as u64);
        assert_eq!(
            s.pages_populated, s.pool_file_slots,
            "grown slots are populated"
        );
        assert!(
            s.pages_populated * 4 <= s.pages_allocated * 5,
            "{} populated for {} allocated",
            s.pages_populated,
            s.pages_allocated
        );
        // Each step maps the next range of the same file right behind the
        // last, so the kernel merges them: the view stays the one VMA the
        // budget charges for it however many steps it took.
        assert!(s.pool_grows >= 20, "only {} growth steps", s.pool_grows);
        let base = p.view_base() as usize;
        let end = base + p.file_pages() * p.layout().slot_bytes();
        assert_eq!(mappings_within(base, end), [(base, end)]);
    }

    #[test]
    fn freed_pages_are_reused() {
        let mut p = small_pool();
        let a = p.alloc_page().unwrap();
        let b = p.alloc_page().unwrap();
        p.free_page(a).unwrap();
        p.free_page(b).unwrap();
        let c = p.alloc_page().unwrap();
        let d = p.alloc_page().unwrap();
        assert!([a, b].contains(&c));
        assert!([a, b].contains(&d));
        assert_ne!(c, d);
    }

    #[test]
    fn double_free_detected() {
        let mut p = small_pool();
        let a = p.alloc_page().unwrap();
        p.free_page(a).unwrap();
        let err = p.free_page(a).unwrap_err();
        assert!(matches!(
            err,
            Error::BadPageRef {
                what: "double free",
                ..
            }
        ));
    }

    #[test]
    fn free_out_of_range_detected() {
        let mut p = small_pool();
        let err = p.free_page(PageIdx(9999)).unwrap_err();
        assert!(matches!(err, Error::BadPageRef { .. }));
    }

    #[test]
    fn writes_through_view_persist() {
        let mut p = small_pool();
        let a = p.alloc_page().unwrap();
        // SAFETY: page_ptr of a page this test allocated; offsets stay inside
        // the slot and the pool view stays mapped for the pool's lifetime.
        unsafe {
            *(p.page_ptr(a) as *mut u64) = 42;
        }
        // Force growth; view base must not move.
        let base_before = p.view_base();
        for _ in 0..20 {
            p.alloc_page().unwrap();
        }
        assert_eq!(p.view_base(), base_before);
        // SAFETY: page_ptr of a page this test allocated; offsets stay inside
        // the slot and the pool view stays mapped for the pool's lifetime.
        unsafe {
            assert_eq!(*(p.page_ptr(a) as *const u64), 42);
        }
    }

    #[test]
    fn new_pages_are_zeroed() {
        let mut p = small_pool();
        let a = p.alloc_page().unwrap();
        let ptr = p.page_ptr(a);
        for i in 0..page_size() {
            // SAFETY: page_ptr of a page this test allocated; offsets stay inside
            // the slot and the pool view stays mapped for the pool's lifetime.
            unsafe {
                assert_eq!(*ptr.add(i), 0);
            }
        }
    }

    #[test]
    fn alloc_run_is_contiguous() {
        let mut p = small_pool();
        let start = p.alloc_run(5).unwrap();
        // SAFETY: page_ptr of a page this test allocated; offsets stay inside
        // the slot and the pool view stays mapped for the pool's lifetime.
        unsafe {
            for i in 0..5 {
                *(p.page_ptr(PageIdx(start.0 + i)) as *mut u64) = i as u64;
            }
            for i in 0..5 {
                assert_eq!(*(p.page_ptr(PageIdx(start.0 + i)) as *const u64), i as u64);
            }
        }
        // Run pages are marked allocated: freeing them works exactly once.
        for i in 0..5 {
            p.free_page(PageIdx(start.0 + i)).unwrap();
        }
    }

    #[test]
    fn page_of_ptr_roundtrip() {
        let mut p = small_pool();
        let a = p.alloc_page().unwrap();
        let ptr = p.page_ptr(a);
        assert_eq!(p.page_of_ptr(ptr).unwrap(), a);
        // SAFETY: page_ptr of a page this test allocated; offsets stay inside
        // the slot and the pool view stays mapped for the pool's lifetime.
        assert_eq!(p.page_of_ptr(unsafe { ptr.add(100) }).unwrap(), a);
        let outside = 0x10 as *const u8;
        assert!(p.page_of_ptr(outside).is_err());
    }

    #[test]
    fn capacity_exhaustion_reports_bad_resize() {
        let mut p = PagePool::new(PoolConfig {
            initial_pages: 1,
            min_growth_pages: 1,
            view_capacity_pages: 4,
            ..PoolConfig::default()
        })
        .unwrap();
        let mut got = 0;
        loop {
            match p.alloc_page() {
                Ok(_) => got += 1,
                Err(Error::BadResize { .. }) => break,
                Err(e) => panic!("unexpected error {e}"),
            }
            assert!(got <= 4);
        }
        assert_eq!(got, 4);
    }

    /// Freeing — page by page at the file's tail, or as a run whose
    /// memory goes back to the host — keeps the file, live data and the
    /// allocator sound: every page freed comes back, once.
    #[test]
    fn reclaim_free_pages_keeps_allocator_sound() {
        let mut p = small_pool();
        let keep = p.alloc_page().unwrap();
        let toss: Vec<_> = (0..6).map(|_| p.alloc_page().unwrap()).collect();
        let run = p.alloc_run(4).unwrap();
        // SAFETY: page_ptr of a page this test allocated; offsets stay inside
        // the slot and the pool view stays mapped for the pool's lifetime.
        unsafe {
            *(p.page_ptr(keep) as *mut u64) = 42;
            *(p.page_ptr(run) as *mut u64) = 43;
        }
        let file = p.file_pages();
        for &pg in toss.iter().rev() {
            p.free_page(pg).unwrap();
        }
        p.free_run(run, 4).unwrap();
        assert_eq!(p.file_pages(), file, "the file never shrinks");
        assert_eq!(p.allocated_pages(), 1);
        // SAFETY: as above.
        unsafe {
            assert_eq!(*(p.page_ptr(keep) as *const u64), 42);
        }
        let mut again: Vec<usize> = (0..file - 1).map(|_| p.alloc_page().unwrap().0).collect();
        assert_eq!(p.file_pages(), file, "the freed pages came back first");
        again.sort_unstable();
        again.dedup();
        assert_eq!(again.len(), file - 1);
        assert!(!again.contains(&keep.0));
    }

    #[test]
    fn free_run_frees_all_pages_at_once() {
        let mut p = small_pool();
        let start = p.alloc_run(6).unwrap();
        assert_eq!(p.allocated_pages(), 6);
        p.free_run(start, 6).unwrap();
        assert_eq!(p.allocated_pages(), 0);
        // Every page is individually reusable afterwards.
        for _ in 0..6 {
            let pg = p.alloc_page().unwrap();
            assert!(pg.0 < p.file_pages());
        }
    }

    #[test]
    fn free_run_rejects_partial_runs_atomically() {
        let mut p = small_pool();
        let start = p.alloc_run(4).unwrap();
        p.free_page(PageIdx(start.0 + 2)).unwrap();
        // A run containing a free page is rejected without freeing the
        // allocated ones around it.
        assert!(matches!(
            p.free_run(start, 4),
            Err(Error::BadPageRef {
                what: "double free",
                ..
            })
        ));
        assert_eq!(p.allocated_pages(), 3);
        assert!(p.free_run(PageIdx(9990), 4).is_err());
        assert!(p.free_run(start, 0).is_err());
    }

    #[test]
    fn alloc_run_reuses_freed_spans() {
        let mut p = small_pool();
        let a = p.alloc_run(5).unwrap();
        let pages_after_first = p.file_pages();
        // SAFETY: page_ptr of a page this test allocated; offsets stay inside
        // the slot and the pool view stays mapped for the pool's lifetime.
        unsafe {
            *(p.page_ptr(a) as *mut u64) = 0xDEAD;
        }
        p.free_run(a, 5).unwrap();
        // The next run of the same size must reuse a span inside the
        // existing file instead of growing it, and must read as zeros.
        let b = p.alloc_run(5).unwrap();
        assert!(b.0 + 5 <= pages_after_first, "run {b} did not reuse");
        assert_eq!(p.file_pages(), pages_after_first);
        for i in 0..5 * page_size() {
            // SAFETY: page_ptr of a page this test allocated; offsets stay inside
            // the slot and the pool view stays mapped for the pool's lifetime.
            unsafe {
                assert_eq!(*p.page_ptr(b).add(i), 0, "reused run dirty at {i}");
            }
        }
        // A larger run does not fit the span and grows instead.
        let c = p.alloc_run(6).unwrap();
        assert!(c.0 >= pages_after_first || c.0 != b.0);
    }

    #[test]
    fn relocate_page_copies_contents() {
        let mut p = small_pool();
        let src = p.alloc_page().unwrap();
        let dst = p.alloc_page().unwrap();
        // SAFETY: page_ptr of a page this test allocated; offsets stay inside
        // the slot and the pool view stays mapped for the pool's lifetime.
        unsafe {
            for i in 0..page_size() / 8 {
                *(p.page_ptr(src) as *mut u64).add(i) = 7000 + i as u64;
            }
        }
        p.relocate_page(src, dst).unwrap();
        // SAFETY: page_ptr of a page this test allocated; offsets stay inside
        // the slot and the pool view stays mapped for the pool's lifetime.
        unsafe {
            for i in 0..page_size() / 8 {
                assert_eq!(*(p.page_ptr(dst) as *const u64).add(i), 7000 + i as u64);
            }
        }
        // Source keeps its contents (readable until retired + reclaimed).
        // SAFETY: page_ptr of a page this test allocated; offsets stay inside
        // the slot and the pool view stays mapped for the pool's lifetime.
        unsafe {
            assert_eq!(*(p.page_ptr(src) as *const u64), 7000);
        }
        // Invalid relocations are rejected.
        assert!(p.relocate_page(src, src).is_err());
        let free = p.alloc_page().unwrap();
        p.free_page(free).unwrap();
        assert!(p.relocate_page(src, free).is_err());
        assert!(p.relocate_page(PageIdx(9999), dst).is_err());
    }

    #[test]
    fn retired_pages_wait_for_reader_pins() {
        let mut p = small_pool();
        let retire = Arc::clone(p.retire_list());
        let a = p.alloc_page().unwrap();
        let b = p.alloc_page().unwrap();
        // SAFETY: page_ptr of a page this test allocated; offsets stay inside
        // the slot and the pool view stays mapped for the pool's lifetime.
        unsafe {
            *(p.page_ptr(a) as *mut u64) = 41;
        }

        // A reader pins before the retirement; the page must stay intact
        // and unreusable until the pin drains.
        let pin = retire.pin();
        p.retire_page(a).unwrap();
        p.retire_page(b).unwrap();
        assert_eq!(p.retired_page_count(), 2);
        assert_eq!(p.reclaim_retired_pages(), 0, "must not free under a pin");
        // SAFETY: page_ptr of a page this test allocated; offsets stay inside
        // the slot and the pool view stays mapped for the pool's lifetime.
        unsafe {
            assert_eq!(*(p.page_ptr(a) as *const u64), 41);
        }
        // Retired pages cannot be double-retired or freed.
        assert!(p.retire_page(a).is_err());
        assert!(p.free_page(a).is_err());

        drop(pin);
        assert_eq!(p.reclaim_retired_pages(), 2);
        assert_eq!(p.retired_page_count(), 0);
        // Both pages are allocatable again.
        let c = p.alloc_page().unwrap();
        let d = p.alloc_page().unwrap();
        assert!([a, b].contains(&c) || [a, b].contains(&d));
    }

    #[test]
    fn handle_reports_file_len() {
        let mut p = small_pool();
        let h = p.handle();
        let before = h.file_len();
        for _ in 0..10 {
            p.alloc_page().unwrap();
        }
        assert!(h.file_len() >= before);
        assert_eq!(h.file_len(), p.file_pages() * p.layout().slot_bytes());
    }

    #[test]
    fn larger_slots_scale_all_byte_arithmetic() {
        let layout = SlotLayout::new(2).unwrap(); // 16 KB slots
        let mut p = PagePool::new(PoolConfig {
            initial_pages: 2,
            min_growth_pages: 2,
            view_capacity_pages: 64,
            slot_layout: layout,
            ..PoolConfig::default()
        })
        .unwrap();
        assert_eq!(p.layout(), layout);
        let a = p.alloc_page().unwrap();
        let b = p.alloc_page().unwrap();
        assert_eq!(p.handle().file_len() % layout.slot_bytes(), 0);
        // Writes at the far end of a slot stay inside it.
        let last = layout.slot_bytes() - 8;
        // SAFETY: page_ptr of a page this test allocated; offsets stay inside
        // the slot and the pool view stays mapped for the pool's lifetime.
        unsafe {
            *(p.page_ptr(a).add(last) as *mut u64) = 0xaaaa;
            *(p.page_ptr(b) as *mut u64) = 0xbbbb;
            assert_eq!(*(p.page_ptr(a).add(last) as *const u64), 0xaaaa);
            assert_eq!(*(p.page_ptr(b) as *const u64), 0xbbbb);
        }
        // page_of_ptr resolves interior pointers slot-granularly.
        assert_eq!(
            // SAFETY: page_ptr of a page this test allocated; offsets stay inside
            // the slot and the pool view stays mapped for the pool's lifetime.
            p.page_of_ptr(unsafe { p.page_ptr(a).add(last) }).unwrap(),
            a
        );
        assert_eq!(p.page_of_ptr(p.page_ptr(b)).unwrap(), b);
        // relocate_page moves the whole slot.
        p.relocate_page(a, b).unwrap();
        // SAFETY: page_ptr of a page this test allocated; offsets stay inside
        // the slot and the pool view stays mapped for the pool's lifetime.
        unsafe {
            assert_eq!(*(p.page_ptr(b).add(last) as *const u64), 0xaaaa);
        }
    }

    #[test]
    fn max_power_slots_alloc_and_store() {
        let layout = SlotLayout::new(SlotLayout::MAX_SLOT_POWER).unwrap();
        let mut p = PagePool::new(PoolConfig {
            initial_pages: 1,
            min_growth_pages: 1,
            view_capacity_pages: 4,
            slot_layout: layout,
            ..PoolConfig::default()
        })
        .unwrap();
        let a = p.alloc_page().unwrap();
        let mid = layout.slot_bytes() / 2;
        // SAFETY: page_ptr of a page this test allocated; offsets stay inside
        // the slot and the pool view stays mapped for the pool's lifetime.
        unsafe {
            *(p.page_ptr(a).add(mid) as *mut u64) = 0x2468;
            assert_eq!(*(p.page_ptr(a).add(mid) as *const u64), 0x2468);
        }
    }
}
