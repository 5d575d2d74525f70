//! The self-managed pool of physical pages (paper §2.1).
//!
//! One [`MemFile`] represents all physical memory the application wants to
//! be able to create shortcuts to. The pool
//!
//! * hands each page out at most once, so a page reads zeros until its
//!   owner writes it — nothing is freed, and the file never shrinks: a
//!   retired shortcut directory may still map any page of it,
//! * grows the file on demand (`ftruncate`) in chunks, populating nothing
//!   ahead of use: a page is faulted in by the first write of whoever it
//!   is handed out to, so a file with holes (see [`PagePool::alloc_page_at`])
//!   holds only the pages handed out, and
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
use crate::page::{PageIdx, PAGE_SIZE_4K};
use crate::retire::{PinStrategy, RetireList};
use crate::slot::SlotLayout;
use crate::stats::{RewireStats, StatsSnapshot};
use crate::varea::reserve_anon;
use std::sync::Arc;

/// VMAs charged for the pool's own linear view: the mapped file prefix
/// plus the `PROT_NONE` remainder of the fixed reservation.
const POOL_VIEW_VMAS: usize = 2;

/// [`PagePool::alloc_page`] grows an exhausted file by this fraction of
/// its size (at least [`PoolConfig::min_growth_pages`]): ≈ 6 calls per
/// doubling. Growth populates nothing, so the step costs no memory.
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

/// Tuning knobs for a [`PagePool`]. All `*_pages` counts are 4 KB pages.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Diagnostic name of the backing memfd.
    pub name: String,
    /// Initial file size in pages (the paper's indexes start at one
    /// bucket, i.e. one page).
    pub initial_pages: usize,
    /// Grow by at least this many pages per `ftruncate` (amortizes
    /// syscalls).
    pub min_growth_pages: usize,
    /// Size of the fixed virtual reservation holding the linear view, in
    /// pages. The pool can never grow beyond this. Virtual address space is
    /// effectively free on 64-bit; the default reserves 16 GB.
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
            pin_strategy: None,
        }
    }
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

    /// The pool's slot geometry: a stub of constants, kept only because
    /// the benchmark calls it (see [`SlotLayout`]).
    #[inline]
    pub fn layout(&self) -> SlotLayout {
        SlotLayout
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

/// The pool of physical 4 KB pages. See module docs.
pub struct PagePool {
    file: Arc<MemFile>,
    cfg: PoolConfig,
    /// Base of the fixed anonymous reservation that hosts the linear view.
    view_base: *mut u8,
    /// Slots of the file currently mapped into the view (== file length).
    file_pages: usize,
    /// One bit a page of the file, set once the page is handed out.
    handed_out: Vec<u64>,
    /// Every page below it is handed out.
    cursor: usize,
    allocated: usize,
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
            .field("cursor", &self.cursor)
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
        let file = Arc::new(MemFile::create(&cfg.name)?);
        let stats = Arc::new(RewireStats::default());

        // Reserve the fixed view as PROT_NONE anonymous memory: any stray
        // access to a not-yet-grown region faults loudly.
        let view_base = reserve_anon(cfg.view_capacity_pages, libc::PROT_NONE)?;
        stats.mmap_calls.add(1);
        let budget = cfg.vma_budget.clone().unwrap_or_else(VmaBudget::global);
        let usage = budget.register_pool(cfg.fair_share);
        BudgetBinding::with_pool(Arc::clone(&budget), Arc::clone(&usage)).charge(POOL_VIEW_VMAS);

        let cfg_pin_strategy = cfg.pin_strategy;
        let mut pool = PagePool {
            file,
            cfg,
            view_base,
            file_pages: 0,
            handed_out: Vec::new(),
            cursor: 0,
            allocated: 0,
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

    /// Create a pool with [`PoolConfig::default`].
    pub fn with_defaults() -> Result<Self> {
        Self::new(PoolConfig::default())
    }

    /// Grow the file (and the linear view) to exactly `new_pages` pages.
    fn grow_to(&mut self, new_pages: usize) -> Result<()> {
        debug_assert!(new_pages > self.file_pages);
        if new_pages > self.cfg.view_capacity_pages {
            return Err(Error::BadResize {
                current: self.file_pages,
                requested: new_pages,
            });
        }
        let old_pages = self.file_pages;
        self.file.resize(new_pages * PAGE_SIZE_4K)?;
        self.stats.pool_grows.add(1);

        // Map the newly valid file range into the view at the same offset,
        // unpopulated: the file's new pages stay holes until written.
        let delta = new_pages - old_pages;
        // SAFETY: the target range lies inside our own reservation; MAP_FIXED
        // replaces the PROT_NONE placeholder; offset/length are page aligned.
        let rc = unsafe {
            libc::mmap(
                self.view_base.add(old_pages * PAGE_SIZE_4K) as *mut libc::c_void,
                delta * PAGE_SIZE_4K,
                libc::PROT_READ | libc::PROT_WRITE,
                libc::MAP_SHARED | libc::MAP_FIXED,
                self.file.fd(),
                (old_pages * PAGE_SIZE_4K) as libc::off_t,
            )
        };
        if rc == libc::MAP_FAILED {
            return Err(Error::os("mmap"));
        }
        self.stats.mmap_calls.add(1);

        self.file_pages = new_pages;
        self.handed_out.resize(new_pages.div_ceil(64), 0);
        Ok(())
    }

    /// Grow the file by one step past `at_least` pages: by an eighth of its
    /// size, at least [`PoolConfig::min_growth_pages`], within the view.
    fn grow_past(&mut self, at_least: usize) -> Result<()> {
        let step = (self.file_pages / GROWTH_DIVISOR)
            .max(self.cfg.min_growth_pages)
            .max(1);
        let target = (self.file_pages + step)
            .max(at_least)
            .min(self.cfg.view_capacity_pages);
        if target < at_least || target <= self.file_pages {
            return Err(Error::BadResize {
                current: self.file_pages,
                requested: at_least.max(self.file_pages + 1),
            });
        }
        self.grow_to(target)
    }

    /// Whether page `i` of the file was handed out.
    fn is_handed_out(&self, i: usize) -> bool {
        self.handed_out[i / 64] >> (i % 64) & 1 == 1
    }

    /// Hand out page `i`, which never was.
    fn take(&mut self, i: usize) -> PageIdx {
        debug_assert!(!self.is_handed_out(i));
        self.handed_out[i / 64] |= 1 << (i % 64);
        self.allocated += 1;
        self.stats.pages_allocated.add(1);
        PageIdx(i)
    }

    /// Allocate one physical page: the lowest one never handed out,
    /// growing the file only when every page of it was. It reads zeros.
    pub fn alloc_page(&mut self) -> Result<PageIdx> {
        while self.cursor < self.file_pages && self.is_handed_out(self.cursor) {
            self.cursor += 1;
        }
        if self.cursor == self.file_pages {
            self.grow_past(self.file_pages + 1)?;
        }
        Ok(self.take(self.cursor))
    }

    /// Allocate page `page` itself when it is inside the view and was
    /// never handed out — growing the file over it, and leaving the pages
    /// between as holes — and any page ([`PagePool::alloc_page`]) when
    /// not. Extendible hashing puts the bucket of hash suffix `b` on page
    /// `b`, so a directory indexed by suffix maps runs of consecutive
    /// pages.
    pub fn alloc_page_at(&mut self, page: usize) -> Result<PageIdx> {
        if page < self.cfg.view_capacity_pages {
            if page >= self.file_pages {
                self.grow_past(page + 1)?;
            }
            if !self.is_handed_out(page) {
                return Ok(self.take(page));
            }
        }
        self.alloc_page()
    }

    /// Allocate `n` physically **contiguous** pages (contiguous in file
    /// offsets), so the run can later be rewired with a single `mmap` call.
    /// The run starts past the last page handed out, and the file grows
    /// just far enough to hold it ([`Error::BadResize`] past the view).
    pub fn alloc_run(&mut self, n: usize) -> Result<PageIdx> {
        if n == 0 {
            return Err(Error::invalid("alloc_run of zero pages"));
        }
        let start = (0..self.file_pages)
            .rfind(|&i| self.is_handed_out(i))
            .map_or(0, |i| i + 1);
        if start + n > self.file_pages {
            self.grow_to(start + n)?;
        }
        for i in start..start + n {
            self.take(i);
        }
        Ok(PageIdx(start))
    }

    /// Pointer to the start of pool page `page` in the linear view.
    ///
    /// The pointer stays valid for the pool's lifetime (the view base is a
    /// fixed reservation). Callers must uphold the aliasing rule from the
    /// crate docs when the same page is also rewired into a [`crate::VirtArea`].
    #[inline]
    pub fn page_ptr(&self, page: PageIdx) -> *mut u8 {
        assert!(page.0 < self.file_pages, "page {page} out of range");
        // SAFETY: in-bounds offset inside the mapped view.
        unsafe { self.view_base.add(page.0 * PAGE_SIZE_4K) }
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
        if p < base || p >= base + self.file_pages * PAGE_SIZE_4K {
            return Err(Error::invalid("pointer not inside the pool view"));
        }
        Ok(PageIdx((p - base) / PAGE_SIZE_4K))
    }

    /// Number of pages currently backed by the file.
    #[inline]
    pub fn file_pages(&self) -> usize {
        self.file_pages
    }

    /// Number of pages handed out.
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
                self.cfg.view_capacity_pages * PAGE_SIZE_4K,
            );
        }
    }
}

// SAFETY: the pool owns its mapping; moving it between threads is fine.
unsafe impl Send for PagePool {}
// SAFETY: no interior mutability — allocation and resizing take
// `&mut self`; the `&self` surface (page_ptr, view_base, page_of_ptr,
// counters) only reads plain fields. Cross-thread *rewiring* still goes
// through PoolHandle; shared references permit concurrent reads only.
unsafe impl Sync for PagePool {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::page_size;

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
    fn growth_populates_nothing_and_keeps_one_mapping() {
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
        assert_eq!(s.pages_populated, 0, "growth populates nothing");
        // Each step maps the next range of the same file right behind the
        // last, so the kernel merges them: the view stays the one VMA the
        // budget charges for it however many steps it took.
        assert!(s.pool_grows >= 20, "only {} growth steps", s.pool_grows);
        let base = p.view_base() as usize;
        let end = base + p.file_pages() * PAGE_SIZE_4K;
        assert_eq!(mappings_within(base, end), [(base, end)]);
    }

    /// Pages of the file, in 4 KB units, that hold memory.
    fn resident_pages(p: &PagePool) -> u64 {
        use std::os::unix::fs::MetadataExt;
        let file = std::fs::metadata(format!("/proc/self/fd/{}", p.handle().fd())).unwrap();
        file.blocks() * 512 / PAGE_SIZE_4K as u64
    }

    /// A page is handed out where asked while it is inside the view and
    /// was never handed out; otherwise another page is. The pages between
    /// are holes that hold no memory, and plain allocation fills them in.
    #[test]
    fn alloc_page_at_places_pages_and_leaves_holes() {
        let mut p = PagePool::new(PoolConfig {
            initial_pages: 1,
            min_growth_pages: 1,
            view_capacity_pages: 64,
            ..PoolConfig::default()
        })
        .unwrap();
        assert_eq!(p.alloc_page_at(0).unwrap(), PageIdx(0));
        assert_eq!(p.alloc_page_at(40).unwrap(), PageIdx(40));
        assert!(p.file_pages() > 40);
        for page in [0, 40] {
            // SAFETY: both pages were just handed out; the view maps them.
            unsafe { *(p.page_ptr(PageIdx(page)) as *mut u64) = 1 };
        }
        assert_eq!(resident_pages(&p), 2, "the pages between are holes");
        // Taken, or past the view: another page.
        let again = p.alloc_page_at(40).unwrap();
        let past = p.alloc_page_at(64).unwrap();
        assert!(![0, 40].contains(&again.0) && ![0, 40, again.0].contains(&past.0));
        // Plain allocation never hands out a page twice.
        let mut seen: Vec<usize> = vec![0, 40, again.0, past.0];
        while let Ok(page) = p.alloc_page() {
            seen.push(page.0);
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..64).collect::<Vec<_>>());
        assert_eq!(p.allocated_pages(), 64);
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
        // The file grew just enough to hold the run, and its pages are
        // handed out: asking for one of them again gets another page.
        assert_eq!(p.file_pages(), start.0 + 5);
        for i in 0..5 {
            let again = p.alloc_page_at(start.0 + i).unwrap();
            assert!(again.0 >= start.0 + 5, "page {again} handed out twice");
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

    #[test]
    fn handle_reports_file_len() {
        let mut p = small_pool();
        let h = p.handle();
        let before = h.file_len();
        for _ in 0..10 {
            p.alloc_page().unwrap();
        }
        assert!(h.file_len() >= before);
        assert_eq!(h.file_len(), p.file_pages() * PAGE_SIZE_4K);
    }
}
