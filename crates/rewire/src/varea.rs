//! Virtual memory areas and the rewiring operation itself (paper §2.1).
//!
//! A [`VirtArea`] is the *shortcut inner node's* memory: a consecutive
//! virtual area of `k` pages reserved with `mmap(MAP_PRIVATE | MAP_ANON)`.
//! Each page (= slot) can then be **rewired** to a physical pool page with
//! `mmap(MAP_SHARED | MAP_FIXED, fd, offset)`, replacing the page-table
//! entry for that single virtual page. Reads/writes through the page then
//! go straight to the leaf's physical memory — one hardware-resolved
//! indirection instead of three.

use crate::budget::BudgetBinding;
use crate::error::{Error, Result};
use crate::page::{page_size, PageIdx, PAGE_SIZE_4K};
use crate::pool::PoolHandle;
use crate::stats::Counter;
use std::sync::OnceLock;

/// Slots one vectored zap call covers (the kernel takes at most 1024).
pub const ZAP_BATCH: usize = 512;

/// One `(base, length)` range of a [`ZapCall`].
pub type ZapRange = libc::iovec;

/// One vectored `MADV_DONTNEED` over `ranges` of this process: the bytes
/// advised, negative when refused. See [`VirtArea::zap`].
///
/// # Safety
///
/// Every range must be page aligned and hold nothing but views of a file
/// (or untouched anonymous pages): whatever else it held is lost.
pub type ZapCall = unsafe fn(&[ZapRange]) -> isize;

/// `pidfd_open(getpid())`, opened by the first [`zap_call`].
static SELF_PIDFD: OnceLock<libc::c_long> = OnceLock::new();

/// The [`ZapCall`] of [`zap_call`].
///
/// # Safety
///
/// As [`ZapCall`].
unsafe fn process_madvise_dontneed(ranges: &[ZapRange]) -> isize {
    let pidfd = *SELF_PIDFD.get().expect("zap_call() hands this out");
    let (iov, n) = (ranges.as_ptr(), ranges.len());
    // SAFETY: the array outlives the call; what the ranges may cover is
    // the caller's obligation.
    unsafe {
        libc::syscall(
            libc::SYS_process_madvise,
            pidfd,
            iov,
            n,
            libc::MADV_DONTNEED,
            0,
        ) as isize
    }
}

/// The process's [`ZapCall`], or `None` where the kernel does not offer
/// it: `process_madvise` on the caller's own pidfd takes `MADV_DONTNEED`
/// from Linux 6.13 on; older kernels answer `EINVAL`, a seccomp filter
/// `EPERM` or `ENOSYS`. Probed once per process, on a scratch page.
pub fn zap_call() -> Option<ZapCall> {
    static PROBE: OnceLock<bool> = OnceLock::new();
    let supported = *PROBE.get_or_init(|| {
        // SAFETY: pidfd_open takes two scalars and returns an fd or -1.
        let pidfd = *SELF_PIDFD.get_or_init(|| unsafe {
            libc::syscall(libc::SYS_pidfd_open, std::process::id() as libc::c_long, 0)
        });
        let Ok(area) = VirtArea::reserve(1) else {
            return false;
        };
        let range = ZapRange {
            iov_base: area.base() as *mut libc::c_void,
            iov_len: page_size(),
        };
        // SAFETY: the range is the one untouched anonymous page of `area`.
        pidfd >= 0 && unsafe { process_madvise_dontneed(&[range]) } == page_size() as isize
    });
    supported.then_some(process_madvise_dontneed as ZapCall)
}

/// Reserve `pages` 4 KB pages of anonymous memory at a kernel-chosen
/// address.
pub(crate) fn reserve_anon(pages: usize, prot: libc::c_int) -> Result<*mut u8> {
    let flags = libc::MAP_PRIVATE | libc::MAP_ANONYMOUS | libc::MAP_NORESERVE;
    // SAFETY: fresh anonymous reservation, kernel-chosen address.
    let p = unsafe {
        libc::mmap(
            std::ptr::null_mut(),
            pages * page_size(),
            prot,
            flags,
            -1,
            0,
        )
    };
    if p == libc::MAP_FAILED {
        return Err(Error::os("mmap"));
    }
    Ok(p.cast())
}

/// Current mapping of one page of a [`VirtArea`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mapping {
    /// Reserved but not rewired: backed by (lazily allocated) anonymous
    /// memory. Reading yields zeros; this is the `null`-pointer analogue.
    Anon,
    /// Rewired to the pool page with this index.
    Pool(PageIdx),
}

/// Whether the kernel merges the VMAs of two *adjacent* pages: anonymous
/// neighbors merge, and pool-backed neighbors merge exactly when their file
/// offsets are consecutive. Two neighbors aliasing the *same* pool page
/// (extendible hashing's fan-in > 1) never merge — each costs its own VMA.
#[inline]
fn mergeable(a: Mapping, b: Mapping) -> bool {
    match (a, b) {
        (Mapping::Anon, Mapping::Anon) => true,
        (Mapping::Pool(p), Mapping::Pool(q)) => q.0 == p.0 + 1,
        _ => false,
    }
}

/// Estimate the VMAs a `pages`-page area will occupy after applying
/// `assignments` (sorted by virtual page, duplicate-free) to a fresh
/// reservation: one VMA per maximal mergeable run, counting the anonymous
/// gaps. This is the exact initial footprint a directory rebuild charges
/// the budget (it equals [`VirtArea::vma_estimate`] right after
/// `rewire_batch`). Worst-case admission reserves one VMA per page
/// instead, because later per-slot remappings can fragment merged runs up
/// to that bound; exact admission reserves this estimate, and the mapper
/// sends a directory whose pending updates could fragment it past the
/// budget back through admission, which publishes it coarser.
pub fn planned_vmas(pages: usize, assignments: &[(usize, PageIdx)]) -> usize {
    let mut vmas = 0usize;
    let mut prev: Option<(usize, PageIdx)> = None;
    for &(v, p) in assignments {
        match prev {
            None => {
                if v > 0 {
                    vmas += 1; // leading anonymous run
                }
                vmas += 1;
            }
            Some((pv, pp)) => {
                if v == pv + 1 {
                    if p.0 != pp.0 + 1 {
                        vmas += 1; // adjacent but not offset-consecutive
                    }
                } else {
                    vmas += 2; // anonymous gap + new run
                }
            }
        }
        prev = Some((v, p));
    }
    match prev {
        None => 1, // untouched reservation: one anonymous VMA
        Some((pv, _)) => {
            if pv + 1 < pages {
                vmas += 1; // trailing anonymous run
            }
            vmas
        }
    }
}

/// A consecutive virtual memory area whose pages can be individually
/// rewired to pool pages. See module docs.
pub struct VirtArea {
    base: *mut u8,
    pages: usize,
    /// Shadow of the kernel's view of each page, used for introspection,
    /// tests, and coalescing decisions.
    map: Vec<Mapping>,
    mmap_calls: Counter,
    populate_default: bool,
    /// Estimated VMAs this area occupies (maximal mergeable runs of `map`),
    /// maintained incrementally on every remapping.
    vmas: usize,
    /// Budget (plus per-pool attribution) the estimate is charged
    /// against, if attached.
    budget: Option<BudgetBinding>,
}

impl std::fmt::Debug for VirtArea {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VirtArea")
            .field("base", &self.base)
            .field("pages", &self.pages)
            .finish()
    }
}

impl VirtArea {
    /// Reserve a consecutive virtual area of `pages` 4 KB pages (step (1)
    /// of the paper's construction). This is a mere reservation: no
    /// physical memory is committed and the page table is untouched.
    pub fn reserve(pages: usize) -> Result<Self> {
        if pages == 0 {
            return Err(Error::invalid("cannot reserve an empty area"));
        }
        let base = reserve_anon(pages, libc::PROT_READ | libc::PROT_WRITE)?;
        let area = VirtArea {
            base,
            pages,
            map: vec![Mapping::Anon; pages],
            mmap_calls: Counter::default(),
            populate_default: false,
            vmas: 1,
            budget: None,
        };
        area.mmap_calls.add(1); // the reservation
        Ok(area)
    }

    /// Reserve an area that eagerly populates page-table entries on every
    /// subsequent rewiring (the paper's `MAP_POPULATE` variant).
    pub fn reserve_populated(pages: usize) -> Result<Self> {
        let mut a = Self::reserve(pages)?;
        a.populate_default = true;
        Ok(a)
    }

    /// Charge this area's VMA estimate against `binding` (a budget plus
    /// its per-pool attribution) on every future remapping, until the area
    /// is dropped (which releases the charge); replaces any previously
    /// attached binding. Nothing is charged now: the caller has already
    /// accounted this area's current estimate against the binding (by
    /// settling a worst-case [`crate::BudgetReservation`] down to
    /// [`VirtArea::vma_estimate`]). The binding's pool attribution must
    /// match the settled reservation's, or the eventual release will be
    /// misattributed.
    pub fn attach_budget_prepaid(&mut self, binding: BudgetBinding) {
        if let Some(old) = self.budget.take() {
            old.release(self.vmas);
        }
        self.budget = Some(binding);
    }

    /// Estimated VMAs this area currently occupies: one per maximal run of
    /// pages the kernel can keep in a single VMA (see [`planned_vmas`]).
    #[inline]
    pub fn vma_estimate(&self) -> usize {
        self.vmas
    }

    /// Count the mergeable boundaries in `[lo, hi)` (boundary `b` sits
    /// between pages `b` and `b + 1`).
    fn boundary_joins(&self, lo: usize, hi: usize) -> usize {
        (lo..hi)
            .filter(|&b| mergeable(self.map[b], self.map[b + 1]))
            .count()
    }

    /// Re-derive the VMA estimate after pages `[vpage, vpage + n)` changed,
    /// given the mergeable-boundary count of that window from before the
    /// change. Only boundaries touching the window can have flipped.
    fn apply_vma_delta(&mut self, joins_before: usize, lo: usize, hi: usize) {
        let joins_after = self.boundary_joins(lo, hi);
        let new_vmas = self.vmas + joins_before - joins_after;
        match new_vmas.cmp(&self.vmas) {
            std::cmp::Ordering::Greater => {
                if let Some(b) = &self.budget {
                    b.charge(new_vmas - self.vmas);
                }
            }
            std::cmp::Ordering::Less => {
                if let Some(b) = &self.budget {
                    b.release(self.vmas - new_vmas);
                }
            }
            std::cmp::Ordering::Equal => {}
        }
        self.vmas = new_vmas;
    }

    /// Number of pages (slots) in the area.
    #[inline]
    pub fn pages(&self) -> usize {
        self.pages
    }

    /// Base address of the area.
    #[inline]
    pub fn base(&self) -> *mut u8 {
        self.base
    }

    /// Pointer to the start of page `i`.
    #[inline]
    pub fn page_ptr(&self, i: usize) -> *mut u8 {
        assert!(i < self.pages, "page {i} out of range ({})", self.pages);
        // SAFETY: in-bounds offset within the reservation.
        unsafe { self.base.add(i * PAGE_SIZE_4K) }
    }

    /// The current mapping of page `i` (shadow state).
    #[inline]
    pub fn mapping(&self, i: usize) -> Mapping {
        self.map[i]
    }

    /// Number of `mmap` calls this area has issued so far (reservation,
    /// rewirings, resets). The paper's §3.1 "beware" is about exactly this
    /// number, so it is tracked per area.
    pub fn mmap_calls(&self) -> u64 {
        self.mmap_calls.get()
    }

    /// Rewire page `vpage` to pool page `ppage` (step (2) of the paper's
    /// construction): replaces the existing mapping via
    /// `mmap(MAP_SHARED | MAP_FIXED)`. With `populate`, the new page-table
    /// entry is installed eagerly instead of on first access.
    pub fn rewire(&mut self, vpage: usize, pool: &PoolHandle, ppage: PageIdx) -> Result<()> {
        self.rewire_run(vpage, pool, ppage, 1)
    }

    /// Rewire `n` consecutive virtual pages `[vpage, vpage+n)` to `n`
    /// consecutive pool pages `[ppage, ppage+n)` with a **single** `mmap`
    /// call (the paper's coalescing optimization for neighboring slots that
    /// map to neighboring physical pages).
    pub fn rewire_run(
        &mut self,
        vpage: usize,
        pool: &PoolHandle,
        ppage: PageIdx,
        n: usize,
    ) -> Result<()> {
        if n == 0 {
            return Err(Error::invalid("rewire_run of zero pages"));
        }
        if vpage + n > self.pages {
            return Err(Error::invalid(format!(
                "rewire range {vpage}..{} exceeds area of {} pages",
                vpage + n,
                self.pages
            )));
        }
        let byte_off = ppage.byte_offset();
        if byte_off + n * PAGE_SIZE_4K > pool.file_len() {
            return Err(Error::invalid(format!(
                "pool range {ppage}+{n} beyond end of pool file"
            )));
        }
        let mut flags = libc::MAP_SHARED | libc::MAP_FIXED;
        if self.populate_default {
            flags |= libc::MAP_POPULATE;
        }
        // SAFETY: target range is inside our reservation; the pool range is
        // inside the file (checked above); MAP_FIXED replaces our own pages.
        let rc = unsafe {
            libc::mmap(
                self.page_ptr(vpage) as *mut libc::c_void,
                n * PAGE_SIZE_4K,
                libc::PROT_READ | libc::PROT_WRITE,
                flags,
                pool.fd(),
                byte_off as libc::off_t,
            )
        };
        if rc == libc::MAP_FAILED {
            return Err(Error::os("mmap"));
        }
        self.mmap_calls.add(1);
        pool.stats().mmap_calls.add(1);
        pool.stats().pages_rewired.add(n as u64);
        if self.populate_default {
            pool.stats().pages_populated.add(n as u64);
        }
        let (lo, hi) = (
            vpage.saturating_sub(1),
            (vpage + n).min(self.pages.saturating_sub(1)),
        );
        let joins_before = self.boundary_joins(lo, hi);
        for i in 0..n {
            self.map[vpage + i] = Mapping::Pool(PageIdx(ppage.0 + i));
        }
        self.apply_vma_delta(joins_before, lo, hi);
        Ok(())
    }

    /// Apply a batch of `(virtual page, pool page)` assignments, coalescing
    /// maximal runs where both sides are consecutive into single `mmap`
    /// calls. Returns the number of `mmap` calls issued (ablation A1).
    ///
    /// Coalescing follows the kernel's VMA-merge rule (anonymous neighbors
    /// merge; pool neighbors merge iff their file offsets are consecutive),
    /// so it applies inside aliased fan-in > 1 assignments too: wherever two
    /// adjacent slots map *contiguous* pool pages — including the boundary
    /// between two aliased groups over neighboring buckets — they collapse
    /// into one `mmap` call and one VMA. Each maximal run found here is
    /// exactly one VMA afterwards, so the number of calls equals
    /// [`planned_vmas`] minus the anonymous runs.
    ///
    /// Assignments must be sorted by virtual page and free of duplicates;
    /// this is the natural order in which an index emits directory updates.
    pub fn rewire_batch(
        &mut self,
        pool: &PoolHandle,
        assignments: &[(usize, PageIdx)],
    ) -> Result<u64> {
        let mut calls = 0u64;
        let mut i = 0;
        while i < assignments.len() {
            let (v0, p0) = assignments[i];
            let mut run = 1;
            while i + run < assignments.len() {
                let (v, p) = assignments[i + run];
                let (pv, pp) = assignments[i + run - 1];
                if v == pv + 1 && mergeable(Mapping::Pool(pp), Mapping::Pool(p)) {
                    run += 1;
                } else {
                    break;
                }
            }
            self.rewire_run(v0, pool, p0, run)?;
            calls += 1;
            i += run;
        }
        Ok(calls)
    }

    /// Drop the page-table entries of the pool-backed slots `assignments`
    /// is about to rewire, [`ZAP_BATCH`] per vectored call, so the
    /// rewiring `mmap`s find nothing to flush: one TLB shootdown per call
    /// here instead of one per slot there. A zapped slot still maps its
    /// pool page; a reader that touches it merely faults the page back in.
    /// Returns the slots zapped, `None` once a call is refused or short —
    /// the rewiring needs none of this, the caller carries on without.
    pub fn zap(&self, call: ZapCall, assignments: &[(usize, PageIdx)]) -> Option<usize> {
        let len = PAGE_SIZE_4K;
        let ranges: Vec<ZapRange> = assignments
            .iter()
            .filter(|&&(v, _)| matches!(self.map[v], Mapping::Pool(_)))
            .map(|&(v, _)| ZapRange {
                iov_base: self.page_ptr(v) as *mut libc::c_void,
                iov_len: len,
            })
            .collect();
        // SAFETY: every range is one whole page of this area (`page_ptr`
        // checks the bound) that the shadow map says is a MAP_SHARED view
        // of the pool file: its contents live in the file.
        let whole = |batch: &[ZapRange]| unsafe { call(batch) } == (batch.len() * len) as isize;
        ranges.chunks(ZAP_BATCH).all(whole).then_some(ranges.len())
    }

    /// Reset page `vpage` back to the reserved (anonymous) state — the
    /// analogue of storing a `null` pointer in a traditional slot.
    pub fn reset(&mut self, vpage: usize) -> Result<()> {
        if vpage >= self.pages {
            return Err(Error::invalid("reset page out of range"));
        }
        // SAFETY: replacing a page inside our reservation with anon memory.
        let rc = unsafe {
            libc::mmap(
                self.page_ptr(vpage) as *mut libc::c_void,
                PAGE_SIZE_4K,
                libc::PROT_READ | libc::PROT_WRITE,
                libc::MAP_PRIVATE | libc::MAP_ANONYMOUS | libc::MAP_FIXED | libc::MAP_NORESERVE,
                -1,
                0,
            )
        };
        if rc == libc::MAP_FAILED {
            return Err(Error::os("mmap"));
        }
        self.mmap_calls.add(1);
        let (lo, hi) = (
            vpage.saturating_sub(1),
            (vpage + 1).min(self.pages.saturating_sub(1)),
        );
        let joins_before = self.boundary_joins(lo, hi);
        self.map[vpage] = Mapping::Anon;
        self.apply_vma_delta(joins_before, lo, hi);
        Ok(())
    }

    /// Touch every rewired page (one read per page) to force page-table
    /// population, as the paper does between phases (3) and (4) of Table 1.
    /// Returns the number of pages touched.
    pub fn populate_by_touch(&self) -> usize {
        let mut touched = 0;
        for (i, m) in self.map.iter().enumerate() {
            if matches!(m, Mapping::Pool(_)) {
                // SAFETY: in-bounds read of a mapped page. Volatile so the
                // read is not optimized away.
                unsafe {
                    std::ptr::read_volatile(self.page_ptr(i));
                }
                touched += 1;
            }
        }
        touched
    }
}

/// Rewire a single page at an arbitrary virtual address to `byte_offset` of
/// the file behind `fd`, bypassing [`VirtArea`] bookkeeping.
///
/// This exists for experiments that remap pages of a shared region from a
/// *different thread* than the region's owner (the paper's TLB-shootdown
/// experiment, §3.3), where `&mut VirtArea` is unavailable by design.
///
/// # Safety
///
/// `addr` must be page aligned and inside a mapping the caller owns;
/// `byte_offset` must be page aligned and within the file; concurrent
/// readers of the page must tolerate either the old or the new contents.
pub unsafe fn rewire_page_raw(
    addr: *mut u8,
    fd: std::os::unix::io::RawFd,
    byte_offset: usize,
    populate: bool,
) -> Result<()> {
    let mut flags = libc::MAP_SHARED | libc::MAP_FIXED;
    if populate {
        flags |= libc::MAP_POPULATE;
    }
    // SAFETY: caller guarantees (see fn docs) that `addr` is a page-aligned
    // address inside a mapping it owns and `byte_offset` is page aligned
    // and within the file, so MAP_FIXED replaces only the caller's page.
    let rc = unsafe {
        libc::mmap(
            addr as *mut libc::c_void,
            page_size(),
            libc::PROT_READ | libc::PROT_WRITE,
            flags,
            fd,
            byte_offset as libc::off_t,
        )
    };
    if rc == libc::MAP_FAILED {
        return Err(Error::os("mmap"));
    }
    Ok(())
}

impl Drop for VirtArea {
    fn drop(&mut self) {
        if let Some(b) = self.budget.take() {
            b.release(self.vmas);
        }
        // SAFETY: unmapping our own reservation exactly once; rewired pages
        // merely drop their reference to the pool file's pages.
        unsafe {
            libc::munmap(self.base as *mut libc::c_void, self.pages * PAGE_SIZE_4K);
        }
    }
}

// SAFETY: the area owns its mapping exclusively; sending it to another
// thread transfers that ownership.
unsafe impl Send for VirtArea {}
// SAFETY: all remapping takes `&mut self`; the `&self` surface (page_ptr,
// mapping, populate_by_touch, mmap_calls) reads plain fields, a counter,
// or mapped memory. Shared references therefore permit only reads.
unsafe impl Sync for VirtArea {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{PagePool, PoolConfig};

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
    fn reserve_reads_zero() {
        let a = VirtArea::reserve(4).unwrap();
        for i in 0..4 {
            assert_eq!(a.mapping(i), Mapping::Anon);
            // SAFETY: page_ptr stays inside the reserved area (slots wired by the
            // rewire calls in this test); the area and pool view outlive the access.
            unsafe {
                assert_eq!(*a.page_ptr(i), 0);
            }
        }
    }

    #[test]
    fn rewire_aliases_pool_page() {
        let mut p = pool();
        let h = p.handle();
        let leaf = p.alloc_page().unwrap();
        // SAFETY: page_ptr stays inside the reserved area (slots wired by the
        // rewire calls in this test); the area and pool view outlive the access.
        unsafe {
            *(p.page_ptr(leaf) as *mut u64) = 0xfeed;
        }
        let mut a = VirtArea::reserve(4).unwrap();
        a.rewire(2, &h, leaf).unwrap();
        assert_eq!(a.mapping(2), Mapping::Pool(leaf));
        // SAFETY: page_ptr stays inside the reserved area (slots wired by the
        // rewire calls in this test); the area and pool view outlive the access.
        unsafe {
            // Read through the shortcut sees the leaf's data…
            assert_eq!(*(a.page_ptr(2) as *const u64), 0xfeed);
            // …and writes through the shortcut are visible in the pool view.
            *(a.page_ptr(2) as *mut u64) = 0xbeef;
            assert_eq!(*(p.page_ptr(leaf) as *const u64), 0xbeef);
        }
    }

    #[test]
    fn two_slots_can_share_one_leaf() {
        // The extendible-hashing fan-in situation: multiple directory slots
        // reference the same bucket.
        let mut p = pool();
        let h = p.handle();
        let leaf = p.alloc_page().unwrap();
        let mut a = VirtArea::reserve(2).unwrap();
        a.rewire(0, &h, leaf).unwrap();
        a.rewire(1, &h, leaf).unwrap();
        // SAFETY: page_ptr stays inside the reserved area (slots wired by the
        // rewire calls in this test); the area and pool view outlive the access.
        unsafe {
            *(a.page_ptr(0) as *mut u64) = 7;
            assert_eq!(*(a.page_ptr(1) as *const u64), 7);
        }
    }

    #[test]
    fn rewire_replaces_previous_mapping() {
        let mut p = pool();
        let h = p.handle();
        let l1 = p.alloc_page().unwrap();
        let l2 = p.alloc_page().unwrap();
        // SAFETY: page_ptr stays inside the reserved area (slots wired by the
        // rewire calls in this test); the area and pool view outlive the access.
        unsafe {
            *(p.page_ptr(l1) as *mut u64) = 1;
            *(p.page_ptr(l2) as *mut u64) = 2;
        }
        let mut a = VirtArea::reserve(1).unwrap();
        a.rewire(0, &h, l1).unwrap();
        // SAFETY: page_ptr stays inside the reserved area (slots wired by the
        // rewire calls in this test); the area and pool view outlive the access.
        unsafe {
            assert_eq!(*(a.page_ptr(0) as *const u64), 1);
        }
        a.rewire(0, &h, l2).unwrap();
        // SAFETY: page_ptr stays inside the reserved area (slots wired by the
        // rewire calls in this test); the area and pool view outlive the access.
        unsafe {
            assert_eq!(*(a.page_ptr(0) as *const u64), 2);
        }
        // The old leaf is untouched by the remap.
        // SAFETY: page_ptr stays inside the reserved area (slots wired by the
        // rewire calls in this test); the area and pool view outlive the access.
        unsafe {
            assert_eq!(*(p.page_ptr(l1) as *const u64), 1);
        }
    }

    #[test]
    fn reset_returns_to_anon() {
        let mut p = pool();
        let h = p.handle();
        let leaf = p.alloc_page().unwrap();
        // SAFETY: page_ptr stays inside the reserved area (slots wired by the
        // rewire calls in this test); the area and pool view outlive the access.
        unsafe {
            *(p.page_ptr(leaf) as *mut u64) = 99;
        }
        let mut a = VirtArea::reserve(1).unwrap();
        a.rewire(0, &h, leaf).unwrap();
        a.reset(0).unwrap();
        assert_eq!(a.mapping(0), Mapping::Anon);
        // SAFETY: page_ptr stays inside the reserved area (slots wired by the
        // rewire calls in this test); the area and pool view outlive the access.
        unsafe {
            assert_eq!(*(a.page_ptr(0) as *const u64), 0);
            // Leaf data survives.
            assert_eq!(*(p.page_ptr(leaf) as *const u64), 99);
        }
    }

    #[test]
    fn rewire_run_maps_contiguously() {
        let mut p = pool();
        let h = p.handle();
        let start = p.alloc_run(4).unwrap();
        // SAFETY: page_ptr stays inside the reserved area (slots wired by the
        // rewire calls in this test); the area and pool view outlive the access.
        unsafe {
            for i in 0..4 {
                *(p.page_ptr(PageIdx(start.0 + i)) as *mut u64) = 100 + i as u64;
            }
        }
        let mut a = VirtArea::reserve(4).unwrap();
        let calls_before = a.mmap_calls();
        a.rewire_run(0, &h, start, 4).unwrap();
        assert_eq!(a.mmap_calls() - calls_before, 1);
        // SAFETY: page_ptr stays inside the reserved area (slots wired by the
        // rewire calls in this test); the area and pool view outlive the access.
        unsafe {
            for i in 0..4 {
                assert_eq!(*(a.page_ptr(i) as *const u64), 100 + i as u64);
            }
        }
    }

    #[test]
    fn rewire_batch_coalesces_runs() {
        let mut p = pool();
        let h = p.handle();
        let run = p.alloc_run(4).unwrap(); // contiguous p0..p3
        let lone = p.alloc_page().unwrap();
        let mut a = VirtArea::reserve(8).unwrap();
        // slots 0..4 -> contiguous run; slot 6 -> lone page.
        let assignments = [
            (0, run),
            (1, PageIdx(run.0 + 1)),
            (2, PageIdx(run.0 + 2)),
            (3, PageIdx(run.0 + 3)),
            (6, lone),
        ];
        let calls = a.rewire_batch(&h, &assignments).unwrap();
        assert_eq!(calls, 2);
        assert_eq!(a.mapping(3), Mapping::Pool(PageIdx(run.0 + 3)));
        assert_eq!(a.mapping(6), Mapping::Pool(lone));
        assert_eq!(a.mapping(5), Mapping::Anon);
    }

    #[test]
    fn rewire_out_of_range_rejected() {
        let mut p = pool();
        let h = p.handle();
        let leaf = p.alloc_page().unwrap();
        let mut a = VirtArea::reserve(2).unwrap();
        assert!(a.rewire(2, &h, leaf).is_err());
        assert!(a.rewire_run(1, &h, leaf, 2).is_err());
    }

    #[test]
    fn rewire_beyond_pool_rejected() {
        let p = pool();
        let h = p.handle();
        let mut a = VirtArea::reserve(1).unwrap();
        let beyond = PageIdx(p.file_pages() + 100);
        assert!(a.rewire(0, &h, beyond).is_err());
    }

    #[test]
    fn populated_reserve_counts_touches() {
        let mut p = pool();
        let h = p.handle();
        let l = p.alloc_page().unwrap();
        let mut a = VirtArea::reserve_populated(2).unwrap();
        a.rewire(0, &h, l).unwrap();
        assert_eq!(a.populate_by_touch(), 1);
    }

    #[test]
    fn empty_reserve_rejected() {
        assert!(VirtArea::reserve(0).is_err());
    }

    #[test]
    fn vma_estimate_tracks_remappings() {
        let mut p = pool();
        let h = p.handle();
        let run = p.alloc_run(4).unwrap();
        let mut a = VirtArea::reserve(8).unwrap();
        assert_eq!(a.vma_estimate(), 1); // one anonymous VMA

        a.rewire(3, &h, run).unwrap();
        assert_eq!(a.vma_estimate(), 3); // anon | pool | anon

        // Contiguous neighbor merges into the same VMA.
        a.rewire(4, &h, PageIdx(run.0 + 1)).unwrap();
        assert_eq!(a.vma_estimate(), 3);

        // Aliasing the same pool page next door cannot merge.
        a.rewire(5, &h, PageIdx(run.0 + 1)).unwrap();
        assert_eq!(a.vma_estimate(), 4);

        // Resetting back to anon re-merges with the anon tail.
        a.reset(5).unwrap();
        assert_eq!(a.vma_estimate(), 3);
        a.reset(3).unwrap();
        a.reset(4).unwrap();
        assert_eq!(a.vma_estimate(), 1);
    }

    /// Lines of `/proc/self/maps` inside `area`.
    fn kernel_vmas(area: &VirtArea) -> usize {
        let (lo, hi) = (
            area.base() as usize,
            area.base() as usize + area.pages() * PAGE_SIZE_4K,
        );
        std::fs::read_to_string("/proc/self/maps")
            .unwrap()
            .lines()
            .filter_map(|line| {
                let (start, end) = line.split_whitespace().next()?.split_once('-')?;
                let start = usize::from_str_radix(start, 16).ok()?;
                let end = usize::from_str_radix(end, 16).ok()?;
                (start >= lo && end <= hi).then_some(())
            })
            .count()
    }

    /// The estimate is the kernel's count, on a suffix-ordered directory:
    /// a fan-in-2 copy (two runs over the same pages), then single-slot
    /// updates, in scattered order, that move upper-half slots onto pages
    /// of their own — each first a VMA of its own, then merged into its
    /// neighbours once they follow, until the whole area is one run.
    #[test]
    fn vma_estimate_matches_the_kernel_on_a_suffix_layout() {
        const SLOTS: usize = 64;
        let mut p = PagePool::new(PoolConfig {
            initial_pages: SLOTS,
            min_growth_pages: SLOTS,
            view_capacity_pages: SLOTS,
            ..PoolConfig::default()
        })
        .unwrap();
        let h = p.handle();
        let run = p.alloc_run(SLOTS).unwrap();
        let mut a = VirtArea::reserve(SLOTS).unwrap();
        let copy: Vec<(usize, PageIdx)> = (0..SLOTS)
            .map(|s| (s, PageIdx(run.0 + s % (SLOTS / 2))))
            .collect();
        a.rewire_batch(&h, &copy).unwrap();
        assert_eq!(a.vma_estimate(), 2);
        assert_eq!(kernel_vmas(&a), a.vma_estimate());
        for i in 0..SLOTS / 2 {
            let slot = SLOTS / 2 + i * 13 % (SLOTS / 2);
            a.rewire(slot, &h, PageIdx(run.0 + slot)).unwrap();
            assert_eq!(kernel_vmas(&a), a.vma_estimate(), "after slot {slot}");
        }
        assert_eq!(a.vma_estimate(), 1);
    }

    #[test]
    fn fanin_batch_coalesces_bucket_boundaries() {
        // Fan-in 2 over 4 contiguous buckets: p0,p0,p1,p1,p2,p2,p3,p3.
        // Within a bucket the aliased pair cannot merge, but every bucket
        // boundary (slots 1-2, 3-4, 5-6) is offset-consecutive and must
        // collapse: slots - (buckets - 1) calls, not one per slot.
        let mut p = pool();
        let h = p.handle();
        let run = p.alloc_run(4).unwrap();
        let mut a = VirtArea::reserve(8).unwrap();
        let assignments: Vec<(usize, PageIdx)> =
            (0..8).map(|i| (i, PageIdx(run.0 + i / 2))).collect();
        let calls = a.rewire_batch(&h, &assignments).unwrap();
        assert_eq!(calls, 8 - (4 - 1));
        assert_eq!(a.vma_estimate(), 8 - (4 - 1));
        assert_eq!(planned_vmas(8, &assignments), 8 - (4 - 1));
        for (i, &(_, pg)) in assignments.iter().enumerate() {
            assert_eq!(a.mapping(i), Mapping::Pool(pg));
        }
    }

    #[test]
    fn planned_vmas_matches_estimate_for_patterns() {
        let mut p = pool();
        let h = p.handle();
        let run = p.alloc_run(6).unwrap();
        let patterns: Vec<Vec<(usize, PageIdx)>> = vec![
            vec![],                                                // untouched
            (0..6).map(|i| (i, PageIdx(run.0 + i))).collect(),     // identity
            (0..6).map(|i| (i, PageIdx(run.0 + i / 3))).collect(), // fan-in 3
            vec![(1, run), (2, PageIdx(run.0 + 1)), (5, run)],     // gaps
            (0..6).map(|i| (i, PageIdx(run.0 + 5 - i))).collect(), // reversed
        ];
        for pat in patterns {
            let mut a = VirtArea::reserve(6).unwrap();
            a.rewire_batch(&h, &pat).unwrap();
            assert_eq!(a.vma_estimate(), planned_vmas(6, &pat), "pattern {pat:?}");
        }
    }

    thread_local! {
        static ZAP_CALLS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    /// The process's call where there is one, a stand-in that advises
    /// everything (and drops nothing) elsewhere; counts itself.
    ///
    /// # Safety
    ///
    /// As [`ZapCall`].
    unsafe fn counted_zap(ranges: &[ZapRange]) -> isize {
        ZAP_CALLS.with(|c| c.set(c.get() + 1));
        match zap_call() {
            // SAFETY: the caller's obligation, passed on.
            Some(real) => unsafe { real(ranges) },
            None => ranges.iter().map(|r| r.iov_len).sum::<usize>() as isize,
        }
    }

    /// # Safety
    ///
    /// None: it touches nothing.
    unsafe fn refused_zap(_: &[ZapRange]) -> isize {
        -1
    }

    #[test]
    fn zap_keeps_contents_and_batches_its_calls() {
        let mut p = pool();
        let h = p.handle();
        let leaves = [p.alloc_page().unwrap(), p.alloc_page().unwrap()];
        for (i, &leaf) in leaves.iter().enumerate() {
            // SAFETY: page_ptr of a page just allocated from the live pool.
            unsafe {
                *(p.page_ptr(leaf) as *mut u64) = 40 + i as u64;
            }
        }
        let slots = ZAP_BATCH + 3;
        let mut a = VirtArea::reserve_populated(slots + 1).unwrap();
        let wired: Vec<(usize, PageIdx)> = (0..slots).map(|v| (v, leaves[v % 2])).collect();
        a.rewire_batch(&h, &wired).unwrap();
        // The never-wired last slot is skipped: it is no view of the file.
        let mut all = wired.clone();
        all.push((slots, leaves[0]));
        ZAP_CALLS.with(|c| c.set(0));
        assert_eq!(a.zap(counted_zap, &all), Some(slots));
        assert_eq!(ZAP_CALLS.with(|c| c.get()), 2, "ceil(515 / ZAP_BATCH)");
        for &(v, _) in &wired {
            // SAFETY: page_ptr stays inside the reserved area; a zapped
            // slot still maps its pool page and faults it back in.
            unsafe {
                assert_eq!(*(a.page_ptr(v) as *const u64), 40 + (v % 2) as u64);
            }
        }
        assert_eq!(a.vma_estimate(), planned_vmas(slots + 1, &wired));
        assert_eq!(a.zap(refused_zap, &all), None);
    }

    #[test]
    fn budget_charges_follow_the_estimate() {
        use crate::budget::VmaBudget;
        let mut p = pool();
        let h = p.handle();
        let l0 = p.alloc_page().unwrap();
        let l1 = p.alloc_page().unwrap();
        let budget = VmaBudget::with_limit(1000);
        let usage = budget.register_pool(false);
        let mut a = VirtArea::reserve(4).unwrap();
        let reservation = budget.try_reserve_for(&usage, 8, 0).unwrap();
        reservation.settle(a.vma_estimate());
        a.attach_budget_prepaid(crate::budget::BudgetBinding::with_pool(
            std::sync::Arc::clone(&budget),
            std::sync::Arc::clone(&usage),
        ));
        assert_eq!((budget.in_use(), usage.in_use()), (1, 1));
        a.rewire(0, &h, l0).unwrap();
        a.rewire(2, &h, l1).unwrap();
        assert_eq!(budget.in_use(), a.vma_estimate());
        assert_eq!(usage.in_use(), a.vma_estimate());
        drop(a);
        assert_eq!((budget.in_use(), usage.in_use()), (0, 0));
    }
}
