//! Operation counters for the rewiring substrate.
//!
//! The paper's §3 "bewares" are all about *how often* the expensive
//! operations happen (mmap calls, page-table populations, pool resizes).
//! These counters make that observable in tests, examples, and benches.

use std::sync::atomic::{AtomicU64, Ordering};

/// Shared, thread-safe counters. One instance lives in each [`crate::PagePool`]
/// and each [`crate::VirtArea`]; benches aggregate snapshots.
#[derive(Debug, Default)]
pub struct RewireStats {
    mmap_calls: AtomicU64,
    munmap_calls: AtomicU64,
    pages_rewired: AtomicU64,
    pages_populated: AtomicU64,
    pool_grows: AtomicU64,
    pool_shrinks: AtomicU64,
    pages_allocated: AtomicU64,
    pages_freed: AtomicU64,
}

/// A point-in-time copy of [`RewireStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Number of `mmap` invocations (reservations + rewirings).
    pub mmap_calls: u64,
    /// Number of `munmap` invocations.
    pub munmap_calls: u64,
    /// Virtual pages whose mapping was redirected to a pool page.
    pub pages_rewired: u64,
    /// Pages eagerly inserted into the page table (`MAP_POPULATE` or touch).
    pub pages_populated: u64,
    /// Pool file growth events (`ftruncate` up).
    pub pool_grows: u64,
    /// Pool file shrink events (`ftruncate` down).
    pub pool_shrinks: u64,
    /// Pages handed out by the pool allocator.
    pub pages_allocated: u64,
    /// Pages returned to the pool allocator.
    pub pages_freed: u64,
    /// Gauge: slots in the pool's file right now, handed out or not (0 in
    /// an area's snapshot). Populated eagerly, all of them are resident,
    /// where `pages_allocated − pages_freed` counts only those in use.
    pub pool_file_slots: u64,
}

impl StatsSnapshot {
    /// Merge two pools' snapshots (the sharded index aggregates one per
    /// shard's pool). Every field but one is a monotone event counter and
    /// the gauge, `pool_file_slots`, adds up across pools, so the merge
    /// **sums** them all.
    pub fn merge(&self, other: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            mmap_calls: self.mmap_calls + other.mmap_calls,
            munmap_calls: self.munmap_calls + other.munmap_calls,
            pages_rewired: self.pages_rewired + other.pages_rewired,
            pages_populated: self.pages_populated + other.pages_populated,
            pool_grows: self.pool_grows + other.pool_grows,
            pool_shrinks: self.pool_shrinks + other.pool_shrinks,
            pages_allocated: self.pages_allocated + other.pages_allocated,
            pages_freed: self.pages_freed + other.pages_freed,
            pool_file_slots: self.pool_file_slots + other.pool_file_slots,
        }
    }
}

impl RewireStats {
    /// New zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub(crate) fn count_mmap(&self, n: u64) {
        self.mmap_calls.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn count_munmap(&self, n: u64) {
        self.munmap_calls.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn count_rewired(&self, n: u64) {
        self.pages_rewired.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn count_populated(&self, n: u64) {
        self.pages_populated.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn count_grow(&self) {
        self.pool_grows.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn count_shrink(&self) {
        self.pool_shrinks.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn count_alloc(&self, n: u64) {
        self.pages_allocated.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn count_free(&self, n: u64) {
        self.pages_freed.fetch_add(n, Ordering::Relaxed);
    }

    /// Copy out the current counter values.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            mmap_calls: self.mmap_calls.load(Ordering::Relaxed),
            munmap_calls: self.munmap_calls.load(Ordering::Relaxed),
            pages_rewired: self.pages_rewired.load(Ordering::Relaxed),
            pages_populated: self.pages_populated.load(Ordering::Relaxed),
            pool_grows: self.pool_grows.load(Ordering::Relaxed),
            pool_shrinks: self.pool_shrinks.load(Ordering::Relaxed),
            pages_allocated: self.pages_allocated.load(Ordering::Relaxed),
            pages_freed: self.pages_freed.load(Ordering::Relaxed),
            pool_file_slots: 0,
        }
    }
}

impl StatsSnapshot {
    /// Difference `self - earlier`, counter-wise (the `pool_file_slots`
    /// gauge keeps `self`'s reading). Useful for measuring the cost of a
    /// single phase.
    pub fn delta_since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            mmap_calls: self.mmap_calls - earlier.mmap_calls,
            munmap_calls: self.munmap_calls - earlier.munmap_calls,
            pages_rewired: self.pages_rewired - earlier.pages_rewired,
            pages_populated: self.pages_populated - earlier.pages_populated,
            pool_grows: self.pool_grows - earlier.pool_grows,
            pool_shrinks: self.pool_shrinks - earlier.pool_shrinks,
            pages_allocated: self.pages_allocated - earlier.pages_allocated,
            pages_freed: self.pages_freed - earlier.pages_freed,
            pool_file_slots: self.pool_file_slots,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = RewireStats::new();
        s.count_mmap(2);
        s.count_rewired(5);
        s.count_alloc(3);
        s.count_free(1);
        let snap = s.snapshot();
        assert_eq!(snap.mmap_calls, 2);
        assert_eq!(snap.pages_rewired, 5);
        assert_eq!(snap.pages_allocated, 3);
        assert_eq!(snap.pages_freed, 1);
    }

    #[test]
    fn merge_sums_every_counter() {
        let a = StatsSnapshot {
            mmap_calls: 4,
            pages_rewired: 10,
            pool_file_slots: 7,
            ..StatsSnapshot::default()
        };
        let b = StatsSnapshot {
            mmap_calls: 1,
            pages_freed: 3,
            pool_file_slots: 5,
            ..StatsSnapshot::default()
        };
        let m = a.merge(&b);
        assert_eq!(m.mmap_calls, 5);
        assert_eq!(m.pages_rewired, 10);
        assert_eq!(m.pages_freed, 3);
        assert_eq!(m.pool_file_slots, 12, "a gauge that adds up across pools");
        assert_eq!(m, b.merge(&a));
    }

    #[test]
    fn delta_subtracts() {
        let s = RewireStats::new();
        s.count_mmap(2);
        let a = s.snapshot();
        s.count_mmap(3);
        s.count_populated(7);
        let b = s.snapshot();
        let d = b.delta_since(&a);
        assert_eq!(d.mmap_calls, 3);
        assert_eq!(d.pages_populated, 7);
        assert_eq!(d.pages_rewired, 0);
    }
}
