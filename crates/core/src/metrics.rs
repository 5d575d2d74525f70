//! Counters for the asynchronous maintenance engine.

use std::sync::atomic::{AtomicU64, Ordering};

/// Thread-safe maintenance counters, shared between the index (producer)
/// and the mapper thread (consumer).
#[derive(Debug, Default)]
pub struct MaintMetrics {
    /// Update requests processed.
    pub updates_applied: AtomicU64,
    /// Create (full rebuild) requests processed.
    pub creates_applied: AtomicU64,
    /// Update requests discarded because a newer create superseded them.
    pub updates_discarded: AtomicU64,
    /// Create requests skipped because the rebuilt directory **genuinely**
    /// does not fit the VMA budget even with nothing left to reclaim
    /// (maintenance suspended; lookups fall back until the budget grows
    /// or compaction shrinks the footprint).
    pub creates_skipped: AtomicU64,
    /// Create requests deferred **transiently**: admission failed only
    /// because retired areas were still pinned by readers, so the rebuild
    /// is retried on upcoming poll ticks once reclamation drains them.
    pub creates_deferred: AtomicU64,
    /// Creates published at a **coarser depth** than the traditional
    /// directory because the exact depth did not fit the VMA budget
    /// (buckets deeper than the published depth are served traditionally
    /// via the reader-side local-depth check).
    pub creates_coarse: AtomicU64,
    /// Gauge (not a counter): **service fraction** of the most recent
    /// coarse publish, in percent — the share of buckets whose local
    /// depth fits the published depth and are therefore resolvable
    /// through the shortcut. 100 while published at the exact depth.
    pub coarse_service_pct: AtomicU64,
    /// Bucket pages physically relocated into directory order by
    /// compaction (the write path executes the moves; this mirror makes
    /// them visible next to the mapper's counters).
    pub pages_moved: AtomicU64,
    /// Estimated VMAs saved by compaction passes (layout estimate before
    /// minus after, summed over passes).
    pub vmas_saved: AtomicU64,
    /// Completed compaction passes (full rebuild-time passes and finished
    /// incremental plans).
    pub compactions: AtomicU64,
    /// Compaction passes skipped: the target run did not fit the pool, or
    /// the layout was already as compact as fan-in permits.
    pub compaction_skipped: AtomicU64,
    /// Individual slot rewirings performed.
    pub slots_rewired: AtomicU64,
    /// mmap calls spent on rebuilds (after coalescing).
    pub create_mmap_calls: AtomicU64,
    /// Pages touched for page-table population.
    pub pages_populated: AtomicU64,
    /// Times the mapper woke up and found work.
    pub busy_polls: AtomicU64,
    /// Times the mapper woke up to an empty queue.
    pub idle_polls: AtomicU64,
    /// Passes completed (a wake's queue applied, then a reclaim tick);
    /// Release/Acquire where [`crate::Maintainer::wait_sync`] counts them.
    pub passes: AtomicU64,
    /// Passes that applied a batch of updates to the live node.
    pub update_batches: AtomicU64,
    /// Slots zapped (`MADV_DONTNEED`) ahead of their rewiring.
    pub slots_zapped: AtomicU64,
}

/// Plain-value snapshot of [`MaintMetrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintSnapshot {
    /// Update requests processed.
    pub updates_applied: u64,
    /// Create requests processed.
    pub creates_applied: u64,
    /// Updates discarded as superseded.
    pub updates_discarded: u64,
    /// Creates skipped by the VMA budget with nothing left to reclaim
    /// (genuine suspension).
    pub creates_skipped: u64,
    /// Creates deferred transiently (reader pins stalled reclamation;
    /// retried on later ticks).
    pub creates_deferred: u64,
    /// Creates published at a coarser-than-traditional depth to fit the
    /// VMA budget.
    pub creates_coarse: u64,
    /// Service fraction (percent of buckets resolvable) of the latest
    /// publish; 100 at the exact depth.
    pub coarse_service_pct: u64,
    /// Bucket pages relocated by compaction.
    pub pages_moved: u64,
    /// Estimated VMAs saved by compaction.
    pub vmas_saved: u64,
    /// Completed compaction passes.
    pub compactions: u64,
    /// Compaction passes skipped (no space for the target run, or layout
    /// already compact).
    pub compaction_skipped: u64,
    /// Slots rewired in total.
    pub slots_rewired: u64,
    /// mmap calls used by creates.
    pub create_mmap_calls: u64,
    /// Pages populated.
    pub pages_populated: u64,
    /// Polls with work.
    pub busy_polls: u64,
    /// Polls without work.
    pub idle_polls: u64,
    /// Mapper passes completed.
    pub passes: u64,
    /// Passes that applied a batch of updates.
    pub update_batches: u64,
    /// Slots zapped ahead of their rewiring.
    pub slots_zapped: u64,
}

impl MaintSnapshot {
    /// Merge two mappers' snapshots (the sharded index aggregates one per
    /// shard). Every field except `coarse_service_pct` is a monotone
    /// event counter and is **summed**; `coarse_service_pct` is a gauge —
    /// the service fraction of each mapper's *latest* publish — so the
    /// merge takes the **min**: the aggregate honestly reports the
    /// worst-served shard rather than a meaningless sum (or an average
    /// that would hide one shard publishing coarse while the rest are
    /// exact).
    pub fn merge(&self, other: &MaintSnapshot) -> MaintSnapshot {
        MaintSnapshot {
            updates_applied: self.updates_applied + other.updates_applied,
            creates_applied: self.creates_applied + other.creates_applied,
            updates_discarded: self.updates_discarded + other.updates_discarded,
            creates_skipped: self.creates_skipped + other.creates_skipped,
            creates_deferred: self.creates_deferred + other.creates_deferred,
            creates_coarse: self.creates_coarse + other.creates_coarse,
            coarse_service_pct: self.coarse_service_pct.min(other.coarse_service_pct),
            pages_moved: self.pages_moved + other.pages_moved,
            vmas_saved: self.vmas_saved + other.vmas_saved,
            compactions: self.compactions + other.compactions,
            compaction_skipped: self.compaction_skipped + other.compaction_skipped,
            slots_rewired: self.slots_rewired + other.slots_rewired,
            create_mmap_calls: self.create_mmap_calls + other.create_mmap_calls,
            pages_populated: self.pages_populated + other.pages_populated,
            busy_polls: self.busy_polls + other.busy_polls,
            idle_polls: self.idle_polls + other.idle_polls,
            passes: self.passes + other.passes,
            update_batches: self.update_batches + other.update_batches,
            slots_zapped: self.slots_zapped + other.slots_zapped,
        }
    }
}

impl MaintMetrics {
    /// Copy out all counters.
    pub fn snapshot(&self) -> MaintSnapshot {
        MaintSnapshot {
            updates_applied: self.updates_applied.load(Ordering::Relaxed),
            creates_applied: self.creates_applied.load(Ordering::Relaxed),
            updates_discarded: self.updates_discarded.load(Ordering::Relaxed),
            creates_skipped: self.creates_skipped.load(Ordering::Relaxed),
            creates_deferred: self.creates_deferred.load(Ordering::Relaxed),
            creates_coarse: self.creates_coarse.load(Ordering::Relaxed),
            coarse_service_pct: self.coarse_service_pct.load(Ordering::Relaxed),
            pages_moved: self.pages_moved.load(Ordering::Relaxed),
            vmas_saved: self.vmas_saved.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
            compaction_skipped: self.compaction_skipped.load(Ordering::Relaxed),
            slots_rewired: self.slots_rewired.load(Ordering::Relaxed),
            create_mmap_calls: self.create_mmap_calls.load(Ordering::Relaxed),
            pages_populated: self.pages_populated.load(Ordering::Relaxed),
            busy_polls: self.busy_polls.load(Ordering::Relaxed),
            idle_polls: self.idle_polls.load(Ordering::Relaxed),
            passes: self.passes.load(Ordering::Relaxed),
            update_batches: self.update_batches.load(Ordering::Relaxed),
            slots_zapped: self.slots_zapped.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_counters_and_mins_the_service_gauge() {
        let a = MaintSnapshot {
            updates_applied: 10,
            creates_applied: 2,
            coarse_service_pct: 100,
            idle_polls: 7,
            ..MaintSnapshot::default()
        };
        let b = MaintSnapshot {
            updates_applied: 5,
            creates_applied: 1,
            coarse_service_pct: 60,
            idle_polls: 3,
            ..MaintSnapshot::default()
        };
        let m = a.merge(&b);
        assert_eq!(m.updates_applied, 15);
        assert_eq!(m.creates_applied, 3);
        assert_eq!(m.idle_polls, 10);
        assert_eq!(
            m.coarse_service_pct, 60,
            "gauge must report the worst-served shard, not a sum"
        );
        // Merge is commutative.
        assert_eq!(m, b.merge(&a));
    }

    #[test]
    fn snapshot_reflects_counters() {
        let m = MaintMetrics::default();
        m.updates_applied.fetch_add(3, Ordering::Relaxed);
        m.slots_rewired.fetch_add(6, Ordering::Relaxed);
        let s = m.snapshot();
        assert_eq!(s.updates_applied, 3);
        assert_eq!(s.slots_rewired, 6);
        assert_eq!(s.creates_applied, 0);
    }
}
