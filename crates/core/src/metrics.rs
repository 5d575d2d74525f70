//! Counters for the asynchronous maintenance engine.

shortcut_rewire::statistics! {
    /// Thread-safe maintenance counters, shared between the index (producer)
    /// and the mapper thread (consumer).
    pub struct MaintMetrics {
        /// Directory slots remapped by update requests (a request names
        /// the range of slots one split redirected, so this counts slots,
        /// not requests).
        updates_applied: u64 = Sum,
        /// Create (full rebuild) requests processed.
        creates_applied: u64 = Sum,
        /// Update requests discarded because a newer create superseded them.
        updates_discarded: u64 = Sum,
        /// Create requests skipped because the rebuilt directory **genuinely**
        /// does not fit the VMA budget even with nothing left to reclaim
        /// (maintenance suspended; lookups fall back until the budget grows
        /// or splits shrink the footprint).
        creates_skipped: u64 = Sum,
        /// Create requests deferred **transiently**: admission failed only
        /// because retired areas were still pinned by readers, so the rebuild
        /// is retried on upcoming poll ticks once reclamation drains them.
        creates_deferred: u64 = Sum,
        /// Creates published at a **coarser depth** than the traditional
        /// directory because the exact depth did not fit the VMA budget
        /// (buckets deeper than the published depth are served traditionally
        /// via the reader-side local-depth check).
        creates_coarse: u64 = Sum,
        /// Gauge (not a counter): **service fraction** of the most recent
        /// coarse publish, in percent — the share of buckets whose local
        /// depth fits the published depth and are therefore resolvable
        /// through the shortcut. 100 while published at the exact depth.
        /// Merged by **min**: the aggregate reports the worst-served shard
        /// rather than a meaningless sum (or an average that would hide one
        /// shard publishing coarse while the rest are exact).
        coarse_service_pct: u64 = Min,
        /// Individual slot rewirings performed.
        slots_rewired: u64 = Sum,
        /// mmap calls spent on rebuilds (after coalescing).
        create_mmap_calls: u64 = Sum,
        /// Slots put in the page table as they were rewired (`MAP_POPULATE`).
        /// Two runs of one commit differ: the count depends on how many
        /// update batches the mapper's wake-ups split a run into, so
        /// compare it as a range, never exactly.
        pages_populated: u64 = Sum,
        /// Times the mapper woke up and found work.
        busy_polls: u64 = Sum,
        /// Times the mapper woke up to an empty queue.
        idle_polls: u64 = Sum,
        /// Passes completed (a wake's queue applied, then a reclaim tick);
        /// bumped under the mapper's inbox lock, where
        /// [`crate::Maintainer::wait_sync`] counts them.
        passes: u64 = Sum,
        /// Passes that applied a batch of updates to the live node.
        update_batches: u64 = Sum,
        /// Slots zapped (`MADV_DONTNEED`) ahead of their rewiring.
        slots_zapped: u64 = Sum,
    }
    /// Plain-value snapshot of [`MaintMetrics`], plus `pages_moved`.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct MaintSnapshot {
        /// Bucket pages moved: always 0. Buckets sit on the pool page of
        /// their hash suffix and never move; the field stays while the
        /// benchmark reads it.
        pages_moved: u64 = Sum,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_counters_and_mins_the_service_gauge() {
        let a = MaintSnapshot {
            updates_applied: 1,
            creates_applied: 2,
            updates_discarded: 3,
            creates_skipped: 4,
            creates_deferred: 5,
            creates_coarse: 6,
            coarse_service_pct: 100,
            slots_rewired: 7,
            create_mmap_calls: 8,
            pages_populated: 9,
            busy_polls: 10,
            idle_polls: 11,
            passes: 12,
            update_batches: 13,
            slots_zapped: 14,
            pages_moved: 15,
        };
        let b = MaintSnapshot {
            updates_applied: 100,
            creates_applied: 200,
            updates_discarded: 300,
            creates_skipped: 400,
            creates_deferred: 500,
            creates_coarse: 600,
            coarse_service_pct: 60,
            slots_rewired: 700,
            create_mmap_calls: 800,
            pages_populated: 900,
            busy_polls: 1000,
            idle_polls: 1100,
            passes: 1200,
            update_batches: 1300,
            slots_zapped: 1400,
            pages_moved: 1500,
        };
        let m = a.merge(&b);
        assert_eq!(
            m,
            MaintSnapshot {
                updates_applied: 101,
                creates_applied: 202,
                updates_discarded: 303,
                creates_skipped: 404,
                creates_deferred: 505,
                creates_coarse: 606,
                // The gauge reports the worst-served shard, not a sum.
                coarse_service_pct: 60,
                slots_rewired: 707,
                create_mmap_calls: 808,
                pages_populated: 909,
                busy_polls: 1010,
                idle_polls: 1111,
                passes: 1212,
                update_batches: 1313,
                slots_zapped: 1414,
                pages_moved: 1515,
            }
        );
        // Merge is commutative.
        assert_eq!(m, b.merge(&a));
    }

    #[test]
    fn snapshot_reflects_counters() {
        let m = MaintMetrics::default();
        m.updates_applied.add(3);
        m.slots_rewired.add(6);
        m.coarse_service_pct.set(40);
        let s = m.snapshot();
        assert_eq!(s.updates_applied, 3);
        assert_eq!(s.slots_rewired, 6);
        assert_eq!(s.coarse_service_pct, 40);
        assert_eq!(s.creates_applied, 0);
    }
}
