//! Operational statistics common to the hashing schemes, and the merged
//! snapshot of a [`ShortcutIndex`](crate::ShortcutIndex).

use shortcut_core::metrics::MaintSnapshot;
use shortcut_rewire::{PinStrategy, VmaSnapshot};

shortcut_rewire::statistics! {
    /// Counters describing the structural work an index performed. Every
    /// field is a monotone event counter, so merging sums them all.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct IndexStats {
        /// Bucket splits (EH family).
        splits: u64 = Sum,
        /// Directory doublings (EH family).
        doublings: u64 = Sum,
        /// Full-table rehashes (HT).
        full_rehashes: u64 = Sum,
        /// Entries migrated incrementally (HTI).
        migrated_entries: u64 = Sum,
        /// Overflow chain buckets allocated (CH).
        chain_buckets: u64 = Sum,
        /// Lookups answered via the shortcut directory (Shortcut-EH).
        shortcut_lookups: u64 = Sum,
        /// Lookups answered via the traditional directory (Shortcut-EH).
        traditional_lookups: u64 = Sum,
    }
}

shortcut_rewire::statistics! {
    /// One merged, point-in-time view over everything the stack counts:
    /// structural index statistics, mapper-thread maintenance counters, and
    /// the page pool's rewiring counters.
    /// [`ShortcutIndex::stats`](crate::ShortcutIndex::stats) folds the
    /// per-shard snapshots with [`StatsSnapshot::merge`], which is
    /// commutative; each field's rule is declared beside it.
    #[derive(Debug, Clone, Copy)]
    pub struct StatsSnapshot {
        /// Number of shards this snapshot aggregates (1 for a per-shard or
        /// unsharded snapshot).
        shards: usize = Sum,
        /// Live entries.
        len: usize = Sum,
        /// Global depth of the traditional directory; merged, the deepest
        /// shard's.
        global_depth: u32 = Max,
        /// Number of distinct buckets.
        bucket_count: usize = Sum,
        /// Average directory fan-in (`slots / buckets`, the routing input);
        /// merged, re-weighted by bucket count (total slots over total
        /// buckets, not a mean of means).
        avg_fanin: f64 = With(|a: &Self, b: &Self| {
            let buckets = a.bucket_count + b.bucket_count;
            let slots = |s: &Self| s.avg_fanin * s.bucket_count as f64;
            if buckets == 0 { 0.0 } else { (slots(a) + slots(b)) / buckets as f64 }
        }),
        /// Whether the shortcut directory was in sync at snapshot time (on
        /// every shard).
        in_sync: bool = And,
        /// `(traditional, shortcut)` version numbers (Figure 8's
        /// quantities); both halves sum.
        versions: (u64, u64) = With(|a: &Self, b: &Self| {
            (a.versions.0 + b.versions.0, a.versions.1 + b.versions.1)
        }),
        /// Whether shortcut maintenance is suspended by the VMA budget
        /// (lookups fall back to the traditional directory) on any shard.
        shortcut_suspended: bool = Or,
        /// Bytes per pool slot (= bytes per bucket): always 4096. A stub
        /// kept only because the benchmark reads it; the change to the
        /// benchmark that drops that read drops this field too.
        slot_bytes: usize = First,
        /// Reader-pin pairing of the retire list:
        /// [`PinStrategy::Asymmetric`] (membarrier-paired load/store pins) or
        /// the [`PinStrategy::Dekker`] RMW fallback.
        pin_strategy: PinStrategy = First,
        /// Times a shared writer revoked a shard's read bias and sent its
        /// readers to the shard lock.
        bias_revocations: u64 = Sum,
        /// Times a writer-free run of locked reads took a shard's readers off
        /// the lock again; a shard with fewer rearms than revocations is
        /// serving `get` through the lock right now.
        bias_rearms: u64 = Sum,
        /// Whether the process has the vectored `MADV_DONTNEED`
        /// ([`shortcut_rewire::zap_call`]) the mapper batches its TLB
        /// shootdowns with; without it every slot update costs its own.
        /// Probed once per process.
        zap_supported: bool = First,
        /// Structural + routing statistics of the index.
        index: IndexStats = Merge,
        /// Counters of the asynchronous mapper thread.
        maint: MaintSnapshot = Merge,
        /// Operation counters of the backing page pool.
        rewire: shortcut_rewire::StatsSnapshot = Merge,
        /// VMA budget and retired-directory lifecycle counters: how many
        /// mappings the index holds (live + retired + pool view), the budget
        /// limit (`vm.max_map_count` unless overridden), and how many retired
        /// directories were reclaimed. Experiments read this instead of
        /// hand-deriving slot caps from the sysctl.
        vma: VmaSnapshot = Merge,
    }
}

impl StatsSnapshot {
    /// Percentage of lookups answered through the shortcut directory
    /// (0.0 when no lookup was counted yet).
    pub fn shortcut_served_pct(&self) -> f64 {
        let total = self.index.shortcut_lookups + self.index.traditional_lookups;
        if total == 0 {
            0.0
        } else {
            self.index.shortcut_lookups as f64 * 100.0 / total as f64
        }
    }
}

/// The stable text rendering of a snapshot: one `key: value` line per
/// group, identical wherever a snapshot is shown — the server's `INFO`
/// reply, `mixed_workload`'s exit report, and the `all` evaluation
/// driver all print exactly this block instead of hand-formatting their
/// own subsets. A key keeps its meaning and format across versions
/// (tooling may grep for it) and goes only with the field it prints.
impl std::fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "index: entries={} shards={} global_depth={} buckets={} avg_fanin={:.2}",
            self.len, self.shards, self.global_depth, self.bucket_count, self.avg_fanin
        )?;
        writeln!(
            f,
            "shortcut: in_sync={} suspended={} versions_traditional={} versions_shortcut={}",
            self.in_sync, self.shortcut_suspended, self.versions.0, self.versions.1
        )?;
        writeln!(f, "layout: slot_bytes={}", self.slot_bytes)?;
        writeln!(
            f,
            "lookups: shortcut={} traditional={} shortcut_served_pct={:.1}",
            self.index.shortcut_lookups,
            self.index.traditional_lookups,
            self.shortcut_served_pct()
        )?;
        writeln!(
            f,
            "structure: splits={} doublings={}",
            self.index.splits, self.index.doublings
        )?;
        writeln!(
            f,
            "maint: creates={} updates={} creates_skipped={} creates_deferred={} \
             creates_coarse={} passes={} update_batches={} slots_zapped={}",
            self.maint.creates_applied,
            self.maint.updates_applied,
            self.maint.creates_skipped,
            self.maint.creates_deferred,
            self.maint.creates_coarse,
            self.maint.passes,
            self.maint.update_batches,
            self.maint.slots_zapped
        )?;
        writeln!(
            f,
            "vma: in_use={} live={} retired={} limit={} areas_retired={} areas_reclaimed={}",
            self.vma.in_use,
            self.vma.live_vmas(),
            self.vma.retired_vmas,
            self.vma.limit,
            self.vma.areas_retired,
            self.vma.areas_reclaimed
        )?;
        writeln!(
            f,
            "read_path: pin_strategy={} bias_revocations={} bias_rearms={} zap_supported={}",
            self.pin_strategy, self.bias_revocations, self.bias_rearms, self.zap_supported
        )?;
        let r = &self.rewire;
        writeln!(
            f,
            "rewire: pages_populated={} pages_allocated={} pages_freed={} pool_file_slots={}",
            r.pages_populated, r.pages_allocated, r.pages_freed, r.pool_file_slots
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_every_counter() {
        let a = IndexStats {
            splits: 1,
            doublings: 2,
            full_rehashes: 3,
            migrated_entries: 4,
            chain_buckets: 5,
            shortcut_lookups: 10,
            traditional_lookups: 11,
        };
        let b = IndexStats {
            splits: 100,
            doublings: 200,
            full_rehashes: 300,
            migrated_entries: 400,
            chain_buckets: 500,
            shortcut_lookups: 1000,
            traditional_lookups: 1100,
        };
        let m = a.merge(&b);
        assert_eq!(
            m,
            IndexStats {
                splits: 101,
                doublings: 202,
                full_rehashes: 303,
                migrated_entries: 404,
                chain_buckets: 505,
                shortcut_lookups: 1010,
                traditional_lookups: 1111,
            }
        );
        assert_eq!(m, b.merge(&a));
    }
}
