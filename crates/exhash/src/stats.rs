//! Operational statistics common to the hashing schemes, and the merged
//! snapshot of a [`ShortcutIndex`](crate::ShortcutIndex).

use shortcut_core::metrics::MaintSnapshot;
use shortcut_rewire::{PinStrategy, VmaSnapshot};

/// Counters describing the structural work an index performed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Bucket splits (EH family).
    pub splits: u64,
    /// Directory doublings (EH family).
    pub doublings: u64,
    /// Full-table rehashes (HT).
    pub full_rehashes: u64,
    /// Entries migrated incrementally (HTI).
    pub migrated_entries: u64,
    /// Overflow chain buckets allocated (CH).
    pub chain_buckets: u64,
    /// Completed bucket-layout compaction passes (EH family; full
    /// rebuild-time passes plus finished incremental plans).
    pub compactions: u64,
    /// Bucket pages physically relocated into directory order.
    pub pages_moved: u64,
    /// Compaction passes skipped (target run did not fit the pool, or the
    /// layout was already as compact as the fan-in permits).
    pub compaction_skipped: u64,
    /// Lookups answered via the shortcut directory (Shortcut-EH).
    pub shortcut_lookups: u64,
    /// Lookups answered via the traditional directory (Shortcut-EH).
    pub traditional_lookups: u64,
}

impl IndexStats {
    /// Merge two indexes' statistics (the sharded index aggregates one
    /// set per shard). Every field is a monotone event counter, so the
    /// merge **sums** them all; there are no gauges here.
    pub fn merge(&self, other: &IndexStats) -> IndexStats {
        IndexStats {
            splits: self.splits + other.splits,
            doublings: self.doublings + other.doublings,
            full_rehashes: self.full_rehashes + other.full_rehashes,
            migrated_entries: self.migrated_entries + other.migrated_entries,
            chain_buckets: self.chain_buckets + other.chain_buckets,
            compactions: self.compactions + other.compactions,
            pages_moved: self.pages_moved + other.pages_moved,
            compaction_skipped: self.compaction_skipped + other.compaction_skipped,
            shortcut_lookups: self.shortcut_lookups + other.shortcut_lookups,
            traditional_lookups: self.traditional_lookups + other.traditional_lookups,
        }
    }
}

/// One merged, point-in-time view over everything the stack counts:
/// structural index statistics, mapper-thread maintenance counters, and
/// the page pool's rewiring counters.
#[derive(Debug, Clone, Copy)]
pub struct StatsSnapshot {
    /// Number of shards this snapshot aggregates (1 for a per-shard or
    /// unsharded snapshot; [`StatsSnapshot::merge`] sums it).
    pub shards: usize,
    /// Live entries.
    pub len: usize,
    /// Global depth of the traditional directory.
    pub global_depth: u32,
    /// Number of distinct buckets.
    pub bucket_count: usize,
    /// Average directory fan-in (`slots / buckets`, the routing input).
    pub avg_fanin: f64,
    /// Whether the shortcut directory was in sync at snapshot time.
    pub in_sync: bool,
    /// `(traditional, shortcut)` version numbers (Figure 8's quantities).
    pub versions: (u64, u64),
    /// Whether shortcut maintenance is suspended by the VMA budget
    /// (lookups fall back to the traditional directory).
    pub shortcut_suspended: bool,
    /// Base pages per physical slot — the **count** `2^k`, not the log2
    /// knob passed to [`IndexBuilder::slot_pages`](crate::IndexBuilder::slot_pages).
    pub pages_per_slot: usize,
    /// Bytes per physical slot (= bytes per bucket).
    pub slot_bytes: usize,
    /// Entry capacity of one bucket at this slot size.
    pub bucket_capacity: usize,
    /// Whether hugepage backing was requested
    /// ([`IndexBuilder::huge_pages`](crate::IndexBuilder::huge_pages)).
    pub huge_pages_requested: bool,
    /// Whether the hugetlb backend is actually active;
    /// `huge_pages_requested && !huge_pages_active` means the pool fell
    /// back cleanly to plain 4 KB-page slots (no hugepages reserved, or
    /// the slot size is below the 2 MB boundary).
    pub huge_pages_active: bool,
    /// Reader-pin pairing of the retire list:
    /// [`PinStrategy::Asymmetric`] (membarrier-paired load/store pins) or
    /// the [`PinStrategy::Dekker`] RMW fallback.
    pub pin_strategy: PinStrategy,
    /// Name of the bucket-probe key-compare kernel in use
    /// (`"avx2"`/`"sse2"`/`"scalar"`).
    pub probe_backend: &'static str,
    /// Times a shared writer revoked a shard's read bias and sent its
    /// readers to the shard lock.
    pub bias_revocations: u64,
    /// Times a writer-free run of locked reads took a shard's readers off
    /// the lock again; a shard with fewer rearms than revocations is
    /// serving `get` through the lock right now.
    pub bias_rearms: u64,
    /// Whether the process has the vectored `MADV_DONTNEED`
    /// ([`shortcut_rewire::zap_call`]) the mapper batches its TLB
    /// shootdowns with; without it every slot update costs its own.
    pub zap_supported: bool,
    /// Structural + routing statistics of the index.
    pub index: IndexStats,
    /// Counters of the asynchronous mapper thread.
    pub maint: MaintSnapshot,
    /// Operation counters of the backing page pool.
    pub rewire: shortcut_rewire::StatsSnapshot,
    /// VMA budget and retired-directory lifecycle counters: how many
    /// mappings the index holds (live + retired + pool view), the budget
    /// limit (`vm.max_map_count` unless overridden), and how many retired
    /// directories were reclaimed. Experiments read this instead of
    /// hand-deriving slot caps from the sysctl.
    pub vma: VmaSnapshot,
}

impl StatsSnapshot {
    /// Merge two shards' snapshots into one aggregate (commutative;
    /// [`ShortcutIndex::stats`](crate::ShortcutIndex::stats) folds the
    /// per-shard snapshots with it).
    /// Field-by-field semantics:
    ///
    /// * **Counters sum**: `shards`, `len`, `bucket_count`, `versions`
    ///   (both halves), `bias_revocations`, `bias_rearms`, and the nested
    ///   counter blocks via their own
    ///   documented merges ([`IndexStats::merge`],
    ///   `MaintSnapshot::merge`, `rewire::StatsSnapshot::merge`,
    ///   [`VmaSnapshot::merge`]).
    /// * **Gauges take the honest extreme**: `global_depth` is the
    ///   deepest shard (max); `avg_fanin` is re-weighted by bucket count
    ///   (total slots over total buckets, not a mean of means);
    ///   `in_sync` and `huge_pages_active` hold only if **every** shard
    ///   holds (and); `shortcut_suspended` and `huge_pages_requested`
    ///   hold if **any** shard holds (or).
    /// * **Common values are copied from `self`**: every shard of an
    ///   index is built from one configuration (the layout gauges
    ///   `pages_per_slot`, `slot_bytes`, `bucket_capacity`, and
    ///   `pin_strategy`), and `probe_backend` and `zap_supported` are
    ///   probed once per process.
    pub fn merge(&self, other: &StatsSnapshot) -> StatsSnapshot {
        let buckets = self.bucket_count + other.bucket_count;
        StatsSnapshot {
            shards: self.shards + other.shards,
            len: self.len + other.len,
            global_depth: self.global_depth.max(other.global_depth),
            bucket_count: buckets,
            avg_fanin: if buckets == 0 {
                0.0
            } else {
                (self.avg_fanin * self.bucket_count as f64
                    + other.avg_fanin * other.bucket_count as f64)
                    / buckets as f64
            },
            in_sync: self.in_sync && other.in_sync,
            versions: (
                self.versions.0 + other.versions.0,
                self.versions.1 + other.versions.1,
            ),
            shortcut_suspended: self.shortcut_suspended || other.shortcut_suspended,
            pages_per_slot: self.pages_per_slot,
            slot_bytes: self.slot_bytes,
            bucket_capacity: self.bucket_capacity,
            huge_pages_requested: self.huge_pages_requested || other.huge_pages_requested,
            huge_pages_active: self.huge_pages_active && other.huge_pages_active,
            pin_strategy: self.pin_strategy,
            probe_backend: self.probe_backend,
            bias_revocations: self.bias_revocations + other.bias_revocations,
            bias_rearms: self.bias_rearms + other.bias_rearms,
            zap_supported: self.zap_supported,
            index: self.index.merge(&other.index),
            maint: self.maint.merge(&other.maint),
            rewire: self.rewire.merge(&other.rewire),
            vma: self.vma.merge(&other.vma),
        }
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
/// own subsets. Lines are append-only across versions (tooling may grep
/// for a key, so existing keys keep their meaning and format).
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
        writeln!(
            f,
            "layout: pages_per_slot={} slot_bytes={} bucket_capacity={} \
             hugepages_requested={} hugepages_active={}",
            self.pages_per_slot,
            self.slot_bytes,
            self.bucket_capacity,
            self.huge_pages_requested,
            self.huge_pages_active
        )?;
        writeln!(
            f,
            "lookups: shortcut={} traditional={} shortcut_served_pct={:.1}",
            self.index.shortcut_lookups,
            self.index.traditional_lookups,
            self.shortcut_served_pct()
        )?;
        writeln!(
            f,
            "structure: splits={} doublings={} compactions={} compaction_skipped={} \
             pages_moved={}",
            self.index.splits,
            self.index.doublings,
            self.index.compactions,
            self.index.compaction_skipped,
            self.index.pages_moved
        )?;
        writeln!(
            f,
            "maint: creates={} updates={} creates_skipped={} creates_deferred={} \
             creates_coarse={} vmas_saved={} passes={} update_batches={} slots_zapped={}",
            self.maint.creates_applied,
            self.maint.updates_applied,
            self.maint.creates_skipped,
            self.maint.creates_deferred,
            self.maint.creates_coarse,
            self.maint.vmas_saved,
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
            "read_path: pin_strategy={} probe_backend={} bias_revocations={} bias_rearms={} \
             zap_supported={}",
            self.pin_strategy,
            self.probe_backend,
            self.bias_revocations,
            self.bias_rearms,
            self.zap_supported
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
            splits: 4,
            doublings: 2,
            shortcut_lookups: 100,
            ..IndexStats::default()
        };
        let b = IndexStats {
            splits: 1,
            traditional_lookups: 7,
            shortcut_lookups: 50,
            ..IndexStats::default()
        };
        let m = a.merge(&b);
        assert_eq!(m.splits, 5);
        assert_eq!(m.doublings, 2);
        assert_eq!(m.shortcut_lookups, 150);
        assert_eq!(m.traditional_lookups, 7);
        assert_eq!(m, b.merge(&a));
    }
}
