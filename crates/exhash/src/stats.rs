//! Operational statistics common to the hashing schemes.

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
