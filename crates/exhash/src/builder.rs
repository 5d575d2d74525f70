//! [`IndexBuilder`]: the eight setters that configure a [`ShortcutIndex`].

use crate::bucket::steady_entries;
use crate::eh::EhConfig;
use crate::error::IndexError;
use crate::shard::{ShortcutIndex, MAX_SHARD_BITS};
use crate::shortcut_eh::ShortcutEhConfig;
use shortcut_core::{CompactionPolicy, MaintConfig, RoutePolicy};
use shortcut_rewire::{PinStrategy, PoolConfig, VmaBudget, PAGE_SIZE_4K};
use std::time::Duration;

/// Pool growth floor of [`IndexBuilder::capacity`]: 256 KB per
/// `ftruncate`, in pages.
const GROWTH_FLOOR_PAGES: usize = (1 << 18) / PAGE_SIZE_4K;

/// Smallest virtual view of [`IndexBuilder::capacity`]: 16 MB, in pages.
const VIEW_FLOOR_PAGES: usize = (1 << 24) / PAGE_SIZE_4K;

/// Builder for [`ShortcutIndex`]: eight setters — pool sizing
/// ([`capacity`](IndexBuilder::capacity), [`pool`](IndexBuilder::pool)), routing
/// ([`fanin_threshold`](IndexBuilder::fanin_threshold)), the mapper
/// ([`poll_interval`](IndexBuilder::poll_interval)), the mapping budget
/// ([`vma_budget`](IndexBuilder::vma_budget),
/// [`compaction`](IndexBuilder::compaction)) and concurrency
/// ([`shards`](IndexBuilder::shards),
/// [`pin_strategy`](IndexBuilder::pin_strategy)). What they do not reach
/// (load factor, lazy population, a whole [`MaintConfig`]) is set on the
/// layers below: [`ShortcutEhConfig`].
///
/// Obtained via [`ShortcutIndex::builder`]; finished with
/// [`IndexBuilder::build`].
#[derive(Debug, Clone, Default)]
pub struct IndexBuilder {
    capacity: Option<usize>,
    pool: Option<PoolConfig>,
    policy: RoutePolicy,
    maint: MaintConfig,
    vma_budget_limit: Option<usize>,
    shard_bits: u32,
    pin_strategy: Option<PinStrategy>,
}

impl IndexBuilder {
    /// Size the page pool for roughly `entries` live entries.
    ///
    /// Buckets hold ≤ 87 entries at the default load factor; with
    /// splitting churn the steady state is ~40 entries per bucket, so the
    /// virtual reservation gets generous headroom on top of that estimate.
    /// Ignored if an explicit [`IndexBuilder::pool`] is set.
    pub fn capacity(mut self, entries: usize) -> Self {
        self.capacity = Some(entries);
        self
    }

    /// Use an explicit pool configuration (overrides
    /// [`IndexBuilder::capacity`]).
    pub fn pool(mut self, pool: PoolConfig) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Route through the shortcut only while the average fan-in is at most
    /// `threshold` (paper §3.2; default 8).
    pub fn fanin_threshold(mut self, threshold: f64) -> Self {
        self.policy = RoutePolicy::with_threshold(threshold);
        self
    }

    /// The mapper thread's queue polling interval (paper: 25 ms).
    pub fn poll_interval(mut self, interval: Duration) -> Self {
        self.maint.poll_interval = interval;
        self
    }

    /// Give the index a **private** VMA budget with this mapping limit
    /// instead of the process-global one fed by `vm.max_map_count`.
    /// Directory rebuilds whose mapping footprint would not fit are
    /// skipped (the shortcut suspends, lookups fall back to the
    /// traditional directory); retired directories count against the
    /// budget until reclaimed. Useful to simulate a small
    /// `vm.max_map_count` in tests and CI without the sysctl. Admission
    /// reserves 1/16 of the limit (capped at 1024 mappings) as headroom
    /// for mappings the budget does not track.
    pub fn vma_budget(mut self, limit: usize) -> Self {
        self.vma_budget_limit = Some(limit);
        self
    }

    /// Force the reader-pin pairing of every shard's retire list instead
    /// of auto-detecting. The default (`None`) probes `membarrier(2)` once
    /// per process and uses [`PinStrategy::Asymmetric`] — load/store-only
    /// reader pins, the reclaimer pays the barrier — when registration
    /// succeeds, degrading to the [`PinStrategy::Dekker`] RMW pairing
    /// otherwise. Forcing `Dekker` exercises the fallback path on hosts
    /// where membarrier works (the fallback-matrix tests do exactly
    /// that). Forcing `Asymmetric` on a host whose kernel rejects the
    /// barrier stays safe but disables reclamation (every reclaim tick
    /// aborts before its scan), so retired directories accumulate —
    /// normally leave this alone. Surfaced in
    /// `StatsSnapshot::pin_strategy`.
    pub fn pin_strategy(mut self, strategy: PinStrategy) -> Self {
        self.pin_strategy = Some(strategy);
        self
    }

    /// Partition the index into `2^s` **shards**, each a full Shortcut-EH
    /// with its own page pool, mapper thread, and retirement lifecycle,
    /// routed by the top `s` bits of the key hash (each shard's directory
    /// consumes the next bits down, so per-shard depth semantics are
    /// untouched). Default `s = 0` — a single shard, behaviorally
    /// identical to the unsharded index.
    ///
    /// Sharding buys **write parallelism**: one writer thread per shard
    /// runs concurrently through [`ShortcutIndex::insert_shared`] /
    /// [`ShortcutIndex::remove_shared`], while readers stay concurrent as
    /// before. All shards share one VMA budget (the process-global one,
    /// or the private [`IndexBuilder::vma_budget`] limit) under
    /// fair-share admission, so one shard's deep directory cannot
    /// suspend its siblings' shortcut maintenance. The capacity estimate
    /// is divided evenly across shards; per-shard mapper poll intervals
    /// are staggered so co-spawned mappers do not tick in lockstep.
    ///
    /// ```
    /// use shortcut_exhash::{Index, ShortcutIndex};
    ///
    /// # fn main() -> Result<(), shortcut_exhash::IndexError> {
    /// let mut index = ShortcutIndex::builder()
    ///     .capacity(10_000)
    ///     .shards(2) // 2^2 = 4 shards
    ///     .build()?;
    /// assert_eq!(index.shard_count(), 4);
    ///
    /// index.insert(7, 70)?; // routed to the owning shard
    /// assert_eq!(index.get(7), Some(70));
    /// assert_eq!(index.stats().shards, 4); // aggregated snapshot
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// `s > `[`MAX_SHARD_BITS`] is rejected at [`IndexBuilder::build`]
    /// time.
    pub fn shards(mut self, s: u32) -> Self {
        self.shard_bits = s;
        self
    }

    /// Rebuild admission (default [`CompactionPolicy::disabled`], the
    /// worst case of one mapping per slot; use [`CompactionPolicy::on`]
    /// for the recommended production setting). Each bucket sits on the
    /// pool page of its hash suffix, so a rebuild maps runs the kernel
    /// merges into a handful of VMAs; exact admission reserves just that
    /// footprint, publishes coarser when even that does not fit, and
    /// re-announces a suspended or coarsely published shortcut once a
    /// finer one fits: this is what lets shortcut-served lookups scale
    /// past the `vm.max_map_count` ceiling (millions of keys on a stock
    /// kernel) instead of suspending.
    pub fn compaction(mut self, policy: CompactionPolicy) -> Self {
        self.maint.compaction = policy;
        self
    }

    /// Build the index and spawn its mapper thread.
    ///
    /// # Errors
    ///
    /// Propagates pool creation failure (memfd, `mmap`,
    /// `vm.max_map_count`) and configuration rejection as [`IndexError`].
    pub fn build(self) -> Result<ShortcutIndex, IndexError> {
        // An `s` over the cap is `try_new`'s error, not a shift overflow.
        let shard_count = 1usize << self.shard_bits.min(MAX_SHARD_BITS);
        let eh = EhConfig::default();
        let entries_per_page = steady_entries(eh.max_load_factor);
        // Room for every bucket to sit at its suffix: a directory has at
        // most twice as many slots as buckets, and virtual address space
        // (a hole in the pool file, too) is effectively free.
        let view_multiplier = 2;
        let mut pool = self.pool.unwrap_or_else(|| match self.capacity {
            Some(entries) => {
                // Each shard gets its own pool, so the capacity estimate
                // is divided evenly across them (the multiplicative hash
                // spreads keys uniformly over shards).
                let pages_needed = (entries.div_ceil(shard_count) / entries_per_page).max(1);
                PoolConfig {
                    initial_pages: 1,
                    min_growth_pages: pages_needed.clamp(GROWTH_FLOOR_PAGES, 4096), // audit:allow(page-literal): growth clamp in pages (a count), not a byte size
                    view_capacity_pages: ((pages_needed * view_multiplier).max(VIEW_FLOOR_PAGES))
                        .next_power_of_two(),
                    ..PoolConfig::default()
                }
            }
            None => PoolConfig::default(),
        });
        if let Some(strategy) = self.pin_strategy {
            pool.pin_strategy = Some(strategy);
        }
        if let Some(limit) = self.vma_budget_limit {
            // One Arc, cloned into every shard's pool config: all shards
            // account against (and fair-share) the same budget. Without a
            // private limit the pools resolve to the process-global budget,
            // which is likewise one shared instance.
            pool.vma_budget = Some(VmaBudget::with_limit(limit));
        }
        ShortcutIndex::try_new(
            self.shard_bits,
            ShortcutEhConfig {
                eh: EhConfig { pool, ..eh },
                maint: self.maint,
                policy: self.policy,
            },
        )
    }
}
