//! # taking-the-shortcut
//!
//! Facade crate for the *Taking the Shortcut* (CIDR 2024) reproduction
//! stack. The front door is [`ShortcutIndex`]: a shortcut-enhanced
//! extendible hash table with an asynchronous mapper thread, concurrent
//! `&self` reads, typed errors, and one merged statistics snapshot.
//!
//! ```
//! use taking_the_shortcut::{Index, ShortcutIndex};
//!
//! # fn main() -> Result<(), taking_the_shortcut::IndexError> {
//! let mut index = ShortcutIndex::builder()
//!     .capacity(10_000)          // size the page pool for ~10k entries
//!     .fanin_threshold(8.0)      // paper §3.2 routing bound
//!     .build()?;
//!
//! index.insert(42, 1000)?;
//! index.insert_batch(&[(7, 70), (8, 80)])?;
//! assert_eq!(index.get(42), Some(1000));       // reads take &self
//! assert_eq!(index.get_many(&[7, 8, 9]), vec![Some(70), Some(80), None]);
//!
//! let stats = index.stats();
//! assert_eq!(stats.len, 3);
//! # Ok(())
//! # }
//! ```
//!
//! Because [`Index::get`] takes `&self` (Shortcut-EH reads go through a
//! seqlock-validated shortcut directory), any number of threads may share
//! `&ShortcutIndex` and look up concurrently — e.g. via
//! `std::thread::scope` — while the borrow checker guarantees no writer
//! coexists.
//!
//! ## VMA budgeting and reclamation
//!
//! Every non-coalescible shortcut slot costs the kernel one virtual
//! memory area, and processes are capped at `vm.max_map_count` mappings
//! (65 530 by default). The index manages that resource instead of
//! leaking it:
//!
//! * Superseded shortcut directories are **retired** and reclaimed
//!   (unmapped) once every reader that could still touch them has
//!   drained — VMA use plateaus at roughly the live directory instead of
//!   growing with every doubling.
//! * Directory rebuilds are admission-checked against a
//!   [`VmaBudget`] fed by `vm.max_map_count`. A directory too large for
//!   the budget **suspends** the shortcut
//!   ([`ShortcutIndex::shortcut_suspended`]) — lookups keep working
//!   through the traditional directory, and nothing dies inside `mmap`.
//! * With [`IndexBuilder::compaction`] enabled, bucket pages are
//!   physically **relocated into directory order** — one pass, run at
//!   every doubling, when the index's mappings cross half of its share
//!   of the budget, and to rescue a suspended or coarsely published
//!   shortcut — so rebuilds map identity runs the kernel merges into a
//!   handful of VMAs; rebuild admission then reserves the exact layout
//!   footprint instead of the worst case, and shortcut-served lookups
//!   scale to millions of keys on a stock kernel.
//!   [`ShortcutIndex::compact`] runs a pass explicitly.
//! * [`IndexBuilder::slot_pages`] sizes the physical slot (the bucket
//!   and rewiring unit) as `2^k` base pages: larger slots hold `~2^k`
//!   more entries per bucket, so the directory is `~2^k` shallower and
//!   the mapping/TLB footprint shrinks by the same factor.
//!   [`IndexBuilder::huge_pages`] opts into `MFD_HUGETLB` backing at the
//!   2 MB boundary (`k = 9`), with a creation-time probe and clean
//!   fallback to 4 KB-page slots
//!   (`StatsSnapshot::huge_pages_active`).
//! * [`IndexBuilder::vma_budget`] injects a private limit (tests, CI
//!   stress); [`StatsSnapshot::vma`] reports the live/retired
//!   mapping split ([`VmaSnapshot::live_vmas`]), the limit, and
//!   reclamation totals, and [`ShortcutIndex::layout_vmas`] /
//!   [`ShortcutIndex::ideal_layout_vmas`] expose the layout estimates.
//!
//! The underlying layers remain available:
//!
//! * [`rewire`] — memory-rewiring substrate (memfd + mmap page remapping).
//! * [`vmsim`] — software virtual-memory simulator (page table, TLBs,
//!   shootdowns) used for deterministic modeling of the paper's
//!   hardware-dependent experiments.
//! * [`core`] — shortcut inner nodes with asynchronous maintenance.
//! * [`exhash`] — the five hashing schemes of the paper's evaluation,
//!   including Shortcut-EH.

pub use shortcut_core as core;
pub use shortcut_exhash as exhash;
pub use shortcut_rewire as rewire;
pub use shortcut_vmsim as vmsim;

pub use shortcut_core::{CompactionPolicy, MaintConfig, RoutePolicy};
pub use shortcut_exhash::{probe_backend, ProbeBackend};
pub use shortcut_exhash::{BucketLayout, CompactionOutcome, Index, IndexError, IndexStats};
pub use shortcut_rewire::{
    max_map_count, PinStrategy, PoolConfig, SlotLayout, VmaBudget, VmaSnapshot,
};

pub use shortcut_exhash::{ShardedIndex, MAX_SHARD_BITS};

use shortcut_core::metrics::MaintSnapshot;
use shortcut_exhash::{EhConfig, ShortcutEh, ShortcutEhConfig};
use std::time::Duration;

/// Builder for [`ShortcutIndex`]: ten setters — pool sizing
/// ([`capacity`](IndexBuilder::capacity), [`pool`](IndexBuilder::pool),
/// [`slot_pages`](IndexBuilder::slot_pages),
/// [`huge_pages`](IndexBuilder::huge_pages)), routing
/// ([`fanin_threshold`](IndexBuilder::fanin_threshold)), the mapper
/// ([`poll_interval`](IndexBuilder::poll_interval)), the mapping budget
/// ([`vma_budget`](IndexBuilder::vma_budget),
/// [`compaction`](IndexBuilder::compaction)) and concurrency
/// ([`shards`](IndexBuilder::shards),
/// [`pin_strategy`](IndexBuilder::pin_strategy)). What they do not reach
/// (load factor, lazy population, a whole [`MaintConfig`]) is set on the
/// layers below: [`exhash::ShortcutEhConfig`].
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
    slot_power: Option<u32>,
    huge_pages: bool,
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

    /// Size the physical slot — the bucket and the rewiring unit — as
    /// `2^k` base pages (default `k = 0`, the paper's 4 KB buckets).
    /// Larger slots hold `~2^k` times more entries per bucket, so the
    /// directory is `~2^k` times shallower and the mapping footprint
    /// (live VMAs against `vm.max_map_count`) shrinks by about the same
    /// factor, at the cost of coarser-grained splits and more bytes
    /// copied per relocation. `k = 9` (2 MB) reaches the hardware
    /// hugepage boundary — combine with [`IndexBuilder::huge_pages`].
    /// Applied on top of an explicit [`IndexBuilder::pool`] config too.
    ///
    /// # Errors
    ///
    /// `k > 9` is rejected at [`IndexBuilder::build`] time.
    pub fn slot_pages(mut self, k: u32) -> Self {
        self.slot_power = Some(k);
        self
    }

    /// Opt into hugepage backing for the pool (effective at the 2 MB slot
    /// boundary, i.e. [`IndexBuilder::slot_pages`]`(9)`): the pool tries
    /// an `MFD_HUGETLB` memfd, probes that hugepages are actually
    /// reserved, and falls back cleanly to plain 4 KB-page slots
    /// otherwise (reported by `StatsSnapshot::huge_pages_active`). Below
    /// the boundary the pool merely advises `MADV_HUGEPAGE`,
    /// best-effort.
    pub fn huge_pages(mut self, enabled: bool) -> Self {
        self.huge_pages = enabled;
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
    /// use taking_the_shortcut::{Index, ShortcutIndex};
    ///
    /// # fn main() -> Result<(), taking_the_shortcut::IndexError> {
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

    /// Physical bucket-layout compaction (default
    /// [`CompactionPolicy::disabled`]; use [`CompactionPolicy::on`] for
    /// the recommended production setting). With compaction the bucket
    /// pages are relocated into directory order — at every doubling, when
    /// the index's mappings cross half of its share of the budget, and to
    /// rescue a suspended or coarsely published shortcut — so rebuilds map
    /// identity runs the kernel merges into a handful of VMAs: this is
    /// what lets shortcut-served lookups scale past the
    /// `vm.max_map_count` ceiling (millions of keys on a stock kernel)
    /// instead of suspending.
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
        if self.shard_bits > MAX_SHARD_BITS {
            return Err(IndexError::Config {
                what: format!(
                    "shards({}) exceeds the cap of {MAX_SHARD_BITS} (2^{MAX_SHARD_BITS} shards)",
                    self.shard_bits
                ),
            });
        }
        let shard_count = 1usize << self.shard_bits;
        let layout = match self.slot_power {
            Some(k) => SlotLayout::new(k).map_err(IndexError::Pool)?,
            None => self
                .pool
                .as_ref()
                .map(|p| p.slot_layout)
                .unwrap_or_default(),
        };
        let eh = EhConfig::default();
        let entries_per_slot = BucketLayout::for_slot(layout).steady_entries(eh.max_load_factor);
        // Compaction passes transiently hold live buckets + the target run
        // + not-yet-reclaimed sources, so give the fixed reservation extra
        // room (virtual address space is effectively free; physical pages
        // are hole-punched back as passes retire their sources).
        let view_multiplier = if self.maint.compaction.enabled() {
            5
        } else {
            2
        };
        let mut pool = self.pool.unwrap_or_else(|| match self.capacity {
            Some(entries) => {
                // Each shard gets its own pool, so the capacity estimate
                // is divided evenly across them (the multiplicative hash
                // spreads keys uniformly over shards).
                let slots_needed = (entries.div_ceil(shard_count) / entries_per_slot).max(1);
                // Growth amortization floors scale by bytes, not slots:
                // ~256 KB per ftruncate and a 16 MB virtual-view minimum
                // at any slot size (the historical 64/4096-page values at
                // k = 0).
                let growth_floor = layout.slots_for_bytes(1 << 18);
                let view_floor = layout.slots_for_bytes(1 << 24).max(64);
                PoolConfig {
                    initial_pages: 1,
                    min_growth_pages: slots_needed.clamp(growth_floor, 4096), // audit:allow(page-literal): growth clamp in pages (a count), not a byte size
                    view_capacity_pages: ((slots_needed * view_multiplier).max(view_floor))
                        .next_power_of_two(),
                    ..PoolConfig::default()
                }
            }
            None => PoolConfig::default(),
        });
        pool.slot_layout = layout;
        if self.huge_pages {
            pool.huge_pages = true;
        }
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
        Ok(ShortcutIndex {
            inner: ShardedIndex::try_new(
                self.shard_bits,
                ShortcutEhConfig {
                    eh: EhConfig { pool, ..eh },
                    maint: self.maint,
                    policy: self.policy,
                },
            )?,
        })
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
    /// knob passed to [`IndexBuilder::slot_pages`].
    pub pages_per_slot: usize,
    /// Bytes per physical slot (= bytes per bucket).
    pub slot_bytes: usize,
    /// Entry capacity of one bucket at this slot size.
    pub bucket_capacity: usize,
    /// Whether hugepage backing was requested
    /// ([`IndexBuilder::huge_pages`]).
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
    /// (`"avx2"`/`"sse2"`/`"scalar"`; `"mixed"` only in a merged snapshot
    /// whose shards somehow disagree).
    pub probe_backend: &'static str,
    /// Times a shared writer revoked a shard's read bias and sent its
    /// readers to the shard lock ([`ShardedIndex::bias_counters`]).
    pub bias_revocations: u64,
    /// Times a writer-free run of locked reads took a shard's readers off
    /// the lock again; a shard with fewer rearms than revocations is
    /// serving `get` through the lock right now.
    pub bias_rearms: u64,
    /// Whether the process has the vectored `MADV_DONTNEED`
    /// ([`rewire::zap_call`]) the mapper batches its TLB shootdowns with;
    /// without it every slot update costs its own.
    pub zap_supported: bool,
    /// Structural + routing statistics of the index.
    pub index: IndexStats,
    /// Counters of the asynchronous mapper thread.
    pub maint: MaintSnapshot,
    /// Operation counters of the backing page pool.
    pub rewire: rewire::StatsSnapshot,
    /// VMA budget and retired-directory lifecycle counters: how many
    /// mappings the index holds (live + retired + pool view), the budget
    /// limit (`vm.max_map_count` unless overridden), and how many retired
    /// directories were reclaimed. Experiments read this instead of
    /// hand-deriving slot caps from the sysctl.
    pub vma: VmaSnapshot,
}

impl StatsSnapshot {
    /// Merge two shards' snapshots into one aggregate (commutative;
    /// [`ShortcutIndex::stats`] folds the per-shard snapshots with it).
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
    ///   hold if **any** shard holds (or); the layout gauges
    ///   (`pages_per_slot`, `slot_bytes`, `bucket_capacity`) take the
    ///   max — shards built by [`IndexBuilder`] are homogeneous, so this
    ///   is the common value; `pin_strategy` is `Asymmetric` only if
    ///   **every** shard runs asymmetric (any Dekker fallback shows);
    ///   `probe_backend` keeps the common name, or `"mixed"` if shards
    ///   ever disagreed; `zap_supported` is one probe per process (and).
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
            pages_per_slot: self.pages_per_slot.max(other.pages_per_slot),
            slot_bytes: self.slot_bytes.max(other.slot_bytes),
            bucket_capacity: self.bucket_capacity.max(other.bucket_capacity),
            huge_pages_requested: self.huge_pages_requested || other.huge_pages_requested,
            huge_pages_active: self.huge_pages_active && other.huge_pages_active,
            pin_strategy: if self.pin_strategy == PinStrategy::Asymmetric
                && other.pin_strategy == PinStrategy::Asymmetric
            {
                PinStrategy::Asymmetric
            } else {
                PinStrategy::Dekker
            },
            probe_backend: if self.probe_backend == other.probe_backend {
                self.probe_backend
            } else {
                "mixed"
            },
            bias_revocations: self.bias_revocations + other.bias_revocations,
            bias_rearms: self.bias_rearms + other.bias_rearms,
            zap_supported: self.zap_supported && other.zap_supported,
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

/// The facade index: Shortcut-EH behind a builder, with concurrent
/// `&self` reads, typed errors and a single merged [`StatsSnapshot`].
/// Transparently sharded: [`IndexBuilder::shards`] partitions it into
/// `2^s` independent Shortcut-EH shards (default 1 — unsharded), each
/// with its own pool and mapper thread, with every entry point routing
/// or aggregating across them.
///
/// See the [crate docs](crate) for a usage example. All [`Index`] methods
/// are also available inherently, so the trait import is optional.
#[derive(Debug)]
pub struct ShortcutIndex {
    inner: ShardedIndex,
}

impl ShortcutIndex {
    /// Start building an index.
    pub fn builder() -> IndexBuilder {
        IndexBuilder::default()
    }

    /// Build with the paper's defaults (load factor 0.35, fan-in
    /// threshold 8, 25 ms mapper poll interval).
    ///
    /// # Errors
    ///
    /// Propagates pool creation failure as [`IndexError`].
    pub fn with_defaults() -> Result<Self, IndexError> {
        Self::builder().build()
    }

    /// Insert or update a key.
    ///
    /// # Errors
    ///
    /// Surfaces pool growth / directory-doubling failure as a typed
    /// [`IndexError`]; applied entries stay readable.
    #[inline]
    pub fn insert(&mut self, key: u64, value: u64) -> Result<(), IndexError> {
        Index::insert(&mut self.inner, key, value)
    }

    /// Look up a key. Takes `&self`: concurrent readers are safe.
    #[inline]
    pub fn get(&self, key: u64) -> Option<u64> {
        Index::get(&self.inner, key)
    }

    /// Batched lookup: `out[i]` answers `keys[i]`. Hashes each key once,
    /// enters each shard once per window of 4096 keys (one pin, one
    /// seqlock ticket) and prefetches ahead of the probe. Allocates the
    /// answer; see [`ShortcutIndex::get_many_into`].
    pub fn get_many(&self, keys: &[u64]) -> Vec<Option<u64>> {
        Index::get_many(&self.inner, keys)
    }

    /// [`ShortcutIndex::get_many`] into a caller-owned buffer (resized to
    /// `keys.len()`): no allocation once `out` has the capacity — what a
    /// server's executor loop wants.
    pub fn get_many_into(&self, keys: &[u64], out: &mut Vec<Option<u64>>) {
        self.inner.get_many_into(keys, out);
    }

    /// Insert a batch, relaying directory events to the mapper once.
    ///
    /// # Errors
    ///
    /// Propagates the first failing insert; entries before it are applied.
    pub fn insert_batch(&mut self, entries: &[(u64, u64)]) -> Result<(), IndexError> {
        Index::insert_batch(&mut self.inner, entries)
    }

    /// Remove a key, returning its value.
    ///
    /// # Errors
    ///
    /// Never fails today; fallible per the [`Index`] write contract.
    #[inline]
    pub fn remove(&mut self, key: u64) -> Result<Option<u64>, IndexError> {
        Index::remove(&mut self.inner, key)
    }

    /// Remove a batch of keys; `out[i]` is the value `keys[i]` held.
    /// Scattered per shard like [`ShortcutIndex::insert_batch`].
    ///
    /// # Errors
    ///
    /// Propagates the first failing shard's error; completed shards keep
    /// their removals.
    pub fn remove_batch(&mut self, keys: &[u64]) -> Result<Vec<Option<u64>>, IndexError> {
        Index::remove_batch(&mut self.inner, keys)
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        Index::len(&self.inner)
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the shortcut directory is currently in sync.
    pub fn in_sync(&self) -> bool {
        self.inner.in_sync()
    }

    /// Whether shortcut maintenance is suspended because the directory no
    /// longer fits the VMA budget. The index keeps answering every lookup
    /// (through the traditional directory); raise `vm.max_map_count` or
    /// [`IndexBuilder::vma_budget`] for shortcut service at this scale.
    pub fn shortcut_suspended(&self) -> bool {
        self.inner.shortcut_suspended()
    }

    /// Current `(traditional, shortcut)` version numbers.
    pub fn versions(&self) -> (u64, u64) {
        self.inner.versions()
    }

    /// Block until the shortcut catches up (test/bench helper; production
    /// readers never wait, they fall back to the traditional directory).
    pub fn wait_sync(&self, timeout: Duration) -> bool {
        self.inner.wait_sync(timeout)
    }

    /// Relocate every bucket page into directory order in one synchronous
    /// pass and hand the resulting identity rebuild to the mapper. After
    /// the mapper applies it (and retired mappings drain), the live VMA
    /// footprint collapses from one-per-scattered-slot to one per fan-in
    /// cluster. Automatic passes run per the
    /// [`IndexBuilder::compaction`] policy; this entry point is for
    /// explicit maintenance windows.
    ///
    /// # Errors
    ///
    /// Propagates pool failures (typically no room for the contiguous
    /// target run); the index stays consistent and keeps answering.
    pub fn compact(&mut self) -> Result<CompactionOutcome, IndexError> {
        self.inner.compact()
    }

    /// Planned-VMA estimate of the current bucket layout, as a fresh
    /// shortcut rebuild would map it (`O(slots)` — diagnostics).
    ///
    /// # Errors
    ///
    /// Propagates directory-invariant violations as [`IndexError`].
    pub fn layout_vmas(&self) -> Result<usize, IndexError> {
        self.inner.layout_vmas()
    }

    /// `slots − buckets + 1`: the irreducible footprint of a perfectly
    /// compacted layout (one VMA plus one per aliased fan-in > 1 slot).
    pub fn ideal_layout_vmas(&self) -> usize {
        self.inner.ideal_layout_vmas()
    }

    /// First error the mapper thread hit, if any.
    pub fn maint_error(&self) -> Option<IndexError> {
        self.inner.maint_error()
    }

    /// Number of shards (`2^s` per [`IndexBuilder::shards`]; 1 unsharded).
    pub fn shard_count(&self) -> usize {
        self.inner.shard_count()
    }

    /// `s`: the number of top hash bits consumed by shard routing.
    pub fn shard_bits(&self) -> u32 {
        self.inner.shard_bits()
    }

    /// The shard index `key` routes to (always 0 when unsharded).
    pub fn shard_of(&self, key: u64) -> usize {
        self.inner.shard_of(key)
    }

    /// Insert through a per-shard write lock — the **shared-writer**
    /// discipline: safe from many threads (`&self`); writers on
    /// *different* shards run in parallel, writers on the same shard
    /// serialize on its lock. Pair one writer thread per shard
    /// (partition keys with [`ShortcutIndex::shard_of`]) for contention-free
    /// scaling.
    ///
    /// # Errors
    ///
    /// Same contract as [`ShortcutIndex::insert`].
    pub fn insert_shared(&self, key: u64, value: u64) -> Result<(), IndexError> {
        self.inner.insert_shared(key, value)
    }

    /// Remove through a per-shard write lock (shared-writer discipline;
    /// see [`ShortcutIndex::insert_shared`]).
    ///
    /// # Errors
    ///
    /// Same contract as [`ShortcutIndex::remove`].
    pub fn remove_shared(&self, key: u64) -> Result<Option<u64>, IndexError> {
        self.inner.remove_shared(key)
    }

    /// Batched insert through per-shard write locks: splits the batch by
    /// shard and applies each group under one lock acquisition.
    ///
    /// # Errors
    ///
    /// Propagates the first failing shard's error; completed shards keep
    /// their groups, the failing shard keeps its applied prefix.
    pub fn insert_batch_shared(&self, entries: &[(u64, u64)]) -> Result<(), IndexError> {
        self.inner.insert_batch_shared(entries)
    }

    /// Batched remove through per-shard write locks: splits the batch by
    /// shard, applies each group under one lock acquisition, and
    /// reassembles the answers in caller order (`out[i]` answers
    /// `keys[i]`). The shared-writer counterpart of
    /// [`ShortcutIndex::remove_batch`] — this is what a multi-key `DEL`
    /// over the network funnels into.
    ///
    /// # Errors
    ///
    /// Propagates the first failing shard's error; completed shards keep
    /// their removals.
    pub fn remove_batch_shared(&self, keys: &[u64]) -> Result<Vec<Option<u64>>, IndexError> {
        self.inner.remove_batch_shared(keys)
    }

    /// [`ShortcutIndex::remove_batch_shared`] into a caller-owned buffer
    /// (resized to `keys.len()`).
    ///
    /// # Errors
    ///
    /// As [`ShortcutIndex::remove_batch_shared`].
    pub fn remove_batch_shared_into(
        &self,
        keys: &[u64],
        out: &mut Vec<Option<u64>>,
    ) -> Result<(), IndexError> {
        self.inner.remove_batch_shared_into(keys, out)
    }

    /// One merged snapshot of index, maintenance, and pool counters,
    /// aggregated over all shards with the documented
    /// [`StatsSnapshot::merge`] semantics. Per-shard snapshots are taken
    /// one shard at a time (not atomically across shards).
    pub fn stats(&self) -> StatsSnapshot {
        (0..self.shard_count())
            .map(|i| self.shard_stats(i))
            .reduce(|a, b| a.merge(&b))
            .expect("at least one shard")
    }

    /// The per-shard breakdown behind [`ShortcutIndex::stats`]: shard
    /// `i`'s own snapshot (`shards == 1`).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.shard_count()`.
    pub fn shard_stats(&self, i: usize) -> StatsSnapshot {
        let (bias_revocations, bias_rearms) = self.inner.bias_counters(i);
        self.inner.with_shard(i, |s| StatsSnapshot {
            shards: 1,
            len: s.len(),
            global_depth: s.global_depth(),
            bucket_count: s.bucket_count(),
            avg_fanin: s.avg_fanin(),
            in_sync: s.in_sync(),
            versions: s.versions(),
            shortcut_suspended: s.shortcut_suspended(),
            pages_per_slot: s.slot_layout().pages_per_slot(),
            slot_bytes: s.slot_layout().slot_bytes(),
            bucket_capacity: s.bucket_layout().capacity(),
            huge_pages_requested: s.huge_requested(),
            huge_pages_active: s.huge_active(),
            pin_strategy: s.pin_strategy(),
            probe_backend: probe_backend().name(),
            bias_revocations,
            bias_rearms,
            zap_supported: rewire::zap_call().is_some(),
            index: s.stats(),
            maint: s.maint_metrics(),
            rewire: s.pool_stats(),
            vma: s.vma_stats(),
        })
    }

    /// The wrapped sharded scheme, for paper-level experiments that need
    /// direct access (per-shard probes, version plumbing, published
    /// shortcut state via [`ShardedIndex::with_shard`]).
    pub fn as_sharded(&self) -> &ShardedIndex {
        &self.inner
    }

    /// Run `f` against shard `i`'s [`ShortcutEh`] under a read lock — the
    /// sharded replacement for the former `as_shortcut_eh` accessor.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.shard_count()`.
    pub fn with_shard<R>(&self, i: usize, f: impl FnOnce(&ShortcutEh) -> R) -> R {
        self.inner.with_shard(i, f)
    }
}

impl Index for ShortcutIndex {
    #[inline]
    fn insert(&mut self, key: u64, value: u64) -> Result<(), IndexError> {
        ShortcutIndex::insert(self, key, value)
    }

    fn get(&self, key: u64) -> Option<u64> {
        ShortcutIndex::get(self, key)
    }

    #[inline]
    fn remove(&mut self, key: u64) -> Result<Option<u64>, IndexError> {
        ShortcutIndex::remove(self, key)
    }

    fn len(&self) -> usize {
        ShortcutIndex::len(self)
    }

    fn name(&self) -> &'static str {
        Index::name(&self.inner)
    }

    fn get_many(&self, keys: &[u64]) -> Vec<Option<u64>> {
        ShortcutIndex::get_many(self, keys)
    }

    fn insert_batch(&mut self, entries: &[(u64, u64)]) -> Result<(), IndexError> {
        ShortcutIndex::insert_batch(self, entries)
    }

    fn remove_batch(&mut self, keys: &[u64]) -> Result<Vec<Option<u64>>, IndexError> {
        ShortcutIndex::remove_batch(self, keys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(len: usize, depth: u32, buckets: usize, fanin: f64, in_sync: bool) -> StatsSnapshot {
        StatsSnapshot {
            shards: 1,
            len,
            global_depth: depth,
            bucket_count: buckets,
            avg_fanin: fanin,
            in_sync,
            versions: (len as u64, len as u64),
            shortcut_suspended: false,
            pages_per_slot: 1,
            slot_bytes: rewire::PAGE_SIZE_4K,
            bucket_capacity: 87,
            huge_pages_requested: false,
            huge_pages_active: true,
            pin_strategy: PinStrategy::Asymmetric,
            probe_backend: "scalar",
            bias_revocations: 0,
            bias_rearms: 0,
            zap_supported: true,
            index: IndexStats::default(),
            maint: MaintSnapshot::default(),
            rewire: rewire::StatsSnapshot::default(),
            vma: VmaSnapshot::default(),
        }
    }

    #[test]
    fn snapshot_merge_sums_counters_and_takes_honest_gauges() {
        let mut a = snap(100, 5, 10, 2.0, true);
        a.index.splits = 4;
        a.maint.coarse_service_pct = 100;
        let mut b = snap(50, 7, 30, 1.0, false);
        b.index.splits = 1;
        b.shortcut_suspended = true;
        b.maint.coarse_service_pct = 80;
        let m = a.merge(&b);
        assert_eq!(m.shards, 2);
        assert_eq!(m.len, 150);
        assert_eq!(m.global_depth, 7, "gauge: deepest shard");
        assert_eq!(m.bucket_count, 40);
        // Re-weighted by bucket count: (2.0*10 + 1.0*30) / 40.
        assert!((m.avg_fanin - 1.25).abs() < 1e-9, "got {}", m.avg_fanin);
        assert!(!m.in_sync, "in_sync only if every shard is");
        assert!(m.shortcut_suspended, "suspended if any shard is");
        assert_eq!(m.versions, (150, 150));
        assert_eq!(m.index.splits, 5);
        assert_eq!(m.maint.coarse_service_pct, 80, "worst-served shard");
        // Commutative.
        let n = b.merge(&a);
        assert_eq!(n.len, m.len);
        assert_eq!(n.global_depth, m.global_depth);
        assert!((n.avg_fanin - m.avg_fanin).abs() < 1e-12);
    }

    #[test]
    fn snapshot_merge_with_empty_shard_keeps_fanin_finite() {
        let a = snap(0, 0, 0, 0.0, true);
        let b = snap(10, 1, 2, 1.5, true);
        let m = a.merge(&b);
        assert_eq!(m.bucket_count, 2);
        assert!((m.avg_fanin - 1.5).abs() < 1e-9);
        let empty = a.merge(&snap(0, 0, 0, 0.0, true));
        assert_eq!(empty.avg_fanin, 0.0, "0 buckets must not divide by zero");
    }

    #[test]
    fn snapshot_display_is_stable_and_greppable() {
        let mut s = snap(150, 5, 10, 2.0, true);
        s.index.shortcut_lookups = 190;
        s.index.traditional_lookups = 10;
        let text = s.to_string();
        // The stable contract: every group line starts with its key, and
        // the key=value pairs are parseable (INFO and CI grep for these).
        for key in [
            "index: entries=150 ",
            "shortcut: in_sync=true ",
            "layout: pages_per_slot=1 ",
            "lookups: shortcut=190 traditional=10 shortcut_served_pct=95.0",
            "structure: splits=0 ",
            "maint: creates=0 ",
            " passes=0 update_batches=0 slots_zapped=0",
            "vma: in_use=0 ",
            "read_path: pin_strategy=asymmetric probe_backend=scalar bias_revocations=0 bias_rearms=0 zap_supported=true",
            "rewire: pages_populated=0 pages_allocated=0 pages_freed=0 pool_file_slots=0",
        ] {
            assert!(text.contains(key), "missing `{key}` in:\n{text}");
        }
        assert!((s.shortcut_served_pct() - 95.0).abs() < 1e-9);
        assert_eq!(snap(0, 0, 0, 0.0, true).shortcut_served_pct(), 0.0);
    }

    #[test]
    fn snapshot_merge_read_path_takes_the_honest_extreme() {
        let asym = snap(1, 0, 1, 1.0, true);
        let mut dekker = snap(1, 0, 1, 1.0, true);
        dekker.pin_strategy = PinStrategy::Dekker;
        assert_eq!(
            asym.merge(&asym).pin_strategy,
            PinStrategy::Asymmetric,
            "all-asymmetric shards stay asymmetric"
        );
        assert_eq!(
            asym.merge(&dekker).pin_strategy,
            PinStrategy::Dekker,
            "any Dekker fallback must show in the aggregate"
        );
        let mut simd = snap(1, 0, 1, 1.0, true);
        simd.probe_backend = "avx2";
        assert_eq!(asym.merge(&asym).probe_backend, "scalar");
        assert_eq!(asym.merge(&simd).probe_backend, "mixed");
    }

    #[test]
    fn remove_batch_matches_sequential_removes_through_the_facade() {
        let mut idx = ShortcutIndex::builder()
            .capacity(2_000)
            .shards(1)
            .vma_budget(100_000)
            .build()
            .unwrap();
        for k in 0..1_000u64 {
            idx.insert(k, k + 7).unwrap();
        }
        let keys: Vec<u64> = vec![3, 5_000, 3, 999];
        let got = idx.remove_batch(&keys).unwrap();
        assert_eq!(got, vec![Some(10), None, None, Some(1_006)]);
        // Shared-writer variant on the remaining keys.
        let rest: Vec<u64> = (0..1_000).filter(|&k| k != 3 && k != 999).collect();
        let got = idx.remove_batch_shared(&rest).unwrap();
        assert!(got.iter().all(|v| v.is_some()));
        assert!(idx.is_empty());
    }

    #[test]
    fn builder_rejects_shard_bits_above_the_cap() {
        let err = ShortcutIndex::builder()
            .shards(MAX_SHARD_BITS + 1)
            .build()
            .unwrap_err();
        assert!(matches!(err, IndexError::Config { .. }), "got {err:?}");
    }

    #[test]
    fn sharded_facade_routes_and_aggregates() {
        let mut idx = ShortcutIndex::builder()
            .capacity(4_000)
            .shards(2)
            .vma_budget(100_000)
            .build()
            .unwrap();
        assert_eq!(idx.shard_count(), 4);
        for k in 0..4_000u64 {
            idx.insert(k, k ^ 0xFF).unwrap();
        }
        assert_eq!(idx.len(), 4_000);
        let s = idx.stats();
        assert_eq!(s.shards, 4);
        assert_eq!(s.len, 4_000);
        let per_shard: usize = (0..4).map(|i| idx.shard_stats(i).len).sum();
        assert_eq!(per_shard, 4_000);
        for i in 0..4 {
            assert!(idx.shard_stats(i).len > 500, "shard {i} nearly empty");
        }
        for k in (0..4_000u64).step_by(13) {
            assert_eq!(idx.get(k), Some(k ^ 0xFF));
        }
        assert!(idx.maint_error().is_none());
    }
}
