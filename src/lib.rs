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
//! Because [`Index::get`] takes `&self` (a read enters its shard's read
//! section and loads one serving word that no writer can move while the
//! section lasts), any number of threads may share `&ShortcutIndex` and
//! look up concurrently — e.g. via `std::thread::scope` — while the
//! borrow checker guarantees no writer coexists. The exclusive writes and
//! the batched reads are [`Index`] methods: import the trait to call them.
//! [`ShortcutIndex`], [`IndexBuilder`] and [`StatsSnapshot`] are defined
//! in [`exhash`] and re-exported here.
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
//!   ([`StatsSnapshot::shortcut_suspended`]) — lookups keep working
//!   through the traditional directory, and nothing dies inside `mmap`.
//! * The directory is indexed by hash **suffix** and each bucket sits on
//!   the pool page of its suffix, so a rebuild maps runs of consecutive
//!   pages the kernel merges into a handful of VMAs. With
//!   [`IndexBuilder::compaction`] set to [`CompactionPolicy::on`],
//!   rebuild admission reserves that exact footprint instead of the worst
//!   case, publishes coarser when even that does not fit, and
//!   shortcut-served lookups scale to millions of keys on a stock kernel.
//! * [`IndexBuilder::vma_budget`] injects a private limit (tests, CI
//!   stress); [`StatsSnapshot::vma`] reports the live/retired
//!   mapping split ([`VmaSnapshot::live_vmas`]), the limit, and
//!   reclamation totals, and [`ShortcutIndex::layout_vmas`] exposes the
//!   layout estimate.
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
pub use shortcut_exhash::{BucketLayout, Index, IndexError, IndexStats};
pub use shortcut_rewire::{
    max_map_count, PinStrategy, PoolConfig, SlotLayout, VmaBudget, VmaSnapshot,
};

pub use shortcut_exhash::{IndexBuilder, ShortcutIndex, StatsSnapshot, MAX_SHARD_BITS};
