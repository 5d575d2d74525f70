//! # shortcut-rewire — user-space memory rewiring
//!
//! This crate is the lowest layer of the *Taking the Shortcut* stack: a safe
//! wrapper around the Linux primitives that make user-controlled
//! virtual→physical page mappings possible (the technique the paper calls
//! *memory rewiring*, after RUMA \[Schuhknecht et al., VLDB 2016\]).
//!
//! The building blocks map 1:1 onto the paper's §2:
//!
//! * [`MemFile`] — a *main-memory file* created with `memfd_create(2)`. It
//!   behaves like a regular file but is backed by volatile physical memory,
//!   so its file offsets act as **handles to physical pages**.
//! * [`PagePool`] — a self-managed pool of physical pages represented by a
//!   single `MemFile` that grows on demand (`ftruncate(2)`), hands each
//!   page out once (it reads zeros until written), and maintains a linear
//!   virtual view (`v_pool`) over the whole file.
//! * [`VirtArea`] — a consecutive virtual memory area reserved with
//!   `mmap(MAP_PRIVATE | MAP_ANONYMOUS)`. Individual pages of the area can
//!   be **rewired** to pool pages with `mmap(MAP_SHARED | MAP_FIXED)`,
//!   optionally eagerly populating the page table (`MAP_POPULATE`).
//! * [`VmaBudget`] / [`RetireList`] — the mapping-lifecycle layer: areas
//!   account their VMA footprint against a `vm.max_map_count`-fed budget,
//!   and superseded areas are *retired* (epoch-stamped, kept mapped) until
//!   every reader pin taken before retirement has drained, then unmapped.
//! * [`ReadBias`] — the same reader pins standing in for the read side of a
//!   reader-writer lock while no shared writer is around.
//!
//! All `unsafe` in the workspace is concentrated here. The safety argument
//! is documented on each wrapper; the crate-level invariants are:
//!
//! 1. A [`VirtArea`] owns its reservation exclusively: no other code mmaps
//!    into `[base, base + pages * page_size)`.
//! 2. Pool pages referenced by a live rewired mapping must not be truncated
//!    away (the pool never shrinks its file).
//! 3. Aliased access (the same physical page visible through `v_pool` *and*
//!    through one or more rewired virtual pages) is exposed through raw
//!    pointers and volatile-free plain loads/stores; callers must not hold
//!    Rust references to both views simultaneously.

mod bias;
mod budget;
mod error;
mod memfile;
mod page;
mod pool;
mod retire;
mod slot;
mod stats;
pub mod sync;
mod varea;

pub use bias::{ReadBias, REARM_AFTER};
pub use budget::{
    budget_headroom, max_map_count, BudgetBinding, BudgetReservation, PoolUsage, VmaBudget,
    VmaSnapshot, DEFAULT_MAX_MAP_COUNT,
};
pub use error::{Error, Result};
pub use memfile::MemFile;
pub use page::{is_page_aligned, page_size, pages_to_bytes, PageIdx, PAGE_SHIFT_4K, PAGE_SIZE_4K};
pub use pool::{PagePool, PoolConfig, PoolHandle};
pub use retire::{PinStrategy, ReaderPin, Reclaimable, RetireCore, RetireList, TALLIES};
pub use slot::SlotLayout;
pub use stats::{Counter, StatsSnapshot};
pub use varea::{
    planned_vmas, rewire_page_raw, zap_call, Mapping, VirtArea, ZapCall, ZapRange, ZAP_BATCH,
};
