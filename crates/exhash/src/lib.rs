//! # shortcut-exhash — the paper's five hashing schemes
//!
//! Implements every index evaluated in §4.2, all sharing the same
//! lightweight multiplicative hash and (where applicable) 4 KB buckets:
//!
//! * [`HashTable`] (**HT**) — one open-addressing/linear-probing table that
//!   doubles and fully rehashes when the load factor is exceeded.
//! * [`IncrementalHashTable`] (**HTI**) — Redis-style incremental rehash:
//!   the old and new tables coexist; every access migrates a batch of
//!   entries; lookups probe both tables, larger first.
//! * [`ChainedHash`] (**CH**) — a fixed-size table whose slots hold an
//!   entry or link to a chain of fixed-size (128 B) overflow buckets.
//! * [`ExtendibleHash`] (**EH**) — classical extendible hashing \[Fagin et
//!   al. 1979\]: a directory indexed by the directory hash's low bits (its
//!   suffix), pointing to 4 KB buckets with local depths; buckets split on
//!   overflow and the directory doubles — appending a copy of itself —
//!   when a bucket's local depth reaches the global depth.
//! * [`ShortcutEh`] (**Shortcut-EH**) — EH enhanced with a page-table
//!   shortcut directory maintained asynchronously (paper §4.1): lookups
//!   route through the shortcut whenever it is in sync and the average
//!   fan-in is at most the policy threshold.
//!
//! All five implement the [`Index`] trait: lookups through `&self` (so
//! readers can share an index across threads where the scheme is `Sync`),
//! writes through `&mut self` returning [`IndexError`] on pool or
//! directory-growth failure, and overridable batched entry points.
//!
//! The front door is [`ShortcutIndex`]: `2^s` Shortcut-EH shards routed
//! by the top hash bits, configured through [`IndexBuilder`], with
//! shared-writer entry points beside [`Index`] and one merged
//! [`StatsSnapshot`].

pub mod bucket;
mod builder;
pub mod chained;
pub mod eh;
pub mod error;
pub mod hash;
pub mod ht;
pub mod hti;
pub mod shard;
pub mod shortcut_eh;
pub mod stats;
#[cfg(test)]
mod tests;
pub mod traits;

pub use bucket::{
    probe_backend, BucketLayout, BucketRef, InsertOutcome, ProbeBackend, BUCKET_CAPACITY,
};
pub use builder::IndexBuilder;
pub use chained::{ChConfig, ChainedHash};
pub use eh::{EhConfig, ExtendibleHash};
pub use error::IndexError;
pub use hash::{bucket_slot_hash, dir_hash_of, dir_slot, mult_hash};
pub use ht::{HashTable, HtConfig};
pub use hti::{HtiConfig, IncrementalHashTable};
pub use shard::{ShortcutIndex, MAX_SHARD_BITS};
pub use shortcut_eh::{ShortcutEh, ShortcutEhConfig};
pub use stats::{IndexStats, StatsSnapshot};
pub use traits::Index;
