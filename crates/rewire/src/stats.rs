//! Statistics: the [`Counter`] cell, the [`statistics!`](crate::statistics)
//! declaration every counter block of the stack is written in, and the
//! rewiring substrate's own block.
//!
//! The paper's §3 "bewares" are all about *how often* the expensive
//! operations happen (mmap calls, page-table populations, pool resizes).
//! These counters make that observable in tests, examples, and benches.

use std::sync::atomic::{AtomicU64, Ordering};

/// A statistic cell: a number that is counted or set on one thread and
/// printed on another. No consumer branches on it for correctness, so a
/// stale read changes a printed number, never a decision; every access is
/// therefore `Relaxed`, and this is the one place a statistic says so.
/// What a counter must order against (the mapper's pass count) is bumped
/// and read under a lock instead.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Count `n` more.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Set a gauge to `v`.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// The current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Declares a block of statistics once: each field with its doc, its type
/// and the rule by which two shards' (pools', mappers') readings merge.
///
/// ```text
/// statistics! {
///     /// Doc of the snapshot.
///     #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
///     pub struct Snapshot {
///         /// Doc of the field.
///         field: u64 = Sum,
///     }
/// }
/// ```
///
/// generates the plain `Snapshot` with every field `pub`, and
/// `Snapshot::merge(&self, &other) -> Snapshot`, field by field:
///
/// | rule | merged field |
/// |---|---|
/// | `Sum` | `self + other` — event counters, gauges that add up across shards |
/// | `Max` / `Min` | the larger / smaller — a gauge of one shared thing, an extreme |
/// | `And` / `Or` | holds if every / any shard holds |
/// | `First` | `self`'s — one configuration per index, one probe per process |
/// | `Merge` | the field's own `merge` — a nested block |
/// | `With(f)` | `f(&self, &other)` — the rule the table cannot state |
///
/// A block with live cells is declared as two structs: first the cells,
/// then the snapshot with the fields only its owner fills in (possibly
/// none). The cells struct gets a [`Counter`] per field (the same docs and
/// the struct's visibility; every cell field is a `u64`), `Default`, and
/// `snapshot()`, which copies every cell and leaves the owner's fields at
/// their default.
#[macro_export]
macro_rules! statistics {
    (
        $(#[$cells_meta:meta])*
        $vis:vis struct $cells:ident {
            $(
                $(#[$cell_meta:meta])*
                $cell:ident : u64 = $cell_rule:ident $(($($cell_arg:tt)*))?
            ),* $(,)?
        }
        $(#[$snap_meta:meta])*
        pub struct $snap:ident {
            $(
                $(#[$own_meta:meta])*
                $own:ident : $own_ty:ty = $own_rule:ident $(($($own_arg:tt)*))?
            ),* $(,)?
        }
    ) => {
        $crate::statistics! {
            $(#[$snap_meta])*
            pub struct $snap {
                $( $(#[$cell_meta])* $cell: u64 = $cell_rule $(($($cell_arg)*))?, )*
                $( $(#[$own_meta])* $own: $own_ty = $own_rule $(($($own_arg)*))?, )*
            }
        }

        $(#[$cells_meta])*
        #[derive(Debug, Default)]
        $vis struct $cells {
            $( $(#[$cell_meta])* $vis $cell: $crate::Counter, )*
        }

        impl $cells {
            /// Copy out every cell; the fields the owner fills in are left
            /// at their default.
            pub fn snapshot(&self) -> $snap {
                $snap {
                    $( $cell: self.$cell.get(), )*
                    $( $own: ::core::default::Default::default(), )*
                }
            }
        }
    };
    (
        $(#[$snap_meta:meta])*
        pub struct $snap:ident {
            $(
                $(#[$field_meta:meta])*
                $field:ident : $ty:ty = $rule:ident $(($($arg:tt)*))?
            ),* $(,)?
        }
    ) => {
        $(#[$snap_meta])*
        pub struct $snap {
            $( $(#[$field_meta])* pub $field: $ty, )*
        }

        impl $snap {
            /// Merge two readings into one aggregate, each field by the
            /// rule it is declared with.
            pub fn merge(&self, other: &Self) -> Self {
                Self {
                    $(
                        $field: $crate::merge_rule!($rule $(($($arg)*))?, self, other, $field),
                    )*
                }
            }
        }
    };
}

/// One merge rule of [`statistics!`](crate::statistics), applied to one field.
#[doc(hidden)]
#[macro_export]
macro_rules! merge_rule {
    (Sum, $a:expr, $b:expr, $f:ident) => {
        $a.$f + $b.$f
    };
    (Max, $a:expr, $b:expr, $f:ident) => {
        ::core::cmp::Ord::max($a.$f, $b.$f)
    };
    (Min, $a:expr, $b:expr, $f:ident) => {
        ::core::cmp::Ord::min($a.$f, $b.$f)
    };
    (And, $a:expr, $b:expr, $f:ident) => {
        $a.$f && $b.$f
    };
    (Or, $a:expr, $b:expr, $f:ident) => {
        $a.$f || $b.$f
    };
    (First, $a:expr, $b:expr, $f:ident) => {
        $a.$f
    };
    (Merge, $a:expr, $b:expr, $f:ident) => {
        $a.$f.merge(&$b.$f)
    };
    (With($rule:expr), $a:expr, $b:expr, $f:ident) => {
        ($rule)($a, $b)
    };
}

crate::statistics! {
    /// Shared, thread-safe counters. One instance lives in each
    /// [`crate::PagePool`] and is shared with the areas rewired against it.
    pub(crate) struct RewireStats {
        /// Number of `mmap` invocations (reservations + rewirings).
        mmap_calls: u64 = Sum,
        /// Number of `munmap` invocations.
        munmap_calls: u64 = Sum,
        /// Virtual pages whose mapping was redirected to a pool page.
        pages_rewired: u64 = Sum,
        /// Pages eagerly inserted into the page table (`MAP_POPULATE` or touch).
        pages_populated: u64 = Sum,
        /// Pool file growth events (`ftruncate` up).
        pool_grows: u64 = Sum,
        /// Pages handed out by the pool allocator.
        pages_allocated: u64 = Sum,
        /// Pages returned to the pool: always 0. The pool hands each page
        /// out once and takes none back; the field stays while the
        /// benchmark's `mem_bytes_per_key` and the stats report read it.
        pages_freed: u64 = Sum,
    }
    /// A point-in-time copy of a pool's operation counters
    /// ([`crate::PagePool::stats`]). The sharded index merges one per
    /// shard's pool; every field sums, the gauge too.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct StatsSnapshot {
        /// Gauge: slots in the pool's file right now, handed out or not
        /// (the pool fills it in). Populated eagerly, all of them are
        /// resident, where `pages_allocated` counts only those handed
        /// out. Adds up across pools.
        pool_file_slots: u64 = Sum,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = RewireStats::default();
        s.mmap_calls.add(2);
        s.pages_rewired.add(5);
        s.pages_allocated.add(3);
        s.pages_freed.add(1);
        let snap = s.snapshot();
        assert_eq!(snap.mmap_calls, 2);
        assert_eq!(snap.pages_rewired, 5);
        assert_eq!(snap.pages_allocated, 3);
        assert_eq!(snap.pages_freed, 1);
        assert_eq!(snap.pool_file_slots, 0, "the pool fills the gauge in");
    }

    #[test]
    fn merge_sums_every_counter() {
        let a = StatsSnapshot {
            mmap_calls: 1,
            munmap_calls: 2,
            pages_rewired: 3,
            pages_populated: 4,
            pool_grows: 5,
            pages_allocated: 7,
            pages_freed: 8,
            pool_file_slots: 9,
        };
        let b = StatsSnapshot {
            mmap_calls: 10,
            munmap_calls: 20,
            pages_rewired: 30,
            pages_populated: 40,
            pool_grows: 50,
            pages_allocated: 70,
            pages_freed: 80,
            pool_file_slots: 90,
        };
        let m = a.merge(&b);
        assert_eq!(
            m,
            StatsSnapshot {
                mmap_calls: 11,
                munmap_calls: 22,
                pages_rewired: 33,
                pages_populated: 44,
                pool_grows: 55,
                pages_allocated: 77,
                pages_freed: 88,
                pool_file_slots: 99, // a gauge that adds up across pools
            }
        );
        assert_eq!(m, b.merge(&a));
    }
}
