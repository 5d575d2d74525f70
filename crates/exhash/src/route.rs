//! The one routing primitive behind every batched entry point.
//!
//! [`route`] cuts a batch into windows of at most [`WINDOW`] keys and, per
//! window, hashes every key **once**, records the shard each hash routes
//! to, and counting-sorts the window positions by shard into a per-thread
//! scratch — no allocation after a thread's first batch. The caller's
//! `visit` is then invoked once per *present* shard with the window's
//! hashes and that shard's positions (in batch order, so duplicate keys
//! keep their sequential semantics); it enters the shard's read or write
//! section once and hands `(keys, hashes, positions)` to a chunk operation
//! ([`crate::ShortcutEh::get_chunk`] and friends) that writes `out[pos]`
//! in place.

use crate::hash::{dir_slot, mult_hash};
use crate::shard::MAX_SHARD_BITS;
use std::cell::RefCell;
use std::convert::Infallible;
use std::ops::Range;

/// Keys routed — and then served under one reader pin and serving word,
/// or one write section, per shard — at a time: large enough to amortize
/// the per-section cost to nothing, small enough (microseconds of pin
/// hold) that batched read storms cannot stall the reclaim scan.
pub(crate) const WINDOW: usize = 4096; // audit:allow(page-literal): key-batch size per pin, not a page size

/// Per-thread routing scratch, indexed by window position.
struct Scratch {
    /// [`mult_hash`] of each key of the window.
    hashes: [u64; WINDOW],
    /// The shard each key routes to.
    shard_of: [u8; WINDOW],
    /// Window positions grouped by shard, batch order within a group.
    order: [u16; WINDOW],
    /// Where each shard's group of `order` ends.
    ends: [u16; 1 << MAX_SHARD_BITS],
}

thread_local! {
    static SCRATCH: RefCell<Box<Scratch>> = RefCell::new(Box::new(Scratch {
        hashes: [0; WINDOW],
        shard_of: [0; WINDOW],
        order: [0; WINDOW],
        ends: [0; 1 << MAX_SHARD_BITS],
    }));
}

/// `order` of a window whose keys all route to one shard.
static IDENTITY: [u16; WINDOW] = {
    let mut order = [0; WINDOW];
    let mut p = 0;
    while p < WINDOW {
        order[p] = p as u16;
        p += 1;
    }
    order
};

/// What a batch is made of: bare keys, or `(key, value)` entries.
pub(crate) trait Keyed {
    fn key(&self) -> u64;
}

impl Keyed for u64 {
    #[inline(always)]
    fn key(&self) -> u64 {
        *self
    }
}

impl Keyed for (u64, u64) {
    #[inline(always)]
    fn key(&self) -> u64 {
        self.0
    }
}

/// Route `items` by their keys over `2^bits` shards: per window,
/// `visit(shard, window, hashes, positions)` runs once for every shard
/// that owns a key of it, shards ascending. `window` is the window's range
/// within `items`; `hashes[p]` is the [`mult_hash`] of the window's `p`-th
/// key and `positions` lists the `p`s owned by `shard`.
///
/// # Errors
///
/// Stops at, and returns, the first error `visit` reports.
pub(crate) fn route<T: Keyed, E>(
    bits: u32,
    items: &[T],
    mut visit: impl FnMut(usize, Range<usize>, &[u64], &[u16]) -> Result<(), E>,
) -> Result<(), E> {
    SCRATCH.with_borrow_mut(|scratch| {
        let Scratch {
            hashes,
            shard_of,
            order,
            ends,
        } = &mut **scratch;
        let ends = &mut ends[..1 << bits];
        for (w, items) in items.chunks(WINDOW).enumerate() {
            let window = w * WINDOW..w * WINDOW + items.len();
            let hashes = &mut hashes[..items.len()];
            for (hash, item) in hashes.iter_mut().zip(items) {
                *hash = mult_hash(item.key());
            }
            if bits == 0 {
                // One shard owns every position: the sort below would
                // reproduce `IDENTITY` through a store-to-load chain per
                // key, which alone cost the unsharded `get_many` +40 %.
                visit(0, window, hashes, &IDENTITY[..items.len()])?;
                continue;
            }
            // Count per shard, then turn the counts into each group's end
            // as the positions are dealt out.
            let shard_of = &mut shard_of[..items.len()];
            ends.fill(0);
            for (shard, &hash) in shard_of.iter_mut().zip(&*hashes) {
                *shard = dir_slot(hash, bits) as u8;
                ends[*shard as usize] += 1;
            }
            let mut start = 0;
            for end in ends.iter_mut() {
                start += std::mem::replace(end, start);
            }
            for (p, &shard) in shard_of.iter().enumerate() {
                let end = &mut ends[shard as usize];
                order[*end as usize] = p as u16;
                *end += 1;
            }
            let mut from = 0;
            for (shard, &end) in ends.iter().enumerate() {
                let end = end as usize;
                if end > from {
                    visit(shard, window.clone(), hashes, &order[from..end])?;
                }
                from = end;
            }
        }
        Ok(())
    })
}

/// [`route`] for a `visit` that cannot fail (lookups, removals).
pub(crate) fn route_all<T: Keyed>(
    bits: u32,
    items: &[T],
    mut visit: impl FnMut(usize, Range<usize>, &[u64], &[u16]),
) {
    let Ok(()) = route(bits, items, |shard, window, hashes, positions| {
        visit(shard, window, hashes, positions);
        Ok::<(), Infallible>(())
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every key visited exactly once, under the shard its hash routes to,
    /// in batch order within the shard, windows in order.
    #[test]
    fn visits_each_key_once_in_order_under_its_shard() {
        for bits in [0, 1, 3, MAX_SHARD_BITS] {
            for n in [0, 1, 17, WINDOW, WINDOW + 1, 3 * WINDOW - 5] {
                let keys: Vec<u64> = (0..n as u64).map(|k| k * 31 + 7).collect();
                let mut seen = vec![0u32; n];
                let mut last: Vec<Option<usize>> = vec![None; 1 << bits];
                let mut windows = Vec::new();
                route_all(bits, &keys, |shard, window, hashes, pos| {
                    assert_eq!(hashes.len(), window.len());
                    assert!(!pos.is_empty(), "absent shards are skipped");
                    if windows.last() != Some(&window) {
                        windows.push(window.clone());
                    }
                    for &p in pos {
                        let at = window.start + p as usize;
                        assert_eq!(hashes[p as usize], mult_hash(keys[at]));
                        assert_eq!(dir_slot(hashes[p as usize], bits), shard);
                        assert!(last[shard].is_none_or(|prev| prev < at));
                        last[shard] = Some(at);
                        seen[at] += 1;
                    }
                });
                assert!(seen.iter().all(|&c| c == 1), "bits {bits} n {n}");
                let expect: Vec<_> = (0..n)
                    .step_by(WINDOW)
                    .map(|s| s..(s + WINDOW).min(n))
                    .collect();
                assert_eq!(windows, expect);
            }
        }
    }

    #[test]
    fn stops_at_the_first_error() {
        let keys: Vec<u64> = (0..100).collect();
        let mut calls = 0;
        let r = route(2, &keys, |_, _, _, _| {
            calls += 1;
            if calls == 2 {
                Err("boom")
            } else {
                Ok(())
            }
        });
        assert_eq!(r, Err("boom"));
        assert_eq!(calls, 2);
    }
}
