//! The batched entry points allocate nothing: `get_many_into`,
//! `insert_batch_shared` and `remove_batch_shared_into` make **zero** heap
//! allocations per call into a buffer that has the capacity — from a fresh
//! thread's first call on, at one shard and four, from one key to more
//! than a window.
//! Writes only update or re-insert keys the buckets already had room for,
//! so no split is provoked. A split itself allocates nothing either, on a
//! plain EH (second test), and next to nothing through the facade, whose
//! event buffer is drained in place (third test).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;
use taking_the_shortcut::exhash::{ExtendibleHash, Index};
use taking_the_shortcut::ShortcutIndex;

/// Counts the allocations of the thread that asks, so the index's mapper
/// threads (and the test harness) do not show up in a measurement.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: forwards to `System` unchanged; the counter is a `const`
// thread-local `Cell` without a destructor, so touching it allocates
// nothing and cannot re-enter.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations this thread makes while running `f`.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.get();
    f();
    ALLOCATIONS.get() - before
}

#[test]
fn batched_calls_allocate_nothing_after_warm_up() {
    const KEYS: u64 = 20_000;
    assert_eq!(
        allocations(|| drop(std::hint::black_box(vec![0u8; 64]))),
        1,
        "the counter must see this thread's allocations"
    );
    for shard_bits in [0, 2] {
        let index = ShortcutIndex::builder()
            .capacity(KEYS as usize)
            .shards(shard_bits)
            .vma_budget(100_000)
            .build()
            .unwrap();
        let all: Vec<(u64, u64)> = (0..KEYS).map(|k| (k, k ^ 0xABCD)).collect();
        index.insert_batch_shared(&all).unwrap();
        assert!(index.wait_sync(Duration::from_secs(30)));

        let mut answers = Vec::new();
        for size in [1usize, 5, 16, 256, 5_000] {
            // Distinct present keys, spread over every shard.
            let keys: Vec<u64> = (0..size as u64).map(|i| i * 3 + 1).collect();
            let entries: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k + size as u64)).collect();
            let round = |answers: &mut Vec<Option<u64>>| {
                let reads = allocations(|| index.get_many_into(&keys, answers));
                assert!(answers.iter().all(Option::is_some));
                let updates = allocations(|| index.insert_batch_shared(&entries).unwrap());
                let removes =
                    allocations(|| index.remove_batch_shared_into(&keys, answers).unwrap());
                assert!(answers.iter().all(Option::is_some));
                let reinserts = allocations(|| index.insert_batch_shared(&entries).unwrap());
                [reads, updates, removes, reinserts]
            };
            // A fresh thread's first calls, into a pre-sized buffer: no
            // per-thread state to set up first.
            let first = std::thread::scope(|scope| {
                scope
                    .spawn(|| round(&mut Vec::with_capacity(size)))
                    .join()
                    .unwrap()
            });
            assert_eq!(
                first,
                [0; 4],
                "allocations of a fresh thread's first [get_many_into, update, remove, \
                 re-insert] call: {size} keys, {} shards",
                1 << shard_bits
            );
            round(&mut answers);
            assert_eq!(
                round(&mut answers),
                [0; 4],
                "allocations per [get_many_into, update, remove, re-insert] call: \
                 {size} keys, {} shards",
                1 << shard_bits
            );
        }
        assert!(
            index.stats().index.shortcut_lookups > 0,
            "reads were not shortcut-served"
        );
    }
}

/// A split re-places its entries through a buffer the index owns: from the
/// first insert on, an insert that splits — without doubling the directory
/// or growing the pool's file, which allocate by design — makes no heap
/// allocation.
#[test]
fn a_split_allocates_nothing() {
    let mut eh = ExtendibleHash::with_defaults().unwrap();
    let shape = |eh: &ExtendibleHash| (eh.stats().doublings, eh.pool_stats().pool_grows);
    let mut plain_splits = 0;
    for k in 0..200_000u64 {
        let (splits, before) = (eh.stats().splits, shape(&eh));
        let allocated = allocations(|| eh.insert(k, k).unwrap());
        if eh.stats().splits > splits && shape(&eh) == before {
            assert_eq!(allocated, 0, "split at key {k} allocated");
            plain_splits += 1;
        }
    }
    assert!(plain_splits > 1_000, "only {plain_splits} plain splits");
}

/// Through the facade a split also records its directory events and relays
/// them to the mapper. The event buffer is the index's and keeps its
/// capacity, so what is left to allocate is the mapper's queue, which
/// grows back (amortised) after each pass takes it: a plain split — no
/// doubling, no pool growth — averages under a tenth of an allocation on
/// the writer's thread.
#[test]
fn a_facade_split_allocates_next_to_nothing() {
    let mut index = ShortcutIndex::builder()
        .vma_budget(100_000)
        .build()
        .unwrap();
    let shape = |index: &ShortcutIndex| {
        index.with_shard(0, |s| {
            let stats = s.stats();
            (stats.splits, stats.doublings, s.pool_stats().pool_grows)
        })
    };
    let (mut plain_splits, mut allocated) = (0u64, 0u64);
    for k in 0..200_000u64 {
        let before = shape(&index);
        let during = allocations(|| index.insert(k, k).unwrap());
        let after = shape(&index);
        if after.0 > before.0 && (after.1, after.2) == (before.1, before.2) {
            plain_splits += 1;
            allocated += during;
        }
    }
    assert!(plain_splits > 1_000, "only {plain_splits} plain splits");
    assert!(
        allocated * 10 < plain_splits,
        "{allocated} allocations over {plain_splits} plain splits"
    );
}
