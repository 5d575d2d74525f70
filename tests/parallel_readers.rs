//! Parallel read-only phases through the redesigned API: multiple threads
//! share `&ShortcutIndex` and call `Index::get` /
//! `Index::get_many` — which take `&self` — concurrently. Rust's aliasing
//! rules make this sound: no `&mut` (writer) can coexist with the shared
//! borrows, and the routing statistics are tallies on each reader's own
//! pin stripe.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Duration;
use taking_the_shortcut::exhash::ShortcutEhConfig;
use taking_the_shortcut::{Index, ShortcutIndex};

mod common;

#[test]
fn concurrent_readers_see_every_key() {
    let mut index = ShortcutIndex::builder().build().unwrap();
    let n = 100_000u64;
    for k in 0..n {
        index.insert(k, k ^ 0xABCD).unwrap();
    }
    assert!(index.wait_sync(Duration::from_secs(30)));

    let hits = AtomicU64::new(0);
    let readers = 4;
    std::thread::scope(|s| {
        for r in 0..readers {
            let index = &index; // shared borrow: no writes possible anywhere
            let hits = &hits;
            s.spawn(move || {
                let mut local = 0u64;
                // Each reader strides differently through the key space.
                let mut k = r as u64;
                while k < n {
                    if index.get(k) == Some(k ^ 0xABCD) {
                        local += 1;
                    }
                    k += readers as u64;
                }
                hits.fetch_add(local, Ordering::Relaxed);
            });
        }
    });
    assert_eq!(hits.load(Ordering::Relaxed), n);
    assert!(index.maint_error().is_none());
    // Reader traffic must be visible in the routing counters.
    let s = index.stats();
    assert_eq!(
        s.index.shortcut_lookups + s.index.traditional_lookups,
        n,
        "every concurrent lookup must be accounted"
    );
}

#[test]
fn concurrent_batched_readers_see_every_key() {
    let mut index = ShortcutIndex::builder().capacity(60_000).build().unwrap();
    let n = 60_000u64;
    let entries: Vec<(u64, u64)> = (0..n).map(|k| (k, !k)).collect();
    index.insert_batch(&entries).unwrap();
    assert!(index.wait_sync(Duration::from_secs(30)));

    let hits = AtomicU64::new(0);
    let readers = 4;
    std::thread::scope(|s| {
        for r in 0..readers {
            let index = &index;
            let hits = &hits;
            s.spawn(move || {
                let mut local = 0u64;
                let keys: Vec<u64> = (0..n).filter(|k| k % readers == r).collect();
                for chunk in keys.chunks(512) {
                    // One read section (one serving-word load) per chunk.
                    for (i, v) in index.get_many(chunk).into_iter().enumerate() {
                        if v == Some(!chunk[i]) {
                            local += 1;
                        }
                    }
                }
                hits.fetch_add(local, Ordering::Relaxed);
            });
        }
    });
    assert_eq!(hits.load(Ordering::Relaxed), n);
    assert!(index.maint_error().is_none());
}

#[test]
fn readers_race_a_writer_free_index_through_the_trait_object() {
    // The same hammering, but through &dyn Index — the type a storage
    // engine would hold — to pin down that the trait's &self contract
    // composes with threads.
    let mut index = ShortcutIndex::builder().build().unwrap();
    for k in 0..30_000u64 {
        index
            .insert(k.wrapping_mul(0x9E37_79B9_7F4A_7C15), k)
            .unwrap();
    }
    index.wait_sync(Duration::from_secs(30));
    let dyn_index: &(dyn Index + Sync) = &index;
    std::thread::scope(|s| {
        for _ in 0..3 {
            s.spawn(move || {
                for k in 0..30_000u64 {
                    let key = k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    assert_eq!(dyn_index.get(key), Some(k), "key {k}");
                }
            });
        }
    });
}

#[test]
fn get_many_agrees_with_get() {
    let mut index = ShortcutIndex::builder().build().unwrap();
    for k in 0..30_000u64 {
        index
            .insert(k.wrapping_mul(0x9E37_79B9_7F4A_7C15), k)
            .unwrap();
    }
    index.wait_sync(Duration::from_secs(30));
    let keys: Vec<u64> = (0..30_000u64)
        .map(|k| k.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let batched = index.get_many(&keys);
    let miss_probes: Vec<u64> = keys.iter().map(|k| k ^ 0xF0F0).collect();
    let batched_misses = index.get_many(&miss_probes);
    for (i, &key) in keys.iter().enumerate() {
        assert_eq!(batched[i], index.get(key), "key index {i}");
        assert_eq!(
            batched_misses[i],
            index.get(miss_probes[i]),
            "miss probe {i}"
        );
    }
}

#[test]
fn sharded_writers_and_readers_run_concurrently() {
    // True multi-writer: 4 shards, one writer thread per shard going
    // through the shared-write API (`&self` + per-shard write locks),
    // racing 4 reader threads. Writers on different shards never contend;
    // a reader's hit must always be the exact value.
    let index = ShortcutIndex::builder()
        .capacity(80_000)
        .shards(2)
        .vma_budget(1_000_000)
        .build()
        .unwrap();
    assert_eq!(index.shard_count(), 4);
    let n = 80_000u64;
    // Partition the key space by owning shard: one writer thread each.
    let mut per_shard: Vec<Vec<u64>> = vec![Vec::new(); index.shard_count()];
    for k in 0..n {
        per_shard[index.shard_of(k)].push(k);
    }
    std::thread::scope(|s| {
        for keys in &per_shard {
            let index = &index;
            s.spawn(move || {
                for chunk in keys.chunks(1024) {
                    let batch: Vec<(u64, u64)> = chunk.iter().map(|&k| (k, k ^ 0xABCD)).collect();
                    index.insert_batch_shared(&batch).unwrap();
                }
            });
        }
        for r in 0..4u64 {
            let index = &index;
            s.spawn(move || {
                for k in (r..n).step_by(7) {
                    if let Some(v) = index.get(k) {
                        assert_eq!(v, k ^ 0xABCD, "racing reader saw a foreign value");
                    }
                }
            });
        }
    });
    assert_eq!(index.len() as u64, n);
    assert!(index.wait_sync(Duration::from_secs(30)));
    for k in 0..n {
        assert_eq!(index.get(k), Some(k ^ 0xABCD), "key {k}");
    }
    let s = index.stats();
    assert_eq!(s.shards, 4);
    assert_eq!(s.len as u64, n);
    assert!(index.maint_error().is_none());

    // The writers above revoked every shard's read bias; the sweep just
    // made (20k writer-free reads per shard) must have armed it again.
    let back_on_bias = |index: &ShortcutIndex| {
        (0..index.shard_count()).all(|i| {
            let sh = index.shard_stats(i);
            sh.bias_revocations == sh.bias_rearms
        })
    };
    assert!(s.bias_revocations >= 4, "shared writers never revoked");
    assert!(back_on_bias(&index), "a writer-free sweep did not re-arm");

    // One more phase, through a whole bias cycle under load: readers start
    // biased, shared writers arrive mid-run and grow every shard (splits
    // under the readers' feet), the writers stop, and the still-running
    // readers take every shard back off its lock.
    let extra = 20_000u64;
    let first_sweep_done = Barrier::new(5);
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        for r in 0..4u64 {
            let (index, first_sweep_done, stop) = (&index, &first_sweep_done, &stop);
            s.spawn(move || {
                let mut sweeps = 0;
                loop {
                    for k in (r..n + extra).step_by(5) {
                        match index.get(k) {
                            Some(v) => assert_eq!(v, k ^ 0xABCD, "foreign value for {k}"),
                            None => assert!(k >= n, "key {k} vanished"),
                        }
                    }
                    if sweeps == 0 {
                        first_sweep_done.wait();
                    }
                    sweeps += 1;
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                }
            });
        }
        // Every reader has read every shard on the bias and keeps going.
        first_sweep_done.wait();
        let before = index.stats().bias_revocations;
        for k in n..n + extra {
            index.insert_shared(k, k ^ 0xABCD).unwrap();
        }
        assert!(
            index.stats().bias_revocations >= before + 4,
            "writers got in without revoking the readers' bias"
        );
        // No more writers: the readers' own traffic must re-arm.
        common::wait_until("the bias re-arms", || back_on_bias(&index));
        stop.store(true, Ordering::Release);
    });
    for k in 0..n + extra {
        assert_eq!(index.get(k), Some(k ^ 0xABCD), "key {k}");
    }
    assert!(index.maint_error().is_none());
}

#[test]
fn short_lived_readers_are_counted_exactly() {
    // 40 threads that each read a little and exit: more than the 32
    // exclusive pin stripes, so some count through the shared overflow
    // stripes, and all are gone when the sum is taken — the counts must
    // live with the index, not with the threads.
    let mut index = ShortcutIndex::builder().capacity(4_000).build().unwrap();
    for k in 0..4_000u64 {
        index.insert(k, k + 9).unwrap();
    }
    assert!(index.wait_sync(Duration::from_secs(30)));
    let before = index.stats().index;
    let (threads, singles, batch) = (40u64, 300u64, 100u64);
    std::thread::scope(|s| {
        for t in 0..threads {
            let index = &index;
            s.spawn(move || {
                for k in (t..4_000).step_by(7).take(singles as usize) {
                    assert_eq!(index.get(k), Some(k + 9));
                }
                let keys: Vec<u64> = (t..t + batch).collect();
                assert!(index.get_many(&keys).iter().all(Option::is_some));
            });
        }
    });
    let after = index.stats().index;
    assert_eq!(
        (after.shortcut_lookups + after.traditional_lookups)
            - (before.shortcut_lookups + before.traditional_lookups),
        threads * (singles + batch),
        "every get of every exited thread must be in the sum"
    );
}

#[test]
fn readers_fall_back_while_out_of_sync() {
    // Build the index but never give the mapper a chance to catch up: the
    // shared-reference path must still answer via the traditional fallback.
    let mut cfg = ShortcutEhConfig::default();
    cfg.maint.poll_interval = Duration::from_secs(3600); // effectively never
    let mut index = ShortcutIndex::try_new(0, cfg).unwrap();
    for k in 0..20_000u64 {
        index.insert(k, k + 1).unwrap();
    }
    std::thread::scope(|s| {
        let index = &index;
        for _ in 0..2 {
            s.spawn(move || {
                for k in 0..20_000u64 {
                    assert_eq!(index.get(k), Some(k + 1));
                }
                // Batched fallback too.
                let keys: Vec<u64> = (0..20_000u64).collect();
                for (k, v) in keys.iter().zip(index.get_many(&keys)) {
                    assert_eq!(v, Some(k + 1));
                }
            });
        }
    });
    // No sync-state assertion here: on a single-core host the mapper's
    // first drain can swallow the whole insert backlog in one pass and
    // end in sync despite the huge poll interval. What is deterministic
    // is that every lookup was answered and accounted on some path.
    let s = index.stats();
    assert_eq!(
        s.index.shortcut_lookups + s.index.traditional_lookups,
        2 * 2 * 20_000,
        "every lookup (2 threads x single+batched sweeps) must be accounted"
    );
}
