//! The sharded index end to end: proptest-generated interleavings of
//! inserts, removals, and lookups across 4 shards — applied by one
//! concurrent writer thread **per shard** while 4 reader threads hammer
//! the index — must agree with a sequential `ChainedHash` oracle; and a
//! shard driven deep enough to outgrow a shared VMA budget must never
//! suspend its siblings' shortcut maintenance (fair-share admission).

use proptest::prelude::*;
use std::time::Duration;
use taking_the_shortcut::exhash::{ChConfig, ChainedHash};
use taking_the_shortcut::{Index, ShortcutIndex};

/// Value derivation shared by index, oracle, and racing readers: with the
/// value a pure function of the key, a reader racing the writers can
/// assert every hit it sees is exact (misses are legitimate while the
/// owning writer has not reached that key yet).
fn val(k: u64) -> u64 {
    k.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xA5A5
}

fn build() -> ShortcutIndex {
    ShortcutIndex::builder()
        .capacity(20_000)
        .shards(2) // 4 shards, one writer thread each
        .poll_interval(Duration::from_millis(1))
        // Private budget: isolate accounting from other tests sharing the
        // process-global budget (all 4 shards still share THIS budget).
        .vma_budget(1_000_000)
        .build()
        .unwrap()
}

fn oracle() -> ChainedHash {
    ChainedHash::try_new(ChConfig {
        table_slots: 1 << 12,
    })
    .unwrap()
}

/// One step of a generated interleaving. Keys are drawn from a small
/// domain so inserts, re-inserts, and removals of the same key collide
/// across ops (the interesting orderings).
#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(u64),
    Remove(u64),
    Get(u64),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            6 => (0u64..1500).prop_map(Op::Insert),
            2 => (0u64..1500).prop_map(Op::Remove),
            2 => (0u64..2000).prop_map(Op::Get),
        ],
        50..400,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    // Partition a generated op sequence by owning shard (keys route by
    // their top hash bits, so a key's ops all land in one partition and
    // keep their relative order). One writer thread per shard applies its
    // partition through the shared-write API while 4 reader threads race
    // them; afterwards the final state must equal a sequential replay
    // into the oracle — shard-local order is all the sequential replay
    // depends on, so the concurrent execution must be indistinguishable.
    #[test]
    fn concurrent_shard_writers_agree_with_a_sequential_oracle(ops in ops()) {
        let index = build();
        prop_assert_eq!(index.shard_count(), 4);

        // Scatter the sequence by owning shard, preserving relative order.
        let mut per_shard: Vec<Vec<Op>> = vec![Vec::new(); index.shard_count()];
        for &op in &ops {
            let k = match op {
                Op::Insert(k) | Op::Remove(k) | Op::Get(k) => k,
            };
            per_shard[index.shard_of(k)].push(op);
        }

        std::thread::scope(|s| {
            for shard_ops in &per_shard {
                let index = &index;
                s.spawn(move || {
                    for &op in shard_ops {
                        match op {
                            Op::Insert(k) => index.insert_shared(k, val(k)).unwrap(),
                            Op::Remove(k) => {
                                let got = index.remove_shared(k).unwrap();
                                if let Some(v) = got {
                                    assert_eq!(v, val(k), "remove({k}) returned a foreign value");
                                }
                            }
                            Op::Get(k) => {
                                if let Some(v) = index.get(k) {
                                    assert_eq!(v, val(k), "get({k}) returned a foreign value");
                                }
                            }
                        }
                    }
                });
            }
            // 4 readers race the writers over the whole key domain: every
            // hit must be exact, through both `get` and `get_many`.
            for r in 0..4u64 {
                let index = &index;
                s.spawn(move || {
                    let keys: Vec<u64> = (r * 500..r * 500 + 500).collect();
                    for pass in 0..3 {
                        for &k in &keys {
                            if let Some(v) = index.get(k) {
                                assert_eq!(v, val(k), "racing get({k}) pass {pass}");
                            }
                        }
                        for (i, got) in index.get_many(&keys).into_iter().enumerate() {
                            if let Some(v) = got {
                                assert_eq!(v, val(keys[i]), "racing get_many pass {pass}");
                            }
                        }
                    }
                });
            }
        });

        // Sequential replay: the oracle sees the ops in original order.
        // Keys never cross shards and shard-local order was preserved, so
        // the final states must coincide.
        let mut oracle = oracle();
        for &op in &ops {
            match op {
                Op::Insert(k) => oracle.insert(k, val(k)).unwrap(),
                Op::Remove(k) => {
                    oracle.remove(k).unwrap();
                }
                Op::Get(_) => {}
            }
        }
        for k in 0..2000u64 {
            prop_assert_eq!(index.get(k), oracle.get(k), "final state diverged at key {}", k);
        }
        let keys: Vec<u64> = (0..2000).collect();
        let want: Vec<Option<u64>> = keys.iter().map(|&k| oracle.get(k)).collect();
        prop_assert_eq!(index.get_many(&keys), want, "final get_many diverged");
        prop_assert_eq!(index.len(), oracle.len());
        prop_assert!(index.maint_error().is_none());
    }
}

/// Fair-share admission on a shared budget: drive one shard's directory
/// deep enough that its exact-depth rebuild cannot fit a small shared VMA
/// budget, while the sibling shards stay small. The siblings must keep
/// full shortcut service — in sync, never suspended — because the hot
/// shard's reservations may not eat into their guaranteed shares.
#[test]
fn deep_shard_cannot_suspend_its_siblings() {
    let index = ShortcutIndex::builder()
        .capacity(20_000)
        .shards(2)
        .poll_interval(Duration::from_millis(1))
        // Small shared budget: usable = 600 - headroom(37) = 563, so each
        // of the 4 fair shards is guaranteed ~140 mappings — plenty for
        // the small siblings, far too little for the hot shard's
        // scattered exact-depth directory (≥ 1024 slots).
        .vma_budget(600)
        .build()
        .unwrap();
    assert_eq!(index.shard_count(), 4);

    // Partition a key range by owning shard.
    let mut per_shard: Vec<Vec<u64>> = vec![Vec::new(); 4];
    for k in 0..200_000u64 {
        per_shard[index.shard_of(k)].push(k);
    }
    let hot = 0usize;

    // Small populations for the siblings, a deep directory for the hot
    // shard (~60k keys → ≥ 1024 directory slots at the default load
    // factor, scattered because compaction is off).
    for (shard, keys) in per_shard.iter().enumerate() {
        let take = if shard == hot { 60_000 } else { 300 };
        for &k in keys.iter().take(take) {
            index.insert_shared(k, val(k)).unwrap();
        }
    }

    // Let every mapper catch up (the hot shard may finish coarse or
    // suspended; the call returns false in that case, which is fine).
    let _ = index.wait_sync(Duration::from_secs(5));
    for i in 0..4 {
        if i == hot {
            continue;
        }
        let synced = index.with_shard(i, |s| s.wait_sync(Duration::from_secs(10)));
        assert!(synced, "sibling shard {i} never got back in sync");
    }

    // The budget is genuinely shared and fair-share is on for all shards.
    let stats = index.stats();
    assert_eq!(
        stats.vma.fair_pools, 4,
        "all shards must fair-share one budget"
    );
    assert!(stats.vma.fair_share > 0);

    // The invariant under test: no sibling was suspended by the hot
    // shard's appetite, and each still answers through its shortcut.
    for i in 0..4 {
        if i == hot {
            continue;
        }
        index.with_shard(i, |s| {
            assert!(
                !s.shortcut_suspended(),
                "sibling shard {i} suspended by the hot shard's reservations"
            );
            assert!(s.in_sync(), "sibling shard {i} out of sync");
            assert_eq!(
                s.maint_metrics().creates_skipped,
                0,
                "sibling shard {i} had rebuilds skipped"
            );
        });
    }

    // The hot shard itself must have felt the budget: its exact-depth
    // directory cannot fit its share, so it either published coarse,
    // deferred, or suspended — and its lookups still answer correctly.
    let hot_pressure = index.with_shard(hot, |s| {
        let m = s.maint_metrics();
        s.shortcut_suspended()
            || m.creates_coarse > 0
            || m.creates_skipped > 0
            || m.creates_deferred > 0
    });
    assert!(
        hot_pressure,
        "hot shard never hit the shared budget — test lost its teeth"
    );

    // Every answer stays correct on all shards, hot one included.
    for (shard, keys) in per_shard.iter().enumerate() {
        let take = if shard == hot { 60_000 } else { 300 };
        for &k in keys.iter().take(take).step_by(97) {
            assert_eq!(index.get(k), Some(val(k)), "key {k} on shard {shard}");
        }
    }
    assert!(index.maint_error().is_none());
}

/// A batch holds the sections of every shard its window touches at once,
/// entered in ascending shard order. Run everything that takes sections
/// concurrently at 4 shards — cross-shard batched lookups, batched
/// inserts and removals over overlapping shard sets, single-key shared
/// inserts, and a `with_shard_mut` compaction loop — and check every
/// answer: the lock order must not deadlock, and no section may let a
/// reader see a foreign value. A watchdog fails the test instead of
/// letting a deadlock hang it.
#[test]
fn batches_holding_several_shards_do_not_deadlock() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::{mpsc, Arc};
    use std::time::Instant;
    const DOMAIN: u64 = 4096;
    const RUN: Duration = Duration::from_millis(1500);
    let index = Arc::new(build());
    assert_eq!(index.shard_count(), 4);
    let all: Vec<(u64, u64)> = (0..DOMAIN).map(|k| (k, val(k))).collect();
    index.insert_batch_shared(&all).unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let rounds = Arc::new(AtomicU64::new(0));
    let (done, finished) = mpsc::channel::<&'static str>();
    // A thread runs `work` until stopped; its `rng` draws keys of the whole
    // domain, so a window spreads over every shard.
    type Work = Box<dyn FnMut(&mut dyn FnMut() -> u64) + Send>;
    let spawn = |name: &'static str, mut work: Work| {
        let (stop, rounds, done) = (Arc::clone(&stop), Arc::clone(&rounds), done.clone());
        std::thread::spawn(move || {
            let mut state = (name.len() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut rng = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % DOMAIN
            };
            while !stop.load(Ordering::Relaxed) {
                work(&mut rng);
                rounds.fetch_add(1, Ordering::Relaxed);
            }
            done.send(name).unwrap();
        });
    };
    for name in ["reader-a", "reader-b"] {
        let index = Arc::clone(&index);
        let mut out = Vec::new();
        spawn(
            name,
            Box::new(move |rng| {
                let keys: Vec<u64> = (0..64).map(|_| rng()).collect();
                index.get_many_into(&keys, &mut out);
                for (&k, &got) in keys.iter().zip(&out) {
                    assert!(got.is_none_or(|v| v == val(k)), "get_many({k}) = {got:?}");
                }
            }),
        );
    }
    for name in ["writer-a", "writer-b"] {
        let index = Arc::clone(&index);
        let mut out = Vec::new();
        spawn(
            name,
            Box::new(move |rng| {
                let entries: Vec<(u64, u64)> =
                    (0..48).map(|_| rng()).map(|k| (k, val(k))).collect();
                index.insert_batch_shared(&entries).unwrap();
                let keys: Vec<u64> = entries.iter().step_by(2).map(|&(k, _)| k).collect();
                index.remove_batch_shared_into(&keys, &mut out).unwrap();
                for (&k, &got) in keys.iter().zip(&out) {
                    assert!(
                        got.is_none_or(|v| v == val(k)),
                        "remove_batch({k}) = {got:?}"
                    );
                }
            }),
        );
    }
    {
        let index = Arc::clone(&index);
        let mut round = 0usize;
        spawn(
            "single-and-compact",
            Box::new(move |rng| {
                let k = rng();
                index.insert_shared(k, val(k)).unwrap();
                round += 1;
                if round.is_multiple_of(64) {
                    // A pass may find no room for its target run: that is an
                    // answer too, and leaves the shard consistent.
                    let _ = index.with_shard_mut(round / 64 % 4, |s| s.compact());
                }
            }),
        );
    }
    drop(done);

    let watchdog = Instant::now() + Duration::from_secs(60);
    std::thread::sleep(RUN);
    stop.store(true, Ordering::Relaxed);
    for _ in 0..5 {
        let left = watchdog.saturating_duration_since(Instant::now());
        match finished.recv_timeout(left) {
            Ok(_) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => panic!("a thread panicked"),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                panic!("deadlock: a thread is stuck after 60 s")
            }
        }
    }
    assert!(
        rounds.load(Ordering::Relaxed) >= 5,
        "the threads did not run"
    );
    for (k, got) in (0..DOMAIN).zip(index.get_many(&(0..DOMAIN).collect::<Vec<_>>())) {
        assert!(
            got.is_none_or(|v| v == val(k)),
            "final get_many({k}) = {got:?}"
        );
    }
    assert!(index.maint_error().is_none());
}
