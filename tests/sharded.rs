//! The sharded index end to end: proptest-generated interleavings of
//! inserts, removals, and lookups across 4 shards — applied by one
//! concurrent writer thread **per shard** while 4 reader threads hammer
//! the index — must agree with a sequential `ChainedHash` oracle; a
//! shard driven deep enough to outgrow a shared VMA budget must never
//! suspend its siblings' shortcut maintenance (fair-share admission);
//! batches holding several shards at once must not deadlock; and updates
//! of present keys must run beside biased readers without revoking.

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

/// A thread of [`race`]: run until stopped, each round given a draw of
/// keys over the race's domain.
type Work = Box<dyn FnMut(&mut dyn FnMut() -> u64) + Send>;

/// Run `threads` concurrently for `run`, then stop them; a thread that
/// does not finish its round within 60 s fails the test as a deadlock
/// instead of letting it hang. Each thread's draws are uniform over
/// `0..domain`, so a window of them spreads over every shard. The rounds
/// each thread completed, in `threads` order.
fn race(domain: u64, run: Duration, threads: Vec<(&'static str, Work)>) -> Vec<u64> {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{mpsc, Arc};
    use std::time::Instant;
    let stop = Arc::new(AtomicBool::new(false));
    let (done, finished) = mpsc::channel::<(usize, u64)>();
    let n = threads.len();
    for (i, (name, mut work)) in threads.into_iter().enumerate() {
        let (stop, done) = (Arc::clone(&stop), done.clone());
        std::thread::spawn(move || {
            let mut state = (name.len() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut rng = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % domain
            };
            let mut rounds = 0;
            while !stop.load(Ordering::Relaxed) {
                work(&mut rng);
                rounds += 1;
            }
            done.send((i, rounds)).unwrap();
        });
    }
    drop(done);
    let watchdog = Instant::now() + Duration::from_secs(60);
    std::thread::sleep(run);
    stop.store(true, Ordering::Relaxed);
    let mut rounds = vec![0; n];
    for _ in 0..n {
        let left = watchdog.saturating_duration_since(Instant::now());
        match finished.recv_timeout(left) {
            Ok((i, r)) => rounds[i] = r,
            Err(mpsc::RecvTimeoutError::Disconnected) => panic!("a thread panicked"),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                panic!("deadlock: a thread is stuck after 60 s")
            }
        }
    }
    rounds
}

/// A reader of [`race`]: cross-shard batched lookups of `n` drawn keys,
/// every hit `val(k)`.
fn batch_reader(index: &std::sync::Arc<ShortcutIndex>, n: usize) -> Work {
    let (index, mut out) = (std::sync::Arc::clone(index), Vec::new());
    Box::new(move |rng| {
        let keys: Vec<u64> = (0..n).map(|_| rng()).collect();
        index.get_many_into(&keys, &mut out);
        for (&k, &got) in keys.iter().zip(&out) {
            assert!(got.is_none_or(|v| v == val(k)), "get_many({k}) = {got:?}");
        }
    })
}

/// Whether shard `i`'s read bias is armed: every revocation was followed
/// by a re-arm.
fn armed(index: &ShortcutIndex, i: usize) -> bool {
    let s = index.shard_stats(i);
    s.bias_revocations == s.bias_rearms
}

/// A batch holds the sections of every shard its window touches at once,
/// entered in ascending shard order. Run everything that takes sections
/// concurrently at 4 shards — cross-shard batched lookups, batched
/// inserts and removals over overlapping shard sets, single-key shared
/// inserts, and a `with_shard_mut` layout-estimate loop — and check every
/// answer: the lock order must not deadlock, and no section may let a
/// reader see a foreign value. A watchdog fails the test instead of
/// letting a deadlock hang it.
///
/// Then the windows that open with updates: present keys of the lowest
/// shard, armed, and of the highest, revoked, then a new key of the lowest
/// — while cross-shard readers pin the lowest shard and wait for the
/// highest one's read lock. Revoking the lowest shard there, with the
/// highest held, would wait for such a pin for ever; the window leaves its
/// sections and enters the rest again, revoking in ascending order.
#[test]
fn batches_holding_several_shards_do_not_deadlock() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Instant;
    const DOMAIN: u64 = 4096;
    const RUN: Duration = Duration::from_millis(1500);
    let index = Arc::new(build());
    assert_eq!(index.shard_count(), 4);
    let all: Vec<(u64, u64)> = (0..DOMAIN).map(|k| (k, val(k))).collect();
    index.insert_batch_shared(&all).unwrap();

    let mut threads: Vec<(&'static str, Work)> = vec![
        ("reader-a", batch_reader(&index, 64)),
        ("reader-b", batch_reader(&index, 64)),
    ];
    for name in ["writer-a", "writer-b"] {
        let index = Arc::clone(&index);
        let mut out = Vec::new();
        threads.push((
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
        ));
    }
    {
        let index = Arc::clone(&index);
        let mut round = 0usize;
        threads.push((
            "single-and-mut",
            Box::new(move |rng| {
                let k = rng();
                index.insert_shared(k, val(k)).unwrap();
                round += 1;
                if round.is_multiple_of(64) {
                    // A shard's write section, held across an O(slots) walk.
                    let _ = index.with_shard_mut(round / 64 % 4, |s| s.layout_vmas());
                }
            }),
        ));
    }
    let rounds = race(DOMAIN, RUN, threads);
    assert!(rounds.iter().sum::<u64>() >= 5, "the threads did not run");
    for (k, got) in (0..DOMAIN).zip(index.get_many(&(0..DOMAIN).collect::<Vec<_>>())) {
        assert!(
            got.is_none_or(|v| v == val(k)),
            "final get_many({k}) = {got:?}"
        );
    }
    assert!(index.maint_error().is_none());

    // The windows that open with updates, beside the readers alone, so
    // that the lowest shard re-arms between two of them.
    index.insert_batch_shared(&all).unwrap();
    let (low, high) = (0, index.shard_count() - 1);
    let of = |shard: usize| -> Vec<u64> {
        (0..DOMAIN)
            .filter(|&k| index.shard_of(k) == shard)
            .collect()
    };
    let head: Vec<(u64, u64)> = of(low)[..8]
        .iter()
        .chain(&of(high))
        .map(|&k| (k, val(k)))
        .collect();
    let revoke_high = of(high)[0];
    let sent = Arc::new(AtomicU64::new(0));
    let writer: Work = {
        let (index, sent) = (Arc::clone(&index), Arc::clone(&sent));
        let mut new_key = DOMAIN;
        Box::new(move |_| {
            // The readers re-arm the lowest shard; a round that waits past
            // the end of the race for them sends nothing.
            let give_up = Instant::now() + Duration::from_millis(100);
            while !armed(&index, low) {
                if Instant::now() > give_up {
                    return;
                }
                std::thread::yield_now();
            }
            // A structural write revokes the highest shard (the readers
            // re-arm it only after thousands of windows).
            assert!(index.remove_shared(revoke_high).unwrap().is_some());
            index.insert_shared(revoke_high, val(revoke_high)).unwrap();
            let mut window = head.clone();
            new_key = (new_key + 1..).find(|&k| index.shard_of(k) == low).unwrap();
            window.push((new_key, val(new_key)));
            index.insert_batch_shared(&window).unwrap();
            sent.fetch_add(1, Ordering::Relaxed);
        })
    };
    // Windows of 16: nearly every one touches both shards, and the lowest
    // re-arms four times as often as with 64.
    let threads = vec![
        ("reader-a", batch_reader(&index, 16)),
        ("reader-b", batch_reader(&index, 16)),
        ("updates-then-new", writer),
    ];
    race(DOMAIN, RUN, threads);
    let sent = sent.load(Ordering::Relaxed);
    assert!(sent >= 3, "{sent} windows opened with updates");
    assert!(index.maint_error().is_none());
}

/// A shared writer that only rewrites present keys stores their values
/// beside the biased readers: cross-shard `get` and `get_many_into`
/// readers see each key's old or new value and nothing else, and no
/// shard's bias is revoked — it stays armed throughout.
#[test]
fn updates_run_beside_biased_readers_and_revoke_nothing() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    const DOMAIN: u64 = 4096;
    let other = |k: u64| !val(k);
    let mut index = build();
    // Loaded through `&mut`: no shared writer has come by.
    for k in 0..DOMAIN {
        index.insert(k, val(k)).unwrap();
    }
    let index = Arc::new(index);
    let all_armed_never_revoked = |index: &ShortcutIndex| {
        (0..index.shard_count()).all(|i| {
            let s = index.shard_stats(i);
            (s.bias_revocations, s.bias_rearms) == (0, 0)
        })
    };
    assert!(all_armed_never_revoked(&index));
    let either = move |k: u64, got: Option<u64>| got == Some(val(k)) || got == Some(other(k));
    let flips = Arc::new(AtomicU64::new(0));
    let updater: Work = {
        let (index, flips) = (Arc::clone(&index), Arc::clone(&flips));
        Box::new(move |rng| {
            // Server-sized batches of updates over every shard, all to the
            // old or all to the new values, and one single-key update.
            let flip = flips.fetch_add(1, Ordering::Relaxed) % 2 == 1;
            let value = |k: u64| if flip { val(k) } else { other(k) };
            let batch: Vec<(u64, u64)> = (0..16).map(|_| rng()).map(|k| (k, value(k))).collect();
            index.insert_batch_shared(&batch).unwrap();
            let k = rng();
            index.insert_shared(k, value(k)).unwrap();
        })
    };
    let get_reader: Work = {
        let index = Arc::clone(&index);
        Box::new(move |rng| {
            for k in (0..64).map(|_| rng()) {
                let got = index.get(k);
                assert!(either(k, got), "get({k}) = {got:?}");
            }
        })
    };
    let batch_reader: Work = {
        let (index, mut out) = (Arc::clone(&index), Vec::new());
        Box::new(move |rng| {
            let keys: Vec<u64> = (0..64).map(|_| rng()).collect();
            index.get_many_into(&keys, &mut out);
            for (&k, &got) in keys.iter().zip(&out) {
                assert!(either(k, got), "get_many({k}) = {got:?}");
            }
        })
    };
    let threads = vec![
        ("updater", updater),
        ("get-reader", get_reader),
        ("batch-reader", batch_reader),
    ];
    let rounds = race(DOMAIN, Duration::from_millis(1000), threads);
    assert!(rounds.iter().all(|&r| r >= 3), "rounds {rounds:?}");
    assert!(
        all_armed_never_revoked(&index),
        "an update revoked a shard's bias"
    );
    for k in 0..DOMAIN {
        assert!(either(k, index.get(k)), "final get({k})");
    }
    assert_eq!(index.len(), DOMAIN as usize);
    assert!(index.maint_error().is_none());
}
