//! The directory layout, end to end: each bucket sits on the pool page of
//! its hash suffix, so a `ShortcutIndex`'s directory maps runs of pages —
//! its planned-VMA footprint stays bounded far below one mapping a slot
//! while every answer matches a `ChainedHash` oracle (with 4 concurrent
//! reader threads between mutation phases), the live mappings collapse
//! without a page ever moving, and the mapper brings a suspended shortcut
//! back by itself once a depth fits.

use proptest::prelude::*;
use std::time::Duration;
use taking_the_shortcut::exhash::{
    dir_hash_of, mult_hash, ChConfig, ChainedHash, ShortcutEhConfig,
};
use taking_the_shortcut::{CompactionPolicy, Index, ShortcutIndex, VmaBudget};

mod common;

/// An index of `2^shard_bits` shards under `policy`, over a private budget
/// of `budget` mappings (isolated from other tests sharing the
/// process-global budget), whose mappers tick every millisecond. Each
/// shard's pool is a view of `view_pages` pages, as
/// `IndexBuilder::capacity` sizes one: 2^13 for 150 000 keys, 2^15 for
/// 400 000.
fn index(
    shard_bits: u32,
    view_pages: usize,
    budget: usize,
    policy: CompactionPolicy,
) -> ShortcutIndex {
    let mut cfg = ShortcutEhConfig::default();
    cfg.eh.pool.min_growth_pages = 1 << 12;
    cfg.eh.pool.view_capacity_pages = view_pages;
    cfg.eh.pool.vma_budget = Some(VmaBudget::with_limit(budget));
    cfg.maint.poll_interval = Duration::from_millis(1);
    cfg.maint.compaction = policy;
    ShortcutIndex::try_new(shard_bits, cfg).unwrap()
}

fn build(policy: CompactionPolicy) -> ShortcutIndex {
    index(0, 1 << 13, 1_000_000, policy)
}

fn oracle() -> ChainedHash {
    ChainedHash::try_new(ChConfig {
        table_slots: 1 << 12,
    })
    .unwrap()
}

/// Value derivation shared by index and oracle.
fn val(k: u64) -> u64 {
    k.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xA5A5
}

/// One mutation-or-check step of the interleaving.
#[derive(Debug, Clone)]
enum Op {
    /// Insert the next `n` keys (batched — drives splits and doublings).
    Insert(usize),
    /// Remove every `stride`-th key inserted so far.
    Remove(usize),
    /// The layout's footprint against its bound.
    Layout,
    /// 4 concurrent reader threads verify a sample against the oracle.
    ReadPhase,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            5 => (64usize..1200).prop_map(Op::Insert),
            1 => (7usize..31).prop_map(Op::Remove),
            2 => Just(Op::Layout),
            2 => Just(Op::ReadPhase),
        ],
        4..24,
    )
}

fn policies() -> impl Strategy<Value = CompactionPolicy> {
    prop_oneof![
        Just(CompactionPolicy::disabled()),
        Just(CompactionPolicy::on()),
    ]
}

/// Spawn 4 reader threads over `&index`, each checking every sampled key
/// (plus guaranteed misses) against the oracle's expected values, through
/// both `get` and `get_many`.
fn read_phase(index: &ShortcutIndex, oracle: &ChainedHash, next_key: u64) {
    let step = (next_key / 256).max(1);
    let keys: Vec<u64> = (0..next_key)
        .step_by(step as usize)
        .chain([next_key + 1, next_key + 1_000_003])
        .collect();
    let expected: Vec<Option<u64>> = keys.iter().map(|&k| oracle.get(k)).collect();
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                for (k, want) in keys.iter().zip(&expected) {
                    assert_eq!(index.get(*k), *want, "key {k}");
                }
                assert_eq!(index.get_many(&keys), expected, "get_many diverged");
            });
        }
    });
}

/// The layout bound of a directory whose buckets span at most two local
/// depths, `g − 1` and `g` (what evenly spread keys make): its first half
/// maps pages `0..2^(g−1)` in one run, and each slot `j` of its second
/// half maps page `j` or `j − 2^(g−1)` — at most one run a slot there,
/// plus one at the boundary. `slots / 2 + 2` in all.
fn layout_bound(index: &ShortcutIndex) -> usize {
    (1usize << index.stats().global_depth) / 2 + 2
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // Interleave inserts (→ splits, doublings) and removals against 4
    // concurrent reader threads, under both admission rules: every lookup
    // must match the chained-hash oracle, and the directory's planned
    // footprint must stay within the layout bound however the splits fell.
    #[test]
    fn layout_stays_bounded_and_answers_match_an_oracle(
        ops in ops(),
        policy in policies(),
    ) {
        let mut index = build(policy);
        let mut oracle = oracle();
        let mut next_key = 0u64;

        for op in ops {
            match op {
                Op::Insert(n) => {
                    let batch: Vec<(u64, u64)> =
                        (next_key..next_key + n as u64).map(|k| (k, val(k))).collect();
                    index.insert_batch(&batch).unwrap();
                    for &(k, v) in &batch {
                        oracle.insert(k, v).unwrap();
                    }
                    next_key += n as u64;
                }
                Op::Remove(stride) => {
                    for k in (0..next_key).step_by(stride) {
                        let got = index.remove(k).unwrap();
                        let want = oracle.remove(k).unwrap();
                        prop_assert_eq!(got, want, "remove({}) diverged", k);
                    }
                }
                Op::Layout => {
                    let layout = index.layout_vmas().unwrap();
                    prop_assert!(
                        layout <= layout_bound(&index),
                        "{} planned VMAs over {} slots",
                        layout,
                        1usize << index.stats().global_depth
                    );
                }
                Op::ReadPhase => read_phase(&index, &oracle, next_key),
            }
        }

        // Final full verification: every key ever touched, plus misses.
        assert!(index.wait_sync(Duration::from_secs(30)), "never synced");
        read_phase(&index, &oracle, next_key);
        prop_assert_eq!(index.len(), oracle.len());
        assert!(index.maint_error().is_none());
        let stats = index.stats();
        prop_assert!(stats.vma.in_use <= stats.vma.limit, "budget exceeded: {:?}", stats.vma);
        prop_assert_eq!(stats.maint.pages_moved, 0);
        prop_assert!(index.layout_vmas().unwrap() <= layout_bound(&index));
    }
}

/// The mapping budget of the rescue scenario: the stock 65 530 at a
/// sixteenth, so that a few hundred thousand keys reach the directory sizes
/// where it binds.
const OCCASION_BUDGET: usize = 4_090;

/// The `i`-th key of the rescue scenario (SplitMix64's finalizer):
/// spread like random keys, so buckets split one by one, not in the
/// lockstep waves consecutive integers make of a multiplicative hash.
fn key(i: u64) -> u64 {
    let z = (i ^ (i >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The next 512 keys of [`key`]'s sequence, with their values.
fn next_batch(next: &mut u64) -> Vec<(u64, u64)> {
    let batch = (*next..*next + 512).map(|i| (key(i), val(i))).collect();
    *next += 512;
    batch
}

fn occasion_index(policy: CompactionPolicy, shard_bits: u32, budget: usize) -> ShortcutIndex {
    // 400 000 keys over the shards.
    index(shard_bits, (1 << 15) >> shard_bits, budget, policy)
}

/// A shortcut the budget suspended comes back once growth has shrunk
/// what the directory needs: 100 keys whose directory hashes share their
/// low 12 bits (and, sharded, their route) force a 2^13-slot directory of
/// a few buckets, strided so that no published depth fits a budget of 255
/// mappings; the spread keys that follow fill it in until one does, and
/// the mapper, which keeps the directory pending, publishes it. No create
/// is skipped after that.
#[test]
fn a_suspended_shortcut_comes_back_once_a_depth_fits() {
    for shard_bits in [0, 2] {
        rescue_of_a_suspended_shortcut(shard_bits);
    }
}

/// The clustered keys of [`rescue_of_a_suspended_shortcut`] for an index
/// of `shard_bits` route bits, with their values: all in one shard, with
/// the low 12 bits of their directory hashes equal.
fn clustered_keys(index: &ShortcutIndex, shard_bits: u32) -> Vec<(u64, u64)> {
    // `mult_hash` multiplies by an odd constant: invert it (Newton).
    let mult = mult_hash(1);
    let inverse = (0..6).fold(mult, |x, _| {
        x.wrapping_mul(2u64.wrapping_sub(mult.wrapping_mul(x)))
    });
    // The directory hash byte-swaps the hash rotated past the route: its
    // low 12 bits are the hash's bits 56 − s .. 64 − s and 48 − s .. 52 − s.
    let s = shard_bits;
    let fixed = (0xFFu64 << (56 - s) | 0xF << (48 - s)) | !(u64::MAX >> s);
    let clustered: Vec<(u64, u64)> = (0..100u64)
        .map(|i| {
            (
                (key(i) & !fixed | 0xA5C3 << (48 - s)).wrapping_mul(inverse),
                i,
            )
        })
        .collect();
    let suffix = |k: u64| dir_hash_of(mult_hash(k), s) & 0xFFF;
    assert!(clustered
        .iter()
        .all(|&(k, _)| suffix(k) == suffix(clustered[0].0)));
    assert!(clustered
        .iter()
        .all(|&(k, _)| index.shard_of(k) == index.shard_of(clustered[0].0)));
    clustered
}

fn rescue_of_a_suspended_shortcut(shard_bits: u32) {
    let mut index = occasion_index(CompactionPolicy::on(), shard_bits, OCCASION_BUDGET / 16);
    let clustered = clustered_keys(&index, shard_bits);
    index.insert_batch(&clustered).unwrap();
    assert!(
        !index.wait_sync(Duration::from_secs(60)),
        "the directory fit"
    );
    assert!(index.stats().shortcut_suspended);
    assert!(index.stats().maint.creates_skipped > 0);

    let mut next = 1u64;
    while index.stats().shortcut_suspended {
        assert!(next < 400_000, "never rescued: {}", index.stats());
        index.insert_batch(&next_batch(&mut next)).unwrap();
        let _ = index.wait_sync(Duration::from_secs(60));
    }
    let skipped = index.stats().maint.creates_skipped;
    for _ in 0..16 {
        index.insert_batch(&next_batch(&mut next)).unwrap();
        assert!(
            index.wait_sync(Duration::from_secs(60)),
            "never synced: {:?} {:#?}",
            index.maint_error(),
            (0..index.shard_count())
                .map(|i| {
                    let s = index.shard_stats(i);
                    (
                        s.shortcut_suspended,
                        s.global_depth,
                        s.bucket_count,
                        s.maint,
                        s.vma,
                    )
                })
                .collect::<Vec<_>>()
        );
    }
    let stats = index.stats();
    assert!(!stats.shortcut_suspended);
    assert_eq!(
        stats.maint.creates_skipped, skipped,
        "a create skipped after the rescue"
    );
    assert!(stats.vma.in_use <= stats.vma.limit, "{:?}", stats.vma);
    assert!(index.maint_error().is_none());
    for &(k, v) in &clustered {
        assert_eq!(index.get(k), Some(v), "key {k}");
    }
}

/// One shard of four, fair-sharing the budget, suspended by the clustered
/// keys: while it stays suspended its mapper refuses a create only when
/// one is relayed — at a doubling — and never counts its own retries, so
/// its skips never outnumber its doublings; the spread keys bring it back
/// in sync, and every key answers as a `HashMap` says.
#[test]
fn a_suspended_shard_counts_a_skip_only_for_a_relayed_create() {
    let mut index = occasion_index(CompactionPolicy::on(), 2, OCCASION_BUDGET / 16);
    let mut oracle = std::collections::HashMap::new();
    let clustered = clustered_keys(&index, 2);
    let shard = index.shard_of(clustered[0].0);
    index.insert_batch(&clustered).unwrap();
    oracle.extend(clustered.iter().copied());
    assert!(!index.wait_sync(Duration::from_secs(60)));
    let counts = |index: &ShortcutIndex| {
        let s = index.shard_stats(shard);
        (
            s.index.doublings,
            s.maint.creates_skipped,
            s.shortcut_suspended,
        )
    };
    let (doublings, skips, suspended) = counts(&index);
    assert!(suspended && skips > 0);
    let (mut while_suspended, mut next) = ((0, 0), 1u64);
    loop {
        assert!(next < 400_000, "never rescued: {}", index.stats());
        let before = counts(&index);
        let batch = next_batch(&mut next);
        index.insert_batch(&batch).unwrap();
        oracle.extend(batch);
        let _ = index.wait_sync(Duration::from_secs(60));
        let after = counts(&index);
        if !after.2 {
            break;
        }
        while_suspended.0 += after.0 - before.0;
        while_suspended.1 += after.1 - before.1;
    }
    eprintln!(
        "shard {shard}: {} skips over {} doublings while suspended \
         ({skips} over {doublings} before); {} skips in all",
        while_suspended.1,
        while_suspended.0,
        counts(&index).1
    );
    assert!(
        while_suspended.1 <= while_suspended.0,
        "{} skips over {} doublings",
        while_suspended.1,
        while_suspended.0
    );
    for _ in 0..4 {
        let batch = next_batch(&mut next);
        index.insert_batch(&batch).unwrap();
        oracle.extend(batch);
    }
    assert!(index.wait_sync(Duration::from_secs(60)), "never synced");
    assert!(!index.stats().shortcut_suspended);
    assert!(index.maint_error().is_none());
    assert_eq!(index.len(), oracle.len());
    let keys: Vec<u64> = oracle.keys().copied().collect();
    let got = index.get_many(&keys);
    for (k, got) in keys.iter().zip(got) {
        assert_eq!(got, oracle.get(k).copied(), "key {k}");
        assert_eq!(index.get(*k), got, "key {k}");
    }
}

/// The headline acceptance number: a mature directory (fan-in near 1)
/// keeps its live VMA estimate at least 10x below one mapping a slot —
/// without a page ever moving.
#[test]
fn compaction_collapses_live_vmas_by_10x() {
    let mut index = index(0, 1 << 15, 1_000_000, CompactionPolicy::disabled());

    // Grow until the directory is mature: deep enough to matter and late
    // enough in its depth's life that fan-in approaches 1 (right before
    // the next doubling).
    let mut k = 0u64;
    loop {
        let batch: Vec<(u64, u64)> = (k..k + 10_000).map(|x| (x, val(x))).collect();
        index.insert_batch(&batch).unwrap();
        k += 10_000;
        let s = index.stats();
        if s.global_depth >= 11 && s.avg_fanin <= 1.10 {
            break;
        }
        assert!(k < 3_000_000, "never reached a mature directory");
    }
    assert!(index.wait_sync(Duration::from_secs(60)), "never synced");

    // Settle retired directories so `live ≈ in_use` before measuring.
    common::wait_until("retired directories are reclaimed", || {
        index.stats().vma.retired_areas == 0
    });
    let stats = index.stats();
    let slots = 1u64 << stats.global_depth;
    assert!(
        stats.vma.live_vmas() * 10 <= slots,
        "{} live VMAs over {slots} slots (layout {})",
        stats.vma.live_vmas(),
        index.layout_vmas().unwrap()
    );
    assert_eq!(stats.maint.pages_moved, 0);

    // Everything still answers, shortcut-served once synced.
    for key in (0..k).step_by(4_093) {
        assert_eq!(index.get(key), Some(val(key)), "key {key}");
    }
    assert!(index.maint_error().is_none());
}
