//! Directory-order physical compaction, end to end: relocating bucket
//! pages out from under a live `ShortcutIndex` must never change an
//! answer (checked against a `ChainedHash` oracle, with 4 concurrent
//! reader threads hammering the index between mutation phases), and each
//! full pass must bring the planned-VMA layout estimate down to its
//! fan-in-determined ideal.

use proptest::prelude::*;
use std::time::Duration;
use taking_the_shortcut::exhash::{ChConfig, ChainedHash};
use taking_the_shortcut::{CompactionPolicy, Index, ShortcutIndex};

mod common;

fn build(policy: CompactionPolicy, slot_power: u32) -> ShortcutIndex {
    ShortcutIndex::builder()
        .capacity(150_000)
        .poll_interval(Duration::from_millis(1))
        // Private budget: isolate `in_use` accounting from other tests
        // sharing the process-global budget.
        .vma_budget(1_000_000)
        .compaction(policy)
        .slot_pages(slot_power)
        .build()
        .unwrap()
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
    /// Insert the next `n` keys (batched — drives splits, doublings and
    /// the passes they trigger).
    Insert(usize),
    /// Remove every `stride`-th key inserted so far.
    Remove(usize),
    /// Explicit full compaction pass.
    Compact,
    /// 4 concurrent reader threads verify a sample against the oracle.
    ReadPhase,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            5 => (64usize..1200).prop_map(Op::Insert),
            1 => (7usize..31).prop_map(Op::Remove),
            2 => Just(Op::Compact),
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // Interleave inserts (→ splits, doublings), removals, and explicit
    // and triggered compaction passes against 4 concurrent reader threads; every lookup must match the chained-hash
    // oracle, and after each full compaction the layout estimate must
    // have dropped to the ideal (never increased). Runs at both the
    // paper's 4 KB slots (k = 0) and 16 KB slots (k = 2): relocation,
    // the VMA closed forms, and the published-directory arithmetic must
    // be layout-independent.
    #[test]
    fn relocation_never_changes_an_answer(
        ops in ops(),
        policy in policies(),
        slot_power in prop_oneof![Just(0u32), Just(2u32)],
    ) {
        let mut index = build(policy, slot_power);
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
                Op::Compact => {
                    let before = index.layout_vmas().unwrap();
                    let out = index.compact().unwrap();
                    prop_assert_eq!(out.vmas_before, before);
                    // Monotone non-increasing across the pass, and exactly
                    // the fan-in-determined ideal afterwards.
                    prop_assert!(out.vmas_after <= out.vmas_before);
                    prop_assert_eq!(out.vmas_after, index.ideal_layout_vmas());
                    prop_assert_eq!(index.layout_vmas().unwrap(), out.vmas_after);
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
        prop_assert_eq!(stats.pages_per_slot, 1usize << slot_power);
        let vma = stats.vma;
        prop_assert!(vma.in_use <= vma.limit, "budget exceeded: {:?}", vma);
    }
}

/// The mapping budget of the occasion scenarios: the stock 65 530 at a
/// sixteenth, so that a few hundred thousand keys reach the directory sizes
/// where it binds.
const OCCASION_BUDGET: usize = 4_090;

/// The `i`-th key of the occasion scenarios (SplitMix64's finalizer):
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
    ShortcutIndex::builder()
        .capacity(400_000)
        .poll_interval(Duration::from_millis(1))
        .vma_budget(budget)
        .shards(shard_bits)
        .compaction(policy)
        .build()
        .unwrap()
}

/// Compaction is one pass run on three occasions; this drives an index
/// (one shard, then four on one budget) through each and checks that the
/// pass ran when, and only when, the occasion's condition held.
#[test]
fn each_occasion_runs_one_pass_when_and_only_when_its_condition_holds() {
    for shard_bits in [0, 2] {
        doublings_and_pressure(shard_bits);
        rescue_of_a_suspended_shortcut(shard_bits);
    }
}

/// Growth through two directory sizes on a budget the larger one crosses
/// half of: every doubling is one pass; between doublings a shard's pass
/// count moves only once its mappings have crossed half of its share, by
/// one, and lands back under it; the budget never runs past 80 % at a
/// sync point. The same keys with compaction off move no page.
fn doublings_and_pressure(shard_bits: u32) {
    let shards = 1usize << shard_bits;
    let half_share = (OCCASION_BUDGET / shards / 2) as u64;
    let mut on = occasion_index(CompactionPolicy::on(), shard_bits, OCCASION_BUDGET);
    let mut off = occasion_index(CompactionPolicy::disabled(), shard_bits, OCCASION_BUDGET);
    let mut before: Vec<_> = (0..shards).map(|i| on.shard_stats(i)).collect();
    // Per shard: passes run under pressure, and doublings seen since.
    let mut pressure_passes = vec![0u64; shards];
    let mut doublings_since = vec![0u64; shards];
    let mut next = 1u64;
    while doublings_since.contains(&0) {
        assert!(next < 400_000, "pressure never ran a pass: {before:?}");
        let batch = next_batch(&mut next);
        on.insert_batch(&batch).unwrap();
        off.insert_batch(&batch).unwrap();
        assert!(on.wait_sync(Duration::from_secs(60)), "never synced");
        assert_eq!(off.stats().maint.pages_moved, 0);
        for (i, was) in before.iter_mut().enumerate() {
            let now = on.shard_stats(i);
            assert!(
                now.vma.in_use * 5 <= now.vma.limit * 4,
                "budget past 80 % at a sync point: {:?}",
                now.vma
            );
            let doublings = now.index.doublings - was.index.doublings;
            let passes = now.maint.compactions - was.maint.compactions;
            assert!(passes >= doublings, "a doubling ran no pass");
            let extra = passes - doublings;
            // A split adds at most two mappings.
            let splits = now.index.splits - was.index.splits;
            let crossed = was.vma.pool_in_use + 2 * splits > half_share;
            assert!(
                extra == 0 || crossed,
                "shard {i}: a pass without its occasion: {was}\n{now}"
            );
            if extra > 0 {
                assert_eq!(extra, 1, "shard {i}: one occasion, one pass");
                assert!(
                    now.vma.pool_in_use <= half_share,
                    "shard {i}: the pass left {} mappings, over half the share",
                    now.vma.pool_in_use
                );
                pressure_passes[i] += 1;
            }
            if pressure_passes[i] > 0 {
                doublings_since[i] += doublings;
            }
            *was = now;
        }
    }
    assert_eq!(on.stats().maint.creates_skipped, 0);
    assert!(on.maint_error().is_none());
    for i in (1..next).step_by(997) {
        assert_eq!(on.get(key(i)), Some(val(i)), "key {i}");
    }
}

/// A shortcut the budget suspended is rescued once growth has shrunk what
/// the directory needs: 100 keys whose hashes share 12 bits below the
/// shard's force a 2^13-slot directory of a few buckets, which fits a
/// budget of 511 mappings at no published depth; the spread keys that
/// follow fill it in until one does, and the write path announces it
/// again. No create is skipped after that.
fn rescue_of_a_suspended_shortcut(shard_bits: u32) {
    let mut index = occasion_index(CompactionPolicy::on(), shard_bits, OCCASION_BUDGET / 8);
    // `mult_hash` multiplies by an odd constant: invert it (Newton).
    let mult = taking_the_shortcut::exhash::mult_hash(1);
    let inverse = (0..6).fold(mult, |x, _| {
        x.wrapping_mul(2u64.wrapping_sub(mult.wrapping_mul(x)))
    });
    let prefix = 12 + shard_bits;
    let clustered: Vec<(u64, u64)> = (0..100u64)
        .map(|i| {
            (
                (0xABC << (64 - prefix) | i << (57 - prefix)).wrapping_mul(inverse),
                i,
            )
        })
        .collect();
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
        assert!(index.wait_sync(Duration::from_secs(60)), "never synced");
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

/// The headline acceptance number: compacting a mature directory (fan-in
/// near 1, scattered by split-order allocation) collapses the live VMA
/// estimate by at least 10x at unchanged depth.
#[test]
fn compaction_collapses_live_vmas_by_10x() {
    let mut index = ShortcutIndex::builder()
        .capacity(400_000)
        .poll_interval(Duration::from_millis(1))
        .vma_budget(1_000_000)
        .slot_pages(0)
        .build()
        .unwrap();

    // Grow until the directory is mature: deep enough to matter and late
    // enough in its depth's life that fan-in approaches 1 (right before
    // the next doubling) — the point where directory order pays most.
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
    let drain = |index: &ShortcutIndex| {
        common::wait_until("retired directories are reclaimed", || {
            index.stats().vma.retired_areas == 0
        });
        index.stats()
    };
    let before = drain(&index);
    let depth_before = before.global_depth;
    let live_before = before.vma.live_vmas();
    let layout_before = index.layout_vmas().unwrap();

    let out = index.compact().unwrap();
    assert!(
        index.wait_sync(Duration::from_secs(60)),
        "rebuild never applied"
    );
    let after = drain(&index);

    assert_eq!(after.global_depth, depth_before, "depth must not change");
    assert_eq!(out.vmas_before, layout_before);
    assert_eq!(out.vmas_after, index.ideal_layout_vmas());
    assert!(
        after.vma.live_vmas() * 10 <= live_before,
        "live VMAs only dropped {} -> {} (layout {} -> {})",
        live_before,
        after.vma.live_vmas(),
        out.vmas_before,
        out.vmas_after
    );
    assert!(after.maint.pages_moved > 0);
    assert_eq!(after.maint.compactions, 1);
    // The write path counts a pass once; both blocks read that count.
    assert_eq!(after.maint.compactions, after.index.compactions);
    assert_eq!(after.maint.pages_moved, after.index.pages_moved);
    assert_eq!(
        after.maint.compaction_skipped,
        after.index.compaction_skipped
    );
    assert_eq!(after.maint.vmas_saved, after.index.vmas_saved);
    assert_eq!(
        after.maint.vmas_saved,
        (out.vmas_before - out.vmas_after) as u64
    );

    // Everything still answers, shortcut-served once synced.
    for key in (0..k).step_by(4_093) {
        assert_eq!(index.get(key), Some(val(key)), "key {key}");
    }
    assert!(index.maint_error().is_none());
}
