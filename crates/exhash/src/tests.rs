//! The front door's own tests: the merged [`StatsSnapshot`], and a
//! [`ShortcutIndex`] built through its [`IndexBuilder`](crate::IndexBuilder).

use crate::{Index, IndexError, IndexStats, ShortcutIndex, StatsSnapshot, MAX_SHARD_BITS};
use shortcut_core::metrics::MaintSnapshot;
use shortcut_rewire::{PinStrategy, VmaSnapshot};
use std::time::Duration;

fn snap(len: usize, depth: u32, buckets: usize, fanin: f64, in_sync: bool) -> StatsSnapshot {
    StatsSnapshot {
        shards: 1,
        len,
        global_depth: depth,
        bucket_count: buckets,
        avg_fanin: fanin,
        in_sync,
        versions: (len as u64, len as u64),
        shortcut_suspended: false,
        slot_bytes: shortcut_rewire::PAGE_SIZE_4K,
        pin_strategy: PinStrategy::Asymmetric,
        bias_revocations: 0,
        bias_rearms: 0,
        zap_supported: true,
        index: IndexStats::default(),
        maint: MaintSnapshot::default(),
        rewire: shortcut_rewire::StatsSnapshot::default(),
        vma: VmaSnapshot::default(),
    }
}

/// A snapshot whose every field (and every field its `Display` prints)
/// holds a value of its own, offset by `d`; `flip` flips every flag.
fn distinct(d: u64, flip: bool) -> StatsSnapshot {
    let u = |n: u64| (n + d) as usize;
    StatsSnapshot {
        shards: u(3),
        len: u(1001),
        global_depth: (7 + d) as u32,
        bucket_count: u(40),
        avg_fanin: 3.2 + d as f64,
        in_sync: !flip,
        versions: (1002 + d, 1003 + d),
        shortcut_suspended: flip,
        slot_bytes: shortcut_rewire::PAGE_SIZE_4K + d as usize,
        pin_strategy: if flip {
            PinStrategy::Dekker
        } else {
            PinStrategy::Asymmetric
        },
        bias_revocations: 23 + d,
        bias_rearms: 24 + d,
        zap_supported: !flip,
        index: IndexStats {
            splits: 41 + d,
            doublings: 5 + d,
            shortcut_lookups: 900 + d,
            traditional_lookups: 100 + d,
            ..IndexStats::default()
        },
        maint: MaintSnapshot {
            creates_applied: 11 + d,
            updates_applied: 12 + d,
            creates_skipped: 13 + d,
            creates_deferred: 14 + d,
            creates_coarse: 15 + d,
            passes: 17 + d,
            update_batches: 18 + d,
            slots_zapped: 19 + d,
            coarse_service_pct: 100 - d / 20,
            ..MaintSnapshot::default()
        },
        rewire: shortcut_rewire::StatsSnapshot {
            pages_populated: 60 + d,
            pages_allocated: 61 + d,
            pages_freed: 62 + d,
            pool_file_slots: 63 + d,
            ..shortcut_rewire::StatsSnapshot::default()
        },
        vma: VmaSnapshot {
            in_use: 500 + d,
            retired_vmas: 50 + d,
            limit: 65530 + d,
            areas_retired: 21 + d,
            areas_reclaimed: 22 + d,
            ..VmaSnapshot::default()
        },
    }
}

#[test]
fn snapshot_merge_sums_counters_and_takes_honest_gauges() {
    let (a, b) = (distinct(0, false), distinct(1000, true));
    for (m, first) in [(a.merge(&b), &a), (b.merge(&a), &b)] {
        // Sum.
        assert_eq!(m.shards, 1006);
        assert_eq!(m.len, 3002);
        assert_eq!(m.bucket_count, 1080);
        assert_eq!(m.versions, (3004, 3006));
        assert_eq!(m.bias_revocations, 1046);
        assert_eq!(m.bias_rearms, 1048);
        // Max: the deepest shard.
        assert_eq!(m.global_depth, 1007);
        // Re-weighted by bucket count: (3.2*40 + 1003.2*1040) / 1080.
        let fanin = (3.2 * 40.0 + 1003.2 * 1040.0) / 1080.0;
        assert!((m.avg_fanin - fanin).abs() < 1e-9, "got {}", m.avg_fanin);
        // And: only if every shard holds; Or: if any does.
        assert!(!m.in_sync);
        assert!(m.shortcut_suspended);
        // First: one configuration per index, one probe per process.
        assert_eq!(m.slot_bytes, first.slot_bytes);
        assert_eq!(m.pin_strategy, first.pin_strategy);
        assert_eq!(m.zap_supported, first.zap_supported);
        // Merge: each nested block by its own rules (their tests).
        assert_eq!(m.index, a.index.merge(&b.index));
        assert_eq!(m.index.splits, 1082);
        assert_eq!(m.maint, a.maint.merge(&b.maint));
        assert_eq!(m.maint.coarse_service_pct, 50, "worst-served shard");
        assert_eq!(m.rewire, a.rewire.merge(&b.rewire));
        assert_eq!(m.vma, a.vma.merge(&b.vma));
        assert_eq!(m.vma.in_use, 1500, "a shared gauge: max");
    }
}

#[test]
fn snapshot_merge_with_empty_shard_keeps_fanin_finite() {
    let a = snap(0, 0, 0, 0.0, true);
    let b = snap(10, 1, 2, 1.5, true);
    let m = a.merge(&b);
    assert_eq!(m.bucket_count, 2);
    assert!((m.avg_fanin - 1.5).abs() < 1e-9);
    let empty = a.merge(&snap(0, 0, 0, 0.0, true));
    assert_eq!(empty.avg_fanin, 0.0, "0 buckets must not divide by zero");
}

#[test]
fn snapshot_display_is_stable_and_greppable() {
    let mut s = snap(150, 5, 10, 2.0, true);
    s.index.shortcut_lookups = 190;
    s.index.traditional_lookups = 10;
    let text = s.to_string();
    // The stable contract: every group line starts with its key, and
    // the key=value pairs are parseable (INFO and CI grep for these).
    for key in [
        "index: entries=150 ",
        "shortcut: in_sync=true ",
        "layout: slot_bytes=4096\n",
        "lookups: shortcut=190 traditional=10 shortcut_served_pct=95.0",
        "structure: splits=0 ",
        "maint: creates=0 ",
        " passes=0 update_batches=0 slots_zapped=0",
        "vma: in_use=0 ",
        "read_path: pin_strategy=asymmetric bias_revocations=0 bias_rearms=0 zap_supported=true",
        "rewire: pages_populated=0 pages_allocated=0 pages_freed=0 pool_file_slots=0",
    ] {
        assert!(text.contains(key), "missing `{key}` in:\n{text}");
    }
    assert!((s.shortcut_served_pct() - 95.0).abs() < 1e-9);
    assert_eq!(snap(0, 0, 0, 0.0, true).shortcut_served_pct(), 0.0);
    // Byte for byte: no key dropped, renamed or reordered, no value
    // printed under another's key.
    assert_eq!(
        distinct(0, false).to_string(),
        "index: entries=1001 shards=3 global_depth=7 buckets=40 avg_fanin=3.20\n\
         shortcut: in_sync=true suspended=false versions_traditional=1002 \
         versions_shortcut=1003\n\
         layout: slot_bytes=4096\n\
         lookups: shortcut=900 traditional=100 shortcut_served_pct=90.0\n\
         structure: splits=41 doublings=5\n\
         maint: creates=11 updates=12 creates_skipped=13 creates_deferred=14 creates_coarse=15 \
         passes=17 update_batches=18 slots_zapped=19\n\
         vma: in_use=500 live=450 retired=50 limit=65530 areas_retired=21 areas_reclaimed=22\n\
         read_path: pin_strategy=asymmetric bias_revocations=23 bias_rearms=24 zap_supported=true\n\
         rewire: pages_populated=60 pages_allocated=61 pages_freed=62 pool_file_slots=63\n"
    );
}

#[test]
fn snapshot_merge_keeps_the_common_read_path() {
    let asym = snap(1, 0, 1, 1.0, true);
    let m = asym.merge(&asym);
    assert_eq!(m.pin_strategy, PinStrategy::Asymmetric);
}

#[test]
fn remove_batch_matches_sequential_removes_through_the_facade() {
    let mut idx = ShortcutIndex::builder()
        .capacity(2_000)
        .shards(1)
        .vma_budget(100_000)
        .build()
        .unwrap();
    for k in 0..1_000u64 {
        idx.insert(k, k + 7).unwrap();
    }
    let keys: Vec<u64> = vec![3, 5_000, 3, 999];
    let got = idx.remove_batch(&keys).unwrap();
    assert_eq!(got, vec![Some(10), None, None, Some(1_006)]);
    // Shared-writer variant on the remaining keys.
    let rest: Vec<u64> = (0..1_000).filter(|&k| k != 3 && k != 999).collect();
    let got = idx.remove_batch_shared(&rest).unwrap();
    assert!(got.iter().all(|v| v.is_some()));
    assert!(idx.is_empty());
}

#[test]
fn builder_rejects_shard_bits_above_the_cap() {
    let err = ShortcutIndex::builder()
        .shards(MAX_SHARD_BITS + 1)
        .build()
        .unwrap_err();
    assert!(matches!(err, IndexError::Config { .. }), "got {err:?}");
}

/// `stats()` is the one cross-shard fold: each field against the same
/// reading taken shard by shard.
#[test]
fn sharded_facade_routes_and_aggregates() {
    let mut idx = ShortcutIndex::builder()
        .capacity(4_000)
        .shards(2)
        .vma_budget(100_000)
        .build()
        .unwrap();
    assert_eq!(idx.shard_count(), 4);
    for k in 0..4_000u64 {
        idx.insert(k, k ^ 0xFF).unwrap();
    }
    // A shared write of a present key stores its value beside the biased
    // readers: no shard's bias is revoked.
    idx.insert_shared(0, 0xFF).unwrap();
    assert_eq!(idx.stats().bias_revocations, 0, "an update revoked");
    // A structural one — the key removed and inserted again, which moves no
    // directory — revokes one shard's read bias: a counter to sum.
    assert_eq!(idx.remove_shared(0).unwrap(), Some(0xFF));
    idx.insert_shared(0, 0xFF).unwrap();
    assert!(idx.wait_sync(Duration::from_secs(10)), "never synced");
    assert_eq!(idx.len(), 4_000);

    let s = idx.stats();
    assert_eq!(s.shards, 4);
    assert_eq!(s.len, 4_000);
    // Each shard's own reading, through its `ShortcutEh` accessors.
    let (mut depth, mut buckets, mut len, mut versions) = (0, 0, 0, (0, 0));
    let (mut slots, mut suspended) = (0.0, false);
    for i in 0..4 {
        idx.with_shard(i, |sh| {
            assert!(sh.len() > 500, "shard {i} nearly empty");
            depth = depth.max(sh.global_depth());
            buckets += sh.bucket_count();
            len += sh.len();
            versions = (versions.0 + sh.versions().0, versions.1 + sh.versions().1);
            slots += sh.avg_fanin() * sh.bucket_count() as f64;
            suspended |= sh.shortcut_suspended();
        });
    }
    assert_eq!(s.global_depth, depth, "max");
    assert_eq!(s.bucket_count, buckets, "sum");
    assert_eq!(s.len, len, "sum");
    assert_eq!(s.versions, versions, "sum");
    let fanin = slots / buckets as f64;
    assert!(
        (s.avg_fanin - fanin).abs() < 1e-9,
        "{} vs {fanin}",
        s.avg_fanin
    );
    assert_eq!(s.shortcut_suspended, suspended, "any");
    assert_eq!(idx.in_sync(), s.in_sync);

    // The bias counters live beside each shard's `ShortcutEh`, not in it.
    let (mut revocations, mut rearms) = (0, 0);
    for i in 0..4 {
        let sh = idx.shard_stats(i);
        revocations += sh.bias_revocations;
        rearms += sh.bias_rearms;
    }
    assert_eq!(s.bias_revocations, revocations, "sum");
    assert_eq!(s.bias_rearms, rearms, "sum");
    assert_eq!(s.bias_revocations, 1, "one shard saw a shared writer");

    for k in (0..4_000u64).step_by(13) {
        assert_eq!(idx.get(k), Some(k ^ 0xFF));
    }
    assert!(idx.maint_error().is_none());
}
