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
        pages_per_slot: 1,
        slot_bytes: shortcut_rewire::PAGE_SIZE_4K,
        bucket_capacity: 87,
        huge_pages_requested: false,
        huge_pages_active: true,
        pin_strategy: PinStrategy::Asymmetric,
        probe_backend: "scalar",
        bias_revocations: 0,
        bias_rearms: 0,
        zap_supported: true,
        index: IndexStats::default(),
        maint: MaintSnapshot::default(),
        rewire: shortcut_rewire::StatsSnapshot::default(),
        vma: VmaSnapshot::default(),
    }
}

#[test]
fn snapshot_merge_sums_counters_and_takes_honest_gauges() {
    let mut a = snap(100, 5, 10, 2.0, true);
    a.index.splits = 4;
    a.maint.coarse_service_pct = 100;
    let mut b = snap(50, 7, 30, 1.0, false);
    b.index.splits = 1;
    b.shortcut_suspended = true;
    b.maint.coarse_service_pct = 80;
    let m = a.merge(&b);
    assert_eq!(m.shards, 2);
    assert_eq!(m.len, 150);
    assert_eq!(m.global_depth, 7, "gauge: deepest shard");
    assert_eq!(m.bucket_count, 40);
    // Re-weighted by bucket count: (2.0*10 + 1.0*30) / 40.
    assert!((m.avg_fanin - 1.25).abs() < 1e-9, "got {}", m.avg_fanin);
    assert!(!m.in_sync, "in_sync only if every shard is");
    assert!(m.shortcut_suspended, "suspended if any shard is");
    assert_eq!(m.versions, (150, 150));
    assert_eq!(m.index.splits, 5);
    assert_eq!(m.maint.coarse_service_pct, 80, "worst-served shard");
    // Commutative.
    let n = b.merge(&a);
    assert_eq!(n.len, m.len);
    assert_eq!(n.global_depth, m.global_depth);
    assert!((n.avg_fanin - m.avg_fanin).abs() < 1e-12);
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
        "layout: pages_per_slot=1 ",
        "lookups: shortcut=190 traditional=10 shortcut_served_pct=95.0",
        "structure: splits=0 ",
        "maint: creates=0 ",
        " passes=0 update_batches=0 slots_zapped=0",
        "vma: in_use=0 ",
        "read_path: pin_strategy=asymmetric probe_backend=scalar bias_revocations=0 bias_rearms=0 zap_supported=true",
        "rewire: pages_populated=0 pages_allocated=0 pages_freed=0 pool_file_slots=0",
    ] {
        assert!(text.contains(key), "missing `{key}` in:\n{text}");
    }
    assert!((s.shortcut_served_pct() - 95.0).abs() < 1e-9);
    assert_eq!(snap(0, 0, 0, 0.0, true).shortcut_served_pct(), 0.0);
}

#[test]
fn snapshot_merge_keeps_the_common_read_path() {
    let asym = snap(1, 0, 1, 1.0, true);
    let m = asym.merge(&asym);
    assert_eq!(m.pin_strategy, PinStrategy::Asymmetric);
    assert_eq!(m.probe_backend, "scalar");
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
    // A shared write revokes one shard's read bias: a counter to sum.
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
