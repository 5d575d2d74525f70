//! Hugepage backing is **opt-in with graceful degradation**: requesting
//! 2 MB hugetlb-backed slots on a host without reserved hugepages (the
//! common CI / sandbox case, `/proc/sys/vm/nr_hugepages == 0`) must fall
//! back to plain 4 KB-page slots at pool creation — same answers, same
//! layout arithmetic, a visible `StatsSnapshot` flag — never a SIGBUS or
//! an `mmap` error at first access.

use std::time::Duration;
use taking_the_shortcut::{Index, ShortcutIndex, SlotLayout};

fn reserved_hugepages() -> usize {
    std::fs::read_to_string("/proc/sys/vm/nr_hugepages")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0)
}

#[test]
fn huge_request_without_hugepages_falls_back_to_4k_slots() {
    // k = 9: 2 MB slots, the hugetlb boundary.
    let mut index = ShortcutIndex::builder()
        .capacity(200_000)
        .poll_interval(Duration::from_millis(1))
        .vma_budget(1_000_000)
        .slot_pages(SlotLayout::MAX_SLOT_POWER)
        .huge_pages(true)
        .build()
        .expect("huge request must never fail pool creation");

    let s = index.stats();
    assert!(s.huge_pages_requested);
    assert_eq!(s.slot_bytes, 2 << 20);
    assert_eq!(s.pages_per_slot, 512);
    if reserved_hugepages() == 0 {
        assert!(
            !s.huge_pages_active,
            "no reserved hugepages: the pool must report the 4 KB fallback"
        );
    }
    // A 2 MB bucket holds >100k entries; this workload fits in a handful
    // of buckets and must behave exactly like any other layout.
    let n = 50_000u64;
    let entries: Vec<(u64, u64)> = (0..n).map(|k| (k, k.rotate_left(17))).collect();
    index.insert_batch(&entries).unwrap();
    assert!(index.wait_sync(Duration::from_secs(30)), "never synced");
    for k in (0..n).step_by(97) {
        assert_eq!(index.get(k), Some(k.rotate_left(17)), "key {k}");
    }
    let keys: Vec<u64> = (0..1_000).collect();
    let got = index.get_many(&keys);
    for (i, k) in keys.iter().enumerate() {
        assert_eq!(got[i], Some(k.rotate_left(17)));
    }
    assert!(index.maint_error().is_none());
    assert_eq!(index.stats().bucket_capacity, s.bucket_capacity);
    assert!(
        s.bucket_capacity > 100_000,
        "2 MB buckets must hold >100k entries, got {}",
        s.bucket_capacity
    );
}

#[test]
fn huge_request_below_boundary_is_plain_with_flag() {
    // k = 2 (16 KB) is below the 2 MB boundary: the request is recorded,
    // hugetlb stays off (MADV_HUGEPAGE advice only), everything works.
    let mut index = ShortcutIndex::builder()
        .capacity(50_000)
        .poll_interval(Duration::from_millis(1))
        .vma_budget(1_000_000)
        .slot_pages(2)
        .huge_pages(true)
        .build()
        .unwrap();
    let s = index.stats();
    assert!(s.huge_pages_requested);
    assert!(!s.huge_pages_active);
    assert_eq!(s.slot_bytes, 16 * 1024);
    for k in 0..20_000u64 {
        index.insert(k, !k).unwrap();
    }
    assert!(index.wait_sync(Duration::from_secs(30)));
    for k in (0..20_000u64).step_by(61) {
        assert_eq!(index.get(k), Some(!k));
    }
}

#[test]
fn oversized_slot_power_is_a_typed_config_error() {
    let err = match ShortcutIndex::builder()
        .capacity(1_000)
        .slot_pages(SlotLayout::MAX_SLOT_POWER + 1)
        .build()
    {
        Err(e) => e,
        Ok(_) => panic!("slot power past the 2 MB boundary must be rejected"),
    };
    let msg = err.to_string();
    assert!(msg.contains("slot power"), "unexpected error: {msg}");
}
