//! Slot layouts at the ends of the supported range: 2 MB slots
//! (`k = 9`, [`SlotLayout::MAX_SLOT_POWER`]) serve a whole index like
//! any other layout, and a power past it is a typed configuration error.

use std::time::Duration;
use taking_the_shortcut::{Index, ShortcutIndex, SlotLayout};

#[test]
fn max_power_slots_round_trip_the_whole_index() {
    let mut index = ShortcutIndex::builder()
        .capacity(200_000)
        .poll_interval(Duration::from_millis(1))
        .vma_budget(1_000_000)
        .slot_pages(SlotLayout::MAX_SLOT_POWER)
        .build()
        .unwrap();

    let s = index.stats();
    assert_eq!(s.slot_bytes, 2 << 20);
    assert_eq!(s.pages_per_slot, 512);
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
