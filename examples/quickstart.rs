//! Quickstart: build a [`ShortcutIndex`] with the builder, insert, look
//! up (single and batched), and read the merged statistics snapshot.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use std::time::{Duration, Instant};
use taking_the_shortcut::{Index, IndexError, ShortcutIndex};

fn main() -> Result<(), IndexError> {
    // A shortcut-enhanced extendible hash table: 4 KB buckets from a
    // rewirable page pool sized for the expected entry count, load factor
    // 0.35, an async mapper thread polling every 25 ms, and the paper's
    // fan-in routing threshold of 8.
    let mut index = ShortcutIndex::builder()
        .capacity(1_000_000)
        .fanin_threshold(8.0)
        .build()?;

    println!("inserting 1M entries…");
    let t0 = Instant::now();
    for k in 0..1_000_000u64 {
        index.insert(k, k * 2)?;
    }
    println!("  inserted in {:?}", t0.elapsed());

    let s = index.stats();
    println!(
        "  directory: 2^{} slots over {} buckets (avg fan-in {:.2})",
        s.global_depth, s.bucket_count, s.avg_fanin
    );

    // Let the shortcut directory catch up with the splits and doublings.
    let synced = index.wait_sync(Duration::from_secs(30));
    let (tver, sver) = index.stats().versions;
    println!("  shortcut in sync: {synced} (versions: traditional {tver}, shortcut {sver})");

    println!("looking up 1M entries (batches of 1024)…");
    let t0 = Instant::now();
    let mut hits = 0u64;
    let keys: Vec<u64> = (0..1_000_000u64).collect();
    for chunk in keys.chunks(1024) {
        // One access-path decision per batch instead of per key.
        for (i, v) in index.get_many(chunk).into_iter().enumerate() {
            if v == Some(chunk[i] * 2) {
                hits += 1;
            }
        }
    }
    println!("  {} hits in {:?}", hits, t0.elapsed());

    let s = index.stats();
    println!(
        "  routed via shortcut: {} | via traditional: {}",
        s.index.shortcut_lookups, s.index.traditional_lookups
    );
    println!(
        "  mapper: {} slot updates, {} rebuilds, {} slots rewired, {} pages populated",
        s.maint.updates_applied,
        s.maint.creates_applied,
        s.maint.slots_rewired,
        s.maint.pages_populated
    );
    println!(
        "  pool: {} mmap calls, {} pages allocated, {} grows",
        s.rewire.mmap_calls, s.rewire.pages_allocated, s.rewire.pool_grows
    );

    assert_eq!(hits, 1_000_000);
    assert!(index.maint_error().is_none());
    println!("done.");
    Ok(())
}
