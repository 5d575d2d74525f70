//! Figure 6, animated: watch extendible hashing split buckets and double
//! its directory, and watch the shortcut directory replay it all.
//!
//! ```bash
//! cargo run --release --example eh_splits
//! ```

use std::time::Duration;
use taking_the_shortcut::exhash::{EhConfig, ExtendibleHash, Index, IndexError, ShortcutIndex};

fn dump(eh: &ExtendibleHash, label: &str) {
    println!(
        "{label}: global depth {} | {} slots | {} buckets | avg fan-in {:.2}",
        eh.global_depth(),
        eh.dir_slots(),
        eh.bucket_count(),
        eh.avg_fanin()
    );
}

fn main() -> Result<(), IndexError> {
    // Plain EH first: show the doubling cadence.
    let mut eh = ExtendibleHash::try_new(EhConfig::default())?;
    dump(&eh, "fresh        ");
    let mut inserted = 0u64;
    for round in 1..=6 {
        let target_splits = eh.stats().splits + 3;
        while eh.stats().splits < target_splits {
            eh.insert(inserted.wrapping_mul(0x9E37_79B9_7F4A_7C15), inserted)?;
            inserted += 1;
        }
        dump(&eh, &format!("after round {round}"));
    }
    println!(
        "=> {} inserts caused {} splits and {} directory doublings\n",
        inserted,
        eh.stats().splits,
        eh.stats().doublings
    );

    // Now Shortcut-EH: the same structural events, replayed asynchronously
    // into the page table by the mapper thread.
    let mut sceh = ShortcutIndex::builder().build()?;
    for k in 0..200_000u64 {
        sceh.insert(k, k)?;
    }
    let (tv_before, sv_before) = sceh.stats().versions;
    println!(
        "Shortcut-EH right after the insert storm: traditional v{tv_before}, shortcut v{sv_before} ({}✓)",
        if tv_before == sv_before { "in sync " } else { "catching up " }
    );
    sceh.wait_sync(Duration::from_secs(30));
    let s = sceh.stats();
    let ((tv, sv), m) = (s.versions, s.maint);
    println!("after the mapper caught up: traditional v{tv}, shortcut v{sv}");
    println!(
        "mapper work: {} rebuilds (directory doublings), {} slot remaps, {} superseded updates discarded",
        m.creates_applied, m.updates_applied, m.updates_discarded
    );
    println!(
        "rebuild efficiency: {} slots rewired with {} mmap calls (coalescing contiguous runs)",
        m.slots_rewired, m.create_mmap_calls
    );

    // Every key still answers, through whichever directory routing picks.
    for k in (0..200_000u64).step_by(7919) {
        assert_eq!(sceh.get(k), Some(k));
    }
    let s = sceh.stats().index;
    println!(
        "verification lookups: {} via shortcut, {} via traditional",
        s.shortcut_lookups, s.traditional_lookups
    );
    Ok(())
}
