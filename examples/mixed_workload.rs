//! A live view of Figure 8's dynamics: fire waves of inserts at a loaded
//! [`ShortcutIndex`] and watch the shortcut directory fall out of sync and
//! catch up, wave after wave.
//!
//! ```bash
//! cargo run --release --example mixed_workload
//! # scale and policy knobs (CI stress uses 4M + compaction + assert):
//! MIXED_WORKLOAD_ENTRIES=4000000 MIXED_WORKLOAD_ASSERT_SHORTCUT=1 \
//!     cargo run --release --example mixed_workload
//! MIXED_WORKLOAD_COMPACTION=off cargo run --release --example mixed_workload
//! # physical slot size: 2^k base pages per bucket (k = 0..9)
//! MIXED_WORKLOAD_SLOT_PAGES=4 cargo run --release --example mixed_workload
//! # assert the exit live-VMA count stays under a bound (CI slot-size leg)
//! MIXED_WORKLOAD_MAX_LIVE_VMAS=2000 cargo run --release --example mixed_workload
//! # shard the index (power-of-two count; bulk load becomes one writer
//! # thread per shard through the shared-write API)
//! MIXED_WORKLOAD_SHARDS=4 cargo run --release --example mixed_workload
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};
use taking_the_shortcut::{CompactionPolicy, Index, IndexError, ShortcutIndex};

fn main() -> Result<(), IndexError> {
    let entries: u64 = std::env::var("MIXED_WORKLOAD_ENTRIES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2_000_000);
    // Directory-order compaction is on by default: it is what keeps the
    // directory's mapping footprint inside the stock vm.max_map_count
    // budget at millions of keys. `off` restores the PR 3 behavior
    // (worst-case admission; large directories suspend the shortcut).
    let compaction = match std::env::var("MIXED_WORKLOAD_COMPACTION").as_deref() {
        Ok("off") => CompactionPolicy::disabled(),
        _ => CompactionPolicy::on(),
    };
    let assert_shortcut = std::env::var("MIXED_WORKLOAD_ASSERT_SHORTCUT").as_deref() == Ok("1");
    let slot_pages: u32 = std::env::var("MIXED_WORKLOAD_SLOT_PAGES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let max_live_vmas: Option<u64> = std::env::var("MIXED_WORKLOAD_MAX_LIVE_VMAS")
        .ok()
        .and_then(|s| s.parse().ok());
    let shards: usize = std::env::var("MIXED_WORKLOAD_SHARDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    assert!(
        shards.is_power_of_two(),
        "MIXED_WORKLOAD_SHARDS must be a power of two, got {shards}"
    );

    let mut index = ShortcutIndex::builder()
        .capacity(entries as usize + entries as usize / 10)
        .compaction(compaction)
        .slot_pages(slot_pages)
        .shards(shards.trailing_zeros())
        .build()?;
    let mut rng = StdRng::seed_from_u64(99);

    {
        let s = index.stats();
        println!(
            "bulk-loading {entries} entries (compaction {}, slot 2^{slot_pages} pages = {} KB, \
             bucket capacity {}, {} shard{})…",
            if compaction.enabled() { "on" } else { "off" },
            s.slot_bytes / 1024,
            s.bucket_capacity,
            shards,
            if shards == 1 { "" } else { "s" }
        );
    }
    let mut keys: Vec<u64> = (0..entries).map(|_| rng.random()).collect();
    if shards > 1 {
        // True multi-writer bulk load: partition the keys by owning shard
        // and run one writer thread per shard through the shared-write
        // API — writers on different shards never contend.
        let mut per_shard: Vec<Vec<u64>> = vec![Vec::new(); index.shard_count()];
        for &k in &keys {
            per_shard[index.shard_of(k)].push(k);
        }
        std::thread::scope(|scope| {
            for part in &per_shard {
                let index = &index;
                scope.spawn(move || {
                    for chunk in part.chunks(4096) {
                        let batch: Vec<(u64, u64)> = chunk.iter().map(|&k| (k, k)).collect();
                        index.insert_batch_shared(&batch).unwrap();
                    }
                });
            }
        });
    } else {
        for &k in &keys {
            index.insert(k, k)?;
        }
    }
    let mut synced = index.wait_sync(Duration::from_secs(120));
    if !synced && !index.stats().shortcut_suspended {
        // A transient suspension resolved between wait_sync giving up and
        // the check above (deferred rebuild applied); settle it.
        synced = index.wait_sync(Duration::from_secs(10));
    }
    if index.stats().shortcut_suspended {
        println!(
            "bulk load done; directory exceeds the VMA budget — shortcut \
             suspended, serving traditionally ({:?})\n",
            index.stats().vma
        );
    } else {
        assert!(
            synced,
            "initial sync failed (mapper error: {:?})",
            index.maint_error()
        );
        println!(
            "bulk load done, shortcut in sync: {:?}\n",
            index.stats().versions
        );
    }

    for wave in 1..=4 {
        // Insert burst: 1% of a 400k-access wave, as one batch.
        let burst: Vec<(u64, u64)> = (0..4_000)
            .map(|_| {
                let k: u64 = rng.random();
                (k, k)
            })
            .collect();
        index.insert_batch(&burst)?;
        keys.extend(burst.iter().map(|(k, _)| *k));
        let (tv, sv) = index.stats().versions;
        println!(
            "wave {wave}: insert burst done — versions t={tv} s={sv} ({})",
            if tv == sv { "in sync" } else { "OUT OF SYNC" }
        );

        // Lookup phase, reporting sync status + latency in slices.
        let slices = 8;
        let per_slice = 49_500;
        for slice in 0..slices {
            let t0 = Instant::now();
            for _ in 0..per_slice {
                let k = keys[rng.random_range(0..keys.len())];
                assert!(index.get(k).is_some());
            }
            let (tv, sv) = index.stats().versions;
            let ns = t0.elapsed().as_nanos() as f64 / per_slice as f64;
            println!(
                "  slice {slice}: {ns:6.0} ns/lookup   versions t={tv} s={sv} {}",
                if tv == sv {
                    "✓ shortcut"
                } else if index.stats().shortcut_suspended {
                    "… traditional (VMA budget)"
                } else {
                    "… traditional (catching up)"
                }
            );
        }
        println!();
    }

    let s = index.stats();
    // The exit report is the snapshot's stable rendering (shared with the
    // server's INFO reply and the `all` driver), plus the layout estimates
    // the snapshot does not carry.
    print!("{s}");
    println!(
        "compaction_layout: planned={} ideal={}",
        index.layout_vmas()?,
        index.ideal_layout_vmas(),
    );
    // Parseable for the CI slot-size comparison leg.
    println!("final live VMAs: {}", s.vma.live_vmas());
    assert!(index.maint_error().is_none());
    assert!(
        s.vma.in_use <= s.vma.limit,
        "VMA estimate exceeds the budget: {:?}",
        s.vma
    );
    if let Some(bound) = max_live_vmas {
        assert!(
            s.vma.live_vmas() <= bound,
            "live VMAs {} exceed the asserted bound {bound} (slot 2^{slot_pages} pages)",
            s.vma.live_vmas()
        );
        println!("assert: live VMAs {} <= {bound} ✓", s.vma.live_vmas());
    }
    if assert_shortcut {
        // The CI stress contract: with compaction on, this scale must end
        // fully shortcut-served under the stock vm.max_map_count.
        assert!(
            !s.shortcut_suspended,
            "shortcut suspended at exit: vma={:?} maint={:?}",
            s.vma, s.maint
        );
        let final_sync = index.wait_sync(Duration::from_secs(60));
        assert!(
            final_sync,
            "shortcut never converged: {:?}",
            index.stats().versions
        );
        // Per shard, not just in aggregate: every shard must end
        // shortcut-served (the sharded CI leg's contract).
        for i in 0..index.shard_count() {
            index.with_shard(i, |s| {
                assert!(!s.shortcut_suspended(), "shard {i} suspended at exit");
                assert!(s.in_sync(), "shard {i} not in sync at exit");
            });
        }
        println!(
            "assert: shortcut serving on all {} shard(s) at exit ✓",
            index.shard_count()
        );
    }
    Ok(())
}
