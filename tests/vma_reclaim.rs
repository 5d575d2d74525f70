//! Lifecycle of retired shortcut directories: after repeated directory
//! doublings the mapping count must plateau (retired areas reclaimed once
//! readers drain) instead of growing monotonically as in the seed, and a
//! small injected VMA budget must suspend the shortcut gracefully instead
//! of leaking mappings until `vm.max_map_count` kills the process.

use std::time::Duration;
use taking_the_shortcut::exhash::ShortcutEhConfig;
use taking_the_shortcut::{Index, PinStrategy, ShortcutIndex, StatsSnapshot, VmaBudget};

mod common;

/// An index over a private budget of `budget` mappings — `in_use`
/// assertions must not see the charges of other tests running beside it —
/// whose readers pin with `pin_strategy` (`None`: the probed default) and
/// whose mapper ticks every millisecond, reclaiming on each tick. The pool
/// is the one `IndexBuilder::capacity(300_000)` sizes.
fn index(budget: usize, pin_strategy: Option<PinStrategy>) -> ShortcutIndex {
    let mut cfg = ShortcutEhConfig::default();
    cfg.eh.pool.min_growth_pages = 1 << 12;
    cfg.eh.pool.view_capacity_pages = 1 << 14;
    cfg.eh.pool.vma_budget = Some(VmaBudget::with_limit(budget));
    cfg.eh.pool.pin_strategy = pin_strategy;
    cfg.maint.poll_interval = Duration::from_millis(1);
    ShortcutIndex::try_new(0, cfg).unwrap()
}

/// Insert `chunk`-sized batches until the index reports at least `target`
/// doublings, pacing with `wait_sync` so the mapper applies (rather than
/// supersedes) intermediate directories. Returns the number of entries.
fn grow_to_doublings(index: &mut ShortcutIndex, target: u64, chunk: u64) -> u64 {
    let mut k = 0u64;
    while index.stats().index.doublings < target {
        index
            .insert_batch(
                &(k..k + chunk)
                    .map(|x| (x, x.wrapping_mul(7)))
                    .collect::<Vec<_>>(),
            )
            .expect("insert failed");
        k += chunk;
        if !index.stats().shortcut_suspended {
            let _ = index.wait_sync(Duration::from_secs(30));
        }
        assert!(k < 10_000_000, "never reached {target} doublings");
    }
    k
}

/// Poll until no retired areas remain (the mapper reclaims on poll ticks).
fn drain_retired(index: &ShortcutIndex) -> StatsSnapshot {
    common::wait_until("retired directories are reclaimed", || {
        index.stats().vma.retired_areas == 0
    });
    index.stats()
}

#[test]
fn mapping_count_plateaus_after_doublings() {
    let mut index = index(1_000_000, None);

    // Small chunks: several early doublings land inside the first chunks
    // (and are superseded in one create), but from depth ~3 on each
    // doubling gets its own synced window and therefore its own
    // retire-and-reclaim cycle.
    let n = grow_to_doublings(&mut index, 8, 100);
    assert!(index.wait_sync(Duration::from_secs(60)), "never synced");

    // With no live readers, every retired directory must drain.
    let s = drain_retired(&index);
    assert!(s.index.doublings >= 8);
    assert_eq!(s.vma.retired_areas, 0, "retired areas leaked: {:?}", s.vma);
    assert!(s.vma.areas_retired >= 5, "{:?}", s.vma);
    assert_eq!(
        s.vma.areas_retired, s.vma.areas_reclaimed,
        "every retired directory must be reclaimed: {:?}",
        s.vma
    );

    // Plateau: the live mapping estimate is bounded by the current
    // directory (≤ one VMA per slot) plus small constants — NOT by the
    // sum of all directories ever built (≈ 2x slots), which is what the
    // seed's keep-forever policy accumulated.
    let dir_slots = 1u64 << s.global_depth;
    assert!(
        s.vma.in_use <= dir_slots + 16,
        "mapping count did not plateau: {} VMAs for a {}-slot directory",
        s.vma.in_use,
        dir_slots
    );

    // And lookups still answer correctly through whatever path routing picks.
    for k in (0..n).step_by(997) {
        assert_eq!(index.get(k), Some(k.wrapping_mul(7)), "key {k}");
    }
}

#[test]
fn forced_dekker_fallback_reclaims_exactly_like_the_default() {
    // The fallback half of the pin-strategy matrix, end to end through
    // the facade: a pool-forced Dekker index (what membarrier-less
    // kernels get) must show the same retire-and-reclaim lifecycle as the
    // auto-detected default — every retired directory reclaimed, mapping
    // count plateaued, lookups correct.
    let mut index = index(1_000_000, Some(PinStrategy::Dekker));
    assert_eq!(index.stats().pin_strategy, PinStrategy::Dekker);

    let n = grow_to_doublings(&mut index, 6, 100);
    assert!(index.wait_sync(Duration::from_secs(60)), "never synced");
    let s = drain_retired(&index);
    assert_eq!(s.vma.retired_areas, 0, "retired areas leaked: {:?}", s.vma);
    assert!(s.vma.areas_retired >= 3, "{:?}", s.vma);
    assert_eq!(
        s.vma.areas_retired, s.vma.areas_reclaimed,
        "every retired directory must be reclaimed: {:?}",
        s.vma
    );
    let dir_slots = 1u64 << s.global_depth;
    assert!(
        s.vma.in_use <= dir_slots + 16,
        "mapping count did not plateau under Dekker: {} VMAs for {} slots",
        s.vma.in_use,
        dir_slots
    );
    for k in (0..n).step_by(991) {
        assert_eq!(index.get(k), Some(k.wrapping_mul(7)), "key {k}");
    }
}

#[test]
fn tiny_budget_suspends_instead_of_dying() {
    // Simulate a kernel with a ~300-mapping budget (the stress CI job's
    // configuration): growth must continue past the point where the
    // directory stops fitting, with the shortcut suspended and the
    // mapping estimate bounded — the seed died in mmap(ENOMEM) here.
    let mut index = index(300, None);
    let n = grow_to_doublings(&mut index, 10, 2_000);

    assert!(index.stats().shortcut_suspended, "budget never suspended");
    assert!(index.maint_error().is_none(), "{:?}", index.maint_error());
    let s = drain_retired(&index);
    assert!(s.maint.creates_skipped > 0);
    assert!(s.vma.in_use <= s.vma.limit, "budget exceeded: {:?}", s.vma);
    assert_eq!(s.vma.retired_areas, 0, "retired areas leaked: {:?}", s.vma);

    // Every answer still correct via the traditional directory.
    for k in (0..n).step_by(991) {
        assert_eq!(index.get(k), Some(k.wrapping_mul(7)), "key {k}");
    }
    let keys: Vec<u64> = (0..1_000).collect();
    let got = index.get_many(&keys);
    for (i, k) in keys.iter().enumerate() {
        assert_eq!(got[i], Some(k.wrapping_mul(7)));
    }
}
