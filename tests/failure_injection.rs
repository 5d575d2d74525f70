//! Failure injection across crate boundaries: exhausted pools, bogus
//! maintenance requests, invalid rewirings — errors must surface cleanly
//! and never corrupt index answers.

use std::time::Duration;
use taking_the_shortcut::core::{
    MaintConfig, MaintRequest, Maintainer, MapperEngine, ShortcutNode,
};
use taking_the_shortcut::rewire::{Error, PageIdx, PagePool, PinStrategy, PoolConfig, VirtArea};

mod common;

#[test]
fn pool_exhaustion_is_an_error_not_a_crash() {
    let mut pool = PagePool::new(PoolConfig {
        initial_pages: 2,
        min_growth_pages: 1,
        view_capacity_pages: 4,
        ..PoolConfig::default()
    })
    .unwrap();
    let mut held = Vec::new();
    loop {
        match pool.alloc_page() {
            Ok(p) => held.push(p),
            Err(Error::BadResize { current, .. }) => {
                assert_eq!(current, 4);
                break;
            }
            Err(e) => panic!("unexpected error {e}"),
        }
    }
    assert_eq!(held.len(), 4);
    // An exhausted pool stays exhausted: no page is handed out twice.
    assert!(matches!(pool.alloc_page(), Err(Error::BadResize { .. })));
    assert!(matches!(
        pool.alloc_page_at(held[0].0),
        Err(Error::BadResize { .. })
    ));
}

#[test]
fn rewiring_beyond_the_file_is_rejected_up_front() {
    let pool = PagePool::new(PoolConfig {
        initial_pages: 2,
        view_capacity_pages: 8,
        ..PoolConfig::default()
    })
    .unwrap();
    let handle = pool.handle();
    let mut area = VirtArea::reserve(1).unwrap();
    // Offset far past EOF: must fail as InvalidArg, not SIGBUS later.
    let err = area.rewire(0, &handle, PageIdx(1000)).unwrap_err();
    assert!(matches!(err, Error::InvalidArg { .. }), "{err}");
}

#[test]
fn mapper_surfaces_bad_requests_as_errors() {
    let pool = PagePool::new(PoolConfig {
        initial_pages: 2,
        view_capacity_pages: 8,
        ..PoolConfig::default()
    })
    .unwrap();
    let maint = Maintainer::spawn(
        pool.handle(),
        MaintConfig {
            poll_interval: Duration::from_millis(1),
            ..MaintConfig::default()
        },
    );
    // Create referencing a pool page that does not exist.
    maint.inbox_lock().relay([MaintRequest::Create {
        slots: 2,
        assignments: vec![(0, PageIdx(0)), (1, PageIdx(12345))],
    }]);
    // The mapper must record the failure (and stop), never publish sync.
    common::wait_until("the mapper records the failure", || maint.error().is_some());
    let err = maint.error().expect("just seen");
    assert!(matches!(err, Error::InvalidArg { .. }), "{err}");
    assert!(!maint.state().in_sync());
}

#[test]
fn shortcut_node_bounds_are_enforced() {
    let mut pool = PagePool::new(PoolConfig {
        initial_pages: 2,
        view_capacity_pages: 8,
        ..PoolConfig::default()
    })
    .unwrap();
    let handle = pool.handle();
    let leaf = pool.alloc_page().unwrap();
    let mut node = ShortcutNode::new(2).unwrap();
    assert!(node.set_slot(2, &handle, leaf).is_err());
    assert!(node.set_run(1, &handle, leaf, 2).is_err());
    assert!(node.clear_slot(5).is_err());
    // In-bounds still works after the failed attempts.
    node.set_slot(1, &handle, leaf).unwrap();
    assert_eq!(node.slot_mapping(1), Some(leaf));
}

#[test]
fn double_free_and_foreign_pointer_detection() {
    let mut pool = PagePool::new(PoolConfig {
        initial_pages: 2,
        view_capacity_pages: 8,
        ..PoolConfig::default()
    })
    .unwrap();
    // A page is handed out once: asking for it again gets another.
    let p = pool.alloc_page().unwrap();
    assert_ne!(pool.alloc_page_at(p.0).unwrap(), p);
    // A pointer that is not inside the pool view is rejected.
    let foreign = Box::new(0u8);
    assert!(pool.page_of_ptr(&*foreign as *const u8).is_err());
}

#[test]
fn reclamation_never_unmaps_under_a_stale_read_ticket() {
    // A reader obtains a seqlock ticket, is "preempted" mid-read, and a
    // directory rebuild retires the area its ticket points into. As long
    // as the reader's pin is outstanding, reclamation must leave the
    // retired area mapped (the stale read completes, then gets discarded
    // by ticket validation); once the pin drops, the area is reclaimed.
    use std::sync::Arc;
    use taking_the_shortcut::core::{MaintMetrics, SharedDirectoryState};

    let mut pool = PagePool::new(PoolConfig {
        initial_pages: 8,
        view_capacity_pages: 64,
        ..PoolConfig::default()
    })
    .unwrap();
    let handle = pool.handle();
    let state = Arc::new(SharedDirectoryState::new());
    let metrics = Arc::new(MaintMetrics::default());
    let mut engine = MapperEngine::new(
        handle.clone(),
        Arc::clone(&state),
        metrics,
        MaintConfig::default(),
    );
    let l0 = pool.alloc_page().unwrap();
    let l1 = pool.alloc_page().unwrap();
    unsafe {
        *(pool.page_ptr(l0) as *mut u64) = 0xDEAD_0001;
    }

    engine.inbox_lock().relay([MaintRequest::Create {
        slots: 1,
        assignments: vec![(0, l0)],
    }]);
    engine.pass().unwrap();

    // Reader pins and takes its ticket, then stalls before dereferencing.
    let pin = handle.retire_list().pin();
    let ticket = state.begin_read().expect("in sync");

    // A rebuild retires the 1-slot directory under the stalled reader.
    engine.inbox_lock().relay([MaintRequest::Create {
        slots: 2,
        assignments: vec![(0, l0), (1, l1)],
    }]);
    engine.pass().unwrap();
    assert_eq!(handle.retire_list().retired_count(), 1);

    // Reclamation runs while the stale ticket is outstanding: it must not
    // unmap the area the ticket points into.
    assert_eq!(engine.reclaim_tick().unwrap(), 0);
    assert_eq!(handle.retire_list().retired_count(), 1);

    // The stalled reader resumes: the load must succeed (stale but
    // mapped), and validation must discard the result.
    let stale = unsafe { *(ticket.base as *const u64) };
    assert_eq!(stale, 0xDEAD_0001);
    assert!(!state.still_valid(ticket), "raced read must be discarded");
    drop(pin);

    // With the reader drained, the next tick reclaims the retired area.
    assert_eq!(engine.reclaim_tick().unwrap(), 1);
    assert_eq!(handle.retire_list().retired_count(), 0);
    assert_eq!(handle.vma_snapshot().areas_reclaimed, 1);
}

#[test]
fn stale_ticket_protection_is_identical_under_forced_dekker_fallback() {
    // The ENOSYS/unsupported-kernel path: a pool configured with the
    // Dekker fallback (what auto-detection degrades to when membarrier
    // registration fails) must give stale read tickets exactly the
    // protection the asymmetric strategy gives them — same deferral under
    // a pin, same reclaim once drained.
    use std::sync::Arc;
    use taking_the_shortcut::core::{MaintMetrics, SharedDirectoryState};

    let mut pool = PagePool::new(PoolConfig {
        initial_pages: 8,
        view_capacity_pages: 64,
        pin_strategy: Some(PinStrategy::Dekker),
        ..PoolConfig::default()
    })
    .unwrap();
    let handle = pool.handle();
    assert_eq!(handle.retire_list().pin_strategy(), PinStrategy::Dekker);
    let state = Arc::new(SharedDirectoryState::new());
    let metrics = Arc::new(MaintMetrics::default());
    let mut engine = MapperEngine::new(
        handle.clone(),
        Arc::clone(&state),
        metrics,
        MaintConfig::default(),
    );
    let l0 = pool.alloc_page().unwrap();
    let l1 = pool.alloc_page().unwrap();
    unsafe {
        *(pool.page_ptr(l0) as *mut u64) = 0xDEAD_0002;
    }

    engine.inbox_lock().relay([MaintRequest::Create {
        slots: 1,
        assignments: vec![(0, l0)],
    }]);
    engine.pass().unwrap();

    let pin = handle.retire_list().pin();
    let ticket = state.begin_read().expect("in sync");

    engine.inbox_lock().relay([MaintRequest::Create {
        slots: 2,
        assignments: vec![(0, l0), (1, l1)],
    }]);
    engine.pass().unwrap();
    assert_eq!(handle.retire_list().retired_count(), 1);

    // Identical PR 3 semantics: no unmap under the outstanding pin...
    assert_eq!(engine.reclaim_tick().unwrap(), 0);
    assert_eq!(handle.retire_list().retired_count(), 1);
    let stale = unsafe { *(ticket.base as *const u64) };
    assert_eq!(stale, 0xDEAD_0002);
    assert!(!state.still_valid(ticket), "raced read must be discarded");
    drop(pin);

    // ...and reclamation on the next tick once the reader drained.
    assert_eq!(engine.reclaim_tick().unwrap(), 1);
    assert_eq!(handle.retire_list().retired_count(), 0);
    assert_eq!(handle.vma_snapshot().areas_reclaimed, 1);
}

#[test]
fn index_survives_pathological_key_patterns() {
    use taking_the_shortcut::exhash::{Index, ShortcutEh};
    let mut index = ShortcutEh::with_defaults().unwrap();
    // Keys crafted to collide in the *bucket* hash (same low bits), plus
    // keys dense in the directory hash's top bits. (Start at 1: for i = 0
    // the two patterns would be the same key.)
    for i in 1..5_000u64 {
        index.insert(i << 32, i).unwrap();
        index.insert(i, !i).unwrap();
    }
    for i in 1..5_000u64 {
        assert_eq!(index.get(i << 32), Some(i));
        assert_eq!(index.get(i), Some(!i));
    }
    assert!(index.maint_error().is_none());
}

#[test]
fn facade_surfaces_pool_exhaustion_as_typed_error() {
    use taking_the_shortcut::{Index, IndexError, PoolConfig, ShortcutIndex};
    // A pool whose fixed reservation holds only 8 bucket pages: the
    // facade must hand back IndexError::Pool once splitting outgrows it —
    // no panic — and keep the applied prefix readable.
    let mut index = ShortcutIndex::builder()
        .pool(PoolConfig {
            initial_pages: 1,
            min_growth_pages: 1,
            view_capacity_pages: 8,
            ..PoolConfig::default()
        })
        .build()
        .unwrap();
    let mut applied = 0u64;
    let err = loop {
        match index.insert(applied, applied * 3) {
            Ok(()) => applied += 1,
            Err(e) => break e,
        }
        assert!(applied < 100_000, "exhaustion never surfaced");
    };
    assert!(matches!(err, IndexError::Pool(_)), "{err}");
    assert!(applied > 0);
    for k in 0..applied {
        assert_eq!(index.get(k), Some(k * 3), "entry {k} lost after error");
    }
    // A zero reservation is rejected at build time, typed as well.
    assert!(matches!(
        ShortcutIndex::builder()
            .pool(PoolConfig {
                view_capacity_pages: 0,
                ..PoolConfig::default()
            })
            .build(),
        Err(IndexError::Pool(_))
    ));
}

/// A batched insert that fails leaves exactly the batch prefix before the
/// failing entry applied — in batch order, across shards — which is the
/// contract of `Index::insert_batch`. Four shards with tiny pools are
/// driven by batches of fresh keys, spread over every shard, until
/// several batches have failed; each failure is checked for the prefix:
/// the entries before the first missing one read back, none after it
/// does. An index that applies a batch shard by shard fails this whenever
/// the failing shard is not the highest one the window touches. Run once
/// more with windows that open with updates — eight keys the batch knows
/// present get new values, stored beside the readers with nothing
/// revoked — before the fresh keys: the updates are in the prefix.
#[test]
fn a_failing_batch_insert_leaves_exactly_its_prefix() {
    use taking_the_shortcut::{Index, IndexError, ShortcutIndex};
    for (shared, updates) in [(false, 0), (true, 0), (false, 8), (true, 8)] {
        let mut index = ShortcutIndex::builder()
            .shards(2)
            .pool(PoolConfig {
                initial_pages: 1,
                min_growth_pages: 1,
                view_capacity_pages: 8,
                ..PoolConfig::default()
            })
            .build()
            .unwrap();
        let (mut next, mut failures) = (0u64, 0);
        let mut present: Vec<u64> = Vec::new();
        while failures < 8 {
            assert!(
                next < 1 << 20,
                "exhaustion never surfaced (shared: {shared})"
            );
            // Values no earlier batch wrote.
            let rewrites = present.iter().rev().take(updates);
            let fresh = (next..next + 32)
                .map(|i| i.wrapping_mul(0x2545_F491_4F6C_DD1D))
                .map(|k| (k, k ^ 0x5A5A));
            let batch: Vec<(u64, u64)> = rewrites
                .map(|&k| (k, k ^ next << 32))
                .chain(fresh)
                .collect();
            let opening = batch.len() - 32;
            next += 32;
            let result = if shared {
                index.insert_batch_shared(&batch)
            } else {
                index.insert_batch(&batch)
            };
            let applied: Vec<bool> = batch
                .iter()
                .map(|&(k, v)| index.get(k) == Some(v))
                .collect();
            let fresh_applied = batch[opening..].iter().zip(&applied[opening..]);
            present.extend(fresh_applied.filter(|(_, &a)| a).map(|(&(k, _), _)| k));
            let Err(e) = result else {
                assert!(applied.iter().all(|&a| a), "an applied batch lost entries");
                continue;
            };
            assert!(matches!(e, IndexError::Pool(_)), "{e}");
            assert_eq!(
                opening, updates,
                "the failing window opens with the updates"
            );
            let failed = applied
                .iter()
                .position(|&a| !a)
                .expect("a failed batch applied all");
            assert!(
                failed >= opening,
                "update #{failed} not applied: {applied:?}"
            );
            assert!(
                applied[failed..].iter().all(|&a| !a),
                "entries after the failing #{failed} applied (shared: {shared}): {applied:?}"
            );
            for &(k, v) in &batch[..failed] {
                assert_eq!(index.get(k), Some(v), "prefix entry {k} lost");
            }
            for &(k, _) in &batch[failed..] {
                assert_eq!(index.get(k), None, "entry {k} after the failure");
            }
            failures += 1;
        }
        assert!(index.maint_error().is_none());
    }
}
