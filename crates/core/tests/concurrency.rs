//! True-concurrency stress tests of the maintenance protocol: a reader
//! thread hammers the published shortcut state through the seqlock ticket
//! while the writer splits/doubles continuously. The invariant: a reader
//! must never observe a value that the version protocol declared valid but
//! that contradicts the writer's history.

use shortcut_core::{MaintConfig, MaintRequest, Maintainer};
use shortcut_rewire::{PageIdx, PagePool, PoolConfig};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

#[test]
fn seqlock_readers_never_observe_torn_state() {
    // Leaf pages are stamped with (generation << 32 | leaf_id). The writer
    // repeatedly rebuilds the directory so that in generation g every slot
    // s maps to a leaf stamped with generation g. A validated read must
    // therefore observe a stamp whose generation matches the version the
    // ticket was issued for — never a mix.
    let mut pool = PagePool::new(PoolConfig {
        initial_pages: 64,
        view_capacity_pages: 1 << 14,
        ..PoolConfig::default()
    })
    .unwrap();
    let handle = pool.handle();

    let generations = 40u64;
    let slots = 32usize;
    // One run of pages per generation, stamped up front.
    let mut gen_runs = Vec::new();
    for g in 0..generations {
        let run = pool.alloc_run(slots).unwrap();
        for s in 0..slots {
            unsafe {
                *(pool.page_ptr(PageIdx(run.0 + s)) as *mut u64) = (g << 32) | s as u64;
            }
        }
        gen_runs.push(run);
    }

    let retire = std::sync::Arc::clone(handle.retire_list());
    let maint = Maintainer::spawn(
        handle,
        MaintConfig {
            poll_interval: Duration::from_micros(200),
            ..MaintConfig::default()
        },
    );
    let state = maint.state().clone();
    let stop = AtomicBool::new(false);
    let validated_reads = AtomicU64::new(0);
    let discarded_reads = AtomicU64::new(0);

    std::thread::scope(|scope| {
        // Reader thread.
        let reader_state = std::sync::Arc::clone(&state);
        let reader_retire = std::sync::Arc::clone(&retire);
        let (stop_r, val_r, disc_r) = (&stop, &validated_reads, &discarded_reads);
        scope.spawn(move || {
            let mut s = 0usize;
            while !stop_r.load(Ordering::Relaxed) {
                s = (s + 7) % slots;
                let _pin = reader_retire.pin();
                if let Some(ticket) = reader_state.begin_read() {
                    if ticket.slots != slots {
                        continue;
                    }
                    // SAFETY: retired areas stay mapped while our pin is
                    // held, so a racing rebuild leaves this readable.
                    let stamp = unsafe { *(ticket.base.add(s << 12) as *const u64) };
                    if reader_state.still_valid(ticket) {
                        // Validated: stamp must be internally consistent and
                        // its generation must correspond to the version.
                        let g = stamp >> 32;
                        let leaf = stamp & 0xffff_ffff;
                        assert_eq!(leaf as usize, s, "slot {s} read leaf {leaf}");
                        assert!(g < generations, "implausible generation {g}");
                        val_r.fetch_add(1, Ordering::Relaxed);
                    } else {
                        disc_r.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        });

        // Writer: one create per generation, as fast as the queue takes them.
        for g in 0..generations {
            let run = gen_runs[g as usize];
            let assignments: Vec<(usize, PageIdx)> =
                (0..slots).map(|s| (s, PageIdx(run.0 + s))).collect();
            maint
                .inbox_lock()
                .relay([MaintRequest::Create { slots, assignments }]);
            // Small pause so several generations actually publish.
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(maint.wait_sync(Duration::from_secs(10)));
        stop.store(true, Ordering::Relaxed);
    });

    assert!(maint.error().is_none());
    let val = validated_reads.load(Ordering::Relaxed);
    assert!(val > 0, "reader never completed a validated read");
    // The final state reflects the last generation.
    let _pin = retire.pin();
    let t = state.begin_read().expect("final state in sync");
    let stamp = unsafe { *(t.base as *const u64) };
    assert_eq!(stamp >> 32, generations - 1);
}

#[test]
fn updates_race_with_readers_without_tearing() {
    // Same idea but with in-place slot updates instead of rebuilds: slot 0
    // flips between two stamped leaves; a validated read must see one of
    // the two stamps, never anything else.
    let mut pool = PagePool::new(PoolConfig {
        initial_pages: 8,
        view_capacity_pages: 64,
        ..PoolConfig::default()
    })
    .unwrap();
    let handle = pool.handle();
    let a = pool.alloc_page().unwrap();
    let b = pool.alloc_page().unwrap();
    unsafe {
        *(pool.page_ptr(a) as *mut u64) = 0xAAAA_AAAA;
        *(pool.page_ptr(b) as *mut u64) = 0xBBBB_BBBB;
    }

    let retire = std::sync::Arc::clone(handle.retire_list());
    let maint = Maintainer::spawn(
        handle,
        MaintConfig {
            poll_interval: Duration::from_micros(100),
            ..MaintConfig::default()
        },
    );
    let state = maint.state().clone();
    maint.inbox_lock().relay([MaintRequest::Create {
        slots: 1,
        assignments: vec![(0, a)],
    }]);
    assert!(maint.wait_sync(Duration::from_secs(5)));

    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let reader_state = std::sync::Arc::clone(&state);
        let reader_retire = std::sync::Arc::clone(&retire);
        let stop_r = &stop;
        scope.spawn(move || {
            while !stop_r.load(Ordering::Relaxed) {
                let _pin = reader_retire.pin();
                if let Some(t) = reader_state.begin_read() {
                    // SAFETY: retired areas stay mapped under our pin.
                    let v = unsafe { *(t.base as *const u64) };
                    if reader_state.still_valid(t) {
                        assert!(
                            v == 0xAAAA_AAAA || v == 0xBBBB_BBBB,
                            "torn/invalid read {v:#x}"
                        );
                    }
                }
            }
        });

        for i in 0..400u64 {
            let target = if i % 2 == 0 { b } else { a };
            maint.inbox_lock().relay([MaintRequest::Update {
                slots: 0..1,
                ppage: target,
            }]);
            if i % 50 == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        assert!(maint.wait_sync(Duration::from_secs(10)));
        stop.store(true, Ordering::Relaxed);
    });
    assert!(maint.error().is_none());
}
