//! Exhaustive model check of the reply-slot rendezvous and the lane
//! hand-off ([`shortcut_server::batch`]).
//!
//! Run with `cargo test -p shortcut-server --features loomish`.
//!
//! Two scenarios:
//!
//! * **Reply slot** — a waiter blocks on a slot while another thread
//!   fills it, and a second filler races the first. No path fills a slot
//!   twice today; the second filler keeps
//!   [`ReplySlot::fill`]'s first-write-wins guard honest. Invariants: the
//!   waiter always wakes (no lost wakeup, and no notify skipped while it
//!   is parked — a violation surfaces as a model deadlock) and always
//!   takes exactly one of the two replies (no double-fulfill — the seeded
//!   variant panics).
//! * **Lane drain** — a producer pushes two ops and raises the stop flag;
//!   the consumer drains until the stop+empty exit. Invariants: the pushed
//!   ops are delivered exactly once, in push order, and every thread
//!   terminates.
//!
//! The lane scenario runs under the sequentially-consistent-per-location
//! model: its progress relies on the stop flag's store becoming visible
//! to the consumer's bounded-timeout retry loop, which real memory
//! systems guarantee in finite time but the ordering-sensitive model —
//! which never forces a stale load to converge — does not, so the
//! ordering-sensitive run would report a liveness artifact, not a bug.
//! The slot scenario carries no atomics (the mutex hand-off is exact in
//! both models), so it runs ordering-sensitive for uniformity with the
//! pin/reclaim and seqlock suites.

#![cfg(feature = "loomish")]

use loomish::Builder;
use shortcut_rewire::sync::{thread, AtomicBool, Ordering};
use shortcut_server::batch::{Lane, Op, ReplySlot};
use shortcut_server::protocol::Reply;
use std::sync::Arc;
use std::time::Duration;

#[derive(Clone, Copy)]
enum FillKind {
    Correct,
    /// The filler with the double-fill tolerance removed.
    SeededAssertEmpty,
    /// The filler reads the waiter flag apart from its store.
    SeededFlagReadApart,
}

#[derive(Clone, Copy)]
enum WaitKind {
    Correct,
    /// Waiter checks emptiness, drops the lock, then waits.
    SeededCheckThenWait,
}

/// A filler and a second filler race to fill while a third thread
/// waits. `second_filler` is off for the wakeup seeds so its fill cannot
/// mask the bug.
fn slot_scenario(
    fill: FillKind,
    wait: WaitKind,
    second_filler: bool,
) -> impl Fn() + Send + Sync + 'static {
    move || {
        let slot = ReplySlot::new();

        let filler = {
            let slot = Arc::clone(&slot);
            thread::spawn(move || match fill {
                FillKind::Correct => slot.fill(Reply::Simple("OK")),
                FillKind::SeededAssertEmpty => slot.fill_seeded_assert_empty(Reply::Simple("OK")),
                FillKind::SeededFlagReadApart => {
                    slot.fill_seeded_flag_read_apart(Reply::Simple("OK"))
                }
            })
        };
        let second = second_filler.then(|| {
            let slot = Arc::clone(&slot);
            thread::spawn(move || slot.fill(Reply::Error("ERR second".into())))
        });
        let waiter = {
            let slot = Arc::clone(&slot);
            thread::spawn(move || {
                let reply = match wait {
                    WaitKind::Correct => slot.wait(),
                    WaitKind::SeededCheckThenWait => slot.wait_seeded_check_then_wait(),
                };
                assert!(
                    reply == Reply::Simple("OK") || reply == Reply::Error("ERR second".into()),
                    "reply from nowhere: {reply:?}"
                );
            })
        };

        filler.join().unwrap();
        if let Some(h) = second {
            h.join().unwrap();
        }
        waiter.join().unwrap();
    }
}
#[test]
fn reply_slot_delivers_exactly_once() {
    let report = Builder::new()
        .ordering_sensitive(true)
        .preemption_bound(Some(3))
        .check(slot_scenario(FillKind::Correct, WaitKind::Correct, true))
        .unwrap_or_else(|cx| panic!("reply-slot counterexample: {cx}"));
    println!(
        "reply-slot: {} interleavings explored, invariant held",
        report.executions
    );
    assert!(
        report.executions > 50,
        "suspiciously small exploration: {}",
        report.executions
    );
}

/// Teeth check: removing `fill`'s first-write-wins guard panics when the
/// second fill lands first — the race between the two fillers must be found.
#[test]
fn seeded_double_fill_is_caught() {
    let err = Builder::new()
        .ordering_sensitive(true)
        .preemption_bound(Some(3))
        .check(slot_scenario(
            FillKind::SeededAssertEmpty,
            WaitKind::Correct,
            true,
        ))
        .expect_err("double fill not caught — the model checker has lost its teeth");
    assert!(
        err.message.contains("double fill"),
        "unexpected counterexample: {err}"
    );
}

/// Teeth check: checking the slot and then waiting without holding the
/// lock across the gap loses the fill's notification; the waiter blocks
/// forever and the model reports the deadlock.
#[test]
fn seeded_lost_wakeup_is_caught() {
    let err = Builder::new()
        .ordering_sensitive(true)
        .preemption_bound(Some(3))
        .check(slot_scenario(
            FillKind::Correct,
            WaitKind::SeededCheckThenWait,
            false,
        ))
        .expect_err("lost wakeup not caught — the model checker has lost its teeth");
    assert!(
        err.message.contains("deadlock"),
        "unexpected counterexample: {err}"
    );
}

/// Teeth check: a fill that reads the waiter flag in one critical section
/// and stores the reply in another skips the notify when the waiter
/// parks in between; it blocks forever and the model reports the
/// deadlock.
#[test]
fn seeded_skipped_notify_is_caught() {
    let err = Builder::new()
        .ordering_sensitive(true)
        .preemption_bound(Some(3))
        .check(slot_scenario(
            FillKind::SeededFlagReadApart,
            WaitKind::Correct,
            false,
        ))
        .expect_err("skipped notify not caught — the model checker has lost its teeth");
    assert!(
        err.message.contains("deadlock"),
        "unexpected counterexample: {err}"
    );
}

/// Lane hand-off: two pushed ops are drained exactly once, in push order,
/// and both threads terminate through the stop+empty exit. (SC model — see
/// module docs.)
#[test]
fn lane_drain_delivers_and_terminates() {
    let report = Builder::new()
        .preemption_bound(Some(3))
        .check(|| {
            let lane = Arc::new(Lane::new());
            let stop = Arc::new(AtomicBool::new(false));

            let pusher = {
                let lane = Arc::clone(&lane);
                let stop = Arc::clone(&stop);
                thread::spawn(move || {
                    for key in 1..=2 {
                        lane.push(Op::Read {
                            keys: vec![key],
                            single: true,
                            slot: ReplySlot::new(),
                        });
                    }
                    stop.store(true, Ordering::Release);
                })
            };
            let consumer = {
                let lane = Arc::clone(&lane);
                let stop = Arc::clone(&stop);
                thread::spawn(move || {
                    let mut delivered = Vec::new();
                    loop {
                        let ops = lane.drain(4, Duration::ZERO, &stop);
                        if ops.is_empty() {
                            return delivered; // stop + empty: the drain-then-exit contract
                        }
                        for op in ops {
                            match op {
                                Op::Read { keys, .. } => delivered.extend(keys),
                                _ => unreachable!(),
                            }
                        }
                    }
                })
            };

            pusher.join().unwrap();
            let delivered = consumer.join().unwrap();
            assert_eq!(delivered, [1, 2], "ops lost, duplicated or reordered");
        })
        .unwrap_or_else(|cx| panic!("lane counterexample: {cx}"));
    println!("lane drain: {} interleavings explored", report.executions);
}
