//! Exhaustive model check of the ticket form of the serving word
//! ([`shortcut_core::SharedDirectoryState::begin_read`] /
//! [`shortcut_core::SharedDirectoryState::still_valid`]): what a reader
//! *outside* a read section gets, racing a writer.
//!
//! Run with `cargo test -p shortcut-core --features loomish`.
//!
//! The scenario: a writer performs one full split/relocate cycle — bump
//! the traditional version (clearing the word), rewrite the bucket,
//! publish the shortcut version and serve it — while a reader takes a
//! ticket, reads, and re-checks. The bucket is modeled as two words whose
//! invariant ties them to the version that published them (`data0 ==
//! version`, `data1 == 100 + data0`): a reader whose ticket validates must
//! never have observed a torn pair (a mix of pre- and post-rewrite words)
//! or a pair from a different version than its ticket.
//!
//! The bucket words are loomish atomics written with `Release` and read
//! with `Relaxed`. The release attachment on the writer side stands in
//! for what the real code gets from hardware: plain bucket stores cannot
//! be hoisted above the store that clears the word. The relaxed reads
//! model the reader's plain loads through the ticket base — which is
//! exactly why `still_valid`'s acquire fence is load-bearing: without it,
//! those loads are free to be satisfied "after" the re-check, which the
//! model expresses as the re-check reading a stale word.

#![cfg(feature = "loomish")]

use loomish::Builder;
use shortcut_core::{ReadTicket, SharedDirectoryState};
use shortcut_rewire::sync::{AtomicU64, Ordering};
use std::sync::Arc;

/// Never dereferenced: the model only checks publication/validation, so
/// any fixed non-null value aligned as `publish` demands works (and a
/// constant keeps replay deterministic, unlike a heap address).
const FAKE_BASE: *mut u8 = 64 as *mut u8;
/// A second directory, for the scenario that replaces one.
const OTHER_BASE: *mut u8 = 128 as *mut u8;

#[derive(Clone, Copy)]
enum WriterKind {
    Correct,
    /// Seeded bug: version published and served *before* the bucket
    /// rewrite.
    SeededPublishBeforeData,
}

#[derive(Clone, Copy)]
enum ReaderKind {
    Correct,
    /// Seeded bug: validation without the acquire fence.
    SeededUnfenced,
}

/// Seeded bug: `still_valid` without its acquire fence — the same word
/// re-loaded and compared. The data loads are free to be satisfied after
/// the re-check, so a torn bucket read can pass validation.
fn still_valid_seeded_unfenced(state: &SharedDirectoryState, t: ReadTicket) -> bool {
    state
        .begin_read()
        .is_some_and(|now| (now.base, now.slots) == (t.base, t.slots))
}

/// A bump by the thread that also refreshes: the scenarios here have one
/// writer, which plays the mapper too, and readers that do neither.
fn bump(state: &SharedDirectoryState) -> u64 {
    // SAFETY: no refresh runs beside it (the writer is the one thread
    // that refreshes).
    unsafe { state.bump_traditional() }
}

/// What the mapper does once a version's directory is in place.
fn publish_and_serve(state: &SharedDirectoryState, base: *mut u8, slots: usize, version: u64) {
    state.publish(base, slots, version);
    state.refresh_serving();
}

fn scenario(wk: WriterKind, rk: ReaderKind) -> impl Fn() + Send + Sync + 'static {
    move || {
        let state = Arc::new(SharedDirectoryState::new());
        // One bucket, two words. Invariant: data0 holds the version of
        // the rewrite that produced it, data1 = 100 + data0.
        let data0 = Arc::new(AtomicU64::new(0));
        let data1 = Arc::new(AtomicU64::new(0));

        // Quiescent setup: version 1 served, bucket consistent. The slot
        // count doubles as the version so the reader can check its
        // (public) ticket fields against the data it read.
        let v1 = bump(&state);
        data0.store(v1, Ordering::Release);
        data1.store(100 + v1, Ordering::Release);
        publish_and_serve(&state, FAKE_BASE, v1 as usize, v1);

        let writer = {
            let state = Arc::clone(&state);
            let data0 = Arc::clone(&data0);
            let data1 = Arc::clone(&data1);
            shortcut_rewire::sync::thread::spawn(move || {
                let v2 = bump(&state);
                match wk {
                    WriterKind::Correct => {
                        data0.store(v2, Ordering::Release);
                        data1.store(100 + v2, Ordering::Release);
                        publish_and_serve(&state, FAKE_BASE, v2 as usize, v2);
                    }
                    WriterKind::SeededPublishBeforeData => {
                        publish_and_serve(&state, FAKE_BASE, v2 as usize, v2);
                        data0.store(v2, Ordering::Release);
                        data1.store(100 + v2, Ordering::Release);
                    }
                }
            })
        };

        let reader = {
            let state = Arc::clone(&state);
            let data0 = Arc::clone(&data0);
            let data1 = Arc::clone(&data1);
            shortcut_rewire::sync::thread::spawn(move || {
                if let Some(t) = state.begin_read() {
                    let a = data0.load(Ordering::Relaxed);
                    let b = data1.load(Ordering::Relaxed);
                    let valid = match rk {
                        ReaderKind::Correct => state.still_valid(t),
                        ReaderKind::SeededUnfenced => still_valid_seeded_unfenced(&state, t),
                    };
                    if valid {
                        assert_eq!(
                            a, t.slots as u64,
                            "validated read saw a bucket from a different version"
                        );
                        assert_eq!(b, 100 + a, "validated read saw a torn bucket");
                    }
                }
            })
        };

        writer.join().unwrap();
        reader.join().unwrap();
    }
}

fn builder() -> Builder {
    Builder::new()
        .ordering_sensitive(true)
        .preemption_bound(Some(3))
}

#[test]
fn seqlock_never_validates_a_torn_read() {
    let report = builder()
        .check(scenario(WriterKind::Correct, ReaderKind::Correct))
        .unwrap_or_else(|cx| panic!("seqlock counterexample: {cx}"));
    println!(
        "seqlock: {} interleavings explored, invariant held",
        report.executions
    );
    assert!(
        report.executions > 500,
        "suspiciously small exploration: {}",
        report.executions
    );
}

/// Teeth check: dropping the acquire fence from `still_valid` admits an
/// execution where the reader consumes a post-rewrite word yet the re-check
/// reads the stale (pre-bump) serving word.
#[test]
fn seeded_unfenced_validation_is_caught() {
    let err = builder()
        .check(scenario(WriterKind::Correct, ReaderKind::SeededUnfenced))
        .expect_err("unfenced validation not caught — the model checker has lost its teeth");
    assert!(
        err.message.contains("torn bucket") || err.message.contains("different version"),
        "unexpected counterexample: {err}"
    );
}

/// Teeth check: serving the version before the bucket rewrite is an
/// algorithmic-order bug — a reader can validate a new-version ticket
/// against the old bucket. Caught even under plain SC interleavings.
#[test]
fn seeded_publish_before_data_is_caught() {
    let err = builder()
        .check(scenario(
            WriterKind::SeededPublishBeforeData,
            ReaderKind::Correct,
        ))
        .expect_err("early publish not caught — the model checker has lost its teeth");
    assert!(
        err.message.contains("different version") || err.message.contains("torn bucket"),
        "unexpected counterexample: {err}"
    );
}

/// A ticket's base and depth are one directory's, before any validation:
/// the mapper replaces a 4-slot directory by a 32-slot one at another
/// address while a reader takes a ticket. Pairing the old base with the new
/// depth (two loads of two words did) indexes past the old area, and
/// `still_valid` only discards the result after the access.
#[test]
fn a_ticket_never_pairs_one_directory_with_anothers_depth() {
    let report = builder()
        .check(|| {
            let state = Arc::new(SharedDirectoryState::new());
            let v1 = bump(&state);
            publish_and_serve(&state, FAKE_BASE, 1 << 2, v1);
            let mapper = {
                let state = Arc::clone(&state);
                shortcut_rewire::sync::thread::spawn(move || {
                    let v2 = bump(&state);
                    publish_and_serve(&state, OTHER_BASE, 1 << 5, v2);
                })
            };
            if let Some(t) = state.begin_read() {
                assert!(
                    (t.base, t.slots) == (FAKE_BASE, 1 << 2)
                        || (t.base, t.slots) == (OTHER_BASE, 1 << 5),
                    "torn ticket: base {:?} with {} slots",
                    t.base,
                    t.slots
                );
            }
            mapper.join().unwrap();
        })
        .unwrap_or_else(|cx| panic!("torn ticket: {cx}"));
    println!("ticket: {} interleavings explored", report.executions);
}

/// The same protocol under sequentially-consistent-per-location
/// semantics: cheaper pass covering the algorithmic order independent of
/// memory-ordering subtleties.
#[test]
fn seqlock_holds_under_sc_interleavings() {
    let report = Builder::new()
        .preemption_bound(Some(3))
        .check(scenario(WriterKind::Correct, ReaderKind::Correct))
        .unwrap_or_else(|cx| panic!("seqlock SC counterexample: {cx}"));
    println!("seqlock (SC mode): {} interleavings", report.executions);
}
