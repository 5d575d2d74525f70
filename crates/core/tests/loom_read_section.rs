//! Exhaustive model check of the composition a single-key lookup leans on:
//! the **shard read section** (`ReadBias` over the `RetireCore` pin
//! stripes, `tests/loom_shard_bias.rs` in `shortcut-rewire`) around the
//! **seqlock** of the read descriptor (`tests/loom_seqlock.rs`), with the
//! mapper publishing from outside every section.
//!
//! Run with `cargo test -p shortcut-core --features loomish`. (It sits here
//! and not beside `loom_shard_bias.rs` because `shortcut-rewire` cannot
//! depend on the descriptor's crate.)
//!
//! The scenario is `shortcut_exhash::shard::Shard` with its parts named. A
//! reader runs `Shard::get` twice: enter the section (`try_enter`, else the
//! lock and `note_locked_read` and a pin), take a ticket, read the bucket,
//! validate. A shared writer runs `Shard::write` once: lock, revoke the
//! bias, and inside the section split a bucket — bump the traditional
//! version, rewrite the bucket, queue the version for the mapper. The
//! mapper polls its queue twice and publishes what it finds. The bucket is
//! two words tied to the version that wrote them (`data0 == version`,
//! `data1 == 100 + data0`), and the published slot count doubles as the
//! version, as in the seqlock suite.
//!
//! Checked in every execution:
//!
//! * **a validated read is of its ticket's version, whole** — the
//!   seqlock's promise, now with the section's hand-off as the only thing
//!   ordering the writer's plain bucket stores against the reader;
//! * **no ticket taken inside a section is ever discarded** — the writer
//!   is excluded for as long as the reader is inside, and a mapper that
//!   published the version the ticket carries has nothing further to
//!   publish until a writer bumps again. `still_valid` stays in the lookup
//!   all the same (it is what makes a stale ticket harmless wherever one
//!   can arise: a bump made outside a section, as the seeded writer and
//!   the index's own test hooks do); this is the run a change that drops it
//!   for section-held reads would cite.
//!
//! Seeded bug, for the second invariant's teeth: a writer that bumps the
//! version *before* it enters its section. Readers still never validate a
//! foreign bucket (the seqlock catches every one), but tickets are
//! discarded inside sections.

#![cfg(feature = "loomish")]

use loomish::Builder;
use shortcut_core::SharedDirectoryState;
use shortcut_rewire::sync::{thread, AtomicU64, Mutex, Ordering};
use shortcut_rewire::{PinStrategy, ReadBias, Reclaimable, RetireCore};
use std::sync::atomic::{AtomicU64 as StdAtomicU64, Ordering as StdOrd};
use std::sync::Arc;

/// Never dereferenced (see `loom_seqlock.rs`).
const FAKE_BASE: *mut u8 = 64 as *mut u8;

/// Nothing is retired here; the core is used for its pin stripes only.
struct NoArea;

impl Reclaimable for NoArea {
    fn vma_estimate(&self) -> usize {
        0
    }
}

#[derive(Clone, Copy, PartialEq)]
enum WriterKind {
    Correct,
    SeededBumpOutsideSection,
}

/// What the executions of one exploration reached, summed outside the
/// model (written, never read, by model threads).
#[derive(Default)]
struct Coverage {
    biased_reads: StdAtomicU64,
    locked_reads: StdAtomicU64,
    validated: StdAtomicU64,
    validated_after_the_split: StdAtomicU64,
    out_of_sync: StdAtomicU64,
    discarded_inside: StdAtomicU64,
    splits: StdAtomicU64,
}

struct World {
    core: RetireCore<NoArea>,
    bias: ReadBias,
    lock: Mutex<()>,
    state: SharedDirectoryState,
    bucket: [AtomicU64; 2],
    /// The mapper's queue: the version of the split to publish, 0 if none.
    queued: AtomicU64,
}

impl World {
    /// The body of `ShortcutEh::get_pinned`, inside a read section. Returns
    /// what it saw wrong, if anything (returned, not asserted: see
    /// `loom_shard_bias.rs`).
    fn lookup(&self, seen: &Coverage) -> Option<&'static str> {
        let Some(t) = self.state.begin_read() else {
            seen.out_of_sync.fetch_add(1, StdOrd::Relaxed);
            return None;
        };
        let a = self.bucket[0].load(Ordering::Relaxed);
        let b = self.bucket[1].load(Ordering::Relaxed);
        if !self.state.still_valid(t) {
            seen.discarded_inside.fetch_add(1, StdOrd::Relaxed);
            return None;
        }
        seen.validated.fetch_add(1, StdOrd::Relaxed);
        if t.slots == 2 {
            seen.validated_after_the_split.fetch_add(1, StdOrd::Relaxed);
        }
        if a != t.slots as u64 {
            Some("validated read saw a bucket of another version")
        } else if b != 100 + a {
            Some("validated read saw a torn bucket")
        } else {
            None
        }
    }

    /// `Shard::get`.
    fn get(&self, seen: &Coverage) {
        let violation = if let Some(pin) = self.bias.try_enter(&self.core) {
            let violation = self.lookup(seen);
            drop(pin);
            seen.biased_reads.fetch_add(1, StdOrd::Relaxed);
            violation
        } else {
            let shared = self.lock.lock().unwrap();
            self.bias.note_locked_read();
            let pin = self.core.pin();
            let violation = self.lookup(seen);
            drop(pin);
            drop(shared);
            seen.locked_reads.fetch_add(1, StdOrd::Relaxed);
            violation
        };
        if let Some(what) = violation {
            panic!("{what}");
        }
    }

    /// `Shard::write` around one bucket split (giving up where production
    /// scans again, as in `loom_shard_bias.rs`).
    fn split(&self, kind: WriterKind, seen: &Coverage) {
        let early =
            (kind == WriterKind::SeededBumpOutsideSection).then(|| self.state.bump_traditional());
        let exclusive = self.lock.lock().unwrap();
        if self.bias.try_revoke(|| self.core.readers_quiesced()) {
            let v = early.unwrap_or_else(|| self.state.bump_traditional());
            self.bucket[0].store(v, Ordering::Relaxed);
            self.bucket[1].store(100 + v, Ordering::Relaxed);
            // `relay_events`, before the section ends.
            self.queued.store(v, Ordering::Release);
            seen.splits.fetch_add(1, StdOrd::Relaxed);
        }
        drop(exclusive);
    }

    /// One poll of the mapper: publish the queued version, if any.
    fn mapper_poll(&self) {
        let v = self.queued.swap(0, Ordering::AcqRel);
        if v != 0 {
            self.state.publish(FAKE_BASE, v as usize, v);
        }
    }
}

fn scenario(
    strategy: PinStrategy,
    writer: WriterKind,
    seen: Arc<Coverage>,
) -> impl Fn() + Send + Sync + 'static {
    move || {
        let world = Arc::new(World {
            core: RetireCore::with_strategy(strategy),
            bias: ReadBias::default(),
            lock: Mutex::new(()),
            state: SharedDirectoryState::new(),
            bucket: [AtomicU64::new(0), AtomicU64::new(0)],
            queued: AtomicU64::new(0),
        });
        // Quiescent setup: version 1 written and published.
        let v1 = world.state.bump_traditional();
        world.bucket[0].store(v1, Ordering::Release);
        world.bucket[1].store(100 + v1, Ordering::Release);
        world.state.publish(FAKE_BASE, v1 as usize, v1);

        // Model thread 1: an exclusive stripe (plain-store pin under
        // `Asymmetric`).
        let reader = {
            let (world, seen) = (Arc::clone(&world), Arc::clone(&seen));
            thread::spawn(move || {
                world.get(&seen);
                world.get(&seen);
            })
        };
        let writer_t = {
            let (world, seen) = (Arc::clone(&world), Arc::clone(&seen));
            thread::spawn(move || world.split(writer, &seen))
        };
        let mapper = {
            let world = Arc::clone(&world);
            thread::spawn(move || {
                world.mapper_poll();
                world.mapper_poll();
            })
        };
        reader.join().unwrap();
        writer_t.join().unwrap();
        mapper.join().unwrap();

        // Quiesced world: the mapper catches up, and a reader validates
        // whatever the last writer left. (The seeded writer may have
        // bumped and then given up: nothing to catch up with.)
        world.mapper_poll();
        let after = Coverage::default();
        world.get(&after);
        let synced = world.state.in_sync();
        assert!(synced || writer == WriterKind::SeededBumpOutsideSection);
        assert_eq!(after.validated.load(StdOrd::Relaxed), u64::from(synced));
    }
}

fn builder() -> Builder {
    Builder::new()
        .ordering_sensitive(true)
        .preemption_bound(Some(2))
}

fn holds_exhaustively(strategy: PinStrategy) {
    let seen = Arc::new(Coverage::default());
    let report = builder()
        .check(scenario(strategy, WriterKind::Correct, Arc::clone(&seen)))
        .unwrap_or_else(|cx| panic!("read section ({strategy}) counterexample: {cx}"));
    println!(
        "read section ({strategy}): {} interleavings explored, invariants held",
        report.executions
    );
    assert!(
        report.executions > 1_000,
        "suspiciously small exploration: {}",
        report.executions
    );
    for (what, count) in [
        ("biased reads", &seen.biased_reads),
        ("locked reads", &seen.locked_reads),
        ("validated reads", &seen.validated),
        (
            "validated reads of the split bucket",
            &seen.validated_after_the_split,
        ),
        (
            "reads that found the shortcut out of sync",
            &seen.out_of_sync,
        ),
        ("splits", &seen.splits),
    ] {
        assert!(
            count.load(StdOrd::Relaxed) > 0,
            "no execution reached: {what}"
        );
    }
    assert_eq!(
        seen.discarded_inside.load(StdOrd::Relaxed),
        0,
        "a ticket taken inside a read section was discarded"
    );
}

#[test]
fn read_section_holds_exhaustively_under_asymmetric_pins() {
    holds_exhaustively(PinStrategy::Asymmetric);
}

#[test]
fn read_section_holds_exhaustively_under_dekker_pins() {
    holds_exhaustively(PinStrategy::Dekker);
}

/// Teeth check for the zero above: bump outside the section and tickets
/// are discarded inside sections — while `still_valid` keeps every
/// validated read of its own version.
#[test]
fn seeded_bump_outside_the_section_discards_tickets_but_validates_none_wrongly() {
    for strategy in [PinStrategy::Asymmetric, PinStrategy::Dekker] {
        let seen = Arc::new(Coverage::default());
        builder()
            .check(scenario(
                strategy,
                WriterKind::SeededBumpOutsideSection,
                Arc::clone(&seen),
            ))
            .unwrap_or_else(|cx| panic!("seqlock let a foreign bucket through ({strategy}): {cx}"));
        assert!(
            seen.discarded_inside.load(StdOrd::Relaxed) > 0,
            "no discarded ticket seen ({strategy}) — the counter has lost its teeth"
        );
    }
}
