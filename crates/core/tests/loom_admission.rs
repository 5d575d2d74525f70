//! Exhaustive model check of the **admission word**: the shard read bias
//! (`ReadBias` over the `RetireList` pin stripes) folded into one word of
//! the shard's `ReadLine`, which holds the served directory while the bias
//! is armed — against a shared writer that revokes, writes and relays, a
//! mapper that refreshes the word from outside every section, and a
//! locked reader that re-arms it.
//!
//! Run with `cargo test -p shortcut-core --features loomish`.
//!
//! The scenario is `shortcut_exhash::shard` with its parts named. A reader
//! runs `ShortcutIndex::get`: pin on its exclusive stripe and load the
//! admission word (`ReadLine::enter`); a word that serves is the directory
//! it reads, with no validation. Every other way in is `get_slow`: pin
//! (an RMW pin on the overflow stripe), and the word under it either
//! admits — read through the descriptor's serving word — or sends the
//! reader to the lock, where a locked read re-arms the bias under the
//! inbox lock (`REARM_AFTER` is 1 under the model). A shared writer runs
//! `Shard::enter_write` once: lock, revoke the bias (the revocation's stores
//! under the inbox lock, the stripe scan outside it), then split a bucket
//! — rewrite it with plain stores — and relay: under the inbox lock, bump
//! the traditional version (which clears the words) and queue it. The
//! mapper runs a pass: under the inbox lock take the queue, publish what
//! it took, then under the inbox lock again refresh the words. The bucket
//! is two words tied to the version that wrote them (`data0 == version`,
//! `data1 == 100 + data0`), and the published slot count doubles as the
//! version, as in the seqlock suite. A `Mutex` stands in for the shard's
//! `RwLock`.
//!
//! Model thread 1 reads twice on an exclusive stripe (its pin is the
//! plain-store one under `Asymmetric`); thread 2 runs the mapper's pass,
//! then reads once on the shared overflow stripe; thread 3 writes. Under
//! `Dekker` both readers take the RMW pin of `get_slow`.
//!
//! Invariants, checked in every read (returned, not asserted: a panic
//! under a live pin would run the pin's instrumented drop while unwinding):
//!
//! * **exclusion** — no reader inside a section, biased or locked, is
//!   inside a write (a ground-truth flag outside the memory model);
//! * **whole** — the two bucket words agree;
//! * **current** — a served answer comes from the directory of the
//!   bucket's version.
//!
//! After the threads join, with the world quiesced: a read before the
//! mapper catches up must hold the invariants too, and after it a locked
//! read re-arms the bias and the next one is a hit on the admission word.
//!
//! Seeded bugs, one link each, that the suite must catch (under both
//! pairings, but the stale re-arm: only a hit follows the word's
//! directory, and under `Dekker` no read is a hit):
//!
//! * `revoke_leaves_the_word` — the writer drains the stripes without
//!   storing a tag: biased readers keep entering on the served word;
//! * `rearm_copies_a_stale_word` — the re-arm stores the serving word the
//!   reader looked at before it took the shard's lock: a split in between
//!   leaves the superseded directory admitted;
//! * `refresh_outside_the_inbox_lock` — the mapper looks at the word
//!   ("armed") and stores it without the lock: a revocation in between is
//!   overwritten by a served word;
//! * `bias_before_pin` — the reader looks at the bias *before* it pins:
//!   the writer's whole revocation fits in the gap;
//! * `scan_without_barrier` — the writer revokes and scans with neither
//!   the SeqCst fence nor the membarrier: the scan may read a stale zero
//!   under a live pin while the reader reads a stale armed word.

#![cfg(feature = "loomish")]

use loomish::Builder;
use shortcut_core::{ReadGeometry, ReadLine, ReadTicket, SharedDirectoryState};
use shortcut_rewire::sync::{thread, AtomicU64, Mutex, Ordering};
use shortcut_rewire::{PinStrategy, ReadBias, RetireList};
use std::sync::atomic::{
    AtomicBool as StdAtomicBool, AtomicU64 as StdAtomicU64, Ordering as StdOrd,
};
use std::sync::Arc;

/// Never dereferenced (see `loom_seqlock.rs`).
const FAKE_BASE: *mut u8 = 64 as *mut u8;

#[derive(Clone, Copy, PartialEq)]
enum Seed {
    None,
    RevokeLeavesTheWord,
    RearmCopiesAStaleWord,
    RefreshOutsideTheInboxLock,
    BiasBeforePin,
    ScanWithoutBarrier,
}

/// What the executions of one exploration reached, summed outside the
/// model (written, never read, by model threads).
#[derive(Default)]
struct Coverage {
    /// Served on the admission word alone.
    hits: StdAtomicU64,
    /// In the biased section, off the hit path.
    biased_slow: StdAtomicU64,
    locked_reads: StdAtomicU64,
    rearms: StdAtomicU64,
    served: StdAtomicU64,
    served_after_the_split: StdAtomicU64,
    splits: StdAtomicU64,
}

fn count(cell: &StdAtomicU64) {
    cell.fetch_add(1, StdOrd::Relaxed);
}

struct World {
    /// One shard's line; `state` is attached to it.
    lines: Arc<[ReadLine]>,
    state: SharedDirectoryState,
    /// The shard's lock.
    lock: Mutex<()>,
    /// The mapper's inbox: the version of the split to publish, 0 if none.
    inbox: Mutex<u64>,
    bucket: [AtomicU64; 2],
    writing: StdAtomicBool,
    /// Pins that pair with nothing, for the seeded reader's early look.
    unscanned: RetireList,
}

impl World {
    fn new(strategy: PinStrategy) -> Self {
        let pins = Arc::new(RetireList::with_strategy(strategy));
        let world = World {
            lines: Arc::new([ReadLine {
                bias: ReadBias::default(),
                geometry: ReadGeometry::default(),
                pins,
            }]),
            state: SharedDirectoryState::new(),
            lock: Mutex::new(()),
            inbox: Mutex::new(0),
            bucket: [AtomicU64::new(0), AtomicU64::new(0)],
            writing: StdAtomicBool::new(false),
            unscanned: RetireList::with_strategy(strategy),
        };
        // Quiescent setup: version 1 written, published, served, attached.
        let v1 = world.state.bump_traditional();
        world.bucket[0].store(v1, Ordering::Release);
        world.bucket[1].store(100 + v1, Ordering::Release);
        world.state.publish(FAKE_BASE, v1 as usize, v1);
        world.state.refresh_serving();
        world.state.attach_line(Arc::clone(&world.lines), 0);
        world
    }

    fn line(&self) -> &ReadLine {
        &self.lines[0]
    }

    /// The read itself, inside a section: through the directory `served`,
    /// or the traditional one. What it saw wrong, if anything.
    fn read(&self, served: Option<ReadTicket>, seen: &Coverage) -> Option<&'static str> {
        let overlapped = || self.writing.load(StdOrd::SeqCst);
        let before = overlapped();
        let a = self.bucket[0].load(Ordering::Relaxed);
        let b = self.bucket[1].load(Ordering::Relaxed);
        if before || overlapped() {
            return Some("reader inside a writer's section");
        }
        if b != 100 + a {
            return Some("a reader saw a half-applied write");
        }
        let t = served?;
        count(&seen.served);
        if t.slots == 2 {
            count(&seen.served_after_the_split);
        }
        (a != t.slots as u64).then_some("a shortcut answer came from a superseded directory")
    }

    /// `ShortcutIndex::get`, and its `get_slow`.
    fn get(&self, seed: Seed, seen: &Coverage) {
        let line = self.line();
        // The seeded reader looks at the bias first (under a pin no writer
        // scans), and then pins.
        let early = (seed == Seed::BiasBeforePin)
            .then(|| ReadBias::admits(line.bias.admission(&self.unscanned.pin())));
        let entered = if early.is_some() { None } else { line.enter() };
        let violation = match entered {
            Some((pin, t)) => {
                let violation = self.read(Some(t), seen);
                drop(pin);
                count(&seen.hits);
                violation
            }
            None => {
                let pin = line.pins.pin();
                if early.unwrap_or_else(|| ReadBias::admits(line.bias.admission(&pin))) {
                    let violation = self.read(self.state.begin_read(), seen);
                    drop(pin);
                    count(&seen.biased_slow);
                    violation
                } else {
                    drop(pin);
                    self.get_locked(seed, seen)
                }
            }
        };
        if let Some(what) = violation {
            panic!("{what}");
        }
    }

    /// `get_slow` on the lock: count the read, re-arm, read.
    fn get_locked(&self, seed: Seed, seen: &Coverage) -> Option<&'static str> {
        // The seeded re-arm copies the word it saw before the lock.
        let stale = (seed == Seed::RearmCopiesAStaleWord).then(|| {
            self.state.begin_read().map_or(std::ptr::null_mut(), |t| {
                t.base.wrapping_add(t.depth() as usize)
            })
        });
        let shared = self.lock.lock().unwrap();
        if self.line().bias.note_locked_read() {
            let _inbox = self.inbox.lock().unwrap();
            match stale {
                Some(word) => self.line().bias.rearm(word),
                None => self.state.rearm(),
            }
            count(&seen.rearms);
        }
        let pin = self.line().pins.pin();
        let violation = self.read(self.state.begin_read(), seen);
        drop(pin);
        drop(shared);
        count(&seen.locked_reads);
        violation
    }

    /// `Shard::enter_write` around one bucket split and its relay (giving up
    /// where production yields and scans again: the model has no fairness
    /// to make a spin terminate).
    fn split(&self, seed: Seed, seen: &Coverage) {
        let exclusive = self.lock.lock().unwrap();
        let (line, inbox) = (self.line(), || self.inbox.lock().unwrap());
        let drained = match seed {
            Seed::RevokeLeavesTheWord => line.pins.readers_quiesced(),
            Seed::ScanWithoutBarrier => line
                .bias
                .try_revoke(inbox, || line.pins.readers_quiesced_seeded_unpaired()),
            _ => line.bias.try_revoke(inbox, || line.pins.readers_quiesced()),
        };
        if drained {
            // The only writer: the version the relay below will bump to.
            let v = self.state.traditional_version() + 1;
            self.writing.store(true, StdOrd::SeqCst);
            self.bucket[0].store(v, Ordering::Relaxed);
            self.bucket[1].store(100 + v, Ordering::Relaxed);
            self.writing.store(false, StdOrd::SeqCst);
            // `relay_events`, before the section ends.
            let mut queue = self.inbox.lock().unwrap();
            *queue = self.state.bump_traditional();
            drop(queue);
            count(&seen.splits);
        }
        drop(exclusive);
    }

    /// One pass of the mapper: publish the queued version, if any, then
    /// serve what is published if it is current.
    fn mapper_pass(&self, seed: Seed) {
        let v = std::mem::take(&mut *self.inbox.lock().unwrap());
        if v != 0 {
            self.state.publish(FAKE_BASE, v as usize, v);
        }
        if seed == Seed::RefreshOutsideTheInboxLock {
            self.state.refresh_serving();
        } else {
            let _inbox = self.inbox.lock().unwrap();
            self.state.refresh_serving();
        }
    }
}

fn scenario(
    strategy: PinStrategy,
    seed: Seed,
    seen: Arc<Coverage>,
) -> impl Fn() + Send + Sync + 'static {
    move || {
        let world = Arc::new(World::new(strategy));
        // Spawn order fixes the stripes: thread 1 exclusive, 2 overflow.
        let reader = {
            let (world, seen) = (Arc::clone(&world), Arc::clone(&seen));
            thread::spawn(move || (0..2).for_each(|_| world.get(seed, &seen)))
        };
        // The mapper's thread reads after its pass, on the overflow stripe.
        let mapper = {
            let (world, seen) = (Arc::clone(&world), Arc::clone(&seen));
            thread::spawn(move || {
                world.mapper_pass(seed);
                world.get(seed, &seen);
            })
        };
        let writer = {
            let (world, seen) = (Arc::clone(&world), Arc::clone(&seen));
            thread::spawn(move || world.split(seed, &seen))
        };
        reader.join().unwrap();
        mapper.join().unwrap();
        writer.join().unwrap();

        // Quiesced world, read correctly: whatever the word was left at
        // admits no wrong read, and once the mapper catches up a locked
        // read re-arms the bias and the next read is a hit on the word.
        world.get(Seed::None, &Coverage::default());
        world.mapper_pass(Seed::None);
        assert!(world.state.in_sync());
        world.get(Seed::None, &Coverage::default());
        let last = Coverage::default();
        world.get(Seed::None, &last);
        assert_eq!(last.locked_reads.load(StdOrd::Relaxed), 0, "not re-armed");
        assert_eq!(last.served.load(StdOrd::Relaxed), 1, "not served");
        if strategy == PinStrategy::Asymmetric {
            assert_eq!(last.hits.load(StdOrd::Relaxed), 1, "not a hit");
        }
        let line = world.line();
        let inbox = || world.inbox.lock().unwrap();
        assert!(
            line.bias.try_revoke(inbox, || line.pins.readers_quiesced()),
            "stripes did not drain"
        );
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
        .check(scenario(strategy, Seed::None, Arc::clone(&seen)))
        .unwrap_or_else(|cx| panic!("admission word ({strategy}) counterexample: {cx}"));
    println!(
        "admission word ({strategy}): {} interleavings explored, invariants held",
        report.executions
    );
    assert!(
        report.executions > 1_000,
        "suspiciously small exploration: {}",
        report.executions
    );
    // The proof is only worth its coverage: every way in, a write that got
    // in, a re-arm, and a served read of the split bucket. (Under `Dekker`
    // no pin is exclusive, so every read takes `get_slow`.)
    let mut reached = vec![
        ("biased reads off the hit path", &seen.biased_slow),
        ("locked reads", &seen.locked_reads),
        ("re-arms", &seen.rearms),
        (
            "served reads of the split bucket",
            &seen.served_after_the_split,
        ),
        ("splits", &seen.splits),
    ];
    if strategy == PinStrategy::Asymmetric {
        reached.push(("hits on the admission word", &seen.hits));
    }
    for (what, count) in reached {
        assert!(
            count.load(StdOrd::Relaxed) > 0,
            "no execution reached: {what}"
        );
    }
}

#[test]
fn admission_word_holds_exhaustively_under_asymmetric_pins() {
    holds_exhaustively(PinStrategy::Asymmetric);
}

#[test]
fn admission_word_holds_exhaustively_under_dekker_pins() {
    holds_exhaustively(PinStrategy::Dekker);
}

/// Each seed caught under both pairings, with one of `expected` in the
/// counterexample. `sc`: the algorithmic seeds, which the cheap
/// sequentially consistent mode finds.
fn caught(seed: Seed, sc: bool, expected: &[&str]) {
    caught_under(
        &[PinStrategy::Asymmetric, PinStrategy::Dekker],
        seed,
        sc,
        expected,
    );
}

fn caught_under(strategies: &[PinStrategy], seed: Seed, sc: bool, expected: &[&str]) {
    for &strategy in strategies {
        let run = builder()
            .ordering_sensitive(!sc)
            .check(scenario(strategy, seed, Arc::default()));
        let err = run.err().unwrap_or_else(|| {
            panic!("seed not caught ({strategy}) — the model checker has lost its teeth")
        });
        assert!(
            expected.iter().any(|e| err.message.contains(e)),
            "unexpected counterexample ({strategy}): {err}"
        );
    }
}

const INSIDE_OR_TORN: &[&str] = &[
    "inside a writer's section",
    "half-applied write",
    "superseded directory",
];

#[test]
fn seeded_revoke_that_leaves_the_word_is_caught() {
    caught(Seed::RevokeLeavesTheWord, true, INSIDE_OR_TORN);
}

/// Only a hit follows the admission word's directory, and under `Dekker`
/// no pin is exclusive: every read goes through the serving word, and a
/// stale armed word only admits, which is right after a re-arm.
#[test]
fn seeded_rearm_that_copies_a_stale_word_is_caught() {
    let asymmetric = &[PinStrategy::Asymmetric];
    caught_under(
        asymmetric,
        Seed::RearmCopiesAStaleWord,
        true,
        &["superseded directory"],
    );
}

#[test]
fn seeded_refresh_outside_the_inbox_lock_is_caught() {
    caught(Seed::RefreshOutsideTheInboxLock, true, INSIDE_OR_TORN);
}

#[test]
fn seeded_bias_before_pin_is_caught() {
    caught(Seed::BiasBeforePin, true, INSIDE_OR_TORN);
}

/// Needs the ordering-sensitive model: under SC the scan cannot miss a
/// pin that precedes it.
#[test]
fn seeded_scan_without_barrier_is_caught() {
    caught(Seed::ScanWithoutBarrier, false, INSIDE_OR_TORN);
}
