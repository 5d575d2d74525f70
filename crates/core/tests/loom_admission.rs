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
//! the traditional version once (which clears the words) and queue it.
//! The mapper runs a pass: under the inbox lock take the queue with its
//! version, publish that, then under the inbox lock again refresh the
//! words. The bucket is two words tied to the version that wrote them
//! (`data0 == version`, `data1 == 100 + data0`), and the published slot
//! count doubles as the version, as in the seqlock suite. A `Mutex`
//! stands in for the shard's `RwLock`.
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
//!
//! A second, smaller scenario is the **update beside the biased readers**
//! (`ShortcutIndex::insert_batch_shared` on a present key, then on a new
//! one). The writer holds the shard's lock without revoking the bias and
//! stores a value word — one atomic store — then leaves, enters again,
//! revokes and splits as above. A reader reads twice, through whatever
//! section admits it, the bucket and the value: it sees the old value or
//! the new one, the structure whole, and never the inside of a structural
//! write; after the join it sees the new value. Its seed,
//! `lazy_writer_moves_structure`, has the unrevoked writer also rewrite
//! the bucket's structural words: a biased reader sees it.
//!
//! A third scenario is the **bump beside a pass that replaces the
//! directory**, with the areas real enough to be unmapped: drop-observable
//! stand-ins on a retire list of their own (as in `loom_retire.rs`). The
//! old directory is served. The writer bumps the traditional version under
//! the inbox lock (`InboxGuard`). The mapper ends a pass — its refresh
//! under the inbox lock — then runs the next: if the version moved (the
//! model's stand-in for the create the relay queues), it publishes the new
//! area at it, retires the old one, reclaims what no reader pins, and
//! refreshes. A reader pins, loads the serving
//! word and reads through it: the area it names must be mapped. Its seed,
//! `bump_outside_the_inbox_lock`, bumps without the lock: the first
//! refresh compares before the bump and stores after it, so the old area
//! is served at the new version; the next pass retires and reclaims it
//! while the word still names it, and a reader that pins after the scan
//! reads an unmapped area.

#![cfg(feature = "loomish")]

use loomish::Builder;
use shortcut_core::{ReadGeometry, ReadLine, ReadTicket, SharedDirectoryState};
use shortcut_rewire::sync::{thread, AtomicU64, Mutex, Ordering};
use shortcut_rewire::{PinStrategy, ReadBias, Reclaimable, RetireCore, RetireList};
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
    LazyWriterMovesStructure,
}

/// The value word's contents before and after the update.
const OLD: u64 = 7;
const NEW: u64 = 8;

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
    /// Biased reads made while a writer held the lock unrevoked.
    beside_an_update: StdAtomicU64,
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
    /// A present key's value word, which an update stores unrevoked.
    value: AtomicU64,
    writing: StdAtomicBool,
    /// A writer holds the lock without having revoked the bias.
    updating: StdAtomicBool,
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
            value: AtomicU64::new(OLD),
            writing: StdAtomicBool::new(false),
            updating: StdAtomicBool::new(false),
            unscanned: RetireList::with_strategy(strategy),
        };
        // Quiescent setup: version 1 written, published, served, attached.
        // SAFETY: no other thread exists yet.
        let v1 = unsafe { world.state.bump_traditional() };
        world.bucket[0].store(v1, Ordering::Release);
        world.bucket[1].store(100 + v1, Ordering::Release);
        // SAFETY: no other thread exists yet, and the base is never
        // dereferenced.
        unsafe {
            world.state.publish(FAKE_BASE, v1 as usize, v1);
            world.state.refresh_serving();
            world.state.attach_line(Arc::clone(&world.lines), 0);
        }
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
                // SAFETY: under the inbox lock, which every store takes.
                None => unsafe { self.state.rearm() },
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
            // The relay (`InboxGuard::relay`), before the section ends.
            let mut queue = self.inbox.lock().unwrap();
            // SAFETY: under the inbox lock, which every refresh takes.
            *queue = unsafe { self.state.bump_traditional() };
            drop(queue);
            count(&seen.splits);
        }
        drop(exclusive);
    }

    /// `ShortcutIndex::get` of the updated key, through whatever section
    /// admits the reader: the bucket read as in `read`, and the value
    /// word — old or new.
    fn get_value(&self, seen: &Coverage) {
        let line = self.line();
        let pin = line.pins.pin();
        let violation = if ReadBias::admits(line.bias.admission(&pin)) {
            let beside = self.updating.load(StdOrd::SeqCst);
            let violation = self.read(None, seen).or_else(|| self.check_value());
            drop(pin);
            if beside && self.updating.load(StdOrd::SeqCst) {
                count(&seen.beside_an_update);
            }
            violation
        } else {
            drop(pin);
            let shared = self.lock.lock().unwrap();
            let violation = self.read(None, seen).or_else(|| self.check_value());
            drop(shared);
            violation
        };
        if let Some(what) = violation {
            panic!("{what}");
        }
    }

    fn check_value(&self) -> Option<&'static str> {
        let v = self.value.load(Ordering::Relaxed);
        (v != OLD && v != NEW).then_some("a reader saw a value never stored")
    }

    /// `insert_pass` on a window of a present key, then a new one: the
    /// value stored in a section that does not revoke, which is left; then
    /// the rest entered again, revoked, and split (`split`).
    fn update_then_split(&self, seed: Seed, seen: &Coverage) {
        let unrevoked = self.lock.lock().unwrap();
        self.updating.store(true, StdOrd::SeqCst);
        self.value.store(NEW, Ordering::Relaxed);
        if seed == Seed::LazyWriterMovesStructure {
            // The seeded writer moves a structural word too, unrevoked.
            let v = self.state.traditional_version() + 1;
            self.writing.store(true, StdOrd::SeqCst);
            self.bucket[0].store(v, Ordering::Relaxed);
            self.bucket[1].store(100 + v, Ordering::Relaxed);
            self.writing.store(false, StdOrd::SeqCst);
        }
        self.updating.store(false, StdOrd::SeqCst);
        drop(unrevoked);
        assert_eq!(self.line().bias.counters(), (0, 0), "an update revoked");
        self.split(Seed::None, seen);
    }

    /// One pass of the mapper: publish the queued version, if any, then
    /// serve what is published if it is current.
    fn mapper_pass(&self, seed: Seed) {
        let v = std::mem::take(&mut *self.inbox.lock().unwrap());
        if v != 0 {
            // SAFETY: the base is never dereferenced.
            unsafe { self.state.publish(FAKE_BASE, v as usize, v) };
        }
        let _inbox = (seed != Seed::RefreshOutsideTheInboxLock).then(|| self.inbox.lock().unwrap());
        // SAFETY: under the inbox lock, which every store takes — but for
        // the seeded bug, which refreshes without it.
        unsafe { self.state.refresh_serving() };
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

/// The update beside the biased readers (module docs).
fn update_scenario(
    strategy: PinStrategy,
    seed: Seed,
    seen: Arc<Coverage>,
) -> impl Fn() + Send + Sync + 'static {
    move || {
        let world = Arc::new(World::new(strategy));
        let reader = {
            let (world, seen) = (Arc::clone(&world), Arc::clone(&seen));
            thread::spawn(move || (0..2).for_each(|_| world.get_value(&seen)))
        };
        let writer = {
            let (world, seen) = (Arc::clone(&world), Arc::clone(&seen));
            thread::spawn(move || world.update_then_split(seed, &seen))
        };
        reader.join().unwrap();
        writer.join().unwrap();
        // After the join the update is the value, whatever section reads.
        assert_eq!(world.value.load(Ordering::Relaxed), NEW, "update lost");
        world.get_value(&Coverage::default());
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

/// The update beside the biased readers holds under both pairings, and
/// some biased read overlaps the unrevoked writer.
#[test]
fn update_beside_biased_readers_holds_exhaustively() {
    for strategy in [PinStrategy::Asymmetric, PinStrategy::Dekker] {
        let seen = Arc::new(Coverage::default());
        let report = builder()
            .check(update_scenario(strategy, Seed::None, Arc::clone(&seen)))
            .unwrap_or_else(|cx| panic!("update ({strategy}) counterexample: {cx}"));
        println!(
            "update beside biased readers ({strategy}): {} interleavings explored, invariants held",
            report.executions
        );
        for (what, count) in [
            ("biased reads beside an update", &seen.beside_an_update),
            ("splits", &seen.splits),
        ] {
            assert!(
                count.load(StdOrd::Relaxed) > 0,
                "no execution reached: {what} ({strategy})"
            );
        }
    }
}

#[test]
fn seeded_lazy_writer_that_moves_structure_is_caught() {
    for strategy in [PinStrategy::Asymmetric, PinStrategy::Dekker] {
        let run = builder().ordering_sensitive(false).check(update_scenario(
            strategy,
            Seed::LazyWriterMovesStructure,
            Arc::default(),
        ));
        let err = run.err().unwrap_or_else(|| {
            panic!("seed not caught ({strategy}) — the model checker has lost its teeth")
        });
        assert!(
            INSIDE_OR_TORN.iter().any(|e| err.message.contains(e)),
            "unexpected counterexample ({strategy}): {err}"
        );
    }
}

/// Drop-observable stand-in for a shortcut area: dropping it is the
/// munmap, and `mapped` is the ground truth a read through it checks
/// (outside the memory model: a real load faults on the real mapping).
struct Area(Arc<StdAtomicBool>);

impl Reclaimable for Area {
    fn vma_estimate(&self) -> usize {
        1
    }
}

impl Drop for Area {
    fn drop(&mut self) {
        self.0.store(false, StdOrd::SeqCst);
    }
}

/// The served directory the create replaces, and the create's.
const OLD_BASE: *mut u8 = FAKE_BASE;
const NEW_BASE: *mut u8 = 128 as *mut u8;

/// What the rebuild scenario's executions reached.
#[derive(Default)]
struct RebuildCoverage {
    old_reads: StdAtomicU64,
    new_reads: StdAtomicU64,
    reclaims: StdAtomicU64,
}

/// The bump beside a pass that replaces the directory (module docs).
fn rebuild_scenario(
    strategy: PinStrategy,
    locked_bump: bool,
    seen: Arc<RebuildCoverage>,
) -> impl Fn() + Send + Sync + 'static {
    move || {
        let state = Arc::new(SharedDirectoryState::new());
        let inbox = Arc::new(Mutex::new(()));
        let areas = Arc::new(RetireCore::<Area>::with_strategy(strategy));
        let mapped = [
            Arc::new(StdAtomicBool::new(true)),
            Arc::new(StdAtomicBool::new(true)),
        ];
        // Quiescent setup: the old directory published and served.
        // SAFETY: no other thread exists yet; the old area stays "mapped"
        // until its stand-in is reclaimed.
        let v1 = unsafe {
            let v1 = state.bump_traditional();
            state.publish(OLD_BASE, 1, v1);
            state.refresh_serving();
            v1
        };
        let old = Area(Arc::clone(&mapped[0]));

        let writer = {
            let (state, inbox) = (Arc::clone(&state), Arc::clone(&inbox));
            thread::spawn(move || {
                let held = locked_bump.then(|| inbox.lock().unwrap());
                // SAFETY: under the inbox lock, which every refresh takes —
                // but for the seeded bug, which bumps without it.
                unsafe { state.bump_traditional() };
                drop(held);
            })
        };
        let mapper = {
            let (state, inbox, areas) =
                (Arc::clone(&state), Arc::clone(&inbox), Arc::clone(&areas));
            let (seen, new_mapped) = (Arc::clone(&seen), Arc::clone(&mapped[1]));
            thread::spawn(move || {
                let end_of_pass = || {
                    let _inbox = inbox.lock().unwrap();
                    // SAFETY: under the inbox lock, which every bump takes
                    // — but for the seeded bug's.
                    unsafe { state.refresh_serving() };
                };
                end_of_pass();
                // The next pass: build, retire, reclaim.
                let v = state.traditional_version();
                let mut current = old;
                if v != v1 {
                    // SAFETY: the new area's stand-in lives until the
                    // scenario's end.
                    unsafe { state.publish(NEW_BASE, 1, v) };
                    areas.retire(std::mem::replace(&mut current, Area(new_mapped)));
                    if areas.try_reclaim() > 0 {
                        count(&seen.reclaims);
                    }
                }
                end_of_pass();
                current
            })
        };
        let reader = {
            let (state, areas, seen) = (Arc::clone(&state), Arc::clone(&areas), Arc::clone(&seen));
            let mapped = mapped.clone();
            thread::spawn(move || {
                let pin = areas.pin();
                let whole = state.begin_read().is_none_or(|t| {
                    let (old, cell) = if t.base == OLD_BASE {
                        (true, &seen.old_reads)
                    } else {
                        (false, &seen.new_reads)
                    };
                    // The read itself, across a scheduling point.
                    thread::yield_now();
                    count(cell);
                    mapped[usize::from(!old)].load(StdOrd::SeqCst)
                });
                drop(pin);
                assert!(whole, "a reader read through an unmapped area");
            })
        };
        writer.join().unwrap();
        let current = mapper.join().unwrap();
        reader.join().unwrap();
        drop(current);
    }
}

/// The locked bump holds under both pairings, and the exploration reached
/// reads of either directory and a reclaim of the old one.
#[test]
fn rebuild_beside_a_locked_bump_holds_exhaustively() {
    for strategy in [PinStrategy::Asymmetric, PinStrategy::Dekker] {
        let seen = Arc::new(RebuildCoverage::default());
        let report = builder()
            .check(rebuild_scenario(strategy, true, Arc::clone(&seen)))
            .unwrap_or_else(|cx| panic!("rebuild ({strategy}) counterexample: {cx}"));
        println!(
            "rebuild beside a locked bump ({strategy}): {} interleavings explored, invariant held",
            report.executions
        );
        for (what, count) in [
            ("reads of the old directory", &seen.old_reads),
            ("reads of the new directory", &seen.new_reads),
            ("reclaims of the old directory", &seen.reclaims),
        ] {
            assert!(
                count.load(StdOrd::Relaxed) > 0,
                "no execution reached: {what} ({strategy})"
            );
        }
    }
}

#[test]
fn seeded_bump_outside_the_inbox_lock_is_caught() {
    for strategy in [PinStrategy::Asymmetric, PinStrategy::Dekker] {
        let run = builder().ordering_sensitive(false).check(rebuild_scenario(
            strategy,
            false,
            Arc::default(),
        ));
        let err = run.err().unwrap_or_else(|| {
            panic!("seed not caught ({strategy}) — the model checker has lost its teeth")
        });
        assert!(
            err.message.contains("unmapped area"),
            "unexpected counterexample ({strategy}): {err}"
        );
    }
}
