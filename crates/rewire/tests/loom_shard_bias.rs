//! Exhaustive model check of the **shard read bias** (`ReadBias` over the
//! `RetireCore` pin stripes): readers that enter a reader-writer section on
//! their pin alone, against a writer that takes the lock, revokes the bias
//! and waits for the stripes to drain.
//!
//! Run with `cargo test -p shortcut-rewire --features loomish`.
//!
//! The scenario is `shortcut_exhash::shard::Shard` with its parts named:
//! two readers run `Shard::read` once each (`try_enter`, else the lock and
//! `note_locked_read`), one writer runs `Shard::write` twice (`lock`,
//! `try_revoke`, mutate). Under the model `REARM_AFTER` is 1, so the first
//! locked read after a write re-arms the bias and the writer's second
//! section may have to revoke it again: the exploration walks through
//! revoke, re-arm and the second revoke. A `Mutex` stands in for the
//! shard's `RwLock` — the lock with reader/reader parallelism removed,
//! which no part of the proof leans on. The writer's wait is the one
//! production makes, except that a scan that gives up ends the section
//! without writing where `Shard::write` yields and scans again (the model
//! has no fairness to make a spin terminate).
//!
//! Model thread 1 owns an exclusive stripe (plain-store pin under
//! `Asymmetric`), thread 2 lands on the shared overflow stripe (RMW pin):
//! both pin paths meet the writer in every run.
//!
//! Invariants, checked inside every read section:
//!
//! * **exclusion** — no writer is between its first and last store
//!   (ground-truth flag outside the instrumented memory model);
//! * **visibility** — the two guarded words are equal: a reader sees every
//!   finished write whole, whichever way it entered (this is what the
//!   Release re-arm / Acquire bias load and the lock hand-off are for).
//!
//! Seeded bugs, one link each, that the suite must catch:
//!
//! * `bias_before_pin` — the reader loads the bias word *before*
//!   publishing its pin: the writer's whole revocation fits in the gap.
//! * `scan_without_barrier` — the writer clears the bias and scans the
//!   stripes with neither the SeqCst fence nor the membarrier: the scan may
//!   read a stale zero under a live pin while the reader reads a stale
//!   "armed".

#![cfg(feature = "loomish")]

use loomish::Builder;
use shortcut_rewire::sync::{thread, AtomicU64, Mutex, Ordering};
use shortcut_rewire::{PinStrategy, ReadBias, Reclaimable, RetireCore};
use std::sync::atomic::{
    AtomicBool as StdAtomicBool, AtomicU64 as StdAtomicU64, Ordering as StdOrd,
};
use std::sync::Arc;

/// Nothing is retired here; the core is used for its pin stripes only.
struct NoArea;

impl Reclaimable for NoArea {
    fn vma_estimate(&self) -> usize {
        0
    }
}

#[derive(Clone, Copy, PartialEq)]
enum ReaderKind {
    Correct,
    SeededBiasBeforePin,
}

#[derive(Clone, Copy, PartialEq)]
enum WriterKind {
    Correct,
    SeededScanWithoutBarrier,
}

/// What the executions of one exploration reached, summed outside the
/// model (written, never read, by model threads).
#[derive(Default)]
struct Coverage {
    biased_reads: StdAtomicU64,
    locked_reads: StdAtomicU64,
    writes: StdAtomicU64,
    rearms: StdAtomicU64,
    second_revocations: StdAtomicU64,
}

/// The section's shared state: `Shard`'s fields, plus the guarded data.
struct World {
    core: RetireCore<NoArea>,
    bias: ReadBias,
    lock: Mutex<()>,
    /// The guarded structure: every write sets both words to one value.
    data: [AtomicU64; 2],
    writing: StdAtomicBool,
}

impl World {
    /// What a reader inside the section sees wrong, if anything. Returned,
    /// not asserted: a panic under a live pin would run the pin's
    /// instrumented drop while unwinding, and a second failing thread
    /// scheduled from there would abort the process.
    fn violation_seen_from_inside(&self) -> Option<&'static str> {
        let overlapped = || self.writing.load(StdOrd::SeqCst);
        let before = overlapped();
        let first = self.data[0].load(Ordering::Relaxed);
        let second = self.data[1].load(Ordering::Relaxed);
        if before || overlapped() {
            Some("reader inside a writer's section")
        } else if first != second {
            Some("reader saw a half-applied write")
        } else {
            None
        }
    }

    /// `Shard::read`.
    fn read(&self, kind: ReaderKind, seen: &Coverage) {
        let entered = match kind {
            ReaderKind::Correct => self.bias.try_enter(&self.core),
            ReaderKind::SeededBiasBeforePin => {
                let armed = self.bias.is_armed();
                let pin = self.core.pin();
                armed.then_some(pin)
            }
        };
        let violation = if let Some(pin) = entered {
            let violation = self.violation_seen_from_inside();
            drop(pin);
            seen.biased_reads.fetch_add(1, StdOrd::Relaxed);
            violation
        } else {
            let shared = self.lock.lock().unwrap();
            self.bias.note_locked_read();
            // (`Shard::read_on_lock` also pins here, for the shortcut
            // read; no writer can be scanning while this thread holds the
            // lock.)
            let violation = self.violation_seen_from_inside();
            drop(shared);
            seen.locked_reads.fetch_add(1, StdOrd::Relaxed);
            violation
        };
        if let Some(what) = violation {
            panic!("{what}");
        }
    }

    /// `Shard::write`, giving up where production scans again.
    fn write(&self, kind: WriterKind, value: u64, seen: &Coverage) {
        let exclusive = self.lock.lock().unwrap();
        let drained = match kind {
            WriterKind::Correct => self.bias.try_revoke(|| self.core.readers_quiesced()),
            WriterKind::SeededScanWithoutBarrier => self
                .bias
                .try_revoke(|| self.core.readers_quiesced_seeded_unpaired()),
        };
        if drained {
            self.writing.store(true, StdOrd::SeqCst);
            self.data[0].store(value, Ordering::Relaxed);
            self.data[1].store(value, Ordering::Relaxed);
            self.writing.store(false, StdOrd::SeqCst);
            seen.writes.fetch_add(1, StdOrd::Relaxed);
        }
        drop(exclusive);
    }
}

fn scenario(
    strategy: PinStrategy,
    reader: ReaderKind,
    writer: WriterKind,
    seen: Arc<Coverage>,
) -> impl Fn() + Send + Sync + 'static {
    move || {
        let world = Arc::new(World {
            core: RetireCore::with_strategy(strategy),
            bias: ReadBias::default(),
            lock: Mutex::new(()),
            data: [AtomicU64::new(0), AtomicU64::new(0)],
            writing: StdAtomicBool::new(false),
        });
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let (world, seen) = (Arc::clone(&world), Arc::clone(&seen));
                thread::spawn(move || world.read(reader, &seen))
            })
            .collect();
        let writer_t = {
            let (world, seen) = (Arc::clone(&world), Arc::clone(&seen));
            thread::spawn(move || {
                world.write(writer, 1, &seen);
                world.write(writer, 2, &seen);
            })
        };
        for r in readers {
            r.join().unwrap();
        }
        writer_t.join().unwrap();

        // Quiesced world: a writer gets in at once, and what it writes is
        // what the next reader — on whichever path — sees.
        let (revocations, rearms) = world.bias.counters();
        seen.rearms.fetch_add(rearms, StdOrd::Relaxed);
        seen.second_revocations
            .fetch_add(revocations.saturating_sub(1), StdOrd::Relaxed);
        assert!(
            world.bias.try_revoke(|| world.core.readers_quiesced()),
            "stripes did not drain"
        );
        world.read(ReaderKind::Correct, &Coverage::default());
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
        .check(scenario(
            strategy,
            ReaderKind::Correct,
            WriterKind::Correct,
            Arc::clone(&seen),
        ))
        .unwrap_or_else(|cx| panic!("shard bias ({strategy}) counterexample: {cx}"));
    println!(
        "shard bias ({strategy}): {} interleavings explored, invariants held",
        report.executions
    );
    assert!(
        report.executions > 1_000,
        "suspiciously small exploration: {}",
        report.executions
    );
    // The proof is only worth its coverage: both entry paths, writes that
    // got in, a re-arm, and a revocation of the re-armed bias.
    for (what, count) in [
        ("biased reads", &seen.biased_reads),
        ("locked reads", &seen.locked_reads),
        ("writes", &seen.writes),
        ("re-arms", &seen.rearms),
        ("revocations after a re-arm", &seen.second_revocations),
    ] {
        assert!(
            count.load(StdOrd::Relaxed) > 0,
            "no execution reached: {what}"
        );
    }
}

#[test]
fn shard_bias_holds_exhaustively_under_asymmetric_pins() {
    holds_exhaustively(PinStrategy::Asymmetric);
}

#[test]
fn shard_bias_holds_exhaustively_under_dekker_pins() {
    holds_exhaustively(PinStrategy::Dekker);
}

/// Teeth check: a reader that looks at the bias before its pin is
/// published can be overtaken by a whole revocation. Algorithmic, so the
/// cheap SC mode finds it.
#[test]
fn seeded_bias_before_pin_is_caught() {
    for strategy in [PinStrategy::Asymmetric, PinStrategy::Dekker] {
        let err = Builder::new()
            .preemption_bound(Some(2))
            .check(scenario(
                strategy,
                ReaderKind::SeededBiasBeforePin,
                WriterKind::Correct,
                Arc::default(),
            ))
            .expect_err("bias-before-pin reader not caught — the model checker has lost its teeth");
        assert!(
            err.message.contains("reader inside a writer's section")
                || err.message.contains("half-applied write"),
            "unexpected counterexample ({strategy}): {err}"
        );
    }
}

/// Teeth check: without the fence and the barrier nothing pairs the
/// writer's scan with the readers' pins — under either strategy the scan
/// may read a stale zero while the reader reads a stale "armed".
#[test]
fn seeded_scan_without_barrier_is_caught() {
    for strategy in [PinStrategy::Asymmetric, PinStrategy::Dekker] {
        let err = builder()
            .check(scenario(
                strategy,
                ReaderKind::Correct,
                WriterKind::SeededScanWithoutBarrier,
                Arc::default(),
            ))
            .expect_err(
                "barrier-free revocation not caught — the model checker has lost its teeth",
            );
        assert!(
            err.message.contains("reader inside a writer's section")
                || err.message.contains("half-applied write"),
            "unexpected counterexample ({strategy}): {err}"
        );
    }
}

/// The protocol under plain sequentially-consistent-per-location
/// semantics, with a wider preemption bound than the ordering-sensitive
/// pass affords: the algorithmic order, independent of memory-ordering
/// subtleties.
#[test]
fn shard_bias_holds_under_sc_interleavings() {
    for strategy in [PinStrategy::Asymmetric, PinStrategy::Dekker] {
        let report = Builder::new()
            .preemption_bound(Some(3))
            .check(scenario(
                strategy,
                ReaderKind::Correct,
                WriterKind::Correct,
                Arc::default(),
            ))
            .unwrap_or_else(|cx| panic!("shard bias ({strategy}) SC counterexample: {cx}"));
        println!(
            "shard bias ({strategy}, SC mode): {} interleavings",
            report.executions
        );
    }
}
