//! Exhaustive model check of the composition a single-key lookup leans on:
//! the **shard read section** (`ReadBias` over the `RetireCore` pin
//! stripes, `tests/loom_shard_bias.rs` in `shortcut-rewire`) around **one
//! load of the serving word** of the read descriptor, with the mapper
//! serving from outside every section.
//!
//! Run with `cargo test -p shortcut-core --features loomish`. (It sits here
//! and not beside `loom_shard_bias.rs` because `shortcut-rewire` cannot
//! depend on the descriptor's crate.)
//!
//! The scenario is `shortcut_exhash::shard::Shard` with its parts named. A
//! reader runs `Shard::get` twice: enter the section (`try_enter`, else the
//! lock and `note_locked_read` and a pin), load the serving word, read the
//! bucket through it — and nothing else: no validation. A shared writer
//! runs `Shard::write` once: lock, revoke the bias, and inside the section
//! split a bucket — rewrite it with plain stores, then relay: under the
//! inbox lock, bump the traditional version (which clears the word) and
//! queue it. The mapper runs two passes: under the inbox lock take the
//! queue, publish what it took, then under the inbox lock again refresh
//! the word. The bucket is two words tied to the version that wrote them
//! (`data0 == version`, `data1 == 100 + data0`), and the published slot
//! count doubles as the version, as in the seqlock suite.
//!
//! Checked in every execution: **every shortcut answer is whole and comes
//! from the current directory** — the word names the version of the bucket
//! the reader then reads. Nothing but the section's hand-off orders the
//! writer's plain bucket stores against the reader, and nothing but the
//! inbox lock orders the mapper's compare against the writer's bump.
//!
//! Seeded bug, for the lock's teeth: a mapper that compares the versions
//! before it takes the inbox lock to store the word. A bump between the
//! two leaves the superseded directory serving, and a reader that enters
//! after the writer's section reads the split bucket through it.

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
enum MapperKind {
    Correct,
    SeededCompareOutsideTheLock,
}

/// What the executions of one exploration reached, summed outside the
/// model (written, never read, by model threads).
#[derive(Default)]
struct Coverage {
    biased_reads: StdAtomicU64,
    locked_reads: StdAtomicU64,
    served: StdAtomicU64,
    served_after_the_split: StdAtomicU64,
    not_serving: StdAtomicU64,
    splits: StdAtomicU64,
}

struct World {
    core: RetireCore<NoArea>,
    bias: ReadBias,
    lock: Mutex<()>,
    state: SharedDirectoryState,
    bucket: [AtomicU64; 2],
    /// The mapper's inbox: the version of the split to publish, 0 if none.
    inbox: Mutex<u64>,
}

impl World {
    /// The body of `ShortcutEh::get_pinned`, inside a read section. Returns
    /// what it saw wrong, if anything (returned, not asserted: see
    /// `loom_shard_bias.rs`).
    fn lookup(&self, seen: &Coverage) -> Option<&'static str> {
        let Some(t) = self.state.begin_read() else {
            seen.not_serving.fetch_add(1, StdOrd::Relaxed);
            return None;
        };
        let a = self.bucket[0].load(Ordering::Relaxed);
        let b = self.bucket[1].load(Ordering::Relaxed);
        seen.served.fetch_add(1, StdOrd::Relaxed);
        if t.slots == 2 {
            seen.served_after_the_split.fetch_add(1, StdOrd::Relaxed);
        }
        if a != t.slots as u64 {
            Some("a shortcut answer came from a superseded directory")
        } else if b != 100 + a {
            Some("a shortcut answer was torn")
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
    fn split(&self, seen: &Coverage) {
        let exclusive = self.lock.lock().unwrap();
        if self.bias.try_revoke(|| self.core.readers_quiesced()) {
            // The only writer: the version the relay below will bump to.
            let v = self.state.traditional_version() + 1;
            self.bucket[0].store(v, Ordering::Relaxed);
            self.bucket[1].store(100 + v, Ordering::Relaxed);
            // `relay_events`, before the section ends.
            let mut queue = self.inbox.lock().unwrap();
            *queue = self.state.bump_traditional();
            drop(queue);
            seen.splits.fetch_add(1, StdOrd::Relaxed);
        }
        drop(exclusive);
    }

    /// One pass of the mapper: publish the queued version, if any, then
    /// serve what is published if it is current.
    fn mapper_pass(&self, kind: MapperKind) {
        let v = std::mem::take(&mut *self.inbox.lock().unwrap());
        if v != 0 {
            self.state.publish(FAKE_BASE, v as usize, v);
        }
        match kind {
            MapperKind::Correct => {
                let _inbox = self.inbox.lock().unwrap();
                self.state.refresh_serving();
            }
            MapperKind::SeededCompareOutsideTheLock => {
                let in_sync = self.state.in_sync();
                let _inbox = self.inbox.lock().unwrap();
                self.state.refresh_serving_seeded_stale(in_sync);
            }
        }
    }
}

fn scenario(
    strategy: PinStrategy,
    mapper: MapperKind,
    seen: Arc<Coverage>,
) -> impl Fn() + Send + Sync + 'static {
    move || {
        let world = Arc::new(World {
            core: RetireCore::with_strategy(strategy),
            bias: ReadBias::default(),
            lock: Mutex::new(()),
            state: SharedDirectoryState::new(),
            bucket: [AtomicU64::new(0), AtomicU64::new(0)],
            inbox: Mutex::new(0),
        });
        // Quiescent setup: version 1 written, published and served.
        let v1 = world.state.bump_traditional();
        world.bucket[0].store(v1, Ordering::Release);
        world.bucket[1].store(100 + v1, Ordering::Release);
        world.state.publish(FAKE_BASE, v1 as usize, v1);
        world.state.refresh_serving();

        // Model thread 1: an exclusive stripe (plain-store pin under
        // `Asymmetric`).
        let reader = {
            let (world, seen) = (Arc::clone(&world), Arc::clone(&seen));
            thread::spawn(move || {
                world.get(&seen);
                world.get(&seen);
            })
        };
        let writer = {
            let (world, seen) = (Arc::clone(&world), Arc::clone(&seen));
            thread::spawn(move || world.split(&seen))
        };
        let mapper_t = {
            let world = Arc::clone(&world);
            thread::spawn(move || {
                world.mapper_pass(mapper);
                world.mapper_pass(mapper);
            })
        };
        reader.join().unwrap();
        writer.join().unwrap();
        mapper_t.join().unwrap();

        // Quiesced world: the mapper catches up, and a reader is served
        // whatever the last writer left.
        world.mapper_pass(MapperKind::Correct);
        let after = Coverage::default();
        world.get(&after);
        assert!(world.state.in_sync());
        assert_eq!(after.served.load(StdOrd::Relaxed), 1);
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
        .check(scenario(strategy, MapperKind::Correct, Arc::clone(&seen)))
        .unwrap_or_else(|cx| panic!("read section ({strategy}) counterexample: {cx}"));
    println!(
        "read section ({strategy}): {} interleavings explored, invariant held",
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
        ("served reads", &seen.served),
        (
            "served reads of the split bucket",
            &seen.served_after_the_split,
        ),
        ("reads the shortcut did not serve", &seen.not_serving),
        ("splits", &seen.splits),
    ] {
        assert!(
            count.load(StdOrd::Relaxed) > 0,
            "no execution reached: {what}"
        );
    }
}

#[test]
fn read_section_holds_exhaustively_under_asymmetric_pins() {
    holds_exhaustively(PinStrategy::Asymmetric);
}

#[test]
fn read_section_holds_exhaustively_under_dekker_pins() {
    holds_exhaustively(PinStrategy::Dekker);
}

/// Teeth check for the inbox lock: a mapper that compares outside it lets
/// a bump slip between its compare and its store.
#[test]
fn seeded_compare_outside_the_inbox_lock_is_caught() {
    for strategy in [PinStrategy::Asymmetric, PinStrategy::Dekker] {
        let err = builder()
            .check(scenario(
                strategy,
                MapperKind::SeededCompareOutsideTheLock,
                Arc::new(Coverage::default()),
            ))
            .expect_err("stale compare not caught — the model checker has lost its teeth");
        assert!(
            err.message.contains("superseded directory"),
            "unexpected counterexample ({strategy}): {err}"
        );
    }
}
