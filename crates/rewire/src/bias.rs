//! Read bias: the read side of a reader-writer lock replaced, while no
//! structural writer is around, by the reader's own pin and one load.
//!
//! A reader-writer lock costs every read two atomic RMWs on the lock word
//! even when nothing ever writes. [`ReadBias`] sits in front of such a
//! lock and reuses the reader presence [`crate::RetireCore::pin`] already
//! publishes: while the bias is *armed*, a reader pins, loads the
//! **admission word** — null or an owner's value ≥ 64, which the index
//! makes its served directory — and is inside without touching the lock.
//! A writer that changes what readers read plainly takes the lock's write
//! side, then *revokes* the bias — stores a tag, pairs with every pin
//! exactly as the reclaimer does ([`crate::RetireCore::readers_quiesced`])
//! and waits for the stripes to drain; one that only stores words readers
//! load atomically (the index: a present key's value) need not. Readers
//! then take the lock's read side until [`REARM_AFTER`] locked reads in a
//! row met no revocation.
//!
//! Every store to the word is made under an owner's lock taken after the
//! guarded one (the index: its mapper's inbox lock), so no look-then-store
//! of the owner's straddles a revocation; the other words are accessed
//! only under the guarded lock. CONCURRENCY.md §4 has the argument,
//! `shortcut-core`'s `tests/loom_admission.rs` the model check.

use crate::retire::ReaderPin;
use crate::sync::{AtomicPtr, AtomicU64, Ordering};
use std::ptr;

/// Revocation-free locked reads after which the bias arms again. The worst
/// case, a revoking writer that returns right after every re-arm, pays one
/// revocation (15 µs on the 2-vCPU reference host: an expedited
/// `membarrier` plus a stripe scan) per this many reads: under 2 ns on
/// each, a twentieth of a locked `get` (39 ns there; 22 ns biased), where
/// a tenth is the most this constant may allow.
#[cfg(not(feature = "loomish"))]
pub const REARM_AFTER: u64 = 8192;
/// Shrunk under the model so one locked read re-arms.
#[cfg(feature = "loomish")]
pub const REARM_AFTER: u64 = 1;

/// Revoked; readers that entered on the bias may still be inside.
const DRAINING: usize = 1;
/// Revoked, and every biased reader has left: readers and writers use the
/// lock.
const LOCKED: usize = 2;

/// The bias of one lock-guarded structure, opening with its admission
/// word; starts armed and null. See the module docs.
#[derive(Debug, Default)]
#[repr(C)]
pub struct ReadBias {
    /// Armed: null or the owner's value (≥ 64). Revoked: `DRAINING` or
    /// `LOCKED`.
    word: AtomicPtr<u8>,
    /// Locked reads since the last revocation.
    quiet_reads: AtomicU64,
    revocations: AtomicU64,
    rearms: AtomicU64,
}

const _: () = assert!(std::mem::offset_of!(ReadBias, word) == 0);

impl ReadBias {
    /// Whether an admission word lets a pinned reader in: every word but
    /// the two revocation tags.
    #[inline]
    pub fn admits(word: *mut u8) -> bool {
        !matches!(word.addr(), DRAINING | LOCKED)
    }

    /// The admission word, for a reader holding `pin` on the list the bias
    /// pairs with (loaded after the pin, as the borrow enforces). A word
    /// that [`ReadBias::admits`] puts the holder inside the read section
    /// while it holds the pin; any other sends it to the lock's read side,
    /// pin dropped — never block while pinned.
    #[inline]
    pub fn admission(&self, _pin: &ReaderPin<'_>) -> *mut u8 {
        // Acquire: pairs with the Release stores of armed words — a re-arm
        // (after the last writer's unlock) or an owner's `admit`.
        self.word.load(Ordering::Acquire)
    }

    /// While the bias is armed, make `word` (null or ≥ 64) the admission
    /// word; revoked, leave the tag. Under the owner's lock.
    pub fn admit(&self, word: *mut u8) {
        if Self::admits(self.word.load(Ordering::Relaxed)) {
            self.word.store(word, Ordering::Release);
        }
    }

    /// Count one read made under the lock's **read side**; `true` for the
    /// [`REARM_AFTER`]th without a revocation, whose caller then arms the
    /// bias ([`ReadBias::rearm`]) before it lets go of the read lock.
    pub fn note_locked_read(&self) -> bool {
        self.quiet_reads.fetch_add(1, Ordering::Relaxed) + 1 == REARM_AFTER
    }

    /// Arm the bias with `word` (null or ≥ 64), holding the lock's read
    /// side — no writer is inside; the next one revokes — and the owner's.
    pub fn rearm(&self, word: *mut u8) {
        self.word.store(word, Ordering::Release);
        self.rearms.fetch_add(1, Ordering::Relaxed);
    }

    /// Writer side, holding the lock's **write side**, before touching
    /// the guarded data: revoke under the owner's lock (`owner_lock`
    /// returns its guard), then wait outside it for the readers that
    /// entered through `readers_quiesced` — the readers' list's
    /// [`crate::RetireCore::readers_quiesced`]. `false`: some were still
    /// inside after a bounded scan — yield and call again until `true`.
    pub fn try_revoke<G>(
        &self,
        owner_lock: impl Fn() -> G,
        readers_quiesced: impl FnOnce() -> bool,
    ) -> bool {
        self.quiet_reads.store(0, Ordering::Relaxed);
        // Only the write side, ours, moves a revoked word; `admit` keeps an
        // armed one armed.
        match self.word.load(Ordering::Relaxed).addr() {
            LOCKED => return true,
            // A scan that gave up left readers unaccounted for: scan again.
            DRAINING => {}
            _ => {
                let _owner = owner_lock();
                // Ordered before the stripe scan by the SeqCst fence (and
                // the barrier) that open `readers_quiesced`.
                self.word
                    .store(ptr::without_provenance_mut(DRAINING), Ordering::Relaxed);
                self.revocations.fetch_add(1, Ordering::Relaxed);
            }
        }
        if !readers_quiesced() {
            return false;
        }
        let _owner = owner_lock();
        self.word
            .store(ptr::without_provenance_mut(LOCKED), Ordering::Relaxed);
        true
    }

    /// `(revocations, rearms)` lifetime totals.
    pub fn counters(&self) -> (u64, u64) {
        (
            self.revocations.load(Ordering::Relaxed),
            self.rearms.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::retire::RetireList;

    #[test]
    fn revoke_waits_for_a_biased_reader_and_quiet_reads_rearm() {
        let pins = RetireList::new();
        let bias = ReadBias::default();
        let enter = || {
            let pin = pins.pin();
            ReadBias::admits(bias.admission(&pin)).then_some(pin)
        };
        let inside = enter().expect("starts armed");
        let revoke = || bias.try_revoke(|| (), || pins.readers_quiesced());
        let armed = || ReadBias::admits(bias.admission(&pins.pin()));
        assert!(!revoke(), "a biased reader is still inside");
        assert!(enter().is_none(), "revoked: go to the lock");
        drop(inside);
        assert!(revoke());
        assert!(revoke(), "already locked: nothing to wait for");
        assert_eq!(bias.counters(), (1, 0));
        bias.admit(ptr::without_provenance_mut(64));
        assert!(!armed(), "an owner's store leaves a revoked word");
        // (Not a range: the run is a single read in the model build.)
        let due =
            std::iter::repeat_n((), REARM_AFTER as usize - 1).map(|()| bias.note_locked_read());
        assert!(!due.fold(false, |a, b| a | b), "one read short of the run");
        assert!(revoke(), "a revocation restarts the run");
        let due: Vec<bool> = (0..REARM_AFTER).map(|_| bias.note_locked_read()).collect();
        assert_eq!(due.iter().position(|&d| d), Some(REARM_AFTER as usize - 1));
        bias.rearm(ptr::null_mut());
        assert!(armed());
        assert_eq!(bias.counters(), (1, 1));
        let word = ptr::without_provenance_mut(128);
        bias.admit(word);
        let pin = pins.pin();
        assert_eq!(
            bias.admission(&pin),
            word,
            "armed: the owner's value is the word"
        );
    }
}
