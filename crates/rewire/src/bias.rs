//! Read bias: the read side of a reader-writer lock replaced, while no
//! writer is around, by the reader's own pin and one load.
//!
//! A reader-writer lock costs every read two atomic RMWs on the lock word
//! even when nothing ever writes. [`ReadBias`] sits in front of such a
//! lock and reuses the reader presence [`RetireCore::pin`] already
//! publishes: while the bias is *armed*, a reader pins, loads the bias
//! word, and is inside without touching the lock. A writer takes the
//! lock's write side, then *revokes* the bias — clears the word, pairs
//! with every pin exactly as the reclaimer does
//! ([`RetireCore::readers_quiesced`]) and waits for the stripes to drain.
//! Readers then take the lock's read side until [`REARM_AFTER`]
//! writer-free locked reads in a row arm the bias again.
//!
//! Every word here except the readers' load of `state` is accessed only
//! under the lock, whose hand-off orders it. The argument is in
//! CONCURRENCY.md ("Shard read bias"); `tests/loom_shard_bias.rs` checks
//! the composition exhaustively.

use crate::retire::{ReaderPin, Reclaimable, RetireCore};
use crate::sync::{AtomicU64, AtomicUsize, Ordering};

/// Writer-free locked reads after which the bias arms again. The worst
/// case, a writer that returns right after every re-arm, pays one
/// revocation (15 µs on the 2-vCPU reference host: an expedited
/// `membarrier` plus a stripe scan) per this many reads: under 2 ns on
/// each, a twentieth of a locked `get` (39 ns there; 22 ns biased), where
/// a tenth is the most this constant may allow.
#[cfg(not(feature = "loomish"))]
pub const REARM_AFTER: u64 = 8192;
/// Shrunk under the model so one locked read re-arms.
#[cfg(feature = "loomish")]
pub const REARM_AFTER: u64 = 1;

/// Readers enter on their pin alone.
const ARMED: usize = 0;
/// A writer cleared the bias; readers that entered on it may still be in.
const DRAINING: usize = 1;
/// Every biased reader has left; readers and writers use the lock.
const LOCKED: usize = 2;

/// The bias word of one lock-guarded structure and its bookkeeping;
/// starts armed. See the module docs for the protocol and who may call
/// what.
#[derive(Debug, Default)]
pub struct ReadBias {
    state: AtomicUsize,
    /// Locked reads since the last writer.
    quiet_reads: AtomicU64,
    revocations: AtomicU64,
    rearms: AtomicU64,
}

impl ReadBias {
    /// Reader fast path: publish a pin on `pins`, then look at the bias.
    /// `Some(pin)` puts the caller inside the read section for as long as
    /// it holds the pin (which also covers reads of the published
    /// shortcut); `None` sends it to the lock's read side, pin dropped —
    /// never block while pinned.
    #[inline]
    pub fn try_enter<'a, T: Reclaimable>(&self, pins: &'a RetireCore<T>) -> Option<ReaderPin<'a>> {
        let pin = pins.pin();
        // Acquire: pairs with the Release re-arm in `note_locked_read`,
        // which happened under a read lock taken after the last writer's
        // unlock — so everything that writer wrote is visible in here.
        (self.state.load(Ordering::Acquire) == ARMED).then_some(pin)
    }

    /// Whether readers currently enter on their pin alone (diagnostics;
    /// a reader must use [`ReadBias::try_enter`], which pins first).
    pub fn is_armed(&self) -> bool {
        self.state.load(Ordering::Acquire) == ARMED
    }

    /// Count one read made under the lock's **read side**; the
    /// [`REARM_AFTER`]th without a writer arms the bias. Safe because of
    /// the read lock: no writer is inside, and the next one takes the
    /// write lock after this store and revokes.
    pub fn note_locked_read(&self) {
        if self.quiet_reads.fetch_add(1, Ordering::Relaxed) + 1 == REARM_AFTER {
            self.state.store(ARMED, Ordering::Release);
            self.rearms.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Writer side, holding the lock's **write side** and before touching
    /// the guarded data: revoke the bias and wait for the readers that
    /// entered on it, through `readers_quiesced` — which must be
    /// [`RetireCore::readers_quiesced`] of the list the readers pin (the
    /// model suite seeds a broken one). `false`: some were still inside
    /// after a bounded scan — yield and call again until `true`.
    pub fn try_revoke(&self, readers_quiesced: impl FnOnce() -> bool) -> bool {
        self.quiet_reads.store(0, Ordering::Relaxed);
        match self.state.load(Ordering::Relaxed) {
            LOCKED => return true,
            ARMED => {
                // Ordered before the stripe scan by the SeqCst fence (and
                // the barrier) that open `readers_quiesced`.
                self.state.store(DRAINING, Ordering::Relaxed);
                self.revocations.fetch_add(1, Ordering::Relaxed);
            }
            // A scan that gave up left readers unaccounted for: scan again.
            _ => {}
        }
        if !readers_quiesced() {
            return false;
        }
        self.state.store(LOCKED, Ordering::Relaxed);
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
        let inside = bias.try_enter(&pins).expect("starts armed");
        let revoke = || bias.try_revoke(|| pins.readers_quiesced());
        assert!(!revoke(), "a biased reader is still inside");
        assert!(bias.try_enter(&pins).is_none(), "revoked: go to the lock");
        drop(inside);
        assert!(revoke());
        assert!(revoke(), "already locked: nothing to wait for");
        assert_eq!(bias.counters(), (1, 0));
        // (Not a range: the run is a single read in the model build.)
        std::iter::repeat_n((), REARM_AFTER as usize - 1).for_each(|()| bias.note_locked_read());
        assert!(!bias.is_armed(), "one read short of the run");
        assert!(revoke(), "a writer restarts the run");
        for _ in 0..REARM_AFTER {
            bias.note_locked_read();
        }
        assert!(bias.is_armed());
        assert_eq!(bias.counters(), (1, 1));
        assert!(bias.try_enter(&pins).is_some());
    }
}
