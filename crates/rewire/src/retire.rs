//! Epoch-based retirement of virtual areas.
//!
//! When a shortcut directory is rebuilt, the superseded [`VirtArea`] cannot
//! be unmapped immediately: a reader that loaded the old base just before
//! the rebuild may still be dereferencing it (one outside a read section
//! discards the value at validation, but the *load* must not fault). The
//! seed kept every retired area mapped forever, so VMA use grew with each
//! doubling until `vm.max_map_count` tripped. This module bounds that:
//!
//! * Readers wrap each shortcut access in a [`ReaderPin`] (a striped
//!   counter increment — nanoseconds, no locks, no contention between
//!   threads on different stripes).
//! * The writer hands superseded areas to [`RetireList::retire`], which
//!   stamps them with a monotonically increasing **epoch**. Retirement must
//!   happen only after the area is unpublished (no *new* reader can reach
//!   it), which the version bump that clears the serving word guarantees.
//! * [`RetireCore::try_reclaim`] snapshots the epoch, then observes every
//!   reader stripe at zero (each at its own moment). Any reader that
//!   pinned before the scan has, by then, dropped its pin; readers that
//!   pin during the scan can only see post-retirement state. Every area
//!   stamped at or before the snapshot is therefore unreachable and is
//!   munmapped (by dropping it, which also releases its VMA-budget
//!   charge).
//!
//! The scan tolerates short reader overlap by bounded spinning per stripe;
//! if a stripe never quiesces the tick gives up and retries on the next
//! maintenance poll. Reclamation can only be *delayed* by readers, never
//! unsound: an area is dropped strictly after every reader that could hold
//! its base has unpinned.
//!
//! Two pin/scan pairings exist, selected per list by [`PinStrategy`]:
//! the PR 3 **Dekker** pairing (reader: SeqCst RMW; reclaimer: SeqCst
//! fence), and the **asymmetric** pairing in which exclusive-slot readers
//! pin with plain load/store only and the reclaimer issues an expedited
//! `membarrier(2)` — a full barrier executed inside every running thread —
//! before its scan. `membarrier` support is probed and registered once at
//! pool init; anything short of full support degrades to Dekker, so the
//! fallback path is byte-for-byte the protocol PR 3 proved.
//!
//! The protocol's interleavings — and the necessity of each of its memory
//! orderings — are proved exhaustively by the loomish model tests in
//! `tests/loom_retire.rs` and `tests/loom_asym_pin.rs` (see
//! `CONCURRENCY.md`). The retirement machinery is generic
//! ([`RetireCore<T>`]) so those tests can retire an observable stand-in
//! resource instead of a real mapping.

use crate::sync::{fence, AtomicU64, AtomicUsize, Mutex, Ordering};
use crate::varea::VirtArea;

/// Number of *exclusive* reader slots. The first `STRIPES` threads to pin
/// each own one slot outright, which is what makes the asymmetric
/// plain-store pin sound (no other thread ever writes the slot). Threads
/// beyond that share the overflow stripes below through SeqCst RMWs.
///
/// Shrunk under the loomish feature so exhaustive model exploration stays
/// tractable (the reclaim scan visits every stripe).
#[cfg(not(feature = "loomish"))]
const STRIPES: usize = 32;
#[cfg(feature = "loomish")]
const STRIPES: usize = 2;

/// Shared overflow stripes for threads past the exclusive slots. Access is
/// always a SeqCst RMW (the PR 3 Dekker pairing) — collisions on a shared
/// counter must not lose updates, so the plain-store fast path is reserved
/// for exclusive slots.
#[cfg(not(feature = "loomish"))]
const OVERFLOW_STRIPES: usize = 8;
#[cfg(feature = "loomish")]
const OVERFLOW_STRIPES: usize = 1;

/// Bounded spins per stripe while waiting for in-flight readers (which
/// hold pins for nanoseconds) to drain during a reclaim scan.
#[cfg(not(feature = "loomish"))]
const SCAN_SPINS: usize = 1_000;
#[cfg(feature = "loomish")]
const SCAN_SPINS: usize = 2;

/// Event tallies a stripe carries beside its pin count, for the holder of
/// a [`ReaderPin`] to count what the pinned read did (the index counts
/// shortcut-served and traditional lookups).
pub const TALLIES: usize = 2;

/// One reader stripe: the pin count and the pinning thread's tallies share
/// a cache line no other exclusive-slot thread writes.
#[repr(align(128))]
#[derive(Default)]
struct Stripe {
    pins: AtomicUsize,
    tallies: [AtomicU64; TALLIES],
}

/// How reader pins pair with the reclaim scan. Fixed per [`RetireCore`] at
/// construction; surfaced through the facade's `StatsSnapshot`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PinStrategy {
    /// Asymmetric pins: readers on exclusive slots write their pin with
    /// plain/Release stores only (no RMW, no fence — load/store-only hot
    /// path), and the reclaimer issues
    /// `membarrier(MEMBARRIER_CMD_PRIVATE_EXPEDITED)` before its stripe
    /// scan to execute the heavy half of the barrier on every running
    /// thread at once. Requires a successful
    /// `MEMBARRIER_CMD_REGISTER_PRIVATE_EXPEDITED` (performed by
    /// [`PinStrategy::detect`] at pool init).
    Asymmetric,
    /// The PR 3 pairing: every pin is a SeqCst `fetch_add` Dekker-paired
    /// with the reclaimer's SeqCst fence. The compile/runtime fallback
    /// when `membarrier` is unavailable (non-Linux, ENOSYS, seccomp).
    Dekker,
}

impl PinStrategy {
    /// Probe and register `membarrier(2)` once per process; pools built
    /// without an explicit override call this at init. Returns
    /// [`PinStrategy::Asymmetric`] iff the kernel advertises
    /// `MEMBARRIER_CMD_PRIVATE_EXPEDITED` and accepts the registration —
    /// anything else (ENOSYS on old kernels, EPERM under strict seccomp,
    /// non-Linux targets) degrades to [`PinStrategy::Dekker`], which is
    /// exactly the PR 3 protocol.
    pub fn detect() -> PinStrategy {
        static DETECTED: std::sync::OnceLock<PinStrategy> = std::sync::OnceLock::new();
        *DETECTED.get_or_init(|| {
            #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
            {
                // SAFETY: membarrier takes no pointers; query and register
                // are side-effect-free beyond flagging this mm as
                // expedited-registered.
                let q = unsafe {
                    libc::syscall(libc::SYS_membarrier, libc::MEMBARRIER_CMD_QUERY, 0, 0)
                };
                let expedited = libc::MEMBARRIER_CMD_PRIVATE_EXPEDITED as libc::c_long;
                if q >= 0 && (q & expedited) != 0 {
                    // SAFETY: as above; registration arms the expedited
                    // command for every current and future thread.
                    let reg = unsafe {
                        libc::syscall(
                            libc::SYS_membarrier,
                            libc::MEMBARRIER_CMD_REGISTER_PRIVATE_EXPEDITED,
                            0,
                            0,
                        )
                    };
                    if reg == 0 {
                        return PinStrategy::Asymmetric;
                    }
                }
            }
            PinStrategy::Dekker
        })
    }
}

impl std::fmt::Display for PinStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PinStrategy::Asymmetric => "asymmetric",
            PinStrategy::Dekker => "dekker",
        })
    }
}

/// Issue the process-wide expedited barrier that pairs with asymmetric
/// pins. Returns `false` if the syscall failed — impossible after a
/// successful registration per the kernel contract, but the caller aborts
/// the scan rather than read the stripes unpaired if it ever happens.
fn expedited_barrier() -> bool {
    // Under an active model run the barrier is the loomish fence-injection
    // op (every model thread gets a SeqCst fence at its current program
    // point — see `loomish::sync::membarrier`).
    #[cfg(feature = "loomish")]
    if loomish::thread::model_thread_id().is_some() {
        loomish::sync::membarrier();
        return true;
    }
    #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
    {
        // SAFETY: membarrier takes no pointers; the expedited command only
        // IPIs the process's own running threads.
        let r = unsafe {
            libc::syscall(
                libc::SYS_membarrier,
                libc::MEMBARRIER_CMD_PRIVATE_EXPEDITED,
                0,
                0,
            )
        };
        r == 0
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        false
    }
}

/// "No slot yet": above every exclusive bound, so a thread's first pin
/// fails the fast path's one compare and claims out of line.
const UNCLAIMED: usize = usize::MAX;

thread_local! {
    /// Stripe of this thread. No destructor: a pin reads it with one load.
    static CLAIM: std::cell::Cell<usize> = const { std::cell::Cell::new(UNCLAIMED) };
    /// Hands the thread's exclusive slot back when the thread exits.
    static LEASE: SlotLease = const { SlotLease };
}

/// Bit `i`: exclusive slot `i` belongs to a live thread.
static TAKEN: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

struct SlotLease;

impl Drop for SlotLease {
    fn drop(&mut self) {
        // (A later destructor of this thread that pins claims afresh.)
        let slot = CLAIM.replace(UNCLAIMED);
        if slot < STRIPES {
            // Release: the next owner's Acquire claim sees this thread's
            // last plain stores to the slot's counters.
            TAKEN.fetch_and(!(1 << slot), std::sync::atomic::Ordering::Release);
        }
    }
}

/// Stripe of the calling thread, or [`UNCLAIMED`] before its first pin.
#[inline]
fn claimed_slot() -> usize {
    // Under an active model run, slot assignment must be a pure function
    // of the (deterministic) model thread id — process-global state would
    // hand different slots to the same logical thread across replayed
    // executions and break DFS replay.
    #[cfg(feature = "loomish")]
    if let Some(tid) = loomish::thread::model_thread_id() {
        return overflow_fold(tid);
    }
    CLAIM.get()
}

/// First pin of a thread: lease the lowest free exclusive slot (`< STRIPES`,
/// asym-eligible) until the thread exits, or — all taken, or the thread is
/// past running the lease's destructor — use a shared overflow stripe
/// (always RMW).
fn claim_slot() -> usize {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static OVERFLOWED: AtomicUsize = AtomicUsize::new(0);
    let leased = LEASE.try_with(|_| ()).is_ok();
    let mut taken = TAKEN.load(Ordering::Relaxed);
    let slot = loop {
        let free = (!taken).trailing_zeros() as usize;
        if !leased || free >= STRIPES {
            break overflow_fold(STRIPES + OVERFLOWED.fetch_add(1, Ordering::Relaxed));
        }
        let claimed = taken | 1 << free;
        match TAKEN.compare_exchange_weak(taken, claimed, Ordering::Acquire, Ordering::Relaxed) {
            Ok(_) => break free,
            Err(now) => taken = now,
        }
    };
    CLAIM.set(slot);
    slot
}

// `OVERFLOW_STRIPES` is 1 in the shrunk model build.
#[cfg_attr(feature = "loomish", allow(clippy::modulo_one))]
fn overflow_fold(i: usize) -> usize {
    if i < STRIPES {
        i
    } else {
        STRIPES + i % OVERFLOW_STRIPES
    }
}

/// `r`, its address held in one register from here on, so that pin and
/// unpin address the counter the same plain way (`[reg]`). Left to fold
/// `base + slot * 128` into the increment, the compiler makes the
/// decrement's reload of that store miss the fast forwarding path of
/// current x86-64 cores: 4 ns a pin/unpin pair against under 1.
#[inline(always)]
#[allow(clippy::pointers_in_nomem_asm_block)] // nothing is dereferenced
fn in_one_register<T>(r: &T) -> &T {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: the template is a comment: `p` leaves as it entered, still
    // pointing at `*r`, borrowed for as long.
    unsafe {
        let mut p: *const T = r;
        std::arch::asm!("/* {0} */", inout(reg) p, options(pure, nomem, nostack, preserves_flags));
        &*p
    }
    #[cfg(not(target_arch = "x86_64"))]
    r
}

/// Proof of an in-flight shortcut read. While any pin taken before a
/// reclaim scan is alive, no retired area is unmapped. Dropping the pin
/// releases the reader's stripe.
///
/// A pin stays on its thread — an exclusive slot's counters are written
/// with plain stores by their one owner — so it is neither `Send`:
///
/// ```compile_fail,E0277
/// let list = shortcut_rewire::RetireList::new();
/// let pin = list.pin();
/// std::thread::scope(|s| { s.spawn(move || drop(pin)); });
/// ```
///
/// nor `Sync`:
///
/// ```compile_fail,E0277
/// let list = shortcut_rewire::RetireList::new();
/// let pin = list.pin();
/// std::thread::scope(|s| { s.spawn(|| pin.tally(0, 1)); });
/// ```
pub struct ReaderPin<'a> {
    stripe: &'a Stripe,
    /// Taken through the asymmetric plain-store path (exclusive slot,
    /// [`PinStrategy::Asymmetric`]); the unpin must mirror it.
    asym: bool,
    _thread_confined: std::marker::PhantomData<*mut ()>,
}

impl<'a> ReaderPin<'a> {
    fn on(stripe: &'a Stripe, asym: bool) -> Self {
        ReaderPin {
            stripe,
            asym,
            _thread_confined: std::marker::PhantomData,
        }
    }

    /// Add `n` to tally `cell` (`< `[`TALLIES`]) of this pin's stripe. On
    /// an exclusive slot the pinning thread is the cell's only writer, so
    /// the count is a plain load + store; shared stripes pay the RMW.
    #[inline]
    pub fn tally(&self, cell: usize, n: u64) {
        let cell = &self.stripe.tallies[cell];
        if self.asym {
            cell.store(cell.load(Ordering::Relaxed) + n, Ordering::Relaxed);
        } else {
            tally_shared(cell, n);
        }
    }
}

// The RMW halves are out of line: a caller that inlines the exclusive
// path carries no `lock`-prefixed instruction.
#[cold]
#[inline(never)]
fn tally_shared(cell: &AtomicU64, n: u64) {
    cell.fetch_add(n, Ordering::Relaxed);
}

#[cold]
#[inline(never)]
fn unpin_shared(pins: &AtomicUsize) {
    // Release: every load the reader performed through the ticket base
    // happens-before a reclaimer that observes this stripe at zero.
    pins.fetch_sub(1, Ordering::Release);
}

impl Drop for ReaderPin<'_> {
    #[inline]
    fn drop(&mut self) {
        let pins = &self.stripe.pins;
        if self.asym {
            // Exclusive slot: this thread is the only writer, so the plain
            // load cannot race. Release on the store: every load the
            // reader performed through the ticket base happens-before a
            // reclaimer whose (membarrier-paired) scan observes the zero.
            pins.store(pins.load(Ordering::Relaxed) - 1, Ordering::Release);
        } else {
            unpin_shared(pins);
        }
    }
}

/// Resource managed by a [`RetireCore`]: reclaimed by dropping, with a
/// VMA-footprint estimate for the budget accounting.
pub trait Reclaimable {
    fn vma_estimate(&self) -> usize;
}

impl Reclaimable for VirtArea {
    fn vma_estimate(&self) -> usize {
        VirtArea::vma_estimate(self)
    }
}

struct Retired<T> {
    epoch: u64,
    area: T,
}

/// The pool's retirement machinery: reader stripes, the retirement epoch,
/// and the list of retired (still mapped) resources. See module docs.
///
/// Generic over the retired resource so the loomish model tests can retire
/// a drop-observable stand-in; production code uses the [`RetireList`]
/// alias over [`VirtArea`].
pub struct RetireCore<T> {
    strategy: PinStrategy,
    /// Slots below this pin with plain stores: [`STRIPES`] under
    /// [`PinStrategy::Asymmetric`], 0 under [`PinStrategy::Dekker`].
    exclusive: usize,
    stripes: [Stripe; STRIPES + OVERFLOW_STRIPES],
    epoch: AtomicU64,
    retired: Mutex<Vec<Retired<T>>>,
    areas_retired: AtomicU64,
    areas_reclaimed: AtomicU64,
    vmas_reclaimed: AtomicU64,
}

/// Retirement list for real virtual areas (the production instantiation).
pub type RetireList = RetireCore<VirtArea>;

impl<T> std::fmt::Debug for RetireCore<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RetireList")
            .field("epoch", &self.epoch.load(Ordering::Relaxed))
            .field("retired", &self.retired.lock().unwrap().len())
            .field("reclaimed", &self.areas_reclaimed.load(Ordering::Relaxed))
            .finish()
    }
}

impl<T: Reclaimable> Default for RetireCore<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Reclaimable> RetireCore<T> {
    /// Fresh list: epoch 0, nothing retired. Probes the kernel once per
    /// process ([`PinStrategy::detect`]) and uses the asymmetric pin when
    /// `membarrier` registration succeeds.
    pub fn new() -> Self {
        Self::with_strategy(PinStrategy::detect())
    }

    /// Fresh list with an explicit pin strategy — `Dekker` forces the
    /// PR 3 fallback pairing even where `membarrier` is available (used by
    /// the fallback-matrix tests), and the model suites pass an explicit
    /// strategy so each proof is deterministic about what it proves.
    ///
    /// `Asymmetric` is a request: the expedited command EPERMs unless the
    /// process registered, so outside a model run (where the barrier is
    /// the loomish op and needs no registration) the list takes what the
    /// cached probe found, and a host without `membarrier` gets `Dekker` —
    /// a list never holds a pairing whose barrier cannot be issued.
    pub fn with_strategy(strategy: PinStrategy) -> Self {
        #[cfg(feature = "loomish")]
        let in_model = loomish::thread::model_thread_id().is_some();
        #[cfg(not(feature = "loomish"))]
        let in_model = false;
        let strategy = if strategy == PinStrategy::Asymmetric && !in_model {
            PinStrategy::detect()
        } else {
            strategy
        };
        RetireCore {
            strategy,
            exclusive: if strategy == PinStrategy::Asymmetric {
                STRIPES
            } else {
                0
            },
            stripes: std::array::from_fn(|_| Stripe::default()),
            epoch: AtomicU64::new(0),
            retired: Mutex::new(Vec::new()),
            areas_retired: AtomicU64::new(0),
            areas_reclaimed: AtomicU64::new(0),
            vmas_reclaimed: AtomicU64::new(0),
        }
    }

    /// The pin/scan pairing this list was built with.
    pub fn pin_strategy(&self) -> PinStrategy {
        self.strategy
    }

    /// Enter a shortcut read. Must be taken **before** loading the
    /// published base pointer and held across every dereference of it;
    /// dropping the pin marks the read drained.
    ///
    /// Under [`PinStrategy::Dekker`] (and on the shared overflow stripes
    /// under either strategy) the SeqCst increment forms the reader half
    /// of a Dekker pattern with the fence in
    /// [`RetireCore::quiescent_epoch`]: either the scan observes this pin
    /// (and defers reclamation), or this reader's subsequent loads observe
    /// every store made before the scan — including the publication that
    /// unlinked any area the scan went on to reclaim, so the reader cannot
    /// obtain its base. We rely on the RCsc lowering of a SeqCst RMW (x86:
    /// `lock`-prefixed full barrier; ARMv8: LDAR/STLR, which later acquire
    /// loads cannot bypass) to order the increment before the ticket's
    /// base load without a separate `mfence`.
    ///
    /// Under [`PinStrategy::Asymmetric`] on an exclusive slot, the pin is
    /// a plain load + plain store + compiler fence: zero atomic-RMW and
    /// zero CPU barriers on the hot path. The pairing obligation moves
    /// wholesale to the reclaimer, whose expedited `membarrier` executes a
    /// full barrier *inside every running thread* between the pin store
    /// and any later load the reader performs — restoring exactly the
    /// either/or of the Dekker argument (see CONCURRENCY.md, "Asymmetric
    /// reader pins"). The compiler fence only forbids the *compiler* from
    /// sinking the pin store below the ticket's base load; the CPU side is
    /// the membarrier's job.
    #[inline]
    pub fn pin(&self) -> ReaderPin<'_> {
        self.pin_exclusive().unwrap_or_else(|| self.pin_slow())
    }

    /// [`RetireCore::pin`] where it needs no RMW — the calling thread's
    /// exclusive slot under [`PinStrategy::Asymmetric`] — and `None`,
    /// nothing pinned, anywhere else: for a fast path that leaves to a
    /// cold one, which pins, rather than carry the RMW pin's exits.
    #[inline]
    pub fn pin_exclusive(&self) -> Option<ReaderPin<'_>> {
        let slot = claimed_slot();
        if slot >= self.exclusive {
            return None;
        }
        debug_assert!(slot < STRIPES);
        // SAFETY: `slot < self.exclusive <= STRIPES`, inside `stripes`.
        let stripe = in_one_register(unsafe { self.stripes.get_unchecked(slot) });
        // Exclusive slot: this thread is the only writer, so the plain
        // load+store increment cannot lose updates.
        let pins = &stripe.pins;
        pins.store(pins.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        std::sync::atomic::compiler_fence(Ordering::SeqCst);
        Some(ReaderPin::on(stripe, true))
    }

    /// [`RetireCore::pin`] off the exclusive fast path: a thread's first
    /// pin, and every pin on a shared stripe or under the Dekker pairing.
    #[cold]
    #[inline(never)]
    fn pin_slow(&self) -> ReaderPin<'_> {
        let slot = claimed_slot();
        let slot = if slot == UNCLAIMED {
            claim_slot()
        } else {
            slot
        };
        if slot < self.exclusive {
            return self.pin();
        }
        let stripe = &self.stripes[slot];
        stripe.pins.fetch_add(1, Ordering::SeqCst);
        ReaderPin::on(stripe, false)
    }

    /// Sum of every stripe's tallies ([`ReaderPin::tally`]). Exclusive-slot
    /// cells are written with plain stores, so the sum is exact for counts
    /// made by threads the caller has synchronised with (joined, or handed
    /// a result by) and a recent lower bound otherwise.
    pub fn tallies(&self) -> [u64; TALLIES] {
        let mut sum = [0; TALLIES];
        for stripe in &self.stripes {
            for (total, cell) in sum.iter_mut().zip(&stripe.tallies) {
                *total += cell.load(Ordering::Relaxed);
            }
        }
        sum
    }

    /// Hand a superseded area to the list. The caller must have unpublished
    /// it first (no new reader can obtain its base). Returns the retirement
    /// epoch stamped onto the area.
    pub fn retire(&self, area: T) -> u64 {
        let epoch = self.advance_epoch();
        self.areas_retired.fetch_add(1, Ordering::Relaxed);
        self.retired.lock().unwrap().push(Retired { epoch, area });
        epoch
    }

    /// Advance the retirement epoch and return the new value, without
    /// retiring an area. Used by [`crate::PagePool::retire_page`], which
    /// stamps relocated *bucket pages* with the same epoch stream so that
    /// a page is only returned to the allocator once every reader pin
    /// taken before its retirement has drained.
    pub fn advance_epoch(&self) -> u64 {
        self.epoch.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Run one reader-quiescence scan: snapshot the epoch, then observe
    /// every reader stripe at zero (each at its own moment, with bounded
    /// spinning). On success, everything retired at or before the returned
    /// epoch is unreachable; `None` means a reader kept a stripe busy —
    /// retry on the next tick.
    pub fn quiescent_epoch(&self) -> Option<u64> {
        // Everything retired up to here is reclaimable *if* the scan below
        // completes: those retirements were unpublished before this load.
        let safe_epoch = self.epoch.load(Ordering::SeqCst);
        self.readers_quiesced().then_some(safe_epoch)
    }

    /// Pair with every reader pin, then observe each stripe at zero (each
    /// at its own moment, with bounded spinning). `true`: every read
    /// pinned before this call has drained, and every later one observes
    /// the stores the caller made before it. `false`: a reader kept a
    /// stripe busy (or, against the kernel's contract, the barrier
    /// failed) — call again. The reclaimer and a writer revoking a
    /// [`crate::ReadBias`] both wait for readers through this.
    pub fn readers_quiesced(&self) -> bool {
        // Writer half of the Dekker pattern with the SeqCst increment in
        // `pin` (see there): order the caller's earlier stores and loads
        // (epoch snapshot, unpublication, bias revocation) ahead of the
        // stripe scan. Kept unconditionally — overflow-stripe pins (and
        // the Dekker fallback) always take the RMW path and pair with
        // this fence.
        fence(Ordering::SeqCst);
        // Asymmetric half: run a full barrier inside every running thread
        // of the process, so each exclusive-slot reader sits strictly
        // before it (pin store globally visible to the scan below) or
        // strictly after it (its next load sees the stores that preceded
        // this call). Registration succeeded at init, so failure is
        // unexpected; report the scan as incomplete if it happens.
        if self.strategy == PinStrategy::Asymmetric && !expedited_barrier() {
            return false;
        }
        self.scan_stripes().is_some()
    }

    fn scan_stripes(&self) -> Option<()> {
        for stripe in &self.stripes {
            let mut spins = 0;
            // Acquire: observing zero synchronizes with the Release
            // decrement of every drained reader, ordering their loads
            // before the munmap / page reuse.
            while stripe.pins.load(Ordering::Acquire) != 0 {
                spins += 1;
                if spins > SCAN_SPINS {
                    return None; // readers still in flight; retry later
                }
                std::hint::spin_loop();
            }
        }
        Some(())
    }

    /// Attempt to reclaim every area whose retirement epoch is covered by a
    /// full reader-quiescence scan. Returns the number of areas unmapped
    /// (0 when readers kept a stripe busy — retry on the next tick).
    pub fn try_reclaim(&self) -> usize {
        self.reclaim_up_to(|list| list.quiescent_epoch())
    }

    fn reclaim_up_to(&self, quiesce: impl FnOnce(&Self) -> Option<u64>) -> usize {
        if self.retired_count() == 0 {
            return 0;
        }
        let Some(safe_epoch) = quiesce(self) else {
            return 0;
        };
        let drained: Vec<Retired<T>> = {
            let mut list = self.retired.lock().unwrap();
            let mut keep = Vec::new();
            let mut gone = Vec::new();
            for r in list.drain(..) {
                if r.epoch <= safe_epoch {
                    gone.push(r);
                } else {
                    keep.push(r);
                }
            }
            *list = keep;
            gone
        };
        let n = drained.len();
        for r in &drained {
            self.vmas_reclaimed
                .fetch_add(r.area.vma_estimate() as u64, Ordering::Relaxed);
        }
        self.areas_reclaimed.fetch_add(n as u64, Ordering::Relaxed);
        drop(drained); // munmap + budget release via VirtArea::drop
        n
    }

    /// Retired areas still mapped.
    pub fn retired_count(&self) -> usize {
        self.retired.lock().unwrap().len()
    }

    /// Estimated VMAs currently held by retired (not yet reclaimed) areas.
    /// Together with [`crate::VmaBudget::in_use`] this yields the
    /// live-vs-retired split surfaced in [`crate::VmaSnapshot`].
    pub fn retired_vmas(&self) -> usize {
        self.retired
            .lock()
            .unwrap()
            .iter()
            .map(|r| r.area.vma_estimate())
            .sum()
    }

    /// `(areas_retired, areas_reclaimed, vmas_reclaimed)` lifetime totals.
    pub fn counters(&self) -> (u64, u64, u64) {
        (
            self.areas_retired.load(Ordering::Relaxed),
            self.areas_reclaimed.load(Ordering::Relaxed),
            self.vmas_reclaimed.load(Ordering::Relaxed),
        )
    }
}

/// Deliberately-broken protocol variants, compiled only for the model
/// tests: each drops exactly one link of the happens-before chain that the
/// loomish suite must prove load-bearing. Never call these outside
/// `tests/loom_retire.rs` — they exist so the checker's teeth are
/// themselves under test (a model that passes the real protocol but fails
/// to flag these would be vacuous).
#[cfg(feature = "loomish")]
impl<T: Reclaimable> RetireCore<T> {
    /// Seeded bug: the pin increment relaxed from SeqCst. The reclaim
    /// scan's fence can no longer pair with it — the scan may miss a live
    /// pin *and* the reader may miss the unpublication.
    pub fn pin_seeded_relaxed(&self) -> ReaderPin<'_> {
        let stripe = &self.stripes[claimed_slot()];
        stripe.pins.fetch_add(1, Ordering::Relaxed);
        ReaderPin::on(stripe, false)
    }

    /// Seeded bug: `quiescent_epoch` without the SeqCst fence between the
    /// epoch snapshot and the stripe scan.
    pub fn try_reclaim_seeded_unfenced(&self) -> usize {
        self.reclaim_up_to(|list| {
            let safe_epoch = list.epoch.load(Ordering::SeqCst);
            // fence(Ordering::SeqCst) dropped — the scan below is free to
            // read stale stripe values even though a pin is live.
            list.scan_stripes()?;
            Some(safe_epoch)
        })
    }

    /// Seeded bug: epoch snapshot reordered *after* the stripe scan. A
    /// retirement that lands between the scan and the snapshot gets
    /// covered by the returned epoch without its readers being verified.
    pub fn try_reclaim_seeded_scan_first(&self) -> usize {
        self.reclaim_up_to(|list| {
            list.scan_stripes()?;
            fence(Ordering::SeqCst);
            Some(list.epoch.load(Ordering::SeqCst))
        })
    }

    /// Seeded bug for the asymmetric strategy: the reclaimer keeps its own
    /// SeqCst fence but drops the expedited membarrier. A reclaimer-local
    /// fence cannot pair with a reader's plain pin store — the store may
    /// never have entered the globally-agreed order the scan reads from,
    /// so the scan can observe a stale zero while the pin is live.
    pub fn try_reclaim_seeded_no_membarrier(&self) -> usize {
        self.reclaim_up_to(|list| {
            let safe_epoch = list.epoch.load(Ordering::SeqCst);
            fence(Ordering::SeqCst);
            // expedited_barrier() dropped — nothing forces the asymmetric
            // readers' pin stores into view before the scan.
            list.scan_stripes()?;
            Some(safe_epoch)
        })
    }

    /// Seeded bug for the asymmetric strategy: the membarrier issued only
    /// *after* the stripe scan. The scan reads unpaired (same failure as
    /// the no-membarrier seed); barriering afterwards is too late to
    /// un-miss a live pin.
    pub fn try_reclaim_seeded_barrier_after_scan(&self) -> usize {
        self.reclaim_up_to(|list| {
            let safe_epoch = list.epoch.load(Ordering::SeqCst);
            fence(Ordering::SeqCst);
            list.scan_stripes()?;
            expedited_barrier();
            Some(safe_epoch)
        })
    }

    /// Seeded bug: [`RetireCore::readers_quiesced`] without its fence and
    /// barrier — the bare stripe scan, paired with no pin. The seeded
    /// writer of `shortcut-core`'s `tests/loom_admission.rs` waits for
    /// readers with it.
    pub fn readers_quiesced_seeded_unpaired(&self) -> bool {
        self.scan_stripes().is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn area(pages: usize) -> VirtArea {
        VirtArea::reserve(pages).unwrap()
    }

    #[test]
    fn unpinned_retirements_reclaim_immediately() {
        let list = RetireList::new();
        list.retire(area(4));
        list.retire(area(2));
        assert_eq!(list.retired_count(), 2);
        assert_eq!(list.try_reclaim(), 2);
        assert_eq!(list.retired_count(), 0);
        let (retired, reclaimed, vmas) = list.counters();
        assert_eq!((retired, reclaimed), (2, 2));
        assert_eq!(vmas, 2); // two fully-anonymous areas: one VMA each
    }

    #[test]
    fn pin_blocks_reclaim_until_dropped() {
        let list = RetireList::new();
        let pin = list.pin();
        list.retire(area(1));
        assert_eq!(list.try_reclaim(), 0, "must not unmap under a pin");
        assert_eq!(list.retired_count(), 1);
        drop(pin);
        assert_eq!(list.try_reclaim(), 1);
    }

    #[test]
    fn post_scan_retirements_wait_for_next_epoch() {
        let list = RetireList::new();
        list.retire(area(1));
        let e2 = list.retire(area(1));
        assert_eq!(e2, 2);
        assert_eq!(list.try_reclaim(), 2);
        // A fresh retirement needs a fresh scan.
        list.retire(area(1));
        assert_eq!(list.retired_count(), 1);
        assert_eq!(list.try_reclaim(), 1);
    }

    #[test]
    fn forced_dekker_lifecycle_matches_default() {
        // The fallback strategy must behave identically through the public
        // API: pin blocks, drop drains, counters advance.
        let list = RetireCore::<VirtArea>::with_strategy(PinStrategy::Dekker);
        assert_eq!(list.pin_strategy(), PinStrategy::Dekker);
        let pin = list.pin();
        list.retire(area(1));
        assert_eq!(list.try_reclaim(), 0, "must not unmap under a pin");
        drop(pin);
        assert_eq!(list.try_reclaim(), 1);
        assert_eq!(list.counters(), (1, 1, 1));
    }

    #[test]
    fn detect_is_stable_and_asym_works_where_advertised() {
        let s = PinStrategy::detect();
        assert_eq!(s, PinStrategy::detect(), "detection must be cached");
        // Whatever the host offers, the auto-constructed list must honour
        // the pin/scan contract.
        let list = RetireList::new();
        assert_eq!(list.pin_strategy(), s);
        let pin = list.pin();
        list.retire(area(1));
        assert_eq!(list.try_reclaim(), 0, "must not unmap under a pin");
        drop(pin);
        assert_eq!(list.try_reclaim(), 1);
    }

    // (The model build has 2 exclusive slots, fewer than the harness's own
    // threads hold at a time.)
    #[cfg(not(feature = "loomish"))]
    #[test]
    fn exclusive_slots_return_when_their_thread_exits() {
        let list = RetireList::new();
        // Three times the slots there are, one thread alive at a time.
        for i in 0..100 {
            let slot = std::thread::scope(|s| {
                let pinned = s.spawn(|| {
                    drop(list.pin());
                    CLAIM.get()
                });
                pinned.join().unwrap()
            });
            assert!(slot < STRIPES, "thread {i} pinned on shared stripe {slot}");
        }
        assert_eq!(list.try_reclaim(), 0, "nothing retired, every pin drained");
        assert!(list.readers_quiesced());
    }

    #[test]
    fn pins_from_many_threads_drain() {
        let list = std::sync::Arc::new(RetireList::new());
        list.retire(area(1));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let l = std::sync::Arc::clone(&list);
                s.spawn(move || {
                    for _ in 0..1_000 {
                        let _p = l.pin();
                    }
                });
            }
        });
        assert_eq!(list.try_reclaim(), 1);
    }
}
