//! Asynchronous shortcut maintenance (paper §4.1).
//!
//! All directory-modifying operations are reflected synchronously in the
//! *traditional* directory; the shortcut directory replays them
//! asynchronously. Coordination runs through a FIFO queue — a vector
//! behind one mutex, appended to once per relay and swapped out whole by
//! the mapper:
//!
//! * **Update** — after a bucket split, two (or more) slots must be
//!   remapped; the index pushes one request per slot carrying the slot
//!   index and the pool page (file offset) to map it to.
//! * **Create** — after a directory doubling, the old shortcut is obsolete;
//!   the index pushes the new slot count plus the full assignment vector.
//!   Pending updates that precede a create are superseded and discarded.
//!
//! A separate **mapper thread** polls the queue at a fixed interval (the
//! paper found 25 ms to work well), executes requests, eagerly populates
//! the page table, and only then stamps the shortcut's version — so no
//! access through an in-sync shortcut ever takes a page fault.
//!
//! **Relays.** A write hands its directory change over as one *relay*
//! ([`InboxGuard::relay`]): one version bump and its requests, under the
//! queue's lock. The mapper reads the version with the queue it takes and
//! stamps that; at the pass's end, under the lock again, it serves what it
//! published if that is still the traditional version.
//!
//! **Passes.** What the mapper finds queued when it wakes is one *pass*
//! ([`MapperEngine::pass`]): the create at its head, then the updates
//! behind it as one sorted list whose slots first lose their page-table
//! entries through a vectored `MADV_DONTNEED`
//! ([`shortcut_rewire::VirtArea::zap`]: one TLB shootdown per call, where
//! rewiring populated slots costs one each), then one publish. Then it
//! parks until the tick, a backlog of [`WAKE_BACKLOG`] or a demand
//! ([`Maintainer::wait_sync`]).
//!
//! **Retired-area lifecycle.** A create supersedes the previous shortcut
//! area. It is *retired* into the pool's [`shortcut_rewire::RetireList`]
//! (epoch-stamped, kept mapped): a reader outside a read section that
//! raced the rebuild reads stale but *mapped* memory and its ticket check
//! makes it discard the value. On every poll tick the mapper drives
//! reclamation — a retired area is munmapped once every reader pin taken
//! before its retirement has drained — so VMA use plateaus at roughly the
//! live directory instead of growing with every doubling as it did in the
//! seed.
//!
//! **VMA budget.** Before building a directory the mapper asks the pool's
//! [`shortcut_rewire::VmaBudget`] whether the rebuild's mapping footprint
//! fits under `vm.max_map_count`. If not (even after retiring the stale
//! current area and reclaiming), the create is **skipped** and the state
//! is marked *suspended*: lookups keep working through the traditional
//! directory, and the index no longer dies inside `mmap` with `ENOMEM`.

use crate::metrics::{MaintMetrics, MaintSnapshot};
use crate::shortcut_node::ShortcutNode;
use crate::version::{ReadLine, SharedDirectoryState};
use shortcut_rewire::{Error, PageIdx, PoolHandle, Result, RetireList, ZapCall};
use std::ops::Range;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Mappings left unaccounted for the rest of the process (binary, heap,
/// stacks, the pool view's transient splits) when admitting a rebuild.
/// Re-exported from the budget layer (where fair-share arithmetic needs
/// the same number) so producers — the write path's suspension rescue —
/// can target exactly what admission will accept.
pub use shortcut_rewire::budget_headroom;

/// Maximum coarsening of the published shortcut depth (up to 2⁴ = 16×
/// fewer slots) tried by rebuild admission before a create is refused.
pub const MAX_PUBLISH_SHIFT: u32 = 4;

/// Derive the `shift`-coarser directory from a **full** assignment vector
/// (`assignments[i].0 == i`): coarse slot `s` maps the page of its first
/// covered fine slot. Buckets with `local_depth ≤ published_depth` cover
/// whole coarse slots, so they resolve exactly; deeper buckets share a
/// coarse slot with a sibling and are detected by readers via the
/// bucket's stored local depth (they fall back to the traditional
/// directory for those keys).
fn coarsen_assignments(assignments: &[(usize, PageIdx)], shift: u32) -> Vec<(usize, PageIdx)> {
    let coarse_slots = assignments.len() >> shift;
    (0..coarse_slots)
        .map(|s| {
            let (slot, page) = assignments[s << shift];
            debug_assert_eq!(slot, s << shift, "assignments must be full and sorted");
            (s, page)
        })
        .collect()
}

/// Service census of a **full, sorted** assignment vector: `resolvable[s]`
/// counts the buckets — maximal runs of consecutive slots mapping the same
/// pool slot, which are exactly the covering ranges — that span at least
/// `2^s` fine slots, i.e. whose local depth still fits a publish `s`
/// levels coarser. Those are the buckets such a publish resolves through
/// the shortcut; deeper buckets fall back per key via the reader-side
/// local-depth check. Returns `(total_buckets, resolvable)`.
pub fn service_census(assignments: &[(usize, PageIdx)], max_shift: u32) -> (usize, Vec<usize>) {
    let mut total = 0usize;
    let mut resolvable = vec![0usize; max_shift as usize + 1];
    let mut i = 0;
    while i < assignments.len() {
        let page = assignments[i].1;
        let mut run = 1;
        while i + run < assignments.len() && assignments[i + run].1 == page {
            run += 1;
        }
        total += 1;
        for (s, r) in resolvable.iter_mut().enumerate() {
            if run >= (1usize << s) {
                *r += 1;
            }
        }
        i += run;
    }
    (total, resolvable)
}

/// Queue length that wakes a parked mapper ahead of its tick.
pub const WAKE_BACKLOG: usize = 512;

/// A directory change, as the index records it and relays it to the
/// mapper ([`InboxGuard::relay`]).
#[derive(Debug, Clone)]
pub enum MaintRequest {
    /// A bucket split redirected `slots` (the upper half of the split
    /// bucket's covering range): remap each of them.
    Update {
        /// Slots to remap.
        slots: Range<usize>,
        /// Pool page of the bucket they must reference.
        ppage: PageIdx,
    },
    /// The directory doubled, or its buckets moved (compaction): replace
    /// the shortcut with a fresh one.
    Create {
        /// Slot count of the new directory.
        slots: usize,
        /// Complete `(slot, pool page)` assignment, sorted by slot.
        assignments: Vec<(usize, PageIdx)>,
    },
}

/// Whether bucket pages are physically compacted into directory order.
///
/// A scattered bucket layout costs roughly one VMA per directory slot
/// (adjacent slots map non-consecutive pool offsets, so the kernel cannot
/// merge them); laid out in directory order, fan-in-1 runs become identity
/// mappings that collapse into a handful of VMAs. Compaction is one pass —
/// the index's write path, the only place with exclusive access to the
/// bucket pages, sorts them all and hands the mapper one rebuild — run at
/// every directory doubling, when the pool's mappings cross half of its
/// share of the budget, and to rescue a suspended or coarsely published
/// shortcut. Here it switches rebuild admission from worst-case to
/// layout-exact reservations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionPolicy {
    enabled: bool,
}

impl CompactionPolicy {
    /// No page relocation, worst-case rebuild admission. This is the
    /// default.
    pub fn disabled() -> Self {
        CompactionPolicy { enabled: false }
    }

    /// The recommended production policy: compaction on.
    pub fn on() -> Self {
        CompactionPolicy { enabled: true }
    }

    /// Whether compaction is on (this also switches rebuild admission
    /// from worst-case to layout-exact reservations, because compaction
    /// bounds how far the layout can fragment).
    pub fn enabled(&self) -> bool {
        self.enabled
    }
}

/// Mapper configuration.
#[derive(Debug, Clone)]
pub struct MaintConfig {
    /// Queue polling interval of the mapper thread (paper: 25 ms). The
    /// first mapper of the process keeps it exactly; later ones stagger
    /// past it ([`staggered_poll_interval`]), so co-spawned sharded
    /// mappers spread their reclaim ticks instead of scanning in lockstep.
    pub poll_interval: Duration,
    /// Whether rewirings eagerly populate the page table (`MAP_POPULATE`).
    /// The paper's design always populates before bumping the version.
    pub eager_populate: bool,
    /// Physical bucket-layout compaction (see [`CompactionPolicy`];
    /// default disabled).
    pub compaction: CompactionPolicy,
}

impl Default for MaintConfig {
    fn default() -> Self {
        MaintConfig {
            poll_interval: Duration::from_millis(25),
            eager_populate: true,
            compaction: CompactionPolicy::default(),
        }
    }
}

/// Deterministic per-mapper poll staggering: mapper number `seq` (in
/// process-wide spawn order) polls every `base + base * step/256`, where
/// `step` walks 1..=64 — i.e. up to +25 % of the base, in distinct
/// increments for up to 64 co-resident mappers. Mapper 0 keeps `base`
/// exactly. Two mappers started together therefore *cannot* share a
/// period, so their idle ticks (reclaim scans, deferred-create retries)
/// drift apart instead of thundering onto the shared budget at the same
/// instant.
pub fn staggered_poll_interval(base: Duration, seq: usize) -> Duration {
    if seq == 0 {
        return base;
    }
    let step = ((seq - 1) % 64) as u32 + 1;
    base + base * step / 256
}

/// Process-wide mapper spawn counter feeding [`staggered_poll_interval`].
fn next_mapper_seq() -> usize {
    static SEQ: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    SEQ.fetch_add(1, Ordering::Relaxed)
}

/// A [`MaintRequest::Create`] deferred, with the version of the last pass
/// that folded into it: `(slots, assignments, version)`.
type Rebuild = (usize, Vec<(usize, PageIdx)>, u64);

/// The synchronous core of the mapper: applies requests to the shortcut it
/// owns. Separated from the thread so the logic is unit-testable and so
/// benches can drive maintenance deterministically.
pub struct MapperEngine {
    pool: PoolHandle,
    state: Arc<SharedDirectoryState>,
    /// The inbox a [`Maintainer`] running this engine shares with it; its
    /// lock is what a pass ends under and every version bump takes.
    shared: Arc<Shared>,
    metrics: Arc<MaintMetrics>,
    cfg: MaintConfig,
    current: Option<ShortcutNode>,
    /// A create that was skipped because its footprint did not fit the
    /// budget *at that moment* (e.g. a reader pin stalled the reclaim
    /// scan). Retried on poll ticks once it would fit, so a transient
    /// reclaim failure does not suspend the shortcut permanently.
    /// Superseded by any newer create.
    deferred: Option<Rebuild>,
    /// `traditional_depth − published_depth` of the current node: 0 when
    /// the shortcut resolves the full directory, > 0 when admission
    /// coarsened the published depth to fit the budget. Update slots are
    /// shifted right by this amount before being applied.
    published_shift: u32,
    /// Smallest footprint any *admissible* depth of the deferred create
    /// would reserve (exact depth, or a coarser depth that still
    /// resolves at least one bucket) — computed when the create is
    /// deferred, so the per-tick retry probe is one O(1) `would_fit_for`
    /// that agrees with what admission will actually accept. Folded
    /// updates can leave it slightly stale; a retry that then fails
    /// recomputes it, so the probe self-corrects instead of looping.
    deferred_min_want: usize,
    /// The vectored PTE drop ahead of a batch of updates: the process's
    /// (tests inject others), `None` from the first call that fails.
    zap: Option<ZapCall>,
}

impl MapperEngine {
    /// Build an engine that maintains shortcuts over `pool`.
    pub fn new(
        pool: PoolHandle,
        state: Arc<SharedDirectoryState>,
        metrics: Arc<MaintMetrics>,
        cfg: MaintConfig,
    ) -> Self {
        MapperEngine {
            pool,
            state,
            shared: Arc::default(),
            metrics,
            cfg,
            current: None,
            deferred: None,
            published_shift: 0,
            deferred_min_want: 0,
            zap: shortcut_rewire::zap_call(),
        }
    }

    /// The inbox lock of this engine (see [`InboxGuard`]): what a test
    /// that drives the engine without its thread relays under.
    pub fn inbox_lock(&self) -> InboxGuard<'_> {
        self.shared.lock(&self.state)
    }

    /// One pass, as the mapper thread runs it (a test without the thread
    /// runs it by hand). Returns the number of requests consumed.
    pub fn pass(&mut self) -> Result<usize> {
        self.run_pass().1
    }

    /// One pass: take what is queued and the traditional version under the
    /// inbox lock; apply them, then the reclaim tick (retired areas drain,
    /// a deferred create is retried); then, under the lock again — which
    /// it returns held — serve what the pass published and count it.
    fn run_pass(&mut self) -> (MutexGuard<'_, Inbox>, Result<usize>) {
        let (batch, version) = {
            let mut inbox = self.shared.inbox();
            inbox.demand = false;
            inbox.in_pass = true;
            (
                std::mem::take(&mut inbox.queue),
                self.state.traditional_version(),
            )
        };
        let polls = if batch.is_empty() {
            &self.metrics.idle_polls
        } else {
            &self.metrics.busy_polls
        };
        polls.add(1);
        let pass = self
            .apply_batch(batch, version)
            .and_then(|n| self.reclaim_tick().map(|_| n));
        let mut inbox = self.shared.inbox();
        inbox.in_pass = false;
        // Serve what the pass published if it is still the traditional
        // version: compared and stored under the lock the write path bumps
        // and a shard revokes its bias under, so neither falls in between.
        // SAFETY: `inbox` holds that lock.
        unsafe { self.state.refresh_serving() };
        // Counted under the lock `wait_sync` reads the count under: who
        // sees it sees what the pass published and whether it left the
        // shortcut suspended.
        self.metrics.passes.add(1);
        self.shared.done.notify_all();
        (inbox, pass)
    }

    /// Apply one pass's requests, taken at traditional `version`: the
    /// create at the head of the queue, if any (a relay's create clears
    /// what is queued ahead of it), then the updates behind it, one
    /// `(slot, page)` per redirected slot, as one batch (one vectored zap
    /// per [`shortcut_rewire::ZAP_BATCH`] slots, one publish).
    fn apply_batch(&mut self, batch: Vec<MaintRequest>, version: u64) -> Result<usize> {
        let n = batch.len();
        let mut updates = Vec::new();
        for req in batch {
            match req {
                MaintRequest::Update { slots, ppage } => {
                    updates.extend(slots.map(|slot| (slot, ppage)));
                }
                MaintRequest::Create { slots, assignments } => {
                    debug_assert!(updates.is_empty(), "a create behind an update");
                    self.apply_create(slots, assignments, version)?;
                }
            }
        }
        self.apply_updates(updates, version)?;
        Ok(n)
    }

    /// Apply the updates of one pass, in FIFO order, as **one** sorted,
    /// last-wins assignment list: zap, rewire, touch, publish `version`
    /// once. The shortcut is out of sync from the relay of the first of
    /// them until that publish (the relay bumped the traditional version),
    /// so no reader takes an answer from a slot this touches. A stale
    /// update — one no directory of the engine resolves — is discarded,
    /// and the pass then publishes nothing: the shortcut stays out of sync.
    fn apply_updates(&mut self, updates: Vec<(usize, PageIdx)>, version: u64) -> Result<()> {
        let live_slots = self.current.as_ref().map_or(0, |n| n.slots());
        let mut batch: Vec<(usize, PageIdx)> = Vec::with_capacity(updates.len());
        let mut stale = false;
        for (slot, ppage) in updates {
            // While a create is deferred (budget-skipped, awaiting
            // retry), updates describe the *deferred* directory — fold
            // them into its assignment vector rather than discarding
            // them, or the retried create would publish pre-split
            // slots and a later update could restore version equality
            // over a stale mapping.
            if let Some((slots, assignments, deferred_version)) = &mut self.deferred {
                if slot < *slots {
                    match assignments.binary_search_by_key(&slot, |a| a.0) {
                        Ok(i) => assignments[i].1 = ppage,
                        Err(i) => assignments.insert(i, (slot, ppage)),
                    }
                    *deferred_version = version;
                    continue;
                }
            }
            // Producers address slots at the traditional directory's
            // depth; a coarsely published node resolves them at its
            // own granularity. A split deeper than the published
            // depth clobbers the shared coarse slot with one sibling
            // — readers detect the over-depth bucket via its stored
            // local depth and fall back for those keys.
            let slot = slot >> self.published_shift;
            if slot >= live_slots {
                // Stale update (raced a rebuild that shrank… or no
                // node yet). Protocol-respecting producers never hit
                // this; drop defensively.
                self.metrics.updates_discarded.add(1);
                stale = true;
                continue;
            }
            batch.push((slot, ppage));
        }
        let Some(node) = self.current.as_mut().filter(|_| !batch.is_empty()) else {
            return Ok(());
        };
        let applied = batch.len() as u64;
        // Stable, so among updates of one slot the last one queued is the
        // last one here, and it wins.
        batch.sort_by_key(|&(slot, _)| slot);
        batch.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                *kept = *later;
            }
            same
        });
        if let Some(call) = self.zap {
            match node.zap(call, &batch) {
                Some(n) => {
                    self.metrics.slots_zapped.add(n as u64);
                }
                None => self.zap = None,
            }
        }
        node.set_batch(&self.pool, &batch)?;
        if self.cfg.eager_populate {
            for &(slot, _) in &batch {
                // Touch just the remapped slot to install its PTE.
                // SAFETY: slot was just rewired to a valid pool page.
                unsafe {
                    std::ptr::read_volatile(node.slot_ptr(slot));
                }
            }
            self.metrics.pages_populated.add(batch.len() as u64);
        }
        self.metrics.updates_applied.add(applied);
        self.metrics.slots_rewired.add(batch.len() as u64);
        self.metrics.update_batches.add(1);
        if !stale {
            // SAFETY: the live node maps its slots until `retire` hands it
            // to the pool's retire list, whose pins readers hold.
            unsafe { self.state.publish(node.base(), node.slots(), version) };
        }
        Ok(())
    }

    /// Replace the shortcut with a fresh `slots`-slot directory, if
    /// admission lets it in; defer it otherwise.
    fn apply_create(
        &mut self,
        slots: usize,
        assignments: Vec<(usize, PageIdx)>,
        version: u64,
    ) -> Result<()> {
        // Any newer create supersedes a deferred one.
        self.deferred = None;
        let Some((shift, reservation)) = self.admit_create(slots, &assignments) else {
            self.deferred = Some((slots, assignments, version));
            return Ok(());
        };
        let coarse;
        let (pub_slots, pub_assignments) = if shift == 0 {
            (slots, &assignments)
        } else {
            coarse = coarsen_assignments(&assignments, shift);
            (slots >> shift, &coarse)
        };
        // The node inherits the pool's slot layout: each published
        // slot spans a whole 2^k-page physical slot.
        let mut node = ShortcutNode::for_pool(pub_slots, &self.pool, self.cfg.eager_populate)?;
        let calls = node.set_batch(&self.pool, pub_assignments)?;
        if self.cfg.eager_populate {
            let touched = node.populate();
            self.metrics.pages_populated.add(touched as u64);
        }
        // Hand the worst-case reservation over to the built node
        // as its exact charge in one atomic adjustment — the
        // budget never transiently double-counts the directory
        // (which could trip `in_use <= limit` asserts) and never
        // dips (which would let a concurrent pool steal margin).
        reservation.settle(node.vma_estimate());
        node.charge_to_prepaid(&self.pool);
        self.metrics.creates_applied.add(1);
        if shift > 0 {
            self.metrics.creates_coarse.add(1);
        }
        self.metrics.slots_rewired.add(pub_assignments.len() as u64);
        self.metrics.create_mmap_calls.add(calls);
        self.published_shift = shift;
        // SAFETY: as in `apply_updates`: the node becomes the live one.
        unsafe { self.state.publish(node.base(), node.slots(), version) };
        self.state.set_suspended(false);
        if let Some(old) = self.current.replace(node) {
            self.retire(old);
        }
        Ok(())
    }

    /// Retire a superseded node. Readers must not be served its area: the
    /// bump to the version that superseded it cleared the serving word,
    /// and only a pass end sets it again.
    fn retire(&self, old: ShortcutNode) {
        debug_assert!(
            self.state.begin_read().is_none_or(|t| t.base != old.base()),
            "retiring the directory readers are served"
        );
        self.pool.retire_list().retire(old.into_area());
    }

    /// The coarsening shifts admission may try for a rebuild: always the
    /// exact depth; additionally, with compaction enabled and a full
    /// assignment vector, up to [`MAX_PUBLISH_SHIFT`] halvings of the
    /// published depth (each halving of a compacted directory folds
    /// aliased covering ranges back onto single slots, so the identity
    /// run gets *more* mergeable, not less).
    fn candidate_shifts(&self, slots: usize, assignments: &[(usize, PageIdx)]) -> u32 {
        if self.cfg.compaction.enabled() && assignments.len() == slots {
            MAX_PUBLISH_SHIFT.min(slots.trailing_zeros())
        } else {
            0
        }
    }

    /// VMAs to reserve for a rebuild at coarsening `shift`. Without
    /// compaction this is the **worst case** — a `slots`-page area can
    /// fragment to one VMA per slot as later bucket splits break merged
    /// runs, so admitting at `slots` guarantees the live directory can
    /// never outgrow the budget between doublings. With compaction
    /// enabled the layout's fragmentation is bounded (every doubling
    /// re-sorts the pool, and so does the write path once the footprint
    /// crosses half of the pool's share), so admission uses the rebuild's
    /// **exact** initial footprint instead — this is what lets a compacted
    /// multi-million-slot directory through a stock `vm.max_map_count`.
    fn rebuild_reservation(
        &self,
        slots: usize,
        assignments: &[(usize, PageIdx)],
        shift: u32,
    ) -> usize {
        if shift > 0 {
            let coarse = coarsen_assignments(assignments, shift);
            shortcut_rewire::planned_vmas(slots >> shift, &coarse)
        } else if self.cfg.compaction.enabled() {
            shortcut_rewire::planned_vmas(slots, assignments)
        } else {
            slots
        }
    }

    /// Admission control for a rebuild: atomically reserve the rebuild's
    /// footprint (see [`MapperEngine::rebuild_reservation`]), preferring
    /// the exact depth and falling back to coarser published depths (the
    /// paper's directory at half depth still resolves every bucket whose
    /// local depth fits; deeper buckets are detected by readers and
    /// served traditionally). Among coarse depths the engine picks by
    /// **service fraction** — the share of buckets resolvable at that
    /// depth ([`service_census`]) — rather than the first footprint that
    /// fits: depths with equal service are tie-broken toward the smaller
    /// mapping footprint (the same keys are shortcut-served either way,
    /// so the spare VMAs are pure headroom), and a depth that resolves
    /// *no* bucket is never published (it would cost mappings while every
    /// read falls back — strictly worse than staying suspended). When
    /// nothing fits, the stale current node is retired (the traditional
    /// version has already moved past it, so no new reader can route
    /// through it), a reclaim is attempted, and — if the rebuild still
    /// does not fit — the state is marked suspended and the create
    /// skipped. The skip is counted as *deferred* (transient: pinned
    /// readers stalled the reclaim scan, the retry on an upcoming tick
    /// will succeed) when retired areas remain, and as *skipped*
    /// (genuine: nothing left to reclaim, the directory simply does not
    /// fit) otherwise.
    fn admit_create(
        &mut self,
        slots: usize,
        assignments: &[(usize, PageIdx)],
    ) -> Option<(u32, shortcut_rewire::BudgetReservation)> {
        let budget = Arc::clone(self.pool.budget());
        let usage = Arc::clone(self.pool.usage());
        let headroom = budget_headroom(budget.limit());
        let max_shift = self.candidate_shifts(slots, assignments);
        // Exact depth first. Building while the superseded directory is
        // still mapped (the common fast path) doubles the kernel's
        // transient mapping count, so the overlap is only allowed while
        // it leaves a quarter of the limit spare; otherwise fall through
        // to retire-then-build. If the exact depth does not fit even
        // then, free what can be freed and try it *again* before settling
        // for a coarser published depth — coarse publishes cost service
        // (over-depth buckets fall back), so they must never be picked
        // just because a reclaimable directory was still charged.
        let want = self.rebuild_reservation(slots, assignments, 0);
        let overlap_headroom = headroom.max(budget.limit() / 4);
        if let Some(r) = budget.try_reserve_for(&usage, want, overlap_headroom) {
            self.metrics.coarse_service_pct.set(100);
            return Some((0, r));
        }
        if let Some(old) = self.current.take() {
            self.retire(old);
        }
        self.pool.retire_list().try_reclaim();
        let mut min_want = want;
        if let Some(r) = budget.try_reserve_for(&usage, want, headroom) {
            self.metrics.coarse_service_pct.set(100);
            return Some((0, r));
        }
        if max_shift > 0 {
            // ROADMAP follow-up (c): depth selection by service fraction.
            let (total, resolvable) = service_census(assignments, max_shift);
            let mut candidates: Vec<(u32, usize, usize)> = (1..=max_shift)
                .map(|s| {
                    (
                        s,
                        resolvable[s as usize],
                        self.rebuild_reservation(slots, assignments, s),
                    )
                })
                .collect();
            candidates.sort_by(|a, b| b.1.cmp(&a.1).then(a.2.cmp(&b.2)).then(a.0.cmp(&b.0)));
            for (shift, served, want) in candidates {
                if served == 0 {
                    // Resolves nothing: never published (every read would
                    // fall back while the mapping cost is still paid), and
                    // therefore not part of the retry bound either.
                    continue;
                }
                min_want = min_want.min(want);
                if let Some(r) = budget.try_reserve_for(&usage, want, headroom) {
                    let pct = (served * 100 / total.max(1)) as u64;
                    self.metrics.coarse_service_pct.set(pct);
                    return Some((shift, r));
                }
            }
        }
        // Deferred: cache the cheapest admissible footprint so the
        // per-tick retry probe is one O(1) `would_fit_for` that agrees with
        // what this function will accept (recomputed here on every
        // failed retry, so a stale bound self-corrects).
        self.deferred_min_want = min_want;
        self.state.set_suspended(true);
        if self.pool.retire_list().retired_count() > 0 {
            self.metrics.creates_deferred.add(1);
        } else {
            self.metrics.creates_skipped.add(1);
        }
        None
    }

    /// Drive retired-area reclamation, then retry a deferred create if it
    /// would now fit (called by the mapper thread at the end of every
    /// pass). Returns the number of areas unmapped.
    pub fn reclaim_tick(&mut self) -> Result<usize> {
        let reclaimed = self.pool.retire_list().try_reclaim();
        if self.deferred.is_some() {
            // Racy pre-check to avoid re-counting a skip every tick; the
            // retry's real admission goes through try_reserve_for again. The
            // probe is one O(1) `would_fit_for` against the smallest
            // footprint any admissible depth would reserve, cached by
            // the failed admission that deferred the create (and
            // recomputed whenever a retry fails, so a slightly-stale
            // bound — folded updates can shift footprints by a few VMAs
            // — costs at most one futile retry, never a per-tick loop).
            let budget = Arc::clone(self.pool.budget());
            let headroom = budget_headroom(budget.limit());
            if budget.would_fit_for(self.pool.usage(), self.deferred_min_want, headroom) {
                if let Some((slots, assignments, version)) = self.deferred.take() {
                    self.apply_create(slots, assignments, version)?;
                }
            }
        }
        Ok(reclaimed)
    }

    /// The node currently serving the shortcut, if any.
    pub fn current(&self) -> Option<&ShortcutNode> {
        self.current.as_ref()
    }
}

/// What producers and the mapper hand each other, under one lock.
#[derive(Default)]
struct Inbox {
    /// Requests in FIFO order; the mapper swaps the vector out whole.
    queue: Vec<MaintRequest>,
    /// Someone wants a pass now rather than at the tick. Raised before
    /// the notify and read by the mapper under the lock before it parks,
    /// so a demand is never slept through; cleared where a pass starts.
    demand: bool,
    /// The mapper is between taking a queue and finishing its pass.
    in_pass: bool,
    stop: bool,
    /// First error a pass hit; the mapper stops there.
    error: Option<Error>,
}

/// State shared between a [`Maintainer`] and its mapper thread.
#[derive(Default)]
struct Shared {
    inbox: Mutex<Inbox>,
    /// Wakes the parked mapper (demand, backlog, stop).
    wake: Condvar,
    /// Announces a finished pass to [`Maintainer::wait_sync`].
    done: Condvar,
}

impl Shared {
    /// The inbox, locked. A panic while it was held poisons nothing: the
    /// fields stay consistent between any two statements that hold it.
    fn inbox(&self) -> MutexGuard<'_, Inbox> {
        self.inbox.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock<'a>(&'a self, state: &'a SharedDirectoryState) -> InboxGuard<'a> {
        let inbox = self.inbox();
        InboxGuard {
            queued: inbox.queue.len(),
            inbox,
            shared: self,
            state,
        }
    }
}

/// The inbox lock, held: the one owner of the traditional version and of
/// every store readers trust — the serving word and a shard's admission
/// word. A bump outside it can fall between a pass-end refresh's compare
/// and its store, which leaves the superseded directory served after the
/// next pass retires it — to readers that pin after the reclaim scan
/// unmapped it. Dropping a guard whose relays took the queue across
/// [`WAKE_BACKLOG`] wakes a parked mapper.
pub struct InboxGuard<'a> {
    inbox: MutexGuard<'a, Inbox>,
    shared: &'a Shared,
    state: &'a SharedDirectoryState,
    /// Queue length when the lock was taken.
    queued: usize,
}

impl InboxGuard<'_> {
    /// Relay one directory change: bump the traditional version once —
    /// the shortcut leaves service until a pass publishes it — and queue
    /// `requests`. A create supersedes whatever is queued ahead of it (the
    /// paper's main thread drops those right before pushing the create).
    pub fn relay(&mut self, requests: impl IntoIterator<Item = MaintRequest>) {
        // SAFETY: this guard holds the inbox lock every store of the
        // state's serving word is made under.
        unsafe { self.state.bump_traditional() };
        for req in requests {
            if matches!(req, MaintRequest::Create { .. }) {
                self.inbox.queue.clear();
            }
            self.inbox.queue.push(req);
        }
    }

    /// [`SharedDirectoryState::set_route_shortcut`], under this lock.
    pub fn set_route_shortcut(&self, on: bool) {
        // SAFETY: as in `relay`.
        unsafe { self.state.set_route_shortcut(on) }
    }

    /// [`SharedDirectoryState::refresh_serving`], under this lock.
    pub fn refresh_serving(&self) {
        // SAFETY: as in `relay`.
        unsafe { self.state.refresh_serving() }
    }

    /// [`SharedDirectoryState::rearm`], under this lock.
    pub fn rearm(&self) {
        // SAFETY: as in `relay`.
        unsafe { self.state.rearm() }
    }

    /// [`SharedDirectoryState::attach_line`], under this lock.
    pub fn attach_line(&self, lines: Arc<[ReadLine]>, i: usize) {
        // SAFETY: as in `relay`.
        unsafe { self.state.attach_line(lines, i) }
    }
}

impl Drop for InboxGuard<'_> {
    fn drop(&mut self) {
        if self.queued < WAKE_BACKLOG && self.inbox.queue.len() >= WAKE_BACKLOG {
            self.inbox.demand = true;
            self.shared.wake.notify_one();
        }
    }
}

/// The mapper thread: one pass per wake, then park.
fn mapper_loop(mut engine: MapperEngine, shared: &Shared, poll: Duration) {
    loop {
        let (mut inbox, pass) = engine.run_pass();
        inbox.error = pass.err();
        let stop = |inbox: &Inbox| inbox.stop || inbox.error.is_some();
        if !(stop(&inbox) || inbox.demand) {
            inbox = shared
                .wake
                .wait_timeout(inbox, poll)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        if stop(&inbox) {
            return;
        }
    }
}

/// Handle owning the mapper thread. Dropping it stops and joins the thread
/// (and only then unmaps all shortcut areas, current and retired).
pub struct Maintainer {
    shared: Arc<Shared>,
    state: Arc<SharedDirectoryState>,
    metrics: Arc<MaintMetrics>,
    /// The pool's retire list: what is still on it tells a deferred
    /// create (worth waiting for) from a skipped one.
    retire: Arc<RetireList>,
    poll_interval: Duration,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Maintainer {
    /// Spawn the mapper thread over `pool`.
    pub fn spawn(pool: PoolHandle, cfg: MaintConfig) -> Self {
        let poll = staggered_poll_interval(cfg.poll_interval, next_mapper_seq());
        let state = Arc::new(SharedDirectoryState::new());
        let metrics = Arc::new(MaintMetrics::default());
        Self::start(MapperEngine::new(pool, state, metrics, cfg), poll)
    }

    /// Run `engine` on a mapper thread of its own.
    fn start(engine: MapperEngine, poll_interval: Duration) -> Self {
        let shared = Arc::clone(&engine.shared);
        let (state, metrics) = (Arc::clone(&engine.state), Arc::clone(&engine.metrics));
        let retire = Arc::clone(engine.pool.retire_list());
        let t_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("shortcut-mapper".into())
            .spawn(move || mapper_loop(engine, &t_shared, poll_interval))
            .expect("failed to spawn mapper thread");
        Maintainer {
            shared,
            state,
            metrics,
            retire,
            poll_interval,
            handle: Some(handle),
        }
    }

    /// The mapper thread's *effective* poll interval — the configured
    /// interval after process-wide staggering (see
    /// [`staggered_poll_interval`]); what the divergence of co-spawned
    /// mappers is asserted against.
    #[inline]
    pub fn poll_interval(&self) -> Duration {
        self.poll_interval
    }

    /// Shared version/publication state (for readers).
    #[inline]
    pub fn state(&self) -> &Arc<SharedDirectoryState> {
        &self.state
    }

    /// The inbox lock (see [`InboxGuard`]): a relay goes in under one
    /// hold of it, and a shard stores its admission word under it (after
    /// taking its own lock).
    pub fn inbox_lock(&self) -> InboxGuard<'_> {
        self.shared.lock(&self.state)
    }

    /// Current queue length.
    pub fn pending(&self) -> usize {
        self.shared.inbox().queue.len()
    }

    /// Passes the mapper has completed (apply, then reclaim tick). Read
    /// under the inbox lock, which orders it after what those passes
    /// published.
    pub fn passes(&self) -> u64 {
        let _inbox = self.shared.inbox();
        self.metrics.passes.get()
    }

    /// Maintenance counters.
    pub fn metrics(&self) -> MaintSnapshot {
        self.metrics.snapshot()
    }

    /// First error the mapper hit, if any.
    pub fn error(&self) -> Option<Error> {
        self.shared.inbox().error.clone()
    }

    /// Block until the shortcut is in sync with the traditional directory
    /// and no pass is in flight — so the pass that synced it has set the
    /// serving word — or `timeout` elapses. Returns whether sync was
    /// reached. Out of sync, it **demands** a pass instead of waiting for
    /// the tick, so the wait is the time the mapper takes to apply what is
    /// queued.
    /// When a pass that started after the demand leaves nothing pending
    /// and the shortcut budget-suspended, a directory that genuinely does
    /// not fit (nothing retired is left to reclaim) fails fast, while a
    /// create only *deferred* behind a pinned reclaim keeps getting the
    /// tick's retries until it lands or the timeout ends. Test and
    /// benchmark helper; production readers never wait, they just fall
    /// back.
    pub fn wait_sync(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut inbox = self.shared.inbox();
        // Pass count from which a pass that began after our last look at
        // the state has completed; `None` before the first look.
        let mut awaited: Option<u64> = None;
        loop {
            if inbox.error.is_some() {
                return false;
            }
            let idle = inbox.queue.is_empty();
            // A pass in flight has yet to serve what it published.
            if idle && !inbox.in_pass && self.state.in_sync() {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let passes = self.metrics.passes.get();
            if awaited.is_none_or(|target| passes >= target) {
                // A pass that began after the demand left nothing queued
                // and no sync: more demands change nothing, only what the
                // tick's reclaim frees can.
                let stalled = awaited.is_some() && idle;
                if stalled && self.state.suspended() && self.retire.retired_count() == 0 {
                    return false;
                }
                if !stalled {
                    inbox.demand = true;
                    self.shared.wake.notify_one();
                }
                // A pass in flight took its queue before this look.
                awaited = Some(passes + 1 + u64::from(inbox.in_pass));
            }
            inbox = (self.shared.done.wait_timeout(inbox, deadline - now))
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }
}

impl Drop for Maintainer {
    fn drop(&mut self) {
        {
            let mut inbox = self.shared.inbox();
            inbox.stop = true;
            self.shared.wake.notify_one();
        }
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
#[path = "pass_tests.rs"]
mod pass_tests;

#[cfg(test)]
mod tests {
    // An engine driven without its thread runs its passes by hand
    // (`MapperEngine::pass`), each ending as the thread's do: what it
    // published is served.
    use super::*;
    use shortcut_rewire::{PagePool, PoolConfig, PAGE_SIZE_4K};

    fn pool() -> PagePool {
        PagePool::new(PoolConfig {
            initial_pages: 16,
            min_growth_pages: 16,
            view_capacity_pages: 4096, // audit:allow(page-literal): view capacity in pages (a count), not a byte size
            ..PoolConfig::default()
        })
        .unwrap()
    }

    fn stamp(pool: &PagePool, p: PageIdx, v: u64) {
        // SAFETY: t.base is the directory the ticket published; offsets stay
        // below t.slots slots and retirement cannot unmap it mid-test.
        unsafe {
            *(pool.page_ptr(p) as *mut u64) = v;
        }
    }

    #[test]
    fn engine_create_publishes_in_sync() {
        let mut pl = pool();
        let state = Arc::new(SharedDirectoryState::new());
        let metrics = Arc::new(MaintMetrics::default());
        let mut eng = MapperEngine::new(
            pl.handle(),
            Arc::clone(&state),
            metrics,
            MaintConfig::default(),
        );
        let l0 = pl.alloc_page().unwrap();
        let l1 = pl.alloc_page().unwrap();
        stamp(&pl, l0, 10);
        stamp(&pl, l1, 11);

        eng.inbox_lock().relay([MaintRequest::Create {
            slots: 2,
            assignments: vec![(0, l0), (1, l1)],
        }]);
        eng.pass().unwrap();
        assert!(state.in_sync());
        let t = state.begin_read().unwrap();
        // SAFETY: t.base is the directory the ticket published; offsets stay
        // below t.slots slots and retirement cannot unmap it mid-test.
        unsafe {
            assert_eq!(*(t.base as *const u64), 10);
            assert_eq!(*(t.base.add(PAGE_SIZE_4K) as *const u64), 11);
        }
        assert!(state.still_valid(t));
    }

    #[test]
    fn engine_update_remaps_single_slot() {
        let mut pl = pool();
        let state = Arc::new(SharedDirectoryState::new());
        let metrics = Arc::new(MaintMetrics::default());
        let mut eng = MapperEngine::new(
            pl.handle(),
            Arc::clone(&state),
            Arc::clone(&metrics),
            MaintConfig::default(),
        );
        let l0 = pl.alloc_page().unwrap();
        let l1 = pl.alloc_page().unwrap();
        stamp(&pl, l0, 10);
        stamp(&pl, l1, 11);

        eng.inbox_lock().relay([MaintRequest::Create {
            slots: 2,
            assignments: vec![(0, l0), (1, l0)],
        }]);
        eng.pass().unwrap();

        eng.inbox_lock().relay([MaintRequest::Update {
            slots: 1..2,
            ppage: l1,
        }]);
        assert!(!state.in_sync());
        eng.pass().unwrap();
        assert!(state.in_sync());
        let t = state.begin_read().unwrap();
        // SAFETY: t.base is the directory the ticket published; offsets stay
        // below t.slots slots and retirement cannot unmap it mid-test.
        unsafe {
            assert_eq!(*(t.base as *const u64), 10);
            assert_eq!(*(t.base.add(PAGE_SIZE_4K) as *const u64), 11);
        }
        assert_eq!(metrics.snapshot().updates_applied, 1);
    }

    #[test]
    fn engine_update_remaps_its_whole_range() {
        let mut pl = pool();
        let state = Arc::new(SharedDirectoryState::new());
        let metrics = Arc::new(MaintMetrics::default());
        let mut eng = MapperEngine::new(
            pl.handle(),
            Arc::clone(&state),
            Arc::clone(&metrics),
            MaintConfig::default(),
        );
        let l0 = pl.alloc_page().unwrap();
        let l1 = pl.alloc_page().unwrap();
        stamp(&pl, l0, 10);
        stamp(&pl, l1, 11);

        eng.inbox_lock().relay([MaintRequest::Create {
            slots: 4,
            assignments: (0..4).map(|s| (s, l0)).collect(),
        }]);
        eng.pass().unwrap();
        // One split of a bucket covering all four slots: the upper half
        // moves to l1, in one request.
        eng.inbox_lock().relay([MaintRequest::Update {
            slots: 2..4,
            ppage: l1,
        }]);
        eng.pass().unwrap();
        assert!(state.in_sync());
        let t = state.begin_read().unwrap();
        for (slot, want) in [10, 10, 11, 11].into_iter().enumerate() {
            // SAFETY: t.base is the directory the ticket published; offsets
            // stay below t.slots slots and retirement cannot unmap it
            // mid-test.
            unsafe {
                assert_eq!(*(t.base.add(slot * PAGE_SIZE_4K) as *const u64), want);
            }
        }
        assert_eq!(metrics.snapshot().updates_applied, 2, "counted in slots");
    }

    #[test]
    fn create_supersedes_older_updates() {
        let mut pl = pool();
        let state = Arc::new(SharedDirectoryState::new());
        let metrics = Arc::new(MaintMetrics::default());
        let mut eng = MapperEngine::new(
            pl.handle(),
            Arc::clone(&state),
            Arc::clone(&metrics),
            MaintConfig::default(),
        );
        let l0 = pl.alloc_page().unwrap();
        let l1 = pl.alloc_page().unwrap();

        // Two relays of updates, then one of a create: the create drops
        // them from the queue, and the pass sees the create alone.
        eng.inbox_lock().relay([MaintRequest::Update {
            slots: 0..1,
            ppage: l0,
        }]);
        eng.inbox_lock().relay([MaintRequest::Update {
            slots: 1..2,
            ppage: l1,
        }]);
        eng.inbox_lock().relay([MaintRequest::Create {
            slots: 4,
            assignments: vec![(0, l0), (1, l0), (2, l1), (3, l1)],
        }]);
        assert_eq!(eng.shared.inbox().queue.len(), 1);
        assert_eq!(eng.pass().unwrap(), 1);
        let s = metrics.snapshot();
        assert_eq!(s.updates_discarded, 0);
        assert_eq!(s.creates_applied, 1);
        assert!(state.in_sync());
        assert_eq!(state.begin_read().unwrap().slots, 4);
    }

    #[test]
    fn update_after_create_in_same_batch_applies() {
        let mut pl = pool();
        let state = Arc::new(SharedDirectoryState::new());
        let metrics = Arc::new(MaintMetrics::default());
        let mut eng = MapperEngine::new(
            pl.handle(),
            Arc::clone(&state),
            Arc::clone(&metrics),
            MaintConfig::default(),
        );
        let l0 = pl.alloc_page().unwrap();
        let l1 = pl.alloc_page().unwrap();
        stamp(&pl, l1, 42);

        eng.inbox_lock().relay([MaintRequest::Create {
            slots: 2,
            assignments: vec![(0, l0), (1, l0)],
        }]);
        eng.inbox_lock().relay([MaintRequest::Update {
            slots: 1..2,
            ppage: l1,
        }]);
        eng.pass().unwrap();
        assert!(state.in_sync());
        let t = state.begin_read().unwrap();
        // SAFETY: t.base is the directory the ticket published; offsets stay
        // below t.slots slots and retirement cannot unmap it mid-test.
        unsafe {
            assert_eq!(*(t.base.add(PAGE_SIZE_4K) as *const u64), 42);
        }
    }

    #[test]
    fn retired_areas_stay_mapped_until_readers_drain() {
        let mut pl = pool();
        let handle = pl.handle();
        let state = Arc::new(SharedDirectoryState::new());
        let metrics = Arc::new(MaintMetrics::default());
        let mut eng = MapperEngine::new(
            handle.clone(),
            Arc::clone(&state),
            metrics,
            MaintConfig::default(),
        );
        let l0 = pl.alloc_page().unwrap();
        stamp(&pl, l0, 7);

        eng.inbox_lock().relay([MaintRequest::Create {
            slots: 1,
            assignments: vec![(0, l0)],
        }]);
        eng.pass().unwrap();
        // A reader pins, takes its ticket, and is about to dereference.
        let pin = handle.retire_list().pin();
        let old_base = state.begin_read().unwrap().base;

        eng.inbox_lock().relay([MaintRequest::Create {
            slots: 2,
            assignments: vec![(0, l0), (1, l0)],
        }]);
        eng.pass().unwrap();
        assert_eq!(eng.pool.retire_list().retired_count(), 1);
        // Reclamation must not unmap under the outstanding pin.
        assert_eq!(eng.reclaim_tick().unwrap(), 0);
        assert_eq!(eng.pool.retire_list().retired_count(), 1);
        // The old base is still readable (stale but mapped).
        // SAFETY: t.base is the directory the ticket published; offsets stay
        // below t.slots slots and retirement cannot unmap it mid-test.
        unsafe {
            assert_eq!(*(old_base as *const u64), 7);
        }
        // Once the reader drains, the next tick reclaims the area.
        drop(pin);
        assert_eq!(eng.reclaim_tick().unwrap(), 1);
        assert_eq!(eng.pool.retire_list().retired_count(), 0);
        assert_eq!(handle.retire_list().counters().1, 1);
    }

    #[test]
    fn over_budget_create_is_skipped_and_suspends() {
        // A pool whose private 32-mapping budget (headroom 32/16 = 2,
        // effective 30) cannot possibly hold a 64-slot aliased directory:
        // the rebuild must be skipped (no ENOMEM, no error), the stale
        // current node retired, and the state suspended.
        let mut pl = PagePool::new(PoolConfig {
            initial_pages: 16,
            min_growth_pages: 16,
            view_capacity_pages: 4096, // audit:allow(page-literal): view capacity in pages (a count), not a byte size
            vma_budget: Some(shortcut_rewire::VmaBudget::with_limit(32)),
            ..PoolConfig::default()
        })
        .unwrap();
        let handle = pl.handle();
        let state = Arc::new(SharedDirectoryState::new());
        let metrics = Arc::new(MaintMetrics::default());
        let mut eng = MapperEngine::new(
            handle.clone(),
            Arc::clone(&state),
            Arc::clone(&metrics),
            MaintConfig::default(),
        );
        let l0 = pl.alloc_page().unwrap();

        // A small directory fits.
        eng.inbox_lock().relay([MaintRequest::Create {
            slots: 2,
            assignments: vec![(0, l0), (1, l0)],
        }]);
        eng.pass().unwrap();
        assert!(state.in_sync());
        assert!(!state.suspended());

        // A 64-slot fan-in-64 directory (64 unmergeable VMAs) does not.
        eng.inbox_lock().relay([MaintRequest::Create {
            slots: 64,
            assignments: (0..64).map(|s| (s, l0)).collect(),
        }]);
        eng.pass().unwrap();
        assert!(state.suspended());
        assert!(!state.in_sync());
        assert_eq!(metrics.snapshot().creates_skipped, 1);
        assert_eq!(metrics.snapshot().creates_applied, 1);
        // The stale current node was retired and (no readers) reclaimed on
        // the next tick, so the budget drops back to the pool view alone.
        eng.reclaim_tick().unwrap();
        assert_eq!(eng.pool.retire_list().retired_count(), 0);
        assert!(handle.budget().in_use() <= 2 + 1);
    }

    #[test]
    fn deferred_create_applies_after_readers_drain() {
        // A rebuild that fails admission only because a reader pin stalls
        // the reclaim of the superseded directory must not suspend the
        // shortcut forever: once the pin drops, the next tick reclaims,
        // retries the deferred create, and re-publishes in sync.
        let mut pl = PagePool::new(PoolConfig {
            initial_pages: 16,
            min_growth_pages: 16,
            view_capacity_pages: 4096, // audit:allow(page-literal): view capacity in pages (a count), not a byte size
            // limit 8 < 16 → headroom 0 → effective budget 8.
            vma_budget: Some(shortcut_rewire::VmaBudget::with_limit(8)),
            ..PoolConfig::default()
        })
        .unwrap();
        let handle = pl.handle();
        let state = Arc::new(SharedDirectoryState::new());
        let metrics = Arc::new(MaintMetrics::default());
        let mut eng = MapperEngine::new(
            handle.clone(),
            Arc::clone(&state),
            Arc::clone(&metrics),
            MaintConfig::default(),
        );
        let l0 = pl.alloc_page().unwrap();
        let l1 = pl.alloc_page().unwrap();
        stamp(&pl, l0, 70);
        stamp(&pl, l1, 71);

        eng.inbox_lock().relay([MaintRequest::Create {
            slots: 2,
            assignments: vec![(0, l0), (1, l0)],
        }]);
        eng.pass().unwrap();
        assert!(state.in_sync());

        // A reader stalls mid-read; the 6-slot rebuild (worst case 6
        // VMAs) does not fit while the old directory cannot be reclaimed.
        let pin = handle.retire_list().pin();
        eng.inbox_lock().relay([MaintRequest::Create {
            slots: 6,
            assignments: (0..6).map(|s| (s, l0)).collect(),
        }]);
        eng.pass().unwrap();
        assert!(state.suspended());
        // The skip is transient (a pinned reader stalled reclamation), so
        // it is counted as deferred, not as a genuine suspension.
        assert_eq!(metrics.snapshot().creates_deferred, 1);
        assert_eq!(metrics.snapshot().creates_skipped, 0);

        // A bucket split lands while the create is deferred: the update
        // must be folded into the deferred assignments, not discarded —
        // otherwise the retry would publish a stale slot that a later
        // version-restoring update could legitimize.
        eng.inbox_lock().relay([MaintRequest::Update {
            slots: 3..4,
            ppage: l1,
        }]);
        eng.pass().unwrap();
        assert_eq!(metrics.snapshot().updates_discarded, 0);

        // Pin still held: the tick reclaims nothing and must not retry.
        assert_eq!(eng.reclaim_tick().unwrap(), 0);
        assert!(state.suspended());

        // Reader drains → the tick reclaims the old directory, retries
        // the deferred create (with the folded update, at the folded
        // version), and the shortcut is back in sync.
        drop(pin);
        assert_eq!(eng.reclaim_tick().unwrap(), 1);
        assert!(!state.suspended());
        assert!(state.in_sync());
        eng.inbox_lock().refresh_serving();
        let t = state.begin_read().unwrap();
        // The descriptor publishes a depth: of 6 slots, hashes reach 4.
        assert_eq!(t.slots, 4);
        // SAFETY: t.base is the directory the ticket published; offsets stay
        // below t.slots slots and retirement cannot unmap it mid-test.
        unsafe {
            assert_eq!(*(t.base.add(2 << 12) as *const u64), 70);
            assert_eq!(
                *(t.base.add(3 << 12) as *const u64),
                71,
                "folded update lost"
            );
        }
        assert_eq!(metrics.snapshot().creates_applied, 2);
        assert_eq!(metrics.snapshot().creates_deferred, 1);
        assert_eq!(metrics.snapshot().creates_skipped, 0);
    }

    #[test]
    fn compaction_admission_uses_exact_footprint() {
        // A 64-slot **identity** directory is one mergeable run (one VMA).
        // Worst-case admission (compaction off) refuses it under a
        // 32-mapping budget; with compaction enabled, admission reserves
        // the exact planned footprint and the rebuild goes through.
        for (compaction, expect_applied) in [
            (CompactionPolicy::disabled(), false),
            (CompactionPolicy::on(), true),
        ] {
            let mut pl = PagePool::new(PoolConfig {
                initial_pages: 0,
                min_growth_pages: 64,
                view_capacity_pages: 4096, // audit:allow(page-literal): view capacity in pages (a count), not a byte size
                vma_budget: Some(shortcut_rewire::VmaBudget::with_limit(32)),
                ..PoolConfig::default()
            })
            .unwrap();
            let state = Arc::new(SharedDirectoryState::new());
            let metrics = Arc::new(MaintMetrics::default());
            let mut eng = MapperEngine::new(
                pl.handle(),
                Arc::clone(&state),
                Arc::clone(&metrics),
                MaintConfig {
                    compaction,
                    ..MaintConfig::default()
                },
            );
            let run = pl.alloc_run(64).unwrap();
            eng.inbox_lock().relay([MaintRequest::Create {
                slots: 64,
                assignments: (0..64).map(|s| (s, PageIdx(run.0 + s))).collect(),
            }]);
            eng.pass().unwrap();
            assert_eq!(
                state.in_sync(),
                expect_applied,
                "compaction.enabled()={} must {} the identity rebuild",
                compaction.enabled(),
                if expect_applied { "admit" } else { "refuse" }
            );
            assert_eq!(state.suspended(), !expect_applied);
        }
    }

    #[test]
    fn over_budget_rebuild_publishes_at_coarser_depth() {
        // 16 slots, fan-in 2 over 8 directory-ordered pages: exact-depth
        // planned footprint is 16 − 8 + 1 = 9. Budget 8 (headroom 0)
        // refuses it, but the half-depth view is a pure identity run
        // (planned 1) and must be published instead of suspending.
        let mut pl = PagePool::new(PoolConfig {
            initial_pages: 0,
            min_growth_pages: 8,
            view_capacity_pages: 4096, // audit:allow(page-literal): view capacity in pages (a count), not a byte size
            vma_budget: Some(shortcut_rewire::VmaBudget::with_limit(8)),
            ..PoolConfig::default()
        })
        .unwrap();
        let state = Arc::new(SharedDirectoryState::new());
        let metrics = Arc::new(MaintMetrics::default());
        let mut eng = MapperEngine::new(
            pl.handle(),
            Arc::clone(&state),
            Arc::clone(&metrics),
            MaintConfig {
                compaction: CompactionPolicy::on(),
                ..MaintConfig::default()
            },
        );
        let run = pl.alloc_run(8).unwrap();
        for i in 0..8 {
            stamp(&pl, PageIdx(run.0 + i), 500 + i as u64);
        }
        eng.inbox_lock().relay([MaintRequest::Create {
            slots: 16,
            assignments: (0..16).map(|s| (s, PageIdx(run.0 + s / 2))).collect(),
        }]);
        eng.pass().unwrap();
        assert!(state.in_sync(), "coarse publish must keep the shortcut up");
        assert!(!state.suspended());
        assert_eq!(metrics.snapshot().creates_coarse, 1);
        let t = state.begin_read().unwrap();
        assert_eq!(t.slots, 8, "published at half depth");
        for i in 0..8 {
            // SAFETY: t.base is the directory the ticket published; offsets stay
            // below t.slots slots and retirement cannot unmap it mid-test.
            unsafe {
                assert_eq!(*(t.base.add(i << 12) as *const u64), 500 + i as u64);
            }
        }
        assert!(pl.budget().in_use() <= 8);

        // Updates arrive addressed at the traditional (16-slot) depth and
        // must be shifted onto the coarse node: redirecting fine slots
        // 14 and 15 (one covering range at depth 4) lands on coarse
        // slot 7.
        let fresh = pl.alloc_run(1).unwrap();
        stamp(&pl, fresh, 999);
        for fine_slot in [14usize, 15] {
            eng.inbox_lock().relay([MaintRequest::Update {
                slots: fine_slot..fine_slot + 1,
                ppage: fresh,
            }]);
            eng.pass().unwrap();
        }
        assert!(state.in_sync());
        let t = state.begin_read().unwrap();
        // SAFETY: t.base is the directory the ticket published; offsets stay
        // below t.slots slots and retirement cannot unmap it mid-test.
        unsafe {
            assert_eq!(*(t.base.add(7 << 12) as *const u64), 999);
            assert_eq!(
                *(t.base.add(6 << 12) as *const u64),
                506,
                "neighbor untouched"
            );
        }
    }

    #[test]
    fn service_census_counts_resolvable_buckets_per_shift() {
        let a = |pairs: &[(usize, usize)]| -> Vec<(usize, PageIdx)> {
            pairs.iter().map(|&(s, p)| (s, PageIdx(p))).collect()
        };
        // Covers 4, 2, 1, 1 over 8 slots.
        let v = a(&[
            (0, 10),
            (1, 10),
            (2, 10),
            (3, 10),
            (4, 30),
            (5, 30),
            (6, 50),
            (7, 70),
        ]);
        let (total, r) = service_census(&v, 3);
        assert_eq!(total, 4);
        assert_eq!(r, vec![4, 2, 1, 0]);
    }

    #[test]
    fn coarse_depth_picked_by_service_fraction_not_first_fit() {
        // A skewed-depth directory: one bucket covering 8 of 16 slots
        // (local depth 1), one covering 4 (depth 2), four deep buckets
        // covering 1 each (depth 4). No bucket has local depth exactly 3,
        // so publishing at shift 1 (8 slots) and shift 2 (4 slots)
        // resolves the *same* two shallow buckets — equal service — while
        // the scattered pages make shift 1 cost 8 VMAs and shift 2 only
        // 4. First-fit-by-footprint would publish at shift 1; service
        // selection must tie-break to the cheaper shift 2.
        let mut pl = PagePool::new(PoolConfig {
            initial_pages: 0,
            min_growth_pages: 32,
            view_capacity_pages: 4096, // audit:allow(page-literal): view capacity in pages (a count), not a byte size
            vma_budget: Some(shortcut_rewire::VmaBudget::with_limit(10)),
            ..PoolConfig::default()
        })
        .unwrap();
        let state = Arc::new(SharedDirectoryState::new());
        let metrics = Arc::new(MaintMetrics::default());
        let mut eng = MapperEngine::new(
            pl.handle(),
            Arc::clone(&state),
            Arc::clone(&metrics),
            MaintConfig {
                compaction: CompactionPolicy::on(),
                ..MaintConfig::default()
            },
        );
        let run = pl.alloc_run(32).unwrap();
        // Scattered, pairwise non-consecutive pages: nothing merges.
        let pages: Vec<PageIdx> = [0usize, 5, 10, 12, 20, 27]
            .iter()
            .map(|&off| PageIdx(run.0 + off))
            .collect();
        let mut assignments: Vec<(usize, PageIdx)> = Vec::new();
        for s in 0..8 {
            assignments.push((s, pages[0])); // depth-1 bucket
        }
        for s in 8..12 {
            assignments.push((s, pages[1])); // depth-2 bucket
        }
        for (i, s) in (12..16).enumerate() {
            assignments.push((s, pages[2 + i])); // four depth-4 buckets
        }
        eng.inbox_lock().relay([MaintRequest::Create {
            slots: 16,
            assignments,
        }]);
        eng.pass().unwrap();
        assert!(state.in_sync());
        assert!(!state.suspended());
        let t = state.begin_read().unwrap();
        assert_eq!(
            t.slots, 4,
            "equal-service depths must tie-break to the smaller footprint"
        );
        let s = metrics.snapshot();
        assert_eq!(s.creates_coarse, 1);
        assert_eq!(
            s.coarse_service_pct,
            2 * 100 / 6,
            "2 of 6 buckets resolvable"
        );
    }

    #[test]
    fn genuine_no_fit_counts_as_skipped_not_deferred() {
        // No pins, nothing retired: the failed admission is a genuine
        // suspension and must be counted under creates_skipped.
        let mut pl = PagePool::new(PoolConfig {
            initial_pages: 16,
            min_growth_pages: 16,
            view_capacity_pages: 4096, // audit:allow(page-literal): view capacity in pages (a count), not a byte size
            vma_budget: Some(shortcut_rewire::VmaBudget::with_limit(16)),
            ..PoolConfig::default()
        })
        .unwrap();
        let state = Arc::new(SharedDirectoryState::new());
        let metrics = Arc::new(MaintMetrics::default());
        let mut eng = MapperEngine::new(
            pl.handle(),
            Arc::clone(&state),
            Arc::clone(&metrics),
            MaintConfig::default(),
        );
        let l0 = pl.alloc_page().unwrap();
        eng.inbox_lock().relay([MaintRequest::Create {
            slots: 64,
            assignments: (0..64).map(|s| (s, l0)).collect(),
        }]);
        eng.pass().unwrap();
        assert!(state.suspended());
        assert_eq!(metrics.snapshot().creates_skipped, 1);
        assert_eq!(metrics.snapshot().creates_deferred, 0);
    }

    #[test]
    fn update_without_node_is_discarded_not_fatal() {
        let pl = pool();
        let state = Arc::new(SharedDirectoryState::new());
        let metrics = Arc::new(MaintMetrics::default());
        let mut eng = MapperEngine::new(
            pl.handle(),
            Arc::clone(&state),
            Arc::clone(&metrics),
            MaintConfig::default(),
        );
        eng.inbox_lock().relay([MaintRequest::Update {
            slots: 0..1,
            ppage: PageIdx(0),
        }]);
        eng.pass().unwrap();
        assert_eq!(metrics.snapshot().updates_discarded, 1);
        assert!(!state.in_sync());
    }

    #[test]
    fn two_relays_and_one_pass_publish_the_second_relays_version() {
        let mut pl = pool();
        let state = Arc::new(SharedDirectoryState::new());
        let mut eng = MapperEngine::new(
            pl.handle(),
            Arc::clone(&state),
            Arc::default(),
            MaintConfig::default(),
        );
        let (l0, l1) = (pl.alloc_page().unwrap(), pl.alloc_page().unwrap());
        eng.inbox_lock().relay([MaintRequest::Create {
            slots: 2,
            assignments: vec![(0, l0), (1, l0)],
        }]);
        let first = state.traditional_version();
        eng.inbox_lock().relay([MaintRequest::Update {
            slots: 1..2,
            ppage: l1,
        }]);
        assert_eq!(state.traditional_version(), first + 1, "one bump a relay");
        eng.pass().unwrap();
        assert_eq!(state.shortcut_version(), first + 1);
        assert!(state.begin_read().is_some(), "served");
    }

    #[test]
    fn a_pass_whose_only_update_is_stale_stays_out_of_sync() {
        let mut pl = pool();
        let state = Arc::new(SharedDirectoryState::new());
        let metrics = Arc::new(MaintMetrics::default());
        let mut eng = MapperEngine::new(
            pl.handle(),
            Arc::clone(&state),
            Arc::clone(&metrics),
            MaintConfig::default(),
        );
        let l0 = pl.alloc_page().unwrap();
        eng.inbox_lock().relay([MaintRequest::Create {
            slots: 2,
            assignments: vec![(0, l0), (1, l0)],
        }]);
        eng.pass().unwrap();
        let published = state.shortcut_version();
        // Slot 5 of a 2-slot directory: no producer that keeps the
        // protocol sends it.
        eng.inbox_lock().relay([MaintRequest::Update {
            slots: 5..6,
            ppage: l0,
        }]);
        eng.pass().unwrap();
        assert_eq!(metrics.snapshot().updates_discarded, 1);
        assert_eq!(state.shortcut_version(), published, "published nothing");
        assert!(!state.in_sync());
        assert!(state.begin_read().is_none());
    }

    #[test]
    fn stagger_keeps_the_first_mapper_exact_and_bounds_the_rest() {
        let base = Duration::from_millis(25);
        assert_eq!(staggered_poll_interval(base, 0), base);
        let mut seen = std::collections::HashSet::new();
        for seq in 1..=64 {
            let p = staggered_poll_interval(base, seq);
            assert!(p > base, "seq {seq} must be staggered past the base");
            assert!(p <= base + base / 4, "seq {seq} stagger exceeds +25%");
            assert!(seen.insert(p), "seq {seq} collides with an earlier seq");
        }
    }

    #[test]
    fn co_spawned_mappers_diverge() {
        // Two maintainers started together (same config) must not share a
        // poll period — otherwise N sharded mappers tick their reclaim
        // scans in lockstep.
        let mut p1 = pool();
        let mut p2 = pool();
        let _ = p1.alloc_page().unwrap();
        let _ = p2.alloc_page().unwrap();
        let cfg = MaintConfig {
            poll_interval: Duration::from_millis(25),
            ..MaintConfig::default()
        };
        let m1 = Maintainer::spawn(p1.handle(), cfg.clone());
        let m2 = Maintainer::spawn(p2.handle(), cfg);
        assert_ne!(
            m1.poll_interval(),
            m2.poll_interval(),
            "co-spawned mappers must stagger their poll ticks"
        );
    }

    #[test]
    fn threaded_maintainer_reaches_sync() {
        let mut pl = pool();
        let l0 = pl.alloc_page().unwrap();
        let l1 = pl.alloc_page().unwrap();
        stamp(&pl, l0, 100);
        stamp(&pl, l1, 200);

        let m = Maintainer::spawn(
            pl.handle(),
            MaintConfig {
                poll_interval: Duration::from_millis(1),
                ..MaintConfig::default()
            },
        );
        m.inbox_lock().relay([MaintRequest::Create {
            slots: 2,
            assignments: vec![(0, l0), (1, l1)],
        }]);
        assert!(m.wait_sync(Duration::from_secs(5)), "mapper never synced");
        let t = m.state().begin_read().unwrap();
        // SAFETY: t.base is the directory the ticket published; offsets stay
        // below t.slots slots and retirement cannot unmap it mid-test.
        unsafe {
            assert_eq!(*(t.base as *const u64), 100);
            assert_eq!(*(t.base.add(PAGE_SIZE_4K) as *const u64), 200);
        }
        assert!(m.state().still_valid(t));
        assert!(m.error().is_none());
    }

    #[test]
    fn threaded_maintainer_processes_update_stream() {
        let mut pl = pool();
        let pages: Vec<PageIdx> = (0..8).map(|_| pl.alloc_page().unwrap()).collect();
        for (i, p) in pages.iter().enumerate() {
            stamp(&pl, *p, 1000 + i as u64);
        }
        let m = Maintainer::spawn(
            pl.handle(),
            MaintConfig {
                poll_interval: Duration::from_millis(1),
                ..MaintConfig::default()
            },
        );
        m.inbox_lock().relay([MaintRequest::Create {
            slots: 8,
            assignments: (0..8).map(|i| (i, pages[0])).collect(),
        }]);
        // Stream of split-style updates.
        for (i, p) in pages.iter().enumerate() {
            m.inbox_lock().relay([MaintRequest::Update {
                slots: i..i + 1,
                ppage: *p,
            }]);
        }
        assert!(m.wait_sync(Duration::from_secs(5)));
        let t = m.state().begin_read().unwrap();
        for i in 0..8 {
            // SAFETY: t.base is the directory the ticket published; offsets stay
            // below t.slots slots and retirement cannot unmap it mid-test.
            unsafe {
                assert_eq!(
                    *(t.base.add(i * PAGE_SIZE_4K) as *const u64),
                    1000 + i as u64
                );
            }
        }
        assert!(m.error().is_none());
        let s = m.metrics();
        assert_eq!(s.creates_applied, 1);
        assert!(s.updates_applied + s.updates_discarded >= 8);
    }
}
