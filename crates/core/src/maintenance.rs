//! Asynchronous shortcut maintenance (paper §4.1).
//!
//! All directory-modifying operations are reflected synchronously in the
//! *traditional* directory; the shortcut directory replays them
//! asynchronously. Coordination runs through a FIFO queue — a vector
//! behind one mutex, appended to once per relay and swapped out whole by
//! the mapper:
//!
//! * **Update** — after a bucket split, the slots of the split bucket that
//!   now belong to its new half must be remapped. The directory is indexed
//!   by hash suffix, so they are a strided set ([`SlotStride`]): the index
//!   pushes one request per split carrying that set and the pool page
//!   (file offset) to map it to.
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
//! The mapper alone picks the published depth: while it serves a
//! directory coarser than the traditional one, or none, it keeps the
//! full-depth directory *pending*, folds every update into it, and runs
//! it through the same admission again when a finer depth may fit
//! ([`MapperEngine::reclaim_tick`]).

use crate::metrics::{MaintMetrics, MaintSnapshot};
use crate::shortcut_node::ShortcutNode;
use crate::version::{ReadLine, SharedDirectoryState};
use shortcut_rewire::{budget_headroom, Error, PageIdx, PoolHandle, Result, RetireList, ZapCall};
use std::ops::RangeInclusive;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Maximum coarsening of the published shortcut depth (up to 2⁴ = 16×
/// fewer slots) tried by rebuild admission before a create is refused.
const MAX_PUBLISH_SHIFT: u32 = 4;

/// Update requests folded into the pending directory between two looks
/// at it (see [`MapperEngine::worth_a_retry`]): a look costs a scan of
/// the directory per depth it weighs.
const LOOK_INTERVAL: usize = 64;

/// The `shift`-coarser directory of a **full** assignment vector
/// (`assignments[i].0 == i`): its first `2^(d−shift)` slots. The directory
/// is indexed by hash suffix, so slot `j` of the coarse directory holds the
/// bucket of every fine slot `j + k·2^(d−shift)` whose local depth fits:
/// those resolve exactly; deeper buckets share a coarse slot with a
/// sibling and are detected by readers via the bucket's stored local depth
/// (they fall back to the traditional directory for those keys).
fn coarsen_assignments(assignments: &[(usize, PageIdx)], shift: u32) -> &[(usize, PageIdx)] {
    &assignments[..assignments.len() >> shift]
}

/// Service census of a **full** assignment vector: `resolvable[s]` counts
/// the buckets — distinct pool pages; a bucket of local depth `l` under a
/// depth-`d` directory is named by `2^(d−l)` slots — whose local depth
/// still fits a publish `s` levels coarser, i.e. that at least `2^s`
/// slots name. Those are the buckets such a publish resolves through the
/// shortcut; deeper buckets fall back per key via the reader-side
/// local-depth check. Returns `(total_buckets, resolvable)`.
pub fn service_census(assignments: &[(usize, PageIdx)], max_shift: u32) -> (usize, Vec<usize>) {
    let mut pages: Vec<usize> = assignments.iter().map(|&(_, p)| p.0).collect();
    pages.sort_unstable();
    let mut resolvable = vec![0usize; max_shift as usize + 1];
    let mut total = 0usize;
    for named in pages.chunk_by(|a, b| a == b).map(<[usize]>::len) {
        total += 1;
        for (s, r) in resolvable.iter_mut().enumerate() {
            if named >= 1 << s {
                *r += 1;
            }
        }
    }
    (total, resolvable)
}

/// The directory slots one split redirects: `first`, `first + step`, …
/// below `end`. A bucket of local depth `l` with suffix `b` is named by
/// the slots `b + k·2^l`; splitting it hands those with bit `l` set to the
/// new bucket, so `first = b + 2^l`, `step = 2^(l+1)` and `end` is the
/// directory's slot count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotStride {
    /// The lowest redirected slot.
    pub first: usize,
    /// Distance between two redirected slots (a power of two).
    pub step: usize,
    /// The directory's slot count: every redirected slot lies below it.
    pub end: usize,
}

impl SlotStride {
    /// The redirected slots below `bound`, ascending.
    pub fn below(self, bound: usize) -> std::iter::StepBy<std::ops::Range<usize>> {
        (self.first..self.end.min(bound)).step_by(self.step)
    }

    /// Every redirected slot, ascending.
    pub fn iter(self) -> std::iter::StepBy<std::ops::Range<usize>> {
        self.below(self.end)
    }

    /// How many slots are redirected.
    pub fn len(self) -> usize {
        self.end.saturating_sub(self.first).div_ceil(self.step)
    }

    /// Whether no slot is redirected.
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }
}

/// Queue length that wakes a parked mapper ahead of its tick.
pub const WAKE_BACKLOG: usize = 512;

/// A directory change, as the index records it and relays it to the
/// mapper ([`InboxGuard::relay`]).
#[derive(Debug, Clone)]
pub enum MaintRequest {
    /// A bucket split redirected `slots` (those of the split bucket whose
    /// next hash bit is set): remap each of them.
    Update {
        /// Slots to remap.
        slots: SlotStride,
        /// Pool page of the bucket they must reference.
        ppage: PageIdx,
    },
    /// The directory doubled, or the index announces its first one:
    /// replace the shortcut with a fresh one.
    Create {
        /// Slot count of the new directory.
        slots: usize,
        /// Complete `(slot, pool page)` assignment, sorted by slot.
        assignments: Vec<(usize, PageIdx)>,
    },
}

/// How rebuild admission reserves a directory's mappings.
///
/// The index places the bucket of hash suffix `b` on pool page `b`, so a
/// directory indexed by suffix maps whole stretches of consecutive pages
/// and costs a handful of VMAs — until splits go on redirecting single
/// slots, each of which can cost two more. By default admission reserves
/// the **worst case**, one VMA per slot, so a live directory can never
/// outgrow the budget between doublings; [`CompactionPolicy::on`]
/// reserves the rebuild's **exact** footprint instead and lets admission
/// publish a coarser directory when even that does not fit; the mapper
/// keeps the full-depth directory pending meanwhile and publishes it
/// finer once a finer depth fits again. (The name is that of the
/// mechanism this rule once came with: a pass that moved bucket pages
/// into directory order, which the layout has made unnecessary.)
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionPolicy {
    enabled: bool,
}

impl CompactionPolicy {
    /// Worst-case rebuild admission. This is the default.
    pub fn disabled() -> Self {
        CompactionPolicy { enabled: false }
    }

    /// Exact-footprint rebuild admission, with coarse publishes: the
    /// recommended production policy.
    pub fn on() -> Self {
        CompactionPolicy { enabled: true }
    }

    /// Whether admission reserves the exact footprint.
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
    /// Rebuild admission (see [`CompactionPolicy`]; default worst case).
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

/// A directory as a [`MaintRequest::Create`] carries it, with the version
/// of the last pass that folded an update into it:
/// `(slots, assignments, version)`.
type Rebuild = (usize, Vec<(usize, PageIdx)>, u64);

/// Point `slot` of a sorted assignment vector at `ppage`.
fn assign(assignments: &mut Vec<(usize, PageIdx)>, slot: usize, ppage: PageIdx) {
    match assignments.binary_search_by_key(&slot, |a| a.0) {
        Ok(i) => assignments[i].1 = ppage,
        Err(i) => assignments.insert(i, (slot, ppage)),
    }
}

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
    /// The traditional directory at full depth, kept while the live node
    /// is coarser than it or there is none (admission refused it, maybe
    /// only because a reader pin stalled a reclaim): every update is
    /// folded into it, so that what the mapper's own retry
    /// ([`MapperEngine::publish_pending`]) publishes is what the index
    /// holds. Superseded by any newer create.
    pending: Option<Rebuild>,
    /// Smallest footprint any *admissible* depth of the pending directory
    /// would reserve (exact depth, or a coarser depth that still resolves
    /// at least one bucket), cached by the admission that refused it — so
    /// the per-tick retry probe of a suspended shortcut is one O(1)
    /// `would_fit_for` that agrees with what admission will accept.
    /// Folded updates can leave it stale: a retry that then fails
    /// recomputes it, and under exact admission a look every
    /// [`LOOK_INTERVAL`] folded updates retries anyway.
    min_want: usize,
    /// Update requests folded into the pending directory since it last
    /// went through admission or a look.
    folded: usize,
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
            pending: None,
            min_want: 0,
            folded: 0,
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
    /// what is queued ahead of it), then the updates behind it as one
    /// batch (one vectored zap per [`shortcut_rewire::ZAP_BATCH`] slots,
    /// one publish).
    fn apply_batch(&mut self, batch: Vec<MaintRequest>, version: u64) -> Result<usize> {
        let n = batch.len();
        let mut updates = Vec::new();
        for req in batch {
            match req {
                MaintRequest::Update { slots, ppage } => updates.push((slots, ppage)),
                MaintRequest::Create { slots, assignments } => {
                    debug_assert!(updates.is_empty(), "a create behind an update");
                    // It supersedes whatever directory was pending.
                    self.pending = Some((slots, assignments, version));
                    self.publish_pending(true, 0..=MAX_PUBLISH_SHIFT)?;
                }
            }
        }
        self.apply_updates(updates, version)?;
        Ok(n)
    }

    /// Apply the updates of one pass, in FIFO order, as **one** sorted,
    /// last-wins assignment list: zap, rewire (populated), publish
    /// `version` once. The shortcut is out of sync from the relay of the
    /// first of them until that publish (the relay bumped the traditional
    /// version), so no reader takes an answer from a slot this touches. A stale
    /// update — one no directory of the engine resolves — is discarded,
    /// and the pass then publishes nothing: the shortcut stays out of sync.
    fn apply_updates(&mut self, updates: Vec<(SlotStride, PageIdx)>, version: u64) -> Result<()> {
        let live_slots = self.current.as_ref().map_or(0, |n| n.slots());
        let mut batch: Vec<(usize, PageIdx)> = Vec::with_capacity(updates.len());
        let (mut stale, mut live) = (false, false);
        for (slots, ppage) in updates {
            // A pending directory takes every update, or a retry would
            // publish pre-split slots and a later update could restore
            // version equality over a stale mapping.
            let folded = match &mut self.pending {
                Some((dir_slots, assignments, pending_version)) if slots.end <= *dir_slots => {
                    slots
                        .iter()
                        .for_each(|slot| assign(assignments, slot, ppage));
                    *pending_version = version;
                    self.folded += 1;
                    true
                }
                _ => false,
            };
            if !folded && slots.end > live_slots {
                // Stale update (raced a rebuild that shrank… or no
                // node yet). Protocol-respecting producers never hit
                // this; drop defensively.
                self.metrics.updates_discarded.add(1);
                stale = true;
                continue;
            }
            // Producers address slots at the traditional directory's
            // depth; a coarsely published node holds its first
            // `live_slots`, and fine slot `j` resolves at `j & (live_slots
            // − 1)`. A split that leaves its halves deeper than the
            // published depth redirects no slot below that (its first
            // slot is past it): the coarse slot keeps the old half, and
            // readers detect its local depth and fall back for its keys.
            batch.extend(slots.below(live_slots).map(|slot| (slot, ppage)));
            live |= live_slots > 0;
        }
        // Under exact admission, folded splits move the pending
        // directory's footprints: look at it again now and then. This
        // pass took a relay, whose bump took the live node out of service.
        if self.cfg.compaction.enabled() && self.folded >= LOOK_INTERVAL {
            self.folded = 0;
            if self.worth_a_retry() {
                return self.publish_pending(false, 0..=MAX_PUBLISH_SHIFT);
            }
        }
        // Each rewired slot can split a run in three, up to one mapping a
        // slot. A batch the budget cannot take at that cost sends the
        // directory through admission instead — the pending one, or the
        // live node's mappings and the batch — at depths coarser than the
        // live node only: rebuilt at its own depth, it would take the
        // next pass's updates no better, and a pass could rebuild it
        // every time. (A directory admitted at the worst case never
        // needs it.)
        if let Some(node) = self.current.as_ref().filter(|_| !batch.is_empty()) {
            let growth =
                (2 * batch.len()).min(node.slots() - node.vma_estimate().min(node.slots()));
            if !self
                .pool
                .budget()
                .would_fit_for(self.pool.usage(), growth, 0)
            {
                let pending = self.pending.get_or_insert_with(|| {
                    let mut assignments: Vec<(usize, PageIdx)> = (0..node.slots())
                        .filter_map(|i| Some((i, node.slot_mapping(i)?)))
                        .collect();
                    for &(slot, ppage) in &batch {
                        assign(&mut assignments, slot, ppage);
                    }
                    (node.slots(), assignments, version)
                });
                let finest = (pending.0 / node.slots()).trailing_zeros() + 1;
                return self.publish_pending(true, finest..=MAX_PUBLISH_SHIFT.max(finest));
            }
        }
        let Some(node) = self.current.as_mut().filter(|_| live) else {
            return Ok(());
        };
        if !batch.is_empty() {
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
                // The node rewires with `MAP_POPULATE`: each slot of the
                // batch has its page-table entry already.
                self.metrics.pages_populated.add(batch.len() as u64);
            }
            self.metrics.updates_applied.add(applied);
            self.metrics.slots_rewired.add(batch.len() as u64);
            self.metrics.update_batches.add(1);
        }
        if !stale {
            // SAFETY: the live node maps its slots until `retire` hands it
            // to the pool's retire list, whose pins readers hold.
            unsafe { self.state.publish(node.base(), node.slots(), version) };
        }
        Ok(())
    }

    /// Admit the pending directory ([`MapperEngine::admit_create`]) and
    /// publish it, at its version, at the depth admission picks, retiring
    /// the live node it supersedes. Every published depth is reached
    /// through here: from a relayed create, from an update batch the live
    /// node cannot take, and from the mapper's own retries. A directory
    /// published coarser than it is stays pending. Refused, it stays
    /// pending with the shortcut suspended, and `count` says whether the
    /// refusal is counted — a retry that fails counts nothing. Admission
    /// tries the depths `shifts` levels coarser than the directory.
    fn publish_pending(&mut self, count: bool, shifts: RangeInclusive<u32>) -> Result<()> {
        self.folded = 0;
        let Some((slots, assignments, version)) = self.pending.take() else {
            return Ok(());
        };
        let Some((shift, reservation)) = self.admit_create(slots, &assignments, shifts) else {
            self.state.set_suspended(true);
            if count {
                // Deferred (transient: pinned readers stalled the reclaim
                // scan, and a retry on an upcoming tick will succeed)
                // while retired areas remain; skipped (genuine: the
                // directory does not fit) otherwise.
                if self.pool.retire_list().retired_count() > 0 {
                    self.metrics.creates_deferred.add(1);
                } else {
                    self.metrics.creates_skipped.add(1);
                }
            }
            self.pending = Some((slots, assignments, version));
            return Ok(());
        };
        let node = self.build(
            slots >> shift,
            coarsen_assignments(&assignments, shift),
            reservation,
        )?;
        self.metrics.creates_applied.add(1);
        if shift > 0 {
            self.metrics.creates_coarse.add(1);
            self.pending = Some((slots, assignments, version));
        }
        // SAFETY: as in `apply_updates`: the node becomes the live one.
        unsafe { self.state.publish(node.base(), node.slots(), version) };
        self.state.set_suspended(false);
        if let Some(old) = self.current.replace(node) {
            self.retire(old);
        }
        Ok(())
    }

    /// Whether a look at the pending directory finds a retry worth its
    /// rebuild: for a suspended shortcut always (the folded splits moved
    /// its footprints, which a failed retry caches again); for a coarse
    /// one when a finer depth's planned footprint fits half the pool's
    /// share — half of `fair_share(0)` in a fair pool, of the limit
    /// otherwise — so that the published depth does not flap where it
    /// barely fits.
    fn worth_a_retry(&self) -> bool {
        match (&self.pending, &self.current) {
            (Some((slots, assignments, _)), Some(node)) => {
                let budget = self.pool.budget();
                let share = if self.pool.usage().is_fair() {
                    budget.fair_share(0)
                } else {
                    budget.limit()
                };
                let coarser = (slots / node.slots()).trailing_zeros();
                (0..coarser).any(|shift| {
                    let fine = coarsen_assignments(assignments, shift);
                    shortcut_rewire::planned_vmas(slots >> shift, fine) <= share / 2
                })
            }
            (pending, None) => pending.is_some(),
            (None, Some(_)) => false,
        }
    }

    /// A `slots`-slot node mapping `assignments`, populated (when the
    /// engine populates) and charged to the pool's budget: `reservation`
    /// is settled to its exact footprint in one adjustment, so the budget
    /// never transiently double-counts the directory (which could trip
    /// `in_use <= limit` asserts) and never dips (which would let a
    /// concurrent pool steal margin).
    fn build(
        &self,
        slots: usize,
        assignments: &[(usize, PageIdx)],
        reservation: shortcut_rewire::BudgetReservation,
    ) -> Result<ShortcutNode> {
        let mut node = if self.cfg.eager_populate {
            ShortcutNode::new_populated(slots)?
        } else {
            ShortcutNode::new(slots)?
        };
        let calls = node.set_batch(&self.pool, assignments)?;
        if self.cfg.eager_populate {
            // Populated as it was rewired (`MAP_POPULATE`).
            self.metrics.pages_populated.add(assignments.len() as u64);
        }
        reservation.settle(node.vma_estimate());
        node.charge_to_prepaid(&self.pool);
        self.metrics.slots_rewired.add(assignments.len() as u64);
        self.metrics.create_mmap_calls.add(calls);
        Ok(node)
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

    /// The coarsest shift admission may try for a rebuild: with exact
    /// admission and a full assignment vector, up to `coarsest` halvings
    /// of the published depth (a halving keeps the directory's first
    /// half, which maps the same runs of pages, so it is never less
    /// mergeable); otherwise only the exact depth.
    fn candidate_shifts(
        &self,
        slots: usize,
        assignments: &[(usize, PageIdx)],
        coarsest: u32,
    ) -> u32 {
        if self.cfg.compaction.enabled() && assignments.len() == slots {
            coarsest.min(slots.trailing_zeros())
        } else {
            0
        }
    }

    /// VMAs to reserve for a rebuild at coarsening `shift`. By default
    /// this is the **worst case** — a `slots`-page area can fragment to
    /// one VMA per slot as later bucket splits break merged runs, so
    /// admitting at `slots` guarantees the live directory can never
    /// outgrow the budget between doublings. With
    /// [`CompactionPolicy::on`] admission uses the rebuild's **exact**
    /// initial footprint instead — this is what lets a multi-million-slot
    /// directory through a stock `vm.max_map_count`.
    fn rebuild_reservation(
        &self,
        slots: usize,
        assignments: &[(usize, PageIdx)],
        shift: u32,
    ) -> usize {
        if shift > 0 {
            shortcut_rewire::planned_vmas(slots >> shift, coarsen_assignments(assignments, shift))
        } else if self.cfg.compaction.enabled() {
            shortcut_rewire::planned_vmas(slots, assignments)
        } else {
            slots
        }
    }

    /// Admission control for a rebuild at the depths `shifts` levels
    /// coarser than it: atomically reserve the rebuild's footprint (see
    /// [`MapperEngine::rebuild_reservation`]), preferring the exact depth
    /// and falling back to coarser published depths (the
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
    /// does not fit — `None`, with the cheapest footprint any depth would
    /// be admitted at cached for the retry probe.
    fn admit_create(
        &mut self,
        slots: usize,
        assignments: &[(usize, PageIdx)],
        shifts: RangeInclusive<u32>,
    ) -> Option<(u32, shortcut_rewire::BudgetReservation)> {
        let budget = Arc::clone(self.pool.budget());
        let usage = Arc::clone(self.pool.usage());
        let headroom = budget_headroom(budget.limit());
        let max_shift = self.candidate_shifts(slots, assignments, *shifts.end());
        let exact = shifts.contains(&0);
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
        if let Some(r) = exact
            .then(|| budget.try_reserve_for(&usage, want, overlap_headroom))
            .flatten()
        {
            self.metrics.coarse_service_pct.set(100);
            return Some((0, r));
        }
        if let Some(old) = self.current.take() {
            self.retire(old);
        }
        self.pool.retire_list().try_reclaim();
        let mut min_want = want;
        if let Some(r) = exact
            .then(|| budget.try_reserve_for(&usage, want, headroom))
            .flatten()
        {
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
                if !shifts.contains(&shift) {
                    continue;
                }
                if let Some(r) = budget.try_reserve_for(&usage, want, headroom) {
                    let pct = (served * 100 / total.max(1)) as u64;
                    self.metrics.coarse_service_pct.set(pct);
                    return Some((shift, r));
                }
            }
        }
        // Refused: recomputed here on every failed retry, so a stale
        // bound self-corrects.
        self.min_want = min_want;
        None
    }

    /// Drive retired-area reclamation, then retry a suspended shortcut's
    /// pending directory if it would now fit (called by the mapper thread
    /// at the end of every pass). Returns the number of areas unmapped.
    pub fn reclaim_tick(&mut self) -> Result<usize> {
        let reclaimed = self.pool.retire_list().try_reclaim();
        if self.current.is_none() && self.pending.is_some() {
            // A racy O(1) probe against the smallest footprint admission
            // would take; the retry reserves atomically. A bound folded
            // updates left stale costs at most one futile retry, which
            // recomputes it — never a per-tick loop.
            let budget = self.pool.budget();
            let headroom = budget_headroom(budget.limit());
            if budget.would_fit_for(self.pool.usage(), self.min_want, headroom) {
                self.publish_pending(false, 0..=MAX_PUBLISH_SHIFT)?;
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

    /// Slot `slot` alone, as a split's last redirection is.
    pub(super) fn one(slot: usize) -> SlotStride {
        SlotStride {
            first: slot,
            step: 1,
            end: slot + 1,
        }
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
            slots: one(1),
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
        // One split of the bucket all four slots name: the odd slots (hash
        // bit 0 set) move to l1, in one request.
        eng.inbox_lock().relay([MaintRequest::Update {
            slots: SlotStride {
                first: 1,
                step: 2,
                end: 4,
            },
            ppage: l1,
        }]);
        eng.pass().unwrap();
        assert!(state.in_sync());
        let t = state.begin_read().unwrap();
        for (slot, want) in [10, 11, 10, 11].into_iter().enumerate() {
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
            slots: one(0),
            ppage: l0,
        }]);
        eng.inbox_lock().relay([MaintRequest::Update {
            slots: one(1),
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
            slots: one(1),
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
            slots: one(3),
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

    /// A suffix-ordered directory of fan-in 2 whose buckets sit on the
    /// pages of their suffixes is two runs: its rebuild at 2^12 slots is
    /// at most 4 `mmap` calls, where a scattered layout costs one a slot.
    #[test]
    fn a_fan_in_2_rebuild_of_4096_slots_is_a_few_mmap_calls() {
        let mut pl = PagePool::new(PoolConfig {
            initial_pages: 0,
            min_growth_pages: 2048,
            view_capacity_pages: 1 << 12,
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
        const SLOTS: usize = 1 << 12;
        let run = pl.alloc_run(SLOTS / 2).unwrap();
        eng.inbox_lock().relay([MaintRequest::Create {
            slots: SLOTS,
            assignments: (0..SLOTS)
                .map(|s| (s, PageIdx(run.0 + s % (SLOTS / 2))))
                .collect(),
        }]);
        eng.pass().unwrap();
        assert!(state.in_sync());
        let calls = metrics.snapshot().create_mmap_calls;
        assert!(calls <= 4, "{calls} mmap calls");
        assert_eq!(eng.current().unwrap().vma_estimate(), 2);
    }

    /// Updates that could take the budget past its limit republish the
    /// live directory a level coarser, from its own first half, instead
    /// of mapping past the limit: the budget holds, and the coarse node
    /// serves every bucket shallow enough for it.
    #[test]
    fn updates_past_the_budget_republish_the_live_directory_coarser() {
        let mut pl = PagePool::new(PoolConfig {
            initial_pages: 0,
            min_growth_pages: 64,
            view_capacity_pages: 4096, // audit:allow(page-literal): view capacity in pages (a count), not a byte size
            vma_budget: Some(shortcut_rewire::VmaBudget::with_limit(30)),
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
        let run = pl.alloc_run(64).unwrap();
        for i in 0..64 {
            stamp(&pl, PageIdx(run.0 + i), 700 + i as u64);
        }
        // 64 slots over the 32 depth-5 buckets at their suffixes: 2 runs.
        eng.inbox_lock().relay([MaintRequest::Create {
            slots: 64,
            assignments: (0..64).map(|s| (s, PageIdx(run.0 + s % 32))).collect(),
        }]);
        eng.pass().unwrap();
        assert!(state.in_sync());
        assert_eq!(state.begin_read().unwrap().slots, 64);
        // Every other bucket splits: 16 single-slot redirections in the
        // upper half, each breaking a run in three — 32 more mappings
        // than the budget's 30 can take beside the pool's view.
        eng.inbox_lock()
            .relay((0..16).map(|b| MaintRequest::Update {
                slots: SlotStride {
                    first: 32 + 2 * b,
                    step: 64,
                    end: 64,
                },
                ppage: PageIdx(run.0 + 32 + 2 * b),
            }));
        eng.pass().unwrap();
        assert!(state.in_sync(), "the pass published");
        let t = state.begin_read().unwrap();
        assert_eq!(t.slots, 32, "published a level coarser");
        for i in 0..32 {
            // SAFETY: t.base is the directory the ticket published; offsets
            // stay below t.slots slots and retirement cannot unmap it.
            unsafe {
                assert_eq!(*(t.base.add(i << 12) as *const u64), 700 + i as u64);
            }
        }
        let budget = pl.budget();
        assert!(budget.in_use() <= budget.limit(), "{}", budget.in_use());
        assert_eq!(metrics.snapshot().creates_coarse, 1);
    }

    #[test]
    fn over_budget_rebuild_publishes_at_coarser_depth() {
        // 16 slots in suffix order over pages placed at their suffix: a
        // depth-2 bucket (slots ≡ 3 mod 4), depth-3 ones at the even
        // suffixes, depth-4 ones at 1, 5, 9 and 13. The exact depth maps
        // 8 runs (10 VMAs with the pool view): budget 8 (headroom 0)
        // refuses it. The half-depth view — the first 8 slots — is 2 runs
        // and must be published instead of suspending.
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
        let run = pl.alloc_run(16).unwrap();
        for i in 0..16 {
            stamp(&pl, PageIdx(run.0 + i), 500 + i as u64);
        }
        let page_of = |s: usize| match s {
            _ if s % 4 == 3 => 3,
            1 | 5 | 9 | 13 => s,
            _ => s % 8,
        };
        eng.inbox_lock().relay([MaintRequest::Create {
            slots: 16,
            assignments: (0..16).map(|s| (s, PageIdx(run.0 + page_of(s)))).collect(),
        }]);
        eng.pass().unwrap();
        assert!(state.in_sync(), "coarse publish must keep the shortcut up");
        assert!(!state.suspended());
        assert_eq!(metrics.snapshot().creates_coarse, 1);
        let t = state.begin_read().unwrap();
        assert_eq!(t.slots, 8, "published at half depth");
        for (i, want) in [500, 501, 502, 503, 504, 505, 506, 503]
            .into_iter()
            .enumerate()
        {
            // SAFETY: t.base is the directory the ticket published; offsets stay
            // below t.slots slots and retirement cannot unmap it mid-test.
            unsafe {
                assert_eq!(*(t.base.add(i << 12) as *const u64), want);
            }
        }
        assert!(pl.budget().in_use() <= 8);

        // Updates arrive addressed at the traditional (16-slot) depth and
        // land on the coarse node's first 8 slots: the depth-2 bucket's
        // split hands suffix 7 (slots 7 and 15) a new page, which coarse
        // slot 7 takes. Suffix 6's split leaves both halves at depth 4,
        // deeper than the published 3: it redirects no coarse slot.
        let fresh = pl.alloc_run(1).unwrap();
        stamp(&pl, fresh, 999);
        for (first, step) in [(7, 8), (14, 16)] {
            eng.inbox_lock().relay([MaintRequest::Update {
                slots: SlotStride {
                    first,
                    step,
                    end: 16,
                },
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
                "an over-depth split redirects nothing"
            );
        }
    }

    #[test]
    fn service_census_counts_resolvable_buckets_per_shift() {
        let a = |pairs: &[(usize, usize)]| -> Vec<(usize, PageIdx)> {
            pairs.iter().map(|&(s, p)| (s, PageIdx(p))).collect()
        };
        // Named by 4, 2, 1 and 1 of 8 slots, in suffix order.
        let v = a(&[
            (0, 10),
            (1, 30),
            (2, 10),
            (3, 50),
            (4, 10),
            (5, 30),
            (6, 10),
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
        // Suffix order: the depth-1 bucket is named by the even slots,
        // the depth-2 one by the slots ≡ 1 (mod 4), and the four depth-4
        // ones by one slot each.
        let assignments: Vec<(usize, PageIdx)> = (0..16)
            .map(|s| match s % 4 {
                0 | 2 => (s, pages[0]),
                1 => (s, pages[1]),
                _ => (s, pages[2 + s / 4]),
            })
            .collect();
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

    /// An engine over a fresh pool whose private budget starts at `limit`
    /// mappings (the pool's view takes 2 of them), with the pool, its
    /// budget and the engine's counters.
    fn budgeted(
        limit: usize,
        compaction: CompactionPolicy,
    ) -> (
        PagePool,
        Arc<shortcut_rewire::VmaBudget>,
        Arc<MaintMetrics>,
        MapperEngine,
    ) {
        let budget = shortcut_rewire::VmaBudget::with_limit(limit);
        let pl = PagePool::new(PoolConfig {
            initial_pages: 0,
            min_growth_pages: 64,
            view_capacity_pages: 4096, // audit:allow(page-literal): view capacity in pages (a count), not a byte size
            vma_budget: Some(Arc::clone(&budget)),
            ..PoolConfig::default()
        })
        .unwrap();
        let metrics = Arc::new(MaintMetrics::default());
        let eng = MapperEngine::new(
            pl.handle(),
            Arc::new(SharedDirectoryState::new()),
            Arc::clone(&metrics),
            MaintConfig {
                compaction,
                ..MaintConfig::default()
            },
        );
        (pl, budget, metrics, eng)
    }

    /// The directory a pass of `eng` published, once served: its base and
    /// slot count.
    fn served(eng: &MapperEngine) -> (*const u8, usize) {
        assert!(eng.state.in_sync(), "not in sync");
        eng.inbox_lock().refresh_serving();
        let t = eng.state.begin_read().expect("served");
        (t.base.cast_const(), t.slots)
    }

    /// 64 slots in suffix order over a run of 64 stamped pages: the first
    /// half maps pages 0..32 in one run, and of the second half the first
    /// `2k` slots alternate between the page of the lower-half bucket and
    /// a page of their own, the rest continuing one run: `2k + 2` mappings
    /// at full depth, one at half depth.
    fn fragmented(pl: &mut PagePool, k: usize) -> Vec<(usize, PageIdx)> {
        let run = pl.alloc_run(64).unwrap();
        for i in 0..64 {
            stamp(pl, PageIdx(run.0 + i), 900 + i as u64);
        }
        (0..64)
            .map(|s| {
                let own = s >= 32 && (s - 32) % 2 == 1 && s - 32 < 2 * k;
                (s, PageIdx(run.0 + if own { s } else { s % 32 }))
            })
            .collect()
    }

    /// `n` updates, in one relay, that remap slots of the first half to
    /// the pages they map already: they change no answer and no
    /// footprint, and each is one request to fold.
    fn no_op_updates(eng: &MapperEngine, dir: &[(usize, PageIdx)], n: usize) {
        eng.inbox_lock().relay((0..n).map(|i| MaintRequest::Update {
            slots: one(i % 8),
            ppage: dir[i % 8].1,
        }));
    }

    #[test]
    fn a_suspended_shortcut_comes_back_once_the_limit_is_raised() {
        let (mut pl, budget, metrics, mut eng) = budgeted(32, CompactionPolicy::disabled());
        let l0 = pl.alloc_page().unwrap();
        stamp(&pl, l0, 55);
        eng.inbox_lock().relay([MaintRequest::Create {
            slots: 64,
            assignments: (0..64).map(|s| (s, l0)).collect(),
        }]);
        eng.pass().unwrap();
        assert!(eng.state.suspended());
        assert_eq!(metrics.snapshot().creates_skipped, 1);
        // Nothing changes until the budget does.
        eng.reclaim_tick().unwrap();
        assert!(eng.state.suspended());
        budget.set_limit(1_000);
        eng.reclaim_tick().unwrap();
        assert!(!eng.state.suspended());
        let (base, slots) = served(&eng);
        assert_eq!(slots, 64);
        // SAFETY: the served directory maps 64 slots, and nothing retires
        // it while the engine is borrowed here.
        unsafe {
            assert_eq!(*(base.add(63 << 12) as *const u64), 55);
        }
        let s = metrics.snapshot();
        assert_eq!((s.creates_applied, s.creates_skipped), (1, 1));
    }

    #[test]
    fn a_coarse_shortcut_is_published_finer_only_by_a_pass_that_took_updates() {
        // 18 mappings at full depth (20 with the view) do not fit 10: the
        // first half, one run, is published.
        let (mut pl, budget, metrics, mut eng) = budgeted(10, CompactionPolicy::on());
        let dir = fragmented(&mut pl, 8);
        eng.inbox_lock().relay([MaintRequest::Create {
            slots: 64,
            assignments: dir.clone(),
        }]);
        eng.pass().unwrap();
        let coarse = served(&eng);
        assert_eq!(coarse.1, 32);
        // A raised limit alone changes nothing: idle ticks never retire
        // the directory readers are served.
        budget.set_limit(1_000);
        for _ in 0..10 {
            eng.pass().unwrap();
            eng.reclaim_tick().unwrap();
            assert_eq!(served(&eng), coarse);
        }
        no_op_updates(&eng, &dir, LOOK_INTERVAL - 1);
        eng.pass().unwrap();
        assert_eq!(served(&eng).1, 32, "published finer before the look");
        no_op_updates(&eng, &dir, 1);
        eng.pass().unwrap();
        let (base, slots) = served(&eng);
        assert_eq!(slots, 64, "the look published finer");
        for &(s, page) in &dir {
            // SAFETY: the served directory maps 64 slots, and nothing
            // retires it while the engine is borrowed here.
            unsafe {
                assert_eq!(
                    *(base.add(s << 12) as *const u64),
                    900 + (page.0 - dir[0].1 .0) as u64
                );
            }
        }
        let s = metrics.snapshot();
        assert_eq!((s.creates_applied, s.creates_coarse), (2, 1));
    }

    #[test]
    fn the_published_depth_does_not_flap_at_the_half_share() {
        let (mut pl, budget, metrics, mut eng) = budgeted(10, CompactionPolicy::on());
        let dir = fragmented(&mut pl, 8);
        eng.inbox_lock().relay([MaintRequest::Create {
            slots: 64,
            assignments: dir.clone(),
        }]);
        eng.pass().unwrap();
        assert_eq!(served(&eng).1, 32);
        let finer = || {
            let s = metrics.snapshot();
            s.creates_applied - s.creates_coarse
        };
        // The full depth's 18 mappings fit 35 whole, but not half of it:
        // the shortcut stays coarse. (Published whole, 8 updates a pass —
        // up to 16 more mappings — would not fit beside them, and every
        // pass would rebuild it.)
        budget.set_limit(35);
        for _ in 0..200 {
            no_op_updates(&eng, &dir, 8);
            eng.pass().unwrap();
        }
        assert_eq!(served(&eng).1, 32);
        assert_eq!(finer(), 0);
        // At 36 they fit half of it: one finer create, and it stays.
        budget.set_limit(36);
        for _ in 0..200 {
            no_op_updates(&eng, &dir, 8);
            eng.pass().unwrap();
        }
        assert_eq!(served(&eng).1, 64);
        assert_eq!(finer(), 1);
        // Back at 35, a pass's 8 updates no longer fit beside the full
        // depth: one pass publishes it a level coarser, and there it
        // stays — no pass rebuilds it at the depth it could not keep.
        budget.set_limit(35);
        for _ in 0..200 {
            no_op_updates(&eng, &dir, 8);
            eng.pass().unwrap();
        }
        assert_eq!(served(&eng).1, 32);
        assert_eq!((metrics.snapshot().creates_coarse, finer()), (2, 1));
        assert!(budget.in_use() <= budget.limit());
    }

    #[test]
    fn a_retry_that_fails_counts_nothing() {
        // Two runs at full depth (4 mappings with the view) do not fit 3,
        // and no coarser depth resolves a bucket (every bucket is named
        // by one slot): suspended, the cheapest footprint 2.
        let (mut pl, budget, metrics, mut eng) = budgeted(3, CompactionPolicy::on());
        let run = pl.alloc_run(64).unwrap();
        let mut dir: Vec<(usize, PageIdx)> = (0..16)
            .map(|s| (s, PageIdx(run.0 + s % 8 + 20 * (s / 8))))
            .collect();
        eng.inbox_lock().relay([MaintRequest::Create {
            slots: 16,
            assignments: dir.clone(),
        }]);
        eng.pass().unwrap();
        assert!(eng.state.suspended());
        assert_eq!(metrics.snapshot().creates_skipped, 1);
        // Splits scatter the first run (fewer than a look's worth of
        // them): the cached footprint is now too small.
        for s in [1, 3, 5] {
            dir[s].1 = PageIdx(run.0 + 40 + 2 * s);
            eng.inbox_lock().relay([MaintRequest::Update {
                slots: one(s),
                ppage: dir[s].1,
            }]);
        }
        eng.pass().unwrap();
        // The probe lets a retry through that admission refuses.
        budget.set_limit(4);
        eng.reclaim_tick().unwrap();
        eng.reclaim_tick().unwrap();
        // And a look's retry, 64 folded updates on.
        eng.inbox_lock()
            .relay((0..LOOK_INTERVAL).map(|i| MaintRequest::Update {
                slots: one(i % 16),
                ppage: dir[i % 16].1,
            }));
        eng.pass().unwrap();
        assert!(eng.state.suspended());
        let s = metrics.snapshot();
        assert_eq!((s.creates_skipped, s.creates_deferred), (1, 0));
        assert_eq!(s.creates_applied, 0);
        // Its directory, with the splits folded in, is what comes back.
        budget.set_limit(1_000);
        eng.reclaim_tick().unwrap();
        assert!(!eng.state.suspended());
        assert_eq!(
            eng.current().unwrap().vma_estimate(),
            shortcut_rewire::planned_vmas(16, &dir)
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

    /// Whether the page at `addr` is in this process's page table: bit 63
    /// of its `/proc/self/pagemap` entry.
    fn present(addr: *const u8) -> bool {
        use std::os::unix::fs::FileExt;
        let pagemap = std::fs::File::open("/proc/self/pagemap").unwrap();
        let mut entry = [0u8; 8];
        let at = (addr as usize / PAGE_SIZE_4K * 8) as u64;
        pagemap.read_exact_at(&mut entry, at).unwrap();
        u64::from_ne_bytes(entry) >> 63 == 1
    }

    /// The mapper touches no slot after rewiring it: `MAP_POPULATE` has
    /// put every rewired slot of the live node in the page table, after a
    /// create and after an update batch. A lazy engine's slots are not
    /// there, so the check can tell.
    #[test]
    fn rewired_slots_are_in_the_page_table_without_a_touch() {
        for eager_populate in [true, false] {
            let mut pl = pool();
            let state = Arc::new(SharedDirectoryState::new());
            let metrics = Arc::new(MaintMetrics::default());
            let mut eng = MapperEngine::new(
                pl.handle(),
                Arc::clone(&state),
                Arc::clone(&metrics),
                MaintConfig {
                    eager_populate,
                    ..MaintConfig::default()
                },
            );
            let leaves: Vec<PageIdx> = (0..8).map(|_| pl.alloc_page().unwrap()).collect();
            for (i, &leaf) in leaves.iter().enumerate() {
                stamp(&pl, leaf, i as u64);
            }
            let presence = |eng: &MapperEngine| {
                let node = eng.current().unwrap();
                (0..node.slots())
                    .map(|i| present(node.slot_ptr(i)))
                    .collect::<Vec<_>>()
            };
            eng.inbox_lock().relay([MaintRequest::Create {
                slots: 64,
                assignments: (0..64).map(|s| (s, leaves[s % 8])).collect(),
            }]);
            eng.pass().unwrap();
            assert_eq!(presence(&eng), [eager_populate; 64]);
            if !eager_populate {
                continue;
            }
            eng.inbox_lock().relay([MaintRequest::Update {
                slots: SlotStride {
                    first: 1,
                    step: 2,
                    end: 64,
                },
                ppage: leaves[0],
            }]);
            eng.pass().unwrap();
            assert!(state.in_sync());
            assert_eq!(presence(&eng), [true; 64]);
            assert_eq!(metrics.snapshot().pages_populated, 64 + 32);
        }
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
            slots: one(0),
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
            slots: one(1),
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
            slots: one(5),
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
                slots: one(i),
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
