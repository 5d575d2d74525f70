//! **Shortcut-EH**: extendible hashing with a page-table shortcut directory
//! (paper §4.1).
//!
//! The traditional directory remains the synchronous source of truth; a
//! shortcut directory replays its modifications **asynchronously** via the
//! mapper thread of [`shortcut_core::Maintainer`]:
//!
//! * bucket split → one *update* request naming the slots it redirected;
//! * directory doubling → pending updates are dropped (superseded) and one
//!   *create* request carries the full slot→page assignment.
//!
//! The inner EH records these requests as it changes its directory; a
//! write hands them to the mapper as one relay (one version bump).
//!
//! A write runs plain EH's inline fast path and nothing else; only a
//! split leaves it, and only a split owes the mapper a relay.
//!
//! Lookups route through the shortcut when (a) its version matches the
//! traditional directory's and (b) the average fan-in is at most the
//! routing threshold (default 8, §3.2): one load of the read descriptor's
//! serving word, which holds the published directory exactly then. No
//! modification can run inside a lookup's read section, so the answer
//! needs no validation; the fallback is always the traditional directory,
//! so correctness never depends on the mapper.
//!
//! Superseded directories are *retired*, not leaked: each lookup holds a
//! [`shortcut_rewire::ReaderPin`] across its dereference, and the mapper
//! reclaims retired areas once all pre-retirement pins drain. Rebuilds are
//! admission-checked against the pool's [`shortcut_rewire::VmaBudget`]; a
//! directory too large for `vm.max_map_count` suspends the shortcut
//! (see [`ShortcutEh::shortcut_suspended`]) instead of dying in `mmap`.
//!
//! [`Index::get`] takes `&self` and the routing counters are tallies on
//! the reader's own pin stripe, so any number of threads may share a
//! `&ShortcutEh` and look up concurrently (the type is `Sync`); Rust's
//! aliasing rules guarantee no writer exists while those shared borrows
//! are alive.

use crate::bucket::BucketRef;
use crate::eh::{EhConfig, ExtendibleHash, PREFETCH_DISTANCE, WINDOW};
use crate::error::IndexError;
use crate::hash::{dir_hash_of, dir_slot, mult_hash};
use crate::stats::IndexStats;
use crate::traits::Index;
use shortcut_core::metrics::MaintSnapshot;
use shortcut_core::{CompactionPolicy, MaintConfig, Maintainer, ReadTicket, RoutePolicy};
use shortcut_rewire::{PoolUsage, ReaderPin, RetireList, PAGE_SHIFT_4K};
use std::sync::{Arc, RwLockReadGuard};

/// Shortcut-EH tuning.
#[derive(Debug, Clone, Default)]
pub struct ShortcutEhConfig {
    /// The underlying EH configuration (Shortcut-EH's EH always records
    /// its directory changes for the mapper).
    pub eh: EhConfig,
    /// Mapper-thread configuration (poll interval, eager population).
    pub maint: MaintConfig,
    /// Fan-in routing policy (§3.2; default threshold 8).
    pub policy: RoutePolicy,
}

// Routing counters: tally cells of the reader's pin stripe
// ([`ReaderPin::tally`]), summed by [`ShortcutEh::stats`].
const SHORTCUT_LOOKUPS: usize = 0;
const TRADITIONAL_LOOKUPS: usize = 1;

/// The shortcut-enhanced extendible hash table. See module docs.
pub struct ShortcutEh {
    // Field order matters: the maintainer (mapper thread) must stop before
    // the EH (and its page pool) is torn down.
    maint: Maintainer,
    eh: ExtendibleHash,
    /// Its decision for the directory's current fan-in is folded into the
    /// read descriptor's serving word, so a lookup reads none of it.
    /// Only splits and doublings move the fan-in, and they reach
    /// [`ShortcutEh::relay_events`], which stores it again.
    policy: RoutePolicy,
    /// The pool's retirement machinery: lookups pin it around every
    /// dereference of the published shortcut base, so the mapper's
    /// reclamation never unmaps a retired directory under a reader —
    /// and count themselves on the pin's stripe.
    retire: Arc<RetireList>,
    /// What the pool holds of its (possibly shared) VMA budget.
    usage: Arc<PoolUsage>,
    /// The mapper's admission rule: with exact admission, the write path
    /// looks for a finer directory to re-announce
    /// ([`ShortcutEh::maybe_republish`]).
    admission: CompactionPolicy,
    /// Split count below which [`ShortcutEh::maybe_republish`] does not
    /// look again: bounds what its probes (and a rescue the mapper
    /// refuses) cost.
    next_look_splits: u64,
    /// [`EhConfig::hash_rot`], for the lookup path (the index copies it
    /// onto the shard's read line).
    pub(crate) hash_rot: u32,
}

impl ShortcutEh {
    /// Build with custom configuration and spawn the mapper thread.
    ///
    /// # Errors
    ///
    /// Propagates pool creation / initial-bucket allocation failures from
    /// the underlying EH as [`IndexError::Pool`] — the path that used to
    /// panic when `vm.max_map_count` or the view reservation ran out.
    pub fn try_new(cfg: ShortcutEhConfig) -> Result<Self, IndexError> {
        let hash_rot = cfg.eh.hash_rot;
        let admission = cfg.maint.compaction;
        let eh = ExtendibleHash::try_new_tracked(cfg.eh)?;
        let handle = eh.pool_handle();
        let retire = Arc::clone(handle.retire_list());
        let usage = Arc::clone(handle.usage());
        let maint = Maintainer::spawn(handle, cfg.maint);
        let mut this = ShortcutEh {
            maint,
            eh,
            policy: cfg.policy,
            retire,
            usage,
            admission,
            next_look_splits: Self::REPUBLISH_SPLIT_INTERVAL,
            hash_rot,
        };
        // Announce the initial single-slot directory so the shortcut can
        // serve reads before the first doubling.
        this.eh.emit_rebuilt_event()?;
        this.relay_events();
        Ok(this)
    }

    /// Build with the paper's defaults.
    ///
    /// # Errors
    ///
    /// Propagates pool creation failure as [`IndexError::Pool`].
    pub fn with_defaults() -> Result<Self, IndexError> {
        Self::try_new(ShortcutEhConfig::default())
    }

    /// Current (traditional, shortcut) version numbers — the quantities
    /// plotted in Figure 8.
    pub fn versions(&self) -> (u64, u64) {
        let s = self.maint.state();
        (s.traditional_version(), s.shortcut_version())
    }

    /// Whether the shortcut directory is currently in sync.
    pub fn in_sync(&self) -> bool {
        self.maint.state().in_sync()
    }

    /// Block until the shortcut catches up (test/bench helper).
    pub fn wait_sync(&self, timeout: std::time::Duration) -> bool {
        self.maint.wait_sync(timeout)
    }

    /// Structural + routing statistics (merged with the inner EH's).
    pub fn stats(&self) -> IndexStats {
        let mut s = self.eh.stats();
        let tallies = self.retire.tallies();
        s.shortcut_lookups = tallies[SHORTCUT_LOOKUPS];
        s.traditional_lookups = tallies[TRADITIONAL_LOOKUPS];
        s
    }

    /// Maintenance counters of the mapper thread.
    pub fn maint_metrics(&self) -> MaintSnapshot {
        self.maint.metrics()
    }

    /// Operation counters of the backing page pool.
    pub fn pool_stats(&self) -> shortcut_rewire::StatsSnapshot {
        self.eh.pool_stats()
    }

    /// VMA budget and retirement counters of the backing page pool.
    pub fn vma_stats(&self) -> shortcut_rewire::VmaSnapshot {
        self.eh.vma_stats()
    }

    /// Reader-pin pairing of this index's retire list (asymmetric
    /// membarrier pins, or the Dekker RMW fallback).
    pub fn pin_strategy(&self) -> shortcut_rewire::PinStrategy {
        self.retire.pin_strategy()
    }

    /// Whether shortcut maintenance is suspended because the directory no
    /// longer fits the VMA budget. The index keeps answering every lookup
    /// through the traditional directory; raise `vm.max_map_count` (or the
    /// injected budget) for shortcut-served reads at this scale.
    pub fn shortcut_suspended(&self) -> bool {
        self.maint.state().suspended()
    }

    /// Average directory fan-in.
    pub fn avg_fanin(&self) -> f64 {
        self.eh.avg_fanin()
    }

    /// Global depth of the traditional directory.
    pub fn global_depth(&self) -> u32 {
        self.eh.global_depth()
    }

    /// Number of buckets.
    pub fn bucket_count(&self) -> usize {
        self.eh.bucket_count()
    }

    /// First maintenance error, if the mapper thread failed, wrapped as the
    /// index-level error type.
    pub fn maint_error(&self) -> Option<IndexError> {
        self.maint.error().map(IndexError::Pool)
    }

    /// The shared maintenance state (diagnostics/benchmarks).
    #[doc(hidden)]
    pub fn state_arc(&self) -> std::sync::Arc<shortcut_core::SharedDirectoryState> {
        std::sync::Arc::clone(self.maint.state())
    }

    /// The pool's retire list: a pin on it covers reads of this index's
    /// published shortcut (the shard's read section pins it once for both).
    pub(crate) fn retire_list(&self) -> &Arc<RetireList> {
        &self.retire
    }

    /// The mapper handle: the inbox lock the shard's bias is revoked and
    /// re-armed under, and versions are bumped under.
    #[doc(hidden)]
    pub fn maint(&self) -> &Maintainer {
        &self.maint
    }

    /// Hand the directory changes the inner EH recorded to the mapper as
    /// one relay: one hold of the inbox lock, one version bump — which
    /// clears the serving word before the caller leaves its write section,
    /// so no reader that enters after it finds a directory that predates
    /// these changes — and the routing decision for the fan-in they moved.
    pub(crate) fn relay_events(&mut self) {
        if !self.eh.has_events() {
            return;
        }
        let route = self.policy.use_shortcut(self.eh.avg_fanin(), true);
        let mut inbox = self.maint.inbox_lock();
        inbox.set_route_shortcut(route);
        inbox.relay(self.eh.drain_events());
    }

    /// Splits between two looks of [`ShortcutEh::maybe_republish`].
    const REPUBLISH_SPLIT_INTERVAL: u64 = 64;

    /// With exact admission, re-announce the directory when the mapper
    /// would now publish it finer than it did: a suspended shortcut once
    /// some published depth fits what admission hands out, and a coarsely
    /// published one once a finer depth fits half of this pool's share
    /// (so that the published depth does not flap at the boundary). The
    /// pages never move; only the mapper needs to hear of the directory
    /// again.
    ///
    /// Runs after every insert that split: nothing but the split count is
    /// read between two looks [`ShortcutEh::REPUBLISH_SPLIT_INTERVAL`]
    /// splits apart.
    fn maybe_republish(&mut self) {
        let splits = self.eh.splits();
        if !self.admission.enabled() || splits < self.next_look_splits {
            return;
        }
        self.next_look_splits = splits + Self::REPUBLISH_SPLIT_INTERVAL;
        let state = self.maint.state();
        // How much coarser than the directory the shortcut is published.
        let finer_than = match state.published_slots() {
            _ if state.suspended() => u32::MAX,
            0 => return,
            published => (self.eh.dir_slots() / published).trailing_zeros(),
        };
        if finer_than == 0 {
            return;
        }
        let budget = self.eh.vma_budget();
        let limit = budget.limit();
        let target = if finer_than == u32::MAX {
            limit.saturating_sub(shortcut_core::maintenance::budget_headroom(limit))
        } else if self.usage.is_fair() {
            budget.fair_share(0) / 2
        } else {
            limit / 2
        };
        let max_shift = shortcut_core::MAX_PUBLISH_SHIFT.min(self.eh.dir_slots().trailing_zeros());
        let fits = (0..=max_shift.min(finer_than.saturating_sub(1))).any(|shift| {
            self.eh
                .layout_vmas_at(shift)
                .is_ok_and(|planned| planned <= target)
        });
        if fits {
            let _ = self.eh.emit_rebuilt_event();
        }
    }

    /// Planned-VMA estimate of the current bucket layout (`O(slots)`).
    ///
    /// # Errors
    ///
    /// Propagates directory-invariant violations as [`IndexError::Pool`].
    pub fn layout_vmas(&self) -> Result<usize, IndexError> {
        self.eh.layout_vmas()
    }

    /// This index's own read section: a pin on its retire list, then the
    /// descriptor's serving word, which no bump moves while `&self` lasts.
    #[inline(always)]
    fn section(&self) -> ReadSection<'_> {
        let pin = self.retire.pin();
        ReadSection {
            eh: self,
            served: self.maint.state().begin_read(),
            pin,
            locked: None,
        }
    }

    /// The shortcut hit of `key` (whose [`mult_hash`] is `hash`) in the
    /// directory `t` served to the caller's section, which `pin` keeps
    /// mapped: the answer, counted on the pin's stripe — `None` for a key
    /// the directory does not resolve.
    #[inline(always)]
    pub(crate) fn get_served(
        t: ReadTicket,
        hash_rot: u32,
        key: u64,
        hash: u64,
        pin: &ReaderPin<'_>,
    ) -> Option<Option<u64>> {
        let bucket = published_bucket(t, dir_hash_of(hash, hash_rot));
        // The shortcut may be published at a coarser depth than the
        // traditional directory (VMA-budget admission). A bucket deeper
        // than the published depth shares its slot with a sibling and is
        // not resolvable here — the caller serves that key traditionally.
        if bucket.local_depth() > t.depth() {
            return None;
        }
        let result = bucket.get_inlined(key);
        pin.tally(SHORTCUT_LOOKUPS, 1);
        Some(result)
    }

    /// Where [`ReadSection::get`] leaves the shortcut: not serving
    /// (out of sync, suspended, routed away by the fan-in), or a bucket
    /// deeper than a coarse publish resolves — one traditional lookup
    /// either way. Out of line and fed scalars — it hashes again — so the
    /// hit path neither carries a second probe nor keeps anything alive
    /// for this.
    #[cold]
    #[inline(never)]
    fn get_traditional(&self, key: u64, pin: &ReaderPin<'_>) -> Option<u64> {
        pin.tally(TRADITIONAL_LOOKUPS, 1);
        self.eh.get_hashed(key, self.eh.dir_hash(key))
    }

    /// Answer one window of a batch in batch order, `out[i]` for `keys[i]`,
    /// each inside `section(hash)` (asked for the hashes of `keys` only):
    /// the section, entered for the window, of the shard the key's
    /// [`mult_hash`] routes to. One prefetch pipeline spans the window:
    /// what the key [`PREFETCH_DISTANCE`] ahead reads first is requested
    /// through its own section before the current key is probed.
    #[inline(always)]
    pub(crate) fn get_window<'s, 'a: 's>(
        keys: &[u64],
        out: &mut [Option<u64>],
        hash_rot: u32,
        section: impl Fn(u64) -> &'s ReadSection<'a>,
    ) {
        debug_assert_eq!(keys.len(), out.len());
        let at = |i: usize| {
            let key = keys[i];
            let hash = mult_hash(key);
            (key, hash, section(hash))
        };
        let ahead = |i: usize| {
            let (key, hash, s) = at(i);
            s.prefetch(hash_rot, key, hash);
        };
        let n = keys.len();
        (0..n.min(PREFETCH_DISTANCE)).for_each(ahead);
        for (i, out) in out.iter_mut().enumerate() {
            if i + PREFETCH_DISTANCE < n {
                ahead(i + PREFETCH_DISTANCE);
            }
            let (key, hash, s) = at(i);
            *out = s.get(hash_rot, key, hash);
        }
    }

    /// [`Index::insert`] from the key's [`mult_hash`], for callers that
    /// routed by it: the plain-EH arm's fast path, with no `Result` or
    /// event look of its own (EH's `Result` passed on through a stack
    /// temporary failed a store-to-load forward every insert); a full
    /// bucket leaves it for [`ShortcutEh::insert_slow`].
    ///
    /// # Errors
    ///
    /// As [`Index::insert`].
    #[inline(always)]
    pub(crate) fn insert_hashed(
        &mut self,
        key: u64,
        value: u64,
        hash: u64,
    ) -> Result<(), IndexError> {
        let dir_hash = self.eh.dir_hash_of(hash);
        if self.eh.insert_fast(key, value, dir_hash) {
            return Ok(());
        }
        self.insert_slow(key, value, dir_hash, true)
    }

    /// EH's split-and-retry, then what a directory change owes: a look at
    /// the layout and (`relay`) the relay, so a pass's rebuild rides the
    /// same submission. Also on error: a multi-round split can apply a
    /// first round before a later one fails, and skipping the relay would
    /// leave the shortcut stamped in-sync over pre-split buckets.
    #[cold]
    #[inline(never)]
    fn insert_slow(
        &mut self,
        key: u64,
        value: u64,
        dir_hash: u64,
        relay: bool,
    ) -> Result<(), IndexError> {
        let r = self.eh.insert_slow(key, value, dir_hash);
        if self.eh.has_events() {
            self.maybe_republish();
            if relay {
                self.relay_events();
            }
        }
        r
    }

    /// [`BucketRef::update`] from the key's [`mult_hash`].
    #[inline]
    pub(crate) fn update_hashed(&self, key: u64, value: u64, hash: u64) -> bool {
        self.eh.update_hashed(key, value, self.eh.dir_hash_of(hash))
    }

    /// [`Index::remove`] from the key's [`mult_hash`]. Bucket contents
    /// only, which both directories alias — no directory change, no
    /// maintenance traffic.
    #[inline(always)]
    pub(crate) fn remove_hashed(&mut self, key: u64, hash: u64) -> Option<u64> {
        self.eh.remove_hashed(key, self.eh.dir_hash_of(hash))
    }

    /// [`ShortcutEh::insert_hashed`] in a batch's write section, which
    /// relays when it is left: after a split, only the look at the layout.
    ///
    /// # Errors
    ///
    /// As [`Index::insert`].
    #[inline(always)]
    pub(crate) fn insert_deferred(
        &mut self,
        key: u64,
        value: u64,
        hash: u64,
    ) -> Result<(), IndexError> {
        let dir_hash = self.eh.dir_hash_of(hash);
        if self.eh.insert_fast(key, value, dir_hash) {
            return Ok(());
        }
        self.insert_slow(key, value, dir_hash, false)
    }
}

/// What a read holds of one shard — for one lookup or one batch window:
/// the pin, the directory it serves (`None`: read traditionally) and,
/// while the shard's bias is revoked, its read lock.
pub(crate) struct ReadSection<'a> {
    pub(crate) eh: &'a ShortcutEh,
    pub(crate) served: Option<ReadTicket>,
    pub(crate) pin: ReaderPin<'a>,
    pub(crate) locked: Option<RwLockReadGuard<'a, ()>>,
}

impl ReadSection<'_> {
    /// `key`'s lookup, from its [`mult_hash`] `hash`, counted on the pin's
    /// stripe: served, or traditional where the served one cannot.
    #[inline(always)]
    pub(crate) fn get(&self, hash_rot: u32, key: u64, hash: u64) -> Option<u64> {
        if let Some(t) = self.served {
            if let Some(hit) = ShortcutEh::get_served(t, hash_rot, key, hash, &self.pin) {
                return hit;
            }
        }
        self.eh.get_traditional(key, &self.pin)
    }

    /// Ask the cache for what [`ReadSection::get`] of `key` reads first.
    #[inline(always)]
    fn prefetch(&self, hash_rot: u32, key: u64, hash: u64) {
        let h = dir_hash_of(hash, hash_rot);
        match self.served {
            Some(t) => published_bucket(t, h).prefetch(key),
            None => self.eh.eh.prefetch_entry(h),
        }
    }
}

impl Drop for ReadSection<'_> {
    #[inline]
    fn drop(&mut self) {
        if let Some(locked) = self.locked.take() {
            unlock(locked);
        }
    }
}

/// Out of line: a batch leaves its sections with no `lock` prefix inline.
#[cold]
#[inline(never)]
fn unlock(locked: RwLockReadGuard<'_, ()>) {
    drop(locked);
}

/// The bucket slot the directory `t` was served from holds for the
/// directory hash `hash`. The caller holds a pin on the retire list, taken
/// before it loaded the serving word: it is what keeps that directory
/// mapped until the read drains.
#[inline(always)]
fn published_bucket(t: ReadTicket, hash: u64) -> BucketRef {
    let slot = dir_slot(hash, t.depth());
    // SAFETY: the published area has `1 << t.depth()` pages and `slot` is
    // below that by construction of dir_slot, so the pointer is in-bounds
    // and page-aligned; a rebuild retires an area only after a bump took
    // it out of service, and reclamation waits for the caller's pin to
    // drop, so the page stays readable.
    unsafe { BucketRef::at(t.base.add(slot << PAGE_SHIFT_4K)) }
}

impl Index for ShortcutEh {
    #[inline]
    fn insert(&mut self, key: u64, value: u64) -> Result<(), IndexError> {
        self.insert_hashed(key, value, mult_hash(key))
    }

    fn get(&self, key: u64) -> Option<u64> {
        self.section().get(self.hash_rot, key, mult_hash(key))
    }

    #[inline]
    fn remove(&mut self, key: u64) -> Result<Option<u64>, IndexError> {
        Ok(self.remove_hashed(key, mult_hash(key)))
    }

    fn len(&self) -> usize {
        self.eh.len()
    }

    fn name(&self) -> &'static str {
        "Shortcut-EH"
    }

    /// Batched lookup with one load of the serving word (and one reader
    /// pin) per window of 4096 keys. The pin is per window on
    /// purpose: one pin spanning an arbitrarily large batch would keep a
    /// reclaim-scan stripe busy indefinitely and starve retired-directory
    /// reclamation (the bounded-spin scan gives up, and retired areas
    /// accumulate against the VMA budget).
    fn get_many(&self, keys: &[u64]) -> Vec<Option<u64>> {
        let mut out = vec![None; keys.len()];
        for (keys, out) in keys.chunks(WINDOW).zip(out.chunks_mut(WINDOW)) {
            let section = self.section();
            Self::get_window(keys, out, self.hash_rot, |_| &section);
        }
        out
    }

    /// Batched insert that relays directory events to the mapper once per
    /// window instead of once per key, shrinking producer-side overhead
    /// during insert storms.
    fn insert_batch(&mut self, entries: &[(u64, u64)]) -> Result<(), IndexError> {
        entries.chunks(WINDOW).try_for_each(|window| {
            let r = window
                .iter()
                .try_for_each(|&(key, value)| self.insert_deferred(key, value, mult_hash(key)));
            self.relay_events();
            r
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bucket::BUCKET_CAPACITY;
    use shortcut_rewire::PoolConfig;
    use std::time::Duration;

    fn fast_cfg() -> ShortcutEhConfig {
        ShortcutEhConfig {
            eh: EhConfig {
                pool: PoolConfig {
                    initial_pages: 1,
                    min_growth_pages: 16,
                    view_capacity_pages: 1 << 16,
                    ..PoolConfig::default()
                },
                ..EhConfig::default()
            },
            maint: MaintConfig {
                poll_interval: Duration::from_millis(1),
                ..MaintConfig::default()
            },
            policy: RoutePolicy::default(),
        }
    }

    /// Let the mapper run passes — each ends in a reclaim tick — until it
    /// has unmapped every retired directory.
    fn drain_retired(t: &ShortcutEh) {
        for _ in 0..10_000 {
            if t.vma_stats().retired_areas == 0 {
                return;
            }
            let seen = t.maint.passes();
            while t.maint.passes() == seen {
                std::thread::yield_now();
            }
        }
    }

    /// The shortcut path alone, as `ReadSection::get` takes it.
    fn via_shortcut(t: &ShortcutEh, key: u64) -> Option<Option<u64>> {
        let _pin = t.retire.pin();
        let state = t.maint.state();
        let ticket = state.begin_read()?;
        let bucket = published_bucket(ticket, t.eh.dir_hash(key));
        (bucket.local_depth() <= ticket.depth()).then(|| bucket.get(key))
    }

    #[test]
    fn basic_roundtrip() {
        let mut t = ShortcutEh::try_new(fast_cfg()).unwrap();
        t.insert(1, 10).unwrap();
        t.insert(2, 20).unwrap();
        assert_eq!(t.get(1), Some(10));
        assert_eq!(t.get(2), Some(20));
        assert_eq!(t.get(3), None);
        assert_eq!(t.remove(1).unwrap(), Some(10));
        assert_eq!(t.get(1), None);
        assert!(t.maint_error().is_none());
    }

    #[test]
    fn bulk_insert_then_synced_lookups() {
        let mut t = ShortcutEh::try_new(fast_cfg()).unwrap();
        let n = 20_000u64;
        for k in 0..n {
            t.insert(k, k + 3).unwrap();
        }
        assert!(t.wait_sync(Duration::from_secs(10)), "never synced");
        assert!(t.in_sync());
        let (tv, sv) = t.versions();
        assert_eq!(tv, sv);
        for k in 0..n {
            assert_eq!(t.get(k), Some(k + 3), "key {k}");
        }
        // With fan-in 1-ish and in-sync state, the shortcut must have
        // served the bulk of the lookups.
        let s = t.stats();
        assert!(
            s.shortcut_lookups > s.traditional_lookups,
            "shortcut {} vs traditional {}",
            s.shortcut_lookups,
            s.traditional_lookups
        );
        assert!(t.maint_error().is_none());
    }

    #[test]
    fn lookups_correct_even_while_out_of_sync() {
        // Slow mapper: the shortcut lags; every lookup must still be right.
        let mut cfg = fast_cfg();
        cfg.maint.poll_interval = Duration::from_millis(200);
        let mut t = ShortcutEh::try_new(cfg).unwrap();
        for k in 0..5_000u64 {
            t.insert(k, k).unwrap();
            if k % 97 == 0 {
                // Interleaved lookups during the insert storm.
                assert_eq!(t.get(k), Some(k));
                assert_eq!(t.get(k + 1_000_000), None);
            }
        }
        for k in 0..5_000u64 {
            assert_eq!(t.get(k), Some(k), "key {k}");
        }
        assert!(t.maint_error().is_none());
    }

    #[test]
    fn shortcut_matches_traditional_for_every_key() {
        let mut t = ShortcutEh::try_new(fast_cfg()).unwrap();
        for k in 0..10_000u64 {
            t.insert(k, k * 7).unwrap();
        }
        assert!(t.wait_sync(Duration::from_secs(10)));
        // Compare the shortcut path against the traditional path directly.
        for k in (0..10_000u64).step_by(37) {
            let via_shortcut = via_shortcut(&t, k).expect("in sync");
            let via_traditional = t.eh.get(k);
            assert_eq!(via_shortcut, via_traditional, "key {k}");
        }
    }

    #[test]
    fn get_many_agrees_with_get() {
        let mut t = ShortcutEh::try_new(fast_cfg()).unwrap();
        for k in 0..8_000u64 {
            t.insert(k, !k).unwrap();
        }
        assert!(t.wait_sync(Duration::from_secs(10)));
        let keys: Vec<u64> = (0..8_200).collect();
        let batched = t.get_many(&keys);
        assert_eq!(batched.len(), keys.len());
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(batched[i], t.get(k), "key {k}");
        }
        // The synced batch must have been answered via the shortcut.
        let s = t.stats();
        assert!(s.shortcut_lookups >= keys.len() as u64);
    }

    #[test]
    fn invalidated_chunk_is_answered_traditionally_and_counted_once() {
        // Passes on demand only: the bump below is one the mapper never
        // hears of.
        let mut cfg = fast_cfg();
        cfg.maint.poll_interval = Duration::from_secs(3600);
        let mut t = ShortcutEh::try_new(cfg).unwrap();
        for k in 0..8_000u64 {
            t.insert(k, !k).unwrap();
        }
        assert!(t.wait_sync(Duration::from_secs(10)));
        // Two windows, hits and misses, after a directory change the
        // mapper never hears of: the bump cleared the serving word, and
        // every key is one traditional lookup.
        let keys: Vec<u64> = (0..5_000u64).map(|k| k * 2).collect();
        let before = t.stats();
        t.maint().inbox_lock().relay([]);
        let got = t.get_many(&keys);
        for (&k, got) in keys.iter().zip(got) {
            assert_eq!(got, (k < 8_000).then_some(!k), "key {k}");
        }
        let after = t.stats();
        assert_eq!(after.shortcut_lookups, before.shortcut_lookups);
        assert_eq!(
            after.traditional_lookups - before.traditional_lookups,
            keys.len() as u64
        );
    }

    #[test]
    fn insert_batch_relays_to_the_mapper() {
        let mut t = ShortcutEh::try_new(fast_cfg()).unwrap();
        let entries: Vec<(u64, u64)> = (0..20_000u64).map(|k| (k, k * 3)).collect();
        t.insert_batch(&entries).unwrap();
        assert_eq!(t.len(), entries.len());
        assert!(t.wait_sync(Duration::from_secs(10)), "never synced");
        for &(k, v) in entries.iter().step_by(61) {
            assert_eq!(t.get(k), Some(v), "key {k}");
        }
        assert!(t.maint_error().is_none());
    }

    #[test]
    fn versions_advance_with_structure() {
        let mut t = ShortcutEh::try_new(fast_cfg()).unwrap();
        let (tv0, _) = t.versions();
        for k in 0..1_000u64 {
            t.insert(k, k).unwrap();
        }
        let (tv1, _) = t.versions();
        assert!(tv1 > tv0, "splits/doublings must bump the version");
        assert!(t.wait_sync(Duration::from_secs(10)));
        let (tv2, sv2) = t.versions();
        assert_eq!(tv2, sv2);
    }

    #[test]
    fn high_fanin_routes_traditionally() {
        // Policy with threshold 0 → never use the shortcut.
        let mut cfg = fast_cfg();
        cfg.policy = RoutePolicy::with_threshold(0.0);
        let mut t = ShortcutEh::try_new(cfg).unwrap();
        for k in 0..100u64 {
            t.insert(k, k).unwrap();
        }
        for k in 0..100u64 {
            assert_eq!(t.get(k), Some(k));
        }
        let s = t.stats();
        assert_eq!(s.shortcut_lookups, 0);
        assert_eq!(s.traditional_lookups, 100);
    }

    #[test]
    fn len_and_updates() {
        let mut t = ShortcutEh::try_new(fast_cfg()).unwrap();
        t.insert(9, 1).unwrap();
        t.insert(9, 2).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(9), Some(2));
    }

    #[test]
    fn tiny_vma_budget_suspends_shortcut_but_keeps_answers() {
        // A private budget that can hold only a few dozen directory
        // mappings: once the directory outgrows it, maintenance must
        // suspend (no ENOMEM, no mapper error) while every lookup keeps
        // being answered through the traditional directory.
        let mut cfg = fast_cfg();
        cfg.eh.pool.vma_budget = Some(shortcut_rewire::VmaBudget::with_limit(100));
        let mut t = ShortcutEh::try_new(cfg).unwrap();
        let n = 30_000u64;
        // Insert in paced chunks so the mapper actually applies (and later
        // retires) intermediate directories instead of superseding them
        // all in one batch, then keep going past the point of suspension.
        let mut k = 0u64;
        while k < n {
            let end = (k + 2_000).min(n);
            while k < end {
                t.insert(k, k * 5).unwrap();
                k += 1;
            }
            if !t.shortcut_suspended() {
                let _ = t.wait_sync(Duration::from_secs(10));
            }
        }
        assert!(t.shortcut_suspended(), "budget never suspended the mapper");
        assert!(
            !t.wait_sync(Duration::from_secs(10)),
            "suspended must not sync"
        );
        assert!(t.maint_error().is_none());
        assert!(t.maint_metrics().creates_skipped > 0);
        assert!(t.maint_metrics().creates_applied > 0);
        for k in 0..n {
            assert_eq!(t.get(k), Some(k * 5), "key {k}");
        }
        // The budget estimate stays within its limit, and the retired
        // directories were reclaimed rather than accumulated.
        drain_retired(&t);
        let vma = t.vma_stats();
        assert!(vma.in_use <= vma.limit, "{vma:?}");
        assert!(vma.areas_retired > 0, "{vma:?}");
        assert_eq!(
            vma.areas_retired, vma.areas_reclaimed,
            "retired directories must drain once readers are gone: {vma:?}"
        );
    }

    #[test]
    fn the_suffix_layout_keeps_live_vmas_collapsed() {
        // A private budget: the live count read below would otherwise
        // include the mappings of the tests running beside this one.
        let mut cfg = fast_cfg();
        cfg.eh.pool.vma_budget = Some(shortcut_rewire::VmaBudget::with_limit(65_530));
        let mut t = ShortcutEh::try_new(cfg).unwrap();
        for k in 0..30_000u64 {
            t.insert(k, k * 9).unwrap();
        }
        assert!(t.wait_sync(Duration::from_secs(10)));
        // Once the mapper has reclaimed the superseded directories, the
        // budget holds the live directory's runs (plus the pool view and
        // small constants): far fewer than one mapping a slot, with no
        // page ever moved.
        drain_retired(&t);
        let layout = t.layout_vmas().unwrap();
        let slots = t.eh.dir_slots();
        assert!(layout * 2 <= slots + 4, "{layout} runs over {slots} slots");
        let vma = t.vma_stats();
        assert!(
            vma.live_vmas() <= (layout + 16) as u64,
            "live estimate does not follow the layout: {vma:?} (layout {layout})"
        );
        assert_eq!(t.maint_metrics().pages_moved, 0);
        for k in 0..30_000u64 {
            assert_eq!(t.get(k), Some(k * 9), "key {k}");
        }
        // The shortcut (not the fallback) serves once synced.
        let served_before = t.stats().shortcut_lookups;
        for k in 0..1_000u64 {
            let _ = t.get(k);
        }
        assert!(t.stats().shortcut_lookups >= served_before + 900);
    }

    #[test]
    fn compaction_keeps_shortcut_served_where_it_used_to_suspend() {
        // A ~600-mapping budget, far below one-VMA-per-slot scale.
        // Worst-case admission refuses the first ≥600-slot rebuild for
        // good. Exact admission (`on`) admits rebuilds at their footprint
        // — a few runs, each bucket on the page of its suffix — published
        // at a coarser depth when even that does not fit, and the write
        // path re-announces a refused one, so the index must end in sync
        // and shortcut-serving.
        let n = 100_000u64;
        let build = |compaction: shortcut_core::CompactionPolicy| {
            let mut cfg = fast_cfg();
            cfg.eh.pool.vma_budget = Some(shortcut_rewire::VmaBudget::with_limit(600));
            cfg.eh.pool.view_capacity_pages = 1 << 17;
            cfg.maint.compaction = compaction;
            ShortcutEh::try_new(cfg).unwrap()
        };

        let mut on = build(shortcut_core::CompactionPolicy::on());
        let mut k = 0u64;
        while k < n {
            for _ in 0..500 {
                on.insert(k, k + 7).unwrap();
                k += 1;
            }
            let _ = on.wait_sync(Duration::from_secs(10));
        }
        // Growth may transit refusals, but each must resolve (coarse
        // publish or re-announce): at rest the index serves via the
        // shortcut.
        assert!(
            on.wait_sync(Duration::from_secs(30)),
            "never back in sync: vma={:?} metrics={:?}",
            on.vma_stats(),
            on.maint_metrics()
        );
        assert!(!on.shortcut_suspended());
        assert!(on.maint_error().is_none());
        let vma = on.vma_stats();
        assert!(vma.in_use <= vma.limit, "{vma:?}");
        for key in (0..n).step_by(101) {
            assert_eq!(on.get(key), Some(key + 7), "key {key}");
        }
        // In-sync lookups go through the shortcut (over-depth buckets may
        // fall back per key, but the bulk must be shortcut-served).
        let served_before = on.stats().shortcut_lookups;
        let keys: Vec<u64> = (0..4_096u64).collect();
        let got = on.get_many(&keys);
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(got[i], Some(key + 7));
        }
        let served = on.stats().shortcut_lookups - served_before;
        assert!(
            served > 2_048,
            "only {served}/4096 batched lookups shortcut-served \
             (published slots={} dir_slots={} buckets={} metrics={:?})",
            on.state_arc().published_slots(),
            on.eh.dir_slots(),
            on.bucket_count(),
            on.maint_metrics()
        );

        // Same budget, compaction off: the worst-case admission refuses at
        // this scale and stays refused (the A/B baseline).
        let mut off = build(shortcut_core::CompactionPolicy::disabled());
        let mut k = 0u64;
        while k < n {
            for _ in 0..500 {
                off.insert(k, k + 7).unwrap();
                k += 1;
            }
            if !off.shortcut_suspended() {
                let _ = off.wait_sync(Duration::from_secs(10));
            }
        }
        assert!(off.shortcut_suspended(), "worst-case admission must refuse");
        assert!(off.maint_error().is_none());
        for key in (0..n).step_by(101) {
            assert_eq!(off.get(key), Some(key + 7), "key {key}");
        }
    }

    /// A configuration whose mapper only runs on demand (a tick of an
    /// hour) and whose buckets split at `entry_limit` entries.
    fn on_demand_cfg(entry_limit: usize, view_capacity_pages: usize) -> ShortcutEhConfig {
        let mut cfg = fast_cfg();
        cfg.maint.poll_interval = Duration::from_secs(3600);
        cfg.eh.pool.view_capacity_pages = view_capacity_pages;
        cfg.eh.max_load_factor = (entry_limit as f64 + 0.5) / BUCKET_CAPACITY as f64;
        cfg
    }

    /// What only a split or a doubling moves.
    fn shape(t: &ShortcutEh) -> (u64, u64) {
        (t.eh.splits(), t.eh.stats().doublings)
    }

    fn assert_reads_as(t: &ShortcutEh, model: &std::collections::HashMap<u64, u64>, domain: u64) {
        for k in 0..domain {
            assert_eq!(t.get(k), model.get(&k).copied(), "key {k}");
        }
    }

    /// The write path's contract with the mapper, operation by operation:
    /// the hooks run exactly when the directory changed, and never leave
    /// an event behind. At the paper's entry limit, and at ten entries:
    /// a split every few inserts, multi-round ones among them.
    #[test]
    fn hooks_run_exactly_when_the_directory_changed() {
        for limit in [10, (BUCKET_CAPACITY as f64 * 0.35) as usize] {
            let mut t = ShortcutEh::try_new(on_demand_cfg(limit, 1 << 16)).unwrap();
            assert!(t.wait_sync(Duration::from_secs(10)));
            let domain = 150 * limit as u64;
            let mut model = std::collections::HashMap::new();
            let mut rng = 0x9E37_79B9_7F4A_7C15u64 ^ limit as u64;
            let mut next = || {
                rng = rng
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                rng >> 33
            };
            let (mut structural, mut plain) = (0, 0);
            for op in 0..2 * domain {
                let before = (shape(&t), t.versions().0, t.maint.pending());
                let key = next() % domain;
                match next() % 8 {
                    0 => assert_eq!(t.remove(key).unwrap(), model.remove(&key), "key {key}"),
                    1 => {
                        let batch: Vec<(u64, u64)> =
                            (0..64).map(|_| (next() % domain, next())).collect();
                        t.insert_batch(&batch).unwrap();
                        model.extend(batch);
                    }
                    _ => {
                        t.insert(key, op).unwrap();
                        model.insert(key, op);
                        if shape(&t) == before.0 {
                            assert_eq!(t.maint.pending(), before.2, "a plain insert relayed");
                            plain += 1;
                        }
                    }
                }
                assert!(!t.eh.has_events(), "op {op} left events behind");
                let changed = shape(&t) != before.0;
                // One relay an operation (a batch of 64 is one window).
                assert_eq!(t.versions().0 - before.1, u64::from(changed), "op {op}");
                structural += usize::from(changed);
                // Stay below the backlog that wakes the mapper by itself.
                if t.maint.pending() > 128 || op % 1024 == 0 {
                    assert_reads_as(&t, &model, domain);
                    assert!(t.wait_sync(Duration::from_secs(10)), "never synced");
                    assert_eq!(t.maint.pending(), 0);
                    assert_reads_as(&t, &model, domain);
                }
            }
            assert_eq!(t.len(), model.len());
            assert!(structural > 50 && plain > 1_000, "{structural} / {plain}");
            assert!(t.maint_error().is_none());
        }
    }

    /// A split is one relay: the version moves by one and one update is
    /// queued, however many slots it redirected.
    #[test]
    fn a_split_is_one_bump_and_one_update_per_split() {
        let mut t = ShortcutEh::try_new(on_demand_cfg(8, 1 << 16)).unwrap();
        assert!(t.wait_sync(Duration::from_secs(10)));
        let mut assignments = t.eh.directory_assignments().unwrap();
        let mut wide = 0;
        // The even half of the hash space first, then the odd one: the
        // odd half's buckets stay shallow while the directory deepens,
        // and their splits redirect many slots each.
        let half = |odd: bool| {
            let t = &t;
            (0u64..).filter(move |&k| (t.eh.dir_hash(k) & 1 == 1) == odd)
        };
        let keys: Vec<u64> = half(false)
            .take(6_000)
            .chain(half(true).take(6_000))
            .collect();
        for key in keys {
            // Stay below the backlog that wakes the mapper by itself.
            if t.maint.pending() > 256 {
                assert!(t.wait_sync(Duration::from_secs(10)), "never synced");
            }
            let before = (shape(&t), t.versions().0, t.maint.pending());
            t.insert(key, key).unwrap();
            if shape(&t) == before.0 {
                continue;
            }
            let after = t.eh.directory_assignments().unwrap();
            if shape(&t) == (before.0 .0 + 1, before.0 .1) {
                // One split, no doubling: the slots it redirected are the
                // ones whose page changed.
                let redirected = after
                    .iter()
                    .zip(&assignments)
                    .filter(|(a, b)| a != b)
                    .count();
                assert!(redirected > 0);
                assert_eq!(t.versions().0, before.1 + 1, "key {key}: one bump");
                assert_eq!(t.maint.pending(), before.2 + 1, "key {key}: one update");
                assert!(t.maint.pending() < shortcut_core::maintenance::WAKE_BACKLOG);
                wide += usize::from(redirected >= 2);
            }
            assignments = after;
        }
        assert!(wide > 10, "only {wide} splits redirected two slots or more");
        assert!(t.wait_sync(Duration::from_secs(10)));
        assert!(t.maint_error().is_none());
    }

    /// An insert that fails after it changed the directory — in a later
    /// round of a multi-round split, or between a doubling and the split
    /// it was for — is relayed all the same: version bumped, the applied
    /// part queued, and the shortcut converges on it.
    #[test]
    fn a_split_that_fails_in_a_later_round_is_still_relayed() {
        let mut later_rounds = 0;
        for seed in 0..64u64 {
            // Three entries a bucket: one split in eight needs a second round.
            let mut t = ShortcutEh::try_new(on_demand_cfg(3, 8)).unwrap();
            assert!(t.wait_sync(Duration::from_secs(10)));
            let mut model = std::collections::HashMap::new();
            // Scattered keys: evenly spread ones fill every bucket at once
            // and fail on a doubling, never mid-split.
            let key = |i: u64| {
                let x = (seed << 32 | i).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                (x ^ x >> 29).wrapping_mul(0x94D0_49BB_1331_11EB)
            };
            let (failed, before) = (0u64..)
                .find_map(|i| {
                    let before = (shape(&t), t.versions().0, t.maint.pending());
                    match t.insert(key(i), i) {
                        Ok(()) => model.insert(key(i), i).and(None),
                        Err(e) => {
                            assert!(matches!(e, IndexError::Pool(_)), "{e}");
                            Some((key(i), before))
                        }
                    }
                })
                .unwrap();
            assert!(!t.eh.has_events());
            let (splits, doublings) = shape(&t);
            if (splits, doublings) == before.0 {
                // Failed before anything was applied: nothing owed.
                assert_eq!((t.versions().0, t.maint.pending()), (before.1, before.2));
                continue;
            }
            assert!(t.versions().0 > before.1, "applied part not stamped");
            if splits > before.0 .0 {
                later_rounds += 1;
                // A doubling's create would have superseded the queue.
                if doublings == before.0 .1 {
                    assert!(t.maint.pending() > before.2, "applied round not queued");
                }
            }
            let reads_as_model = |t: &ShortcutEh| {
                assert_eq!(t.get(failed), None);
                for (&k, &v) in &model {
                    assert_eq!(t.get(k), Some(v), "key {k}");
                }
            };
            reads_as_model(&t);
            assert!(t.wait_sync(Duration::from_secs(10)), "mapper never drained");
            reads_as_model(&t);
            for (&k, &v) in &model {
                if let Some(got) = via_shortcut(&t, k) {
                    assert_eq!(got, Some(v), "shortcut is stale for {k}");
                }
            }
        }
        assert!(later_rounds > 0, "no seed failed in a later round");
    }

    #[test]
    fn pool_exhaustion_surfaces_as_typed_error() {
        // A pool whose fixed reservation can hold only a handful of
        // buckets: inserting past it must produce IndexError::Pool — not
        // a panic — and leave every applied entry readable.
        let mut cfg = fast_cfg();
        cfg.eh.pool = PoolConfig {
            initial_pages: 1,
            min_growth_pages: 1,
            view_capacity_pages: 8,
            ..PoolConfig::default()
        };
        let mut t = ShortcutEh::try_new(cfg).unwrap();
        let mut applied = 0u64;
        let err = loop {
            match t.insert(applied, applied) {
                Ok(()) => applied += 1,
                Err(e) => break e,
            }
            assert!(applied < 100_000, "exhaustion never surfaced");
        };
        assert!(matches!(err, IndexError::Pool(_)), "{err}");
        for k in 0..applied {
            assert_eq!(t.get(k), Some(k), "entry {k} lost after failed insert");
        }
        // Events from split rounds that succeeded before the failure must
        // still have been relayed: once the mapper drains them, the
        // shortcut is genuinely in sync and agrees with the traditional
        // directory for every applied key.
        assert!(t.wait_sync(Duration::from_secs(10)), "mapper never drained");
        for k in 0..applied {
            if let Some(res) = via_shortcut(&t, k) {
                assert_eq!(res, Some(k), "shortcut reads pre-split bucket for {k}");
            }
        }
    }
}
