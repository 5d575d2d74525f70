//! **EH**: classical extendible hashing (paper §4, Figure 6).
//!
//! A directory of `2^global_depth` slots, indexed by the low bits of the
//! directory hash (its suffix, [`crate::dir_slot`]), points to 4 KB
//! buckets. Each bucket knows its *local depth* `l ≤ g` and is named by
//! its suffix `b`, the hash's low `l` bits: exactly the `2^(g−l)` slots
//! `b + k·2^l` reference it. An overflowing bucket splits (local depth
//! +1); if its local depth already equals the global depth, the directory
//! doubles first — by appending a copy of itself.
//!
//! An insert or remove is one fast path inlined into the caller, in both
//! arms; only an insert into a full bucket leaves it, for a cold split.
//!
//! Buckets are allocated from a [`shortcut_rewire::PagePool`] so that a
//! shortcut directory can later be rewired straight to their physical
//! pages — this is the prerequisite the paper states in §2.1. The bucket
//! of suffix `b` sits on pool page `b` ([`PagePool::alloc_page_at`]), so
//! slot `j` maps page `j mod 2^l`: whole stretches of the directory map
//! consecutive pages, which a rebuild maps with one `mmap` each and the
//! kernel keeps in one VMA.

mod directory;

pub use directory::Directory;

use crate::bucket::{prefetch, BucketLayout, BucketRef, InsertOutcome, BUCKET_CAPACITY};
use crate::error::IndexError;
use crate::hash::{dir_hash_of, dir_slot, mult_hash, split_bit};
use crate::stats::IndexStats;
use crate::traits::Index;
use shortcut_core::MaintRequest;
use shortcut_rewire::{planned_vmas, PageIdx, PagePool, PoolConfig, PoolHandle};
use std::sync::Arc;

/// How many keys ahead of the probe the batched lookups prefetch. One
/// constant for every path, from a sweep on a 2-vCPU Xeon (BASELINES.md,
/// the batches block): cold 256-key batches cost 1.15 × a bare bucket probe
/// per key at distance 4, 1.00 × at 8 and 0.91–0.94 × anywhere from 12 to
/// 24, while cached streams and the server's few-keys-per-shard groups read
/// the same at every distance from 4 to 32.
pub(crate) const PREFETCH_DISTANCE: usize = 16;

/// Keys a batch serves per entry into the sections of the shards they
/// touch: enough to amortize the entries, few enough (microseconds of pin
/// and lock hold) not to stall the reclaim scan or the shards' writers.
pub(crate) const WINDOW: usize = 4096; // audit:allow(page-literal): key-batch size per pin, not a page size

/// EH tuning.
#[derive(Debug, Clone)]
pub struct EhConfig {
    /// Maximum bucket load factor before splitting (paper: 0.35).
    pub max_load_factor: f64,
    /// Page pool configuration (bucket storage).
    pub pool: PoolConfig,
    /// Hard cap on the global depth; exceeding it panics with a clear
    /// message instead of exhausting memory (2^28 slots = 2 GB directory).
    pub max_global_depth: u32,
    /// Left-rotation applied to every key's multiplicative hash before
    /// the directory byte-swaps it and consumes its low bits
    /// ([`crate::dir_hash_of`]). The sharded index routes on the hash's
    /// top `s` bits and sets `hash_rot = s` on each shard, so a shard's
    /// directory addresses with the *next* bits down — keeping per-shard
    /// depth semantics identical to a standalone index instead of every
    /// shard's directory burning `s` constant levels. Default 0
    /// (unsharded).
    pub hash_rot: u32,
}

impl Default for EhConfig {
    fn default() -> Self {
        EhConfig {
            max_load_factor: 0.35,
            pool: PoolConfig::default(),
            max_global_depth: 28,
            hash_rot: 0,
        }
    }
}

/// The EH baseline (and the synchronous half of Shortcut-EH).
pub struct ExtendibleHash {
    pool: PagePool,
    dir: Directory,
    bucket_count: usize,
    len: usize,
    max_entries: usize,
    cfg: EhConfig,
    stats: IndexStats,
    /// The directory changes recorded since the last drain; `None` unless
    /// built by [`ExtendibleHash::try_new_tracked`].
    events: Option<Vec<MaintRequest>>,
    /// A splitting bucket's live entries, between its emptying and their
    /// re-placement: sized for the load limit once, reused by every split.
    split_entries: Vec<(u64, u64)>,
}

impl ExtendibleHash {
    /// Build with custom configuration; starts with one empty bucket (the
    /// paper's "effective space of only 4 KB").
    ///
    /// # Errors
    ///
    /// Rejects a load factor outside `(0, 1]` or too small to hold a
    /// single entry, and propagates pool creation / initial-bucket
    /// allocation failures (memfd, `mmap`, reservation sizing) as
    /// [`IndexError::Pool`].
    pub fn try_new(cfg: EhConfig) -> Result<Self, IndexError> {
        Self::build(cfg, false)
    }

    /// [`ExtendibleHash::try_new`] for Shortcut-EH: every directory change
    /// is recorded as the [`MaintRequest`] that replays it on a shortcut —
    /// an update per split, a create per doubling.
    pub(crate) fn try_new_tracked(cfg: EhConfig) -> Result<Self, IndexError> {
        Self::build(cfg, true)
    }

    fn build(cfg: EhConfig, track_events: bool) -> Result<Self, IndexError> {
        if !(cfg.max_load_factor > 0.0 && cfg.max_load_factor <= 1.0) {
            return Err(IndexError::config("max_load_factor must be in (0, 1]"));
        }
        let max_entries = ((BUCKET_CAPACITY as f64) * cfg.max_load_factor).floor() as usize;
        if max_entries < 1 {
            return Err(IndexError::config("load factor too small for any entry"));
        }
        let mut pool = PagePool::new(cfg.pool.clone())?;
        // The root bucket's suffix is empty: page 0.
        let first = pool.alloc_page_at(0)?;
        let ptr = pool.page_ptr(first);
        // SAFETY: freshly allocated, exclusively owned pool page.
        unsafe { BucketRef::at(ptr) }.init(0);
        let mut dir = Directory::new();
        dir.set_all(ptr);
        Ok(ExtendibleHash {
            pool,
            dir,
            bucket_count: 1,
            len: 0,
            max_entries,
            cfg,
            stats: IndexStats::default(),
            events: track_events.then(Vec::new),
            split_entries: Vec::with_capacity(max_entries),
        })
    }

    /// Build with the paper's defaults.
    ///
    /// # Errors
    ///
    /// Propagates pool creation failure as [`IndexError::Pool`].
    pub fn with_defaults() -> Result<Self, IndexError> {
        Self::try_new(EhConfig::default())
    }

    /// Global depth of the directory.
    pub fn global_depth(&self) -> u32 {
        self.dir.global_depth()
    }

    /// Number of directory slots (`2^global_depth`).
    pub fn dir_slots(&self) -> usize {
        self.dir.slot_count()
    }

    /// Number of distinct buckets.
    pub fn bucket_count(&self) -> usize {
        self.bucket_count
    }

    /// Average directory fan-in (`slots / buckets`), the §3.2 routing input.
    pub fn avg_fanin(&self) -> f64 {
        self.dir.slot_count() as f64 / self.bucket_count as f64
    }

    /// The bucket geometry: a stub of constants, kept only because the
    /// benchmark calls it (see [`BucketLayout`]).
    pub fn bucket_layout(&self) -> BucketLayout {
        BucketLayout
    }

    /// Structural statistics.
    pub fn stats(&self) -> IndexStats {
        self.stats
    }

    /// Bucket splits so far ([`IndexStats::splits`], without the copy).
    #[inline]
    pub fn splits(&self) -> u64 {
        self.stats.splits
    }

    /// Operation counters of the backing page pool.
    pub fn pool_stats(&self) -> shortcut_rewire::StatsSnapshot {
        self.pool.stats()
    }

    /// VMA budget and retirement counters of the backing page pool.
    pub fn vma_stats(&self) -> shortcut_rewire::VmaSnapshot {
        self.pool.vma_snapshot()
    }

    /// The pool's VMA budget — cheap atomic `in_use`/`limit` reads for
    /// hot-path decisions (the full [`ExtendibleHash::vma_stats`]
    /// snapshot takes the retire-list mutex).
    pub fn vma_budget(&self) -> &Arc<shortcut_rewire::VmaBudget> {
        self.pool.budget()
    }

    /// Maximum entries a bucket may hold before splitting.
    pub fn bucket_entry_limit(&self) -> usize {
        self.max_entries
    }

    /// A shareable handle to the bucket pool (for shortcut maintenance).
    pub fn pool_handle(&self) -> PoolHandle {
        self.pool.handle()
    }

    /// Whether directory changes were recorded since the last drain.
    #[inline]
    pub fn has_events(&self) -> bool {
        self.events
            .as_ref()
            .is_some_and(|events| !events.is_empty())
    }

    /// Drain the directory changes recorded since the last call. The
    /// buffer keeps its capacity, so recording the next split's requests
    /// allocates nothing.
    pub(crate) fn drain_events(&mut self) -> impl Iterator<Item = MaintRequest> + '_ {
        self.events.iter_mut().flat_map(|events| events.drain(..))
    }

    /// Record a directory change, if this index records them.
    fn record(&mut self, request: MaintRequest) {
        if let Some(events) = &mut self.events {
            events.push(request);
        }
    }

    /// The bucket a hash currently routes to. Forced inline: the write
    /// paths of both arms run it in their own bodies.
    #[inline(always)]
    fn bucket_for(&self, hash: u64) -> BucketRef {
        let ptr = self.dir.get(dir_slot(hash, self.dir.global_depth()));
        debug_assert!(!ptr.is_null());
        // SAFETY: directory slots always point at live pool bucket slots.
        unsafe { BucketRef::at(ptr) }
    }

    /// Full `(slot, pool page)` assignment of the current directory.
    ///
    /// # Errors
    ///
    /// Fails only if a directory slot points outside the pool view — an
    /// internal invariant violation surfaced as [`IndexError::Pool`]
    /// rather than a panic on the write path.
    pub fn directory_assignments(&self) -> Result<Vec<(usize, PageIdx)>, IndexError> {
        (0..self.dir.slot_count())
            .map(|s| {
                let ptr = self.dir.get(s);
                let page = self.pool.page_of_ptr(ptr)?;
                Ok((s, page))
            })
            .collect()
    }

    fn double_directory(&mut self) -> Result<(), IndexError> {
        if self.dir.global_depth() >= self.cfg.max_global_depth {
            return Err(IndexError::DepthLimit {
                max_global_depth: self.cfg.max_global_depth,
            });
        }
        self.dir.double();
        self.stats.doublings += 1;
        self.emit_rebuilt_event()
    }

    /// Split the bucket the hash routes to. One split per call;
    /// [`ExtendibleHash::insert_slow`] retries (a skewed bucket may need
    /// several rounds).
    ///
    /// On failure (pool exhausted, depth cap) no entry has moved yet — the
    /// overflowing bucket is split only after the fresh page is in hand —
    /// so the index stays fully readable.
    fn split(&mut self, hash: u64) -> Result<(), IndexError> {
        let old_ptr = self.dir.get(dir_slot(hash, self.dir.global_depth()));
        // SAFETY: live bucket slot (directory invariant).
        let old = unsafe { BucketRef::at(old_ptr) };
        let l = old.local_depth();
        if l == self.dir.global_depth() {
            self.double_directory()?;
        }

        // The new half takes the slots whose bit `l` is set, and the page
        // of its own suffix when that is free.
        let suffix = dir_slot(hash, l);
        let slots = Directory::split_slots(suffix, self.dir.global_depth(), l);
        let new_page = self.pool.alloc_page_at(slots.first)?;
        let new_ptr = self.pool.page_ptr(new_page);
        // SAFETY: freshly allocated pool slot, exclusively ours.
        let new = unsafe { BucketRef::at(new_ptr) };

        // Redistribute: bit `l` of the directory hash decides the side.
        // Both halves restart empty and tombstone-free, and every entry is
        // known absent from the half it goes to.
        let mut entries = std::mem::take(&mut self.split_entries);
        entries.clear();
        old.for_each_entry(|k, v| entries.push((k, v)));
        new.reset(l + 1);
        old.reset(l + 1);
        for &(k, v) in &entries {
            let target = if split_bit(self.dir_hash(k), l) {
                new
            } else {
                old
            };
            target.insert_absent(k, v);
        }
        self.split_entries = entries;

        for s in slots.iter() {
            self.dir.set(s, new_ptr);
        }
        self.record(MaintRequest::Update {
            slots,
            ppage: new_page,
        });
        self.bucket_count += 1;
        self.stats.splits += 1;
        Ok(())
    }

    /// Planned-VMA estimate of the **current** bucket layout, as a fresh
    /// shortcut rebuild would map it. `O(slots)` — diagnostics and tests,
    /// not the hot path.
    ///
    /// # Errors
    ///
    /// Propagates [`ExtendibleHash::directory_assignments`] failures.
    pub fn layout_vmas(&self) -> Result<usize, IndexError> {
        self.layout_vmas_at(0)
    }

    /// [`ExtendibleHash::layout_vmas`] for a directory published `shift`
    /// levels coarser (the maintenance engine's budget fallback): the
    /// directory's first `slots >> shift` slots.
    ///
    /// # Errors
    ///
    /// Propagates [`ExtendibleHash::directory_assignments`] failures.
    pub fn layout_vmas_at(&self, shift: u32) -> Result<usize, IndexError> {
        let slots = self.dir.slot_count() >> shift;
        let assignments = self.directory_assignments()?;
        Ok(planned_vmas(slots, &assignments[..slots]))
    }

    /// Announce the current directory as a full rebuild: records one
    /// [`MaintRequest::Create`] carrying the current assignment. A
    /// doubling does, Shortcut-EH's first directory does, and Shortcut-EH
    /// lifts a budget suspension (or a coarse publish) with it once a
    /// finer directory fits the budget again.
    ///
    /// # Errors
    ///
    /// Propagates [`ExtendibleHash::directory_assignments`] failures.
    pub fn emit_rebuilt_event(&mut self) -> Result<(), IndexError> {
        if self.events.is_some() {
            let assignments = self.directory_assignments()?;
            self.record(MaintRequest::Create {
                slots: self.dir.slot_count(),
                assignments,
            });
        }
        Ok(())
    }

    /// The hash the directory addresses with: [`dir_hash_of`] the key's
    /// multiplicative hash, under [`EhConfig::hash_rot`] (0 unless this
    /// index is a shard — see the field's docs).
    #[inline(always)]
    pub fn dir_hash(&self, key: u64) -> u64 {
        self.dir_hash_of(mult_hash(key))
    }

    /// [`ExtendibleHash::dir_hash`] of the key whose [`mult_hash`] is
    /// `hash`, for callers that already computed it (shard routing).
    #[inline(always)]
    pub(crate) fn dir_hash_of(&self, hash: u64) -> u64 {
        dir_hash_of(hash, self.cfg.hash_rot)
    }

    /// [`Index::get`] from the key's [`ExtendibleHash::dir_hash`].
    #[inline]
    pub(crate) fn get_hashed(&self, key: u64, dir_hash: u64) -> Option<u64> {
        self.bucket_for(dir_hash).get(key)
    }

    /// [`Index::insert`] from the key's [`ExtendibleHash::dir_hash`]: the
    /// fast path, and the slow one when it finds the bucket full.
    #[inline(always)]
    pub(crate) fn insert_hashed(
        &mut self,
        key: u64,
        value: u64,
        dir_hash: u64,
    ) -> Result<(), IndexError> {
        if self.insert_fast(key, value, dir_hash) {
            return Ok(());
        }
        self.insert_slow(key, value, dir_hash)
    }

    /// The bucket's insert and the count, inlined into both arms: with
    /// plain `#[inline]` LLVM kept out-of-line copies, and an arm that
    /// called one paid for it alone. `false` (nothing changed): a new key
    /// and a full bucket — an update never is, however full its bucket.
    #[inline(always)]
    pub(crate) fn insert_fast(&mut self, key: u64, value: u64, dir_hash: u64) -> bool {
        match self
            .bucket_for(dir_hash)
            .insert(key, value, self.max_entries)
        {
            InsertOutcome::Inserted => {
                self.len += 1;
                true
            }
            InsertOutcome::Updated => true,
            InsertOutcome::Full => false,
        }
    }

    /// Split, and insert again: a skewed bucket may take several rounds.
    /// An error leaves the rounds before it applied and the key out.
    #[cold]
    #[inline(never)]
    pub(crate) fn insert_slow(
        &mut self,
        key: u64,
        value: u64,
        dir_hash: u64,
    ) -> Result<(), IndexError> {
        self.split(dir_hash)?;
        self.insert_hashed(key, value, dir_hash)
    }

    /// [`BucketRef::update`] from the key's [`ExtendibleHash::dir_hash`].
    #[inline]
    pub(crate) fn update_hashed(&self, key: u64, value: u64, dir_hash: u64) -> bool {
        self.bucket_for(dir_hash).update(key, value)
    }

    /// [`Index::remove`] from the key's [`ExtendibleHash::dir_hash`].
    #[inline(always)]
    pub(crate) fn remove_hashed(&mut self, key: u64, dir_hash: u64) -> Option<u64> {
        let v = self.bucket_for(dir_hash).remove(key);
        if v.is_some() {
            self.len -= 1;
        }
        v
    }

    /// Ask the cache for the directory entry of the key whose
    /// [`ExtendibleHash::dir_hash`] is `dir_hash`: a batch does, keys ahead.
    #[inline(always)]
    pub(crate) fn prefetch_entry(&self, dir_hash: u64) {
        prefetch(
            self.dir
                .slot_addr(dir_slot(dir_hash, self.dir.global_depth())),
        );
    }
}

impl Index for ExtendibleHash {
    #[inline]
    fn insert(&mut self, key: u64, value: u64) -> Result<(), IndexError> {
        self.insert_hashed(key, value, self.dir_hash(key))
    }

    /// Shared-reference lookup. Because inserts require `&mut self`, Rust's
    /// aliasing rules guarantee no concurrent structural change while any
    /// `&self` lookup runs — this is the sound basis for parallel lookup
    /// phases (see [`crate::ShortcutEh`]).
    fn get(&self, key: u64) -> Option<u64> {
        self.get_hashed(key, self.dir_hash(key))
    }

    #[inline]
    fn remove(&mut self, key: u64) -> Result<Option<u64>, IndexError> {
        Ok(self.remove_hashed(key, self.dir_hash(key)))
    }

    fn len(&self) -> usize {
        self.len
    }

    fn name(&self) -> &'static str {
        "EH"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take_events(eh: &mut ExtendibleHash) -> Vec<MaintRequest> {
        eh.drain_events().collect()
    }

    fn small() -> ExtendibleHash {
        ExtendibleHash::try_new(EhConfig {
            pool: PoolConfig {
                initial_pages: 1,
                min_growth_pages: 8,
                view_capacity_pages: 1 << 16,
                ..PoolConfig::default()
            },
            ..EhConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn starts_with_one_bucket_depth_zero() {
        let eh = small();
        assert_eq!(eh.global_depth(), 0);
        assert_eq!(eh.dir_slots(), 1);
        assert_eq!(eh.bucket_count(), 1);
    }

    #[test]
    fn out_of_range_load_factor_is_a_typed_error() {
        for bad in [0.0, -0.5, 1.5] {
            assert!(
                matches!(
                    ExtendibleHash::try_new(EhConfig {
                        max_load_factor: bad,
                        ..EhConfig::default()
                    }),
                    Err(IndexError::Config { .. })
                ),
                "load factor {bad} accepted"
            );
        }
    }

    #[test]
    fn basic_roundtrip() {
        let mut eh = small();
        eh.insert(1, 10).unwrap();
        eh.insert(2, 20).unwrap();
        assert_eq!(eh.get(1), Some(10));
        assert_eq!(eh.get(2), Some(20));
        assert_eq!(eh.get(3), None);
        assert_eq!(eh.remove(1).unwrap(), Some(10));
        assert_eq!(eh.get(1), None);
        assert_eq!(eh.len(), 1);
    }

    #[test]
    fn update_preserves_len() {
        let mut eh = small();
        eh.insert(5, 1).unwrap();
        eh.insert(5, 2).unwrap();
        assert_eq!(eh.len(), 1);
        assert_eq!(eh.get(5), Some(2));
    }

    #[test]
    fn splits_and_doublings_preserve_entries() {
        let mut eh = small();
        let n = 20_000u64;
        for k in 0..n {
            eh.insert(k, k + 7).unwrap();
        }
        assert_eq!(eh.len(), n as usize);
        assert!(eh.stats().splits > 100);
        assert!(eh.stats().doublings > 3);
        for k in 0..n {
            assert_eq!(eh.get(k), Some(k + 7), "key {k}");
        }
        // Load factor is maintained across all buckets.
        let limit = eh.bucket_entry_limit();
        assert!(limit <= 88);
        assert!(eh.bucket_count() as f64 * limit as f64 >= n as f64);
    }

    #[test]
    fn directory_invariants_hold() {
        let mut eh = small();
        for k in 0..5_000u64 {
            eh.insert(k, k).unwrap();
        }
        let g = eh.global_depth();
        let mut seen = std::collections::HashMap::new();
        for s in 0..eh.dir_slots() {
            let ptr = eh.dir.get(s);
            assert!(!ptr.is_null());
            // SAFETY: directory invariant — live bucket page.
            let l = unsafe { BucketRef::at(ptr) }.local_depth();
            assert!(l <= g, "local depth exceeds global at slot {s}");
            seen.entry(ptr as usize)
                .or_insert_with(Vec::new)
                .push((s, l));
        }
        for slots in seen.values() {
            // A bucket of local depth l is named by the 2^(g-l) slots that
            // share its l-bit suffix, one every 2^l.
            let (first, l) = slots[0];
            assert!(first < 1 << l, "first slot {first} is not a suffix");
            let want: Vec<(usize, u32)> = (first..eh.dir_slots())
                .step_by(1 << l)
                .map(|s| (s, l))
                .collect();
            assert_eq!(slots, &want);
        }
        assert_eq!(seen.len(), eh.bucket_count());
    }

    /// The layout rule: the bucket of suffix `b` sits on pool page `b`,
    /// so slot `j` maps page `j mod 2^l`.
    fn assert_suffix_layout(eh: &ExtendibleHash, assignments: &[(usize, PageIdx)]) {
        for &(slot, page) in assignments {
            // SAFETY: directory invariant — live bucket page.
            let l = unsafe { BucketRef::at(eh.pool.page_ptr(page)) }.local_depth();
            assert_eq!(page.0, slot & ((1 << l) - 1), "slot {slot}");
        }
    }

    #[test]
    fn entries_live_in_their_suffix_bucket() {
        let mut eh = small();
        let bucket_at = |eh: &ExtendibleHash, slot: usize| {
            // SAFETY: directory invariant — live bucket page.
            unsafe { BucketRef::at(eh.dir.get(slot)) }
        };
        // Every third key is removed shortly after it went in, so buckets
        // carry tombstones when they split.
        let mut model = std::collections::HashMap::new();
        for k in 0..20_000u64 {
            let splits = eh.stats().splits;
            eh.insert(k, !k).unwrap();
            model.insert(k, !k);
            if eh.stats().splits > splits {
                // The bucket `k` went into and its buddy are the halves of
                // the last split: rebuilt, so tombstone-free.
                let slot = dir_slot(eh.dir_hash(k), eh.global_depth());
                let l = bucket_at(&eh, slot).local_depth();
                for half in [slot, slot ^ (1 << (l - 1))] {
                    let b = bucket_at(&eh, half);
                    assert_eq!(b.local_depth(), l, "not a buddy at key {k}");
                    assert_eq!(b.tombstones(), 0, "split left a tombstone at key {k}");
                }
            }
            if k % 3 == 2 {
                assert_eq!(eh.remove(k - 1).unwrap(), model.remove(&(k - 1)));
            }
        }
        assert!(eh.stats().splits > 100);
        assert_eq!(eh.len(), model.len());
        for k in 0..20_000u64 {
            assert_eq!(eh.get(k), model.get(&k).copied(), "key {k}");
        }
        let mut entries = 0;
        for s in 0..eh.dir_slots() {
            let b = bucket_at(&eh, s);
            let l = b.local_depth();
            if s >= 1 << l {
                continue; // Counted at its suffix, the lowest slot naming it.
            }
            b.for_each_entry(|k, _| {
                assert_eq!(dir_slot(eh.dir_hash(k), l), s, "entry {k} in wrong bucket");
                entries += 1;
            });
        }
        assert_eq!(entries, model.len(), "a bucket holds a removed entry");
        assert_suffix_layout(&eh, &eh.directory_assignments().unwrap());
    }

    #[test]
    fn events_track_splits_and_doublings() {
        let mut eh = ExtendibleHash::try_new_tracked(EhConfig::default()).unwrap();
        // The even half of the hash space first, then the odd one: the
        // odd half's buckets stay shallow while the directory deepens,
        // and their splits redirect many slots each, so one update a split
        // and one a redirected slot give different counts.
        let keys: Vec<u64> = {
            let half = |odd: bool| {
                let eh = &eh;
                (0u64..).filter(move |&k| (eh.dir_hash(k) & 1 == 1) == odd)
            };
            half(false)
                .take(3_000)
                .chain(half(true).take(3_000))
                .collect()
        };
        for k in keys {
            eh.insert(k, k).unwrap();
        }
        let events = take_events(&mut eh);
        let doubles = events
            .iter()
            .filter(|e| matches!(e, MaintRequest::Create { .. }))
            .count();
        let updates = events
            .iter()
            .filter(|e| matches!(e, MaintRequest::Update { .. }))
            .count();
        assert_eq!(doubles as u64, eh.stats().doublings);
        assert_eq!(updates as u64, eh.stats().splits, "one update a split");
        let wide = events
            .iter()
            .filter(|e| matches!(e, MaintRequest::Update { slots, .. } if slots.len() >= 2))
            .count();
        assert!(wide > 10, "only {wide} splits redirected two slots or more");
        // After a drain, the buffer is empty.
        assert!(take_events(&mut eh).is_empty());
        // The last create's assignment vector covers every slot of the
        // directory it announced.
        if let Some(MaintRequest::Create { slots, assignments }) = events
            .iter()
            .rev()
            .find(|e| matches!(e, MaintRequest::Create { .. }))
        {
            assert_eq!(assignments.len(), *slots);
            for (i, (s, _)) in assignments.iter().enumerate() {
                assert_eq!(i, *s);
            }
        } else {
            panic!("expected at least one create");
        }
    }

    #[test]
    fn no_events_when_disabled() {
        let mut eh = small();
        for k in 0..2_000u64 {
            eh.insert(k, k).unwrap();
        }
        assert!(take_events(&mut eh).is_empty());
    }

    #[test]
    fn on_rebuild_compaction_keeps_directory_near_identity() {
        // No page ever moves: each bucket is placed at its suffix when it
        // is made, and every rebuild a doubling announces is already laid
        // out in runs.
        let mut eh = ExtendibleHash::try_new_tracked(EhConfig {
            pool: PoolConfig {
                initial_pages: 1,
                min_growth_pages: 8,
                view_capacity_pages: 1 << 16,
                ..PoolConfig::default()
            },
            ..EhConfig::default()
        })
        .unwrap();
        let n = 100_000u64;
        for i in 0..n {
            eh.insert(scattered(3, i), i).unwrap();
        }
        for i in 0..n {
            assert_eq!(eh.get(scattered(3, i)), Some(i), "key {i}");
        }
        assert!(eh.stats().doublings > 8);
        let events = take_events(&mut eh);
        let rebuilds: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                MaintRequest::Create { slots, assignments } => Some((*slots, assignments)),
                MaintRequest::Update { .. } => None,
            })
            .collect();
        assert_eq!(rebuilds.len() as u64, eh.stats().doublings);
        for (slots, assignments) in &rebuilds {
            assert_eq!(assignments.len(), *slots);
            // A uniform load doubles when nearly every bucket has split to
            // the old depth: the copy maps two runs, and the few buckets
            // left shallower break them in a handful of places.
            let runs = planned_vmas(*slots, assignments);
            if *slots >= 256 {
                assert!(runs * 16 <= *slots, "{runs} runs over {slots} slots");
            }
        }
        assert_suffix_layout(&eh, &eh.directory_assignments().unwrap());
    }

    /// Keys whose directory hashes share a 10-bit suffix drive the depth
    /// past log2 of a 2^10-page view: their buckets cannot sit at their
    /// suffix and take fallback pages, and every answer still agrees with
    /// a `HashMap`.
    #[test]
    fn a_long_shared_suffix_takes_fallback_pages_and_keeps_answers() {
        // The inverse of MULT_CONST modulo 2^64, by Newton's iteration.
        let inv = (0..6).fold(crate::hash::MULT_CONST, |x, _| {
            x.wrapping_mul(2u64.wrapping_sub(crate::hash::MULT_CONST.wrapping_mul(x)))
        });
        assert_eq!(inv.wrapping_mul(crate::hash::MULT_CONST), 1);
        // dir_hash = swap_bytes(mult_hash): the directory's low 10 bits are
        // the multiplicative hash's bits 56..64 and 48..50.
        let fixed = 0xFFu64 << 56 | 0b11 << 48;
        let key = |i: u64| (scattered(7, i) & !fixed | 0xA5 << 56 | 0b10 << 48).wrapping_mul(inv);
        let mut eh = limited(8, 1 << 10);
        let mut model = std::collections::HashMap::new();
        for i in 0..600u64 {
            assert_eq!(dir_slot(eh.dir_hash(key(i)), 10), 0x2A5);
            eh.insert(key(i), i).unwrap();
            model.insert(key(i), i);
        }
        for i in 0..1_000u64 {
            eh.insert(scattered(8, i), i).unwrap();
            model.insert(scattered(8, i), i);
        }
        assert!(eh.global_depth() > 10, "depth {}", eh.global_depth());
        for (&k, &v) in &model {
            assert_eq!(eh.get(k), Some(v), "key {k}");
        }
        assert_eq!(eh.len(), model.len());
        let assignments = eh.directory_assignments().unwrap();
        let misplaced = assignments
            .iter()
            .filter(|&&(slot, page)| {
                // SAFETY: directory invariant — live bucket page.
                let l = unsafe { BucketRef::at(eh.pool.page_ptr(page)) }.local_depth();
                page.0 != slot & ((1 << l) - 1)
            })
            .count();
        assert!(misplaced > 0, "no bucket took a fallback page");
    }

    /// Identity placement leaves holes in the pool file, and nothing fills
    /// them: after 2^16 keys the file holds at most 1.25 × the pages the
    /// pool handed out.
    #[test]
    fn placement_holes_hold_no_memory() {
        use std::os::unix::fs::MetadataExt;
        let mut eh = small();
        for k in 0..1u64 << 16 {
            eh.insert(k, k).unwrap();
        }
        let handed_out = eh.pool.allocated_pages() as u64;
        let file = std::fs::metadata(format!("/proc/self/fd/{}", eh.pool_handle().fd())).unwrap();
        let resident = file.blocks() * 512 / shortcut_rewire::PAGE_SIZE_4K as u64;
        assert!(
            resident * 4 <= handed_out * 5,
            "{resident} resident pages for {handed_out} handed out \
             (file of {} pages)",
            eh.pool.file_pages()
        );
    }

    #[test]
    fn remove_then_reinsert_across_splits() {
        let mut eh = small();
        for k in 0..2_000u64 {
            eh.insert(k, k).unwrap();
        }
        for k in 0..1_000u64 {
            assert_eq!(eh.remove(k).unwrap(), Some(k));
        }
        for k in 0..1_000u64 {
            assert_eq!(eh.get(k), None);
        }
        for k in 0..1_000u64 {
            eh.insert(k, k * 2).unwrap();
        }
        for k in 0..1_000u64 {
            assert_eq!(eh.get(k), Some(k * 2));
        }
        assert_eq!(eh.len(), 2_000);
    }

    /// A plain EH whose 4 KB buckets split at `entry_limit` entries, over a
    /// view of `view_capacity_pages` pool pages.
    fn limited(entry_limit: usize, view_capacity_pages: usize) -> ExtendibleHash {
        let eh = ExtendibleHash::try_new(EhConfig {
            max_load_factor: (entry_limit as f64 + 0.5) / crate::BUCKET_CAPACITY as f64,
            pool: PoolConfig {
                initial_pages: 1,
                min_growth_pages: 1,
                view_capacity_pages,
                ..PoolConfig::default()
            },
            ..EhConfig::default()
        })
        .unwrap();
        assert_eq!(eh.bucket_entry_limit(), entry_limit);
        eh
    }

    /// Keys scattered over the hash space: evenly spread ones fill every
    /// bucket at once.
    fn scattered(seed: u64, i: u64) -> u64 {
        let x = (seed << 32 | i).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        (x ^ x >> 29).wrapping_mul(0x94D0_49BB_1331_11EB)
    }

    /// Whether inserting `key` now finds its bucket full: a new key, and
    /// the bucket at its entry limit.
    fn finds_full(eh: &ExtendibleHash, key: u64) -> bool {
        let bucket = eh.bucket_for(eh.dir_hash(key));
        bucket.get(key).is_none() && bucket.count() == eh.bucket_entry_limit()
    }

    /// The fast path's boundary: an update never leaves it, however full
    /// its bucket; a new key in that bucket does, and splits.
    #[test]
    fn an_update_in_a_full_bucket_splits_nothing() {
        let mut eh = limited(3, 1 << 8);
        for k in 0..3 {
            eh.insert(k, k).unwrap();
        }
        assert_eq!((eh.splits(), eh.bucket_count(), eh.len()), (0, 1, 3));
        assert!((0..3).all(|k| !finds_full(&eh, k)) && finds_full(&eh, 3));
        for k in 0..3 {
            eh.insert(k, k + 100).unwrap();
            assert_eq!((eh.splits(), eh.len()), (0, 3), "update of {k}");
            assert_eq!(eh.get(k), Some(k + 100));
        }
        eh.insert(3, 3).unwrap();
        assert!(eh.splits() > 0);
        assert_eq!(eh.len(), 4);
    }

    /// Insert and remove, operation by operation, against a `HashMap`:
    /// `len()` and every `get` agree, and `splits()` moves on exactly the
    /// inserts that found their bucket full — by several on a multi-round
    /// split. At the bucket's entry limit, at ten entries, and at three,
    /// where one split in eight takes a second round.
    #[test]
    fn fast_and_slow_paths_match_a_model() {
        for limit in [3, 10, (BUCKET_CAPACITY as f64 * 0.35) as usize] {
            let mut eh = limited(limit, 1 << 16);
            let domain = 150 * limit as u64;
            let mut model = std::collections::HashMap::new();
            let (mut splitting, mut multi_round) = (0, 0);
            for op in 0..4 * domain {
                let key = scattered(limit as u64, op) % domain;
                if op % 4 == 0 {
                    assert_eq!(eh.remove(key).unwrap(), model.remove(&key), "op {op}");
                } else {
                    let (full, splits) = (finds_full(&eh, key), eh.splits());
                    eh.insert(key, op).unwrap();
                    model.insert(key, op);
                    assert_eq!(eh.splits() > splits, full, "op {op}: key {key}");
                    splitting += usize::from(full);
                    multi_round += usize::from(eh.splits() > splits + 1);
                }
                assert_eq!(eh.len(), model.len(), "op {op}");
                if op % 1024 == 0 {
                    for k in 0..domain {
                        assert_eq!(eh.get(k), model.get(&k).copied(), "op {op}: key {k}");
                    }
                }
            }
            for k in 0..domain {
                assert_eq!(eh.get(k), model.get(&k).copied(), "key {k}");
            }
            assert!(splitting > 50, "{splitting} splitting inserts");
            if limit == 3 {
                assert!(multi_round > 0, "no multi-round split");
            }
        }
    }

    /// Pool exhaustion inside the slow path — in a later round of a
    /// multi-round split among them — returns the pool's error, keeps
    /// every entry the index held and the rounds that were applied, and
    /// keeps `len()` exact.
    #[test]
    fn a_split_that_runs_out_of_pages_loses_nothing() {
        let mut later_rounds = 0;
        for seed in 0..64u64 {
            // Three entries a bucket: one split in eight needs a second round.
            let mut eh = limited(3, 8);
            let mut model = std::collections::HashMap::new();
            let (failed, splits) = (0u64..)
                .find_map(|i| {
                    let (key, splits) = (scattered(seed, i), eh.splits());
                    match eh.insert(key, i) {
                        Ok(()) => model.insert(key, i).and(None),
                        Err(e) => {
                            assert!(matches!(e, IndexError::Pool(_)), "{e}");
                            Some((key, splits))
                        }
                    }
                })
                .unwrap();
            later_rounds += usize::from(eh.splits() > splits);
            assert_eq!(eh.len(), model.len());
            assert_eq!(eh.get(failed), None);
            for (&k, &v) in &model {
                assert_eq!(eh.get(k), Some(v), "key {k}");
            }
        }
        assert!(later_rounds > 0, "no seed failed in a later round");
    }
}
