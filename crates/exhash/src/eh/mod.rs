//! **EH**: classical extendible hashing (paper §4, Figure 6).
//!
//! A directory of `2^global_depth` slots, indexed by the most significant
//! hash bits, points to 4 KB buckets. Each bucket knows its *local depth*
//! `l ≤ g`: exactly `2^(g−l)` contiguous directory slots reference it. An
//! overflowing bucket splits (local depth +1); if its local depth already
//! equals the global depth, the directory doubles first.
//!
//! An insert or remove is one fast path inlined into the caller, in both
//! arms; only an insert into a full bucket leaves it, for a cold split.
//!
//! Buckets are allocated from a [`shortcut_rewire::PagePool`] so that a
//! shortcut directory can later be rewired straight to their physical
//! pages — this is the prerequisite the paper states in §2.1.

mod directory;

pub use directory::Directory;

use crate::bucket::{prefetch, BucketLayout, BucketRef, InsertOutcome};
use crate::error::IndexError;
use crate::hash::{dir_slot, mult_hash, split_bit};
use crate::stats::IndexStats;
use crate::traits::Index;
use shortcut_core::{CompactionPolicy, MaintRequest};
use shortcut_rewire::{planned_vmas, PageIdx, PagePool, PoolConfig, PoolHandle, SlotLayout};
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
    /// the directory consumes its **top** bits ([`crate::dir_slot`]).
    /// The sharded index routes on the hash's top `s` bits and sets
    /// `hash_rot = s` on each shard, so a shard's directory addresses
    /// with the *next* bits down — keeping per-shard depth semantics
    /// identical to a standalone index instead of every shard's
    /// directory burning `s` constant levels. Default 0 (unsharded).
    pub hash_rot: u32,
    /// Bucket-layout compaction (see [`shortcut_core::CompactionPolicy`];
    /// default disabled). When on, every directory doubling relocates the
    /// buckets into directory order, so the emitted rebuild assignment is
    /// an identity run.
    pub compaction: CompactionPolicy,
}

impl Default for EhConfig {
    fn default() -> Self {
        EhConfig {
            max_load_factor: 0.35,
            pool: PoolConfig::default(),
            max_global_depth: 28,
            compaction: CompactionPolicy::default(),
            hash_rot: 0,
        }
    }
}

/// Outcome of one completed compaction pass.
#[derive(Debug, Clone, Copy)]
pub struct CompactionOutcome {
    /// Bucket pages physically relocated.
    pub pages_moved: usize,
    /// Planned-VMA estimate of the directory layout before the pass.
    pub vmas_before: usize,
    /// Planned-VMA estimate after (an identity layout: one VMA plus one
    /// per fan-in > 1 aliasing boundary).
    pub vmas_after: usize,
}

/// The EH baseline (and the synchronous half of Shortcut-EH).
pub struct ExtendibleHash {
    pool: PagePool,
    /// Bucket geometry derived from the pool's slot size (capacity, field
    /// offsets). One bucket fills one slot.
    bucket_layout: BucketLayout,
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
    /// an update per split, a create per doubling or compaction.
    pub(crate) fn try_new_tracked(cfg: EhConfig) -> Result<Self, IndexError> {
        Self::build(cfg, true)
    }

    fn build(cfg: EhConfig, track_events: bool) -> Result<Self, IndexError> {
        if !(cfg.max_load_factor > 0.0 && cfg.max_load_factor <= 1.0) {
            return Err(IndexError::config("max_load_factor must be in (0, 1]"));
        }
        let bucket_layout = BucketLayout::for_slot(cfg.pool.slot_layout);
        let max_entries =
            ((bucket_layout.capacity() as f64) * cfg.max_load_factor).floor() as usize;
        if max_entries < 1 {
            return Err(IndexError::config("load factor too small for any entry"));
        }
        let mut pool = PagePool::new(cfg.pool.clone())?;
        let first = pool.alloc_page()?;
        let ptr = pool.page_ptr(first);
        // SAFETY: freshly allocated, exclusively owned pool slot.
        unsafe { BucketRef::from_ptr(ptr, bucket_layout) }.init(0);
        let mut dir = Directory::new();
        dir.set_all(ptr);
        Ok(ExtendibleHash {
            pool,
            bucket_layout,
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

    /// The pool's physical slot layout (`2^k` base pages per bucket).
    pub fn slot_layout(&self) -> SlotLayout {
        self.pool.layout()
    }

    /// The derived bucket geometry (capacity, offsets) of this index.
    pub fn bucket_layout(&self) -> BucketLayout {
        self.bucket_layout
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
        unsafe { BucketRef::from_ptr(ptr, self.bucket_layout) }
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
        if self.cfg.compaction.enabled() {
            // Compact "for free" while the shortcut must be rebuilt
            // anyway: the emitted assignment is then an identity run the
            // mapper coalesces into a handful of mmap calls and VMAs. A
            // pass that cannot run (no room for the target run) degrades
            // to the plain scattered rebuild instead of failing the
            // insert.
            match self.compact_full() {
                Ok(_) => return Ok(()),
                Err(_) => self.note_compaction_skipped(),
            }
        }
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
        let g = self.dir.global_depth();
        let slot = dir_slot(hash, g);
        let old_ptr = self.dir.get(slot);
        // SAFETY: live bucket slot (directory invariant).
        let old = unsafe { BucketRef::from_ptr(old_ptr, self.bucket_layout) };
        let l = old.local_depth();

        if l == g {
            self.double_directory()?;
        }
        let g = self.dir.global_depth();
        let slot = dir_slot(hash, g);
        // Re-fetch through the directory: a rebuild-time compaction inside
        // `double_directory` may have physically relocated the bucket, and
        // the pre-doubling `old` ref would then point at the retired copy
        // (splitting *that* would lose the entries). Bucket handles are
        // only stable through the directory's translation.
        let old_ptr = self.dir.get(slot);
        // SAFETY: live bucket slot (directory invariant).
        let old = unsafe { BucketRef::from_ptr(old_ptr, self.bucket_layout) };
        let l = old.local_depth();
        debug_assert!(l < g);

        // Covering range of the old bucket: 2^(g-l) contiguous slots.
        let range = Directory::covering_range(slot, g, l);
        let half = range.len() / 2;

        // Bucket page for the upper half, fresh or recycled.
        let new_page = self.pool.alloc_page()?;
        let new_ptr = self.pool.page_ptr(new_page);
        // SAFETY: freshly allocated pool slot, exclusively ours.
        let new = unsafe { BucketRef::from_ptr(new_ptr, self.bucket_layout) };

        // Redistribute: the (l+1)-th hash bit decides the side. Both
        // halves restart empty and tombstone-free, and every entry is
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

        // Redirect the upper half of the covering range.
        let first_new = range.start + half;
        for s in first_new..range.end {
            self.dir.set(s, new_ptr);
        }
        self.record(MaintRequest::Update {
            slots: first_new..range.end,
            ppage: new_page,
        });
        self.bucket_count += 1;
        self.stats.splits += 1;
        // Opportunistically return relocated-away pages whose reader pins
        // have drained (split frequency makes this prompt without putting
        // a quiescence scan on the per-insert path).
        if self.pool.retired_page_count() > 0 {
            self.pool.reclaim_retired_pages();
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Physical compaction: relocate bucket pages into directory order so
    // that a shortcut rebuild becomes an identity mapping the kernel can
    // merge into a handful of VMAs. All moves run here on the write path:
    // `&mut self` guarantees no in-process reader holds a reference to any
    // bucket, so a copy-then-repoint can never tear a lookup. Readers that
    // raced through a *retired shortcut directory* may still dereference
    // the old page — which is why sources are epoch-retired via
    // [`shortcut_rewire::PagePool::retire_page`] instead of freed, and
    // their ticket check discards whatever they read.
    // ------------------------------------------------------------------

    /// `slots − buckets + 1`: the planned-VMA estimate of a perfectly
    /// directory-ordered layout (every covering-range boundary merges;
    /// each fan-in > 1 bucket keeps `fanin − 1` unmergeable internal
    /// boundaries). The cheapest possible "is compaction worth it" input.
    pub fn ideal_layout_vmas(&self) -> usize {
        self.dir.slot_count() - self.bucket_count + 1
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
    /// levels coarser (the maintenance engine's budget fallback): coarse
    /// slot `s` maps the page of fine slot `s << shift`.
    ///
    /// # Errors
    ///
    /// Propagates [`ExtendibleHash::directory_assignments`] failures.
    pub fn layout_vmas_at(&self, shift: u32) -> Result<usize, IndexError> {
        let slots = self.dir.slot_count();
        let assignments = self.directory_assignments()?;
        if shift == 0 {
            return Ok(planned_vmas(slots, &assignments));
        }
        let coarse: Vec<(usize, PageIdx)> = (0..slots >> shift)
            .map(|s| (s, assignments[s << shift].1))
            .collect();
        Ok(planned_vmas(slots >> shift, &coarse))
    }

    /// What [`ExtendibleHash::layout_vmas_at`] would report right after a
    /// full compaction, published `shift` levels coarser: each coarse
    /// boundary merges exactly when the preceding coarse slot contains
    /// exactly one directory-ordered bucket. `O(slots)`; used by the
    /// suspension rescue to decide whether a fresh pass can fit a budget
    /// the current layout cannot.
    pub fn ideal_layout_vmas_at(&self, shift: u32) -> usize {
        if shift == 0 {
            return self.ideal_layout_vmas();
        }
        let g = self.dir.global_depth();
        let slots = self.dir.slot_count();
        let step = (1usize << shift).min(slots);
        // Walk coarse slots with a bucket cursor: `bucket_idx` numbers the
        // buckets in directory order (their page index after compaction).
        let mut planned = 0usize;
        let mut prev: Option<usize> = None;
        let (mut fine, mut bucket_idx) = (0usize, 0usize);
        let cover_at = |s: usize| {
            let ptr = self.dir.get(s);
            // SAFETY: live bucket slot (directory invariant).
            let l = unsafe { BucketRef::from_ptr(ptr, self.bucket_layout) }.local_depth();
            1usize << (g - l)
        };
        for s in (0..slots).step_by(step) {
            let mut cover = cover_at(fine);
            while fine + cover <= s {
                fine += cover;
                bucket_idx += 1;
                cover = cover_at(fine);
            }
            if prev != Some(bucket_idx.wrapping_sub(1)) {
                planned += 1;
            }
            prev = Some(bucket_idx);
        }
        planned
    }

    fn note_compaction(&mut self, outcome: CompactionOutcome) {
        self.stats.compactions += 1;
        self.stats.pages_moved += outcome.pages_moved as u64;
        self.stats.vmas_saved += outcome.vmas_before.saturating_sub(outcome.vmas_after) as u64;
    }

    pub(crate) fn note_compaction_skipped(&mut self) {
        self.stats.compaction_skipped += 1;
    }

    /// Move the bucket covering `slot` to `dst`: copy the page, repoint
    /// every covering directory slot, retire the source, and record the
    /// per-slot identity assignment. Returns the covering width.
    fn move_bucket(
        &mut self,
        slot: usize,
        dst: PageIdx,
        assignments: &mut Vec<(usize, PageIdx)>,
    ) -> Result<usize, IndexError> {
        let g = self.dir.global_depth();
        let ptr = self.dir.get(slot);
        // SAFETY: live bucket slot (directory invariant).
        let l = unsafe { BucketRef::from_ptr(ptr, self.bucket_layout) }.local_depth();
        let range = Directory::covering_range(slot, g, l);
        debug_assert_eq!(range.start, slot, "cursor must sit on a range start");
        let src = self.pool.page_of_ptr(ptr)?;
        self.pool.relocate_page(src, dst)?;
        let dst_ptr = self.pool.page_ptr(dst);
        for s in range.clone() {
            self.dir.set(s, dst_ptr);
        }
        self.pool.retire_page(src)?;
        assignments.extend(range.clone().map(|s| (s, dst)));
        Ok(range.len())
    }

    /// Relocate **every** bucket into directory order in one pass and
    /// (when tracked) record a single [`MaintRequest::Create`]
    /// carrying the identity assignment. Sources are epoch-retired and
    /// reclaimed once reader pins drain; the vacated span is reused by the
    /// next pass.
    ///
    /// # Errors
    ///
    /// Fails when the pool cannot host the target run (view capacity). If
    /// some buckets moved before the failure, the directory is left fully
    /// consistent and a create with the *current* assignment is still
    /// recorded, so a shortcut can never legitimize stale slots.
    pub fn compact_full(&mut self) -> Result<CompactionOutcome, IndexError> {
        self.pool.reclaim_retired_pages();
        let slots = self.dir.slot_count();
        let vmas_before = self.layout_vmas()?;
        let n = self.bucket_count;
        let target = self.pool.alloc_run(n)?;
        let mut assignments: Vec<(usize, PageIdx)> = Vec::with_capacity(slots);
        let mut moved = 0usize;
        let mut cursor = 0usize;
        let result: Result<(), IndexError> = loop {
            if cursor >= slots {
                break Ok(());
            }
            match self.move_bucket(cursor, PageIdx(target.0 + moved), &mut assignments) {
                Ok(cover) => {
                    cursor += cover;
                    moved += 1;
                }
                Err(e) => break Err(e),
            }
        };
        match result {
            Ok(()) => {
                debug_assert_eq!(moved, n, "covering ranges must partition the directory");
                let vmas_after = planned_vmas(slots, &assignments);
                self.record(MaintRequest::Create { slots, assignments });
                let outcome = CompactionOutcome {
                    pages_moved: moved,
                    vmas_before,
                    vmas_after,
                };
                self.note_compaction(outcome);
                Ok(outcome)
            }
            Err(e) => {
                // Free the part of the target run no bucket reached.
                if moved < n {
                    let _ = self.pool.free_run(PageIdx(target.0 + moved), n - moved);
                }
                // The moved prefix is live: publish the current (partly
                // compacted) truth so the shortcut rebuild reflects it.
                let _ = self.emit_rebuilt_event();
                Err(e)
            }
        }
    }

    /// Announce the current directory as a full rebuild without moving any
    /// page: records one [`MaintRequest::Create`] carrying the current
    /// assignment. A doubling does, Shortcut-EH's first directory does,
    /// and Shortcut-EH lifts a budget suspension with it once splits have
    /// shrunk the layout's footprint below the budget — the pages are
    /// already well placed, only the mapper needs to hear about it again.
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

    /// The hash the directory addresses with: the key's multiplicative
    /// hash rotated left by [`EhConfig::hash_rot`] (0 unless this index
    /// is a shard — see the field's docs).
    #[inline(always)]
    pub fn dir_hash(&self, key: u64) -> u64 {
        self.dir_hash_of(mult_hash(key))
    }

    /// [`ExtendibleHash::dir_hash`] of the key whose [`mult_hash`] is
    /// `hash`, for callers that already computed it (shard routing).
    #[inline(always)]
    pub(crate) fn dir_hash_of(&self, hash: u64) -> u64 {
        hash.rotate_left(self.cfg.hash_rot)
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
            let b = unsafe { BucketRef::from_ptr(ptr, eh.bucket_layout) };
            let l = b.local_depth();
            assert!(l <= g, "local depth exceeds global at slot {s}");
            // Exactly 2^(g-l) contiguous slots share this bucket, aligned
            // to that power of two.
            let cover = 1usize << (g - l);
            assert_eq!(s / cover, (s / cover * cover) / cover);
            seen.entry(ptr as usize).or_insert_with(Vec::new).push(s);
        }
        for (_, slots) in seen.iter() {
            // Covering slots are contiguous and a power of two long.
            let len = slots.len();
            assert!(len.is_power_of_two(), "cover size {len} not a power of 2");
            assert_eq!(slots[len - 1] - slots[0] + 1, len, "cover not contiguous");
        }
        assert_eq!(seen.len(), eh.bucket_count());
    }

    #[test]
    fn entries_live_in_their_prefix_bucket() {
        let mut eh = small();
        let bucket_at = |eh: &ExtendibleHash, slot: usize| {
            // SAFETY: directory invariant — live bucket page.
            unsafe { BucketRef::from_ptr(eh.dir.get(slot), eh.bucket_layout) }
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
                let g = eh.global_depth();
                let slot = dir_slot(eh.dir_hash(k), g);
                let l = bucket_at(&eh, slot).local_depth();
                for half in [slot, slot ^ (1 << (g - l))] {
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
        let g = eh.global_depth();
        let mut entries = 0;
        let mut s = 0;
        while s < eh.dir_slots() {
            let b = bucket_at(&eh, s);
            let cover = 1usize << (g - b.local_depth());
            b.for_each_entry(|k, _| {
                // The entry's slot must be covered by this bucket.
                let slot = dir_slot(eh.dir_hash(k), g);
                assert_eq!(slot / cover, s / cover, "entry {k} in wrong bucket");
                entries += 1;
            });
            s += cover;
        }
        assert_eq!(entries, model.len(), "a bucket holds a removed entry");
    }

    #[test]
    fn events_track_splits_and_doublings() {
        let mut eh = ExtendibleHash::try_new_tracked(EhConfig::default()).unwrap();
        for k in 0..1_000u64 {
            eh.insert(k, k).unwrap();
        }
        let events = take_events(&mut eh);
        assert!(!events.is_empty());
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
    fn compact_full_sorts_layout_and_keeps_answers() {
        let mut eh = small();
        for k in 0..20_000u64 {
            eh.insert(k, k * 13).unwrap();
        }
        let before = eh.layout_vmas().unwrap();
        let ideal = eh.ideal_layout_vmas();
        // Split-order allocation scatters the layout far from directory
        // order.
        assert!(before > ideal * 4, "layout unexpectedly compact: {before}");

        let out = eh.compact_full().unwrap();
        assert_eq!(out.pages_moved, eh.bucket_count());
        assert_eq!(out.vmas_before, before);
        assert_eq!(out.vmas_after, ideal, "identity layout must hit the ideal");
        assert_eq!(eh.layout_vmas().unwrap(), ideal);
        assert_eq!(eh.stats().compactions, 1);
        assert_eq!(eh.stats().pages_moved as usize, out.pages_moved);

        // Every answer survives the relocation.
        for k in 0..20_000u64 {
            assert_eq!(eh.get(k), Some(k * 13), "key {k}");
        }
        // Sources were retired, and (no readers) a reclaim frees them for
        // reuse — the next pass can reuse the vacated span.
        eh.pool.reclaim_retired_pages();
        assert_eq!(eh.pool.retired_page_count(), 0);
        let pages_before = eh.pool.file_pages();
        eh.compact_full().unwrap();
        assert_eq!(
            eh.pool.file_pages(),
            pages_before,
            "second pass grew the file"
        );
    }

    #[test]
    fn on_rebuild_compaction_keeps_directory_near_identity() {
        let mut eh = ExtendibleHash::try_new_tracked(EhConfig {
            pool: PoolConfig {
                initial_pages: 1,
                min_growth_pages: 8,
                view_capacity_pages: 1 << 16,
                ..PoolConfig::default()
            },
            compaction: shortcut_core::CompactionPolicy::on(),
            ..EhConfig::default()
        })
        .unwrap();
        let n = 20_000u64;
        for k in 0..n {
            // This doubles repeatedly with compaction inside the doubling
            // path — the split that triggered it must re-fetch its bucket
            // through the directory or it would drain the retired copy.
            eh.insert(k, !k).unwrap();
        }
        for k in 0..n {
            assert_eq!(eh.get(k), Some(!k), "key {k}");
        }
        assert!(eh.stats().doublings > 3);
        assert_eq!(eh.stats().compactions, eh.stats().doublings);

        let events = take_events(&mut eh);
        let rebuilds: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                MaintRequest::Create { slots, assignments } => Some((slots, assignments)),
                MaintRequest::Update { .. } => None,
            })
            .collect();
        // One create a doubling: the compacted rebuild, no second one for
        // the doubling itself.
        assert_eq!(rebuilds.len() as u64, eh.stats().doublings);
        // The last rebuild's assignment is a full identity over the
        // directory at that time: sorted slots, monotone pages within
        // each covering run.
        let (slots, assignments) = rebuilds.last().unwrap();
        assert_eq!(assignments.len(), **slots);
        for (i, (s, _)) in assignments.iter().enumerate() {
            assert_eq!(i, *s);
        }
        let distinct: std::collections::BTreeSet<usize> =
            assignments.iter().map(|(_, p)| p.0).collect();
        let min = *distinct.iter().next().unwrap();
        let max = *distinct.iter().next_back().unwrap();
        assert_eq!(
            max - min + 1,
            distinct.len(),
            "compacted pages must be one contiguous run"
        );
        // Layout since the last doubling fragments only by the splits that
        // followed it: each breaks at most 3 boundaries on top of the
        // irreducible fan-in floor (`ideal = slots − buckets + 1`).
        let layout = eh.layout_vmas().unwrap();
        // Every split since added one bucket to those the pass placed.
        let splits_since = eh.bucket_count() - distinct.len();
        let bound = eh.ideal_layout_vmas() + 3 * splits_since;
        assert!(
            layout <= bound,
            "{layout} VMAs > ideal {} + 3×{splits_since} splits",
            eh.ideal_layout_vmas(),
        );
    }

    #[test]
    fn larger_slots_grow_shallower_directories() {
        // Same keys, 16 KB slots: ~4x the bucket capacity must produce a
        // directory at least two levels shallower than the 4 KB run, with
        // every answer intact.
        let build = |k: u32| {
            ExtendibleHash::try_new(EhConfig {
                pool: PoolConfig {
                    initial_pages: 1,
                    min_growth_pages: 8,
                    view_capacity_pages: 1 << 16,
                    slot_layout: SlotLayout::new(k).unwrap(),
                    ..PoolConfig::default()
                },
                ..EhConfig::default()
            })
            .unwrap()
        };
        let n = 30_000u64;
        let mut base = build(0);
        let mut big = build(2);
        assert!(big.bucket_layout().capacity() > 4 * base.bucket_layout().capacity() - 64);
        for k in 0..n {
            base.insert(k, k ^ 42).unwrap();
            big.insert(k, k ^ 42).unwrap();
        }
        for k in 0..n {
            assert_eq!(big.get(k), Some(k ^ 42), "key {k}");
        }
        assert!(
            big.global_depth() + 2 <= base.global_depth(),
            "16 KB slots: depth {} vs {} at 4 KB",
            big.global_depth(),
            base.global_depth()
        );
        assert!(big.stats().splits * 3 < base.stats().splits);
        // The layout estimates stay slot-denominated: compacting a k=2
        // index hits the same `slots − buckets + 1` closed form.
        let out = big.compact_full().unwrap();
        assert_eq!(out.vmas_after, big.ideal_layout_vmas());
        for k in 0..n {
            assert_eq!(big.get(k), Some(k ^ 42), "post-compaction key {k}");
        }
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
    /// split. At the 4 KB layout's entry limit, at a 512 B bucket's, and
    /// at three entries, where one split in eight takes a second round.
    #[test]
    fn fast_and_slow_paths_match_a_model() {
        let limit_of = |layout: BucketLayout| (layout.capacity() as f64 * 0.35) as usize;
        let limits = [BucketLayout::for_bytes(512), BucketLayout::base()].map(limit_of);
        for limit in [3, limits[0], limits[1]] {
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
