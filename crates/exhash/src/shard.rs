//! Hash-partitioned sharding over [`ShortcutEh`].
//!
//! [`ShardedIndex`] owns `N = 2^s` independent Shortcut-EH shards — each
//! with its own page pool, mapper thread, retirement list, and compaction
//! policy — and routes every key by the **top `s` bits** of its
//! multiplicative hash ([`mult_hash`]). Each shard's directory then hashes
//! with the rotation `hash_rot = s` ([`crate::EhConfig::hash_rot`]), so it
//! consumes the *next* bits down and keeps exactly the depth semantics of
//! a standalone index: an `s`-bit route plus a depth-`g` shard directory
//! addresses the same `s + g` hash bits a single depth-`(s + g)` directory
//! would, without every shard burning `s` constant levels.
//!
//! Two write disciplines coexist:
//!
//! * **Exclusive** — [`ShardedIndex`] implements [`Index`], with writes
//!   through `&mut self` exactly like a single shard. No lock is touched:
//!   the borrow already excludes every reader.
//! * **Shared** — [`ShardedIndex::insert_shared`] /
//!   [`ShardedIndex::remove_shared`] / [`ShardedIndex::insert_batch_shared`]
//!   take `&self` and a per-shard **write lock**, so one writer thread per
//!   shard can run concurrently with each other and with any number of
//!   readers. A single shard's writes are still serialized (Shortcut-EH is
//!   single-writer by construction); the sharding is what buys write
//!   parallelism.
//!
//! Readers ([`Index::get`] / [`Index::get_many`]) enter a shard through a
//! **biased read section** ([`shortcut_rewire::ReadBias`]): until a shared
//! writer shows up they publish the reader pin the shortcut read needs
//! anyway, load the shard's bias word and proceed — no atomic RMW, no
//! shared line written. The first shared writer revokes the bias and
//! waits for those readers; readers then take the lock's read side until
//! [`shortcut_rewire::REARM_AFTER`] of them in a row met no writer.
//!
//! Shards opted into the same [`shortcut_rewire::VmaBudget`] should set
//! [`shortcut_rewire::PoolConfig::fair_share`] (the constructor here does
//! it automatically for `s > 0`): each shard may then exceed its even
//! share of the budget only while every sibling's unfilled share stays
//! spare, so one hot shard's deep directory can never suspend the others'
//! rebuilds.

use crate::eh::CompactionOutcome;
use crate::error::IndexError;
use crate::hash::{dir_slot, mult_hash};
use crate::route::{route, route_all};
use crate::shortcut_eh::{ShortcutEh, ShortcutEhConfig};
use crate::stats::IndexStats;
use crate::traits::Index;
use parking_lot::RwLock;
use shortcut_core::SharedDirectoryState;
use shortcut_rewire::{ReadBias, ReaderPin, RetireList};
use std::cell::UnsafeCell;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Hard cap on `shard_bits`: 2^8 = 256 shards is already far past any
/// plausible core count, and each shard costs a mapper thread + pool.
pub const MAX_SHARD_BITS: u32 = 8;

/// One shard behind its biased reader-writer section (module docs). The
/// bias word and the two handles a lookup follows lead the struct, on one
/// line: the fast path reads nothing else of the shard, and forms no
/// reference into `eh` before it is inside the section.
#[repr(C)]
struct Shard {
    bias: ReadBias,
    /// `eh`'s read descriptor ([`ShortcutEh::state_arc`]).
    desc: Arc<SharedDirectoryState>,
    /// `eh`'s retire list, whose pins the bias reads.
    pins: Arc<RetireList>,
    /// The writers' lock, and the readers' while the bias is revoked.
    lock: RwLock<()>,
    eh: UnsafeCell<ShortcutEh>,
}

// SAFETY: `eh` is reached through `&self` only inside the section
// `lock` + `bias` implement: shared references under a pin that saw the
// bias armed or under the read lock, the exclusive one under the write
// lock after the bias is revoked and its readers have drained (`write`);
// `&mut self` callers use `eh.get_mut()` (`shard_for_mut`: the cell's
// pointer), the borrow excluding every reader.
// `ShortcutEh` is `Send + Sync`; the other fields are `Sync`.
unsafe impl Sync for Shard {}

impl Shard {
    fn new(eh: ShortcutEh) -> Self {
        Shard {
            bias: ReadBias::default(),
            desc: eh.state_arc(),
            pins: Arc::clone(eh.retire_list()),
            lock: RwLock::new(()),
            eh: UnsafeCell::new(eh),
        }
    }

    /// One lookup from the key's [`mult_hash`], in a read section of its
    /// own whose pin is also the shortcut read's. The shape `xtask
    /// hotpath` holds: a pin on an exclusive slot that saw the bias armed
    /// runs straight through the inlined lookup; every other way in — a
    /// shared stripe, a revoked bias — is one call to
    /// [`Shard::get_slow`], pin handed over by value.
    #[inline]
    fn get(&self, key: u64, hash: u64) -> Option<u64> {
        match self.bias.try_enter(&self.pins) {
            Some(pin) if pin.is_exclusive() => {
                // SAFETY: the pin saw the bias armed, so a writer cannot
                // pass `write`'s drain before `get_pinned` drops it.
                unsafe { &*self.eh.get() }.get_pinned(&self.desc, key, hash, pin)
            }
            biased => self.get_slow(key, hash, biased),
        }
    }

    /// [`Shard::get`] with an RMW pin (`biased`), or on the lock when the
    /// bias is revoked (`None`).
    #[cold]
    #[inline(never)]
    fn get_slow(&self, key: u64, hash: u64, biased: Option<ReaderPin<'_>>) -> Option<u64> {
        let _shared;
        let pin = match biased {
            Some(pin) => pin,
            None => {
                _shared = self.lock.read();
                self.bias.note_locked_read();
                self.pins.pin()
            }
        };
        // SAFETY: the pin saw the bias armed (see `get`), or the read lock
        // excludes `write`.
        unsafe { &*self.eh.get() }.get_pinned(&self.desc, key, hash, pin)
    }

    /// The batched lookups' read section: `f` gets the shard and a pin on
    /// its retire list, live for the whole call. Short reads only — the
    /// pin holds back directory reclamation and any shared writer.
    #[inline]
    fn read<R>(&self, f: impl FnOnce(&ShortcutEh, &ReaderPin<'_>) -> R) -> R {
        match self.bias.try_enter(&self.pins) {
            // SAFETY: the pin saw the bias armed, so a writer cannot pass
            // `write`'s drain before the pin drops at the end of `f`.
            Some(pin) => f(unsafe { &*self.eh.get() }, &pin),
            None => self.read_on_lock(f),
        }
    }

    /// [`Shard::read`] while the bias is revoked. Out of line, so the
    /// biased path stays a leaf around the inlined lookup.
    #[cold]
    #[inline(never)]
    fn read_on_lock<R>(&self, f: impl FnOnce(&ShortcutEh, &ReaderPin<'_>) -> R) -> R {
        let _shared = self.lock.read();
        self.bias.note_locked_read();
        let pin = self.pins.pin();
        // SAFETY: the read lock excludes `write`.
        f(unsafe { &*self.eh.get() }, &pin)
    }

    /// Shared access under the read lock and no pin, for callers that may
    /// block or run long (statistics, `wait_sync`, arbitrary closures).
    fn read_locked<R>(&self, f: impl FnOnce(&ShortcutEh) -> R) -> R {
        let _shared = self.lock.read();
        // SAFETY: the read lock excludes `write`.
        f(unsafe { &*self.eh.get() })
    }

    /// The shared writers' section.
    fn write<R>(&self, f: impl FnOnce(&mut ShortcutEh) -> R) -> R {
        let _exclusive = self.lock.write();
        while !self.bias.try_revoke(|| self.pins.readers_quiesced()) {
            std::thread::yield_now();
        }
        // SAFETY: the write lock excludes writers and locked readers, and
        // the revoked bias has drained: no reader that entered on it is
        // left, and new ones see it cleared and wait for the lock.
        f(unsafe { &mut *self.eh.get() })
    }
}

/// `N = 2^s` Shortcut-EH shards routed by the top `s` hash bits. See the
/// module docs for the routing scheme and the two write disciplines.
pub struct ShardedIndex {
    /// `s`: number of top hash bits consumed by routing.
    bits: u32,
    /// The shards, in routing order (`shards[i]` serves route value `i`).
    shards: Vec<Shard>,
}

impl ShardedIndex {
    /// Build `2^bits` shards, deriving each shard's configuration from
    /// `base` by renaming its pool memfd (`<name>-s<i>`). The routing
    /// rotation (`eh.hash_rot = bits`) and — for `bits > 0` — fair-share
    /// budget admission (`eh.pool.fair_share`) are forced on every shard;
    /// see [`ShardedIndex::try_new_with`] for per-shard control over the
    /// rest of the configuration.
    ///
    /// # Errors
    ///
    /// Propagates shard construction failures ([`IndexError::Pool`] and
    /// friends); already-built shards are dropped cleanly.
    pub fn try_new(bits: u32, base: ShortcutEhConfig) -> Result<Self, IndexError> {
        Self::try_new_with(bits, |i| {
            let mut cfg = base.clone();
            if bits > 0 {
                cfg.eh.pool.name = format!("{}-s{i}", cfg.eh.pool.name);
            }
            cfg
        })
    }

    /// Build `2^bits` shards, calling `make_cfg(i)` for shard `i`'s
    /// configuration. Two fields are overridden on every shard because
    /// they are correctness-critical for the sharded layout:
    ///
    /// * `eh.hash_rot = bits` — the shard directory must consume the hash
    ///   bits *below* the routing bits (see the module docs).
    /// * `eh.pool.fair_share = (bits > 0)` — shards sharing a
    ///   [`shortcut_rewire::VmaBudget`] get fair-share admission so one
    ///   shard cannot starve its siblings; with a single shard the knob
    ///   is forced off and behavior is bit-identical to a bare
    ///   [`ShortcutEh`].
    ///
    /// # Panics
    ///
    /// Panics if `bits > `[`MAX_SHARD_BITS`].
    ///
    /// # Errors
    ///
    /// Propagates shard construction failures; already-built shards are
    /// dropped cleanly.
    pub fn try_new_with(
        bits: u32,
        mut make_cfg: impl FnMut(usize) -> ShortcutEhConfig,
    ) -> Result<Self, IndexError> {
        assert!(
            bits <= MAX_SHARD_BITS,
            "shard_bits {bits} exceeds the cap of {MAX_SHARD_BITS} (2^{MAX_SHARD_BITS} shards)"
        );
        let n = 1usize << bits;
        let mut shards = Vec::with_capacity(n);
        for i in 0..n {
            let mut cfg = make_cfg(i);
            cfg.eh.hash_rot = bits;
            cfg.eh.pool.fair_share = bits > 0;
            shards.push(Shard::new(ShortcutEh::try_new(cfg)?));
        }
        Ok(ShardedIndex { bits, shards })
    }

    /// `s`: the number of top hash bits consumed by routing.
    #[inline]
    pub fn shard_bits(&self) -> u32 {
        self.bits
    }

    /// `2^s`: the number of shards.
    #[inline]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard index `key` routes to: the top `s` bits of its
    /// multiplicative hash (0 when unsharded).
    #[inline]
    pub fn shard_of(&self, key: u64) -> usize {
        dir_slot(mult_hash(key), self.bits)
    }

    /// The shard a key routes to, from its [`mult_hash`] — which the
    /// shard then probes with, so every single-key entry point hashes once.
    #[inline]
    fn shard_for(&self, hash: u64) -> &Shard {
        match self.bits {
            // Unsharded: no route shift, no stride multiply, no bounds check.
            // SAFETY: `try_new_with` builds `1 << bits >= 1` shards and
            // nothing removes one.
            0 => unsafe { self.shards.get_unchecked(0) },
            bits => &self.shards[dir_slot(hash, bits)],
        }
    }

    /// [`ShardedIndex::shard_for`] for the exclusive write discipline.
    #[inline]
    fn shard_for_mut(&mut self, hash: u64) -> &mut ShortcutEh {
        // SAFETY: `&mut self` excludes every reader and writer of every
        // shard, for as long as the returned borrow lives.
        unsafe { &mut *self.shard_for(hash).eh.get() }
    }

    /// Run `f` against shard `i` under a **read** lock (per-shard stats,
    /// layout inspection, read-only probes).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.shard_count()`.
    pub fn with_shard<R>(&self, i: usize, f: impl FnOnce(&ShortcutEh) -> R) -> R {
        self.shards[i].read_locked(f)
    }

    /// Run `f` against shard `i` under a **write** lock (shared-writer
    /// maintenance such as per-shard [`ShortcutEh::compact`]).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.shard_count()`.
    pub fn with_shard_mut<R>(&self, i: usize, f: impl FnOnce(&mut ShortcutEh) -> R) -> R {
        self.shards[i].write(f)
    }

    /// `(revocations, rearms)` of shard `i`'s read bias: how often a
    /// shared writer sent its readers to the lock, and how often a
    /// writer-free run of reads took them off it again (revocations ahead
    /// means they are on the lock now). Panics if `i >= shard_count()`.
    pub fn bias_counters(&self, i: usize) -> (u64, u64) {
        self.shards[i].bias.counters()
    }

    // ------------------------------------------------------------------
    // Shared-write discipline: `&self` + per-shard write locks. One
    // writer thread per shard runs fully in parallel; readers use the
    // `Index` read path ([`Index::get`] / [`Index::get_many`] take
    // `&self` and the shard's biased read section).
    // ------------------------------------------------------------------

    /// Insert through a per-shard write lock (shared-writer discipline:
    /// safe from many threads; writes to *different* shards proceed in
    /// parallel, writes to the same shard serialize on its lock).
    ///
    /// # Errors
    ///
    /// Same contract as [`Index::insert`].
    pub fn insert_shared(&self, key: u64, value: u64) -> Result<(), IndexError> {
        let hash = mult_hash(key);
        self.shard_for(hash)
            .write(|s| s.insert_hashed(key, value, hash))
    }

    /// Remove through a per-shard write lock. See [`ShardedIndex::insert_shared`].
    ///
    /// # Errors
    ///
    /// Same contract as [`Index::remove`].
    pub fn remove_shared(&self, key: u64) -> Result<Option<u64>, IndexError> {
        let hash = mult_hash(key);
        self.shard_for(hash)
            .write(|s| Ok(s.remove_hashed(key, hash)))
    }

    /// Batched insert through per-shard write locks: each window of 4096
    /// entries of the batch is split by shard, preserving relative
    /// order within a shard, and a shard's share is applied under one
    /// write-lock acquisition and one relay to its mapper.
    ///
    /// # Errors
    ///
    /// Propagates the first failing shard's error. What was applied before
    /// the failure — earlier windows, earlier shards of the failing
    /// window, the failing shard's prefix — stays applied and readable:
    /// the contract of [`Index::insert_batch`], per shard.
    pub fn insert_batch_shared(&self, entries: &[(u64, u64)]) -> Result<(), IndexError> {
        route(self.bits, entries, |i, window, hashes, positions| {
            self.shards[i].write(|s| s.insert_chunk(&entries[window], hashes, positions))
        })
    }

    /// Batched lookup into a caller-owned buffer: `out` is resized to
    /// `keys.len()` and `out[i]` answers `keys[i]`. Each window of the
    /// batch is split by shard and a shard's share is answered inside the
    /// read section [`Index::get`] enters — one pin, one serving word —
    /// straight into its places in `out`. Allocates nothing once `out`
    /// has the capacity.
    pub fn get_many_into(&self, keys: &[u64], out: &mut Vec<Option<u64>>) {
        out.clear();
        out.resize(keys.len(), None);
        route_all(self.bits, keys, |i, window, hashes, positions| {
            let (keys, out) = (&keys[window.clone()], &mut out[window]);
            self.shards[i].read(|s, pin| s.get_chunk(keys, hashes, positions, pin, out));
        });
    }

    /// Batched remove through per-shard write locks; answers in caller
    /// order (`out[i]` answers `keys[i]`, as in [`Index::remove_batch`]).
    /// Allocating wrapper of [`ShardedIndex::remove_batch_shared_into`].
    ///
    /// # Errors
    ///
    /// None today: removals touch bucket contents only. Fallible per the
    /// [`Index`] write contract.
    pub fn remove_batch_shared(&self, keys: &[u64]) -> Result<Vec<Option<u64>>, IndexError> {
        let mut out = Vec::with_capacity(keys.len());
        self.remove_batch_shared_into(keys, &mut out)?;
        Ok(out)
    }

    /// [`ShardedIndex::remove_batch_shared`] into a caller-owned buffer,
    /// windowed and split like [`ShardedIndex::insert_batch_shared`].
    ///
    /// # Errors
    ///
    /// As [`ShardedIndex::remove_batch_shared`].
    pub fn remove_batch_shared_into(
        &self,
        keys: &[u64],
        out: &mut Vec<Option<u64>>,
    ) -> Result<(), IndexError> {
        out.clear();
        out.resize(keys.len(), None);
        route_all(self.bits, keys, |i, window, hashes, positions| {
            let (keys, out) = (&keys[window.clone()], &mut out[window]);
            self.shards[i].write(|s| s.remove_chunk(keys, hashes, positions, out));
        });
        Ok(())
    }

    // ------------------------------------------------------------------
    // Aggregated observability: every accessor folds the per-shard value
    // with the documented `merge()` semantics (counters sum, gauges take
    // the honest extreme). Use [`ShardedIndex::with_shard`] for the
    // per-shard breakdown.
    // ------------------------------------------------------------------

    /// Fold `f(shard)` over all shards under read locks.
    fn fold<T>(&self, mut f: impl FnMut(&ShortcutEh) -> T, merge: impl Fn(T, T) -> T) -> T {
        let mut acc: Option<T> = None;
        for s in &self.shards {
            let v = s.read_locked(&mut f);
            acc = Some(match acc {
                None => v,
                Some(a) => merge(a, v),
            });
        }
        acc.expect("at least one shard")
    }

    /// Aggregated structural counters ([`IndexStats::merge`]: all summed).
    pub fn stats(&self) -> IndexStats {
        self.fold(|s| s.stats(), |a, b| a.merge(&b))
    }

    /// Aggregated mapper counters ([`shortcut_core::metrics::MaintSnapshot::merge`]:
    /// counters summed, `coarse_service_pct` takes the worst shard).
    pub fn maint_metrics(&self) -> shortcut_core::metrics::MaintSnapshot {
        self.fold(|s| s.maint_metrics(), |a, b| a.merge(&b))
    }

    /// Aggregated pool/rewiring counters ([`shortcut_rewire::StatsSnapshot::merge`]:
    /// all summed).
    pub fn pool_stats(&self) -> shortcut_rewire::StatsSnapshot {
        self.fold(|s| s.pool_stats(), |a, b| a.merge(&b))
    }

    /// Aggregated VMA accounting ([`shortcut_rewire::VmaSnapshot::merge`]:
    /// per-pool attribution and retirement counters summed; the shared
    /// budget gauges — `in_use`, `limit`, fair-share fields — take the
    /// max so a budget shared by all shards is not double-counted).
    pub fn vma_stats(&self) -> shortcut_rewire::VmaSnapshot {
        self.fold(|s| s.vma_stats(), |a, b| a.merge(&b))
    }

    /// Summed `(traditional, published)` version counters across shards:
    /// a monotone progress pair whose equality still means "every shard's
    /// shortcut has caught up" (per-shard published never exceeds
    /// traditional).
    pub fn versions(&self) -> (u64, u64) {
        self.fold(|s| s.versions(), |a, b| (a.0 + b.0, a.1 + b.1))
    }

    /// Whether **every** shard's shortcut directory is in sync.
    pub fn in_sync(&self) -> bool {
        self.fold(|s| s.in_sync(), |a, b| a && b)
    }

    /// Block until every shard's shortcut is in sync or `timeout`
    /// elapses; `true` when all shards synced. The timeout is a shared
    /// deadline, not per shard.
    pub fn wait_sync(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        for s in &self.shards {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if !s.read_locked(|s| s.wait_sync(remaining)) {
                return false;
            }
        }
        true
    }

    /// Whether **any** shard's maintenance is suspended by the VMA budget
    /// (with fair-share admission, a suspended shard implicates only its
    /// own footprint — see the module docs).
    pub fn shortcut_suspended(&self) -> bool {
        self.fold(|s| s.shortcut_suspended(), |a, b| a || b)
    }

    /// First maintenance error observed across shards, if any.
    pub fn maint_error(&self) -> Option<IndexError> {
        self.fold(|s| s.maint_error(), |a, b| a.or(b))
    }

    /// Maximum global depth across shards (the deepest shard directory).
    pub fn global_depth(&self) -> u32 {
        self.fold(|s| s.global_depth(), |a, b| a.max(b))
    }

    /// Total bucket count across shards.
    pub fn bucket_count(&self) -> usize {
        self.fold(|s| s.bucket_count(), |a, b| a + b)
    }

    /// Entry-weighted average directory fan-in: total directory slots
    /// over total buckets — the same quantity a single directory of the
    /// combined population would report, not a naive mean of per-shard
    /// averages.
    pub fn avg_fanin(&self) -> f64 {
        let (slots, buckets) = self.fold(
            |s| (s.avg_fanin() * s.bucket_count() as f64, s.bucket_count()),
            |a, b| (a.0 + b.0, a.1 + b.1),
        );
        if buckets == 0 {
            0.0
        } else {
            slots / buckets as f64
        }
    }

    /// Compact every shard's bucket layout (exclusive discipline), summing
    /// the per-shard outcomes.
    ///
    /// # Errors
    ///
    /// Propagates the first failing shard's error; earlier shards keep
    /// their completed passes.
    pub fn compact(&mut self) -> Result<CompactionOutcome, IndexError> {
        let mut total = CompactionOutcome {
            pages_moved: 0,
            vmas_before: 0,
            vmas_after: 0,
        };
        for s in &mut self.shards {
            let o = s.eh.get_mut().compact()?;
            total.pages_moved += o.pages_moved;
            total.vmas_before += o.vmas_before;
            total.vmas_after += o.vmas_after;
        }
        Ok(total)
    }

    /// Summed planned-VMA estimate of every shard's current layout.
    ///
    /// # Errors
    ///
    /// Propagates the first shard's estimation failure.
    pub fn layout_vmas(&self) -> Result<usize, IndexError> {
        let mut total = 0;
        for s in &self.shards {
            total += s.read_locked(|s| s.layout_vmas())?;
        }
        Ok(total)
    }

    /// Summed ideal (post-compaction) planned-VMA estimate.
    pub fn ideal_layout_vmas(&self) -> usize {
        self.fold(|s| s.ideal_layout_vmas(), |a, b| a + b)
    }

    /// Whether any shard's pool requested hugepage backing.
    pub fn huge_requested(&self) -> bool {
        self.fold(|s| s.huge_requested(), |a, b| a || b)
    }

    /// Whether **every** shard's pool actually runs on hugepages (the
    /// conservative aggregate: mixed backing reports `false`).
    pub fn huge_active(&self) -> bool {
        self.fold(|s| s.huge_active(), |a, b| a && b)
    }

    /// Shard 0's physical slot layout (identical across shards when built
    /// via [`ShardedIndex::try_new`]; with `try_new_with` and divergent
    /// per-shard layouts, inspect shards individually).
    pub fn slot_layout(&self) -> shortcut_rewire::SlotLayout {
        self.shards[0].read_locked(|s| s.slot_layout())
    }

    /// Shard 0's bucket geometry (see [`ShardedIndex::slot_layout`] for
    /// the homogeneity caveat).
    pub fn bucket_layout(&self) -> crate::bucket::BucketLayout {
        self.shards[0].read_locked(|s| s.bucket_layout())
    }
}

impl std::fmt::Debug for ShardedIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedIndex")
            .field("bits", &self.bits)
            .field("shards", &self.shards.len())
            .finish_non_exhaustive()
    }
}

impl Index for ShardedIndex {
    #[inline]
    fn insert(&mut self, key: u64, value: u64) -> Result<(), IndexError> {
        let hash = mult_hash(key);
        self.shard_for_mut(hash).insert_hashed(key, value, hash)
    }

    /// One hash routes and probes: the shard gets the hash it was chosen
    /// by, and the section's pin is the shortcut read's pin.
    #[inline]
    fn get(&self, key: u64) -> Option<u64> {
        let hash = mult_hash(key);
        self.shard_for(hash).get(key, hash)
    }

    #[inline]
    fn remove(&mut self, key: u64) -> Result<Option<u64>, IndexError> {
        let hash = mult_hash(key);
        Ok(self.shard_for_mut(hash).remove_hashed(key, hash))
    }

    fn len(&self) -> usize {
        self.fold(|s| s.len(), |a, b| a + b)
    }

    fn name(&self) -> &'static str {
        if self.bits == 0 {
            "Shortcut-EH"
        } else {
            "Sharded-Shortcut-EH"
        }
    }

    /// Allocating wrapper of [`ShardedIndex::get_many_into`].
    fn get_many(&self, keys: &[u64]) -> Vec<Option<u64>> {
        let mut out = Vec::with_capacity(keys.len());
        self.get_many_into(keys, &mut out);
        out
    }

    /// [`ShardedIndex::insert_batch_shared`] without the locks: the
    /// exclusive borrow already excludes every reader and writer.
    ///
    /// # Errors
    ///
    /// As [`ShardedIndex::insert_batch_shared`].
    fn insert_batch(&mut self, entries: &[(u64, u64)]) -> Result<(), IndexError> {
        route(self.bits, entries, |i, window, hashes, positions| {
            let shard = self.shards[i].eh.get_mut();
            shard.insert_chunk(&entries[window], hashes, positions)
        })
    }

    /// [`ShardedIndex::remove_batch_shared`] without the locks.
    ///
    /// # Errors
    ///
    /// As [`ShardedIndex::remove_batch_shared`].
    fn remove_batch(&mut self, keys: &[u64]) -> Result<Vec<Option<u64>>, IndexError> {
        let mut out = vec![None; keys.len()];
        route_all(self.bits, keys, |i, window, hashes, positions| {
            let (keys, out) = (&keys[window.clone()], &mut out[window]);
            let shard = self.shards[i].eh.get_mut();
            shard.remove_chunk(keys, hashes, positions, out);
        });
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eh::EhConfig;
    use shortcut_core::MaintConfig;
    use shortcut_rewire::PoolConfig;
    use std::sync::Arc;

    fn fast_cfg() -> ShortcutEhConfig {
        ShortcutEhConfig {
            eh: EhConfig {
                pool: PoolConfig {
                    name: "shard-test".into(),
                    initial_pages: 1,
                    min_growth_pages: 16,
                    view_capacity_pages: 1 << 16,
                    vma_budget: Some(shortcut_rewire::VmaBudget::with_limit(1_000_000)),
                    ..PoolConfig::default()
                },
                ..EhConfig::default()
            },
            maint: MaintConfig {
                poll_interval: Duration::from_millis(1),
                ..MaintConfig::default()
            },
            policy: Default::default(),
        }
    }

    fn val(k: u64) -> u64 {
        k.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xA5A5
    }

    #[test]
    fn unsharded_is_a_single_shard_and_routes_everything_to_it() {
        let mut t = ShardedIndex::try_new(0, fast_cfg()).unwrap();
        assert_eq!(t.shard_count(), 1);
        assert_eq!(t.name(), "Shortcut-EH");
        for k in 0..2_000u64 {
            assert_eq!(t.shard_of(k), 0);
            t.insert(k, val(k)).unwrap();
        }
        assert_eq!(t.len(), 2_000);
        for k in 0..2_000u64 {
            assert_eq!(t.get(k), Some(val(k)), "key {k}");
        }
        assert!(t.maint_error().is_none());
    }

    #[test]
    fn unsharded_matches_a_bare_shortcut_eh() {
        // N = 1 must behave identically to ShortcutEh: same answers, same
        // routing hash (hash_rot = 0 leaves dir_hash == mult_hash).
        let mut sharded = ShardedIndex::try_new(0, fast_cfg()).unwrap();
        let mut bare = ShortcutEh::try_new(fast_cfg()).unwrap();
        for k in 0..5_000u64 {
            sharded.insert(k, val(k)).unwrap();
            bare.insert(k, val(k)).unwrap();
        }
        assert_eq!(sharded.len(), bare.len());
        assert_eq!(sharded.global_depth(), bare.global_depth());
        assert_eq!(sharded.bucket_count(), bare.bucket_count());
        for k in (0..6_000u64).step_by(7) {
            assert_eq!(sharded.get(k), bare.get(k), "key {k}");
        }
    }

    #[test]
    fn routing_spreads_keys_over_all_shards() {
        let mut t = ShardedIndex::try_new(2, fast_cfg()).unwrap();
        for k in 0..4_000u64 {
            t.insert(k, val(k)).unwrap();
        }
        assert_eq!(t.len(), 4_000);
        for i in 0..t.shard_count() {
            let n = t.with_shard(i, |s| s.len());
            assert!(n > 500, "shard {i} got only {n} of 4000 keys");
        }
        for k in 0..4_000u64 {
            assert_eq!(t.get(k), Some(val(k)), "key {k}");
        }
        assert_eq!(t.get(999_999), None);
        assert!(t.maint_error().is_none());
    }

    #[test]
    fn removals_route_to_the_owning_shard() {
        let mut t = ShardedIndex::try_new(2, fast_cfg()).unwrap();
        for k in 0..1_000u64 {
            t.insert(k, val(k)).unwrap();
        }
        for k in (0..1_000u64).step_by(3) {
            assert_eq!(t.remove(k).unwrap(), Some(val(k)), "key {k}");
        }
        for k in 0..1_000u64 {
            let expect = if k % 3 == 0 { None } else { Some(val(k)) };
            assert_eq!(t.get(k), expect, "key {k}");
        }
        assert_eq!(t.remove(424_242).unwrap(), None);
    }

    #[test]
    fn get_many_reassembles_in_caller_order() {
        let mut t = ShardedIndex::try_new(2, fast_cfg()).unwrap();
        for k in 0..8_000u64 {
            t.insert(k, val(k)).unwrap();
        }
        // Mix hits and misses in an order that interleaves shards.
        let keys: Vec<u64> = (0..10_000u64).rev().step_by(3).collect();
        let got = t.get_many(&keys);
        assert_eq!(got.len(), keys.len());
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(got[i], t.get(k), "key {k} at position {i}");
        }
    }

    #[test]
    fn insert_batch_scatters_and_everything_reads_back() {
        let mut t = ShardedIndex::try_new(2, fast_cfg()).unwrap();
        let entries: Vec<(u64, u64)> = (0..6_000u64).map(|k| (k, val(k))).collect();
        t.insert_batch(&entries).unwrap();
        assert_eq!(t.len(), entries.len());
        for &(k, v) in &entries {
            assert_eq!(t.get(k), Some(v), "key {k}");
        }
    }

    #[test]
    fn sharded_lookups_sync_and_use_the_shortcut() {
        let mut t = ShardedIndex::try_new(2, fast_cfg()).unwrap();
        for k in 0..20_000u64 {
            t.insert(k, k + 3).unwrap();
        }
        assert!(t.wait_sync(Duration::from_secs(10)), "never synced");
        assert!(t.in_sync());
        let (tv, sv) = t.versions();
        assert_eq!(tv, sv);
        for k in 0..20_000u64 {
            assert_eq!(t.get(k), Some(k + 3), "key {k}");
        }
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
    fn shared_writers_one_per_shard_with_concurrent_readers() {
        let t = Arc::new(ShardedIndex::try_new(2, fast_cfg()).unwrap());
        let per_shard = 3_000u64;
        let keys: Vec<Vec<u64>> = {
            // Pre-partition keys so each writer thread owns one shard.
            let mut groups: Vec<Vec<u64>> = vec![Vec::new(); t.shard_count()];
            let mut k = 0u64;
            while groups.iter().any(|g| (g.len() as u64) < per_shard) {
                let s = t.shard_of(k);
                if (groups[s].len() as u64) < per_shard {
                    groups[s].push(k);
                }
                k += 1;
            }
            groups
        };
        std::thread::scope(|scope| {
            for group in &keys {
                let t = Arc::clone(&t);
                scope.spawn(move || {
                    for &k in group {
                        t.insert_shared(k, val(k)).unwrap();
                    }
                });
            }
            for r in 0..4 {
                let t = Arc::clone(&t);
                let keys = &keys;
                scope.spawn(move || {
                    // Readers race the writers: any answer must be absent
                    // or the correct value, never garbage.
                    for pass in 0..3 {
                        for group in keys {
                            for &k in group.iter().skip((r + pass) % 4).step_by(17) {
                                if let Some(v) = t.get(k) {
                                    assert_eq!(v, val(k), "key {k}");
                                }
                            }
                        }
                    }
                });
            }
        });
        assert_eq!(t.len(), keys.iter().map(Vec::len).sum::<usize>());
        for group in &keys {
            for &k in group {
                assert_eq!(t.get(k), Some(val(k)), "key {k}");
            }
        }
        assert!(t.maint_error().is_none());
    }

    #[test]
    fn insert_batch_shared_takes_one_lock_per_shard() {
        let t = ShardedIndex::try_new(1, fast_cfg()).unwrap();
        let entries: Vec<(u64, u64)> = (0..4_000u64).map(|k| (k, val(k))).collect();
        t.insert_batch_shared(&entries).unwrap();
        for &(k, v) in &entries {
            assert_eq!(t.get(k), Some(v), "key {k}");
        }
        assert_eq!(t.len(), entries.len());
    }

    #[test]
    fn remove_batch_scatters_and_reassembles_in_caller_order() {
        let mut t = ShardedIndex::try_new(2, fast_cfg()).unwrap();
        for k in 0..3_000u64 {
            t.insert(k, val(k)).unwrap();
        }
        // Hits, misses, and an in-batch duplicate (second occurrence must
        // see None, like sequential removes).
        let keys: Vec<u64> = vec![7, 999_999, 2_500, 7, 42];
        let got = t.remove_batch(&keys).unwrap();
        assert_eq!(
            got,
            vec![Some(val(7)), None, Some(val(2_500)), None, Some(val(42))]
        );
        assert_eq!(t.len(), 3_000 - 3);
        assert_eq!(t.get(7), None);
        assert_eq!(t.get(2_500), None);
        assert_eq!(t.get(8), Some(val(8)), "untouched key survives");
    }

    #[test]
    fn remove_batch_shared_matches_sequential_removes() {
        let t = ShardedIndex::try_new(2, fast_cfg()).unwrap();
        for k in 0..2_000u64 {
            t.insert_shared(k, val(k)).unwrap();
        }
        let keys: Vec<u64> = (0..2_500u64).step_by(3).collect();
        let got = t.remove_batch_shared(&keys).unwrap();
        for (i, &k) in keys.iter().enumerate() {
            let expect = if k < 2_000 { Some(val(k)) } else { None };
            assert_eq!(got[i], expect, "key {k} at position {i}");
        }
        assert_eq!(t.len(), 2_000 - keys.iter().filter(|&&k| k < 2_000).count());
        // Shared writers, one per shard, removing disjoint groups in
        // parallel must leave exactly the untouched keys behind.
        let survivors: Vec<u64> = (0..2_000u64).filter(|k| k % 3 != 0).collect();
        std::thread::scope(|scope| {
            for i in 0..t.shard_count() {
                let t = &t;
                let group: Vec<u64> = survivors
                    .iter()
                    .copied()
                    .filter(|&k| t.shard_of(k) == i)
                    .collect();
                scope.spawn(move || {
                    let got = t.remove_batch_shared(&group).unwrap();
                    for (j, &k) in group.iter().enumerate() {
                        assert_eq!(got[j], Some(val(k)), "key {k}");
                    }
                });
            }
        });
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn aggregates_fold_across_shards() {
        let mut t = ShardedIndex::try_new(2, fast_cfg()).unwrap();
        for k in 0..10_000u64 {
            t.insert(k, val(k)).unwrap();
        }
        assert!(t.wait_sync(Duration::from_secs(10)));
        let buckets: usize = (0..4).map(|i| t.with_shard(i, |s| s.bucket_count())).sum();
        assert_eq!(t.bucket_count(), buckets);
        let depth_max = (0..4)
            .map(|i| t.with_shard(i, |s| s.global_depth()))
            .max()
            .unwrap();
        assert_eq!(t.global_depth(), depth_max);
        let fanin = t.avg_fanin();
        assert!(fanin >= 1.0, "fan-in {fanin} below 1");
        assert!(t.ideal_layout_vmas() >= t.shard_count());
        assert!(t.layout_vmas().unwrap() >= t.ideal_layout_vmas());
        // Pool counters really sum: each shard allocated at least a page.
        assert!(t.pool_stats().pages_allocated >= t.shard_count() as u64);
        assert!(!t.shortcut_suspended());
    }

    /// What lets a lookup skip validation: the relay of a split clears the
    /// shard's serving word inside the write section that split, so a
    /// reader entering after the section never finds the directory that
    /// predates the split — it goes traditional until a pass serves the
    /// new one.
    #[test]
    fn a_relay_clears_the_serving_word_before_its_write_section_ends() {
        use shortcut_rewire::PinStrategy::{Asymmetric, Dekker};
        for (bits, strategy) in [(0, Asymmetric), (0, Dekker), (2, Asymmetric), (2, Dekker)] {
            let mut cfg = fast_cfg();
            cfg.eh.pool.pin_strategy = Some(strategy);
            // Passes on demand only: nothing serves behind the test's back.
            cfg.maint.poll_interval = Duration::from_secs(3600);
            let t = ShardedIndex::try_new(bits, cfg).unwrap();
            for k in 0..4_000u64 {
                t.insert_shared(k, val(k)).unwrap();
            }
            assert!(t.wait_sync(Duration::from_secs(10)));
            let shard = t.shard_of(0);
            let mut keys = (4_000u64..).filter(|&k| t.shard_of(k) == shard);
            let split_key = t.with_shard_mut(shard, |s| {
                let desc = s.state_arc();
                assert!(desc.begin_read().is_some(), "not serving before the split");
                let splits = s.stats().splits;
                let key = keys
                    .find(|&k| {
                        s.insert(k, val(k)).unwrap();
                        s.stats().splits > splits
                    })
                    .unwrap();
                assert!(desc.begin_read().is_none(), "serving after the relay");
                key
            });
            let counted = |k: u64| {
                let before = t.stats();
                assert_eq!(t.get(k), Some(val(k)), "key {k}");
                let after = t.stats();
                (
                    after.shortcut_lookups - before.shortcut_lookups,
                    after.traditional_lookups - before.traditional_lookups,
                )
            };
            for k in [0, split_key] {
                assert_eq!(counted(k), (0, 1), "key {k} before the pass");
            }
            assert!(t.wait_sync(Duration::from_secs(10)));
            for k in [0, split_key] {
                assert_eq!(counted(k), (1, 0), "key {k} after the pass");
            }
        }
    }

    #[test]
    #[should_panic(expected = "shard_bits")]
    fn shard_bits_above_the_cap_panic() {
        let _ = ShardedIndex::try_new(MAX_SHARD_BITS + 1, fast_cfg());
    }
}
