//! [`ShortcutIndex`]: hash-partitioned sharding over [`ShortcutEh`].
//!
//! [`ShortcutIndex`] owns `N = 2^s` independent Shortcut-EH shards — each
//! with its own page pool, mapper thread, retirement list, and admission
//! policy — and routes every key by the **top `s` bits** of its
//! multiplicative hash ([`mult_hash`], [`route_slot`]). Each shard's
//! directory then hashes with the rotation `hash_rot = s`, so its
//! directory hash ([`crate::dir_hash_of`]) starts at the *next* bits down
//! and keeps exactly the depth semantics of a standalone index: an
//! `s`-bit route plus a depth-`g` shard directory addresses `s + g` hash
//! bits, without every shard burning `s` constant levels and without a
//! routing bit in any shard's directory slot.
//!
//! Two write disciplines coexist:
//!
//! * **Exclusive** — [`ShortcutIndex`] implements [`Index`], with writes
//!   through `&mut self` exactly like a single shard. No lock is touched:
//!   the borrow already excludes every reader.
//! * **Shared** — [`ShortcutIndex::insert_shared`] /
//!   [`ShortcutIndex::remove_shared`] / [`ShortcutIndex::insert_batch_shared`]
//!   take `&self` and a per-shard **write lock**, so one writer thread per
//!   shard can run concurrently with each other and with any number of
//!   readers. A single shard's writes are still serialized (Shortcut-EH is
//!   single-writer by construction); the sharding is what buys write
//!   parallelism.
//!
//! Readers ([`ShortcutIndex::get`] / [`Index::get_many`]) enter a shard
//! through a **biased read section** ([`shortcut_rewire::ReadBias`]):
//! while the bias is armed they publish the reader pin the shortcut read
//! needs anyway, load the **admission word** on the shard's [`ReadLine`]
//! and proceed: no atomic RMW, no shared line written. A shared write of a
//! present key stores its value beside them; the first structural one
//! revokes the bias and waits for them; readers then take the lock's read
//! side until [`shortcut_rewire::REARM_AFTER`] of them in a row met no
//! revocation (CONCURRENCY.md §4).
//!
//! Shard state is observed one way: [`ShortcutIndex::shard_stats`] reads a
//! shard into a [`StatsSnapshot`], and [`ShortcutIndex::stats`] folds those
//! with [`StatsSnapshot::merge`].
//!
//! Shards opted into the same [`shortcut_rewire::VmaBudget`] should set
//! [`shortcut_rewire::PoolConfig::fair_share`] (the constructor here does
//! it automatically for `s > 0`): each shard may then exceed its even
//! share of the budget only while every sibling's unfilled share stays
//! spare, so one hot shard's deep directory can never suspend the others'
//! rebuilds.

use crate::builder::IndexBuilder;
use crate::eh::WINDOW;
use crate::error::IndexError;
use crate::hash::{mult_hash, route_slot};
use crate::shortcut_eh::{ReadSection, ShortcutEh, ShortcutEhConfig};
use crate::stats::StatsSnapshot;
use crate::traits::Index;
use shortcut_core::ReadLine;
use shortcut_rewire::ReadBias;
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::{Arc, PoisonError, RwLock, RwLockWriteGuard};
use std::time::{Duration, Instant};

/// Hard cap on `shard_bits`: 2^8 = 256 shards is already far past any
/// plausible core count, and each shard costs a mapper thread + pool.
pub const MAX_SHARD_BITS: u32 = 8;

/// One shard behind its biased reader-writer section (module docs), whose
/// [`ReadLine`] is the index's: the fast path reads nothing of it.
struct Shard {
    /// The writers' lock, and the readers' while the bias is revoked. A
    /// panic inside a section poisons nothing: every access ignores the
    /// poison, as the shard is whole between any two of its operations.
    lock: RwLock<()>,
    eh: UnsafeCell<ShortcutEh>,
}

// SAFETY: `eh` is reached through `&self` only inside the section
// `lock` + the line's bias implement: shared references under a pin that
// saw the bias armed or under either side of the lock, the exclusive one
// under the write lock after the bias is revoked and its readers have
// drained (`WriteSection::eh`); `&mut self` callers use `eh.get_mut()`
// (`shard_for_mut`) or the cell's pointer (`enter_exclusive`), the borrow
// excluding every reader.
// `ShortcutEh` is `Send + Sync`; the lock is `Sync`.
unsafe impl Sync for Shard {}

impl Shard {
    /// The read section of a batch window and of the hit path's exits: a
    /// pin and the admission word while the bias admits, the lock's read
    /// side while it is revoked. Short reads only — it holds back
    /// directory reclamation and the shard's shared writers.
    #[inline]
    fn enter_read<'a>(&'a self, line: &'a ReadLine) -> ReadSection<'a> {
        let Some((pin, served)) = line.enter_section() else {
            return self.enter_locked(line);
        };
        // SAFETY: the pin saw the bias armed, so a writer cannot pass
        // `enter_write`'s drain before the pin drops with the section.
        let eh = unsafe { &*self.eh.get() };
        ReadSection {
            eh,
            served,
            pin,
            locked: None,
        }
    }

    /// [`Shard::enter_read`] while the bias is revoked, counted: the
    /// [`shortcut_rewire::REARM_AFTER`]th in a row re-arms the bias. Out of
    /// line, so the biased path stays a leaf around the inlined lookup.
    #[cold]
    #[inline(never)]
    fn enter_locked<'a>(&'a self, line: &'a ReadLine) -> ReadSection<'a> {
        let locked = self.lock.read().unwrap_or_else(PoisonError::into_inner);
        // SAFETY: the read lock excludes `enter_write`.
        let eh = unsafe { &*self.eh.get() };
        if line.bias.note_locked_read() {
            eh.maint().inbox_lock().rearm();
        }
        let pin = line.pins.pin();
        ReadSection {
            eh,
            served: eh.maint().state().begin_read(),
            pin,
            locked: Some(locked),
        }
    }

    /// Shared access under the read lock and no pin, for callers that may
    /// block or run long (statistics, `wait_sync`, arbitrary closures).
    fn read_locked<R>(&self, f: impl FnOnce(&ShortcutEh) -> R) -> R {
        let _shared = self.lock.read().unwrap_or_else(PoisonError::into_inner);
        // SAFETY: the read lock excludes `enter_write`.
        f(unsafe { &*self.eh.get() })
    }

    /// The shared writers' section: the write lock; the bias is revoked by
    /// the first structural write ([`WriteSection::eh`]).
    fn enter_write<'a>(&'a self, line: &'a ReadLine) -> WriteSection<'a> {
        WriteSection {
            _exclusive: Some(self.lock.write().unwrap_or_else(PoisonError::into_inner)),
            shard: self,
            unrevoked: Some(line),
        }
    }
}

/// What a write holds of one shard: the shard, a shared writer's lock and,
/// until it revokes, the read line. Leaving relays the directory events to
/// the mapper before the lock goes: the bump keeps later readers off a
/// shortcut that predates these splits.
struct WriteSection<'a> {
    shard: &'a Shard,
    unrevoked: Option<&'a ReadLine>,
    _exclusive: Option<RwLockWriteGuard<'a, ()>>,
}

impl WriteSection<'_> {
    /// [`crate::BucketRef::update`], beside the biased readers: no revoking.
    #[inline]
    fn update(&self, key: u64, value: u64, hash: u64) -> bool {
        // SAFETY: the write lock (or the `&mut` borrow) excludes writers and
        // locked readers; biased readers hold `&` too, as an update may.
        unsafe { &*self.shard.eh.get() }.update_hashed(key, value, hash)
    }

    /// The shard to itself, the bias revoked first — only while this is
    /// the one section the caller holds (CONCURRENCY.md §4).
    fn eh(&mut self) -> &mut ShortcutEh {
        if let Some(line) = self.unrevoked.take() {
            // SAFETY: as in `update`.
            let maint = unsafe { &*self.shard.eh.get() }.maint();
            let quiesced = || line.pins.readers_quiesced();
            while !line.bias.try_revoke(|| maint.inbox_lock(), quiesced) {
                std::thread::yield_now();
            }
        }
        // SAFETY: the write lock excludes writers and locked readers, and
        // the revoked bias has drained (or the `&mut` borrow of the index
        // excludes them all): new readers see it revoked and wait.
        unsafe { &mut *self.shard.eh.get() }
    }

    /// Revoked as it is entered: what a structural window enters.
    fn revoked(mut self) -> Self {
        self.eh();
        self
    }
}

impl Drop for WriteSection<'_> {
    fn drop(&mut self) {
        if self.unrevoked.is_none() {
            self.eh().relay_events();
        }
    }
}

/// A bit per shard [`MAX_SHARD_BITS`] allows.
type ShardSet = [u64; (1 << MAX_SHARD_BITS) / 64];

fn add(set: &mut ShardSet, shard: usize) {
    set[shard / 64 % set.len()] |= 1 << (shard % 64);
}

/// `f` on each shard of `set`, ascending.
#[inline(always)]
fn each_shard(set: ShardSet, mut f: impl FnMut(usize)) {
    for (w, mut word) in set.into_iter().enumerate() {
        while word != 0 {
            f(w * 64 + word.trailing_zeros() as usize);
            word &= word - 1;
        }
    }
}

/// The sections one window of a batch holds, one per shard it touches:
/// entered in ascending shard order (CONCURRENCY.md §4), left when it
/// drops. Never moved: it has room for every shard.
struct Held<S> {
    bits: u32,
    /// `sections[i]` is initialized exactly while `entered` holds `i`.
    entered: ShardSet,
    sections: [MaybeUninit<S>; 1 << MAX_SHARD_BITS],
}

impl<S> Held<S> {
    /// Enter `enter(i)` for each shard `i` one of `keys` routes to over
    /// `2^bits` shards, run `walk` on the sections and leave them.
    #[inline(always)]
    fn with<R>(
        bits: u32,
        keys: impl Iterator<Item = u64>,
        mut enter: impl FnMut(usize) -> S,
        walk: impl FnOnce(&mut Self) -> R,
    ) -> R {
        let mut touched = ShardSet::default();
        if bits == 0 {
            add(&mut touched, 0); // One shard owns every key.
        } else {
            keys.for_each(|key| add(&mut touched, route_slot(mult_hash(key), bits)));
        }
        let mut held = Held {
            bits,
            entered: ShardSet::default(),
            sections: [const { MaybeUninit::uninit() }; 1 << MAX_SHARD_BITS],
        };
        each_shard(touched, |i| {
            held.sections[i].write(enter(i));
            add(&mut held.entered, i);
        });
        walk(&mut held)
    }

    /// The section of the shard `hash` routes to.
    ///
    /// # Safety
    ///
    /// `hash` is the [`mult_hash`] of a key `self` entered for: its shard's
    /// section is initialized.
    #[inline(always)]
    unsafe fn get(&self, hash: u64) -> &S {
        // SAFETY: the caller's.
        unsafe {
            self.sections
                .get_unchecked(route_slot(hash, self.bits))
                .assume_init_ref()
        }
    }

    /// [`Held::get`], mutably.
    ///
    /// # Safety
    ///
    /// As [`Held::get`].
    #[inline(always)]
    unsafe fn get_mut(&mut self, hash: u64) -> &mut S {
        // SAFETY: the caller's.
        unsafe {
            self.sections
                .get_unchecked_mut(route_slot(hash, self.bits))
                .assume_init_mut()
        }
    }
}

impl<S> Drop for Held<S> {
    #[inline]
    fn drop(&mut self) {
        let sections = &mut self.sections;
        // SAFETY: each entered section is initialized, and dropped once.
        each_shard(self.entered, |i| unsafe { sections[i].assume_init_drop() });
    }
}

/// Insert `entries` one window at a time, each in the write sections
/// `enter` gives, in batch order up to the first failing one: present
/// keys' values unrevoked; from the first absent key on, the rest entered
/// again, revoked (never mid-window: CONCURRENCY.md §4).
fn insert_pass<'a>(
    bits: u32,
    entries: &[(u64, u64)],
    mut enter: impl FnMut(usize) -> WriteSection<'a>,
) -> Result<(), IndexError> {
    entries.chunks(WINDOW).try_for_each(|window| {
        let keys = window.iter().map(|&(key, _)| key);
        let absent = Held::with(bits, keys, &mut enter, |held| {
            window.iter().position(|&(key, value)| {
                let hash = mult_hash(key);
                // SAFETY: `held` entered for the window's keys.
                !unsafe { held.get(hash) }.update(key, value, hash)
            })
        });
        let Some(first) = absent else {
            return Ok(());
        };
        let (rest, enter) = (&window[first..], |i| enter(i).revoked());
        Held::with(bits, rest.iter().map(|&(key, _)| key), enter, |held| {
            rest.iter().try_for_each(|&(key, value)| {
                let hash = mult_hash(key);
                // SAFETY: `held` entered for the rest's keys.
                let section = unsafe { held.get_mut(hash) };
                section.eh().insert_deferred(key, value, hash)
            })
        })
    })
}

/// Remove `keys` as [`insert_pass`] inserts new keys: `out[i]` is the
/// value `keys[i]` held.
fn remove_pass<'a>(
    bits: u32,
    keys: &[u64],
    out: &mut [Option<u64>],
    mut enter: impl FnMut(usize) -> WriteSection<'a>,
) {
    for (keys, out) in keys.chunks(WINDOW).zip(out.chunks_mut(WINDOW)) {
        let enter = |i| enter(i).revoked();
        Held::with(bits, keys.iter().copied(), enter, |held| {
            for (&key, out) in keys.iter().zip(out) {
                let hash = mult_hash(key);
                // SAFETY: `held` entered for the window's keys.
                *out = unsafe { held.get_mut(hash) }.eh().remove_hashed(key, hash);
            }
        });
    }
}

/// The index: `N = 2^s` Shortcut-EH shards routed by the top `s` hash
/// bits, each with its own pool and mapper thread, behind
/// [`ShortcutIndex::builder`] — concurrent `&self` reads, typed errors,
/// and one merged [`StatsSnapshot`]. [`IndexBuilder::shards`] picks `s`
/// (default 0: one shard). See the module docs for the routing scheme and
/// the two write disciplines; import [`Index`] for the exclusive writes
/// and the batched reads.
pub struct ShortcutIndex {
    /// `s`: number of top hash bits consumed by routing.
    bits: u32,
    /// The shards' read lines, in routing order (each shard's descriptor
    /// holds the array too, to store its line's admission word).
    lines: Arc<[ReadLine]>,
    /// The shards, in routing order (`shards[i]` serves route value `i`).
    shards: Vec<Shard>,
}

impl ShortcutIndex {
    /// Start building an index.
    pub fn builder() -> IndexBuilder {
        IndexBuilder::default()
    }

    /// Build `2^bits` shards from `base`, each with its pool memfd renamed
    /// `<name>-s<i>`. Each shard's directory hashes with the rotation
    /// `bits`, so it consumes the hash bits *below* the routing bits (see
    /// the module docs), and `eh.pool.fair_share` is overridden to
    /// `bits > 0`: shards sharing a [`shortcut_rewire::VmaBudget`] get
    /// fair-share admission so one shard cannot starve its siblings, and a
    /// single shard, with no sibling, has it off.
    ///
    /// With [`IndexBuilder`]'s five settings this is the one way to build
    /// the index; it is how a caller reaches the rest of
    /// [`ShortcutEhConfig`] — the mapper's poll interval, a whole
    /// [`shortcut_rewire::PoolConfig`] (its
    /// [`pin_strategy`](shortcut_rewire::PoolConfig::pin_strategy) forces
    /// the membarrier-less Dekker fallback), the load factor.
    ///
    /// # Errors
    ///
    /// [`IndexError::Config`] for `bits > `[`MAX_SHARD_BITS`]; otherwise
    /// propagates shard construction failures ([`IndexError::Pool`] and
    /// friends), dropping already-built shards cleanly.
    pub fn try_new(bits: u32, base: ShortcutEhConfig) -> Result<Self, IndexError> {
        if bits > MAX_SHARD_BITS {
            return Err(IndexError::config(format!(
                "shards({bits}) exceeds the cap of {MAX_SHARD_BITS} (2^{MAX_SHARD_BITS} shards)"
            )));
        }
        let n = 1usize << bits;
        let (mut shards, mut lines) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for i in 0..n {
            let mut cfg = base.clone();
            if bits > 0 {
                cfg.eh.pool.name = format!("{}-s{i}", cfg.eh.pool.name);
            }
            cfg.eh.pool.fair_share = bits > 0;
            let eh = ShortcutEh::try_new(cfg, bits)?;
            lines.push(ReadLine {
                bias: ReadBias::default(),
                hash_rot: bits,
                pins: Arc::clone(eh.retire_list()),
            });
            shards.push(Shard {
                lock: RwLock::new(()),
                eh: UnsafeCell::new(eh),
            });
        }
        let lines: Arc<[ReadLine]> = lines.into();
        for (i, shard) in shards.iter_mut().enumerate() {
            let maint = shard.eh.get_mut().maint();
            maint.inbox_lock().attach_line(Arc::clone(&lines), i);
        }
        Ok(ShortcutIndex {
            bits,
            lines,
            shards,
        })
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
        route_slot(mult_hash(key), self.bits)
    }

    /// The read line of the shard a key routes to, from its [`mult_hash`]
    /// — which the shard then probes with, so a lookup hashes once.
    #[inline]
    fn line_for(&self, hash: u64) -> &ReadLine {
        match self.bits {
            // Unsharded: no route shift, no bounds check.
            // SAFETY: `try_new` builds `1 << bits >= 1` lines and nothing
            // removes one.
            0 => unsafe { self.lines.get_unchecked(0) },
            bits => &self.lines[route_slot(hash, bits)],
        }
    }

    /// The shard a key routes to, from its [`mult_hash`], for the
    /// exclusive write discipline.
    #[inline]
    fn shard_for_mut(&mut self, hash: u64) -> &mut ShortcutEh {
        let shard = match self.bits {
            // SAFETY: as in `line_for`.
            0 => unsafe { self.shards.get_unchecked_mut(0) },
            bits => &mut self.shards[route_slot(hash, bits)],
        };
        shard.eh.get_mut()
    }

    /// Shard `i`'s shared writers' section.
    fn enter_write(&self, i: usize) -> WriteSection<'_> {
        self.shards[i].enter_write(&self.lines[i])
    }

    /// Shard `i`'s write section for the exclusive discipline: no lock.
    ///
    /// # Safety
    ///
    /// The caller borrows the index by `&mut` while the section lives, and
    /// holds no other section of shard `i`.
    unsafe fn enter_exclusive(&self, i: usize) -> WriteSection<'_> {
        // Revoked from the start: the caller's borrow excludes readers.
        WriteSection {
            shard: &self.shards[i],
            unrevoked: None,
            _exclusive: None,
        }
    }

    /// Look up a key. Takes `&self`: concurrent readers are safe. The hit
    /// path is pin, one load of the admission word, probe, tally, unpin;
    /// every other way is one call to `get_slow`.
    ///
    /// Inlined into the caller; [`Index::get`] is the same lookup as one
    /// out-of-line function, as the other schemes' are.
    #[inline]
    pub fn get(&self, key: u64) -> Option<u64> {
        let hash = mult_hash(key);
        let line = self.line_for(hash);
        // A served word is an armed one: no writer passes
        // `Shard::enter_write`'s drain before the pin drops.
        if let Some((pin, t)) = line.enter() {
            if let Some(hit) = ShortcutEh::get_served(t, line.hash_rot, key, hash, &pin) {
                return hit;
            }
        }
        self.get_slow(line, key)
    }

    /// [`ShortcutIndex::get`] off its hit path — no exclusive stripe,
    /// nothing served, an over-depth bucket, a revoked bias — in the
    /// batched lookups' section, through the serving word.
    #[cold]
    #[inline(never)]
    fn get_slow(&self, line: &ReadLine, key: u64) -> Option<u64> {
        // `line` is one of `lines`, as `line_for` answers.
        let offset = std::ptr::from_ref(line).addr() - self.lines.as_ptr().addr();
        let shard = &self.shards[offset / std::mem::size_of::<ReadLine>()];
        shard
            .enter_read(line)
            .get(line.hash_rot, key, mult_hash(key))
    }

    /// Run `f` against shard `i` under a **read** lock (per-shard
    /// accessors, layout inspection, read-only probes).
    ///
    /// `f` must not call back into the index — its batched or shared-write
    /// entry points, or a lookup: a batch writer can hold another shard and
    /// wait for this one (CONCURRENCY.md §4). Read through the `&ShortcutEh`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.shard_count()`.
    pub fn with_shard<R>(&self, i: usize, f: impl FnOnce(&ShortcutEh) -> R) -> R {
        self.shards[i].read_locked(f)
    }

    /// Run `f` against shard `i` under a **write** lock (shared-writer
    /// maintenance).
    ///
    /// `f` must not call back into the index, as for
    /// [`ShortcutIndex::with_shard`].
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.shard_count()`.
    pub fn with_shard_mut<R>(&self, i: usize, f: impl FnOnce(&mut ShortcutEh) -> R) -> R {
        f(self.enter_write(i).eh())
    }

    // ------------------------------------------------------------------
    // Shared-write discipline: `&self` + per-shard write locks. One
    // writer thread per shard runs fully in parallel; readers use the
    // read path (`get` / `get_many` take `&self` and the shard's biased
    // read section).
    // ------------------------------------------------------------------

    /// Insert through a per-shard write lock (shared-writer discipline:
    /// safe from many threads; writes to *different* shards proceed in
    /// parallel, writes to the same shard serialize on its lock). Pair
    /// one writer thread per shard (partition keys with
    /// [`ShortcutIndex::shard_of`]) for contention-free scaling. Only a
    /// new key revokes the shard's read bias.
    ///
    /// # Errors
    ///
    /// Same contract as [`Index::insert`].
    pub fn insert_shared(&self, key: u64, value: u64) -> Result<(), IndexError> {
        let hash = mult_hash(key);
        let mut section = self.enter_write(route_slot(hash, self.bits));
        if section.update(key, value, hash) {
            return Ok(());
        }
        section.eh().insert_hashed(key, value, hash)
    }

    /// Remove through a per-shard write lock. See [`ShortcutIndex::insert_shared`].
    ///
    /// # Errors
    ///
    /// Same contract as [`Index::remove`].
    pub fn remove_shared(&self, key: u64) -> Result<Option<u64>, IndexError> {
        let hash = mult_hash(key);
        Ok(self
            .enter_write(route_slot(hash, self.bits))
            .eh()
            .remove_hashed(key, hash))
    }

    /// Batched insert through per-shard write locks, in one pass per
    /// window of 4096 entries: the window enters the write section of
    /// every shard it touches, in ascending shard order, applies its
    /// entries in batch order and relays each shard's directory events to
    /// its mapper once, when it leaves. Only new keys revoke read biases:
    /// from a window's first one on, the rest of it is entered again.
    ///
    /// # Errors
    ///
    /// Stops at the first failing entry and returns its error. Exactly the
    /// entries before it — in batch order, whatever shard they went to —
    /// stay applied and readable; none after it is applied: the contract
    /// of [`Index::insert_batch`].
    pub fn insert_batch_shared(&self, entries: &[(u64, u64)]) -> Result<(), IndexError> {
        insert_pass(self.bits, entries, |i| self.enter_write(i))
    }

    /// Batched lookup into a caller-owned buffer: `out` is resized to
    /// `keys.len()` and `out[i]` answers `keys[i]`. One pass per window of
    /// 4096 keys: the window enters the read section of every shard it
    /// touches — the one [`ShortcutIndex::get`] enters: a pin and the
    /// admission word — in ascending shard order, then answers its keys in
    /// batch order under one prefetch pipeline. Allocates nothing once
    /// `out` has the capacity.
    #[inline]
    pub fn get_many_into(&self, keys: &[u64], out: &mut Vec<Option<u64>>) {
        out.clear();
        out.resize(keys.len(), None);
        // Every shard has the same hash rotation.
        let hash_rot = self.lines[0].hash_rot;
        for (keys, out) in keys.chunks(WINDOW).zip(out.chunks_mut(WINDOW)) {
            let enter = |i: usize| self.shards[i].enter_read(&self.lines[i]);
            Held::with(self.bits, keys.iter().copied(), enter, |held| {
                match self.bits {
                    // Unsharded: one section, which the walk reads as a
                    // constant (hoisted out of the loop, as `line_for`'s
                    // route is out of `get`).
                    0 => {
                        // SAFETY: every hash routes to shard 0, entered.
                        let only = unsafe { held.get(0) };
                        ShortcutEh::get_window(keys, out, hash_rot, |_| only);
                    }
                    // SAFETY: `get_window` asks for the sections of `keys`
                    // only, which `held` entered for.
                    _ => ShortcutEh::get_window(keys, out, hash_rot, |hash| unsafe {
                        held.get(hash)
                    }),
                }
            });
        }
    }

    /// Batched remove through per-shard write locks; answers in caller
    /// order (`out[i]` answers `keys[i]`, as in [`Index::remove_batch`]).
    /// Allocating wrapper of [`ShortcutIndex::remove_batch_shared_into`].
    ///
    /// # Errors
    ///
    /// None today: removals touch bucket contents only. Fallible per the
    /// [`Index`] write contract, which is the prefix contract of
    /// [`ShortcutIndex::insert_batch_shared`]: a failing removal would
    /// leave exactly the removals before it, in batch order, applied.
    pub fn remove_batch_shared(&self, keys: &[u64]) -> Result<Vec<Option<u64>>, IndexError> {
        let mut out = Vec::with_capacity(keys.len());
        self.remove_batch_shared_into(keys, &mut out)?;
        Ok(out)
    }

    /// [`ShortcutIndex::remove_batch_shared`] into a caller-owned buffer,
    /// in the one pass per window of [`ShortcutIndex::insert_batch_shared`].
    ///
    /// # Errors
    ///
    /// As [`ShortcutIndex::remove_batch_shared`]: exactly the prefix of the
    /// batch before a failing removal would stay applied.
    pub fn remove_batch_shared_into(
        &self,
        keys: &[u64],
        out: &mut Vec<Option<u64>>,
    ) -> Result<(), IndexError> {
        out.clear();
        out.resize(keys.len(), None);
        remove_pass(self.bits, keys, out, |i| self.enter_write(i));
        Ok(())
    }

    // ------------------------------------------------------------------
    // Observability: one snapshot per shard, one fold across them.
    // ------------------------------------------------------------------

    /// One merged snapshot of index, maintenance, and pool counters,
    /// aggregated over all shards with the documented
    /// [`StatsSnapshot::merge`] semantics. Per-shard snapshots are taken
    /// one shard at a time (not atomically across shards).
    pub fn stats(&self) -> StatsSnapshot {
        (0..self.shard_count())
            .map(|i| self.shard_stats(i))
            .reduce(|a, b| a.merge(&b))
            .expect("at least one shard")
    }

    /// The per-shard breakdown behind [`ShortcutIndex::stats`]: shard
    /// `i`'s own snapshot (`shards == 1`), read under its read lock.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.shard_count()`.
    pub fn shard_stats(&self, i: usize) -> StatsSnapshot {
        let (bias_revocations, bias_rearms) = self.lines[i].bias.counters();
        self.shards[i].read_locked(|s| StatsSnapshot {
            shards: 1,
            len: s.len(),
            global_depth: s.global_depth(),
            bucket_count: s.bucket_count(),
            avg_fanin: s.avg_fanin(),
            in_sync: s.in_sync(),
            versions: s.versions(),
            shortcut_suspended: s.shortcut_suspended(),
            slot_bytes: shortcut_rewire::PAGE_SIZE_4K,
            pin_strategy: self.lines[i].pins.pin_strategy(),
            bias_revocations,
            bias_rearms,
            zap_supported: shortcut_rewire::zap_call().is_some(),
            index: s.stats(),
            maint: s.maint_metrics(),
            rewire: s.pool_stats(),
            vma: s.vma_stats(),
        })
    }

    /// Whether **every** shard's shortcut directory is in sync.
    pub fn in_sync(&self) -> bool {
        self.shards.iter().all(|s| s.read_locked(|s| s.in_sync()))
    }

    /// Block until every shard's shortcut is in sync or `timeout`
    /// elapses; `true` when all shards synced. The timeout is a shared
    /// deadline, not per shard. A test/bench helper: production readers
    /// never wait, they fall back to the traditional directory.
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

    /// First error a shard's mapper thread hit, if any.
    pub fn maint_error(&self) -> Option<IndexError> {
        self.shards
            .iter()
            .find_map(|s| s.read_locked(|s| s.maint_error()))
    }

    /// Summed planned-VMA estimate of every shard's current layout, as a
    /// fresh shortcut rebuild would map it (`O(slots)` — diagnostics).
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
}

impl std::fmt::Debug for ShortcutIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShortcutIndex")
            .field("bits", &self.bits)
            .field("shards", &self.shards.len())
            .finish_non_exhaustive()
    }
}

impl Index for ShortcutIndex {
    #[inline]
    fn insert(&mut self, key: u64, value: u64) -> Result<(), IndexError> {
        let hash = mult_hash(key);
        self.shard_for_mut(hash).insert_hashed(key, value, hash)
    }

    /// [`ShortcutIndex::get`], out of line: a caller through the trait
    /// pays one call, as it does for every other scheme.
    fn get(&self, key: u64) -> Option<u64> {
        ShortcutIndex::get(self, key)
    }

    #[inline]
    fn remove(&mut self, key: u64) -> Result<Option<u64>, IndexError> {
        let hash = mult_hash(key);
        Ok(self.shard_for_mut(hash).remove_hashed(key, hash))
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read_locked(|s| s.len())).sum()
    }

    fn name(&self) -> &'static str {
        if self.bits == 0 {
            "Shortcut-EH"
        } else {
            "Sharded-Shortcut-EH"
        }
    }

    /// Allocating wrapper of [`ShortcutIndex::get_many_into`]: enters each
    /// shard a window of 4096 keys touches once (one pin, one admission
    /// word) and prefetches ahead of the probe.
    fn get_many(&self, keys: &[u64]) -> Vec<Option<u64>> {
        let mut out = Vec::with_capacity(keys.len());
        self.get_many_into(keys, &mut out);
        out
    }

    /// [`ShortcutIndex::insert_batch_shared`] without the locks: the
    /// exclusive borrow already excludes every reader and writer.
    ///
    /// # Errors
    ///
    /// As [`ShortcutIndex::insert_batch_shared`].
    fn insert_batch(&mut self, entries: &[(u64, u64)]) -> Result<(), IndexError> {
        let this = &*self;
        // SAFETY: `&mut self` is held throughout, and a pass holds one
        // section per shard at a time.
        insert_pass(self.bits, entries, |i| unsafe { this.enter_exclusive(i) })
    }

    /// [`ShortcutIndex::remove_batch_shared`] without the locks.
    ///
    /// # Errors
    ///
    /// As [`ShortcutIndex::remove_batch_shared`].
    fn remove_batch(&mut self, keys: &[u64]) -> Result<Vec<Option<u64>>, IndexError> {
        let (mut out, this) = (vec![None; keys.len()], &*self);
        // SAFETY: as in `insert_batch`.
        remove_pass(self.bits, keys, &mut out, |i| unsafe {
            this.enter_exclusive(i)
        });
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eh::{EhConfig, ExtendibleHash};
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
        let mut t = ShortcutIndex::try_new(0, fast_cfg()).unwrap();
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

    /// Unsharded, the index is a plain EH plus the mapper: the same
    /// inserts give the same answers, the same directory (no rotation of
    /// the hash) and the same buckets.
    #[test]
    fn unsharded_matches_a_plain_eh() {
        let cfg = fast_cfg();
        let mut index = ShortcutIndex::try_new(0, cfg.clone()).unwrap();
        let mut eh = ExtendibleHash::try_new(cfg.eh).unwrap();
        for k in 0..5_000u64 {
            index.insert(k, val(k)).unwrap();
            eh.insert(k, val(k)).unwrap();
        }
        assert_eq!(index.len(), eh.len());
        let stats = index.stats();
        assert_eq!(stats.global_depth, eh.global_depth());
        assert_eq!(stats.bucket_count, eh.bucket_count());
        for k in (0..6_000u64).step_by(7) {
            assert_eq!(index.get(k), eh.get(k), "key {k}");
        }
    }

    /// The routing bits reach no shard's directory: each shard of a 2^2
    /// index holds about a quarter of the keys and grows the directory of
    /// an unsharded index holding a quarter of them, not 2 levels deeper.
    #[test]
    fn each_shard_grows_as_deep_as_an_index_of_its_share() {
        let n = 80_000u64;
        let mut sharded = ShortcutIndex::try_new(2, fast_cfg()).unwrap();
        for k in 0..n {
            sharded.insert(k, val(k)).unwrap();
        }
        let mut quarter = ShortcutIndex::try_new(0, fast_cfg()).unwrap();
        for k in 0..n / 4 {
            quarter.insert(k, val(k)).unwrap();
        }
        let want = quarter.stats().global_depth;
        assert!(want >= 8, "depth {want}: too shallow to tell");
        for i in 0..sharded.shard_count() {
            let depth = sharded.with_shard(i, |s| s.global_depth());
            assert!(
                depth.abs_diff(want) <= 1,
                "shard {i}: depth {depth}, not {want}"
            );
        }
    }

    #[test]
    fn routing_spreads_keys_over_all_shards() {
        let mut t = ShortcutIndex::try_new(2, fast_cfg()).unwrap();
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

    /// At 2^2 shards every slot of every shard's directory is reachable:
    /// the directory hash rotates the routing bits out of its suffix, so
    /// none of them fixes a slot bit of the shard that owns the key.
    #[test]
    fn every_slot_of_every_shard_is_reachable() {
        let mut t = ShortcutIndex::try_new(2, fast_cfg()).unwrap();
        let keys = 0..80_000u64;
        for k in keys.clone() {
            t.insert(k, val(k)).unwrap();
        }
        for i in 0..t.shard_count() {
            let depth = t.with_shard(i, |s| s.global_depth());
            assert!(depth >= 8, "shard {i}: depth {depth}");
            let mut reached = vec![false; 1 << depth];
            for k in keys.clone().filter(|&k| t.shard_of(k) == i) {
                let hash = crate::hash::dir_hash_of(mult_hash(k), t.shard_bits());
                reached[crate::hash::dir_slot(hash, depth)] = true;
            }
            let unreached = reached.iter().filter(|&&r| !r).count();
            assert_eq!(
                unreached,
                0,
                "shard {i}: {unreached} of {} slots",
                1 << depth
            );
        }
    }

    #[test]
    fn removals_route_to_the_owning_shard() {
        let mut t = ShortcutIndex::try_new(2, fast_cfg()).unwrap();
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
        let mut t = ShortcutIndex::try_new(2, fast_cfg()).unwrap();
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
        let mut t = ShortcutIndex::try_new(2, fast_cfg()).unwrap();
        let entries: Vec<(u64, u64)> = (0..6_000u64).map(|k| (k, val(k))).collect();
        t.insert_batch(&entries).unwrap();
        assert_eq!(t.len(), entries.len());
        for &(k, v) in &entries {
            assert_eq!(t.get(k), Some(v), "key {k}");
        }
    }

    #[test]
    fn sharded_lookups_sync_and_use_the_shortcut() {
        let mut t = ShortcutIndex::try_new(2, fast_cfg()).unwrap();
        for k in 0..20_000u64 {
            t.insert(k, k + 3).unwrap();
        }
        assert!(t.wait_sync(Duration::from_secs(10)), "never synced");
        assert!(t.in_sync());
        let (tv, sv) = t.stats().versions;
        assert_eq!(tv, sv);
        for k in 0..20_000u64 {
            assert_eq!(t.get(k), Some(k + 3), "key {k}");
        }
        let s = t.stats().index;
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
        let t = Arc::new(ShortcutIndex::try_new(2, fast_cfg()).unwrap());
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
        let t = ShortcutIndex::try_new(1, fast_cfg()).unwrap();
        let entries: Vec<(u64, u64)> = (0..4_000u64).map(|k| (k, val(k))).collect();
        t.insert_batch_shared(&entries).unwrap();
        for &(k, v) in &entries {
            assert_eq!(t.get(k), Some(v), "key {k}");
        }
        assert_eq!(t.len(), entries.len());
    }

    #[test]
    fn remove_batch_scatters_and_reassembles_in_caller_order() {
        let mut t = ShortcutIndex::try_new(2, fast_cfg()).unwrap();
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
        let t = ShortcutIndex::try_new(2, fast_cfg()).unwrap();
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
        let mut t = ShortcutIndex::try_new(2, fast_cfg()).unwrap();
        for k in 0..10_000u64 {
            t.insert(k, val(k)).unwrap();
        }
        assert!(t.wait_sync(Duration::from_secs(10)));
        let stats = t.stats();
        let buckets: usize = (0..4).map(|i| t.with_shard(i, |s| s.bucket_count())).sum();
        assert_eq!(stats.bucket_count, buckets);
        let depth_max = (0..4)
            .map(|i| t.with_shard(i, |s| s.global_depth()))
            .max()
            .unwrap();
        assert_eq!(stats.global_depth, depth_max);
        let fanin = stats.avg_fanin;
        assert!(fanin >= 1.0, "fan-in {fanin} below 1");
        assert!(t.layout_vmas().unwrap() >= t.shard_count());
        // Pool counters really sum: each shard allocated at least a page.
        assert!(stats.rewire.pages_allocated >= t.shard_count() as u64);
        assert!(!stats.shortcut_suspended);
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
            let t = ShortcutIndex::try_new(bits, cfg).unwrap();
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
                        s.insert_hashed(k, val(k), mult_hash(k)).unwrap();
                        s.stats().splits > splits
                    })
                    .unwrap();
                assert!(desc.begin_read().is_none(), "serving after the relay");
                key
            });
            let counted = |k: u64| {
                let before = t.stats().index;
                assert_eq!(t.get(k), Some(val(k)), "key {k}");
                let after = t.stats().index;
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

    /// A panic inside a write section poisons nothing: the shard's lock
    /// still admits readers and writers, and the index answers as before.
    #[test]
    fn a_panic_inside_with_shard_mut_leaves_the_index_answering() {
        let t = ShortcutIndex::try_new(1, fast_cfg()).unwrap();
        for k in 0..2_000u64 {
            t.insert_shared(k, val(k)).unwrap();
        }
        let shard = t.shard_of(0);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.with_shard_mut(shard, |s| {
                s.insert_hashed(0, 7, mult_hash(0)).unwrap();
                panic!("inside the write section");
            })
        }));
        assert!(panicked.is_err());
        assert_eq!(t.get(0), Some(7), "the write before the panic");
        t.insert_shared(0, val(0)).unwrap();
        for k in 2_000..4_000u64 {
            t.insert_shared(k, val(k)).unwrap();
        }
        assert_eq!(t.remove_shared(1).unwrap(), Some(val(1)));
        assert_eq!(
            t.with_shard(shard, |s| s.len()) + t.with_shard(1 - shard, |s| s.len()),
            3_999
        );
        assert!(t.wait_sync(Duration::from_secs(10)));
        let keys: Vec<u64> = (0..4_000).collect();
        let got = t.get_many(&keys);
        for &k in &keys {
            let want = (k != 1).then(|| val(k));
            assert_eq!(t.get(k), want, "key {k}");
            assert_eq!(got[k as usize], want, "key {k} batched");
        }
        assert!(t.maint_error().is_none());
    }

    /// A window enters the section of exactly the shards its keys route
    /// to, each once, in ascending order, finds each key's in its shard's
    /// place, and leaves each once — at every shard count up to the cap.
    #[test]
    fn a_window_enters_each_shard_it_touches_once_in_order() {
        use crate::eh::WINDOW;
        use std::cell::RefCell;
        struct Section<'a>(usize, &'a RefCell<Vec<usize>>);
        impl Drop for Section<'_> {
            fn drop(&mut self) {
                self.1.borrow_mut().push(self.0);
            }
        }
        for bits in [0, 1, 3, MAX_SHARD_BITS] {
            for n in [1, 17, 300, WINDOW] {
                let keys: Vec<u64> = (0..n as u64).map(|k| k * 31 + 7).collect();
                let mut touched: Vec<usize> = keys
                    .iter()
                    .map(|&k| route_slot(mult_hash(k), bits))
                    .collect();
                touched.sort_unstable();
                touched.dedup();
                let (entered, left) = (RefCell::new(Vec::new()), RefCell::new(Vec::new()));
                let enter = |i| {
                    entered.borrow_mut().push(i);
                    Section(i, &left)
                };
                Held::with(bits, keys.iter().copied(), enter, |held| {
                    for &k in &keys {
                        let hash = mult_hash(k);
                        // SAFETY: `held` entered for `keys`.
                        assert_eq!(unsafe { held.get(hash) }.0, route_slot(hash, bits));
                    }
                });
                assert_eq!(*entered.borrow(), touched, "bits {bits}, {n} keys");
                assert_eq!(*left.borrow(), touched, "bits {bits}, {n} keys");
            }
        }
    }

    #[test]
    fn shard_bits_above_the_cap_are_a_config_error() {
        let err = ShortcutIndex::try_new(MAX_SHARD_BITS + 1, fast_cfg()).unwrap_err();
        assert!(matches!(err, IndexError::Config { .. }), "got {err:?}");
    }
}
