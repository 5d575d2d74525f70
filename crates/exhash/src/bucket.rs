//! The slot-sized bucket: a leaf holding `(u64 key, u64 value)` entries
//! under open addressing / linear probing.
//!
//! Buckets live in [`shortcut_rewire::PagePool`] slots so that shortcut
//! directories can be rewired to them. The bucket's capacity and field
//! offsets are **derived from the pool's slot size** via [`BucketLayout`]:
//! at the paper's default 4 KB slots the layout is the classic
//! 251-entry page ([`BUCKET_CAPACITY`]), while a `2^k`-page slot holds
//! roughly `2^k` times as many entries — fewer splits, a shallower
//! directory, and fewer doublings for the same key count.
//!
//! A [`BucketRef`] is a thin wrapper around the slot's base pointer plus
//! its layout; it is valid for as long as the underlying slot is
//! allocated, which the owning index guarantees.
//!
//! **Relocation.** Compaction may physically move a bucket to another pool
//! slot (copy-then-retire, see [`shortcut_rewire::PagePool::relocate_page`]).
//! A `BucketRef` is therefore only as stable as the translation that
//! produced it: the owning directory. Never cache one across an operation
//! that can compact (splits, doublings, explicit passes) — re-fetch it
//! through the directory instead.
//!
//! Slot layout (little-endian, 8-byte aligned, `W = ceil(capacity / 64)`):
//!
//! ```text
//! offset          0: u32  local_depth
//! offset          4: u32  count           (live entries)
//! offset          8: [u64; W] occupied    bitmap (bit i = slot i holds an entry)
//! offset   8 +  8*W: [u64; W] tombstone   bitmap (bit i = slot i was deleted)
//! offset   8 + 16*W: [(u64, u64); capacity] entries
//! ```

use crate::hash::bucket_slot_hash;
use shortcut_rewire::{SlotLayout, PAGE_SIZE_4K};
use std::sync::atomic::{AtomicU64, Ordering};

/// How the bucket probe compares keys: one scalar per-slot walk, on every
/// target. A stub kept, with [`probe_backend`], only because the
/// benchmark's host record names it; the change to the benchmark that
/// drops that record drops this stub too.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeBackend {
    /// The per-slot walk.
    Scalar,
}

impl ProbeBackend {
    /// Stable lowercase name, as the benchmark records it.
    pub fn name(self) -> &'static str {
        match self {
            ProbeBackend::Scalar => "scalar",
        }
    }
}

/// The probe backend: [`ProbeBackend::Scalar`], the only one.
pub fn probe_backend() -> ProbeBackend {
    ProbeBackend::Scalar
}

/// Bytes per cache line on every supported target.
const CACHE_LINE: usize = 64;

/// Hint that the line holding `p` will be read soon. A prefetch never
/// faults and returns nothing, so `p` need not be dereferenceable — which
/// is what lets the batched lookups issue it for keys whose bucket they
/// have not reached yet (CONCURRENCY.md §2).
#[inline(always)]
pub(crate) fn prefetch<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `prefetcht0` is a hint: it reads no memory architecturally
    // and cannot fault, whatever `p` is.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(p as *const i8);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Home slot of `key` in a bucket of `capacity` slots: multiply-shift
/// range reduction (`hash · capacity >> 64`) instead of `hash % capacity`.
/// The distribution is as uniform as the hash, and the widening multiply
/// replaces a ~25-cycle division that sat at the head of every probe's
/// data-dependent chain (hash → slot → bitmap word → entry).
#[inline]
fn home_slot(key: u64, capacity: usize) -> usize {
    ((bucket_slot_hash(key) as u128 * capacity as u128) >> 64) as usize
}

/// Outcome of the unified bucket probe for a key. Two words — a tag and
/// one slot — so the outlined probe tier returns it in registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProbeHit {
    /// Key found live in this slot.
    Found(usize),
    /// Key absent; this is the first insertable slot on its probe path (a
    /// tombstone, or the never-used terminator).
    Free(usize),
    /// Key absent, and the probe wrapped the whole bucket without an
    /// insertable slot.
    Full,
}

/// Entries per 4 KB bucket (`(4096 − 72) / 16`): the capacity of the
/// default [`BucketLayout::base`], kept as a named constant for the
/// page-sized schemes (HT, CH) and tests.
pub const BUCKET_CAPACITY: usize = 251;

/// Header offset of the occupied bitmap (independent of capacity).
const OCCUPIED_OFF: usize = 8;

/// Slots the inlined tier of the probe walks before it leaves the rest of
/// the run to the outlined one. At the paper's load limit a run averages
/// ~1.3 slots, so this answers nearly every probe inline.
const FAST_PROBE_SLOTS: usize = 8;

/// Derived geometry of a bucket inside a slot of a given byte size: the
/// largest entry capacity whose entries plus the two bitmaps fit, and the
/// resulting field offsets. Constructed once per index from the pool's
/// [`SlotLayout`] and carried by every [`BucketRef`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BucketLayout {
    bytes: u32,
    capacity: u32,
    tombstone_off: u32,
    entries_off: u32,
}

impl BucketLayout {
    /// Layout of a bucket filling `bytes` (the slot size): the maximum
    /// `capacity` with `8 + 16·⌈capacity/64⌉ + 16·capacity ≤ bytes`.
    ///
    /// # Panics
    ///
    /// Unless `bytes` is a power of two of at least 128.
    pub fn for_bytes(bytes: usize) -> Self {
        // A capacity of zero would break the probe's fast window, which
        // wraps but is not clamped to the capacity; `from_hot_fields`
        // rounds up to the slot size.
        assert!(
            bytes >= 128 && bytes.is_power_of_two(),
            "no bucket fits a slot of {bytes} B"
        );
        let mut capacity = (bytes - 8) / 16; // ignores the bitmaps
        while 8 + 16 * capacity.div_ceil(64) + 16 * capacity > bytes {
            capacity -= 1;
        }
        let words = capacity.div_ceil(64);
        BucketLayout {
            bytes: bytes as u32,
            capacity: capacity as u32,
            tombstone_off: (OCCUPIED_OFF + 8 * words) as u32,
            entries_off: (OCCUPIED_OFF + 16 * words) as u32,
        }
    }

    /// Layout of a bucket filling one slot of `slot_layout`.
    pub fn for_slot(slot_layout: SlotLayout) -> Self {
        Self::for_bytes(slot_layout.slot_bytes())
    }

    /// This layout as the constants of a read descriptor, for an index
    /// whose directory hash is the key's hash rotated left by `hash_rot`.
    pub(crate) fn read_geometry(self, hash_rot: u32) -> shortcut_core::ReadGeometry {
        shortcut_core::ReadGeometry {
            slot_shift: self.bytes.trailing_zeros(),
            hash_rot,
            bucket_capacity: self.capacity,
            bucket_entries_off: self.entries_off,
        }
    }

    /// The layout a read descriptor carries.
    #[inline(always)]
    pub(crate) fn from_geometry(g: shortcut_core::ReadGeometry) -> Self {
        Self::from_hot_fields(g.bucket_capacity, g.bucket_entries_off)
    }

    /// The layout back from the two fields a probe's hit path reads — all
    /// its caller need keep for [`BucketRef::probe_slow`]. The others
    /// follow: the two bitmaps are equally long, and a slot is a power of
    /// two less than twice what its bucket uses.
    #[inline(always)]
    fn from_hot_fields(capacity: u32, entries_off: u32) -> Self {
        BucketLayout {
            bytes: (entries_off + 16 * capacity).next_power_of_two(),
            capacity,
            tombstone_off: (OCCUPIED_OFF as u32 + entries_off) / 2,
            entries_off,
        }
    }

    /// The paper's 4 KB layout ([`BUCKET_CAPACITY`] entries).
    pub fn base() -> Self {
        Self::for_bytes(PAGE_SIZE_4K)
    }

    /// Entry capacity of the bucket.
    #[inline]
    pub fn capacity(self) -> usize {
        self.capacity as usize
    }

    /// Bucket size in bytes (== the slot size).
    #[inline]
    pub fn bytes(self) -> usize {
        self.bytes as usize
    }

    /// Steady-state live entries per bucket at load factor `load`:
    /// capacity × load, halved for splitting churn (a bucket spends its
    /// life between half-full-of-limit and the limit). The shared input
    /// for capacity-driven pool sizing — the classic ~40 per 4 KB bucket
    /// at the paper's 0.35, scaling with the slot size.
    pub fn steady_entries(self, load: f64) -> usize {
        (((self.capacity() as f64) * load) / 2.0).max(1.0) as usize
    }
}

/// Result of a bucket insert attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// Key inserted into a fresh slot.
    Inserted,
    /// Key existed; its value was overwritten.
    Updated,
    /// No free slot (or the load limit was reached): the bucket must split.
    Full,
}

/// A typed view over a bucket slot. Copyable; does not own the slot.
#[derive(Debug, Clone, Copy)]
pub struct BucketRef {
    ptr: *mut u8,
    layout: BucketLayout,
}

impl BucketRef {
    /// Wrap a bucket slot.
    ///
    /// # Safety
    ///
    /// `ptr` must point to the start of a live, writable slot of at least
    /// `layout.bytes()` that is used exclusively as a bucket (of the same
    /// layout) and outlives all reads through the ref.
    pub unsafe fn from_ptr(ptr: *mut u8, layout: BucketLayout) -> Self {
        debug_assert!(!ptr.is_null());
        debug_assert_eq!(ptr as usize % 8, 0, "bucket slot must be aligned");
        let rebuilt = BucketLayout::from_hot_fields(layout.capacity, layout.entries_off);
        debug_assert_eq!(layout, rebuilt, "see `from_hot_fields`");
        BucketRef { ptr, layout }
    }

    /// The underlying slot pointer.
    #[inline]
    pub fn as_ptr(self) -> *mut u8 {
        self.ptr
    }

    /// The bucket's layout.
    #[inline]
    pub fn layout(self) -> BucketLayout {
        self.layout
    }

    /// Zero the **whole** slot and set the local depth: an empty bucket
    /// with every byte defined, which [`Self::reset`] does not promise.
    pub fn init(self, local_depth: u32) {
        // SAFETY: per from_ptr contract the whole slot is ours.
        unsafe {
            std::ptr::write_bytes(self.ptr, 0, self.layout.bytes());
        }
        self.set_local_depth(local_depth);
    }

    /// Empty the bucket and set the local depth by zeroing the header and
    /// both bitmaps only (72 B of a 4 KB slot). The entry array keeps its
    /// bytes, a recycled pool slot's garbage included: a probe reads the
    /// key of an occupied slot only.
    pub fn reset(self, local_depth: u32) {
        // SAFETY: the header and bitmaps are the slot's first
        // `entries_off` bytes (from_ptr contract).
        unsafe {
            std::ptr::write_bytes(self.ptr, 0, self.layout.entries_off as usize);
        }
        self.set_local_depth(local_depth);
    }

    /// The bucket's local depth (how many hash bits it distinguishes).
    #[inline]
    pub fn local_depth(self) -> u32 {
        // SAFETY: in-bounds, aligned.
        unsafe { (self.ptr as *const u32).read() }
    }

    /// Set the local depth.
    #[inline]
    pub fn set_local_depth(self, d: u32) {
        // SAFETY: in-bounds, aligned.
        unsafe { (self.ptr as *mut u32).write(d) }
    }

    /// Number of live entries.
    #[inline]
    pub fn count(self) -> usize {
        // SAFETY: in-bounds, aligned.
        unsafe { (self.ptr.add(4) as *const u32).read() as usize }
    }

    #[inline]
    fn set_count(self, c: usize) {
        // SAFETY: in-bounds, aligned.
        unsafe { (self.ptr.add(4) as *mut u32).write(c as u32) }
    }

    #[inline]
    fn bitmap_word(self, base: usize, word: usize) -> u64 {
        // SAFETY: word < ceil(capacity/64), base is a bitmap offset.
        unsafe { (self.ptr.add(base + word * 8) as *const u64).read() }
    }

    #[inline]
    fn set_bitmap_word(self, base: usize, word: usize, v: u64) {
        // SAFETY: word < ceil(capacity/64), base is a bitmap offset.
        unsafe { (self.ptr.add(base + word * 8) as *mut u64).write(v) }
    }

    #[inline]
    fn tombstone_off(self) -> usize {
        self.layout.tombstone_off as usize
    }

    #[inline]
    fn bit(self, base: usize, slot: usize) -> bool {
        self.bitmap_word(base, slot / 64) >> (slot % 64) & 1 == 1
    }

    /// [`Self::bit`] of the tombstone bitmap, off the probe's hit path:
    /// rotated into the sign so that it shares no mask with the occupied test
    /// (a mask the compiler would compute ahead of both).
    #[inline]
    fn tombstone_bit(self, slot: usize) -> bool {
        let word = self.bitmap_word(self.tombstone_off(), slot / 64);
        // `!slot` is `63 - slot % 64` modulo 64, the rotation's own modulus.
        (word.rotate_left(!slot as u32) as i64) < 0
    }

    #[inline]
    fn set_bit(self, base: usize, slot: usize, on: bool) {
        let w = self.bitmap_word(base, slot / 64);
        let mask = 1u64 << (slot % 64);
        self.set_bitmap_word(base, slot / 64, if on { w | mask } else { w & !mask });
    }

    /// The key word of `slot`: all a probe reads of an entry. Keys are
    /// written only with readers shut out; the value word beside it is
    /// not (see [`Self::value`]).
    #[inline(always)]
    fn key(self, slot: usize) -> u64 {
        debug_assert!(slot < self.layout.capacity());
        // SAFETY: in-bounds, aligned.
        unsafe { (self.ptr.add(self.layout.entries_off as usize + slot * 16) as *const u64).read() }
    }

    /// The whole entry of `slot`, value word by a plain load: only for a
    /// caller that holds the bucket to itself (`remove`, `for_each_entry`).
    #[inline]
    fn entry(self, slot: usize) -> (u64, u64) {
        debug_assert!(slot < self.layout.capacity());
        // SAFETY: in-bounds, aligned.
        unsafe {
            let p = self.ptr.add(self.layout.entries_off as usize + slot * 16) as *const u64;
            (p.read(), p.add(1).read())
        }
    }

    /// The value word of `slot`, atomic for lookups and [`Self::update`].
    #[inline(always)]
    fn value<'a>(self, slot: usize) -> &'a AtomicU64 {
        let offset = self.layout.entries_off as usize + slot * 16 + 8;
        // SAFETY: in-bounds and 8-aligned; the slot outlives the use.
        unsafe { AtomicU64::from_ptr(self.ptr.add(offset).cast()) }
    }

    #[inline]
    fn set_entry(self, slot: usize, key: u64, value: u64) {
        debug_assert!(slot < self.layout.capacity());
        // SAFETY: in-bounds, aligned.
        unsafe {
            let p = self.ptr.add(self.layout.entries_off as usize + slot * 16) as *mut u64;
            p.write(key);
            p.add(1).write(value);
        }
    }

    /// The probe behind `insert`/`update`/`remove`: walk the linear probe
    /// path of `key` from its home slot one slot at a time, comparing the
    /// key of each occupied slot, remembering the first insertable one (a
    /// tombstone, or the never-used slot that ends the path), and wrapping
    /// at the capacity with an increment and a reset, not a modulo.
    ///
    /// Two tiers of one walk. The *fast tier* ([`Self::probe_fast`],
    /// inlined into the caller) walks the first [`FAST_PROBE_SLOTS`] slots
    /// of the run while every one is occupied: a match is Found, a
    /// never-used slot is Free (every earlier slot was occupied, so it is
    /// also the first insertable one). A tombstone, where the first-free
    /// bookkeeping starts, or a run outlasting the window leaves through
    /// one call to the *cold tier* ([`Self::probe_slow`]), which is the
    /// same walk carried on over the whole bucket, bookkeeping included.
    /// It starts again at the home slot: the few slots walked twice are on
    /// the path that is already expensive.
    #[inline]
    fn probe(self, key: u64) -> ProbeHit {
        match self.probe_fast(key) {
            Some(hit) => hit,
            None => Self::probe_slow(self.ptr, self.layout.capacity, self.layout.entries_off, key),
        }
    }

    /// The fast tier of [`Self::probe`]; `None` leaves it to the cold one.
    #[inline(always)]
    fn probe_fast(self, key: u64) -> Option<ProbeHit> {
        let capacity = self.layout.capacity();
        let mut slot = home_slot(key, capacity);
        for _ in 0..FAST_PROBE_SLOTS {
            if self.bit(OCCUPIED_OFF, slot) {
                if self.key(slot) == key {
                    return Some(ProbeHit::Found(slot));
                }
            } else if !self.tombstone_bit(slot) {
                return Some(ProbeHit::Free(slot));
            } else {
                break;
            }
            slot += 1;
            if slot == capacity {
                slot = 0;
            }
        }
        None
    }

    /// The cold tier of [`Self::probe`]. Takes the bucket as scalars, and
    /// only those the fast tier has in registers anyway: a by-value
    /// `BucketRef` (24 bytes) or `BucketLayout` (16) is passed in memory,
    /// which would put every caller's bucket on its stack. Hashes again,
    /// so the fast tier need not keep the home slot either.
    #[cold]
    #[inline(never)]
    fn probe_slow(ptr: *mut u8, capacity: u32, entries_off: u32, key: u64) -> ProbeHit {
        let layout = BucketLayout::from_hot_fields(capacity, entries_off);
        BucketRef { ptr, layout }.walk(key)
    }

    /// [`Self::probe_slow`] for [`Self::get`], through to the value: the
    /// caller then keeps neither the bucket nor its layout across the call.
    #[cold]
    #[inline(never)]
    fn get_slow(ptr: *mut u8, capacity: u32, entries_off: u32, key: u64) -> Option<u64> {
        let layout = BucketLayout::from_hot_fields(capacity, entries_off);
        let this = BucketRef { ptr, layout };
        this.value_at(this.walk(key))
    }

    /// The whole probe path of `key`, at most once round the bucket. The
    /// tombstone bit is read only at a gap, so a run of occupied slots
    /// costs the occupied word and the keys. Stopping at the first
    /// never-used slot is sound: an insert fills the first insertable slot
    /// on its key's path and a never-used slot is never made again, so no
    /// live key sits past one on its path.
    #[inline(always)]
    fn walk(self, key: u64) -> ProbeHit {
        let capacity = self.layout.capacity();
        let mut slot = home_slot(key, capacity);
        let mut first_free = None;
        for _ in 0..capacity {
            if self.bit(OCCUPIED_OFF, slot) {
                if self.key(slot) == key {
                    return ProbeHit::Found(slot);
                }
            } else {
                let free = *first_free.get_or_insert(slot);
                if !self.tombstone_bit(slot) {
                    return ProbeHit::Free(free);
                }
            }
            slot += 1;
            if slot == capacity {
                slot = 0;
            }
        }
        first_free.map_or(ProbeHit::Full, ProbeHit::Free)
    }

    #[inline(always)]
    fn value_at(self, hit: ProbeHit) -> Option<u64> {
        match hit {
            ProbeHit::Found(slot) => Some(self.value(slot).load(Ordering::Relaxed)),
            _ => None,
        }
    }
    /// Insert or update `key`, refusing (returning [`InsertOutcome::Full`])
    /// once `max_entries` live entries are reached and the key is new.
    /// Forced inline, as [`Self::remove`]: a by-value `BucketRef` passed to
    /// a call goes through memory.
    #[inline(always)]
    pub fn insert(self, key: u64, value: u64, max_entries: usize) -> InsertOutcome {
        match self.probe(key) {
            ProbeHit::Found(slot) => {
                self.set_entry(slot, key, value);
                InsertOutcome::Updated
            }
            ProbeHit::Free(slot) if self.count() < max_entries => {
                self.set_entry(slot, key, value);
                self.set_bit(OCCUPIED_OFF, slot, true);
                self.set_bit(self.tombstone_off(), slot, false);
                self.set_count(self.count() + 1);
                InsertOutcome::Inserted
            }
            ProbeHit::Free(_) | ProbeHit::Full => InsertOutcome::Full,
        }
    }

    /// Store `value` for `key` if present: one atomic store of its value
    /// word, safe beside readers (CONCURRENCY.md §4). `false` if absent.
    #[inline]
    pub fn update(self, key: u64, value: u64) -> bool {
        let ProbeHit::Found(slot) = self.probe(key) else {
            return false;
        };
        self.value(slot).store(value, Ordering::Relaxed);
        true
    }

    /// Ask the cache for the lines a probe for `key` reads first: the
    /// header (local depth, and on page-sized buckets the whole bitmaps),
    /// the home slot's bitmap word where that lies beyond the header's
    /// line, and the home entry — one entry in four straddles two lines,
    /// hence both of its words. All three are functions of the bucket's
    /// address and the key alone, so a batched lookup can issue them for a
    /// key it will only probe several keys later.
    #[inline(always)]
    pub(crate) fn prefetch(self, key: u64) {
        let slot = home_slot(key, self.layout.capacity());
        let word = OCCUPIED_OFF + slot / 64 * 8;
        let entry = self.layout.entries_off as usize + slot * 16;
        prefetch(self.ptr);
        if word >= CACHE_LINE {
            prefetch(self.ptr.wrapping_add(word));
        }
        prefetch(self.ptr.wrapping_add(entry));
        prefetch(self.ptr.wrapping_add(entry + 8));
    }

    /// Look up `key`.
    #[inline]
    pub fn get(self, key: u64) -> Option<u64> {
        match self.probe_fast(key) {
            Some(hit) => self.value_at(hit),
            None => Self::get_slow(self.ptr, self.layout.capacity, self.layout.entries_off, key),
        }
    }

    /// [`Self::get`], inlined into the caller whatever else in its codegen
    /// unit probes: the shortcut hit path, which is mostly this probe.
    /// (`get` does not call it: a one-call body would hand the forced
    /// inline to every caller of `get`.)
    #[inline(always)]
    pub(crate) fn get_inlined(self, key: u64) -> Option<u64> {
        match self.probe_fast(key) {
            Some(hit) => self.value_at(hit),
            None => Self::get_slow(self.ptr, self.layout.capacity, self.layout.entries_off, key),
        }
    }

    /// Remove `key`, returning its value. Shares `get`'s probe, including
    /// its early termination at the first never-used slot.
    #[inline(always)]
    pub fn remove(self, key: u64) -> Option<u64> {
        match self.probe(key) {
            ProbeHit::Found(slot) => {
                let v = self.entry(slot).1;
                self.set_bit(OCCUPIED_OFF, slot, false);
                self.set_bit(self.tombstone_off(), slot, true);
                self.set_count(self.count() - 1);
                Some(v)
            }
            _ => None,
        }
    }

    /// Insert a key the caller knows to be absent, into a bucket it knows
    /// to be tombstone-free with room left (a split re-placing entries
    /// after [`Self::reset`]): the first unoccupied slot from the home
    /// slot on takes it. No duplicate search, no load-limit test.
    pub fn insert_absent(self, key: u64, value: u64) {
        let capacity = self.layout.capacity();
        assert!(self.count() < capacity, "insert_absent into a full bucket");
        let mut slot = home_slot(key, capacity);
        while self.bit(OCCUPIED_OFF, slot) {
            slot += 1;
            if slot == capacity {
                slot = 0;
            }
        }
        debug_assert!(!self.tombstone_bit(slot), "bucket has tombstones");
        self.set_entry(slot, key, value);
        self.set_bit(OCCUPIED_OFF, slot, true);
        self.set_count(self.count() + 1);
    }

    /// Iterate live entries without allocating.
    pub fn for_each_entry(self, mut f: impl FnMut(u64, u64)) {
        for word in 0..self.layout.capacity().div_ceil(64) {
            let mut occupied = self.bitmap_word(OCCUPIED_OFF, word);
            while occupied != 0 {
                let (k, v) = self.entry(word * 64 + occupied.trailing_zeros() as usize);
                f(k, v);
                occupied &= occupied - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A heap-allocated stand-in for a pool slot of `layout.bytes()`, every
    /// byte `fill` (a recycled pool page is not zero); not yet a bucket.
    fn raw_slot(layout: BucketLayout, fill: u8) -> (Vec<u8>, BucketRef) {
        let mut mem = vec![fill; layout.bytes() + 8];
        let off = mem.as_ptr().align_offset(8);
        // SAFETY: `off < 8` keeps the pointer inside the buffer, whose 8
        // spare bytes absorb the alignment shift.
        let ptr = unsafe { mem.as_mut_ptr().add(off) };
        // SAFETY: `ptr` is 8-aligned with `layout.bytes()` writable bytes
        // behind it, and `mem` (returned alongside) keeps them alive.
        (mem, unsafe { BucketRef::from_ptr(ptr, layout) })
    }

    /// An empty bucket in a zeroed stand-in slot.
    fn slot(layout: BucketLayout) -> (Vec<u8>, BucketRef) {
        let (mem, b) = raw_slot(layout, 0);
        b.init(0);
        (mem, b)
    }

    fn page() -> (Vec<u8>, BucketRef) {
        slot(BucketLayout::base())
    }

    impl BucketRef {
        /// Bits set in the bitmap at offset `base`.
        fn bits_set(self, base: usize) -> usize {
            (0..self.layout.capacity().div_ceil(64))
                .map(|w| self.bitmap_word(base, w).count_ones() as usize)
                .sum()
        }

        /// Slots marked deleted and not reused since (for this crate's
        /// tests of what a split leaves behind).
        pub(crate) fn tombstones(self) -> usize {
            self.bits_set(self.tombstone_off())
        }
    }

    #[test]
    fn base_layout_matches_the_paper() {
        let l = BucketLayout::base();
        assert_eq!(l.capacity(), BUCKET_CAPACITY);
        assert_eq!(l.bytes(), PAGE_SIZE_4K);
        assert_eq!(l.tombstone_off, 40);
        assert_eq!(l.entries_off, 72);
    }

    #[test]
    fn derived_layouts_fill_the_slot_tightly() {
        for k in 0..=SlotLayout::MAX_SLOT_POWER {
            let bytes = PAGE_SIZE_4K << k;
            let l = BucketLayout::for_slot(SlotLayout::new(k).unwrap());
            let words = l.capacity().div_ceil(64);
            let used = 8 + 16 * words + 16 * l.capacity();
            assert!(used <= bytes, "k={k}: {used} > {bytes}");
            // Not wasting a whole extra entry's worth of space.
            let cap1 = l.capacity() + 1;
            assert!(
                8 + 16 * cap1.div_ceil(64) + 16 * cap1 > bytes,
                "k={k}: capacity {} too conservative",
                l.capacity()
            );
            assert_eq!(l.tombstone_off as usize, 8 + 8 * words);
            assert_eq!(l.entries_off as usize, 8 + 16 * words);
        }
    }

    #[test]
    fn insert_get_roundtrip() {
        let (_m, b) = page();
        assert_eq!(b.insert(1, 100, BUCKET_CAPACITY), InsertOutcome::Inserted);
        assert_eq!(b.insert(2, 200, BUCKET_CAPACITY), InsertOutcome::Inserted);
        assert_eq!(b.get(1), Some(100));
        assert_eq!(b.get(2), Some(200));
        assert_eq!(b.get(3), None);
        assert_eq!(b.count(), 2);
    }

    #[test]
    fn update_in_place() {
        let (_m, b) = page();
        b.insert(7, 1, BUCKET_CAPACITY);
        assert_eq!(b.insert(7, 2, BUCKET_CAPACITY), InsertOutcome::Updated);
        assert_eq!(b.get(7), Some(2));
        assert_eq!(b.count(), 1);
    }

    #[test]
    fn update_stores_a_present_value_only() {
        let (_m, b) = page();
        b.insert(7, 1, BUCKET_CAPACITY);
        assert!(b.update(7, 2));
        assert!(!b.update(8, 3), "absent: nothing written");
        assert_eq!((b.get(7), b.get(8), b.count()), (Some(2), None, 1));
    }

    #[test]
    fn key_zero_is_a_normal_key() {
        let (_m, b) = page();
        assert_eq!(b.get(0), None);
        b.insert(0, 999, BUCKET_CAPACITY);
        assert_eq!(b.get(0), Some(999));
    }

    #[test]
    fn fills_to_capacity_then_full_at_every_layout() {
        for k in [0u32, 2] {
            let layout = BucketLayout::for_slot(SlotLayout::new(k).unwrap());
            let (_m, b) = slot(layout);
            let cap = layout.capacity();
            for key in 0..cap as u64 {
                assert_eq!(
                    b.insert(key, key, cap),
                    InsertOutcome::Inserted,
                    "key {key}"
                );
            }
            assert_eq!(b.count(), cap);
            assert_eq!(b.insert(u64::MAX, 1, cap), InsertOutcome::Full);
            // Updates still work when full.
            assert_eq!(b.insert(5, 55, cap), InsertOutcome::Updated);
            for key in 0..cap as u64 {
                let want = if key == 5 { 55 } else { key };
                assert_eq!(b.get(key), Some(want), "k={k} key {key}");
            }
        }
    }

    #[test]
    fn load_limit_respected() {
        let (_m, b) = page();
        let limit = 88; // ≈ 0.35 × 251, the paper's load factor
        for k in 0..limit as u64 {
            assert_eq!(b.insert(k, k, limit), InsertOutcome::Inserted);
        }
        assert_eq!(b.insert(10_000, 1, limit), InsertOutcome::Full);
    }

    #[test]
    fn remove_then_get_miss_and_reinsert() {
        let (_m, b) = page();
        b.insert(1, 10, BUCKET_CAPACITY);
        b.insert(2, 20, BUCKET_CAPACITY);
        assert_eq!(b.remove(1), Some(10));
        assert_eq!(b.remove(1), None);
        assert_eq!(b.get(1), None);
        assert_eq!(b.get(2), Some(20));
        assert_eq!(b.count(), 1);
        // Tombstoned slot is reusable.
        assert_eq!(b.insert(1, 11, BUCKET_CAPACITY), InsertOutcome::Inserted);
        assert_eq!(b.get(1), Some(11));
    }

    #[test]
    fn tombstones_do_not_break_probe_chains() {
        // Force three keys into the same start slot by brute-force search.
        let (_m, b) = page();
        let start = home_slot(1, BUCKET_CAPACITY);
        let mut colliders = vec![1u64];
        let mut k = 2u64;
        while colliders.len() < 3 {
            if home_slot(k, BUCKET_CAPACITY) == start {
                colliders.push(k);
            }
            k += 1;
        }
        for (i, k) in colliders.iter().enumerate() {
            b.insert(*k, i as u64, BUCKET_CAPACITY);
        }
        // Delete the middle of the chain; the tail must stay reachable.
        assert_eq!(b.remove(colliders[1]), Some(1));
        assert_eq!(b.get(colliders[2]), Some(2));
        assert_eq!(b.get(colliders[0]), Some(0));
    }

    #[test]
    fn local_depth_persists() {
        let (_m, b) = page();
        b.set_local_depth(5);
        b.insert(1, 1, BUCKET_CAPACITY);
        assert_eq!(b.local_depth(), 5);
    }

    #[test]
    fn for_each_entry_visits_exactly_the_live_entries() {
        let (_m, b) = page();
        for k in 0..50u64 {
            b.insert(k, k * 2, BUCKET_CAPACITY);
        }
        b.remove(10);
        b.remove(20);
        let mut got = Vec::new();
        b.for_each_entry(|k, v| got.push((k, v)));
        got.sort_unstable();
        assert_eq!(got.len(), 48);
        assert!(!got.iter().any(|(k, _)| *k == 10 || *k == 20));
        assert!(got.iter().all(|(k, v)| *v == *k * 2));
    }

    #[test]
    fn init_clears_previous_contents() {
        let (_m, b) = page();
        for k in 0..40u64 {
            b.insert(k, k, BUCKET_CAPACITY);
        }
        b.init(3);
        assert_eq!(b.count(), 0);
        assert_eq!(b.local_depth(), 3);
        assert_eq!(b.get(5), None);
    }

    /// `probe`, both tiers, against a deliberately naive walk of the same
    /// bucket, on buckets built so that `probe` leaves its fast tier each
    /// way there is, at every layout.
    mod reference {
        use super::*;
        use proptest::prelude::*;

        /// What `probe` must answer, slot by slot: the path by a modulo,
        /// both bits read at every slot, the first non-occupied slot
        /// remembered.
        fn naive(b: BucketRef, key: u64) -> ProbeHit {
            let capacity = b.layout.capacity();
            let home = home_slot(key, capacity);
            let mut first_free = None;
            for i in 0..capacity {
                let slot = (home + i) % capacity;
                let occupied = b.bit(OCCUPIED_OFF, slot);
                let tombstone = b.bit(b.tombstone_off(), slot);
                if occupied && b.entry(slot).0 == key {
                    return ProbeHit::Found(slot);
                }
                if !occupied && first_free.is_none() {
                    first_free = Some(slot);
                }
                if !occupied && !tombstone {
                    break;
                }
            }
            first_free.map_or(ProbeHit::Full, ProbeHit::Free)
        }

        /// `probe`, its cold tier alone, and `get` answer as `naive` does.
        pub(super) fn check(b: BucketRef, key: u64) {
            let want = naive(b, key);
            assert_eq!(b.probe(key), want, "probe, key {key}");
            let (capacity, entries_off) = (b.layout.capacity, b.layout.entries_off);
            let cold = BucketRef::probe_slow(b.ptr, capacity, entries_off, key);
            assert_eq!(cold, want, "cold tier, key {key}");
            assert_eq!(b.get(key), b.value_at(want), "get, key {key}");
        }

        pub(super) fn history(layout: BucketLayout, ops: &[(u8, u64)], probes: &[u64]) {
            let (_m, b) = slot(layout);
            // A domain of half the capacity forces long runs and tombstones.
            let domain = (layout.capacity() as u64 / 2).max(8);
            for &(kind, raw) in ops {
                let key = raw % domain;
                if kind % 3 < 2 {
                    b.insert(key, !raw, layout.capacity());
                } else {
                    b.remove(key);
                }
                check(b, key);
                for &p in probes {
                    check(b, p % domain);
                }
            }
        }

        /// Make `slot` hold `key`, as an insert does.
        fn occupy(b: BucketRef, slot: usize, key: u64) {
            b.set_entry(slot, key, !key);
            b.set_bit(OCCUPIED_OFF, slot, true);
            b.set_bit(b.tombstone_off(), slot, false);
            b.set_count(b.count() + 1);
        }

        /// Make the unoccupied `slot` a tombstone, as a remove does.
        fn bury(b: BucketRef, slot: usize) {
            b.set_bit(b.tombstone_off(), slot, true);
        }

        /// One bucket per way out of the fast tier, built around the home
        /// slot of the key it is for; each builder returns where that key
        /// then goes, if anywhere. The key is checked absent and present.
        fn cold_exits(layout: BucketLayout, key: u64) {
            let cap = layout.capacity();
            let run = FAST_PROBE_SLOTS + 1;
            let at = |home: usize, i: usize| (home + i) % cap;
            let filler = |i: usize| !key ^ i as u64;
            let fill = |b: BucketRef, home: usize, n: usize| {
                (0..n).for_each(|i| occupy(b, at(home, i), filler(i)));
            };
            // A key whose run of `run` slots wraps at the capacity.
            let wrapping = (0..)
                .map(|i| key.wrapping_add(i))
                .find(|&k| home_slot(k, cap) > cap - run)
                .unwrap();
            type Build<'a> = &'a dyn Fn(BucketRef, usize) -> Option<usize>;
            let shapes: [(&str, u64, Build); 5] = [
                ("a tombstone at home", key, &|b, home| {
                    bury(b, home);
                    Some(at(home, 1))
                }),
                ("an occupied run of nine", key, &|b, home| {
                    fill(b, home, run);
                    Some(at(home, run))
                }),
                ("every gap a tombstone", key, &|b, home| {
                    fill(b, home, 1);
                    (1..cap).for_each(|i| bury(b, at(home, i)));
                    Some(at(home, cap - 1))
                }),
                ("a full bucket", key, &|b, home| {
                    fill(b, home, cap);
                    None
                }),
                ("a run wrapping at the capacity", wrapping, &|b, home| {
                    fill(b, home, run);
                    Some(at(home, run))
                }),
            ];
            for (shape, key, build) in shapes {
                let (_m, b) = slot(layout);
                let place = build(b, home_slot(key, cap));
                let fillers = b.count().min(run);
                assert_eq!(b.probe_fast(key), None, "{shape}: no cold exit");
                check(b, key);
                if let Some(target) = place {
                    occupy(b, target, key);
                    assert_eq!(b.probe_fast(key), None, "{shape}: no cold exit");
                    assert_eq!(b.probe(key), ProbeHit::Found(target), "{shape}");
                }
                (0..fillers).for_each(|i| check(b, filler(i)));
                if place.is_none() {
                    assert_eq!(b.probe(key), ProbeHit::Full, "{shape}");
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]
            #[test]
            fn probe_matches_a_naive_walk_at_every_layout(
                ops in proptest::collection::vec((any::<u8>(), any::<u64>()), 1..120),
                probes in proptest::collection::vec(any::<u64>(), 4..12),
            ) {
                for k in 0..=SlotLayout::MAX_SLOT_POWER {
                    let layout = BucketLayout::for_slot(SlotLayout::new(k).unwrap());
                    cold_exits(layout, probes[0]);
                }
            }
        }
    }

    /// The probe's two tiers — inline `probe` and the cold tier alone —
    /// and `get` agree with the naive walk after each insert and remove of
    /// a random history, at every layout.
    mod agreement {
        use super::reference::history;
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]
            #[test]
            fn backends_agree_at_every_layout(
                ops in proptest::collection::vec((any::<u8>(), any::<u64>()), 1..120),
                probes in proptest::collection::vec(any::<u64>(), 4..12),
            ) {
                for k in 0..=SlotLayout::MAX_SLOT_POWER {
                    let layout = BucketLayout::for_slot(SlotLayout::new(k).unwrap());
                    history(layout, &ops, &probes);
                }
            }
        }
    }

    #[test]
    fn vector_kernels_match_scalar_on_a_full_bucket() {
        // Saturate a bucket by inserts (no tombstones, every bitmap word
        // all-ones, the capacity-boundary partial word live): every key
        // reads through both probe tiers as the naive walk does, and a
        // missing key wraps the whole table to Full.
        for layout in [BucketLayout::base(), BucketLayout::for_bytes(512)] {
            let (_m, b) = slot(layout);
            let cap = layout.capacity();
            for key in 0..cap as u64 {
                assert_eq!(b.insert(key, key ^ 0xdead, cap), InsertOutcome::Inserted);
            }
            for key in 0..cap as u64 {
                reference::check(b, key);
                assert!(matches!(b.probe(key), ProbeHit::Found(_)), "key {key}");
            }
            reference::check(b, u64::MAX);
            assert_eq!(b.probe(u64::MAX), ProbeHit::Full, "miss");
        }
    }

    /// What a split does to each half: on a slot that starts as a recycled
    /// pool page (`0xA5` everywhere, not zeros) and then lives through a
    /// random insert/remove history (so it has tombstones), `reset` plus
    /// `insert_absent` of the survivors must leave a bucket that `probe`
    /// and `get` read exactly as a `HashMap` of the survivors — and that
    /// keeps doing so through further inserts and removes.
    mod rebuild {
        use super::*;
        use proptest::prelude::*;
        use std::collections::HashMap;

        fn assert_reads_as(b: BucketRef, model: &HashMap<u64, u64>, domain: u64) {
            assert_eq!(b.count(), model.len());
            assert_eq!(b.bits_set(OCCUPIED_OFF), b.count());
            for key in 0..domain {
                let got = b.value_at(b.probe(key));
                assert_eq!(got, model.get(&key).copied(), "probe key {key}");
                assert_eq!(b.get(key), model.get(&key).copied(), "get key {key}");
            }
        }

        fn run(layout: BucketLayout, ops: &[(u8, u64)]) {
            let (_mem, b) = raw_slot(layout, 0xA5);
            b.reset(3);
            let domain = (layout.capacity() as u64 / 2).max(8);
            let mut model = HashMap::new();
            for &(kind, raw) in ops {
                let key = raw % domain;
                if kind % 3 < 2 {
                    b.insert(key, !raw, layout.capacity());
                    model.insert(key, !raw);
                } else {
                    assert_eq!(b.remove(key), model.remove(&key));
                }
            }
            assert_reads_as(b, &model, domain);

            let mut survivors = Vec::new();
            b.for_each_entry(|k, v| survivors.push((k, v)));
            b.reset(4);
            assert_eq!((b.local_depth(), b.count()), (4, 0));
            for &(k, v) in &survivors {
                b.insert_absent(k, v);
            }
            assert_eq!(b.tombstones(), 0, "rebuilt with tombstones");
            assert_reads_as(b, &model, domain);

            // The rebuilt bucket is an ordinary one: re-insert, add, remove.
            for &(kind, raw) in ops {
                let key = (raw >> 7) % domain;
                if kind % 2 == 0 {
                    b.insert(key, raw, layout.capacity());
                    model.insert(key, raw);
                } else {
                    assert_eq!(b.remove(key), model.remove(&key));
                }
            }
            assert_reads_as(b, &model, domain);
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]
            #[test]
            fn reset_and_insert_absent_rebuild_a_dirty_slot(
                ops in proptest::collection::vec((any::<u8>(), any::<u64>()), 1..200),
            ) {
                for layout in [BucketLayout::base(), BucketLayout::for_bytes(512)] {
                    run(layout, &ops);
                }
            }
        }
    }

    #[test]
    fn large_slot_roundtrip_past_the_4k_capacity() {
        // A 16 KB bucket holds ~4x the entries of the 4 KB layout; fill it
        // well past 251 and read everything back.
        let layout = BucketLayout::for_slot(SlotLayout::new(2).unwrap());
        assert!(layout.capacity() > 4 * BUCKET_CAPACITY - 64);
        let (_m, b) = slot(layout);
        let n = (BUCKET_CAPACITY * 3) as u64;
        for k in 0..n {
            assert_eq!(
                b.insert(k, !k, layout.capacity()),
                InsertOutcome::Inserted,
                "key {k}"
            );
        }
        b.remove(100);
        for k in 0..n {
            let want = if k == 100 { None } else { Some(!k) };
            assert_eq!(b.get(k), want, "key {k}");
        }
        assert_eq!(b.count(), n as usize - 1);
    }
}
