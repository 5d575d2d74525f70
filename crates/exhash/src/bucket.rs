//! The page-sized bucket: a leaf holding `(u64 key, u64 value)` entries
//! under open addressing / linear probing.
//!
//! Buckets live in [`shortcut_rewire::PagePool`] pages so that shortcut
//! directories can be rewired to them: one 4 KB page is one bucket of
//! [`BUCKET_CAPACITY`] entries, and one page-table entry stands for it.
//!
//! A [`BucketRef`] is the page's base pointer and nothing else; it is
//! valid for as long as the underlying page is allocated, which the
//! owning index guarantees. A bucket never moves: it stays on the page it
//! was made on (the page of its hash suffix, when that was free).
//!
//! Page layout (little-endian, 8-byte aligned, `W = ceil(capacity / 64)`
//! = 4):
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

/// Home slot of `key`: multiply-shift range reduction
/// (`hash · capacity >> 64`) instead of `hash % capacity`. The
/// distribution is as uniform as the hash, and the widening multiply
/// replaces a ~25-cycle division that sat at the head of every probe's
/// data-dependent chain (hash → slot → bitmap word → entry).
#[inline]
fn home_slot(key: u64) -> usize {
    ((bucket_slot_hash(key) as u128 * BUCKET_CAPACITY as u128) >> 64) as usize
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

/// Entries per bucket: the most whose two bitmaps and entries fit a 4 KB
/// page, `(4096 − 72) / 16`.
pub const BUCKET_CAPACITY: usize = 251;

/// Words of each bitmap.
const BITMAP_WORDS: usize = BUCKET_CAPACITY.div_ceil(64);

/// Header offset of the occupied bitmap.
const OCCUPIED_OFF: usize = 8;

/// Header offset of the tombstone bitmap.
const TOMBSTONE_OFF: usize = OCCUPIED_OFF + 8 * BITMAP_WORDS;

/// Offset of the entry array.
const ENTRIES_OFF: usize = OCCUPIED_OFF + 16 * BITMAP_WORDS;

/// Bytes a bucket of `capacity` entries uses.
const fn bucket_bytes(capacity: usize) -> usize {
    OCCUPIED_OFF + 16 * capacity.div_ceil(64) + 16 * capacity
}

const _: () = assert!(
    bucket_bytes(BUCKET_CAPACITY) <= PAGE_SIZE_4K
        && bucket_bytes(BUCKET_CAPACITY + 1) > PAGE_SIZE_4K
);

/// Slots the inlined tier of the probe walks before it leaves the rest of
/// the run to the outlined one. At the paper's load limit a run averages
/// ~1.3 slots, so this answers nearly every probe inline.
const FAST_PROBE_SLOTS: usize = 8;

/// Live entries per bucket in the steady state at load factor `load`:
/// capacity × load, halved for splitting churn (a bucket spends its life
/// between half-full-of-limit and the limit) — the classic ~40 at the
/// paper's 0.35. The input of capacity-driven pool sizing.
pub(crate) fn steady_entries(load: f64) -> usize {
    (((BUCKET_CAPACITY as f64) * load) / 2.0).max(1.0) as usize
}

/// The bucket's geometry: one 4 KB page of [`BUCKET_CAPACITY`] entries,
/// the only one. A stub of constants, kept only because the benchmark
/// sizes its pools and probes buckets through it; the change to the
/// benchmark that drops those calls drops this type too.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BucketLayout;

impl BucketLayout {
    /// The layout of a bucket filling one slot: the only one.
    pub fn for_slot(_: SlotLayout) -> Self {
        BucketLayout
    }

    /// The paper's 4 KB layout: the only one.
    pub fn base() -> Self {
        BucketLayout
    }

    /// [`BUCKET_CAPACITY`].
    #[inline]
    pub fn capacity(self) -> usize {
        BUCKET_CAPACITY
    }

    /// Steady-state live entries per bucket at load factor `load`.
    pub fn steady_entries(self, load: f64) -> usize {
        steady_entries(load)
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

/// A typed view over a bucket page: its address, nothing else, so that it
/// travels in one register. Copyable; does not own the page.
#[derive(Debug, Clone, Copy)]
pub struct BucketRef {
    ptr: *mut u8,
}

// A field beside the pointer would put every by-value `BucketRef` — the
// cold probe tiers' argument — in memory.
const _: () = assert!(size_of::<BucketRef>() == size_of::<*mut u8>());

impl BucketRef {
    /// Wrap a bucket page.
    ///
    /// # Safety
    ///
    /// `ptr` must point to the start of a live, writable 4 KB page that is
    /// used exclusively as a bucket and outlives all reads through the ref.
    #[inline(always)]
    pub(crate) unsafe fn at(ptr: *mut u8) -> Self {
        debug_assert!(!ptr.is_null());
        debug_assert_eq!(ptr as usize % 8, 0, "bucket page must be aligned");
        BucketRef { ptr }
    }

    /// Wrap a bucket page; `layout` is unused — a stub argument kept only
    /// because the benchmark passes it (see [`BucketLayout`]).
    ///
    /// # Safety
    ///
    /// As for the crate's own constructor: `ptr` must point to the start
    /// of a live, writable 4 KB page that is used exclusively as a bucket
    /// and outlives all reads through the ref.
    pub unsafe fn from_ptr(ptr: *mut u8, layout: BucketLayout) -> Self {
        let _ = layout;
        // SAFETY: the caller's obligation, passed on.
        unsafe { Self::at(ptr) }
    }

    /// The underlying page pointer.
    #[inline]
    pub fn as_ptr(self) -> *mut u8 {
        self.ptr
    }

    /// Zero the **whole** page and set the local depth: an empty bucket
    /// with every byte defined, which [`Self::reset`] does not promise.
    pub fn init(self, local_depth: u32) {
        // SAFETY: per the constructor's contract the whole page is ours.
        unsafe {
            std::ptr::write_bytes(self.ptr, 0, PAGE_SIZE_4K);
        }
        self.set_local_depth(local_depth);
    }

    /// Empty the bucket and set the local depth by zeroing the header and
    /// both bitmaps only (72 B of the 4 KB page). The entry array keeps its
    /// bytes, a split bucket's old entries included: a probe reads the key
    /// of an occupied slot only.
    pub fn reset(self, local_depth: u32) {
        // SAFETY: the header and bitmaps are the page's first
        // `ENTRIES_OFF` bytes.
        unsafe {
            std::ptr::write_bytes(self.ptr, 0, ENTRIES_OFF);
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
    fn bit(self, base: usize, slot: usize) -> bool {
        self.bitmap_word(base, slot / 64) >> (slot % 64) & 1 == 1
    }

    /// [`Self::bit`] of the tombstone bitmap, off the probe's hit path:
    /// rotated into the sign so that it shares no mask with the occupied test
    /// (a mask the compiler would compute ahead of both).
    #[inline]
    fn tombstone_bit(self, slot: usize) -> bool {
        let word = self.bitmap_word(TOMBSTONE_OFF, slot / 64);
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
        debug_assert!(slot < BUCKET_CAPACITY);
        // SAFETY: in-bounds, aligned.
        unsafe { (self.ptr.add(ENTRIES_OFF + slot * 16) as *const u64).read() }
    }

    /// The whole entry of `slot`, value word by a plain load: only for a
    /// caller that holds the bucket to itself (`remove`, `for_each_entry`).
    #[inline]
    fn entry(self, slot: usize) -> (u64, u64) {
        debug_assert!(slot < BUCKET_CAPACITY);
        // SAFETY: in-bounds, aligned.
        unsafe {
            let p = self.ptr.add(ENTRIES_OFF + slot * 16) as *const u64;
            (p.read(), p.add(1).read())
        }
    }

    /// The value word of `slot`, atomic for lookups and [`Self::update`].
    #[inline(always)]
    fn value<'a>(self, slot: usize) -> &'a AtomicU64 {
        let offset = ENTRIES_OFF + slot * 16 + 8;
        // SAFETY: in-bounds and 8-aligned; the slot outlives the use.
        unsafe { AtomicU64::from_ptr(self.ptr.add(offset).cast()) }
    }

    #[inline]
    fn set_entry(self, slot: usize, key: u64, value: u64) {
        debug_assert!(slot < BUCKET_CAPACITY);
        // SAFETY: in-bounds, aligned.
        unsafe {
            let p = self.ptr.add(ENTRIES_OFF + slot * 16) as *mut u64;
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
            None => self.probe_slow(key),
        }
    }

    /// The fast tier of [`Self::probe`]; `None` leaves it to the cold one.
    #[inline(always)]
    fn probe_fast(self, key: u64) -> Option<ProbeHit> {
        let mut slot = home_slot(key);
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
            if slot == BUCKET_CAPACITY {
                slot = 0;
            }
        }
        None
    }

    /// The cold tier of [`Self::probe`]. Hashes again, so the fast tier
    /// need not keep the home slot.
    #[cold]
    #[inline(never)]
    fn probe_slow(self, key: u64) -> ProbeHit {
        self.walk(key)
    }

    /// [`Self::probe_slow`] for [`Self::get`], through to the value: the
    /// caller then keeps nothing across the call.
    #[cold]
    #[inline(never)]
    fn get_slow(self, key: u64) -> Option<u64> {
        self.value_at(self.walk(key))
    }

    /// The whole probe path of `key`, at most once round the bucket. The
    /// tombstone bit is read only at a gap, so a run of occupied slots
    /// costs the occupied word and the keys. Stopping at the first
    /// never-used slot is sound: an insert fills the first insertable slot
    /// on its key's path and a never-used slot is never made again, so no
    /// live key sits past one on its path.
    #[inline(always)]
    fn walk(self, key: u64) -> ProbeHit {
        let mut slot = home_slot(key);
        let mut first_free = None;
        for _ in 0..BUCKET_CAPACITY {
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
            if slot == BUCKET_CAPACITY {
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
                self.set_bit(TOMBSTONE_OFF, slot, false);
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
    /// header (local depth, and the whole bitmaps),
    /// the home slot's bitmap word where that lies beyond the header's
    /// line, and the home entry — one entry in four straddles two lines,
    /// hence both of its words. All three are functions of the bucket's
    /// address and the key alone, so a batched lookup can issue them for a
    /// key it will only probe several keys later.
    #[inline(always)]
    pub(crate) fn prefetch(self, key: u64) {
        let slot = home_slot(key);
        let word = OCCUPIED_OFF + slot / 64 * 8;
        let entry = ENTRIES_OFF + slot * 16;
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
            None => self.get_slow(key),
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
            None => self.get_slow(key),
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
                self.set_bit(TOMBSTONE_OFF, slot, true);
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
        assert!(
            self.count() < BUCKET_CAPACITY,
            "insert_absent into a full bucket"
        );
        let mut slot = home_slot(key);
        while self.bit(OCCUPIED_OFF, slot) {
            slot += 1;
            if slot == BUCKET_CAPACITY {
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
        for word in 0..BITMAP_WORDS {
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

    /// A heap-allocated stand-in for a pool page, every byte `fill` (a
    /// recycled pool page is not zero); not yet a bucket.
    fn raw_page(fill: u8) -> (Vec<u8>, BucketRef) {
        let mut mem = vec![fill; PAGE_SIZE_4K + 8];
        let off = mem.as_ptr().align_offset(8);
        // SAFETY: `off < 8` keeps the pointer inside the buffer, whose 8
        // spare bytes absorb the alignment shift.
        let ptr = unsafe { mem.as_mut_ptr().add(off) };
        // SAFETY: `ptr` is 8-aligned with a page of writable bytes behind
        // it, and `mem` (returned alongside) keeps them alive.
        (mem, unsafe { BucketRef::at(ptr) })
    }

    /// An empty bucket in a zeroed stand-in page.
    fn page() -> (Vec<u8>, BucketRef) {
        let (mem, b) = raw_page(0);
        b.init(0);
        (mem, b)
    }

    impl BucketRef {
        /// Bits set in the bitmap at offset `base`.
        fn bits_set(self, base: usize) -> usize {
            (0..BITMAP_WORDS)
                .map(|w| self.bitmap_word(base, w).count_ones() as usize)
                .sum()
        }

        /// Slots marked deleted and not reused since (for this crate's
        /// tests of what a split leaves behind).
        pub(crate) fn tombstones(self) -> usize {
            self.bits_set(TOMBSTONE_OFF)
        }
    }

    #[test]
    fn base_layout_matches_the_paper() {
        assert_eq!(BucketLayout::base().capacity(), BUCKET_CAPACITY);
        assert_eq!((TOMBSTONE_OFF, ENTRIES_OFF), (40, 72));
        assert_eq!(bucket_bytes(BUCKET_CAPACITY), PAGE_SIZE_4K - 8);
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
        let (_m, b) = page();
        let cap = BUCKET_CAPACITY;
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
            assert_eq!(b.get(key), Some(want), "key {key}");
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
        let start = home_slot(1);
        let mut colliders = vec![1u64];
        let mut k = 2u64;
        while colliders.len() < 3 {
            if home_slot(k) == start {
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
    /// way there is.
    mod reference {
        use super::*;
        use proptest::prelude::*;

        /// What `probe` must answer, slot by slot: the path by a modulo,
        /// both bits read at every slot, the first non-occupied slot
        /// remembered.
        fn naive(b: BucketRef, key: u64) -> ProbeHit {
            let capacity = BUCKET_CAPACITY;
            let home = home_slot(key);
            let mut first_free = None;
            for i in 0..capacity {
                let slot = (home + i) % capacity;
                let occupied = b.bit(OCCUPIED_OFF, slot);
                let tombstone = b.bit(TOMBSTONE_OFF, slot);
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
            let cold = b.probe_slow(key);
            assert_eq!(cold, want, "cold tier, key {key}");
            assert_eq!(b.get(key), b.value_at(want), "get, key {key}");
        }

        pub(super) fn history(ops: &[(u8, u64)], probes: &[u64]) {
            let (_m, b) = page();
            // A domain of half the capacity forces long runs and tombstones.
            let domain = BUCKET_CAPACITY as u64 / 2;
            for &(kind, raw) in ops {
                let key = raw % domain;
                if kind % 3 < 2 {
                    b.insert(key, !raw, BUCKET_CAPACITY);
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
            b.set_bit(TOMBSTONE_OFF, slot, false);
            b.set_count(b.count() + 1);
        }

        /// Make the unoccupied `slot` a tombstone, as a remove does.
        fn bury(b: BucketRef, slot: usize) {
            b.set_bit(TOMBSTONE_OFF, slot, true);
        }

        /// One bucket per way out of the fast tier, built around the home
        /// slot of the key it is for; each builder returns where that key
        /// then goes, if anywhere. The key is checked absent and present.
        fn cold_exits(key: u64) {
            let cap = BUCKET_CAPACITY;
            let run = FAST_PROBE_SLOTS + 1;
            let at = |home: usize, i: usize| (home + i) % cap;
            let filler = |i: usize| !key ^ i as u64;
            let fill = |b: BucketRef, home: usize, n: usize| {
                (0..n).for_each(|i| occupy(b, at(home, i), filler(i)));
            };
            // A key whose run of `run` slots wraps at the capacity.
            let wrapping = (0..)
                .map(|i| key.wrapping_add(i))
                .find(|&k| home_slot(k) > cap - run)
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
                let (_m, b) = page();
                let place = build(b, home_slot(key));
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
                cold_exits(probes[0]);
            }
        }
    }

    /// The probe's two tiers — inline `probe` and the cold tier alone —
    /// and `get` agree with the naive walk after each insert and remove of
    /// a random history.
    mod agreement {
        use super::reference::history;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]
            #[test]
            fn backends_agree_at_every_layout(
                ops in proptest::collection::vec((any::<u8>(), any::<u64>()), 1..120),
                probes in proptest::collection::vec(any::<u64>(), 4..12),
            ) {
                history(&ops, &probes);
            }
        }
    }

    #[test]
    fn vector_kernels_match_scalar_on_a_full_bucket() {
        // Saturate a bucket by inserts (no tombstones, every bitmap word
        // all-ones, the capacity-boundary partial word live): every key
        // reads through both probe tiers as the naive walk does, and a
        // missing key wraps the whole table to Full.
        let (_m, b) = page();
        let cap = BUCKET_CAPACITY;
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

        fn run(ops: &[(u8, u64)]) {
            let (_mem, b) = raw_page(0xA5);
            b.reset(3);
            let domain = BUCKET_CAPACITY as u64 / 2;
            let mut model = HashMap::new();
            for &(kind, raw) in ops {
                let key = raw % domain;
                if kind % 3 < 2 {
                    b.insert(key, !raw, BUCKET_CAPACITY);
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
                    b.insert(key, raw, BUCKET_CAPACITY);
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
                run(&ops);
            }
        }
    }
}
