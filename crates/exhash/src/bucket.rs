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
use std::sync::OnceLock;

/// Key-compare kernel used inside the bucket probe. The probe itself is
/// always the word-at-a-time bitmap walk (one `u64` load covers 64 slots'
/// presence/tombstone state); the backend only selects how the occupied
/// candidates within a word are compared against the probe key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeBackend {
    /// Portable bit-iteration compare (the only backend off x86-64).
    Scalar,
    /// SSE2 2-entry-wide compares (baseline on every x86-64).
    Sse2,
    /// AVX2 2-entry-per-lane-pair compares (runtime-detected).
    Avx2,
}

impl ProbeBackend {
    /// Stable lowercase name, as surfaced in stats output.
    pub fn name(self) -> &'static str {
        match self {
            ProbeBackend::Scalar => "scalar",
            ProbeBackend::Sse2 => "sse2",
            ProbeBackend::Avx2 => "avx2",
        }
    }
}

/// The process-wide probe backend: runtime feature detection (AVX2, else
/// SSE2 on x86-64, else scalar). Detected once and cached.
pub fn probe_backend() -> ProbeBackend {
    static BACKEND: OnceLock<ProbeBackend> = OnceLock::new();
    *BACKEND.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") {
                ProbeBackend::Avx2
            } else {
                ProbeBackend::Sse2
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            ProbeBackend::Scalar
        }
    })
}

/// Compare the keys of 8 consecutive entries at `p` (stride 16 B: each
/// entry is `(u64 key, u64 value)`) against `key`; bit `i` of the result
/// is set iff entry `i`'s key matches.
///
/// # Safety
///
/// `p` must be valid for reads of 128 bytes (8 whole entries). Alignment
/// is not required (`loadu`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
#[inline]
unsafe fn eq8_sse2(p: *const u8, key: u64) -> u32 {
    use std::arch::x86_64::*;
    let needle = _mm_set1_epi64x(key as i64);
    let mut out = 0u32;
    for pair in 0..4 {
        // SAFETY: pair * 32 + 32 <= 128, within the caller's contract.
        let keys = unsafe {
            let q = p.add(pair * 32) as *const __m128i;
            // Two 16 B entries: (key, value) each; unpacklo gathers the
            // keys.
            _mm_unpacklo_epi64(_mm_loadu_si128(q), _mm_loadu_si128(q.add(1)))
        };
        // SSE2 has no 64-bit compare; a 64-bit lane matches iff both of
        // its 32-bit halves match.
        let eq = _mm_cmpeq_epi32(keys, needle);
        let m = _mm_movemask_ps(_mm_castsi128_ps(eq)) as u32;
        let lo = u32::from(m & 3 == 3);
        let hi = u32::from(m >> 2 & 3 == 3);
        out |= (lo | hi << 1) << (2 * pair);
    }
    out
}

/// AVX2 variant of [`eq8_sse2`] (same contract): each 32 B load covers two
/// entries, lanes `[key_i, val_i, key_{i+1}, val_{i+1}]`; the key lanes
/// are movemask bits 0 and 2.
///
/// # Safety
///
/// As [`eq8_sse2`], plus the caller must have verified AVX2 support.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn eq8_avx2(p: *const u8, key: u64) -> u32 {
    use std::arch::x86_64::*;
    let needle = _mm256_set1_epi64x(key as i64);
    let mut out = 0u32;
    for pair in 0..4 {
        // SAFETY: pair * 32 + 32 <= 128, within the caller's contract.
        let v = unsafe { _mm256_loadu_si256(p.add(pair * 32) as *const __m256i) };
        let eq = _mm256_cmpeq_epi64(v, needle);
        let m = _mm256_movemask_pd(_mm256_castsi256_pd(eq)) as u32;
        out |= ((m & 1) | (m >> 1 & 2)) << (2 * pair);
    }
    out
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

/// Bits `[from, to)` of a `u64` set. `from < to <= 64`.
#[inline]
fn mask_range(from: usize, to: usize) -> u64 {
    let hi = if to == 64 { u64::MAX } else { (1u64 << to) - 1 };
    hi & !((1u64 << from) - 1)
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

/// Per-segment control flow of the probe (`[start, capacity)` then
/// `[0, start)`).
enum SegmentOutcome {
    Found(usize),
    /// Hit a never-used slot: the key cannot be further along.
    Terminated,
    /// Segment exhausted without a terminator; continue wrapping.
    Continue,
}

/// Entries per 4 KB bucket (`(4096 − 72) / 16`): the capacity of the
/// default [`BucketLayout::base`], kept as a named constant for the
/// page-sized schemes (HT, CH) and tests.
pub const BUCKET_CAPACITY: usize = 251;

/// Header offset of the occupied bitmap (independent of capacity).
const OCCUPIED_OFF: usize = 8;

/// Minimum candidates in an 8-slot byte group before the vector compare
/// pays for itself: below this the group's 128 B load spans more cache
/// lines than the individual entries the scalar loop would touch, and
/// the kernel's fixed cost (broadcast, compare, movemask) exceeds one or
/// two dependent loads. Measured crossover on the bench host.
#[cfg(target_arch = "x86_64")]
const VECTOR_MIN_GROUP: u32 = 4;

/// Slots the probe walks one-by-one before switching to the word-at-a-time
/// machinery. Short probe runs (the overwhelming majority at the paper's
/// load limit) are cheapest per-slot; the word walk and vector kernels
/// only win on long runs and tombstone chains.
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
    /// entry of an occupied slot only, and the vector kernels mask the rest.
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

    /// The unified probe behind `insert`/`get`/`remove`: walk the linear
    /// probe path of `key` reading the presence/tombstone bitmaps a whole
    /// `u64` word (64 slots) at a time, comparing only *occupied* slots —
    /// with the configured [`ProbeBackend`]'s vector kernel — and stopping
    /// at the first never-used slot, exactly like the historical per-slot
    /// loop (which paid a division, two bitmap-word loads and a shift per
    /// slot). The wrap-around is two linear segments, `[start, capacity)`
    /// then `[0, start)`, so there is no per-slot modulo.
    ///
    /// Two tiers. The *fast path*, inlined into the caller: at the paper's
    /// ~0.35 load limit a probe run averages ~1.3 slots, so a short
    /// per-slot walk answers nearly every probe with two bit tests and at
    /// most one key compare per slot — no word machinery, no backend
    /// dispatch, and a hot-path code footprint as small as the historical
    /// per-slot loop's. It only handles the all-occupied prefix of the
    /// run: a match is Found, a never-used slot is Free (every earlier
    /// slot was occupied, so it is also the first insertable one). A
    /// tombstone — where first-free bookkeeping starts — or a
    /// run outlasting the window falls through to the outlined *word
    /// walk* ([`Self::probe_slow`]), which re-examines the walked slots
    /// (a few redundant compares, only on the already-expensive path).
    #[inline]
    fn probe(self, key: u64) -> ProbeHit {
        match self.probe_fast(key) {
            Some(hit) => hit,
            None => Self::probe_slow(self.ptr, self.layout.capacity, self.layout.entries_off, key),
        }
    }

    /// The fast path of [`Self::probe`]; `None` leaves it to the word walk.
    #[inline(always)]
    fn probe_fast(self, key: u64) -> Option<ProbeHit> {
        let capacity = self.layout.capacity();
        let mut slot = home_slot(key, capacity);
        for _ in 0..FAST_PROBE_SLOTS {
            if self.bit(OCCUPIED_OFF, slot) {
                if self.entry(slot).0 == key {
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

    /// The word walk alone with an explicit backend — the agreement tests
    /// pit every available kernel against the scalar one on the same
    /// bucket.
    #[cfg(test)]
    fn probe_with(self, key: u64, backend: ProbeBackend) -> ProbeHit {
        self.word_walk(key, backend)
    }

    /// The outlined tier of [`Self::probe`], with the process's backend —
    /// consulted only here, so the common short-run probe pays no atomic
    /// load for dispatch it never uses. Takes the bucket as scalars, and
    /// only those the fast path has in registers anyway: a by-value
    /// `BucketRef` (24 bytes) or `BucketLayout` (16) is passed in memory,
    /// which would put every caller's bucket on its stack. Hashes again,
    /// so the fast path need not keep the home slot either.
    #[cold]
    #[inline(never)]
    fn probe_slow(ptr: *mut u8, capacity: u32, entries_off: u32, key: u64) -> ProbeHit {
        let layout = BucketLayout::from_hot_fields(capacity, entries_off);
        BucketRef { ptr, layout }.word_walk(key, probe_backend())
    }

    /// [`Self::probe_slow`] for [`Self::get`], through to the value: the
    /// caller then keeps neither the bucket nor its layout across the call.
    #[cold]
    #[inline(never)]
    fn get_slow(ptr: *mut u8, capacity: u32, entries_off: u32, key: u64) -> Option<u64> {
        let layout = BucketLayout::from_hot_fields(capacity, entries_off);
        let this = BucketRef { ptr, layout };
        this.value_at(this.word_walk(key, probe_backend()))
    }

    #[inline(always)]
    fn value_at(self, hit: ProbeHit) -> Option<u64> {
        match hit {
            ProbeHit::Found(slot) => Some(self.value(slot).load(Ordering::Relaxed)),
            _ => None,
        }
    }

    /// Dispatches once into a `#[target_feature]` wrapper so the whole
    /// word walk — including the vector compares — compiles as one
    /// feature-enabled region: the `eq8_*` kernels inline into the loop
    /// instead of paying a call (and, on AVX2, a `vzeroupper`) per byte
    /// group.
    fn word_walk(self, key: u64, backend: ProbeBackend) -> ProbeHit {
        let start = home_slot(key, self.layout.capacity());
        #[cfg(target_arch = "x86_64")]
        match backend {
            // SAFETY: SSE2 is part of the x86-64 baseline.
            ProbeBackend::Sse2 => return unsafe { self.probe_sse2(key, start) },
            // SAFETY: `probe_backend` only yields Avx2 when
            // `is_x86_feature_detected!("avx2")` held, and `probe_with`
            // callers pass either that value or a backend from
            // `all_backends` (same detection).
            ProbeBackend::Avx2 => return unsafe { self.probe_avx2(key, start) },
            ProbeBackend::Scalar => {}
        }
        self.probe_body(key, start, ProbeBackend::Scalar)
    }

    /// SSE2-region instantiation of [`Self::probe_body`].
    ///
    /// # Safety
    ///
    /// SSE2 must be available (always true on x86-64).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "sse2")]
    unsafe fn probe_sse2(self, key: u64, start: usize) -> ProbeHit {
        self.probe_body(key, start, ProbeBackend::Sse2)
    }

    /// AVX2-region instantiation of [`Self::probe_body`].
    ///
    /// # Safety
    ///
    /// AVX2 must be available (runtime-detected).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn probe_avx2(self, key: u64, start: usize) -> ProbeHit {
        self.probe_body(key, start, ProbeBackend::Avx2)
    }

    /// The word walk proper; `backend` is a compile-time constant in every
    /// instantiation, so the per-word dispatch folds away.
    #[inline(always)]
    fn probe_body(self, key: u64, start: usize, backend: ProbeBackend) -> ProbeHit {
        let capacity = self.layout.capacity();
        let mut first_free = None;
        match self.probe_segment(key, start, capacity, backend, &mut first_free) {
            SegmentOutcome::Found(slot) => return ProbeHit::Found(slot),
            SegmentOutcome::Terminated => return first_free.map_or(ProbeHit::Full, ProbeHit::Free),
            SegmentOutcome::Continue => {}
        }
        match self.probe_segment(key, 0, start, backend, &mut first_free) {
            SegmentOutcome::Found(slot) => ProbeHit::Found(slot),
            SegmentOutcome::Terminated | SegmentOutcome::Continue => {
                first_free.map_or(ProbeHit::Full, ProbeHit::Free)
            }
        }
    }

    /// Probe slots `[lo, hi)` in ascending order. Updates `first_free`
    /// with the first insertable (not-occupied) slot on the path — a
    /// tombstone, or the terminating never-used slot — if none was found
    /// in an earlier segment.
    ///
    /// The tombstone word is loaded only once the probe reaches a *gap*
    /// (a non-occupied slot): candidates below the first gap are matched
    /// against the occupied word alone, so the common home-slot hit costs
    /// one bitmap line plus one entry line. (On large buckets the two
    /// bitmaps sit `8·⌈cap/64⌉` bytes apart — an unconditional tombstone
    /// load measured as a whole extra cache miss per lookup at `k = 4`.)
    /// Matching occupied slots before knowing where the terminator lies
    /// is sound: inserts fill the first gap on the key's path and
    /// never-used slots are never re-created, so a live key cannot sit
    /// past a never-used slot on its path.
    #[inline(always)]
    fn probe_segment(
        self,
        key: u64,
        lo: usize,
        hi: usize,
        backend: ProbeBackend,
        first_free: &mut Option<usize>,
    ) -> SegmentOutcome {
        if lo >= hi {
            return SegmentOutcome::Continue;
        }
        let tomb_off = self.tombstone_off();
        for w in (lo / 64)..=((hi - 1) / 64) {
            let base = w * 64;
            let region = mask_range(lo.max(base) - base, (hi - base).min(64));
            let occ = self.bitmap_word(OCCUPIED_OFF, w) & region;
            let gaps = region & !occ;
            if gaps == 0 {
                // Fully occupied region: every slot is on the path and
                // nothing can terminate the probe here.
                if occ != 0 {
                    if let Some(slot) = self.match_key_in_word(key, base, occ, backend) {
                        return SegmentOutcome::Found(slot);
                    }
                }
                continue;
            }
            // Candidates below the first gap need no tombstone knowledge.
            let first_gap = gaps.trailing_zeros();
            let run = occ & ((1u64 << first_gap) - 1);
            if run != 0 {
                if let Some(slot) = self.match_key_in_word(key, base, run, backend) {
                    return SegmentOutcome::Found(slot);
                }
            }
            // The first gap — tombstone or never-used — is the first
            // insertable slot on the path.
            if first_free.is_none() {
                *first_free = Some(base + first_gap as usize);
            }
            let free = gaps & !self.bitmap_word(tomb_off, w);
            if free != 0 {
                // The lowest never-used slot terminates the probe;
                // occupied slots between the first gap and it are still
                // on the key's path.
                let t = free.trailing_zeros();
                let rest = occ & !run & ((1u64 << t) | ((1u64 << t) - 1));
                if rest != 0 {
                    if let Some(slot) = self.match_key_in_word(key, base, rest, backend) {
                        return SegmentOutcome::Found(slot);
                    }
                }
                return SegmentOutcome::Terminated;
            }
            // Every gap is a tombstone: the remaining occupied slots all
            // stay on the path.
            let rest = occ & !run;
            if rest != 0 {
                if let Some(slot) = self.match_key_in_word(key, base, rest, backend) {
                    return SegmentOutcome::Found(slot);
                }
            }
        }
        SegmentOutcome::Continue
    }

    /// Compare `key` against every candidate slot (set bits of `cand`,
    /// relative to slot `base`) and return the matching slot, if any.
    /// Candidates come 8 to a byte; a byte group with at least
    /// [`VECTOR_MIN_GROUP`] candidates whose 8 entries lie fully within
    /// capacity rides the vector kernel (which loads all 8 whole entries —
    /// also the non-candidates, whose bytes are always readable and whose
    /// false matches the candidate mask filters out). Sparse groups and
    /// the final partial group, where an 8-entry load would run past the
    /// entry array, use bit iteration: at the paper's ~0.35 load limit a
    /// probe run averages ~1.3 slots, and a 128 B vector compare there
    /// touches *more* cache lines than the one entry the scalar loop
    /// reads — measured as a net regression until gated by density.
    #[inline(always)]
    fn match_key_in_word(
        self,
        key: u64,
        base: usize,
        cand: u64,
        backend: ProbeBackend,
    ) -> Option<usize> {
        #[cfg(target_arch = "x86_64")]
        if backend != ProbeBackend::Scalar {
            let capacity = self.layout.capacity();
            let mut m = cand;
            while m != 0 {
                let j = (m.trailing_zeros() / 8) as usize;
                let byte = (m >> (8 * j) & 0xff) as u32;
                let group = base + 8 * j;
                if byte.count_ones() >= VECTOR_MIN_GROUP && group + 8 <= capacity {
                    // SAFETY: group + 8 <= capacity keeps all 128 bytes at
                    // `p` inside the entry array (from_ptr contract).
                    let p = unsafe { self.ptr.add(self.layout.entries_off as usize + group * 16) };
                    // SAFETY: 128 readable bytes at `p` (above); the Avx2
                    // backend is only selected when AVX2 is detected.
                    let eq = unsafe {
                        match backend {
                            ProbeBackend::Avx2 => eq8_avx2(p, key),
                            _ => eq8_sse2(p, key),
                        }
                    };
                    let hit = eq & byte;
                    if hit != 0 {
                        return Some(group + hit.trailing_zeros() as usize);
                    }
                } else if let Some(slot) = self.match_key_scalar(key, group, byte as u64) {
                    return Some(slot);
                }
                m &= !(0xffu64 << (8 * j));
            }
            return None;
        }
        self.match_key_scalar(key, base, cand)
    }

    /// Bit-iteration key compare over the set bits of `cand` (slots
    /// relative to `base`).
    #[inline]
    fn match_key_scalar(self, key: u64, base: usize, mut cand: u64) -> Option<usize> {
        while cand != 0 {
            let slot = base + cand.trailing_zeros() as usize;
            if self.entry(slot).0 == key {
                return Some(slot);
            }
            cand &= cand - 1;
        }
        None
    }

    /// Insert or update `key`, refusing (returning [`InsertOutcome::Full`])
    /// once `max_entries` live entries are reached and the key is new.
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

    /// Every backend the host can run (scalar everywhere; SSE2 and, when
    /// detected, AVX2 on x86-64). The agreement tests pit them pairwise on
    /// identical bucket states through `probe_with`, whichever backend
    /// `probe_backend()` picked for the process.
    fn all_backends() -> Vec<ProbeBackend> {
        #[allow(unused_mut)]
        let mut backends = vec![ProbeBackend::Scalar];
        #[cfg(target_arch = "x86_64")]
        {
            backends.push(ProbeBackend::Sse2);
            if is_x86_feature_detected!("avx2") {
                backends.push(ProbeBackend::Avx2);
            }
        }
        backends
    }

    /// Deterministic interleaving of inserts/removes (keys folded into a
    /// small domain to force collision chains and tombstones), probing
    /// every backend for exact agreement — `Found` slot, `Missing`
    /// first-free, everything — after each mutation, at every layout.
    mod agreement {
        use super::*;
        use proptest::prelude::*;

        fn run_ops(layout: BucketLayout, ops: &[(u8, u64)], probes: &[u64]) {
            let backends = all_backends();
            let (_m, b) = slot(layout);
            let domain = (layout.capacity() as u64 / 2).max(8);
            let limit = layout.capacity();
            for &(kind, raw) in ops {
                let key = raw % domain;
                match kind % 3 {
                    0 | 1 => {
                        b.insert(key, !raw, limit);
                    }
                    _ => {
                        b.remove(key);
                    }
                }
                for &p in probes {
                    let want = b.probe_with(p % domain, ProbeBackend::Scalar);
                    for &back in &backends[1..] {
                        assert_eq!(
                            b.probe_with(p % domain, back),
                            want,
                            "backend {back:?} diverged from scalar (key {})",
                            p % domain
                        );
                    }
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]
            #[test]
            fn backends_agree_at_every_layout(
                ops in proptest::collection::vec((any::<u8>(), any::<u64>()), 1..120),
                probes in proptest::collection::vec(any::<u64>(), 4..12),
            ) {
                for k in 0..=SlotLayout::MAX_SLOT_POWER {
                    let layout = BucketLayout::for_slot(SlotLayout::new(k).unwrap());
                    run_ops(layout, &ops, &probes);
                }
            }
        }
    }

    /// What a split does to each half: on a slot that starts as a recycled
    /// pool page (`0xA5` everywhere, not zeros) and then lives through a
    /// random insert/remove history (so it has tombstones), `reset` plus
    /// `insert_absent` of the survivors must leave a bucket that every
    /// backend reads exactly as a `HashMap` of the survivors — and that
    /// keeps doing so through further inserts and removes.
    mod rebuild {
        use super::*;
        use proptest::prelude::*;
        use std::collections::HashMap;

        fn assert_reads_as(b: BucketRef, model: &HashMap<u64, u64>, domain: u64) {
            assert_eq!(b.count(), model.len());
            assert_eq!(b.bits_set(OCCUPIED_OFF), b.count());
            let backends = all_backends();
            for key in 0..domain {
                for &back in &backends {
                    let got = b.value_at(b.probe_with(key, back));
                    assert_eq!(got, model.get(&key).copied(), "{back:?} key {key}");
                }
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
    fn vector_kernels_match_scalar_on_a_full_bucket() {
        // Saturate a bucket (no tombstones, every word all-ones, the
        // capacity-boundary partial group live) and check every key plus
        // misses through each backend.
        for layout in [BucketLayout::base(), BucketLayout::for_bytes(512)] {
            let (_m, b) = slot(layout);
            let cap = layout.capacity();
            for key in 0..cap as u64 {
                assert_eq!(b.insert(key, key ^ 0xdead, cap), InsertOutcome::Inserted);
            }
            for back in all_backends() {
                for key in 0..cap as u64 {
                    assert_eq!(
                        b.probe_with(key, back),
                        ProbeHit::Found(match b.probe_with(key, ProbeBackend::Scalar) {
                            ProbeHit::Found(slot) => slot,
                            miss => panic!("scalar lost key {key}: {miss:?}"),
                        }),
                        "{back:?} key {key}"
                    );
                }
                // A missing key in a full bucket wraps the whole table.
                assert_eq!(
                    b.probe_with(u64::MAX, back),
                    ProbeHit::Full,
                    "{back:?} miss"
                );
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
