//! Version-number synchronization between the traditional and the shortcut
//! directory (paper §4.1).
//!
//! Both directories carry a version number; every modification to the
//! traditional directory increments its version, and the mapper thread
//! stamps the shortcut's version only *after* the corresponding rewirings
//! **and** the page-table population have completed. The shortcut may serve
//! a read only while the two versions are equal.
//!
//! Reads follow a seqlock-style protocol ([`SharedDirectoryState::begin_read`]
//! / [`SharedDirectoryState::still_valid`]): validate versions, read through the
//! published base pointer, validate again. Retired shortcut areas stay
//! mapped until every reader pin taken before their retirement has drained
//! (see [`shortcut_rewire::RetireList`]), so a read that loses the race
//! reads *stale but mapped* memory and is then discarded — never a fault.
//! Dereferencing a ticket's base therefore requires holding a
//! [`shortcut_rewire::ReaderPin`] from the pool the shortcut maps.

use shortcut_rewire::sync::{fence, AtomicBool, AtomicPtr, AtomicU64, Ordering};

/// Alignment [`SharedDirectoryState::publish`] requires of a base: its low
/// bits carry the published depth (< 64), so a reader gets both from one
/// load and can never pair one directory's base with another's depth.
const BASE_ALIGN: usize = 64;

/// The constants a lookup needs beside the published directory, fixed when
/// the index is built: they ride in the descriptor so a read finds them on
/// the line it loads anyway.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadGeometry {
    /// `log2(slot_bytes)`: published slot `i` starts at `base + (i << slot_shift)`.
    pub slot_shift: u32,
    /// Left rotation that turns a key's hash into its directory hash.
    pub hash_rot: u32,
    /// Entries per bucket.
    pub bucket_capacity: u32,
    /// Byte offset of a bucket's entry array.
    pub bucket_entries_off: u32,
}

/// The read descriptor: everything a shortcut-served lookup loads before
/// it touches the bucket, on one cache line. Published by the mapper
/// thread (and, for the routing bit, the write path); read by lookups.
///
/// Invariant: the published base is non-null whenever
/// `shortcut_version != 0` — [`SharedDirectoryState::publish`] refuses a
/// null base or a zero version and stores the base before the version, so
/// a reader whose Acquire load saw a version also sees a base.
#[derive(Debug)]
#[repr(align(64))]
pub struct SharedDirectoryState {
    /// Version of the traditional directory (bumped by the index on every
    /// directory-modifying operation).
    traditional_version: AtomicU64,
    /// Version the current shortcut directory reflects (stamped by the
    /// mapper after rewiring + population).
    shortcut_version: AtomicU64,
    /// Base address of the current shortcut area (null until first
    /// create) with, in its six low bits, `log2` of the area's slot
    /// count: the depth a reader shifts by.
    published: AtomicPtr<u8>,
    geometry: ReadGeometry,
    /// Whether lookups should try the shortcut at the directory's current
    /// fan-in. Written by the write path, which excludes the readers.
    route_shortcut: AtomicBool,
    /// Whether the mapper skipped the latest rebuild because the directory
    /// no longer fits the VMA budget. Readers fall back to the traditional
    /// directory until a rebuild fits again.
    suspended: AtomicBool,
}

/// The published word of a `slots`-slot area at `base`.
#[inline(always)]
fn pack(base: *mut u8, slots: usize) -> *mut u8 {
    base.map_addr(|a| a | slots.ilog2() as usize)
}

/// Split a published word into the area's base and its depth.
#[inline(always)]
fn unpack(published: *mut u8) -> (*mut u8, u32) {
    let depth = published.addr() & (BASE_ALIGN - 1);
    (published.map_addr(|a| a & !(BASE_ALIGN - 1)), depth as u32)
}

/// Proof that a shortcut read started in sync; must be revalidated after
/// the read with [`SharedDirectoryState::still_valid`].
#[derive(Debug, Clone, Copy)]
pub struct ReadTicket {
    version: u64,
    /// Published base pointer at ticket time.
    pub base: *mut u8,
    /// Published slot count at ticket time: a power of two.
    pub slots: usize,
}

impl ReadTicket {
    /// `log2(slots)`: the published depth at ticket time. (Where
    /// [`SharedDirectoryState::begin_read`] is inlined this is the depth
    /// it loaded, not a bit scan of `slots`.)
    #[inline]
    pub fn depth(&self) -> u32 {
        self.slots.trailing_zeros()
    }
}

impl SharedDirectoryState {
    /// Fresh state: both versions 0, no shortcut published.
    pub fn new() -> Self {
        Self::with_geometry(ReadGeometry::default())
    }

    /// [`SharedDirectoryState::new`] carrying the index's read constants.
    pub fn with_geometry(geometry: ReadGeometry) -> Self {
        SharedDirectoryState {
            traditional_version: AtomicU64::new(0),
            shortcut_version: AtomicU64::new(0),
            published: AtomicPtr::new(std::ptr::null_mut()),
            geometry,
            route_shortcut: AtomicBool::new(true),
            suspended: AtomicBool::new(false),
        }
    }

    /// The read constants this state was built with.
    #[inline]
    pub fn geometry(&self) -> ReadGeometry {
        self.geometry
    }

    /// Record the routing decision for the directory's current fan-in.
    /// Called from the write path only, inside the section that excludes
    /// readers, whose hand-off orders it.
    pub fn set_route_shortcut(&self, on: bool) {
        self.route_shortcut.store(on, Ordering::Release);
    }

    /// Whether lookups should try the shortcut at all.
    #[inline]
    pub fn route_shortcut(&self) -> bool {
        self.route_shortcut.load(Ordering::Acquire)
    }

    /// Slot count of the currently published shortcut area (0 before the
    /// first create), regardless of sync state. Smaller than the
    /// traditional directory's slot count when admission published at a
    /// coarser depth to fit the VMA budget.
    pub fn published_slots(&self) -> usize {
        let (base, depth) = unpack(self.published.load(Ordering::Acquire));
        if base.is_null() {
            return 0;
        }
        1 << depth
    }

    /// Record whether shortcut maintenance is suspended by the VMA budget
    /// (set by the mapper thread only).
    pub fn set_suspended(&self, suspended: bool) {
        self.suspended.store(suspended, Ordering::Release);
    }

    /// Whether the mapper skipped the latest rebuild because it would not
    /// fit the VMA budget. The index stays fully usable — lookups route
    /// through the traditional directory — but the shortcut will not catch
    /// up until the budget allows a rebuild.
    pub fn suspended(&self) -> bool {
        self.suspended.load(Ordering::Acquire)
    }

    /// Record a modification of the traditional directory; returns the new
    /// version (to be attached to the maintenance request).
    pub fn bump_traditional(&self) -> u64 {
        self.traditional_version.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Current traditional version.
    pub fn traditional_version(&self) -> u64 {
        self.traditional_version.load(Ordering::Acquire)
    }

    /// Version currently reflected by the shortcut.
    pub fn shortcut_version(&self) -> u64 {
        self.shortcut_version.load(Ordering::Acquire)
    }

    /// Whether the shortcut is in sync (and something has been published).
    pub fn in_sync(&self) -> bool {
        let sv = self.shortcut_version.load(Ordering::Acquire);
        sv != 0 && sv == self.traditional_version.load(Ordering::Acquire)
    }

    /// Publish a (possibly new) shortcut area of `slots` slots reflecting
    /// `version`. Called by the mapper thread only, *after* population
    /// finished. Readers address the largest power of two of them, which
    /// is all a hash-addressed directory has.
    ///
    /// # Panics
    ///
    /// On a null `base` or a zero `version` (the type's invariant), a
    /// `base` that is not 64-byte aligned (a mapped area is page aligned)
    /// or no slots.
    pub fn publish(&self, base: *mut u8, slots: usize, version: u64) {
        assert!(!base.is_null() && version != 0);
        assert_eq!(base.addr() % BASE_ALIGN, 0, "unaligned shortcut base");
        self.published.store(pack(base, slots), Ordering::Release);
        self.shortcut_version.store(version, Ordering::Release);
    }

    /// Begin a shortcut read: returns a ticket if the shortcut is currently
    /// in sync, else `None` (caller takes the traditional path).
    #[inline]
    pub fn begin_read(&self) -> Option<ReadTicket> {
        let sv = self.shortcut_version.load(Ordering::Acquire);
        if sv == 0 || sv != self.traditional_version.load(Ordering::Acquire) {
            return None;
        }
        // Non-null by the type's invariant: `sv != 0` was stored after it.
        // One load, so the base and the depth belong to one directory.
        let (base, depth) = unpack(self.published.load(Ordering::Acquire));
        debug_assert!(!base.is_null());
        Some(ReadTicket {
            version: sv,
            base,
            slots: 1 << depth,
        })
    }

    /// Validate a ticket after the read: `true` iff no modification raced
    /// with it (neither version moved), so the value read may be used.
    #[inline]
    pub fn still_valid(&self, t: ReadTicket) -> bool {
        // The reader's data loads through `t.base` are plain loads; an
        // acquire *load* below would not keep them from being satisfied
        // after the version re-check (acquire orders later accesses, not
        // earlier ones). The acquire fence is the classic seqlock
        // read-side exit barrier: every load issued before it is ordered
        // before the two validation loads, so a reader that consumed any
        // post-bump bucket byte is guaranteed to observe the version
        // moved and discard. `tests/loom_seqlock.rs` proves this fence
        // load-bearing (dropping it admits a torn read).
        fence(Ordering::Acquire);
        self.shortcut_version.load(Ordering::Acquire) == t.version
            && self.traditional_version.load(Ordering::Acquire) == t.version
    }
}

impl Default for SharedDirectoryState {
    fn default() -> Self {
        Self::new()
    }
}

/// Deliberately-broken seqlock variants, compiled only for the model
/// tests: each drops one link of the protocol so `tests/loom_seqlock.rs`
/// can prove the checker flags it. Never call these outside that suite.
#[cfg(feature = "loomish")]
impl SharedDirectoryState {
    /// Seeded bug: ticket validation without the acquire fence. The data
    /// loads are free to be satisfied after the version re-check, so a
    /// torn bucket read can pass validation.
    #[inline]
    pub fn still_valid_seeded_unfenced(&self, t: ReadTicket) -> bool {
        self.shortcut_version.load(Ordering::Acquire) == t.version
            && self.traditional_version.load(Ordering::Acquire) == t.version
    }

    /// Seeded bug: publication with the version stamp relaxed. Readers can
    /// observe the new version without the bucket stores it is supposed to
    /// cover, and validation has nothing to pair with.
    pub fn publish_seeded_relaxed(&self, base: *mut u8, slots: usize, version: u64) {
        self.published.store(pack(base, slots), Ordering::Release);
        self.shortcut_version.store(version, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Something to publish: aligned as a mapped area would be.
    #[repr(align(64))]
    struct Page([u8; 64]);

    #[test]
    fn starts_out_of_sync() {
        let s = SharedDirectoryState::new();
        assert!(!s.in_sync());
        assert!(s.begin_read().is_none());
    }

    #[test]
    fn publish_brings_in_sync() {
        let s = SharedDirectoryState::new();
        let v = s.bump_traditional();
        assert!(!s.in_sync());
        let mut page = Page([0; 64]);
        s.publish(page.0.as_mut_ptr(), 1, v);
        assert!(s.in_sync());
        let t = s.begin_read().unwrap();
        assert_eq!(t.slots, 1);
        assert!(s.still_valid(t));
    }

    #[test]
    fn modification_invalidates_inflight_read() {
        let s = SharedDirectoryState::new();
        let v = s.bump_traditional();
        let mut page = Page([0; 64]);
        s.publish(page.0.as_mut_ptr(), 1, v);
        let t = s.begin_read().unwrap();
        // A split happens mid-read…
        s.bump_traditional();
        assert!(!s.still_valid(t), "racing read must be discarded");
        assert!(s.begin_read().is_none(), "now out of sync");
    }

    #[test]
    fn catch_up_restores_sync() {
        let s = SharedDirectoryState::new();
        let v1 = s.bump_traditional();
        let mut page = Page([0; 64]);
        s.publish(page.0.as_mut_ptr(), 1, v1);
        let v2 = s.bump_traditional();
        assert!(!s.in_sync());
        s.publish(page.0.as_mut_ptr(), 2, v2);
        assert!(s.in_sync());
        assert_eq!(s.begin_read().unwrap().slots, 2);
    }

    #[test]
    fn version_zero_never_reads() {
        // Even if traditional is still at 0 (no modifications yet), an
        // unpublished shortcut must not serve reads.
        let s = SharedDirectoryState::new();
        assert_eq!(s.traditional_version(), 0);
        assert_eq!(s.shortcut_version(), 0);
        assert!(s.begin_read().is_none());
    }
}
