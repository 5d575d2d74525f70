//! Version-number synchronization between the traditional and the shortcut
//! directory (paper §4.1).
//!
//! Both directories carry a version number; every modification to the
//! traditional directory increments its version, and the mapper thread
//! stamps the shortcut's version only *after* the corresponding rewirings
//! **and** the page-table population have completed. The shortcut may serve
//! a read only while the two versions are equal.
//!
//! Readers do not compare the versions: they load one **serving word**,
//! which holds the published `base | depth` exactly while the shortcut may
//! answer (versions equal, routing on) and is null otherwise. A relay's
//! bump clears it; only the mapper sets it, at the end of a pass. Both,
//! and every other store a reader trusts, are made under the mapper's
//! inbox lock, held as an [`InboxGuard`](crate::InboxGuard): the state's
//! own forms of them are `unsafe`, there for the model checks. A read section
//! excludes every bump, so a reader inside one loads the word once and
//! never validates (CONCURRENCY.md §2); a biased one reads its copy on the
//! shard's [`ReadLine`] (§4). [`SharedDirectoryState::begin_read`]
//! / [`SharedDirectoryState::still_valid`] give readers outside a section
//! a ticket and its re-check. Retired shortcut areas stay mapped until
//! every reader pin taken before their retirement has drained (see
//! [`shortcut_rewire::RetireList`]), so dereferencing a ticket's base
//! requires holding a [`shortcut_rewire::ReaderPin`] from the pool the
//! shortcut maps.

use shortcut_rewire::sync::{fence, AtomicBool, AtomicPtr, AtomicU64, Ordering};
use shortcut_rewire::{ReadBias, ReaderPin, RetireList};
use std::ptr;
use std::sync::{Arc, OnceLock};

/// Alignment [`SharedDirectoryState::publish`] requires of a base: its low
/// bits carry the published depth (< 64), so a reader gets both from one
/// load and can never pair one directory's base with another's depth.
const BASE_ALIGN: usize = 64;

/// One shard's **read line**: what a biased single-key lookup loads
/// before the bucket, on a line of its own. The bias's admission word holds
/// the published `base | depth` exactly while the bias is armed and the
/// attached descriptor serving ([`SharedDirectoryState::attach_line`]).
#[derive(Debug)]
#[repr(C, align(64))]
pub struct ReadLine {
    pub bias: ReadBias,
    /// Left rotation that turns a key's hash into its directory hash,
    /// fixed when the index is built: it rides on the line a read loads
    /// anyway.
    pub hash_rot: u32,
    /// The shard's retire list, whose pins the bias reads.
    pub pins: Arc<RetireList>,
}

const _: () =
    assert!(std::mem::align_of::<ReadLine>() == 64 && std::mem::offset_of!(ReadLine, bias) == 0);

impl ReadLine {
    /// A hit path's way in: a pin on the thread's exclusive stripe, then
    /// the one load of the admission word — the pin and the directory the
    /// word serves. `None`, nothing left pinned, off an exclusive stripe
    /// or with nothing served.
    #[inline]
    pub fn enter(&self) -> Option<(ReaderPin<'_>, ReadTicket)> {
        let pin = self.pins.pin_exclusive()?;
        let served = ReadTicket::of(self.bias.admission(&pin))?;
        Some((pin, served))
    }

    /// A read section's way in, on whatever stripe the thread pins: the
    /// pin and the directory the admission word serves (`None`: nothing
    /// served, read traditionally) while the bias admits; `None`, nothing
    /// left pinned, while it is revoked — take the lock's read side.
    #[inline]
    pub fn enter_section(&self) -> Option<(ReaderPin<'_>, Option<ReadTicket>)> {
        let pin = self.pins.pin();
        let word = self.bias.admission(&pin);
        ReadBias::admits(word).then(|| (pin, ReadTicket::of(word)))
    }
}

/// The read descriptor: the serving word and what decides it. Published
/// by the mapper thread (and, for the routing bit, the write path).
///
/// Invariant: the published base is non-null whenever
/// `shortcut_version != 0` — [`SharedDirectoryState::publish`] refuses a
/// null base or a zero version and stores the base before the version.
#[derive(Debug)]
#[repr(align(64))]
pub struct SharedDirectoryState {
    /// `published` while the shortcut may serve reads, null otherwise:
    /// the one word a lookup loads to decide.
    serving: AtomicPtr<u8>,
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
    /// Whether lookups should use the shortcut at the directory's current
    /// fan-in: an input of the serving word, read by whoever sets it.
    route_shortcut: AtomicBool,
    /// Whether the mapper skipped the latest rebuild because the directory
    /// no longer fits the VMA budget. Readers fall back to the traditional
    /// directory until a rebuild fits again.
    suspended: AtomicBool,
    /// The index's `lines[i]`, once attached.
    line: OnceLock<(Arc<[ReadLine]>, usize)>,
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

/// The directory a shortcut read may use, taken from the serving word.
#[derive(Debug, Clone, Copy)]
pub struct ReadTicket {
    /// The serving word it was taken from.
    word: *mut u8,
    /// Published base pointer at ticket time.
    pub base: *mut u8,
    /// Published slot count at ticket time: a power of two.
    pub slots: usize,
}

impl ReadTicket {
    /// The directory a word names: none for null and the bias's tags.
    #[inline(always)]
    fn of(word: *mut u8) -> Option<ReadTicket> {
        if word.addr() < BASE_ALIGN {
            return None;
        }
        let (base, depth) = unpack(word);
        Some(ReadTicket {
            word,
            base,
            slots: 1 << depth,
        })
    }

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
        SharedDirectoryState {
            serving: AtomicPtr::new(ptr::null_mut()),
            traditional_version: AtomicU64::new(0),
            shortcut_version: AtomicU64::new(0),
            published: AtomicPtr::new(ptr::null_mut()),
            route_shortcut: AtomicBool::new(true),
            suspended: AtomicBool::new(false),
            line: OnceLock::new(),
        }
    }

    /// Mirror the serving word to `lines[i]`'s admission word from now on.
    ///
    /// # Safety
    ///
    /// As [`SharedDirectoryState::bump_traditional`].
    ///
    /// # Panics
    ///
    /// If a line is attached already.
    pub unsafe fn attach_line(&self, lines: Arc<[ReadLine]>, i: usize) {
        assert!(self.line.set((lines, i)).is_ok(), "a read line is attached");
        self.serve(self.serving.load(Ordering::Acquire));
    }

    fn line(&self) -> Option<&ReadLine> {
        self.line.get().map(|(lines, i)| &lines[*i])
    }

    /// Arm the attached line's bias with the serving word, holding the
    /// shard's read lock.
    ///
    /// # Safety
    ///
    /// As [`SharedDirectoryState::bump_traditional`].
    pub unsafe fn rearm(&self) {
        if let Some(line) = self.line() {
            line.bias.rearm(self.serving.load(Ordering::Acquire));
        }
    }

    /// The one store of the serving word, mirrored to an armed line.
    fn serve(&self, word: *mut u8) {
        self.serving.store(word, Ordering::Release);
        if let Some(line) = self.line() {
            line.bias.admit(word);
        }
    }

    /// Record the routing decision for the directory's current fan-in.
    /// Turning it off clears the serving word (a clear is always safe: it
    /// only sends readers to the traditional directory); turning it on
    /// takes effect at the next [`SharedDirectoryState::refresh_serving`].
    ///
    /// # Safety
    ///
    /// As [`SharedDirectoryState::bump_traditional`].
    pub unsafe fn set_route_shortcut(&self, on: bool) {
        self.route_shortcut.store(on, Ordering::Release);
        if !on {
            self.serve(ptr::null_mut());
        }
    }

    /// Record whether shortcut maintenance is suspended by the VMA budget
    /// (set by the mapper thread only).
    pub(crate) fn set_suspended(&self, suspended: bool) {
        self.suspended.store(suspended, Ordering::Release);
    }

    /// Whether the mapper serves no directory because admission refused
    /// every depth of the latest one under the VMA budget. The index stays
    /// fully usable — lookups route through the traditional directory —
    /// and the mapper keeps the directory pending, with every later update
    /// folded in, and publishes it itself once a depth fits.
    pub fn suspended(&self) -> bool {
        self.suspended.load(Ordering::Acquire)
    }

    /// Record a modification of the traditional directory, taking the
    /// shortcut out of service until the mapper has published it; returns
    /// the new version. The safe way in to this and every other store of
    /// the serving word is a method of the held inbox lock
    /// ([`InboxGuard`](crate::InboxGuard)).
    ///
    /// # Safety
    ///
    /// No other store of the serving word — a refresh, a bump, a routing
    /// change, a re-arm, an attach — runs concurrently: the caller holds
    /// the lock they are all made under (a mapper's inbox lock), or is
    /// the only thread that makes them. A bump between a refresh's compare
    /// and its store leaves a superseded directory served, which the next
    /// pass retires and a reclaim unmaps under readers that pin after its
    /// scan.
    pub unsafe fn bump_traditional(&self) -> u64 {
        self.serve(ptr::null_mut());
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

    /// Whether the shortcut is in sync (and something has been published),
    /// whatever the routing decision.
    pub fn in_sync(&self) -> bool {
        let sv = self.shortcut_version.load(Ordering::Acquire);
        sv != 0 && sv == self.traditional_version.load(Ordering::Acquire)
    }

    /// Publish a (possibly new) shortcut area of `slots` slots reflecting
    /// `version`. Called by the mapper thread only, *after* population
    /// finished; readers see it once [`SharedDirectoryState::refresh_serving`]
    /// finds it in sync. Readers address the largest power of two of the
    /// slots, which is all a hash-addressed directory has.
    ///
    /// # Safety
    ///
    /// `base` maps `slots` live slots until it is retired through the
    /// retire list whose pins this state's readers hold: a refresh serves
    /// it to readers that dereference it under such a pin.
    ///
    /// # Panics
    ///
    /// On a null `base` or a zero `version` (the type's invariant), a
    /// `base` that is not 64-byte aligned (a mapped area is page aligned)
    /// or no slots.
    pub unsafe fn publish(&self, base: *mut u8, slots: usize, version: u64) {
        assert!(!base.is_null() && version != 0);
        assert_eq!(base.addr() % BASE_ALIGN, 0, "unaligned shortcut base");
        self.published.store(pack(base, slots), Ordering::Release);
        self.shortcut_version.store(version, Ordering::Release);
    }

    /// Set the serving word to the published directory if it may serve
    /// reads — in sync, routing on — and clear it otherwise. The mapper
    /// does at the end of every pass, under the inbox lock that every
    /// racing bump and bias revocation holds too (`tests/loom_admission.rs`
    /// seeds it outside).
    ///
    /// # Safety
    ///
    /// As [`SharedDirectoryState::bump_traditional`].
    pub unsafe fn refresh_serving(&self) {
        let word = if self.in_sync() && self.route_shortcut.load(Ordering::Acquire) {
            self.published.load(Ordering::Acquire)
        } else {
            ptr::null_mut()
        };
        self.serve(word);
    }

    /// The directory a shortcut read may use now — base and depth from the
    /// one load of the serving word — or `None` (caller takes the
    /// traditional path). Inside a read section the answer holds for the
    /// whole section; outside one, check the read with
    /// [`SharedDirectoryState::still_valid`].
    #[inline]
    pub fn begin_read(&self) -> Option<ReadTicket> {
        ReadTicket::of(self.serving.load(Ordering::Acquire))
    }

    /// After a read through `t` outside a read section: `true` iff the
    /// serving word is still the one `t` was taken from. The acquire fence
    /// orders the read's plain loads before the re-check, so a reader that
    /// consumed a byte written after a bump sees the word moved
    /// (`tests/loom_seqlock.rs` proves the fence load-bearing). A word that
    /// went away and came back between the two calls — an update pass
    /// republishing the same area — passes: readers that need more hold a
    /// read section, inside which the word cannot move at all.
    #[inline]
    pub fn still_valid(&self, t: ReadTicket) -> bool {
        fence(Ordering::Acquire);
        self.serving.load(Ordering::Acquire) == t.word
    }
}

impl Default for SharedDirectoryState {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Something to publish: aligned as a mapped area would be.
    #[repr(align(64))]
    struct Page([u8; 64]);

    // The state's stores, from the one thread that makes them all: these
    // tests are single-threaded.

    fn bump(s: &SharedDirectoryState) -> u64 {
        // SAFETY: no other store runs beside it (single-threaded test).
        unsafe { s.bump_traditional() }
    }

    fn publish(s: &SharedDirectoryState, base: *mut u8, slots: usize, version: u64) {
        // SAFETY: every base is a test's `Page`, which outlives its state.
        unsafe { s.publish(base, slots, version) }
    }

    fn refresh(s: &SharedDirectoryState) {
        // SAFETY: no other store runs beside it (single-threaded test).
        unsafe { s.refresh_serving() }
    }

    fn set_route(s: &SharedDirectoryState, on: bool) {
        // SAFETY: no other store runs beside it (single-threaded test).
        unsafe { s.set_route_shortcut(on) }
    }

    /// The directory `s` serves, if any.
    fn serving(s: &SharedDirectoryState) -> Option<(*mut u8, usize)> {
        s.begin_read().map(|t| (t.base, t.slots))
    }

    #[test]
    fn starts_out_of_sync() {
        let s = SharedDirectoryState::new();
        assert!(!s.in_sync());
        assert!(s.begin_read().is_none());
    }

    #[test]
    fn publish_brings_in_sync() {
        let s = SharedDirectoryState::new();
        let v = bump(&s);
        assert!(!s.in_sync());
        let mut page = Page([0; 64]);
        publish(&s, page.0.as_mut_ptr(), 1, v);
        assert!(s.in_sync());
        refresh(&s);
        let t = s.begin_read().unwrap();
        assert_eq!(t.slots, 1);
        assert!(s.still_valid(t));
    }

    #[test]
    fn modification_invalidates_inflight_read() {
        let s = SharedDirectoryState::new();
        let v = bump(&s);
        let mut page = Page([0; 64]);
        publish(&s, page.0.as_mut_ptr(), 1, v);
        refresh(&s);
        let t = s.begin_read().unwrap();
        // A split happens mid-read…
        bump(&s);
        assert!(!s.still_valid(t), "racing read must be discarded");
        assert!(s.begin_read().is_none(), "now out of sync");
    }

    #[test]
    fn catch_up_restores_sync() {
        let s = SharedDirectoryState::new();
        let v1 = bump(&s);
        let mut page = Page([0; 64]);
        publish(&s, page.0.as_mut_ptr(), 1, v1);
        let v2 = bump(&s);
        assert!(!s.in_sync());
        publish(&s, page.0.as_mut_ptr(), 2, v2);
        assert!(s.in_sync());
        refresh(&s);
        assert_eq!(s.begin_read().unwrap().slots, 2);
    }

    #[test]
    fn version_zero_never_reads() {
        // Even if traditional is still at 0 (no modifications yet), an
        // unpublished shortcut must not serve reads.
        let s = SharedDirectoryState::new();
        assert_eq!(s.traditional_version(), 0);
        assert_eq!(s.shortcut_version(), 0);
        refresh(&s);
        assert!(s.begin_read().is_none());
    }

    /// The admission word's truth table over the bias (armed, draining,
    /// locked) × the descriptor (in sync, out of sync, suspended) ×
    /// routing: the serving word exactly while armed, a revoked bias's tag
    /// whatever the descriptor does, and the serving word again once a
    /// locked read re-arms.
    #[test]
    fn the_admission_word_is_the_serving_word_exactly_while_armed() {
        #[derive(Debug, Clone, Copy, PartialEq)]
        enum Bias {
            Armed,
            Draining,
            Locked,
        }
        let mut page = Page([0; 64]);
        let base = page.0.as_mut_ptr();
        for bias in [Bias::Armed, Bias::Draining, Bias::Locked] {
            for sync in ["in sync", "out of sync", "suspended"] {
                for route in [true, false] {
                    let case = format!("{bias:?}, {sync}, routing {route}");
                    let s = SharedDirectoryState::new();
                    let pins = Arc::new(RetireList::new());
                    let lines: Arc<[ReadLine]> = Arc::new([ReadLine {
                        bias: ReadBias::default(),
                        hash_rot: 0,
                        pins: Arc::clone(&pins),
                    }]);
                    // SAFETY: no other store runs beside it (single-threaded test).
                    unsafe { s.attach_line(Arc::clone(&lines), 0) };
                    let word = || lines[0].bias.admission(&pins.pin());
                    let v = bump(&s);
                    if sync != "suspended" {
                        publish(&s, base, 4, v);
                    }
                    if sync != "in sync" {
                        s.set_suspended(sync == "suspended");
                        bump(&s);
                    }
                    set_route(&s, route);
                    refresh(&s);
                    let serving = if sync == "in sync" && route {
                        base.wrapping_add(2)
                    } else {
                        ptr::null_mut()
                    };
                    if bias != Bias::Armed {
                        let quiesced = bias == Bias::Locked;
                        assert_eq!(lines[0].bias.try_revoke(|| (), || quiesced), quiesced);
                        refresh(&s);
                        assert!(!ReadBias::admits(word()), "{case}: revoked");
                        bump(&s);
                        assert!(!ReadBias::admits(word()), "{case}: revoked, bumped");
                        if bias == Bias::Draining {
                            continue;
                        }
                        // The locked read that re-arms, once the mapper
                        // caught up again.
                        if sync == "in sync" {
                            publish(&s, base, 4, s.traditional_version());
                        }
                        refresh(&s);
                        // SAFETY: no other store runs beside it (single-threaded test).
                        unsafe { s.rearm() };
                    }
                    assert_eq!(word(), serving, "{case}");
                    if let Some((_, t)) = lines[0].enter() {
                        assert!(!serving.is_null(), "{case}: entered");
                        assert_eq!((t.base, t.slots), (base, 4), "{case}");
                    }
                    bump(&s);
                    assert!(word().is_null(), "{case}: bumped");
                }
            }
        }
    }

    /// The serving word's truth table: `base | depth` exactly while the
    /// published version is the traditional one and routing is on.
    #[test]
    fn the_word_serves_exactly_the_in_sync_routed_directory() {
        let s = SharedDirectoryState::new();
        let (mut a, mut b) = (Page([0; 64]), Page([0; 64]));
        let (a, b) = (a.0.as_mut_ptr(), b.0.as_mut_ptr());
        let v1 = bump(&s);
        refresh(&s);
        assert_eq!(serving(&s), None, "before the first publish");
        publish(&s, a, 2, v1);
        assert_eq!(serving(&s), None, "set by the refresh, not by publish");
        refresh(&s);
        assert_eq!(serving(&s), Some((a, 2)));

        // A bump clears it until that version is published.
        let v2 = bump(&s);
        assert_eq!(serving(&s), None, "bumped");
        let v3 = bump(&s);
        publish(&s, b, 8, v2);
        refresh(&s);
        assert_eq!(serving(&s), None, "a publish of an older version");
        publish(&s, b, 8, v3);
        refresh(&s);
        assert_eq!(serving(&s), Some((b, 8)));

        // Routing: off clears at once, and no refresh serves it; on serves
        // at the next refresh while in sync. `in_sync` ignores routing.
        set_route(&s, false);
        assert_eq!(serving(&s), None, "routing off");
        refresh(&s);
        assert_eq!(serving(&s), None, "routing off, refreshed");
        assert!(s.in_sync());
        set_route(&s, true);
        refresh(&s);
        assert_eq!(serving(&s), Some((b, 8)), "routing back on in sync");
        bump(&s);
        refresh(&s);
        assert_eq!(serving(&s), None, "routing on, out of sync");
    }
}
