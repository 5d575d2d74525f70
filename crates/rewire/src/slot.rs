//! The physical **slot**: the pool's allocation and rewiring unit.
//!
//! The paper works with one 4 KB page per directory slot, which makes the
//! slot and the base page coincide — but nothing in the rewiring technique
//! requires that. A slot may span `2^k` consecutive base pages: the pool
//! then allocates, frees and relocates `2^k`-page units, a [`crate::VirtArea`]
//! "page" becomes a `2^k`-page window, and every `mmap` moves `2^k` pages at
//! once. Larger slots cut the §3.2 hardware cost: a directory of `s`
//! slots costs at most `s` mappings regardless of slot size, but the same
//! number of *entries* needs `2^k`-fold fewer slots, so the mapping
//! footprint (and the pressure on `vm.max_map_count`) shrinks by up to
//! `2^k`.
//!
//! `SlotLayout` is constructed once per pool and threaded through every
//! layer; all byte arithmetic on slot indices goes through it.

use crate::error::{Error, Result};
use crate::page::{PAGE_SHIFT_4K, PAGE_SIZE_4K};

/// The physical slot layout of a pool: a slot is `2^k` consecutive 4 KB
/// base pages, allocated, rewired and relocated as one unit.
///
/// The default (`k = 0`) reproduces the paper's one-page-per-slot layout
/// exactly. Layouts are cheap `Copy` values; every size computation in the
/// stack derives from [`SlotLayout::slot_bytes`] / [`SlotLayout::slot_shift`].
///
/// ```
/// use shortcut_rewire::SlotLayout;
///
/// let base = SlotLayout::base();            // k = 0: 4 KB slots
/// assert_eq!(base.pages_per_slot(), 1);
/// assert_eq!(base.slot_bytes(), 4096);
///
/// let big = SlotLayout::new(4).unwrap();    // k = 4: 64 KB slots
/// assert_eq!(big.pages_per_slot(), 16);
/// assert_eq!(big.slot_bytes(), 64 * 1024);
/// assert_eq!(big.slot_shift(), 16);         // byte offset = index << 16
///
/// let max = SlotLayout::new(9).unwrap();    // k = 9: 2 MB slots
/// assert_eq!(max.slot_bytes(), 2 << 20);
/// assert!(SlotLayout::new(10).is_err());    // capped at 2 MB
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlotLayout {
    /// `log2` of the pages per slot.
    k: u32,
}

impl SlotLayout {
    /// Largest supported slot power: `2^9` pages = 2 MB, the span of one
    /// page-table page, so a slot-aligned slot never straddles two. Larger
    /// slots would waste half-empty buckets.
    pub const MAX_SLOT_POWER: u32 = 9;

    /// A layout of `2^k`-page slots.
    ///
    /// # Errors
    ///
    /// Rejects `k >` [`SlotLayout::MAX_SLOT_POWER`].
    pub fn new(k: u32) -> Result<Self> {
        if k > Self::MAX_SLOT_POWER {
            return Err(Error::invalid(format!(
                "slot power {k} exceeds the 2 MB boundary (max {})",
                Self::MAX_SLOT_POWER
            )));
        }
        Ok(SlotLayout { k })
    }

    /// The paper's layout: one 4 KB base page per slot (`k = 0`).
    pub const fn base() -> Self {
        SlotLayout { k: 0 }
    }

    /// `log2` of the pages per slot.
    #[inline]
    pub const fn slot_power(self) -> u32 {
        self.k
    }

    /// Base pages per slot (`2^k`).
    #[inline]
    pub const fn pages_per_slot(self) -> usize {
        1usize << self.k
    }

    /// Bytes per slot (`4096 << k`).
    #[inline]
    pub const fn slot_bytes(self) -> usize {
        PAGE_SIZE_4K << self.k
    }

    /// `log2(slot_bytes)`: shift a slot index left by this to get its byte
    /// offset — the layout-derived replacement for the hard-coded `<< 12`.
    #[inline]
    pub const fn slot_shift(self) -> u32 {
        PAGE_SHIFT_4K + self.k
    }

    /// Byte offset of slot `index` inside a pool file of this layout.
    #[inline]
    pub const fn byte_offset(self, index: usize) -> usize {
        index << self.slot_shift()
    }

    /// How many slots cover `bytes` (at least one) — the helper behind
    /// byte-denominated sizing floors ("grow by ≥ 256 KB", "reserve
    /// ≥ 16 MB of view") that must stay constant in bytes as the slot
    /// size changes.
    #[inline]
    pub const fn slots_for_bytes(self, bytes: usize) -> usize {
        let slots = bytes >> self.slot_shift();
        if slots == 0 {
            1
        } else {
            slots
        }
    }
}

impl Default for SlotLayout {
    fn default() -> Self {
        Self::base()
    }
}

impl std::fmt::Display for SlotLayout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "2^{}-page slots ({} B)", self.k, self.slot_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_is_identity() {
        let l = SlotLayout::base();
        assert_eq!(l.slot_power(), 0);
        assert_eq!(l.pages_per_slot(), 1);
        assert_eq!(l.slot_bytes(), PAGE_SIZE_4K);
        assert_eq!(l.slot_shift(), PAGE_SHIFT_4K);
        assert_eq!(l.byte_offset(3), 3 * PAGE_SIZE_4K);
        assert_eq!(SlotLayout::default(), l);
    }

    #[test]
    fn powers_scale_bytes_and_shift() {
        for k in 0..=SlotLayout::MAX_SLOT_POWER {
            let l = SlotLayout::new(k).unwrap();
            assert_eq!(l.slot_bytes(), PAGE_SIZE_4K << k);
            assert_eq!(l.byte_offset(5), 5 * l.slot_bytes());
            assert_eq!(1usize << l.slot_shift(), l.slot_bytes());
        }
    }

    #[test]
    fn huge_boundary_at_2mb() {
        assert_eq!(SlotLayout::new(8).unwrap().slot_bytes(), 1 << 20);
        assert_eq!(SlotLayout::new(9).unwrap().slot_bytes(), 2 << 20);
    }

    #[test]
    fn oversized_power_rejected() {
        assert!(SlotLayout::new(SlotLayout::MAX_SLOT_POWER + 1).is_err());
    }

    #[test]
    fn display_is_informative() {
        let s = SlotLayout::new(2).unwrap().to_string();
        assert!(s.contains("2^2"), "{s}");
        assert!(s.contains("16384"), "{s}");
    }
}
