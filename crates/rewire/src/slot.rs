//! The physical **slot**: the pool's allocation and rewiring unit — one
//! 4 KB base page, as in the paper, so that one page-table entry stands
//! for one bucket.

use crate::page::{PAGE_SHIFT_4K, PAGE_SIZE_4K};

/// The pool's slot geometry: one 4 KB base page per slot, the only one.
///
/// A stub of constants, kept only because the benchmark sizes its pools
/// through it; the change to the benchmark that drops those calls drops
/// this type too. Code in this workspace uses [`PAGE_SIZE_4K`] directly.
///
/// ```
/// use shortcut_rewire::SlotLayout;
///
/// let layout = SlotLayout::default();
/// assert_eq!(layout.slot_bytes(), 4096);
/// assert_eq!(layout.slot_shift(), 12);     // byte offset = index << 12
/// assert_eq!(layout.slots_for_bytes(1 << 18), 64);
/// assert_eq!(layout.slots_for_bytes(1), 1);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct SlotLayout;

impl SlotLayout {
    /// Bytes per slot: [`PAGE_SIZE_4K`].
    #[inline]
    pub const fn slot_bytes(self) -> usize {
        PAGE_SIZE_4K
    }

    /// `log2(slot_bytes)`: [`PAGE_SHIFT_4K`].
    #[inline]
    pub const fn slot_shift(self) -> u32 {
        PAGE_SHIFT_4K
    }

    /// How many slots cover `bytes` (at least one).
    #[inline]
    pub const fn slots_for_bytes(self, bytes: usize) -> usize {
        let slots = bytes >> PAGE_SHIFT_4K;
        if slots == 0 {
            1
        } else {
            slots
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_is_identity() {
        let l = SlotLayout;
        assert_eq!(l.slot_bytes(), PAGE_SIZE_4K);
        assert_eq!(1usize << l.slot_shift(), l.slot_bytes());
        assert_eq!(l.slots_for_bytes(3 * PAGE_SIZE_4K + 1), 3);
    }
}
