//! The extendible-hashing directory: a wide traditional inner node plus the
//! global depth, with the doubling and covering-range arithmetic.

use shortcut_core::TraditionalNode;
use std::ops::Range;

/// Directory of `2^global_depth` bucket pointers.
pub struct Directory {
    node: TraditionalNode,
    global_depth: u32,
}

impl Directory {
    /// A depth-0 directory with a single slot.
    pub fn new() -> Self {
        Directory {
            node: TraditionalNode::new(1),
            global_depth: 0,
        }
    }

    /// Current global depth.
    #[inline]
    pub fn global_depth(&self) -> u32 {
        self.global_depth
    }

    /// `2^global_depth`.
    #[inline]
    pub fn slot_count(&self) -> usize {
        1usize << self.global_depth
    }

    /// Pointer stored in `slot`.
    #[inline]
    pub fn get(&self, slot: usize) -> *mut u8 {
        self.node.get(slot)
    }

    /// Where `slot`'s pointer is stored (to prefetch it).
    #[inline]
    pub fn slot_addr(&self, slot: usize) -> *const *mut u8 {
        self.node.slot_addr(slot)
    }

    /// Store `ptr` in `slot`.
    #[inline]
    pub fn set(&mut self, slot: usize, ptr: *mut u8) {
        self.node.set_slot(slot, ptr);
    }

    /// Point every slot at `ptr` (initialization with bucket 0).
    pub fn set_all(&mut self, ptr: *mut u8) {
        for s in 0..self.slot_count() {
            self.node.set_slot(s, ptr);
        }
    }

    /// Double the directory: slot `i` of the new directory inherits the
    /// pointer of old slot `i/2` (Figure 6b).
    pub fn double(&mut self) {
        self.node = self.node.doubled();
        self.global_depth += 1;
    }

    /// The contiguous range of slots covered by the bucket that `slot`
    /// points to, given global depth `g` and the bucket's local depth `l`:
    /// `2^(g-l)` slots aligned at that size.
    pub fn covering_range(slot: usize, g: u32, l: u32) -> Range<usize> {
        debug_assert!(l <= g);
        let cover = 1usize << (g - l);
        let first = slot / cover * cover;
        first..first + cover
    }
}

impl Default for Directory {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_with_one_slot() {
        let d = Directory::new();
        assert_eq!(d.global_depth(), 0);
        assert_eq!(d.slot_count(), 1);
        assert!(d.get(0).is_null());
    }

    #[test]
    fn doubling_replicates() {
        let mut d = Directory::new();
        let a = 0x8000 as *mut u8;
        d.set_all(a);
        d.double();
        assert_eq!(d.global_depth(), 1);
        assert_eq!(d.slot_count(), 2);
        assert_eq!(d.get(0), a);
        assert_eq!(d.get(1), a);
        let b = 0x2000 as *mut u8;
        d.set(1, b);
        d.double();
        assert_eq!(d.get(0), a);
        assert_eq!(d.get(1), a);
        assert_eq!(d.get(2), b);
        assert_eq!(d.get(3), b);
    }

    #[test]
    fn covering_range_math() {
        // g=3 (8 slots), bucket with l=1 covers 4 aligned slots.
        assert_eq!(Directory::covering_range(0, 3, 1), 0..4);
        assert_eq!(Directory::covering_range(3, 3, 1), 0..4);
        assert_eq!(Directory::covering_range(4, 3, 1), 4..8);
        assert_eq!(Directory::covering_range(7, 3, 1), 4..8);
        // l == g: exactly one slot.
        assert_eq!(Directory::covering_range(5, 3, 3), 5..6);
        // l = 0 covers everything.
        assert_eq!(Directory::covering_range(6, 3, 0), 0..8);
    }
}
