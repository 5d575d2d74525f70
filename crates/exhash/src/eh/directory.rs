//! The extendible-hashing directory: a wide traditional inner node plus the
//! global depth, with the doubling and split-slot arithmetic.

use shortcut_core::{SlotStride, TraditionalNode};

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

    /// Double the directory: the upper half is a copy of the lower one
    /// (slot `i + 2^g` inherits slot `i`). The directory is indexed by
    /// hash suffix, so this departs from the paper's Figure 6b, where slot
    /// `i` inherits slot `i/2`: appending keeps every slot where it was,
    /// and a bucket's aliases a stride apart instead of side by side.
    pub fn double(&mut self) {
        self.node = self.node.doubled();
        self.global_depth += 1;
    }

    /// The slots a split of the bucket with suffix `suffix` (its local
    /// depth `l` low bits) hands to the new bucket under global depth `g`:
    /// those whose bit `l` is set, `suffix + 2^l + k·2^(l+1)`.
    pub fn split_slots(suffix: usize, g: u32, l: u32) -> SlotStride {
        debug_assert!(l < g && suffix < 1 << l);
        SlotStride {
            first: suffix | 1 << l,
            step: 1 << (l + 1),
            end: 1 << g,
        }
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
        assert_eq!(d.get(1), b);
        assert_eq!(d.get(2), a);
        assert_eq!(d.get(3), b);
    }

    #[test]
    fn split_slots_are_strided() {
        // g=3 (8 slots): suffix 0 at l=0 hands over the odd slots.
        let odd: Vec<usize> = Directory::split_slots(0, 3, 0).iter().collect();
        assert_eq!(odd, [1, 3, 5, 7]);
        // Suffix 0b01 at l=2 hands over 0b101 alone.
        let one: Vec<usize> = Directory::split_slots(0b01, 3, 2).iter().collect();
        assert_eq!(one, [0b101]);
        // Suffix 1 at l=1: bit 1 set, bit 0 set.
        let two: Vec<usize> = Directory::split_slots(1, 3, 1).iter().collect();
        assert_eq!(two, [3, 7]);
        assert_eq!(Directory::split_slots(1, 3, 1).len(), 2);
    }
}
