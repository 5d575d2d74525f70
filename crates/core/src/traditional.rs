//! The traditional pointer-based inner node (paper Figure 1a).
//!
//! A flat array of `k` slots, each holding a raw pointer to a page-sized
//! leaf node (or null). Looking up slot `i` costs one array load plus one
//! pointer dereference — and, invisibly, up to two page-table translations,
//! which is precisely the overhead the shortcut variant eliminates.

/// A `k`-slot inner node holding explicit pointers to leaf pages.
///
/// Leaf pointers typically point into a [`shortcut_rewire::PagePool`]'s
/// linear view (whose base address is stable), but any stable address
/// works — the node does not own the leaves.
pub struct TraditionalNode {
    slots: Box<[*mut u8]>,
}

impl TraditionalNode {
    /// A node with `k` null slots.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "node must have at least one slot");
        TraditionalNode {
            slots: vec![std::ptr::null_mut(); k].into_boxed_slice(),
        }
    }

    /// Number of slots.
    #[inline]
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// Store `leaf` in slot `i` (the paper's "setting an indirection").
    #[inline]
    pub fn set_slot(&mut self, i: usize, leaf: *mut u8) {
        self.slots[i] = leaf;
    }

    /// The pointer stored in slot `i` (possibly null).
    #[inline]
    pub fn get(&self, i: usize) -> *mut u8 {
        self.slots[i]
    }

    /// Where slot `i` itself is stored, for callers that prefetch the
    /// slot ahead of following it.
    #[inline]
    pub fn slot_addr(&self, i: usize) -> *const *mut u8 {
        &self.slots[i]
    }

    /// Follow slot `i` to its leaf. Returns `None` for null slots.
    ///
    /// This is the *three-indirection* path of Figure 1a: (1) the implicit
    /// page-table translation for the slot array access, (2) the explicit
    /// pointer, (3) the implicit translation for the leaf access performed
    /// by the caller's subsequent reads.
    #[inline]
    pub fn follow(&self, i: usize) -> Option<*mut u8> {
        let p = self.slots[i];
        if p.is_null() {
            None
        } else {
            Some(p)
        }
    }

    /// Grow to twice the slots (used by directory doubling): the upper
    /// half is a copy of the lower one, slot `i + k` receiving the pointer
    /// of slot `i` — the doubling rule of a directory indexed by hash
    /// suffix.
    pub fn doubled(&self) -> TraditionalNode {
        TraditionalNode {
            slots: [&self.slots[..], &self.slots[..]]
                .concat()
                .into_boxed_slice(),
        }
    }

    /// Iterate over `(slot, pointer)` pairs of non-null slots.
    pub fn iter_set(&self) -> impl Iterator<Item = (usize, *mut u8)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, p)| !p.is_null())
            .map(|(i, p)| (i, *p))
    }
}

// SAFETY: the node only stores pointers; dereferencing them is the caller's
// (unsafe) responsibility. Sending the table of pointers across threads is
// fine as long as the pointees outlive it, which the owner guarantees.
unsafe impl Send for TraditionalNode {}
// SAFETY: no interior mutability — every mutation requires `&mut self`, so
// shared references permit only reads of the plain pointer array.
unsafe impl Sync for TraditionalNode {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_null() {
        let n = TraditionalNode::new(4);
        assert_eq!(n.slots(), 4);
        for i in 0..4 {
            assert!(n.follow(i).is_none());
        }
    }

    #[test]
    fn set_and_follow() {
        let mut n = TraditionalNode::new(4);
        let mut leaf = [0u8; 8];
        n.set_slot(2, leaf.as_mut_ptr());
        assert_eq!(n.follow(2), Some(leaf.as_mut_ptr()));
        assert!(n.follow(1).is_none());
    }

    #[test]
    fn doubling_replicates_pointers() {
        let mut n = TraditionalNode::new(2);
        let mut a = [0u8; 8];
        let mut b = [0u8; 8];
        n.set_slot(0, a.as_mut_ptr());
        n.set_slot(1, b.as_mut_ptr());
        let d = n.doubled();
        assert_eq!(d.slots(), 4);
        assert_eq!(d.get(0), a.as_mut_ptr());
        assert_eq!(d.get(1), b.as_mut_ptr());
        assert_eq!(d.get(2), a.as_mut_ptr());
        assert_eq!(d.get(3), b.as_mut_ptr());
    }

    #[test]
    fn iter_set_skips_nulls() {
        let mut n = TraditionalNode::new(4);
        let mut a = [0u8; 8];
        n.set_slot(3, a.as_mut_ptr());
        let set: Vec<_> = n.iter_set().collect();
        assert_eq!(set, vec![(3, a.as_mut_ptr())]);
    }

    #[test]
    #[should_panic]
    fn zero_slots_rejected() {
        let _ = TraditionalNode::new(0);
    }
}
