//! Address types and x86-64 4-level radix decomposition.

/// Simulated page size (4 KB, matching the paper's node/bucket size).
///
/// Deliberately independent of `shortcut_rewire::PAGE_SIZE_4K` (the
/// canonical constant for the *real*-mapping layers): the simulator
/// models a fixed 4 KB-paged x86-64 machine for deterministic cost
/// accounting, and must not drift with whatever the host's real mappings
/// use.
pub const PAGE_SIZE: u64 = 4096;

/// log2 of [`PAGE_SIZE`].
pub const PAGE_SHIFT: u32 = 12;

/// Bits of virtual-page number consumed per radix level (x86-64: 9).
pub const LEVEL_BITS: u32 = 9;

/// Number of radix levels (x86-64 with 4 KB pages: PML4→PDPT→PD→PT).
pub const LEVELS: usize = 4;

/// Entries per page-table node (2^9).
pub const FANOUT: usize = 1 << LEVEL_BITS;

/// A virtual byte address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VirtAddr(pub u64);

/// A physical byte address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PhysAddr(pub u64);

/// A virtual page number (virtual address >> 12).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Vpn(pub u64);

/// A physical frame number (physical address >> 12).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pfn(pub u64);

impl VirtAddr {
    /// The page this address falls into.
    #[inline]
    pub fn vpn(self) -> Vpn {
        Vpn(self.0 >> PAGE_SHIFT)
    }

    /// Offset within the page.
    #[inline]
    pub fn page_offset(self) -> u64 {
        self.0 & (PAGE_SIZE - 1)
    }
}

impl Vpn {
    /// First byte address of the page.
    #[inline]
    pub fn base(self) -> VirtAddr {
        VirtAddr(self.0 << PAGE_SHIFT)
    }

    /// Radix index of this VPN at `level`, where level 0 is the **root**
    /// (PML4) and level 3 is the leaf page-table level (PT).
    #[inline]
    pub fn level_index(self, level: usize) -> usize {
        debug_assert!(level < LEVELS);
        let shift = LEVEL_BITS * (LEVELS - 1 - level) as u32;
        ((self.0 >> shift) as usize) & (FANOUT - 1)
    }

    /// The page `n` places after this one.
    #[inline]
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, n: u64) -> Vpn {
        Vpn(self.0 + n)
    }
}

impl Pfn {
    /// First byte address of the frame.
    #[inline]
    pub fn base(self) -> PhysAddr {
        PhysAddr(self.0 << PAGE_SHIFT)
    }
}

impl PhysAddr {
    /// The frame this address falls into.
    #[inline]
    pub fn pfn(self) -> Pfn {
        Pfn(self.0 >> PAGE_SHIFT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vpn_and_offset() {
        let a = VirtAddr(0x1234_5678);
        assert_eq!(a.vpn(), Vpn(0x12345));
        assert_eq!(a.page_offset(), 0x678);
        assert_eq!(a.vpn().base(), VirtAddr(0x1234_5000));
    }

    #[test]
    fn level_indices_cover_36_bits() {
        // vpn = 0b l0(9) l1(9) l2(9) l3(9)
        let vpn = Vpn((1u64 << 27) | (2 << 18) | (3 << 9) | 4);
        assert_eq!(vpn.level_index(0), 1);
        assert_eq!(vpn.level_index(1), 2);
        assert_eq!(vpn.level_index(2), 3);
        assert_eq!(vpn.level_index(3), 4);
    }

    #[test]
    fn consecutive_pages_differ_only_in_leaf_index_usually() {
        let a = Vpn(511);
        let b = a.add(1);
        assert_eq!(a.level_index(3), 511);
        assert_eq!(b.level_index(3), 0);
        assert_eq!(b.level_index(2), a.level_index(2) + 1);
    }

    #[test]
    fn phys_roundtrip() {
        let p = Pfn(42);
        assert_eq!(p.base().pfn(), p);
        assert_eq!(p.base(), PhysAddr(42 * PAGE_SIZE));
    }
}
