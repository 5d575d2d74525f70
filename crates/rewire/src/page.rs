//! Page-size constants and helpers.
//!
//! The paper works exclusively with 4 KB **base pages** (the leaf/bucket
//! size of all evaluated structures). We nonetheless query the real page
//! size at runtime and refuse to run on systems where it differs, rather
//! than silently corrupting offsets.
//!
//! These constants are the workspace's **canonical** definition of the
//! base-page geometry: every real-mapping layer (pool, areas, buckets)
//! derives its byte arithmetic from them. (`shortcut_vmsim` defines its own `PAGE_SIZE`
//! on purpose — it is a self-contained software model of a 4 KB-paged
//! machine and must stay independent of what the host mappings use.)

use std::sync::OnceLock;

/// The 4 KB small-page size the paper's structures are built around.
pub const PAGE_SIZE_4K: usize = 4096; // audit:allow(page-literal): the definition the rest of the tree must use

/// `log2(PAGE_SIZE_4K)`, handy for shifting byte offsets to page indices.
pub const PAGE_SHIFT_4K: u32 = 12;

/// Index of a physical 4 KB page inside a [`crate::PagePool`]'s
/// main-memory file: `PageIdx(i)` denotes the page at byte offset
/// `i << 12`. It is the *handle to physical memory* the paper's technique
/// revolves around: a rewiring call maps a virtual page of a
/// [`crate::VirtArea`] to the pool page named by a `PageIdx`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageIdx(pub usize);

impl PageIdx {
    /// Byte offset of this page in the pool file.
    #[inline]
    pub fn byte_offset(self) -> usize {
        self.0 * page_size()
    }

    /// The page immediately after this one.
    #[inline]
    pub fn next(self) -> PageIdx {
        PageIdx(self.0 + 1)
    }
}

impl std::fmt::Display for PageIdx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ppage{}", self.0)
    }
}

/// The system page size, queried once via `sysconf(_SC_PAGESIZE)`.
///
/// # Panics
///
/// Panics if the system page size is not 4 KB: every size computation in the
/// paper (bucket capacity, directory growth, TLB reach) assumes 4 KB pages,
/// and running with e.g. 16 KB pages would produce silently wrong results.
#[inline]
pub fn page_size() -> usize {
    static PAGE_SIZE: OnceLock<usize> = OnceLock::new();
    *PAGE_SIZE.get_or_init(|| {
        // SAFETY: sysconf is always safe to call.
        let sz = unsafe { libc::sysconf(libc::_SC_PAGESIZE) };
        assert!(sz > 0, "sysconf(_SC_PAGESIZE) failed");
        let sz = sz as usize;
        assert_eq!(
            sz, PAGE_SIZE_4K,
            "this reproduction requires 4 KB pages (got {sz})"
        );
        sz
    })
}

/// Convert a number of pages to bytes.
#[inline]
pub fn pages_to_bytes(pages: usize) -> usize {
    pages * page_size()
}

/// Whether `off` is a multiple of the page size.
#[inline]
pub fn is_page_aligned(off: usize) -> bool {
    off.is_multiple_of(page_size())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_size_is_4k() {
        assert_eq!(page_size(), PAGE_SIZE_4K);
    }

    #[test]
    fn page_idx_byte_offset() {
        assert_eq!(PageIdx(0).byte_offset(), 0);
        assert_eq!(PageIdx(3).byte_offset(), 3 * PAGE_SIZE_4K);
        assert_eq!(PageIdx(3).next(), PageIdx(4));
    }

    #[test]
    fn alignment_helpers() {
        assert!(is_page_aligned(0));
        assert!(is_page_aligned(8192));
        assert!(!is_page_aligned(1));
        assert!(!is_page_aligned(4095));
        assert_eq!(pages_to_bytes(3), 12288);
    }

    #[test]
    fn page_idx_display() {
        assert_eq!(PageIdx(2).to_string(), "ppage2");
    }
}
