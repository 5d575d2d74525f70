//! Main-memory files: `memfd_create(2)` + `ftruncate(2)`.
//!
//! A main-memory file acts like a normal file but is backed by volatile
//! physical memory. Its file descriptor is the program's *handle to physical
//! memory*: mapping a byte range of the file with `mmap(MAP_SHARED)`
//! establishes a controllable virtual→physical mapping (paper §2).

use crate::error::{Error, Result};
use crate::page::{is_page_aligned, page_size};
use std::ffi::CString;
use std::os::unix::io::RawFd;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A file living purely in physical main memory.
///
/// The file is created with `memfd_create` and resized with `ftruncate` at
/// page granularity. Dropping the `MemFile` closes the descriptor, which
/// releases the physical pages once the last mapping of them goes away.
#[derive(Debug)]
pub struct MemFile {
    fd: RawFd,
    /// Current length in bytes. Atomic so a shared handle (mapper thread)
    /// can read it without locking; only the owner resizes.
    len: AtomicUsize,
}

impl MemFile {
    /// Create an empty main-memory file. `name` is purely diagnostic (it
    /// shows up in `/proc/self/fd`), need not be unique.
    pub fn create(name: &str) -> Result<Self> {
        Self::create_with_flags(name, 0)
    }

    /// Create a main-memory file backed by **2 MB hardware hugepages**
    /// (`MFD_HUGETLB | MFD_HUGE_2MB`). Fails on kernels without hugetlb
    /// support or sandboxes that filter the flag; creation succeeding does
    /// **not** guarantee that hugepages are actually reserved — callers
    /// must probe a mapping (see `PagePool`'s detection) and fall back.
    pub fn create_huge(name: &str) -> Result<Self> {
        Self::create_with_flags(name, libc::MFD_HUGETLB | libc::MFD_HUGE_2MB)
    }

    fn create_with_flags(name: &str, flags: libc::c_uint) -> Result<Self> {
        let cname = CString::new(name).map_err(|_| Error::invalid("name contains NUL"))?;
        // SAFETY: memfd_create with a valid C string.
        let fd = unsafe { libc::memfd_create(cname.as_ptr(), flags) };
        if fd < 0 {
            return Err(Error::os("memfd_create"));
        }
        Ok(MemFile {
            fd,
            len: AtomicUsize::new(0),
        })
    }

    /// The raw file descriptor, for use in `mmap` calls.
    #[inline]
    pub fn fd(&self) -> RawFd {
        self.fd
    }

    /// Current file length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// Whether the file currently has zero length.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Release the physical memory backing `[offset, offset + len)` without
    /// changing the file size (`fallocate(FALLOC_FL_PUNCH_HOLE)`). The range
    /// reads as zeros afterwards and is materialized again on next write.
    ///
    /// This is how a pool reclaims physical memory of freed pages that are
    /// *not* at the end of the file (where `ftruncate` cannot reach).
    pub fn punch_hole(&self, offset: usize, len: usize) -> Result<()> {
        if !is_page_aligned(offset) || !is_page_aligned(len) {
            return Err(Error::invalid("punch_hole range must be page aligned"));
        }
        // SAFETY: fd is a valid memfd owned by self; flags are the
        // documented hole-punching combination.
        let rc = unsafe {
            libc::fallocate(
                self.fd,
                libc::FALLOC_FL_PUNCH_HOLE | libc::FALLOC_FL_KEEP_SIZE,
                offset as libc::off_t,
                len as libc::off_t,
            )
        };
        if rc != 0 {
            return Err(Error::os("fallocate"));
        }
        Ok(())
    }

    /// Resize the file to `new_len` bytes (must be page aligned). Growing
    /// provides new zero-filled physical pages; shrinking releases the tail.
    pub fn resize(&self, new_len: usize) -> Result<()> {
        if !is_page_aligned(new_len) {
            return Err(Error::invalid(format!(
                "resize length {new_len} not a multiple of the page size {}",
                page_size()
            )));
        }
        // SAFETY: fd is a valid memfd owned by self.
        let rc = unsafe { libc::ftruncate(self.fd, new_len as libc::off_t) };
        if rc != 0 {
            return Err(Error::os("ftruncate"));
        }
        self.len.store(new_len, Ordering::Release);
        Ok(())
    }
}

impl Drop for MemFile {
    fn drop(&mut self) {
        // SAFETY: fd is owned and not yet closed; double-close is impossible
        // because Drop runs at most once.
        unsafe {
            libc::close(self.fd);
        }
    }
}

// SAFETY: the fd is just an integer handle; concurrent mmap/read through it
// is mediated by the kernel. Resizes are atomic at the kernel level and the
// cached length uses release/acquire.
unsafe impl Send for MemFile {}
// SAFETY: same argument as Send — every &self method is a kernel-mediated
// fd call plus an atomic length read; there is no unsynchronized state.
unsafe impl Sync for MemFile {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_and_resize() {
        let f = MemFile::create("test").unwrap();
        assert!(f.is_empty());
        f.resize(4 * page_size()).unwrap();
        assert_eq!(f.len(), 4 * page_size());
        f.resize(2 * page_size()).unwrap();
        assert_eq!(f.len(), 2 * page_size());
        f.resize(0).unwrap();
        assert!(f.is_empty());
    }

    #[test]
    fn unaligned_resize_rejected() {
        let f = MemFile::create("test").unwrap();
        let err = f.resize(100).unwrap_err();
        assert!(matches!(err, Error::InvalidArg { .. }));
    }

    #[test]
    fn name_with_nul_rejected() {
        assert!(MemFile::create("a\0b").is_err());
    }

    #[test]
    fn punch_hole_zeroes_range_and_keeps_size() {
        let f = MemFile::create("hole").unwrap();
        f.resize(4 * page_size()).unwrap();
        // SAFETY: fresh MAP_SHARED mapping of this test's memfd; every offset
        // stays inside the mapped length and munmap precedes the fd's drop.
        unsafe {
            let p = libc::mmap(
                std::ptr::null_mut(),
                4 * page_size(),
                libc::PROT_READ | libc::PROT_WRITE,
                libc::MAP_SHARED,
                f.fd(),
                0,
            );
            assert_ne!(p, libc::MAP_FAILED);
            for i in 0..4 {
                *(p as *mut u64).add(i * page_size() / 8) = 1000 + i as u64;
            }
            match f.punch_hole(page_size(), page_size()) {
                Err(Error::Os { errno, .. }) if errno == libc::EOPNOTSUPP => {
                    // Sandboxed kernels (e.g. gVisor) do not implement
                    // FALLOC_FL_PUNCH_HOLE on memfds; the API degrades to
                    // an error the pool can ignore. Nothing more to check.
                    libc::munmap(p, 4 * page_size());
                    return;
                }
                other => other.unwrap(),
            }
            assert_eq!(f.len(), 4 * page_size(), "size unchanged");
            assert_eq!(*(p as *const u64), 1000);
            assert_eq!(
                *(p as *const u64).add(page_size() / 8),
                0,
                "hole reads zero"
            );
            assert_eq!(*(p as *const u64).add(2 * page_size() / 8), 1002);
            // The hole is writable again (fresh zero page materializes).
            *(p as *mut u64).add(page_size() / 8) = 77;
            assert_eq!(*(p as *const u64).add(page_size() / 8), 77);
            libc::munmap(p, 4 * page_size());
        }
    }

    #[test]
    fn punch_hole_rejects_unaligned() {
        let f = MemFile::create("hole2").unwrap();
        f.resize(page_size()).unwrap();
        assert!(f.punch_hole(1, page_size()).is_err());
        assert!(f.punch_hole(0, 100).is_err());
    }

    #[test]
    fn contents_survive_grow() {
        // Write through a mapping, grow, check the data is still there.
        let f = MemFile::create("grow").unwrap();
        f.resize(page_size()).unwrap();
        // SAFETY: fresh MAP_SHARED mapping of this test's memfd; every offset
        // stays inside the mapped length and munmap precedes the fd's drop.
        unsafe {
            let p = libc::mmap(
                std::ptr::null_mut(),
                page_size(),
                libc::PROT_READ | libc::PROT_WRITE,
                libc::MAP_SHARED,
                f.fd(),
                0,
            );
            assert_ne!(p, libc::MAP_FAILED);
            *(p as *mut u64) = 0xdead_beef;
            libc::munmap(p, page_size());
        }
        f.resize(8 * page_size()).unwrap();
        // SAFETY: fresh MAP_SHARED mapping of this test's memfd; every offset
        // stays inside the mapped length and munmap precedes the fd's drop.
        unsafe {
            let p = libc::mmap(
                std::ptr::null_mut(),
                page_size(),
                libc::PROT_READ,
                libc::MAP_SHARED,
                f.fd(),
                0,
            );
            assert_ne!(p, libc::MAP_FAILED);
            assert_eq!(*(p as *const u64), 0xdead_beef);
            libc::munmap(p, page_size());
        }
    }
}
