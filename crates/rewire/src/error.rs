//! Error type for rewiring operations.
//!
//! Every failing system call is reported with the call name and the captured
//! `errno`, because rewiring bugs are almost always diagnosed from exactly
//! that pair (e.g. `EINVAL` from `mmap` means a bad offset/length/alignment,
//! `ENOMEM` means the mapping count limit `vm.max_map_count` was hit — a
//! real concern for shortcut nodes, which create one mapping per slot).

use std::fmt;

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced by the rewiring substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A system call failed. Carries the call name and `errno`.
    Os {
        /// The libc function that failed (`"mmap"`, `"ftruncate"`, …).
        call: &'static str,
        /// The captured `errno` value.
        errno: i32,
    },
    /// An argument was out of range or misaligned.
    InvalidArg {
        /// Human-readable description of the violated precondition.
        what: String,
    },
    /// The pool was asked to grow past its view.
    BadResize {
        /// Current size in pages.
        current: usize,
        /// Requested size in pages.
        requested: usize,
    },
}

impl Error {
    /// Capture `errno` for a failed call.
    pub(crate) fn os(call: &'static str) -> Self {
        Error::Os {
            call,
            errno: std::io::Error::last_os_error().raw_os_error().unwrap_or(0),
        }
    }

    /// Convenience constructor for precondition violations.
    pub(crate) fn invalid(what: impl Into<String>) -> Self {
        Error::InvalidArg { what: what.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Os { call, errno } => {
                let msg = std::io::Error::from_raw_os_error(*errno);
                write!(f, "{call} failed: {msg} (errno {errno})")
            }
            Error::InvalidArg { what } => write!(f, "invalid argument: {what}"),
            Error::BadResize { current, requested } => {
                write!(f, "bad resize: {current} -> {requested} pages")
            }
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_os_error_includes_call_and_errno() {
        let e = Error::Os {
            call: "mmap",
            errno: libc::EINVAL,
        };
        let s = e.to_string();
        assert!(s.contains("mmap"), "{s}");
        assert!(s.contains(&libc::EINVAL.to_string()), "{s}");
    }

    #[test]
    fn display_invalid_arg() {
        let e = Error::invalid("offset not page aligned");
        assert!(e.to_string().contains("offset not page aligned"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(Error::invalid("x"), Error::InvalidArg { what: "x".into() });
        assert_ne!(Error::invalid("x"), Error::invalid("y"));
    }
}
