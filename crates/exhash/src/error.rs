//! The unified error type of the index layer.
//!
//! Every fallible index operation — construction, inserts that may grow the
//! bucket pool or double the directory, batch writes — reports an
//! [`IndexError`]. Substrate failures ([`shortcut_rewire::Error`], e.g. an
//! `mmap` hitting `vm.max_map_count`, or a pool exhausting its virtual
//! reservation) are wrapped rather than unwrapped, so callers can match on
//! the `errno`-carrying cause instead of getting a panic out of a deep
//! allocation path.

use std::fmt;

/// Errors produced by index construction and write operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexError {
    /// The rewiring substrate failed (pool growth, `mmap`, `ftruncate`, …).
    ///
    /// The classic production case: `mmap` returning `ENOMEM` because
    /// `vm.max_map_count` is exhausted, or the pool hitting its fixed
    /// virtual reservation ([`shortcut_rewire::Error::BadResize`]).
    Pool(shortcut_rewire::Error),
    /// The directory would exceed its maximum global depth,
    /// [`crate::eh::MAX_GLOBAL_DEPTH`] (a guard against pathological key
    /// distributions exhausting memory).
    DepthLimit {
        /// The cap that would have been crossed.
        max_global_depth: u32,
    },
    /// A configuration value was rejected up front.
    Config {
        /// Human-readable description of the violated precondition.
        what: String,
    },
}

impl IndexError {
    /// Convenience constructor for configuration errors.
    pub(crate) fn config(what: impl Into<String>) -> Self {
        IndexError::Config { what: what.into() }
    }
}

impl From<shortcut_rewire::Error> for IndexError {
    fn from(e: shortcut_rewire::Error) -> Self {
        IndexError::Pool(e)
    }
}

impl fmt::Display for IndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexError::Pool(e) => write!(f, "page pool failure: {e}"),
            IndexError::DepthLimit { max_global_depth } => write!(
                f,
                "directory would exceed max_global_depth={max_global_depth} \
                 (pathological key distribution?)"
            ),
            IndexError::Config { what } => write!(f, "invalid configuration: {what}"),
        }
    }
}

impl std::error::Error for IndexError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IndexError::Pool(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn wraps_rewire_errors_with_source() {
        let cause = shortcut_rewire::Error::BadResize {
            current: 4,
            requested: 5,
        };
        let e = IndexError::from(cause.clone());
        assert_eq!(e, IndexError::Pool(cause));
        assert!(e.source().is_some(), "cause must be preserved");
        assert!(e.to_string().contains("pool"), "{e}");
    }

    #[test]
    fn display_depth_limit_names_the_cap() {
        let e = IndexError::DepthLimit {
            max_global_depth: 28,
        };
        assert!(e.to_string().contains("28"), "{e}");
    }

    #[test]
    fn display_config() {
        let e = IndexError::config("load factor too small");
        assert!(e.to_string().contains("load factor too small"));
    }
}
