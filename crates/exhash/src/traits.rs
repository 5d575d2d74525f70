//! The common key-value index interface all five schemes implement.
//!
//! [`Index`] is the two-layer contract of the redesigned API:
//!
//! * **Reads take `&self`.** Any number of threads may share an index and
//!   look up concurrently (Shortcut-EH routes such reads through its
//!   version-gated shortcut directory); per-read bookkeeping uses
//!   interior mutability. Schemes whose reads are *not* thread-safe (HTI
//!   migrates entries on every access through a `RefCell`) are simply
//!   `!Sync`, so the compiler — not a comment — enforces the difference.
//! * **Writes take `&mut self` and are fallible.** Inserts may grow a page
//!   pool or double a directory; those paths surface a typed
//!   [`IndexError`] instead of panicking deep inside an allocation.
//!
//! Batched entry points ([`Index::get_many`], [`Index::insert_batch`]) have
//! loop defaults; schemes override them when a batch can amortize real work
//! (Shortcut-EH decides the access path once per batch instead of per key).

use crate::error::IndexError;

/// A key-value index over `u64 → u64` with shared-reader lookups and
/// fallible writes. See the module docs for the contract.
pub trait Index {
    /// Insert or update a key.
    ///
    /// # Errors
    ///
    /// Returns an [`IndexError`] when backing storage cannot grow (pool or
    /// `mmap` failure, directory depth cap). The index stays consistent:
    /// a failed insert leaves all previously inserted entries readable.
    fn insert(&mut self, key: u64, value: u64) -> Result<(), IndexError>;

    /// Look up a key.
    ///
    /// Takes `&self`: on `Sync` schemes (notably Shortcut-EH) any number of
    /// threads may call this concurrently while no writer exists.
    fn get(&self, key: u64) -> Option<u64>;

    /// Remove a key, returning its value.
    ///
    /// # Errors
    ///
    /// Reserved for schemes whose removals must touch fallible storage;
    /// the five built-in schemes currently never fail here.
    fn remove(&mut self, key: u64) -> Result<Option<u64>, IndexError>;

    /// Number of live entries.
    fn len(&self) -> usize;

    /// Whether the index is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Short display name ("HT", "HTI", "CH", "EH", "Shortcut-EH").
    fn name(&self) -> &'static str;

    /// Look up a batch of keys; `out[i]` answers `keys[i]`.
    ///
    /// The default loops over [`Index::get`]. Schemes override this when a
    /// batch amortizes per-lookup overhead.
    fn get_many(&self, keys: &[u64]) -> Vec<Option<u64>> {
        keys.iter().map(|&k| self.get(k)).collect()
    }

    /// Insert a batch of `(key, value)` pairs, stopping at the first error.
    ///
    /// # Errors
    ///
    /// Propagates the first failing insert; entries before it are applied.
    fn insert_batch(&mut self, entries: &[(u64, u64)]) -> Result<(), IndexError> {
        for &(k, v) in entries {
            self.insert(k, v)?;
        }
        Ok(())
    }

    /// Remove a batch of keys; `out[i]` is the value `keys[i]` held (the
    /// same answer shape as [`Index::get_many`]). Duplicate keys in one
    /// batch behave like sequential removes: the first occurrence takes
    /// the value, later ones see `None`.
    ///
    /// # Errors
    ///
    /// Propagates the first failing remove; keys before it stay removed.
    fn remove_batch(&mut self, keys: &[u64]) -> Result<Vec<Option<u64>>, IndexError> {
        keys.iter().map(|&k| self.remove(k)).collect()
    }
}

// The seed's `KvIndex` shim (panic-on-error writes, `&mut self` reads)
// lived here as a blanket impl for one release after the 0.2.0 API
// redesign; it was removed in 0.3.0 along with the deprecated panicking
// `new` constructors. Migrate via `Index`: reads take `&self`, writes
// return `Result<_, IndexError>`.
