//! Synchronization facade: `std` primitives by default, loomish-
//! instrumented ones when the `loomish` feature is enabled.
//!
//! Every concurrency protocol in the stack (the [`crate::RetireList`]
//! pin/reclaim Dekker pairing here, the serving word in `shortcut-core`, the
//! reply-slot rendezvous in `shortcut-server`) routes its atomics, mutexes
//! and condvars through this module, so the exact production code can be
//! run under the loomish model checker by flipping one feature. With the
//! feature enabled but no model active (ordinary tests, binaries), the
//! loomish types pass through to `std` with identical behavior.

#[cfg(feature = "loomish")]
pub use loomish::sync::{
    fence, AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Condvar, Mutex, MutexGuard, Ordering,
    WaitTimeoutResult,
};

#[cfg(feature = "loomish")]
pub use loomish::thread;

#[cfg(not(feature = "loomish"))]
pub use std::sync::atomic::{fence, AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};

#[cfg(not(feature = "loomish"))]
pub use std::sync::{Condvar, Mutex, MutexGuard, WaitTimeoutResult};

#[cfg(not(feature = "loomish"))]
pub use std::thread;
