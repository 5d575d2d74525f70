//! # shortcut-core — page-table-backed inner nodes
//!
//! The paper's contribution: replace the explicit pointer array of a
//! radix-style inner node with *implicit indirections in the OS page
//! table*, so that a slot lookup resolves a single hardware-accelerated
//! indirection instead of three.
//!
//! * [`TraditionalNode`] — the baseline: a `k`-slot array of pointers to
//!   page-sized leaf nodes (Figure 1a).
//! * [`ShortcutNode`] — the shortcut: a `k`-page virtual memory area whose
//!   i-th page *is* the i-th leaf, via rewiring (Figure 1b).
//! * [`maintenance`] — the asynchronous maintenance design of §4.1: a
//!   FIFO queue of update/create requests (a vector behind one mutex, one
//!   version bump per relay), a mapper thread that polls it (default every
//!   25 ms), version numbers that gate when the shortcut may serve reads,
//!   and the one serving word a read loads.
//! * [`route`] — the fan-in-based access-path choice of §3.2 (shortcut only
//!   while average fan-in ≤ 8).

pub mod maintenance;
pub mod metrics;
pub mod route;
pub mod shortcut_node;
pub mod traditional;
pub mod version;

pub use maintenance::{
    service_census, CompactionPolicy, InboxGuard, MaintConfig, MaintRequest, Maintainer,
    MapperEngine, SlotStride,
};
pub use metrics::MaintMetrics;
pub use route::RoutePolicy;
pub use shortcut_node::ShortcutNode;
pub use traditional::TraditionalNode;
pub use version::{ReadLine, ReadTicket, SharedDirectoryState};
