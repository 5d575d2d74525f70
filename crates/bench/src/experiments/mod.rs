//! One module per table/figure of the paper, plus ablations.

pub mod ablations;
pub mod ext_skew;
pub mod fig2;
pub mod fig4;
pub mod fig5;
pub mod fig7;
pub mod fig8;
pub mod table1;

use shortcut_rewire::{PagePool, PoolConfig};

/// A pool sized for `pages` contiguous bucket pages with pre-touch enabled,
/// as the experiments need (paper: pool pages are initialized at creation
/// "to avoid expensive hard page faults at access time").
pub(crate) fn experiment_pool(pages: usize) -> PagePool {
    PagePool::new(PoolConfig {
        initial_pages: 0,
        min_growth_pages: pages.max(1),
        shrink_threshold_pages: usize::MAX, // experiments never shrink
        view_capacity_pages: pages + 64,
        ..PoolConfig::default()
    })
    .expect("pool creation failed — not enough memory for this scale?")
}

/// Largest shortcut-node slot count the kernel will let one node rewire.
///
/// Every slot whose neighbor maps a non-consecutive pool page costs one VMA
/// (`mmap` returns `ENOMEM` past `vm.max_map_count` — the concern the paper
/// raises about shortcut nodes). A quarter of the limit leaves room for the
/// pool view, the traditional node, and the allocator itself. Paper-scale
/// directories (up to 2²³ slots) need the sysctl raised; see README.
///
/// Derived from [`shortcut_rewire::max_map_count`], which reads the sysctl
/// **once** per process (cached, with a sane non-Linux fallback) — the
/// experiments that build raw [`shortcut_core::ShortcutNode`]s bypass the
/// mapper's budget admission, so they still cap slot counts up front.
pub(crate) fn slot_budget() -> usize {
    static BUDGET: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *BUDGET.get_or_init(|| (shortcut_rewire::max_map_count() / 4).max(1024))
}

/// Largest power of two ≤ `x`.
pub(crate) fn floor_pow2(x: usize) -> usize {
    assert!(x > 0);
    1 << (usize::BITS - 1 - x.leading_zeros())
}

/// [`slot_budget`] floored to a power of two — the slot count to hand to
/// fan-in sweeps, which need every fan-in in the sweep to divide it.
///
/// Fan-in-1 (identity) mappings coalesce into a single `mmap` and are not
/// bounded by the budget; only aliased nodes need this cap.
pub(crate) fn aliased_slot_cap() -> usize {
    floor_pow2(slot_budget())
}
