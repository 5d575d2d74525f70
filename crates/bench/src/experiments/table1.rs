//! **Table 1** (§3.1): the cost of creating and then using an inner node
//! with n = 2²² slots — traditional vs. shortcut with lazy vs. eager page-
//! table population.
//!
//! Phases: (1) allocate the node, (2) set n indirections to n leaves,
//! (3) optionally populate the page table, (4) 10 M random accesses,
//! (5) the same accesses again. Times for (1)–(3) are normalized per page,
//! (4)–(5) per access, exactly like the paper's table.

use crate::experiments::experiment_pool;
use crate::scale::ScaleArgs;
use crate::timing::{minor_faults, us_per, Stopwatch};
use crate::workload::KeyGen;
use crate::Table;
use shortcut_core::{ShortcutNode, TraditionalNode};
use shortcut_rewire::PageIdx;
use std::hint::black_box;

/// Options for the Table 1 run.
#[derive(Debug, Clone)]
pub struct Table1Opts {
    /// Slot count n (paper: 2²²).
    pub slots: usize,
    /// Random accesses (paper: 10⁷).
    pub accesses: usize,
    /// Workload seed.
    pub seed: u64,
}

impl Table1Opts {
    /// Derive sizes from the scale arguments.
    pub fn from_scale(s: &ScaleArgs) -> Self {
        Table1Opts {
            slots: s.pick(1 << 22, 1 << 20, 1 << 13),
            accesses: s.pick(10_000_000, 10_000_000, 200_000),
            seed: 42,
        }
    }
}

/// Per-variant phase measurements (all in µs, already normalized).
#[derive(Debug, Clone, Copy, Default)]
pub struct Phases {
    /// Allocation per page.
    pub allocate: f64,
    /// Setting one indirection (per page).
    pub set_indir: f64,
    /// Page-table population per page (None for variants that skip it).
    pub populate: Option<f64>,
    /// First access round, per access.
    pub access1: f64,
    /// Second access round, per access.
    pub access2: f64,
    /// `mmap` calls issued while setting the indirections (a count).
    pub set_mmap_calls: u64,
    /// Minor page faults taken during the first / second access round
    /// (counts): where the page-table population was paid.
    pub access_faults: [u64; 2],
}

/// Results for the three variants.
#[derive(Debug, Clone, Copy)]
pub struct Table1Result {
    /// Pointer-array node.
    pub traditional: Phases,
    /// Shortcut with lazy population (faults on first access).
    pub lazy: Phases,
    /// Shortcut with an explicit population phase.
    pub eager: Phases,
}

/// Run the experiment.
pub fn run(opts: &Table1Opts) -> (Table1Result, Table) {
    let n = opts.slots;
    let mut pool = experiment_pool(n);
    let handle = pool.handle();
    let run = pool.alloc_run(n).expect("leaf allocation failed");
    for i in 0..n {
        // SAFETY: fresh pool pages.
        unsafe {
            *(pool.page_ptr(PageIdx(run.0 + i)) as *mut u64) = i as u64;
        }
    }
    let idx = KeyGen::new(opts.seed).indices(n, opts.accesses);

    // ---- Traditional ----
    let sw = Stopwatch::start();
    let mut trad = TraditionalNode::new(n);
    let t_alloc = sw.elapsed();

    let sw = Stopwatch::start();
    for i in 0..n {
        trad.set_slot(i, pool.page_ptr(PageIdx(run.0 + i)));
    }
    let t_set = sw.elapsed();

    let ((t_a1, f_a1), (t_a2, f_a2)) = {
        let access = || {
            let faults = minor_faults();
            let sw = Stopwatch::start();
            let mut sum = 0u64;
            for &i in &idx {
                // SAFETY: all slots set above.
                sum = sum.wrapping_add(unsafe { *(trad.get(i as usize) as *const u64) });
            }
            black_box(sum);
            (sw.elapsed(), minor_faults() - faults)
        };
        (access(), access())
    };
    let traditional = Phases {
        allocate: us_per(t_alloc, n),
        set_indir: us_per(t_set, n),
        populate: None,
        access1: us_per(t_a1, opts.accesses),
        access2: us_per(t_a2, opts.accesses),
        set_mmap_calls: 0,
        access_faults: [f_a1, f_a2],
    };

    // ---- Shortcut (lazy and eager) ----
    let shortcut_variant = |eager: bool| -> Phases {
        let sw = Stopwatch::start();
        let mut node = ShortcutNode::new(n).expect("reserve failed");
        let s_alloc = sw.elapsed();

        // Worst case from the paper: one mmap per slot (no coalescing).
        let sw = Stopwatch::start();
        for i in 0..n {
            node.set_slot(i, &handle, PageIdx(run.0 + i))
                .expect("rewire failed");
        }
        let s_set = sw.elapsed();
        let set_mmap_calls = node.mmap_calls();

        let populate = if eager {
            let sw = Stopwatch::start();
            let touched = node.populate();
            assert_eq!(touched, n);
            Some(us_per(sw.elapsed(), n))
        } else {
            None
        };

        let base = node.base();
        let access = || {
            let faults = minor_faults();
            let sw = Stopwatch::start();
            let mut sum = 0u64;
            for &i in &idx {
                // SAFETY: all slots rewired above.
                sum = sum.wrapping_add(unsafe { *(base.add((i as usize) << 12) as *const u64) });
            }
            black_box(sum);
            (sw.elapsed(), minor_faults() - faults)
        };
        let ((a1, f1), (a2, f2)) = (access(), access());
        Phases {
            allocate: us_per(s_alloc, n),
            set_indir: us_per(s_set, n),
            populate,
            access1: us_per(a1, opts.accesses),
            access2: us_per(a2, opts.accesses),
            set_mmap_calls,
            access_faults: [f1, f2],
        }
    };

    let lazy = shortcut_variant(false);
    let eager = shortcut_variant(true);

    let result = Table1Result {
        traditional,
        lazy,
        eager,
    };

    let mut table = Table::new(
        format!(
            "Table 1 — creating and accessing an inner node with {} slots \
             ({} random accesses)",
            Table::n(n as u64),
            Table::n(opts.accesses as u64)
        ),
        &[
            "phase",
            "Traditional",
            "Shortcut (lazy)",
            "Shortcut (eager)",
        ],
    );
    let opt = |o: Option<f64>| o.map(Table::f).unwrap_or_else(|| "-".into());
    table.row(&[
        "Allocate [us/page]".into(),
        Table::f(result.traditional.allocate),
        Table::f(result.lazy.allocate),
        Table::f(result.eager.allocate),
    ]);
    table.row(&[
        "Set Indir. [us/page]".into(),
        Table::f(result.traditional.set_indir),
        Table::f(result.lazy.set_indir),
        Table::f(result.eager.set_indir),
    ]);
    table.row(&[
        "Populate [us/page]".into(),
        opt(result.traditional.populate),
        opt(result.lazy.populate),
        opt(result.eager.populate),
    ]);
    table.row(&[
        "1. Access [us/access]".into(),
        Table::f(result.traditional.access1),
        Table::f(result.lazy.access1),
        Table::f(result.eager.access1),
    ]);
    table.row(&[
        "2. Access [us/access]".into(),
        Table::f(result.traditional.access2),
        Table::f(result.lazy.access2),
        Table::f(result.eager.access2),
    ]);
    table.row(&[
        "Set Indir. [mmap calls]".into(),
        Table::n(result.traditional.set_mmap_calls),
        Table::n(result.lazy.set_mmap_calls),
        Table::n(result.eager.set_mmap_calls),
    ]);
    let faults = |p: &Phases| format!("{} / {}", p.access_faults[0], p.access_faults[1]);
    table.row(&[
        "1. / 2. Access [minor faults]".into(),
        faults(&result.traditional),
        faults(&result.lazy),
        faults(&result.eager),
    ]);
    (result, table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_match_paper_on_small_input() {
        let (r, t) = run(&Table1Opts {
            slots: 1 << 12,
            accesses: 100_000,
            seed: 1,
        });
        // The shapes of the paper's table, on counts: a wall-clock
        // comparison of two access rounds flips with the host's weather.
        // Setting indirections costs the shortcut one mmap per slot (on
        // top of the reservation) where the traditional node stores a
        // pointer.
        let n = 1u64 << 12;
        for shortcut in [&r.lazy, &r.eager] {
            assert!(shortcut.set_mmap_calls >= n, "{shortcut:?}");
        }
        assert_eq!(r.traditional.set_mmap_calls, 0);
        // The lazy variant's first access round pays the page-table
        // population as faults (one per fault-around window: 16 pages by
        // default, 256 allowed for here); the eager variant paid them in
        // its populate phase...
        let [lazy_first, lazy_second] = r.lazy.access_faults;
        assert!(
            lazy_first >= n / 256,
            "lazy first round: {lazy_first} faults"
        );
        assert!(
            r.eager.access_faults[0] * 4 < lazy_first,
            "eager first round: {:?} vs lazy {lazy_first}",
            r.eager.access_faults
        );
        // ...and the second round finds every page mapped.
        assert!(
            lazy_second * 4 < lazy_first,
            "lazy rounds: {lazy_first} then {lazy_second} faults"
        );
        assert!(t.render().contains("Set Indir."));
    }
}
