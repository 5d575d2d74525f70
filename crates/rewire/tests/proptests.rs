//! Property tests: the rewiring substrate against pure-Rust shadow models.
//!
//! Two invariant families are exercised:
//!
//! 1. **Pool allocator**: arbitrary mixes of `alloc_page`, `alloc_page_at`
//!    and `alloc_run` never hand out the same page twice, keep every page
//!    inside the file and the view, and hand out pages that read zeros
//!    until written and keep what was written.
//! 2. **Rewiring**: a `VirtArea` whose pages are rewired according to an
//!    arbitrary script always reads back exactly what a `HashMap`-based
//!    shadow model predicts, including under remapping, resets, and
//!    fan-in > 1 (several slots aliasing one leaf).

use proptest::prelude::*;
use shortcut_rewire::{page_size, Mapping, PageIdx, PagePool, PoolConfig, VirtArea};
use std::collections::{HashMap, HashSet};

fn test_pool(initial: usize) -> PagePool {
    PagePool::new(PoolConfig {
        initial_pages: initial,
        min_growth_pages: 4,
        view_capacity_pages: 4096,
        ..PoolConfig::default()
    })
    .unwrap()
}

/// The view capacity of [`test_pool`], in pages.
const VIEW: usize = 4096;

#[derive(Debug, Clone)]
enum PoolOp {
    Alloc,
    /// `alloc_page_at` of this page, which may lie past the view.
    At(usize),
    /// `alloc_run` of this many pages.
    Run(usize),
    /// Write a fresh stamp into the i-th page handed out (modulo their count).
    Write(usize),
}

fn pool_ops() -> impl Strategy<Value = Vec<PoolOp>> {
    proptest::collection::vec(
        prop_oneof![
            3 => Just(PoolOp::Alloc),
            3 => (0usize..96).prop_map(PoolOp::At),
            1 => (VIEW..VIEW + 64).prop_map(PoolOp::At),
            1 => (1usize..8).prop_map(PoolOp::Run),
            3 => (0usize..1024).prop_map(PoolOp::Write),
        ],
        1..200,
    )
}

/// Apply `op` and return the pages it handed out.
fn handed_out_by(pool: &mut PagePool, op: &PoolOp) -> Vec<PageIdx> {
    match *op {
        PoolOp::Alloc => vec![pool.alloc_page().unwrap()],
        PoolOp::At(page) => vec![pool.alloc_page_at(page).unwrap()],
        PoolOp::Run(n) => {
            let start = pool.alloc_run(n).unwrap();
            (start.0..start.0 + n).map(PageIdx).collect()
        }
        PoolOp::Write(_) => Vec::new(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pool_allocator_never_duplicates(ops in pool_ops()) {
        let mut pool = test_pool(1);
        let mut handed: HashSet<usize> = HashSet::new();

        for op in &ops {
            // `alloc_page_at` hands out the page asked for exactly when it
            // lies inside the view and was never handed out.
            let placed = match *op {
                PoolOp::At(page) => Some((page, page < VIEW && !handed.contains(&page))),
                _ => None,
            };
            for p in handed_out_by(&mut pool, op) {
                prop_assert!(handed.insert(p.0), "page {} handed out twice", p);
                prop_assert!(p.0 < pool.file_pages() && p.0 < VIEW);
                if let Some((page, free)) = placed {
                    prop_assert_eq!(p.0 == page, free, "alloc_page_at({}) gave {}", page, p);
                }
            }
            prop_assert_eq!(pool.allocated_pages(), handed.len());
        }
    }

    #[test]
    fn pool_pages_keep_their_data(ops in pool_ops()) {
        let mut pool = test_pool(1);
        // Every page handed out, with the stamp last written to it (0: none).
        let mut pages: Vec<(PageIdx, u64)> = Vec::new();
        let mut stamp = 1u64;

        for op in &ops {
            if let PoolOp::Write(i) = *op {
                let len = pages.len().max(1);
                if let Some((p, v)) = pages.get_mut(i % len) {
                    unsafe { *(pool.page_ptr(*p) as *mut u64) = stamp; }
                    *v = stamp;
                    stamp += 1;
                }
            }
            for p in handed_out_by(&mut pool, op) {
                let base = pool.page_ptr(p) as *const u64;
                let zeroed = (0..page_size() / 8).all(|w| unsafe { *base.add(w) } == 0);
                prop_assert!(zeroed, "page {} handed out dirty", p);
                pages.push((p, 0));
            }
            for (p, v) in &pages {
                let got = unsafe { *(pool.page_ptr(*p) as *const u64) };
                prop_assert_eq!(got, *v, "page {} lost its data", p);
            }
        }
    }
}

#[derive(Debug, Clone)]
enum WireOp {
    /// Rewire slot `v % slots` to leaf `l % leaves`.
    Wire(usize, usize),
    /// Reset slot `v % slots` to anonymous.
    Reset(usize),
    /// Write a fresh stamp into leaf `l % leaves` (through the pool view).
    Scribble(usize),
}

fn wire_ops() -> impl Strategy<Value = Vec<WireOp>> {
    proptest::collection::vec(
        prop_oneof![
            4 => (0usize..1024, 0usize..1024).prop_map(|(v, l)| WireOp::Wire(v, l)),
            1 => (0usize..1024).prop_map(WireOp::Reset),
            2 => (0usize..1024).prop_map(WireOp::Scribble),
        ],
        1..120,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn rewired_area_matches_shadow_model(ops in wire_ops(), slots in 1usize..16, leaves in 1usize..12) {
        let mut pool = test_pool(leaves);
        let handle = pool.handle();
        let leaf_pages: Vec<PageIdx> = (0..leaves).map(|_| pool.alloc_page().unwrap()).collect();
        let mut leaf_stamp: Vec<u64> = vec![0; leaves];
        let mut stamp = 1u64;
        // Stamp every leaf through the pool view.
        for (i, p) in leaf_pages.iter().enumerate() {
            unsafe { *(pool.page_ptr(*p) as *mut u64) = stamp; }
            leaf_stamp[i] = stamp;
            stamp += 1;
        }

        let mut area = VirtArea::reserve(slots).unwrap();
        // shadow: slot -> Option<leaf index>
        let mut shadow: HashMap<usize, usize> = HashMap::new();

        for op in ops {
            match op {
                WireOp::Wire(v, l) => {
                    let (v, l) = (v % slots, l % leaves);
                    area.rewire(v, &handle, leaf_pages[l]).unwrap();
                    shadow.insert(v, l);
                }
                WireOp::Reset(v) => {
                    let v = v % slots;
                    area.reset(v).unwrap();
                    shadow.remove(&v);
                }
                WireOp::Scribble(l) => {
                    let l = l % leaves;
                    unsafe { *(pool.page_ptr(leaf_pages[l]) as *mut u64) = stamp; }
                    leaf_stamp[l] = stamp;
                    stamp += 1;
                }
            }
            // Validate every slot against the shadow model.
            for v in 0..slots {
                let got = unsafe { *(area.page_ptr(v) as *const u64) };
                match shadow.get(&v) {
                    Some(&l) => {
                        prop_assert_eq!(got, leaf_stamp[l], "slot {} should alias leaf {}", v, l);
                        prop_assert_eq!(area.mapping(v), Mapping::Pool(leaf_pages[l]));
                    }
                    None => {
                        prop_assert_eq!(got, 0, "anon slot {} must read zero", v);
                        prop_assert_eq!(area.mapping(v), Mapping::Anon);
                    }
                }
            }
        }
    }

    #[test]
    fn batch_rewire_equals_individual_rewires(
        pairs in proptest::collection::btree_map(0usize..32, 0usize..16, 1..24)
    ) {
        // Same assignments applied (a) one by one and (b) as a coalesced
        // batch must produce identical areas.
        let leaves = 16usize;
        let mut pool = test_pool(leaves);
        let handle = pool.handle();
        let run_start = pool.alloc_run(leaves).unwrap();
        for i in 0..leaves {
            unsafe { *(pool.page_ptr(PageIdx(run_start.0 + i)) as *mut u64) = 1000 + i as u64; }
        }

        let assignments: Vec<(usize, PageIdx)> = pairs
            .iter()
            .map(|(&v, &l)| (v, PageIdx(run_start.0 + l)))
            .collect();

        let mut one_by_one = VirtArea::reserve(32).unwrap();
        for &(v, p) in &assignments {
            one_by_one.rewire(v, &handle, p).unwrap();
        }
        let mut batched = VirtArea::reserve(32).unwrap();
        let calls = batched.rewire_batch(&handle, &assignments).unwrap();
        prop_assert!(calls as usize <= assignments.len());

        for v in 0..32 {
            prop_assert_eq!(one_by_one.mapping(v), batched.mapping(v));
            let a = unsafe { *(one_by_one.page_ptr(v) as *const u64) };
            let b = unsafe { *(batched.page_ptr(v) as *const u64) };
            prop_assert_eq!(a, b);
        }
    }
}

#[test]
fn full_page_copy_through_shortcut() {
    // Byte-level check across an entire page, not just the first word.
    let mut pool = test_pool(2);
    let handle = pool.handle();
    let leaf = pool.alloc_page().unwrap();
    let mut area = VirtArea::reserve(1).unwrap();
    area.rewire(0, &handle, leaf).unwrap();

    let n = page_size();
    unsafe {
        let through_shortcut = std::slice::from_raw_parts_mut(area.page_ptr(0), n);
        for (i, b) in through_shortcut.iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
    }
    unsafe {
        let through_pool = std::slice::from_raw_parts(pool.page_ptr(leaf), n);
        for (i, b) in through_pool.iter().enumerate() {
            assert_eq!(*b, (i % 251) as u8, "byte {i} mismatch");
        }
    }
}
