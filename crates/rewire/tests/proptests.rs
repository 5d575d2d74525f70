//! Property tests: the rewiring substrate against pure-Rust shadow models.
//!
//! Two invariant families are exercised:
//!
//! 1. **Pool allocator**: arbitrary alloc/free sequences never hand out the
//!    same page twice, never lose pages, and keep every live page inside
//!    the file.
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

#[derive(Debug, Clone)]
enum PoolOp {
    Alloc,
    /// Free the i-th oldest live allocation (modulo live count).
    Free(usize),
}

fn pool_ops() -> impl Strategy<Value = Vec<PoolOp>> {
    proptest::collection::vec(
        prop_oneof![
            3 => Just(PoolOp::Alloc),
            2 => (0usize..64).prop_map(PoolOp::Free),
        ],
        1..200,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pool_allocator_never_duplicates(ops in pool_ops()) {
        let mut pool = test_pool(1);
        let mut live: Vec<PageIdx> = Vec::new();
        let mut live_set: HashSet<usize> = HashSet::new();

        for op in ops {
            match op {
                PoolOp::Alloc => {
                    let p = pool.alloc_page().unwrap();
                    prop_assert!(
                        live_set.insert(p.0),
                        "page {p} handed out twice (live: {live_set:?})"
                    );
                    live.push(p);
                }
                PoolOp::Free(i) => {
                    if live.is_empty() {
                        continue;
                    }
                    let idx = i % live.len();
                    let p = live.swap_remove(idx);
                    live_set.remove(&p.0);
                    pool.free_page(p).unwrap();
                }
            }
            prop_assert_eq!(pool.allocated_pages(), live.len());
            prop_assert!(pool.file_pages() >= live.len());
            // Every live page is addressable.
            for p in &live {
                prop_assert!(p.0 < pool.file_pages());
            }
        }
    }

    #[test]
    fn pool_pages_keep_their_data(ops in pool_ops()) {
        let mut pool = test_pool(1);
        let mut live: Vec<(PageIdx, u64)> = Vec::new();
        let mut stamp = 1u64;

        for op in ops {
            match op {
                PoolOp::Alloc => {
                    let p = pool.alloc_page().unwrap();
                    unsafe { *(pool.page_ptr(p) as *mut u64) = stamp; }
                    live.push((p, stamp));
                    stamp += 1;
                }
                PoolOp::Free(i) => {
                    if live.is_empty() { continue; }
                    let idx = i % live.len();
                    let (p, _) = live.swap_remove(idx);
                    // Scrub so that reuse without re-init is caught.
                    unsafe { *(pool.page_ptr(p) as *mut u64) = u64::MAX; }
                    pool.free_page(p).unwrap();
                }
            }
            for (p, v) in &live {
                let got = unsafe { *(pool.page_ptr(*p) as *const u64) };
                prop_assert_eq!(got, *v, "page {} corrupted", p);
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
