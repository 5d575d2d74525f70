//! Cross-crate integration tests: the full stack (rewire → core → exhash)
//! exercised together, with the mapper thread live.

use std::collections::HashMap;
use std::time::Duration;
use taking_the_shortcut::core::{ShortcutNode, TraditionalNode};
use taking_the_shortcut::exhash::{EhConfig, ExtendibleHash, Index, ShortcutIndex};
use taking_the_shortcut::rewire::{PageIdx, PagePool, PoolConfig};

#[test]
fn shortcut_eh_against_oracle_with_live_mapper() {
    let mut index = ShortcutIndex::builder().build().unwrap();
    let mut oracle: HashMap<u64, u64> = HashMap::new();

    // Mixed stream: inserts, updates, lookups, deletes — interleaved so the
    // shortcut repeatedly goes out of and back into sync.
    let mut x = 0x243F_6A88_85A3_08D3u64; // xorshift state
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for i in 0..120_000u64 {
        let r = next();
        let key = r % 30_000; // dense key space -> plenty of updates/hits
        match r % 10 {
            0..=5 => {
                index.insert(key, i).expect("insert failed");
                oracle.insert(key, i);
            }
            6..=8 => {
                assert_eq!(
                    index.get(key),
                    oracle.get(&key).copied(),
                    "get({key}) at op {i}"
                );
            }
            _ => {
                assert_eq!(
                    index.remove(key).expect("remove failed"),
                    oracle.remove(&key),
                    "remove({key}) at op {i}"
                );
            }
        }
        if i % 10_000 == 0 {
            assert_eq!(index.len(), oracle.len());
        }
    }

    // Quiesce and verify everything once more, now through the shortcut.
    assert!(index.wait_sync(Duration::from_secs(30)));
    for (&k, &v) in &oracle {
        assert_eq!(index.get(k), Some(v), "final get({k})");
    }
    assert!(index.maint_error().is_none());
    let s = index.stats().index;
    assert!(s.shortcut_lookups > 0, "shortcut path never exercised");
    assert!(s.traditional_lookups > 0, "fallback path never exercised");
}

#[test]
fn eh_and_shortcut_eh_agree_exactly() {
    let mut eh = ExtendibleHash::try_new(EhConfig::default()).unwrap();
    let mut sceh = ShortcutIndex::builder().build().unwrap();
    for k in 0..50_000u64 {
        let key = k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        eh.insert(key, k).unwrap();
        sceh.insert(key, k).unwrap();
    }
    sceh.wait_sync(Duration::from_secs(30));
    for k in 0..50_000u64 {
        let key = k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        assert_eq!(eh.get(key), sceh.get(key), "key {k}");
        assert_eq!(eh.get(key ^ 1), sceh.get(key ^ 1), "miss probe {k}");
    }
    assert_eq!(eh.len(), sceh.len());
}

#[test]
fn traditional_and_shortcut_nodes_read_identical_leaves() {
    // Figure 2's setup as a correctness statement: both node kinds must
    // observe the same leaf bytes for every slot, including after leaf
    // mutations and slot remaps.
    let slots = 512;
    let mut pool = PagePool::new(PoolConfig {
        initial_pages: 0,
        min_growth_pages: slots,
        view_capacity_pages: slots + 64,
        ..PoolConfig::default()
    })
    .unwrap();
    let handle = pool.handle();
    let run = pool.alloc_run(slots).unwrap();
    for i in 0..slots {
        unsafe {
            *(pool.page_ptr(PageIdx(run.0 + i)) as *mut u64) = 7000 + i as u64;
        }
    }
    let mut trad = TraditionalNode::new(slots);
    let mut short = ShortcutNode::new_populated(slots).unwrap();
    for i in 0..slots {
        trad.set_slot(i, pool.page_ptr(PageIdx(run.0 + i)));
        short.set_slot(i, &handle, PageIdx(run.0 + i)).unwrap();
    }

    let read = |t: &TraditionalNode, s: &ShortcutNode, i: usize| -> (u64, u64) {
        unsafe { (*(t.get(i) as *const u64), *(s.slot_ptr(i) as *const u64)) }
    };
    for i in 0..slots {
        let (a, b) = read(&trad, &short, i);
        assert_eq!(a, b, "slot {i} diverged");
    }
    // Mutate a leaf through the pool view: both see it.
    unsafe {
        *(pool.page_ptr(PageIdx(run.0 + 42)) as *mut u64) = 1;
    }
    let (a, b) = read(&trad, &short, 42);
    assert_eq!(a, 1);
    assert_eq!(b, 1);
    // Remap slot 0 on both: still identical.
    trad.set_slot(0, pool.page_ptr(PageIdx(run.0 + 99)));
    short.set_slot(0, &handle, PageIdx(run.0 + 99)).unwrap();
    let (a, b) = read(&trad, &short, 0);
    assert_eq!(a, b);
    assert_eq!(a, 7099);
}

#[test]
fn vmsim_agrees_with_real_rewiring_on_remap_scripts() {
    // The same remap script applied to (a) the real OS substrate and
    // (b) the vmsim model must produce the same observable slot -> leaf
    // mapping. Leaves are identified by a stamp in their first word (real)
    // and by their file page (model).
    use taking_the_shortcut::vmsim::{AddressSpace, VirtAddr};

    let slots = 16usize;
    let leaves = 8usize;

    // Real side.
    let mut pool = PagePool::new(PoolConfig {
        initial_pages: leaves,
        view_capacity_pages: 64,
        ..PoolConfig::default()
    })
    .unwrap();
    let handle = pool.handle();
    let pages: Vec<PageIdx> = (0..leaves).map(|_| pool.alloc_page().unwrap()).collect();
    for (i, p) in pages.iter().enumerate() {
        unsafe {
            *(pool.page_ptr(*p) as *mut u64) = i as u64;
        }
    }
    let mut area = ShortcutNode::new(slots).unwrap();

    // Model side.
    let mut aspace = AddressSpace::new();
    let file = aspace.create_file();
    aspace.resize_file(file, leaves).unwrap();
    let addr = aspace.mmap_anon(slots);

    // Deterministic pseudo-random script.
    let mut x = 0xB7E1_5162_8AED_2A6Au64;
    for _ in 0..200 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = (x % slots as u64) as usize;
        let leaf = ((x >> 8) % leaves as u64) as usize;
        area.set_slot(slot, &handle, pages[leaf]).unwrap();
        aspace
            .mmap_file_fixed(VirtAddr(addr.0 + (slot as u64) * 4096), 1, file, leaf, true)
            .unwrap();

        // Compare observable state across all slots.
        for s in 0..slots {
            let real: Option<u64> = area
                .slot_mapping(s)
                .map(|_| unsafe { *(area.slot_ptr(s) as *const u64) });
            let model: Option<u64> = match aspace
                .backing_of(VirtAddr(addr.0 + (s as u64) * 4096).vpn())
            {
                Some(taking_the_shortcut::vmsim::MapKind::File { page, .. }) => Some(page as u64),
                _ => None,
            };
            assert_eq!(real, model, "slot {s} diverged between OS and model");
        }
    }
}
