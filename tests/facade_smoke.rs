//! Smoke test for the `taking_the_shortcut` facade: every re-exported
//! module path resolves, and a trivial end-to-end round-trip works through
//! the facade alone (no direct `shortcut_*` dependencies).

use taking_the_shortcut::{core, exhash, rewire, vmsim};

#[test]
fn facade_reexports_resolve() {
    // One load-bearing item per re-exported crate: referencing them through
    // the facade fails to compile if a re-export goes missing or renames.
    let _page: rewire::PageIdx = rewire::PageIdx(0);
    let _policy = core::RoutePolicy::default();
    let _cfg = exhash::EhConfig::default();
    let _addr = vmsim::VirtAddr(0);
    assert!(rewire::page_size() >= 4096);
    assert_eq!(vmsim::PAGE_SIZE, 4096);
}

#[test]
fn shortcut_node_round_trip_through_facade() {
    let mut pool = rewire::PagePool::new(rewire::PoolConfig {
        initial_pages: 4,
        view_capacity_pages: 64,
        ..rewire::PoolConfig::default()
    })
    .unwrap();
    let handle = pool.handle();
    let leaf = pool.alloc_page().unwrap();
    unsafe {
        *(pool.page_ptr(leaf) as *mut u64) = 0xC1D3_2024;
    }

    let mut node = core::ShortcutNode::new(2).unwrap();
    node.set_slot(0, &handle, leaf).unwrap();
    let got = unsafe { *(node.slot_ptr(0) as *const u64) };
    assert_eq!(got, 0xC1D3_2024, "shortcut slot must alias the pool page");
}

#[test]
fn extendible_hash_round_trip_through_facade() {
    use exhash::Index;

    let mut eh = exhash::ExtendibleHash::try_new(exhash::EhConfig::default()).unwrap();
    for k in 0..1000u64 {
        eh.insert(k, k * 7).unwrap();
    }
    assert_eq!(eh.len(), 1000);
    for k in 0..1000u64 {
        assert_eq!(eh.get(k), Some(k * 7));
    }
    assert_eq!(eh.remove(500).unwrap(), Some(3500));
    assert_eq!(eh.get(500), None);
    assert_eq!(eh.len(), 999);
}

#[test]
fn shortcut_index_round_trip_through_facade() {
    use taking_the_shortcut::Index;

    let mut idx = taking_the_shortcut::ShortcutIndex::builder()
        .capacity(2_000)
        .build()
        .unwrap();
    for k in 0..2000u64 {
        idx.insert(k, !k).unwrap();
    }
    idx.wait_sync(std::time::Duration::from_secs(5));
    for k in 0..2000u64 {
        assert_eq!(idx.get(k), Some(!k));
    }
    let s = idx.stats();
    assert_eq!(s.len, 2000);
    assert!(s.versions.0 > 0, "structural versions must have advanced");
    assert!(
        s.rewire.pages_allocated > 0,
        "pool counters must be merged into the snapshot"
    );
    assert!(idx.maint_error().is_none());
}

#[test]
fn index_trait_covers_every_scheme() {
    // The one remaining index surface (the 0.2.0 `KvIndex` shim and the
    // panicking constructors were removed in 0.3.0): shared-reader gets,
    // fallible writes, for all five schemes.
    fn roundtrip<T: exhash::Index>(t: &mut T) {
        t.insert(1, 11).unwrap();
        t.insert(2, 22).unwrap();
        assert_eq!(t.get(1), Some(11));
        assert_eq!(t.remove(2).unwrap(), Some(22));
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }
    roundtrip(&mut exhash::HashTable::with_defaults().unwrap());
    roundtrip(&mut exhash::IncrementalHashTable::with_defaults().unwrap());
    roundtrip(&mut exhash::ChainedHash::try_new(exhash::ChConfig { table_slots: 64 }).unwrap());
    roundtrip(&mut exhash::ExtendibleHash::with_defaults().unwrap());
    roundtrip(&mut exhash::ShortcutIndex::builder().build().unwrap());
}

#[test]
fn vmsim_round_trip_through_facade() {
    let mut aspace = vmsim::AddressSpace::new();
    let addr = aspace.mmap_anon(4);
    let mut mmu = vmsim::Mmu::with_defaults();
    let out = mmu.access(&mut aspace, addr).unwrap();
    assert!(out.ns > 0.0, "an access must cost something");
    assert!(mmu.stats.total_accesses() > 0);
}
