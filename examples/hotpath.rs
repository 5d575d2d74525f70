//! Fixture of `cargo run -p xtask -- hotpath`: [`ShortcutIndex::get`],
//! [`ShortcutIndex::insert`], [`ShortcutIndex::remove`] and
//! [`ShortcutIndex::get_many_into`], each compiled into one out-of-line,
//! unmangled symbol (`hotpath_get`, `hotpath_insert`, `hotpath_remove`,
//! `hotpath_get_many`) that the task disassembles to hold the path's shape
//! — size, frame, no `lock` prefix, where its calls go — where a timer
//! cannot; and `hotpath_index_get`, which links in the out-of-line
//! `<ShortcutIndex as Index>::get` the benchmark's point workloads time,
//! checked under its own (mangled) name. Running it checks the symbols
//! answer.
//!
//! ```bash
//! cargo run --release --example hotpath
//! ```

use std::time::Duration;
use taking_the_shortcut::exhash::{EhConfig, ExtendibleHash};
use taking_the_shortcut::{Index, IndexError, ShortcutIndex};

/// The whole single-key read path, inlined into one symbol.
#[no_mangle]
#[inline(never)]
pub fn hotpath_get(index: &ShortcutIndex, key: u64) -> Option<u64> {
    index.get(key)
}

/// The lookup as a caller through the [`Index`] trait makes it — the
/// benchmark's `get` arm: one call into the out-of-line
/// `<ShortcutIndex as Index>::get`, compiled in `shortcut-exhash`, whose
/// body is what the task checks.
#[no_mangle]
#[inline(never)]
pub fn hotpath_index_get(index: &ShortcutIndex, key: u64) -> Option<u64> {
    <ShortcutIndex as Index>::get(index, key)
}

/// The whole batched read path: per window, the sections of the shards it
/// touches entered, its keys answered in batch order into the caller's
/// buffer, the sections left.
#[no_mangle]
#[inline(never)]
pub fn hotpath_get_many(index: &ShortcutIndex, keys: &[u64], out: &mut Vec<Option<u64>>) {
    index.get_many_into(keys, out);
}

/// The plain-EH lookup the benchmark's `speedup_vs_eh` divides by, for
/// reading the two hit paths side by side (the task does not check it).
#[no_mangle]
#[inline(never)]
pub fn hotpath_eh_get(eh: &ExtendibleHash, key: u64) -> Option<u64> {
    eh.get(key)
}

/// The whole single-key insert down to the EH body both arms share: route,
/// one call to it, one look at its event buffer, the relay out of line.
#[no_mangle]
#[inline(never)]
pub fn hotpath_insert(index: &mut ShortcutIndex, key: u64, value: u64) -> Result<(), IndexError> {
    index.insert(key, value)
}

/// The plain-EH insert the benchmark's `speedup_vs_eh` divides by: a jump
/// into the same body (the task does not check it).
#[no_mangle]
#[inline(never)]
pub fn hotpath_eh_insert(eh: &mut ExtendibleHash, key: u64, value: u64) -> Result<(), IndexError> {
    eh.insert(key, value)
}

/// The whole single-key remove: one hash, route, the shared EH body.
#[no_mangle]
#[inline(never)]
pub fn hotpath_remove(index: &mut ShortcutIndex, key: u64) -> Result<Option<u64>, IndexError> {
    index.remove(key)
}

fn main() -> Result<(), IndexError> {
    let mut index = ShortcutIndex::builder().capacity(1 << 14).build()?;
    for k in 0..1u64 << 14 {
        hotpath_insert(&mut index, std::hint::black_box(k), !k)?;
    }
    index.wait_sync(Duration::from_secs(30));
    for k in 0..1u64 << 15 {
        let expect = (k < 1 << 14).then_some(!k);
        assert_eq!(hotpath_get(&index, std::hint::black_box(k)), expect);
        assert_eq!(hotpath_index_get(&index, std::hint::black_box(k)), expect);
    }
    let keys: Vec<u64> = (0..1u64 << 15).collect();
    let mut answers = Vec::new();
    hotpath_get_many(&index, std::hint::black_box(&keys), &mut answers);
    for (&k, &answer) in keys.iter().zip(&answers) {
        assert_eq!(answer, (k < 1 << 14).then_some(!k));
    }
    println!("hotpath_get: {}", index.stats());

    let mut eh = ExtendibleHash::try_new(EhConfig::default())?;
    for k in 0..1u64 << 14 {
        hotpath_eh_insert(&mut eh, std::hint::black_box(k), !k)?;
    }
    assert_eq!(hotpath_eh_get(&eh, std::hint::black_box(7)), Some(!7));
    for k in 0..1u64 << 15 {
        let expect = (k < 1 << 14).then_some(!k);
        assert_eq!(hotpath_remove(&mut index, std::hint::black_box(k))?, expect);
    }
    assert!(index.is_empty());
    Ok(())
}
