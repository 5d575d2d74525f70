//! Fixture of `cargo run -p xtask -- hotpath`: [`ShortcutIndex::get`]
//! compiled into one out-of-line, unmangled symbol (`hotpath_get`) that the
//! task disassembles to hold the read path's shape — size, no `lock`
//! prefix — where a timer cannot. Running it checks the symbol answers.
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

/// The plain-EH lookup the benchmark's `speedup_vs_eh` divides by, for
/// reading the two hit paths side by side (the task does not check it).
#[no_mangle]
#[inline(never)]
pub fn hotpath_eh_get(eh: &ExtendibleHash, key: u64) -> Option<u64> {
    eh.get(key)
}

fn main() -> Result<(), IndexError> {
    let mut index = ShortcutIndex::builder().capacity(1 << 14).build()?;
    for k in 0..1u64 << 14 {
        index.insert(k, !k)?;
    }
    index.wait_sync(Duration::from_secs(30));
    for k in 0..1u64 << 15 {
        let expect = (k < 1 << 14).then_some(!k);
        assert_eq!(hotpath_get(&index, std::hint::black_box(k)), expect);
    }
    println!("hotpath_get: {}", index.stats());

    let mut eh = ExtendibleHash::try_new(EhConfig::default())?;
    eh.insert(7, 70)?;
    assert_eq!(hotpath_eh_get(&eh, std::hint::black_box(7)), Some(70));
    Ok(())
}
