//! PR 10's headline microbench: single-key in-sync `get` through the
//! facade, across the read-path matrix —
//!
//! * slot size `k ∈ {0, 4}` (4 KB and 64 KB buckets: the SIMD probe's
//!   win grows with bucket capacity),
//! * pin strategy: auto-detected (asymmetric where membarrier works)
//!   versus builder-forced Dekker (the RMW fallback every read used to
//!   pay),
//!
//! plus the batched `get_many` path at the same slot sizes. The probe
//! backend is process-global (`SHORTCUT_PROBE=scalar|sse2|avx2`), so the
//! before/after of the vector kernels is captured by re-running this
//! bench under the override rather than by a third axis here.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;
use taking_the_shortcut::{Index, PinStrategy, ShortcutIndex};

const ENTRIES: u64 = 200_000;

fn build(k: u32, pin: Option<PinStrategy>) -> ShortcutIndex {
    let mut b = ShortcutIndex::builder()
        .capacity(ENTRIES as usize)
        .slot_pages(k)
        .poll_interval(Duration::from_millis(1))
        .vma_budget(1_000_000);
    if let Some(s) = pin {
        b = b.pin_strategy(s);
    }
    let mut index = b.build().expect("build index");
    let mut key = 0u64;
    while key < ENTRIES {
        let batch: Vec<(u64, u64)> = (key..key + 10_000).map(|x| (x, x ^ 0xC0FFEE)).collect();
        index.insert_batch(&batch).expect("insert");
        key += 10_000;
    }
    assert!(
        index.wait_sync(Duration::from_secs(60)),
        "shortcut never synced"
    );
    index
}

fn bench_get_single(c: &mut Criterion) {
    for k in [0u32, 4] {
        for (tag, pin) in [("auto", None), ("dekker", Some(PinStrategy::Dekker))] {
            let index = build(k, pin);
            let name = format!(
                "get/k{k}/pin_{tag}/probe_{}",
                taking_the_shortcut::probe_backend().name()
            );
            c.bench_function(&name, |b| {
                let mut x = 0x243F_6A88_85A3_08D3u64; // xorshift state
                b.iter(|| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    black_box(index.get(x % ENTRIES))
                })
            });
        }
    }
}

fn bench_get_many(c: &mut Criterion) {
    for k in [0u32, 4] {
        let index = build(k, None);
        let keys: Vec<u64> = {
            let mut x = 0x1319_8A2E_0370_7344u64;
            (0..1024)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x % ENTRIES
                })
                .collect()
        };
        let name = format!(
            "get_many1024/k{k}/probe_{}",
            taking_the_shortcut::probe_backend().name()
        );
        c.bench_function(&name, |b| b.iter(|| black_box(index.get_many(&keys))));
    }
}

criterion_group!(benches, bench_get_single, bench_get_many);
criterion_main!(benches);
