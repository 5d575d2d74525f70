//! Ablations A1–A4: design choices the paper fixes by fiat, swept here.

use crate::experiments::experiment_pool;
use crate::scale::ScaleArgs;
use crate::timing::{ms, Stopwatch};
use crate::workload::KeyGen;
use crate::Table;
use shortcut_core::{CompactionPolicy, MaintConfig, RoutePolicy, ShortcutNode};
use shortcut_exhash::{EhConfig, Index, ShortcutEhConfig};
use shortcut_rewire::{max_map_count, PageIdx};
use std::time::{Duration, Instant};
use taking_the_shortcut::ShortcutIndex;

/// **A1** — how much does coalescing contiguous rewirings into single
/// `mmap` calls (paper §2.1, last paragraph) save during shortcut creation?
pub fn a1_coalescing(s: &ScaleArgs) -> Table {
    let slots = s.pick(1 << 20, 1 << 17, 1 << 12);
    let mut pool = experiment_pool(slots);
    let handle = pool.handle();
    let run = pool.alloc_run(slots).expect("alloc failed");

    // Per-slot rewiring (the worst case measured in Table 1).
    let mut node_a = ShortcutNode::new(slots).expect("reserve failed");
    let sw = Stopwatch::start();
    for i in 0..slots {
        node_a
            .set_slot(i, &handle, PageIdx(run.0 + i))
            .expect("rewire failed");
    }
    let per_slot_ms = ms(sw.elapsed());
    let per_slot_calls = node_a.mmap_calls();

    // Coalesced batch (contiguous leaves -> one call).
    let mut node_b = ShortcutNode::new(slots).expect("reserve failed");
    let assignments: Vec<(usize, PageIdx)> = (0..slots).map(|i| (i, PageIdx(run.0 + i))).collect();
    let sw = Stopwatch::start();
    let calls = node_b
        .set_batch(&handle, &assignments)
        .expect("batch failed");
    let batch_ms = ms(sw.elapsed());

    let mut t = Table::new(
        format!("Ablation A1 — coalesced vs per-slot rewiring, {slots} slots"),
        &["strategy", "mmap calls", "time [ms]", "us/slot"],
    );
    t.row(&[
        "per-slot".into(),
        Table::n(per_slot_calls),
        Table::f(per_slot_ms),
        Table::f(per_slot_ms * 1000.0 / slots as f64),
    ]);
    t.row(&[
        "coalesced".into(),
        Table::n(calls),
        Table::f(batch_ms),
        Table::f(batch_ms * 1000.0 / slots as f64),
    ]);
    t
}

/// **A2** — the fan-in routing threshold (paper: 8). For each fan-in we
/// measure both paths and report which threshold policies route correctly.
pub fn a2_threshold(s: &ScaleArgs) -> Table {
    // Aliased (fan-in > 1) points need ~one VMA per slot; power of two so
    // every fan-in in the sweep divides it (see fig4).
    let slots = crate::experiments::floor_pow2(
        s.pick(1 << 20, 1 << 17, 1 << 12)
            .min(crate::experiments::aliased_slot_cap()),
    )
    .max(128);
    let lookups = s.pick(5_000_000, 2_000_000, 50_000);
    let fanins = [1usize, 2, 4, 8, 16, 32, 64, 128];
    let policies = [1.0, 4.0, 8.0, 16.0, 64.0];

    let mut t = Table::new(
        "Ablation A2 — fan-in routing threshold sweep",
        &[
            "fan-in",
            "trad [ms]",
            "shortcut [ms]",
            "best path",
            "thresholds choosing best",
        ],
    );
    for f in fanins {
        let (trad, short) = super::fig4::run_point(slots, f, lookups, 42);
        let best_is_shortcut = short <= trad;
        let right: Vec<String> = policies
            .iter()
            .filter(|&&p| {
                RoutePolicy::with_threshold(p).use_shortcut(f as f64, true) == best_is_shortcut
            })
            .map(|p| format!("{p}"))
            .collect();
        t.row(&[
            f.to_string(),
            Table::f(trad),
            Table::f(short),
            if best_is_shortcut {
                "shortcut"
            } else {
                "traditional"
            }
            .into(),
            right.join(","),
        ]);
    }
    t
}

/// **A3** — the mapper poll interval (paper: 25 ms): insert a burst, then
/// measure how long the shortcut stays out of sync.
pub fn a3_poll_interval(s: &ScaleArgs) -> Table {
    let bulk = s.pick(2_000_000, 500_000, 50_000);
    let burst = s.pick(100_000, 20_000, 2_000);
    let intervals_ms = [1u64, 5, 25, 100];

    let mut t = Table::new(
        "Ablation A3 — mapper poll interval vs sync latency",
        &[
            "poll [ms]",
            "bulk insert [ms]",
            "burst insert [ms]",
            "time to sync after burst [ms]",
        ],
    );
    for poll in intervals_ms {
        let mut sceh = ShortcutIndex::try_new(
            0,
            ShortcutEhConfig {
                eh: EhConfig {
                    pool: super::fig7::bench_pool_config(bulk * 2),
                    ..EhConfig::default()
                },
                maint: MaintConfig {
                    poll_interval: Duration::from_millis(poll),
                    ..MaintConfig::default()
                },
                ..Default::default()
            },
        )
        .expect("Shortcut-EH construction failed");
        let mut gen = KeyGen::new(42);
        let keys = gen.uniform_keys(bulk + burst);

        let sw = Stopwatch::start();
        for &k in &keys[..bulk] {
            sceh.insert(k, k).expect("insert failed");
        }
        let bulk_ms = ms(sw.elapsed());
        assert!(sceh.wait_sync(Duration::from_secs(60)));

        let sw = Stopwatch::start();
        for &k in &keys[bulk..] {
            sceh.insert(k, k).expect("insert failed");
        }
        let burst_ms = ms(sw.elapsed());

        let t0 = Instant::now();
        while !sceh.in_sync() && t0.elapsed() < Duration::from_secs(60) {
            std::hint::spin_loop();
        }
        let sync_ms = ms(t0.elapsed());

        t.row(&[
            poll.to_string(),
            Table::f(bulk_ms),
            Table::f(burst_ms),
            Table::f(sync_ms),
        ]);
    }
    t
}

/// **A4** — eager vs lazy page-table population of the shortcut directory
/// at index scale: the first synced lookup round pays the faults when lazy.
pub fn a4_populate(s: &ScaleArgs) -> Table {
    let n = s.pick(5_000_000, 1_000_000, 50_000);
    let lookups = s.pick(5_000_000, 1_000_000, 50_000);

    let mut t = Table::new(
        "Ablation A4 — eager vs lazy shortcut population (Shortcut-EH)",
        &[
            "population",
            "1st lookup round [ms]",
            "2nd lookup round [ms]",
        ],
    );
    for eager in [true, false] {
        let mut sceh = ShortcutIndex::try_new(
            0,
            ShortcutEhConfig {
                eh: EhConfig {
                    pool: super::fig7::bench_pool_config(n * 2),
                    ..EhConfig::default()
                },
                maint: MaintConfig {
                    eager_populate: eager,
                    ..MaintConfig::default()
                },
                ..Default::default()
            },
        )
        .expect("Shortcut-EH construction failed");
        let mut gen = KeyGen::new(42);
        let keys = gen.uniform_keys(n);
        for &k in &keys {
            sceh.insert(k, k).expect("insert failed");
        }
        assert!(sceh.wait_sync(Duration::from_secs(120)));
        let probe = gen.hits_from(&keys, lookups);

        let round = || {
            let sw = Stopwatch::start();
            let mut found = 0u64;
            for &k in &probe {
                if sceh.get(k).is_some() {
                    found += 1;
                }
            }
            std::hint::black_box(found);
            ms(sw.elapsed())
        };
        let r1 = round();
        let r2 = round();
        t.row(&[
            if eager {
                "eager (MAP_POPULATE/touch)"
            } else {
                "lazy (fault on access)"
            }
            .into(),
            Table::f(r1),
            Table::f(r2),
        ]);
    }
    t
}

/// One A5 cell: how far an index grows, and in what shape.
struct A5Cell {
    /// Epochs of inserts; the cell ends at `epochs × epoch` keys.
    epochs: usize,
    /// `s`: 2^s shards on one budget.
    shard_bits: u32,
    seed: u64,
}

/// **A5** — rebuild admission, worst case against exact, as the mapping
/// budget sees it. Each cell grows a [`ShortcutIndex`] the way the
/// benchmark's `grow_churn` does — an epoch inserts 2^16 keys, removes an
/// eighth of them, lets the shortcut catch up and reads 2^14 live keys
/// back — on a private 65 530-mapping budget, and reports the share of
/// reads the shortcut served, the peak of the budget's `in_use` over the
/// epochs' sync points and the creates published coarser, next to the
/// insert time. Every bucket sits on the page of its hash suffix in both
/// arms; only what admission reserves for a rebuild differs (one mapping
/// a slot, or the layout's runs). The cells span the directory sizes
/// around the budget: one that never feels it, the 2^16- and 2^17-slot
/// plateaus, ≈ 8 M keys, and four shards sharing the budget.
///
/// # Panics
///
/// If an `exact` arm ends suspended or with a maintenance error: exact
/// admission exists so that neither happens at these sizes.
pub fn a5_compaction(s: &ScaleArgs) -> Table {
    let epoch = s.pick(1 << 16, 1 << 16, 1 << 12);
    let reads = s.pick(1 << 14, 1 << 14, 1 << 10);
    let budget = s.pick(65_530, 65_530, 4_090);
    let cell = |epochs, shard_bits, seed| A5Cell {
        epochs,
        shard_bits,
        seed,
    };
    let mut cells = vec![cell(4, 0, 1), cell(36, 0, 7), cell(61, 2, 1)];
    if s.paper {
        cells.extend([cell(76, 0, 4), cell(107, 0, 4), cell(122, 0, 1)]);
    } else if s.quick {
        // A sixteenth of everything: the budget binds at 2^12 slots.
        cells = vec![cell(48, 0, 1), cell(48, 2, 1)];
    }

    let mut t = Table::new(
        format!(
            "Ablation A5 — worst-case / exact admission, epochs of {epoch} keys, budget {budget}"
        ),
        &[
            "keys",
            "shards",
            "seed",
            "admission",
            "insert [ms]",
            "served",
            "creates coarse",
            "peak in_use",
            "creates skipped",
            "suspended",
            "maint error",
        ],
    );
    for c in &cells {
        let keys = KeyGen::new(c.seed).uniform_keys(c.epochs * epoch);
        for (name, policy) in compaction_arms() {
            let mut index = ShortcutIndex::builder()
                .capacity(keys.len())
                .vma_budget(budget)
                .shards(c.shard_bits)
                .compaction(policy)
                .build()
                .expect("index construction failed");
            let mut gen = KeyGen::new(c.seed ^ 0xA5);
            let (mut insert_ms, mut peak) = (0.0, 0u64);
            for e in 0..c.epochs {
                let fresh = &keys[e * epoch..(e + 1) * epoch];
                let sw = Stopwatch::start();
                for &k in fresh {
                    index.insert(k, k).expect("insert failed");
                }
                insert_ms += ms(sw.elapsed());
                let removed = epoch / 8;
                for &k in &fresh[..removed] {
                    index.remove(k).expect("remove failed");
                }
                let _ = index.wait_sync(Duration::from_secs(120));
                peak = peak.max(index.stats().vma.in_use);
                // Live keys: any epoch so far, past its removed eighth.
                let mut found = 0usize;
                for _ in 0..reads {
                    let at = gen.index(e + 1) * epoch + removed + gen.index(epoch - removed);
                    found += usize::from(index.get(keys[at]).is_some());
                }
                assert_eq!(found, reads, "a live key went missing");
            }
            let stats = index.stats();
            let error = index.maint_error();
            assert!(
                !(policy.enabled() && (stats.shortcut_suspended || error.is_some())),
                "exact admission must keep {} keys ({} shards, seed {}) \
                 shortcut-served: maint error {error:?}\n{stats}",
                keys.len(),
                stats.shards,
                c.seed
            );
            t.row(&[
                Table::n(keys.len() as u64),
                stats.shards.to_string(),
                c.seed.to_string(),
                name.into(),
                Table::f(insert_ms),
                format!("{:.3}", stats.shortcut_served_pct() / 100.0),
                Table::n(stats.maint.creates_coarse),
                Table::n(peak),
                Table::n(stats.maint.creates_skipped),
                if stats.shortcut_suspended {
                    "YES"
                } else {
                    "no"
                }
                .into(),
                error.map_or("none".into(), |e| e.to_string()),
            ]);
        }
    }
    t
}

/// The admission axis of A5.
fn compaction_arms() -> [(&'static str, CompactionPolicy); 2] {
    [
        ("worst case", CompactionPolicy::disabled()),
        ("exact", CompactionPolicy::on()),
    ]
}

/// **A7** — shard-count scaling (the sharded-index tentpole): `2^s`
/// Shortcut-EH shards routed by the top hash bits, filled by **one writer
/// thread per shard** through the shared-write API, then probed three
/// ways after sync — single-threaded `get`, one reader thread per shard,
/// and batched `get_many`. All shards of an arm share one VMA budget
/// under fair-share admission (the `fair pools` column confirms it).
///
/// The table header records the host's available parallelism: on a
/// single-core host the per-shard threads time-slice one core, so fill
/// and N-thread lookup times measure routing + locking overhead rather
/// than true parallel speedup — read them against that baseline.
pub fn a7_shards(s: &ScaleArgs) -> Table {
    let n = s.pick(4_000_000, 2_000_000, 60_000);
    let lookups = s.pick(2_000_000, 1_000_000, 60_000);
    let host = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let mut t = Table::new(
        format!("Ablation A7 — shard scaling, {n} keys, host parallelism {host}"),
        &[
            "shards",
            "fill 1wr/shard [ms]",
            "sync [ms]",
            "depth max",
            "live VMAs",
            "fair pools",
            "lookup 1T [ms]",
            "lookup NT [ms]",
            "get_many [ms]",
            "suspended",
        ],
    );
    for bits in [0u32, 1, 2] {
        let shards = 1usize << bits;
        // One budget shared by the arm's shards, sized from the sysctl
        // like production but private to the arm (isolates accounting).
        let index = ShortcutIndex::builder()
            .capacity(2 * n)
            .vma_budget(max_map_count())
            .shards(bits)
            .compaction(CompactionPolicy::on())
            .build()
            .expect("sharded construction failed");

        let mut gen = KeyGen::new(42);
        let keys = gen.uniform_keys(n);
        let mut per_shard: Vec<Vec<u64>> = vec![Vec::new(); shards];
        for &k in &keys {
            per_shard[index.shard_of(k)].push(k);
        }

        let sw = Stopwatch::start();
        std::thread::scope(|scope| {
            for part in &per_shard {
                let index = &index;
                scope.spawn(move || {
                    let batches = part.chunks(4096); // audit:allow(page-literal): key-batch size, not a page size
                    for chunk in batches {
                        let batch: Vec<(u64, u64)> = chunk.iter().map(|&k| (k, k)).collect();
                        index.insert_batch_shared(&batch).expect("insert failed");
                    }
                });
            }
        });
        let fill_ms = ms(sw.elapsed());

        let sw = Stopwatch::start();
        let _ = index.wait_sync(Duration::from_secs(240));
        let sync_ms = ms(sw.elapsed());
        let vma = index.stats().vma;

        let probe = gen.hits_from(&keys, lookups);
        let sw = Stopwatch::start();
        let mut found = 0u64;
        for &key in &probe {
            if index.get(key).is_some() {
                found += 1;
            }
        }
        std::hint::black_box(found);
        let one_ms = ms(sw.elapsed());

        let sw = Stopwatch::start();
        std::thread::scope(|scope| {
            for part in probe.chunks(probe.len().div_ceil(shards).max(1)) {
                let index = &index;
                scope.spawn(move || {
                    let mut found = 0u64;
                    for &key in part {
                        if index.get(key).is_some() {
                            found += 1;
                        }
                    }
                    std::hint::black_box(found);
                });
            }
        });
        let nt_ms = ms(sw.elapsed());

        let sw = Stopwatch::start();
        let mut found = 0usize;
        let batches = probe.chunks(4096); // audit:allow(page-literal): key-batch size, not a page size
        for chunk in batches {
            found += index.get_many(chunk).iter().flatten().count();
        }
        std::hint::black_box(found);
        let batch_ms = ms(sw.elapsed());

        let stats = index.stats();
        t.row(&[
            shards.to_string(),
            Table::f(fill_ms),
            Table::f(sync_ms),
            stats.global_depth.to_string(),
            Table::n(vma.live_vmas()),
            Table::n(vma.fair_pools),
            Table::f(one_ms),
            Table::f(nt_ms),
            Table::f(batch_ms),
            if stats.shortcut_suspended {
                "YES"
            } else {
                "no"
            }
            .into(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ScaleArgs {
        ScaleArgs {
            quick: true,
            ..Default::default()
        }
    }

    #[test]
    fn a1_coalescing_wins() {
        let t = a1_coalescing(&quick());
        let s = t.render();
        assert!(s.contains("per-slot"));
        assert!(s.contains("coalesced"));
    }

    #[test]
    fn a5_compaction_runs_all_arms() {
        let t = a5_compaction(&quick());
        let s = t.render();
        assert!(s.contains(" worst case |"), "{s}");
        assert!(s.contains(" exact |"), "{s}");
    }

    #[test]
    fn a7_shards_runs_all_arms() {
        let t = a7_shards(&quick());
        let s = t.render();
        for shards in ["1", "2", "4"] {
            assert!(s.contains(shards), "missing arm {shards}:\n{s}");
        }
        assert!(!s.contains("YES"), "a quick run must not suspend:\n{s}");
    }

    #[test]
    fn a3_poll_runs() {
        let t = a3_poll_interval(&quick());
        assert!(t.render().contains("25"));
    }

    #[test]
    fn a4_populate_runs() {
        let t = a4_populate(&quick());
        assert!(t.render().contains("eager"));
    }
}
