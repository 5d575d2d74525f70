//! Property tests: every hashing scheme against a `std::HashMap` oracle,
//! and all five schemes against each other — driven entirely through
//! `Box<dyn Index>` trait objects, the way a storage engine would hold
//! them. Also covers the error path: an index whose pool cannot grow must
//! surface a typed `IndexError`, never panic.

use proptest::prelude::*;
use shortcut_exhash::{
    ChConfig, ChainedHash, EhConfig, ExtendibleHash, HashTable, HtConfig, HtiConfig,
    IncrementalHashTable, Index, IndexError, IndexStats, ShortcutEh, ShortcutEhConfig,
    ShortcutIndex,
};
use shortcut_rewire::{PinStrategy, PoolConfig, VmaBudget, REARM_AFTER};
use std::collections::HashMap;
use std::time::Duration;

#[path = "../../../tests/common/mod.rs"]
mod common;

#[derive(Debug, Clone)]
enum Op {
    Insert(u64, u64),
    Get(u64),
    Remove(u64),
}

fn ops(max_key: u64, len: usize) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            4 => (0..max_key, any::<u64>()).prop_map(|(k, v)| Op::Insert(k, v)),
            3 => (0..max_key).prop_map(Op::Get),
            1 => (0..max_key).prop_map(Op::Remove),
        ],
        1..len,
    )
}

fn check_against_oracle(index: &mut dyn Index, ops: &[Op]) -> Result<(), TestCaseError> {
    let mut oracle: HashMap<u64, u64> = HashMap::new();
    for op in ops {
        match *op {
            Op::Insert(k, v) => {
                index.insert(k, v).expect("insert failed");
                oracle.insert(k, v);
            }
            Op::Get(k) => {
                prop_assert_eq!(index.get(k), oracle.get(&k).copied(), "get({}) diverged", k);
            }
            Op::Remove(k) => {
                prop_assert_eq!(
                    index.remove(k).expect("remove failed"),
                    oracle.remove(&k),
                    "remove({}) diverged",
                    k
                );
            }
        }
        prop_assert_eq!(index.len(), oracle.len());
    }
    // Final sweep: every oracle key present — once via single gets, once
    // via the batched entry point (both must agree with the oracle).
    let keys: Vec<u64> = oracle.keys().copied().collect();
    let batched = index.get_many(&keys);
    for (i, &k) in keys.iter().enumerate() {
        let want = oracle.get(&k).copied();
        prop_assert_eq!(index.get(k), want, "final get({}) diverged", k);
        prop_assert_eq!(batched[i], want, "final get_many({}) diverged", k);
    }
    Ok(())
}

fn small_eh_config() -> EhConfig {
    EhConfig {
        pool: PoolConfig {
            initial_pages: 1,
            min_growth_pages: 8,
            view_capacity_pages: 1 << 16,
            ..PoolConfig::default()
        },
        ..EhConfig::default()
    }
}

fn small_shortcut_config() -> ShortcutEhConfig {
    ShortcutEhConfig {
        eh: small_eh_config(),
        maint: shortcut_core::MaintConfig {
            poll_interval: Duration::from_millis(1),
            ..Default::default()
        },
        ..Default::default()
    }
}

/// All five schemes, freshly built, behind the trait object a storage
/// engine would hold.
fn all_five() -> Vec<Box<dyn Index>> {
    vec![
        Box::new(
            HashTable::try_new(HtConfig {
                initial_capacity: 16,
                max_load_factor: 0.35,
            })
            .unwrap(),
        ),
        Box::new(
            IncrementalHashTable::try_new(HtiConfig {
                initial_capacity: 16,
                max_load_factor: 0.35,
                migration_batch: 8,
            })
            .unwrap(),
        ),
        Box::new(ChainedHash::try_new(ChConfig { table_slots: 64 }).unwrap()),
        Box::new(ExtendibleHash::try_new(small_eh_config()).unwrap()),
        Box::new(ShortcutEh::try_new(small_shortcut_config()).unwrap()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn ht_matches_oracle(ops in ops(512, 400)) {
        let mut t = HashTable::try_new(HtConfig { initial_capacity: 16, max_load_factor: 0.35 }).unwrap();
        check_against_oracle(&mut t, &ops)?;
    }

    #[test]
    fn hti_matches_oracle(ops in ops(512, 400), batch in 1usize..16) {
        let mut t = IncrementalHashTable::try_new(HtiConfig {
            initial_capacity: 16,
            max_load_factor: 0.35,
            migration_batch: batch,
        }).unwrap();
        check_against_oracle(&mut t, &ops)?;
    }

    #[test]
    fn ch_matches_oracle(ops in ops(512, 400)) {
        let mut t = ChainedHash::try_new(ChConfig { table_slots: 32 }).unwrap();
        check_against_oracle(&mut t, &ops)?;
    }

    #[test]
    fn eh_matches_oracle(ops in ops(2048, 500)) {
        let mut t = ExtendibleHash::try_new(small_eh_config()).unwrap();
        check_against_oracle(&mut t, &ops)?;
    }

    #[test]
    fn shortcut_eh_matches_oracle(ops in ops(2048, 400)) {
        let mut t = ShortcutEh::try_new(small_shortcut_config()).unwrap();
        check_against_oracle(&mut t, &ops)?;
        prop_assert!(t.maint_error().is_none());
    }

    #[test]
    fn all_five_schemes_agree_as_trait_objects(ops in ops(1024, 250)) {
        let mut indexes = all_five();
        for op in &ops {
            match *op {
                Op::Insert(k, v) => {
                    for t in indexes.iter_mut() {
                        t.insert(k, v).expect("insert failed");
                    }
                }
                Op::Get(k) => {
                    let answers: Vec<_> = indexes.iter().map(|t| t.get(k)).collect();
                    for w in answers.windows(2) {
                        prop_assert_eq!(w[0], w[1], "schemes disagree on get({})", k);
                    }
                }
                Op::Remove(k) => {
                    let answers: Vec<_> = indexes
                        .iter_mut()
                        .map(|t| t.remove(k).expect("remove failed"))
                        .collect();
                    for w in answers.windows(2) {
                        prop_assert_eq!(w[0], w[1], "schemes disagree on remove({})", k);
                    }
                }
            }
            let lens: Vec<_> = indexes.iter().map(|t| t.len()).collect();
            for w in lens.windows(2) {
                prop_assert_eq!(w[0], w[1]);
            }
        }
    }
}

#[test]
fn duplicate_heavy_workload() {
    // Many updates to few keys across all five schemes.
    for t in &mut all_five() {
        for round in 0..100u64 {
            for k in 0..10u64 {
                t.insert(k, round * 100 + k).expect("insert failed");
            }
        }
        assert_eq!(t.len(), 10, "{}", t.name());
        for k in 0..10u64 {
            assert_eq!(t.get(k), Some(99 * 100 + k), "{} key {k}", t.name());
        }
    }
}

#[test]
fn batched_writes_match_loop_writes_across_schemes() {
    let entries: Vec<(u64, u64)> = (0..3_000u64).map(|k| (k % 700, k)).collect();
    for (mut batched, mut looped) in all_five().into_iter().zip(all_five()) {
        batched
            .insert_batch(&entries)
            .expect("batched insert failed");
        for &(k, v) in &entries {
            looped.insert(k, v).expect("insert failed");
        }
        assert_eq!(batched.len(), looped.len(), "{}", batched.name());
        let keys: Vec<u64> = (0..750).collect();
        assert_eq!(
            batched.get_many(&keys),
            looped.get_many(&keys),
            "{}",
            batched.name()
        );
    }
}

#[test]
fn exhausted_pool_yields_typed_error_not_panic() {
    // A pool with a tiny fixed reservation: the EH family must hit
    // IndexError::Pool once splitting needs pages beyond the cap, and the
    // entries applied before the failure must all stay readable.
    let tiny_pool = PoolConfig {
        initial_pages: 1,
        min_growth_pages: 1,
        view_capacity_pages: 8,
        ..PoolConfig::default()
    };
    let mut schemes: Vec<Box<dyn Index>> = vec![
        Box::new(
            ExtendibleHash::try_new(EhConfig {
                pool: tiny_pool.clone(),
                ..EhConfig::default()
            })
            .unwrap(),
        ),
        Box::new(
            ShortcutEh::try_new(ShortcutEhConfig {
                eh: EhConfig {
                    pool: tiny_pool,
                    ..EhConfig::default()
                },
                ..Default::default()
            })
            .unwrap(),
        ),
    ];
    for index in schemes.iter_mut() {
        let mut applied = 0u64;
        let err = loop {
            match index.insert(applied, applied * 2) {
                Ok(()) => applied += 1,
                Err(e) => break e,
            }
            assert!(
                applied < 100_000,
                "{}: exhaustion never surfaced",
                index.name()
            );
        };
        assert!(
            matches!(err, IndexError::Pool(_)),
            "{}: unexpected error {err}",
            index.name()
        );
        assert!(applied > 0, "{}: nothing was applied", index.name());
        for k in 0..applied {
            assert_eq!(index.get(k), Some(k * 2), "{} entry {k}", index.name());
        }
    }
}

#[test]
fn constructor_failure_is_typed_not_panic() {
    // A zero-sized view reservation is rejected by the pool up front; the
    // index constructors must hand that back as IndexError::Pool.
    let bad = EhConfig {
        pool: PoolConfig {
            view_capacity_pages: 0,
            ..PoolConfig::default()
        },
        ..EhConfig::default()
    };
    assert!(matches!(
        ExtendibleHash::try_new(bad.clone()),
        Err(IndexError::Pool(_))
    ));
    assert!(matches!(
        ShortcutEh::try_new(ShortcutEhConfig {
            eh: bad,
            ..Default::default()
        }),
        Err(IndexError::Pool(_))
    ));
}

/// How a single-key lookup is counted: the moves of (`shortcut_lookups`,
/// `traditional_lookups`) across one `get`.
type Counted = (u64, u64);
const SHORTCUT: Counted = (1, 0);
const TRADITIONAL: Counted = (0, 1);

/// One state the fast path of `ShortcutIndex::get` can leave by.
struct Exit {
    name: &'static str,
    /// Adjusts the configuration the index is built with.
    configure: fn(&mut ShortcutEhConfig),
    /// Brings the loaded index into the state (and checks it is there).
    enter: fn(&ShortcutIndex),
    /// What a lookup may count as, each of which some lookup must.
    counted: &'static [Counted],
}

/// A budget of `limit` mappings, which the directories of the test's key
/// set (128 slots in all) outgrow at either shard count.
fn budget(cfg: &mut ShortcutEhConfig, limit: usize) {
    cfg.eh.pool.vma_budget = Some(VmaBudget::with_limit(limit));
}

/// Key `i` of the exits test: scattered (splitmix64), so that bucket
/// fills vary and a directory holds buckets of more than one depth.
fn scattered(i: u64) -> u64 {
    let z = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A structural shared write to every shard that leaves the index as it
/// was: the first 64 keys removed and inserted again, which revokes each
/// shard's bias (a present key's value store would not) and moves no
/// directory.
fn rewrite_structurally(t: &ShortcutIndex) {
    for k in (0..64).map(scattered) {
        assert_eq!(t.remove_shared(k).unwrap(), Some(!k));
        t.insert_shared(k, !k).unwrap();
    }
}

const EXITS: &[Exit] = &[
    Exit {
        name: "armed and in sync",
        configure: |_| {},
        enter: |t| {
            for i in 0..t.shard_count() {
                let s = t.shard_stats(i);
                let bias = (s.bias_revocations, s.bias_rearms);
                assert_eq!(bias, (0, 0), "shard {i} never saw a writer");
            }
        },
        counted: &[SHORTCUT],
    },
    Exit {
        name: "bias revoked",
        configure: |_| {},
        // A structural shared writer came by every shard (removing present
        // entries and inserting them again changes no directory): reads go
        // to the lock, too few to re-arm.
        enter: |t| {
            rewrite_structurally(t);
            for i in 0..t.shard_count() {
                let s = t.shard_stats(i);
                assert_eq!((s.bias_revocations, s.bias_rearms), (1, 0), "shard {i}");
            }
        },
        counted: &[SHORTCUT],
    },
    Exit {
        name: "re-armed after a shared writer",
        configure: |_| {},
        // The same writer, then a run of writer-free locked reads on every
        // shard: the last one re-arms, and after the pass the relays
        // asked for, lookups are served on the admission word again.
        enter: |t| {
            rewrite_structurally(t);
            for i in 0..t.shard_count() {
                let k = (0..).map(scattered).find(|&k| t.shard_of(k) == i).unwrap();
                (0..REARM_AFTER).for_each(|_| assert_eq!(t.get(k), Some(!k)));
            }
            assert!(t.wait_sync(Duration::from_secs(30)));
            for i in 0..t.shard_count() {
                let s = t.shard_stats(i);
                assert_eq!((s.bias_revocations, s.bias_rearms), (1, 1), "shard {i}");
            }
        },
        counted: &[SHORTCUT],
    },
    Exit {
        name: "out of sync",
        // A mapper that only runs on demand: parked once the loading
        // `wait_sync`s are over, so no pass races the bump below.
        configure: |cfg| cfg.maint.poll_interval = Duration::from_secs(3600),
        // A directory change the mapper never hears of holds it back.
        enter: |t| {
            for i in 0..t.shard_count() {
                t.with_shard(i, |s| s.maint().inbox_lock().relay([]));
            }
            assert!(!t.in_sync());
        },
        counted: &[TRADITIONAL],
    },
    Exit {
        name: "budget-suspended",
        // Worst-case admission, and less than one shard's directory needs.
        configure: |cfg| budget(cfg, 24),
        enter: |t| {
            common::wait_until("every shard's mapper has refused its directory", || {
                (0..t.shard_count()).all(|i| t.with_shard(i, |s| s.shortcut_suspended()))
            });
        },
        counted: &[TRADITIONAL],
    },
    Exit {
        name: "coarsely published, some buckets over-depth",
        // Layout-exact admission (compaction on): a directory in runs
        // fits 48 mappings whole, 16 only at half depth.
        configure: |cfg| {
            budget(cfg, 16);
            cfg.maint.compaction = shortcut_core::CompactionPolicy::on();
        },
        enter: |t| {
            // (A create deferred behind a directory not yet reclaimed is
            // retried by the mapper's own ticks.)
            common::wait_until("every shard is in sync", || t.in_sync());
            assert!(t.stats().maint.creates_coarse > 0);
        },
        counted: &[SHORTCUT, TRADITIONAL],
    },
    Exit {
        name: "fan-in above the routing threshold",
        configure: |cfg| cfg.policy = shortcut_core::RoutePolicy::with_threshold(0.0),
        enter: |t| assert!(t.in_sync()),
        counted: &[TRADITIONAL],
    },
];

fn counted(before: &IndexStats, after: &IndexStats) -> Counted {
    (
        after.shortcut_lookups - before.shortcut_lookups,
        after.traditional_lookups - before.traditional_lookups,
    )
}

/// Every exit of the single-key lookup: one key set, hits and misses,
/// through each state at one and four shards under both pin strategies —
/// oracle-exact answers, and every call counted exactly once, the way the
/// state says (an over-depth key of a coarse publish as one traditional
/// lookup, as `get_many` counts it).
#[test]
fn every_exit_of_get_answers_exactly_and_counts_once() {
    let entries: Vec<(u64, u64)> = (0..5_000).map(|i| (scattered(i), !scattered(i))).collect();
    // Every seventh entry, and as many keys again that are not there.
    let probes = (0..10_000u64).step_by(7).map(|i| (i < 5_000, scattered(i)));
    for exit in EXITS {
        for (bits, strategy) in [
            (0, PinStrategy::Asymmetric),
            (0, PinStrategy::Dekker),
            (2, PinStrategy::Asymmetric),
            (2, PinStrategy::Dekker),
        ] {
            let case = format!("{} (bits {bits}, {strategy} requested)", exit.name);
            let mut cfg = small_shortcut_config();
            cfg.eh.pool.pin_strategy = Some(strategy);
            (exit.configure)(&mut cfg);
            let mut t = ShortcutIndex::try_new(bits, cfg).unwrap();
            // In steps, so the mapper applies the intermediate directories
            // a budget is judged against instead of superseding them.
            for step in entries.chunks(500) {
                t.insert_batch(step).unwrap();
                if !t.stats().shortcut_suspended {
                    t.wait_sync(Duration::from_secs(30));
                }
            }
            (exit.enter)(&t);
            let mut seen = vec![0usize; exit.counted.len()];
            for (present, k) in probes.clone() {
                let before = t.stats().index;
                let got = t.get(k);
                let moved = counted(&before, &t.stats().index);
                assert_eq!(got, present.then_some(!k), "{case}: key {k}");
                let which = exit.counted.iter().position(|&c| c == moved);
                seen[which.unwrap_or_else(|| panic!("{case}: key {k} counted as {moved:?}"))] += 1;
            }
            assert!(seen.iter().all(|&n| n > 0), "{case}: counted {seen:?}");
            assert!(t.maint_error().is_none(), "{case}");
        }
    }
}
