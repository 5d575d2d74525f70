//! Every batched entry point of [`ShortcutIndex`] must equal the same
//! operations applied one by one, in batch order, to a `HashMap`: across
//! shard counts, batch sizes on both sides of a routing window, duplicate
//! keys inside one batch (the later insert wins, the first remove takes
//! the value), batches whose keys all route to one shard, and the empty
//! batch — through the exclusive (`&mut self`) and the shared (`&self`)
//! forms alike.

use proptest::prelude::*;
use shortcut_exhash::{EhConfig, Index, ShortcutEhConfig, ShortcutIndex};
use shortcut_rewire::{PoolConfig, VmaBudget};
use std::collections::HashMap;
use std::time::Duration;

/// Keys are drawn from `0..KEYSPACE`: small enough that the larger
/// batches repeat keys, large enough to split buckets.
const KEYSPACE: u64 = 3_000;

/// Batch sizes: empty, tiny, and both sides of the 4096-key window.
const SIZES: [usize; 7] = [0, 1, 5, 300, 4_095, 4_097, 9_000];

fn index(bits: u32) -> ShortcutIndex {
    ShortcutIndex::try_new(
        bits,
        ShortcutEhConfig {
            eh: EhConfig {
                pool: PoolConfig {
                    name: "batch-eq".into(),
                    initial_pages: 1,
                    min_growth_pages: 16,
                    view_capacity_pages: 1 << 12,
                    vma_budget: Some(VmaBudget::with_limit(1_000_000)),
                    ..PoolConfig::default()
                },
                ..EhConfig::default()
            },
            maint: shortcut_core::MaintConfig {
                poll_interval: Duration::from_millis(1),
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .unwrap()
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    Insert,
    Get,
    Remove,
}

/// One batched call: what, how many keys, drawn how, through which form.
#[derive(Debug, Clone)]
struct Step {
    kind: Kind,
    size: usize,
    /// Draw only keys that route to shard 0.
    one_shard: bool,
    /// The `&self` form (`*_shared`, `*_into`) instead of the `Index` one.
    shared: bool,
    seed: u64,
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    let step = (
        prop_oneof![
            3 => Just(Kind::Insert),
            2 => Just(Kind::Get),
            2 => Just(Kind::Remove),
        ],
        0..SIZES.len(),
        any::<bool>(),
        any::<bool>(),
        any::<u64>(),
    )
        .prop_map(|(kind, size, one_shard, shared, seed)| Step {
            kind,
            size: SIZES[size],
            one_shard,
            shared,
            seed,
        });
    proptest::collection::vec(step, 1..10)
}

/// `n` keys from `pool`, by a xorshift stream over `seed`.
fn draw(pool: &[u64], n: usize, seed: u64) -> Vec<u64> {
    let mut x = seed | 1;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            pool[(x % pool.len() as u64) as usize]
        })
        .collect()
}

/// Where `got` first departs from `want` (whole vectors of thousands of
/// answers make an unreadable failure).
fn first_difference(got: &[Option<u64>], want: &[Option<u64>]) -> Option<String> {
    if got.len() != want.len() {
        return Some(format!("{} answers for {} keys", got.len(), want.len()));
    }
    let at = got.iter().zip(want).position(|(g, w)| g != w)?;
    Some(format!(
        "answer {at}: got {:?}, want {:?}",
        got[at], want[at]
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn batched_ops_equal_sequential_ops(bits in 0u32..4, steps in steps()) {
        let mut index = index(bits);
        let mut oracle: HashMap<u64, u64> = HashMap::new();
        let all: Vec<u64> = (0..KEYSPACE).collect();
        let shard0: Vec<u64> = all.iter().copied().filter(|&k| index.shard_of(k) == 0).collect();
        // The `_into` forms must also cope with a buffer left over from a
        // longer or shorter batch.
        let mut buf = vec![Some(7); 11];
        for (i, step) in steps.iter().enumerate() {
            let keys = draw(if step.one_shard { &shard0 } else { &all }, step.size, step.seed);
            match step.kind {
                Kind::Insert => {
                    let entries: Vec<(u64, u64)> =
                        keys.iter().enumerate().map(|(j, &k)| (k, (i * 10_000 + j) as u64)).collect();
                    if step.shared {
                        index.insert_batch_shared(&entries).unwrap();
                    } else {
                        index.insert_batch(&entries).unwrap();
                    }
                    oracle.extend(entries);
                }
                Kind::Get => {
                    let want: Vec<Option<u64>> = keys.iter().map(|k| oracle.get(k).copied()).collect();
                    if step.shared {
                        index.get_many_into(&keys, &mut buf);
                        prop_assert_eq!(first_difference(&buf, &want), None, "step {} get_many_into", i);
                    } else {
                        let got = index.get_many(&keys);
                        prop_assert_eq!(first_difference(&got, &want), None, "step {} get_many", i);
                    }
                }
                Kind::Remove => {
                    let want: Vec<Option<u64>> = keys.iter().map(|k| oracle.remove(k)).collect();
                    if step.shared {
                        index.remove_batch_shared_into(&keys, &mut buf).unwrap();
                        prop_assert_eq!(first_difference(&buf, &want), None, "step {} remove_batch_shared_into", i);
                    } else {
                        let got = index.remove_batch(&keys).unwrap();
                        prop_assert_eq!(first_difference(&got, &want), None, "step {} remove_batch", i);
                    }
                }
            }
            prop_assert_eq!(index.len(), oracle.len(), "step {} len", i);
        }
        // The single-key path agrees with what the batches left behind.
        for &k in &all {
            prop_assert_eq!(index.get(k), oracle.get(&k).copied(), "final get({})", k);
        }
        prop_assert!(index.maint_error().is_none());
    }
}
