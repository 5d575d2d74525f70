//! **Figure 7** (§4.2): the head-to-head of all five hashing schemes.
//!
//! * 7a — insert 100 M uniform 64-bit keys, report the *accumulated*
//!   insertion time along the sequence (staircase for HT, smooth for
//!   EH/Shortcut-EH, flattest for CH).
//! * 7b — 100 M random lookups (100 % hits) on the filled indexes
//!   (HT fastest, Shortcut-EH close behind, EH clearly slower).
//!
//! HT, HTI, EH and Shortcut-EH start with an effective 4 KB of space and a
//! max load factor of 0.35; CH gets a fixed table (paper: 1 GB for 100 M
//! keys — scaled proportionally here) with 128 B chained buckets.

use crate::scale::ScaleArgs;
use crate::timing::ms;
use crate::workload::KeyGen;
use crate::Table;
use shortcut_core::{CompactionPolicy, MaintConfig};
use shortcut_exhash::{
    ChConfig, ChainedHash, EhConfig, ExtendibleHash, HashTable, HtConfig, HtiConfig,
    IncrementalHashTable, Index, ShortcutEh, ShortcutEhConfig,
};
use shortcut_rewire::PoolConfig;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Options for the Figure 7 runs.
#[derive(Debug, Clone)]
pub struct Fig7Opts {
    /// Keys to insert (paper: 10⁸).
    pub inserts: usize,
    /// Lookups after the fill (paper: 10⁸).
    pub lookups: usize,
    /// Accumulated-time checkpoints along the insert sequence.
    pub checkpoints: usize,
    /// Workload seed.
    pub seed: u64,
}

impl Fig7Opts {
    /// Derive sizes from the scale arguments.
    pub fn from_scale(s: &ScaleArgs) -> Self {
        let n = s.pick(100_000_000, 10_000_000, 200_000);
        Fig7Opts {
            inserts: n,
            lookups: n,
            checkpoints: 10,
            seed: 42,
        }
    }
}

/// The pool configuration the EH family uses at benchmark scale.
pub fn bench_pool_config(expected_entries: usize) -> PoolConfig {
    // Buckets hold ≤ 87 entries at load factor 0.35; with splitting churn
    // the steady state is ~55 entries/bucket. Reserve generous headroom:
    // compaction passes transiently hold live buckets plus a same-sized
    // target run, and the reservation is PROT_NONE/NORESERVE virtual
    // space, which is effectively free.
    let expected_pages = (expected_entries / 40).max(64);
    PoolConfig {
        initial_pages: 1,
        min_growth_pages: 4096, // audit:allow(page-literal): growth step in pages (a count), not a byte size
        shrink_threshold_pages: usize::MAX,
        view_capacity_pages: (expected_pages * 2).next_power_of_two().max(1 << 16),
        ..PoolConfig::default()
    }
}

/// Build the five schemes sized for `n` inserts.
pub fn build_schemes(n: usize) -> Vec<Box<dyn Index>> {
    vec![
        Box::new(
            HashTable::try_new(HtConfig {
                initial_capacity: 256,
                max_load_factor: 0.35,
            })
            .expect("HT construction failed"),
        ),
        Box::new(
            IncrementalHashTable::try_new(HtiConfig {
                initial_capacity: 256,
                max_load_factor: 0.35,
                migration_batch: 64,
            })
            .expect("HTI construction failed"),
        ),
        Box::new(
            ChainedHash::try_new(ChConfig {
                // Paper ratio: 1 GB table (2²⁶ slots) for 10⁸ keys.
                table_slots: ((n as f64 * 0.67) as usize).next_power_of_two(),
            })
            .expect("CH construction failed"),
        ),
        Box::new(
            ExtendibleHash::try_new(EhConfig {
                pool: bench_pool_config(n),
                ..EhConfig::default()
            })
            .expect("EH construction failed"),
        ),
        Box::new(
            ShortcutEh::try_new(ShortcutEhConfig {
                eh: EhConfig {
                    pool: bench_pool_config(n),
                    ..EhConfig::default()
                },
                // Directory-order compaction keeps large directories
                // shortcut-served under the stock vm.max_map_count (the
                // seed needed the sysctl raised past ~1.5M keys).
                maint: MaintConfig {
                    compaction: CompactionPolicy::on(),
                    ..MaintConfig::default()
                },
                ..Default::default()
            })
            .expect("Shortcut-EH construction failed"),
        ),
    ]
}

/// Accumulated insert-time curve of one scheme: (entries, seconds) pairs.
pub fn insert_curve(index: &mut dyn Index, keys: &[u64], checkpoints: usize) -> Vec<(usize, f64)> {
    let step = (keys.len() / checkpoints).max(1);
    let mut curve = Vec::with_capacity(checkpoints);
    let mut accumulated = Duration::ZERO;
    let mut done = 0;
    while done < keys.len() {
        let end = (done + step).min(keys.len());
        let t0 = Instant::now();
        for &k in &keys[done..end] {
            index.insert(k, k.wrapping_mul(3)).expect("insert failed");
        }
        accumulated += t0.elapsed();
        done = end;
        curve.push((done, accumulated.as_secs_f64()));
    }
    curve
}

/// Total lookup time (ms) for a hits-only workload. Lookups go through
/// `&self` — the shared-reader path production traffic would use.
pub fn lookup_time(index: &dyn Index, lookups: &[u64]) -> f64 {
    let t0 = Instant::now();
    let mut found = 0u64;
    for &k in lookups {
        if index.get(k).is_some() {
            found += 1;
        }
    }
    black_box(found);
    assert_eq!(
        found as usize,
        lookups.len(),
        "{}: lookup workload must be 100% hits",
        index.name()
    );
    ms(t0.elapsed())
}

/// Outcome of the combined 7a+7b run.
pub struct Fig7Result {
    /// Scheme names, in run order.
    pub names: Vec<&'static str>,
    /// Insert curves per scheme.
    pub curves: Vec<Vec<(usize, f64)>>,
    /// Total lookup ms per scheme.
    pub lookup_ms: Vec<f64>,
}

/// Run inserts (7a) and lookups (7b) for all five schemes.
pub fn run(opts: &Fig7Opts) -> Fig7Result {
    let mut gen = KeyGen::new(opts.seed);
    let keys = gen.uniform_keys(opts.inserts);
    let lookups = gen.hits_from(&keys, opts.lookups);

    let mut names = Vec::new();
    let mut curves = Vec::new();
    let mut lookup_ms = Vec::new();

    for mut index in build_schemes(opts.inserts) {
        names.push(index.name());
        curves.push(insert_curve(index.as_mut(), &keys, opts.checkpoints));
        // Let Shortcut-EH's mapper catch up, as in the paper ("the shortcut
        // is in sync … and hence used for all lookups").
        if index.name() == "Shortcut-EH" {
            // Downcast-free sync: poll until versions settle via a lookup
            // warm-up window.
            std::thread::sleep(Duration::from_millis(100));
        }
        lookup_ms.push(lookup_time(index.as_ref(), &lookups));
        drop(index); // free memory before the next scheme
    }

    Fig7Result {
        names,
        curves,
        lookup_ms,
    }
}

/// Figure 7a table: accumulated seconds at each checkpoint.
pub fn table_7a(r: &Fig7Result, opts: &Fig7Opts) -> Table {
    let mut headers: Vec<String> = vec!["entries".into()];
    headers.extend(r.names.iter().map(|n| format!("{n} [s]")));
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(
        format!(
            "Figure 7a — accumulated insertion time, {} uniform keys, load factor 0.35",
            Table::n(opts.inserts as u64)
        ),
        &header_refs,
    );
    let points = r.curves[0].len();
    for p in 0..points {
        let mut row = vec![Table::n(r.curves[0][p].0 as u64)];
        for c in &r.curves {
            row.push(format!("{:.3}", c[p].1));
        }
        t.row(&row);
    }
    t
}

/// Figure 7b table: total lookup time per scheme.
pub fn table_7b(r: &Fig7Result, opts: &Fig7Opts) -> Table {
    let mut t = Table::new(
        format!(
            "Figure 7b — {} lookups (100% hits) after the fill",
            Table::n(opts.lookups as u64)
        ),
        &["scheme", "lookup time [ms]"],
    );
    for (name, ms) in r.names.iter().zip(&r.lookup_ms) {
        t.row(&[name.to_string(), Table::f(*ms)]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_run_is_consistent() {
        let opts = Fig7Opts {
            inserts: 30_000,
            lookups: 30_000,
            checkpoints: 5,
            seed: 3,
        };
        let r = run(&opts);
        assert_eq!(r.names.len(), 5);
        assert_eq!(r.names[0], "HT");
        assert_eq!(r.names[4], "Shortcut-EH");
        for c in &r.curves {
            assert_eq!(c.last().unwrap().0, opts.inserts);
            // Accumulated time is non-decreasing.
            for w in c.windows(2) {
                assert!(w[1].1 >= w[0].1);
            }
        }
        for ms in &r.lookup_ms {
            assert!(*ms > 0.0);
        }
    }
}
