//! The two comparison arms and the run-wide plumbing every workload
//! shares (configuration, result collection, set-up repetition).

use crate::host::Placement;
use crate::trace::Trace;
use crate::util::{median, value_of};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use taking_the_shortcut::exhash::{EhConfig, ExtendibleHash};
use taking_the_shortcut::{
    BucketLayout, Index, IndexBuilder, IndexError, PoolConfig, ShortcutIndex, SlotLayout,
    StatsSnapshot,
};

/// The mapping budget the Shortcut arm is pinned to: the stock
/// `vm.max_map_count`, whatever the host's sysctl says.
const VMA_BUDGET: usize = 65_530;

/// How long a set-up waits for the shortcut to catch up before the run
/// is declared broken.
pub const SYNC_TIMEOUT: Duration = Duration::from_secs(30);

#[derive(Debug, Clone)]
pub struct RunCfg {
    pub workload: String,
    pub seed: u64,
    /// `--seconds`: how long the measured part is to last on the host the
    /// step rates were taken on. It scales operation *counts* (see
    /// [`RunCfg::repeats`]); no loop watches the clock.
    pub seconds: f64,
    pub trace: bool,
    /// `--smoke`: every size (keys, budget, hot set) divided by 64 so all
    /// four workloads finish in seconds; checks plumbing, not speed.
    pub smoke: bool,
    pub out_dir: PathBuf,
    pub placement: Placement,
}

impl RunCfg {
    /// A full-run size at this run's scale.
    pub fn scaled(&self, full: usize) -> usize {
        if self.smoke {
            (full >> 6).max(1)
        } else {
            full
        }
    }

    /// How often to repeat a unit of work that the reference host does
    /// `per_second` times a second, so that the repeats fill `--seconds`.
    /// A function of the command line alone: the same `--workload`,
    /// `--seed`, `--seconds` and `--trace` always do the same operations.
    pub fn repeats(&self, per_second: f64) -> usize {
        ((self.seconds * per_second).round() as usize).max(1)
    }

    /// *Shortcut* arm: the facade's defaults (k = 0, one shard, no
    /// compaction) sized for `capacity`, on the pinned mapping budget.
    pub fn shortcut_builder(&self, capacity: usize) -> IndexBuilder {
        ShortcutIndex::builder()
            .capacity(capacity)
            .vma_budget(self.scaled(VMA_BUDGET))
    }
}

/// *EH* arm: the paper's baseline — plain extendible hashing with no
/// mapper thread, ticket or pin — over a pool sized exactly as
/// `IndexBuilder::capacity` sizes the Shortcut arm's (same slot layout,
/// load factor, growth step and view; the arithmetic is `IndexBuilder::
/// build`'s, which is private).
pub fn build_eh(capacity: usize) -> ExtendibleHash {
    let layout = SlotLayout::default();
    let eh = EhConfig::default();
    let per_slot = BucketLayout::for_slot(layout).steady_entries(eh.max_load_factor);
    let slots = (capacity / per_slot).max(1);
    let pool = PoolConfig {
        initial_pages: 1,
        min_growth_pages: slots.clamp(layout.slots_for_bytes(1 << 18), 4096),
        view_capacity_pages: (slots * 2)
            .max(layout.slots_for_bytes(1 << 24).max(64))
            .next_power_of_two(),
        ..PoolConfig::default()
    };
    ExtendibleHash::try_new(EhConfig { pool, ..eh }).expect("EH arm construction")
}

/// *std* arm: the yardstick. `std::collections::HashMap` with its default
/// hasher behind the same interface — the one arm that shares no code
/// with this repository, so a slowdown in code the other two arms share
/// (hash, bucket probe, pool) moves `speedup_vs_std` where it cancels out
/// of `speedup_vs_eh`. It is memory-bound the way the index is, so the
/// host's slow phases (NOISE.md) cancel out of the ratio all the same.
#[derive(Default)]
pub struct StdMap(std::collections::HashMap<u64, u64>);

impl Index for StdMap {
    fn insert(&mut self, key: u64, value: u64) -> Result<(), IndexError> {
        self.0.insert(key, value);
        Ok(())
    }

    fn get(&self, key: u64) -> Option<u64> {
        self.0.get(&key).copied()
    }

    fn remove(&mut self, key: u64) -> Result<Option<u64>, IndexError> {
        Ok(self.0.remove(&key))
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    fn name(&self) -> &'static str {
        "std"
    }
}

pub fn load(index: &mut impl Index, keys: &[u64]) {
    for &key in keys {
        index
            .insert(key, value_of(key))
            .expect("insert while loading");
    }
}

/// Bytes of pool memory per live key: pages the pool has handed out and
/// not taken back, times the slot size, over `len()`.
pub fn mem_bytes_per_key(stats: &StatsSnapshot) -> f64 {
    let pages = stats.rewire.pages_allocated - stats.rewire.pages_freed;
    (pages as usize * stats.slot_bytes) as f64 / stats.len.max(1) as f64
}

/// Share of lookups the shortcut answered between two snapshots.
pub fn served_frac(before: &StatsSnapshot, after: &StatsSnapshot) -> f64 {
    let shortcut = after.index.shortcut_lookups - before.index.shortcut_lookups;
    let traditional = after.index.traditional_lookups - before.index.traditional_lookups;
    shortcut as f64 / (shortcut + traditional).max(1) as f64
}

/// What a run hands back to `main` for printing.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations whose result was checked.
    pub attempted: u64,
    /// Of those, wrong value / unexpected miss / error reply / I/O error.
    pub failed: u64,
    /// Guards that tripped; any entry makes the run `correct: false`.
    pub broken: Vec<String>,
    pub end_to_end: BTreeMap<&'static str, f64>,
    pub per_layer: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn guard(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.broken.push(what());
        }
    }

    /// Add a measuring call's checked operations to the totals and print
    /// each arm's quiet and median slice time (the gap between the two is
    /// how disturbed the run was).
    pub fn count(&mut self, series: &[crate::measure::Series]) {
        for s in series {
            self.attempted += s.ops;
            self.failed += s.failed;
            println!(
                "arm {:28} quiet {:>12.3} ns/op  median {:>12.3}  slices {}",
                s.name,
                s.quiet_ns(),
                median(&s.ns_per_op),
                s.ns_per_op.len()
            );
        }
    }

    /// Counters of the Shortcut arm every workload can report.
    pub fn structure(&mut self, stats: &StatsSnapshot, inserts: u64) {
        let layer = &mut self.per_layer;
        layer.insert("exhash.global_depth", f64::from(stats.global_depth));
        layer.insert("exhash.splits", stats.index.splits as f64);
        layer.insert("exhash.doublings", stats.index.doublings as f64);
        layer.insert("core.creates_applied", stats.maint.creates_applied as f64);
        layer.insert("core.updates_applied", stats.maint.updates_applied as f64);
        layer.insert("core.creates_deferred", stats.maint.creates_deferred as f64);
        layer.insert("core.creates_coarse", stats.maint.creates_coarse as f64);
        layer.insert("core.creates_skipped", stats.maint.creates_skipped as f64);
        layer.insert(
            "core.compaction_pages_moved",
            stats.maint.pages_moved as f64,
        );
        layer.insert(
            "rewire.mmap_calls_per_insert",
            (stats.rewire.mmap_calls + stats.maint.create_mmap_calls) as f64
                / inserts.max(1) as f64,
        );
        layer.insert("rewire.pages_rewired", stats.maint.slots_rewired as f64);
        layer.insert("rewire.vmas_live", stats.vma.live_vmas() as f64);
        layer.insert("rewire.vmas_reclaimed", stats.vma.vmas_reclaimed as f64);
    }
}

/// Split a run into `blocks` rounds of (set-up, measure) and return the
/// last set-up's product; `setup_s` is the fastest set-up's duration.
///
/// One set-up is a few hundred ms of index building — too short to be
/// steady alone, and several in a row would all fall into the same
/// seconds-long slow phase of the machine. Spread over the whole run, the
/// set-ups sample as many phases as the measuring does, and the measured
/// part draws on several fresh instances instead of one placement. A
/// set-up's time is a floor (the work) plus page-fault and `mmap` weather,
/// which only ever adds, so the run value is the minimum; over ten runs
/// it spread half as much as the set-ups' median (NOISE.md).
pub fn in_blocks<T>(
    blocks: usize,
    trace: &mut Trace,
    root: Option<usize>,
    report: &mut Report,
    mut setup: impl FnMut(&mut Trace, Option<usize>) -> T,
    mut measure: impl FnMut(&mut T, &mut Trace),
) -> T {
    let mut durations = Vec::with_capacity(blocks);
    let mut product = None;
    for _ in 0..blocks {
        // Drop the previous product first: two live Shortcut arms would
        // not fit one process's mapping limit.
        drop(product.take());
        let span = trace.open("setup", "bench", root);
        let start = Instant::now();
        let mut built = setup(trace, span);
        durations.push(start.elapsed().as_secs_f64());
        trace.close(span, 1);
        println!("setup {:.4} s", durations[durations.len() - 1]);
        measure(&mut built, trace);
        product = Some(built);
    }
    report.end_to_end.insert(
        "setup_s",
        durations.iter().copied().fold(f64::INFINITY, f64::min),
    );
    product.expect("at least one block")
}
