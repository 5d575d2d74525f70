//! `grow_churn`: the layers the point workloads read through, used for
//! writes. A round grows one fresh instance of each arm (Shortcut, EH,
//! std), one after the other, from empty to 36 x 2^16 keys in 36 epochs; a
//! run is a fixed number of rounds. An epoch inserts its keys, removes an
//! eighth of them, lets the shortcut catch up (`wait_sync`, timed apart)
//! and reads 2^14 random live keys back.
//!
//! Every round replays the same keys; run values are medians over the
//! rounds of per-round quantities (see `over_rounds`).

use crate::arms::{build_eh, in_blocks, mem_bytes_per_key, Report, RunCfg, StdMap, SYNC_TIMEOUT};
use crate::host::proc_maps_lines;
use crate::point::{wrong, BATCH};
use crate::trace::Trace;
use crate::util::{median, quantile, value_of, Rng};
use std::hint::black_box;
use std::time::Instant;
use taking_the_shortcut::core::ShortcutNode;
use taking_the_shortcut::rewire::{PagePool, PoolConfig};
use taking_the_shortcut::{Index, StatsSnapshot};

/// Growth has to reach the doubling to 2^16 directory slots, which the
/// 65 530-mapping budget refuses. The first bucket of local depth 15 to
/// overflow triggers it, and when that happens depends on the keys: after
/// 25.2 to 33.6 epochs of 2^16 keys over 1 200 seeds (one seed in eight
/// gets through the issue's 2^21 keys without it; one in 150 gets past 33
/// epochs, one in 1 000 past 33.6). 36 epochs leave no seed out.
const EPOCHS: usize = 36;
const KEYS: usize = EPOCHS << 16;
/// The first 1/8 of an epoch's keys is removed once the epoch is in.
const REMOVED_SHARE: usize = 8;
/// Live keys read back after every epoch.
const READS: usize = 1 << 14;
/// Blocks of (set-up, measure) per run; a set-up grows a whole warm-up
/// instance, so fewer than the point workloads afford.
const BLOCKS: usize = 2;
/// Measured rounds per second of `--seconds`. On the reference host
/// (NOISE.md) a round is about 0.7 s of Shortcut growth, 1.3 s of waiting
/// for its mapper (36 waits of one to three 25 ms poll ticks), 0.5 s of EH
/// growth and 0.3 s of std growth, and up to 3.5 s in all in the host's
/// slow half-hours; a set-up is the first two of the four.
const ROUNDS_PER_SECOND: f64 = 0.4;
/// Share of an instance's reads the shortcut must answer. It answers all
/// of them until the directory outgrows the mapping budget (epoch 26-34
/// of 36, by the seed) and none afterwards; far below that, the mapper is
/// not doing its work and the run measures something else.
const SERVED_FLOOR: f64 = 0.5;

struct Streams {
    /// `(key, value)` in insertion order; epoch `e` is the `e`-th chunk.
    entries: Vec<(u64, u64)>,
    /// Keys read after each epoch, all live at that point.
    reads: Vec<Vec<u64>>,
}

impl Streams {
    fn generate(cfg: &RunCfg) -> Streams {
        let mut rng = Rng::new(cfg.seed);
        let per_epoch = cfg.scaled(KEYS) / EPOCHS;
        let entries: Vec<(u64, u64)> = rng
            .keys(per_epoch * EPOCHS)
            .into_iter()
            .map(|k| (k, value_of(k)))
            .collect();
        let removed = per_epoch / REMOVED_SHARE;
        let reads = (0..EPOCHS)
            .map(|epoch| {
                (0..cfg.scaled(READS).max(BATCH))
                    .map(|_| {
                        let from = rng.below(epoch + 1) * per_epoch;
                        entries[from + removed + rng.below(per_epoch - removed)].0
                    })
                    .collect()
            })
            .collect();
        Streams { entries, reads }
    }

    fn epoch(&self, e: usize) -> &[(u64, u64)] {
        let per_epoch = self.entries.len() / EPOCHS;
        &self.entries[e * per_epoch..(e + 1) * per_epoch]
    }
}

/// Times of one arm over one instance's growth, in ns.
#[derive(Default)]
struct ArmTimes {
    insert: f64,
    /// Wall of each 256-insert block.
    blocks: Vec<f64>,
    remove: f64,
    read: f64,
    /// Spent waiting for the shortcut between an epoch's writes and reads;
    /// not part of any per-operation time.
    settle: f64,
    inserts: u64,
    removes: u64,
    reads: u64,
    failed: u64,
}

impl ArmTimes {
    fn attempted(&self) -> u64 {
        self.inserts + self.removes + self.reads
    }

    /// ns per operation of the whole epoch stream.
    fn op_ns(&self) -> f64 {
        (self.insert + self.remove + self.read) / self.attempted() as f64
    }

    fn insert_ns(&self) -> f64 {
        self.insert / self.inserts as f64
    }

    fn get_ns(&self) -> f64 {
        self.read / self.reads as f64
    }
}

/// Span names and layer of one arm's timed calls.
struct Spans {
    insert: &'static str,
    remove: &'static str,
    get: &'static str,
    layer: &'static str,
}

const SHORTCUT_SPANS: Spans = Spans {
    insert: "facade.insert",
    remove: "facade.remove",
    get: "facade.get",
    layer: "facade",
};

const EH_SPANS: Spans = Spans {
    insert: "eh.insert",
    remove: "eh.remove",
    get: "eh.get",
    layer: "exhash",
};

const STD_SPANS: Spans = Spans {
    insert: "std.insert",
    remove: "std.remove",
    get: "std.get",
    layer: "bench",
};

/// Insert, remove, settle and read one epoch on one arm. `settle` runs
/// between the writes and the reads.
#[allow(clippy::too_many_arguments)]
fn run_epoch<I: Index>(
    index: &mut I,
    streams: &Streams,
    e: usize,
    times: &mut ArmTimes,
    spans: &Spans,
    trace: &mut Trace,
    parent: Option<usize>,
    settle: impl FnOnce(&I),
) {
    let ns = |from: Instant, to: Instant| to.duration_since(from).as_nanos() as f64;
    let entries = streams.epoch(e);
    let start = Instant::now();
    let mut block_start = start;
    for block in entries.chunks(BATCH) {
        for &(key, value) in block {
            times.failed += u64::from(index.insert(black_box(key), value).is_err());
        }
        let block_end = Instant::now();
        times.blocks.push(ns(block_start, block_end));
        block_start = block_end;
    }
    times.insert += ns(start, block_start);
    times.inserts += entries.len() as u64;
    trace.record(
        spans.insert,
        spans.layer,
        parent,
        start,
        block_start,
        entries.len() as u64,
    );

    let removed = &entries[..entries.len() / REMOVED_SHARE];
    let start = Instant::now();
    for &(key, value) in removed {
        times.failed += u64::from(!matches!(index.remove(key), Ok(Some(v)) if v == value));
    }
    let end = Instant::now();
    times.remove += ns(start, end);
    times.removes += removed.len() as u64;
    trace.record(
        spans.remove,
        spans.layer,
        parent,
        start,
        end,
        removed.len() as u64,
    );

    settle(index);
    times.settle += ns(end, Instant::now());

    let reads = &streams.reads[e];
    let start = Instant::now();
    for &key in reads {
        times.failed += wrong(key, index.get(black_box(key)));
    }
    let end = Instant::now();
    times.read += ns(start, end);
    times.reads += reads.len() as u64;
    trace.record(
        spans.get,
        spans.layer,
        parent,
        start,
        end,
        reads.len() as u64,
    );
}

/// What one round's growths produced.
struct Round {
    shortcut: ArmTimes,
    eh: ArmTimes,
    std: ArmTimes,
    /// Snapshot of the Shortcut arm after the last epoch.
    stats: StatsSnapshot,
    /// Share of the instance's reads the shortcut answered.
    served: f64,
    /// Share of the read blocks that began out of sync, after the wait.
    out_of_sync_frac: f64,
    vmas_peak: u64,
    vma_estimate_drift: f64,
    drop_ms: f64,
}

/// Grow one instance of each arm in lockstep, epoch by epoch: Shortcut,
/// then EH, then std, 15-40 ms each, so that the three see the same
/// machine (its speed changes within a second at times: NOISE.md). The
/// Shortcut arm's epoch ends with its mapper caught up and idle, so no
/// `mmap` storm of its lands in the other arms' page faults.
///
/// `yardsticks` off grows the Shortcut arm alone: a set-up's warm-up.
fn grow_round(
    cfg: &RunCfg,
    streams: &Streams,
    yardsticks: bool,
    trace: &mut Trace,
    parent: Option<usize>,
) -> Round {
    let span = trace.open("round", "bench", parent);
    let capacity = streams.entries.len();
    let mut eh = build_eh(capacity);
    let mut std_map = StdMap::default();
    let maps_before = proc_maps_lines();
    let builder = cfg.shortcut_builder(capacity);
    let mut shortcut = cfg
        .placement
        .off_driver(|| builder.build())
        .expect("Shortcut arm construction");
    let (mut out_of_sync, mut vmas_peak) = (0usize, 0u64);
    let (mut by_shortcut, mut by_directory) = (0u64, 0u64);
    let mut times = [
        ArmTimes::default(),
        ArmTimes::default(),
        ArmTimes::default(),
    ];
    let [sc_times, eh_times, std_times] = &mut times;
    for e in 0..EPOCHS {
        // Without the wait no read is ever shortcut-served: an epoch's
        // 65 536 inserts take 15 ms and the mapper polls every 25 ms.
        // A suspended shortcut fails the wait fast.
        let mut before_reads = None;
        run_epoch(
            &mut shortcut,
            streams,
            e,
            sc_times,
            &SHORTCUT_SPANS,
            trace,
            span,
            |index| {
                index.wait_sync(SYNC_TIMEOUT);
                before_reads = Some(index.stats());
            },
        );
        let before = before_reads.expect("settle ran");
        let after = shortcut.stats();
        by_shortcut += after.index.shortcut_lookups - before.index.shortcut_lookups;
        by_directory += after.index.traditional_lookups - before.index.traditional_lookups;
        out_of_sync += usize::from(!before.in_sync);
        vmas_peak = vmas_peak.max(after.vma.in_use);
        if !yardsticks {
            continue;
        }
        run_epoch(
            &mut eh,
            streams,
            e,
            eh_times,
            &EH_SPANS,
            trace,
            span,
            |_| (),
        );
        run_epoch(
            &mut std_map,
            streams,
            e,
            std_times,
            &STD_SPANS,
            trace,
            span,
            |_| (),
        );
    }
    let stats = shortcut.stats();
    let mapped = proc_maps_lines().saturating_sub(maps_before);
    assert!(
        shortcut.maint_error().is_none(),
        "mapper error: {:?}",
        shortcut.maint_error()
    );
    let start = Instant::now();
    drop(shortcut);
    let end = Instant::now();
    trace.record("facade.drop", "rewire", span, start, end, 1);
    trace.close(span, times.iter().map(ArmTimes::attempted).sum());
    let [shortcut, eh, std] = times;
    Round {
        shortcut,
        eh,
        std,
        stats,
        served: by_shortcut as f64 / (by_shortcut + by_directory).max(1) as f64,
        out_of_sync_frac: out_of_sync as f64 / EPOCHS as f64,
        vmas_peak,
        vma_estimate_drift: stats.vma.in_use as f64 - mapped as f64,
        drop_ms: end.duration_since(start).as_secs_f64() * 1e3,
    }
}

/// The run value of a per-round quantity: its median over the rounds.
///
/// Not the quiet decile the point workloads use: a growth's time is not
/// a floor plus interference. Pool growth is page faults and `ftruncate`,
/// whose cost depends on the kernel's free lists, and the Shortcut arm's
/// also depends on where the mapper's `mmap` calls land among the
/// writer's page faults. The arms of a round grow in lockstep, so a ratio
/// is taken per round, and the median of those ratios is what repeats
/// (NOISE.md).
fn over_rounds(rounds: &[Round], of: impl Fn(&Round) -> f64) -> f64 {
    median(&rounds.iter().map(of).collect::<Vec<f64>>())
}

/// The cost of the rewiring calls the mapper makes, on a scratch pool.
fn scratch_pool_rungs(cfg: &RunCfg, trace: &mut Trace, root: Option<usize>, report: &mut Report) {
    let span = trace.open("scratch_pool", "rewire", root);
    let slots = cfg.scaled(1 << 12).max(64);
    let mut pool = PagePool::new(PoolConfig {
        name: "benchmark-scratch".to_string(),
        min_growth_pages: slots,
        view_capacity_pages: 2 * slots,
        ..PoolConfig::default()
    })
    .expect("scratch pool");
    let start = Instant::now();
    let pages: Vec<_> = (0..slots)
        .map(|_| pool.alloc_page().expect("scratch page"))
        .collect();
    let alloc_ns = start.elapsed().as_nanos() as f64 / slots as f64;
    let handle = pool.handle();
    let mut node = ShortcutNode::for_pool(slots, &handle, false).expect("scratch node");
    // Back to front, so neighbouring slots never form a run the kernel
    // could merge: one mapping per call, the mapper's worst case.
    let start = Instant::now();
    for (slot, &page) in pages.iter().rev().enumerate() {
        node.set_slot(slot, &handle, page).expect("scratch rewire");
    }
    let set_slot_us = start.elapsed().as_secs_f64() * 1e6 / slots as f64;
    let start = Instant::now();
    let populated = node.populate();
    let populate_us = start.elapsed().as_secs_f64() * 1e6 / populated.max(1) as f64;
    let layer = &mut report.per_layer;
    layer.insert("rewire.alloc_page_ns", alloc_ns);
    layer.insert("rewire.set_slot_us", set_slot_us);
    layer.insert("rewire.populate_us_per_page", populate_us);
    trace.close(span, 3 * slots as u64);
}

pub fn run(cfg: &RunCfg, trace: &mut Trace, root: Option<usize>, report: &mut Report) {
    report.guard(cfg.placement.pin_driver(), || {
        "driver thread is not pinned to the last CPU".to_string()
    });
    if cfg.trace {
        scratch_pool_rungs(cfg, trace, root, report);
    }
    let per_block = cfg.repeats(ROUNDS_PER_SECOND / BLOCKS as f64);
    let mut rounds = Vec::new();
    let streams = in_blocks(
        BLOCKS,
        trace,
        root,
        report,
        // A set-up generates the streams and grows (and drops) one
        // Shortcut instance, mapper waits included: a warm-up pass, and two
        // seconds of real index work. The yardsticks have nothing to warm:
        // every instance of theirs is a fresh pool file or allocation.
        |trace, span| {
            let streams = Streams::generate(cfg);
            grow_round(cfg, &streams, false, trace, span);
            streams
        },
        |streams, trace| {
            let span = trace.open("measure", "bench", root);
            for _ in 0..per_block {
                rounds.push(grow_round(cfg, streams, true, trace, span));
            }
            trace.close(span, per_block as u64);
        },
    );

    for round in &rounds {
        let Round {
            shortcut, eh, std, ..
        } = round;
        println!(
            "round op ns: shortcut {:7.2} eh {:7.2} std {:7.2} | insert ns {:7.2} {:7.2} {:7.2} | get ns {:7.2} {:7.2} {:7.2} | waited {:6.1} ms, served {:.3}",
            shortcut.op_ns(),
            eh.op_ns(),
            std.op_ns(),
            shortcut.insert_ns(),
            eh.insert_ns(),
            std.insert_ns(),
            shortcut.get_ns(),
            eh.get_ns(),
            std.get_ns(),
            shortcut.settle / 1e6,
            round.served
        );
        for arm in [shortcut, eh, std] {
            report.attempted += arm.attempted();
            report.failed += arm.failed;
        }
    }
    let last = rounds.last().expect("at least one round per block");
    // Each event by name: a suspended flag alone would also be set by a
    // mapper that never mapped anything.
    let pressed = |s: &StatsSnapshot| {
        s.maint.creates_skipped + s.maint.creates_deferred + s.maint.creates_coarse > 0
    };
    // At 1/64 of the keys it depends on the seed whether growth reaches
    // the doubling that 1/64 of the budget refuses; the full run always
    // does (2^16 slots against 65 530 mappings: see `EPOCHS`).
    report.guard(
        cfg.smoke || rounds.iter().all(|p| pressed(&p.stats)),
        || "growth never pressed the VMA budget (no skipped, deferred or coarse create)".into(),
    );
    report.guard(
        rounds.iter().all(|p| p.stats.vma.vmas_reclaimed > 0),
        || "no superseded directory was reclaimed".to_string(),
    );
    let served = rounds.iter().map(|p| p.served).fold(1.0, f64::min);
    report.guard(served >= SERVED_FLOOR, || {
        format!("an instance had only {served:.3} of its reads shortcut-served")
    });

    let e2e = &mut report.end_to_end;
    e2e.insert(
        "speedup_vs_eh",
        over_rounds(&rounds, |r| r.eh.op_ns() / r.shortcut.op_ns()),
    );
    e2e.insert(
        "speedup_vs_std",
        over_rounds(&rounds, |r| r.std.op_ns() / r.shortcut.op_ns()),
    );
    e2e.insert("mem_bytes_per_key", mem_bytes_per_key(&last.stats));

    if cfg.trace {
        let mean =
            |f: &dyn Fn(&Round) -> f64| rounds.iter().map(f).sum::<f64>() / rounds.len() as f64;
        let blocks: Vec<f64> = rounds
            .iter()
            .flat_map(|p| p.shortcut.blocks.iter().copied())
            .collect();
        let layer = &mut report.per_layer;
        layer.insert(
            "e2e.insert_ns",
            over_rounds(&rounds, |r| r.shortcut.insert_ns()),
        );
        layer.insert("e2e.insert_block_p99_us", quantile(&blocks, 0.99) / 1e3);
        layer.insert("e2e.get_ns", over_rounds(&rounds, |r| r.shortcut.get_ns()));
        layer.insert("exhash.eh_get_ns", over_rounds(&rounds, |r| r.eh.get_ns()));
        layer.insert("e2e.shortcut_served_frac", mean(&|r| r.served));
        layer.insert("core.out_of_sync_frac", mean(&|r| r.out_of_sync_frac));
        layer.insert(
            "core.sync_wait_ms",
            mean(&|r| r.shortcut.settle / 1e6 / EPOCHS as f64),
        );
        layer.insert(
            "rewire.vmas_peak",
            rounds.iter().map(|p| p.vmas_peak).max().unwrap_or(0) as f64,
        );
        layer.insert("rewire.vma_estimate_drift", mean(&|r| r.vma_estimate_drift));
        layer.insert("rewire.drop_ms", mean(&|r| r.drop_ms));
        report.structure(&last.stats, streams.entries.len() as u64);
    }
}
